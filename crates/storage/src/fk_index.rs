//! The foreign-key edge index of an instance: for every foreign key, in
//! constraint order, the parent tuple each child tuple references.
//!
//! Foreign-key closure and the solver's `t_child ⇒ t_parent` clauses
//! (Section 4.3) only ever ask "which parents does this tuple reference?".
//! [`crate::Database::foreign_key_index`] answers that from an index built
//! once per instance by [`ForeignKey::referenced_tuples`], so callers walk
//! their own (small) selection instead of the whole instance.
//!
//! [`ForeignKey::referenced_tuples`]: crate::ForeignKey::referenced_tuples

use crate::database::Database;
use crate::error::Result;
use crate::tuple::TupleId;

/// Child → parent edges of every foreign key of one instance.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ForeignKeyIndex {
    keys: Box<[KeyEdges]>,
}

/// The edges of one foreign key.
#[derive(Debug, PartialEq, Eq)]
struct KeyEdges {
    /// Relation index of the referencing relation.
    child: u32,
    /// `parents[row]`: the tuple referenced by child tuple `row`, `None`
    /// when it references nothing (null key, dangling, or no such row).
    parents: Box<[Option<TupleId>]>,
}

impl ForeignKeyIndex {
    /// Index every foreign key of `db`.
    pub(crate) fn build(db: &Database) -> Result<ForeignKeyIndex> {
        let keys = db
            .constraints()
            .foreign_keys()
            .map(|fk| {
                let child = db.relation(&fk.child)?.relation_index();
                let edges = fk.referenced_tuples(db)?;
                let rows = edges.iter().map(|(c, _)| c.row as usize + 1).max();
                let mut parents = vec![None; rows.unwrap_or(0)];
                for (c, p) in edges {
                    parents[c.row as usize] = p;
                }
                Ok(KeyEdges {
                    child,
                    parents: parents.into_boxed_slice(),
                })
            })
            .collect::<Result<_>>()?;
        Ok(ForeignKeyIndex { keys })
    }

    /// Number of foreign keys indexed.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the instance has no foreign keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Relation index of the `key`-th foreign key's referencing relation.
    pub fn child_relation(&self, key: usize) -> u32 {
        self.keys[key].child
    }

    /// The tuple `child` references through the `key`-th foreign key.
    pub fn parent(&self, key: usize, child: TupleId) -> Option<TupleId> {
        let edges = &self.keys[key];
        if child.relation != edges.child {
            return None;
        }
        edges.parents.get(child.row as usize).copied().flatten()
    }

    /// Every tuple `child` references, in constraint order.
    pub fn parents(&self, child: TupleId) -> impl Iterator<Item = TupleId> + '_ {
        (0..self.keys.len()).filter_map(move |key| self.parent(key, child))
    }
}
