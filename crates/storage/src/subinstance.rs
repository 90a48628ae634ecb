//! Helpers for describing and materialising sub-instances `D' ⊆ D`.
//!
//! A counterexample is a *selection of tuple identifiers*; this module wraps
//! that selection, closes it under foreign keys, and materialises it back
//! into a [`Database`].

use crate::database::Database;
use crate::error::Result;
use crate::fk_index::ForeignKeyIndex;
use crate::tuple::TupleId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A set of base-tuple identifiers describing a sub-instance, kept as a
/// sorted slice without duplicates. Clones share the slice (a
/// counterexample and its witness usually select the same tuples).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TupleSelection {
    ids: Arc<[TupleId]>,
}

impl TupleSelection {
    /// Empty selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selection from an iterator of ids.
    pub fn from_ids<I: IntoIterator<Item = TupleId>>(ids: I) -> Self {
        let mut ids: Vec<TupleId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        TupleSelection { ids: ids.into() }
    }

    /// Selection of *all* tuples of a database (the trivial counterexample).
    pub fn all(db: &Database) -> Self {
        TupleSelection::from_ids(
            db.relations()
                .flat_map(|rel| rel.iter().map(|t| t.id.expect("base tuple"))),
        )
    }

    /// Add a tuple id.
    pub fn insert(&mut self, id: TupleId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                let mut ids = self.ids.to_vec();
                ids.insert(at, id);
                self.ids = ids.into();
                true
            }
        }
    }

    /// Whether the selection contains an id.
    pub fn contains(&self, id: TupleId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Number of selected tuples — the objective the paper minimises.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the selection is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterate over selected ids in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.ids.iter().copied()
    }

    /// Union with another selection.
    pub fn union(&self, other: &TupleSelection) -> TupleSelection {
        TupleSelection::from_ids(self.iter().chain(other.iter()))
    }

    /// Whether this selection is a subset of another.
    pub fn is_subset(&self, other: &TupleSelection) -> bool {
        self.iter().all(|id| other.contains(id))
    }

    /// Close the selection under the database's foreign keys: whenever a
    /// selected child tuple references a parent tuple, the parent is added
    /// too. Iterates to a fixpoint (FK chains), following the instance's
    /// [`Database::foreign_key_index`] from the selected tuples only.
    /// Returns the number of tuples added.
    pub fn close_under_foreign_keys(&mut self, db: &Database) -> Result<usize> {
        Ok(self.close_under(db.foreign_key_index()?))
    }

    /// [`TupleSelection::close_under_foreign_keys`] through an instance's
    /// foreign-key index. Returns the number of tuples added.
    pub fn close_under(&mut self, index: &ForeignKeyIndex) -> usize {
        let before = self.len();
        let mut added = self.missing_parents(index, self.iter());
        while !added.is_empty() {
            *self = TupleSelection::from_ids(self.iter().chain(added.iter().copied()));
            added = self.missing_parents(index, added.into_iter());
        }
        self.len() - before
    }

    /// The parents of `children` not yet in the selection.
    fn missing_parents(
        &self,
        index: &ForeignKeyIndex,
        children: impl Iterator<Item = TupleId>,
    ) -> Vec<TupleId> {
        children
            .flat_map(|child| index.parents(child))
            .filter(|&p| !self.contains(p))
            .collect()
    }
}

/// A materialised sub-instance: the selection plus the induced database.
#[derive(Debug, Clone)]
pub struct SubInstance {
    /// The selected tuple ids.
    pub selection: TupleSelection,
    /// The induced database `D'`.
    pub database: Database,
}

impl SubInstance {
    /// Materialise a selection over `db`. The induced database builds its
    /// relations on first use ([`Database::restrict_to`]).
    pub fn materialize(db: &Database, selection: TupleSelection) -> SubInstance {
        let database = db.restrict_to(&selection);
        SubInstance {
            selection,
            database,
        }
    }

    /// Drop the induced database's relations until their next use
    /// ([`Database::shrink_to_fit`]): for sub-instances kept long after
    /// they are used.
    pub fn shrink_to_fit(&mut self) {
        self.database.shrink_to_fit();
    }

    /// Total number of tuples, `|D'|`.
    pub fn size(&self) -> usize {
        self.selection.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;
    use crate::Relation;

    fn db_with_fk() -> Database {
        let mut student = Relation::new(
            "Student",
            Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
        );
        student
            .insert_all(vec![
                vec![Value::from("Mary"), Value::from("CS")],
                vec![Value::from("John"), Value::from("ECON")],
            ])
            .unwrap();
        let mut reg = Relation::new(
            "Registration",
            Schema::new(vec![("name", DataType::Text), ("course", DataType::Text)]),
        );
        reg.insert_all(vec![
            vec![Value::from("Mary"), Value::from("216")],
            vec![Value::from("John"), Value::from("316")],
        ])
        .unwrap();
        let mut db = Database::new("toy");
        db.add_relation(student).unwrap();
        db.add_relation(reg).unwrap();
        db.constraints_mut()
            .add_foreign_key("Registration", &["name"], "Student", &["name"]);
        db
    }

    #[test]
    fn all_selects_everything() {
        let db = db_with_fk();
        let s = TupleSelection::all(&db);
        assert_eq!(s.len(), db.total_tuples());
        assert!(!s.is_empty());
    }

    #[test]
    fn fk_closure_adds_parents() {
        let db = db_with_fk();
        // Select only Mary's registration (relation 1, row 0).
        let mut s = TupleSelection::from_ids(vec![TupleId::new(1, 0)]);
        let added = s.close_under_foreign_keys(&db).unwrap();
        assert_eq!(added, 1);
        assert!(s.contains(TupleId::new(0, 0))); // Mary's student tuple
        assert_eq!(s.len(), 2);
        // Closure is idempotent.
        assert_eq!(s.clone().close_under_foreign_keys(&db).unwrap(), 0);
    }

    #[test]
    fn materialize_produces_valid_subinstance() {
        let db = db_with_fk();
        let mut sel = TupleSelection::from_ids(vec![TupleId::new(1, 0)]);
        sel.close_under_foreign_keys(&db).unwrap();
        let sub = SubInstance::materialize(&db, sel);
        assert_eq!(sub.size(), 2);
        assert!(db.contains_subinstance(&sub.database));
        assert!(sub.database.validate_constraints().is_ok());
        assert_eq!(sub.database.relation("Registration").unwrap().len(), 1);
    }

    #[test]
    fn set_operations() {
        let a = TupleSelection::from_ids(vec![TupleId::new(0, 0), TupleId::new(0, 1)]);
        let b = TupleSelection::from_ids(vec![TupleId::new(0, 1), TupleId::new(1, 0)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(a.is_subset(&u));
        assert!(b.is_subset(&u));
        assert!(!u.is_subset(&a));
        let collected: Vec<TupleId> = u.iter().collect();
        assert_eq!(collected.len(), 3);
        assert!(collected.windows(2).all(|w| w[0] < w[1]), "sorted order");
    }
}
