//! Relations: named sets of tuples with a schema.

use crate::error::{Result, StorageError};
use crate::row_index::RowIndex;
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A named relation with set semantics over values.
///
/// Internally tuples are stored in insertion order so that row indices are
/// stable and can serve as the `row` component of a [`TupleId`]. A
/// [`RowIndex`] of row positions enforces set semantics (duplicate
/// value-tuples are rejected on insert, mirroring the paper's set-based
/// relational algebra). The index is built on first use and never copied:
/// a clone or a restriction builds its own only if it is inserted into or
/// probed. The name and schema are shared with every clone and restriction.
#[derive(Debug, Serialize, Deserialize)]
pub struct Relation {
    name: Arc<str>,
    schema: Arc<Schema>,
    rows: Vec<Tuple>,
    #[serde(skip)]
    dedup: OnceLock<Box<RowIndex>>,
    /// Index of this relation inside its database; assigned by
    /// [`crate::Database::add_relation`]. `u32::MAX` while detached.
    relation_index: u32,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            dedup: OnceLock::new(),
            relation_index: self.relation_index,
        }
    }
}

impl Relation {
    /// Create an empty relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Relation::from_parts(name.into(), schema, u32::MAX, Vec::new())
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The index assigned by the owning database (`u32::MAX` if detached).
    pub fn relation_index(&self) -> u32 {
        self.relation_index
    }

    pub(crate) fn set_relation_index(&mut self, idx: u32) {
        self.relation_index = idx;
        for (row, t) in self.rows.iter_mut().enumerate() {
            t.id = Some(TupleId::new(idx, row as u32));
        }
    }

    /// Insert a tuple (by values). Returns the assigned [`TupleId`], or
    /// `None` if an identical value-tuple is already present (set semantics).
    pub fn insert(&mut self, values: Vec<Value>) -> Result<Option<TupleId>> {
        self.schema.validate(&self.name, &values)?;
        self.index();
        let row = self.rows.len() as u32;
        let rows = &self.rows;
        let dedup = self.dedup.get_mut().expect("built by `index` above");
        if dedup
            .insert(&values, row, |pos| &rows[pos as usize].values)
            .is_err()
        {
            return Ok(None);
        }
        let id = TupleId::new(self.relation_index, row);
        self.rows.push(Tuple::base(values, id));
        Ok(Some(id))
    }

    /// Insert many tuples; duplicates are silently skipped.
    pub fn insert_all<I: IntoIterator<Item = Vec<Value>>>(&mut self, rows: I) -> Result<usize> {
        let mut inserted = 0;
        for r in rows {
            if self.insert(r)?.is_some() {
                inserted += 1;
            }
        }
        Ok(inserted)
    }

    /// Iterate over tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// The tuple at a given row index.
    pub fn tuple(&self, row: usize) -> Result<&Tuple> {
        self.rows
            .get(row)
            .ok_or_else(|| StorageError::UnknownTuple {
                relation: self.name.to_string(),
                index: row,
            })
    }

    /// Whether the relation contains a tuple with exactly these values.
    pub fn contains_values(&self, values: &[Value]) -> bool {
        self.index()
            .find(values, |pos| &self.rows[pos as usize].values)
            .is_some()
    }

    /// Restrict the relation to the rows whose [`TupleId`] satisfies `keep`.
    /// Identifiers of kept tuples are preserved (this is what makes a
    /// counterexample a genuine *sub*-instance of the original database).
    pub fn restrict<F: Fn(TupleId) -> bool>(&self, keep: F) -> Relation {
        let mut rows: Vec<Tuple> = self
            .rows
            .iter()
            .filter(|t| keep(t.id.expect("base tuples always carry an id")))
            .cloned()
            .collect();
        // Counterexamples outlive the search; keep them at their size.
        rows.shrink_to_fit();
        Relation {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows,
            dedup: OnceLock::new(),
            relation_index: self.relation_index,
        }
    }

    /// Drop the deduplication index; the next insert or probe rebuilds it
    /// from the rows.
    pub fn rebuild_index(&mut self) {
        self.dedup = OnceLock::new();
    }

    /// The deduplication index, built on first use.
    fn index(&self) -> &RowIndex {
        self.dedup.get_or_init(|| {
            Box::new(RowIndex::build(self.rows.len(), |pos| {
                &self.rows[pos as usize].values
            }))
        })
    }

    /// Reassemble a relation from previously serialized parts, *preserving*
    /// the given tuple identifiers instead of reassigning them the way
    /// [`Relation::insert`] does. Used by [`crate::codec`] to round-trip
    /// counterexample sub-instances, whose id spaces legitimately contain
    /// holes.
    pub(crate) fn from_parts(
        name: String,
        schema: Schema,
        relation_index: u32,
        rows: Vec<Tuple>,
    ) -> Relation {
        Relation {
            name: name.into(),
            schema: Arc::new(schema),
            rows,
            dedup: OnceLock::new(),
            relation_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn reg() -> Relation {
        Relation::new(
            "Registration",
            Schema::new(vec![
                ("name", DataType::Text),
                ("course", DataType::Text),
                ("dept", DataType::Text),
                ("grade", DataType::Int),
            ]),
        )
    }

    #[test]
    fn insert_assigns_sequential_ids_and_dedups() {
        let mut r = reg();
        let a = r
            .insert(vec![
                Value::from("Mary"),
                Value::from("216"),
                Value::from("CS"),
                Value::Int(100),
            ])
            .unwrap();
        let b = r
            .insert(vec![
                Value::from("Mary"),
                Value::from("230"),
                Value::from("CS"),
                Value::Int(75),
            ])
            .unwrap();
        assert!(a.is_some() && b.is_some());
        assert_eq!(a.unwrap().row, 0);
        assert_eq!(b.unwrap().row, 1);
        // duplicate is skipped
        let dup = r
            .insert(vec![
                Value::from("Mary"),
                Value::from("216"),
                Value::from("CS"),
                Value::Int(100),
            ])
            .unwrap();
        assert!(dup.is_none());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = reg();
        assert!(r.insert(vec![Value::from("Mary")]).is_err());
        assert!(r
            .insert(vec![
                Value::from("Mary"),
                Value::from("216"),
                Value::from("CS"),
                Value::from("A+"), // wrong type
            ])
            .is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn restrict_preserves_ids() {
        let mut r = reg();
        r.set_relation_index(1);
        for (c, g) in [("216", 100), ("230", 75), ("208D", 95)] {
            r.insert(vec![
                Value::from("Mary"),
                Value::from(c),
                Value::from("CS"),
                Value::Int(g),
            ])
            .unwrap();
        }
        let sub = r.restrict(|id| id.row != 1);
        assert_eq!(sub.len(), 2);
        let ids: Vec<u32> = sub.iter().map(|t| t.id.unwrap().row).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(sub.relation_index(), 1);
    }

    #[test]
    fn contains_and_tuple_lookup() {
        let mut r = reg();
        r.insert(vec![
            Value::from("Jesse"),
            Value::from("330"),
            Value::from("CS"),
            Value::Int(85),
        ])
        .unwrap();
        assert!(r.contains_values(&[
            Value::from("Jesse"),
            Value::from("330"),
            Value::from("CS"),
            Value::Int(85),
        ]));
        assert!(!r.contains_values(&[
            Value::from("Jesse"),
            Value::from("330"),
            Value::from("CS"),
            Value::Int(86),
        ]));
        assert!(r.tuple(0).is_ok());
        assert!(r.tuple(7).is_err());
    }

    #[test]
    fn duplicates_are_rejected_after_clone_restrict_from_parts_and_rebuild() {
        let row = |c: &str| {
            vec![
                Value::from("Mary"),
                Value::from(c),
                Value::from("CS"),
                Value::Int(90),
            ]
        };
        let mut r = reg();
        r.set_relation_index(1);
        r.insert_all(vec![row("216"), row("230"), row("330")])
            .unwrap();
        let mut rebuilt = r.clone();
        rebuilt.rebuild_index();
        let parts = Relation::from_parts(
            r.name().to_owned(),
            r.schema().clone(),
            r.relation_index(),
            r.iter().cloned().collect(),
        );
        for mut copy in [r.clone(), r.restrict(|id| id.row != 1), parts, rebuilt] {
            assert_eq!(copy.insert(row("216")).unwrap(), None, "kept row");
            assert!(copy.insert(row("316")).unwrap().is_some(), "fresh row");
            assert_eq!(copy.insert(row("316")).unwrap(), None, "just inserted");
        }
        // The copies never touched the original.
        assert_eq!(r.len(), 3);
        assert!(!r.contains_values(&row("316")));
    }

    #[test]
    fn set_relation_index_rewrites_tuple_ids() {
        let mut r = reg();
        r.insert(vec![
            Value::from("John"),
            Value::from("316"),
            Value::from("CS"),
            Value::Int(90),
        ])
        .unwrap();
        assert_eq!(r.tuple(0).unwrap().id.unwrap().relation, u32::MAX);
        r.set_relation_index(5);
        assert_eq!(r.tuple(0).unwrap().id.unwrap().relation, 5);
    }
}
