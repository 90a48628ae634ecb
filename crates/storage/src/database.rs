//! Database instances: named collections of relations plus their constraints.

use crate::constraints::ConstraintSet;
use crate::error::{Result, StorageError};
use crate::fk_index::ForeignKeyIndex;
use crate::relation::Relation;
use crate::tuple::TupleId;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A database instance `D`: an ordered collection of named relations together
/// with its integrity constraints Γ.
///
/// Relations are looked up by a scan of their names: instances hold a
/// handful of relations. The name and constraint set are shared with every
/// clone, and every sub-instance shares one copy of them. The foreign-key
/// index is built on first use and shared with every clone, including
/// clones made before that use; changing the relations or constraints drops
/// it. A sub-instance starts without one and without the shared slot for
/// it, which it allocates on first use: counterexamples, which never use
/// it, do not carry it.
#[derive(Clone, Serialize, Deserialize)]
pub struct Database {
    meta: Arc<Meta>,
    relations: Vec<Relation>,
    #[serde(skip)]
    fk_index: OnceLock<FkSlot>,
}

/// Where a database and its clones keep their foreign-key index.
type FkSlot = Arc<OnceLock<Result<ForeignKeyIndex>>>;

/// An allocated, empty slot: shared by every clone made from here on.
fn fresh_fk_slot() -> OnceLock<FkSlot> {
    OnceLock::from(FkSlot::default())
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("meta", &self.meta)
            .field("relations", &self.relations)
            .finish()
    }
}

/// What a database shares with its clones.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Meta {
    name: Box<str>,
    constraints: ConstraintSet,
    /// The meta of this database's sub-instances, made on first use.
    #[serde(skip)]
    subinstance: OnceLock<Arc<Meta>>,
}

impl Database {
    /// Create an empty database instance.
    pub fn new(name: impl Into<String>) -> Self {
        Database::from_parts(name.into(), Vec::new(), ConstraintSet::new())
    }

    /// The instance name.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Add a relation. Its tuples are re-identified with this database's
    /// relation index so that [`TupleId`]s are globally unique.
    pub fn add_relation(&mut self, mut relation: Relation) -> Result<u32> {
        if self.position(relation.name()).is_some() {
            return Err(StorageError::DuplicateRelation(relation.name().into()));
        }
        let idx = self.relations.len() as u32;
        relation.set_relation_index(idx);
        self.relations.push(relation);
        self.fk_index = fresh_fk_slot();
        Ok(idx)
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.position(name)
            .map(|i| &self.relations[i])
            .ok_or_else(|| StorageError::UnknownRelation(name.into()))
    }

    /// Look up a relation mutably by name.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.fk_index = fresh_fk_slot();
        match self.position(name) {
            Some(i) => Ok(&mut self.relations[i]),
            None => Err(StorageError::UnknownRelation(name.into())),
        }
    }

    /// Where the relation called `name` sits in `relations`.
    fn position(&self, name: &str) -> Option<usize> {
        self.relations.iter().position(|r| r.name() == name)
    }

    /// Look up a relation by its index.
    pub fn relation_by_index(&self, idx: u32) -> Option<&Relation> {
        self.relations.get(idx as usize)
    }

    /// Iterate over the relations in insertion order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter()
    }

    /// Names of all relations, in insertion order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.iter().map(|r| r.name()).collect()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations: `|D|` in the paper.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// The constraint set Γ.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.meta.constraints
    }

    /// Mutable access to Γ (copied first if a clone or sub-instance still
    /// shares it).
    pub fn constraints_mut(&mut self) -> &mut ConstraintSet {
        self.fk_index = fresh_fk_slot();
        let meta = Arc::make_mut(&mut self.meta);
        meta.subinstance = OnceLock::new();
        &mut meta.constraints
    }

    /// The foreign-key edge index of this instance, built on first use and
    /// shared with every clone.
    pub fn foreign_key_index(&self) -> Result<&ForeignKeyIndex> {
        self.fk_index
            .get_or_init(FkSlot::default)
            .get_or_init(|| ForeignKeyIndex::build(self))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Check `D ⊨ Γ`.
    pub fn validate_constraints(&self) -> Result<()> {
        self.meta.constraints.validate(self)
    }

    /// Resolve a [`TupleId`] to its tuple.
    pub fn tuple(&self, id: TupleId) -> Result<&crate::tuple::Tuple> {
        let rel = self
            .relation_by_index(id.relation)
            .ok_or_else(|| StorageError::UnknownRelation(format!("#{}", id.relation)))?;
        rel.tuple(id.row as usize)
    }

    /// Build the sub-instance `D' ⊆ D` induced by a set of tuple ids. The
    /// result has the same relations (some possibly empty), the same schema,
    /// the same constraints, and retained tuples keep their identifiers.
    pub fn subinstance<F: Fn(TupleId) -> bool>(&self, keep: F) -> Database {
        let meta = self.meta.subinstance.get_or_init(|| {
            Arc::new(Meta {
                name: format!("{}⊆", self.meta.name).into(),
                constraints: self.meta.constraints.clone(),
                subinstance: OnceLock::new(),
            })
        });
        Database {
            meta: meta.clone(),
            relations: self.relations.iter().map(|r| r.restrict(&keep)).collect(),
            fk_index: OnceLock::new(),
        }
    }

    /// Whether `other` is a sub-instance of `self` (every tuple of `other`
    /// appears, with the same identifier and values, in `self`).
    pub fn contains_subinstance(&self, other: &Database) -> bool {
        for rel in other.relations() {
            let Ok(mine) = self.relation(rel.name()) else {
                return false;
            };
            for t in rel.iter() {
                let Some(id) = t.id else { return false };
                match mine.tuple(id.row as usize) {
                    Ok(orig) => {
                        if orig.values != t.values {
                            return false;
                        }
                    }
                    Err(_) => return false,
                }
            }
        }
        true
    }

    /// Reassemble a database from previously serialized parts, keeping each
    /// relation's index and tuple identifiers exactly as given (unlike
    /// [`Database::add_relation`], which re-identifies). Used by
    /// [`crate::codec`].
    pub(crate) fn from_parts(
        name: String,
        relations: Vec<Relation>,
        constraints: ConstraintSet,
    ) -> Database {
        Database {
            meta: Arc::new(Meta {
                name: name.into(),
                constraints,
                subinstance: OnceLock::new(),
            }),
            relations,
            fk_index: fresh_fk_slot(),
        }
    }

    /// Drop every relation's dedup index (see [`Relation::rebuild_index`]);
    /// each is rebuilt from its rows on next use. Name lookups need no
    /// index.
    pub fn rebuild_indexes(&mut self) {
        for r in &mut self.relations {
            r.rebuild_index();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn toy() -> Database {
        let mut student = Relation::new(
            "Student",
            Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
        );
        student
            .insert_all(vec![
                vec![Value::from("Mary"), Value::from("CS")],
                vec![Value::from("John"), Value::from("ECON")],
                vec![Value::from("Jesse"), Value::from("CS")],
            ])
            .unwrap();
        let mut db = Database::new("toy");
        db.add_relation(student).unwrap();
        db
    }

    #[test]
    fn add_and_lookup_relations() {
        let db = toy();
        assert_eq!(db.relation_count(), 1);
        assert_eq!(db.total_tuples(), 3);
        assert!(db.relation("Student").is_ok());
        assert!(db.relation("Nope").is_err());
        assert_eq!(db.relation_names(), vec!["Student"]);
        assert!(db.relation_by_index(0).is_some());
        assert!(db.relation_by_index(9).is_none());
    }

    #[test]
    fn duplicate_relation_names_are_rejected() {
        let mut db = toy();
        let dup = Relation::new("Student", Schema::new(vec![("x", DataType::Int)]));
        assert!(matches!(
            db.add_relation(dup),
            Err(StorageError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn tuple_lookup_by_id() {
        let db = toy();
        let t = db.tuple(TupleId::new(0, 2)).unwrap();
        assert_eq!(t.values[0], Value::from("Jesse"));
        assert!(db.tuple(TupleId::new(0, 99)).is_err());
        assert!(db.tuple(TupleId::new(4, 0)).is_err());
    }

    #[test]
    fn subinstance_keeps_ids_and_is_contained() {
        let db = toy();
        let sub = db.subinstance(|id| id.row != 1);
        assert_eq!(sub.total_tuples(), 2);
        assert!(db.contains_subinstance(&sub));
        assert!(!sub.contains_subinstance(&db));
        // Retained tuples keep their original ids.
        let ids: Vec<u32> = sub
            .relation("Student")
            .unwrap()
            .iter()
            .map(|t| t.id.unwrap().row)
            .collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn subinstance_preserves_constraints() {
        let mut db = toy();
        let before = db.subinstance(|_| true);
        db.constraints_mut().add_key("Student", &["name"]);
        let sub = db.subinstance(|_| true);
        assert_eq!(sub.constraints().len(), 1);
        assert!(sub.validate_constraints().is_ok());
        assert_eq!(before.constraints().len(), 0, "taken before the key");
    }

    #[test]
    fn relations_resolve_after_add_subinstance_and_codec_round_trip() {
        use crate::codec::{decode_database, encode_database, Decoder, Encoder};
        let mut db = toy();
        db.add_relation(Relation::new(
            "Course",
            Schema::new(vec![("id", DataType::Int)]),
        ))
        .unwrap();
        let sub = db.subinstance(|id| id.row == 0);
        let mut e = Encoder::new();
        encode_database(&sub, &mut e);
        let encoded = e.finish();
        let back = decode_database(&mut Decoder::new(&encoded)).unwrap();
        for d in [&db, &sub, &back] {
            assert_eq!(d.relation("Student").unwrap().relation_index(), 0);
            assert_eq!(d.relation("Course").unwrap().relation_index(), 1);
            assert!(d.relation("Nope").is_err());
        }
        assert_eq!(sub.name(), "toy⊆");
        assert_eq!(db.subinstance(|_| false).name(), "toy⊆");
        assert_eq!(back.name(), "toy⊆");
    }

    #[test]
    fn rebuild_indexes_restores_lookup() {
        let mut db = toy();
        db.rebuild_indexes();
        assert!(db.relation("Student").is_ok());
        let dup = vec![Value::from("Mary"), Value::from("CS")];
        assert_eq!(
            db.relation_mut("Student").unwrap().insert(dup).unwrap(),
            None
        );
    }
}
