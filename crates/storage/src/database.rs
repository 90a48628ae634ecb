//! Database instances: named collections of relations plus their constraints.

use crate::constraints::ConstraintSet;
use crate::error::{Result, StorageError};
use crate::fk_index::ForeignKeyIndex;
use crate::relation::Relation;
use crate::subinstance::TupleSelection;
use crate::tuple::TupleId;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A database instance `D`: an ordered collection of named relations together
/// with its integrity constraints Γ.
///
/// Relations are looked up by a scan of their names: instances hold a
/// handful of relations. The relations, the name and the constraint set are
/// shared with every clone (a change copies what is still shared first), and
/// every sub-instance shares one copy of the name and constraints. The
/// foreign-key index is built on first use and shared with every clone,
/// including clones made before that use; changing the relations or
/// constraints drops it. A sub-instance starts without one and without the
/// shared slot for it, which it allocates on first use: counterexamples,
/// which never use it, do not carry it.
///
/// A sub-instance made by [`Database::restrict_to`] keeps only its
/// selection and a share of the instance's relations, and builds its own
/// relations on first use; [`Database::shrink_to_fit`] drops them again, so
/// a counterexample kept long after it was verified costs its selection.
#[derive(Clone, Serialize, Deserialize)]
pub struct Database {
    meta: Arc<Meta>,
    /// The relations; unset until first use for a restriction.
    relations: OnceLock<Arc<Vec<Relation>>>,
    /// For a restriction: the instance's relations and the selected tuples.
    #[serde(skip)]
    restriction: Option<(Arc<Vec<Relation>>, TupleSelection)>,
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
            .field("relations", &self.rels())
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
        let relations = self.rels_mut();
        let idx = relations.len() as u32;
        relation.set_relation_index(idx);
        relations.push(relation);
        Ok(idx)
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.position(name)
            .map(|i| &self.rels()[i])
            .ok_or_else(|| StorageError::UnknownRelation(name.into()))
    }

    /// Look up a relation mutably by name.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        match self.position(name) {
            Some(i) => Ok(&mut self.rels_mut()[i]),
            None => Err(StorageError::UnknownRelation(name.into())),
        }
    }

    /// The relations, built first if this is a restriction not used yet.
    fn rels(&self) -> &[Relation] {
        self.relations.get_or_init(|| {
            let (instance, selection) = self
                .restriction
                .as_ref()
                .expect("only a restriction starts without relations");
            Arc::new(instance.iter().map(|r| r.select(selection)).collect())
        })
    }

    /// The relations for a change: copied first if a clone shares them,
    /// with the foreign-key index dropped. A restriction becomes an
    /// ordinary database.
    fn rels_mut(&mut self) -> &mut Vec<Relation> {
        self.rels();
        self.restriction = None;
        self.fk_index = fresh_fk_slot();
        Arc::make_mut(self.relations.get_mut().expect("built above"))
    }

    /// Where the relation called `name` sits in `relations`.
    fn position(&self, name: &str) -> Option<usize> {
        self.rels().iter().position(|r| r.name() == name)
    }

    /// Look up a relation by its index.
    pub fn relation_by_index(&self, idx: u32) -> Option<&Relation> {
        self.rels().get(idx as usize)
    }

    /// Iterate over the relations in insertion order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.rels().iter()
    }

    /// Names of all relations, in insertion order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.rels().iter().map(|r| r.name()).collect()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.rels().len()
    }

    /// Total number of tuples across all relations: `|D|` in the paper.
    pub fn total_tuples(&self) -> usize {
        self.rels().iter().map(|r| r.len()).sum()
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
        let relations = self.rels().iter().map(|r| r.restrict(&keep)).collect();
        self.sub(OnceLock::from(Arc::new(relations)), None)
    }

    /// The sub-instance `D' ⊆ D` of the tuples `selection` picks, as
    /// [`Database::subinstance`] builds it, but built on first use: until
    /// then it holds `selection` and a share of this instance's relations.
    /// Identifiers that name no tuple of this instance are ignored.
    pub fn restrict_to(&self, selection: &TupleSelection) -> Database {
        self.rels();
        let instance = self.relations.get().expect("built above").clone();
        self.sub(OnceLock::new(), Some((instance, selection.clone())))
    }

    /// A sub-instance of this database with the given relations.
    fn sub(
        &self,
        relations: OnceLock<Arc<Vec<Relation>>>,
        restriction: Option<(Arc<Vec<Relation>>, TupleSelection)>,
    ) -> Database {
        let meta = self.meta.subinstance.get_or_init(|| {
            Arc::new(Meta {
                name: format!("{}⊆", self.meta.name).into(),
                constraints: self.meta.constraints.clone(),
                subinstance: OnceLock::new(),
            })
        });
        Database {
            meta: meta.clone(),
            relations,
            restriction,
            fk_index: OnceLock::new(),
        }
    }

    /// For a sub-instance made by [`Database::restrict_to`], drop the
    /// relations built from its selection; the next use builds them again.
    /// Other databases keep their relations.
    pub fn shrink_to_fit(&mut self) {
        if self.restriction.is_some() {
            self.relations.take();
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
            relations: OnceLock::from(Arc::new(relations)),
            restriction: None,
            fk_index: fresh_fk_slot(),
        }
    }

    /// Drop every relation's dedup index (see [`Relation::rebuild_index`]);
    /// each is rebuilt from its rows on next use. Name lookups need no
    /// index.
    pub fn rebuild_indexes(&mut self) {
        for r in self.rels_mut() {
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

    /// Each relation's rows as (id, values).
    fn rows(db: &Database) -> Vec<Vec<(Option<TupleId>, Vec<Value>)>> {
        db.relations()
            .map(|r| r.iter().map(|t| (t.id, t.values.to_vec())).collect())
            .collect()
    }

    #[test]
    fn a_restriction_is_the_subinstance_of_its_selection() {
        let mut db = toy();
        let course = Relation::new("Course", Schema::new(vec![("dept", DataType::Text)]));
        db.add_relation(course).unwrap();
        // Ids of an empty relation, a missing row and a missing relation
        // select nothing.
        let ids = [(0, 0), (0, 2), (0, 7), (1, 0), (5, 1)].map(|(r, i)| TupleId::new(r, i));
        let selection = TupleSelection::from_ids(ids);
        let eager = db.subinstance(|id| selection.contains(id));
        let mut lazy = db.restrict_to(&selection);
        assert_eq!(rows(&lazy), rows(&eager));
        assert_eq!(lazy.name(), eager.name());
        assert_eq!(lazy.relation_names(), eager.relation_names());
        // Dropped and built again on the next use.
        lazy.shrink_to_fit();
        assert_eq!(rows(&lazy), rows(&eager));
        // A restriction of a restriction.
        let one = TupleSelection::from_ids([TupleId::new(0, 2)]);
        assert_eq!(rows(&lazy.restrict_to(&one)), rows(&db.restrict_to(&one)));
    }

    #[test]
    fn clones_share_relations_until_one_changes() {
        let db = toy();
        let mut copy = db.clone();
        let student = |d: &Database| d.relation("Student").unwrap() as *const Relation;
        assert_eq!(student(&db), student(&copy));
        copy.relation_mut("Student")
            .unwrap()
            .insert(vec![Value::from("Ann"), Value::from("MATH")])
            .unwrap();
        assert_eq!(db.total_tuples(), 3);
        assert_eq!(copy.total_tuples(), 4);
        // A restriction that changes becomes a database of its own.
        let mut sub = db.restrict_to(&TupleSelection::from_ids([TupleId::new(0, 1)]));
        sub.relation_mut("Student")
            .unwrap()
            .insert(vec![Value::from("Ann"), Value::from("MATH")])
            .unwrap();
        sub.shrink_to_fit();
        assert_eq!(sub.total_tuples(), 2);
        assert_eq!(db.total_tuples(), 3);
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
