//! The foreign-key edge index against a whole-instance scan, and its
//! lifetime: shared by clones, dropped by mutation, absent on sub-instances.

use ratest_datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_storage::codec::{decode_database, encode_database, Decoder, Encoder};
use ratest_storage::{
    DataType, Database, Relation, Schema, StorageError, TupleId, TupleSelection, Value,
};

/// The closure as a fixpoint of whole-instance scans of every foreign key.
fn oracle_closure(selection: &TupleSelection, db: &Database) -> TupleSelection {
    let mut closed = selection.clone();
    loop {
        let mut new_ids = Vec::new();
        for fk in db.constraints().foreign_keys() {
            for (child, parent) in fk.referenced_tuples(db).unwrap() {
                if let Some(p) = parent {
                    if closed.contains(child) && !closed.contains(p) {
                        new_ids.push(p);
                    }
                }
            }
        }
        if new_ids.is_empty() {
            return closed;
        }
        closed = TupleSelection::from_ids(closed.iter().chain(new_ids));
    }
}

/// A seeded xorshift generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Seeded random selections of 1 to 40 tuples.
fn random_selections(db: &Database, seed: u64, count: usize) -> Vec<TupleSelection> {
    let all: Vec<TupleId> = TupleSelection::all(db).iter().collect();
    let mut rng = Rng(seed);
    (0..count)
        .map(|_| {
            let size = 1 + rng.below(40);
            TupleSelection::from_ids((0..size).map(|_| all[rng.below(all.len())]))
        })
        .collect()
}

fn instances() -> Vec<Database> {
    vec![
        university_database(&UniversityConfig::with_total(200)),
        tpch_database(&TpchConfig::with_scale(0.0003)),
    ]
}

#[test]
fn closure_matches_the_whole_instance_scan() {
    for (i, db) in instances().iter().enumerate() {
        let mut grew = 0;
        for selection in random_selections(db, 17 + i as u64, 200) {
            let expected = oracle_closure(&selection, db);
            let mut closed = selection.clone();
            let added = closed.close_under_foreign_keys(db).unwrap();
            assert_eq!(closed, expected, "closure of {selection:?}");
            assert_eq!(added, expected.len() - selection.len());
            grew += usize::from(added > 0);
        }
        assert!(grew > 0, "some selections must need their parents");
    }
}

#[test]
fn chained_keys_close_transitively() {
    let db = tpch_database(&TpchConfig::with_scale(0.0003));
    let lineitem = db.relation("lineitem").unwrap().relation_index();
    let mut selection = TupleSelection::from_ids([TupleId::new(lineitem, 0)]);
    selection.close_under_foreign_keys(&db).unwrap();
    // lineitem → orders → customer → nation → region, plus part and
    // supplier (→ nation).
    for name in ["orders", "customer", "nation", "region", "part", "supplier"] {
        let index = db.relation(name).unwrap().relation_index();
        assert!(
            selection.iter().any(|id| id.relation == index),
            "closure must reach {name}"
        );
    }
    assert_eq!(selection, oracle_closure(&selection, &db));
}

#[test]
fn every_edge_matches_referenced_tuples() {
    for db in instances() {
        let index = db.foreign_key_index().unwrap();
        assert_eq!(index.len(), db.constraints().foreign_keys().count());
        for (key, fk) in db.constraints().foreign_keys().enumerate() {
            let child = db.relation(&fk.child).unwrap().relation_index();
            assert_eq!(index.child_relation(key), child);
            for (c, p) in fk.referenced_tuples(&db).unwrap() {
                assert_eq!(index.parent(key, c), p, "{fk:?} at {c}");
            }
        }
    }
}

#[test]
fn the_index_is_built_once_and_shared_by_clones() {
    let db = university_database(&UniversityConfig::with_total(200));
    let early = db.clone();
    let first = db.foreign_key_index().unwrap();
    assert!(std::ptr::eq(first, db.foreign_key_index().unwrap()));
    assert!(std::ptr::eq(first, early.foreign_key_index().unwrap()));
    assert!(std::ptr::eq(first, db.clone().foreign_key_index().unwrap()));
}

/// Student(name) ← Registration(name): Mary has one registration.
fn toy() -> Database {
    let mut student = Relation::new("Student", Schema::new(vec![("name", DataType::Text)]));
    student.insert(vec![Value::from("Mary")]).unwrap();
    let mut reg = Relation::new(
        "Registration",
        Schema::new(vec![("name", DataType::Text), ("course", DataType::Int)]),
    );
    reg.insert(vec![Value::from("Mary"), Value::Int(216)])
        .unwrap();
    let mut db = Database::new("toy");
    db.add_relation(student).unwrap();
    db.add_relation(reg).unwrap();
    db.constraints_mut()
        .add_foreign_key("Registration", &["name"], "Student", &["name"]);
    db
}

#[test]
fn mutation_drops_the_index() {
    let mut db = toy();
    let before = db.clone();
    assert_eq!(db.foreign_key_index().unwrap().len(), 1);

    // relation_mut: a new registration gets its edge.
    db.relation_mut("Student")
        .unwrap()
        .insert(vec![Value::from("John")])
        .unwrap();
    db.relation_mut("Registration")
        .unwrap()
        .insert(vec![Value::from("John"), Value::Int(316)])
        .unwrap();
    let index = db.foreign_key_index().unwrap();
    assert_eq!(
        index.parent(0, TupleId::new(1, 1)),
        Some(TupleId::new(0, 1))
    );
    assert_eq!(
        before
            .foreign_key_index()
            .unwrap()
            .parent(0, TupleId::new(1, 1)),
        None
    );

    // constraints_mut: a key on a relation that does not exist yet fails
    // the build...
    db.constraints_mut()
        .add_foreign_key("Registration", &["course"], "Course", &["id"]);
    assert!(matches!(
        db.foreign_key_index(),
        Err(StorageError::UnknownRelation(_))
    ));
    // ...until add_relation supplies it.
    let mut course = Relation::new("Course", Schema::new(vec![("id", DataType::Int)]));
    course.insert(vec![Value::Int(216)]).unwrap();
    db.add_relation(course).unwrap();
    let index = db.foreign_key_index().unwrap();
    assert_eq!(index.len(), 2);
    assert_eq!(
        index.parent(1, TupleId::new(1, 0)),
        Some(TupleId::new(2, 0))
    );
    assert_eq!(index.parent(1, TupleId::new(1, 1)), None, "no course 316");
    assert_eq!(before.foreign_key_index().unwrap().len(), 1);
}

#[test]
fn a_subinstance_indexes_its_own_tuples() {
    let db = toy();
    let registration = TupleId::new(1, 0);
    assert_eq!(
        db.foreign_key_index().unwrap().parent(0, registration),
        Some(TupleId::new(0, 0))
    );
    // Without Mary's student tuple the registration references nothing.
    let sub = db.subinstance(|id| id == registration);
    let index = sub.foreign_key_index().unwrap();
    assert!(!std::ptr::eq(index, db.foreign_key_index().unwrap()));
    assert_eq!(index.parent(0, registration), None);
    let mut selection = TupleSelection::from_ids([registration]);
    assert_eq!(selection.close_under_foreign_keys(&sub).unwrap(), 0);
}

#[test]
fn a_decoded_instance_builds_the_same_index() {
    let db = tpch_database(&TpchConfig::with_scale(0.0003));
    let original = db.foreign_key_index().unwrap();
    let mut e = Encoder::new();
    encode_database(&db, &mut e);
    let bytes = e.finish();
    let back = decode_database(&mut Decoder::new(&bytes)).unwrap();
    let rebuilt = back.foreign_key_index().unwrap();
    assert!(!std::ptr::eq(original, rebuilt));
    assert_eq!(original, rebuilt);
}
