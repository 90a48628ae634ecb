//! Property-based tests over the full stack.
//!
//! Strategy: generate small random university-style instances and draw query
//! pairs from a pool of well-typed SPJUD templates. For every pair that the
//! instance distinguishes, the pipeline's counterexample must be
//! (a) a genuine sub-instance, (b) foreign-key valid, (c) distinguishing, and
//! (d) no larger than the brute-force optimum computed by exhaustive search
//! (on the tiniest instances where that is feasible).
//! In addition the provenance layer is cross-checked against plain
//! evaluation on random sub-instances.

use proptest::prelude::*;
use ratest_suite::core::problem::brute_force_smallest;
use ratest_suite::core::session::Session;
use ratest_suite::provenance::annotate::consistent_with_evaluation;
use ratest_suite::ra::ast::Query;
use ratest_suite::ra::builder::{col, lit, rel, QueryBuilder};
use ratest_suite::ra::eval::{evaluate, Params};
use ratest_suite::storage::{DataType, Database, Relation, Schema, TupleSelection, Value};

/// Build a small instance from compact tuple descriptions.
fn build_db(students: &[(u8, u8)], registrations: &[(u8, u8, u8, i64)]) -> Database {
    let mut student = Relation::new(
        "Student",
        Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
    );
    for (n, m) in students {
        student
            .insert(vec![
                Value::from(format!("s{n}")),
                Value::from(if m % 2 == 0 { "CS" } else { "ECON" }),
            ])
            .unwrap();
    }
    let mut reg = Relation::new(
        "Registration",
        Schema::new(vec![
            ("name", DataType::Text),
            ("course", DataType::Text),
            ("dept", DataType::Text),
            ("grade", DataType::Int),
        ]),
    );
    // Reference an actual student name so the FK constraint holds by
    // construction (student ids are deduped and need not be contiguous);
    // with no students there is no valid parent, so drop the registration.
    for (s, c, d, g) in registrations {
        let Some(parent) = students
            .get((*s as usize) % students.len().max(1))
            .map(|t| t.0)
        else {
            continue;
        };
        reg.insert(vec![
            Value::from(format!("s{parent}")),
            Value::from(format!("c{}", c % 5)),
            Value::from(if d % 2 == 0 { "CS" } else { "ECON" }),
            Value::Int(60 + (g % 41)),
        ])
        .unwrap();
    }
    let mut db = Database::new("prop");
    db.add_relation(student).unwrap();
    db.add_relation(reg).unwrap();
    db.constraints_mut()
        .add_foreign_key("Registration", &["name"], "Student", &["name"]);
    db
}

/// A pool of well-typed SPJUD query templates over the schema above.
fn query_pool() -> Vec<Query> {
    let cs_students = rel("Student")
        .rename("s")
        .join_on(
            rel("Registration").rename("r").build(),
            col("s.name")
                .eq(col("r.name"))
                .and(col("r.dept").eq(lit("CS"))),
        )
        .project(&["s.name"])
        .build();
    let econ_students = rel("Student")
        .rename("s")
        .join_on(
            rel("Registration").rename("r").build(),
            col("s.name")
                .eq(col("r.name"))
                .and(col("r.dept").eq(lit("ECON"))),
        )
        .project(&["s.name"])
        .build();
    let all_names = rel("Student").project(&["name"]).build();
    let high = rel("Registration")
        .select(col("grade").ge(lit(90i64)))
        .project(&["name"])
        .build();
    vec![
        cs_students.clone(),
        econ_students.clone(),
        all_names.clone(),
        high.clone(),
        QueryBuilder::from_query(all_names.clone())
            .difference(cs_students.clone())
            .build(),
        QueryBuilder::from_query(cs_students.clone())
            .union(econ_students.clone())
            .build(),
        QueryBuilder::from_query(cs_students)
            .difference(high)
            .build(),
        QueryBuilder::from_query(all_names)
            .difference(econ_students)
            .build(),
    ]
}

fn registrations_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, i64)>> {
    prop::collection::vec((0u8..4, 0u8..5, 0u8..2, 0i64..41), 1..8)
}

fn students_strategy() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..4, 0u8..2), 1..4).prop_map(|mut v| {
        v.sort();
        v.dedup_by_key(|(n, _)| *n);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pipeline soundness + optimality against brute force on tiny instances.
    #[test]
    fn counterexamples_are_sound_and_optimal(
        students in students_strategy(),
        registrations in registrations_strategy(),
        qi in 0usize..8,
        qj in 0usize..8,
    ) {
        let db = build_db(&students, &registrations);
        let pool = query_pool();
        let q1 = &pool[qi];
        let q2 = &pool[qj];
        let r1 = evaluate(q1, &db).unwrap();
        let r2 = evaluate(q2, &db).unwrap();
        let outcome = Session::builder(db.clone())
            .build()
            .explain_pair(q1, q2)
            .unwrap();
        match outcome.counterexample {
            None => prop_assert!(r1.set_eq(&r2)),
            Some(cex) => {
                prop_assert!(!r1.set_eq(&r2));
                prop_assert!(db.contains_subinstance(cex.database()));
                prop_assert!(cex.database().validate_constraints().is_ok());
                prop_assert!(!cex.q1_result.set_eq(&cex.q2_result));
                if db.total_tuples() <= 10 {
                    let best = brute_force_smallest(q1, q2, &db, &Params::new())
                        .unwrap()
                        .expect("a counterexample exists");
                    prop_assert_eq!(cex.size(), best.size());
                }
            }
        }
    }

    /// Provenance-annotated evaluation agrees with plain evaluation, both on
    /// the full instance and on random sub-instances.
    #[test]
    fn provenance_is_consistent_with_evaluation(
        students in students_strategy(),
        registrations in registrations_strategy(),
        qi in 0usize..8,
        keep_mask in 0u32..4096,
    ) {
        let db = build_db(&students, &registrations);
        let q = &query_pool()[qi];
        prop_assert!(consistent_with_evaluation(q, &db, &Params::new()).unwrap());

        // On a random sub-instance, the provenance of every annotated tuple
        // evaluated under that sub-instance must agree with direct
        // re-evaluation of the query.
        let all: Vec<_> = TupleSelection::all(&db).iter().collect();
        let sel = TupleSelection::from_ids(
            all.iter().enumerate().filter(|(i, _)| keep_mask & (1 << (i % 12)) != 0).map(|(_, id)| *id),
        );
        let sub = db.subinstance(|id| sel.contains(id));
        let direct = evaluate(q, &sub).unwrap();
        let annotated = ratest_suite::provenance::annotate(q, &db).unwrap();
        for (row, provenance) in annotated.iter() {
            let present = provenance.eval(&|id| sel.contains(id));
            prop_assert_eq!(
                present,
                direct.contains(row),
                "tuple {:?} provenance disagrees with evaluation on the sub-instance",
                row
            );
        }
        // Completeness: every tuple of the sub-instance's answer has an
        // annotated row whose provenance the selection satisfies.
        for row in direct.rows() {
            let derived = annotated
                .provenance_of(row)
                .is_some_and(|provenance| provenance.eval(&|id| sel.contains(id)));
            prop_assert!(
                derived,
                "tuple {:?} of the sub-instance has no satisfied provenance",
                row
            );
        }
    }
}
