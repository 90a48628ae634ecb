//! Property-based tests over the full stack.
//!
//! Strategy: generate small random university-style instances and draw query
//! pairs from a pool of well-typed SPJUD templates. For every pair that the
//! instance distinguishes, the pipeline's counterexample must be
//! (a) a genuine sub-instance, (b) foreign-key valid, (c) distinguishing, and
//! (d) no larger than the brute-force optimum computed by exhaustive search
//! (on the tiniest instances where that is feasible).
//! In addition the provenance layer is cross-checked against plain
//! evaluation on random sub-instances, and a plan compiled once against an
//! instance is checked against compiling afresh on its sub-instances.

use proptest::prelude::*;
use ratest_suite::core::basic::EXPANSION_CAPS;
use ratest_suite::core::encode::{encode_provenance, foreign_key_clauses, VarMap};
use ratest_suite::core::error::RatestError;
use ratest_suite::core::pipeline::{run_algorithm, Algorithm, RatestOptions};
use ratest_suite::core::problem::{brute_force_smallest, difference_query};
use ratest_suite::core::session::Session;
use ratest_suite::datagen::{university_database, UniversityConfig};
use ratest_suite::provenance::annotate::{
    annotate_plan, consistent_with_evaluation, difference_of,
};
use ratest_suite::provenance::{BoolExpr, ClosedMinterms};
use ratest_suite::queries::course::course_questions;
use ratest_suite::queries::mutations::mutate;
use ratest_suite::ra::ast::Query;
use ratest_suite::ra::builder::{col, lit, rel, QueryBuilder};
use ratest_suite::ra::eval::{evaluate, evaluate_plan, Params};
use ratest_suite::ra::plan::Plan;
use ratest_suite::ra::Interrupt;
use ratest_suite::solver::minones::{minimize_ones, MinOnesOptions};
use ratest_suite::solver::{Formula, SolverError};
use ratest_suite::storage::{DataType, Database, Relation, Schema, TupleSelection, Value};
use ratest_telemetry::MetricsHandle;

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

/// The course references and every mutation of each.
fn course_queries() -> Vec<Query> {
    let mut queries = Vec::new();
    for question in course_questions() {
        queries.extend(mutate(&question.reference).into_iter().map(|m| m.query));
        queries.push(question.reference);
    }
    queries
}

/// The min-ones solver's answer for one candidate's encoding, `Prv ∧ FK`:
/// `Some(k)` for a minimum of `k` tuples, `None` when infeasible.
fn solver_minimum(prv: &BoolExpr, db: &Database) -> Option<usize> {
    let mut vars = VarMap::new();
    let mut parts = vec![encode_provenance(prv, &mut vars)];
    parts.extend(foreign_key_clauses(db, &mut vars).unwrap());
    match minimize_ones(
        &Formula::and(parts),
        &vars.all_vars(),
        &MinOnesOptions::default(),
    ) {
        Ok(solution) => Some(solution.cost),
        Err(SolverError::Unsatisfiable) => None,
        Err(e) => panic!("solver failed: {e}"),
    }
}

/// An instance with a two-level foreign-key chain, `Orders → Customer →
/// Nation`: `customers[i]` picks customer `i`'s nation, every customer has
/// an order, and each of `extra_orders` picks the customer of one more,
/// each modulo the parents there are.
fn build_chain_db(nations: usize, customers: &[u8], extra_orders: &[u8]) -> Database {
    let relation = |name: &str, key: &str, parent: &str, rows: Vec<i64>| {
        let mut relation = Relation::new(
            name,
            Schema::new(vec![(key, DataType::Int), (parent, DataType::Int)]),
        );
        for (row, parent) in rows.into_iter().enumerate() {
            relation
                .insert(vec![Value::Int(row as i64), Value::Int(parent)])
                .unwrap();
        }
        relation
    };
    let parents = |picks: &[u8], of: usize| -> Vec<i64> {
        picks.iter().map(|&p| (p as usize % of) as i64).collect()
    };
    let customers = parents(customers, nations);
    let mut orders: Vec<i64> = (0..customers.len() as i64).collect();
    orders.extend(parents(extra_orders, customers.len()));
    let mut db = Database::new("chain");
    for relation in [
        relation("Nation", "nk", "region", vec![0; nations]),
        relation("Customer", "ck", "nk", customers),
        relation("Orders", "ok", "ck", orders),
    ] {
        db.add_relation(relation).unwrap();
    }
    let constraints = db.constraints_mut();
    constraints.add_foreign_key("Customer", &["nk"], "Nation", &["nk"]);
    constraints.add_foreign_key("Orders", &["ck"], "Customer", &["ck"]);
    db
}

/// Customer keys over the chain schema. The union's key needs an order
/// (one tuple, whose closure has three) or a customer and its nation (two
/// tuples, already closed).
fn chain_query_pool() -> Vec<Query> {
    let order_keys = rel("Orders").project(&["ck"]).build();
    let joined_keys = rel("Customer")
        .rename("c")
        .join_on(
            rel("Nation").rename("n").build(),
            col("c.nk").eq(col("n.nk")),
        )
        .project(&["c.ck"])
        .build();
    let customer_keys = rel("Customer").project(&["ck"]).build();
    let nation_zero = rel("Customer")
        .select(col("nk").eq(lit(0i64)))
        .project(&["ck"])
        .build();
    let union = QueryBuilder::from_query(order_keys.clone())
        .union(joined_keys.clone())
        .build();
    vec![
        order_keys.clone(),
        joined_keys,
        union.clone(),
        rel("Customer")
            .select(col("ck").lt(lit(0i64)))
            .project(&["ck"])
            .build(),
        nation_zero.clone(),
        QueryBuilder::from_query(customer_keys)
            .difference(order_keys)
            .build(),
        QueryBuilder::from_query(union)
            .difference(nation_zero)
            .build(),
    ]
}

/// The size of the smallest sub-instance, closed under foreign keys, on
/// which `tuple` is in `Q1 − Q2` (or `Q2 − Q1`), by exhaustive search.
fn brute_force_witness(
    q1: &Query,
    q2: &Query,
    db: &Database,
    tuple: &[Value],
    from_q1: bool,
) -> usize {
    let plan = Plan::compile(&difference_query(q1, q2, from_q1), db).unwrap();
    let all: Vec<_> = TupleSelection::all(db).iter().collect();
    for size in 0..=all.len() {
        for mask in (0u32..1 << all.len()).filter(|m| m.count_ones() as usize == size) {
            let selection = TupleSelection::from_ids(
                (0..all.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| all[i]),
            );
            if selection.clone().close_under_foreign_keys(db).unwrap() > 0 {
                continue;
            }
            let sub = db.restrict_to(&selection);
            let (params, none) = (Params::new(), Interrupt::none());
            let out = evaluate_plan(&plan, &sub, &params, &none, &MetricsHandle::none());
            if out.unwrap().contains(tuple) {
                return size;
            }
        }
    }
    panic!("no sub-instance keeps {tuple:?}, not even the instance")
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

    /// Basic's closed-minterm engine is exact: wherever it settles a
    /// candidate's provenance, its selection's size is the solver's
    /// minimum, or both are infeasible, in both difference directions.
    #[test]
    fn the_closed_minterm_minimum_is_the_solvers_minimum(
        students in students_strategy(),
        registrations in registrations_strategy(),
        qi in 0usize..8,
        qj in 0usize..8,
    ) {
        let db = build_db(&students, &registrations);
        let pool = query_pool();
        let a = ratest_suite::provenance::annotate(&pool[qi], &db).unwrap();
        let b = ratest_suite::provenance::annotate(&pool[qj], &db).unwrap();
        let mut engine = ClosedMinterms::new(db.foreign_key_index().unwrap());
        for (left, right) in [(&a, &b), (&b, &a)] {
            for (row, prv) in difference_of(left, right).unwrap().iter() {
                if let Ok(selection) = engine.smallest(prv, usize::MAX, EXPANSION_CAPS) {
                    prop_assert_eq!(
                        selection.map(|s| s.len()),
                        solver_minimum(prv, &db),
                        "row {:?}, provenance {}",
                        row,
                        prv
                    );
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

    /// A plan compiled against `D` runs unchanged on a random `D' ⊆ D`: the
    /// same rows, in the same order, with the same annotations, as
    /// evaluating and annotating on `D'` (which compile against `D'`), for
    /// every course reference and mutation.
    #[test]
    fn plans_compiled_on_an_instance_run_on_its_subinstances(
        keep in 0u64..u64::MAX,
    ) {
        let db = university_database(&UniversityConfig::with_total(30));
        // Keep each tuple by one bit of a xorshift stream seeded by `keep`.
        let mut bits = keep | 1;
        let kept = TupleSelection::from_ids(TupleSelection::all(&db).iter().filter(|_| {
            bits ^= bits << 13;
            bits ^= bits >> 7;
            bits ^= bits << 17;
            bits & 1 == 1
        }));
        let sub = db.subinstance(|id| kept.contains(id));
        let (params, none) = (Params::new(), Interrupt::none());
        for q in course_queries() {
            let plan = Plan::compile(&q, &db).unwrap();
            let run = evaluate_plan(&plan, &sub, &params, &none, &MetricsHandle::none());
            prop_assert_eq!(run, evaluate(&q, &sub), "evaluating {:?}", q);
            let annotated = annotate_plan(&plan, &sub, &params, &none, &MetricsHandle::none());
            prop_assert_eq!(annotated, ratest_suite::provenance::annotate(&q, &sub), "annotating {:?}", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On a two-level foreign-key chain, every SPJUD algorithm's witness is
    /// as small as the smallest closed sub-instance that keeps its tuple in
    /// its difference, for every pair of the pool.
    #[test]
    fn spjud_algorithms_find_the_per_tuple_optimum_on_a_foreign_key_chain(
        nations in 1usize..3,
        customers in prop::collection::vec(0u8..4, 1..4),
        extra_orders in prop::collection::vec(0u8..3, 0..3),
    ) {
        let db = build_chain_db(nations, &customers, &extra_orders);
        let pool = chain_query_pool();
        for (q1, q2) in pool.iter().flat_map(|q1| pool.iter().map(move |q2| (q1, q2))) {
            for algorithm in [
                Algorithm::Auto,
                Algorithm::Basic,
                Algorithm::OptSigma,
                Algorithm::PolytimeMonotone,
                Algorithm::PolytimeSpjudStar,
            ] {
                let options = RatestOptions { algorithm, ..Default::default() };
                let cex = match run_algorithm(q1, q2, &db, &options) {
                    Ok((cex, _)) => cex,
                    Err(e) => {
                        let declined = matches!(
                            e,
                            RatestError::Unsupported(_) | RatestError::QueriesAgreeOnInstance
                        );
                        prop_assert!(declined, "{:?}: {}", algorithm, e);
                        continue;
                    }
                };
                let witness = cex.witness.as_ref().expect("SPJUD algorithms name a witness");
                let optimum = brute_force_witness(q1, q2, &db, &witness.tuple, witness.from_q1);
                prop_assert_eq!(cex.size(), optimum, "{:?} on {:?} and {:?}", algorithm, q1, q2);
            }
        }
    }
}
