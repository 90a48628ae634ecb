//! Pathological inputs, one fixture per kind, each pinned by a
//! deterministic work bound (counters and step quotas, never wall-clock).

use ratest_core::pipeline::Algorithm;
use ratest_core::session::{Budget, Session};
use ratest_core::RatestError;
use ratest_datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_queries::course::{q4_cs_and_econ, q6_common_course_pairs};
use ratest_queries::mutations::{mutate, Mutation};
use ratest_queries::tpch_queries::tpch_experiments;
use ratest_telemetry::MetricsRegistry;
use std::sync::Arc;

/// The q6 submissions that drop or flip `a.course = b.course`: self-joins
/// projected onto `a.name, b.name`, an output schema whose two columns are
/// both called `name`, returning ~30x the reference's rows.
fn duplicate_name_self_joins() -> Vec<Mutation> {
    let pairs: Vec<Mutation> = mutate(&q6_common_course_pairs())
        .into_iter()
        .filter(|m| m.description.contains("(a.course = b.course)"))
        .collect();
    assert_eq!(pairs.len(), 2, "dropped and flipped");
    pairs
}

#[test]
fn monotone_duplicate_name_self_join() {
    let db = university_database(&UniversityConfig::with_total(100));
    let registry = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db.clone())
        .metrics(registry.clone())
        .build();
    let reference = session.prepare(&q6_common_course_pairs()).unwrap();
    let basic = Session::builder(db).algorithm(Algorithm::Basic).build();
    let basic_reference = basic.prepare(&q6_common_course_pairs()).unwrap();
    for pair in duplicate_name_self_joins() {
        let before = registry.snapshot();
        let outcome = session.explain(reference, &pair.query).unwrap();
        let calls = registry
            .snapshot()
            .counter_since(&before, "provenance.annotate.calls");
        assert_eq!(outcome.algorithm_used, Algorithm::PolytimeMonotone);
        // The reference's annotation comes with the prepared handle, so
        // the one annotation is the submission's, not one per differing
        // tuple.
        assert_eq!(calls, 1, "{}: annotations", pair.description);
        let forced = basic.explain(basic_reference, &pair.query).unwrap();
        assert_eq!(
            outcome.counterexample.map(|c| c.size()),
            forced.counterexample.map(|c| c.size()),
            "{}: the monotone optimum matches Basic's",
            pair.description
        );
    }
}

#[test]
fn monotone_duplicate_name_self_join_stops_under_a_step_quota() {
    let db = university_database(&UniversityConfig::with_total(100));
    let registry = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db).metrics(registry.clone()).build();
    let reference = session.prepare(&q6_common_course_pairs()).unwrap();
    let flipped = duplicate_name_self_joins()
        .into_iter()
        .find(|m| m.description.contains("<>"))
        .expect("the flipped pair");

    let before = registry.snapshot();
    session.explain(reference, &flipped.query).unwrap();
    let full_polls = registry
        .snapshot()
        .counter_since(&before, "provenance.annotate.interrupt_polls");

    // The submission's evaluation takes ~10 polls and its annotation ~10
    // more, so 16 steps run out inside the monotone path's annotation.
    let before = registry.snapshot();
    let err = session
        .explain_with_budget(
            reference,
            &flipped.query,
            &Budget::unlimited().with_step_quota(16),
        )
        .expect_err("the quota runs out");
    let after = registry.snapshot();
    assert_eq!(err, RatestError::StepQuotaExhausted);
    assert_eq!(after.counter_since(&before, "provenance.annotate.calls"), 1);
    assert!(
        after.counter_since(&before, "provenance.annotate.interrupt_polls") < full_polls,
        "the annotation stopped part-way"
    );
}

/// `examples/pathological/cross_product.sql` against course question 4: a
/// three-way cross product of Student and Registration, forced through
/// `Basic` so every differing tuple is a candidate with its own solver call
/// and foreign-key closure. The ceilings are the counts this search has
/// always taken at 40 tuples (12 students, 28 registrations).
#[test]
fn basic_cross_product() {
    let db = university_database(&UniversityConfig::with_total(40));
    let source = include_str!("../../../examples/pathological/cross_product.sql");
    let submission = ratest_sql::compile_sql(source, &db).unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db)
        .algorithm(Algorithm::Basic)
        .metrics(registry.clone())
        .build();
    let reference = session.prepare(&q4_cs_and_econ()).unwrap();
    let outcome = session.explain(reference, &submission).unwrap();
    assert_eq!(outcome.algorithm_used, Algorithm::Basic);
    assert_eq!(outcome.counterexample.map(|c| c.size()), Some(2));
    let counters = registry.snapshot();
    let candidates = counters.counter("basic.candidates");
    let solves = counters.counter("solver.calls");
    assert!((1..=12).contains(&candidates), "{candidates} candidates");
    assert!((1..=12).contains(&solves), "{solves} solver calls");
}

/// The aggregate theory check's work per solver model, on
/// `examples/pathological/many_small_groups{,_wrong}.sql` (GROUP BY
/// student, `HAVING COUNT(*) >= @k` against `> @k`) over one instance:
/// `(groups of both queries, theory checks, groups evaluated)`.
fn many_small_groups_work(total_tuples: usize) -> (u64, u64, u64) {
    let db = university_database(&UniversityConfig::with_total(total_tuples));
    let reference = ratest_sql::compile_sql(
        include_str!("../../../examples/pathological/many_small_groups.sql"),
        &db,
    )
    .unwrap();
    let wrong = ratest_sql::compile_sql(
        include_str!("../../../examples/pathological/many_small_groups_wrong.sql"),
        &db,
    )
    .unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db)
        .param("k", 2i64)
        .metrics(registry.clone())
        .build();
    let handle = session.prepare(&reference).unwrap();
    let outcome = session.explain(handle, &wrong).unwrap();
    assert_eq!(outcome.algorithm_used, Algorithm::AggParam);
    // One student with exactly k' registrations, and the student.
    assert_eq!(outcome.counterexample.map(|c| c.size()), Some(2));
    let counters = registry.snapshot();
    // Both queries are annotated once per explain.
    assert_eq!(counters.counter("provenance.aggprov.calls"), 2);
    (
        counters.counter("provenance.aggprov.groups"),
        counters.counter("agg.theory.checks"),
        counters.counter("agg.theory.groups_evaluated"),
    )
}

/// Each theory check evaluates only the groups the model touches, so the
/// work per check does not grow with the number of groups.
/// On TPC-H Q18#1 every member of a group (an order's line items) needs
/// the order tuple, so a theory check evaluates only the groups of the
/// orders the model selects — in each of the two queries — and not every
/// group that shares the order's customer.
#[test]
fn q18_theory_checks_evaluate_only_the_selected_orders_groups() {
    let db = tpch_database(&TpchConfig {
        scale_factor: 0.0003,
        seed: 7,
    });
    let q18 = tpch_experiments()
        .into_iter()
        .find(|experiment| experiment.name == "Q18")
        .expect("Q18 exists");
    let registry = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db).metrics(registry.clone()).build();
    let reference = session.prepare(&q18.reference).unwrap();
    let outcome = session.explain(reference, &q18.wrong[1]).unwrap();
    assert_eq!(outcome.algorithm_used, Algorithm::AggBasic);
    let checks = registry.counter("agg.theory.checks");
    let evaluated = registry.counter("agg.theory.groups_evaluated");
    assert!(checks > 0);
    assert!(
        evaluated <= 2 * checks,
        "{evaluated} groups for {checks} checks"
    );
}

#[test]
fn agg_param_many_small_groups() {
    let (small_groups, small_checks, small_evaluated) = many_small_groups_work(100);
    let (large_groups, large_checks, large_evaluated) = many_small_groups_work(500);
    assert!(
        large_groups >= 4 * small_groups,
        "{small_groups} vs {large_groups} groups"
    );
    assert!(small_checks > 0 && large_checks > 0);
    // Per check: the one candidate group, in each query.
    assert_eq!(small_evaluated, 2 * small_checks);
    assert_eq!(large_evaluated, 2 * large_checks);
}

#[test]
fn optsigma_filters_a_duplicate_name_self_join_down_to_its_tuple() {
    // Both output columns are called `name`, so only a filter by position
    // can select the one differing pair below the self-join.
    let db = university_database(&UniversityConfig::with_total(1000));
    let registry = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db)
        .algorithm(Algorithm::OptSigma)
        .metrics(registry.clone())
        .build();
    let reference = session.prepare(&q6_common_course_pairs()).unwrap();
    let flipped = duplicate_name_self_joins()
        .into_iter()
        .find(|m| m.description.contains("<>"))
        .expect("the flipped pair");
    let before = registry.snapshot();
    let outcome = session.explain(reference, &flipped.query).unwrap();
    let rows = registry
        .snapshot()
        .counter_since(&before, "provenance.annotate.rows");
    // Annotating the whole difference takes 310,042 rows.
    assert!(rows <= 3_000, "{rows} annotated rows");
    assert_eq!(outcome.counterexample.map(|c| c.size()), Some(4));
}
