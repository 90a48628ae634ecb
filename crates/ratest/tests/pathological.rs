//! Pathological inputs, one fixture per kind, each pinned by a
//! deterministic work bound (counters and step quotas, never wall-clock).

use ratest_core::pipeline::Algorithm;
use ratest_core::session::{Budget, Session};
use ratest_core::RatestError;
use ratest_datagen::{university_database, UniversityConfig};
use ratest_queries::course::q6_common_course_pairs;
use ratest_queries::mutations::{mutate, Mutation};
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
