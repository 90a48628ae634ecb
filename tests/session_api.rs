//! Session-API guarantees at workload scale:
//!
//! * a session under `Auto`, which starts with the algorithms that reuse
//!   the prepared reference's annotation, produces the same outcomes as a
//!   session forced to the algorithm for the pair's class on the course
//!   workload: two exact algorithms cross-check each other;
//! * a session evaluates only the submission: a forced algorithm through a
//!   session evaluates one query fewer than the same algorithm run alone,
//!   and a declined algorithm falls back, counted in `explain.fallbacks`;
//! * a warm session answers repeats with the same outcome as a cold one
//!   (session-level mirror of the grader's warm-regrade conformance test);
//! * a [`Budget`] bounds real work on the TPC-H workload: an expired
//!   deadline stops a run that would otherwise evaluate large joins, and a
//!   small step quota is exhausted *inside* evaluation, proving the budget
//!   is threaded through `ra::eval`/provenance inner loops rather than only
//!   algorithm loop boundaries.

use ratest_suite::core::pipeline::{run_algorithm, Algorithm, RatestOptions};
use ratest_suite::core::session::{Budget, Session};
use ratest_suite::core::RatestError;
use ratest_suite::datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_suite::queries::course::course_questions;
use ratest_suite::queries::mutations::sample_mutations;
use ratest_suite::queries::tpch_queries;
use ratest_suite::ra::ast::Query;
use ratest_suite::ra::classify::{classify_pair, QueryClass};
use ratest_suite::ra::testdata;
use ratest_telemetry::{MetricsHandle, MetricsRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The algorithm for a pair's class: what `Auto` runs on a pair without a
/// prepared reference's annotation.
fn unshared_algorithm(q1: &Query, q2: &Query) -> Algorithm {
    match classify_pair(q1, q2) {
        QueryClass::Aggregate if q1.params().is_empty() && q2.params().is_empty() => {
            Algorithm::AggOpt
        }
        QueryClass::Aggregate => Algorithm::AggParam,
        c if c.is_monotone() => Algorithm::PolytimeMonotone,
        _ => Algorithm::OptSigma,
    }
}

#[test]
fn the_shared_path_matches_the_unshared_dispatch_on_the_course_workload() {
    let db = university_database(&UniversityConfig::with_total(60));
    let session = Session::builder(db.clone()).build();
    let mut compared = 0usize;
    for question in course_questions() {
        let reference = session.prepare(&question.reference).expect("prepares");
        for mutation in sample_mutations(&question.reference, 2, 40 + question.number as u64) {
            let new = session
                .explain(reference, &mutation.query)
                .expect("session path runs");
            let old = Session::builder(db.clone())
                .algorithm(unshared_algorithm(&question.reference, &mutation.query))
                .build()
                .explain_pair(&question.reference, &mutation.query)
                .expect("the class's algorithm runs");
            assert_eq!(new.class, old.class, "q{}: class", question.number);
            // `Auto` may run a different (equally exact) algorithm — `Basic`
            // over the prepared annotation where the class's algorithm is
            // `Optσ` — so the contract is the *outcome*: same agreement and
            // same optimal counterexample size.
            assert_eq!(
                new.counterexample.as_ref().map(|c| c.size()),
                old.counterexample.as_ref().map(|c| c.size()),
                "q{}: counterexample size for `{}`",
                question.number,
                mutation.description
            );
            compared += 1;
        }
    }
    assert!(
        compared >= 16,
        "the whole workload was compared: {compared}"
    );
}

#[test]
fn a_forced_algorithm_through_a_session_evaluates_only_the_submission() {
    let db = testdata::figure1_db();
    let (q1, q2) = (testdata::example1_q1(), testdata::example1_q2());

    let alone = Arc::new(MetricsRegistry::new());
    let options = RatestOptions {
        algorithm: Algorithm::OptSigma,
        metrics: MetricsHandle::new(alone.clone()),
        ..Default::default()
    };
    run_algorithm(&q1, &q2, &db, &options).expect("Optσ explains the pair");

    let through_session = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db)
        .algorithm(Algorithm::OptSigma)
        .metrics(through_session.clone())
        .build();
    let reference = session.prepare(&q1).unwrap();
    let before = through_session.snapshot();
    let outcome = session.explain(reference, &q2).unwrap();
    assert_eq!(outcome.algorithm_used, Algorithm::OptSigma);
    let session_calls = through_session
        .snapshot()
        .counter_since(&before, "ra.eval.calls");

    // The same search verifies the same candidates; the session takes the
    // reference's result from the prepared handle instead of evaluating it.
    assert_eq!(session_calls + 1, alone.counter("ra.eval.calls"));
}

#[test]
fn a_declined_aggregate_heuristic_falls_back_to_agg_basic() {
    // Q18#1 on the tpch-agg instance: Agg-Opt finds no acceptable model
    // and Agg-Basic answers.
    let db = tpch_database(&TpchConfig {
        scale_factor: 0.0003,
        seed: 7,
    });
    let q18 = tpch_queries::tpch_experiments()
        .into_iter()
        .find(|experiment| experiment.name == "Q18")
        .expect("Q18 exists");
    let registry = Arc::new(MetricsRegistry::new());
    let session = Session::builder(db).metrics(registry.clone()).build();
    let reference = session.prepare(&q18.reference).unwrap();
    let outcome = session.explain(reference, &q18.wrong[1]).unwrap();
    assert_eq!(outcome.algorithm_used, Algorithm::AggBasic);
    assert!(outcome.counterexample.is_some());
    assert_eq!(registry.counter("explain.fallbacks"), 1);
}

#[test]
fn a_warm_session_answers_repeats_identically_to_a_cold_one() {
    let db = university_database(&UniversityConfig::with_total(60));
    let question = &course_questions()[2]; // "exactly one CS course"
    let wrong = &sample_mutations(&question.reference, 1, 9)[0].query;

    let warm = Session::builder(db.clone()).build();
    let reference = warm.prepare(&question.reference).unwrap();
    let first = warm.explain(reference, wrong).unwrap();
    let second = warm.explain(reference, wrong).unwrap();
    assert_eq!(warm.prepared_references(), 1, "one prepared reference");

    let cold = Session::builder(db).build();
    let fresh = cold.explain_pair(&question.reference, wrong).unwrap();
    for outcome in [&second, &fresh] {
        assert_eq!(
            first.counterexample.as_ref().map(|c| c.size()),
            outcome.counterexample.as_ref().map(|c| c.size())
        );
        assert_eq!(first.class, outcome.class);
        assert_eq!(first.algorithm_used, outcome.algorithm_used);
    }
}

#[test]
fn an_expired_deadline_stops_a_tpch_run_immediately() {
    let db = tpch_database(&TpchConfig::with_scale(0.001));
    let session = Session::builder(db)
        .budget(Budget::unlimited().with_deadline(Duration::ZERO))
        .build();
    let start = Instant::now();
    let err = session
        .explain_pair(&tpch_queries::q4(), &tpch_queries::q4_wrong()[0])
        .expect_err("the deadline is already over");
    assert_eq!(err, RatestError::DeadlineExceeded);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "a dead run must not evaluate the workload: {:?}",
        start.elapsed()
    );
}

#[test]
fn a_small_step_quota_is_exhausted_inside_tpch_evaluation() {
    // 8 polls cover the algorithm loop boundaries many times over; only the
    // evaluator's strided inner-loop polling can burn through them on a
    // workload of thousands of row visits. Exhaustion therefore proves the
    // budget reaches `ra::eval`'s row loops.
    let db = tpch_database(&TpchConfig::with_scale(0.002));
    let session = Session::builder(db)
        .budget(Budget::unlimited().with_step_quota(8))
        .build();
    let start = Instant::now();
    let err = session
        .explain_pair(&tpch_queries::q4(), &tpch_queries::q4_wrong()[0])
        .expect_err("the quota runs out mid-evaluation");
    assert_eq!(err, RatestError::StepQuotaExhausted);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "a quota-dead run must not evaluate the workload: {:?}",
        start.elapsed()
    );
}

#[test]
fn per_request_budgets_override_the_session_budget() {
    let db = university_database(&UniversityConfig::with_total(60));
    let question = &course_questions()[0];
    let session = Session::builder(db).build();
    let reference = session.prepare(&question.reference).unwrap();
    let wrong = &sample_mutations(&question.reference, 1, 3)[0].query;

    // The session is unlimited, but this one request is not.
    let err = session
        .explain_with_budget(reference, wrong, &Budget::unlimited().with_step_quota(0))
        .expect_err("the per-request quota is empty");
    assert_eq!(err, RatestError::StepQuotaExhausted);

    // And the session keeps answering other requests normally.
    assert!(session.explain(reference, wrong).is_ok());
}
