//! Cross-crate integration tests: generated data → query workloads →
//! counterexample algorithms → verified explanations, exercising the same
//! paths as the experiment harness but with hard assertions.

use ratest_suite::core::pipeline::Algorithm;
use ratest_suite::core::report::render_explanation;
use ratest_suite::core::session::Session;
use ratest_suite::datagen::{
    beers_database, tpch_database, university_database, TpchConfig, UniversityConfig,
};
use ratest_suite::queries::beers_queries::study_problems;
use ratest_suite::queries::course::course_questions;
use ratest_suite::queries::mutations::sample_mutations;
use ratest_suite::queries::tpch_queries::tpch_experiments;
use ratest_suite::ra::eval::evaluate;
use ratest_suite::ra::testdata;

/// Every counterexample returned on the course workload must be a verified,
/// FK-closed sub-instance that the two queries disagree on, and it must be
/// dramatically smaller than the full instance.
///
/// The 800-tuple instance across all 8 questions takes ~5.4 s in a release
/// build (2-core x86-64 VM) but far longer in the debug build the default
/// tier-1 loop uses, so it stays ignored there; CI runs it in release mode
/// via `cargo test --release --test end_to_end -- --ignored`. The same
/// machinery is exercised at small scale by `tests/property_based.rs` and
/// `tests/sql_grading.rs` in the default loop.
#[test]
#[ignore = "heavyweight 800-tuple workload; run with --release -- --ignored"]
fn course_workload_counterexamples_are_valid_and_small() {
    let db = university_database(&UniversityConfig::with_total(800));
    let session = Session::builder(db.clone()).build();
    let mut explained = 0usize;
    for question in course_questions() {
        let reference = session.prepare(&question.reference).expect("prepares");
        for mutation in sample_mutations(&question.reference, 2, question.number as u64) {
            let outcome = session
                .explain(reference, &mutation.query)
                .expect("pipeline runs");
            if let Some(cex) = outcome.counterexample {
                explained += 1;
                assert!(db.contains_subinstance(cex.database()));
                assert!(cex.database().validate_constraints().is_ok());
                assert!(!cex.q1_result.set_eq(&cex.q2_result));
                assert!(
                    cex.size() <= 12,
                    "counterexamples stay tiny even on an 800-tuple instance (got {})",
                    cex.size()
                );
            }
        }
    }
    assert!(
        explained >= 6,
        "a healthy fraction of mutations is explained: {explained}"
    );
}

/// Forcing different algorithms on the same SPJUD pair must agree on the
/// optimal counterexample size (Basic and the poly-time SPJUD* algorithm are
/// exact; Optσ matched them in every case the paper measured).
#[test]
fn algorithms_agree_on_example1_at_scale() {
    let db = university_database(&UniversityConfig::with_total(300));
    let q1 = ratest_suite::queries::course::q3_exactly_one_cs();
    let wrong = ratest_suite::queries::course::q1_some_cs_course();
    let mut sizes = Vec::new();
    for algorithm in [
        Algorithm::OptSigma,
        Algorithm::Basic,
        Algorithm::PolytimeSpjudStar,
    ] {
        let session = Session::builder(db.clone()).algorithm(algorithm).build();
        let outcome = session.explain_pair(&q1, &wrong).expect("pipeline runs");
        if let Some(cex) = outcome.counterexample {
            sizes.push(cex.size());
        }
    }
    assert!(sizes.len() >= 2);
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "sizes disagree: {sizes:?}"
    );
}

/// The TPC-H aggregate pipeline produces small verified counterexamples for
/// the wrong variants that are detectable at test scale.
///
/// Heavyweight (minutes in a debug build — the aggregate provenance over
/// the TPC-H subset dominates `cargo test`'s wall clock), so it is gated
/// out of the default tier-1 loop; CI runs it in release mode via
/// `cargo test --release --test end_to_end -- --ignored`.
#[test]
#[ignore = "heavyweight TPC-H aggregates; run with --release -- --ignored"]
fn tpch_aggregate_counterexamples_are_verified() {
    let db = tpch_database(&TpchConfig::with_scale(0.0008));
    let session = Session::builder(db.clone()).build();
    let mut found = 0usize;
    for exp in tpch_experiments() {
        for wrong in &exp.wrong {
            let reference_result = evaluate(&exp.reference, &db).unwrap();
            let wrong_result = evaluate(wrong, &db).unwrap();
            if reference_result.set_eq(&wrong_result) {
                continue; // not detectable at this scale
            }
            let outcome = session
                .explain_pair(&exp.reference, wrong)
                .unwrap_or_else(|e| panic!("{}: {e}", exp.name));
            let cex = outcome.counterexample.expect("detectable pair");
            assert!(db.contains_subinstance(cex.database()));
            assert!(!cex.q1_result.set_eq(&cex.q2_result));
            assert!(
                cex.size() < db.total_tuples() / 10,
                "{}: counterexample of {} tuples is not small",
                exp.name,
                cex.size()
            );
            found += 1;
        }
    }
    assert!(
        found >= 3,
        "at least a few TPC-H pairs are explained: {found}"
    );
}

/// The user-study reference queries are debuggable too: mutate problem (i)
/// (the hardest one) and explain it on the beers database.
#[test]
fn beers_problem_i_mutations_are_explained() {
    let db = beers_database(40, 5);
    let (_, reference) = study_problems()
        .into_iter()
        .find(|(n, _)| *n == "i")
        .unwrap();
    let session = Session::builder(db.clone()).build();
    let prepared = session.prepare(&reference).unwrap();
    let mut explained = 0;
    for m in sample_mutations(&reference, 4, 11) {
        let outcome = session.explain(prepared, &m.query).unwrap();
        if let Some(cex) = outcome.counterexample {
            assert!(cex.size() <= 10);
            explained += 1;
        }
    }
    assert!(explained >= 1);
}

/// The rendered explanation for the paper's Example 1 mentions the key
/// elements a student would need.
#[test]
fn rendered_explanation_is_complete() {
    let db = testdata::figure1_db();
    let outcome = Session::builder(db)
        .build()
        .explain_pair(&testdata::example1_q1(), &testdata::example1_q2())
        .unwrap();
    let text = render_explanation(&outcome);
    for needle in [
        "NOT equivalent",
        "3 tuple",
        "Student",
        "Registration",
        "Q1",
        "Q2",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}
