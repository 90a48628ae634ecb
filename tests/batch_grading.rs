//! Integration test for the batch grading engine: generate a
//! university-workload cohort with mutated submissions, grade it on a worker
//! pool, and validate every verdict against first principles.

use ratest_grader::{generate_cohort, CohortConfig, Grader, GraderConfig, Verdict};
use ratest_ra::fingerprint;
use ratest_suite::core::problem::check_distinguishes;
use ratest_suite::core::session::Budget;
use ratest_suite::ra::eval::Params;
use ratest_telemetry::MetricsHandle;
use std::time::Duration;

#[test]
fn grades_a_mutated_cohort_with_four_workers() {
    let cohort = generate_cohort(&CohortConfig {
        question: 3, // "exactly one CS course" — the paper's Example 1
        class_size: 50,
        db_tuples: 60,
        adoption_rate: 0.8,
        seed: 2019,
    });
    let grader = Grader::new(GraderConfig {
        workers: 4,
        per_job_timeout: Duration::from_secs(60),
        ..Default::default()
    });
    let report = grader
        .grade(
            &cohort.prompt,
            &cohort.reference,
            &cohort.db,
            &cohort.submissions,
        )
        .expect("the generated cohort grades cleanly");

    // Every submission received a verdict, in order.
    assert_eq!(report.graded.len(), cohort.submissions.len());
    for (g, s) in report.graded.iter().zip(&cohort.submissions) {
        assert_eq!(g.submission_id, s.id);
    }

    // Dedup is observable: strictly fewer pipeline runs than submissions.
    assert!(
        report.stats.dedup_hits > 0,
        "a 50-student class repeats answers: {:?}",
        report.stats
    );
    assert!(
        report.stats.pipeline_runs < report.stats.submissions,
        "dedup must save pipeline runs: {:?}",
        report.stats
    );
    assert_eq!(
        report.stats.pipeline_runs + report.stats.dedup_hits + report.stats.cache_hits,
        report.stats.submissions
    );

    // No submission in this cohort fails or times out.
    assert_eq!(report.stats.errors, 0, "{:?}", report.stats);
    assert_eq!(report.stats.timeouts, 0, "{:?}", report.stats);
    assert!(report.stats.wrong > 0, "mutations produce wrong answers");
    assert!(report.stats.correct > 0, "able students answer correctly");

    let reference_fp = fingerprint(&cohort.reference);
    for (graded, submission) in report.graded.iter().zip(&cohort.submissions) {
        match &graded.verdict {
            // Correct submissions really agree with the reference on the
            // hidden instance.
            Verdict::Correct => {
                let (r1, r2) = check_distinguishes(
                    &cohort.reference,
                    &submission.query,
                    &cohort.db,
                    &Params::new(),
                    &Budget::unlimited(),
                    &MetricsHandle::none(),
                )
                .expect("gradable pair");
                assert!(
                    r1.set_eq(&r2),
                    "{} marked correct but differs on the instance",
                    submission.id
                );
            }
            // Wrong submissions carry a counterexample that
            // check_distinguishes confirms: a valid sub-instance of the
            // hidden instance on which the two queries disagree.
            Verdict::Wrong { counterexample, .. } => {
                let cex_db = counterexample.database();
                assert!(
                    cohort.db.contains_subinstance(cex_db),
                    "{}: counterexample is not a sub-instance",
                    submission.id
                );
                assert!(
                    cex_db.validate_constraints().is_ok(),
                    "{}: counterexample violates foreign keys",
                    submission.id
                );
                let (r1, r2) = check_distinguishes(
                    &cohort.reference,
                    &submission.query,
                    cex_db,
                    &Params::new(),
                    &Budget::unlimited(),
                    &MetricsHandle::none(),
                )
                .expect("counterexample evaluates");
                assert!(
                    !r1.set_eq(&r2),
                    "{}: counterexample does not distinguish the queries",
                    submission.id
                );
                assert!(
                    counterexample.size() <= cohort.db.total_tuples() / 2,
                    "{}: counterexample of {} tuples is not small",
                    submission.id,
                    counterexample.size()
                );
            }
            other => panic!("{}: unexpected verdict {other:?}", submission.id),
        }
        // Submitting the reference verbatim must grade as correct.
        if graded.fingerprint == reference_fp {
            assert_eq!(graded.verdict.tag(), "correct", "{}", submission.id);
        }
    }

    // Regrading the same class is answered entirely from the verdict cache.
    let regrade = grader
        .grade(
            "regrade",
            &cohort.reference,
            &cohort.db,
            &cohort.submissions,
        )
        .expect("regrade succeeds");
    assert_eq!(regrade.stats.pipeline_runs, 0);
    assert_eq!(regrade.stats.cache_hits, regrade.stats.distinct_groups);
    let tags = |r: &ratest_grader::BatchReport| {
        r.graded
            .iter()
            .map(|g| g.verdict.tag().to_owned())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        tags(&report),
        tags(&regrade),
        "cached verdicts are identical"
    );
}
