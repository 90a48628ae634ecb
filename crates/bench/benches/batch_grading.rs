//! Batch grading: the naive per-pair loop vs the grading engine.
//!
//! Grades the same generated 50-submission cohort three ways:
//!
//! * `naive_sequential_loop` — the pre-engine baseline: a fresh
//!   [`ratest_core::Session`] per submission, re-evaluating and
//!   re-annotating the reference query every time, no dedup;
//! * `engine_1worker` — the batch engine's dedup + shared reference
//!   annotation, single worker;
//! * `engine_4workers` — the same plus the worker pool (wall-clock wins
//!   scale with available cores; on a single-core host it tracks
//!   `engine_1worker` minus pool overhead).
//!
//! The engine variants run strictly fewer pipeline runs than submissions
//! (dedup), each cheaper than the naive loop's (shared reference work).

use criterion::{criterion_group, criterion_main, Criterion};

use ratest_grader::{generate_cohort, CohortConfig, Grader, GraderConfig};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let cohort = generate_cohort(&CohortConfig::default());

    let mut group = c.benchmark_group("batch_grading_50_submissions");
    group.sample_size(10);

    group.bench_function("naive_sequential_loop", |b| {
        b.iter(|| {
            // A fresh session per pair re-prepares the reference every
            // time, which is exactly the cost profile the engine's sharing
            // is measured against.
            let explain_one = |q2: &ratest_ra::ast::Query| {
                ratest_core::Session::builder(cohort.db.clone())
                    .build()
                    .explain_pair(&cohort.reference, q2)
            };
            let mut wrong = 0usize;
            for sub in &cohort.submissions {
                if matches!(explain_one(&sub.query), Ok(o) if o.counterexample.is_some()) {
                    wrong += 1;
                }
            }
            wrong
        })
    });

    group.bench_function("engine_1worker", |b| {
        b.iter(|| {
            // A fresh engine per iteration so the cross-batch cache does not
            // turn later iterations into pure cache reads.
            let grader = Grader::new(GraderConfig {
                workers: 1,
                per_job_timeout: Duration::from_secs(30),
                ..Default::default()
            });
            grader
                .grade("bench", &cohort.reference, &cohort.db, &cohort.submissions)
                .expect("cohort grades")
                .stats
                .wrong
        })
    });

    group.bench_function("engine_4workers", |b| {
        b.iter(|| {
            let grader = Grader::new(GraderConfig {
                workers: 4,
                per_job_timeout: Duration::from_secs(30),
                ..Default::default()
            });
            grader
                .grade("bench", &cohort.reference, &cohort.db, &cohort.submissions)
                .expect("cohort grades")
                .stats
                .wrong
        })
    });

    group.bench_function("engine_4workers_warm_cache", |b| {
        let grader = Grader::new(GraderConfig {
            workers: 4,
            per_job_timeout: Duration::from_secs(30),
            ..Default::default()
        });
        // Prime the cross-batch verdict cache once.
        let _ = grader.grade("warmup", &cohort.reference, &cohort.db, &cohort.submissions);
        b.iter(|| {
            grader
                .grade("bench", &cohort.reference, &cohort.db, &cohort.submissions)
                .expect("cohort grades")
                .stats
                .wrong
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
