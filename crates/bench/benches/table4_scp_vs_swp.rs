//! Bench for Table 4: SCP (`Basic`) vs SWP (`Optσ`) runtime on the course
//! workload.

use criterion::{criterion_group, criterion_main, Criterion};
use ratest_bench::university;
use ratest_bench::workload::{course_workload, distinguished_pairs};
use ratest_core::pipeline::{run_algorithm, Algorithm, RatestOptions};

fn bench(c: &mut Criterion) {
    let db = university(500);
    let workload = course_workload(2, 2019);
    let pairs: Vec<_> = distinguished_pairs(&workload, &db)
        .into_iter()
        .cloned()
        .collect();
    assert!(!pairs.is_empty());

    let mut group = c.benchmark_group("table4_scp_vs_swp");
    group.sample_size(10);
    for (name, algorithm) in [
        ("basic_scp", Algorithm::Basic),
        ("optsigma_swp", Algorithm::OptSigma),
    ] {
        let options = RatestOptions {
            algorithm,
            ..Default::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                for p in &pairs {
                    let _ = run_algorithm(&p.reference, &p.wrong, &db, &options);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
