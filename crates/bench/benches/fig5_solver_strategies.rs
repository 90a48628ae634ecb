//! Bench for Figure 5: the optimizing min-ones strategy vs bounded model
//! enumeration (`Naive-k`), on the provenance formula of one course pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ratest_bench::university;
use ratest_bench::workload::{course_workload, distinguished_pairs};
use ratest_core::pipeline::{run_algorithm, Algorithm, RatestOptions, SolverStrategy};

fn bench(c: &mut Criterion) {
    let db = university(500);
    let workload = course_workload(2, 2019);
    let pairs: Vec<_> = distinguished_pairs(&workload, &db)
        .into_iter()
        .cloned()
        .collect();
    let pair = pairs.first().expect("pair exists").clone();

    let optsigma = |strategy| RatestOptions {
        algorithm: Algorithm::OptSigma,
        strategy,
        ..Default::default()
    };
    let mut group = c.benchmark_group("fig5_solver_strategies");
    group.sample_size(10);
    for k in [1usize, 32, 128] {
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |b, &k| {
            let options = optsigma(SolverStrategy::Enumerate { max_models: k });
            b.iter(|| run_algorithm(&pair.reference, &pair.wrong, &db, &options).unwrap())
        });
    }
    group.bench_function("opt", |b| {
        let options = optsigma(SolverStrategy::Optimize);
        b.iter(|| run_algorithm(&pair.reference, &pair.wrong, &db, &options).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
