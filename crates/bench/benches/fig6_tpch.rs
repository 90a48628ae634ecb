//! Bench for Figure 6: Agg-Basic vs Agg-Opt on the TPC-H workload.

use criterion::{criterion_group, criterion_main, Criterion};
use ratest_core::pipeline::{run_algorithm, Algorithm, RatestOptions};
use ratest_datagen::{tpch_database, TpchConfig};
use ratest_queries::tpch_queries::tpch_experiments;

fn bench(c: &mut Criterion) {
    let db = tpch_database(&TpchConfig::with_scale(0.0006));
    let q18 = tpch_experiments()
        .into_iter()
        .find(|e| e.name == "Q18")
        .unwrap();
    let wrong = q18.wrong[0].clone();

    let mut group = c.benchmark_group("fig6_tpch_q18");
    group.sample_size(10);
    for (name, algorithm) in [
        ("agg_basic", Algorithm::AggBasic),
        ("agg_opt", Algorithm::AggOpt),
    ] {
        let options = RatestOptions {
            algorithm,
            ..Default::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let _ = run_algorithm(&q18.reference, &wrong, &db, &options);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
