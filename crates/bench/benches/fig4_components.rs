//! Bench for Figure 4: per-component cost (raw evaluation, provenance with
//! and without selection push-down, solver strategies) as the instance grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ratest_bench::university;
use ratest_bench::workload::{course_workload, distinguished_pairs};
use ratest_core::optsigma::provenance_for_tuple;
use ratest_core::problem::{check_distinguishes, difference_query, differing_tuples};
use ratest_core::session::Budget;
use ratest_core::RatestOptions;
use ratest_provenance::annotate::annotate;
use ratest_ra::eval::Params;
use ratest_telemetry::MetricsHandle;

fn bench(c: &mut Criterion) {
    let workload = course_workload(2, 2019);
    let mut group = c.benchmark_group("fig4_components");
    group.sample_size(10);
    let (unlimited, none) = (Budget::unlimited(), MetricsHandle::none());
    for &tuples in &[200usize, 800] {
        let db = university(tuples);
        let pairs: Vec<_> = distinguished_pairs(&workload, &db)
            .into_iter()
            .cloned()
            .collect();
        let pair = pairs
            .first()
            .expect("at least one distinguishable pair")
            .clone();
        let (r1, r2) = check_distinguishes(
            &pair.reference,
            &pair.wrong,
            &db,
            &Params::new(),
            &unlimited,
            &none,
        )
        .unwrap();
        let (tuple, from_q1) = differing_tuples(&r1, &r2)[0].clone();

        group.bench_with_input(BenchmarkId::new("raw_eval", tuples), &tuples, |b, _| {
            b.iter(|| {
                check_distinguishes(
                    &pair.reference,
                    &pair.wrong,
                    &db,
                    &Params::new(),
                    &unlimited,
                    &none,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("prov_sp", tuples), &tuples, |b, _| {
            b.iter(|| {
                provenance_for_tuple(
                    &pair.reference,
                    &pair.wrong,
                    &db,
                    &Params::new(),
                    &tuple,
                    from_q1,
                    &RatestOptions::default(),
                )
                .unwrap()
            })
        });
        let difference = difference_query(&pair.reference, &pair.wrong, from_q1);
        group.bench_with_input(BenchmarkId::new("prov_all", tuples), &tuples, |b, _| {
            b.iter(|| {
                annotate(&difference, &db)
                    .unwrap()
                    .provenance_of(&tuple)
                    .cloned()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
