//! The experiments of Sections 7 and 8, one function per table/figure.
//!
//! Every function takes an explicit scale so that the Criterion benches can
//! run tiny configurations while the `reproduce` binary defaults to larger
//! ones. Results are plain data structures; `render` turns them into the
//! text tables printed by the binary and recorded in EXPERIMENTS.md.

use crate::workload::{course_workload, distinguished_pairs, CoursePair};
use ratest_core::pipeline::{run_algorithm, Algorithm, RatestOptions, SolverStrategy};
use ratest_core::RatestError;
use ratest_datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_queries::tpch_queries::{q18_parameterized, q18_parameterized_wrong, tpch_experiments};
use ratest_ra::ast::Query;
use ratest_ra::eval::Params;
use ratest_ra::metrics::QueryMetrics;
use ratest_storage::{Database, Value};
use ratest_telemetry::{MetricsHandle, MetricsRegistry};
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// Default per-question mutation count used by the harness.
pub const DEFAULT_MUTATIONS_PER_QUESTION: usize = 6;

/// Options that run `algorithm` alone, every other setting at its default.
fn only(algorithm: Algorithm) -> RatestOptions {
    RatestOptions {
        algorithm,
        ..Default::default()
    }
}

// ---------------------------------------------------------------- Table 3

/// One row of Table 3: instance size vs number of wrong queries discovered.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Total number of tuples in the instance.
    pub tuples: usize,
    /// Wrong queries in the workload.
    pub total_wrong_queries: usize,
    /// Wrong queries the instance distinguishes.
    pub discovered: usize,
}

/// Run the Table 3 experiment over the given instance sizes.
pub fn table3(sizes: &[usize], mutations_per_question: usize, seed: u64) -> Vec<Table3Row> {
    let workload = course_workload(mutations_per_question, seed);
    sizes
        .iter()
        .map(|&tuples| {
            let db = university_database(&UniversityConfig::with_total(tuples));
            Table3Row {
                tuples,
                total_wrong_queries: workload.len(),
                discovered: distinguished_pairs(&workload, &db).len(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Table 4

/// One row of Table 4: SCP (`Basic`) vs SWP (`Optσ`).
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Mean wall-clock runtime per pair.
    pub mean_runtime: Duration,
    /// Mean counterexample size.
    pub mean_size: f64,
    /// Number of pairs solved.
    pub pairs: usize,
}

/// Run the Table 4 experiment at the given instance size.
pub fn table4(tuples: usize, mutations_per_question: usize, seed: u64) -> Vec<Table4Row> {
    let db = university_database(&UniversityConfig::with_total(tuples));
    let workload = course_workload(mutations_per_question, seed);
    let pairs: Vec<&CoursePair> = distinguished_pairs(&workload, &db);

    type Runner<'a> = Box<dyn Fn(&CoursePair) -> Option<(usize, Duration)> + 'a>;
    let runners: Vec<(&str, Runner)> = vec![
        (
            "SCP — Basic",
            Box::new(|p: &CoursePair| {
                run_algorithm(&p.reference, &p.wrong, &db, &only(Algorithm::Basic))
                    .ok()
                    .map(|(c, t)| (c.size(), t.total()))
            }) as Runner,
        ),
        (
            "SWP — Optσ",
            Box::new(|p: &CoursePair| {
                run_algorithm(&p.reference, &p.wrong, &db, &only(Algorithm::OptSigma))
                    .ok()
                    .map(|(c, t)| (c.size(), t.total()))
            }) as Runner,
        ),
    ];
    let mut rows = Vec::new();
    for (name, run) in runners {
        let mut total_time = Duration::ZERO;
        let mut total_size = 0usize;
        let mut solved = 0usize;
        for p in &pairs {
            if let Some((size, time)) = run(p) {
                total_time += time;
                total_size += size;
                solved += 1;
            }
        }
        rows.push(Table4Row {
            algorithm: name.to_owned(),
            mean_runtime: if solved > 0 {
                total_time / solved as u32
            } else {
                Duration::ZERO
            },
            mean_size: if solved > 0 {
                total_size as f64 / solved as f64
            } else {
                0.0
            },
            pairs: solved,
        });
    }
    rows
}

// ---------------------------------------------------------------- Figure 3

/// One row of Figure 3: Optσ component times vs query complexity.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    /// Question number.
    pub question: usize,
    /// Number of operators in the wrong query.
    pub operators: usize,
    /// Number of difference operators.
    pub differences: usize,
    /// Height of the query tree.
    pub height: usize,
    /// Raw evaluation time.
    pub raw: Duration,
    /// Provenance (selection-pushed) time.
    pub prov_sp: Duration,
    /// Solver time.
    pub solver: Duration,
    /// Total Optσ time.
    pub total: Duration,
}

/// Run the Figure 3 experiment.
pub fn fig3(tuples: usize, mutations_per_question: usize, seed: u64) -> Vec<Fig3Row> {
    let db = university_database(&UniversityConfig::with_total(tuples));
    let workload = course_workload(mutations_per_question, seed);
    let mut rows = Vec::new();
    for p in distinguished_pairs(&workload, &db) {
        if let Ok((_, t)) = run_algorithm(&p.reference, &p.wrong, &db, &only(Algorithm::OptSigma)) {
            let m = QueryMetrics::of(&p.wrong);
            rows.push(Fig3Row {
                question: p.question,
                operators: m.operators,
                differences: m.differences,
                height: m.height,
                raw: t.raw_eval,
                prov_sp: t.provenance,
                solver: t.solver,
                total: t.total(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Figure 4

/// One row of Figure 4: mean per-component time at one instance size.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// Instance size in tuples.
    pub tuples: usize,
    /// Mean raw `Q1 − Q2` evaluation time.
    pub raw: Duration,
    /// Mean provenance time without selection push-down (all output tuples).
    pub prov_all: Duration,
    /// Mean provenance time with the pushed-down single-tuple selection.
    pub prov_sp: Duration,
    /// Mean solver time for `Naive-128` enumeration.
    pub solver_naive_128: Duration,
    /// Mean solver time for the optimizing strategy on one tuple.
    pub solver_opt: Duration,
    /// Mean solver time for the optimizing strategy over all differing tuples.
    pub solver_opt_all: Duration,
}

/// Run the Figure 4 experiment over the given instance sizes.
pub fn fig4(sizes: &[usize], mutations_per_question: usize, seed: u64) -> Vec<Fig4Row> {
    let workload = course_workload(mutations_per_question, seed);
    let mut rows = Vec::new();
    for &tuples in sizes {
        let db = university_database(&UniversityConfig::with_total(tuples));
        let pairs = distinguished_pairs(&workload, &db);
        let mut acc = [Duration::ZERO; 6];
        let mut n = 0u32;
        for p in &pairs {
            // prov-sp + solver-opt via Optσ with push-down.
            let Ok((_, t_sp)) =
                run_algorithm(&p.reference, &p.wrong, &db, &only(Algorithm::OptSigma))
            else {
                continue;
            };
            // prov-all + raw via Basic (annotates both difference directions),
            // solver-naive-128 via the enumeration strategy on one tuple, and
            // solver-opt-all via Basic's solver phase.
            let Ok((_, t_all)) =
                run_algorithm(&p.reference, &p.wrong, &db, &only(Algorithm::Basic))
            else {
                continue;
            };
            let naive = RatestOptions {
                strategy: SolverStrategy::Enumerate { max_models: 128 },
                ..only(Algorithm::OptSigma)
            };
            let Ok((_, t_naive)) = run_algorithm(&p.reference, &p.wrong, &db, &naive) else {
                continue;
            };
            acc[0] += t_all.raw_eval;
            acc[1] += t_all.provenance;
            acc[2] += t_sp.provenance;
            acc[3] += t_naive.solver;
            acc[4] += t_sp.solver;
            acc[5] += t_all.solver;
            n += 1;
        }
        if n == 0 {
            continue;
        }
        rows.push(Fig4Row {
            tuples,
            raw: acc[0] / n,
            prov_all: acc[1] / n,
            prov_sp: acc[2] / n,
            solver_naive_128: acc[3] / n,
            solver_opt: acc[4] / n,
            solver_opt_all: acc[5] / n,
        });
    }
    rows
}

// ---------------------------------------------------------------- Figure 5

/// One row of Figure 5: witness size and solver time per solver strategy.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// Strategy label ("Naive-1", ..., "Naive-128", "Opt").
    pub strategy: String,
    /// Mean witness size.
    pub mean_size: f64,
    /// Mean solver time.
    pub mean_solver_time: Duration,
}

/// Run the Figure 5 experiment (solver strategy ablation).
pub fn fig5(tuples: usize, mutations_per_question: usize, seed: u64) -> Vec<Fig5Row> {
    let db = university_database(&UniversityConfig::with_total(tuples));
    let workload = course_workload(mutations_per_question, seed);
    let pairs = distinguished_pairs(&workload, &db);
    let mut strategies: Vec<(String, SolverStrategy)> = [1usize, 2, 8, 32, 128]
        .iter()
        .map(|&k| {
            (
                format!("Naive-{k}"),
                SolverStrategy::Enumerate { max_models: k },
            )
        })
        .collect();
    strategies.push(("Opt".to_owned(), SolverStrategy::Optimize));

    let mut rows = Vec::new();
    for (label, strategy) in strategies {
        let mut sizes = 0usize;
        let mut time = Duration::ZERO;
        let mut n = 0u32;
        for p in &pairs {
            let options = RatestOptions {
                strategy,
                ..only(Algorithm::OptSigma)
            };
            if let Ok((cex, t)) = run_algorithm(&p.reference, &p.wrong, &db, &options) {
                sizes += cex.size();
                time += t.solver;
                n += 1;
            }
        }
        if n > 0 {
            rows.push(Fig5Row {
                strategy: label,
                mean_size: sizes as f64 / n as f64,
                mean_solver_time: time / n,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Figure 6

/// One aggregate algorithm's run in Figure 6 or 7: its component times
/// (raw, provenance, solver) and counterexample size, or the error it ended
/// with, plus the work counted in the run's own metrics registry.
#[derive(Debug, Clone, Serialize)]
pub struct AggRun {
    /// Times and size, or the error the search ended with.
    pub result: Result<(Duration, Duration, Duration, usize), RatestError>,
    /// `agg.theory.checks`: the models the lazy theory check evaluated.
    pub theory_checks: u64,
    /// `solver.decisions` over every solve of the run.
    pub solver_decisions: u64,
}

impl AggRun {
    /// Run `algorithm` alone on `q1`, `q2` over `db` under `params`, with a
    /// fresh metrics registry, and keep its counters.
    fn counted(
        algorithm: Algorithm,
        q1: &Query,
        q2: &Query,
        db: &Database,
        params: &Params,
    ) -> AggRun {
        let registry = Arc::new(MetricsRegistry::new());
        let options = RatestOptions {
            parameters: params.clone(),
            metrics: MetricsHandle::new(registry.clone()),
            ..only(algorithm)
        };
        let result = run_algorithm(q1, q2, db, &options)
            .map(|(c, t)| (t.raw_eval, t.provenance, t.solver, c.size()));
        AggRun {
            result,
            theory_checks: registry.counter("agg.theory.checks"),
            solver_decisions: registry.counter("solver.decisions"),
        }
    }
}

/// One row of Figure 6: per-query TPC-H component times for both aggregate
/// algorithms.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Query name.
    pub query: String,
    /// Which wrong variant (0 or 1).
    pub variant: usize,
    /// The Agg-Basic run.
    pub agg_basic: AggRun,
    /// The Agg-Opt run (Agg-Opt declines the pairs it cannot decompose).
    pub agg_opt: AggRun,
}

/// Run the Figure 6 experiment at the given TPC-H scale factor.
pub fn fig6(scale_factor: f64, seed: u64) -> Vec<Fig6Row> {
    let db = tpch_database(&TpchConfig { scale_factor, seed });
    let mut rows = Vec::new();
    for exp in tpch_experiments() {
        for (variant, wrong) in exp.wrong.iter().enumerate() {
            let run =
                |algorithm| AggRun::counted(algorithm, &exp.reference, wrong, &db, &Params::new());
            let basic = run(Algorithm::AggBasic);
            let opt = run(Algorithm::AggOpt);
            rows.push(Fig6Row {
                query: exp.name.to_owned(),
                variant,
                agg_basic: basic,
                agg_opt: opt,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Figure 7

/// The Figure 7 result: Agg-Basic vs Agg-Param on Q18.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Result {
    /// Mean solver runtime without parameterization.
    pub basic_solver_time: Duration,
    /// Mean counterexample size without parameterization.
    pub basic_size: f64,
    /// Mean `agg.theory.checks` without parameterization.
    pub basic_checks: f64,
    /// Mean `solver.decisions` without parameterization.
    pub basic_decisions: f64,
    /// Mean solver runtime with parameterization.
    pub param_solver_time: Duration,
    /// Mean counterexample size with parameterization.
    pub param_size: f64,
    /// Mean `agg.theory.checks` with parameterization.
    pub param_checks: f64,
    /// Mean `solver.decisions` with parameterization.
    pub param_decisions: f64,
    /// Number of (reference, wrong) pairs measured.
    pub pairs: usize,
}

/// Run the Figure 7 experiment (parameterization effectiveness on Q18).
pub fn fig7(scale_factor: f64, seed: u64) -> Fig7Result {
    let db = tpch_database(&TpchConfig { scale_factor, seed });
    let q18 = tpch_experiments()
        .into_iter()
        .find(|e| e.name == "Q18")
        .expect("Q18 exists");
    let mut original = Params::new();
    original.insert("qty".into(), Value::Int(120));

    // Sums over the pairs both algorithms explain: solver time, size,
    // theory checks and solver decisions.
    let mut basic = (Duration::ZERO, 0usize, 0u64, 0u64);
    let mut param = (Duration::ZERO, 0usize, 0u64, 0u64);
    let mut n = 0usize;
    for (wrong_fixed, wrong_param) in q18.wrong.iter().zip(q18_parameterized_wrong().iter()) {
        let b = AggRun::counted(
            Algorithm::AggBasic,
            &q18.reference,
            wrong_fixed,
            &db,
            &Params::new(),
        );
        let p = AggRun::counted(
            Algorithm::AggParam,
            &q18_parameterized(),
            wrong_param,
            &db,
            &original,
        );
        if let (Ok((_, _, tb, sb)), Ok((_, _, tp, sp))) = (&b.result, &p.result) {
            basic = (
                basic.0 + *tb,
                basic.1 + sb,
                basic.2 + b.theory_checks,
                basic.3 + b.solver_decisions,
            );
            param = (
                param.0 + *tp,
                param.1 + sp,
                param.2 + p.theory_checks,
                param.3 + p.solver_decisions,
            );
            n += 1;
        }
    }
    let mean = |total: f64| if n > 0 { total / n as f64 } else { 0.0 };
    Fig7Result {
        basic_solver_time: basic.0.checked_div(n as u32).unwrap_or_default(),
        basic_size: mean(basic.1 as f64),
        basic_checks: mean(basic.2 as f64),
        basic_decisions: mean(basic.3 as f64),
        param_solver_time: param.0.checked_div(n as u32).unwrap_or_default(),
        param_size: mean(param.1 as f64),
        param_checks: mean(param.2 as f64),
        param_decisions: mean(param.3 as f64),
        pairs: n,
    }
}

/// Convenience: the university database used in several benches.
pub fn university(tuples: usize) -> Database {
    university_database(&UniversityConfig::with_total(tuples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_discovery_grows_with_instance_size() {
        let rows = table3(&[60, 400], 4, 11);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].discovered >= rows[0].discovered);
        assert!(rows[1].discovered <= rows[1].total_wrong_queries);
    }

    #[test]
    fn table4_optsigma_is_faster_with_equal_size() {
        let rows = table4(300, 2, 5);
        assert_eq!(rows.len(), 2);
        let basic = &rows[0];
        let opt = &rows[1];
        assert!(basic.pairs > 0 && opt.pairs > 0);
        // Same (or nearly the same) counterexample quality…
        assert!((basic.mean_size - opt.mean_size).abs() < 1.0 + f64::EPSILON);
        // …and Optσ is not slower (usually much faster).
        assert!(opt.mean_runtime <= basic.mean_runtime * 2);
    }

    #[test]
    fn fig5_opt_dominates_naive_on_size() {
        let rows = fig5(300, 2, 5);
        let opt = rows.iter().find(|r| r.strategy == "Opt").unwrap();
        let naive1 = rows.iter().find(|r| r.strategy == "Naive-1").unwrap();
        let naive128 = rows.iter().find(|r| r.strategy == "Naive-128").unwrap();
        assert!(opt.mean_size <= naive1.mean_size);
        assert!(opt.mean_size <= naive128.mean_size);
        assert!(naive128.mean_size <= naive1.mean_size);
    }

    #[test]
    fn fig6_and_fig7_run_at_tiny_scale() {
        let rows = fig6(0.0006, 3);
        assert!(!rows.is_empty());
        assert!(rows.iter().any(|r| r.agg_opt.result.is_ok()));
        // An Agg-Basic search that explains its pair solved and checked
        // at least one model.
        let explained = rows.iter().filter(|r| r.agg_basic.result.is_ok());
        assert!(explained
            .clone()
            .all(|r| r.agg_basic.solver_decisions > 0 && r.agg_basic.theory_checks > 0));
        assert!(explained.count() > 0);
        let f7 = fig7(0.0008, 3);
        if f7.pairs > 0 {
            assert!(f7.param_size <= f7.basic_size);
        }
    }
}
