//! The experiments of Sections 7 and 8, one function per table/figure.
//!
//! Every function takes an explicit scale so that the Criterion benches can
//! run tiny configurations while the `reproduce` binary defaults to larger
//! ones. Results are plain data structures; `render` turns them into the
//! text tables printed by the binary and recorded in EXPERIMENTS.md.

use crate::workload::{course_workload, distinguished_pairs, CoursePair};
use ratest_core::aggregates::agg_basic::{smallest_counterexample_agg_basic, AggBasicOptions};
use ratest_core::aggregates::agg_opt::{smallest_counterexample_agg_opt, AggOptOptions};
use ratest_core::aggregates::agg_param::{smallest_counterexample_agg_param, AggParamOptions};
use ratest_core::basic::{smallest_counterexample_basic, BasicOptions};
use ratest_core::optsigma::{smallest_witness_optsigma, OptSigmaOptions};
use ratest_core::pipeline::SolverStrategy;
use ratest_core::RatestError;
use ratest_datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_queries::tpch_queries::{q18_parameterized, q18_parameterized_wrong, tpch_experiments};
use ratest_ra::eval::Params;
use ratest_ra::metrics::QueryMetrics;
use ratest_storage::{Database, Value};
use serde::Serialize;
use std::time::Duration;

/// Default per-question mutation count used by the harness.
pub const DEFAULT_MUTATIONS_PER_QUESTION: usize = 6;

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
                smallest_counterexample_basic(
                    &p.reference,
                    &p.wrong,
                    &db,
                    &Params::new(),
                    &BasicOptions::default(),
                )
                .ok()
                .map(|(c, t)| (c.size(), t.total))
            }) as Runner,
        ),
        (
            "SWP — Optσ",
            Box::new(|p: &CoursePair| {
                smallest_witness_optsigma(
                    &p.reference,
                    &p.wrong,
                    &db,
                    &Params::new(),
                    &OptSigmaOptions::default(),
                )
                .ok()
                .map(|(c, t)| (c.size(), t.total))
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
        if let Ok((_, t)) = smallest_witness_optsigma(
            &p.reference,
            &p.wrong,
            &db,
            &Params::new(),
            &OptSigmaOptions::default(),
        ) {
            let m = QueryMetrics::of(&p.wrong);
            rows.push(Fig3Row {
                question: p.question,
                operators: m.operators,
                differences: m.differences,
                height: m.height,
                raw: t.raw_eval,
                prov_sp: t.provenance,
                solver: t.solver,
                total: t.total,
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
            let Ok((_, t_sp)) = smallest_witness_optsigma(
                &p.reference,
                &p.wrong,
                &db,
                &Params::new(),
                &OptSigmaOptions::default(),
            ) else {
                continue;
            };
            // prov-all + raw via Basic (annotates both difference directions),
            // solver-naive-128 via the enumeration strategy on one tuple, and
            // solver-opt-all via Basic's solver phase.
            let Ok((_, t_all)) = smallest_counterexample_basic(
                &p.reference,
                &p.wrong,
                &db,
                &Params::new(),
                &BasicOptions::default(),
            ) else {
                continue;
            };
            let Ok((_, t_naive)) = smallest_witness_optsigma(
                &p.reference,
                &p.wrong,
                &db,
                &Params::new(),
                &OptSigmaOptions {
                    strategy: SolverStrategy::Enumerate { max_models: 128 },
                    ..Default::default()
                },
            ) else {
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
            if let Ok((cex, t)) = smallest_witness_optsigma(
                &p.reference,
                &p.wrong,
                &db,
                &Params::new(),
                &OptSigmaOptions {
                    strategy,
                    ..Default::default()
                },
            ) {
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

/// One row of Figure 6: per-query TPC-H component times for both aggregate
/// algorithms.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Query name.
    pub query: String,
    /// Which wrong variant (0 or 1).
    pub variant: usize,
    /// Agg-Basic component times (raw, provenance, solver) and size, or
    /// the error the search ended with.
    pub agg_basic: Result<(Duration, Duration, Duration, usize), RatestError>,
    /// Agg-Opt component times (raw, provenance, solver) and size, or the
    /// error (Agg-Opt declines the pairs it cannot decompose).
    pub agg_opt: Result<(Duration, Duration, Duration, usize), RatestError>,
}

/// Run the Figure 6 experiment at the given TPC-H scale factor.
pub fn fig6(scale_factor: f64, seed: u64) -> Vec<Fig6Row> {
    let db = tpch_database(&TpchConfig { scale_factor, seed });
    let mut rows = Vec::new();
    for exp in tpch_experiments() {
        for (variant, wrong) in exp.wrong.iter().enumerate() {
            let basic = smallest_counterexample_agg_basic(
                &exp.reference,
                wrong,
                &db,
                &Params::new(),
                &AggBasicOptions::default(),
            )
            .map(|(c, t)| (t.raw_eval, t.provenance, t.solver, c.size()));
            let opt = smallest_counterexample_agg_opt(
                &exp.reference,
                wrong,
                &db,
                &Params::new(),
                &AggOptOptions::default(),
            )
            .map(|(c, t)| (t.raw_eval, t.provenance, t.solver, c.size()));
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
    /// Mean solver runtime with parameterization.
    pub param_solver_time: Duration,
    /// Mean counterexample size with parameterization.
    pub param_size: f64,
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

    let mut basic_time = Duration::ZERO;
    let mut basic_size = 0usize;
    let mut param_time = Duration::ZERO;
    let mut param_size = 0usize;
    let mut n = 0usize;
    for (wrong_fixed, wrong_param) in q18.wrong.iter().zip(q18_parameterized_wrong().iter()) {
        let basic = smallest_counterexample_agg_basic(
            &q18.reference,
            wrong_fixed,
            &db,
            &Params::new(),
            &AggBasicOptions::default(),
        );
        let param = smallest_counterexample_agg_param(
            &q18_parameterized(),
            wrong_param,
            &db,
            &original,
            &AggParamOptions::default(),
        );
        if let (Ok((cb, tb)), Ok((cp, tp))) = (basic, param) {
            basic_time += tb.solver;
            basic_size += cb.size();
            param_time += tp.solver;
            param_size += cp.size();
            n += 1;
        }
    }
    Fig7Result {
        basic_solver_time: if n > 0 {
            basic_time / n as u32
        } else {
            Duration::ZERO
        },
        basic_size: if n > 0 {
            basic_size as f64 / n as f64
        } else {
            0.0
        },
        param_solver_time: if n > 0 {
            param_time / n as u32
        } else {
            Duration::ZERO
        },
        param_size: if n > 0 {
            param_size as f64 / n as f64
        } else {
            0.0
        },
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
        assert!(rows.iter().any(|r| r.agg_opt.is_ok()));
        let f7 = fig7(0.0008, 3);
        if f7.pairs > 0 {
            assert!(f7.param_size <= f7.basic_size);
        }
    }
}
