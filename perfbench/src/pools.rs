//! The closed-loop pair pools: `course-pool` and `tpch-agg`.
//!
//! One client explains every (reference, wrong query) pair of the pool in a
//! fixed order, one after the other, through `Session::prepare`/`explain`.
//! Each pass starts from fresh sessions, so a pass is what a restarted
//! service pays; passes repeat until the run's time is up, and a pair's
//! time is its fastest pass.

use crate::relabel::{relabel, Domain, COURSE_DOMAINS, TPCH_DOMAINS};
use crate::report::{Metrics, Outcome, Slowest};
use crate::stats::Rng;
use crate::stats::{median, ms, percentile, Speed};
use crate::trace::{Layer, Mark, StampSink, Trace};
use ratest_core::session::{EventHandle, ExplainEvent, Phase, ReferenceHandle, Session};
use ratest_core::ExplainOutcome;
use ratest_datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_queries::course::course_questions;
use ratest_queries::mutations::mutate;
use ratest_queries::tpch_queries::tpch_experiments;
use ratest_ra::ast::Query;
use ratest_ra::eval::evaluate_with_params;
use ratest_storage::{Database, SubInstance};
use ratest_telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuples in the course instance. At 150 tuples one pass of the full pool
/// already takes ~21 s, too long for several passes per run.
pub const COURSE_TUPLES: usize = 100;
/// TPC-H scale factor (2,513 tuples). At 0.001 a single Q18 search takes
/// about a minute.
pub const TPCH_SCALE: f64 = 0.0003;
/// TPC-H pairs left out: their searches end `unsupported` on every seed
/// tried (after 1-2 M solver decisions each), and the benchmark runs only
/// pairs that succeed.
const TPCH_EXCLUDED: [(&str, usize); 3] = [("Q18", 0), ("Q21-S", 0), ("Q21-S", 1)];

/// Relabelings per run: a course pass takes seconds, a TPC-H pass a few
/// hundred milliseconds.
const COURSE_VARIANTS: usize = 4;
const TPCH_VARIANTS: usize = 8;

fn variants(shape: &Database, domains: &[Domain], seed: u64, n: usize) -> Vec<Database> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| relabel(shape, domains, rng.next_u64()))
        .collect()
}

/// One pair: which session (reference) it is explained against.
pub struct Pair {
    pub label: String,
    pub session: usize,
    pub query: Query,
}

pub struct Pool {
    /// Isomorphic copies of the workload's instance; pass `k` runs against
    /// copy `k % len`, so per-pair times span several relabelings.
    instances: Vec<Database>,
    references: Vec<Query>,
    pub pairs: Vec<Pair>,
    /// Whether every pair runs an exact algorithm, so counterexample sizes
    /// are the same on every isomorphic instance. The aggregate heuristics
    /// only promise the same size on the same instance.
    exact: bool,
    /// Time spent generating the instance and the queries.
    pub datagen: Duration,
    pub mutate: Duration,
}

/// The paper's student workload (§7.1): every single-site mutation of all
/// eight course questions, one session per question.
pub fn course_pool(seed: u64) -> Pool {
    let start = Instant::now();
    let shape = university_database(&UniversityConfig::with_total(COURSE_TUPLES));
    let instances = variants(&shape, COURSE_DOMAINS, seed, COURSE_VARIANTS);
    let datagen = start.elapsed();
    let start = Instant::now();
    let mut references = Vec::new();
    let mut pairs = Vec::new();
    for question in course_questions() {
        for m in mutate(&question.reference) {
            pairs.push(Pair {
                label: format!("q{} {}", question.number, m.description),
                session: references.len(),
                query: m.query,
            });
        }
        references.push(question.reference);
    }
    Pool {
        instances,
        references,
        pairs,
        exact: true,
        datagen,
        mutate: start.elapsed(),
    }
}

/// The aggregate path of §8 / Fig. 6: the TPC-H experiments, one session
/// per pair.
pub fn tpch_pool(seed: u64) -> Pool {
    let start = Instant::now();
    let shape = tpch_database(&TpchConfig::with_scale(TPCH_SCALE));
    let instances = variants(&shape, TPCH_DOMAINS, seed, TPCH_VARIANTS);
    let datagen = start.elapsed();
    let start = Instant::now();
    let mut references = Vec::new();
    let mut pairs = Vec::new();
    for exp in tpch_experiments() {
        for (variant, wrong) in exp.wrong.into_iter().enumerate() {
            if TPCH_EXCLUDED.contains(&(exp.name, variant)) {
                continue;
            }
            pairs.push(Pair {
                label: format!("{}#{variant}", exp.name),
                session: references.len(),
                query: wrong,
            });
            references.push(exp.reference.clone());
        }
    }
    Pool {
        instances,
        references,
        pairs,
        exact: false,
        datagen,
        mutate: start.elapsed(),
    }
}

/// What one explain returned, kept for the output checks.
pub struct PairResult {
    pub elapsed: Duration,
    /// `elapsed` at the reference speed (see `Speed`).
    pub scaled: Duration,
    pub outcome: Result<ExplainOutcome, String>,
}

pub struct Pass {
    /// Which isomorphic instance the pass ran against.
    pub instance: usize,
    /// Fresh sessions built and every reference prepared, at the reference
    /// speed.
    pub prepare: Duration,
    pub results: Vec<PairResult>,
    /// Solver calls seen on the event stream, and how many found a model.
    pub solver_events: usize,
    pub solver_sat: usize,
}

impl Pool {
    /// How many isomorphic instances the pool cycles through.
    pub fn instances(&self) -> usize {
        self.instances.len()
    }

    /// Build fresh sessions and prepare every reference.
    pub fn sessions(
        &self,
        instance: usize,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> Result<Vec<(Session, ReferenceHandle)>, String> {
        self.references
            .iter()
            .map(|reference| {
                let mut builder = Session::builder(self.instances[instance].clone());
                if let Some(registry) = registry {
                    builder = builder.metrics(registry.clone());
                }
                let session = builder.build();
                let handle = session
                    .prepare(reference)
                    .map_err(|e| format!("prepare failed: {e}"))?;
                Ok((session, handle))
            })
            .collect()
    }

    /// Explain every pair once. Untraced, every timed step runs between
    /// kernel bursts (see `Speed`). With a trace, each explain gets a
    /// stamping sink and its spans are added under request id
    /// `base + index`.
    pub fn pass(
        &self,
        instance: usize,
        registry: Option<&Arc<MetricsRegistry>>,
        mut trace: Option<(&mut Trace, u32)>,
    ) -> Result<Pass, String> {
        let mut speed = trace.is_none().then(Speed::default);
        let timed = Speed::time(speed.as_mut(), || self.sessions(instance, registry));
        if let Some((trace, base)) = trace.as_mut() {
            trace.span(
                "prepare",
                Layer::Ratest,
                *base,
                None,
                timed.start,
                timed.end,
            );
        }
        let prepare = timed.scaled();
        let sessions = timed.out?;
        let mut results = Vec::with_capacity(self.pairs.len());
        let (mut solver_events, mut solver_sat) = (0, 0);
        for (i, pair) in self.pairs.iter().enumerate() {
            let (session, handle) = &sessions[pair.session];
            let sink = trace.is_some().then(StampSink::new);
            let events = sink
                .clone()
                .map_or(EventHandle::none(), |s| EventHandle::new(s));
            let timed = Speed::time(speed.as_mut(), || {
                session.explain_with(*handle, &pair.query, session.budget(), events)
            });
            let (start, end) = (timed.start, timed.end);
            let scaled = timed.scaled();
            let outcome = timed.out;
            if let (Some((trace, base)), Some(sink)) = (trace.as_mut(), sink) {
                let root = trace.span(
                    "explain",
                    Layer::Ratest,
                    *base + 1 + i as u32,
                    None,
                    start,
                    end,
                );
                let events = sink.take();
                let mut announced = false;
                for (_, e) in &events {
                    match e {
                        ExplainEvent::SolverStats { solution_size, .. } => {
                            solver_events += 1;
                            solver_sat += usize::from(solution_size.is_some());
                        }
                        ExplainEvent::PhaseStarted { phase } => {
                            announced |= *phase != Phase::RawEval;
                        }
                        _ => {}
                    }
                }
                match &outcome {
                    Ok(o) if !announced => trace.phases_from_clocks(
                        root,
                        [
                            (Phase::RawEval, o.timings.raw_eval),
                            (Phase::Provenance, o.timings.provenance),
                            (Phase::Solve, o.timings.solver),
                        ],
                    ),
                    _ => {
                        let marks: Vec<(Instant, Mark)> = events
                            .iter()
                            .filter_map(|(t, e)| Mark::of(e).map(|m| (*t, m)))
                            .collect();
                        trace.request(root, &marks);
                    }
                }
            }
            results.push(PairResult {
                elapsed: end - start,
                scaled,
                outcome: outcome.map_err(|e| e.to_string()),
            });
        }
        Ok(Pass {
            instance,
            prepare,
            results,
            solver_events,
            solver_sat,
        })
    }

    /// The output checks. Every counterexample, materialized from its tuple
    /// selection over the pass's instance, must make the two queries
    /// disagree when evaluated from here. Passes over the same instance, or
    /// over any of the isomorphic instances when every algorithm is exact,
    /// must give every pair the same verdict and size. Returns the
    /// counterexample size sum and the number of agreeing pairs of the
    /// first pass.
    pub fn check(&self, passes: &[&Pass]) -> Result<(usize, usize), String> {
        let mut expected: HashMap<usize, Vec<Option<usize>>> = HashMap::new();
        let mut first = None;
        for (k, pass) in passes.iter().enumerate() {
            let db = &self.instances[pass.instance];
            let mut sizes = Vec::with_capacity(self.pairs.len());
            for (pair, result) in self.pairs.iter().zip(&pass.results) {
                let outcome = result
                    .outcome
                    .as_ref()
                    .map_err(|e| format!("{}: {e}", pair.label))?;
                let Some(cex) = &outcome.counterexample else {
                    sizes.push(None);
                    continue;
                };
                let sub = SubInstance::materialize(db, cex.subinstance.selection.clone());
                let eval = |q: &Query| {
                    evaluate_with_params(q, &sub.database, &cex.parameters).map_err(|e| {
                        format!("{}: evaluating on the counterexample: {e}", pair.label)
                    })
                };
                if eval(&self.references[pair.session])?.set_eq(&eval(&pair.query)?) {
                    return Err(format!(
                        "{}: the queries agree on the {}-tuple counterexample",
                        pair.label,
                        sub.size()
                    ));
                }
                sizes.push(Some(sub.size()));
            }
            let key = if self.exact { 0 } else { pass.instance };
            match expected.get(&key) {
                None => {
                    first.get_or_insert_with(|| sizes.clone());
                    expected.insert(key, sizes);
                }
                Some(earlier) if *earlier != sizes => {
                    return Err(format!(
                        "pass {k} disagrees with an earlier pass on some verdict"
                    ))
                }
                Some(_) => {}
            }
        }
        let sizes = first.unwrap_or_default();
        Ok((
            sizes.iter().flatten().sum(),
            sizes.iter().filter(|s| s.is_none()).count(),
        ))
    }
}

/// Each pair's time across passes, in milliseconds, reduced by `stat`.
pub fn pair_times(passes: &[&Pass], pairs: usize, stat: fn(&[f64]) -> f64) -> Vec<f64> {
    (0..pairs)
        .map(|i| {
            let xs: Vec<f64> = passes.iter().map(|p| ms(p.results[i].elapsed)).collect();
            stat(&xs)
        })
        .collect()
}

/// End-to-end metrics of the untraced passes (`setup_s` is the caller's),
/// from times at the reference speed (see `Speed`). `restarts` are the
/// set-ups' own session builds, in seconds, also at the reference speed.
///
/// A pair's time is its median across passes. Latency percentiles are over
/// these per-pair medians: a pool has few pairs (7 on tpch-agg), so
/// percentiles over raw samples jump between pairs with the noise of single
/// passes.
pub fn end_to_end(metrics: &mut Metrics, passes: &[&Pass], pairs: usize, restarts: &[f64]) {
    let times: Vec<f64> = (0..pairs)
        .map(|i| {
            let xs: Vec<f64> = passes.iter().map(|p| ms(p.results[i].scaled)).collect();
            median(&xs)
        })
        .collect();
    let restart: Vec<f64> = passes
        .iter()
        .map(|p| p.prepare.as_secs_f64())
        .chain(restarts.iter().copied())
        .collect();
    metrics.put(
        "throughput_per_s",
        pairs as f64 / (times.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    metrics.put("latency_ms.p50", median(&times), "ms");
    metrics.put("latency_ms.tail", percentile(&times, 90.0), "ms");
    metrics.put("restart_s", median(&restart), "s");
}

/// The median factor the pass times were multiplied by (see `Speed`).
pub fn median_scale(passes: &[&Pass]) -> f64 {
    let scales: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.results)
        .map(|r| r.scaled.as_secs_f64() / r.elapsed.as_secs_f64().max(1e-9))
        .collect();
    median(&scales)
}

/// The slowest pair (by median across passes) and its layer split.
pub fn slowest(pool: &Pool, passes: &[&Pass], trace: Option<(&Trace, u32)>) -> Slowest {
    let medians = pair_times(passes, pool.pairs.len(), median);
    let (i, worst) = medians
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, v)| (i, *v))
        .unwrap_or((0, 0.0));
    let outcome = passes[0].results[i].outcome.as_ref().ok();
    let split = match (trace, outcome) {
        (Some((trace, base)), _) => trace.request_split(base + 1 + i as u32),
        (None, Some(o)) => [
            (Layer::Ra, ms(o.timings.raw_eval)),
            (Layer::Provenance, ms(o.timings.provenance)),
            (Layer::Solver, ms(o.timings.solver)),
        ]
        .into_iter()
        .collect(),
        (None, None) => Default::default(),
    };
    Slowest {
        identity: pool.pairs[i].label.clone(),
        ms: worst,
        outcome: Outcome::from_pair(outcome),
        split,
    }
}
