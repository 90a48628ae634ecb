//! The end-to-end RATest pipeline: classify the query pair, dispatch to the
//! appropriate algorithm, and package the result with timing breakdowns.
//!
//! This is the programmatic equivalent of submitting a query to the RATest
//! web tool (Section 6): the caller provides the reference query, the test
//! query and the hidden test instance; the pipeline either reports that the
//! queries agree on the instance or returns a small counterexample together
//! with the results of both queries on it.

use crate::aggregates::agg_basic::{agg_basic_core, AggBasicOptions};
use crate::aggregates::agg_opt::{agg_opt_core, AggOptOptions};
use crate::aggregates::agg_param::{agg_param_core, AggParamOptions};
use crate::aggregates::pair_provenance;
use crate::basic::{basic_core, smallest_counterexample_from_annotations, BasicOptions};
use crate::error::{RatestError, Result};
use crate::optsigma::{optsigma_core, OptSigmaOptions};
use crate::polytime::monotone::monotone_core;
use crate::polytime::smallest_witness_monotone_with_results;
use crate::polytime::spjud_star::spjud_star_core;
use crate::problem::{CandidateEval, Counterexample, PairPlans};
use crate::session::{Budget, EventHandle, ExplainEvent, Phase};
use ratest_provenance::aggprov::AggregateProvenance;
use ratest_provenance::annotate::{annotate_plan, difference_of, AnnotatedResult};
use ratest_ra::ast::Query;
use ratest_ra::classify::{classify_pair, QueryClass};
use ratest_ra::eval::{evaluate_plan, Params, ResultSet};
use ratest_ra::plan::Plan;
use ratest_storage::Database;
use ratest_telemetry::MetricsHandle;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the min-ones problem is solved (the "solver strategy" axis of
/// Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverStrategy {
    /// Exact optimization (binary-search descent on the cardinality bound) —
    /// the paper's `Opt`.
    Optimize,
    /// Bounded model enumeration keeping the best model seen — the paper's
    /// `Naive-k`.
    Enumerate {
        /// Maximum number of models to enumerate (Δ in Algorithm 1).
        max_models: usize,
    },
}

/// Which top-level algorithm the pipeline should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Choose automatically based on the query classes (default).
    Auto,
    /// Force Algorithm 1 (`Basic`, solves SCP).
    Basic,
    /// Force Algorithm 2 (`Optσ`, solves SWP for one tuple).
    OptSigma,
    /// Force the monotone poly-time algorithm (SPJU pairs only).
    PolytimeMonotone,
    /// Force the SPJUD\* poly-time algorithm.
    PolytimeSpjudStar,
    /// Force `Agg-Basic`.
    AggBasic,
    /// Force `Agg-Param` (parameterized counterexamples).
    AggParam,
    /// Force `Agg-Opt` (Algorithm 3 heuristic).
    AggOpt,
}

/// Per-phase wall-clock timing breakdown, matching the components reported in
/// Figures 3, 4 and 6 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timings {
    /// Evaluating the raw queries (`raw`).
    pub raw_eval: Duration,
    /// Computing provenance (`prov-all` / `prov-sp`).
    pub provenance: Duration,
    /// Constraint solving (`solver-*`).
    pub solver: Duration,
    /// Total of the above.
    pub total: Duration,
}

impl Timings {
    /// Add another breakdown onto this one (used when averaging over a
    /// workload).
    pub fn accumulate(&mut self, other: &Timings) {
        self.raw_eval += other.raw_eval;
        self.provenance += other.provenance;
        self.solver += other.solver;
        self.total += other.total;
    }
}

/// The option bag every explanation run carries (one per
/// [`crate::session::Session`], overridable per request).
#[derive(Debug, Clone)]
pub struct RatestOptions {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// Solver strategy for the SPJUD algorithms.
    pub strategy: SolverStrategy,
    /// Whether `Optσ` pushes the tuple-equality selection down before
    /// computing provenance.
    pub selection_pushdown: bool,
    /// Original parameter setting λ for parameterized queries.
    pub parameters: Params,
    /// The unified resource budget: cancellation + deadline + step quota,
    /// polled at algorithm loop boundaries *and* inside the
    /// evaluator/annotator row loops.
    pub budget: Budget,
    /// Typed progress events ([`crate::session::ExplainEvent`]) are emitted
    /// here; the default handle drops them.
    pub events: EventHandle,
    /// Metrics sink for the whole run: evaluator row counts, provenance
    /// sizes, solver statistics and per-phase wall-clock durations are
    /// recorded here. The default handle records nothing.
    pub metrics: MetricsHandle,
}

impl Default for RatestOptions {
    fn default() -> Self {
        RatestOptions {
            algorithm: Algorithm::Auto,
            strategy: SolverStrategy::Optimize,
            selection_pushdown: true,
            parameters: Params::new(),
            budget: Budget::unlimited(),
            events: EventHandle::none(),
            metrics: MetricsHandle::none(),
        }
    }
}

/// The outcome of running the pipeline.
#[derive(Debug, Clone)]
pub struct ExplainOutcome {
    /// The counterexample, or `None` when the queries agree on the instance
    /// (i.e. the test passes). Boxed: a caller that keeps many outcomes
    /// pays for a counterexample only where there is one.
    pub counterexample: Option<Box<Counterexample>>,
    /// The query class the pair was classified into.
    pub class: QueryClass,
    /// Which algorithm actually ran.
    pub algorithm_used: Algorithm,
    /// Timing breakdown of the run.
    pub timings: Timings,
}

/// The unshared pipeline plus its verdict event and metrics.
fn explain_unshared(
    q1: &Query,
    q2: &Query,
    db: &Database,
    options: &RatestOptions,
) -> Result<ExplainOutcome> {
    let outcome = explain_inner(q1, q2, db, options)?;
    emit_verdict(options, &outcome);
    Ok(outcome)
}

/// Emit the final [`ExplainEvent::Verdict`] for a finished run, and fold the
/// run's outcome into the metrics registry: deterministic counters for the
/// verdict and counterexample size, volatile duration totals for the phase
/// timings (wall-clock values never enter the byte-reproducible sections).
fn emit_verdict(options: &RatestOptions, outcome: &ExplainOutcome) {
    options.events.emit(ExplainEvent::Verdict {
        agrees: outcome.counterexample.is_none(),
        counterexample_size: outcome.counterexample.as_ref().map(|c| c.size()),
        class: outcome.class,
        algorithm: outcome.algorithm_used,
    });
    options.metrics.counter_inc("explain.runs");
    match &outcome.counterexample {
        None => options.metrics.counter_inc("explain.agreements"),
        Some(cex) => {
            options.metrics.counter_inc("explain.counterexamples");
            options
                .metrics
                .observe("explain.counterexample_size", cex.size() as u64);
        }
    }
    options
        .metrics
        .record_duration("explain.raw_eval_ms", outcome.timings.raw_eval);
    options
        .metrics
        .record_duration("explain.provenance_ms", outcome.timings.provenance);
    options
        .metrics
        .record_duration("explain.solver_ms", outcome.timings.solver);
    options
        .metrics
        .record_duration("explain.total_ms", outcome.timings.total);
}

/// Candidate-verification context handed to the search algorithms: the
/// request's metrics and interrupt.
fn candidate_ctx(options: &RatestOptions) -> CandidateEval {
    CandidateEval {
        metrics: options.metrics.clone(),
        interrupt: options.budget.interrupt(),
    }
}

/// The unshared pipeline: evaluate both queries, then [`dispatch`].
fn explain_inner(
    q1: &Query,
    q2: &Query,
    db: &Database,
    options: &RatestOptions,
) -> Result<ExplainOutcome> {
    options.budget.check()?;
    let class = classify_pair(q1, q2);

    // Fast path: do the queries agree on the instance? (Also validates
    // union compatibility.)
    options.events.emit(ExplainEvent::PhaseStarted {
        phase: Phase::RawEval,
    });
    let start = Instant::now();
    let plans = PairPlans::compile(q1, q2, db)?;
    let (r1, r2) = plans.distinguish(db, &options.parameters, &options.budget, &options.metrics)?;
    let timings = Timings {
        raw_eval: start.elapsed(),
        ..Timings::default()
    };
    if r1.set_eq(&r2) {
        return Ok(ExplainOutcome {
            counterexample: None,
            class,
            algorithm_used: Algorithm::Auto,
            timings,
        });
    }
    dispatch(
        q1,
        q2,
        &plans,
        db,
        &options.parameters,
        (&r1, &r2),
        class,
        timings,
        options,
    )
}

/// Explain a pair already known to disagree on `db`, with `plans` the pair
/// compiled on `db` and `results` both queries' results on `db`: run the
/// algorithm for the pair's class (or the forced one), and fall back to the
/// general path when it declines. No attempt evaluates the queries on `db`
/// again. `timings` holds the raw evaluation done so far; every attempt's
/// time is added to it.
///
/// The aggregate algorithms share one aggregate provenance of the pair,
/// built on first use, so a declined `Agg-Opt` and its `Agg-Basic` fallback
/// annotate once between them.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    params: &Params,
    results: (&ResultSet, &ResultSet),
    class: QueryClass,
    mut timings: Timings,
    options: &RatestOptions,
) -> Result<ExplainOutcome> {
    let algorithm = match options.algorithm {
        Algorithm::Auto => match class {
            QueryClass::Aggregate => {
                if q1.params().is_empty() && q2.params().is_empty() {
                    Algorithm::AggOpt
                } else {
                    Algorithm::AggParam
                }
            }
            c if c.is_monotone() => Algorithm::PolytimeMonotone,
            _ => Algorithm::OptSigma,
        },
        other => other,
    };

    let mut aggregate_provenance: Option<(AggregateProvenance, AggregateProvenance)> = None;
    let mut attempt = |algorithm: Algorithm, timings: &mut Timings| -> Result<Counterexample> {
        options.budget.check()?;
        let shares_provenance = matches!(
            algorithm,
            Algorithm::AggBasic | Algorithm::AggParam | Algorithm::AggOpt
        );
        if shares_provenance && aggregate_provenance.is_none() {
            let start = Instant::now();
            aggregate_provenance = Some(pair_provenance(
                q1,
                q2,
                db,
                params,
                &options.budget.interrupt(),
                &options.metrics,
            )?);
            timings.provenance += start.elapsed();
        }
        let start = Instant::now();
        let result = match algorithm {
            Algorithm::Basic => basic_core(
                q1,
                q2,
                plans,
                db,
                params,
                Some(results),
                &BasicOptions {
                    strategy: options.strategy,
                    budget: options.budget.clone(),
                    events: options.events.clone(),
                    metrics: options.metrics.clone(),
                    ..Default::default()
                },
            ),
            Algorithm::OptSigma => optsigma_core(
                q1,
                q2,
                plans,
                db,
                params,
                Some(results),
                &OptSigmaOptions {
                    selection_pushdown: options.selection_pushdown,
                    strategy: options.strategy,
                    budget: options.budget.clone(),
                    events: options.events.clone(),
                    metrics: options.metrics.clone(),
                },
                |_| true,
            ),
            Algorithm::PolytimeMonotone => monotone_core(
                q1,
                q2,
                plans,
                db,
                params,
                Some(results),
                &candidate_ctx(options),
            ),
            Algorithm::PolytimeSpjudStar => spjud_star_core(
                q1,
                q2,
                plans,
                db,
                params,
                Some(results),
                &candidate_ctx(options),
            ),
            Algorithm::AggBasic | Algorithm::AggParam | Algorithm::AggOpt => {
                let (p1, p2) = aggregate_provenance.as_ref().expect("built above");
                aggregate_search(algorithm, q1, q2, plans, db, params, p1, p2, options)
            }
            Algorithm::Auto => unreachable!("Auto is resolved above"),
        };
        match result {
            Ok((cex, took)) => {
                timings.accumulate(&took);
                Ok(cex)
            }
            // A declined attempt's time is search time.
            Err(e) => {
                timings.solver += start.elapsed();
                Err(e)
            }
        }
    };

    // Run the chosen algorithm; fall back to the more general path when a
    // specialized algorithm declines (DNF too large, unsupported aggregate
    // shape) or when a heuristic fails to find an acceptable model (e.g.
    // `Agg-Opt` on a HAVING threshold that no small sub-instance can meet —
    // the challenge of Example 5, which `Agg-Basic` handles by keeping the
    // whole group).
    let fallback_target = if class == QueryClass::Aggregate {
        Algorithm::AggBasic
    } else {
        Algorithm::OptSigma
    };
    let (cex, used) = match attempt(algorithm, &mut timings) {
        Ok(cex) => (cex, algorithm),
        Err(RatestError::Unsupported(_) | RatestError::Solver(_))
            if algorithm != fallback_target =>
        {
            options.metrics.counter_inc("explain.fallbacks");
            (attempt(fallback_target, &mut timings)?, fallback_target)
        }
        Err(e) => return Err(e),
    };
    timings.total = timings.raw_eval + timings.provenance + timings.solver;

    Ok(ExplainOutcome {
        counterexample: Some(Box::new(cex)),
        class,
        algorithm_used: used,
        timings,
    })
}

/// Run one aggregate algorithm over the pair's shared aggregate provenance.
#[allow(clippy::too_many_arguments)]
fn aggregate_search(
    algorithm: Algorithm,
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    params: &Params,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    options: &RatestOptions,
) -> Result<(Counterexample, Timings)> {
    let (budget, events, metrics) = (
        options.budget.clone(),
        options.events.clone(),
        options.metrics.clone(),
    );
    match algorithm {
        Algorithm::AggOpt => {
            let optsigma = OptSigmaOptions {
                budget,
                events,
                metrics,
                ..Default::default()
            };
            let options = AggOptOptions {
                optsigma,
                ..Default::default()
            };
            agg_opt_core(q1, q2, plans, db, params, p1, p2, &options)
        }
        Algorithm::AggParam => {
            let options = AggParamOptions {
                budget,
                events,
                metrics,
                ..Default::default()
            };
            agg_param_core(q1, q2, plans, db, params, p1, p2, &options)
        }
        _ => {
            let options = AggBasicOptions {
                budget,
                events,
                metrics,
                ..Default::default()
            };
            agg_basic_core(plans, db, params, p1, p2, &options)
        }
    }
}

/// A reference (instructor) query prepared once per batch: its plan, result
/// and provenance annotation over the hidden instance are computed a single
/// time and shared — via cheap [`Arc`] clones — across every worker grading
/// a submission against it.
///
/// All fields are immutable after [`PreparedReference::prepare`], so the
/// handle is `Clone + Send + Sync` and can be moved freely across a thread
/// pool.
#[derive(Debug, Clone)]
pub struct PreparedReference {
    query: Arc<Query>,
    /// The query compiled against the instance; it runs unchanged on every
    /// sub-instance a search verifies.
    plan: Plan,
    params: Params,
    result: Arc<ResultSet>,
    /// `None` when the reference is an aggregate query (the SPJUD annotator
    /// does not apply); explaining against it then falls back to the
    /// unshared pipeline.
    annotation: Option<Arc<AnnotatedResult>>,
}

impl PreparedReference {
    /// Compile, evaluate and annotate the reference query once.
    pub fn prepare(q1: &Query, db: &Database, params: &Params) -> Result<PreparedReference> {
        PreparedReference::prepare_budgeted(q1, db, params, &Budget::unlimited())
    }

    /// [`PreparedReference::prepare`] under a [`Budget`]: both the
    /// evaluation and the annotation poll the budget inside their row loops.
    pub fn prepare_budgeted(
        q1: &Query,
        db: &Database,
        params: &Params,
        budget: &Budget,
    ) -> Result<PreparedReference> {
        PreparedReference::prepare_instrumented(q1, db, params, budget, &MetricsHandle::none())
    }

    /// [`PreparedReference::prepare_budgeted`] plus telemetry: the reference
    /// evaluation and annotation record their row counters into `metrics`,
    /// and `explain.references_prepared` counts the preparation itself.
    pub fn prepare_instrumented(
        q1: &Query,
        db: &Database,
        params: &Params,
        budget: &Budget,
        metrics: &MetricsHandle,
    ) -> Result<PreparedReference> {
        let interrupt = budget.interrupt();
        let plan = Plan::compile(q1, db)?;
        let result = evaluate_plan(&plan, db, params, &interrupt, metrics)?;
        let annotation = if q1.has_aggregates() {
            None
        } else {
            Some(Arc::new(annotate_plan(
                &plan, db, params, &interrupt, metrics,
            )?))
        };
        metrics.counter_inc("explain.references_prepared");
        Ok(PreparedReference {
            query: Arc::new(q1.clone()),
            plan,
            params: params.clone(),
            result: Arc::new(result),
            annotation,
        })
    }

    /// The reference query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The reference query compiled against the instance it was prepared on.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The reference query's result on the instance it was prepared on.
    pub fn result(&self) -> &ResultSet {
        &self.result
    }

    /// The shared provenance annotation (absent for aggregate references).
    pub fn annotation(&self) -> Option<&AnnotatedResult> {
        self.annotation.as_deref()
    }

    /// The parameter binding the reference was prepared with.
    pub fn params(&self) -> &Params {
        &self.params
    }
}

/// Run RATest for one submission against a [`PreparedReference`], reusing the
/// reference's result and provenance annotation instead of recomputing them
/// per pair. This is the pipeline behind [`crate::session::Session`].
///
/// Monotone pairs take the poly-time DNF path (sharing the reference
/// *evaluation*); other SPJUD pairs run the exact `Basic` scan over
/// difference annotations derived from the shared reference *annotation* via
/// [`difference_of`]; aggregate pairs (no shared artifact applies) and forced
/// algorithms take the unshared pipeline.
pub(crate) fn explain_prepared_impl(
    reference: &PreparedReference,
    q2: &Query,
    db: &Database,
    options: &RatestOptions,
) -> Result<ExplainOutcome> {
    let q1 = reference.query();
    options.budget.check()?;

    // A forced algorithm choice overrides the shared dispatch entirely —
    // otherwise the same options would run different algorithms depending on
    // whether the shared path succeeds.
    if options.algorithm != Algorithm::Auto {
        return explain_unshared(q1, q2, db, options);
    }

    let class = classify_pair(q1, q2);

    // Union compatibility + evaluation of the submission only — the
    // reference plan and result are already on the handle.
    let plans = PairPlans::new(reference.plan.clone(), Plan::compile(q2, db)?);
    plans.check_union_compatible()?;
    let mut timings = Timings::default();
    options.events.emit(ExplainEvent::PhaseStarted {
        phase: Phase::RawEval,
    });
    let start = Instant::now();
    let r2 = evaluate_plan(
        &plans.q2,
        db,
        &reference.params,
        &options.budget.interrupt(),
        &options.metrics,
    )?;
    timings.raw_eval = start.elapsed();
    let r1 = reference.result();
    if r1.set_eq(&r2) {
        let outcome = ExplainOutcome {
            counterexample: None,
            class,
            algorithm_used: Algorithm::Auto,
            timings,
        };
        emit_verdict(options, &outcome);
        return Ok(outcome);
    }

    // Aggregate pairs use dedicated provenance machinery that the shared
    // annotation does not cover; they reuse both evaluations above.
    if class == QueryClass::Aggregate {
        let outcome = dispatch(
            q1,
            q2,
            &plans,
            db,
            &reference.params,
            (r1, &r2),
            class,
            timings,
            options,
        )?;
        emit_verdict(options, &outcome);
        return Ok(outcome);
    }
    let ref_annotation = match reference.annotation() {
        Some(ann) if !q2.has_aggregates() => ann,
        _ => return explain_unshared(q1, q2, db, options),
    };

    if class.is_monotone() {
        match smallest_witness_monotone_with_results(
            q1,
            q2,
            &plans,
            db,
            &reference.params,
            r1,
            &r2,
            Some(ref_annotation),
            &mut timings,
            &candidate_ctx(options),
        ) {
            Ok(cex) => {
                timings.total = timings.raw_eval + timings.provenance + timings.solver;
                let outcome = ExplainOutcome {
                    counterexample: Some(Box::new(cex)),
                    class,
                    algorithm_used: Algorithm::PolytimeMonotone,
                    timings,
                };
                emit_verdict(options, &outcome);
                return Ok(outcome);
            }
            // DNF blow-up or similar: fall through to the solver-backed path.
            Err(RatestError::Unsupported(_)) => {}
            Err(e) => return Err(e),
        }
    }

    // Solver-backed exact scan over both difference directions, with the
    // reference side of each annotation taken from the shared handle.
    options.metrics.counter_inc("explain.annotation_reuse_hits");
    options.events.emit(ExplainEvent::PhaseStarted {
        phase: Phase::Provenance,
    });
    let start = Instant::now();
    let ann_q2 = annotate_plan(
        &plans.q2,
        db,
        &reference.params,
        &options.budget.interrupt(),
        &options.metrics,
    )?;
    let ann_q1_minus_q2 = difference_of(ref_annotation, &ann_q2)?;
    let ann_q2_minus_q1 = difference_of(&ann_q2, ref_annotation)?;
    timings.provenance += start.elapsed();

    let basic_options = BasicOptions {
        strategy: options.strategy,
        budget: options.budget.clone(),
        events: options.events.clone(),
        metrics: options.metrics.clone(),
        ..Default::default()
    };
    match smallest_counterexample_from_annotations(
        q1,
        q2,
        &plans,
        db,
        &reference.params,
        r1,
        &r2,
        &ann_q1_minus_q2,
        &ann_q2_minus_q1,
        &basic_options,
        &mut timings,
    ) {
        Ok(cex) => {
            timings.total = timings.raw_eval + timings.provenance + timings.solver;
            let outcome = ExplainOutcome {
                counterexample: Some(Box::new(cex)),
                class,
                algorithm_used: Algorithm::Basic,
                timings,
            };
            emit_verdict(options, &outcome);
            Ok(outcome)
        }
        // A declined candidate set (e.g. every candidate rejected during
        // materialization) should not sink the submission: fall back to the
        // unshared pipeline, which has its own fallback chain.
        Err(RatestError::Unsupported(_) | RatestError::Solver(_)) => {
            explain_unshared(q1, q2, db, options)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use ratest_ra::builder::{col, lit, rel};
    use ratest_ra::testdata;
    use ratest_storage::Value;

    /// Explain a pair through a fresh session carrying `options`.
    fn explain(
        q1: &Query,
        q2: &Query,
        db: &Database,
        options: &RatestOptions,
    ) -> Result<ExplainOutcome> {
        Session::builder(db.clone())
            .options(options.clone())
            .build()
            .explain_pair(q1, q2)
    }

    #[test]
    fn auto_dispatch_on_the_running_example() {
        let db = testdata::figure1_db();
        let outcome = explain(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &RatestOptions::default(),
        )
        .unwrap();
        assert_eq!(outcome.class, QueryClass::SPJUDStar);
        let cex = outcome.counterexample.unwrap();
        assert_eq!(cex.size(), 3);
    }

    #[test]
    fn equivalent_queries_return_no_counterexample() {
        let db = testdata::figure1_db();
        // Two syntactically different but equivalent queries.
        let qa = rel("Student").select(col("major").eq(lit("CS"))).build();
        let qb = rel("Student")
            .select(col("major").eq(lit("CS")).and(col("name").eq(col("name"))))
            .build();
        let outcome = explain(&qa, &qb, &db, &RatestOptions::default()).unwrap();
        assert!(outcome.counterexample.is_none());
    }

    #[test]
    fn monotone_pairs_use_the_polytime_path() {
        let db = testdata::figure1_db();
        let q1 = rel("Student").project(&["name"]).build();
        let q2 = rel("Student")
            .select(col("major").eq(lit("ECON")))
            .project(&["name"])
            .build();
        let outcome = explain(&q1, &q2, &db, &RatestOptions::default()).unwrap();
        assert_eq!(outcome.algorithm_used, Algorithm::PolytimeMonotone);
        assert_eq!(outcome.counterexample.unwrap().size(), 1);
    }

    #[test]
    fn aggregate_pairs_use_the_heuristic_and_forced_algorithms_work() {
        let db = testdata::figure1_db();
        let outcome = explain(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            &db,
            &RatestOptions::default(),
        )
        .unwrap();
        assert_eq!(outcome.algorithm_used, Algorithm::AggOpt);
        assert!(outcome.counterexample.unwrap().size() <= 2);

        let outcome = explain(
            &testdata::example5_q1(),
            &testdata::example5_q2(),
            &db,
            &RatestOptions {
                algorithm: Algorithm::AggBasic,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.algorithm_used, Algorithm::AggBasic);
        assert_eq!(outcome.counterexample.unwrap().size(), 4);
    }

    #[test]
    fn parameterized_aggregates_dispatch_to_agg_param() {
        let db = testdata::figure1_db();
        let mut params = Params::new();
        params.insert("numCS".into(), Value::Int(3));
        let outcome = explain(
            &testdata::example6_q1(),
            &testdata::example6_q2(),
            &db,
            &RatestOptions {
                parameters: params,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.algorithm_used, Algorithm::AggParam);
        assert!(outcome.counterexample.unwrap().size() <= 2);
    }

    #[test]
    fn forced_basic_and_optsigma_agree_with_each_other() {
        let db = testdata::figure1_db();
        let mut sizes = Vec::new();
        for algorithm in [
            Algorithm::Basic,
            Algorithm::OptSigma,
            Algorithm::PolytimeSpjudStar,
        ] {
            let outcome = explain(
                &testdata::example1_q1(),
                &testdata::example1_q2(),
                &db,
                &RatestOptions {
                    algorithm,
                    ..Default::default()
                },
            )
            .unwrap();
            sizes.push(outcome.counterexample.unwrap().size());
        }
        assert!(sizes.iter().all(|&s| s == sizes[0]), "sizes: {sizes:?}");
    }

    #[test]
    fn pipeline_types_are_cloneable_and_thread_safe() {
        fn assert_shareable<T: Clone + Send + Sync>() {}
        assert_shareable::<RatestOptions>();
        assert_shareable::<ExplainOutcome>();
        assert_shareable::<Counterexample>();
        assert_shareable::<Timings>();
        assert_shareable::<PreparedReference>();
    }

    #[test]
    fn the_shared_path_matches_the_unshared_dispatch_on_the_running_example() {
        // The session's shared-annotation `Basic` and the unshared dispatch
        // for the pair's class (`Optσ` for SPJUD*) are both exact.
        let db = testdata::figure1_db();
        let q1 = testdata::example1_q1();
        let q2 = testdata::example1_q2();
        let shared = explain(&q1, &q2, &db, &RatestOptions::default()).unwrap();
        assert_eq!(shared.algorithm_used, Algorithm::Basic);
        let unshared = explain(
            &q1,
            &q2,
            &db,
            &RatestOptions {
                algorithm: Algorithm::OptSigma,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(unshared.algorithm_used, Algorithm::OptSigma);
        assert_eq!(
            shared.counterexample.unwrap().size(),
            unshared.counterexample.unwrap().size()
        );
    }

    #[test]
    fn a_prepared_reference_detects_agreement_and_monotone_pairs() {
        let db = testdata::figure1_db();
        let q1 = rel("Student").project(&["name"]).build();
        let session = Session::builder(db).build();
        let reference = session.prepare(&q1).unwrap();
        assert!(session.prepared(reference).unwrap().annotation().is_some());

        // Agreement: a syntactically different but equivalent query.
        let same = rel("Student")
            .select(col("name").eq(col("name")))
            .project(&["name"])
            .build();
        let outcome = session.explain(reference, &same).unwrap();
        assert!(outcome.counterexample.is_none());

        // A monotone wrong pair takes the poly-time path on the shared handle.
        let wrong = rel("Student")
            .select(col("major").eq(lit("ECON")))
            .project(&["name"])
            .build();
        let outcome = session.explain(reference, &wrong).unwrap();
        assert_eq!(outcome.algorithm_used, Algorithm::PolytimeMonotone);
        assert_eq!(outcome.counterexample.unwrap().size(), 1);
    }

    #[test]
    fn a_cancelled_run_stops_with_a_typed_error() {
        let db = testdata::figure1_db();
        let options = RatestOptions::default();
        options.budget.cancel();
        let err = explain(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &options,
        )
        .expect_err("the flag was raised before the run started");
        assert_eq!(err, RatestError::Cancelled);

        // The flag is shared by clones — the grading engine raises it from
        // the worker thread while the job thread polls its own clone.
        let budget = Budget::unlimited();
        let observer = budget.clone();
        assert_eq!(observer.check(), Ok(()));
        budget.cancel();
        assert!(observer.is_limited());
        assert_eq!(observer.check(), Err(RatestError::Cancelled));
    }

    #[test]
    fn cancellation_interrupts_the_shared_reference_path() {
        let session = Session::builder(testdata::figure1_db()).build();
        let reference = session.prepare(&testdata::example1_q1()).unwrap();
        let budget = Budget::unlimited();
        budget.cancel();
        let err = session
            .explain_with_budget(reference, &testdata::example1_q2(), &budget)
            .expect_err("cancelled before evaluation");
        assert_eq!(err, RatestError::Cancelled);
    }

    #[test]
    fn timings_accumulate() {
        let mut a = Timings::default();
        let b = Timings {
            raw_eval: Duration::from_millis(1),
            provenance: Duration::from_millis(2),
            solver: Duration::from_millis(3),
            total: Duration::from_millis(6),
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.total, Duration::from_millis(12));
    }
}
