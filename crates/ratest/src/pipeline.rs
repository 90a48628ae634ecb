//! The end-to-end RATest pipeline: classify the query pair, dispatch to the
//! appropriate algorithm, and package the result with timing breakdowns.
//!
//! This is the programmatic equivalent of submitting a query to the RATest
//! web tool (Section 6): the caller provides the reference query, the test
//! query and the hidden test instance; the pipeline either reports that the
//! queries agree on the instance or returns a small counterexample together
//! with the results of both queries on it.

use crate::aggregates::agg_basic::agg_basic_core;
use crate::aggregates::agg_opt::agg_opt_core;
use crate::aggregates::agg_param::agg_param_core;
use crate::basic::basic_core;
use crate::error::{RatestError, Result};
use crate::optsigma::optsigma_core;
use crate::polytime::monotone::{check_applies, smallest_witness_monotone_with_results};
use crate::polytime::spjud_star::spjud_star_core;
use crate::problem::{CandidateEval, Counterexample, EvaluatedPair, PairPlans};
use crate::session::{Budget, EventHandle, ExplainEvent, Phase};
use ratest_provenance::aggprov::{pair_aggregate_provenance, AggregateProvenance};
use ratest_provenance::annotate::{annotate_plan, AnnotatedResult};
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
}

impl Timings {
    /// Total of the above.
    pub fn total(&self) -> Duration {
        self.raw_eval + self.provenance + self.solver
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
        .record_duration("explain.total_ms", outcome.timings.total());
}

/// Candidate-verification context handed to the search algorithms: the
/// request's metrics and interrupt.
fn candidate_ctx(options: &RatestOptions) -> CandidateEval {
    CandidateEval {
        metrics: options.metrics.clone(),
        interrupt: options.budget.interrupt(),
    }
}

/// The reference side of a pair.
#[derive(Clone, Copy)]
enum Reference<'a> {
    /// A query compiled and evaluated with the submission.
    Query(&'a Query),
    /// A reference prepared once: its plan, result and annotation are reused.
    Prepared(&'a PreparedReference),
}

/// Classify the pair of `reference` and `q2`, compile it on `db` and check
/// its union compatibility, then evaluate the queries under `options`'
/// budget and metrics, timed as raw evaluation. A prepared reference brings
/// its plan, result, parameters and annotation, so only `q2` is compiled
/// and evaluated. `then` gets the evaluated pair (`None` when the queries
/// agree on `db`), its class and the timings so far.
fn with_evaluated_pair<T>(
    reference: Reference,
    q2: &Query,
    db: &Database,
    options: &RatestOptions,
    then: impl FnOnce(Option<&EvaluatedPair>, QueryClass, Timings) -> Result<T>,
) -> Result<T> {
    options.budget.check()?;
    let (q1, prepared) = match reference {
        Reference::Query(q1) => (q1, None),
        Reference::Prepared(prepared) => (prepared.query(), Some(prepared)),
    };
    let class = classify_pair(q1, q2);
    let start = Instant::now();
    let plans = match prepared {
        Some(prepared) => PairPlans::new(prepared.plan.clone(), Plan::compile(q2, db)?),
        None => PairPlans::compile(q1, q2, db)?,
    };
    plans.check_union_compatible()?;
    options.events.emit(ExplainEvent::PhaseStarted {
        phase: Phase::RawEval,
    });
    let params = prepared.map_or(&options.parameters, |prepared| &prepared.params);
    let interrupt = options.budget.interrupt();
    let evaluate = |plan| evaluate_plan(plan, db, params, &interrupt, &options.metrics);
    let evaluated_q1;
    let r1 = match prepared {
        Some(prepared) => prepared.result(),
        None => {
            evaluated_q1 = evaluate(&plans.q1)?;
            &evaluated_q1
        }
    };
    let r2 = evaluate(&plans.q2)?;
    let timings = Timings {
        raw_eval: start.elapsed(),
        ..Timings::default()
    };
    let pair = EvaluatedPair {
        q1,
        q2,
        plans: &plans,
        db,
        params,
        r1,
        r2: &r2,
        q1_annotation: prepared.and_then(PreparedReference::annotation),
    };
    then((!r1.set_eq(&r2)).then_some(&pair), class, timings)
}

/// The algorithm to run for `requested`: itself, or for `Auto` the one for
/// the pair's class.
fn resolve(requested: Algorithm, class: QueryClass, q1: &Query, q2: &Query) -> Algorithm {
    match requested {
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
    }
}

/// Run one algorithm on `q1`, `q2` over `db`: compile and evaluate the
/// pair, then run `options.algorithm` (for `Auto`, the one for the pair's
/// class) without falling back when it declines. Returns
/// [`RatestError::QueriesAgreeOnInstance`] when the queries agree on `db`,
/// and the counterexample with its per-phase timings otherwise. This is how
/// the experiments time one algorithm; [`crate::session::Session`] is the
/// way to explain submissions.
pub fn run_algorithm(
    q1: &Query,
    q2: &Query,
    db: &Database,
    options: &RatestOptions,
) -> Result<(Counterexample, Timings)> {
    with_evaluated_pair(
        Reference::Query(q1),
        q2,
        db,
        options,
        |pair, class, mut timings| {
            let algorithm = resolve(options.algorithm, class, q1, q2);
            // The monotone algorithm declines a pair outside its class
            // whether or not the instance distinguishes it.
            if algorithm == Algorithm::PolytimeMonotone {
                check_applies(class)?;
            }
            let pair = pair.ok_or(RatestError::QueriesAgreeOnInstance)?;
            let cex = run_one(algorithm, pair, &mut None, options, &mut timings)?;
            Ok((cex, timings))
        },
    )
}

/// Explain `q2` against a prepared reference: evaluate `q2` on `db` and,
/// when it disagrees with the reference, [`dispatch`]. This is the pipeline
/// behind [`crate::session::Session`].
pub(crate) fn explain(
    reference: &PreparedReference,
    q2: &Query,
    db: &Database,
    options: &RatestOptions,
) -> Result<ExplainOutcome> {
    with_evaluated_pair(
        Reference::Prepared(reference),
        q2,
        db,
        options,
        |pair, class, timings| dispatch(pair, class, timings, options),
    )
}

/// The algorithms to try on `pair`, in order: the one `requested` (for
/// `Auto`, the one for the pair's class), then the general one for the
/// class, `Optσ`, or `Agg-Basic` for an aggregate pair. Under `Auto`, a
/// pair that holds its reference's annotation starts with the algorithms
/// that reuse it: the monotone algorithm for an SPJU pair, then `Basic`.
fn attempts(requested: Algorithm, class: QueryClass, pair: &EvaluatedPair) -> Vec<Algorithm> {
    let aggregate = class == QueryClass::Aggregate;
    let general = if aggregate {
        Algorithm::AggBasic
    } else {
        Algorithm::OptSigma
    };
    let mut attempts = match requested {
        Algorithm::Auto if !aggregate && pair.q1_annotation.is_some() => {
            if class.is_monotone() {
                vec![Algorithm::PolytimeMonotone, Algorithm::Basic]
            } else {
                vec![Algorithm::Basic]
            }
        }
        _ => vec![resolve(requested, class, pair.q1, pair.q2)],
    };
    if attempts.last() != Some(&general) {
        attempts.push(general);
    }
    attempts
}

/// Finish a run of the pipeline: answer a pair that disagrees on its
/// instance ([`first_answer`]), then emit the verdict.
fn dispatch(
    pair: Option<&EvaluatedPair>,
    class: QueryClass,
    mut timings: Timings,
    options: &RatestOptions,
) -> Result<ExplainOutcome> {
    let answer = pair
        .map(|pair| first_answer(pair, class, &mut timings, options))
        .transpose()?;
    let (counterexample, algorithm_used) = match answer {
        Some((cex, algorithm)) => (Some(Box::new(cex)), algorithm),
        None => (None, Algorithm::Auto),
    };
    let outcome = ExplainOutcome {
        counterexample,
        class,
        algorithm_used,
        timings,
    };
    emit_verdict(options, &outcome);
    Ok(outcome)
}

/// Try the algorithms of [`attempts`] on `pair` in turn until one answers,
/// counting each step down the list in `explain.fallbacks`. An algorithm
/// steps down when it declines (provenance too large, unsupported aggregate
/// shape) or when a heuristic finds no acceptable model (e.g. `Agg-Opt` on
/// a HAVING threshold that no small sub-instance can meet, the challenge of
/// Example 5, which `Agg-Basic` handles by keeping the whole group). No
/// attempt evaluates the queries on the instance again; every attempt's
/// time is added to `timings`.
///
/// The aggregate algorithms share one aggregate provenance of the pair,
/// built on first use, so a declined `Agg-Opt` and its `Agg-Basic` fallback
/// build it once between them.
fn first_answer(
    pair: &EvaluatedPair,
    class: QueryClass,
    timings: &mut Timings,
    options: &RatestOptions,
) -> Result<(Counterexample, Algorithm)> {
    let attempts = attempts(options.algorithm, class, pair);
    let (&last, first) = attempts
        .split_last()
        .expect("the general algorithm is last");
    let mut aggregate_provenance = None;
    for &algorithm in first {
        match run_one(algorithm, pair, &mut aggregate_provenance, options, timings) {
            Ok(cex) => return Ok((cex, algorithm)),
            Err(RatestError::Unsupported(_) | RatestError::Solver(_)) => {
                options.metrics.counter_inc("explain.fallbacks");
            }
            Err(e) => return Err(e),
        }
    }
    let cex = run_one(last, pair, &mut aggregate_provenance, options, timings)?;
    Ok((cex, last))
}

/// Run `algorithm` on `pair`, already known to disagree on its instance,
/// adding each phase's time to `timings`. The aggregate algorithms read the
/// pair's `aggregate_provenance`, built here on first use.
fn run_one(
    algorithm: Algorithm,
    pair: &EvaluatedPair,
    aggregate_provenance: &mut Option<(AggregateProvenance, AggregateProvenance)>,
    options: &RatestOptions,
    timings: &mut Timings,
) -> Result<Counterexample> {
    options.budget.check()?;
    let aggregate = matches!(
        algorithm,
        Algorithm::AggBasic | Algorithm::AggParam | Algorithm::AggOpt
    );
    if aggregate && aggregate_provenance.is_none() {
        let start = Instant::now();
        *aggregate_provenance = Some(pair_aggregate_provenance(
            pair.q1,
            pair.q2,
            pair.db,
            pair.params,
            &options.budget.interrupt(),
            &options.metrics,
        )?);
        timings.provenance += start.elapsed();
    }
    let before = *timings;
    let start = Instant::now();
    let result = match algorithm {
        Algorithm::Basic => basic_core(pair, options, timings),
        Algorithm::OptSigma => optsigma_core(pair, options, |_| true, timings),
        Algorithm::PolytimeMonotone => {
            smallest_witness_monotone_with_results(pair, &candidate_ctx(options), timings)
        }
        Algorithm::PolytimeSpjudStar => spjud_star_core(pair, &candidate_ctx(options), timings),
        Algorithm::AggBasic | Algorithm::AggParam | Algorithm::AggOpt => {
            let (p1, p2) = aggregate_provenance.as_ref().expect("built above");
            let core = match algorithm {
                Algorithm::AggBasic => agg_basic_core,
                Algorithm::AggParam => agg_param_core,
                _ => agg_opt_core,
            };
            core(pair, p1, p2, options, timings)
        }
        Algorithm::Auto => unreachable!("Auto is resolved before an algorithm runs"),
    };
    if result.is_err() {
        // A declined attempt's time is search time.
        *timings = before;
        timings.solver += start.elapsed();
    }
    result
}

/// A reference (instructor) query prepared once per batch: its plan, result
/// and provenance annotation over the hidden instance are computed a single
/// time and shared — via cheap [`Arc`] clones — across every worker grading
/// a submission against it.
///
/// All fields are immutable after
/// [`PreparedReference::prepare_instrumented`], so the handle is
/// `Clone + Send + Sync` and can be moved freely across a thread pool.
#[derive(Debug, Clone)]
pub struct PreparedReference {
    query: Arc<Query>,
    /// The query compiled against the instance; it runs unchanged on every
    /// sub-instance a search verifies.
    plan: Plan,
    params: Params,
    result: Arc<ResultSet>,
    /// `None` when the reference is an aggregate query (the SPJUD annotator
    /// does not apply); the aggregate algorithms build their own provenance.
    annotation: Option<Arc<AnnotatedResult>>,
}

impl PreparedReference {
    /// Compile, evaluate and annotate the reference query once, under
    /// `budget` (both the evaluation and the annotation poll it inside their
    /// row loops). Both record their row counters into `metrics`, and
    /// `explain.references_prepared` counts the preparation itself.
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
        // The session's `Auto` (`Basic` over the prepared annotation) and
        // the algorithm for the pair's class (`Optσ` for SPJUD*) are both
        // exact.
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
        assert_eq!(shared.class, unshared.class);
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
    fn every_forced_algorithm_runs_under_the_callers_budget_and_metrics() {
        use ratest_datagen::{tpch_database, TpchConfig};
        use ratest_queries::tpch_queries;
        use ratest_telemetry::MetricsRegistry;

        // Each query is run against itself, so the pair's evaluation is the
        // only work a run does before it reports agreement.
        let small = testdata::figure1_db();
        let large = tpch_database(&TpchConfig::with_scale(0.0003));
        let spju_small = rel("Student").project(&["name"]).build();
        let spju_large = rel("lineitem").project(&["l_orderkey"]).build();
        let (aggregate_small, aggregate_large) = (testdata::example4_q1(), tpch_queries::q4());
        for (algorithm, small_query, large_query) in [
            (Algorithm::Basic, &spju_small, &spju_large),
            (Algorithm::OptSigma, &spju_small, &spju_large),
            (Algorithm::PolytimeMonotone, &spju_small, &spju_large),
            (Algorithm::PolytimeSpjudStar, &spju_small, &spju_large),
            (Algorithm::AggBasic, &aggregate_small, &aggregate_large),
            (Algorithm::AggParam, &aggregate_small, &aggregate_large),
            (Algorithm::AggOpt, &aggregate_small, &aggregate_large),
        ] {
            // A cancelled budget stops the run before anything is evaluated.
            let cancelled = RatestOptions {
                algorithm,
                ..Default::default()
            };
            cancelled.budget.cancel();
            assert_eq!(
                run_algorithm(small_query, small_query, &small, &cancelled).map(|_| ()),
                Err(RatestError::Cancelled),
                "{algorithm:?}"
            );

            // A one-step quota: the run's opening check takes the step. On
            // the small instance the evaluator's strided polling never
            // fires, so the run gets as far as reporting agreement; on the
            // large one the evaluation itself polls and exhausts the quota.
            let one_step = |query: &Query, db: &Database| {
                let options = RatestOptions {
                    algorithm,
                    budget: Budget::unlimited().with_step_quota(1),
                    ..Default::default()
                };
                run_algorithm(query, query, db, &options).map(|_| ())
            };
            assert_eq!(
                one_step(small_query, &small),
                Err(RatestError::QueriesAgreeOnInstance),
                "{algorithm:?}"
            );
            assert_eq!(
                one_step(large_query, &large),
                Err(RatestError::StepQuotaExhausted),
                "{algorithm:?}"
            );

            // A live budget: the pair's evaluation counts into the caller's
            // metrics.
            let registry = Arc::new(MetricsRegistry::new());
            let live = RatestOptions {
                algorithm,
                metrics: MetricsHandle::new(registry.clone()),
                ..Default::default()
            };
            assert_eq!(
                run_algorithm(small_query, small_query, &small, &live).map(|_| ()),
                Err(RatestError::QueriesAgreeOnInstance),
                "{algorithm:?}"
            );
            assert_eq!(registry.counter("ra.eval.calls"), 2, "{algorithm:?}");
        }
    }
}
