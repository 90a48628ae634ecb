//! The session-oriented RATest API: durable state, unified budgets, typed
//! progress events.
//!
//! The paper's RATest deployment ran as a long-lived service that students
//! queried all semester. A [`Session`] is that service's core:
//!
//! * it **owns the database** and a cache of [`PreparedReference`]s keyed by
//!   canonical fingerprint, so preparation cost is paid once per reference
//!   per session, however many requests follow;
//! * a unified [`Budget`] — wall-clock deadline + deterministic step quota +
//!   cooperative cancellation — is threaded from the session through every
//!   algorithm loop *and into the evaluator/annotator inner row loops* (via
//!   [`ratest_ra::interrupt`]), so a single flooding evaluation respects
//!   the deadline;
//! * an [`EventSink`] receives typed progress events ([`ExplainEvent`]):
//!   phase transitions, per-candidate progress, solver statistics and the
//!   final verdict — the feed a web UI or the `grade serve` daemon streams
//!   to clients.
//!
//! ```
//! use ratest_core::session::Session;
//! use ratest_ra::testdata;
//!
//! let session = Session::builder(testdata::figure1_db()).build();
//! let reference = session.prepare(&testdata::example1_q1()).unwrap();
//! let outcome = session.explain(reference, &testdata::example1_q2()).unwrap();
//! assert_eq!(outcome.counterexample.unwrap().size(), 3);
//! ```

use crate::error::{RatestError, Result};
use crate::pipeline::{
    explain_prepared_impl, Algorithm, ExplainOutcome, PreparedReference, RatestOptions,
    SolverStrategy,
};
use ratest_ra::ast::Query;
use ratest_ra::classify::QueryClass;
use ratest_ra::eval::Params;
use ratest_ra::interrupt::{Interrupt, InterruptHook, Interrupted};
use ratest_storage::{Database, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------------

/// A deterministic step-quota counter shared by every clone of a [`Budget`].
#[derive(Debug)]
struct StepQuota {
    used: AtomicU64,
    limit: u64,
}

/// The unified resource budget of a run: cooperative cancellation, an
/// optional wall-clock deadline, and an optional deterministic step quota.
///
/// Every algorithm loop polls [`Budget::check`] at its boundaries, and
/// [`Budget::interrupt`] hands the same state to the evaluator/annotator
/// inner loops, so *all* layers observe one limit.
///
/// Clones share state: the cancel flag and the step counter are behind
/// [`Arc`]s, and the deadline is an absolute [`Instant`] fixed when the
/// budget is built. The default budget is unlimited.
///
/// *Steps* are budget polls — one per candidate tuple / candidate group /
/// solve attempt at the algorithm layer, plus one per
/// [`ratest_ra::interrupt::Pacer::STRIDE`] rows inside evaluation. A quota
/// is therefore a clock-free, platform-stable work bound, which is what the
/// deterministic tests and fairness throttling want; wall-clock limits
/// should use a deadline instead.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    cancel: Arc<AtomicBool>,
    deadline: Option<Instant>,
    steps: Option<Arc<StepQuota>>,
}

impl Budget {
    /// An unlimited budget (no deadline, no quota, not cancelled).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Limit the run to `timeout` of wall-clock time from *now*.
    ///
    /// A budget is not only for search work: the serve daemon uses
    /// `Budget::unlimited().with_deadline(t)` as an **admission timer** —
    /// polling it while waiting for a free worker slot, and answering with a
    /// rejected-overloaded verdict once it expires, so a flooded daemon
    /// degrades to fast rejections instead of unbounded queueing. A zero
    /// `timeout` expires on the first poll ([`Budget::poll`] treats
    /// "now == deadline" as exceeded), which such callers rely on.
    pub fn with_deadline(mut self, timeout: Duration) -> Budget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Limit the run to an absolute deadline.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Limit the run to `limit` budget polls (see the type docs for what a
    /// step is).
    pub fn with_step_quota(mut self, limit: u64) -> Budget {
        self.steps = Some(Arc::new(StepQuota {
            used: AtomicU64::new(0),
            limit,
        }));
        self
    }

    /// Request cancellation. Every clone of the budget observes it.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The absolute deadline, when one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether any limit (deadline, quota, or a raised flag) is attached —
    /// `false` exactly for (un-cancelled) [`Budget::unlimited`].
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.steps.is_some() || self.is_cancelled()
    }

    /// Poll the budget without consuming a step unless a quota is set.
    /// Returns the reason the run should stop, if any. Precedence:
    /// cancellation, then deadline, then quota.
    pub fn poll(&self) -> Option<Interrupted> {
        if self.is_cancelled() {
            return Some(Interrupted::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Interrupted::DeadlineExceeded);
            }
        }
        if let Some(quota) = &self.steps {
            if quota.used.fetch_add(1, Ordering::Relaxed) >= quota.limit {
                return Some(Interrupted::StepQuotaExhausted);
            }
        }
        None
    }

    /// Poll and convert to the typed error the pipeline propagates — the
    /// one-liner every algorithm loop calls.
    pub fn check(&self) -> Result<()> {
        match self.poll() {
            None => Ok(()),
            Some(reason) => Err(RatestError::from_interrupted(reason)),
        }
    }

    /// This budget as an evaluator-layer interrupt. Always hooked — even a
    /// currently-unlimited budget's cancel flag can be raised later by
    /// another clone, and the hook costs one atomic load per
    /// [`ratest_ra::interrupt::Pacer::STRIDE`] rows.
    pub fn interrupt(&self) -> Interrupt {
        Interrupt::hooked(Arc::new(self.clone()))
    }
}

impl InterruptHook for Budget {
    fn interrupted(&self) -> Option<Interrupted> {
        self.poll()
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// The pipeline phases announced by [`ExplainEvent::PhaseStarted`], mirroring
/// the timing components of [`crate::pipeline::Timings`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Evaluating the raw queries.
    RawEval,
    /// Computing provenance annotations.
    Provenance,
    /// Constraint solving over candidate witnesses.
    Solve,
}

impl Phase {
    /// Stable lowercase name used by serializers (`raw-eval`, `provenance`,
    /// `solve`).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::RawEval => "raw-eval",
            Phase::Provenance => "provenance",
            Phase::Solve => "solve",
        }
    }
}

/// A typed progress event emitted while explaining one query pair.
///
/// Events carry only **deterministic** facts (no wall-clock readings): a
/// scripted conversation replayed against `grade serve` produces the same
/// event stream byte for byte, which the protocol goldens pin.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplainEvent {
    /// A pipeline phase began.
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// One candidate (differing output tuple, or candidate group for the
    /// aggregate algorithms) was processed.
    CandidateChecked {
        /// 0-based index of the candidate in the scan order.
        index: usize,
        /// Size of the best counterexample found so far, if any.
        best_size: Option<usize>,
    },
    /// A solver invocation finished.
    SolverStats {
        /// Number of tuple variables in the objective.
        variables: usize,
        /// Number of true variables in the returned model (`None` when the
        /// instance was unsatisfiable).
        solution_size: Option<usize>,
    },
    /// The run finished with a verdict.
    Verdict {
        /// Whether the queries agree on the instance.
        agrees: bool,
        /// Size of the counterexample when they disagree.
        counterexample_size: Option<usize>,
        /// The query class the pair was classified into.
        class: QueryClass,
        /// Which algorithm produced the outcome.
        algorithm: Algorithm,
    },
    /// Repair started: candidate edits were enumerated and ranked.
    RepairStarted {
        /// Number of candidate edits in the ranked queue.
        candidates: usize,
    },
    /// One repair candidate was validated.
    RepairCandidateChecked {
        /// 0-based index of the candidate in the ranked order.
        index: usize,
        /// Whether the candidate was confirmed as a suggestion.
        confirmed: bool,
    },
    /// Repair finished.
    RepairFinished {
        /// Number of confirmed suggestions.
        suggestions: usize,
        /// Number of candidates validated before stopping.
        tried: usize,
    },
}

/// A consumer of [`ExplainEvent`]s. Implementations must be cheap and
/// non-blocking relative to the pipeline (events are emitted from the hot
/// loops) and are called from whichever thread runs the explanation.
pub trait EventSink: Send + Sync {
    /// Receive one event.
    fn emit(&self, event: &ExplainEvent);
}

/// A shareable, possibly-absent event sink; the `None` default makes event
/// emission a single branch for callers that do not listen.
#[derive(Clone, Default)]
pub struct EventHandle(Option<Arc<dyn EventSink>>);

impl EventHandle {
    /// A handle that drops every event.
    pub fn none() -> EventHandle {
        EventHandle(None)
    }

    /// Wrap a sink.
    pub fn new(sink: Arc<dyn EventSink>) -> EventHandle {
        EventHandle(Some(sink))
    }

    /// Whether a sink is attached.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Emit an event (no-op without a sink).
    pub fn emit(&self, event: ExplainEvent) {
        if let Some(sink) = &self.0 {
            sink.emit(&event);
        }
    }
}

impl std::fmt::Debug for EventHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "EventHandle(active)"
        } else {
            "EventHandle(none)"
        })
    }
}

/// An [`EventSink`] that records every event — the test/debug consumer.
#[derive(Debug, Default)]
pub struct CollectingSink(Mutex<Vec<ExplainEvent>>);

impl CollectingSink {
    /// A fresh, empty sink (wrap in an [`Arc`] to attach it).
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Drain the recorded events.
    pub fn take(&self) -> Vec<ExplainEvent> {
        std::mem::take(&mut self.0.lock().expect("collecting sink poisoned"))
    }
}

impl EventSink for CollectingSink {
    fn emit(&self, event: &ExplainEvent) {
        if let Ok(mut events) = self.0.lock() {
            events.push(event.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A handle to a reference query prepared inside a [`Session`]. Copyable and
/// meaningful only for the session that returned it; the value is the
/// reference's canonical fingerprint, so preparing an
/// equivalent-after-normalization query returns the *same* handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReferenceHandle(u64);

impl ReferenceHandle {
    /// The canonical fingerprint of the prepared reference.
    pub fn fingerprint(&self) -> u64 {
        self.0
    }
}

/// Builds a [`Session`]. All knobs default to the values of
/// [`RatestOptions::default`] plus an unlimited [`Budget`] and no event sink.
#[derive(Debug)]
pub struct SessionBuilder {
    db: Database,
    options: RatestOptions,
}

impl SessionBuilder {
    /// Start building a session over the given hidden instance.
    pub fn new(db: Database) -> SessionBuilder {
        SessionBuilder {
            db,
            options: RatestOptions::default(),
        }
    }

    /// Force a top-level algorithm (default: [`Algorithm::Auto`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> SessionBuilder {
        self.options.algorithm = algorithm;
        self
    }

    /// Solver strategy for the SPJUD algorithms.
    pub fn strategy(mut self, strategy: SolverStrategy) -> SessionBuilder {
        self.options.strategy = strategy;
        self
    }

    /// Whether `Optσ` pushes the tuple-equality selection down.
    pub fn selection_pushdown(mut self, on: bool) -> SessionBuilder {
        self.options.selection_pushdown = on;
        self
    }

    /// Replace the whole parameter binding λ.
    pub fn params(mut self, params: Params) -> SessionBuilder {
        self.options.parameters = params;
        self
    }

    /// Bind a single parameter.
    pub fn param(mut self, name: impl Into<String>, value: impl Into<Value>) -> SessionBuilder {
        self.options.parameters.insert(name.into(), value.into());
        self
    }

    /// The session-wide default budget (per-request overrides go through
    /// [`Session::explain_with_budget`]).
    pub fn budget(mut self, budget: Budget) -> SessionBuilder {
        self.options.budget = budget;
        self
    }

    /// Attach an event sink.
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> SessionBuilder {
        self.options.events = EventHandle::new(sink);
        self
    }

    /// Attach a metrics registry: every explain run on the session folds its
    /// evaluator, provenance and solver counters into it.
    pub fn metrics(mut self, registry: Arc<ratest_telemetry::MetricsRegistry>) -> SessionBuilder {
        self.options.metrics = ratest_telemetry::MetricsHandle::new(registry);
        self
    }

    /// Start from fully spelled-out options (the engine configuration path).
    pub fn options(mut self, options: RatestOptions) -> SessionBuilder {
        self.options = options;
        self
    }

    /// Finish: the session takes ownership of the database.
    pub fn build(self) -> Session {
        Session {
            db: Arc::new(self.db),
            options: self.options,
            references: RwLock::new(HashMap::new()),
        }
    }
}

/// A durable explanation session: one hidden database instance, a cache of
/// prepared references, one [`Budget`]/[`EventSink`] configuration. Shared
/// freely across threads (`&Session` methods only).
///
/// See the [module docs](self) for the full design rationale.
#[derive(Debug)]
pub struct Session {
    db: Arc<Database>,
    options: RatestOptions,
    references: RwLock<HashMap<u64, Arc<PreparedReference>>>,
}

impl Session {
    /// Start building a session over `db`.
    pub fn builder(db: Database) -> SessionBuilder {
        SessionBuilder::new(db)
    }

    /// The hidden instance this session explains against.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The session's base options (budget and event sink included).
    pub fn options(&self) -> &RatestOptions {
        &self.options
    }

    /// The session-wide default budget.
    pub fn budget(&self) -> &Budget {
        &self.options.budget
    }

    /// Evaluate + annotate a reference query once, caching the prepared
    /// state under its canonical fingerprint. Preparing an equivalent query
    /// again is a cache hit and returns the same handle.
    pub fn prepare(&self, reference: &Query) -> Result<ReferenceHandle> {
        let fingerprint = ratest_ra::canonical::fingerprint(reference);
        if let Ok(refs) = self.references.read() {
            if refs.contains_key(&fingerprint) {
                return Ok(ReferenceHandle(fingerprint));
            }
        }
        let prepared = Arc::new(PreparedReference::prepare_instrumented(
            reference,
            &self.db,
            &self.options.parameters,
            &self.options.budget,
            &self.options.metrics,
        )?);
        self.references
            .write()
            .expect("session reference cache poisoned")
            .entry(fingerprint)
            .or_insert(prepared);
        Ok(ReferenceHandle(fingerprint))
    }

    /// The prepared reference behind a handle, if this session prepared it.
    pub fn prepared(&self, handle: ReferenceHandle) -> Option<Arc<PreparedReference>> {
        self.references.read().ok()?.get(&handle.0).cloned()
    }

    /// Number of distinct references prepared so far.
    pub fn prepared_references(&self) -> usize {
        self.references.read().map(|r| r.len()).unwrap_or(0)
    }

    /// Explain one submission against a prepared reference under the
    /// session budget.
    pub fn explain(&self, reference: ReferenceHandle, query: &Query) -> Result<ExplainOutcome> {
        self.explain_with_budget(reference, query, &self.options.budget)
    }

    /// Explain one submission under a per-request budget override (the
    /// grading engine's per-job deadline path). The session's event sink
    /// still applies.
    pub fn explain_with_budget(
        &self,
        reference: ReferenceHandle,
        query: &Query,
        budget: &Budget,
    ) -> Result<ExplainOutcome> {
        self.explain_with(reference, query, budget, self.options.events.clone())
    }

    /// Explain one submission under per-request budget *and* event-sink
    /// overrides. A per-request sink is how a streaming server attributes
    /// events to the right request even when an earlier job's thread is
    /// still unwinding: each request gets its own sink object, and a stale
    /// thread keeps emitting into *its* (retired) sink rather than into
    /// whatever request is current.
    pub fn explain_with(
        &self,
        reference: ReferenceHandle,
        query: &Query,
        budget: &Budget,
        events: EventHandle,
    ) -> Result<ExplainOutcome> {
        let prepared = self
            .prepared(reference)
            .ok_or_else(|| RatestError::Unsupported("unknown reference handle".into()))?;
        let mut options = self.options.clone();
        options.budget = budget.clone();
        options.events = events;
        explain_prepared_impl(&prepared, query, &self.db, &options)
    }

    /// Explain an ad-hoc query pair. The reference is prepared through the
    /// session cache — so the shared-annotation path applies and the
    /// prepared state is *retained* for future calls, like any other
    /// [`Session::prepare`].
    pub fn explain_pair(&self, q1: &Query, q2: &Query) -> Result<ExplainOutcome> {
        let handle = self.prepare(q1)?;
        self.explain(handle, q2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::testdata;

    #[test]
    fn sessions_prepare_once_and_explain_many() {
        let session = Session::builder(testdata::figure1_db()).build();
        let reference = session.prepare(&testdata::example1_q1()).unwrap();
        assert_eq!(session.prepared_references(), 1);

        // Re-preparing the same (even re-built) reference is a cache hit.
        let again = session.prepare(&testdata::example1_q1()).unwrap();
        assert_eq!(reference, again);
        assert_eq!(session.prepared_references(), 1);

        let outcome = session
            .explain(reference, &testdata::example1_q2())
            .unwrap();
        assert_eq!(outcome.counterexample.unwrap().size(), 3);

        // The correct query agrees.
        let outcome = session
            .explain(reference, &testdata::example1_q1())
            .unwrap();
        assert!(outcome.counterexample.is_none());
    }

    #[test]
    fn session_outcomes_match_the_unshared_dispatch() {
        // Auto takes `Basic` over the shared annotation; forcing `Optσ` (the
        // unshared dispatch for SPJUD*) runs the other exact algorithm.
        let db = testdata::figure1_db();
        let shared = Session::builder(db.clone())
            .build()
            .explain_pair(&testdata::example1_q1(), &testdata::example1_q2())
            .unwrap();
        let unshared = Session::builder(db)
            .algorithm(Algorithm::OptSigma)
            .build()
            .explain_pair(&testdata::example1_q1(), &testdata::example1_q2())
            .unwrap();
        assert_eq!(
            shared.counterexample.unwrap().size(),
            unshared.counterexample.unwrap().size()
        );
        assert_eq!(shared.class, unshared.class);
    }

    #[test]
    fn budgets_cancel_deadline_and_quota() {
        // Cancellation.
        let budget = Budget::unlimited();
        assert!(budget.check().is_ok());
        budget.cancel();
        assert_eq!(budget.check(), Err(RatestError::Cancelled));

        // An expired deadline.
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(budget.check(), Err(RatestError::DeadlineExceeded));

        // A step quota: the N+1-th poll fails, shared across clones.
        let budget = Budget::unlimited().with_step_quota(2);
        let clone = budget.clone();
        assert!(budget.check().is_ok());
        assert!(clone.check().is_ok());
        assert_eq!(budget.check(), Err(RatestError::StepQuotaExhausted));
    }

    #[test]
    fn a_session_budget_interrupts_the_whole_pipeline() {
        let session = Session::builder(testdata::figure1_db())
            .budget(Budget::unlimited().with_step_quota(0))
            .build();
        let err = session
            .explain_pair(&testdata::example1_q1(), &testdata::example1_q2())
            .expect_err("a zero quota stops before any work");
        assert_eq!(err, RatestError::StepQuotaExhausted);
    }

    #[test]
    fn events_stream_phases_candidates_solver_stats_and_verdict() {
        let sink = Arc::new(CollectingSink::new());
        let session = Session::builder(testdata::figure1_db())
            .event_sink(sink.clone())
            .build();
        let reference = session.prepare(&testdata::example1_q1()).unwrap();
        session
            .explain(reference, &testdata::example1_q2())
            .unwrap();
        let events = sink.take();
        assert!(
            events.iter().any(|e| matches!(
                e,
                ExplainEvent::PhaseStarted {
                    phase: Phase::RawEval
                }
            )),
            "{events:?}"
        );
        assert!(events.iter().any(|e| matches!(
            e,
            ExplainEvent::PhaseStarted {
                phase: Phase::Solve
            }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, ExplainEvent::CandidateChecked { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ExplainEvent::SolverStats { .. })));
        match events.last() {
            Some(ExplainEvent::Verdict {
                agrees: false,
                counterexample_size: Some(3),
                ..
            }) => {}
            other => panic!("expected a final wrong-verdict event, got {other:?}"),
        }
    }

    #[test]
    fn sessions_are_shareable_across_threads() {
        let session = Arc::new(Session::builder(testdata::figure1_db()).build());
        let reference = session.prepare(&testdata::example1_q1()).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let session = session.clone();
                std::thread::spawn(move || {
                    session
                        .explain(reference, &testdata::example1_q2())
                        .unwrap()
                        .counterexample
                        .unwrap()
                        .size()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 3);
        }
    }

    #[test]
    fn unknown_handles_are_typed_errors() {
        let session = Session::builder(testdata::figure1_db()).build();
        let bogus = ReferenceHandle(0xdead_beef);
        assert!(session.explain(bogus, &testdata::example1_q2()).is_err());
        assert!(session.prepared(bogus).is_none());
    }

    #[test]
    fn an_expired_deadline_stops_a_group_by_reference() {
        // Regression for the aggregate-class-parity gap: aggregate provenance
        // must honour the budget deadline inside its own loops, so preparing
        // or explaining a GROUP BY reference under an already-expired budget
        // fails with DeadlineExceeded instead of running to completion.
        let session = Session::builder(testdata::figure1_db())
            .budget(Budget::unlimited().with_deadline(Duration::ZERO))
            .build();
        let err = session
            .explain_pair(&testdata::example5_q1(), &testdata::example5_q2())
            .expect_err("the deadline expired before the run started");
        assert_eq!(err, RatestError::DeadlineExceeded);
    }

    #[test]
    fn session_metrics_capture_the_whole_stack() {
        let registry = Arc::new(ratest_telemetry::MetricsRegistry::new());
        let session = Session::builder(testdata::figure1_db())
            .metrics(registry.clone())
            .build();
        let reference = session.prepare(&testdata::example1_q1()).unwrap();
        session
            .explain(reference, &testdata::example1_q2())
            .unwrap();

        assert_eq!(registry.counter("explain.runs"), 1);
        assert_eq!(registry.counter("explain.counterexamples"), 1);
        assert_eq!(registry.counter("explain.references_prepared"), 1);
        assert_eq!(registry.counter("explain.annotation_reuse_hits"), 1);
        assert!(registry.counter("ra.eval.rows_scanned") > 0);
        assert!(registry.counter("provenance.annotate.rows") > 0);
        assert!(registry.counter("solver.calls") > 0);
        assert!(registry.counter("solver.decisions") + registry.counter("solver.propagations") > 0);
        // Volatile durations live apart from the deterministic counters.
        let snap = registry.snapshot();
        assert!(snap.durations_ms.contains_key("explain.total_ms"));
        assert!(!snap.to_json(false).contains("volatile"));
    }

    #[test]
    fn aggregate_explains_record_group_counters() {
        let registry = Arc::new(ratest_telemetry::MetricsRegistry::new());
        let session = Session::builder(testdata::figure1_db())
            .metrics(registry.clone())
            .build();
        session
            .explain_pair(&testdata::example5_q1(), &testdata::example5_q2())
            .unwrap();
        assert!(registry.counter("provenance.aggprov.calls") >= 2);
        assert!(registry.counter("provenance.aggprov.groups") > 0);
    }
}
