//! The batch grading engine, rebuilt on the session API: one warm
//! [`Session`] per grading context carries the prepared reference,
//! fingerprint dedup + the cross-batch verdict cache answer repeats, and a
//! bounded worker pool enforces per-job [`Budget`]s (deadline + cooperative
//! cancellation — a timed-out job is asked to stop, not just abandoned, and
//! the deadline reaches *into* evaluator row loops via the budget hook).

use crate::api::{ExplainRequest, ExplainResponse};
use crate::ingest::{IngestEntry, IngestedCohort};
use crate::report::{BatchReport, BatchStats};
use crate::submission::{group_by_fingerprint, Submission};
use crate::verdict::{GradedSubmission, Verdict};
use ratest_core::pipeline::RatestOptions;
use ratest_core::session::{Budget, ReferenceHandle, Session};
use ratest_core::RatestError;
use ratest_ra::ast::Query;
use ratest_repair::RepairOptions;
use ratest_storage::Database;
use ratest_telemetry::{MetricsHandle, MetricsRegistry, MetricsSnapshot};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering from poisoning. A panicking worker already
/// surfaces its own failure as a [`Verdict::Error`] (via `catch_unwind` in
/// `grade_one`); the cache/session maps it touched are plain inserts that
/// are either fully applied or not at all, so the data behind a poisoned
/// lock is still consistent. Propagating the poison instead would let one
/// failed request take down every subsequent one — fatal for a daemon.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of the grading engine.
#[derive(Debug, Clone)]
pub struct GraderConfig {
    /// Number of worker threads grading distinct submissions concurrently.
    /// `1` reproduces the sequential loop (the benchmark baseline).
    pub workers: usize,
    /// Wall-clock budget per distinct submission; [`Duration::ZERO`]
    /// disables the timeout (jobs then run inline on the worker).
    pub per_job_timeout: Duration,
    /// Pipeline options forwarded to every explanation run.
    pub options: RatestOptions,
    /// When set, every [`Verdict::Wrong`] is enriched with ranked repair
    /// suggestions (see [`ratest_repair`]). `None` keeps grading
    /// suggestion-free; per-request opt-in is available through
    /// [`Grader::respond_prepared_with`].
    pub repair: Option<RepairOptions>,
    /// Maximum number of warm per-context sessions held at once; `None` is
    /// unbounded (the batch default). When the cap is exceeded the
    /// least-recently-used session is evicted (`grader.session_evictions`
    /// counts them, `grader.warm_sessions` tracks the real current size).
    /// A [`GradeContext`] handle whose session was evicted answers
    /// [`GraderError::UnknownContext`] — re-prepare it to warm it again.
    pub warm_cap: Option<usize>,
}

impl Default for GraderConfig {
    fn default() -> Self {
        GraderConfig {
            workers: 4,
            per_job_timeout: Duration::from_secs(30),
            options: RatestOptions::default(),
            repair: None,
            warm_cap: None,
        }
    }
}

/// Fatal engine errors. Per-submission failures are *not* errors — they
/// surface as [`Verdict::Error`] so one bad submission cannot sink a batch.
#[derive(Debug)]
pub enum GraderError {
    /// The reference query itself failed to evaluate or annotate; nothing
    /// can be graded against it.
    Reference(RatestError),
    /// A [`GradeContext`] handle from a different engine (or a bug) was
    /// presented to [`Grader::respond_prepared`].
    UnknownContext,
}

impl std::fmt::Display for GraderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraderError::Reference(e) => write!(f, "reference query is not gradable: {e}"),
            GraderError::UnknownContext => {
                write!(f, "unknown grading context (prepare it first)")
            }
        }
    }
}

/// A handle to a warm grading context — the `(reference, hidden instance,
/// options)` identity hash. Computing it walks the whole database, so
/// request-per-call servers obtain it once via [`Grader::prepare_context`]
/// and answer every subsequent request through
/// [`Grader::respond_prepared`] without re-hashing the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GradeContext(u64);

impl GradeContext {
    /// The raw context key — the same value persisted in
    /// [`crate::store::CacheEntry::context`], so servers can filter a
    /// loaded store down to the entries that belong to this context.
    pub fn key(&self) -> u64 {
        self.0
    }
}

impl std::error::Error for GraderError {}

/// The batch grading engine. One instance carries a fingerprint → verdict
/// cache *and* a warm [`Session`] per grading context across batches, so
/// regrading a class after a deadline extension only pays for the new
/// distinct submissions — and never re-prepares a reference it has already
/// seen.
#[derive(Debug)]
pub struct Grader {
    config: GraderConfig,
    /// Keyed by `(grading context, submission fingerprint)` — the context
    /// covers the reference query, the hidden instance and the pipeline
    /// options, so one engine can serve multiple assignments without
    /// leaking verdicts between them.
    cache: Mutex<HashMap<(u64, u64), Verdict>>,
    /// Warm per-context sessions (context key → prepared session, with an
    /// access stamp for LRU eviction under `config.warm_cap`). This is what
    /// makes a served re-grade — and the second batch of a long-lived
    /// daemon — skip reference preparation entirely.
    sessions: Mutex<SessionLru>,
    /// Counterexample searches currently running, keyed like the cache.
    /// Concurrent requests for the same key single-flight: one leader runs
    /// the search, everyone else waits on the [`Flight`] and reuses the
    /// verdict — so a duplicate flood costs exactly one search and the
    /// cache-hit/miss counters stay deterministic under concurrency.
    inflight: Mutex<HashMap<(u64, u64), Arc<Flight>>>,
    /// One registry for the whole engine: grading-layer counters
    /// (`grader.searches`, `grader.cache_hits`, …) land next to the
    /// pipeline/solver/evaluator counters because the same registry is wired
    /// into every session via `config.options.metrics`.
    metrics: Arc<MetricsRegistry>,
}

/// The warm-session map with clock-stamped LRU bookkeeping. Eviction is an
/// O(n) min-stamp scan — n is bounded by `warm_cap`, which is small (it
/// exists precisely because sessions are big).
#[derive(Debug, Default)]
struct SessionLru {
    map: HashMap<u64, (Arc<GradingSession>, u64)>,
    clock: u64,
}

impl SessionLru {
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Look up a context and mark it most-recently-used.
    fn touch(&mut self, key: u64) -> Option<Arc<GradingSession>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&key).map(|slot| {
            slot.1 = clock;
            slot.0.clone()
        })
    }

    /// Insert (first writer wins) and mark most-recently-used.
    fn insert(&mut self, key: u64, warm: Arc<GradingSession>) -> Arc<GradingSession> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.map.entry(key).or_insert((warm, clock));
        slot.1 = clock;
        slot.0.clone()
    }

    /// Evict least-recently-used entries until at most `cap` remain;
    /// returns how many were evicted. The entry just touched carries the
    /// newest stamp, so it is never the victim.
    fn evict_over(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() > cap.max(1) {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&k, _)| k)
            else {
                break;
            };
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// One in-flight counterexample search: the leader publishes the verdict
/// into `done` and notifies; followers wait instead of duplicating the
/// search.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<Option<Verdict>>,
    cv: Condvar,
}

/// What [`Grader::claim_flight`] found for a cache-missed key.
enum Claim {
    /// A racing leader finished in the meantime: the verdict is cached now.
    Cached(Verdict),
    /// This request runs the search and publishes the result.
    Leader(Arc<Flight>),
    /// Another request is already searching this key; wait for it.
    Follower(Arc<Flight>),
}

impl Default for Grader {
    fn default() -> Self {
        Grader::new(GraderConfig::default())
    }
}

/// A prepared session for one grading context.
#[derive(Debug)]
struct GradingSession {
    session: Session,
    reference: ReferenceHandle,
}

/// One unit of work: a distinct fingerprint group to explain.
struct Job {
    fingerprint: u64,
    query: Arc<Query>,
}

impl Grader {
    /// Create an engine with the given configuration. If the configuration
    /// does not already carry a metrics registry, the engine creates one and
    /// wires it into the pipeline options, so evaluator, provenance and
    /// solver counters from every grading session accumulate alongside the
    /// engine's own cache/search counters.
    pub fn new(mut config: GraderConfig) -> Grader {
        let metrics = match config.options.metrics.registry() {
            Some(registry) => registry.clone(),
            None => {
                let registry = Arc::new(MetricsRegistry::new());
                config.options.metrics = MetricsHandle::new(registry.clone());
                registry
            }
        };
        Grader {
            config,
            cache: Mutex::new(HashMap::new()),
            sessions: Mutex::new(SessionLru::default()),
            inflight: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// The engine's metrics registry (shared with every grading session).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Snapshot the engine's registry — grading counters plus everything the
    /// underlying pipeline recorded.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The engine configuration.
    pub fn config(&self) -> &GraderConfig {
        &self.config
    }

    /// Number of fingerprints in the cross-batch verdict cache.
    pub fn cached_verdicts(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Seed the in-memory verdict cache from a persistent store (see
    /// [`crate::store`]). Entries already present in memory win — the live
    /// engine is never downgraded by stale disk state. Returns the number of
    /// entries actually inserted.
    pub fn preload_cache(
        &self,
        entries: impl IntoIterator<Item = crate::store::CacheEntry>,
    ) -> usize {
        let mut cache = lock(&self.cache);
        let mut inserted = 0;
        for e in entries {
            // Timeouts are never cached in memory; refuse them from disk
            // too, whatever produced the file.
            if matches!(e.verdict, Verdict::Timeout { .. }) {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(slot) =
                cache.entry((e.context, e.fingerprint))
            {
                slot.insert(e.verdict);
                inserted += 1;
            }
        }
        inserted
    }

    /// Snapshot the cross-batch verdict cache as persistable entries, sorted
    /// by `(context, fingerprint)` so the snapshot is deterministic.
    pub fn cache_entries(&self) -> Vec<crate::store::CacheEntry> {
        let cache = lock(&self.cache);
        let mut out: Vec<crate::store::CacheEntry> = cache
            .iter()
            .map(
                |(&(context, fingerprint), verdict)| crate::store::CacheEntry {
                    context,
                    fingerprint,
                    verdict: verdict.clone(),
                },
            )
            .collect();
        out.sort_by_key(|e| (e.context, e.fingerprint));
        out
    }

    /// Hash of everything (besides the submission) a verdict depends on:
    /// the reference query's canonical form, the hidden instance's full
    /// content, and the pipeline options. Batches with different contexts
    /// never share cache entries.
    fn context_key(&self, reference: &Query, db: &Database) -> u64 {
        use ratest_ra::canonical::canonical_form;
        use std::fmt::Write as _;
        let mut desc = canonical_form(reference);
        let _ = write!(desc, "|db:{}", db.name());
        for rel in db.relations() {
            let _ = write!(desc, "|rel:{}:{}", rel.name(), rel.schema());
            for t in rel.iter() {
                let _ = write!(desc, "|{:?}:{:?}", t.id, t.values);
            }
        }
        let _ = write!(
            desc,
            "|opts:{:?}:{:?}:{}",
            self.config.options.algorithm,
            self.config.options.strategy,
            self.config.options.selection_pushdown
        );
        let mut params: Vec<_> = self.config.options.parameters.iter().collect();
        params.sort_by(|a, b| a.0.cmp(b.0));
        for (k, v) in params {
            let _ = write!(desc, "|param:{k}={v:?}");
        }
        // The same platform-stable hash as the submission fingerprints.
        ratest_ra::canonical::fnv1a(desc.as_bytes())
    }

    /// Grade a batch of submissions against one reference query on a hidden
    /// test instance.
    pub fn grade(
        &self,
        label: &str,
        reference: &Query,
        db: &Database,
        submissions: &[Submission],
    ) -> Result<BatchReport, GraderError> {
        let wall_start = Instant::now();

        // Evaluate + annotate the reference once per *context* (not per
        // batch): a warm engine reuses the prepared session.
        let (context, warm) = self.session_for(reference, db)?;

        // Dedup: each distinct canonical fingerprint is explained once.
        let groups = group_by_fingerprint(submissions);
        let mut verdicts: HashMap<u64, (Verdict, Duration, bool)> = HashMap::new();
        let mut jobs: VecDeque<Job> = VecDeque::new();
        {
            let cache = lock(&self.cache);
            for g in &groups {
                match cache.get(&(context, g.fingerprint)) {
                    Some(v) => {
                        verdicts.insert(g.fingerprint, (v.clone(), Duration::ZERO, true));
                    }
                    None => jobs.push_back(Job {
                        fingerprint: g.fingerprint,
                        query: g.query.clone(),
                    }),
                }
            }
        }
        let cache_hits = verdicts.len();
        let pipeline_runs = jobs.len();

        // Suggestions are a *monotone enrichment* of a Wrong verdict, not
        // part of the cache key: a suggestion-less hit is upgraded in place
        // when repair is requested, and an enriched hit is stripped from the
        // report (never from the cache) when it is not — so the cache always
        // keeps the richest form it has seen.
        match &self.config.repair {
            Some(repair) => {
                let events = warm.session.options().events.clone();
                let mut upgraded: Vec<(u64, Verdict)> = Vec::new();
                for g in &groups {
                    if let Some((v, _, true)) = verdicts.get_mut(&g.fingerprint) {
                        if enrich_with_repairs(&warm, &g.query, v, repair, &events) {
                            upgraded.push((g.fingerprint, v.clone()));
                        }
                    }
                }
                if !upgraded.is_empty() {
                    let mut cache = lock(&self.cache);
                    for (fp, v) in upgraded {
                        cache.insert((context, fp), v);
                    }
                }
            }
            None => {
                for (v, _, _) in verdicts.values_mut() {
                    if !v.suggestions().is_empty() {
                        *v = v.without_suggestions();
                    }
                }
            }
        }

        self.metrics
            .counter_add("grader.cache_hits", cache_hits as u64);
        self.metrics
            .counter_add("grader.cache_misses", pipeline_runs as u64);
        self.metrics.counter_add(
            "grader.dedup_hits",
            (submissions.len() - groups.len()) as u64,
        );
        // A real occupancy gauge, not a high-water mark: it is set to the
        // queue length here and decremented as workers pop jobs, so a
        // drained batch reads 0 (pinned by the conformance suite).
        self.metrics
            .gauge_set("grader.queue_depth", pipeline_runs as i64);

        // Grade the distinct jobs on a bounded worker pool.
        self.metrics
            .counter_add("grader.searches", pipeline_runs as u64);
        let fresh = run_jobs(jobs, warm.clone(), &self.config, &self.metrics);
        {
            let mut cache = lock(&self.cache);
            for (fp, (v, _)) in &fresh {
                // Timeout verdicts are load-dependent: caching them would
                // make a transient stall permanent and defeat regrading with
                // a larger budget. Correct/Wrong/Error are deterministic.
                if !matches!(v, Verdict::Timeout { .. }) {
                    cache.insert((context, *fp), v.clone());
                }
            }
        }
        for (fp, (v, d)) in fresh {
            verdicts.insert(fp, (v, d, false));
        }

        // Join verdicts back onto every submission, in submission order.
        let mut graded: Vec<GradedSubmission> = Vec::with_capacity(submissions.len());
        let mut by_index: Vec<Option<GradedSubmission>> = vec![None; submissions.len()];
        for g in &groups {
            let (verdict, duration, from_cache) =
                verdicts.get(&g.fingerprint).cloned().unwrap_or((
                    Verdict::Error {
                        message: "internal: no verdict recorded for fingerprint group".into(),
                    },
                    Duration::ZERO,
                    false,
                ));
            for &i in &g.members {
                by_index[i] = Some(GradedSubmission {
                    submission_id: submissions[i].id.clone(),
                    author: submissions[i].author.clone(),
                    fingerprint: g.fingerprint,
                    verdict: verdict.clone(),
                    from_cache,
                    grading_time: duration,
                });
            }
        }
        for slot in by_index {
            graded.push(slot.expect("every submission belongs to a group"));
        }

        let stats = BatchStats::collect(
            &graded,
            groups.len(),
            cache_hits,
            pipeline_runs,
            self.config.workers,
            wall_start.elapsed(),
        );
        Ok(BatchReport {
            label: label.to_owned(),
            // The ROADMAP `aggprov` gap, surfaced instead of silent: for
            // aggregate references the prepared annotation is `None` and
            // every pair falls back to the unshared pipeline.
            shared_annotation: warm.shared_annotation(),
            graded,
            stats,
        })
    }

    /// Get-or-create the warm session for a `(reference, db, options)`
    /// context.
    fn session_for(
        &self,
        reference: &Query,
        db: &Database,
    ) -> Result<(u64, Arc<GradingSession>), GraderError> {
        let context = self.context_key(reference, db);
        if let Some(warm) = lock(&self.sessions).touch(context) {
            return Ok((context, warm));
        }
        // Built outside the lock: preparation evaluates + annotates the
        // reference, which can be slow, and a second thread racing to the
        // same context would only do duplicate work, not wrong work.
        let session = Session::builder(db.clone())
            .options(self.config.options.clone())
            .build();
        let handle = session.prepare(reference).map_err(GraderError::Reference)?;
        let warm = Arc::new(GradingSession {
            session,
            reference: handle,
        });
        let warm = {
            let mut sessions = lock(&self.sessions);
            let warm = sessions.insert(context, warm);
            if let Some(cap) = self.config.warm_cap {
                let evicted = sessions.evict_over(cap);
                if evicted > 0 {
                    self.metrics
                        .counter_add("grader.session_evictions", evicted);
                }
            }
            // Set on insert *and* after eviction: the gauge is the real
            // current occupancy, not a high-water mark.
            self.metrics
                .gauge_set("grader.warm_sessions", sessions.len() as i64);
            warm
        };
        Ok((context, warm))
    }

    /// Whether the reference's provenance annotation is shared across the
    /// context's workers (`false` for aggregate references — the `aggprov`
    /// gap). Prepares the context's warm session if needed.
    pub fn shared_annotation(&self, reference: &Query, db: &Database) -> Result<bool, GraderError> {
        let (_, warm) = self.session_for(reference, db)?;
        Ok(warm.shared_annotation())
    }

    /// [`Grader::shared_annotation`] for an already-prepared context — no
    /// instance re-hash.
    pub fn shared_annotation_for(&self, context: GradeContext) -> Result<bool, GraderError> {
        lock(&self.sessions)
            .touch(context.0)
            .map(|warm| warm.shared_annotation())
            .ok_or(GraderError::UnknownContext)
    }

    /// Number of warm per-context sessions currently held.
    pub fn warm_sessions(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// Counterexample searches this engine has run (cache hits excluded) —
    /// a registry read of the `grader.searches` counter.
    pub fn searches_total(&self) -> u64 {
        self.metrics.counter("grader.searches")
    }

    /// Warm up (or look up) the grading context for a `(reference, db)`
    /// pair and return its handle. The expensive part — hashing the full
    /// instance and preparing the reference — happens at most once per
    /// context; servers call this at prepare time and then use
    /// [`Grader::respond_prepared`] per request.
    pub fn prepare_context(
        &self,
        reference: &Query,
        db: &Database,
    ) -> Result<GradeContext, GraderError> {
        let (context, _) = self.session_for(reference, db)?;
        Ok(GradeContext(context))
    }

    /// Answer one [`ExplainRequest`] against a reference — the `grade
    /// serve` request path. Warm state short-circuits twice: the context's
    /// session skips reference preparation, and the verdict cache answers
    /// repeated fingerprints with zero counterexample searches.
    pub fn respond(
        &self,
        reference: &Query,
        db: &Database,
        request: &ExplainRequest,
    ) -> Result<ExplainResponse, GraderError> {
        let (context, warm) = self.session_for(reference, db)?;
        self.respond_impl(
            context,
            &warm,
            request,
            warm.session.options().events.clone(),
            self.config.repair.as_ref(),
        )
    }

    /// Answer one request against an already-prepared [`GradeContext`],
    /// streaming progress into a per-request event sink. This is the
    /// daemon's hot path: no instance re-hashing, no reference
    /// re-preparation — and because the sink belongs to *this* request, a
    /// stale thread from an earlier timed-out job keeps emitting into its
    /// own retired sink instead of polluting this request's stream.
    pub fn respond_prepared(
        &self,
        context: GradeContext,
        request: &ExplainRequest,
        events: ratest_core::session::EventHandle,
    ) -> Result<ExplainResponse, GraderError> {
        self.respond_prepared_with(context, request, events, self.config.repair.as_ref())
    }

    /// [`Grader::respond_prepared`] with a per-request repair override —
    /// the daemon's `repair` opt-in. `Some` enriches a Wrong verdict with
    /// ranked suggestions (upgrading a suggestion-less cache hit in place);
    /// `None` answers suggestion-free even when the cached verdict has been
    /// enriched by an earlier opted-in request.
    pub fn respond_prepared_with(
        &self,
        context: GradeContext,
        request: &ExplainRequest,
        events: ratest_core::session::EventHandle,
        repair: Option<&RepairOptions>,
    ) -> Result<ExplainResponse, GraderError> {
        let warm = lock(&self.sessions)
            .touch(context.0)
            .ok_or(GraderError::UnknownContext)?;
        self.respond_impl(context.0, &warm, request, events, repair)
    }

    fn respond_impl(
        &self,
        context: u64,
        warm: &Arc<GradingSession>,
        request: &ExplainRequest,
        events: ratest_core::session::EventHandle,
        repair: Option<&RepairOptions>,
    ) -> Result<ExplainResponse, GraderError> {
        let fingerprint = request.fingerprint();
        let key = (context, fingerprint);
        // Bind the lookup before branching: an `if let` on the guard itself
        // would keep the cache locked across `respond_cached`, which re-locks
        // it to upgrade a repair-enriched verdict.
        let cached = lock(&self.cache).get(&key).cloned();
        if let Some(verdict) = cached {
            self.metrics.counter_inc("grader.cache_hits");
            return Ok(self.respond_cached(key, warm, request, verdict, events, repair));
        }
        match self.claim_flight(key) {
            Claim::Cached(verdict) => {
                self.metrics.counter_inc("grader.cache_hits");
                Ok(self.respond_cached(key, warm, request, verdict, events, repair))
            }
            Claim::Leader(flight) => {
                self.metrics.counter_inc("grader.cache_misses");
                self.metrics.counter_inc("grader.searches");
                // The leader must publish even if grading panics — a
                // propagated panic here would leave followers blocked on a
                // flight that never completes (and poison the locks).
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    grade_one_with_timeout(
                        warm.clone(),
                        request.query.clone(),
                        self.config.per_job_timeout,
                        events,
                        repair.cloned(),
                    )
                }));
                let verdict = outcome.unwrap_or_else(|panic| Verdict::Error {
                    message: format!("grading panicked: {}", panic_message(&panic)),
                });
                self.finish_flight(key, &flight, verdict.clone());
                Ok(ExplainResponse {
                    id: request.id.clone(),
                    author: request.author.clone(),
                    fingerprint,
                    verdict,
                    from_cache: false,
                })
            }
            Claim::Follower(flight) => {
                // A duplicate fingerprint already being graded: wait for the
                // leader's verdict instead of searching again. Counted as a
                // cache hit — by the time this request is answered, the
                // verdict *is* cached state.
                self.metrics.counter_inc("grader.cache_hits");
                let verdict = self.await_flight(&flight);
                Ok(self.respond_cached(key, warm, request, verdict, events, repair))
            }
        }
    }

    /// Build the response for a verdict that came out of warm state (the
    /// cache or a completed in-flight search), applying the per-request
    /// repair opt-in: `Some` enriches a Wrong verdict in place (and
    /// upgrades the cached copy), `None` strips suggestions added by an
    /// earlier opted-in request.
    fn respond_cached(
        &self,
        key: (u64, u64),
        warm: &Arc<GradingSession>,
        request: &ExplainRequest,
        mut verdict: Verdict,
        events: ratest_core::session::EventHandle,
        repair: Option<&RepairOptions>,
    ) -> ExplainResponse {
        match repair {
            Some(opts) => {
                if enrich_with_repairs(warm, &request.query, &mut verdict, opts, &events) {
                    lock(&self.cache).insert(key, verdict.clone());
                }
            }
            None => {
                if !verdict.suggestions().is_empty() {
                    verdict = verdict.without_suggestions();
                }
            }
        }
        ExplainResponse {
            id: request.id.clone(),
            author: request.author.clone(),
            fingerprint: key.1,
            verdict,
            from_cache: true,
        }
    }

    /// Claim the in-flight slot for a cache key. Lock order here and in
    /// [`Grader::finish_flight`] is inflight → cache, so a leader
    /// publishing while a follower claims cannot deadlock; re-checking the
    /// cache under the inflight lock closes the race where the leader
    /// finished between our fast-path miss and this claim.
    fn claim_flight(&self, key: (u64, u64)) -> Claim {
        let mut inflight = lock(&self.inflight);
        if let Some(verdict) = lock(&self.cache).get(&key).cloned() {
            return Claim::Cached(verdict);
        }
        if let Some(flight) = inflight.get(&key) {
            return Claim::Follower(flight.clone());
        }
        let flight = Arc::new(Flight::default());
        inflight.insert(key, flight.clone());
        Claim::Leader(flight)
    }

    /// Publish the leader's verdict: cache it (timeouts stay uncached so a
    /// retry can search again), retire the flight so new requests go back
    /// through the cache, then wake every follower.
    fn finish_flight(&self, key: (u64, u64), flight: &Flight, verdict: Verdict) {
        {
            let mut inflight = lock(&self.inflight);
            if !matches!(verdict, Verdict::Timeout { .. }) {
                lock(&self.cache).insert(key, verdict.clone());
            }
            inflight.remove(&key);
        }
        *lock(&flight.done) = Some(verdict);
        flight.cv.notify_all();
    }

    /// Block until the flight's leader publishes. Bounded: a leader that
    /// dies without publishing (it can't under normal operation — see
    /// `catch_unwind` in `respond_impl`) is treated as a timeout rather
    /// than hanging this request forever.
    fn await_flight(&self, flight: &Flight) -> Verdict {
        let wait_cap = if self.config.per_job_timeout.is_zero() {
            Duration::from_secs(600)
        } else {
            self.config.per_job_timeout * 2 + Duration::from_secs(1)
        };
        let deadline = Instant::now() + wait_cap;
        let mut done = lock(&flight.done);
        loop {
            if let Some(v) = done.clone() {
                return v;
            }
            let now = Instant::now();
            if now >= deadline {
                return Verdict::Timeout {
                    budget: self.config.per_job_timeout,
                };
            }
            done = flight
                .cv
                .wait_timeout(done, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Answer a batch of requests in order (dedup/cache apply per request).
    pub fn respond_all(
        &self,
        reference: &Query,
        db: &Database,
        requests: &[ExplainRequest],
    ) -> Result<Vec<ExplainResponse>, GraderError> {
        requests
            .iter()
            .map(|r| self.respond(reference, db, r))
            .collect()
    }

    /// Grade an ingested directory cohort: the parsed submissions run
    /// through the engine (dedup, cache, worker pool), the frontend-rejected
    /// ones are merged back into the report as [`Verdict::Rejected`] rows,
    /// in directory order.
    pub fn grade_cohort(
        &self,
        label: &str,
        reference: &Query,
        db: &Database,
        cohort: &IngestedCohort,
    ) -> Result<BatchReport, GraderError> {
        let wall_start = Instant::now();
        let submissions = cohort.submissions();
        let inner = self.grade(label, reference, db, &submissions)?;
        let mut by_id: HashMap<&str, &GradedSubmission> = HashMap::new();
        for g in &inner.graded {
            by_id.insert(g.submission_id.as_str(), g);
        }
        let graded: Vec<GradedSubmission> = cohort
            .entries
            .iter()
            .map(|entry| match entry {
                IngestEntry::Parsed(s) => by_id
                    .get(s.id.as_str())
                    .copied()
                    .cloned()
                    .expect("every parsed submission was graded"),
                IngestEntry::Rejected(r) => GradedSubmission {
                    submission_id: r.id.clone(),
                    author: r.author.clone(),
                    fingerprint: 0,
                    verdict: r.verdict.clone(),
                    from_cache: false,
                    grading_time: Duration::ZERO,
                },
            })
            .collect();
        let stats = BatchStats::collect(
            &graded,
            inner.stats.distinct_groups,
            inner.stats.cache_hits,
            inner.stats.pipeline_runs,
            self.config.workers,
            wall_start.elapsed(),
        );
        Ok(BatchReport {
            label: label.to_owned(),
            shared_annotation: inner.shared_annotation,
            graded,
            stats,
        })
    }
}

impl GradingSession {
    /// Whether the reference's provenance annotation is shared (absent for
    /// aggregate references — the `aggprov` gap).
    fn shared_annotation(&self) -> bool {
        self.session
            .prepared(self.reference)
            .map(|p| p.annotation().is_some())
            .unwrap_or(false)
    }
}

/// Drain the job queue with `config.workers` threads; returns
/// fingerprint → (verdict, grading time).
fn run_jobs(
    jobs: VecDeque<Job>,
    warm: Arc<GradingSession>,
    config: &GraderConfig,
    metrics: &Arc<MetricsRegistry>,
) -> HashMap<u64, (Verdict, Duration)> {
    let results: Arc<Mutex<HashMap<u64, (Verdict, Duration)>>> =
        Arc::new(Mutex::new(HashMap::new()));
    if jobs.is_empty() {
        return Arc::try_unwrap(results)
            .map(|m| m.into_inner().unwrap_or_default())
            .unwrap_or_default();
    }
    let worker_count = config.workers.max(1).min(jobs.len());
    let queue = Arc::new(Mutex::new(jobs));

    let mut handles = Vec::with_capacity(worker_count);
    for _ in 0..worker_count {
        let queue = queue.clone();
        let results = results.clone();
        let warm = warm.clone();
        let timeout = config.per_job_timeout;
        let repair = config.repair.clone();
        let metrics = metrics.clone();
        handles.push(std::thread::spawn(move || loop {
            let job = match queue.lock() {
                Ok(mut q) => {
                    let job = q.pop_front();
                    if job.is_some() {
                        // Decrement under the queue lock so the gauge is the
                        // real remaining depth: a drained batch reads 0
                        // (pinned by the conformance suite).
                        metrics.gauge_set("grader.queue_depth", q.len() as i64);
                    }
                    job
                }
                Err(_) => None,
            };
            let Some(job) = job else {
                break;
            };
            let start = Instant::now();
            let verdict = grade_one_with_timeout(
                warm.clone(),
                job.query.clone(),
                timeout,
                warm.session.options().events.clone(),
                repair.clone(),
            );
            let elapsed = start.elapsed();
            if let Ok(mut r) = results.lock() {
                r.insert(job.fingerprint, (verdict, elapsed));
            }
        }));
    }
    for h in handles {
        // A panicking worker has already converted its job's panic into a
        // `Verdict::Error` inside `grade_one`; a panic here would mean the
        // pool plumbing itself failed, which we surface by ignoring the
        // worker (its remaining queue share is drained by the others).
        let _ = h.join();
    }

    Arc::try_unwrap(results)
        .map(|m| m.into_inner().unwrap_or_default())
        .unwrap_or_default()
}

/// Grade one submission, enforcing the per-job wall-clock budget.
///
/// Belt and braces: the job runs under a per-job [`Budget`] whose deadline
/// the pipeline polls at loop boundaries *and* inside evaluator row loops,
/// so a flooding evaluation self-terminates; *and* the worker watches from
/// outside via a channel, so even a job stuck somewhere unpolled is
/// recorded as [`Verdict::Timeout`] on time (its budget is cancelled so the
/// stray thread stops consuming CPU shortly after). With `timeout == 0` the
/// job runs inline on the worker under the session budget.
fn grade_one_with_timeout(
    warm: Arc<GradingSession>,
    query: Arc<Query>,
    timeout: Duration,
    events: ratest_core::session::EventHandle,
    repair: Option<RepairOptions>,
) -> Verdict {
    if timeout.is_zero() {
        return grade_one(
            &warm,
            &query,
            warm.session.budget(),
            events,
            repair.as_ref(),
        );
    }
    // Each job gets its own budget: cancelling this job must not cancel the
    // batch's other jobs.
    let budget = Budget::unlimited().with_deadline(timeout);
    let job_budget = budget.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(grade_one(
            &warm,
            &query,
            &job_budget,
            events,
            repair.as_ref(),
        ));
    });
    match rx.recv_timeout(timeout + Duration::from_millis(50)) {
        // A budget-exhausted run is a timeout whichever layer noticed
        // first; the verdict always names the *configured* budget (the job
        // itself cannot know it).
        Ok(Verdict::Timeout { .. }) => Verdict::Timeout { budget: timeout },
        Ok(Verdict::Error { .. }) if budget.poll().is_some() => {
            Verdict::Timeout { budget: timeout }
        }
        Ok(verdict) => verdict,
        Err(_) => {
            budget.cancel();
            Verdict::Timeout { budget: timeout }
        }
    }
}

/// Enrich a [`Verdict::Wrong`] with ranked repair suggestions computed
/// against the context's warm session. Returns `true` when the verdict
/// gained suggestions it did not already have (the caller then upgrades
/// the cache in place); a verdict that is not `Wrong`, already carries
/// suggestions, or yields no confirmed repair is left untouched.
fn enrich_with_repairs(
    warm: &GradingSession,
    query: &Query,
    verdict: &mut Verdict,
    options: &RepairOptions,
    events: &ratest_core::session::EventHandle,
) -> bool {
    let Verdict::Wrong {
        counterexample,
        suggestions,
        ..
    } = verdict
    else {
        return false;
    };
    if !suggestions.is_empty() {
        return false;
    }
    let Some(prepared) = warm.session.prepared(warm.reference) else {
        return false;
    };
    let metrics = warm.session.options().metrics.clone();
    let computed = ratest_repair::suggest_repairs(
        query,
        prepared.query(),
        counterexample,
        &warm.session,
        warm.reference,
        options,
        events,
        &metrics,
    );
    if computed.is_empty() {
        return false;
    }
    *suggestions = computed;
    true
}

/// Run the shared-reference session pipeline for one submission, converting
/// every failure mode (typed errors *and* panics) into a verdict.
fn grade_one(
    warm: &GradingSession,
    query: &Query,
    budget: &Budget,
    events: ratest_core::session::EventHandle,
    repair: Option<&RepairOptions>,
) -> Verdict {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        warm.session
            .explain_with(warm.reference, query, budget, events.clone())
    }));
    match outcome {
        Ok(Ok(outcome)) => match outcome.counterexample {
            None => Verdict::Correct,
            Some(cex) => {
                let mut verdict = Verdict::Wrong {
                    counterexample: Box::new(cex),
                    class: outcome.class,
                    algorithm: outcome.algorithm_used,
                    timings: outcome.timings,
                    suggestions: Vec::new(),
                };
                if let Some(opts) = repair {
                    enrich_with_repairs(warm, query, &mut verdict, opts, &events);
                }
                verdict
            }
        },
        // The job's own budget ran out mid-pipeline: that is a timeout, not
        // an ungradable submission.
        Ok(Err(e)) if e.is_budget_exhausted() => Verdict::Timeout {
            budget: Duration::ZERO,
        },
        Ok(Err(e)) => Verdict::Error {
            message: e.to_string(),
        },
        Err(panic) => Verdict::Error {
            message: format!("explanation panicked: {}", panic_message(&panic)),
        },
    }
}

/// Best-effort human-readable payload of a caught panic.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(|s| s.as_str()))
        .unwrap_or("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::builder::{col, lit, rel};
    use ratest_ra::testdata;

    fn toy_batch() -> (Query, Database, Vec<Submission>) {
        let db = testdata::figure1_db();
        let reference = testdata::example1_q1();
        let wrong = testdata::example1_q2();
        let subs = vec![
            Submission::new("s0", "Ada", reference.clone()),
            Submission::new("s1", "Ben", wrong.clone()),
            Submission::new("s2", "Cyd", wrong.clone()),
            Submission::new("s3", "Dee", wrong),
        ];
        (reference, db, subs)
    }

    #[test]
    fn duplicates_are_graded_once_and_verdicts_shared() {
        let (reference, db, subs) = toy_batch();
        let grader = Grader::new(GraderConfig {
            workers: 2,
            ..Default::default()
        });
        let report = grader.grade("toy", &reference, &db, &subs).unwrap();
        assert_eq!(report.stats.submissions, 4);
        assert_eq!(report.stats.distinct_groups, 2);
        assert_eq!(report.stats.pipeline_runs, 2);
        assert_eq!(report.stats.dedup_hits, 2);
        assert_eq!(report.graded[0].verdict.tag(), "correct");
        for g in &report.graded[1..] {
            assert_eq!(g.verdict.tag(), "wrong");
            assert_eq!(
                g.verdict.counterexample().unwrap().size(),
                3,
                "Example 2's optimum"
            );
        }
    }

    #[test]
    fn the_verdict_cache_carries_across_batches() {
        let (reference, db, subs) = toy_batch();
        let grader = Grader::new(GraderConfig::default());
        let first = grader.grade("b1", &reference, &db, &subs).unwrap();
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(grader.cached_verdicts(), 2);
        let second = grader.grade("b2", &reference, &db, &subs).unwrap();
        assert_eq!(second.stats.cache_hits, 2);
        assert_eq!(second.stats.pipeline_runs, 0);
        assert!(second.graded.iter().all(|g| g.from_cache));
    }

    #[test]
    fn the_cache_is_scoped_to_the_reference_and_instance() {
        let (reference, db, subs) = toy_batch();
        let grader = Grader::new(GraderConfig::default());
        let first = grader
            .grade("q-exactly-one", &reference, &db, &subs)
            .unwrap();
        assert_eq!(first.graded[1].verdict.tag(), "wrong");

        // Grading the same submissions against a different reference must
        // not reuse the first assignment's verdicts: s1's query IS the new
        // reference, so it flips from wrong to correct.
        let other_reference = testdata::example1_q2();
        let second = grader
            .grade("q-at-least-one", &other_reference, &db, &subs)
            .unwrap();
        assert_eq!(second.stats.cache_hits, 0, "different context, no reuse");
        assert_eq!(second.graded[1].verdict.tag(), "correct");
    }

    #[test]
    fn timeout_verdicts_are_not_cached() {
        let (reference, db, subs) = toy_batch();
        let strict = Grader::new(GraderConfig {
            workers: 1,
            per_job_timeout: Duration::from_nanos(1),
            ..Default::default()
        });
        let first = strict.grade("b1", &reference, &db, &subs).unwrap();
        assert_eq!(
            first.stats.timeouts, first.stats.submissions,
            "a 1 ns budget times everything out: {:?}",
            first.stats
        );
        // Timeouts must not persist: the regrade re-attempts every group
        // instead of replaying the stale Timeout from the cache.
        let second = strict.grade("b2", &reference, &db, &subs).unwrap();
        assert_eq!(second.stats.cache_hits, 0, "{:?}", second.stats);
        assert_eq!(second.stats.pipeline_runs, second.stats.distinct_groups);
    }

    #[test]
    fn ungradable_submissions_become_error_verdicts_not_failures() {
        let (reference, db, mut subs) = toy_batch();
        // Wrong arity: not union compatible with the reference.
        subs.push(Submission::new(
            "s4",
            "Eve",
            rel("Student").project(&["name"]).build(),
        ));
        // References a relation that does not exist.
        subs.push(Submission::new(
            "s5",
            "Fay",
            rel("NoSuchTable").select(col("x").eq(lit(1i64))).build(),
        ));
        let grader = Grader::new(GraderConfig::default());
        let report = grader.grade("toy", &reference, &db, &subs).unwrap();
        assert_eq!(report.graded[4].verdict.tag(), "error");
        assert_eq!(report.graded[5].verdict.tag(), "error");
        // The rest of the batch still graded normally.
        assert_eq!(report.graded[0].verdict.tag(), "correct");
        assert_eq!(report.stats.errors, 2);
    }

    #[test]
    fn a_broken_reference_is_a_batch_level_error() {
        let db = testdata::figure1_db();
        let reference = rel("Nope").build();
        let grader = Grader::new(GraderConfig::default());
        let err = grader
            .grade("toy", &reference, &db, &[])
            .expect_err("reference does not evaluate");
        assert!(err.to_string().contains("not gradable"));
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (reference, db, subs) = toy_batch();
        let sequential = Grader::new(GraderConfig {
            workers: 1,
            ..Default::default()
        });
        let parallel = Grader::new(GraderConfig {
            workers: 4,
            ..Default::default()
        });
        let a = sequential.grade("seq", &reference, &db, &subs).unwrap();
        let b = parallel.grade("par", &reference, &db, &subs).unwrap();
        let tags = |r: &BatchReport| {
            r.graded
                .iter()
                .map(|g| g.verdict.tag().to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(tags(&a), tags(&b));
    }

    #[test]
    fn poisoned_locks_recover_instead_of_killing_the_engine() {
        let (reference, db, subs) = toy_batch();
        let grader = Arc::new(Grader::new(GraderConfig::default()));
        // Poison both engine locks: a worker panicking mid-critical-section
        // must cost one request, not every subsequent one.
        let g = grader.clone();
        let _ = std::thread::spawn(move || {
            let _guard = g.cache.lock().unwrap();
            panic!("poison the cache lock");
        })
        .join();
        let g = grader.clone();
        let _ = std::thread::spawn(move || {
            let _guard = g.sessions.lock().unwrap();
            panic!("poison the session lock");
        })
        .join();
        let report = grader
            .grade("poisoned", &reference, &db, &subs)
            .expect("the engine still grades after a poisoning panic");
        assert_eq!(report.graded.len(), subs.len());
        assert_eq!(grader.cached_verdicts(), 2);
    }

    #[test]
    fn warm_cap_evicts_lru_sessions_and_tracks_real_occupancy() {
        let db = testdata::figure1_db();
        let q1 = testdata::example1_q1();
        let q2 = testdata::example1_q2();
        let grader = Grader::new(GraderConfig {
            warm_cap: Some(1),
            ..Default::default()
        });
        let c1 = grader.prepare_context(&q1, &db).unwrap();
        assert_eq!(grader.warm_sessions(), 1);
        let c2 = grader.prepare_context(&q2, &db).unwrap();
        assert_eq!(
            grader.warm_sessions(),
            1,
            "cap of 1 evicts the older context"
        );
        assert_eq!(grader.metrics().gauge("grader.warm_sessions"), Some(1));
        assert_eq!(grader.metrics().counter("grader.session_evictions"), 1);
        assert!(matches!(
            grader.shared_annotation_for(c1),
            Err(GraderError::UnknownContext)
        ));
        assert!(grader.shared_annotation_for(c2).is_ok());
    }

    #[test]
    fn queue_depth_gauge_reads_zero_after_the_batch_drains() {
        let (reference, db, subs) = toy_batch();
        let grader = Grader::new(GraderConfig {
            workers: 2,
            ..Default::default()
        });
        grader.grade("batch", &reference, &db, &subs).unwrap();
        assert_eq!(grader.metrics().gauge("grader.queue_depth"), Some(0));
    }

    #[test]
    fn concurrent_duplicate_requests_share_one_search() {
        let db = testdata::figure1_db();
        let reference = testdata::example1_q1();
        let wrong = testdata::example1_q2();
        let grader = Arc::new(Grader::new(GraderConfig {
            per_job_timeout: Duration::ZERO,
            ..Default::default()
        }));
        let context = grader.prepare_context(&reference, &db).unwrap();
        let mut handles = Vec::new();
        for i in 0..6 {
            let grader = grader.clone();
            let wrong = wrong.clone();
            handles.push(std::thread::spawn(move || {
                grader
                    .respond_prepared(
                        context,
                        &ExplainRequest::new(format!("s{i}"), format!("s{i}"), wrong),
                        ratest_core::session::EventHandle::none(),
                    )
                    .expect("respond")
            }));
        }
        let responses: Vec<crate::api::ExplainResponse> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Six identical fingerprints in flight at once → one leader searched,
        // five followers joined it (counted as cache hits: by the time they
        // were answered, the verdict was cached state).
        assert_eq!(grader.searches_total(), 1);
        assert_eq!(grader.metrics().counter("grader.cache_misses"), 1);
        assert_eq!(grader.metrics().counter("grader.cache_hits"), 5);
        let tags: std::collections::HashSet<&str> =
            responses.iter().map(|r| r.verdict.tag()).collect();
        assert_eq!(tags.len(), 1, "every duplicate got the same verdict");
    }
}
