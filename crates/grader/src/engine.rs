//! The batch grading engine, rebuilt on the session API: one warm
//! [`Session`] per grading context carries the prepared reference,
//! fingerprint dedup + the cross-batch verdict cache answer repeats, and a
//! bounded worker pool enforces per-job [`Budget`]s (deadline + cooperative
//! cancellation — a timed-out job is asked to stop, not just abandoned, and
//! the deadline reaches *into* evaluator row loops via the budget hook).
//!
//! Every verdict — a batch group's or a daemon request's — goes through one
//! path: the verdict cache, then single-flight, then the timed search, then
//! publication into the cache.

use crate::api::{ExplainRequest, ExplainResponse};
use crate::ingest::{IngestEntry, IngestedCohort};
use crate::report::{BatchReport, BatchStats};
use crate::submission::{group_by_fingerprint, Submission};
use crate::verdict::{GradedSubmission, Verdict};
use ratest_core::pipeline::RatestOptions;
use ratest_core::session::{Budget, EventHandle, ReferenceHandle, Session};
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
    /// When set, every [`Verdict::Wrong`] a batch produces is enriched with
    /// ranked repair suggestions (see [`ratest_repair`]). `None` keeps
    /// batches suggestion-free; a single request opts in through the
    /// `repair` argument of [`Grader::respond`].
    pub repair: Option<RepairOptions>,
}

impl Default for GraderConfig {
    fn default() -> Self {
        GraderConfig {
            workers: 4,
            per_job_timeout: Duration::from_secs(30),
            options: RatestOptions::default(),
            repair: None,
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
    /// A [`GradeContext`] handle from a different engine was presented to
    /// [`Grader::respond`].
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
/// and answer every subsequent request through [`Grader::respond`] without
/// re-hashing the instance.
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
    /// Warm per-context sessions (context key → prepared session). This is
    /// what makes a served re-grade — and the second batch of a long-lived
    /// process — skip reference preparation entirely. The engine never
    /// evicts: `grade serve` bounds warm state by dropping whole
    /// per-reference engines.
    sessions: Mutex<HashMap<u64, Arc<GradingSession>>>,
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
            sessions: Mutex::new(HashMap::new()),
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
        // The trailing `:true` stood for the removed `selection_pushdown`
        // option, which was always on: keeping it keeps every key, so
        // verdicts already stored under these keys still answer.
        let _ = write!(
            desc,
            "|opts:{:?}:{:?}:true",
            self.config.options.algorithm, self.config.options.strategy,
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
    /// test instance. Each distinct fingerprint goes through the request
    /// path: the cached groups answer first, in group order, then the misses
    /// are searched on a pool of `workers` threads.
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
        let events = warm.session.options().events.clone();
        let repair = self.config.repair.as_ref();

        // Dedup: each distinct canonical fingerprint is explained once.
        let groups = group_by_fingerprint(submissions);
        // The request path counts hits and misses one by one; touching the
        // counters here keeps every key in a snapshot even when it is zero.
        for name in [
            "grader.cache_hits",
            "grader.cache_misses",
            "grader.searches",
        ] {
            self.metrics.counter_add(name, 0);
        }
        self.metrics.counter_add(
            "grader.dedup_hits",
            (submissions.len() - groups.len()) as u64,
        );

        let mut answers: Vec<Option<(Verdict, Duration, bool)>> = vec![None; groups.len()];
        let mut misses: VecDeque<usize> = VecDeque::new();
        for (i, g) in groups.iter().enumerate() {
            let key = (context, g.fingerprint);
            match self.lookup(key, &warm, &g.query, &events, repair) {
                Some(verdict) => answers[i] = Some((verdict, Duration::ZERO, true)),
                None => misses.push_back(i),
            }
        }

        // A real occupancy gauge, not a high-water mark: it is set to the
        // queue length here and decremented as workers pop jobs, so a
        // drained batch reads 0 (pinned by the conformance suite).
        self.metrics
            .gauge_set("grader.queue_depth", misses.len() as i64);
        let worker_count = self.config.workers.max(1).min(misses.len());
        let queue = Mutex::new(misses);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..worker_count)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let next = {
                                let mut queue = lock(&queue);
                                let next = queue.pop_front();
                                self.metrics
                                    .gauge_set("grader.queue_depth", queue.len() as i64);
                                next
                            };
                            let Some(i) = next else { break };
                            let start = Instant::now();
                            let key = (context, groups[i].fingerprint);
                            let (verdict, from_cache) =
                                self.search(key, &warm, &groups[i].query, events.clone(), repair);
                            done.push((i, (verdict, start.elapsed(), from_cache)));
                        }
                        done
                    })
                })
                .collect();
            for worker in workers {
                // Grading panics already became error verdicts inside the
                // request path; a worker that still died leaves its groups
                // unanswered, which the join below reports per group.
                for (i, answer) in worker.join().unwrap_or_default() {
                    answers[i] = Some(answer);
                }
            }
        });

        // Join verdicts back onto every submission, in submission order.
        let mut by_index: Vec<Option<GradedSubmission>> = vec![None; submissions.len()];
        let mut cache_hits = 0;
        for (g, answer) in groups.iter().zip(answers) {
            let (verdict, duration, from_cache) = answer.unwrap_or((
                Verdict::Error {
                    message: "internal: no verdict recorded for fingerprint group".into(),
                },
                Duration::ZERO,
                false,
            ));
            cache_hits += from_cache as usize;
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
        let graded: Vec<GradedSubmission> = by_index
            .into_iter()
            .map(|slot| slot.expect("every submission belongs to a group"))
            .collect();

        let stats = BatchStats::collect(
            &graded,
            groups.len(),
            cache_hits,
            groups.len() - cache_hits,
            self.config.workers,
            wall_start.elapsed(),
        );
        Ok(BatchReport {
            label: label.to_owned(),
            // Surfaced instead of silent: an aggregate reference has no
            // prepared annotation. Its pairs still reuse the prepared
            // evaluation through the pipeline's one dispatcher; the
            // aggregate algorithms build their own provenance.
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
        if let Some(warm) = lock(&self.sessions).get(&context) {
            return Ok((context, warm.clone()));
        }
        // Built outside the lock: preparation evaluates + annotates the
        // reference, which can be slow, and a second thread racing to the
        // same context would only do duplicate work, not wrong work.
        let session = Session::builder(db.clone())
            .options(self.config.options.clone())
            .build();
        let handle = session.prepare(reference).map_err(GraderError::Reference)?;
        let mut sessions = lock(&self.sessions);
        // First writer wins.
        let warm = sessions
            .entry(context)
            .or_insert_with(|| {
                Arc::new(GradingSession {
                    session,
                    reference: handle,
                })
            })
            .clone();
        self.metrics
            .gauge_set("grader.warm_sessions", sessions.len() as i64);
        Ok((context, warm))
    }

    /// The warm session of an already-prepared context.
    fn warm(&self, context: GradeContext) -> Result<Arc<GradingSession>, GraderError> {
        lock(&self.sessions)
            .get(&context.0)
            .cloned()
            .ok_or(GraderError::UnknownContext)
    }

    /// Whether the reference's provenance annotation is shared across the
    /// context's workers (`false` for aggregate references — the `aggprov`
    /// gap).
    pub fn shared_annotation_for(&self, context: GradeContext) -> Result<bool, GraderError> {
        Ok(self.warm(context)?.shared_annotation())
    }

    /// Warm up (or look up) the grading context for a `(reference, db)`
    /// pair and return its handle. The expensive part — hashing the full
    /// instance and preparing the reference — happens at most once per
    /// context; servers call this at prepare time and then use
    /// [`Grader::respond`] per request.
    pub fn prepare_context(
        &self,
        reference: &Query,
        db: &Database,
    ) -> Result<GradeContext, GraderError> {
        let (context, _) = self.session_for(reference, db)?;
        Ok(GradeContext(context))
    }

    /// Answer one [`ExplainRequest`] against an already-prepared
    /// [`GradeContext`] — the `grade serve` request path. Warm state
    /// short-circuits twice: the context's session skips reference
    /// preparation, and the verdict cache answers repeated fingerprints with
    /// zero counterexample searches.
    ///
    /// Progress streams into `events`, a sink owned by *this* request: a
    /// stale thread from an earlier timed-out job keeps emitting into its
    /// own retired sink instead of polluting this request's stream.
    /// `repair` is the per-request opt-in: `Some` enriches a Wrong verdict
    /// with ranked suggestions (upgrading a suggestion-less cache hit in
    /// place); `None` answers suggestion-free even when the cached verdict
    /// has been enriched by an earlier opted-in request.
    pub fn respond(
        &self,
        context: GradeContext,
        request: &ExplainRequest,
        events: EventHandle,
        repair: Option<&RepairOptions>,
    ) -> Result<ExplainResponse, GraderError> {
        let warm = self.warm(context)?;
        let fingerprint = request.fingerprint();
        let key = (context.0, fingerprint);
        let query = request.query();
        let (verdict, from_cache) = match self.lookup(key, &warm, query, &events, repair) {
            Some(verdict) => (verdict, true),
            None => self.search(key, &warm, query, events, repair),
        };
        Ok(ExplainResponse {
            id: request.id().to_owned(),
            author: request.author().to_owned(),
            fingerprint,
            verdict,
            from_cache,
        })
    }

    /// The request path's first step: the verdict cache.
    fn lookup(
        &self,
        key: (u64, u64),
        warm: &GradingSession,
        query: &Query,
        events: &EventHandle,
        repair: Option<&RepairOptions>,
    ) -> Option<Verdict> {
        // Bind the lookup before branching: holding the guard across
        // `apply_repair` would self-deadlock when it re-locks the cache to
        // upgrade a repair-enriched verdict.
        let cached = lock(&self.cache).get(&key).cloned()?;
        self.metrics.counter_inc("grader.cache_hits");
        Some(self.apply_repair(key, warm, query, cached, events, repair))
    }

    /// The request path after a cache miss: join or lead the key's flight;
    /// a leader runs the timed search and publishes the verdict. The flag
    /// is `true` when the verdict came out of warm state (a racing
    /// leader's search) rather than a search this request ran.
    fn search(
        &self,
        key: (u64, u64),
        warm: &Arc<GradingSession>,
        query: &Arc<Query>,
        events: EventHandle,
        repair: Option<&RepairOptions>,
    ) -> (Verdict, bool) {
        let verdict = match self.claim_flight(key) {
            Claim::Cached(verdict) => verdict,
            // A duplicate fingerprint already being graded: wait for the
            // leader's verdict instead of searching again. Counted as a
            // cache hit — by the time this request is answered, the verdict
            // *is* cached state.
            Claim::Follower(flight) => self.await_flight(&flight),
            Claim::Leader(flight) => {
                self.metrics.counter_inc("grader.cache_misses");
                self.metrics.counter_inc("grader.searches");
                // The leader must publish even if grading panics — a
                // propagated panic here would leave followers blocked on a
                // flight that never completes (and poison the locks).
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    grade_one_with_timeout(
                        warm.clone(),
                        query.clone(),
                        self.config.per_job_timeout,
                        events,
                        repair.cloned(),
                    )
                }));
                let verdict = outcome.unwrap_or_else(|panic| Verdict::Error {
                    message: format!("grading panicked: {}", panic_message(&panic)),
                });
                self.finish_flight(key, &flight, verdict.clone());
                return (verdict, false);
            }
        };
        self.metrics.counter_inc("grader.cache_hits");
        (
            self.apply_repair(key, warm, query, verdict, &events, repair),
            true,
        )
    }

    /// Apply the repair opt-in to a verdict that came out of warm state:
    /// `Some` enriches a Wrong verdict in place (and upgrades the cached
    /// copy), `None` strips suggestions added by an earlier opted-in
    /// request. Suggestions are a *monotone enrichment*, not part of the
    /// cache key, so the cache always keeps the richest form it has seen.
    fn apply_repair(
        &self,
        key: (u64, u64),
        warm: &GradingSession,
        query: &Query,
        mut verdict: Verdict,
        events: &EventHandle,
        repair: Option<&RepairOptions>,
    ) -> Verdict {
        match repair {
            Some(opts) => {
                if enrich_with_repairs(warm, query, &mut verdict, opts, events) {
                    lock(&self.cache).insert(key, verdict.clone());
                }
                verdict
            }
            None if !verdict.suggestions().is_empty() => verdict.without_suggestions(),
            None => verdict,
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
            // Timeout verdicts are load-dependent: caching them would make
            // a transient stall permanent and defeat regrading with a larger
            // budget. Correct/Wrong/Error are deterministic.
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
    /// `catch_unwind` in `search`) is treated as a timeout rather than
    /// hanging this request forever.
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

/// Grade one submission, enforcing the per-job wall-clock budget.
///
/// Belt and braces: the job runs under a per-job [`Budget`] whose deadline
/// the pipeline polls at loop boundaries *and* inside evaluator row loops,
/// so a flooding evaluation self-terminates; *and* the worker watches from
/// outside via a channel, so even a job stuck somewhere unpolled is
/// recorded as [`Verdict::Timeout`] on time (its budget is cancelled so the
/// stray thread stops consuming CPU shortly after). The job counts into a
/// registry of its own, folded into the engine's only when it finishes
/// within its budget, so a timeout leaves the engine's counters as they
/// were whenever the stray thread stops. With `timeout == 0` the job runs
/// inline on the worker under the session budget.
fn grade_one_with_timeout(
    warm: Arc<GradingSession>,
    query: Arc<Query>,
    timeout: Duration,
    events: EventHandle,
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
    // And its own registry: an abandoned job's thread keeps counting until
    // it next polls its cancelled budget, so only a job that finishes
    // within its budget has its counters folded into the engine's.
    let engine_metrics = warm.session.options().metrics.clone();
    let job_metrics = Arc::new(MetricsRegistry::new());
    let job = GradingSession {
        session: warm
            .session
            .with_metrics(MetricsHandle::new(job_metrics.clone())),
        reference: warm.reference,
    };
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(grade_one(
            &job,
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
        Ok(verdict) => {
            if let Some(engine) = engine_metrics.registry() {
                engine.absorb(&job_metrics);
            }
            verdict
        }
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
    events: &EventHandle,
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
    events: EventHandle,
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
                    counterexample: cex,
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
    fn an_abandoned_job_adds_nothing_to_the_engine_metrics() {
        use ratest_datagen::{university_database, UniversityConfig};
        use ratest_queries::course::q6_common_course_pairs;
        use ratest_queries::mutations::mutate;
        // The q6 self-join without its course equality takes far longer
        // than 1 ms here, and counts rows, annotations and solves as it
        // goes until it notices its deadline.
        let db = university_database(&UniversityConfig::with_total(2_000));
        let reference = q6_common_course_pairs();
        let slow = mutate(&reference)
            .into_iter()
            .find(|m| {
                m.description
                    .contains("dropped conjunct `(a.course = b.course)`")
            })
            .expect("the q6 mutation exists");
        let subs = [Submission::new("s1", "Ann", slow.query)];
        let snapshots: Vec<String> = (0..3)
            .map(|_| {
                let grader = Grader::new(GraderConfig {
                    workers: 1,
                    per_job_timeout: Duration::from_millis(1),
                    ..Default::default()
                });
                let report = grader.grade("slow", &reference, &db, &subs).unwrap();
                assert_eq!(report.graded[0].verdict.tag(), "timeout");
                let at_verdict = grader.metrics_snapshot().to_json(false);
                // Give the detached job time to run on past its verdict.
                std::thread::sleep(Duration::from_millis(200));
                assert_eq!(
                    grader.metrics_snapshot().to_json(false),
                    at_verdict,
                    "the abandoned job kept counting"
                );
                at_verdict
            })
            .collect();
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
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
    fn batches_and_requests_share_one_verdict_cache() {
        let (reference, db, subs) = toy_batch();
        let grader = Grader::new(GraderConfig::default());
        let context = grader.prepare_context(&reference, &db).unwrap();
        let wrong = ExplainRequest::new("r1", "Ben", testdata::example1_q2());
        let first = grader
            .respond(context, &wrong, EventHandle::none(), None)
            .unwrap();
        assert!(!first.from_cache);
        // The request's verdict answers s1..s3; only s0's group searches.
        let report = grader.grade("batch", &reference, &db, &subs).unwrap();
        assert_eq!(report.stats.cache_hits, 1);
        assert_eq!(report.stats.pipeline_runs, 1);
        assert!(!report.graded[0].from_cache);
        assert!(report.graded[1].from_cache);
        // And the batch's verdict answers a later request.
        let correct = ExplainRequest::new("r2", "Ada", reference.clone());
        let again = grader
            .respond(context, &correct, EventHandle::none(), None)
            .unwrap();
        assert!(again.from_cache);
        assert_eq!(grader.metrics().counter("grader.searches"), 2);
        assert_eq!(grader.metrics().gauge("grader.warm_sessions"), Some(1));
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
                    .respond(
                        context,
                        &ExplainRequest::new(format!("s{i}"), format!("s{i}"), wrong),
                        EventHandle::none(),
                        None,
                    )
                    .expect("respond")
            }));
        }
        let responses: Vec<crate::api::ExplainResponse> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Six identical fingerprints in flight at once → one leader searched,
        // five followers joined it (counted as cache hits: by the time they
        // were answered, the verdict was cached state).
        assert_eq!(grader.metrics().counter("grader.searches"), 1);
        assert_eq!(grader.metrics().counter("grader.cache_misses"), 1);
        assert_eq!(grader.metrics().counter("grader.cache_hits"), 5);
        let tags: std::collections::HashSet<&str> =
            responses.iter().map(|r| r.verdict.tag()).collect();
        assert_eq!(tags.len(), 1, "every duplicate got the same verdict");
    }
}
