//! `grade serve` — a persistent grading daemon speaking a versioned NDJSON
//! request/response protocol over stdin/stdout.
//!
//! The paper's RATest deployment was a long-lived service students queried
//! interactively all semester. This module is that shape: one process stays
//! up, holds **warm per-reference state** (the prepared [`Session`] inside a
//! [`Grader`] plus its verdict cache), and answers each request line with
//! one response line — so a re-grade of an already-seen submission performs
//! **zero counterexample searches**, and a whole cohort can be graded one
//! interactive request at a time. The container has no network, so stdio is
//! the transport; any process supervisor or socket relay can wrap it.
//!
//! ## Protocol (`ratest-serve` version 3)
//!
//! One JSON object per line, in both directions. The daemon starts by
//! announcing itself:
//!
//! ```text
//! {"event":"protocol","name":"ratest-serve","version":3}
//! ```
//!
//! Requests carry a `cmd` field; every request produces exactly one
//! response object with an `ok` field (plus zero or more `event` lines
//! before it when streaming is requested):
//!
//! | cmd        | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `hello`    | — capability probe, echoes the protocol version               |
//! | `prepare`  | `ref`, and `question` (1–8) *or* `lang`+`source`; optional `db_tuples`, `seed`, `params` (object), `timeout_ms` |
//! | `grade`    | `ref`, `id`, `lang`, `source`; optional `author`, `events`, `explain`, `repair` |
//! | `stats`    | optional `ref` — counters for one reference, or daemon-scope occupancy without it |
//! | `sync`     | — flush unpersisted verdicts to the `--cache` store            |
//! | `shutdown` | — acknowledge and exit                                        |
//!
//! A `grade` with `"events":true` streams the session's typed progress
//! events ([`ratest_core::session::ExplainEvent`]) as NDJSON lines before
//! the response. A `grade` with `"repair":true` additionally runs the
//! provenance-directed repair search (see [`ratest_repair`]) on a wrong
//! verdict: candidate progress streams as `repair_*` events, and the
//! response's `suggestions` array carries the ranked, confirmed fixes. All
//! emitted fields are **deterministic** (no wall-clock readings), so a
//! scripted conversation replayed against a fresh daemon produces
//! byte-identical output — pinned by the protocol goldens in
//! `tests/serve_protocol.rs` and the `serve-protocol` CI job.
//!
//! ## Version 3: semester-scale serving
//!
//! v3 (see [`ServeConfig`]) adds the survivability layer the course
//! deployment needs:
//!
//! - **Concurrency** — with `threads > 1`, `grade` requests run
//!   thread-per-request over the engine's thread-safe warm state. Every
//!   event line carries its request's `id`, each line is written atomically,
//!   and a request's events always precede its response — so interleaved
//!   streams stay parseable by filtering on `id`. `prepare`, `stats`,
//!   `sync`, and `shutdown` act as barriers: the daemon drains in-flight
//!   grades before answering them.
//! - **Admission control** — at most `threads` grades run at once; a
//!   request that cannot be admitted within `admit_timeout_ms` (a
//!   [`Budget`] deadline) is rejected with a `"verdict":"timeout"` response
//!   carrying `"overloaded":true`. The daemon never hangs and never
//!   queues unboundedly.
//! - **LRU eviction** — `warm_cap` bounds the number of warm references;
//!   preparing one more evicts the least-recently-used (its unpersisted
//!   verdicts are flushed to the store first when one is configured). This
//!   is the daemon's only eviction path: each reference owns one engine
//!   holding one context, and the engine never evicts.
//! - **Persistence** — with a `cache` store, verdicts land in the same
//!   append-only file `grade --cache` uses; a restarted daemon preloads it
//!   at `prepare` time, so re-grades after a crash perform zero
//!   counterexample searches. Records that fail to load are named on
//!   stderr.
//! - **Disconnect tolerance** — a client vanishing mid-stream (`EPIPE`) is
//!   a clean shutdown: the daemon drains in-flight work, flushes the store,
//!   and exits 0.
//! - **Ingestion memo** — each warm reference remembers what ingesting a
//!   source gave, keyed by `(lang, source text)`: the parsed, typechecked
//!   query with its canonical fingerprint, or the frontend's rejection. A
//!   resubmitted source (a cohort resubmits most of its answers) skips the
//!   parse, the typecheck and the fingerprint. The outcome depends only on
//!   the language, the text and the reference's instance, so the memo is
//!   exact: every response is byte-identical to a cold ingest. It lives and
//!   dies with the reference's warm state (an eviction or a re-`prepare`
//!   starts an empty one) and holds at most [`INGEST_MEMO_CAP`] sources;
//!   past that, new sources are compiled without being remembered.
//!
//! Frontend rejections are *successful* gradings with a `rejected` verdict
//! (the diagnostic is the answer); only malformed requests — including a
//! line that is not UTF-8 — get `"ok":false`.
//!
//! [`Session`]: ratest_core::session::Session

use crate::api::ExplainRequest;
use crate::engine::{Grader, GraderConfig};
use crate::ingest::{compile_submission, IngestEntry, SourceLang};
use crate::json::Json;
use crate::report::suggestions_json;
use crate::store;
use crate::verdict::Verdict;
use ratest_core::pipeline::RatestOptions;
use ratest_core::session::{Budget, EventHandle, EventSink, ExplainEvent};
use ratest_queries::course::course_questions;
use ratest_ra::ast::Query;
use ratest_storage::{Database, Value};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Protocol name announced in the banner.
pub const PROTOCOL_NAME: &str = "ratest-serve";
/// Protocol version; bump on any wire-visible change (the goldens pin it).
/// v2 added the `repair` opt-in on `grade` (suggestions + `repair_*`
/// events). v3 added concurrent grading, admission control
/// (`"overloaded":true` rejects), warm-reference LRU eviction, the `sync`
/// command, daemon-scope `stats`, and the `warm_refs`/`preloaded` fields on
/// `prepare`.
pub const PROTOCOL_VERSION: i64 = 3;

/// Most distinct sources one warm reference's ingestion memo holds. The
/// perfbench semester traffic (a cohort per question, each wrong answer
/// resubmitted, then the fix) peaks at 12 per reference; the cap leaves
/// 5× headroom for a larger cohort and bounds a reference's memo when
/// sources never repeat.
pub const INGEST_MEMO_CAP: usize = 64;

/// Runtime configuration for [`serve_with`] — everything the `grade serve`
/// flags control.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently-running `grade` requests. `1` (the default)
    /// preserves the fully sequential v2 behavior: every response follows
    /// its request in order.
    pub threads: usize,
    /// Maximum warm prepared references held at once; preparing one more
    /// evicts the least-recently-used. `None` = unbounded.
    pub warm_cap: Option<usize>,
    /// Append-only verdict store (the `grade --cache` format): preloaded at
    /// `prepare` time, flushed on eviction, `sync`, and shutdown.
    pub cache: Option<PathBuf>,
    /// How long an over-capacity `grade` request waits for a slot before it
    /// is rejected with an `"overloaded":true` timeout verdict. `0` rejects
    /// immediately.
    pub admit_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 1,
            warm_cap: None,
            cache: None,
            admit_timeout_ms: 30_000,
        }
    }
}

/// Recover a usable guard from a possibly-poisoned lock. The daemon's
/// invariants hold at every await point (worker panics are converted to
/// error verdicts before locks unwind), so a poisoned output or admission
/// lock means a dead thread, not corrupt state — one failed request must
/// not take down the whole semester's daemon.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Warm state for one prepared reference.
struct RefState {
    label: String,
    db: Database,
    grader: Grader,
    /// The prepared grading context: established once at `prepare`, so the
    /// per-request path never re-hashes the instance.
    context: crate::engine::GradeContext,
    fingerprint: u64,
    /// Registry snapshot taken right after the prepare-time warmup probe:
    /// `stats` reports counter deltas against it, so the probe's search and
    /// cache miss never count as student gradings.
    baseline: ratest_telemetry::MetricsSnapshot,
    /// What each distinct source graded against this reference ingested to.
    ingested: IngestMemo,
}

/// What ingesting one source against a reference's instance gave.
#[derive(Clone)]
enum Ingested {
    /// The frontend accepted the source: its query and canonical
    /// fingerprint.
    Accepted { query: Arc<Query>, fingerprint: u64 },
    /// The frontend rejected it ([`Verdict::Rejected`]).
    Rejected(Verdict),
}

/// One warm reference's ingestion memo (see the [module docs](self)):
/// outcomes by source text, one map per [`SourceLang`].
#[derive(Default)]
struct IngestMemo {
    by_lang: Mutex<[HashMap<String, Ingested>; 2]>,
    /// Sources compiled so far, remembered or not.
    #[cfg(test)]
    compiled: std::sync::atomic::AtomicUsize,
}

impl IngestMemo {
    /// Ingest `source` against `db`: remembered when this reference has
    /// seen the text before, compiled (and remembered while under the cap)
    /// otherwise. `id` and `author` do not affect the outcome.
    fn ingest(
        &self,
        id: &str,
        author: &str,
        lang: SourceLang,
        source: &str,
        db: &Database,
    ) -> Ingested {
        let slot = lang as usize;
        if let Some(seen) = lock(&self.by_lang)[slot].get(source) {
            return seen.clone();
        }
        let ingested = match compile_submission(id, author, lang, source, db) {
            IngestEntry::Parsed(submission) => Ingested::Accepted {
                fingerprint: ratest_ra::canonical::fingerprint(&submission.query),
                query: Arc::new(submission.query),
            },
            IngestEntry::Rejected(r) => Ingested::Rejected(r.verdict),
        };
        #[cfg(test)]
        self.compiled.fetch_add(1, Ordering::Relaxed);
        let mut by_lang = lock(&self.by_lang);
        if by_lang.iter().map(HashMap::len).sum::<usize>() < INGEST_MEMO_CAP {
            by_lang[slot].insert(source.to_owned(), ingested.clone());
        }
        ingested
    }

    /// Number of sources remembered.
    #[cfg(test)]
    fn len(&self) -> usize {
        lock(&self.by_lang).iter().map(HashMap::len).sum()
    }
}

/// Warm references in LRU order: a clock-stamped map where eviction removes
/// the minimum stamp. O(n) eviction scans are fine — `warm_cap` is small
/// (course-scale), and prepare is already the expensive path.
#[derive(Default)]
struct RefLru {
    map: HashMap<String, (Arc<RefState>, u64)>,
    clock: u64,
}

impl RefLru {
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Look up a reference and mark it most-recently-used.
    fn touch(&mut self, id: &str) -> Option<Arc<RefState>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(id).map(|slot| {
            slot.1 = clock;
            slot.0.clone()
        })
    }

    /// Insert (or replace) a reference as most-recently-used; returns the
    /// replaced state on re-prepare so its verdicts can be flushed.
    fn insert(&mut self, id: String, state: Arc<RefState>) -> Option<Arc<RefState>> {
        self.clock += 1;
        self.map.insert(id, (state, self.clock)).map(|(old, _)| old)
    }

    /// Evict least-recently-used references until at most `cap` remain
    /// (never fewer than one — the reference just prepared stays warm).
    fn evict_over(&mut self, cap: usize) -> Vec<Arc<RefState>> {
        let mut evicted = Vec::new();
        while self.map.len() > cap.max(1) {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(id, _)| id.clone())
                .expect("non-empty map has a minimum stamp");
            let (state, _) = self.map.remove(&victim).expect("victim key present");
            evicted.push(state);
        }
        evicted
    }

    /// All warm references in deterministic (id) order.
    fn in_id_order(&self) -> Vec<&Arc<RefState>> {
        let mut refs: Vec<(&String, &Arc<RefState>)> = self
            .map
            .iter()
            .map(|(id, (state, _))| (id, state))
            .collect();
        refs.sort_by_key(|(id, _)| *id);
        refs.into_iter().map(|(_, state)| state).collect()
    }
}

/// Admission gate: a counted semaphore over in-flight `grade` threads.
/// `drain` doubles as the barrier the sequential commands wait on.
#[derive(Default)]
struct Inflight {
    count: Mutex<usize>,
    cv: Condvar,
}

impl Inflight {
    /// Try to claim a slot, waiting until the budget's deadline runs out.
    /// Returns `false` on rejection — the caller answers with an overload
    /// verdict instead of queueing unboundedly.
    fn acquire(&self, cap: usize, budget: &Budget) -> bool {
        let mut count = lock(&self.count);
        loop {
            if *count < cap {
                *count += 1;
                return true;
            }
            if budget.poll().is_some() {
                return false;
            }
            count = self
                .cv
                .wait_timeout(count, Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn release(&self) {
        let mut count = lock(&self.count);
        *count = count.saturating_sub(1);
        self.cv.notify_all();
    }

    /// Block until every in-flight grade has released its slot.
    fn drain(&self) {
        let mut count = lock(&self.count);
        while *count > 0 {
            count = self
                .cv
                .wait_timeout(count, Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// The event sink of **one** streamed `grade` request: it owns its
/// submission id and writes NDJSON lines until [`RequestSink::retire`]d.
/// Per-request ownership is what keeps attribution correct: if a timed-out
/// job's thread is still unwinding when the next request starts, the stale
/// thread holds *this* (retired, silent) sink — it can never emit under the
/// next request's id.
struct RequestSink<W: Write + Send> {
    out: Arc<Mutex<W>>,
    id: String,
    live: AtomicBool,
    /// Shared daemon-wide disconnect flag: a failed event write marks the
    /// client gone so the main loop can wind down cleanly instead of
    /// grinding through the rest of the script.
    disconnected: Arc<AtomicBool>,
}

impl<W: Write + Send> RequestSink<W> {
    fn new(out: Arc<Mutex<W>>, id: &str, disconnected: Arc<AtomicBool>) -> Arc<RequestSink<W>> {
        Arc::new(RequestSink {
            out,
            id: id.to_owned(),
            live: AtomicBool::new(true),
            disconnected,
        })
    }

    /// Stop emitting: the request is answered. Taking the output lock makes
    /// retirement atomic with any in-flight [`EventSink::emit`] — once this
    /// returns, no event line for this request can appear after the
    /// response line that follows.
    fn retire(&self) {
        let _out = lock(&self.out);
        self.live.store(false, Ordering::Relaxed);
    }
}

impl<W: Write + Send> EventSink for RequestSink<W> {
    fn emit(&self, event: &ExplainEvent) {
        let id = self.id.as_str();
        let json = match event {
            ExplainEvent::PhaseStarted { phase } => Json::obj(vec![
                ("event", Json::str("phase")),
                ("id", Json::str(id)),
                ("phase", Json::str(phase.name())),
            ]),
            ExplainEvent::CandidateChecked { index, best_size } => {
                let mut pairs = vec![
                    ("event", Json::str("candidate")),
                    ("id", Json::str(id)),
                    ("index", Json::Int(*index as i64)),
                ];
                if let Some(best) = best_size {
                    pairs.push(("best", Json::Int(*best as i64)));
                }
                Json::obj(pairs)
            }
            ExplainEvent::SolverStats {
                variables,
                solution_size,
            } => {
                let mut pairs = vec![
                    ("event", Json::str("solver")),
                    ("id", Json::str(id)),
                    ("variables", Json::Int(*variables as i64)),
                ];
                if let Some(size) = solution_size {
                    pairs.push(("solution", Json::Int(*size as i64)));
                }
                Json::obj(pairs)
            }
            ExplainEvent::Verdict {
                agrees,
                counterexample_size,
                class,
                algorithm,
            } => {
                let mut pairs = vec![
                    ("event", Json::str("verdict")),
                    ("id", Json::str(id)),
                    ("agrees", Json::Bool(*agrees)),
                ];
                if let Some(size) = counterexample_size {
                    pairs.push(("counterexample_size", Json::Int(*size as i64)));
                }
                pairs.push(("class", Json::str(class.to_string())));
                pairs.push(("algorithm", Json::str(format!("{algorithm:?}"))));
                Json::obj(pairs)
            }
            ExplainEvent::RepairStarted { candidates } => Json::obj(vec![
                ("event", Json::str("repair_started")),
                ("id", Json::str(id)),
                ("candidates", Json::Int(*candidates as i64)),
            ]),
            ExplainEvent::RepairCandidateChecked { index, confirmed } => Json::obj(vec![
                ("event", Json::str("repair_candidate")),
                ("id", Json::str(id)),
                ("index", Json::Int(*index as i64)),
                ("confirmed", Json::Bool(*confirmed)),
            ]),
            ExplainEvent::RepairFinished { suggestions, tried } => Json::obj(vec![
                ("event", Json::str("repair_finished")),
                ("id", Json::str(id)),
                ("suggestions", Json::Int(*suggestions as i64)),
                ("tried", Json::Int(*tried as i64)),
            ]),
        };
        let mut out = lock(&self.out);
        // Checked under the lock so a concurrent retire() fully serializes
        // against this write (events strictly precede the response; a stale
        // thread from a timed-out job stays silent).
        if !self.live.load(Ordering::Relaxed) {
            return;
        }
        if writeln!(out, "{}", json.render())
            .and_then(|_| out.flush())
            .is_err()
        {
            // The client is gone; grading continues (the verdict still
            // lands in the cache/store) but this stream goes quiet.
            self.live.store(false, Ordering::Relaxed);
            self.disconnected.store(true, Ordering::Relaxed);
        }
    }
}

/// Run the daemon loop with the default (sequential, unbounded, storeless)
/// configuration: read NDJSON requests from `input`, write responses (and
/// streamed events) to `output`, until `shutdown` or EOF.
pub fn serve<R: BufRead, W: Write + Send + 'static>(input: R, output: W) -> io::Result<()> {
    serve_with(input, output, ServeConfig::default())
}

/// [`serve`] with explicit [`ServeConfig`] — the `grade serve` entry point
/// once flags are parsed.
pub fn serve_with<R: BufRead, W: Write + Send + 'static>(
    input: R,
    output: W,
    config: ServeConfig,
) -> io::Result<()> {
    let mut daemon = Daemon::new(config, output)?;
    let out = daemon.out.clone();
    let disconnected = daemon.disconnected.clone();

    let banner = Json::obj(vec![
        ("event", Json::str("protocol")),
        ("name", Json::str(PROTOCOL_NAME)),
        ("version", Json::Int(PROTOCOL_VERSION)),
    ]);
    if let Err(e) = write_line(&out, &banner) {
        if is_disconnect(&e) {
            return Ok(());
        }
        return Err(e);
    }

    let mut result = Ok(());
    let mut input = input;
    let mut raw = Vec::new();
    while !disconnected.load(Ordering::Relaxed) {
        // Raw bytes, not `lines()`: a non-UTF-8 request is one protocol
        // error, not the end of the transport.
        raw.clear();
        match input.read_until(b'\n', &mut raw) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                result = Err(e);
                break;
            }
        }
        if raw.ends_with(b"\n") {
            raw.pop();
            if raw.ends_with(b"\r") {
                raw.pop();
            }
        }
        let flow = match std::str::from_utf8(&raw) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => daemon.dispatch(line),
            Err(e) => Flow::Respond(error_response(None, format!("request is not UTF-8: {e}"))),
        };
        match flow {
            Flow::Spawned => {}
            Flow::Respond(response) => {
                if let Err(e) = write_line(&out, &response) {
                    if !is_disconnect(&e) {
                        result = Err(e);
                    }
                    break;
                }
            }
            Flow::Shutdown(response) => {
                if let Err(e) = write_line(&out, &response) {
                    if !is_disconnect(&e) {
                        result = Err(e);
                    }
                }
                break;
            }
        }
    }

    // Wind-down — reached on shutdown, EOF, *and* client disconnect alike:
    // every in-flight verdict finishes and lands in the store before exit,
    // so a vanished client (`EPIPE`) is a clean `Ok(())`, not a crash.
    daemon.inflight.drain();
    let flush = daemon.flush_all().map(|_| ()).map_err(store_io_error);
    result.and(flush)
}

fn store_io_error(e: store::StoreError) -> io::Error {
    io::Error::other(format!("verdict store: {e}"))
}

/// Whether a write error means the client went away (as opposed to a real
/// I/O fault). `EPIPE` and its cousins are a clean shutdown signal.
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::WriteZero
    )
}

fn write_line<W: Write>(out: &Arc<Mutex<W>>, json: &Json) -> io::Result<()> {
    let mut out = lock(out);
    writeln!(out, "{}", json.render())?;
    out.flush()
}

fn error_response(cmd: Option<&str>, message: impl Into<String>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(false))];
    if let Some(cmd) = cmd {
        pairs.push(("cmd", Json::str(cmd)));
    }
    pairs.push(("error", Json::str(message.into())));
    Json::obj(pairs)
}

/// What the main loop does with one request line.
enum Flow {
    /// Write this response now (the command ran inline).
    Respond(Json),
    /// A grade thread was spawned; it writes its own response.
    Spawned,
    /// Write this response, then exit the loop.
    Shutdown(Json),
}

/// All daemon state, owned by the main loop. `grade` is the only command
/// that leaves this thread; everything else runs behind a drain barrier.
struct Daemon<W: Write + Send + 'static> {
    config: ServeConfig,
    refs: RefLru,
    store: Option<store::Store>,
    inflight: Arc<Inflight>,
    evictions: u64,
    out: Arc<Mutex<W>>,
    disconnected: Arc<AtomicBool>,
}

impl<W: Write + Send + 'static> Daemon<W> {
    /// A daemon with no warm reference, writing to `output`; opens the
    /// configured store.
    fn new(config: ServeConfig, output: W) -> io::Result<Daemon<W>> {
        let store = match config.cache.clone() {
            Some(path) => {
                let store = store::Store::open(path).map_err(store_io_error)?;
                store.report_skipped();
                Some(store)
            }
            None => None,
        };
        Ok(Daemon {
            config,
            refs: RefLru::default(),
            store,
            inflight: Arc::new(Inflight::default()),
            evictions: 0,
            out: Arc::new(Mutex::new(output)),
            disconnected: Arc::new(AtomicBool::new(false)),
        })
    }

    fn dispatch(&mut self, line: &str) -> Flow {
        let request = match Json::parse(line) {
            Ok(json) => json,
            Err(e) => {
                return Flow::Respond(error_response(None, format!("request is not JSON: {e}")))
            }
        };
        let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
            return Flow::Respond(error_response(None, "request has no `cmd` field"));
        };
        match cmd {
            "hello" => Flow::Respond(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("cmd", Json::str("hello")),
                ("protocol", Json::str(PROTOCOL_NAME)),
                ("version", Json::Int(PROTOCOL_VERSION)),
            ])),
            "grade" => self.dispatch_grade(request),
            // Everything below reads or mutates daemon-wide state, so it
            // waits out in-flight grades first — which also guarantees that
            // by the time `stats` (or the shutdown ack) is written, every
            // earlier grade's response line is already on the wire.
            "prepare" => {
                self.inflight.drain();
                Flow::Respond(self.cmd_prepare(&request))
            }
            "stats" => {
                self.inflight.drain();
                Flow::Respond(self.cmd_stats(&request))
            }
            "sync" => {
                self.inflight.drain();
                Flow::Respond(self.cmd_sync())
            }
            "shutdown" => {
                self.inflight.drain();
                Flow::Shutdown(Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("cmd", Json::str("shutdown")),
                ]))
            }
            other => Flow::Respond(error_response(
                Some(other),
                format!("unknown command `{other}`"),
            )),
        }
    }

    /// Route a `grade`: inline when sequential, thread-per-request when
    /// concurrent — with admission control so a flood is rejected (with a
    /// verdict) instead of queueing unboundedly.
    fn dispatch_grade(&mut self, request: Json) -> Flow {
        let ref_id = match ref_field(&request, "grade") {
            Ok(r) => r.to_owned(),
            Err(e) => return Flow::Respond(e),
        };
        let Some(state) = self.refs.touch(&ref_id) else {
            return Flow::Respond(error_response(
                Some("grade"),
                format!("unknown reference `{ref_id}` — `prepare` it first"),
            ));
        };
        let Some(id) = request.get("id").and_then(Json::as_str).map(str::to_owned) else {
            return Flow::Respond(error_response(Some("grade"), "missing `id` field"));
        };
        // Counted at admission, so `stats.graded` = grade requests accepted
        // for this reference (overload rejects included: the daemon did
        // answer them).
        state.grader.metrics().counter_inc("serve.requests.grade");
        if self.config.threads <= 1 {
            return Flow::Respond(cmd_grade(
                &request,
                &ref_id,
                &state,
                &self.out,
                &self.disconnected,
            ));
        }
        let admit =
            Budget::unlimited().with_deadline(Duration::from_millis(self.config.admit_timeout_ms));
        if !self.inflight.acquire(self.config.threads, &admit) {
            let author = request
                .get("author")
                .and_then(Json::as_str)
                .unwrap_or(&id)
                .to_owned();
            return Flow::Respond(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("cmd", Json::str("grade")),
                ("ref", Json::str(&ref_id)),
                ("id", Json::str(&id)),
                ("author", Json::str(&author)),
                ("verdict", Json::str("timeout")),
                ("from_cache", Json::Bool(false)),
                ("timeout_ms", Json::Int(self.config.admit_timeout_ms as i64)),
                ("overloaded", Json::Bool(true)),
            ]));
        }
        let out = self.out.clone();
        let disconnected = self.disconnected.clone();
        let inflight = self.inflight.clone();
        std::thread::spawn(move || {
            // The slot is released no matter what: a panicking handler must
            // not wedge the drain barrier (the engine already converts
            // grading panics into error verdicts, so this is belt and
            // braces for the serve plumbing itself).
            let response = catch_unwind(AssertUnwindSafe(|| {
                cmd_grade(&request, &ref_id, &state, &out, &disconnected)
            }))
            .unwrap_or_else(|_| error_response(Some("grade"), "request handler panicked"));
            if let Err(e) = write_line(&out, &response) {
                if is_disconnect(&e) {
                    disconnected.store(true, Ordering::Relaxed);
                }
            }
            inflight.release();
        });
        Flow::Spawned
    }

    fn cmd_prepare(&mut self, request: &Json) -> Json {
        let ref_id = match ref_field(request, "prepare") {
            Ok(r) => r.to_owned(),
            Err(e) => return e,
        };
        let db_tuples = request
            .get("db_tuples")
            .and_then(Json::as_i64)
            .unwrap_or(60)
            .max(0) as usize;
        // The instance is generated daemon-side; cap it so one request
        // cannot stall request intake on data generation alone.
        const MAX_DB_TUPLES: usize = 100_000;
        if db_tuples > MAX_DB_TUPLES {
            return error_response(
                Some("prepare"),
                format!("db_tuples {db_tuples} exceeds the daemon cap of {MAX_DB_TUPLES}"),
            );
        }
        let seed = request.get("seed").and_then(Json::as_i64).unwrap_or(2019) as u64;
        let timeout_ms = request
            .get("timeout_ms")
            .and_then(Json::as_i64)
            .unwrap_or(30_000)
            .max(0) as u64;

        let db = ratest_datagen::university_database(&ratest_datagen::UniversityConfig {
            total_tuples: db_tuples,
            seed,
            ..Default::default()
        });

        // Resolve the reference: a course question number or inline source.
        let (label, reference) = if let Some(n) = request.get("question").and_then(Json::as_i64) {
            match course_questions()
                .into_iter()
                .find(|q| q.number == n as usize)
            {
                Some(q) => (q.prompt.to_owned(), q.reference),
                None => {
                    return error_response(
                        Some("prepare"),
                        format!("no course question {n} (valid: 1..8)"),
                    )
                }
            }
        } else {
            let lang: SourceLang = match request
                .get("lang")
                .and_then(Json::as_str)
                .unwrap_or("sql")
                .parse()
            {
                Ok(l) => l,
                Err(e) => return error_response(Some("prepare"), e),
            };
            let Some(source) = request.get("source").and_then(Json::as_str) else {
                return error_response(Some("prepare"), "prepare needs `question` or `source`");
            };
            match compile_submission(&ref_id, &ref_id, lang, source, &db) {
                IngestEntry::Parsed(s) => (format!("reference {ref_id}"), s.query),
                IngestEntry::Rejected(r) => {
                    return error_response(
                        Some("prepare"),
                        format!("reference does not compile: {}", r.rendered),
                    )
                }
            }
        };

        let mut options = RatestOptions::default();
        // Reference preparation (evaluate + annotate) runs under the same
        // wall-clock bound as grading, so a flooding inline reference cannot
        // hang the daemon. The deadline is fixed at prepare time; that is
        // safe because with `timeout_ms > 0` every grade request runs under
        // its own fresh per-job budget, and with `timeout_ms == 0` the user
        // explicitly asked for no limits at all.
        if timeout_ms > 0 {
            options.budget = Budget::unlimited().with_deadline(Duration::from_millis(timeout_ms));
        }
        if let Some(Json::Obj(pairs)) = request.get("params") {
            for (name, value) in pairs {
                let value = match value {
                    Json::Int(i) => Value::Int(*i),
                    Json::Str(s) => Value::from(s.as_str()),
                    other => {
                        return error_response(
                            Some("prepare"),
                            format!("param `{name}` must be an int or string, got {other:?}"),
                        )
                    }
                };
                options.parameters.insert(name.clone(), value);
            }
        }
        // One engine per reference, holding exactly one context: the
        // whole engine is what `RefLru` evicts. Repair is a per-request
        // opt-in on `grade`, never ambient state.
        let grader = Grader::new(GraderConfig {
            workers: 1,
            per_job_timeout: Duration::from_millis(timeout_ms),
            options,
            repair: None,
        });

        // Warm the session now: the context is established (instance
        // hashed, reference evaluated + annotated) exactly once, at prepare
        // time; every grade request reuses the handle. A failure here (e.g.
        // a reference that does not evaluate) is a prepare error.
        let context = match grader.prepare_context(&reference, &db) {
            Ok(c) => c,
            Err(e) => return error_response(Some("prepare"), e.to_string()),
        };
        // Preload stored verdicts *before* the warmup probe: on a restart
        // the probe itself is answered from the store, so a prepared-again
        // reference performs zero counterexample searches.
        let preloaded = self.store.as_ref().map(|store| {
            let stored = store
                .entries()
                .iter()
                .filter(|e| e.context == context.key());
            grader.preload_cache(stored.cloned()) as i64
        });
        let probe = ExplainRequest::new("__warmup__", "__warmup__", reference);
        if let Err(e) = grader.respond(context, &probe, EventHandle::none(), None) {
            return error_response(Some("prepare"), e.to_string());
        }
        let shared_annotation = grader.shared_annotation_for(context).unwrap_or(false);

        let baseline = grader.metrics_snapshot();
        let state = Arc::new(RefState {
            label,
            db,
            grader,
            context,
            fingerprint: probe.fingerprint(),
            baseline,
            ingested: IngestMemo::default(),
        });

        let mut displaced: Vec<Arc<RefState>> = Vec::new();
        displaced.extend(self.refs.insert(ref_id.clone(), state.clone()));
        if let Some(cap) = self.config.warm_cap {
            let evicted = self.refs.evict_over(cap);
            self.evictions += evicted.len() as u64;
            displaced.extend(evicted);
        }
        if let Err(e) = flush(self.store.as_mut(), &displaced) {
            return error_response(
                Some("prepare"),
                format!("flushing evicted reference failed: {e}"),
            );
        }

        let mut pairs = vec![
            ("ok", Json::Bool(true)),
            ("cmd", Json::str("prepare")),
            ("ref", Json::str(&ref_id)),
            ("label", Json::str(&state.label)),
            (
                "fingerprint",
                Json::str(format!("{:016x}", state.fingerprint)),
            ),
            ("shared_annotation", Json::Bool(shared_annotation)),
            ("db_tuples", Json::Int(state.db.total_tuples() as i64)),
            ("seed", Json::Int(seed as i64)),
            ("warm_refs", Json::Int(self.refs.len() as i64)),
        ];
        if let Some(preloaded) = preloaded {
            pairs.push(("preloaded", Json::Int(preloaded)));
        }
        Json::obj(pairs)
    }

    fn cmd_stats(&mut self, request: &Json) -> Json {
        let Some(ref_id) = request.get("ref").and_then(Json::as_str) else {
            return self.cmd_stats_daemon();
        };
        let Some(state) = self.refs.touch(ref_id) else {
            return error_response(Some("stats"), format!("unknown reference `{ref_id}`"));
        };
        // Every headline figure is a registry delta against the post-warmup
        // baseline, so the prepare-time probe never counts as a student
        // grading — the old hand-maintained counters (and the `- 1` warmup
        // hack) are gone. The full deterministic registry rides along under
        // `metrics` (volatile durations structurally stripped, keeping the
        // reply byte-reproducible).
        let snapshot = state.grader.metrics_snapshot();
        let since = |name: &str| Json::Int(snapshot.counter_since(&state.baseline, name) as i64);
        let metrics =
            Json::parse(&snapshot.to_json(false)).expect("registry snapshot renders valid JSON");
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("cmd", Json::str("stats")),
            ("ref", Json::str(ref_id)),
            ("graded", since("serve.requests.grade")),
            ("cache_hits", since("grader.cache_hits")),
            ("cache_misses", since("grader.cache_misses")),
            ("searches", since("grader.searches")),
            (
                "cached_verdicts",
                Json::Int(state.grader.cached_verdicts() as i64),
            ),
            ("metrics", metrics),
        ])
    }

    /// `stats` without a `ref`: daemon-scope occupancy. Counters sum the
    /// per-reference deltas of the *currently warm* references (an evicted
    /// reference takes its counts with it — the store keeps its verdicts).
    fn cmd_stats_daemon(&self) -> Json {
        let mut graded = 0i64;
        let mut searches = 0i64;
        for state in self.refs.in_id_order() {
            let snapshot = state.grader.metrics_snapshot();
            graded += snapshot.counter_since(&state.baseline, "serve.requests.grade") as i64;
            searches += snapshot.counter_since(&state.baseline, "grader.searches") as i64;
        }
        let mut pairs = vec![
            ("ok", Json::Bool(true)),
            ("cmd", Json::str("stats")),
            ("scope", Json::str("daemon")),
            ("protocol_version", Json::Int(PROTOCOL_VERSION)),
            ("threads", Json::Int(self.config.threads as i64)),
            ("warm_refs", Json::Int(self.refs.len() as i64)),
            (
                "warm_cap",
                self.config
                    .warm_cap
                    .map(|c| Json::Int(c as i64))
                    .unwrap_or(Json::Null),
            ),
            ("evictions", Json::Int(self.evictions as i64)),
            ("graded", Json::Int(graded)),
            ("searches", Json::Int(searches)),
        ];
        match &self.store {
            Some(store) => {
                pairs.push(("persisted", Json::Int(store.persisted() as i64)));
                pairs.push(("appended", Json::Int(store.appended() as i64)));
            }
            None => {
                pairs.push(("persisted", Json::Null));
                pairs.push(("appended", Json::Null));
            }
        }
        Json::obj(pairs)
    }

    /// Flush every warm reference's unpersisted verdicts to the store.
    fn cmd_sync(&mut self) -> Json {
        if self.store.is_none() {
            return error_response(Some("sync"), "daemon has no --cache store configured");
        }
        match self.flush_all() {
            Ok(appended) => {
                let store = self.store.as_ref().expect("store checked above");
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("cmd", Json::str("sync")),
                    ("appended", Json::Int(appended as i64)),
                    ("persisted", Json::Int(store.persisted() as i64)),
                ])
            }
            Err(e) => error_response(Some("sync"), format!("verdict store append failed: {e}")),
        }
    }

    /// Flush all warm references (deterministic id order); returns how many
    /// entries were appended.
    fn flush_all(&mut self) -> Result<u64, store::StoreError> {
        flush(self.store.as_mut(), self.refs.in_id_order())
    }
}

/// The daemon's one flush path: append each reference's unpersisted
/// verdicts to the store, in the order given; returns how many entries were
/// appended (none without a store).
fn flush<'a>(
    store: Option<&mut store::Store>,
    states: impl IntoIterator<Item = &'a Arc<RefState>>,
) -> Result<u64, store::StoreError> {
    let Some(store) = store else {
        return Ok(0);
    };
    let mut appended = 0;
    for state in states {
        appended += store.append_new(state.grader.cache_entries())?;
    }
    Ok(appended)
}

fn ref_field<'a>(request: &'a Json, cmd: &str) -> Result<&'a str, Json> {
    request
        .get("ref")
        .and_then(Json::as_str)
        .ok_or_else(|| error_response(Some(cmd), "missing `ref` field"))
}

/// Grade one submission against a warm reference. Runs on the main loop
/// when sequential and on its own thread when concurrent — it only touches
/// the (thread-safe) engine and the shared output lock, never the daemon's
/// mutable maps.
fn cmd_grade<W: Write + Send + 'static>(
    request: &Json,
    ref_id: &str,
    state: &RefState,
    out: &Arc<Mutex<W>>,
    disconnected: &Arc<AtomicBool>,
) -> Json {
    let Some(id) = request.get("id").and_then(Json::as_str) else {
        return error_response(Some("grade"), "missing `id` field");
    };
    let author = request
        .get("author")
        .and_then(Json::as_str)
        .unwrap_or(id)
        .to_owned();
    let lang: SourceLang = match request
        .get("lang")
        .and_then(Json::as_str)
        .unwrap_or("sql")
        .parse()
    {
        Ok(l) => l,
        Err(e) => return error_response(Some("grade"), e),
    };
    let Some(source) = request.get("source").and_then(Json::as_str) else {
        return error_response(Some("grade"), "missing `source` field");
    };
    let want_events = request
        .get("events")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let want_explanation = request
        .get("explain")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let want_repair = request
        .get("repair")
        .and_then(Json::as_bool)
        .unwrap_or(false);

    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("cmd", Json::str("grade")),
        ("ref", Json::str(ref_id)),
        ("id", Json::str(id)),
        ("author", Json::str(&author)),
    ];
    match state.ingested.ingest(id, &author, lang, source, &state.db) {
        Ingested::Rejected(verdict) => {
            // A frontend rejection is a verdict, not a protocol error.
            pairs.push(("fingerprint", Json::str(format!("{:016x}", 0))));
            pairs.push(("verdict", Json::str("rejected")));
            pairs.push(("from_cache", Json::Bool(false)));
            if let Verdict::Rejected {
                message,
                phase,
                kind,
                span,
            } = &verdict
            {
                pairs.push(("message", Json::str(message)));
                pairs.push(("phase", Json::str(phase)));
                pairs.push(("kind", Json::str(kind)));
                if let Some((start, end)) = span {
                    pairs.push((
                        "span",
                        Json::Arr(vec![Json::Int(*start as i64), Json::Int(*end as i64)]),
                    ));
                }
            }
            Json::obj(pairs)
        }
        Ingested::Accepted { query, fingerprint } => {
            // A per-request sink (not a shared gate): a stale thread from an
            // earlier timed-out job keeps its own retired sink and can never
            // emit under this request's id.
            let sink = want_events.then(|| RequestSink::new(out.clone(), id, disconnected.clone()));
            let events = match &sink {
                Some(sink) => EventHandle::new(sink.clone() as Arc<dyn EventSink>),
                None => EventHandle::none(),
            };
            let repair_options = want_repair.then(ratest_repair::RepairOptions::default);
            let outcome = state.grader.respond(
                state.context,
                &ExplainRequest::with_fingerprint(id, author.clone(), query, fingerprint),
                events,
                repair_options.as_ref(),
            );
            if let Some(sink) = &sink {
                sink.retire();
            }
            let response = match outcome {
                Ok(r) => r,
                Err(e) => return error_response(Some("grade"), e.to_string()),
            };
            pairs.push((
                "fingerprint",
                Json::str(format!("{:016x}", response.fingerprint)),
            ));
            pairs.push(("verdict", Json::str(response.verdict.tag())));
            pairs.push(("from_cache", Json::Bool(response.from_cache)));
            match &response.verdict {
                Verdict::Wrong {
                    counterexample,
                    class,
                    algorithm,
                    suggestions,
                    ..
                } => {
                    pairs.push((
                        "counterexample_size",
                        Json::Int(counterexample.size() as i64),
                    ));
                    pairs.push(("class", Json::str(class.to_string())));
                    pairs.push(("algorithm", Json::str(format!("{algorithm:?}"))));
                    if want_explanation {
                        pairs.push((
                            "explanation",
                            Json::str(ratest_core::report::render_counterexample(counterexample)),
                        ));
                    }
                    if want_repair {
                        pairs.push(("suggestions", suggestions_json(suggestions)));
                    }
                }
                Verdict::Error { message } => {
                    pairs.push(("message", Json::str(message)));
                }
                Verdict::Timeout { budget } => {
                    pairs.push(("timeout_ms", Json::Int(budget.as_millis() as i64)));
                }
                Verdict::Correct | Verdict::Rejected { .. } => {}
            }
            Json::obj(pairs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cloneable in-memory writer for driving the daemon in-process.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        pub(crate) fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn run(script: &str) -> String {
        let out = SharedBuf::default();
        serve(script.as_bytes(), out.clone()).unwrap();
        out.contents()
    }

    #[test]
    fn the_daemon_announces_its_protocol_and_answers_hello() {
        let out = run(r#"{"cmd":"hello"}"#);
        let mut lines = out.lines();
        let banner = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            banner.get("name").and_then(Json::as_str),
            Some(PROTOCOL_NAME)
        );
        assert_eq!(
            banner.get("version").and_then(Json::as_i64),
            Some(PROTOCOL_VERSION)
        );
        let hello = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(hello.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn a_non_utf8_request_line_is_one_error_not_the_end_of_the_daemon() {
        let out = SharedBuf::default();
        let input: &[u8] = b"{\"cmd\":\"hello\"}\n\xff\xfe\n{\"cmd\":\"hello\"}\n";
        serve(input, out.clone()).expect("a bad line is not a transport error");
        let docs: Vec<Json> = out
            .contents()
            .lines()
            .skip(1)
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[1].get("ok").and_then(Json::as_bool), Some(false));
        assert!(docs[1]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("UTF-8"));
        assert_eq!(docs[2].get("cmd").and_then(Json::as_str), Some("hello"));
    }

    #[test]
    fn malformed_and_unknown_requests_are_protocol_errors() {
        let out = run("not json\n{\"no_cmd\":1}\n{\"cmd\":\"nope\"}\n{\"cmd\":\"grade\",\"ref\":\"missing\",\"id\":\"s\",\"source\":\"x\"}");
        let errors: Vec<Json> = out
            .lines()
            .skip(1)
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(errors.len(), 4);
        for e in &errors {
            assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false), "{e:?}");
        }
        assert!(errors[3]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("prepare"));
    }

    #[test]
    fn a_conversation_grades_warm_regrades_and_shuts_down() {
        let script = r#"
{"cmd":"prepare","ref":"q3","question":3,"db_tuples":24,"seed":7}
{"cmd":"grade","ref":"q3","id":"s1.ra","lang":"ra","source":"project[s.name, s.major](join[s.name = r.name and r.dept = 'CS'](rename[s](Student), rename[r](Registration)))"}
{"cmd":"grade","ref":"q3","id":"s2.ra","lang":"ra","source":"project[s.name, s.major](join[s.name = r.name](rename[s](Student), rename[r](Registration)))"}
{"cmd":"grade","ref":"q3","id":"s1-again.ra","lang":"ra","source":"project[s.name, s.major](join[s.name = r.name and r.dept = 'CS'](rename[s](Student), rename[r](Registration)))"}
{"cmd":"stats","ref":"q3"}
{"cmd":"shutdown"}
"#;
        let out = run(script);
        let docs: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
        // banner, prepare, 3 grades, stats, shutdown
        assert_eq!(docs.len(), 7, "{out}");
        assert_eq!(docs[1].get("cmd").and_then(Json::as_str), Some("prepare"));
        assert_eq!(docs[1].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(docs[1].get("warm_refs").and_then(Json::as_i64), Some(1));

        // The warm re-grade of s1 is answered from cache.
        assert_eq!(
            docs[2].get("from_cache").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            docs[4].get("from_cache").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            docs[2].get("verdict").and_then(Json::as_str),
            docs[4].get("verdict").and_then(Json::as_str),
        );
        // Two distinct submissions → exactly two searches despite three grades.
        let stats = &docs[5];
        assert_eq!(stats.get("graded").and_then(Json::as_i64), Some(3));
        assert_eq!(stats.get("searches").and_then(Json::as_i64), Some(2));
        assert_eq!(stats.get("cache_hits").and_then(Json::as_i64), Some(1));
        assert_eq!(docs[6].get("cmd").and_then(Json::as_str), Some("shutdown"));
    }

    #[test]
    fn rejected_sources_are_verdicts_not_errors() {
        let script = r#"
{"cmd":"prepare","ref":"q1","question":1,"db_tuples":24,"seed":7,"params":{"minCS":1}}
{"cmd":"grade","ref":"q1","id":"bad.sql","lang":"sql","source":"SELECT nme FROM Student"}
{"cmd":"shutdown"}
"#;
        let out = run(script);
        let docs: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
        let graded = &docs[2];
        assert_eq!(graded.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            graded.get("verdict").and_then(Json::as_str),
            Some("rejected")
        );
        assert_eq!(graded.get("phase").and_then(Json::as_str), Some("resolve"));
        assert!(graded.get("span").is_some());
    }

    #[test]
    fn event_streaming_is_opt_in_and_deterministic() {
        let script = r#"
{"cmd":"prepare","ref":"q3","question":3,"db_tuples":24,"seed":7}
{"cmd":"grade","ref":"q3","id":"w.ra","lang":"ra","source":"project[s.name, s.major](join[s.name = r.name and r.dept = 'CS'](rename[s](Student), rename[r](Registration)))","events":true}
{"cmd":"shutdown"}
"#;
        let a = run(script);
        let b = run(script);
        assert_eq!(a, b, "two daemon runs are byte-identical");
        let events: Vec<Json> = a
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .filter(|d| d.get("event").and_then(Json::as_str) == Some("phase"))
            .collect();
        assert!(!events.is_empty(), "{a}");
        assert!(events
            .iter()
            .all(|e| e.get("id").and_then(Json::as_str) == Some("w.ra")));
        // The final event is the verdict, matching the response line.
        let verdict_events: Vec<Json> = a
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .filter(|d| d.get("event").and_then(Json::as_str) == Some("verdict"))
            .collect();
        assert_eq!(verdict_events.len(), 1);
        assert_eq!(
            verdict_events[0].get("agrees").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn daemon_scope_stats_report_occupancy() {
        let script = r#"
{"cmd":"prepare","ref":"q3","question":3,"db_tuples":24,"seed":7}
{"cmd":"grade","ref":"q3","id":"s1.ra","lang":"ra","source":"project[s.name, s.major](join[s.name = r.name](rename[s](Student), rename[r](Registration)))"}
{"cmd":"stats"}
{"cmd":"shutdown"}
"#;
        let out = run(script);
        let docs: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
        let stats = &docs[3];
        assert_eq!(stats.get("scope").and_then(Json::as_str), Some("daemon"));
        assert_eq!(stats.get("warm_refs").and_then(Json::as_i64), Some(1));
        assert_eq!(stats.get("warm_cap"), Some(&Json::Null));
        assert_eq!(stats.get("evictions").and_then(Json::as_i64), Some(0));
        assert_eq!(stats.get("graded").and_then(Json::as_i64), Some(1));
        assert_eq!(stats.get("searches").and_then(Json::as_i64), Some(1));
        assert_eq!(stats.get("persisted"), Some(&Json::Null));
    }

    #[test]
    fn sync_without_a_store_is_an_error() {
        let out = run("{\"cmd\":\"sync\"}\n{\"cmd\":\"shutdown\"}");
        let docs: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(docs[1].get("ok").and_then(Json::as_bool), Some(false));
        assert!(docs[1]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("--cache"));
    }

    /// A sequential daemon driven one request at a time.
    fn daemon(warm_cap: Option<usize>) -> Daemon<SharedBuf> {
        let config = ServeConfig {
            warm_cap,
            ..ServeConfig::default()
        };
        Daemon::new(config, SharedBuf::default()).unwrap()
    }

    /// The daemon's answer to one request line.
    fn ask(daemon: &mut Daemon<SharedBuf>, line: &str) -> Json {
        match daemon.dispatch(line) {
            Flow::Respond(json) | Flow::Shutdown(json) => json,
            Flow::Spawned => panic!("a sequential daemon answers in place"),
        }
    }

    fn grade_line(ref_id: &str, id: &str, lang: &str, source: &str) -> String {
        Json::obj(vec![
            ("cmd", Json::str("grade")),
            ("ref", Json::str(ref_id)),
            ("id", Json::str(id)),
            ("author", Json::str("ann")),
            ("lang", Json::str(lang)),
            ("source", Json::str(source)),
        ])
        .render()
    }

    /// `(remembered, compiled)`: sources in the reference's ingestion memo,
    /// and sources it compiled.
    fn ingestion(daemon: &Daemon<SharedBuf>, ref_id: &str) -> (usize, usize) {
        let memo = &daemon.refs.map[ref_id].0.ingested;
        (memo.len(), memo.compiled.load(Ordering::Relaxed))
    }

    /// A response without the fields named in `keys`.
    fn except(response: &Json, keys: &[&str]) -> Json {
        let Json::Obj(pairs) = response else {
            panic!("a response is an object: {response:?}")
        };
        Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .cloned()
                .collect(),
        )
    }

    const PREPARE_Q3: &str = r#"{"cmd":"prepare","ref":"q3","question":3,"db_tuples":24,"seed":7}"#;
    const WRONG_Q3: &str = "project[s.name, s.major](join[s.name = r.name](rename[s](Student), rename[r](Registration)))";

    #[test]
    fn a_resubmitted_source_is_compiled_once_and_answered_alike() {
        let mut d = daemon(None);
        ask(&mut d, PREPARE_Q3);
        let first = ask(&mut d, &grade_line("q3", "s1.ra", "ra", WRONG_Q3));
        let second = ask(&mut d, &grade_line("q3", "s2.ra", "ra", WRONG_Q3));
        let third = ask(&mut d, &grade_line("q3", "s3.ra", "ra", WRONG_Q3));
        assert_eq!(first.get("verdict").and_then(Json::as_str), Some("wrong"));
        assert_eq!(second.get("id").and_then(Json::as_str), Some("s2.ra"));
        // The first answer searched; the verdict cache answers the rest.
        assert_eq!(
            except(&first, &["id", "from_cache"]),
            except(&second, &["id", "from_cache"])
        );
        assert_eq!(except(&second, &["id"]), except(&third, &["id"]));
        assert_eq!(ingestion(&d, "q3"), (1, 1));
    }

    #[test]
    fn a_resubmitted_rejection_is_the_same_rejection() {
        let mut d = daemon(None);
        ask(
            &mut d,
            r#"{"cmd":"prepare","ref":"q1","question":1,"db_tuples":24,"seed":7,"params":{"minCS":1}}"#,
        );
        let source = "SELECT nme FROM Student";
        let first = ask(&mut d, &grade_line("q1", "bad.sql", "sql", source));
        let again = ask(&mut d, &grade_line("q1", "bad-again.sql", "sql", source));
        assert_eq!(
            first.get("verdict").and_then(Json::as_str),
            Some("rejected")
        );
        assert!(first.get("message").is_some() && first.get("span").is_some());
        assert_eq!(except(&first, &["id"]), except(&again, &["id"]));
        // The same text in the other language is another source.
        let as_ra = ask(&mut d, &grade_line("q1", "bad.ra", "ra", source));
        assert_eq!(as_ra.get("phase").and_then(Json::as_str), Some("parse"));
        assert_eq!(ingestion(&d, "q1"), (2, 2));
    }

    #[test]
    fn an_evicted_reference_prepared_again_compiles_its_sources_again() {
        let mut d = daemon(Some(1));
        ask(&mut d, PREPARE_Q3);
        let first = ask(&mut d, &grade_line("q3", "s1.ra", "ra", WRONG_Q3));
        ask(
            &mut d,
            r#"{"cmd":"prepare","ref":"q1","question":1,"db_tuples":24,"seed":7,"params":{"minCS":1}}"#,
        );
        assert!(!d.refs.map.contains_key("q3"), "q1 evicted q3");
        ask(&mut d, PREPARE_Q3);
        assert_eq!(ingestion(&d, "q3"), (0, 0));
        let again = ask(&mut d, &grade_line("q3", "s2.ra", "ra", WRONG_Q3));
        assert_eq!(ingestion(&d, "q3"), (1, 1));
        // No store: the fresh reference searches again, as at first.
        assert_eq!(except(&first, &["id"]), except(&again, &["id"]));
    }

    #[test]
    fn past_the_cap_new_sources_grade_alike_and_the_memo_stops_growing() {
        let mut d = daemon(None);
        ask(&mut d, PREPARE_Q3);
        let reference = ratest_ra::display::to_surface_string(
            &course_questions()
                .into_iter()
                .find(|q| q.number == 3)
                .unwrap()
                .reference,
        );
        // Distinct texts of one query: each is a new source.
        let padded = |i: usize| format!("{reference}{}", " ".repeat(i));
        let past = INGEST_MEMO_CAP + 3;
        for i in 0..past {
            let graded = ask(
                &mut d,
                &grade_line("q3", &format!("s{i}"), "ra", &padded(i)),
            );
            assert_eq!(
                graded.get("verdict").and_then(Json::as_str),
                Some("correct")
            );
        }
        assert_eq!(ingestion(&d, "q3"), (INGEST_MEMO_CAP, past));
        // A remembered source stays remembered; one past the cap is
        // compiled each time it comes.
        ask(&mut d, &grade_line("q3", "early", "ra", &padded(0)));
        assert_eq!(ingestion(&d, "q3"), (INGEST_MEMO_CAP, past));
        let late = ask(&mut d, &grade_line("q3", "late", "ra", &padded(past - 1)));
        assert_eq!(late.get("verdict").and_then(Json::as_str), Some("correct"));
        assert_eq!(ingestion(&d, "q3"), (INGEST_MEMO_CAP, past + 1));
    }

    /// A writer that fails with `BrokenPipe` after a byte budget — a client
    /// that hung up mid-conversation.
    #[derive(Clone)]
    struct HangupWriter {
        written: Arc<Mutex<usize>>,
        budget: usize,
    }

    impl Write for HangupWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut written = self.written.lock().unwrap();
            if *written + buf.len() > self.budget {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "client went away",
                ));
            }
            *written += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_client_hangup_is_a_clean_shutdown_not_a_crash() {
        let script = r#"
{"cmd":"prepare","ref":"q3","question":3,"db_tuples":24,"seed":7}
{"cmd":"grade","ref":"q3","id":"s1.ra","lang":"ra","source":"project[s.name, s.major](join[s.name = r.name](rename[s](Student), rename[r](Registration)))"}
{"cmd":"grade","ref":"q3","id":"s2.ra","lang":"ra","source":"project[s.name](rename[s](Student))"}
{"cmd":"shutdown"}
"#;
        // Budget past the banner + prepare, inside the grade responses: the
        // daemon must treat the failed write as EPIPE and exit Ok.
        let writer = HangupWriter {
            written: Arc::new(Mutex::new(0)),
            budget: 400,
        };
        let result = serve(script.as_bytes(), writer);
        assert!(result.is_ok(), "{result:?}");
    }
}
