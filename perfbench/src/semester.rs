//! `serve-semester`: a semester of student traffic to `grade serve`, driven
//! in-process through `serve_with`.
//!
//! A run repeats cycles over a few generated schedules of one semester:
//!
//! - the **cold leg**: a fresh daemon (2 threads, warm cap 4, an empty
//!   verdict store) receives the semester as an open loop, every request
//!   sent when it is due whatever the daemon is doing. Latency is timed
//!   from the due time, so a stall also counts against the requests queued
//!   behind it;
//! - the **restart legs**: a fresh daemon over the store the cold leg left
//!   re-grades the whole semester as fast as it can read it. They read
//!   (store load, preload, cache hits) where the cold leg writes (searches,
//!   store appends). They run one grading thread: thread-per-request spawns
//!   would otherwise be most of their time, and on a shared 2-core VM that
//!   cost swung 3x between runs.
//!
//! Once per run a one-thread, storeless replay gives the reference verdicts
//! that every leg must match.

use crate::report::{Metrics, Outcome, Slowest};
use crate::stats::{median, ms, percentile, scale_at, Kernel, Rng, Speed};
use crate::trace::{Layer, Mark, Trace};
use crate::{Args, RunResult, SETUP_SHARE};
use ratest_core::session::Phase;
use ratest_grader::json::Json;
use ratest_grader::serve::{serve_with, ServeConfig};
use ratest_grader::store;
use ratest_grader::{generate_cohort, CohortConfig};
use ratest_queries::course::course_questions;
use ratest_queries::mutations::mutate;
use ratest_ra::display::to_surface_string;
use ratest_userstudy::sample_class;
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const QUESTIONS: usize = 8;
/// Tuples of each question's hidden instance. At 40 tuples a q6 search
/// takes 0.1-0.25 s; two in flight block the daemon's intake and the tail
/// became a matter of sub-millisecond timing.
const DB_TUPLES: i64 = 30;
/// Students per question, split into lab sections that submit in bursts.
const CLASS: usize = 24;
const SECTIONS: usize = 3;
/// Weeks after the last question when each section revisits one earlier
/// question, walking the warm set through the references again.
const REVIEW_WEEKS: usize = 2;
const THREADS: usize = 2;
/// Fewer warm references than questions, so the semester evicts.
const WARM_CAP: usize = 4;
/// Offered load inside a lab section's burst, in requests per second: well
/// under the one-thread replay's capacity (printed with every run, 700 to
/// 2,500 grades/s on a 2-core VM depending on its load).
const RATE_PER_S: f64 = 150.0;
/// Quiet time between two lab sections.
const SECTION_GAP_MS: f64 = 20.0;
/// Restart legs per cycle; `restart_s` is the fastest leg of the run.
const RESTARTS: usize = 5;
/// Schedules per run: cycle `k` replays schedule `k % SCHEDULES`, so one
/// run's tail spans several orderings of the same answers. With 3, the p99
/// of one seed's schedules sat 7.5 or 8.7 ms run after run.
const SCHEDULES: usize = 6;
/// During the cold leg the generator runs the speed kernel (see `Speed`)
/// at most once per `KERNEL_GAP`, and only while the daemon has answered
/// everything sent and the next request is more than `KERNEL_ROOM` away,
/// so the samples neither compete with the daemon nor delay a request.
const KERNEL_GAP: Duration = Duration::from_millis(5);
const KERNEL_ROOM: Duration = Duration::from_millis(2);
/// How long before a request's due time the generator stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(300);

/// The hidden instance of a question: fixed for the course, like a real
/// course's test database. The seed draws the students and their traffic.
fn instance_seed(question: usize) -> i64 {
    2019 + question as i64
}

fn prepare_line(question: usize) -> String {
    Json::obj(vec![
        ("cmd", Json::str("prepare")),
        ("ref", Json::str(format!("q{question}"))),
        ("question", Json::Int(question as i64)),
        ("db_tuples", Json::Int(DB_TUPLES)),
        ("seed", Json::Int(instance_seed(question))),
    ])
    .render()
}

enum Kind {
    Prepare,
    Grade { id: String },
}

struct Request {
    /// Offset from the start of traffic.
    due: Duration,
    kind: Kind,
    line: String,
    /// The same request asking for the event stream.
    traced_line: String,
}

pub struct Semester {
    /// Prepared before traffic starts (part of set-up).
    initial: Vec<String>,
    requests: Vec<Request>,
    /// Labels for the slowest-request report.
    labels: HashMap<String, String>,
    /// Each grade id's (question, source): the verdict depends on nothing
    /// else, so schedules can be checked against one replay.
    answers: HashMap<String, (usize, String)>,
}

impl Semester {
    pub fn grades(&self) -> usize {
        self.labels.len()
    }

    /// Positions of the grade requests in `requests`, by id.
    fn grade_index(&self) -> HashMap<&str, usize> {
        self.requests
            .iter()
            .enumerate()
            .filter_map(|(j, r)| match &r.kind {
                Kind::Grade { id } => Some((id.as_str(), j)),
                Kind::Prepare => None,
            })
            .collect()
    }

    /// Due offsets of the `prepare` requests sent during traffic, in order.
    fn prepare_dues(&self) -> Vec<Duration> {
        self.requests
            .iter()
            .filter(|r| matches!(r.kind, Kind::Prepare))
            .map(|r| r.due)
            .collect()
    }
}

/// How many times a wrong answer is resubmitted before the fix.
const RESUBMITS: usize = 2;
/// No repair requests on q6: its repairs validate every candidate edit
/// against the duplicate-name self-join tail (course-pool measures that
/// tail), 0.15-0.7 s each. One of them in flight when a `prepare` arrives
/// holds the daemon's drain barrier long enough to delay a few percent of
/// the semester, or not, depending on sub-millisecond timing, which made
/// the tail latency bimodal from run to run.
const NO_REPAIR_QUESTION: usize = 6;

/// One question's class: the reference source and each student's
/// (answer, asks-for-repair).
pub type Class = (String, Vec<(String, bool)>);

/// Every question's class, from the grader's cohort generator: answers are
/// drawn from the user-study class model (`ratest_userstudy::sample_class`)
/// and the mutation engine. The cohort seed is the question's instance
/// seed, fixed, so every run seed needs the same searches. A wrong answer
/// asks for repair when its student adopted RATest in that same class model
/// (the paper's ~80% adoption), except on `NO_REPAIR_QUESTION`.
pub fn classes() -> Vec<Class> {
    (1..=QUESTIONS)
        .map(|question| {
            let config = CohortConfig {
                question,
                class_size: CLASS,
                db_tuples: DB_TUPLES as usize,
                seed: instance_seed(question) as u64,
                ..CohortConfig::default()
            };
            let cohort = generate_cohort(&config);
            let profiles = sample_class(CLASS, config.adoption_rate, config.seed);
            let reference = to_surface_string(&cohort.reference);
            let answers = cohort
                .submissions
                .iter()
                .zip(&profiles)
                .map(|(submission, profile)| {
                    let source = to_surface_string(&submission.query);
                    let repair = profile.uses_ratest
                        && source != reference
                        && question != NO_REPAIR_QUESTION;
                    (source, repair)
                })
                .collect();
            (reference, answers)
        })
        .collect()
}

/// Generate the semester's traffic from the seed.
///
/// The answers come from `classes`, the same for every seed. The seed
/// decides which lab section each student sits in, the order inside each
/// section's burst and the arrival gaps.
pub fn semester(classes: &[Class], seed: u64) -> Semester {
    let mut rng = Rng::new(seed);
    let cohorts: Vec<Class> = classes
        .iter()
        .map(|(reference, answers)| {
            let mut answers = answers.clone();
            for i in (1..answers.len()).rev() {
                answers.swap(i, rng.below(i + 1));
            }
            (reference.clone(), answers)
        })
        .collect();

    let mut requests = Vec::new();
    let mut labels = HashMap::new();
    let mut answers = HashMap::new();
    let mut warm: Vec<usize> = (1..=WARM_CAP).collect();
    let initial = warm.iter().map(|q| prepare_line(*q)).collect();
    let mut last: HashMap<(usize, usize), String> = HashMap::new();
    let mut t_ms = 0.0;
    let per = CLASS / SECTIONS;
    for week in 0..QUESTIONS + REVIEW_WEEKS {
        for section in 0..SECTIONS {
            // (question, student, source, repair)
            let mut burst: Vec<(usize, usize, String, bool)> = Vec::new();
            for student in section * per..(section + 1) * per {
                if week < QUESTIONS {
                    let q = week + 1;
                    let (reference, class) = &cohorts[q - 1];
                    let (answer, repair) = class[student].clone();
                    burst.push((q, student, answer.clone(), repair));
                    if answer != *reference {
                        // The resubmission flood: the same wrong answer
                        // again, then the fix.
                        for _ in 0..RESUBMITS {
                            burst.push((q, student, answer.clone(), false));
                        }
                        burst.push((q, student, reference.clone(), false));
                    }
                    if let Some(prev) = last.get(&(week, student)) {
                        burst.push((week, student, prev.clone(), false));
                    }
                } else {
                    // Review: each section revisits one question, in a
                    // fixed order, so every seed prepares the same
                    // references as often.
                    let q = 1 + ((week - QUESTIONS) * SECTIONS + section) % QUESTIONS;
                    if let Some(prev) = last.get(&(q, student)) {
                        burst.push((q, student, prev.clone(), false));
                    }
                }
            }
            for i in (1..burst.len()).rev() {
                burst.swap(i, rng.below(i + 1));
            }
            for (q, student, source, repair) in burst {
                let due = Duration::from_secs_f64(t_ms / 1e3);
                match warm.iter().position(|w| *w == q) {
                    Some(i) => {
                        warm.remove(i);
                    }
                    None => {
                        let line = prepare_line(q);
                        requests.push(Request {
                            due,
                            kind: Kind::Prepare,
                            traced_line: line.clone(),
                            line,
                        });
                        if warm.len() == WARM_CAP {
                            warm.remove(0);
                        }
                    }
                }
                warm.push(q);
                let id = format!("g{}", labels.len());
                let mut pairs = vec![
                    ("cmd", Json::str("grade")),
                    ("ref", Json::str(format!("q{q}"))),
                    ("id", Json::str(&id)),
                    ("author", Json::str(format!("s{student:02}"))),
                    ("lang", Json::str("ra")),
                    ("source", Json::str(&source)),
                ];
                if repair {
                    pairs.push(("repair", Json::Bool(true)));
                }
                let line = Json::obj(pairs.clone()).render();
                pairs.push(("events", Json::Bool(true)));
                let traced_line = Json::obj(pairs).render();
                labels.insert(
                    id.clone(),
                    format!(
                        "{id} (q{q}, s{student:02}{})",
                        if repair { ", repair" } else { "" }
                    ),
                );
                answers.insert(id.clone(), (q, source.clone()));
                requests.push(Request {
                    due,
                    kind: Kind::Grade { id },
                    line,
                    traced_line,
                });
                last.insert((q, student), source);
                t_ms += rng.exp(1e3 / RATE_PER_S);
            }
            t_ms += SECTION_GAP_MS;
        }
    }
    Semester {
        initial,
        requests,
        labels,
        answers,
    }
}

// ---------------------------------------------------------------------------
// Driving the daemon
// ---------------------------------------------------------------------------

/// The daemon's output so far.
#[derive(Default)]
struct Output {
    /// The line being written.
    partial: Vec<u8>,
    /// Complete lines, each stamped when it was written.
    lines: Vec<(Instant, String)>,
}

#[derive(Clone, Default)]
struct Capture(Arc<(Mutex<Output>, Condvar)>);

impl Capture {
    /// Wait until `n` lines are out; false on timeout.
    fn wait_lines(&self, n: usize, timeout: Duration) -> bool {
        let (lock, cv) = &*self.0;
        let guard = lock.lock().expect("capture poisoned");
        let (guard, _) = cv
            .wait_timeout_while(guard, timeout, |out| out.lines.len() < n)
            .expect("capture poisoned");
        guard.lines.len() >= n
    }

    fn lines(&self) -> usize {
        self.0 .0.lock().expect("capture poisoned").lines.len()
    }

    fn take(&self) -> Vec<(Instant, String)> {
        std::mem::take(&mut self.0 .0.lock().expect("capture poisoned").lines)
    }
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let (lock, cv) = &*self.0;
        let mut state = lock.lock().expect("capture poisoned");
        state.partial.extend_from_slice(buf);
        while let Some(end) = state.partial.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = state.partial.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            state.lines.push((now, text));
            cv.notify_all();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The daemon's input: lines handed over by the generator thread.
///
/// It hands out one line per read, so the daemon asks for line `k + 1` only
/// once it is done with line `k`. For a grade that is once the grade has a
/// worker: the stamp of that ask is when the grade was admitted.
struct ChannelReader {
    rx: mpsc::Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
    /// When the daemon asked for each line, in order.
    asked: Arc<Mutex<Vec<Instant>>>,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.buf.len() {
            self.asked
                .lock()
                .expect("stamps poisoned")
                .push(Instant::now());
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Kernel samples the generator takes while it waits (see `KERNEL_GAP`).
#[derive(Default)]
struct Sampler {
    kernel: Kernel,
    next: Option<Instant>,
    samples: Vec<(Instant, f64)>,
}

/// Wait until `due`: sleep until shortly before it, then spin, because sleep
/// overshoots by tens of microseconds, a fifth of a cache hit's latency.
/// With a sampler, run the kernel while `idle` says the daemon has nothing
/// in hand and there is room before `due`.
fn wait_until(due: Instant, mut sampler: Option<&mut Sampler>, idle: impl Fn() -> bool) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now <= SPIN {
            std::hint::spin_loop();
            continue;
        }
        let mut until = due - SPIN;
        if let Some(s) = sampler.as_deref_mut() {
            match s.next {
                Some(next) if now < next => until = until.min(next),
                _ => {
                    if due - now > KERNEL_ROOM && idle() {
                        s.samples.push((now, ms(s.kernel.run())));
                    }
                    s.next = Some(now + KERNEL_GAP);
                    continue;
                }
            }
        }
        std::thread::sleep(until - now);
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Pace {
    /// Each request at its due time (the cold leg).
    OpenLoop,
    /// Everything at once (restart leg and replay).
    Flood,
}

/// One daemon's life: set-up prepares, traffic, daemon stats, shutdown.
struct Leg {
    /// Daemon start until the set-up prepares are answered.
    setup: Duration,
    /// Daemon start until it returned.
    total: Duration,
    /// When traffic started; due times are offsets from here.
    t0: Instant,
    /// When each of `Semester::requests` was admitted.
    admitted: Vec<Instant>,
    late_ms: Vec<f64>,
    lines: Vec<(Instant, String)>,
    /// Kernel times stamped in the daemon's idle moments (untraced open
    /// loop only).
    kernel: Vec<(Instant, f64)>,
}

fn run_leg(
    semester: &Semester,
    config: ServeConfig,
    pace: Pace,
    traced: bool,
) -> Result<Leg, String> {
    let capture = Capture::default();
    let (tx, rx) = mpsc::channel::<String>();
    let asked = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();
    let (served, generated) = std::thread::scope(|scope| {
        let out = capture.clone();
        let generator = scope.spawn(
            move || -> Result<(Instant, Vec<f64>, Vec<(Instant, f64)>), String> {
                for line in &semester.initial {
                    tx.send(line.clone())
                        .map_err(|_| "daemon stopped reading")?;
                }
                if !out.wait_lines(1 + semester.initial.len(), Duration::from_secs(60)) {
                    return Err("set-up prepares were not answered".into());
                }
                let mut sampler = (pace == Pace::OpenLoop && !traced).then(Sampler::default);
                let t0 = Instant::now();
                let mut late = Vec::new();
                for (j, r) in semester.requests.iter().enumerate() {
                    if pace == Pace::OpenLoop {
                        let due = t0 + r.due;
                        // The daemon is idle once every line sent so far has
                        // its answer.
                        let answered = 1 + semester.initial.len() + j;
                        wait_until(due, sampler.as_mut(), || out.lines() == answered);
                        late.push(ms(Instant::now().saturating_duration_since(due)));
                    }
                    let line = if traced { &r.traced_line } else { &r.line };
                    tx.send(line.clone())
                        .map_err(|_| "daemon stopped reading")?;
                }
                for line in [r#"{"cmd":"stats"}"#, r#"{"cmd":"shutdown"}"#] {
                    tx.send(line.to_owned())
                        .map_err(|_| "daemon stopped reading")?;
                }
                Ok((t0, late, sampler.map_or_else(Vec::new, |s| s.samples)))
            },
        );
        let reader = BufReader::new(ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
            asked: asked.clone(),
        });
        let served = serve_with(reader, capture.clone(), config);
        (served, generator.join())
    });
    let total = start.elapsed();
    served.map_err(|e| format!("daemon failed: {e}"))?;
    let (t0, late_ms, kernel) = generated.map_err(|_| "generator thread panicked".to_owned())??;
    // Request `j` is line `initial + j`; the ask for the line after it
    // stamps its admission (the `stats` line follows the last request).
    let asked = std::mem::take(&mut *asked.lock().expect("stamps poisoned"));
    let first = semester.initial.len() + 1;
    let admitted = asked
        .get(first..first + semester.requests.len())
        .ok_or("the daemon stopped reading early")?
        .to_vec();
    Ok(Leg {
        setup: t0 - start,
        total,
        t0,
        admitted,
        late_ms,
        lines: capture.take(),
        kernel,
    })
}

/// One grade response.
#[derive(Debug, Clone)]
struct Graded {
    at: Instant,
    ok: bool,
    verdict: String,
    fingerprint: String,
    size: Option<i64>,
    from_cache: bool,
    overloaded: bool,
}

impl Graded {
    fn failed(&self) -> bool {
        !self.ok || self.overloaded || matches!(self.verdict.as_str(), "error" | "timeout")
    }

    fn key(&self) -> (String, String, Option<i64>) {
        (self.verdict.clone(), self.fingerprint.clone(), self.size)
    }
}

/// A leg's output, parsed.
struct Parsed {
    grades: HashMap<String, Vec<Graded>>,
    prepares: Vec<Instant>,
    events: HashMap<String, Vec<(Instant, Json)>>,
    evictions: i64,
    bad_lines: usize,
}

fn parse(lines: &[(Instant, String)]) -> Parsed {
    let mut p = Parsed {
        grades: HashMap::new(),
        prepares: Vec::new(),
        events: HashMap::new(),
        evictions: 0,
        bad_lines: 0,
    };
    for (at, line) in lines {
        let Ok(doc) = Json::parse(line) else {
            p.bad_lines += 1;
            continue;
        };
        let text = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_owned);
        if let (Some(_), Some(id)) = (text("event"), text("id")) {
            p.events.entry(id).or_default().push((*at, doc));
            continue;
        }
        match text("cmd").as_deref() {
            Some("grade") => {
                let graded = Graded {
                    at: *at,
                    ok: doc.get("ok").and_then(Json::as_bool) == Some(true),
                    verdict: text("verdict").unwrap_or_default(),
                    fingerprint: text("fingerprint").unwrap_or_default(),
                    size: doc.get("counterexample_size").and_then(Json::as_i64),
                    from_cache: doc.get("from_cache").and_then(Json::as_bool) == Some(true),
                    overloaded: doc.get("overloaded").and_then(Json::as_bool) == Some(true),
                };
                p.grades
                    .entry(text("id").unwrap_or_default())
                    .or_default()
                    .push(graded);
            }
            Some("prepare") => p.prepares.push(*at),
            Some("stats") => {
                p.evictions = doc.get("evictions").and_then(Json::as_i64).unwrap_or(0);
            }
            Some("shutdown") | None => {}
            Some(_) => p.bad_lines += 1,
        }
    }
    p
}

/// Exactly one response per request id, and nothing for unknown ids.
fn one_response_each(semester: &Semester, parsed: &Parsed, leg: &str) -> Result<(), String> {
    if parsed.bad_lines > 0 {
        return Err(format!(
            "{leg}: {} unparseable or unexpected lines",
            parsed.bad_lines
        ));
    }
    for id in semester.labels.keys() {
        let n = parsed.grades.get(id).map_or(0, Vec::len);
        if n != 1 {
            return Err(format!("{leg}: request {id} got {n} responses"));
        }
    }
    if parsed.grades.len() != semester.grades() {
        return Err(format!("{leg}: responses for ids that were never sent"));
    }
    Ok(())
}

fn marks_of(events: &[(Instant, Json)]) -> Vec<(Instant, Mark)> {
    events
        .iter()
        .filter_map(|(t, doc)| {
            let mark = match doc.get("event").and_then(Json::as_str)? {
                "phase" => Mark::Phase(match doc.get("phase").and_then(Json::as_str)? {
                    "raw-eval" => Phase::RawEval,
                    "provenance" => Phase::Provenance,
                    _ => Phase::Solve,
                }),
                "candidate" => Mark::Candidate,
                "solver" => Mark::SolverDone,
                "repair_started" => Mark::RepairStarted,
                "repair_finished" => Mark::RepairFinished,
                _ => return None,
            };
            Some((*t, mark))
        })
        .collect()
}

/// What the traced cold legs add up to.
#[derive(Default)]
pub struct ServeLayers {
    legs: usize,
    explains: usize,
    wrong_of_searched: usize,
    prepare_ms: f64,
    solver_events: usize,
    solver_sat: usize,
    repair_tried: f64,
    repair_found: f64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    hits: f64,
    grades: f64,
    searches: f64,
    prepare_latency_ms: Vec<f64>,
    evictions: Vec<f64>,
    store_load_ms: Vec<f64>,
    store_records: f64,
    store_bytes: f64,
}

/// The serve-side per-layer metrics (zero where a workload has no daemon).
pub fn put_serve_layers(metrics: &mut Metrics, layers: Option<(&ServeLayers, &Trace)>) {
    let zero = ServeLayers::default();
    let (l, repair_ms) = match layers {
        Some((l, trace)) => (l, trace.total_ms("repair") / l.legs.max(1) as f64),
        None => (&zero, 0.0),
    };
    let legs = l.legs.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    metrics.put("repair.ms", repair_ms, "ms");
    metrics.put("repair.candidates_tried", l.repair_tried / legs, "count");
    metrics.put(
        "repair.yield_ratio",
        ratio(l.repair_found, l.repair_tried),
        "ratio",
    );
    metrics.put("grader.hit_ms.p50", median(&l.hit_ms), "ms");
    metrics.put("grader.hit_ratio", ratio(l.hits, l.grades), "ratio");
    metrics.put("grader.dedup_hits", l.hits / legs, "count");
    metrics.put("grader.miss_ms.p50", median(&l.miss_ms), "ms");
    metrics.put("grader.searches", l.searches / legs, "count");
    metrics.put("serve.prepare_ms", median(&l.prepare_latency_ms), "ms");
    metrics.put("serve.evictions", median(&l.evictions), "count");
    metrics.put("store.load_ms", median(&l.store_load_ms), "ms");
    metrics.put("store.records", l.store_records, "count");
    metrics.put(
        "store.bytes_per_verdict",
        ratio(l.store_bytes, l.store_records),
        "B",
    );
}

/// One cold leg followed by restart legs over the store it left.
struct Cycle {
    /// Which of the run's schedules the cycle replayed.
    schedule: usize,
    cold: Leg,
    cold_parsed: Parsed,
    /// Duration of each restart leg, in seconds, at the reference speed and
    /// as measured.
    restarts: Vec<f64>,
    raw_restarts: Vec<f64>,
    restarts_parsed: Vec<Parsed>,
    store_load: Duration,
    store_records: usize,
    store_bytes: u64,
}

fn serve_config(threads: usize, cache: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        threads,
        warm_cap: Some(WARM_CAP),
        cache,
        ..ServeConfig::default()
    }
}

fn cycle(
    semester: &Semester,
    schedule: usize,
    store_path: &Path,
    traced: bool,
) -> Result<Cycle, String> {
    let _ = std::fs::remove_file(store_path);
    let cold = run_leg(
        semester,
        serve_config(THREADS, Some(store_path.to_owned())),
        Pace::OpenLoop,
        traced,
    )?;
    let start = Instant::now();
    let loaded = store::load(store_path).map_err(|e| format!("loading the store: {e}"))?;
    let store_load = start.elapsed();
    let store_bytes = std::fs::metadata(store_path).map_or(0, |m| m.len());
    let (mut totals, mut raw_totals) = (Vec::new(), Vec::new());
    let mut restarts_parsed = Vec::new();
    let mut speed = (!traced).then(Speed::default);
    for _ in 0..RESTARTS {
        let timed = Speed::time(speed.as_mut(), || {
            run_leg(
                semester,
                serve_config(1, Some(store_path.to_owned())),
                Pace::Flood,
                false,
            )
        });
        let leg = timed.out?;
        totals.push(leg.total.as_secs_f64() * timed.scale);
        raw_totals.push(leg.total.as_secs_f64());
        restarts_parsed.push(parse(&leg.lines));
    }
    Ok(Cycle {
        schedule,
        cold_parsed: parse(&cold.lines),
        cold,
        restarts: totals,
        raw_restarts: raw_totals,
        restarts_parsed,
        store_load,
        store_records: loaded.entries.len(),
        store_bytes,
    })
}

/// One cold-leg grade's times.
struct Timing {
    id: String,
    due: Instant,
    /// Due time to response: the end-to-end latency.
    latency_ms: f64,
    /// Admission to response: the daemon's own time for the grade.
    service_ms: f64,
    /// Due time to admission: generator lateness and the wait for intake
    /// or a free worker, which other requests' work fills.
    wait_ms: f64,
    hit: bool,
}

fn timings(schedules: &[Semester], c: &Cycle) -> Vec<Timing> {
    let semester = &schedules[c.schedule];
    let index = semester.grade_index();
    c.cold_parsed
        .grades
        .iter()
        .map(|(id, g)| {
            let j = index[id.as_str()];
            let due = c.cold.t0 + semester.requests[j].due;
            let admitted = c.cold.admitted[j];
            Timing {
                id: id.clone(),
                due,
                latency_ms: ms(g[0].at.saturating_duration_since(due)),
                service_ms: ms(g[0].at.saturating_duration_since(admitted)),
                wait_ms: ms(admitted.saturating_duration_since(due)),
                hit: g[0].from_cache,
            }
        })
        .collect()
}

/// Latency of each `prepare` sent during the cold leg's traffic.
fn prepare_latencies(semester: &Semester, c: &Cycle) -> Vec<f64> {
    c.cold_parsed
        .prepares
        .iter()
        .skip(semester.initial.len())
        .zip(semester.prepare_dues())
        .map(|(at, due)| ms(at.saturating_duration_since(c.cold.t0 + due)))
        .collect()
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    // Traffic generation times, at the reference speed and as measured.
    let (mut gen_ms, mut raw_gen_ms) = (Vec::new(), Vec::new());
    let mut speed = Speed::default();
    let mut generate = || -> Vec<Semester> {
        let timed = Speed::time(Some(&mut speed), || {
            let classes = classes();
            let mut rng = Rng::new(args.seed);
            (0..SCHEDULES)
                .map(|_| semester(&classes, rng.next_u64()))
                .collect()
        });
        gen_ms.push(ms(timed.scaled()));
        raw_gen_ms.push(ms(timed.end - timed.start));
        timed.out
    };
    let schedules = generate();
    let mutate_ms = {
        let start = Instant::now();
        for q in course_questions() {
            std::hint::black_box(mutate(&q.reference));
        }
        ms(start.elapsed())
    };
    let grades = schedules[0].grades();

    let out_dir = Path::new(".bench_out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let store_path = out_dir.join(format!("serve-semester-{}.rvc", args.seed));

    // The reference verdicts: one thread, no store.
    let replay_leg = run_leg(&schedules[0], serve_config(1, None), Pace::Flood, false)?;
    let replay = parse(&replay_leg.lines);
    let capacity = grades as f64 / (replay_leg.total - replay_leg.setup).as_secs_f64();
    one_response_each(&schedules[0], &replay, "replay")?;
    let reference: HashMap<&(usize, String), (String, String, Option<i64>)> = replay
        .grades
        .iter()
        .map(|(id, g)| (&schedules[0].answers[id], g[0].key()))
        .collect();

    let origin = Instant::now();
    let deadline = origin + Duration::from_secs(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut gen_time = Duration::ZERO;
    loop {
        // Traffic generation repeats like the pools' set-up (see
        // `SETUP_SHARE`).
        while gen_time < origin.elapsed() / SETUP_SHARE {
            let start = Instant::now();
            std::hint::black_box(generate());
            gen_time += start.elapsed();
        }
        let k = (plain.len() + traced.len()) % SCHEDULES;
        if args.trace && plain.len() > traced.len() {
            traced.push(cycle(&schedules[k], k, &store_path, true)?);
        } else {
            plain.push(cycle(&schedules[k], k, &store_path, false)?);
        }
        let enough = if args.trace {
            !traced.is_empty() && traced.len() == plain.len()
        } else {
            plain.len() >= SCHEDULES
        };
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    let _ = std::fs::remove_file(&store_path);

    // Output checks over every leg of every cycle.
    let mut report = Vec::new();
    let mut correct = true;
    let mut failed = replay
        .grades
        .values()
        .flatten()
        .filter(|g| g.failed())
        .count();
    let mut attempted = grades;
    let mut restart_searches = 0;
    for (k, c) in plain.iter().chain(&traced).enumerate() {
        let semester = &schedules[c.schedule];
        let legs = std::iter::once(("cold", &c.cold_parsed))
            .chain(c.restarts_parsed.iter().map(|p| ("restart", p)));
        for (leg, parsed) in legs {
            attempted += semester.grades();
            failed += parsed
                .grades
                .values()
                .flatten()
                .filter(|g| g.failed())
                .count();
            let checked = one_response_each(semester, parsed, leg).and_then(|_| {
                match parsed
                    .grades
                    .iter()
                    .find(|(id, g)| reference.get(&semester.answers[*id]) != Some(&g[0].key()))
                {
                    Some((id, g)) => Err(format!(
                        "{leg} leg of cycle {k}: {id} answered {:?}, the replay {:?}",
                        g[0].key(),
                        reference.get(&semester.answers[id])
                    )),
                    None => Ok(()),
                }
            });
            if let Err(e) = checked {
                correct = false;
                report.push(format!("CHECK FAILED: {e}"));
            }
        }
        restart_searches += c
            .restarts_parsed
            .iter()
            .flat_map(|p| p.grades.values().flatten())
            .filter(|g| !g.from_cache)
            .count();
    }
    let cycles = plain.len() + traced.len();
    report.push(format!(
        "{grades} grades x {cycles} cycles (cold + {RESTARTS} restarts) + 1 replay; verdicts identical across legs: {correct}; restart-leg searches: {restart_searches}"
    ));
    report.push(format!(
        "offered {RATE_PER_S}/s inside bursts; one-thread replay capacity {capacity:.0} grades/s"
    ));

    let mut metrics = Metrics::default();
    let median_of = |xs: Vec<f64>| median(&xs);

    if !args.trace {
        // Times at the reference speed (see `Speed`). The cold leg's
        // latencies and set-up are scaled by the kernel samples taken
        // nearest to them.
        let restart_s = median(
            &plain
                .iter()
                .flat_map(|c| c.restarts.iter().copied())
                .collect::<Vec<f64>>(),
        );
        let factors: Vec<f64> = plain
            .iter()
            .flat_map(|c| c.restarts.iter().zip(&c.raw_restarts).map(|(s, r)| s / r))
            .collect();
        let latency: Vec<f64> = plain
            .iter()
            .flat_map(|c| {
                timings(&schedules, c)
                    .into_iter()
                    .map(|t| t.latency_ms * scale_at(&c.cold.kernel, t.due))
            })
            .collect();
        let leg_setup_ms: Vec<f64> = plain
            .iter()
            .map(|c| ms(c.cold.setup) * scale_at(&c.cold.kernel, c.cold.t0))
            .collect();
        metrics.put(
            "setup_s",
            (median(&gen_ms) + median(&leg_setup_ms)) / 1e3,
            "s",
        );
        metrics.put("throughput_per_s", grades as f64 / restart_s, "1/s");
        metrics.put("latency_ms.p50", median(&latency), "ms");
        metrics.put("latency_ms.tail", percentile(&latency, 99.0), "ms");
        metrics.put("restart_s", restart_s, "s");
        report.push(format!(
            "times are at the reference speed: wall-clock x {:.3} (median factor over the restart legs; see stats::Speed)",
            median(&factors)
        ));
        report.push(slowest(&schedules, &plain, None).render(&args.workload));
        return Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics,
            report,
            spans: None,
        });
    }

    // Traced cold legs: spans from the stamped event stream.
    let mut trace = Trace::new(origin);
    let mut layers = ServeLayers {
        legs: traced.len(),
        ..Default::default()
    };
    let mut request_ids: HashMap<String, u32> = HashMap::new();
    let mut request = 0u32;
    for (k, c) in traced.iter().enumerate() {
        let semester = &schedules[c.schedule];
        let index = semester.grade_index();
        let parsed = &c.cold_parsed;
        let mut ids: Vec<&String> = parsed.grades.keys().collect();
        ids.sort();
        for id in ids {
            let graded = &parsed.grades[id][0];
            request += 1;
            if k + 1 == traced.len() {
                request_ids.insert(id.clone(), request);
            }
            // The grade's own span starts at admission: the wait before it
            // is other requests' work (and the generator's lateness), which
            // their own spans already count.
            let admitted = c.cold.admitted[index[id.as_str()]];
            let events = parsed.events.get(id);
            let start = events.map_or(admitted, |e| admitted.min(e[0].0));
            let root = trace.span("grade", Layer::Grader, request, None, start, graded.at);
            let Some(events) = events else {
                continue;
            };
            let (first, last) = (events[0].0, events[events.len() - 1].0);
            let explain = trace.span("explain", Layer::Ratest, request, Some(root), first, last);
            trace.request(explain, &marks_of(events));
            layers.explains += 1;
            if graded.verdict == "wrong" {
                layers.wrong_of_searched += 1;
            }
            for (_, doc) in events {
                match doc.get("event").and_then(Json::as_str) {
                    Some("solver") => {
                        layers.solver_events += 1;
                        layers.solver_sat += usize::from(doc.get("solution").is_some());
                    }
                    Some("repair_finished") => {
                        let n = |k: &str| doc.get(k).and_then(Json::as_i64).unwrap_or(0) as f64;
                        layers.repair_tried += n("tried");
                        layers.repair_found += n("suggestions");
                    }
                    _ => {}
                }
            }
        }
        layers.prepare_ms += prepare_latencies(semester, c).iter().sum::<f64>();
        let load_start = c.cold.t0 + c.cold.total;
        request += 1;
        trace.span(
            "store_load",
            Layer::Storage,
            request,
            None,
            load_start,
            load_start + c.store_load,
        );
        for g in c.cold_parsed.grades.values().flatten() {
            layers.grades += 1.0;
            if g.from_cache {
                layers.hits += 1.0;
            } else if g.verdict != "rejected" {
                layers.searches += 1.0;
            }
        }
        layers.evictions.push(c.cold_parsed.evictions as f64);
        layers.store_load_ms.push(ms(c.store_load));
        layers.store_records = c.store_records as f64;
        layers.store_bytes = c.store_bytes as f64;
    }
    let mut wait_ms = Vec::new();
    for c in &plain {
        for t in timings(&schedules, c) {
            if t.hit {
                layers.hit_ms.push(t.service_ms);
            } else {
                layers.miss_ms.push(t.service_ms);
            }
            wait_ms.push(t.wait_ms);
        }
        layers
            .prepare_latency_ms
            .extend(prepare_latencies(&schedules[c.schedule], c));
    }

    let n = traced.len() as f64;
    let self_ms = trace.self_ms();
    let layer = |l: Layer| self_ms.get(&l).copied().unwrap_or(0.0) / n;
    let explain_ms = trace.total_ms("explain") / n;
    let explains = layers.explains.max(1) as f64;
    // Only searches stream events, so the overhead shows on misses.
    let miss_p50 = |cycles: &[Cycle]| -> f64 {
        median_of(
            cycles
                .iter()
                .flat_map(|c| {
                    timings(&schedules, c)
                        .into_iter()
                        .filter(|t| !t.hit)
                        .map(|t| t.service_ms)
                })
                .collect(),
        )
    };
    let late: Vec<f64> = plain
        .iter()
        .chain(&traced)
        .flat_map(|c| c.cold.late_ms.iter().copied())
        .collect();

    metrics.put("ratest.prepare_ms", layers.prepare_ms / n, "ms");
    metrics.put("ratest.explain_ms", explain_ms, "ms");
    metrics.put(
        "ratest.verify_ms",
        explain_ms
            - layer(Layer::Ra)
            - layer(Layer::Provenance)
            - layer(Layer::Solver)
            - layer(Layer::Repair),
        "ms",
    );
    metrics.put(
        "ratest.candidates",
        trace.count("candidate") as f64 / n,
        "count",
    );
    metrics.put(
        "ratest.candidates_per_explain",
        trace.count("candidate") as f64 / explains,
        "ratio",
    );
    metrics.put(
        "ratest.cex_ratio",
        layers.wrong_of_searched as f64 / explains,
        "ratio",
    );
    // The daemon keeps its evaluator, provenance, solver and delta counters
    // per warm reference and drops them on eviction; they are not read
    // here and print as 0 on this workload.
    metrics.put("ra.raw_eval_ms", layer(Layer::Ra), "ms");
    metrics.put("ra.eval.rows_scanned", 0.0, "count");
    metrics.put("ra.eval.calls", 0.0, "count");
    metrics.put("provenance.ms", layer(Layer::Provenance), "ms");
    metrics.put("provenance.annotate.rows", 0.0, "count");
    metrics.put("provenance.annotate.calls", 0.0, "count");
    metrics.put("solver.ms", layer(Layer::Solver), "ms");
    metrics.put(
        "solver.calls",
        trace.count("solver_call") as f64 / n,
        "count",
    );
    metrics.put("solver.decisions", 0.0, "count");
    metrics.put("solver.conflicts", 0.0, "count");
    metrics.put("solver.propagations", 0.0, "count");
    metrics.put(
        "solver.sat_ratio",
        if layers.solver_events > 0 {
            layers.solver_sat as f64 / layers.solver_events as f64
        } else {
            0.0
        },
        "ratio",
    );
    metrics.put("delta.rows_touched", 0.0, "count");
    metrics.put("delta.candidates_incremental", 0.0, "count");
    metrics.put("delta.fallback_ratio", 0.0, "ratio");
    put_serve_layers(&mut metrics, Some((&layers, &trace)));
    metrics.put("datagen.ms", median(&raw_gen_ms), "ms");
    metrics.put("queries.mutate_ms", mutate_ms, "ms");
    metrics.put(
        "bench.trace_overhead",
        miss_p50(&traced) / miss_p50(&plain),
        "ratio",
    );
    metrics.put("bench.generator_late_ms.p99", percentile(&late, 99.0), "ms");
    metrics.put("bench.queue_wait_ms.p99", percentile(&wait_ms, 99.0), "ms");
    metrics.put_shares(&self_ms);

    let last = std::slice::from_ref(traced.last().expect("one traced cycle"));
    report.push(slowest(&schedules, last, Some((&trace, &request_ids))).render(&args.workload));
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        report,
        spans: Some(trace.to_ndjson()),
    })
}

/// The slowest cold-leg grade of the given cycles.
fn slowest(
    schedules: &[Semester],
    cycles: &[Cycle],
    trace: Option<(&Trace, &HashMap<String, u32>)>,
) -> Slowest {
    let (c, worst) = cycles
        .iter()
        .flat_map(|c| timings(schedules, c).into_iter().map(move |t| (c, t)))
        .max_by(|a, b| a.1.latency_ms.total_cmp(&b.1.latency_ms))
        .expect("at least one grade");
    let graded = &c.cold_parsed.grades[&worst.id][0];
    let split = match trace.and_then(|(t, ids)| ids.get(&worst.id).map(|r| t.request_split(*r))) {
        Some(split) => split,
        None => [(Layer::Grader, worst.service_ms)].into_iter().collect(),
    };
    Slowest {
        identity: schedules[c.schedule].labels[&worst.id].clone(),
        ms: worst.latency_ms,
        outcome: Outcome::Verdict(format!(
            "{}{}, {:.1} ms waiting for admission",
            graded.verdict,
            if graded.from_cache {
                " (cache hit)"
            } else {
                ""
            },
            worst.wait_ms
        )),
        split,
    }
}
