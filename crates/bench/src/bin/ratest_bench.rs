//! `ratest-bench` — the committed perf trajectory.
//!
//! Measures five end-to-end shapes and emits one schema-versioned JSON
//! document (`ratest-bench/7`):
//!
//! * `search_latency` — counterexample-search latency over the course
//!   workload, bucketed by the algorithm the pipeline dispatched to,
//! * `grade_throughput` — cold-vs-warm batch grading of a synthetic cohort
//!   (the warm pass must be answered entirely from the verdict cache),
//! * `serve_roundtrip` — a scripted `grade serve` conversation driven
//!   in-process,
//! * `serve_load` — a synthetic semester replayed through the v3 daemon:
//!   all 8 course questions, generated cohorts, a resubmission flood, a
//!   warm-state cap and a persistent verdict store. Two fresh runs must be
//!   byte-identical, warm state must stay under the cap throughout, and a
//!   restarted daemon reusing the store must re-grade with zero searches,
//! * `repair_latency` — provenance-directed repair over every wrong course
//!   pair that yields a counterexample (enumerate → rank → validate).
//!
//! Every section separates **deterministic counters** (registry counters,
//! gauges, flattened histogram totals — byte-identical across identical
//! runs) from **volatile** wall-clock timings. The committed
//! `BENCH_baseline.json` holds only the deterministic part (`--bless`), and
//! `--check` re-validates a fresh run against it, so CI catches silent
//! changes in work done (rows scanned, solver conflicts, cache behaviour)
//! without ever comparing timings. See `BENCH_SCHEMA.md`.
//!
//! ```text
//! ratest-bench [--quick] [--out PATH]        run, write the full document
//! ratest-bench [--quick] --bless PATH        run, write the counters-only baseline
//! ratest-bench --check OUT --baseline BASE   validate + diff two documents
//! ```

use ratest_bench::course_workload;
use ratest_core::session::Session;
use ratest_datagen::{university_database, UniversityConfig};
use ratest_grader::json::Json;
use ratest_grader::{generate_cohort, CohortConfig, Grader, GraderConfig};
use ratest_telemetry::{MetricsHandle, MetricsRegistry, MetricsSnapshot};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema identifier; bump on any shape change (`BENCH_SCHEMA.md` documents
/// the format).
const SCHEMA: &str = "ratest-bench/7";
/// The section names, in document order; `--check` requires all of them.
const SECTIONS: [&str; 5] = [
    "search_latency",
    "grade_throughput",
    "serve_roundtrip",
    "serve_load",
    "repair_latency",
];

const USAGE: &str = "usage: ratest-bench [--quick] [--out PATH]\n\
       ratest-bench [--quick] --bless PATH\n\
       ratest-bench --check OUT --baseline BASE";

struct Args {
    quick: bool,
    out: Option<String>,
    bless: Option<String>,
    check: Option<String>,
    baseline: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: None,
        bless: None,
        check: None,
        baseline: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")?),
            "--bless" => args.bless = Some(value("--bless")?),
            "--check" => args.check = Some(value("--check")?),
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.check.is_some() != args.baseline.is_some() {
        return Err("--check and --baseline go together".into());
    }
    if args.check.is_some() && (args.out.is_some() || args.bless.is_some()) {
        return Err("--check does not run the benchmark; drop --out/--bless".into());
    }
    Ok(args)
}

/// One measured section: deterministic counters + volatile timings.
struct Section {
    counters: BTreeMap<String, i64>,
    volatile: Vec<(&'static str, Json)>,
}

impl Section {
    fn to_json(&self, include_volatile: bool) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v)))
                .collect(),
        );
        let mut pairs = vec![("counters", counters)];
        if include_volatile {
            pairs.push((
                "volatile",
                Json::Obj(
                    self.volatile
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }
}

/// Flatten a registry snapshot into one deterministic name → integer map:
/// counters as-is, gauges alongside them, histograms as `<name>.count` /
/// `<name>.sum`. Volatile durations are deliberately dropped.
fn flatten(snapshot: &MetricsSnapshot) -> BTreeMap<String, i64> {
    let mut out = BTreeMap::new();
    for (name, v) in &snapshot.counters {
        out.insert(name.clone(), *v as i64);
    }
    for (name, v) in &snapshot.gauges {
        out.insert(name.clone(), *v);
    }
    for (name, h) in &snapshot.histograms {
        out.insert(format!("{name}.count"), h.count as i64);
        out.insert(format!("{name}.sum"), h.sum as i64);
    }
    out
}

fn ms(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e3 * 1000.0).round() / 1000.0
}

/// Counterexample-search latency over the course workload, per dispatched
/// algorithm. One session per pair (cold prepares included in the per-run
/// wall time); one shared registry accumulates the whole section.
fn search_latency(quick: bool) -> Section {
    let (mutations, tuples) = if quick { (1, 40) } else { (2, 60) };
    let db = university_database(&UniversityConfig {
        total_tuples: tuples,
        seed: 2019,
        ..Default::default()
    });
    let registry = Arc::new(MetricsRegistry::new());
    let mut per_algorithm: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for pair in course_workload(mutations, 7) {
        let session = Session::builder(db.clone())
            .metrics(registry.clone())
            .build();
        let start = Instant::now();
        match session.explain_pair(&pair.reference, &pair.wrong) {
            Ok(outcome) => {
                let slot = per_algorithm
                    .entry(format!("{:?}", outcome.algorithm_used))
                    .or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += start.elapsed().as_secs_f64() * 1e3;
            }
            // Pairs the pipeline cannot explain (unsupported shapes) are a
            // deterministic property of the workload; count them.
            Err(_) => registry.counter_inc("search.unsupported_pairs"),
        }
    }
    for (algorithm, (runs, _)) in &per_algorithm {
        registry.counter_add(&format!("search.runs.{algorithm}"), *runs);
    }
    let volatile = vec![(
        "per_algorithm_ms",
        Json::Obj(
            per_algorithm
                .iter()
                .map(|(algorithm, (runs, total))| {
                    (
                        algorithm.clone(),
                        Json::obj(vec![
                            ("runs", Json::Int(*runs as i64)),
                            ("total_ms", Json::Float((total * 1000.0).round() / 1000.0)),
                        ]),
                    )
                })
                .collect(),
        ),
    )];
    Section {
        counters: flatten(&registry.snapshot()),
        volatile,
    }
}

/// Cold-vs-warm batch grading throughput on a synthetic cohort. Workers are
/// pinned to 1 and the per-job timeout disabled so the counters are
/// scheduling-independent; the warm pass must run zero searches.
fn grade_throughput(quick: bool) -> Section {
    let cohort = generate_cohort(&CohortConfig {
        question: 3,
        class_size: if quick { 12 } else { 48 },
        db_tuples: if quick { 24 } else { 60 },
        seed: 7,
        ..Default::default()
    });
    let grader = Grader::new(GraderConfig {
        workers: 1,
        per_job_timeout: Duration::ZERO,
        options: Default::default(),
        repair: None,
        warm_cap: None,
    });
    let cold_start = Instant::now();
    let cold = grader
        .grade("cold", &cohort.reference, &cohort.db, &cohort.submissions)
        .expect("cold batch grades");
    let cold_wall = cold_start.elapsed();
    let warm_start = Instant::now();
    let warm = grader
        .grade("warm", &cohort.reference, &cohort.db, &cohort.submissions)
        .expect("warm batch grades");
    let warm_wall = warm_start.elapsed();
    assert_eq!(
        warm.stats.pipeline_runs, 0,
        "warm re-grade must be answered from the verdict cache"
    );

    let mut counters = flatten(&grader.metrics_snapshot());
    counters.insert("bench.cohort_size".into(), cohort.submissions.len() as i64);
    counters.insert(
        "bench.cold_pipeline_runs".into(),
        cold.stats.pipeline_runs as i64,
    );
    counters.insert("bench.warm_cache_hits".into(), warm.stats.cache_hits as i64);
    let throughput = |n: usize, wall: Duration| {
        let s = wall.as_secs_f64();
        if s > 0.0 {
            ((n as f64 / s) * 1000.0).round() / 1000.0
        } else {
            0.0
        }
    };
    Section {
        counters,
        volatile: vec![
            ("cold_ms", Json::Float(ms(cold_wall))),
            ("warm_ms", Json::Float(ms(warm_wall))),
            (
                "cold_submissions_per_s",
                Json::Float(throughput(cohort.submissions.len(), cold_wall)),
            ),
            (
                "warm_submissions_per_s",
                Json::Float(throughput(cohort.submissions.len(), warm_wall)),
            ),
        ],
    }
}

/// Provenance-directed repair latency: for every wrong course pair the
/// instance distinguishes, run the full repair pipeline (enumerate → rank →
/// validate) against the counterexample. One shared registry accumulates the
/// `repair.*` counters for the whole section.
fn repair_latency(quick: bool) -> Section {
    let (mutations, tuples) = if quick { (1, 40) } else { (2, 60) };
    let db = university_database(&UniversityConfig {
        total_tuples: tuples,
        seed: 2019,
        ..Default::default()
    });
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = MetricsHandle::new(registry.clone());
    let options = ratest_repair::RepairOptions::default();
    let mut runs = 0u64;
    let mut recovered = 0u64;
    let mut wall = Duration::ZERO;
    for pair in course_workload(mutations, 7) {
        let session = Session::builder(db.clone()).build();
        let Ok(outcome) = session.explain_pair(&pair.reference, &pair.wrong) else {
            continue;
        };
        let Some(cex) = outcome.counterexample else {
            // The instance does not distinguish this pair, so there is no
            // Wrong verdict to repair; Table 3 accounts for these.
            continue;
        };
        let start = Instant::now();
        let suggestions = ratest_repair::suggest_repairs_on(
            &pair.wrong,
            &pair.reference,
            &cex,
            &db,
            &options,
            &metrics,
        );
        wall += start.elapsed();
        runs += 1;
        if !suggestions.is_empty() {
            recovered += 1;
        }
    }
    let mut counters = flatten(&registry.snapshot());
    counters.insert("bench.repair_runs".into(), runs as i64);
    counters.insert("bench.repairs_with_suggestion".into(), recovered as i64);
    let mean = if runs > 0 {
        ((ms(wall) / runs as f64) * 1000.0).round() / 1000.0
    } else {
        0.0
    };
    Section {
        counters,
        volatile: vec![
            ("total_ms", Json::Float(ms(wall))),
            ("mean_repair_ms", Json::Float(mean)),
        ],
    }
}

/// A cloneable writer so the in-process daemon's output can be read back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Round-trip a scripted `grade serve` conversation in-process: prepare a
/// reference, grade two distinct submissions plus a warm repeat, read the
/// daemon's own stats back as this section's counters.
fn serve_roundtrip() -> Section {
    let script = r#"{"cmd":"prepare","ref":"q3","question":3,"db_tuples":24,"seed":7}
{"cmd":"grade","ref":"q3","id":"s1.ra","lang":"ra","source":"project[s.name, s.major](join[s.name = r.name and r.dept = 'CS'](rename[s](Student), rename[r](Registration)))"}
{"cmd":"grade","ref":"q3","id":"s2.ra","lang":"ra","source":"project[s.name, s.major](join[s.name = r.name](rename[s](Student), rename[r](Registration)))"}
{"cmd":"grade","ref":"q3","id":"s1-again.ra","lang":"ra","source":"project[s.name, s.major](join[s.name = r.name and r.dept = 'CS'](rename[s](Student), rename[r](Registration)))"}
{"cmd":"stats","ref":"q3"}
{"cmd":"shutdown"}
"#;
    let out = SharedBuf::default();
    let start = Instant::now();
    ratest_grader::serve::serve(script.as_bytes(), out.clone()).expect("in-process serve");
    let wall = start.elapsed();
    let output = String::from_utf8(out.0.lock().unwrap().clone()).expect("serve output is UTF-8");

    let docs: Vec<Json> = output
        .lines()
        .map(|l| Json::parse(l).expect("daemon emits JSON lines"))
        .collect();
    let requests = script.lines().count() as i64;
    let stats = docs
        .iter()
        .find(|d| d.get("cmd").and_then(Json::as_str) == Some("stats"))
        .expect("conversation includes a stats reply");
    let mut counters = BTreeMap::new();
    counters.insert("serve.requests".into(), requests);
    counters.insert("serve.responses".into(), docs.len() as i64 - 1);
    for field in ["graded", "searches", "cache_hits", "cache_misses"] {
        counters.insert(
            format!("serve.stats.{field}"),
            stats.get(field).and_then(Json::as_i64).unwrap_or(-1),
        );
    }
    Section {
        counters,
        volatile: vec![
            ("total_ms", Json::Float(ms(wall))),
            (
                "mean_request_ms",
                Json::Float(((ms(wall) / requests as f64) * 1000.0).round() / 1000.0),
            ),
        ],
    }
}

/// Build the synthetic-semester NDJSON transcript: per course question a
/// `prepare`, the generated cohort's grades (rendered back to RA surface
/// syntax), and a per-reference `stats` probe taken *before* the next
/// prepare can evict the reference; question 3 additionally gets an
/// adversarial flood of one duplicated wrong answer. Ends with daemon-scope
/// `stats`, `sync` and `shutdown`.
fn semester_script(class_size: usize, db_tuples: usize) -> (String, i64) {
    let mut script = String::from("{\"cmd\":\"hello\"}\n");
    let mut grades = 0i64;
    for q in 1..=8usize {
        let cohort = generate_cohort(&CohortConfig {
            question: q,
            class_size,
            db_tuples,
            seed: 7,
            ..Default::default()
        });
        script.push_str(
            &Json::obj(vec![
                ("cmd", Json::str("prepare")),
                ("ref", Json::str(format!("q{q}"))),
                ("question", Json::Int(q as i64)),
                ("db_tuples", Json::Int(db_tuples as i64)),
                ("seed", Json::Int(7)),
            ])
            .render(),
        );
        script.push('\n');
        let grade_line = |id: String, author: &str, query: &ratest_ra::ast::Query| {
            Json::obj(vec![
                ("cmd", Json::str("grade")),
                ("ref", Json::str(format!("q{q}"))),
                ("id", Json::str(id)),
                ("author", Json::str(author)),
                ("lang", Json::str("ra")),
                (
                    "source",
                    Json::str(ratest_ra::display::to_surface_string(query)),
                ),
            ])
            .render()
        };
        for s in &cohort.submissions {
            script.push_str(&grade_line(format!("q{q}-{}", s.id), &s.author, &s.query));
            script.push('\n');
            grades += 1;
        }
        if q == 3 {
            // The flood: one wrong answer resubmitted over and over — the
            // daemon must answer every copy (dedup, not drop).
            let wrong = cohort
                .submissions
                .iter()
                .find(|s| s.query != cohort.reference)
                .expect("a generated cohort contains wrong answers");
            for i in 0..10 {
                script.push_str(&grade_line(
                    format!("q3-flood-{i:02}"),
                    "flood",
                    &wrong.query,
                ));
                script.push('\n');
                grades += 1;
            }
        }
        script.push_str(&format!("{{\"cmd\":\"stats\",\"ref\":\"q{q}\"}}\n"));
    }
    script.push_str("{\"cmd\":\"stats\"}\n{\"cmd\":\"sync\"}\n{\"cmd\":\"shutdown\"}\n");
    (script, grades)
}

/// Semester-scale serving under load (the ISSUE 9 harness): replay the
/// synthetic semester through `serve_with` with a warm-state cap of 4 refs
/// and an on-disk verdict store. Pins three contracts as hard asserts:
/// byte-identical output across two fresh runs, warm state bounded by the
/// cap at every point in the conversation, and a restarted daemon reusing
/// the first run's store re-grading the whole semester with zero
/// counterexample searches.
fn serve_load(quick: bool) -> Section {
    use ratest_grader::serve::{serve_with, ServeConfig};

    let (class_size, db_tuples) = if quick { (6, 24) } else { (16, 40) };
    let warm_cap = 4usize;
    let (script, grades) = semester_script(class_size, db_tuples);
    let dir = std::env::temp_dir().join(format!("ratest-bench-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir for the serve_load store");

    let run_leg = |cache: std::path::PathBuf| {
        let out = SharedBuf::default();
        let start = Instant::now();
        serve_with(
            script.as_bytes(),
            out.clone(),
            ServeConfig {
                threads: 1,
                warm_cap: Some(warm_cap),
                cache: Some(cache),
                admit_timeout_ms: 30_000,
            },
        )
        .expect("serve_load leg");
        let wall = start.elapsed();
        let text = String::from_utf8(out.0.lock().unwrap().clone()).expect("UTF-8 output");
        (text, wall)
    };

    let (cold, cold_wall) = run_leg(dir.join("semester.rvc"));
    let (cold2, _) = run_leg(dir.join("semester2.rvc"));
    assert_eq!(
        cold, cold2,
        "two fresh semester replays must be byte-identical"
    );
    // The restart: a brand-new daemon on the *first* run's store file.
    let (restart, restart_wall) = run_leg(dir.join("semester.rvc"));

    let parse_leg = |text: &str| {
        let docs: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("daemon emits JSON lines"))
            .collect();
        let field = |d: &Json, name: &str| d.get(name).and_then(Json::as_i64).unwrap_or(0);
        let searches: i64 = docs
            .iter()
            .filter(|d| {
                d.get("cmd").and_then(Json::as_str) == Some("stats") && d.get("ref").is_some()
            })
            .map(|d| field(d, "searches"))
            .sum();
        let cold_grades = docs
            .iter()
            .filter(|d| {
                d.get("cmd").and_then(Json::as_str) == Some("grade")
                    && d.get("from_cache").and_then(Json::as_bool) == Some(false)
            })
            .count() as i64;
        let max_warm_refs = docs
            .iter()
            .map(|d| field(d, "warm_refs"))
            .max()
            .unwrap_or(0);
        let daemon = docs
            .iter()
            .find(|d| d.get("scope").and_then(Json::as_str) == Some("daemon"))
            .expect("daemon-scope stats reply");
        (
            docs.len() as i64,
            searches,
            cold_grades,
            max_warm_refs,
            field(daemon, "evictions"),
            field(daemon, "warm_refs"),
            field(daemon, "persisted"),
        )
    };
    let (responses, cold_searches, _, max_warm_refs, evictions, warm_refs, persisted) =
        parse_leg(&cold);
    let (_, restart_searches, restart_cold_grades, ..) = parse_leg(&restart);

    assert!(
        max_warm_refs as usize <= warm_cap,
        "warm state exceeded the cap: {max_warm_refs} refs vs --warm-cap {warm_cap}"
    );
    assert_eq!(
        restart_searches, 0,
        "a restarted daemon on a populated store must re-grade search-free"
    );
    assert_eq!(
        restart_cold_grades, 0,
        "every restarted-daemon verdict must come from warm state"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut counters = BTreeMap::new();
    counters.insert("serve_load.questions".into(), 8);
    counters.insert("serve_load.requests".into(), script.lines().count() as i64);
    counters.insert("serve_load.responses".into(), responses);
    counters.insert("serve_load.grades".into(), grades);
    counters.insert("serve_load.cold_searches".into(), cold_searches);
    counters.insert("serve_load.restart_searches".into(), restart_searches);
    counters.insert("serve_load.warm_cap".into(), warm_cap as i64);
    counters.insert("serve_load.max_warm_refs".into(), max_warm_refs);
    counters.insert("serve_load.final_warm_refs".into(), warm_refs);
    counters.insert("serve_load.evictions".into(), evictions);
    counters.insert("serve_load.persisted".into(), persisted);
    Section {
        counters,
        volatile: vec![
            ("cold_ms", Json::Float(ms(cold_wall))),
            ("restart_ms", Json::Float(ms(restart_wall))),
        ],
    }
}

/// Run every section and assemble the document.
fn run(quick: bool, include_volatile: bool) -> Json {
    let sections = vec![
        ("search_latency".to_string(), search_latency(quick)),
        ("grade_throughput".to_string(), grade_throughput(quick)),
        ("serve_roundtrip".to_string(), serve_roundtrip()),
        ("serve_load".to_string(), serve_load(quick)),
        ("repair_latency".to_string(), repair_latency(quick)),
    ];
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        (
            "sections",
            Json::Obj(
                sections
                    .into_iter()
                    .map(|(name, s)| (name, s.to_json(include_volatile)))
                    .collect(),
            ),
        ),
    ])
}

/// Validate a document's shape; returns the per-section counter maps.
fn validate(doc: &Json, label: &str) -> Result<BTreeMap<String, BTreeMap<String, i64>>, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("{label}: schema is `{s}`, expected `{SCHEMA}`")),
        None => return Err(format!("{label}: missing `schema` field")),
    }
    if doc.get("mode").and_then(Json::as_str).is_none() {
        return Err(format!("{label}: missing `mode` field"));
    }
    let mut out = BTreeMap::new();
    for name in SECTIONS {
        let section = doc
            .get("sections")
            .and_then(|s| s.get(name))
            .ok_or_else(|| format!("{label}: missing section `{name}`"))?;
        let Some(Json::Obj(pairs)) = section.get("counters") else {
            return Err(format!("{label}: section `{name}` has no counters object"));
        };
        let mut counters = BTreeMap::new();
        for (k, v) in pairs {
            let v = v
                .as_i64()
                .ok_or_else(|| format!("{label}: {name}.counters.{k} is not an integer"))?;
            counters.insert(k.clone(), v);
        }
        out.insert(name.to_string(), counters);
    }
    Ok(out)
}

/// `--check`: validate both documents and diff every deterministic counter.
fn run_check(out_path: &str, baseline_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))
    };
    let (current, baseline) = match (load(out_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ratest-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (current, baseline) = match (
        validate(&current, out_path),
        validate(&baseline, baseline_path),
    ) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ratest-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut diffs = 0usize;
    let mut checked = 0usize;
    for name in SECTIONS {
        let now = &current[name];
        let base = &baseline[name];
        let keys: std::collections::BTreeSet<&String> = now.keys().chain(base.keys()).collect();
        for key in keys {
            checked += 1;
            match (now.get(key), base.get(key)) {
                (Some(a), Some(b)) if a == b => {}
                (Some(a), Some(b)) => {
                    eprintln!("{name}: {key} changed: baseline {b}, now {a}");
                    diffs += 1;
                }
                (Some(a), None) => {
                    eprintln!("{name}: {key} is new (= {a}, absent from baseline)");
                    diffs += 1;
                }
                (None, Some(b)) => {
                    eprintln!("{name}: {key} disappeared (baseline {b})");
                    diffs += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }
    if diffs > 0 {
        eprintln!(
            "ratest-bench: {diffs} counter(s) differ from {baseline_path} — \
             if intentional, re-bless with `ratest-bench --quick --bless {baseline_path}`"
        );
        return ExitCode::FAILURE;
    }
    println!("ratest-bench: {checked} deterministic counter(s) match {baseline_path}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ratest-bench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(out), Some(base)) = (&args.check, &args.baseline) {
        return run_check(out, base);
    }
    if let Some(path) = &args.bless {
        let doc = run(args.quick, false);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("ratest-bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("blessed counters-only baseline to {path}");
        return ExitCode::SUCCESS;
    }
    let doc = run(args.quick, true);
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, doc.render() + "\n") {
                eprintln!("ratest-bench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote benchmark document to {path}");
        }
        None => println!("{}", doc.render()),
    }
    ExitCode::SUCCESS
}
