//! `grade` — batch-grade student submissions against a reference query.
//!
//! ## Primary mode: grade a directory of submission files
//!
//! ```text
//! grade <DIR> --reference <N | path.sql | path.ra>
//!       [--db-tuples N] [--seed N] [--workers N] [--timeout-ms N]
//!       [--param name=value]... [--json PATH] [--explain ID] [--diagnostics]
//!       [--shard i/N] [--cache PATH.rvc]
//! ```
//!
//! `<DIR>` is walked recursively; `.sql` files go through the SQL frontend,
//! `.ra` files through the RA surface-syntax parser (dispatch by extension).
//! Files the frontend rejects appear in the report as `rejected` with a
//! spanned diagnostic. `--reference` is a course question number (1–8) or a
//! path to a reference query file. The hidden instance is a generated
//! university database (`--db-tuples`, `--seed`).
//!
//! `--cache PATH` persists the verdict cache across invocations: verdicts
//! are loaded before grading (corrupt records are skipped and reported) and
//! the newly computed ones are appended afterwards, so a warm re-grade
//! performs zero counterexample searches. `--shard i/N` grades only the
//! i-th of N deterministic cohort slices — run one process per shard, then
//! fuse the artifacts with `grade merge`.
//!
//! ## Spawn mode: run every shard from one invocation
//!
//! ```text
//! grade <DIR> --reference <...> --spawn N --json MERGED.json [--cache MERGED.rvc] [...]
//! ```
//!
//! The driver launches one `grade --shard i/N` subprocess per shard — all
//! of them concurrently, so on a multi-core host the wall clock is the
//! slowest shard rather than the sum — and automatically fuses the shard
//! reports into exactly the report the unsharded run would have produced.
//! `--cache` keeps its unsharded load-then-append semantics: every shard
//! warm-starts from a private copy of the file's pre-existing records, and
//! the driver appends the fresh verdicts (deduped across shards) once all
//! of them are done.
//!
//! ## Fmt mode: canonicalize RA surface syntax
//!
//! ```text
//! grade fmt <file.ra>... [--write]
//! ```
//!
//! Parses each `.ra` file and re-renders it through the parseable surface
//! renderer (`ra::display::to_surface_string`). Formatting is idempotent:
//! formatting an already-formatted file is a no-op. Without `--write` the
//! formatted text goes to stdout; with it the files are rewritten in place
//! (only when the text actually changed).
//!
//! ## Serve mode: a persistent grading daemon
//!
//! ```text
//! grade serve [--threads N] [--warm-cap N] [--cache PATH.rvc]
//!             [--admit-timeout-ms N]
//! ```
//!
//! Speaks the versioned `ratest-serve` NDJSON protocol over stdin/stdout:
//! `prepare` a reference once, then `grade` submissions interactively with
//! warm per-reference state (a re-grade performs zero counterexample
//! searches). `--threads` grades that many requests concurrently (with
//! admission control — an over-capacity request waits at most
//! `--admit-timeout-ms` before being rejected with an overload verdict),
//! `--warm-cap` LRU-evicts warm references beyond the cap, and `--cache`
//! persists verdicts to the same store `grade --cache` uses, so a restarted
//! daemon warm-starts. `--warm-cap` is a daemon flag only: a batch run
//! grades one context per process and never evicts. See
//! `ratest_grader::serve` for the protocol reference.
//!
//! ## Merge mode: fuse shard artifacts into the class report
//!
//! ```text
//! grade merge <shard.json>... [--json MERGED.json]
//!             [--cache-in shard.rvc]... [--cache MERGED.rvc]
//! ```
//!
//! The merged report is byte-identical to the one an unsharded run would
//! have written; the merged cache contains every shard's verdicts, deduped.
//!
//! ## Secondary mode: synthetic cohorts for benchmarks / load tests
//!
//! ```text
//! grade --generate [--question 1..8] [--class N] [--db-tuples N] [--seed N]
//!       [--workers N] [--timeout-ms N] [--json PATH] [--explain ID]
//!       [--compare-sequential]
//! ```

use ratest_grader::json::Json;
use ratest_grader::{
    generate_cohort, ingest_dir, merge_reports, shard_cohort, store, CacheEntry, CohortConfig,
    Grader, GraderConfig, ShardSpec,
};
use ratest_queries::course::course_questions;
use ratest_ra::ast::Query;
use ratest_storage::{Database, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: grade <DIR> --reference <N|path.sql|path.ra> \
     [--db-tuples N] [--seed N] [--workers N] [--timeout-ms N] \
     [--param name=value]... [--json PATH] [--explain ID] [--diagnostics] \
     [--suggest] [--shard i/N | --spawn N] [--cache PATH.rvc] \
     [--metrics PATH.json] [--trace PATH.ndjson]\n\
       grade serve [--threads N] [--warm-cap N] [--cache PATH.rvc] \
     [--admit-timeout-ms N]\n\
       grade fmt <file.ra>... [--write]\n\
       grade merge <shard.json>... [--json MERGED.json] \
     [--cache-in shard.rvc]... [--cache MERGED.rvc]\n\
       grade --generate [--question 1..8] [--class N] [--db-tuples N] \
     [--seed N] [--workers N] [--timeout-ms N] [--json PATH] [--explain ID] \
     [--compare-sequential]";

struct Args {
    /// Directory of submissions (primary mode).
    dir: Option<PathBuf>,
    /// Reference query: a question number or a file path.
    reference: Option<String>,
    /// Synthetic-cohort mode (benchmarks / load tests).
    generate: bool,
    cohort: CohortConfig,
    workers: usize,
    timeout_ms: u64,
    params: Vec<(String, Value)>,
    json_path: Option<String>,
    explain_id: Option<String>,
    diagnostics: bool,
    compare_sequential: bool,
    /// Grade only this slice of the cohort (directory mode).
    shard: Option<ShardSpec>,
    /// Run all N shards as subprocesses from this invocation and auto-merge.
    spawn: Option<usize>,
    /// Persistent verdict cache to load before and append to after grading.
    cache_path: Option<String>,
    /// Write the engine's full metrics snapshot (including the volatile
    /// duration section) as JSON after grading.
    metrics_path: Option<String>,
    /// Record explain-trace spans and write them as NDJSON after grading.
    /// Forces `--workers 1` so the span tree stays well-nested.
    trace_path: Option<String>,
    /// Enrich wrong verdicts with provenance-directed repair suggestions.
    suggest: bool,
}

/// Arguments of the `merge` subcommand.
struct MergeArgs {
    /// Shard report JSON files to fuse.
    reports: Vec<PathBuf>,
    /// Where to write the merged report (stdout when absent).
    json_out: Option<String>,
    /// Shard verdict cache files to fuse.
    cache_in: Vec<String>,
    /// Where to write the merged cache.
    cache_out: Option<String>,
}

fn parse_merge_args(rest: impl Iterator<Item = String>) -> Result<MergeArgs, String> {
    let mut args = MergeArgs {
        reports: Vec::new(),
        json_out: None,
        cache_in: Vec::new(),
        cache_out: None,
    };
    let mut it = rest;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--json" => args.json_out = Some(value("--json")?),
            "--cache" => args.cache_out = Some(value("--cache")?),
            "--cache-in" => args.cache_in.push(value("--cache-in")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            report => args.reports.push(PathBuf::from(report)),
        }
    }
    if args.reports.is_empty() && args.cache_in.is_empty() {
        return Err(format!(
            "merge needs shard report files and/or --cache-in files\n{USAGE}"
        ));
    }
    if !args.cache_in.is_empty() && args.cache_out.is_none() {
        return Err("--cache-in requires --cache <output path>".into());
    }
    if args.reports.is_empty() && args.json_out.is_some() {
        return Err("--json needs shard report files to merge".into());
    }
    Ok(args)
}

/// Parse the flags of the `serve` subcommand into a [`ServeConfig`].
///
/// [`ServeConfig`]: ratest_grader::serve::ServeConfig
fn parse_serve_args(
    rest: impl Iterator<Item = String>,
) -> Result<ratest_grader::serve::ServeConfig, String> {
    let mut config = ratest_grader::serve::ServeConfig::default();
    let mut it = rest;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--threads" => config.threads = parse::<usize>(&value("--threads")?)?.max(1),
            "--warm-cap" => config.warm_cap = Some(parse(&value("--warm-cap")?)?),
            "--cache" => config.cache = Some(PathBuf::from(value("--cache")?)),
            "--admit-timeout-ms" => config.admit_timeout_ms = parse(&value("--admit-timeout-ms")?)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown serve flag: {other}")),
        }
    }
    Ok(config)
}

fn parse_args(rest: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        dir: None,
        reference: None,
        generate: false,
        cohort: CohortConfig::default(),
        workers: 4,
        timeout_ms: 30_000,
        params: Vec::new(),
        json_path: None,
        explain_id: None,
        diagnostics: false,
        compare_sequential: false,
        shard: None,
        spawn: None,
        cache_path: None,
        metrics_path: None,
        trace_path: None,
        suggest: false,
    };
    let mut it = rest;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--reference" => args.reference = Some(value("--reference")?),
            "--generate" => args.generate = true,
            "--question" => args.cohort.question = parse(&value("--question")?)?,
            "--class" => args.cohort.class_size = parse(&value("--class")?)?,
            "--db-tuples" => args.cohort.db_tuples = parse(&value("--db-tuples")?)?,
            "--seed" => args.cohort.seed = parse(&value("--seed")?)?,
            "--workers" => args.workers = parse(&value("--workers")?)?,
            "--timeout-ms" => args.timeout_ms = parse(&value("--timeout-ms")?)?,
            "--param" => {
                let kv = value("--param")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--param expects name=value, got `{kv}`"))?;
                let v = match v.parse::<i64>() {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::from(v),
                };
                args.params.push((k.to_owned(), v));
            }
            "--json" => args.json_path = Some(value("--json")?),
            "--explain" => args.explain_id = Some(value("--explain")?),
            "--diagnostics" => args.diagnostics = true,
            "--compare-sequential" => args.compare_sequential = true,
            "--shard" => args.shard = Some(value("--shard")?.parse()?),
            "--spawn" => args.spawn = Some(parse(&value("--spawn")?)?),
            "--cache" => args.cache_path = Some(value("--cache")?),
            "--metrics" => args.metrics_path = Some(value("--metrics")?),
            "--trace" => args.trace_path = Some(value("--trace")?),
            "--suggest" => args.suggest = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            dir => {
                if args.dir.replace(PathBuf::from(dir)).is_some() {
                    return Err("only one submissions directory may be given".into());
                }
            }
        }
    }
    if args.dir.is_none() && !args.generate {
        return Err(format!(
            "expected a submissions directory (or --generate)\n{USAGE}"
        ));
    }
    if args.dir.is_some() && args.generate {
        return Err("--generate cannot be combined with a submissions directory".into());
    }
    if args.generate && args.shard.is_some() {
        return Err("--shard applies to directory mode only".into());
    }
    if let Some(n) = args.spawn {
        if n == 0 {
            return Err("--spawn needs at least 1 shard".into());
        }
        if args.generate {
            return Err("--spawn applies to directory mode only".into());
        }
        if args.shard.is_some() {
            return Err("--spawn drives the shards itself; drop --shard".into());
        }
        if args.json_path.is_none() {
            return Err("--spawn needs --json <MERGED.json> for the fused report".into());
        }
        if args.metrics_path.is_some() || args.trace_path.is_some() {
            return Err(
                "--metrics/--trace instrument one grading process; run them per shard, not with --spawn"
                    .into(),
            );
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid numeric value: {s}"))
}

/// Resolve `--reference`: a course question number or a `.sql`/`.ra` file.
fn resolve_reference(spec: &str, db: &Database) -> Result<(String, Query), String> {
    if let Ok(n) = spec.parse::<usize>() {
        let questions = course_questions();
        let q = questions
            .into_iter()
            .find(|q| q.number == n)
            .ok_or_else(|| format!("no course question {n} (valid: 1..8)"))?;
        return Ok((q.prompt.to_owned(), q.reference));
    }
    let path = PathBuf::from(spec);
    let source = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {spec}: {e}"))?;
    let query = match path.extension().and_then(|e| e.to_str()) {
        Some("sql") => ratest_sql::compile_sql(&source, db)
            .map_err(|e| format!("reference {spec} is invalid:\n{}", e.render(&source)))?,
        Some("ra") => ratest_ra::parser::parse_query(&source)
            .map_err(|e| format!("reference {spec} is invalid: {e}"))?,
        _ => return Err(format!("reference {spec} must end in .sql or .ra")),
    };
    Ok((format!("reference {spec}"), query))
}

/// Run `grade merge`: fuse shard report JSONs and shard verdict caches.
fn run_merge(args: MergeArgs) -> ExitCode {
    if !args.reports.is_empty() {
        let mut docs = Vec::with_capacity(args.reports.len());
        for path in &args.reports {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("grade: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            match Json::parse(&text) {
                Ok(doc) => docs.push(doc),
                Err(e) => {
                    eprintln!("grade: {} is not a report: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        let merged = match merge_reports(&docs) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("grade: merge failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let rendered = merged.render();
        match &args.json_out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &rendered) {
                    eprintln!("grade: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                let rows = merged
                    .get("submissions")
                    .and_then(Json::as_array)
                    .map(|a| a.len())
                    .unwrap_or(0);
                eprintln!(
                    "merged {} shard report(s) ({rows} submissions) into {path}",
                    args.reports.len()
                );
            }
            // The document itself owns stdout (so `grade merge ... >
            // class.json` is valid JSON); status lines go to stderr.
            None => println!("{rendered}"),
        }
    }

    if let Some(out) = &args.cache_out {
        let mut entries: Vec<CacheEntry> = Vec::new();
        for path in &args.cache_in {
            // `store::load` treats a missing file as an empty cache — right
            // for the cold-start grading path, wrong for an explicit merge
            // input, where a typo'd path would silently drop a shard.
            if !Path::new(path).exists() {
                eprintln!("grade: --cache-in {path}: no such file");
                return ExitCode::FAILURE;
            }
            match store::load(Path::new(path)) {
                Ok(loaded) => {
                    store::report_skipped(Path::new(path), &loaded.skipped);
                    entries.extend(loaded.entries);
                }
                Err(e) => {
                    eprintln!("grade: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let total = entries.len();
        if let Err(e) = store::write_merged(Path::new(out), &entries) {
            eprintln!("grade: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "merged {} cache file(s) ({total} records) into {out}",
            args.cache_in.len()
        );
    }
    ExitCode::SUCCESS
}

/// Run all N shards as concurrent subprocesses of this same binary and
/// fuse their artifacts — the single-invocation driver for the
/// shard-within-a-machine path. `raw_args` is the original command line;
/// the driver strips its own flags and adds `--shard i/N` plus per-shard
/// artifact paths. The shards launch together and the driver waits for all
/// of them, so on a multi-core host the wall clock is the slowest shard,
/// not the sum — while the merged report stays byte-identical to the
/// unsharded run's.
fn run_spawn(args: &Args, raw_args: &[String]) -> ExitCode {
    let n = args.spawn.expect("spawn mode");
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("grade: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tmp = std::env::temp_dir().join(format!("ratest-spawn-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("grade: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // The per-shard artifacts are scratch state; remove them on every exit
    // path, including a failed shard (the merged outputs the user asked for
    // live at --json/--cache, outside the scratch dir).
    let code = run_spawn_in(args, raw_args, n, &exe, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    code
}

/// The body of [`run_spawn`], with the scratch directory's lifetime managed
/// by the caller.
fn run_spawn_in(args: &Args, raw_args: &[String], n: usize, exe: &Path, tmp: &Path) -> ExitCode {
    // The shard invocations inherit everything except the driver-only
    // flags. `--cache` is stripped too: with the shards running
    // *concurrently*, pointing them all at the user's cache file would race
    // on the append — each shard instead gets a private scratch copy
    // (pre-existing records still warm-start every shard), and the driver
    // folds the fresh verdicts back into the user's file once all shards
    // are done, preserving the unsharded load-then-append semantics.
    let mut base: Vec<String> = Vec::new();
    let mut it = raw_args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spawn" | "--json" | "--cache" => {
                let _ = it.next();
            }
            _ => base.push(a.clone()),
        }
    }
    let user_cache = args.cache_path.as_ref().map(Path::new);
    let cache_preexists = user_cache.map(|p| p.exists()).unwrap_or(false);

    // Launch every shard before waiting on any of them.
    let mut children: Vec<(usize, std::process::Child)> = Vec::new();
    let mut shard_reports: Vec<PathBuf> = Vec::new();
    let mut shard_caches: Vec<PathBuf> = Vec::new();
    for i in 1..=n {
        let json = tmp.join(format!("shard{i}.json"));
        let mut cmd = std::process::Command::new(exe);
        cmd.args(&base)
            .arg("--shard")
            .arg(format!("{i}/{n}"))
            .arg("--json")
            .arg(&json);
        if let Some(user) = user_cache {
            let scratch = tmp.join(format!("shard{i}.rvc"));
            if cache_preexists {
                if let Err(e) = std::fs::copy(user, &scratch) {
                    eprintln!("grade: cannot seed shard cache {}: {e}", scratch.display());
                    return ExitCode::FAILURE;
                }
            }
            cmd.arg("--cache").arg(&scratch);
            shard_caches.push(scratch);
        }
        eprintln!("spawn {i}/{n}: {}", exe.display());
        match cmd.spawn() {
            Ok(child) => children.push((i, child)),
            Err(e) => {
                eprintln!("grade: cannot spawn shard {i}/{n}: {e}");
                for (_, mut c) in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return ExitCode::FAILURE;
            }
        }
        shard_reports.push(json);
    }
    let mut failed = false;
    for (i, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("grade: shard {i}/{n} failed with {status}");
                failed = true;
            }
            Err(e) => {
                eprintln!("grade: cannot wait for shard {i}/{n}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }

    // Fold the shards' fresh verdicts back into the user's cache file,
    // append-only: records already on disk are never rewritten, and a
    // fingerprint two shards both graded lands once (the verdicts are
    // deterministic, so first-shard-wins loses nothing).
    if let Some(user) = user_cache {
        let mut cache = match store::Store::open(user) {
            Ok(cache) => cache,
            Err(e) => {
                eprintln!("grade: {}: {e}", user.display());
                return ExitCode::FAILURE;
            }
        };
        let mut shard_entries: Vec<CacheEntry> = Vec::new();
        for scratch in &shard_caches {
            match store::load(scratch) {
                Ok(loaded) => {
                    store::report_skipped(scratch, &loaded.skipped);
                    shard_entries.extend(loaded.entries);
                }
                Err(e) => {
                    eprintln!("grade: {}: {e}", scratch.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        match cache.append_new(shard_entries) {
            Ok(appended) => eprintln!(
                "verdict cache: appended {appended} new record(s) to {}",
                user.display()
            ),
            Err(e) => {
                eprintln!("grade: cannot update {}: {e}", user.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // Fuse the shard reports exactly like `grade merge` would.
    run_merge(MergeArgs {
        reports: shard_reports,
        json_out: args.json_path.clone(),
        cache_in: Vec::new(),
        cache_out: None,
    })
}

/// Run `grade fmt`: parse each `.ra` file and re-render it through the
/// parseable surface renderer. The renderer's output re-parses to the same
/// AST, so formatting is idempotent — pinned by the property test in
/// `tests/repair_conformance.rs`.
fn run_fmt(files: &[String], write: bool) -> ExitCode {
    if files.is_empty() {
        eprintln!("grade: fmt needs at least one .ra file\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in files {
        if !path.ends_with(".ra") {
            eprintln!("grade: fmt handles .ra files only, got {path}");
            failed = true;
            continue;
        }
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("grade: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let query = match ratest_ra::parser::parse_query(&source) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("grade: {path}: {e}");
                failed = true;
                continue;
            }
        };
        let formatted = format!("{}\n", ratest_ra::display::to_surface_string(&query));
        if write {
            if formatted != source {
                if let Err(e) = std::fs::write(path, &formatted) {
                    eprintln!("grade: cannot write {path}: {e}");
                    failed = true;
                    continue;
                }
                eprintln!("formatted {path}");
            }
        } else {
            print!("{formatted}");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let mut argv = raw_args.iter().cloned().peekable();
    match argv.peek().map(String::as_str) {
        Some("merge") => {
            argv.next();
            return match parse_merge_args(argv) {
                Ok(a) => run_merge(a),
                Err(e) => {
                    eprintln!("grade: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("fmt") => {
            argv.next();
            let rest: Vec<String> = argv.collect();
            let write = rest.iter().any(|a| a == "--write");
            let files: Vec<String> = rest.into_iter().filter(|a| a != "--write").collect();
            return run_fmt(&files, write);
        }
        Some("serve") => {
            argv.next();
            let config = match parse_serve_args(argv) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("grade: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdin = std::io::stdin();
            return match ratest_grader::serve::serve_with(stdin.lock(), std::io::stdout(), config) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("grade: serve transport error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("grade: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.spawn.is_some() {
        return run_spawn(&args, &raw_args);
    }

    let mut options = ratest_core::RatestOptions::default();
    for (k, v) in &args.params {
        options.parameters.insert(k.clone(), v.clone());
    }
    // `--trace` needs a single worker: the span tree is reconstructed from
    // the flat event order, which interleaved workers would scramble.
    let trace_sink = args.trace_path.as_ref().map(|_| {
        let sink = std::sync::Arc::new(ratest_core::TracingSink::new());
        options.events = ratest_core::session::EventHandle::new(
            sink.clone() as std::sync::Arc<dyn ratest_core::session::EventSink>
        );
        sink
    });
    let workers = if trace_sink.is_some() {
        if args.workers > 1 {
            eprintln!("grade: --trace forces --workers 1 (spans must stay well-nested)");
        }
        1
    } else {
        args.workers.max(1)
    };
    let grader = Grader::new(GraderConfig {
        workers,
        per_job_timeout: Duration::from_millis(args.timeout_ms),
        options,
        repair: args.suggest.then(ratest_repair::RepairOptions::default),
    });

    // Seed the engine from the persistent verdict cache; the store handle
    // remembers which keys are on disk, so only fresh ones are appended.
    let mut cache = None;
    if let Some(path) = &args.cache_path {
        match store::Store::open(path) {
            Ok(opened) => {
                opened.report_skipped();
                let inserted = grader.preload_cache(opened.entries().iter().cloned());
                println!("verdict cache: loaded {inserted} record(s) from {path}");
                cache = Some(opened);
            }
            Err(e) => {
                eprintln!("grade: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = if let Some(dir) = &args.dir {
        // Primary mode: grade a directory of .sql/.ra submissions.
        let db = ratest_datagen::university_database(&ratest_datagen::UniversityConfig {
            total_tuples: args.cohort.db_tuples,
            seed: args.cohort.seed,
            ..Default::default()
        });
        let spec = match &args.reference {
            Some(s) => s.clone(),
            None => {
                eprintln!("grade: directory mode requires --reference <N|path.sql|path.ra>");
                return ExitCode::FAILURE;
            }
        };
        let (label, reference) = match resolve_reference(&spec, &db) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("grade: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut cohort = match ingest_dir(dir, &db) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("grade: cannot read {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        };
        let total_files = cohort.entries.len();
        if let Some(spec) = &args.shard {
            cohort = shard_cohort(&cohort, spec);
            println!(
                "shard {spec}: {} of {total_files} submission(s) belong to this shard",
                cohort.entries.len()
            );
        }
        println!(
            "{label}\ncohort: {} files ({} parsed, {} rejected) over a hidden instance of {} tuples (seed {})\n",
            cohort.entries.len(),
            cohort.parsed_count(),
            cohort.rejected_count(),
            db.total_tuples(),
            args.cohort.seed
        );
        if args.diagnostics {
            for r in cohort.rejected() {
                println!("{}:\n{}\n", r.id, r.rendered);
            }
        }
        match grader.grade_cohort(&label, &reference, &db, &cohort) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("grade: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // Secondary mode: synthetic cohort for benchmarks / load tests.
        let cohort = generate_cohort(&args.cohort);
        println!("question {}: {}", args.cohort.question, cohort.prompt);
        println!(
            "cohort: {} generated submissions over a hidden instance of {} tuples (seed {})\n",
            cohort.submissions.len(),
            cohort.db.total_tuples(),
            args.cohort.seed
        );
        match grader.grade(
            &cohort.prompt,
            &cohort.reference,
            &cohort.db,
            &cohort.submissions,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("grade: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    print!("{}", report.render_text());

    if let Some(id) = &args.explain_id {
        match report.explanation_for(id) {
            Some(text) => println!("\nexplanation for {id}:\n{text}"),
            None => println!("\n{id}: no counterexample (correct, error, or unknown id)"),
        }
    }

    if args.compare_sequential {
        if args.dir.is_some() {
            eprintln!("grade: --compare-sequential applies to --generate mode only");
        } else {
            let cohort = generate_cohort(&args.cohort);
            let sequential = Grader::new(GraderConfig {
                workers: 1,
                per_job_timeout: Duration::from_millis(args.timeout_ms),
                ..Default::default()
            });
            match sequential.grade(
                &cohort.prompt,
                &cohort.reference,
                &cohort.db,
                &cohort.submissions,
            ) {
                Ok(seq) => {
                    let par = report.stats.wall_time.as_secs_f64();
                    let s = seq.stats.wall_time.as_secs_f64();
                    println!(
                        "\nsequential wall {:?} vs {} workers {:?}  (speedup {:.2}x)",
                        seq.stats.wall_time,
                        args.workers.max(1),
                        report.stats.wall_time,
                        if par > 0.0 { s / par } else { f64::INFINITY }
                    );
                }
                Err(e) => eprintln!("grade: sequential comparison failed: {e}"),
            }
        }
    }

    if let Some(path) = &args.json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("grade: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote JSON report to {path}");
    }

    // Append-only persistence: records that were already on disk are never
    // rewritten, only this run's fresh verdicts go out.
    if let (Some(cache), Some(path)) = (&mut cache, &args.cache_path) {
        match cache.append_new(grader.cache_entries()) {
            Ok(appended) => println!("verdict cache: appended {appended} new record(s) to {path}"),
            Err(e) => {
                eprintln!("grade: cannot update {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &args.metrics_path {
        // The file gets the *full* snapshot: counters/gauges/histograms are
        // deterministic, wall-clock totals ride in the `volatile` section so
        // a consumer can strip them structurally for byte-wise comparison.
        let snapshot = grader.metrics_snapshot().to_json(true);
        if let Err(e) = std::fs::write(path, snapshot) {
            eprintln!("grade: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote metrics snapshot to {path}");
    }
    if let (Some(path), Some(sink)) = (&args.trace_path, &trace_sink) {
        if let Err(e) = std::fs::write(path, sink.to_ndjson()) {
            eprintln!("grade: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote explain-trace spans to {path}");
    }
    ExitCode::SUCCESS
}
