//! The grading conformance harness (ISSUE 4): pins the contracts that make
//! persistent, sharded grading trustworthy across PRs and processes.
//!
//! * **Warm-regrade parity** — re-grading `examples/sql/` from a populated
//!   verdict cache performs *zero* counterexample searches (engine stats)
//!   and renders a byte-identical JSON report.
//! * **Shard-merge parity** — for any shard count, grading the shards
//!   independently and merging their reports/caches reproduces exactly the
//!   unsharded artifacts.
//! * **Cache round-trip** — the on-disk verdict encoding is lossless and
//!   canonical (encode ∘ decode ∘ encode is the identity on files), and
//!   corrupting any single byte of a cache file never panics the loader.
//! * **Golden schemas** — the JSON class report and the cache file format
//!   are pinned by golden files; an unintentional schema drift fails with a
//!   diff (re-bless intentional changes with `BLESS=1`).

use proptest::prelude::*;
use ratest_grader::ingest::RejectedSubmission;
use ratest_grader::json::Json;
use ratest_grader::submission::Submission;
use ratest_grader::{
    ingest_dir, merge_reports, shard_cohort, store, CacheEntry, Grader, GraderConfig, IngestEntry,
    IngestedCohort, ShardSpec, Verdict,
};
use ratest_queries::course::course_questions;
use ratest_ra::ast::Query;
use ratest_storage::{Database, Value};
use std::path::PathBuf;

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/sql")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ratest-conformance-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The same hidden instance the `grade` CLI uses by default.
fn hidden_instance() -> Database {
    ratest_datagen::university_database(&ratest_datagen::UniversityConfig {
        total_tuples: 60,
        seed: 2019,
        ..Default::default()
    })
}

fn q1_reference() -> Query {
    course_questions()
        .into_iter()
        .find(|q| q.number == 1)
        .expect("course question 1 exists")
        .reference
}

fn grader() -> Grader {
    let mut config = GraderConfig {
        workers: 2,
        ..Default::default()
    };
    config
        .options
        .parameters
        .insert("minCS".into(), Value::Int(1));
    Grader::new(config)
}

fn examples_cohort(db: &Database) -> IngestedCohort {
    ingest_dir(&examples_dir(), db).expect("examples/sql is readable")
}

// ---------------------------------------------------------------------------
// Warm-regrade parity
// ---------------------------------------------------------------------------

#[test]
fn warm_regrade_is_search_free_and_byte_identical() {
    let dir = scratch("warm");
    let cache_path = dir.join("verdicts.rvc");
    let db = hidden_instance();
    let reference = q1_reference();
    let cohort = examples_cohort(&db);

    // Cold run: populate the cache file.
    let cold_grader = grader();
    let cold = cold_grader
        .grade_cohort("course question 1", &reference, &db, &cohort)
        .unwrap();
    assert!(cold.stats.pipeline_runs > 0, "cold run must search");
    assert!(cold.stats.wrong > 0 && cold.stats.correct > 0 && cold.stats.rejected > 0);
    store::append(&cache_path, &cold_grader.cache_entries()).unwrap();

    // Warm run: a *fresh* engine seeded only from the file.
    let warm_grader = grader();
    let loaded = store::load(&cache_path).unwrap();
    assert!(loaded.skipped.is_empty(), "{:?}", loaded.skipped);
    assert_eq!(loaded.entries.len(), cold_grader.cached_verdicts());
    warm_grader.preload_cache(loaded.entries);
    let warm = warm_grader
        .grade_cohort("course question 1", &reference, &db, &cohort)
        .unwrap();

    // Zero counterexample searches: every distinct group came from the cache.
    assert_eq!(warm.stats.pipeline_runs, 0, "{:?}", warm.stats);
    assert_eq!(warm.stats.cache_hits, warm.stats.distinct_groups);
    for g in &warm.graded {
        if !matches!(g.verdict, Verdict::Rejected { .. }) {
            assert!(g.from_cache, "{} not served from cache", g.submission_id);
        }
    }

    // Byte-identical JSON report.
    assert_eq!(cold.to_json(), warm.to_json());

    // The warm counterexamples decoded from disk still render explanations.
    let wrong = warm
        .graded
        .iter()
        .find(|g| g.verdict.tag() == "wrong")
        .expect("the catalog has wrong submissions");
    let explanation = warm.explanation_for(&wrong.submission_id).unwrap();
    assert!(!explanation.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Shard-merge parity
// ---------------------------------------------------------------------------

#[test]
fn shard_grading_merges_to_exactly_the_unsharded_report() {
    let db = hidden_instance();
    let reference = q1_reference();
    let cohort = examples_cohort(&db);
    let unsharded = grader()
        .grade_cohort("course question 1", &reference, &db, &cohort)
        .unwrap()
        .to_json();

    for count in [2usize, 3] {
        let mut shard_docs = Vec::new();
        let mut shard_caches: Vec<CacheEntry> = Vec::new();
        let mut shard_sizes = Vec::new();
        for index in 1..=count {
            let spec = ShardSpec::new(index, count).unwrap();
            let slice = shard_cohort(&cohort, &spec);
            shard_sizes.push(slice.entries.len());
            let shard_grader = grader();
            let report = shard_grader
                .grade_cohort("course question 1", &reference, &db, &slice)
                .unwrap();
            shard_docs.push(Json::parse(&report.to_json()).unwrap());
            shard_caches.extend(shard_grader.cache_entries());
        }
        // The partition is total: the slices add up to the cohort.
        assert_eq!(
            shard_sizes.iter().sum::<usize>(),
            cohort.entries.len(),
            "{count} shards must partition the cohort"
        );
        assert!(
            shard_sizes.iter().all(|&s| s > 0),
            "this catalog spreads over {count} shards: {shard_sizes:?}"
        );

        // Merged report is byte-identical to the unsharded run.
        let merged = merge_reports(&shard_docs).unwrap().render();
        assert_eq!(merged, unsharded, "{count}-shard merge parity");

        // Merged caches warm-start a full regrade with zero searches.
        let dir = scratch(&format!("merge{count}"));
        let merged_cache = dir.join("merged.rvc");
        store::write_merged(&merged_cache, &shard_caches).unwrap();
        let warm_grader = grader();
        warm_grader.preload_cache(store::load(&merged_cache).unwrap().entries);
        let warm = warm_grader
            .grade_cohort("course question 1", &reference, &db, &cohort)
            .unwrap();
        assert_eq!(warm.stats.pipeline_runs, 0, "{:?}", warm.stats);
        assert_eq!(warm.to_json(), unsharded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Cache round-trip and corruption tolerance
// ---------------------------------------------------------------------------

/// Every verdict the real grading produced, plus synthetic `Error` rows
/// exercising the escaping edge cases.
fn representative_entries() -> Vec<CacheEntry> {
    let db = hidden_instance();
    let g = grader();
    g.grade_cohort(
        "course question 1",
        &q1_reference(),
        &db,
        &examples_cohort(&db),
    )
    .unwrap();
    let mut entries = g.cache_entries();
    for (i, message) in [
        "plain message",
        "multi\nline\r\nwith \\backslashes\\ and | pipes",
        "unicode: Märy 学生 🎓",
        "",
    ]
    .into_iter()
    .enumerate()
    {
        entries.push(CacheEntry {
            context: 0xDEAD_0000 + i as u64,
            fingerprint: i as u64,
            verdict: Verdict::Error {
                message: message.into(),
            },
        });
    }
    entries
}

#[test]
fn cache_round_trip_is_lossless_and_canonical() {
    let dir = scratch("roundtrip");
    let first = dir.join("first.rvc");
    let second = dir.join("second.rvc");
    let entries = representative_entries();
    assert!(entries.len() >= 8);

    // Payload-level: encode ∘ decode ∘ encode is the identity.
    for e in &entries {
        let payload = store::encode_verdict(&e.verdict).unwrap();
        let decoded = store::decode_verdict(&payload).unwrap();
        assert_eq!(store::encode_verdict(&decoded).unwrap(), payload);
    }

    // File-level: write, load, write again — byte-identical files.
    store::append(&first, &entries).unwrap();
    let loaded = store::load(&first).unwrap();
    assert!(loaded.skipped.is_empty(), "{:?}", loaded.skipped);
    assert_eq!(loaded.entries.len(), entries.len());
    store::append(&second, &loaded.entries).unwrap();
    assert_eq!(
        std::fs::read_to_string(&first).unwrap(),
        std::fs::read_to_string(&second).unwrap()
    );

    // Wrong verdicts kept their full counterexamples through the disk trip.
    let db = hidden_instance();
    let wrong = loaded
        .entries
        .iter()
        .filter_map(|e| e.verdict.counterexample())
        .collect::<Vec<_>>();
    assert!(!wrong.is_empty());
    for cex in wrong {
        assert!(
            db.contains_subinstance(cex.database()),
            "decoded counterexample must still be a sub-instance of the hidden db"
        );
        assert!(!cex.q1_result.set_eq(&cex.q2_result));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A loaded record as comparable data: its key and its canonical payload.
type Record = (u64, u64, String);

fn record(e: &CacheEntry) -> Record {
    let payload = store::encode_verdict(&e.verdict).expect("loaded verdicts are persistable");
    (e.context, e.fingerprint, payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any single byte of a cache file must never panic the
    /// loader: the outcome is either a clean load (the flip landed in
    /// whitespace-insensitive territory — impossible here, or produced a
    /// colliding-but-valid record), a skipped record, or a header error.
    #[test]
    fn single_byte_corruption_never_panics_the_loader(
        position_seed in 0u64..1_000_000,
        flip in 1u8..255,
    ) {
        use std::sync::OnceLock;
        static FILE: OnceLock<(PathBuf, Vec<u8>, usize)> = OnceLock::new();
        let (path, original, n_entries) = FILE.get_or_init(|| {
            let dir = scratch("fuzz");
            let path = dir.join("fuzz.rvc");
            let entries = representative_entries();
            store::append(&path, &entries).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes, entries.len())
        });

        let mut corrupted = original.clone();
        let pos = (position_seed as usize) % corrupted.len();
        corrupted[pos] ^= flip;
        let corrupted_path = path.with_extension("corrupted");
        std::fs::write(&corrupted_path, &corrupted).unwrap();

        match store::load(&corrupted_path) {
            Ok(loaded) => {
                // Every record is accounted for: loaded, or skipped with a
                // reason. At most the one corrupted line can be lost.
                prop_assert!(loaded.entries.len() + loaded.skipped.len() >= n_entries - 1);
                prop_assert!(loaded.entries.len() <= *n_entries + 1);
            }
            Err(store::StoreError::Header { .. }) => {} // flip hit line 1
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    /// Changing any single byte after the header loses only the record on
    /// the touched line — two records when the byte was the newline between
    /// them — and every other record loads intact. A non-UTF-8 byte is just
    /// one more way to damage one line.
    #[test]
    fn a_single_byte_change_loses_only_the_touched_records(
        position_seed in 0u64..1_000_000,
        replacement in 0u16..256,
    ) {
        use std::sync::OnceLock;
        static FILE: OnceLock<(PathBuf, Vec<u8>, Vec<Record>)> = OnceLock::new();
        let (path, original, records) = FILE.get_or_init(|| {
            let path = scratch("byte-change").join("store.rvc");
            store::append(&path, &representative_entries()).unwrap();
            let loaded = store::load(&path).unwrap();
            assert!(loaded.skipped.is_empty());
            // One record per line, in file order: record `i` is on line `i + 2`.
            let records = loaded.entries.iter().map(record).collect();
            (path.clone(), std::fs::read(&path).unwrap(), records)
        });

        let header_len = store::CACHE_HEADER.len() + 1;
        let pos = header_len + (position_seed as usize) % (original.len() - header_len);
        let mut byte = replacement as u8;
        if byte == original[pos] {
            byte = !byte;
        }
        let mut changed = original.clone();
        changed[pos] = byte;
        let changed_path = path.with_extension("changed");
        std::fs::write(&changed_path, &changed).unwrap();

        let loaded = store::load(&changed_path).expect("a record-level change is not fatal");
        let loaded_records: Vec<Record> = loaded.entries.iter().map(record).collect();
        // 0-based record indices on the touched line(s).
        let line = original[..pos].iter().filter(|&&b| b == b'\n').count() - 1;
        let touched = if original[pos] == b'\n' { line..line + 2 } else { line..line + 1 };
        for (i, intact) in records.iter().enumerate() {
            prop_assert!(
                touched.contains(&i) || loaded_records.contains(intact),
                "record {i} was lost by a change at byte {pos} (record {line}'s line)"
            );
        }
        prop_assert!(loaded.entries.len() <= records.len());
        prop_assert!(loaded.skipped.len() <= 2, "{:?}", loaded.skipped);
    }
}

// ---------------------------------------------------------------------------
// Golden schemas
// ---------------------------------------------------------------------------

/// A fixed toy batch with one row of every persistable verdict kind plus a
/// frontend rejection, graded on the paper's Figure 1 instance — small
/// enough to read in a diff, rich enough to pin the whole report schema.
fn golden_batch() -> (Grader, ratest_grader::BatchReport) {
    use ratest_ra::builder::rel;
    use ratest_ra::testdata;

    let db = testdata::figure1_db();
    let reference = testdata::example1_q1();
    let cohort = IngestedCohort {
        entries: vec![
            IngestEntry::Parsed(Submission::new("ada.ra", "ada", testdata::example1_q1())),
            IngestEntry::Parsed(Submission::new("ben.ra", "ben", testdata::example1_q2())),
            IngestEntry::Parsed(Submission::new(
                "cyd.ra",
                "cyd",
                rel("Student").project(&["name"]).build(), // not union compatible
            )),
            IngestEntry::Rejected(RejectedSubmission {
                id: "dee.sql".into(),
                author: "dee".into(),
                verdict: Verdict::Rejected {
                    message: "unknown column `nme` (at 7..10); did you mean `name`?".into(),
                    phase: "resolve".into(),
                    kind: "unknown_column".into(),
                    span: Some((7, 10)),
                },
                rendered: String::new(),
            }),
        ],
    };
    let g = Grader::new(GraderConfig {
        workers: 1,
        ..Default::default()
    });
    let report = g
        .grade_cohort("golden batch", &reference, &db, &cohort)
        .unwrap();
    (g, report)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — run with BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, golden,
        "\n{name} drifted from its golden pin. A format change is a cache/\
         report schema change: bump the format version (store::CACHE_HEADER) \
         and/or re-bless intentionally with BLESS=1.\n"
    );
}

#[test]
fn the_json_report_schema_is_pinned() {
    let (_, report) = golden_batch();
    assert_eq!(report.stats.correct, 1);
    assert_eq!(report.stats.wrong, 1);
    assert_eq!(report.stats.errors, 1);
    assert_eq!(report.stats.rejected, 1);
    check_golden("class_report.json", &report.to_json());
}

#[test]
fn the_cache_file_schema_is_pinned() {
    let dir = scratch("golden-cache");
    let path = dir.join("golden.rvc");
    let (g, _) = golden_batch();
    store::append(&path, &g.cache_entries()).unwrap();
    let contents = std::fs::read_to_string(&path).unwrap();
    assert!(contents.starts_with(store::CACHE_HEADER));
    check_golden("verdict_cache.rvc", &contents);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Telemetry conformance (the deterministic-metrics contract)
// ---------------------------------------------------------------------------

/// The warm-path guarantee, proven over the registry instead of report
/// fields: a warm re-grade's metrics delta shows zero counterexample
/// searches and one cache hit per distinct group.
#[test]
fn warm_regrade_metrics_prove_zero_searches() {
    let db = hidden_instance();
    let reference = q1_reference();
    let cohort = examples_cohort(&db);
    let engine = grader();
    engine
        .grade_cohort("course question 1", &reference, &db, &cohort)
        .unwrap();

    let baseline = engine.metrics_snapshot();
    let warm = engine
        .grade_cohort("course question 1", &reference, &db, &cohort)
        .unwrap();
    let after = engine.metrics_snapshot();

    assert_eq!(after.counter_since(&baseline, "grader.searches"), 0);
    assert_eq!(after.counter_since(&baseline, "grader.cache_misses"), 0);
    assert_eq!(
        after.counter_since(&baseline, "grader.cache_hits"),
        warm.stats.distinct_groups as u64,
        "every distinct group of the warm cohort is a cache hit"
    );
    // No pipeline work happened either: the evaluator/solver counters are
    // exactly where the cold run left them.
    for name in ["explain.runs", "ra.eval.calls", "solver.calls"] {
        assert_eq!(after.counter_since(&baseline, name), 0, "{name} moved");
    }
}

/// The occupancy gauges report *current* values, not high-water marks:
/// `grader.queue_depth` drains back to zero with the queue, and
/// `grader.warm_sessions` counts the contexts the engine holds.
#[test]
fn occupancy_gauges_track_real_values_not_high_water_marks() {
    let db = hidden_instance();
    let reference = q1_reference();
    let cohort = examples_cohort(&db);
    let mut config = GraderConfig {
        workers: 2,
        ..Default::default()
    };
    config
        .options
        .parameters
        .insert("minCS".into(), Value::Int(1));
    let engine = Grader::new(config);
    engine
        .grade_cohort("course question 1", &reference, &db, &cohort)
        .unwrap();

    // The queue was non-empty mid-batch, but once the batch drains the
    // gauge reads the real depth (zero), not the batch's high-water mark.
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.gauge("grader.queue_depth"), Some(0));
    assert_eq!(snapshot.gauge("grader.warm_sessions"), Some(1));
}

/// Two identical cold runs on fresh engines produce byte-identical metrics
/// JSON once the volatile duration section is (structurally) stripped.
#[test]
fn metrics_snapshots_are_byte_deterministic_without_volatile_fields() {
    let run = || {
        let db = hidden_instance();
        let reference = q1_reference();
        let cohort = examples_cohort(&db);
        let mut config = GraderConfig {
            workers: 1,
            ..Default::default()
        };
        config
            .options
            .parameters
            .insert("minCS".into(), Value::Int(1));
        let engine = Grader::new(config);
        engine
            .grade_cohort("course question 1", &reference, &db, &cohort)
            .unwrap();
        engine.metrics_snapshot()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.to_json(false), b.to_json(false));
    // The stripped rendering contains no volatile section at all, while the
    // full rendering isolates wall-clock totals under the single key.
    assert!(!a.to_json(false).contains("volatile"));
    assert!(a.counter("grader.searches") > 0);
}
