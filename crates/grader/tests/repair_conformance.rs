//! Repair conformance (ISSUE 7 acceptance): pins the contracts that make
//! provenance-directed repair trustworthy across engines and processes.
//!
//! * **Recovery** — for every `sample_mutations` edit of all 8 course
//!   questions that the instance distinguishes, the repair engine returns a
//!   ranked suggestion list whose top hit is fingerprint-equivalent to the
//!   reference.
//! * **Determinism** — the suggestion JSON a grading engine emits is
//!   byte-identical across two fresh engines.
//! * **Directedness** — provenance-directed ordering tries strictly fewer
//!   candidates than brute-force enumeration (`repair.candidates_tried`).
//! * **Cache round-trip** — `Verdict::Wrong` rows carrying suggestions
//!   survive the on-disk verdict cache losslessly and canonically.
//! * **Wire round-trip** — a `grade serve` conversation with `"repair":true`
//!   carries the same suggestion objects byte-identically.

use ratest_core::session::Session;
use ratest_grader::json::Json;
use ratest_grader::{store, CacheEntry, Grader, GraderConfig, Submission};
use ratest_queries::course::course_questions;
use ratest_queries::mutations::sample_mutations;
use ratest_ra::ast::Query;
use ratest_ra::canonical::fingerprint;
use ratest_ra::display::to_surface_string;
use ratest_ra::testdata::figure1_db;
use ratest_repair::{suggest_repairs_on, RepairOptions, RepairSuggestion, Verification};
use ratest_storage::{Database, Value};
use ratest_telemetry::{MetricsHandle, MetricsRegistry};
use std::path::PathBuf;
use std::sync::Arc;

/// Mutations sampled per question. Every sampled edit that yields a
/// counterexample on the instance must be repaired.
const SAMPLES_PER_QUESTION: usize = 3;
const SAMPLE_SEED: u64 = 2019;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ratest-repair-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Session options binding the one parameter some course questions take.
fn course_options() -> ratest_core::pipeline::RatestOptions {
    let mut options = ratest_core::pipeline::RatestOptions::default();
    options.parameters.insert("minCS".into(), Value::Int(1));
    options
}

/// The counterexample distinguishing `wrong` from `reference` on `db`, when
/// the instance catches the error at all.
fn cex_for(
    reference: &Query,
    wrong: &Query,
    db: &Database,
) -> Option<ratest_core::problem::Counterexample> {
    let session = Session::builder(db.clone())
        .options(course_options())
        .build();
    let handle = session.prepare(reference).ok()?;
    session
        .explain(handle, wrong)
        .ok()
        .and_then(|o| o.counterexample.map(|c| *c))
}

/// Every caught sampled mutation of every course question, with its
/// counterexample.
fn caught_pairs(
    db: &Database,
) -> Vec<(
    usize,
    Query,
    Query,
    String,
    ratest_core::problem::Counterexample,
)> {
    let mut out = Vec::new();
    for q in course_questions() {
        for m in sample_mutations(
            &q.reference,
            SAMPLES_PER_QUESTION,
            SAMPLE_SEED + q.number as u64,
        ) {
            if let Some(cex) = cex_for(&q.reference, &m.query, db) {
                out.push((q.number, q.reference.clone(), m.query, m.description, cex));
            }
        }
    }
    out
}

#[test]
fn every_caught_sampled_mutation_recovers_a_fingerprint_equal_top_suggestion() {
    let db = figure1_db();
    let pairs = caught_pairs(&db);
    assert!(
        pairs.len() >= 8,
        "the figure-1 instance catches at least one sampled mutation per question, got {}",
        pairs.len()
    );
    for (number, reference, wrong, description, cex) in &pairs {
        let suggestions = suggest_repairs_on(
            wrong,
            reference,
            cex,
            &db,
            &RepairOptions::default(),
            &MetricsHandle::none(),
        );
        assert!(
            !suggestions.is_empty(),
            "question {number}: `{description}` has no suggestion"
        );
        let top = &suggestions[0];
        assert_eq!(
            top.fingerprint,
            fingerprint(reference),
            "question {number}: `{description}` top suggestion is not \
             fingerprint-equivalent to the reference"
        );
        assert_eq!(top.verified, Verification::Fingerprint);
    }
}

#[test]
fn suggestion_json_is_byte_deterministic_across_two_fresh_engines() {
    let db = figure1_db();
    let q3 = course_questions()
        .into_iter()
        .find(|q| q.number == 3)
        .unwrap()
        .reference;
    let submissions: Vec<Submission> = sample_mutations(&q3, 4, SAMPLE_SEED)
        .into_iter()
        .enumerate()
        .map(|(i, m)| Submission::new(format!("s{i}.ra"), format!("author-{i}"), m.query))
        .collect();
    let run = || {
        let mut config = GraderConfig {
            workers: 1,
            repair: Some(RepairOptions::default()),
            ..Default::default()
        };
        config.options = course_options();
        let grader = Grader::new(config);
        grader
            .grade("q3", &q3, &db, &submissions)
            .expect("batch grades")
            .to_json()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "fresh engines render identical reports");
    assert!(
        first.contains("\"suggestions\""),
        "at least one Wrong row carries suggestions"
    );
}

#[test]
fn directed_repair_tries_strictly_fewer_candidates_than_brute_force() {
    let db = figure1_db();
    let directed = Arc::new(MetricsRegistry::new());
    let brute = Arc::new(MetricsRegistry::new());
    // The full mutation space, not the sampled subset: directedness is an
    // aggregate claim, and individual pairs can go either way.
    let mut pairs = Vec::new();
    for q in course_questions() {
        for m in ratest_queries::mutations::mutate(&q.reference) {
            if let Some(cex) = cex_for(&q.reference, &m.query, &db) {
                pairs.push((q.number, q.reference.clone(), m.query, cex));
            }
        }
    }
    for (_, reference, wrong, cex) in pairs {
        for (registry, flag) in [(&directed, true), (&brute, false)] {
            let options = RepairOptions {
                directed: flag,
                max_suggestions: 1,
                ..RepairOptions::default()
            };
            suggest_repairs_on(
                &wrong,
                &reference,
                &cex,
                &db,
                &options,
                &MetricsHandle::new(Arc::clone(registry)),
            );
        }
    }
    let tried_directed = directed.counter("repair.candidates_tried");
    let tried_brute = brute.counter("repair.candidates_tried");
    assert!(
        tried_directed < tried_brute,
        "directed ordering ({tried_directed} candidates) must try strictly \
         fewer than brute force ({tried_brute})"
    );
}

#[test]
fn suggestions_survive_a_cache_round_trip_byte_identically() {
    let db = figure1_db();
    let dir = scratch("cache");
    // Collect real Wrong verdicts with suggestions from a repair-enabled
    // engine, then push them through the on-disk cache.
    let q3 = course_questions()
        .into_iter()
        .find(|q| q.number == 3)
        .unwrap()
        .reference;
    let submissions: Vec<Submission> = sample_mutations(&q3, 4, SAMPLE_SEED)
        .into_iter()
        .enumerate()
        .map(|(i, m)| Submission::new(format!("s{i}.ra"), format!("author-{i}"), m.query))
        .collect();
    let mut config = GraderConfig {
        workers: 1,
        repair: Some(RepairOptions::default()),
        ..Default::default()
    };
    config.options = course_options();
    let grader = Grader::new(config);
    let report = grader.grade("q3", &q3, &db, &submissions).expect("grades");
    let entries: Vec<CacheEntry> = report
        .graded
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.verdict.suggestions().is_empty())
        .map(|(i, g)| CacheEntry {
            context: 7,
            fingerprint: i as u64,
            verdict: g.verdict.clone(),
        })
        .collect();
    assert!(
        !entries.is_empty(),
        "at least one graded submission carries suggestions"
    );

    let first = dir.join("first.rvc");
    store::append(&first, &entries).expect("cache writes");
    let loaded = store::load(&first).expect("cache loads");
    assert!(loaded.skipped.is_empty(), "no records were skipped");
    assert_eq!(loaded.entries.len(), entries.len());
    for (original, decoded) in entries.iter().zip(&loaded.entries) {
        assert_eq!(
            original.verdict.suggestions(),
            decoded.verdict.suggestions(),
            "suggestions survive field for field"
        );
    }

    // Canonical encoding: re-writing the decoded entries reproduces the
    // file byte-for-byte.
    let second = dir.join("second.rvc");
    store::append(&second, &loaded.entries).expect("cache re-writes");
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
        "encode ∘ decode ∘ encode is the identity on cache files"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suggestions_survive_the_serve_wire_round_trip_byte_identically() {
    // The exact instance the daemon builds for this prepare request.
    let db = ratest_datagen::university_database(&ratest_datagen::UniversityConfig {
        total_tuples: 24,
        seed: 7,
        ..Default::default()
    });
    let q3 = course_questions()
        .into_iter()
        .find(|q| q.number == 3)
        .unwrap()
        .reference;
    // Pick a sampled mutation the 24-tuple instance distinguishes and whose
    // repair succeeds, so the wire comparison is non-vacuous.
    let (wrong, expected): (Query, Vec<Json>) = sample_mutations(&q3, 8, SAMPLE_SEED)
        .into_iter()
        .find_map(|m| {
            let session = Session::builder(db.clone()).build();
            let handle = session.prepare(&q3).ok()?;
            let cex = session.explain(handle, &m.query).ok()?.counterexample?;
            let suggestions = suggest_repairs_on(
                &m.query,
                &q3,
                &cex,
                &db,
                &RepairOptions::default(),
                &MetricsHandle::none(),
            );
            if suggestions.is_empty() {
                return None;
            }
            Some((m.query, suggestions.iter().map(wire_fields).collect()))
        })
        .expect("some sampled q3 mutation is caught and repaired on 24 tuples");

    let source = Json::Str(to_surface_string(&wrong)).render();
    let script = format!(
        "{{\"cmd\":\"prepare\",\"ref\":\"q3\",\"question\":3,\"db_tuples\":24,\"seed\":7}}\n\
         {{\"cmd\":\"grade\",\"ref\":\"q3\",\"id\":\"wrong.ra\",\"lang\":\"ra\",\"source\":{source},\"repair\":true}}\n\
         {{\"cmd\":\"shutdown\"}}\n"
    );
    // The daemon wants an owned `'static` writer; share the buffer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let run = || {
        let out = SharedBuf::default();
        ratest_grader::serve::serve(script.as_bytes(), out.clone()).expect("in-process serve");
        let bytes = out.0.lock().unwrap().clone();
        String::from_utf8(bytes).expect("serve output is UTF-8")
    };
    let output = run();
    assert_eq!(output, run(), "serve conversations are byte-deterministic");

    let grade_reply = output
        .lines()
        .map(|l| Json::parse(l).expect("daemon emits JSON lines"))
        .find(|d| d.get("id").and_then(Json::as_str) == Some("wrong.ra"))
        .expect("the grade request was answered");
    assert_eq!(
        grade_reply.get("verdict").and_then(Json::as_str),
        Some("wrong")
    );
    let Some(Json::Arr(wire)) = grade_reply.get("suggestions") else {
        panic!("wrong verdict with repair:true carries a suggestions array");
    };
    assert_eq!(
        *wire, expected,
        "wire suggestions match the direct engine field for field, in key order"
    );
}

/// A suggestion as the protocol spells it: every field, in wire order.
fn wire_fields(s: &RepairSuggestion) -> Json {
    Json::obj(vec![
        ("kind", Json::str(ratest_repair::kind_tag(s.kind))),
        ("description", Json::str(&s.description)),
        (
            "span",
            Json::Arr(vec![Json::Int(s.span.0 as i64), Json::Int(s.span.1 as i64)]),
        ),
        ("before", Json::str(&s.before)),
        ("after", Json::str(&s.after)),
        ("repaired", Json::str(&s.repaired)),
        ("fingerprint", Json::str(format!("{:016x}", s.fingerprint))),
        (
            "verified",
            Json::str(match s.verified {
                Verification::Fingerprint => "fingerprint",
                Verification::SearchAgreement => "search",
            }),
        ),
    ])
}
