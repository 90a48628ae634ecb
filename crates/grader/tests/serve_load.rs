//! Load-shape conformance for the v3 `grade serve` daemon: concurrency,
//! LRU eviction, store-backed restart, and admission control.
//!
//! The byte-level protocol goldens live in `serve_protocol.rs`; this suite
//! pins the *semester-scale* behaviors layered on top in v3:
//!
//! * **Concurrent determinism** — with `threads > 1`, responses may
//!   interleave across requests, but each request id's line stream (its
//!   events followed by its response) is byte-identical run over run, and
//!   the multiset of output lines is too.
//! * **Eviction + restart warm start** — verdicts of an LRU-evicted
//!   reference land in the `--cache` store; re-preparing (same process or a
//!   fresh daemon) preloads them, so re-grades are answered `from_cache`
//!   with **zero** counterexample searches.
//! * **Admission control** — an over-capacity flood is answered (with
//!   `"overloaded":true` timeout verdicts), never queued unboundedly and
//!   never dropped: exactly one response per request id.

use ratest_grader::json::Json;
use ratest_grader::serve::{serve_with, ServeConfig};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A cloneable writer so the test can read the daemon's output back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run(script: &str, config: ServeConfig) -> String {
    let out = SharedBuf::default();
    serve_with(script.as_bytes(), out.clone(), config).expect("serve loop runs");
    let bytes = out.0.lock().unwrap().clone();
    String::from_utf8(bytes).expect("daemon output is UTF-8")
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ratest-serve-load-{}-{name}", std::process::id()))
}

/// The lines attributed to one request id, in emission order.
fn lines_for_id(out: &str, id: &str) -> Vec<String> {
    out.lines()
        .filter(|l| {
            Json::parse(l)
                .ok()
                .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_owned))
                .as_deref()
                == Some(id)
        })
        .map(str::to_owned)
        .collect()
}

/// Five distinct-fingerprint submissions against course question 3 — each
/// one gets its own counterexample search, so each id has a non-trivial
/// event stream of its own.
const Q3_VARIANTS: [&str; 5] = [
    "project[s.name, s.major](join[s.name = r.name and r.dept = 'CS'](rename[s](Student), rename[r](Registration)))",
    "project[s.name, s.major](join[s.name = r.name](rename[s](Student), rename[r](Registration)))",
    "project[s.name](join[s.name = r.name](rename[s](Student), rename[r](Registration)))",
    "project[s.name, s.major](rename[s](Student))",
    "project[s.name, s.major](join[s.name = r.name and r.dept = 'ECON'](rename[s](Student), rename[r](Registration)))",
];

fn concurrent_script() -> String {
    let mut script =
        String::from(r#"{"cmd":"prepare","ref":"q3","question":3,"db_tuples":24,"seed":7}"#);
    script.push('\n');
    for (i, source) in Q3_VARIANTS.iter().enumerate() {
        script.push_str(&format!(
            r#"{{"cmd":"grade","ref":"q3","id":"s{i}.ra","lang":"ra","source":"{source}","events":true}}"#
        ));
        script.push('\n');
    }
    script.push_str("{\"cmd\":\"stats\",\"ref\":\"q3\"}\n{\"cmd\":\"shutdown\"}\n");
    script
}

#[test]
fn concurrent_grades_are_per_id_ordered_and_deterministic() {
    let config = ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    };
    let script = concurrent_script();
    let a = run(&script, config.clone());
    let b = run(&script, config);

    // The merged interleaving may differ run to run, but the line multiset
    // must not: every line's bytes are deterministic.
    let sorted = |out: &str| {
        let mut lines: Vec<&str> = out.lines().collect();
        lines.sort_unstable();
        lines.join("\n")
    };
    assert_eq!(sorted(&a), sorted(&b), "line multiset drifted across runs");

    for (i, _) in Q3_VARIANTS.iter().enumerate() {
        let id = format!("s{i}.ra");
        let stream_a = lines_for_id(&a, &id);
        let stream_b = lines_for_id(&b, &id);
        assert_eq!(stream_a, stream_b, "stream for {id} drifted across runs");
        // Events strictly precede the response; the response is last.
        let last = Json::parse(stream_a.last().expect("id has lines")).unwrap();
        assert_eq!(last.get("cmd").and_then(Json::as_str), Some("grade"));
        assert_eq!(last.get("ok").and_then(Json::as_bool), Some(true));
        for line in &stream_a[..stream_a.len() - 1] {
            let doc = Json::parse(line).unwrap();
            assert!(
                doc.get("event").is_some(),
                "non-event line mid-stream: {line}"
            );
        }
    }

    // `stats` is a barrier: by the time it answers, all five searches ran.
    let stats = a
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .find(|d| d.get("cmd").and_then(Json::as_str) == Some("stats"))
        .expect("stats response present");
    assert_eq!(stats.get("graded").and_then(Json::as_i64), Some(5));
    assert_eq!(stats.get("searches").and_then(Json::as_i64), Some(5));
}

#[test]
fn eviction_flushes_to_the_store_and_restart_is_a_warm_start() {
    let cache = tmp_path("evict.rvc");
    let _ = std::fs::remove_file(&cache);
    let config = ServeConfig {
        warm_cap: Some(1),
        cache: Some(cache.clone()),
        ..ServeConfig::default()
    };

    let wrong = Q3_VARIANTS[1];
    // prepare q3 → grade → prepare q4 (evicts q3, flushing its verdicts) →
    // re-prepare q3 (preloads them back) → re-grade is a cache hit.
    let script = format!(
        concat!(
            "{{\"cmd\":\"prepare\",\"ref\":\"q3\",\"question\":3,\"db_tuples\":24,\"seed\":7}}\n",
            "{{\"cmd\":\"grade\",\"ref\":\"q3\",\"id\":\"s1.ra\",\"lang\":\"ra\",\"source\":\"{wrong}\"}}\n",
            "{{\"cmd\":\"prepare\",\"ref\":\"q4\",\"question\":4,\"db_tuples\":24,\"seed\":7}}\n",
            "{{\"cmd\":\"prepare\",\"ref\":\"q3\",\"question\":3,\"db_tuples\":24,\"seed\":7}}\n",
            "{{\"cmd\":\"grade\",\"ref\":\"q3\",\"id\":\"s1-again.ra\",\"lang\":\"ra\",\"source\":\"{wrong}\"}}\n",
            "{{\"cmd\":\"stats\",\"ref\":\"q3\"}}\n",
            "{{\"cmd\":\"stats\"}}\n",
            "{{\"cmd\":\"shutdown\"}}\n",
        ),
        wrong = wrong
    );
    let out = run(&script, config.clone());
    let docs: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
    // banner, prepare, grade, prepare, prepare, grade, stats, stats, shutdown
    assert_eq!(docs.len(), 9, "{out}");
    let warm_refs = |d: &Json| d.get("warm_refs").and_then(Json::as_i64);
    assert_eq!(warm_refs(&docs[1]), Some(1));
    assert_eq!(
        warm_refs(&docs[3]),
        Some(1),
        "cap 1: preparing q4 evicted q3"
    );
    assert_eq!(
        warm_refs(&docs[4]),
        Some(1),
        "cap 1: re-preparing q3 evicted q4"
    );
    // The re-prepare preloaded q3's flushed verdicts (warmup probe + s1).
    assert_eq!(docs[4].get("preloaded").and_then(Json::as_i64), Some(2));
    assert_eq!(
        docs[5].get("from_cache").and_then(Json::as_bool),
        Some(true),
        "re-grade after eviction + re-prepare is answered from the store"
    );
    assert_eq!(
        docs[6].get("searches").and_then(Json::as_i64),
        Some(0),
        "the preloaded reference never searched again"
    );
    assert_eq!(docs[7].get("scope").and_then(Json::as_str), Some("daemon"));
    assert_eq!(docs[7].get("evictions").and_then(Json::as_i64), Some(2));

    // A *fresh* daemon over the same store: restart = warm start, zero
    // counterexample searches for the re-graded submission.
    let restart_script = format!(
        concat!(
            "{{\"cmd\":\"prepare\",\"ref\":\"q3\",\"question\":3,\"db_tuples\":24,\"seed\":7}}\n",
            "{{\"cmd\":\"grade\",\"ref\":\"q3\",\"id\":\"s1-restart.ra\",\"lang\":\"ra\",\"source\":\"{wrong}\"}}\n",
            "{{\"cmd\":\"stats\",\"ref\":\"q3\"}}\n",
            "{{\"cmd\":\"shutdown\"}}\n",
        ),
        wrong = wrong
    );
    let out = run(&restart_script, config);
    let docs: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(docs[1].get("preloaded").and_then(Json::as_i64), Some(2));
    assert_eq!(
        docs[2].get("from_cache").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        docs[3].get("searches").and_then(Json::as_i64),
        Some(0),
        "the restarted daemon re-grades with zero searches"
    );
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn overload_floods_get_one_answer_per_request_never_a_hang() {
    let config = ServeConfig {
        threads: 2,
        admit_timeout_ms: 0,
        ..ServeConfig::default()
    };
    let mut script =
        String::from(r#"{"cmd":"prepare","ref":"q3","question":3,"db_tuples":24,"seed":7}"#);
    script.push('\n');
    for i in 0..12 {
        let source = Q3_VARIANTS[i % Q3_VARIANTS.len()];
        script.push_str(&format!(
            r#"{{"cmd":"grade","ref":"q3","id":"f{i}.ra","lang":"ra","source":"{source}"}}"#
        ));
        script.push('\n');
    }
    script.push_str("{\"cmd\":\"shutdown\"}\n");

    let out = run(&script, config);
    let docs: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
    let grades: Vec<&Json> = docs
        .iter()
        .filter(|d| d.get("cmd").and_then(Json::as_str) == Some("grade"))
        .collect();
    assert_eq!(
        grades.len(),
        12,
        "every flood request got exactly one answer"
    );
    let mut ids: Vec<&str> = grades
        .iter()
        .filter_map(|d| d.get("id").and_then(Json::as_str))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 12, "no id was answered twice or dropped");
    for g in &grades {
        // An admission reject is a well-formed timeout verdict, not an error.
        if g.get("overloaded").and_then(Json::as_bool) == Some(true) {
            assert_eq!(g.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(g.get("verdict").and_then(Json::as_str), Some("timeout"));
        }
    }
    // The shutdown ack is the last line: the daemon drained before exiting.
    assert_eq!(
        docs.last().unwrap().get("cmd").and_then(Json::as_str),
        Some("shutdown")
    );
}

#[test]
fn the_binary_accepts_the_serve_flags() {
    let cache = tmp_path("bin.rvc");
    let _ = std::fs::remove_file(&cache);
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_grade"))
        .args([
            "serve",
            "--threads",
            "2",
            "--warm-cap",
            "2",
            "--admit-timeout-ms",
            "100",
            "--cache",
        ])
        .arg(&cache)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("grade serve starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"cmd\":\"hello\"}\n{\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n")
        .unwrap();
    let out = child.wait_with_output().expect("daemon exits on shutdown");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stats = stdout
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .find(|d| d.get("scope").and_then(Json::as_str) == Some("daemon"))
        .expect("daemon-scope stats");
    assert_eq!(stats.get("threads").and_then(Json::as_i64), Some(2));
    assert_eq!(stats.get("warm_cap").and_then(Json::as_i64), Some(2));
    assert_eq!(stats.get("persisted").and_then(Json::as_i64), Some(0));
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn the_daemon_reports_skipped_store_records_on_stderr() {
    let cache = tmp_path("skipped.rvc");
    std::fs::write(
        &cache,
        format!(
            "{}\nnot a record at all\n",
            ratest_grader::store::CACHE_HEADER
        ),
    )
    .unwrap();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_grade"))
        .arg("serve")
        .arg("--cache")
        .arg(&cache)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("grade serve starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n")
        .unwrap();
    let out = child.wait_with_output().expect("daemon exits on shutdown");
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("skipped corrupt record at line 2"),
        "stderr: {stderr}"
    );
    // The corrupt line is reported, not loaded, and the daemon still serves.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"persisted\":0"), "{stdout}");
    let _ = std::fs::remove_file(&cache);
}
