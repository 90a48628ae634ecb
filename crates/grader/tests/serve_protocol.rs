//! Protocol-conformance suite for the `grade serve` daemon.
//!
//! * **Golden conversation** (`fixtures/serve/course_conversation.ndjson` →
//!   `.expected`): the scripted dialogue of the acceptance criteria —
//!   prepare a reference, grade three submissions (one streamed with
//!   events, one rejected), re-grade one warm — must produce byte-exact
//!   output. `BLESS=1 cargo test -p ratest_grader --test serve_protocol`
//!   re-blesses after an intentional protocol change (bump
//!   [`ratest_grader::serve::PROTOCOL_VERSION`] when the change is
//!   wire-visible).
//! * **Determinism**: two fresh daemon runs over the same script are
//!   byte-identical.
//! * **Warm re-grade**: the re-graded submission is answered
//!   `"from_cache":true` and the `searches` counter does not move — zero
//!   counterexample searches.
//! * **Binary transport**: the same conversation piped through the real
//!   `grade serve` subprocess matches the in-process output, so the CI
//!   `serve-protocol` job and the library tests pin one artifact.
//! * **Front-door fuzz**: arbitrary bytes and truncated conversation lines
//!   each get exactly one response, and the daemon never dies of them.

use proptest::prelude::*;
use ratest_grader::json::Json;
use ratest_grader::serve::serve;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/serve")
        .join(name)
}

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

fn run_in_process(script: &str) -> String {
    let out = SharedBuf::default();
    serve(script.as_bytes(), out.clone()).expect("serve loop runs");
    let bytes = out.0.lock().unwrap().clone();
    String::from_utf8(bytes).expect("daemon output is UTF-8")
}

fn course_conversation() -> String {
    std::fs::read_to_string(fixture("course_conversation.ndjson")).expect("fixture exists")
}

#[test]
fn the_course_conversation_matches_its_golden_transcript() {
    let got = run_in_process(&course_conversation());
    let expected_path = fixture("course_conversation.expected");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&expected_path, &got).unwrap();
        eprintln!("blessed {}", expected_path.display());
        return;
    }
    let expected = std::fs::read_to_string(&expected_path)
        .expect("golden transcript exists (run with BLESS=1 to create)");
    assert_eq!(
        got, expected,
        "protocol output drifted from the golden transcript; if the change \
         is intentional, bump PROTOCOL_VERSION if wire-visible and re-bless \
         with BLESS=1"
    );
}

#[test]
fn two_daemon_runs_are_byte_identical() {
    let script = course_conversation();
    assert_eq!(run_in_process(&script), run_in_process(&script));
}

#[test]
fn the_warm_regrade_is_answered_without_a_search() {
    let out = run_in_process(&course_conversation());
    let docs: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
    let responses: Vec<&Json> = docs.iter().filter(|d| d.get("ok").is_some()).collect();
    // hello, prepare, 6 grades, 2 stats, shutdown.
    assert_eq!(responses.len(), 11, "{out}");

    let grade = |id: &str| {
        responses
            .iter()
            .find(|d| d.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}"))
            .to_owned()
    };
    // Cold grades actually searched; the rejection never reached the engine.
    assert_eq!(
        grade("s1.ra").get("from_cache").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(
        grade("s1.ra").get("verdict").and_then(Json::as_str),
        Some("wrong")
    );
    assert_eq!(
        grade("s3.sql").get("verdict").and_then(Json::as_str),
        Some("rejected")
    );
    // The warm re-grade: same fingerprint, same verdict, zero new searches.
    let regrade = grade("s1-regrade.ra");
    assert_eq!(
        regrade.get("from_cache").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        regrade.get("fingerprint"),
        grade("s1.ra").get("fingerprint")
    );
    assert_eq!(
        regrade.get("counterexample_size"),
        grade("s1.ra").get("counterexample_size")
    );
    // The repair re-grade: answered from the cache, enriched with ranked
    // suggestions (the `repair` opt-in upgrades the cached Wrong verdict).
    let repaired = grade("s4-repair.ra");
    assert_eq!(
        repaired.get("from_cache").and_then(Json::as_bool),
        Some(true)
    );
    assert!(
        matches!(repaired.get("suggestions"), Some(Json::Arr(a)) if !a.is_empty()),
        "repair:true on a wrong submission returns suggestions: {repaired:?}"
    );
    let stats: Vec<&&Json> = responses
        .iter()
        .filter(|d| d.get("cmd").and_then(Json::as_str) == Some("stats"))
        .collect();
    assert_eq!(stats.len(), 2);
    let searches_before = stats[0].get("searches").and_then(Json::as_i64).unwrap();
    let searches_after = stats[1].get("searches").and_then(Json::as_i64).unwrap();
    assert_eq!(searches_before, 2, "two distinct gradable submissions");
    assert_eq!(
        searches_after, searches_before,
        "the warm re-grade performed zero counterexample searches"
    );
}

#[test]
fn the_grade_binary_speaks_the_same_protocol() {
    let script = course_conversation();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_grade"))
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("grade serve starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("daemon exits on shutdown");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        run_in_process(&script),
        "the subprocess transport and the in-process loop emit one artifact"
    );
}

/// `grade --spawn N` (the single-invocation shard driver) fuses its shard
/// artifacts into exactly the report the unsharded run writes.
#[test]
fn spawn_driver_matches_the_unsharded_report() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let examples = repo_root.join("examples/sql");
    let tmp = std::env::temp_dir().join(format!("ratest-spawn-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();

    let grade = |extra: &[&str]| {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_grade"))
            .arg(&examples)
            .args(["--reference", "1", "--param", "minCS=1"])
            .args(extra)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("grade runs");
        assert!(status.success(), "grade {extra:?} failed");
    };
    let cold = tmp.join("cold.json");
    let spawned = tmp.join("spawned.json");
    grade(&["--json", cold.to_str().unwrap()]);
    grade(&["--spawn", "2", "--json", spawned.to_str().unwrap()]);
    assert_eq!(
        std::fs::read_to_string(&cold).unwrap(),
        std::fs::read_to_string(&spawned).unwrap(),
        "spawn-merged report differs from the unsharded run"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A non-UTF-8 request line through the real binary is answered with one
/// protocol error; the daemon keeps serving and exits 0.
#[test]
fn a_non_utf8_request_line_does_not_kill_the_daemon() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_grade"))
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("grade serve starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"cmd\":\"hello\"}\n\xff\xfe\n{\"cmd\":\"hello\"}\n{\"cmd\":\"shutdown\"}\n")
        .unwrap();
    let out = child.wait_with_output().expect("daemon exits on shutdown");
    assert!(out.status.success(), "{out:?}");
    let oks: Vec<Option<bool>> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .skip(1)
        .map(|l| Json::parse(l).unwrap().get("ok").and_then(Json::as_bool))
        .collect();
    assert_eq!(oks, [Some(true), Some(false), Some(true), Some(true)]);
}

/// The number of responses a request stream must produce: one per
/// non-blank line, up to and including the first `shutdown`.
fn expected_responses(input: &[u8]) -> usize {
    let mut expected = 0;
    for line in input.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let text = std::str::from_utf8(line).ok();
        if text.is_some_and(|t| t.trim().is_empty()) {
            continue;
        }
        expected += 1;
        let request = text.and_then(|t| Json::parse(t).ok());
        if request.is_some_and(|r| r.get("cmd").and_then(Json::as_str) == Some("shutdown")) {
            break;
        }
    }
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes, truncations and whole lines of the golden
    /// conversation, after its `prepare` (so whole `grade` lines really
    /// grade): each non-blank line gets exactly one response carrying an
    /// `ok` field, and the loop returns `Ok` without panicking.
    #[test]
    fn every_request_line_gets_exactly_one_response(
        lines in prop::collection::vec(
            (
                0u8..3,
                0usize..64,
                0usize..1024,
                prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..24),
            ),
            1..8,
        ),
    ) {
        let golden: Vec<&str> = include_str!("fixtures/serve/course_conversation.ndjson")
            .lines()
            .collect();
        let prepare = golden.iter().find(|l| l.contains("\"prepare\"")).expect("golden prepares");
        let mut input = format!("{prepare}\n").into_bytes();
        for (kind, which, cut, bytes) in lines {
            let line = golden[which % golden.len()].as_bytes();
            match kind {
                0 => input.extend_from_slice(&bytes),
                1 => input.extend_from_slice(&line[..cut % (line.len() + 1)]),
                _ => input.extend_from_slice(line),
            }
            input.push(b'\n');
        }
        let out = SharedBuf::default();
        let served = serve(&input[..], out.clone());
        prop_assert!(served.is_ok(), "{served:?} on {input:?}");
        let bytes = out.0.lock().unwrap().clone();
        let responses = String::from_utf8(bytes)
            .expect("daemon output is UTF-8")
            .lines()
            .filter(|l| Json::parse(l).expect("output lines are JSON").get("ok").is_some())
            .count();
        let input_text = String::from_utf8_lossy(&input);
        prop_assert_eq!(responses, expected_responses(&input), "on {:?}", input_text);
    }
}
