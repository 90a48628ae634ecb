//! The persistent verdict store: an on-disk, versioned, **append-only**
//! serialization of the cross-batch verdict cache.
//!
//! Fingerprints ([`ratest_ra::canonical::fingerprint`]) and grading-context
//! keys are platform-stable FNV-1a hashes, so a cache written by one process
//! (or one cohort shard) is meaningful to every other: a warm re-grade
//! replays all deterministic verdicts without a single counterexample
//! search, and `grade merge` can fuse the caches of independent shards.
//!
//! ## File format (version 2)
//!
//! ```text
//! ratest-verdict-cache v2
//! <context:016x> <fingerprint:016x> <checksum:016x> <payload>
//! ...
//! ```
//!
//! Version 2 extends the `wrong` payload with the verdict's (possibly empty)
//! list of repair suggestions; everything else is unchanged from v1. The
//! header bump makes the incompatibility explicit: a v1 file fails loudly
//! with a version error instead of silently skipping every record.
//!
//! One record per line. The payload is a [`ratest_storage::codec`] token
//! stream describing the verdict (including, for wrong submissions, the full
//! counterexample sub-instance with its original tuple identifiers), with
//! `\`, newline and carriage return escaped so a record is always exactly
//! one line. The checksum is the FNV-1a hash of the unescaped payload.
//!
//! Loading is **corruption tolerant**: a record that is not UTF-8, fails to
//! parse, fails its checksum, or decodes to garbage is skipped and reported in
//! [`LoadedCache::skipped`] — never a panic, and never fatal to the
//! surrounding records. Only a missing/foreign header is fatal (that is a
//! version or file-identity problem, not bit rot).
//!
//! Two verdict kinds are deliberately *not* persisted, mirroring the
//! in-memory cache policy: timeouts (load-dependent, caching one would make
//! a transient stall permanent) and rejections (they never enter the engine
//! cache — the frontend re-derives them from the submission source). The
//! stored [`Verdict::Wrong`] normalises its [`Timings`] to zero: wall-clock
//! breakdowns are provenance of one run, not part of the verdict.

use crate::verdict::Verdict;
use ratest_core::pipeline::{Algorithm, Timings};
use ratest_core::problem::{Counterexample, Witness};
use ratest_ra::classify::QueryClass;
use ratest_ra::eval::{Params, ResultSet};
use ratest_storage::codec::{
    decode_database, decode_selection, decode_value, encode_database, encode_selection,
    encode_value, Decoder, Encoder,
};
use ratest_storage::SubInstance;
use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Magic first line of a verdict cache file; bump the version suffix on any
/// format change (golden tests pin the current schema).
pub const CACHE_HEADER: &str = "ratest-verdict-cache v2";

/// One persisted cache entry: the grading-context key, the submission's
/// canonical fingerprint, and the verdict.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Hash of everything besides the submission that the verdict depends on
    /// (reference query, hidden instance, pipeline options).
    pub context: u64,
    /// Canonical fingerprint of the submitted query.
    pub fingerprint: u64,
    /// The cached verdict.
    pub verdict: Verdict,
}

/// A record that failed to load, with its 1-based line number and reason.
#[derive(Debug, Clone)]
pub struct SkippedRecord {
    /// 1-based line number in the cache file.
    pub line: usize,
    /// Human-readable reason the record was skipped.
    pub reason: String,
}

/// The outcome of loading a cache file: the good records plus a report of
/// every skipped one.
#[derive(Debug, Default)]
pub struct LoadedCache {
    /// Successfully decoded entries, in file order.
    pub entries: Vec<CacheEntry>,
    /// Records that were skipped (corrupt line, checksum mismatch, ...).
    pub skipped: Vec<SkippedRecord>,
}

/// Fatal store errors. Corrupt *records* are not errors (they are skipped);
/// these are problems with the file as a whole or the data being written.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file exists but does not start with [`CACHE_HEADER`] — a
    /// different format version or not a verdict cache at all.
    Header {
        /// The first line actually found (truncated for display).
        found: String,
    },
    /// The verdict kind cannot be persisted (timeout / rejected).
    Unpersistable(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "cache file I/O error: {e}"),
            StoreError::Header { found } => {
                write!(f, "not a `{CACHE_HEADER}` file (first line: `{found}`)")
            }
            StoreError::Unpersistable(kind) => {
                write!(f, "`{kind}` verdicts are not persisted")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

use ratest_ra::canonical::fnv1a;

// ---------------------------------------------------------------------------
// Verdict payload codec
// ---------------------------------------------------------------------------

fn class_tag(c: QueryClass) -> &'static str {
    match c {
        QueryClass::SJ => "SJ",
        QueryClass::SPU => "SPU",
        QueryClass::PJ => "PJ",
        QueryClass::JU => "JU",
        QueryClass::JUStar => "JUStar",
        QueryClass::SPJU => "SPJU",
        QueryClass::SPJUDStar => "SPJUDStar",
        QueryClass::SPJUD => "SPJUD",
        QueryClass::Aggregate => "Aggregate",
    }
}

fn decode_class(tag: &str) -> Result<QueryClass, String> {
    Ok(match tag {
        "SJ" => QueryClass::SJ,
        "SPU" => QueryClass::SPU,
        "PJ" => QueryClass::PJ,
        "JU" => QueryClass::JU,
        "JUStar" => QueryClass::JUStar,
        "SPJU" => QueryClass::SPJU,
        "SPJUDStar" => QueryClass::SPJUDStar,
        "SPJUD" => QueryClass::SPJUD,
        "Aggregate" => QueryClass::Aggregate,
        other => return Err(format!("unknown query class `{other}`")),
    })
}

fn algorithm_tag(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Auto => "Auto",
        Algorithm::Basic => "Basic",
        Algorithm::OptSigma => "OptSigma",
        Algorithm::PolytimeMonotone => "PolytimeMonotone",
        Algorithm::PolytimeSpjudStar => "PolytimeSpjudStar",
        Algorithm::AggBasic => "AggBasic",
        Algorithm::AggParam => "AggParam",
        Algorithm::AggOpt => "AggOpt",
    }
}

fn decode_algorithm(tag: &str) -> Result<Algorithm, String> {
    Ok(match tag {
        "Auto" => Algorithm::Auto,
        "Basic" => Algorithm::Basic,
        "OptSigma" => Algorithm::OptSigma,
        "PolytimeMonotone" => Algorithm::PolytimeMonotone,
        "PolytimeSpjudStar" => Algorithm::PolytimeSpjudStar,
        "AggBasic" => Algorithm::AggBasic,
        "AggParam" => Algorithm::AggParam,
        "AggOpt" => Algorithm::AggOpt,
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

fn encode_result_set(r: &ResultSet, e: &mut Encoder) {
    ratest_storage::codec::encode_schema(r.schema(), e);
    e.u(r.len() as u64);
    for row in r.rows() {
        e.u(row.len() as u64);
        for v in row {
            encode_value(v, e);
        }
    }
}

fn decode_result_set(d: &mut Decoder) -> Result<ResultSet, String> {
    let schema = ratest_storage::codec::decode_schema(d).map_err(|e| e.to_string())?;
    let nrows = d.usize().map_err(|e| e.to_string())?;
    let mut rows = Vec::with_capacity(nrows.min(65_536));
    for _ in 0..nrows {
        let nvals = d.usize().map_err(|e| e.to_string())?;
        let mut row = Vec::with_capacity(nvals.min(256));
        for _ in 0..nvals {
            row.push(decode_value(d).map_err(|e| e.to_string())?);
        }
        rows.push(row);
    }
    Ok(ResultSet::from_rows(schema, rows))
}

/// Parameters are a `HashMap`; encode sorted by name so the payload — and
/// with it the cache file — is byte-deterministic.
fn encode_params(p: &Params, e: &mut Encoder) {
    let mut entries: Vec<(&String, &ratest_storage::Value)> = p.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    e.u(entries.len() as u64);
    for (k, v) in entries {
        e.s(k);
        encode_value(v, e);
    }
}

fn decode_params(d: &mut Decoder) -> Result<Params, String> {
    let n = d.usize().map_err(|e| e.to_string())?;
    let mut p = Params::new();
    for _ in 0..n {
        let k = d.s().map_err(|e| e.to_string())?;
        let v = decode_value(d).map_err(|e| e.to_string())?;
        p.insert(k, v);
    }
    Ok(p)
}

fn encode_counterexample(cex: &Counterexample, e: &mut Encoder) {
    encode_selection(&cex.subinstance.selection, e);
    encode_database(&cex.subinstance.database, e);
    encode_result_set(&cex.q1_result, e);
    encode_result_set(&cex.q2_result, e);
    match &cex.witness {
        Some(w) => {
            e.u(1);
            e.u(w.tuple.len() as u64);
            for v in &w.tuple {
                encode_value(v, e);
            }
            e.u(w.from_q1 as u64);
            encode_selection(&w.selection, e);
        }
        None => {
            e.u(0);
        }
    }
    encode_params(&cex.parameters, e);
}

fn decode_counterexample(d: &mut Decoder) -> Result<Counterexample, String> {
    let selection = decode_selection(d).map_err(|e| e.to_string())?;
    let database = decode_database(d).map_err(|e| e.to_string())?;
    let q1_result = decode_result_set(d)?;
    let q2_result = decode_result_set(d)?;
    let witness = match d.u().map_err(|e| e.to_string())? {
        0 => None,
        _ => {
            let n = d.usize().map_err(|e| e.to_string())?;
            let mut tuple = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                tuple.push(decode_value(d).map_err(|e| e.to_string())?);
            }
            let from_q1 = d.u().map_err(|e| e.to_string())? != 0;
            let selection = decode_selection(d).map_err(|e| e.to_string())?;
            Some(Witness {
                tuple,
                from_q1,
                selection,
            })
        }
    };
    let parameters = decode_params(d)?;
    Ok(Counterexample {
        subinstance: SubInstance {
            selection,
            database,
        },
        q1_result,
        q2_result,
        witness,
        parameters,
    })
}

/// Encode a verdict to its canonical payload string.
///
/// Returns [`StoreError::Unpersistable`] for timeouts and rejections, which
/// are intentionally excluded from the persistent cache (see module docs).
/// (The wire-level [`crate::api`] codec, which has no persistence policy,
/// encodes those two kinds itself and reuses this stream for the rest.)
pub fn encode_verdict(v: &Verdict) -> Result<String, StoreError> {
    let mut e = Encoder::new();
    encode_verdict_into(v, &mut e)?;
    Ok(e.finish())
}

/// Append a persistable verdict to an existing encoder stream.
pub(crate) fn encode_verdict_into(v: &Verdict, e: &mut Encoder) -> Result<(), StoreError> {
    match v {
        Verdict::Correct => {
            e.tag("correct");
        }
        Verdict::Wrong {
            counterexample,
            class,
            algorithm,
            timings: _, // normalised to zero: run provenance, not verdict
            suggestions,
        } => {
            e.tag("wrong")
                .tag(class_tag(*class))
                .tag(algorithm_tag(*algorithm));
            encode_counterexample(counterexample, e);
            e.u(suggestions.len() as u64);
            for s in suggestions {
                ratest_repair::encode_suggestion(s, e);
            }
        }
        Verdict::Error { message } => {
            e.tag("error").s(message);
        }
        Verdict::Timeout { .. } => return Err(StoreError::Unpersistable("timeout")),
        Verdict::Rejected { .. } => return Err(StoreError::Unpersistable("rejected")),
    }
    Ok(())
}

/// Decode the body of a verdict whose tag was already consumed.
pub(crate) fn decode_verdict_tagged(tag: &str, d: &mut Decoder) -> Result<Verdict, String> {
    Ok(match tag {
        "correct" => Verdict::Correct,
        "wrong" => {
            let class = decode_class(d.tag().map_err(|e| e.to_string())?)?;
            let algorithm = decode_algorithm(d.tag().map_err(|e| e.to_string())?)?;
            let cex = decode_counterexample(d)?;
            let nsugg = d.usize().map_err(|e| e.to_string())?;
            let mut suggestions = Vec::with_capacity(nsugg.min(64));
            for _ in 0..nsugg {
                suggestions.push(ratest_repair::decode_suggestion(d).map_err(|e| e.to_string())?);
            }
            Verdict::Wrong {
                counterexample: Box::new(cex),
                class,
                algorithm,
                timings: Timings::default(),
                suggestions,
            }
        }
        "error" => Verdict::Error {
            message: d.s().map_err(|e| e.to_string())?,
        },
        other => return Err(format!("unknown verdict tag `{other}`")),
    })
}

/// Decode a verdict payload string.
pub fn decode_verdict(payload: &str) -> Result<Verdict, String> {
    let mut d = Decoder::new(payload);
    let tag = d.tag().map_err(|e| e.to_string())?;
    let verdict = decode_verdict_tagged(tag, &mut d)?;
    d.done().map_err(|e| e.to_string())?;
    Ok(verdict)
}

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

fn escape(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len());
    for c in payload.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(line: &str) -> Result<String, String> {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("bad escape `\\{other}`")),
            None => return Err("trailing backslash".into()),
        }
    }
    Ok(out)
}

/// Render one record line (without trailing newline).
fn render_record(entry: &CacheEntry) -> Result<String, StoreError> {
    let payload = encode_verdict(&entry.verdict)?;
    Ok(format!(
        "{:016x} {:016x} {:016x} {}",
        entry.context,
        entry.fingerprint,
        fnv1a(payload.as_bytes()),
        escape(&payload)
    ))
}

fn parse_record(line: &str) -> Result<CacheEntry, String> {
    let mut parts = line.splitn(4, ' ');
    let context = parts
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or("bad context field")?;
    let fingerprint = parts
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or("bad fingerprint field")?;
    let checksum = parts
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or("bad checksum field")?;
    let payload = unescape(parts.next().ok_or("missing payload")?)?;
    if fnv1a(payload.as_bytes()) != checksum {
        return Err("checksum mismatch".into());
    }
    let verdict = decode_verdict(&payload)?;
    Ok(CacheEntry {
        context,
        fingerprint,
        verdict,
    })
}

// ---------------------------------------------------------------------------
// File operations
// ---------------------------------------------------------------------------

/// Load a verdict cache file. A missing file is an empty cache (the first
/// cold run starts from nothing); corrupt records are skipped and reported.
/// Lines are decoded one at a time, so a record with a non-UTF-8 byte is one
/// skipped record, not an unreadable file.
pub fn load(path: &Path) -> Result<LoadedCache, StoreError> {
    let contents = match std::fs::read(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LoadedCache::default()),
        Err(e) => return Err(StoreError::Io(e)),
    };
    // The line endings of `str::lines`: `\n`, or `\r\n`.
    let mut lines = contents
        .split_inclusive(|&b| b == b'\n')
        .map(|line| {
            let line = line.strip_suffix(b"\n").unwrap_or(line);
            line.strip_suffix(b"\r").unwrap_or(line)
        })
        .enumerate();
    match lines.next() {
        None => return Ok(LoadedCache::default()), // empty file: empty cache
        Some((_, header)) if header == CACHE_HEADER.as_bytes() => {}
        Some((_, header)) => {
            let found = String::from_utf8_lossy(header).chars().take(64).collect();
            return Err(StoreError::Header { found });
        }
    }
    let mut out = LoadedCache::default();
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        let parsed = std::str::from_utf8(line)
            .map_err(|e| format!("record is not UTF-8: {e}"))
            .and_then(parse_record);
        match parsed {
            Ok(entry) => out.entries.push(entry),
            Err(reason) => out.skipped.push(SkippedRecord {
                line: idx + 1,
                reason,
            }),
        }
    }
    Ok(out)
}

/// Print every skipped record of `path` to stderr, one line each, naming
/// the file and the 1-based line number.
pub fn report_skipped(path: &Path, skipped: &[SkippedRecord]) {
    for s in skipped {
        eprintln!(
            "grade: {}: skipped corrupt record at line {}: {}",
            path.display(),
            s.line,
            s.reason
        );
    }
}

/// A verdict store file and the records known to be on it: those loaded
/// when it was opened plus every record appended through this handle.
/// [`Store::append_new`] writes only the records whose key is not on disk
/// yet — the one bookkeeping rule of `grade --cache`, `grade --spawn` and
/// the `grade serve` flushes.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    entries: Vec<CacheEntry>,
    on_disk: HashSet<(u64, u64)>,
    skipped: Vec<SkippedRecord>,
    appended: u64,
}

impl Store {
    /// Load the store at `path` (see [`load`]: a missing file is an empty
    /// store, corrupt records are kept aside for [`Store::report_skipped`]).
    pub fn open(path: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let path = path.into();
        let loaded = load(&path)?;
        let on_disk = loaded
            .entries
            .iter()
            .map(|e| (e.context, e.fingerprint))
            .collect();
        Ok(Store {
            path,
            entries: loaded.entries,
            on_disk,
            skipped: loaded.skipped,
            appended: 0,
        })
    }

    /// Every record on disk, loaded or appended through this handle, in
    /// file order.
    pub fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// [`report_skipped`] for the records that failed to load when the
    /// store was opened.
    pub fn report_skipped(&self) {
        report_skipped(&self.path, &self.skipped);
    }

    /// Number of distinct keys on disk.
    pub fn persisted(&self) -> usize {
        self.on_disk.len()
    }

    /// Number of records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Append the entries whose key is not on disk yet (of several with
    /// one key, the first wins); returns how many records were written.
    /// Nothing fresh means no write at all.
    pub fn append_new(
        &mut self,
        entries: impl IntoIterator<Item = CacheEntry>,
    ) -> Result<u64, StoreError> {
        let mut keys = HashSet::new();
        let fresh: Vec<CacheEntry> = entries
            .into_iter()
            .filter(|e| {
                let key = (e.context, e.fingerprint);
                !self.on_disk.contains(&key) && keys.insert(key)
            })
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        append(&self.path, &fresh)?;
        let written = fresh.len() as u64;
        self.on_disk.extend(keys);
        self.appended += written;
        self.entries.extend(fresh);
        Ok(written)
    }
}

/// Append entries to a cache file, creating it (with its version header) if
/// absent. Entries are written sorted by `(context, fingerprint)` so the
/// bytes appended by one logical operation are deterministic.
///
/// This is the only write mode the grading path uses: existing records are
/// never rewritten, so a crash mid-append at worst truncates the final
/// record — exactly the corruption [`load`] tolerates.
pub fn append(path: &Path, entries: &[CacheEntry]) -> Result<(), StoreError> {
    use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
    let mut sorted: Vec<&CacheEntry> = entries.iter().collect();
    sorted.sort_by_key(|e| (e.context, e.fingerprint));
    let (needs_header, needs_newline) = match std::fs::metadata(path) {
        Ok(m) if m.len() == 0 => (true, false),
        Ok(m) => {
            // A crash mid-append can leave the file without its final
            // newline; gluing the next record onto that partial line would
            // corrupt *two* records. Start on a fresh line instead.
            let mut f = std::fs::File::open(path)?;
            f.seek(SeekFrom::Start(m.len() - 1))?;
            let mut last = [0u8; 1];
            f.read_exact(&mut last)?;
            (false, last[0] != b'\n')
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => (true, false),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let mut buf = String::new();
    if needs_header {
        buf.push_str(CACHE_HEADER);
        buf.push('\n');
    } else if needs_newline {
        buf.push('\n');
    }
    for entry in sorted {
        buf.push_str(&render_record(entry)?);
        buf.push('\n');
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(buf.as_bytes())?;
    Ok(())
}

/// Write a fresh cache file containing exactly `entries` (sorted, deduped by
/// key — first occurrence wins). Used by `grade merge` to fuse shard caches.
pub fn write_merged(path: &Path, entries: &[CacheEntry]) -> Result<(), StoreError> {
    let mut seen = HashSet::new();
    let mut unique: Vec<&CacheEntry> = Vec::with_capacity(entries.len());
    for e in entries {
        if seen.insert((e.context, e.fingerprint)) {
            unique.push(e);
        }
    }
    unique.sort_by_key(|e| (e.context, e.fingerprint));
    let mut buf = String::from(CACHE_HEADER);
    buf.push('\n');
    for entry in unique {
        buf.push_str(&render_record(entry)?);
        buf.push('\n');
    }
    std::fs::write(path, buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Grader, GraderConfig};
    use crate::submission::Submission;
    use ratest_ra::testdata;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ratest-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.rvc")
    }

    /// Real verdicts from grading the running example.
    fn graded_entries() -> Vec<CacheEntry> {
        let db = testdata::figure1_db();
        let reference = testdata::example1_q1();
        let subs = vec![
            Submission::new("s0", "Ada", reference.clone()),
            Submission::new("s1", "Ben", testdata::example1_q2()),
        ];
        let grader = Grader::new(GraderConfig::default());
        grader.grade("toy", &reference, &db, &subs).unwrap();
        grader.cache_entries()
    }

    #[test]
    fn verdicts_roundtrip_through_the_payload_codec() {
        for entry in graded_entries() {
            let payload = encode_verdict(&entry.verdict).unwrap();
            let back = decode_verdict(&payload).unwrap();
            // Canonical: re-encoding the decoded verdict is byte-identical.
            assert_eq!(encode_verdict(&back).unwrap(), payload);
            assert_eq!(back.tag(), entry.verdict.tag());
            if let (Some(a), Some(b)) = (entry.verdict.counterexample(), back.counterexample()) {
                assert_eq!(a.size(), b.size());
                assert_eq!(a.q1_result, b.q1_result);
                assert_eq!(a.q2_result, b.q2_result);
                assert_eq!(a.subinstance.selection, b.subinstance.selection);
                assert_eq!(a.witness, b.witness);
            }
        }
    }

    #[test]
    fn cache_files_roundtrip_and_append_is_incremental() {
        let path = scratch("roundtrip");
        let entries = graded_entries();
        assert!(!entries.is_empty());
        append(&path, &entries).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.entries.len(), entries.len());
        assert!(loaded.skipped.is_empty());

        // Appending more entries keeps the earlier records untouched.
        let extra = CacheEntry {
            context: 7,
            fingerprint: 9,
            verdict: Verdict::Error {
                message: "multi\nline\\message".into(),
            },
        };
        append(&path, &[extra]).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.entries.len(), entries.len() + 1);
        assert!(loaded.skipped.is_empty());
        let last = loaded.entries.last().unwrap();
        match &last.verdict {
            Verdict::Error { message } => assert_eq!(message, "multi\nline\\message"),
            other => panic!("expected error verdict, got {}", other.tag()),
        }
    }

    #[test]
    fn appending_after_a_crash_truncated_write_starts_a_fresh_line() {
        let path = scratch("truncated");
        let entries = graded_entries();
        append(&path, &entries).unwrap();
        // Simulate a crash mid-append: chop the final record's tail,
        // including its newline.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.truncate(contents.len() - 10);
        std::fs::write(&path, &contents).unwrap();

        let extra = CacheEntry {
            context: 42,
            fingerprint: 42,
            verdict: Verdict::Correct,
        };
        append(&path, std::slice::from_ref(&extra)).unwrap();
        let loaded = load(&path).unwrap();
        // Only the deliberately truncated record is lost; the fresh append
        // must not be glued onto the partial line.
        assert_eq!(loaded.skipped.len(), 1, "{:?}", loaded.skipped);
        assert_eq!(loaded.entries.len(), entries.len());
        assert!(loaded
            .entries
            .iter()
            .any(|e| e.context == 42 && e.fingerprint == 42));
    }

    #[test]
    fn a_missing_file_is_an_empty_cache() {
        let loaded = load(Path::new("/nonexistent/definitely/not/here.rvc")).unwrap();
        assert!(loaded.entries.is_empty());
        assert!(loaded.skipped.is_empty());
    }

    #[test]
    fn corrupt_records_are_skipped_and_reported_never_fatal() {
        let path = scratch("corrupt");
        let entries = graded_entries();
        append(&path, &entries).unwrap();

        // Garble the file: flip a checksum, add a truncated line and plain
        // garbage; the remaining records must still load.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("0000000000000001 0000000000000002 deadbeefdeadbeef correct\n");
        contents.push_str("not a record at all\n");
        contents.push_str("0123 0456\n");
        std::fs::write(&path, &contents).unwrap();

        let loaded = load(&path).unwrap();
        assert_eq!(loaded.entries.len(), entries.len());
        assert_eq!(loaded.skipped.len(), 3, "{:?}", loaded.skipped);
        assert!(loaded.skipped[0].reason.contains("checksum"));
        // Line numbers are 1-based and point at the corrupt lines.
        assert_eq!(loaded.skipped[0].line, entries.len() + 2);
    }

    #[test]
    fn a_non_utf8_record_is_skipped_not_fatal() {
        let path = scratch("non-utf8");
        let entries = graded_entries();
        append(&path, &entries).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[CACHE_HEADER.len() + 5] = 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let loaded = load(&path).expect("one bad byte is not an unreadable file");
        assert_eq!(loaded.entries.len(), entries.len() - 1);
        assert_eq!(loaded.skipped.len(), 1, "{:?}", loaded.skipped);
        assert_eq!(loaded.skipped[0].line, 2);
        assert!(loaded.skipped[0].reason.contains("UTF-8"));
    }

    #[test]
    fn the_store_appends_only_keys_not_on_disk() {
        let path = scratch("append-new");
        let entries = graded_entries();
        let mut store = Store::open(&path).unwrap();
        assert_eq!(
            store.append_new(entries.clone()).unwrap(),
            entries.len() as u64
        );
        // Known keys — and a duplicate within one call — are not written again.
        let extra = CacheEntry {
            context: 7,
            fingerprint: 9,
            verdict: Verdict::Correct,
        };
        let again = entries.iter().cloned().chain([extra.clone(), extra]);
        assert_eq!(store.append_new(again).unwrap(), 1);
        assert_eq!(store.append_new(Vec::new()).unwrap(), 0);
        assert_eq!(store.persisted(), entries.len() + 1);
        assert_eq!(store.appended(), entries.len() as u64 + 1);

        let reopened = Store::open(&path).unwrap();
        assert_eq!(reopened.entries().len(), entries.len() + 1);
        assert_eq!(reopened.persisted(), entries.len() + 1);
        assert_eq!(reopened.appended(), 0);
    }

    #[test]
    fn a_foreign_header_is_a_version_error() {
        let path = scratch("header");
        std::fs::write(&path, "ratest-verdict-cache v999\n").unwrap();
        match load(&path) {
            Err(StoreError::Header { found }) => assert!(found.contains("v999")),
            other => panic!("expected header error, got {other:?}"),
        }
    }

    #[test]
    fn timeouts_and_rejections_are_refused() {
        let timeout = Verdict::Timeout {
            budget: std::time::Duration::from_secs(1),
        };
        assert!(matches!(
            encode_verdict(&timeout),
            Err(StoreError::Unpersistable("timeout"))
        ));
        let rejected = Verdict::Rejected {
            message: "m".into(),
            phase: "parse".into(),
            kind: "parse".into(),
            span: None,
        };
        assert!(matches!(
            encode_verdict(&rejected),
            Err(StoreError::Unpersistable("rejected"))
        ));
    }

    #[test]
    fn write_merged_dedups_by_key_first_wins() {
        let path = scratch("merged");
        let a = CacheEntry {
            context: 1,
            fingerprint: 2,
            verdict: Verdict::Correct,
        };
        let b = CacheEntry {
            context: 1,
            fingerprint: 2,
            verdict: Verdict::Error {
                message: "conflicting duplicate".into(),
            },
        };
        let c = CacheEntry {
            context: 1,
            fingerprint: 3,
            verdict: Verdict::Correct,
        };
        write_merged(&path, &[a, b, c]).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.entries[0].verdict.tag(), "correct");
    }
}
