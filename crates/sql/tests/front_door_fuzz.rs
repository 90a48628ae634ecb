//! The SQL front door never panics: arbitrary bytes (read as lossy UTF-8),
//! every truncation of every example under `examples/sql/`, and random
//! single-byte edits of them, compiled against the university catalog,
//! either lower to a query or fail with a `SqlError` whose span lies
//! within the source on character boundaries and renders.

use proptest::prelude::*;
use ratest_datagen::{university_database, UniversityConfig};
use ratest_sql::compile_sql;
use ratest_storage::Database;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn catalog() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| university_database(&UniversityConfig::with_total(100)))
}

/// Every `.sql` file under `dir`, recursively, in path order.
fn sql_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sql_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "sql") {
            out.push(path);
        }
    }
}

/// The bytes of every example.
fn examples() -> &'static [Vec<u8>] {
    static EXAMPLES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    EXAMPLES.get_or_init(|| {
        let mut files = Vec::new();
        sql_files(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sql"),
            &mut files,
        );
        assert!(files.len() >= 10, "{} examples", files.len());
        files.iter().map(|f| std::fs::read(f).unwrap()).collect()
    })
}

/// Compile `bytes` as lossy UTF-8; an error's span must lie within the
/// source on character boundaries, and it must render.
fn check(bytes: &[u8]) {
    let source = String::from_utf8_lossy(bytes);
    let Err(err) = compile_sql(&source, catalog()) else {
        return;
    };
    let span = err.span();
    assert!(
        span.start <= span.end && span.end <= source.len(),
        "span {span} outside 0..{} for {source:?}: {err}",
        source.len()
    );
    assert!(
        source.is_char_boundary(span.start) && source.is_char_boundary(span.end),
        "span {span} splits a character of {source:?}"
    );
    let _ = err.render(&source);
}

#[test]
fn every_truncation_of_every_example_is_diagnosed() {
    for example in examples() {
        for end in 0..=example.len() {
            check(&example[..end]);
        }
    }
}

/// Invalid UTF-8 reads as U+FFFD, three bytes wide: in a select list, as
/// the whole input and inside an unterminated string literal.
#[test]
fn replacement_characters_keep_spans_on_character_boundaries() {
    for input in [
        &b"SELECT \xff FROM Student"[..],
        b"\xe2\x82",
        b"SELECT 'caf\xc3",
    ] {
        check(input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_are_diagnosed(bytes in prop::collection::vec(0u16..256, 0..160)) {
        check(&bytes.iter().map(|&b| b as u8).collect::<Vec<_>>());
    }

    /// One byte of an example replaced, inserted or removed (removing past
    /// the end truncates).
    #[test]
    fn single_byte_edits_of_the_examples_are_diagnosed(
        file in 0usize..1 << 16,
        at in 0usize..1 << 16,
        edit in 0u8..3,
        byte in 0u16..256,
    ) {
        let examples = examples();
        let mut bytes = examples[file % examples.len()].clone();
        let at = at % (bytes.len() + 1);
        match edit {
            0 if at < bytes.len() => bytes[at] = byte as u8,
            1 => bytes.insert(at, byte as u8),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at.saturating_sub(1)),
        }
        check(&bytes);
    }
}
