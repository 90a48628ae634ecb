//! A guard on what a finished explain keeps alive.
//!
//! A caller that holds on to its `ExplainOutcome`s (a report, a cache, a
//! benchmark's output check) pays for every row, schema and index a
//! counterexample retains, once per explain. These tests explain all 76
//! course mutations at 100 tuples, and the seven TPC-H aggregate pairs of
//! the tpch-agg benchmark at SF 0.0003, through fresh sessions, drop the
//! sessions, and measure the heap the outcomes still hold with a counting
//! global allocator: live bytes and live allocations per explain (course)
//! or per pass (TPC-H). The bounds sit 10% above the measured footprint, so
//! a change that makes retained counterexamples larger fails here before it
//! shows up as peak RSS.

use ratest_suite::core::session::Session;
use ratest_suite::core::ExplainOutcome;
use ratest_suite::datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_suite::queries::course::course_questions;
use ratest_suite::queries::mutations::mutate;
use ratest_suite::queries::tpch_queries::tpch_experiments;
use ratest_suite::ra::ast::Query;
use ratest_suite::storage::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// The system allocator, counting live bytes and live allocations.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCATIONS: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
            LIVE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_ALLOCATIONS.fetch_sub(1, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes and live allocations right now.
fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_ALLOCATIONS.load(Ordering::Relaxed),
    )
}

/// The counts are process-wide: one measurement at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// Run a pass twice (the first builds what the instance caches for every
/// later one, e.g. its foreign-key index) and return the second pass's
/// outcomes with the bytes and allocations they keep.
fn retained(run: impl Fn() -> Vec<ExplainOutcome>) -> (Vec<ExplainOutcome>, f64, f64) {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    drop(run());
    let (bytes_before, allocations_before) = live();
    let outcomes = run();
    let (bytes_after, allocations_after) = live();
    (
        outcomes,
        (bytes_after - bytes_before) as f64,
        (allocations_after - allocations_before) as f64,
    )
}

/// Retained heap per explain: 454 B in 8.4 allocations, measured in debug
/// and release builds alike. It was 525 B before a result set left its
/// annotation vector to the annotated result, boxed its lookup index and
/// timings stopped storing their total; 664 B in 10.9 allocations before a
/// counterexample's sub-instance kept only its selection and a share of the
/// instance's relations between uses; 969 B in 18.7 before sub-instance
/// tuples shared their values with the instance's, relations shared their
/// name and schema behind one pointer, an outcome boxed its counterexample
/// and a witness shared its counterexample's selection; and 1,235 B in 24.2
/// before result sets shared their plan's schema and counterexamples were
/// kept at their size. The bounds are the measured values plus 10%.
const MAX_BYTES_PER_EXPLAIN: f64 = 500.0;
const MAX_ALLOCATIONS_PER_EXPLAIN: f64 = 9.2;

/// Retained heap per pass of the seven tpch-agg pairs (SF 0.0003, five
/// counterexamples): 3,430 B in 48 allocations, against 3,862 B before the
/// smaller result sets and timings above, and 6,918 B in 84 while
/// every counterexample kept its sub-instance's relations (384 B of
/// relation slots per counterexample, one row allocation per non-empty
/// relation). The bounds are the measured values plus 10%.
const MAX_BYTES_PER_AGGREGATE_PASS: f64 = 3773.0;
const MAX_ALLOCATIONS_PER_AGGREGATE_PASS: f64 = 52.8;

/// Explain every pair through fresh sessions, one per reference, and drop
/// the sessions: what is left is what the outcomes keep.
fn pass(db: &Database, references: &[Query], pairs: &[(usize, Query)]) -> Vec<ExplainOutcome> {
    let sessions: Vec<_> = references
        .iter()
        .map(|reference| {
            let session = Session::builder(db.clone()).build();
            let handle = session.prepare(reference).expect("references prepare");
            (session, handle)
        })
        .collect();
    let mut outcomes = Vec::with_capacity(pairs.len());
    for (reference, query) in pairs {
        let (session, handle) = &sessions[*reference];
        outcomes.push(
            session
                .explain(*handle, query)
                .expect("every pair explains"),
        );
    }
    outcomes
}

#[test]
fn finished_counterexamples_stay_small() {
    let db = university_database(&UniversityConfig::with_total(100));
    let mut references = Vec::new();
    let mut pairs = Vec::new();
    for question in course_questions() {
        for m in mutate(&question.reference) {
            pairs.push((references.len(), m.query));
        }
        references.push(question.reference);
    }
    assert_eq!(pairs.len(), 76);

    let (outcomes, bytes, allocations) = retained(|| pass(&db, &references, &pairs));
    let counterexamples = outcomes
        .iter()
        .filter(|o| o.counterexample.is_some())
        .count();
    assert_eq!(counterexamples, 65, "65 pairs disagree, 11 agree");
    let n = pairs.len() as f64;
    let (bytes, allocations) = (bytes / n, allocations / n);
    println!("retained per explain: {bytes:.0} B in {allocations:.1} allocations");
    assert!(
        bytes <= MAX_BYTES_PER_EXPLAIN,
        "each explain keeps {bytes:.0} B (bound {MAX_BYTES_PER_EXPLAIN})"
    );
    assert!(
        allocations <= MAX_ALLOCATIONS_PER_EXPLAIN,
        "each explain keeps {allocations:.1} allocations (bound {MAX_ALLOCATIONS_PER_EXPLAIN})"
    );
}

/// The TPC-H pairs perfbench's tpch-agg leaves out (their searches end
/// `unsupported`).
const TPCH_EXCLUDED: [(&str, usize); 3] = [("Q18", 0), ("Q21-S", 0), ("Q21-S", 1)];

#[test]
fn finished_aggregate_counterexamples_stay_small() {
    let db = tpch_database(&TpchConfig::with_scale(0.0003));
    let mut references = Vec::new();
    let mut pairs = Vec::new();
    for exp in tpch_experiments() {
        for (variant, wrong) in exp.wrong.into_iter().enumerate() {
            if !TPCH_EXCLUDED.contains(&(exp.name, variant)) {
                pairs.push((references.len(), wrong));
                references.push(exp.reference.clone());
            }
        }
    }
    assert_eq!(pairs.len(), 7);

    let (outcomes, bytes, allocations) = retained(|| pass(&db, &references, &pairs));
    let counterexamples = outcomes
        .iter()
        .filter(|o| o.counterexample.is_some())
        .count();
    assert_eq!(counterexamples, 5, "5 pairs disagree, 2 agree");
    println!("retained per pass: {bytes:.0} B in {allocations:.0} allocations");
    assert!(
        bytes <= MAX_BYTES_PER_AGGREGATE_PASS,
        "a pass keeps {bytes:.0} B (bound {MAX_BYTES_PER_AGGREGATE_PASS})"
    );
    assert!(
        allocations <= MAX_ALLOCATIONS_PER_AGGREGATE_PASS,
        "a pass keeps {allocations:.0} allocations (bound {MAX_ALLOCATIONS_PER_AGGREGATE_PASS})"
    );
}
