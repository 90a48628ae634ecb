//! A guard on what a finished explain keeps alive.
//!
//! A caller that holds on to its `ExplainOutcome`s (a report, a cache, a
//! benchmark's output check) pays for every row, schema and index a
//! counterexample retains, once per explain. This test explains all 76
//! course mutations at 100 tuples through fresh sessions, drops the
//! sessions, and measures the heap the outcomes still hold with a counting
//! global allocator: live bytes and live allocations per explain. The bounds
//! sit 10% above the measured footprint, so a change that makes retained
//! counterexamples larger fails here before it shows up as peak RSS.

use ratest_suite::core::session::Session;
use ratest_suite::core::ExplainOutcome;
use ratest_suite::datagen::{university_database, UniversityConfig};
use ratest_suite::queries::course::course_questions;
use ratest_suite::queries::mutations::mutate;
use ratest_suite::ra::ast::Query;
use ratest_suite::storage::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

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

/// Retained heap per explain: 969 B in 18.7 allocations, measured in debug
/// and release builds alike (1,235 B in 24.2 allocations before result sets
/// shared their plan's schema and counterexamples were kept at their size).
/// The bounds are the measured values plus 10%.
const MAX_BYTES_PER_EXPLAIN: f64 = 1_066.0;
const MAX_ALLOCATIONS_PER_EXPLAIN: f64 = 20.6;

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

    // A first pass builds what the instance caches for every later one
    // (its foreign-key index).
    drop(pass(&db, &references, &pairs));

    let (bytes_before, allocations_before) = live();
    let outcomes = pass(&db, &references, &pairs);
    let (bytes_after, allocations_after) = live();

    let counterexamples = outcomes
        .iter()
        .filter(|o| o.counterexample.is_some())
        .count();
    assert_eq!(counterexamples, 65, "65 pairs disagree, 11 agree");
    let n = pairs.len() as f64;
    let bytes = (bytes_after - bytes_before) as f64 / n;
    let allocations = (allocations_after - allocations_before) as f64 / n;
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
