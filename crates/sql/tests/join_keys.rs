//! A comma join filtered in `WHERE` runs as the `JOIN … ON` it is written
//! as elsewhere: the cross-input equality becomes a hash key, so both files
//! return the same rows in the same order after visiting the same rows.

use ratest_datagen::{university_database, UniversityConfig};
use ratest_ra::eval::{evaluate_instrumented, Params, ResultSet};
use ratest_ra::Interrupt;
use ratest_sql::compile_sql;
use ratest_storage::Database;
use ratest_telemetry::{MetricsHandle, MetricsRegistry};
use std::sync::Arc;

/// The rows `examples/sql/<file>` returns on `db`, with the number of rows
/// its evaluation visited (`ra.eval.rows_scanned`).
fn run(file: &str, db: &Database) -> (ResultSet, u64) {
    let path = format!("{}/../../examples/sql/{file}", env!("CARGO_MANIFEST_DIR"));
    let query = compile_sql(&std::fs::read_to_string(path).unwrap(), db).unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let rows = evaluate_instrumented(
        &query,
        db,
        &Params::new(),
        &Interrupt::none(),
        &MetricsHandle::new(registry.clone()),
    )
    .unwrap();
    (rows, registry.counter("ra.eval.rows_scanned"))
}

#[test]
fn a_comma_join_visits_the_rows_its_join_on_twin_visits() {
    let db = university_database(&UniversityConfig::with_total(400));
    let (comma, comma_scanned) = run("join_comma.sql", &db);
    let (on, on_scanned) = run("join_on.sql", &db);
    assert!(!on.is_empty());
    assert_eq!(comma.rows(), on.rows());
    assert_eq!(comma_scanned, on_scanned);
}
