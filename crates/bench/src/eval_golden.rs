//! The executor's results, pinned row by row.
//!
//! Every course reference and each of its single-site mutations
//! (`mutations::mutate`, 8 + 76 queries) is evaluated on the 100-tuple
//! university instance, plain and annotated: each plain row is one line, in
//! the order the executor derives it, and each annotated row one line with
//! its how-provenance. Every query of `tpch_experiments()` (references and
//! wrong variants) is evaluated plain on the SF 0.0003 instance perfbench's
//! tpch-agg uses (seed 7).
//!
//! A change to plan compilation or the executor that is meant to keep every
//! result must keep `golden/eval_results.txt` byte for byte: row order,
//! annotations and all. Re-bless with `BLESS=1` only for an intended change
//! of results, and give the reason for each changed line.

use crate::aggregate_golden::check_golden;
use ratest_datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_provenance::annotate;
use ratest_queries::course::course_questions;
use ratest_queries::mutations::mutate;
use ratest_queries::tpch_queries::tpch_experiments;
use ratest_ra::ast::Query;
use ratest_ra::eval::evaluate;
use ratest_storage::{Database, Value};
use std::fmt::Write;

const GOLDEN: &str = "golden/eval_results.txt";

fn row(values: &[Value]) -> String {
    let values: Vec<String> = values.iter().map(Value::to_string).collect();
    format!("({})", values.join(","))
}

/// One line per plain row of `query` on `db`, then, with `annotated`, one
/// per annotated row; each line starts with `label`.
fn record(out: &mut String, label: &str, query: &Query, db: &Database, annotated: bool) {
    match evaluate(query, db) {
        Ok(result) => {
            writeln!(out, "{label} rows={}", result.len()).unwrap();
            for r in result.rows() {
                writeln!(out, "{label} row {}", row(r)).unwrap();
            }
        }
        Err(e) => writeln!(out, "{label} error={e}").unwrap(),
    }
    if !annotated {
        return;
    }
    match annotate(query, db) {
        Ok(result) => {
            writeln!(out, "{label} annotated={}", result.len()).unwrap();
            for (r, prv) in result.iter() {
                writeln!(out, "{label} prv {} {prv}", row(r)).unwrap();
            }
        }
        Err(e) => writeln!(out, "{label} annotated error={e}").unwrap(),
    }
}

fn results() -> String {
    let mut out = String::new();
    let db = university_database(&UniversityConfig::with_total(100));
    for question in course_questions() {
        let q = question.number;
        let label = format!("course q{q} ref");
        record(&mut out, &label, &question.reference, &db, true);
        for (index, mutation) in mutate(&question.reference).into_iter().enumerate() {
            let label = format!("course q{q}#{index}");
            record(&mut out, &label, &mutation.query, &db, true);
        }
    }
    let db = tpch_database(&TpchConfig {
        scale_factor: 0.0003,
        seed: 7,
    });
    for exp in tpch_experiments() {
        let name = exp.name;
        let label = format!("tpch {name} ref");
        record(&mut out, &label, &exp.reference, &db, false);
        for (variant, wrong) in exp.wrong.iter().enumerate() {
            let label = format!("tpch {name}#{variant}");
            record(&mut out, &label, wrong, &db, false);
        }
    }
    out
}

#[test]
fn executor_results_match_the_golden() {
    check_golden(GOLDEN, &results());
}
