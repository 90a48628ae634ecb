//! Whether a query is well formed does not depend on the data: a column
//! that does not resolve is an error on every instance, including those on
//! which no row ever reaches the expression that names it.

use ratest_ra::builder::{col, lit, rel};
use ratest_ra::eval::evaluate;
use ratest_ra::QueryError;
use ratest_storage::{DataType, Database, Relation, Schema, Value};

/// `R(x)` holding `0..r_rows` and `S(x)` holding `0..s_rows`.
fn db(r_rows: i64, s_rows: i64) -> Database {
    let mut db = Database::new("errors");
    for (name, rows) in [("R", r_rows), ("S", s_rows)] {
        let mut rel = Relation::new(name, Schema::new(vec![("x", DataType::Int)]));
        rel.insert_all((0..rows).map(|i| vec![Value::Int(i)]))
            .unwrap();
        db.add_relation(rel).unwrap();
    }
    db
}

#[test]
fn an_unknown_column_in_a_selection_is_an_error_on_every_instance() {
    let q = rel("R").select(col("nope").eq(lit(1i64))).build();
    for r_rows in [0, 1] {
        assert!(
            matches!(
                evaluate(&q, &db(r_rows, 1)),
                Err(QueryError::UnknownColumn { .. })
            ),
            "R holds {r_rows} rows"
        );
    }
}

#[test]
fn an_unresolved_nested_loop_join_predicate_is_an_error_on_every_instance() {
    // No equality between the sides, so the join runs by nested loops and
    // evaluates its predicate only on pairs that exist.
    let unknown = rel("R")
        .rename("a")
        .join_on(rel("S").rename("b").build(), col("a.x").lt(col("b.nope")))
        .build();
    // `x` is both `a.x` and `b.x`.
    let ambiguous = rel("R")
        .rename("a")
        .join_on(rel("S").rename("b").build(), col("x").lt(lit(3i64)))
        .build();
    for (r_rows, s_rows) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
        let db = db(r_rows, s_rows);
        assert!(
            matches!(
                evaluate(&unknown, &db),
                Err(QueryError::UnknownColumn { .. })
            ),
            "{r_rows} × {s_rows} rows"
        );
        assert!(
            matches!(
                evaluate(&ambiguous, &db),
                Err(QueryError::AmbiguousColumn { .. })
            ),
            "{r_rows} × {s_rows} rows"
        );
    }
}
