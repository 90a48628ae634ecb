//! Provenance-annotated evaluation of SPJUD queries.
//!
//! [`annotate`] plays the role of the provenance-rewritten CTE queries of
//! Section 6: it runs the query through the executor that evaluates it,
//! [`ratest_ra::eval::execute`], with every row annotated by the Boolean
//! expression describing *how* the row was derived from base tuples.

use crate::boolexpr::BoolExpr;
use crate::error::{ProvenanceError, Result};
use ratest_ra::ast::Query;
use ratest_ra::eval::{execute, Annotated, Annotation};
use ratest_ra::expr::ParamMap;
use ratest_ra::interrupt::{Interrupt, Pacer};
use ratest_ra::QueryError;
use ratest_storage::{Database, TupleId, Value};
use ratest_telemetry::MetricsHandle;

/// The annotated result of a query: a set of value rows, each with its
/// how-provenance `Prv(t)`.
pub type AnnotatedResult = Annotated<BoolExpr>;

/// How-provenance: base tuples are their variables, joins conjoin,
/// duplicates disjoin (the de-duplication rule of Section 6's `string_agg`
/// rewrite), and a row of `R − S` that `S` derives too keeps
/// `Prv_R(t) ∧ ¬Prv_S(t)`.
impl Annotation for BoolExpr {
    fn base(id: TupleId) -> BoolExpr {
        BoolExpr::var(id)
    }

    fn and(&self, other: &BoolExpr) -> BoolExpr {
        BoolExpr::and2(self.clone(), other.clone())
    }

    fn or(&mut self, other: BoolExpr) {
        let existing = std::mem::replace(self, BoolExpr::False);
        *self = BoolExpr::or2(existing, other);
    }

    fn minus(&self, other: &BoolExpr) -> Option<BoolExpr> {
        Some(BoolExpr::and2(self.clone(), other.clone().negate()))
    }

    fn is_false(&self) -> bool {
        matches!(self, BoolExpr::False)
    }

    /// Aggregate values need the symbolic annotation of
    /// [`crate::aggprov::aggregate_provenance`].
    fn aggregate() -> Option<BoolExpr> {
        None
    }
}

/// Combine two *already computed* annotations into the annotation of their
/// set difference, without re-evaluating either query.
///
/// This is the sharing primitive behind batch grading: the reference query's
/// annotation is computed once per batch and combined — via this function —
/// with each distinct submission's annotation to obtain `ann(Q1 − Q2)` and
/// `ann(Q2 − Q1)`, instead of annotating the full difference query per pair.
/// It is the executor's own `Difference` arm,
/// [`ratest_ra::eval::difference_of`], so the result matches annotating the
/// difference query exactly. The inputs must be union compatible.
pub fn difference_of(left: &AnnotatedResult, right: &AnnotatedResult) -> Result<AnnotatedResult> {
    let pacer = Pacer::new(&Interrupt::none());
    Ok(ratest_ra::eval::difference_of(left, right, &pacer)?)
}

/// Annotate a parameter-free SPJUD query.
pub fn annotate(query: &Query, db: &Database) -> Result<AnnotatedResult> {
    annotate_with_params(query, db, &ParamMap::new())
}

/// Annotate an SPJUD query with parameter bindings.
///
/// Aggregate (group-by) nodes are rejected here — use
/// [`crate::aggprov::aggregate_provenance`] for aggregate queries, which
/// implements the richer annotation of Section 5.
pub fn annotate_with_params(
    query: &Query,
    db: &Database,
    params: &ParamMap,
) -> Result<AnnotatedResult> {
    annotate_interruptible(query, db, params, &Interrupt::none())
}

/// Annotate under a cooperative [`Interrupt`]: the row loops poll the hook
/// at the evaluator's stride, so a flooding provenance computation (whose
/// join fan-out is at least that of plain evaluation) stops within a bounded
/// amount of work of the hook being raised. See
/// [`ratest_ra::eval::evaluate_interruptible`] for the pacing contract.
pub fn annotate_interruptible(
    query: &Query,
    db: &Database,
    params: &ParamMap,
    interrupt: &Interrupt,
) -> Result<AnnotatedResult> {
    annotate_instrumented(query, db, params, interrupt, &MetricsHandle::none())
}

/// [`annotate_interruptible`] plus telemetry: folds the pacer's work counters
/// into `metrics` as `provenance.annotate.rows`, `provenance.annotate.batches`
/// and `provenance.annotate.interrupt_polls`, whether or not the annotation
/// completes. An inert handle records nothing.
pub fn annotate_instrumented(
    query: &Query,
    db: &Database,
    params: &ParamMap,
    interrupt: &Interrupt,
    metrics: &MetricsHandle,
) -> Result<AnnotatedResult> {
    let pacer = Pacer::new(interrupt);
    let result = execute(query, db, params, &pacer).map_err(|e| match e {
        QueryError::AnnotatedGroupBy => ProvenanceError::UnsupportedAggregateShape(
            "use aggregate_provenance for queries with group-by".into(),
        ),
        e => ProvenanceError::Query(e),
    });
    metrics.counter_inc("provenance.annotate.calls");
    metrics.counter_add("provenance.annotate.rows", pacer.work());
    metrics.counter_add("provenance.annotate.batches", pacer.batches());
    metrics.counter_add("provenance.annotate.interrupt_polls", pacer.polls());
    result
}

/// Compute the how-provenance of a *specific* output tuple of `Q1 − Q2`,
/// i.e. `Prv_{Q1−Q2}(t) = Prv_{Q1}(t) ∧ ¬Prv_{Q2}(t)`, without annotating the
/// full difference: the caller typically already pushed a selection for `t`
/// down both queries (this is the `prov-sp` configuration of Figure 4).
pub fn provenance_of_tuple_in_difference(
    q1: &Query,
    q2: &Query,
    db: &Database,
    tuple: &[Value],
    params: &ParamMap,
) -> Result<BoolExpr> {
    let a1 = annotate_with_params(q1, db, params)?;
    let p1 = a1.provenance_of(tuple).cloned().unwrap_or(BoolExpr::False);
    let a2 = annotate_with_params(q2, db, params)?;
    let p2 = a2.provenance_of(tuple).cloned().unwrap_or(BoolExpr::False);
    Ok(BoolExpr::and2(p1, p2.negate()))
}

/// Check that an annotated result is consistent with plain evaluation.
///
/// Note that the annotator may list *candidate* tuples whose provenance is
/// false on the full instance (e.g. a tuple eliminated by a difference: it
/// appears with provenance `Prv_R ∧ ¬Prv_S`, which only becomes true on some
/// strict sub-instances). Consistency therefore means:
///
/// * for every annotated tuple, its provenance evaluated on the full
///   instance is true **iff** plain evaluation returns the tuple, and
/// * every tuple returned by plain evaluation appears among the annotated
///   tuples.
///
/// Used by tests and the property-based suite.
pub fn consistent_with_evaluation(query: &Query, db: &Database, params: &ParamMap) -> Result<bool> {
    let annotated = annotate_with_params(query, db, params)?;
    let plain = ratest_ra::eval::evaluate_with_params(query, db, params)?;
    let all = ratest_storage::TupleSelection::all(db);
    for (row, provenance) in annotated.iter() {
        let derivable = provenance.eval(&|id| all.contains(id));
        if derivable != plain.contains(row) {
            return Ok(false);
        }
    }
    for row in plain.rows() {
        if annotated.provenance_of(row).is_none() {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::testdata;
    use ratest_storage::{DataType, Relation, Schema};

    fn student(row: u32) -> TupleId {
        TupleId::new(0, row)
    }
    fn registration(row: u32) -> TupleId {
        TupleId::new(1, row)
    }

    #[test]
    fn base_relation_provenance_is_its_variables() {
        let db = testdata::figure1_db();
        let out = annotate(&Query::relation("Student"), &db).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.provenance_of(&[Value::from("Mary"), Value::from("CS")]),
            Some(&BoolExpr::var(student(0)))
        );
    }

    #[test]
    fn example1_q2_provenance_matches_equation_1() {
        // Prv_{Q2(D)}(Mary, CS) = t1·t4 + t1·t5  (Equation (1) in the paper,
        // where t1 is Mary's Student tuple and t4, t5 her CS registrations).
        let db = testdata::figure1_db();
        let out = annotate(&testdata::example1_q2(), &db).unwrap();
        let prv = out
            .provenance_of(&[Value::from("Mary"), Value::from("CS")])
            .unwrap();
        let vars = prv.variables();
        assert!(vars.contains(&student(0)));
        assert!(vars.contains(&registration(0)));
        assert!(vars.contains(&registration(1)));
        assert_eq!(vars.len(), 3);
        // Semantics: satisfied by {t1,t4}, {t1,t5}, not by {t1} or {t4,t5}.
        let check = |ids: &[TupleId]| {
            let set: std::collections::BTreeSet<_> = ids.iter().copied().collect();
            prv.eval_set(&set)
        };
        assert!(check(&[student(0), registration(0)]));
        assert!(check(&[student(0), registration(1)]));
        assert!(!check(&[student(0)]));
        assert!(!check(&[registration(0), registration(1)]));
    }

    #[test]
    fn difference_provenance_matches_example_2_1() {
        // Prv_{(Q2−Q1)(D)}(Mary, CS) simplifies to t1·t4·t5: Mary appears as a
        // wrong answer only when both of her CS registrations are retained.
        let db = testdata::figure1_db();
        let q2_minus_q1 = Query::Difference {
            left: std::sync::Arc::new(testdata::example1_q2()),
            right: std::sync::Arc::new(testdata::example1_q1()),
        };
        let out = annotate(&q2_minus_q1, &db).unwrap();
        let prv = out
            .provenance_of(&[Value::from("Mary"), Value::from("CS")])
            .unwrap();
        let need_both = |ids: &[TupleId]| {
            let set: std::collections::BTreeSet<_> = ids.iter().copied().collect();
            prv.eval_set(&set)
        };
        assert!(need_both(&[student(0), registration(0), registration(1)]));
        assert!(!need_both(&[student(0), registration(0)]));
        assert!(!need_both(&[student(0), registration(1)]));
        // Jesse needs any two of his three CS registrations.
        let prv_jesse = out
            .provenance_of(&[Value::from("Jesse"), Value::from("CS")])
            .unwrap();
        let jesse = |rows: &[u32]| {
            let mut ids = vec![student(2)];
            ids.extend(rows.iter().map(|&r| registration(r)));
            let set: std::collections::BTreeSet<_> = ids.into_iter().collect();
            prv_jesse.eval_set(&set)
        };
        assert!(jesse(&[5, 6]));
        assert!(jesse(&[5, 7]));
        assert!(jesse(&[6, 7]));
        assert!(!jesse(&[5]));
    }

    #[test]
    fn union_and_projection_merge_with_or() {
        let db = testdata::figure1_db();
        // π_name(Registration): Mary appears via three registrations.
        let q = ratest_ra::builder::rel("Registration")
            .project(&["name"])
            .build();
        let out = annotate(&q, &db).unwrap();
        let prv = out.provenance_of(&[Value::from("Mary")]).unwrap();
        assert_eq!(prv.variables().len(), 3);
        assert!(prv.is_monotone());
    }

    #[test]
    fn annotation_is_consistent_with_plain_evaluation() {
        let db = testdata::figure1_db();
        for q in [
            testdata::example1_q1(),
            testdata::example1_q2(),
            ratest_ra::builder::rel("Registration")
                .select(ratest_ra::builder::col("dept").eq(ratest_ra::builder::lit("CS")))
                .project(&["name", "course"])
                .build(),
        ] {
            assert!(consistent_with_evaluation(&q, &db, &ParamMap::new()).unwrap());
        }
    }

    #[test]
    fn provenance_of_missing_tuple_is_false() {
        let db = testdata::figure1_db();
        let prv = provenance_of_tuple_in_difference(
            &testdata::example1_q2(),
            &testdata::example1_q1(),
            &db,
            &[Value::from("Nobody"), Value::from("CS")],
            &ParamMap::new(),
        )
        .unwrap();
        assert!(prv.is_false());
    }

    /// `R(x)` holding `0..r_rows`, `S(x)` holding the even numbers below
    /// `r_rows`, and the two-column `T(x, y)`.
    fn numbers_db(r_rows: i64) -> Database {
        let mut db = Database::new("numbers");
        let one = Schema::new(vec![("x", DataType::Int)]);
        let mut r = Relation::new("R", one.clone());
        r.insert_all((0..r_rows).map(|i| vec![Value::Int(i)]))
            .unwrap();
        let mut s = Relation::new("S", one);
        s.insert_all((0..r_rows).step_by(2).map(|i| vec![Value::Int(i)]))
            .unwrap();
        let mut t = Relation::new(
            "T",
            Schema::new(vec![("x", DataType::Int), ("y", DataType::Int)]),
        );
        t.insert_all([vec![Value::Int(1), Value::Int(2)]]).unwrap();
        for rel in [r, s, t] {
            db.add_relation(rel).unwrap();
        }
        db
    }

    #[test]
    fn the_annotated_difference_polls_the_interrupt() {
        use ratest_ra::interrupt::{InterruptHook, Interrupted};
        use std::sync::Arc;

        #[derive(Debug)]
        struct FireAtOnce;
        impl InterruptHook for FireAtOnce {
            fn interrupted(&self) -> Option<Interrupted> {
                Some(Interrupted::StepQuotaExhausted)
            }
        }

        // Scans tick nothing, so only the difference's own row loop can
        // reach the first poll.
        let db = numbers_db(2 * Pacer::STRIDE as i64);
        let r_minus_s = Query::Difference {
            left: Arc::new(Query::relation("R")),
            right: Arc::new(Query::relation("S")),
        };
        let interrupt = Interrupt::hooked(Arc::new(FireAtOnce));
        let err = annotate_interruptible(&r_minus_s, &db, &ParamMap::new(), &interrupt)
            .expect_err("the hook fires on the first poll");
        assert_eq!(
            err,
            ProvenanceError::Query(QueryError::Interrupted(Interrupted::StepQuotaExhausted))
        );
        // Uninterrupted, every row of R is a candidate: the even ones with
        // `Prv_R ∧ ¬Prv_S`.
        assert_eq!(
            annotate(&r_minus_s, &db).unwrap().len(),
            2 * Pacer::STRIDE as usize
        );
    }

    #[test]
    fn annotated_set_operations_check_union_compatibility() {
        let db = numbers_db(4);
        let r = ratest_ra::builder::rel("R");
        for q in [
            r.clone().union(Query::relation("T")).build(),
            r.difference(Query::relation("T")).build(),
        ] {
            let err = annotate(&q, &db).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProvenanceError::Query(QueryError::NotUnionCompatible { .. })
                ),
                "{q:?}: {err}"
            );
        }
    }

    #[test]
    fn groupby_is_rejected_by_the_spjud_annotator() {
        let db = testdata::figure1_db();
        let err = annotate(&testdata::example4_q1(), &db).unwrap_err();
        assert!(matches!(err, ProvenanceError::UnsupportedAggregateShape(_)));
    }

    #[test]
    fn difference_of_matches_annotating_the_difference_query() {
        let db = testdata::figure1_db();
        let q1 = testdata::example1_q1();
        let q2 = testdata::example1_q2();
        let diff = Query::Difference {
            left: std::sync::Arc::new(q2.clone()),
            right: std::sync::Arc::new(q1.clone()),
        };
        let whole = annotate(&diff, &db).unwrap();
        let combined =
            difference_of(&annotate(&q2, &db).unwrap(), &annotate(&q1, &db).unwrap()).unwrap();
        assert_eq!(whole, combined);
    }
}
