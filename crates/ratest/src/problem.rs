//! Problem definitions and result types: counterexamples (SCP) and witnesses
//! (SWP), plus verification.

use crate::error::{RatestError, Result};
use ratest_ra::ast::Query;
use ratest_ra::eval::{evaluate_plan, Params, ResultSet};
use ratest_ra::interrupt::Interrupt;
use ratest_ra::plan::Plan;
use ratest_storage::{Database, SubInstance, TupleSelection, Value};
use ratest_telemetry::MetricsHandle;
use std::sync::Arc;

/// A witness (Definition 2): a set of base tuples that keeps a particular
/// output tuple in the result of `Q1 − Q2` (or `Q2 − Q1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The output tuple being witnessed.
    pub tuple: Vec<Value>,
    /// Whether the tuple is in `Q1(D) \ Q2(D)` (`true`) or `Q2(D) \ Q1(D)`.
    pub from_q1: bool,
    /// The selected base tuples.
    pub selection: TupleSelection,
}

impl Witness {
    /// Size of the witness (number of base tuples).
    pub fn size(&self) -> usize {
        self.selection.len()
    }
}

/// A counterexample (Definition 1): a sub-instance `D' ⊆ D` on which the two
/// queries disagree, together with the evidence of that disagreement.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The selected tuples and the induced database.
    pub subinstance: SubInstance,
    /// `Q1(D')`.
    pub q1_result: ResultSet,
    /// `Q2(D')`.
    pub q2_result: ResultSet,
    /// The witness this counterexample was derived from (absent for the
    /// trivial counterexample or the aggregate algorithms, which reason per
    /// group rather than per tuple).
    pub witness: Option<Witness>,
    /// Parameter values chosen by the parameterized algorithms (λ' of
    /// Definition 3); empty for non-parameterized queries.
    pub parameters: Params,
}

impl Counterexample {
    /// Number of tuples in the counterexample — the objective being
    /// minimized.
    pub fn size(&self) -> usize {
        self.subinstance.size()
    }

    /// The induced database `D'`.
    pub fn database(&self) -> &Database {
        &self.subinstance.database
    }
}

/// Check that the results of two queries are union compatible and actually
/// differ on `db`; returns the two result sets.
pub fn check_distinguishes(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
) -> Result<(ResultSet, ResultSet)> {
    check_distinguishes_budgeted(q1, q2, db, params, &crate::session::Budget::unlimited())
}

/// [`check_distinguishes`] under a [`crate::session::Budget`]: the raw
/// evaluations poll the budget inside their row loops, so one flooding
/// submission cannot out-run its deadline during this phase.
pub fn check_distinguishes_budgeted(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    budget: &crate::session::Budget,
) -> Result<(ResultSet, ResultSet)> {
    check_distinguishes_instrumented(
        q1,
        q2,
        db,
        params,
        budget,
        &ratest_telemetry::MetricsHandle::none(),
    )
}

/// [`check_distinguishes_budgeted`] plus telemetry: both evaluations fold
/// their row counters into `metrics` (`ra.eval.*`).
pub fn check_distinguishes_instrumented(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    budget: &crate::session::Budget,
    metrics: &ratest_telemetry::MetricsHandle,
) -> Result<(ResultSet, ResultSet)> {
    PairPlans::compile(q1, q2, db)?.distinguish(db, params, budget, metrics)
}

/// Both queries of a pair compiled against an instance. Every sub-instance
/// of that instance is evaluated through these plans, so a search compiles
/// each query once however many candidates it verifies.
#[derive(Debug, Clone)]
pub struct PairPlans {
    /// `Q1`'s plan.
    pub q1: Plan,
    /// `Q2`'s plan.
    pub q2: Plan,
}

impl PairPlans {
    /// Compile both queries against `db`.
    pub fn compile(q1: &Query, q2: &Query, db: &Database) -> Result<PairPlans> {
        Ok(PairPlans::new(
            Plan::compile(q1, db)?,
            Plan::compile(q2, db)?,
        ))
    }

    /// Pair two plans. When their output schemas are equal, `Q2`'s results
    /// share `Q1`'s copy of the columns.
    pub fn new(q1: Plan, mut q2: Plan) -> PairPlans {
        q2.share_schema(q1.schema());
        PairPlans { q1, q2 }
    }

    /// Check that the two outputs are union compatible, then evaluate both
    /// queries on `db` under the budget, folding their row counters into
    /// `metrics`.
    pub fn distinguish(
        &self,
        db: &Database,
        params: &Params,
        budget: &crate::session::Budget,
        metrics: &MetricsHandle,
    ) -> Result<(ResultSet, ResultSet)> {
        let (s1, s2) = (self.q1.schema(), self.q2.schema());
        if !s1.union_compatible(s2) {
            return Err(RatestError::NotUnionCompatible {
                left: s1.to_string(),
                right: s2.to_string(),
            });
        }
        let interrupt = budget.interrupt();
        let r1 = evaluate_plan(&self.q1, db, params, &interrupt, metrics)?;
        let r2 = evaluate_plan(&self.q2, db, params, &interrupt, metrics)?;
        Ok((r1, r2))
    }
}

/// Materialize a tuple selection into a full [`Counterexample`], evaluating
/// both queries on the induced sub-instance and **verifying** that they
/// disagree and that the sub-instance satisfies the foreign keys
/// (constraints closed under subinstances hold automatically).
pub fn build_counterexample(
    q1: &Query,
    q2: &Query,
    db: &Database,
    selection: TupleSelection,
    witness: Option<Witness>,
    params: &Params,
) -> Result<Counterexample> {
    let plans = PairPlans::compile(q1, q2, db)?;
    verify_candidate(
        &plans,
        db,
        selection,
        witness,
        params,
        &CandidateEval::none(),
    )
}

/// Evaluation context threaded into the candidate loops of the search
/// algorithms: the request's interrupt hook and metrics sink, so candidate
/// evaluation paces and reports exactly like the rest of the pipeline.
#[derive(Clone)]
pub struct CandidateEval {
    /// Metrics sink for the `ra.eval.*` counters.
    pub metrics: MetricsHandle,
    /// The request's interrupt hook (budget pacing).
    pub interrupt: Interrupt,
}

impl CandidateEval {
    /// An inert context: no metrics, no interrupt.
    pub fn none() -> CandidateEval {
        CandidateEval {
            metrics: MetricsHandle::none(),
            interrupt: Interrupt::none(),
        }
    }
}

/// [`build_counterexample`] for the hot candidate loops: close a candidate
/// selection under foreign keys, materialize it and verify it by running
/// the pair's plans under the context's interrupt and metrics.
pub fn verify_candidate(
    plans: &PairPlans,
    db: &Database,
    mut selection: TupleSelection,
    witness: Option<Witness>,
    params: &Params,
    ctx: &CandidateEval,
) -> Result<Counterexample> {
    // Close under foreign keys so the sub-instance is a valid instance.
    selection.close_under_foreign_keys(db)?;
    let sub = SubInstance::materialize(db, selection);
    debug_assert!(db.contains_subinstance(&sub.database));
    sub.database.validate_constraints()?;
    let eval = |plan| evaluate_plan(plan, &sub.database, params, &ctx.interrupt, &ctx.metrics);
    let mut q1_result = eval(&plans.q1)?;
    let mut q2_result = eval(&plans.q2)?;
    if q1_result.set_eq(&q2_result) {
        return Err(RatestError::Unsupported(format!(
            "candidate sub-instance of {} tuples does not distinguish the queries",
            sub.size()
        )));
    }
    // Counterexamples outlive the search; keep them at their size.
    q1_result.shrink_to_fit();
    q2_result.shrink_to_fit();
    Ok(Counterexample {
        subinstance: sub,
        q1_result,
        q2_result,
        witness,
        parameters: params.clone(),
    })
}

/// The tuples on which the two results differ, tagged with the side they come
/// from (`true` = only in `Q1(D)`).
pub fn differing_tuples(r1: &ResultSet, r2: &ResultSet) -> Vec<(Vec<Value>, bool)> {
    let mut out: Vec<(Vec<Value>, bool)> =
        r1.difference(r2).into_iter().map(|t| (t, true)).collect();
    out.extend(r2.difference(r1).into_iter().map(|t| (t, false)));
    out
}

/// Construct `Q1 − Q2` (or `Q2 − Q1` when `from_q1` is false).
pub fn difference_query(q1: &Query, q2: &Query, from_q1: bool) -> Query {
    if from_q1 {
        Query::Difference {
            left: Arc::new(q1.clone()),
            right: Arc::new(q2.clone()),
        }
    } else {
        Query::Difference {
            left: Arc::new(q2.clone()),
            right: Arc::new(q1.clone()),
        }
    }
}

/// The trivial counterexample: all of `D` (used as a fallback and as the
/// baseline the experiments compare against).
pub fn trivial_counterexample(q1: &Query, q2: &Query, db: &Database) -> Result<Counterexample> {
    build_counterexample(q1, q2, db, TupleSelection::all(db), None, &Params::new())
}

/// Exhaustive search for the true smallest counterexample, used by tests and
/// the property-based suite to validate the optimized algorithms on tiny
/// instances. Complexity is exponential in `|D|`.
pub fn brute_force_smallest(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
) -> Result<Option<Counterexample>> {
    let all: Vec<ratest_storage::TupleId> = TupleSelection::all(db).iter().collect();
    let n = all.len();
    let plans = PairPlans::compile(q1, q2, db)?;
    assert!(n <= 20, "brute force is only intended for tiny instances");
    let mut best: Option<Counterexample> = None;
    for mask in 0u32..(1 << n) {
        let count = mask.count_ones() as usize;
        if let Some(b) = &best {
            if count >= b.size() {
                continue;
            }
        }
        let sel = TupleSelection::from_ids(
            all.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, id)| *id),
        );
        // Skip selections that violate foreign keys (they are not valid
        // sub-instances on their own).
        let mut closed = sel.clone();
        closed.close_under_foreign_keys(db)?;
        if closed.len() != sel.len() {
            continue;
        }
        if let Ok(cex) = verify_candidate(&plans, db, sel, None, params, &CandidateEval::none()) {
            let better = best.as_ref().map(|b| cex.size() < b.size()).unwrap_or(true);
            if better {
                best = Some(cex);
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::testdata;
    use ratest_storage::TupleId;

    #[test]
    fn distinguishing_check_matches_figure_2() {
        let db = testdata::figure1_db();
        let (r1, r2) = check_distinguishes(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
        )
        .unwrap();
        let diff = differing_tuples(&r1, &r2);
        assert_eq!(diff.len(), 2);
        assert!(
            diff.iter().all(|(_, from_q1)| !from_q1),
            "wrong answers come from Q2"
        );
    }

    #[test]
    fn incompatible_schemas_are_rejected() {
        let db = testdata::figure1_db();
        let q1 = ratest_ra::builder::rel("Student")
            .project(&["name"])
            .build();
        let q2 = ratest_ra::builder::rel("Student").build();
        assert!(matches!(
            check_distinguishes(&q1, &q2, &db, &Params::new()),
            Err(RatestError::NotUnionCompatible { .. })
        ));
    }

    #[test]
    fn build_counterexample_verifies_and_closes_fks() {
        let db = testdata::figure1_db();
        // Mary's student tuple plus her two CS registrations.
        let sel = TupleSelection::from_ids(vec![
            TupleId::new(0, 0),
            TupleId::new(1, 0),
            TupleId::new(1, 1),
        ]);
        let cex = build_counterexample(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            sel,
            None,
            &Params::new(),
        )
        .unwrap();
        assert_eq!(cex.size(), 3);
        assert_eq!(cex.q1_result.len(), 0);
        assert_eq!(cex.q2_result.len(), 1);

        // Registrations without the referenced student get the student added
        // by foreign-key closure (and then still distinguish the queries).
        let sel = TupleSelection::from_ids(vec![TupleId::new(1, 0), TupleId::new(1, 1)]);
        let cex = build_counterexample(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            sel,
            None,
            &Params::new(),
        )
        .unwrap();
        assert_eq!(cex.size(), 3);
    }

    #[test]
    fn non_distinguishing_selection_is_rejected() {
        let db = testdata::figure1_db();
        let sel = TupleSelection::from_ids(vec![TupleId::new(0, 1)]); // John only
        assert!(build_counterexample(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            sel,
            None,
            &Params::new(),
        )
        .is_err());
    }

    #[test]
    fn trivial_counterexample_has_full_size() {
        let db = testdata::figure1_db();
        let cex = trivial_counterexample(&testdata::example1_q1(), &testdata::example1_q2(), &db)
            .unwrap();
        assert_eq!(cex.size(), 11);
    }

    #[test]
    fn brute_force_finds_the_three_tuple_optimum() {
        let db = testdata::figure1_db();
        let best = brute_force_smallest(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
        )
        .unwrap()
        .expect("a counterexample exists");
        assert_eq!(
            best.size(),
            3,
            "Example 2: no counterexample has fewer than 3 tuples"
        );
    }

    #[test]
    fn difference_query_orientation() {
        let q1 = testdata::example1_q1();
        let q2 = testdata::example1_q2();
        let d = difference_query(&q1, &q2, false);
        match d {
            Query::Difference { left, .. } => assert_eq!(*left, q2),
            _ => panic!(),
        }
    }
}
