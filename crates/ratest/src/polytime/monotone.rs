//! Smallest witnesses for monotone (SPJU) query pairs via DNF minterms
//! (Theorems 1, 2, 5 and 6 of the paper).
//!
//! When both queries are monotone and `t ∈ Q1(D) \ Q2(D)`, monotonicity of
//! `Q2` guarantees `t ∉ Q2(D')` for every `D' ⊆ D`, so it suffices to find
//! the smallest witness of `t` w.r.t. `Q1` alone. That provenance is
//! negation-free; expanding it to DNF and taking the smallest minterm gives
//! the optimum directly, no solver needed.

use crate::error::{RatestError, Result};
use crate::pipeline::Timings;
use crate::problem::{
    differing_tuples, verify_candidate, CandidateEval, Counterexample, PairPlans, Witness,
};
use crate::session::Budget;
use ratest_provenance::annotate::{annotate_plan, AnnotatedResult};
use ratest_provenance::Dnf;
use ratest_ra::ast::Query;
use ratest_ra::classify::{classify_pair, QueryClass};
use ratest_ra::eval::{Params, ResultSet};
use ratest_storage::{Database, TupleSelection, Value};
use ratest_telemetry::MetricsHandle;
use std::time::Instant;

/// Maximum number of DNF minterms expanded before giving up (the caller then
/// falls back to the solver path).
pub const DEFAULT_DNF_LIMIT: usize = 200_000;

/// Solve SWP for a monotone pair by DNF expansion.
///
/// Returns [`RatestError::Unsupported`] when the pair is not monotone or when
/// the DNF exceeds [`DEFAULT_DNF_LIMIT`] minterms.
pub fn smallest_witness_monotone(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    ctx: &CandidateEval,
) -> Result<(Counterexample, Timings)> {
    monotone_core(
        q1,
        q2,
        &PairPlans::compile(q1, q2, db)?,
        db,
        params,
        None,
        ctx,
    )
}

/// [`smallest_witness_monotone`] for the pair compiled on `db`, with both
/// queries' `results` on `db` when the caller holds them.
pub(crate) fn monotone_core(
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    params: &Params,
    results: Option<(&ResultSet, &ResultSet)>,
    ctx: &CandidateEval,
) -> Result<(Counterexample, Timings)> {
    let mut timings = Timings::default();
    let start = Instant::now();
    let mut evaluated = None;
    let (r1, r2) = plans.results_or_distinguish(
        results,
        &mut evaluated,
        db,
        params,
        &Budget::unlimited(),
        &MetricsHandle::none(),
    )?;
    timings.raw_eval = start.elapsed();
    let cex = smallest_witness_monotone_with_results(
        q1,
        q2,
        plans,
        db,
        params,
        r1,
        r2,
        None,
        &mut timings,
        ctx,
    )?;
    timings.total = timings.raw_eval + timings.provenance + timings.solver;
    Ok((cex, timings))
}

/// The monotone algorithm operating on *precomputed* query results, so a
/// batch caller can evaluate the (shared) reference query once per cohort.
/// `plans` is the pair compiled on `db`.
/// `q1_annotation` is `Q1`'s provenance annotation over `db` when the caller
/// already holds one (a prepared reference); otherwise each query is
/// annotated at most once, on the first differing tuple it produces.
#[allow(clippy::too_many_arguments)]
pub fn smallest_witness_monotone_with_results(
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    params: &Params,
    r1: &ResultSet,
    r2: &ResultSet,
    q1_annotation: Option<&AnnotatedResult>,
    timings: &mut Timings,
    ctx: &CandidateEval,
) -> Result<Counterexample> {
    let class = classify_pair(q1, q2);
    if !class.is_monotone() || class == QueryClass::Aggregate {
        return Err(RatestError::Unsupported(format!(
            "the monotone algorithm requires an SPJU pair, got {class}"
        )));
    }

    let diffs = differing_tuples(r1, r2);
    if diffs.is_empty() {
        return Err(RatestError::QueriesAgreeOnInstance);
    }

    // Different differing tuples can have witnesses of different sizes (a
    // tuple produced by a join needs one base tuple per joined relation, a
    // tuple that survives a projection needs just one), so scan them all and
    // keep the global minimum; each one is a cheap single-tuple DNF.
    let mut best: Option<(TupleSelection, Vec<Value>, bool)> = None;
    // Q1's and Q2's annotations, each made at most once, on first use.
    let mut own_q1: Option<AnnotatedResult> = None;
    let mut own_q2: Option<AnnotatedResult> = None;
    for (tuple, from_q1) in diffs {
        if let Some((sel, _, _)) = &best {
            if sel.len() == 1 {
                break; // a singleton witness cannot be beaten
            }
        }
        // Provenance of the tuple w.r.t. the query that produced it: a lookup
        // in that query's annotation. Monotonicity of the other query
        // guarantees the tuple stays out of its result on every sub-instance,
        // so no flipped direction needs to be considered.
        let start = Instant::now();
        let producer = match q1_annotation {
            Some(shared) if from_q1 => shared,
            _ => {
                let (slot, plan) = if from_q1 {
                    (&mut own_q1, &plans.q1)
                } else {
                    (&mut own_q2, &plans.q2)
                };
                if slot.is_none() {
                    *slot = Some(annotate_plan(
                        plan,
                        db,
                        params,
                        &ctx.interrupt,
                        &ctx.metrics,
                    )?);
                }
                slot.as_ref().expect("annotated above")
            }
        };
        let Some(prv) = producer.provenance_of(&tuple) else {
            continue;
        };
        timings.provenance += start.elapsed();

        // Expand to DNF and pick the smallest minterm. Foreign-key closure is
        // applied afterwards by `build_counterexample`; among minterms of
        // equal size we prefer the one whose closure is smallest.
        let start = Instant::now();
        let dnf = Dnf::from_monotone(prv, DEFAULT_DNF_LIMIT).map_err(|e| match e {
            ratest_provenance::ProvenanceError::DnfTooLarge { limit } => RatestError::Unsupported(
                format!("provenance DNF exceeds {limit} minterms; use the solver path"),
            ),
            other => RatestError::Provenance(other),
        })?;
        let mut minterms: Vec<_> = dnf.minterms().to_vec();
        minterms.sort_by_key(|m| m.len());
        let smallest_len = minterms.first().map(|m| m.len()).unwrap_or(0);
        for m in minterms.iter().take_while(|m| m.len() == smallest_len) {
            let mut sel = TupleSelection::from_ids(m.iter().copied());
            sel.close_under_foreign_keys(db)?;
            let better = best
                .as_ref()
                .map(|(b, _, _)| sel.len() < b.len())
                .unwrap_or(true);
            if better {
                best = Some((sel, tuple.clone(), from_q1));
            }
        }
        timings.solver += start.elapsed();
    }
    let (selection, tuple, from_q1) = best.ok_or(RatestError::QueriesAgreeOnInstance)?;

    let witness = Witness {
        tuple,
        from_q1,
        selection: selection.clone(),
    };
    verify_candidate(plans, db, selection, Some(witness), params, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::builder::{col, lit, rel};
    use ratest_ra::testdata;

    #[test]
    fn sj_pair_yields_one_tuple_per_joined_relation() {
        // Q1: CS registrations of students; Q2: ECON registrations (disjoint).
        let db = testdata::figure1_db();
        let q1 = rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r").build(),
                col("s.name")
                    .eq(col("r.name"))
                    .and(col("r.dept").eq(lit("CS"))),
            )
            .build();
        let q2 = rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r").build(),
                col("s.name")
                    .eq(col("r.name"))
                    .and(col("r.dept").eq(lit("ECON"))),
            )
            .build();
        let (cex, _) =
            smallest_witness_monotone(&q1, &q2, &db, &Params::new(), &CandidateEval::none())
                .unwrap();
        // One student plus one registration (Theorem 1: one tuple per relation).
        assert_eq!(cex.size(), 2);
    }

    #[test]
    fn spu_pair_yields_a_single_tuple_witness() {
        let db = testdata::figure1_db();
        // Q1: names of all students; Q2: names of ECON students only.
        let q1 = rel("Student").project(&["name"]).build();
        let q2 = rel("Student")
            .select(col("major").eq(lit("ECON")))
            .project(&["name"])
            .build();
        let (cex, _) =
            smallest_witness_monotone(&q1, &q2, &db, &Params::new(), &CandidateEval::none())
                .unwrap();
        assert_eq!(cex.size(), 1);
    }

    #[test]
    fn pj_pair_matches_the_solver_answer() {
        let db = testdata::figure1_db();
        // Students who registered for some CS course (Q2 of Example 1) vs
        // students who registered for course 330 specifically.
        let q1 = testdata::example1_q2();
        let q2 = rel("Student")
            .rename("s")
            .join_on(
                rel("Registration").rename("r").build(),
                col("s.name")
                    .eq(col("r.name"))
                    .and(col("r.course").eq(lit("330"))),
            )
            .project(&["s.name", "s.major"])
            .build();
        let (cex, _) =
            smallest_witness_monotone(&q1, &q2, &db, &Params::new(), &CandidateEval::none())
                .unwrap();
        let (via_solver, _) = crate::optsigma::smallest_witness_optsigma(
            &q1,
            &q2,
            &db,
            &Params::new(),
            &crate::optsigma::OptSigmaOptions::default(),
        )
        .unwrap();
        assert_eq!(cex.size(), via_solver.size());
        // FK closure: the registration brings its student, so size is 2.
        assert_eq!(cex.size(), 2);
    }

    #[test]
    fn non_monotone_pairs_are_rejected() {
        let db = testdata::figure1_db();
        assert!(matches!(
            smallest_witness_monotone(
                &testdata::example1_q1(),
                &testdata::example1_q2(),
                &db,
                &Params::new(),
                &CandidateEval::none()
            ),
            Err(RatestError::Unsupported(_))
        ));
    }
}
