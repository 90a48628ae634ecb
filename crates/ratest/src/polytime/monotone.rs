//! Smallest witnesses for monotone (SPJU) query pairs (Theorems 1, 2, 5
//! and 6 of the paper).
//!
//! When both queries are monotone and `t ∈ Q1(D) \ Q2(D)`, monotonicity of
//! `Q2` guarantees `t ∉ Q2(D')` for every `D' ⊆ D`, so it suffices to find
//! the smallest witness of `t` w.r.t. `Q1` alone. That provenance is
//! negation-free, and its smallest witness is its smallest minterm once
//! every minterm is closed under foreign keys: the `m = 0` case of
//! [`ratest_provenance::ClosedMinterms`], no solver needed. Ranking
//! minterms by their length *before* closure would be wrong, since a longer
//! minterm can have a smaller closure.
//!
//! The pipeline runs it on a pair it has already evaluated. When the pair
//! comes from a prepared reference, the reference's annotation comes with
//! it and `Q1` is not annotated again.

use crate::error::{RatestError, Result};
use crate::pipeline::Timings;
use crate::problem::{
    differing_tuples, verify_candidate, CandidateEval, Counterexample, EvaluatedPair, Witness,
};
use ratest_provenance::annotate::{annotate_plan, AnnotatedResult};
use ratest_provenance::{ClosedMinterms, ExpansionCaps};
use ratest_ra::classify::{classify_pair, QueryClass};
use ratest_storage::{TupleSelection, Value};
use std::time::Instant;

/// How far one differing tuple's provenance is expanded before the
/// algorithm declines the pair (the caller then falls back to the solver
/// path). Monotone provenance is a single conjunction.
const EXPANSION_CAPS: ExpansionCaps = ExpansionCaps {
    branches: 1,
    minterms: 200_000,
};

/// The monotone algorithm applies to SPJU pairs only: any other pair is
/// [`RatestError::Unsupported`], whatever the instance.
pub(crate) fn check_applies(class: QueryClass) -> Result<()> {
    if !class.is_monotone() || class == QueryClass::Aggregate {
        return Err(RatestError::Unsupported(format!(
            "the monotone algorithm requires an SPJU pair, got {class}"
        )));
    }
    Ok(())
}

/// Solve SWP for a monotone pair by its smallest closed minterms, starting
/// from both queries' results on the instance. `Q1`'s annotation is the
/// pair's `q1_annotation` when it has one; otherwise each query is
/// annotated at most once, on the first differing tuple it produces. The
/// provenance and minterm phases' times are added to `timings`.
///
/// Returns [`RatestError::Unsupported`] when the pair is not monotone or when
/// a tuple's provenance exceeds [`EXPANSION_CAPS`].
pub(crate) fn smallest_witness_monotone_with_results(
    pair: &EvaluatedPair,
    ctx: &CandidateEval,
    timings: &mut Timings,
) -> Result<Counterexample> {
    let EvaluatedPair {
        q1,
        q2,
        plans,
        db,
        params,
        r1,
        r2,
        q1_annotation,
    } = *pair;
    check_applies(classify_pair(q1, q2))?;

    // Different differing tuples can have witnesses of different sizes (a
    // tuple produced by a join needs one base tuple per joined relation, a
    // tuple that survives a projection needs just one), so scan them all and
    // keep the global minimum: each later tuple only needs a witness
    // smaller than the best so far.
    let mut closed_minterms = ClosedMinterms::new(db.foreign_key_index()?);
    let mut best: Option<(TupleSelection, Vec<Value>, bool)> = None;
    // Q1's and Q2's annotations, each made at most once, on first use.
    let mut own_q1: Option<AnnotatedResult> = None;
    let mut own_q2: Option<AnnotatedResult> = None;
    for (tuple, from_q1) in differing_tuples(r1, r2) {
        let limit = match &best {
            Some((sel, _, _)) if sel.len() <= 1 => break, // cannot be beaten
            Some((sel, _, _)) => sel.len() - 1,
            None => usize::MAX,
        };
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

        let start = Instant::now();
        let smallest = closed_minterms.smallest(prv, limit, EXPANSION_CAPS)?;
        if let Some(selection) = smallest {
            best = Some((selection, tuple, from_q1));
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
    use crate::pipeline::{run_algorithm, Algorithm, RatestOptions};
    use ratest_ra::ast::Query;
    use ratest_ra::builder::{col, lit, rel};
    use ratest_ra::testdata;

    fn run(q1: &Query, q2: &Query, algorithm: Algorithm) -> Result<Counterexample> {
        let options = RatestOptions {
            algorithm,
            ..Default::default()
        };
        Ok(run_algorithm(q1, q2, &testdata::figure1_db(), &options)?.0)
    }

    fn monotone(q1: &Query, q2: &Query) -> Result<Counterexample> {
        run(q1, q2, Algorithm::PolytimeMonotone)
    }

    #[test]
    fn sj_pair_yields_one_tuple_per_joined_relation() {
        // Q1: CS registrations of students; Q2: ECON registrations (disjoint).
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
        let cex = monotone(&q1, &q2).unwrap();
        // One student plus one registration (Theorem 1: one tuple per relation).
        assert_eq!(cex.size(), 2);
    }

    #[test]
    fn spu_pair_yields_a_single_tuple_witness() {
        // Q1: names of all students; Q2: names of ECON students only.
        let q1 = rel("Student").project(&["name"]).build();
        let q2 = rel("Student")
            .select(col("major").eq(lit("ECON")))
            .project(&["name"])
            .build();
        let cex = monotone(&q1, &q2).unwrap();
        assert_eq!(cex.size(), 1);
    }

    #[test]
    fn pj_pair_matches_the_solver_answer() {
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
        let cex = monotone(&q1, &q2).unwrap();
        let via_solver = run(&q1, &q2, Algorithm::OptSigma).unwrap();
        assert_eq!(cex.size(), via_solver.size());
        // FK closure: the registration brings its student, so size is 2.
        assert_eq!(cex.size(), 2);
    }

    #[test]
    fn non_monotone_pairs_are_rejected() {
        assert!(matches!(
            monotone(&testdata::example1_q1(), &testdata::example1_q2()),
            Err(RatestError::Unsupported(_))
        ));
    }
}
