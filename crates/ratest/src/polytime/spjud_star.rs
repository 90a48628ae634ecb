//! Smallest witnesses for SPJUD\* pairs (differences only at the top of the
//! query tree) — Theorem 7 of the paper.
//!
//! An SPJUD\* query is generated by `Q → q⁺ | Q − Q` where every `q⁺` is an
//! SPJU (monotone) query. The provenance of an output tuple `t` in
//! `Q1 − Q2` combines the monotone provenance of the leaves, and splits into
//! a few conjunctions `P ∧ ¬N₁ ∧ … ∧ ¬Nₘ`: `P` joins the leaves that keep `t`
//! and each `Nᵢ` is a leaf that would remove it. The smallest witness is a
//! union of minimal witnesses of leaves (Theorem 7): the smallest
//! foreign-key-closed minterm of some `P` that falsifies its `Nᵢ`, which
//! [`ratest_provenance::ClosedMinterms`] computes. Caps keep pathological
//! cases from blowing up; the caller falls back to the solver when they are
//! exceeded.

use crate::error::{RatestError, Result};
use crate::pipeline::Timings;
use crate::problem::{
    difference_query, differing_tuples, verify_candidate, CandidateEval, Counterexample,
    EvaluatedPair, Witness,
};
use ratest_provenance::annotate::annotate_plan;
use ratest_provenance::{ClosedMinterms, ExpansionCaps};
use ratest_ra::classify::{classify, QueryClass};
use ratest_ra::plan::Plan;
use ratest_storage::TupleSelection;
use std::time::Instant;

/// How far the differing tuple's provenance is expanded before the
/// algorithm declines the pair.
const EXPANSION_CAPS: ExpansionCaps = ExpansionCaps {
    branches: 64,
    minterms: 20_000,
};

/// Solve SWP for an SPJUD\* pair by the smallest closed minterm of its first
/// differing tuple's provenance in `Q1 − Q2` or `Q2 − Q1` (Theorem 7),
/// starting from both queries' results on the instance. The provenance and
/// minterm phases' times are added to `timings`.
pub(crate) fn spjud_star_core(
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
        ..
    } = *pair;
    let diffs = differing_tuples(r1, r2);
    let Some((tuple, from_q1)) = diffs.first().cloned() else {
        return Err(RatestError::QueriesAgreeOnInstance);
    };

    // Search the observed direction and the flipped one: on a sub-instance
    // the tuple's membership can flip, and the flipped witness is sometimes
    // strictly smaller. Ties keep the observed direction so the witness
    // matches the reported disagreement.
    let mut closed_minterms = ClosedMinterms::new(db.foreign_key_index()?);
    let mut best: Option<(TupleSelection, bool)> = None;
    for direction in [from_q1, !from_q1] {
        if direction != from_q1
            && !crate::optsigma::direction_feasible(q1, q2, r1, r2, &tuple, direction)
        {
            continue;
        }
        let limit = match &best {
            Some((sel, _)) if sel.is_empty() => break,
            Some((sel, _)) => sel.len() - 1,
            None => usize::MAX,
        };
        // The combined query Q1 − Q2 (or Q2 − Q1) is itself SPJUD* iff both
        // queries are.
        let diff = difference_query(q1, q2, direction);
        if classify(&diff) != QueryClass::SPJUDStar {
            return Err(RatestError::Unsupported(format!(
                "the SPJUD* algorithm requires differences only at the top, got {}",
                classify(&diff)
            )));
        }
        let start = Instant::now();
        let plan = Plan::compile(&diff, db)?;
        let annotated = annotate_plan(&plan, db, params, &ctx.interrupt, &ctx.metrics)?;
        timings.provenance += start.elapsed();
        let Some(prv) = annotated.provenance_of(&tuple) else {
            continue;
        };
        let start = Instant::now();
        let smallest = closed_minterms.smallest(prv, limit, EXPANSION_CAPS)?;
        timings.solver += start.elapsed();
        if let Some(selection) = smallest {
            best = Some((selection, direction));
        }
    }

    let (selection, direction) = best.ok_or_else(|| {
        RatestError::Unsupported("no sub-instance keeps the differing tuple in a difference".into())
    })?;
    let witness = Witness {
        tuple,
        from_q1: direction,
        selection: selection.clone(),
    };
    verify_candidate(plans, db, selection, Some(witness), params, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_algorithm, Algorithm, RatestOptions};
    use ratest_ra::ast::Query;
    use ratest_ra::eval::Params;
    use ratest_ra::testdata;

    fn spjud_star(q1: &Query, q2: &Query) -> Result<Counterexample> {
        let options = RatestOptions {
            algorithm: Algorithm::PolytimeSpjudStar,
            ..Default::default()
        };
        Ok(run_algorithm(q1, q2, &testdata::figure1_db(), &options)?.0)
    }

    #[test]
    fn example1_is_solved_without_the_sat_solver() {
        let cex = spjud_star(&testdata::example1_q1(), &testdata::example1_q2()).unwrap();
        assert_eq!(cex.size(), 3);
    }

    #[test]
    fn agrees_with_brute_force() {
        let cex = spjud_star(&testdata::example1_q1(), &testdata::example1_q2()).unwrap();
        let brute = crate::problem::brute_force_smallest(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &testdata::figure1_db(),
            &Params::new(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(cex.size(), brute.size());
    }

    #[test]
    fn aggregate_pairs_are_rejected() {
        assert!(spjud_star(&testdata::example4_q1(), &testdata::example4_q2()).is_err());
    }
}
