//! Smallest witnesses for SPJUD\* pairs (differences only at the top of the
//! query tree) — Theorem 7 of the paper.
//!
//! An SPJUD\* query is generated by `Q → q⁺ | Q − Q` where every `q⁺` is an
//! SPJU (monotone) query. For an output tuple `t`, the smallest witness is a
//! union of minimal witnesses of `t` with respect to some of the monotone
//! leaves: enumerate the minimal witnesses of every leaf that produces `t`,
//! try combinations (including "leave this leaf out"), evaluate the candidate
//! sub-instance and keep the smallest one that works. The number of
//! combinations is bounded by the product of per-leaf minimal-witness counts,
//! which is polynomial in the data for bounded-size queries; a configurable
//! cap keeps pathological cases from blowing up (the caller falls back to the
//! solver in that case).

use crate::error::{RatestError, Result};
use crate::pipeline::Timings;
use crate::problem::{
    difference_query, differing_tuples, verify_candidate, CandidateEval, Counterexample,
    EvaluatedPair, Witness,
};
use ratest_provenance::annotate::annotate_plan;
use ratest_provenance::Dnf;
use ratest_ra::ast::Query;
use ratest_ra::classify::{classify, QueryClass};
use ratest_ra::eval::{evaluate_plan, Params};
use ratest_ra::plan::Plan;
use ratest_ra::typecheck::output_schema;
use ratest_storage::{Database, TupleSelection, Value};
use ratest_telemetry::MetricsHandle;
use std::time::Instant;

/// Cap on the number of witness combinations tried before giving up.
pub const DEFAULT_COMBINATION_LIMIT: usize = 50_000;

/// Cap on DNF size per monotone leaf.
const LEAF_DNF_LIMIT: usize = 20_000;

/// Solve SWP for an SPJUD\* pair by combining minimal witnesses of the
/// monotone leaves (Theorem 7), starting from both queries' results on the
/// instance. The provenance and combination phases' times are added to
/// `timings`.
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
    } = *pair;
    let diffs = differing_tuples(r1, r2);
    let Some((tuple, from_q1)) = diffs.first().cloned() else {
        return Err(RatestError::QueriesAgreeOnInstance);
    };

    // Solve the combination search for the observed direction and for the
    // flipped one: on a sub-instance the tuple's membership can flip, and
    // the flipped witness is sometimes strictly smaller. Ties keep the
    // observed direction so the witness matches the reported disagreement.
    let mut best: Option<(TupleSelection, bool)> = None;
    for direction in [from_q1, !from_q1] {
        if direction != from_q1
            && !crate::optsigma::direction_feasible(q1, q2, r1, r2, &tuple, direction)
        {
            continue;
        }
        match direction_best(q1, q2, db, params, &tuple, direction, timings, ctx)? {
            Some(sel) => {
                let better = best
                    .as_ref()
                    .map(|(b, _)| sel.len() < b.len())
                    .unwrap_or(true);
                if better {
                    best = Some((sel, direction));
                }
            }
            None => continue,
        }
    }

    let (selection, direction) = best.ok_or_else(|| {
        RatestError::Unsupported("no witness combination reproduces the differing tuple".into())
    })?;
    let witness = Witness {
        tuple: tuple.clone(),
        from_q1: direction,
        selection: selection.clone(),
    };
    verify_candidate(plans, db, selection, Some(witness), params, ctx)
}

/// The smallest witness combination that keeps `tuple` in `Qa − Qb` (where
/// the order is given by `from_q1`), or `None` when no combination works.
#[allow(clippy::too_many_arguments)]
fn direction_best(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    tuple: &[Value],
    from_q1: bool,
    timings: &mut Timings,
    ctx: &CandidateEval,
) -> Result<Option<TupleSelection>> {
    // The combined query Q1 − Q2 (or Q2 − Q1) is itself SPJUD* iff both
    // queries are.
    let diff = difference_query(q1, q2, from_q1);
    if classify(&diff) != QueryClass::SPJUDStar {
        return Err(RatestError::Unsupported(format!(
            "the SPJUD* algorithm requires differences only at the top, got {}",
            classify(&diff)
        )));
    }

    // Collect the monotone leaves of the nested difference structure.
    let mut leaves = Vec::new();
    collect_monotone_leaves(&diff, &mut leaves);

    // Per leaf: the minimal witnesses of `t` (empty when the leaf does not
    // produce `t`). The "skip this leaf" option is represented by `None`.
    let start = Instant::now();
    let mut per_leaf: Vec<Vec<Option<TupleSelection>>> = Vec::with_capacity(leaves.len());
    for leaf in &leaves {
        let mut options: Vec<Option<TupleSelection>> = vec![None];
        // Only consider leaves that are union compatible with the output.
        let plan = Plan::compile(leaf, db)?;
        if plan.schema().arity() == tuple.len() {
            let annotated = annotate_plan(&plan, db, params, &ctx.interrupt, &ctx.metrics)?;
            if let Some(prv) = annotated.provenance_of(tuple) {
                let dnf = Dnf::from_monotone(prv, LEAF_DNF_LIMIT).map_err(|e| match e {
                    ratest_provenance::ProvenanceError::DnfTooLarge { limit } => {
                        RatestError::Unsupported(format!(
                            "leaf DNF exceeds {limit} minterms; use the solver path"
                        ))
                    }
                    other => RatestError::Provenance(other),
                })?;
                for m in dnf.minterms() {
                    options.push(Some(TupleSelection::from_ids(m.iter().copied())));
                }
            }
        }
        per_leaf.push(options);
    }
    timings.provenance += start.elapsed();

    let combinations: usize = per_leaf.iter().map(|o| o.len()).product();
    if combinations > DEFAULT_COMBINATION_LIMIT {
        return Err(RatestError::Unsupported(format!(
            "{combinations} witness combinations exceed the SPJUD* cap; use the solver path"
        )));
    }

    // Try every combination, smallest total size first would require sorting
    // the cross product; instead evaluate all (bounded) and keep the best.
    let start = Instant::now();
    let diff = Plan::compile(&diff, db)?;
    let mut best: Option<TupleSelection> = None;
    let mut indices = vec![0usize; per_leaf.len()];
    loop {
        // Build the candidate union.
        let mut candidate = TupleSelection::new();
        for (leaf_idx, &opt_idx) in indices.iter().enumerate() {
            if let Some(sel) = &per_leaf[leaf_idx][opt_idx] {
                candidate = candidate.union(sel);
            }
        }
        let promising = !candidate.is_empty()
            && best
                .as_ref()
                .map(|b| candidate.len() < b.len())
                .unwrap_or(true);
        if promising {
            // Quick check: does the candidate witness `t` in the difference?
            let mut closed = candidate.clone();
            closed.close_under_foreign_keys(db)?;
            if membership_in_difference(&diff, db, params, tuple, &closed, ctx)? {
                let better = best
                    .as_ref()
                    .map(|b| closed.len() < b.len())
                    .unwrap_or(true);
                if better {
                    best = Some(closed);
                }
            }
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == indices.len() {
                break;
            }
            indices[i] += 1;
            if indices[i] < per_leaf[i].len() {
                break;
            }
            indices[i] = 0;
            i += 1;
        }
        if i == indices.len() {
            break;
        }
    }
    timings.solver += start.elapsed();
    Ok(best)
}

/// Does `tuple` appear in `diff = Qa − Qb`, compiled on `db`, on the
/// sub-instance `closed`?
fn membership_in_difference(
    diff: &Plan,
    db: &Database,
    params: &Params,
    tuple: &[Value],
    closed: &TupleSelection,
    ctx: &CandidateEval,
) -> Result<bool> {
    let sub = db.restrict_to(closed);
    let out = evaluate_plan(diff, &sub, params, &ctx.interrupt, &MetricsHandle::none())?;
    Ok(out.contains(tuple))
}

/// Collect the monotone (difference-free) leaves of a nested-difference query,
/// looking through top-level selects/projects/renames.
fn collect_monotone_leaves(q: &Query, out: &mut Vec<Query>) {
    match q {
        Query::Difference { left, right } => {
            collect_monotone_leaves(left, out);
            collect_monotone_leaves(right, out);
        }
        Query::Select { input, .. } | Query::Rename { input, .. } if input.has_difference() => {
            collect_monotone_leaves(input, out);
        }
        other => out.push(other.clone()),
    }
}

/// Check whether a tuple of values could have come from a leaf (arity check
/// helper kept public for tests).
pub fn arity_matches(leaf: &Query, db: &Database, tuple: &[Value]) -> bool {
    output_schema(leaf, db)
        .map(|s| s.arity() == tuple.len())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_algorithm, Algorithm, RatestOptions};
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
    fn leaves_are_collected_through_nested_differences() {
        let q = difference_query(&testdata::example1_q1(), &testdata::example1_q2(), true);
        let mut leaves = Vec::new();
        collect_monotone_leaves(&q, &mut leaves);
        // Q1 = Q2 - Q3, so Q1 - Q2 has leaves {Q2, Q3, Q2}.
        assert_eq!(leaves.len(), 3);
        assert!(leaves.iter().all(|l| !l.has_difference()));
    }

    #[test]
    fn aggregate_pairs_are_rejected() {
        assert!(spjud_star(&testdata::example4_q1(), &testdata::example4_q2()).is_err());
    }
}
