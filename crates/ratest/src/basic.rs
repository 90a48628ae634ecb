//! Algorithm 1 (`Basic`): solve the smallest **counterexample** problem by
//! iterating over every differing output tuple, solving the smallest witness
//! problem for each, and returning the global minimum.
//!
//! Compared to `Optσ` this pays two costs the paper's Table 4 quantifies:
//! provenance is computed for *all* output tuples of `Q1 − Q2` and
//! `Q2 − Q1` (not just one), and a separate solver instance runs per tuple.
//! In exchange it is guaranteed to reach the global SCP optimum (when the
//! per-witness solver is exact).
//!
//! Most candidates of a scan need no solver. A candidate whose provenance
//! has the shape of a difference of two SPJU queries, `P ∧ ¬N₁ ∧ … ∧ ¬Nₘ`
//! with monotone parts, or is a disjunction of a few such conjunctions, is
//! settled by [`ratest_provenance::ClosedMinterms`]: its smallest witness is
//! the smallest foreign-key-closed minterm of `P` that falsifies every `Nᵢ`
//! (Theorem 6). The scan asks for one of at most `best − 1` tuples; a
//! candidate without one cannot beat the incumbent and is skipped, and a
//! candidate with one has that selection verified directly. Only the
//! candidates the engine declines, such as those of nested differences
//! beyond [`EXPANSION_CAPS`], are encoded for the solver, with the same
//! bound. Every selection, whichever way it was found, is checked by
//! evaluating both queries on it.
//!
//! `Basic` runs through [`crate::pipeline`] on a pair already evaluated. It
//! annotates each query once and derives both difference annotations from
//! the two with [`ratest_provenance::difference_of`]; a pair from a prepared
//! reference brings `Q1`'s annotation with it, so only `Q2` is annotated.

use crate::encode::{encode_provenance, foreign_key_clauses, VarMap};
use crate::error::{RatestError, Result};
use crate::pipeline::{RatestOptions, SolverStrategy, Timings};
use crate::problem::{verify_candidate, CandidateEval, Counterexample, EvaluatedPair, Witness};
use crate::session::{ExplainEvent, Phase};
use ratest_provenance::annotate::{annotate_plan, difference_of};
use ratest_provenance::{AnnotatedResult, BoolExpr, ClosedMinterms, Declined, ExpansionCaps};
use ratest_solver::enumerate::enumerate_best;
use ratest_solver::formula::Formula;
use ratest_solver::minones::{minimize_ones_with_theory_into, MinOnesOptions};
use ratest_solver::SolverStats;
use ratest_storage::{Database, TupleSelection, Value};
use std::collections::HashSet;
use std::time::Instant;

/// `Basic` on a pair that disagrees on its instance: annotate both
/// difference directions once ("prov-all" in Figure 4), then scan their
/// rows (`scan`). Each query is annotated once, `Q1` not at all when the
/// pair holds its annotation, and `ann(Q1 − Q2)` and `ann(Q2 − Q1)` are
/// combined from the two. Each phase's time is added to `timings`.
pub(crate) fn basic_core(
    pair: &EvaluatedPair,
    options: &RatestOptions,
    timings: &mut Timings,
) -> Result<Counterexample> {
    options.events.emit(ExplainEvent::PhaseStarted {
        phase: Phase::Provenance,
    });
    let interrupt = options.budget.interrupt();
    let start = Instant::now();
    let annotate = |plan| annotate_plan(plan, pair.db, pair.params, &interrupt, &options.metrics);
    let annotated_q1;
    let ann_q1 = match pair.q1_annotation {
        Some(shared) => {
            options.metrics.counter_inc("explain.annotation_reuse_hits");
            shared
        }
        None => {
            annotated_q1 = annotate(&pair.plans.q1)?;
            &annotated_q1
        }
    };
    let ann_q2 = annotate(&pair.plans.q2)?;
    let ann_q1_minus_q2 = difference_of(ann_q1, &ann_q2)?;
    let ann_q2_minus_q1 = difference_of(&ann_q2, ann_q1)?;
    timings.provenance += start.elapsed();

    scan(pair, &ann_q1_minus_q2, &ann_q2_minus_q1, options, timings)
}

/// The candidate scan of `Basic` over the two difference annotations. Every
/// candidate is verified through the pair's plans; the scan's time is added
/// to `timings.solver`.
fn scan(
    pair: &EvaluatedPair,
    ann_q1_minus_q2: &AnnotatedResult,
    ann_q2_minus_q1: &AnnotatedResult,
    options: &RatestOptions,
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
    // Candidate (tuple, direction) pairs. Iterating only over the tuples
    // that differ on the *full* instance (with their observed direction) is
    // not enough for global optimality: on a sub-instance the membership of
    // a tuple can flip — e.g. dropping every ECON registration of a student
    // moves them from `Q2(D)` into `(Q1 − Q2)(D')`. The difference
    // annotations keep a row (with an exact provenance formula) for every
    // tuple derivable on *any* sub-instance, so iterating over all annotated
    // rows in both directions covers every possible differing tuple.
    let observed: HashSet<(Vec<Value>, bool)> = r1
        .difference(r2)
        .into_iter()
        .map(|t| (t, true))
        .chain(r2.difference(r1).into_iter().map(|t| (t, false)))
        .collect();
    let mut candidates: Vec<(Vec<Value>, bool)> = Vec::new();
    for (ann, from_q1) in [(ann_q1_minus_q2, true), (ann_q2_minus_q1, false)] {
        for row in ann.rows() {
            candidates.push((row.clone(), from_q1));
        }
    }
    // Try the differences observed on the full instance first so the best
    // bound tightens early.
    candidates.sort_by_key(|c| !observed.contains(c));

    options.events.emit(ExplainEvent::PhaseStarted {
        phase: Phase::Solve,
    });
    let ctx = CandidateEval {
        metrics: options.metrics.clone(),
        interrupt: options.budget.interrupt(),
    };
    let solver_start = Instant::now();
    let mut closed_minterms = ClosedMinterms::new(db.foreign_key_index()?);
    let mut best: Option<Counterexample> = None;
    for (index, (tuple, from_q1)) in candidates.into_iter().enumerate() {
        options.budget.check()?;
        options.events.emit(ExplainEvent::CandidateChecked {
            index,
            best_size: best.as_ref().map(|b| b.size()),
        });
        let annotated = if from_q1 {
            ann_q1_minus_q2
        } else {
            ann_q2_minus_q1
        };
        if let Some(b) = &best {
            if b.size() == 1 {
                break; // a singleton counterexample cannot be beaten
            }
        }
        // Cheap monotonicity prune: a tuple can only flip into `Qa − Qb` on
        // a sub-instance if `Qa` is non-monotone or already produced it.
        if !crate::optsigma::direction_feasible(q1, q2, r1, r2, &tuple, from_q1) {
            continue;
        }
        let Some(prv) = annotated.provenance_of(&tuple) else {
            continue;
        };
        if matches!(prv, BoolExpr::False) {
            continue;
        }
        options.metrics.counter_inc("basic.candidates");
        // Only candidates that can beat the incumbent matter. One whose
        // provenance is in shape gets its smallest closed minterm within
        // `best − 1` tuples directly, and is skipped when there is none;
        // the rest go to the solver, bounded the same way.
        let upper_bound = best.as_ref().map(|b| b.size().saturating_sub(1));
        let limit = upper_bound.unwrap_or(usize::MAX);
        let selection = match closed_minterms.smallest(prv, limit, EXPANSION_CAPS) {
            Ok(Some(selection)) => selection,
            Ok(None) => continue,
            Err(Declined) => match solve_candidate(prv, db, upper_bound, options)? {
                Some(selection) => selection,
                None => continue,
            },
        };
        let witness = Witness {
            tuple: tuple.clone(),
            from_q1,
            selection: selection.clone(),
        };
        match verify_candidate(plans, db, selection, Some(witness), params, &ctx) {
            Ok(cex) => {
                let better = best.as_ref().map(|b| cex.size() < b.size()).unwrap_or(true);
                if better {
                    best = Some(cex);
                }
            }
            Err(RatestError::Unsupported(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    timings.solver += solver_start.elapsed();

    best.ok_or(RatestError::QueriesAgreeOnInstance)
}

/// The caps within which Basic settles a candidate by its smallest closed
/// minterm instead of a solver call.
pub const EXPANSION_CAPS: ExpansionCaps = ExpansionCaps {
    branches: 16,
    minterms: 256,
};

/// The smallest selection, of at most `upper_bound` tuples, that satisfies
/// `prv` and the instance's foreign keys, found by the options' solver
/// strategy; `None` when there is none.
fn solve_candidate(
    prv: &BoolExpr,
    db: &Database,
    upper_bound: Option<usize>,
    options: &RatestOptions,
) -> Result<Option<TupleSelection>> {
    let mut vars = VarMap::new();
    let mut parts = vec![encode_provenance(prv, &mut vars)];
    parts.extend(foreign_key_clauses(db, &mut vars)?);
    let formula = Formula::and(parts);
    let objective = vars.all_vars();
    options
        .metrics
        .observe("solver.objective_vars", objective.len() as u64);
    let solved = match options.strategy {
        SolverStrategy::Optimize => {
            let mut solver_stats = SolverStats::default();
            let solve_options = MinOnesOptions {
                upper_bound,
                ..Default::default()
            };
            let result = minimize_ones_with_theory_into(
                &formula,
                &objective,
                &solve_options,
                |_| true,
                &mut solver_stats,
            );
            // Fold stats in on every path: bounded probes that prove a
            // candidate hopeless (`Unsatisfiable`) do real solver work that
            // `--metrics` totals must not under-count.
            solver_stats.record(&options.metrics);
            result.map(|sol| sol.true_vars)
        }
        SolverStrategy::Enumerate { max_models } => {
            enumerate_best(&formula, &objective, max_models).map(|res| {
                res.stats.record(&options.metrics);
                res.best_true_vars
            })
        }
    };
    let solved = match solved {
        Ok(true_vars) => Some(true_vars),
        Err(ratest_solver::SolverError::Unsatisfiable) => None,
        Err(e) => return Err(e.into()),
    };
    options.events.emit(ExplainEvent::SolverStats {
        variables: objective.len(),
        solution_size: solved.as_ref().map(|v| v.len()),
    });
    Ok(solved.map(|true_vars| vars.selection_from_vars(&true_vars)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_algorithm, Algorithm};
    use ratest_ra::ast::Query;
    use ratest_ra::testdata;

    fn run(
        q1: &Query,
        q2: &Query,
        algorithm: Algorithm,
        strategy: SolverStrategy,
    ) -> Result<(Counterexample, Timings)> {
        let options = RatestOptions {
            algorithm,
            strategy,
            ..Default::default()
        };
        run_algorithm(q1, q2, &testdata::figure1_db(), &options)
    }

    #[test]
    fn basic_reaches_the_global_optimum_on_example1() {
        let (cex, timings) = run(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            Algorithm::Basic,
            SolverStrategy::Optimize,
        )
        .unwrap();
        assert_eq!(cex.size(), 3);
        assert!(timings.provenance.as_nanos() > 0);
    }

    #[test]
    fn basic_and_optsigma_agree_on_size_for_the_running_example() {
        // The paper observes that in practice Optσ's witness has the same size
        // as Basic's global optimum (Table 4).
        let [b, o] = [Algorithm::Basic, Algorithm::OptSigma].map(|algorithm| {
            run(
                &testdata::example1_q1(),
                &testdata::example1_q2(),
                algorithm,
                SolverStrategy::Optimize,
            )
            .unwrap()
            .0
        });
        assert_eq!(b.size(), o.size());
    }

    #[test]
    fn naive_enumeration_strategy_works() {
        let (cex, _) = run(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            Algorithm::Basic,
            SolverStrategy::Enumerate { max_models: 128 },
        )
        .unwrap();
        assert!(cex.size() >= 3);
    }

    #[test]
    fn identical_queries_are_rejected() {
        let q = testdata::example1_q1();
        assert!(matches!(
            run(&q, &q, Algorithm::Basic, SolverStrategy::Optimize),
            Err(RatestError::QueriesAgreeOnInstance)
        ));
    }
}
