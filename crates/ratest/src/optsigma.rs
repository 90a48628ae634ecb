//! Algorithm 2 (`Optσ`): the optimized smallest-witness algorithm.
//!
//! 1. pick **one** tuple `t` in the symmetric difference of the two results,
//! 2. add a selection `σ_{A1=t.A1 ∧ …}` on top of `Q1 − Q2` and push it down
//!    (the paper relies on the DBMS optimizer for this; here the plan
//!    compiler does it, by column position —
//!    [`ratest_ra::plan::Plan::compile_selecting`]),
//! 3. compute how-provenance for that single tuple,
//! 4. hand the provenance plus foreign-key implications to the optimizing
//!    min-ones solver,
//! 5. the model's true variables are the witness; materialize and verify it.
//!
//! Step 1 starts from both queries' results, which the caller has already
//! computed: [`crate::pipeline`] for `Algorithm::OptSigma` (and as the
//! fallback of the SPJUD algorithms), and `Agg-Opt` for the aggregation
//! inputs of an aggregate pair, whose candidates it filters through an
//! acceptance hook.

use crate::encode::{encode_provenance, foreign_key_clauses, VarMap};
use crate::error::{RatestError, Result};
use crate::pipeline::{RatestOptions, SolverStrategy, Timings};
use crate::problem::{
    difference_query, differing_tuples, verify_candidate, CandidateEval, Counterexample,
    EvaluatedPair, Witness,
};
use crate::session::{ExplainEvent, Phase};
use ratest_provenance::annotate::annotate_plan;
use ratest_ra::ast::Query;
use ratest_ra::eval::{Params, ResultSet};
use ratest_ra::plan::Plan;
use ratest_solver::enumerate::enumerate_best;
use ratest_solver::formula::Formula;
use ratest_solver::minones::{minimize_ones_with_theory_into, MinOnesOptions};
use ratest_solver::SolverStats;
use ratest_storage::{Database, TupleSelection, Value};
use std::time::Instant;

/// `Optσ` on `pair`, starting from the two queries' results, with an
/// acceptance predicate over candidate tuple selections — the hook
/// Algorithm 3's repeat-until loop uses to reject candidates that fail to
/// distinguish the original aggregate queries (the pipeline accepts every
/// candidate). Each phase's time is added to `timings`.
pub(crate) fn optsigma_core<F>(
    pair: &EvaluatedPair,
    options: &RatestOptions,
    mut accept: F,
    timings: &mut Timings,
) -> Result<Counterexample>
where
    F: FnMut(&TupleSelection) -> bool,
{
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
    // Phase 1, raw evaluation, is done: the pair arrives evaluated.
    let diffs = differing_tuples(r1, r2);
    let Some((tuple, from_q1)) = diffs.first().cloned() else {
        return Err(RatestError::QueriesAgreeOnInstance);
    };

    // Phase 2 + 3: provenance of the chosen tuple, then min-ones. The
    // witness is solved for the direction observed on the full instance
    // *and* for the flipped direction: on a sub-instance the tuple's
    // membership can flip (e.g. dropping every ECON registration of a
    // student moves them from `Q2(D)` into `(Q1 − Q2)(D')`), and the
    // flipped witness is sometimes strictly smaller. Both remain
    // single-tuple provenance computations, preserving Optσ's cost profile.
    let mut selection: Option<(TupleSelection, bool)> = None;
    for (index, direction) in [from_q1, !from_q1].into_iter().enumerate() {
        options.budget.check()?;
        if direction != from_q1 && !direction_feasible(q1, q2, r1, r2, &tuple, direction) {
            continue;
        }
        options.events.emit(ExplainEvent::CandidateChecked {
            index,
            best_size: selection.as_ref().map(|(best, _)| best.len()),
        });
        options.events.emit(ExplainEvent::PhaseStarted {
            phase: Phase::Provenance,
        });
        let start = Instant::now();
        let provenance = provenance_for_tuple(q1, q2, db, params, &tuple, direction, options)?;
        timings.provenance += start.elapsed();
        if matches!(provenance, ratest_provenance::BoolExpr::False) {
            continue;
        }

        options.events.emit(ExplainEvent::PhaseStarted {
            phase: Phase::Solve,
        });
        let start = Instant::now();
        let mut vars = VarMap::new();
        let prv_formula = encode_provenance(&provenance, &mut vars);
        let mut parts = vec![prv_formula];
        parts.extend(foreign_key_clauses(db, &mut vars)?);
        let formula = Formula::and(parts);
        let objective = vars.all_vars();

        options.metrics.counter_inc("optsigma.directions");
        options
            .metrics
            .observe("solver.objective_vars", objective.len() as u64);
        let candidate = match options.strategy {
            SolverStrategy::Optimize => {
                let mut solver_stats = SolverStats::default();
                let result = minimize_ones_with_theory_into(
                    &formula,
                    &objective,
                    &MinOnesOptions::default(),
                    |true_vars| accept(&vars.selection_from_vars(true_vars)),
                    &mut solver_stats,
                );
                // Record on every path so aborted searches (unsatisfiable
                // directions, exhausted rejection budgets) still count.
                solver_stats.record(&options.metrics);
                match result {
                    Ok(sol) => Some(vars.selection_from_vars(&sol.true_vars)),
                    Err(ratest_solver::SolverError::Unsatisfiable) => None,
                    Err(e) => return Err(e.into()),
                }
            }
            SolverStrategy::Enumerate { max_models } => {
                match enumerate_best(&formula, &objective, max_models) {
                    Ok(res) => {
                        res.stats.record(&options.metrics);
                        let sel = vars.selection_from_vars(&res.best_true_vars);
                        accept(&sel).then_some(sel)
                    }
                    Err(ratest_solver::SolverError::Unsatisfiable) => None,
                    Err(e) => return Err(e.into()),
                }
            }
        };
        timings.solver += start.elapsed();
        options.events.emit(ExplainEvent::SolverStats {
            variables: objective.len(),
            solution_size: candidate.as_ref().map(|sel| sel.len()),
        });

        // Keep the observed direction on ties so the witness reflects the
        // disagreement the student actually saw.
        if let Some(sel) = candidate {
            let better = selection
                .as_ref()
                .map(|(best, _)| sel.len() < best.len())
                .unwrap_or(true);
            if better {
                selection = Some((sel, direction));
            }
        }
    }
    let Some((selection, direction)) = selection else {
        return Err(RatestError::Unsupported(
            "no direction of the chosen tuple admits an acceptable witness".into(),
        ));
    };

    // Phase 4: materialize and verify.
    let witness = Witness {
        tuple: tuple.clone(),
        from_q1: direction,
        selection: selection.clone(),
    };
    let ctx = CandidateEval {
        metrics: options.metrics.clone(),
        interrupt: options.budget.interrupt(),
    };
    verify_candidate(plans, db, selection, Some(witness), params, &ctx)
}

/// Cheap necessary condition for `t ∈ (Qa − Qb)(D')` to be achievable on
/// some sub-instance: when `Qa` is monotone (difference- and
/// aggregate-free), `Qa(D') ⊆ Qa(D)`, so a tuple outside `Qa(D)` can never
/// enter the difference in that direction. Used to skip the flipped-direction
/// witness search without computing any provenance.
pub(crate) fn direction_feasible(
    q1: &Query,
    q2: &Query,
    r1: &ResultSet,
    r2: &ResultSet,
    tuple: &[Value],
    from_q1: bool,
) -> bool {
    let (qa, ra) = if from_q1 { (q1, r1) } else { (q2, r2) };
    qa.has_difference() || qa.has_aggregates() || ra.contains(tuple)
}

/// Compute `Prv_{Qa − Qb}(t)` where `(Qa, Qb)` is `(Q1, Q2)` or `(Q2, Q1)`
/// depending on which side the tuple came from, with the tuple-equality
/// selection pushed down.
pub fn provenance_for_tuple(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    tuple: &[Value],
    from_q1: bool,
    options: &RatestOptions,
) -> Result<ratest_provenance::BoolExpr> {
    let plan = Plan::compile_selecting(&difference_query(q1, q2, from_q1), db, tuple)?;
    let annotated = annotate_plan(
        &plan,
        db,
        params,
        &options.budget.interrupt(),
        &options.metrics,
    )?;
    Ok(annotated
        .provenance_of(tuple)
        .cloned()
        .unwrap_or(ratest_provenance::BoolExpr::False))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_algorithm, Algorithm};
    use ratest_ra::testdata;

    fn optsigma(
        q1: &Query,
        q2: &Query,
        options: RatestOptions,
    ) -> Result<(Counterexample, Timings)> {
        let options = RatestOptions {
            algorithm: Algorithm::OptSigma,
            ..options
        };
        run_algorithm(q1, q2, &testdata::figure1_db(), &options)
    }

    fn example1(options: RatestOptions) -> Counterexample {
        optsigma(&testdata::example1_q1(), &testdata::example1_q2(), options)
            .unwrap()
            .0
    }

    #[test]
    fn example1_finds_a_three_tuple_counterexample() {
        let (cex, timings) = optsigma(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            RatestOptions::default(),
        )
        .unwrap();
        assert_eq!(cex.size(), 3);
        assert!(!cex.q1_result.set_eq(&cex.q2_result));
        assert!(timings.total() >= timings.solver);
    }

    #[test]
    fn witness_records_the_differing_tuple() {
        let cex = example1(RatestOptions::default());
        let w = cex.witness.expect("Optσ always produces a witness");
        assert!(!w.from_q1, "the wrong answers are produced by Q2");
        assert_eq!(w.tuple.len(), 2);
        assert_eq!(w.size(), 3);
    }

    #[test]
    fn enumeration_strategy_is_supported_but_may_be_suboptimal() {
        let cex_opt = example1(RatestOptions::default());
        let cex_naive = example1(RatestOptions {
            strategy: SolverStrategy::Enumerate { max_models: 128 },
            ..Default::default()
        });
        assert!(cex_naive.size() >= cex_opt.size());
    }

    #[test]
    fn equivalent_queries_are_reported() {
        let q = testdata::example1_q2();
        assert!(matches!(
            optsigma(&q, &q, RatestOptions::default()),
            Err(RatestError::QueriesAgreeOnInstance)
        ));
    }

    #[test]
    fn matches_brute_force_on_the_toy_instance() {
        let cex = example1(RatestOptions::default());
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
}
