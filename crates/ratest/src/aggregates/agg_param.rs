//! `Agg-Param`: the smallest *parameterized* counterexample (Definition 3,
//! Example 6).
//!
//! Constants compared against aggregate values (HAVING `COUNT(...) >= 3`)
//! force counterexamples to contain whole groups. Replacing those constants
//! with parameters lets the search pick a different threshold λ' together
//! with the sub-instance, shrinking the counterexample dramatically (the
//! paper reports ~70 % smaller counterexamples on TPC-H Q18 for a negligible
//! runtime increase — Figure 7).

use super::agg_basic::candidate_group_keys;
use super::{run_standalone, TheoryCheck};
use crate::encode::{encode_provenance, foreign_key_clauses, VarMap};
use crate::error::{RatestError, Result};
use crate::pipeline::Timings;
use crate::problem::{verify_candidate, CandidateEval, Counterexample, PairPlans};
use ratest_provenance::aggprov::AggregateProvenance;
use ratest_provenance::BoolExpr;
use ratest_ra::ast::Query;
use ratest_ra::eval::Params;
use ratest_solver::formula::Formula;
use ratest_solver::minones::{minimize_ones_with_theory_into, MinOnesOptions};
use ratest_solver::SolverStats;
use ratest_storage::{Database, Value};
use ratest_telemetry::MetricsHandle;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::time::Instant;

/// Options for `Agg-Param`.
#[derive(Debug, Clone)]
pub struct AggParamOptions {
    /// Maximum number of candidate groups to try.
    pub max_groups: usize,
    /// Extra candidate parameter values to try besides the derived ones.
    pub extra_candidates: Vec<i64>,
    /// Unified resource budget, polled once per candidate group.
    pub budget: crate::session::Budget,
    /// Progress events (per candidate group).
    pub events: crate::session::EventHandle,
    /// Metrics sink: provenance and solver counters are folded in here.
    pub metrics: MetricsHandle,
}

impl Default for AggParamOptions {
    fn default() -> Self {
        AggParamOptions {
            max_groups: 8,
            extra_candidates: vec![0, 1],
            budget: crate::session::Budget::unlimited(),
            events: crate::session::EventHandle::none(),
            metrics: MetricsHandle::none(),
        }
    }
}

/// Run `Agg-Param` on a parameterized aggregate query pair. `original_params`
/// is the original parameter setting λ (under which the queries must already
/// disagree on `db`); the returned counterexample's
/// [`Counterexample::parameters`] holds the chosen λ'.
pub fn smallest_counterexample_agg_param(
    q1: &Query,
    q2: &Query,
    db: &Database,
    original_params: &Params,
    options: &AggParamOptions,
) -> Result<(Counterexample, Timings)> {
    run_standalone(
        q1,
        q2,
        db,
        original_params,
        &options.budget,
        &options.metrics,
        |plans, p1, p2| agg_param_core(q1, q2, plans, db, original_params, p1, p2, options),
    )
}

/// `Agg-Param`'s search over the pair's aggregate provenance `p1`, `p2`
/// (built on `db` under `original_params`); `plans` is the pair compiled on
/// `db`. The returned [`Timings`] cover the search alone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn agg_param_core(
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    original_params: &Params,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    options: &AggParamOptions,
) -> Result<(Counterexample, Timings)> {
    let start = Instant::now();
    let param_names: BTreeSet<String> = q1.params().union(&q2.params()).cloned().collect();
    let candidates = candidate_group_keys(p1, p2, original_params)?;
    let mut best: Option<Counterexample> = None;
    for (index, key) in candidates.into_iter().take(options.max_groups).enumerate() {
        options.budget.check()?;
        options
            .events
            .emit(crate::session::ExplainEvent::CandidateChecked {
                index,
                best_size: best.as_ref().map(|b| b.size()),
            });
        if let Some(cex) = solve_group_parameterized(
            plans,
            db,
            original_params,
            &param_names,
            options,
            p1,
            p2,
            key,
        )? {
            let better = best.as_ref().map(|b| cex.size() < b.size()).unwrap_or(true);
            if better {
                best = Some(cex);
            }
        }
    }
    let timings = Timings {
        solver: start.elapsed(),
        ..Timings::default()
    };

    best.map(|c| (c, timings)).ok_or_else(|| {
        RatestError::Unsupported(
            "no candidate group yields a distinguishing parameterized sub-instance".into(),
        )
    })
}

#[allow(clippy::too_many_arguments)]
fn solve_group_parameterized(
    plans: &PairPlans,
    db: &Database,
    original_params: &Params,
    param_names: &BTreeSet<String>,
    options: &AggParamOptions,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    key: &[Value],
) -> Result<Option<Counterexample>> {
    let exists1 = p1
        .group_by_key(key)
        .map(|g| g.exists.clone())
        .unwrap_or(BoolExpr::False);
    let exists2 = p2
        .group_by_key(key)
        .map(|g| g.exists.clone())
        .unwrap_or(BoolExpr::False);
    let skeleton = BoolExpr::or2(exists1, exists2);
    if skeleton.is_false() {
        return Ok(None);
    }

    let mut vars = VarMap::new();
    let mut parts = vec![encode_provenance(&skeleton, &mut vars)];
    parts.extend(foreign_key_clauses(db, &mut vars)?);
    let formula = Formula::and(parts);
    let objective = vars.all_vars();

    // The theory callback searches over candidate parameter settings for one
    // that makes the queries disagree; the successful setting is remembered.
    let chosen: RefCell<Option<Params>> = RefCell::new(None);
    let theory = TheoryCheck::new(p1, p2);
    let accept = |true_vars: &[ratest_solver::Var]| -> bool {
        let selection = vars.selection_from_vars(true_vars);
        let candidate = theory.candidate(&selection);
        for setting in theory.param_settings(
            &candidate,
            param_names,
            original_params,
            &options.extra_candidates,
        ) {
            if theory.differ(&candidate, &setting).unwrap_or(false) {
                *chosen.borrow_mut() = Some(setting);
                return true;
            }
        }
        false
    };
    options.metrics.counter_inc("agg.groups_solved");
    options
        .metrics
        .observe("solver.objective_vars", objective.len() as u64);
    let mut solver_stats = SolverStats::default();
    let result = minimize_ones_with_theory_into(
        &formula,
        &objective,
        &MinOnesOptions::default(),
        accept,
        &mut solver_stats,
    );
    // Record on every path: groups abandoned as unsatisfiable or budget-capped
    // still did solver work that `--metrics` totals must include.
    solver_stats.record(&options.metrics);
    theory.record(&options.metrics);
    let sol = match result {
        Ok(sol) => sol,
        Err(ratest_solver::SolverError::Unsatisfiable)
        | Err(ratest_solver::SolverError::BudgetExhausted { .. }) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let selection = vars.selection_from_vars(&sol.true_vars);
    let params = chosen
        .into_inner()
        .unwrap_or_else(|| original_params.clone());
    let ctx = CandidateEval {
        metrics: options.metrics.clone(),
        interrupt: options.budget.interrupt(),
    };
    match verify_candidate(plans, db, selection, None, &params, &ctx) {
        Ok(cex) => Ok(Some(cex)),
        Err(RatestError::Unsupported(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::agg_basic::{smallest_counterexample_agg_basic, AggBasicOptions};
    use ratest_ra::testdata;

    fn original_params() -> Params {
        let mut p = Params::new();
        p.insert("numCS".into(), Value::Int(3));
        p
    }

    #[test]
    fn example6_parameterization_shrinks_the_counterexample() {
        let db = testdata::figure1_db();
        // Non-parameterized (Example 5): 4 tuples needed.
        let (fixed, _) = smallest_counterexample_agg_basic(
            &testdata::example5_q1(),
            &testdata::example5_q2(),
            &db,
            &Params::new(),
            &AggBasicOptions::default(),
        )
        .unwrap();
        // Parameterized (Example 6): 2 tuples suffice (Mary + her ECON
        // registration with @numCS = 1).
        let (param, _) = smallest_counterexample_agg_param(
            &testdata::example6_q1(),
            &testdata::example6_q2(),
            &db,
            &original_params(),
            &AggParamOptions::default(),
        )
        .unwrap();
        assert!(param.size() < fixed.size());
        assert!(param.size() <= 2, "got {}", param.size());
        assert!(!param.parameters.is_empty(), "λ' must be recorded");
        assert!(!param.q1_result.set_eq(&param.q2_result));
    }

    #[test]
    fn chosen_parameters_make_the_verification_pass() {
        let db = testdata::figure1_db();
        let (cex, _) = smallest_counterexample_agg_param(
            &testdata::example6_q1(),
            &testdata::example6_q2(),
            &db,
            &original_params(),
            &AggParamOptions::default(),
        )
        .unwrap();
        // Re-evaluate explicitly with the recorded λ'.
        let r1 = ratest_ra::eval::evaluate_with_params(
            &testdata::example6_q1(),
            cex.database(),
            &cex.parameters,
        )
        .unwrap();
        let r2 = ratest_ra::eval::evaluate_with_params(
            &testdata::example6_q2(),
            cex.database(),
            &cex.parameters,
        )
        .unwrap();
        assert!(!r1.set_eq(&r2));
    }

    #[test]
    fn works_when_there_are_no_parameters_at_all() {
        // Degenerates to Agg-Basic behaviour.
        let db = testdata::figure1_db();
        let (cex, _) = smallest_counterexample_agg_param(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            &db,
            &Params::new(),
            &AggParamOptions::default(),
        )
        .unwrap();
        assert!(cex.size() <= 2);
    }
}
