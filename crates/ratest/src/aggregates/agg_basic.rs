//! `Agg-Basic`: provenance-for-aggregates encoding (Section 5.2).
//!
//! For a candidate group key, the Boolean skeleton requires that the group
//! exists in at least one of the two queries; the solver minimizes the number
//! of retained tuples among the variables of that group, and a lazy theory
//! check — re-evaluating both aggregate queries on the candidate
//! sub-instance via the pre-computed group provenance — rejects models on
//! which the queries happen to agree (e.g. equal AVG values), blocking them
//! and continuing. This mirrors the paper's symbolic SMT encoding
//! (Listing 2) with evaluation standing in for symbolic arithmetic.

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
use std::collections::BTreeSet;
use std::time::Instant;

/// Options for `Agg-Basic`.
#[derive(Debug, Clone)]
pub struct AggBasicOptions {
    /// Maximum number of candidate groups to try (ordered by provenance
    /// size, smallest first, as suggested in Section 5.3.2).
    pub max_groups: usize,
    /// Unified resource budget, polled once per candidate group.
    pub budget: crate::session::Budget,
    /// Progress events (per candidate group).
    pub events: crate::session::EventHandle,
    /// Metrics sink: provenance and solver counters are folded in here.
    pub metrics: MetricsHandle,
}

impl Default for AggBasicOptions {
    fn default() -> Self {
        AggBasicOptions {
            max_groups: 8,
            budget: crate::session::Budget::unlimited(),
            events: crate::session::EventHandle::none(),
            metrics: MetricsHandle::none(),
        }
    }
}

/// Run `Agg-Basic` on an aggregate query pair.
pub fn smallest_counterexample_agg_basic(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    options: &AggBasicOptions,
) -> Result<(Counterexample, Timings)> {
    run_standalone(
        q1,
        q2,
        db,
        params,
        &options.budget,
        &options.metrics,
        |plans, p1, p2| agg_basic_core(plans, db, params, p1, p2, options),
    )
}

/// `Agg-Basic`'s search over the pair's aggregate provenance `p1`, `p2`
/// (built on `db` under `params`), verifying candidates through `plans`. The
/// returned [`Timings`] cover the search alone.
pub(crate) fn agg_basic_core(
    plans: &PairPlans,
    db: &Database,
    params: &Params,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    options: &AggBasicOptions,
) -> Result<(Counterexample, Timings)> {
    let start = Instant::now();
    let candidates = candidate_group_keys(p1, p2, params)?;
    let ctx = CandidateEval {
        metrics: options.metrics.clone(),
        interrupt: options.budget.interrupt(),
    };
    let mut best: Option<Counterexample> = None;
    for (index, key) in candidates.into_iter().take(options.max_groups).enumerate() {
        options.budget.check()?;
        options
            .events
            .emit(crate::session::ExplainEvent::CandidateChecked {
                index,
                best_size: best.as_ref().map(|b| b.size()),
            });
        match solve_for_group(plans, db, params, p1, p2, key, &ctx)? {
            Some(cex) => {
                let better = best.as_ref().map(|b| cex.size() < b.size()).unwrap_or(true);
                if better {
                    best = Some(cex);
                }
            }
            None => continue,
        }
    }
    let timings = Timings {
        solver: start.elapsed(),
        ..Timings::default()
    };

    best.map(|c| (c, timings)).ok_or_else(|| {
        RatestError::Unsupported("no candidate group yields a distinguishing sub-instance".into())
    })
}

/// Group keys on which the two queries (may) disagree, ordered by the number
/// of involved tuples so that small groups are attempted first.
pub(crate) fn candidate_group_keys<'p>(
    p1: &'p AggregateProvenance,
    p2: &'p AggregateProvenance,
    params: &Params,
) -> Result<Vec<&'p [Value]>> {
    let keys: BTreeSet<&[Value]> = p1
        .groups()
        .iter()
        .chain(p2.groups())
        .map(|g| g.key.as_slice())
        .collect();
    let mut scored: Vec<(bool, usize, &[Value])> = Vec::with_capacity(keys.len());
    for key in keys {
        let size = p1.group_var_count(key) + p2.group_var_count(key);
        // Groups whose full-instance rows already differ are guaranteed to
        // lead somewhere, so they come first; among those, prefer the group
        // with the fewest involved tuples (Section 5.3.2).
        let differs = rows_differ_on_full_instance(p1, p2, key, params)?;
        scored.push((!differs, size, key));
    }
    scored.sort();
    Ok(scored.into_iter().map(|(_, _, k)| k).collect())
}

fn rows_differ_on_full_instance(
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    key: &[Value],
    params: &Params,
) -> Result<bool> {
    let always = |_id| true;
    let row = |p: &AggregateProvenance| match p.group_by_key(key) {
        Some(g) => p.evaluate_group(g, &always, params),
        None => Ok(None),
    };
    Ok(row(p1)? != row(p2)?)
}

/// Solve the min-ones problem restricted to one group.
fn solve_for_group(
    plans: &PairPlans,
    db: &Database,
    params: &Params,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    key: &[Value],
    ctx: &CandidateEval,
) -> Result<Option<Counterexample>> {
    let metrics = &ctx.metrics;
    let exists1 = p1
        .group_by_key(key)
        .map(|g| g.exists.clone())
        .unwrap_or(BoolExpr::False);
    let exists2 = p2
        .group_by_key(key)
        .map(|g| g.exists.clone())
        .unwrap_or(BoolExpr::False);
    // The group must exist in at least one query (a necessary condition for
    // the group to contribute a difference).
    let skeleton = BoolExpr::or2(exists1, exists2);
    if skeleton.is_false() {
        return Ok(None);
    }

    let mut vars = VarMap::new();
    let mut parts = vec![encode_provenance(&skeleton, &mut vars)];
    parts.extend(foreign_key_clauses(db, &mut vars)?);
    let formula = Formula::and(parts);
    let objective = vars.all_vars();

    let theory = TheoryCheck::new(p1, p2);
    let accept = |true_vars: &[ratest_solver::Var]| -> bool {
        let selection = vars.selection_from_vars(true_vars);
        theory
            .differ(&theory.candidate(&selection), params)
            .unwrap_or(false)
    };
    metrics.counter_inc("agg.groups_solved");
    metrics.observe("solver.objective_vars", objective.len() as u64);
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
    solver_stats.record(metrics);
    theory.record(metrics);
    let sol = match result {
        Ok(sol) => sol,
        Err(ratest_solver::SolverError::Unsatisfiable)
        | Err(ratest_solver::SolverError::BudgetExhausted { .. }) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let selection = vars.selection_from_vars(&sol.true_vars);
    match verify_candidate(plans, db, selection, None, params, ctx) {
        Ok(cex) => Ok(Some(cex)),
        Err(RatestError::Unsupported(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::testdata;

    #[test]
    fn example4_yields_a_tiny_counterexample() {
        // The paper's discussion of Example 4: a counterexample needs only
        // Mary's ECON registration (plus Mary herself, for the join/FK),
        // because then Q1 returns nothing for Mary while Q2 returns (Mary, 95).
        let db = testdata::figure1_db();
        let (cex, _) = smallest_counterexample_agg_basic(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            &db,
            &Params::new(),
            &AggBasicOptions::default(),
        )
        .unwrap();
        assert!(cex.size() <= 2, "expected ≤ 2 tuples, got {}", cex.size());
        assert!(!cex.q1_result.set_eq(&cex.q2_result));
    }

    #[test]
    fn example5_counterexample_respects_the_having_threshold() {
        // With HAVING COUNT >= 3 fixed, the counterexample must keep all of
        // Mary's three registrations plus Mary (4 tuples) — the paper's
        // motivation for parameterization.
        let db = testdata::figure1_db();
        let (cex, _) = smallest_counterexample_agg_basic(
            &testdata::example5_q1(),
            &testdata::example5_q2(),
            &db,
            &Params::new(),
            &AggBasicOptions::default(),
        )
        .unwrap();
        assert_eq!(cex.size(), 4);
    }

    #[test]
    fn equivalent_aggregate_queries_are_rejected() {
        let db = testdata::figure1_db();
        let q = testdata::example4_q1();
        assert!(matches!(
            smallest_counterexample_agg_basic(
                &q,
                &q,
                &db,
                &Params::new(),
                &AggBasicOptions::default()
            ),
            Err(RatestError::QueriesAgreeOnInstance)
        ));
    }

    #[test]
    fn theory_check_detects_agreement_and_disagreement() {
        use crate::aggregates::pair_provenance;
        use ratest_storage::TupleSelection;

        let db = testdata::figure1_db();
        let (p1, p2) = pair_provenance(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            &db,
            &Params::new(),
            &ratest_ra::interrupt::Interrupt::none(),
            &MetricsHandle::none(),
        )
        .unwrap();
        let theory = TheoryCheck::new(&p1, &p2);
        let (nothing, all) = (TupleSelection::new(), TupleSelection::all(&db));
        // Empty sub-instance: both queries return nothing — no difference.
        assert!(!theory
            .differ(&theory.candidate(&nothing), &Params::new())
            .unwrap());
        // Full instance: they differ.
        assert!(theory
            .differ(&theory.candidate(&all), &Params::new())
            .unwrap());
        let registry = std::sync::Arc::new(ratest_telemetry::MetricsRegistry::new());
        theory.record(&MetricsHandle::new(registry.clone()));
        assert_eq!(registry.counter("agg.theory.checks"), 2);
        // Nothing selected touches no group; everything touches all of them.
        assert_eq!(
            registry.counter("agg.theory.groups_evaluated"),
            (p1.groups().len() + p2.groups().len()) as u64
        );
    }
}
