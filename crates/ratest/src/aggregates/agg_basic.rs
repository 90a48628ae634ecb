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
//!
//! `GroupSearch` is that per-group search, shared with `Agg-Param`:
//! `Agg-Basic` is the case with no free parameters, where the theory check
//! tries only the original setting. The scan keeps the smallest verified
//! counterexample and replaces it only with a strictly smaller one, so every
//! group after the first searches against the incumbent's size
//! ([`minimize_ones_below`]): a probe one below the incumbent, capped at 1%
//! of the rejection budget, runs first, and when it (or, after the group's
//! first model, the same probe with the full budget) is unsatisfiable, the
//! group is abandoned (`agg.groups_abandoned`) without the descent that
//! could only prove an optimum the scan would discard. On the TPC-H Q18 pair
//! with a wrong HAVING threshold, seven of its eight groups end that way,
//! each after a few rejected models instead of an unbounded solve.

use super::TheoryCheck;
use crate::encode::{encode_provenance, foreign_key_clauses, VarMap};
use crate::error::{RatestError, Result};
use crate::pipeline::{RatestOptions, Timings};
use crate::problem::{verify_candidate, CandidateEval, Counterexample, EvaluatedPair, PairPlans};
use crate::session::ExplainEvent;
use ratest_provenance::aggprov::{AggregateProvenance, GroupRows};
use ratest_provenance::BoolExpr;
use ratest_ra::eval::Params;
use ratest_solver::formula::Formula;
use ratest_solver::minones::{minimize_ones_below, Descent, MinOnesOptions};
use ratest_solver::{SolverError, SolverStats, Var};
use ratest_storage::{Database, TupleSelection, Value};
use std::collections::BTreeSet;
use std::time::Instant;

/// The most candidate groups a scan tries (ordered by provenance size,
/// smallest first, as suggested in Section 5.3.2).
pub(super) const MAX_GROUPS: usize = 8;

/// `Agg-Basic`'s search over the pair's aggregate provenance `p1`, `p2`
/// (built on the pair's instance under its parameters). The search's time
/// is added to `timings.solver`.
pub(crate) fn agg_basic_core(
    pair: &EvaluatedPair,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    options: &RatestOptions,
    timings: &mut Timings,
) -> Result<Counterexample> {
    let no_free_parameters = BTreeSet::new();
    let search = GroupSearch::new(pair, p1, p2, &no_free_parameters, options);
    search.scan(options, timings)?.ok_or_else(|| {
        RatestError::Unsupported("no candidate group yields a distinguishing sub-instance".into())
    })
}

/// The candidate-group search of `Agg-Basic` and `Agg-Param` over one
/// pair's aggregate provenance.
pub(crate) struct GroupSearch<'a> {
    /// The pair compiled on `db`, for verification.
    pub(crate) plans: &'a PairPlans,
    pub(crate) db: &'a Database,
    pub(crate) p1: &'a AggregateProvenance,
    pub(crate) p2: &'a AggregateProvenance,
    /// The original parameter setting λ, under which the provenance was
    /// built.
    pub(crate) params: &'a Params,
    /// The parameters the search may re-choose (Definition 3); empty for
    /// `Agg-Basic`.
    pub(crate) free: &'a BTreeSet<String>,
    /// Verification's metrics and interrupt; the search's counters go to
    /// the same metrics.
    pub(crate) ctx: CandidateEval,
}

/// One candidate group's min-ones problem: its formula, objective and the
/// tuple each variable stands for.
pub(crate) struct GroupProblem {
    pub(crate) formula: Formula,
    pub(crate) objective: Vec<Var>,
    pub(crate) vars: VarMap,
}

impl<'a> GroupSearch<'a> {
    /// The search over `pair`'s aggregate provenance `p1`, `p2` with the
    /// parameters in `free` re-chosen, verifying under `options`' metrics
    /// and interrupt.
    pub(crate) fn new(
        pair: &EvaluatedPair<'a>,
        p1: &'a AggregateProvenance,
        p2: &'a AggregateProvenance,
        free: &'a BTreeSet<String>,
        options: &RatestOptions,
    ) -> Self {
        GroupSearch {
            plans: pair.plans,
            db: pair.db,
            p1,
            p2,
            params: pair.params,
            free,
            ctx: CandidateEval {
                metrics: options.metrics.clone(),
                interrupt: options.budget.interrupt(),
            },
        }
    }

    /// Search the first [`MAX_GROUPS`] candidate groups, keeping the
    /// smallest verified counterexample (the first found among equal
    /// sizes). The scan's time is added to `timings.solver`.
    pub(crate) fn scan(
        &self,
        options: &RatestOptions,
        timings: &mut Timings,
    ) -> Result<Option<Counterexample>> {
        let start = Instant::now();
        let candidates = candidate_group_keys(self.p1, self.p2, self.params)?;
        let mut best: Option<Counterexample> = None;
        for (index, key) in candidates.into_iter().take(MAX_GROUPS).enumerate() {
            options.budget.check()?;
            let incumbent = best.as_ref().map(Counterexample::size);
            options.events.emit(ExplainEvent::CandidateChecked {
                index,
                best_size: incumbent,
            });
            if let Some(cex) = self.search_group(key, incumbent)? {
                if incumbent.is_none_or(|size| cex.size() < size) {
                    best = Some(cex);
                }
            }
        }
        timings.solver += start.elapsed();
        Ok(best)
    }

    /// The min-ones problem of the group with `key`: the group must exist in
    /// at least one query (a necessary condition for the group to contribute
    /// a difference), and the selection must be closed under the foreign
    /// keys. `None` when the group exists in neither query.
    pub(crate) fn problem(&self, key: &[Value]) -> Result<Option<GroupProblem>> {
        let exists = |p: &AggregateProvenance| {
            p.group_by_key(key)
                .map(|g| g.exists.clone())
                .unwrap_or(BoolExpr::False)
        };
        let skeleton = BoolExpr::or2(exists(self.p1), exists(self.p2));
        if skeleton.is_false() {
            return Ok(None);
        }
        let mut vars = VarMap::new();
        let mut parts = vec![encode_provenance(&skeleton, &mut vars)];
        parts.extend(foreign_key_clauses(self.db, &mut vars)?);
        Ok(Some(GroupProblem {
            formula: Formula::and(parts),
            objective: vars.all_vars(),
            vars,
        }))
    }

    /// The theory check on a model's `selection`: the first parameter
    /// setting under which the two queries disagree on it (the original
    /// setting when no parameter is free), or `None` when there is none.
    pub(crate) fn differing_setting(
        &self,
        theory: &TheoryCheck,
        selection: &TupleSelection,
    ) -> Option<Params> {
        theory.differing_setting(selection, self.free, self.params)
    }

    /// Solve the group with `key` and verify its optimum. `None` when the
    /// group yields nothing the scan keeps: no accepted model, an exhausted
    /// rejection budget, no model smaller than `incumbent`, or a sub-instance
    /// that does not verify.
    fn search_group(
        &self,
        key: &[Value],
        incumbent: Option<usize>,
    ) -> Result<Option<Counterexample>> {
        let Some(GroupProblem {
            formula,
            objective,
            vars,
        }) = self.problem(key)?
        else {
            return Ok(None);
        };
        let metrics = &self.ctx.metrics;
        let theory = TheoryCheck::new(self.p1, self.p2);
        let accept = |true_vars: &[Var]| {
            self.differing_setting(&theory, &vars.selection_from_vars(true_vars))
        };
        metrics.counter_inc("agg.groups_solved");
        metrics.observe("solver.objective_vars", objective.len() as u64);
        let mut solver_stats = SolverStats::default();
        let result = minimize_ones_below(
            &formula,
            &objective,
            &MinOnesOptions::default(),
            incumbent,
            accept,
            &mut solver_stats,
        );
        // Record on every path: groups abandoned as unsatisfiable,
        // budget-capped or out of the incumbent's reach still did solver
        // work that `--metrics` totals must include.
        solver_stats.record(metrics);
        theory.record(metrics);
        let (sol, params) = match result {
            Ok(Descent::Optimum(sol, params)) => (sol, params),
            Ok(Descent::CannotBeat) => {
                metrics.counter_inc("agg.groups_abandoned");
                return Ok(None);
            }
            Err(SolverError::Unsatisfiable) | Err(SolverError::BudgetExhausted { .. }) => {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        };
        let selection = vars.selection_from_vars(&sol.true_vars);
        match verify_candidate(self.plans, self.db, selection, None, &params, &self.ctx) {
            Ok(cex) => Ok(Some(cex)),
            Err(RatestError::Unsupported(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Group keys on which the two queries (may) disagree, ordered by the number
/// of involved tuples so that small groups are attempted first.
pub(crate) fn candidate_group_keys<'p>(
    p1: &'p AggregateProvenance,
    p2: &'p AggregateProvenance,
    params: &Params,
) -> Result<Vec<&'p [Value]>> {
    let mut keys: Vec<&[Value]> = p1.groups().iter().map(|g| g.key.as_slice()).collect();
    if !p2.shares_groups_with(p1) {
        keys.extend(p2.groups().iter().map(|g| g.key.as_slice()));
    }
    keys.sort_unstable();
    keys.dedup();
    let (mut rows1, mut rows2) = (GroupRows::default(), GroupRows::default());
    let mut scored: Vec<(bool, usize, &[Value])> = Vec::with_capacity(keys.len());
    for key in keys {
        let size = p1.group_var_count(key) + p2.group_var_count(key);
        // Groups whose full-instance rows already differ are guaranteed to
        // lead somewhere, so they come first; among those, prefer the group
        // with the fewest involved tuples (Section 5.3.2).
        let in1 = full_instance_row(p1, key, params, &mut rows1)?;
        let in2 = full_instance_row(p2, key, params, &mut rows2)?;
        let differs = in1 != in2 || rows1.values() != rows2.values();
        scored.push((!differs, size, key));
    }
    scored.sort();
    Ok(scored.into_iter().map(|(_, _, k)| k).collect())
}

/// Evaluate the group with `key` on the full instance into `rows`: whether
/// it exists and passes HAVING. Its row is the key, shared by both
/// queries, followed by `rows.values()`.
fn full_instance_row(
    p: &AggregateProvenance,
    key: &[Value],
    params: &Params,
    rows: &mut GroupRows,
) -> Result<bool> {
    rows.clear();
    let always = |_id| true;
    Ok(match p.group_index(key) {
        Some(gi) => p.push_group_row(gi, &always, params, rows)?,
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_algorithm, Algorithm};
    use ratest_provenance::aggprov::pair_aggregate_provenance;
    use ratest_ra::ast::Query;
    use ratest_ra::testdata;
    use ratest_telemetry::MetricsHandle;

    fn agg_basic(q1: &Query, q2: &Query) -> Result<Counterexample> {
        let options = RatestOptions {
            algorithm: Algorithm::AggBasic,
            ..Default::default()
        };
        Ok(run_algorithm(q1, q2, &testdata::figure1_db(), &options)?.0)
    }

    #[test]
    fn example4_yields_a_tiny_counterexample() {
        // The paper's discussion of Example 4: a counterexample needs only
        // Mary's ECON registration (plus Mary herself, for the join/FK),
        // because then Q1 returns nothing for Mary while Q2 returns (Mary, 95).
        let cex = agg_basic(&testdata::example4_q1(), &testdata::example4_q2()).unwrap();
        assert!(cex.size() <= 2, "expected ≤ 2 tuples, got {}", cex.size());
        assert!(!cex.q1_result.set_eq(&cex.q2_result));
    }

    #[test]
    fn example5_counterexample_respects_the_having_threshold() {
        // With HAVING COUNT >= 3 fixed, the counterexample must keep all of
        // Mary's three registrations plus Mary (4 tuples) — the paper's
        // motivation for parameterization.
        let cex = agg_basic(&testdata::example5_q1(), &testdata::example5_q2()).unwrap();
        assert_eq!(cex.size(), 4);
    }

    #[test]
    fn equivalent_aggregate_queries_are_rejected() {
        let q = testdata::example4_q1();
        assert!(matches!(
            agg_basic(&q, &q),
            Err(RatestError::QueriesAgreeOnInstance)
        ));
    }

    #[test]
    fn theory_check_detects_agreement_and_disagreement() {
        let db = testdata::figure1_db();
        let (p1, p2) = pair_aggregate_provenance(
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
        assert!(!theory.differ(&nothing, &Params::new()).unwrap());
        // Full instance: they differ.
        assert!(theory.differ(&all, &Params::new()).unwrap());
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
