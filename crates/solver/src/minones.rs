//! Min-ones optimization: find a model with the fewest true objective
//! variables.
//!
//! This is the `Opt` strategy of the paper (Figure 5): instead of blindly
//! enumerating models, the optimizer drives the SAT solver with a cardinality
//! bound on the objective variables and performs a binary-search descent on
//! that bound, which yields the *global* minimum. An optional **theory
//! callback** lets callers reject models that violate non-Boolean side
//! conditions (aggregate value comparisons, "the counterexample must actually
//! distinguish the two queries" re-checks); rejected models are blocked and
//! the search continues, mirroring lazy SMT solving.

use crate::cardinality::at_most_k_with;
use crate::cnf::{Cnf, Lit, Var};
use crate::error::{Result, SolverError};
use crate::formula::Formula;
use crate::sat::{SatResult, Solver};
use crate::stats::SolverStats;

/// Options controlling the min-ones search.
#[derive(Debug, Clone)]
pub struct MinOnesOptions {
    /// Upper bound on theory-callback rejections per cardinality bound before
    /// giving up (prevents pathological blocking loops).
    pub max_theory_rejections: usize,
    /// If `true`, use a binary search on the cardinality bound; otherwise
    /// descend linearly from the first model's cost (`cost-1`, `cost-2`, ...).
    pub binary_search: bool,
    /// Only look for models with at most this many true objective variables;
    /// the search reports [`SolverError::Unsatisfiable`] when none exists.
    /// Lets callers that already hold a solution of size `k` probe a new
    /// instance with `Some(k - 1)` and discard it with a single bounded
    /// solve instead of a full optimization.
    pub upper_bound: Option<usize>,
}

impl Default for MinOnesOptions {
    fn default() -> Self {
        MinOnesOptions {
            max_theory_rejections: 10_000,
            binary_search: true,
            upper_bound: None,
        }
    }
}

/// The result of a min-ones optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinOnesSolution {
    /// Objective variables assigned true in the optimal model.
    pub true_vars: Vec<Var>,
    /// The optimal objective value (`true_vars.len()`).
    pub cost: usize,
    /// Aggregated solver statistics across all bound probes.
    pub stats: SolverStats,
}

/// Minimize the number of true variables among `objective` subject to `formula`.
pub fn minimize_ones(
    formula: &Formula,
    objective: &[Var],
    options: &MinOnesOptions,
) -> Result<MinOnesSolution> {
    minimize_ones_with_theory(formula, objective, options, |_| true)
}

/// Minimize with a theory callback: `accept` receives the set of true
/// objective variables of a candidate model and may reject it; rejected
/// candidates are excluded (blocked) and the search continues.
pub fn minimize_ones_with_theory<F>(
    formula: &Formula,
    objective: &[Var],
    options: &MinOnesOptions,
    accept: F,
) -> Result<MinOnesSolution>
where
    F: FnMut(&[Var]) -> bool,
{
    let mut sink = SolverStats::default();
    minimize_ones_with_theory_into(formula, objective, options, accept, &mut sink)
}

/// [`minimize_ones_with_theory`], folding solver statistics into `out` on
/// **every** exit path — including `Unsatisfiable` and `BudgetExhausted`
/// errors, whose partial work the plain variant's callers historically
/// dropped, under-counting `--metrics` totals for aborted searches.
pub fn minimize_ones_with_theory_into<F>(
    formula: &Formula,
    objective: &[Var],
    options: &MinOnesOptions,
    mut accept: F,
    out: &mut SolverStats,
) -> Result<MinOnesSolution>
where
    F: FnMut(&[Var]) -> bool,
{
    let mut stats = SolverStats::default();
    let result = minimize_impl(formula, objective, options, &mut accept, &mut stats);
    out.merge(&stats);
    result.map(|true_vars| MinOnesSolution {
        cost: true_vars.len(),
        true_vars,
        stats,
    })
}

/// The descent: solve once under the caller's bound, then tighten the
/// cardinality bound (binary or linear) until no accepted model remains.
/// Every probe is a fresh solver over the CNF plus that probe's bound.
fn minimize_impl<F>(
    formula: &Formula,
    objective: &[Var],
    options: &MinOnesOptions,
    accept: &mut F,
    stats: &mut SolverStats,
) -> Result<Vec<Var>>
where
    F: FnMut(&[Var]) -> bool,
{
    let num_vars = objective
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(formula.max_var());
    let base = formula.to_cnf(num_vars);
    let max_rejections = options.max_theory_rejections;
    let mut probe = |bound: Option<usize>| {
        solve_accepting(&base, objective, bound, max_rejections, accept, stats)
    };

    let Some(mut best) = probe(options.upper_bound)? else {
        return Err(SolverError::Unsatisfiable);
    };
    if options.binary_search {
        // Invariant: a solution of cost `best.len()` exists; no solution of
        // cost < lo exists.
        let mut lo = 0usize;
        let mut hi = best.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match probe(Some(mid))? {
                Some(model) => {
                    hi = model.len().min(mid);
                    best = model;
                }
                None => lo = mid + 1,
            }
        }
    } else {
        // Linear descent.
        while !best.is_empty() {
            match probe(Some(best.len() - 1))? {
                Some(model) => best = model,
                None => break,
            }
        }
    }
    Ok(best)
}

/// Solve the base CNF with an optional at-most-k bound over the objective,
/// retrying (with blocking clauses) while the theory callback rejects models.
/// Returns the true objective variables of an accepted model, or `None` if
/// unsatisfiable under the bound. Merges the solver's counters into `stats`
/// on **every** exit, errors included.
fn solve_accepting<F>(
    base: &Cnf,
    objective: &[Var],
    bound: Option<usize>,
    max_rejections: usize,
    accept: &mut F,
    stats: &mut SolverStats,
) -> Result<Option<Vec<Var>>>
where
    F: FnMut(&[Var]) -> bool,
{
    let mut solver = Solver::from_cnf(base);
    if let Some(k) = bound {
        // The at-most-k clauses follow the base clauses, over register
        // variables numbered after the base's, as if appended to the CNF.
        let lits: Vec<Lit> = objective.iter().map(|&v| Lit::pos(v)).collect();
        let mut next_var = base.num_vars;
        at_most_k_with(&lits, k, &mut next_var, |clause| {
            solver.add_lits(clause);
        });
        solver.ensure_vars(next_var);
    }
    let mut rejections = 0usize;
    let result = loop {
        match solver.solve() {
            Err(e) => break Err(e),
            Ok(SatResult::Unsat) => break Ok(None),
            Ok(SatResult::Sat(model)) => {
                let true_vars: Vec<Var> = objective
                    .iter()
                    .copied()
                    .filter(|&v| model.value(v))
                    .collect();
                if accept(&true_vars) {
                    break Ok(Some(true_vars));
                }
                rejections += 1;
                if rejections > max_rejections {
                    break Err(SolverError::BudgetExhausted {
                        budget: format!("{max_rejections} theory rejections"),
                    });
                }
                // Block this exact assignment of the objective variables.
                let blocking: Vec<Lit> = objective
                    .iter()
                    .map(|&v| Lit::new(v, !model.value(v)))
                    .collect();
                if !solver.add_clause(blocking) {
                    break Ok(None);
                }
            }
        }
    };
    stats.merge(&solver.stats);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Formula {
        Formula::var(i)
    }

    #[test]
    fn minimum_of_simple_cover() {
        // (x1 ∨ x2) ∧ (x2 ∨ x3): optimum is {x2}.
        let f = Formula::and(vec![
            Formula::or(vec![v(1), v(2)]),
            Formula::or(vec![v(2), v(3)]),
        ]);
        for binary in [true, false] {
            let opts = MinOnesOptions {
                binary_search: binary,
                ..Default::default()
            };
            let sol = minimize_ones(&f, &[1, 2, 3], &opts).unwrap();
            assert_eq!(sol.cost, 1);
            assert_eq!(sol.true_vars, vec![2]);
        }
    }

    #[test]
    fn negations_are_respected() {
        // Provenance-style formula: x1 ∧ (x2 ∨ x3) ∧ ¬(x2 ∧ x3) — minimum 2.
        let f = Formula::and(vec![
            v(1),
            Formula::or(vec![v(2), v(3)]),
            Formula::not(Formula::and(vec![v(2), v(3)])),
        ]);
        let sol = minimize_ones(&f, &[1, 2, 3], &MinOnesOptions::default()).unwrap();
        assert_eq!(sol.cost, 2);
        assert!(sol.true_vars.contains(&1));
    }

    #[test]
    fn unsatisfiable_formula_is_reported() {
        let f = Formula::and(vec![v(1), Formula::not(v(1))]);
        assert_eq!(
            minimize_ones(&f, &[1], &MinOnesOptions::default()),
            Err(SolverError::Unsatisfiable)
        );
    }

    #[test]
    fn zero_cost_optimum() {
        // ¬x1 ∨ x2 is satisfied by the all-false assignment.
        let f = Formula::or(vec![Formula::not(v(1)), v(2)]);
        let sol = minimize_ones(&f, &[1, 2], &MinOnesOptions::default()).unwrap();
        assert_eq!(sol.cost, 0);
    }

    #[test]
    fn vertex_cover_instance_finds_true_optimum() {
        // Path graph 1-2-3-4-5: edges (1,2),(2,3),(3,4),(4,5); minimum vertex
        // cover has size 2 ({2,4}).
        let edges = [(1u32, 2u32), (2, 3), (3, 4), (4, 5)];
        let f = Formula::and(
            edges
                .iter()
                .map(|&(a, b)| Formula::or(vec![v(a), v(b)]))
                .collect(),
        );
        let sol = minimize_ones(&f, &[1, 2, 3, 4, 5], &MinOnesOptions::default()).unwrap();
        assert_eq!(sol.cost, 2);
        // Verify it is actually a cover.
        for (a, b) in edges {
            assert!(sol.true_vars.contains(&a) || sol.true_vars.contains(&b));
        }
    }

    #[test]
    fn theory_callback_rejects_and_search_continues() {
        // (x1 ∨ x2), but the theory refuses models containing x2 alone:
        // the optimizer must settle on {x1}.
        let f = Formula::or(vec![v(1), v(2)]);
        let sol = minimize_ones_with_theory(&f, &[1, 2], &MinOnesOptions::default(), |true_vars| {
            true_vars != [2]
        })
        .unwrap();
        assert_eq!(sol.cost, 1);
        assert_eq!(sol.true_vars, vec![1]);
    }

    #[test]
    fn theory_rejecting_everything_exhausts_budget_or_unsat() {
        let f = Formula::or(vec![v(1), v(2)]);
        let result = minimize_ones_with_theory(
            &f,
            &[1, 2],
            &MinOnesOptions {
                max_theory_rejections: 8,
                ..Default::default()
            },
            |_| false,
        );
        // All models rejected: either the blocked space becomes UNSAT or the
        // budget trips; both are errors.
        assert!(result.is_err());
    }

    #[test]
    fn stats_are_accumulated() {
        let f = Formula::and(vec![
            Formula::or(vec![v(1), v(2), v(3)]),
            Formula::or(vec![Formula::not(v(1)), v(4)]),
        ]);
        let sol = minimize_ones(&f, &[1, 2, 3, 4], &MinOnesOptions::default()).unwrap();
        assert!(sol.stats.decisions + sol.stats.propagations > 0);
    }

    #[test]
    fn into_variant_reports_stats_on_error_paths() {
        // Unsatisfiable: the historical API dropped the solver's counters on
        // this path; the `_into` variant must fold them into `out`.
        let f = Formula::and(vec![
            Formula::or(vec![v(1), v(2)]),
            Formula::not(v(1)),
            Formula::not(v(2)),
        ]);
        let mut out = SolverStats::default();
        let err = minimize_ones_with_theory_into(
            &f,
            &[1, 2],
            &MinOnesOptions::default(),
            |_| true,
            &mut out,
        );
        assert_eq!(err.unwrap_err(), SolverError::Unsatisfiable);
        assert!(out.propagations > 0);

        // Budget exhaustion likewise.
        let g = Formula::or(vec![v(1), v(2)]);
        let mut out2 = SolverStats::default();
        let err2 = minimize_ones_with_theory_into(
            &g,
            &[1, 2],
            &MinOnesOptions {
                max_theory_rejections: 0,
                ..Default::default()
            },
            |_| false,
            &mut out2,
        );
        assert!(err2.is_err());
        assert!(out2.decisions + out2.propagations > 0);
    }
}
