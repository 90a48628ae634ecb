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
//!
//! A caller that scans several problems and keeps only a strictly smaller
//! answer than the one it holds passes that **incumbent** size to
//! [`minimize_ones_below`]. The first solve runs as always. When its model
//! is not smaller than the incumbent, one probe bounded at `incumbent − 1`
//! decides whether any accepted model is: `Unsatisfiable` there ends the
//! search as [`Descent::CannotBeat`], since the descent could only have
//! ended at a cost of at least the incumbent (or failed). Any other probe
//! result resumes the descent unchanged; every probe is a fresh solver, so
//! it returns the model it would have returned without the probe. The probe
//! is not run before the first solve: on a problem where many cheap models
//! are rejected, a bounded solve can exhaust the rejection budget where the
//! unbounded one finds an accepted model quickly.

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
    let accept = |true_vars: &[Var]| accept(true_vars).then_some(());
    match minimize_ones_below(formula, objective, options, None, accept, out)? {
        Descent::Optimum(solution, ()) => Ok(solution),
        Descent::CannotBeat => unreachable!("only an incumbent can be out of reach"),
    }
}

/// How a search against an incumbent ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Descent<T> {
    /// The optimum, with what the theory callback returned for its model.
    Optimum(MinOnesSolution, T),
    /// No accepted model has fewer true variables than the incumbent.
    CannotBeat,
}

/// [`minimize_ones_with_theory_into`] for a caller that only keeps a model
/// with fewer than `incumbent` true variables (see the [module
/// docs](self)). `accept` returns `Some` value to accept a model, and the
/// optimum comes back with the value returned for it. With no incumbent
/// this is the plain descent, probe for probe.
pub fn minimize_ones_below<T, F>(
    formula: &Formula,
    objective: &[Var],
    options: &MinOnesOptions,
    incumbent: Option<usize>,
    mut accept: F,
    out: &mut SolverStats,
) -> Result<Descent<T>>
where
    F: FnMut(&[Var]) -> Option<T>,
{
    let mut stats = SolverStats::default();
    let result = minimize_impl(
        formula,
        objective,
        options,
        incumbent,
        &mut accept,
        &mut stats,
    );
    out.merge(&stats);
    Ok(match result? {
        Some((true_vars, value)) => Descent::Optimum(
            MinOnesSolution {
                cost: true_vars.len(),
                true_vars,
                stats,
            },
            value,
        ),
        None => Descent::CannotBeat,
    })
}

/// An accepted model: its true objective variables and the theory's value.
type Accepted<T> = (Vec<Var>, T);

/// The descent: solve once under the caller's bound, stop if an incumbent
/// proves out of reach, then tighten the cardinality bound (binary or
/// linear) until no accepted model remains. Every probe is a fresh solver
/// over the CNF plus that probe's bound. `None` means
/// [`Descent::CannotBeat`].
fn minimize_impl<T, F>(
    formula: &Formula,
    objective: &[Var],
    options: &MinOnesOptions,
    incumbent: Option<usize>,
    accept: &mut F,
    stats: &mut SolverStats,
) -> Result<Option<Accepted<T>>>
where
    F: FnMut(&[Var]) -> Option<T>,
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
    if let Some(incumbent) = incumbent {
        if best.0.len() >= incumbent {
            let Some(below) = incumbent.checked_sub(1) else {
                return Ok(None);
            };
            if let Ok(None) = probe(Some(below)) {
                return Ok(None);
            }
        }
    }
    if options.binary_search {
        // Invariant: a solution of cost `best.0.len()` exists; no solution
        // of cost < lo exists.
        let mut lo = 0usize;
        let mut hi = best.0.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match probe(Some(mid))? {
                Some(model) => {
                    hi = model.0.len().min(mid);
                    best = model;
                }
                None => lo = mid + 1,
            }
        }
    } else {
        // Linear descent.
        while !best.0.is_empty() {
            match probe(Some(best.0.len() - 1))? {
                Some(model) => best = model,
                None => break,
            }
        }
    }
    Ok(Some(best))
}

/// Solve the base CNF with an optional at-most-k bound over the objective,
/// retrying (with blocking clauses) while the theory callback rejects models.
/// Returns the true objective variables of an accepted model with the
/// theory's value for it, or `None` if unsatisfiable under the bound.
/// Merges the solver's counters into `stats` on **every** exit, errors
/// included.
fn solve_accepting<T, F>(
    base: &Cnf,
    objective: &[Var],
    bound: Option<usize>,
    max_rejections: usize,
    accept: &mut F,
    stats: &mut SolverStats,
) -> Result<Option<Accepted<T>>>
where
    F: FnMut(&[Var]) -> Option<T>,
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
                if let Some(value) = accept(&true_vars) {
                    break Ok(Some((true_vars, value)));
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

    /// `x1 ∨ (x2 ∧ x3)`: the first model is `{x2, x3}` (branching tries
    /// `x1 = false` first); the optimum is `{x1}`.
    fn two_ways() -> Formula {
        Formula::or(vec![v(1), Formula::and(vec![v(2), v(3)])])
    }

    fn below(incumbent: Option<usize>) -> Descent<()> {
        let mut stats = SolverStats::default();
        minimize_ones_below(
            &two_ways(),
            &[1, 2, 3],
            &MinOnesOptions::default(),
            incumbent,
            |_| Some(()),
            &mut stats,
        )
        .unwrap()
    }

    #[test]
    fn an_incumbent_the_optimum_cannot_beat_ends_the_search() {
        // The optimum (1) equals the incumbent: the probe at 0 is
        // unsatisfiable. A probe at the incumbent itself would find {x1}.
        assert_eq!(below(Some(1)), Descent::CannotBeat);
        assert_eq!(below(Some(0)), Descent::CannotBeat);
    }

    #[test]
    fn a_beatable_incumbent_returns_the_plain_optimum() {
        let plain = minimize_ones(&two_ways(), &[1, 2, 3], &MinOnesOptions::default()).unwrap();
        for incumbent in [None, Some(2), Some(3)] {
            let Descent::Optimum(sol, ()) = below(incumbent) else {
                panic!("incumbent {incumbent:?} is beatable");
            };
            assert_eq!(sol.true_vars, plain.true_vars);
            assert_eq!(sol.cost, 1);
        }
    }

    #[test]
    fn a_probe_that_exhausts_its_budget_resumes_the_descent() {
        // x1 ∨ (x2 ∧ x3 ∧ x4 ∧ x5) over objective x1..x13. The theory
        // accepts the big branch, and {x1, x6} on the small one. The first
        // model is {x2..x5} (cost 4). Under the bound 3 the solver offers
        // dozens of small models without x6 before {x1, x6}, so the probe
        // at `4 − 1` exhausts a budget of 12 rejections; under the bound 2
        // only 12 models are rejected, so the descent finds {x1, x6}.
        let f = Formula::or(vec![v(1), Formula::and(vec![v(2), v(3), v(4), v(5)])]);
        let objective: Vec<Var> = (1..=13).collect();
        let options = MinOnesOptions {
            max_theory_rejections: 12,
            ..Default::default()
        };
        let accept = |t: &[Var]| [2, 3, 4, 5].iter().all(|x| t.contains(x)) || t == [1, 6];
        let bounded = MinOnesOptions {
            upper_bound: Some(3),
            ..options.clone()
        };
        assert!(matches!(
            minimize_ones_with_theory(&f, &objective, &bounded, accept),
            Err(SolverError::BudgetExhausted { .. })
        ));
        let plain = minimize_ones_with_theory(&f, &objective, &options, accept).unwrap();
        assert_eq!(plain.true_vars, vec![1, 6]);
        let mut stats = SolverStats::default();
        let searched = minimize_ones_below(
            &f,
            &objective,
            &options,
            Some(4),
            |t| accept(t).then_some(()),
            &mut stats,
        )
        .unwrap();
        let Descent::Optimum(sol, ()) = searched else {
            panic!("{{x1, x6}} beats the incumbent");
        };
        assert_eq!(sol.true_vars, plain.true_vars);
    }

    #[test]
    fn the_optimum_carries_the_theory_value_of_its_own_model() {
        // The theory tags each accepted model with its cost; the probe at
        // `incumbent − 1` accepts a model too, whose tag must not leak.
        let mut stats = SolverStats::default();
        let searched = minimize_ones_below(
            &two_ways(),
            &[1, 2, 3],
            &MinOnesOptions::default(),
            Some(2),
            |t| Some(t.to_vec()),
            &mut stats,
        )
        .unwrap();
        let Descent::Optimum(sol, tag) = searched else {
            panic!("{{x1}} beats the incumbent");
        };
        assert_eq!(tag, sol.true_vars);
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
