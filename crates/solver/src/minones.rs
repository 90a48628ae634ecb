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
//! [`minimize_ones_below`]. Before anything else, one probe bounded at
//! `incumbent − 1` runs with a small rejection cap, 1% of
//! `max_theory_rejections` (100 of the default 10,000): `Unsatisfiable` there
//! ends the search as [`Descent::CannotBeat`]. Otherwise (a model, or the
//! cap spent) the plain sequence follows: the first solve, then, when its
//! model is not smaller than the incumbent, the full-budget probe at
//! `incumbent − 1` (skipped when the capped probe already found a model
//! there), whose `Unsatisfiable` also ends the search, and then the descent.
//! Every probe is a fresh, deterministic solver, so a capped probe that
//! finishes returns what the full-budget one would, and the answers are
//! those of the plain sequence: a problem the capped probe settles would
//! have ended `CannotBeat` or failed without it.
//!
//! The cap matters. On the TPC-H Q18 pair with a wrong extra date filter
//! (Q18#0 of the Fig. 6 experiments), many cheap models are rejected, and
//! a probe bounded below the incumbent spends far more rejections than the
//! unbounded first solve needs to find an accepted model. Uncapped, the
//! probe made that pair's `Agg-Basic` search 4× slower on the tpch-agg
//! benchmark's instance (SF 0.0003, seed 7: 2.8 → 11.5–13.1 s, 76 k → 143 k
//! theory checks; 2.0× at `reproduce fig6 --scale small`). Capped, each
//! probe there spends its 100 rejections and gives up, and the search
//! stays within noise (2.8–2.9 s). On the pair with a wrong HAVING
//! threshold (Q18#1, `> 60` against `> 120`) the capped probe settles each
//! hopeless group with a few rejections instead of an unbounded solve.

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

/// The capped probe at `incumbent − 1` may spend `max_theory_rejections /
/// PRE_PROBE_SHARE` rejections (see the [module docs](self)). With fewer
/// than 100 rejections allowed the cap is 0 and no capped probe runs.
const PRE_PROBE_SHARE: usize = 100;

/// The descent: settle a hopeless incumbent with one capped probe, solve
/// once under the caller's bound, stop if the incumbent proves out of
/// reach, then tighten the cardinality bound (binary or linear) until no
/// accepted model remains. Every probe is a fresh solver over the CNF plus
/// that probe's bound. `None` means [`Descent::CannotBeat`].
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
    let mut probe = |bound: Option<usize>, max_rejections: usize| {
        solve_accepting(&base, objective, bound, max_rejections, accept, stats)
    };

    let below = incumbent.and_then(|k| k.checked_sub(1));
    // Whether an accepted model below the incumbent is known to exist.
    let mut beatable = false;
    let cap = max_rejections / PRE_PROBE_SHARE;
    if let (Some(below), true) = (below, cap > 0) {
        match probe(Some(below), cap) {
            Ok(None) => return Ok(None),
            Ok(Some(_)) => beatable = true,
            // The cap is spent (or the probe failed): the plain sequence
            // decides.
            Err(_) => {}
        }
    }
    let Some(mut best) = probe(options.upper_bound, max_rejections)? else {
        return Err(SolverError::Unsatisfiable);
    };
    if let Some(incumbent) = incumbent {
        if best.0.len() >= incumbent && !beatable {
            let Some(below) = below else {
                return Ok(None);
            };
            if let Ok(None) = probe(Some(below), max_rejections) {
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
            match probe(Some(mid), max_rejections)? {
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
            match probe(Some(best.0.len() - 1), max_rejections)? {
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

    /// The models offered to the theory, in order, with its verdicts.
    type Offers = Vec<(Vec<Var>, bool)>;

    /// Run `minimize_ones_below` with `accept`, recording every model it
    /// offers.
    fn offered(
        f: &Formula,
        objective: &[Var],
        options: &MinOnesOptions,
        incumbent: Option<usize>,
        accept: impl Fn(&[Var]) -> bool,
    ) -> (Result<Descent<Vec<Var>>>, Offers) {
        let mut offers = Vec::new();
        let mut stats = SolverStats::default();
        let result = minimize_ones_below(
            f,
            objective,
            options,
            incumbent,
            |t| {
                let ok = accept(t);
                offers.push((t.to_vec(), ok));
                ok.then(|| t.to_vec())
            },
            &mut stats,
        );
        (result, offers)
    }

    /// The offers of the plain search's first solve: up to its first
    /// accepted model.
    fn first_solve(offers: &Offers) -> &[(Vec<Var>, bool)] {
        let end = offers.iter().position(|(_, ok)| *ok).map_or(0, |i| i + 1);
        &offers[..end]
    }

    /// The offers of one probe bounded at `bound`, run alone: a search
    /// whose first solve is that probe and ends there (unsatisfiable or
    /// out of budget).
    fn probe_alone(
        f: &Formula,
        objective: &[Var],
        options: &MinOnesOptions,
        bound: usize,
        accept: impl Fn(&[Var]) -> bool,
    ) -> Offers {
        let bounded = MinOnesOptions {
            upper_bound: Some(bound),
            ..options.clone()
        };
        let (result, offers) = offered(f, objective, &bounded, None, accept);
        assert!(result.is_err(), "the probe at {bound} finds no model");
        offers
    }

    #[test]
    fn a_capped_probe_settles_a_hopeless_incumbent_first() {
        // Any nonempty subset of x1..x6 satisfies the formula, but the
        // theory accepts only all six: the optimum 6 cannot beat the
        // incumbent 2. The unbounded first solve offers small models first
        // and must reject them all before {x1..x6}; the probe at 1 rejects
        // the six singletons and is unsatisfiable.
        let f = Formula::or((1..=6).map(v).collect());
        let objective: Vec<Var> = (1..=6).collect();
        let options = MinOnesOptions::default();
        let accept = |t: &[Var]| t.len() == 6;
        let (result, offers) = offered(&f, &objective, &options, Some(2), accept);
        assert_eq!(result, Ok(Descent::CannotBeat));
        // Unbounded first, the search would offer the first solve's models
        // and then the probe's.
        let (_, plain) = offered(&f, &objective, &options, None, accept);
        let probe = probe_alone(&f, &objective, &options, 1, accept);
        assert_eq!(offers, probe);
        let unbounded_first = first_solve(&plain).len() + probe.len();
        assert!(
            offers.len() < unbounded_first,
            "{} offers, against {unbounded_first} unbounded first",
            offers.len()
        );
    }

    /// The instance of [`a_probe_that_exhausts_its_budget_resumes_the_descent`]:
    /// the first model is {x2..x5}; under the bound 3 the solver offers
    /// more than 12 small models without x6 before {x1, x6}.
    fn big_or_x1_x6() -> (Formula, Vec<Var>, impl Fn(&[Var]) -> bool + Copy) {
        let f = Formula::or(vec![v(1), Formula::and(vec![v(2), v(3), v(4), v(5)])]);
        let objective: Vec<Var> = (1..=13).collect();
        let accept = |t: &[Var]| [2, 3, 4, 5].iter().all(|x| t.contains(x)) || t == [1, 6];
        (f, objective, accept)
    }

    #[test]
    fn a_capped_probe_that_spends_its_cap_changes_no_answer() {
        // 1,200 rejections allowed: the capped probe at 3 may reject 12
        // models, offers 13 and gives up; the first solve, the full probe
        // at 3 and the descent follow as without it.
        let (f, objective, accept) = big_or_x1_x6();
        let options = MinOnesOptions {
            max_theory_rejections: 1_200,
            ..Default::default()
        };
        let (result, offers) = offered(&f, &objective, &options, Some(4), accept);
        let Ok(Descent::Optimum(sol, tag)) = result else {
            panic!("{{x1, x6}} beats the incumbent");
        };
        let (plain, _) = offered(&f, &objective, &options, None, accept);
        let Ok(Descent::Optimum(plain, plain_tag)) = plain else {
            panic!("the plain search finds {{x1, x6}}");
        };
        assert_eq!(sol.true_vars, vec![1, 6]);
        assert_eq!(sol.true_vars, plain.true_vars);
        assert_eq!(tag, plain_tag);
        // The cap was spent on 13 small rejected models; then the first
        // solve's model came.
        assert!(offers[..13].iter().all(|(t, ok)| !ok && t.len() <= 3));
        assert_eq!(offers[13], (vec![2, 3, 4, 5], true));
    }

    #[test]
    fn below_100_rejections_no_capped_probe_runs() {
        // 12 rejections allowed: the cap is 0. The search offers the plain
        // first solve's models, then the probe at 3's (which runs out of
        // budget), then the descent's — exactly the order without a cap.
        let (f, objective, accept) = big_or_x1_x6();
        let options = MinOnesOptions {
            max_theory_rejections: 12,
            ..Default::default()
        };
        let (result, offers) = offered(&f, &objective, &options, Some(4), accept);
        assert!(matches!(result, Ok(Descent::Optimum(..))));
        let (_, plain) = offered(&f, &objective, &options, None, accept);
        let first = first_solve(&plain);
        let mut expected = first.to_vec();
        expected.extend(probe_alone(&f, &objective, &options, 3, accept));
        expected.extend_from_slice(&plain[first.len()..]);
        assert_eq!(offers, expected);
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
