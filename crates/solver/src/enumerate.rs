//! Model enumeration with blocking clauses — the `Naive-k` baseline of the
//! paper's Figure 5 and of Algorithm 1 (`Smallest-Witness-Basic`).
//!
//! The solver returns *some* model; to approximate the smallest witness the
//! basic algorithm repeatedly blocks the previous model and asks for another
//! one, keeping the best seen. Unlike the optimizer in [`crate::minones`],
//! this offers no optimality guarantee — which is exactly the contrast the
//! paper's experiment highlights.

use crate::cnf::Lit;
use crate::error::{Result, SolverError};
use crate::formula::Formula;
use crate::sat::{SatResult, Solver};
use crate::stats::SolverStats;
use crate::Var;

/// Result of a bounded model enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumerationResult {
    /// The best (fewest-true-variables) model seen, as its true objective
    /// variables.
    pub best_true_vars: Vec<Var>,
    /// Number of models enumerated.
    pub models_enumerated: usize,
    /// Whether the enumeration exhausted all models (as opposed to stopping
    /// at the budget Δ).
    pub exhausted: bool,
    /// Solver statistics.
    pub stats: SolverStats,
}

/// Enumerate up to `max_models` models of `formula`, tracking the one with
/// the fewest true variables among `objective` (Algorithm 1 with budget Δ).
pub fn enumerate_best(
    formula: &Formula,
    objective: &[Var],
    max_models: usize,
) -> Result<EnumerationResult> {
    let num_vars = objective
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(formula.max_var());
    let cnf = formula.to_cnf(num_vars);
    let mut solver = Solver::from_cnf(&cnf);
    let mut best: Option<Vec<Var>> = None;
    let mut count = 0usize;
    let mut exhausted = false;

    while count < max_models {
        match solver.solve()? {
            SatResult::Unsat => {
                exhausted = true;
                break;
            }
            SatResult::Sat(model) => {
                count += 1;
                let true_vars: Vec<Var> = objective
                    .iter()
                    .copied()
                    .filter(|&v| model.value(v))
                    .collect();
                let better = match &best {
                    None => true,
                    Some(b) => true_vars.len() < b.len(),
                };
                if better {
                    best = Some(true_vars);
                }
                // Block this model (projected onto the objective variables so
                // that models differing only in auxiliary variables are not
                // enumerated repeatedly).
                let blocking: Vec<Lit> = objective
                    .iter()
                    .map(|&v| {
                        if model.value(v) {
                            Lit::neg(v)
                        } else {
                            Lit::pos(v)
                        }
                    })
                    .collect();
                if blocking.is_empty() || !solver.add_clause(blocking) {
                    exhausted = true;
                    break;
                }
            }
        }
    }

    match best {
        None => Err(SolverError::Unsatisfiable),
        Some(best_true_vars) => Ok(EnumerationResult {
            best_true_vars,
            models_enumerated: count,
            exhausted,
            stats: solver.stats,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Formula {
        Formula::var(i)
    }

    #[test]
    fn enumeration_finds_some_model_and_improves_with_budget() {
        // (x1 ∨ x2) ∧ (x2 ∨ x3): unique optimum {x2} among 5 models.
        let f = Formula::and(vec![
            Formula::or(vec![v(1), v(2)]),
            Formula::or(vec![v(2), v(3)]),
        ]);
        let r1 = enumerate_best(&f, &[1, 2, 3], 1).unwrap();
        assert_eq!(r1.models_enumerated, 1);
        let r_all = enumerate_best(&f, &[1, 2, 3], 128).unwrap();
        assert!(r_all.exhausted);
        assert_eq!(r_all.best_true_vars, vec![2]);
        assert!(
            r_all.models_enumerated >= 4,
            "five satisfying projections exist"
        );
        assert!(r1.best_true_vars.len() >= r_all.best_true_vars.len());
    }

    #[test]
    fn unsatisfiable_formula() {
        let f = Formula::and(vec![v(1), Formula::not(v(1))]);
        assert_eq!(
            enumerate_best(&f, &[1], 16),
            Err(SolverError::Unsatisfiable)
        );
    }

    #[test]
    fn budget_of_zero_is_an_error() {
        let f = v(1);
        assert!(enumerate_best(&f, &[1], 0).is_err());
    }

    #[test]
    fn enumeration_with_empty_objective_terminates() {
        let f = Formula::or(vec![v(1), v(2)]);
        let r = enumerate_best(&f, &[], 8).unwrap();
        assert_eq!(r.best_true_vars.len(), 0);
        assert!(r.exhausted);
    }
}
