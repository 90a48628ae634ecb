//! Cardinality constraints: CNF encodings of "at most k of these literals
//! are true".
//!
//! The min-ones optimizer bounds the number of retained tuples with an
//! *at-most-k* constraint over the objective variables and searches for the
//! smallest feasible `k`. We use the **sequential counter** encoding
//! (Sinz 2005): `O(n·k)` auxiliary variables and clauses, which is compact
//! for the small optimal witness sizes the paper reports (typically single
//! digits) even when the provenance mentions thousands of tuples.

use crate::cnf::{Cnf, Lit, Var};

/// Add clauses to `cnf` enforcing that at most `k` of `lits` are true.
///
/// `k = 0` forces all literals false; `k >= lits.len()` adds nothing.
pub fn at_most_k(cnf: &mut Cnf, lits: &[Lit], k: usize) {
    let mut next_var = cnf.num_vars;
    at_most_k_with(lits, k, &mut next_var, |clause| {
        cnf.add_clause(clause.to_vec())
    });
    cnf.num_vars = cnf.num_vars.max(next_var);
}

/// The clauses of [`at_most_k`], handed one at a time to `emit`. Register
/// variables are numbered from `*next_var + 1` on, and `*next_var` ends at
/// the last one allocated. The min-ones probes feed these clauses straight
/// into a solver.
pub fn at_most_k_with(lits: &[Lit], k: usize, next_var: &mut Var, mut emit: impl FnMut(&[Lit])) {
    let n = lits.len();
    if k >= n {
        return;
    }
    if k == 0 {
        for &l in lits {
            emit(&[l.negated()]);
        }
        return;
    }
    // s(i, j) (0-based j < k) ⇔ at least j+1 of the first i+1 literals are
    // true; the n·k register variables are allocated row by row.
    let first = *next_var + 1;
    *next_var += (n * k) as Var;
    let s = |i: usize, j: usize| first + (i * k + j) as Var;
    // x1 -> s(0, 0)
    emit(&[lits[0].negated(), Lit::pos(s(0, 0))]);
    // ¬s(0, j) for j in 1..k
    for j in 1..k {
        emit(&[Lit::neg(s(0, j))]);
    }
    for (i, &x) in lits.iter().enumerate().skip(1) {
        // xi -> s(i, 0)
        emit(&[x.negated(), Lit::pos(s(i, 0))]);
        // s(i-1, 0) -> s(i, 0)
        emit(&[Lit::neg(s(i - 1, 0)), Lit::pos(s(i, 0))]);
        for j in 1..k {
            // xi ∧ s(i-1, j-1) -> s(i, j)
            emit(&[x.negated(), Lit::neg(s(i - 1, j - 1)), Lit::pos(s(i, j))]);
            // s(i-1, j) -> s(i, j)
            emit(&[Lit::neg(s(i - 1, j)), Lit::pos(s(i, j))]);
        }
        // xi ∧ s(i-1, k-1) -> ⊥  (would exceed k)
        emit(&[x.negated(), Lit::neg(s(i - 1, k - 1))]);
    }
}

/// Add clauses enforcing that at most `k` of the given *variables* are true.
pub fn at_most_k_vars(cnf: &mut Cnf, vars: &[Var], k: usize) {
    let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
    at_most_k(cnf, &lits, k);
}

/// Add clauses enforcing that at least one of the literals is true.
pub fn at_least_one(cnf: &mut Cnf, lits: &[Lit]) {
    cnf.add_clause(lits.to_vec());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatResult, Solver};

    /// Count, by brute force over the original variables only, whether some
    /// model with exactly `target` true variables exists.
    fn solve_with_bound(n: Var, extra: &[Vec<Lit>], k: usize) -> Option<usize> {
        let mut cnf = Cnf::new(n);
        for c in extra {
            cnf.add_clause(c.clone());
        }
        let vars: Vec<Var> = (1..=n).collect();
        at_most_k_vars(&mut cnf, &vars, k);
        let mut s = Solver::from_cnf(&cnf);
        match s.solve().unwrap() {
            SatResult::Sat(m) => Some(m.count_true(&vars)),
            SatResult::Unsat => None,
        }
    }

    #[test]
    fn bound_zero_forces_all_false() {
        let got = solve_with_bound(4, &[], 0).unwrap();
        assert_eq!(got, 0);
    }

    #[test]
    fn bound_is_respected() {
        // Require x1 ∨ x2, x3 ∨ x4, bound 1 -> impossible? No: {x1,x3} needs 2.
        let clauses = vec![
            vec![Lit::pos(1), Lit::pos(2)],
            vec![Lit::pos(3), Lit::pos(4)],
        ];
        assert!(solve_with_bound(4, &clauses, 1).is_none());
        let got = solve_with_bound(4, &clauses, 2).unwrap();
        assert_eq!(got, 2);
    }

    #[test]
    fn bound_larger_than_n_is_a_noop() {
        let mut cnf = Cnf::new(3);
        at_most_k_vars(&mut cnf, &[1, 2, 3], 5);
        assert!(cnf.is_empty());
    }

    #[test]
    fn exhaustive_check_small() {
        // For every k, every model of the encoding has ≤ k true original vars,
        // and some model attains the maximum allowed when the base formula
        // permits it.
        for k in 0..=4usize {
            let clauses = vec![vec![Lit::pos(1), Lit::pos(2), Lit::pos(3), Lit::pos(4)]];
            match solve_with_bound(4, &clauses, k) {
                Some(got) => assert!(got <= k && got >= 1),
                None => assert_eq!(k, 0),
            }
        }
    }

    #[test]
    fn at_least_one_clause() {
        let mut cnf = Cnf::new(2);
        at_least_one(&mut cnf, &[Lit::pos(1), Lit::pos(2)]);
        at_most_k_vars(&mut cnf, &[1, 2], 1);
        let mut s = Solver::from_cnf(&cnf);
        let m = match s.solve().unwrap() {
            SatResult::Sat(m) => m,
            _ => panic!("satisfiable"),
        };
        assert_eq!(m.count_true(&[1, 2]), 1);
    }
}
