//! A Boolean formula AST and its Tseitin transformation to CNF.
//!
//! The RATest core crate translates how-provenance expressions (over tuple
//! identifiers) into [`Formula`]s over dense variable indices, then lowers
//! them to CNF here. Tseitin's encoding keeps the clause count linear in the
//! formula size, which matters because difference-heavy student queries
//! produce deeply nested negations that would explode under naive
//! distribution.

use crate::cnf::{Cnf, Lit, Var};
use serde::{Deserialize, Serialize};

/// A Boolean formula over variables numbered from 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Formula {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// A variable.
    Var(Var),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// A variable.
    pub fn var(v: Var) -> Formula {
        Formula::Var(v)
    }

    /// Negation with double-negation elimination.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Conjunction with constant folding and flattening.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.pop().expect("len checked"),
            _ => Formula::And(flat),
        }
    }

    /// Disjunction with constant folding and flattening.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.pop().expect("len checked"),
            _ => Formula::Or(flat),
        }
    }

    /// Implication `a ⇒ b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::or(vec![Formula::not(a), b])
    }

    /// Exclusive or.
    pub fn xor(a: Formula, b: Formula) -> Formula {
        Formula::or(vec![
            Formula::and(vec![a.clone(), Formula::not(b.clone())]),
            Formula::and(vec![Formula::not(a), b]),
        ])
    }

    /// The highest variable index mentioned (0 when the formula is constant).
    pub fn max_var(&self) -> Var {
        match self {
            Formula::True | Formula::False => 0,
            Formula::Var(v) => *v,
            Formula::Not(f) => f.max_var(),
            Formula::And(parts) | Formula::Or(parts) => {
                parts.iter().map(Formula::max_var).max().unwrap_or(0)
            }
        }
    }

    /// Evaluate under a full assignment (`assignment[var]`, 1-based).
    pub fn eval(&self, assignment: &[bool]) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Var(v) => assignment[*v as usize],
            Formula::Not(f) => !f.eval(assignment),
            Formula::And(parts) => parts.iter().all(|p| p.eval(assignment)),
            Formula::Or(parts) => parts.iter().any(|p| p.eval(assignment)),
        }
    }

    /// Number of nodes in the formula tree.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Var(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(parts) | Formula::Or(parts) => {
                1 + parts.iter().map(Formula::size).sum::<usize>()
            }
        }
    }

    /// Tseitin-transform the formula into an equisatisfiable CNF.
    ///
    /// Original variables keep their indices; auxiliary variables are added
    /// above `max(original, num_original_vars)`. The returned CNF asserts the
    /// root. The transformation is *polarity-optimised* (Plaisted–Greenbaum):
    /// only the implications required by each sub-formula's polarity are
    /// emitted, roughly halving the clause count.
    pub fn to_cnf(&self, num_original_vars: Var) -> Cnf {
        let mut cnf = Cnf::new(num_original_vars.max(self.max_var()));
        match self {
            Formula::True => {}
            Formula::False => {
                // Unsatisfiable: assert an empty clause.
                cnf.add_clause(vec![]);
            }
            _ => {
                let root = encode(self, &mut cnf, true);
                cnf.add_unit(root);
            }
        }
        cnf
    }
}

/// Encode `f`, returning a literal equivalent (in the given polarity) to `f`.
fn encode(f: &Formula, cnf: &mut Cnf, positive: bool) -> Lit {
    match f {
        Formula::True => {
            let v = cnf.fresh_var();
            cnf.add_unit(Lit::pos(v));
            Lit::pos(v)
        }
        Formula::False => {
            let v = cnf.fresh_var();
            cnf.add_unit(Lit::neg(v));
            Lit::pos(v)
        }
        Formula::Var(v) => Lit::pos(*v),
        Formula::Not(inner) => encode(inner, cnf, !positive).negated(),
        Formula::And(parts) => {
            let lits: Vec<Lit> = parts.iter().map(|p| encode(p, cnf, positive)).collect();
            let out = Lit::pos(cnf.fresh_var());
            if positive {
                // out ⇒ each part
                for l in &lits {
                    cnf.add_clause(vec![out.negated(), *l]);
                }
            }
            // parts ⇒ out (needed when `out` occurs negatively)
            let mut clause: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
            clause.push(out);
            cnf.add_clause(clause);
            out
        }
        Formula::Or(parts) => {
            let lits: Vec<Lit> = parts.iter().map(|p| encode(p, cnf, positive)).collect();
            let out = Lit::pos(cnf.fresh_var());
            if positive {
                // out ⇒ (l1 ∨ ... ∨ ln)
                let mut clause = vec![out.negated()];
                clause.extend(lits.iter().copied());
                cnf.add_clause(clause);
            }
            // each part ⇒ out
            for l in &lits {
                cnf.add_clause(vec![l.negated(), out]);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatResult, Solver};

    /// Brute-force satisfiability of a formula restricted to its original
    /// variables — the oracle the Tseitin encoding is checked against.
    fn brute_force_models(f: &Formula, n: Var) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        for mask in 0..(1u32 << n) {
            let mut assignment = vec![false; n as usize + 1];
            for v in 1..=n {
                assignment[v as usize] = mask & (1 << (v - 1)) != 0;
            }
            if f.eval(&assignment) {
                out.push(assignment);
            }
        }
        out
    }

    fn sat_agrees_with_bruteforce(f: &Formula, n: Var) {
        let cnf = f.to_cnf(n);
        let mut solver = Solver::from_cnf(&cnf);
        let brute = brute_force_models(f, n);
        match solver.solve().unwrap() {
            SatResult::Sat(model) => {
                assert!(
                    !brute.is_empty(),
                    "solver found a model but the formula is unsatisfiable: {f:?}"
                );
                // The model restricted to original vars must satisfy f.
                let mut assignment = vec![false; n as usize + 1];
                for v in 1..=n {
                    assignment[v as usize] = model.value(v);
                }
                assert!(f.eval(&assignment), "Tseitin model does not satisfy {f:?}");
            }
            SatResult::Unsat => {
                assert!(
                    brute.is_empty(),
                    "solver reported UNSAT but {f:?} has models"
                );
            }
        }
    }

    #[test]
    fn constructors_fold_constants() {
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(
            Formula::and(vec![Formula::True, Formula::var(1)]),
            Formula::var(1)
        );
        assert_eq!(
            Formula::or(vec![Formula::False, Formula::var(1)]),
            Formula::var(1)
        );
        assert_eq!(
            Formula::and(vec![Formula::False, Formula::var(1)]),
            Formula::False
        );
        assert_eq!(Formula::not(Formula::not(Formula::var(2))), Formula::var(2));
        assert_eq!(Formula::not(Formula::True), Formula::False);
    }

    #[test]
    fn implication_and_xor() {
        let imp = Formula::implies(Formula::var(1), Formula::var(2));
        assert!(imp.eval(&[false, false, false]));
        assert!(imp.eval(&[false, false, true]));
        assert!(!imp.eval(&[false, true, false]));
        let x = Formula::xor(Formula::var(1), Formula::var(2));
        assert!(!x.eval(&[false, false, false]));
        assert!(x.eval(&[false, true, false]));
        assert!(x.eval(&[false, false, true]));
        assert!(!x.eval(&[false, true, true]));
    }

    #[test]
    fn tseitin_preserves_satisfiability_on_small_formulas() {
        let formulas = vec![
            Formula::and(vec![Formula::var(1), Formula::not(Formula::var(1))]),
            Formula::or(vec![Formula::var(1), Formula::not(Formula::var(1))]),
            Formula::and(vec![
                Formula::or(vec![Formula::var(1), Formula::var(2)]),
                Formula::or(vec![Formula::not(Formula::var(1)), Formula::var(3)]),
                Formula::not(Formula::var(3)),
            ]),
            Formula::xor(
                Formula::and(vec![Formula::var(1), Formula::var(2)]),
                Formula::or(vec![Formula::var(3), Formula::var(4)]),
            ),
            Formula::not(Formula::and(vec![
                Formula::or(vec![Formula::var(1), Formula::var(2)]),
                Formula::or(vec![Formula::var(3), Formula::var(4)]),
            ])),
        ];
        for f in formulas {
            let n = f.max_var();
            sat_agrees_with_bruteforce(&f, n);
        }
    }

    #[test]
    fn constant_formulas_encode_correctly() {
        let cnf = Formula::True.to_cnf(0);
        assert!(cnf.is_empty());
        let cnf = Formula::False.to_cnf(0);
        let mut solver = Solver::from_cnf(&cnf);
        assert!(matches!(solver.solve().unwrap(), SatResult::Unsat));
    }

    #[test]
    fn size_and_max_var() {
        let f = Formula::and(vec![Formula::var(3), Formula::not(Formula::var(7))]);
        assert_eq!(f.max_var(), 7);
        assert_eq!(f.size(), 4);
    }
}
