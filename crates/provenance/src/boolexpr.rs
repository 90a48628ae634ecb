//! Boolean how-provenance expressions over tuple-identifier variables.
//!
//! `BoolExpr` is the `Prv(t)` of the paper: a Boolean combination of tuple
//! variables where a variable is true iff the corresponding base tuple is
//! retained in the sub-instance. Light-weight algebraic simplifications are
//! applied on construction (identity/annihilator elements, double negation)
//! so that formulas stay readable and compact without a full minimization.

use ratest_storage::TupleId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A Boolean provenance expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoolExpr {
    /// Constant true (the provenance of a tuple that is always present,
    /// e.g. produced by a constant sub-query).
    True,
    /// Constant false (the provenance of a tuple that can never appear).
    False,
    /// A base tuple variable.
    Var(TupleId),
    /// Conjunction of sub-expressions.
    And(Vec<BoolExpr>),
    /// Disjunction of sub-expressions.
    Or(Vec<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    /// A tuple variable.
    pub fn var(id: TupleId) -> BoolExpr {
        BoolExpr::Var(id)
    }

    /// Smart conjunction: flattens nested `And`s and applies identities.
    pub fn and(parts: Vec<BoolExpr>) -> BoolExpr {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                BoolExpr::True => {}
                BoolExpr::False => return BoolExpr::False,
                BoolExpr::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        flat.dedup();
        match flat.len() {
            0 => BoolExpr::True,
            1 => flat.pop().expect("len checked"),
            _ => BoolExpr::And(flat),
        }
    }

    /// Smart disjunction: flattens nested `Or`s and applies identities.
    pub fn or(parts: Vec<BoolExpr>) -> BoolExpr {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                BoolExpr::False => {}
                BoolExpr::True => return BoolExpr::True,
                BoolExpr::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        flat.dedup();
        match flat.len() {
            0 => BoolExpr::False,
            1 => flat.pop().expect("len checked"),
            _ => BoolExpr::Or(flat),
        }
    }

    /// Binary conjunction convenience.
    pub fn and2(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        // Operands that `and` neither drops nor flattens only dedup.
        let plain =
            |e: &BoolExpr| !matches!(e, BoolExpr::True | BoolExpr::False | BoolExpr::And(_));
        if plain(&a) && plain(&b) {
            return if a == b { a } else { BoolExpr::And(vec![a, b]) };
        }
        BoolExpr::and(vec![a, b])
    }

    /// Binary disjunction convenience.
    pub fn or2(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        let plain = |e: &BoolExpr| !matches!(e, BoolExpr::True | BoolExpr::False | BoolExpr::Or(_));
        if plain(&a) && plain(&b) {
            return if a == b { a } else { BoolExpr::Or(vec![a, b]) };
        }
        BoolExpr::or(vec![a, b])
    }

    /// `*self = or2(*self, other)`, appending in place when `self` is a
    /// disjunction built by [`BoolExpr::or`] (flat, with no two equal
    /// neighbours) and `other` is a plain operand: merging `k` derivations
    /// one at a time then costs `O(k)`, not `O(k²)`.
    pub fn or_assign(&mut self, other: BoolExpr) {
        if let BoolExpr::Or(parts) = self {
            if !matches!(other, BoolExpr::True | BoolExpr::False | BoolExpr::Or(_)) {
                if parts.last() != Some(&other) {
                    parts.push(other);
                }
                return;
            }
        }
        let existing = std::mem::replace(self, BoolExpr::False);
        *self = BoolExpr::or2(existing, other);
    }

    /// Smart negation: constant folding and double-negation elimination.
    pub fn negate(self) -> BoolExpr {
        match self {
            BoolExpr::True => BoolExpr::False,
            BoolExpr::False => BoolExpr::True,
            BoolExpr::Not(inner) => *inner,
            other => BoolExpr::Not(Box::new(other)),
        }
    }

    /// Whether the expression is the constant `false`.
    pub fn is_false(&self) -> bool {
        matches!(self, BoolExpr::False)
    }

    /// Whether the expression is the constant `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, BoolExpr::True)
    }

    /// The set of tuple variables mentioned.
    pub fn variables(&self) -> BTreeSet<TupleId> {
        let mut out = BTreeSet::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut BTreeSet<TupleId>) {
        match self {
            BoolExpr::Var(id) => {
                out.insert(*id);
            }
            BoolExpr::True | BoolExpr::False => {}
            BoolExpr::And(parts) | BoolExpr::Or(parts) => {
                for p in parts {
                    p.collect_variables(out);
                }
            }
            BoolExpr::Not(inner) => inner.collect_variables(out),
        }
    }

    /// Evaluate under a model: `present(id)` tells whether the tuple is in
    /// the sub-instance.
    pub fn eval<F: Fn(TupleId) -> bool>(&self, present: &F) -> bool {
        match self {
            BoolExpr::True => true,
            BoolExpr::False => false,
            BoolExpr::Var(id) => present(*id),
            BoolExpr::And(parts) => parts.iter().all(|p| p.eval(present)),
            BoolExpr::Or(parts) => parts.iter().any(|p| p.eval(present)),
            BoolExpr::Not(inner) => !inner.eval(present),
        }
    }

    /// Evaluate under a set of retained tuples.
    pub fn eval_set(&self, retained: &BTreeSet<TupleId>) -> bool {
        self.eval(&|id| retained.contains(&id))
    }

    /// Number of nodes in the expression tree (a rough formula-size measure,
    /// reported by the experiment harness).
    pub fn size(&self) -> usize {
        match self {
            BoolExpr::True | BoolExpr::False | BoolExpr::Var(_) => 1,
            BoolExpr::And(parts) | BoolExpr::Or(parts) => {
                1 + parts.iter().map(BoolExpr::size).sum::<usize>()
            }
            BoolExpr::Not(inner) => 1 + inner.size(),
        }
    }

    /// Whether the expression is monotone (negation-free). Monotone
    /// provenance (SPJU queries) admits the poly-time minimal-witness
    /// algorithm of Theorem 6.
    pub fn is_monotone(&self) -> bool {
        match self {
            BoolExpr::Not(_) => false,
            BoolExpr::And(parts) | BoolExpr::Or(parts) => parts.iter().all(BoolExpr::is_monotone),
            _ => true,
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::True => write!(f, "⊤"),
            BoolExpr::False => write!(f, "⊥"),
            BoolExpr::Var(id) => write!(f, "{id}"),
            BoolExpr::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " · ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Not(inner) => write!(f, "¬{inner}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(row: u32) -> TupleId {
        TupleId::new(0, row)
    }

    #[test]
    fn smart_constructors_simplify() {
        let a = BoolExpr::var(t(1));
        let b = BoolExpr::var(t(2));
        assert_eq!(
            BoolExpr::and(vec![BoolExpr::True, a.clone()]),
            BoolExpr::Var(t(1))
        );
        assert_eq!(
            BoolExpr::and(vec![BoolExpr::False, a.clone()]),
            BoolExpr::False
        );
        assert_eq!(
            BoolExpr::or(vec![BoolExpr::False, b.clone()]),
            BoolExpr::Var(t(2))
        );
        assert_eq!(
            BoolExpr::or(vec![BoolExpr::True, b.clone()]),
            BoolExpr::True
        );
        assert_eq!(BoolExpr::and(vec![]), BoolExpr::True);
        assert_eq!(BoolExpr::or(vec![]), BoolExpr::False);
        // Flattening.
        let nested = BoolExpr::and2(a.clone(), BoolExpr::and2(b.clone(), BoolExpr::var(t(3))));
        assert_eq!(nested.variables().len(), 3);
        match nested {
            BoolExpr::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn double_negation_and_constants() {
        let a = BoolExpr::var(t(1));
        assert_eq!(a.clone().negate().negate(), a);
        assert_eq!(BoolExpr::True.negate(), BoolExpr::False);
        assert_eq!(BoolExpr::False.negate(), BoolExpr::True);
    }

    #[test]
    fn evaluation_matches_semantics() {
        // Prv(r2) for Q2-Q1 of Example 2.1 is t1·t4·t5 (after simplification).
        let prv = BoolExpr::and(vec![
            BoolExpr::var(t(1)),
            BoolExpr::or2(BoolExpr::var(t(4)), BoolExpr::var(t(5))),
            BoolExpr::and(vec![
                BoolExpr::var(t(1)),
                BoolExpr::var(t(4)),
                BoolExpr::var(t(5)),
            ])
            .negate()
            .negate(),
        ]);
        let all: BTreeSet<TupleId> = [t(1), t(4), t(5)].into_iter().collect();
        assert!(prv.eval_set(&all));
        let partial: BTreeSet<TupleId> = [t(1), t(4)].into_iter().collect();
        assert!(!prv.eval_set(&partial));
    }

    #[test]
    fn difference_provenance_is_not_monotone() {
        let monotone = BoolExpr::and2(BoolExpr::var(t(1)), BoolExpr::var(t(2)));
        assert!(monotone.is_monotone());
        let diff = BoolExpr::and2(BoolExpr::var(t(1)), BoolExpr::var(t(2)).negate());
        assert!(!diff.is_monotone());
    }

    #[test]
    fn size_and_display() {
        let e = BoolExpr::and2(
            BoolExpr::var(t(1)),
            BoolExpr::or2(BoolExpr::var(t(4)), BoolExpr::var(t(5))),
        );
        assert_eq!(e.size(), 5);
        let s = e.to_string();
        assert!(s.contains('·'));
        assert!(s.contains('+'));
        assert!(BoolExpr::True.to_string().contains('⊤'));
    }

    #[test]
    fn duplicate_conjuncts_are_removed() {
        let a = BoolExpr::var(t(1));
        let e = BoolExpr::and(vec![a.clone(), a.clone()]);
        assert_eq!(e, a);
    }
}
