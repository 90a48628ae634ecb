//! DNF expansion of monotone provenance.
//!
//! For SPJU queries the provenance of an output tuple is monotone (no
//! negation) and, for bounded-size queries, can be expanded into a DNF with
//! polynomially many minterms (Proposition A.1). The smallest witness is then
//! simply the minterm with the fewest literals (Theorem 6). This module
//! implements that expansion with an explicit size budget so the caller can
//! fall back to the solver when the formula is too large.

use crate::boolexpr::BoolExpr;
use crate::error::{ProvenanceError, Result};
use ratest_storage::TupleId;
use std::collections::BTreeSet;

/// One minterm: a conjunction of tuple variables.
pub type Minterm = BTreeSet<TupleId>;

/// A monotone formula in disjunctive normal form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dnf {
    minterms: Vec<Minterm>,
}

impl Dnf {
    /// The DNF with no minterms (equivalent to `false`).
    pub fn none() -> Self {
        Dnf::default()
    }

    /// The DNF containing the empty minterm (equivalent to `true`).
    pub fn tautology() -> Self {
        Dnf {
            minterms: vec![BTreeSet::new()],
        }
    }

    /// The minterms.
    pub fn minterms(&self) -> &[Minterm] {
        &self.minterms
    }

    /// Number of minterms.
    pub fn len(&self) -> usize {
        self.minterms.len()
    }

    /// Whether there are no minterms (the formula is unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.minterms.is_empty()
    }

    /// The minterm with the fewest literals — the smallest witness for a
    /// monotone provenance expression (Theorem 6).
    pub fn smallest_minterm(&self) -> Option<&Minterm> {
        self.minterms.iter().min_by_key(|m| m.len())
    }

    /// Keep only *minimal* minterms: drop any minterm that is a superset of
    /// another (those can never be smallest witnesses and correspond to
    /// non-minimal witnesses in the sense of Buneman et al.).
    pub fn minimize(&mut self) {
        let mut kept: Vec<Minterm> = Vec::with_capacity(self.minterms.len());
        // Sort by size so subsets are seen before supersets.
        let mut sorted = self.minterms.clone();
        sorted.sort_by_key(|m| m.len());
        for m in sorted {
            if !kept.iter().any(|k| k.is_subset(&m)) {
                kept.push(m);
            }
        }
        self.minterms = kept;
    }

    /// Evaluate the DNF under a set of retained tuples.
    pub fn eval_set(&self, retained: &BTreeSet<TupleId>) -> bool {
        self.minterms.iter().any(|m| m.is_subset(retained))
    }

    /// Expand a **monotone** provenance expression into DNF, aborting with
    /// [`ProvenanceError::DnfTooLarge`] once more than `limit` minterms would
    /// be produced.
    pub fn from_monotone(expr: &BoolExpr, limit: usize) -> Result<Dnf> {
        let mut dnf = Dnf::from_monotone_within(expr, limit, usize::MAX)?;
        dnf.minimize();
        Ok(dnf)
    }

    /// [`Dnf::from_monotone`] keeping only the minterms of at most
    /// `max_len` tuples (the only ones a witness of at most `max_len`
    /// tuples can contain), without dropping non-minimal ones. Longer
    /// minterms are dropped as they are built, so they never count against
    /// `limit`.
    pub fn from_monotone_within(expr: &BoolExpr, limit: usize, max_len: usize) -> Result<Dnf> {
        match expr {
            BoolExpr::True => Ok(Dnf::tautology()),
            BoolExpr::False => Ok(Dnf::none()),
            BoolExpr::Var(id) if max_len > 0 => Ok(Dnf {
                minterms: vec![std::iter::once(*id).collect()],
            }),
            BoolExpr::Var(_) => Ok(Dnf::none()),
            BoolExpr::Or(parts) => {
                let mut out = Dnf::none();
                for p in parts {
                    let sub = Dnf::from_monotone_within(p, limit, max_len)?;
                    out.minterms.extend(sub.minterms);
                    if out.minterms.len() > limit {
                        return Err(ProvenanceError::DnfTooLarge { limit });
                    }
                }
                Ok(out)
            }
            BoolExpr::And(parts) => {
                let mut acc = Dnf::tautology();
                for p in parts {
                    acc = acc.and(
                        &Dnf::from_monotone_within(p, limit, max_len)?,
                        limit,
                        max_len,
                    )?;
                    if acc.is_empty() {
                        break;
                    }
                }
                Ok(acc)
            }
            BoolExpr::Not(_) => Err(ProvenanceError::UnsupportedAggregateShape(
                "DNF expansion requires a monotone (negation-free) formula".into(),
            )),
        }
    }

    /// The conjunction of two DNFs: the union of every pair of minterms,
    /// keeping those of at most `max_len` tuples, or
    /// [`ProvenanceError::DnfTooLarge`] past `limit` of them.
    pub fn and(&self, other: &Dnf, limit: usize, max_len: usize) -> Result<Dnf> {
        let mut minterms = Vec::new();
        for a in &self.minterms {
            for b in &other.minterms {
                let mut merged = a.clone();
                merged.extend(b.iter().copied());
                if merged.len() > max_len {
                    continue;
                }
                minterms.push(merged);
                if minterms.len() > limit {
                    return Err(ProvenanceError::DnfTooLarge { limit });
                }
            }
        }
        Ok(Dnf { minterms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(row: u32) -> TupleId {
        TupleId::new(0, row)
    }
    fn v(row: u32) -> BoolExpr {
        BoolExpr::var(t(row))
    }

    #[test]
    fn expansion_of_simple_formulas() {
        // a(b + c) = ab + ac
        let e = BoolExpr::and2(v(1), BoolExpr::or2(v(2), v(3)));
        let dnf = Dnf::from_monotone(&e, 100).unwrap();
        assert_eq!(dnf.len(), 2);
        assert!(dnf.minterms().iter().all(|m| m.len() == 2));
        assert_eq!(dnf.smallest_minterm().unwrap().len(), 2);
    }

    #[test]
    fn minimization_drops_supersets() {
        // a + ab  =>  a
        let e = BoolExpr::or2(v(1), BoolExpr::and2(v(1), v(2)));
        let dnf = Dnf::from_monotone(&e, 100).unwrap();
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf.smallest_minterm().unwrap().len(), 1);
    }

    #[test]
    fn constants() {
        assert!(Dnf::from_monotone(&BoolExpr::False, 10).unwrap().is_empty());
        let taut = Dnf::from_monotone(&BoolExpr::True, 10).unwrap();
        assert_eq!(taut.smallest_minterm().unwrap().len(), 0);
        // false conjunct annihilates
        let e = BoolExpr::And(vec![v(1), BoolExpr::False]);
        assert!(Dnf::from_monotone(&e, 10).unwrap().is_empty());
    }

    #[test]
    fn negation_is_rejected() {
        let e = v(1).negate();
        assert!(Dnf::from_monotone(&e, 10).is_err());
    }

    #[test]
    fn size_budget_is_enforced() {
        // (a1 + a2)(a3 + a4)(a5 + a6) ... grows exponentially.
        let mut parts = Vec::new();
        for i in 0..12 {
            parts.push(BoolExpr::or2(v(2 * i), v(2 * i + 1)));
        }
        let e = BoolExpr::and(parts);
        assert!(matches!(
            Dnf::from_monotone(&e, 1000),
            Err(ProvenanceError::DnfTooLarge { .. })
        ));
        assert!(Dnf::from_monotone(&e, 10_000).is_ok());
    }

    #[test]
    fn evaluation_matches_boolexpr() {
        let e = BoolExpr::or2(BoolExpr::and2(v(1), v(2)), v(3));
        let dnf = Dnf::from_monotone(&e, 100).unwrap();
        for sample in [vec![1, 2], vec![3], vec![1], vec![2, 3]] {
            let set: BTreeSet<TupleId> = sample.iter().map(|&r| t(r)).collect();
            assert_eq!(dnf.eval_set(&set), e.eval_set(&set));
        }
    }
}
