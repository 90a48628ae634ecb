//! Smallest foreign-key-closed minterms of provenance formulas.
//!
//! For SPJU queries the provenance of an output tuple is monotone and, for
//! bounded-size queries, expands into a DNF with polynomially many minterms
//! (Proposition A.1); its smallest witness is a smallest minterm
//! (Theorem 6). A difference at the top of the query (SPJUD\*, Theorem 7)
//! gives provenance of the shape `P ∧ ¬N₁ ∧ … ∧ ¬Nₘ` with every part
//! monotone, and a nested difference a disjunction of a few such
//! conjunctions once each negation is pushed down to the largest monotone
//! subformulas beneath it.
//!
//! [`ClosedMinterms::smallest`] returns the smallest sub-instance that is
//! closed under foreign keys and satisfies such a formula. Every model of a
//! conjunction contains a minterm of `P` and, being closed, that minterm's
//! closure; the closure satisfies `P` and, as a subset of a model that
//! falsifies every monotone `Nᵢ`, falsifies them too. So the minimum is the
//! smallest closure of a `P`-minterm that falsifies every `Nᵢ`.
//!
//! Closure distributes over union, so each variable expands to its own
//! (cached) closure and every product of closures is already closed.
//! Minterms are sorted id lists merged pairwise, and a minterm larger than
//! the caller's limit is dropped while it is built.

use crate::boolexpr::BoolExpr;
use ratest_storage::hash::RowHashBuilder;
use ratest_storage::{ForeignKeyIndex, TupleId, TupleSelection};
use std::collections::HashMap;
use std::fmt;

/// How far [`ClosedMinterms::smallest`] expands a formula before it
/// declines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpansionCaps {
    /// The most conjunctions `P ∧ ¬N₁ ∧ …` the formula may split into.
    pub branches: usize,
    /// The most minterms one conjunction's `P` may expand into (minterms
    /// over the limit are not counted).
    pub minterms: usize,
}

/// A formula [`ClosedMinterms::smallest`] leaves to the solver: its
/// negations do not split into [`ExpansionCaps::branches`] conjunctions of
/// monotone parts, or a positive part has more than
/// [`ExpansionCaps::minterms`] minterms within the limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Declined;

impl fmt::Display for Declined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the provenance exceeds the minterm expansion's caps")
    }
}

/// The smallest-closed-minterm engine of one instance: its foreign keys and
/// the closure of every variable expanded so far.
#[derive(Debug)]
pub struct ClosedMinterms<'a> {
    foreign_keys: &'a ForeignKeyIndex,
    closures: HashMap<TupleId, Box<[TupleId]>, RowHashBuilder>,
}

impl<'a> ClosedMinterms<'a> {
    /// An engine over the instance whose foreign keys are `foreign_keys`.
    pub fn new(foreign_keys: &'a ForeignKeyIndex) -> Self {
        ClosedMinterms {
            foreign_keys,
            closures: HashMap::default(),
        }
    }

    /// The smallest sub-instance of at most `limit` tuples that is closed
    /// under foreign keys and satisfies `prv`, ties broken to the
    /// lexicographically smallest id list; `Ok(None)` when no such
    /// sub-instance exists. [`Declined`] when `prv` exceeds `caps`.
    pub fn smallest(
        &mut self,
        prv: &BoolExpr,
        mut limit: usize,
        caps: ExpansionCaps,
    ) -> Result<Option<TupleSelection>, Declined> {
        let mut best: Option<Vec<TupleId>> = None;
        for branch in conjunctions(prv, false, caps.branches).ok_or(Declined)? {
            let mut minterms = Minterms::tautology();
            for part in branch.positive {
                minterms = self.and(minterms, part, limit, caps.minterms)?;
            }
            for minterm in minterms.iter() {
                let better = match &best {
                    Some(b) => (minterm.len(), minterm) < (b.len(), b.as_slice()),
                    None => true,
                };
                let present = |id| minterm.binary_search(&id).is_ok();
                if better && branch.negated.iter().all(|n| !n.eval(&present)) {
                    best = Some(minterm.to_vec());
                }
            }
            // Later branches only matter with a minterm at most this large.
            if let Some(b) = &best {
                limit = b.len();
            }
        }
        Ok(best.map(TupleSelection::from_ids))
    }

    /// The minterms of `acc ∧ expr` within `limit`, for a monotone `expr`.
    fn and(
        &mut self,
        acc: Minterms,
        expr: &BoolExpr,
        limit: usize,
        cap: usize,
    ) -> Result<Minterms, Declined> {
        match expr {
            BoolExpr::True => Ok(acc),
            BoolExpr::Var(id) => {
                let closure = self.closure(*id);
                let mut out = Minterms::default();
                for m in acc.iter() {
                    out.push_merged(m, closure, limit);
                }
                Ok(out)
            }
            BoolExpr::And(parts) => parts
                .iter()
                .try_fold(acc, |acc, part| self.and(acc, part, limit, cap)),
            BoolExpr::False | BoolExpr::Or(_) | BoolExpr::Not(_) => {
                let right = self.expand(expr, limit, cap)?;
                let mut out = Minterms::default();
                for a in acc.iter() {
                    for b in right.iter() {
                        out.push_merged(a, b, limit);
                    }
                    if out.len() > cap {
                        return Err(Declined);
                    }
                }
                Ok(out)
            }
        }
    }

    /// The minterms of a monotone `expr` within `limit`.
    fn expand(&mut self, expr: &BoolExpr, limit: usize, cap: usize) -> Result<Minterms, Declined> {
        match expr {
            BoolExpr::False => Ok(Minterms::default()),
            BoolExpr::Or(parts) => {
                let mut out = Minterms::default();
                for part in parts {
                    let sub = self.expand(part, limit, cap)?;
                    out.extend(&sub);
                    if out.len() > cap {
                        return Err(Declined);
                    }
                }
                Ok(out)
            }
            BoolExpr::Not(_) => Err(Declined),
            BoolExpr::True | BoolExpr::Var(_) | BoolExpr::And(_) => {
                self.and(Minterms::tautology(), expr, limit, cap)
            }
        }
    }

    /// `id` and every tuple it references through a chain of foreign keys,
    /// sorted.
    fn closure(&mut self, id: TupleId) -> &[TupleId] {
        let foreign_keys = self.foreign_keys;
        self.closures.entry(id).or_insert_with(|| {
            let mut closure = TupleSelection::from_ids([id]);
            closure.close_under(foreign_keys);
            closure.iter().collect()
        })
    }
}

/// A list of minterms, each a sorted id list, stored end to end.
#[derive(Debug, Default)]
struct Minterms {
    ids: Vec<TupleId>,
    ends: Vec<usize>,
}

impl Minterms {
    /// The single empty minterm (`true`).
    fn tautology() -> Self {
        Minterms {
            ids: Vec::new(),
            ends: vec![0],
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[TupleId]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.ids[start..end])
    }

    fn extend(&mut self, other: &Minterms) {
        let offset = self.ids.len();
        self.ids.extend_from_slice(&other.ids);
        self.ends.extend(other.ends.iter().map(|end| end + offset));
    }

    /// Append the union of sorted lists `a` and `b`, unless it has more
    /// than `limit` ids.
    fn push_merged(&mut self, a: &[TupleId], b: &[TupleId], limit: usize) {
        let start = self.ids.len();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            if self.ids.len() - start == limit {
                self.ids.truncate(start);
                return;
            }
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (_, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!("loop condition"),
            };
            self.ids.push(next);
        }
        self.ends.push(self.ids.len());
    }
}

/// One conjunction `P₁ ∧ … ∧ ¬N₁ ∧ …` of monotone subformulas.
#[derive(Clone, Default)]
struct Conjunction<'a> {
    positive: Vec<&'a BoolExpr>,
    negated: Vec<&'a BoolExpr>,
}

/// `expr` (or `¬expr`, when `negate`) as a disjunction of at most `cap`
/// conjunctions of monotone subformulas and their negations, or `None`
/// when that takes more.
fn conjunctions(expr: &BoolExpr, negate: bool, cap: usize) -> Option<Vec<Conjunction<'_>>> {
    if expr.is_monotone() {
        let mut single = Conjunction::default();
        if negate {
            single.negated.push(expr);
        } else {
            single.positive.push(expr);
        }
        return Some(vec![single]);
    }
    match (expr, negate) {
        (BoolExpr::Not(inner), _) => conjunctions(inner, !negate, cap),
        // A conjunction: every combination of one branch per part.
        (BoolExpr::And(parts), false) | (BoolExpr::Or(parts), true) => {
            let mut product = vec![Conjunction::default()];
            for part in parts {
                let branches = conjunctions(part, negate, cap)?;
                if branches.len() * product.len() > cap {
                    return None;
                }
                product = product
                    .iter()
                    .flat_map(|left| {
                        branches.iter().map(move |right| {
                            let mut both = left.clone();
                            both.positive.extend(&right.positive);
                            both.negated.extend(&right.negated);
                            both
                        })
                    })
                    .collect();
            }
            Some(product)
        }
        // A disjunction: the branches of every part.
        (BoolExpr::Or(parts), false) | (BoolExpr::And(parts), true) => {
            let mut union = Vec::new();
            for part in parts {
                union.extend(conjunctions(part, negate, cap)?);
                if union.len() > cap {
                    return None;
                }
            }
            Some(union)
        }
        // Constants and variables are monotone.
        (BoolExpr::True | BoolExpr::False | BoolExpr::Var(_), _) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_storage::{DataType, Database, Relation, Schema, Value};

    const CAPS: ExpansionCaps = ExpansionCaps {
        branches: 16,
        minterms: 1_000,
    };

    fn t(row: u32) -> TupleId {
        TupleId::new(0, row)
    }
    fn v(row: u32) -> BoolExpr {
        BoolExpr::var(t(row))
    }
    fn ids(selection: &TupleSelection) -> Vec<TupleId> {
        selection.iter().collect()
    }

    /// The smallest closed minterm of `prv` on an instance without foreign
    /// keys.
    fn smallest(prv: &BoolExpr, limit: usize, caps: ExpansionCaps) -> Option<Vec<TupleId>> {
        let keys = ForeignKeyIndex::default();
        let found = ClosedMinterms::new(&keys).smallest(prv, limit, caps);
        found.unwrap().map(|s| ids(&s))
    }

    #[test]
    fn the_smallest_minterm_wins_and_ties_go_to_the_lowest_ids() {
        // a(b + c) + d e = ab + ac + de
        let e = BoolExpr::or2(
            BoolExpr::and2(v(1), BoolExpr::or2(v(3), v(2))),
            BoolExpr::and2(v(4), v(0)),
        );
        assert_eq!(smallest(&e, usize::MAX, CAPS), Some(vec![t(0), t(4)]));
        // a + ab  =>  a
        let e = BoolExpr::or2(BoolExpr::and2(v(1), v(2)), v(1));
        assert_eq!(smallest(&e, usize::MAX, CAPS), Some(vec![t(1)]));
    }

    #[test]
    fn constants_and_the_limit() {
        assert_eq!(smallest(&BoolExpr::False, 5, CAPS), None);
        assert_eq!(smallest(&BoolExpr::True, 0, CAPS), Some(vec![]));
        let e = BoolExpr::And(vec![v(1), BoolExpr::False]);
        assert_eq!(smallest(&e, 5, CAPS), None);
        let e = BoolExpr::and2(v(1), v(2));
        assert_eq!(smallest(&e, 1, CAPS), None);
        assert_eq!(smallest(&e, 2, CAPS), Some(vec![t(1), t(2)]));
    }

    #[test]
    fn negated_parts_rule_out_minterms() {
        // (a + bc) ∧ ¬a: only bc survives.
        let e = BoolExpr::and2(
            BoolExpr::or2(v(1), BoolExpr::and2(v(2), v(3))),
            v(1).negate(),
        );
        assert_eq!(smallest(&e, usize::MAX, CAPS), Some(vec![t(2), t(3)]));
        // a ∧ ¬(a ∧ ¬b) = a ∧ (¬a ∨ b): only the branch a ∧ b is satisfiable.
        let e = BoolExpr::and2(v(1), BoolExpr::and2(v(1), v(2).negate()).negate());
        assert_eq!(smallest(&e, usize::MAX, CAPS), Some(vec![t(1), t(2)]));
        // a ∧ ¬a has no model.
        let e = BoolExpr::and2(v(1), v(1).negate());
        assert_eq!(smallest(&e, usize::MAX, CAPS), None);
    }

    #[test]
    fn the_caps_decline_large_formulas() {
        // (a1 + a2)(a3 + a4) ... grows exponentially.
        let e = BoolExpr::and(
            (0..12)
                .map(|i| BoolExpr::or2(v(2 * i), v(2 * i + 1)))
                .collect(),
        );
        let keys = ForeignKeyIndex::default();
        let mut engine = ClosedMinterms::new(&keys);
        assert_eq!(engine.smallest(&e, usize::MAX, CAPS), Err(Declined));
        let caps = ExpansionCaps {
            minterms: 5_000,
            ..CAPS
        };
        assert_eq!(
            engine
                .smallest(&e, usize::MAX, caps)
                .unwrap()
                .unwrap()
                .len(),
            12
        );
        // A tight limit drops the large minterms before they count.
        assert_eq!(engine.smallest(&e, 9, CAPS), Ok(None));
        // Too many branches.
        let e = BoolExpr::and(
            (0..5)
                .map(|i| BoolExpr::or2(v(i), v(i + 10).negate()))
                .collect(),
        );
        assert_eq!(engine.smallest(&e, usize::MAX, CAPS), Err(Declined));
    }

    #[test]
    fn minterms_are_closed_under_foreign_keys() {
        // Child(p) → Parent(id) → Root(id): a child brings its parent and
        // the parent's root.
        let mut db = Database::new("chain");
        for (name, rows) in [
            ("Root", vec![0]),
            ("Parent", vec![0, 0]),
            ("Child", vec![0, 1]),
        ] {
            let mut relation = Relation::new(
                name,
                Schema::new(vec![("id", DataType::Int), ("p", DataType::Int)]),
            );
            for (row, parent) in rows.into_iter().enumerate() {
                relation
                    .insert(vec![Value::Int(row as i64), Value::Int(parent)])
                    .unwrap();
            }
            db.add_relation(relation).unwrap();
        }
        db.constraints_mut()
            .add_foreign_key("Parent", &["p"], "Root", &["id"]);
        db.constraints_mut()
            .add_foreign_key("Child", &["p"], "Parent", &["id"]);
        let keys = db.foreign_key_index().unwrap();
        let (root, parent, child) = (TupleId::new(0, 0), TupleId::new(1, 1), TupleId::new(2, 1));
        let mut engine = ClosedMinterms::new(keys);
        // child + (parent ∧ other parent): one minterm of one tuple, whose
        // closure has three, against one of two tuples, whose closure has
        // three as well; the tie goes to the lower ids.
        let other_parent = TupleId::new(1, 0);
        let e = BoolExpr::or2(
            BoolExpr::var(child),
            BoolExpr::and2(BoolExpr::var(parent), BoolExpr::var(other_parent)),
        );
        let found = engine.smallest(&e, usize::MAX, CAPS).unwrap().unwrap();
        assert_eq!(ids(&found), vec![root, other_parent, parent]);
        let mut closed = found.clone();
        assert_eq!(closed.close_under(keys), 0);
        // Under a limit of two, no closure fits.
        assert_eq!(engine.smallest(&e, 2, CAPS), Ok(None));
    }
}
