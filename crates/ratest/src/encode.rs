//! Translating provenance into solver formulas (Sections 4.1 and 4.3).
//!
//! The solver works over dense variable indices; provenance is expressed over
//! [`TupleId`]s. [`VarMap`] maintains the bijection, and
//! [`encode_provenance`] / [`foreign_key_clauses`] produce the formula the
//! min-ones optimizer consumes: the provenance itself as the satisfiability
//! constraint plus one implication `t_child ⇒ t_parent` per referencing tuple
//! mentioned in the formula.

use crate::error::Result;
use ratest_provenance::BoolExpr;
use ratest_solver::formula::Formula;
use ratest_solver::Var;
use ratest_storage::{Database, ForeignKeyIndex, TupleId, TupleSelection};
use std::cmp::Ordering;
use std::collections::HashMap;

/// A bijection between tuple identifiers and solver variables.
#[derive(Debug, Clone, Default)]
pub struct VarMap {
    to_var: HashMap<TupleId, Var>,
    to_tuple: Vec<TupleId>,
}

impl VarMap {
    /// An empty map.
    pub fn new() -> Self {
        VarMap::default()
    }

    /// The solver variable for a tuple, allocating one if needed.
    pub fn var(&mut self, id: TupleId) -> Var {
        match self.to_var.get(&id) {
            Some(&v) => v,
            None => {
                let v = self.to_tuple.len() as Var + 1;
                self.to_var.insert(id, v);
                self.to_tuple.push(id);
                v
            }
        }
    }

    /// The solver variable for a tuple, if already allocated.
    pub fn lookup(&self, id: TupleId) -> Option<Var> {
        self.to_var.get(&id).copied()
    }

    /// The tuple for a solver variable.
    pub fn tuple(&self, var: Var) -> Option<TupleId> {
        self.to_tuple.get(var as usize - 1).copied()
    }

    /// Number of allocated variables.
    pub fn len(&self) -> usize {
        self.to_tuple.len()
    }

    /// Whether no variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.to_tuple.is_empty()
    }

    /// All allocated variables (1..=len), the objective of min-ones.
    pub fn all_vars(&self) -> Vec<Var> {
        (1..=self.to_tuple.len() as Var).collect()
    }

    /// The allocated tuples, sorted.
    fn sorted_tuples(&self) -> Vec<TupleId> {
        let mut ids = self.to_tuple.clone();
        ids.sort_unstable();
        ids
    }

    /// Convert a set of true solver variables back into a tuple selection.
    pub fn selection_from_vars(&self, true_vars: &[Var]) -> TupleSelection {
        TupleSelection::from_ids(true_vars.iter().filter_map(|&v| self.tuple(v)))
    }
}

/// Translate a provenance expression into a solver formula, registering every
/// mentioned tuple in the [`VarMap`].
pub fn encode_provenance(prv: &BoolExpr, vars: &mut VarMap) -> Formula {
    match prv {
        BoolExpr::True => Formula::True,
        BoolExpr::False => Formula::False,
        BoolExpr::Var(id) => Formula::var(vars.var(*id)),
        BoolExpr::And(parts) => {
            Formula::and(parts.iter().map(|p| encode_provenance(p, vars)).collect())
        }
        BoolExpr::Or(parts) => {
            Formula::or(parts.iter().map(|p| encode_provenance(p, vars)).collect())
        }
        BoolExpr::Not(inner) => Formula::not(encode_provenance(inner, vars)),
    }
}

/// Foreign-key implication clauses for every tuple currently registered in
/// the map (Section 4.3): if a child tuple is retained, its referenced parent
/// tuple must be retained as well. Parents not yet registered are added to
/// the map (they may need to be part of the witness), and the closure is
/// iterated until no new tuples appear. Only the map's tuples are visited,
/// through the instance's foreign-key index.
///
/// Parents are registered per foreign key in constraint order, visiting
/// known children in `(relation, row)` order, and the clauses are sorted by
/// child variable then parent variable, each compared as decimal text (the
/// order of the clauses' debug text), so the solver input is deterministic.
pub fn foreign_key_clauses(db: &Database, vars: &mut VarMap) -> Result<Vec<Formula>> {
    let index = db.foreign_key_index()?;
    let mut edges: Vec<(Var, Var)>;
    loop {
        let before = vars.len();
        // New parents registered in one round may themselves be children of
        // further foreign keys: the edges of the last round, which registers
        // nothing, are the answer.
        let known = vars.sorted_tuples();
        edges = edges_from(index, &known)
            .map(|(child, parent)| (vars.var(child), vars.var(parent)))
            .collect();
        if vars.len() == before {
            break;
        }
    }
    edges.sort_unstable_by(|a, b| cmp_decimal(a.0, b.0).then(cmp_decimal(a.1, b.1)));
    edges.dedup();
    Ok(edges
        .into_iter()
        .map(|(c, p)| Formula::implies(Formula::var(c), Formula::var(p)))
        .collect())
}

/// Pair of (tuple-id, tuple-id) foreign-key edges restricted to the tuples in
/// the map — used by the SMT-LIB rendering helpers. Per foreign key in
/// constraint order, children in `(relation, row)` order.
pub fn foreign_key_edges(db: &Database, vars: &VarMap) -> Result<Vec<(TupleId, TupleId)>> {
    let index = db.foreign_key_index()?;
    Ok(edges_from(index, &vars.sorted_tuples()).collect())
}

/// The `(child, parent)` edges out of `known` (sorted by [`TupleId`]): per
/// foreign key in constraint order, children in `(relation, row)` order.
fn edges_from<'a>(
    index: &'a ForeignKeyIndex,
    known: &'a [TupleId],
) -> impl Iterator<Item = (TupleId, TupleId)> + 'a {
    (0..index.len()).flat_map(move |key| {
        let relation = index.child_relation(key);
        let start = known.partition_point(|id| id.relation < relation);
        let end = known.partition_point(|id| id.relation <= relation);
        known[start..end]
            .iter()
            .filter_map(move |&child| Some((child, index.parent(key, child)?)))
    })
}

/// Compare two variables as their decimal text compares (`"12" < "3"`),
/// without formatting them.
fn cmp_decimal(a: Var, b: Var) -> Ordering {
    let (da, db) = (
        a.checked_ilog10().unwrap_or(0),
        b.checked_ilog10().unwrap_or(0),
    );
    // Pad the shorter number with zeros to the longer one's length; on a
    // tie the shorter text is a prefix of the longer one and sorts first.
    let a_padded = u64::from(a) * 10u64.pow(db.saturating_sub(da));
    let b_padded = u64::from(b) * 10u64.pow(da.saturating_sub(db));
    a_padded.cmp(&b_padded).then(da.cmp(&db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::testdata;
    use ratest_solver::minones::{minimize_ones, MinOnesOptions};

    fn t(rel: u32, row: u32) -> TupleId {
        TupleId::new(rel, row)
    }

    #[test]
    fn varmap_round_trips() {
        let mut m = VarMap::new();
        let a = m.var(t(0, 0));
        let b = m.var(t(1, 3));
        assert_ne!(a, b);
        assert_eq!(m.var(t(0, 0)), a, "idempotent");
        assert_eq!(m.tuple(a), Some(t(0, 0)));
        assert_eq!(m.lookup(t(1, 3)), Some(b));
        assert_eq!(m.lookup(t(9, 9)), None);
        assert_eq!(m.len(), 2);
        let sel = m.selection_from_vars(&[a]);
        assert!(sel.contains(t(0, 0)));
        assert!(!sel.contains(t(1, 3)));
        assert_eq!(m.all_vars(), vec![1, 2]);
    }

    #[test]
    fn provenance_encoding_preserves_semantics() {
        // t1 (t4 + t5) ¬(t1 t4 t5)
        let prv = BoolExpr::and(vec![
            BoolExpr::var(t(0, 0)),
            BoolExpr::or2(BoolExpr::var(t(1, 0)), BoolExpr::var(t(1, 1))),
            BoolExpr::and(vec![
                BoolExpr::var(t(0, 0)),
                BoolExpr::var(t(1, 0)),
                BoolExpr::var(t(1, 1)),
            ])
            .negate(),
        ]);
        let mut vars = VarMap::new();
        let f = encode_provenance(&prv, &mut vars);
        assert_eq!(vars.len(), 3);
        let sol = minimize_ones(&f, &vars.all_vars(), &MinOnesOptions::default()).unwrap();
        // Minimum model keeps the student and exactly one registration.
        assert_eq!(sol.cost, 2);
        let sel = vars.selection_from_vars(&sol.true_vars);
        assert!(sel.contains(t(0, 0)));
    }

    #[test]
    fn foreign_keys_become_implications() {
        let db = testdata::figure1_db();
        let mut vars = VarMap::new();
        // Register only Mary's first registration; the FK closure must pull in
        // Mary's student tuple as a variable and emit the implication.
        vars.var(t(1, 0));
        let clauses = foreign_key_clauses(&db, &mut vars).unwrap();
        assert_eq!(clauses.len(), 1);
        assert!(vars.lookup(t(0, 0)).is_some());
        let edges = foreign_key_edges(&db, &vars).unwrap();
        assert!(edges.contains(&(t(1, 0), t(0, 0))));

        // Solving provenance + FK clauses never selects a registration
        // without its student.
        let prv = BoolExpr::var(t(1, 0));
        let mut f_parts = vec![encode_provenance(&prv, &mut vars)];
        f_parts.extend(foreign_key_clauses(&db, &mut vars).unwrap());
        let f = Formula::and(f_parts);
        let sol = minimize_ones(&f, &vars.all_vars(), &MinOnesOptions::default()).unwrap();
        assert_eq!(sol.cost, 2);
    }

    /// The implication set as a fixpoint of whole-instance scans of every
    /// foreign key, sorted by the clauses' debug text.
    fn oracle_clauses(db: &Database, vars: &mut VarMap) -> Vec<Formula> {
        let mut clauses = Vec::new();
        loop {
            let before = vars.len();
            let known: Vec<TupleId> = (1..=vars.len() as Var)
                .filter_map(|v| vars.tuple(v))
                .collect();
            clauses.clear();
            for fk in db.constraints().foreign_keys() {
                for (child, parent) in fk.referenced_tuples(db).unwrap() {
                    if let (true, Some(parent)) = (known.contains(&child), parent) {
                        let c = vars.var(child);
                        let p = vars.var(parent);
                        clauses.push(Formula::implies(Formula::var(c), Formula::var(p)));
                    }
                }
            }
            if vars.len() == before {
                break;
            }
        }
        clauses.sort_by_key(|f| format!("{f:?}"));
        clauses.dedup();
        clauses
    }

    /// The SMT-LIB edges by a whole-instance scan.
    fn oracle_edges(db: &Database, vars: &VarMap) -> Vec<(TupleId, TupleId)> {
        let mut edges = Vec::new();
        for fk in db.constraints().foreign_keys() {
            for (child, parent) in fk.referenced_tuples(db).unwrap() {
                if let (Some(_), Some(parent)) = (vars.lookup(child), parent) {
                    edges.push((child, parent));
                }
            }
        }
        edges
    }

    /// `(child, parent)` of a clause `¬child ∨ parent`.
    fn implication(f: &Formula) -> (Var, Var) {
        match f {
            Formula::Or(parts) => match parts.as_slice() {
                [Formula::Not(c), Formula::Var(p)] => (c.max_var(), *p),
                _ => panic!("not an implication: {f:?}"),
            },
            _ => panic!("not an implication: {f:?}"),
        }
    }

    fn allocated(vars: &VarMap) -> Vec<TupleId> {
        (1..=vars.len() as Var)
            .map(|v| vars.tuple(v).unwrap())
            .collect()
    }

    #[test]
    fn clauses_and_edges_match_the_whole_instance_scan() {
        use ratest_datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
        let instances = [
            university_database(&UniversityConfig::with_total(200)),
            tpch_database(&TpchConfig::with_scale(0.0003)),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for db in &instances {
            let all: Vec<TupleId> = TupleSelection::all(db).iter().collect();
            let mut chained = 0;
            for _ in 0..100 {
                // Tuples registered in random order: the map's order is
                // part of the solver input.
                let mut vars = VarMap::new();
                for _ in 0..1 + below(40) {
                    vars.var(all[below(all.len())]);
                }
                let mut expected_vars = vars.clone();
                let expected = oracle_clauses(db, &mut expected_vars);
                let clauses = foreign_key_clauses(db, &mut vars).unwrap();
                assert_eq!(allocated(&vars), allocated(&expected_vars));
                assert_eq!(clauses, expected);
                assert_eq!(
                    foreign_key_edges(db, &vars).unwrap(),
                    oracle_edges(db, &vars)
                );
                // A parent that is itself a child: the keys chain.
                let edges: Vec<(Var, Var)> = clauses.iter().map(implication).collect();
                chained += usize::from(
                    edges
                        .iter()
                        .any(|&(_, p)| edges.iter().any(|&(c, _)| c == p)),
                );
            }
            if db.constraints().foreign_keys().count() > 1 {
                assert!(chained > 0, "some maps must exercise chained keys");
            }
        }
    }

    #[test]
    fn decimal_order_is_the_debug_text_order() {
        let samples: Vec<Var> = vec![
            1, 2, 9, 10, 11, 12, 19, 20, 99, 100, 101, 109, 110, 999, 1000,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    cmp_decimal(a, b),
                    a.to_string().cmp(&b.to_string()),
                    "{a} vs {b}"
                );
            }
        }
        assert_eq!(cmp_decimal(Var::MAX, 4), Ordering::Greater);
        assert_eq!(cmp_decimal(Var::MAX, 5), Ordering::Less);
    }

    #[test]
    fn empty_varmap_produces_no_clauses() {
        let db = testdata::figure1_db();
        let mut vars = VarMap::new();
        assert!(foreign_key_clauses(&db, &mut vars).unwrap().is_empty());
        assert!(vars.is_empty());
    }
}
