//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! Implements the standard architecture used by MiniSAT-family solvers
//! (which the paper cites as one possible backend): two-watched-literal
//! propagation, VSIDS-style variable activities, first-UIP conflict analysis
//! with clause learning, phase saving, and Luby-sequence restarts. The
//! implementation favours clarity over raw speed — the formulas produced by
//! provenance of a single output tuple are small (tens to a few thousand
//! variables) — but the asymptotics are the real thing, which is what the
//! scalability experiments need.

use crate::cnf::{Clause, Cnf, Lit, Var};
use crate::error::{Result, SolverError};
use crate::stats::SolverStats;

/// The result of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat => None,
        }
    }

    /// Whether the result is SAT.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// A satisfying assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>, // indexed by var, slot 0 unused
}

impl Model {
    /// The value of a variable.
    pub fn value(&self, var: Var) -> bool {
        self.values.get(var as usize).copied().unwrap_or(false)
    }

    /// Variables assigned true, in increasing order.
    pub fn true_vars(&self) -> Vec<Var> {
        (1..self.values.len() as Var)
            .filter(|&v| self.values[v as usize])
            .collect()
    }

    /// Number of variables assigned true among `vars`.
    pub fn count_true(&self, vars: &[Var]) -> usize {
        vars.iter().filter(|&&v| self.value(v)).count()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assign {
    Unassigned,
    True,
    False,
}

/// The CDCL solver.
#[derive(Debug)]
pub struct Solver {
    num_vars: Var,
    clauses: Vec<Clause>,
    watches: Vec<Vec<usize>>,   // lit.index() -> clause indices
    assigns: Vec<Assign>,       // var -> value
    phase: Vec<bool>,           // saved phase
    level: Vec<u32>,            // var -> decision level
    reason: Vec<Option<usize>>, // var -> implying clause
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// Prefix of the trail that has already been propagated.
    propagated_up_to: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Set when a top-level (level-0) conflict has been derived: the formula
    /// is unsatisfiable.
    unsat: bool,
    /// Statistics for the experiment harness.
    pub stats: SolverStats,
}

const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;

impl Solver {
    /// Create a solver over `num_vars` variables.
    pub fn new(num_vars: Var) -> Solver {
        let n = num_vars as usize;
        Solver {
            num_vars,
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * n + 2],
            assigns: vec![Assign::Unassigned; n + 1],
            phase: vec![false; n + 1],
            level: vec![0; n + 1],
            reason: vec![None; n + 1],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            propagated_up_to: 0,
            activity: vec![0.0; n + 1],
            var_inc: 1.0,
            unsat: false,
            stats: SolverStats::default(),
        }
    }

    /// Create a solver pre-loaded with the clauses of a CNF.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let mut s = Solver::new(cnf.num_vars);
        for c in &cnf.clauses {
            s.add_clause(c.clone());
        }
        s
    }

    /// Number of variables.
    pub fn num_vars(&self) -> Var {
        self.num_vars
    }

    /// Grow the variable space to at least `num_vars`.
    pub fn ensure_vars(&mut self, num_vars: Var) {
        if num_vars <= self.num_vars {
            return;
        }
        let n = num_vars as usize;
        self.num_vars = num_vars;
        self.watches.resize(2 * n + 2, Vec::new());
        self.assigns.resize(n + 1, Assign::Unassigned);
        self.phase.resize(n + 1, false);
        self.level.resize(n + 1, 0);
        self.reason.resize(n + 1, None);
        self.activity.resize(n + 1, 0.0);
    }

    /// Add a clause. Returns `false` if the clause (together with what is
    /// already known at level 0) makes the formula unsatisfiable.
    pub fn add_clause(&mut self, mut clause: Clause) -> bool {
        if self.unsat {
            return false;
        }
        debug_assert!(
            self.decision_level() == 0,
            "clauses may only be added at decision level 0"
        );
        for l in &clause {
            self.ensure_vars(l.var());
        }
        // Simplify: drop false literals, drop duplicates, detect tautologies
        // and already-satisfied clauses.
        clause.sort();
        clause.dedup();
        let mut simplified = Vec::with_capacity(clause.len());
        for &l in &clause {
            if clause.contains(&l.negated()) {
                return true; // tautology
            }
            match self.value(l) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => {}          // drop the literal
                None => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                if !self.enqueue(simplified[0], None) {
                    self.unsat = true;
                    return false;
                }
                if self.propagate().is_some() {
                    self.unsat = true;
                    return false;
                }
                true
            }
            _ => {
                let idx = self.clauses.len();
                self.watch(simplified[0], idx);
                self.watch(simplified[1], idx);
                self.clauses.push(simplified);
                self.stats.clause_db_size =
                    self.stats.clause_db_size.max(self.clauses.len() as u64);
                true
            }
        }
    }

    fn watch(&mut self, lit: Lit, clause: usize) {
        self.watches[lit.index()].push(clause);
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        match self.assigns[lit.var() as usize] {
            Assign::Unassigned => None,
            Assign::True => Some(lit.is_positive()),
            Assign::False => Some(!lit.is_positive()),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<usize>) -> bool {
        match self.value(lit) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = lit.var() as usize;
                self.assigns[v] = if lit.is_positive() {
                    Assign::True
                } else {
                    Assign::False
                };
                self.phase[v] = lit.is_positive();
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        let mut head = self.propagated_up_to.min(self.trail.len());
        while head < self.trail.len() {
            let lit = self.trail[head];
            head += 1;
            self.stats.propagations += 1;
            let falsified = lit.negated();
            let watch_list = std::mem::take(&mut self.watches[falsified.index()]);
            let mut new_watch_list = Vec::with_capacity(watch_list.len());
            let mut conflict = None;
            for (pos, &ci) in watch_list.iter().enumerate() {
                if conflict.is_some() {
                    new_watch_list.extend_from_slice(&watch_list[pos..]);
                    break;
                }
                // Ensure the falsified literal is at position 1.
                let clause = &mut self.clauses[ci];
                if clause[0] == falsified {
                    clause.swap(0, 1);
                }
                let first = clause[0];
                if self.value(first) == Some(true) {
                    new_watch_list.push(ci);
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].len() {
                    let lk = self.clauses[ci][k];
                    if self.value(lk) != Some(false) {
                        self.clauses[ci].swap(1, k);
                        let new_lit = self.clauses[ci][1];
                        self.watches[new_lit.index()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                new_watch_list.push(ci);
                let first = self.clauses[ci][0];
                if !self.enqueue(first, Some(ci)) {
                    conflict = Some(ci);
                }
            }
            self.watches[falsified.index()] = new_watch_list;
            if let Some(ci) = conflict {
                self.propagated_up_to = self.trail.len();
                return Some(ci);
            }
        }
        self.propagated_up_to = head;
        None
    }

    fn bump(&mut self, var: Var) {
        self.activity[var as usize] += self.var_inc;
        if self.activity[var as usize] > RESCALE_LIMIT {
            for a in self.activity.iter_mut() {
                *a /= RESCALE_LIMIT;
            }
            self.var_inc /= RESCALE_LIMIT;
        }
    }

    fn decay(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learned clause and the level
    /// to backtrack to, or [`SolverError::InvariantViolation`] when the
    /// conflict structure is inconsistent (a symptom of a malformed encoding
    /// rather than of an unsatisfiable formula).
    fn analyze(&mut self, conflict: usize) -> Result<(Clause, u32)> {
        let mut learned: Clause = Vec::new();
        let mut seen = vec![false; self.num_vars as usize + 1];
        let mut counter = 0usize;
        let mut lit_to_resolve: Option<Lit> = None;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let current_level = self.decision_level();

        loop {
            let start = if lit_to_resolve.is_some() { 1 } else { 0 };
            // Skip the asserting literal itself when resolving a reason clause.
            let clause = self.clauses[clause_idx].clone();
            for &l in clause.iter().skip(start) {
                let v = l.var();
                if !seen[v as usize] && self.level[v as usize] > 0 {
                    seen[v as usize] = true;
                    self.bump(v);
                    if self.level[v as usize] >= current_level {
                        counter += 1;
                    } else {
                        learned.push(l);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            lit_to_resolve = None;
            while trail_pos > 0 {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if seen[l.var() as usize] {
                    lit_to_resolve = Some(l);
                    break;
                }
            }
            let Some(l) = lit_to_resolve else {
                return Err(SolverError::InvariantViolation {
                    detail: "conflict analysis found no literal of the current level on the trail",
                });
            };
            seen[l.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                // l is the first UIP.
                learned.insert(0, l.negated());
                break;
            }
            clause_idx = match self.reason[l.var() as usize] {
                Some(idx) => idx,
                None => {
                    return Err(SolverError::InvariantViolation {
                        detail: "non-decision literal has no reason clause",
                    })
                }
            };
            // Reason clauses have their asserting literal first; re-order so
            // that position 0 holds the literal we are resolving on.
            let reason = &mut self.clauses[clause_idx];
            if let Some(p) = reason.iter().position(|&x| x == l) {
                reason.swap(0, p);
            }
        }

        let backtrack_level = if learned.len() == 1 {
            0
        } else {
            // Second-highest level among the learned literals.
            let mut max_level = 0;
            let mut max_pos = 1;
            for (i, l) in learned.iter().enumerate().skip(1) {
                if self.level[l.var() as usize] > max_level {
                    max_level = self.level[l.var() as usize];
                    max_pos = i;
                }
            }
            learned.swap(1, max_pos);
            max_level
        };
        Ok((learned, backtrack_level))
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            // The loop condition guarantees a decision level to pop.
            let Some(lim) = self.trail_lim.pop() else {
                break;
            };
            while self.trail.len() > lim {
                let Some(l) = self.trail.pop() else {
                    break;
                };
                let v = l.var() as usize;
                self.assigns[v] = Assign::Unassigned;
                self.reason[v] = None;
            }
        }
        self.propagated_up_to = self.propagated_up_to.min(self.trail.len());
    }

    fn pick_branch_var(&self) -> Option<Var> {
        let mut best: Option<(Var, f64)> = None;
        for v in 1..=self.num_vars {
            if self.assigns[v as usize] == Assign::Unassigned {
                let a = self.activity[v as usize];
                match best {
                    Some((_, ba)) if ba >= a => {}
                    _ => best = Some((v, a)),
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// Solve the clause database. Learned clauses stay in the database, so
    /// the solver can take more clauses (e.g. blocking clauses) and be
    /// solved again. Returns an error only when an internal invariant is
    /// violated, which indicates a malformed encoding.
    pub fn solve(&mut self) -> Result<SatResult> {
        if self.unsat {
            return Ok(SatResult::Unsat);
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return Ok(SatResult::Unsat);
        }

        let mut conflicts_since_restart = 0u64;
        let mut restart_count = 0u32;
        let mut restart_limit = luby(restart_count) * 64;

        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.decision_level() == 0 {
                        self.unsat = true;
                        return Ok(SatResult::Unsat);
                    }
                    let (learned, level) = self.analyze(conflict)?;
                    let asserting = learned[0];
                    if learned.len() == 1 {
                        // A learned unit is implied by the clause database
                        // alone: make it permanent at level 0.
                        self.backtrack_to(0);
                        if !self.enqueue(asserting, None) || self.propagate().is_some() {
                            self.unsat = true;
                            return Ok(SatResult::Unsat);
                        }
                    } else {
                        self.backtrack_to(level);
                        let idx = self.clauses.len();
                        self.watch(learned[0], idx);
                        self.watch(learned[1], idx);
                        self.clauses.push(learned);
                        self.stats.learned_clauses += 1;
                        self.stats.clause_db_size =
                            self.stats.clause_db_size.max(self.clauses.len() as u64);
                        if !self.enqueue(asserting, Some(idx)) {
                            // The asserting literal is already false at the
                            // backtrack level.
                            self.backtrack_to(0);
                            return Ok(SatResult::Unsat);
                        }
                    }
                    self.decay();
                    if conflicts_since_restart >= restart_limit {
                        self.stats.restarts += 1;
                        restart_count += 1;
                        restart_limit = luby(restart_count) * 64;
                        conflicts_since_restart = 0;
                        self.backtrack_to(0);
                    }
                }
                None => match self.pick_branch_var() {
                    None => {
                        let model = self.extract_model();
                        self.backtrack_to(0);
                        return Ok(SatResult::Sat(model));
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        // Phase saving; default polarity false, which biases
                        // toward few true variables — a good initial guess for
                        // min-ones instances.
                        let lit = Lit::new(v, self.phase[v as usize]);
                        self.enqueue(lit, None);
                    }
                },
            }
        }
    }

    fn extract_model(&self) -> Model {
        let mut values = vec![false; self.num_vars as usize + 1];
        for (value, assign) in values.iter_mut().zip(&self.assigns) {
            *value = *assign == Assign::True;
        }
        Model { values }
    }
}

/// Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...).
fn luby(i: u32) -> u64 {
    // Find the finite subsequence that contains index i.
    let mut k = 1u32;
    while (1u64 << k) - 1 < (i as u64 + 1) {
        k += 1;
    }
    let mut i = i as u64;
    let mut kk = k;
    loop {
        if i + 1 == (1u64 << kk) - 1 {
            return 1u64 << (kk - 1);
        }
        i -= (1u64 << (kk - 1)) - 1;
        // Recompute subsequence.
        kk = 1;
        while (1u64 << kk) - 1 < i + 1 {
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clause(lits: &[i64]) -> Clause {
        lits.iter()
            .map(|&l| {
                if l > 0 {
                    Lit::pos(l as Var)
                } else {
                    Lit::neg((-l) as Var)
                }
            })
            .collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new(1);
        assert!(s.add_clause(clause(&[1])));
        assert!(s.solve().unwrap().is_sat());

        let mut s = Solver::new(1);
        s.add_clause(clause(&[1]));
        assert!(!s.add_clause(clause(&[-1])));
        assert!(matches!(s.solve().unwrap(), SatResult::Unsat));
    }

    #[test]
    fn chained_implications_force_assignment() {
        // x1, x1->x2, x2->x3, x3->x4
        let mut s = Solver::new(4);
        s.add_clause(clause(&[1]));
        s.add_clause(clause(&[-1, 2]));
        s.add_clause(clause(&[-2, 3]));
        s.add_clause(clause(&[-3, 4]));
        match s.solve().unwrap() {
            SatResult::Sat(m) => {
                assert!(m.value(1) && m.value(2) && m.value(3) && m.value(4));
            }
            SatResult::Unsat => panic!("should be satisfiable"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // Pigeons p in {1,2,3}, holes h in {1,2}; var(p,h) = 2*(p-1)+h.
        let v = |p: u32, h: u32| (2 * (p - 1) + h) as i64;
        let mut s = Solver::new(6);
        for p in 1..=3 {
            s.add_clause(clause(&[v(p, 1), v(p, 2)]));
        }
        for h in 1..=2u32 {
            for p1 in 1..=3u32 {
                for p2 in (p1 + 1)..=3u32 {
                    s.add_clause(clause(&[-v(p1, h), -v(p2, h)]));
                }
            }
        }
        assert!(matches!(s.solve().unwrap(), SatResult::Unsat));
        assert!(s.stats.conflicts > 0);
    }

    #[test]
    fn random_3sat_instances_agree_with_bruteforce() {
        // Small deterministic pseudo-random instances, checked against a
        // truth-table oracle.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for instance in 0..30 {
            let num_vars = 6;
            let num_clauses = 18 + (instance % 8);
            let mut cnf = Cnf::new(num_vars);
            for _ in 0..num_clauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % num_vars as u64) as Var + 1;
                    let positive = next() % 2 == 0;
                    c.push(Lit::new(v, positive));
                }
                cnf.add_clause(c);
            }
            // Brute force.
            let mut brute_sat = false;
            for mask in 0..(1u32 << num_vars) {
                let mut assignment = vec![false; num_vars as usize + 1];
                for v in 1..=num_vars {
                    assignment[v as usize] = mask & (1 << (v - 1)) != 0;
                }
                if cnf.eval(&assignment) {
                    brute_sat = true;
                    break;
                }
            }
            let mut solver = Solver::from_cnf(&cnf);
            let result = solver.solve().unwrap();
            assert_eq!(result.is_sat(), brute_sat, "instance {instance}");
            if let SatResult::Sat(m) = result {
                let mut assignment = vec![false; num_vars as usize + 1];
                for v in 1..=num_vars {
                    assignment[v as usize] = m.value(v);
                }
                assert!(cnf.eval(&assignment), "model must satisfy the CNF");
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn model_helpers() {
        let mut s = Solver::new(3);
        s.add_clause(clause(&[1]));
        s.add_clause(clause(&[-2]));
        s.add_clause(clause(&[3]));
        let m = match s.solve().unwrap() {
            SatResult::Sat(m) => m,
            _ => panic!(),
        };
        assert_eq!(m.true_vars(), vec![1, 3]);
        assert_eq!(m.count_true(&[1, 2, 3]), 2);
    }
}
