//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! Implements the standard architecture used by MiniSAT-family solvers
//! (which the paper cites as one possible backend): two-watched-literal
//! propagation, VSIDS-style variable activities, first-UIP conflict analysis
//! with clause learning, phase saving, and Luby-sequence restarts. The
//! formulas produced by provenance of a single output tuple are small (tens
//! to a few thousand variables) but solved by the thousand, so the kernel
//! avoids per-step allocation: one literal arena for every clause, watch
//! lists compacted in place, reused conflict-analysis buffers and an
//! activity heap for branching. Clause, literal and watch order, and so the
//! whole search, are those of the straightforward clause-per-`Vec`
//! implementation (pinned by `tests/search_pin.rs`).

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

/// Where a clause's literals sit in the solver's literal arena.
#[derive(Debug, Clone, Copy)]
struct ClauseSpan {
    start: u32,
    len: u32,
}

impl ClauseSpan {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The CDCL solver.
///
/// Clauses live in one flat literal arena (`lits`), addressed by index
/// through `clauses`; a clause index is stable for the solver's lifetime.
/// Watch lists are compacted in place during propagation, and conflict
/// analysis reuses the solver's `seen` and learned-clause buffers, so a
/// solve allocates only when a list or the arena grows.
#[derive(Debug)]
pub struct Solver {
    num_vars: Var,
    lits: Vec<Lit>,
    clauses: Vec<ClauseSpan>,
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
    /// Unassigned variables by activity (see [`VarOrder`]).
    order: VarOrder,
    /// Conflict-analysis scratch: variables already on the learned clause
    /// or pending resolution. All false between analyses.
    seen: Vec<bool>,
    /// Conflict-analysis scratch: the clause being learned.
    learned: Vec<Lit>,
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
        let mut solver = Solver {
            num_vars: 0,
            lits: Vec::new(),
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2],
            assigns: vec![Assign::Unassigned],
            phase: vec![false],
            level: vec![0],
            reason: vec![None],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            propagated_up_to: 0,
            activity: vec![0.0],
            var_inc: 1.0,
            order: VarOrder::default(),
            seen: vec![false],
            learned: Vec::new(),
            unsat: false,
            stats: SolverStats::default(),
        };
        solver.ensure_vars(num_vars);
        solver
    }

    /// Create a solver pre-loaded with the clauses of a CNF.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let mut s = Solver::new(cnf.num_vars);
        let total: usize = cnf.clauses.iter().map(Vec::len).sum();
        s.lits.reserve(total);
        s.clauses.reserve(cnf.clauses.len());
        for c in &cnf.clauses {
            s.add_lits(c);
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
        let first_new = self.num_vars + 1;
        self.num_vars = num_vars;
        self.watches.resize(2 * n + 2, Vec::new());
        self.assigns.resize(n + 1, Assign::Unassigned);
        self.phase.resize(n + 1, false);
        self.level.resize(n + 1, 0);
        self.reason.resize(n + 1, None);
        self.activity.resize(n + 1, 0.0);
        self.seen.resize(n + 1, false);
        self.order.grow(n);
        for v in first_new..=num_vars {
            self.order.insert(v, &self.activity);
        }
    }

    /// Add a clause. Returns `false` if the clause (together with what is
    /// already known at level 0) makes the formula unsatisfiable.
    pub fn add_clause(&mut self, clause: Clause) -> bool {
        self.add_lits(&clause)
    }

    /// [`Solver::add_clause`] from a borrowed literal slice: the literals
    /// are simplified in place at the end of the arena, so adding a clause
    /// allocates nothing beyond the arena's growth.
    pub fn add_lits(&mut self, clause: &[Lit]) -> bool {
        if self.unsat {
            return false;
        }
        debug_assert!(
            self.decision_level() == 0,
            "clauses may only be added at decision level 0"
        );
        for l in clause {
            self.ensure_vars(l.var());
        }
        // Simplify: drop false literals, drop duplicates, detect tautologies
        // and already-satisfied clauses. Sorted, a literal and its negation
        // are neighbours.
        let start = self.lits.len();
        self.lits.extend_from_slice(clause);
        self.lits[start..].sort_unstable();
        let mut kept = start;
        for i in start..self.lits.len() {
            let l = self.lits[i];
            if kept > start && self.lits[kept - 1] == l {
                continue; // duplicate
            }
            if kept > start && self.lits[kept - 1] == l.negated() {
                self.lits.truncate(start);
                return true; // tautology
            }
            if i + 1 < self.lits.len() && self.lits[i + 1] == l.negated() {
                self.lits.truncate(start);
                return true; // tautology (the earlier literal was dropped)
            }
            match self.value(l) {
                Some(true) => {
                    self.lits.truncate(start);
                    return true; // already satisfied at level 0
                }
                Some(false) => {} // drop the literal
                None => {
                    self.lits[kept] = l;
                    kept += 1;
                }
            }
        }
        self.lits.truncate(kept);
        match kept - start {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                let unit = self.lits[start];
                self.lits.truncate(start);
                if !self.enqueue(unit, None) {
                    self.unsat = true;
                    return false;
                }
                if self.propagate().is_some() {
                    self.unsat = true;
                    return false;
                }
                true
            }
            len => {
                self.push_clause(start, len);
                true
            }
        }
    }

    /// Register the arena's literals `start..start + len` as a clause,
    /// watching its first two literals. Returns the clause index.
    fn push_clause(&mut self, start: usize, len: usize) -> usize {
        let idx = self.clauses.len();
        self.watch(self.lits[start], idx);
        self.watch(self.lits[start + 1], idx);
        self.clauses.push(ClauseSpan {
            start: start as u32,
            len: len as u32,
        });
        self.stats.clause_db_size = self.stats.clause_db_size.max(self.clauses.len() as u64);
        idx
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
    /// Each watch list is compacted in place, keeping its order.
    fn propagate(&mut self) -> Option<usize> {
        let mut head = self.propagated_up_to.min(self.trail.len());
        while head < self.trail.len() {
            let lit = self.trail[head];
            head += 1;
            self.stats.propagations += 1;
            let falsified = lit.negated();
            // Taken out while it is compacted; no clause moves its watch to
            // `falsified`, which is false.
            let mut watch_list = std::mem::take(&mut self.watches[falsified.index()]);
            let mut conflict = None;
            let mut kept = 0;
            let mut next = 0;
            while next < watch_list.len() {
                let ci = watch_list[next];
                next += 1;
                let span = self.clauses[ci];
                let c = span.start as usize;
                // Ensure the falsified literal is at position 1.
                if self.lits[c] == falsified {
                    self.lits.swap(c, c + 1);
                }
                let first = self.lits[c];
                if self.value(first) == Some(true) {
                    watch_list[kept] = ci;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in c + 2..c + span.len as usize {
                    let lk = self.lits[k];
                    if self.value(lk) != Some(false) {
                        self.lits.swap(c + 1, k);
                        self.watches[lk.index()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                watch_list[kept] = ci;
                kept += 1;
                if !self.enqueue(first, Some(ci)) {
                    conflict = Some(ci);
                    watch_list.copy_within(next.., kept);
                    kept += watch_list.len() - next;
                    break;
                }
            }
            watch_list.truncate(kept);
            self.watches[falsified.index()] = watch_list;
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
            // Rescaling can turn two different activities into equal ones,
            // whose order is then decided by the variable index.
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(var, &self.activity);
        }
    }

    fn decay(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// First-UIP conflict analysis. Leaves the learned clause in
    /// `self.learned` (asserting literal first) and returns the level to
    /// backtrack to, or [`SolverError::InvariantViolation`] when the
    /// conflict structure is inconsistent (a symptom of a malformed encoding
    /// rather than of an unsatisfiable formula).
    fn analyze(&mut self, conflict: usize) -> Result<u32> {
        self.learned.clear();
        // Slot 0 is the asserting literal, filled in once it is known.
        self.learned.push(Lit::pos(1));
        let mut counter = 0usize;
        let mut resolving = false;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let current_level = self.decision_level();

        loop {
            // Skip the asserting literal itself when resolving a reason clause.
            let range = self.clauses[clause_idx].range();
            let start = range.start + usize::from(resolving);
            for k in start..range.end {
                let l = self.lits[k];
                let v = l.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    self.bump(v);
                    if self.level[v as usize] >= current_level {
                        counter += 1;
                    } else {
                        self.learned.push(l);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            let mut lit_to_resolve = None;
            while trail_pos > 0 {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if self.seen[l.var() as usize] {
                    lit_to_resolve = Some(l);
                    break;
                }
            }
            let Some(l) = lit_to_resolve else {
                self.seen.fill(false);
                return Err(SolverError::InvariantViolation {
                    detail: "conflict analysis found no literal of the current level on the trail",
                });
            };
            self.seen[l.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                // l is the first UIP.
                self.learned[0] = l.negated();
                break;
            }
            clause_idx = match self.reason[l.var() as usize] {
                Some(idx) => idx,
                None => {
                    self.seen.fill(false);
                    return Err(SolverError::InvariantViolation {
                        detail: "non-decision literal has no reason clause",
                    });
                }
            };
            resolving = true;
            // Reason clauses have their asserting literal first; re-order so
            // that position 0 holds the literal we are resolving on.
            let reason = self.clauses[clause_idx].range();
            if let Some(p) = self.lits[reason.clone()].iter().position(|&x| x == l) {
                self.lits.swap(reason.start, reason.start + p);
            }
        }
        // Only the lower-level literals are still marked.
        for l in &self.learned[1..] {
            self.seen[l.var() as usize] = false;
        }

        let backtrack_level = if self.learned.len() == 1 {
            0
        } else {
            // Second-highest level among the learned literals.
            let mut max_level = 0;
            let mut max_pos = 1;
            for (i, l) in self.learned.iter().enumerate().skip(1) {
                if self.level[l.var() as usize] > max_level {
                    max_level = self.level[l.var() as usize];
                    max_pos = i;
                }
            }
            self.learned.swap(1, max_pos);
            max_level
        };
        Ok(backtrack_level)
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
                let v = l.var();
                self.assigns[v as usize] = Assign::Unassigned;
                self.reason[v as usize] = None;
                self.order.insert(v, &self.activity);
            }
        }
        self.propagated_up_to = self.propagated_up_to.min(self.trail.len());
    }

    /// The unassigned variable of highest activity, the lowest-numbered
    /// one among equals.
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v as usize] == Assign::Unassigned {
                return Some(v);
            }
        }
        None
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
                    let level = self.analyze(conflict)?;
                    let asserting = self.learned[0];
                    if self.learned.len() == 1 {
                        // A learned unit is implied by the clause database
                        // alone: make it permanent at level 0.
                        self.backtrack_to(0);
                        if !self.enqueue(asserting, None) || self.propagate().is_some() {
                            self.unsat = true;
                            return Ok(SatResult::Unsat);
                        }
                    } else {
                        self.backtrack_to(level);
                        let start = self.lits.len();
                        self.lits.extend_from_slice(&self.learned);
                        let idx = self.push_clause(start, self.learned.len());
                        self.stats.learned_clauses += 1;
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

/// The branching order: a binary max-heap of variables keyed by activity,
/// ties broken towards the lower variable, so its top is exactly the
/// variable a scan over `1..=num_vars` for the highest activity would
/// pick. Every unassigned variable is in the heap; assigned ones may linger
/// and are skipped when popped.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<Var>,
    /// `position[v]`: the index of `v` in `heap`, if it is there.
    position: Vec<Option<u32>>,
}

impl VarOrder {
    fn grow(&mut self, num_vars: usize) {
        self.position.resize(num_vars + 1, None);
    }

    /// Whether `a` goes before `b`.
    fn before(a: Var, b: Var, activity: &[f64]) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.position[v as usize].is_some() {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restore the heap after `v`'s activity grew.
    fn increased(&mut self, v: Var, activity: &[f64]) {
        if let Some(i) = self.position[v as usize] {
            self.sift_up(i as usize, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("the heap has a top");
        self.position[top as usize] = None;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = Some(0);
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::before(v, p, activity) {
                break;
            }
            self.heap[i] = p;
            self.position[p as usize] = Some(i as u32);
            i = parent;
        }
        self.heap[i] = v;
        self.position[v as usize] = Some(i as u32);
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(self.heap[right], self.heap[left], activity)
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::before(c, v, activity) {
                break;
            }
            self.heap[i] = c;
            self.position[c as usize] = Some(i as u32);
            i = child;
        }
        self.heap[i] = v;
        self.position[v as usize] = Some(i as u32);
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
