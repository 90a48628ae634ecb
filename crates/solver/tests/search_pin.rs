//! Pins the CDCL search itself, not just its answers. Seeded random CNFs
//! and bounded min-ones probes are solved, and every result, model and
//! search counter (decisions, conflicts, propagations, learned clauses,
//! restarts, clause-database high-water mark) must equal the recorded
//! line. A change to the solver's data structures that keeps clause,
//! literal and watch order keeps every line; a change that alters the
//! search (branching order, conflict analysis, clause order) fails here,
//! because the `solver.*` counters of the explain pipeline are part of the
//! deterministic-output contract.

use ratest_solver::minones::{minimize_ones_with_theory_into, MinOnesOptions};
use ratest_solver::{Cnf, Formula, Lit, SatResult, Solver, SolverStats, Var};

/// Deterministic xorshift64* PRNG so the suite needs no external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn counters(s: &SolverStats) -> String {
    format!(
        "d{} c{} p{} l{} r{} db{}",
        s.decisions, s.conflicts, s.propagations, s.learned_clauses, s.restarts, s.clause_db_size
    )
}

/// A random 3-CNF near the satisfiability threshold (clause/variable
/// ratio 4.0–4.4), with a few binary clauses mixed in.
fn random_cnf(rng: &mut Rng) -> Cnf {
    let num_vars = 40 + rng.below(81) as Var;
    let ratio_percent = 400 + rng.below(41);
    let num_clauses = num_vars as u64 * ratio_percent / 100;
    let mut cnf = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let width = if rng.below(20) == 0 { 2 } else { 3 };
        let clause = (0..width)
            .map(|_| Lit::new(1 + rng.below(num_vars as u64) as Var, rng.below(2) == 0))
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

/// A random formula for min-ones: disjunctions of 2–4 literals, mostly
/// positive, over `num_vars` variables, a few of them negated as a whole.
fn random_formula(rng: &mut Rng, num_vars: Var) -> Formula {
    let num_clauses = num_vars as usize / 2 + rng.below(num_vars as u64) as usize;
    let mut parts = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let width = 2 + rng.below(3) as usize;
        let lits: Vec<Formula> = (0..width)
            .map(|_| {
                let v = Formula::var(1 + rng.below(num_vars as u64) as Var);
                if rng.below(6) == 0 {
                    Formula::not(v)
                } else {
                    v
                }
            })
            .collect();
        let clause = Formula::or(lits);
        parts.push(if rng.below(40) == 0 {
            Formula::not(clause)
        } else {
            clause
        });
    }
    Formula::and(parts)
}

fn sat_line(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let cnf = random_cnf(&mut rng);
    let mut solver = Solver::from_cnf(&cnf);
    let verdict = match solver.solve().expect("well-formed CNF") {
        SatResult::Sat(model) => format!("sat {:?}", model.true_vars()),
        SatResult::Unsat => "unsat".to_owned(),
    };
    format!(
        "sat#{seed} v{} {verdict} {}",
        cnf.num_vars,
        counters(&solver.stats)
    )
}

fn minones_line(seed: u64) -> String {
    let mut rng = Rng::new(seed ^ 0x5eed);
    let num_vars = 16 + rng.below(45) as Var;
    let formula = random_formula(&mut rng, num_vars);
    let objective: Vec<Var> = (1..=num_vars).collect();
    let upper_bound = match rng.below(3) {
        0 => None,
        _ => Some(rng.below(num_vars as u64 / 2 + 1) as usize),
    };
    let options = MinOnesOptions {
        binary_search: rng.below(4) != 0,
        upper_bound,
        ..Default::default()
    };
    // Reject models whose true-variable sum is divisible by 7, so blocking
    // clauses are added between solves.
    let theory = rng.below(3) == 0;
    let mut stats = SolverStats::default();
    let result = minimize_ones_with_theory_into(
        &formula,
        &objective,
        &options,
        |vars| !theory || vars.iter().sum::<Var>() % 7 != 0,
        &mut stats,
    );
    let verdict = match result {
        Ok(solution) => format!("min {:?}", solution.true_vars),
        Err(e) => format!("err {e}"),
    };
    format!(
        "min#{seed} v{num_vars} ub{upper_bound:?} bin{} th{} {verdict} {}",
        options.binary_search,
        theory,
        counters(&stats)
    )
}

/// The lines as measured on the solver before its clause arena, in-place
/// watch compaction and branching heap went in.
const EXPECTED: &str = include_str!("search_pin.expected");

#[test]
fn the_search_is_unchanged() {
    let actual: String = (0..40)
        .map(sat_line)
        .chain((0..60).map(minones_line))
        .map(|line| line + "\n")
        .collect();
    if actual != EXPECTED {
        let first = actual
            .lines()
            .zip(EXPECTED.lines())
            .find(|(a, e)| a != e)
            .map(|(a, e)| format!("expected {e}\n     got {a}"))
            .unwrap_or_else(|| "line counts differ".to_owned());
        panic!("the solver's search changed; first difference:\n{first}\nfull output:\n{actual}");
    }
}
