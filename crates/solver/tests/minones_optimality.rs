//! Property suite: the min-ones descent returns a **true optimum**. Seeded
//! random formulas over at most 12 variables are small enough to enumerate,
//! so every answer of `minimize_ones_with_theory_into` is checked against
//! brute force: the optimal cost, a model that satisfies the formula, the
//! minimum among theory-accepted assignments, and the `upper_bound`
//! verdicts, under both the binary and the linear descent.

use ratest_solver::minones::{minimize_ones_with_theory_into, MinOnesOptions};
use ratest_solver::{Formula, SolverError, SolverStats, Var};

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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random CNF-shaped formula: `num_clauses` disjunctions of 1–3 literals
/// over variables `1..=num_vars`, signs and variables drawn from `rng`.
fn random_formula(rng: &mut Rng, num_vars: Var, num_clauses: usize) -> Formula {
    let mut clauses = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let width = 1 + rng.below(3) as usize;
        let mut lits = Vec::with_capacity(width);
        for _ in 0..width {
            let v = 1 + rng.below(num_vars as u64) as Var;
            let var = Formula::var(v);
            lits.push(if rng.chance(50) {
                Formula::not(var)
            } else {
                var
            });
        }
        clauses.push(Formula::or(lits));
    }
    Formula::and(clauses)
}

/// A seeded problem: a formula over `1..=num_vars` (4 to 12 variables) and
/// the objective over all of them.
fn problem(seed: u64) -> (Formula, Vec<Var>) {
    let mut rng = Rng::new(seed);
    let num_vars = 4 + rng.below(9) as Var;
    let num_clauses = num_vars as usize + rng.below(8) as usize;
    let formula = random_formula(&mut rng, num_vars, num_clauses);
    (formula, (1..=num_vars).collect())
}

/// The smallest number of true variables over all assignments that satisfy
/// `formula` and pass `accept`, by enumerating every assignment.
fn brute_force_minimum(
    formula: &Formula,
    vars: &[Var],
    accept: impl Fn(&[Var]) -> bool,
) -> Option<usize> {
    let n = vars.len();
    let mut assignment = vec![false; n + 1];
    (0u32..1 << n)
        .filter_map(|mask| {
            for (i, slot) in assignment[1..].iter_mut().enumerate() {
                *slot = mask & (1 << i) != 0;
            }
            let true_vars: Vec<Var> = vars
                .iter()
                .copied()
                .filter(|&v| assignment[v as usize])
                .collect();
            (formula.eval(&assignment) && accept(&true_vars)).then_some(true_vars.len())
        })
        .min()
}

/// Whether setting exactly `true_vars` satisfies `formula`.
fn satisfies(formula: &Formula, vars: &[Var], true_vars: &[Var]) -> bool {
    let mut assignment = vec![false; vars.len() + 1];
    for &v in true_vars {
        assignment[v as usize] = true;
    }
    formula.eval(&assignment)
}

/// Run the optimizer and check its answer against brute force: an optimum
/// of the right cost that satisfies the formula and is accepted, or
/// `Unsatisfiable` exactly when no accepted assignment fits under the bound.
fn check(
    formula: &Formula,
    objective: &[Var],
    options: &MinOnesOptions,
    accept: impl Fn(&[Var]) -> bool,
    context: &str,
) -> Option<usize> {
    let minimum = brute_force_minimum(formula, objective, &accept);
    let expected = minimum.filter(|&m| options.upper_bound.is_none_or(|k| m <= k));
    let mut stats = SolverStats::default();
    match minimize_ones_with_theory_into(formula, objective, options, &accept, &mut stats) {
        Ok(solution) => {
            assert_eq!(Some(solution.cost), expected, "optimal cost ({context})");
            assert_eq!(solution.cost, solution.true_vars.len(), "{context}");
            assert!(
                satisfies(formula, objective, &solution.true_vars),
                "the returned vars satisfy the formula ({context})"
            );
            assert!(accept(&solution.true_vars), "{context}");
        }
        Err(e) => {
            assert_eq!(e, SolverError::Unsatisfiable, "{context}");
            assert_eq!(
                expected, None,
                "Unsatisfiable only without a fit ({context})"
            );
        }
    }
    minimum
}

#[test]
fn the_descent_finds_the_true_minimum() {
    for seed in 0..60u64 {
        let (formula, objective) = problem(seed);
        for binary_search in [true, false] {
            let options = MinOnesOptions {
                binary_search,
                ..Default::default()
            };
            check(
                &formula,
                &objective,
                &options,
                |_| true,
                &format!("seed {seed}, binary_search {binary_search}"),
            );
        }
    }
}

#[test]
fn a_rejecting_theory_yields_the_minimum_among_accepted_assignments() {
    // A pure theory: reject assignments whose true-variable sum is
    // divisible by 3 (the empty assignment included).
    let theory = |true_vars: &[Var]| true_vars.iter().sum::<Var>() % 3 != 0;
    let mut moved = 0usize;
    for seed in 0..60u64 {
        let (formula, objective) = problem(0xDEAD ^ seed);
        for binary_search in [true, false] {
            let options = MinOnesOptions {
                binary_search,
                ..Default::default()
            };
            let accepted = check(
                &formula,
                &objective,
                &options,
                theory,
                &format!("seed {seed}, binary_search {binary_search}, with theory"),
            );
            if accepted != brute_force_minimum(&formula, &objective, |_| true) {
                moved += 1;
            }
        }
    }
    assert!(moved > 0, "the theory must change some optimum");
}

#[test]
fn an_upper_bound_is_unsatisfiable_exactly_above_the_minimum() {
    let theory = |true_vars: &[Var]| true_vars.first().copied().unwrap_or(1) % 2 != 0;
    let (mut fits, mut misses) = (0usize, 0usize);
    for seed in 0..30u64 {
        let (formula, objective) = problem(0xBEEF ^ seed);
        for upper_bound in 0..=objective.len() {
            for binary_search in [true, false] {
                let options = MinOnesOptions {
                    binary_search,
                    upper_bound: Some(upper_bound),
                    ..Default::default()
                };
                let minimum = check(
                    &formula,
                    &objective,
                    &options,
                    theory,
                    &format!(
                        "seed {seed}, upper_bound {upper_bound}, binary_search {binary_search}"
                    ),
                );
                match minimum {
                    Some(m) if m <= upper_bound => fits += 1,
                    _ => misses += 1,
                }
            }
        }
    }
    assert!(fits > 0 && misses > 0, "both verdicts are covered");
}
