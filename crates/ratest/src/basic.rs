//! Algorithm 1 (`Basic`): solve the smallest **counterexample** problem by
//! iterating over every differing output tuple, solving the smallest witness
//! problem for each, and returning the global minimum.
//!
//! Compared to `Optσ` this pays two costs the paper's Table 4 quantifies:
//! provenance is computed for *all* output tuples of `Q1 − Q2` and
//! `Q2 − Q1` (not just one), and a separate solver instance runs per tuple.
//! In exchange it is guaranteed to reach the global SCP optimum (when the
//! per-witness solver is exact).
//!
//! Most candidates of a scan cannot beat the incumbent, and proving that
//! with a bounded solve is most of the scan's work. A candidate whose
//! provenance has the shape of a difference of two SPJU queries,
//! `P ∧ ¬N₁ ∧ … ∧ ¬Nₘ` with monotone parts, or is a disjunction of a few
//! such conjunctions, has its exact minimum computed directly instead
//! ([`closed_minterm_minimum`]): the smallest witness of monotone
//! provenance is a smallest minterm (Theorem 6), here closed under foreign
//! keys and checked against the negated parts. Such a candidate is skipped
//! when that minimum cannot beat the incumbent, which is exactly when its
//! bounded solve would have found no model.

use crate::encode::{encode_provenance, foreign_key_clauses, VarMap};
use crate::error::{RatestError, Result};
use crate::pipeline::{SolverStrategy, Timings};
use crate::problem::{
    difference_query, verify_candidate, CandidateEval, Counterexample, PairPlans, Witness,
};
use crate::session::{Budget, EventHandle, ExplainEvent, Phase};
use ratest_provenance::annotate::annotate_instrumented;
use ratest_provenance::{BoolExpr, Dnf};
use ratest_ra::ast::Query;
use ratest_ra::eval::{Params, ResultSet};
use ratest_solver::enumerate::enumerate_best;
use ratest_solver::formula::Formula;
use ratest_solver::minones::{minimize_ones_with_theory_into, MinOnesOptions};
use ratest_solver::SolverStats;
use ratest_storage::{Database, ForeignKeyIndex, TupleSelection};
use ratest_telemetry::MetricsHandle;
use std::time::Instant;

/// Options for the `Basic` algorithm.
#[derive(Debug, Clone)]
pub struct BasicOptions {
    /// Solver strategy used for each per-tuple witness problem. The paper's
    /// Algorithm 1 uses bounded model enumeration (`Naive-Δ`); Table 4's
    /// `Basic` row uses the optimizing solver. Both are available.
    pub strategy: SolverStrategy,
    /// Upper bound on the number of differing tuples to process (the number
    /// of output tuples can be large for very wrong queries; the paper
    /// iterates over all of them, which this default preserves).
    pub max_tuples: usize,
    /// Unified resource budget, polled once per candidate tuple and inside
    /// the provenance row loops.
    pub budget: Budget,
    /// Progress events (per-candidate, per-solve).
    pub events: EventHandle,
    /// Metrics sink: solver statistics and candidate counts are folded in
    /// here; the default handle records nothing.
    pub metrics: MetricsHandle,
}

impl Default for BasicOptions {
    fn default() -> Self {
        BasicOptions {
            strategy: SolverStrategy::Optimize,
            max_tuples: usize::MAX,
            budget: Budget::unlimited(),
            events: EventHandle::none(),
            metrics: MetricsHandle::none(),
        }
    }
}

/// Run the `Basic` SCP algorithm.
pub fn smallest_counterexample_basic(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    options: &BasicOptions,
) -> Result<(Counterexample, Timings)> {
    basic_core(
        q1,
        q2,
        &PairPlans::compile(q1, q2, db)?,
        db,
        params,
        None,
        options,
    )
}

/// [`smallest_counterexample_basic`] for the pair compiled on `db`.
/// `results` are both queries' results on `db` when the caller holds them;
/// otherwise they are evaluated here.
pub(crate) fn basic_core(
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    params: &Params,
    results: Option<(&ResultSet, &ResultSet)>,
    options: &BasicOptions,
) -> Result<(Counterexample, Timings)> {
    let mut timings = Timings::default();

    options.events.emit(ExplainEvent::PhaseStarted {
        phase: Phase::RawEval,
    });
    let start = Instant::now();
    let mut evaluated = None;
    let (r1, r2) = plans.results_or_distinguish(
        results,
        &mut evaluated,
        db,
        params,
        &options.budget,
        &MetricsHandle::none(),
    )?;
    timings.raw_eval = start.elapsed();
    if r1.set_eq(r2) {
        return Err(RatestError::QueriesAgreeOnInstance);
    }

    // Annotate both difference directions once ("prov-all" in Figure 4).
    options.events.emit(ExplainEvent::PhaseStarted {
        phase: Phase::Provenance,
    });
    let interrupt = options.budget.interrupt();
    let start = Instant::now();
    let ann_q1_minus_q2 = annotate_instrumented(
        &difference_query(q1, q2, true),
        db,
        params,
        &interrupt,
        &options.metrics,
    )?;
    let ann_q2_minus_q1 = annotate_instrumented(
        &difference_query(q1, q2, false),
        db,
        params,
        &interrupt,
        &options.metrics,
    )?;
    timings.provenance = start.elapsed();

    let cex = smallest_counterexample_from_annotations(
        q1,
        q2,
        plans,
        db,
        params,
        r1,
        r2,
        &ann_q1_minus_q2,
        &ann_q2_minus_q1,
        options,
        &mut timings,
    )?;
    timings.total = timings.raw_eval + timings.provenance + timings.solver;
    Ok((cex, timings))
}

/// The candidate-scan core of `Basic`, operating on *precomputed* difference
/// annotations. Exposed so the batch-grading path can share one reference
/// annotation across a whole cohort: the caller derives
/// `ann(Q1 − Q2)` / `ann(Q2 − Q1)` via
/// [`ratest_provenance::difference_of`] from cached per-query annotations
/// and hands them here, instead of re-annotating the reference per pair.
/// Every candidate is verified through `plans`, the pair compiled on `db`.
#[allow(clippy::too_many_arguments)]
pub fn smallest_counterexample_from_annotations(
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    params: &Params,
    r1: &ratest_ra::eval::ResultSet,
    r2: &ratest_ra::eval::ResultSet,
    ann_q1_minus_q2: &ratest_provenance::AnnotatedResult,
    ann_q2_minus_q1: &ratest_provenance::AnnotatedResult,
    options: &BasicOptions,
    timings: &mut Timings,
) -> Result<Counterexample> {
    // Candidate (tuple, direction) pairs. Iterating only over the tuples
    // that differ on the *full* instance (with their observed direction) is
    // not enough for global optimality: on a sub-instance the membership of
    // a tuple can flip — e.g. dropping every ECON registration of a student
    // moves them from `Q2(D)` into `(Q1 − Q2)(D')`. The difference
    // annotations keep a row (with an exact provenance formula) for every
    // tuple derivable on *any* sub-instance, so iterating over all annotated
    // rows in both directions covers every possible differing tuple.
    let observed: std::collections::HashSet<(Vec<ratest_storage::Value>, bool)> = r1
        .difference(r2)
        .into_iter()
        .map(|t| (t, true))
        .chain(r2.difference(r1).into_iter().map(|t| (t, false)))
        .collect();
    let mut candidates: Vec<(Vec<ratest_storage::Value>, bool)> = Vec::new();
    for (ann, from_q1) in [(ann_q1_minus_q2, true), (ann_q2_minus_q1, false)] {
        for row in ann.rows() {
            candidates.push((row.clone(), from_q1));
        }
    }
    // Try the differences observed on the full instance first so the best
    // bound tightens early.
    candidates.sort_by_key(|c| !observed.contains(c));

    options.events.emit(ExplainEvent::PhaseStarted {
        phase: Phase::Solve,
    });
    let ctx = CandidateEval {
        metrics: options.metrics.clone(),
        interrupt: options.budget.interrupt(),
    };
    let solver_start = Instant::now();
    let foreign_keys = db.foreign_key_index()?;
    let mut best: Option<Counterexample> = None;
    for (index, (tuple, from_q1)) in candidates.into_iter().take(options.max_tuples).enumerate() {
        options.budget.check()?;
        options.events.emit(ExplainEvent::CandidateChecked {
            index,
            best_size: best.as_ref().map(|b| b.size()),
        });
        let annotated = if from_q1 {
            ann_q1_minus_q2
        } else {
            ann_q2_minus_q1
        };
        if let Some(b) = &best {
            if b.size() == 1 {
                break; // a singleton counterexample cannot be beaten
            }
        }
        // Cheap monotonicity prune: a tuple can only flip into `Qa − Qb` on
        // a sub-instance if `Qa` is non-monotone or already produced it.
        if !crate::optsigma::direction_feasible(q1, q2, r1, r2, &tuple, from_q1) {
            continue;
        }
        let Some(prv) = annotated.provenance_of(&tuple) else {
            continue;
        };
        if matches!(prv, BoolExpr::False) {
            continue;
        }
        options.metrics.counter_inc("basic.candidates");
        // Only candidates that can beat the incumbent matter: the solver is
        // bounded at `best − 1` true variables. A candidate whose exact
        // minimum is known to exceed that bound, or not to exist, would
        // come back `Unsatisfiable`, so it is not encoded at all.
        let upper_bound = best.as_ref().map(|b| b.size().saturating_sub(1));
        let limit = upper_bound.unwrap_or(usize::MAX);
        if closed_minimum_within(prv, foreign_keys, limit) == Some(None) {
            continue;
        }
        let mut vars = VarMap::new();
        let mut parts = vec![encode_provenance(prv, &mut vars)];
        parts.extend(foreign_key_clauses(db, &mut vars)?);
        let formula = Formula::and(parts);
        let objective = vars.all_vars();

        let solve_options = MinOnesOptions {
            upper_bound,
            ..Default::default()
        };
        options
            .metrics
            .observe("solver.objective_vars", objective.len() as u64);
        let solved = match options.strategy {
            SolverStrategy::Optimize => {
                let mut solver_stats = SolverStats::default();
                let result = minimize_ones_with_theory_into(
                    &formula,
                    &objective,
                    &solve_options,
                    |_| true,
                    &mut solver_stats,
                );
                // Fold stats in on every path: bounded probes that prove a
                // candidate hopeless (`Unsatisfiable`) do real solver work
                // that `--metrics` totals must not under-count.
                solver_stats.record(&options.metrics);
                match result {
                    Ok(sol) => Some(sol.true_vars),
                    Err(ratest_solver::SolverError::Unsatisfiable) => None,
                    Err(e) => return Err(e.into()),
                }
            }
            SolverStrategy::Enumerate { max_models } => {
                match enumerate_best(&formula, &objective, max_models) {
                    Ok(res) => {
                        res.stats.record(&options.metrics);
                        Some(res.best_true_vars)
                    }
                    Err(ratest_solver::SolverError::Unsatisfiable) => None,
                    Err(e) => return Err(e.into()),
                }
            }
        };
        options.events.emit(ExplainEvent::SolverStats {
            variables: objective.len(),
            solution_size: solved.as_ref().map(|v| v.len()),
        });
        let Some(true_vars) = solved else {
            continue;
        };
        let selection = vars.selection_from_vars(&true_vars);
        let witness = Witness {
            tuple: tuple.clone(),
            from_q1,
            selection: selection.clone(),
        };
        match verify_candidate(plans, db, selection, Some(witness), params, &ctx) {
            Ok(cex) => {
                let better = best.as_ref().map(|b| cex.size() < b.size()).unwrap_or(true);
                if better {
                    best = Some(cex);
                }
            }
            Err(RatestError::Unsupported(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    timings.solver += solver_start.elapsed();

    best.ok_or(RatestError::QueriesAgreeOnInstance)
}

/// The most conjunctions [`closed_minterm_minimum`] splits a candidate's
/// provenance into, and the most minterms it expands one conjunction's
/// monotone part into, before leaving the candidate to the solver.
const BRANCH_CAP: usize = 16;
const MINTERM_CAP: usize = 256;

/// The exact minimum of `Prv ∧ FK` over the tuples `Prv` mentions and
/// their foreign-key ancestors — what `minimize_ones` finds for the
/// candidate's encoding — when `prv` has the shape `P ∧ ¬N₁ ∧ … ∧ ¬Nₘ`
/// with `P` and every `Nᵢ` monotone and `P`'s DNF within a small cap.
/// That is the shape of every tuple's provenance in the difference of two
/// SPJU queries. Provenance with nested differences is first rewritten,
/// by pushing each negation down to the largest monotone subformulas
/// beneath it, into a disjunction of a few such conjunctions, whose
/// minimum is the smallest of theirs.
///
/// Returns `None` for any other shape, `Some(None)` when no sub-instance
/// satisfies the formula, and `Some(Some(k))` for a minimum of `k` tuples.
///
/// Every model of a conjunction contains a minterm of `P` and, being
/// closed under foreign keys, that minterm's closure. The closure
/// satisfies `P` and the keys, and, as a subset of a model that falsifies
/// every monotone `Nᵢ`, falsifies them too. So the conjunction's minimum
/// is the smallest closure of a `P`-minterm that falsifies every `Nᵢ`.
pub fn closed_minterm_minimum(
    prv: &BoolExpr,
    foreign_keys: &ForeignKeyIndex,
) -> Option<Option<usize>> {
    closed_minimum_within(prv, foreign_keys, usize::MAX)
}

/// [`closed_minterm_minimum`] among sub-instances of at most `limit`
/// tuples: `Some(None)` when none of them satisfies `prv`. Minterms
/// larger than the limit are dropped as they are expanded, so a tight
/// limit keeps the expansion small.
fn closed_minimum_within(
    prv: &BoolExpr,
    foreign_keys: &ForeignKeyIndex,
    mut limit: usize,
) -> Option<Option<usize>> {
    let mut smallest = None;
    for branch in conjunctions(prv, false)? {
        // The DNF of `P`, the conjunction of the positive parts.
        let mut minterms = Dnf::tautology();
        for part in branch.positive {
            let part = Dnf::from_monotone_within(part, MINTERM_CAP, limit).ok()?;
            minterms = minterms.and(&part, MINTERM_CAP, limit).ok()?;
        }
        for minterm in minterms.minterms() {
            let mut closure = TupleSelection::from_ids(minterm.iter().copied());
            closure.close_under(foreign_keys);
            if closure.len() > limit {
                continue;
            }
            let present = |id| closure.contains(id);
            if branch.negated.iter().all(|n| !n.eval(&present)) {
                smallest = Some(closure.len());
                // Only a strictly smaller closure improves on this one.
                match closure.len().checked_sub(1) {
                    Some(below) => limit = below,
                    None => return Some(smallest),
                }
            }
        }
    }
    Some(smallest)
}

/// One conjunction `P₁ ∧ … ∧ ¬N₁ ∧ …` of monotone subformulas.
#[derive(Clone, Default)]
struct Conjunction<'a> {
    positive: Vec<&'a BoolExpr>,
    negated: Vec<&'a BoolExpr>,
}

/// `expr` (or `¬expr`, when `negate`) as a disjunction of at most
/// [`BRANCH_CAP`] conjunctions of monotone subformulas and their
/// negations, or `None` when that takes more.
fn conjunctions(expr: &BoolExpr, negate: bool) -> Option<Vec<Conjunction<'_>>> {
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
        (BoolExpr::Not(inner), _) => conjunctions(inner, !negate),
        // A conjunction: every combination of one branch per part.
        (BoolExpr::And(parts), false) | (BoolExpr::Or(parts), true) => {
            let mut product = vec![Conjunction::default()];
            for part in parts {
                let branches = conjunctions(part, negate)?;
                if branches.len() * product.len() > BRANCH_CAP {
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
                union.extend(conjunctions(part, negate)?);
                if union.len() > BRANCH_CAP {
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
    use crate::optsigma::{smallest_witness_optsigma, OptSigmaOptions};
    use ratest_ra::testdata;

    #[test]
    fn basic_reaches_the_global_optimum_on_example1() {
        let db = testdata::figure1_db();
        let (cex, timings) = smallest_counterexample_basic(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
            &BasicOptions::default(),
        )
        .unwrap();
        assert_eq!(cex.size(), 3);
        assert!(timings.provenance.as_nanos() > 0);
    }

    #[test]
    fn basic_and_optsigma_agree_on_size_for_the_running_example() {
        // The paper observes that in practice Optσ's witness has the same size
        // as Basic's global optimum (Table 4).
        let db = testdata::figure1_db();
        let (b, _) = smallest_counterexample_basic(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
            &BasicOptions::default(),
        )
        .unwrap();
        let (o, _) = smallest_witness_optsigma(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
            &OptSigmaOptions::default(),
        )
        .unwrap();
        assert_eq!(b.size(), o.size());
    }

    #[test]
    fn naive_enumeration_strategy_works() {
        let db = testdata::figure1_db();
        let (cex, _) = smallest_counterexample_basic(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
            &BasicOptions {
                strategy: SolverStrategy::Enumerate { max_models: 128 },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(cex.size() >= 3);
    }

    #[test]
    fn identical_queries_are_rejected() {
        let db = testdata::figure1_db();
        let q = testdata::example1_q1();
        assert!(matches!(
            smallest_counterexample_basic(&q, &q, &db, &Params::new(), &BasicOptions::default()),
            Err(RatestError::QueriesAgreeOnInstance)
        ));
    }
}
