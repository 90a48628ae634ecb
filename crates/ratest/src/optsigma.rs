//! Algorithm 2 (`Optσ`): the optimized smallest-witness algorithm.
//!
//! 1. pick **one** tuple `t` in the symmetric difference of the two results,
//! 2. add a selection `σ_{A1=t.A1 ∧ …}` on top of `Q1 − Q2` and push it down
//!    (the paper relies on the DBMS optimizer for this; here the rewrite is
//!    explicit — see `ratest_ra::rewrite`),
//! 3. compute how-provenance for that single tuple,
//! 4. hand the provenance plus foreign-key implications to the optimizing
//!    min-ones solver,
//! 5. the model's true variables are the witness; materialize and verify it.

use crate::encode::{encode_provenance, foreign_key_clauses, VarMap};
use crate::error::{RatestError, Result};
use crate::pipeline::{SolverStrategy, Timings};
use crate::problem::{
    difference_query, differing_tuples, verify_candidate, CandidateEval, Counterexample, PairPlans,
    Witness,
};
use crate::session::{Budget, EventHandle, ExplainEvent, Phase};
use ratest_provenance::annotate::annotate_instrumented;
use ratest_ra::ast::Query;
use ratest_ra::builder::QueryBuilder;
use ratest_ra::eval::{Params, ResultSet};
use ratest_ra::expr::Expr;
use ratest_ra::rewrite::push_selections_down;
use ratest_ra::typecheck::output_schema;
use ratest_solver::enumerate::enumerate_best;
use ratest_solver::formula::Formula;
use ratest_solver::minones::{minimize_ones_with_theory_into, MinOnesOptions};
use ratest_solver::SolverStats;
use ratest_storage::{Database, TupleSelection, Value};
use ratest_telemetry::MetricsHandle;
use std::time::Instant;

/// Options for the `Optσ` algorithm.
#[derive(Debug, Clone)]
pub struct OptSigmaOptions {
    /// Whether to push the tuple-equality selection down the difference query
    /// before computing provenance (`prov-sp` vs `prov-all` in Figure 4).
    pub selection_pushdown: bool,
    /// Which solver strategy to use for the min-ones step.
    pub strategy: SolverStrategy,
    /// Unified resource budget, polled once per witness direction / solve
    /// and inside the provenance row loops.
    pub budget: Budget,
    /// Progress events (per-phase, per-solve).
    pub events: EventHandle,
    /// Metrics sink: solver statistics are folded in here; the default
    /// handle records nothing.
    pub metrics: MetricsHandle,
}

impl Default for OptSigmaOptions {
    fn default() -> Self {
        OptSigmaOptions {
            selection_pushdown: true,
            strategy: SolverStrategy::Optimize,
            budget: Budget::unlimited(),
            events: EventHandle::none(),
            metrics: MetricsHandle::none(),
        }
    }
}

/// Run `Optσ` for the query pair, returning the counterexample and the
/// per-phase timing breakdown.
pub fn smallest_witness_optsigma(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    options: &OptSigmaOptions,
) -> Result<(Counterexample, Timings)> {
    smallest_witness_optsigma_accepting(q1, q2, db, params, options, |_| true)
}

/// `Optσ` with an additional acceptance predicate over candidate tuple
/// selections — the hook Algorithm 3's repeat-until loop uses to reject
/// candidates that fail to distinguish the original aggregate queries.
pub fn smallest_witness_optsigma_accepting<F>(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    options: &OptSigmaOptions,
    accept: F,
) -> Result<(Counterexample, Timings)>
where
    F: FnMut(&TupleSelection) -> bool,
{
    let plans = PairPlans::compile(q1, q2, db)?;
    optsigma_core(q1, q2, &plans, db, params, None, options, accept)
}

/// [`smallest_witness_optsigma_accepting`] for the pair compiled on `db`,
/// starting from `results`, the two queries' results on `db` when the
/// caller already holds them (the pair's union compatibility checked); with
/// `None` the queries are evaluated here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn optsigma_core<F>(
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    params: &Params,
    results: Option<(&ResultSet, &ResultSet)>,
    options: &OptSigmaOptions,
    mut accept: F,
) -> Result<(Counterexample, Timings)>
where
    F: FnMut(&TupleSelection) -> bool,
{
    let mut timings = Timings::default();

    // Phase 1: raw evaluation of both queries.
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
        &options.metrics,
    )?;
    timings.raw_eval = start.elapsed();
    let diffs = differing_tuples(r1, r2);
    let Some((tuple, from_q1)) = diffs.first().cloned() else {
        return Err(RatestError::QueriesAgreeOnInstance);
    };

    // Phase 2 + 3: provenance of the chosen tuple, then min-ones. The
    // witness is solved for the direction observed on the full instance
    // *and* for the flipped direction: on a sub-instance the tuple's
    // membership can flip (e.g. dropping every ECON registration of a
    // student moves them from `Q2(D)` into `(Q1 − Q2)(D')`), and the
    // flipped witness is sometimes strictly smaller. Both remain
    // single-tuple provenance computations, preserving Optσ's cost profile.
    let mut selection: Option<(TupleSelection, bool)> = None;
    for (index, direction) in [from_q1, !from_q1].into_iter().enumerate() {
        options.budget.check()?;
        if direction != from_q1 && !direction_feasible(q1, q2, r1, r2, &tuple, direction) {
            continue;
        }
        options.events.emit(ExplainEvent::CandidateChecked {
            index,
            best_size: selection.as_ref().map(|(best, _)| best.len()),
        });
        options.events.emit(ExplainEvent::PhaseStarted {
            phase: Phase::Provenance,
        });
        let start = Instant::now();
        let provenance = provenance_for_tuple(q1, q2, db, params, &tuple, direction, options)?;
        timings.provenance += start.elapsed();
        if matches!(provenance, ratest_provenance::BoolExpr::False) {
            continue;
        }

        options.events.emit(ExplainEvent::PhaseStarted {
            phase: Phase::Solve,
        });
        let start = Instant::now();
        let mut vars = VarMap::new();
        let prv_formula = encode_provenance(&provenance, &mut vars);
        let mut parts = vec![prv_formula];
        parts.extend(foreign_key_clauses(db, &mut vars)?);
        let formula = Formula::and(parts);
        let objective = vars.all_vars();

        options.metrics.counter_inc("optsigma.directions");
        options
            .metrics
            .observe("solver.objective_vars", objective.len() as u64);
        let candidate = match options.strategy {
            SolverStrategy::Optimize => {
                let mut solver_stats = SolverStats::default();
                let result = minimize_ones_with_theory_into(
                    &formula,
                    &objective,
                    &MinOnesOptions::default(),
                    |true_vars| accept(&vars.selection_from_vars(true_vars)),
                    &mut solver_stats,
                );
                // Record on every path so aborted searches (unsatisfiable
                // directions, exhausted rejection budgets) still count.
                solver_stats.record(&options.metrics);
                match result {
                    Ok(sol) => Some(vars.selection_from_vars(&sol.true_vars)),
                    Err(ratest_solver::SolverError::Unsatisfiable) => None,
                    Err(e) => return Err(e.into()),
                }
            }
            SolverStrategy::Enumerate { max_models } => {
                match enumerate_best(&formula, &objective, max_models) {
                    Ok(res) => {
                        res.stats.record(&options.metrics);
                        let sel = vars.selection_from_vars(&res.best_true_vars);
                        accept(&sel).then_some(sel)
                    }
                    Err(ratest_solver::SolverError::Unsatisfiable) => None,
                    Err(e) => return Err(e.into()),
                }
            }
        };
        timings.solver += start.elapsed();
        options.events.emit(ExplainEvent::SolverStats {
            variables: objective.len(),
            solution_size: candidate.as_ref().map(|sel| sel.len()),
        });

        // Keep the observed direction on ties so the witness reflects the
        // disagreement the student actually saw.
        if let Some(sel) = candidate {
            let better = selection
                .as_ref()
                .map(|(best, _)| sel.len() < best.len())
                .unwrap_or(true);
            if better {
                selection = Some((sel, direction));
            }
        }
    }
    let Some((selection, direction)) = selection else {
        return Err(RatestError::Unsupported(
            "no direction of the chosen tuple admits an acceptable witness".into(),
        ));
    };

    // Phase 4: materialize and verify.
    let witness = Witness {
        tuple: tuple.clone(),
        from_q1: direction,
        selection: selection.clone(),
    };
    let ctx = CandidateEval {
        metrics: options.metrics.clone(),
        interrupt: options.budget.interrupt(),
    };
    let cex = verify_candidate(plans, db, selection, Some(witness), params, &ctx)?;
    timings.total = timings.raw_eval + timings.provenance + timings.solver;
    Ok((cex, timings))
}

/// Cheap necessary condition for `t ∈ (Qa − Qb)(D')` to be achievable on
/// some sub-instance: when `Qa` is monotone (difference- and
/// aggregate-free), `Qa(D') ⊆ Qa(D)`, so a tuple outside `Qa(D)` can never
/// enter the difference in that direction. Used to skip the flipped-direction
/// witness search without computing any provenance.
pub(crate) fn direction_feasible(
    q1: &Query,
    q2: &Query,
    r1: &ratest_ra::eval::ResultSet,
    r2: &ratest_ra::eval::ResultSet,
    tuple: &[Value],
    from_q1: bool,
) -> bool {
    let (qa, ra) = if from_q1 { (q1, r1) } else { (q2, r2) };
    qa.has_difference() || qa.has_aggregates() || ra.contains(tuple)
}

/// Compute `Prv_{Qa − Qb}(t)` where `(Qa, Qb)` is `(Q1, Q2)` or `(Q2, Q1)`
/// depending on which side the tuple came from, optionally pushing the
/// tuple-equality selection down first.
pub fn provenance_for_tuple(
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    tuple: &[Value],
    from_q1: bool,
    options: &OptSigmaOptions,
) -> Result<ratest_provenance::BoolExpr> {
    let diff = difference_query(q1, q2, from_q1);
    let schema = output_schema(&diff, db)?;
    // The tuple-equality selection identifies columns by name; when the
    // output schema has duplicate column names (e.g. a projection onto
    // `a.name, b.name` whose aliases both collapse to `name`) the selection
    // would be ambiguous, so fall back to annotating the full difference.
    let unique_names = schema
        .names()
        .collect::<std::collections::HashSet<_>>()
        .len()
        == schema.arity();
    let query = if unique_names {
        let predicate = tuple_equality_predicate(&schema, tuple);
        let selected = QueryBuilder::from_query(diff).select(predicate).build();
        if options.selection_pushdown {
            push_selections_down(&selected, db)?
        } else {
            selected
        }
    } else {
        diff
    };
    let annotated = annotate_instrumented(
        &query,
        db,
        params,
        &options.budget.interrupt(),
        &options.metrics,
    )?;
    Ok(annotated
        .provenance_of(tuple)
        .cloned()
        .unwrap_or(ratest_provenance::BoolExpr::False))
}

/// Build the predicate `A1 = t.A1 ∧ A2 = t.A2 ∧ …` selecting exactly `t`.
pub fn tuple_equality_predicate(schema: &ratest_storage::Schema, tuple: &[Value]) -> Expr {
    let conjuncts: Vec<Expr> = schema
        .names()
        .zip(tuple.iter())
        .map(|(name, v)| Expr::Column(name.to_owned()).eq(Expr::Literal(v.clone())))
        .collect();
    Expr::conjunction(conjuncts).unwrap_or(Expr::Literal(Value::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_ra::testdata;

    #[test]
    fn example1_finds_a_three_tuple_counterexample() {
        let db = testdata::figure1_db();
        for pushdown in [true, false] {
            let options = OptSigmaOptions {
                selection_pushdown: pushdown,
                ..Default::default()
            };
            let (cex, timings) = smallest_witness_optsigma(
                &testdata::example1_q1(),
                &testdata::example1_q2(),
                &db,
                &Params::new(),
                &options,
            )
            .unwrap();
            assert_eq!(cex.size(), 3, "pushdown={pushdown}");
            assert!(!cex.q1_result.set_eq(&cex.q2_result));
            assert!(timings.total >= timings.solver);
        }
    }

    #[test]
    fn witness_records_the_differing_tuple() {
        let db = testdata::figure1_db();
        let (cex, _) = smallest_witness_optsigma(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
            &OptSigmaOptions::default(),
        )
        .unwrap();
        let w = cex.witness.expect("Optσ always produces a witness");
        assert!(!w.from_q1, "the wrong answers are produced by Q2");
        assert_eq!(w.tuple.len(), 2);
        assert_eq!(w.size(), 3);
    }

    #[test]
    fn enumeration_strategy_is_supported_but_may_be_suboptimal() {
        let db = testdata::figure1_db();
        let (cex_opt, _) = smallest_witness_optsigma(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
            &OptSigmaOptions::default(),
        )
        .unwrap();
        let (cex_naive, _) = smallest_witness_optsigma(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
            &OptSigmaOptions {
                strategy: SolverStrategy::Enumerate { max_models: 128 },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(cex_naive.size() >= cex_opt.size());
    }

    #[test]
    fn equivalent_queries_are_reported() {
        let db = testdata::figure1_db();
        let q = testdata::example1_q2();
        assert!(matches!(
            smallest_witness_optsigma(&q, &q, &db, &Params::new(), &OptSigmaOptions::default()),
            Err(RatestError::QueriesAgreeOnInstance)
        ));
    }

    #[test]
    fn matches_brute_force_on_the_toy_instance() {
        let db = testdata::figure1_db();
        let (cex, _) = smallest_witness_optsigma(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
            &OptSigmaOptions::default(),
        )
        .unwrap();
        let brute = crate::problem::brute_force_smallest(
            &testdata::example1_q1(),
            &testdata::example1_q2(),
            &db,
            &Params::new(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(cex.size(), brute.size());
    }

    #[test]
    fn tuple_equality_predicate_selects_exactly_one_tuple() {
        let db = testdata::figure1_db();
        let schema = db.relation("Student").unwrap().schema().clone();
        let pred = tuple_equality_predicate(&schema, &[Value::from("Mary"), Value::from("CS")]);
        let q = ratest_ra::builder::rel("Student").select(pred).build();
        let out = ratest_ra::eval::evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
    }
}
