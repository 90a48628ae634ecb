//! `Agg-Opt`: the heuristic algorithm for aggregate queries (Algorithm 3).
//!
//! Instead of encoding whole groups, look at the *inputs* of the aggregation:
//! if the group produced by `Q1` differs from `Q2`'s, then the underlying
//! SPJUD queries `Q1'` and `Q2'` (the aggregation inputs) must already differ
//! on some tuple. Run `Optσ` on `(Q1', Q2')`, re-choose any aggregate-value
//! parameters from the candidate counterexample (line 12 of Algorithm 3), and
//! verify against the original aggregate queries; if the check fails, ask the
//! solver for a different model and repeat — exactly the repeat-until loop of
//! the paper.
//!
//! The pair's aggregate provenance has already annotated `Q1'` and `Q2'` on
//! the instance, and the annotated result of a difference-free query holds
//! evaluation's rows in evaluation's order, so `Optσ` starts from those rows
//! ([`AggregateProvenance::inner_rows`]) instead of evaluating the inputs a
//! second time; inputs with a difference are evaluated.

use super::{run_standalone, TheoryCheck};
use crate::error::{RatestError, Result};
use crate::optsigma::{optsigma_core, OptSigmaOptions};
use crate::pipeline::Timings;
use crate::problem::{verify_candidate, CandidateEval, Counterexample, PairPlans};
use ratest_provenance::aggprov::AggregateProvenance;
use ratest_ra::ast::Query;
use ratest_ra::eval::Params;
use ratest_storage::{Database, TupleSelection};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::time::Instant;

/// Options for `Agg-Opt`.
#[derive(Debug, Clone)]
pub struct AggOptOptions {
    /// Options forwarded to the inner `Optσ` run, which works on the
    /// *stripped* aggregation-input queries.
    pub optsigma: OptSigmaOptions,
    /// Extra candidate parameter values tried when re-choosing λ'.
    pub extra_candidates: Vec<i64>,
}

impl Default for AggOptOptions {
    fn default() -> Self {
        AggOptOptions {
            optsigma: OptSigmaOptions::default(),
            extra_candidates: vec![0, 1],
        }
    }
}

/// Run the `Agg-Opt` heuristic on an aggregate query pair.
pub fn smallest_counterexample_agg_opt(
    q1: &Query,
    q2: &Query,
    db: &Database,
    original_params: &Params,
    options: &AggOptOptions,
) -> Result<(Counterexample, Timings)> {
    // Aggregate provenance gives us (a) the stripped inner queries Q1', Q2'
    // and (b) a fast way to re-check the original queries on candidates.
    run_standalone(
        q1,
        q2,
        db,
        original_params,
        &options.optsigma.budget,
        &options.optsigma.metrics,
        |plans, p1, p2| agg_opt_core(q1, q2, plans, db, original_params, p1, p2, options),
    )
}

/// `Agg-Opt`'s search over the pair's aggregate provenance `p1`, `p2`
/// (built on `db` under `original_params`); `plans` is the pair compiled on
/// `db`. The stripped queries' rows on `db` come from the provenance when
/// it holds them, so two identical difference-free inner queries are
/// declined after one set comparison. The returned [`Timings`] cover the
/// search alone: the inner `Optσ` run's evaluation or comparison of the
/// stripped queries' rows, its tuple provenance, and the rest as solver
/// time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn agg_opt_core(
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    original_params: &Params,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    options: &AggOptOptions,
) -> Result<(Counterexample, Timings)> {
    let param_names: BTreeSet<String> = q1.params().union(&q2.params()).cloned().collect();
    let chosen: RefCell<Params> = RefCell::new(original_params.clone());

    // Acceptance check = line 13 of Algorithm 3: the candidate must make the
    // *original* queries disagree under some parameter setting.
    let theory = TheoryCheck::new(p1, p2);
    let accept = |selection: &TupleSelection| -> bool {
        let candidate = theory.candidate(selection);
        for setting in theory.param_settings(
            &candidate,
            &param_names,
            original_params,
            &options.extra_candidates,
        ) {
            if theory.differ(&candidate, &setting).unwrap_or(false) {
                *chosen.borrow_mut() = setting;
                return true;
            }
        }
        false
    };

    // Run Optσ on the stripped SPJUD queries with the acceptance hook,
    // starting from their rows on `db`, which the aggregate provenance
    // already derived.
    let start = Instant::now();
    let searched = PairPlans::compile(&p1.inner, &p2.inner, db).and_then(|inner| {
        inner.check_union_compatible()?;
        optsigma_core(
            &p1.inner,
            &p2.inner,
            &inner,
            db,
            original_params,
            p1.inner_rows.as_ref().zip(p2.inner_rows.as_ref()),
            &options.optsigma,
            accept,
        )
    });
    theory.record(&options.optsigma.metrics);
    let (inner_cex, inner_timings) = searched.map_err(|e| match e {
        RatestError::QueriesAgreeOnInstance => RatestError::Unsupported(
            "the aggregation inputs agree on the instance; Agg-Opt does not apply".into(),
        ),
        other => other,
    })?;
    let timings = Timings {
        raw_eval: inner_timings.raw_eval,
        provenance: inner_timings.provenance,
        solver: start
            .elapsed()
            .saturating_sub(inner_timings.raw_eval)
            .saturating_sub(inner_timings.provenance),
        ..Timings::default()
    };

    // Rebuild the counterexample against the *original* aggregate queries
    // with the chosen parameter setting λ'.
    let params = chosen.into_inner();
    let ctx = CandidateEval {
        metrics: options.optsigma.metrics.clone(),
        interrupt: options.optsigma.budget.interrupt(),
    };
    let cex = verify_candidate(
        plans,
        db,
        inner_cex.subinstance.selection,
        None,
        &params,
        &ctx,
    )?;
    Ok((cex, timings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::agg_basic::{smallest_counterexample_agg_basic, AggBasicOptions};
    use ratest_ra::testdata;
    use ratest_storage::Value;

    #[test]
    fn example7_heuristic_finds_a_two_tuple_counterexample() {
        // The paper's Example 7: comparing the aggregation inputs directly
        // yields {Mary, her ECON registration} (or John's equivalent).
        let db = testdata::figure1_db();
        let (cex, _) = smallest_counterexample_agg_opt(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            &db,
            &Params::new(),
            &AggOptOptions::default(),
        )
        .unwrap();
        assert_eq!(cex.size(), 2);
        assert!(!cex.q1_result.set_eq(&cex.q2_result));
    }

    #[test]
    fn heuristic_is_no_worse_than_agg_basic_on_example4() {
        let db = testdata::figure1_db();
        let (basic, _) = smallest_counterexample_agg_basic(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            &db,
            &Params::new(),
            &AggBasicOptions::default(),
        )
        .unwrap();
        let (opt, _) = smallest_counterexample_agg_opt(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            &db,
            &Params::new(),
            &AggOptOptions::default(),
        )
        .unwrap();
        assert!(opt.size() <= basic.size() + 1);
    }

    #[test]
    fn parameterized_queries_get_a_new_lambda() {
        let db = testdata::figure1_db();
        let mut original = Params::new();
        original.insert("numCS".into(), Value::Int(3));
        let (cex, _) = smallest_counterexample_agg_opt(
            &testdata::example6_q1(),
            &testdata::example6_q2(),
            &db,
            &original,
            &AggOptOptions::default(),
        )
        .unwrap();
        assert!(cex.size() <= 4);
        // Verification with the recorded parameters must hold.
        let r1 = ratest_ra::eval::evaluate_with_params(
            &testdata::example6_q1(),
            cex.database(),
            &cex.parameters,
        )
        .unwrap();
        let r2 = ratest_ra::eval::evaluate_with_params(
            &testdata::example6_q2(),
            cex.database(),
            &cex.parameters,
        )
        .unwrap();
        assert!(!r1.set_eq(&r2));
    }

    #[test]
    fn identical_queries_are_rejected() {
        let db = testdata::figure1_db();
        let q = testdata::example5_q1();
        assert!(smallest_counterexample_agg_opt(
            &q,
            &q,
            &db,
            &Params::new(),
            &AggOptOptions::default()
        )
        .is_err());
    }
}
