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
//! second time; inputs with a difference are evaluated. When `Q1'` and `Q2'`
//! are the same query (a wrong HAVING threshold, the error of the paper's
//! Example 5), they agree on every instance, so `Agg-Opt` declines before
//! compiling or comparing anything, as it would after comparing their rows.

use super::TheoryCheck;
use crate::error::{RatestError, Result};
use crate::optsigma::optsigma_core;
use crate::pipeline::{RatestOptions, SolverStrategy, Timings};
use crate::problem::{verify_candidate, CandidateEval, Counterexample, EvaluatedPair, PairPlans};
use ratest_provenance::aggprov::AggregateProvenance;
use ratest_ra::eval::Params;
use ratest_storage::TupleSelection;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::time::Instant;

/// `Agg-Opt`'s search over the pair's aggregate provenance `p1`, `p2`
/// (built on the pair's instance under its original parameters).
/// Identical inner queries are declined at once; otherwise the stripped
/// queries' rows on the instance come from the provenance when it holds
/// them and are evaluated here when it does not. The inner `Optσ` run
/// always optimizes, with the selection pushed down; its phases' times
/// (and the inner pair's compilation and evaluation, as raw evaluation) are
/// added to `timings`.
pub(crate) fn agg_opt_core(
    pair: &EvaluatedPair,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    options: &RatestOptions,
    timings: &mut Timings,
) -> Result<Counterexample> {
    let declined = || {
        RatestError::Unsupported(
            "the aggregation inputs agree on the instance; Agg-Opt does not apply".into(),
        )
    };
    if p1.inner() == p2.inner() {
        return Err(declined());
    }
    let EvaluatedPair {
        q1,
        q2,
        plans,
        db,
        params: original_params,
        ..
    } = *pair;
    let param_names: BTreeSet<String> = q1.params().union(&q2.params()).cloned().collect();
    let chosen: RefCell<Params> = RefCell::new(original_params.clone());

    // Acceptance check = line 13 of Algorithm 3: the candidate must make the
    // *original* queries disagree under some parameter setting.
    let theory = TheoryCheck::new(p1, p2);
    let accept = |selection: &TupleSelection| -> bool {
        match theory.differing_setting(selection, &param_names, original_params) {
            Some(setting) => {
                *chosen.borrow_mut() = setting;
                true
            }
            None => false,
        }
    };

    // Run Optσ on the stripped SPJUD queries with the acceptance hook,
    // starting from their rows on the instance.
    let inner_options = RatestOptions {
        strategy: SolverStrategy::Optimize,
        ..options.clone()
    };
    // Compiling the inner pair, and evaluating it when the provenance lacks
    // its rows, is raw evaluation, as for the pair itself.
    let start = Instant::now();
    let searched = PairPlans::compile(p1.inner(), p2.inner(), db).and_then(|inner| {
        inner.check_union_compatible()?;
        let evaluated;
        let (r1, r2) = match p1.inner_rows().zip(p2.inner_rows()) {
            Some(rows) => rows,
            None => {
                evaluated =
                    inner.distinguish(db, original_params, &options.budget, &options.metrics)?;
                (&evaluated.0, &evaluated.1)
            }
        };
        timings.raw_eval += start.elapsed();
        let inner_pair = EvaluatedPair {
            q1: p1.inner(),
            q2: p2.inner(),
            plans: &inner,
            db,
            params: original_params,
            r1,
            r2,
            q1_annotation: None,
        };
        optsigma_core(&inner_pair, &inner_options, accept, timings)
    });
    theory.record(&options.metrics);
    let inner_cex = searched.map_err(|e| match e {
        RatestError::QueriesAgreeOnInstance => declined(),
        other => other,
    })?;

    // Rebuild the counterexample against the *original* aggregate queries
    // with the chosen parameter setting λ'.
    let params = chosen.into_inner();
    let ctx = CandidateEval {
        metrics: options.metrics.clone(),
        interrupt: options.budget.interrupt(),
    };
    verify_candidate(
        plans,
        db,
        inner_cex.subinstance.selection,
        None,
        &params,
        &ctx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_algorithm, Algorithm};
    use ratest_ra::ast::Query;
    use ratest_ra::testdata;
    use ratest_storage::Value;

    fn run(
        q1: &Query,
        q2: &Query,
        algorithm: Algorithm,
        parameters: Params,
    ) -> Result<Counterexample> {
        let options = RatestOptions {
            algorithm,
            parameters,
            ..Default::default()
        };
        Ok(run_algorithm(q1, q2, &testdata::figure1_db(), &options)?.0)
    }

    fn agg_opt(q1: &Query, q2: &Query, parameters: Params) -> Result<Counterexample> {
        run(q1, q2, Algorithm::AggOpt, parameters)
    }

    #[test]
    fn example7_heuristic_finds_a_two_tuple_counterexample() {
        // The paper's Example 7: comparing the aggregation inputs directly
        // yields {Mary, her ECON registration} (or John's equivalent).
        let cex = agg_opt(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            Params::new(),
        )
        .unwrap();
        assert_eq!(cex.size(), 2);
        assert!(!cex.q1_result.set_eq(&cex.q2_result));
    }

    #[test]
    fn heuristic_is_no_worse_than_agg_basic_on_example4() {
        let (q1, q2) = (testdata::example4_q1(), testdata::example4_q2());
        let basic = run(&q1, &q2, Algorithm::AggBasic, Params::new()).unwrap();
        let opt = agg_opt(&q1, &q2, Params::new()).unwrap();
        assert!(opt.size() <= basic.size() + 1);
    }

    #[test]
    fn parameterized_queries_get_a_new_lambda() {
        let mut original = Params::new();
        original.insert("numCS".into(), Value::Int(3));
        let cex = agg_opt(&testdata::example6_q1(), &testdata::example6_q2(), original).unwrap();
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
        let q = testdata::example5_q1();
        assert!(agg_opt(&q, &q, Params::new()).is_err());
    }
}
