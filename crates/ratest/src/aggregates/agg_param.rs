//! `Agg-Param`: the smallest *parameterized* counterexample (Definition 3,
//! Example 6).
//!
//! Constants compared against aggregate values (HAVING `COUNT(...) >= 3`)
//! force counterexamples to contain whole groups. Replacing those constants
//! with parameters lets the search pick a different threshold λ' together
//! with the sub-instance, shrinking the counterexample dramatically (the
//! paper reports ~70 % smaller counterexamples on TPC-H Q18 for a negligible
//! runtime increase — Figure 7).

use super::agg_basic::GroupSearch;
use crate::error::{RatestError, Result};
use crate::pipeline::{RatestOptions, Timings};
use crate::problem::{Counterexample, EvaluatedPair};
use ratest_provenance::aggprov::AggregateProvenance;
use std::collections::BTreeSet;

/// `Agg-Param`'s search over the pair's aggregate provenance `p1`, `p2`
/// (built on the pair's instance under its original parameter setting λ).
/// It is `Agg-Basic`'s group search with the queries' parameters free: a
/// model is accepted under the first setting λ' that makes the queries
/// disagree, and its counterexample records that λ' in
/// [`Counterexample::parameters`]. The search's time is added to
/// `timings.solver`.
pub(crate) fn agg_param_core(
    pair: &EvaluatedPair,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    options: &RatestOptions,
    timings: &mut Timings,
) -> Result<Counterexample> {
    let free: BTreeSet<String> = pair.q1.params().union(&pair.q2.params()).cloned().collect();
    let search = GroupSearch::new(pair, p1, p2, &free, options);
    search.scan(options, timings)?.ok_or_else(|| {
        RatestError::Unsupported(
            "no candidate group yields a distinguishing parameterized sub-instance".into(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_algorithm, Algorithm};
    use ratest_ra::ast::Query;
    use ratest_ra::eval::Params;
    use ratest_ra::testdata;
    use ratest_storage::Value;

    fn run(q1: &Query, q2: &Query, algorithm: Algorithm, parameters: Params) -> Counterexample {
        let options = RatestOptions {
            algorithm,
            parameters,
            ..Default::default()
        };
        run_algorithm(q1, q2, &testdata::figure1_db(), &options)
            .unwrap()
            .0
    }

    fn original_params() -> Params {
        let mut p = Params::new();
        p.insert("numCS".into(), Value::Int(3));
        p
    }

    #[test]
    fn example6_parameterization_shrinks_the_counterexample() {
        // Non-parameterized (Example 5): 4 tuples needed.
        let fixed = run(
            &testdata::example5_q1(),
            &testdata::example5_q2(),
            Algorithm::AggBasic,
            Params::new(),
        );
        // Parameterized (Example 6): 2 tuples suffice (Mary + her ECON
        // registration with @numCS = 1).
        let param = run(
            &testdata::example6_q1(),
            &testdata::example6_q2(),
            Algorithm::AggParam,
            original_params(),
        );
        assert!(param.size() < fixed.size());
        assert!(param.size() <= 2, "got {}", param.size());
        assert!(!param.parameters.is_empty(), "λ' must be recorded");
        assert!(!param.q1_result.set_eq(&param.q2_result));
    }

    #[test]
    fn chosen_parameters_make_the_verification_pass() {
        let cex = run(
            &testdata::example6_q1(),
            &testdata::example6_q2(),
            Algorithm::AggParam,
            original_params(),
        );
        // Re-evaluate explicitly with the recorded λ'.
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
    fn works_when_there_are_no_parameters_at_all() {
        // Degenerates to Agg-Basic behaviour.
        let cex = run(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            Algorithm::AggParam,
            Params::new(),
        );
        assert!(cex.size() <= 2);
    }
}
