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
use super::run_standalone;
use crate::error::{RatestError, Result};
use crate::pipeline::Timings;
use crate::problem::{CandidateEval, Counterexample, PairPlans};
use crate::session::{Budget, EventHandle};
use ratest_provenance::aggprov::AggregateProvenance;
use ratest_ra::ast::Query;
use ratest_ra::eval::Params;
use ratest_storage::Database;
use ratest_telemetry::MetricsHandle;
use std::collections::BTreeSet;
use std::time::Instant;

/// Options for `Agg-Param`.
#[derive(Debug, Clone)]
pub struct AggParamOptions {
    /// Maximum number of candidate groups to try.
    pub max_groups: usize,
    /// Extra candidate parameter values to try besides the derived ones.
    pub extra_candidates: Vec<i64>,
    /// Unified resource budget, polled once per candidate group.
    pub budget: Budget,
    /// Progress events (per candidate group).
    pub events: EventHandle,
    /// Metrics sink: provenance and solver counters are folded in here.
    pub metrics: MetricsHandle,
}

impl Default for AggParamOptions {
    fn default() -> Self {
        AggParamOptions {
            max_groups: 8,
            extra_candidates: vec![0, 1],
            budget: Budget::unlimited(),
            events: EventHandle::none(),
            metrics: MetricsHandle::none(),
        }
    }
}

/// Run `Agg-Param` on a parameterized aggregate query pair. `original_params`
/// is the original parameter setting λ (under which the queries must already
/// disagree on `db`); the returned counterexample's
/// [`Counterexample::parameters`] holds the chosen λ'.
pub fn smallest_counterexample_agg_param(
    q1: &Query,
    q2: &Query,
    db: &Database,
    original_params: &Params,
    options: &AggParamOptions,
) -> Result<(Counterexample, Timings)> {
    run_standalone(
        q1,
        q2,
        db,
        original_params,
        &options.budget,
        &options.metrics,
        |plans, p1, p2| agg_param_core(q1, q2, plans, db, original_params, p1, p2, options),
    )
}

/// `Agg-Param`'s search over the pair's aggregate provenance `p1`, `p2`
/// (built on `db` under `original_params`); `plans` is the pair compiled on
/// `db`. It is `Agg-Basic`'s group search with the queries' parameters
/// free: a model is accepted under the first setting λ' that makes the
/// queries disagree, and its counterexample records that λ'. The returned
/// [`Timings`] cover the search alone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn agg_param_core(
    q1: &Query,
    q2: &Query,
    plans: &PairPlans,
    db: &Database,
    original_params: &Params,
    p1: &AggregateProvenance,
    p2: &AggregateProvenance,
    options: &AggParamOptions,
) -> Result<(Counterexample, Timings)> {
    let start = Instant::now();
    let free: BTreeSet<String> = q1.params().union(&q2.params()).cloned().collect();
    let search = GroupSearch {
        plans,
        db,
        p1,
        p2,
        params: original_params,
        free: &free,
        extra: &options.extra_candidates,
        ctx: CandidateEval {
            metrics: options.metrics.clone(),
            interrupt: options.budget.interrupt(),
        },
    };
    let best = search.scan(options.max_groups, &options.budget, &options.events)?;
    let timings = Timings {
        solver: start.elapsed(),
        ..Timings::default()
    };

    best.map(|c| (c, timings)).ok_or_else(|| {
        RatestError::Unsupported(
            "no candidate group yields a distinguishing parameterized sub-instance".into(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::agg_basic::{smallest_counterexample_agg_basic, AggBasicOptions};
    use ratest_ra::testdata;
    use ratest_storage::Value;

    fn original_params() -> Params {
        let mut p = Params::new();
        p.insert("numCS".into(), Value::Int(3));
        p
    }

    #[test]
    fn example6_parameterization_shrinks_the_counterexample() {
        let db = testdata::figure1_db();
        // Non-parameterized (Example 5): 4 tuples needed.
        let (fixed, _) = smallest_counterexample_agg_basic(
            &testdata::example5_q1(),
            &testdata::example5_q2(),
            &db,
            &Params::new(),
            &AggBasicOptions::default(),
        )
        .unwrap();
        // Parameterized (Example 6): 2 tuples suffice (Mary + her ECON
        // registration with @numCS = 1).
        let (param, _) = smallest_counterexample_agg_param(
            &testdata::example6_q1(),
            &testdata::example6_q2(),
            &db,
            &original_params(),
            &AggParamOptions::default(),
        )
        .unwrap();
        assert!(param.size() < fixed.size());
        assert!(param.size() <= 2, "got {}", param.size());
        assert!(!param.parameters.is_empty(), "λ' must be recorded");
        assert!(!param.q1_result.set_eq(&param.q2_result));
    }

    #[test]
    fn chosen_parameters_make_the_verification_pass() {
        let db = testdata::figure1_db();
        let (cex, _) = smallest_counterexample_agg_param(
            &testdata::example6_q1(),
            &testdata::example6_q2(),
            &db,
            &original_params(),
            &AggParamOptions::default(),
        )
        .unwrap();
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
        let db = testdata::figure1_db();
        let (cex, _) = smallest_counterexample_agg_param(
            &testdata::example4_q1(),
            &testdata::example4_q2(),
            &db,
            &Params::new(),
            &AggParamOptions::default(),
        )
        .unwrap();
        assert!(cex.size() <= 2);
    }
}
