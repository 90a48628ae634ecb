//! Aggregate-query debugging on TPC-H (Section 7.2): compare the reference
//! Q18 ("large volume customers") against a wrong rewrite, with and without
//! parameterizing the HAVING threshold, and show how parameterization shrinks
//! the counterexample (Figure 7's effect).
//!
//! Run with: `cargo run --example tpch_aggregates`

use ratest_suite::core::pipeline::{run_algorithm, Algorithm, RatestOptions};
use ratest_suite::core::report::render_counterexample;
use ratest_suite::datagen::{tpch_database, TpchConfig};
use ratest_suite::queries::tpch_queries;
use ratest_suite::ra::eval::Params;
use ratest_suite::storage::Value;

fn main() {
    let db = tpch_database(&TpchConfig::with_scale(0.001));
    println!(
        "Generated TPC-H-style instance with {} tuples ({} orders, {} lineitems).\n",
        db.total_tuples(),
        db.relation("orders").unwrap().len(),
        db.relation("lineitem").unwrap().len()
    );

    // Fixed-threshold Q18 vs a wrong variant with a spurious date filter.
    let reference = tpch_queries::q18();
    let wrong = tpch_queries::q18_wrong().remove(0);
    let agg_basic = RatestOptions {
        algorithm: Algorithm::AggBasic,
        ..Default::default()
    };
    let (fixed, t_fixed) = run_algorithm(&reference, &wrong, &db, &agg_basic)
        .expect("the wrong variant differs at this scale");
    println!(
        "Agg-Basic (fixed threshold): counterexample of {} tuple(s) in {:.1?} solver time",
        fixed.size(),
        t_fixed.solver
    );

    // Parameterized Q18: the solver may pick a new threshold.
    let mut original = Params::new();
    original.insert("qty".into(), Value::Int(120));
    let agg_param = RatestOptions {
        algorithm: Algorithm::AggParam,
        parameters: original,
        ..Default::default()
    };
    let (param, t_param) = run_algorithm(
        &tpch_queries::q18_parameterized(),
        &tpch_queries::q18_parameterized_wrong().remove(0),
        &db,
        &agg_param,
    )
    .expect("the parameterized pair differs at this scale");
    println!(
        "Agg-Param (parameterized):   counterexample of {} tuple(s) in {:.1?} solver time\n",
        param.size(),
        t_param.solver
    );

    println!("Parameterized counterexample in full:\n");
    println!("{}", render_counterexample(&param));
}
