//! The incumbent stop of the aggregate group scan, held to the plain descent.
//!
//! Every candidate group the scan reaches is searched twice: by the scan's
//! search against its incumbent ([`minimize_ones_below`]) and by the plain
//! descent without one ([`minimize_ones_with_theory_into`], the oracle).
//! Where the scan's search ends with [`Descent::CannotBeat`], the oracle
//! must fail or return a model of at least the incumbent's size, and a
//! probe bounded at `incumbent − 1` must be unsatisfiable; where the oracle
//! returns such a model and that probe is unsatisfiable, the scan's search
//! must end that way. Everywhere else both must end alike: the same model
//! with the same parameter setting, or the same error. The incumbent follows the scan: the smallest verified
//! counterexample of the groups before.

use super::agg_basic::{candidate_group_keys, GroupSearch, MAX_GROUPS};
use super::TheoryCheck;
use crate::problem::{verify_candidate, CandidateEval, Counterexample, PairPlans};
use crate::session::Budget;
use ratest_datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_provenance::aggprov::pair_aggregate_provenance;
use ratest_queries::tpch_queries::{q18_parameterized, q18_parameterized_wrong, tpch_experiments};
use ratest_ra::ast::Query;
use ratest_ra::eval::Params;
use ratest_ra::interrupt::Interrupt;
use ratest_ra::testdata;
use ratest_solver::minones::{
    minimize_ones_below, minimize_ones_with_theory_into, Descent, MinOnesOptions,
};
use ratest_solver::{SolverError, SolverStats};
use ratest_storage::{Database, Value};
use ratest_telemetry::MetricsHandle;
use std::collections::BTreeSet;

/// How often each outcome of the scan's search was seen.
#[derive(Debug, Default)]
struct Tally {
    groups: usize,
    abandoned: usize,
    optima: usize,
    failed: usize,
}

/// Run the scan of `Agg-Param` (`Agg-Basic` when no parameter is free) on
/// one pair, checking each group against the oracle.
fn check_pair(label: &str, q1: &Query, q2: &Query, db: &Database, params: &Params) -> Tally {
    let mut tally = Tally::default();
    let plans = PairPlans::compile(q1, q2, db).unwrap();
    let (r1, r2) = plans
        .distinguish(db, params, &Budget::unlimited(), &MetricsHandle::none())
        .unwrap();
    if r1.set_eq(&r2) {
        return tally;
    }
    let (p1, p2) = pair_aggregate_provenance(
        q1,
        q2,
        db,
        params,
        &Interrupt::none(),
        &MetricsHandle::none(),
    )
    .unwrap();
    let free: BTreeSet<String> = q1.params().union(&q2.params()).cloned().collect();
    let search = GroupSearch {
        plans: &plans,
        db,
        p1: &p1,
        p2: &p2,
        params,
        free: &free,
        ctx: CandidateEval::none(),
    };
    let options = &MinOnesOptions::default();
    let mut best: Option<Counterexample> = None;
    for (index, key) in candidate_group_keys(&p1, &p2, params)
        .unwrap()
        .into_iter()
        .take(MAX_GROUPS)
        .enumerate()
    {
        let Some(problem) = search.problem(key).unwrap() else {
            continue;
        };
        tally.groups += 1;
        let theory = TheoryCheck::new(&p1, &p2);
        let setting = |true_vars: &[ratest_solver::Var]| {
            search.differing_setting(&theory, &problem.vars.selection_from_vars(true_vars))
        };
        let incumbent = best.as_ref().map(Counterexample::size);
        let at = format!("{label}, group {index}, incumbent {incumbent:?}");
        let mut stats = SolverStats::default();
        let searched = minimize_ones_below(
            &problem.formula,
            &problem.objective,
            options,
            incumbent,
            setting,
            &mut stats,
        );
        let oracle = minimize_ones_with_theory_into(
            &problem.formula,
            &problem.objective,
            options,
            |true_vars| setting(true_vars).is_some(),
            &mut stats,
        );
        // Whether no accepted model has fewer than `incumbent` true
        // variables: a descent bounded at `incumbent − 1` fails its first
        // probe with `Unsatisfiable` exactly then.
        let out_of_reach = |incumbent: usize| {
            let below = MinOnesOptions {
                upper_bound: Some(incumbent - 1),
                ..options.clone()
            };
            let probe = minimize_ones_with_theory_into(
                &problem.formula,
                &problem.objective,
                &below,
                |true_vars| setting(true_vars).is_some(),
                &mut SolverStats::default(),
            );
            matches!(probe, Err(SolverError::Unsatisfiable))
        };
        let (model, chosen) = match (searched, oracle) {
            (Ok(Descent::CannotBeat), oracle) => {
                tally.abandoned += 1;
                let incumbent = incumbent.expect("only an incumbent is out of reach");
                if let Ok(sol) = oracle {
                    assert!(sol.cost >= incumbent, "{at}: the oracle beats it: {sol:?}");
                }
                // Only an unsatisfiable probe ends a group.
                assert!(out_of_reach(incumbent), "{at}: abandoned without proof");
                continue;
            }
            (Ok(Descent::Optimum(sol, chosen)), Ok(oracle)) => {
                assert_eq!(sol.true_vars, oracle.true_vars, "{at}");
                assert_eq!(Some(&chosen), setting(&oracle.true_vars).as_ref(), "{at}");
                // The stop is as tight as the rule: a group whose optimum
                // does not beat the incumbent ran on only because a model
                // below it passed the probe.
                if let Some(incumbent) = incumbent.filter(|&i| sol.cost >= i) {
                    assert!(
                        !out_of_reach(incumbent),
                        "{at}: no model beats it, yet the search ran on"
                    );
                }
                tally.optima += 1;
                (sol.true_vars, chosen)
            }
            (Err(e), Err(oracle)) => {
                assert_eq!(e, oracle, "{at}");
                tally.failed += 1;
                continue;
            }
            (searched, oracle) => panic!("{at}: {searched:?} against the oracle's {oracle:?}"),
        };
        let selection = problem.vars.selection_from_vars(&model);
        if let Ok(cex) = verify_candidate(&plans, db, selection, None, &chosen, &search.ctx) {
            if incumbent.is_none_or(|size| cex.size() < size) {
                best = Some(cex);
            }
        }
    }
    tally
}

/// Every pair of the TPC-H experiments on one instance.
fn check_tpch(scale_factor: f64, seed: u64) -> Tally {
    let db = tpch_database(&TpchConfig { scale_factor, seed });
    let mut total = Tally::default();
    for exp in tpch_experiments() {
        for (variant, wrong) in exp.wrong.iter().enumerate() {
            let label = format!("SF {scale_factor} seed {seed} {}#{variant}", exp.name);
            total.add(check_pair(
                &label,
                &exp.reference,
                wrong,
                &db,
                &Params::new(),
            ));
        }
    }
    total
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.groups += other.groups;
        self.abandoned += other.abandoned;
        self.optima += other.optima;
        self.failed += other.failed;
    }
}

#[test]
fn the_stop_agrees_with_the_plain_descent_on_the_tpch_experiments() {
    // Two tpch-agg instances and the Fig. 6 instance, one thread each. No
    // probe at `incumbent − 1` exhausts its rejection budget here (nor, on
    // the first instance, under budgets of 1, 3, 8 or 20 rejections); the
    // unit tests of `minones` cover that case.
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = [(0.0003, 1), (0.0003, 2), (0.0006, 3)]
            .map(|(sf, seed)| scope.spawn(move || check_tpch(sf, seed)))
            .into_iter()
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    let mut total = Tally::default();
    for run in runs {
        total.add(run);
    }
    println!("{total:?}");
    // The stop fires, and the groups it leaves alone still reach optima.
    assert!(total.abandoned > 0, "{total:?}");
    assert!(total.optima > 0, "{total:?}");
}

#[test]
fn the_stop_agrees_with_the_plain_descent_under_agg_param() {
    // Fig. 7: Q18 with its quantity threshold free.
    let db = tpch_database(&TpchConfig {
        scale_factor: 0.0008,
        seed: 3,
    });
    let mut original = Params::new();
    original.insert("qty".into(), Value::Int(120));
    let wrong = &q18_parameterized_wrong()[0];
    let fig7 = check_pair("Fig. 7", &q18_parameterized(), wrong, &db, &original);
    assert!(fig7.groups > 0, "{fig7:?}");

    // Examples 4-6 on the Figure 1 instance.
    let db = testdata::figure1_db();
    let mut num_cs = Params::new();
    num_cs.insert("numCS".into(), Value::Int(3));
    for (label, q1, q2, params) in [
        (
            "Example 4",
            testdata::example4_q1(),
            testdata::example4_q2(),
            Params::new(),
        ),
        (
            "Example 5",
            testdata::example5_q1(),
            testdata::example5_q2(),
            Params::new(),
        ),
        (
            "Example 6",
            testdata::example6_q1(),
            testdata::example6_q2(),
            num_cs,
        ),
    ] {
        let tally = check_pair(label, &q1, &q2, &db, &params);
        assert!(tally.optima > 0, "{label}: {tally:?}");
    }

    // Many small groups, at the sizes the pathological suite pins.
    for tuples in [100, 500] {
        let db = university_database(&UniversityConfig::with_total(tuples));
        let compile = |sql| ratest_sql::compile_sql(sql, &db).unwrap();
        let reference = compile(include_str!(
            "../../../../examples/pathological/many_small_groups.sql"
        ));
        let wrong = compile(include_str!(
            "../../../../examples/pathological/many_small_groups_wrong.sql"
        ));
        let mut k = Params::new();
        k.insert("k".into(), Value::Int(2));
        let label = format!("many small groups at {tuples} tuples");
        let tally = check_pair(&label, &reference, &wrong, &db, &k);
        assert!(tally.groups > 0, "{label}: {tally:?}");
    }
}
