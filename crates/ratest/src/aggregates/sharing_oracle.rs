//! A pair's aggregate provenance, held to each query's provenance built
//! alone.
//!
//! [`pair_aggregate_provenance`] builds the groups of the second query from the
//! first one's when both aggregate the same input the same way. Whatever it
//! shares, each provenance must equal [`aggregate_provenance`] of its query
//! alone: the same groups in the same order (keys, members with their
//! provenance and aggregate arguments, existence provenance), the same
//! predicates and schemas, the same variables, and the same groups and
//! rows under seeded random sub-instances. The cases are every pair of the
//! TPC-H experiments on three benchmark-sized instances, the Fig. 7 pair,
//! the paper's Examples 4–6 and the many-small-groups pair of the
//! pathological suite.

use ratest_datagen::{tpch_database, university_database, TpchConfig, UniversityConfig};
use ratest_provenance::aggprov::{
    aggregate_provenance, pair_aggregate_provenance, AggregateProvenance,
};
use ratest_queries::tpch_queries::{q18_parameterized, q18_parameterized_wrong, tpch_experiments};
use ratest_ra::ast::Query;
use ratest_ra::eval::Params;
use ratest_ra::interrupt::Interrupt;
use ratest_ra::testdata;
use ratest_storage::{Database, TupleId, TupleSelection, Value};
use ratest_telemetry::MetricsHandle;

/// xorshift64: deterministic selections without a dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// The empty and full selections, random subsets of the variables at
/// several densities, and small model-sized selections.
fn selections(p: &AggregateProvenance, db: &Database, seed: u64) -> Vec<TupleSelection> {
    let vars: Vec<TupleId> = p.variables().into_iter().collect();
    let mut rng = Rng(seed);
    let mut out = vec![TupleSelection::new(), TupleSelection::all(db)];
    if vars.is_empty() {
        return out;
    }
    for per_mille in [5, 30, 150, 500] {
        for _ in 0..4 {
            out.push(TupleSelection::from_ids(
                vars.iter().copied().filter(|_| rng.below(1000) < per_mille),
            ));
        }
    }
    for _ in 0..20 {
        let k = 1 + rng.below(12);
        out.push(TupleSelection::from_ids(
            (0..k).map(|_| vars[rng.below(vars.len())]),
        ));
    }
    out
}

/// `built` (from the pair) equals `alone` (built by itself).
fn assert_same(
    label: &str,
    built: &AggregateProvenance,
    alone: &AggregateProvenance,
    db: &Database,
    params: &Params,
    seed: u64,
) {
    assert_eq!(built.group_schema, alone.group_schema, "{label}");
    assert_eq!(built.output_schema, alone.output_schema, "{label}");
    assert_eq!(built.projection, alone.projection, "{label}");
    assert_eq!(built.aggregates, alone.aggregates, "{label}");
    assert_eq!(built.having, alone.having, "{label}");
    assert_eq!(built.outer_having, alone.outer_having, "{label}");
    assert_eq!(built.inner(), alone.inner(), "{label}");
    assert_eq!(built.inner_rows(), alone.inner_rows(), "{label}");
    assert_eq!(built.groups().len(), alone.groups().len(), "{label}");
    for (gi, (g, h)) in built.groups().iter().zip(alone.groups()).enumerate() {
        let at = format!("{label}, group {gi}");
        assert_eq!(g.key, h.key, "{at}");
        assert_eq!(g.exists, h.exists, "{at}");
        assert_eq!(g.members.len(), h.members.len(), "{at}");
        for (m, n) in g.members.iter().zip(&h.members) {
            assert_eq!(m.provenance, n.provenance, "{at}");
            assert_eq!(m.agg_args, n.agg_args, "{at}");
        }
        assert_eq!(built.group_index(&g.key), Some(gi), "{at}");
        assert_eq!(built.group_var_count(&g.key), g.variables().len(), "{at}");
    }
    assert_eq!(built.variables(), alone.variables(), "{label}");
    for (i, selection) in selections(alone, db, seed).iter().enumerate() {
        let at = format!("{label}, selection #{i} ({} tuples)", selection.len());
        assert_eq!(
            built.groups_under(selection),
            alone.groups_under(selection),
            "{at}"
        );
        assert_eq!(
            built.evaluate_selection(selection, params).unwrap(),
            alone.evaluate_selection(selection, params).unwrap(),
            "{at}"
        );
    }
}

/// Check one pair; returns whether its second provenance shares the
/// first one's groups.
fn check_pair(
    label: &str,
    q1: &Query,
    q2: &Query,
    db: &Database,
    params: &Params,
    seed: u64,
) -> bool {
    let (p1, p2) = pair_aggregate_provenance(
        q1,
        q2,
        db,
        params,
        &Interrupt::none(),
        &MetricsHandle::none(),
    )
    .unwrap();
    for (i, (built, q)) in [(&p1, q1), (&p2, q2)].into_iter().enumerate() {
        let alone = aggregate_provenance(q, db, params).unwrap();
        assert!(!built.shares_groups_with(&alone));
        assert_same(
            &format!("{label}, query {}", i + 1),
            built,
            &alone,
            db,
            params,
            seed + i as u64,
        );
    }
    p2.shares_groups_with(&p1)
}

#[test]
fn a_pairs_provenance_equals_each_querys_built_alone() {
    let mut shared = Vec::new();
    let mut seed = 1;
    for tpch_seed in [1, 2, 7] {
        let db = tpch_database(&TpchConfig {
            scale_factor: 0.0003,
            seed: tpch_seed,
        });
        for exp in tpch_experiments() {
            for (variant, wrong) in exp.wrong.iter().enumerate() {
                let label = format!("seed {tpch_seed} {}#{variant}", exp.name);
                if check_pair(&label, &exp.reference, wrong, &db, &Params::new(), seed) {
                    shared.push(label);
                }
                seed += 2;
            }
        }
    }
    // Q18#1 differs from its reference only in the HAVING threshold; no
    // other TPC-H pair aggregates the same input the same way.
    assert_eq!(shared, ["seed 1 Q18#1", "seed 2 Q18#1", "seed 7 Q18#1"]);

    // Fig. 7: Q18 with a free threshold and the wrong date filter.
    let db = tpch_database(&TpchConfig {
        scale_factor: 0.0008,
        seed: 3,
    });
    let mut qty = Params::new();
    qty.insert("qty".into(), Value::Int(120));
    let wrong = &q18_parameterized_wrong()[0];
    assert!(!check_pair(
        "Fig. 7",
        &q18_parameterized(),
        wrong,
        &db,
        &qty,
        100
    ));

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
        check_pair(label, &q1, &q2, &db, &params, 200);
    }

    // GROUP BY student, `HAVING COUNT(*) >= @k` against `> @k`: shared.
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
        assert!(
            check_pair(&label, &reference, &wrong, &db, &k, 300),
            "{label}"
        );
    }
}
