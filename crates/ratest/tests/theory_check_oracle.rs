//! The aggregate theory check evaluates only the groups a candidate
//! sub-instance can make non-empty (`AggregateProvenance::evaluate_selection`).
//! These tests hold it to a full scan of every group — the oracle below — on
//! seeded random selections plus the empty and the full selection: both
//! queries of every TPC-H experiment pair, the paper's Examples 4–6 under
//! several `@param` values, and a hand-built `γ` over `R − S` whose groups
//! are live on the empty sub-instance.

use ratest_datagen::{tpch_database, TpchConfig};
use ratest_provenance::aggprov::{aggregate_provenance, AggregateProvenance, GroupProvenance};
use ratest_provenance::BoolExpr;
use ratest_queries::tpch_queries::{q18_parameterized, q18_parameterized_wrong, tpch_experiments};
use ratest_ra::ast::AggCall;
use ratest_ra::builder::{col, lit, rel};
use ratest_ra::eval::Params;
use ratest_ra::testdata;
use ratest_storage::{DataType, Database, Relation, Schema, TupleId, TupleSelection, Value};

/// The oracle: evaluate every group, apply the outer HAVING, project, and
/// drop repeated rows, in group order.
fn full_scan(
    p: &AggregateProvenance,
    selection: &TupleSelection,
    params: &Params,
) -> Vec<Vec<Value>> {
    let present = |id| selection.contains(id);
    let mut out: Vec<Vec<Value>> = Vec::new();
    for g in p.groups() {
        let Some(row) = g.evaluate_under(&p.group_schema, &present, params).unwrap() else {
            continue;
        };
        if let Some(h) = &p.outer_having {
            if !h.eval_predicate(&p.group_schema, &row, params).unwrap() {
                continue;
            }
        }
        let projected: Vec<Value> = p.projection.iter().map(|&i| row[i].clone()).collect();
        if !out.contains(&projected) {
            out.push(projected);
        }
    }
    out
}

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

/// The empty and full selections, random subsets of `p`'s variables at
/// several densities, and small model-sized selections.
fn selections(p: &AggregateProvenance, db: &Database, seed: u64) -> Vec<TupleSelection> {
    let vars: Vec<TupleId> = p.variables().into_iter().collect();
    let mut rng = Rng(seed);
    let mut out = vec![TupleSelection::new(), TupleSelection::all(db)];
    if vars.is_empty() {
        return out;
    }
    for per_mille in [5, 30, 150, 500, 900] {
        for _ in 0..6 {
            out.push(TupleSelection::from_ids(
                vars.iter().copied().filter(|_| rng.below(1000) < per_mille),
            ));
        }
    }
    // Like a solver model: every variable of a few members of one group.
    let groups = p.groups();
    for _ in 0..20 {
        let g = &groups[rng.below(groups.len())];
        let k = 1 + rng.below(4);
        out.push(TupleSelection::from_ids((0..k).flat_map(|_| {
            g.members[rng.below(g.members.len())].provenance.variables()
        })));
    }
    for _ in 0..20 {
        let k = 1 + rng.below(12);
        out.push(TupleSelection::from_ids(
            (0..k).map(|_| vars[rng.below(vars.len())]),
        ));
    }
    out
}

fn assert_matches_full_scan(
    label: &str,
    p: &AggregateProvenance,
    db: &Database,
    params: &Params,
    seed: u64,
) {
    for (i, selection) in selections(p, db, seed).iter().enumerate() {
        assert_eq!(
            p.evaluate_selection(selection, params).unwrap(),
            full_scan(p, selection, params),
            "{label}: selection #{i} ({} tuples)",
            selection.len()
        );
    }
}

fn params(name: &str, value: i64) -> Params {
    let mut p = Params::new();
    p.insert(name.into(), Value::Int(value));
    p
}

#[test]
fn every_tpch_query_matches_the_full_scan() {
    // SF 0.0003 is the benchmark's instance. Its nation of Q21 has no
    // supplier, so Q21 and Q21-S (the query with a selection above the
    // aggregation) get groups only on the Fig. 6 test's instance.
    let mut outer_having_groups = 0;
    let mut seed = 1;
    let configs = [
        TpchConfig::with_scale(0.0003),
        TpchConfig {
            scale_factor: 0.0006,
            seed: 3,
        },
    ];
    for config in configs {
        let db = tpch_database(&config);
        for exp in tpch_experiments() {
            let queries = std::iter::once(&exp.reference).chain(&exp.wrong);
            for (i, q) in queries.enumerate() {
                let p = aggregate_provenance(q, &db, &Params::new()).unwrap();
                if p.outer_having.is_some() {
                    outer_having_groups += p.groups().len();
                }
                assert_matches_full_scan(
                    &format!("{} query {i} on {config:?}", exp.name),
                    &p,
                    &db,
                    &Params::new(),
                    seed,
                );
                seed += 1;
            }
        }
    }
    assert!(outer_having_groups > 0);
}

#[test]
fn parameterized_q18_matches_the_full_scan_under_several_thresholds() {
    let db = tpch_database(&TpchConfig::with_scale(0.0003));
    let queries = std::iter::once(q18_parameterized()).chain(q18_parameterized_wrong());
    for (i, q) in queries.enumerate() {
        for qty in [0, 1, 60, 120, 300] {
            let params = params("qty", qty);
            let p = aggregate_provenance(&q, &db, &params).unwrap();
            assert_matches_full_scan(
                &format!("Q18 @qty={qty} query {i}"),
                &p,
                &db,
                &params,
                7 + qty as u64,
            );
        }
    }
}

#[test]
fn the_paper_examples_match_the_full_scan() {
    let db = testdata::figure1_db();
    let fixed = [
        testdata::example4_q1(),
        testdata::example4_q2(),
        testdata::example5_q1(),
        testdata::example5_q2(),
    ];
    for (i, q) in fixed.iter().enumerate() {
        let p = aggregate_provenance(q, &db, &Params::new()).unwrap();
        assert_matches_full_scan(
            &format!("example query {i}"),
            &p,
            &db,
            &Params::new(),
            100 + i as u64,
        );
    }
    for (i, q) in [testdata::example6_q1(), testdata::example6_q2()]
        .iter()
        .enumerate()
    {
        let p = aggregate_provenance(q, &db, &Params::new()).unwrap();
        for num_cs in 0..=4 {
            let params = params("numCS", num_cs);
            assert_matches_full_scan(
                &format!("example 6 query {i} @numCS={num_cs}"),
                &p,
                &db,
                &params,
                200 + num_cs as u64,
            );
        }
    }
}

/// Substitute `true` for the variables of relation `fixed`, as if its
/// tuples were certain.
fn fix_relation(e: &BoolExpr, fixed: u32) -> BoolExpr {
    match e {
        BoolExpr::Var(id) if id.relation == fixed => BoolExpr::True,
        BoolExpr::True | BoolExpr::False | BoolExpr::Var(_) => e.clone(),
        BoolExpr::And(parts) => {
            BoolExpr::and(parts.iter().map(|p| fix_relation(p, fixed)).collect())
        }
        BoolExpr::Or(parts) => BoolExpr::or(parts.iter().map(|p| fix_relation(p, fixed)).collect()),
        BoolExpr::Not(inner) => fix_relation(inner, fixed).negate(),
    }
}

/// `R(a, b)` and `S(a, b)`, where `S` removes some of `R`'s rows.
fn r_minus_s_db() -> Database {
    let schema = || Schema::new(vec![("a", DataType::Text), ("b", DataType::Int)]);
    let rows = |pairs: &[(&str, i64)]| -> Vec<Vec<Value>> {
        pairs
            .iter()
            .map(|(a, b)| vec![Value::from(*a), Value::Int(*b)])
            .collect()
    };
    let mut r = Relation::new("R", schema());
    r.insert_all(rows(&[
        ("x", 1),
        ("x", 2),
        ("x", 3),
        ("y", 1),
        ("y", 2),
        ("z", 1),
        ("w", 4),
        ("w", 5),
    ]))
    .unwrap();
    let mut s = Relation::new("S", schema());
    s.insert_all(rows(&[
        ("x", 1),
        ("x", 2),
        ("y", 1),
        ("y", 2),
        ("z", 1),
        ("w", 4),
    ]))
    .unwrap();
    let mut db = Database::new("r_minus_s");
    db.add_relation(r).unwrap();
    db.add_relation(s).unwrap();
    db
}

/// `γ_{a; COUNT(*) AS cnt}(R − S)`, optionally under `σ_{cnt >= 2}`.
fn count_r_minus_s(min_count: Option<i64>) -> ratest_ra::ast::Query {
    let q = rel("R").difference(rel("S").build()).group_by(
        &["a"],
        vec![AggCall::count_star("cnt")],
        None,
    );
    match min_count {
        Some(n) => q.select(col("cnt").ge(lit(n))).build(),
        None => q.build(),
    }
}

/// Every sub-instance of the small `R − S` instance.
fn assert_matches_full_scan_exhaustively(label: &str, p: &AggregateProvenance, db: &Database) {
    let ids: Vec<TupleId> = TupleSelection::all(db).iter().collect();
    for mask in 0u32..1 << ids.len() {
        let selection = TupleSelection::from_ids(
            ids.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &id)| id),
        );
        assert_eq!(
            p.evaluate_selection(&selection, &Params::new()).unwrap(),
            full_scan(p, &selection, &Params::new()),
            "{label}: selection {mask:#b}"
        );
    }
}

#[test]
fn every_sub_instance_of_a_small_difference_matches_the_full_scan() {
    // Members with a single variable (R's rows that S does not remove) make
    // every index entry observable.
    let db = r_minus_s_db();
    for min_count in [None, Some(2)] {
        let p = aggregate_provenance(&count_r_minus_s(min_count), &db, &Params::new()).unwrap();
        assert_matches_full_scan_exhaustively(&format!("γ(R − S), min {min_count:?}"), &p, &db);
    }
}

#[test]
fn groups_live_on_the_empty_instance_are_evaluated() {
    // σ_{cnt >= 2} γ_{a; COUNT(*) AS cnt}(R − S), with R's tuples made
    // certain: a member kept by R − S has provenance ¬s (or true), which
    // holds when nothing at all is selected.
    let db = r_minus_s_db();
    let r = 0; // R is the first relation of the instance

    let annotated = aggregate_provenance(&count_r_minus_s(Some(2)), &db, &Params::new()).unwrap();
    let groups: Vec<GroupProvenance> = annotated
        .groups()
        .iter()
        .map(|g| {
            let mut g = g.clone();
            g.exists = fix_relation(&g.exists, r);
            for m in &mut g.members {
                m.provenance = fix_relation(&m.provenance, r);
            }
            g
        })
        .collect();
    let p = AggregateProvenance::new(
        annotated.group_schema.clone(),
        annotated.output_schema.clone(),
        annotated.projection.clone(),
        groups,
        annotated.inner.clone(),
        annotated.inner_rows.clone(),
        annotated.outer_having.clone(),
    )
    .unwrap();

    // With nothing selected every group keeps all its members: x (3), y (2)
    // and w (2) pass the outer HAVING, z (1) does not.
    let nothing = TupleSelection::new();
    let rows = p.evaluate_selection(&nothing, &Params::new()).unwrap();
    assert_eq!(rows.len(), 3, "{rows:?}");
    assert_matches_full_scan_exhaustively("γ(R − S) with R certain", &p, &db);
}
