//! Seeded relabeling of a fixed-shape instance.
//!
//! The pools explain against one fixed-shape instance per workload. The
//! run's seed replaces the values of its key domains by fresh values in the
//! same order: one order-preserving bijection per domain, applied to every
//! column of the domain. Queries only compare keys, so every seed gets an
//! order-isomorphic instance: the same join fan-outs, sort orders and tie
//! breaks, hence the same provenance and solver work and the same minimal
//! counterexample sizes, over different values. Drawing a fresh instance per
//! seed instead moves one pass by 2x (course-pool) to 10x (tpch-agg), and a
//! plain permutation of the keys still moved the pairs near the median by
//! 30%, because it reorders outputs and the search starts from the first
//! differing tuple.

use crate::stats::Rng;
use ratest_storage::{Database, Relation, Value};
use std::collections::{BTreeSet, HashMap};

/// A key domain: the `(relation, column)` pairs that share one value space.
pub type Domain<'a> = &'a [(&'a str, &'a str)];

pub fn relabel(db: &Database, domains: &[Domain], seed: u64) -> Database {
    let mut rng = Rng::new(seed);
    // (relation, column index) -> the domain's permutation.
    let mut maps: HashMap<(String, usize), usize> = HashMap::new();
    let mut perms: Vec<HashMap<Value, Value>> = Vec::new();
    for domain in domains {
        let mut values = BTreeSet::new();
        for (rel, col) in domain.iter() {
            let relation = db.relation(rel).expect("domain relation exists");
            let idx = relation
                .schema()
                .index_of(col)
                .expect("domain column exists");
            maps.insert((rel.to_string(), idx), perms.len());
            values.extend(relation.iter().map(|t| t.values[idx].clone()));
        }
        let mut next = 0u64;
        perms.push(
            values
                .into_iter()
                .map(|from| {
                    next += 1 + rng.below(1_000) as u64;
                    let to = match &from {
                        Value::Int(_) => Value::Int(next as i64),
                        Value::Text(_) => Value::Text(format!("k{next:012}")),
                        other => unreachable!("key domains hold ints and text, got {other:?}"),
                    };
                    (from, to)
                })
                .collect(),
        );
    }
    let mut out = Database::new(db.name());
    for relation in db.relations() {
        let mut copy = Relation::new(relation.name(), relation.schema().clone());
        for tuple in relation.iter() {
            let values = tuple
                .values
                .iter()
                .enumerate()
                .map(|(i, v)| match maps.get(&(relation.name().to_owned(), i)) {
                    Some(&p) => perms[p][v].clone(),
                    None => v.clone(),
                })
                .collect();
            copy.insert(values).expect("a bijection keeps tuples valid");
        }
        out.add_relation(copy).expect("relation names are unique");
    }
    *out.constraints_mut() = db.constraints().clone();
    out
}

/// Student names, the only key of the course schema.
pub const COURSE_DOMAINS: &[Domain] = &[&[("Student", "name"), ("Registration", "name")]];

/// The TPC-H surrogate keys.
pub const TPCH_DOMAINS: &[Domain] = &[
    &[("orders", "o_orderkey"), ("lineitem", "l_orderkey")],
    &[("customer", "c_custkey"), ("orders", "o_custkey")],
    &[
        ("part", "p_partkey"),
        ("partsupp", "ps_partkey"),
        ("lineitem", "l_partkey"),
    ],
    &[
        ("supplier", "s_suppkey"),
        ("partsupp", "ps_suppkey"),
        ("lineitem", "l_suppkey"),
    ],
];

#[cfg(test)]
mod tests {
    use super::*;
    use ratest_datagen::{university_database, UniversityConfig};

    #[test]
    fn relabeling_is_a_consistent_bijection() {
        let db = university_database(&UniversityConfig::with_total(60));
        let a = relabel(&db, COURSE_DOMAINS, 1);
        let b = relabel(&db, COURSE_DOMAINS, 1);
        let c = relabel(&db, COURSE_DOMAINS, 2);
        let names = |d: &Database| -> Vec<Value> {
            d.relation("Registration")
                .unwrap()
                .iter()
                .map(|t| t.values[0].clone())
                .collect()
        };
        assert_eq!(names(&a), names(&b));
        assert_ne!(names(&a), names(&c));
        // Order-preserving: the relabeled column sorts like the original.
        let order = |xs: Vec<Value>| {
            let mut idx: Vec<usize> = (0..xs.len()).collect();
            idx.sort_by(|i, j| xs[*i].cmp(&xs[*j]).then(i.cmp(j)));
            idx
        };
        assert_eq!(order(names(&a)), order(names(&db)));
        assert_eq!(a.total_tuples(), db.total_tuples());
        assert!(a.validate_constraints().is_ok());
    }
}
