//! `ResultSet` against a `HashSet` model: pushes, membership probes and
//! both equalities agree with the model through many index resizes.

use proptest::prelude::*;
use ratest_ra::eval::ResultSet;
use ratest_storage::{DataType, Schema, Value};
use std::collections::HashSet;

fn schema() -> Schema {
    Schema::new(vec![("k", DataType::Int), ("v", DataType::Text)])
}

/// Rows over a small domain, so pushes repeat rows often.
fn row((k, v): (i64, u8)) -> Vec<Value> {
    vec![Value::Int(k), Value::Text(format!("v{v}"))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn result_sets_behave_like_a_hash_set(
        pushes in prop::collection::vec((0i64..40, 0u8..8), 0..600),
        probes in prop::collection::vec((0i64..45, 0u8..9), 0..50),
    ) {
        let mut set = ResultSet::empty(schema());
        let mut model: HashSet<Vec<Value>> = HashSet::new();
        let mut order = Vec::new();
        for &p in &pushes {
            let r = row(p);
            let fresh = model.insert(r.clone());
            prop_assert_eq!(set.push(r.clone()), fresh);
            if fresh {
                order.push(r);
            }
        }
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.rows(), &order[..]);
        for &p in probes.iter().chain(&pushes) {
            let r = row(p);
            prop_assert_eq!(set.contains(&r), model.contains(&r));
        }

        // The same rows pushed in the same order: equal. In reverse order:
        // equal as sets only, unless order cannot differ.
        let again = ResultSet::from_rows(schema(), pushes.iter().map(|&p| row(p)).collect());
        prop_assert!(again == set && again.set_eq(&set));
        let reversed = ResultSet::from_rows(schema(), order.iter().rev().cloned().collect());
        prop_assert!(reversed.set_eq(&set) && set.set_eq(&reversed));
        prop_assert_eq!(reversed == set, order.len() < 2);

        // One row more: neither equality holds.
        let mut bigger = set.clone();
        prop_assert!(bigger.push(row((99, 0))));
        prop_assert!(!bigger.set_eq(&set) && !set.set_eq(&bigger) && bigger != set);
    }
}
