//! Tuples and stable tuple identifiers.
//!
//! Every tuple in a base relation carries a [`TupleId`] — the `t1, t2, ...`
//! annotations in Figure 1 of the paper. The provenance layer builds Boolean
//! formulas over these identifiers and the solver's models are sets of
//! identifiers; a counterexample is then simply the sub-instance induced by
//! the identifiers set to *true*.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifies a base tuple by the relation it lives in and its insertion
/// index within that relation. Identifiers are stable: extracting a
/// subinstance preserves the ids of the retained tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TupleId {
    /// Index of the relation in its [`crate::Database`] (insertion order).
    pub relation: u32,
    /// Row index within the relation (insertion order).
    pub row: u32,
}

impl TupleId {
    /// Create a tuple identifier.
    pub fn new(relation: u32, row: u32) -> Self {
        TupleId { relation, row }
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}_{}", self.relation, self.row)
    }
}

/// A tuple: an ordered list of values. Base tuples additionally know their
/// identifier; derived tuples (query outputs) have `id == None`.
///
/// The values are shared: a clone (a sub-instance restricted from an
/// instance keeps clones of its tuples) points at the same values instead
/// of copying them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tuple {
    /// The attribute values, in schema order.
    pub values: Arc<[Value]>,
    /// Identifier of the base tuple, if this is a base tuple.
    pub id: Option<TupleId>,
}

impl Tuple {
    /// A derived (un-identified) tuple.
    pub fn derived(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
            id: None,
        }
    }

    /// A base tuple with its identifier.
    pub fn base(values: Vec<Value>, id: TupleId) -> Self {
        Tuple {
            values: values.into(),
            id: Some(id),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Project onto the given indices, producing a derived tuple.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::derived(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenate with another tuple (join output), producing a derived tuple.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple::derived(
            self.values
                .iter()
                .chain(other.values.iter())
                .cloned()
                .collect(),
        )
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::derived(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_id_ordering_and_display() {
        let a = TupleId::new(0, 3);
        let b = TupleId::new(1, 0);
        assert!(a < b);
        assert_eq!(a.to_string(), "t0_3");
    }

    #[test]
    fn project_and_concat_produce_derived_tuples() {
        let t = Tuple::base(
            vec![Value::from("Mary"), Value::from("CS"), Value::Int(100)],
            TupleId::new(0, 0),
        );
        let p = t.project(&[0, 2]);
        assert_eq!(*p.values, [Value::from("Mary"), Value::Int(100)]);
        assert!(p.id.is_none());

        let u = Tuple::derived(vec![Value::Int(1)]);
        let c = p.concat(&u);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.value(2), &Value::Int(1));
    }

    #[test]
    fn display_renders_values() {
        let t = Tuple::derived(vec![Value::from("Mary"), Value::Int(100)]);
        assert_eq!(t.to_string(), "(Mary, 100)");
    }

    #[test]
    fn equality_ignores_nothing() {
        // Tuples compare by values *and* id: two base tuples with identical
        // values but different ids are distinct physical tuples.
        let a = Tuple::base(vec![Value::Int(1)], TupleId::new(0, 0));
        let b = Tuple::base(vec![Value::Int(1)], TupleId::new(0, 1));
        assert_ne!(a, b);
        assert_eq!(a.values, b.values);
    }
}
