//! Relation schemas: named, typed columns.

use crate::error::{Result, StorageError};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Double,
    /// UTF-8 string.
    Text,
    /// Calendar date.
    Date,
}

impl DataType {
    /// Whether a value of type `other` can be stored in a column of this
    /// type. Integers are accepted by `Double` columns (they widen exactly in
    /// the value domain the generators use).
    pub fn accepts(self, other: DataType) -> bool {
        self == other || (self == DataType::Double && other == DataType::Int)
    }

    /// Whether this type is numeric (participates in arithmetic/aggregates).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Double)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Date => "DATE",
        };
        write!(f, "{s}")
    }
}

/// A single column: a name plus a type and nullability flag.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Column {
    /// Column name (case-sensitive).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULL is allowed. Defaults to `false`: the paper's instances
    /// and the TPC-H subset are fully populated.
    pub nullable: bool,
}

impl Column {
    /// Create a non-nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// Create a nullable column.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }
}

/// An ordered list of columns.
///
/// The columns sit behind an [`Arc`], so a clone shares them: every result
/// set of a compiled plan node carries that node's schema without copying
/// the column names.
#[derive(Debug, Clone, Eq, Serialize, Deserialize, Default)]
pub struct Schema {
    columns: Arc<[Column]>,
}

/// Equal columns in the same order; a clone compares without a scan.
impl PartialEq for Schema {
    fn eq(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.columns, &other.columns) || self.columns == other.columns
    }
}

impl std::hash::Hash for Schema {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.columns.hash(state);
    }
}

impl Schema {
    /// Build a schema from `(name, type)` pairs. All columns are
    /// non-nullable; use [`Schema::from_columns`] for finer control.
    pub fn new<N: Into<String>>(columns: Vec<(N, DataType)>) -> Self {
        Schema {
            columns: columns
                .into_iter()
                .map(|(n, t)| Column::new(n, t))
                .collect(),
        }
    }

    /// Build a schema from fully specified columns.
    pub fn from_columns(columns: Vec<Column>) -> Self {
        Schema {
            columns: columns.into(),
        }
    }

    /// Empty schema (zero columns) — the output schema of a projection onto
    /// nothing, used by some reductions in the paper's appendix.
    pub fn empty() -> Self {
        Schema::default()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Iterate over column names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Index of a column by name, as a [`Result`].
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| StorageError::UnknownColumn {
                relation: "<schema>".into(),
                column: name.into(),
            })
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Whether two schemas are union compatible: same arity and pairwise
    /// compatible column types (names may differ). This is the check
    /// Definition 1 of the paper assumes between `Q1(D)` and `Q2(D)`.
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self.columns.iter().zip(other.columns.iter()).all(|(a, b)| {
                a.data_type == b.data_type || (a.data_type.is_numeric() && b.data_type.is_numeric())
            })
    }

    /// Concatenate two schemas (used for joins / cross products). Column
    /// names are qualified by the caller if disambiguation is needed.
    pub fn concat(&self, other: &Schema) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .chain(other.columns.iter())
                .cloned()
                .collect(),
        }
    }

    /// Project the schema onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }

    /// Rename every column with a prefix, e.g. `r.name` — useful when the
    /// evaluator needs to disambiguate self-joins.
    pub fn qualified(&self, prefix: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    name: format!("{prefix}.{}", c.name),
                    data_type: c.data_type,
                    nullable: c.nullable,
                })
                .collect(),
        }
    }

    /// Validate that a tuple conforms to this schema.
    pub fn validate(&self, relation: &str, values: &[Value]) -> Result<()> {
        if values.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                relation: relation.into(),
                expected: self.arity(),
                actual: values.len(),
            });
        }
        for (col, v) in self.columns.iter().zip(values.iter()) {
            match v.data_type() {
                None => {
                    if !col.nullable {
                        return Err(StorageError::TypeMismatch {
                            relation: relation.into(),
                            column: col.name.clone(),
                            expected: col.data_type.to_string(),
                            actual: "NULL".into(),
                        });
                    }
                }
                Some(t) => {
                    if !col.data_type.accepts(t) {
                        return Err(StorageError::TypeMismatch {
                            relation: relation.into(),
                            column: col.name.clone(),
                            expected: col.data_type.to_string(),
                            actual: format!("{v} ({t})"),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn student_schema() -> Schema {
        Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)])
    }

    #[test]
    fn arity_and_lookup() {
        let s = student_schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("major"), Some(1));
        assert_eq!(s.index_of("grade"), None);
        assert!(s.require("grade").is_err());
        assert_eq!(s.column(0).name, "name");
        assert!(s.column_by_name("name").is_some());
    }

    #[test]
    fn union_compatibility() {
        let a = Schema::new(vec![("x", DataType::Int), ("y", DataType::Text)]);
        let b = Schema::new(vec![("u", DataType::Int), ("v", DataType::Text)]);
        let c = Schema::new(vec![("u", DataType::Text), ("v", DataType::Int)]);
        let d = Schema::new(vec![("u", DataType::Double), ("v", DataType::Text)]);
        assert!(a.union_compatible(&b));
        assert!(!a.union_compatible(&c));
        // numeric types are mutually compatible
        assert!(a.union_compatible(&d));
        assert!(!a.union_compatible(&Schema::new(vec![("u", DataType::Int)])));
    }

    #[test]
    fn concat_project_qualify() {
        let s = student_schema();
        let r = Schema::new(vec![("course", DataType::Text), ("grade", DataType::Int)]);
        let joined = s.concat(&r);
        assert_eq!(joined.arity(), 4);
        assert_eq!(joined.column(2).name, "course");

        let proj = joined.project(&[0, 3]);
        assert_eq!(proj.names().collect::<Vec<_>>(), vec!["name", "grade"]);

        let q = s.qualified("s");
        assert_eq!(q.column(0).name, "s.name");
    }

    #[test]
    fn validation_checks_arity_types_nulls() {
        let s = Schema::from_columns(vec![
            Column::new("name", DataType::Text),
            Column::nullable("grade", DataType::Int),
        ]);
        assert!(s.validate("R", &[Value::from("a"), Value::Int(1)]).is_ok());
        assert!(s.validate("R", &[Value::from("a"), Value::Null]).is_ok());
        assert!(s.validate("R", &[Value::Null, Value::Int(1)]).is_err());
        assert!(s.validate("R", &[Value::from("a")]).is_err());
        assert!(s
            .validate("R", &[Value::from("a"), Value::from("oops")])
            .is_err());
    }

    #[test]
    fn double_columns_accept_ints() {
        let s = Schema::new(vec![("grade", DataType::Double)]);
        assert!(s.validate("R", &[Value::Int(100)]).is_ok());
        assert!(s.validate("R", &[Value::double(87.5)]).is_ok());
    }

    #[test]
    fn display_is_readable() {
        let s = student_schema();
        assert_eq!(s.to_string(), "(name TEXT, major TEXT)");
        assert_eq!(DataType::Date.to_string(), "DATE");
    }
}
