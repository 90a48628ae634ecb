//! Errors raised while type-checking, parsing or evaluating queries.

use std::fmt;

/// Convenience alias used throughout the `ra` crate.
pub type Result<T> = std::result::Result<T, QueryError>;

/// Errors raised by the query layer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A storage-layer error (unknown relation, schema violation, ...).
    Storage(ratest_storage::StorageError),
    /// A column reference could not be resolved against the input schema.
    UnknownColumn {
        /// The unresolved name.
        name: String,
        /// The columns that were available.
        available: Vec<String>,
    },
    /// A column reference is ambiguous (matches several columns).
    AmbiguousColumn {
        /// The ambiguous name.
        name: String,
        /// The candidate columns it matched.
        candidates: Vec<String>,
    },
    /// Two inputs of a union/difference are not union compatible.
    NotUnionCompatible {
        /// Rendered left schema.
        left: String,
        /// Rendered right schema.
        right: String,
    },
    /// A type error in an expression (e.g. `'CS' + 1`).
    TypeError(String),
    /// A query parameter was not supplied at evaluation time.
    MissingParameter(String),
    /// Division by zero during expression evaluation.
    DivisionByZero,
    /// An aggregate was used outside a group-by context.
    MisplacedAggregate(String),
    /// Parse error with position information.
    Parse {
        /// Human readable message.
        message: String,
        /// Byte offset in the input where the error was detected.
        position: usize,
    },
    /// The evaluation was stopped cooperatively by an
    /// [`crate::interrupt::InterruptHook`] (cancellation, deadline, step
    /// quota) before it finished.
    Interrupted(crate::interrupt::Interrupted),
    /// A `GroupBy` reached an annotated evaluation whose annotation gives
    /// aggregate values no meaning (see
    /// [`crate::eval::Annotation::aggregate`]).
    AnnotatedGroupBy,
    /// A compiled [`crate::plan::Plan`] ran against a database whose
    /// relation of this name has a different schema than the one it was
    /// compiled against.
    PlanMismatch {
        /// The relation whose schema differs.
        relation: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
            QueryError::UnknownColumn { name, available } => write!(
                f,
                "unknown column `{name}` (available: {})",
                available.join(", ")
            ),
            QueryError::AmbiguousColumn { name, candidates } => write!(
                f,
                "ambiguous column `{name}` (candidates: {})",
                candidates.join(", ")
            ),
            QueryError::NotUnionCompatible { left, right } => {
                write!(f, "schemas are not union compatible: {left} vs {right}")
            }
            QueryError::TypeError(msg) => write!(f, "type error: {msg}"),
            QueryError::MissingParameter(p) => write!(f, "missing query parameter @{p}"),
            QueryError::DivisionByZero => write!(f, "division by zero"),
            QueryError::MisplacedAggregate(a) => {
                write!(f, "aggregate `{a}` used outside GROUP BY")
            }
            QueryError::Parse { message, position } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            QueryError::Interrupted(reason) => {
                write!(f, "evaluation interrupted: {reason}")
            }
            QueryError::AnnotatedGroupBy => write!(f, "group-by under an annotated evaluation"),
            QueryError::PlanMismatch { relation } => write!(
                f,
                "relation `{relation}` has a different schema than the plan was compiled against"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ratest_storage::StorageError> for QueryError {
    fn from(e: ratest_storage::StorageError) -> Self {
        QueryError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = QueryError::UnknownColumn {
            name: "grade".into(),
            available: vec!["name".into(), "major".into()],
        };
        assert!(e.to_string().contains("grade"));
        assert!(e.to_string().contains("major"));

        let e = QueryError::Parse {
            message: "expected )".into(),
            position: 12,
        };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn storage_errors_convert() {
        let s = ratest_storage::StorageError::UnknownRelation("R".into());
        let q: QueryError = s.into();
        assert!(matches!(q, QueryError::Storage(_)));
        assert!(q.to_string().contains('R'));
    }
}
