//! Errors raised by the provenance layer.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ProvenanceError>;

/// Errors raised while computing provenance.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvenanceError {
    /// An error bubbled up from query evaluation or type checking.
    Query(ratest_ra::QueryError),
    /// The query shape is not supported by the aggregate-provenance
    /// annotator (e.g. a difference above an aggregation, which the paper
    /// excludes by assumption (3) of Section 5).
    UnsupportedAggregateShape(String),
}

impl fmt::Display for ProvenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvenanceError::Query(e) => write!(f, "query error: {e}"),
            ProvenanceError::UnsupportedAggregateShape(msg) => {
                write!(f, "unsupported aggregate query shape: {msg}")
            }
        }
    }
}

impl std::error::Error for ProvenanceError {}

impl From<ratest_ra::QueryError> for ProvenanceError {
    fn from(e: ratest_ra::QueryError) -> Self {
        ProvenanceError::Query(e)
    }
}

impl From<ratest_storage::StorageError> for ProvenanceError {
    fn from(e: ratest_storage::StorageError) -> Self {
        ProvenanceError::Query(ratest_ra::QueryError::Storage(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: ProvenanceError = ratest_ra::QueryError::MissingParameter("p".into()).into();
        assert!(e.to_string().contains("@p"));
        let e: ProvenanceError = ratest_storage::StorageError::UnknownRelation("R".into()).into();
        assert!(e.to_string().contains('R'));
        assert!(ProvenanceError::UnsupportedAggregateShape("x".into())
            .to_string()
            .contains('x'));
    }
}
