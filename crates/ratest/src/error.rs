//! Error type for the RATest core algorithms.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RatestError>;

/// Errors raised by the counterexample algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum RatestError {
    /// Query-layer error (parsing, type checking, evaluation).
    Query(ratest_ra::QueryError),
    /// Provenance-layer error.
    Provenance(ratest_provenance::ProvenanceError),
    /// Solver-layer error.
    Solver(ratest_solver::SolverError),
    /// The two queries have incompatible output schemas — their schemas
    /// already explain the inequivalence, no counterexample search is needed.
    NotUnionCompatible {
        /// Rendered schema of `Q1`.
        left: String,
        /// Rendered schema of `Q2`.
        right: String,
    },
    /// The queries agree on the given instance, so it is not a
    /// counterexample to begin with.
    QueriesAgreeOnInstance,
    /// An algorithm-specific precondition failed.
    Unsupported(String),
    /// The run was cancelled cooperatively (e.g. the grading engine timed the
    /// job out and asked it to stop consuming CPU).
    Cancelled,
    /// The run's [`crate::session::Budget`] deadline passed.
    DeadlineExceeded,
    /// The run's [`crate::session::Budget`] step quota was exhausted.
    StepQuotaExhausted,
}

impl RatestError {
    /// Translate an evaluator-layer interruption reason into the matching
    /// typed error. This is what keeps a budget raised deep inside
    /// `ra::eval` indistinguishable from one raised at an algorithm loop
    /// boundary.
    pub fn from_interrupted(reason: ratest_ra::Interrupted) -> RatestError {
        match reason {
            ratest_ra::Interrupted::Cancelled => RatestError::Cancelled,
            ratest_ra::Interrupted::DeadlineExceeded => RatestError::DeadlineExceeded,
            ratest_ra::Interrupted::StepQuotaExhausted => RatestError::StepQuotaExhausted,
        }
    }

    /// A short name for the kind of error, for tables that have no room
    /// for the message (`reproduce fig6`).
    pub fn kind(&self) -> &'static str {
        match self {
            RatestError::Query(_) => "query",
            RatestError::Provenance(_) => "provenance",
            RatestError::Solver(_) => "solver",
            RatestError::NotUnionCompatible { .. } => "schema",
            RatestError::QueriesAgreeOnInstance => "agree",
            RatestError::Unsupported(_) => "unsupported",
            RatestError::Cancelled => "cancelled",
            RatestError::DeadlineExceeded => "deadline",
            RatestError::StepQuotaExhausted => "quota",
        }
    }

    /// Whether this error means the run hit its budget (cancelled, deadline,
    /// quota) rather than failing on the inputs.
    pub fn is_budget_exhausted(&self) -> bool {
        matches!(
            self,
            RatestError::Cancelled
                | RatestError::DeadlineExceeded
                | RatestError::StepQuotaExhausted
        )
    }
}

impl fmt::Display for RatestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatestError::Query(e) => write!(f, "query error: {e}"),
            RatestError::Provenance(e) => write!(f, "provenance error: {e}"),
            RatestError::Solver(e) => write!(f, "solver error: {e}"),
            RatestError::NotUnionCompatible { left, right } => {
                write!(f, "queries are not union compatible: {left} vs {right}")
            }
            RatestError::QueriesAgreeOnInstance => {
                write!(
                    f,
                    "Q1(D) = Q2(D): the instance does not distinguish the queries"
                )
            }
            RatestError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            RatestError::Cancelled => write!(f, "cancelled"),
            RatestError::DeadlineExceeded => write!(f, "budget deadline exceeded"),
            RatestError::StepQuotaExhausted => write!(f, "budget step quota exhausted"),
        }
    }
}

impl std::error::Error for RatestError {}

impl From<ratest_ra::QueryError> for RatestError {
    fn from(e: ratest_ra::QueryError) -> Self {
        match e {
            // A budget raised inside the evaluator is a budget error, not a
            // query error: the callers that map outcomes to verdicts must
            // see one consistent shape wherever the interruption landed.
            ratest_ra::QueryError::Interrupted(reason) => RatestError::from_interrupted(reason),
            other => RatestError::Query(other),
        }
    }
}
impl From<ratest_provenance::ProvenanceError> for RatestError {
    fn from(e: ratest_provenance::ProvenanceError) -> Self {
        match e {
            ratest_provenance::ProvenanceError::Query(ratest_ra::QueryError::Interrupted(
                reason,
            )) => RatestError::from_interrupted(reason),
            other => RatestError::Provenance(other),
        }
    }
}
impl From<ratest_solver::SolverError> for RatestError {
    fn from(e: ratest_solver::SolverError) -> Self {
        RatestError::Solver(e)
    }
}
/// A poly-time algorithm whose provenance the closed-minterm engine
/// declines leaves the pair to the solver path.
impl From<ratest_provenance::Declined> for RatestError {
    fn from(declined: ratest_provenance::Declined) -> Self {
        RatestError::Unsupported(format!("{declined}; use the solver path"))
    }
}
impl From<ratest_storage::StorageError> for RatestError {
    fn from(e: ratest_storage::StorageError) -> Self {
        RatestError::Query(ratest_ra::QueryError::Storage(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: RatestError = ratest_solver::SolverError::Unsatisfiable.into();
        assert!(e.to_string().contains("unsat"));
        let e: RatestError = ratest_ra::QueryError::MissingParameter("p".into()).into();
        assert!(e.to_string().contains("@p"));
        let e: RatestError = ratest_storage::StorageError::UnknownRelation("R".into()).into();
        assert!(e.to_string().contains('R'));
        assert!(RatestError::QueriesAgreeOnInstance
            .to_string()
            .contains("Q1(D)"));
    }

    #[test]
    fn interruptions_normalize_to_budget_errors() {
        let e: RatestError =
            ratest_ra::QueryError::Interrupted(ratest_ra::Interrupted::DeadlineExceeded).into();
        assert_eq!(e, RatestError::DeadlineExceeded);
        assert!(e.is_budget_exhausted());
        let e: RatestError = ratest_provenance::ProvenanceError::Query(
            ratest_ra::QueryError::Interrupted(ratest_ra::Interrupted::Cancelled),
        )
        .into();
        assert_eq!(e, RatestError::Cancelled);
        let e: RatestError =
            ratest_ra::QueryError::Interrupted(ratest_ra::Interrupted::StepQuotaExhausted).into();
        assert_eq!(e, RatestError::StepQuotaExhausted);
        assert!(!RatestError::QueriesAgreeOnInstance.is_budget_exhausted());
    }
}
