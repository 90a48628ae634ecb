//! # ratest-provenance
//!
//! Boolean **how-provenance** for SPJUD queries and symbolic provenance for
//! aggregate queries — the machinery of Sections 2.3, 4 and 5.2 of
//! *"Explaining Wrong Queries Using Small Examples"*.
//!
//! The original prototype obtained provenance by rewriting SQL CTEs to carry
//! an extra `prv` string column and letting SQL Server evaluate them. Here
//! the [`annotate`](mod@annotate) module does the same with the executor that
//! evaluates queries, [`ratest_ra::eval::execute`]: [`BoolExpr`] implements
//! its row annotation, so the one executor propagates provenance expressions:
//!
//! * base tuples are annotated with their [`ratest_storage::TupleId`]
//!   variables,
//! * joins combine annotations with `∧`,
//! * projections/unions (duplicate elimination) combine with `∨`,
//! * difference `R − S` annotates survivors with `Prv_R(t) ∧ ¬Prv_S(t)`,
//!
//! producing, for every output tuple `t`, the Boolean expression `Prv(t)`
//! such that `t ∈ Q(D')` **iff** `Prv(t)` is satisfied by the indicator
//! assignment of `D' ⊆ D` (the property Section 4 builds on).
//!
//! For aggregate queries ([`aggprov`]) the annotation follows Amsterdamer et
//! al.: each group carries its existence provenance plus, for every member
//! tuple, the member's provenance and its aggregate argument values, so the
//! core crate can encode "the group exists in only one query, or it exists in
//! both with different aggregate values" as a constraint.
//!
//! [`smtlib`] renders provenance constraints in SMT-LIB 2 syntax (Listings 1
//! and 2 of the paper) for debugging and documentation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggprov;
pub mod annotate;
pub mod boolexpr;
pub mod dnf;
pub mod error;
pub mod smtlib;

pub use aggprov::{
    aggregate_provenance, aggregate_provenance_instrumented, aggregate_provenance_interruptible,
    pair_aggregate_provenance, AggregateProvenance, GroupProvenance,
};
pub use annotate::{
    annotate, annotate_interruptible, annotate_with_params, difference_of, AnnotatedResult,
};
pub use boolexpr::BoolExpr;
pub use dnf::{Dnf, Minterm};
pub use error::{ProvenanceError, Result};
