//! # ratest-ra
//!
//! The extended relational algebra (RA) that RATest queries are written in:
//! **S**elect, **P**roject, **J**oin, **U**nion, **D**ifference plus
//! grouping/**A**ggregation — the `SPJUDA` language of the paper — together
//! with
//!
//! * a scalar expression language ([`expr`]) for selection predicates,
//!   generalized projections and `HAVING` conditions, including query
//!   parameters (`@numCS`) used by the *parameterized counterexample*
//!   algorithm,
//! * a type checker ([`typecheck`]) that computes output schemas,
//! * a plan compiler ([`plan`]) that resolves a query once against a
//!   database's schemas — column slots, hash-join keys, output schemas — so
//!   the row loops never look a name up, and one plan runs on every
//!   sub-instance of that database,
//! * a set-semantics executor ([`eval`]) that runs plans over
//!   `ratest-storage` databases, generic over a row annotation: plain
//!   evaluation carries `()`, and the provenance crate runs how-provenance
//!   through the same executor,
//! * a textual surface syntax and parser ([`parser`]) modelled after the
//!   relational-algebra interpreter used in the course deployment,
//! * a query classifier ([`classify`](mod@classify)) that detects the
//!   sub-language a query pair falls into (SJ, SPU, JU*, SPJU, SPJUD*, ... —
//!   Table 1 of the paper) so the core crate can dispatch to poly-time
//!   algorithms, and
//! * complexity metrics (operator count, number of differences, tree height)
//!   reported by Figure 3.
//!
//! ## Example
//!
//! ```
//! use ratest_ra::prelude::*;
//! use ratest_storage::{Database, Relation, Schema, DataType, Value};
//!
//! let mut student = Relation::new(
//!     "Student",
//!     Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
//! );
//! student.insert(vec![Value::from("Mary"), Value::from("CS")]).unwrap();
//! let mut db = Database::new("toy");
//! db.add_relation(student).unwrap();
//!
//! // π_{name} σ_{major = 'CS'} (Student)
//! let q = rel("Student")
//!     .select(col("major").eq(lit("CS")))
//!     .project(&["name"])
//!     .build();
//! let out = evaluate(&q, &db).unwrap();
//! assert_eq!(out.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod canonical;
pub mod classify;
pub mod display;
pub mod error;
pub mod eval;
pub mod expr;
pub mod interrupt;
pub mod metrics;
pub mod parser;
pub mod plan;
pub mod rewrite;
pub mod testdata;
pub mod typecheck;

pub use ast::{AggCall, AggFunc, Query};
pub use builder::{col, lit, param, rel, QueryBuilder};
pub use canonical::{canonical_form, fingerprint};
pub use classify::{classify, classify_pair, QueryClass};
pub use error::{QueryError, Result};
pub use eval::{
    evaluate, evaluate_interruptible, evaluate_plan, evaluate_with_params, Params, ResultSet,
};
pub use expr::{BinaryOp, Expr, UnaryOp};
pub use interrupt::{Interrupt, InterruptHook, Interrupted};
pub use metrics::QueryMetrics;
pub use plan::Plan;
pub use typecheck::output_schema;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::ast::{AggCall, AggFunc, Query};
    pub use crate::builder::{col, lit, param, rel, QueryBuilder};
    pub use crate::classify::{classify, classify_pair, QueryClass};
    pub use crate::eval::{evaluate, evaluate_with_params, Params, ResultSet};
    pub use crate::expr::{BinaryOp, Expr, UnaryOp};
    pub use crate::parser::parse_query;
    pub use crate::typecheck::output_schema;
}
