//! # ratest-storage
//!
//! In-memory, set-semantics relational storage used by every other crate in
//! the RATest-rs workspace.
//!
//! The original RATest prototype (Miao, Roy, Yang, SIGMOD 2019) stored its
//! test database instances in Microsoft SQL Server and relied on the DBMS to
//! evaluate provenance-rewritten queries. This crate replaces that substrate
//! with a small, dependency-free relational store that provides exactly what
//! the counterexample algorithms need:
//!
//! * typed [`Value`]s with a total order and hashability (so relations can be
//!   sets and group-by keys can be hashed),
//! * [`Schema`]s with named, typed columns,
//! * [`Relation`]s whose tuples carry **stable tuple identifiers**
//!   ([`TupleId`]) — the paper annotates every input tuple with a unique
//!   identifier (`t1`, `t2`, ...) and the provenance/solver layers reason in
//!   terms of those identifiers,
//! * [`Database`] instances (named collections of relations) with
//!   **subinstance extraction** (`D' ⊆ D`), the central operation of the
//!   smallest-counterexample problem, and
//! * integrity [`constraints`]: keys, not-null, functional dependencies and
//!   foreign keys, the classes of constraints Γ considered in Section 2 of
//!   the paper.
//!
//! ## Example
//!
//! ```
//! use ratest_storage::{Database, Relation, Schema, DataType, Value};
//!
//! let mut student = Relation::new(
//!     "Student",
//!     Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
//! );
//! student.insert(vec![Value::from("Mary"), Value::from("CS")]).unwrap();
//! student.insert(vec![Value::from("John"), Value::from("ECON")]).unwrap();
//!
//! let mut db = Database::new("toy");
//! db.add_relation(student).unwrap();
//! assert_eq!(db.total_tuples(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod constraints;
pub mod database;
pub mod display;
pub mod error;
pub mod fk_index;
pub mod hash;
pub mod relation;
pub mod row_index;
pub mod schema;
pub mod subinstance;
pub mod tuple;
pub mod value;

pub use constraints::{Constraint, ConstraintSet, ForeignKey, FunctionalDependency, Key, NotNull};
pub use database::Database;
pub use error::{Result, StorageError};
pub use fk_index::ForeignKeyIndex;
pub use relation::Relation;
pub use row_index::RowIndex;
pub use schema::{Column, DataType, Schema};
pub use subinstance::{SubInstance, TupleSelection};
pub use tuple::{Tuple, TupleId};
pub use value::Value;
