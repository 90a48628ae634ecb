//! # ratest-core
//!
//! The RATest algorithms from *"Explaining Wrong Queries Using Small
//! Examples"* (Miao, Roy, Yang — SIGMOD 2019): given a reference query `Q1`,
//! a test query `Q2` and a test database instance `D` with
//! `Q1(D) ≠ Q2(D)`, find a **small counterexample** `D' ⊆ D` such that
//! `Q1(D') ≠ Q2(D')`.
//!
//! The crate implements the paper's full algorithm suite:
//!
//! * [`problem`] — the *smallest counterexample problem* (SCP) and *smallest
//!   witness problem* (SWP) definitions, counterexample verification and
//!   result types,
//! * [`encode`] — translation of Boolean how-provenance plus foreign-key
//!   constraints into solver formulas (Section 4.1 and 4.3),
//! * [`basic`] — Algorithm 1 (`Basic`): iterate over all differing output
//!   tuples, solve each witness problem, keep the global best,
//! * [`optsigma`] — Algorithm 2 (`Optσ`): pick one differing tuple, push a
//!   tuple-equality selection down `Q1 − Q2`, compute provenance for that
//!   tuple only, and minimize with the optimizing solver,
//! * [`polytime`] — the poly-time special cases of Table 1 (monotone SPJU
//!   witnesses via DNF minterms; SPJUD\* via combination of minimal
//!   witnesses),
//! * [`aggregates`] — the aggregate-query extensions of Section 5
//!   (`Agg-Basic` provenance encoding, `Agg-Param` parameterized
//!   counterexamples, `Agg-Opt` heuristic — Algorithm 3),
//! * [`pipeline`] — the end-to-end RATest dispatch that classifies the
//!   query pair and runs the right algorithm, with per-phase timing
//!   breakdowns used by the experiment harness,
//! * [`session`] — the durable, session-oriented public API: a [`Session`]
//!   owns the database and prepared references, a unified [`session::Budget`]
//!   (deadline + step quota + cancellation) bounds every request, and an
//!   [`session::EventSink`] streams typed progress events,
//! * [`report`] — human-readable explanations (the CLI stand-in for the
//!   web UI shown to students).
//!
//! ## Quick start
//!
//! ```
//! use ratest_core::session::Session;
//! use ratest_ra::testdata;
//!
//! let session = Session::builder(testdata::figure1_db()).build();
//! let reference = session.prepare(&testdata::example1_q1()).unwrap(); // instructor's query
//! let outcome = session
//!     .explain(reference, &testdata::example1_q2()) // student's wrong query
//!     .unwrap();
//! let cex = outcome.counterexample.expect("queries differ");
//! assert_eq!(cex.size(), 3); // e.g. {Mary} ∪ {two of her CS registrations}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod basic;
pub mod encode;
pub mod error;
pub mod optsigma;
pub mod pipeline;
pub mod polytime;
pub mod problem;
pub mod report;
pub mod session;
pub mod trace;

pub use error::{RatestError, Result};
pub use pipeline::{ExplainOutcome, PreparedReference, RatestOptions, SolverStrategy, Timings};
pub use problem::{Counterexample, Witness};
pub use session::{
    Budget, CollectingSink, EventHandle, EventSink, ExplainEvent, Phase, ReferenceHandle, Session,
    SessionBuilder,
};
pub use trace::TracingSink;
