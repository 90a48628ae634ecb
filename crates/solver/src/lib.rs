//! # ratest-solver
//!
//! A from-scratch constraint-solving substrate replacing the Z3 optimizing
//! SMT solver used by the original RATest prototype.
//!
//! The smallest-witness problem maps to **min-ones satisfiability**
//! (Section 4 of the paper): find a model of a Boolean formula with the
//! fewest variables set to true. This crate provides everything needed for
//! that, with no external dependencies:
//!
//! * [`formula`] — a Boolean formula AST (the shape provenance expressions
//!   are translated into),
//! * [`cnf`] — Tseitin transformation to clausal form,
//! * [`sat`] — a CDCL SAT solver (two-watched-literals, VSIDS branching,
//!   first-UIP clause learning, Luby restarts, phase saving). Clauses live
//!   in one flat literal arena, watch lists are compacted in place during
//!   propagation, conflict analysis reuses its buffers, and the branching
//!   variable comes from an activity heap (ties to the lowest variable), so
//!   a solve allocates little while searching exactly as a plain
//!   clause-per-`Vec` kernel would,
//! * [`cardinality`] — sequential-counter *at-most-k* encodings over the
//!   objective variables,
//! * [`minones`] — the min-ones optimizer (binary-search descent over the
//!   cardinality bound; each probe loads the base CNF by reference and
//!   streams its at-most-k clauses after it) with support for an optional *theory callback*: a
//!   predicate that accepts or rejects candidate models, used by the
//!   aggregate algorithms to implement lazy SMT-style solving (the Boolean
//!   skeleton is solved exactly; arithmetic side conditions are checked by
//!   evaluation and violating models are blocked),
//! * [`enumerate`] — plain model enumeration with blocking clauses, the
//!   `Naive-k` baseline of Figure 5.
//!
//! ## Example
//!
//! ```
//! use ratest_solver::formula::Formula;
//! use ratest_solver::minones::{minimize_ones, MinOnesOptions};
//!
//! // (x1 ∨ x2) ∧ (x2 ∨ x3): the minimum-ones model sets only x2.
//! let f = Formula::and(vec![
//!     Formula::or(vec![Formula::var(1), Formula::var(2)]),
//!     Formula::or(vec![Formula::var(2), Formula::var(3)]),
//! ]);
//! let solution = minimize_ones(&f, &[1, 2, 3], &MinOnesOptions::default()).unwrap();
//! assert_eq!(solution.cost, 1);
//! assert!(solution.true_vars.contains(&2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cardinality;
pub mod cnf;
pub mod enumerate;
pub mod error;
pub mod formula;
pub mod minones;
pub mod sat;
pub mod stats;

pub use cnf::{Clause, Cnf, Lit, Var};
pub use error::{Result, SolverError};
pub use formula::Formula;
pub use minones::{
    minimize_ones, minimize_ones_below, minimize_ones_with_theory, minimize_ones_with_theory_into,
    Descent, MinOnesOptions, MinOnesSolution,
};
pub use sat::{SatResult, Solver};
pub use stats::SolverStats;
