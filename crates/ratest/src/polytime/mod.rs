//! Poly-time special cases of the smallest witness problem (Table 1).
//!
//! The general problem is NP-hard (even in data complexity once projection,
//! join and difference are combined — Theorem 8), but several restricted
//! classes admit direct algorithms:
//!
//! * **monotone pairs** (SJ, SPU, JU*, SPJU): the provenance of the chosen
//!   output tuple is negation-free, so its smallest foreign-key-closed
//!   minterm is the smallest witness ([`monotone`], Theorems 1, 2, 5, 6),
//! * **SPJUD\*** (differences only at the top): the smallest witness is a
//!   union of minimal witnesses of the constituent SPJU sub-queries
//!   ([`spjud_star`], Theorem 7).
//!
//! Both take that minterm from [`ratest_provenance::ClosedMinterms`].
//!
//! The [`crate::pipeline`] dispatches to these when the classifier proves the
//! pair tractable (or the algorithm is forced) and falls back to the solver
//! otherwise.

pub mod monotone;
pub mod spjud_star;
