//! `mjoin-acyclic` — the classical polynomial-time machinery for *acyclic*
//! database schemes that the paper's introduction builds on.
//!
//! * [`pairwise_consistent`] / [`globally_consistent`] /
//!   [`semijoin_fixpoint`]: the consistency notions behind Example 3's
//!   "semijoin programs are useless on this database" observation;
//! * [`full_reducer_program`] / [`fully_reduce`]: Bernstein–Goodman full
//!   reducers over the GYO join forest;
//! * [`monotone_join_tree`]: monotone join expressions (no intermediate
//!   larger than the final join, once globally consistent);
//! * [`mod@yannakakis`]: Yannakakis' project-join algorithm.

#![warn(missing_docs)]

pub mod consistency;
pub mod full_reducer;
pub mod monotone;
pub mod yannakakis;

pub use consistency::{globally_consistent, pairwise_consistent, semijoin_fixpoint};
pub use full_reducer::{full_reducer_program, fully_reduce, CyclicSchemeError};
pub use monotone::monotone_join_tree;
pub use yannakakis::yannakakis;
