//! `mjoin-hypergraph` — database schemes as hypergraphs.
//!
//! The paper (§2.1) represents a database scheme by a hypergraph whose nodes
//! are attributes and whose hyperedges are relation schemes. Everything its
//! algorithms ask of that hypergraph lives here:
//!
//! * [`RelSet`]: subsets of relation-scheme occurrences as bitmasks, with the
//!   2-partition enumerator the optimizer DPs are built on;
//! * [`DbScheme`]: the scheme itself — connectivity, connected components,
//!   attribute unions, and the Theorem 2 factor `r(a+5)`;
//! * [`gyo`]: the classical GYO ear-reduction acyclicity test and join
//!   forest, which the acyclic baselines (full reducer, Yannakakis) and the
//!   exact cost oracle's sub-join counts consume;
//! * [`cover`]: fractional edge covers and the AGM output bound, which the
//!   engine (`mjoin_core::engine`) compares against Theorem-2 certificates
//!   when choosing between the program and the worst-case-optimal join.

#![warn(missing_docs)]

pub mod cover;
pub mod gyo;
pub mod relset;
pub mod scheme;

pub use cover::{agm_ln, best_cover, bound_u64, Cover};
pub use gyo::{gyo, is_acyclic, GyoResult};
pub use relset::RelSet;
pub use scheme::DbScheme;
