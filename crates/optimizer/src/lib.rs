//! `mjoin-optimizer` — baselines for picking join expression trees.
//!
//! The paper's pipeline needs a good input tree `T₁`; this crate supplies
//! every flavor the literature it cites uses:
//!
//! * [`CostOracle`]: sub-join sizes, exact ([`ExactOracle`]) or estimated
//!   under attribute independence ([`EstimateOracle`]);
//! * [`optimize`]: subset-DP optima over the all/CPF/linear/linear-CPF
//!   spaces ([`SearchSpace`]);
//! * [`greedy`]: the smallest-result heuristic, with or without the
//!   avoid-Cartesian-products rule;
//! * [`random_tree`]: a random-merge (optionally CPF) bushy tree, the input
//!   tree the experiments and property tests feed the pipeline;
//! * [`space_sizes`]: search-space statistics for the E5 experiment.

#![warn(missing_docs)]

pub mod dp;
pub mod greedy;
pub mod histogram;
pub mod oracle;
pub mod randomized;
pub mod search_space;

pub use dp::{optimize, Optimized, SearchSpace};
pub use greedy::greedy;
pub use histogram::{q_error, Histogram, HistogramOracle};
pub use oracle::{CostOracle, EstimateOracle, ExactOracle};
pub use randomized::random_tree;
pub use search_space::{space_sizes, SpaceSizes};
