//! `mjoin-workloads` — synthetic schemes and databases for tests, examples,
//! and the experiment harness.
//!
//! * [`Example3`]: the paper's Example 3 family — pairwise consistent,
//!   single-tuple join, every CPF/linear expression `~m` times worse than
//!   the non-CPF optimum — with closed-form sub-join sizes for scales where
//!   materialization is infeasible;
//! * [`schemes`]: chain / cycle / star / clique / grid / random connected
//!   scheme generators;
//! * [`datagen`]: random databases with a planted witness (`⋈D ≠ ∅`, as
//!   Theorem 2 requires);
//! * [`HubGraph`]: binary cyclic queries (triangles, cycles, cliques)
//!   over hub-patterned data where every pairwise join is `Θ(m²)` but the
//!   full join is `Θ(m)` — the separation the worst-case-optimal executor
//!   exploits;
//! * [`PlantedRedundancy`]: chain queries with planted foldable atoms
//!   (known core size, closed-form output and full-join sizes) — the
//!   corpus for query-core minimization.

#![warn(missing_docs)]

pub mod cycle_gap;
pub mod datagen;
pub mod example3;
pub mod hub;
pub mod redundant;
pub mod schemes;
pub mod star_schema;

pub use cycle_gap::CycleGap;
pub use datagen::{random_database, DataGenConfig};
pub use example3::Example3;
pub use hub::HubGraph;
pub use redundant::PlantedRedundancy;
pub use star_schema::{star_schema, StarSchemaConfig};
