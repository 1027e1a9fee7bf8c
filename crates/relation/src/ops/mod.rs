//! Relational operators: natural join, semijoin, projection, selection, and
//! the set operations.
//!
//! All operators are hash-based and operate positionally: attribute-name
//! resolution happens once per operator call, never per tuple. There is one
//! physical engine: every operator validates its arguments, handles its
//! degenerate cases, and runs its batch-at-a-time kernel from
//! `ops/columnar.rs` over the relation's column vectors. Every keyed join
//! and semijoin — [`join`], [`semijoin`], the interpreter's statements and
//! each Grace-hash partition pair — builds (or reuses) a [`JoinIndex`] and
//! runs its one probe loop, and every projection reads the key groups of
//! one ([`project`], [`project_indexed`]). ([`merge_join`] is the exception — the
//! independent sort-based reference the tests hold the kernels against.)
//! Each operator documents its relationship to the paper's statements
//! (§2.2) and cost model (§2.3); cost accounting itself lives in
//! [`crate::cost`] and is done by the callers that orchestrate evaluation.

pub(crate) mod columnar;
mod hashtable;
mod index;
mod join;
mod merge_join;
mod product;
mod project;
mod rename;
mod select;
mod selection;
mod semijoin;
mod setops;
mod spill;
mod trie;
mod trie_join;

pub use index::{
    par_join_indexed_cutoff, par_semijoin_indexed_cutoff, project_indexed, semijoin_grouped,
    JoinIndex, GROUP_SEMIJOIN_MIN_ROWS,
};
pub use join::{join, join_key_positions};
pub use merge_join::merge_join;
pub use product::{Answer, Product};
pub use project::project;
pub use rename::rename;
pub use select::{select_attrs_eq, select_eq, select_where};
pub use selection::Selection;
pub use semijoin::semijoin;
pub use setops::{difference, intersection, union};
pub use spill::{grace_hash_join, grace_hash_product, SpillStats};
pub use trie::TrieIndex;
pub use trie_join::{
    generic_join_count, trie_join, trie_join_count, trie_plan, Stopped, TrieJoinStats,
};

pub use columnar::{join_count, join_weight_sums, key_hashes};

/// The parallel/sequential cutoff in rows: below this row count the
/// `*_cutoff` operators run as one chunk — partitioning and thread start-up
/// overhead dominate until inputs reach a few thousand rows (trace timings
/// put the crossover between 2k and 8k rows on the benchmarked workloads,
/// so it stays at 4096). The program interpreter passes it to every
/// `*_cutoff` operator; tests pass their own to force a path.
pub const SMALL: usize = 4096;

/// Hash the values at `positions` of `row`, one row at a time: the
/// [`crate::fxhash::mix`]-fold of the cells' [`crate::Value::stable_hash`]es.
/// The kernels hash batch-wise through [`key_hashes`]; this is the reference
/// the tests pin that to.
#[cfg(test)]
pub(crate) fn hash_at(row: &crate::relation::Row, positions: &[usize]) -> u64 {
    positions.iter().fold(0u64, |acc, &p| {
        crate::fxhash::mix(acc, row[p].stable_hash())
    })
}
