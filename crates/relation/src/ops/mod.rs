//! Relational operators: natural join, semijoin, projection, selection, and
//! the set operations.
//!
//! All operators are hash-based and operate positionally: attribute-name
//! resolution happens once per operator call, never per tuple. Each operator
//! documents its relationship to the paper's statements (§2.2) and cost model
//! (§2.3); cost accounting itself lives in [`crate::cost`] and is done by the
//! callers that orchestrate evaluation.

mod columnar;
mod hashtable;
mod index;
mod join;
mod merge_join;
mod par_join;
mod project;
mod rename;
mod select;
mod semijoin;
mod setops;
mod spill;
mod trie;

pub use index::{
    par_join_indexed, par_join_indexed_cutoff, par_semijoin_indexed, par_semijoin_indexed_cutoff,
    JoinIndex,
};
pub use join::{join, join_key_positions};
pub use merge_join::merge_join;
pub use par_join::{par_join, par_join_cutoff};
pub use project::{par_project, par_project_cutoff, project};
pub use rename::rename;
pub use select::{select_eq, select_where};
pub use semijoin::{par_semijoin, par_semijoin_cutoff, semijoin};
pub use setops::{difference, intersection, union};
pub use spill::{grace_hash_join, SpillStats};
pub use trie::TrieIndex;

pub use columnar::{join_count, key_hashes};
// `layout`/`set_layout`/`Layout` are defined below, alongside the
// `par_cutoff` knobs.

use crate::fxhash::mix;
use crate::relation::Row;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default parallel/sequential cutoff: below this row count the parallel
/// operators fall back to their sequential counterparts — partitioning and
/// task-queue overhead dominate until inputs reach a few thousand rows
/// (PR 2's trace timings put the crossover between 2k and 8k rows on the
/// benchmarked workloads, so the default stays at 4096).
pub const SMALL: usize = 4096;

/// Runtime override of the cutoff. `usize::MAX` means "no override": reads
/// fall through to the once-only environment seed [`par_cutoff_env`].
/// Readers never store here, so a concurrent [`set_par_cutoff`] can never
/// be clobbered by a racing first read (the old check-then-store
/// initialization lost exactly that race in long-lived multi-session
/// processes).
static PAR_CUTOFF_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// The environment-seeded cutoff, read exactly once per process.
fn par_cutoff_env() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("MJOIN_PAR_CUTOFF")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(SMALL)
    })
}

/// The process-wide parallel/sequential cutoff in rows.
///
/// Seeded once from the `MJOIN_PAR_CUTOFF` environment variable (behind a
/// `OnceLock`; [`SMALL`] when unset or unparsable) and overridable at
/// runtime with [`set_par_cutoff`]. `mjoin_program::ExecConfig` snapshots
/// this as its default and threads it through every operator call, so
/// per-run overrides don't need process-global state.
pub fn par_cutoff() -> usize {
    let v = PAR_CUTOFF_OVERRIDE.load(Ordering::Relaxed);
    if v != usize::MAX {
        return v;
    }
    par_cutoff_env()
}

/// Override the process-wide cutoff (0 forces the parallel paths on for
/// any input size; large values force the sequential paths).
pub fn set_par_cutoff(rows: usize) {
    // usize::MAX is the "no override" sentinel; clamp just below it so a
    // caller asking for "always sequential" doesn't erase its own override.
    PAR_CUTOFF_OVERRIDE.store(rows.min(usize::MAX - 1), Ordering::Relaxed);
}

/// The physical storage layout the operators execute against.
///
/// The kernels are written twice: the historical tuple-at-a-time **row**
/// engine (hash one `Row` at a time, splice output rows value-by-value) and
/// the batch-at-a-time **columnar** engine (hash whole key columns by
/// zipping column slices, verify candidates positionally against column
/// data, late-materialize output by gathering selection vectors). Both
/// produce identical relations — the differential test suite holds them
/// against each other — and identical key *hashes* (see [`hash_at`]), so an
/// index built under one layout probes correctly under the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Tuple-at-a-time kernels over the lazily materialized row view.
    Row,
    /// Batch kernels over the column vectors (the default).
    Columnar,
}

/// Runtime layout override: 0 = no override (fall through to the env
/// seed), 1 = row, 2 = columnar. As with [`PAR_CUTOFF_OVERRIDE`], readers
/// never store here — the old lazy init called `set_layout` from `layout()`
/// and could overwrite a concurrent runtime override with the env value.
static LAYOUT_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The environment-seeded layout, read exactly once per process.
fn layout_env() -> Layout {
    static ENV: OnceLock<Layout> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("MJOIN_LAYOUT") {
        Ok(v) if v.trim().eq_ignore_ascii_case("row") => Layout::Row,
        _ => Layout::Columnar,
    })
}

/// The process-wide storage layout the kernels dispatch on.
///
/// Seeded once from the `MJOIN_LAYOUT` environment variable (`row` selects
/// the row engine; anything else — including unset — the columnar engine).
/// Overridable at runtime with [`set_layout`]; the row engine exists as the
/// honest baseline for `layout_speedup` benchmarking and for differential
/// testing.
pub fn layout() -> Layout {
    match LAYOUT_OVERRIDE.load(Ordering::Relaxed) {
        1 => Layout::Row,
        2 => Layout::Columnar,
        _ => layout_env(),
    }
}

/// Override the process-wide storage layout.
pub fn set_layout(l: Layout) {
    LAYOUT_OVERRIDE.store(
        match l {
            Layout::Row => 1,
            Layout::Columnar => 2,
        },
        Ordering::Relaxed,
    );
}

/// Hash the values at `positions` of `row` (the partition and join key).
/// The kernels never materialize keys: this hash plus the positional
/// comparison of [`keys_eq`] replace `Box<[Value]>` key allocation on both
/// the build and probe sides.
///
/// Defined as the [`mix`]-fold of the cells' [`crate::Value::stable_hash`]es
/// — exactly what the columnar [`key_hashes`] computes batch-wise from
/// column slices — so the two layouts' hash tables interoperate bit-for-bit.
#[inline]
pub(crate) fn hash_at(row: &Row, positions: &[usize]) -> u64 {
    positions
        .iter()
        .fold(0u64, |acc, &p| mix(acc, row[p].stable_hash()))
}

/// Whether `a` restricted to `apos` equals `b` restricted to `bpos`
/// (positionally aligned key comparison; the collision check behind
/// [`hashtable::RawTable`] candidates).
#[inline]
pub(crate) fn keys_eq(a: &Row, apos: &[usize], b: &Row, bpos: &[usize]) -> bool {
    debug_assert_eq!(apos.len(), bpos.len());
    apos.iter().zip(bpos).all(|(&i, &j)| a[i] == b[j])
}

/// Split `rows` into `parts` key-disjoint groups by hashing the values at
/// `positions`. Zero-copy: the groups borrow the input rows. Rows that agree
/// on the key always land in the same group, so per-group operator results
/// can be concatenated without cross-group deduplication.
pub(crate) fn hash_partition<'a>(
    rows: &'a [Row],
    positions: &[usize],
    parts: usize,
) -> Vec<Vec<&'a Row>> {
    let parts = parts.max(1);
    let mut out: Vec<Vec<&Row>> = vec![Vec::new(); parts];
    for row in rows {
        out[(hash_at(row, positions) as usize) % parts].push(row);
    }
    out
}
