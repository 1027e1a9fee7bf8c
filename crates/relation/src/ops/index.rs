//! `JoinIndex` — the build-side table of every keyed join and semijoin in
//! the workspace and the grouping structure of every projection, an owned,
//! shareable index over an `Arc<Relation>`, plus the operator variants that
//! probe one or read its key groups.
//!
//! Programs derived by the paper's Algorithm 2 read the same head relations
//! over and over: a full-reducer-style semijoin sweep down the CPF tree,
//! then a join sweep back up. A `JoinIndex` pins the relation
//! (`Arc<Relation>`) and the key positions it was built for, so the program
//! interpreter can memoize it across statements — cache hits skip the whole
//! build pass — and a level of concurrent statements can probe one shared
//! index instead of building one table per statement. [`super::join`],
//! [`super::semijoin`] and each Grace-hash partition pair build a fresh one
//! and probe it the same way.
//!
//! The index has two memory layouts, chosen at build time:
//!
//! - **dense**: a key of one integer column whose stored span is narrow
//!   enough that `4·(span + 2) + 4·rows` bytes — a CSR of row ids grouped
//!   by their cell, the key's offset from the span's minimum — is no more
//!   than the hash layout would take. A probe cell maps to its rows by one
//!   addition (the distance between the two columns' minimums) and one
//!   range check: no hash, no chain, no cell comparison (an interned probe
//!   column maps each pool entry once per probe, a string to no row). The
//!   keys of Algorithm 2's statements are usually of this kind: one shared
//!   integer attribute.
//! - **hash**: a [`RawTable`] of key hashes for every other key —
//!   multi-column, interned, sparse, or empty (Cartesian). Hashes come
//!   batch-wise from [`columnar::key_hashes`], and collisions resolve by
//!   comparing cells positionally against column data
//!   ([`columnar::ids_eq`]) — no key materialization on either side.
//!
//! Both yield a key's rows most recently inserted first, so a probe returns
//! the same `(build_ids, probe_ids)` whichever layout it hits. There is one
//! probe loop ([`JoinIndex::probe`]), which a join runs collecting every
//! match and a semijoin collecting only the ids of the probe rows that
//! match, at most one each (see [`Matches`]). With `threads > 1` a probe
//! side of at least `cutoff` rows is cut into contiguous chunks run through
//! [`crate::par_map`], whose parts concatenate in probe order. A semijoin
//! that keeps every target row returns the target itself, sharing its
//! columns.
//!
//! An index is also its relation grouped by key: each distinct key is one
//! group of rows, the dense layout's non-empty slots in key order, the hash
//! layout's first rows of their keys in row order (a walk of its chains).
//! Two operators read the groups instead of every row:
//!
//! - [`project_indexed`] — `π_key R` is the key cells of each group's first
//!   row. [`super::project`] runs it over a fresh index; the interpreter
//!   over the index its cache holds for `R` on the projected attributes,
//!   built and cached on a miss as a join's build side is.
//! - [`semijoin_grouped`] — `R ⋉ S` probes each of `R`'s keys into `S`'s
//!   index once, then keeps `R` itself when every group survives, or the
//!   rows of the surviving keys (one pass over the key column, a gather).
//!   The interpreter takes it only when its cache already holds a dense
//!   index over `R` on the shared key — found by `Arc` identity or by a
//!   fingerprint already memoized, so looking costs no pass over `R` — with
//!   at least [`GROUP_SEMIJOIN_MIN_ROWS`] rows per group; otherwise it
//!   probes every row of `R` as above. On a shared two-vCPU Xeon host, a
//!   100,000-row target keeping 97 % of its keys (medians of 31 runs, three
//!   passes) took the group path at 1.28–1.30× the row probe's time at 4
//!   rows per key, 1.04–1.06× at 8, 1.02–1.03× at 12 and 0.89–0.90× at 16;
//!   a 4,000-row target 0.91–0.93× at 8 and 0.98–1.00× at 16. The constant
//!   is the smallest power of two at which the group path was no slower in
//!   every pass at both sizes.

use super::columnar;
use super::hashtable::RawTable;
use super::join::join_key_positions;
use crate::column::{with_cells, Column, IntCells, IntColumn};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::span::IntSpan;
use std::sync::Arc;

/// A build-side table for a `(Arc<Relation>, key positions)` pair.
///
/// The index holds the relation alive, so a raw-pointer cache key derived
/// from `Arc::as_ptr(relation)` cannot be reused by a different relation
/// while the index exists (no ABA).
#[derive(Debug)]
pub struct JoinIndex {
    rel: Arc<Relation>,
    key_pos: Box<[usize]>,
    layout: Layout,
}

/// Where an index finds a key's rows; see the module docs.
#[derive(Debug)]
enum Layout {
    Dense(Dense),
    Hash(RawTable),
}

/// The dense layout: the rows whose key is `span.min + k` are
/// `rows[starts[k]..starts[k + 1]]`, most recently inserted first.
#[derive(Debug)]
struct Dense {
    span: IntSpan,
    /// `span.width + 2` offsets into `rows`.
    starts: Vec<u32>,
    rows: Vec<u32>,
    /// How many keys have rows: the non-empty groups.
    groups: usize,
}

impl Dense {
    /// The dense layout over the key column `keys`, on its stored span, or
    /// `None` when it would take more bytes than the hash layout over as
    /// many rows (a span too wide to count in a `usize` included). A key's
    /// slot is its cell: the stored offset from the span's minimum.
    fn build(keys: &IntColumn) -> Option<Dense> {
        let (span, n) = (keys.span(), keys.len());
        let slots = usize::try_from(span.width).ok()?.checked_add(2)?;
        let bytes = slots.checked_add(n)?.checked_mul(4)?;
        if bytes > RawTable::heap_bytes_for(n) {
            return None;
        }
        let (starts, rows) = with_cells!(IntCells, keys.cells(), v => csr(v, slots));
        let groups = starts.windows(2).filter(|w| w[0] < w[1]).count();
        Some(Dense {
            span,
            starts,
            rows,
            groups,
        })
    }

    /// Each key's rows, most recently inserted first, in key order; keys
    /// without rows are skipped.
    fn groups(&self) -> impl Iterator<Item = &[u32]> {
        let rows = |w: &[u32]| &self.rows[w[0] as usize..w[1] as usize];
        self.starts.windows(2).map(rows).filter(|g| !g.is_empty())
    }

    /// The rows whose key is `span.min + k`; none when `k` is past the span.
    #[inline]
    fn rows_at(&self, k: u64) -> &[u32] {
        if k > self.span.width {
            return &[];
        }
        let k = k as usize;
        &self.rows[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// The `k` [`Dense::rows_at`] takes for `v`.
    #[inline]
    fn offset(&self, v: i64) -> u64 {
        v.wrapping_sub(self.span.min) as u64
    }

    fn heap_bytes(&self) -> usize {
        (self.starts.capacity() + self.rows.capacity()) * std::mem::size_of::<u32>()
    }
}

/// The CSR of [`Dense`] over `slots` slots: row ids grouped by their
/// cell, and where each group starts.
fn csr<T: Copy + Into<u64>>(cells: &[T], slots: usize) -> (Vec<u32>, Vec<u32>) {
    let slot = |c: T| c.into() as usize;
    // Count key `k`'s rows into `starts[k]` and sum up to where key `k`'s
    // rows end; placing each row one below that end, in row order, leaves
    // the latest row first and `starts[k]` where key `k`'s rows begin, so
    // they are `starts[k]..starts[k + 1]`.
    let mut starts = vec![0u32; slots];
    for &c in cells {
        starts[slot(c)] += 1;
    }
    for k in 1..slots {
        starts[k] += starts[k - 1];
    }
    let mut rows = vec![0u32; cells.len()];
    for (i, &c) in cells.iter().enumerate() {
        let end = &mut starts[slot(c)];
        *end -= 1;
        rows[*end as usize] = i as u32;
    }
    (starts, rows)
}

impl JoinIndex {
    /// Build the index: the dense layout when the key is one integer column
    /// that fits it, otherwise one batch hash pass over the key columns
    /// ([`columnar::key_hashes`]) into a `RawTable`. No per-row key
    /// allocation and no tuple boxed as a row; every row gets an entry,
    /// duplicate keys included.
    pub fn build(rel: Arc<Relation>, key_pos: Vec<usize>) -> Self {
        let dense = match key_pos[..] {
            [p] => match &rel.columns()[p] {
                Column::Int(keys) => Dense::build(keys),
                Column::Dict { .. } => None,
            },
            _ => None,
        };
        let layout = dense.map_or_else(
            || Layout::Hash(Self::hash_table(&rel, &key_pos)),
            Layout::Dense,
        );
        JoinIndex {
            rel,
            key_pos: key_pos.into(),
            layout,
        }
    }

    fn hash_table(rel: &Relation, key_pos: &[usize]) -> RawTable {
        let mut table = RawTable::with_capacity(rel.len());
        for (i, h) in columnar::key_hashes(rel, key_pos).into_iter().enumerate() {
            table.insert(h, i as u32);
        }
        table
    }

    /// An index over the smaller of two join operands (the left one on a
    /// tie) at their natural-join key, and the other operand, which probes
    /// it. With disjoint schemas the key is empty: one bucket chain holds
    /// every row, and probing yields the Cartesian product.
    pub fn on_smaller(left: Arc<Relation>, right: Arc<Relation>) -> (JoinIndex, Arc<Relation>) {
        let (lpos, rpos) = join_key_positions(left.schema(), right.schema());
        if left.len() <= right.len() {
            (JoinIndex::build(left, lpos), right)
        } else {
            (JoinIndex::build(right, rpos), left)
        }
    }

    /// The indexed relation.
    pub fn relation(&self) -> &Arc<Relation> {
        &self.rel
    }

    /// The key positions (into the indexed relation's rows) this index was
    /// built over.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_pos
    }

    /// The memory layout built: `"dense"` or `"hash"` (see the module docs).
    pub fn layout(&self) -> &'static str {
        match self.layout {
            Layout::Dense(_) => "dense",
            Layout::Hash(_) => "hash",
        }
    }

    /// How many key groups — distinct keys — the dense layout holds; `None`
    /// for the hash layout, which finds its groups only by a walk.
    pub fn dense_groups(&self) -> Option<usize> {
        match &self.layout {
            Layout::Dense(dense) => Some(dense.groups),
            Layout::Hash(_) => None,
        }
    }

    /// The first row of each key group, one per distinct key: in key order
    /// on the dense layout, in row order on the hash layout.
    fn group_heads(&self) -> Vec<u32> {
        match &self.layout {
            Layout::Dense(dense) => dense.groups().map(|g| g[g.len() - 1]).collect(),
            Layout::Hash(table) => {
                let (cols, pos) = (self.rel.columns(), &self.key_pos[..]);
                table.first_rows(|j, i| columnar::ids_eq(cols, pos, j, cols, pos, i))
            }
        }
    }

    /// The key cells of the rows `heads`, over the key's attributes: with
    /// one head per group, the indexed relation projected onto its key.
    fn keys_at(&self, heads: &[u32]) -> Relation {
        let attrs = self.rel.schema().attrs();
        // Key positions ascend, as the attributes of a schema do.
        let schema = Schema::new(self.key_pos.iter().map(|&p| attrs[p]).collect());
        let cols = self
            .key_pos
            .iter()
            .map(|&p| self.rel.columns()[p].gather(heads));
        Relation::from_distinct_columns(schema, heads.len(), cols.collect())
    }

    /// Resident tuples — what the interpreter's cache budget counts.
    pub fn tuples(&self) -> usize {
        self.rel.len()
    }

    /// Heap bytes of the layout itself (excluding the shared relation): the
    /// allocation a cache hit avoids rebuilding.
    pub fn heap_bytes(&self) -> usize {
        match &self.layout {
            Layout::Dense(dense) => dense.heap_bytes(),
            Layout::Hash(table) => table.heap_bytes(),
        }
    }

    /// Resident bytes — the layout's heap plus the pinned relation's payload
    /// (packed columns plus each dictionary pool once).
    pub fn resident_bytes(&self) -> usize {
        self.heap_bytes() + self.rel.resident_col_bytes()
    }

    /// Probe the index with every row of `probe`, on the attributes the two
    /// relations share (which must be the index's key), collecting into one
    /// [`Matches`] per chunk, in probe order: for a join the `(build_ids,
    /// probe_ids)` of every indexed row each probe row matches, for a
    /// semijoin the ids of the probe rows that match any. One chunk unless
    /// `threads > 1` and `probe` has at least `cutoff` rows.
    pub(crate) fn probe<M: Matches>(
        &self,
        probe: &Relation,
        threads: usize,
        cutoff: usize,
    ) -> Vec<M> {
        let (bpos, ppos) = join_key_positions(self.rel.schema(), probe.schema());
        debug_assert_eq!(
            &bpos[..],
            self.key_positions(),
            "index key positions must be the key its relation shares with the probe side"
        );
        let cols = probe.columns();
        match &self.layout {
            Layout::Dense(dense) => {
                let at = |k: u64| dense.rows_at(k).iter().map(|&bi| bi as usize);
                let any = |_, _| true;
                match &cols[ppos[0]] {
                    Column::Int(c) => {
                        // A probe cell `x` is the value `c.min + x`: its
                        // offset in the build span is `x` moved by the
                        // distance between the two minimums.
                        let delta = dense.offset(c.span().min);
                        with_cells!(IntCells, c.cells(), v => {
                            let candidates = |&x: &_| at(delta.wrapping_add(u64::from(x)));
                            probe_chunks(v, threads, cutoff, candidates, any)
                        })
                    }
                    Column::Dict { codes, dict } => {
                        // Each pool entry's offset, once per probe: an
                        // integer maps into the span, a string past it.
                        let offsets: Vec<u64> = (0..dict.len() as u32)
                            .map(|c| dict.value(c).as_int().map_or(u64::MAX, |v| dense.offset(v)))
                            .collect();
                        let candidates = |&c: &u32| at(offsets[c as usize]);
                        probe_chunks(codes, threads, cutoff, candidates, any)
                    }
                }
            }
            Layout::Hash(table) => {
                let ph = columnar::key_hashes(probe, &ppos);
                let (bcols, bpos, ppos) = (self.rel.columns(), &self.key_pos[..], &ppos[..]);
                let candidates = |&h: &u64| table.candidates(h);
                let eq = |bi: usize, j: usize| columnar::ids_eq(bcols, bpos, bi, cols, ppos, j);
                probe_chunks(&ph, threads, cutoff, candidates, eq)
            }
        }
    }

    /// `self.relation() ⋈ probe`, and the number of chunks it was probed
    /// in; see [`JoinIndex::probe`].
    pub(crate) fn join(
        &self,
        probe: &Relation,
        threads: usize,
        cutoff: usize,
    ) -> (Relation, usize) {
        let parts: Vec<Pairs> = self.probe(probe, threads, cutoff);
        let out_schema = self.rel.schema().union(probe.schema());
        let out = columnar::materialize_join(&self.rel, probe, &out_schema, &parts);
        (out, parts.len())
    }

    /// `|self.relation() ⋈ probe|`, `Σ_k |build_k|·|probe_k|` over the
    /// keys `k`: the pairs [`JoinIndex::join`] would gather, counted by the
    /// same probe loop without collecting one.
    pub(crate) fn count(&self, probe: &Relation) -> usize {
        let counts: Vec<Count> = self.probe(probe, 1, 0);
        counts.iter().map(|c| c.0).sum()
    }

    /// `target ⋉ self.relation()`, and the number of chunks it was probed
    /// in; see [`JoinIndex::probe`]. When every target row survives the
    /// result is `target` itself, sharing its column payloads and memoized
    /// fingerprint, not a gathered copy.
    pub(crate) fn semijoin(
        &self,
        target: &Relation,
        threads: usize,
        cutoff: usize,
    ) -> (Relation, usize) {
        let mut parts: Vec<Vec<u32>> = self.probe(target, threads, cutoff);
        let chunks = parts.len();
        let kept: usize = parts.iter().map(Vec::len).sum();
        if kept == target.len() {
            return (target.clone(), chunks);
        }
        let ids: Vec<u32> = if chunks == 1 {
            parts.swap_remove(0)
        } else {
            parts.concat()
        };
        (columnar::gather_relation(target, &ids), chunks)
    }
}

/// A join's matches in one probe chunk: `(build_ids, probe_ids)`.
pub(crate) type Pairs = (Vec<u32>, Vec<u32>);

/// What one chunk of [`JoinIndex::probe`] collects from the matches
/// `(build row, probe row)` it finds.
pub(crate) trait Matches: Send {
    /// Whether a probe row stops at its first match.
    const FIRST_ONLY: bool;
    /// An empty collection for a chunk of `rows` probe rows.
    fn for_chunk(rows: usize) -> Self;
    /// Record that probe row `probe_row` matches build row `build_row`.
    fn push(&mut self, build_row: u32, probe_row: u32);
}

/// A join keeps every match, growing as they come.
impl Matches for Pairs {
    const FIRST_ONLY: bool = false;
    fn for_chunk(_: usize) -> Self {
        (Vec::new(), Vec::new())
    }
    #[inline]
    fn push(&mut self, build_row: u32, probe_row: u32) {
        self.0.push(build_row);
        self.1.push(probe_row);
    }
}

/// How many matches a chunk found.
pub(crate) struct Count(usize);

/// A count keeps only how many matches there are.
impl Matches for Count {
    const FIRST_ONLY: bool = false;
    fn for_chunk(_: usize) -> Self {
        Count(0)
    }
    #[inline]
    fn push(&mut self, _: u32, _: u32) {
        self.0 += 1;
    }
}

/// A semijoin keeps the probe row of its first match, at most one per probe
/// row, so the chunk's length bounds the collection.
impl Matches for Vec<u32> {
    const FIRST_ONLY: bool = true;
    fn for_chunk(rows: usize) -> Self {
        Vec::with_capacity(rows)
    }
    #[inline]
    fn push(&mut self, _: u32, probe_row: u32) {
        Vec::push(self, probe_row);
    }
}

/// The one probe loop behind [`JoinIndex::probe`], over one key per probe
/// row: `candidates(key)` yields the build rows that may match, in the
/// order the pairs are emitted, and `verify(build_row, probe_row)` confirms
/// each (only the first confirmed with [`Matches::FIRST_ONLY`]).
fn probe_chunks<M: Matches, K: Sync, I: Iterator<Item = usize>>(
    keys: &[K],
    threads: usize,
    cutoff: usize,
    candidates: impl Fn(&K) -> I + Sync,
    verify: impl Fn(usize, usize) -> bool + Sync,
) -> Vec<M> {
    let probe_range = |(start, end): (usize, usize)| {
        let mut out = M::for_chunk(end - start);
        for (j, key) in (start..).zip(&keys[start..end]) {
            for bi in candidates(key) {
                if verify(bi, j) {
                    out.push(bi as u32, j as u32);
                    if M::FIRST_ONLY {
                        break;
                    }
                }
            }
        }
        out
    };
    let n = keys.len();
    if threads <= 1 || n < cutoff {
        vec![probe_range((0, n))]
    } else {
        let ranges = columnar::split_ranges(n, threads);
        crate::par_map(ranges, threads, probe_range)
    }
}

/// Natural join `index.relation() ⋈ probe` against a prebuilt index.
///
/// The build side is fixed by the index — even when it is the *larger*
/// side. That is the point: with the build pass already paid for (or
/// shared across statements), probing with the smaller side wins
/// regardless of which side is bigger. A probe side below `cutoff` rows is
/// probed as one chunk.
pub fn par_join_indexed_cutoff(
    index: &JoinIndex,
    probe: &Relation,
    threads: usize,
    cutoff: usize,
) -> Relation {
    let threads = threads.max(1);
    let mut sp = mjoin_trace::span("op", "join");
    if sp.is_active() {
        sp.arg("left_rows", index.tuples());
        sp.arg("right_rows", probe.len());
        sp.arg("threads", threads);
        sp.arg("strategy", "indexed_probe");
        sp.arg("layout", index.layout());
    }
    let (out, chunks) = index.join(probe, threads, cutoff);
    sp.arg("chunks", chunks);
    sp.arg("out_rows", out.len());
    out
}

/// Semijoin `target ⋉ index.relation()` against a prebuilt index over the
/// filter side; a target below `cutoff` rows is filtered as one chunk.
pub fn par_semijoin_indexed_cutoff(
    target: &Relation,
    index: &JoinIndex,
    threads: usize,
    cutoff: usize,
) -> Relation {
    let threads = threads.max(1);
    let mut sp = mjoin_trace::span("op", "semijoin");
    if sp.is_active() {
        sp.arg("left_rows", target.len());
        sp.arg("right_rows", index.tuples());
        sp.arg("threads", threads);
        sp.arg("strategy", "indexed_probe");
        sp.arg("layout", index.layout());
    }
    let (out, chunks) = index.semijoin(target, threads, cutoff);
    sp.arg("chunks", chunks);
    sp.arg("out_rows", out.len());
    out
}

/// The projection of `index.relation()` onto the index's key: the key
/// cells of each key group's first row, one row per distinct key, found
/// without hashing or comparing a row on the dense layout. Rows come in
/// key order on the dense layout, in first-occurrence order on the hash
/// layout.
pub fn project_indexed(index: &JoinIndex) -> Relation {
    let mut sp = mjoin_trace::span("op", "project");
    if sp.is_active() {
        sp.arg("in_rows", index.tuples());
        sp.arg("strategy", "groups");
        sp.arg("layout", index.layout());
    }
    let heads = index.group_heads();
    let out = index.keys_at(&heads);
    if sp.is_active() {
        sp.arg("groups", heads.len());
        sp.arg("kept_groups", heads.len());
        sp.arg("out_rows", out.len());
    }
    out
}

/// The least mean group size — rows per distinct key of the target — at
/// which a semijoin whose target has a dense index takes
/// [`semijoin_grouped`] rather than probing every target row; the module
/// docs give the measured crossover.
pub const GROUP_SEMIJOIN_MIN_ROWS: usize = 16;

/// Semijoin `target ⋉ filter.relation()` by key groups: `groups` is a
/// dense index over `target`'s rows (or a relation of the same content) on
/// the key `target` shares with the filter, and each of its keys is probed
/// into `filter` once, not once per row. The result is `target` itself,
/// sharing its columns, when every group survives; otherwise one pass over
/// the indexed key column keeps the rows of the surviving keys, in row
/// order. `None` when `groups` has the hash layout.
pub fn semijoin_grouped(
    target: &Relation,
    groups: &JoinIndex,
    filter: &JoinIndex,
) -> Option<Relation> {
    let Layout::Dense(dense) = &groups.layout else {
        return None;
    };
    debug_assert_eq!(groups.rel.schema(), target.schema());
    debug_assert_eq!(groups.tuples(), target.len());
    let mut sp = mjoin_trace::span("op", "semijoin");
    if sp.is_active() {
        sp.arg("left_rows", target.len());
        sp.arg("right_rows", filter.tuples());
        sp.arg("strategy", "groups");
        sp.arg("layout", filter.layout());
        sp.arg("chunks", 1usize);
    }
    let heads = groups.group_heads();
    let kept = filter
        .probe::<Vec<u32>>(&groups.keys_at(&heads), 1, 0)
        .concat();
    let out = if kept.len() == heads.len() {
        target.clone()
    } else {
        let Column::Int(keys) = &groups.rel.columns()[groups.key_pos[0]] else {
            unreachable!("a dense index keys one integer column");
        };
        // A row's slot in the dense layout is its key cell.
        let (mut keep, mut rows) = (vec![false; dense.starts.len()], 0);
        for &g in &kept {
            let k = keys.offset(heads[g as usize] as usize) as usize;
            keep[k] = true;
            rows += (dense.starts[k + 1] - dense.starts[k]) as usize;
        }
        let ids = with_cells!(IntCells, keys.cells(), v => rows_kept(v, &keep, rows));
        columnar::gather_relation(&groups.rel, &ids)
    };
    if sp.is_active() {
        sp.arg("groups", heads.len());
        sp.arg("kept_groups", kept.len());
        sp.arg("out_rows", out.len());
    }
    Some(out)
}

/// The `rows` rows whose cell — a dense index's slot — is marked in `keep`.
fn rows_kept<T: Copy + Into<u64>>(cells: &[T], keep: &[bool], rows: usize) -> Vec<u32> {
    let mut ids = Vec::with_capacity(rows);
    for (i, &c) in cells.iter().enumerate() {
        if keep[c.into() as usize] {
            ids.push(i as u32);
        }
    }
    debug_assert_eq!(ids.len(), rows);
    ids
}

#[cfg(test)]
mod layout_differential;

#[cfg(test)]
mod tests {
    use super::super::{join, semijoin, SMALL};
    use super::*;
    use crate::attr::Catalog;
    use crate::relation_of_ints;
    use crate::schema::Schema;
    use crate::value::Value;

    fn key_of(rel: &Relation, other: &Relation) -> Vec<usize> {
        join_key_positions(rel.schema(), other.schema()).0
    }

    #[test]
    fn indexed_join_matches_plain_join() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 20]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[20, 5], &[20, 6], &[99, 7]]).unwrap();
        let idx = JoinIndex::build(Arc::new(r.clone()), key_of(&r, &s));
        for threads in [1, 4] {
            assert_eq!(par_join_indexed_cutoff(&idx, &s, threads, 0), join(&r, &s));
        }
        // And with the index on the other (probe-heavy) side.
        let idx_s = JoinIndex::build(Arc::new(s.clone()), key_of(&s, &r));
        assert_eq!(par_join_indexed_cutoff(&idx_s, &r, 2, 0), join(&r, &s));
    }

    #[test]
    fn indexed_join_cartesian_empty_key() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "A", &[&[1], &[2]]).unwrap();
        let s = relation_of_ints(&mut c, "B", &[&[10], &[20], &[30]]).unwrap();
        let idx = JoinIndex::build(Arc::new(r.clone()), vec![]);
        let out = par_join_indexed_cutoff(&idx, &s, 2, 0);
        assert_eq!(out.len(), 6);
        assert_eq!(out, join(&r, &s));
    }

    #[test]
    fn indexed_semijoin_matches_plain_semijoin() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 30]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[10, 0], &[10, 1], &[30, 0]]).unwrap();
        let idx = JoinIndex::build(Arc::new(s.clone()), key_of(&s, &r));
        for threads in [1, 4] {
            assert_eq!(
                par_semijoin_indexed_cutoff(&r, &idx, threads, 0),
                semijoin(&r, &s)
            );
        }
    }

    #[test]
    fn indexed_paths_agree_on_large_inputs() {
        let mut c = Catalog::new();
        let schema_l = Schema::from_chars(&mut c, "AB");
        let schema_r = Schema::from_chars(&mut c, "BC");
        let l = Relation::from_rows(
            schema_l,
            (0..6000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 700)].into())
                .collect(),
        )
        .unwrap();
        let r = Relation::from_rows(
            schema_r,
            (0..5000)
                .map(|i| vec![Value::Int(i % 350), Value::Int(i)].into())
                .collect(),
        )
        .unwrap();
        let idx = JoinIndex::build(Arc::new(l.clone()), key_of(&l, &r));
        let expect_join = join(&l, &r);
        let expect_semi = semijoin(&l, &r);
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                par_join_indexed_cutoff(&idx, &r, threads, SMALL),
                expect_join
            );
            let idx_r = JoinIndex::build(Arc::new(r.clone()), key_of(&r, &l));
            assert_eq!(
                par_semijoin_indexed_cutoff(&l, &idx_r, threads, SMALL),
                expect_semi
            );
        }
    }

    #[test]
    fn index_pins_its_relation() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2]]).unwrap();
        let arc = Arc::new(r);
        let ptr = Arc::as_ptr(&arc);
        let idx = JoinIndex::build(Arc::clone(&arc), vec![0]);
        drop(arc);
        assert_eq!(Arc::as_ptr(idx.relation()), ptr);
        assert_eq!(idx.tuples(), 1);
        assert!(idx.heap_bytes() > 0);
    }
}
