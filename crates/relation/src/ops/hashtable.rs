//! `RawTable` — the allocation-lean hash table inside every
//! [`super::JoinIndex`], and behind the projection dedup, the set
//! operations and the grouped join count.
//!
//! The original kernels keyed `FxHashMap`/`FxHashSet` by materialized
//! `Box<[Value]>` keys: one heap allocation per build row *and one per probe
//! row*, just to compare a handful of positions. `RawTable` stores only
//! `(precomputed hash, build-row index)` entries in bucket chains; collisions
//! resolve by comparing `row[pos]` slices positionally against the borrowed
//! build rows, so neither building nor probing allocates at all.
//!
//! The table is deliberately a *multimap*: duplicate keys simply share a
//! bucket chain (they share a hash), which is what a join needs; a semijoin
//! probe stops at the first match. Callers that want set semantics (the
//! projection dedup, the grouped join count) look up before inserting.
//!
//! Entries carry `u32` row indices — relations here are bounded far below
//! 4 billion rows ([`RawTable::insert`] checks in debug builds).
//!
//! A `JoinIndex` over one integer key column whose values fill a narrow
//! range skips this table: its dense layout addresses rows by `key − min`
//! directly (see `ops/index.rs`), and is chosen only when it takes no more
//! bytes than [`RawTable::heap_bytes_for`] the same rows.

/// Sentinel for "no entry" in bucket heads and chain links.
const EMPTY: u32 = u32::MAX;

#[derive(Debug)]
struct Entry {
    /// Precomputed key hash of the build row.
    hash: u64,
    /// Index of the build row this entry stands for.
    row: u32,
    /// Next entry in the same bucket, or [`EMPTY`].
    next: u32,
}

/// A chained hash table of `(hash, row-index)` entries. See the module docs.
#[derive(Debug)]
pub(crate) struct RawTable {
    /// `buckets.len()` is a power of two; `mask == buckets.len() - 1`.
    mask: u64,
    /// Head entry index per bucket, or [`EMPTY`].
    buckets: Box<[u32]>,
    entries: Vec<Entry>,
}

impl RawTable {
    /// Buckets for about `n` entries (load factor ≤ 0.5).
    fn buckets_for(n: usize) -> usize {
        (n.max(1) * 2).next_power_of_two()
    }

    /// A table sized for about `n` entries (load factor ≤ 0.5).
    pub(crate) fn with_capacity(n: usize) -> Self {
        let buckets = Self::buckets_for(n);
        RawTable {
            mask: buckets as u64 - 1,
            buckets: vec![EMPTY; buckets].into_boxed_slice(),
            entries: Vec::with_capacity(n),
        }
    }

    /// Append an entry for build row `row` with key hash `hash`.
    #[inline]
    pub(crate) fn insert(&mut self, hash: u64, row: u32) {
        debug_assert!(row != EMPTY, "row index overflows the u32 entry format");
        let b = (hash & self.mask) as usize;
        let e = self.entries.len() as u32;
        self.entries.push(Entry {
            hash,
            row,
            next: self.buckets[b],
        });
        self.buckets[b] = e;
    }

    /// The build-row indices whose key hash equals `hash`, most recently
    /// inserted first. The caller must still verify true key equality
    /// positionally — equal hashes are (almost always, but not certainly)
    /// equal keys.
    #[inline]
    pub(crate) fn candidates(&self, hash: u64) -> Candidates<'_> {
        Candidates {
            entries: &self.entries,
            hash,
            cur: self.buckets[(hash & self.mask) as usize],
        }
    }

    /// Heap footprint in bytes (buckets + entries) — what a cache hit saves
    /// rebuilding.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    /// The heap bytes of a table built by `with_capacity(n)` holding `n`
    /// entries, without building it — the budget the dense
    /// [`super::JoinIndex`] layout must fit.
    pub(crate) fn heap_bytes_for(n: usize) -> usize {
        Self::buckets_for(n) * std::mem::size_of::<u32>() + n * std::mem::size_of::<Entry>()
    }
}

/// Iterator over hash-matching build-row indices; see
/// [`RawTable::candidates`].
pub(crate) struct Candidates<'a> {
    entries: &'a [Entry],
    hash: u64,
    cur: u32,
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur != EMPTY {
            let e = &self.entries[self.cur as usize];
            self.cur = e.next;
            if e.hash == self.hash {
                return Some(e.row as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_has_no_candidates() {
        let t = RawTable::with_capacity(0);
        assert!(t.entries.is_empty());
        assert_eq!(t.candidates(42).count(), 0);
    }

    #[test]
    fn duplicate_hashes_chain_in_one_bucket() {
        let mut t = RawTable::with_capacity(8);
        t.insert(7, 0);
        t.insert(7, 1);
        t.insert(9, 2);
        let rows: Vec<usize> = t.candidates(7).collect();
        assert_eq!(rows, vec![1, 0], "most recent first");
        assert_eq!(t.candidates(9).collect::<Vec<_>>(), vec![2]);
        assert_eq!(t.candidates(8).count(), 0);
    }

    #[test]
    fn same_bucket_different_hash_is_filtered() {
        // Two hashes that collide modulo the bucket mask but differ as u64s.
        let mut t = RawTable::with_capacity(2); // 4 buckets, mask 3
        t.insert(1, 0);
        t.insert(5, 1); // 5 & 3 == 1 & 3
        assert_eq!(t.candidates(1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(t.candidates(5).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn heap_bytes_counts_both_arrays() {
        let t = RawTable::with_capacity(100);
        assert!(t.heap_bytes() >= 256 * 4);
        for n in [0, 1, 100, 4096, 100_000] {
            let mut t = RawTable::with_capacity(n);
            (0..n as u32).for_each(|i| t.insert(u64::from(i), i));
            assert_eq!(t.heap_bytes(), RawTable::heap_bytes_for(n), "{n} entries");
        }
    }
}
