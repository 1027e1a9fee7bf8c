//! `JoinIndex` — the build-side hash table of every keyed join and
//! semijoin in the workspace, an owned, shareable index over an
//! `Arc<Relation>`, plus the operator variants that probe one.
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
//! There is one probe loop ([`JoinIndex::probe`]): hashes come batch-wise
//! from [`columnar::key_hashes`], collisions resolve by comparing cells
//! positionally against column data ([`columnar::ids_eq`]) — no key
//! materialization on either side — and with `threads > 1` a probe side of
//! at least `cutoff` rows is cut into contiguous chunks run through
//! [`crate::par_map`], whose parts concatenate in probe order.

use super::columnar;
use super::hashtable::RawTable;
use super::join::join_key_positions;
use crate::relation::Relation;
use std::sync::Arc;

/// A build-side hash table for a `(Arc<Relation>, key positions)` pair.
///
/// The index holds the relation alive, so a raw-pointer cache key derived
/// from `Arc::as_ptr(relation)` cannot be reused by a different relation
/// while the index exists (no ABA).
#[derive(Debug)]
pub struct JoinIndex {
    rel: Arc<Relation>,
    key_pos: Box<[usize]>,
    table: RawTable,
}

impl JoinIndex {
    /// Build the index: one batch hash pass over the key columns
    /// ([`columnar::key_hashes`]), no per-row key allocation and no tuple
    /// boxed as a row. Every row gets an entry, duplicate keys included.
    pub fn build(rel: Arc<Relation>, key_pos: Vec<usize>) -> Self {
        let mut table = RawTable::with_capacity(rel.len());
        for (i, h) in columnar::key_hashes(&rel, &key_pos).into_iter().enumerate() {
            table.insert(h, i as u32);
        }
        JoinIndex {
            rel,
            key_pos: key_pos.into(),
            table,
        }
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

    /// Resident tuples — what the interpreter's cache budget counts.
    pub fn tuples(&self) -> usize {
        self.rel.len()
    }

    /// Heap bytes of the table itself (excluding the shared relation): the
    /// allocation a cache hit avoids rebuilding.
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }

    /// Resident bytes — the table's heap plus the pinned relation's payload
    /// (packed columns plus each dictionary pool once).
    pub fn resident_bytes(&self) -> usize {
        self.table.heap_bytes() + self.rel.resident_col_bytes()
    }

    /// Probe the index with every row of `probe`, on the attributes the two
    /// relations share (which must be the index's key): the indexed rows
    /// each probe row matches, or with `first_only` just the first of them
    /// (a semijoin needs no more), as matched `(build_ids, probe_ids)`
    /// selection vectors — one pair per chunk, in probe order. One chunk
    /// unless `threads > 1` and `probe` has at least `cutoff` rows.
    pub(crate) fn probe(
        &self,
        probe: &Relation,
        threads: usize,
        cutoff: usize,
        first_only: bool,
    ) -> Vec<(Vec<u32>, Vec<u32>)> {
        let (bpos, ppos) = join_key_positions(self.rel.schema(), probe.schema());
        debug_assert_eq!(
            &bpos[..],
            self.key_positions(),
            "index key positions must be the key its relation shares with the probe side"
        );
        let ph = columnar::key_hashes(probe, &ppos);
        let (bcols, pcols) = (self.rel.columns(), probe.columns());
        let probe_range = |(start, end): (usize, usize)| {
            let mut bids: Vec<u32> = Vec::new();
            let mut pids: Vec<u32> = Vec::new();
            for (j, &hash) in ph.iter().enumerate().take(end).skip(start) {
                for bi in self.table.candidates(hash) {
                    if columnar::ids_eq(bcols, &self.key_pos, bi, pcols, &ppos, j) {
                        bids.push(bi as u32);
                        pids.push(j as u32);
                        if first_only {
                            break;
                        }
                    }
                }
            }
            (bids, pids)
        };
        if threads <= 1 || probe.len() < cutoff {
            vec![probe_range((0, probe.len()))]
        } else {
            let ranges = columnar::split_ranges(probe.len(), threads);
            crate::par_map(ranges, threads, probe_range)
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
        let parts = self.probe(probe, threads, cutoff, false);
        let out_schema = self.rel.schema().union(probe.schema());
        let out = columnar::materialize_join(&self.rel, probe, &out_schema, &parts);
        (out, parts.len())
    }

    /// `target ⋉ self.relation()`, and the number of chunks it was probed
    /// in; see [`JoinIndex::probe`].
    pub(crate) fn semijoin(
        &self,
        target: &Relation,
        threads: usize,
        cutoff: usize,
    ) -> (Relation, usize) {
        let mut parts = self.probe(target, threads, cutoff, true);
        let chunks = parts.len();
        let ids: Vec<u32> = if chunks == 1 {
            parts.swap_remove(0).1
        } else {
            parts.into_iter().flat_map(|(_, pids)| pids).collect()
        };
        (columnar::gather_relation(target, &ids), chunks)
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
    }
    let (out, chunks) = index.semijoin(target, threads, cutoff);
    sp.arg("chunks", chunks);
    sp.arg("out_rows", out.len());
    out
}

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
