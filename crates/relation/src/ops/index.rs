//! `JoinIndex` — an owned, shareable build-side hash index over an
//! `Arc<Relation>`, plus the operator variants that probe one.
//!
//! Programs derived by the paper's Algorithm 2 read the same head relations
//! over and over: a full-reducer-style semijoin sweep down the CPF tree,
//! then a join sweep back up. Every such statement used to rebuild its
//! build-side hash table from scratch. A `JoinIndex` is that build table
//! made first-class: it pins the relation (`Arc<Relation>`) and the key
//! positions it was built for, so the program interpreter can memoize it
//! across statements — cache hits skip the whole build pass — and a level
//! of concurrent statements can probe one shared index instead of building
//! one table per statement.
//!
//! Probing is allocation-lean like the rest of the kernels: hashes come
//! batch-wise from [`columnar::key_hashes`], and collisions resolve by
//! comparing cells positionally against column data ([`columnar::ids_eq`])
//! — no key materialization on either side.

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
    /// boxed as a row.
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

    /// Probe rows `start..end` of `probe` (hashes indexed globally): matched
    /// `(build_ids, probe_ids)` selection vectors, candidates verified
    /// positionally against column data.
    fn probe_cols_range(
        &self,
        probe: &Relation,
        probe_pos: &[usize],
        probe_hashes: &[u64],
        start: usize,
        end: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let bcols = self.rel.columns();
        let pcols = probe.columns();
        let mut bids: Vec<u32> = Vec::new();
        let mut pids: Vec<u32> = Vec::new();
        for (j, &hash) in probe_hashes.iter().enumerate().take(end).skip(start) {
            for bi in self.table.candidates(hash) {
                if columnar::ids_eq(bcols, &self.key_pos, bi, pcols, probe_pos, j) {
                    bids.push(bi as u32);
                    pids.push(j as u32);
                }
            }
        }
        (bids, pids)
    }

    /// Membership filter over rows `start..end` of `target`: the ids whose
    /// key matches at least one indexed row.
    fn filter_cols_range(
        &self,
        target: &Relation,
        target_pos: &[usize],
        target_hashes: &[u64],
        start: usize,
        end: usize,
    ) -> Vec<u32> {
        let bcols = self.rel.columns();
        let tcols = target.columns();
        (start..end)
            .filter(|&j| {
                self.table
                    .candidates(target_hashes[j])
                    .any(|bi| columnar::ids_eq(bcols, &self.key_pos, bi, tcols, target_pos, j))
            })
            .map(|j| j as u32)
            .collect()
    }
}

/// Natural join `index.relation() ⋈ probe` against a prebuilt index.
///
/// Unlike [`super::par_join_cutoff`], the build side is fixed by the index —
/// even when it is the *larger* side. That is the point: with the build pass
/// already paid for (or shared across statements), probing with the smaller
/// side wins regardless of which side is bigger. A probe side below `cutoff`
/// rows is probed as one range.
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
    let (bpos, ppos) = join_key_positions(index.relation().schema(), probe.schema());
    debug_assert_eq!(
        &bpos,
        index.key_positions(),
        "index key positions must be the natural-join key of its relation"
    );
    let out_schema = index.relation().schema().union(probe.schema());
    let ph = columnar::key_hashes(probe, &ppos);
    let parts: Vec<(Vec<u32>, Vec<u32>)> = if threads == 1 || probe.len() < cutoff {
        vec![index.probe_cols_range(probe, &ppos, &ph, 0, probe.len())]
    } else {
        crate::par_map(
            columnar::split_ranges(probe.len(), threads),
            threads,
            |(s, e)| index.probe_cols_range(probe, &ppos, &ph, s, e),
        )
    };
    let out = columnar::materialize_join(index.relation(), probe, &out_schema, &parts);
    sp.arg("out_rows", out.len());
    out
}

/// Semijoin `target ⋉ index.relation()` against a prebuilt index over the
/// filter side; a target below `cutoff` rows is filtered as one range.
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
    let common = target.schema().intersect(index.relation().schema());
    let tpos = target
        .schema()
        .positions_of(common.attrs())
        .expect("common attrs in target");
    debug_assert_eq!(
        index
            .relation()
            .schema()
            .positions_of(common.attrs())
            .expect("common attrs in filter"),
        index.key_positions(),
        "index key positions must be the semijoin key of its relation"
    );

    let th = columnar::key_hashes(target, &tpos);
    let ids: Vec<u32> = if threads == 1 || target.len() < cutoff {
        index.filter_cols_range(target, &tpos, &th, 0, target.len())
    } else {
        crate::par_map(
            columnar::split_ranges(target.len(), threads),
            threads,
            |(s, e)| index.filter_cols_range(target, &tpos, &th, s, e),
        )
        .into_iter()
        .flatten()
        .collect()
    };
    let out = columnar::gather_relation(target, &ids);
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
