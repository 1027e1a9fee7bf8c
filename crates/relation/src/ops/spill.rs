//! Grace-hash spill join: certificate-gated out-of-core execution.
//!
//! When the static memory certificate says a join's build side cannot fit
//! the budget, the executor routes the statement here: both operands are
//! hash-partitioned on their shared key into `p` temp files per side (a
//! row's partition is its [`key_hashes`] entry modulo `p`), so no join pair
//! is split and the pairs' outputs are key-disjoint. Each pair — 1/p of
//! each input in expectation — is read back and its smaller side indexed
//! as a [`JoinIndex`]. Then one of two things happens to it:
//!
//! - [`grace_hash_join`] probes the index with the other side and gathers
//!   the matches straight onto the result's column builders, holding one
//!   pair's rows in memory at a time: each output cell is written once, at
//!   the width of its operand column's span (a partition's cells are a
//!   subset of its operand's), and the result's rows are the pairs'
//!   [`super::join`] outputs in partition order.
//! - [`grace_hash_product`] counts each pair through its index, drops the
//!   index and keeps the pair's two relations as a part of a [`Product`]:
//!   the answer left factorized, its rows gathered exactly as above, one
//!   pair's index at a time, only if someone asks for them.
//!
//! Partition files are header-less TSV ([`crate::tsv`], so hostile strings
//! survive bit-for-bit), written from and parsed back into columns.
//! `MJOIN_TRACE` shows a `spill/partition` span per operand, then a
//! `spill/read` per file and a `spill/join` per pair. A gathered pair's
//! `out_bytes` is the payload the output holds after the pair (not a
//! difference: a column that starts interning mid-join recodes the cells
//! before it, and can shrink); a kept pair's span covers its index build
//! and count.
//!
//! The selection is static: the caller decides from the certificate's
//! per-statement build-side bound, never from runtime sizes.

use super::columnar::output_columns;
use super::index::Pairs;
use super::{join_key_positions, key_hashes, JoinIndex, Product};
use crate::attr::AttrId;
use crate::column::{Column, ColumnBuilder};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::span::IntSpan;
use crate::tsv::{relation_from_tsv_body, RowFormatter};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a spilled join did; the executor turns it into the
/// `mem.partitions` and `mem.spilled_bytes` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Partition pairs joined (0 when the join never left memory).
    pub partitions: u64,
    /// Total TSV bytes written to spill files across both sides.
    pub spilled_bytes: u64,
}

/// A spill file that deletes itself on drop, so partitions never outlive
/// the statement — even on an error path or a panicking unwind.
struct TempFile {
    path: PathBuf,
}

impl TempFile {
    fn create() -> std::io::Result<(TempFile, BufWriter<File>)> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        TempFile::create_at(std::env::temp_dir().join(format!(
            "mjoin-spill-{}-{}.tsv",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }

    /// The name is predictable and the directory shared, so the file must
    /// not exist yet: `create_new` refuses to follow a planted symlink or
    /// truncate someone's file, and the caller sees the error.
    fn create_at(path: PathBuf) -> std::io::Result<(TempFile, BufWriter<File>)> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        Ok((TempFile { path }, BufWriter::new(file)))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Partition `rel`'s rows by the hash of the values at `pos` into `p` spill
/// files. Returns the self-deleting file guards plus the bytes written.
fn partition_to_disk(
    rel: &Relation,
    pos: &[usize],
    p: usize,
) -> std::io::Result<(Vec<TempFile>, u64)> {
    let _span = mjoin_trace::span("spill", "partition");
    let files = (0..p).map(|_| TempFile::create());
    let (guards, mut writers): (Vec<_>, Vec<_>) =
        files.collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    let cols: Vec<&Column> = rel.columns().iter().collect();
    let formatter = RowFormatter::new(&cols);
    let mut line: Vec<u8> = Vec::new();
    let mut bytes = 0u64;
    for (i, h) in key_hashes(rel, pos).into_iter().enumerate() {
        line.clear();
        formatter.push_row(i, &mut line);
        writers[(h as usize) % p].write_all(&line)?;
        bytes += line.len() as u64;
    }
    for w in &mut writers {
        w.flush()?;
    }
    Ok((guards, bytes))
}

/// Read one partition file back as a relation over `schema` (the rows of one
/// operand's partition are distinct because the operand's are).
fn read_partition(f: &TempFile, schema: &Schema) -> std::io::Result<Relation> {
    let _span = mjoin_trace::span("spill", "read");
    let reader = BufReader::new(File::open(&f.path)?);
    relation_from_tsv_body(reader, schema).map_err(|e| std::io::Error::other(e.to_string()))
}

/// Partition both operands of a keyed join into `p` files each, then hand
/// every pair with a row on both sides, in partition order, read back and
/// indexed on its smaller side, to `then` under a `spill/join` span it may
/// annotate (a pair whose left part is empty never reads its right file).
fn for_each_pair(
    left: &Relation,
    right: &Relation,
    p: usize,
    mut then: impl FnMut(JoinIndex, Arc<Relation>, &mut mjoin_trace::Span),
) -> std::io::Result<SpillStats> {
    let (lpos, rpos) = join_key_positions(left.schema(), right.schema());
    let (lfiles, lbytes) = partition_to_disk(left, &lpos, p)?;
    let (rfiles, rbytes) = partition_to_disk(right, &rpos, p)?;
    for (lfile, rfile) in lfiles.iter().zip(&rfiles) {
        let lpart = read_partition(lfile, left.schema())?;
        if lpart.is_empty() {
            continue;
        }
        let rpart = read_partition(rfile, right.schema())?;
        if rpart.is_empty() {
            continue;
        }
        let mut sp = mjoin_trace::span("spill", "join");
        let (index, probe) = JoinIndex::on_smaller(Arc::new(lpart), Arc::new(rpart));
        then(index, probe, &mut sp);
    }
    Ok(SpillStats {
        partitions: p as u64,
        spilled_bytes: lbytes + rbytes,
    })
}

/// The span every integer cell of each column of `left ⋈ right` lies in,
/// taken from the operands: a partition's cells are a subset of its
/// operand's, so each output column can be written once, at that span's
/// width. A key attribute takes the hull of both operands' spans (either
/// side's partition may supply its cells); an interned operand column
/// gives none.
pub(crate) fn operand_spans(left: &Relation, right: &Relation) -> Vec<Option<IntSpan>> {
    let span = |rel: &Relation, attr: AttrId| {
        rel.schema()
            .position(attr)
            .map(|p| match &rel.columns()[p] {
                Column::Int(c) => Some(c.span()),
                Column::Dict { .. } => None,
            })
    };
    let schema = left.schema().union(right.schema());
    (schema.attrs().iter())
        .map(|&a| match (span(left, a), span(right, a)) {
            (Some(l), Some(r)) => Some(l?.hull(r?)),
            (Some(one), None) | (None, Some(one)) => one,
            (None, None) => None,
        })
        .collect()
}

/// The result of a Grace join under construction: a builder per output
/// column, at its operand's span, that partition pairs append to.
pub(crate) struct Gather<'a> {
    schema: &'a Schema,
    out: Vec<ColumnBuilder>,
    nrows: usize,
}

impl<'a> Gather<'a> {
    /// Empty builders for the columns of `schema`, at `spans`.
    pub(crate) fn new(schema: &'a Schema, spans: &[Option<IntSpan>]) -> Self {
        let out = spans
            .iter()
            .map(|span| match *span {
                Some(span) => ColumnBuilder::with_span(span, 0),
                None => ColumnBuilder::default(),
            })
            .collect();
        Gather {
            schema,
            out,
            nrows: 0,
        }
    }

    /// Append `index.relation() ⋈ probe`, in probe order.
    pub(crate) fn pair(&mut self, index: &JoinIndex, probe: &Relation) {
        let sources = output_columns(index.relation(), probe, self.schema);
        for (bids, pids) in index.probe::<Pairs>(probe, 1, 0) {
            for (b, &(col, from_probe)) in self.out.iter_mut().zip(&sources) {
                b.extend_gathered(col, if from_probe { &pids } else { &bids });
            }
            self.nrows += bids.len();
        }
    }

    /// The payload the output holds so far.
    fn payload_bytes(&self) -> usize {
        self.out.iter().map(ColumnBuilder::payload_bytes).sum()
    }

    pub(crate) fn finish(self) -> Relation {
        let cols = self.out.into_iter().map(ColumnBuilder::finish).collect();
        Relation::from_distinct_columns(self.schema.clone(), self.nrows, cols)
    }
}

/// Grace-hash join `left ⋈ right` through `partitions` temp-file partition
/// pairs, holding one pair's rows in memory at a time (beyond the operands,
/// which the caller owns). The result holds the tuples [`super::join`]
/// would; an I/O failure (temp dir full, disk gone) is `Err`, so the caller
/// can fall back to the in-memory path instead of losing the query. With an
/// empty join key there is nothing to partition on: the certificate-driven
/// caller keeps such statements in memory, and this degenerates to the
/// ordinary join with zeroed stats.
pub fn grace_hash_join(
    left: &Relation,
    right: &Relation,
    partitions: usize,
) -> std::io::Result<(Relation, SpillStats)> {
    if left.schema().is_disjoint(right.schema()) {
        return Ok((super::join(left, right), SpillStats::default()));
    }
    let schema = left.schema().union(right.schema());
    let mut out = Gather::new(&schema, &operand_spans(left, right));
    let stats = for_each_pair(left, right, partitions.max(1), |index, probe, sp| {
        out.pair(&index, &probe);
        if sp.is_active() {
            sp.arg("out_bytes", out.payload_bytes());
        }
    })?;
    Ok((out.finish(), stats))
}

/// [`grace_hash_join`]'s partition pairs kept as the parts of a
/// [`Product`] instead of gathered: each pair is read back, counted by the
/// index [`grace_hash_join`] would probe and kept as its two relations, the
/// index dropped, so no more than one index is held at a time. Nothing else
/// happens until the product is printed or materialized (its rows then are
/// [`grace_hash_join`]'s, in its order and at its widths, each pair indexed
/// again in turn). The spill itself — files, bytes, reads — is
/// [`grace_hash_join`]'s. With an empty join key the product is the
/// in-memory one, with zeroed stats.
pub fn grace_hash_product(
    left: &Relation,
    right: &Relation,
    partitions: usize,
) -> std::io::Result<(Product, SpillStats)> {
    if left.schema().is_disjoint(right.schema()) {
        let (index, probe) = JoinIndex::on_smaller(Arc::new(left.clone()), Arc::new(right.clone()));
        return Ok((Product::new(Arc::new(index), probe), SpillStats::default()));
    }
    let (mut pairs, mut len) = (Vec::new(), 0);
    let stats = for_each_pair(left, right, partitions.max(1), |index, probe, _| {
        len += index.count(&probe);
        pairs.push((Arc::clone(index.relation()), probe));
    })?;
    Ok((Product::spilled(left, right, pairs, len), stats))
}

#[cfg(test)]
mod tests {
    use super::super::{hash_at, join, merge_join};
    use super::*;
    use crate::attr::Catalog;
    use crate::relation_of_ints;
    use crate::schema::Schema;
    use crate::value::Value;

    /// The reference Grace join: each partition pair joined by [`join`] into
    /// a relation of its own, the outputs' rows concatenated in partition
    /// order.
    fn pairwise_rows(l: &Relation, r: &Relation, p: usize) -> Vec<crate::relation::Row> {
        let (lpos, rpos) = join_key_positions(l.schema(), r.schema());
        let (lfiles, _) = partition_to_disk(l, &lpos, p).unwrap();
        let (rfiles, _) = partition_to_disk(r, &rpos, p).unwrap();
        lfiles
            .iter()
            .zip(&rfiles)
            .flat_map(|(lf, rf)| {
                let lpart = read_partition(lf, l.schema()).unwrap();
                join(&lpart, &read_partition(rf, r.schema()).unwrap()).rows()
            })
            .collect()
    }

    /// Row for row, in order: the spilled result is the pairs' in-memory
    /// joins appended in partition order — with one partition, the
    /// in-memory join itself.
    fn assert_spill_is_pairwise_join(l: &Relation, r: &Relation, p: usize) {
        let (got, stats) = grace_hash_join(l, r, p).unwrap();
        assert_eq!(
            got.rows(),
            pairwise_rows(l, r, p),
            "diverged at {p} partitions"
        );
        assert_eq!(got, join(l, r), "diverged as a set at {p} partitions");
        if p == 1 {
            assert_eq!(got.rows(), join(l, r).rows());
        }
        assert_eq!(stats.partitions, p as u64);
        assert!(stats.spilled_bytes > 0);
    }

    #[test]
    fn spill_matches_in_memory_join_at_every_partition_count() {
        let mut c = Catalog::new();
        let r_rows: Vec<Vec<i64>> = (0..60).map(|i| vec![i, i % 7]).collect();
        let s_rows: Vec<Vec<i64>> = (0..40).map(|i| vec![i % 7, i * 3]).collect();
        let rr: Vec<&[i64]> = r_rows.iter().map(Vec::as_slice).collect();
        let sr: Vec<&[i64]> = s_rows.iter().map(Vec::as_slice).collect();
        let r = relation_of_ints(&mut c, "AB", &rr).unwrap();
        let s = relation_of_ints(&mut c, "BC", &sr).unwrap();
        assert_eq!(join(&r, &s), merge_join(&r, &s));
        for p in [1usize, 2, 4, 8, 16, 256] {
            assert_spill_is_pairwise_join(&r, &s, p);
            assert_spill_is_pairwise_join(&s, &r, p);
        }
    }

    /// Partitions whose `A` column reads back all-integer from some files
    /// and interned from others, each interned one over a pool of its own,
    /// append to the same result in the same order.
    #[test]
    fn spill_over_int_and_dict_partitions_keeps_the_pairwise_order() {
        for p in [1usize, 2, 4, 8, 16, 256] {
            let mut c = Catalog::new();
            let (l, r) = mixed_operands(&mut c, p);
            assert_spill_is_pairwise_join(&l, &r, p);
            assert_spill_is_pairwise_join(&r, &l, p);
        }
    }

    /// `AB ⋈ BC` on a string key `B` with 48 values, 3 rows a side per key.
    /// `A` is an integer where the row's key lands in an even partition of
    /// `p` and a string elsewhere, so `A` reads back as `Column::Int` from
    /// some partition files and interned from others.
    fn mixed_operands(c: &mut Catalog, p: usize) -> (Relation, Relation) {
        let ab = Schema::from_chars(c, "AB");
        let bc = Schema::from_chars(c, "BC");
        let (mut lrows, mut rrows) = (Vec::new(), Vec::new());
        for (k, i) in (0..48i64).flat_map(|k| (0..3i64).map(move |i| (k, i))) {
            let b = Value::str(format!("key{k}"));
            let part = hash_at(&vec![b.clone()].into(), &[0]) as usize % p;
            let even = part & 1 == 0;
            let a = if even {
                Value::Int(k * 3 + i)
            } else {
                Value::str(format!("a{k}.{i}"))
            };
            lrows.push(vec![a, b.clone()].into());
            rrows.push(vec![b, Value::Int(i)].into());
        }
        (
            Relation::from_rows(ab, lrows).unwrap(),
            Relation::from_rows(bc, rrows).unwrap(),
        )
    }

    #[test]
    fn partitions_with_different_column_representations_append() {
        let mut c = Catalog::new();
        let (l, r) = mixed_operands(&mut c, 4);
        let (lpos, _) = join_key_positions(l.schema(), r.schema());
        let (files, _) = partition_to_disk(&l, &lpos, 4).unwrap();
        let parts: Vec<Relation> = files
            .iter()
            .map(|f| read_partition(f, l.schema()).unwrap())
            .collect();
        // `A` comes back all-integer from some partitions, interned from others…
        let interned: Vec<bool> = parts.iter().map(|p| p.columns()[0].is_interned()).collect();
        assert!(interned.contains(&true) && interned.contains(&false));
        // …and every partition's key column carries a dictionary of its own.
        let dicts: Vec<_> = parts.iter().filter_map(|p| p.columns()[1].dict()).collect();
        assert!(dicts.len() >= 2 && !std::sync::Arc::ptr_eq(dicts[0], dicts[1]));

        let (got, _) = grace_hash_join(&l, &r, 4).unwrap();
        assert_eq!(got.len(), 48 * 9);
        assert_eq!(got, join(&l, &r));
        assert_eq!(got, merge_join(&l, &r));
    }

    #[test]
    fn partition_assignment_is_the_row_key_hash() {
        let mut c = Catalog::new();
        let (l, r) = mixed_operands(&mut c, 4);
        let (lpos, rpos) = join_key_positions(l.schema(), r.schema());
        for p in [1usize, 4, 16] {
            let mut total = 0u64;
            for (rel, pos) in [(&l, &lpos), (&r, &rpos)] {
                let (files, bytes) = partition_to_disk(rel, pos, p).unwrap();
                let mut want = vec![0u64; p];
                for row in &rel.rows() {
                    let line = crate::tsv::tests::row_to_tsv(row);
                    want[hash_at(row, pos) as usize % p] += line.len() as u64;
                }
                let got: Vec<u64> = files
                    .iter()
                    .map(|f| std::fs::metadata(&f.path).unwrap().len())
                    .collect();
                assert_eq!(got, want, "file sizes at {p} partitions");
                assert_eq!(bytes, want.iter().sum::<u64>());
                total += bytes;
            }
            let (_, stats) = grace_hash_join(&l, &r, p).unwrap();
            assert_eq!(stats.spilled_bytes, total);
        }
    }

    /// The cells of `rel`'s rows, one array per row, in storage order.
    fn int_rows(rel: &Relation) -> Vec<[i64; 4]> {
        let cols: Vec<&crate::column::IntColumn> = rel
            .columns()
            .iter()
            .map(|c| match c {
                Column::Int(c) => c,
                Column::Dict { .. } => panic!("integer column"),
            })
            .collect();
        (0..rel.len())
            .map(|i| std::array::from_fn(|k| cols[k].get(i)))
            .collect()
    }

    /// A many-to-many join whose output dwarfs its operands — 1,400 rows a
    /// side, a 4-valued key `B`, 490,000 answers — is written at its
    /// operands' widths: `A` and `C` span 1,399 (2 bytes), `B` 3 and `D` 2
    /// (1 byte each), 6 bytes a row whether it spills or not. Spilled at 2
    /// and 4 partitions, the pairs' cells come back under spans of their
    /// own and are rebased onto the operands'.
    #[test]
    fn a_spilled_join_is_written_at_its_operands_widths() {
        let n = 1400i64;
        let mut c = Catalog::new();
        let (ab, bcd) = (
            Schema::from_chars(&mut c, "AB"),
            Schema::from_chars(&mut c, "BCD"),
        );
        let (a, b, cc, d) = (700_123, 412_000, 300_007, 905_311);
        let rows = |f: &dyn Fn(i64) -> Vec<i64>| {
            (0..n)
                .map(|i| f(i).into_iter().map(Value::Int).collect())
                .collect()
        };
        let l = Relation::from_rows(ab, rows(&|i| vec![a + i, b + i % 4])).unwrap();
        let r = Relation::from_rows(bcd, rows(&|i| vec![b + i % 4, cc + i, d + i % 3])).unwrap();
        let reference = join(&l, &r);
        assert_eq!(reference.len(), 490_000);
        let mut want = int_rows(&reference);
        for (p, got) in [1, 2, 4].map(|p| (p, grace_hash_join(&l, &r, p).unwrap().0)) {
            for rel in [&reference, &got] {
                let bytes: usize = rel.columns().iter().map(Column::payload_bytes).sum();
                assert_eq!(bytes, 6 * rel.len(), "{p} partitions");
            }
            let mut rows = int_rows(&got);
            if p == 1 {
                assert!(rows == want, "one partition is the in-memory join");
            }
            rows.sort_unstable();
            want.sort_unstable();
            assert!(rows == want, "{p} partitions: rows differ");
        }
    }

    /// An output column whose operand is interned, but whose first pair
    /// reads back all-integer over a span past 2³² (8-byte cells), switches
    /// to 4-byte codes when a later, smaller pair brings a string: the
    /// payload shrinks, and each `spill/join` span's `out_bytes` is what the
    /// output holds after its pair — the last one the result's payload.
    #[test]
    fn out_bytes_is_the_payload_held_when_a_column_starts_interning() {
        let mut c = Catalog::new();
        let (ab, bc) = (
            Schema::from_chars(&mut c, "AB"),
            Schema::from_chars(&mut c, "BC"),
        );
        // Keys of partition 0 get three integer `A`s each, spread over
        // 2⁴² values; one key of partition 1 gets the one string `A`.
        let (mut lrows, mut rrows, mut interned) = (Vec::new(), Vec::new(), false);
        for k in 0..40i64 {
            let b = Value::str(format!("key{k}"));
            if hash_at(&vec![b.clone()].into(), &[0]).is_multiple_of(2) {
                lrows.extend((0..3).map(|i| vec![Value::Int((k << 36) + i), b.clone()]));
            } else if !interned {
                lrows.push(vec![Value::str("a"), b.clone()]);
                interned = true;
            } else {
                continue;
            }
            rrows.extend((0..3).map(|i| vec![b.clone(), Value::Int(i)]));
        }
        let rows = |v: Vec<Vec<Value>>| v.into_iter().map(Into::into).collect();
        let l = Relation::from_rows(ab, rows(lrows)).unwrap();
        let r = Relation::from_rows(bc, rows(rrows)).unwrap();
        assert!(l.columns()[0].is_interned());

        mjoin_trace::set_enabled(true);
        // A span of this thread's, to tell its events from other tests'.
        drop(mjoin_trace::span("test", "marker"));
        let (got, _) = grace_hash_join(&l, &r, 2).unwrap();
        let events = mjoin_trace::take().events;
        mjoin_trace::set_enabled(false);

        let tid = events.iter().find(|e| e.name == "marker").unwrap().tid;
        let held: Vec<i64> = events
            .iter()
            .filter(|e| (e.tid, e.cat, e.name) == (tid, "spill", "join"))
            .map(|e| e.int_arg("out_bytes").unwrap())
            .collect();
        let payload: usize = got.columns().iter().map(Column::payload_bytes).sum();
        assert_eq!(held.len(), 2, "two pairs joined");
        assert!(held[1] < held[0], "interning shrank the output: {held:?}");
        assert_eq!(held[1], payload as i64);
        assert_eq!(got, join(&l, &r));
    }

    #[test]
    fn hostile_strings_survive_the_disk_roundtrip() {
        let mut c = Catalog::new();
        let ab = Schema::from_chars(&mut c, "AB");
        let bc = Schema::from_chars(&mut c, "BC");
        let hostile = ["tab\there", "line\nbreak", "007", "", "  padded  "];
        let lrows = hostile
            .iter()
            .enumerate()
            .map(|(i, s)| vec![Value::Int(i as i64), Value::str(*s)].into())
            .collect();
        let rrows = hostile
            .iter()
            .map(|s| vec![Value::str(*s), Value::str(format!("v:{s}"))].into())
            .collect();
        let l = Relation::from_rows(ab, lrows).unwrap();
        let r = Relation::from_rows(bc, rrows).unwrap();
        let expect = join(&l, &r);
        assert_eq!(expect.len(), hostile.len());
        let (got, _) = grace_hash_join(&l, &r, 4).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_side_yields_empty() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2]]).unwrap();
        let empty = Relation::empty(Schema::from_chars(&mut c, "BC"));
        let (got, stats) = grace_hash_join(&r, &empty, 4).unwrap();
        assert!(got.is_empty());
        assert_eq!(got.schema().arity(), 3);
        assert_eq!(stats.partitions, 4);
    }

    #[test]
    fn disjoint_schemas_degenerate_to_plain_join() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "A", &[&[1], &[2]]).unwrap();
        let s = relation_of_ints(&mut c, "B", &[&[10], &[20]]).unwrap();
        let (got, stats) = grace_hash_join(&r, &s, 4).unwrap();
        assert_eq!(got, join(&r, &s));
        assert_eq!(stats, SpillStats::default(), "no partitioning happened");
    }

    /// Partition files hold exactly the reference row encoding of the rows
    /// hashed to them, in operand order.
    #[test]
    fn partition_files_are_the_reference_row_encoding() {
        let mut c = Catalog::new();
        let (l, r) = mixed_operands(&mut c, 4);
        let (lpos, _) = join_key_positions(l.schema(), r.schema());
        let (files, _) = partition_to_disk(&l, &lpos, 4).unwrap();
        let mut want = vec![String::new(); 4];
        for row in &l.rows() {
            want[hash_at(row, &lpos) as usize % 4] += &crate::tsv::tests::row_to_tsv(row);
        }
        for (f, want) in files.iter().zip(&want) {
            assert_eq!(&std::fs::read_to_string(&f.path).unwrap(), want);
        }
    }

    /// A file someone planted at a spill name is left alone — neither
    /// truncated by the create nor deleted by a guard — and reported.
    #[test]
    fn temp_file_creation_refuses_an_existing_path() {
        let (free, w) = TempFile::create().unwrap();
        drop(w);
        let path = free.path.clone();
        drop(free);
        std::fs::write(&path, b"precious").unwrap();
        let err = TempFile::create_at(path.clone()).map(drop).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert_eq!(std::fs::read(&path).unwrap(), b"precious");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn temp_files_are_removed_on_drop() {
        let (guard, mut w) = TempFile::create().unwrap();
        w.write_all(b"1\t2\n").unwrap();
        w.flush().unwrap();
        drop(w);
        let path = guard.path.clone();
        assert!(path.exists());
        drop(guard);
        assert!(!path.exists(), "spill file leaked: {}", path.display());
    }
}
