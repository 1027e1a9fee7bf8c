//! The batch-at-a-time columnar kernels — the bodies of the operators in
//! [`super`].
//!
//! Each kernel works in three phases:
//!
//! 1. **Batch key hashing** ([`key_hashes`]): key hashes for *all* rows are
//!    computed by zipping column slices — a tight loop over one `i64`/`u32`
//!    vector per key attribute, with interned cells resolved by dictionary
//!    hash lookup. No per-row key materialization, no `Value` enum walks.
//! 2. **Selection-vector probing**: a [`RawTable`] — for joins and
//!    semijoins the one inside a [`super::JoinIndex`] — is probed with the
//!    precomputed hashes; candidates verify positionally against column
//!    data ([`ids_eq`]) and survivors are collected as `u32` row-id vectors,
//!    never as rows.
//! 3. **Late materialization**: output columns are produced by gathering
//!    the selection vectors once per column ([`Column::gather`] /
//!    [`Column::concat_gathered`]); dictionary columns copy codes and share
//!    their pool with the input.
//!
//! A key hash is the [`mix`]-fold of the key cells'
//! [`crate::Value::stable_hash`]es, whichever column representation holds
//! them — so a [`super::JoinIndex`] built over one relation probes correctly
//! from any other, and the Grace-hash spill partitions both operands
//! consistently.

use super::hashtable::RawTable;
use crate::column::Column;
use crate::fxhash::mix;
use crate::relation::Relation;
use crate::schema::Schema;

/// The key hash of every row of `rel` at `positions`, batch-wise: one
/// mix-fold pass per key column over its packed payload slice.
pub fn key_hashes(rel: &Relation, positions: &[usize]) -> Vec<u64> {
    let cols = rel.columns();
    let mut acc = vec![0u64; rel.len()];
    for &p in positions {
        cols[p].hash_into(&mut acc, mix);
    }
    acc
}

/// Whether row `i` of `acols` (at `apos`) and row `j` of `bcols` (at `bpos`)
/// agree on their key (the collision check behind [`RawTable`] candidates).
#[inline]
pub(crate) fn ids_eq(
    acols: &[Column],
    apos: &[usize],
    i: usize,
    bcols: &[Column],
    bpos: &[usize],
    j: usize,
) -> bool {
    debug_assert_eq!(apos.len(), bpos.len());
    apos.iter()
        .zip(bpos)
        .all(|(&a, &b)| acols[a].cells_eq(i, &bcols[b], j))
}

/// Gather the rows in `ids` of `rel` into a new relation (all columns, one
/// gather each). The caller guarantees `ids` selects distinct rows.
pub(crate) fn gather_relation(rel: &Relation, ids: &[u32]) -> Relation {
    let cols: Vec<Column> = rel.columns().iter().map(|c| c.gather(ids)).collect();
    Relation::from_distinct_columns(rel.schema().clone(), ids.len(), cols)
}

// ---------------------------------------------------------------------------
// Join.

/// The column each output attribute of `build ⋈ probe` is gathered from,
/// and whether the probe side's ids (rather than the build side's) select
/// its rows: the probe side's column when the attribute is there (key
/// attributes are equal on both sides anyway), the build side's otherwise.
pub(crate) fn output_columns<'a>(
    build: &'a Relation,
    probe: &'a Relation,
    out_schema: &Schema,
) -> Vec<(&'a Column, bool)> {
    out_schema
        .attrs()
        .iter()
        .map(|&a| match probe.schema().position(a) {
            Some(p) => (&probe.columns()[p], true),
            None => {
                let p = build.schema().position(a).expect("attr from one side");
                (&build.columns()[p], false)
            }
        })
        .collect()
}

/// Late-materialize a join result from per-part `(build_ids, probe_ids)`
/// selection vectors: every output column is gathered exactly once, from
/// the side [`output_columns`] names.
pub(crate) fn materialize_join(
    build: &Relation,
    probe: &Relation,
    out_schema: &Schema,
    parts: &[(Vec<u32>, Vec<u32>)],
) -> Relation {
    let nrows: usize = parts.iter().map(|(b, _)| b.len()).sum();
    let cols: Vec<Column> = output_columns(build, probe, out_schema)
        .into_iter()
        .map(|(col, from_probe)| {
            Column::concat_gathered(
                &parts
                    .iter()
                    .map(|(bids, pids)| (col, if from_probe { pids } else { bids }.as_slice()))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    // Output rows are distinct without explicit dedup: restricted to the
    // build schema an output row is its build row, restricted to the probe
    // schema its probe row, and input pairs are distinct.
    Relation::from_distinct_columns(out_schema.clone(), nrows, cols)
}

/// The probe-side group of a row whose key no build row has.
pub(crate) const NO_GROUP: u32 = u32::MAX;

/// `build`'s rows grouped by their natural-join key with `probe`: each
/// build row's group, numbered in order of first occurrence, and each probe
/// row's — the group of the build rows it joins with, or [`NO_GROUP`] —
/// plus the number of groups. One [`RawTable`] representative per distinct
/// key; disjoint schemas put every build row in one group.
pub(crate) fn key_groups(build: &Relation, probe: &Relation) -> (Vec<u32>, Vec<u32>, usize) {
    let (bpos, ppos) = super::join::join_key_positions(build.schema(), probe.schema());
    let bcols = build.columns();
    let bh = key_hashes(build, &bpos);
    let mut table = RawTable::with_capacity(bh.len());
    let mut bgroup = vec![0u32; bh.len()];
    let mut groups = 0u32;
    for (i, &h) in bh.iter().enumerate() {
        let rep = table
            .candidates(h)
            .find(|&j| ids_eq(bcols, &bpos, j, bcols, &bpos, i));
        bgroup[i] = match rep {
            Some(j) => bgroup[j],
            None => {
                table.insert(h, i as u32);
                groups += 1;
                groups - 1
            }
        };
    }
    let pcols = probe.columns();
    let pgroup = key_hashes(probe, &ppos)
        .iter()
        .enumerate()
        .map(|(j, &h)| {
            table
                .candidates(h)
                .find(|&bi| ids_eq(bcols, &bpos, bi, pcols, &ppos, j))
                .map_or(NO_GROUP, |bi| bgroup[bi])
        })
        .collect();
    (bgroup, pgroup, groups as usize)
}

/// Per row of `probe`, the summed `weights` of the `build` rows it joins
/// with (saturating; `weights[i]` belongs to build row `i`), without
/// building the join: the weight of each of `build`'s `key_groups`,
/// looked up once per probe row.
pub fn join_weight_sums(build: &Relation, weights: &[u64], probe: &Relation) -> Vec<u64> {
    debug_assert_eq!(weights.len(), build.len());
    let (bgroup, pgroup, groups) = key_groups(build, probe);
    let mut sums = vec![0u64; groups];
    for (&g, &w) in bgroup.iter().zip(weights) {
        sums[g as usize] = sums[g as usize].saturating_add(w);
    }
    pgroup
        .iter()
        .map(|&g| match g {
            NO_GROUP => 0,
            g => sums[g as usize],
        })
        .collect()
}

/// `|left ⋈ right|` without building the join: a natural join of
/// duplicate-free operands has no duplicates, so its size is the number of
/// matching pairs — [`join_weight_sums`] with unit weights on the smaller
/// side, summed (saturating; disjoint schemas give `|left|·|right|`).
pub fn join_count(left: &Relation, right: &Relation) -> u64 {
    let (build, probe) = if left.len() <= right.len() {
        (left, right)
    } else {
        (right, left)
    };
    join_weight_sums(build, &vec![1; build.len()], probe)
        .into_iter()
        .fold(0, u64::saturating_add)
}

/// Contiguous `(start, end)` ranges covering `0..n` in `pieces` chunks.
pub(crate) fn split_ranges(n: usize, pieces: usize) -> Vec<(usize, usize)> {
    let pieces = pieces.clamp(1, n.max(1));
    let chunk = n.div_ceil(pieces);
    (0..pieces)
        .map(|i| (i * chunk, ((i + 1) * chunk).min(n)))
        .filter(|(s, e)| s < e || n == 0)
        .collect()
}

/// Partition row ids `0..hashes.len()` by hash into `parts` id lists. Rows
/// that agree on the key always land in the same list, so per-list operator
/// results can be concatenated without cross-list deduplication.
pub(crate) fn partition_ids(hashes: &[u64], parts: usize) -> Vec<Vec<u32>> {
    let parts = parts.max(1);
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); parts];
    for (i, &h) in hashes.iter().enumerate() {
        out[(h as usize) % parts].push(i as u32);
    }
    out
}

// ---------------------------------------------------------------------------
// Projection.

/// Columnar projection: dedup by hashing the projected columns batch-wise
/// (first-occurrence ids survive), then gather only the kept columns.
/// `positions` map output schema order to input column positions.
pub(crate) fn col_project_sequential(rel: &Relation, positions: &[usize]) -> Vec<u32> {
    let h = key_hashes(rel, positions);
    let cols = rel.columns();
    dedup_ids_by_key(cols, positions, &h, (0..rel.len()).map(|i| i as u32))
}

/// Dedup an id stream by projected key: keeps the first occurrence of each
/// distinct key, in stream order. `hashes` are global (indexed by id).
pub(crate) fn dedup_ids_by_key(
    cols: &[Column],
    positions: &[usize],
    hashes: &[u64],
    ids: impl Iterator<Item = u32>,
) -> Vec<u32> {
    let (lo, hi) = ids.size_hint();
    let mut table = RawTable::with_capacity(hi.unwrap_or(lo));
    let mut out: Vec<u32> = Vec::new();
    for i in ids {
        let h = hashes[i as usize];
        if table
            .candidates(h)
            .any(|j| ids_eq(cols, positions, j, cols, positions, i as usize))
        {
            continue;
        }
        table.insert(h, i);
        out.push(i);
    }
    out
}

/// Gather the projection's output columns for the surviving `ids`.
pub(crate) fn materialize_project(
    rel: &Relation,
    out_schema: &Schema,
    positions: &[usize],
    ids: &[u32],
) -> Relation {
    let cols = rel.columns();
    let out: Vec<Column> = positions.iter().map(|&p| cols[p].gather(ids)).collect();
    Relation::from_distinct_columns(out_schema.clone(), ids.len(), out)
}

// ---------------------------------------------------------------------------
// Selection and set operations.

/// Columnar `select_eq`: scan one column, gather all.
pub(crate) fn col_select_eq(rel: &Relation, pos: usize, value: &crate::Value) -> Relation {
    let col = &rel.columns()[pos];
    let ids: Vec<u32> = (0..rel.len())
        .filter(|&i| col.cell_eq_value(i, value))
        .map(|i| i as u32)
        .collect();
    gather_relation(rel, &ids)
}

/// Columnar `select_attrs_eq`: compare two columns, gather all.
pub(crate) fn col_select_cols_eq(rel: &Relation, a: usize, b: usize) -> Relation {
    let cols = rel.columns();
    let ids: Vec<u32> = (0..rel.len())
        .filter(|&i| cols[a].cells_eq(i, &cols[b], i))
        .map(|i| i as u32)
        .collect();
    gather_relation(rel, &ids)
}

/// Columnar `select_where`: evaluate the row predicate against a transient
/// scratch tuple (no row-view caching), gather survivors.
pub(crate) fn col_select_where(rel: &Relation, pred: impl Fn(&[crate::Value]) -> bool) -> Relation {
    let cols = rel.columns();
    let mut scratch: Vec<crate::Value> = Vec::with_capacity(cols.len());
    let mut ids: Vec<u32> = Vec::new();
    for i in 0..rel.len() {
        scratch.clear();
        scratch.extend(cols.iter().map(|c| c.value(i)));
        if pred(&scratch) {
            ids.push(i as u32);
        }
    }
    gather_relation(rel, &ids)
}

/// Shared body for the columnar set operations: a full-row hash table over
/// `right`, membership-checked from `left`.
struct SetTable<'a> {
    rcols: &'a [Column],
    all: Vec<usize>,
    table: RawTable,
}

impl<'a> SetTable<'a> {
    fn new(right: &'a Relation) -> (Self, Vec<u64>) {
        let all: Vec<usize> = (0..right.schema().arity()).collect();
        let rh = key_hashes(right, &all);
        let mut table = RawTable::with_capacity(rh.len());
        for (i, &h) in rh.iter().enumerate() {
            table.insert(h, i as u32);
        }
        (
            SetTable {
                rcols: right.columns(),
                all,
                table,
            },
            rh,
        )
    }

    fn contains(&self, lcols: &[Column], i: usize, hash: u64) -> bool {
        self.table
            .candidates(hash)
            .any(|j| ids_eq(self.rcols, &self.all, j, lcols, &self.all, i))
    }
}

/// Columnar union: `left`'s columns pass through; `right` contributes the
/// rows absent from `left`, appended via one concat-gather per column.
pub(crate) fn col_union(left: &Relation, right: &Relation) -> Relation {
    let (set, _) = SetTable::new(left);
    let all: Vec<usize> = (0..right.schema().arity()).collect();
    let rh = key_hashes(right, &all);
    let rcols = right.columns();
    let fresh: Vec<u32> = (0..right.len())
        .filter(|&i| !set.contains(rcols, i, rh[i]))
        .map(|i| i as u32)
        .collect();
    let keep_left: Vec<u32> = (0..left.len() as u32).collect();
    let lcols = left.columns();
    let cols: Vec<Column> = lcols
        .iter()
        .zip(rcols.iter())
        .map(|(lc, rc)| Column::concat_gathered(&[(lc, keep_left.as_slice()), (rc, &fresh)]))
        .collect();
    Relation::from_distinct_columns(left.schema().clone(), left.len() + fresh.len(), cols)
}

/// Columnar difference / intersection: filter `left`'s ids by membership in
/// `right`, gather.
pub(crate) fn col_diff_inter(left: &Relation, right: &Relation, keep_present: bool) -> Relation {
    let (set, _) = SetTable::new(right);
    let all: Vec<usize> = (0..left.schema().arity()).collect();
    let lh = key_hashes(left, &all);
    let lcols = left.columns();
    let ids: Vec<u32> = (0..left.len())
        .filter(|&i| set.contains(lcols, i, lh[i]) == keep_present)
        .map(|i| i as u32)
        .collect();
    gather_relation(left, &ids)
}

// ---------------------------------------------------------------------------
// Rename.

/// Rename: the data never moves — columns are re-ordered into the new
/// schema's canonical order (`perm[new position] = old position`) by `Arc`
/// clone.
pub(crate) fn col_rename(rel: &Relation, new_schema: &Schema, perm: &[usize]) -> Relation {
    let cols = rel.columns();
    let out: Vec<Column> = perm.iter().map(|&p| cols[p].clone()).collect();
    Relation::from_distinct_columns(new_schema.clone(), rel.len(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::ops::hash_at;
    use crate::relation_of_ints;
    use crate::value::Value;

    #[test]
    fn batch_hashes_match_row_hashes() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 10]]).unwrap();
        let pos = [1usize, 0];
        let batch = key_hashes(&r, &pos);
        for (i, row) in r.rows().iter().enumerate() {
            assert_eq!(batch[i], hash_at(row, &pos), "row {i}");
        }
        // Empty key: constant hash in both engines.
        let empty = key_hashes(&r, &[]);
        assert!(empty.iter().all(|&h| h == hash_at(&r.rows()[0], &[])));
    }

    #[test]
    fn batch_hashes_match_on_strings() {
        let mut c = Catalog::new();
        let schema = crate::schema::Schema::from_chars(&mut c, "AB");
        let rows = vec![
            vec![Value::Int(1), Value::str("x")].into(),
            vec![Value::Int(2), Value::str("yy")].into(),
        ];
        let r = crate::Relation::from_rows(schema, rows).unwrap();
        let pos = [0usize, 1];
        let batch = key_hashes(&r, &pos);
        for (i, row) in r.rows().iter().enumerate() {
            assert_eq!(batch[i], hash_at(row, &pos));
        }
    }

    #[test]
    fn join_count_is_the_join_size() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 10], &[2, 10], &[3, 20], &[4, 30]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[10, 1], &[10, 2], &[20, 3], &[40, 4]]).unwrap();
        let t = relation_of_ints(&mut c, "DE", &[&[1, 1], &[2, 2], &[3, 3]]).unwrap();
        let empty = Relation::empty(Schema::from_chars(&mut c, "BC"));
        let unit = Relation::nullary_unit();
        for (l, r) in [
            (&r, &s),
            (&s, &r),
            (&r, &r),
            (&r, &t),
            (&r, &empty),
            (&empty, &t),
            (&r, &unit),
        ] {
            assert_eq!(join_count(l, r), crate::ops::join(l, r).len() as u64);
        }
        assert_eq!(join_count(&r, &s), 5);
    }

    #[test]
    fn join_weight_sums_add_the_weights_of_each_key_group() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 10], &[2, 10], &[3, 20]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[10, 1], &[20, 2], &[30, 3]]).unwrap();
        assert_eq!(join_weight_sums(&r, &[5, 7, 11], &s), [12, 11, 0]);
        assert_eq!(
            join_weight_sums(&r, &[u64::MAX, 1, 0], &s),
            [u64::MAX, 0, 0]
        );
        // Disjoint schemas: every probe row matches the whole build side.
        let t = relation_of_ints(&mut c, "DE", &[&[1, 1], &[2, 2]]).unwrap();
        assert_eq!(join_weight_sums(&r, &[5, 7, 11], &t), [23, 23]);
    }

    #[test]
    fn join_count_compares_strings_across_dictionaries() {
        let mut c = Catalog::new();
        let strs = |c: &mut Catalog, scheme: &str, rows: &[[&str; 2]]| {
            let schema = Schema::from_chars(c, scheme);
            let rows = rows
                .iter()
                .map(|r| r.iter().map(Value::str).collect())
                .collect();
            Relation::from_rows(schema, rows).unwrap()
        };
        let r = strs(&mut c, "AB", &[["a", "x"], ["b", "x"], ["c", "y"]]);
        let s = strs(&mut c, "BC", &[["y", "p"], ["x", "q"], ["z", "r"]]);
        assert_eq!(join_count(&r, &s), 3);
        assert_eq!(join_count(&r, &s), crate::ops::join(&r, &s).len() as u64);
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for (n, pieces) in [(10usize, 3usize), (1, 8), (0, 4), (7, 7), (100, 1)] {
            let ranges = split_ranges(n, pieces);
            let total: usize = ranges.iter().map(|(s, e)| e - s).sum();
            assert_eq!(total, n, "n={n} pieces={pieces}");
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
        }
    }

    #[test]
    fn partition_ids_is_exhaustive_and_disjoint() {
        let hashes: Vec<u64> = (0..100).map(|i| i * 2654435761).collect();
        let parts = partition_ids(&hashes, 4);
        let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<u32>>());
    }
}
