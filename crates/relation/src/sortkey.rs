//! Sorting rows column-wise as packed integer keys — shared by the TSV
//! writer ([`crate::tsv::write_sorted`]) and the trie index
//! ([`crate::ops::TrieIndex`]).
//!
//! Every cell becomes an order-preserving unsigned key (an integer cell's
//! stored offset from its column's minimum, the largest key being the
//! column's stored span, so nothing is folded; a dictionary entry's rank
//! among the entries in use, the dictionary being sorted once),
//! so no comparison hops between columns or dereferences a
//! [`Value`](crate::Value). As many leading columns as fit are packed into
//! one integer per row above a row id of `bits(nrows − 1)` bits; a caller
//! that needs no row id (the writer, when every column fits) packs the
//! columns alone. The key is the narrowest of `u32`, `u64` and `u128` that
//! holds the packed width. `u32` keys from 4,096 rows up are LSD radix
//! sorted, all others go through `sort_unstable`; runs that tie on the
//! packed prefix are refined by integer compares on the remaining columns,
//! then by row id, so the order is total and ties keep row order.

use crate::column::{with_cells, Column, Dict, IntCells, IntColumn};
use std::ops::{BitOrAssign, Shl, Shr};

/// Which entries of a `dict_len`-entry pool `codes` uses. A gathered column
/// shares its source's pool, so the pool can be far larger than the column;
/// only used entries are worth escaping or ranking.
pub(crate) fn used_entries(codes: &[u32], dict_len: usize) -> Vec<bool> {
    let mut used = vec![false; dict_len];
    for &c in codes {
        used[c as usize] = true;
    }
    used
}

/// Bits needed to hold `max` (0 for 0).
fn bits(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// A column seen through order-preserving unsigned keys: `key(i) < key(j)`
/// exactly when cell `i` sorts before cell `j` under the
/// [`Value`](crate::Value) order, and a key alone identifies its cell.
pub(crate) enum SortColumn<'a> {
    /// Integer cells, keyed by their stored offset from the column minimum.
    Int(&'a IntColumn),
    /// Dictionary cells, keyed by the *rank* of their entry among the
    /// entries in use: the dictionary is sorted once, so comparing two
    /// cells never touches a value. `by_rank[r]` is the code ranked `r`.
    Ranked {
        codes: &'a [u32],
        dict: &'a Dict,
        rank: Vec<u32>,
        by_rank: Vec<u32>,
    },
}

impl<'a> SortColumn<'a> {
    /// The keyed view of `col`, and its largest key.
    pub(crate) fn new(col: &'a Column) -> (Self, u64) {
        match col {
            Column::Int(c) => (SortColumn::Int(c), c.span().width),
            Column::Dict { codes, dict } => {
                let used = used_entries(codes, dict.len());
                let mut by_rank: Vec<u32> = (0..dict.len() as u32)
                    .filter(|&c| used[c as usize])
                    .collect();
                by_rank.sort_unstable_by(|&a, &b| dict.value(a).cmp(dict.value(b)));
                let mut rank = vec![0u32; dict.len()];
                for (r, &c) in by_rank.iter().enumerate() {
                    rank[c as usize] = r as u32;
                }
                let max_key = by_rank.len().saturating_sub(1) as u64;
                let col = SortColumn::Ranked {
                    codes,
                    dict,
                    rank,
                    by_rank,
                };
                (col, max_key)
            }
        }
    }

    #[inline]
    pub(crate) fn key(&self, i: usize) -> u64 {
        match self {
            SortColumn::Int(c) => c.offset(i),
            SortColumn::Ranked { codes, rank, .. } => u64::from(rank[codes[i] as usize]),
        }
    }

    /// OR every row's key, shifted into `field`, into its packed key.
    fn pack<K: Key>(&self, keys: &mut [K], field: Field) {
        let at = |k: &mut K, v: u64| *k |= K::of(v) << field.shift;
        match self {
            SortColumn::Int(c) => with_cells!(IntCells, c.cells(), v => {
                for (k, &x) in keys.iter_mut().zip(v.iter()) {
                    at(k, u64::from(x));
                }
            }),
            SortColumn::Ranked { codes, rank, .. } => {
                for (k, &c) in keys.iter_mut().zip(codes.iter()) {
                    at(k, u64::from(rank[c as usize]));
                }
            }
        }
    }
}

/// Where one value sits in a packed key: `mask` over the bits `shift` up.
/// A zero-width field has `mask` 0 (and `shift` 0), so no shift ever
/// reaches the key's full width.
#[derive(Clone, Copy)]
pub(crate) struct Field {
    shift: u32,
    mask: u64,
}

impl Field {
    fn new(shift: u32, bits: u32) -> Self {
        match bits {
            0 => Field { shift: 0, mask: 0 },
            _ => Field {
                shift,
                mask: u64::MAX >> (u64::BITS - bits),
            },
        }
    }

    /// The value this field holds in `k`.
    #[inline]
    pub(crate) fn get<K: Key>(self, k: K) -> u64 {
        (k >> self.shift).low() & self.mask
    }
}

/// A packed sort key: the narrowest of `u32`, `u64` and `u128` that holds
/// the fields.
pub(crate) trait Key:
    Copy + Ord + Default + Shl<u32, Output = Self> + Shr<u32, Output = Self> + BitOrAssign
{
    /// Whether [`sort_keys`] radix sorts keys of this type (see
    /// [`RADIX_MIN_ROWS`]).
    const RADIX: bool;
    /// `v`, which fits.
    fn of(v: u64) -> Self;
    /// The low 64 bits.
    fn low(self) -> u64;
}

macro_rules! key {
    ($($t:ty => $radix:expr),*) => {$(
        impl Key for $t {
            const RADIX: bool = $radix;
            #[inline]
            fn of(v: u64) -> Self {
                v as $t
            }
            #[inline]
            fn low(self) -> u64 {
                self as u64
            }
        }
    )*};
}

key!(u32 => true, u64 => false, u128 => false);

/// The radix sort's largest digit: a 2,048-bucket histogram per pass, so
/// a `u32` key takes at most three passes.
const DIGIT_BITS: u32 = 11;
/// The fewest keys the radix sort takes. On a shared two-vCPU Xeon host
/// (2 MiB L2) it beats `sort_unstable` on `u32` keys from 4,096 rows up to
/// half a million (6.3 ms against 11 ms, best of 41, at 490,000 26-bit
/// keys); on 490,000 `u64` keys, whose array and scratch outgrow the cache,
/// it loses (15 ms against 11 ms at 33 and 44 bits), so wider keys always
/// take `sort_unstable`.
const RADIX_MIN_ROWS: usize = 4096;

/// LSD radix sort of `keys` below `width` bits, in as few passes of at most
/// [`DIGIT_BITS`] as cover it, the digits split evenly: every digit's
/// histogram in one pass over the keys, then one stable scatter per digit
/// into a scratch buffer of the same size, skipping any digit all keys
/// share.
fn radix_sort<K: Key>(keys: &mut Vec<K>, width: u32) {
    if width == 0 {
        return;
    }
    let passes = width.div_ceil(DIGIT_BITS);
    let bits = width.div_ceil(passes);
    let digit = |k: K, d: usize| (k >> (d as u32 * bits)).low() as usize & ((1 << bits) - 1);
    let mut counts = vec![[0u32; 1 << DIGIT_BITS]; passes as usize];
    for &k in keys.iter() {
        for (d, c) in counts.iter_mut().enumerate() {
            c[digit(k, d)] += 1;
        }
    }
    let n = u32::try_from(keys.len()).expect("relations index rows by u32");
    let mut scratch = Vec::new();
    for (d, c) in counts.iter_mut().enumerate() {
        if c.contains(&n) {
            continue;
        }
        let mut at = 0;
        for slot in c.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        scratch.resize(keys.len(), K::default());
        for &k in keys.iter() {
            let next = &mut c[digit(k, d)];
            scratch[*next as usize] = k;
            *next += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

/// Packed keys, sorted, in the narrowest type that holds them.
pub(crate) enum Keys {
    U32(Vec<u32>),
    U64(Vec<u64>),
    U128(Vec<u128>),
}

/// Rows sorted by [`sort_rows`]: one key per row, in order.
pub(crate) struct SortedRows {
    pub keys: Keys,
    /// The packed leading columns' fields, in column order.
    pub fields: Vec<Field>,
    /// The row id's field, below the columns' (zero-width when the caller
    /// asked for no row id, or there is at most one row).
    pub row: Field,
}

/// Sort rows `0..nrows` by `cols` (each with its largest key) left to
/// right. With `need_row` false and every column fitting in a `u128`, the
/// keys carry no row id; otherwise the row id is `row.get(key)`.
pub(crate) fn sort_rows(cols: &[(SortColumn, u64)], nrows: usize, need_row: bool) -> SortedRows {
    assert!(u32::try_from(nrows).is_ok(), "relations index rows by u32");
    let widths: Vec<u32> = cols.iter().map(|&(_, max)| bits(max)).collect();
    let row_bits = match need_row || widths.iter().sum::<u32>() > u128::BITS {
        true => bits(nrows.saturating_sub(1) as u64),
        false => 0,
    };
    // The leading columns whose keys fit above the row id.
    let (mut packed, mut width) = (0, row_bits);
    while packed < widths.len() && width + widths[packed] <= u128::BITS {
        width += widths[packed];
        packed += 1;
    }
    let mut shift = width;
    let fields: Vec<Field> = widths[..packed]
        .iter()
        .map(|&w| {
            shift -= w;
            Field::new(shift, w)
        })
        .collect();
    let row = Field::new(0, row_bits);
    let keys = match width {
        0..=32 => Keys::U32(sort_keys(cols, &fields, row_bits, nrows, width)),
        33..=64 => Keys::U64(sort_keys(cols, &fields, row_bits, nrows, width)),
        _ => Keys::U128(sort_keys(cols, &fields, row_bits, nrows, width)),
    };
    SortedRows { keys, fields, row }
}

/// Pack the keys of `width` bits — `cols`' leading ones into `fields`,
/// the row id into the low `row_bits` — sort them, and refine the runs that
/// tie on the packed columns by the rest.
fn sort_keys<K: Key>(
    cols: &[(SortColumn, u64)],
    fields: &[Field],
    row_bits: u32,
    nrows: usize,
    width: u32,
) -> Vec<K> {
    let mut keys = vec![K::default(); nrows];
    for ((col, _), &field) in cols.iter().zip(fields) {
        if field.mask != 0 {
            col.pack(&mut keys, field);
        }
    }
    if row_bits > 0 {
        for (i, k) in keys.iter_mut().enumerate() {
            *k |= K::of(i as u64);
        }
    }
    if K::RADIX && nrows >= RADIX_MIN_ROWS {
        radix_sort(&mut keys, width);
    } else {
        keys.sort_unstable();
    }
    debug_assert!(keys.is_sorted());
    let rest = &cols[fields.len()..];
    if !rest.is_empty() {
        let row_field = Field::new(0, row_bits);
        let row = |k: &K| row_field.get(*k) as usize;
        let order = |a: &K, b: &K| {
            rest.iter()
                .map(|(col, _)| col.key(row(a)).cmp(&col.key(row(b))))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| row(a).cmp(&row(b)))
        };
        for run in keys.chunk_by_mut(|&a, &b| a >> row_bits == b >> row_bits) {
            run.sort_unstable_by(order);
            debug_assert!(run.is_sorted_by(|a, b| order(a, b).is_le()));
        }
    }
    keys
}

/// The permutation of `0..nrows` that sorts rows by `cols` left to right
/// under the [`Value`](crate::Value) order, ties kept in row order.
pub(crate) fn sorted_permutation(cols: &[&Column], nrows: usize) -> Vec<u32> {
    let cols: Vec<(SortColumn, u64)> = cols.iter().map(|c| SortColumn::new(c)).collect();
    permutation(&cols, nrows)
}

/// [`sorted_permutation`] over columns already seen through their keys.
pub(crate) fn permutation(cols: &[(SortColumn, u64)], nrows: usize) -> Vec<u32> {
    let sorted = sort_rows(cols, nrows, true);
    let row = sorted.row;
    match sorted.keys {
        Keys::U32(keys) => keys.into_iter().map(|k| row.get(k) as u32).collect(),
        Keys::U64(keys) => keys.into_iter().map(|k| row.get(k) as u32).collect(),
        Keys::U128(keys) => keys.into_iter().map(|k| row.get(k) as u32).collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::value::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    /// Strings every escaping and ordering rule treats differently, some
    /// short enough for an 8- or 16-byte slot and some not.
    pub(crate) const NASTY: [&str; 16] = [
        "tab\there",
        "line\nbreak",
        "cr\rhere",
        "back\\slash",
        "007",
        "-0",
        "",
        " pad ",
        "a",
        "B",
        "é",
        "-5",
        "sixteen bytes!!!",
        "a string well past any slot",
        "\\t\t\\n\n\\r\r\\\\ escaped",
        "0123456789012345678",
    ];

    pub(crate) fn column(cells: impl IntoIterator<Item = Value>) -> Column {
        let mut b = ColumnBuilder::default();
        cells.into_iter().for_each(|v| b.push(v));
        b.finish()
    }

    /// `nrows` integers in `lo..lo + span` (wrapping past `i64::MAX`), the
    /// first two rows the span's two ends, so the column's span is exact.
    pub(crate) fn ints(rng: &mut StdRng, nrows: usize, lo: i64, span: u64) -> Column {
        let at = |k: u64| Value::Int(lo.wrapping_add(k as i64));
        column((0..nrows).map(|i| match i {
            0 => at(0),
            1 => at(span - 1),
            _ => at(rng.gen_range(0..span)),
        }))
    }

    /// `nrows` cells drawn from `pool`.
    pub(crate) fn drawn(rng: &mut StdRng, nrows: usize, pool: &[Value]) -> Column {
        column((0..nrows).map(|_| pool[rng.gen_range(0..pool.len())].clone()))
    }

    /// Integers at both ends of `i64` and around zero: one such column
    /// needs all 64 key bits.
    pub(crate) fn extremes() -> Vec<Value> {
        [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]
            .map(Value::Int)
            .to_vec()
    }

    /// The nasty strings mixed with a few integers: a dictionary column
    /// whose `Value` order interleaves kinds.
    pub(crate) fn nasty() -> Vec<Value> {
        let mut pool: Vec<Value> = NASTY.iter().map(Value::str).collect();
        pool.extend([-5, 0, 7, 1_000_000].map(Value::Int));
        pool
    }

    /// The reference: row ids stably sorted by their cells' `Value`s.
    fn stable_sort(cols: &[&Column], nrows: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..nrows as u32).collect();
        ids.sort_by(|&a, &b| {
            cols.iter()
                .map(|c| c.value(a as usize).cmp(&c.value(b as usize)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        ids
    }

    /// [`TrieIndex`](crate::ops::TrieIndex) levels are gathered through
    /// this permutation: it must be the stable sort by `Value`, ties in row
    /// order, on every key width — `u32` keys radix sorted from 4,096 rows,
    /// the `u32`/`u64`/`u128` boundaries, and columns past 128 bits
    /// ordered by run refinement — and on dictionary columns.
    #[test]
    fn sorted_permutation_is_a_stable_sort_by_value() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut cases: Vec<(usize, Vec<Column>)> = Vec::new();
        for n in [0, 1, 2, 3, 100, 4095, 4096, 4097, 6000] {
            // Few distinct keys: long runs of ties, broken by row id.
            let cols = vec![ints(&mut rng, n, -3, 7), drawn(&mut rng, n, &nasty())];
            cases.push((n, cols));
        }
        for n in [4096, 5000] {
            // Row id 12–13 bits: 19 + 13 = 32 bits is `u32`, 20 + 13 is not.
            for span in [1 << 19, (1 << 19) + 1, 1 << 20] {
                cases.push((n, vec![ints(&mut rng, n, 1 << 40, span)]));
            }
        }
        for n in [300, 4100] {
            let row_bits = bits(n as u64 - 1);
            // Exactly 64 bits with the row id, and one more.
            for extra in [0, 1] {
                let span = 1u64 << (64 - row_bits - 20 + extra);
                let cols = vec![ints(&mut rng, n, 0, 1 << 20), ints(&mut rng, n, -9, span)];
                cases.push((n, cols));
            }
            // 64-bit columns: the second only partly fits beside the row
            // id, the third not at all; few distinct values keep ties.
            let wide = (0..3).map(|_| drawn(&mut rng, n, &extremes())).collect();
            cases.push((n, wide));
        }
        for (n, cols) in &cases {
            let cols: Vec<&Column> = cols.iter().collect();
            assert_eq!(
                sorted_permutation(&cols, *n),
                stable_sort(&cols, *n),
                "{n} rows, {} columns",
                cols.len()
            );
        }
    }

    /// The radix sort agrees with `sort_unstable` on every width it takes,
    /// constant digits included.
    #[test]
    fn radix_sort_matches_sort_unstable() {
        let mut rng = StdRng::seed_from_u64(11);
        for width in [0, 1, 5, 11, 12, 22, 26, 32] {
            for n in [0, 1, 4096, 4097, 9000, 9001] {
                let mask = u32::MAX.checked_shr(32 - width).unwrap_or(0);
                // In every other case the keys stay below 2^9: the digits
                // above the lowest are constant and skipped.
                let low = if n % 2 == 0 { mask } else { mask & 0x1ff };
                let mut keys: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() & low).collect();
                let mut expect = keys.clone();
                expect.sort_unstable();
                radix_sort(&mut keys, width);
                assert_eq!(keys, expect, "width {width}, {n} keys");
            }
        }
    }
}
