//! Sorting rows column-wise as packed integer keys — shared by the TSV
//! writer ([`crate::tsv::write_sorted`]) and the trie index
//! ([`crate::ops::TrieIndex`]).
//!
//! Every cell becomes an order-preserving unsigned key (an integer's
//! distance from its column's minimum; a dictionary entry's rank among the
//! entries in use, the dictionary being sorted once), so no comparison hops
//! between columns or dereferences a [`Value`](crate::Value). As many
//! leading columns as fit are packed, with the row id, into one `u128` per
//! row and sorted as integers; runs that tie on the packed prefix are
//! refined by integer compares on the remaining columns.

use crate::column::{Column, Dict};

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

/// A column seen through order-preserving unsigned keys: `key(i) < key(j)`
/// exactly when cell `i` sorts before cell `j` under the
/// [`Value`](crate::Value) order, and a key alone identifies its cell.
pub(crate) enum SortColumn<'a> {
    /// Integer cells, keyed by their distance from the column minimum.
    Int { vals: &'a [i64], min: i64 },
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
    /// The keyed view of `col`, and how many bits its largest key needs.
    pub(crate) fn new(col: &'a Column) -> (Self, u32) {
        let bits = |max_key: u64| u64::BITS - max_key.leading_zeros();
        match col {
            Column::Int(vals) => {
                let min = vals.iter().copied().min().unwrap_or(0);
                let max = vals.iter().copied().max().unwrap_or(0);
                // Two's-complement subtraction of the minimum is the
                // distance from it, which fits `u64` for any two `i64`s.
                (
                    SortColumn::Int { vals, min },
                    bits(max.wrapping_sub(min) as u64),
                )
            }
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
                (col, bits(max_key))
            }
        }
    }

    #[inline]
    pub(crate) fn key(&self, i: usize) -> u64 {
        match self {
            SortColumn::Int { vals, min } => vals[i].wrapping_sub(*min) as u64,
            SortColumn::Ranked { codes, rank, .. } => u64::from(rank[codes[i] as usize]),
        }
    }
}

/// Rows sorted by [`sort_rows`]: one key per row, in order.
pub(crate) struct SortedRows {
    /// The packed prefix columns' keys above the row id in the low 32 bits.
    pub keys: Vec<u128>,
    /// How many leading columns are packed into `keys`.
    pub packed: usize,
    /// Bits of `keys` in use: the packed columns' widths plus the row id's.
    pub width: u32,
}

impl SortedRows {
    /// The row a key stands for.
    #[inline]
    pub(crate) fn row(key: u128) -> usize {
        key as u32 as usize
    }
}

/// Sort rows `0..nrows` by `cols` (each with its key width) left to right.
pub(crate) fn sort_rows(cols: &[(SortColumn, u32)], nrows: usize) -> SortedRows {
    assert!(u32::try_from(nrows).is_ok(), "relations index rows by u32");
    // The leading columns whose keys fit beside the 32-bit row id.
    let mut packed = 0usize;
    let mut width = u32::BITS;
    while packed < cols.len() && width + cols[packed].1 <= u128::BITS {
        width += cols[packed].1;
        packed += 1;
    }
    let (prefix, rest) = cols.split_at(packed);
    let mut keys = vec![0u128; nrows];
    for (col, bits) in prefix {
        for (i, k) in keys.iter_mut().enumerate() {
            *k = (*k << bits) | u128::from(col.key(i));
        }
    }
    for (i, k) in keys.iter_mut().enumerate() {
        *k = (*k << u32::BITS) | i as u128;
    }
    keys.sort_unstable();
    if !rest.is_empty() {
        let row = SortedRows::row;
        for run in keys.chunk_by_mut(|a, b| a >> u32::BITS == b >> u32::BITS) {
            run.sort_unstable_by(|&a, &b| {
                rest.iter()
                    .map(|(col, _)| col.key(row(a)).cmp(&col.key(row(b))))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
    }
    SortedRows {
        keys,
        packed,
        width,
    }
}

/// The permutation of `0..nrows` that sorts rows by `cols` left to right
/// under the [`Value`](crate::Value) order.
pub(crate) fn sorted_permutation(cols: &[&Column], nrows: usize) -> Vec<u32> {
    let cols: Vec<(SortColumn, u32)> = cols.iter().map(|c| SortColumn::new(c)).collect();
    // The row id is the low 32 bits of each key.
    let keys = sort_rows(&cols, nrows).keys;
    keys.into_iter().map(|k| k as u32).collect()
}
