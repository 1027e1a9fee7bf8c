//! `TrieIndex` — a sorted, level-ordered view of a relation for worst-case
//! optimal joins (Generic Join / Leapfrog-Triejoin).
//!
//! A "trie" here is not a pointer structure: it is the relation's tuples
//! sorted lexicographically by a chosen column order, stored as one permuted
//! column vector per level. A node of the conceptual trie is a contiguous
//! row range `[lo, hi)` at some level; its children are the equal-value runs
//! of the next level within that range. That is exactly the representation
//! Leapfrog Triejoin wants: `seek`/`next` become galloping searches over a
//! sorted slice, and descending into a child is narrowing the range.
//!
//! Construction works directly over the columnar storage (PR 6): the sort
//! permutation is computed once over `u32` dictionary codes / packed `i64`s
//! and each level column is a [`Column::gather`] — interned levels copy only
//! codes and share the value pool; no row view is ever materialized.
//!
//! Cells are compared under the global [`Value`] ordering (ints before
//! strings), the same order [`Column::cells_cmp`] uses, so tries built from
//! different relations — with different dictionaries — intersect correctly.

use crate::column::Column;
use crate::relation::Relation;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// A sorted trie view over an `Arc<Relation>`: the analogue of
/// [`super::JoinIndex`] for the worst-case-optimal executor, with the same
/// ownership and accounting contract (pins its relation, reports resident
/// tuples/bytes for the index cache's budgets).
#[derive(Debug)]
pub struct TrieIndex {
    rel: Arc<Relation>,
    /// Schema column position of each trie level, outermost first. This is
    /// the identity of the view: the same relation sorted under a different
    /// level order is a different trie.
    key_pos: Box<[usize]>,
    /// Per-level columns, permuted into trie order (row `i` of every level
    /// is the same source tuple).
    levels: Vec<Column>,
    /// The sort permutation mapping trie row `i` back to source row
    /// `perm[i]`. Kept so callers can recover source tuples from trie
    /// positions; it is real resident memory and counts toward
    /// [`TrieIndex::heap_bytes`].
    perm: Box<[u32]>,
}

impl TrieIndex {
    /// Build the trie: gather the key columns, sort one permutation
    /// lexicographically under the global [`Value`] order, and gather each
    /// level through it. `key_pos` lists schema column positions, outermost
    /// level first; it need not cover the whole schema, but for the
    /// worst-case-optimal executor it always does (every attribute is
    /// eliminated somewhere).
    pub fn build(rel: Arc<Relation>, key_pos: Vec<usize>) -> Self {
        let n = rel.len();
        let cols = rel.columns();
        let keys: Vec<&Column> = key_pos.iter().map(|&p| &cols[p]).collect();
        let mut perm: Vec<u32> =
            (0..u32::try_from(n).expect("relation exceeds u32 rows")).collect();
        perm.sort_unstable_by(|&a, &b| {
            for c in &keys {
                match cmp_within(c, a as usize, b as usize) {
                    Ordering::Equal => continue,
                    non_eq => return non_eq,
                }
            }
            Ordering::Equal
        });
        let levels = keys.iter().map(|c| c.gather(&perm)).collect();
        TrieIndex {
            rel,
            key_pos: key_pos.into(),
            levels,
            perm: perm.into(),
        }
    }

    /// The source row index of trie row `i` (the sort permutation).
    pub fn source_row(&self, i: usize) -> usize {
        self.perm[i] as usize
    }

    /// The indexed relation.
    pub fn relation(&self) -> &Arc<Relation> {
        &self.rel
    }

    /// The schema column positions of the levels, outermost first.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_pos
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of tuples (rows at every level).
    pub fn tuples(&self) -> usize {
        self.rel.len()
    }

    /// Heap bytes of the permuted level columns themselves plus the sort
    /// permutation vector (excluding the pinned relation and shared
    /// dictionary pools): the allocation a cache hit avoids re-sorting.
    /// The permutation is included because it is retained for the life of
    /// the trie — omitting it under-counted every cached trie by
    /// `4 × tuples` bytes against the cache's byte budget.
    pub fn heap_bytes(&self) -> usize {
        self.levels.iter().map(Column::payload_bytes).sum::<usize>()
            + self.perm.len() * std::mem::size_of::<u32>()
    }

    /// Resident bytes — the level columns plus the pinned relation's
    /// payload, mirroring [`super::JoinIndex::resident_bytes`] so the two
    /// index kinds share one cache byte budget. Dictionary pools are shared
    /// with the relation and counted on its side.
    pub fn resident_bytes(&self) -> usize {
        self.heap_bytes() + self.rel.resident_col_bytes()
    }

    /// The value of the cell at `level`, row `i` (an `Arc` bump for interned
    /// strings).
    pub fn value(&self, level: usize, i: usize) -> Value {
        self.levels[level].value(i)
    }

    /// Compare the cell at `(level, i)` of `self` with the cell at
    /// `(olevel, j)` of `other` under the global [`Value`] ordering, across
    /// possibly different relations and dictionaries.
    #[inline]
    pub fn cell_cmp(
        &self,
        level: usize,
        i: usize,
        other: &TrieIndex,
        olevel: usize,
        j: usize,
    ) -> Ordering {
        self.levels[level].cells_cmp(i, &other.levels[olevel], j)
    }

    /// End of the run of rows equal to row `i` at `level`, within
    /// `[i, hi)` — i.e. the first index `> i` whose cell differs, found by
    /// galloping (the run is usually short).
    pub fn run_end(&self, level: usize, i: usize, hi: usize) -> usize {
        debug_assert!(i < hi, "run_end needs a non-empty range");
        let col = &self.levels[level];
        gallop(i + 1, hi, |k| cmp_within(col, k, i) == Ordering::Equal)
    }

    /// First row in `[lo, hi)` whose cell at `level` is `>=` the cell at
    /// `(olevel, j)` of `other`, by galloping then binary search. Returns
    /// `hi` when every cell is smaller.
    pub fn seek_ge(
        &self,
        level: usize,
        lo: usize,
        hi: usize,
        other: &TrieIndex,
        olevel: usize,
        j: usize,
    ) -> usize {
        let col = &self.levels[level];
        let ocol = &other.levels[olevel];
        gallop(lo, hi, |k| col.cells_cmp(k, ocol, j) == Ordering::Less)
    }
}

/// Compare two cells of the *same* column. Integer columns compare the
/// packed words; interned columns compare pool values (codes are not
/// ordered).
#[inline]
fn cmp_within(col: &Column, i: usize, j: usize) -> Ordering {
    match col {
        Column::Int(v) => v[i].cmp(&v[j]),
        Column::Dict { codes, dict } => {
            let (a, b) = (codes[i], codes[j]);
            if a == b {
                Ordering::Equal
            } else {
                dict.value(a).cmp(dict.value(b))
            }
        }
    }
}

/// The first index in `[lo, hi)` where `pred` turns false, assuming `pred`
/// is monotone (true-prefix, false-suffix) on the range: exponential probe
/// from `lo`, then binary search within the bracketed window.
fn gallop(lo: usize, hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    if lo >= hi || !pred(lo) {
        return lo;
    }
    // Invariant: pred holds at `base - 1`.
    let mut step = 1usize;
    let mut base = lo + 1;
    while base < hi && pred(base) {
        base += step;
        step *= 2;
    }
    // Binary search in [base - step/2 .. min(base, hi)) — pred true below,
    // false at/after the answer.
    let (mut left, mut right) = (base - step / 2, base.min(hi));
    while left < right {
        let mid = left + (right - left) / 2;
        if pred(mid) {
            left = mid + 1;
        } else {
            right = mid;
        }
    }
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::relation::Row;
    use crate::relation_of_ints;
    use crate::schema::Schema;

    fn trie_of(rel: &Relation, key_pos: Vec<usize>) -> TrieIndex {
        TrieIndex::build(Arc::new(rel.clone()), key_pos)
    }

    #[test]
    fn levels_sorted_lexicographically() {
        let mut c = Catalog::new();
        let r =
            relation_of_ints(&mut c, "AB", &[&[2, 1], &[1, 9], &[1, 3], &[2, 0], &[0, 5]]).unwrap();
        let t = trie_of(&r, vec![0, 1]);
        let got: Vec<(Value, Value)> = (0..t.tuples())
            .map(|i| (t.value(0, i), t.value(1, i)))
            .collect();
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(got[0], (Value::Int(0), Value::Int(5)));
    }

    #[test]
    fn reversed_key_order_sorts_by_inner_column_first() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[2, 1], &[1, 9], &[3, 1]]).unwrap();
        let t = trie_of(&r, vec![1, 0]);
        // Outer level is column B.
        assert_eq!(t.value(0, 0), Value::Int(1));
        assert_eq!(t.value(0, 1), Value::Int(1));
        assert_eq!(t.value(1, 0), Value::Int(2));
        assert_eq!(t.value(1, 1), Value::Int(3));
    }

    #[test]
    fn run_end_and_seek() {
        let mut c = Catalog::new();
        let r =
            relation_of_ints(&mut c, "AB", &[&[1, 1], &[1, 2], &[1, 3], &[4, 1], &[6, 1]]).unwrap();
        let t = trie_of(&r, vec![0, 1]);
        assert_eq!(t.run_end(0, 0, 5), 3, "run of A=1");
        assert_eq!(t.run_end(0, 3, 5), 4, "run of A=4");
        // Seek within the trie against another trie's cells.
        let probe = relation_of_ints(&mut c, "A", &[&[0], &[1], &[2], &[5], &[9]]).unwrap();
        let pt = trie_of(&probe, vec![0]);
        // probe rows sorted: 0,1,2,5,9
        assert_eq!(t.seek_ge(0, 0, 5, &pt, 0, 0), 0, ">= 0");
        assert_eq!(t.seek_ge(0, 0, 5, &pt, 0, 1), 0, ">= 1");
        assert_eq!(t.seek_ge(0, 0, 5, &pt, 0, 2), 3, ">= 2");
        assert_eq!(t.seek_ge(0, 0, 5, &pt, 0, 3), 4, ">= 5");
        assert_eq!(t.seek_ge(0, 0, 5, &pt, 0, 4), 5, ">= 9 exhausts");
    }

    #[test]
    fn mixed_values_follow_global_order() {
        let mut c = Catalog::new();
        let s = Schema::from_chars(&mut c, "A");
        let rows: Vec<Row> = vec![
            vec![Value::str("b")].into(),
            vec![Value::Int(7)].into(),
            vec![Value::str("a")].into(),
            vec![Value::Int(-2)].into(),
        ];
        let r = Relation::from_rows(s, rows).unwrap();
        let t = trie_of(&r, vec![0]);
        let got: Vec<Value> = (0..4).map(|i| t.value(0, i)).collect();
        assert_eq!(
            got,
            vec![
                Value::Int(-2),
                Value::Int(7),
                Value::str("a"),
                Value::str("b")
            ],
            "ints before strings"
        );
    }

    #[test]
    fn cross_dictionary_comparison() {
        let mut c = Catalog::new();
        let s = Schema::from_chars(&mut c, "A");
        let r1 = Relation::from_rows(
            s.clone(),
            vec![vec![Value::str("m")].into(), vec![Value::str("a")].into()],
        )
        .unwrap();
        let r2 = Relation::from_rows(
            s,
            vec![vec![Value::str("z")].into(), vec![Value::str("m")].into()],
        )
        .unwrap();
        let (t1, t2) = (trie_of(&r1, vec![0]), trie_of(&r2, vec![0]));
        // t1 sorted: a, m — t2 sorted: m, z. Distinct pools.
        assert_eq!(t1.cell_cmp(0, 1, &t2, 0, 0), Ordering::Equal);
        assert_eq!(t1.cell_cmp(0, 0, &t2, 0, 0), Ordering::Less);
        assert_eq!(t1.seek_ge(0, 0, 2, &t2, 0, 0), 1, "first >= \"m\"");
    }

    #[test]
    fn accounting_pins_relation() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap();
        let arc = Arc::new(r);
        let ptr = Arc::as_ptr(&arc);
        let t = TrieIndex::build(Arc::clone(&arc), vec![0, 1]);
        drop(arc);
        assert_eq!(Arc::as_ptr(t.relation()), ptr);
        assert_eq!(t.tuples(), 2);
        assert_eq!(t.depth(), 2);
        assert_eq!(
            t.heap_bytes(),
            2 * 2 * 8 + 2 * 4,
            "two permuted i64 levels plus the u32 permutation"
        );
        assert!(t.resident_bytes() >= t.heap_bytes());
        assert_eq!(t.source_row(0), 0);
    }

    #[test]
    fn empty_relation_trie() {
        let mut c = Catalog::new();
        let s = Schema::from_chars(&mut c, "AB");
        let t = trie_of(&Relation::empty(s), vec![0, 1]);
        assert_eq!(t.tuples(), 0);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.heap_bytes(), 0);
    }
}
