//! `TrieIndex` — a sorted, level-ordered view of a relation for worst-case
//! optimal joins (Generic Join / Leapfrog-Triejoin).
//!
//! A "trie" here is not a pointer structure: it is the relation's tuples
//! sorted lexicographically by a chosen column order, stored as one permuted
//! column vector per level. A node of the conceptual trie is a contiguous
//! row range `[lo, hi)` at some level; its children are the equal-value runs
//! of the next level within that range. That is exactly the representation
//! Leapfrog Triejoin wants: `seek`/`next` become galloping searches over a
//! sorted slice, and descending into a child is narrowing the range. The
//! elimination loop that walks these ranges is [`super::trie_join`].
//!
//! Construction works directly over the columnar storage and sorts packed
//! order keys ([`crate::sortkey`], the TSV writer's sort): every level is
//! seen as unsigned keys — an integer level's key is its distance from the
//! column minimum, an interned level's key is the rank of its code under the
//! global [`crate::Value`] order (ints before strings), the pool being
//! sorted once — and `(k₀, k₁, …, row)` words are sorted as integers. Each
//! level column is then a [`Column::gather`] through the resulting
//! permutation (interned levels copy only codes and share the value pool).
//! No comparison hops between columns or dereferences a dictionary, and no
//! tuple is ever boxed as a row.
//!
//! Because the keys follow the [`crate::Value`] order that
//! [`Column::cells_cmp`] uses, tries built from different relations — with
//! different dictionaries — intersect correctly.

use crate::attr::AttrId;
use crate::column::Column;
use crate::relation::Relation;
use crate::sortkey::sorted_permutation;
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
}

impl TrieIndex {
    /// Build the trie: sort the rows as packed `(keys…, row)` words and
    /// gather each level through the resulting permutation. `key_pos` lists
    /// schema column positions, outermost level first; it need not cover
    /// the whole schema, but for the worst-case-optimal executor it always
    /// does (every attribute is eliminated somewhere).
    pub fn build(rel: Arc<Relation>, key_pos: Vec<usize>) -> Self {
        let cols = rel.columns();
        let keys: Vec<&Column> = key_pos.iter().map(|&p| &cols[p]).collect();
        let perm = sorted_permutation(&keys, rel.len());
        let levels = keys.iter().map(|c| c.gather(&perm)).collect();
        TrieIndex {
            rel,
            key_pos: key_pos.into(),
            levels,
        }
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

    /// The attribute sorted at `level`.
    pub(super) fn level_attr(&self, level: usize) -> AttrId {
        self.rel.schema().attrs()[self.key_pos[level]]
    }

    /// The level columns in trie order, outermost first.
    pub(super) fn levels(&self) -> &[Column] {
        &self.levels
    }

    /// Heap bytes of the permuted level columns themselves (excluding the
    /// pinned relation and shared dictionary pools): the allocation a cache
    /// hit avoids re-sorting.
    pub fn heap_bytes(&self) -> usize {
        self.levels.iter().map(Column::payload_bytes).sum()
    }

    /// Resident bytes — the level columns plus the pinned relation's
    /// payload, mirroring [`super::JoinIndex::resident_bytes`] so the two
    /// index kinds share one cache byte budget. Dictionary pools are shared
    /// with the relation and counted on its side.
    pub fn resident_bytes(&self) -> usize {
        self.heap_bytes() + self.rel.resident_col_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::relation::Row;
    use crate::relation_of_ints;
    use crate::schema::Schema;
    use crate::value::Value;
    use std::cmp::Ordering;

    fn trie_of(rel: &Relation, key_pos: Vec<usize>) -> TrieIndex {
        TrieIndex::build(Arc::new(rel.clone()), key_pos)
    }

    /// The trie's tuples in trie order, one `Vec<Value>` per row.
    fn rows_of(t: &TrieIndex) -> Vec<Vec<Value>> {
        (0..t.tuples())
            .map(|i| t.levels.iter().map(|c| c.value(i)).collect())
            .collect()
    }

    #[test]
    fn levels_sorted_lexicographically() {
        let mut c = Catalog::new();
        let r =
            relation_of_ints(&mut c, "AB", &[&[2, 1], &[1, 9], &[1, 3], &[2, 0], &[0, 5]]).unwrap();
        let got = rows_of(&trie_of(&r, vec![0, 1]));
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(got[0], [Value::Int(0), Value::Int(5)]);
    }

    #[test]
    fn reversed_key_order_sorts_by_inner_column_first() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[2, 1], &[1, 9], &[3, 1]]).unwrap();
        let t = trie_of(&r, vec![1, 0]);
        // Outer level is column B.
        assert_eq!(t.level_attr(0), r.schema().attrs()[1]);
        let ints = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
        assert_eq!(rows_of(&t), [ints(1, 2), ints(1, 3), ints(9, 1)]);
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
        let got: Vec<Value> = rows_of(&trie_of(&r, vec![0]))
            .into_iter()
            .flatten()
            .collect();
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

    /// The order the comparator-based build produced: rows compared level
    /// by level under [`Column::cells_cmp`].
    fn assert_comparator_order(rel: &Relation, key_pos: Vec<usize>) {
        let t = trie_of(rel, key_pos.clone());
        for i in 1..t.tuples() {
            let ord = t
                .levels
                .iter()
                .map(|c| c.cells_cmp(i - 1, c, i))
                .find(|o| o.is_ne());
            assert_ne!(ord, Some(Ordering::Greater), "rows {} and {i}", i - 1);
        }
        let mut got = rows_of(&t);
        let mut want: Vec<Vec<Value>> = rel
            .rows()
            .iter()
            .map(|r| key_pos.iter().map(|&p| r[p].clone()).collect())
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "same multiset of rows");
    }

    /// Packed order keys sort exactly as the per-comparison column walk
    /// did, on integer, string and mixed int/string columns — with pool
    /// codes deliberately *not* in value order — and when the keys outgrow
    /// the packed word.
    #[test]
    fn packed_key_order_equals_comparator_order() {
        let mut c = Catalog::new();
        let abc = Schema::from_chars(&mut c, "ABC");
        // Strings interned in descending order: code order is the reverse
        // of value order. Column C mixes ints and strings.
        let rows: Vec<Row> = (0..60i64)
            .map(|i| {
                let mixed = if i % 3 == 0 {
                    Value::Int(i % 7 - 3)
                } else {
                    Value::str(format!("m{}", (i * 5) % 11))
                };
                vec![
                    Value::Int((i * 7) % 5 - 2),
                    Value::str(format!("s{:02}", 59 - (i % 13))),
                    mixed,
                ]
                .into()
            })
            .collect();
        let r = Relation::from_rows(abc, rows).unwrap();
        for key_pos in [vec![0], vec![1], vec![2], vec![1, 0], vec![2, 1, 0]] {
            assert_comparator_order(&r, key_pos);
        }

        // Two full-range integer levels fill the packed word; the third
        // level is ordered by the tie-refinement pass.
        let wide = Schema::from_chars(&mut c, "DEF");
        let rows: Vec<Row> = (0..40i64)
            .map(|i| {
                vec![
                    Value::Int([i64::MIN, 0, i64::MAX][(i % 3) as usize]),
                    Value::Int([i64::MAX, i64::MIN][(i % 2) as usize]),
                    Value::str(format!("w{}", 39 - i)),
                ]
                .into()
            })
            .collect();
        let r = Relation::from_rows(wide, rows).unwrap();
        assert_comparator_order(&r, vec![0, 1, 2]);
    }

    /// Two key columns sharing one pool, each using part of it, both sort
    /// by value.
    #[test]
    fn key_columns_sharing_a_pool_sort_by_value() {
        let mut c = Catalog::new();
        let a = Schema::from_chars(&mut c, "A");
        let rows: Vec<Row> = ["q", "c", "x", "a"]
            .iter()
            .map(|s| vec![Value::str(s)].into())
            .collect();
        let base = Relation::from_rows(a, rows).unwrap();
        // Two columns gathered from one interned column share its pool.
        let col = &base.columns()[0];
        let ab = Schema::from_chars(&mut c, "AB");
        let r = Relation::from_distinct_columns(
            ab,
            3,
            vec![col.gather(&[0, 0, 1]), col.gather(&[2, 3, 0])],
        );
        assert_comparator_order(&r, vec![0, 1]);
        let strs = |a: &str, b: &str| vec![Value::str(a), Value::str(b)];
        assert_eq!(
            rows_of(&trie_of(&r, vec![0, 1])),
            [strs("c", "q"), strs("q", "a"), strs("q", "x")]
        );
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
        assert_eq!(t.heap_bytes(), 2 * 2, "two permuted levels of u8 cells");
        assert!(t.resident_bytes() >= t.heap_bytes());
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
