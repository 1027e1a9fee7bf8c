//! Column-major storage: per-attribute value vectors with dictionary
//! interning.
//!
//! A [`crate::Relation`] physically stores one [`Column`] per attribute.
//! All-integer attributes get a dense `i64` vector; anything else is
//! dictionary-encoded as `u32` codes over an [`Arc<Dict>`] value pool, with
//! the pool carrying a precomputed [`Value::stable_hash`] per entry so the
//! kernels hash an occurrence by *lookup*, never by re-hashing string bytes.
//!
//! The payload vectors are `Arc`-shared: cloning a column (or a whole
//! relation) is a reference-count bump, and a gather of a dictionary column
//! copies only the `u32` codes — the pool is shared with the source. That is
//! what makes late materialization cheap: join/semijoin/project kernels work
//! in terms of row-index selection vectors and only [`Column::gather`] the
//! columns the output actually keeps.
//!
//! A payload keeps the `Vec` it was built in (`Arc<Vec<_>>`, which derefs to
//! a slice): [`ColumnBuilder::finish`], [`Column::gather`] and
//! [`Column::concat_gathered`] wrap the vector they filled rather than copy
//! it into a fresh allocation, so each cell is written once. Writing memory
//! for the first time costs several times what rewriting it does (DESIGN.md
//! has the measurement), and every loaded, joined and spilled column is
//! new memory.

use crate::fxhash::FxHashMap;
use crate::value::Value;
use std::sync::Arc;

/// A dictionary: the distinct values of one (or more) interned columns, with
/// a precomputed [`Value::stable_hash`] per entry.
#[derive(Debug, Default)]
pub struct Dict {
    values: Vec<Value>,
    hashes: Vec<u64>,
}

impl Dict {
    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value behind `code`.
    #[inline]
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// The precomputed [`Value::stable_hash`] of the value behind `code`.
    #[inline]
    pub fn hash(&self, code: u32) -> u64 {
        self.hashes[code as usize]
    }

    /// Heap bytes held by the pool: the entry vectors plus string payloads.
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<Value>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self
                .values
                .iter()
                .map(|v| match v {
                    Value::Int(_) => 0,
                    Value::Str(s) => s.len(),
                })
                .sum::<usize>()
    }
}

/// One attribute's values for every row of a relation, column-major.
#[derive(Debug, Clone)]
pub enum Column {
    /// A dense integer column: every row's value is `Value::Int`.
    Int(Arc<Vec<i64>>),
    /// A dictionary-interned column: `codes[row]` indexes into `dict`.
    /// Used whenever any value is a string (mixed columns stay correct —
    /// the pool holds [`Value`]s, not bare strings).
    Dict {
        /// Per-row dictionary codes.
        codes: Arc<Vec<u32>>,
        /// The shared value pool the codes index into.
        dict: Arc<Dict>,
    },
}

impl Column {
    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this column is dictionary-interned.
    pub fn is_interned(&self) -> bool {
        matches!(self, Column::Dict { .. })
    }

    /// The value at `row` (an `Arc` bump for interned strings, never a
    /// string copy).
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Dict { codes, dict } => dict.value(codes[row]).clone(),
        }
    }

    /// The [`Value::stable_hash`] of the cell at `row`. Interned cells are a
    /// table lookup; integer cells hash the word directly.
    #[inline]
    pub fn cell_hash(&self, row: usize) -> u64 {
        match self {
            Column::Int(v) => Value::Int(v[row]).stable_hash(),
            Column::Dict { codes, dict } => dict.hash(codes[row]),
        }
    }

    /// Fold this column's cell hashes into per-row accumulators with `mix`
    /// (one batch pass, the columnar replacement for per-row key hashing).
    /// `acc.len()` must equal `self.len()`.
    pub(crate) fn hash_into(&self, acc: &mut [u64], mix: impl Fn(u64, u64) -> u64) {
        match self {
            Column::Int(v) => {
                for (a, &x) in acc.iter_mut().zip(v.iter()) {
                    *a = mix(*a, Value::Int(x).stable_hash());
                }
            }
            Column::Dict { codes, dict } => {
                for (a, &c) in acc.iter_mut().zip(codes.iter()) {
                    *a = mix(*a, dict.hash(c));
                }
            }
        }
    }

    /// Whether cell `i` of `self` equals cell `j` of `other`, across
    /// possibly different relations (and dictionaries).
    #[inline]
    pub fn cells_eq(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[i] == b[j],
            (
                Column::Dict {
                    codes: ca,
                    dict: da,
                },
                Column::Dict {
                    codes: cb,
                    dict: db,
                },
            ) => {
                if Arc::ptr_eq(da, db) {
                    ca[i] == cb[j]
                } else {
                    let (x, y) = (ca[i], cb[j]);
                    da.hash(x) == db.hash(y) && da.value(x) == db.value(y)
                }
            }
            (Column::Int(a), Column::Dict { codes, dict }) => {
                dict.value(codes[j]).as_int() == Some(a[i])
            }
            (Column::Dict { codes, dict }, Column::Int(b)) => {
                dict.value(codes[i]).as_int() == Some(b[j])
            }
        }
    }

    /// Whether cell `row` equals a free-standing [`Value`].
    #[inline]
    pub fn cell_eq_value(&self, row: usize, v: &Value) -> bool {
        match self {
            Column::Int(a) => v.as_int() == Some(a[row]),
            Column::Dict { codes, dict } => dict.value(codes[row]) == v,
        }
    }

    /// Compare cell `i` of `self` with cell `j` of `other` under the global
    /// [`Value`] ordering (ints before strings). Used by canonical-order
    /// sorting; codes are never compared directly (they are not ordered).
    pub fn cells_cmp(&self, i: usize, other: &Column, j: usize) -> std::cmp::Ordering {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[i].cmp(&b[j]),
            (
                Column::Dict {
                    codes: ca,
                    dict: da,
                },
                Column::Dict {
                    codes: cb,
                    dict: db,
                },
            ) => da.value(ca[i]).cmp(db.value(cb[j])),
            (Column::Int(a), Column::Dict { codes, dict }) => {
                Value::Int(a[i]).cmp(dict.value(codes[j]))
            }
            (Column::Dict { codes, dict }, Column::Int(b)) => {
                dict.value(codes[i]).cmp(&Value::Int(b[j]))
            }
        }
    }

    /// Gather the rows in `sel` into a new column. Integer payloads are
    /// copied; interned columns copy only codes and share the pool.
    pub fn gather(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(Arc::new(sel.iter().map(|&i| v[i as usize]).collect())),
            Column::Dict { codes, dict } => Column::Dict {
                codes: Arc::new(sel.iter().map(|&i| codes[i as usize]).collect()),
                dict: Arc::clone(dict),
            },
        }
    }

    /// Concatenate gathers from several `(column, selection)` parts into one
    /// column — the merge step of partitioned kernels and the set
    /// operations. Fast paths: all-integer parts concatenate payloads, and
    /// interned parts sharing one pool concatenate codes; mixed or
    /// differently-pooled parts re-intern through a [`ColumnBuilder`].
    pub fn concat_gathered(parts: &[(&Column, &[u32])]) -> Column {
        let total: usize = parts.iter().map(|(_, sel)| sel.len()).sum();
        if parts.iter().all(|(c, _)| matches!(c, Column::Int(_))) {
            let mut out: Vec<i64> = Vec::with_capacity(total);
            for (c, sel) in parts {
                let Column::Int(v) = c else { unreachable!() };
                out.extend(sel.iter().map(|&i| v[i as usize]));
            }
            return Column::Int(Arc::new(out));
        }
        let shared_dict = parts.iter().find_map(|(c, _)| match c {
            Column::Dict { dict, .. } => Some(Arc::clone(dict)),
            Column::Int(_) => None,
        });
        if let Some(dict) = shared_dict {
            let all_share = parts.iter().all(|(c, sel)| match c {
                Column::Dict { dict: d, .. } => Arc::ptr_eq(d, &dict),
                // An empty integer part (e.g. an empty relation's
                // placeholder column) contributes nothing.
                Column::Int(_) => sel.is_empty(),
            });
            if all_share {
                let mut codes: Vec<u32> = Vec::with_capacity(total);
                for (c, sel) in parts {
                    if let Column::Dict { codes: cs, .. } = c {
                        codes.extend(sel.iter().map(|&i| cs[i as usize]));
                    }
                }
                return Column::Dict {
                    codes: Arc::new(codes),
                    dict,
                };
            }
        }
        let mut b = ColumnBuilder::with_capacity(total);
        for (c, sel) in parts {
            b.extend_gathered(c, sel);
        }
        b.finish()
    }

    /// Heap bytes of the payload vectors, *excluding* the shared pool
    /// ([`Dict::heap_bytes`] accounts that separately — callers decide how
    /// to attribute a pool shared by many columns).
    pub fn payload_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * std::mem::size_of::<i64>(),
            Column::Dict { codes, .. } => codes.len() * std::mem::size_of::<u32>(),
        }
    }

    /// The shared pool, if this column is interned.
    pub fn dict(&self) -> Option<&Arc<Dict>> {
        match self {
            Column::Dict { dict, .. } => Some(dict),
            Column::Int(_) => None,
        }
    }
}

/// Builds one [`Column`] value-by-value, staying dense-integer as long as
/// every value is an `Int` and switching to dictionary interning on the
/// first string.
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    ints: Vec<i64>,
    interned: Option<DictBuilder>,
}

#[derive(Debug, Default)]
struct DictBuilder {
    codes: Vec<u32>,
    /// Code of each interned integer / string. Two maps rather than one
    /// keyed by [`Value`], so a string is looked up by `&str` and a repeated
    /// one allocates nothing.
    ints: FxHashMap<i64, u32>,
    strs: FxHashMap<Arc<str>, u32>,
    values: Vec<Value>,
    hashes: Vec<u64>,
}

impl DictBuilder {
    fn add(&mut self, v: Value) -> u32 {
        let c = u32::try_from(self.values.len()).expect("dictionary exceeds u32 codes");
        self.hashes.push(v.stable_hash());
        self.values.push(v);
        c
    }

    fn push_int(&mut self, x: i64) {
        let c = match self.ints.get(&x) {
            Some(&c) => c,
            None => {
                let c = self.add(Value::Int(x));
                self.ints.insert(x, c);
                c
            }
        };
        self.codes.push(c);
    }

    /// Intern `s`, allocating (via `make`) only on its first occurrence.
    fn push_str(&mut self, s: &str, make: impl FnOnce() -> Arc<str>) {
        let c = match self.strs.get(s) {
            Some(&c) => c,
            None => {
                let s = make();
                let c = self.add(Value::Str(Arc::clone(&s)));
                self.strs.insert(s, c);
                c
            }
        };
        self.codes.push(c);
    }
}

impl ColumnBuilder {
    /// A builder expecting about `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        ColumnBuilder {
            ints: Vec::with_capacity(n),
            interned: None,
        }
    }

    /// Append one value.
    pub fn push(&mut self, v: Value) {
        match v {
            Value::Int(x) => self.push_int(x),
            Value::Str(s) => self.interner().push_str(&s, || Arc::clone(&s)),
        }
    }

    /// Append an integer.
    pub fn push_int(&mut self, x: i64) {
        match &mut self.interned {
            None => self.ints.push(x),
            Some(d) => d.push_int(x),
        }
    }

    /// Append a string, interning by `&str` lookup: only the first
    /// occurrence of a string allocates.
    pub fn push_str(&mut self, s: &str) {
        self.interner().push_str(s, || Arc::from(s));
    }

    /// The dictionary builder, switching to interning on first use by
    /// re-encoding the integer prefix.
    fn interner(&mut self) -> &mut DictBuilder {
        let ints = &mut self.ints;
        self.interned.get_or_insert_with(|| {
            let mut d = DictBuilder::default();
            d.codes.reserve(ints.len() + 1);
            for x in std::mem::take(ints) {
                d.push_int(x);
            }
            d
        })
    }

    /// Append cell `row` of `col` (avoids constructing a [`Value`] for
    /// integer-to-integer copies).
    pub fn push_cell(&mut self, col: &Column, row: usize) {
        match col {
            Column::Int(v) => self.push_int(v[row]),
            Column::Dict { .. } => self.push(col.value(row)),
        }
    }

    /// Append the cells of `col` at the rows in `sel`, in order: a
    /// gather into this builder. Integer cells extend the dense vector in
    /// one pass while it lasts; interned cells are re-interned by value, so
    /// `col` may carry any pool.
    pub(crate) fn extend_gathered(&mut self, col: &Column, sel: &[u32]) {
        match (col, &mut self.interned) {
            (Column::Int(v), None) => self.ints.extend(sel.iter().map(|&i| v[i as usize])),
            _ => {
                for &i in sel {
                    self.push_cell(col, i as usize);
                }
            }
        }
    }

    /// Finish into a column.
    pub fn finish(self) -> Column {
        match self.interned {
            None => Column::Int(Arc::new(self.ints)),
            Some(d) => Column::Dict {
                codes: Arc::new(d.codes),
                dict: Arc::new(Dict {
                    values: d.values,
                    hashes: d.hashes,
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Column {
        let mut b = ColumnBuilder::with_capacity(vals.len());
        for &v in vals {
            b.push(Value::Int(v));
        }
        b.finish()
    }

    fn mixed(vals: &[Value]) -> Column {
        let mut b = ColumnBuilder::with_capacity(vals.len());
        for v in vals {
            b.push(v.clone());
        }
        b.finish()
    }

    #[test]
    fn all_int_stays_dense() {
        let c = ints(&[1, 2, 1]);
        assert!(!c.is_interned());
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(2), Value::Int(1));
    }

    #[test]
    fn string_triggers_interning_and_reencodes_prefix() {
        let c = mixed(&[Value::Int(7), Value::str("x"), Value::Int(7)]);
        assert!(c.is_interned());
        assert_eq!(c.value(0), Value::Int(7));
        assert_eq!(c.value(1), Value::str("x"));
        // Both Int(7) occurrences share one code.
        if let Column::Dict { codes, dict } = &c {
            assert_eq!(codes[0], codes[2]);
            assert_eq!(dict.len(), 2);
        }
    }

    /// `push_int`/`push_str` build what `push(Value)` builds — same codes,
    /// same pool — including the prefix re-encode on the first string.
    #[test]
    fn typed_pushes_match_value_pushes() {
        let (mut typed, mut boxed) = (ColumnBuilder::default(), ColumnBuilder::default());
        for (i, s) in [None, None, Some("x"), None, Some("y"), Some("x"), Some("")]
            .iter()
            .enumerate()
        {
            let n = (i % 2) as i64;
            match s {
                None => typed.push_int(n),
                Some(s) => typed.push_str(s),
            }
            boxed.push(s.map_or(Value::Int(n), Value::str));
        }
        let (typed, boxed) = (typed.finish(), boxed.finish());
        let (
            Column::Dict {
                codes: tc,
                dict: td,
            },
            Column::Dict {
                codes: bc,
                dict: bd,
            },
        ) = (&typed, &boxed)
        else {
            panic!("both interned");
        };
        assert_eq!(tc, bc);
        assert_eq!(td.values, bd.values);
        assert_eq!(td.hashes, bd.hashes);
        assert_eq!(td.len(), 5, "Int(0), Int(1), x, y and the empty string");
    }

    #[test]
    fn cell_hash_matches_stable_hash() {
        let c = mixed(&[Value::Int(5), Value::str("five")]);
        assert_eq!(c.cell_hash(0), Value::Int(5).stable_hash());
        assert_eq!(c.cell_hash(1), Value::str("five").stable_hash());
    }

    #[test]
    fn cross_dict_equality() {
        let a = mixed(&[Value::str("a"), Value::str("b")]);
        let b = mixed(&[Value::str("b")]);
        assert!(a.cells_eq(1, &b, 0));
        assert!(!a.cells_eq(0, &b, 0));
        let i = ints(&[3]);
        let d = mixed(&[Value::Int(3), Value::str("3")]);
        assert!(i.cells_eq(0, &d, 0));
        assert!(!i.cells_eq(0, &d, 1), "Int(3) ≠ Str(\"3\")");
    }

    #[test]
    fn gather_shares_dict() {
        let c = mixed(&[Value::str("a"), Value::str("b"), Value::str("a")]);
        let g = c.gather(&[2, 0]);
        assert_eq!(g.value(0), Value::str("a"));
        let (Some(d1), Some(d2)) = (c.dict(), g.dict()) else {
            panic!("interned");
        };
        assert!(Arc::ptr_eq(d1, d2), "gather must share the pool");
    }

    #[test]
    fn concat_fast_paths_and_fallback() {
        let a = ints(&[1, 2]);
        let b = ints(&[3]);
        let c = Column::concat_gathered(&[(&a, &[0, 1]), (&b, &[0])]);
        assert!(!c.is_interned());
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(2), Value::Int(3));

        let d = mixed(&[Value::str("x")]);
        let e = d.gather(&[0]);
        let f = Column::concat_gathered(&[(&d, &[0]), (&e, &[0])]);
        assert!(Arc::ptr_eq(f.dict().unwrap(), d.dict().unwrap()));

        // Different pools force the re-interning fallback.
        let g = mixed(&[Value::str("y")]);
        let h = Column::concat_gathered(&[(&d, &[0]), (&g, &[0])]);
        assert_eq!(h.value(0), Value::str("x"));
        assert_eq!(h.value(1), Value::str("y"));
    }

    /// `finish` wraps the builder's own vectors: the payload sits at the
    /// address the cells were written to, for a dense and an interned
    /// column alike.
    #[test]
    fn finish_keeps_the_filled_buffer() {
        let mut dense = ColumnBuilder::with_capacity(3);
        [4, -1, 4].into_iter().for_each(|x| dense.push_int(x));
        let filled = dense.ints.as_ptr();
        let Column::Int(v) = dense.finish() else {
            panic!("dense");
        };
        assert_eq!(v.as_ptr(), filled);

        let mut interned = ColumnBuilder::default();
        interned.push_int(4);
        interned.push_str("x");
        interned.push_int(4);
        let filled = interned.interned.as_ref().unwrap().codes.as_ptr();
        let Column::Dict { codes, .. } = interned.finish() else {
            panic!("interned");
        };
        assert_eq!(codes.as_ptr(), filled);
        assert_eq!(*codes, [0, 1, 0]);
    }

    /// Concatenating over one shared pool keeps the codes vector it sized
    /// to the total and filled: the payload is that vector, uniquely owned
    /// and never regrown or copied out, and it shares the parts' pool.
    #[test]
    fn concat_over_one_pool_keeps_the_filled_buffer() {
        let d = mixed(&[Value::str("x"), Value::str("y"), Value::Int(3)]);
        let e = d.gather(&[2, 2, 0]);
        let parts: [(&Column, &[u32]); 3] = [(&d, &[1, 0]), (&e, &[0, 1, 2]), (&d, &[])];
        let Column::Dict { codes, dict } = Column::concat_gathered(&parts) else {
            panic!("interned");
        };
        assert!(Arc::ptr_eq(&dict, d.dict().unwrap()));
        let at = codes.as_ptr();
        let codes = Arc::into_inner(codes).expect("uniquely owned");
        assert_eq!((codes.as_ptr(), codes.capacity()), (at, 5));
        assert_eq!(codes, [1, 0, 2, 2, 0]);

        let (a, b) = (ints(&[1, 2]), ints(&[3]));
        let Column::Int(v) = Column::concat_gathered(&[(&a, &[1, 0]), (&b, &[0])]) else {
            panic!("dense");
        };
        let v = Arc::into_inner(v).expect("uniquely owned");
        assert_eq!((v.capacity(), v), (3, vec![2, 1, 3]));
    }

    #[test]
    fn cmp_uses_value_order() {
        let i = ints(&[5]);
        let s = mixed(&[Value::str("a")]);
        assert_eq!(i.cells_cmp(0, &s, 0), std::cmp::Ordering::Less);
    }

    #[test]
    fn payload_and_dict_bytes() {
        let c = mixed(&[Value::str("hello"), Value::str("hello")]);
        assert_eq!(c.payload_bytes(), 2 * 4);
        assert!(c.dict().unwrap().heap_bytes() >= 5);
        let i = ints(&[1, 2, 3]);
        assert_eq!(i.payload_bytes(), 24);
    }
}
