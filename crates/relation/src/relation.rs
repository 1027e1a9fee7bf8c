//! Relations: set-semantics collections of tuples over a [`Schema`].
//!
//! The paper's model is pure set semantics — a relation is a set of tuples —
//! and its cost measure counts tuples. `Relation` therefore maintains the
//! invariant that rows are distinct; every constructor deduplicates.
//!
//! # Storage
//!
//! A relation has exactly one layout: **column-major**, one [`Column`] per
//! attribute (for an all-integer attribute, each cell's offset from the
//! column's minimum in the narrowest of 1, 2, 4 or 8 bytes that holds the
//! column's span; dictionary-interned `u32` codes otherwise — see
//! [`crate::column`]). Every operator kernel reads and writes columns, and
//! so does every I/O edge: the TSV loader parses straight into column
//! builders, the TSV writer sorts and prints from columns, and spill
//! partitions go to disk and come back without a tuple being boxed
//! ([`crate::tsv`]). [`Relation::from_columns`] is the one deduplicating
//! constructor; the row constructors (`from_rows`, `from_tuples`) push
//! their tuples through [`ColumnBuilder`]s into it.
//!
//! [`Relation::rows`] is a per-call copy of the tuples as boxed rows, for
//! tests and for edges that want values in hand; nothing memoizes it, so no
//! relation ever holds a second copy of its data. Cloning is cheap — O(arity),
//! not O(tuples): the payload vectors inside a `Column` are `Arc`-backed, so
//! an executor handing out per-run copies of its base relations bumps
//! reference counts instead of copying tuple data.

use crate::attr::Catalog;
use crate::column::{with_cells, Column, ColumnBuilder, IntCells};
use crate::error::{Error, Result};
use crate::fxhash::mix;
use crate::ops::columnar::dedup_ids_by_key;
use crate::schema::Schema;
use crate::span::IntSpan;
use crate::value::Value;
use std::fmt;
use std::sync::OnceLock;

/// A tuple: values aligned positionally with the owning relation's schema.
pub type Row = Box<[Value]>;

/// A set of tuples over a fixed [`Schema`].
///
/// Row order is an implementation detail (it depends on build order and hash
/// layout); equality, hashing-free comparison and display all canonicalize by
/// sorting. Use [`Relation::sorted_rows`] when deterministic order matters.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    /// Tuple count (columns cannot carry it for nullary schemas).
    nrows: usize,
    /// One column per schema position, each `nrows` long.
    cols: Vec<Column>,
    /// Lazily computed [`Relation::fingerprint`]; content is immutable after
    /// construction, so a computed value never goes stale.
    fingerprint: OnceLock<u128>,
}

/// The per-row hash of `cols`' first `nrows` tuples: the [`mix`]-fold of
/// each cell's [`Value::stable_hash`].
fn row_hashes(cols: &[Column], nrows: usize) -> Vec<u64> {
    let mut acc = vec![0u64; nrows];
    for c in cols {
        c.hash_into(&mut acc, mix);
    }
    acc
}

/// The ids of the first occurrence of each distinct tuple, in row order, or
/// `None` when every tuple is distinct; and which path found them (the
/// `path` of a load's `tsv/dedup` span).
///
/// 1. `key_column`: a column whose cells are pairwise distinct makes every
///    row distinct. A column qualifies for the proof when a bitmap over its
///    span — an integer column's stored span, or the span of its dictionary
///    codes (a pool holds each value once) — takes at most `nrows` bytes;
///    one pass over it stops at the first repeat. No key is packed and no
///    table built. A loose stored span (a gathered column's) can only make
///    the proof decline.
/// 2. `packed`: rows whose cells pack into 64 bits, each field as wide as
///    its column's span, compare as exact keys.
/// 3. `hashed`: wider rows compare by row hash, then cell by cell.
fn first_occurrences(cols: &[Column], nrows: usize) -> (Option<Vec<u32>>, &'static str) {
    let mut spans = Vec::with_capacity(cols.len());
    for col in cols {
        let span = column_span(col);
        let key = span.bitmap_bytes() <= nrows as u64
            && match col {
                Column::Int(c) => with_cells!(IntCells, c.cells(), v => {
                    span.all_distinct(v.iter().map(|&x| span.min.wrapping_add(u64::from(x) as i64)))
                }),
                Column::Dict { codes, .. } => span.all_distinct(codes.iter().map(|&c| c.into())),
            };
        if key {
            return (None, "key_column");
        }
        spans.push(span);
    }
    match packed_fields(cols, &spans) {
        Some(fields) => (packed_first_occurrences(&fields, nrows), "packed"),
        None => {
            let ids = hashed_first_occurrences(cols, nrows);
            ((ids.len() < nrows).then_some(ids), "hashed")
        }
    }
}

/// The stored span of `col`'s integer values (a bound, see
/// [`crate::column`]), or the span of its dictionary codes.
fn column_span(col: &Column) -> IntSpan {
    match col {
        Column::Int(c) => c.span(),
        Column::Dict { codes, .. } => IntSpan::of(codes),
    }
}

/// The hash path of [`first_occurrences`]: every first occurrence's id.
fn hashed_first_occurrences(cols: &[Column], nrows: usize) -> Vec<u32> {
    let all: Vec<usize> = (0..cols.len()).collect();
    dedup_ids_by_key(cols, &all, &row_hashes(cols, nrows), 0..nrows as u32)
}

/// One column's field in a row's packed key: a cell's distance from the
/// column's minimum — its stored offset for an integer cell, its code's
/// distance from the smallest code for an interned one (a pool holds each
/// value once) — shifted into place.
struct PackedField<'a> {
    col: &'a Column,
    min: i64,
    shift: u32,
}

/// The fields of `cols`' packed row keys, given each column's span, or
/// `None` when their widths sum past 64 bits. A constant column has width 0
/// and no field.
fn packed_fields<'a>(cols: &'a [Column], spans: &[IntSpan]) -> Option<Vec<PackedField<'a>>> {
    let mut fields = Vec::with_capacity(cols.len());
    let mut shift = 0u32;
    for (col, span) in cols.iter().zip(spans) {
        let width = u64::BITS - span.width.leading_zeros();
        if width > 0 {
            fields.push(PackedField {
                col,
                min: span.min,
                shift,
            });
        }
        shift += width;
        if shift > u64::BITS {
            return None;
        }
    }
    Some(fields)
}

impl PackedField<'_> {
    /// OR rows `start..start + keys.len()`' fields into their keys.
    fn pack(&self, start: usize, keys: &mut [u64]) {
        let rows = start..start + keys.len();
        let shift = self.shift;
        match self.col {
            // The field's minimum is the column's: a cell is its offset.
            Column::Int(c) => with_cells!(IntCells, c.cells(), v => {
                for (k, &x) in keys.iter_mut().zip(&v[rows]) {
                    *k |= u64::from(x) << shift;
                }
            }),
            Column::Dict { codes, .. } => {
                for (k, &c) in keys.iter_mut().zip(&codes[rows]) {
                    *k |= (i64::from(c).wrapping_sub(self.min) as u64) << shift;
                }
            }
        }
    }
}

/// The packed path of [`first_occurrences`]: keys are built a block of rows
/// at a time and looked up in a [`KeySet`], with no row hash and no table
/// entry per row; the id vector starts at the first duplicate.
fn packed_first_occurrences(fields: &[PackedField], nrows: usize) -> Option<Vec<u32>> {
    const BLOCK: usize = 1024;
    let mut seen = KeySet::with_capacity(nrows);
    let mut ids: Option<Vec<u32>> = None;
    let mut block = [0u64; BLOCK];
    for start in (0..nrows).step_by(BLOCK) {
        let keys = &mut block[..BLOCK.min(nrows - start)];
        keys.fill(0);
        for f in fields {
            f.pack(start, keys);
        }
        for (row, &k) in (start as u32..).zip(keys.iter()) {
            match (seen.insert(k), &mut ids) {
                (true, Some(ids)) => ids.push(row),
                (false, None) => ids = Some((0..row).collect()),
                _ => {}
            }
        }
    }
    ids
}

/// A set of `u64` keys: open addressing with linear probing, at most two
/// thirds full — 12 to 24 bytes per row, against the hash path's 36 and
/// more (row hash, bucket head, table entry, id). Slot value 0 means empty,
/// so a fresh table is zeroed memory that is only touched where keys land;
/// key 0 is kept beside the slots. Like every table in this crate it trusts
/// its keys not to be crafted to collide (see [`crate::fxhash`]).
struct KeySet {
    slots: Vec<u64>,
    /// `64 − log2(slots.len())`: a key's home slot is the top bits of its
    /// Fibonacci-hash product, which depend on every bit of the key.
    shift: u32,
    zero: bool,
}

impl KeySet {
    fn with_capacity(n: usize) -> Self {
        let len = (n + n / 2).next_power_of_two().max(2);
        KeySet {
            slots: vec![0; len],
            shift: u64::BITS - len.trailing_zeros(),
            zero: false,
        }
    }

    /// Insert `k`; whether it was absent.
    #[inline]
    fn insert(&mut self, k: u64) -> bool {
        if k == 0 {
            return !std::mem::replace(&mut self.zero, true);
        }
        let mask = self.slots.len() - 1;
        let mut i = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = k;
                    return true;
                }
                s if s == k => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// Push `rows` through one [`ColumnBuilder`] per attribute, checking arity.
fn columns_of(arity: usize, rows: Vec<Row>) -> Result<(usize, Vec<Column>)> {
    let nrows = rows.len();
    let mut builders: Vec<ColumnBuilder> = (0..arity)
        .map(|_| ColumnBuilder::with_capacity(nrows))
        .collect();
    for row in rows {
        if row.len() != arity {
            return Err(Error::ArityMismatch {
                expected: arity,
                got: row.len(),
            });
        }
        for (b, v) in builders.iter_mut().zip(row.into_vec()) {
            b.push(v);
        }
    }
    Ok((
        nrows,
        builders.into_iter().map(ColumnBuilder::finish).collect(),
    ))
}

impl Relation {
    /// Build from per-attribute columns, one per schema position, removing
    /// duplicate tuples (keeping each tuple's first occurrence, in order).
    /// `nrows` is explicit because a nullary schema has no columns to carry
    /// it: a nullary relation of `nrows > 0` is the single empty tuple.
    ///
    /// # Panics
    ///
    /// If `cols.len()` is not the schema's arity or a column does not have
    /// `nrows` cells.
    pub fn from_columns(schema: Schema, nrows: usize, cols: Vec<Column>) -> Self {
        Relation::from_columns_via(schema, nrows, cols).0
    }

    /// [`Relation::from_columns`], and which path its dedup took:
    /// `key_column`, `packed` or `hashed` (see [`first_occurrences`]).
    pub(crate) fn from_columns_via(
        schema: Schema,
        nrows: usize,
        cols: Vec<Column>,
    ) -> (Self, &'static str) {
        assert_eq!(cols.len(), schema.arity(), "one column per attribute");
        assert!(
            cols.iter().all(|c| c.len() == nrows),
            "every column has nrows cells"
        );
        let (ids, path) = first_occurrences(&cols, nrows);
        let Some(ids) = ids else {
            return (Relation::from_distinct_columns(schema, nrows, cols), path);
        };
        let cols = cols.iter().map(|c| c.gather(&ids)).collect();
        (
            Relation::from_distinct_columns(schema, ids.len(), cols),
            path,
        )
    }

    /// The empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        let cols = (0..schema.arity())
            .map(|_| ColumnBuilder::default().finish())
            .collect();
        Relation::from_columns(schema, 0, cols)
    }

    /// The relation over the empty schema containing the single nullary
    /// tuple. It is the identity of natural join.
    pub fn nullary_unit() -> Self {
        Relation::from_columns(Schema::empty(), 1, Vec::new())
    }

    /// Build from rows, checking arity and removing duplicates (keeping each
    /// row's first occurrence, in order).
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let (nrows, cols) = columns_of(schema.arity(), rows)?;
        Ok(Relation::from_columns(schema, nrows, cols))
    }

    /// Build from `Vec<Vec<Value>>` tuples (convenience for tests/examples).
    pub fn from_tuples(schema: Schema, tuples: Vec<Vec<Value>>) -> Result<Self> {
        Self::from_rows(schema, tuples.into_iter().map(Into::into).collect())
    }

    /// Build from rows that are already known to be distinct and of the right
    /// arity, without re-paying deduplication (`merge_join`, the kernels'
    /// test reference, produces its output this way).
    ///
    /// Debug builds verify distinctness; release builds trust the caller.
    pub fn from_distinct_rows(schema: Schema, rows: Vec<Row>) -> Self {
        let (nrows, cols) = columns_of(schema.arity(), rows).expect("rows match the schema");
        Relation::from_distinct_columns(schema, nrows, cols)
    }

    /// Build from per-attribute columns whose tuples are already distinct.
    /// This is how the batch kernels construct output.
    ///
    /// Debug builds verify arity, lengths, and distinctness.
    pub(crate) fn from_distinct_columns(schema: Schema, nrows: usize, cols: Vec<Column>) -> Self {
        debug_assert_eq!(cols.len(), schema.arity());
        debug_assert!(cols.iter().all(|c| c.len() == nrows));
        debug_assert!(
            first_occurrences(&cols, nrows).0.is_none(),
            "rows must be distinct"
        );
        Relation {
            schema,
            nrows,
            cols,
            fingerprint: OnceLock::new(),
        }
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples — `|R|` in the paper's cost model.
    #[inline]
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// The columns: one [`Column`] per schema position.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// A fresh copy of the tuples as boxed rows, in storage order. Built from
    /// the columns on every call — for tests and I/O edges, not kernels.
    pub fn rows(&self) -> Vec<Row> {
        (0..self.nrows)
            .map(|i| self.cols.iter().map(|c| c.value(i)).collect())
            .collect()
    }

    /// Membership test (linear scan; intended for tests and small relations).
    pub fn contains_row(&self, row: &[Value]) -> bool {
        row.len() == self.schema.arity()
            && (0..self.nrows).any(|i| {
                self.cols
                    .iter()
                    .zip(row.iter())
                    .all(|(c, v)| c.cell_eq_value(i, v))
            })
    }

    /// The rows sorted into canonical order (for deterministic output).
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut rows = self.rows();
        rows.sort_unstable();
        rows
    }

    /// Resident heap bytes of the columnar payloads: per-column code/value
    /// vectors plus each distinct dictionary pool counted once (columns of
    /// one relation frequently share a pool after joins/projections).
    pub fn resident_col_bytes(&self) -> usize {
        let mut total = 0usize;
        let mut seen: Vec<*const ()> = Vec::new();
        for c in &self.cols {
            total += c.payload_bytes();
            if let Some(d) = c.dict() {
                let p = std::sync::Arc::as_ptr(d).cast::<()>();
                if !seen.contains(&p) {
                    seen.push(p);
                    total += d.heap_bytes();
                }
            }
        }
        total
    }

    /// Render as an aligned table using `catalog` for the header.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> RelationDisplay<'a> {
        RelationDisplay { rel: self, catalog }
    }

    /// A cheap structural fingerprint of the relation's *content*: the tuple
    /// count combined with the xor and wrapping sum of the per-row hashes.
    /// Row-order independent, so two relations holding the same set of
    /// tuples — e.g. an original and its TSV round-trip reload — fingerprint
    /// identically even though they are distinct allocations. Per-row hashes
    /// fold [`Value::stable_hash`]es (a table lookup per interned cell), so
    /// an integer and an interned column holding the same values hash alike.
    ///
    /// Computed lazily on first call and memoized (content is immutable);
    /// the rows a computation hashes count as `relation.fingerprint_rows`.
    /// This is a hash, not a proof of equality: collisions are possible,
    /// so callers deciding anything semantic should also compare schemas
    /// and accept the residual hash-collision risk (the join-index cache
    /// does, trading it for cross-`Arc` reuse).
    pub fn fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| {
            mjoin_trace::add("relation.fingerprint_rows", self.nrows as u64);
            let (mut xor, mut sum) = (0u64, self.nrows as u64);
            for h in row_hashes(&self.cols, self.nrows) {
                xor ^= h;
                sum = sum.wrapping_add(h);
            }
            (u128::from(xor) << 64) | u128::from(sum)
        })
    }

    /// [`Relation::fingerprint`] if it has been computed already (on this
    /// relation or on the one it was cloned from), without computing it.
    pub fn memoized_fingerprint(&self) -> Option<u128> {
        self.fingerprint.get().copied()
    }
}

/// Set equality: same schema and the same set of rows, regardless of order.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.nrows == other.nrows
            && self.sorted_rows() == other.sorted_rows()
    }
}

impl Eq for Relation {}

/// Helper returned by [`Relation::display`].
pub struct RelationDisplay<'a> {
    rel: &'a Relation,
    catalog: &'a Catalog,
}

impl fmt::Display for RelationDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header: Vec<String> = self
            .rel
            .schema
            .attrs()
            .iter()
            .map(|&a| self.catalog.name(a).to_string())
            .collect();
        let rows = self.rel.sorted_rows();
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.iter().map(std::string::ToString::to_string).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:w$} |")?;
            }
            writeln!(f)
        };
        line(f, &header)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &rendered {
            line(f, row)?;
        }
        write!(f, "({} tuples)", self.rel.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;

    fn schema_ab() -> (Catalog, Schema) {
        let mut c = Catalog::new();
        let s = Schema::from_chars(&mut c, "AB");
        (c, s)
    }

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn from_rows_dedups() {
        let (_c, s) = schema_ab();
        let r = Relation::from_rows(s, vec![row(&[1, 2]), row(&[1, 2]), row(&[3, 4])]).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains_row(&[Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn arity_checked() {
        let (_c, s) = schema_ab();
        let err = Relation::from_rows(s, vec![row(&[1])]).unwrap_err();
        assert_eq!(
            err,
            Error::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn set_equality_ignores_order() {
        let (_c, s) = schema_ab();
        let r1 = Relation::from_rows(s.clone(), vec![row(&[1, 2]), row(&[3, 4])]).unwrap();
        let r2 = Relation::from_rows(s, vec![row(&[3, 4]), row(&[1, 2])]).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn inequality_on_rows_and_schema() {
        let (_c, s) = schema_ab();
        let r1 = Relation::from_rows(s.clone(), vec![row(&[1, 2])]).unwrap();
        let r2 = Relation::from_rows(s.clone(), vec![row(&[1, 3])]).unwrap();
        assert_ne!(r1, r2);
        let mut c2 = Catalog::new();
        let other_schema = Schema::from_chars(&mut c2, "AC");
        // Same ids can exist in another catalog, so compare within one.
        let _ = other_schema;
        assert_ne!(r1, Relation::empty(s));
    }

    #[test]
    fn nullary_unit() {
        let u = Relation::nullary_unit();
        assert_eq!(u.len(), 1);
        assert_eq!(u.schema().arity(), 0);
        assert!(u.contains_row(&[]));
    }

    #[test]
    fn fingerprint_is_order_independent_and_content_sensitive() {
        let (_c, s) = schema_ab();
        let r1 = Relation::from_rows(s.clone(), vec![row(&[1, 2]), row(&[3, 4])]).unwrap();
        let r2 = Relation::from_rows(s.clone(), vec![row(&[3, 4]), row(&[1, 2])]).unwrap();
        assert_eq!(r1.fingerprint(), r2.fingerprint(), "order-independent");
        assert_eq!(r1.fingerprint(), r1.fingerprint(), "memoized value stable");
        let r3 = Relation::from_rows(s.clone(), vec![row(&[1, 2])]).unwrap();
        assert_ne!(r1.fingerprint(), r3.fingerprint());
        assert_ne!(
            Relation::empty(s).fingerprint(),
            Relation::nullary_unit().fingerprint(),
            "empty vs nullary unit differ by the length term"
        );
    }

    #[test]
    fn fingerprint_folds_the_stable_row_hashes() {
        let (_c, s) = schema_ab();
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::str("x")].into(),
            vec![Value::Int(2), Value::str("y")].into(),
        ];
        let r = Relation::from_rows(s, rows.clone()).unwrap();
        let hashes: Vec<u64> = rows
            .iter()
            .map(|row| row.iter().fold(0, |acc, v| mix(acc, v.stable_hash())))
            .collect();
        let xor = hashes.iter().fold(0, |a, h| a ^ h);
        let sum = hashes.iter().fold(2u64, |a, &h| a.wrapping_add(h));
        assert_eq!(r.fingerprint(), (u128::from(xor) << 64) | u128::from(sum));
    }

    #[test]
    fn rows_read_back_the_columns() {
        let (_c, s) = schema_ab();
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::str("a")].into(),
            vec![Value::Int(2), Value::str("b")].into(),
        ];
        let r = Relation::from_rows(s.clone(), rows.clone()).unwrap();
        let cols = r.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1].value(1), Value::str("b"));
        let r2 = Relation::from_columns(s, r.len(), cols.to_vec());
        assert_eq!(r2.rows(), rows);
        assert!(r2.contains_row(&[Value::Int(1), Value::str("a")]));
        assert!(!r2.contains_row(&[Value::Int(1), Value::str("b")]));
        assert_eq!(r, r2);
    }

    /// Rows of up to 64 packed bits take the packed path, wider ones the
    /// hash path, and both keep the same first occurrences.
    #[test]
    fn packed_path_up_to_64_bits_agrees_with_the_hash_path() {
        let ints = |vals: &[i64]| {
            let mut b = ColumnBuilder::default();
            vals.iter().for_each(|&x| b.push_int(x));
            b.finish()
        };
        let ends = [i64::MIN, i64::MAX, i64::MIN, 0, i64::MAX, 0];
        let wide = ints(&ends);
        let narrow = ints(&[0, 1 << 61, 0, 5, (1 << 62) - 1, 5]);
        let bit = ints(&[0, 1, 0, 1, 1, 0]);
        let constant = ints(&[9; 6]);
        let interned = {
            let mut b = ColumnBuilder::default();
            ["x", "y", "x", "y", "y", "x"]
                .iter()
                .for_each(|s| b.push_str(s));
            b.finish()
        };
        // Codes 6 and 7 of a larger pool: a 1-bit field once offset by the
        // smallest code, so the field above it starts at bit 1.
        let pool = {
            let mut b = ColumnBuilder::default();
            (0..8).for_each(|i| b.push_str(&format!("p{i}")));
            b.finish()
        };
        let high_codes = pool.gather(&[6, 7, 6, 7, 6, 6]);
        let below = ints(&[0, 0, 1, 1, 0, 1]);
        for (cols, packed) in [
            (vec![wide.clone(), constant.clone()], true),
            (vec![narrow.clone(), bit.clone()], true),
            (vec![narrow.clone(), interned.clone(), constant], true),
            (vec![high_codes, below], true),
            (vec![wide.clone(), bit], false),
            (vec![wide, interned], false),
        ] {
            let spans: Vec<IntSpan> = cols.iter().map(column_span).collect();
            let fields = packed_fields(&cols, &spans);
            assert_eq!(fields.is_some(), packed, "packed path taken");
            let want = hashed_first_occurrences(&cols, 6);
            let got = first_occurrences(&cols, 6)
                .0
                .unwrap_or_else(|| (0..6).collect());
            assert_eq!(got, want);
            if let Some(fields) = fields {
                assert_eq!(packed_first_occurrences(&fields, 6), Some(want));
            }
        }
    }

    #[test]
    fn a_proven_key_column_skips_the_dedup() {
        let ints = crate::column::tests::ints;
        let strs = |v: &[&str]| {
            let mut b = ColumnBuilder::default();
            v.iter().for_each(|s| b.push_str(s));
            b.finish()
        };
        let wide = ints(&[i64::MIN, i64::MAX, 0, 1, 5, 6, 7, i64::MIN]);
        let repeats = ints(&[1, 1, 2, 2, 3, 3, 4, 4]);
        for (cols, path, distinct) in [
            // Spans of 7 and 63 over 8 rows: bitmaps of 1 and 8 bytes.
            (
                vec![ints(&[7, 6, 5, 4, 3, 2, 1, 0]), repeats.clone()],
                "key_column",
                8,
            ),
            (
                vec![repeats.clone(), ints(&[0, 9, 18, 27, 36, 45, 54, 63])],
                "key_column",
                8,
            ),
            (
                vec![
                    strs(&["a", "b", "c", "d", "e", "f", "g", "h"]),
                    wide.clone(),
                ],
                "key_column",
                8,
            ),
            // A span of 64 needs a 9-byte bitmap: no proof is tried.
            (
                vec![ints(&[0, 9, 18, 27, 36, 45, 54, 64]), repeats.clone()],
                "packed",
                8,
            ),
            // A near-key whose one repeat is the last row.
            (
                vec![ints(&[0, 1, 2, 3, 4, 5, 6, 0]), ints(&[0; 8])],
                "packed",
                7,
            ),
            (
                vec![
                    strs(&["a", "b", "c", "d", "e", "f", "g", "a"]),
                    wide.clone(),
                ],
                "hashed",
                7,
            ),
            (vec![wide, repeats], "hashed", 8),
        ] {
            let (ids, got_path) = first_occurrences(&cols, 8);
            assert_eq!(got_path, path);
            let want = hashed_first_occurrences(&cols, 8);
            assert_eq!(want.len(), distinct);
            assert_eq!(ids.unwrap_or_else(|| (0..8).collect()), want, "{path}");
        }
    }

    #[test]
    fn key_set_keeps_zero_and_colliding_keys_apart() {
        let mut set = KeySet::with_capacity(2);
        let keys = [0, u64::MAX, 1, 0, 1 << 63, u64::MAX, 1, 1 << 63];
        let fresh: Vec<bool> = keys.iter().map(|&k| set.insert(k)).collect();
        assert_eq!(fresh, [true, true, true, false, true, false, false, false]);
    }

    #[test]
    #[should_panic(expected = "one column per attribute")]
    fn from_columns_checks_arity() {
        let (_c, s) = schema_ab();
        Relation::from_columns(s, 0, Vec::new());
    }

    #[test]
    fn resident_col_bytes_counts_shared_pool_once() {
        let mut c = Catalog::new();
        let s = Schema::from_chars(&mut c, "AB");
        let rows: Vec<Row> = (0..4)
            .map(|i| vec![Value::str(format!("s{i}")), Value::str("t")].into())
            .collect();
        let r = Relation::from_rows(s.clone(), rows).unwrap();
        let bytes = r.resident_col_bytes();
        // Two code vectors of 4×u32 plus two distinct pools.
        assert!(bytes >= 2 * 4 * 4, "codes counted: {bytes}");
        // A gathered clone sharing both pools costs the same accounting.
        let cols2: Vec<Column> = r.columns().iter().map(|c| c.gather(&[0, 1])).collect();
        let r2 = Relation::from_distinct_columns(s, 2, cols2);
        assert!(r2.resident_col_bytes() < bytes + 64);
    }

    #[test]
    fn display_renders_table() {
        let (c, s) = schema_ab();
        let r = Relation::from_rows(s, vec![row(&[10, 2])]).unwrap();
        let text = r.display(&c).to_string();
        assert!(text.contains("| A  | B |"), "got:\n{text}");
        assert!(text.contains("| 10 | 2 |"), "got:\n{text}");
        assert!(text.ends_with("(1 tuples)"));
    }
}
