//! Relations: set-semantics collections of tuples over a [`Schema`].
//!
//! The paper's model is pure set semantics — a relation is a set of tuples —
//! and its cost measure counts tuples. `Relation` therefore maintains the
//! invariant that rows are distinct; every constructor deduplicates.
//!
//! # Storage
//!
//! Physically a relation is **column-major**: one [`Column`] per attribute
//! (dense `i64` for all-integer attributes, dictionary-interned `u32` codes
//! otherwise — see [`crate::column`]). Every operator kernel reads and writes
//! columns, and so does every I/O edge: the TSV loader parses straight into
//! column builders, the TSV writer sorts and prints from columns, and spill
//! partitions go to disk and come back without a tuple being boxed
//! ([`crate::tsv`]). The row view ([`Relation::rows`]/[`Relation::iter`]) is
//! the *construction and compatibility* API — `from_rows` for callers that
//! have tuples in hand (tests, `merge_join`, Datalog), `rows()` for callers
//! that want them back — *lazily
//! materialized* and memoized: a kernel's output or a loaded file never pays
//! for rows, a caller that constructed from rows never pays for columns
//! until a kernel asks, and both views describe the same immutable tuple set
//! in the same order. Cloning is cheap — O(arity), not O(tuples): both views
//! are shared (`Arc`-backed payload vectors inside `Column`, an `Arc<[Row]>`
//! row cache), so an executor handing out per-run copies of its base
//! relations bumps reference counts instead of copying tuple data. (A clone
//! carries the views its source had *at clone time*: clone after the first
//! kernel ran, or hold a reference, to share a row-born relation's columns.)

use crate::attr::Catalog;
use crate::column::{Column, ColumnBuilder};
use crate::error::{Error, Result};
use crate::fxhash::{mix, FxHashSet};
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A tuple: values aligned positionally with the owning relation's schema.
pub type Row = Box<[Value]>;

/// Fold a row's cell hashes into one stable row hash. Computable from either
/// storage layout (columns fold [`Column::hash_into`] with the same `mix`),
/// which is what keeps [`Relation::fingerprint`] representation-independent.
#[inline]
pub(crate) fn stable_row_hash(row: &[Value]) -> u64 {
    row.iter().fold(0u64, |acc, v| mix(acc, v.stable_hash()))
}

/// A set of tuples over a fixed [`Schema`].
///
/// Row order is an implementation detail (it depends on build order and hash
/// layout); equality, hashing-free comparison and display all canonicalize by
/// sorting. Use [`Relation::sorted_rows`] when deterministic order matters.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    /// Tuple count, known up front regardless of which view is materialized
    /// (columns cannot carry it for nullary schemas).
    nrows: usize,
    /// Column-major view; built on demand from `rows` when a constructor
    /// supplied rows. Immutable once set.
    cols: OnceLock<Vec<Column>>,
    /// Row-major view; built on demand from `cols` when a kernel produced
    /// columns. Immutable once set, and shared across clones.
    rows: OnceLock<Arc<[Row]>>,
    /// Lazily computed [`Relation::fingerprint`]; content is immutable after
    /// construction, so a computed value never goes stale.
    fingerprint: OnceLock<u128>,
}

impl Relation {
    fn from_rows_unchecked(schema: Schema, rows: Vec<Row>) -> Self {
        let nrows = rows.len();
        let cell = OnceLock::new();
        cell.set(Arc::from(rows)).expect("fresh OnceLock");
        Relation {
            schema,
            nrows,
            cols: OnceLock::new(),
            rows: cell,
            fingerprint: OnceLock::new(),
        }
    }

    /// The empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Relation::from_rows_unchecked(schema, Vec::new())
    }

    /// The relation over the empty schema containing the single nullary
    /// tuple. It is the identity of natural join.
    pub fn nullary_unit() -> Self {
        Relation::from_rows_unchecked(Schema::empty(), vec![Box::from([])])
    }

    /// Build from rows, checking arity and removing duplicates (keeping each
    /// row's first occurrence, in order). Above the [`crate::ops::SMALL`]
    /// cutoff the deduplication runs as a parallel partition-then-merge on
    /// the shared pool; the result is byte-identical to the sequential path.
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        for row in &rows {
            if row.len() != schema.arity() {
                return Err(Error::ArityMismatch {
                    expected: schema.arity(),
                    got: row.len(),
                });
            }
        }
        let rows = if rows.len() < crate::ops::SMALL {
            dedup_sequential(rows)
        } else {
            dedup_parallel(rows)
        };
        Ok(Relation::from_rows_unchecked(schema, rows))
    }

    /// Build from `Vec<Vec<Value>>` tuples (convenience for tests/examples).
    pub fn from_tuples(schema: Schema, tuples: Vec<Vec<Value>>) -> Result<Self> {
        Self::from_rows(schema, tuples.into_iter().map(Into::into).collect())
    }

    /// Build from rows that are already known to be distinct and of the right
    /// arity (used by operators that dedup as they produce output, and by
    /// harnesses that need an *owned* copy of a relation's tuples without
    /// re-paying deduplication — e.g. the deep-clone baseline interpreter,
    /// now that [`Clone`] shares tuple storage instead of copying it).
    ///
    /// Debug builds verify the invariants; release builds trust the caller.
    pub fn from_distinct_rows(schema: Schema, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.arity()));
        debug_assert_eq!(
            rows.iter().collect::<FxHashSet<_>>().len(),
            rows.len(),
            "rows must be distinct"
        );
        Relation::from_rows_unchecked(schema, rows)
    }

    /// Build column-major from per-attribute columns whose tuples are
    /// already distinct. `nrows` is explicit because a nullary schema has no
    /// columns to carry it; for arity ≥ 1 every column must have `nrows`
    /// entries. This is how the batch kernels construct output — the row
    /// view stays unmaterialized until something asks for it.
    ///
    /// Debug builds verify arity, lengths, and distinctness.
    pub(crate) fn from_distinct_columns(schema: Schema, nrows: usize, cols: Vec<Column>) -> Self {
        debug_assert_eq!(cols.len(), schema.arity());
        debug_assert!(cols.iter().all(|c| c.len() == nrows));
        let cell = OnceLock::new();
        cell.set(cols).expect("fresh OnceLock");
        let rel = Relation {
            schema,
            nrows,
            cols: cell,
            rows: OnceLock::new(),
            fingerprint: OnceLock::new(),
        };
        #[cfg(debug_assertions)]
        {
            let mut seen: FxHashSet<Row> = FxHashSet::default();
            for i in 0..rel.nrows {
                assert!(seen.insert(rel.row_at(i)), "columnar rows must be distinct");
            }
        }
        rel
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

    /// The column-major view: one [`Column`] per schema position. Built on
    /// demand (and memoized) if this relation was constructed from rows.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        self.cols.get_or_init(|| {
            let rows = self.rows.get().expect("one view always materialized");
            let mut builders: Vec<ColumnBuilder> = (0..self.schema.arity())
                .map(|_| ColumnBuilder::with_capacity(rows.len()))
                .collect();
            for row in rows.iter() {
                for (b, v) in builders.iter_mut().zip(row.iter()) {
                    b.push(v.clone());
                }
            }
            builders.into_iter().map(ColumnBuilder::finish).collect()
        })
    }

    /// Materialize row `i` from whichever view is cheapest. Only the debug
    /// distinctness check in [`Relation::from_distinct_columns`] needs this;
    /// everything else works batch-wise.
    #[cfg(debug_assertions)]
    pub(crate) fn row_at(&self, i: usize) -> Row {
        if let Some(rows) = self.rows.get() {
            return rows[i].clone();
        }
        let cols = self.cols.get().expect("one view always materialized");
        cols.iter().map(|c| c.value(i)).collect()
    }

    /// The rows, in unspecified order. Materialized on demand (and memoized)
    /// if this relation was built column-major.
    #[inline]
    pub fn rows(&self) -> &[Row] {
        self.rows.get_or_init(|| {
            let cols = self.cols.get().expect("one view always materialized");
            (0..self.nrows)
                .map(|i| cols.iter().map(|c| c.value(i)).collect())
                .collect()
        })
    }

    /// Consume the relation, yielding owned rows (still distinct). The row
    /// cache is `Arc`-shared across clones, so this copies the rows out.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows().to_vec()
    }

    /// Iterate over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows().iter()
    }

    /// Membership test (linear scan; intended for tests and small relations).
    /// Checks against whichever view is resident — never materializes the
    /// other.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        if let Some(rows) = self.rows.get() {
            return rows.iter().any(|r| r.as_ref() == row);
        }
        if row.len() != self.schema.arity() {
            return false;
        }
        let cols = self.cols.get().expect("one view always materialized");
        (0..self.nrows).any(|i| {
            cols.iter()
                .zip(row.iter())
                .all(|(c, v)| c.cell_eq_value(i, v))
        })
    }

    /// The rows sorted into canonical order (for deterministic output).
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut rows = self.rows().to_vec();
        rows.sort_unstable();
        rows
    }

    /// Resident heap bytes of the columnar payloads: per-column code/value
    /// vectors plus each distinct dictionary pool counted once (columns of
    /// one relation frequently share a pool after joins/projections).
    /// Forces the columnar view — callers (the index-cache byte budget) are
    /// on the columnar path already.
    pub fn resident_col_bytes(&self) -> usize {
        let cols = self.columns();
        let mut total = 0usize;
        let mut seen: Vec<*const ()> = Vec::new();
        for c in cols {
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
    /// fold [`Value::stable_hash`]es, so the fingerprint is also
    /// *layout*-independent: computed from columns when resident (a table
    /// lookup per interned cell), from rows otherwise, with bit-identical
    /// results.
    ///
    /// Computed lazily on first call and memoized (content is immutable).
    /// This is a hash, not a proof of equality: collisions are possible,
    /// so callers deciding anything semantic should also compare schemas
    /// and accept the residual hash-collision risk (the join-index cache
    /// does, trading it for cross-`Arc` reuse).
    pub fn fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| {
            let mut xor: u64 = 0;
            let mut sum: u64 = self.nrows as u64;
            let mut fold = |h: u64| {
                xor ^= h;
                sum = sum.wrapping_add(h);
            };
            match (self.cols.get(), self.rows.get()) {
                (Some(cols), None) => {
                    let mut acc = vec![0u64; self.nrows];
                    for c in cols {
                        c.hash_into(&mut acc, mix);
                    }
                    acc.into_iter().for_each(&mut fold);
                }
                _ => {
                    for row in self.rows() {
                        fold(stable_row_hash(row));
                    }
                }
            }
            (u128::from(xor) << 64) | u128::from(sum)
        })
    }
}

fn dedup_sequential(rows: Vec<Row>) -> Vec<Row> {
    let mut seen: FxHashSet<Row> = FxHashSet::default();
    seen.reserve(rows.len());
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if seen.insert(row.clone()) {
            out.push(row);
        }
    }
    out
}

/// Partition-then-merge deduplication on the shared pool. Rows are
/// partitioned by their full-tuple hash, so duplicates always collide in the
/// same partition and per-partition dedup needs no cross-partition merge;
/// the final sort by original index restores first-occurrence order, making
/// the output byte-identical to [`dedup_sequential`].
fn dedup_parallel(rows: Vec<Row>) -> Vec<Row> {
    use crate::fxhash::FxBuildHasher;
    use std::hash::BuildHasher;

    let parts_n = mjoin_pool::current_num_threads().clamp(1, 64);
    if parts_n == 1 {
        return dedup_sequential(rows);
    }
    // One BuildHasher for the whole partition pass, not one per row.
    let hasher = FxBuildHasher::default();
    let mut parts: Vec<Vec<(usize, Row)>> = vec![Vec::new(); parts_n];
    for (i, row) in rows.into_iter().enumerate() {
        parts[(hasher.hash_one(&row) as usize) % parts_n].push((i, row));
    }
    let deduped = mjoin_pool::par_map(parts, |part| {
        let mut seen: FxHashSet<Row> = FxHashSet::default();
        seen.reserve(part.len());
        part.into_iter()
            .filter(|(_, row)| seen.insert(row.clone()))
            .collect::<Vec<_>>()
    });
    let mut all: Vec<(usize, Row)> = deduped.into_iter().flatten().collect();
    all.sort_unstable_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, row)| row).collect()
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
    fn parallel_dedup_matches_sequential_order() {
        let (_c, s) = schema_ab();
        // Enough duplicated rows to cross the SMALL cutoff.
        let rows: Vec<Row> = (0..10_000).map(|i| row(&[i % 997, i % 31])).collect();
        let seq = dedup_sequential(rows.clone());
        let par = Relation::from_rows(s, rows).unwrap();
        assert_eq!(par.rows(), &seq[..], "first-occurrence order preserved");
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
    fn fingerprint_is_layout_independent() {
        let (_c, s) = schema_ab();
        let rows = vec![
            vec![Value::Int(1), Value::str("x")].into(),
            vec![Value::Int(2), Value::str("y")].into(),
        ];
        let by_rows = Relation::from_rows(s.clone(), rows).unwrap();
        // Same content constructed column-major, fingerprinted before any
        // row view exists.
        let cols = by_rows.columns().to_vec();
        let by_cols = Relation::from_distinct_columns(s, by_rows.len(), cols);
        assert!(by_cols.rows.get().is_none(), "no row view materialized");
        assert_eq!(by_rows.fingerprint(), by_cols.fingerprint());
    }

    #[test]
    fn views_agree_both_directions() {
        let (_c, s) = schema_ab();
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::str("a")].into(),
            vec![Value::Int(2), Value::str("b")].into(),
        ];
        let r = Relation::from_rows(s.clone(), rows.clone()).unwrap();
        // rows → columns
        let cols = r.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1].value(1), Value::str("b"));
        // columns → rows
        let r2 = Relation::from_distinct_columns(s, r.len(), cols.to_vec());
        assert_eq!(r2.rows(), &rows[..]);
        assert!(r2.contains_row(&[Value::Int(1), Value::str("a")]));
        assert!(!r2.contains_row(&[Value::Int(1), Value::str("b")]));
        assert_eq!(r, r2);
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
