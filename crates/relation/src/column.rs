//! Column-major storage: per-attribute value vectors with dictionary
//! interning.
//!
//! A [`crate::Relation`] physically stores one [`Column`] per attribute.
//! An all-integer attribute is an [`IntColumn`]: each cell is its distance
//! from the column's minimum, stored in the narrowest of `u8`, `u16`, `u32`
//! and `u64` that holds the column's span ([`IntCells`]), so a cell costs 1,
//! 2, 4 or 8 bytes by its column's range (`u64` covers
//! `i64::MIN..=i64::MAX`). Anything else is dictionary-encoded as `u32`
//! codes over an [`Arc<Dict>`] value pool, with the pool carrying a
//! precomputed [`Value::stable_hash`] per entry so the kernels hash an
//! occurrence by *lookup*, never by re-hashing string bytes.
//!
//! A kernel that reads integer cells dispatches on the cell width once per
//! column per call and runs a loop monomorphized over the cell type (the
//! crate-internal `with_cells!`): a cell reads as `min + cell`, and a value
//! sought in a column is first translated into its cell domain. Hashes,
//! fingerprints and orders are those of the values, so nothing outside
//! the kernels sees a width.
//!
//! **A stored span is a bound.** An [`IntColumn`] stores its span — its
//! minimum and the distance up to its largest cell — and the consumers of a
//! column's range (the load dedup's key-column proof and packed keys, the
//! sort keys, the dense join-index layout, the estimate oracle's distinct
//! counts) read it there instead of folding the cells. A column pushed
//! value by value (the TSV loader's, [`ColumnBuilder::push_int`]) gets its
//! exact span, but a gather keeps its source's span and width, and a
//! builder given a span up front (`ColumnBuilder::with_span`) or fed
//! gathers keeps that span, or the hull of its sources': a stored span
//! covers every cell without being tight. Every consumer is correct under a
//! loose span — the key-column proof may decline, and the packed dedup, the
//! sort keys and the dense layout may take a wider path.
//!
//! No integer is staged at full width. A [`ColumnBuilder`] writes each as
//! its offset from a base, in the narrowest cells the values so far need;
//! a value that does not fit widens the cells or moves the base, which it
//! puts half the spare offsets below the smallest value so that it seldom
//! moves again, and [`ColumnBuilder::finish`] rebases the cells in place
//! onto the smallest value (or the given span's minimum).
//!
//! The payload vectors are `Arc`-shared: cloning a column (or a whole
//! relation) is a reference-count bump, and a gather of a dictionary column
//! copies only the `u32` codes — the pool is shared with the source. That is
//! what makes late materialization cheap: join/semijoin/project kernels work
//! in terms of row-index selection vectors and only [`Column::gather`] the
//! columns the output actually keeps, at their source's width.
//!
//! A payload keeps the `Vec` it was built in (`Arc<Vec<_>>`, which derefs to
//! a slice): [`ColumnBuilder::finish`], [`Column::gather`] and
//! [`Column::concat_gathered`] wrap the vector they filled rather than copy
//! it into a fresh allocation, so each cell is written once. Writing memory
//! for the first time costs several times what rewriting it does (DESIGN.md
//! has the measurement), and every loaded, joined and spilled column is
//! new memory.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::span::IntSpan;
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

/// Run `$body` with `$v` bound to the vector inside `$cells` — an
/// [`IntCells`] or a builder's `CellVec`, named by `$kind` — once per cell
/// type: the one place a kernel dispatches on the width, so the loop in
/// `$body` is monomorphized and never matches per cell.
macro_rules! with_cells {
    ($kind:ident, $cells:expr, $v:ident => $body:expr) => {
        match $cells {
            $kind::U8($v) => $body,
            $kind::U16($v) => $body,
            $kind::U32($v) => $body,
            // `$body` widens cells to `u64` with `into`/`from`, a no-op here.
            #[allow(clippy::useless_conversion)]
            $kind::U64($v) => $body,
        }
    };
}
pub(crate) use with_cells;

/// An unsigned type an [`IntColumn`] stores its cells in.
pub(crate) trait IntCell: Copy + Into<u64> + Send + Sync {
    /// The largest offset the type holds.
    const MAX: u64;
    /// `offset`, which fits.
    fn of(offset: u64) -> Self;
    /// A filled vector, wrapped as a payload.
    fn wrap(cells: Vec<Self>) -> IntCells;
}

macro_rules! int_cell {
    ($($t:ty => $variant:ident),*) => {$(
        impl IntCell for $t {
            const MAX: u64 = <$t>::MAX as u64;
            #[inline]
            fn of(offset: u64) -> Self {
                offset as $t
            }
            fn wrap(cells: Vec<Self>) -> IntCells {
                IntCells::$variant(Arc::new(cells))
            }
        }
    )*};
}

int_cell!(u8 => U8, u16 => U16, u32 => U32, u64 => U64);

/// Bytes per cell of a slice.
fn cell_size<T>(_: &[T]) -> usize {
    std::mem::size_of::<T>()
}

/// An integer column's cells: offsets from its minimum, in the narrowest
/// type that holds its span.
#[derive(Debug, Clone)]
pub(crate) enum IntCells {
    /// Spans up to 255.
    U8(Arc<Vec<u8>>),
    /// Spans up to 65,535.
    U16(Arc<Vec<u16>>),
    /// Spans up to 2³² − 1.
    U32(Arc<Vec<u32>>),
    /// Any span.
    U64(Arc<Vec<u64>>),
}

/// Cells being written, at the width [`CellVec::for_width`] chose.
#[derive(Debug)]
enum CellVec {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl CellVec {
    /// An empty vector of the narrowest cell type that holds offsets up to
    /// `width`, with room for `n` cells — the one width selection.
    fn for_width(width: u64, n: usize) -> CellVec {
        match width {
            0..=0xff => CellVec::U8(Vec::with_capacity(n)),
            0x100..=0xffff => CellVec::U16(Vec::with_capacity(n)),
            0x1_0000..=0xffff_ffff => CellVec::U32(Vec::with_capacity(n)),
            _ => CellVec::U64(Vec::with_capacity(n)),
        }
    }

    /// The largest offset this width holds.
    fn max_offset(&self) -> u64 {
        fn max<T: IntCell>(_: &[T]) -> u64 {
            T::MAX
        }
        with_cells!(CellVec, self, v => max(v))
    }

    fn len(&self) -> usize {
        with_cells!(CellVec, self, v => v.len())
    }

    fn payload_bytes(&self) -> usize {
        with_cells!(CellVec, self, v => v.len() * cell_size(v))
    }

    /// These cells, each moved by `delta` (wrapping), at the width `width`
    /// needs: in place when that is this width, else copied across once.
    fn recode(mut self, width: u64, delta: u64) -> CellVec {
        let mut out = CellVec::for_width(width, 0);
        if out.max_offset() == self.max_offset() {
            with_cells!(CellVec, &mut self, v => {
                v.iter_mut().for_each(|c| *c = IntCell::of(delta.wrapping_add((*c).into())));
            });
            return self;
        }
        with_cells!(CellVec, &mut out, o => with_cells!(CellVec, &self, v => {
            o.reserve(v.capacity());
            push_moved(o, v.iter().copied(), delta);
        }));
        out
    }

    /// Append the cells of `src` at the rows in `sel`, each moved up by
    /// `delta`, the distance from this vector's minimum to `src`'s.
    fn extend_rebased(&mut self, src: &IntCells, sel: &[u32], delta: u64) {
        with_cells!(CellVec, self, out => {
            with_cells!(IntCells, src, v => {
                push_moved(out, sel.iter().map(|&i| v[i as usize]), delta);
            });
        });
    }

    /// Wrap the filled vector, as it is, into a payload.
    fn freeze(self) -> IntCells {
        with_cells!(CellVec, self, v => IntCell::wrap(v))
    }
}

/// Append each of `cells`, moved by `delta` (wrapping), to `out`.
fn push_moved<S: IntCell, D: IntCell>(
    out: &mut Vec<D>,
    cells: impl Iterator<Item = S>,
    delta: u64,
) {
    out.extend(cells.map(|c| D::of(delta.wrapping_add(c.into()))));
}

/// Push `offset` onto `out` if the cell type holds it; whether it did.
#[inline]
fn try_push<T: IntCell>(out: &mut Vec<T>, offset: u64) -> bool {
    let fits = offset <= T::MAX;
    if fits {
        out.push(T::of(offset));
    }
    fits
}

/// A dense integer column: row `row` holds `span.min + cells[row]`, and no
/// cell exceeds `span.width` (a bound, not always tight: see the module
/// docs).
#[derive(Debug, Clone)]
pub struct IntColumn {
    span: IntSpan,
    cells: IntCells,
}

impl IntColumn {
    /// The stored span: it covers every cell, but need not be tight.
    #[inline]
    pub fn span(&self) -> IntSpan {
        self.span
    }

    /// The cells: offsets from the span's minimum.
    #[inline]
    pub(crate) fn cells(&self) -> &IntCells {
        &self.cells
    }

    /// How many distinct values the column holds: its offsets counted on a
    /// bitmap over the stored span (a bound, so possibly loose) while that
    /// takes at most `n + 512` bytes, on a set pre-sized to the column past
    /// that.
    pub fn distinct(&self) -> usize {
        fn count<T: IntCell>(cells: &[T], width: u64) -> usize {
            let offsets = || cells.iter().map(|&x| x.into());
            // Offsets as bitmap positions: only spans under the byte rule,
            // far short of `i64::MAX`, are counted this way.
            let span = IntSpan { min: 0, width };
            if span.bitmap_bytes() <= cells.len() as u64 + 512 {
                span.distinct(offsets().map(|k: u64| k as i64))
            } else {
                let mut set = FxHashSet::with_capacity_and_hasher(cells.len(), Default::default());
                set.extend(offsets());
                set.len()
            }
        }
        with_cells!(IntCells, &self.cells, v => count(v, self.span.width))
    }

    /// Bytes per cell: 1, 2, 4 or 8.
    pub(crate) fn cell_bytes(&self) -> usize {
        with_cells!(IntCells, &self.cells, v => cell_size(v))
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        with_cells!(IntCells, &self.cells, v => v.len())
    }

    /// Row `row`'s distance from the span's minimum.
    #[inline]
    pub(crate) fn offset(&self, row: usize) -> u64 {
        with_cells!(IntCells, &self.cells, v => v[row].into())
    }

    /// Row `row`'s value.
    #[inline]
    pub(crate) fn get(&self, row: usize) -> i64 {
        self.span.min.wrapping_add(self.offset(row) as i64)
    }

    /// The rows in `sel`, at this column's span and width.
    fn gather(&self, sel: &[u32]) -> IntColumn {
        let cells = with_cells!(IntCells, &self.cells, v => {
            IntCell::wrap(sel.iter().map(|&i| v[i as usize]).collect())
        });
        IntColumn {
            span: self.span,
            cells,
        }
    }
}

/// One attribute's values for every row of a relation, column-major.
#[derive(Debug, Clone)]
pub enum Column {
    /// A dense integer column: every row's value is `Value::Int`.
    Int(IntColumn),
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
            Column::Int(c) => c.len(),
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
            Column::Int(c) => Value::Int(c.get(row)),
            Column::Dict { codes, dict } => dict.value(codes[row]).clone(),
        }
    }

    /// The [`Value::stable_hash`] of the cell at `row`. Interned cells are a
    /// table lookup; integer cells hash the value's word directly.
    #[inline]
    pub fn cell_hash(&self, row: usize) -> u64 {
        match self {
            Column::Int(c) => Value::Int(c.get(row)).stable_hash(),
            Column::Dict { codes, dict } => dict.hash(codes[row]),
        }
    }

    /// Fold this column's cell hashes into per-row accumulators with `mix`
    /// (one batch pass, the columnar replacement for per-row key hashing).
    /// `acc.len()` must equal `self.len()`.
    pub(crate) fn hash_into(&self, acc: &mut [u64], mix: impl Fn(u64, u64) -> u64) {
        match self {
            Column::Int(c) => {
                let min = c.span.min;
                with_cells!(IntCells, &c.cells, v => {
                    for (a, &x) in acc.iter_mut().zip(v.iter()) {
                        let value = min.wrapping_add(u64::from(x) as i64);
                        *a = mix(*a, Value::Int(value).stable_hash());
                    }
                });
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
            (Column::Int(a), Column::Int(b)) => a.get(i) == b.get(j),
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
                dict.value(codes[j]).as_int() == Some(a.get(i))
            }
            (Column::Dict { codes, dict }, Column::Int(b)) => {
                dict.value(codes[i]).as_int() == Some(b.get(j))
            }
        }
    }

    /// Whether cell `row` equals a free-standing [`Value`].
    #[inline]
    pub fn cell_eq_value(&self, row: usize, v: &Value) -> bool {
        match self {
            Column::Int(c) => v.as_int() == Some(c.get(row)),
            Column::Dict { codes, dict } => dict.value(codes[row]) == v,
        }
    }

    /// Compare cell `i` of `self` with cell `j` of `other` under the global
    /// [`Value`] ordering (ints before strings). Used by canonical-order
    /// sorting; codes are never compared directly (they are not ordered).
    pub fn cells_cmp(&self, i: usize, other: &Column, j: usize) -> std::cmp::Ordering {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.get(i).cmp(&b.get(j)),
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
                Value::Int(a.get(i)).cmp(dict.value(codes[j]))
            }
            (Column::Dict { codes, dict }, Column::Int(b)) => {
                dict.value(codes[i]).cmp(&Value::Int(b.get(j)))
            }
        }
    }

    /// Gather the rows in `sel` into a new column. Integer cells are copied
    /// at their width, under the source's span; interned columns copy only
    /// codes and share the pool.
    pub fn gather(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int(c) => Column::Int(c.gather(sel)),
            Column::Dict { codes, dict } => Column::Dict {
                codes: Arc::new(sel.iter().map(|&i| codes[i as usize]).collect()),
                dict: Arc::clone(dict),
            },
        }
    }

    /// Concatenate gathers from several `(column, selection)` parts into one
    /// column — the merge step of partitioned kernels and the set
    /// operations. Fast paths: all-integer parts are written once at the
    /// width of the hull of the contributing parts' spans, each cell rebased
    /// from its part's minimum, and interned parts sharing one pool
    /// concatenate codes; mixed or differently-pooled parts re-intern
    /// through a [`ColumnBuilder`].
    pub fn concat_gathered(parts: &[(&Column, &[u32])]) -> Column {
        let total: usize = parts.iter().map(|(_, sel)| sel.len()).sum();
        if parts.iter().all(|(c, _)| matches!(c, Column::Int(_))) {
            let span = parts
                .iter()
                .filter_map(|(c, sel)| match c {
                    Column::Int(c) if !sel.is_empty() => Some(c.span()),
                    _ => None,
                })
                .reduce(IntSpan::hull)
                .unwrap_or_default();
            let mut b = ColumnBuilder::with_span(span, total);
            for (c, sel) in parts {
                b.extend_gathered(c, sel);
            }
            return b.finish();
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

    /// Heap bytes of the payload vectors — 1 to 8 bytes per integer cell, 4
    /// per code — *excluding* the shared pool ([`Dict::heap_bytes`]
    /// accounts that separately — callers decide how to attribute a pool
    /// shared by many columns).
    pub fn payload_bytes(&self) -> usize {
        match self {
            Column::Int(c) => c.len() * c.cell_bytes(),
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
    state: Build,
}

/// What a [`ColumnBuilder`] holds so far.
#[derive(Debug)]
enum Build {
    /// Integers as offsets from `base`, in cells as narrow as `lo..=hi`
    /// allows — the values' exact bounds, or the span the builder was
    /// given, widened by any value outside it.
    Ints {
        base: i64,
        lo: i64,
        hi: i64,
        cells: CellVec,
    },
    Interned(DictBuilder),
}

impl Default for Build {
    fn default() -> Self {
        Build::Ints {
            base: 0,
            lo: i64::MAX,
            hi: i64::MIN,
            cells: CellVec::U8(Vec::new()),
        }
    }
}

/// Make room in `cells`, offsets from `base`, for values `lo..=hi`: the
/// narrowest cells that hold the width, the base half their spare offsets
/// below `lo`, so that a value past either end rarely moves it again —
/// values arriving in descending order move it a logarithmic number of
/// times per cell width, not once each.
fn make_room(base: &mut i64, lo: i64, hi: i64, cells: &mut CellVec) {
    let width = hi.wrapping_sub(lo) as u64;
    let spare = CellVec::for_width(width, 0).max_offset() - width;
    let below = i128::from(lo) - i128::from(spare / 2);
    let new_base = below.max(i128::from(i64::MIN)) as i64;
    let old = std::mem::replace(cells, CellVec::U8(Vec::new()));
    *cells = old.recode(width, base.wrapping_sub(new_base) as u64);
    *base = new_base;
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
        let mut b = ColumnBuilder::default();
        if let Build::Ints { cells, .. } = &mut b.state {
            *cells = CellVec::for_width(0, n);
        }
        b
    }

    /// A builder expecting about `n` rows whose integers all lie in `span`:
    /// each is written once, as its offset at the span's width, and a
    /// non-empty column keeps `span` whatever cells it holds. An integer
    /// outside the span (or a string) is still taken, widening the span (or
    /// interning).
    pub(crate) fn with_span(span: IntSpan, n: usize) -> Self {
        ColumnBuilder {
            state: Build::Ints {
                base: span.min,
                lo: span.min,
                hi: span.max(),
                cells: CellVec::for_width(span.width, n),
            },
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
        match &mut self.state {
            Build::Ints {
                base,
                lo,
                hi,
                cells,
            } => {
                (*lo, *hi) = ((*lo).min(x), (*hi).max(x));
                let fits = |base: i64, cells: &mut CellVec| {
                    let offset = x.wrapping_sub(base) as u64;
                    x >= base && with_cells!(CellVec, cells, v => try_push(v, offset))
                };
                if !fits(*base, cells) {
                    make_room(base, *lo, *hi, cells);
                    assert!(fits(*base, cells), "room was made for {x}");
                }
            }
            Build::Interned(d) => d.push_int(x),
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
        if let Build::Ints { base, cells, .. } = &self.state {
            let mut d = DictBuilder::default();
            d.codes.reserve(cells.len() + 1);
            with_cells!(CellVec, cells, v => {
                for &c in v.iter() {
                    d.push_int(base.wrapping_add(u64::from(c) as i64));
                }
            });
            self.state = Build::Interned(d);
        }
        match &mut self.state {
            Build::Interned(d) => d,
            Build::Ints { .. } => unreachable!("interned above"),
        }
    }

    /// Append cell `row` of `col` (avoids constructing a [`Value`] for
    /// integer-to-integer copies).
    pub fn push_cell(&mut self, col: &Column, row: usize) {
        match col {
            Column::Int(c) => self.push_int(c.get(row)),
            Column::Dict { .. } => self.push(col.value(row)),
        }
    }

    /// Append the cells of `col` at the rows in `sel`, in order: a gather
    /// into this builder. Integer cells go in one pass while the column
    /// stays dense, each rebased by `col`'s minimum minus this builder's
    /// base, once there is room for `col`'s span (which then bounds the
    /// column's); interned cells are re-interned by value, so `col` may
    /// carry any pool.
    pub(crate) fn extend_gathered(&mut self, col: &Column, sel: &[u32]) {
        match (col, &mut self.state) {
            (_, _) if sel.is_empty() => {}
            (
                Column::Int(src),
                Build::Ints {
                    base,
                    lo,
                    hi,
                    cells,
                },
            ) => {
                let span = src.span();
                (*lo, *hi) = ((*lo).min(span.min), (*hi).max(span.max()));
                let room = cells.max_offset();
                if span.min < *base || span.max().wrapping_sub(*base) as u64 > room {
                    make_room(base, *lo, *hi, cells);
                }
                let delta = src.span.min.wrapping_sub(*base) as u64;
                cells.extend_rebased(&src.cells, sel, delta);
            }
            _ => {
                for &i in sel {
                    self.push_cell(col, i as usize);
                }
            }
        }
    }

    /// Payload bytes written so far: the cell width per integer, 4 per
    /// dictionary code.
    pub(crate) fn payload_bytes(&self) -> usize {
        match &self.state {
            Build::Ints { cells, .. } => cells.payload_bytes(),
            Build::Interned(d) => d.codes.len() * std::mem::size_of::<u32>(),
        }
    }

    /// Finish into a column. Integer cells are rebased in place onto the
    /// smallest value (or the given span's minimum), at the width they are
    /// already in, so that the column's stored span is the values' exact
    /// one — or the span the builder was given.
    pub fn finish(self) -> Column {
        match self.state {
            Build::Ints {
                base,
                lo,
                hi,
                cells,
            } => {
                let span = match cells.len() {
                    0 => IntSpan::default(),
                    _ => IntSpan {
                        min: lo,
                        width: hi.wrapping_sub(lo) as u64,
                    },
                };
                let cells = match base == span.min {
                    true => cells,
                    false => cells.recode(span.width, base.wrapping_sub(span.min) as u64),
                };
                Column::Int(IntColumn {
                    span,
                    cells: cells.freeze(),
                })
            }
            Build::Interned(d) => Column::Dict {
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
pub(crate) mod tests {
    use super::*;

    /// Whether `a` and `b` are one shared payload vector.
    pub(crate) fn same_cells(a: &IntCells, b: &IntCells) -> bool {
        match (a, b) {
            (IntCells::U8(a), IntCells::U8(b)) => Arc::ptr_eq(a, b),
            (IntCells::U16(a), IntCells::U16(b)) => Arc::ptr_eq(a, b),
            (IntCells::U32(a), IntCells::U32(b)) => Arc::ptr_eq(a, b),
            (IntCells::U64(a), IntCells::U64(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The integer column holding `vals`, in order.
    pub(crate) fn ints(vals: &[i64]) -> Column {
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
    /// address the cells were written to, for an unspanned, a spanned and
    /// an interned column alike — the unspanned one (the TSV loader's and
    /// `from_rows`' builder) after `finish` rebased its cells in place.
    #[test]
    fn finish_keeps_the_filled_buffer() {
        let span = IntSpan { min: -1, width: 5 };
        for mut dense in [
            ColumnBuilder::with_capacity(3),
            ColumnBuilder::with_span(span, 3),
        ] {
            [4, -1, 4].into_iter().for_each(|x| dense.push_int(x));
            let Build::Ints {
                cells: CellVec::U8(v),
                ..
            } = &dense.state
            else {
                panic!("u8 cells");
            };
            let filled = v.as_ptr();
            let Column::Int(c) = dense.finish() else {
                panic!("dense");
            };
            let IntCells::U8(v) = c.cells() else {
                panic!("u8 cells");
            };
            assert_eq!(v.as_ptr(), filled);
            assert_eq!(**v, [5, 0, 5]);
            assert_eq!(c.span(), span);
        }

        let mut interned = ColumnBuilder::default();
        interned.push_int(4);
        interned.push_str("x");
        interned.push_int(4);
        let Build::Interned(d) = &interned.state else {
            panic!("interned");
        };
        let filled = d.codes.as_ptr();
        let Column::Dict { codes, .. } = interned.finish() else {
            panic!("interned");
        };
        assert_eq!(codes.as_ptr(), filled);
        assert_eq!(*codes, [0, 1, 0]);
    }

    /// Concatenating over one shared pool keeps the codes vector it sized
    /// to the total and filled: the payload is that vector, uniquely owned
    /// and never regrown or copied out, and it shares the parts' pool. The
    /// integer path does the same at the width of the parts' hull, each
    /// cell rebased from its part's minimum.
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
        let Column::Int(c) = Column::concat_gathered(&[(&a, &[1, 0]), (&b, &[0])]) else {
            panic!("dense");
        };
        assert_eq!(c.span(), IntSpan { min: 1, width: 2 });
        let IntCells::U8(v) = c.cells else {
            panic!("u8 cells");
        };
        let v = Arc::into_inner(v).expect("uniquely owned");
        assert_eq!((v.capacity(), v), (3, vec![1, 0, 2]));
    }

    /// The narrowest cell type that holds the span, at each edge: the
    /// values read back, and the stored span is the exact one.
    #[test]
    fn width_follows_the_span() {
        for (width, bytes) in [
            (0u64, 1),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            ((1 << 32) - 1, 4),
            (1 << 32, 8),
            (u64::MAX, 8),
        ] {
            for min in [i64::MIN, -7, 0, i64::MAX.wrapping_sub(width as i64)] {
                if i128::from(min) + i128::from(width) > i128::from(i64::MAX) {
                    continue;
                }
                let max = min.wrapping_add(width as i64);
                let vals = [max, min, max, min];
                let Column::Int(c) = ints(&vals) else {
                    panic!("dense");
                };
                assert_eq!(c.span(), IntSpan { min, width }, "span {width} from {min}");
                assert_eq!(c.cell_bytes(), bytes, "span {width} from {min}");
                let back: Vec<i64> = (0..4).map(|i| c.get(i)).collect();
                assert_eq!(back, vals);
            }
        }
        assert_eq!(ints(&[]).payload_bytes(), 0);
    }

    /// Staging moves its base and widens its cells as values arrive, in
    /// any order, and finishes on the exact span at the narrowest width:
    /// descending, ascending and zigzag runs across every width edge, and
    /// the ends of `i64`.
    #[test]
    fn staging_ends_on_the_exact_span_whatever_the_order() {
        let zigzag = |n: i64| (0..n).map(move |i| if i % 2 == 0 { i } else { -i });
        let cases: Vec<(Vec<i64>, usize)> = vec![
            ((0..100_000).rev().collect(), 4),
            ((0..70_000).map(|i| 5 - i).collect(), 4),
            ((0..300).collect(), 2),
            (zigzag(128).collect(), 1),
            (zigzag(130).collect(), 2),
            ((0..1000).map(|i| i64::MAX - i).collect(), 2),
            (vec![3, i64::MIN, i64::MAX, 4], 8),
            (vec![i64::MIN, i64::MIN + 255], 1),
        ];
        for (vals, bytes) in cases {
            let Column::Int(c) = ints(&vals) else {
                panic!("dense");
            };
            assert_eq!(c.span(), IntSpan::of(&vals), "{} values", vals.len());
            assert_eq!(c.cell_bytes(), bytes, "{} values", vals.len());
            assert!((0..vals.len()).map(|i| c.get(i)).eq(vals.iter().copied()));
        }
    }

    /// A gather keeps its source's span and width, however few cells it
    /// keeps; the span is then a bound, not the gathered cells' own.
    #[test]
    fn gather_keeps_the_source_span() {
        let src = ints(&[-300, 5, 7, 300]);
        let Column::Int(g) = src.gather(&[2, 1]) else {
            panic!("dense");
        };
        assert_eq!(
            g.span(),
            IntSpan {
                min: -300,
                width: 600
            }
        );
        assert_eq!(g.cell_bytes(), 2);
        assert_eq!((g.get(0), g.get(1)), (7, 5));
    }

    /// A builder given a span takes any value: one outside the span widens
    /// it, and a string interns what the builder holds, each keeping every
    /// value in order.
    #[test]
    fn a_given_span_widens_for_a_value_outside_it() {
        let span = IntSpan { min: 10, width: 20 };
        let src = ints(&[12, 30, 10]);
        let mut b = ColumnBuilder::with_span(span, 4);
        b.extend_gathered(&src, &[0, 1]);
        b.push_int(31);
        b.extend_gathered(&src, &[2]);
        let Column::Int(c) = b.finish() else {
            panic!("dense");
        };
        assert_eq!(
            c.span(),
            IntSpan { min: 10, width: 21 },
            "the given span and 31"
        );
        assert_eq!(
            (0..4).map(|i| c.get(i)).collect::<Vec<_>>(),
            [12, 30, 31, 10]
        );

        let wide = ints(&[0, 1 << 40]);
        let mut b = ColumnBuilder::with_span(span, 3);
        b.push_int(11);
        b.extend_gathered(&wide, &[1]);
        b.push_str("s");
        let c = b.finish();
        assert!(c.is_interned());
        let want = [Value::Int(11), Value::Int(1 << 40), Value::str("s")];
        assert_eq!((0..3).map(|i| c.value(i)).collect::<Vec<_>>(), want);
    }

    /// Parts of different widths and minimums concatenate at the width of
    /// their hull, an empty part's placeholder span left out.
    #[test]
    fn concat_rebases_parts_of_different_widths() {
        let (narrow, wide, empty) = (ints(&[-3, 0]), ints(&[1000, 70_000]), ints(&[]));
        let parts: [(&Column, &[u32]); 3] = [(&wide, &[1, 0]), (&empty, &[]), (&narrow, &[0, 1])];
        let Column::Int(c) = Column::concat_gathered(&parts) else {
            panic!("dense");
        };
        assert_eq!(
            c.span(),
            IntSpan {
                min: -3,
                width: 70_003
            }
        );
        assert_eq!(c.cell_bytes(), 4);
        let got: Vec<i64> = (0..4).map(|i| c.get(i)).collect();
        assert_eq!(got, [70_000, 1000, -3, 0]);
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
        assert_eq!(i.payload_bytes(), 3, "one byte per cell of a span of 2");
        assert_eq!(ints(&[1, 1 << 40]).payload_bytes(), 16);
    }
}
