//! Minimal TSV import/export for relations.
//!
//! The first line is a tab-separated attribute-name header; each subsequent
//! non-empty line is a tuple. Values that parse as `i64` become integers,
//! everything else is a string. This keeps example programs and ad-hoc
//! experiments self-contained without pulling in a serialization framework.
//!
//! String values are escaped on export so that every relation round-trips:
//! `\` `⇥` `␊` `␍` become `\\` `\t` `\n` `\r`, and strings that the plain
//! reader would mangle — ones that re-parse as an integer (`"007"`), are
//! empty, or carry leading/trailing whitespace — get a `\s` marker prefix
//! forcing the verbatim-string path. Cells without a backslash keep the
//! historical trim-and-sniff behavior, so hand-written files are unaffected;
//! cells with one are unescaped exactly, and an unknown escape is a parse
//! error rather than silent corruption.
//!
//! Both directions are byte-level and columnar — no tuple is ever boxed as a
//! row. **In:** one block parser works on the slices the reader's `fill_buf`
//! hands out, copying only a line that straddles a refill. A line of plain
//! integer cells is scanned once, straight into its columns' cells, at the
//! narrowest width the values so far need (see [`ColumnBuilder`]); any
//! other line takes the general decoder (UTF-8 check, field count, each
//! cell trimmed and sniffed or unescaped, strings interned by `&str`
//! lookup in the column's builder), and each finished column keeps the
//! vector it was parsed into. The relation loader then deduplicates once,
//! in [`Relation::from_columns`], under a `tsv/dedup` span whose `path`
//! names the way taken: `key_column` when one bitmap pass over a column's
//! span proves its cells pairwise distinct (no key packed, no table
//! built), `packed` on exact row keys when a row's cells fit in 64 bits,
//! `hashed` on row hashes otherwise. **Out:**
//! [`write_sorted`] ranks each dictionary once, sorts the rows as packed
//! integer keys (no row id when every column fits in one key; a large
//! answer's `u32` keys by radix sort), and formats each column's cells once
//! per key — a dictionary entry escaped, an integer of a narrow span through
//! itoa — so that printing a cell is one fixed 8- or 16-byte copy into a
//! reused buffer written in batches. A factorized answer
//! ([`crate::ops::Product`]) prints through [`write_product`], to the same
//! bytes: when one operand's attributes lead the head, it sorts and formats
//! the operands' rows, not the answer's, and prints each answer line as two
//! slot copies — a leading row's cells, then a row of its key group's —
//! and otherwise materializes and calls [`write_sorted`];
//! [`answer_to_tsv_writer`] picks the writer for an [`Answer`]. The
//! Grace-hash spill files (`ops/spill.rs`) are the same dialect without a
//! header: one line per tuple from the row formatter, read back by the
//! same parser.

use crate::attr::Catalog;
use crate::column::{Column, ColumnBuilder};
use crate::error::{Error, Result};
use crate::ops::columnar::{key_groups, NO_GROUP};
use crate::ops::{Answer, Product};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::sortkey::{permutation, sort_rows, used_entries, Key, Keys, SortColumn, SortedRows};
use crate::value::Value;
use std::io::{BufRead, Write};

/// Parse a relation from TSV text, interning attribute names into `catalog`.
///
/// Column order in the file may differ from canonical schema order; values
/// are permuted into place. Thin wrapper over [`relation_from_tsv_reader`].
pub fn relation_from_tsv(catalog: &mut Catalog, text: &str) -> Result<Relation> {
    relation_from_tsv_reader(catalog, text.as_bytes())
}

/// Parse a relation from any [`std::io::BufRead`] source (a `File` behind a
/// `BufReader`, a byte slice, a pipe), block by block as the source hands
/// them out — never the whole file as a `String`. I/O failures surface as
/// [`Error::Parse`] like any other malformed input. Duplicate tuples keep
/// their first occurrence, in file order.
pub fn relation_from_tsv_reader<R: BufRead>(catalog: &mut Catalog, reader: R) -> Result<Relation> {
    let (schema, cols, nrows) = Parser::parse(Some(catalog), Vec::new(), reader)?;
    let Some(schema) = schema else {
        return Err(Error::Parse("TSV input has no header line".to_string()));
    };
    let mut sp = mjoin_trace::span("tsv", "dedup");
    let (rel, path) = Relation::from_columns_via(schema, nrows, cols);
    sp.arg("path", path);
    Ok(rel)
}

/// Parse header-less body lines, as a [`RowFormatter`] wrote them, into a
/// relation over `schema`: cells land positionally in canonical order, and
/// the caller vouches that the tuples are distinct (a spill partition's are,
/// because its operand's are).
pub(crate) fn relation_from_tsv_body<R: BufRead>(reader: R, schema: &Schema) -> Result<Relation> {
    let (_, cols, nrows) = Parser::parse(None, (0..schema.arity()).collect(), reader)?;
    Ok(Relation::from_distinct_columns(schema.clone(), nrows, cols))
}

/// The one TSV parser: an optional header line, then tuples, cell `i` of
/// each line going to column `dest[i]` (no deduplication).
#[derive(Default)]
struct Parser<'c> {
    /// Takes the header's names; `None` once it is read, or if there is none.
    header: Option<&'c mut Catalog>,
    schema: Option<Schema>,
    dest: Vec<usize>,
    builders: Vec<ColumnBuilder>,
    /// Fast-path scratch, a slot per column: empty, so that the fast path
    /// declines every line, until the header has fixed the arity.
    row: Vec<i64>,
    nrows: usize,
    /// Physical lines so far, blank ones and the header included: an error
    /// names the line an editor shows.
    lineno: usize,
    /// Tuple lines that left the fast path.
    general_lines: u64,
}

impl<'c> Parser<'c> {
    /// Parse all of `reader` on the blocks `fill_buf` hands out: complete
    /// lines in place, only a line that straddles a refill copied (into
    /// `carry`) — so a `&[u8]` parses zero-copy, a one-byte `BufReader` still
    /// works, and a delivered line's error comes before a later read error.
    /// Returns the header's schema if one was read, the columns, the row count.
    fn parse<R: BufRead>(
        header: Option<&'c mut Catalog>,
        dest: Vec<usize>,
        mut reader: R,
    ) -> Result<(Option<Schema>, Vec<Column>, usize)> {
        let _sp = mjoin_trace::span("tsv", "load");
        let mut p = Parser {
            header,
            ..Parser::default()
        };
        p.aim(dest);
        // Allocated before the columns start growing, not among them.
        let (mut carry, mut bytes) = (Vec::with_capacity(256), 0u64);
        loop {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::Parse(format!("TSV read error: {e}"))),
            };
            if buf.is_empty() {
                break;
            }
            let mut done = 0;
            if !carry.is_empty() {
                let newline = buf.iter().position(|&b| b == b'\n');
                done = newline.map_or(buf.len(), |at| at + 1);
                carry.extend_from_slice(&buf[..done]);
                if carry.ends_with(b"\n") {
                    p.lines(&carry)?;
                    carry.clear();
                }
            }
            done += p.lines(&buf[done..])?;
            carry.extend_from_slice(&buf[done..]);
            let len = buf.len();
            bytes += len as u64;
            reader.consume(len);
        }
        // An unterminated last line; one trailing `\r` goes (see `lines`).
        if !carry.is_empty() {
            p.line(carry.strip_suffix(b"\r").unwrap_or(&carry))?;
        }
        // Row ids are `u32` throughout the kernels.
        if u32::try_from(p.nrows).is_err() {
            return Err(Error::Parse(format!(
                "TSV input has {} rows, more than a relation can index",
                p.nrows
            )));
        }
        mjoin_trace::add("tsv.bytes", bytes);
        mjoin_trace::add("tsv.rows", p.nrows as u64);
        mjoin_trace::add("tsv.general_lines", p.general_lines);
        let cols = p.builders.into_iter().map(ColumnBuilder::finish);
        Ok((p.schema, cols.collect(), p.nrows))
    }

    /// Send cell `i` of every following line to column `dest[i]`.
    fn aim(&mut self, dest: Vec<usize>) {
        self.builders = dest.iter().map(|_| ColumnBuilder::default()).collect();
        self.row = vec![0; dest.len()];
        self.dest = dest;
    }

    /// Parse the complete lines at the front of `bytes`, returning the bytes
    /// they span: each is tried as an integer row, scanned once, and handed
    /// to [`Self::line`] otherwise. A `\n` ending takes a preceding `\r` with
    /// it, and one more trailing `\r` goes either way: clients send CRLF and
    /// unterminated last lines, and a raw trailing `\r` can only be an
    /// artifact of that — inside a string value it travels escaped.
    fn lines(&mut self, bytes: &[u8]) -> Result<usize> {
        let mut at = 0;
        while at < bytes.len() {
            if let Some(n) = int_row(&bytes[at..], &mut self.row) {
                for (&v, &d) in self.row.iter().zip(&self.dest) {
                    self.builders[d].push_int(v);
                }
                self.nrows += 1;
                self.lineno += 1;
                at += n;
                continue;
            }
            let Some(end) = bytes[at..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let line = &bytes[at..at + end];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            self.line(line.strip_suffix(b"\r").unwrap_or(line))?;
            at += end + 1;
        }
        Ok(at)
    }

    /// The general decoder for one line, given without its ending: UTF-8
    /// check, blank skip, then the header or a tuple of sniffed cells.
    fn line(&mut self, raw: &[u8]) -> Result<()> {
        self.lineno += 1;
        let lineno = self.lineno;
        let Ok(line) = std::str::from_utf8(raw) else {
            return Err(Error::Parse(
                "TSV read error: stream did not contain valid UTF-8".to_string(),
            ));
        };
        if line.trim().is_empty() {
            return Ok(());
        }
        if let Some(catalog) = self.header.take() {
            return self.read_header(catalog, line);
        }
        let found = line.bytes().filter(|&b| b == b'\t').count() + 1;
        if found != self.dest.len() {
            return Err(Error::Parse(format!(
                "line {lineno}: expected {} values, found {found}",
                self.dest.len()
            )));
        }
        for (cell, &d) in line.split('\t').zip(&self.dest) {
            push_cell_from_tsv(&mut self.builders[d], cell, lineno)?;
        }
        self.nrows += 1;
        self.general_lines += 1;
        Ok(())
    }

    /// Intern the header's names and aim each file column at its position
    /// in the canonical schema.
    fn read_header(&mut self, catalog: &mut Catalog, header: &str) -> Result<()> {
        let col_names: Vec<&str> = header.split('\t').map(str::trim).collect();
        if col_names.iter().any(|n| n.is_empty()) {
            return Err(Error::Parse(
                "empty attribute name in TSV header".to_string(),
            ));
        }
        let col_ids: Vec<_> = col_names.iter().map(|n| catalog.intern(n)).collect();
        let schema = Schema::new(col_ids.clone());
        if schema.arity() != col_ids.len() {
            return Err(Error::Parse(
                "duplicate attribute in TSV header".to_string(),
            ));
        }
        let position = |id| schema.position(id).expect("interned above");
        self.aim(col_ids.into_iter().map(position).collect());
        self.schema = Some(schema);
        Ok(())
    }
}

/// Try the front of `bytes` as a line of exactly `row.len()` cells of
/// `-?[0-9]{1,18}`, tab-separated and ended by `\n` or `\r\n`: on a match the
/// values are in `row` and the line's length, ending included, is returned.
/// Eighteen digits cannot overflow and the match is ASCII, so it needs no
/// UTF-8 check; anything else (`+5`, padding, a 19th digit, a line the block
/// does not hold to its end) is left to the general decoder, which reads
/// every matching line to the same values.
fn int_row(bytes: &[u8], row: &mut [i64]) -> Option<usize> {
    let last = row.len().checked_sub(1)?;
    let mut at = 0;
    for (k, slot) in row.iter_mut().enumerate() {
        let neg = bytes.get(at) == Some(&b'-');
        at += usize::from(neg);
        let (start, mut v) = (at, 0i64);
        while let Some(d) = bytes.get(at).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 || at - start == 18 {
                break;
            }
            v = v * 10 + i64::from(d);
            at += 1;
        }
        *slot = if neg { -v } else { v };
        match bytes.get(at..)? {
            _ if at == start => return None,
            [b'\t', ..] if k < last => at += 1,
            [b'\n', ..] if k == last => return Some(at + 1),
            [b'\r', b'\n', ..] if k == last => return Some(at + 2),
            _ => return None,
        }
    }
    None
}

/// Decode one TSV cell into `col`. A cell without a backslash takes the
/// historical path (trim, then sniff for an integer); a cell with one is an
/// escaped string and decodes verbatim — no trim, no integer sniffing.
fn push_cell_from_tsv(col: &mut ColumnBuilder, cell: &str, lineno: usize) -> Result<()> {
    if !cell.contains('\\') {
        let cell = cell.trim();
        match cell.parse::<i64>() {
            Ok(v) => col.push_int(v),
            Err(_) => col.push_str(cell),
        }
        return Ok(());
    }
    let body = cell.strip_prefix("\\s").unwrap_or(cell);
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                let what = other.map_or("at end of cell".to_string(), |c| format!("`\\{c}`"));
                return Err(Error::Parse(format!(
                    "line {lineno}: unknown TSV escape {what}"
                )));
            }
        }
    }
    col.push_str(&out);
    Ok(())
}

/// Append one boxed tuple to `buf` as a TSV line — tab-separated escaped
/// cells, then `\n` — for callers that hold tuples rather than a relation
/// (Datalog facts). Relations print through [`write_sorted`].
pub fn push_row(buf: &mut Vec<u8>, row: &[Value]) {
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            buf.push(b'\t');
        }
        push_cell(buf, v);
    }
    buf.push(b'\n');
}

/// Append one value to `buf` as a TSV cell, escaping whatever would corrupt
/// the file (tabs and newlines inside strings) or mis-decode on re-import
/// (strings that look like integers, empty strings, surrounding whitespace).
fn push_cell(buf: &mut Vec<u8>, v: &Value) {
    let s = match v {
        Value::Int(i) => return push_int(buf, *i),
        Value::Str(s) => s,
    };
    if s.is_empty() || s.trim().len() != s.len() || s.parse::<i64>().is_ok() {
        buf.extend_from_slice(b"\\s");
    }
    for b in s.bytes() {
        match b {
            b'\\' => buf.extend_from_slice(b"\\\\"),
            b'\t' => buf.extend_from_slice(b"\\t"),
            b'\n' => buf.extend_from_slice(b"\\n"),
            b'\r' => buf.extend_from_slice(b"\\r"),
            b => buf.push(b),
        }
    }
}

/// `v` in decimal, produced backwards at the end of `tmp` so that nothing
/// allocates: the digits are `tmp[at..]` for the `at` returned.
fn itoa(v: i64, tmp: &mut [u8; 20]) -> usize {
    let mut at = tmp.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        tmp[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        tmp[at] = b'-';
    }
    at
}

/// Append `v` in decimal.
fn push_int(buf: &mut Vec<u8>, v: i64) {
    let mut tmp = [0u8; 20];
    let at = itoa(v, &mut tmp);
    buf.extend_from_slice(&tmp[at..]);
}

/// Escaped TSV cells in one arena, addressed by slot — a dictionary code
/// for the [`RowFormatter`], a sort key for [`write_sorted`] — so each
/// distinct value is escaped once however many rows carry it.
struct Cells {
    /// `bytes[starts[s]..starts[s + 1]]` is slot `s`.
    starts: Vec<usize>,
    bytes: Vec<u8>,
}

impl Cells {
    /// Slots `0..n`, slot `s` being what `fill(s, bytes)` appends.
    fn of(n: usize, mut fill: impl FnMut(usize, &mut Vec<u8>)) -> Self {
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        let mut bytes = Vec::new();
        for s in 0..n {
            fill(s, &mut bytes);
            starts.push(bytes.len());
        }
        Cells { starts, bytes }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    #[inline]
    fn get(&self, slot: usize) -> &[u8] {
        &self.bytes[self.starts[slot]..self.starts[slot + 1]]
    }

    /// The cells as fixed `W`-byte slots: the cell, padding, and its length
    /// in the last byte. Every cell must be shorter than `W`.
    fn slots<const W: usize>(&self) -> Vec<[u8; W]> {
        let slot = |s: usize| {
            let cell = self.get(s);
            debug_assert!(cell.len() < W, "the last byte holds the length");
            let mut slot = [0u8; W];
            slot[..cell.len()].copy_from_slice(cell);
            slot[W - 1] = cell.len() as u8;
            slot
        };
        (0..self.len()).map(slot).collect()
    }
}

/// Formats rows of a set of columns as TSV lines, in any order the caller
/// asks for them (the spill partitioner's): integers through an in-place
/// itoa, dictionary cells copied from their escaped form.
pub(crate) struct RowFormatter<'a> {
    cols: Vec<(&'a Column, Cells)>,
}

impl<'a> RowFormatter<'a> {
    /// Prepare `cols` (in output order) for formatting.
    pub(crate) fn new(cols: &[&'a Column]) -> Self {
        let escaped = |c: &Column| match c {
            Column::Int(_) => Cells::of(0, |_, _| {}),
            Column::Dict { codes, dict } => {
                let used = used_entries(codes, dict.len());
                Cells::of(dict.len(), |c, bytes| {
                    if used[c] {
                        push_cell(bytes, dict.value(c as u32));
                    }
                })
            }
        };
        RowFormatter {
            cols: cols.iter().map(|&c| (c, escaped(c))).collect(),
        }
    }

    /// Append row `i` to `buf` as one line: tab-separated cells, then `\n`.
    pub(crate) fn push_row(&self, i: usize, buf: &mut Vec<u8>) {
        for (k, (col, cells)) in self.cols.iter().enumerate() {
            if k > 0 {
                buf.push(b'\t');
            }
            match col {
                Column::Int(c) => push_int(buf, c.get(i)),
                Column::Dict { codes, .. } => buf.extend_from_slice(cells.get(codes[i] as usize)),
            }
        }
        buf.push(b'\n');
    }
}

/// One output column's cells for [`write_sorted`], addressed by sort key,
/// each followed by its separator (a tab, or the newline ending the row).
enum KeyCells {
    /// Cells of at most 7 bytes, separator included, as 8-byte slots: one
    /// fixed copy prints a cell, its length read from the slot's last byte.
    Slots8(Vec<[u8; 8]>),
    /// Cells of at most 15 bytes, as 16-byte slots.
    Slots16(Vec<[u8; 16]>),
    /// Longer cells, copied at their length, the longest `longest` bytes.
    Long { cells: Cells, longest: usize },
    /// Integers whose span is too wide for a table of one slot per key:
    /// formatted per row from `min + key`.
    Int { min: i64, sep: u8 },
}

impl KeyCells {
    /// The cells of `col`, whose keys go up to `max_key`, among `nrows` rows.
    /// An integer column gets a table only when its span is at most
    /// `max(nrows, 1024)` keys: never more slots than rows, short of 1,024.
    fn new(col: &SortColumn, max_key: u64, nrows: usize, sep: u8) -> Self {
        let cells = match *col {
            SortColumn::Int(c) if max_key < nrows.max(1024) as u64 => {
                let min = c.span().min;
                Cells::of(max_key as usize + 1, |k, bytes| {
                    push_int(bytes, min.wrapping_add(k as i64));
                    bytes.push(sep);
                })
            }
            SortColumn::Int(c) => {
                return KeyCells::Int {
                    min: c.span().min,
                    sep,
                }
            }
            SortColumn::Ranked {
                dict, ref by_rank, ..
            } => Cells::of(by_rank.len(), |r, bytes| {
                push_cell(bytes, dict.value(by_rank[r]));
                bytes.push(sep);
            }),
        };
        KeyCells::of(cells)
    }

    /// `cells` as fixed slots when each fits one, else at their lengths.
    fn of(cells: Cells) -> Self {
        let longest = (0..cells.len())
            .map(|s| cells.get(s).len())
            .max()
            .unwrap_or(0);
        match longest {
            0..8 => KeyCells::Slots8(cells.slots()),
            8..16 => KeyCells::Slots16(cells.slots()),
            _ => KeyCells::Long { cells, longest },
        }
    }

    /// The most bytes [`Self::put`] writes (past its cell's true length).
    fn reach(&self) -> usize {
        match self {
            KeyCells::Slots8(_) => 8,
            KeyCells::Slots16(_) => 16,
            KeyCells::Long { longest, .. } => *longest,
            KeyCells::Int { .. } => 21,
        }
    }

    /// Write the cell for `key` at `buf[pos..]`; returns the position after
    /// it. `buf` must hold [`Self::reach`] bytes from `pos`.
    #[inline]
    fn put(&self, key: u64, buf: &mut [u8], pos: usize) -> usize {
        match self {
            KeyCells::Slots8(slots) => {
                let slot = &slots[key as usize];
                buf[pos..pos + 8].copy_from_slice(slot);
                pos + usize::from(slot[7])
            }
            KeyCells::Slots16(slots) => {
                let slot = &slots[key as usize];
                buf[pos..pos + 16].copy_from_slice(slot);
                pos + usize::from(slot[15])
            }
            KeyCells::Long { cells, .. } => {
                let cell = cells.get(key as usize);
                buf[pos..pos + cell.len()].copy_from_slice(cell);
                pos + cell.len()
            }
            &KeyCells::Int { min, sep } => {
                let mut tmp = [0u8; 20];
                let at = itoa(min.wrapping_add(key as i64), &mut tmp);
                let end = pos + tmp.len() - at;
                buf[pos..end].copy_from_slice(&tmp[at..]);
                buf[end] = sep;
                end + 1
            }
        }
    }
}

/// Output is handed to the sink in batches of about this many bytes.
const WRITE_BATCH: usize = 64 * 1024;

/// Write `header` and then the `nrows` tuples held column-wise in `cols`,
/// sorted by the [`Value`] order on `cols` left to right — the one TSV
/// writer. `cols` are in *output* order (a column may repeat); `nrows` is
/// explicit because a nullary answer has no column to carry it.
///
/// No row is materialized and no comparison walks a dictionary. Every cell
/// becomes an order-preserving integer key (an integer's distance from its
/// column's minimum, which the column stores, so its largest key is the
/// stored span and no pass finds it; a dictionary entry's rank, the
/// dictionary being sorted once). The columns are packed into one integer
/// per row — the narrowest of `u32`, `u64` and `u128` that holds them, with
/// a row id only when not all of them fit — and sorted as integers, by an
/// LSD radix sort for `u32` keys of 4,096 rows or more. Runs that tie on the
/// packed prefix are refined by integer compares on the remaining columns.
/// Packed columns are then printed from the sorted keys themselves, and
/// only the remaining ones are gathered by row id. Each column's cells are
/// formatted once per key with their separator: a dictionary's used
/// entries, and an integer column's whole span when that is at most
/// `max(nrows, 1024)` keys (wider ones are formatted per row). A cell of up
/// to 15 bytes is then one fixed 8- or 16-byte copy into the batch buffer.
///
/// Transient memory is at most 16 bytes per row while sorting (`u128`
/// keys, `u64` keys, or `u32` keys beside the radix sort's scratch), then
/// the keys and each column's cell table: a slot per dictionary entry in
/// use, and for an integer column at most `max(nrows, 1024)` slots. Rows
/// are formatted into one reused buffer handed to `out` in batches of
/// 64 KiB.
pub fn write_sorted<W: Write>(
    header: &[impl AsRef<str>],
    cols: &[&Column],
    nrows: usize,
    out: &mut W,
) -> std::io::Result<()> {
    debug_assert!(cols.iter().all(|c| c.len() == nrows));
    let _sp = mjoin_trace::span("tsv", "write");
    let mut buf = header_line(header);

    let rank = mjoin_trace::span("tsv", "rank");
    let cols: Vec<(SortColumn, u64)> = cols.iter().map(|c| SortColumn::new(c)).collect();
    drop(rank);
    let sort = mjoin_trace::span("tsv", "sort");
    let sorted = sort_rows(&cols, nrows, false);
    drop(sort);
    let format = mjoin_trace::span("tsv", "format");
    let last = cols.len().saturating_sub(1);
    let cells: Vec<KeyCells> = cols
        .iter()
        .enumerate()
        .map(|(j, (col, max_key))| {
            let sep = if j == last { b'\n' } else { b'\t' };
            KeyCells::new(col, *max_key, nrows, sep)
        })
        .collect();
    let bytes = if cols.is_empty() {
        // A nullary row is its line ending alone.
        buf.resize(buf.len() + nrows, b'\n');
        out.write_all(&buf)?;
        buf.len()
    } else {
        match &sorted.keys {
            Keys::U32(keys) => write_rows(keys, &sorted, &cols, &cells, buf, out)?,
            Keys::U64(keys) => write_rows(keys, &sorted, &cols, &cells, buf, out)?,
            Keys::U128(keys) => write_rows(keys, &sorted, &cols, &cells, buf, out)?,
        }
    };
    drop(format);
    mjoin_trace::add("tsv.write_rows", nrows as u64);
    mjoin_trace::add("tsv.write_bytes", bytes as u64);
    Ok(())
}

/// The header line: `header`'s names, tab-separated, then `\n`.
fn header_line(header: &[impl AsRef<str>]) -> Vec<u8> {
    let mut buf: Vec<u8> = Vec::new();
    for (i, name) in header.iter().enumerate() {
        if i > 0 {
            buf.push(b'\t');
        }
        buf.extend_from_slice(name.as_ref().as_bytes());
    }
    buf.push(b'\n');
    buf
}

/// Format the rows `keys` stand for — `cols`' packed cells read from the
/// keys, the rest gathered by row id, each printed from its `cells` — after
/// what `buf` holds, handing batches to `out`; returns the bytes written.
fn write_rows<K: Key, W: Write>(
    keys: &[K],
    sorted: &SortedRows,
    cols: &[(SortColumn, u64)],
    cells: &[KeyCells],
    mut buf: Vec<u8>,
    out: &mut W,
) -> std::io::Result<usize> {
    let (fields, row) = (&sorted.fields, sorted.row);
    let (packed, rest) = cells.split_at(fields.len());
    let rest: Vec<_> = cols[fields.len()..].iter().zip(rest).collect();
    let reach: usize = cells.iter().map(KeyCells::reach).sum();
    let mut pos = buf.len();
    buf.resize(pos + WRITE_BATCH + reach, 0);
    let mut written = 0;
    for &k in keys {
        for (field, cells) in fields.iter().zip(packed) {
            pos = cells.put(field.get(k), &mut buf, pos);
        }
        for ((col, _), cells) in &rest {
            pos = cells.put(col.key(row.get(k) as usize), &mut buf, pos);
        }
        if pos >= WRITE_BATCH {
            out.write_all(&buf[..pos])?;
            written += pos;
            pos = 0;
        }
    }
    out.write_all(&buf[..pos])?;
    Ok(written + pos)
}

/// Write `header` and then `product`'s rows in schema order — byte for
/// byte what [`write_sorted`] prints for the materialized rows — sorting
/// and formatting operand rows, not answer rows, when one operand leads.
///
/// An operand leads when its attributes, key included, are the schema's
/// first ones, so that the other operand's non-key attributes are the
/// rest. Then the sorted answer is: for each leading row in sorted order,
/// the rows of its key group on the other side, sorted by their non-key
/// cells (leading rows are distinct, and so are a group's rows, which
/// share their key). The writer concatenates each side's parts, groups the
/// other side by key, sorts both sides' rows by `permutation`, formats
/// each row once through the `KeyCells` tables — a leading row's cells
/// as a prefix, a group row's non-key cells as a suffix — and prints each
/// answer line as two copies, prefix then suffix. Any other schema order
/// materializes the product and goes through [`write_sorted`]. The spans
/// and counters are [`write_sorted`]'s: `tsv/write` over `tsv/rank`,
/// `tsv/sort` and `tsv/format`, `tsv.write_rows` the answer's rows.
pub fn write_product<W: Write>(
    header: &[impl AsRef<str>],
    product: &Product,
    out: &mut W,
) -> std::io::Result<()> {
    let head = product.schema().attrs();
    let (a, b) = product.operands();
    let lead = [a, b].into_iter().find(|s| head.starts_with(s.attrs()));
    let Some(lead) = lead.filter(|_| !head.is_empty() && !product.is_empty()) else {
        let rel = product.materialize();
        let cols: Vec<&Column> = rel.columns().iter().collect();
        return write_sorted(header, &cols, rel.len(), out);
    };
    let _sp = mjoin_trace::span("tsv", "write");
    let buf = header_line(header);

    let rank = mjoin_trace::span("tsv", "rank");
    let (leading, other): (Vec<&Relation>, Vec<&Relation>) = product
        .pairs()
        .into_iter()
        .map(|(built, probe)| match built.schema() == lead {
            true => (built, probe),
            false => (probe, built),
        })
        .unzip();
    let (leading, other) = (concat(&leading), concat(&other));
    let (other_group, lead_group, groups) = key_groups(&other, &leading);
    let rest: Vec<&Column> = (other.schema().attrs().iter().zip(other.columns()))
        .filter(|&(&attr, _)| !lead.contains(attr))
        .map(|(_, col)| col)
        .collect();
    let lead_cols: Vec<(SortColumn, u64)> = leading.columns().iter().map(SortColumn::new).collect();
    let rest_cols: Vec<(SortColumn, u64)> = rest.iter().map(|c| SortColumn::new(c)).collect();
    drop(rank);

    let sort = mjoin_trace::span("tsv", "sort");
    let kept: Vec<u32> = permutation(&lead_cols, leading.len())
        .into_iter()
        .filter(|&r| lead_group[r as usize] != NO_GROUP)
        .collect();
    // Each group's rows, sorted, at `members[starts[g]..starts[g + 1]]`.
    let mut starts = vec![0usize; groups + 1];
    for &g in &other_group {
        starts[g as usize + 1] += 1;
    }
    for g in 0..groups {
        starts[g + 1] += starts[g];
    }
    let mut next = starts.clone();
    let mut members = vec![0u32; other.len()];
    for r in permutation(&rest_cols, other.len()) {
        let at = &mut next[other_group[r as usize] as usize];
        members[*at] = r;
        *at += 1;
    }
    let group_len = |r: u32| {
        let g = lead_group[r as usize] as usize;
        starts[g + 1] - starts[g]
    };
    debug_assert_eq!(
        kept.iter().map(|&r| group_len(r)).sum::<usize>(),
        product.len(),
        "a product's length is the pairs its groups make"
    );
    drop(sort);

    let format = mjoin_trace::span("tsv", "format");
    let last = lead_cols.len() + rest_cols.len() - 1;
    let tables = |cols: &[(SortColumn, u64)], nrows: usize, first: usize| -> Vec<KeyCells> {
        let sep = |j: usize| if first + j == last { b'\n' } else { b'\t' };
        let cols = cols.iter().enumerate();
        cols.map(|(j, (col, max_key))| KeyCells::new(col, *max_key, nrows, sep(j)))
            .collect()
    };
    let lead_cells = tables(&lead_cols, leading.len(), 0);
    let rest_cells = tables(&rest_cols, other.len(), lead_cols.len());
    let prefixes = KeyCells::of(Cells::of(kept.len(), |i, bytes| {
        push_keyed(bytes, &lead_cols, &lead_cells, kept[i] as usize);
    }));
    let suffixes = KeyCells::of(Cells::of(members.len(), |s, bytes| {
        push_keyed(bytes, &rest_cols, &rest_cells, members[s] as usize);
    }));
    let lines = kept.iter().enumerate().flat_map(|(i, &r)| {
        let g = lead_group[r as usize] as usize;
        (starts[g]..starts[g + 1]).map(move |s| (i as u64, s as u64))
    });
    let bytes = write_lines(lines, &prefixes, &suffixes, buf, out)?;
    drop(format);
    mjoin_trace::add("tsv.write_rows", product.len() as u64);
    mjoin_trace::add("tsv.write_bytes", bytes as u64);
    Ok(())
}

/// `parts`' rows, one relation after another, in one relation over their
/// (shared) schema; the caller vouches the parts are disjoint.
fn concat(parts: &[&Relation]) -> Relation {
    match parts {
        [one] => (*one).clone(),
        _ => {
            let ids: Vec<Vec<u32>> = (parts.iter())
                .map(|r| (0..r.len() as u32).collect())
                .collect();
            let cols = (0..parts[0].schema().arity())
                .map(|j| {
                    let sel: Vec<(&Column, &[u32])> = (parts.iter().zip(&ids))
                        .map(|(r, ids)| (&r.columns()[j], ids.as_slice()))
                        .collect();
                    Column::concat_gathered(&sel)
                })
                .collect();
            let nrows = ids.iter().map(Vec::len).sum();
            Relation::from_distinct_columns(parts[0].schema().clone(), nrows, cols)
        }
    }
}

/// Append row `row`'s cells of `cols` to `bytes`, each from its table.
fn push_keyed(bytes: &mut Vec<u8>, cols: &[(SortColumn, u64)], cells: &[KeyCells], row: usize) {
    for ((col, _), cells) in cols.iter().zip(cells) {
        let pos = bytes.len();
        bytes.resize(pos + cells.reach(), 0);
        let end = cells.put(col.key(row), bytes, pos);
        bytes.truncate(end);
    }
}

/// Print each `(prefix, suffix)` slot pair of `lines` as one line after
/// what `buf` holds, handing batches to `out`; returns the bytes written.
fn write_lines<W: Write>(
    lines: impl Iterator<Item = (u64, u64)>,
    prefixes: &KeyCells,
    suffixes: &KeyCells,
    mut buf: Vec<u8>,
    out: &mut W,
) -> std::io::Result<usize> {
    let mut pos = buf.len();
    buf.resize(pos + WRITE_BATCH + prefixes.reach() + suffixes.reach(), 0);
    let mut written = 0;
    for (prefix, suffix) in lines {
        pos = prefixes.put(prefix, &mut buf, pos);
        pos = suffixes.put(suffix, &mut buf, pos);
        if pos >= WRITE_BATCH {
            out.write_all(&buf[..pos])?;
            written += pos;
            pos = 0;
        }
    }
    out.write_all(&buf[..pos])?;
    Ok(written + pos)
}

/// Stream an executor's [`Answer`] as TSV, canonical column order, sorted
/// rows: its rows (a selection's gathered first) through
/// [`relation_to_tsv_writer`], a product through [`write_product`] — the
/// same bytes either way.
pub fn answer_to_tsv_writer<W: Write>(
    catalog: &Catalog,
    answer: &Answer,
    out: &mut W,
) -> std::io::Result<()> {
    match answer {
        Answer::Rows(_) | Answer::Selection(_) => relation_to_tsv_writer(catalog, answer, out),
        Answer::Product(product) => write_product(&names(catalog, product.schema()), product, out),
    }
}

/// The names of `schema`'s attributes, in canonical order.
fn names<'c>(catalog: &'c Catalog, schema: &Schema) -> Vec<&'c str> {
    schema.attrs().iter().map(|&a| catalog.name(a)).collect()
}

/// Stream a relation as TSV (canonical column order, sorted rows — the same
/// order as [`Relation::sorted_rows`]) into any [`std::io::Write`] sink,
/// through [`write_sorted`].
pub fn relation_to_tsv_writer<W: Write>(
    catalog: &Catalog,
    rel: &Relation,
    out: &mut W,
) -> std::io::Result<()> {
    let cols: Vec<&Column> = rel.columns().iter().collect();
    write_sorted(&names(catalog, rel.schema()), &cols, rel.len(), out)
}

/// Render a relation as TSV (canonical column order, sorted rows). Thin
/// wrapper over [`relation_to_tsv_writer`] collecting into a `String`.
pub fn relation_to_tsv(catalog: &Catalog, rel: &Relation) -> String {
    let mut out: Vec<u8> = Vec::new();
    relation_to_tsv_writer(catalog, rel, &mut out).expect("Vec sink cannot fail");
    String::from_utf8(out).expect("TSV output is UTF-8")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut c = Catalog::new();
        let text = "A\tB\n1\t2\n3\thello\n";
        let rel = relation_from_tsv(&mut c, text).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(rel.contains_row(&[Value::Int(1), Value::Int(2)]));
        assert!(rel.contains_row(&[Value::Int(3), Value::str("hello")]));
        let rendered = relation_to_tsv(&c, &rel);
        let rel2 = relation_from_tsv(&mut c, &rendered).unwrap();
        assert_eq!(rel, rel2);
    }

    #[test]
    fn permuted_header_columns_land_canonically() {
        let mut c = Catalog::new();
        c.intern("A"); // make A have the smaller id
        c.intern("B");
        let rel = relation_from_tsv(&mut c, "B\tA\n2\t1\n").unwrap();
        // Canonical order is A, B.
        assert!(rel.contains_row(&[Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn errors() {
        let mut c = Catalog::new();
        assert!(relation_from_tsv(&mut c, "").is_err());
        assert!(relation_from_tsv(&mut c, "A\tA\n1\t2\n").is_err());
        assert!(relation_from_tsv(&mut c, "A\tB\n1\n").is_err());
        assert!(relation_from_tsv(&mut c, "A\t\n1\t2\n").is_err());
    }

    #[test]
    fn blank_lines_ignored_and_dedup() {
        let mut c = Catalog::new();
        let rel = relation_from_tsv(&mut c, "A\n\n1\n1\n\n2\n").unwrap();
        assert_eq!(rel.len(), 2);
    }

    /// Regression: strings containing tabs or newlines used to be written
    /// verbatim, silently corrupting the file's row/column structure.
    #[test]
    fn hostile_strings_roundtrip() {
        let mut c = Catalog::new();
        let schema = Schema::from_chars(&mut c, "AB");
        let hostile = [
            "tab\there",
            "line\nbreak",
            "cr\rhere",
            "back\\slash",
            "\\t not a tab",
            "007",        // would re-parse as Int(7)
            "-0",         // would re-parse as Int(0)
            "",           // empty string ≠ missing value
            "  padded  ", // trim would eat the spaces
            " \t mixed \n ",
        ];
        let rows = hostile
            .iter()
            .enumerate()
            .map(|(i, s)| vec![Value::Int(i as i64), Value::str(*s)].into())
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let text = relation_to_tsv(&c, &rel);
        // The payload never leaks a raw tab/newline into the file body: every
        // data line has exactly one tab (the A/B separator).
        for line in text.lines().skip(1) {
            assert_eq!(line.matches('\t').count(), 1, "corrupt line: {line:?}");
        }
        let back = relation_from_tsv(&mut c, &text).unwrap();
        assert_eq!(back, rel);
    }

    /// The streaming reader is the same parser: identical result on good
    /// input, identical line numbering in errors (physical lines: the blank
    /// one counts), and I/O failures surface as parse errors.
    #[test]
    fn reader_streams_like_the_string_parser() {
        let mut c = Catalog::new();
        let text = "A\tB\n\n1\t2\n\n3\thi\n";
        let from_str = relation_from_tsv(&mut c, text).unwrap();
        let from_reader =
            relation_from_tsv_reader(&mut c, std::io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(from_str, from_reader);

        let bad = "A\tB\n\n1\t2\n3\n";
        let e1 = relation_from_tsv(&mut c, bad).unwrap_err().to_string();
        let e2 = relation_from_tsv_reader(&mut c, bad.as_bytes())
            .unwrap_err()
            .to_string();
        assert_eq!(e1, e2);
        assert!(e1.contains("line 4"), "{e1}");
        // Blank lines before the header shift the numbers too.
        let e = relation_from_tsv(&mut c, "\n\nA\tB\n1\t2\n3\\q\t4\n").unwrap_err();
        assert!(e.to_string().contains("line 5: unknown TSV escape"), "{e}");

        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        let err = relation_from_tsv_reader(&mut c, std::io::BufReader::new(Failing)).unwrap_err();
        assert!(err.to_string().contains("TSV read error"), "{err}");
    }

    /// Reference cell encoder: the row writer this module used to have,
    /// kept so the tests hold [`push_cell`] and the [`RowFormatter`] to an
    /// independent implementation.
    pub(crate) fn cell_to_tsv(v: &Value) -> String {
        let s = match v {
            Value::Int(i) => return i.to_string(),
            Value::Str(s) => s,
        };
        let needs_marker = s.is_empty() || s.trim().len() != s.len() || s.parse::<i64>().is_ok();
        let needs_escape = s.contains(['\\', '\t', '\n', '\r']);
        if !needs_marker && !needs_escape {
            return s.to_string();
        }
        let mut out = String::with_capacity(s.len() + 2);
        if needs_marker {
            out.push_str("\\s");
        }
        for ch in s.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out
    }

    /// Reference row encoder: one line, cells in the row's own order.
    pub(crate) fn row_to_tsv(row: &[Value]) -> String {
        let cells: Vec<String> = row.iter().map(cell_to_tsv).collect();
        cells.join("\t") + "\n"
    }

    /// Reference writer: header, then `sorted_rows()` through the
    /// reference row encoder.
    fn reference_tsv(c: &Catalog, rel: &Relation) -> String {
        let names: Vec<&str> = rel.schema().attrs().iter().map(|&a| c.name(a)).collect();
        let mut expect = names.join("\t") + "\n";
        for row in rel.sorted_rows() {
            expect.push_str(&row_to_tsv(&row));
        }
        expect
    }

    fn rel_of(c: &mut Catalog, scheme: &str, rows: Vec<Vec<Value>>) -> Relation {
        let schema = Schema::from_chars(c, scheme);
        Relation::from_tuples(schema, rows).unwrap()
    }

    /// The writer emits exactly what sorting the boxed rows and encoding
    /// them cell by cell does, on every column shape the sort and the
    /// formatter treat differently.
    #[test]
    fn writer_matches_sorted_row_rendering() {
        let mut c = Catalog::new();
        let nasty = [
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
        ];
        let mixed = |i: i64| match i % 3 {
            0 => Value::str(nasty[(i as usize / 3) % nasty.len()]),
            1 => Value::Int(i - 25),
            _ => Value::Int(-i),
        };
        let cases: Vec<Relation> = vec![
            // Int column beside a mixed Int/Str dictionary column.
            rel_of(
                &mut c,
                "AB",
                (0..50)
                    .map(|i| vec![Value::Int(97 - i), mixed(i)])
                    .collect(),
            ),
            // Extreme integers: one column alone needs all 64 key bits, so the
            // second and third are ordered by run refinement, not packing.
            rel_of(
                &mut c,
                "ABC",
                (0..60)
                    .map(|i| {
                        let a = [i64::MIN, -1, 0, i64::MAX][i as usize % 4];
                        let b = [i64::MAX, i64::MIN, 7][i as usize % 3];
                        vec![Value::Int(a), Value::Int(b), mixed(i)]
                    })
                    .collect(),
            ),
            // Arity 1, all strings (every one needing the marker or an escape).
            rel_of(
                &mut c,
                "A",
                nasty.iter().map(|s| vec![Value::str(s)]).collect(),
            ),
            rel_of(&mut c, "A", vec![vec![Value::Int(i64::MIN)]]),
            // The two nullary relations, and an empty one with columns.
            Relation::nullary_unit(),
            Relation::empty(Schema::empty()),
            Relation::empty(Schema::from_chars(&mut c, "AB")),
        ];
        for rel in &cases {
            let expect = reference_tsv(&c, rel);
            let mut sink: Vec<u8> = Vec::new();
            relation_to_tsv_writer(&c, rel, &mut sink).unwrap();
            assert_eq!(String::from_utf8(sink).unwrap(), expect);
            assert_eq!(relation_to_tsv(&c, rel), expect);
            // The boxed-tuple encoder and the column formatter agree with
            // the reference row by row.
            let cols: Vec<&Column> = rel.columns().iter().collect();
            let formatter = RowFormatter::new(&cols);
            for (i, row) in rel.rows().iter().enumerate() {
                let (mut boxed, mut formatted) = (Vec::new(), Vec::new());
                push_row(&mut boxed, row);
                formatter.push_row(i, &mut formatted);
                assert_eq!(String::from_utf8(boxed).unwrap(), row_to_tsv(row));
                assert_eq!(String::from_utf8(formatted).unwrap(), row_to_tsv(row));
            }
        }
        assert_eq!(relation_to_tsv(&c, &Relation::nullary_unit()), "\n\n");
    }

    /// Reference for [`write_sorted`] over any columns in output order
    /// (repeats allowed, rows not necessarily distinct): the rows' `Value`
    /// tuples sorted, through the reference row encoder.
    fn reference_write(header: &[String], cols: &[&Column], nrows: usize) -> String {
        let mut rows: Vec<Vec<Value>> = (0..nrows)
            .map(|i| cols.iter().map(|c| c.value(i)).collect())
            .collect();
        rows.sort();
        let body: String = rows.iter().map(|r| row_to_tsv(r)).collect();
        header.join("\t") + "\n" + &body
    }

    /// The writer against the references on generated columns that
    /// straddle each of its thresholds: the radix sort's 4,096 rows, the
    /// integer table's `max(nrows, 1024)` span, the `u32`/`u64`/`u128` key
    /// widths (`i64::MIN`/`MAX` columns, columns past 128 bits ordered by
    /// run refinement), dictionary columns of the nasty strings (slot and
    /// long cells), a repeated output column, nullary and empty inputs.
    /// Each distinct-attribute case is also loaded as a relation and
    /// printed by [`relation_to_tsv_writer`] against [`reference_tsv`].
    #[test]
    fn writer_matches_reference_across_thresholds() {
        use crate::sortkey::tests::{drawn, extremes, ints, nasty};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7e57);
        let mut cases: Vec<(usize, Vec<Column>)> = Vec::new();
        // The radix cut-off: three columns of 11 + 2 + 9 bits.
        for n in [4095, 4096, 4097, 10_000, rng.gen_range(1..10_000)] {
            let cols = vec![
                ints(&mut rng, n, 100_000, 1400),
                ints(&mut rng, n, 200_000, 4),
                ints(&mut rng, n, -400_000, 300),
            ];
            cases.push((n, cols));
        }
        // The integer table's span cut-off, at both ends of `i64` too.
        for n in [10, 1000, 1024, 1025, 3000] {
            let cut = n.max(1024) as u64;
            for span in [cut, cut + 1] {
                for lo in [-7, i64::MIN, i64::MAX - (span as i64 - 1)] {
                    let cols = vec![ints(&mut rng, n, lo, span), ints(&mut rng, n, 0, 3)];
                    cases.push((n, cols));
                }
            }
        }
        // Key widths: 32 and 33 bits; one 64-bit column alone, then beside
        // another; three, of which the last is refined by row id.
        for n in [500, 5000] {
            for span in [1 << 16, (1 << 16) + 1] {
                cases.push((
                    n,
                    vec![ints(&mut rng, n, 0, 1 << 16), ints(&mut rng, n, 9, span)],
                ));
            }
            for k in 1..=3 {
                let cols = (0..k).map(|_| drawn(&mut rng, n, &extremes())).collect();
                cases.push((n, cols));
            }
            let cols = vec![
                drawn(&mut rng, n, &extremes()),
                drawn(&mut rng, n, &nasty()),
                drawn(&mut rng, n, &extremes()),
                ints(&mut rng, n, 5, 1 << 40),
            ];
            cases.push((n, cols));
        }
        // Dictionary columns: nasty strings alone, and words whose longest
        // cell with its separator is 7, 8, 15 or 16 bytes (either side of
        // each slot width) beside six-digit integers.
        for n in [1, 2, 50, 4096, 6000] {
            let cols = vec![drawn(&mut rng, n, &nasty()), drawn(&mut rng, n, &nasty())];
            cases.push((n, cols));
            for longest in [6, 7, 14, 15] {
                let words = ["b", "é", &"z".repeat(longest)].map(Value::str);
                let cols = vec![
                    ints(&mut rng, n, 100_000, 900_000),
                    drawn(&mut rng, n, &words),
                ];
                cases.push((n, cols));
            }
        }
        // Empty inputs with columns.
        cases.push((
            0,
            vec![ints(&mut rng, 0, 0, 1), drawn(&mut rng, 0, &nasty())],
        ));

        let mut c = Catalog::new();
        for (n, cols) in &cases {
            let header: Vec<String> = (0..cols.len()).map(|j| format!("c{j}")).collect();
            let refs: Vec<&Column> = cols.iter().collect();
            let mut got = Vec::new();
            write_sorted(&header, &refs, *n, &mut got).unwrap();
            let expect = reference_write(&header, &refs, *n);
            assert!(
                String::from_utf8(got).unwrap() == expect,
                "{n} rows, {} columns",
                cols.len()
            );
            // A repeated output column, first and last.
            let repeated: Vec<&Column> = refs.iter().chain(&refs[..1]).copied().collect();
            let header: Vec<String> = (0..repeated.len()).map(|j| format!("c{j}")).collect();
            let mut got = Vec::new();
            write_sorted(&header, &repeated, *n, &mut got).unwrap();
            assert!(String::from_utf8(got).unwrap() == reference_write(&header, &repeated, *n));
            // The same columns as a relation, deduplicated on load.
            let names: String = ('A'..).take(cols.len()).collect();
            let schema = Schema::from_chars(&mut c, &names);
            let rel = Relation::from_columns(schema, *n, cols.clone());
            let mut got = Vec::new();
            relation_to_tsv_writer(&c, &rel, &mut got).unwrap();
            assert!(String::from_utf8(got).unwrap() == reference_tsv(&c, &rel));
        }
        // Nullary: no row, and the one empty row.
        let none: [&str; 0] = [];
        for n in [0, 1] {
            let mut got = Vec::new();
            write_sorted(&none, &[], n, &mut got).unwrap();
            assert_eq!(got, b"\n".repeat(n + 1));
        }
    }

    /// A gathered column shares its source's pool: entries the column no
    /// longer uses are neither ranked nor escaped, and the order is still
    /// the `Value` order of the ones it does.
    #[test]
    fn writer_ranks_only_the_used_dictionary_entries() {
        let mut c = Catalog::new();
        let words = ["pear", "apple", "zebra", "fig", "mango", "kiwi"];
        let full = rel_of(
            &mut c,
            "AB",
            words
                .iter()
                .enumerate()
                .map(|(i, w)| vec![Value::str(w), Value::Int(i as i64)])
                .collect(),
        );
        let part = crate::ops::columnar::gather_relation(&full, &[4, 0, 2]);
        assert_eq!(part.columns()[0].dict().unwrap().len(), words.len());
        assert_eq!(
            relation_to_tsv(&c, &part),
            "A\tB\nmango\t4\npear\t0\nzebra\t2\n"
        );
    }

    /// 70 k rows cross the write-batch size many times over: the output is
    /// still byte-equal to the reference, it reaches the sink in batches,
    /// and a sink that fails on its k-th write surfaces exactly that error —
    /// whichever batch it hits, the last (partial) one included.
    #[test]
    fn writer_batches_and_propagates_sink_errors() {
        struct Sink {
            data: Vec<u8>,
            writes: usize,
            fail_at: usize,
        }
        impl std::io::Write for Sink {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                if self.writes == self.fail_at {
                    return Err(std::io::Error::other(format!(
                        "write {} failed",
                        self.writes
                    )));
                }
                self.data.extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut c = Catalog::new();
        let rel = rel_of(
            &mut c,
            "ABC",
            (0..70_000i64)
                .map(|i| {
                    vec![
                        Value::Int((i * 7919) % 1000 - 500),
                        Value::str(format!("s{}", i % 613)),
                        Value::Int(i),
                    ]
                })
                .collect(),
        );
        let expect = reference_tsv(&c, &rel);
        let mut ok = Sink {
            data: Vec::new(),
            writes: 0,
            fail_at: 0,
        };
        relation_to_tsv_writer(&c, &rel, &mut ok).unwrap();
        assert_eq!(String::from_utf8(ok.data).unwrap(), expect);
        let total = ok.writes;
        assert!(
            total >= expect.len() / (WRITE_BATCH + 4096) && total <= expect.len() / WRITE_BATCH + 1,
            "{total} writes for {} bytes",
            expect.len()
        );
        for fail_at in [1, 2, total / 2, total] {
            let mut sink = Sink {
                data: Vec::new(),
                writes: 0,
                fail_at,
            };
            let err = relation_to_tsv_writer(&c, &rel, &mut sink).unwrap_err();
            assert_eq!(err.to_string(), format!("write {fail_at} failed"));
        }
    }

    #[test]
    fn itoa_matches_display() {
        for v in [
            0,
            1,
            -1,
            9,
            10,
            -10,
            1234567890123,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ] {
            let mut buf = Vec::new();
            push_int(&mut buf, v);
            assert_eq!(String::from_utf8(buf).unwrap(), v.to_string());
        }
    }

    /// Network clients send CRLF line endings and files truncated before
    /// the final newline; both must parse identically to the LF-terminated
    /// canonical form — including the nasty combination of an *escaped*
    /// string cell on an unterminated CRLF final record, where the stray
    /// `\r` used to be absorbed verbatim into the decoded value.
    #[test]
    fn crlf_and_missing_final_newline() {
        let mut c = Catalog::new();
        let canonical = relation_from_tsv(&mut c, "A\tB\n1\t2\n3\thello\n").unwrap();
        for variant in [
            "A\tB\r\n1\t2\r\n3\thello\r\n", // CRLF throughout
            "A\tB\n1\t2\n3\thello",         // no final newline
            "A\tB\r\n1\t2\r\n3\thello\r",   // CRLF, final record unterminated
            "A\tB\r\n1\t2\n3\thello",       // mixed endings
        ] {
            let rel = relation_from_tsv(&mut c, variant).unwrap();
            assert_eq!(rel, canonical, "variant {variant:?}");
            let rel = relation_from_tsv_reader(&mut c, variant.as_bytes()).unwrap();
            assert_eq!(rel, canonical, "reader variant {variant:?}");
        }

        // Escaped cell in final position of an unterminated CRLF record:
        // the trailing \r is a line ending, not part of the value.
        let rel = relation_from_tsv(&mut c, "A\r\n\\shello\r").unwrap();
        assert!(rel.contains_row(&[Value::str("hello")]));
        // A carriage return that is *part of* the value survives, because
        // it travels escaped.
        let rel = relation_from_tsv(&mut c, "A\r\n\\shi\\r\r").unwrap();
        assert!(rel.contains_row(&[Value::str("hi\r")]));

        // Header-only file with no newline at all still parses (empty
        // relation), and a CRLF header interns clean attribute names.
        let rel = relation_from_tsv(&mut c, "A\tB").unwrap();
        assert_eq!(rel.len(), 0);
        let rel = relation_from_tsv(&mut c, "Z\tY\r\n1\t2\r\n").unwrap();
        assert!(c.lookup("Z").is_some() && c.lookup("Y").is_some());
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn plain_cells_keep_trim_and_int_sniffing() {
        let mut c = Catalog::new();
        let rel = relation_from_tsv(&mut c, "A\tB\n 1 \t hello \n").unwrap();
        assert!(rel.contains_row(&[Value::Int(1), Value::str("hello")]));
    }

    #[test]
    fn unknown_escape_is_rejected() {
        let mut c = Catalog::new();
        let err = relation_from_tsv(&mut c, "A\nfoo\\qbar\n").unwrap_err();
        assert!(err.to_string().contains("unknown TSV escape"), "{err}");
        // A trailing lone backslash is rejected too.
        assert!(relation_from_tsv(&mut c, "A\nfoo\\\n").is_err());
    }
}
