//! Property test: TSV export → import is the identity on relations, even
//! when string values contain the TSV metacharacters themselves (tabs,
//! newlines, backslashes) or shapes the importer would otherwise coerce
//! (leading zeros, surrounding whitespace, integer-looking digits).
//!
//! This pins the escaping contract of `mjoin_relation::tsv`: any `Relation`
//! a program can build must survive a round trip through the text format.
//!
//! The second half is a differential: the columnar loader against the
//! row-at-a-time parser it replaced, kept here as the reference — equal
//! relations, fingerprints and first-occurrence order on well-formed input,
//! the same error string on malformed input.

use mjoin::relation::tsv::{relation_from_tsv, relation_from_tsv_reader, relation_to_tsv};
use mjoin::relation::{AttrId, Catalog, Error, Relation, Row, Schema, Value};
use proptest::prelude::*;

/// Alphabet biased towards the characters the TSV escaping logic cares
/// about: separators, escapes, digits (integer sniffing), and whitespace
/// (trim sniffing), plus a few ordinary letters.
const ALPHABET: &[char] = &[
    '\t', '\n', '\r', '\\', 's', 't', '0', '1', '7', '-', ' ', 'a', 'Z', '.',
];

fn string_value() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..10)
        .prop_map(|idx| idx.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Either an integer or a hostile string, as a cell value.
fn cell() -> impl Strategy<Value = Value> {
    (0..4usize, -100..100i64, string_value()).prop_map(|(kind, n, s)| {
        if kind == 0 {
            Value::Int(n)
        } else {
            Value::str(s)
        }
    })
}

fn relation(catalog: &mut Catalog, rows: Vec<Vec<Value>>) -> Relation {
    let a = catalog.intern("A");
    let b = catalog.intern("B");
    let rows: Vec<Row> = rows.into_iter().map(Row::from).collect();
    Relation::from_rows(Schema::new(vec![a, b]), rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tsv_round_trip_is_identity(
        rows in prop::collection::vec(prop::collection::vec(cell(), 2), 0..12)
    ) {
        let mut catalog = Catalog::new();
        let original = relation(&mut catalog, rows);
        let text = relation_to_tsv(&catalog, &original);

        // The wire format itself stays line/tab structured: one header plus
        // one physical line per tuple, each with exactly one separator tab.
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len(), original.len() + 1, "text:\n{}", text);
        for line in &lines {
            prop_assert_eq!(
                line.matches('\t').count(), 1,
                "cell bytes leaked into the framing: {:?}", line
            );
        }

        let back = relation_from_tsv(&mut catalog, &text).unwrap();
        prop_assert_eq!(back, original);
    }

    /// Network clients re-frame the same records with CRLF endings and may
    /// omit the final newline; neither transformation of the *framing* may
    /// change the parsed relation (values containing \r or \n travel
    /// escaped, so only real line endings are rewritten here).
    #[test]
    fn tsv_round_trip_survives_crlf_and_unterminated_tail(
        rows in prop::collection::vec(prop::collection::vec(cell(), 2), 0..12),
        crlf in any::<bool>(),
        drop_final_newline in any::<bool>(),
    ) {
        let mut catalog = Catalog::new();
        let original = relation(&mut catalog, rows);
        let mut text = relation_to_tsv(&catalog, &original);
        if crlf {
            text = text.replace('\n', "\r\n");
        }
        if drop_final_newline {
            // Strip the terminator of the last physical line ("\n" or
            // "\r\n" → nothing; keep the possible "\r" when only the \n is
            // conceptually dropped by a truncating writer).
            if text.ends_with('\n') {
                text.pop();
            }
        }
        let back = relation_from_tsv(&mut catalog, &text).unwrap();
        prop_assert_eq!(back, original);
    }

    #[test]
    fn tsv_round_trip_preserves_integer_typing(n in -1000..1000i64) {
        // An Int exports as plain digits and re-imports as an Int, while the
        // *string* of those same digits re-imports as a Str (via the marker).
        let mut catalog = Catalog::new();
        let as_int = relation(&mut catalog, vec![vec![Value::Int(n), Value::Int(0)]]);
        let as_str = relation(
            &mut catalog,
            vec![vec![Value::str(n.to_string()), Value::Int(0)]],
        );
        let int_text = relation_to_tsv(&catalog, &as_int);
        let str_text = relation_to_tsv(&catalog, &as_str);
        let int_back = relation_from_tsv(&mut catalog, &int_text).unwrap();
        let str_back = relation_from_tsv(&mut catalog, &str_text).unwrap();
        prop_assert_eq!(int_back, as_int);
        prop_assert_eq!(str_back, as_str);
    }
}

// ---------------------------------------------------------------------------
// Loader differential.

/// Reference loader: the row-at-a-time parser `tsv.rs` used to have — split
/// lines, split cells, `Value::parse` or unescape, box a row per line, and
/// let `Relation::from_rows` deduplicate.
fn reference_load(catalog: &mut Catalog, bytes: &[u8]) -> Result<Relation, Error> {
    let err = |m: String| Error::Parse(m);
    let pieces: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let mut lines = pieces.iter().enumerate().map(|(i, raw)| {
        // A `\n` ending takes a `\r` with it; one more trailing `\r` goes either way.
        let ends = if i + 1 < pieces.len() { 2 } else { 1 };
        let raw = (0..ends).fold(*raw, |r, _| r.strip_suffix(b"\r").unwrap_or(r));
        String::from_utf8(raw.to_vec())
            .map_err(|_| err("TSV read error: stream did not contain valid UTF-8".into()))
    });
    // Numbered as an editor numbers them: every physical line counts.
    let mut lines = lines
        .by_ref()
        .zip(1usize..)
        .filter(|(l, _)| !matches!(l, Ok(l) if l.trim().is_empty()));
    let (header, _) = lines
        .next()
        .unwrap_or_else(|| (Err(err("TSV input has no header line".into())), 0));
    let header = header?;
    let names: Vec<&str> = header.split('\t').map(str::trim).collect();
    if names.iter().any(|n| n.is_empty()) {
        return Err(err("empty attribute name in TSV header".into()));
    }
    let ids: Vec<AttrId> = names.iter().map(|n| catalog.intern(n)).collect();
    let schema = Schema::new(ids.clone());
    if schema.arity() != ids.len() {
        return Err(err("duplicate attribute in TSV header".into()));
    }
    let mut rows: Vec<Row> = Vec::new();
    for (line, lineno) in lines {
        let line = line?;
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() != ids.len() {
            let (want, found) = (ids.len(), cells.len());
            return Err(err(format!(
                "line {lineno}: expected {want} values, found {found}"
            )));
        }
        let mut row = vec![Value::Int(0); ids.len()];
        for (cell, &id) in cells.iter().zip(&ids) {
            row[schema.position(id).unwrap()] = reference_cell(cell, lineno)?;
        }
        rows.push(row.into());
    }
    Relation::from_rows(schema, rows)
}

fn reference_cell(cell: &str, lineno: usize) -> Result<Value, Error> {
    if !cell.contains('\\') {
        return Ok(Value::parse(cell.trim()));
    }
    let mut out = String::new();
    let mut chars = cell.strip_prefix("\\s").unwrap_or(cell).chars();
    while let Some(ch) = chars.next() {
        out.push(match (ch, if ch == '\\' { chars.next() } else { None }) {
            ('\\', Some('\\')) => '\\',
            ('\\', Some('t')) => '\t',
            ('\\', Some('n')) => '\n',
            ('\\', Some('r')) => '\r',
            ('\\', other) => {
                let what = other.map_or("at end of cell".to_string(), |c| format!("`\\{c}`"));
                return Err(Error::Parse(format!(
                    "line {lineno}: unknown TSV escape {what}"
                )));
            }
            (c, _) => c,
        });
    }
    Ok(Value::str(out))
}

/// A catalog whose ids do *not* follow header order, so file columns are
/// permuted into canonical position.
fn seeded_catalog() -> Catalog {
    let mut c = Catalog::new();
    for name in ["D", "B", "F", "A", "E", "C"] {
        c.intern(name);
    }
    c
}

/// An entropy tape: the property's random input, consumed choice by choice
/// (wrapping around), so one `Vec<u32>` drives the whole file generator.
struct Tape<'a>(&'a [u32], usize);

impl Tape<'_> {
    fn pick(&mut self, n: usize) -> usize {
        self.1 += 1;
        self.0[(self.1 - 1) % self.0.len()] as usize % n
    }
    fn of<'s>(&mut self, pool: &[&'s str]) -> &'s str {
        pool[self.pick(pool.len())]
    }
}

/// Integer-looking cells, including the sniffing edge cases: `+5` and `-0`
/// and `007` parse as integers, `i64::MAX + 1` does not; eighteen digits is
/// the longest cell the loader's integer fast path takes.
const INTS: &[&str] = &[
    "999999999999999999",
    "-999999999999999999",
    "1000000000000000000",
    "0",
    "1",
    "2",
    "3",
    "-1",
    "-2",
    "17",
    " 5 ",
    "5",
    "+5",
    "-0",
    "007",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
];
/// Plain, padded, non-ASCII, `\s`-marked and escaped string cells.
const STRS: &[&str] = &[
    "a",
    "b",
    "a b",
    " a",
    "a ",
    "é",
    "\u{a0}x\u{a0}",
    "--",
    "1x",
    "\\s007",
    "\\s",
    "\\s pad ",
    "\\s5",
    "a\\tb",
    "a\\\\b",
    "\\n",
    "a\\rb",
    "\\sa",
    "x\u{3000}",
];
/// Cells that must be rejected.
const BAD: &[&str] = &["a\\qb", "tail\\", "\\s\\", "\\x"];

/// One generated file: header, body lines with duplicates and blanks, mixed
/// line endings, and — a quarter of the time — one planted fault.
fn generate(tape: &mut Tape) -> Vec<u8> {
    let names = ["A", "B", "C", "D", "E", "F"];
    let arity = 1 + tape.pick(4);
    let start = tape.pick(names.len());
    let mut header: Vec<String> = (0..arity)
        .map(|i| names[(start + i * 5) % names.len()].to_string())
        .collect();
    if tape.pick(4) == 0 {
        header[0] = format!(" {} ", header[0]);
    }
    let fault = if tape.pick(4) == 0 {
        1 + tape.pick(7)
    } else {
        0
    };
    match fault {
        1 => header[arity - 1] = " ".to_string(),
        2 if arity > 1 => header[arity - 1] = header[0].trim().to_string(),
        _ => {}
    }
    // Column kinds: 0 = integers, 1 = strings, 2 = mixed.
    let kinds: Vec<usize> = (0..arity).map(|_| tape.pick(3)).collect();
    let cell = |tape: &mut Tape, kind: usize| match kind {
        0 => tape.of(INTS),
        1 => tape.of(STRS),
        _ if tape.pick(2) == 0 => tape.of(INTS),
        _ => tape.of(STRS),
    };
    let mut lines: Vec<String> = vec![header.join("\t")];
    // Occasionally a long all-integer prefix, so the first string of a column
    // arrives after the builder has a thousand integers to re-encode.
    if tape.pick(16) == 0 {
        for i in 0..1100 {
            let cells: Vec<String> = (0..arity).map(|k| (i % 700 + k).to_string()).collect();
            lines.push(cells.join("\t"));
        }
    }
    for _ in 0..tape.pick(30) {
        match tape.pick(6) {
            0 if lines.len() > 1 => {
                let again = lines[1 + tape.pick(lines.len() - 1)].clone();
                lines.push(again);
            }
            1 => lines.push(["", " ", "\t"][tape.pick(2)].to_string()),
            _ => {
                let cells: Vec<&str> = kinds.iter().map(|&k| cell(tape, k)).collect();
                lines.push(cells.join("\t"));
            }
        }
    }
    let at = 1 + tape.pick(lines.len());
    match fault {
        3 => lines.insert(at.min(lines.len()), vec!["1"; arity + 1].join("\t")),
        4 if arity > 1 => lines.insert(at.min(lines.len()), vec!["1"; arity - 1].join("\t")),
        5 => {
            let mut cells = vec!["1"; arity];
            cells[tape.pick(arity)] = tape.of(BAD);
            lines.insert(at.min(lines.len()), cells.join("\t"));
        }
        _ => {}
    }
    let mut bytes: Vec<u8> = Vec::new();
    let crlf = tape.pick(3);
    for (i, line) in lines.iter().enumerate() {
        bytes.extend_from_slice(line.as_bytes());
        if fault == 6 && i + 1 == at.min(lines.len()) {
            bytes.push(0xff);
        }
        if i + 1 == lines.len() && tape.pick(3) == 0 {
            if tape.pick(2) == 0 {
                bytes.push(b'\r');
            }
            break;
        }
        if crlf == 0 || (crlf == 1 && tape.pick(2) == 0) {
            bytes.push(b'\r');
        }
        bytes.push(b'\n');
    }
    bytes
}

/// A source that hands out a tape-chosen 1…`buf.len()` bytes per `read`, so
/// a `BufReader` over it refills at arbitrary points: between `\r` and `\n`,
/// between a `-` and its digits, inside a multi-byte character.
struct Dribble<'a, 't>(&'a [u8], &'a mut Tape<'t>);

impl std::io::Read for Dribble<'_, '_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + self.1.pick(buf.len())).min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// Hold the loader to the reference on `bytes`: read whole from the slice,
/// and dribbled through buffers of 1, 2, 3 and 64 bytes — the same relation
/// in the same first-occurrence order, or the same error string.
fn held_to_reference(bytes: &[u8], tape: &mut Tape) -> Result<(), String> {
    let shown = String::from_utf8_lossy(bytes).into_owned();
    let want = reference_load(&mut seeded_catalog(), bytes);
    let mut got = vec![relation_from_tsv_reader(&mut seeded_catalog(), bytes)];
    for capacity in [1, 2, 3, 64] {
        let reader = std::io::BufReader::with_capacity(capacity, Dribble(bytes, tape));
        got.push(relation_from_tsv_reader(&mut seeded_catalog(), reader));
    }
    for (way, got) in got.iter().enumerate() {
        let ctx = format!("way {way} of reading file:\n{shown}");
        match (&want, got) {
            (Ok(want), Ok(got)) => {
                // Fingerprint first: it is then computed from the columns.
                prop_assert_eq!(got.fingerprint(), want.fingerprint(), "{}", ctx);
                prop_assert_eq!(got.schema(), want.schema());
                prop_assert_eq!(got.rows(), want.rows(), "first-occurrence order, {}", ctx);
            }
            (Err(want), Err(got)) => prop_assert_eq!(got.to_string(), want.to_string(), "{}", ctx),
            _ => prop_assert!(
                false,
                "reference {:?}\nloader {:?}\n{}",
                want.as_ref().map(Relation::len),
                got.as_ref().map(Relation::len),
                ctx
            ),
        }
    }
    Ok(())
}

/// A source that yields `head` and then fails.
struct FailsAfter<'a>(&'a [u8]);

impl std::io::Read for FailsAfter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.0.is_empty() {
            return Err(std::io::Error::other("disk gone"));
        }
        let n = buf.len().min(self.0.len()).min(7);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn loader_matches_the_reference_row_parser(
        tape in prop::collection::vec(any::<u32>(), 40..160)
    ) {
        let mut tape = Tape(&tape, 0);
        let bytes = generate(&mut tape);
        let shown = String::from_utf8_lossy(&bytes).into_owned();
        held_to_reference(&bytes, &mut tape)?;

        // A source that fails part-way: an error in the lines it did deliver
        // in full comes first, the read error otherwise.
        let cut = tape.pick(bytes.len() + 1);
        let whole_lines = bytes[..cut].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let want = match reference_load(&mut seeded_catalog(), &bytes[..whole_lines]) {
            Err(e) if e.to_string() != "parse error: TSV input has no header line" => e.to_string(),
            _ => "parse error: TSV read error: disk gone".to_string(),
        };
        let got = relation_from_tsv_reader(
            &mut seeded_catalog(),
            std::io::BufReader::new(FailsAfter(&bytes[..cut])),
        );
        prop_assert_eq!(got.unwrap_err().to_string(), want, "cut at {} of:\n{}", cut, shown);
    }
}

/// The edge between the integer fast path and the general decoder: cells
/// the fast path must decline (a sign alone, `+7`, nineteen digits, a bad
/// byte) or take (`-0`, `007`, eighteen digits) land as the reference says,
/// in the first and the last column, under every line ending (`\r\r\n` loses
/// both carriage returns, which only an escaped cell can tell), beside a line
/// longer than the largest dribbled buffer and before an unterminated tail.
#[test]
fn integer_rows_at_the_fast_path_edge_match_the_reference() {
    let cells: [&[u8]; 15] = [
        b"-",
        b"--1",
        b"+7",
        b"-0",
        b"007",
        b"999999999999999999",
        b"-999999999999999999",
        b"1000000000000000000",
        b"9223372036854775807",
        b"-9223372036854775808",
        b"9223372036854775808",
        b"1\xff",
        b"\xc3\xa9",
        b"\\sx",
        b"",
    ];
    let wide = ["999999999999999999"; 3].join("\t");
    let entropy: Vec<u32> = (0..97u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let mut tape = Tape(&entropy, 0);
    for cell in cells {
        for ending in ["\n", "\r\n", "\r\r\n"] {
            let mut bytes: Vec<u8> = Vec::new();
            for line in [
                b"D\tB\tA\tC".to_vec(),
                b"1\t2\t3\t4".to_vec(),
                [cell, b"\t", wide.as_bytes()].concat(),
                b"5\t6\t7\t8".to_vec(),
                [wide.as_bytes(), b"\t", cell].concat(),
            ] {
                bytes.extend_from_slice(&line);
                bytes.extend_from_slice(ending.as_bytes());
            }
            bytes.extend_from_slice(b"-9\t-8\t-7\t-6");
            if let Err(msg) = held_to_reference(&bytes, &mut tape) {
                panic!("{msg}");
            }
        }
    }
}
