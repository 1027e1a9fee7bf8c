//! The workspace's one JSON value type: parser and renderer.
//!
//! The workspace is `std`-only (no registry access), so every JSON the
//! project emits or reads — the server's line-oriented wire protocol, the
//! analyzer's reports, the Chrome trace export — goes through this
//! [`Value`] and its one string escaper. It lives here because this crate
//! depends on nothing, so every producer already sits above it.
//!
//! The subset is what those producers need: null, booleans, integers
//! (`i128`, large enough for every `u64` counter), strings, arrays, and
//! objects with insertion-ordered keys, plus one render-only float. Floats
//! are rejected on parse — every quantity in the protocol is a count, and
//! refusing floats keeps responses byte-deterministic.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order (responses render in a
/// stable field order, which the differential tests rely on).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer.
    Int(i128),
    /// A float, rendered with four decimals (`1.2500`); a non-finite one
    /// renders as `null`. Render-only: [`Value::parse`] rejects floats, so
    /// the wire protocol never carries one.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// An unsigned counter as an integer value.
    pub fn u64(n: u64) -> Value {
        Value::Int(i128::from(n))
    }

    /// An empty object to be filled with [`Value::set`].
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Insert (or replace) `key` in an object; panics on non-objects —
    /// builders only call it on [`Value::obj`].
    pub fn set(mut self, key: &str, v: Value) -> Value {
        let Value::Obj(pairs) = &mut self else {
            panic!("Value::set on a non-object");
        };
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = v;
        } else {
            pairs.push((key.to_string(), v));
        }
        self
    }

    /// [`Value::set`] when there is a value; the object unchanged when not.
    pub fn set_opt(self, key: &str, v: Option<Value>) -> Value {
        match v {
            Some(v) => self.set(key, v),
            None => self,
        }
    }

    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as a `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|n| u64::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render as compact JSON (no whitespace), suitable for one wire line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x:.4}");
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => string_into(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON value from `text`, requiring nothing but whitespace
    /// after it.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Append `s` to `out` as a JSON string literal (quotes included) — the
/// workspace's one string escaper.
///
/// Escapes `"`, `\`, the common control shorthands (`\n`, `\r`, `\t`), and
/// every remaining control character as `\u00XX`. Everything else — UTF-8
/// included — passes through verbatim, which every JSON parser accepts.
fn string_into(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting depth cap: a hostile client cannot overflow the parser stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    pairs.push((key, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(pairs));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "floats are not part of the protocol (byte {})",
                self.pos
            ));
        }
        // JSON numbers are canonical: no leading zeros (`007`). The sign is
        // handled above, so `i128::parse`'s laxer grammar never leaks in.
        if self.pos - digits > 1 && self.bytes[digits] == b'0' {
            return Err(format!("leading zero in number (byte {digits})"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are UTF-8");
        text.parse::<i128>()
            .map(Value::Int)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let cp = parse_hex4(hex)?;
                            self.pos += 4;
                            // Surrogate pair: \uD800-\uDBFF must be followed
                            // by a low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 2;
                                let hex2 = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| "truncated surrogate".to_string())?;
                                let lo = parse_hex4(hex2)?;
                                self.pos += 4;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| "bad surrogate pair".to_string())?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("bad codepoint \\u{hex}"))?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("unknown escape `\\{}`", char::from(other)));
                        }
                    }
                }
                _ => {
                    // Consume the longest run of plain bytes in one go —
                    // validating UTF-8 per run, not per character (a
                    // megabyte TSV payload would otherwise make this
                    // quadratic). `"` and `\` are ASCII, so splitting at
                    // them never lands inside a multi-byte scalar.
                    let end = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(run);
                    self.pos += end;
                }
            }
        }
    }
}

/// Parse exactly four ASCII hex digits (a `\u` escape's payload).
/// `u32::from_str_radix` alone is too lax — it accepts a leading `+`, so
/// `\u+041` would silently parse as U+0041.
fn parse_hex4(hex: &str) -> Result<u32, String> {
    if hex.len() == 4 && hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    } else {
        Err(format!("bad \\u escape `{hex}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use rand::Rng;

    #[test]
    fn round_trip() {
        let v = Value::obj()
            .set("ok", Value::Bool(true))
            .set("n", Value::Int(-42))
            .set("s", Value::str("tab\there \"q\" \\ nl\n"))
            .set(
                "arr",
                Value::Arr(vec![Value::Null, Value::u64(u64::MAX), Value::str("")]),
            );
        let text = v.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(Value::parse("1.5").is_err());
        assert!(Value::parse("1e3").is_err());
        assert!(Value::parse("{\"a\":1} x").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("[1,]").is_err());
        // Depth bomb bounces instead of blowing the stack.
        let bomb = "[".repeat(100_000);
        assert!(Value::parse(&bomb).is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Value::parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::str("Aé")
        );
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::str("😀")
        );
        assert!(Value::parse("\"\\ud83d\"").is_err());
        // Control characters render as \u escapes and round-trip.
        let v = Value::str("\u{1}\u{7f}");
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }

    /// Regression: `u32::from_str_radix` accepts a leading `+` and
    /// `i128::parse` accepts leading zeros — neither is JSON.
    #[test]
    fn rejects_non_canonical_escapes_and_numbers() {
        assert!(Value::parse("\"\\u+041\"").is_err());
        assert!(Value::parse("\"\\u00 1\"").is_err());
        assert!(Value::parse("\"\\ud83d\\u+e00\"").is_err());
        assert!(Value::parse("007").is_err());
        assert!(Value::parse("-01").is_err());
        assert!(Value::parse("+7").is_err());
        // Canonical forms still parse.
        assert_eq!(Value::parse("0").unwrap(), Value::Int(0));
        assert_eq!(Value::parse("-0").unwrap(), Value::Int(0));
        assert_eq!(Value::parse("10").unwrap(), Value::Int(10));
    }

    #[test]
    fn object_access() {
        let v = Value::parse("{\"cmd\":\"run\",\"deadline_ms\":250}").unwrap();
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("run"));
        assert_eq!(v.get("deadline_ms").and_then(Value::as_u64), Some(250));
        assert!(v.get("missing").is_none());
    }

    fn quoted(s: &str) -> String {
        Value::str(s).render()
    }

    #[test]
    fn plain_strings_are_quoted_verbatim() {
        assert_eq!(quoted("hello"), "\"hello\"");
        assert_eq!(quoted(""), "\"\"");
        assert_eq!(quoted("π ⋈ σ"), "\"π ⋈ σ\"");
    }

    #[test]
    fn specials_escape() {
        assert_eq!(quoted("a\"b"), "\"a\\\"b\"");
        assert_eq!(quoted("a\\b"), "\"a\\\\b\"");
        assert_eq!(quoted("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn control_characters_become_unicode_escapes() {
        assert_eq!(quoted("\u{1}"), "\"\\u0001\"");
        assert_eq!(quoted("\u{1f}"), "\"\\u001f\"");
        // 0x20 (space) and above pass through.
        assert_eq!(quoted(" "), "\" \"");
    }

    #[test]
    fn keys_escape_like_strings() {
        let v = Value::obj().set("k\"\\\n", Value::Null);
        assert_eq!(v.render(), "{\"k\\\"\\\\\\n\":null}");
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn render_into_appends() {
        let mut out = String::from("[");
        Value::str("v").render_into(&mut out);
        assert_eq!(out, "[\"v\"");
    }

    #[test]
    fn floats_render_with_four_decimals_and_never_parse() {
        assert_eq!(Value::Float(1.0).render(), "1.0000");
        assert_eq!(Value::Float(2.0 / 3.0).render(), "0.6667");
        assert_eq!(Value::Float(50.0).render(), "50.0000");
        assert_eq!(Value::Float(f64::INFINITY).render(), "null");
        assert_eq!(Value::Float(f64::NAN).render(), "null");
        assert!(Value::parse(&Value::Float(1.5).render()).is_err());
    }

    /// Generated values: every variant `parse` produces, strings drawn
    /// from an alphabet heavy in characters that need escaping.
    struct Arb {
        depth: u32,
    }

    const NASTY: &[char] = &[
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '⋈',
        '\u{2028}',
        '\u{fffd}',
        '\u{ffff}',
        '😀',
        '\u{10ffff}',
        'a',
        ' ',
        '{',
        ']',
        ':',
        ',',
    ];

    fn arb_char(rng: &mut TestRng) -> char {
        if rng.gen_bool(0.7) {
            NASTY[rng.gen_range(0..NASTY.len())]
        } else {
            loop {
                if let Some(c) = char::from_u32(rng.gen_range(0u32..0x11_0000)) {
                    return c;
                }
            }
        }
    }

    fn arb_string(rng: &mut TestRng) -> String {
        let len = rng.gen_range(0usize..12);
        (0..len).map(|_| arb_char(rng)).collect()
    }

    fn arb_int(rng: &mut TestRng) -> i128 {
        match rng.gen_range(0u32..4) {
            0 => i128::from(rng.gen_range(-3i64..4)),
            1 => i128::from(rng.gen::<i64>()),
            2 => (i128::from(rng.gen::<u64>()) << 64) | i128::from(rng.gen::<u64>()),
            _ => [i128::MIN, i128::MAX, i128::from(u64::MAX), 0][rng.gen_range(0usize..4)],
        }
    }

    impl Strategy for Arb {
        type Value = Value;
        fn generate(&self, rng: &mut TestRng) -> Value {
            let leaf = self.depth == 0 || rng.gen_bool(0.4);
            let inner = Arb {
                depth: self.depth.saturating_sub(1),
            };
            match rng.gen_range(0u32..if leaf { 4 } else { 6 }) {
                0 => Value::Null,
                1 => Value::Bool(rng.gen()),
                2 => Value::Int(arb_int(rng)),
                3 => Value::Str(arb_string(rng)),
                4 => Value::Arr(
                    (0..rng.gen_range(0usize..5))
                        .map(|_| inner.generate(rng))
                        .collect(),
                ),
                _ => Value::Obj(
                    (0..rng.gen_range(0usize..5))
                        .map(|_| (arb_string(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    /// A generated document whose root is an array or an object, so every
    /// strict prefix of its rendering is incomplete.
    fn arb_document() -> impl Strategy<Value = Value> {
        (Arb { depth: 4 }, any::<bool>()).prop_map(|(v, wrap_in_obj)| {
            if wrap_in_obj {
                Value::obj().set("root", v)
            } else {
                Value::Arr(vec![v])
            }
        })
    }

    /// Whatever `parse` accepts renders back to text it parses the same.
    fn accepted_values_round_trip(text: &str) -> Result<(), String> {
        if let Ok(v) = Value::parse(text) {
            let again = Value::parse(&v.render()).map_err(|e| format!("{e}: {text:?}"))?;
            prop_assert_eq!(again, v);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn generated_values_round_trip(v in Arb { depth: 4 }) {
            prop_assert_eq!(Value::parse(&v.render()), Ok(v.clone()));
        }

        #[test]
        fn every_truncation_is_an_error(doc in arb_document()) {
            let text = doc.render();
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                prop_assert!(
                    Value::parse(&text[..cut]).is_err(),
                    "prefix {:?} of {:?} parsed",
                    &text[..cut],
                    text
                );
            }
        }

        #[test]
        fn random_bytes_never_panic(
            bytes in prop::collection::vec(0u8..128, 0..48),
            noise in prop::collection::vec(any::<u32>(), 0..8),
        ) {
            // Mostly JSON punctuation, digits and escapes, plus a few
            // arbitrary (possibly invalid UTF-8) bytes, decoded lossily.
            const ALPHABET: &[u8] = b"{}[]:,\"\\u0123456789abcdef-.eEtrunlfs \n";
            let mut raw: Vec<u8> = bytes
                .iter()
                .map(|&b| ALPHABET[usize::from(b) % ALPHABET.len()])
                .collect();
            for n in noise {
                let at = n as usize % (raw.len() + 1);
                raw.insert(at, (n >> 24) as u8);
            }
            accepted_values_round_trip(&String::from_utf8_lossy(&raw))?;
        }

        #[test]
        fn corrupted_documents_never_panic(doc in arb_document(), at in any::<usize>(), b in 0u8..128) {
            let mut raw = doc.render().into_bytes();
            let at = at % raw.len();
            raw[at] = b;
            accepted_values_round_trip(&String::from_utf8_lossy(&raw))?;
        }
    }
}
