//! End-to-end tests of `mjoin_cli check --format json` and `mjoin_cli
//! audit`: the JSON report must parse with a real (in-test) JSON parser and
//! round-trip its diagnostic fields, and the audit report on the Example 6
//! fixture is pinned as a golden test.

use proptest::prelude::*;
use std::io::Write;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mjoin_cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Minimal tempdir (std-only) so the test has no extra dependencies.
mod tempdir {
    pub struct TempDir(std::path::PathBuf);
    impl TempDir {
        pub fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "mjoin-cli-audit-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
        pub fn path(&self) -> &std::path::Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn write_file(dir: &std::path::Path, name: &str, content: &str) -> String {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path.to_string_lossy().into_owned()
}

/// A small but real JSON parser: enough to validate that the CLI's
/// hand-rolled renderers emit structurally valid JSON, not just
/// grep-matchable text.
mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            chars: text.chars().collect(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing garbage at {}", p.pos));
        }
        Ok(v)
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
    }

    impl Parser {
        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }
        fn bump(&mut self) -> Result<char, String> {
            let c = self.peek().ok_or("unexpected end of input")?;
            self.pos += 1;
            Ok(c)
        }
        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
                self.pos += 1;
            }
        }
        fn expect(&mut self, c: char) -> Result<(), String> {
            let got = self.bump()?;
            if got == c {
                Ok(())
            } else {
                Err(format!("expected `{c}`, got `{got}` at {}", self.pos))
            }
        }
        fn lit(&mut self, word: &str) -> Result<(), String> {
            for c in word.chars() {
                self.expect(c)?;
            }
            Ok(())
        }
        fn value(&mut self) -> Result<Json, String> {
            self.skip_ws();
            match self.peek().ok_or("unexpected end of input")? {
                '{' => self.object(),
                '[' => self.array(),
                '"' => Ok(Json::Str(self.string()?)),
                't' => self.lit("true").map(|()| Json::Bool(true)),
                'f' => self.lit("false").map(|()| Json::Bool(false)),
                'n' => self.lit("null").map(|()| Json::Null),
                _ => self.number(),
            }
        }
        fn object(&mut self) -> Result<Json, String> {
            self.expect('{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some('}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(':')?;
                let val = self.value()?;
                fields.push((key, val));
                self.skip_ws();
                match self.bump()? {
                    ',' => {}
                    '}' => return Ok(Json::Obj(fields)),
                    c => return Err(format!("expected `,` or `}}`, got `{c}`")),
                }
            }
        }
        fn array(&mut self) -> Result<Json, String> {
            self.expect('[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.bump()? {
                    ',' => {}
                    ']' => return Ok(Json::Arr(items)),
                    c => return Err(format!("expected `,` or `]`, got `{c}`")),
                }
            }
        }
        fn string(&mut self) -> Result<String, String> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                match self.bump()? {
                    '"' => return Ok(out),
                    '\\' => match self.bump()? {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = self.bump()?;
                                code = code * 16
                                    + d.to_digit(16).ok_or(format!("bad \\u digit `{d}`"))?;
                            }
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        c => return Err(format!("unknown escape `\\{c}`")),
                    },
                    c if (c as u32) < 0x20 => {
                        return Err("raw control character in string".to_string())
                    }
                    c => out.push(c),
                }
            }
        }
        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            if self.peek() == Some('-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
                self.pos += 1;
            }
            let text: String = self.chars[start..self.pos].iter().collect();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

/// Statement lines over the scheme AB,BC,CD that are always parseable and
/// valid in any order (bases always exist; V is introduced up front).
/// Several deliberately trip lints so the diagnostics array is non-trivial.
const STMT_MENU: [&str; 7] = [
    "R(V) := R(V) ⋈ R(BC)",
    "R(V) := R(V) ⋈ R(CD)",
    "R(AB) := R(AB) ⋉ R(BC)",
    "R(BC) := R(BC) ⋉ R(BC)", // noop-semijoin
    "R(W) := R(AB) ⋈ R(CD)",  // cartesian-join (+ maybe dead-store)
    "R(X) := π_B R(BC)",      // dead temp unless last
    "R(V) := R(V) ⋉ R(AB)",
];

fn program_text(picks: &[usize]) -> String {
    let mut text = String::from("# scheme: AB,BC,CD\nR(V) := R(AB) ⋈ R(BC)\n");
    for &i in picks {
        text.push_str(STMT_MENU[i]);
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `check --format json` always emits structurally valid JSON whose
    /// diagnostic fields round-trip: severity tallies in the summary match
    /// the diagnostics array, and every entry carries typed fields.
    #[test]
    fn check_json_parses_and_roundtrips(picks in prop::collection::vec(0usize..STMT_MENU.len(), 0..10)) {
        let dir = tempdir::TempDir::new("prop");
        let path = write_file(dir.path(), "p.mj", &program_text(&picks));
        let out = cli(&["check", "--format", "json", "--deny", "note", &path]);
        let stderr = String::from_utf8(out.stderr).unwrap();
        let line = stderr.lines().next().unwrap_or_default();
        let doc = json::parse(line).map_err(|e| format!("invalid JSON ({e}):\n{line}"))?;

        let diags = doc.get("diagnostics").and_then(json::Json::as_arr)
            .ok_or_else(|| "missing diagnostics array".to_string())?;
        let mut tally = [0u32; 3]; // note, warn, error
        for d in diags {
            let sev = d.get("severity").and_then(json::Json::as_str)
                .ok_or_else(|| "diagnostic without severity".to_string())?;
            let slot = match sev {
                "note" => 0,
                "warn" => 1,
                "error" => 2,
                other => return Err(format!("bad severity `{other}`")),
            };
            tally[slot] += 1;
            let lint = d.get("lint").and_then(json::Json::as_str)
                .ok_or_else(|| "diagnostic without lint".to_string())?;
            prop_assert!(!lint.is_empty());
            prop_assert!(d.get("message").and_then(json::Json::as_str).is_some());
            // stmt is null or a non-negative integer.
            match d.get("stmt") {
                Some(json::Json::Null) => {}
                Some(j) => {
                    let n = j.as_num().ok_or_else(|| format!("bad stmt field {j:?}"))?;
                    prop_assert!(n >= 0.0 && n.fract() == 0.0);
                }
                None => return Err("diagnostic without stmt field".to_string()),
            }
            prop_assert!(matches!(
                d.get("excerpt"),
                Some(json::Json::Null | json::Json::Str(_))
            ));
        }
        let count = |key: &str| doc.get(key).and_then(json::Json::as_num).unwrap_or(-1.0) as u32;
        prop_assert_eq!(count("notes"), tally[0]);
        prop_assert_eq!(count("warnings"), tally[1]);
        prop_assert_eq!(count("errors"), tally[2]);
        // Exit status agrees with the report: clean at `note` iff empty.
        prop_assert_eq!(out.status.success(), diags.is_empty());
    }
}

fn example6() -> String {
    format!(
        "{}/examples/programs/example6.mj",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn example6_data() -> String {
    format!("{}/examples/data", env!("CARGO_MANIFEST_DIR"))
}

/// Golden test: the audit report for Example 6 over the checked-in fixture
/// data is pinned byte-for-byte (it contains no timings, so it is
/// deterministic).
#[test]
fn audit_example6_golden_report() {
    let out = cli(&["audit", &example6(), &example6_data()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let expected = "\
audit: 10 statements, ledger = 5 inputs + 10 heads = 15 total
stmt  measured      bound  kind       symbolic bound
   0         1          2  tight      |⋈D[{ABC}]|  (est 2)
   1         1          2  tight      |⋈D[{ABC}]|  (est 2)
   2         1          1  tight      |⋈D[{ABC,CDE}]|  (est 1)
   3         1          1  tight      |⋈D[{ABC,CDE}]|  (est 1)
   4         1          1  tight      |⋈D[{ABC,CDE}]|  (est 1)
   5         1          1  tight      |⋈D[{ABC,CDE}]|  (est 1)
   6         1          1  tight      |⋈D[{ABC,CDE,EFG}]|  (est 1)
   7         1          1  tight      |⋈D[{ABC,CDE,EFG}]|  (est 1)
   8         1          1  tight      |⋈D[{ABC,CDE,EFG}]|  (est 1)
   9         1          1  tight      |⋈D[{ABC,CDE,EFG,AGH}]|  (est 1)
estimator: worst q-error 2.00 at statement 0 (est 2 vs measured 1)
verdict: all measured costs within static bounds
";
    assert_eq!(stdout, expected, "golden audit report drifted:\n{stdout}");
}

/// The JSON audit report parses and its fields are coherent: bounds hold,
/// measured ≤ bound per statement, and the embedded lint report is clean.
#[test]
fn audit_example6_json_is_valid_and_clean() {
    let out = cli(&["audit", "--format", "json", &example6(), &example6_data()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = json::parse(stdout.trim()).expect("audit JSON parses");
    assert_eq!(doc.get("bounds_hold"), Some(&json::Json::Bool(true)));
    let stmts = doc.get("stmts").and_then(json::Json::as_arr).unwrap();
    assert_eq!(stmts.len(), 10);
    for s in stmts {
        let measured = s.get("measured").and_then(json::Json::as_num).unwrap();
        let bound = s.get("bound").and_then(json::Json::as_num).unwrap();
        let lo = s.get("lo").and_then(json::Json::as_num).unwrap();
        let hi = s.get("hi").and_then(json::Json::as_num).unwrap();
        assert!(measured <= bound);
        assert!(lo <= measured && measured <= hi);
    }
    let report = doc.get("report").unwrap();
    assert_eq!(report.get("errors").and_then(json::Json::as_num), Some(0.0));
    let cert = doc.get("certificate").unwrap();
    assert_eq!(
        cert.get("stmts")
            .and_then(json::Json::as_arr)
            .map(<[json::Json]>::len),
        Some(10)
    );
}

/// `check --verify-run` chains the lint pass and the audit; bad
/// invocations of both commands fail with a message, not a panic.
#[test]
fn verify_run_and_error_paths() {
    let out = cli(&["check", "--verify-run", &example6(), &example6_data()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("verdict: all measured costs within static bounds"));
    assert!(out.stdout.is_empty(), "check keeps stdout clean");

    // Data without --verify-run is rejected.
    let out = cli(&["check", &example6(), &example6_data()]);
    assert!(!out.status.success());

    // audit without data, with a missing relation, and with an unmatched
    // extra file all fail cleanly.
    let out = cli(&["audit", &example6()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("needs TSV data"));

    let dir = tempdir::TempDir::new("err");
    let abc = write_file(dir.path(), "abc.tsv", "A\tB\tC\n1\t2\t3\n");
    let out = cli(&["audit", &example6(), &abc]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("no data file matches"));

    let xy = write_file(dir.path(), "xy.tsv", "X\tY\n1\t2\n");
    let out = cli(&["audit", &example6(), &example6_data(), &xy]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("matches no relation"));
}

/// Attribute names that need escaping (`"` and `\`) reach the JSON audit
/// — its `set` and the certificate's `factors` — intact, through both
/// `audit --format json` and `check --verify-run --format json`.
#[test]
fn audit_json_escapes_attribute_names() {
    let dir = tempdir::TempDir::new("escape");
    let program = write_file(
        dir.path(),
        "p.mj",
        "# scheme: AB,B\",\"\\\nR(V) := R(AB) ⋈ R(B\")\nR(V) := R(V) ⋈ R(\"\\)\n",
    );
    let ab = write_file(dir.path(), "ab.tsv", "A\tB\n1\t2\n3\t4\n");
    let bq = write_file(dir.path(), "bq.tsv", "B\t\"\n2\t5\n4\t6\n");
    let qs = write_file(dir.path(), "qs.tsv", "\"\t\\\n5\t7\n6\t8\n");
    let expected = ["{AB,B\"}", "{AB,B\",\"\\}"];
    let check_audit = |doc: &json::Json| {
        let stmts = doc.get("stmts").and_then(json::Json::as_arr).unwrap();
        let sets: Vec<_> = stmts
            .iter()
            .map(|s| s.get("set").and_then(json::Json::as_str).unwrap())
            .collect();
        assert_eq!(sets, expected);
        let cert = doc.get("certificate").unwrap();
        let factors: Vec<_> = cert
            .get("stmts")
            .and_then(json::Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| {
                let f = s.get("factors").and_then(json::Json::as_arr).unwrap();
                assert_eq!(f.len(), 1, "{f:?}");
                f[0].as_str().unwrap()
            })
            .collect();
        assert_eq!(factors, expected);
    };

    let out = cli(&["audit", "--format", "json", &program, &ab, &bq, &qs]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    let doc = json::parse(stdout.trim()).unwrap_or_else(|e| panic!("{e}:\n{stdout}"));
    check_audit(&doc);

    let out = cli(&[
        "check",
        "--verify-run",
        "--format",
        "json",
        &program,
        &ab,
        &bq,
        &qs,
    ]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{stderr}");
    let docs: Vec<json::Json> = stderr
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{e}:\n{l}")))
        .collect();
    assert_eq!(docs.len(), 2, "lint report, then audit:\n{stderr}");
    check_audit(&docs[1]);
}
