//! End-to-end tests of `mjoin_cli serve` / `mjoin_cli client`: a real
//! server process on an OS-assigned port, driven over the wire.

use mjoin::serve::Value;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

/// Spawn `mjoin_cli serve` on port 0 and scrape the bound address from
/// the `serve: listening on <addr>` line — the same contract scripts
/// (and the CI smoke step) rely on.
fn spawn_server(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mjoin_cli"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("banner line");
    let addr = line
        .trim()
        .strip_prefix("serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// Run `mjoin_cli client` against `addr`, feeding `requests` on stdin.
/// Returns (exit ok, stdout).
fn run_client(addr: &str, requests: &str) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mjoin_cli"))
        .args(["client", "--addr", addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(requests.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("client exits");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn serve_and_client_round_trip_with_admission_gate() {
    // Budget 100: the two-relation CPF program (bounds 7 and 49) is
    // admitted; the Cartesian AB ⋈ CD (bound 7·20 = 140) is not.
    let (mut server, addr) = spawn_server(&["--max-cost", "100"]);

    // Happy path: load a catalog, run a compiled program, inspect stats.
    let (ok, out) = run_client(
        &addr,
        concat!(
            "{\"cmd\":\"ping\"}\n",
            "# comments and blank lines are skipped\n",
            "\n",
            "{\"cmd\":\"load\",\"catalog\":\"c\",\"name\":\"ab\",\"tsv\":\"A\\tB\\n0\\t1\\n1\\t2\\n2\\t3\\n\"}\n",
            "{\"cmd\":\"load\",\"catalog\":\"c\",\"name\":\"bc\",\"tsv\":\"B\\tC\\n1\\t2\\n2\\t3\\n3\\t4\\n\"}\n",
            "{\"cmd\":\"compile\",\"catalog\":\"c\",\"name\":\"p\",\"scheme\":\"AB,BC\",\
             \"program\":\"R(V) := R(AB) ⋉ R(BC)\\nR(V) := R(V) ⋈ R(BC)\"}\n",
            "{\"cmd\":\"run\",\"catalog\":\"c\",\"name\":\"p\"}\n",
            "{\"cmd\":\"explain\",\"catalog\":\"c\",\"name\":\"p\"}\n",
            "{\"cmd\":\"stats\"}\n",
        ),
    );
    assert!(ok, "all requests admitted, client exits 0:\n{out}");
    assert!(out.contains("\"rows\":"), "run reports rows:\n{out}");
    assert!(
        out.contains("\"admitted\":true"),
        "explain reports the admission verdict:\n{out}"
    );
    assert!(
        out.contains("\"serve.run\":"),
        "stats carries the serve.* counters:\n{out}"
    );

    // The blowup guard: a certified-Cartesian inline program is refused
    // before execution, the error payload names the statement and bound,
    // and the client's exit status makes the rejection script-visible.
    // 11 × 11 rows certify a 121-tuple product, over the budget of 100.
    let tsv_json = |a: &str, b: &str| {
        let mut t = format!("{a}\\t{b}\\n");
        for i in 0..11 {
            t.push_str(&format!("{i}\\t{}\\n", i + 1));
        }
        t
    };
    let (ok, out) = run_client(
        &addr,
        &format!(
            concat!(
                "{{\"cmd\":\"load\",\"catalog\":\"x\",\"name\":\"ab\",\"tsv\":\"{}\"}}\n",
                "{{\"cmd\":\"load\",\"catalog\":\"x\",\"name\":\"cd\",\"tsv\":\"{}\"}}\n",
                "{{\"cmd\":\"run\",\"catalog\":\"x\",\"scheme\":\"AB,CD\",\
                 \"program\":\"R(V) := R(AB) \u{22c8} R(CD)\"}}\n",
            ),
            tsv_json("A", "B"),
            tsv_json("C", "D"),
        ),
    );
    assert!(!ok, "a rejected request must fail the client:\n{out}");
    assert!(
        out.contains("\"kind\":\"admission\""),
        "structured admission error:\n{out}"
    );
    assert!(
        out.contains("\"stmt\":0"),
        "offending statement named:\n{out}"
    );
    assert!(
        out.contains("\"bound\":121"),
        "certified bound reported:\n{out}"
    );

    // Graceful shutdown: the server process exits cleanly.
    let (ok, _) = run_client(&addr, "{\"cmd\":\"shutdown\"}\n");
    assert!(ok, "shutdown acknowledged");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exits 0 after shutdown");
}

#[test]
fn cq_query_and_explain_with_minimization_over_the_wire() {
    // Budget 10 against a 3-tuple edge relation: the literal 4-atom body
    // certifies an AGM bound of 27 (three forced cover atoms) and is
    // rejected, while its 2-atom core certifies 9 and is admitted — the
    // same query gets through *because* the server compiled the core.
    let (mut server, addr) = spawn_server(&["--max-cost", "10"]);
    let load = "{\"cmd\":\"load\",\"catalog\":\"c\",\"name\":\"e\",\
                \"tsv\":\"s\\td\\n0\\t1\\n1\\t2\\n2\\t3\\n\"}\n";
    let cq = "Q(x, z) :- e(x, y), e(y, z), e(x, d), e(y, d2)";

    // Explain: lints + the minimization report, no execution.
    let (ok, out) = run_client(
        &addr,
        &format!("{load}{{\"cmd\":\"explain\",\"catalog\":\"c\",\"cq\":\"{cq}\"}}\n"),
    );
    assert!(ok, "explain succeeds:\n{out}");
    assert!(
        out.contains("\"lint\":\"redundant-atom\""),
        "explain reports query lints:\n{out}"
    );
    assert!(
        out.contains("\"atoms_before\":4") && out.contains("\"atoms_after\":2"),
        "explain reports the fold:\n{out}"
    );
    assert!(
        out.contains("\"admitted\":true"),
        "the core's bound fits the budget:\n{out}"
    );

    // Query with minimization (the default): admitted, answers returned,
    // and the response says what was dropped.
    let (ok, out) = run_client(
        &addr,
        &format!("{{\"cmd\":\"query\",\"catalog\":\"c\",\"cq\":\"{cq}\"}}\n"),
    );
    assert!(ok, "minimized query admitted:\n{out}");
    assert!(out.contains("\"rows\":2"), "two 2-step pairs:\n{out}");
    assert!(
        out.contains("\"dropped\":["),
        "response lists dropped atoms:\n{out}"
    );

    // The same query with minimize:false must bounce off the admission
    // gate: the literal body's bound exceeds the budget.
    let (ok, out) = run_client(
        &addr,
        &format!("{{\"cmd\":\"query\",\"catalog\":\"c\",\"cq\":\"{cq}\",\"minimize\":false}}\n"),
    );
    assert!(!ok, "unminimized query rejected:\n{out}");
    assert!(
        out.contains("\"kind\":\"admission\""),
        "structured admission error:\n{out}"
    );

    // Malformed: explain with both name and cq is a protocol error.
    let (ok, out) = run_client(
        &addr,
        "{\"cmd\":\"explain\",\"catalog\":\"c\",\"name\":\"p\",\"cq\":\"Q(x) :- e(x, y)\"}\n",
    );
    assert!(!ok, "ambiguous explain rejected:\n{out}");
    assert!(
        out.contains("exactly one of"),
        "error names the contract:\n{out}"
    );

    let (ok, _) = run_client(&addr, "{\"cmd\":\"shutdown\"}\n");
    assert!(ok, "shutdown acknowledged");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exits 0 after shutdown");
}

/// A `query` answered with `tsv:true` escapes its cells like `run` does:
/// hostile strings come back as a TSV that re-imports as what was loaded.
#[test]
fn cq_query_tsv_escapes_hostile_strings() {
    use mjoin::relation::tsv::relation_from_tsv;
    use mjoin::relation::Catalog;
    use mjoin::serve::{Client, Value};
    let hostile = "k\tv\n0\ttab\\there\n1\tline\\nbreak\n2\tback\\\\slash\n\
                   3\t\\s007\n4\t\\s\n5\t\\s x \n6\tplain\n";
    let (mut server, addr) = spawn_server(&[]);
    let mut c = Client::connect(addr.as_str()).unwrap();
    let fields = [
        ("catalog", Value::str("c")),
        ("name", Value::str("r")),
        ("tsv", Value::str(hostile)),
    ];
    let resp = c.cmd("load", &fields).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    let fields = [
        ("catalog", Value::str("c")),
        ("cq", Value::str("Q(k, v) :- r(k, v)")),
        ("tsv", Value::Bool(true)),
    ];
    let resp = c.cmd("query", &fields).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{}",
        resp.render()
    );
    let tsv = resp.get("tsv").and_then(Value::as_str).unwrap();
    assert_eq!(tsv, hostile, "already canonical: sorted and escaped");
    let mut catalog = Catalog::new();
    assert_eq!(
        relation_from_tsv(&mut catalog, tsv).unwrap(),
        relation_from_tsv(&mut catalog, hostile).unwrap()
    );
    c.cmd("shutdown", &[]).unwrap();
    assert!(server.wait().expect("server exits").success());
}

/// A warm `run` of a compiled reducer that rewrites its hub finds every
/// index it wants in the server's cache: the hub's index outlives the
/// rewrite, so the second run's response carries the first's cumulative
/// `cache.miss`.
#[test]
fn a_warm_run_of_a_hub_rewriting_reducer_misses_nothing() {
    let (mut server, addr) = spawn_server(&[]);
    // Rows `(k, tag + k)` for every key `k`.
    let load = |name: &str, head: &str, keys: std::ops::Range<i64>, tag: i64| {
        let rows: String = keys.map(|k| format!("{k}\\t{}\\n", tag + k)).collect();
        format!(
            "{{\"cmd\":\"load\",\"catalog\":\"h\",\"name\":\"{name}\",\"tsv\":\"{head}\\n{rows}\"}}\n"
        )
    };
    let run = "{\"cmd\":\"run\",\"catalog\":\"h\",\"name\":\"r\"}\n";
    let requests = [
        load("ab", "A\\tB", 0..30, 0),
        load("bc", "B\\tC", 0..40, 100),
        load("bd", "B\\tD", 5..40, 200),
        "{\"cmd\":\"compile\",\"catalog\":\"h\",\"name\":\"r\",\"scheme\":\"AB,BC,BD\",\
         \"program\":\"R(BC) := R(BC) ⋉ R(AB)\\nR(BD) := R(BD) ⋉ R(AB)\\n\
         R(AB) := R(AB) ⋉ R(BC)\\nR(AB) := R(AB) ⋉ R(BD)\"}\n"
            .to_string(),
        run.to_string(),
        run.to_string(),
        "{\"cmd\":\"shutdown\"}\n".to_string(),
    ];
    let (ok, out) = run_client(&addr, &requests.concat());
    assert!(ok, "every request succeeds:\n{out}");
    let runs: Vec<Value> = out
        .lines()
        .filter_map(|line| Value::parse(line).ok())
        .filter(|v| v.get("cmd").and_then(Value::as_str) == Some("run"))
        .collect();
    assert_eq!(runs.len(), 2, "two run responses:\n{out}");
    let counter = |run: &Value, name: &str| {
        run.get("cache")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("cache.{name} in {out}"))
    };
    for run in &runs {
        let rows = run.get("rows").and_then(Value::as_u64);
        assert_eq!(rows, Some(25), "the hub keeps B in 5..30:\n{out}");
    }
    assert!(
        counter(&runs[0], "miss") > 0,
        "the first run builds:\n{out}"
    );
    assert_eq!(
        counter(&runs[1], "miss"),
        counter(&runs[0], "miss"),
        "the warm run missed:\n{out}"
    );
    assert!(
        counter(&runs[1], "hit") > counter(&runs[0], "hit"),
        "the warm run hits:\n{out}"
    );
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exits 0 after shutdown");
}
