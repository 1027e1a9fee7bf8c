//! End-to-end tests of the `mjoin_cli` binary: every command, over real TSV
//! files, checking stdout is clean TSV and diagnostics land on stderr.

use std::io::Write;
use std::process::{Command, Output};

fn write_tsv(dir: &std::path::Path, name: &str, content: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mjoin_cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn cli_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mjoin_cli"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

struct Fixture {
    _dir: tempdir::TempDir,
    files: Vec<String>,
}

/// Minimal tempdir (std-only) so the test has no extra dependencies.
mod tempdir {
    pub struct TempDir(std::path::PathBuf);
    impl TempDir {
        pub fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "mjoin-cli-test-{tag}-{}-{}",
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

fn triangle_fixture() -> Fixture {
    let dir = tempdir::TempDir::new("tri");
    let files = vec![
        write_tsv(dir.path(), "r1.tsv", "A\tB\n1\t2\n1\t3\n9\t9\n"),
        write_tsv(dir.path(), "r2.tsv", "B\tC\n2\t5\n3\t6\n"),
        write_tsv(dir.path(), "r3.tsv", "C\tA\n5\t1\n6\t1\n"),
    ]
    .into_iter()
    .map(|p| p.to_string_lossy().into_owned())
    .collect();
    Fixture { _dir: dir, files }
}

#[test]
fn analyze_reports_scheme_facts() {
    let fx = triangle_fixture();
    let args: Vec<&str> = std::iter::once("analyze")
        .chain(fx.files.iter().map(String::as_str))
        .collect();
    let out = cli(&args);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("relations: 3"));
    assert!(text.contains("connected: true"));
    assert!(text.contains("acyclic (GYO): false"));
}

#[test]
fn run_emits_tsv_on_stdout_and_costs_on_stderr() {
    let fx = triangle_fixture();
    let args: Vec<&str> = std::iter::once("run")
        .chain(fx.files.iter().map(String::as_str))
        .collect();
    let out = cli(&args);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    // stdout: header + the 2 join tuples.
    assert_eq!(stdout.lines().count(), 3, "stdout:\n{stdout}");
    assert!(stdout.starts_with("A\tB\tC\n"));
    assert!(stdout.contains("1\t2\t5"));
    assert!(stdout.contains("1\t3\t6"));
    // stderr carries the plan and the costs.
    assert!(stderr.contains("program"));
    assert!(stderr.contains("cost(P(D))"));
}

#[test]
fn run_with_dp_optimizer() {
    let fx = triangle_fixture();
    let mut args = vec!["run", "--optimizer", "dp"];
    args.extend(fx.files.iter().map(String::as_str));
    let out = cli(&args);
    assert!(out.status.success());
}

#[test]
fn plan_does_not_execute() {
    let fx = triangle_fixture();
    let args: Vec<&str> = std::iter::once("plan")
        .chain(fx.files.iter().map(String::as_str))
        .collect();
    let out = cli(&args);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "plan must not write result TSV");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("T2 (CPF)"));
}

#[test]
fn query_command_answers() {
    let fx = triangle_fixture();
    let mut args = vec!["query", "Q(x, z) :- r1(x, y), r2(y, z)"];
    args.extend(fx.files.iter().map(String::as_str));
    let out = cli(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("x\tz\n"));
    assert!(stdout.contains("1\t5"));
    assert!(stdout.contains("1\t6"));
}

/// Hostile strings, as `relation_to_tsv` escapes them: a tab, a newline, a
/// backslash, an integer look-alike, the empty string, padded whitespace.
const HOSTILE_TSV: &str = "k\tv\n0\ttab\\there\n1\tline\\nbreak\n2\tback\\\\slash\n\
                           3\t\\s007\n4\t\\s\n5\t\\s x \n6\tplain\n";

/// `query` answers are escaped like every other TSV this binary writes: the
/// printed answer keeps one line per tuple and re-imports as the relation
/// that was loaded. (`Display` formatting used to leak raw tabs and newlines
/// into the framing and turned `"007"` into `7` on re-import.)
#[test]
fn query_answers_escape_hostile_strings_and_reimport() {
    use mjoin::relation::tsv::relation_from_tsv;
    use mjoin::relation::Catalog;
    let dir = tempdir::TempDir::new("hostile");
    let file = write_tsv(dir.path(), "r.tsv", HOSTILE_TSV);
    let out = cli(&["query", "Q(k, v) :- r(k, v)", file.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, HOSTILE_TSV, "already canonical: sorted and escaped");
    let mut catalog = Catalog::new();
    let loaded = relation_from_tsv(&mut catalog, HOSTILE_TSV).unwrap();
    let printed = relation_from_tsv(&mut catalog, &stdout).unwrap();
    assert_eq!(printed, loaded);
    assert_eq!(printed.len(), 7);

    // `datalog` facts go through the same cell escaping.
    let out = cli(&["datalog", "t(k, v) :- r(k, v).", file.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (banner, facts) = stdout.split_once('\n').unwrap();
    assert_eq!(banner, "# t (7 facts)");
    let printed = relation_from_tsv(&mut catalog, &format!("k\tv\n{facts}")).unwrap();
    assert_eq!(printed, loaded);
}

#[test]
fn help_exits_success() {
    // `--help`, `-h` and the bare `help` command all print usage to stdout
    // and exit 0 — asking for help is not an error.
    for args in [&["--help"][..], &["-h"], &["help"], &["run", "--help"]] {
        let out = cli(args);
        assert!(out.status.success(), "help must exit 0 for {args:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("usage"), "stdout:\n{stdout}");
        assert!(stdout.contains("--explain-analyze"));
    }
}

#[test]
fn query_accepts_dp_linear_optimizer() {
    let fx = triangle_fixture();
    let mut args = vec![
        "query",
        "--optimizer",
        "dp-linear",
        "Q(x, z) :- r1(x, y), r2(y, z)",
    ];
    args.extend(fx.files.iter().map(String::as_str));
    let out = cli(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1\t5"));
    assert!(stdout.contains("1\t6"));
}

#[test]
fn explain_analyze_reports_on_stderr_keeps_stdout_clean() {
    let fx = triangle_fixture();
    let mut args = vec!["run", "--explain-analyze"];
    args.extend(fx.files.iter().map(String::as_str));
    let out = cli(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // stdout stays machine-readable TSV: header + 2 result tuples.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 3, "stdout:\n{stdout}");
    assert!(stdout.starts_with("A\tB\tC\n"));
    // The report lands on stderr, with per-statement rows and the schedule.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("EXPLAIN ANALYZE"), "stderr:\n{stderr}");
    assert!(stderr.contains("schedule:"));
    assert!(stderr.contains("stmt   0"));
    assert!(stderr.contains("rows"));
}

#[test]
fn mjoin_trace_env_writes_chrome_trace_json() {
    let fx = triangle_fixture();
    let dir = tempdir::TempDir::new("trace");
    let trace_path = dir.path().join("out.json");
    let args: Vec<&str> = std::iter::once("run")
        .chain(fx.files.iter().map(String::as_str))
        .collect();
    let out = cli_env(&args, &[("MJOIN_TRACE", trace_path.to_str().unwrap())]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert!(json.contains("\"traceEvents\""), "trace:\n{json}");
    assert!(json.contains("\"ph\":\"X\""), "no span events:\n{json}");
}

fn fixture_path(name: &str) -> String {
    format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_accepts_clean_program() {
    let out = cli(&["check", "--deny", "warn", &fixture_path("example6.mj")]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "check writes nothing to stdout");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("0 error(s), 0 warning(s), 0 note(s)"));
}

#[test]
fn check_flags_cartesian_join_and_denies_warn() {
    let path = fixture_path("cartesian.mj");
    // Default --deny error: warnings are reported but do not fail the run.
    let out = cli(&["check", &path]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cartesian-join"), "stderr:\n{stderr}");
    // --deny warn turns the warning into a nonzero exit.
    let out = cli(&["check", "--deny", "warn", &path]);
    assert!(!out.status.success());
    // --scheme overrides the file's directive (same scheme here).
    let out = cli(&["check", "--deny", "warn", "--scheme", "AB,BC,CD", &path]);
    assert!(!out.status.success());
}

#[test]
fn check_flags_redundant_recompute_as_json() {
    let out = cli(&[
        "check",
        "--deny",
        "warn",
        "--format",
        "json",
        &fixture_path("redundant.mj"),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("\"lint\":\"redundant-recompute\""),
        "stderr:\n{stderr}"
    );
    assert!(stderr.contains("\"lint\":\"noop-semijoin\""));
    assert!(stderr.contains("\"warnings\":2"));
}

#[test]
fn check_rejects_bad_invocations() {
    // No scheme anywhere.
    let dir = tempdir::TempDir::new("check");
    let p = write_tsv(dir.path(), "p.mj", "R(V) := R(AB) ⋈ R(BC)\n");
    let out = cli(&["check", p.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("# scheme:"), "stderr:\n{stderr}");
    // Bad deny level / format.
    let fx = fixture_path("example6.mj");
    assert!(!cli(&["check", "--deny", "loud", &fx]).status.success());
    assert!(!cli(&["check", "--format", "xml", &fx]).status.success());
    // Unparseable program.
    let bad = write_tsv(dir.path(), "bad.mj", "# scheme: AB,BC\nR(V) = oops\n");
    assert!(!cli(&["check", bad.to_str().unwrap()]).status.success());
}

#[test]
fn errors_exit_nonzero() {
    // Unknown command.
    let out = cli(&["frobnicate", "x.tsv"]);
    assert!(!out.status.success());
    // Missing file.
    let out = cli(&["run", "/nonexistent/never.tsv"]);
    assert!(!out.status.success());
    // Bad optimizer name.
    let fx = triangle_fixture();
    let mut args = vec!["run", "--optimizer", "quantum"];
    args.extend(fx.files.iter().map(String::as_str));
    let out = cli(&args);
    assert!(!out.status.success());
    // No args at all.
    let out = cli(&[]);
    assert!(!out.status.success());
}

/// `run`, `query` and `datalog` read files through one loader: a malformed
/// file gets the same message from all three, naming the path and the
/// physical line — the blank lines before the header and in the body count.
#[test]
fn malformed_tsv_reports_the_same_physical_line_everywhere() {
    let dir = tempdir::TempDir::new("malformed");
    let bad = write_tsv(dir.path(), "e.tsv", "\ns\td\r\n0\t1\n\n1\n2\t3\n");
    let bad = bad.to_str().unwrap();
    let want = format!("`{bad}`: parse error: line 5: expected 2 values, found 1");
    for args in [
        vec!["run", bad],
        vec!["query", "Q(x, y) :- e(x, y)", bad],
        vec!["datalog", "t(x, y) :- e(x, y).", bad],
    ] {
        let out = cli(&args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&want), "{args:?} stderr:\n{stderr}");
    }
}

#[test]
fn disconnected_inputs_rejected_with_message() {
    let dir = tempdir::TempDir::new("disc");
    let f1 = write_tsv(dir.path(), "a.tsv", "A\tB\n1\t2\n");
    let f2 = write_tsv(dir.path(), "b.tsv", "X\tY\n3\t4\n");
    let out = cli(&["run", f1.to_str().unwrap(), f2.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("disconnected"));
}

#[test]
fn datalog_command_computes_fixpoint_and_traces_iterations() {
    let dir = tempdir::TempDir::new("datalog");
    let edges = write_tsv(dir.path(), "e.tsv", "s\td\n0\t1\n1\t2\n2\t3\n");
    let out = cli(&[
        "datalog",
        "--explain-analyze",
        "t(x, y) :- e(x, y). t(x, z) :- t(x, y), e(y, z).",
        edges.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Transitive closure of the 4-node chain: C(4,2) = 6 pairs.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("# t (6 facts)"), "stdout:\n{stdout}");
    assert!(stdout.contains("0\t3"));
    // Fixpoint diagnostics and per-iteration spans land on stderr.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fixpoint after"), "stderr:\n{stderr}");
    assert!(stderr.contains("datalog/iteration"), "stderr:\n{stderr}");
    assert!(stderr.contains("datalog/fixpoint"), "stderr:\n{stderr}");
}

fn query_fixture(name: &str) -> String {
    format!("{}/examples/queries/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_query_lints_cq_fixtures() {
    // All three fixtures are clean at the default --deny error threshold:
    // the planted redundancy and the Cartesian split are warnings.
    let out = cli(&[
        "check",
        "--query",
        &query_fixture("redundant.cq"),
        &query_fixture("cartesian.cq"),
        &query_fixture("clean.cq"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "check writes nothing to stdout");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("redundant-atom"), "stderr:\n{stderr}");
    assert!(stderr.contains("cartesian-component"), "stderr:\n{stderr}");
    // The redundancy diagnostic carries its proof: the equivalent core.
    assert!(stderr.contains("2-atom core"), "stderr:\n{stderr}");

    // --deny warn flips the planted fixture to a nonzero exit …
    let out = cli(&[
        "check",
        "--query",
        "--deny",
        "warn",
        &query_fixture("redundant.cq"),
    ]);
    assert!(!out.status.success());
    // … while the fixture that is its own core stays clean.
    let out = cli(&[
        "check",
        "--query",
        "--deny",
        "warn",
        &query_fixture("clean.cq"),
    ]);
    assert!(out.status.success());
}

#[test]
fn check_query_notes_a_minimization_cut_short() {
    // A directed 5-cycle beside a dense bipartite block: proving that no
    // cycle atom folds away outgrows the homomorphism search's budget.
    let mut atoms = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            atoms.push(format!("e(u{i}, v{j})"));
            atoms.push(format!("e(v{j}, u{i})"));
        }
    }
    for i in 0..5 {
        atoms.push(format!("e(z{i}, z{})", (i + 1) % 5));
    }
    let head: Vec<String> = (0..5)
        .flat_map(|i| [format!("u{i}"), format!("v{i}")])
        .collect();
    let dir = tempdir::TempDir::new("budget");
    let query = format!("Q({}) :- {}.\n", head.join(", "), atoms.join(", "));
    let path = write_tsv(dir.path(), "budget.cq", &query);
    let out = cli(&["check", "--query", path.to_str().unwrap()]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "stderr:\n{stderr}");
    assert!(
        stderr.contains("note[minimize-budget]: the core search gave up on 5 fold(s)"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn check_autodetects_cq_sources_and_emits_json() {
    // A `.cq` extension routes through the query linter without --query.
    let out = cli(&[
        "check",
        "--deny",
        "warn",
        "--format",
        "json",
        &query_fixture("redundant.cq"),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("\"lint\":\"redundant-atom\""),
        "stderr:\n{stderr}"
    );
}

#[test]
fn check_rejects_mixed_query_and_program_sources() {
    let out = cli(&[
        "check",
        "--query",
        &query_fixture("clean.cq"),
        &fixture_path("example6.mj"),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("mix"), "stderr:\n{stderr}");
}

#[test]
fn query_minimize_flag_controls_core_compilation() {
    let dir = tempdir::TempDir::new("minimize");
    let edges = write_tsv(dir.path(), "e.tsv", "s\td\n0\t1\n1\t2\n2\t3\n");
    let q = "Q(x, z) :- e(x, y), e(y, z), e(x, d)";
    // Default: the planted atom is folded away and reported on stderr.
    let out = cli(&["query", q, edges.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let on_stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("minimize: dropped 1 of 3 atoms"),
        "stderr:\n{stderr}"
    );
    // Opting out executes the literal body — same answers, no fold note.
    let out = cli(&["query", "--minimize", "off", q, edges.to_str().unwrap()]);
    assert!(out.status.success());
    let off_stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        on_stdout, off_stdout,
        "answers must not depend on --minimize"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("minimize:"), "stderr:\n{stderr}");
    // A query that is its own core says so.
    let out = cli(&[
        "query",
        "Q(x, z) :- e(x, y), e(y, z)",
        edges.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("minimize: query is its own core"),
        "stderr:\n{stderr}"
    );
}

fn data_fixture(stem: &str) -> String {
    format!("{}/examples/data/{stem}.tsv", env!("CARGO_MANIFEST_DIR"))
}

/// [`cli`], asserting a zero exit.
fn cli_ok(args: &[&str]) -> Output {
    let out = cli(args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `run` over the paper's fixture relations, with `abc` standing in for
/// `examples/data/abc.tsv`.
fn run_example_data(flags: &[&str], abc: &str) -> Output {
    let rest = ["cde", "efg", "gha"].map(data_fixture);
    let mut args = vec!["run"];
    args.extend(flags);
    args.push(abc);
    args.extend(rest.iter().map(String::as_str));
    cli_ok(&args)
}

/// The body lines of a TSV answer, sorted (the header stays out of it).
fn sorted_rows(stdout: &[u8]) -> Vec<String> {
    let text = String::from_utf8(stdout.to_vec()).unwrap();
    let mut rows: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
    rows.sort();
    rows
}

#[test]
fn query_auto_routes_the_cyclic_triangle_to_wcoj_and_matches_the_program_engine() {
    let dir = tempdir::TempDir::new("wcoj");
    let files = [
        ("r.tsv", "A\tB\n1\t2\n1\t3\n4\t5\n"),
        ("s.tsv", "B\tC\n2\t7\n3\t7\n3\t8\n5\t6\n"),
        ("t.tsv", "C\tA\n7\t1\n8\t1\n6\t4\n"),
    ]
    .map(|(name, tsv)| write_tsv(dir.path(), name, tsv));
    let run = |flags: &[&str]| {
        let mut args = vec!["query"];
        args.extend(flags);
        args.push("Q(x,y,z) :- r(x,y), s(y,z), t(z,x)");
        args.extend(files.iter().map(|p| p.to_str().unwrap()));
        cli_ok(&args)
    };
    // The triangle routes to wcoj on bounds alone, and the elimination loop
    // shows up in the EXPLAIN ANALYZE counters.
    let auto = run(&["--executor", "auto", "--explain-analyze"]);
    let stderr = String::from_utf8(auto.stderr).unwrap();
    assert!(stderr.contains("executor wcoj (AGM bound"), "{stderr}");
    assert!(stderr.contains("wcoj.attr_loops"), "{stderr}");
    let answers = sorted_rows(&auto.stdout);
    assert_eq!(answers.len(), 4, "{answers:?}");
    // Forcing the program engine gives the same four answers.
    let program = run(&["--executor", "program"]);
    assert_eq!(answers, sorted_rows(&program.stdout));
}

#[test]
fn check_memory_renders_the_certificate_and_gates_on_the_budget() {
    let example6 = fixture_path("example6.mj");
    let check = |flags: &[&str]| {
        let mut args = vec!["check", "--memory"];
        args.extend(flags);
        args.push(&example6);
        let out = cli(&args);
        (out.status.success(), String::from_utf8(out.stderr).unwrap())
    };
    // The per-statement certificate renders for the paper's Example 6.
    let (ok, stderr) = check(&[]);
    assert!(ok && stderr.contains("memory: peak"), "{stderr}");
    assert!(!stderr.contains("mem-blowup"), "{stderr}");
    // A starved budget flags the blowup statements: a warning, so the exit
    // status turns only under --deny warn.
    let (ok, stderr) = check(&["--mem-budget", "200000"]);
    assert!(ok && stderr.contains("warn[mem-blowup] stmt 2"), "{stderr}");
    let (ok, _) = check(&["--mem-budget", "200000", "--deny", "warn"]);
    assert!(!ok, "--deny warn must fail a starved budget");
    // A roomy one stays clean even under --deny warn.
    let (ok, stderr) = check(&["--mem-budget", "99999999999999999", "--deny", "warn"]);
    assert!(ok && !stderr.contains("mem-blowup"), "{stderr}");
}

#[test]
fn run_under_a_starved_budget_spills_and_prints_the_unbudgeted_rows() {
    let starved = run_example_data(&["--mem-budget", "1"], &data_fixture("abc"));
    let stderr = String::from_utf8(starved.stderr).unwrap();
    assert!(stderr.contains("memory: certified peak"), "{stderr}");
    assert!(stderr.contains("memory: spilling statements"), "{stderr}");
    let unbudgeted = run_example_data(&[], &data_fixture("abc"));
    let stderr = String::from_utf8(unbudgeted.stderr).unwrap();
    assert!(!stderr.contains("memory:"), "{stderr}");
    assert_eq!(starved.stdout, unbudgeted.stdout);
}

/// `--threads` changes how `run` schedules the program, never what it
/// prints: four threads give the one-thread stdout byte for byte, in memory
/// and under a starved budget.
#[test]
fn run_with_four_threads_prints_the_one_thread_answer() {
    for budget in [&[][..], &["--mem-budget", "1"]] {
        let run = |threads| {
            let flags = [budget, &["--threads", threads]].concat();
            run_example_data(&flags, &data_fixture("abc")).stdout
        };
        let one = run("1");
        assert!(one.starts_with(b"A\t"), "{}", String::from_utf8_lossy(&one));
        assert_eq!(run("4"), one, "--threads 4 {budget:?}");
    }
}

/// A spill that cannot write its partitions (`TMPDIR` is a regular file)
/// still answers, joining in memory, and says so on stderr: never silently.
#[test]
fn run_whose_spill_fails_reports_it_and_keeps_the_answer() {
    let dir = tempdir::TempDir::new("spill-fail");
    let not_a_dir = write_tsv(dir.path(), "tmpdir", "");
    let files: Vec<String> = ["abc", "cde", "efg", "gha"].map(data_fixture).into();
    let mut args = vec!["run", "--mem-budget", "1"];
    args.extend(files.iter().map(String::as_str));
    let failed = cli_env(&args, &[("TMPDIR", not_a_dir.to_str().unwrap())]);
    let stderr = String::from_utf8(failed.stderr).unwrap();
    assert!(failed.status.success(), "{stderr}");
    assert!(stderr.contains("memory: spilling statements"), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.contains("could not spill"))
        .unwrap_or_else(|| panic!("no spill-failure line in:\n{stderr}"));
    assert!(
        line.starts_with("memory: statement ")
            && line.ends_with("); joined in memory over the certified budget"),
        "{line}"
    );
    assert_eq!(
        failed.stdout,
        run_example_data(&[], &data_fixture("abc")).stdout
    );
}

/// A `query` whose component spill cannot write its partitions answers
/// like the unbudgeted query and says which statements joined in memory,
/// in the lines `run` prints.
#[test]
fn query_whose_spill_fails_reports_it_and_keeps_the_answer() {
    let dir = tempdir::TempDir::new("query-spill-fail");
    let not_a_dir = write_tsv(dir.path(), "tmpdir", "");
    let cq = "Q(a, c, e, g) :- abc(a, b, c), cde(c, d, e), efg(e, f, g), gha(g, h, a)";
    let files: Vec<String> = ["abc", "cde", "efg", "gha"].map(data_fixture).into();
    let query = |budget: &[&'static str], env: &[(&str, &str)]| {
        let mut args = vec!["query"];
        args.extend(budget);
        args.push(cq);
        args.extend(files.iter().map(String::as_str));
        cli_env(&args, env)
    };
    let failed = query(
        &["--mem-budget", "1"],
        &[("TMPDIR", not_a_dir.to_str().unwrap())],
    );
    let stderr = String::from_utf8(failed.stderr).unwrap();
    assert!(failed.status.success(), "{stderr}");
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("could not spill"))
        .collect();
    assert!(!lines.is_empty(), "no spill-failure line in:\n{stderr}");
    for line in lines {
        assert!(
            line.starts_with("memory: statement ")
                && line.ends_with("); joined in memory over the certified budget"),
            "{line}"
        );
    }
    let unbudgeted = query(&[], &[]);
    assert!(unbudgeted.status.success());
    assert!(!unbudgeted.stdout.is_empty());
    assert_eq!(failed.stdout, unbudgeted.stdout);
}

/// Framing is not data: `abc.tsv` re-framed with CRLF endings, a blank line
/// after the header and no final newline gives byte-identical `run` output.
#[test]
fn run_output_ignores_crlf_blank_lines_and_a_missing_final_newline() {
    let dir = tempdir::TempDir::new("crlf");
    let abc = std::fs::read_to_string(data_fixture("abc")).unwrap();
    let (header, body) = abc.trim_end().split_once('\n').unwrap();
    let reframed = format!("{header}\r\n\r\n{}", body.replace('\n', "\r\n"));
    let reframed = write_tsv(dir.path(), "abc.tsv", &reframed);
    assert_eq!(
        run_example_data(&[], &data_fixture("abc")).stdout,
        run_example_data(&[], reframed.to_str().unwrap()).stdout
    );
}
