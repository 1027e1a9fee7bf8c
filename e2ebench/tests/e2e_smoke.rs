//! Runs the benchmark's smoke mode end to end — generators, oracles, the
//! subprocess and server operations, the in-process replay, the result file
//! and `--compare` — and pins `BENCHMARK.json` to the tables in `src/spec.rs`.
//!
//! The smoke run builds `mjoin_cli` itself (`cargo build --release`), so this
//! test needs the repository around it, which is also why it lives in the
//! benchmark's own package and not in the workspace's test suite.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("e2ebench sits in the repository root")
        .to_path_buf()
}

fn e2e() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_e2e"));
    c.current_dir(repo_root());
    c
}

#[test]
fn smoke_suite_passes_its_oracles_and_agrees_with_itself() {
    let out = e2e()
        .args(["--smoke", "--check", "--seed", "3"])
        .output()
        .expect("run e2e --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for w in [
        "ex3_dp",
        "star_query",
        "tri_wcoj",
        "chain_spill",
        "serve_warm",
        "serve_churn",
    ] {
        assert!(stdout.contains(&format!("== {w} ==")), "no table for {w}");
    }
    for m in [
        "setup_s",
        "op_ms_p50",
        "ops_per_s",
        "peak_rss_mb",
        "cli.unattributed_frac",
    ] {
        assert!(stdout.contains(m), "metric {m} not printed");
    }
    assert!(!stdout.contains("ops_failed 1"), "{stdout}");

    let result = stdout
        .lines()
        .find_map(|l| l.strip_prefix("results: "))
        .expect("result file path printed");
    // A result file agrees with itself: every verdict `same`, counts equal.
    let cmp = e2e()
        .args(["--compare", result, result])
        .output()
        .expect("run e2e --compare");
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(table.contains("same +0.0%"), "{table}");
    assert!(
        !table.contains("worse") && !table.contains("unresolved"),
        "{table}"
    );
}

#[test]
fn driver_form_prints_one_json_object_last() {
    for trace in ["0", "1"] {
        let out = e2e()
            .args([
                "--smoke",
                "--workload",
                "tri_wcoj",
                "--seed",
                "4",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .output()
            .expect("run e2e");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\":true,\"attempted\":"),
            "{last}"
        );
        assert!(last.contains("\"failed\":0,\"metrics\":{"), "{last}");
        let expect = if trace == "0" {
            "\"op_ms_p50\""
        } else {
            "\"wcoj.selected\":{\"value\":1,"
        };
        assert!(last.contains(expect), "{last}");
    }
}

/// `BENCHMARK.json` and `src/spec.rs` / `src/workloads.rs` name the same
/// metrics, units, directions, bounds and workloads.
#[test]
fn benchmark_json_matches_the_tables() {
    let manifest =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = include_str!("../src/spec.rs");
    let mut metrics = 0;
    for line in spec.lines().map(str::trim) {
        let Some(args) = line
            .strip_prefix("e2e(")
            .or_else(|| line.strip_prefix("layer("))
            .and_then(|r| r.strip_suffix("),"))
        else {
            continue;
        };
        let parts: Vec<&str> = args.split(", ").map(|p| p.trim_matches('"')).collect();
        let (name, unit, better) = (parts[0], parts[1], parts[2].to_lowercase());
        let mut entry = format!(
            "\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{better}\""
        );
        if let Some(bound) = parts.get(3) {
            entry.push_str(&format!(",\n      \"bound\": {bound}"));
        }
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        metrics += 1;
    }
    assert_eq!(
        metrics,
        manifest.matches("\"better\"").count(),
        "metric count differs"
    );
    let workloads = include_str!("../src/workloads.rs");
    for w in [
        "ex3_dp",
        "star_query",
        "tri_wcoj",
        "chain_spill",
        "serve_warm",
        "serve_churn",
    ] {
        assert!(
            manifest.contains(&format!("\"name\": \"{w}\"")),
            "workload {w} missing"
        );
    }
    for why in manifest
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"why\": "))
    {
        assert!(
            workloads.contains(why.trim_end_matches(',')),
            "why not in workloads.rs: {why}"
        );
    }
    assert!(manifest.contains("\"paths\": [\n    \"e2ebench\"\n  ]"));
}
