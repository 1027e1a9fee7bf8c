//! `e2e` — one benchmark for the paths users run: TSV files → plan → derive
//! → certify → execute → rows through `mjoin_cli`, and requests against a
//! warm `mjoin_cli serve`, with per-layer attribution.
//!
//! ```text
//! # the benchmark driver's form: one workload, one pass, one JSON line
//! e2e --workload ex3_dp --seed 1 --seconds 10 --trace 0
//! # everything: six workloads, both passes, table + result file
//! e2e --seed 1 [--runs N] [--seconds S] [--smoke] [--check] [--append PATH]
//! # two result files against the bounds
//! e2e --compare A.json B.json
//! ```
//!
//! See `README.md` in this directory for the metric glossary.

mod check;
mod json;
mod oneshot;
mod replay;
mod report;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;
mod workloads;

use report::WorkloadResults;
use run::{Env, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`: the timed phase when `--seconds` is
/// not given.
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<u8>,
    runs: usize,
    smoke: bool,
    check: bool,
    append: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    // Replay child only.
    replay_child: Option<String>,
    data: Option<PathBuf>,
    report: Option<PathBuf>,
    traced: bool,
    chrome: Option<PathBuf>,
}

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
     \x20          [--runs N] [--smoke] [--check] [--append PATH]\n\
     \x20      e2e --compare A.json B.json\n\
     \n\
     --workload NAME  ex3_dp | star_query | tri_wcoj | chain_spill | serve_warm | serve_churn\n\
     --seed N         workload seed (default 1); the same seed gives the same inputs\n\
     --seconds S      length of each timed phase (default: run_seconds of BENCHMARK.json, 10)\n\
     --trace 0|1      driver form: measure one workload and print one JSON line —\n\
     \x20                0 = end-to-end metrics (tracing off), 1 = per-layer metrics\n\
     --runs N         suite form: repeat every workload N times (default 1) so that\n\
     \x20                --compare can tell a change from run-to-run spread\n\
     --smoke          tiny inputs, 3 operations per workload, the whole suite in seconds\n\
     --check          also assert the replay adds up and each workload's dominant layer\n\
     --append PATH    append one JSON line (commit, date, seed, medians) to PATH\n\
     --compare A B    judge result file B against A with the bounds of BENCHMARK.json";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        runs: 1,
        ..Args::default()
    };
    let mut argv = std::env::args().skip(1);
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--workload" => a.workload = Some(value(&mut argv, &arg)?),
            "--seed" => {
                a.seed = value(&mut argv, &arg)?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value(&mut argv, &arg)?
                    .parse()
                    .map_err(|_| "bad --seconds".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value(&mut argv, &arg)?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    other => return Err(format!("bad --trace `{other}` (0|1)")),
                });
            }
            "--runs" => {
                a.runs = value(&mut argv, &arg)?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("bad --runs (1..=100)")?;
            }
            "--smoke" => a.smoke = true,
            "--check" => a.check = true,
            "--append" => a.append = Some(value(&mut argv, &arg)?.into()),
            "--compare" => {
                a.compare = Some((
                    value(&mut argv, &arg)?.into(),
                    value(&mut argv, &arg)?.into(),
                ));
            }
            "--replay-child" => a.replay_child = Some(value(&mut argv, &arg)?),
            "--data" => a.data = Some(value(&mut argv, &arg)?.into()),
            "--report" => a.report = Some(value(&mut argv, &arg)?.into()),
            "--traced" => a.traced = true,
            "--chrome" => a.chrome = Some(value(&mut argv, &arg)?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })
}

/// The driver's form: one workload, one pass, the JSON object as the last
/// line of stdout.
fn driver_run(a: &Args, trace: u8) -> Result<ExitCode, String> {
    let workload = workload_named(a.workload.as_deref().ok_or("--trace needs --workload")?)?;
    let env = Env::prepare()?;
    let cfg = RunConfig {
        workload,
        seed: a.seed,
        seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
        smoke: a.smoke,
    };
    let res = if trace == 0 {
        run::end_to_end(&env, &cfg)?
    } else {
        run::per_layer(&env, &cfg)?
    };
    for f in &res.failures {
        eprintln!("e2e: {}: {f}", workload.name());
    }
    println!("{}", report::driver_line(&res));
    Ok(ExitCode::SUCCESS)
}

/// The suite: every workload (or the one named), both passes, `--runs`
/// times; table on stdout, result file and harness traces under
/// `<target>/bench-out/`. Exits non-zero if any operation failed.
fn suite(a: &Args) -> Result<ExitCode, String> {
    let selected: Vec<Workload> = match &a.workload {
        Some(name) => vec![workload_named(name)?],
        None => Workload::ALL.to_vec(),
    };
    let env = Env::prepare()?;
    let seconds = a.seconds.unwrap_or(DEFAULT_SECONDS);
    eprintln!(
        "e2e: built mjoin_cli in {:.1} s; seed {}, {} s per timed phase{}",
        env.build_s,
        a.seed,
        seconds,
        if a.smoke { ", smoke sizes" } else { "" }
    );
    let mut results = Vec::new();
    for workload in selected {
        let cfg = RunConfig {
            workload,
            seed: a.seed,
            seconds,
            smoke: a.smoke,
        };
        let mut wr = WorkloadResults {
            workload,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for run in 0..a.runs {
            eprintln!("e2e: {} run {}/{}", workload.name(), run + 1, a.runs);
            wr.end_to_end.push(run::end_to_end(&env, &cfg)?);
            wr.per_layer.push(run::per_layer(&env, &cfg)?);
        }
        for f in wr
            .end_to_end
            .iter()
            .chain(&wr.per_layer)
            .flat_map(|r| &r.failures)
        {
            eprintln!("e2e: {}: {f}", workload.name());
        }
        results.push(wr);
    }
    report::print_table(&results);
    let out = env.out_dir.join(format!("e2e-{}.json", a.seed));
    std::fs::write(&out, report::suite_json(&results, a.seed, seconds, a.smoke))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("\nresults: {}", out.display());
    println!(
        "harness traces: {}/e2e-<workload>-{}.trace.json",
        env.out_dir.display(),
        a.seed
    );
    if let Some(path) = &a.append {
        report::append_line(path, &results, a.seed)?;
    }
    let mut ok = results.iter().all(|wr| wr.failed() == 0);
    if a.check {
        let bad = report::check(&results, a.smoke);
        for b in &bad {
            eprintln!("e2e: check failed: {b}");
        }
        ok &= bad.is_empty();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let a = parse_args()?;
    if let Some(name) = &a.replay_child {
        let child = replay::ChildArgs {
            workload: workload_named(name)?,
            seed: a.seed,
            smoke: a.smoke,
            data: a.data.clone().ok_or("--replay-child needs --data")?,
            report: a.report.clone().ok_or("--replay-child needs --report")?,
            traced: a.traced,
            chrome: a.chrome.clone(),
        };
        replay::child_main(&child)?;
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((x, y)) = &a.compare {
        return Ok(if report::compare(x, y)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    match a.trace {
        Some(trace) => driver_run(&a, trace),
        None => suite(&a),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
