//! One benchmark run of one workload: the end-to-end pass (tracing off) or
//! the per-layer pass (operations + replay + traced replay).

use crate::check::Expected;
use crate::json::Json;
use crate::oneshot::{drain, run_op, stderr_of, OP_TIMEOUT};
use crate::serve::{self, ServerChild, Until};
use crate::spec::PER_LAYER;
use crate::stats::{iqr_frac, median, quantile};
use crate::workloads::{
    one_shot_plan, serve_plan, write_one_shot, ServePlan, Sizes, Verb, Workload,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run of a one-shot workload; `setup_s` is their
/// median. (A server workload sets up once per segment, see
/// [`SERVE_SEGMENTS`].)
const SETUPS: usize = 5;
/// Fresh replay processes per per-layer run, at least (one-shot workloads).
const REPLAY_REPS: usize = 10;
/// Fresh replay processes per per-layer run (server workloads, whose replay
/// loads the whole resident state and performs two passes of operations).
const SERVE_REPLAY_REPS: usize = 3;
/// Traced replay processes per per-layer run.
const TRACED_REPS: usize = 3;
/// `mjoin_cli --help` runs behind `cli.startup_ms`.
const STARTUP_REPS: usize = 10;

/// Where things are for this invocation.
pub struct Env {
    /// The freshly built `mjoin_cli`.
    pub cli: PathBuf,
    /// This executable, re-spawned for replays.
    pub self_exe: PathBuf,
    pub data_root: PathBuf,
    pub out_dir: PathBuf,
    /// Seconds `cargo build` took (a no-op build when nothing changed).
    pub build_s: f64,
}

/// The cargo target directory builds and benchmark files go under.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .filter(|v| !v.is_empty())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

impl Env {
    /// Build `mjoin_cli` from the sources in the current directory — always,
    /// so a parent-vs-change comparison can never time a stale binary — and
    /// lay out the data and output directories.
    pub fn prepare() -> Result<Env, String> {
        let t0 = Instant::now();
        let out = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "mjoin",
                "--bin",
                "mjoin_cli",
            ])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "building mjoin_cli failed ({}):\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let build_s = t0.elapsed().as_secs_f64();
        let target = std::path::absolute(target_dir()).map_err(|e| e.to_string())?;
        let cli = target.join("release").join("mjoin_cli");
        if !cli.is_file() {
            return Err(format!("{} was not built", cli.display()));
        }
        let env = Env {
            cli,
            self_exe: std::env::current_exe().map_err(|e| e.to_string())?,
            data_root: target.join("bench-data"),
            out_dir: target.join("bench-out"),
            build_s,
        };
        std::fs::create_dir_all(&env.data_root).map_err(|e| e.to_string())?;
        std::fs::create_dir_all(&env.out_dir).map_err(|e| e.to_string())?;
        Ok(env)
    }

    fn data_dir(&self, w: Workload, seed: u64) -> PathBuf {
        self.data_root.join(format!("{}-{seed}", w.name()))
    }
}

/// What to run.
#[derive(Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Tiny sizes and [`SMOKE_OPS`] operations instead of a timed phase.
    pub smoke: bool,
}

/// Operations per workload (per connection, for the server) in smoke mode.
pub const SMOKE_OPS: usize = 3;

impl RunConfig {
    fn sizes(&self) -> Sizes {
        Sizes::of(self.smoke)
    }
}

/// The outcome of one run: the driver's four keys plus sample counts.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Samples behind a metric, where that is not 1.
    pub samples: Vec<(String, usize)>,
    /// First few failure reasons, for the error report.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn put(&mut self, name: &str, v: f64) {
        self.metrics.push((name.to_string(), v));
    }

    fn put_n(&mut self, name: &str, v: f64, n: usize) {
        self.put(name, v);
        self.samples.push((name.to_string(), n));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn fail(&mut self, why: String) {
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Book a server loop's operations and failures.
    fn book(&mut self, log: &serve::LoopLog) {
        self.attempted = log.op_ms.len() as u64;
        self.failed = log.failures.len() as u64;
        for f in &log.failures {
            self.fail(f.clone());
        }
    }
}

fn wipe(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

// ---------------------------------------------------------------------------
// One-shot workloads.

struct OneShotSetup {
    args: Vec<String>,
    expected: Expected,
    dir: PathBuf,
}

/// Generate the data and run one checked warm-up operation (binary and
/// inputs into the page cache) — what `setup_s` times for a one-shot
/// workload.
fn setup_one_shot(env: &Env, cfg: &RunConfig) -> Result<OneShotSetup, String> {
    let dir = env.data_dir(cfg.workload, cfg.seed);
    wipe(&dir)?;
    let sizes = cfg.sizes();
    let (expected, _) =
        write_one_shot(cfg.workload, &sizes, cfg.seed, &dir).map_err(|e| e.to_string())?;
    let args = one_shot_plan(cfg.workload, &sizes, &dir).cli_args();
    let warm = run_op(&env.cli, &args, &dir, expected);
    if let Err(e) = warm.verdict {
        return Err(format!(
            "warm-up operation failed: {e}\n{}",
            stderr_of(&env.cli, &args, &dir)
        ));
    }
    Ok(OneShotSetup {
        args,
        expected,
        dir,
    })
}

/// One real operation, booked into `res`; its latency joins `ok_ms` if the
/// answer was right.
fn timed_op(env: &Env, s: &OneShotSetup, res: &mut RunResult, ok_ms: &mut Vec<f64>) {
    let op = run_op(&env.cli, &s.args, &s.dir, s.expected);
    res.attempted += 1;
    match op.verdict {
        Ok(()) => ok_ms.push(op.ms),
        Err(e) => {
            res.failed += 1;
            res.fail(format!("operation {}: {e}", res.attempted));
        }
    }
}

/// Operations until `cfg.seconds` have passed (at least [`SMOKE_OPS`]), or
/// exactly [`SMOKE_OPS`] in smoke mode. Returns latencies of correct
/// operations and the phase's wall time.
fn one_shot_ops(
    env: &Env,
    cfg: &RunConfig,
    s: &OneShotSetup,
    res: &mut RunResult,
) -> (Vec<f64>, f64) {
    let mut ok_ms = Vec::new();
    let t0 = Instant::now();
    while (res.attempted as usize) < SMOKE_OPS
        || (!cfg.smoke && t0.elapsed().as_secs_f64() < cfg.seconds)
    {
        timed_op(env, s, res, &mut ok_ms);
    }
    (ok_ms, t0.elapsed().as_secs_f64())
}

/// Spawn one replay child; returns its parsed report.
fn replay_child(
    env: &Env,
    cfg: &RunConfig,
    expected: Option<Expected>,
    kind: &str,
    rep: usize,
    chrome: bool,
) -> Result<Json, String> {
    let dir = env.data_dir(cfg.workload, cfg.seed);
    let report = env.out_dir.join(format!(
        "replay-{}-{}-{kind}-{rep}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    let mut cmd = Command::new(&env.self_exe);
    cmd.arg("--replay-child")
        .arg(cfg.workload.name())
        .args(["--seed", &cfg.seed.to_string()])
        .arg("--data")
        .arg(&dir)
        .arg("--report")
        .arg(&report);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if kind == "traced" {
        cmd.arg("--traced");
    }
    if chrome {
        cmd.arg("--chrome").arg(env.out_dir.join(format!(
            "e2e-{}-{}.trace.json",
            cfg.workload.name(),
            cfg.seed
        )));
    }
    let child = cmd
        .env("TMPDIR", &dir)
        .env_remove("MJOIN_TRACE")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn replay: {e}"))?;
    let (bytes, status) = drain(child, OP_TIMEOUT * 2);
    status.map_err(|e| format!("replay ({kind} {rep}) failed: {e}"))?;
    if let Some(want) = expected {
        crate::check::verify(&bytes, want).map_err(|e| format!("replay answer: {e}"))?;
    }
    let text = std::fs::read_to_string(&report).map_err(|e| format!("replay report: {e}"))?;
    let _ = std::fs::remove_file(&report);
    Json::parse(&text)
}

fn end_to_end_one_shot(env: &Env, cfg: &RunConfig) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        last = Some(setup_one_shot(env, cfg)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let s = last.expect("SETUPS > 0");
    let (ok_ms, wall_s) = one_shot_ops(env, cfg, &s, &mut res);
    let rss = replay_child(env, cfg, Some(s.expected), "rss", 0, false)?;
    res.put_n("setup_s", median(&setups), setups.len());
    res.put_n("op_ms_p50", median(&ok_ms), ok_ms.len());
    res.put_n("ops_per_s", ok_ms.len() as f64 / wall_s, ok_ms.len());
    res.put(
        "peak_rss_mb",
        rss.get("hwm_mb").and_then(Json::num).unwrap_or(0.0),
    );
    Ok(res)
}

// ---------------------------------------------------------------------------
// Server workloads.

/// Generate the requests, start the server, load, compile, validate, warm
/// up — what `setup_s` times for a server workload.
fn setup_serve(env: &Env, cfg: &RunConfig) -> Result<(ServerChild, ServePlan), String> {
    let dir = env.data_dir(cfg.workload, cfg.seed);
    wipe(&dir)?;
    let plan = serve_plan(cfg.workload, &cfg.sizes(), cfg.seed);
    // Keep what the server is about to receive next to the one-shot TSVs.
    let script: String = plan.setup.iter().map(|p| format!("{}\n", p.line)).collect();
    std::fs::write(dir.join("setup.jsonl"), script).map_err(|e| e.to_string())?;
    let server = ServerChild::start(&env.cli, &dir)?;
    let mut conn = serve::Conn::open(&server.addr)?;
    serve::prepare(&mut conn, &plan)?;
    Ok((server, plan))
}

/// Fresh servers per end-to-end run, each set up and then loaded for its
/// share of the timed phase. One server process is faster or slower than the
/// next by several per cent for its whole life (where its heap landed, how
/// its threads were placed), which a longer loop on it cannot average away;
/// five processes per run do, and give `setup_s` five samples.
const SERVE_SEGMENTS: usize = 5;

/// The operation count (per segment) at which the server's `VmHWM` is
/// sampled: fixed, so memory is compared at equal work done and not at equal
/// time passed.
fn rss_mark(cfg: &RunConfig) -> u64 {
    match (cfg.smoke, cfg.workload) {
        (true, _) => (SMOKE_OPS * serve::CONNECTIONS) as u64,
        (false, Workload::ServeWarm) => 300,
        (false, _) => 150,
    }
}

fn loop_bound(cfg: &RunConfig, seconds: f64) -> Until {
    if cfg.smoke {
        Until::Ops(SMOKE_OPS)
    } else {
        Until::Deadline(Instant::now() + Duration::from_secs_f64(seconds))
    }
}

fn end_to_end_serve(env: &Env, cfg: &RunConfig) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let segments = if cfg.smoke { 1 } else { SERVE_SEGMENTS };
    let (mut setups, mut hwms) = (Vec::new(), Vec::new());
    let mut log = serve::LoopLog::default();
    let mut wall_s = 0.0;
    for k in 0..segments {
        let t0 = Instant::now();
        let (server, plan) = setup_serve(env, cfg)?;
        setups.push(t0.elapsed().as_secs_f64());
        let (part, part_wall_s) = serve::timed_loop(
            &server,
            &plan,
            cfg.seed,
            &format!("t{k}"),
            loop_bound(cfg, cfg.seconds / segments as f64),
            rss_mark(cfg),
        );
        hwms.push(if part.rss_mb_at_mark > 0.0 {
            part.rss_mb_at_mark
        } else {
            server.status_mb("VmHWM")
        });
        server.shutdown();
        wall_s += part_wall_s;
        log.merge(part);
    }
    res.book(&log);
    let ok = res.attempted - res.failed;
    res.put_n("setup_s", median(&setups), setups.len());
    res.put_n("op_ms_p50", median(&log.op_ms), log.op_ms.len());
    res.put_n("ops_per_s", ok as f64 / wall_s, ok as usize);
    res.put_n("peak_rss_mb", median(&hwms), hwms.len());
    Ok(res)
}

pub fn end_to_end(env: &Env, cfg: &RunConfig) -> Result<RunResult, String> {
    if cfg.workload.is_serve() {
        end_to_end_serve(env, cfg)
    } else {
        end_to_end_one_shot(env, cfg)
    }
}

// ---------------------------------------------------------------------------
// The per-layer pass.

/// Replay reports of one kind, reduced by medians over the processes.
struct Replays(Vec<Json>);

impl Replays {
    fn med(&self, f: impl Fn(&Json) -> Option<f64>) -> f64 {
        let v: Vec<f64> = self.0.iter().filter_map(f).collect();
        median(&v)
    }

    fn op_ms(&self) -> f64 {
        self.med(|r| r.get("op_ms")?.num())
    }

    /// `(total ms, count)` of span `name` in one report; zeros if absent.
    fn span_of(r: &Json, name: &str) -> Option<(f64, f64)> {
        Some(r.get("spans")?.get(name).map_or((0.0, 1.0), |s| {
            let part = |i: usize| s.arr().get(i).and_then(Json::num);
            (part(0).unwrap_or(0.0), part(1).unwrap_or(1.0).max(1.0))
        }))
    }

    /// Total milliseconds under span `name` per process.
    fn span(&self, name: &str) -> f64 {
        self.med(|r| Some(Self::span_of(r, name)?.0))
    }

    /// Mean milliseconds per occurrence of span `name`.
    fn span_mean(&self, name: &str) -> f64 {
        self.med(|r| Self::span_of(r, name).map(|(ms, n)| ms / n))
    }

    /// Sum of every layer span under the root, per process.
    fn layers_sum(&self) -> f64 {
        self.med(|r| {
            Some(
                r.get("spans")?
                    .obj()
                    .iter()
                    .filter(|(n, _)| n != "cli.op")
                    .map(|(_, s)| s.arr()[0].num().unwrap_or(0.0))
                    .sum(),
            )
        })
    }

    fn value(&self, name: &str) -> f64 {
        self.med(|r| {
            Some(
                r.get("values")?
                    .get(name)
                    .and_then(Json::num)
                    .unwrap_or(0.0),
            )
        })
    }

    fn engine_ms(&self, name: &str) -> f64 {
        self.med(|r| {
            Some(
                r.get("engine_spans")?
                    .get(name)
                    .and_then(Json::num)
                    .unwrap_or(0.0),
            )
        })
    }

    fn counter(&self, name: &str) -> f64 {
        self.med(|r| {
            Some(
                r.get("counters")?
                    .get(name)
                    .and_then(Json::num)
                    .unwrap_or(0.0),
            )
        })
    }
}

fn mb_per_s(bytes: f64, ms: f64) -> f64 {
    if ms <= 0.0 {
        return 0.0;
    }
    bytes / (1024.0 * 1024.0) / (ms / 1e3)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Spawn → exit of `mjoin_cli --help`: process start-up and tear-down with
/// no work in between.
fn cli_startup_ms(env: &Env) -> f64 {
    let samples: Vec<f64> = (0..STARTUP_REPS)
        .filter_map(|_| {
            let t0 = Instant::now();
            let st = Command::new(&env.cli)
                .arg("--help")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .ok()?;
            st.success().then(|| t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    median(&samples)
}

/// Metrics every workload fills the same way from its replays.
fn common_layers(m: &mut HashMap<&'static str, f64>, plain: &Replays, traced: &Replays) {
    m.insert("relation.join_ms", traced.engine_ms("op/join"));
    m.insert("relation.semijoin_ms", traced.engine_ms("op/semijoin"));
    m.insert("relation.project_ms", traced.engine_ms("op/project"));
    m.insert(
        "relation.spill_partitions",
        traced.counter("mem.partitions"),
    );
    m.insert(
        "relation.spilled_bytes",
        traced.counter("mem.spilled_bytes"),
    );
    m.insert("relation.spill_passes", traced.counter("mem.passes"));
    m.insert(
        "optimizer.oracle_calls",
        traced.counter("optimizer.oracle_calls"),
    );
    m.insert(
        "optimizer.dp_subproblems",
        traced.counter("optimizer.dp_subproblems"),
    );
    let (hit, miss) = (
        traced.counter("index_cache.hit"),
        traced.counter("index_cache.miss"),
    );
    m.insert("program.index_cache_hit_frac", ratio(hit, hit + miss));
    m.insert("wcoj.execute_ms", traced.engine_ms("exec/wcoj"));
    m.insert("wcoj.seeks", traced.counter("wcoj.seeks"));
    m.insert("wcoj.attr_loops", traced.counter("wcoj.attr_loops"));
    m.insert("pool.tasks", traced.counter("pool.tasks"));
    m.insert("pool.task_wait_us", traced.counter("pool.task_wait_us"));
    m.insert("cq.parse_ms", plain.span_mean("cq.parse"));
    m.insert("cq.execute_query_ms", plain.span_mean("cq.execute_query"));
    m.insert("cq.materialize_ms", plain.span_mean("cq.materialize"));
    m.insert("analyze.certify_ms", plain.span_mean("analyze.certify"));
}

fn per_layer_one_shot(
    env: &Env,
    cfg: &RunConfig,
    m: &mut HashMap<&'static str, f64>,
    res: &mut RunResult,
) -> Result<(), String> {
    let s = setup_one_shot(env, cfg)?;
    // Real operations (tracing off) and replay processes take turns, so the
    // latency the layers have to add up to is measured under the same
    // minute-to-minute conditions as the layers themselves.
    let reps = if cfg.smoke { SMOKE_OPS } else { REPLAY_REPS };
    let traced_reps = if cfg.smoke { 1 } else { TRACED_REPS };
    let (mut ok_ms, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while plain.len() < reps || (!cfg.smoke && t0.elapsed().as_secs_f64() < cfg.seconds * 0.6) {
        timed_op(env, &s, res, &mut ok_ms);
        let rep = plain.len();
        plain.push(replay_child(
            env,
            cfg,
            Some(s.expected),
            "plain",
            rep,
            rep == 0,
        )?);
        if traced.len() < traced_reps {
            traced.push(replay_child(
                env,
                cfg,
                Some(s.expected),
                "traced",
                rep,
                false,
            )?);
        }
    }
    let (plain, traced) = (Replays(plain), Replays(traced));
    let op_p50 = median(&ok_ms);
    m.insert("harness.op_ms_p90", quantile(&ok_ms, 0.9));
    m.insert("harness.op_ms_iqr_frac", iqr_frac(&ok_ms));
    common_layers(m, &plain, &traced);

    let (load_ms, write_ms) = (plain.span("relation.load"), plain.span("relation.write"));
    m.insert("relation.load_ms", load_ms);
    m.insert(
        "relation.load_mb_per_s",
        mb_per_s(plain.value("relation.input_bytes"), load_ms),
    );
    m.insert("relation.write_ms", write_ms);
    m.insert(
        "relation.write_mb_per_s",
        mb_per_s(plain.value("relation.output_bytes"), write_ms),
    );
    m.insert(
        "relation.spill_overhead_ratio",
        plain.value("relation.spill_overhead_ratio"),
    );
    m.insert("expr.tree_cost_ms", plain.value("expr.tree_cost_ms"));
    m.insert("core.derive_ms", plain.span("core.derive"));
    m.insert("core.program_stmts", plain.value("core.program_stmts"));
    m.insert(
        "analyze.mem_cert_peak_bytes",
        plain.value("analyze.mem_cert_peak_bytes"),
    );
    m.insert(
        "optimizer.rss_after_plan_mb",
        plain.value("optimizer.rss_after_plan_mb"),
    );
    m.insert("program.cost_tuples", plain.value("program.cost_tuples"));
    m.insert("wcoj.selected", plain.value("wcoj.selected"));
    m.insert("cq.minimize_ms", plain.value("cq.minimize_ms"));
    m.insert("cq.atoms_dropped", plain.value("cq.atoms_dropped"));
    let rows = plain.value("answer.rows").max(1.0);
    if plain.span("core.pipeline") > 0.0 {
        // `run`: the CLI holds the plan, the derivation and the outcome.
        m.insert("optimizer.plan_ms", plain.span("optimizer.plan"));
        m.insert("analyze.certify_ms", plain.value("analyze.certify_ms"));
        m.insert("program.execute_ms", plain.value("program.execute_ms"));
        m.insert("program.head_tuples", plain.value("program.head_tuples"));
        let peak = plain.value("program.peak_resident_tuples");
        m.insert("program.peak_resident_tuples", peak);
        m.insert("program.blowup", plain.value("program.blowup"));
        m.insert(
            "analyze.cert_over_measured",
            ratio(plain.value("analyze.mem_cert_peak_tuples"), peak),
        );
    } else {
        // `query`: planning and execution happen inside
        // `execute_query_with`; only the engine's own spans see them.
        m.insert(
            "optimizer.plan_ms",
            traced.engine_ms("plan/optimize_greedy") + traced.engine_ms("plan/optimize_dp"),
        );
        m.insert("program.execute_ms", traced.engine_ms("exec/execute"));
        m.insert("program.head_tuples", traced.counter("exec.head_tuples"));
        m.insert(
            "program.blowup",
            traced.value("engine.max_stmt_head") / rows,
        );
    }
    m.insert(
        "trace.overhead_frac",
        ratio(traced.op_ms(), plain.op_ms()) - 1.0,
    );
    let startup = cli_startup_ms(env);
    m.insert("cli.startup_ms", startup);
    m.insert(
        "cli.unattributed_frac",
        ratio(op_p50 - (plain.layers_sum() + startup), op_p50),
    );
    Ok(())
}

fn per_layer_serve(
    env: &Env,
    cfg: &RunConfig,
    m: &mut HashMap<&'static str, f64>,
    res: &mut RunResult,
) -> Result<(), String> {
    let (server, plan) = setup_serve(env, cfg)?;
    let before = serve::stats(&server)?;
    let rss_before = server.status_mb("VmRSS");
    let (log, _) = serve::timed_loop(
        &server,
        &plan,
        cfg.seed,
        "l",
        loop_bound(cfg, cfg.seconds * 0.5),
        0,
    );
    let after = serve::stats(&server)?;
    let rss_after = server.status_mb("VmRSS");
    server.shutdown();
    res.book(&log);
    m.insert("harness.op_ms_p90", quantile(&log.op_ms, 0.9));
    m.insert("harness.op_ms_iqr_frac", iqr_frac(&log.op_ms));
    let delta = |name: &str| (serve::counter(&after, name) - serve::counter(&before, name)) as f64;
    for (v, p50, p99) in [
        (Verb::Run, "serve.run_ms_p50", Some("serve.run_ms_p99")),
        (
            Verb::Query,
            "serve.query_ms_p50",
            Some("serve.query_ms_p99"),
        ),
        (Verb::Load, "serve.load_ms_p50", None),
        (Verb::Compile, "serve.compile_ms_p50", None),
    ] {
        m.insert(p50, median(log.verb_ms(v)));
        if let Some(p99) = p99 {
            m.insert(p99, quantile(log.verb_ms(v), 0.99));
        }
    }
    let (hit, miss) = (delta("index_cache.hit"), delta("index_cache.miss"));
    m.insert("serve.cache_hit_frac", ratio(hit, hit + miss));
    m.insert(
        "serve.rejected",
        delta("serve.admission_reject")
            + delta("serve.queue_reject")
            + delta("serve.protocol_error"),
    );
    m.insert("serve.rss_growth_mb", rss_after - rss_before);

    let reps = if cfg.smoke { 1 } else { SERVE_REPLAY_REPS };
    let plain = Replays(
        (0..reps)
            .map(|rep| replay_child(env, cfg, None, "plain", rep, rep == 0))
            .collect::<Result<Vec<_>, _>>()?,
    );
    // One process does both passes (tracing off, then on), so the same
    // reports serve as the traced ones.
    common_layers(m, &plain, &plain);
    let ops = plain.value("serve.replay_ops").max(1.0);
    for name in [
        "relation.join_ms",
        "relation.semijoin_ms",
        "relation.project_ms",
    ] {
        m.insert(name, m[name] / ops);
    }
    m.insert("pool.tasks", delta("pool.tasks"));
    m.insert("pool.task_wait_us", delta("pool.task_wait_us"));
    m.insert("relation.load_ms", plain.value("relation.load_ms"));
    m.insert(
        "relation.load_mb_per_s",
        mb_per_s(
            plain.value("relation.input_bytes"),
            plain.value("relation.load_ms"),
        ),
    );
    m.insert("program.execute_ms", plain.span_mean("program.execute"));
    m.insert(
        "program.head_tuples",
        plain.counter("exec.head_tuples") / ops,
    );
    m.insert("program.cost_tuples", plain.value("program.cost_tuples"));
    let max_head = plain.value("engine.max_stmt_head");
    m.insert("program.blowup", ratio(max_head, plan.warm_run.rows as f64));
    m.insert(
        "analyze.cert_over_measured",
        ratio(plain.value("analyze.certified_peak"), max_head),
    );
    m.insert("cq.minimize_ms", plain.value("cq.minimize_ms"));
    m.insert("cq.atoms_dropped", plain.value("cq.atoms_dropped"));
    m.insert(
        "serve.json_parse_mb_per_s",
        plain.value("serve.json_parse_mb_per_s"),
    );
    m.insert(
        "serve.json_render_mb_per_s",
        plain.value("serve.json_render_mb_per_s"),
    );
    m.insert(
        "trace.overhead_frac",
        ratio(
            plain.value("serve.traced_op_ms"),
            plain.value("serve.untraced_op_ms"),
        ) - 1.0,
    );
    m.insert("cli.startup_ms", cli_startup_ms(env));
    Ok(())
}

/// The per-layer pass: every [`PER_LAYER`] metric, 0 where a layer is not
/// on the workload's path.
pub fn per_layer(env: &Env, cfg: &RunConfig) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut m: HashMap<&'static str, f64> = PER_LAYER.iter().map(|s| (s.name, 0.0)).collect();
    m.insert("harness.build_s", env.build_s);
    if cfg.workload.is_serve() {
        per_layer_serve(env, cfg, &mut m, &mut res)?;
    } else {
        per_layer_one_shot(env, cfg, &mut m, &mut res)?;
    }
    for spec in PER_LAYER {
        res.put(spec.name, m[spec.name]);
    }
    Ok(res)
}
