//! `exp_spill` — the certificate-gated Grace-hash spill bakeoff.
//!
//! Skewed chain joins (`AB ⋈ BC ⋈ CD` with a four-valued join attribute,
//! so the first join is quadratic) are executed twice: fully in memory,
//! and under a deliberately tiny `mem_budget` that forces the statically
//! selected statements through the Grace-hash partition-to-disk path. The
//! headline numbers are the price of spilling (wall-clock ratio) and its
//! footprint (`mem.partitions`, `mem.spilled_bytes` from a traced run),
//! next to the static memory-certificate peak the gate was derived from.
//! Every run is a [`mjoin_core::engine`] request admitted under the budget.
//! Both runs are asserted tuple-identical before anything is timed.
//!
//! Results land in `BENCH_spill.json` at the repo root (or the path given
//! as the first CLI argument). `--check` is the CI regression gate: an
//! over-provisioned budget must produce an empty spill plan and a run
//! with no `mem.passes` counter, while a starved budget must partition
//! (`mem.partitions > 0`) and still match the in-memory rows.

use mjoin_analyze::MemCertificate;
use mjoin_bench::print_table;
use mjoin_core::engine::{self, Admitted, ExecutorKind, Limits, Plan, Prepared};
use mjoin_relation::{json, relation_of_ints, Catalog, Database, Relation};
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 5;

struct Workload {
    name: &'static str,
    catalog: Catalog,
    scheme: mjoin_hypergraph::DbScheme,
    db: Database,
}

/// Skewed 3-chains at two scales. `check` shrinks them for the CI gate —
/// the spill/no-spill decision is a pure function of the certificate and
/// the budget, so the gate outcome is scale-invariant.
fn workloads(check: bool) -> Vec<Workload> {
    let s = |bench: i64, gate: i64| if check { gate } else { bench };
    [("chain_skew", s(700, 48)), ("chain_skew_wide", s(1400, 64))]
        .into_iter()
        .map(|(name, n)| {
            let mut catalog = Catalog::new();
            let scheme = mjoin_hypergraph::DbScheme::parse(&mut catalog, &["AB", "BC", "CD"]);
            let ab: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % 4]).collect();
            let bc: Vec<Vec<i64>> = (0..n).map(|i| vec![i % 4, i]).collect();
            let cd: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % 3]).collect();
            let db = Database::from_relations(vec![
                rel_of(&mut catalog, "AB", &ab),
                rel_of(&mut catalog, "BC", &bc),
                rel_of(&mut catalog, "CD", &cd),
            ]);
            Workload {
                name,
                catalog,
                scheme,
                db,
            }
        })
        .collect()
}

fn rel_of(catalog: &mut Catalog, name: &str, rows: &[Vec<i64>]) -> mjoin_relation::Relation {
    let slices: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    relation_of_ints(catalog, name, &slices).expect("workload relation")
}

/// The chain program as an engine request over the workload's data.
fn prepare(w: &Workload) -> Prepared {
    let tree =
        mjoin_expr::parse_join_tree(&w.catalog, &w.scheme, "(AB ⋈ BC) ⋈ CD").expect("chain tree");
    engine::prepare(
        w.scheme.clone(),
        w.db.clone(),
        w.catalog.clone(),
        Plan::Tree(tree),
        ExecutorKind::Program,
    )
    .expect("derivation")
}

/// Admit under `budget` bytes: over-budget build sides get a spill plan.
fn admit(prepared: &Prepared, budget: Option<u64>) -> Admitted<'_> {
    let limits = Limits {
        mem_budget: budget,
        ..Limits::default()
    };
    prepared.admit(&limits).expect("spilling refuses nothing")
}

fn run(admitted: &Admitted<'_>) -> Arc<Relation> {
    admitted.execute(1, None, None).expect("no deadline").result
}

fn time_once<F: FnMut()>(f: &mut F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// One traced (untimed) run; returns the `mem.*` counters.
fn traced_counters(admitted: &Admitted<'_>) -> Vec<(String, u64)> {
    mjoin_trace::clear();
    mjoin_trace::set_enabled(true);
    std::hint::black_box(run(admitted).len());
    mjoin_trace::set_enabled(false);
    let trace = mjoin_trace::take();
    trace
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("mem."))
        .map(|(n, v)| (n.to_string(), *v))
        .collect()
}

struct Measurement {
    name: &'static str,
    input_tuples: usize,
    output_tuples: usize,
    peak_bytes: u64,
    budget: u64,
    spilled_stmts: usize,
    mem_ms: f64,
    spill_ms: f64,
    counters: Vec<(String, u64)>,
}

impl Measurement {
    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn slowdown(&self) -> f64 {
        self.spill_ms / self.mem_ms.max(1e-6)
    }
}

/// A budget the certificate must refuse: half the largest certified
/// build side, so the gate (`build_bytes > budget`) trips on at least
/// one join while staying a plausible per-operator cap.
fn starved_budget(mem: &MemCertificate) -> u64 {
    mem.stmts
        .iter()
        .filter_map(|s| s.build_bytes)
        .max()
        .map_or(1, |b| (b / 2).max(1))
}

fn measure(w: &Workload) -> Measurement {
    let prepared = prepare(w);
    let peak_bytes = prepared.analysis().memory().peak_bytes;
    let budget = starved_budget(prepared.analysis().memory());
    let in_memory = admit(&prepared, None);
    let spilling = admit(&prepared, Some(budget));
    let spilled_stmts = spilling
        .spill()
        .map_or(0, mjoin_program::SpillPlan::spilled_stmts);
    assert!(
        spilled_stmts > 0,
        "{}: half the largest build side must force at least one spill",
        w.name
    );

    // Correctness gate before any timing: spilled == in-memory.
    let baseline = run(&in_memory);
    assert_eq!(
        baseline,
        run(&spilling),
        "{}: the spilled run diverged from the in-memory run",
        w.name
    );

    for rel in w.db.relations() {
        let _ = rel.rows();
        let _ = rel.columns();
    }
    let mut mem_ms = f64::INFINITY;
    let mut spill_ms = f64::INFINITY;
    for _ in 0..REPS {
        mem_ms = mem_ms.min(time_once(&mut || {
            std::hint::black_box(run(&in_memory).len());
        }));
        spill_ms = spill_ms.min(time_once(&mut || {
            std::hint::black_box(run(&spilling).len());
        }));
    }

    Measurement {
        name: w.name,
        input_tuples: w.db.relations().iter().map(Relation::len).sum(),
        output_tuples: baseline.len(),
        peak_bytes,
        budget,
        spilled_stmts,
        mem_ms,
        spill_ms,
        counters: traced_counters(&spilling),
    }
}

fn write_json(path: &str, ms: &[Measurement]) {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"experiment\": \"spill\",\n");
    j.push_str("  \"command\": \"cargo run --release -p mjoin-bench --bin exp_spill\",\n");
    j.push_str(&format!("  \"reps_best_of\": {REPS},\n"));
    j.push_str(
        "  \"note\": \"budget = half the largest certified build side; the spill plan is computed statically from the memory certificate, never from runtime sizes; the spilled run is asserted tuple-identical to the in-memory run before timing\",\n",
    );
    j.push_str("  \"workloads\": [\n");
    for (i, m) in ms.iter().enumerate() {
        j.push_str("    {\n");
        j.push_str(&format!("      \"name\": {},\n", json::string(m.name)));
        j.push_str(&format!("      \"input_tuples\": {},\n", m.input_tuples));
        j.push_str(&format!("      \"output_tuples\": {},\n", m.output_tuples));
        j.push_str(&format!(
            "      \"certified_peak_bytes\": {},\n",
            m.peak_bytes
        ));
        j.push_str(&format!("      \"mem_budget\": {},\n", m.budget));
        j.push_str(&format!("      \"spilled_stmts\": {},\n", m.spilled_stmts));
        j.push_str(&format!("      \"in_memory_ms\": {:.3},\n", m.mem_ms));
        j.push_str(&format!("      \"spill_ms\": {:.3},\n", m.spill_ms));
        j.push_str(&format!("      \"spill_slowdown\": {:.2},\n", m.slowdown()));
        j.push_str("      \"counters\": {");
        let cells: Vec<String> = m
            .counters
            .iter()
            .map(|(k, v)| format!("{}: {v}", json::string(k)))
            .collect();
        j.push_str(&cells.join(", "));
        j.push_str("}\n");
        j.push_str(if i + 1 == ms.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    j.push_str("  ]\n}\n");
    std::fs::write(path, j).expect("write BENCH_spill.json");
}

/// CI regression gate (`--check`): the budget decides, and only the
/// budget.
///
/// * Over-provisioned (`2 × certified peak`): the spill plan is empty and
///   a run under that budget never touches the spill path — no `mem.*`
///   counter fires.
/// * Starved (half the largest certified build side): the plan is
///   non-empty, the run partitions
///   (`mem.partitions > 0`, `mem.spilled_bytes > 0`) and its rows equal
///   the in-memory run's.
fn check(ws: &[Workload]) -> bool {
    let mut ok = true;
    let mut gate = |name: &str, label: &str, cond: bool, detail: String| {
        if cond {
            println!("  ok   {name}: {label} ({detail})");
        } else {
            println!("  FAIL {name}: {label} ({detail})");
            ok = false;
        }
    };
    for w in ws {
        let prepared = prepare(w);
        let analysis = prepared.analysis();
        let mem = analysis.memory();
        let baseline = run(&admit(&prepared, None));

        let roomy = mem.peak_bytes.saturating_mul(2);
        let under = admit(&prepared, Some(roomy));
        gate(
            w.name,
            "over-provisioned budget yields an empty spill plan",
            under.spill().is_none(),
            format!("peak {} budget {roomy}", mem.peak_bytes),
        );
        let under_counters = traced_counters(&under);
        gate(
            w.name,
            "under-budget run never spills",
            under_counters.is_empty(),
            format!("mem.* counters: {under_counters:?}"),
        );

        let tight = starved_budget(mem);
        let over = admit(&prepared, Some(tight));
        gate(
            w.name,
            "starved budget forces a spill plan",
            over.spill().is_some(),
            format!("peak {} budget {tight}", mem.peak_bytes),
        );
        let spilled = run(&over);
        gate(
            w.name,
            "spilled rows equal the in-memory rows",
            spilled == baseline,
            format!("{} vs {} tuples", spilled.len(), baseline.len()),
        );
        let over_counters = traced_counters(&over);
        let partitions = over_counters
            .iter()
            .find(|(n, _)| n == "mem.partitions")
            .map_or(0, |(_, v)| *v);
        let bytes = over_counters
            .iter()
            .find(|(n, _)| n == "mem.spilled_bytes")
            .map_or(0, |(_, v)| *v);
        gate(
            w.name,
            "over-budget run actually partitions",
            partitions > 0 && bytes > 0,
            format!("mem.partitions {partitions}, mem.spilled_bytes {bytes}"),
        );
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        let ws = workloads(true);
        println!("exp_spill --check: {} workloads\n", ws.len());
        if check(&ws) {
            println!("\ncheck: the budget gate held on both sides");
            return;
        }
        eprintln!("\ncheck: spill gating regressed (see FAIL lines above)");
        std::process::exit(1);
    }
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_spill.json".into());
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        eprintln!("exp_spill: cannot open output path {path}: {e}");
        std::process::exit(1);
    }
    println!("exp_spill: best of {REPS}\n");

    let ws = workloads(false);
    let measurements: Vec<Measurement> = ws
        .iter()
        .map(|w| {
            println!("running {} ...", w.name);
            measure(w)
        })
        .collect();

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.input_tuples.to_string(),
                m.output_tuples.to_string(),
                m.peak_bytes.to_string(),
                m.budget.to_string(),
                m.spilled_stmts.to_string(),
                m.counter("mem.partitions").to_string(),
                m.counter("mem.spilled_bytes").to_string(),
                format!("{:.1}", m.mem_ms),
                format!("{:.1}", m.spill_ms),
                format!("{:.2}×", m.slowdown()),
            ]
        })
        .collect();
    println!();
    print_table(
        &[
            "workload", "input", "output", "peak B", "budget", "spilled", "parts", "bytes",
            "mem ms", "spill ms", "slowdown",
        ],
        &rows,
    );

    write_json(&path, &measurements);
    println!("\nwrote {path}");
}
