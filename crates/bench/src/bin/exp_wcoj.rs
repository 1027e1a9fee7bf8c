//! `exp_wcoj` — the worst-case-optimal-vs-program bakeoff.
//!
//! Five binary cyclic queries over [`HubGraph`] data (every pairwise join
//! quadratic, full-join size a closed-form graph property) are run through
//!
//! * the **program engine**: the greedy-picked join tree, derived into a
//!   §2.2 program and interpreted (at 1 and 4 threads); and
//! * the **WCOJ engine**: [`mjoin_wcoj::wcoj_join`]'s Generic Join
//!   elimination loop over sorted tries
//!
//! — both as [`mjoin_core::engine`] requests with the executor forced.
//!
//! For each workload the `auto` selection is the engine's own — Theorem-2
//! certificate of the derived program, evaluated with AGM sub-bounds,
//! against the component's AGM bound — with no environment hints. The headline rows are `triangle_dense` and
//! `clique_4_skew`, where every Cartesian-free program's certificate
//! strictly exceeds the AGM bound, `auto` routes to WCOJ, and the measured
//! wall-clock win is the quadratic-vs-linear separation. `cycle_gap_4` is
//! the honest counterpoint: its certificate *ties* the AGM bound (the
//! output itself can be quadratic), so `auto` conservatively keeps the
//! program engine even when WCOJ happens to be faster on hub data.
//! `cycle_gap_5` shows the selection is a property of the derived program,
//! not the scheme: the greedy (bushy) program ties the AGM bound, while
//! the best **linear** program is certified strictly above it and flips
//! the selection. `clique_4` shows the same from the other side: the
//! scheme's AGM bound is the matching product `N²`, but the greedy tree
//! happens to pass through a star-shaped intermediate certified at `N³`,
//! so selection follows the program it would actually replace.
//!
//! Results land in `BENCH_wcoj.json` at the repo root (or the path given
//! as the first CLI argument). `--check-strategies` is the CI regression
//! gate: it asserts the selection outcomes above and that WCOJ-selected
//! workloads actually drive the elimination loop (`wcoj.attr_loops > 0`).

use mjoin_bench::print_table;
use mjoin_core::engine::{self, ExecutorKind, Limits, Oracle, Plan, PlanStrategy, Prepared};
use mjoin_hypergraph::DbScheme;
use mjoin_relation::{json, Catalog, Database};
use mjoin_wcoj::Selection;
use mjoin_workloads::HubGraph;
use std::time::Instant;

const REPS: usize = 5;

struct Workload {
    name: &'static str,
    graph: HubGraph,
    catalog: Catalog,
    scheme: DbScheme,
    db: Database,
}

/// The five bench graphs. `check` shrinks the scales for the CI gate —
/// the selection bounds compare exponents, so the outcome is
/// scale-invariant, and the gate should not cost bench minutes.
fn workloads(check: bool) -> Vec<Workload> {
    let s = |bench: u64, gate: u64| if check { gate } else { bench };
    let graphs: Vec<(&'static str, HubGraph)> = vec![
        ("triangle_dense", HubGraph::cycle(3, s(800, 40))),
        ("cycle_gap_4", HubGraph::cycle(4, s(150, 40))),
        ("cycle_gap_5", HubGraph::cycle(5, s(120, 40))),
        ("clique_4", HubGraph::clique(4, s(300, 40))),
        ("clique_4_skew", HubGraph::clique_skew(s(250, 40), 4)),
    ];
    graphs
        .into_iter()
        .map(|(name, graph)| {
            let mut catalog = Catalog::new();
            let scheme = graph.scheme(&mut catalog);
            let db = graph.database(&mut catalog);
            Workload {
                name,
                graph,
                catalog,
                scheme,
                db,
            }
        })
        .collect()
}

/// One engine request over the workload: the tree searched exactly as the
/// query layer searches it, the executor as given.
fn prepare(w: &Workload, strategy: PlanStrategy, executor: ExecutorKind) -> Prepared {
    let plan = Plan::Search {
        strategy,
        oracle: Oracle::Estimate,
    };
    engine::prepare(
        w.scheme.clone(),
        w.db.clone(),
        w.catalog.clone(),
        plan,
        executor,
    )
    .expect("plannable workload")
}

/// The `auto` selection for the `strategy`-picked program: its Theorem-2
/// certificate (with AGM sub-bounds) against the component AGM.
fn selection_of(w: &Workload, strategy: PlanStrategy) -> Selection {
    prepare(w, strategy, ExecutorKind::Auto)
        .analysis()
        .selection()
}

/// One timed call of `f`, in milliseconds.
fn time_once<F: FnMut()>(f: &mut F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

struct Measurement {
    name: &'static str,
    relations: usize,
    input_tuples: usize,
    output_tuples: usize,
    selection: Selection,
    program_ms: f64,
    program_ms_t4: f64,
    wcoj_ms: f64,
    wcoj_counters: Vec<(String, u64)>,
    /// `cycle_gap_5` only: the best linear program's selection, showing
    /// the executor choice flip within one scheme.
    linear: Option<Selection>,
}

impl Measurement {
    fn selected(&self) -> &'static str {
        if self.selection.use_wcoj {
            "wcoj"
        } else {
            "program"
        }
    }

    /// Best program time (either thread count) over the WCOJ time.
    fn wcoj_speedup(&self) -> f64 {
        self.program_ms.min(self.program_ms_t4) / self.wcoj_ms
    }
}

fn measure(w: &Workload) -> Measurement {
    let selection = selection_of(w, PlanStrategy::Greedy);
    let program = prepare(w, PlanStrategy::Greedy, ExecutorKind::Program);
    let program = program.admit(&Limits::default()).expect("no budget");
    let wcoj = prepare(w, PlanStrategy::Greedy, ExecutorKind::Wcoj);
    let wcoj = wcoj.admit(&Limits::default()).expect("no budget");
    let run = |admitted: &engine::Admitted<'_>, threads| {
        admitted.execute(threads, None, None).expect("no deadline")
    };
    let input_tuples: usize =
        w.db.relations()
            .iter()
            .map(mjoin_relation::Relation::len)
            .sum();

    // Correctness gate: both engines must produce the full join, whose
    // size the hub construction knows in closed form.
    let oracle = run(&program, 1);
    let wcoj_rel = run(&wcoj, 1).result;
    assert_eq!(
        oracle.result, wcoj_rel,
        "{}: program and wcoj results diverged",
        w.name
    );
    assert_eq!(
        wcoj_rel.len() as u64,
        w.graph.join_size(),
        "{}: join size departs from the closed form",
        w.name
    );
    let output_tuples = wcoj_rel.len();

    // Warm both physical views outside the timed region, as exp_par does.
    for rel in w.db.relations() {
        let _ = rel.rows();
        let _ = rel.columns();
    }

    // Interleave the three configurations round-robin across reps (shared
    // CI hosts bias whatever runs last), keep each one's best rep.
    let mut program_ms = f64::INFINITY;
    let mut program_ms_t4 = f64::INFINITY;
    let mut wcoj_ms = f64::INFINITY;
    for _ in 0..REPS {
        program_ms = program_ms.min(time_once(&mut || {
            std::hint::black_box(run(&program, 1).result.len());
        }));
        program_ms_t4 = program_ms_t4.min(time_once(&mut || {
            std::hint::black_box(run(&program, 4).result.len());
        }));
        wcoj_ms = wcoj_ms.min(time_once(&mut || {
            std::hint::black_box(run(&wcoj, 1).result.len());
        }));
    }

    // One traced (untimed) WCOJ run for the elimination-loop counters.
    mjoin_trace::clear();
    mjoin_trace::set_enabled(true);
    std::hint::black_box(run(&wcoj, 1).result.len());
    mjoin_trace::set_enabled(false);
    let trace = mjoin_trace::take();
    let wcoj_counters: Vec<(String, u64)> = trace
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("wcoj."))
        .map(|(n, v)| (n.to_string(), *v))
        .collect();

    // The 5-cycle's program-class dependence: the best linear program.
    let linear = (w.name == "cycle_gap_5").then(|| selection_of(w, PlanStrategy::DpLinear));

    Measurement {
        name: w.name,
        relations: w.db.len(),
        input_tuples,
        output_tuples,
        selection,
        program_ms,
        program_ms_t4,
        wcoj_ms,
        wcoj_counters,
        linear,
    }
}

fn write_json(path: &str, host_parallelism: usize, ms: &[Measurement]) {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"experiment\": \"wcoj\",\n");
    j.push_str("  \"command\": \"cargo run --release -p mjoin-bench --bin exp_wcoj\",\n");
    j.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    j.push_str(&format!("  \"reps_best_of\": {REPS},\n"));
    j.push_str(
        "  \"note\": \"selected = the auto policy's AGM-vs-certificate choice, computed with no environment hints; program_ms is the greedy-derived program, wcoj_ms the generic-join elimination loop; both engines are asserted equal to the closed-form join before timing\",\n",
    );
    j.push_str("  \"workloads\": [\n");
    for (i, m) in ms.iter().enumerate() {
        j.push_str("    {\n");
        j.push_str(&format!("      \"name\": {},\n", json::string(m.name)));
        j.push_str(&format!("      \"relations\": {},\n", m.relations));
        j.push_str(&format!("      \"input_tuples\": {},\n", m.input_tuples));
        j.push_str(&format!("      \"output_tuples\": {},\n", m.output_tuples));
        j.push_str(&format!(
            "      \"agm_bound\": {},\n",
            m.selection.agm_bound
        ));
        j.push_str(&format!(
            "      \"cert_bound\": {},\n",
            m.selection.cert_bound
        ));
        j.push_str(&format!("      \"selected\": \"{}\",\n", m.selected()));
        j.push_str(&format!("      \"program_ms\": {:.3},\n", m.program_ms));
        j.push_str(&format!(
            "      \"program_ms_t4\": {:.3},\n",
            m.program_ms_t4
        ));
        j.push_str(&format!("      \"wcoj_ms\": {:.3},\n", m.wcoj_ms));
        j.push_str(&format!(
            "      \"wcoj_speedup\": {:.2},\n",
            m.wcoj_speedup()
        ));
        if let Some(lin) = &m.linear {
            j.push_str("      \"linear_program\": {");
            j.push_str(&format!(
                "\"cert_bound\": {}, \"selected\": \"{}\"",
                lin.cert_bound,
                if lin.use_wcoj { "wcoj" } else { "program" }
            ));
            j.push_str("},\n");
        }
        j.push_str("      \"wcoj_counters\": {");
        let cells: Vec<String> = m
            .wcoj_counters
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
    std::fs::write(path, j).expect("write BENCH_wcoj.json");
}

/// CI regression gate (`--check-strategies`): the selection outcomes that
/// define the feature, on small instances.
///
/// * `triangle_dense` and `clique_4_skew` must route to WCOJ — on those
///   graphs *every* Cartesian-free program's certificate strictly exceeds
///   the AGM bound, so the expectation is robust to optimizer changes —
///   and a traced run must show the elimination loop actually fired.
/// * `cycle_gap_4` must stay on the program engine: its certificate ties
///   the AGM bound, and ties keep the §2.3 cost story.
/// * `cycle_gap_5` must stay on the program engine under the greedy
///   (bushy) tree but flip to WCOJ under the best linear program, whose
///   4-edge-path intermediate is certified strictly above the AGM bound.
/// * `clique_4` routes to WCOJ because of the *tree*, not the scheme: the
///   greedy program's star-shaped intermediate (three edges through one
///   vertex) is certified at `N³` against the matching-product AGM `N²`.
fn check_strategies(ws: &[Workload]) -> bool {
    let expect: &[(&str, bool)] = &[
        ("triangle_dense", true),
        ("cycle_gap_4", false),
        ("cycle_gap_5", false),
        ("clique_4", true),
        ("clique_4_skew", true),
    ];
    let mut ok = true;
    let mut check = |name: &str, label: &str, cond: bool, detail: String| {
        if cond {
            println!("  ok   {name}: {label} ({detail})");
        } else {
            println!("  FAIL {name}: {label} ({detail})");
            ok = false;
        }
    };
    for w in ws {
        let want_wcoj = expect
            .iter()
            .find(|(n, _)| *n == w.name)
            .is_some_and(|(_, e)| *e);
        let sel = selection_of(w, PlanStrategy::Greedy);
        check(
            w.name,
            "selection sanity: certificate never below AGM",
            sel.cert_bound >= sel.agm_bound,
            format!("agm {} cert {}", sel.agm_bound, sel.cert_bound),
        );
        check(
            w.name,
            if want_wcoj {
                "auto selects wcoj"
            } else {
                "auto keeps the program engine"
            },
            sel.use_wcoj == want_wcoj,
            format!("agm {} cert {}", sel.agm_bound, sel.cert_bound),
        );
        if want_wcoj {
            mjoin_trace::clear();
            mjoin_trace::set_enabled(true);
            {
                // `auto`, as a user would run it: the engine must take the
                // worst-case-optimal path on its own.
                let auto = prepare(w, PlanStrategy::Greedy, ExecutorKind::Auto);
                let admitted = auto.admit(&Limits::default()).expect("no budget");
                let out = admitted.execute(1, None, None).expect("no deadline");
                std::hint::black_box(out.result.len());
            }
            mjoin_trace::set_enabled(false);
            let trace = mjoin_trace::take();
            let loops = trace.counter("wcoj.attr_loops").unwrap_or(0);
            check(
                w.name,
                "the elimination loop fired",
                loops > 0,
                format!("wcoj.attr_loops = {loops}"),
            );
        }
        if w.name == "cycle_gap_5" {
            let lin = selection_of(w, PlanStrategy::DpLinear);
            check(
                w.name,
                "the best linear program flips the selection to wcoj",
                lin.use_wcoj,
                format!("agm {} linear cert {}", lin.agm_bound, lin.cert_bound),
            );
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check-strategies") {
        let ws = workloads(true);
        println!("exp_wcoj --check-strategies: {} workloads\n", ws.len());
        if check_strategies(&ws) {
            println!("\ncheck-strategies: all selection expectations held");
            return;
        }
        eprintln!("\ncheck-strategies: executor selection regressed (see FAIL lines above)");
        std::process::exit(1);
    }
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_wcoj.json".into());
    // Fail on an unwritable output path *before* the run.
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        eprintln!("exp_wcoj: cannot open output path {path}: {e}");
        std::process::exit(1);
    }
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    mjoin_pool::ensure_at_least(4);
    println!("exp_wcoj: host parallelism {host_parallelism}, best of {REPS}\n");

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
                m.selection.agm_bound.to_string(),
                m.selection.cert_bound.to_string(),
                m.selected().to_string(),
                format!("{:.1}", m.program_ms),
                format!("{:.1}", m.program_ms_t4),
                format!("{:.1}", m.wcoj_ms),
                format!("{:.2}×", m.wcoj_speedup()),
            ]
        })
        .collect();
    println!();
    print_table(
        &[
            "workload",
            "input",
            "output",
            "agm",
            "cert",
            "selected",
            "prog t=1",
            "prog t=4",
            "wcoj",
            "wcoj speedup",
        ],
        &rows,
    );

    write_json(&path, host_parallelism, &measurements);
    println!("\nwrote {path}");
}
