//! `exp_par` — the executor benchmark across thread counts.
//!
//! Runs the program workloads below — Example 3, star schemas, a cycle-gap
//! family member and hand-built wide-level programs — through
//! `mjoin_program::execute_with` at 1, 2, 4 and 8 threads, with the join-index
//! cache on and off.
//!
//! Every configuration is checked for result equality against the reference
//! run (one thread, cache off) before its time is accepted. Results land in
//! `BENCH_parallel_exec.json` at the repo root (or the path given as the
//! first CLI argument), with the host's true parallelism recorded so
//! single-core CI numbers read honestly.

use mjoin_bench::print_table;
use mjoin_core::derive;
use mjoin_expr::JoinTree;
use mjoin_hypergraph::DbScheme;
use mjoin_program::{execute_with, schedule, ExecConfig, Program, ProgramBuilder, Reg};
use mjoin_relation::{json, Catalog, Database};
use mjoin_workloads::{star_schema, CycleGap, Example3, StarSchemaConfig};
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;

struct Workload {
    name: &'static str,
    db: Database,
    program: Program,
}

fn left_deep(n: usize) -> JoinTree {
    let mut t = JoinTree::leaf(0);
    for i in 1..n {
        t = JoinTree::join(t, JoinTree::leaf(i));
    }
    t
}

fn derived(name: &'static str, scheme: &DbScheme, db: Database, t1: &JoinTree) -> Workload {
    let program = derive(scheme, t1).expect("derivation").program;
    Workload { name, db, program }
}

fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();

    // Example 3 (the paper's adversarial cycle), scaled until the derived
    // program moves ~10⁵ tuples per statement.
    {
        let mut c = Catalog::new();
        let ex = Example3::new(30);
        let scheme = Example3::scheme(&mut c);
        let db = ex.database(&mut c);
        out.push(derived(
            "example3_m30",
            &scheme,
            db,
            &Example3::optimal_tree(),
        ));
    }

    // Star schema: acyclic, so Algorithm 2 emits a full-reducer semijoin
    // program — reads of the big fact relation dominate.
    let star = {
        let mut c = Catalog::new();
        let cfg = StarSchemaConfig {
            dimensions: 6,
            fact_rows: 60_000,
            dim_rows: 2_000,
            key_coverage: 1.0,
            skew: 0.0,
            seed: 42,
        };
        let (scheme, db) = star_schema(&mut c, &cfg);
        let n = scheme.num_relations();
        out.push(derived("star_d6_f60k", &scheme, db.clone(), &left_deep(n)));
        (scheme, db)
    };

    // The wide-tuple star: an 11-dimension star whose fact relation carries
    // 12 attributes, of which every key hash touches exactly one column's
    // `i64` slice.
    {
        let mut c = Catalog::new();
        let cfg = StarSchemaConfig {
            dimensions: 11,
            fact_rows: 40_000,
            dim_rows: 1_500,
            key_coverage: 1.0,
            skew: 0.0,
            seed: 7,
        };
        let (scheme, db) = star_schema(&mut c, &cfg);
        let n = scheme.num_relations();
        out.push(derived("star_wide", &scheme, db, &left_deep(n)));
    }

    // Cycle-gap: a cyclic scheme with one weak edge, sized likewise.
    {
        let mut c = Catalog::new();
        let cg = CycleGap::new(6, 40);
        let scheme = cg.scheme(&mut c);
        let db = cg.database(&mut c);
        let n = scheme.num_relations();
        out.push(derived("cycle_gap_n6_m40", &scheme, db, &left_deep(n)));
    }

    // Algorithm 2's programs are serial chains (schedule width 1), so the
    // three workloads above never hand the DAG scheduler an actually-wide
    // level. This hand-built star program does: one independent key
    // projection per dimension (a width-6 level), then the semijoin
    // reductions of the fact by each projected key set.
    {
        let (scheme, db) = star;
        let d = scheme.num_relations() - 1;
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        let keys: Vec<Reg> = (0..d)
            .map(|i| {
                let dim = Reg::Base(1 + i);
                let key_attrs = scheme.attrs_of(0).intersect(scheme.attrs_of(1 + i));
                let x = b.new_temp(format!("K{i}"));
                b.project(x, dim, key_attrs);
                x
            })
            .collect();
        for x in keys {
            b.semijoin(v, x);
        }
        let program = b.finish(v);
        out.push(Workload {
            name: "star_wide_reducer",
            db,
            program,
        });
    }

    // The register-traffic stress: a wide (12-attribute) 150k-row relation
    // swept by ten single-attribute semijoin filters that never shrink it.
    // Each statement's operator work is one cheap probe per tuple, so
    // anything the executor does per read of the wide register shows.
    {
        use mjoin_relation::{Relation, Row, Schema, Value};
        let mut c = Catalog::new();
        const WIDTH: usize = 12;
        const ROWS: i64 = 150_000;
        const FILTERS: usize = 10;
        let attrs: Vec<_> = (0..WIDTH).map(|i| c.intern(&format!("a{i}"))).collect();
        let base_schema = Schema::new(attrs.clone());
        let rows: Vec<Row> = (0..ROWS)
            .map(|i| {
                (0..WIDTH as i64)
                    .map(|j| Value::Int(if j == 0 { i } else { (i * 31 + j) % 1000 }))
                    .collect::<Vec<_>>()
                    .into()
            })
            .collect();
        let base = Relation::from_rows(base_schema.clone(), rows).unwrap();
        // Filter i covers attribute a_{1+i}'s full value range, so V's
        // 150k tuples all survive every statement.
        let filters: Vec<Relation> = (0..FILTERS)
            .map(|i| {
                let schema = Schema::new(vec![attrs[1 + i]]);
                let rows: Vec<Row> = (0..1000).map(|v| vec![Value::Int(v)].into()).collect();
                Relation::from_rows(schema, rows).unwrap()
            })
            .collect();
        let mut rels = vec![base];
        rels.extend(filters);
        let scheme =
            DbScheme::from_schemas(&rels.iter().map(|r| r.schema().clone()).collect::<Vec<_>>());
        let db = Database::from_relations(rels);

        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        for i in 0..FILTERS {
            b.semijoin(v, Reg::Base(1 + i));
        }
        let program = b.finish(v);
        out.push(Workload {
            name: "wide_filter_sweep",
            db,
            program,
        });
    }

    // Selective fan-out probes: twelve independent joins of tiny key lists
    // against one wide 300k-row base — the point-lookup access pattern. The
    // outputs are ~100 rows each, so the operator work is one hash-probe
    // miss per base tuple. The twelve probes are mutually independent,
    // giving the scheduler a width-12 level.
    {
        use mjoin_relation::{Relation, Row, Schema, Value};
        let mut c = Catalog::new();
        const WIDTH: usize = 16;
        const ROWS: i64 = 300_000;
        const PROBES: usize = 12;
        const HITS: i64 = 100;
        let attrs: Vec<_> = (0..WIDTH).map(|i| c.intern(&format!("a{i}"))).collect();
        let base_schema = Schema::new(attrs.clone());
        let rows: Vec<Row> = (0..ROWS)
            .map(|i| {
                (0..WIDTH as i64)
                    .map(|j| Value::Int(if j == 0 { i } else { i * 17 + j }))
                    .collect::<Vec<_>>()
                    .into()
            })
            .collect();
        let base = Relation::from_rows(base_schema, rows).unwrap();
        let probes: Vec<Relation> = (0..PROBES as i64)
            .map(|i| {
                let b_attr = c.intern(&format!("b{i}"));
                let schema = Schema::new(vec![attrs[0], b_attr]);
                let rows: Vec<Row> = (0..HITS)
                    .map(|j| vec![Value::Int((i * 1009 + j * 2003) % ROWS), Value::Int(j)].into())
                    .collect();
                Relation::from_rows(schema, rows).unwrap()
            })
            .collect();
        let mut rels = vec![base];
        rels.extend(probes);
        let scheme =
            DbScheme::from_schemas(&rels.iter().map(|r| r.schema().clone()).collect::<Vec<_>>());
        let db = Database::from_relations(rels);

        let mut b = ProgramBuilder::new(&scheme);
        let hits: Vec<Reg> = (0..PROBES)
            .map(|i| {
                let w = b.new_temp(format!("W{i}"));
                b.join(w, Reg::Base(0), Reg::Base(1 + i));
                w
            })
            .collect();
        for i in 1..PROBES {
            b.join(hits[0], hits[0], hits[i]);
        }
        let program = b.finish(hits[0]);
        out.push(Workload {
            name: "selective_probe_fanout",
            db,
            program,
        });
    }

    // The join-index-cache showcase: a full-reducer-style program over a
    // hub-and-spoke scheme. Ten spokes are each reduced by the same 150k-row
    // hub at the same key — one shared hub index serves the whole width-10
    // level — then the spokes' projected keys are intersected down a deep
    // chain and folded back into the hub. Without the cache every spoke
    // reduction rebuilds the hub's build table from scratch.
    {
        use mjoin_relation::{Relation, Row, Schema, Value};
        let mut c = Catalog::new();
        const HUB_ROWS: i64 = 150_000;
        const B_DOMAIN: i64 = 3_000;
        const SPOKES: usize = 10;
        const SPOKE_ROWS: i64 = 6_000;
        let a = c.intern("A");
        let b_attr = c.intern("B");
        let hub_rows: Vec<Row> = (0..HUB_ROWS)
            .map(|i| vec![Value::Int(i), Value::Int(i % B_DOMAIN)].into())
            .collect();
        let hub = Relation::from_rows(Schema::new(vec![a, b_attr]), hub_rows).unwrap();
        let spokes: Vec<Relation> = (0..SPOKES as i64)
            .map(|i| {
                let ci = c.intern(&format!("C{i}"));
                let rows: Vec<Row> = (0..SPOKE_ROWS)
                    .map(|j| vec![Value::Int((j * 97 + i * 13) % B_DOMAIN), Value::Int(j)].into())
                    .collect();
                Relation::from_rows(Schema::new(vec![b_attr, ci]), rows).unwrap()
            })
            .collect();
        let mut rels = vec![hub];
        rels.extend(spokes);
        let scheme =
            DbScheme::from_schemas(&rels.iter().map(|r| r.schema().clone()).collect::<Vec<_>>());
        let db = Database::from_relations(rels);

        let mut b = ProgramBuilder::new(&scheme);
        // Width-10 level: every spoke reduced by the hub — one shared index.
        for i in 0..SPOKES {
            b.semijoin(Reg::Base(1 + i), Reg::Base(0));
        }
        // Each spoke's surviving hub keys…
        let keys: Vec<Reg> = (0..SPOKES)
            .map(|i| {
                let key_attrs = scheme.attrs_of(0).intersect(scheme.attrs_of(1 + i));
                let x = b.new_temp(format!("K{i}"));
                b.project(x, Reg::Base(1 + i), key_attrs);
                x
            })
            .collect();
        // …intersected down a deep chain (same-schema join = intersection)…
        for i in 1..SPOKES {
            b.join(keys[0], keys[0], keys[i]);
        }
        // …and folded back into the hub.
        b.semijoin(Reg::Base(0), keys[0]);
        let program = b.finish(Reg::Base(0));
        out.push(Workload {
            name: "hub_fanout_reducer",
            db,
            program,
        });
    }

    out
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
    stmts: usize,
    schedule_depth: usize,
    schedule_width: usize,
    result_tuples: usize,
    /// The executor, per thread count.
    parallel_ms: Vec<(usize, f64)>,
    /// Same executor with the join-index cache disabled: the pre-cache path.
    parallel_nocache_ms: Vec<(usize, f64)>,
    /// Aggregated spans from one traced (untimed) parallel run: key is
    /// `name[strategy]`, value is `(calls, total_ms)`.
    trace_ops: Vec<(String, u64, f64)>,
    /// Counters from the same traced run (pool and scheduler metrics).
    trace_counters: Vec<(String, u64)>,
}

fn measure(w: &Workload) -> Measurement {
    let program = &w.program;
    let sched = schedule(program);
    let input_tuples: usize =
        w.db.relations()
            .iter()
            .map(mjoin_relation::Relation::len)
            .sum();

    // Correctness gate first: one thread with the cache off is the oracle,
    // and every configuration must match it before its time is accepted.
    let oracle = execute_with(program, &w.db, &ExecConfig::with_threads(1).without_cache());
    for threads in THREADS {
        let par = execute_with(program, &w.db, &ExecConfig::with_threads(threads));
        assert_eq!(
            *par.result, *oracle.result,
            "{}: parallel result diverged at {threads} threads",
            w.name
        );
        assert_eq!(
            par.head_sizes, oracle.head_sizes,
            "{}: head sizes diverged",
            w.name
        );
        let nocache = execute_with(
            program,
            &w.db,
            &ExecConfig::with_threads(threads).without_cache(),
        );
        assert_eq!(
            *nocache.result, *oracle.result,
            "{}: cache-off result diverged at {threads} threads",
            w.name
        );
    }

    // Warm both physical views of every base relation, outside any timed
    // region. The executor hands each run an `Arc`-cheap clone of the bases,
    // and a clone shares exactly the views its source has materialized — so
    // without this, every rep would re-pay the one-time row↔column
    // conversion on a throwaway clone.
    for rel in w.db.relations() {
        let _ = rel.rows();
        let _ = rel.columns();
    }

    // Interleave configurations round-robin across reps so ambient host
    // slowness (this often runs on shared 1-CPU CI) biases every
    // configuration equally, then keep each configuration's best rep.
    let mut best_par = vec![f64::INFINITY; THREADS.len()];
    let mut best_nocache = vec![f64::INFINITY; THREADS.len()];
    for _ in 0..REPS {
        for (slot, &threads) in best_par.iter_mut().zip(THREADS.iter()) {
            let cfg = ExecConfig::with_threads(threads);
            let mut run = || {
                let out = execute_with(program, &w.db, &cfg);
                std::hint::black_box(out.result.len());
            };
            *slot = slot.min(time_once(&mut run));
        }
        for (slot, &threads) in best_nocache.iter_mut().zip(THREADS.iter()) {
            let cfg = ExecConfig::with_threads(threads).without_cache();
            let mut run_nc = || {
                let out = execute_with(program, &w.db, &cfg);
                std::hint::black_box(out.result.len());
            };
            *slot = slot.min(time_once(&mut run_nc));
        }
    }
    let parallel_ms: Vec<(usize, f64)> = THREADS.iter().copied().zip(best_par).collect();
    let parallel_nocache_ms: Vec<(usize, f64)> =
        THREADS.iter().copied().zip(best_nocache).collect();

    // One extra traced run, after timing, so the JSON records which operator
    // strategies actually fired and how the pool behaved. The timed reps run
    // with tracing off, so the recorded milliseconds stay honest.
    mjoin_trace::clear();
    mjoin_trace::set_enabled(true);
    {
        let out = execute_with(program, &w.db, &ExecConfig::with_threads(4));
        std::hint::black_box(out.result.len());
    }
    mjoin_trace::set_enabled(false);
    let trace = mjoin_trace::take();
    let trace_ops: Vec<(String, u64, f64)> = trace
        .aggregate()
        .into_iter()
        .filter(|row| row.key.starts_with("op/"))
        .map(|row| {
            (
                row.key.trim_start_matches("op/").to_string(),
                row.count,
                row.total_us as f64 / 1e3,
            )
        })
        .collect();
    let trace_counters: Vec<(String, u64)> = trace
        .counters
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .collect();

    Measurement {
        name: w.name,
        relations: w.db.len(),
        input_tuples,
        stmts: program.stmts.len(),
        schedule_depth: sched.depth(),
        schedule_width: sched.width(),
        result_tuples: oracle.result.len(),
        parallel_ms,
        parallel_nocache_ms,
        trace_ops,
        trace_counters,
    }
}

fn write_json(path: &str, pool_threads: usize, host_parallelism: usize, ms: &[Measurement]) {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"experiment\": \"parallel_exec\",\n");
    j.push_str("  \"command\": \"cargo run --release -p mjoin-bench --bin exp_par\",\n");
    j.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    j.push_str(&format!("  \"pool_threads\": {pool_threads},\n"));
    j.push_str(&format!("  \"reps_best_of\": {REPS},\n"));
    j.push_str(
        "  \"note\": \"on a 1-CPU host thread counts measure scheduling overhead, not core scaling; results are asserted equal to the one-thread cache-off run before timing\",\n",
    );
    j.push_str("  \"workloads\": [\n");
    for (i, m) in ms.iter().enumerate() {
        j.push_str("    {\n");
        j.push_str(&format!("      \"name\": {},\n", json::string(m.name)));
        j.push_str(&format!("      \"relations\": {},\n", m.relations));
        j.push_str(&format!("      \"input_tuples\": {},\n", m.input_tuples));
        j.push_str(&format!("      \"result_tuples\": {},\n", m.result_tuples));
        j.push_str(&format!("      \"program_stmts\": {},\n", m.stmts));
        j.push_str(&format!(
            "      \"schedule_depth\": {},\n",
            m.schedule_depth
        ));
        j.push_str(&format!(
            "      \"schedule_width\": {},\n",
            m.schedule_width
        ));
        j.push_str("      \"parallel_ms\": {");
        let cells: Vec<String> = m
            .parallel_ms
            .iter()
            .map(|(t, v)| format!("\"{t}\": {v:.3}"))
            .collect();
        j.push_str(&cells.join(", "));
        j.push_str("},\n");
        j.push_str("      \"parallel_nocache_ms\": {");
        let cells: Vec<String> = m
            .parallel_nocache_ms
            .iter()
            .map(|(t, v)| format!("\"{t}\": {v:.3}"))
            .collect();
        j.push_str(&cells.join(", "));
        j.push_str("},\n");
        // cache-off ms / cache-on ms at the same thread count: the
        // before/after effect of the cross-statement join-index cache alone.
        j.push_str("      \"index_cache_speedup\": {");
        let cells: Vec<String> = m
            .parallel_ms
            .iter()
            .zip(m.parallel_nocache_ms.iter())
            .map(|((t, on), (_, off))| format!("\"{t}\": {:.2}", off / on))
            .collect();
        j.push_str(&cells.join(", "));
        j.push_str("},\n");
        // From one traced (untimed) run at 4 threads: which operator
        // strategies actually fired, plus the pool counters behind them.
        j.push_str("      \"trace_summary\": {\n");
        j.push_str("        \"ops\": {");
        let cells: Vec<String> = m
            .trace_ops
            .iter()
            .map(|(k, calls, total_ms)| {
                format!(
                    "{}: {{\"calls\": {calls}, \"total_ms\": {total_ms:.3}}}",
                    json::string(k)
                )
            })
            .collect();
        j.push_str(&cells.join(", "));
        j.push_str("},\n");
        j.push_str("        \"counters\": {");
        let cells: Vec<String> = m
            .trace_counters
            .iter()
            .map(|(k, v)| format!("{}: {v}", json::string(k)))
            .collect();
        j.push_str(&cells.join(", "));
        j.push_str("}\n");
        j.push_str("      }\n");
        j.push_str(if i + 1 == ms.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    j.push_str("  ]\n}\n");
    std::fs::write(path, j).expect("write BENCH_parallel_exec.json");
}

/// CI regression gate (`--check-strategies`): one traced 4-thread run per
/// workload, asserting that the operator strategies the planner is supposed
/// to pick actually fired. Catches two failure modes silently invisible to
/// correctness tests: wide workloads falling off the partitioned
/// par_join/par_semijoin paths, and the join-index cache going cold on the
/// workloads built to exercise it.
fn check_strategies(ws: &[Workload]) -> bool {
    // (workload, required `name[strategy]` ops, required minimum counters)
    type Expectation = (
        &'static str,
        &'static [&'static str],
        &'static [(&'static str, u64)],
    );
    let expect: &[Expectation] = &[
        (
            "example3_m30",
            &["join[shared_build_probe]", "semijoin[chunked_probe]"],
            &[],
        ),
        (
            "star_d6_f60k",
            &["join[shared_build_probe]", "semijoin[chunked_probe]"],
            &[],
        ),
        (
            "star_wide",
            &["join[shared_build_probe]", "semijoin[chunked_probe]"],
            &[],
        ),
        ("cycle_gap_n6_m40", &["join[shared_build_probe]"], &[]),
        ("star_wide_reducer", &["semijoin[chunked_probe]"], &[]),
        ("wide_filter_sweep", &["semijoin[chunked_probe]"], &[]),
        (
            "selective_probe_fanout",
            &["join[indexed_probe]"],
            &[("index_cache.hit", 1)],
        ),
        (
            "hub_fanout_reducer",
            &["semijoin[indexed_probe]", "semijoin[chunked_probe]"],
            &[("index_cache.hit", 9), ("index_cache.insert", 1)],
        ),
    ];
    let mut ok = true;
    for w in ws {
        let (ops_req, ctr_req): (&[&str], &[(&str, u64)]) = expect
            .iter()
            .find(|(n, _, _)| *n == w.name)
            .map_or((&[], &[]), |(_, o, c)| (o, c));
        mjoin_trace::clear();
        mjoin_trace::set_enabled(true);
        {
            let out = execute_with(&w.program, &w.db, &ExecConfig::with_threads(4));
            std::hint::black_box(out.result.len());
        }
        mjoin_trace::set_enabled(false);
        let trace = mjoin_trace::take();
        let seen: Vec<String> = trace
            .aggregate()
            .into_iter()
            .filter(|row| row.key.starts_with("op/"))
            .map(|row| row.key.trim_start_matches("op/").to_string())
            .collect();
        for req in ops_req {
            if seen.iter().any(|k| k == req) {
                println!("  ok   {}: {req}", w.name);
            } else {
                println!("  FAIL {}: expected strategy {req}, saw {:?}", w.name, seen);
                ok = false;
            }
        }
        for (name, min) in ctr_req {
            let got = trace.counter(name).unwrap_or(0);
            if got >= *min {
                println!("  ok   {}: {name} = {got} (>= {min})", w.name);
            } else {
                println!("  FAIL {}: {name} = {got}, expected >= {min}", w.name);
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check-strategies") {
        mjoin_pool::ensure_at_least(*THREADS.iter().max().unwrap());
        let ws = workloads();
        println!("exp_par --check-strategies: {} workloads\n", ws.len());
        if check_strategies(&ws) {
            println!("\ncheck-strategies: all strategy expectations held");
            return;
        }
        eprintln!("\ncheck-strategies: strategy mix regressed (see FAIL lines above)");
        std::process::exit(1);
    }
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel_exec.json".into());
    // Fail on an unwritable output path *before* the minutes-long run.
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        eprintln!("exp_par: cannot open output path {path}: {e}");
        std::process::exit(1);
    }
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    mjoin_pool::ensure_at_least(*THREADS.iter().max().unwrap());
    let pool_threads = mjoin_pool::current_num_threads();
    println!(
        "exp_par: host parallelism {host_parallelism}, pool threads {pool_threads}, best of {REPS}\n"
    );

    let ws = workloads();
    let measurements: Vec<Measurement> = ws
        .iter()
        .map(|w| {
            println!("running {} ...", w.name);
            measure(w)
        })
        .collect();

    let mut rows = Vec::new();
    for m in &measurements {
        let mut row = vec![
            m.name.to_string(),
            m.input_tuples.to_string(),
            m.stmts.to_string(),
            format!("{}×{}", m.schedule_depth, m.schedule_width),
        ];
        for (_, ms) in &m.parallel_ms {
            row.push(format!("{ms:.1}"));
        }
        let nc4 = m
            .parallel_nocache_ms
            .iter()
            .find(|(t, _)| *t == 4)
            .map_or(f64::INFINITY, |(_, ms)| *ms);
        row.push(format!("{nc4:.1}"));
        rows.push(row);
    }
    println!();
    print_table(
        &[
            "workload",
            "input",
            "stmts",
            "depth×width",
            "t=1",
            "t=2",
            "t=4",
            "t=8",
            "nocache t=4",
        ],
        &rows,
    );

    write_json(&path, pool_threads, host_parallelism, &measurements);
    println!("\nwrote {path}");
}
