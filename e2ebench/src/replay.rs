//! The replay pass: a fresh process that performs, in order, the public
//! calls `mjoin_cli` (or the server) performs for one operation, with a
//! harness span around each call into a crate.
//!
//! The one-shot sequences mirror `src/bin/mjoin_cli.rs`:
//!
//! * `run`: `load → pick_tree → derive (+render) → run_pipeline[_with] →
//!   relation_to_tsv_writer`
//! * `query`: `read_to_string + add_tsv → parse_query → execute_query_with →
//!   rows_in_head_order + format`
//!
//! Steps the CLI reaches only through a composite (`cost_of`, `execute_with`
//! inside `run_pipeline*`; `minimize` inside `execute_query_with`) are timed
//! a second time on their own after the operation, so their layers get a
//! number without the mirrored sequence being altered. The server sequences
//! mirror `crates/serve/src/server.rs` request by request, without the
//! socket. `cli.unattributed_frac` (see `run.rs`) is what catches this file
//! drifting from the code it mirrors.

use crate::json::{number, quote};
use crate::serve::proc_status_mb;
use crate::spans::Recorder;
use crate::workloads::{
    churn_op, one_shot_plan, serve_plan, ChurnOp, OneShotPlan, Planned, Rng, ServePlan, Sizes,
    Verb, Workload,
};
use mjoin::analyze::{admission_report, AnalysisCx};
use mjoin::prelude::*;
use mjoin::program::display;
use mjoin::relation::tsv;
use mjoin::serve::{Request, Value as J};
use mjoin::trace as mjoin_trace;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Operations a server replay performs with tracing off, and again with it on.
const SERVE_REPLAY_OPS: usize = 120;
const SERVE_REPLAY_OPS_SMOKE: usize = 12;

/// What one replay process reports back (as JSON, through a file).
#[derive(Default)]
pub struct Report {
    /// The mirrored operation, root span start to end.
    pub op_ms: f64,
    /// `VmHWM` of this process right after the operation.
    pub hwm_mb: f64,
    /// Harness span totals, `(name, total ms, count)`.
    pub spans: Vec<(String, f64, u64)>,
    /// Individually timed steps, counts and sizes.
    pub values: Vec<(String, f64)>,
    /// Engine (`mjoin-trace`) span totals by `cat/name`, traced runs only.
    pub engine_spans: Vec<(String, f64)>,
    /// Engine counters, traced runs only.
    pub counters: Vec<(String, u64)>,
}

impl Report {
    fn set(&mut self, name: &str, v: f64) {
        self.values.push((name.to_string(), v));
    }

    pub fn to_json(&self) -> String {
        let pairs = |items: Vec<String>| items.join(",");
        format!(
            "{{\"op_ms\":{},\"hwm_mb\":{},\"spans\":{{{}}},\"values\":{{{}}},\"engine_spans\":{{{}}},\"counters\":{{{}}}}}\n",
            number(self.op_ms),
            number(self.hwm_mb),
            pairs(
                self.spans
                    .iter()
                    .map(|(n, ms, c)| format!("{}:[{},{}]", quote(n), number(*ms), c))
                    .collect()
            ),
            pairs(
                self.values
                    .iter()
                    .map(|(n, v)| format!("{}:{}", quote(n), number(*v)))
                    .collect()
            ),
            pairs(
                self.engine_spans
                    .iter()
                    .map(|(n, v)| format!("{}:{}", quote(n), number(*v)))
                    .collect()
            ),
            pairs(
                self.counters
                    .iter()
                    .map(|(n, v)| format!("{}:{}", quote(n), v))
                    .collect()
            ),
        )
    }
}

/// Arguments of a replay child (see `main.rs` for the flag spelling).
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    pub data: PathBuf,
    pub report: PathBuf,
    pub traced: bool,
    pub chrome: Option<PathBuf>,
}

/// Entry point of the replay child process.
pub fn child_main(a: &ChildArgs) -> Result<(), String> {
    let sizes = Sizes::of(a.smoke);
    let mut rec = Recorder::new();
    let mut report = Report::default();
    if a.workload.is_serve() {
        let plan = serve_plan(a.workload, &sizes, a.seed);
        let ops = if a.smoke {
            SERVE_REPLAY_OPS_SMOKE
        } else {
            SERVE_REPLAY_OPS
        };
        replay_serve(&mut rec, &mut report, &plan, a.seed, ops)?;
    } else {
        let plan = one_shot_plan(a.workload, &sizes, &a.data);
        mjoin_trace::set_enabled(a.traced);
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        match &plan {
            OneShotPlan::Run {
                files,
                optimizer,
                mem_budget,
            } => replay_run(
                &mut rec,
                &mut report,
                files,
                optimizer,
                *mem_budget,
                a.traced,
                &mut out,
            )?,
            OneShotPlan::Query {
                files,
                query,
                executor,
            } => replay_query(
                &mut rec,
                &mut report,
                files,
                query,
                executor,
                a.traced,
                &mut out,
            )?,
        }
    }
    report.spans = rec
        .totals()
        .into_iter()
        .map(|(n, ms, c)| (n.to_string(), ms, c))
        .collect();
    std::fs::write(&a.report, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", a.report.display()))?;
    if let Some(path) = &a.chrome {
        std::fs::write(path, rec.to_chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn self_status_mb(field: &str) -> f64 {
    proc_status_mb("/proc/self/status", field)
}

/// Drain the engine's trace sink into the report.
fn take_engine_trace(report: &mut Report) {
    let tr = mjoin_trace::take();
    let mut by_name: Vec<(String, f64)> = Vec::new();
    let mut max_head = 0i64;
    for e in &tr.events {
        let key = format!("{}/{}", e.cat, e.name);
        let ms = e.dur_us as f64 / 1e3;
        match by_name.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 += ms,
            None => by_name.push((key, ms)),
        }
        if e.cat == "exec" && e.name == "stmt" {
            max_head = max_head.max(e.int_arg("out_rows").unwrap_or(0));
        }
    }
    report.engine_spans = by_name;
    report.counters = tr
        .counters
        .iter()
        .map(|(n, v)| ((*n).to_string(), *v))
        .collect();
    report.set("engine.max_stmt_head", max_head as f64);
}

// ---------------------------------------------------------------------------
// `mjoin_cli run`

/// `mjoin_cli`'s `load`: stream each TSV into a relation.
fn load(files: &[PathBuf]) -> Result<(Catalog, DbScheme, Database), String> {
    let mut catalog = Catalog::new();
    let mut relations = Vec::new();
    for path in files {
        let file = std::fs::File::open(path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        relations.push(
            tsv::relation_from_tsv_reader(&mut catalog, std::io::BufReader::new(file))
                .map_err(|e| format!("`{}`: {e}", path.display()))?,
        );
    }
    let db = Database::from_relations(relations);
    let scheme = DbScheme::from_schemas(&db.schemas());
    Ok((catalog, scheme, db))
}

/// `mjoin_cli`'s `pick_tree`: the exact oracle under greedy or DP.
fn pick_tree(name: &str, scheme: &DbScheme, db: &Database) -> Result<(JoinTree, u64), String> {
    let mut oracle = ExactOracle::new(db);
    if name == "greedy" {
        return Ok(greedy(scheme, &mut oracle, true));
    }
    let space = match name {
        "dp" => SearchSpace::All,
        "dp-cpf" => SearchSpace::Cpf,
        "dp-linear" => SearchSpace::Linear,
        other => return Err(format!("unknown optimizer `{other}`")),
    };
    let opt = optimize(scheme, &mut oracle, space).ok_or("search space is empty")?;
    Ok((opt.tree, opt.cost))
}

/// The `ExecConfig` `mjoin_cli run --mem-budget` builds over the finished
/// derivation: certify the program's memory, spill what cannot fit.
fn budgeted_config(
    d: &Derivation,
    scheme: &DbScheme,
    catalog: &Catalog,
    db: &Database,
    budget: u64,
    report: Option<&mut Report>,
) -> ExecConfig {
    let mut cfg = ExecConfig::with_threads(1);
    cfg.mem_budget = Some(budget);
    if let Ok(cx) = AnalysisCx::new(&d.program, scheme, catalog) {
        let sizes: Vec<u64> = db.relations().iter().map(|r| r.len() as u64).collect();
        let mem = memory_report(&cx, &sizes);
        eprintln!(
            "memory: certified peak {} bytes (budget {budget})",
            mem.peak_bytes
        );
        if let Some(r) = report {
            r.set("analyze.mem_cert_peak_bytes", mem.peak_bytes as f64);
            r.set("analyze.mem_cert_peak_tuples", mem.peak_tuples as f64);
        }
        let plan = mem.spill_plan(budget);
        if plan.any() {
            eprintln!("memory: spilling statements {:?}", plan.spilled_stmts());
            cfg.spill = Some(Arc::new(plan));
        }
    }
    cfg
}

fn replay_run(
    rec: &mut Recorder,
    report: &mut Report,
    files: &[PathBuf],
    optimizer: &str,
    mem_budget: Option<u64>,
    traced: bool,
    out: &mut impl Write,
) -> Result<(), String> {
    let root = rec.begin("cli.op");

    let (catalog, scheme, db) = rec.time("relation.load", || load(files))?;
    if !scheme.fully_connected() {
        return Err("scheme is disconnected".to_string());
    }
    let (t1, t1_cost) = rec.time("optimizer.plan", || pick_tree(optimizer, &scheme, &db))?;
    let rss_after_plan = self_status_mb("VmHWM");

    // The CLI derives once on its own to print T2 and the program, then
    // `run_pipeline*` derives again.
    let d = rec
        .time("core.derive", || derive(&scheme, &t1))
        .map_err(|e| e.to_string())?;
    rec.time("cli.render", || {
        eprintln!(
            "T1 ({optimizer}, cost {t1_cost}): {}",
            t1.display(&scheme, &catalog)
        );
        eprintln!("T2 (CPF): {}", d.cpf_tree.display(&scheme, &catalog));
        eprintln!("program ({} statements):", d.program.len());
        eprint!("{}", display::render(&d.program, &scheme, &catalog));
        // `ExplainInfo::of`: statement texts plus the level schedule.
        let rendered = display::render(&d.program, &scheme, &catalog);
        let sched = schedule(&d.program);
        std::hint::black_box((rendered.lines().count(), sched.depth(), sched.width()));
    });

    let pipeline = rec.begin("core.pipeline");
    let run = match mem_budget {
        Some(budget) => {
            let mut certify_ms = 0.0;
            let r = run_pipeline_with(&scheme, &t1, &db, &mut FirstChoice, |d| {
                let t = Instant::now();
                let cfg = budgeted_config(d, &scheme, &catalog, &db, budget, Some(&mut *report));
                certify_ms = t.elapsed().as_secs_f64() * 1e3;
                cfg
            });
            report.set("analyze.certify_ms", certify_ms);
            r
        }
        None => run_pipeline(&scheme, &t1, &db, &mut FirstChoice),
    }
    .map_err(|e| e.to_string())?;
    rec.end(pipeline);

    rec.time("cli.render", || {
        eprintln!("cost(T1(D)) = {}", run.tree_cost);
        eprintln!(
            "cost(P(D))  = {} (peak resident {})",
            run.program_cost(),
            run.exec.peak_resident
        );
        eprintln!(
            "ledger: inputs {} + heads {} = cost {}",
            run.exec.ledger.input_total(),
            run.exec.ledger.generated_total(),
            run.exec.ledger.total()
        );
        eprintln!("result: {} tuples", run.exec.result.len());
    });
    let mut counting = CountingWriter::new(out);
    rec.time("relation.write", || {
        tsv::relation_to_tsv_writer(&catalog, &run.exec.result, &mut counting)
            .and_then(|()| counting.flush())
    })
    .map_err(|e| format!("writing result: {e}"))?;

    let input_bytes: u64 = files
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    report.set("relation.input_bytes", input_bytes as f64);
    report.set("relation.output_bytes", counting.bytes as f64);
    report.set("optimizer.rss_after_plan_mb", rss_after_plan);
    report.set("core.program_stmts", run.derivation.program.len() as f64);
    report.set("program.cost_tuples", run.program_cost() as f64);
    report.set(
        "program.head_tuples",
        run.exec.ledger.generated_total() as f64,
    );
    report.set(
        "program.peak_resident_tuples",
        run.exec.peak_resident as f64,
    );
    let max_head = run.exec.head_sizes.iter().copied().max().unwrap_or(0);
    report.set(
        "program.blowup",
        max_head as f64 / run.exec.result.len().max(1) as f64,
    );
    report.set("answer.rows", run.exec.result.len() as f64);
    // `run()` returning frees the outcome (for the chain, 490 000 result
    // rows) before the process can exit; the user waits for that too.
    let program = run.derivation.program.clone();
    rec.time("cli.teardown", || drop(run));
    report.op_ms = rec.end(root);
    report.hwm_mb = self_status_mb("VmHWM");

    if traced {
        take_engine_trace(report);
        return Ok(());
    }

    // Each step of the composite once more, on its own.
    let t = Instant::now();
    std::hint::black_box(cost_of(&t1, &db));
    report.set("expr.tree_cost_ms", t.elapsed().as_secs_f64() * 1e3);
    let time_execute = |cfg: &ExecConfig| {
        let t = Instant::now();
        let out = execute_with(&program, &db, cfg);
        std::hint::black_box(out.result.len());
        t.elapsed().as_secs_f64() * 1e3
    };
    let in_memory_ms = time_execute(&ExecConfig::with_threads(1));
    match mem_budget {
        Some(budget) => {
            let cfg = budgeted_config(&d, &scheme, &catalog, &db, budget, None);
            let spilled_ms = time_execute(&cfg);
            report.set("program.execute_ms", spilled_ms);
            report.set(
                "relation.spill_overhead_ratio",
                spilled_ms / in_memory_ms.max(1e-9),
            );
        }
        None => report.set("program.execute_ms", in_memory_ms),
    }
    Ok(())
}

/// Counts what passes through to the inner writer.
struct CountingWriter<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> CountingWriter<W> {
    fn new(inner: W) -> Self {
        CountingWriter { inner, bytes: 0 }
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// `mjoin_cli query`

fn replay_query(
    rec: &mut Recorder,
    report: &mut Report,
    files: &[PathBuf],
    query_text: &str,
    executor: &str,
    traced: bool,
    out: &mut impl Write,
) -> Result<(), String> {
    let root = rec.begin("cli.op");

    let mut input_bytes = 0u64;
    let ndb = rec.time("relation.load", || -> Result<NamedDatabase, String> {
        let mut ndb = NamedDatabase::new();
        for path in files {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("no predicate name in `{}`", path.display()))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            input_bytes += text.len() as u64;
            ndb.add_tsv(stem, &text)
                .map_err(|e| format!("`{}`: {e}", path.display()))?;
        }
        Ok(ndb)
    })?;
    let q = rec
        .time("cq.parse", || parse_query(query_text))
        .map_err(|e| e.to_string())?;
    let opts = ExecOptions {
        executor: ExecutorKind::parse(executor)?,
        threads: 1,
        cache: None,
        minimize: true,
        mem_budget: None,
    };
    let (res, decisions) = rec
        .time("cq.execute_query", || {
            execute_query_with(&ndb, &q, PlanStrategy::Greedy, &opts)
        })
        .map_err(|e| e.to_string())?;
    rec.time("cli.render", || {
        eprintln!("{q}");
        if let Some(m) = &res.minimize {
            eprintln!(
                "minimize: {} -> {} atoms; AGM bound {} -> {}",
                m.atoms_before, m.atoms_after, m.agm_before, m.agm_after
            );
        }
        for d in &decisions {
            eprintln!(
                "component {}: executor {} ({:?} vs {:?})",
                d.component,
                d.executor.name(),
                d.agm_bound,
                d.cert_bound
            );
        }
        eprintln!("{} answers, cost {} tuples", res.len(), res.ledger.total());
    });
    let rows = rec.time("cq.materialize", || res.rows_in_head_order());
    let mut counting = CountingWriter::new(out);
    rec.time("relation.write", || -> std::io::Result<()> {
        writeln!(counting, "{}", q.head_vars.join("\t"))?;
        for row in rows {
            let cells: Vec<String> = row.iter().map(std::string::ToString::to_string).collect();
            writeln!(counting, "{}", cells.join("\t"))?;
        }
        counting.flush()
    })
    .map_err(|e| format!("writing answers: {e}"))?;

    report.set("relation.input_bytes", input_bytes as f64);
    report.set("relation.output_bytes", counting.bytes as f64);
    report.set("program.cost_tuples", res.ledger.total() as f64);
    report.set("answer.rows", res.len() as f64);
    let wcoj = decisions
        .iter()
        .filter(|d| d.executor == ExecutorKind::Wcoj)
        .count();
    report.set("wcoj.selected", wcoj as f64);
    report.set(
        "cq.atoms_dropped",
        res.minimize
            .as_ref()
            .map_or(0.0, |m| (m.atoms_before - m.atoms_after) as f64),
    );
    // `query()` returning frees the answer and the loaded relations.
    rec.time("cli.teardown", || {
        drop(res);
        drop(ndb);
    });
    report.op_ms = rec.end(root);
    report.hwm_mb = self_status_mb("VmHWM");

    if traced {
        take_engine_trace(report);
        return Ok(());
    }
    let t = Instant::now();
    std::hint::black_box(minimize(&q).core.body.len());
    report.set("cq.minimize_ms", t.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

// ---------------------------------------------------------------------------
// The server's request handlers, without the socket.

struct CompiledProgram {
    program: Program,
    scheme: DbScheme,
}

#[derive(Default)]
struct CatalogEntry {
    catalog: Catalog,
    relations: Vec<(String, Relation)>,
    programs: HashMap<String, CompiledProgram>,
}

/// The state `mjoin-serve` keeps between requests.
struct Resident {
    catalogs: HashMap<String, CatalogEntry>,
    cache: SharedIndexCache,
    parse_bytes: u64,
    render_bytes: u64,
    /// Facts about the latest `run` / `cq` request, for the report.
    last_run_cost: u64,
    last_certified_peak: u64,
    last_atoms_dropped: usize,
}

impl Resident {
    fn new() -> Self {
        let d = mjoin::serve::ServeConfig::default();
        Resident {
            catalogs: HashMap::new(),
            cache: IndexCache::shared(d.cache_budget_tuples, d.cache_budget_bytes),
            parse_bytes: 0,
            render_bytes: 0,
            last_run_cost: 0,
            last_certified_peak: 0,
            last_atoms_dropped: 0,
        }
    }

    /// `dispatch`: parse the line, route on the verb, render the reply.
    fn handle(&mut self, rec: &mut Recorder, req: &Planned) -> Result<(), String> {
        let root = rec.begin("serve.request");
        self.parse_bytes += req.line.len() as u64;
        let parsed = rec.time("serve.json_parse", || Request::parse(&req.line))?;
        let (resp, rows) = match parsed {
            Request::Load { catalog, name, tsv } => self.load(rec, &catalog, name, &tsv)?,
            Request::Compile {
                catalog,
                name,
                program,
                scheme,
            } => self.compile(rec, &catalog, &name, &program, scheme.as_deref())?,
            Request::Run {
                catalog, name, tsv, ..
            } => self.run(rec, &catalog, name.as_deref().ok_or("inline run")?, tsv)?,
            Request::Query {
                catalog,
                cq: Some(cq),
                minimize,
                tsv,
                ..
            } => self.cq_query(rec, &catalog, &cq, minimize, tsv)?,
            other => return Err(format!("replay does not mirror {other:?}")),
        };
        let line = rec.time("serve.json_render", || resp.render());
        self.render_bytes += line.len() as u64;
        rec.end(root);
        if req.verb != Verb::Compile && rows != req.rows {
            return Err(format!(
                "{:?}: rows {rows} != expected {}",
                req.verb, req.rows
            ));
        }
        Ok(())
    }

    /// `handle_load` (single-session: the snapshot is always consistent).
    fn load(
        &mut self,
        rec: &mut Recorder,
        catalog: &str,
        name: Option<String>,
        text: &str,
    ) -> Result<(J, u64), String> {
        let entry = self.catalogs.entry(catalog.to_string()).or_default();
        let rel = rec
            .time("relation.load", || {
                let r = tsv::relation_from_tsv_reader(&mut entry.catalog, text.as_bytes());
                if let Ok(r) = &r {
                    r.fingerprint();
                }
                r
            })
            .map_err(|e| format!("bad TSV: {e}"))?;
        let name = name.unwrap_or_else(|| format!("r{}", entry.relations.len()));
        let rows = rel.len() as u64;
        let attrs = format!("{}", rel.schema().display(&entry.catalog));
        entry.relations.push((name.clone(), rel));
        let resp = mjoin::serve::protocol::ok("load")
            .set("catalog", J::str(catalog))
            .set("name", J::Str(name))
            .set("rows", J::u64(rows))
            .set("attrs", J::Str(attrs))
            .set("relations", J::u64(entry.relations.len() as u64));
        Ok((resp, rows))
    }

    /// `handle_compile`.
    fn compile(
        &mut self,
        rec: &mut Recorder,
        catalog: &str,
        name: &str,
        text: &str,
        scheme: Option<&str>,
    ) -> Result<(J, u64), String> {
        let entry = self.catalogs.entry(catalog.to_string()).or_default();
        let id = rec.begin("program.parse");
        let parts: Vec<&str> = scheme
            .ok_or("compile without scheme")?
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let scheme = DbScheme::parse(&mut entry.catalog, &parts);
        let program = mjoin::program::parse_program(&entry.catalog, &scheme, text)
            .map_err(|e| e.to_string())?;
        let rendered = display::render(&program, &scheme, &entry.catalog);
        rec.end(id);
        let resp = mjoin::serve::protocol::ok("compile")
            .set("catalog", J::str(catalog))
            .set("name", J::str(name))
            .set("statements", J::u64(program.len() as u64))
            .set(
                "scheme",
                J::Str(format!("{}", scheme.display(&entry.catalog))),
            )
            .set("program", J::Str(rendered));
        entry
            .programs
            .insert(name.to_string(), CompiledProgram { program, scheme });
        Ok((resp, 0))
    }

    /// `handle_run`: resolve → admit → execute under the shared cache →
    /// render the outcome.
    fn run(
        &mut self,
        rec: &mut Recorder,
        catalog: &str,
        name: &str,
        want_tsv: bool,
    ) -> Result<(J, u64), String> {
        let entry = self.catalogs.get(catalog).ok_or("no catalog")?;
        let id = rec.begin("serve.resolve");
        let c = entry.programs.get(name).ok_or("no compiled program")?;
        let (program, scheme) = (c.program.clone(), c.scheme.clone());
        let mut taken = vec![false; entry.relations.len()];
        let mut relations = Vec::with_capacity(scheme.num_relations());
        for i in 0..scheme.num_relations() {
            let want = scheme.attrs_of(i);
            let (j, (_, rel)) = entry
                .relations
                .iter()
                .enumerate()
                .find(|(j, (_, rel))| {
                    !taken[*j]
                        && AttrSet::from_iter_ids(rel.schema().attrs().iter().copied()) == *want
                })
                .ok_or("no loaded relation matches a scheme edge")?;
            taken[j] = true;
            relations.push(rel.clone());
        }
        let db = Database::from_relations(relations);
        let cat = entry.catalog.clone();
        rec.end(id);

        let report = rec.time("analyze.certify", || -> Result<_, String> {
            let cx = AnalysisCx::new(&program, &scheme, &cat).map_err(|e| e.to_string())?;
            let seeds: Vec<u64> = db.relations().iter().map(|x| x.len() as u64).collect();
            Ok(admission_report(&cx, &seeds))
        })?;
        let cfg = ExecConfig {
            threads: 1,
            cache: Some(Arc::clone(&self.cache)),
            cancel: Some(CancelToken::new()),
            ..ExecConfig::default()
        };
        let out = rec
            .time("program.execute", || try_execute_with(&program, &db, &cfg))
            .map_err(|c| format!("{c}"))?;
        let rows = out.result.len() as u64;
        self.last_run_cost = out.ledger.total();
        self.last_certified_peak = report.peak;
        let mut resp = mjoin::serve::protocol::ok("run")
            .set("catalog", J::str(catalog))
            .set("certified_peak", J::u64(report.peak))
            .set("rows", J::u64(rows))
            .set(
                "ledger",
                J::obj()
                    .set("inputs", J::u64(out.ledger.input_total()))
                    .set("generated", J::u64(out.ledger.generated_total()))
                    .set("total", J::u64(out.ledger.total())),
            );
        if want_tsv {
            let mut buf = Vec::new();
            rec.time("relation.write", || {
                tsv::relation_to_tsv_writer(&cat, &out.result, &mut buf)
            })
            .map_err(|e| e.to_string())?;
            resp = resp.set(
                "tsv",
                J::Str(String::from_utf8(buf).map_err(|e| e.to_string())?),
            );
        }
        Ok((resp, rows))
    }

    /// `handle_cq_query`: snapshot the catalog as a named database, parse,
    /// execute (minimizing first), format the answer.
    fn cq_query(
        &mut self,
        rec: &mut Recorder,
        catalog: &str,
        cq: &str,
        minimize: bool,
        want_tsv: bool,
    ) -> Result<(J, u64), String> {
        let q = rec
            .time("cq.parse", || parse_query(cq))
            .map_err(|e| e.to_string())?;
        let entry = self.catalogs.get(catalog).ok_or("no catalog")?;
        let ndb = rec.time("serve.resolve", || -> Result<NamedDatabase, String> {
            let mut ndb = NamedDatabase::new();
            for (name, rel) in &entry.relations {
                let cols: Vec<&str> = rel
                    .schema()
                    .attrs()
                    .iter()
                    .map(|&a| entry.catalog.name(a))
                    .collect();
                let rows: Vec<Vec<Value>> = rel.rows().iter().map(|r| r.to_vec()).collect();
                ndb.add_relation_values(name, &cols, rows)
                    .map_err(|e| e.to_string())?;
            }
            Ok(ndb)
        })?;
        let opts = ExecOptions {
            executor: ExecutorKind::Program,
            threads: 1,
            cache: None,
            minimize,
            mem_budget: None,
        };
        let (res, _) = rec
            .time("cq.execute_query", || {
                execute_query_with(&ndb, &q, PlanStrategy::Greedy, &opts)
            })
            .map_err(|e| e.to_string())?;
        let rows = res.len() as u64;
        self.last_atoms_dropped = res
            .minimize
            .as_ref()
            .map_or(0, |m| m.atoms_before - m.atoms_after);
        let mut resp = mjoin::serve::protocol::ok("query")
            .set("catalog", J::str(catalog))
            .set("cq", J::Str(q.to_string()))
            .set("rows", J::u64(rows))
            .set("cost", J::u64(res.ledger.total()));
        if want_tsv {
            let text = rec.time("cq.materialize", || {
                let mut out = q.head_vars.join("\t");
                out.push('\n');
                for row in res.rows_in_head_order() {
                    let cells: Vec<String> =
                        row.iter().map(std::string::ToString::to_string).collect();
                    out.push_str(&cells.join("\t"));
                    out.push('\n');
                }
                out
            });
            resp = resp.set("tsv", J::Str(text));
        }
        Ok((resp, rows))
    }
}

/// One pass of the server's operation mix against the in-process handlers;
/// returns per-operation milliseconds.
fn serve_pass(
    rec: &mut Recorder,
    state: &mut Resident,
    plan: &ServePlan,
    seed: u64,
    ops: usize,
    tag: &str,
) -> Result<Vec<f64>, String> {
    let mut rng = Rng::new(seed, 100);
    let mut op_ms = Vec::with_capacity(ops);
    for n in 0..ops {
        let kind = if plan.has_churn() {
            churn_op(&mut rng)
        } else {
            ChurnOp::WarmRun
        };
        let t = Instant::now();
        match kind {
            ChurnOp::WarmRun => state.handle(rec, &plan.warm_run)?,
            ChurnOp::CqQuery => state.handle(rec, plan.cq.as_ref().expect("churn plan"))?,
            ChurnOp::FreshCatalog => {
                for req in plan.fresh_requests(rng.below(usize::MAX), &format!("fresh_{tag}_{n}")) {
                    state.handle(rec, &req)?;
                }
            }
        }
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(op_ms)
}

fn replay_serve(
    rec: &mut Recorder,
    report: &mut Report,
    plan: &ServePlan,
    seed: u64,
    ops: usize,
) -> Result<(), String> {
    // `Server::run` switches tracing on before the first request, so set-up
    // runs traced here too.
    mjoin_trace::set_enabled(true);
    let mut state = Resident::new();
    let setup = rec.begin("serve.setup");
    for req in plan.setup.iter().chain([&plan.validate]) {
        state.handle(rec, req)?;
    }
    for _ in 0..crate::serve::WARMUP_RUNS {
        state.handle(rec, &plan.warm_run)?;
    }
    rec.end(setup);
    // Layer totals below are per timed operation: drop what set-up recorded,
    // except the JSON and TSV throughput, which set-up's big payloads show
    // best.
    let setup_totals = rec.totals();
    let setup_ms = |name: &str| {
        setup_totals
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, ms, _)| *ms)
    };
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    report.set(
        "serve.json_parse_mb_per_s",
        mb(state.parse_bytes) / (setup_ms("serve.json_parse") / 1e3).max(1e-9),
    );
    report.set(
        "serve.json_render_mb_per_s",
        mb(state.render_bytes) / (setup_ms("serve.json_render") / 1e3).max(1e-9),
    );
    report.set("relation.load_ms", setup_ms("relation.load"));
    let tsv_bytes: u64 = plan.setup.iter().map(|p| p.line.len() as u64).sum();
    report.set("relation.input_bytes", tsv_bytes as f64);

    // A server that has been up for a while. How long a warm run takes
    // depends on where the allocator's heap top sits: on some seeds it is
    // 8 ms until some 25 traced runs have gone by and 4.7 ms ever after,
    // tracing on or off, because the sink's ever-growing event buffer ends
    // up above the run's scratch memory and stops glibc from trimming and
    // re-faulting it on every request. The real server never empties that
    // buffer (it folds it into its totals), so neither does this replay, and
    // tracing is priced only after the buffer has grown.
    let warm_ops = serve_pass(&mut Recorder::new(), &mut state, plan, seed, ops, "w")?.len();
    *rec = Recorder::new();

    // Alternate untraced and traced blocks so neither side gets all of the
    // grown catalogs; blocks pair up on one seed, so both sides see the same
    // operation mix.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let root = rec.begin("cli.op");
    for (block, tag) in ["a", "b", "c", "d"].into_iter().enumerate() {
        let on = block % 2 == 1;
        mjoin_trace::set_enabled(on);
        if on {
            traced.extend(serve_pass(
                rec,
                &mut state,
                plan,
                seed + block as u64 / 2,
                ops / 2,
                tag,
            )?);
        } else {
            let mut unrecorded = Recorder::new();
            untraced.extend(serve_pass(
                &mut unrecorded,
                &mut state,
                plan,
                seed + block as u64 / 2,
                ops / 2,
                tag,
            )?);
        }
    }
    rec.end(root);
    take_engine_trace(report);
    mjoin_trace::set_enabled(false);
    // Everything since set-up began ran traced except the untraced blocks:
    // the engine's span totals divide by this many operations.
    let ops = 1 + crate::serve::WARMUP_RUNS + warm_ops + traced.len();

    report.op_ms = crate::stats::median(&traced);
    report.hwm_mb = self_status_mb("VmHWM");
    report.set("serve.untraced_op_ms", crate::stats::median(&untraced));
    report.set("serve.traced_op_ms", crate::stats::median(&traced));
    report.set("serve.replay_ops", ops as f64);
    report.set("program.cost_tuples", state.last_run_cost as f64);
    report.set("analyze.certified_peak", state.last_certified_peak as f64);
    report.set("cq.atoms_dropped", state.last_atoms_dropped as f64);
    if let Some(Request::Query { cq: Some(cq), .. }) =
        plan.cq.as_ref().and_then(|p| Request::parse(&p.line).ok())
    {
        let q = parse_query(&cq).map_err(|e| e.to_string())?;
        let t = Instant::now();
        std::hint::black_box(minimize(&q).core.body.len());
        report.set("cq.minimize_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}
