//! `mjoin_cli` — join a set of TSV relations with the paper's pipeline.
//!
//! ```text
//! mjoin_cli analyze  R1.tsv R2.tsv …            # scheme diagnostics
//! mjoin_cli plan     [--optimizer X] R1.tsv …   # show tree + program
//! mjoin_cli run      [--optimizer X] R1.tsv …   # execute, TSV on stdout
//! mjoin_cli check    [--scheme AB,BC] [--deny warn] [--format json] P.mj
//! mjoin_cli check    [--query] [--deny warn] Q.cq …  # query lints (core, ×, …)
//! mjoin_cli audit    [--deny error] [--format json] P.mj <data.tsv…|data dir>
//! mjoin_cli query [--executor program|wcoj|auto] "Q(x,z) :- r1(x,y), r2(y,z)" R1.tsv …
//! mjoin_cli datalog "t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)." E.tsv …
//! mjoin_cli serve   [--addr 127.0.0.1:7878] [--max-cost N] [--threads N]
//! mjoin_cli client  [--addr 127.0.0.1:7878]   # requests on stdin, one per line
//! ```
//!
//! `check` lints a program written in the paper's notation (one statement
//! per line, `#` comments allowed) against its database scheme: Cartesian
//! joins, no-op semijoins/projections, dead stores, recomputed values,
//! Claim C's `r(a+5)` bound, and the level schedule's race-freedom. The
//! scheme comes from `--scheme AB,BC,…` or from a `# scheme: AB,BC,…`
//! directive in the file itself. Diagnostics go to stderr (`--format json`
//! for machine consumption); the exit code is nonzero when any finding
//! reaches the `--deny` threshold (default `error`).
//!
//! `audit` goes further: it runs the program through the engine (`prepare →
//! admit → execute`, as `run` does) over TSV data (files, or a directory of
//! `.tsv` files, matched to scheme edges by attribute set), and diffs every
//! statement's measured head count in the run's ledger against its sound
//! static bounds: the Theorem-2 cost certificate, sized by the counting
//! oracle, and the abstract cardinality intervals. Any statement exceeding a
//! bound is an `error` — that means a kernel, scheduler, or certificate bug,
//! not a data problem. The per-statement table goes to stdout; `check
//! --verify-run P.mj data…` runs the same audit after linting, reporting on
//! stderr.
//!
//! For `query` and `datalog`, each TSV file defines a predicate named by its
//! file stem (`edges.tsv` → `edges`), with columns bound positionally in
//! header order. `datalog` runs the semi-naive fixpoint; with
//! `--explain-analyze` each iteration reports its delta size, rules fired,
//! and new facts.
//!
//! Each TSV file holds one relation: a tab-separated header of attribute
//! names, then one tuple per line. The optimizer picks the input tree `T₁`
//! (`greedy` default; `dp`, `dp-cpf`, `dp-linear` for the exact DP optima);
//! Algorithms 1 and 2 then derive the program that is executed.
//!
//! Costs (the paper's §2.3 tuple counts) go to stderr so stdout stays a
//! clean TSV. `--explain-analyze` additionally prints an EXPLAIN ANALYZE
//! report (per-statement wall time, chosen operator strategies, schedule
//! depth/width) on stderr, and setting `MJOIN_TRACE=<path>` writes the raw
//! span data as Chrome trace format JSON for `chrome://tracing`/Perfetto.

use mjoin::core::engine::{self, BoundViolation, Limits, Oracle, Plan};
use mjoin::prelude::*;
use mjoin::program::display;
use mjoin::relation::tsv;
use mjoin::trace as mjoin_trace;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

struct Args {
    command: String,
    optimizer: String,
    /// `query`: which join executor runs each connected component —
    /// `program` (the paper's §2.2 pipeline, default), `wcoj`
    /// (worst-case-optimal generic join), or `auto` (AGM bound vs the
    /// program's Theorem-2 certificate, per component).
    executor: String,
    explain: bool,
    /// `check`: comma-separated relation schemes, e.g. `AB,BC,CD`.
    scheme: Option<String>,
    /// `check`: severity that makes the exit code nonzero.
    deny: String,
    /// `check`: `text` (default) or `json`.
    format: String,
    /// `check`: also execute the program over supplied data and audit
    /// measured costs against the static bounds.
    verify_run: bool,
    /// `check`: treat every input file as a conjunctive-query/Datalog
    /// source and run the query lints (implied for `.cq`/`.dl` files).
    query_lint: bool,
    /// `query`: compile the query's core (Chandra–Merlin minimization)
    /// before planning. Default on; `--minimize off` opts out.
    minimize: bool,
    /// `serve`/`client`: TCP address to listen on / connect to.
    addr: String,
    /// `run`/`query`/`serve`: threads per run / per component / per
    /// request.
    threads: usize,
    /// `serve`: admission budget — reject requests whose certified
    /// per-statement bound exceeds this.
    max_cost: Option<u64>,
    /// `serve`: bounded-FIFO depth for requests queued on the capacity
    /// gate.
    queue_depth: usize,
    /// `run`/`query`/`serve`: per-statement memory budget in bytes. Joins
    /// whose certified build-side bound exceeds it run the Grace-hash
    /// spill path; `serve` additionally rejects requests whose certified
    /// peak exceeds it. `check --memory` lints against it (`mem-blowup`).
    mem_budget: Option<u64>,
    /// `check`: print the static memory certificate (peak-resident bytes
    /// per statement); with `--mem-budget` also run the `mem-blowup` lint.
    memory: bool,
    files: Vec<String>,
}

/// Either a normal invocation or an explicit request for the usage text
/// (which is *not* an error: `--help` must exit successfully).
enum Parsed {
    Help,
    Run(Box<Args>),
}

/// The value of `flag`: the next argument (`--flag=v` was split into two
/// beforehand), parsed as `T`. `hint` names what was expected.
fn value<T: std::str::FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
    hint: &str,
) -> Result<T, String> {
    let v = argv
        .next()
        .ok_or_else(|| format!("{flag} needs a value{hint}"))?;
    v.parse().map_err(|_| format!("bad {flag} `{v}`"))
}

fn parse_args() -> Result<Parsed, String> {
    // `--flag=value` reads as `--flag value`.
    let mut argv = std::env::args()
        .skip(1)
        .flat_map(|a| match a.split_once('=') {
            Some((flag, v)) if flag.starts_with("--") => vec![flag.to_string(), v.to_string()],
            _ => vec![a],
        });
    let command = argv.next().ok_or_else(usage)?;
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        return Ok(Parsed::Help);
    }
    let mut a = Args {
        command,
        optimizer: "greedy".to_string(),
        executor: "program".to_string(),
        explain: false,
        scheme: None,
        deny: "error".to_string(),
        format: "text".to_string(),
        verify_run: false,
        query_lint: false,
        minimize: true,
        addr: "127.0.0.1:7878".to_string(),
        threads: 1,
        max_cost: None,
        queue_depth: 16,
        mem_budget: None,
        memory: false,
        files: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let argv = &mut argv;
        match arg.as_str() {
            "--help" | "-h" => return Ok(Parsed::Help),
            "--explain-analyze" => a.explain = true,
            "--verify-run" => a.verify_run = true,
            "--query" => a.query_lint = true,
            "--memory" => a.memory = true,
            "--minimize" => {
                a.minimize = parse_on_off(&value::<String>(argv, &arg, " (on|off)")?)?;
            }
            "--optimizer" => a.optimizer = value(argv, &arg, "")?,
            "--executor" => a.executor = value(argv, &arg, "")?,
            "--scheme" => a.scheme = Some(value(argv, &arg, "")?),
            "--deny" => a.deny = value(argv, &arg, "")?,
            "--format" => a.format = value(argv, &arg, "")?,
            "--addr" => a.addr = value(argv, &arg, "")?,
            "--threads" => a.threads = value(argv, &arg, "")?,
            "--max-cost" => a.max_cost = Some(value(argv, &arg, "")?),
            "--mem-budget" => a.mem_budget = Some(value(argv, &arg, " (bytes)")?),
            "--queue-depth" => a.queue_depth = value(argv, &arg, "")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => a.files.push(arg),
        }
    }
    // `serve` holds state loaded over the wire and `client` reads stdin;
    // neither takes file arguments.
    if a.files.is_empty() && !matches!(a.command.as_str(), "serve" | "client") {
        return Err("no input files".to_string());
    }
    Ok(Parsed::Run(Box::new(a)))
}

fn usage() -> String {
    "usage: mjoin_cli <analyze|plan|run|check|audit|query|datalog|serve|client> [--optimizer greedy|dp|dp-cpf|dp-linear] \
     [--explain-analyze] [\"Q(x) :- …\"] <relation.tsv|program.mj>…\n\
     \n\
     --optimizer        join-tree search: greedy (default) or exact DP over\n\
     \u{20}                  all / CPF / linear trees\n\
     --executor         (query) per-component join executor: program\n\
     \u{20}                  (default), wcoj (worst-case-optimal generic join),\n\
     \u{20}                  or auto (pick by AGM bound vs Theorem-2 certificate)\n\
     --explain-analyze  print per-statement timings, operator strategies and\n\
     \u{20}                  schedule shape on stderr after execution\n\
     --scheme A,B,…     (check/audit) database scheme as comma-separated\n\
     \u{20}                  attribute sets; overrides `# scheme:` in the file\n\
     --deny SEV         (check/audit) exit nonzero at this severity or above:\n\
     \u{20}                  note|warn|error (default error)\n\
     --format FMT       (check/audit) report as text (default) or json\n\
     --verify-run       (check) also execute the program over trailing TSV\n\
     \u{20}                  data and audit measured vs static cost bounds\n\
     --query            (check) lint conjunctive-query/Datalog sources\n\
     \u{20}                  instead of .mj programs (implied for .cq/.dl files)\n\
     --minimize on|off  (query) compile the query's core (Chandra–Merlin\n\
     \u{20}                  minimization) before planning (default on)\n\
     --addr HOST:PORT   (serve/client) listen/connect address, default\n\
     \u{20}                  127.0.0.1:7878; port 0 picks a free port\n\
     --threads N        (run/query/serve) threads per run, query component\n\
     \u{20}                  or request (default 1)\n\
     --max-cost N       (serve) reject requests whose certified Theorem-2\n\
     \u{20}                  bound exceeds N tuples (default: no limit)\n\
     --queue-depth N    (serve) admission queue length (default 16)\n\
     --memory           (check) print the static memory certificate: peak\n\
     \u{20}                  resident bytes per statement, from the Theorem-2\n\
     \u{20}                  cardinality bounds (trailing TSV data seeds the\n\
     \u{20}                  input sizes; without data, 1024 tuples/relation)\n\
     --mem-budget N     (run/query/serve) per-statement memory budget in\n\
     \u{20}                  bytes: joins whose certified build side exceeds it\n\
     \u{20}                  spill via Grace hashing; serve also rejects\n\
     \u{20}                  requests whose certified peak exceeds it; with\n\
     \u{20}                  `check --memory`, budget for the mem-blowup lint\n\
     --help, -h         this text\n\
     \n\
     environment: MJOIN_TRACE=<path> writes Chrome trace format JSON there"
        .to_string()
}

fn parse_on_off(v: &str) -> Result<bool, String> {
    match v {
        "on" | "true" => Ok(true),
        "off" | "false" => Ok(false),
        other => Err(format!("bad boolean `{other}` (on|off)")),
    }
}

/// Open a TSV file for the block parser: the buffer is what one `read`
/// fetches and the parser then works through in place.
fn open_tsv(path: &str) -> Result<BufReader<File>, String> {
    let file = File::open(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(BufReader::with_capacity(256 * 1024, file))
}

/// Stream one TSV file into a relation without materializing the file as a
/// string first.
fn load_tsv(catalog: &mut Catalog, path: &str) -> Result<Relation, String> {
    tsv::relation_from_tsv_reader(catalog, open_tsv(path)?).map_err(|e| format!("`{path}`: {e}"))
}

fn load(files: &[String]) -> Result<(Catalog, DbScheme, Database), String> {
    let mut catalog = Catalog::new();
    let mut relations = Vec::new();
    for path in files {
        relations.push(load_tsv(&mut catalog, path)?);
    }
    let db = Database::from_relations(relations);
    let scheme = DbScheme::from_schemas(&db.schemas());
    Ok((catalog, scheme, db))
}

fn analyze(catalog: &Catalog, scheme: &DbScheme, db: &Database) {
    println!("relations: {}", scheme.num_relations());
    println!("attributes: {}", scheme.num_attrs());
    println!("scheme: {}", scheme.display(catalog));
    println!("connected: {}", scheme.fully_connected());
    println!("acyclic (GYO): {}", is_acyclic(scheme));
    println!("quasi-optimality factor r(a+5): {}", scheme.quasi_factor());
    println!("input tuples: {}", db.total_tuples());
    println!("pairwise consistent: {}", pairwise_consistent(db));
}

/// Program shape handed to the EXPLAIN ANALYZE renderer: statement texts in
/// statement order plus the level schedule.
struct ExplainInfo {
    stmt_names: Vec<String>,
    level_of: Vec<usize>,
    depth: usize,
    width: usize,
}

impl ExplainInfo {
    fn of(program: &Program, scheme: &DbScheme, catalog: &Catalog) -> Self {
        let rendered = display::render(program, scheme, catalog);
        let sched = schedule(program);
        ExplainInfo {
            stmt_names: rendered.lines().map(str::to_string).collect(),
            depth: sched.depth(),
            width: sched.width(),
            level_of: sched.level_of,
        }
    }
}

/// `plan`/`run`: the engine's `prepare → admit → execute` over the loaded
/// files, with each stage's artifacts reported on stderr.
fn run(args: &Args, execute_it: bool) -> Result<Option<ExplainInfo>, String> {
    let (catalog, scheme, db) = load(&args.files)?;
    // The exact oracle counts the subjoins it ranks exactly, so the
    // planner's cost for T1 *is* cost(T1(D)).
    let plan = Plan::Search {
        strategy: PlanStrategy::parse(&args.optimizer)?,
        oracle: Oracle::Exact,
    };
    let prepared = engine::prepare(scheme, db, catalog, plan, ExecutorKind::Program)
        .map_err(|e| e.to_string())?;
    let (scheme, catalog) = (prepared.scheme(), prepared.catalog());
    let searched = "a searched plan carries its trees and program";
    let (d, program) = (
        prepared.derived().expect(searched),
        prepared.program().expect(searched),
    );
    let t1_cost = d.tree_cost.expect(searched);
    eprintln!(
        "T1 ({}, cost {}): {}",
        args.optimizer,
        t1_cost,
        d.tree.display(scheme, catalog)
    );
    eprintln!("T2 (CPF): {}", d.cpf_tree.display(scheme, catalog));
    eprintln!("program ({} statements):", program.len());
    eprint!("{}", display::render(program, scheme, catalog));
    let info = ExplainInfo::of(program, scheme, catalog);

    if execute_it {
        // Under a budget the memory certificate gates the Grace-hash spill
        // path — decided here, before execution.
        let limits = Limits {
            mem_budget: args.mem_budget,
            ..Limits::default()
        };
        let admitted = prepared.admit(&limits).map_err(|r| r.to_string())?;
        if let Some(budget) = args.mem_budget {
            let peak = admitted.analysis().memory().peak_bytes;
            eprintln!("memory: certified peak {peak} bytes (budget {budget})");
        }
        if let Some(plan) = admitted.spill() {
            eprintln!("memory: spilling statements {:?}", plan.spilled_stmts());
        }
        let out = admitted
            .execute(args.threads, None, None)
            .map_err(|c| c.to_string())?;
        report_shortfalls(&out.spill_failures, &out.bound_violations);
        eprintln!("cost(T1(D)) = {t1_cost}");
        eprintln!(
            "cost(P(D))  = {} (peak resident {})",
            out.ledger.total(),
            out.peak_resident
        );
        eprintln!(
            "ledger: inputs {} + heads {} = cost {}",
            out.ledger.input_total(),
            out.ledger.generated_total(),
            out.ledger.total()
        );
        eprintln!("result: {} tuples", out.result.len());
        // Stream straight from the result's columns (a factorized answer's
        // operand rows) — no whole-file String.
        let stdout = std::io::stdout();
        let mut sink = std::io::BufWriter::new(stdout.lock());
        tsv::answer_to_tsv_writer(catalog, &out.result, &mut sink)
            .and_then(|()| std::io::Write::flush(&mut sink))
            .map_err(|e| format!("writing result: {e}"))?;
    }
    Ok(Some(info))
}

/// Say on stderr which scheduled spills failed (each statement joined in
/// memory, over the certified budget) and which certified bounds the run
/// measured over — for `run` and for each component of a `query`.
fn report_shortfalls(spill_failures: &[(usize, String)], bound_violations: &[BoundViolation]) {
    for (stmt, e) in spill_failures {
        eprintln!(
            "memory: statement {stmt} could not spill ({e}); \
             joined in memory over the certified budget"
        );
    }
    for v in bound_violations {
        eprintln!("bound: {v}");
    }
}

/// Parse a `.mj` program file plus its database scheme (from `--scheme` or
/// the file's `# scheme:` directive), interning into a fresh catalog.
fn parse_program_file(
    path: &str,
    scheme_flag: Option<&String>,
) -> Result<(Catalog, DbScheme, Program), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let spec = scheme_flag
        .map(String::as_str)
        .or_else(|| mjoin::program::scheme_directive(&text))
        .ok_or_else(|| format!("`{path}` has no `# scheme: AB,BC,…` directive; pass --scheme"))?;
    let mut catalog = Catalog::new();
    let scheme = mjoin::program::parse_scheme_list(&mut catalog, spec)
        .ok_or_else(|| format!("empty scheme `{spec}`"))?;
    let program = mjoin::program::parse_program(&catalog, &scheme, &text)
        .map_err(|e| format!("`{path}`: {e}"))?;
    Ok((catalog, scheme, program))
}

/// Expand data arguments: a directory stands for its `.tsv` files (sorted
/// by name); anything else is taken as a file path.
fn expand_data_paths(paths: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for p in paths {
        if std::path::Path::new(p).is_dir() {
            let mut found = Vec::new();
            let entries =
                std::fs::read_dir(p).map_err(|e| format!("cannot read directory `{p}`: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read directory `{p}`: {e}"))?;
                let path = entry.path();
                if path.extension().is_some_and(|x| x == "tsv") {
                    found.push(path.to_string_lossy().into_owned());
                }
            }
            if found.is_empty() {
                return Err(format!("directory `{p}` contains no .tsv files"));
            }
            found.sort();
            out.extend(found);
        } else {
            out.push(p.clone());
        }
    }
    Ok(out)
}

/// Load the TSV files of `data_args` (files or directories) and line them
/// up with the scheme's relations ([`DbScheme::assign_relations`]): file
/// order doesn't matter, but every edge needs exactly one file and every
/// file an edge.
fn load_matched(
    catalog: &mut Catalog,
    scheme: &DbScheme,
    data_args: &[String],
) -> Result<Database, String> {
    let data_paths = expand_data_paths(data_args)?;
    let loaded: Vec<Relation> = data_paths
        .iter()
        .map(|p| load_tsv(catalog, p))
        .collect::<Result<_, String>>()?;
    let schemas: Vec<Schema> = loaded.iter().map(|r| r.schema().clone()).collect();
    let picked = scheme.assign_relations(&schemas).map_err(|i| {
        format!(
            "no data file matches scheme relation {} ({})",
            i,
            Schema::from_set(scheme.attrs_of(i)).display(catalog)
        )
    })?;
    if let Some(j) = (0..loaded.len()).find(|j| !picked.contains(j)) {
        return Err(format!(
            "data file `{}` matches no relation of the scheme (or a duplicate)",
            data_paths[j]
        ));
    }
    Ok(Database::from_relations(
        picked.into_iter().map(|j| loaded[j].clone()).collect(),
    ))
}

const NO_AUDIT_DATA: &str = "audit needs TSV data files (or a directory) after the program";

/// Audit `program` over `db`: run it through the engine (`prepare → admit →
/// execute`), then diff the run's per-statement heads against the static
/// certificate, sized by the counting oracle, and the interval bounds.
/// Returns the rendered report and whether it stayed below `deny`.
fn run_audit(
    catalog: Catalog,
    scheme: DbScheme,
    program: Program,
    db: Database,
    format: &str,
    deny: Severity,
) -> Result<(String, bool), String> {
    let plan = Plan::Program(program);
    let prepared = engine::prepare(scheme, db, catalog, plan, ExecutorKind::Program)
        .map_err(|e| e.to_string())?;
    let admitted = prepared
        .admit(&Limits::default())
        .map_err(|r| r.to_string())?;
    let out = admitted.execute(1, None, None).map_err(|c| c.to_string())?;
    let (analysis, db) = (admitted.analysis(), prepared.db());
    let mut exact = mjoin::optimizer::ExactOracle::new(db);
    let mut histogram = mjoin::optimizer::HistogramOracle::new(prepared.scheme(), db);
    let mut estimate = |set: RelSet| histogram.subjoin_size(set);
    let cx = analysis.cx();
    let report = mjoin::analyze::audit(
        &cx,
        analysis.certificate().clone(),
        &out.ledger,
        |set| exact.subjoin_size(set),
        Some(&mut estimate),
    );
    let rendered = match format {
        "text" => report.render_text(&cx),
        "json" => report
            .to_json(prepared.scheme(), prepared.catalog())
            .render(),
        other => return Err(format!("unknown --format `{other}` (text|json)")),
    };
    Ok((rendered, report.report.clean_at(deny)))
}

/// `audit`: one `.mj` program plus data files/directories; the report goes
/// to stdout, exit status reflects `--deny`.
fn audit_cmd(args: &Args) -> Result<bool, String> {
    let (progs, data): (Vec<String>, Vec<String>) =
        args.files.iter().cloned().partition(|f| f.ends_with(".mj"));
    let path = match progs.as_slice() {
        [one] => one,
        _ => return Err("audit needs exactly one .mj program file".to_string()),
    };
    let (mut catalog, scheme, program) = parse_program_file(path, args.scheme.as_ref())?;
    let deny = Severity::parse(&args.deny)
        .ok_or_else(|| format!("unknown --deny level `{}` (note|warn|error)", args.deny))?;
    if data.is_empty() {
        return Err(NO_AUDIT_DATA.to_string());
    }
    let db = load_matched(&mut catalog, &scheme, &data)?;
    let (rendered, clean) = run_audit(catalog, scheme, program, db, &args.format, deny)?;
    match args.format.as_str() {
        "json" => println!("{rendered}"),
        _ => print!("{rendered}"),
    }
    Ok(clean)
}

/// Lint one conjunctive-query/Datalog source file (`#` comment lines
/// allowed) with the query lints: redundant atoms (Chandra–Merlin core),
/// Cartesian components, duplicate and dominated atoms. Returns whether
/// the report stayed below `deny`.
fn check_query_file(path: &str, deny: Severity, format: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let stripped: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect();
    let rules = parse_rules(&stripped.join("\n")).map_err(|e| format!("`{path}`: {e}"))?;
    let report = match rules.as_slice() {
        [one] => lint_query(one),
        many => lint_rules(many),
    };
    match format {
        "text" => eprint!("{path}:\n{}", report.render_text()),
        "json" => eprintln!("{}", report.to_json().render()),
        other => return Err(format!("unknown --format `{other}` (text|json)")),
    }
    Ok(report.clean_at(deny))
}

/// Lint a program file with `mjoin-analyze`. Returns whether the report
/// stayed below the `--deny` threshold (the process exit status). With
/// `--verify-run`, trailing TSV files/directories are executed against the
/// program and the measured-vs-static audit must pass too.
fn check(args: &Args) -> Result<bool, String> {
    let deny_parsed = Severity::parse(&args.deny)
        .ok_or_else(|| format!("unknown --deny level `{}` (note|warn|error)", args.deny))?;
    let query_files: Vec<&String> = if args.query_lint {
        args.files.iter().collect()
    } else {
        args.files
            .iter()
            .filter(|f| f.ends_with(".cq") || f.ends_with(".dl"))
            .collect()
    };
    if !query_files.is_empty() {
        // Under --query every file is linted as a query source, so a stray
        // .mj or .tsv argument is still a mix-up worth naming, not a parse
        // error deep inside the query parser.
        let mixed = query_files.len() != args.files.len()
            || query_files
                .iter()
                .any(|f| f.ends_with(".mj") || f.ends_with(".tsv"));
        if mixed {
            return Err(
                "check cannot mix query sources (.cq/.dl) with .mj programs or data".to_string(),
            );
        }
        if args.verify_run {
            return Err("--verify-run applies to .mj programs, not query sources".to_string());
        }
        let mut clean = true;
        for path in query_files {
            clean &= check_query_file(path, deny_parsed, &args.format)?;
        }
        return Ok(clean);
    }
    let (progs, data): (Vec<String>, Vec<String>) =
        args.files.iter().cloned().partition(|f| f.ends_with(".mj"));
    let path = match progs.as_slice() {
        [one] => one,
        _ => return Err("check needs exactly one program file".to_string()),
    };
    if !args.verify_run && !args.memory && !data.is_empty() {
        return Err(
            "check takes only a program file (use --verify-run or --memory to pass data)"
                .to_string(),
        );
    }
    let (mut catalog, scheme, program) = parse_program_file(path, args.scheme.as_ref())?;
    let deny = deny_parsed;
    let report = mjoin::analyze::analyze(&program, &scheme, &catalog);
    match args.format.as_str() {
        "text" => eprint!("{}", report.render_text()),
        "json" => eprintln!("{}", report.to_json().render()),
        other => return Err(format!("unknown --format `{other}` (text|json)")),
    }
    let mut clean = report.clean_at(deny);
    // Trailing data is loaded once, for the memory seeds and the audit alike.
    let db = if data.is_empty() {
        None
    } else {
        Some(load_matched(&mut catalog, &scheme, &data)?)
    };
    if args.memory {
        // Seed the certificate's input cardinalities from the data files
        // when given; otherwise a flat default, which still exposes the
        // program's *shape* (which statement peaks, what spills).
        let seeds: Vec<u64> = match &db {
            Some(db) => db.relations().iter().map(|r| r.len() as u64).collect(),
            None => vec![1024; scheme.num_relations()],
        };
        let cx = mjoin::analyze::AnalysisCx::new(&program, &scheme, &catalog)
            .map_err(|e| e.to_string())?;
        let cert = mjoin::analyze::Certificate::compute(&cx);
        let mem = mjoin::analyze::memory_report_with(&cx, &seeds, &cert);
        match args.format.as_str() {
            "json" => eprintln!("{}", mem.to_json(&cx, &cert).render()),
            _ => eprint!("{}", mem.render_text(&cx, &cert)),
        }
        if let Some(budget) = args.mem_budget {
            let blowups = Report {
                diagnostics: mem_blowup(&mem, budget, &cx, &cert),
            };
            match args.format.as_str() {
                "json" => eprintln!("{}", blowups.to_json().render()),
                _ => eprint!("{}", blowups.render_text()),
            }
            clean = clean && blowups.clean_at(deny);
        }
    }
    if args.verify_run {
        let db = db.ok_or(NO_AUDIT_DATA)?;
        let (rendered, audit_clean) = run_audit(catalog, scheme, program, db, &args.format, deny)?;
        match args.format.as_str() {
            "json" => eprintln!("{rendered}"),
            _ => eprint!("{rendered}"),
        }
        clean = clean && audit_clean;
    }
    Ok(clean)
}

/// Load each TSV file as a predicate named by its file stem.
fn load_named(files: &[String]) -> Result<NamedDatabase, String> {
    let mut ndb = NamedDatabase::new();
    for path in files {
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("cannot derive a predicate name from `{path}`"))?;
        ndb.add_tsv_reader(stem, open_tsv(path)?)
            .map_err(|e| format!("`{path}`: {e}"))?;
    }
    Ok(ndb)
}

fn query(args: &Args) -> Result<Option<ExplainInfo>, String> {
    let (query_text, files) = args
        .files
        .split_first()
        .ok_or("query needs a query string and at least one TSV file")?;
    let ndb = load_named(files)?;
    let q = parse_query(query_text).map_err(|e| e.to_string())?;
    let strategy = PlanStrategy::parse(&args.optimizer)?;
    let opts = ExecOptions {
        executor: ExecutorKind::parse(&args.executor)?,
        threads: args.threads,
        cache: None,
        minimize: args.minimize,
        mem_budget: args.mem_budget,
    };
    let (res, decisions) =
        execute_query_with(&ndb, &q, strategy, &opts).map_err(|e| e.to_string())?;
    eprintln!("{q}");
    if let Some(m) = &res.minimize {
        if m.atoms_after < m.atoms_before {
            eprintln!(
                "minimize: dropped {} of {} atoms ({}); AGM bound {} -> {}",
                m.atoms_before - m.atoms_after,
                m.atoms_before,
                m.dropped.join(", "),
                m.agm_before,
                m.agm_after
            );
        } else {
            eprintln!(
                "minimize: query is its own core ({} atoms, AGM bound {})",
                m.atoms_before, m.agm_before
            );
        }
    }
    for d in &decisions {
        match (d.agm_bound, d.cert_bound) {
            (Some(agm), Some(cert)) => eprintln!(
                "component {}: executor {} (AGM bound {agm} vs certificate bound {cert})",
                d.component,
                d.executor.name()
            ),
            _ => eprintln!("component {}: executor {}", d.component, d.executor.name()),
        }
        report_shortfalls(&d.spill_failures, &d.bound_violations);
    }
    eprintln!("{} answers, cost {} tuples", res.len(), res.ledger.total());
    // One locked, buffered writer for the whole dump instead of a flushing
    // `println!` per answer row.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    res.write_tsv(&q.head_vars, &mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("writing answers: {e}"))?;
    Ok(None)
}

/// Evaluate a Datalog rule program to its least fixpoint and print each
/// derived predicate's facts.
fn datalog(args: &Args) -> Result<Option<ExplainInfo>, String> {
    let (rules_text, files) = args
        .files
        .split_first()
        .ok_or("datalog needs a rules string and at least one TSV file")?;
    let ndb = load_named(files)?;
    let rules = parse_rules(rules_text).map_err(|e| e.to_string())?;
    let strategy = PlanStrategy::parse(&args.optimizer)?;
    let res = evaluate_datalog(&ndb, &rules, strategy).map_err(|e| e.to_string())?;
    eprintln!(
        "{} rules, fixpoint after {} iterations, cost {} tuples",
        rules.len(),
        res.iterations,
        res.total_cost
    );
    // One locked, buffered writer for the whole dump.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    write_facts(&res, &mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("writing facts: {e}"))?;
    Ok(None)
}

/// Print each derived predicate's facts under a `# pred (n facts)` line,
/// cells escaped as the TSV writer escapes them so every fact re-imports
/// as itself.
fn write_facts(
    res: &mjoin::cq::DatalogResult,
    out: &mut impl std::io::Write,
) -> std::io::Result<()> {
    let mut preds: Vec<&String> = res.facts.keys().collect();
    preds.sort();
    let mut line: Vec<u8> = Vec::new();
    for p in preds {
        let facts = res.facts_of(p);
        writeln!(out, "# {p} ({} facts)", facts.len())?;
        for row in facts {
            line.clear();
            tsv::push_row(&mut line, row);
            out.write_all(&line)?;
        }
    }
    Ok(())
}

/// Run the resident query server until a client sends `shutdown`. The
/// bound address goes to stdout first (port `0` picks a free one) so
/// scripts can scrape it; everything else stays on stderr.
fn serve_cmd(args: &Args) -> Result<Option<ExplainInfo>, String> {
    let cfg = mjoin::serve::ServeConfig {
        addr: args.addr.clone(),
        threads: args.threads,
        max_cost: args.max_cost,
        queue_depth: args.queue_depth,
        mem_budget: args.mem_budget,
        ..Default::default()
    };
    let server =
        mjoin::serve::Server::bind(cfg).map_err(|e| format!("cannot bind `{}`: {e}", args.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("serve: listening on {addr}");
    use std::io::Write as _;
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    server.run().map_err(|e| format!("serve: {e}"))?;
    eprintln!("serve: drained and stopped");
    Ok(None)
}

/// Send each non-empty, non-comment stdin line to the server as one
/// request; print each response line to stdout. Exits nonzero if any
/// response carried `"ok": false`, so scripts can assert on rejections.
fn client_cmd(args: &Args) -> Result<Option<ExplainInfo>, String> {
    use std::io::BufRead as _;
    let mut client = mjoin::serve::Client::connect(&args.addr)
        .map_err(|e| format!("cannot connect to `{}`: {e}", args.addr))?;
    let mut failures = 0u64;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let resp = client
            .request_line(trimmed)
            .map_err(|e| format!("request failed: {e}"))?;
        println!("{}", resp.render());
        if resp.get("ok").and_then(mjoin::serve::Value::as_bool) == Some(false) {
            failures += 1;
        }
    }
    if failures > 0 {
        return Err(format!("server rejected {failures} request(s)"));
    }
    Ok(None)
}

/// Drain the trace sink once and surface it: the EXPLAIN ANALYZE report on
/// stderr (when requested) and/or a Chrome trace JSON file (when
/// `MJOIN_TRACE` names a path). Stdout is never touched — it stays a TSV.
fn emit_trace_outputs(explain: bool, info: Option<&ExplainInfo>) {
    let trace = mjoin_trace::take();
    if explain {
        eprintln!();
        eprintln!("== EXPLAIN ANALYZE ==");
        if let Some(info) = info {
            eprintln!(
                "schedule: {} statements, depth {} (levels), width {} (max statements/level)",
                info.stmt_names.len(),
                info.depth,
                info.width
            );
            let mut stmt_events: Vec<Option<&mjoin_trace::Event>> =
                vec![None; info.stmt_names.len()];
            for ev in &trace.events {
                if ev.cat == "exec" && ev.name == "stmt" {
                    if let Some(i) = ev.int_arg("index") {
                        if let Some(slot) = stmt_events.get_mut(i as usize) {
                            *slot = Some(ev);
                        }
                    }
                }
            }
            for (i, name) in info.stmt_names.iter().enumerate() {
                match stmt_events[i] {
                    Some(ev) => eprintln!(
                        "  stmt {:>3}  level {:>2}  {:>9.3} ms  {:>9} rows  {}",
                        i,
                        info.level_of[i],
                        ev.dur_us as f64 / 1e3,
                        ev.int_arg("out_rows").unwrap_or(-1),
                        name
                    ),
                    None => eprintln!(
                        "  stmt {:>3}  level {:>2}  (not executed)  {}",
                        i, info.level_of[i], name
                    ),
                }
            }
        }
        eprint!("{}", trace.render_summary());
    }
    if let Ok(path) = std::env::var("MJOIN_TRACE") {
        if !path.trim().is_empty() {
            match std::fs::write(&path, trace.to_chrome_json()) {
                Ok(()) => eprintln!("trace: wrote Chrome trace JSON to {path}"),
                Err(e) => eprintln!("trace: cannot write `{path}`: {e}"),
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Parsed::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(Parsed::Run(a)) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.command == "check" || args.command == "audit" {
        // `check`/`audit` have their own exit semantics: failure means the
        // program tripped a finding at the --deny threshold, not that the
        // tool broke.
        let verdict = if args.command == "check" {
            check(&args)
        } else {
            audit_cmd(&args)
        };
        return match verdict {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.explain {
        mjoin_trace::set_enabled(true);
    }
    let tracing = mjoin_trace::enabled();
    let outcome = match args.command.as_str() {
        "analyze" => load(&args.files).map(|(c, s, d)| {
            analyze(&c, &s, &d);
            None
        }),
        "plan" => run(&args, false),
        "run" => run(&args, true),
        "query" => query(&args),
        "datalog" => datalog(&args),
        "serve" => serve_cmd(&args),
        "client" => client_cmd(&args),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match outcome {
        Ok(info) => {
            if tracing {
                emit_trace_outputs(args.explain, info.as_ref());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
