//! The resident server: TCP accept loop, session threads, shared warm
//! state, and certificate-gated admission control.
//!
//! One process holds named catalogs of loaded relations and compiled
//! programs, plus a single process-wide [`SharedIndexCache`] so the
//! build-side join indices one request constructs are warm for the next —
//! across sessions, not just across statements. Every `run`/`query` is
//! admission-checked *before* execution by the one engine path
//! ([`mjoin_core::engine`]: `prepare → admit → execute`): the Theorem-2
//! certificate is evaluated against the resident catalog's cardinalities,
//! and a request whose certified per-statement bound exceeds `--max-cost`
//! is rejected with the offending statement and bound — it never reaches
//! an operator. Admitted requests pass through a bounded-FIFO capacity
//! gate that keeps the *sum* of in-flight certified peaks under the same
//! budget, so concurrent sessions cannot multiply past it.
//!
//! Shutdown is cooperative: the `shutdown` command raises a flag, the
//! accept loop stops, sessions finish their in-flight request (deadlines
//! still apply), and `run` returns once every session thread has joined.
//! Requests start no long-lived threads: a request at `--threads N` runs on
//! its session thread plus scoped threads that end with it, at most `N`
//! per nesting level (`N²` when a parallel level's statements run
//! partitioned kernels).

use crate::protocol::{err, err_with, ok, Request};
use mjoin_core::engine::{
    self, Admitted, Exceeded, ExecutorKind, Limits, Oracle, Plan, PlanStrategy, Prepared, Rejection,
};
use mjoin_cq::{
    compile_query, parse_query, query_agm_bound, ExecOptions as CqExecOptions, MinimizeSummary,
    NamedDatabase,
};
use mjoin_hypergraph::DbScheme;
use mjoin_program::{
    display, parse_program, parse_scheme_list, scheme_directive, CancelToken, Cancelled,
    IndexCache, Program, SharedIndexCache, DEFAULT_CACHE_BYTES, DEFAULT_CACHE_TUPLES,
};
use mjoin_relation::{tsv, Catalog, CostLedger, Database, Relation, Schema};
use mjoin_trace as trace;
use mjoin_trace::json::Value as J;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Longest request line a session accepts, in bytes before the newline —
/// far above the ~1 MB `load` lines real clients send. A client that
/// streams more without a newline is answered `protocol` and disconnected
/// instead of growing the session's line buffer without limit.
const MAX_REQUEST_BYTES: usize = 64 << 20;

/// How long a session blocks in one read attempt before re-checking the
/// shutdown flag. Lines are read as raw bytes (`read_until`), which keeps
/// every byte already appended when the timeout fires — `read_line` would
/// discard a partial chunk if the tick landed mid multi-byte UTF-8
/// character — so slow writers are safe even with non-ASCII payloads.
const READ_TICK: Duration = Duration::from_millis(250);

/// Accept-loop poll interval while no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(20);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`. Port `0` picks a free port
    /// (read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads per request (`1` = statements one by one, in program order).
    pub threads: usize,
    /// Admission budget: reject any request whose certified per-statement
    /// bound exceeds this; keep the sum of in-flight certified peaks under
    /// it. `None` disables admission control and the gate.
    pub max_cost: Option<u64>,
    /// Bounded-FIFO depth for requests waiting on the capacity gate.
    pub queue_depth: usize,
    /// Shared index-cache budget in resident tuples.
    pub cache_budget_tuples: u64,
    /// Shared index-cache budget in resident bytes.
    pub cache_budget_bytes: u64,
    /// Memory admission budget in bytes: reject any `run`/`query` program
    /// whose statically certified peak-resident bytes
    /// ([`engine::Analysis::memory`]) exceed this. `cq` queries are
    /// not rejected — their per-component programs instead route
    /// over-budget join build sides through the Grace-hash spill path.
    /// `None` disables both.
    pub mem_budget: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            max_cost: None,
            queue_depth: 16,
            cache_budget_tuples: DEFAULT_CACHE_TUPLES,
            cache_budget_bytes: DEFAULT_CACHE_BYTES,
            mem_budget: None,
        }
    }
}

/// A program compiled against a catalog, kept resident for reuse.
struct CompiledProgram {
    program: Program,
    scheme: DbScheme,
}

/// One named server-side catalog: interned attribute names, loaded
/// relations, compiled programs. All three share the catalog's attribute
/// ids, so relations match scheme edges by [`AttrSet`] equality.
#[derive(Default)]
struct CatalogEntry {
    catalog: Catalog,
    relations: Vec<(String, Relation)>,
    programs: HashMap<String, CompiledProgram>,
}

/// Why the capacity gate refused a request.
enum GateErr {
    /// The bounded FIFO is full.
    QueueFull,
    /// The request's deadline expired while it was queued.
    Deadline,
    /// The server is shutting down.
    ShuttingDown,
}

#[derive(Default)]
struct GateState {
    /// Sum of admitted requests' certified peak bounds.
    in_use: u64,
    /// Tickets waiting for capacity, in arrival order.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// Capacity gate: admits requests FIFO while the sum of their certified
/// peak bounds stays within the budget. A single request whose own peak
/// exceeds the budget never reaches the gate — admission rejects it first —
/// so the head of the queue always fits once the server drains.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    budget: Option<u64>,
    queue_depth: usize,
}

/// Releases the permit's share of the gate budget on drop, even if the
/// request panics mid-execution.
struct Permit<'a> {
    gate: &'a Gate,
    cost: u64,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if self.cost == 0 && self.gate.budget.is_none() {
            return;
        }
        let mut st = lock(&self.gate.state);
        st.in_use = st.in_use.saturating_sub(self.cost);
        drop(st);
        self.gate.cv.notify_all();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Gate {
    fn new(budget: Option<u64>, queue_depth: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            budget,
            queue_depth,
        }
    }

    /// Acquire capacity `cost`, waiting in FIFO order. `deadline` bounds
    /// the wait; `shutdown` aborts it.
    fn acquire(
        &self,
        cost: u64,
        deadline: Option<Instant>,
        shutdown: &AtomicBool,
    ) -> Result<Permit<'_>, GateErr> {
        let Some(budget) = self.budget else {
            return Ok(Permit {
                gate: self,
                cost: 0,
            });
        };
        let mut st = lock(&self.state);
        if st.queue.len() >= self.queue_depth {
            return Err(GateErr::QueueFull);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        let mut waited = false;
        loop {
            if shutdown.load(Ordering::Relaxed) {
                st.queue.retain(|&t| t != ticket);
                drop(st);
                self.cv.notify_all();
                return Err(GateErr::ShuttingDown);
            }
            let at_head = st.queue.front() == Some(&ticket);
            if at_head && (st.in_use == 0 || st.in_use.saturating_add(cost) <= budget) {
                st.queue.pop_front();
                st.in_use = st.in_use.saturating_add(cost);
                drop(st);
                if waited {
                    trace::add("serve.queue_wait", 1);
                }
                return Ok(Permit { gate: self, cost });
            }
            waited = true;
            if deadline.is_some_and(|d| Instant::now() >= d) {
                st.queue.retain(|&t| t != ticket);
                drop(st);
                self.cv.notify_all();
                return Err(GateErr::Deadline);
            }
            // Short ticks so shutdown and deadlines are observed promptly
            // even when no release wakes the condvar.
            let (g, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(10))
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
        }
    }
}

/// State shared by the accept loop and every session thread.
struct Shared {
    cfg: ServeConfig,
    catalogs: Mutex<HashMap<String, CatalogEntry>>,
    cache: SharedIndexCache,
    gate: Gate,
    /// Cumulative counters drained from the trace sink (`index_cache.*`,
    /// `serve.*`, …), summed across every request the process has served.
    /// Span events are dropped on the way in: nothing reads them.
    totals: Mutex<BTreeMap<&'static str, u64>>,
    shutdown: AtomicBool,
    in_flight: AtomicU64,
    started: Instant,
}

impl Shared {
    /// Drain the process trace sink, add its counters to the cumulative
    /// totals and return them. High-water marks (`record_max`) add up too,
    /// to an upper bound on the process-wide mark.
    fn fold_trace(&self) -> MutexGuard<'_, BTreeMap<&'static str, u64>> {
        let drained = trace::take();
        let mut totals = lock(&self.totals);
        for (name, v) in drained.counters {
            *totals.entry(name).or_insert(0) += v;
        }
        totals
    }

    fn lock_cache(&self) -> MutexGuard<'_, IndexCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Per-session §2.3 ledger: cumulative input + generated tuple counts over
/// every request the session has executed.
#[derive(Default)]
struct SessionLedger {
    requests: u64,
    inputs: u64,
    generated: u64,
}

impl SessionLedger {
    /// Account one executed request.
    fn charge(&mut self, cost: &CostLedger) {
        self.requests += 1;
        self.inputs += cost.input_total();
        self.generated += cost.generated_total();
    }

    fn total(&self) -> u64 {
        self.inputs + self.generated
    }
}

/// The resident query server. Bind, then [`run`](Server::run) — it returns
/// after a client sends `shutdown` and all in-flight work drains.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listen socket. The server is not serving until
    /// [`run`](Server::run).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            cache: IndexCache::shared(cfg.cache_budget_tuples, cfg.cache_budget_bytes),
            gate: Gate::new(cfg.max_cost, cfg.queue_depth),
            cfg,
            catalogs: Mutex::new(HashMap::new()),
            totals: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            started: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a client sends `shutdown`: accept sessions, drain
    /// in-flight requests on shutdown, return.
    pub fn run(self) -> std::io::Result<()> {
        trace::set_enabled(true);
        let mut sessions = Vec::new();
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    sessions.push(std::thread::spawn(move || {
                        session(&shared, stream, MAX_REQUEST_BYTES);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(e) => return Err(e),
            }
            sessions.retain(|h| !h.is_finished());
        }
        // Drain: sessions observe the flag within one read tick once their
        // in-flight request (if any) completes.
        self.shared.gate.cv.notify_all();
        for h in sessions {
            let _ = h.join();
        }
        Ok(())
    }
}

/// One connected client: line-in, line-out until EOF, shutdown, or a
/// request line longer than `max_request_bytes`.
fn session(shared: &Shared, stream: TcpStream, max_request_bytes: usize) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    trace::add("serve.session_open", 1);
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut ledger = SessionLedger::default();
    let mut line: Vec<u8> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        // The line may still grow by its remaining allowance plus the
        // newline that ends it.
        let allowance = (max_request_bytes + 1 - line.len()) as u64;
        match reader.by_ref().take(allowance).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {
                let complete = line.last() == Some(&b'\n');
                if !complete && line.len() > max_request_bytes {
                    trace::add("serve.protocol_error", 1);
                    let resp = err(
                        "protocol",
                        format!("request line exceeds {max_request_bytes} bytes"),
                    );
                    let _ = writeln!(writer, "{}", resp.render()).and_then(|()| writer.flush());
                    break;
                }
                // Decode once, only now that the full line has arrived —
                // partial reads above never touch UTF-8 boundaries.
                let request = match std::str::from_utf8(&line) {
                    Ok(s) => s.trim_end().to_string(),
                    Err(_) => {
                        line.clear();
                        trace::add("serve.protocol_error", 1);
                        let resp = err("protocol", "request line is not valid UTF-8");
                        if writeln!(writer, "{}", resp.render())
                            .and_then(|()| writer.flush())
                            .is_err()
                            || !complete
                        {
                            break;
                        }
                        continue;
                    }
                };
                line.clear();
                if !request.is_empty() {
                    let resp = dispatch(shared, &request, &mut ledger);
                    if writeln!(writer, "{}", resp.render())
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break;
                    }
                }
                // `Ok(n)` without a trailing newline means EOF cut the
                // final line short; we served it, now hang up.
                if !complete {
                    break;
                }
            }
            // Timeout: every byte read so far stays appended in `line` —
            // loop to re-check the shutdown flag and keep accumulating.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    trace::add("serve.session_close", 1);
}

/// A handler's outcome: the success response, or the error response.
type Reply = Result<J, J>;

/// What the execution verbs share: the request's deadline, whether the
/// answer's TSV is wanted, and the session's running §2.3 account.
struct Exec<'a> {
    deadline_ms: Option<u64>,
    want_tsv: bool,
    ledger: &'a mut SessionLedger,
}

/// Parse and route one request line, then drain the trace sink into the
/// totals, so span events never pile up however long the server runs.
fn dispatch(shared: &Shared, request_line: &str, ledger: &mut SessionLedger) -> J {
    let resp = route(shared, request_line, ledger);
    drop(shared.fold_trace());
    resp
}

/// Parse one request line and run its handler.
fn route(shared: &Shared, request_line: &str, ledger: &mut SessionLedger) -> J {
    let req = match Request::parse(request_line) {
        Ok(r) => r,
        Err(e) => {
            trace::add("serve.protocol_error", 1);
            return err("protocol", e);
        }
    };
    if shared.shutdown.load(Ordering::Relaxed) {
        return err("shutting_down", "server is draining; no new requests");
    }
    trace::add("serve.request", 1);
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    let resp = match req {
        Request::Ping => Ok(ok("ping")),
        Request::Load { catalog, name, tsv } => handle_load(shared, &catalog, name, &tsv),
        Request::Compile {
            catalog,
            name,
            program,
            scheme,
        } => handle_compile(shared, &catalog, &name, &program, scheme.as_deref()),
        Request::Run {
            catalog,
            name,
            program,
            scheme,
            deadline_ms,
            tsv,
        } => {
            let source = (name.as_deref(), program.as_deref(), scheme.as_deref());
            let exec = Exec {
                deadline_ms,
                want_tsv: tsv,
                ledger,
            };
            handle_run(shared, &catalog, source, exec)
        }
        Request::Query {
            catalog,
            cq,
            optimizer,
            executor,
            minimize,
            deadline_ms,
            tsv,
        } => {
            let exec = Exec {
                deadline_ms,
                want_tsv: tsv,
                ledger,
            };
            query_knobs(optimizer.as_deref(), executor.as_deref()).and_then(|knobs| match cq {
                Some(cq) => handle_cq_query(shared, &catalog, &cq, knobs, minimize, exec),
                None => handle_query(shared, &catalog, knobs, exec),
            })
        }
        Request::Explain {
            catalog,
            name,
            program,
            cq,
            scheme,
            minimize,
        } => match cq {
            Some(cq) => handle_cq_explain(shared, &catalog, &cq, minimize),
            None => {
                let source = (name.as_deref(), program.as_deref(), scheme.as_deref());
                handle_explain(shared, &catalog, source)
            }
        },
        Request::Stats => Ok(handle_stats(shared, ledger)),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Relaxed);
            shared.gate.cv.notify_all();
            trace::add("serve.shutdown", 1);
            Ok(ok("shutdown").set(
                "draining",
                J::u64(shared.in_flight.load(Ordering::Relaxed) - 1),
            ))
        }
    };
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    resp.unwrap_or_else(|e| e)
}

fn handle_load(shared: &Shared, catalog: &str, name: Option<String>, text: &str) -> Reply {
    let bad_tsv = |e| err("data", format!("bad TSV: {e}"));
    // Parse against a catalog *snapshot* with the lock released — a large
    // TSV payload must not stall every other session's resolve/load/
    // compile — then re-validate the interned header ids under the lock.
    let mut snapshot = {
        let mut catalogs = lock(&shared.catalogs);
        catalogs
            .entry(catalog.to_string())
            .or_default()
            .catalog
            .clone()
    };
    let parsed = tsv::relation_from_tsv_reader(&mut snapshot, text.as_bytes()).map_err(bad_tsv)?;
    // Pay the structural fingerprint once at load time (also outside the
    // lock): clones handed to each run inherit the memoized value, so
    // cross-session index-cache peeks don't re-hash a large resident
    // relation on every request.
    parsed.fingerprint();
    let mut catalogs = lock(&shared.catalogs);
    let entry = catalogs.entry(catalog.to_string()).or_default();
    // Fresh ids are assigned sequentially and schema attrs are sorted, so
    // replaying the header names in ascending-id order reproduces the
    // snapshot's assignments — unless a concurrent load interned other
    // attributes in between, in which case the snapshot's ids are stale
    // and the (rare) parse is redone under the lock against the live
    // catalog.
    let consistent = parsed
        .schema()
        .attrs()
        .iter()
        .all(|&id| entry.catalog.intern(snapshot.name(id)) == id);
    let rel = if consistent {
        parsed
    } else {
        let r =
            tsv::relation_from_tsv_reader(&mut entry.catalog, text.as_bytes()).map_err(bad_tsv)?;
        r.fingerprint();
        r
    };
    let name = name.unwrap_or_else(|| format!("r{}", entry.relations.len()));
    if entry.relations.iter().any(|(n, _)| *n == name) {
        return Err(err("data", format!("relation `{name}` already loaded")));
    }
    let rows = rel.len();
    let attrs = format!("{}", rel.schema().display(&entry.catalog));
    entry.relations.push((name.clone(), rel));
    trace::add("serve.load", 1);
    Ok(ok("load")
        .set("catalog", J::str(catalog))
        .set("name", J::Str(name))
        .set("rows", J::u64(rows as u64))
        .set("attrs", J::Str(attrs))
        .set("relations", J::u64(entry.relations.len() as u64)))
}

/// Parse a program and its scheme — the `scheme` field (`"AB,BC"`), or the
/// program text's own `# scheme:` directive — into the entry's catalog.
fn parse_program_in(
    catalog: &mut Catalog,
    scheme: Option<&str>,
    text: &str,
) -> Result<(Program, DbScheme), J> {
    let spec = scheme.or_else(|| scheme_directive(text)).ok_or_else(|| {
        err(
            "parse",
            "program has no `# scheme: AB,BC,…` directive; pass `scheme`",
        )
    })?;
    let scheme = parse_scheme_list(catalog, spec)
        .ok_or_else(|| err("parse", format!("empty scheme `{spec}`")))?;
    let program = parse_program(catalog, &scheme, text).map_err(|e| err("parse", e.to_string()))?;
    Ok((program, scheme))
}

fn handle_compile(
    shared: &Shared,
    catalog: &str,
    name: &str,
    text: &str,
    scheme: Option<&str>,
) -> Reply {
    let mut catalogs = lock(&shared.catalogs);
    let entry = catalogs.entry(catalog.to_string()).or_default();
    let (program, scheme) = parse_program_in(&mut entry.catalog, scheme, text)?;
    let resp = ok("compile")
        .set("catalog", J::str(catalog))
        .set("name", J::str(name))
        .set("statements", J::u64(program.len() as u64))
        .set(
            "scheme",
            J::Str(format!("{}", scheme.display(&entry.catalog))),
        )
        .set(
            "program",
            J::Str(display::render(&program, &scheme, &entry.catalog)),
        );
    entry
        .programs
        .insert(name.to_string(), CompiledProgram { program, scheme });
    trace::add("serve.compile", 1);
    Ok(resp)
}

/// Where a `run`/`explain` takes its program from: a compiled `name`, or
/// inline `program` text with an optional `scheme`.
type Source<'a> = (Option<&'a str>, Option<&'a str>, Option<&'a str>);

/// Look up (or inline-parse) a program, line the entry's loaded relations
/// up with its scheme edges by attribute set, and — with the catalog lock
/// dropped — hand the lot to the engine, which validates the program.
fn resolve(
    shared: &Shared,
    catalog_name: &str,
    (name, program_text, scheme_text): Source<'_>,
    executor: ExecutorKind,
) -> Result<Prepared, J> {
    let (program, scheme, db, catalog) = {
        let mut catalogs = lock(&shared.catalogs);
        let entry = catalogs
            .get_mut(catalog_name)
            .ok_or_else(|| err("not_found", format!("no catalog `{catalog_name}`")))?;
        let (program, scheme) = if let Some(n) = name {
            let c = entry
                .programs
                .get(n)
                .ok_or_else(|| err("not_found", format!("no compiled program `{n}`")))?;
            (c.program.clone(), c.scheme.clone())
        } else {
            let text = program_text.expect("protocol guarantees name xor program");
            parse_program_in(&mut entry.catalog, scheme_text, text)?
        };
        // Order-independent; the catalog may hold more relations than
        // this program's scheme names.
        let schemas: Vec<Schema> = entry
            .relations
            .iter()
            .map(|(_, rel)| rel.schema().clone())
            .collect();
        let picked = scheme.assign_relations(&schemas).map_err(|i| {
            let edge = Schema::from_set(scheme.attrs_of(i));
            let edge = edge.display(&entry.catalog);
            err(
                "data",
                format!("no loaded relation matches scheme edge {i} ({edge})"),
            )
        })?;
        let rels = picked.into_iter().map(|j| entry.relations[j].1.clone());
        let db = Database::from_relations(rels.collect());
        (program, scheme, db, entry.catalog.clone())
    };
    engine::prepare(scheme, db, catalog, Plan::Program(program), executor)
        .map_err(|e| err("data", e.to_string()))
}

/// The budgets every `run`/`query` is admitted under.
fn limits(shared: &Shared) -> Limits {
    Limits {
        max_cost: shared.cfg.max_cost,
        mem_budget: shared.cfg.mem_budget,
        mem_rejects: true,
    }
}

/// The rejection response: the request never reaches an operator.
fn rejection(r: Rejection) -> J {
    trace::add("serve.admission_reject", 1);
    let message = r.to_string();
    let (bound_key, budget_key) = match r.what {
        Exceeded::Memory => ("peak_bytes", "mem_budget"),
        Exceeded::Cost | Exceeded::Agm => ("bound", "budget"),
    };
    let fields = [
        ("stmt", r.stmt.map(|s| J::u64(s as u64))),
        ("kind_of_stmt", r.kind.map(J::str)),
        (bound_key, Some(J::u64(r.bound))),
        (budget_key, Some(J::u64(r.budget))),
        ("symbolic", r.symbolic.map(J::Str)),
        ("excerpt", r.excerpt.map(J::Str)),
    ];
    let extra = fields
        .into_iter()
        .filter_map(|(k, v)| Some((k.to_string(), v?)))
        .collect();
    err_with("admission", message, extra)
}

/// Wait on the capacity gate for `cost` and start the request's clock:
/// `deadline_ms` counts from here (planning is not charged), bounds the
/// queue wait, and arms the returned cancellation token.
fn gate<'a>(
    shared: &'a Shared,
    cost: u64,
    deadline_ms: Option<u64>,
) -> Result<(Permit<'a>, CancelToken), J> {
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let permit = shared
        .gate
        .acquire(cost, deadline, &shared.shutdown)
        .map_err(|e| match e {
            GateErr::QueueFull => {
                trace::add("serve.queue_reject", 1);
                let depth = J::u64(shared.cfg.queue_depth as u64);
                err_with(
                    "queue_full",
                    "admission queue is full; retry later",
                    vec![("queue_depth".to_string(), depth)],
                )
            }
            GateErr::Deadline => {
                trace::add("serve.deadline_cancel", 1);
                err("deadline", "deadline expired while queued for capacity")
            }
            GateErr::ShuttingDown => err("shutting_down", "server is draining; no new requests"),
        })?;
    let cancel = deadline.map_or_else(CancelToken::new, CancelToken::with_deadline);
    Ok((permit, cancel))
}

/// The response to a request whose deadline fired mid-execution.
fn deadline_cancelled(c: Cancelled) -> J {
    trace::add("serve.deadline_cancel", 1);
    err_with(
        "deadline",
        format!("{c}"),
        vec![("at_stmt".to_string(), J::u64(c.at_stmt as u64))],
    )
}

/// Admit, gate and execute a prepared request and render its outcome onto
/// `response`; shared by `run` and `query`, on either executor. The gate
/// cost is the certified peak of the executor that runs.
fn execute_prepared(
    shared: &Shared,
    prepared: &Prepared,
    exec: Exec<'_>,
    response: impl FnOnce(&Admitted<'_>) -> J,
) -> Reply {
    let admitted = prepared.admit(&limits(shared)).map_err(rejection)?;
    let peak = admitted.certified_peak();
    let (_permit, cancel) = gate(shared, peak, exec.deadline_ms)?;
    trace::add("serve.run", 1);
    if admitted.decision().executor == ExecutorKind::Wcoj {
        trace::add("serve.wcoj_run", 1);
    }
    let out = admitted
        .execute(shared.cfg.threads, Some(&shared.cache), Some(cancel))
        .map_err(deadline_cancelled)?;
    let cost = &out.ledger;
    exec.ledger.charge(cost);
    let mut resp = response(&admitted)
        .set("certified_peak", J::u64(peak))
        .set("rows", J::u64(out.result.len() as u64))
        .set(
            "ledger",
            J::obj()
                .set("inputs", J::u64(cost.input_total()))
                .set("generated", J::u64(cost.generated_total()))
                .set("total", J::u64(cost.total()))
                .set("session_total", J::u64(exec.ledger.total())),
        )
        .set("cache", cache_stats(shared));
    if exec.want_tsv {
        let mut buf = Vec::new();
        tsv::relation_to_tsv_writer(prepared.catalog(), &out.result, &mut buf)
            .map_err(|e| err("data", format!("rendering result: {e}")))?;
        let text = String::from_utf8(buf).expect("TSV output is UTF-8");
        resp = resp.set("tsv", J::Str(text));
    }
    Ok(resp)
}

/// Warm-state snapshot: cumulative hit/miss counters plus current
/// residency of the process-wide index cache.
fn cache_stats(shared: &Shared) -> J {
    let (entries, tuples, bytes) = {
        let c = shared.lock_cache();
        (c.entries(), c.resident_tuples(), c.resident_bytes())
    };
    let totals = shared.fold_trace();
    let counter = |name| J::u64(totals.get(name).copied().unwrap_or(0));
    J::obj()
        .set("hit", counter("index_cache.hit"))
        .set("miss", counter("index_cache.miss"))
        .set("entries", J::u64(entries as u64))
        .set("resident_tuples", J::u64(tuples))
        .set("resident_bytes", J::u64(bytes))
}

fn handle_run(shared: &Shared, catalog: &str, source: Source<'_>, exec: Exec<'_>) -> Reply {
    let prepared = resolve(shared, catalog, source, ExecutorKind::Program)?;
    execute_prepared(shared, &prepared, exec, |_| {
        ok("run").set("catalog", J::str(catalog))
    })
}

/// Parse the `optimizer`/`executor` fields both `query` forms share.
fn query_knobs(
    optimizer: Option<&str>,
    executor: Option<&str>,
) -> Result<(PlanStrategy, ExecutorKind), J> {
    let executor =
        ExecutorKind::parse(executor.unwrap_or("program")).map_err(|e| err("protocol", e))?;
    let strategy =
        PlanStrategy::parse(optimizer.unwrap_or("greedy")).map_err(|e| err("protocol", e))?;
    Ok((strategy, executor))
}

/// Snapshot a catalog entry's loaded relations (cheap shared clones) and
/// its interner, releasing the lock before anything is planned.
fn snapshot(shared: &Shared, catalog: &str) -> Result<(Vec<(String, Relation)>, Catalog), J> {
    let catalogs = lock(&shared.catalogs);
    let entry = catalogs
        .get(catalog)
        .ok_or_else(|| err("not_found", format!("no catalog `{catalog}`")))?;
    if entry.relations.is_empty() {
        return Err(err("data", "catalog has no loaded relations"));
    }
    Ok((entry.relations.clone(), entry.catalog.clone()))
}

fn handle_query(
    shared: &Shared,
    catalog: &str,
    (strategy, requested): (PlanStrategy, ExecutorKind),
    exec: Exec<'_>,
) -> Reply {
    // The tree search below can be exponential (`dp` over every tree) and
    // must not stall every other session's resolve/load/compile.
    let (relations, cat) = snapshot(shared, catalog)?;
    let db = Database::from_relations(relations.into_iter().map(|(_, rel)| rel).collect());
    let scheme = DbScheme::from_schemas(&db.schemas());
    // Estimation-based tree search: the exact oracle would execute the
    // very subjoins admission is about to gate.
    let plan = Plan::Search {
        strategy,
        oracle: Oracle::Estimate,
    };
    let prepared = engine::prepare(scheme, db, cat, plan, requested)
        .map_err(|e| err("data", e.to_string()))?;
    execute_prepared(shared, &prepared, exec, |admitted| {
        // Both sides of the executor decision are reported for every
        // query, whichever executor was asked for.
        let sel = admitted.analysis().selection();
        let (scheme, cat) = (prepared.scheme(), prepared.catalog());
        let tree = &prepared.derived().expect("searched plan has a tree").tree;
        let program = prepared.program().expect("searched plan has a program");
        ok("query")
            .set("catalog", J::str(catalog))
            .set("tree", J::Str(format!("{}", tree.display(scheme, cat))))
            .set("program", J::Str(display::render(program, scheme, cat)))
            .set("executor", J::str(admitted.decision().executor.name()))
            .set("agm_bound", J::u64(sel.agm_bound))
            .set("cert_bound", J::u64(sel.cert_bound))
    })
}

/// Snapshot a catalog entry's relations into a [`NamedDatabase`] for the
/// conjunctive-query front end: each loaded relation becomes a predicate
/// under its load name, columns bound positionally in the relation's
/// canonical attribute order. Tuples are shared with the resident
/// relations, not copied.
fn named_db_snapshot(shared: &Shared, catalog: &str) -> Result<NamedDatabase, J> {
    let (relations, cat) = snapshot(shared, catalog)?;
    let mut ndb = NamedDatabase::new();
    for (name, rel) in &relations {
        let cols: Vec<&str> = rel.schema().attrs().iter().map(|&a| cat.name(a)).collect();
        ndb.add_shared(name, &cols, rel)
            .map_err(|e| err("data", format!("relation `{name}`: {e}")))?;
    }
    Ok(ndb)
}

/// Render the compile-time minimization summary (or `null` when
/// minimization did not run).
fn minimize_summary_json(m: Option<&MinimizeSummary>) -> J {
    let Some(m) = m else { return J::Null };
    let dropped = m.dropped.iter().map(|d| J::Str(d.clone())).collect();
    J::obj()
        .set("atoms_before", J::u64(m.atoms_before as u64))
        .set("atoms_after", J::u64(m.atoms_after as u64))
        .set("dropped", J::Arr(dropped))
        .set("agm_before", J::u64(m.agm_before))
        .set("agm_after", J::u64(m.agm_after))
}

/// `query` with a `cq` payload: run one conjunctive query over the loaded
/// relations. The query's core is compiled unless `minimize` is false, and
/// admission gates on the AGM bound of the body that will actually run —
/// so a query rejected verbatim can be admitted once its redundant atoms
/// fold away. Like every execution verb it waits on the capacity gate,
/// honours `deadline_ms`, and lands in the session ledger.
fn handle_cq_query(
    shared: &Shared,
    catalog: &str,
    cq: &str,
    (strategy, executor): (PlanStrategy, ExecutorKind),
    minimize: bool,
    exec: Exec<'_>,
) -> Reply {
    let q = parse_query(cq).map_err(|e| err("protocol", format!("bad cq: {e}")))?;
    let ndb = named_db_snapshot(shared, catalog)?;
    let opts = CqExecOptions {
        executor,
        threads: shared.cfg.threads,
        cache: None,
        minimize,
        mem_budget: shared.cfg.mem_budget,
    };
    // Admitted on the AGM bound of the compiled body before a tuple moves;
    // binding and planning come after.
    let admitted = compile_query(&ndb, &q, minimize)
        .admit(shared.cfg.max_cost)
        .map_err(rejection)?;
    let peak = admitted.certified_peak();
    let prepared = admitted
        .prepare(strategy, &opts)
        .map_err(|e| err("data", e.to_string()))?;
    let (_permit, cancel) = gate(shared, peak, exec.deadline_ms)?;
    let (res, decisions) = prepared.execute(Some(cancel)).map_err(deadline_cancelled)?;
    trace::add("serve.cq_query", 1);
    exec.ledger.charge(&res.ledger);
    let components: Vec<J> = decisions
        .iter()
        .map(|d| {
            J::obj()
                .set("component", J::Str(d.component.clone()))
                .set("executor", J::str(d.executor.name()))
                .set_opt("agm_bound", d.agm_bound.map(J::u64))
                .set_opt("cert_bound", d.cert_bound.map(J::u64))
        })
        .collect();
    let mut resp = ok("query")
        .set("catalog", J::str(catalog))
        .set("cq", J::Str(q.to_string()))
        .set("minimize", minimize_summary_json(res.minimize.as_ref()))
        .set("components", J::Arr(components))
        .set("rows", J::u64(res.len() as u64))
        .set("cost", J::u64(res.ledger.total()));
    if exec.want_tsv {
        let mut buf = Vec::new();
        res.write_tsv(&q.head_vars, &mut buf)
            .expect("writing to memory");
        let text = String::from_utf8(buf).expect("TSV output is UTF-8");
        resp = resp.set("tsv", J::Str(text));
    }
    Ok(resp)
}

/// `explain` with a `cq` payload: the minimization report (core, dropped
/// atoms, pre/post AGM bounds) plus the query lints — no execution. The
/// core is the one `query` would compile ([`compile_query`]).
fn handle_cq_explain(shared: &Shared, catalog: &str, cq: &str, minimize: bool) -> Reply {
    let q = parse_query(cq).map_err(|e| err("protocol", format!("bad cq: {e}")))?;
    let ndb = named_db_snapshot(shared, catalog)?;
    trace::add("serve.explain", 1);
    let report = mjoin_cq::lint_query(&q);
    let lints: Vec<J> = report
        .diagnostics
        .iter()
        .map(|d| {
            J::obj()
                .set("severity", J::str(d.severity.as_str()))
                .set("lint", J::str(d.lint))
                .set("message", J::Str(d.message.clone()))
                .set_opt("stmt", d.stmt.map(|s| J::u64(s as u64)))
                .set_opt("excerpt", d.excerpt.clone().map(J::Str))
        })
        .collect();
    let compiled = compile_query(&ndb, &q, minimize);
    let report = compiled.minimize().map(|m| {
        let core = J::Str(compiled.query().to_string());
        minimize_summary_json(Some(m)).set("core", core)
    });
    let (bound, max_cost) = (compiled.agm_bound(), shared.cfg.max_cost);
    Ok(ok("explain")
        .set("catalog", J::str(catalog))
        .set("cq", J::Str(q.to_string()))
        .set("lints", J::Arr(lints))
        .set("agm_bound", J::u64(query_agm_bound(&ndb, &q.body)))
        .set_opt("minimize", report)
        .set_opt("budget", max_cost.map(J::u64))
        .set_opt("admitted", max_cost.map(|b| J::Bool(bound <= b))))
}

fn handle_explain(shared: &Shared, catalog: &str, source: Source<'_>) -> Reply {
    let prepared = resolve(shared, catalog, source, ExecutorKind::Auto)?;
    // One analysis context and one certificate behind all three reports.
    let analysis = prepared.analysis();
    let report = analysis.admission();
    trace::add("serve.explain", 1);
    let bounds: Vec<J> = report
        .bounds
        .iter()
        .map(|b| {
            J::obj()
                .set("stmt", J::u64(b.stmt as u64))
                .set("kind", J::str(b.kind))
                .set("bound", J::u64(b.bound))
                .set("symbolic", J::Str(b.symbolic.clone()))
                .set("tight", J::Bool(b.tight))
                .set_opt("excerpt", b.excerpt.clone().map(J::Str))
        })
        .collect();
    // The executor hint is which backend `query --executor auto` would
    // pick for this scheme and these cardinalities; the memory figures are
    // the same peak-resident bound the memory admission gate and the spill
    // planner act on.
    let sel = analysis.selection();
    let mem = analysis.memory();
    let (max_cost, mem_budget) = (shared.cfg.max_cost, shared.cfg.mem_budget);
    let admitted = max_cost.map(|b| J::Bool(report.violation(b).is_none()));
    let mem_admitted = mem_budget.map(|b| J::Bool(mem.violation(b).is_none()));
    Ok(ok("explain")
        .set("catalog", J::str(catalog))
        .set("bounds", J::Arr(bounds))
        .set("peak", J::u64(report.peak))
        .set_opt("peak_stmt", report.peak_stmt.map(|p| J::u64(p as u64)))
        .set("agm_bound", J::u64(sel.agm_bound))
        .set("cert_bound", J::u64(sel.cert_bound))
        .set(
            "executor_hint",
            J::str(if sel.use_wcoj { "wcoj" } else { "program" }),
        )
        .set_opt("budget", max_cost.map(J::u64))
        .set_opt("admitted", admitted)
        .set("mem_peak_bytes", J::u64(mem.peak_bytes))
        .set("mem_peak_tuples", J::u64(mem.peak_tuples))
        .set_opt("mem_peak_stmt", mem.peak_stmt.map(|p| J::u64(p as u64)))
        .set_opt("mem_budget", mem_budget.map(J::u64))
        .set_opt("mem_admitted", mem_admitted))
}

fn handle_stats(shared: &Shared, ledger: &SessionLedger) -> J {
    let cache = cache_stats(shared);
    let counters = {
        let totals = shared.fold_trace();
        let mut o = J::obj();
        for (&name, &v) in totals.iter() {
            o = o.set(name, J::u64(v));
        }
        o
    };
    let catalogs: Vec<J> = {
        let map = lock(&shared.catalogs);
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        names
            .iter()
            .map(|n| {
                let e = &map[*n];
                J::obj()
                    .set("name", J::str(n.as_str()))
                    .set("relations", J::u64(e.relations.len() as u64))
                    .set("programs", J::u64(e.programs.len() as u64))
            })
            .collect()
    };
    ok("stats")
        .set(
            "uptime_ms",
            J::u64(shared.started.elapsed().as_millis() as u64),
        )
        .set(
            "in_flight",
            J::u64(shared.in_flight.load(Ordering::Relaxed)),
        )
        .set("counters", counters)
        .set("cache", cache)
        .set("catalogs", J::Arr(catalogs))
        .set(
            "session",
            J::obj()
                .set("requests", J::u64(ledger.requests))
                .set("inputs", J::u64(ledger.inputs))
                .set("generated", J::u64(ledger.generated)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// The trace sink and the enabled flag are process-global, so tests
    /// that record into them must not overlap.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        lock(&SERIAL)
    }

    /// The server keeps counters, not events: every request leaves the
    /// process sink empty — span events dropped, counters folded into the
    /// totals — and `stats` reports the sum of what the requests recorded.
    #[test]
    fn requests_leave_no_events_in_the_sink_and_stats_sums_their_counters() {
        let _serial = serial();
        trace::set_enabled(true);
        trace::clear();
        let server = Server::bind(ServeConfig::default()).unwrap();
        let shared = &server.shared;
        let cmd = |name: &str| {
            J::obj()
                .set("cmd", J::str(name))
                .set("catalog", J::str("c"))
        };
        let load = |name: &str, tsv: &str| {
            cmd("load")
                .set("name", J::str(name))
                .set("tsv", J::str(tsv))
        };
        let requests = [
            load("r", "A\tB\n1\t2\n2\t3\n"),
            load("s", "B\tC\n2\t5\n3\t6\n"),
            cmd("compile")
                .set("name", J::str("p"))
                .set("program", J::str("R(V) := R(AB) ⋈ R(BC)"))
                .set("scheme", J::str("AB,BC")),
            cmd("run").set("name", J::str("p")),
            cmd("run").set("name", J::str("p")),
            cmd("query").set("cq", J::str("Q(x, z) :- r(x, y), s(y, z)")),
            cmd("stats"),
        ];
        let mut ledger = SessionLedger::default();
        let mut recorded: BTreeMap<&'static str, u64> = BTreeMap::new();
        for request in &requests {
            // A span from outside any request is dropped with the rest.
            drop(trace::span("test", "between_requests"));
            let before = lock(&shared.totals).clone();
            let resp = dispatch(shared, &request.render(), &mut ledger);
            assert_eq!(resp.get("ok"), Some(&J::Bool(true)), "{}", resp.render());
            let left = trace::take();
            assert!(
                left.events.is_empty() && left.counters.is_empty(),
                "sink not drained after {}: {left:?}",
                request.render()
            );
            for (&name, &total) in lock(&shared.totals).iter() {
                let delta = total - before.get(name).copied().unwrap_or(0);
                *recorded.entry(name).or_insert(0) += delta;
            }
        }
        let stats = dispatch(shared, &cmd("stats").render(), &mut ledger);
        trace::set_enabled(false);
        // The last `stats` reports every request before it plus its own
        // `serve.request`.
        *recorded.entry("serve.request").or_insert(0) += 1;
        let mut want = J::obj();
        for (&name, &v) in &recorded {
            want = want.set(name, J::u64(v));
        }
        assert_eq!(stats.get("counters"), Some(&want));
        let counter = |name| recorded.get(name).copied();
        assert_eq!(counter("serve.request"), Some(8));
        assert_eq!(counter("serve.load"), Some(2));
        assert_eq!(counter("serve.compile"), Some(1));
        assert_eq!(counter("serve.run"), Some(2));
        assert_eq!(counter("serve.cq_query"), Some(1));
        assert!(counter("index_cache.hit") >= Some(1), "{recorded:?}");
    }

    /// One byte over the cap without a newline is answered `protocol` and
    /// hung up on; a line of exactly the cap is served, and the next
    /// connection finds the server unharmed.
    #[test]
    fn an_over_long_request_line_is_refused_and_only_that_connection_closed() {
        let _serial = serial();
        const CAP: usize = 64;
        let server = Server::bind(ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        server.listener.set_nonblocking(false).unwrap();
        trace::set_enabled(true);
        let sessions = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = server.listener.accept().unwrap();
                session(&server.shared, stream, CAP);
            }
        });

        let mut flood = TcpStream::connect(addr).unwrap();
        flood.write_all(&[b'x'; CAP + 1]).unwrap();
        let mut answer = String::new();
        // Returns at the server's hang-up, not at a client-side shutdown.
        flood.read_to_string(&mut answer).unwrap();
        assert_eq!(
            answer,
            "{\"ok\":false,\"error\":{\"kind\":\"protocol\",\
             \"message\":\"request line exceeds 64 bytes\"}}\n"
        );

        let mut fresh = Client::connect(addr).unwrap();
        let at_cap = format!("{:<CAP$}", r#"{"cmd":"ping"}"#);
        let pong = fresh.request_line(&at_cap).unwrap();
        assert_eq!(pong.get("ok").and_then(J::as_bool), Some(true));
        let stats = fresh.cmd("stats", &[]).unwrap();
        let errors = stats
            .get("counters")
            .and_then(|c| c.get("serve.protocol_error"))
            .and_then(J::as_u64);
        assert_eq!(errors, Some(1));
        drop(fresh);
        sessions.join().unwrap();
        trace::set_enabled(false);
    }
}
