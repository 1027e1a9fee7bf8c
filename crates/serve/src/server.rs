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
//! A catalog only grows, so a request's plan depends on nothing but the
//! request and the catalog's *epoch*, which every `load` and `compile`
//! bumps. The server memoizes up to `PLAN_MEMO_ENTRIES` engine plans and
//! as many `cq` plans, over all catalogs, by catalog and request source,
//! stamped with the catalog's epoch they were planned at: a `run`
//! or `query` whose plan is memoized at the current epoch skips parsing,
//! relation assignment, validation, tree search, Algorithms 1–2, query
//! minimization and binding, and the analyses, which the shared
//! [`Prepared`] keeps; it pays for the capacity gate, the kernels and the
//! reply.
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
    compile_query, parse_query, ConjunctiveQuery, ExecOptions as CqExecOptions, MinimizeSummary,
    NamedDatabase, PreparedQuery,
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
use std::hash::Hash;
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
    /// Bumped by every `load` and `compile`: a plan is reused only at the
    /// epoch it was planned at.
    epoch: u64,
}

/// How many plans of each kind the server memoizes over all its catalogs;
/// past it the least recently used goes. The bound is the server's, not
/// each catalog's, so catalogs planned once and never again do not each
/// keep a plan.
const PLAN_MEMO_ENTRIES: usize = 64;

/// The source of an engine request a plan is memoized under.
#[derive(Clone, PartialEq, Eq, Hash)]
enum PlanKey {
    /// A `run` (program executor) or `explain` (`auto`) of a program.
    Program {
        source: Source,
        executor: ExecutorKind,
    },
    /// A scheme-form `query` over every loaded relation.
    Query {
        strategy: PlanStrategy,
        executor: ExecutorKind,
    },
}

/// Where a `run`/`explain` program comes from.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Source {
    /// The program compiled under this name.
    Compiled(String),
    /// Inline program text, with its `scheme` field.
    Inline {
        program: String,
        scheme: Option<String>,
    },
}

/// The source of a `cq` `query` a plan is memoized under; its `explain`
/// shares the default knobs' entry.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CqKey {
    text: String,
    minimize: bool,
    strategy: PlanStrategy,
    executor: ExecutorKind,
}

/// A compiled `cq` query: the parsed text, the body that runs, what
/// minimization did, and — admitted on the body's AGM bound, bound and
/// planned — the prepared query, or why there is none.
struct CqPlan {
    query: ConjunctiveQuery,
    /// The compiled body: the core, or the query as written.
    body: ConjunctiveQuery,
    minimize: Option<MinimizeSummary>,
    /// AGM bound of the compiled body, what admission and the gate charge.
    agm_bound: u64,
    prepared: Result<PreparedQuery, CqRefusal>,
}

/// Why a compiled `cq` query has no prepared form.
enum CqRefusal {
    /// Its AGM bound exceeds `--max-cost`.
    Admission(Rejection),
    /// Binding or planning failed.
    Data(String),
}

/// The server's memoized plans of one kind, keyed by catalog name and
/// request source, each stamped with its catalog's epoch when planned.
struct PlanMemo<K, V> {
    entries: HashMap<(String, K), (u64, V, u64)>,
    tick: u64,
}

impl<K, V> Default for PlanMemo<K, V> {
    fn default() -> Self {
        PlanMemo {
            entries: HashMap::new(),
            tick: 0,
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone> PlanMemo<K, V> {
    /// The plan memoized for `key` at `epoch`, its catalog's current one.
    fn get(&mut self, key: &(String, K), epoch: u64) -> Option<V> {
        self.tick += 1;
        let (at, plan, last_used) = self.entries.get_mut(key)?;
        if *at != epoch {
            return None;
        }
        *last_used = self.tick;
        Some(plan.clone())
    }

    /// Memoize `plan` for `key` at `epoch`, its catalog's current one:
    /// the catalog's entries of earlier epochs go, then the least recently
    /// used while the memo is full.
    fn insert(&mut self, key: (String, K), epoch: u64, plan: V) {
        self.tick += 1;
        self.entries
            .retain(|(catalog, _), (at, ..)| *catalog != key.0 || *at == epoch);
        self.entries.remove(&key);
        while self.entries.len() >= PLAN_MEMO_ENTRIES {
            let lru = self.entries.iter().min_by_key(|(_, e)| e.2);
            let lru = lru.map(|(k, _)| k.clone()).expect("a full memo");
            self.entries.remove(&lru);
        }
        self.entries.insert(key, (epoch, plan, self.tick));
    }
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
    /// Engine and `cq` plans; locked after `catalogs`, never before.
    plans: Mutex<PlanMemo<PlanKey, Arc<Prepared>>>,
    cq_plans: Mutex<PlanMemo<CqKey, Arc<CqPlan>>>,
    cache: SharedIndexCache,
    gate: Gate,
    /// Cumulative counters (`index_cache.*`, `serve.*`, …): each request's
    /// collector folded in as the request ends, plus the few counted
    /// outside any request.
    totals: Mutex<BTreeMap<&'static str, u64>>,
    shutdown: AtomicBool,
    in_flight: AtomicU64,
    started: Instant,
}

impl Shared {
    /// Add counters to the cumulative totals: a finished request's, or one
    /// counted outside any request (a session opening or closing, a line
    /// refused before it parsed).
    fn fold(&self, counters: &[(&'static str, u64)]) {
        if counters.is_empty() {
            return;
        }
        let mut totals = lock(&self.totals);
        for &(name, v) in counters {
            *totals.entry(name).or_insert(0) += v;
        }
    }

    /// The cumulative totals plus what the current request has counted so
    /// far, so a reply reports its own request as already folded in.
    fn counters(&self) -> BTreeMap<&'static str, u64> {
        let mut all = lock(&self.totals).clone();
        for (name, v) in trace::collected_counters() {
            *all.entry(name).or_insert(0) += v;
        }
        all
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
            plans: Mutex::default(),
            cq_plans: Mutex::default(),
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
    shared.fold(&[("serve.session_open", 1)]);
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
                    shared.fold(&[("serve.protocol_error", 1)]);
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
                        shared.fold(&[("serve.protocol_error", 1)]);
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
    shared.fold(&[("serve.session_close", 1)]);
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

/// Parse one request line and run it under its own collector — spans only
/// when it asked for them with `"trace": true`, which returns them in the
/// reply — then fold the collector's counters into the totals.
fn dispatch(shared: &Shared, request_line: &str, ledger: &mut SessionLedger) -> J {
    let (resp, collected) = serve_line(shared, request_line, ledger);
    shared.fold(&collected.counters);
    resp
}

/// [`dispatch`] before the fold: the reply and what its request recorded.
fn serve_line(
    shared: &Shared,
    request_line: &str,
    ledger: &mut SessionLedger,
) -> (J, trace::Trace) {
    let req = match Request::parse(request_line) {
        Ok(r) => r,
        Err(e) => {
            shared.fold(&[("serve.protocol_error", 1)]);
            return (err("protocol", e), trace::Trace::default());
        }
    };
    let traced = req.traced();
    let (resp, collector) = trace::Collector::new(traced).run(|| route(shared, req, ledger));
    let collected = collector.into_trace();
    let resp = match traced {
        true => resp.set("trace", collected.summary_json()),
        false => resp,
    };
    (resp, collected)
}

/// Run one parsed request's handler.
fn route(shared: &Shared, req: Request, ledger: &mut SessionLedger) -> J {
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
            ..
        } => {
            let key = source_key(name, program, scheme, ExecutorKind::Program);
            let exec = Exec {
                deadline_ms,
                want_tsv: tsv,
                ledger,
            };
            handle_run(shared, &catalog, key, exec)
        }
        Request::Query {
            catalog,
            cq,
            optimizer,
            executor,
            minimize,
            deadline_ms,
            tsv,
            ..
        } => {
            let exec = Exec {
                deadline_ms,
                want_tsv: tsv,
                ledger,
            };
            let knobs = query_knobs(optimizer.as_deref(), executor.as_deref());
            knobs.and_then(|(strategy, executor)| match cq {
                Some(text) => {
                    let key = CqKey {
                        text,
                        minimize,
                        strategy,
                        executor,
                    };
                    handle_cq_query(shared, &catalog, key, exec)
                }
                None => {
                    let key = PlanKey::Query { strategy, executor };
                    handle_query(shared, &catalog, key, exec)
                }
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
            Some(text) => {
                // The entry a `query` with the default knobs plans.
                let key = CqKey {
                    text,
                    minimize,
                    strategy: PlanStrategy::Greedy,
                    executor: ExecutorKind::Program,
                };
                handle_cq_explain(shared, &catalog, key)
            }
            None => {
                let key = source_key(name, program, scheme, ExecutorKind::Auto);
                handle_explain(shared, &catalog, key)
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
    entry.epoch += 1;
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
    entry.epoch += 1;
    trace::add("serve.compile", 1);
    Ok(resp)
}

/// The memo key of a `run`/`explain` source: a compiled `name`, or inline
/// `program` text with an optional `scheme`.
fn source_key(
    name: Option<String>,
    program: Option<String>,
    scheme: Option<String>,
    executor: ExecutorKind,
) -> PlanKey {
    let source = match name {
        Some(name) => Source::Compiled(name),
        None => Source::Inline {
            program: program.expect("protocol guarantees name xor program"),
            scheme,
        },
    };
    PlanKey::Program { source, executor }
}

/// The plan for `key` in `catalog`: the one `memo` holds at the
/// catalog's current epoch (`serve.plan_hit`), or one made now by `plan` —
/// which returns it with the epoch of the snapshot it read — and memoized
/// (`serve.plan_miss`). A request that fails to plan memoizes nothing.
fn planned<K: Clone + Eq + Hash, V: Clone>(
    shared: &Shared,
    catalog: &str,
    key: K,
    memo: &Mutex<PlanMemo<K, V>>,
    plan: impl FnOnce(&K) -> Result<(V, u64), J>,
) -> Result<V, J> {
    let key = (catalog.to_string(), key);
    let epoch = lock(&shared.catalogs).get(catalog).map(|e| e.epoch);
    if let Some(hit) = epoch.and_then(|epoch| lock(memo).get(&key, epoch)) {
        trace::add("serve.plan_hit", 1);
        return Ok(hit);
    }
    trace::add("serve.plan_miss", 1);
    let (planned, epoch) = plan(&key.1)?;
    let catalogs = lock(&shared.catalogs);
    // A load or compile since the snapshot left this plan stale.
    if catalogs.get(catalog).is_some_and(|e| e.epoch == epoch) {
        lock(memo).insert(key, epoch, planned.clone());
    }
    Ok(planned)
}

/// The engine request for `key`, memoized or planned by [`plan`].
fn planned_engine(shared: &Shared, catalog: &str, key: PlanKey) -> Result<Arc<Prepared>, J> {
    planned(shared, catalog, key, &shared.plans, |key| {
        plan(shared, catalog, key)
    })
}

/// The `cq` plan for `key`, memoized or compiled by [`plan_cq`].
fn planned_cq(shared: &Shared, catalog: &str, key: CqKey) -> Result<Arc<CqPlan>, J> {
    planned(shared, catalog, key, &shared.cq_plans, |key| {
        plan_cq(shared, catalog, key).map(|(plan, epoch)| (Arc::new(plan), epoch))
    })
}

/// The engine's memo-miss path, the one place a `run`, scheme `query` or
/// `explain` is planned: snapshot what `key` names in the catalog under its
/// lock, then — with the lock dropped — hand it to the engine. Returns the
/// prepared request and the epoch of the snapshot.
fn plan(shared: &Shared, catalog: &str, key: &PlanKey) -> Result<(Arc<Prepared>, u64), J> {
    let (scheme, db, cat, plan, executor, epoch) = match key {
        PlanKey::Program { source, executor } => {
            let (program, scheme, db, cat, epoch) = resolve(shared, catalog, source)?;
            (scheme, db, cat, Plan::Program(program), *executor, epoch)
        }
        PlanKey::Query { strategy, executor } => {
            // The tree search can be exponential (`dp` over every tree) and
            // must not stall every other session's resolve/load/compile.
            let Snapshot {
                relations,
                catalog: cat,
                epoch,
            } = snapshot(shared, catalog)?;
            let db = Database::from_relations(relations.into_iter().map(|(_, rel)| rel).collect());
            let scheme = DbScheme::from_schemas(&db.schemas());
            // Estimation-based tree search: the exact oracle would execute
            // the very subjoins admission is about to gate.
            let plan = Plan::Search {
                strategy: *strategy,
                oracle: Oracle::Estimate,
            };
            (scheme, db, cat, plan, *executor, epoch)
        }
    };
    let prepared =
        engine::prepare(scheme, db, cat, plan, executor).map_err(|e| err("data", e.to_string()))?;
    Ok((Arc::new(prepared), epoch))
}

/// Look up (or inline-parse) the program a `run`/`explain` names and
/// line the entry's loaded relations up with its scheme edges by attribute
/// set; the engine validates the program.
fn resolve(
    shared: &Shared,
    catalog_name: &str,
    source: &Source,
) -> Result<(Program, DbScheme, Database, Catalog, u64), J> {
    let mut catalogs = lock(&shared.catalogs);
    let entry = catalogs
        .get_mut(catalog_name)
        .ok_or_else(|| err("not_found", format!("no catalog `{catalog_name}`")))?;
    let (program, scheme) = match source {
        Source::Compiled(name) => {
            let c = entry
                .programs
                .get(name)
                .ok_or_else(|| err("not_found", format!("no compiled program `{name}`")))?;
            (c.program.clone(), c.scheme.clone())
        }
        Source::Inline { program, scheme } => {
            parse_program_in(&mut entry.catalog, scheme.as_deref(), program)?
        }
    };
    // Order-independent; the catalog may hold more relations than this
    // program's scheme names.
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
    Ok((program, scheme, db, entry.catalog.clone(), entry.epoch))
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
        tsv::answer_to_tsv_writer(prepared.catalog(), &out.result, &mut buf)
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
    let counters = shared.counters();
    let counter = |name| J::u64(counters.get(name).copied().unwrap_or(0));
    J::obj()
        .set("hit", counter("index_cache.hit"))
        .set("miss", counter("index_cache.miss"))
        .set("entries", J::u64(entries as u64))
        .set("resident_tuples", J::u64(tuples))
        .set("resident_bytes", J::u64(bytes))
}

fn handle_run(shared: &Shared, catalog: &str, key: PlanKey, exec: Exec<'_>) -> Reply {
    let prepared = planned_engine(shared, catalog, key)?;
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

/// A catalog entry's loaded relations (cheap shared clones), its interner
/// and its epoch, copied under the lock so nothing is planned under it.
struct Snapshot {
    relations: Vec<(String, Relation)>,
    catalog: Catalog,
    epoch: u64,
}

fn snapshot(shared: &Shared, catalog: &str) -> Result<Snapshot, J> {
    let catalogs = lock(&shared.catalogs);
    let entry = catalogs
        .get(catalog)
        .ok_or_else(|| err("not_found", format!("no catalog `{catalog}`")))?;
    if entry.relations.is_empty() {
        return Err(err("data", "catalog has no loaded relations"));
    }
    Ok(Snapshot {
        relations: entry.relations.clone(),
        catalog: entry.catalog.clone(),
        epoch: entry.epoch,
    })
}

fn handle_query(shared: &Shared, catalog: &str, key: PlanKey, exec: Exec<'_>) -> Reply {
    let prepared = planned_engine(shared, catalog, key)?;
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
/// relations, not copied. Returns the epoch of the snapshot too.
fn named_db_snapshot(shared: &Shared, catalog: &str) -> Result<(NamedDatabase, u64), J> {
    let snap = snapshot(shared, catalog)?;
    let mut ndb = NamedDatabase::new();
    for (name, rel) in &snap.relations {
        let cols: Vec<&str> = (rel.schema().attrs().iter())
            .map(|&a| snap.catalog.name(a))
            .collect();
        ndb.add_shared(name, &cols, rel)
            .map_err(|e| err("data", format!("relation `{name}`: {e}")))?;
    }
    Ok((ndb, snap.epoch))
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

/// Compile a `cq` query against the catalog's relations: its core unless
/// `minimize` is false, admitted on the AGM bound of the body that will
/// actually run — so a query rejected verbatim can be admitted once its
/// redundant atoms fold away — and, admitted, bound and planned. Returns
/// the epoch of the snapshot too.
fn plan_cq(shared: &Shared, catalog: &str, key: &CqKey) -> Result<(CqPlan, u64), J> {
    let &CqKey {
        ref text,
        minimize,
        strategy,
        executor,
    } = key;
    let query = parse_query(text).map_err(|e| err("protocol", format!("bad cq: {e}")))?;
    let (ndb, epoch) = named_db_snapshot(shared, catalog)?;
    let opts = CqExecOptions {
        executor,
        threads: shared.cfg.threads,
        cache: None,
        minimize,
        mem_budget: shared.cfg.mem_budget,
    };
    let compiled = compile_query(&ndb, &query, minimize);
    let body = compiled.query().clone();
    let summary = compiled.minimize().cloned();
    let agm_bound = compiled.agm_bound();
    // Admitted before a tuple moves; binding and planning come after.
    let prepared = match compiled.admit(shared.cfg.max_cost) {
        Err(r) => Err(CqRefusal::Admission(r)),
        Ok(admitted) => admitted
            .prepare(strategy, &opts)
            .map_err(|e| CqRefusal::Data(e.to_string())),
    };
    let plan = CqPlan {
        query,
        body,
        minimize: summary,
        agm_bound,
        prepared,
    };
    Ok((plan, epoch))
}

/// `query` with a `cq` payload: run one conjunctive query over the loaded
/// relations, compiled by [`plan_cq`] or memoized. Like every execution
/// verb it waits on the capacity gate — charged the compiled body's AGM
/// bound — honours `deadline_ms`, and lands in the session ledger.
fn handle_cq_query(shared: &Shared, catalog: &str, key: CqKey, exec: Exec<'_>) -> Reply {
    let plan = planned_cq(shared, catalog, key)?;
    let prepared = match &plan.prepared {
        Ok(prepared) => prepared,
        Err(CqRefusal::Admission(r)) => return Err(rejection(r.clone())),
        Err(CqRefusal::Data(message)) => return Err(err("data", message.clone())),
    };
    let (_permit, cancel) = gate(shared, plan.agm_bound, exec.deadline_ms)?;
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
        .set("cq", J::Str(plan.query.to_string()))
        .set("minimize", minimize_summary_json(res.minimize.as_ref()))
        .set("components", J::Arr(components))
        .set("rows", J::u64(res.len() as u64))
        .set("cost", J::u64(res.ledger.total()));
    if exec.want_tsv {
        let mut buf = Vec::new();
        res.write_tsv(&plan.query.head_vars, &mut buf)
            .expect("writing to memory");
        let text = String::from_utf8(buf).expect("TSV output is UTF-8");
        resp = resp.set("tsv", J::Str(text));
    }
    Ok(resp)
}

/// `explain` with a `cq` payload: the minimization report (core, dropped
/// atoms, pre/post AGM bounds) plus the query lints — no execution. The
/// core is the one `query` would compile ([`plan_cq`]).
fn handle_cq_explain(shared: &Shared, catalog: &str, key: CqKey) -> Reply {
    let plan = planned_cq(shared, catalog, key)?;
    trace::add("serve.explain", 1);
    let report = mjoin_cq::lint_query(&plan.query);
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
    let report = plan.minimize.as_ref().map(|m| {
        let core = J::Str(plan.body.to_string());
        minimize_summary_json(Some(m)).set("core", core)
    });
    // The query as written: minimization's pre-fold bound, or the compiled
    // body's when nothing was folded.
    let written = plan
        .minimize
        .as_ref()
        .map_or(plan.agm_bound, |m| m.agm_before);
    let (bound, max_cost) = (plan.agm_bound, shared.cfg.max_cost);
    Ok(ok("explain")
        .set("catalog", J::str(catalog))
        .set("cq", J::Str(plan.query.to_string()))
        .set("lints", J::Arr(lints))
        .set("agm_bound", J::u64(written))
        .set_opt("minimize", report)
        .set_opt("budget", max_cost.map(J::u64))
        .set_opt("admitted", max_cost.map(|b| J::Bool(bound <= b))))
}

fn handle_explain(shared: &Shared, catalog: &str, key: PlanKey) -> Reply {
    let prepared = planned_engine(shared, catalog, key)?;
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
                .set("symbolic", J::Str(analysis.symbolic(b.stmt)))
                .set("tight", J::Bool(b.tight))
                .set_opt("excerpt", analysis.cx().excerpt(b.stmt).map(J::Str))
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
    let counters = shared
        .counters()
        .into_iter()
        .fold(J::obj(), |o, (name, v)| o.set(name, J::u64(v)));
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

    fn cmd(name: &str) -> J {
        J::obj()
            .set("cmd", J::str(name))
            .set("catalog", J::str("c"))
    }

    /// The memo's bound is the server's: plans of catalogs that are never
    /// asked again age out, the most recently used stay, and a catalog's
    /// new epoch drops only that catalog's older plans.
    #[test]
    fn the_plan_memo_is_bounded_over_all_catalogs() {
        let mut memo = PlanMemo::<u8, usize>::default();
        let key = |catalog: &str| (catalog.to_string(), 0);
        memo.insert(key("warm"), 0, 0);
        for i in 0..4 * PLAN_MEMO_ENTRIES {
            assert_eq!(memo.get(&key("warm"), 0), Some(0), "the warm plan stays");
            memo.insert(key(&format!("fresh{i}")), 0, i);
        }
        assert_eq!(memo.entries.len(), PLAN_MEMO_ENTRIES);
        assert_eq!(memo.get(&key("fresh0"), 0), None, "an old one-off went");
        let last = format!("fresh{}", 4 * PLAN_MEMO_ENTRIES - 1);
        assert_eq!(memo.get(&key(&last), 0), Some(4 * PLAN_MEMO_ENTRIES - 1));

        memo.insert((last.clone(), 1), 1, 7);
        assert_eq!(memo.get(&key(&last), 0), None, "an earlier epoch went");
        assert_eq!(memo.get(&key("warm"), 0), Some(0), "other catalogs stay");
    }

    fn load(name: &str, tsv: &str) -> J {
        cmd("load")
            .set("name", J::str(name))
            .set("tsv", J::str(tsv))
    }

    /// Two relations and a compiled two-statement program over them.
    fn setup_requests() -> [J; 3] {
        [
            load("r", "A\tB\n1\t2\n2\t3\n"),
            load("s", "B\tC\n2\t5\n3\t6\n"),
            cmd("compile")
                .set("name", J::str("p"))
                .set(
                    "program",
                    J::str("R(V) := R(AB) ⋈ R(BC)\nR(V) := R(V) ⋉ R(AB)"),
                )
                .set("scheme", J::str("AB,BC")),
        ]
    }

    /// The server keeps counters, not events: each request's counters are
    /// folded into the totals, nothing reaches the process-wide sink even
    /// while another part of the process has it switched on, and `stats`
    /// reports the sum of what the requests recorded.
    #[test]
    fn requests_leave_no_events_in_the_sink_and_stats_sums_their_counters() {
        trace::set_enabled(true);
        let server = Server::bind(ServeConfig::default()).unwrap();
        let shared = &server.shared;
        let requests = setup_requests().into_iter().chain([
            cmd("run").set("name", J::str("p")),
            cmd("run").set("name", J::str("p")),
            cmd("query").set("cq", J::str("Q(x, z) :- r(x, y), s(y, z)")),
            cmd("stats"),
        ]);
        let mut ledger = SessionLedger::default();
        let mut recorded: BTreeMap<&'static str, u64> = BTreeMap::new();
        for request in requests {
            let before = lock(&shared.totals).clone();
            let resp = dispatch(shared, &request.render(), &mut ledger);
            assert_eq!(resp.get("ok"), Some(&J::Bool(true)), "{}", resp.render());
            let sink = trace::take();
            assert!(
                sink.events.is_empty() && sink.counters.is_empty(),
                "the request reached the process-wide sink: {}: {sink:?}",
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

    /// A request without `"trace": true` records no span: not in its
    /// collector, not in the process-wide sink (switched on here, as the
    /// server used to), whatever the verb. The same run with the field
    /// returns its spans and still leaves the sink alone.
    #[test]
    fn a_request_without_the_trace_field_records_zero_span_events_anywhere() {
        trace::set_enabled(true);
        let server = Server::bind(ServeConfig::default()).unwrap();
        let shared = &server.shared;
        let requests = setup_requests().into_iter().chain([
            cmd("run").set("name", J::str("p")),
            cmd("run")
                .set("name", J::str("p"))
                .set("tsv", J::Bool(false)),
            cmd("run")
                .set("name", J::str("p"))
                .set("trace", J::Bool(false)),
            cmd("query"),
            cmd("query").set("cq", J::str("Q(x, z) :- r(x, y), s(y, z)")),
            cmd("explain").set("name", J::str("p")),
            cmd("stats"),
        ]);
        let mut ledger = SessionLedger::default();
        for request in requests {
            let (resp, collected) = serve_line(shared, &request.render(), &mut ledger);
            assert_eq!(resp.get("ok"), Some(&J::Bool(true)), "{}", resp.render());
            assert!(resp.get("trace").is_none(), "{}", resp.render());
            assert!(
                collected.events.is_empty(),
                "{}: {:?}",
                request.render(),
                collected.events
            );
        }
        let traced = cmd("run")
            .set("name", J::str("p"))
            .set("trace", J::Bool(true));
        let (resp, collected) = serve_line(shared, &traced.render(), &mut ledger);
        let sink = trace::take();
        trace::set_enabled(false);
        assert!(sink.events.is_empty(), "{:?}", sink.events);
        let stmts = collected
            .events
            .iter()
            .filter(|e| e.cat == "exec" && e.name == "stmt");
        assert_eq!(stmts.count(), 2);
        let summary = resp.get("trace").expect("a traced run returns its spans");
        assert_eq!(summary, &collected.summary_json());
    }

    /// One byte over the cap without a newline is answered `protocol` and
    /// hung up on; a line of exactly the cap is served, and the next
    /// connection finds the server unharmed.
    #[test]
    fn an_over_long_request_line_is_refused_and_only_that_connection_closed() {
        const CAP: usize = 64;
        let server = Server::bind(ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        server.listener.set_nonblocking(false).unwrap();
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
    }
}
