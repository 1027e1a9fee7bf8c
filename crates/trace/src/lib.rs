//! `mjoin-trace` — cheap, thread-safe execution tracing for the whole
//! workspace.
//!
//! Like the in-tree `fxhash`, this crate is `std`-only and depends on
//! nothing else in the workspace, so every layer — relational operators,
//! the program executor, the optimizers — can record into it without
//! dependency cycles. For the same reason it holds the workspace's one
//! JSON value type ([`json::Value`]), which the trace export, the
//! analyzer's reports and the server's wire protocol all render through.
//!
//! What is recorded:
//!
//! * **Spans** ([`span`]) are timed regions with a static category/name and
//!   a handful of key→value args (operator strategy, cardinalities, …),
//!   recorded when they drop.
//! * **Counters** ([`add`]) are named monotonic totals for things too
//!   frequent or too small to span (oracle calls, index-cache hits, …).
//!
//! Where it goes — the thread's **collector** if one is installed, the
//! process-wide sink otherwise:
//!
//! * A [`Collector`] is one request's sink. [`Collector::run`] installs it
//!   on the current thread for the length of a closure; it always keeps
//!   counters and keeps spans only when it was made with `spans: true`.
//!   Nothing is locked: it is the thread's own, and `relation::par_map`
//!   hands a [`Collector::fork`] to every scoped thread it spawns and
//!   [`merge`]s it back when the thread joins. The server runs every
//!   request under one, so concurrent requests never see each other's
//!   spans and a request that asks for none records none.
//! * The process-wide sink serves a thread with no collector — the CLI,
//!   the tests, the benchmark's replay. It records only while tracing is
//!   on: explicitly ([`set_enabled`], used by `mjoin_cli
//!   --explain-analyze`) or when the `MJOIN_TRACE` environment variable is
//!   set to a non-empty value (the conventional value is the path the
//!   Chrome-trace JSON should be written to; this crate only reads the
//!   variable's presence — writing the file is the caller's job via
//!   [`Trace::to_chrome_json`]). [`take`] drains it into a [`Trace`].
//!
//! Everything is gated on one relaxed atomic load: while tracing is off and
//! no collector is installed anywhere — the default — a span is a `None`
//! and costs a branch, no clock read, no allocation, no lock. A [`Trace`]
//! holds the raw [`Event`]s plus the counter totals, with helpers to
//! aggregate ([`Trace::aggregate`]) and export ([`Trace::to_chrome_json`],
//! [`Trace::summary_json`]).

#![warn(missing_docs)]

pub mod json;

use json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// The state word.

/// The process-wide switch in the low two bits (`UNREAD`, `OFF`, `ON`) and
/// the number of installed collectors, in units of `ONE_COLLECTOR`, above
/// them — so "off, and no collector anywhere" is the one value `OFF`.
static STATE: AtomicUsize = AtomicUsize::new(UNREAD);

const MODE: usize = 0b11;
/// The switch before `MJOIN_TRACE` has been read.
const UNREAD: usize = 0;
const OFF: usize = 1;
const ON: usize = 2;
const ONE_COLLECTOR: usize = 4;

/// Whether a span opened on this thread now would record. One relaxed
/// atomic load on the fast path: with a collector installed on this thread
/// it is whether that collector keeps spans, otherwise whether the
/// process-wide switch is on (the first call consults `MJOIN_TRACE`).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        OFF => false,
        ON => true,
        state => enabled_slow(state),
    }
}

/// [`enabled`] past its fast path, out of line so every span site stays
/// small.
#[inline(never)]
fn enabled_slow(state: usize) -> bool {
    if state >= ONE_COLLECTOR {
        if let Some(spans) = with_collector(|c| c.spans) {
            return spans;
        }
    }
    switch_on(state)
}

/// Whether the process-wide switch is on, given a load of [`STATE`].
#[inline]
fn switch_on(state: usize) -> bool {
    match state & MODE {
        UNREAD => init_from_env(),
        mode => mode == ON,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var_os("MJOIN_TRACE").is_some_and(|v| !v.is_empty());
    // Keep an explicit set_enabled() that raced us; only claim the unread
    // switch.
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        (s & MODE == UNREAD).then_some(s | if on { ON } else { OFF })
    });
    STATE.load(Ordering::Relaxed) & MODE == ON
}

/// Turn the process-wide sink on or off explicitly (overrides the
/// environment). Threads running under a [`Collector`] are not affected.
pub fn set_enabled(on: bool) {
    let mode = if on { ON } else { OFF };
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        Some(s & !MODE | mode)
    });
}

// ---------------------------------------------------------------------------
// Clock and thread identity.

/// Process-wide trace epoch; all timestamps are microseconds since it.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Small dense thread ids (Chrome's UI sorts them numerically).
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Events and args.

/// A span argument value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An integer (cardinalities, indices, microseconds).
    Int(i64),
    /// A short string (strategy names and the like).
    Str(String),
}

impl ArgValue {
    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ArgValue::Int(v) => Some(*v),
            ArgValue::Str(_) => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ArgValue::Int(_) => None,
            ArgValue::Str(s) => Some(s),
        }
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct Event {
    /// Category (`"op"`, `"exec"`, `"plan"`, …).
    pub cat: &'static str,
    /// Name within the category (`"join"`, `"stmt"`, …).
    pub name: &'static str,
    /// Start, µs since the trace epoch.
    pub ts_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Recording thread (small dense id).
    pub tid: u64,
    /// Key→value details.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Integer argument by key.
    pub fn int_arg(&self, key: &str) -> Option<i64> {
        self.arg(key).and_then(ArgValue::as_int)
    }

    /// String argument by key.
    pub fn str_arg(&self, key: &str) -> Option<&str> {
        self.arg(key).and_then(ArgValue::as_str)
    }
}

// ---------------------------------------------------------------------------
// The process-wide sink.

static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Add `delta` to the named counter: in this thread's collector, or in the
/// process-wide sink while it is on. No-op otherwise.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    let state = STATE.load(Ordering::Relaxed);
    if state != OFF {
        add_slow(state, name, delta);
    }
}

/// [`add`] past its fast path, out of line so every counter site stays
/// small.
#[inline(never)]
fn add_slow(state: usize, name: &'static str, delta: u64) {
    if state >= ONE_COLLECTOR
        && with_collector(|c| *c.counters.entry(name).or_insert(0) += delta).is_some()
    {
        return;
    }
    if switch_on(state) {
        let mut c = COUNTERS.lock().expect("trace counters poisoned");
        *c.entry(name).or_insert(0) += delta;
    }
}

// ---------------------------------------------------------------------------
// Collectors.

/// One request's trace sink: its counters always, its spans only when made
/// with `spans: true`. See the crate docs for how it is installed and how
/// it follows `par_map` onto scoped threads.
#[derive(Debug, Default)]
pub struct Collector {
    spans: bool,
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Apply `f` to the collector installed on this thread, if any.
fn with_collector<T>(f: impl FnOnce(&mut Collector) -> T) -> Option<T> {
    CURRENT
        .try_with(|cur| cur.borrow_mut().as_mut().map(f))
        .ok()
        .flatten()
}

/// Swap `next` in as this thread's collector; returns the one it displaces.
fn swap_current(next: Option<Collector>) -> Option<Collector> {
    CURRENT.with(|cur| cur.replace(next))
}

/// The collector [`Collector::run`] displaced, put back on drop — so also
/// when the closure panics.
struct Displaced(Option<Collector>);

impl Drop for Displaced {
    fn drop(&mut self) {
        swap_current(self.0.take());
        STATE.fetch_sub(ONE_COLLECTOR, Ordering::Relaxed);
    }
}

impl Collector {
    /// An empty collector that keeps counters, and spans iff `spans`.
    pub fn new(spans: bool) -> Collector {
        Collector {
            spans,
            ..Collector::default()
        }
    }

    /// Run `f` with this collector installed on the current thread — every
    /// span and counter `f` records on it lands here, none in the
    /// process-wide sink — and return `f`'s result with the collector.
    /// Whatever was installed before is restored afterwards, also when `f`
    /// panics.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> (R, Collector) {
        STATE.fetch_add(ONE_COLLECTOR, Ordering::Relaxed);
        let displaced = Displaced(swap_current(Some(self)));
        let out = f();
        let mine = swap_current(None).expect("the collector stays installed");
        drop(displaced);
        (out, mine)
    }

    /// An empty collector with the settings of the one installed on this
    /// thread, for a thread it spawns to [`run`](Collector::run) under and
    /// [`merge`] back; `None` when this thread has no collector.
    pub fn fork() -> Option<Collector> {
        if STATE.load(Ordering::Relaxed) < ONE_COLLECTOR {
            return None;
        }
        with_collector(|c| Collector::new(c.spans))
    }

    /// Everything collected, as a [`Trace`].
    pub fn into_trace(self) -> Trace {
        Trace {
            events: self.events,
            counters: self.counters.into_iter().collect(),
        }
    }
}

/// Merge `part` — a [`Collector::fork`] of this thread's collector that
/// ran on a thread it spawned — back into this thread's collector.
pub fn merge(part: Collector) {
    with_collector(|c| {
        c.events.extend(part.events);
        for (name, delta) in part.counters {
            *c.counters.entry(name).or_insert(0) += delta;
        }
    });
}

/// The counters this thread's collector has recorded so far, sorted by
/// name (empty with no collector). Nothing is drained.
pub fn collected_counters() -> Vec<(&'static str, u64)> {
    with_collector(|c| c.counters.iter().map(|(&n, &v)| (n, v)).collect()).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Spans.

/// An in-flight timed region; records an [`Event`] when dropped, into the
/// thread's collector or the process-wide sink. Inactive (and free) when
/// [`enabled`] is false.
#[must_use = "a span measures the region it is alive for"]
pub struct Span(Option<SpanInner>);

struct SpanInner {
    cat: &'static str,
    name: &'static str,
    start: Instant,
    args: Vec<(&'static str, ArgValue)>,
}

/// Open a span. When [`enabled`] is false this returns an inactive span:
/// no clock read, no allocation.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    // Touch the epoch before taking the start time so the first span's
    // timestamp is not negative.
    epoch();
    Span(Some(SpanInner {
        cat,
        name,
        start: Instant::now(),
        args: Vec::new(),
    }))
}

impl Span {
    /// Whether the span is recording (lets callers skip building costly
    /// arg values when tracing is off).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Attach a key→value detail. No-op on an inactive span.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(inner) = &mut self.0 {
            inner.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let ts_us = inner
                .start
                .saturating_duration_since(epoch())
                .as_micros()
                .min(u64::MAX as u128) as u64;
            let dur_us = inner.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            let mut event = Some(Event {
                cat: inner.cat,
                name: inner.name,
                ts_us,
                dur_us,
                tid: thread_id(),
                args: inner.args,
            });
            // Into this thread's collector (if it keeps spans), or else
            // into the process-wide sink.
            with_collector(|c| {
                let event = event.take().expect("recorded once");
                if c.spans {
                    c.events.push(event);
                }
            });
            if let Some(event) = event {
                EVENTS.lock().expect("trace sink poisoned").push(event);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Draining and export.

/// A drained sink: raw events plus counter totals.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Completed spans, in completion order.
    pub events: Vec<Event>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
}

/// Drain the process-wide sink: returns all events and counters recorded
/// into it so far and resets both. Collectors are not touched.
pub fn take() -> Trace {
    let events = std::mem::take(&mut *EVENTS.lock().expect("trace sink poisoned"));
    let counters = std::mem::take(&mut *COUNTERS.lock().expect("trace counters poisoned"))
        .into_iter()
        .collect();
    Trace { events, counters }
}

/// Discard everything recorded into the process-wide sink so far.
pub fn clear() {
    let _ = take();
}

/// One row of [`Trace::aggregate`]: spans grouped by category, name, and
/// (when present) their `strategy` arg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggRow {
    /// `cat/name` or `cat/name[strategy]`.
    pub key: String,
    /// Number of spans in the group.
    pub count: u64,
    /// Total duration, µs.
    pub total_us: u64,
    /// Longest single span, µs.
    pub max_us: u64,
}

impl Trace {
    /// Counter value by name, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Group spans by `cat/name` (plus the `strategy` arg when present) and
    /// total their durations. Rows come back sorted by total time,
    /// descending.
    pub fn aggregate(&self) -> Vec<AggRow> {
        let mut groups: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for e in &self.events {
            let key = match e.str_arg("strategy") {
                Some(s) => format!("{}/{}[{}]", e.cat, e.name, s),
                None => format!("{}/{}", e.cat, e.name),
            };
            let g = groups.entry(key).or_insert((0, 0, 0));
            g.0 += 1;
            g.1 += e.dur_us;
            g.2 = g.2.max(e.dur_us);
        }
        let mut rows: Vec<AggRow> = groups
            .into_iter()
            .map(|(key, (count, total_us, max_us))| AggRow {
                key,
                count,
                total_us,
                max_us,
            })
            .collect();
        rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then_with(|| a.key.cmp(&b.key)));
        rows
    }

    /// Render the trace as Chrome trace format JSON (the `chrome://tracing`
    /// / Perfetto "JSON Array with metadata" flavor): spans become complete
    /// (`"ph": "X"`) events, counters become one final counter event each.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |event: Value| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            event.render_into(&mut out);
        };
        for e in &self.events {
            let mut event = Value::obj()
                .set("name", Value::str(e.name))
                .set("cat", Value::str(e.cat))
                .set("ph", Value::str("X"))
                .set("ts", Value::u64(e.ts_us))
                .set("dur", Value::u64(e.dur_us))
                .set("pid", Value::Int(1))
                .set("tid", Value::u64(e.tid));
            if !e.args.is_empty() {
                let args = e.args.iter().map(|(k, v)| {
                    let v = match v {
                        ArgValue::Int(n) => Value::Int(i128::from(*n)),
                        ArgValue::Str(s) => Value::str(s.as_str()),
                    };
                    ((*k).to_string(), v)
                });
                event = event.set("args", Value::Obj(args.collect()));
            }
            push(event);
        }
        let end_ts = self
            .events
            .iter()
            .map(|e| e.ts_us + e.dur_us)
            .max()
            .unwrap_or(0);
        for &(name, value) in &self.counters {
            push(
                Value::obj()
                    .set("name", Value::str(name))
                    .set("cat", Value::str("counter"))
                    .set("ph", Value::str("C"))
                    .set("ts", Value::u64(end_ts))
                    .set("pid", Value::Int(1))
                    .set("args", Value::obj().set("value", Value::u64(value))),
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// [`Trace::aggregate`]'s rows and the counters as one JSON object —
    /// what [`Trace::render_summary`] prints, as data:
    /// `{"spans":[{"key","count","total_us","max_us"},…],"counters":{…}}`.
    pub fn summary_json(&self) -> Value {
        let spans = self.aggregate().into_iter().map(|row| {
            Value::obj()
                .set("key", Value::Str(row.key))
                .set("count", Value::u64(row.count))
                .set("total_us", Value::u64(row.total_us))
                .set("max_us", Value::u64(row.max_us))
        });
        let counters = self
            .counters
            .iter()
            .map(|&(name, v)| (name.to_string(), Value::u64(v)));
        Value::obj()
            .set("spans", Value::Arr(spans.collect()))
            .set("counters", Value::Obj(counters.collect()))
    }

    /// A compact human-readable summary: aggregated spans, then counters.
    /// Generic (no knowledge of programs or schedules); `mjoin_cli` builds
    /// its richer `EXPLAIN ANALYZE` report on top of the raw events.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        for row in self.aggregate() {
            let _ = writeln!(
                out,
                "{:<40} {:>6} calls  {:>10.3} ms total  {:>9.3} ms max",
                row.key,
                row.count,
                row.total_us as f64 / 1e3,
                row.max_us as f64 / 1e3,
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name:<40} {value:>6}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink and the enabled flag are process-global, so every test that
    /// toggles them must hold this lock.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = guard();
        set_enabled(false);
        clear();
        {
            let mut sp = span("op", "join");
            assert!(!sp.is_active());
            sp.arg("rows", 5usize);
        }
        add("x", 3);
        let t = take();
        assert!(t.events.is_empty());
        assert!(t.counters.is_empty());
    }

    #[test]
    fn spans_and_counters_round_trip() {
        let _g = guard();
        set_enabled(true);
        clear();
        {
            let mut sp = span("op", "join");
            assert!(sp.is_active());
            sp.arg("strategy", "radix");
            sp.arg("out_rows", 42usize);
        }
        add("optimizer.oracle_calls", 2);
        add("optimizer.oracle_calls", 3);
        let t = take();
        set_enabled(false);
        assert_eq!(t.events.len(), 1);
        let e = &t.events[0];
        assert_eq!((e.cat, e.name), ("op", "join"));
        assert_eq!(e.str_arg("strategy"), Some("radix"));
        assert_eq!(e.int_arg("out_rows"), Some(42));
        assert_eq!(t.counter("optimizer.oracle_calls"), Some(5));
        // Drained: a second take is empty.
        assert!(take().events.is_empty());
    }

    #[test]
    fn aggregate_groups_by_strategy() {
        let _g = guard();
        set_enabled(true);
        clear();
        for strat in ["radix", "radix", "probe"] {
            let mut sp = span("op", "join");
            sp.arg("strategy", strat);
        }
        let _ = span("exec", "stmt");
        let t = take();
        set_enabled(false);
        let rows = t.aggregate();
        let find = |key: &str| rows.iter().find(|r| r.key == key).map(|r| r.count);
        assert_eq!(find("op/join[radix]"), Some(2));
        assert_eq!(find("op/join[probe]"), Some(1));
        assert_eq!(find("exec/stmt"), Some(1));
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let _g = guard();
        set_enabled(true);
        clear();
        {
            let mut sp = span("op", "semijoin");
            sp.arg("strategy", "chunked_probe");
            sp.arg("left_rows", 10usize);
        }
        add("pool.tasks", 7);
        let t = take();
        set_enabled(false);
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"semijoin\""));
        assert!(json.contains("\"strategy\":\"chunked_probe\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"pool.tasks\""));
        let doc = Value::parse(&json).expect("chrome trace parses");
        let events = match doc.get("traceEvents") {
            Some(Value::Arr(events)) => events,
            other => panic!("traceEvents: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("left_rows")),
            Some(&Value::Int(10))
        );
    }

    #[test]
    fn chrome_json_escapes_hostile_names_and_args() {
        let hostile = "q\"b\\s\n\t\u{1}\u{1f}😀";
        let t = Trace {
            events: vec![Event {
                cat: "c\"at",
                name: hostile,
                ts_us: 5,
                dur_us: 7,
                tid: 2,
                args: vec![
                    (hostile, ArgValue::Str(hostile.to_string())),
                    ("n\\", ArgValue::Int(-3)),
                ],
            }],
            counters: vec![(hostile, 9)],
        };
        let json = t.to_chrome_json();
        let doc = Value::parse(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents:\n{json}");
        };
        assert_eq!(events[0].get("name").and_then(Value::as_str), Some(hostile));
        assert_eq!(events[0].get("cat").and_then(Value::as_str), Some("c\"at"));
        let args = events[0].get("args").expect("args");
        assert_eq!(args.get(hostile).and_then(Value::as_str), Some(hostile));
        assert_eq!(args.get("n\\"), Some(&Value::Int(-3)));
        assert_eq!(events[1].get("name").and_then(Value::as_str), Some(hostile));
        assert_eq!(events[1].get("ts"), Some(&Value::Int(12)));
        // One event per line, as before the export rendered through `Value`.
        assert_eq!(json.lines().count(), 4, "{json}");
    }

    #[test]
    fn spans_record_across_threads() {
        let _g = guard();
        set_enabled(true);
        clear();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _ = span("exec", "stmt");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let t = take();
        set_enabled(false);
        assert_eq!(t.events.len(), 4);
    }

    #[test]
    fn a_collector_keeps_its_own_and_leaves_the_global_sink_alone() {
        let _g = guard();
        set_enabled(true);
        clear();
        let ((), traced) = Collector::new(true).run(|| {
            assert!(enabled());
            let mut sp = span("exec", "stmt");
            sp.arg("index", 0usize);
            drop(sp);
            add("index_cache.hit", 2);
            add("index_cache.hit", 1);
        });
        let ((), quiet) = Collector::new(false).run(|| {
            assert!(!enabled());
            assert!(!span("exec", "stmt").is_active());
            add("serve.run", 1);
            assert_eq!(collected_counters(), vec![("serve.run", 1)]);
        });
        let global = take();
        set_enabled(false);
        assert!(global.events.is_empty() && global.counters.is_empty());
        let traced = traced.into_trace();
        assert_eq!(traced.events.len(), 1);
        assert_eq!(traced.events[0].int_arg("index"), Some(0));
        assert_eq!(traced.counters, vec![("index_cache.hit", 3)]);
        let quiet = quiet.into_trace();
        assert!(quiet.events.is_empty());
        assert_eq!(quiet.counters, vec![("serve.run", 1)]);
        assert!(collected_counters().is_empty());
    }

    #[test]
    fn nested_collectors_restore_the_outer_one_even_after_a_panic() {
        let ((), outer) = Collector::new(true).run(|| {
            add("outer", 1);
            let ((), inner) = Collector::new(false).run(|| add("inner", 1));
            assert_eq!(inner.into_trace().counters, vec![("inner", 1)]);
            let unwound = std::panic::catch_unwind(|| {
                Collector::new(false).run(|| {
                    add("lost", 1);
                    panic!("request failed");
                })
            });
            assert!(unwound.is_err());
            assert!(enabled(), "the outer collector is back");
            add("outer", 1);
        });
        assert_eq!(outer.into_trace().counters, vec![("outer", 2)]);
        assert!(Collector::fork().is_none());
    }

    #[test]
    fn forks_merge_back_across_threads() {
        let ((), c) = Collector::new(true).run(|| {
            let forks: Vec<Collector> = (0..3).map(|_| Collector::fork().unwrap()).collect();
            let handles: Vec<_> = forks
                .into_iter()
                .map(|fork| {
                    std::thread::spawn(move || {
                        fork.run(|| {
                            drop(span("op", "join"));
                            add("pool.tasks", 1);
                        })
                        .1
                    })
                })
                .collect();
            for h in handles {
                merge(h.join().unwrap());
            }
        });
        let t = c.into_trace();
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.counter("pool.tasks"), Some(3));
        let summary = t.summary_json();
        let Some(Value::Arr(rows)) = summary.get("spans") else {
            panic!("no spans: {}", summary.render());
        };
        assert_eq!(rows[0].get("key").and_then(Value::as_str), Some("op/join"));
        assert_eq!(rows[0].get("count").and_then(Value::as_u64), Some(3));
        assert_eq!(
            summary.get("counters").and_then(|c| c.get("pool.tasks")),
            Some(&Value::u64(3))
        );
    }
}
