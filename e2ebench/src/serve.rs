//! Server operations: one request line → one response line against a child
//! `mjoin_cli serve --threads 1`.
//!
//! The load is a closed loop — each connection sends its next request only
//! after the previous reply, because each caller of the server waits for its
//! answer — from [`CONNECTIONS`] connections held by one harness process.

use crate::check::{tsv_answer, Expected};
use crate::oneshot::OP_TIMEOUT;
use crate::workloads::{churn_op, ChurnOp, Planned, Rng, ServePlan, Verb};
use mjoin::serve::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Connections the timed loop holds: one per core of the sandbox.
pub const CONNECTIONS: usize = 2;

/// Warm-up `run`s a set-up sends before the clock starts.
pub const WARMUP_RUNS: usize = 5;

/// A child `mjoin_cli serve`; shut down (or killed) on drop.
pub struct ServerChild {
    child: Child,
    pub addr: String,
}

impl ServerChild {
    pub fn start(cli: &Path, tmp: &Path) -> Result<ServerChild, String> {
        let mut child = Command::new(cli)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .env("TMPDIR", tmp)
            .env_remove("MJOIN_TRACE")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        // The server prints its bound address first, then nothing else.
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading server address: {e}"))?;
        let Some(addr) = line.trim().strip_prefix("serve: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "server did not announce an address: `{}`",
                line.trim()
            ));
        };
        Ok(ServerChild {
            child,
            addr: addr.to_string(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A `/proc/<pid>/status` field of the server in MB (`VmHWM`, `VmRSS`).
    pub fn status_mb(&self, field: &str) -> f64 {
        proc_status_mb(&format!("/proc/{}/status", self.pid()), field)
    }

    /// Ask the server to drain and wait for it to exit.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.request("{\"cmd\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills what did not drain.
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `field` of a `/proc/.../status` file, converted from kB to MB.
pub fn proc_status_mb(path: &str, field: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One client connection with the per-operation timeout on its socket.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(OP_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    /// Send one request line, return the raw response line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(resp),
            Err(e) => Err(format!("receive (30 s timeout): {e}")),
        }
    }
}

/// Check a response against what the generator planted: `"ok":true`, the
/// row count, and — when the request asked for the TSV — its checksum.
pub fn check_response(resp: &str, want: &Planned) -> Result<(), String> {
    let v = Value::parse(resp.trim_end()).map_err(|e| format!("bad response JSON: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("server said {}", resp.trim_end()));
    }
    if want.verb == Verb::Compile {
        return Ok(());
    }
    let rows = v.get("rows").and_then(Value::as_u64);
    if rows != Some(want.rows) {
        return Err(format!("rows {rows:?} != expected {}", want.rows));
    }
    if let Some(checksum) = want.checksum {
        let tsv = v
            .get("tsv")
            .and_then(Value::as_str)
            .ok_or("no tsv in response")?;
        let got = tsv_answer(tsv.as_bytes())?;
        let want = Expected {
            rows: want.rows,
            checksum,
        };
        if got != want {
            return Err(format!("answer {got:?} != expected {want:?}"));
        }
    }
    Ok(())
}

/// Send one planned request; returns its latency and verdict.
pub fn send(conn: &mut Conn, req: &Planned) -> (f64, Result<(), String>) {
    let t0 = Instant::now();
    let resp = conn.request(&req.line);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, resp.and_then(|r| check_response(&r, req)))
}

/// Load the resident state, compile, validate the reducer's answer cell by
/// cell, and warm up. What `setup_s` times for a server workload (together
/// with data generation and server start).
pub fn prepare(conn: &mut Conn, plan: &ServePlan) -> Result<(), String> {
    for req in plan.setup.iter().chain([&plan.validate]) {
        send(conn, req)
            .1
            .map_err(|e| format!("set-up {:?}: {e}", req.verb))?;
    }
    for _ in 0..WARMUP_RUNS {
        send(conn, &plan.warm_run)
            .1
            .map_err(|e| format!("warm-up run: {e}"))?;
    }
    if let Some(cq) = &plan.cq {
        send(conn, cq)
            .1
            .map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok(())
}

/// Per-request latencies by verb plus per-operation outcomes, as one
/// connection's share of a timed loop.
#[derive(Default)]
pub struct LoopLog {
    pub op_ms: Vec<f64>,
    pub failures: Vec<String>,
    pub by_verb: [Vec<f64>; 4],
    /// Server `VmHWM` sampled by whichever connection completes the
    /// marked operation (see [`RssMark`]; 0.0 if the loop ended first).
    pub rss_mb_at_mark: f64,
}

impl LoopLog {
    pub fn verb_ms(&self, v: Verb) -> &[f64] {
        &self.by_verb[v as usize]
    }

    pub fn merge(&mut self, other: LoopLog) {
        self.op_ms.extend(other.op_ms);
        self.failures.extend(other.failures);
        for (mine, theirs) in self.by_verb.iter_mut().zip(other.by_verb) {
            mine.extend(theirs);
        }
        self.rss_mb_at_mark = self.rss_mb_at_mark.max(other.rss_mb_at_mark);
    }
}

/// What bounds a loop: the clock or an operation count per connection.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Ops(usize),
}

/// Where in a loop the server's memory is read: when the `at`-th operation
/// across all connections completes — a fixed amount of work, so a faster
/// engine does not read as a bigger one.
pub struct RssMark<'a> {
    done: &'a AtomicU64,
    at: u64,
    /// The server's `/proc/<pid>/status`.
    status: &'a str,
}

/// One connection's closed loop. `conn_id` picks the RNG stream and, with
/// `tag`, the fresh-catalog namespace.
pub fn client_loop(
    addr: &str,
    plan: &ServePlan,
    seed: u64,
    conn_id: usize,
    tag: &str,
    until: Until,
    mark: &RssMark<'_>,
) -> LoopLog {
    let mut log = LoopLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(e);
            log.op_ms.push(0.0);
            return log;
        }
    };
    let mut rng = Rng::new(seed, 100 + conn_id as u64);
    let mut fresh_seq = 0usize;
    loop {
        match until {
            Until::Deadline(d) if Instant::now() >= d => break,
            Until::Ops(n) if log.op_ms.len() >= n => break,
            _ => {}
        }
        let kind = if plan.has_churn() {
            churn_op(&mut rng)
        } else {
            ChurnOp::WarmRun
        };
        let fresh;
        let reqs: Vec<&Planned> = match kind {
            ChurnOp::WarmRun => vec![&plan.warm_run],
            ChurnOp::CqQuery => vec![plan.cq.as_ref().expect("churn plan")],
            ChurnOp::FreshCatalog => {
                fresh_seq += 1;
                let catalog = format!("fresh_{tag}_{conn_id}_{fresh_seq}");
                fresh = plan.fresh_requests(rng.below(usize::MAX), &catalog);
                fresh.iter().collect()
            }
        };
        let mut op_ms = 0.0;
        let mut verdict = Ok(());
        for req in reqs {
            let (ms, v) = send(&mut conn, req);
            op_ms += ms;
            log.by_verb[req.verb as usize].push(ms);
            if v.is_err() {
                verdict = v.map_err(|e| format!("{kind:?}/{:?}: {e}", req.verb));
                break;
            }
        }
        log.op_ms.push(op_ms);
        if let Err(e) = verdict {
            log.failures.push(e);
            // A broken connection fails every later request the same way;
            // stop instead of spinning on it until the deadline.
            if log.failures.len() >= 5 {
                break;
            }
        }
        if mark.done.fetch_add(1, Ordering::Relaxed) + 1 == mark.at {
            log.rss_mb_at_mark = proc_status_mb(mark.status, "VmHWM");
        }
    }
    log
}

/// Run the timed loop on [`CONNECTIONS`] connections and merge their logs.
pub fn timed_loop(
    server: &ServerChild,
    plan: &ServePlan,
    seed: u64,
    tag: &str,
    until: Until,
    rss_at: u64,
) -> (LoopLog, f64) {
    let status = format!("/proc/{}/status", server.pid());
    let mark = RssMark {
        done: &AtomicU64::new(0),
        at: rss_at,
        status: &status,
    };
    let t0 = Instant::now();
    let mut merged = LoopLog::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (mark, addr) = (&mark, &server.addr);
                s.spawn(move || client_loop(addr, plan, seed, c, tag, until, mark))
            })
            .collect();
        for h in handles {
            merged.merge(h.join().expect("client thread"));
        }
    });
    (merged, t0.elapsed().as_secs_f64())
}

/// The server's `stats` response.
pub fn stats(server: &ServerChild) -> Result<Value, String> {
    let mut c = Conn::open(&server.addr)?;
    let resp = c.request("{\"cmd\":\"stats\"}")?;
    Value::parse(resp.trim_end())
}

/// A cumulative counter out of a `stats` response (0 when never bumped).
pub fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}
