//! Request deadlines, the bounded admission queue, the session ledger and
//! graceful shutdown — for every execution verb, `query` with a `cq`
//! payload included: it runs through the same engine path as `run` and the
//! scheme `query`, so the same bounds are enforced and reported.

use mjoin_serve::{Client, ServeConfig, Server, Value};

fn chain_tsv(a: &str, b: &str, rows: u32) -> String {
    let mut t = format!("{a}\t{b}\n");
    for i in 0..rows {
        t.push_str(&format!("{i}\t{}\n", i + 1));
    }
    t
}

fn load_pair(c: &mut Client, catalog: &str) {
    for (name, tsv) in [
        ("ab", chain_tsv("A", "B", 10)),
        ("bc", chain_tsv("B", "C", 10)),
    ] {
        let resp = c
            .cmd(
                "load",
                &[
                    ("catalog", Value::str(catalog)),
                    ("name", Value::str(name)),
                    ("tsv", Value::str(tsv)),
                ],
            )
            .unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    }
}

fn spawn(
    cfg: ServeConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

#[test]
fn expired_deadline_cancels_at_a_statement_boundary() {
    let (addr, server_thread) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    load_pair(&mut c, "c");
    // A zero deadline is already expired when execution starts: the
    // cooperative check fires before statement 0 — a structured error, not
    // a hung request.
    let resp = c
        .cmd(
            "query",
            &[("catalog", Value::str("c")), ("deadline_ms", Value::u64(0))],
        )
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    let e = resp.get("error").expect("error payload");
    assert_eq!(e.get("kind").and_then(Value::as_str), Some("deadline"));
    assert_eq!(e.get("at_stmt").and_then(Value::as_u64), Some(0));

    // Without a deadline the same query succeeds.
    let resp = c.cmd("query", &[("catalog", Value::str("c"))]).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{}",
        resp.render()
    );

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn zero_depth_queue_reports_queue_full() {
    // A zero-depth queue admits nothing once the gate is active: the
    // degenerate configuration makes the overload path deterministic.
    let (addr, server_thread) = spawn(ServeConfig {
        max_cost: Some(1_000_000),
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).unwrap();
    load_pair(&mut c, "c");
    let resp = c.cmd("query", &[("catalog", Value::str("c"))]).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    let e = resp.get("error").expect("error payload");
    assert_eq!(e.get("kind").and_then(Value::as_str), Some("queue_full"));
    assert_eq!(e.get("queue_depth").and_then(Value::as_u64), Some(0));

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}

/// A two-hop conjunctive query over [`load_pair`]'s chain.
const TWO_HOP: &str = "Q(x, z) :- ab(x, y), bc(y, z)";

fn cq_query(c: &mut Client, extra: &[(&str, Value)]) -> Value {
    let mut fields = vec![("catalog", Value::str("c")), ("cq", Value::str(TWO_HOP))];
    fields.extend_from_slice(extra);
    c.cmd("query", &fields).unwrap()
}

fn error_kind(resp: &Value) -> Option<&str> {
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    resp.get("error")?.get("kind")?.as_str()
}

#[test]
fn cq_query_honours_an_expired_deadline() {
    let (addr, server_thread) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    load_pair(&mut c, "c");
    let resp = cq_query(&mut c, &[("deadline_ms", Value::u64(0))]);
    assert_eq!(error_kind(&resp), Some("deadline"), "{}", resp.render());

    // Without a deadline the same query succeeds.
    let resp = cq_query(&mut c, &[]);
    assert_eq!(resp.get("rows").and_then(Value::as_u64), Some(9));

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}

/// The complete `k × k` relation over columns `a`, `b` as TSV.
fn dense_tsv(a: &str, b: &str, k: u32) -> String {
    let mut t = format!("{a}\t{b}\n");
    for i in 0..k {
        for j in 0..k {
            t.push_str(&format!("{i}\t{j}\n"));
        }
    }
    t
}

/// A deadline that lands *inside* the worst-case-optimal join: the dense
/// triangle has `k³` answers (hundreds of milliseconds of elimination in a
/// release build, far more in debug), the deadline is a small fraction of
/// that, and the loop polls the token at every value of the outermost
/// attribute — so the request answers `deadline` promptly instead of
/// enumerating the join, and the session carries on.
#[test]
fn deadline_stops_a_wcoj_query_inside_the_join() {
    let (addr, server_thread) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    let k = 200;
    for (name, tsv) in [
        ("ab", dense_tsv("A", "B", k)),
        ("bc", dense_tsv("B", "C", k)),
        ("ca", dense_tsv("C", "A", k)),
    ] {
        let fields = [
            ("catalog", Value::str("dense")),
            ("name", Value::str(name)),
            ("tsv", Value::str(tsv)),
        ];
        let resp = c.cmd("load", &fields).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    }
    load_pair(&mut c, "c");

    let deadline_ms = 20;
    let wcoj = |catalog: &'static str| {
        vec![
            ("catalog", Value::str(catalog)),
            ("executor", Value::str("wcoj")),
        ]
    };
    let mut fields = wcoj("dense");
    fields.push(("deadline_ms", Value::u64(deadline_ms)));
    let started = std::time::Instant::now();
    let resp = c.cmd("query", &fields).unwrap();
    let took = started.elapsed();
    assert_eq!(error_kind(&resp), Some("deadline"), "{}", resp.render());
    // Twice the deadline, plus slack for sorting the tries (which runs
    // before the first poll) on a loaded debug build.
    let limit = std::time::Duration::from_millis(2 * deadline_ms + 1000);
    assert!(took < limit, "deadline answered after {took:?}");

    // The next request on the same connection runs the same executor.
    let resp = c.cmd("query", &wcoj("c")).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{}",
        resp.render()
    );
    assert_eq!(resp.get("executor").and_then(Value::as_str), Some("wcoj"));

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn cq_query_waits_on_the_capacity_gate() {
    // Zero queue depth: nothing gets through an active gate.
    let (addr, server_thread) = spawn(ServeConfig {
        max_cost: Some(1_000_000),
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).unwrap();
    load_pair(&mut c, "c");
    let resp = cq_query(&mut c, &[]);
    assert_eq!(error_kind(&resp), Some("queue_full"), "{}", resp.render());

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn cq_query_lands_in_the_session_ledger() {
    let (addr, server_thread) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    load_pair(&mut c, "c");
    let session = |c: &mut Client, field: &str| {
        let stats = c.cmd("stats", &[]).unwrap();
        let v = stats.get("session").and_then(|s| s.get(field));
        v.and_then(Value::as_u64).unwrap()
    };
    assert_eq!(session(&mut c, "requests"), 0);

    let resp = cq_query(&mut c, &[]);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    let cost = resp.get("cost").and_then(Value::as_u64).unwrap();

    assert_eq!(session(&mut c, "requests"), 1, "stats counts the cq query");
    assert_eq!(
        session(&mut c, "inputs") + session(&mut c, "generated"),
        cost,
        "the session ledger holds the query's §2.3 cost"
    );

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn cq_query_under_a_budget_minimizes_once() {
    // A budget, so admission has to look at the minimized body's bound —
    // the same core computation compilation uses, not a second one.
    let (addr, server_thread) = spawn(ServeConfig {
        max_cost: Some(1_000_000),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).unwrap();
    load_pair(&mut c, "c");
    let minimized = |c: &mut Client| {
        let stats = c.cmd("stats", &[]).unwrap();
        let v = stats.get("counters").and_then(|m| m.get("cq.minimize"));
        v.and_then(Value::as_u64).unwrap_or(0)
    };
    let before = minimized(&mut c);
    let resp = cq_query(&mut c, &[]);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(minimized(&mut c) - before, 1);

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_and_stops_the_listener() {
    let (addr, server_thread) = spawn(ServeConfig::default());
    let mut a = Client::connect(addr).unwrap();
    load_pair(&mut a, "c");
    let resp = a.cmd("query", &[("catalog", Value::str("c"))]).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));

    let mut b = Client::connect(addr).unwrap();
    let bye = b.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();

    // The listener is gone: a fresh connection either fails outright or
    // dies on first use.
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.cmd("ping", &[]).is_err(),
    };
    assert!(refused, "server must stop accepting after shutdown");
}

/// A traced `run`'s `exec/stmt` spans, as its reply aggregates them.
fn traced_stmt_spans(resp: &Value) -> Option<u64> {
    let Some(Value::Arr(rows)) = resp.get("trace").and_then(|t| t.get("spans")) else {
        return None;
    };
    let stmt = rows
        .iter()
        .find(|r| r.get("key").and_then(Value::as_str) == Some("exec/stmt"));
    stmt.and_then(|r| r.get("count")).and_then(Value::as_u64)
}

/// Two sessions run traced programs of 2 and 5 statements at the same time:
/// each reply carries its own request's spans and no other's.
#[test]
fn two_sessions_tracing_at_once_each_get_only_their_own_spans() {
    let (addr, server_thread) = spawn(ServeConfig::default());
    let programs = [
        ("short", "R(V) := R(AB) ⋈ R(BC)\nR(AB) := R(AB) ⋉ R(BC)", 2),
        (
            "long",
            "R(AB) := R(AB) ⋉ R(BC)\nR(BC) := R(BC) ⋉ R(AB)\nR(V) := R(AB) ⋈ R(BC)\n\
             R(AB) := R(AB) ⋉ R(V)\nR(BC) := R(BC) ⋉ R(V)",
            5,
        ),
    ];
    let barrier = std::sync::Barrier::new(programs.len());
    std::thread::scope(|s| {
        for (catalog, program, stmts) in programs {
            let barrier = &barrier;
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                load_pair(&mut c, catalog);
                let compile = [
                    ("catalog", Value::str(catalog)),
                    ("name", Value::str("p")),
                    ("program", Value::str(program)),
                    ("scheme", Value::str("AB,BC")),
                ];
                let resp = c.cmd("compile", &compile).unwrap();
                assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
                barrier.wait();
                for _ in 0..20 {
                    let run = [
                        ("catalog", Value::str(catalog)),
                        ("name", Value::str("p")),
                        ("tsv", Value::Bool(false)),
                        ("trace", Value::Bool(true)),
                    ];
                    let resp = c.cmd("run", &run).unwrap();
                    assert_eq!(
                        traced_stmt_spans(&resp),
                        Some(stmts),
                        "{catalog}: {}",
                        resp.render()
                    );
                }
                // An untraced run in between carries no spans.
                let resp = c
                    .cmd(
                        "run",
                        &[("catalog", Value::str(catalog)), ("name", Value::str("p"))],
                    )
                    .unwrap();
                assert!(resp.get("trace").is_none(), "{}", resp.render());
            });
        }
    });
    let mut c = Client::connect(addr).unwrap();
    c.cmd("shutdown", &[]).unwrap();
    server_thread.join().unwrap().unwrap();
}
