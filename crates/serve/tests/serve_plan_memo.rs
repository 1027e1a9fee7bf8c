//! The per-catalog plan memo: a `run` or `query` whose plan is memoized at
//! the catalog's current epoch replies exactly as the request that planned
//! it did, a `load` or `compile` makes the next request plan afresh, and
//! sessions share one memoized plan.

use mjoin_serve::{Client, ServeConfig, Server, Value};
use std::net::SocketAddr;
use std::thread::JoinHandle;

fn spawn(cfg: ServeConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

fn stop(addr: SocketAddr, server: JoinHandle<std::io::Result<()>>) {
    Client::connect(addr).unwrap().cmd("shutdown", &[]).unwrap();
    server.join().unwrap().unwrap();
}

fn req(cmd: &str, fields: &[(&str, Value)]) -> Value {
    fields.iter().fold(
        Value::obj()
            .set("cmd", Value::str(cmd))
            .set("catalog", Value::str("c")),
        |o, (k, v)| o.set(k, v.clone()),
    )
}

fn load(name: &str, tsv: &str) -> Value {
    req(
        "load",
        &[("name", Value::str(name)), ("tsv", Value::str(tsv))],
    )
}

/// A chain `ab(A,B)`, `bc(B,C)`, `cd(C,D)` with fan-out, so joins of
/// temporaries have something to index.
fn chain() -> [Value; 3] {
    let mut ab = String::from("A\tB\n");
    let mut bc = String::from("B\tC\n");
    let mut cd = String::from("C\tD\n");
    for i in 0..40u32 {
        ab.push_str(&format!("{}\t{}\n", i % 9, i % 13));
        bc.push_str(&format!("{}\t{}\n", i % 13, i % 7));
        cd.push_str(&format!("{}\t{}\n", i % 7, i % 5));
    }
    [load("ab", &ab), load("bc", &bc), load("cd", &cd)]
}

/// A program over the chain that joins, semijoins and projects
/// temporaries.
const PROGRAM: &str = "R(V) := R(AB) ⋈ R(BC)\nR(W) := R(V) ⋈ R(CD)\n\
                       R(X) := π_BD R(W)\nR(X) := R(X) ⋉ R(CD)\nR(W) := R(W) ⋉ R(X)";
const SCHEME: &str = "AB,BC,CD";

fn compile(name: &str, program: &str) -> Value {
    req(
        "compile",
        &[
            ("name", Value::str(name)),
            ("program", Value::str(program)),
            ("scheme", Value::str(SCHEME)),
        ],
    )
}

/// A reply without what legitimately moves between two requests of one
/// server: the cumulative index-cache block and the session's running
/// ledger total.
fn stable(reply: &Value) -> String {
    let Value::Obj(pairs) = reply else {
        return reply.render();
    };
    let kept = pairs.iter().filter(|(k, _)| k != "cache").map(|(k, v)| {
        let v = match (k.as_str(), v) {
            ("ledger", Value::Obj(ledger)) => Value::Obj(
                ledger
                    .iter()
                    .filter(|(k, _)| k != "session_total")
                    .cloned()
                    .collect(),
            ),
            _ => v.clone(),
        };
        (k.clone(), v)
    });
    Value::Obj(kept.collect()).render()
}

/// The field asking for the answer's TSV.
fn tsv() -> (&'static str, Value) {
    ("tsv", Value::Bool(true))
}

fn ok(reply: &Value) -> bool {
    reply.get("ok").and_then(Value::as_bool) == Some(true)
}

fn counter(c: &mut Client, name: &str) -> u64 {
    let stats = c.cmd("stats", &[]).unwrap();
    let counters = stats.get("counters").expect("stats lists counters");
    counters.get(name).and_then(Value::as_u64).unwrap_or(0)
}

/// Every memoized request kind, sent twice: the second is a memo hit and
/// replies byte for byte as the first, rejections included.
#[test]
fn a_hit_replies_as_the_miss_that_planned_it() {
    let cq = |text: &str| ("cq", Value::str(text));
    let path = "Q(a, d) :- ab(a, b), bc(b, c), cd(c, d), ab(a, e)";
    let requests = [
        req("run", &[("name", Value::str("p")), tsv()]),
        req(
            "run",
            &[
                ("program", Value::str(PROGRAM)),
                ("scheme", Value::str(SCHEME)),
                tsv(),
            ],
        ),
        req("query", &[tsv()]),
        req("query", &[("executor", Value::str("auto")), tsv()]),
        req("query", &[("executor", Value::str("wcoj")), tsv()]),
        req("query", &[("optimizer", Value::str("dp")), tsv()]),
        req("query", &[cq(path), tsv()]),
        req(
            "query",
            &[cq(path), ("minimize", Value::Bool(false)), tsv()],
        ),
        req(
            "query",
            &[cq(path), ("executor", Value::str("auto")), tsv()],
        ),
        req(
            "query",
            &[cq(path), ("executor", Value::str("wcoj")), tsv()],
        ),
        req("explain", &[("name", Value::str("p"))]),
        req("explain", &[cq(path)]),
    ];
    let setup: Vec<Value> = chain().into_iter().chain([compile("p", PROGRAM)]).collect();
    for (max_cost, want_ok) in [(None, true), (Some(10), false)] {
        let (addr, server) = spawn(ServeConfig {
            max_cost,
            ..ServeConfig::default()
        });
        let mut c = Client::connect(addr).unwrap();
        for r in &setup {
            assert!(ok(&c.request(r).unwrap()));
        }
        for r in &requests {
            let explain = r.get("cmd").and_then(Value::as_str) == Some("explain");
            let (misses, hits) = (
                counter(&mut c, "serve.plan_miss"),
                counter(&mut c, "serve.plan_hit"),
            );
            let first = c.request(r).unwrap();
            let second = c.request(r).unwrap();
            assert_eq!(
                ok(&first),
                want_ok || explain,
                "{}: {}",
                r.render(),
                first.render()
            );
            assert_eq!(stable(&first), stable(&second), "{}", r.render());
            // The `cq` explain shares the default `query`'s entry, so both
            // of its requests hit.
            let missed = counter(&mut c, "serve.plan_miss") - misses;
            let hit = counter(&mut c, "serve.plan_hit") - hits;
            assert_eq!((missed + hit, hit >= 1), (2, true), "{}", r.render());
        }
        // One plan per distinct request source.
        let distinct = requests.len() as u64 - 1;
        assert_eq!(counter(&mut c, "serve.plan_miss"), distinct);
        drop(c);
        stop(addr, server);
    }
}

/// `stable` replies of `requests`, sent in order to a fresh server; the
/// reply to the last is returned.
fn fresh_reply(requests: &[Value]) -> String {
    let (addr, server) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    let mut last = Value::Null;
    for r in requests {
        last = c.request(r).unwrap();
    }
    drop(c);
    stop(addr, server);
    stable(&last)
}

/// A `load` bumps the catalog's epoch: the next request plans again and
/// replies as a fresh server holding the same relations does.
#[test]
fn a_load_invalidates_the_memo() {
    let [ab, bc, cd] = chain();
    let (addr, server) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();

    // A `cq` over a predicate not loaded yet fails, and succeeds once it is.
    let over_cd = req(
        "query",
        &[("cq", Value::str("Q(c, d) :- cd(c, d), bc(b, c)")), tsv()],
    );
    for r in [&ab, &bc] {
        assert!(ok(&c.request(r).unwrap()));
    }
    let refused = c.request(&over_cd).unwrap();
    assert!(!ok(&refused), "{}", refused.render());
    assert!(ok(&c.request(&cd).unwrap()));
    let answered = c.request(&over_cd).unwrap();
    assert!(ok(&answered), "{}", answered.render());

    // The scheme-form `query` joins every loaded relation: after one more
    // load a memoized plan would answer without it.
    let query = req("query", &[tsv()]);
    let before = c.request(&query).unwrap();
    let de = load("de", "D\tE\n0\t1\n1\t2\n2\t3\n");
    assert!(ok(&c.request(&de).unwrap()));
    let after = c.request(&query).unwrap();
    assert_ne!(stable(&before), stable(&after));
    let fresh = [
        ab.clone(),
        bc.clone(),
        cd.clone(),
        de.clone(),
        query.clone(),
    ];
    assert_eq!(stable(&after), fresh_reply(&fresh));

    // A second relation with a `run` edge's schema: the same reply as a
    // fresh server that holds both.
    let run = req(
        "run",
        &[
            ("program", Value::str(PROGRAM)),
            ("scheme", Value::str(SCHEME)),
            tsv(),
        ],
    );
    assert!(ok(&c.request(&run).unwrap()));
    let ab2 = load("ab2", "A\tB\n0\t0\n1\t1\n");
    assert!(ok(&c.request(&ab2).unwrap()));
    let again = c.request(&run).unwrap();
    let fresh = [ab, bc, cd, de, ab2, run];
    assert_eq!(stable(&again), fresh_reply(&fresh));
    drop(c);
    stop(addr, server);
}

/// `compile` under a name already planned: the next `run` of the name runs
/// the new program.
#[test]
fn compile_replaces_the_plan_for_its_name() {
    let (addr, server) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    for r in chain() {
        assert!(ok(&c.request(&r).unwrap()));
    }
    let run = req(
        "run",
        &[("name", Value::str("p")), ("tsv", Value::Bool(true))],
    );
    let short = "R(V) := R(AB) ⋈ R(BC)";
    let mut replies = Vec::new();
    for program in [PROGRAM, short] {
        assert!(ok(&c.request(&compile("p", program)).unwrap()));
        let reply = c.request(&run).unwrap();
        assert!(ok(&reply), "{}", reply.render());
        let mut fresh: Vec<Value> = chain().into();
        fresh.extend([compile("p", program), run.clone()]);
        assert_eq!(stable(&reply), fresh_reply(&fresh));
        replies.push(stable(&reply));
    }
    assert_ne!(replies[0], replies[1]);
    drop(c);
    stop(addr, server);
}

/// Two sessions running the same compiled program concurrently plan it
/// once between them and get the same replies.
#[test]
fn two_sessions_share_one_plan() {
    const RUNS: u64 = 12;
    let (addr, server) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    for r in chain().into_iter().chain([compile("p", PROGRAM)]) {
        assert!(ok(&c.request(&r).unwrap()));
    }
    let run = req(
        "run",
        &[("name", Value::str("p")), ("tsv", Value::Bool(true))],
    );
    let want = stable(&c.request(&run).unwrap());
    let sessions: Vec<_> = (0..2)
        .map(|_| {
            let run = run.clone();
            std::thread::spawn(move || {
                let mut s = Client::connect(addr).unwrap();
                (0..RUNS)
                    .map(|_| stable(&s.request(&run).unwrap()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for s in sessions {
        for reply in s.join().unwrap() {
            assert_eq!(reply, want);
        }
    }
    assert_eq!(counter(&mut c, "serve.plan_miss"), 1);
    assert_eq!(counter(&mut c, "serve.plan_hit"), 2 * RUNS);
    drop(c);
    stop(addr, server);
}

/// From the second run of a memoized plan on, no temporary hashes a row:
/// its heads' fingerprints are seeded from the first run.
#[test]
fn a_warm_traced_run_hashes_no_row() {
    let (addr, server) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    for r in chain().into_iter().chain([compile("p", PROGRAM)]) {
        assert!(ok(&c.request(&r).unwrap()));
    }
    let run = req(
        "run",
        &[("name", Value::str("p")), ("trace", Value::Bool(true))],
    );
    let hashed = |reply: &Value| {
        let counters = reply.get("trace").and_then(|t| t.get("counters"));
        let rows = counters.and_then(|c| c.get("relation.fingerprint_rows"));
        rows.and_then(Value::as_u64).unwrap_or(0)
    };
    let cold = c.request(&run).unwrap();
    assert!(hashed(&cold) > 0, "{}", cold.render());
    for _ in 0..3 {
        let warm = c.request(&run).unwrap();
        assert!(ok(&warm), "{}", warm.render());
        assert_eq!(hashed(&warm), 0, "{}", warm.render());
    }
    drop(c);
    stop(addr, server);
}
