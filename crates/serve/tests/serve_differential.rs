//! Differential tests: the resident server and the one-shot path (the
//! library calls `mjoin_cli` makes) agree — on rows, on §2.3 ledger totals
//! and on the executor decision — because both run the same
//! `mjoin_core::engine`. The first test also drives 1/2/4/8 concurrent
//! sessions and checks the process-wide index cache warms monotonically.

use mjoin_core::engine::{self, ExecutorKind, Limits, Oracle, Outcome, Plan, PlanStrategy};
use mjoin_cq::{execute_query_with, parse_query, ExecOptions, NamedDatabase};
use mjoin_hypergraph::DbScheme;
use mjoin_program::IndexCache;
use mjoin_relation::{tsv, Catalog, Database, Relation};
use mjoin_serve::{Client, ServeConfig, Server, Value};
use std::sync::{Mutex, PoisonError};

/// Every server here drains the one process-global trace sink into its own
/// totals, so a test that reads counters must not overlap another's server.
static SERIAL: Mutex<()> = Mutex::new(());

/// A chain AB–BC–CD with enough skew that join order matters and the
/// result is non-trivial.
fn chain_tsvs() -> Vec<String> {
    let mut ab = String::from("A\tB\n");
    let mut bc = String::from("B\tC\n");
    let mut cd = String::from("C\tD\n");
    for i in 0..60u32 {
        ab.push_str(&format!("a{}\tb{}\n", i % 7, i % 20));
        bc.push_str(&format!("b{}\tc{}\n", i % 20, i % 11));
        cd.push_str(&format!("c{}\td{}\n", i % 11, i % 5));
    }
    vec![ab, bc, cd]
}

/// Triangle AB–BC–AC: cyclic, so `auto` routes to the worst-case-optimal
/// join on bounds alone. Headers are in attribute-id order, which is the
/// column order the server binds `cq` atoms by.
fn triangle_tsvs() -> Vec<String> {
    vec![
        "A\tB\n1\t2\n1\t3\n4\t5\n".to_string(),
        "B\tC\n2\t7\n3\t7\n3\t8\n5\t6\n".to_string(),
        "A\tC\n1\t7\n1\t8\n4\t6\n".to_string(),
    ]
}

/// The one-shot path of the server's scheme `query`: load in order, then
/// the engine — estimate-oracle greedy tree, derive, admit under no
/// budget, execute. Returns the outcome and the result TSV.
fn one_shot(tsvs: &[String], executor: ExecutorKind) -> (Outcome, String) {
    let mut catalog = Catalog::new();
    let rels: Vec<Relation> = tsvs
        .iter()
        .map(|t| tsv::relation_from_tsv_reader(&mut catalog, t.as_bytes()).unwrap())
        .collect();
    let db = Database::from_relations(rels);
    let scheme = DbScheme::from_schemas(&db.schemas());
    let plan = Plan::Search {
        strategy: PlanStrategy::Greedy,
        oracle: Oracle::Estimate,
    };
    let prepared = engine::prepare(scheme, db, catalog, plan, executor).unwrap();
    let out = prepared
        .admit(&Limits::default())
        .unwrap()
        .execute(1, None, None)
        .unwrap();
    let mut buf = Vec::new();
    tsv::relation_to_tsv_writer(prepared.catalog(), &out.result, &mut buf).unwrap();
    (out, String::from_utf8(buf).unwrap())
}

/// The one-shot path of `mjoin_cli query`: each TSV a predicate `r<i>`.
fn one_shot_cq(
    tsvs: &[String],
    cq: &str,
    opts: &ExecOptions,
) -> (mjoin_cq::QueryResult, Vec<mjoin_cq::ComponentDecision>) {
    let mut ndb = NamedDatabase::new();
    for (i, t) in tsvs.iter().enumerate() {
        ndb.add_tsv(&format!("r{i}"), t).unwrap();
    }
    let q = parse_query(cq).unwrap();
    execute_query_with(&ndb, &q, PlanStrategy::Greedy, opts).unwrap()
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

fn shutdown(addr: std::net::SocketAddr, server: std::thread::JoinHandle<std::io::Result<()>>) {
    let bye = Client::connect(addr).unwrap().cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server.join().unwrap().unwrap();
}

/// Load `tsvs` as `r0, r1, …` into `catalog`.
fn load_all(c: &mut Client, catalog: &str, tsvs: &[String]) {
    for (i, t) in tsvs.iter().enumerate() {
        let resp = c
            .cmd(
                "load",
                &[
                    ("catalog", Value::str(catalog)),
                    ("name", Value::str(format!("r{i}"))),
                    ("tsv", Value::str(t.as_str())),
                ],
            )
            .unwrap();
        assert_ok(&resp, "load");
    }
}

fn assert_ok(resp: &Value, what: &str) {
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{what} failed: {}",
        resp.render()
    );
}

fn u64_at(v: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no {path:?} in {}", v.render()))
}

fn sorted_lines(tsv: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = tsv.lines().collect();
    lines.sort_unstable();
    lines
}

/// The answer rows as sorted tab-joined lines, without the header.
fn cq_rows(res: &mjoin_cq::QueryResult) -> Vec<String> {
    res.rows_in_head_order()
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
            cells.join("\t")
        })
        .collect()
}

/// One session: load the fixture into a fresh catalog, run `query`, return
/// the result TSV and the cumulative cache-hit counter.
fn session(addr: std::net::SocketAddr, catalog: &str, tsvs: &[String]) -> (String, u64) {
    let mut c = Client::connect(addr).unwrap();
    load_all(&mut c, catalog, tsvs);
    let resp = c.cmd("query", &[("catalog", Value::str(catalog))]).unwrap();
    assert_ok(&resp, "query");
    let tsv = resp.get("tsv").and_then(Value::as_str).unwrap().to_string();
    (tsv, u64_at(&resp, &["cache", "hit"]))
}

/// `program` over `tsvs`, loaded as `r0, r1, …` under `scheme`: its
/// outcome and printed TSV on the one-shot engine path (checked against
/// the gathered rows of a run whose cache keeps nothing), and the reply to
/// a server's second, warm `run` of it with `tsv:true`.
fn one_shot_and_served(tsvs: &[String], scheme: &str, program: &str) -> (Outcome, Vec<u8>, Value) {
    let mut catalog = Catalog::new();
    let rels: Vec<Relation> = tsvs
        .iter()
        .map(|t| tsv::relation_from_tsv_reader(&mut catalog, t.as_bytes()).unwrap())
        .collect();
    let scheme_list = mjoin_program::parse_scheme_list(&mut catalog, scheme).unwrap();
    let parsed = mjoin_program::parse_program(&catalog, &scheme_list, program).unwrap();
    let db = Database::from_relations(rels);
    let prepared = engine::prepare(
        scheme_list,
        db,
        catalog,
        Plan::Program(parsed),
        ExecutorKind::Program,
    )
    .unwrap();
    let admitted = prepared.admit(&Limits::default()).unwrap();
    let out = admitted.execute(1, None, None).unwrap();
    let mut one_shot = Vec::new();
    tsv::answer_to_tsv_writer(prepared.catalog(), &out.result, &mut one_shot).unwrap();
    let no_memo = IndexCache::shared(0, 0);
    let rows = admitted.execute(1, Some(&no_memo), None).unwrap().result;
    let mut gathered = Vec::new();
    tsv::relation_to_tsv_writer(prepared.catalog(), &rows, &mut gathered).unwrap();
    assert!(
        one_shot == gathered,
        "the answer prints as its gathered rows"
    );

    let (addr, server) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    load_all(&mut c, "served", tsvs);
    let run = [
        ("catalog", Value::str("served")),
        ("program", Value::str(program)),
        ("scheme", Value::str(scheme)),
        ("tsv", Value::Bool(true)),
    ];
    assert_ok(&c.cmd("run", &run).unwrap(), "cold run");
    let resp = c.cmd("run", &run).unwrap();
    assert_ok(&resp, "warm run");
    shutdown(addr, server);
    (out, one_shot, resp)
}

/// A `run` of a many-to-many join — 128 rows a side on a 4-valued key,
/// 4,096 answers — leaves its answer factorized, reports as many `rows` as
/// its `tsv:true` reply prints lines, and prints what the one-shot path
/// prints.
#[test]
fn a_factorized_run_reports_the_rows_it_prints() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut ab, mut bc) = (String::from("A\tB\n"), String::from("B\tC\n"));
    for i in 0..128 {
        ab.push_str(&format!("{i}\tb{}\n", i % 4));
        bc.push_str(&format!("b{}\t{}\n", i % 4, 1000 - i));
    }
    let program = "R(V) := R(AB) ⋈ R(BC)";
    let (out, one_shot, resp) = one_shot_and_served(&[ab, bc], "AB,BC", program);
    assert!(out.result.is_factorized(), "fan-out 16 stays a product");
    assert_eq!(out.result.len(), 4096);
    let tsv = resp.get("tsv").and_then(Value::as_str).unwrap();
    assert_eq!(u64_at(&resp, &["rows"]), tsv.lines().count() as u64 - 1);
    assert_eq!(u64_at(&resp, &["rows"]), 4096);
    assert_eq!(tsv.as_bytes(), &one_shot[..]);
}

/// A hub-and-spoke reducer whose last semijoin drops three of the hub's 53
/// keys — 2,003 hub rows, 37 or 38 a key, read by their key groups — leaves
/// its answer a selection; a warm `run` reports as many `rows` as its
/// `tsv:true` reply prints lines, and prints what the one-shot path prints.
#[test]
fn a_selected_run_reports_the_rows_it_prints() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut ab = String::from("A\tB\n");
    for i in 0..2_003 {
        ab.push_str(&format!("{i}\t{}\n", i % 53));
    }
    let spoke = |attr: &str| {
        let mut t = format!("B\t{attr}\n");
        for j in 0..131 {
            t.push_str(&format!("{}\t{j}\n", j % 50));
        }
        t
    };
    let program = "R(BC) := R(BC) ⋉ R(AB)
R(BD) := R(BD) ⋉ R(AB)
R(K0) := π_B R(BC)
R(K1) := π_B R(BD)
R(K0) := R(K0) ⋈ R(K1)
R(AB) := R(AB) ⋉ R(K0)";
    let tsvs = [ab, spoke("C"), spoke("D")];
    let (out, one_shot, resp) = one_shot_and_served(&tsvs, "AB,BC,BD", program);
    let kept = (0..2_003).filter(|i| i % 53 < 50).count() as u64;
    assert!(out.result.is_selection(), "the hub's key groups");
    assert_eq!(out.result.len() as u64, kept);
    let tsv = resp.get("tsv").and_then(Value::as_str).unwrap();
    assert_eq!(u64_at(&resp, &["rows"]), tsv.lines().count() as u64 - 1);
    assert_eq!(u64_at(&resp, &["rows"]), kept);
    assert_eq!(tsv.as_bytes(), &one_shot[..]);
}

#[test]
fn concurrent_sessions_match_one_shot_and_warm_the_cache() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let tsvs = chain_tsvs();
    let (_, baseline) = one_shot(&tsvs, ExecutorKind::Program);
    assert!(baseline.lines().count() > 1, "fixture joins to something");

    let (addr, server) = spawn(ServeConfig::default());

    // Waves of 1, 2, 4, 8 concurrent sessions. Every session must be
    // byte-identical to the one-shot result; the cumulative hit counter
    // must be strictly increasing from the second session on (warm
    // sessions hit the fingerprint fallback — each run re-wraps relations
    // in fresh `Arc`s, so pointer identity never matches across sessions).
    let mut wave_hits = Vec::new();
    for (wave, &n) in [1usize, 2, 4, 8].iter().enumerate() {
        let results: Vec<(String, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let name = format!("w{wave}s{i}");
                    let tsvs = &tsvs;
                    s.spawn(move || session(addr, &name, tsvs))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (tsv, _) in &results {
            assert_eq!(
                tsv, &baseline,
                "wave of {n}: server result differs from one-shot"
            );
        }
        wave_hits.push(results.iter().map(|(_, h)| *h).max().unwrap());
    }
    assert!(
        wave_hits.windows(2).all(|w| w[1] > w[0]),
        "cache hits must strictly increase across waves: {wave_hits:?}"
    );
    shutdown(addr, server);
}

#[test]
fn scheme_query_under_auto_agrees_on_rows_ledger_and_decision() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let tsvs = triangle_tsvs();
    let (out, baseline) = one_shot(&tsvs, ExecutorKind::Auto);
    assert_eq!(out.decision.executor, ExecutorKind::Wcoj, "cyclic triangle");

    let (addr, server) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    load_all(&mut c, "tri", &tsvs);
    let resp = c
        .cmd(
            "query",
            &[
                ("catalog", Value::str("tri")),
                ("executor", Value::str("auto")),
            ],
        )
        .unwrap();
    assert_ok(&resp, "query");

    let tsv = resp.get("tsv").and_then(Value::as_str).unwrap();
    assert_eq!(sorted_lines(tsv), sorted_lines(&baseline), "rows");
    assert_eq!(u64_at(&resp, &["rows"]), out.result.len() as u64);
    assert_eq!(
        u64_at(&resp, &["ledger", "inputs"]),
        out.ledger.input_total()
    );
    assert_eq!(
        u64_at(&resp, &["ledger", "generated"]),
        out.ledger.generated_total()
    );
    assert_eq!(u64_at(&resp, &["ledger", "total"]), out.ledger.total());
    assert_eq!(
        resp.get("executor").and_then(Value::as_str),
        Some(out.decision.executor.name())
    );
    assert_eq!(Some(u64_at(&resp, &["agm_bound"])), out.decision.agm_bound);
    assert_eq!(
        Some(u64_at(&resp, &["cert_bound"])),
        out.decision.cert_bound
    );
    shutdown(addr, server);
}

#[test]
fn cq_with_a_foldable_atom_agrees_on_rows_cost_and_decisions() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let tsvs = triangle_tsvs();
    // The second r0 atom folds onto the first (y2 ↦ y): the core is the
    // plain triangle.
    let cq = "Q(x, y, z) :- r0(x, y), r1(y, z), r2(x, z), r0(x, y2)";
    let opts = ExecOptions {
        executor: ExecutorKind::Auto,
        ..ExecOptions::default()
    };
    let (res, decisions) = one_shot_cq(&tsvs, cq, &opts);
    let folded = res.minimize.as_ref().expect("minimization ran");
    assert_eq!((folded.atoms_before, folded.atoms_after), (4, 3));

    let (addr, server) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    load_all(&mut c, "tri", &tsvs);
    let resp = c
        .cmd(
            "query",
            &[
                ("catalog", Value::str("tri")),
                ("cq", Value::str(cq)),
                ("executor", Value::str("auto")),
            ],
        )
        .unwrap();
    assert_ok(&resp, "cq query");

    let tsv = resp.get("tsv").and_then(Value::as_str).unwrap();
    let rows: Vec<&str> = tsv.lines().skip(1).collect();
    assert_eq!(rows, cq_rows(&res), "rows");
    assert_eq!(u64_at(&resp, &["cost"]), res.ledger.total());
    assert_eq!(u64_at(&resp, &["minimize", "atoms_after"]), 3);
    assert_eq!(
        u64_at(&resp, &["minimize", "agm_after"]),
        folded.agm_after,
        "the bound admission gated on"
    );
    let Some(Value::Arr(components)) = resp.get("components") else {
        panic!("no components in {}", resp.render());
    };
    assert_eq!(components.len(), decisions.len());
    for (got, want) in components.iter().zip(&decisions) {
        assert_eq!(
            got.get("executor").and_then(Value::as_str),
            Some(want.executor.name())
        );
        assert_eq!(got.get("agm_bound").and_then(Value::as_u64), want.agm_bound);
        assert_eq!(
            got.get("cert_bound").and_then(Value::as_u64),
            want.cert_bound
        );
    }
    shutdown(addr, server);
}

#[test]
fn mem_budget_run_that_spills_agrees_on_rows_and_cost() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let tsvs = chain_tsvs();
    let cq = "Q(a, d) :- r0(a, b), r1(b, c), r2(c, d)";
    // One byte: every join's certified build side is over budget.
    let opts = ExecOptions {
        mem_budget: Some(1),
        ..ExecOptions::default()
    };
    let (res, _) = one_shot_cq(&tsvs, cq, &opts);
    let (unbudgeted, _) = one_shot_cq(&tsvs, cq, &ExecOptions::default());
    assert_eq!(cq_rows(&res), cq_rows(&unbudgeted), "spilling is invisible");

    let (addr, server) = spawn(ServeConfig {
        mem_budget: Some(1),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).unwrap();
    load_all(&mut c, "chain", &tsvs);
    let partitions = |c: &mut Client| {
        let stats = c.cmd("stats", &[]).unwrap();
        stats
            .get("counters")
            .and_then(|m| m.get("mem.partitions"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let before = partitions(&mut c);
    let resp = c
        .cmd(
            "query",
            &[("catalog", Value::str("chain")), ("cq", Value::str(cq))],
        )
        .unwrap();
    assert_ok(&resp, "budgeted cq query");
    assert!(
        partitions(&mut c) > before,
        "the server run took the Grace-hash spill path"
    );
    let tsv = resp.get("tsv").and_then(Value::as_str).unwrap();
    let rows: Vec<&str> = tsv.lines().skip(1).collect();
    assert_eq!(rows, cq_rows(&res), "rows");
    assert_eq!(u64_at(&resp, &["cost"]), res.ledger.total());

    // The same budget *rejects* the scheme query (certified peak > 1 byte)
    // instead of spilling it: one `Limits`, two policies.
    let resp = c.cmd("query", &[("catalog", Value::str("chain"))]).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(u64_at(&resp, &["error", "mem_budget"]), 1);
    shutdown(addr, server);
}
