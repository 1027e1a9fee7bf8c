//! A traced request collects everything its run records, on whichever
//! thread: at `--threads 4` the hub reducer's width-10 level runs on three
//! scoped threads besides the session's, and the request's collector must
//! end up with the spans and counters the process-wide sink records for the
//! same program over the same data.
//!
//! The reference run switches the process-wide sink on, so this file holds
//! that one test alone.

use mjoin_core::engine::{self, ExecutorKind, Limits, Plan};
use mjoin_program::{
    parse_program, parse_scheme_list, CancelToken, IndexCache, DEFAULT_CACHE_BYTES,
    DEFAULT_CACHE_TUPLES,
};
use mjoin_relation::{tsv, Catalog, Database, Relation, Schema};
use mjoin_serve::{Client, ServeConfig, Server, Value};
use std::collections::BTreeMap;

const SPOKES: &str = "CDEFGHIJKL";
const THREADS: usize = 4;

/// A hub `AB` and ten spokes `BX`, as `(name, tsv)`.
fn relations() -> Vec<(String, String)> {
    let mut hub = String::from("A\tB\n");
    for i in 0..4_000 {
        hub.push_str(&format!("{i}\t{}\n", i % 300));
    }
    let mut out = vec![("hub".to_string(), hub)];
    for (s, x) in SPOKES.chars().enumerate() {
        let mut spoke = format!("B\t{x}\n");
        for j in 0..600 {
            spoke.push_str(&format!("{}\t{j}\n", (j * 97 + s * 13) % 400));
        }
        out.push((format!("s{x}"), spoke));
    }
    out
}

/// Every spoke reduced by the hub (one width-10 level), the spokes' keys
/// intersected down a chain, and the hub reduced by what is left.
fn program() -> (String, String) {
    let mut text = String::new();
    for x in SPOKES.chars() {
        text.push_str(&format!("R(B{x}) := R(B{x}) ⋉ R(AB)\n"));
    }
    for x in SPOKES.chars() {
        text.push_str(&format!("R(K{x}) := π_B R(B{x})\n"));
    }
    for x in SPOKES.chars().skip(1) {
        text.push_str(&format!("R(KC) := R(KC) ⋈ R(K{x})\n"));
    }
    text.push_str("R(AB) := R(AB) ⋉ R(KC)");
    let scheme = std::iter::once("AB".to_string())
        .chain(SPOKES.chars().map(|x| format!("B{x}")))
        .collect::<Vec<_>>()
        .join(",");
    (text, scheme)
}

/// Span counts by `cat/name[strategy]` and the counters, the engine's own
/// (the server's `serve.*` counters have no counterpart in a bare run).
type Tally = (BTreeMap<String, u64>, BTreeMap<String, u64>);

/// The same program and data through the engine, recorded by the
/// process-wide sink: a cold run, then a warm one over the same cache.
fn global_sink_runs() -> Vec<Tally> {
    let mut catalog = Catalog::new();
    let rels: Vec<Relation> = relations()
        .iter()
        .map(|(_, text)| {
            let rel = tsv::relation_from_tsv_reader(&mut catalog, text.as_bytes()).unwrap();
            // As the server's `load` does, outside the request.
            rel.fingerprint();
            rel
        })
        .collect();
    let (text, scheme) = program();
    let scheme = parse_scheme_list(&mut catalog, &scheme).unwrap();
    let program = parse_program(&catalog, &scheme, &text).unwrap();
    let schemas: Vec<Schema> = rels.iter().map(|r| r.schema().clone()).collect();
    let picked = scheme.assign_relations(&schemas).unwrap();
    let db = Database::from_relations(picked.into_iter().map(|j| rels[j].clone()).collect());
    let prepared = engine::prepare(
        scheme,
        db,
        catalog,
        Plan::Program(program),
        ExecutorKind::Program,
    )
    .unwrap();
    let cache = IndexCache::shared(DEFAULT_CACHE_TUPLES, DEFAULT_CACHE_BYTES);
    let limits = Limits {
        mem_rejects: true,
        ..Limits::default()
    };
    (0..2)
        .map(|_| {
            mjoin_trace::set_enabled(true);
            mjoin_trace::clear();
            let admitted = prepared.admit(&limits).unwrap();
            admitted.certified_peak();
            let out = admitted
                .execute(THREADS, Some(&cache), Some(CancelToken::new()))
                .unwrap();
            let t = mjoin_trace::take();
            mjoin_trace::set_enabled(false);
            assert_ne!(out.result.len(), 0);
            let spans = t.aggregate().into_iter().map(|r| (r.key, r.count));
            let counters = t.counters.iter().map(|&(n, v)| (n.to_string(), v));
            (spans.collect(), counters.collect())
        })
        .collect()
}

/// The same two runs as `"trace": true` requests to a server at
/// `--threads 4`, tallied from their replies.
fn traced_requests() -> Vec<Tally> {
    let cfg = ServeConfig {
        threads: THREADS,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let mut c = Client::connect(addr).unwrap();
    let ok = |resp: &Value| {
        assert_eq!(
            resp.get("ok"),
            Some(&Value::Bool(true)),
            "{}",
            resp.render()
        );
    };
    for (name, text) in relations() {
        let load = [
            ("catalog", Value::str("c")),
            ("name", Value::Str(name)),
            ("tsv", Value::Str(text)),
        ];
        ok(&c.cmd("load", &load).unwrap());
    }
    let (text, scheme) = program();
    let compile = [
        ("catalog", Value::str("c")),
        ("name", Value::str("hub")),
        ("program", Value::Str(text)),
        ("scheme", Value::Str(scheme)),
    ];
    ok(&c.cmd("compile", &compile).unwrap());
    let tallies = (0..2)
        .map(|_| {
            let run = [
                ("catalog", Value::str("c")),
                ("name", Value::str("hub")),
                ("tsv", Value::Bool(false)),
                ("trace", Value::Bool(true)),
            ];
            let resp = c.cmd("run", &run).unwrap();
            ok(&resp);
            let trace = resp.get("trace").expect("a traced run returns its trace");
            let Some(Value::Arr(rows)) = trace.get("spans") else {
                panic!("no spans: {}", resp.render());
            };
            let spans = rows.iter().map(|r| {
                let key = r.get("key").and_then(Value::as_str).unwrap();
                (
                    key.to_string(),
                    r.get("count").and_then(Value::as_u64).unwrap(),
                )
            });
            let Some(Value::Obj(counters)) = trace.get("counters") else {
                panic!("no counters: {}", resp.render());
            };
            let counters = counters
                .iter()
                .filter(|(name, _)| !name.starts_with("serve."))
                .map(|(name, v)| (name.clone(), v.as_u64().unwrap()));
            (spans.collect(), counters.collect())
        })
        .collect();
    c.cmd("shutdown", &[]).unwrap();
    server_thread.join().unwrap().unwrap();
    tallies
}

#[test]
fn a_traced_request_at_four_threads_records_what_the_global_sink_records() {
    let reference = global_sink_runs();
    let traced = traced_requests();
    for (run, ((spans, counters), (want_spans, want_counters))) in
        traced.iter().zip(&reference).enumerate()
    {
        assert!(
            want_counters.get("pool.tasks") >= Some(&3),
            "run {run}: the width-10 level runs on spawned threads: {want_counters:?}"
        );
        assert_eq!(counters, want_counters, "run {run}: counters");
        assert_eq!(spans, want_spans, "run {run}: span counts");
        let total: u64 = spans.values().sum();
        assert_eq!(total, want_spans.values().sum::<u64>());
    }
}
