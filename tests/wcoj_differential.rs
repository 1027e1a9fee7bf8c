//! Differential suite for the executor triad: the worst-case-optimal
//! backend, the sequential program interpreter, and the parallel program
//! interpreter (1/2/4/8 threads) must agree tuple-for-tuple on cyclic,
//! acyclic, empty, and skewed inputs — with the naive fold-join as the
//! reference — and `auto`'s reported bounds must always justify its pick:
//! the selected executor is never the one whose stated bound is larger.

use mjoin::core::engine::{self, Limits, Oracle, Plan, Selection};
use mjoin::cq::{
    execute_query_naive, execute_query_with, parse_query, ComponentDecision, ExecOptions,
    ExecutorKind, NamedDatabase, PlanStrategy,
};
use mjoin::relation::{Catalog, Relation, Value};
use mjoin::workloads::HubGraph;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const EXECUTORS: [ExecutorKind; 3] = [
    ExecutorKind::Program,
    ExecutorKind::Wcoj,
    ExecutorKind::Auto,
];

fn run(
    db: &NamedDatabase,
    query: &str,
    executor: ExecutorKind,
    threads: usize,
) -> (Relation, Vec<ComponentDecision>) {
    let q = parse_query(query).unwrap();
    let opts = ExecOptions {
        executor,
        threads,
        cache: None,
        minimize: false,
        mem_budget: None,
    };
    let (res, decisions) = execute_query_with(db, &q, PlanStrategy::Greedy, &opts).unwrap();
    (res.relation, decisions)
}

/// Every executor × thread-count combination must reproduce the naive
/// fold-join reference exactly.
fn assert_all_agree(db: &NamedDatabase, query: &str) {
    let q = parse_query(query).unwrap();
    let expected = execute_query_naive(db, &q).unwrap();
    for executor in EXECUTORS {
        for threads in THREADS {
            let (got, _) = run(db, query, executor, threads);
            assert_eq!(
                got,
                expected,
                "{query} diverged under {} at {threads} threads",
                executor.name()
            );
        }
    }
}

/// Hub-patterned triangle over named relations: `(0, v)` and `(u, 0)` rows
/// make every pairwise join quadratic while the cyclic output stays linear
/// — maximal skew, the WCOJ backend's home terrain.
fn hub_triangle(m: i64) -> NamedDatabase {
    let mut rows: Vec<Vec<i64>> = Vec::new();
    for v in 0..=m {
        rows.push(vec![0, v]);
    }
    for u in 1..=m {
        rows.push(vec![u, 0]);
    }
    let slices: Vec<&[i64]> = rows.iter().map(std::vec::Vec::as_slice).collect();
    let mut db = NamedDatabase::new();
    db.add_relation("r", &["a", "b"], &slices).unwrap();
    db.add_relation("s", &["b", "c"], &slices).unwrap();
    db.add_relation("t", &["c", "a"], &slices).unwrap();
    db
}

const TRIANGLE: &str = "Q(x, y, z) :- r(x, y), s(y, z), t(z, x).";

#[test]
fn executors_agree_on_the_skewed_cyclic_triangle() {
    assert_all_agree(&hub_triangle(25), TRIANGLE);
}

#[test]
fn executors_agree_on_an_acyclic_chain() {
    let mut db = NamedDatabase::new();
    db.add_relation("r", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 11], &[3, 12]])
        .unwrap();
    db.add_relation("s", &["b", "c"], &[&[10, 20], &[11, 21], &[12, 22]])
        .unwrap();
    db.add_relation("t", &["c", "d"], &[&[20, 5], &[21, 5], &[22, 6]])
        .unwrap();
    assert_all_agree(&db, "Q(a, d) :- r(a, b), s(b, c), t(c, d).");
}

#[test]
fn executors_agree_when_one_relation_is_empty() {
    let mut db = hub_triangle(10);
    db.add_relation("z", &["b", "c"], &[]).unwrap();
    // The empty atom annihilates the whole (connected) join.
    assert_all_agree(&db, "Q(x, y, z) :- r(x, y), z(y, z), t(z, x).");
}

#[test]
fn executors_agree_across_disconnected_components() {
    let mut db = hub_triangle(8);
    db.add_relation("u", &["p", "q"], &[&[1, 2], &[3, 4]])
        .unwrap();
    // Two components: the cyclic triangle and an independent edge — the
    // per-component decisions may differ, the cross product must not.
    assert_all_agree(&db, "Q(x, p) :- r(x, y), s(y, z), t(z, x), u(p, q).");
}

#[test]
fn auto_routes_the_triangle_to_wcoj_with_justifying_bounds() {
    let db = hub_triangle(25);
    let (_, decisions) = run(&db, TRIANGLE, ExecutorKind::Auto, 1);
    assert_eq!(decisions.len(), 1);
    let d = &decisions[0];
    assert_eq!(d.executor, ExecutorKind::Wcoj);
    let (agm, cert) = (d.agm_bound.unwrap(), d.cert_bound.unwrap());
    assert!(
        agm < cert,
        "wcoj selected but AGM {agm} does not undercut certificate {cert}"
    );
}

#[test]
fn auto_keeps_the_program_engine_on_a_tie() {
    let mut db = NamedDatabase::new();
    db.add_relation("r", &["a", "b"], &[&[1, 2], &[2, 2]])
        .unwrap();
    db.add_relation("s", &["b", "c"], &[&[2, 3], &[2, 4]])
        .unwrap();
    // A single binary join: the final statement's certificate IS the AGM
    // bound of the whole component, so the bounds tie and the tie keeps
    // the program engine.
    let (_, decisions) = run(&db, "Q(a, c) :- r(a, b), s(b, c).", ExecutorKind::Auto, 1);
    assert_eq!(decisions.len(), 1);
    let d = &decisions[0];
    assert_eq!(d.executor, ExecutorKind::Program);
    assert_eq!(d.agm_bound, d.cert_bound);
}

/// `auto` over a hub graph as the engine decides it, with no hints: the
/// selection, and the run it leads to checked against the graph's
/// closed-form join size.
fn hub_auto(graph: &HubGraph, plan: Plan) -> Selection {
    let mut catalog = Catalog::new();
    let scheme = graph.scheme(&mut catalog);
    let db = graph.database(&mut catalog);
    let prepared = engine::prepare(scheme, db, catalog, plan, ExecutorKind::Auto).unwrap();
    let sel = prepared.analysis().selection();
    assert!(
        sel.cert_bound >= sel.agm_bound,
        "certificate {} below AGM {}",
        sel.cert_bound,
        sel.agm_bound
    );
    let admitted = prepared.admit(&Limits::default()).unwrap();
    let out = admitted.execute(1, None, None).unwrap();
    assert_eq!(out.decision.executor == ExecutorKind::Wcoj, sel.use_wcoj);
    assert_eq!(out.result.len() as u64, graph.join_size());
    sel
}

fn searched(strategy: PlanStrategy) -> Plan {
    Plan::Search {
        strategy,
        oracle: Oracle::Estimate,
    }
}

/// The selection is a property of the derived program, not of the scheme.
/// Where every Cartesian-free program is certified strictly above the AGM
/// bound (the triangle, the skewed `K4`) `auto` takes the worst-case-optimal
/// executor; where the certificate ties it (the 4-cycle, whose output can
/// itself be quadratic) the tie keeps the program engine. The 5-cycle does
/// both: its greedy (bushy) program ties the bound, its best *linear*
/// program passes through a 4-edge path certified strictly above it.
#[test]
fn auto_selection_on_hub_graphs_follows_the_derived_program() {
    let greedy = || searched(PlanStrategy::Greedy);
    assert!(hub_auto(&HubGraph::cycle(3, 40), greedy()).use_wcoj);
    assert!(hub_auto(&HubGraph::clique_skew(40, 4), greedy()).use_wcoj);
    let tie = hub_auto(&HubGraph::cycle(4, 40), greedy());
    assert!(!tie.use_wcoj && tie.cert_bound == tie.agm_bound);

    let pentagon = HubGraph::cycle(5, 40);
    let bushy = hub_auto(&pentagon, greedy());
    assert!(!bushy.use_wcoj && bushy.cert_bound == bushy.agm_bound);
    let linear = hub_auto(&pentagon, searched(PlanStrategy::DpLinear));
    assert_eq!(linear.agm_bound, bushy.agm_bound);
    assert!(linear.use_wcoj && linear.cert_bound > linear.agm_bound);
}

/// `K4` at uniform scale: the scheme's AGM bound is the matching product
/// `N²`. The greedy tree passes through a star (three edges at one vertex)
/// certified at `N³`, so `auto` replaces it; the tree `dp-cpf` finds over
/// the same scheme and data never leaves `N²`, ties, and is kept.
#[test]
fn auto_routes_the_uniform_clique_on_the_tree_not_the_scheme() {
    let k4 = HubGraph::clique(4, 40);
    let n = k4.relation_size(0);
    let star = hub_auto(&k4, searched(PlanStrategy::Greedy));
    assert!(star.use_wcoj);
    assert_eq!((star.agm_bound, star.cert_bound), (n.pow(2), n.pow(3)));
    let kept = hub_auto(&k4, searched(PlanStrategy::DpCpf));
    assert!(!kept.use_wcoj);
    assert_eq!((kept.agm_bound, kept.cert_bound), (n.pow(2), n.pow(2)));
}

/// `auto` may only pick an executor whose stated bound is the smaller
/// side: WCOJ needs a strict AGM win, the program engine keeps ties.
fn assert_decisions_justified(decisions: &[ComponentDecision], ctx: &str) {
    for d in decisions {
        let (Some(agm), Some(cert)) = (d.agm_bound, d.cert_bound) else {
            continue;
        };
        match d.executor {
            ExecutorKind::Wcoj => assert!(
                agm < cert,
                "{ctx}: component {} ran wcoj with AGM {agm} >= certificate {cert}",
                d.component
            ),
            ExecutorKind::Program => assert!(
                agm >= cert,
                "{ctx}: component {} kept the program with AGM {agm} < certificate {cert}",
                d.component
            ),
            ExecutorKind::Auto => panic!("{ctx}: a decision must name a concrete executor"),
        }
    }
}

/// A string label, drawn from the domain `n.name` and `m.v` share.
fn label(i: i64) -> Value {
    Value::str(format!("s{i}"))
}

/// What the WCOJ kernel specializes on, beside integers: `n` is
/// string-labelled; `m.k` holds the same integers as `e`'s columns but is
/// dictionary-interned (one string key forces it), and `m.v` mixes integers
/// with `n`'s labels.
fn add_typed_relations(db: &mut NamedDatabase, names: &[(i64, i64)], mixed: &[(i64, i64)]) {
    let rows = names.iter().map(|&(n, s)| vec![Value::Int(n), label(s)]);
    db.add_relation_values("n", &["node", "name"], rows.collect())
        .unwrap();
    let mut rows: Vec<Vec<Value>> = mixed
        .iter()
        .map(|&(k, v)| {
            let v = if v < 3 { Value::Int(v) } else { label(v - 3) };
            vec![Value::Int(k), v]
        })
        .collect();
    rows.push(vec![Value::str("key"), label(0)]);
    db.add_relation_values("m", &["k", "v"], rows).unwrap();
}

/// Random edge + label relations, as in the cq property suite, plus the
/// string and mixed relations of [`add_typed_relations`].
fn db_strategy() -> impl Strategy<Value = NamedDatabase> {
    (
        prop::collection::vec((0i64..8, 0i64..8), 1..40),
        prop::collection::vec((0i64..8, 0i64..3), 1..12),
        prop::collection::vec((0i64..8, 0i64..4), 1..12),
        prop::collection::vec((0i64..8, 0i64..6), 1..16),
    )
        .prop_map(|(edges, labels, names, mixed)| {
            let mut db = NamedDatabase::new();
            let erefs: Vec<Vec<i64>> = edges.iter().map(|&(a, b)| vec![a, b]).collect();
            let eslice: Vec<&[i64]> = erefs.iter().map(std::vec::Vec::as_slice).collect();
            db.add_relation("e", &["s", "d"], &eslice).unwrap();
            let lrefs: Vec<Vec<i64>> = labels.iter().map(|&(n, t)| vec![n, t]).collect();
            let lslice: Vec<&[i64]> = lrefs.iter().map(std::vec::Vec::as_slice).collect();
            db.add_relation("l", &["n", "t"], &lslice).unwrap();
            add_typed_relations(&mut db, &names, &mixed);
            db
        })
}

/// Queries over the typed relations, one per thing the kernel branches on.
const STRING_LABELLED: &str = "Q(x, name) :- e(x, y), n(y, name).";
const MIXED_KEY: &str = "Q(x, v) :- e(x, y), m(y, v).";
const MIXED_CYCLE: &str = "Q(x, y, v) :- e(x, y), m(y, v), m(x, v).";
const CROSS_POOL: &str = "Q(a, b) :- n(a, b), m(a, b).";
const REPEATED_SCHEME: &str = "Q(x, y) :- e(x, y), l(x, y).";

const QUERIES: &[&str] = &[
    "Q(x, z) :- e(x, y), e(y, z).",
    "Q(x, y, z) :- e(x, y), e(y, z), e(z, x).",
    "Q(a, b, c, d) :- e(a, b), e(b, c), e(c, d), e(d, a).",
    "Q(a, d) :- e(a, b), e(b, c), e(c, d).",
    "Q(x, t) :- e(x, y), l(y, t).",
    "Q(x) :- e(x, y), l(y, 1).",
    "Q(x, w) :- e(x, y), e(z, w), l(y, 0), l(z, 0).",
    "Q(a, c) :- e(a, b), e(b, c), e(a, c).",
    STRING_LABELLED,
    MIXED_KEY,
    MIXED_CYCLE,
    CROSS_POOL,
    REPEATED_SCHEME,
];

/// A fixed instance of [`db_strategy`]'s shape with every typed query
/// non-empty.
fn typed_db() -> NamedDatabase {
    let mut db = NamedDatabase::new();
    db.add_relation(
        "e",
        &["s", "d"],
        &[&[1, 2], &[2, 3], &[3, 1], &[1, 3], &[4, 1], &[2, 2]],
    )
    .unwrap();
    db.add_relation("l", &["n", "t"], &[&[1, 2], &[2, 2], &[4, 1], &[3, 0]])
        .unwrap();
    add_typed_relations(
        &mut db,
        &[(1, 0), (2, 1), (3, 1), (3, 3), (5, 2)],
        &[(1, 0), (2, 0), (2, 4), (3, 4), (3, 5), (1, 3), (5, 5)],
    );
    db
}

fn assert_agree_nonempty(db: &NamedDatabase, query: &str) {
    let q = parse_query(query).unwrap();
    assert!(!execute_query_naive(db, &q).unwrap().is_empty(), "{query}");
    assert_all_agree(db, query);
}

#[test]
fn executors_agree_on_a_string_labelled_relation() {
    assert_agree_nonempty(&typed_db(), STRING_LABELLED);
}

/// `y` is a dense integer column in `e` and an interned one in `m`; `v` is
/// an int/string mixed column, intersected with itself and — across pools —
/// with `n`'s pure-string labels.
#[test]
fn executors_agree_on_mixed_and_interned_integer_columns() {
    let db = typed_db();
    for query in [MIXED_KEY, MIXED_CYCLE, CROSS_POOL] {
        assert_agree_nonempty(&db, query);
    }
}

/// `t` (and `name`) is eliminated last and only one atom mentions it: the
/// kernel appends that atom's whole trie node per binding of the prefix.
#[test]
fn executors_agree_when_one_relation_covers_the_last_attribute() {
    let db = typed_db();
    assert_agree_nonempty(&db, "Q(x, y, t) :- e(x, y), l(y, t).");
    assert_agree_nonempty(&db, "Q(x, y, name) :- e(x, y), n(y, name).");
}

#[test]
fn executors_agree_on_a_repeated_scheme() {
    assert_agree_nonempty(&typed_db(), REPEATED_SCHEME);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_executors_match_the_naive_reference(
        db in db_strategy(),
        qidx in 0usize..QUERIES.len(),
    ) {
        let q = parse_query(QUERIES[qidx]).unwrap();
        let expected = execute_query_naive(&db, &q).unwrap();
        for executor in EXECUTORS {
            for threads in [1usize, 4] {
                let (got, _) = run(&db, QUERIES[qidx], executor, threads);
                prop_assert_eq!(
                    &got, &expected,
                    "query {} under {} at {} threads",
                    QUERIES[qidx], executor.name(), threads
                );
            }
        }
    }

    #[test]
    fn auto_never_selects_the_larger_bound(
        db in db_strategy(),
        qidx in 0usize..QUERIES.len(),
    ) {
        let (_, decisions) = run(&db, QUERIES[qidx], ExecutorKind::Auto, 1);
        assert_decisions_justified(&decisions, QUERIES[qidx]);
    }
}
