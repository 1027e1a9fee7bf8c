//! Which physical kernel fires where: one traced 4-thread run per workload,
//! asserting the operator strategies the executor is supposed to pick, the
//! `JoinIndex` layouts they probe (dense on the single-integer keys of the
//! star and hub shapes, hash on a two-column key), that some index probe of
//! the expected layout ran in more than one chunk, and the `index_cache.*`
//! traffic on the workloads built to exercise the cache. Correctness tests
//! cannot see either failure mode — a wide workload falling off the chunked
//! paths, or the join-index cache going cold — because every path computes
//! the same relation.
//!
//! The workload sizes are the point (the expectations are about which side
//! of `ops::SMALL` each operand lands on), so they are never shrunk; the
//! unoptimised build skips the test instead.
//!
//! Alone in its file on purpose: the trace sink is process-global, and the
//! counters below would absorb those of any test running beside this one.

use mjoin_core::derive;
use mjoin_expr::JoinTree;
use mjoin_hypergraph::DbScheme;
use mjoin_program::{execute_with, ExecConfig, Program, ProgramBuilder, Reg};
use mjoin_relation::{AttrId, Catalog, Database, Relation, Schema, Value};
use mjoin_trace::ArgValue;
use mjoin_workloads::{star_schema, CycleGap, Example3, StarSchemaConfig};

type Workload = (Database, Program);

fn derived_left_deep(scheme: &DbScheme, db: Database) -> Workload {
    let order: Vec<usize> = (0..scheme.num_relations()).collect();
    let program = derive(scheme, &JoinTree::left_deep(&order))
        .unwrap()
        .program;
    (db, program)
}

fn ints(attrs: Vec<AttrId>, rows: impl Iterator<Item = Vec<i64>>) -> Relation {
    let rows = rows
        .map(|r| r.into_iter().map(Value::Int).collect::<Vec<_>>().into())
        .collect();
    Relation::from_rows(Schema::new(attrs), rows).unwrap()
}

fn over(rels: Vec<Relation>) -> (DbScheme, Database) {
    let schemas: Vec<Schema> = rels.iter().map(|r| r.schema().clone()).collect();
    (
        DbScheme::from_schemas(&schemas),
        Database::from_relations(rels),
    )
}

/// Example 3 (the paper's adversarial cycle), scaled until the derived
/// program moves ~10⁵ tuples per statement.
fn example3_m30() -> Workload {
    let mut c = Catalog::new();
    let scheme = Example3::scheme(&mut c);
    let db = Example3::new(30).database(&mut c);
    let program = derive(&scheme, &Example3::optimal_tree()).unwrap().program;
    (db, program)
}

fn star(dimensions: usize, fact_rows: usize, dim_rows: usize, seed: u64) -> (DbScheme, Database) {
    let cfg = StarSchemaConfig {
        dimensions,
        fact_rows,
        dim_rows,
        key_coverage: 1.0,
        skew: 0.0,
        seed,
    };
    star_schema(&mut Catalog::new(), &cfg)
}

/// Acyclic, so Algorithm 2 emits a full-reducer semijoin program — reads of
/// the big fact relation dominate.
fn star_d6_f60k() -> Workload {
    let (scheme, db) = star(6, 60_000, 2_000, 42);
    derived_left_deep(&scheme, db)
}

/// An 11-dimension star whose fact relation carries 12 attributes.
fn star_wide() -> Workload {
    let (scheme, db) = star(11, 40_000, 1_500, 7);
    derived_left_deep(&scheme, db)
}

/// A cyclic scheme with one weak edge.
fn cycle_gap_n6_m40() -> Workload {
    let mut c = Catalog::new();
    let cg = CycleGap::new(6, 40);
    let scheme = cg.scheme(&mut c);
    let db = cg.database(&mut c);
    derived_left_deep(&scheme, db)
}

/// Algorithm 2's programs are serial chains; this hand-built star program
/// has a width-6 level: one key projection per dimension, then the fact
/// reduced by each projected key set.
fn star_wide_reducer() -> Workload {
    let (scheme, db) = star(6, 60_000, 2_000, 42);
    let mut b = ProgramBuilder::new(&scheme);
    let v = b.new_temp_alias("V", Reg::Base(0));
    let keys: Vec<Reg> = (1..scheme.num_relations())
        .map(|dim| {
            let x = b.new_temp(format!("K{dim}"));
            let key = scheme.attrs_of(0).intersect(scheme.attrs_of(dim));
            b.project(x, Reg::Base(dim), key);
            x
        })
        .collect();
    for x in keys {
        b.semijoin(v, x);
    }
    (db, b.finish(v))
}

/// A 12-attribute 150k-row relation swept by ten single-attribute semijoin
/// filters that never shrink it.
fn wide_filter_sweep() -> Workload {
    let mut c = Catalog::new();
    let attrs: Vec<AttrId> = (0..12).map(|i| c.intern(&format!("a{i}"))).collect();
    let base = ints(
        attrs.clone(),
        (0..150_000).map(|i| {
            (0..12)
                .map(|j| if j == 0 { i } else { (i * 31 + j) % 1000 })
                .collect()
        }),
    );
    let mut rels = vec![base];
    rels.extend((1..=10).map(|f| ints(vec![attrs[f]], (0..1000).map(|v| vec![v]))));
    let (scheme, db) = over(rels);
    let mut b = ProgramBuilder::new(&scheme);
    let v = b.new_temp_alias("V", Reg::Base(0));
    for f in 1..=10 {
        b.semijoin(v, Reg::Base(f));
    }
    (db, b.finish(v))
}

/// Twelve independent joins of 100-row key lists against one 16-attribute
/// 300k-row base — the point-lookup access pattern, a width-12 level.
fn selective_probe_fanout() -> Workload {
    const ROWS: i64 = 300_000;
    let mut c = Catalog::new();
    let attrs: Vec<AttrId> = (0..16).map(|i| c.intern(&format!("a{i}"))).collect();
    let base = ints(
        attrs.clone(),
        (0..ROWS).map(|i| {
            (0..16)
                .map(|j| if j == 0 { i } else { i * 17 + j })
                .collect()
        }),
    );
    let mut rels = vec![base];
    rels.extend((0..12).map(|p| {
        let b_attr = c.intern(&format!("b{p}"));
        let hits = (0..100).map(|j| vec![(p * 1009 + j * 2003) % ROWS, j]);
        ints(vec![attrs[0], b_attr], hits)
    }));
    let (scheme, db) = over(rels);
    let mut b = ProgramBuilder::new(&scheme);
    let hits: Vec<Reg> = (1..=12)
        .map(|p| {
            let w = b.new_temp(format!("W{p}"));
            b.join(w, Reg::Base(0), Reg::Base(p));
            w
        })
        .collect();
    for &w in &hits[1..] {
        b.join(hits[0], hits[0], w);
    }
    (db, b.finish(hits[0]))
}

/// The join-index-cache showcase: ten 6k-row spokes each reduced by the same
/// 150k-row hub at the same key (one shared hub index serves the whole
/// width-10 level), the spokes' keys intersected down a chain and folded
/// back into the hub.
fn hub_fanout_reducer() -> Workload {
    const B_DOMAIN: i64 = 3_000;
    let mut c = Catalog::new();
    let (a, b_attr) = (c.intern("A"), c.intern("B"));
    let hub = ints(vec![a, b_attr], (0..150_000).map(|i| vec![i, i % B_DOMAIN]));
    let mut rels = vec![hub];
    rels.extend((0..10).map(|s| {
        let ci = c.intern(&format!("C{s}"));
        let rows = (0..6_000).map(|j| vec![(j * 97 + s * 13) % B_DOMAIN, j]);
        ints(vec![b_attr, ci], rows)
    }));
    let (scheme, db) = over(rels);
    let mut b = ProgramBuilder::new(&scheme);
    for s in 1..=10 {
        b.semijoin(Reg::Base(s), Reg::Base(0));
    }
    let keys: Vec<Reg> = (1..=10)
        .map(|s| {
            let x = b.new_temp(format!("K{s}"));
            let key = scheme.attrs_of(0).intersect(scheme.attrs_of(s));
            b.project(x, Reg::Base(s), key);
            x
        })
        .collect();
    // Same-schema join = intersection.
    for &k in &keys[1..] {
        b.join(keys[0], keys[0], k);
    }
    b.semijoin(Reg::Base(0), keys[0]);
    (db, b.finish(Reg::Base(0)))
}

/// Two relations sharing a two-attribute key: the join index over it keeps
/// the hash layout however narrow the key values are.
fn two_column_key() -> Workload {
    let mut c = Catalog::new();
    let [a, b_attr, x, y] = ["A", "B", "X", "Y"].map(|n| c.intern(n));
    let left = ints(
        vec![a, b_attr, x],
        (0..20_000).map(|i| vec![i % 100, i / 100, i]),
    );
    let right = ints(
        vec![a, b_attr, y],
        (0..30_000).map(|i| vec![i % 97, i % 200, i]),
    );
    let (scheme, db) = over(vec![left, right]);
    let mut b = ProgramBuilder::new(&scheme);
    let w = b.new_temp("W");
    b.join(w, Reg::Base(0), Reg::Base(1));
    (db, b.finish(w))
}

/// (workload, its builder, `name[strategy]` spans that must appear, the
/// `JoinIndex` layouts their probes read — exactly these, the first of them
/// on some probe of more than one chunk when probes are chunked —, whether
/// some probe must run in more than one chunk — `false`: every probe runs
/// as one, counters with their required minimum).
type Expectation = (
    &'static str,
    fn() -> Workload,
    &'static [&'static str],
    &'static [&'static str],
    bool,
    &'static [(&'static str, u64)],
);

const CHUNKED: bool = true;

const EXPECT: &[Expectation] = &[
    (
        "example3_m30",
        example3_m30,
        &["join[indexed_probe]", "semijoin[indexed_probe]"],
        &["dense", "hash"],
        CHUNKED,
        &[],
    ),
    (
        "star_d6_f60k",
        star_d6_f60k,
        &["join[indexed_probe]", "semijoin[indexed_probe]"],
        &["dense"],
        CHUNKED,
        &[],
    ),
    (
        "star_wide",
        star_wide,
        &["join[indexed_probe]", "semijoin[indexed_probe]"],
        &["dense"],
        CHUNKED,
        &[],
    ),
    (
        "cycle_gap_n6_m40",
        cycle_gap_n6_m40,
        &["join[indexed_probe]"],
        &["dense", "hash"],
        CHUNKED,
        &[],
    ),
    (
        "star_wide_reducer",
        star_wide_reducer,
        &["semijoin[indexed_probe]"],
        &["dense"],
        CHUNKED,
        &[],
    ),
    (
        "wide_filter_sweep",
        wide_filter_sweep,
        &["semijoin[indexed_probe]"],
        &["dense"],
        CHUNKED,
        &[],
    ),
    (
        "selective_probe_fanout",
        selective_probe_fanout,
        &["join[indexed_probe]"],
        &["dense", "hash"],
        // Point lookups: twelve 100-row probes of one shared index, none
        // of them wide enough to cut into chunks.
        !CHUNKED,
        &[("index_cache.hit", 1)],
    ),
    (
        "hub_fanout_reducer",
        hub_fanout_reducer,
        &["semijoin[indexed_probe]"],
        &["dense"],
        CHUNKED,
        &[("index_cache.hit", 9), ("index_cache.insert", 1)],
    ),
    (
        "two_column_key",
        two_column_key,
        &["join[indexed_probe]"],
        &["hash"],
        CHUNKED,
        &[],
    ),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release step: the workloads are sized to cross ops::SMALL"
)]
fn each_workload_fires_its_operator_strategies_and_cache_traffic() {
    let mut failures = Vec::new();
    for &(name, build, ops, layouts, chunked, counters) in EXPECT {
        let (db, program) = build();
        mjoin_trace::clear();
        mjoin_trace::set_enabled(true);
        let out = execute_with(&program, &db, &ExecConfig::with_threads(4));
        mjoin_trace::set_enabled(false);
        let trace = mjoin_trace::take();
        assert!(!out.head_sizes.is_empty(), "{name}: ran no statement");

        let seen: Vec<String> = trace
            .aggregate()
            .into_iter()
            .filter_map(|row| row.key.strip_prefix("op/").map(str::to_string))
            .collect();
        for want in ops {
            if !seen.iter().any(|k| k == want) {
                failures.push(format!("{name}: expected strategy {want}, saw {seen:?}"));
            }
        }
        let probes: Vec<(&str, i64)> = trace
            .events
            .iter()
            .filter(|e| e.cat == "op" && matches!(e.name, "join" | "semijoin"))
            .map(|e| {
                let layout = e.arg("layout").and_then(ArgValue::as_str).unwrap_or("none");
                (
                    layout,
                    e.arg("chunks").and_then(ArgValue::as_int).unwrap_or(0),
                )
            })
            .collect();
        let widest = probes.iter().map(|&(_, chunks)| chunks).max().unwrap_or(0);
        if chunked != (widest > 1) {
            failures.push(format!(
                "{name}: the widest join/semijoin probe ran in {widest} chunks"
            ));
        }
        let mut seen_layouts: Vec<&str> = probes.iter().map(|&(layout, _)| layout).collect();
        seen_layouts.sort_unstable();
        seen_layouts.dedup();
        if seen_layouts != layouts {
            failures.push(format!(
                "{name}: expected layouts {layouts:?}, saw {seen_layouts:?}"
            ));
        }
        let chunked_in = |want: &str| probes.iter().any(|&(l, chunks)| l == want && chunks > 1);
        if chunked && !chunked_in(layouts[0]) {
            failures.push(format!(
                "{name}: no {} probe ran in more than one chunk",
                layouts[0]
            ));
        }
        for &(counter, min) in counters {
            let got = trace.counter(counter).unwrap_or(0);
            if got < min {
                failures.push(format!("{name}: {counter} = {got}, expected >= {min}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
