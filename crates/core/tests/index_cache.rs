//! Differential oracle for the join-index cache: cached execution must be
//! observably identical to execution through a `(0, 0)`-budget cache that
//! refuses every index, so each statement builds its own — same result
//! relation, cost ledger, head sizes, and peak-resident footprint —
//! sequentially and in parallel across thread counts. Includes programs that rewrite a register
//! between reads (exercising invalidation), fan-out levels that share one
//! prebuilt index, budgets small enough to force eviction, and warm runs
//! of a reducer that rewrites its base registers on one shared cache —
//! among them one over two equal-valued relations on different attributes.
//!
//! The trace sink is process-global, so the tests take turns ([`serial`]):
//! one that reads exact counters must not absorb another's.

use mjoin_core::derive;
use mjoin_expr::JoinTree;
use mjoin_hypergraph::DbScheme;
use mjoin_program::{
    execute_with, ExecConfig, IndexCache, Program, ProgramBuilder, Reg, DEFAULT_CACHE_BYTES,
    DEFAULT_CACHE_TUPLES,
};
use mjoin_relation::ops::{join_key_positions, JoinIndex};
use mjoin_relation::{relation_of_ints, Catalog, Database};
use mjoin_workloads::{random_database, DataGenConfig};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn left_deep(n: usize) -> JoinTree {
    let mut t = JoinTree::leaf(0);
    for i in 1..n {
        t = JoinTree::join(t, JoinTree::leaf(i));
    }
    t
}

/// One thread, through a cache that refuses every index: no statement
/// reuses another's build.
fn no_memo() -> ExecConfig {
    ExecConfig {
        cache: Some(IndexCache::shared(0, 0)),
        ..ExecConfig::default()
    }
}

/// Run `p` without memoization sequentially (the oracle), then assert that
/// every cached and non-memoizing execution at every thread count observes
/// the same outcome.
fn assert_cache_transparent(p: &Program, db: &Database, label: &str) {
    let oracle = execute_with(p, db, &no_memo());
    for threads in THREADS {
        for cached in [false, true] {
            let cfg = if cached {
                ExecConfig::with_threads(threads)
            } else {
                ExecConfig {
                    threads,
                    ..no_memo()
                }
            };
            let out = execute_with(p, db, &cfg);
            assert_eq!(
                *out.result, *oracle.result,
                "{label}: result differs (threads={threads}, cached={cached})"
            );
            assert_eq!(
                out.head_sizes, oracle.head_sizes,
                "{label}: head sizes differ (threads={threads}, cached={cached})"
            );
            assert_eq!(
                out.ledger, oracle.ledger,
                "{label}: ledger differs (threads={threads}, cached={cached})"
            );
            assert_eq!(
                out.peak_resident, oracle.peak_resident,
                "{label}: peak resident differs (threads={threads}, cached={cached})"
            );
        }
    }
}

/// A program that joins through a register, rewrites that register, then
/// joins through it again: the index cached over the old value (an input,
/// so it stays cached) must not leak into the re-read.
#[test]
fn register_rewrite_between_reads_is_transparent() {
    let _serial = serial();
    let mut c = Catalog::new();
    let scheme = DbScheme::parse(&mut c, &["AB", "BC", "CD"]);
    for seed in 0..4 {
        let db = random_database(
            &scheme,
            &DataGenConfig {
                tuples_per_relation: 80,
                domain: 9,
                seed,
                plant_witness: true,
            },
        );
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1)); // caches an index over BC
        b.semijoin(Reg::Base(1), Reg::Base(2)); // rewrites BC
        b.join(v, v, Reg::Base(1)); // must read the reduced BC
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        assert_cache_transparent(&p, &db, &format!("rewrite-between-reads seed {seed}"));
    }
}

/// The same filter relation reduced into repeatedly — every write to the
/// target register after the first invalidates the previous value's
/// indices (the first overwrites an input, whose indices stay).
#[test]
fn repeated_reduction_of_one_register_is_transparent() {
    let _serial = serial();
    let mut c = Catalog::new();
    let scheme = DbScheme::parse(&mut c, &["AB", "BC", "AC"]);
    let db = random_database(
        &scheme,
        &DataGenConfig {
            tuples_per_relation: 120,
            domain: 10,
            seed: 7,
            plant_witness: true,
        },
    );
    let mut b = ProgramBuilder::new(&scheme);
    b.semijoin(Reg::Base(0), Reg::Base(1));
    b.semijoin(Reg::Base(0), Reg::Base(2));
    b.semijoin(Reg::Base(1), Reg::Base(0));
    b.semijoin(Reg::Base(2), Reg::Base(0));
    let v = b.new_temp_alias("V", Reg::Base(0));
    b.join(v, v, Reg::Base(1));
    b.join(v, v, Reg::Base(2));
    let p = b.finish(v);
    assert_cache_transparent(&p, &db, "repeated reduction");
}

/// Derived (Algorithm 2) programs over the standard scheme families.
#[test]
fn derived_programs_are_cache_transparent() {
    let _serial = serial();
    for (family, name) in [(0usize, "chain"), (1, "cycle"), (2, "star")] {
        let mut c = Catalog::new();
        let scheme = match family {
            0 => mjoin_workloads::schemes::chain(&mut c, 5),
            1 => mjoin_workloads::schemes::cycle(&mut c, 4),
            _ => mjoin_workloads::schemes::star(&mut c, 4),
        };
        for seed in 0..3 {
            let db = random_database(
                &scheme,
                &DataGenConfig {
                    tuples_per_relation: 60,
                    domain: 7,
                    seed,
                    plant_witness: true,
                },
            );
            let d = derive(&scheme, &left_deep(scheme.num_relations())).unwrap();
            assert_cache_transparent(&d.program, &db, &format!("{name} seed {seed}"));
        }
    }
}

/// A hub fan-out: three independent semijoins filter through the same
/// relation at the same key, so one parallel level wants one shared index.
fn hub_fanout(c: &mut Catalog) -> (DbScheme, Program) {
    let scheme = DbScheme::parse(c, &["AB", "BC", "BD", "BE"]);
    let mut b = ProgramBuilder::new(&scheme);
    b.semijoin(Reg::Base(1), Reg::Base(0));
    b.semijoin(Reg::Base(2), Reg::Base(0));
    b.semijoin(Reg::Base(3), Reg::Base(0));
    let v = b.new_temp_alias("V", Reg::Base(1));
    b.join(v, v, Reg::Base(2));
    b.join(v, v, Reg::Base(3));
    b.join(v, v, Reg::Base(0));
    (scheme.clone(), b.finish(v))
}

#[test]
fn fanout_program_is_cache_transparent() {
    let _serial = serial();
    let mut c = Catalog::new();
    let (scheme, p) = hub_fanout(&mut c);
    for seed in 0..3 {
        let db = random_database(
            &scheme,
            &DataGenConfig {
                tuples_per_relation: 200,
                domain: 16,
                seed,
                plant_witness: true,
            },
        );
        assert_cache_transparent(&p, &db, &format!("hub fanout seed {seed}"));
    }
}

/// The fan-out actually hits: with tracing on, the cached run records
/// index-cache hits (the hub's index is built once and reused) and at
/// least one insert.
#[test]
fn fanout_records_cache_hits() {
    let _serial = serial();
    let mut c = Catalog::new();
    let (scheme, p) = hub_fanout(&mut c);
    let db = random_database(
        &scheme,
        &DataGenConfig {
            tuples_per_relation: 300,
            domain: 20,
            seed: 1,
            plant_witness: true,
        },
    );
    for threads in [1, 4] {
        mjoin_trace::set_enabled(true);
        mjoin_trace::clear();
        let _ = execute_with(&p, &db, &ExecConfig::with_threads(threads));
        let t = mjoin_trace::take();
        mjoin_trace::set_enabled(false);
        assert!(
            t.counter("index_cache.hit").unwrap_or(0) >= 2,
            "expected ≥2 hub-index hits at {threads} threads"
        );
        assert!(
            t.counter("index_cache.insert").unwrap_or(0) >= 1,
            "expected an index insert at {threads} threads"
        );
        assert!(
            t.counter("index_cache.bytes_not_allocated").unwrap_or(0) > 0,
            "hits must account bytes not allocated at {threads} threads"
        );
    }
}

/// Tiny budgets force the cache to refuse or evict entries; execution must
/// stay correct either way.
#[test]
fn tiny_budget_evicts_but_stays_correct() {
    let _serial = serial();
    let mut c = Catalog::new();
    let (scheme, p) = hub_fanout(&mut c);
    let db = random_database(
        &scheme,
        &DataGenConfig {
            tuples_per_relation: 150,
            domain: 12,
            seed: 3,
            plant_witness: true,
        },
    );
    let oracle = execute_with(&p, &db, &no_memo());
    for budget in [0, 1, 40, 10_000] {
        for threads in [1, 4] {
            let cfg = ExecConfig {
                threads,
                cache: Some(IndexCache::shared(budget, DEFAULT_CACHE_BYTES)),
                ..ExecConfig::default()
            };
            let out = execute_with(&p, &db, &cfg);
            assert_eq!(
                *out.result, *oracle.result,
                "budget={budget} threads={threads}"
            );
            assert_eq!(out.head_sizes, oracle.head_sizes);
        }
    }
}

/// A reducer that rewrites every base register, the hub last, as a
/// server's compiled reducer does: each spoke by the hub, then the hub by
/// each spoke. The hub `AB` is the smallest relation, so every index the
/// program builds is at least as large as the hub's. Every `B` of the hub
/// is in the first two spokes and the last misses five, so the hub's
/// first two rewrites keep every row and the last one filters. The spokes'
/// other columns differ, so no two relations share a fingerprint.
fn rewriting_reducer(c: &mut Catalog) -> (Program, Database) {
    let hub: Vec<Vec<i64>> = (0..40).map(|i| vec![i, i]).collect();
    let spoke = |lo: i64, tag: i64| -> Vec<Vec<i64>> {
        (lo..60)
            .flat_map(|b| (0..4).map(move |x| vec![b, tag + x]))
            .collect()
    };
    let rel = |c: &mut Catalog, scheme: &str, rows: &[Vec<i64>]| {
        let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        relation_of_ints(c, scheme, &rows).unwrap()
    };
    let db = Database::from_relations(vec![
        rel(c, "AB", &hub),
        rel(c, "BC", &spoke(0, 100)),
        rel(c, "BD", &spoke(0, 200)),
        rel(c, "BE", &spoke(5, 300)),
    ]);
    let scheme = DbScheme::parse(c, &["AB", "BC", "BD", "BE"]);
    let mut b = ProgramBuilder::new(&scheme);
    for spoke in 1..=3 {
        b.semijoin(Reg::Base(spoke), Reg::Base(0));
    }
    for spoke in 1..=3 {
        b.semijoin(Reg::Base(0), Reg::Base(spoke));
    }
    (b.finish(Reg::Base(0)), db)
}

/// Three runs of `p` on one cache built at the given budgets, each over the
/// database `db` returns for it: each run's outcome must equal a
/// fresh-cache run's, and the cache's entry count after each run is
/// returned with the run's `(miss, insert)` counts.
fn warm_runs(
    p: &Program,
    db: &dyn Fn() -> Database,
    threads: usize,
    budget_bytes: u64,
) -> Vec<(usize, u64, u64)> {
    let fresh = execute_with(p, &db(), &ExecConfig::with_threads(threads));
    let shared = IndexCache::shared(DEFAULT_CACHE_TUPLES, budget_bytes);
    let cfg = ExecConfig {
        cache: Some(Arc::clone(&shared)),
        ..ExecConfig::with_threads(threads)
    };
    (1..=3)
        .map(|run| {
            mjoin_trace::set_enabled(true);
            mjoin_trace::clear();
            let out = execute_with(p, &db(), &cfg);
            let t = mjoin_trace::take();
            mjoin_trace::set_enabled(false);
            let at = format!("run {run}, {threads} threads, {budget_bytes} bytes");
            assert_eq!(*out.result, *fresh.result, "{at}: result");
            assert_eq!(out.ledger, fresh.ledger, "{at}: ledger");
            assert_eq!(out.head_sizes, fresh.head_sizes, "{at}: head sizes");
            let count = |name| t.counter(name).unwrap_or(0);
            let entries = shared.lock().unwrap().entries();
            (
                entries,
                count("index_cache.miss"),
                count("index_cache.insert"),
            )
        })
        .collect()
}

/// Rewriting a base register keeps the indices over the run's inputs, so a
/// warm run builds nothing: runs 2 and 3 on one shared cache miss and
/// insert nothing, the cache does not grow, and every run observes what a
/// fresh cache does. A byte budget below the hub's index caches nothing
/// and changes no observable.
#[test]
fn warm_runs_of_a_rewriting_reducer_build_nothing() {
    let _serial = serial();
    let mut c = Catalog::new();
    let (p, db) = rewriting_reducer(&mut c);
    let hub = &db.relations()[0];
    let key = join_key_positions(hub.schema(), db.relations()[1].schema()).0;
    let hub_bytes = JoinIndex::build(Arc::new(hub.clone()), key).resident_bytes() as u64;
    for threads in [1, 4] {
        let runs = warm_runs(&p, &|| db.clone(), threads, DEFAULT_CACHE_BYTES);
        let (entries, miss, insert) = runs[0];
        assert!(miss > 0 && insert > 0, "run 1 builds at {threads} threads");
        for &(e, m, i) in &runs[1..] {
            assert_eq!((m, i), (0, 0), "a warm run missed at {threads} threads");
            assert!(e <= entries, "the cache grew at {threads} threads");
        }
        // Under the budget every run is a cold run: it caches nothing and
        // misses as often as the first.
        let cold = warm_runs(&p, &|| db.clone(), threads, hub_bytes - 1);
        for &(e, m, i) in &cold {
            assert_eq!(e, 0, "an index was cached under the budget");
            assert_eq!(m, cold[0].1, "runs under the budget differ");
            assert!(m >= miss && i == m, "every miss builds and offers an index");
        }
    }
}

/// Two spokes with the same values on different attributes: their
/// fingerprints are equal, their schemas are not. Every run reads its
/// relations from a fresh `Database`, as a server resolves a catalog per
/// request, so a warm run finds each index through the fingerprint
/// directory. Keyed on the schema too, the spokes keep one alias each
/// instead of overwriting each other's, and runs 2 and 3 build nothing.
#[test]
fn warm_runs_over_equal_valued_spokes_build_nothing() {
    let _serial = serial();
    let mut c = Catalog::new();
    let scheme = DbScheme::parse(&mut c, &["AB", "BC", "BD"]);
    let c = RefCell::new(c);
    let hub: Vec<Vec<i64>> = (0..40).map(|i| vec![i, i]).collect();
    let spoke: Vec<Vec<i64>> = (0..60)
        .flat_map(|b| (0..4).map(move |x| vec![b, 100 + x]))
        .collect();
    let rel = |scheme: &str, rows: &[Vec<i64>]| {
        let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        relation_of_ints(&mut c.borrow_mut(), scheme, &rows).unwrap()
    };
    let db =
        || Database::from_relations(vec![rel("AB", &hub), rel("BC", &spoke), rel("BD", &spoke)]);
    let spokes = db();
    assert_eq!(
        spokes.relation(1).fingerprint(),
        spokes.relation(2).fingerprint(),
        "the spokes share a fingerprint"
    );
    assert_ne!(spokes.relation(1).schema(), spokes.relation(2).schema());
    let mut b = ProgramBuilder::new(&scheme);
    for spoke in 1..=2 {
        b.semijoin(Reg::Base(spoke), Reg::Base(0));
    }
    for spoke in 1..=2 {
        b.semijoin(Reg::Base(0), Reg::Base(spoke));
    }
    let p = b.finish(Reg::Base(0));
    for threads in [1, 4] {
        let runs = warm_runs(&p, &db, threads, DEFAULT_CACHE_BYTES);
        let (_, miss, insert) = runs[0];
        assert!(miss > 0 && insert > 0, "run 1 builds at {threads} threads");
        for &(_, m, i) in &runs[1..] {
            assert_eq!((m, i), (0, 0), "a warm run missed at {threads} threads");
        }
    }
}
