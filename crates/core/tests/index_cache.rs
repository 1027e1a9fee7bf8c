//! Differential oracle for the join-index cache: cached execution must be
//! observably identical to execution through a `(0, 0)`-budget cache that
//! refuses every index, so each statement builds its own — same result
//! relation, cost ledger, head sizes, and peak-resident footprint —
//! sequentially and in parallel across thread counts. Includes programs that rewrite a register
//! between reads (exercising invalidation), fan-out levels that share one
//! prebuilt index, and budgets small enough to force eviction.

use mjoin_core::derive;
use mjoin_expr::JoinTree;
use mjoin_hypergraph::DbScheme;
use mjoin_program::{
    execute_with, ExecConfig, IndexCache, Program, ProgramBuilder, Reg, DEFAULT_CACHE_BYTES,
};
use mjoin_relation::{Catalog, Database};
use mjoin_workloads::{random_database, DataGenConfig};

const THREADS: [usize; 4] = [1, 2, 4, 8];

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
/// joins through it again: any index cached over the old value must not
/// leak into the re-read.
#[test]
fn register_rewrite_between_reads_is_transparent() {
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
        b.semijoin(Reg::Base(1), Reg::Base(2)); // rewrites BC → invalidate
        b.join(v, v, Reg::Base(1)); // must read the reduced BC
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        assert_cache_transparent(&p, &db, &format!("rewrite-between-reads seed {seed}"));
    }
}

/// The same filter relation reduced into repeatedly — every write to the
/// target register invalidates the previous value's indices.
#[test]
fn repeated_reduction_of_one_register_is_transparent() {
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
