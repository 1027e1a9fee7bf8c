//! Differential oracle: the executor walking the level schedule at 2, 4 and
//! 8 threads must be observably identical to the same executor walking
//! program order on one — same result relation, same cost ledger
//! entry-for-entry, same per-statement head sizes, same peak-resident
//! footprint — on randomized databases, including Cartesian-product,
//! empty-relation, self-join, tiny-cache-budget, spill-plan and
//! cancellation edge cases.

use mjoin_core::derive;
use mjoin_expr::JoinTree;
use mjoin_hypergraph::DbScheme;
use mjoin_program::{
    execute, execute_with, try_execute_with, CancelToken, ExecConfig, IndexCache, Program,
    ProgramBuilder, Reg, SpillPlan, DEFAULT_CACHE_BYTES,
};
use mjoin_relation::{relation_of_ints, Catalog, Database, Relation, Schema};
use mjoin_workloads::{random_database, DataGenConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn left_deep(n: usize) -> JoinTree {
    let mut t = JoinTree::leaf(0);
    for i in 1..n {
        t = JoinTree::join(t, JoinTree::leaf(i));
    }
    t
}

/// Assert every observable of the program derived from `t1` matches across
/// thread counts.
fn assert_outcomes_match(scheme: &DbScheme, t1: &JoinTree, db: &Database, label: &str) {
    let program = derive(scheme, t1).expect("derivation").program;
    assert_program_agrees(&program, db, label, ExecConfig::with_threads);
}

/// Result, ledger, head sizes and peak resident of `p` under
/// `cfg_of(threads)` at every thread count, against the default run.
fn assert_program_agrees(
    p: &Program,
    db: &Database,
    label: &str,
    cfg_of: impl Fn(usize) -> ExecConfig,
) {
    let seq = execute(p, db);
    for threads in THREADS {
        let par = execute_with(p, db, &cfg_of(threads));
        assert_eq!(*par.result, *seq.result, "{label}: {threads} threads");
        assert_eq!(par.head_sizes, seq.head_sizes, "{label}: {threads} threads");
        assert_eq!(par.ledger, seq.ledger, "{label}: {threads} threads");
        assert_eq!(
            par.peak_resident, seq.peak_resident,
            "{label}: {threads} threads"
        );
    }
}

fn random_db(scheme: &DbScheme, tuples_per_relation: usize, domain: i64, seed: u64) -> Database {
    random_database(
        scheme,
        &DataGenConfig {
            tuples_per_relation,
            domain,
            seed,
            plant_witness: true,
        },
    )
}

#[test]
fn chain_workloads_agree() {
    let mut c = Catalog::new();
    let s = mjoin_workloads::schemes::chain(&mut c, 5);
    for seed in 0..4 {
        let db = random_database(
            &s,
            &DataGenConfig {
                tuples_per_relation: 60,
                domain: 7,
                seed,
                plant_witness: true,
            },
        );
        assert_outcomes_match(&s, &left_deep(5), &db, &format!("chain seed {seed}"));
    }
}

#[test]
fn cycle_workloads_agree() {
    let mut c = Catalog::new();
    let s = mjoin_workloads::schemes::cycle(&mut c, 4);
    for seed in 0..4 {
        let db = random_database(
            &s,
            &DataGenConfig {
                tuples_per_relation: 40,
                domain: 6,
                seed,
                plant_witness: true,
            },
        );
        assert_outcomes_match(&s, &left_deep(4), &db, &format!("cycle seed {seed}"));
    }
}

#[test]
fn star_workloads_agree() {
    let mut c = Catalog::new();
    let s = mjoin_workloads::schemes::star(&mut c, 4);
    for seed in 0..3 {
        let db = random_database(
            &s,
            &DataGenConfig {
                tuples_per_relation: 50,
                domain: 8,
                seed,
                plant_witness: true,
            },
        );
        assert_outcomes_match(
            &s,
            &left_deep(s.num_relations()),
            &db,
            &format!("star seed {seed}"),
        );
    }
}

#[test]
fn unplanted_sparse_cycles_agree_even_when_join_is_empty() {
    // Without a planted witness, sparse cyclic data usually joins to ∅ — the
    // executors must agree on the empty outcome (and on every intermediate).
    let mut c = Catalog::new();
    let s = mjoin_workloads::schemes::cycle(&mut c, 5);
    for seed in 0..4 {
        let db = random_database(
            &s,
            &DataGenConfig {
                tuples_per_relation: 6,
                domain: 40,
                seed,
                plant_witness: false,
            },
        );
        assert_outcomes_match(&s, &left_deep(5), &db, &format!("sparse cycle seed {seed}"));
    }
}

#[test]
fn empty_input_relation_agrees() {
    let mut c = Catalog::new();
    let s = mjoin_workloads::schemes::chain(&mut c, 3);
    let cfg = DataGenConfig {
        tuples_per_relation: 30,
        domain: 5,
        seed: 11,
        plant_witness: true,
    };
    let db = random_database(&s, &cfg);
    // Empty out the middle relation: every semijoin/join touching it
    // collapses, exercising the empty paths of all three operators.
    let mut rels: Vec<Relation> = db.relations().to_vec();
    rels[1] = Relation::empty(rels[1].schema().clone());
    let db = Database::from_relations(rels);
    assert_outcomes_match(&s, &left_deep(3), &db, "chain with empty middle");
}

#[test]
fn cartesian_product_program_agrees() {
    // A hand-built program whose join statement has no shared attributes:
    // the executor must route through the chunked parallel Cartesian path
    // and still match the one-thread run exactly.
    let mut c = Catalog::new();
    let scheme = DbScheme::parse(&mut c, &["AB", "CD"]);
    let a_rows: Vec<Vec<i64>> = (0..40).map(|i| vec![i, i + 100]).collect();
    let a_slices: Vec<&[i64]> = a_rows.iter().map(|v| &v[..]).collect();
    let ra = mjoin_relation::relation_of_ints(&mut c, "AB", &a_slices).unwrap();
    let b_rows: Vec<Vec<i64>> = (0..25).map(|i| vec![i, i + 200]).collect();
    let b_slices: Vec<&[i64]> = b_rows.iter().map(|v| &v[..]).collect();
    let rb = mjoin_relation::relation_of_ints(&mut c, "CD", &b_slices).unwrap();
    let db = Database::from_relations(vec![ra, rb]);

    let mut b = ProgramBuilder::new(&scheme);
    let v = b.new_temp_alias("V", Reg::Base(0));
    b.join(v, v, Reg::Base(1));
    let p = b.finish(v);

    assert_eq!(execute(&p, &db).result.len(), 40 * 25);
    assert_program_agrees(&p, &db, "cartesian", ExecConfig::with_threads);
}

#[test]
fn projection_statements_agree() {
    // A program that projects a wide base down to each of its attributes,
    // with independent heads — the levels run concurrently.
    let mut c = Catalog::new();
    let scheme = DbScheme::parse(&mut c, &["ABC"]);
    let rows: Vec<Vec<i64>> = (0..300).map(|i| vec![i % 9, i % 13, i % 7]).collect();
    let slices: Vec<&[i64]> = rows.iter().map(|v| &v[..]).collect();
    let r = mjoin_relation::relation_of_ints(&mut c, "ABC", &slices).unwrap();
    let db = Database::from_relations(vec![r]);
    let schema_ab = Schema::from_chars(&mut c, "AB");
    let schema_bc = Schema::from_chars(&mut c, "BC");

    let mut b = ProgramBuilder::new(&scheme);
    let x = b.new_temp("X");
    let y = b.new_temp("Y");
    b.project(x, Reg::Base(0), schema_ab.to_set());
    b.project(y, Reg::Base(0), schema_bc.to_set());
    b.join(x, x, y);
    let p = b.finish(x);

    assert_program_agrees(&p, &db, "projections", ExecConfig::with_threads);
}

#[test]
fn self_join_in_a_width_one_level_agrees() {
    // `V ⋈ V`: both operands are one `Arc`, so both index lookups are the
    // same cache key.
    let mut c = Catalog::new();
    let scheme = DbScheme::parse(&mut c, &["AB", "BC"]);
    let mut b = ProgramBuilder::new(&scheme);
    let v = b.new_temp_alias("V", Reg::Base(0));
    b.join(v, v, Reg::Base(1));
    b.join(v, v, v);
    b.semijoin(v, Reg::Base(0));
    let p = b.finish(v);
    for seed in 0..4 {
        let db = random_db(&scheme, 60, 7, seed);
        assert_eq!(*execute(&p, &db).result, db.join_all(), "seed {seed}");
        assert_program_agrees(
            &p,
            &db,
            &format!("self-join seed {seed}"),
            ExecConfig::with_threads,
        );
    }
}

/// Two reductions through one hub (the index the width-3 level shares) next
/// to a third through another relation, then the joins back up.
fn two_hub_program(c: &mut Catalog) -> (DbScheme, Program) {
    let scheme = DbScheme::parse(c, &["AB", "BC", "BD", "BE", "EF"]);
    let mut b = ProgramBuilder::new(&scheme);
    b.semijoin(Reg::Base(1), Reg::Base(0));
    b.semijoin(Reg::Base(2), Reg::Base(0));
    b.semijoin(Reg::Base(3), Reg::Base(4));
    let v = b.new_temp_alias("V", Reg::Base(1));
    for r in [2, 3, 0, 4] {
        b.join(v, v, Reg::Base(r));
    }
    (scheme.clone(), b.finish(v))
}

#[test]
fn tiny_cache_budgets_agree() {
    // A budget that holds one index but not two: whatever a statement of
    // the wide level inserts evicts the index the level's prefetch shared,
    // possibly before its other reader peeks. That may cost a rebuild and
    // nothing else. Budgets 0 and 1 refuse every index outright.
    let mut c = Catalog::new();
    let (scheme, p) = two_hub_program(&mut c);
    for seed in 0..3 {
        let db = random_db(&scheme, 50, 9, seed);
        for budget in [0, 1, 60] {
            assert_program_agrees(
                &p,
                &db,
                &format!("cache budget {budget} seed {seed}"),
                |threads| ExecConfig {
                    cache: Some(IndexCache::shared(budget, DEFAULT_CACHE_BYTES)),
                    ..ExecConfig::with_threads(threads)
                },
            );
        }
    }
}

#[test]
fn spill_plan_inside_a_wide_level_agrees() {
    // Two independent joins form a width-2 level; the plan sends the first
    // through the Grace-hash path while the second runs in memory beside it.
    let mut c = Catalog::new();
    let scheme = DbScheme::parse(&mut c, &["AB", "BC", "CD", "DE"]);
    let mut b = ProgramBuilder::new(&scheme);
    let x = b.new_temp("X");
    let y = b.new_temp("Y");
    b.join(x, Reg::Base(0), Reg::Base(1));
    b.join(y, Reg::Base(2), Reg::Base(3));
    b.join(x, x, y);
    let p = b.finish(x);
    assert_eq!(mjoin_program::schedule(&p).levels[0], vec![0, 1]);
    let plan = Arc::new(SpillPlan::new(vec![Some(3), None, None]));
    for seed in 0..3 {
        let db = random_db(&scheme, 60, 6, seed);
        assert_program_agrees(&p, &db, &format!("spill seed {seed}"), |threads| {
            ExecConfig {
                spill: Some(Arc::clone(&plan)),
                ..ExecConfig::with_threads(threads)
            }
        });
    }
}

#[test]
fn cancellation_reports_the_smallest_unexecuted_statement() {
    // Six semijoins, each filtering through a relation no other statement
    // touches and never shrinking its target: statements 0–2 are mutually
    // independent (one level of the schedule), 3, 4 and 5 each wait on
    // their predecessor. Every executed statement leaves exactly one index
    // in the shared cache and nothing invalidates it, so the cache's entry
    // count after a cancelled run says how many statements ran.
    const N: i64 = 3_000;
    let mut c = Catalog::new();
    let names = ["AB", "CD", "EF", "AG", "CH", "EI", "BJ", "AK", "BL"];
    let scheme = DbScheme::parse(&mut c, &names);
    let rels: Vec<Relation> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let rows: Vec<[i64; 2]> = (0..N)
                .map(|k| [k, if i < 3 { (k * 7 + 1) % N } else { i as i64 }])
                .collect();
            let rows: Vec<&[i64]> = rows.iter().map(|r| &r[..]).collect();
            relation_of_ints(&mut c, name, &rows).unwrap()
        })
        .collect();
    let db = Database::from_relations(rels);
    let mut b = ProgramBuilder::new(&scheme);
    for t in 0..3 {
        b.semijoin(Reg::Base(t), Reg::Base(3 + t));
    }
    for f in 6..9 {
        b.semijoin(Reg::Base(0), Reg::Base(f));
    }
    let p = b.finish(Reg::Base(0));
    let n = p.stmts.len();
    assert_eq!(
        mjoin_program::schedule(&p).levels,
        [vec![0, 1, 2], vec![3], vec![4], vec![5]]
    );

    for threads in THREADS {
        // Where a deadline lands is up to the clock, so sweep it from "already
        // passed" upward until a run completes; the property holds wherever it
        // lands, and the sweep is fine enough to land inside the run.
        let t0 = Instant::now();
        execute_with(&p, &db, &ExecConfig::with_threads(threads));
        let step = (t0.elapsed() / 64).max(Duration::from_micros(1));
        let mut stopped_at = Vec::new();
        for j in 0u32.. {
            assert!(
                j < 4096,
                "{threads} threads: the run never beat its deadline"
            );
            let shared = IndexCache::shared(u64::MAX, u64::MAX);
            let cfg = ExecConfig {
                cache: Some(Arc::clone(&shared)),
                cancel: Some(CancelToken::with_deadline(Instant::now() + step * j)),
                ..ExecConfig::with_threads(threads)
            };
            let run = try_execute_with(&p, &db, &cfg);
            let ran = shared.lock().unwrap().entries();
            match run {
                Ok(out) => {
                    assert_eq!(ran, n);
                    assert_eq!(out.head_sizes, vec![N as usize; n]);
                    break;
                }
                Err(cancelled) => {
                    assert_eq!(
                        cancelled.at_stmt, ran,
                        "{threads} threads: statements 0..{ran} ran"
                    );
                    // One thread stops between any two statements; a
                    // schedule never stops inside its first level.
                    assert!(
                        threads == 1 || ![1, 2].contains(&ran),
                        "{threads} threads: stopped inside a level after {ran} statements"
                    );
                    stopped_at.push(ran);
                }
            }
        }
        assert!(
            stopped_at.iter().any(|&s| 0 < s && s < n),
            "{threads} threads: no deadline landed inside the run ({stopped_at:?})"
        );
    }
}
