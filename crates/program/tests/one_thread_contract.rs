//! The `threads = 1` contract, pinned so the trivial schedule cannot drift:
//! on a reducer whose real schedule has a width-3 level, one thread still
//! runs one `exec/execute` span, the statements in program order, no
//! `exec/level`, and exactly the cache traffic the sequential interpreter
//! had. The three counter constants were recorded by running this test
//! against commit b872157, the last one with a separate sequential
//! interpreter.
//!
//! Alone in its file on purpose: the trace sink is process-global, and the
//! exact counts below would absorb the spans and counters of any test
//! running beside this one.

use mjoin_hypergraph::DbScheme;
use mjoin_program::{execute_with, schedule, ExecConfig, ProgramBuilder, Reg};
use mjoin_relation::{relation_of_ints, Catalog, Database};

#[test]
fn one_thread_runs_program_order_with_the_recorded_cache_traffic() {
    let mut c = Catalog::new();
    let hub = relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4], &[5, 6]]).unwrap();
    let s1 = relation_of_ints(&mut c, "BC", &[&[2, 7], &[4, 7], &[9, 9]]).unwrap();
    let s2 = relation_of_ints(&mut c, "BD", &[&[2, 8], &[4, 8]]).unwrap();
    let s3 = relation_of_ints(&mut c, "BE", &[&[2, 0], &[6, 0]]).unwrap();
    let scheme = DbScheme::parse(&mut c, &["AB", "BC", "BD", "BE"]);
    let db = Database::from_relations(vec![hub, s1, s2, s3]);
    let mut b = ProgramBuilder::new(&scheme);
    for spoke in 1..=3 {
        b.semijoin(Reg::Base(spoke), Reg::Base(0)); // the width-3 level
    }
    for spoke in 1..=3 {
        b.semijoin(Reg::Base(0), Reg::Base(spoke));
    }
    let p = b.finish(Reg::Base(0));
    assert_eq!(p.stmts.len(), 6);
    assert_eq!(schedule(&p).width(), 3);

    mjoin_trace::set_enabled(true);
    let out = execute_with(&p, &db, &ExecConfig::with_threads(1));
    mjoin_trace::set_enabled(false);
    let t = mjoin_trace::take();

    assert_eq!(out.head_sizes, vec![2, 2, 2, 2, 2, 1]);
    let exec: Vec<&mjoin_trace::Event> = t.events.iter().filter(|e| e.cat == "exec").collect();
    let names: Vec<&str> = exec.iter().map(|e| e.name).collect();
    // Spans are recorded as they close: the statements, then the run.
    assert_eq!(
        names,
        ["stmt", "stmt", "stmt", "stmt", "stmt", "stmt", "execute"]
    );
    let order: Vec<i64> = exec.iter().filter_map(|e| e.int_arg("index")).collect();
    assert_eq!(order, [0, 1, 2, 3, 4, 5]);
    assert_eq!(t.counter("index_cache.hit"), Some(2));
    assert_eq!(t.counter("index_cache.miss"), Some(4));
    assert_eq!(t.counter("index_cache.insert"), Some(4));
}
