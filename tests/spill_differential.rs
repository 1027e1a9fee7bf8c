//! Differential suite for the certificate-gated Grace-hash spill path:
//! a spilling run must be indistinguishable from the in-memory run in
//! everything but its memory traffic. Spill on/off × 1/2/4/8 threads must
//! agree tuple-for-tuple (and head-for-head), a forced tiny-budget run
//! must actually partition (`mem.partitions > 0` in the trace) while still
//! matching, a roomy budget must plan no spill and run without touching the
//! spill path, and the static [`MemCertificate`] must cover the measured
//! peak residency and grow monotonically with the input sizes.

use mjoin::analyze::AnalysisCx;
use mjoin::prelude::*;
use mjoin::trace;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The trace sink is process-global: the tests that read `mem.*` counters
/// and the ones that bump them take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A 3-chain `AB ⋈ BC ⋈ CD` with a skewed middle: `B` takes only four
/// values, so `AB ⋈ BC` is quadratic in `n` — a head worth spilling.
fn chain_db(catalog: &mut Catalog, n: i64) -> (DbScheme, Database) {
    let scheme = DbScheme::parse(catalog, &["AB", "BC", "CD"]);
    let ab: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % 4]).collect();
    let bc: Vec<Vec<i64>> = (0..n).map(|i| vec![i % 4, i]).collect();
    let cd: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % 3]).collect();
    fn slices(rows: &[Vec<i64>]) -> Vec<&[i64]> {
        rows.iter().map(Vec::as_slice).collect()
    }
    let db = Database::from_relations(vec![
        relation_of_ints(catalog, "AB", &slices(&ab)).unwrap(),
        relation_of_ints(catalog, "BC", &slices(&bc)).unwrap(),
        relation_of_ints(catalog, "CD", &slices(&cd)).unwrap(),
    ]);
    (scheme, db)
}

/// Derive the paper's program for the left-deep chain and a spill plan
/// from the memory certificate under `budget` bytes.
fn derived(
    catalog: &Catalog,
    scheme: &DbScheme,
    db: &Database,
    budget: u64,
) -> (Derivation, Arc<SpillPlan>) {
    let tree = parse_join_tree(catalog, scheme, "(AB ⋈ BC) ⋈ CD").unwrap();
    let d = derive(scheme, &tree).unwrap();
    let seeds: Vec<u64> = db.relations().iter().map(|r| r.len() as u64).collect();
    let cx = AnalysisCx::new(&d.program, scheme, catalog).unwrap();
    let plan = Arc::new(memory_report(&cx, &seeds).spill_plan(budget));
    (d, plan)
}

#[test]
fn spill_on_off_times_threads_is_byte_identical() {
    let _turn = serial();
    let mut catalog = Catalog::new();
    let (scheme, db) = chain_db(&mut catalog, 64);
    let (d, plan) = derived(&catalog, &scheme, &db, 2048);
    assert!(
        plan.any(),
        "a 2 KiB budget must force at least one join to spill"
    );

    let base = execute(&d.program, &db);
    assert_eq!(*base.result, db.join_all(), "baseline is the full join");
    for threads in [1usize, 2, 4, 8] {
        for spill in [None, Some(Arc::clone(&plan))] {
            let spilling = spill.is_some();
            let mut cfg = ExecConfig::with_threads(threads);
            cfg.spill = spill;
            let out = execute_with(&d.program, &db, &cfg);
            assert_eq!(
                *out.result, *base.result,
                "result diverged at {threads} threads, spill={spilling}"
            );
            assert_eq!(
                out.head_sizes, base.head_sizes,
                "head sizes diverged at {threads} threads, spill={spilling}"
            );
            assert_eq!(out.cost(), base.cost(), "ledger diverged");
        }
    }
}

#[test]
fn forced_tiny_budget_partitions_and_still_matches() {
    let _turn = serial();
    let mut catalog = Catalog::new();
    let (scheme, db) = chain_db(&mut catalog, 48);
    let (d, plan) = derived(&catalog, &scheme, &db, 1024);
    assert!(plan.any());
    let expected = execute(&d.program, &db);

    trace::set_enabled(true);
    trace::clear();
    let cfg = ExecConfig {
        mem_budget: Some(1024),
        spill: Some(plan),
        ..ExecConfig::default()
    };
    let out = execute_with(&d.program, &db, &cfg);
    let tr = trace::take();
    trace::set_enabled(false);

    assert_eq!(*out.result, *expected.result, "spilled run must match");
    let partitions = tr.counter("mem.partitions").unwrap_or(0);
    let spilled = tr.counter("mem.spilled_bytes").unwrap_or(0);
    let passes = tr.counter("mem.passes").unwrap_or(0);
    assert!(
        partitions > 0,
        "the run must actually partition: {partitions}"
    );
    assert!(spilled > 0, "partitioning writes bytes to disk: {spilled}");
    assert!(passes > 0, "each spilled statement counts a pass: {passes}");
}

/// The budget decides, and nothing else: at twice the certified peak the
/// same program over the same data gets an empty spill plan, and the run
/// under it never touches the spill path — no `mem.*` counter fires.
#[test]
fn roomy_budget_plans_no_spill_and_runs_in_memory() {
    let _turn = serial();
    for n in [48, 64] {
        let mut catalog = Catalog::new();
        let (scheme, db) = chain_db(&mut catalog, n);
        let (d, starved) = derived(&catalog, &scheme, &db, 1024);
        assert!(starved.any(), "n={n}: the control budget must spill");
        let seeds: Vec<u64> = db.relations().iter().map(|r| r.len() as u64).collect();
        let cx = AnalysisCx::new(&d.program, &scheme, &catalog).unwrap();
        let mem = memory_report(&cx, &seeds);
        let roomy = mem.peak_bytes * 2;
        let plan = Arc::new(mem.spill_plan(roomy));
        assert!(!plan.any(), "n={n}: {roomy} bytes cover every build side");
        assert_eq!(plan.spilled_stmts(), 0);

        trace::set_enabled(true);
        trace::clear();
        let cfg = ExecConfig {
            mem_budget: Some(roomy),
            spill: Some(plan),
            ..ExecConfig::default()
        };
        let out = execute_with(&d.program, &db, &cfg);
        let tr = trace::take();
        trace::set_enabled(false);

        assert_eq!(*out.result, db.join_all());
        let mem: Vec<_> = tr
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("mem."))
            .collect();
        assert!(mem.is_empty(), "n={n}: an in-budget run spilled: {mem:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The static certificate is sound for residency (its `peak_tuples`
    /// covers the executor's measured high-water mark) and monotone:
    /// growing any input can only grow the certified peak.
    #[test]
    fn certificate_covers_measured_peak_and_is_monotone(
        n in 1i64..24,
        extra in prop::collection::vec(0u64..64, 3),
    ) {
        let mut catalog = Catalog::new();
        let (scheme, db) = chain_db(&mut catalog, n);
        let tree = parse_join_tree(&catalog, &scheme, "(AB ⋈ BC) ⋈ CD").unwrap();
        let d = derive(&scheme, &tree).unwrap();
        let exec = execute(&d.program, &db);
        let seeds: Vec<u64> = db.relations().iter().map(|r| r.len() as u64).collect();
        let cx = AnalysisCx::new(&d.program, &scheme, &catalog).unwrap();

        let mem = memory_report(&cx, &seeds);
        prop_assert!(
            mem.peak_tuples >= exec.peak_resident,
            "certified peak {} tuples < measured {}",
            mem.peak_tuples,
            exec.peak_resident
        );

        let bigger: Vec<u64> = seeds.iter().zip(&extra).map(|(s, e)| s + e).collect();
        let grown = memory_report(&cx, &bigger);
        prop_assert!(grown.peak_tuples >= mem.peak_tuples);
        prop_assert!(grown.peak_bytes >= mem.peak_bytes);
    }
}
