//! Property tests for Chandra–Merlin core minimization: the rewrite the
//! compiler applies must be invisible in the answers (under every executor
//! and thread count), idempotent, and monotone in the static bounds —
//! minimizing never makes the AGM bound or the Theorem-2 certificate worse.

use mjoin::cq::query_agm_bound;
use mjoin::prelude::*;
use proptest::prelude::*;

/// Random edge relation + unary label relation (the `cq_props` generator).
fn db_strategy() -> impl Strategy<Value = NamedDatabase> {
    (
        prop::collection::vec((0i64..8, 0i64..8), 1..40),
        prop::collection::vec((0i64..8, 0i64..3), 1..12),
    )
        .prop_map(|(edges, labels)| {
            let mut db = NamedDatabase::new();
            let erefs: Vec<Vec<i64>> = edges.iter().map(|&(a, b)| vec![a, b]).collect();
            let eslice: Vec<&[i64]> = erefs.iter().map(std::vec::Vec::as_slice).collect();
            db.add_relation("e", &["s", "d"], &eslice).unwrap();
            let lrefs: Vec<Vec<i64>> = labels.iter().map(|&(n, t)| vec![n, t]).collect();
            let lslice: Vec<&[i64]> = lrefs.iter().map(std::vec::Vec::as_slice).collect();
            db.add_relation("l", &["n", "t"], &lslice).unwrap();
            db
        })
}

/// Queries with and without foldable atoms: planted redundancy, verbatim
/// duplicates, dominated atoms, Boolean bodies, and cores that must not
/// shrink.
const QUERIES: &[&str] = &[
    "Q(x, z) :- e(x, y), e(y, z), e(x, d).",
    "Q(x, z) :- e(x, y), e(y, z), e(x, y).",
    "Q(x) :- e(x, y), e(x, z).",
    "Q(x, t) :- e(x, y), l(y, t), e(x, d).",
    "Q(a, c) :- e(a, b), e(b, c), e(a, c).",
    "Q() :- e(x, y), e(u, v).",
    "Q(x, z) :- e(x, y), e(y, z).",
    "Q(x, y, z) :- e(x, y), e(y, z), e(z, x).",
    "Q(x) :- e(x, x).",
];

fn dump(db: &NamedDatabase) -> String {
    let mut s = String::new();
    for name in ["e", "l"] {
        let rel = &db.get(name).unwrap().relation;
        s.push_str(&format!("{name}: {:?} ", rel.rows()));
    }
    s
}

fn opts(minimize: bool, threads: usize, executor: ExecutorKind) -> ExecOptions {
    ExecOptions {
        executor,
        threads,
        minimize,
        ..Default::default()
    }
}

/// Largest certificate across component decisions (0 when the forced
/// executor never computed one).
fn cert_of(decisions: &[ComponentDecision]) -> u64 {
    decisions
        .iter()
        .filter_map(|d| d.cert_bound)
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The defining property: compiling the core instead of the literal
    /// body changes nothing observable, whichever executor runs it and
    /// however many threads it runs on.
    #[test]
    fn minimize_is_invisible_in_the_answers(
        db in db_strategy(),
        qidx in 0usize..QUERIES.len(),
    ) {
        let q = parse_query(QUERIES[qidx]).unwrap();
        let (baseline, _) =
            execute_query_with(&db, &q, PlanStrategy::Greedy, &opts(false, 0, ExecutorKind::Program))
                .unwrap();
        // Attribute ids are per-compilation artifacts (dropping an atom
        // renumbers them), so runs are compared by head-ordered rows, not
        // by `Relation` equality.
        let mut expected = baseline.rows_in_head_order();
        expected.sort();
        for threads in [1usize, 2, 4, 8] {
            for executor in [ExecutorKind::Program, ExecutorKind::Auto] {
                let (res, _) =
                    execute_query_with(&db, &q, PlanStrategy::Greedy, &opts(true, threads, executor))
                        .unwrap();
                let mut rows = res.rows_in_head_order();
                rows.sort();
                prop_assert_eq!(
                    &rows, &expected,
                    "query {} diverged under minimize at {} threads ({:?}); db {}",
                    QUERIES[qidx], threads, executor, dump(&db)
                );
            }
        }
    }

    /// A core is a fixpoint: minimizing it again drops nothing.
    #[test]
    fn minimization_is_idempotent(qidx in 0usize..QUERIES.len()) {
        let q = parse_query(QUERIES[qidx]).unwrap();
        let first = minimize(&q);
        prop_assert!(first.proof.verified, "query {}", QUERIES[qidx]);
        let second = minimize(&first.core);
        prop_assert!(second.proof.dropped.is_empty(),
            "re-minimizing the core of {} dropped atoms", QUERIES[qidx]);
        prop_assert_eq!(&second.core, &first.core);
    }

    /// Static bounds are monotone under minimization: the core's AGM bound
    /// and the auto selector's certificate never exceed the literal body's.
    #[test]
    fn bounds_never_increase(
        db in db_strategy(),
        qidx in 0usize..QUERIES.len(),
    ) {
        let q = parse_query(QUERIES[qidx]).unwrap();
        let core = minimize(&q).core;
        prop_assert!(
            query_agm_bound(&db, &core.body) <= query_agm_bound(&db, &q.body),
            "AGM bound grew for {}", QUERIES[qidx]
        );
        let (_, dec_off) =
            execute_query_with(&db, &q, PlanStrategy::Greedy, &opts(false, 0, ExecutorKind::Auto))
                .unwrap();
        let (_, dec_on) =
            execute_query_with(&db, &q, PlanStrategy::Greedy, &opts(true, 0, ExecutorKind::Auto))
                .unwrap();
        prop_assert!(cert_of(&dec_on) <= cert_of(&dec_off),
            "certificate grew for {}", QUERIES[qidx]);
    }
}

/// Executor names per component, in component order.
fn routing(decisions: &[ComponentDecision]) -> Vec<&'static str> {
    decisions.iter().map(|d| d.executor.name()).collect()
}

/// Exhaustive planted-redundancy corpus: every (chain, planted) pair folds
/// to its known core under a two-way verified proof, and all three
/// executors agree with the closed-form output both with and without
/// minimization and route every component the same way either side of the
/// fold. What the fold buys is stated in the paper's own currency: with two
/// or more planted atoms the minimized run's §2.3 ledger total is strictly
/// below the literal body's and the AGM bound strictly shrinks (a single
/// planted atom can reroute the fractional cover and leave the bound
/// where it was); a query that is its own core costs and is bounded exactly
/// as before.
#[test]
fn planted_corpus_folds_and_executes_to_closed_form() {
    for chain_len in 1..=4usize {
        for planted in 0..=3usize {
            let ctx = format!("n={chain_len} k={planted}");
            let w = PlantedRedundancy::new(chain_len, planted, 11, 2);
            let q = w.query();
            let m = minimize(&q);
            assert!(m.proof.verified, "{ctx}: unverified proof");
            assert_eq!(m.core.body.len(), w.core_size(), "{ctx}");
            assert_eq!(m.proof.dropped.len(), planted, "{ctx}");

            let db = w.named_database();
            for executor in [
                ExecutorKind::Program,
                ExecutorKind::Wcoj,
                ExecutorKind::Auto,
            ] {
                let run = |minimize_on: bool| {
                    let (res, decisions) = execute_query_with(
                        &db,
                        &q,
                        PlanStrategy::Greedy,
                        &opts(minimize_on, 0, executor),
                    )
                    .unwrap();
                    assert_eq!(
                        res.len() as u64,
                        w.expected_output_size(),
                        "{ctx} minimize={minimize_on} {executor:?}"
                    );
                    (res, decisions)
                };
                let (off, dec_off) = run(false);
                let (on, dec_on) = run(true);
                // A one-atom core is answered without a join: nothing routes.
                if chain_len >= 2 {
                    assert_eq!(routing(&dec_off), routing(&dec_on), "{ctx} {executor:?}");
                }
                let (cost_off, cost_on) = (off.ledger.total(), on.ledger.total());
                let summary = on.minimize.as_ref();
                if planted >= 2 {
                    assert!(
                        cost_on < cost_off,
                        "{ctx} {executor:?}: minimized cost {cost_on} vs {cost_off}"
                    );
                    let s = summary.expect("summary when minimizing");
                    assert!(s.agm_after < s.agm_before, "{ctx}: AGM did not shrink");
                }
                if planted == 0 {
                    assert_eq!(cost_on, cost_off, "{ctx} {executor:?}");
                    assert_eq!(cert_of(&dec_on), cert_of(&dec_off), "{ctx} {executor:?}");
                    if let Some(s) = summary {
                        assert_eq!(s.agm_after, s.agm_before, "{ctx}");
                    }
                }
            }
        }
    }
}

/// The compile stage reports what it did: the summary's atom counts and
/// drop list line up with the standalone `minimize`, and are absent when
/// minimization is switched off.
#[test]
fn summary_reflects_the_fold() {
    let w = PlantedRedundancy::new(3, 2, 11, 2);
    let db = w.named_database();
    let q = w.query();
    let (on, _) = execute_query_with(
        &db,
        &q,
        PlanStrategy::Greedy,
        &opts(true, 0, ExecutorKind::Program),
    )
    .unwrap();
    let summary = on.minimize.expect("summary when minimizing");
    assert_eq!(summary.atoms_before, w.total_atoms());
    assert_eq!(summary.atoms_after, w.core_size());
    assert_eq!(summary.dropped.len(), 2);
    assert!(summary.agm_after <= summary.agm_before);
    let (off, _) = execute_query_with(
        &db,
        &q,
        PlanStrategy::Greedy,
        &opts(false, 0, ExecutorKind::Program),
    )
    .unwrap();
    assert!(off.minimize.is_none(), "no summary when minimize is off");
}
