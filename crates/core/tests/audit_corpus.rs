//! The audit as a pipeline oracle: every program Algorithm 2 derives, over
//! every input-tree shape of the small scheme families, runs through the
//! engine (`prepare → admit → execute`) within its own static cost
//! certificate and abstract intervals on concrete data. A deliberately
//! corrupted certificate must be caught (the ablation that proves the
//! differential has teeth), and the engine's per-statement ledger must be
//! exactly the executor's `ExecOutcome::head_sizes`.

use mjoin_analyze::{audit, AnalysisCx, Certificate, Severity};
use mjoin_core::derive;
use mjoin_core::engine::{self, ExecutorKind, Limits, Plan};
use mjoin_expr::all_trees;
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_optimizer::{CostOracle, ExactOracle};
use mjoin_program::{try_execute_with, ExecConfig, Program};
use mjoin_relation::{Catalog, CostKind, CostLedger, Database};
use mjoin_workloads::{random_database, DataGenConfig};

/// A sound `|⋈D[S]|`: the counting oracle.
type Card<'a> = dyn FnMut(RelSet) -> u64 + 'a;

/// `prepare → admit → execute` `program` with no limits, then hand `f` the
/// analysis context, the honest certificate, the run's ledger and the exact
/// sub-join counts.
fn with_run<T>(
    (c, s, db): (&Catalog, &DbScheme, &Database),
    program: Program,
    f: impl FnOnce(&AnalysisCx<'_>, &Certificate, &CostLedger, &mut Card<'_>) -> T,
) -> T {
    let plan = Plan::Program(program);
    let prepared = engine::prepare(
        s.clone(),
        db.clone(),
        c.clone(),
        plan,
        ExecutorKind::Program,
    )
    .expect("derived programs validate");
    let admitted = prepared.admit(&Limits::default()).expect("no limits");
    let out = admitted.execute(1, None, None).expect("no cancel token");
    let analysis = admitted.analysis();
    let mut exact = ExactOracle::new(prepared.db());
    f(
        &analysis.cx(),
        analysis.certificate(),
        &out.ledger,
        &mut |set| exact.subjoin_size(set),
    )
}

fn families() -> Vec<(Catalog, DbScheme)> {
    let builders: [fn(&mut Catalog) -> DbScheme; 5] = [
        |c| mjoin_workloads::schemes::chain(c, 4),
        |c| mjoin_workloads::schemes::cycle(c, 4),
        |c| mjoin_workloads::schemes::star(c, 3),
        |c| mjoin_workloads::schemes::clique(c, 3),
        |c| mjoin_workloads::schemes::random_connected(c, 5, 7, 3, 42),
    ];
    builders
        .iter()
        .map(|build| {
            let mut c = Catalog::new();
            let s = build(&mut c);
            (c, s)
        })
        .collect()
}

/// Exhaustive over input trees on the five scheme families: every derived
/// program's measured per-statement head counts stay within the evaluated
/// Theorem-2 certificate and the abstract intervals (zero `error`
/// diagnostics), provenance attributes every statement to a tree node, and
/// the ledger closes.
#[test]
fn every_derived_program_audits_clean_over_the_corpus() {
    let mut checked = 0usize;
    for (c, s) in &families() {
        let db = random_database(
            s,
            &DataGenConfig {
                tuples_per_relation: 40,
                domain: 6,
                seed: 9,
                plant_witness: true,
            },
        );
        for t1 in all_trees(s.all()) {
            let d = derive(s, &t1).expect("derivation succeeds");
            let program = d.program.clone();
            let report = with_run((c, s, &db), program, |cx, cert, ledger, card| {
                let report = audit(cx, cert.clone(), ledger, card, None);
                assert!(
                    report.bounds_hold(),
                    "measured cost exceeded a static bound for tree {} over {}:\n{}",
                    t1.display(s, c),
                    s.display(c),
                    report.render_text(cx)
                );
                assert_eq!(
                    report.report.count(Severity::Error),
                    0,
                    "{}",
                    report.render_text(cx)
                );
                report
            });
            // The ledger closes: inputs + Σ measured heads = cost(P(D)).
            let heads: u64 = report.rows.iter().map(|r| r.measured).sum();
            assert_eq!(report.inputs + heads, report.cost);
            // Provenance covers every statement with a tree node.
            assert_eq!(d.provenance.len(), d.program.stmts.len());
            let mut cert = report.certificate.clone();
            let nodes: Vec<_> = d.provenance.iter().map(|o| o.node).collect();
            cert.attribute(&nodes);
            assert!(cert.stmts.iter().all(|b| b.node.is_some()));
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} derivations checked");
}

/// Two disjoint witness cycles for the running example, so the final head
/// has 2 tuples — strictly more than a corrupted bound of 1 can allow.
fn doubled_running_example() -> (Catalog, DbScheme, Database) {
    let mut c = Catalog::new();
    let s = DbScheme::parse(&mut c, &["ABC", "CDE", "EFG", "GHA"]);
    // TSV headers carry the column order, so values land on the right
    // attributes regardless of canonical schema order.
    let files = [
        "A\tB\tC\n1\t2\t3\n11\t12\t13\n",
        "C\tD\tE\n3\t4\t5\n13\t14\t15\n",
        "E\tF\tG\n5\t6\t7\n15\t16\t17\n",
        "G\tH\tA\n7\t8\t1\n17\t18\t11\n",
    ];
    let relations = files
        .iter()
        .map(|text| mjoin_relation::tsv::relation_from_tsv(&mut c, text).unwrap())
        .collect();
    (c, s, Database::from_relations(relations))
}

/// Ablation: corrupting any statement's certificate down to a trivial
/// bound of 1 must surface as an `audit-bound` error at exactly that
/// statement — on a database where every head has ≥ 2 tuples.
#[test]
fn corrupted_certificate_is_caught_at_every_statement() {
    let (c, s, db) = doubled_running_example();
    let t1 = all_trees(s.all()).into_iter().next().unwrap();
    let d = derive(&s, &t1).expect("derivation succeeds");
    let stmts = d.program.stmts.len();

    with_run((&c, &s, &db), d.program, |cx, cert, ledger, card| {
        // Sanity: the honest certificate audits clean on this data.
        let honest = audit(cx, cert.clone(), ledger, &mut *card, None);
        assert!(honest.bounds_hold(), "{}", honest.render_text(cx));

        for victim in 0..stmts {
            if honest.rows[victim].measured < 2 {
                continue;
            }
            let mut cert = cert.clone();
            cert.stmts[victim].factors.clear(); // Π over no factors = 1
            let report = audit(cx, cert, ledger, &mut *card, None);
            assert!(!report.bounds_hold(), "corruption at stmt {victim} missed");
            let flagged = report.report.by_lint("audit-bound");
            assert_eq!(flagged.len(), 1, "stmt {victim}");
            assert_eq!(flagged[0].stmt, Some(victim));
            assert_eq!(flagged[0].severity, Severity::Error);
        }
        // The guard above must not have skipped everything.
        assert!(
            honest.rows.iter().filter(|r| r.measured >= 2).count() >= 2,
            "doubled witness data should make most heads ≥ 2 tuples"
        );
    });
}

/// Differential: the engine's ledger is exactly the executor's — its
/// per-statement heads are `ExecOutcome::head_sizes`, inputs + heads sum to
/// `ExecOutcome::cost()`, and the audit reports those same numbers.
#[test]
fn audit_ledger_matches_executor_exactly() {
    for (c, s) in &families() {
        let db = random_database(
            s,
            &DataGenConfig {
                tuples_per_relation: 50,
                domain: 7,
                seed: 3,
                plant_witness: true,
            },
        );
        let t1 = all_trees(s.all()).into_iter().next().unwrap();
        let d = derive(s, &t1).unwrap();
        let exec = try_execute_with(&d.program, &db, &ExecConfig::default()).unwrap();
        let head_sizes: Vec<u64> = exec.head_sizes.iter().map(|&h| h as u64).collect();
        with_run((c, s, &db), d.program, |cx, cert, ledger, card| {
            let heads: Vec<u64> = ledger
                .entries()
                .iter()
                .filter(|e| e.kind == CostKind::Generated)
                .map(|e| e.tuples)
                .collect();
            assert_eq!(heads, head_sizes, "ledger heads for {}", s.display(c));
            assert_eq!(ledger.input_total(), exec.ledger.input_total());
            assert_eq!(
                ledger.total(),
                exec.cost(),
                "ledger must close for {}",
                s.display(c)
            );
            let report = audit(cx, cert.clone(), ledger, card, None);
            assert_eq!(
                (report.inputs, report.cost),
                (ledger.input_total(), exec.cost())
            );
            let measured: Vec<u64> = report.rows.iter().map(|r| r.measured).collect();
            assert_eq!(measured, head_sizes);
        });
    }
}
