//! **Audit — certificate-vs-measured gap distribution.**
//!
//! Every program the pipeline derives carries a per-statement symbolic cost
//! certificate (`|head| ≤ Π |⋈D[S]|`, the Theorem-2 attribution). This
//! experiment runs the exhaustive input-tree corpus over the five small
//! scheme families on random data through the engine (`prepare → admit →
//! execute`), audits each run against its certificate sized by the counting
//! oracle, and tabulates how loose the evaluated bounds are in practice: the distribution of `bound / max(measured, 1)`
//! per statement, plus how many statements carry a tight
//! single-intermediate bound. Any measured head exceeding its bound would
//! be a kernel/scheduler/certificate bug; the run asserts there are none.
//!
//! ```text
//! cargo run --release -p mjoin-bench --bin exp_audit
//! ```

use mjoin_analyze::audit;
use mjoin_bench::print_table;
use mjoin_core::engine::{self, ExecutorKind, Limits, Plan};
use mjoin_expr::all_trees;
use mjoin_hypergraph::DbScheme;
use mjoin_optimizer::{CostOracle, ExactOracle};
use mjoin_relation::Catalog;
use mjoin_workloads::{random_database, schemes, DataGenConfig};

type SchemeBuilder = fn(&mut Catalog) -> DbScheme;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    println!("# Audit: certificate-vs-measured gap distribution\n");
    let builders: [(&str, SchemeBuilder); 5] = [
        ("chain(4)", |c| schemes::chain(c, 4)),
        ("cycle(4)", |c| schemes::cycle(c, 4)),
        ("star(3)", |c| schemes::star(c, 3)),
        ("clique(3)", |c| schemes::clique(c, 3)),
        ("random(5,7)", |c| schemes::random_connected(c, 5, 7, 3, 42)),
    ];
    let mut rows = Vec::new();
    let mut total_programs = 0usize;
    let mut total_stmts = 0usize;
    for (name, build) in builders {
        let mut c = Catalog::new();
        let s = build(&mut c);
        let db = random_database(
            &s,
            &DataGenConfig {
                tuples_per_relation: 200,
                domain: 12,
                seed: 17,
                plant_witness: true,
            },
        );
        let mut gaps: Vec<f64> = Vec::new();
        let mut tight = 0usize;
        let mut stmts = 0usize;
        let mut programs = 0usize;
        let mut exact = ExactOracle::new(&db);
        for t1 in all_trees(s.all()) {
            let (s, db, c) = (s.clone(), db.clone(), c.clone());
            let prepared = engine::prepare(s, db, c, Plan::Tree(t1), ExecutorKind::Program)
                .expect("Algorithm 2 derives a program from every tree");
            let admitted = prepared.admit(&Limits::default()).expect("no limits");
            let out = admitted.execute(1, None, None).expect("no cancel token");
            let analysis = admitted.analysis();
            let certificate = analysis.certificate().clone();
            let card = |set| exact.subjoin_size(set);
            let report = audit(&analysis.cx(), certificate, &out.ledger, card, None);
            assert!(
                report.bounds_hold(),
                "{name}: measured cost exceeded a static bound — pipeline bug"
            );
            for row in &report.rows {
                gaps.push(row.gap());
                tight += usize::from(row.tight);
                stmts += 1;
            }
            programs += 1;
        }
        gaps.sort_by(|a, b| a.partial_cmp(b).expect("gaps are finite"));
        total_programs += programs;
        total_stmts += stmts;
        rows.push(vec![
            name.to_string(),
            programs.to_string(),
            stmts.to_string(),
            format!("{:.0}%", 100.0 * tight as f64 / stmts.max(1) as f64),
            format!("{:.2}", percentile(&gaps, 0.5)),
            format!("{:.2}", percentile(&gaps, 0.9)),
            format!("{:.2}", percentile(&gaps, 1.0)),
        ]);
    }
    print_table(
        &[
            "family", "programs", "stmts", "tight", "gap p50", "gap p90", "gap max",
        ],
        &rows,
    );
    println!(
        "\n{total_programs} derived programs audited ({total_stmts} statements); \
         zero measured-exceeds-bound errors."
    );
    println!("gap = evaluated bound / max(measured head tuples, 1), per statement.");
}
