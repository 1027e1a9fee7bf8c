//! A tour of the optimizer baselines on random cyclic schemes.
//!
//! ```text
//! cargo run --release --example optimizer_tour [seed]
//! ```
//!
//! Generates a random connected scheme + database, then compares every tree
//! source this workspace implements — DP optima over all / CPF / linear
//! spaces, greedy, and the cardinality-estimate-driven DP — and finally
//! feeds the best tree through the paper's pipeline.

use mjoin::prelude::*;
use mjoin::workloads::schemes;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let mut catalog = Catalog::new();
    let scheme = schemes::random_connected(&mut catalog, 6, 9, 3, seed);
    println!("random scheme (seed {seed}): {}", scheme.display(&catalog));
    let db = random_database(
        &scheme,
        &DataGenConfig {
            tuples_per_relation: 60,
            domain: 6,
            seed,
            plant_witness: true,
        },
    );
    println!(
        "database: {} relations, {} tuples total, ⋈D = {} tuples\n",
        db.len(),
        db.total_tuples(),
        db.join_all().len()
    );

    let mut rows: Vec<(String, u64, String)> = Vec::new();
    let mut oracle = ExactOracle::new(&db);

    for (name, space) in [
        ("DP optimal (all trees)", SearchSpace::All),
        ("DP best CPF", SearchSpace::Cpf),
        ("DP best linear", SearchSpace::Linear),
        ("DP best linear+CPF", SearchSpace::LinearCpf),
    ] {
        if let Some(opt) = optimize(&scheme, &mut oracle, space) {
            rows.push((
                name.to_string(),
                opt.cost,
                opt.tree.display(&scheme, &catalog).to_string(),
            ));
        }
    }

    let (gt, gc) = greedy(&scheme, &mut oracle, true);
    rows.push((
        "greedy (avoid ×)".into(),
        gc,
        gt.display(&scheme, &catalog).to_string(),
    ));
    let (gt2, gc2) = greedy(&scheme, &mut oracle, false);
    rows.push((
        "greedy (free)".into(),
        gc2,
        gt2.display(&scheme, &catalog).to_string(),
    ));

    // Estimate-driven DP: plan with statistics, then cost the chosen tree
    // with the exact oracle (what a real optimizer experiences).
    let mut est = EstimateOracle::new(&scheme, &db);
    if let Some(opt) = optimize(&scheme, &mut est, SearchSpace::All) {
        let actual = cost_of(&opt.tree, &db);
        rows.push((
            "DP on estimates (actual cost)".into(),
            actual,
            opt.tree.display(&scheme, &catalog).to_string(),
        ));
    }

    println!("{:<30} {:>12}  tree", "strategy", "cost");
    for (name, cost, tree) in &rows {
        println!("{name:<30} {cost:>12}  {tree}");
    }

    // Pipeline the optimum.
    let best = optimize(&scheme, &mut oracle, SearchSpace::All).unwrap();
    let run = run_pipeline(&scheme, &best.tree, &db, &mut FirstChoice).unwrap();
    println!(
        "\npipeline on the DP optimum: cost(T₁) = {}, cost(P) = {}, bound r(a+5)·cost(T₁) = {}",
        run.tree_cost,
        run.program_cost(),
        run.quasi_factor * run.tree_cost
    );
    assert_eq!(*run.exec.result, db.join_all());
    println!("P(D) = ⋈D verified.");
}
