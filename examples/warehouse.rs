//! Star-schema (warehouse) workload: the acyclic, real-world-shaped
//! counterpoint to Example 3's adversarial cycle.
//!
//! ```text
//! cargo run --release --example warehouse
//! ```
//!
//! Generates a skewed fact + dimensions star, then answers it four ways —
//! Yannakakis, monotone join after a full reducer, the DP-optimal tree
//! evaluated directly, and the paper's derived program — and prints the
//! derived program with its per-statement head sizes and costs.

use mjoin::prelude::*;
use mjoin::program::display::render;
use mjoin::workloads::{star_schema, StarSchemaConfig};

fn main() {
    let mut catalog = Catalog::new();
    let cfg = StarSchemaConfig {
        dimensions: 4,
        fact_rows: 2000,
        dim_rows: 100,
        key_coverage: 0.4, // fact rows reference only 40% of keys…
        skew: 1.5,         // …and mostly the hottest few
        seed: 7,
    };
    let (scheme, db) = star_schema(&mut catalog, &cfg);
    println!("star scheme: {}", scheme.display(&catalog));
    println!(
        "fact {} rows, {} dimensions x {} rows; acyclic: {}\n",
        db.relation(0).len(),
        cfg.dimensions,
        cfg.dim_rows,
        is_acyclic(&scheme)
    );

    // 1. Yannakakis (classical polynomial method for acyclic schemes).
    let (yan, yan_ledger) = yannakakis(&scheme, &db, &scheme.all_attrs()).unwrap();
    println!(
        "Yannakakis:            {} tuples, cost {}",
        yan.len(),
        yan_ledger.total()
    );

    // 2. Full reducer + monotone join.
    let (reduced, red_ledger) = fully_reduce(&scheme, &db).unwrap();
    let mono = monotone_join_tree(&scheme).unwrap();
    let mono_eval = evaluate(&mono, &reduced);
    println!(
        "reducer+monotone join: {} tuples, cost {} (+{} reduction)",
        mono_eval.relation.len(),
        mono_eval.ledger.total(),
        red_ledger.total()
    );

    // 3. DP-optimal tree, evaluated directly.
    let mut oracle = ExactOracle::new(&db);
    let best = optimize(&scheme, &mut oracle, SearchSpace::All).unwrap();
    println!(
        "optimal tree direct ev:  {} tuples, cost {}",
        yan.len(),
        best.cost
    );

    // 4. The paper's pipeline from that tree.
    let run = run_pipeline(&scheme, &best.tree, &db, &mut FirstChoice).unwrap();
    println!(
        "derived program:       {} tuples, cost {}",
        run.exec.result.len(),
        run.program_cost()
    );
    let text = render(&run.derivation.program, &scheme, &catalog);
    println!("\nprogram P (Algorithm 2 on the CPF tree of Algorithm 1):");
    for (line, size) in text.lines().zip(&run.exec.head_sizes) {
        println!("  {line:<50} -- |head| = {size}");
    }
    println!(
        "Theorem 2: cost(P(D)) < r(a+5) x cost(T1(D)) = {} x {}\n",
        run.quasi_factor, run.tree_cost
    );

    // All four agree, within the Theorem 2 bound.
    assert!(run.bound_holds());
    assert_eq!(*run.exec.result, yan);
    assert_eq!(mono_eval.relation, yan);
    println!(
        "all four strategies computed the same {}-tuple join.",
        yan.len()
    );
}
