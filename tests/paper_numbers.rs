//! Integration test: the paper's quantitative claims, end to end.
//!
//! This is the executable record behind EXPERIMENTS.md — every inequality
//! the paper states about Examples 3, 5 and 6 and Theorems 1–2 is asserted
//! here at reproducible scales.

use mjoin::prelude::*;
use mjoin::program::display;

/// Example 3 at k = 1 (m = 10): the three cost inequalities of §2.3.
#[test]
fn example3_cost_inequalities_at_k1() {
    let ex = Example3::for_k(1);
    let mut catalog = Catalog::new();
    let scheme = Example3::scheme(&mut catalog);

    let optimal = ex.min_overall_cost(&scheme);
    // The optimal tree is the bowtie, non-CPF and nonlinear.
    assert_eq!(optimal, ex.optimal_cost(&scheme));
    assert!(!Example3::optimal_tree().is_cpf(&scheme));
    assert!(!Example3::optimal_tree().is_linear());

    // "cost(E(D)) is less than 10^(4k+1)"
    assert!(optimal < ex.paper_optimal_bound());
    // "If we apply to D any CPF join expression exactly over D, the cost
    //  exceeds 2·10^(5k)."
    assert!(ex.min_cpf_cost(&scheme) > ex.paper_cpf_lower_bound());
    // "The cost of any linear join expression applied to D also becomes
    //  greater than 2·10^(5k)."
    assert!(ex.min_linear_cost(&scheme) > ex.paper_cpf_lower_bound());
}

/// The closed forms extend the claims to k = 2..4 where materialization is
/// impossible.
#[test]
fn example3_cost_inequalities_scale_with_k() {
    let mut catalog = Catalog::new();
    let scheme = Example3::scheme(&mut catalog);
    for k in 1..=4u32 {
        let ex = Example3::for_k(k);
        assert!(ex.optimal_cost(&scheme) < ex.paper_optimal_bound(), "k={k}");
        assert!(
            ex.min_cpf_cost(&scheme) > ex.paper_cpf_lower_bound(),
            "k={k}"
        );
        assert!(
            ex.min_linear_cost(&scheme) > ex.paper_cpf_lower_bound(),
            "k={k}"
        );
    }
}

/// Example 3's consistency facts: pairwise consistent, not globally
/// consistent, ⋈D a single tuple, semijoin fixpoint a no-op.
#[test]
fn example3_consistency_facts() {
    let ex = Example3::new(5);
    let mut catalog = Catalog::new();
    let db = ex.database(&mut catalog);
    assert!(pairwise_consistent(&db));
    assert!(!globally_consistent(&db));
    assert_eq!(db.join_all().len(), 1);
    let mut ledger = CostLedger::new();
    let (reduced, effective) = semijoin_fixpoint(&db, &mut ledger);
    assert_eq!(
        effective, 0,
        "the paper: semijoin programs are useless here"
    );
    assert_eq!(reduced, db);
}

/// Example 5: Algorithm 1 produces exactly 16 CPF trees from Figure 1's
/// expression, one of which is Figure 2's.
#[test]
fn example5_sixteen_cpf_trees() {
    let mut catalog = Catalog::new();
    let scheme = Example3::scheme(&mut catalog);
    let t1 = parse_join_tree(&catalog, &scheme, "(ABC ⋈ EFG) ⋈ (CDE ⋈ GHA)").unwrap();
    let outcomes = algorithm1_all_outcomes(&scheme, &t1).unwrap();
    assert_eq!(outcomes.len(), 16);
    let fig2 = parse_join_tree(&catalog, &scheme, "((ABC ⋈ CDE) ⋈ EFG) ⋈ GHA").unwrap();
    assert!(outcomes.contains(&fig2));
    for t in &outcomes {
        assert!(t.is_cpf(&scheme));
        assert!(t.is_exactly_over(&scheme));
    }
}

/// Example 6: the exact statement sequence, and its cost on Example 3's
/// database — the same order as the paper's 2·10^(4k) (we assert the scaling
/// shape: Θ(m⁴), i.e. quartic growth and far below the CPF lower bound).
#[test]
fn example6_program_and_cost() {
    let mut catalog = Catalog::new();
    let scheme = Example3::scheme(&mut catalog);
    let fig2 = parse_join_tree(&catalog, &scheme, "((ABC ⋈ CDE) ⋈ EFG) ⋈ GHA").unwrap();
    let program = algorithm2(&scheme, &fig2).unwrap();

    let text = display::render(&program, &scheme, &catalog);
    assert_eq!(
        text.lines().count(),
        10,
        "Example 6's derivation has 10 statements:\n{text}"
    );
    // The first statement is the semijoin of Example 6.
    assert!(text.lines().next().unwrap().contains("⋉ R(CDE)"));

    let mut costs = Vec::new();
    for m in [5u64, 10, 20] {
        let ex = Example3::new(m);
        let mut c2 = Catalog::new();
        let _ = Example3::scheme(&mut c2);
        let db = ex.database(&mut c2);
        let out = execute(&program, &db);
        assert_eq!(out.result.len(), 1, "P(D) = ⋈D (Theorem 1)");
        // Far below the CPF expression lower bound at the same scale.
        assert!(
            (out.cost() as u128) < ex.paper_cpf_lower_bound(),
            "m={m}: program {} !< CPF bound {}",
            out.cost(),
            ex.paper_cpf_lower_bound()
        );
        costs.push(out.cost());
    }
    // Quartic-ish growth: doubling m multiplies cost by ~16 (not ~32 = m⁵).
    let ratio = costs[2] as f64 / costs[1] as f64;
    assert!(
        (8.0..24.0).contains(&ratio),
        "program cost must scale ~m⁴, got ratio {ratio}"
    );
}

/// The headline: from the optimal join expression, the derived program is
/// quasi-optimal (Theorem 2), and it beats every CPF and linear expression
/// on Example 3.
#[test]
fn quasi_optimal_program_beats_cpf_expressions() {
    let ex = Example3::for_k(1);
    let mut catalog = Catalog::new();
    let scheme = Example3::scheme(&mut catalog);
    let db = ex.database(&mut catalog);

    let run = run_pipeline(&scheme, &Example3::optimal_tree(), &db, &mut FirstChoice).unwrap();
    assert_eq!(*run.exec.result, db.join_all());
    assert!(run.bound_holds());

    let program_cost = run.program_cost() as u128;
    assert!(program_cost < ex.min_cpf_cost(&scheme));
    assert!(program_cost < ex.min_linear_cost(&scheme));
    // On this database the program even beats the optimal expression.
    assert!(program_cost < ex.optimal_cost(&scheme));
}

/// Theorem 2's hypothesis matters: the bound is stated for ⋈D ≠ ∅. With an
/// empty join the pipeline still computes the correct (empty) result.
#[test]
fn empty_join_still_correct() {
    let mut catalog = Catalog::new();
    let scheme = DbScheme::parse(&mut catalog, &["AB", "BC"]);
    let db = Database::from_relations(vec![
        relation_of_ints(&mut catalog, "AB", &[&[1, 2]]).unwrap(),
        relation_of_ints(&mut catalog, "BC", &[&[9, 9]]).unwrap(),
    ]);
    assert!(db.join_all().is_empty());
    let t = JoinTree::left_deep(&[0, 1]);
    let run = run_pipeline(&scheme, &t, &db, &mut FirstChoice).unwrap();
    assert!(run.exec.result.is_empty());
}

/// `mjoin_cli run` prints `cost(T1(D))` from the cost its exact-oracle
/// planner returned instead of evaluating `T₁` a second time. That is the
/// same number: under the exact oracle every strategy's planner cost is
/// `cost_of(T₁, D)`, on the paper's fixtures.
#[test]
fn exact_planner_cost_is_the_tree_cost() {
    use mjoin::core::engine::{self, Oracle, Plan};

    // Example 3's database, and the Example 1 witness fixtures the CLI
    // smokes run over (`examples/data/`).
    let mut fixtures = Vec::new();
    for m in [3u64, 5] {
        let mut catalog = Catalog::new();
        let scheme = Example3::scheme(&mut catalog);
        let db = Example3::new(m).database(&mut catalog);
        fixtures.push((catalog, scheme, db));
    }
    let mut catalog = Catalog::new();
    let mut relations = Vec::new();
    for name in ["abc", "cde", "efg", "gha"] {
        let path = format!("{}/examples/data/{name}.tsv", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).unwrap();
        relations.push(mjoin::relation::tsv::relation_from_tsv(&mut catalog, &text).unwrap());
    }
    let db = Database::from_relations(relations);
    fixtures.push((catalog, DbScheme::from_schemas(&db.schemas()), db));

    for (catalog, scheme, db) in fixtures {
        for name in ["greedy", "dp", "dp-cpf", "dp-linear"] {
            let plan = Plan::Search {
                strategy: PlanStrategy::parse(name).unwrap(),
                oracle: Oracle::Exact,
            };
            let prepared = engine::prepare(
                scheme.clone(),
                db.clone(),
                catalog.clone(),
                plan,
                ExecutorKind::Program,
            )
            .unwrap();
            let d = prepared.derived().unwrap();
            assert_eq!(
                d.tree_cost,
                Some(cost_of(&d.tree, &db)),
                "{name} on {}",
                scheme.display(&catalog)
            );
        }
    }
}

/// Example 3 at the paper's own k = 1 scale, through the real planner: the
/// exact oracle counts the 2·10⁷-tuple sub-joins instead of building them,
/// so the DP optima land on the closed forms and on the paper's bounds.
#[test]
fn example3_k1_planned_by_the_exact_oracle() {
    use mjoin::core::engine::{self, Oracle, Plan};

    let ex = Example3::for_k(1);
    let mut catalog = Catalog::new();
    let scheme = Example3::scheme(&mut catalog);
    let db = ex.database(&mut catalog);
    let plan = |strategy| {
        let plan = Plan::Search {
            strategy,
            oracle: Oracle::Exact,
        };
        let prepared = engine::prepare(
            scheme.clone(),
            db.clone(),
            catalog.clone(),
            plan,
            ExecutorKind::Program,
        )
        .unwrap();
        let d = prepared.derived().unwrap();
        (d.tree.clone(), u128::from(d.tree_cost.unwrap()))
    };

    let (t1, optimal) = plan(PlanStrategy::DpOptimal);
    assert_eq!(t1, Example3::optimal_tree());
    assert_eq!(optimal, ex.optimal_cost(&scheme));
    assert!(optimal < 100_000);

    let (cpf_tree, cpf) = plan(PlanStrategy::DpCpf);
    assert!(cpf_tree.is_cpf(&scheme));
    assert_eq!(cpf, ex.min_cpf_cost(&scheme));
    assert!(cpf > 200_000);

    let (linear_tree, linear) = plan(PlanStrategy::DpLinear);
    assert!(linear_tree.is_linear());
    assert_eq!(linear, ex.min_linear_cost(&scheme));
    assert!(linear > 200_000);
}

/// The planner builds no sub-join at all, Cartesian or not: ranking all 15
/// subsets of Example 3 at m = 8 and at the paper's m = 10 counts every one
/// of them — the acyclic ones by the join-forest pass, the 4-cycle by Generic
/// Join — and lands on the closed forms. (An earlier oracle built connected
/// remainders to count against: ~133 k tuples at m = 8, 404 k at m = 10.
/// `ExactOracle` now holds no relation of its own.)
#[test]
fn example3_planning_materializes_no_cartesian_product() {
    let mut catalog = Catalog::new();
    let scheme = Example3::scheme(&mut catalog);
    for m in [8, 10] {
        let ex = Example3::new(m);
        let db = ex.database(&mut catalog);
        let mut oracle = ExactOracle::new(&db);
        let best = optimize(&scheme, &mut oracle, SearchSpace::All).unwrap();
        assert_eq!(best.tree, Example3::optimal_tree(), "m={m}");
        assert_eq!(best.cost, cost_of(&best.tree, &db), "m={m}");
        for bits in 1..16usize {
            let set = RelSet::from_indices((0..4).filter(|i| bits >> i & 1 == 1));
            assert_eq!(
                u128::from(oracle.subjoin_size(set)),
                ex.subjoin_size(&scheme, set),
                "m={m}, set {set}"
            );
        }
    }
}
