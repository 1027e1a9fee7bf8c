//! # mjoin
//!
//! A reproduction of **Shinichi Morishita, "Avoiding Cartesian Products in
//! Programs for Multiple Joins" (PODS 1992)** as a Rust workspace.
//!
//! Computing a multi-way natural join requires ordering the binary joins.
//! Two ubiquitous optimizer heuristics — avoid Cartesian products (CPF) and
//! use linear orders — can each be *arbitrarily* worse than the true
//! optimum on cyclic schemes (the paper's Example 3, available as
//! [`workloads::Example3`]). The paper's fix: don't *evaluate* CPF join
//! expressions, *compile* them into programs of joins, semijoins and
//! projections:
//!
//! * [`core::algorithm1`] turns any join expression tree into a CPF one;
//! * [`core::algorithm2`] derives a program from a CPF tree;
//! * composed ([`core::pipeline`]), a program derived from an optimal tree
//!   costs within the data-independent factor `r(a+5)` of the optimum
//!   (Theorem 2) while computing exactly `⋈D` (Theorem 1).
//!
//! ## Quick start
//!
//! ```
//! use mjoin::prelude::*;
//!
//! // The paper's running example: the cyclic scheme {ABC, CDE, EFG, GHA}.
//! let mut catalog = Catalog::new();
//! let scheme = DbScheme::parse(&mut catalog, &["ABC", "CDE", "EFG", "GHA"]);
//!
//! // A database over it.
//! let db = Database::from_relations(vec![
//!     relation_of_ints(&mut catalog, "ABC", &[&[1, 2, 3]]).unwrap(),
//!     relation_of_ints(&mut catalog, "CDE", &[&[3, 4, 5]]).unwrap(),
//!     relation_of_ints(&mut catalog, "EFG", &[&[5, 6, 7]]).unwrap(),
//!     relation_of_ints(&mut catalog, "GHA", &[&[7, 8, 1]]).unwrap(),
//! ]);
//!
//! // Take the paper's optimal-but-non-CPF expression …
//! let t1 = parse_join_tree(&catalog, &scheme, "(ABC ⋈ EFG) ⋈ (CDE ⋈ GHA)").unwrap();
//!
//! // … and run the paper's pipeline: Algorithm 1 → CPF tree → Algorithm 2
//! // → program → execute.
//! let run = run_pipeline(&scheme, &t1, &db, &mut FirstChoice).unwrap();
//! assert_eq!(*run.exec.result, db.join_all());          // Theorem 1
//! assert!(run.bound_holds());                          // Theorem 2
//! ```
//!
//! ## The engine path
//!
//! The CLI, the server and the conjunctive-query compiler all run requests
//! through [`core::engine`]: `prepare → admit → execute`, where tree search,
//! the Theorem-2 certificate, the program-vs-WCOJ executor choice,
//! cost/memory admission and the spill plan are decided once.
//!
//! ```
//! use mjoin::core::engine::{self, Limits, Oracle, Plan};
//! use mjoin::prelude::*;
//!
//! let mut catalog = Catalog::new();
//! let db = Database::from_relations(vec![
//!     relation_of_ints(&mut catalog, "ABC", &[&[1, 2, 3]]).unwrap(),
//!     relation_of_ints(&mut catalog, "CDE", &[&[3, 4, 5]]).unwrap(),
//!     relation_of_ints(&mut catalog, "EFG", &[&[5, 6, 7]]).unwrap(),
//!     relation_of_ints(&mut catalog, "GHA", &[&[7, 8, 1]]).unwrap(),
//! ]);
//! let scheme = DbScheme::from_schemas(&db.schemas());
//!
//! let plan = Plan::Search { strategy: PlanStrategy::DpOptimal, oracle: Oracle::Exact };
//! let prepared = engine::prepare(scheme, db, catalog, plan, ExecutorKind::Auto).unwrap();
//! let limits = Limits { max_cost: Some(1_000), ..Limits::default() };
//! let admitted = prepared.admit(&limits).unwrap();      // certified before a tuple moves
//! let out = admitted.execute(4, None, None).unwrap();   // only an `Admitted` runs
//! assert_eq!(*out.result, prepared.db().join_all());
//! ```

pub use mjoin_acyclic as acyclic;
pub use mjoin_analyze as analyze;
pub use mjoin_core as core;
pub use mjoin_cq as cq;
pub use mjoin_expr as expr;
pub use mjoin_hypergraph as hypergraph;
pub use mjoin_optimizer as optimizer;
pub use mjoin_program as program;
pub use mjoin_relation as relation;
pub use mjoin_serve as serve;
pub use mjoin_trace as trace;
pub use mjoin_workloads as workloads;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use mjoin_acyclic::{
        full_reducer_program, fully_reduce, globally_consistent, monotone_join_tree,
        pairwise_consistent, semijoin_fixpoint, yannakakis,
    };
    pub use mjoin_analyze::{
        analyze, analyze_with, mem_blowup, memory_report, Diagnostic, MemCertificate, Report,
        Severity,
    };
    pub use mjoin_core::{
        algorithm1, algorithm1_all_outcomes, algorithm1_with_policy, algorithm2, check_theorem1,
        check_theorem2, derive, derive_with_policy, run_pipeline, run_pipeline_with, ChoicePolicy,
        Derivation, FirstChoice, PipelineRun, SeededChoice,
    };
    pub use mjoin_cq::{
        contains, equivalent, evaluate_datalog, execute_query, execute_query_with, lint_query,
        lint_rules, minimize, parse_query, parse_rules, ComponentDecision, ConjunctiveQuery,
        ExecOptions, ExecutorKind, MinimizeSummary, Minimized, NamedDatabase, PlanStrategy,
    };
    pub use mjoin_expr::{
        all_trees, cost_of, cpf_trees, evaluate, linear_trees, parse_join_tree, JoinTree,
    };
    pub use mjoin_hypergraph::{gyo, is_acyclic, DbScheme, RelSet};
    pub use mjoin_optimizer::{
        greedy, optimize, CostOracle, EstimateOracle, ExactOracle, SearchSpace,
    };
    pub use mjoin_program::{
        execute, execute_with, schedule, try_execute_with, validate, CancelToken, Cancelled,
        ExecConfig, IndexCache, Program, ProgramBuilder, Reg, SharedIndexCache, SpillPlan, Stmt,
    };
    pub use mjoin_relation::{
        ops, relation_of_ints, AttrId, AttrSet, Catalog, CostLedger, Database, Relation, Schema,
        Value,
    };
    pub use mjoin_workloads::{random_database, DataGenConfig, Example3, PlantedRedundancy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_pipeline_runs() {
        let mut catalog = Catalog::new();
        let scheme = DbScheme::parse(&mut catalog, &["AB", "BC"]);
        let db = Database::from_relations(vec![
            relation_of_ints(&mut catalog, "AB", &[&[1, 2]]).unwrap(),
            relation_of_ints(&mut catalog, "BC", &[&[2, 3]]).unwrap(),
        ]);
        let t = JoinTree::left_deep(&[0, 1]);
        let run = run_pipeline(&scheme, &t, &db, &mut FirstChoice).unwrap();
        assert_eq!(*run.exec.result, db.join_all());
    }
}
