//! `mjoin-cq` — conjunctive (Datalog-style) queries over named relations,
//! compiled through the paper's join/semijoin/projection pipeline.
//!
//! The paper opens with "computing the natural join of a set of relations
//! plays an important role in relational and deductive database systems";
//! this crate is that deductive-database face: parse
//! `Q(x, z) :- R(x, y), S(y, z), T(y, 3)`, bind atoms against a
//! [`NamedDatabase`], hand each connected component to
//! [`mjoin_core::engine`] (tree search, Algorithms 1–2, executor choice,
//! admission, execution), and project onto the head.

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod datalog;
pub mod hom;
pub mod minimize;
pub mod parse;
pub mod query_lints;
pub mod storage;

pub use ast::{Atom, ConjunctiveQuery, Term};
pub use compile::{
    compile_query, execute_query, execute_query_naive, execute_query_with, query_agm_bound,
    AdmittedQuery, CompiledQuery, ComponentDecision, ExecOptions, MinimizeSummary, PlanStrategy,
    PreparedQuery, QueryResult,
};
pub use datalog::{evaluate_datalog, parse_rules, DatalogResult};
pub use hom::{contains, equivalent, homomorphism, Hom};
pub use minimize::{differential_validate, minimize, MinimizeProof, Minimized};
pub use mjoin_core::engine::ExecutorKind;
pub use parse::parse_query;
pub use query_lints::{lint_query, lint_rules};
pub use storage::{NamedDatabase, StoredRelation};
