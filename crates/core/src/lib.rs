//! `mjoin-core` — the contribution of Morishita's PODS '92 paper *"Avoiding
//! Cartesian Products in Programs for Multiple Joins"*.
//!
//! * [`algorithm1`]: rewrite any join expression tree over a connected
//!   database scheme into a Cartesian-product-free tree (with pluggable
//!   [`ChoicePolicy`] for its nondeterminism, and exhaustive enumeration of
//!   all outcomes for small inputs);
//! * [`algorithm2`]: derive a join/semijoin/projection program from a CPF
//!   tree;
//! * [`pipeline`]: the composition — from an optimal join expression it
//!   yields a *quasi-optimal program*, whose cost is within the
//!   data-independent factor `r(a+5)` of the optimal join expression's cost
//!   (Theorem 2), while computing exactly `⋈D` (Theorem 1);
//! * [`bounds`]: the theorems as executable checks;
//! * [`engine`]: the one `prepare → admit → execute` path every front end
//!   (CLI, server, conjunctive-query compiler, bench bins) runs requests
//!   through — tree search, certificates, executor choice, admission and
//!   the spill plan live there and nowhere else. The worst-case-optimal
//!   join it can choose instead of a program, and the `auto` policy that
//!   chooses it, sit beside it in a private module.

#![warn(missing_docs)]

pub mod ablate;
pub mod alg1;
pub mod alg2;
pub mod bounds;
pub mod choice;
pub mod engine;
pub mod pipeline;
mod wcoj;

pub use ablate::{ablate_program, Ablation};
pub use alg1::{algorithm1, algorithm1_all_outcomes, algorithm1_with_policy, Alg1Error};
pub use alg2::{algorithm2, algorithm2_with_provenance, Alg2Error, Alg2Provenance, StmtOrigin};
pub use bounds::{check_theorem1, check_theorem2, BoundReport};
pub use choice::{ChoicePolicy, CostAwareChoice, FirstChoice, ScriptedChoice, SeededChoice};
pub use pipeline::{
    derive, derive_with_policy, run_pipeline, run_pipeline_with, Derivation, PipelineError,
    PipelineRun,
};
