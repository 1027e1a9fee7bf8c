//! The end-to-end pipeline: arbitrary join tree → Algorithm 1 → CPF tree →
//! Algorithm 2 → program, plus execution and cost comparison.
//!
//! This is the paper's main construction: *"for every join expression, there
//! exists an equivalent CPF join expression from which we can derive a
//! program whose cost is within a constant factor of the cost of an optimal
//! join expression."* Feed an optimal (or any good) tree `T₁` in; the program
//! out is quasi-optimal relative to it.

use crate::alg1::{algorithm1_with_policy, Alg1Error};
use crate::alg2::{algorithm2_with_provenance, Alg2Error, Alg2Provenance};
use crate::choice::{ChoicePolicy, FirstChoice};
use mjoin_expr::JoinTree;
use mjoin_hypergraph::DbScheme;
use mjoin_program::{execute_with, ExecConfig, ExecOutcome, Program};
use mjoin_relation::Database;
use std::fmt;

/// Errors from the pipeline (either algorithm's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Algorithm 1 failed.
    Alg1(Alg1Error),
    /// Algorithm 2 failed (should not happen on Algorithm 1 output).
    Alg2(Alg2Error),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Alg1(e) => write!(f, "{e}"),
            PipelineError::Alg2(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<Alg1Error> for PipelineError {
    fn from(e: Alg1Error) -> Self {
        PipelineError::Alg1(e)
    }
}

impl From<Alg2Error> for PipelineError {
    fn from(e: Alg2Error) -> Self {
        PipelineError::Alg2(e)
    }
}

/// The derived artifacts: the CPF tree from Algorithm 1 and the program from
/// Algorithm 2.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// Algorithm 1's CPF tree `T₂`.
    pub cpf_tree: JoinTree,
    /// Algorithm 2's program `P`.
    pub program: Program,
    /// Per-statement provenance: which Algorithm 2 step emitted each
    /// statement, processing which node of `T₂`.
    pub provenance: Alg2Provenance,
}

/// Derive a program from an arbitrary join tree over a connected scheme,
/// using `policy` for Algorithm 1's choices.
pub fn derive_with_policy(
    scheme: &DbScheme,
    t1: &JoinTree,
    policy: &mut dyn ChoicePolicy,
) -> Result<Derivation, PipelineError> {
    let cpf_tree = algorithm1_with_policy(scheme, t1, policy)?;
    let (program, provenance) = algorithm2_with_provenance(scheme, &cpf_tree)?;
    Ok(Derivation {
        cpf_tree,
        program,
        provenance,
    })
}

/// Derive with the deterministic first-choice policy.
pub fn derive(scheme: &DbScheme, t1: &JoinTree) -> Result<Derivation, PipelineError> {
    derive_with_policy(scheme, t1, &mut FirstChoice)
}

/// A full pipeline run on concrete data: derivation plus both cost accounts.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The derived CPF tree and program.
    pub derivation: Derivation,
    /// `cost(T₁(D))` — the input tree's own evaluation cost.
    pub tree_cost: u64,
    /// Execution outcome of the program, with `cost(P(D))` in its ledger.
    pub exec: ExecOutcome,
    /// Theorem 2's factor `r(a+5)` for the scheme.
    pub quasi_factor: u64,
}

impl PipelineRun {
    /// `cost(P(D))`.
    pub fn program_cost(&self) -> u64 {
        self.exec.cost()
    }

    /// Theorem 2's inequality `cost(P(D)) < r(a+5) · cost(T₁(D))`, which
    /// holds whenever `⋈D ≠ ∅`.
    pub fn bound_holds(&self) -> bool {
        (self.program_cost() as u128) < self.quasi_factor as u128 * self.tree_cost as u128
    }
}

/// Run the whole pipeline on a database: derive from `t1`, execute under
/// the default [`ExecConfig`], and report both costs.
pub fn run_pipeline(
    scheme: &DbScheme,
    t1: &JoinTree,
    db: &Database,
    policy: &mut dyn ChoicePolicy,
) -> Result<PipelineRun, PipelineError> {
    run_pipeline_with(scheme, t1, db, policy, |_| ExecConfig::default())
}

/// [`run_pipeline`], but executing under a caller-built [`ExecConfig`].
///
/// The config is built by a closure *over the finished derivation*, so
/// callers can run static analysis on the derived program — compute a
/// memory certificate, turn it into a spill plan, pick a thread count —
/// before a single tuple moves. This is how `mjoin_cli run --mem-budget`
/// and the CQ compiler wire certificate-gated Grace-hash spilling in
/// without this crate depending on the analyzer (the dependency points the
/// other way). The config never changes the outcome, only the wall clock.
pub fn run_pipeline_with(
    scheme: &DbScheme,
    t1: &JoinTree,
    db: &Database,
    policy: &mut dyn ChoicePolicy,
    cfg_of: impl FnOnce(&Derivation) -> ExecConfig,
) -> Result<PipelineRun, PipelineError> {
    let derivation = derive_with_policy(scheme, t1, policy)?;
    let tree_cost = mjoin_expr::cost_of(t1, db);
    let cfg = cfg_of(&derivation);
    let exec = execute_with(&derivation.program, db, &cfg);
    Ok(PipelineRun {
        derivation,
        tree_cost,
        exec,
        quasi_factor: scheme.quasi_factor(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_expr::parse_join_tree;
    use mjoin_relation::{relation_of_ints, Catalog};

    fn setup() -> (Catalog, DbScheme, Database) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["ABC", "CDE", "EFG", "GHA"]);
        let r1 = relation_of_ints(&mut c, "ABC", &[&[1, 2, 3], &[1, 9, 3]]).unwrap();
        let r2 = relation_of_ints(&mut c, "CDE", &[&[3, 4, 5]]).unwrap();
        let r3 = relation_of_ints(&mut c, "EFG", &[&[5, 6, 7], &[5, 6, 8]]).unwrap();
        let r4 = relation_of_ints(&mut c, "GHA", &[&[7, 8, 1]]).unwrap();
        (c, s, Database::from_relations(vec![r1, r2, r3, r4]))
    }

    #[test]
    fn pipeline_from_non_cpf_tree() {
        let (c, s, db) = setup();
        let t1 = parse_join_tree(&c, &s, "(ABC ⋈ EFG) ⋈ (CDE ⋈ GHA)").unwrap();
        let run = run_pipeline(&s, &t1, &db, &mut FirstChoice).unwrap();
        assert!(run.derivation.cpf_tree.is_cpf(&s));
        assert_eq!(*run.exec.result, db.join_all());
        assert!(run.bound_holds());
        assert_eq!(run.quasi_factor, 52);
    }

    #[test]
    fn pipeline_from_cpf_tree() {
        let (c, s, db) = setup();
        let t1 = parse_join_tree(&c, &s, "((ABC ⋈ CDE) ⋈ EFG) ⋈ GHA").unwrap();
        let run = run_pipeline(&s, &t1, &db, &mut FirstChoice).unwrap();
        assert_eq!(*run.exec.result, db.join_all());
        assert!(run.bound_holds());
    }

    #[test]
    fn derive_alone() {
        let (c, s, _db) = setup();
        let t1 = parse_join_tree(&c, &s, "(ABC ⋈ EFG) ⋈ (CDE ⋈ GHA)").unwrap();
        let d = derive(&s, &t1).unwrap();
        assert!(d.cpf_tree.is_cpf(&s));
        assert!(!d.program.is_empty());
    }

    #[test]
    fn pipeline_with_config_closure_sees_the_derivation() {
        let (c, s, db) = setup();
        let t1 = parse_join_tree(&c, &s, "((ABC ⋈ CDE) ⋈ EFG) ⋈ GHA").unwrap();
        let mut saw_stmts = 0;
        let run = run_pipeline_with(&s, &t1, &db, &mut FirstChoice, |d| {
            saw_stmts = d.program.stmts.len();
            ExecConfig::with_threads(2)
        })
        .unwrap();
        assert!(saw_stmts > 0, "closure ran over the derived program");
        assert_eq!(*run.exec.result, db.join_all());
        let seq = run_pipeline(&s, &t1, &db, &mut FirstChoice).unwrap();
        assert_eq!(run.exec.head_sizes, seq.exec.head_sizes);
        assert_eq!(run.program_cost(), seq.program_cost());
    }

    #[test]
    fn error_propagation() {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "CD"]);
        let t = JoinTree::join(JoinTree::leaf(0), JoinTree::leaf(1));
        assert!(matches!(
            derive(&s, &t),
            Err(PipelineError::Alg1(Alg1Error::SchemeNotConnected))
        ));
    }

    use mjoin_expr::JoinTree;
}
