//! The one engine path: `prepare → admit → execute`.
//!
//! The paper's pipeline is a straight line — pick `T₁`, Algorithm 1,
//! Algorithm 2, run `P` — and everything this workspace added around it is
//! a decision *on* that line: the Theorem-2 certificate, the AGM-vs-
//! certificate executor choice, the memory certificate and its spill plan,
//! admission against a budget. This module owns that policy, once, for the
//! CLI, the server, the conjunctive-query compiler and the bench bins:
//!
//! 1. [`prepare`] resolves a [`Plan`] into a [`Prepared`] request owning
//!    the tree, the CPF tree and the program;
//! 2. [`Prepared::admit`] picks the executor, checks the certified bounds
//!    against the caller's [`Limits`] and fixes the spill plan — or refuses
//!    with a [`Rejection`] naming the statement and the bound;
//! 3. [`Admitted::execute`] runs the §2.2 program or the worst-case-optimal
//!    join under the caller's threads, cache and cancellation token, then
//!    checks the measured run against every bound admission certified
//!    ([`Outcome::bound_violations`]).
//!
//! "Certified and admitted before a tuple moves" is a type, not a call
//! order — only [`Prepared::admit`] makes an [`Admitted`], and only an
//! [`Admitted`] executes:
//!
//! ```compile_fail
//! # fn f(prepared: mjoin_core::engine::Prepared) {
//! prepared.execute(1, None, None); // no such method: admit first
//! # }
//! ```
//!
//! The static analyses ([`Analysis`]) are lazy and memoized: a warm `run`
//! of a compiled program pays for the admission report and nothing else; a
//! one-shot run with no budget pays for none of them.

use crate::pipeline::{derive, PipelineError};
use crate::wcoj::{select, wcoj_join};
pub use crate::wcoj::{ExecutorKind, Selection};
use mjoin_analyze::{
    admission_report_with, memory_report_with, AdmissionReport, AnalysisCx, Certificate,
    MemCertificate,
};
use mjoin_expr::JoinTree;
use mjoin_hypergraph::{agm_ln, bound_u64, DbScheme};
use mjoin_optimizer::{greedy, optimize, CostOracle, EstimateOracle, ExactOracle, SearchSpace};
use mjoin_program::{
    try_execute_with, validate, CancelToken, Cancelled, ExecConfig, Program, SharedIndexCache,
    SpillPlan, ValidateError, ValidationInfo,
};
use mjoin_relation::{Answer, Catalog, CostKind, CostLedger, Database};
use std::cell::OnceCell;
use std::fmt;
use std::sync::Arc;

/// How to search for the join tree `T₁`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanStrategy {
    /// Greedy smallest-result with the avoid-Cartesian rule (default).
    #[default]
    Greedy,
    /// Exact DP over all trees (exponential; small schemes only).
    DpOptimal,
    /// Exact DP over CPF trees.
    DpCpf,
    /// Exact DP over linear (left-deep) trees.
    DpLinear,
}

impl PlanStrategy {
    /// Parse an optimizer name as spelled on `mjoin_cli --optimizer` and in
    /// the server protocol's `"optimizer"` field — the one parser for both,
    /// beside [`ExecutorKind::parse`].
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "greedy" => Ok(PlanStrategy::Greedy),
            "dp" => Ok(PlanStrategy::DpOptimal),
            "dp-cpf" => Ok(PlanStrategy::DpCpf),
            "dp-linear" => Ok(PlanStrategy::DpLinear),
            other => Err(format!(
                "unknown optimizer `{other}` (try greedy|dp|dp-cpf|dp-linear)"
            )),
        }
    }

    /// The canonical spelling, as accepted by [`PlanStrategy::parse`].
    pub fn name(self) -> &'static str {
        match self {
            PlanStrategy::Greedy => "greedy",
            PlanStrategy::DpOptimal => "dp",
            PlanStrategy::DpCpf => "dp-cpf",
            PlanStrategy::DpLinear => "dp-linear",
        }
    }
}

/// Which sub-join sizes the tree search ranks candidates by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Count every candidate sub-join exactly — a join-forest pass, or a
    /// Generic Join count on a cyclic set — without building any (the
    /// one-shot `run`: its tree cost *is* `cost(T₁(D))`).
    Exact,
    /// Attribute-independence estimates: arithmetic only, so planning
    /// never executes the joins admission is about to gate.
    Estimate,
}

/// Where the program to run comes from.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Derive (Algorithms 1 + 2) from this join tree.
    Tree(JoinTree),
    /// Search for `T₁`, then derive from it.
    Search {
        /// The search strategy.
        strategy: PlanStrategy,
        /// What sizes the search sees.
        oracle: Oracle,
    },
    /// A finished program (parsed or compiled by the caller); validated
    /// against the scheme here.
    Program(Program),
}

/// Why [`prepare`] could not produce a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The scheme is disconnected: no Cartesian-product-free tree exists,
    /// and searching for one would materialize the products.
    Disconnected,
    /// Algorithm 1 or 2 failed (e.g. a tree not exactly over the scheme).
    Derive(PipelineError),
    /// The strategy's search space holds no tree for this scheme.
    EmptySearchSpace(PlanStrategy),
    /// A caller-supplied program does not validate against the scheme.
    Invalid(ValidateError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Disconnected => write!(
                f,
                "the input relations' scheme is disconnected; the result would be a Cartesian \
                 product across components — join each component separately"
            ),
            EngineError::Derive(e) => write!(f, "{e}"),
            EngineError::EmptySearchSpace(s) => write!(
                f,
                "optimizer `{}`: search space is empty for this scheme",
                s.name()
            ),
            EngineError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The budgets a request runs under.
#[derive(Debug, Clone, Copy, Default)]
pub struct Limits {
    /// Reject when a statement's certified Theorem-2 bound (or, on the
    /// worst-case-optimal executor, the AGM bound) exceeds this.
    pub max_cost: Option<u64>,
    /// Per-statement memory budget in bytes: joins whose certified build
    /// side exceeds it are scheduled onto the Grace-hash spill path.
    pub mem_budget: Option<u64>,
    /// Whether a certified *peak* over `mem_budget` refuses the request
    /// (the server's `run`/`query`) rather than only spilling (one-shot
    /// runs, conjunctive-query components).
    pub mem_rejects: bool,
}

/// Which certified bound a [`Rejection`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exceeded {
    /// A statement's Theorem-2 cost bound against `max_cost`.
    Cost,
    /// A statement's certified peak bytes against the memory budget.
    Memory,
    /// The AGM output bound against `max_cost` (worst-case-optimal
    /// executor; whole-query admission).
    Agm,
}

/// A refused request: the bound that broke the budget and, for program
/// statements, which statement it was. The CLI prints it ([`fmt::Display`]);
/// the server maps the fields onto its error JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Which bound was exceeded.
    pub what: Exceeded,
    /// The offending statement (program bounds only).
    pub stmt: Option<usize>,
    /// `"join"`, `"semijoin"` or `"project"` (program bounds only).
    pub kind: Option<&'static str>,
    /// The certified bound: tuples, or bytes for [`Exceeded::Memory`].
    pub bound: u64,
    /// The budget it exceeds.
    pub budget: u64,
    /// The certificate's symbolic bound, e.g. `|⋈D[{AB}]|·|⋈D[{CD}]|`.
    pub symbolic: Option<String>,
    /// The statement in paper notation.
    pub excerpt: Option<String>,
}

impl Rejection {
    /// An AGM output bound over the cost budget.
    pub fn agm(bound: u64, budget: u64) -> Self {
        Rejection {
            what: Exceeded::Agm,
            stmt: None,
            kind: None,
            bound,
            budget,
            symbolic: None,
            excerpt: None,
        }
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (bound, budget) = (self.bound, self.budget);
        let stmt = self.stmt.unwrap_or(0);
        match self.what {
            Exceeded::Cost => write!(
                f,
                "certified bound {bound} for statement {stmt} exceeds --max-cost {budget}"
            ),
            Exceeded::Memory => write!(
                f,
                "certified memory peak {bound} bytes for statement {stmt} exceeds --mem-budget {budget}"
            ),
            Exceeded::Agm => write!(f, "AGM bound {bound} exceeds --max-cost {budget}"),
        }
    }
}

impl std::error::Error for Rejection {}

/// A measured run over a bound admission certified for it — a kernel,
/// scheduler or certificate bug, never a data problem. Listed in
/// [`Outcome::bound_violations`]; debug builds panic on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundViolation {
    /// Which bound: a statement's admitted head bound ([`Exceeded::Cost`]),
    /// the memory certificate's peak resident tuples ([`Exceeded::Memory`])
    /// or the AGM bound on the worst-case-optimal output ([`Exceeded::Agm`]).
    pub what: Exceeded,
    /// The statement ([`Exceeded::Cost`] only).
    pub stmt: Option<usize>,
    /// Measured tuples.
    pub measured: u64,
    /// The certified bound in tuples.
    pub certified: u64,
}

impl fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.what {
            Exceeded::Cost => write!(f, "statement {}", self.stmt.unwrap_or(0))?,
            Exceeded::Memory => write!(f, "peak resident")?,
            Exceeded::Agm => write!(f, "AGM output")?,
        }
        let (measured, certified) = (self.measured, self.certified);
        write!(f, " measured {measured} > certified {certified}")
    }
}

/// Which executor runs, with the bounds that were computed to decide it
/// (both under `auto`; a forced executor reports only its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The executor that runs (never [`ExecutorKind::Auto`]).
    pub executor: ExecutorKind,
    /// AGM bound of the scheme, when computed.
    pub agm_bound: Option<u64>,
    /// Theorem-2 certificate bound of the program (AGM sub-bounds), when
    /// computed.
    pub cert_bound: Option<u64>,
}

/// The trees a derived program came from.
#[derive(Debug)]
pub struct Derived {
    /// The input tree `T₁`.
    pub tree: JoinTree,
    /// The planner's cost for `T₁` ([`Plan::Search`] only). Under
    /// [`Oracle::Exact`] this is `cost(T₁(D))` itself.
    pub tree_cost: Option<u64>,
    /// Algorithm 1's CPF tree `T₂`.
    pub cpf_tree: JoinTree,
}

/// A planned request: inputs plus the trees and program resolved from its
/// [`Plan`]. Nothing is analyzed yet.
#[derive(Debug)]
pub struct Prepared {
    scheme: DbScheme,
    db: Database,
    catalog: Catalog,
    requested: ExecutorKind,
    sizes: Vec<u64>,
    derived: Option<Derived>,
    program: Option<Program>,
    /// Validation result of a caller-supplied program; derived programs
    /// validate by construction and are only checked if analyzed.
    validated: Option<ValidationInfo>,
}

/// Resolve `plan` over `db` into a [`Prepared`] request for `executor`.
pub fn prepare(
    scheme: DbScheme,
    db: Database,
    catalog: Catalog,
    plan: Plan,
    executor: ExecutorKind,
) -> Result<Prepared, EngineError> {
    let (tree, tree_cost) = match plan {
        Plan::Program(program) => {
            let info = validate(&program, &scheme).map_err(EngineError::Invalid)?;
            let mut p = Prepared::bare(scheme, db, catalog, executor);
            p.program = Some(program);
            p.validated = Some(info);
            return Ok(p);
        }
        _ if !scheme.fully_connected() => return Err(EngineError::Disconnected),
        Plan::Tree(tree) => (tree, None),
        Plan::Search { strategy, oracle } => {
            let mut exact;
            let mut estimate;
            let oracle: &mut dyn CostOracle = match oracle {
                Oracle::Exact => {
                    exact = ExactOracle::new(&db);
                    &mut exact
                }
                Oracle::Estimate => {
                    estimate = EstimateOracle::new(&scheme, &db);
                    &mut estimate
                }
            };
            let space = match strategy {
                PlanStrategy::Greedy => None,
                PlanStrategy::DpOptimal => Some(SearchSpace::All),
                PlanStrategy::DpCpf => Some(SearchSpace::Cpf),
                PlanStrategy::DpLinear => Some(SearchSpace::Linear),
            };
            let (tree, cost) = match space {
                None => greedy(&scheme, oracle, true),
                Some(space) => {
                    let opt = optimize(&scheme, oracle, space)
                        .ok_or(EngineError::EmptySearchSpace(strategy))?;
                    (opt.tree, opt.cost)
                }
            };
            (tree, Some(cost))
        }
    };
    let d = derive(&scheme, &tree).map_err(EngineError::Derive)?;
    let mut p = Prepared::bare(scheme, db, catalog, executor);
    p.program = Some(d.program);
    p.derived = Some(Derived {
        tree,
        tree_cost,
        cpf_tree: d.cpf_tree,
    });
    Ok(p)
}

/// A request pinned to the worst-case-optimal executor with no program at
/// all: no tree search, no derivation, nothing for [`Analysis`] to analyze.
pub fn prepare_wcoj(scheme: DbScheme, db: Database, catalog: Catalog) -> Prepared {
    Prepared::bare(scheme, db, catalog, ExecutorKind::Wcoj)
}

impl Prepared {
    fn bare(scheme: DbScheme, db: Database, catalog: Catalog, requested: ExecutorKind) -> Self {
        let sizes = db.relations().iter().map(|r| r.len() as u64).collect();
        Prepared {
            scheme,
            db,
            catalog,
            requested,
            sizes,
            derived: None,
            program: None,
            validated: None,
        }
    }

    /// The database scheme.
    pub fn scheme(&self) -> &DbScheme {
        &self.scheme
    }

    /// The input relations, one per scheme edge.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The attribute catalog the scheme and relations are interned in.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The trees the program was derived from ([`Plan::Tree`] and
    /// [`Plan::Search`] only).
    pub fn derived(&self) -> Option<&Derived> {
        self.derived.as_ref()
    }

    /// The program `P` (absent only for [`prepare_wcoj`]).
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// A fresh lazy view of the static analyses of this request's program.
    ///
    /// Its accessors panic on a [`prepare_wcoj`] preparation, which has no
    /// program to analyze.
    pub fn analysis(&self) -> Analysis<'_> {
        Analysis {
            p: self,
            cx: OnceCell::new(),
            cert: OnceCell::new(),
            selection: OnceCell::new(),
            admission: OnceCell::new(),
            memory: OnceCell::new(),
        }
    }

    fn agm_bound(&self) -> u64 {
        bound_u64(agm_ln(&self.scheme, self.scheme.all(), &self.sizes))
    }

    /// Decide the executor, check every certified bound `limits` names,
    /// and derive the spill plan — before a tuple moves.
    ///
    /// `auto` takes the worst-case-optimal join exactly when the AGM bound
    /// is strictly below the program's certificate (`select`, in the
    /// private `wcoj` module). On that executor only `max_cost` applies,
    /// against the AGM bound.
    pub fn admit(&self, limits: &Limits) -> Result<Admitted<'_>, Rejection> {
        let analysis = self.analysis();
        let decision = match self.requested {
            forced @ (ExecutorKind::Program | ExecutorKind::Wcoj) => Decision {
                executor: forced,
                agm_bound: (forced == ExecutorKind::Wcoj).then(|| self.agm_bound()),
                cert_bound: None,
            },
            ExecutorKind::Auto => {
                let sel = analysis.selection();
                Decision {
                    executor: if sel.use_wcoj {
                        ExecutorKind::Wcoj
                    } else {
                        ExecutorKind::Program
                    },
                    agm_bound: Some(sel.agm_bound),
                    cert_bound: Some(sel.cert_bound),
                }
            }
        };
        let mut spill = None;
        if let (ExecutorKind::Wcoj, Some(agm)) = (decision.executor, decision.agm_bound) {
            if let Some(budget) = limits.max_cost.filter(|&b| agm > b) {
                return Err(Rejection::agm(agm, budget));
            }
        } else {
            if let Some(budget) = limits.max_cost {
                if let Some(v) = analysis.admission().violation(budget) {
                    let at = (v.stmt, v.kind);
                    return Err(analysis.rejection(Exceeded::Cost, at, v.bound, budget));
                }
            }
            if let Some(budget) = limits.mem_budget {
                let cert = analysis.memory();
                if let Some(v) = cert.violation(budget).filter(|_| limits.mem_rejects) {
                    let at = (v.stmt, v.kind);
                    return Err(analysis.rejection(Exceeded::Memory, at, v.peak_bytes, budget));
                }
                let plan = cert.spill_plan(budget);
                spill = plan.any().then(|| Arc::new(plan));
            }
        }
        Ok(Admitted {
            analysis,
            decision,
            mem_budget: limits.mem_budget,
            spill,
        })
    }
}

/// Lazy, memoized static analyses of a [`Prepared`] request's program. The
/// [`AnalysisCx`] and the Theorem-2 [`Certificate`] are built at most once
/// and shared by everything derived from them.
pub struct Analysis<'p> {
    p: &'p Prepared,
    cx: OnceCell<AnalysisCx<'p>>,
    cert: OnceCell<Certificate>,
    selection: OnceCell<Selection>,
    admission: OnceCell<AdmissionReport>,
    memory: OnceCell<MemCertificate>,
}

impl<'p> Analysis<'p> {
    /// The analysis context (validation, liveness, schedule, excerpts).
    pub fn cx(&self) -> &AnalysisCx<'p> {
        self.cx.get_or_init(|| {
            let p = self.p;
            let program = p.program.as_ref().expect("request has a program");
            let info = p.validated.clone().unwrap_or_else(|| {
                validate(program, &p.scheme).expect("derived programs validate")
            });
            AnalysisCx::from_validated(program, &p.scheme, &p.catalog, info)
        })
    }

    /// The program's Theorem-2 certificate.
    pub fn certificate(&self) -> &Certificate {
        self.cert.get_or_init(|| Certificate::compute(self.cx()))
    }

    /// The `auto` comparison: AGM bound of the scheme against the
    /// certificate bound of the program.
    pub fn selection(&self) -> Selection {
        *self
            .selection
            .get_or_init(|| select(&self.p.scheme, &self.p.sizes, self.certificate()))
    }

    /// Per-statement admitted cost bounds against the input cardinalities.
    pub fn admission(&self) -> &AdmissionReport {
        self.admission
            .get_or_init(|| admission_report_with(self.cx(), &self.p.sizes, self.certificate()))
    }

    /// The static peak-memory certificate.
    pub fn memory(&self) -> &MemCertificate {
        self.memory
            .get_or_init(|| memory_report_with(self.cx(), &self.p.sizes, self.certificate()))
    }

    /// The certificate's symbolic bound on statement `stmt`'s head, e.g.
    /// `|⋈D[{AB}]|·|⋈D[{CD}]|` — rendered on demand, for a statement that
    /// is about to be printed.
    pub fn symbolic(&self, stmt: usize) -> String {
        let p = self.p;
        self.certificate().bound_name(stmt, &p.scheme, &p.catalog)
    }

    /// Statement `stmt`'s certified `bound` over `budget`, with its
    /// symbolic bound and excerpt rendered for the message.
    fn rejection(
        &self,
        what: Exceeded,
        (stmt, kind): (usize, &'static str),
        bound: u64,
        budget: u64,
    ) -> Rejection {
        Rejection {
            what,
            stmt: Some(stmt),
            kind: Some(kind),
            symbolic: Some(self.symbolic(stmt)),
            excerpt: self.cx().excerpt(stmt),
            ..Rejection::agm(bound, budget)
        }
    }
}

/// A request that passed admission: the executor is decided, every bound
/// the caller named holds, the spill plan is fixed. The only way to run.
pub struct Admitted<'p> {
    analysis: Analysis<'p>,
    decision: Decision,
    mem_budget: Option<u64>,
    spill: Option<Arc<SpillPlan>>,
}

impl<'p> Admitted<'p> {
    /// The executor decision.
    pub fn decision(&self) -> Decision {
        self.decision
    }

    /// The analyses admission ran (and any it did not, on demand).
    pub fn analysis(&self) -> &Analysis<'p> {
        &self.analysis
    }

    /// The spill schedule, when the memory budget forces one.
    pub fn spill(&self) -> Option<&SpillPlan> {
        self.spill.as_deref()
    }

    /// The certified peak of the chosen executor in tuples: the largest
    /// per-statement bound of the program, or the AGM bound of the
    /// worst-case-optimal join. What a capacity gate should charge.
    pub fn certified_peak(&self) -> u64 {
        match self.decision {
            Decision {
                executor: ExecutorKind::Wcoj,
                agm_bound: Some(agm),
                ..
            } => agm,
            _ => self.analysis.admission().peak,
        }
    }

    /// Run the admitted request. `cancel` is observed at statement
    /// boundaries by the program interpreter, and once per value of the
    /// outermost attribute by the worst-case-optimal join. The run then
    /// checks itself against the bounds already certified: a violation is
    /// listed in [`Outcome::bound_violations`], counted as
    /// `engine.bound_violations`, and panics a debug build.
    pub fn execute(
        &self,
        threads: usize,
        cache: Option<&SharedIndexCache>,
        cancel: Option<CancelToken>,
    ) -> Result<Outcome, Cancelled> {
        let p = self.analysis.p;
        let (result, ledger, peak_resident, spill_failures) =
            if self.decision.executor == ExecutorKind::Wcoj {
                let result = wcoj_join(&p.scheme, &p.db, cache, cancel.as_ref())?;
                let mut ledger = CostLedger::new();
                p.db.charge_inputs(&mut ledger);
                ledger.charge_generated("wcoj join", result.len());
                let peak = ledger.total();
                (Answer::from(result), ledger, peak, Vec::new())
            } else {
                let cfg = ExecConfig {
                    threads: threads.max(1),
                    cache: cache.cloned(),
                    cancel,
                    mem_budget: self.mem_budget,
                    spill: self.spill.clone(),
                };
                let program = p.program.as_ref().expect("program executor has a program");
                let out = try_execute_with(program, &p.db, &cfg)?;
                (
                    out.result,
                    out.ledger,
                    out.peak_resident,
                    out.spill_failures,
                )
            };
        let mut out = Outcome {
            result,
            ledger,
            decision: self.decision,
            peak_resident,
            spill_failures,
            bound_violations: Vec::new(),
        };
        out.bound_violations = self.bound_violations(&out);
        let violated = out.bound_violations.len() as u64;
        if violated > 0 {
            mjoin_trace::add("engine.bound_violations", violated);
        }
        debug_assert!(
            violated == 0,
            "certified bounds violated: {:?}",
            out.bound_violations
        );
        Ok(out)
    }

    /// Measured against certified, for the bounds this request already
    /// holds: the AGM bound on the worst-case-optimal output and — only
    /// where admission computed them, so nothing is forced here — each
    /// statement's admitted head bound and the memory certificate's peak.
    /// Allocates only for a violation.
    fn bound_violations(&self, out: &Outcome) -> Vec<BoundViolation> {
        let mut found = Vec::new();
        let mut check = |what, stmt, measured: u64, certified: u64| {
            if measured > certified {
                found.push(BoundViolation {
                    what,
                    stmt,
                    measured,
                    certified,
                });
            }
        };
        if self.decision.executor == ExecutorKind::Wcoj {
            if let Some(agm) = self.decision.agm_bound {
                check(Exceeded::Agm, None, out.result.len() as u64, agm);
            }
        } else {
            let heads = out.ledger.entries().iter();
            let heads = heads.filter(|e| e.kind == CostKind::Generated);
            let admitted = self.analysis.admission.get().map_or(&[][..], |a| &a.bounds);
            for (b, head) in admitted.iter().zip(heads) {
                check(Exceeded::Cost, Some(b.stmt), head.tuples, b.bound);
            }
            if let Some(m) = self.analysis.memory.get() {
                check(Exceeded::Memory, None, out.peak_resident, m.peak_tuples);
            }
        }
        found
    }
}

/// What an executed request produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The join result: its rows, or the program's last join left a
    /// product or its last group semijoin a selection
    /// ([`mjoin_program::ExecOutcome::result`]).
    pub result: Answer,
    /// The §2.3 cost account: inputs plus every generated relation.
    pub ledger: CostLedger,
    /// The executor that ran, with the bounds behind the choice.
    pub decision: Decision,
    /// Peak resident tuples over the run.
    pub peak_resident: u64,
    /// Statements whose scheduled spill failed, with the I/O error
    /// ([`mjoin_program::ExecOutcome::spill_failures`]): each joined in
    /// memory, over the certified budget.
    pub spill_failures: Vec<(usize, String)>,
    /// Measured values over their certified bounds (empty on every honest
    /// run; see [`Admitted::execute`]).
    pub bound_violations: Vec<BoundViolation>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_program::parse_program;
    use mjoin_relation::relation_of_ints;

    /// The check over a hand-lowered admission report flags exactly the
    /// lowered statement, with what it measured and what was certified.
    #[test]
    fn a_lowered_admission_bound_is_flagged_at_its_statement() {
        let mut c = Catalog::new();
        let db = Database::from_relations(vec![
            relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 2], &[5, 4]]).unwrap(),
            relation_of_ints(&mut c, "BC", &[&[2, 7], &[2, 8], &[4, 9]]).unwrap(),
            relation_of_ints(&mut c, "CD", &[&[7, 1], &[8, 1], &[9, 2]]).unwrap(),
        ]);
        let scheme = DbScheme::from_schemas(&db.schemas());
        let text = "R(V) := R(AB) ⋈ R(BC)\nR(V) := R(V) ⋈ R(CD)";
        let program = parse_program(&c, &scheme, text).unwrap();
        let plan = Plan::Program(program);
        let prepared = prepare(scheme, db, c, plan, ExecutorKind::Program).unwrap();
        let limits = Limits {
            max_cost: Some(u64::MAX),
            ..Limits::default()
        };
        let mut admitted = prepared.admit(&limits).unwrap();
        let out = admitted.execute(1, None, None).unwrap();
        assert!(out.bound_violations.is_empty());

        let report = admitted.analysis.admission.get_mut();
        let report = report.expect("max_cost forces the admission report");
        assert_eq!(report.bounds.len(), 2);
        report.bounds[1].bound = 4; // statement 1 measured 5
        let found = admitted.bound_violations(&out);
        assert_eq!(
            found,
            vec![BoundViolation {
                what: Exceeded::Cost,
                stmt: Some(1),
                measured: 5,
                certified: 4,
            }]
        );
        assert_eq!(found[0].to_string(), "statement 1 measured 5 > certified 4");
    }
}
