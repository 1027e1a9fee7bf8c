//! `mjoin-analyze`: a dataflow-based static analyzer and lint framework
//! for join/semijoin/projection programs.
//!
//! The paper's pipeline (Algorithm 1 → CPF tree → Algorithm 2 → program)
//! guarantees strong invariants the executor never checks: no Cartesian
//! joins, no no-op semijoins or projections, no dead stores, no repeated
//! computation, statement counts under Claim C's `r(a+5)` bound, and a
//! race-free level schedule. This crate checks those invariants after the
//! fact, over any [`Program`] — generated or hand-written.
//!
//! Analysis runs in two phases: [`AnalysisCx::new`] validates the program
//! and computes every shared dataflow fact once (forward scheme inference,
//! value numbering, def-use chains, backward liveness, the level
//! schedule); then each [`Pass`] reads the context and appends
//! [`Diagnostic`]s to a [`Report`]. `mjoin_cli check` is a thin wrapper
//! around [`analyze`].
//!
//! The crate is static: it executes no program and builds no join. The
//! [`audit`] reads a run's ledger from the engine and sizes `⋈D[S]` with
//! whatever the caller passes, typically the counting oracle.
//!
//! ```
//! use mjoin_analyze::analyze;
//! use mjoin_hypergraph::DbScheme;
//! use mjoin_program::{ProgramBuilder, Reg};
//! use mjoin_relation::Catalog;
//!
//! let mut catalog = Catalog::new();
//! let scheme = DbScheme::parse(&mut catalog, &["AB", "CD"]);
//! let mut b = ProgramBuilder::new(&scheme);
//! let v = b.new_temp("V");
//! b.join(v, Reg::Base(0), Reg::Base(1)); // AB ⋈ CD: a Cartesian product
//! let program = b.finish(v);
//!
//! let report = analyze(&program, &scheme, &catalog);
//! assert!(!report.is_clean());
//! assert_eq!(report.by_lint("cartesian-join").len(), 1);
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod admission;
pub mod audit;
pub mod cert;
pub mod cx;
pub mod diagnostic;
pub mod memory;
pub mod passes;

pub use absint::{cost_blowup, interval_analysis, CardInterval};
pub use admission::{admission_report, admission_report_with, AdmissionBound, AdmissionReport};
pub use audit::{audit, AuditReport, StmtAudit};
pub use cert::{Certificate, StmtBound};
pub use cx::{AnalysisCx, ExprKey, StmtFacts, Vn};
pub use diagnostic::{Diagnostic, Report, Severity};
pub use memory::{mem_blowup, memory_report, memory_report_with, MemCertificate, MemStmt};
pub use passes::{default_passes, Pass};

use mjoin_hypergraph::DbScheme;
use mjoin_program::Program;
use mjoin_relation::Catalog;

/// Analyze `program` with the default pass battery.
///
/// A program that fails static validation yields a single `validate`
/// error — lint passes only run over valid programs.
pub fn analyze(program: &Program, scheme: &DbScheme, catalog: &Catalog) -> Report {
    analyze_with(&default_passes(), program, scheme, catalog)
}

/// Analyze `program` with a caller-chosen set of passes.
pub fn analyze_with(
    passes: &[Box<dyn Pass>],
    program: &Program,
    scheme: &DbScheme,
    catalog: &Catalog,
) -> Report {
    let cx = match AnalysisCx::new(program, scheme, catalog) {
        Ok(cx) => cx,
        Err(e) => {
            return Report {
                diagnostics: vec![Diagnostic {
                    severity: Severity::Error,
                    lint: "validate",
                    stmt: None,
                    message: format!("program is not valid: {e}"),
                    excerpt: None,
                }],
            }
        }
    };
    let mut diagnostics = Vec::new();
    for pass in passes {
        pass.run(&cx, &mut diagnostics);
    }
    Report { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_program::{eliminate_dead_code, ProgramBuilder, Reg};

    fn scheme(schemes: &[&str]) -> (Catalog, DbScheme) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, schemes);
        (c, s)
    }

    /// The paper's running full-reducer shape on a chain: semijoin up,
    /// then join down. Clean by construction.
    fn clean_chain_program() -> (Catalog, DbScheme, Program) {
        let (c, s) = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(Reg::Base(1), Reg::Base(2));
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        (c, s, p)
    }

    #[test]
    fn clean_program_produces_empty_report() {
        let (c, s, p) = clean_chain_program();
        let report = analyze(&p, &s, &c);
        assert!(
            report.diagnostics.is_empty(),
            "expected no findings, got:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn cartesian_join_is_flagged() {
        let (c, s) = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp("V");
        b.join(v, Reg::Base(0), Reg::Base(2)); // AB ⋈ CD shares nothing
        b.join(v, v, Reg::Base(1));
        let p = b.finish(v);
        let report = analyze(&p, &s, &c);
        let hits = report.by_lint("cartesian-join");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].stmt, Some(0));
        assert_eq!(hits[0].severity, Severity::Warn);
        assert!(hits[0].excerpt.as_deref().unwrap().contains("⋈"));
        assert!(!report.is_clean());
    }

    #[test]
    fn degenerate_disjoint_semijoin_is_flagged() {
        let (c, s) = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(Reg::Base(0), Reg::Base(2)); // AB ⋉ CD: no shared attrs
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let report = analyze(&p, &s, &c);
        assert_eq!(report.by_lint("cartesian-join").len(), 1);
    }

    #[test]
    fn noop_semijoins_are_flagged() {
        let (c, s) = scheme(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp("V");
        b.semijoin(Reg::Base(0), Reg::Base(0)); // self
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.semijoin(Reg::Base(0), Reg::Base(1)); // idempotent repeat
        b.join(v, Reg::Base(0), Reg::Base(1));
        b.semijoin(v, Reg::Base(1)); // target is a join over the filter
        let p = b.finish(v);
        let report = analyze(&p, &s, &c);
        let hits = report.by_lint("noop-semijoin");
        let at: Vec<Option<usize>> = hits.iter().map(|d| d.stmt).collect();
        assert_eq!(at, vec![Some(0), Some(2), Some(4)]);
    }

    #[test]
    fn rewritten_filter_is_not_a_noop() {
        let (c, s) = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.semijoin(Reg::Base(1), Reg::Base(2)); // Base(1) changes value...
        b.semijoin(Reg::Base(0), Reg::Base(1)); // ...so this CAN filter
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let report = analyze(&p, &s, &c);
        assert!(report.by_lint("noop-semijoin").is_empty());
    }

    #[test]
    fn noop_project_is_flagged_but_narrowing_is_not() {
        let (c, s) = scheme(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp("V");
        let w = b.new_temp("W");
        let x = b.new_temp("X");
        b.join(v, Reg::Base(0), Reg::Base(1));
        let ab = s.attrs_of(0).clone();
        b.project(w, v, ab.clone()); // ABC → AB: real work
        b.project(w, w, ab.clone()); // AB → AB onto itself: identity
        b.project(x, w, ab); // AB → AB into a new register: a pure copy
        let p = b.finish(x);
        let report = analyze(&p, &s, &c);
        let hits = report.by_lint("noop-project");
        assert_eq!(hits.len(), 2);
        assert_eq!((hits[0].stmt, hits[0].severity), (Some(2), Severity::Note));
        assert_eq!((hits[1].stmt, hits[1].severity), (Some(3), Severity::Note));
        // Identity projections are notes (Algorithm 2 can emit them), so
        // they alone never fail the default gate.
        assert!(report.is_clean());
    }

    #[test]
    fn dead_store_matches_eliminate_dead_code() {
        let (c, s) = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp("V");
        let w = b.new_temp("W");
        b.join(v, Reg::Base(0), Reg::Base(1));
        b.join(w, Reg::Base(1), Reg::Base(2)); // never read: dead
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let report = analyze(&p, &s, &c);
        let flagged: Vec<usize> = report
            .by_lint("dead-store")
            .iter()
            .map(|d| d.stmt.unwrap())
            .collect();
        assert_eq!(flagged, vec![1]);
        // The lint must agree exactly with the optimizer's drop set.
        let optimized = eliminate_dead_code(&p);
        assert_eq!(optimized.stmts.len(), p.stmts.len() - flagged.len());
    }

    #[test]
    fn redundant_recompute_is_flagged_across_commuted_operands() {
        let (c, s) = scheme(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp("V");
        let w = b.new_temp("W");
        b.join(v, Reg::Base(0), Reg::Base(1));
        b.join(w, Reg::Base(1), Reg::Base(0)); // ⋈ commutes: same value
        b.semijoin(v, w);
        let p = b.finish(v);
        let report = analyze(&p, &s, &c);
        let hits = report.by_lint("redundant-recompute");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].stmt, Some(1));
        // v and w hold the same value, so the semijoin is also a noop.
        assert_eq!(report.by_lint("noop-semijoin").len(), 1);
    }

    #[test]
    fn claim_c_bound_notes_partial_result_and_warns_on_length() {
        let (c, s) = scheme(&["AB", "BC"]);
        // r(a+5) = 2 * (3 + 5) = 16: build a valid 16-statement program.
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp("V");
        b.join(v, Reg::Base(0), Reg::Base(1));
        for _ in 0..15 {
            b.semijoin(v, Reg::Base(0));
        }
        let p = b.finish(v);
        assert_eq!(p.stmts.len(), 16);
        let report = analyze(&p, &s, &c);
        assert_eq!(report.by_lint("claim-c-bound").len(), 1);
        assert_eq!(report.by_lint("claim-c-bound")[0].severity, Severity::Warn);

        // A short program whose result misses attributes only gets a note.
        let mut b = ProgramBuilder::new(&s);
        let w = b.new_temp_alias("W", Reg::Base(0));
        b.semijoin(Reg::Base(0), Reg::Base(1));
        let p = b.finish(w);
        let report = analyze(&p, &s, &c);
        let hits = report.by_lint("claim-c-bound");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Note);
        assert!(report.is_clean(), "a note alone keeps the program clean");
    }

    #[test]
    fn invalid_program_reports_a_single_validate_error() {
        let (c, s) = scheme(&["AB", "BC"]);
        let p = Program {
            num_bases: 2,
            temp_names: vec!["V".into()],
            temp_init: vec![None],
            stmts: vec![],
            result: Reg::Temp(0),
        };
        let report = analyze(&p, &s, &c);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].lint, "validate");
        assert_eq!(report.worst(), Some(Severity::Error));
    }

    #[test]
    fn custom_pass_selection_runs_only_those_passes() {
        let (c, s) = scheme(&["AB", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp("V");
        b.join(v, Reg::Base(0), Reg::Base(1));
        let p = b.finish(v);
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(passes::DeadStore)];
        let report = analyze_with(&passes, &p, &s, &c);
        assert!(report.by_lint("cartesian-join").is_empty());
    }
}
