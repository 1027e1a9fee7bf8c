//! The static-vs-measured audit: diff every statement's measured head count
//! (the §2.3 ledger of a run) against its sound static bounds — the
//! symbolic Theorem-2 [`Certificate`] evaluated on the input database, and
//! the [`CardInterval`]s of the cardinality abstract interpreter.
//!
//! The audit executes nothing and builds no join: the ledger comes from the
//! engine's run (`mjoin_core::engine`: `prepare → admit → execute`) and the
//! sizes `|⋈D[S]|` from the caller, typically the counting oracle. A
//! measured head that exceeds its sound static bound is a bug in the
//! kernel, the scheduler, or the certificate — so it surfaces as an
//! `error`-severity diagnostic (`audit-bound` / `audit-interval`), the
//! differential check that matters.

use crate::absint::{cost_blowup, interval_analysis, CardInterval};
use crate::cert::{set_name, Certificate};
use crate::cx::AnalysisCx;
use crate::diagnostic::{Diagnostic, Report, Severity};
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_relation::{Catalog, CostKind, CostLedger};
use mjoin_trace::json::Value;

/// One statement's row in the audit: measured cost vs static bounds.
#[derive(Debug, Clone)]
pub struct StmtAudit {
    /// Statement index.
    pub stmt: usize,
    /// Head tuples this statement actually produced.
    pub measured: u64,
    /// The certificate's bound evaluated on the input database.
    pub bound: u64,
    /// Whether that bound is a single intermediate (tight) or a product.
    pub tight: bool,
    /// The abstract interpreter's interval for this head.
    pub interval: CardInterval,
    /// An estimator's guess at the bound (optional, e.g. histogram-based).
    pub estimate: Option<u64>,
}

impl StmtAudit {
    /// `bound / max(measured, 1)` — how loose the certificate is here.
    #[must_use]
    pub fn gap(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.bound as f64 / (self.measured.max(1)) as f64
        }
    }

    /// The q-error of the estimator on this row: the max-ratio
    /// `max(est, measured) / min(est, measured)` with both sides clamped
    /// to ≥ 1, the standard symmetric accuracy measure for cardinality
    /// estimates (1.0 = exact, always ≥ 1). `None` when no estimate was
    /// recorded for this row.
    #[must_use]
    pub fn q_error(&self) -> Option<f64> {
        let est = self.estimate?.max(1);
        let measured = self.measured.max(1);
        #[allow(clippy::cast_precision_loss)]
        Some(est.max(measured) as f64 / est.min(measured) as f64)
    }
}

/// The whole-program audit result.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Diagnostics: `audit-bound` / `audit-interval` errors plus any
    /// `cost-blowup` warnings.
    pub report: Report,
    /// Per-statement rows, in statement order.
    pub rows: Vec<StmtAudit>,
    /// Total input tuples charged by the ledger.
    pub inputs: u64,
    /// `cost(P(D))` as accounted by the executor.
    pub cost: u64,
    /// The symbolic certificate the bounds came from.
    pub certificate: Certificate,
}

/// Audit one run of `cx`'s program. `ledger` is that run's §2.3 account:
/// one input entry per relation of the database, then one generated entry
/// per statement (its head size), in statement order. `card(S)` must return
/// `|⋈D[S]|` or a sound upper bound on it; it evaluates `certificate`, which
/// callers may corrupt on purpose to prove the differential has teeth.
/// `estimator`, when given, is consulted once per *tight* bound set (e.g. a
/// histogram oracle) and recorded per row for gap reporting — it never
/// affects the pass/fail verdict.
pub fn audit(
    cx: &AnalysisCx<'_>,
    certificate: Certificate,
    ledger: &CostLedger,
    card: impl FnMut(RelSet) -> u64,
    mut estimator: Option<&mut dyn FnMut(RelSet) -> u64>,
) -> AuditReport {
    let charged = |kind: CostKind| -> Vec<u64> {
        ledger
            .entries()
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.tuples)
            .collect()
    };
    let seeds = charged(CostKind::Input);
    let heads = charged(CostKind::Generated);
    assert_eq!(
        heads.len(),
        certificate.stmts.len(),
        "the ledger charges one head per statement"
    );
    let intervals = interval_analysis(cx, &seeds);
    let bounds = certificate.evaluate_with(card);

    let mut diagnostics: Vec<Diagnostic> = cost_blowup(cx, &seeds);
    let mut rows = Vec::with_capacity(heads.len());
    for (i, &measured) in heads.iter().enumerate() {
        let b = &certificate.stmts[i];
        let estimate = match (&mut estimator, b.tight) {
            (Some(est), true) => Some(est(b.head_set)),
            _ => None,
        };
        if measured > bounds[i] {
            diagnostics.push(Diagnostic {
                severity: Severity::Error,
                lint: "audit-bound",
                stmt: Some(i),
                message: format!(
                    "measured head has {measured} tuples but the certificate bounds it by \
                     {} = {} — kernel, scheduler, or certificate bug",
                    bounds[i],
                    certificate.bound_name(i, cx.scheme, cx.catalog)
                ),
                excerpt: cx.excerpt(i),
            });
        }
        if !intervals[i].contains(measured) {
            diagnostics.push(Diagnostic {
                severity: Severity::Error,
                lint: "audit-interval",
                stmt: Some(i),
                message: format!(
                    "measured head has {measured} tuples, outside the abstract interval \
                     [{}, {}]",
                    intervals[i].lo, intervals[i].hi
                ),
                excerpt: cx.excerpt(i),
            });
        }
        rows.push(StmtAudit {
            stmt: i,
            measured,
            bound: bounds[i],
            tight: b.tight,
            interval: intervals[i],
            estimate,
        });
    }

    diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.stmt.cmp(&b.stmt)));
    AuditReport {
        report: Report { diagnostics },
        rows,
        inputs: ledger.input_total(),
        cost: ledger.total(),
        certificate,
    }
}

impl AuditReport {
    /// Zero bound violations (warnings like `cost-blowup` may remain).
    #[must_use]
    pub fn bounds_hold(&self) -> bool {
        self.report.clean_at(Severity::Error)
    }

    /// The statement where the estimator was most wrong: `(stmt index,
    /// q-error)` of the largest [`StmtAudit::q_error`], or `None` when no
    /// row carries an estimate.
    #[must_use]
    pub fn worst_q_error(&self) -> Option<(usize, f64)> {
        self.rows
            .iter()
            .filter_map(|r| r.q_error().map(|q| (r.stmt, q)))
            .fold(None, |acc, (stmt, q)| match acc {
                Some((_, best)) if best >= q => acc,
                _ => Some((stmt, q)),
            })
    }

    /// Deterministic plain-text rendering (no timings — goldenable).
    #[must_use]
    pub fn render_text(&self, cx: &AnalysisCx<'_>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit: {} statements, ledger = {} inputs + {} heads = {} total\n",
            self.rows.len(),
            self.inputs,
            self.cost - self.inputs,
            self.cost
        ));
        out.push_str("stmt  measured      bound  kind       symbolic bound\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:>4}  {:>8}  {:>9}  {:<9}  {}{}\n",
                r.stmt,
                r.measured,
                r.bound,
                if r.tight { "tight" } else { "product" },
                self.certificate.bound_name(r.stmt, cx.scheme, cx.catalog),
                match r.estimate {
                    Some(e) => format!("  (est {e})"),
                    None => String::new(),
                }
            ));
        }
        if let Some((stmt, q)) = self.worst_q_error() {
            out.push_str(&format!(
                "estimator: worst q-error {q:.2} at statement {stmt} (est {} vs measured {})\n",
                self.rows[stmt].estimate.unwrap_or(0),
                self.rows[stmt].measured
            ));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.bounds_hold() {
                "all measured costs within static bounds"
            } else {
                "BOUND VIOLATION — see diagnostics"
            }
        ));
        if !self.report.diagnostics.is_empty() {
            out.push_str(&self.report.render_text());
        }
        out
    }

    /// JSON rendering: one object per statement, then the certificate's
    /// and the report's own JSON.
    #[must_use]
    pub fn to_json(&self, scheme: &DbScheme, catalog: &Catalog) -> Value {
        let stmts = self.rows.iter().map(|r| {
            let head_set = self.certificate.stmts[r.stmt].head_set;
            Value::obj()
                .set("stmt", Value::u64(r.stmt as u64))
                .set("measured", Value::u64(r.measured))
                .set("bound", Value::u64(r.bound))
                .set("tight", Value::Bool(r.tight))
                .set("lo", Value::u64(r.interval.lo))
                .set("hi", Value::u64(r.interval.hi))
                .set("set", Value::Str(set_name(head_set, scheme, catalog)))
                .set("estimate", r.estimate.map_or(Value::Null, Value::u64))
                .set("q_error", r.q_error().map_or(Value::Null, Value::Float))
        });
        Value::obj()
            .set("inputs", Value::u64(self.inputs))
            .set("cost", Value::u64(self.cost))
            .set("bounds_hold", Value::Bool(self.bounds_hold()))
            .set("stmts", Value::Arr(stmts.collect()))
            .set("certificate", self.certificate.to_json(scheme, catalog))
            .set("report", self.report.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_program::{execute, Program, ProgramBuilder, Reg};
    use mjoin_relation::{relation_of_ints, Database};

    fn fixture() -> (Catalog, DbScheme, Program, Database) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "BC"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.join(v, v, Reg::Base(1));
        let p = b.finish(v);
        let ab = relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4], &[5, 2]]).unwrap();
        let bc = relation_of_ints(&mut c, "BC", &[&[2, 7], &[2, 8]]).unwrap();
        let db = Database::from_relations(vec![ab, bc]);
        (c, s, p, db)
    }

    /// Run the fixture and audit it under `edit`'s certificate, sizing each
    /// `⋈D[S]` by building it (the test's own reference).
    fn audited(
        edit: impl FnOnce(&mut Certificate),
        estimator: Option<&mut dyn FnMut(RelSet) -> u64>,
    ) -> AuditReport {
        let (c, s, p, db) = fixture();
        let cx = AnalysisCx::new(&p, &s, &c).unwrap();
        let mut cert = Certificate::compute(&cx);
        edit(&mut cert);
        let ledger = execute(&p, &db).ledger;
        let card = |set: RelSet| db.join_of(&set.to_vec()).len() as u64;
        audit(&cx, cert, &ledger, card, estimator)
    }

    #[test]
    fn clean_program_audits_clean() {
        let rep = audited(|_| {}, None);
        assert!(rep.bounds_hold(), "{}", rep.report.render_text());
        assert_eq!(rep.rows.len(), 2);
        // Differential: rows sum to the ledger's generated total.
        let heads: u64 = rep.rows.iter().map(|r| r.measured).sum();
        assert_eq!(rep.inputs + heads, rep.cost);
    }

    #[test]
    fn corrupted_certificate_is_caught() {
        // Claim the join is bounded by a single base relation — it isn't.
        let rep = audited(
            |cert| cert.stmts[1].factors = vec![RelSet::singleton(1)],
            None,
        );
        assert!(!rep.bounds_hold());
        let bad = rep.report.by_lint("audit-bound");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].severity, Severity::Error);
        assert_eq!(bad[0].stmt, Some(1));
    }

    #[test]
    fn estimator_is_recorded_per_tight_row() {
        let mut calls = 0u32;
        let mut est = |set: RelSet| {
            calls += 1;
            set.len() as u64 * 100
        };
        let rep = audited(|_| {}, Some(&mut est));
        assert!(calls >= 1);
        assert_eq!(rep.rows[0].estimate, Some(100));
        assert_eq!(rep.rows[1].estimate, Some(200));
    }

    #[test]
    fn q_error_is_symmetric_and_worst_offender_is_reported() {
        // Overestimate row 0 by 50× and underestimate row 1 by the same
        // factor: the q-error must treat both directions alike.
        let mut first = true;
        let mut est = |_set: RelSet| {
            if std::mem::take(&mut first) {
                100 // measured 2 → q = 50
            } else {
                1 // measured 4 → q = 4
            }
        };
        let rep = audited(|_| {}, Some(&mut est));
        let q0 = rep.rows[0].q_error().unwrap();
        let q1 = rep.rows[1].q_error().unwrap();
        assert!(q0 > q1, "overestimate dominates: {q0} vs {q1}");
        assert_eq!(rep.worst_q_error(), Some((0, q0)));
        let (c, s, p, _) = fixture();
        let text = rep.render_text(&AnalysisCx::new(&p, &s, &c).unwrap());
        assert!(
            text.contains("worst q-error") && text.contains("at statement 0"),
            "{text}"
        );
        let json = rep.to_json(&s, &c).render();
        assert!(json.contains("\"q_error\":50.0000"), "{json}");
    }

    #[test]
    fn q_error_absent_without_an_estimator() {
        let rep = audited(|_| {}, None);
        assert!(rep.rows.iter().all(|r| r.q_error().is_none()));
        assert_eq!(rep.worst_q_error(), None);
        let (c, s, p, _) = fixture();
        assert!(!rep
            .render_text(&AnalysisCx::new(&p, &s, &c).unwrap())
            .contains("q-error"));
    }

    #[test]
    fn json_render_shapes() {
        let rep = audited(|_| {}, None);
        let (c, s, _, _) = fixture();
        let json = rep.to_json(&s, &c).render();
        assert!(json.contains("\"bounds_hold\":true"), "{json}");
        assert!(json.contains("\"certificate\":{"), "{json}");
        assert_eq!(Value::parse(&json), Ok(rep.to_json(&s, &c)));
    }
}
