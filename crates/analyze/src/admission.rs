//! Pre-execution admission control: certified per-statement cost bounds
//! cheap enough to evaluate *before* running anything.
//!
//! The Theorem-2 certificate ([`Certificate`]) bounds every statement head
//! by a product of `⋈D[S]` intermediates, but evaluating those exactly
//! means executing the very joins admission is supposed to gate. Instead
//! each `|⋈D[S]|` is over-approximated by `Π_{i∈S} |D_i|` (a join is a
//! subset of the Cartesian product of its inputs), and the result is
//! intersected with the independent interval analysis of
//! [`crate::absint::interval_analysis`] — both are sound upper bounds, so
//! their elementwise minimum is too. The whole computation is arithmetic
//! over the input cardinalities: O(statements × factors), no tuples
//! touched.
//!
//! A server admits a request iff every statement's admitted bound is at
//! most the configured budget; a rejection names the first offending
//! statement, its numeric bound, and the certificate's symbolic bound so
//! the client sees *why* (e.g. `|⋈D[{AB}]|·|⋈D[{CD}]|` — a Cartesian
//! product the optimizer would never emit, cf. the paper's title). The
//! report itself is numbers only: whoever prints a statement renders its
//! symbolic bound ([`Certificate::bound_name`]) and its excerpt
//! ([`AnalysisCx::excerpt`]) for that statement alone.

use crate::absint::interval_analysis;
use crate::cert::Certificate;
use crate::cx::AnalysisCx;

/// The admitted (sound) cost bound for one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionBound {
    /// Statement index.
    pub stmt: usize,
    /// `"join"`, `"semijoin"` or `"project"`.
    pub kind: &'static str,
    /// `min(certificate product, interval hi)` — a sound upper bound on
    /// the statement head's cardinality. `u64::MAX` reads as "unbounded".
    pub bound: u64,
    /// Whether the certificate bound is a single intermediate (the
    /// Theorem-2 shape) rather than a product.
    pub tight: bool,
}

/// The whole-program admission report: per-statement bounds plus the peak.
#[derive(Debug, Clone)]
pub struct AdmissionReport {
    /// One bound per statement, in statement order.
    pub bounds: Vec<AdmissionBound>,
    /// The largest per-statement bound (0 for an empty program).
    pub peak: u64,
    /// Index of the statement carrying [`AdmissionReport::peak`].
    pub peak_stmt: Option<usize>,
}

impl AdmissionReport {
    /// The first statement whose bound exceeds `budget`, if any — the
    /// statement a rejection names.
    #[must_use]
    pub fn violation(&self, budget: u64) -> Option<&AdmissionBound> {
        self.bounds.iter().find(|b| b.bound > budget)
    }
}

/// Compute the admission report for an analyzed program given the input
/// cardinalities `seeds[i] = |D_i|` (the resident catalog's sizes).
#[must_use]
pub fn admission_report(cx: &AnalysisCx<'_>, seeds: &[u64]) -> AdmissionReport {
    admission_report_with(cx, seeds, &Certificate::compute(cx))
}

/// [`admission_report`] over a caller-supplied [`Certificate`], so a caller
/// that also needs the certificate for something else (executor selection,
/// the memory certificate) computes it once.
#[must_use]
pub fn admission_report_with(
    cx: &AnalysisCx<'_>,
    seeds: &[u64],
    cert: &Certificate,
) -> AdmissionReport {
    let bounds: Vec<AdmissionBound> = cert
        .stmts
        .iter()
        .zip(admitted_bounds(cx, seeds, cert))
        .enumerate()
        .map(|(i, (sb, bound))| AdmissionBound {
            stmt: i,
            kind: sb.kind,
            bound,
            tight: sb.tight,
        })
        .collect();
    let peak_stmt = bounds
        .iter()
        .enumerate()
        .max_by_key(|(_, b)| b.bound)
        .map(|(i, _)| i);
    let peak = peak_stmt.map_or(0, |i| bounds[i].bound);
    AdmissionReport {
        bounds,
        peak,
        peak_stmt,
    }
}

/// The admitted bound of every statement: the certificate's product with
/// each `|⋈D[S]|` over-approximated by `Π_{i∈S} |D_i|` (a join is a subset
/// of its inputs' Cartesian product), refined by the interval highs. Both
/// are sound, so their minimum is.
pub(crate) fn admitted_bounds(cx: &AnalysisCx<'_>, seeds: &[u64], cert: &Certificate) -> Vec<u64> {
    let products = cert.evaluate_with(|set| {
        set.iter()
            .fold(1, |acc: u64, i| acc.saturating_mul(seeds[i]))
    });
    let intervals = interval_analysis(cx, seeds);
    products
        .iter()
        .zip(&intervals)
        .map(|(&b, iv)| b.min(iv.hi))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_hypergraph::DbScheme;
    use mjoin_program::{ProgramBuilder, Reg};
    use mjoin_relation::Catalog;

    fn cx_parts(schemes: &[&str]) -> (Catalog, DbScheme) {
        let mut c = Catalog::new();
        let scheme = DbScheme::parse(&mut c, schemes);
        (c, scheme)
    }

    /// A chain join's admitted bounds never exceed the Cartesian products
    /// of the inputs involved, and the interval refinement kicks in for
    /// semijoins (a filter cannot grow its target).
    #[test]
    fn semijoin_bound_uses_interval_refinement() {
        let (c, scheme) = cx_parts(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&scheme);
        b.semijoin(Reg::Base(0), Reg::Base(1));
        let p = b.finish(Reg::Base(0));
        let cx = AnalysisCx::new(&p, &scheme, &c).unwrap();
        let report = admission_report(&cx, &[10, 1000]);
        // AB ⋉ BC has at most |AB| = 10 tuples, however big BC is.
        assert_eq!(report.bounds.len(), 1);
        assert_eq!(report.bounds[0].bound, 10);
        assert_eq!(report.peak, 10);
        assert!(report.violation(10).is_none());
        assert_eq!(report.violation(9).unwrap().stmt, 0);
    }

    /// A Cartesian first join (the paper's anti-pattern) is bounded by the
    /// full product and trips a small budget, naming statement 0 with its
    /// product-shaped symbolic bound.
    #[test]
    fn cartesian_product_trips_the_budget() {
        let (c, scheme) = cx_parts(&["AB", "CD", "BC"]);
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1)); // AB ⋈ CD: disjoint schemes
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &scheme, &c).unwrap();
        let cert = Certificate::compute(&cx);
        let report = admission_report_with(&cx, &[100, 100, 100], &cert);
        assert_eq!(report.bounds[0].bound, 10_000, "Cartesian product bound");
        let v = report.violation(1_000).expect("must trip");
        assert_eq!(v.stmt, 0);
        let symbolic = cert.bound_name(v.stmt, &scheme, &c);
        assert!(
            symbolic.contains('·') || symbolic.contains("AB"),
            "symbolic bound names the intermediates: {symbolic}"
        );
        // The follow-on join compounds the product, so the *peak* lands on
        // statement 1 — but a rejection still names statement 0, the first
        // over budget.
        assert_eq!(report.peak_stmt, Some(1));
        assert!(report.peak >= 10_000);
    }

    /// Admitted bounds are sound: never smaller than the true head sizes.
    #[test]
    fn bounds_are_sound_on_a_concrete_database() {
        use mjoin_program::execute;
        use mjoin_relation::{relation_of_ints, Database};
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2], &[2, 3], &[9, 8]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[2, 3], &[3, 4]]).unwrap();
        let scheme = DbScheme::parse(&mut c, &["AB", "BC"]);
        let db = Database::from_relations(vec![r, s]);

        let mut b = ProgramBuilder::new(&scheme);
        b.semijoin(Reg::Base(0), Reg::Base(1));
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &scheme, &c).unwrap();
        let seeds: Vec<u64> = db.relations().iter().map(|r| r.len() as u64).collect();
        let report = admission_report(&cx, &seeds);
        let out = execute(&p, &db);
        for (bound, &size) in report.bounds.iter().zip(&out.head_sizes) {
            assert!(
                bound.bound >= size as u64,
                "stmt {}: admitted bound {} < actual {}",
                bound.stmt,
                bound.bound,
                size
            );
        }
    }
}
