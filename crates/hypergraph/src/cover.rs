//! Fractional edge covers and the AGM output bound.
//!
//! The AGM bound (Atserias–Grohe–Marx) says the output of a natural join is
//! at most `∏_e |R_e|^{w_e}` for any *fractional edge cover* `w`: weights
//! `w_e ≥ 0` on the hyperedges with `Σ_{e ∋ a} w_e ≥ 1` for every attribute
//! `a`. Worst-case-optimal joins (Generic Join) run in time proportional to
//! the best such bound, which is why the executor selection in
//! `mjoin_core::engine` compares it against a program's Theorem-2
//! certificate.
//!
//! Minimizing `Σ w_e · ln|R_e|` over the covering polytope is a tiny LP. We
//! do not need an LP solver: every *vertex* of the covering polytope of a
//! hypergraph is half-integral only for graphs, but *any feasible point*
//! gives a sound upper bound — so we enumerate all assignments with
//! `w_e ∈ {0, ½, 1}` and keep the cheapest feasible one. For binary
//! relations (graphs, which is what the cyclic benchmark workloads are) the
//! optimum of the LP is attained at a half-integral point, so the bound is
//! *exact* there; for general hypergraphs it is an upper bound on the true
//! AGM optimum, which still makes it a valid output bound (possibly loose).
//! The all-ones assignment is always feasible, so the enumeration never
//! comes back empty.

use crate::relset::RelSet;
use crate::scheme::DbScheme;
use mjoin_relation::AttrSet;

/// Edges with more than this many *cover candidates* fall back to the
/// all-ones cover (still sound). `3^10 = 59049` assignments is milliseconds;
/// `3^r` beyond that is not worth it for bound estimation.
const MAX_ENUM_EDGES: usize = 10;

/// A fractional edge cover together with the log-scale bound it certifies.
#[derive(Debug, Clone)]
pub struct Cover {
    /// Weight per edge of the covered sub-hypergraph, in the order the
    /// edge indices were supplied (twice the weight, so it stays integral:
    /// `0`, `1`, or `2` meaning `0`, `½`, `1`).
    pub half_weights: Vec<u8>,
    /// `Σ w_e · ln|R_e|` — natural log of the certified output bound.
    /// `f64::NEG_INFINITY` when a positively-weighted edge is empty (the
    /// output is provably empty).
    pub ln_bound: f64,
}

/// The best half-integral fractional edge cover of `attrs` by the edges of
/// `scheme` selected by `edges`, weighting edge `e` by `ln(sizes[e])`.
/// `sizes` is indexed like `scheme.edges()` (full scheme indexing, not
/// compacted). Returns `None` only if the selected edges do not cover
/// `attrs` at all (no feasible assignment exists, all-ones included).
pub fn best_cover(
    scheme: &DbScheme,
    edges: RelSet,
    attrs: &AttrSet,
    sizes: &[u64],
) -> Option<Cover> {
    let idx: Vec<usize> = edges.iter().collect();
    // Feasibility pre-check: every target attribute appears in some edge.
    let reachable = idx
        .iter()
        .fold(AttrSet::new(), |acc, &e| acc.union(scheme.attrs_of(e)));
    if !attrs.is_subset(&reachable) {
        return None;
    }
    let lns: Vec<f64> = idx.iter().map(|&e| ln_size(sizes[e])).collect();
    let targets: Vec<Vec<usize>> = attrs
        .iter()
        .map(|a| {
            idx.iter()
                .enumerate()
                .filter(|(_, &e)| scheme.attrs_of(e).contains(a))
                .map(|(k, _)| k)
                .collect()
        })
        .collect();

    if idx.len() > MAX_ENUM_EDGES {
        return Some(all_ones(&lns));
    }

    let mut best: Option<Cover> = None;
    let mut w = vec![0u8; idx.len()];
    enumerate(&mut w, 0, &lns, &targets, &mut best);
    Some(best.unwrap_or_else(|| all_ones(&lns)))
}

/// Natural log of the minimum AGM output bound for the sub-hypergraph
/// `edges` over exactly the attributes those edges mention. This is the
/// quantity the WCOJ executor's runtime is proportional to. Returns
/// `f64::NEG_INFINITY` when the bound is provably zero (an empty covered
/// relation) and `0.0` for the empty edge set (nullary join: one tuple).
pub fn agm_ln(scheme: &DbScheme, edges: RelSet, sizes: &[u64]) -> f64 {
    if edges.is_empty() {
        return 0.0;
    }
    let attrs = scheme.attrs_of_set(edges);
    best_cover(scheme, edges, &attrs, sizes).map_or(f64::INFINITY, |c| c.ln_bound)
}

/// Convert a log-scale bound to a saturating `u64` tuple count: rounds up
/// (a bound must not under-report), saturates at `u64::MAX`, and maps
/// `NEG_INFINITY` (provably empty) to `0`.
pub fn bound_u64(ln: f64) -> u64 {
    if ln == f64::NEG_INFINITY {
        return 0;
    }
    // ln(u64::MAX) ≈ 44.36; beyond that the bound saturates.
    if ln >= 44.0 {
        return u64::MAX;
    }
    let x = ln.exp();
    // ln/exp round-trips land a few ulps off exact integers (e.g.
    // exp(2·ln(10⁴)) = 10⁸ + ε); snap to the integer before ceiling so
    // clean bounds display clean.
    let nearest = x.round();
    let v = if (x - nearest).abs() <= x * 1e-9 {
        nearest
    } else {
        x.ceil()
    };
    if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v as u64
    }
}

fn ln_size(n: u64) -> f64 {
    if n == 0 {
        f64::NEG_INFINITY
    } else {
        // ln(1) = 0: singleton relations are free under any weight.
        (n as f64).ln()
    }
}

fn all_ones(lns: &[f64]) -> Cover {
    Cover {
        half_weights: vec![2; lns.len()],
        ln_bound: weighted_sum(&vec![2; lns.len()], lns),
    }
}

/// `Σ (w/2) · ln` with the empty-relation convention: an empty relation
/// (`ln = -inf`) with positive weight certifies an empty output, and with
/// zero weight contributes nothing (avoiding `0 · -inf = NaN`).
fn weighted_sum(half_w: &[u8], lns: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&w, &ln) in half_w.iter().zip(lns) {
        if w == 0 {
            continue;
        }
        if ln == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        acc += f64::from(w) * 0.5 * ln;
    }
    acc
}

fn feasible(half_w: &[u8], targets: &[Vec<usize>]) -> bool {
    targets
        .iter()
        .all(|covering| covering.iter().map(|&k| u32::from(half_w[k])).sum::<u32>() >= 2)
}

fn enumerate(
    w: &mut Vec<u8>,
    pos: usize,
    lns: &[f64],
    targets: &[Vec<usize>],
    best: &mut Option<Cover>,
) {
    if pos == w.len() {
        if feasible(w, targets) {
            let ln = weighted_sum(w, lns);
            let better = best.as_ref().is_none_or(|b| ln < b.ln_bound);
            if better {
                *best = Some(Cover {
                    half_weights: w.clone(),
                    ln_bound: ln,
                });
            }
        }
        return;
    }
    for cand in [0u8, 1, 2] {
        w[pos] = cand;
        enumerate(w, pos + 1, lns, targets, best);
    }
    w[pos] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::Catalog;

    fn scheme_of(schemes: &[&str]) -> (Catalog, DbScheme) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, schemes);
        (c, s)
    }

    #[test]
    fn triangle_is_half_integral() {
        let (_, s) = scheme_of(&["AB", "BC", "CA"]);
        let n = 1000u64;
        let ln = agm_ln(&s, s.all(), &[n, n, n]);
        // AGM for the triangle: N^{3/2} via w = (1/2, 1/2, 1/2).
        let expect = 1.5 * (n as f64).ln();
        assert!((ln - expect).abs() < 1e-9, "got {ln}, want {expect}");
        assert_eq!(bound_u64(ln), 31_623, "ceil(1000^1.5)");
    }

    #[test]
    fn path_needs_full_weights_on_alternating_edges() {
        let (_, s) = scheme_of(&["AB", "BC", "CD"]);
        let n = 100u64;
        let ln = agm_ln(&s, s.all(), &[n, n, n]);
        // Optimal cover of a 3-path: w = (1, 0, 1) → N^2.
        assert!((ln - 2.0 * (n as f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn four_cycle_costs_n_squared() {
        let (_, s) = scheme_of(&["AB", "BC", "CD", "DA"]);
        let n = 50u64;
        let ln = agm_ln(&s, s.all(), &[n, n, n, n]);
        // C4: opposite edges at weight 1 (or all at 1/2) → N^2.
        assert!((ln - 2.0 * (n as f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn five_cycle_costs_n_to_the_five_halves() {
        let (_, s) = scheme_of(&["AB", "BC", "CD", "DE", "EA"]);
        let n = 50u64;
        let ln = agm_ln(&s, s.all(), &[n, n, n, n, n]);
        // C5 fractional cover number is 5/2.
        assert!((ln - 2.5 * (n as f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_sizes_shift_the_cover() {
        let (_, s) = scheme_of(&["AB", "BC", "CA"]);
        // One huge edge: the cover should lean on the two small ones
        // (w = (0? no — A needs cover) …) — at minimum the bound is no
        // worse than small·small achieved by w = (1, 1, 0)-style covers.
        let ln = agm_ln(&s, s.all(), &[10, 10, 1_000_000]);
        assert!(
            ln <= 2.0 * (10f64).ln() + 1e-9,
            "cover avoids the huge edge"
        );
    }

    #[test]
    fn empty_relation_gives_zero_bound() {
        let (_, s) = scheme_of(&["AB", "BC", "CA"]);
        let ln = agm_ln(&s, s.all(), &[100, 0, 100]);
        // An empty edge admits a cover certifying an empty output: the
        // join with empty BC *is* empty, and the minimization finds it.
        assert_eq!(ln, f64::NEG_INFINITY);
        assert_eq!(bound_u64(ln), 0);
    }

    #[test]
    fn sub_hypergraph_uses_full_scheme_indexing() {
        let (_, s) = scheme_of(&["AB", "BC", "CD"]);
        let sub = RelSet::from_indices([1, 2]); // BC ⋈ CD
        let ln = agm_ln(&s, sub, &[999_999, 20, 30]);
        // Path of two edges: all-ones is optimal → 20·30.
        assert!((ln - (20f64 * 30.0).ln()).abs() < 1e-9);
    }

    #[test]
    fn nullary_and_infeasible_cases() {
        let (_, s) = scheme_of(&["AB", "BC"]);
        assert_eq!(agm_ln(&s, RelSet::default(), &[5, 5]), 0.0);
        let mut c2 = Catalog::new();
        let s2 = DbScheme::parse(&mut c2, &["AB", "CD"]);
        let target = s2.attrs_of_set(s2.all());
        let only_ab = best_cover(&s2, RelSet::singleton(0), &target, &[5, 5]);
        assert!(only_ab.is_none(), "AB alone cannot cover C, D");
    }

    #[test]
    fn bound_u64_saturation() {
        assert_eq!(bound_u64(f64::NEG_INFINITY), 0);
        assert_eq!(bound_u64(0.0), 1);
        assert_eq!(bound_u64(100.0), u64::MAX);
        assert_eq!(bound_u64((1000f64).ln()), 1000);
        assert_eq!(bound_u64(2.0 * (10_000f64).ln()), 100_000_000);
    }

    #[test]
    fn many_edges_fall_back_to_all_ones() {
        let schemes: Vec<String> = (0..12)
            .map(|i| {
                let a = char::from(b'A' + i as u8);
                let b = char::from(b'A' + ((i + 1) % 12) as u8);
                format!("{a}{b}")
            })
            .collect();
        let refs: Vec<&str> = schemes.iter().map(String::as_str).collect();
        let (_, s) = scheme_of(&refs);
        let sizes = vec![10u64; 12];
        let ln = agm_ln(&s, s.all(), &sizes);
        // All-ones fallback: 10^12 — sound, if loose (true optimum 10^6).
        assert!((ln - 12.0 * (10f64).ln()).abs() < 1e-9);
    }
}
