//! The symbolic cost certificate: a per-statement bound on every head's
//! cardinality in terms of intermediates `⋈D[𝒰]` of the input database —
//! the statement-level content of the paper's Theorem 2.
//!
//! Theorem 2's proof bounds every statement of an Algorithm-2 program by
//! the size of some intermediate `⋈D[𝒰]` (𝒰 a set of base relations),
//! which Claim C then multiplies out to `r(a+5)·cost(T1(D))`. This module
//! recovers those per-statement bounds *statically*, for any valid
//! program — generated or hand-written — by abstract interpretation over
//! the register file.
//!
//! ## The abstract domain
//!
//! Each register is tracked as a state `(𝒰, T, sub, factors)` where `𝒰` is
//! a set of base relations, `T` the register's current scheme, and the
//! invariant is:
//!
//! * if `sub` holds: `R(reg) ⊆ π_T(⋈D[𝒰])`, hence `|R(reg)| ≤ |⋈D[𝒰]|`
//!   (a *tight* bound by a single intermediate);
//! * always: `|R(reg)| ≤ Π_{S ∈ factors} |⋈D[S]|` (the product fallback);
//!   for a `sub` state `factors = [𝒰]`.
//!
//! Transfer functions:
//!
//! * **base** `i`: `sub` with `𝒰 = {i}` — the input relation is trivially
//!   a subset of itself.
//! * **semijoin** `t ⋉ f`: the head is a subset of `t`, so `t`'s state
//!   carries over unchanged (whatever bound held, still holds).
//! * **project** `π_A(s)`: a projection of a projection is a projection,
//!   and `|π(X)| ≤ |X|`, so `s`'s state carries over with scheme `A`.
//! * **join** `x ⋈ y`, both `sub` with `(𝒰x, Tx)`, `(𝒰y, Ty)`: the head is
//!   `sub` with `𝒰x ∪ 𝒰y` if either orientation of the *witness-patching
//!   conditions* holds (see below); otherwise the head falls back to the
//!   product of the operands' factor lists (`|x ⋈ y| ≤ |x|·|y|`).
//!
//! ## Why the join rule is sound
//!
//! Take a head tuple `t` of `x ⋈ y`. By the operand invariants there are
//! witnesses `mx ∈ ⋈D[𝒰x]` with `mx|Tx = t|Tx` and `my ∈ ⋈D[𝒰y]` with
//! `my|Ty = t|Ty`. Build the patched assignment `m' = mx` on `attrs(𝒰x)`,
//! `my` elsewhere on `attrs(𝒰y)`. `m'` lies in `⋈D[𝒰x ∪ 𝒰y]` and restricts
//! to `t` provided
//!
//! 1. `Ty ∩ attrs(𝒰x) ⊆ Tx` — wherever `t`'s `y`-part reads through the
//!    `mx` patch, `mx` is pinned to `t` too;
//! 2. `attrs(𝒰y ∖ 𝒰x) ∩ attrs(𝒰x) ⊆ Tx ∩ Ty` — every relation of `𝒰y`
//!    outside `𝒰x` sees `mx` and `my` only where they provably agree
//!    (both equal `t` on `Tx ∩ Ty`).
//!
//! Either orientation (`x` patched over `y`, or `y` over `x`) suffices.
//! When both operands still carry their full scheme (`T = attrs(𝒰)`) the
//! conditions hold trivially — that is the classical "join of subjoins is
//! a subjoin" case — but the general form also certifies the re-join of a
//! projected F-register into V (Algorithm 2 Steps 10–14), which is what
//! makes the certificate tight on the paper's Example 6. Projections that
//! genuinely lose the reconciliation attributes (e.g. `π_A R ⋈ π_A S`
//! over `R(AB), S(AB)`) correctly fail both orientations and get the
//! product bound — the single-intermediate bound would be unsound there.

use crate::cx::AnalysisCx;
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_program::dataflow::{num_regs, reg_index};
use mjoin_program::{Reg, Stmt};
use mjoin_relation::{AttrSet, Catalog};
use mjoin_trace::json::Value;

/// Abstract state of one register during the certificate sweep.
#[derive(Debug, Clone)]
struct RegState {
    /// The base relations this value derives from.
    set: RelSet,
    /// The register's scheme at this point.
    scheme: AttrSet,
    /// Whether `R(reg) ⊆ π_scheme(⋈D[set])` provably holds.
    sub: bool,
    /// Sound product bound: `|R(reg)| ≤ Π |⋈D[S]|` over these sets.
    /// Equals `[set]` when `sub`.
    factors: Vec<RelSet>,
}

/// The symbolic bound certified for one statement's head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmtBound {
    /// Statement index.
    pub stmt: usize,
    /// `"join"`, `"semijoin"` or `"project"`.
    pub kind: &'static str,
    /// The head is bounded by `Π_{S ∈ factors} |⋈D[S]|`.
    pub factors: Vec<RelSet>,
    /// Whether the bound is a single intermediate `|⋈D[𝒰]|` (the
    /// Theorem-2 shape) rather than a product.
    pub tight: bool,
    /// The base relations the head derives from (`∪` of the factors).
    pub head_set: RelSet,
    /// The tree node Algorithm 2 was processing when it emitted this
    /// statement, when provenance was attached ([`Certificate::attribute`]).
    pub node: Option<RelSet>,
}

/// The whole-program certificate: one [`StmtBound`] per statement, plus
/// the scheme's Theorem-2 constant factor.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Per-statement bounds, in statement order.
    pub stmts: Vec<StmtBound>,
    /// The scheme's `r(a+5)` — Theorem 2's data-independent constant.
    pub quasi_factor: u64,
}

/// Whether joining two `sub` operands keeps the head inside
/// `π(⋈D[𝒰x ∪ 𝒰y])`, checking one patch orientation (`x`'s witness kept
/// whole). See the module docs for the proof.
fn patch_ok(
    scheme: &DbScheme,
    x_set: RelSet,
    x_scheme: &AttrSet,
    y_set: RelSet,
    y_scheme: &AttrSet,
) -> bool {
    let x_attrs = scheme.attrs_of_set(x_set);
    // 1. Ty ∩ attrs(𝒰x) ⊆ Tx.
    if !y_scheme.intersect(&x_attrs).is_subset(x_scheme) {
        return false;
    }
    // 2. attrs(𝒰y ∖ 𝒰x) ∩ attrs(𝒰x) ⊆ Tx ∩ Ty.
    let outside = scheme.attrs_of_set(y_set.difference(x_set));
    outside
        .intersect(&x_attrs)
        .is_subset(&x_scheme.intersect(y_scheme))
}

fn join_transfer(scheme: &DbScheme, l: &RegState, r: &RegState) -> RegState {
    let set = l.set.union(r.set);
    let head_scheme = l.scheme.union(&r.scheme);
    let certified = l.sub
        && r.sub
        && (patch_ok(scheme, l.set, &l.scheme, r.set, &r.scheme)
            || patch_ok(scheme, r.set, &r.scheme, l.set, &l.scheme));
    if certified {
        RegState {
            set,
            scheme: head_scheme,
            sub: true,
            factors: vec![set],
        }
    } else {
        let mut factors = l.factors.clone();
        factors.extend(r.factors.iter().copied());
        RegState {
            set,
            scheme: head_scheme,
            sub: false,
            factors,
        }
    }
}

impl Certificate {
    /// Compute the certificate for an analyzed program.
    pub fn compute(cx: &AnalysisCx<'_>) -> Certificate {
        let program = cx.program;
        let scheme = cx.scheme;
        let mut states: Vec<Option<RegState>> = vec![None; num_regs(program)];
        for (i, state) in states.iter_mut().enumerate().take(scheme.num_relations()) {
            *state = Some(RegState {
                set: RelSet::singleton(i),
                scheme: scheme.attrs_of(i).clone(),
                sub: true,
                factors: vec![RelSet::singleton(i)],
            });
        }
        let resolve = |states: &[Option<RegState>], reg: Reg| -> RegState {
            let mut cur = reg;
            loop {
                match &states[reg_index(program, cur)] {
                    Some(st) => return st.clone(),
                    None => match cur {
                        Reg::Temp(t) => {
                            cur = program.temp_init[t].expect("validated alias");
                        }
                        Reg::Base(_) => unreachable!("bases are seeded"),
                    },
                }
            }
        };

        let mut stmts = Vec::with_capacity(program.stmts.len());
        for (i, stmt) in program.stmts.iter().enumerate() {
            let (head, kind, state) = match stmt {
                Stmt::Project { dst, src, attrs } => {
                    let mut st = resolve(&states, *src);
                    st.scheme = attrs.clone();
                    (*dst, "project", st)
                }
                Stmt::Semijoin { target, filter: _ } => {
                    (*target, "semijoin", resolve(&states, *target))
                }
                Stmt::Join { dst, left, right } => {
                    let l = resolve(&states, *left);
                    let r = resolve(&states, *right);
                    (*dst, "join", join_transfer(scheme, &l, &r))
                }
            };
            stmts.push(StmtBound {
                stmt: i,
                kind,
                factors: state.factors.clone(),
                tight: state.sub,
                head_set: state.set,
                node: None,
            });
            states[reg_index(program, head)] = Some(state);
        }
        Certificate {
            stmts,
            quasi_factor: scheme.quasi_factor(),
        }
    }

    /// Attach per-statement tree-node attribution (e.g. Algorithm 2's
    /// provenance: the S-node being processed when each statement was
    /// emitted). `nodes` must be in statement order and at least as long
    /// as the program.
    pub fn attribute(&mut self, nodes: &[RelSet]) {
        for (bound, &node) in self.stmts.iter_mut().zip(nodes) {
            bound.node = Some(node);
        }
    }

    /// How many statements carry a tight single-intermediate bound.
    pub fn tight_count(&self) -> usize {
        self.stmts.iter().filter(|b| b.tight).count()
    }

    /// Evaluate every statement's bound: `Π card(S)` over its factors.
    /// `card(S)` must return `|⋈D[S]|` or a sound upper bound on it (any
    /// overestimate keeps the certified bound sound, it only loosens it):
    /// the exact counting oracle for an audit, `Π_{i∈S} |D_i|` for
    /// admission. Products saturate at `u64::MAX`.
    pub fn evaluate_with(&self, mut card: impl FnMut(RelSet) -> u64) -> Vec<u64> {
        self.stmts
            .iter()
            .map(|b| {
                let mut acc: u128 = 1;
                for &f in &b.factors {
                    acc = acc.saturating_mul(u128::from(card(f)));
                }
                u64::try_from(acc).unwrap_or(u64::MAX)
            })
            .collect()
    }

    /// Render one statement's symbolic bound, e.g. `|⋈D[{ABC,CDE}]|` or
    /// `|⋈D[{AB}]|·|⋈D[{CD}]|`.
    pub fn bound_name(&self, i: usize, scheme: &DbScheme, catalog: &Catalog) -> String {
        let parts: Vec<String> = self.stmts[i]
            .factors
            .iter()
            .map(|&f| format!("|⋈D[{}]|", set_name(f, scheme, catalog)))
            .collect();
        parts.join("·")
    }

    /// Plain-text rendering: one line per statement plus a summary.
    pub fn render_text(&self, cx: &AnalysisCx<'_>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "certificate: {} statements, {} tight, {} product-bounded; r(a+5) = {}\n",
            self.stmts.len(),
            self.tight_count(),
            self.stmts.len() - self.tight_count(),
            self.quasi_factor
        ));
        for (i, b) in self.stmts.iter().enumerate() {
            let node = match b.node {
                Some(n) => format!("  [node {}]", set_name(n, cx.scheme, cx.catalog)),
                None => String::new(),
            };
            out.push_str(&format!(
                "  stmt {:>3}  |head| ≤ {}{}{}  {}\n",
                i,
                self.bound_name(i, cx.scheme, cx.catalog),
                if b.tight { "" } else { "  (product)" },
                node,
                cx.excerpt(i).unwrap_or_default()
            ));
        }
        out
    }

    /// JSON rendering: one object per statement plus the summary.
    pub fn to_json(&self, scheme: &DbScheme, catalog: &Catalog) -> Value {
        let name = |set| Value::Str(set_name(set, scheme, catalog));
        let stmts = self.stmts.iter().map(|b| {
            Value::obj()
                .set("stmt", Value::u64(b.stmt as u64))
                .set("kind", Value::str(b.kind))
                .set("tight", Value::Bool(b.tight))
                .set(
                    "factors",
                    Value::Arr(b.factors.iter().map(|&f| name(f)).collect()),
                )
                .set("node", b.node.map_or(Value::Null, &name))
        });
        Value::obj()
            .set("stmts", Value::Arr(stmts.collect()))
            .set("tight", Value::u64(self.tight_count() as u64))
            .set("quasi_factor", Value::u64(self.quasi_factor))
    }
}

/// Render a relation set as the attr-sets of its members: `{ABC,CDE}`.
pub(crate) fn set_name(set: RelSet, scheme: &DbScheme, catalog: &Catalog) -> String {
    let names: Vec<String> = set
        .iter()
        .map(|i| {
            mjoin_relation::Schema::from_set(scheme.attrs_of(i))
                .display(catalog)
                .to_string()
        })
        .collect();
    format!("{{{}}}", names.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_program::ProgramBuilder;
    use mjoin_relation::{relation_of_ints, Database};

    fn cx_scheme(schemes: &[&str]) -> (Catalog, DbScheme) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, schemes);
        (c, s)
    }

    #[test]
    fn chain_join_is_tight_throughout() {
        let (c, s) = cx_scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &s, &c).unwrap();
        let cert = Certificate::compute(&cx);
        assert_eq!(cert.tight_count(), 2);
        assert_eq!(cert.stmts[0].factors, vec![RelSet::from_indices([0, 1])]);
        assert_eq!(cert.stmts[1].factors, vec![RelSet::from_indices([0, 1, 2])]);
    }

    #[test]
    fn lossy_projection_join_falls_back_to_product() {
        // π_A R ⋈ π_A S over R(AB), S(AB): the single-intermediate bound
        // would be unsound (witnesses can disagree on the dropped B), so
        // the certificate must demote to the product bound.
        let (mut c, s) = cx_scheme(&["AB", "AB"]);
        let a = AttrSet::singleton(c.intern("A"));
        let mut b = ProgramBuilder::new(&s);
        let x = b.new_temp("X");
        let y = b.new_temp("Y");
        let z = b.new_temp("Z");
        b.project(x, Reg::Base(0), a.clone());
        b.project(y, Reg::Base(1), a);
        b.join(z, x, y);
        let p = b.finish(z);
        let cx = AnalysisCx::new(&p, &s, &c).unwrap();
        let cert = Certificate::compute(&cx);
        assert!(cert.stmts[0].tight && cert.stmts[1].tight);
        assert!(!cert.stmts[2].tight);
        assert_eq!(cert.stmts[2].factors.len(), 2);
    }

    #[test]
    fn evaluated_bounds_are_sound_on_data() {
        let (mut c, s) = cx_scheme(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.join(v, v, Reg::Base(1));
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &s, &c).unwrap();
        let cert = Certificate::compute(&cx);

        let ab = relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4], &[5, 2]]).unwrap();
        let bc = relation_of_ints(&mut c, "BC", &[&[2, 7], &[2, 8]]).unwrap();
        let db = Database::from_relations(vec![ab, bc]);
        // The reference size: build each `⋈D[S]`.
        let bounds = cert.evaluate_with(|set| db.join_of(&set.to_vec()).len() as u64);
        let out = mjoin_program::execute(&p, &db);
        for (i, &measured) in out.head_sizes.iter().enumerate() {
            assert!(
                measured as u64 <= bounds[i],
                "stmt {i}: measured {measured} > bound {}",
                bounds[i]
            );
        }
        // The semijoin is bounded by |AB| = 3, the join by |AB ⋈ BC| = 4.
        assert_eq!(bounds, vec![3, 4]);
    }

    #[test]
    fn attribution_and_renderers() {
        let (c, s) = cx_scheme(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &s, &c).unwrap();
        let mut cert = Certificate::compute(&cx);
        cert.attribute(&[RelSet::from_indices([0, 1])]);
        assert_eq!(cert.stmts[0].node, Some(RelSet::from_indices([0, 1])));
        let text = cert.render_text(&cx);
        assert!(text.contains("|⋈D[{AB,BC}]|"), "{text}");
        assert!(text.contains("[node {AB,BC}]"), "{text}");
        let json = cert.to_json(&s, &c).render();
        assert!(json.contains("\"tight\":true"), "{json}");
        assert_eq!(Value::parse(&json), Ok(cert.to_json(&s, &c)));
    }
}
