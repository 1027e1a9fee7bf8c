//! Chandra–Merlin core minimization with proof-carrying rewrites.
//!
//! A conjunctive query is *minimal* (a **core**) when no endomorphism folds
//! it into a strict subset of its own atoms. Minimization repeatedly looks
//! for an atom whose removal still admits a head-preserving homomorphism
//! from the full query into the remainder; each such fold drops the atom and
//! the query stays equivalent. The result matters to everything downstream:
//! the join hypergraph shrinks, so AGM fractional-cover bounds, Theorem-2
//! certificates, and the `auto` executor decision are all computed against
//! the query that will actually run.
//!
//! Every accepted rewrite carries a [`MinimizeProof`]: the *folding*
//! homomorphism (original → core, witnessing `core ⊆ original`) and the
//! *inclusion* homomorphism (core → original — trivial, since the core's
//! atoms are a subset of the original's, witnessing `original ⊆ core`).
//! Both are re-checked with [`hom::check`] before [`minimize`] returns; a
//! proof that fails either direction rejects the rewrite and the original
//! query is returned untouched. On top of the static proof,
//! [`differential_validate`] executes both queries on small generated
//! databases — the dynamic half of "validated by differential execution"
//! that the compile pipeline runs before applying a rewrite.

use crate::ast::{ConjunctiveQuery, Term};
use crate::hom::{self, Hom};
use mjoin_relation::Value;
use std::collections::{BTreeMap, BTreeSet};

/// The two-way equivalence proof attached to a minimization.
#[derive(Debug, Clone)]
pub struct MinimizeProof {
    /// Head-preserving homomorphism original → core (composed over every
    /// accepted fold); witnesses `core ⊆ original`.
    pub folding: Hom,
    /// Head-preserving homomorphism core → original (the identity — the
    /// core's atoms are a subset of the original's); witnesses
    /// `original ⊆ core`.
    pub inclusion: Hom,
    /// Indices (into the original body) of the dropped atoms, ascending.
    pub dropped: Vec<usize>,
    /// Whether both directions re-checked successfully. [`minimize`] only
    /// ever returns a rewritten core under a `verified` proof.
    pub verified: bool,
}

/// A minimized query plus its equivalence proof.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The core (equal to the input when nothing folded).
    pub core: ConjunctiveQuery,
    /// The two-way proof. `proof.dropped` is empty iff the input was
    /// already minimal.
    pub proof: MinimizeProof,
}

/// Compute the core of `query`.
///
/// Greedily folds atoms until none folds; the result is unique up to
/// isomorphism (the core of a CQ is). The rewrite is only accepted when the
/// two-way homomorphism proof re-checks; otherwise the input query comes
/// back unchanged with `proof.verified == false`.
///
/// ```
/// use mjoin_cq::{minimize, parse_query};
///
/// let q = parse_query("Q(x, z) :- r(x, y), s(y, z), r(x, w).").unwrap();
/// let m = minimize(&q);
/// assert_eq!(m.core.body.len(), 2); // r(x, w) folds onto r(x, y)
/// assert_eq!(m.proof.dropped, vec![2]);
/// assert!(m.proof.verified);
/// ```
pub fn minimize(query: &ConjunctiveQuery) -> Minimized {
    minimize_counting(query).0
}

/// [`minimize`], plus how many fold searches gave up at
/// [`hom::NODE_BUDGET`] — atoms that may still be redundant.
pub(crate) fn minimize_counting(query: &ConjunctiveQuery) -> (Minimized, usize) {
    // One per core computation: lets a caller (and the server's `stats`)
    // see that a request minimized its query once, not once per layer.
    mjoin_trace::add("cq.minimize", 1);
    let identity = |q: &ConjunctiveQuery| -> Hom {
        q.body_variables()
            .into_iter()
            .map(|v| (v.to_string(), Term::Var(v.to_string())))
            .collect()
    };

    let unchanged = |verified: bool| Minimized {
        core: query.clone(),
        proof: MinimizeProof {
            folding: identity(query),
            inclusion: identity(query),
            dropped: Vec::new(),
            verified,
        },
    };

    if query.body.len() <= 1 || !query.is_safe() {
        return (unchanged(query.is_safe()), 0);
    }

    let mut abandoned = 0usize;
    let mut keep = vec![true; query.body.len()];
    // Composed folding: original variable → term over the current kept atoms.
    let mut folding = identity(query);
    loop {
        let mut folded = false;
        for i in 0..query.body.len() {
            if !keep[i] {
                continue;
            }
            let current = subquery(query, &keep);
            let mut target_keep: Vec<bool> = keep
                .iter()
                .enumerate()
                .filter(|&(j, _)| keep[j])
                .map(|(j, _)| j != i)
                .collect();
            // `current` is the kept atoms reindexed; mask out atom `i`.
            debug_assert_eq!(target_keep.len(), current.body.len());
            let (found, gave_up) = hom::fold_search(&current, &target_keep);
            abandoned += usize::from(gave_up);
            let Some(h) = found else {
                continue;
            };
            target_keep.clear();
            keep[i] = false;
            for image in folding.values_mut() {
                *image = hom::apply(&h, image);
            }
            folded = true;
        }
        if !folded {
            break;
        }
    }

    let dropped: Vec<usize> = (0..query.body.len()).filter(|&i| !keep[i]).collect();
    if dropped.is_empty() {
        return (unchanged(true), abandoned);
    }

    let core = subquery(query, &keep);
    let inclusion = identity(&core);
    // Proof check, both directions, before the rewrite is accepted.
    if !hom::check(query, &core, &folding) || !hom::check(&core, query, &inclusion) {
        debug_assert!(false, "minimization produced an unverifiable proof");
        return (unchanged(false), abandoned);
    }
    let minimized = Minimized {
        core,
        proof: MinimizeProof {
            folding,
            inclusion,
            dropped,
            verified: true,
        },
    };
    (minimized, abandoned)
}

/// The query restricted to the atoms with `keep[i]`.
fn subquery(query: &ConjunctiveQuery, keep: &[bool]) -> ConjunctiveQuery {
    ConjunctiveQuery {
        head_name: query.head_name.clone(),
        head_vars: query.head_vars.clone(),
        body: query
            .body
            .iter()
            .zip(keep)
            .filter_map(|(a, &k)| if k { Some(a.clone()) } else { None })
            .collect(),
    }
}

/// A deterministic xorshift generator for database synthesis (no external
/// RNG dependency; reproducibility matters more than quality here).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Naive backtracking evaluation of `q` over an ad-hoc database: the set of
/// head tuples. Independent of the engine (no binding, no join trees) so it
/// can arbitrate between the original query and its core.
fn eval_naive(
    q: &ConjunctiveQuery,
    db: &BTreeMap<String, Vec<Vec<Value>>>,
) -> BTreeSet<Vec<Value>> {
    fn go(
        q: &ConjunctiveQuery,
        db: &BTreeMap<String, Vec<Vec<Value>>>,
        idx: usize,
        env: &mut BTreeMap<String, Value>,
        out: &mut BTreeSet<Vec<Value>>,
    ) {
        if idx == q.body.len() {
            let tuple: Option<Vec<Value>> =
                q.head_vars.iter().map(|v| env.get(v).cloned()).collect();
            if let Some(t) = tuple {
                out.insert(t);
            }
            return;
        }
        let atom = &q.body[idx];
        let Some(tuples) = db.get(&atom.predicate) else {
            return;
        };
        'tuples: for tuple in tuples {
            if tuple.len() != atom.terms.len() {
                continue;
            }
            let mut added: Vec<String> = Vec::new();
            for (term, v) in atom.terms.iter().zip(tuple) {
                match term {
                    Term::Const(c) => {
                        if c != v {
                            for a in added.drain(..) {
                                env.remove(&a);
                            }
                            continue 'tuples;
                        }
                    }
                    Term::Var(name) => match env.get(name) {
                        Some(bound) => {
                            if bound != v {
                                for a in added.drain(..) {
                                    env.remove(&a);
                                }
                                continue 'tuples;
                            }
                        }
                        None => {
                            env.insert(name.clone(), v.clone());
                            added.push(name.clone());
                        }
                    },
                }
            }
            go(q, db, idx + 1, env, out);
            for a in added {
                env.remove(&a);
            }
        }
    }

    let mut out = BTreeSet::new();
    let mut env = BTreeMap::new();
    go(q, db, 0, &mut env, &mut out);
    out
}

/// Differential validation: execute `original` and `rewritten` on `rounds`
/// small generated databases and compare answer sets exactly.
///
/// The databases draw values from a small integer domain plus every constant
/// mentioned by either query, so constant selections are exercised. Returns
/// a description of the first divergence, if any — equivalent queries (which
/// is what a verified [`MinimizeProof`] guarantees) never diverge.
pub fn differential_validate(
    original: &ConjunctiveQuery,
    rewritten: &ConjunctiveQuery,
    seed: u64,
    rounds: usize,
) -> Result<(), String> {
    // Predicate name → arity, over both bodies.
    let mut arities: BTreeMap<&str, usize> = BTreeMap::new();
    for atom in original.body.iter().chain(&rewritten.body) {
        arities.insert(&atom.predicate, atom.terms.len());
    }
    // Domain: a few small ints plus every constant either query mentions.
    let mut domain: Vec<Value> = (0..4).map(Value::Int).collect();
    for atom in original.body.iter().chain(&rewritten.body) {
        for term in &atom.terms {
            if let Term::Const(c) = term {
                if !domain.contains(c) {
                    domain.push(c.clone());
                }
            }
        }
    }

    let mut rng = XorShift::new(seed ^ 0x6d6a_6f69_6e5f_7131);
    for round in 0..rounds {
        let mut db: BTreeMap<String, Vec<Vec<Value>>> = BTreeMap::new();
        for (&name, &arity) in &arities {
            let tuples = 2 + rng.below(5 + round);
            let mut rel: Vec<Vec<Value>> = Vec::with_capacity(tuples);
            for _ in 0..tuples {
                rel.push(
                    (0..arity)
                        .map(|_| domain[rng.below(domain.len())].clone())
                        .collect(),
                );
            }
            rel.sort();
            rel.dedup();
            db.insert(name.to_string(), rel);
        }
        let a = eval_naive(original, &db);
        let b = eval_naive(rewritten, &db);
        if a != b {
            return Err(format!(
                "differential divergence on round {round}: original produced {} tuple(s), \
                 rewritten produced {} (db: {db:?})",
                a.len(),
                b.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn q(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap()
    }

    #[test]
    fn already_minimal_queries_untouched() {
        for text in [
            "Q(x, z) :- e(x, y), e(y, z).",
            "Q(x, y, z) :- e(x, y), e(y, z), e(z, x).",
            "Q(x) :- r(x, 3).",
            "Q(x, t) :- e(x, y), l(y, t).",
        ] {
            let query = q(text);
            let m = minimize(&query);
            assert!(m.proof.verified);
            assert!(m.proof.dropped.is_empty(), "{text} should be minimal");
            assert_eq!(m.core, query);
        }
    }

    #[test]
    fn folds_single_redundant_atom_with_proof() {
        let query = q("Q(x, z) :- r(x, y), s(y, z), r(x, w).");
        let m = minimize(&query);
        assert_eq!(m.proof.dropped, vec![2]);
        assert_eq!(m.core.body.len(), 2);
        assert!(m.proof.verified);
        // Re-check the proof from outside.
        assert!(hom::check(&query, &m.core, &m.proof.folding));
        assert!(hom::check(&m.core, &query, &m.proof.inclusion));
    }

    #[test]
    fn folds_chains_of_redundancy() {
        // A dangling 2-path r(x,a), r(a,b) folds onto the spine r(x,y), r(y,z)
        // because only x is exported.
        let query = q("Q(x) :- r(x, y), r(y, z), r(x, a), r(a, b).");
        let m = minimize(&query);
        // Either 2-path survives (cores are unique up to isomorphism).
        assert_eq!(m.core.body.len(), 2);
        assert_eq!(m.proof.dropped.len(), 2);
        assert!(m.proof.verified);
    }

    #[test]
    fn duplicate_atoms_fold() {
        let query = q("Q(x, y) :- e(x, y), e(x, y).");
        let m = minimize(&query);
        assert_eq!(m.core.body.len(), 1);
        assert!(m.proof.verified);
    }

    #[test]
    fn head_variables_block_folding() {
        // Both atoms export their second variable: nothing folds.
        let query = q("Q(x, y, z) :- r(x, y), r(x, z).");
        let m = minimize(&query);
        assert!(m.proof.dropped.is_empty());
    }

    #[test]
    fn triangle_with_redundant_edge_atom() {
        // The classic: a triangle plus a pendant copy of one edge.
        let query = q("Q(x, y, z) :- e(x, y), e(y, z), e(z, x), e(x, w).");
        let m = minimize(&query);
        assert_eq!(m.proof.dropped, vec![3]);
        assert_eq!(m.core.body.len(), 3);
    }

    #[test]
    fn core_of_core_is_fixed_point() {
        let query = q("Q(x) :- r(x, y), r(x, a), r(a, b), r(x, c).");
        let m = minimize(&query);
        let m2 = minimize(&m.core);
        assert!(m2.proof.dropped.is_empty());
        assert_eq!(m2.core, m.core);
    }

    #[test]
    fn differential_validation_accepts_true_rewrites() {
        let query = q("Q(x, z) :- r(x, y), s(y, z), r(x, w).");
        let m = minimize(&query);
        differential_validate(&query, &m.core, 7, 4).unwrap();
    }

    #[test]
    fn differential_validation_rejects_wrong_rewrites() {
        // Dropping a *non*-redundant atom is caught dynamically.
        let query = q("Q(x, z) :- r(x, y), s(y, z).");
        let wrong = q("Q(x, z) :- r(x, y), s(w, z).");
        assert!(differential_validate(&query, &wrong, 7, 6).is_err());
    }

    #[test]
    fn constants_participate_in_folding() {
        // r(x, w) folds onto r(x, 3) by w ↦ 3.
        let query = q("Q(x) :- r(x, 3), r(x, w).");
        let m = minimize(&query);
        assert_eq!(m.core.body.len(), 1);
        assert_eq!(m.proof.dropped, vec![1]);
        let image = hom::apply(&m.proof.folding, &Term::Var("w".into()));
        assert_eq!(image, Term::Const(Value::Int(3)));
    }

    #[test]
    fn unsafe_query_left_alone() {
        let query = ConjunctiveQuery {
            head_name: "Q".into(),
            head_vars: vec!["missing".into()],
            body: q("Q(x) :- r(x, y), r(x, w).").body,
        };
        let m = minimize(&query);
        assert!(!m.proof.verified);
        assert!(m.proof.dropped.is_empty());
    }
}
