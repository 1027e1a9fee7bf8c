//! Homomorphism search between conjunctive queries.
//!
//! A *homomorphism* from query `P` to query `Q` is a mapping `h` from `P`'s
//! variables to `Q`'s terms that (1) sends every body atom of `P` onto a body
//! atom of `Q` with the same predicate, (2) fixes constants, and (3) maps
//! `P`'s head tuple onto `Q`'s head tuple positionally. By the classic
//! Chandra–Merlin theorem, such an `h` exists iff `Q ⊆ P` — every answer of
//! `Q` is an answer of `P` on every database — so the search doubles as a
//! containment check ([`contains`], [`equivalent`]) and as the engine behind
//! core minimization (`minimize.rs` folds a query into a strict subset of its
//! own atoms).
//!
//! The search is a backtracking match of atoms onto atoms with two prunes:
//!
//! * **arity/predicate buckets** — candidate target atoms are indexed by
//!   `(predicate, arity)`, so an atom only ever tries same-shaped targets;
//! * **occurrence-profile (degree) pruning** — a variable `x` may map to a
//!   variable `y` only if every `(predicate, position)` slot where `x`
//!   occurs is also a slot where `y` occurs. This subsumes plain degree
//!   pruning (an image variable must be at least as "connected" as its
//!   preimage) and rejects most dead branches before any atom is matched.
//!
//! The search is exact but budgeted: pathological inputs give up after
//! [`NODE_BUDGET`] backtracking nodes and report "no homomorphism found",
//! which downstream passes treat as "leave the query alone" — sound, merely
//! incomplete. Each give-up counts once in the `cq.hom_budget_exhausted`
//! trace counter, and `lint_query` notes a minimization it cut short.

use crate::ast::{Atom, ConjunctiveQuery, Term};
use std::collections::{BTreeMap, BTreeSet};

/// A homomorphism as a substitution: source variable → target term.
pub type Hom = BTreeMap<String, Term>;

/// Backtracking-node budget; beyond it the search gives up (returns `None`).
pub const NODE_BUDGET: usize = 200_000;

/// Apply a substitution to a term (variables not in the map stay fixed).
pub fn apply(hom: &Hom, term: &Term) -> Term {
    match term {
        Term::Var(v) => hom.get(v).cloned().unwrap_or_else(|| term.clone()),
        Term::Const(_) => term.clone(),
    }
}

/// Apply a substitution to a whole atom.
pub fn apply_atom(hom: &Hom, atom: &Atom) -> Atom {
    Atom {
        predicate: atom.predicate.clone(),
        terms: atom.terms.iter().map(|t| apply(hom, t)).collect(),
    }
}

/// The `(predicate, position)` slots where each variable of `atoms` occurs.
fn occurrence_profiles(atoms: &[&Atom]) -> BTreeMap<String, BTreeSet<(String, usize)>> {
    let mut profiles: BTreeMap<String, BTreeSet<(String, usize)>> = BTreeMap::new();
    for atom in atoms {
        for (pos, term) in atom.terms.iter().enumerate() {
            if let Term::Var(v) = term {
                profiles
                    .entry(v.clone())
                    .or_default()
                    .insert((atom.predicate.clone(), pos));
            }
        }
    }
    profiles
}

struct Search<'a> {
    /// Source atoms in match order (most-constrained-first).
    from_atoms: Vec<&'a Atom>,
    /// Candidate target atoms per source atom (same predicate and arity).
    candidates: Vec<Vec<&'a Atom>>,
    /// Occurrence profile of each source variable.
    from_profiles: BTreeMap<String, BTreeSet<(String, usize)>>,
    /// Occurrence profile of each target variable.
    to_profiles: BTreeMap<String, BTreeSet<(String, usize)>>,
    /// Remaining backtracking nodes before the search gives up.
    budget: usize,
    /// Whether the budget ran out (distinguishes "no hom" from "gave up").
    exhausted: bool,
}

impl<'a> Search<'a> {
    /// Try to extend `map` so source atom `idx` matches some candidate.
    fn solve(&mut self, idx: usize, map: &mut Hom) -> bool {
        if idx == self.from_atoms.len() {
            return true;
        }
        let atom = self.from_atoms[idx];
        for ci in 0..self.candidates[idx].len() {
            if self.budget == 0 {
                self.exhausted = true;
                return false;
            }
            self.budget -= 1;
            let target = self.candidates[idx][ci];
            let mut added: Vec<String> = Vec::new();
            if self.unify(atom, target, map, &mut added) && self.solve(idx + 1, map) {
                return true;
            }
            for v in added {
                map.remove(&v);
            }
        }
        false
    }

    /// Unify `atom` against `target` under `map`, recording new bindings.
    fn unify(&self, atom: &Atom, target: &Atom, map: &mut Hom, added: &mut Vec<String>) -> bool {
        for (s, t) in atom.terms.iter().zip(&target.terms) {
            match s {
                Term::Const(c) => {
                    if !matches!(t, Term::Const(c2) if c2 == c) {
                        return false;
                    }
                }
                Term::Var(v) => match map.get(v) {
                    Some(bound) => {
                        if bound != t {
                            return false;
                        }
                    }
                    None => {
                        if !self.image_ok(v, t) {
                            return false;
                        }
                        map.insert(v.clone(), t.clone());
                        added.push(v.clone());
                    }
                },
            }
        }
        true
    }

    /// Occurrence-profile prune: can source variable `v` map to term `t`?
    fn image_ok(&self, v: &str, t: &Term) -> bool {
        let Term::Var(w) = t else {
            // Constants carry no profile; the atom-by-atom match alone
            // decides whether a variable may collapse onto a constant.
            return true;
        };
        match (self.from_profiles.get(v), self.to_profiles.get(w)) {
            (Some(need), Some(have)) => need.is_subset(have),
            (Some(_), None) => false,
            (None, _) => true,
        }
    }
}

/// Find a homomorphism from `from`'s body into the atoms of `to_atoms`,
/// pre-seeded with the bindings in `seed` (used for head preservation).
///
/// Returns the completed substitution, or `None` when there is none, and
/// whether the search gave up at [`NODE_BUDGET`] before deciding (counted
/// in the `cq.hom_budget_exhausted` trace counter).
fn search(from_atoms: &[&Atom], to_atoms: &[&Atom], seed: Hom) -> (Option<Hom>, bool) {
    // Bucket targets by (predicate, arity).
    let mut candidates: Vec<Vec<&Atom>> = Vec::with_capacity(from_atoms.len());
    for atom in from_atoms {
        let bucket: Vec<&Atom> = to_atoms
            .iter()
            .filter(|t| t.predicate == atom.predicate && t.terms.len() == atom.terms.len())
            .copied()
            .collect();
        if bucket.is_empty() {
            return (None, false);
        }
        candidates.push(bucket);
    }

    // Most-constrained-first: repeatedly pick the unmatched atom with the
    // most already-bound variables, tie-broken by fewest candidates.
    let mut order: Vec<usize> = Vec::with_capacity(from_atoms.len());
    let mut bound_vars: BTreeSet<String> = seed.keys().cloned().collect();
    let mut remaining: Vec<usize> = (0..from_atoms.len()).collect();
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| {
                let bound = from_atoms[i]
                    .variables()
                    .iter()
                    .filter(|v| bound_vars.contains(**v))
                    .count();
                (bound, usize::MAX - candidates[i].len())
            })
            .expect("non-empty");
        order.push(best);
        for v in from_atoms[best].variables() {
            bound_vars.insert(v.to_string());
        }
        remaining.remove(pos);
    }

    let ordered_atoms: Vec<&Atom> = order.iter().map(|&i| from_atoms[i]).collect();
    let ordered_candidates: Vec<Vec<&Atom>> =
        order.iter().map(|&i| candidates[i].clone()).collect();
    let mut s = Search {
        from_profiles: occurrence_profiles(&ordered_atoms),
        to_profiles: occurrence_profiles(to_atoms),
        from_atoms: ordered_atoms,
        candidates: ordered_candidates,
        budget: NODE_BUDGET,
        exhausted: false,
    };
    let mut map = seed;
    if s.solve(0, &mut map) {
        return (Some(map), false);
    }
    if s.exhausted {
        mjoin_trace::add("cq.hom_budget_exhausted", 1);
    }
    (None, s.exhausted)
}

/// Seed a head-preserving substitution: `from.head_vars[i] ↦ to.head_vars[i]`.
///
/// Fails (returns `None`) when the heads have different arities or a repeated
/// head variable would need two images.
fn head_seed(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<Hom> {
    if from.head_vars.len() != to.head_vars.len() {
        return None;
    }
    let mut seed = Hom::new();
    for (f, t) in from.head_vars.iter().zip(&to.head_vars) {
        let image = Term::Var(t.clone());
        match seed.get(f) {
            Some(prev) if *prev != image => return None,
            _ => {
                seed.insert(f.clone(), image);
            }
        }
    }
    Some(seed)
}

/// Find a head-preserving homomorphism from `from` to `to`, if one exists.
pub fn homomorphism(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<Hom> {
    let seed = head_seed(from, to)?;
    let from_atoms: Vec<&Atom> = from.body.iter().collect();
    let to_atoms: Vec<&Atom> = to.body.iter().collect();
    search(&from_atoms, &to_atoms, seed).0
}

/// Find an endomorphism of `q` whose image avoids every atom `i` with
/// `!keep[i]` — i.e. a folding of `q` into the kept subset of its own body.
pub fn fold_into(q: &ConjunctiveQuery, keep: &[bool]) -> Option<Hom> {
    fold_search(q, keep).0
}

/// [`fold_into`], plus whether the search gave up at [`NODE_BUDGET`].
pub(crate) fn fold_search(q: &ConjunctiveQuery, keep: &[bool]) -> (Option<Hom>, bool) {
    debug_assert_eq!(keep.len(), q.body.len());
    let mut seed = Hom::new();
    for v in &q.head_vars {
        seed.insert(v.clone(), Term::Var(v.clone()));
    }
    let from_atoms: Vec<&Atom> = q.body.iter().collect();
    let to_atoms: Vec<&Atom> = q
        .body
        .iter()
        .zip(keep)
        .filter_map(|(a, &k)| if k { Some(a) } else { None })
        .collect();
    search(&from_atoms, &to_atoms, seed)
}

/// Verify that `hom` is a head-preserving homomorphism from `from` to `to`.
///
/// This is the proof-checking half of the pair: [`homomorphism`] *finds*
/// mappings, `check` *validates* them independently (minimize.rs refuses a
/// rewrite unless both directions check out).
pub fn check(from: &ConjunctiveQuery, to: &ConjunctiveQuery, hom: &Hom) -> bool {
    if from.head_vars.len() != to.head_vars.len() {
        return false;
    }
    for (f, t) in from.head_vars.iter().zip(&to.head_vars) {
        if apply(hom, &Term::Var(f.clone())) != Term::Var(t.clone()) {
            return false;
        }
    }
    from.body
        .iter()
        .all(|atom| to.body.contains(&apply_atom(hom, atom)))
}

/// Containment check: does `general` contain `specific` (`specific ⊆
/// general`: on every database, every answer of `specific` is an answer of
/// `general`)? True iff a head-preserving homomorphism `general → specific`
/// exists.
pub fn contains(general: &ConjunctiveQuery, specific: &ConjunctiveQuery) -> bool {
    homomorphism(general, specific).is_some()
}

/// Equivalence check: containment in both directions.
pub fn equivalent(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    contains(a, b) && contains(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn q(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap()
    }

    #[test]
    fn identity_homomorphism_exists() {
        let a = q("Q(x, z) :- r(x, y), s(y, z).");
        let h = homomorphism(&a, &a).unwrap();
        assert!(check(&a, &a, &h));
    }

    #[test]
    fn redundant_atom_folds() {
        // r(x, w) folds onto r(x, y) via w ↦ y.
        let wide = q("Q(x, z) :- r(x, y), s(y, z), r(x, w).");
        let core = q("Q(x, z) :- r(x, y), s(y, z).");
        let h = homomorphism(&wide, &core).unwrap();
        assert_eq!(h.get("w"), Some(&Term::Var("y".into())));
        assert!(check(&wide, &core, &h));
        // And the trivial inclusion holds the other way.
        assert!(homomorphism(&core, &wide).is_some());
        assert!(equivalent(&wide, &core));
    }

    #[test]
    fn head_variables_are_fixed() {
        // z is in the head, so r(x, z) cannot fold onto r(x, y) — but the
        // same body folds fine once the head stops exporting z.
        let exported = q("Q(x, y, z) :- r(x, y), r(x, z).");
        assert!(fold_into(&exported, &[true, false]).is_none());
        let private = q("Q(x, y) :- r(x, y), r(x, z).");
        assert!(fold_into(&private, &[true, false]).is_some());
    }

    #[test]
    fn containment_is_directional() {
        // path3 ⊆ path2 (a 3-path's endpoints... no: every 3-path answer is
        // NOT a 2-path answer; rather Q2 ⊇ Q3 fails, but folding the 3-path
        // onto the 2-path requires b↦? with head fixed — check directions
        // concretely: hom from 2-path into 3-path maps y to b: exists? head
        // (x,z)↦(x,z) but 2-path's z is head; 3-path head is (x,z) with
        // z at the end. No hom either way for distinct predicates.
        let p2 = q("Q(x, z) :- e(x, y), e(y, z).");
        let tri = q("Q(x, z) :- e(x, y), e(y, z), e(z, x).");
        // hom p2 → tri exists (identity on x,y,z): so tri ⊆ p2.
        assert!(contains(&p2, &tri));
        // No hom tri → p2: e(z, x) has no image with z, x fixed.
        assert!(!contains(&tri, &p2));
    }

    #[test]
    fn constants_must_match() {
        let a = q("Q(x) :- r(x, 3).");
        let b = q("Q(x) :- r(x, 4).");
        assert!(homomorphism(&a, &b).is_none());
        assert!(homomorphism(&a, &a).is_some());
        // A variable may collapse onto a constant.
        let gen = q("Q(x) :- r(x, y).");
        assert!(contains(&gen, &a));
        assert!(!contains(&a, &gen));
    }

    #[test]
    fn repeated_variables_respected() {
        // r(x, x) cannot map onto r(x, y) (x is head-fixed), but r(x, y)
        // maps onto r(x, x) by y ↦ x.
        let diag = q("Q(x) :- r(x, x).");
        let edge = q("Q(x) :- r(x, y).");
        assert!(contains(&edge, &diag));
        assert!(!contains(&diag, &edge));
    }

    #[test]
    fn fold_into_respects_keep_mask() {
        let wide = q("Q(x, z) :- r(x, y), s(y, z), r(x, w).");
        // Fold atom 2 away: allowed.
        let h = fold_into(&wide, &[true, true, false]).unwrap();
        assert_eq!(apply_atom(&h, &wide.body[2]), wide.body[0]);
        // Folding away atom 1 (the only s-atom) is impossible.
        assert!(fold_into(&wide, &[true, false, true]).is_none());
    }

    #[test]
    fn arity_mismatch_means_no_candidates() {
        let a = q("Q(x) :- r(x, y).");
        let b = q("Q(x) :- r(x, y, z).");
        assert!(homomorphism(&a, &b).is_none());
    }

    #[test]
    fn profile_prune_does_not_lose_solutions() {
        // A 4-cycle folds onto... nothing smaller with all-distinct head;
        // but with a boolean head it folds onto a self-loop pattern only if
        // one exists. Check a case where the prune must still find the hom:
        // triangle (boolean) → triangle rotated.
        let t1 = q("Q() :- e(x, y), e(y, z), e(z, x).");
        let t2 = q("Q() :- e(a, b), e(b, c), e(c, a).");
        assert!(equivalent(&t1, &t2));
    }
}
