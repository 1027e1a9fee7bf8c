//! Choice policies for Algorithm 1's nondeterminism.
//!
//! Steps 1 and 3 of Algorithm 1 "may have many choices to select a database
//! scheme from Γ" (Example 5 derives 16 different CPF trees from one input).
//! A [`ChoicePolicy`] resolves those choices; the theorems hold for *every*
//! policy, which the property tests exercise via `enumerate`-style
//! exhaustion in `alg1`.

use mjoin_hypergraph::RelSet;

/// Resolves a nondeterministic choice among candidate components.
///
/// Candidates are always presented in a canonical (sorted) order, so a policy
/// is reproducible given its own state.
pub trait ChoicePolicy {
    /// Pick an index into `candidates` (guaranteed nonempty).
    fn choose(&mut self, candidates: &[RelSet]) -> usize;

    /// Step 3's variant: pick which candidate to merge into the current set
    /// `x`. Defaults to [`ChoicePolicy::choose`]; cost-aware policies
    /// override it to look at the merged result.
    fn choose_merge(&mut self, _x: RelSet, candidates: &[RelSet]) -> usize {
        self.choose(candidates)
    }
}

/// Greedy cost-aware choices: at each nondeterministic step, pick the
/// candidate minimizing (an estimate of) the resulting sub-join size, as
/// supplied by `size_of`. This is the natural "extension" policy: Theorem 2
/// holds for *any* policy, but a good policy tightens the constants (see
/// experiment E7.3).
pub struct CostAwareChoice<F: FnMut(RelSet) -> u64> {
    size_of: F,
}

impl<F: FnMut(RelSet) -> u64> CostAwareChoice<F> {
    /// A policy asking `size_of(set)` for `|⋈ D[set]|` (exact or estimated).
    pub fn new(size_of: F) -> Self {
        CostAwareChoice { size_of }
    }

    fn argmin(&mut self, sets: impl Iterator<Item = RelSet>) -> usize {
        let mut best = 0;
        let mut best_size = u64::MAX;
        for (i, s) in sets.enumerate() {
            let size = (self.size_of)(s);
            if size < best_size {
                best = i;
                best_size = size;
            }
        }
        best
    }
}

impl<F: FnMut(RelSet) -> u64> ChoicePolicy for CostAwareChoice<F> {
    fn choose(&mut self, candidates: &[RelSet]) -> usize {
        self.argmin(candidates.iter().copied())
    }

    fn choose_merge(&mut self, x: RelSet, candidates: &[RelSet]) -> usize {
        self.argmin(candidates.iter().map(|&w| x.union(w)))
    }
}

/// Always picks the first (smallest) candidate — fully deterministic.
#[derive(Debug, Clone, Default)]
pub struct FirstChoice;

impl ChoicePolicy for FirstChoice {
    fn choose(&mut self, _candidates: &[RelSet]) -> usize {
        0
    }
}

/// Seeded pseudo-random choices (SplitMix64; implemented inline so the core
/// crate stays dependency-free).
#[derive(Debug, Clone)]
pub struct SeededChoice {
    state: u64,
}

impl SeededChoice {
    /// A policy with the given seed.
    pub fn new(seed: u64) -> Self {
        SeededChoice { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 (public domain, Vigna).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl ChoicePolicy for SeededChoice {
    fn choose(&mut self, candidates: &[RelSet]) -> usize {
        (self.next_u64() % candidates.len() as u64) as usize
    }
}

/// Replays a recorded choice script, then falls back to first-choice. Used
/// by the exhaustive enumeration of Algorithm 1 outcomes.
#[derive(Debug, Clone, Default)]
pub struct ScriptedChoice {
    script: Vec<usize>,
    cursor: usize,
    /// Records `(index chosen, number of candidates)` for every decision —
    /// including the fallback ones — so the enumerator can extend the script.
    pub taken: Vec<(usize, usize)>,
}

impl ScriptedChoice {
    /// A policy that replays `script`.
    pub fn new(script: Vec<usize>) -> Self {
        ScriptedChoice {
            script,
            cursor: 0,
            taken: Vec::new(),
        }
    }
}

impl ChoicePolicy for ScriptedChoice {
    fn choose(&mut self, candidates: &[RelSet]) -> usize {
        let pick = if self.cursor < self.script.len() {
            self.script[self.cursor].min(candidates.len() - 1)
        } else {
            0
        };
        self.cursor += 1;
        self.taken.push((pick, candidates.len()));
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(n: usize) -> Vec<RelSet> {
        (0..n).map(RelSet::singleton).collect()
    }

    #[test]
    fn first_choice_is_zero() {
        let mut p = FirstChoice;
        assert_eq!(p.choose(&cands(5)), 0);
        assert_eq!(p.choose(&cands(1)), 0);
    }

    #[test]
    fn seeded_choice_is_reproducible_and_in_range() {
        let mut a = SeededChoice::new(42);
        let mut b = SeededChoice::new(42);
        for n in [1usize, 2, 3, 7, 10] {
            let ca = a.choose(&cands(n));
            let cb = b.choose(&cands(n));
            assert_eq!(ca, cb);
            assert!(ca < n);
        }
        // Different seeds eventually diverge.
        let mut c = SeededChoice::new(43);
        let picks_a: Vec<_> = (0..20).map(|_| a.choose(&cands(10))).collect();
        let picks_c: Vec<_> = (0..20).map(|_| c.choose(&cands(10))).collect();
        assert_ne!(picks_a, picks_c);
    }

    #[test]
    fn scripted_choice_replays_and_records() {
        let mut p = ScriptedChoice::new(vec![2, 0]);
        assert_eq!(p.choose(&cands(4)), 2);
        assert_eq!(p.choose(&cands(3)), 0);
        assert_eq!(p.choose(&cands(2)), 0); // past script: fallback
        assert_eq!(p.taken, vec![(2, 4), (0, 3), (0, 2)]);
    }

    #[test]
    fn scripted_choice_clamps_out_of_range() {
        let mut p = ScriptedChoice::new(vec![9]);
        assert_eq!(p.choose(&cands(3)), 2);
    }
}
