//! Planted-redundancy conjunctive queries — workloads with a *known core*.
//!
//! The generator starts from a chain query that is provably its own core
//! (each edge relation appears exactly once, so no atom can fold) and plants
//! `k` foldable copies of chain atoms, each with a fresh non-head variable:
//!
//! ```text
//! Q(x0, x3) :- r0(x0, x1), r1(x1, x2), r2(x2, x3),   // the core (n = 3)
//!              r0(x0, d0), r1(x1, d1)                  // planted (k = 2)
//! ```
//!
//! `r0(x0, d0)` folds onto `r0(x0, x1)` via `d0 ↦ x1`, so the core has
//! exactly `chain_len` atoms — the ground truth the minimization corpus
//! tests against. The data is a uniform successor graph (each node `v` has
//! edges to `v+1 … v+f mod m`), which gives **closed-form** sizes:
//!
//! * every relation holds `m·f` tuples;
//! * the head projection has `m · min(m, n(f−1)+1)` tuples (endpoints of
//!   `n`-step walks: consecutive step-sum residues);
//! * the *full join* the engine materializes before projecting has
//!   `m·fⁿ` rows minimized and `m·fⁿ⁺ᵏ` unminimized — every planted atom
//!   multiplies the intermediate by `f`, which is the work minimization
//!   saves.

use mjoin_cq::{Atom, Term};
use mjoin_cq::{ConjunctiveQuery, NamedDatabase};

/// A chain query with planted foldable atoms over successor-graph data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedRedundancy {
    /// Core chain length `n ≥ 1` (atoms `r0 … r{n-1}`, all distinct
    /// predicates — which is what makes the chain its own core).
    pub chain_len: usize,
    /// Number of planted foldable atoms (`planted[t]` copies chain atom
    /// `t mod n` with a fresh second variable).
    pub planted: usize,
    /// Domain size `m` (nodes `0..m`).
    pub domain: u64,
    /// Out-degree `f < m`: node `v` has successors `v+1 … v+f (mod m)`.
    pub fanout: u64,
}

impl PlantedRedundancy {
    /// A planted-redundancy workload. Panics unless `chain_len ≥ 1`,
    /// `fanout ≥ 1`, and `fanout < domain` (the closed forms need
    /// collision-free successor sets).
    pub fn new(chain_len: usize, planted: usize, domain: u64, fanout: u64) -> Self {
        assert!(chain_len >= 1, "the chain needs at least one atom");
        assert!(fanout >= 1, "nodes need at least one successor");
        assert!(
            fanout < domain,
            "fanout must stay below the domain for distinct successors"
        );
        PlantedRedundancy {
            chain_len,
            planted,
            domain,
            fanout,
        }
    }

    /// Size of the known core (= `chain_len`).
    pub fn core_size(&self) -> usize {
        self.chain_len
    }

    /// Total body atoms (`chain_len + planted`).
    pub fn total_atoms(&self) -> usize {
        self.chain_len + self.planted
    }

    /// The query: core chain plus planted foldable copies.
    pub fn query(&self) -> ConjunctiveQuery {
        let var = |i: usize| Term::Var(format!("x{i}"));
        let mut body: Vec<Atom> = (0..self.chain_len)
            .map(|i| Atom {
                predicate: format!("r{i}"),
                terms: vec![var(i), var(i + 1)],
            })
            .collect();
        for t in 0..self.planted {
            let anchor = t % self.chain_len;
            body.push(Atom {
                predicate: format!("r{anchor}"),
                terms: vec![var(anchor), Term::Var(format!("d{t}"))],
            });
        }
        ConjunctiveQuery {
            head_name: "Q".into(),
            head_vars: vec!["x0".into(), format!("x{}", self.chain_len)],
            body,
        }
    }

    /// The query in parseable text form (for CLI / server round trips).
    pub fn query_text(&self) -> String {
        self.query().to_string()
    }

    /// The database: every `r{i}` holds the same successor graph, `m·f`
    /// tuples each, columns `src`/`dst`.
    pub fn named_database(&self) -> NamedDatabase {
        let m = self.domain;
        let mut tuples: Vec<Vec<i64>> = Vec::with_capacity((m * self.fanout) as usize);
        for v in 0..m {
            for j in 1..=self.fanout {
                #[allow(clippy::cast_possible_wrap)]
                tuples.push(vec![v as i64, ((v + j) % m) as i64]);
            }
        }
        let slices: Vec<&[i64]> = tuples.iter().map(Vec::as_slice).collect();
        let mut db = NamedDatabase::new();
        for i in 0..self.chain_len {
            db.add_relation(&format!("r{i}"), &["src", "dst"], &slices)
                .expect("fresh relation name");
        }
        db
    }

    /// Tuples per relation: `m·f`.
    pub fn relation_size(&self) -> u64 {
        self.domain * self.fanout
    }

    /// Closed-form head-projection size: `m · min(m, n(f−1)+1)`.
    ///
    /// An `n`-step walk from `v` ends at `v + s mod m` with the step sum
    /// `s` ranging over the consecutive integers `n ..= n·f`; that is
    /// `n(f−1)+1` distinct residues (capped at `m`), for each of `m`
    /// start nodes. Planted atoms never change this — they are logically
    /// redundant — which is exactly what the differential tests assert.
    pub fn expected_output_size(&self) -> u64 {
        let n = self.chain_len as u64;
        let reachable = n * (self.fanout - 1) + 1;
        self.domain * reachable.min(self.domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cq::{execute_query, minimize, PlanStrategy};

    #[test]
    fn query_shape_and_text() {
        let w = PlantedRedundancy::new(3, 2, 10, 2);
        assert_eq!(w.total_atoms(), 5);
        assert_eq!(w.core_size(), 3);
        assert_eq!(
            w.query_text(),
            "Q(x0, x3) :- r0(x0, x1), r1(x1, x2), r2(x2, x3), r0(x0, d0), r1(x1, d1)."
        );
    }

    #[test]
    fn planted_atoms_fold_to_the_known_core() {
        for (n, k) in [(1, 1), (2, 1), (2, 3), (3, 2), (4, 4)] {
            let w = PlantedRedundancy::new(n, k, 11, 2);
            let m = minimize(&w.query());
            assert!(m.proof.verified);
            assert_eq!(m.core.body.len(), w.core_size(), "n={n} k={k}");
            assert_eq!(m.proof.dropped.len(), k);
        }
    }

    #[test]
    fn closed_form_output_size_matches_execution() {
        for (n, k, m, f) in [(2, 1, 9, 2), (3, 2, 8, 2), (2, 2, 7, 3), (1, 2, 6, 2)] {
            let w = PlantedRedundancy::new(n, k, m, f);
            let db = w.named_database();
            let res = execute_query(&db, &w.query(), PlanStrategy::Greedy).unwrap();
            assert_eq!(
                res.len() as u64,
                w.expected_output_size(),
                "n={n} k={k} m={m} f={f}"
            );
        }
    }

    #[test]
    fn closed_form_survives_the_wraparound_cap() {
        // n(f−1)+1 ≥ m: every endpoint pair is reachable.
        let w = PlantedRedundancy::new(4, 0, 5, 3);
        assert_eq!(w.expected_output_size(), 25);
        let db = w.named_database();
        let res = execute_query(&db, &w.query(), PlanStrategy::Greedy).unwrap();
        assert_eq!(res.len(), 25);
    }

    #[test]
    fn relation_sizes_are_m_times_f() {
        let w = PlantedRedundancy::new(2, 1, 12, 3);
        let db = w.named_database();
        for i in 0..2 {
            assert_eq!(
                db.get(&format!("r{i}")).unwrap().relation.len() as u64,
                w.relation_size()
            );
        }
    }
}
