//! Hub-patterned cyclic graph workloads — the worst-case-optimal join's
//! home turf.
//!
//! Every relation is binary, over a pair of corner attributes, and holds a
//! *hub* pattern at per-edge scale `mᵢ`: the `mᵢ + 1` tuples `(0, v)` for
//! `v ∈ 0..=mᵢ` plus the `mᵢ` tuples `(u, 0)` for `u ∈ 1..=mᵢ` — a star
//! centred on `0` in both directions, `2mᵢ + 1` tuples per relation.
//!
//! The join of hub relations admits exactly the tuples whose non-zero
//! coordinates form an **independent set** of the query graph (two
//! adjacent non-zero coordinates would need a tuple with both components
//! non-zero, which no hub relation has). That makes the full join size a
//! pure graph property:
//!
//! * triangles and cliques (independence number 1): `Θ(m)` output, while
//!   every pairwise join is `Θ(m²)` — any §2.2 program materializes some
//!   `Θ(m²)` intermediate, generic join pays `O(m)` per attribute. This
//!   is the quadratic separation the AGM bound certifies: the triangle's
//!   Theorem-2 certificate is `N²` against an AGM bound of `N^{3/2}`.
//! * `n ≥ 4` cycles (independence number ≥ 2): the output itself is
//!   `Θ(m²)` — matching the 4-cycle's AGM bound `N²`, so there the
//!   certificate ties the AGM bound and the program path is the right
//!   choice. The 5-cycle's AGM bound `N^{5/2}` ties the certificate of
//!   *bushy* programs but undercuts every **linear** program (whose
//!   4-edge-path intermediate is certified at `N³`) — executor selection
//!   is a property of the derived program, not the scheme alone.
//!
//! [`HubGraph::cycle`], [`HubGraph::clique`], and
//! [`HubGraph::clique_skew`] cover the shapes the executor-selection tests
//! (`tests/wcoj_differential.rs`) exercise: `triangle_dense` (`cycle(3)`), `cycle_gap_4`/`cycle_gap_5`
//! (binary 4-/5-cycles — unlike [`crate::CycleGap`], which pads each edge
//! with a private attribute and thereby forces the all-ones edge cover),
//! `clique_4`, and `clique_4_skew` (a light perfect matching under heavy
//! cross edges, so every Cartesian-free program's first join is certified
//! above the AGM bound).

use mjoin_hypergraph::DbScheme;
use mjoin_relation::{Catalog, Database, Relation, Row, Schema, Value};

/// A graph query (every hyperedge binary) over hub-patterned data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubGraph {
    /// Number of corner attributes `x0..x{vertices-1}`.
    pub vertices: usize,
    /// Edges as ordered corner pairs; relation `i` spans
    /// `(x_{edges[i].0}, x_{edges[i].1})`.
    pub edges: Vec<(usize, usize)>,
    /// Per-edge scale: relation `i` holds `2·scales[i] + 1` tuples.
    pub scales: Vec<u64>,
}

impl HubGraph {
    /// The binary `n`-cycle `x0–x1–…–x_{n-1}–x0`, uniform scale `m`.
    pub fn cycle(n: usize, m: u64) -> Self {
        assert!(n >= 3, "a cycle needs at least 3 edges");
        assert!(m >= 1);
        HubGraph {
            vertices: n,
            edges: (0..n).map(|i| (i, (i + 1) % n)).collect(),
            scales: vec![m; n],
        }
    }

    /// The complete graph on `k` vertices (`k·(k−1)/2` relations),
    /// uniform scale `m`.
    pub fn clique(k: usize, m: u64) -> Self {
        Self::clique_with(k, |_| m)
    }

    /// `K4` with a light perfect matching: edges `x0x1` and `x2x3` at
    /// scale `m`, the four cross edges at `heavy·m`. The AGM bound is the
    /// matching product `N_s²`, but every attribute-sharing pair of edges
    /// is certified at `N_s·N_h` or larger — so any Cartesian-free
    /// program's certificate strictly exceeds the AGM bound and `auto`
    /// routes to the worst-case-optimal executor, for *every* such tree.
    pub fn clique_skew(m: u64, heavy: u64) -> Self {
        assert!(heavy >= 2, "the cross edges must outweigh the matching");
        Self::clique_with(4, |(a, b)| {
            if (a, b) == (0, 1) || (a, b) == (2, 3) {
                m
            } else {
                heavy * m
            }
        })
    }

    fn clique_with(k: usize, scale: impl Fn((usize, usize)) -> u64) -> Self {
        assert!(k >= 3, "a clique needs at least 3 vertices");
        let mut edges = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                edges.push((i, j));
            }
        }
        let scales = edges.iter().map(|&e| scale(e)).collect::<Vec<_>>();
        assert!(scales.iter().all(|&m| m >= 1));
        HubGraph {
            vertices: k,
            edges,
            scales,
        }
    }

    /// `|Rᵢ| = 2·scales[i] + 1`.
    pub fn relation_size(&self, i: usize) -> u64 {
        2 * self.scales[i] + 1
    }

    /// Closed-form full-join size: one tuple per independent set `S` of
    /// the query graph with each member's coordinate ranging over
    /// `1..=min` of its incident scales (exponential in `vertices`; keep
    /// graphs small).
    pub fn join_size(&self) -> u64 {
        let mut total = 0u64;
        for mask in 0u32..(1 << self.vertices) {
            let independent = self
                .edges
                .iter()
                .all(|&(a, b)| mask & (1 << a) == 0 || mask & (1 << b) == 0);
            if !independent {
                continue;
            }
            let mut ways = 1u64;
            for v in 0..self.vertices {
                if mask & (1 << v) != 0 {
                    ways *= self.max_coordinate(v);
                }
            }
            total += ways;
        }
        total
    }

    /// The largest non-zero value vertex `v` can take in a join tuple:
    /// the minimum scale over its incident edges.
    fn max_coordinate(&self, v: usize) -> u64 {
        self.edges
            .iter()
            .zip(&self.scales)
            .filter(|&(&(a, b), _)| a == v || b == v)
            .map(|(_, &m)| m)
            .min()
            .expect("every vertex has an incident edge")
    }

    /// The scheme: one binary hyperedge per graph edge.
    pub fn scheme(&self, catalog: &mut Catalog) -> DbScheme {
        let corners: Vec<_> = (0..self.vertices)
            .map(|i| catalog.intern(&format!("x{i}")))
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|&(a, b)| [corners[a], corners[b]].into_iter().collect())
            .collect();
        DbScheme::new(edges)
    }

    /// Materialize the database: the hub pattern in every relation.
    pub fn database(&self, catalog: &mut Catalog) -> Database {
        let corners: Vec<_> = (0..self.vertices)
            .map(|i| catalog.intern(&format!("x{i}")))
            .collect();
        let rels = self
            .edges
            .iter()
            .zip(&self.scales)
            .map(|(&(a, b), &m)| {
                let schema = Schema::new(vec![corners[a], corners[b]]);
                let (pa, pb) = (
                    schema.position(corners[a]).unwrap(),
                    schema.position(corners[b]).unwrap(),
                );
                let mut rows: Vec<Row> = Vec::with_capacity(2 * m as usize + 1);
                let mut push = |u: i64, v: i64| {
                    let mut row = vec![Value::Int(0); 2];
                    row[pa] = Value::Int(u);
                    row[pb] = Value::Int(v);
                    rows.push(row.into());
                };
                for v in 0..=m as i64 {
                    push(0, v);
                }
                for u in 1..=m as i64 {
                    push(u, 0);
                }
                Relation::from_rows(schema, rows).expect("hub rows are distinct")
            })
            .collect();
        Database::from_relations(rels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_hypergraph::is_acyclic;

    #[test]
    fn triangle_shape_and_sizes() {
        let g = HubGraph::cycle(3, 10);
        let mut c = Catalog::new();
        let scheme = g.scheme(&mut c);
        let db = g.database(&mut c);
        assert_eq!(scheme.num_relations(), 3);
        assert!(scheme.fully_connected());
        assert!(!is_acyclic(&scheme));
        for (i, rel) in db.relations().iter().enumerate() {
            assert_eq!(rel.len() as u64, g.relation_size(i));
        }
        // Independence number 1: the triangle collapses to 3m + 1 tuples.
        assert_eq!(g.join_size(), 31);
        assert_eq!(db.join_all().len() as u64, g.join_size());
    }

    #[test]
    fn pairwise_joins_are_quadratic() {
        let g = HubGraph::cycle(5, 12);
        let mut c = Catalog::new();
        let db = g.database(&mut c);
        // Adjacent pair R0 ⋈ R1: shared corner x1 = 0 frees both ends.
        let pair = mjoin_relation::ops::join(db.relation(0), db.relation(1));
        let m = 12;
        assert_eq!(pair.len() as u64, (m + 1) * (m + 1) + m);
    }

    #[test]
    fn cycle_joins_count_independent_sets() {
        // C4: ∅, 4 singletons, the 2 diagonal pairs → 1 + 4m + 2m².
        let g4 = HubGraph::cycle(4, 7);
        assert_eq!(g4.join_size(), 1 + 4 * 7 + 2 * 49);
        // C5: ∅, 5 singletons, 5 non-adjacent pairs → 1 + 5m + 5m².
        let g5 = HubGraph::cycle(5, 12);
        assert_eq!(g5.join_size(), 1 + 5 * 12 + 5 * 144);
        for g in [g4, g5] {
            let mut c = Catalog::new();
            let db = g.database(&mut c);
            assert_eq!(db.join_all().len() as u64, g.join_size());
        }
    }

    #[test]
    fn clique_join_matches_closed_form() {
        let g = HubGraph::clique(4, 6);
        let mut c = Catalog::new();
        let scheme = g.scheme(&mut c);
        let db = g.database(&mut c);
        assert_eq!(scheme.num_relations(), 6);
        assert!(scheme.fully_connected());
        assert_eq!(g.join_size(), 4 * 6 + 1);
        assert_eq!(db.join_all().len() as u64, g.join_size());
    }

    #[test]
    fn skewed_clique_output_is_bounded_by_the_matching() {
        let g = HubGraph::clique_skew(5, 4);
        let mut c = Catalog::new();
        let db = g.database(&mut c);
        // Every vertex touches a matching edge, so each coordinate is
        // capped at the light scale m even under heavy cross edges.
        assert_eq!(g.join_size(), 4 * 5 + 1);
        assert_eq!(db.join_all().len() as u64, g.join_size());
        let light = db.relation(0).len();
        let heavy = db.relation(1).len();
        assert!(heavy > 2 * light);
    }
}
