//! Database schemes as hypergraphs.
//!
//! A database scheme `𝒟 = {R₁, …, Rᵣ}` is a multiset of relation schemes;
//! viewed as a hypergraph its nodes are attributes and its hyperedges are the
//! relation schemes (§2.1). [`DbScheme`] stores the edges indexed by
//! occurrence and answers the connectivity questions the paper's algorithms
//! live on: are two edges connected, what are the connected components of a
//! subset, is a subset connected.

use crate::relset::RelSet;
use mjoin_relation::{AttrSet, Catalog, Schema};
use std::fmt;

/// A database scheme: an indexed multiset of relation schemes (hyperedges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbScheme {
    edges: Vec<AttrSet>,
}

impl DbScheme {
    /// Build from attribute sets, one per relation-scheme occurrence.
    ///
    /// Panics if there are more than [`RelSet::CAPACITY`] occurrences or if
    /// any scheme is empty (a relation scheme is a nonempty attribute set).
    pub fn new(edges: Vec<AttrSet>) -> Self {
        assert!(
            edges.len() <= RelSet::CAPACITY,
            "database scheme exceeds {} relation schemes",
            RelSet::CAPACITY
        );
        assert!(
            edges.iter().all(|e| !e.is_empty()),
            "relation schemes must be nonempty"
        );
        DbScheme { edges }
    }

    /// Build from the paper's single-letter notation, e.g.
    /// `DbScheme::parse(&mut catalog, &["ABC", "CDE", "EFG", "GHA"])`.
    pub fn parse(catalog: &mut Catalog, schemes: &[&str]) -> Self {
        let edges = schemes
            .iter()
            .map(|s| catalog.intern_chars(s).into_iter().collect())
            .collect();
        Self::new(edges)
    }

    /// Build from [`Schema`]s (e.g. those of a concrete database).
    pub fn from_schemas(schemas: &[Schema]) -> Self {
        Self::new(schemas.iter().map(mjoin_relation::Schema::to_set).collect())
    }

    /// Number of relation schemes, `r` in Theorem 2.
    pub fn num_relations(&self) -> usize {
        self.edges.len()
    }

    /// The attribute set of occurrence `idx`.
    pub fn attrs_of(&self, idx: usize) -> &AttrSet {
        &self.edges[idx]
    }

    /// All relation schemes in occurrence order.
    pub fn edges(&self) -> &[AttrSet] {
        &self.edges
    }

    /// Union of the attribute sets of the occurrences in `set` — `∪𝒱` in the
    /// paper's notation for a node `𝒱` of a join expression tree.
    pub fn attrs_of_set(&self, set: RelSet) -> AttrSet {
        let mut out = AttrSet::new();
        for idx in set.iter() {
            out.union_with(&self.edges[idx]);
        }
        out
    }

    /// The set of all occurrences.
    pub fn all(&self) -> RelSet {
        RelSet::full(self.edges.len())
    }

    /// All attributes appearing anywhere in the scheme.
    pub fn all_attrs(&self) -> AttrSet {
        self.attrs_of_set(self.all())
    }

    /// Number of distinct attributes, `a` in Theorem 2.
    pub fn num_attrs(&self) -> usize {
        self.all_attrs().len()
    }

    /// Theorem 2's quasi-optimality factor `r(a+5)` — the "size of the
    /// database scheme", independent of any actual data.
    pub fn quasi_factor(&self) -> u64 {
        self.num_relations() as u64 * (self.num_attrs() as u64 + 5)
    }

    /// Whether occurrences `i` and `j` share at least one attribute
    /// (i.e. are adjacent hyperedges — a path of length 2 in §2.1).
    pub fn adjacent(&self, i: usize, j: usize) -> bool {
        self.edges[i].intersects(&self.edges[j])
    }

    /// The connected components of `set`, each as a `RelSet`, ordered by
    /// smallest member. Edges are connected when they share an attribute.
    pub fn components(&self, set: RelSet) -> Vec<RelSet> {
        let mut remaining = set;
        let mut out = Vec::new();
        while let Some(seed) = remaining.first() {
            // BFS from `seed` over shared-attribute adjacency, tracking the
            // frontier's attribute set so each sweep is O(r) set operations.
            let mut comp = RelSet::singleton(seed);
            remaining.remove(seed);
            let mut frontier_attrs = self.edges[seed].clone();
            loop {
                let mut grew = false;
                for idx in remaining.iter() {
                    if self.edges[idx].intersects(&frontier_attrs) {
                        comp.insert(idx);
                        frontier_attrs.union_with(&self.edges[idx]);
                        grew = true;
                    }
                }
                remaining = remaining.difference(comp);
                if !grew {
                    break;
                }
            }
            out.push(comp);
        }
        out
    }

    /// Whether `set` is connected (the empty set is vacuously connected).
    pub fn is_connected(&self, set: RelSet) -> bool {
        self.components(set).len() <= 1
    }

    /// Whether the whole scheme is connected — the precondition of
    /// Algorithms 1 and 2.
    pub fn fully_connected(&self) -> bool {
        self.is_connected(self.all())
    }

    /// Line stored relations up with this scheme's edges by attribute set:
    /// edge `i` takes the first not-yet-taken schema equal to it, so order
    /// doesn't matter and duplicate edges consume distinct relations.
    /// Returns, per edge, the index of its schema — or `Err(i)` for the
    /// first edge nothing matches. Schemas left over are the caller's call
    /// (a data directory must be consumed exactly; a server catalog may
    /// hold more than one program's relations).
    pub fn assign_relations(&self, schemas: &[Schema]) -> Result<Vec<usize>, usize> {
        let mut taken = vec![false; schemas.len()];
        self.edges
            .iter()
            .enumerate()
            .map(|(i, want)| {
                let j = (0..schemas.len())
                    .find(|&j| !taken[j] && schemas[j].to_set() == *want)
                    .ok_or(i)?;
                taken[j] = true;
                Ok(j)
            })
            .collect()
    }

    /// Render with attribute names, e.g. `{ABC, CDE, EFG, GHA}`.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> DbSchemeDisplay<'a> {
        DbSchemeDisplay {
            scheme: self,
            catalog,
        }
    }
}

/// Helper returned by [`DbScheme::display`].
pub struct DbSchemeDisplay<'a> {
    scheme: &'a DbScheme,
    catalog: &'a Catalog,
}

impl fmt::Display for DbSchemeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, edge) in self.scheme.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", Schema::from_set(edge).display(self.catalog))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: `{ABC, CDE, EFG, GHA}` (Example 1).
    fn paper_scheme() -> (Catalog, DbScheme) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["ABC", "CDE", "EFG", "GHA"]);
        (c, s)
    }

    #[test]
    fn counts_match_paper_example() {
        let (_c, s) = paper_scheme();
        assert_eq!(s.num_relations(), 4);
        assert_eq!(s.num_attrs(), 8);
        // r(a+5) = 4 * 13 = 52.
        assert_eq!(s.quasi_factor(), 52);
    }

    #[test]
    fn paper_scheme_is_connected() {
        let (_c, s) = paper_scheme();
        assert!(s.fully_connected());
        assert_eq!(s.components(s.all()).len(), 1);
    }

    #[test]
    fn adjacency() {
        let (_c, s) = paper_scheme();
        assert!(s.adjacent(0, 1)); // ABC ∩ CDE = {C}
        assert!(!s.adjacent(0, 2)); // ABC ∩ EFG = ∅
        assert!(s.adjacent(0, 3)); // ABC ∩ GHA = {A}
    }

    #[test]
    fn components_of_disconnected_subset() {
        let (_c, s) = paper_scheme();
        // {ABC, EFG} has two components (the join would be a Cartesian
        // product) — this is the left child of Example 2's expression.
        let subset = RelSet::from_indices([0, 2]);
        let comps = s.components(subset);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].to_vec(), vec![0]);
        assert_eq!(comps[1].to_vec(), vec![2]);
        assert!(!s.is_connected(subset));
    }

    #[test]
    fn components_merge_through_chains() {
        let mut c = Catalog::new();
        // AB - BC - CD chain plus isolated XY.
        let s = DbScheme::parse(&mut c, &["AB", "BC", "CD", "XY"]);
        let comps = s.components(s.all());
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].to_vec(), vec![0, 1, 2]);
        assert_eq!(comps[1].to_vec(), vec![3]);
        assert!(!s.fully_connected());
    }

    #[test]
    fn multiset_occurrences_are_distinct() {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "AB", "BC"]);
        assert_eq!(s.num_relations(), 3);
        assert_eq!(s.attrs_of(0), s.attrs_of(1));
        assert!(s.fully_connected());
    }

    #[test]
    fn attrs_of_set_unions() {
        let (c, s) = paper_scheme();
        let set = RelSet::from_indices([0, 1]);
        let attrs = s.attrs_of_set(set);
        assert_eq!(Schema::from_set(&attrs).display(&c).to_string(), "ABCDE");
    }

    #[test]
    fn empty_set_is_connected() {
        let (_c, s) = paper_scheme();
        assert!(s.is_connected(RelSet::EMPTY));
        assert!(s.components(RelSet::EMPTY).is_empty());
    }

    #[test]
    fn display_scheme() {
        let (c, s) = paper_scheme();
        // Attributes render in canonical (id) order, so the paper's `GHA`
        // prints as `AGH`.
        assert_eq!(s.display(&c).to_string(), "{ABC, CDE, EFG, AGH}");
    }

    #[test]
    fn assign_relations_is_order_independent_and_consumes_duplicates() {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "BC", "AB"]);
        let schemas: Vec<Schema> = ["BC", "AB", "CD", "AB"]
            .iter()
            .map(|n| Schema::from_chars(&mut c, n))
            .collect();
        assert_eq!(s.assign_relations(&schemas), Ok(vec![1, 0, 3]));
        // One `AB` short: the second `AB` edge is the one left unmatched.
        assert_eq!(s.assign_relations(&schemas[..3]), Err(2));
    }

    #[test]
    #[should_panic]
    fn empty_edge_panics() {
        DbScheme::new(vec![AttrSet::new()]);
    }
}
