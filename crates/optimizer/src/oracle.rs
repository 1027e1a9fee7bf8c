//! Cost oracles: sources of `|⋈ D[S]|` for subsets `S` of the scheme.
//!
//! An optimal join expression minimizes the §2.3 cost, which is determined
//! entirely by the sizes of sub-joins. The [`ExactOracle`] *counts* those
//! sub-joins (the "true" optimum, affordable for small `r`) and never builds
//! a Cartesian product to do so; the [`EstimateOracle`] uses the classical
//! attribute-independence formula (System-R style) and is what a real
//! optimizer would use.

use mjoin_expr::JoinTree;
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_relation::fxhash::{FxHashMap, FxHashSet};
use mjoin_relation::{ops, AttrId, Column, Database, Relation};

/// A source of sub-join sizes.
pub trait CostOracle {
    /// `|⋈ D[set]|` (exact or estimated).
    fn subjoin_size(&mut self, set: RelSet) -> u64;

    /// The §2.3 cost of a tree: each leaf's input size plus each internal
    /// node's sub-join size.
    fn tree_cost(&mut self, tree: &JoinTree) -> u64 {
        let mut total = 0u64;
        for set in tree.node_sets() {
            total = total.saturating_add(self.subjoin_size(set));
        }
        total
    }
}

/// Exact sub-join sizes, counted rather than materialized.
///
/// A size is needed far more often than the sub-join itself, so the oracle
/// keeps two tables: every size it has been asked for (or learned on the
/// way), and a lazy memo of materialized sub-joins that only ever holds
/// **connected** subsets of two or more relations.
///
/// * A disconnected `S` is the (saturating) product of its connected
///   components' sizes — the Cartesian product is never built.
/// * A connected `S` peels one relation `x` that is not a cut vertex of `S`,
///   so `S∖x` is connected and shares an attribute with `x`, and answers
///   [`ops::join_count`]`(⋈D[S∖x], Rₓ)`: the last join is counted, not built.
/// * `⋈D[S∖x]` itself is built by the same rule, and only at that moment — a
///   sub-join is materialized only when a larger connected set counts
///   against it. Among the candidates for `x` the oracle prefers a remainder
///   that is already resident, then the smallest one (by known size, else by
///   the product of its input sizes).
///
/// Memory is proportional to the connected sub-joins that were materialized
/// ([`ExactOracle::materialized_tuples`]); with the DP baselines every
/// connected subset but the largest ones can end up resident, so keep `r`
/// small (≤ 12 or so).
pub struct ExactOracle<'a> {
    db: &'a Database,
    scheme: DbScheme,
    sizes: FxHashMap<RelSet, u64>,
    memo: FxHashMap<RelSet, Relation>,
}

impl<'a> ExactOracle<'a> {
    /// An oracle over `db`.
    pub fn new(db: &'a Database) -> Self {
        ExactOracle {
            db,
            scheme: DbScheme::from_schemas(&db.schemas()),
            sizes: FxHashMap::default(),
            memo: FxHashMap::default(),
        }
    }

    /// `|⋈ D[set]|`. All internal recursion goes through here, not through
    /// [`CostOracle::subjoin_size`], so `optimizer.oracle_calls` counts the
    /// planner's questions only.
    fn size(&mut self, set: RelSet) -> u64 {
        if let Some(&n) = self.sizes.get(&set) {
            return n;
        }
        let n = match set.len() {
            0 => 1,
            1 => self.subjoin(set).len() as u64,
            _ => match self.scheme.components(set).as_slice() {
                [_] => {
                    let (rest, x) = self.peel(set);
                    self.materialize(rest);
                    mjoin_trace::add("optimizer.oracle_counted", 1);
                    ops::join_count(self.subjoin(rest), self.db.relation(x))
                }
                components => components
                    .iter()
                    .fold(1u64, |acc, &c| acc.saturating_mul(self.size(c))),
            },
        };
        self.sizes.insert(set, n);
        n
    }

    /// Split a connected `set` of two or more relations into a connected
    /// remainder and the peeled relation `x`. `x` shares an attribute with
    /// the remainder because `set` is connected.
    fn peel(&self, set: RelSet) -> (RelSet, usize) {
        set.iter()
            .map(|x| (set.difference(RelSet::singleton(x)), x))
            .filter(|&(rest, _)| self.scheme.is_connected(rest))
            .min_by_key(|&(rest, _)| {
                let resident = rest.len() == 1 || self.memo.contains_key(&rest);
                let size = self.sizes.get(&rest).copied().unwrap_or_else(|| {
                    rest.iter().fold(1u64, |acc, i| {
                        acc.saturating_mul(self.db.relation(i).len() as u64)
                    })
                });
                (!resident, size)
            })
            .expect("a connected hypergraph has a non-cut edge")
    }

    /// Make `⋈ D[set]` resident, for a connected `set`.
    fn materialize(&mut self, set: RelSet) {
        if set.len() < 2 || self.memo.contains_key(&set) {
            return;
        }
        let (rest, x) = self.peel(set);
        self.materialize(rest);
        let rel = ops::join(self.subjoin(rest), self.db.relation(x));
        mjoin_trace::add("optimizer.oracle_materialized", 1);
        mjoin_trace::add("optimizer.oracle_materialized_tuples", rel.len() as u64);
        self.sizes.insert(set, rel.len() as u64);
        self.memo.insert(set, rel);
    }

    /// The resident sub-join of a connected `set`: an input relation, or a
    /// memo entry [`ExactOracle::materialize`] has put there.
    fn subjoin(&self, set: RelSet) -> &Relation {
        match set.len() {
            1 => self.db.relation(set.first().expect("one member")),
            _ => &self.memo[&set],
        }
    }

    /// Number of subsets whose size is known (for tests/metrics).
    pub fn memo_len(&self) -> usize {
        self.sizes.len()
    }

    /// The subsets whose sub-join is resident, in ascending order. Each is
    /// connected and has at least two members.
    pub fn materialized_sets(&self) -> Vec<RelSet> {
        let mut sets: Vec<RelSet> = self.memo.keys().copied().collect();
        sets.sort_unstable();
        sets
    }

    /// Total tuples of the resident sub-joins — what the oracle built, as
    /// opposed to counted (nothing is evicted, so also everything it built).
    pub fn materialized_tuples(&self) -> u64 {
        self.memo.values().map(|rel| rel.len() as u64).sum()
    }
}

impl CostOracle for ExactOracle<'_> {
    fn subjoin_size(&mut self, set: RelSet) -> u64 {
        mjoin_trace::add("optimizer.oracle_calls", 1);
        self.size(set)
    }
}

/// Estimated sizes under the attribute-independence assumption.
///
/// For each attribute `A`, the domain size `d_A` is the largest number of
/// distinct `A`-values in any input relation containing `A`. A sub-join over
/// relations `R₁…R_k` is estimated as `Π|Rᵢ| / Π_A d_A^(c_A − 1)` where `c_A`
/// is how many of the `Rᵢ` contain `A` — each extra occurrence of a shared
/// attribute contributes one `1/d_A` selectivity factor.
pub struct EstimateOracle {
    rel_sizes: Vec<u64>,
    rel_attrs: Vec<Vec<AttrId>>,
    domain: FxHashMap<AttrId, u64>,
}

impl EstimateOracle {
    /// Build the statistics from a concrete database.
    pub fn new(scheme: &DbScheme, db: &Database) -> Self {
        let mut domain: FxHashMap<AttrId, u64> = FxHashMap::default();
        let mut rel_attrs = Vec::with_capacity(db.len());
        for (i, rel) in db.relations().iter().enumerate() {
            let attrs: Vec<AttrId> = scheme.attrs_of(i).to_vec();
            for &a in &attrs {
                let distinct = distinct_count(rel, a);
                let e = domain.entry(a).or_insert(1);
                *e = (*e).max(distinct.max(1));
            }
            rel_attrs.push(attrs);
        }
        EstimateOracle {
            rel_sizes: db.relations().iter().map(|r| r.len() as u64).collect(),
            rel_attrs,
            domain,
        }
    }
}

/// Distinct values of `attr` in `rel`, from the column view: integers by
/// value, interned cells by dictionary code (a dictionary holds each value
/// once).
fn distinct_count(rel: &Relation, attr: AttrId) -> u64 {
    let Some(pos) = rel.schema().position(attr) else {
        return 1;
    };
    let distinct = match &rel.columns()[pos] {
        Column::Int(v) => v.iter().copied().collect::<FxHashSet<i64>>().len(),
        Column::Dict { codes, .. } => codes.iter().copied().collect::<FxHashSet<u32>>().len(),
    };
    distinct as u64
}

impl CostOracle for EstimateOracle {
    fn subjoin_size(&mut self, set: RelSet) -> u64 {
        mjoin_trace::add("optimizer.oracle_calls", 1);
        let mut numerator = 1f64;
        let mut attr_count: FxHashMap<AttrId, u32> = FxHashMap::default();
        for i in set.iter() {
            numerator *= self.rel_sizes[i] as f64;
            for &a in &self.rel_attrs[i] {
                *attr_count.entry(a).or_insert(0) += 1;
            }
        }
        let mut denom = 1f64;
        for (a, c) in attr_count {
            if c > 1 {
                let d = self.domain[&a] as f64;
                denom *= d.powi(c as i32 - 1);
            }
        }
        let est = numerator / denom;
        if est.is_finite() {
            est.round().max(0.0) as u64
        } else {
            u64::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::{relation_of_ints, Catalog};

    fn setup() -> (Catalog, DbScheme, Database) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "BC", "CA"]);
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2], &[4, 5]]).unwrap();
        let t = relation_of_ints(&mut c, "BC", &[&[2, 3], &[5, 6]]).unwrap();
        let u = relation_of_ints(&mut c, "CA", &[&[3, 1]]).unwrap();
        (c, s, Database::from_relations(vec![r, t, u]))
    }

    #[test]
    fn exact_oracle_matches_naive_join() {
        let (_c, _s, db) = setup();
        let mut o = ExactOracle::new(&db);
        for set in [
            RelSet::singleton(0),
            RelSet::from_indices([0, 1]),
            RelSet::from_indices([0, 2]),
            RelSet::full(3),
        ] {
            assert_eq!(
                o.subjoin_size(set),
                db.join_of(&set.to_vec()).len() as u64,
                "set {set}"
            );
        }
        // Memoization: re-asking does not grow the table.
        let n = o.memo_len();
        o.subjoin_size(RelSet::full(3));
        assert_eq!(o.memo_len(), n);
    }

    #[test]
    fn exact_oracle_tree_cost_matches_evaluation() {
        let (_c, _s, db) = setup();
        let mut o = ExactOracle::new(&db);
        let t = JoinTree::left_deep(&[0, 1, 2]);
        assert_eq!(o.tree_cost(&t), mjoin_expr::cost_of(&t, &db));
        let t2 = JoinTree::left_deep(&[2, 0, 1]);
        assert_eq!(o.tree_cost(&t2), mjoin_expr::cost_of(&t2, &db));
    }

    #[test]
    fn estimate_oracle_reasonable() {
        let (_c, s, db) = setup();
        let mut o = EstimateOracle::new(&s, &db);
        // Singletons estimate exactly.
        assert_eq!(o.subjoin_size(RelSet::singleton(0)), 2);
        assert_eq!(o.subjoin_size(RelSet::singleton(2)), 1);
        // AB ⋈ BC: 2*2 / d_B, d_B = 2 → 2.
        assert_eq!(o.subjoin_size(RelSet::from_indices([0, 1])), 2);
        // Estimates are positive and finite.
        assert!(o.subjoin_size(RelSet::full(3)) < 100);
    }

    #[test]
    fn estimate_oracle_cartesian_product_is_product() {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "CD"]);
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4], &[5, 6]]).unwrap();
        let t = relation_of_ints(&mut c, "CD", &[&[1, 2], &[3, 4]]).unwrap();
        let db = Database::from_relations(vec![r, t]);
        let mut o = EstimateOracle::new(&s, &db);
        assert_eq!(o.subjoin_size(RelSet::full(2)), 6);
    }

    #[test]
    fn estimate_oracle_counts_distinct_strings() {
        use mjoin_relation::{Schema, Value};
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "BC"]);
        let strs = |c: &mut Catalog, scheme: &str, rows: &[[&str; 2]]| {
            let rows = rows
                .iter()
                .map(|r| r.iter().map(Value::str).collect())
                .collect();
            Relation::from_rows(Schema::from_chars(c, scheme), rows).unwrap()
        };
        let r = strs(
            &mut c,
            "AB",
            &[["a", "x"], ["b", "x"], ["c", "y"], ["d", "z"]],
        );
        let t = strs(&mut c, "BC", &[["x", "p"], ["y", "p"], ["y", "q"]]);
        let db = Database::from_relations(vec![r, t]);
        let mut o = EstimateOracle::new(&s, &db);
        // d_B = max(3 distinct in AB, 2 distinct in BC) = 3: 4·3 / 3.
        assert_eq!(o.subjoin_size(RelSet::full(2)), 4);
    }

    #[test]
    fn exact_oracle_never_builds_a_cartesian_product() {
        let mut c = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..50).map(|i| vec![i, i % 5]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let db = Database::from_relations(vec![
            relation_of_ints(&mut c, "AB", &rows).unwrap(),
            relation_of_ints(&mut c, "BC", &rows).unwrap(),
            relation_of_ints(&mut c, "DE", &rows).unwrap(),
            relation_of_ints(&mut c, "EF", &rows).unwrap(),
        ]);
        let mut o = ExactOracle::new(&db);
        for bits in 0..16usize {
            let set = RelSet::from_indices((0..4).filter(|i| bits >> i & 1 == 1));
            assert_eq!(
                o.subjoin_size(set),
                db.join_of(&set.to_vec()).len() as u64,
                "set {set}"
            );
        }
        assert_eq!(o.memo_len(), 16);
        // Pairs are counted against input relations and every larger set is
        // a product of components: nothing was materialized at all.
        assert_eq!(o.materialized_sets(), Vec::<RelSet>::new());
        assert_eq!(o.materialized_tuples(), 0);
    }

    #[test]
    fn exact_oracle_materializes_connected_remainders_only() {
        let (_c, s, db) = setup();
        let mut o = ExactOracle::new(&db);
        assert_eq!(o.subjoin_size(RelSet::full(3)), 1);
        // The triangle was counted against one resident pair.
        let resident = o.materialized_sets();
        assert_eq!(resident.len(), 1);
        assert!(resident[0].len() == 2 && s.is_connected(resident[0]));
        assert_eq!(
            o.materialized_tuples(),
            db.join_of(&resident[0].to_vec()).len() as u64
        );
    }

    #[test]
    fn empty_set_is_unit() {
        let (_c, _s, db) = setup();
        let mut o = ExactOracle::new(&db);
        assert_eq!(o.subjoin_size(RelSet::EMPTY), 1);
    }
}
