//! Cost oracles: sources of `|⋈ D[S]|` for subsets `S` of the scheme.
//!
//! An optimal join expression minimizes the §2.3 cost, which is determined
//! entirely by the sizes of sub-joins. The [`ExactOracle`] *counts* those
//! sub-joins (the "true" optimum, affordable for small `r`) and never builds
//! one to do so; the [`EstimateOracle`] uses the classical
//! attribute-independence formula (System-R style) and is what a real
//! optimizer would use.

use mjoin_expr::JoinTree;
use mjoin_hypergraph::{gyo, DbScheme, GyoResult, RelSet};
use mjoin_relation::fxhash::FxHashMap;
use mjoin_relation::{ops, AttrId, Column, Database, IntSpan, Relation};

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

/// Exact sub-join sizes, counted: no sub-join is ever built, so memory is
/// the inputs plus one size per subset asked.
///
/// * A disconnected `S` is the (saturating) product of its connected
///   components' sizes — the Cartesian product is never built.
/// * A connected acyclic `S` is counted by one bottom-up pass over its GYO
///   join forest (`forest_count`) — Yannakakis' pass with group weights in
///   place of projections, linear in the inputs.
/// * A connected cyclic `S` is counted by Generic Join
///   ([`ops::generic_join_count`]), worst-case optimal in the inputs.
pub struct ExactOracle<'a> {
    db: &'a Database,
    scheme: DbScheme,
    sizes: FxHashMap<RelSet, u64>,
}

impl<'a> ExactOracle<'a> {
    /// An oracle over `db`.
    pub fn new(db: &'a Database) -> Self {
        ExactOracle {
            db,
            scheme: DbScheme::from_schemas(&db.schemas()),
            sizes: FxHashMap::default(),
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
            1 => self.db.relation(set.first().expect("one member")).len() as u64,
            _ => match self.scheme.components(set).as_slice() {
                [_] => self.count_connected(set),
                components => components
                    .iter()
                    .fold(1u64, |acc, &c| acc.saturating_mul(self.size(c))),
            },
        };
        self.sizes.insert(set, n);
        n
    }

    /// `|⋈ D[set]|` for a connected `set` of two or more relations: the
    /// forest pass when its sub-scheme is acyclic, Generic Join otherwise.
    fn count_connected(&self, set: RelSet) -> u64 {
        mjoin_trace::add("optimizer.oracle_counted", 1);
        let rels: Vec<&Relation> = set.iter().map(|i| self.db.relation(i)).collect();
        let sub = DbScheme::new(
            set.iter()
                .map(|i| self.scheme.attrs_of(i).clone())
                .collect(),
        );
        let forest = gyo(&sub);
        if forest.acyclic {
            forest_count(&rels, &forest)
        } else {
            ops::generic_join_count(&rels)
        }
    }

    /// Number of subsets whose size is known (for tests/metrics).
    pub fn memo_len(&self) -> usize {
        self.sizes.len()
    }
}

/// `|⋈ rels|` for a connected acyclic scheme, from its GYO join forest: every
/// tuple starts with weight 1; each ear, in elimination order, multiplies
/// every tuple of its parent by the summed weights of the ear tuples it joins
/// with ([`ops::join_weight_sums`]). A tuple's weight is then the number of
/// ways the subtree below it extends it, and the root's summed weight is the
/// size. Saturating, like the product of components.
fn forest_count(rels: &[&Relation], forest: &GyoResult) -> u64 {
    let mut weights: Vec<Vec<u64>> = rels.iter().map(|r| vec![1; r.len()]).collect();
    for &(ear, parent) in &forest.elimination {
        let Some(parent) = parent else {
            // A connected scheme's last ear is its one root.
            return weights[ear].iter().fold(0, |acc, &w| acc.saturating_add(w));
        };
        let sums = ops::join_weight_sums(rels[ear], &weights[ear], rels[parent]);
        for (w, s) in weights[parent].iter_mut().zip(sums) {
            *w = w.saturating_mul(s);
        }
    }
    unreachable!("a GYO elimination ends at a root")
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

/// Distinct values of `attr` in `rel` (1 when `rel` lacks it).
fn distinct_count(rel: &Relation, attr: AttrId) -> u64 {
    match rel.schema().position(attr) {
        Some(pos) => distinct_cells(&rel.columns()[pos]) as u64,
        None => 1,
    }
}

/// Distinct values in `col`, counted on a bitmap where one is small:
/// interned cells by dictionary code (a dictionary holds each value once),
/// integers by [`IntColumn::distinct`](mjoin_relation::column::IntColumn::distinct).
fn distinct_cells(col: &Column) -> usize {
    match col {
        Column::Dict { codes, dict } => {
            let pool = IntSpan {
                min: 0,
                width: dict.len().saturating_sub(1) as u64,
            };
            pool.distinct(codes.iter().map(|&c| i64::from(c)))
        }
        Column::Int(c) => c.distinct(),
    }
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
    }

    /// The triangle is cyclic (Generic Join counts it), each of its pairs
    /// is acyclic (the forest pass counts it); both agree with the join.
    #[test]
    fn exact_oracle_counts_cyclic_and_acyclic_sets() {
        let (_c, s, db) = setup();
        let mut o = ExactOracle::new(&db);
        assert!(!mjoin_hypergraph::is_acyclic(&s));
        assert_eq!(o.subjoin_size(RelSet::full(3)), 1);
        for pair in [[0, 1], [0, 2], [1, 2]] {
            let set = RelSet::from_indices(pair);
            assert_eq!(o.subjoin_size(set), db.join_of(&pair).len() as u64);
        }
    }

    /// A chain whose middle relation fans out: the forest pass multiplies
    /// group weights up two levels.
    #[test]
    fn forest_count_multiplies_weights_up_the_forest() {
        let mut c = Catalog::new();
        let fan: Vec<Vec<i64>> = (0..6).map(|i| vec![i % 2, i]).collect();
        let fan: Vec<&[i64]> = fan.iter().map(Vec::as_slice).collect();
        let db = Database::from_relations(vec![
            relation_of_ints(&mut c, "AB", &[&[7, 0], &[8, 0], &[9, 1]]).unwrap(),
            relation_of_ints(&mut c, "BC", &fan).unwrap(),
            relation_of_ints(&mut c, "CD", &[&[0, 1], &[0, 2], &[3, 1], &[5, 5]]).unwrap(),
        ]);
        let mut o = ExactOracle::new(&db);
        for set in [RelSet::from_indices([0, 1]), RelSet::full(3)] {
            assert_eq!(o.subjoin_size(set), db.join_of(&set.to_vec()).len() as u64);
        }
        let rels: Vec<&Relation> = db.relations().iter().collect();
        let forest = gyo(&DbScheme::from_schemas(&db.schemas()));
        // C = 0 under B = 0: two A's × two D's; C = 3 and C = 5 under B = 1.
        assert_eq!(forest_count(&rels, &forest), 2 * 2 + 1 + 1);
    }

    /// The bitmap counts agree with a hash-set count on both sides of the
    /// span threshold, at the ends of the `i64` range, and on gathered
    /// dictionary columns whose pool holds entries they do not use.
    #[test]
    fn distinct_cells_matches_a_hash_set_count() {
        let ints = |vals: &[i64]| {
            let mut b = mjoin_relation::ColumnBuilder::default();
            vals.iter().for_each(|&x| b.push_int(x));
            b.finish()
        };
        let hashed = |col: &Column| {
            (0..col.len())
                .map(|i| col.value(i))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let n = 100i64;
        let threshold = 8 * n + 4096;
        let mut cases: Vec<Vec<i64>> = Vec::new();
        for span in [
            0,
            1,
            63,
            64,
            threshold - 1,
            threshold,
            threshold + 1,
            1 << 40,
        ] {
            // n cells from -7 to -7 + span, with repeats in between.
            let mut v: Vec<i64> = (0..n).map(|i| -7 + (i * i) % (span + 1)).collect();
            v[0] = -7;
            v[1] = -7 + span;
            cases.push(v);
        }
        cases.push(vec![i64::MIN, i64::MAX, 0, i64::MIN]);
        cases.push(vec![i64::MAX, i64::MAX - 1, i64::MAX]);
        cases.push(vec![i64::MIN, i64::MIN + 2, i64::MIN + 2]);
        cases.push(Vec::new());
        for v in &cases {
            let col = ints(v);
            assert_eq!(distinct_cells(&col), hashed(&col), "{v:?}");
        }

        let mut b = mjoin_relation::ColumnBuilder::default();
        for i in 0..200 {
            b.push_str(&format!("s{}", i % 150));
        }
        b.push_int(5);
        let pool = b.finish();
        assert_eq!(distinct_cells(&pool), 151);
        for sel in [
            vec![],
            vec![3u32, 3, 153, 7],
            (0..200).step_by(3).collect(),
            vec![200, 0],
        ] {
            let gathered = pool.gather(&sel);
            assert_eq!(distinct_cells(&gathered), hashed(&gathered), "{sel:?}");
        }
    }

    #[test]
    fn empty_set_is_unit() {
        let (_c, _s, db) = setup();
        let mut o = ExactOracle::new(&db);
        assert_eq!(o.subjoin_size(RelSet::EMPTY), 1);
    }
}
