//! Differential suite for the counting [`ExactOracle`]: every size it
//! reports must be the size of the sub-join a materializing evaluation
//! builds — the join-forest pass on acyclic sets, Generic Join on cyclic
//! ones — the count kernels must agree with the join kernels they stand in
//! for, and every planner must return the same tree and cost it returns over
//! a materializing reference oracle.

use mjoin_hypergraph::{is_acyclic, DbScheme, RelSet};
use mjoin_optimizer::{greedy, optimize, CostOracle, ExactOracle, SearchSpace};
use mjoin_relation::fxhash::FxHashMap;
use mjoin_relation::ops::{self, TrieIndex};
use mjoin_relation::{Catalog, Database, Relation, Schema, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The oracle this PR replaced, kept here as the reference: `|⋈ D[S]|` by
/// building `⋈ D[S]` (Cartesian products included) and taking its length.
struct MaterializingOracle<'a> {
    db: &'a Database,
    memo: FxHashMap<RelSet, u64>,
}

impl<'a> MaterializingOracle<'a> {
    fn new(db: &'a Database) -> Self {
        MaterializingOracle {
            db,
            memo: FxHashMap::default(),
        }
    }
}

impl CostOracle for MaterializingOracle<'_> {
    fn subjoin_size(&mut self, set: RelSet) -> u64 {
        let db = self.db;
        *self
            .memo
            .entry(set)
            .or_insert_with(|| db.join_of(&set.to_vec()).len() as u64)
    }
}

/// Relation schemes of 3–6 relations over attributes `A..H`: a chain, a
/// cycle, two disconnected chains, a chain whose last link is repeated, or
/// 1–3 random attributes per relation (connected or not, cyclic or not).
fn random_schemes(rng: &mut StdRng) -> Vec<String> {
    let n = rng.gen_range(3usize..=6);
    let attr = |i: usize| char::from(b'A' + (i % 8) as u8);
    let link = |i: usize, j: usize| [attr(i), attr(j)].iter().collect::<String>();
    match rng.gen_range(0u32..5) {
        0 => (0..n).map(|i| link(i, i + 1)).collect(),
        1 => (0..n).map(|i| link(i, (i + 1) % n)).collect(),
        2 => {
            let cut = rng.gen_range(1..n);
            // Skipping one attribute at the cut leaves two components.
            (0..n)
                .map(|i| if i < cut { i } else { i + 1 })
                .map(|i| link(i, i + 1))
                .collect()
        }
        3 => (0..n)
            .map(|i| i.min(n - 2))
            .map(|i| link(i, i + 1))
            .collect(),
        _ => (0..n)
            .map(|_| {
                let mut attrs: Vec<char> = (0..rng.gen_range(1usize..=3))
                    .map(|_| attr(rng.gen_range(0usize..8)))
                    .collect();
                attrs.sort_unstable();
                attrs.dedup();
                attrs.into_iter().collect()
            })
            .collect(),
    }
}

/// A database over [`random_schemes`]: each attribute is integer- or
/// string-valued over a 3-value domain, each relation has up to 7 rows and
/// its own dictionaries, and one case in four empties a relation.
fn random_db(seed: u64) -> (DbScheme, Database) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schemes = random_schemes(&mut rng);
    let stringly: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.5)).collect();
    let empty = rng.gen_bool(0.25).then(|| rng.gen_range(0..schemes.len()));
    let mut catalog = Catalog::new();
    let relations = schemes
        .iter()
        .enumerate()
        .map(|(i, scheme)| {
            let schema = Schema::from_chars(&mut catalog, scheme);
            let nrows = if empty == Some(i) {
                0
            } else {
                rng.gen_range(1usize..=7)
            };
            let rows = (0..nrows)
                .map(|_| {
                    schema
                        .attrs()
                        .iter()
                        .map(|a| {
                            let v = rng.gen_range(0i64..3);
                            if stringly[a.index()] {
                                Value::str(format!("v{v}"))
                            } else {
                                Value::Int(v)
                            }
                        })
                        .collect()
                })
                .collect();
            Relation::from_rows(schema, rows).expect("rows match the schema")
        })
        .collect();
    let db = Database::from_relations(relations);
    (DbScheme::from_schemas(&db.schemas()), db)
}

fn subsets(n: usize) -> impl DoubleEndedIterator<Item = RelSet> {
    (0..1usize << n).map(move |bits| RelSet::from_indices((0..n).filter(|i| bits >> i & 1 == 1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn subjoin_size_is_the_materialized_size(seed in any::<u64>()) {
        let (_scheme, db) = random_db(seed);
        let n = db.len();
        // Ask bottom-up and top-down: a disconnected set reuses whatever
        // component sizes the order has already learned.
        let mut up = ExactOracle::new(&db);
        let mut down = ExactOracle::new(&db);
        for set in subsets(n) {
            let want = db.join_of(&set.to_vec()).len() as u64;
            prop_assert_eq!(up.subjoin_size(set), want, "bottom-up, set {}", set);
        }
        for set in subsets(n).rev() {
            let want = db.join_of(&set.to_vec()).len() as u64;
            prop_assert_eq!(down.subjoin_size(set), want, "top-down, set {}", set);
        }
        prop_assert_eq!(up.memo_len(), 1 << n);
        prop_assert_eq!(down.memo_len(), 1 << n);
    }

    /// The join-forest pass: every connected acyclic subset — chains,
    /// stars, repeated schemes, strings over per-relation dictionaries,
    /// empty relations — counts to the size of its join.
    #[test]
    fn forest_count_is_the_join_size(seed in any::<u64>()) {
        let (scheme, db) = random_db(seed);
        let mut oracle = ExactOracle::new(&db);
        for set in subsets(db.len()).filter(|&s| s.len() >= 2 && scheme.is_connected(s)) {
            let members = set.to_vec();
            if is_acyclic(&DbScheme::from_schemas(&db.restrict(&members).schemas())) {
                let want = db.join_of(&members).len() as u64;
                prop_assert_eq!(oracle.subjoin_size(set), want, "set {}", set);
            }
        }
    }

    #[test]
    fn join_count_is_the_join_size(seed in any::<u64>()) {
        let (_scheme, db) = random_db(seed);
        // Input pairs (shared keys, disjoint schemas, empty sides, strings
        // over different dictionaries), then each pair's join against every
        // input (wider keys, gathered dictionary columns).
        for l in db.relations() {
            for r in db.relations() {
                let joined = ops::join(l, r);
                prop_assert_eq!(ops::join_count(l, r), joined.len() as u64);
                for third in db.relations() {
                    prop_assert_eq!(
                        ops::join_count(&joined, third),
                        ops::join(&joined, third).len() as u64
                    );
                    prop_assert_eq!(
                        ops::join_count(third, &joined),
                        ops::join_count(&joined, third)
                    );
                }
            }
        }
    }

    /// Generic Join over every sub-database — cyclic, disconnected and
    /// repeated schemes, strings over per-relation dictionaries, empty
    /// relations: the executor's loop (`trie_join` under `trie_plan`, over
    /// freshly built tries) computes the join, and the planner's count is
    /// its size.
    #[test]
    fn generic_join_count_is_the_wcoj_join_size(seed in any::<u64>()) {
        let (_scheme, db) = random_db(seed);
        for set in subsets(db.len()).filter(|s| !s.is_empty()) {
            let sub = db.restrict(&set.to_vec());
            let rels: Vec<&Relation> = sub.relations().iter().collect();
            let (order, keys) = ops::trie_plan(&rels);
            let tries: Vec<TrieIndex> = rels
                .iter()
                .zip(keys)
                .map(|(&r, key)| TrieIndex::build(Arc::new(r.clone()), key))
                .collect();
            let tries: Vec<&TrieIndex> = tries.iter().collect();
            let (joined, _) = ops::trie_join(&tries, &order, &mut || false).expect("never stopped");
            prop_assert_eq!(&joined, &sub.join_all(), "set {}", set);
            prop_assert_eq!(ops::generic_join_count(&rels), joined.len() as u64, "set {}", set);
        }
    }

    #[test]
    fn planners_agree_with_the_materializing_reference(seed in any::<u64>()) {
        let (scheme, db) = random_db(seed);
        let mut exact = ExactOracle::new(&db);
        let mut reference = MaterializingOracle::new(&db);
        for space in [
            SearchSpace::All,
            SearchSpace::Cpf,
            SearchSpace::Linear,
            SearchSpace::LinearCpf,
        ] {
            let got = optimize(&scheme, &mut exact, space).map(|o| (o.tree, o.cost));
            let want = optimize(&scheme, &mut reference, space).map(|o| (o.tree, o.cost));
            prop_assert_eq!(got, want, "{:?}", space);
        }
        for avoid_cartesian in [true, false] {
            prop_assert_eq!(
                greedy(&scheme, &mut exact, avoid_cartesian),
                greedy(&scheme, &mut reference, avoid_cartesian)
            );
        }
    }
}

/// The skewed chain `AB ⋈ BC ⋈ CD`: the materializing reference builds
/// `AB × CD` (n² tuples) to rank it; the counting oracle multiplies two
/// lengths, counts the connected sets, and ranks every tree the same.
#[test]
fn skewed_chain_stays_under_the_cartesian_ceiling() {
    let n = 200i64;
    let mut catalog = Catalog::new();
    let mut rel = |scheme: &str, row: &dyn Fn(i64) -> [i64; 2]| {
        let schema = Schema::from_chars(&mut catalog, scheme);
        let rows = (0..n).map(|i| row(i).map(Value::Int).into()).collect();
        Relation::from_rows(schema, rows).expect("binary rows")
    };
    let db = Database::from_relations(vec![
        rel("AB", &|i| [i, i % 4]),
        rel("BC", &|i| [i % 4, i]),
        rel("CD", &|i| [i, i % 3]),
    ]);
    let scheme = DbScheme::from_schemas(&db.schemas());
    let mut oracle = ExactOracle::new(&db);
    let all = optimize(&scheme, &mut oracle, SearchSpace::All).expect("nonempty space");
    assert_eq!(all.cost, mjoin_expr::cost_of(&all.tree, &db));
    let reference = optimize(
        &scheme,
        &mut MaterializingOracle::new(&db),
        SearchSpace::All,
    );
    assert_eq!(
        reference.map(|o| (o.tree, o.cost)),
        Some((all.tree, all.cost))
    );
    assert_eq!(
        oracle.subjoin_size(RelSet::from_indices([0, 2])),
        (n * n) as u64
    );
}
