//! Differential property tests: the hash join, the sort-merge join and the
//! index probe at every thread count (in chunks, with a cutoff of 0) must
//! agree on arbitrary inputs, and all must satisfy the algebraic size
//! bounds.

use mjoin_relation::ops::{self, JoinIndex};
use mjoin_relation::{Catalog, Relation, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn rel(c: &mut Catalog, scheme: &str, rows: &[Vec<i64>]) -> Relation {
    let schema = Schema::from_chars(c, scheme);
    Relation::from_tuples(
        schema,
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect(),
    )
    .unwrap()
}

fn rows(arity: usize, max: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..6i64, arity), 0..max)
}

/// `r ⋈ s` probed through an index on each side, at 1/2/4/8 threads.
fn indexed_joins(r: &Relation, s: &Relation) -> Vec<Relation> {
    let (rkey, skey) = ops::join_key_positions(r.schema(), s.schema());
    let on_r = JoinIndex::build(Arc::new(r.clone()), rkey);
    let on_s = JoinIndex::build(Arc::new(s.clone()), skey);
    [1, 2, 4, 8]
        .into_iter()
        .flat_map(|t| {
            [
                ops::par_join_indexed_cutoff(&on_r, s, t, 0),
                ops::par_join_indexed_cutoff(&on_s, r, t, 0),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn three_joins_agree_with_shared_attr(ra in rows(2, 40), rb in rows(2, 40)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "BC", &rb);
        let hash = ops::join(&r, &s);
        prop_assert_eq!(&ops::merge_join(&r, &s), &hash);
        for indexed in indexed_joins(&r, &s) {
            prop_assert_eq!(&indexed, &hash);
        }
    }

    #[test]
    fn three_joins_agree_on_cartesian(ra in rows(1, 20), rb in rows(1, 20)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "A", &ra);
        let s = rel(&mut c, "B", &rb);
        let hash = ops::join(&r, &s);
        prop_assert_eq!(hash.len(), r.len() * s.len());
        prop_assert_eq!(&ops::merge_join(&r, &s), &hash);
        for indexed in indexed_joins(&r, &s) {
            prop_assert_eq!(&indexed, &hash);
        }
    }

    #[test]
    fn three_joins_agree_multi_key(ra in rows(3, 30), rb in rows(3, 30)) {
        // ABC ⋈ BCD: two shared attributes.
        let mut c = Catalog::new();
        let r = rel(&mut c, "ABC", &ra);
        let s = rel(&mut c, "BCD", &rb);
        let hash = ops::join(&r, &s);
        prop_assert_eq!(&ops::merge_join(&r, &s), &hash);
        for indexed in indexed_joins(&r, &s) {
            prop_assert_eq!(&indexed, &hash);
        }
    }

    #[test]
    fn join_projection_recovery(ra in rows(2, 30), rb in rows(2, 30)) {
        // π_{AB}(R ⋈ S) ⊆ R, with equality exactly on R ⋉ S.
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "BC", &rb);
        let j = ops::merge_join(&r, &s);
        let back = ops::project(&j, r.schema().attrs()).unwrap();
        prop_assert_eq!(back, ops::semijoin(&r, &s));
    }
}
