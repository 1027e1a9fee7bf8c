//! Differential property tests: the three join implementations (hash,
//! sort-merge, partitioned parallel) must agree on arbitrary inputs, and all
//! must satisfy the algebraic size bounds.

use mjoin_relation::{ops, Catalog, Relation, Schema, Value};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn three_joins_agree_with_shared_attr(ra in rows(2, 40), rb in rows(2, 40)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "BC", &rb);
        let hash = ops::join(&r, &s);
        prop_assert_eq!(&ops::merge_join(&r, &s), &hash);
        for threads in [2usize, 4] {
            prop_assert_eq!(&ops::par_join_cutoff(&r, &s, threads, 0), &hash);
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
        prop_assert_eq!(&ops::par_join_cutoff(&r, &s, 3, 0), &hash);
    }

    #[test]
    fn three_joins_agree_multi_key(ra in rows(3, 30), rb in rows(3, 30)) {
        // ABC ⋈ BCD: two shared attributes.
        let mut c = Catalog::new();
        let r = rel(&mut c, "ABC", &ra);
        let s = rel(&mut c, "BCD", &rb);
        let hash = ops::join(&r, &s);
        prop_assert_eq!(&ops::merge_join(&r, &s), &hash);
        prop_assert_eq!(&ops::par_join_cutoff(&r, &s, 4, 0), &hash);
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
