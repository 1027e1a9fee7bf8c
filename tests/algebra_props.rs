//! Property-based tests of the relational-algebra substrate: the laws the
//! paper's proofs silently rely on.

use mjoin::prelude::*;
use proptest::prelude::*;

/// Build a relation over `scheme` (single-letter attributes, canonical
/// catalog) from generated rows; values are kept in written order.
fn rel(catalog: &mut Catalog, scheme: &str, rows: &[Vec<i64>]) -> Relation {
    let refs: Vec<&[i64]> = rows.iter().map(std::vec::Vec::as_slice).collect();
    relation_of_ints(catalog, scheme, &refs).unwrap()
}

fn rows(arity: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..5i64, arity), 0..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn join_is_commutative(ra in rows(2), rb in rows(2)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "BC", &rb);
        prop_assert_eq!(ops::join(&r, &s), ops::join(&s, &r));
    }

    #[test]
    fn join_is_associative(ra in rows(2), rb in rows(2), rc in rows(2)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "BC", &rb);
        let t = rel(&mut c, "CD", &rc);
        prop_assert_eq!(
            ops::join(&ops::join(&r, &s), &t),
            ops::join(&r, &ops::join(&s, &t))
        );
    }

    #[test]
    fn join_is_idempotent(ra in rows(2)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        prop_assert_eq!(ops::join(&r, &r), r);
    }

    #[test]
    fn semijoin_is_projection_of_join(ra in rows(2), rb in rows(2)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "BC", &rb);
        let direct = ops::semijoin(&r, &s);
        let via_join = ops::project(&ops::join(&r, &s), r.schema().attrs()).unwrap();
        prop_assert_eq!(direct, via_join);
    }

    #[test]
    fn semijoin_shrinks_and_is_idempotent(ra in rows(2), rb in rows(2)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "BC", &rb);
        let once = ops::semijoin(&r, &s);
        prop_assert!(once.len() <= r.len());
        for row in once.rows() {
            prop_assert!(r.contains_row(&row));
        }
        prop_assert_eq!(ops::semijoin(&once, &s), once.clone());
        // Reduction never changes the join result (the full-reducer premise).
        prop_assert_eq!(ops::join(&once, &s), ops::join(&r, &s));
    }

    #[test]
    fn projection_composes(ra in rows(3)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "ABC", &ra);
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        // π_A(π_AB(R)) = π_A(R).
        let inner = ops::project(&r, &[a, b]).unwrap();
        prop_assert_eq!(
            ops::project(&inner, &[a]).unwrap(),
            ops::project(&r, &[a]).unwrap()
        );
    }

    #[test]
    fn join_size_bounded_by_product(ra in rows(2), rb in rows(2)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "BC", &rb);
        prop_assert!(ops::join(&r, &s).len() <= r.len() * s.len());
    }

    #[test]
    fn projection_of_join_bounded_by_side(ra in rows(2), rb in rows(2)) {
        // The key inequality in Theorem 2's proof:
        // |π_X(R ⋈ S)| ≤ |R| when X ⊆ scheme(R).
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "BC", &rb);
        let j = ops::join(&r, &s);
        let projected = ops::project(&j, r.schema().attrs()).unwrap();
        prop_assert!(projected.len() <= r.len());
    }

    #[test]
    fn set_ops_laws(ra in rows(2), rb in rows(2)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let s = rel(&mut c, "AB", &rb);
        let u = ops::union(&r, &s).unwrap();
        let i = ops::intersection(&r, &s).unwrap();
        let d_rs = ops::difference(&r, &s).unwrap();
        // |R ∪ S| + |R ∩ S| = |R| + |S|.
        prop_assert_eq!(u.len() + i.len(), r.len() + s.len());
        // R = (R − S) ∪ (R ∩ S).
        prop_assert_eq!(ops::union(&d_rs, &i).unwrap(), r);
    }

    #[test]
    fn tsv_roundtrip(ra in rows(2)) {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &ra);
        let text = mjoin::relation::tsv::relation_to_tsv(&c, &r);
        let back = mjoin::relation::tsv::relation_from_tsv(&mut c, &text).unwrap();
        prop_assert_eq!(back, r);
    }
}
