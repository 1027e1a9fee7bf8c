//! Property tests for the columnar storage layer: the row view and the
//! column view of a relation are two encodings of the same set of tuples,
//! and every derivation between them round-trips exactly.

use mjoin_relation::{Catalog, Relation, Schema, Value};
use proptest::prelude::*;

/// A strategy for rows mixing integers and short strings (strings share a
/// small alphabet so dictionaries see repeated codes, and `"7"`-style
/// numeric strings exercise the Int-vs-Str distinction).
fn cell() -> impl Strategy<Value = Value> {
    (0u8..4, -4i64..10).prop_map(|(kind, v)| match kind {
        0 | 1 => Value::Int(v),
        2 => Value::str(format!("v{}", v.rem_euclid(5))),
        _ => Value::str(v.rem_euclid(4).to_string()),
    })
}

fn rows(arity: usize, max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(cell(), arity), 0..max)
}

fn rel_of(c: &mut Catalog, scheme: &str, tuples: Vec<Vec<Value>>) -> Relation {
    let schema = Schema::from_chars(c, scheme);
    Relation::from_tuples(schema, tuples).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rows → Relation → columns → rows: reading every cell back out of the
    /// column vectors reproduces the row view exactly, in row order.
    #[test]
    fn row_view_and_column_view_agree(tuples in rows(3, 40)) {
        let mut c = Catalog::new();
        let r = rel_of(&mut c, "ABC", tuples);
        let cols = r.columns();
        prop_assert_eq!(cols.len(), 3);
        for col in cols {
            prop_assert_eq!(col.len(), r.len());
        }
        for (i, row) in r.rows().iter().enumerate() {
            for (p, cell) in row.iter().enumerate() {
                prop_assert_eq!(&cols[p].value(i), cell, "row {} col {}", i, p);
            }
        }
    }

    /// The opposite derivation: a relation whose *columns* are primary (a
    /// columnar select output) materializes a row view equal to the source's.
    #[test]
    fn column_born_relation_rematerializes_rows(tuples in rows(2, 40)) {
        let mut c = Catalog::new();
        let r = rel_of(&mut c, "AB", tuples);
        // select_where(true) late-materializes from column gathers — its
        // result relation is column-born.
        let copy = mjoin_relation::ops::select_where(&r, |_| true);
        prop_assert_eq!(&copy, &r);
        // Forcing the copy's row view agrees with the original's, as sets.
        prop_assert_eq!(copy.sorted_rows(), r.sorted_rows());
    }

    /// The structural fingerprint is a function of the tuple set alone —
    /// not of which view happens to be resident.
    #[test]
    fn fingerprint_ignores_layout(tuples in rows(2, 30)) {
        let mut c = Catalog::new();
        let r = rel_of(&mut c, "AB", tuples.clone());
        let s = rel_of(&mut c, "AB", tuples);
        // r: hash from the row view. s: force columns first, so its
        // fingerprint folds over column slices.
        let _ = s.columns();
        prop_assert_eq!(r.fingerprint(), s.fingerprint());
        prop_assert_eq!(r, s);
    }

    /// Dictionary sharing: gathering a subset of an interned column (via a
    /// columnar selection) never re-interns — resident bytes of the subset
    /// stay bounded by codes plus the shared pool.
    #[test]
    fn subset_shares_dictionary(tuples in rows(2, 40)) {
        let mut c = Catalog::new();
        let r = rel_of(&mut c, "AB", tuples);
        let half = mjoin_relation::ops::select_where(&r, |row| {
            !matches!(row[0], Value::Int(i) if i % 2 == 0)
        });
        for (src, sub) in r.columns().iter().zip(half.columns()) {
            if let (Some(a), Some(b)) = (src.dict(), sub.dict()) {
                prop_assert!(std::sync::Arc::ptr_eq(a, b), "pool must be shared");
            }
        }
    }
}
