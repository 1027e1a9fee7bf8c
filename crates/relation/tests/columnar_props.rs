//! Property tests for the columnar storage layer: a relation's columns are
//! its only layout, the row constructors keep each tuple's first occurrence,
//! and the per-call row copy reads the columns back exactly.

use mjoin_relation::{tsv, Catalog, Error, Relation, Schema, Value};
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

/// Node `v` as an integer, a string, or by parity either one (`"3"`-style
/// strings in the mixed kind, so the TSV round trip must escape them).
fn typed_cell(kind: u8, v: i64) -> Value {
    match kind {
        0 => Value::Int(v),
        1 => Value::str(format!("s{v}")),
        _ if v % 2 == 0 => Value::Int(v),
        _ => Value::str(v.to_string()),
    }
}

/// Three-column rows, each column integer, string or mixed, with copies of
/// earlier or later rows inserted at random positions.
fn rows_with_duplicates() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (
        prop::collection::vec(0u8..3, 3),
        prop::collection::vec(prop::collection::vec(-3i64..6, 3), 0..30),
        prop::collection::vec((0usize..64, 0usize..64), 0..20),
    )
        .prop_map(|(kinds, raw, copies)| {
            let mut rows: Vec<Vec<Value>> = raw
                .iter()
                .map(|r| {
                    r.iter()
                        .zip(&kinds)
                        .map(|(&v, &k)| typed_cell(k, v))
                        .collect()
                })
                .collect();
            for (from, to) in copies {
                if !rows.is_empty() {
                    let row = rows[from % rows.len()].clone();
                    rows.insert(to % (rows.len() + 1), row);
                }
            }
            rows
        })
}

fn rel_of(c: &mut Catalog, scheme: &str, tuples: Vec<Vec<Value>>) -> Relation {
    let schema = Schema::from_chars(c, scheme);
    Relation::from_tuples(schema, tuples).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rows → Relation → columns → rows: reading every cell back out of the
    /// column vectors reproduces the row copy exactly, in row order.
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

    /// A kernel's output (a columnar select gathers every column) reads
    /// back the same rows as its row-built source.
    #[test]
    fn kernel_output_reads_back_the_same_rows(tuples in rows(2, 40)) {
        let mut c = Catalog::new();
        let r = rel_of(&mut c, "AB", tuples);
        let copy = mjoin_relation::ops::select_where(&r, |_| true);
        prop_assert_eq!(&copy, &r);
        prop_assert_eq!(copy.rows(), r.rows());
        prop_assert_eq!(copy.fingerprint(), r.fingerprint());
    }

    /// The row constructors' contract, on rows with planted duplicates in
    /// integer, string and mixed columns: the first occurrence of each
    /// tuple survives, in input order; the fingerprint is the TSV round
    /// trip's; and membership agrees with the deduplicated input.
    #[test]
    fn from_rows_keeps_first_occurrences(tuples in rows_with_duplicates()) {
        let mut want: Vec<Vec<Value>> = Vec::new();
        for t in &tuples {
            if !want.contains(t) {
                want.push(t.clone());
            }
        }
        let mut c = Catalog::new();
        let r = rel_of(&mut c, "ABC", tuples.clone());
        let got: Vec<Vec<Value>> = r.rows().into_iter().map(Vec::from).collect();
        prop_assert_eq!(&got, &want);
        let text = tsv::relation_to_tsv(&c, &r);
        let reloaded = tsv::relation_from_tsv(&mut c, &text).unwrap();
        prop_assert_eq!(reloaded.fingerprint(), r.fingerprint());
        prop_assert_eq!(&reloaded, &r);
        for t in &tuples {
            prop_assert!(r.contains_row(t));
        }
        let absent = vec![Value::Int(99), Value::str("absent"), Value::Int(-99)];
        prop_assert!(!r.contains_row(&absent));
        prop_assert!(!r.contains_row(&absent[..2]));
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

#[test]
fn nullary_relations_hold_zero_or_one_tuple() {
    let none = Relation::from_tuples(Schema::empty(), Vec::new()).unwrap();
    assert!(none.is_empty());
    assert!(!none.contains_row(&[]));
    let one = Relation::from_tuples(Schema::empty(), vec![Vec::new(); 3]).unwrap();
    assert_eq!(one.len(), 1);
    assert!(one.contains_row(&[]));
    assert_eq!(one.rows(), vec![Vec::new().into_boxed_slice()]);
    assert_eq!(one, Relation::nullary_unit());
    assert_eq!(one.fingerprint(), Relation::nullary_unit().fingerprint());
    assert_ne!(none.fingerprint(), one.fingerprint());
}

#[test]
fn row_constructors_check_arity() {
    let mut c = Catalog::new();
    let schema = Schema::from_chars(&mut c, "AB");
    let tuples = vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]];
    assert_eq!(
        Relation::from_tuples(schema, tuples).unwrap_err(),
        Error::ArityMismatch {
            expected: 2,
            got: 1
        }
    );
}
