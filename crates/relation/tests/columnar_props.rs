//! Property tests for the columnar storage layer: a relation's columns are
//! its only layout, the row constructors keep each tuple's first occurrence,
//! the key-column proof and the packed-key dedup in `from_columns` keep the
//! ones a row-set dedup keeps, and the per-call row copy reads the columns
//! back exactly.

use mjoin_relation::{
    tsv, Catalog, Column, ColumnBuilder, Error, IntSpan, Relation, Schema, Value,
};
use proptest::prelude::*;
use std::collections::HashSet;

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

/// The reference dedup: a hash set over whole rows of values, keeping the
/// id of each tuple's first occurrence, in row order.
fn hashed_first_occurrences(cols: &[Column], nrows: usize) -> Vec<usize> {
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    (0..nrows)
        .filter(|&i| seen.insert(cols.iter().map(|c| c.value(i)).collect()))
        .collect()
}

/// `from_columns` keeps exactly the reference's ids, in its order.
fn assert_dedup_matches_reference(cols: Vec<Column>, nrows: usize) {
    let want = hashed_first_occurrences(&cols, nrows);
    let want: Vec<Vec<Value>> = want
        .iter()
        .map(|&i| cols.iter().map(|c| c.value(i)).collect())
        .collect();
    let mut c = Catalog::new();
    let scheme: String = ('A'..='Z').take(cols.len()).collect();
    let schema = Schema::from_chars(&mut c, &scheme);
    let got = Relation::from_columns(schema, nrows, cols);
    let got: Vec<Vec<Value>> = got.rows().into_iter().map(Vec::from).collect();
    assert_eq!(got, want);
}

fn int_column(vals: &[i64]) -> Column {
    let mut b = ColumnBuilder::with_capacity(vals.len());
    vals.iter().for_each(|&x| b.push_int(x));
    b.finish()
}

/// The stored span of an integer column.
fn int_span(col: &Column) -> IntSpan {
    match col {
        Column::Int(c) => c.span(),
        Column::Dict { .. } => panic!("integer column"),
    }
}

/// An integer column's values, in row order.
fn int_cells(col: &Column) -> Vec<i64> {
    (0..col.len())
        .map(|i| col.value(i).as_int().expect("integer cell"))
        .collect()
}

/// The largest value of `width` bits.
fn span_of(width: u32) -> u64 {
    u64::MAX.checked_shr(64 - width).unwrap_or(0)
}

/// Cells spanning exactly `width` bits: the first two are `lo` and
/// `lo + 2^width − 1`, the rest picked from those and a midpoint.
fn cells_of_width(lo: i64, width: u32, picks: &[u8]) -> Vec<i64> {
    let span = span_of(width);
    let hi = lo.wrapping_add(span as i64);
    let mid = lo.wrapping_add((span / 2) as i64);
    let mut vals = vec![lo, hi];
    vals.extend(picks.iter().map(|&k| [lo, hi, mid][k as usize % 3]));
    vals
}

/// The smallest cell that leaves room above for a `width`-bit span, drawn
/// from both ends of the `i64` range and around zero.
fn low_end(which: u8, width: u32) -> i64 {
    let span = span_of(width);
    match which % 3 {
        0 => i64::MIN,
        1 => i64::MAX.wrapping_sub(span as i64),
        _ => -((span / 2) as i64),
    }
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

    /// Integer columns of 0 to 64 bits each, two or three to a row so the
    /// packed width lands on both sides of 64 bits, with cells at both ends
    /// of the `i64` range and rows picked from few values so duplicates
    /// abound: `from_columns` keeps the reference's first occurrences.
    #[test]
    fn packed_dedup_keeps_the_hash_paths_first_occurrences(
        cols in prop::collection::vec(
            (0usize..9, 0u8..3),
            2..4,
        ),
        picks in prop::collection::vec(prop::collection::vec(0u8..3, 3), 0..40),
    ) {
        let columns: Vec<Column> = cols
            .iter()
            .enumerate()
            .map(|(j, &(w, end))| {
                let width = [0u32, 1, 2, 31, 32, 33, 62, 63, 64][w];
                let col: Vec<u8> = picks.iter().map(|p| p[j]).collect();
                int_column(&cells_of_width(low_end(end, width), width, &col))
            })
            .collect();
        assert_dedup_matches_reference(columns, picks.len() + 2);
    }

    /// Interned columns gathered out of one larger shared pool (so codes
    /// skip unused entries, and the first column's smallest code is not 0),
    /// beside an integer column: the same ids.
    #[test]
    fn packed_dedup_on_gathered_pool_columns(
        sels in prop::collection::vec((4u32..17, 0u32..4, -2i64..3), 0..50),
    ) {
        let mut pool = ColumnBuilder::default();
        for i in 0..20 {
            pool.push_str(&format!("p{}", i % 17));
        }
        pool.push_int(7);
        (0..3).for_each(|i| pool.push_int(i));
        let pool = pool.finish();
        let (a, b): (Vec<u32>, Vec<u32>) = sels.iter().map(|&(a, b, _)| (a, b)).unzip();
        let ints: Vec<i64> = sels.iter().map(|&(_, _, x)| x).collect();
        let columns = vec![pool.gather(&a), int_column(&ints), pool.gather(&b)];
        assert_dedup_matches_reference(columns, sels.len());
    }

    /// The key-column proof: an integer column of pairwise distinct cells
    /// in a span under eight per row, or an interned one of distinct
    /// strings, beside a column of few values. As a key (every row
    /// distinct), as a near key whose last cell repeats an earlier one —
    /// with the whole row repeated, or only that cell — and as no key at
    /// all: `from_columns` keeps the reference's first occurrences.
    #[test]
    fn key_column_proof_keeps_first_occurrences(
        interned in any::<bool>(),
        stride in 1i64..8,
        base in -50i64..50,
        mut others in prop::collection::vec(0i64..3, 2..60),
        shape in 0u8..4,
        repeat_of in 0usize..64,
    ) {
        let n = others.len();
        // A permutation of `0..n`, zigzagging from both ends.
        let mut cells: Vec<i64> = (0..n)
            .map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 })
            .map(|k| base + stride * k as i64)
            .collect();
        let (last, earlier) = (n - 1, repeat_of % (n - 1));
        match shape {
            0 => {}
            1 => {
                cells[last] = cells[earlier];
                others[last] = others[earlier];
            }
            2 => {
                cells[last] = cells[earlier];
                others[last] = others[earlier] + 3;
            }
            _ => cells.iter_mut().for_each(|v| *v %= 3),
        }
        let key = if interned {
            let mut b = ColumnBuilder::with_capacity(n);
            cells.iter().for_each(|v| b.push_str(&format!("k{v}")));
            b.finish()
        } else {
            int_column(&cells)
        };
        assert_dedup_matches_reference(vec![key, int_column(&others)], n);
    }

    /// Integer columns over random spans of 0 to 64 bits and minimums at
    /// both ends of `i64` and around zero: the builder, a gather, a
    /// concatenation of two columns of different spans and a TSV round
    /// trip each read back the values put in. The builder stores the exact
    /// span at the narrowest width that holds it, a gather keeps its
    /// source's span, a concatenation takes the hull of its parts', and a
    /// reload is exact again.
    #[test]
    fn integer_columns_round_trip_at_any_span(
        ends in prop::collection::vec((0u32..65, 0u8..3), 2),
        picks in prop::collection::vec((0u8..3, 0u8..3), 0..40),
        sel in prop::collection::vec(0usize..64, 0..40),
    ) {
        let n = picks.len() + 2;
        let vals: Vec<Vec<i64>> = ends
            .iter()
            .enumerate()
            .map(|(j, &(width, end))| {
                let col: Vec<u8> = picks.iter().map(|p| [p.0, p.1][j]).collect();
                cells_of_width(low_end(end, width), width, &col)
            })
            .collect();
        let built: Vec<Column> = vals.iter().map(|v| int_column(v)).collect();
        for (v, col) in vals.iter().zip(&built) {
            let span = IntSpan::of(v);
            prop_assert_eq!(int_span(col), span);
            let bytes = match span.width {
                0..=0xff => 1,
                0x100..=0xffff => 2,
                0x1_0000..=0xffff_ffff => 4,
                _ => 8,
            };
            prop_assert_eq!(col.payload_bytes(), bytes * n);
            prop_assert_eq!(&int_cells(col), v);
        }

        let sel: Vec<u32> = sel.iter().map(|&i| (i % n) as u32).collect();
        let picked = |v: &[i64]| sel.iter().map(|&i| v[i as usize]).collect::<Vec<_>>();
        let gathered: Vec<Column> = built.iter().map(|c| c.gather(&sel)).collect();
        for ((v, col), g) in vals.iter().zip(&built).zip(&gathered) {
            prop_assert_eq!(int_span(g), int_span(col));
            prop_assert_eq!(int_cells(g), picked(v));
        }

        let all: Vec<u32> = (0..n as u32).collect();
        let cat = Column::concat_gathered(&[(&built[0], &sel), (&built[1], &all)]);
        let mut want = picked(&vals[0]);
        want.extend(&vals[1]);
        prop_assert_eq!(int_cells(&cat), want);
        let hull = match sel.is_empty() {
            true => int_span(&built[1]),
            false => int_span(&built[0]).hull(int_span(&built[1])),
        };
        prop_assert_eq!(int_span(&cat), hull);

        let mut c = Catalog::new();
        let schema = Schema::from_chars(&mut c, "AB");
        for (rows, cols) in [(n, built), (sel.len(), gathered)] {
            let r = Relation::from_columns(schema.clone(), rows, cols);
            let text = tsv::relation_to_tsv(&c, &r);
            let reloaded = tsv::relation_from_tsv(&mut c, &text).unwrap();
            prop_assert_eq!(&reloaded, &r);
            prop_assert_eq!(reloaded.fingerprint(), r.fingerprint());
            for col in reloaded.columns() {
                prop_assert_eq!(int_span(col), IntSpan::of(&int_cells(col)));
            }
        }
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

/// Packed widths of exactly 63, 64 and 65 bits (65 takes the hash path),
/// with `i64::MIN` and `i64::MAX` cells, each over duplicate-free rows and
/// over rows that repeat every tuple.
#[test]
fn packed_dedup_at_63_64_and_65_bits() {
    for widths in [
        [63, 0],
        [62, 1],
        [64, 0],
        [32, 32],
        [63, 1],
        [64, 1],
        [33, 32],
    ] {
        let picks: Vec<u8> = (0..9).collect();
        let (a, b) = (
            cells_of_width(i64::MIN, widths[0], &picks),
            cells_of_width(i64::MAX.wrapping_sub(1 << 20), widths[1], &picks),
        );
        assert!(a.contains(&i64::MIN));
        assert_dedup_matches_reference(vec![int_column(&a), int_column(&b)], a.len());
        // Duplicate-free: a third column numbering the rows.
        let ids: Vec<i64> = (0..a.len() as i64).collect();
        let cols = vec![int_column(&a), int_column(&b), int_column(&ids)];
        assert_dedup_matches_reference(cols, a.len());
        // All duplicates: every row twice, in two runs.
        let twice = |v: &[i64]| [v, v].concat();
        let cols = vec![int_column(&twice(&a)), int_column(&twice(&b))];
        assert_dedup_matches_reference(cols, 2 * a.len());
    }
    let extremes = [i64::MIN, i64::MAX, i64::MIN, 0, i64::MAX];
    assert_dedup_matches_reference(vec![int_column(&extremes)], extremes.len());
}

/// No rows, one row, and nullary schemas of 0, 1 and 3 rows.
#[test]
fn packed_dedup_on_tiny_inputs() {
    assert_dedup_matches_reference(vec![int_column(&[]), int_column(&[])], 0);
    assert_dedup_matches_reference(vec![int_column(&[i64::MAX]), int_column(&[5])], 1);
    for n in [0, 1, 3] {
        assert_dedup_matches_reference(Vec::new(), n);
        let r = Relation::from_columns(Schema::empty(), n, Vec::new());
        assert_eq!(r.len(), n.min(1));
    }
    let all_same = int_column(&[4; 6]);
    assert_dedup_matches_reference(vec![all_same.clone(), all_same], 6);
}
