//! The dense and hash layouts of a [`JoinIndex`] against each other and
//! against a nested-loop reference: the same `(build_ids, probe_ids)`,
//! chunk for chunk, at 1, 2, 4 and 8 threads with every probe chunked
//! (cutoff 0), for joins and for semijoins (probe ids only) — over negative
//! keys, keys whose span overflows, one key repeated thousands of times,
//! interned probe columns mixing strings and integers, empty sides, and
//! spans on both sides of the byte rule that picks the layout. A semijoin
//! shares its target's columns exactly when it keeps every row.

use super::*;
use crate::attr::Catalog;
use crate::column::ColumnBuilder;
use crate::schema::Schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A relation over `AB` (build) or `BC` (probe): `B` holds `keys` and the
/// other attribute numbers the rows, so every row is distinct.
fn keyed(c: &mut Catalog, scheme: &str, keys: Column) -> Relation {
    let n = keys.len();
    let ids = crate::column::tests::ints(&(0..n as i64).collect::<Vec<_>>());
    let cols = if scheme == "AB" {
        vec![ids, keys]
    } else {
        vec![keys, ids]
    };
    Relation::from_columns(Schema::from_chars(c, scheme), n, cols)
}

fn ints(keys: &[i64]) -> Column {
    crate::column::tests::ints(keys)
}

/// An interned column: `Some(v)` cells are integers, `None` cells strings.
fn mixed(keys: &[Option<i64>]) -> Column {
    let mut b = ColumnBuilder::with_capacity(keys.len());
    for (i, k) in keys.iter().enumerate() {
        match k {
            Some(v) => b.push_int(*v),
            None => b.push_str(&format!("s{}", i % 7)),
        }
    }
    let col = b.finish();
    assert!(col.is_interned() || keys.iter().all(Option::is_some));
    col
}

/// The same index with its table forced to the hash layout.
fn hashed(index: &JoinIndex) -> JoinIndex {
    let rel = Arc::clone(&index.rel);
    let table = JoinIndex::hash_table(&rel, &index.key_pos);
    JoinIndex {
        rel,
        key_pos: index.key_pos.clone(),
        layout: Layout::Hash(table),
    }
}

/// Nested loops: for each probe row, every build row with an equal key,
/// the latest first (the first one only with `first_only`, as a semijoin
/// keeps it).
fn reference(build: &Relation, probe: &Relation, first_only: bool) -> (Vec<u32>, Vec<u32>) {
    let (bcol, pcol) = (&build.columns()[1], &probe.columns()[0]);
    let (mut bids, mut pids) = (Vec::new(), Vec::new());
    for j in 0..probe.len() {
        let hits = (0..build.len())
            .rev()
            .filter(|&i| bcol.cells_eq(i, pcol, j));
        for i in hits.take(if first_only { 1 } else { usize::MAX }) {
            bids.push(i as u32);
            pids.push(j as u32);
        }
    }
    (bids, pids)
}

fn concat(ids: &[Pairs]) -> (Vec<u32>, Vec<u32>) {
    let bids = ids.iter().flat_map(|(b, _)| b.iter().copied()).collect();
    let pids = ids.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    (bids, pids)
}

/// `build`'s index takes `layout`, and both layouts probe `probe` to the
/// reference's ids at every thread count: every match for a join, the
/// probe rows that match any for a semijoin.
fn check(build: &Relation, probe: &Relation, layout: &str, what: &str) {
    let index = JoinIndex::build(Arc::new(build.clone()), vec![1]);
    assert_eq!(index.layout(), layout, "{what}: layout");
    let hash = hashed(&index);
    let want_pairs = reference(build, probe, false);
    let want_ids = reference(build, probe, true).1;
    for threads in [1, 2, 4, 8] {
        let pairs: Vec<Pairs> = index.probe(probe, threads, 0);
        assert!(
            pairs == hash.probe::<Pairs>(probe, threads, 0),
            "{what}: join layouts differ at {threads} threads"
        );
        assert!(
            concat(&pairs) == want_pairs,
            "{what}: join reference differs at {threads} threads"
        );
        let ids: Vec<Vec<u32>> = index.probe(probe, threads, 0);
        assert!(
            ids == hash.probe::<Vec<u32>>(probe, threads, 0),
            "{what}: semijoin layouts differ at {threads} threads"
        );
        assert!(
            ids.concat() == want_ids,
            "{what}: semijoin reference differs at {threads} threads"
        );
        if threads > 1 && probe.len() > 1 {
            assert!(pairs.len() > 1, "{what}: {threads} threads ran one chunk");
            assert!(ids.len() > 1, "{what}: {threads} threads ran one chunk");
        }
    }
}

/// Whether `a` and `b` hold the same column payload allocations.
fn shares_columns(a: &Relation, b: &Relation) -> bool {
    a.columns().iter().zip(b.columns()).all(|pair| match pair {
        (Column::Int(x), Column::Int(y)) => crate::column::tests::same_cells(x.cells(), y.cells()),
        (Column::Dict { codes: x, .. }, Column::Dict { codes: y, .. }) => Arc::ptr_eq(x, y),
        _ => false,
    })
}

/// A semijoin equals the target gathered at the reference's surviving ids,
/// at every thread count and on both layouts, and shares the target's
/// column payloads exactly when every row survives: for targets that keep
/// every row, all but one (first, middle or last), and none.
#[test]
fn a_semijoin_shares_its_target_exactly_when_every_row_survives() {
    let mut c = Catalog::new();
    let build: Vec<i64> = (0..300).map(|i| (i * 37) % 250).collect();
    let b = keyed(&mut c, "AB", ints(&build));
    let index = JoinIndex::build(Arc::new(b.clone()), vec![1]);
    assert_eq!(index.layout(), "dense");
    let hash = hashed(&index);
    let kept: Vec<i64> = (0..700).map(|i| (i * 13) % 250).collect();
    let mut targets = vec![("every row", kept.clone())];
    for at in [0, 350, 699] {
        let mut keys = kept.clone();
        keys[at] = 250 + at as i64;
        targets.push(("all but one", keys));
    }
    targets.push(("none", (0..700).map(|i| -1 - i).collect()));
    for (what, keys) in targets {
        // Numbered rows, and rows labelled by an interned string column.
        let mut labels = ColumnBuilder::with_capacity(keys.len());
        for i in 0..keys.len() {
            labels.push_str(&format!("s{i}"));
        }
        let schema = Schema::from_chars(&mut c, "BC");
        let labelled =
            Relation::from_columns(schema, keys.len(), vec![ints(&keys), labels.finish()]);
        assert!(labelled.columns()[1].is_interned());
        for target in [keyed(&mut c, "BC", ints(&keys)), labelled] {
            let want = columnar::gather_relation(&target, &reference(&b, &target, true).1);
            let every = want.len() == target.len();
            assert_eq!(every, what == "every row", "{what}");
            for threads in [1, 2, 4, 8] {
                for idx in [&index, &hash] {
                    let (got, chunks) = idx.semijoin(&target, threads, 0);
                    let at = format!("{what}, {} layout, {threads} threads", idx.layout());
                    assert_eq!(got, want, "{at}");
                    assert_eq!(chunks > 1, threads > 1, "{at}: chunks");
                    assert_eq!(shares_columns(&got, &target), every, "{at}: sharing");
                }
            }
        }
    }
}

#[test]
fn negative_and_repeated_keys() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut c = Catalog::new();
    let build: Vec<i64> = (0..600).map(|_| rng.gen_range(-900..-100)).collect();
    let probe: Vec<i64> = (0..500).map(|_| rng.gen_range(-1000..0)).collect();
    let (b, p) = (
        keyed(&mut c, "AB", ints(&build)),
        keyed(&mut c, "BC", ints(&probe)),
    );
    check(&b, &p, "dense", "negative keys");

    // One key 1,500 times among a few others, probed by that key and misses.
    let mut build = vec![42; 1500];
    build.extend([40, 41, 43, 42, 44]);
    let probe = [42, 39, 42, 45, 44, 42, 0];
    let (b, p) = (
        keyed(&mut c, "AB", ints(&build)),
        keyed(&mut c, "BC", ints(&probe)),
    );
    check(&b, &p, "dense", "a repeated key");
}

#[test]
fn spans_that_overflow_take_the_hash_layout() {
    let mut c = Catalog::new();
    let build = [i64::MIN, i64::MAX, 0, i64::MIN + 1, i64::MAX, -1];
    let probe = [i64::MAX, i64::MIN, 7, 0, i64::MAX - 1, -1, i64::MIN];
    let (b, p) = (
        keyed(&mut c, "AB", ints(&build)),
        keyed(&mut c, "BC", ints(&probe)),
    );
    check(&b, &p, "hash", "i64::MIN..=i64::MAX");
    // Half the range: the span fits a `u64` but not the byte rule.
    let build = [0, i64::MAX, 1, i64::MAX];
    let probe = [i64::MAX, 1, 2, 0];
    let (b, p) = (
        keyed(&mut c, "AB", ints(&build)),
        keyed(&mut c, "BC", ints(&probe)),
    );
    check(&b, &p, "hash", "0..=i64::MAX");
}

#[test]
fn interned_probe_columns_mixing_strings_and_integers() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut c = Catalog::new();
    let build: Vec<i64> = (0..400).map(|_| rng.gen_range(-20..80)).collect();
    let probe: Vec<Option<i64>> = (0..700)
        .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range(-40..120)))
        .collect();
    let b = keyed(&mut c, "AB", ints(&build));
    let p = keyed(&mut c, "BC", mixed(&probe));
    assert!(p.columns()[0].is_interned());
    check(&b, &p, "dense", "mixed probe column");
    // A probe column of strings only, and one gathered from a larger pool.
    let strings = keyed(&mut c, "BC", mixed(&[None; 9]));
    check(&b, &strings, "dense", "string probe column");
    let sel: Vec<u32> = (0..700).step_by(3).collect();
    let gathered = keyed(&mut c, "BC", mixed(&probe).gather(&sel));
    check(&b, &gathered, "dense", "gathered probe column");
    // An interned build column keeps the hash layout.
    let interned = keyed(&mut c, "AB", mixed(&probe));
    check(
        &interned,
        &keyed(&mut c, "BC", ints(&build)),
        "hash",
        "interned build",
    );
}

#[test]
fn empty_sides() {
    let mut c = Catalog::new();
    let some = [3, 1, 4, 1, 5];
    let (b, p) = (
        keyed(&mut c, "AB", ints(&some)),
        keyed(&mut c, "BC", ints(&[])),
    );
    check(&b, &p, "dense", "empty probe");
    let (b, p) = (
        keyed(&mut c, "AB", ints(&[])),
        keyed(&mut c, "BC", ints(&some)),
    );
    check(&b, &p, "dense", "empty build");
}

/// The dense layout takes `4·(span + 2) + 4·rows` bytes and is built when
/// that is at most the hash layout's heap for as many rows: one below, at
/// and one above that span.
#[test]
fn spans_around_the_byte_rule() {
    let mut c = Catalog::new();
    for rows in [2usize, 5, 64, 1000, 5000] {
        let hash_bytes = RawTable::heap_bytes_for(rows);
        let limit = (hash_bytes / 4 - 2 - rows) as i64;
        for (width, layout) in [(limit - 1, "dense"), (limit, "dense"), (limit + 1, "hash")] {
            // Keys from -7 to -7 + width, the rest spread between.
            let keys: Vec<i64> = (0..rows as i64)
                .map(|i| match i {
                    0 => -7,
                    1 => width - 7,
                    _ => (i * 7919) % (width + 1) - 7,
                })
                .collect();
            let probe: Vec<i64> = (-9..width - 4).step_by(width as usize / 50 + 1).collect();
            let probe: Vec<i64> = probe.into_iter().chain([width - 7, width - 6]).collect();
            let (b, p) = (
                keyed(&mut c, "AB", ints(&keys)),
                keyed(&mut c, "BC", ints(&probe)),
            );
            let what = format!("{rows} rows, span {width}");
            check(&b, &p, layout, &what);
            let index = JoinIndex::build(Arc::new(b), vec![1]);
            assert!(index.heap_bytes() <= hash_bytes, "{what}: heap bytes");
            if layout == "dense" {
                assert_eq!(
                    index.heap_bytes(),
                    4 * (width as usize + 2 + rows),
                    "{what}"
                );
            }
        }
    }
}
