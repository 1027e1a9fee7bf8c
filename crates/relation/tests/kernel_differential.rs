//! Differential suite for the operator kernels: on random relations
//! (integer, string and mixed columns), sequentially and at 1/2/4/8 threads,
//! every join variant must equal the sort-based [`ops::merge_join`], and every
//! other operator a naive row-set reference written here over
//! [`Relation::rows`]. The references share no code with the kernels — a
//! kernel that drops or duplicates a row fails the comparison.

use mjoin_relation::ops::{self, JoinIndex, TrieIndex};
use mjoin_relation::{tsv, AttrId, Catalog, Column, Relation, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

type RowSet = BTreeSet<Row>;

fn row_set(rel: &Relation) -> RowSet {
    rel.rows().iter().cloned().collect()
}

/// `got` holds exactly the rows of `want` over `schema`, each once.
fn assert_rows(got: &Relation, schema: &Schema, want: &RowSet, what: &str) {
    assert_eq!(got.schema(), schema, "{what}: schema");
    assert_eq!(got.len(), want.len(), "{what}: tuple count");
    assert_eq!(got.rows().len(), got.len(), "{what}: row copy length");
    // Not `assert_eq!`: a failure would print both row sets in full.
    assert!(row_set(got) == *want, "{what}: rows differ");
}

fn key(row: &Row, pos: &[usize]) -> Vec<Value> {
    pos.iter().map(|&p| row[p].clone()).collect()
}

fn ref_semijoin(l: &Relation, r: &Relation) -> RowSet {
    let common = l.schema().intersect(r.schema());
    let lpos = l.schema().positions_of(common.attrs()).unwrap();
    let rpos = r.schema().positions_of(common.attrs()).unwrap();
    let keys: BTreeSet<Vec<Value>> = r.rows().iter().map(|row| key(row, &rpos)).collect();
    let keep = |row: &&Row| keys.contains(&key(row, &lpos));
    l.rows().iter().filter(keep).cloned().collect()
}

fn ref_project(rel: &Relation, out: &Schema) -> RowSet {
    let pos = rel.schema().positions_of(out.attrs()).unwrap();
    rel.rows().iter().map(|row| key(row, &pos).into()).collect()
}

fn ref_select(rel: &Relation, pred: impl Fn(&Row) -> bool) -> RowSet {
    rel.rows().iter().filter(|row| pred(row)).cloned().collect()
}

/// Rename by `(from, to)` pairs: each row's cells re-sorted into the new
/// schema's canonical order.
fn ref_rename(rel: &Relation, mapping: &[(AttrId, AttrId)]) -> (Schema, RowSet) {
    let to = |a: AttrId| mapping.iter().find(|m| m.0 == a).map_or(a, |m| m.1);
    let renamed: Vec<AttrId> = rel.schema().attrs().iter().map(|&a| to(a)).collect();
    let schema = Schema::new(renamed.clone());
    let rows = rel.rows().into_iter().map(|row| {
        let mut cells: Vec<(usize, Value)> = renamed
            .iter()
            .zip(row.iter())
            .map(|(&a, v)| (schema.position(a).unwrap(), v.clone()))
            .collect();
        cells.sort();
        cells.into_iter().map(|(_, v)| v).collect()
    });
    (schema.clone(), rows.collect())
}

/// A random relation over single-letter attributes. `kinds` gives, per
/// attribute in written order, `i` (small integers), `s` (strings from a
/// small alphabet) or `m` (integers and strings in one column); values are
/// drawn from `0..fanout`, so joins and dedup both fire often.
fn random_rel(
    c: &mut Catalog,
    scheme: &str,
    kinds: &str,
    rows: usize,
    fanout: i64,
    rng: &mut StdRng,
) -> Relation {
    let ids = c.intern_chars(scheme);
    let schema = Schema::new(ids.clone());
    let dest: Vec<usize> = ids
        .iter()
        .map(|&id| schema.position(id).expect("interned"))
        .collect();
    let mut out: Vec<Row> = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = vec![Value::Int(0); ids.len()];
        for (&d, kind) in dest.iter().zip(kinds.chars()) {
            let v = rng.gen_range(0..fanout);
            row[d] = match kind {
                's' => Value::str(format!("s{v}")),
                'm' if v % 2 == 1 => Value::str(v.to_string()),
                _ => Value::Int(v),
            };
        }
        out.push(row.into());
    }
    Relation::from_rows(schema, out).unwrap()
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Every join variant over `(l, r)` against `merge_join`.
fn check_joins(l: &Relation, r: &Relation, what: &str) {
    let reference = ops::merge_join(l, r);
    let (schema, want) = (reference.schema(), row_set(&reference));
    let check =
        |got: Relation, how: &str| assert_rows(&got, schema, &want, &format!("{what}: {how}"));
    check(ops::join(l, r), "join");
    check(ops::join(r, l), "join, swapped");
    assert_eq!(ops::join_count(l, r), want.len() as u64, "{what}: count");
    let (lkey, rkey) = ops::join_key_positions(l.schema(), r.schema());
    let on_l = JoinIndex::build(Arc::new(l.clone()), lkey);
    let on_r = JoinIndex::build(Arc::new(r.clone()), rkey);
    for t in THREADS {
        check(
            ops::par_join_indexed_cutoff(&on_l, r, t, 0),
            &format!("index on left t={t}"),
        );
        check(
            ops::par_join_indexed_cutoff(&on_r, l, t, 0),
            &format!("index on right t={t}"),
        );
    }
}

/// Every semijoin variant of `l ⋉ r` against the row-set reference.
fn check_semijoins(l: &Relation, r: &Relation, what: &str) {
    let want = ref_semijoin(l, r);
    assert_rows(&ops::semijoin(l, r), l.schema(), &want, what);
    let rkey = ops::join_key_positions(r.schema(), l.schema()).0;
    let on_r = JoinIndex::build(Arc::new(r.clone()), rkey);
    for t in THREADS {
        let indexed = ops::par_semijoin_indexed_cutoff(l, &on_r, t, 0);
        assert_rows(
            &indexed,
            l.schema(),
            &want,
            &format!("{what}: indexed t={t}"),
        );
    }
    let lkey = ops::join_key_positions(l.schema(), r.schema()).0;
    if !lkey.is_empty() {
        let on_l = Arc::new(JoinIndex::build(Arc::new(l.clone()), lkey));
        if let Some(grouped) = ops::semijoin_grouped(l, &on_l, &on_r) {
            assert_eq!(grouped.len(), want.len(), "{what}: grouped len");
            assert_rows(&grouped, l.schema(), &want, &format!("{what}: grouped"));
        }
    }
}

#[test]
fn joins_match_merge_join() {
    let mut rng = StdRng::seed_from_u64(0x10);
    for (seed, kinds) in ["ii", "is", "si", "ss", "mi", "im", "mm"]
        .iter()
        .enumerate()
    {
        let mut c = Catalog::new();
        // `B` is the join key: its kind is `kinds[1]` on the left and
        // `kinds[0]` on the right, so int, string and mixed keys all meet
        // (including an all-integer key column probing an interned one).
        let l = random_rel(&mut c, "AB", kinds, 700, 40, &mut rng);
        let r = random_rel(&mut c, "BC", kinds, 600, 40, &mut rng);
        check_joins(&l, &r, &format!("seed {seed} kinds {kinds}"));
    }
}

#[test]
fn cartesian_multikey_empty_and_nullary_joins() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut c = Catalog::new();
    let a = random_rel(&mut c, "A", "i", 90, 60, &mut rng);
    let b = random_rel(&mut c, "B", "s", 80, 60, &mut rng);
    check_joins(&a, &b, "cartesian");
    assert_eq!(ops::join(&a, &b).len(), a.len() * b.len());
    // Wide enough that a probe of the 3-row empty-key index (one bucket
    // chain) is cut into chunks at every thread count.
    let wide = random_rel(&mut c, "CX", "is", 5_000, 1 << 20, &mut rng);
    let narrow = random_rel(&mut c, "D", "i", 3, 1 << 20, &mut rng);
    assert!(wide.len() > 4_900 && narrow.len() == 3);
    check_joins(&wide, &narrow, "wide cartesian");

    let l = random_rel(&mut c, "ABX", "ism", 800, 12, &mut rng);
    let r = random_rel(&mut c, "ABY", "isi", 700, 12, &mut rng);
    check_joins(&l, &r, "two-attribute key");
    check_joins(&l, &l, "same schema (intersection)");

    let empty = Relation::empty(r.schema().clone());
    check_joins(&l, &empty, "empty right");
    check_joins(&empty, &l, "empty left");
    check_joins(&empty, &empty, "both empty");
    let unit = Relation::nullary_unit();
    check_joins(&l, &unit, "nullary unit");
    check_joins(&unit, &unit, "unit with unit");
    let none = Relation::empty(Schema::empty());
    check_joins(&l, &none, "nullary empty");
}

#[test]
fn semijoins_match_row_set_reference() {
    let mut rng = StdRng::seed_from_u64(11);
    for (seed, kinds) in ["ii", "si", "is", "mm"].iter().enumerate() {
        let mut c = Catalog::new();
        let l = random_rel(&mut c, "AB", "im", 900, 35, &mut rng);
        let r = random_rel(&mut c, "BC", kinds, 500, 35, &mut rng);
        check_semijoins(&l, &r, &format!("seed {seed} kinds {kinds}"));
        check_semijoins(&r, &l, &format!("seed {seed} kinds {kinds}, swapped"));
        check_semijoins(&l, &l, "same schema");
        // Disjoint schemas: all of `l` or none of it.
        let d = random_rel(&mut c, "XY", "ii", 50, 10, &mut rng);
        check_semijoins(&l, &d, "disjoint, nonempty filter");
        check_semijoins(
            &l,
            &Relation::empty(d.schema().clone()),
            "disjoint, empty filter",
        );
        check_semijoins(&l, &Relation::empty(r.schema().clone()), "empty filter");
        check_semijoins(&Relation::empty(l.schema().clone()), &r, "empty target");
        check_semijoins(&l, &Relation::nullary_unit(), "nullary filter");
    }
    // A filter that repeats one key 1,200 times: the index keeps every row
    // (its build does not dedup keys), and a semijoin probe stops at its
    // first match, so each target row survives once.
    let mut c = Catalog::new();
    let target = random_rel(&mut c, "AB", "ii", 900, 35, &mut rng);
    let rows: Vec<Row> = (0..1_200)
        .map(|i| vec![Value::Int(8), Value::Int(i)].into())
        .chain((0..5).map(|i| vec![Value::Int(20 + i), Value::str("x")].into()))
        .collect();
    let filter = Relation::from_rows(Schema::new(c.intern_chars("BC")), rows).unwrap();
    let want = ref_semijoin(&target, &filter);
    assert!(!want.is_empty() && want.len() < target.len());
    check_semijoins(&target, &filter, "filter key repeated 1200 times");
    check_semijoins(&filter, &target, "target key repeated 1200 times");
    check_joins(&target, &filter, "join on a key repeated 1200 times");
}

#[test]
fn projections_match_row_set_reference() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut c = Catalog::new();
    let r = random_rel(&mut c, "ABC", "ims", 1500, 9, &mut rng);
    let empty = Relation::empty(r.schema().clone());
    let (a, b, cc) = (
        c.lookup("A").unwrap(),
        c.lookup("B").unwrap(),
        c.lookup("C").unwrap(),
    );
    for attrs in [
        vec![a],
        vec![b],
        vec![a, cc],
        vec![cc, b],
        vec![a, b, cc],
        vec![],
    ] {
        let schema = Schema::new(attrs.clone());
        for rel in [&r, &empty] {
            let want = ref_project(rel, &schema);
            let what = format!("project {attrs:?} of {} rows", rel.len());
            assert_rows(&ops::project(rel, &attrs).unwrap(), &schema, &want, &what);
        }
    }
}

#[test]
fn select_setops_rename_match_row_set_reference() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut c = Catalog::new();
    let r = random_rel(&mut c, "AB", "im", 600, 8, &mut rng);
    let s = random_rel(&mut c, "AB", "is", 500, 8, &mut rng);
    let empty = Relation::empty(r.schema().clone());
    let (a, b) = (c.lookup("A").unwrap(), c.lookup("B").unwrap());
    let ab = r.schema();

    for (attr, pos, v) in [
        (a, 0, Value::Int(3)),
        (b, 1, Value::str("5")),
        (b, 1, Value::Int(4)),
        (a, 0, Value::str("absent")),
    ] {
        let want = ref_select(&r, |row| row[pos] == v);
        let got = ops::select_eq(&r, attr, &v).unwrap();
        assert_rows(&got, ab, &want, &format!("select_eq {v:?}"));
    }
    let pred = |row: &[Value]| row[0].as_int().unwrap() % 2 == 0 && row[1] != Value::Int(0);
    let want = ref_select(&r, |row| pred(row));
    assert_rows(&ops::select_where(&r, pred), ab, &want, "select_where");
    assert_rows(
        &ops::select_where(&r, |_| false),
        ab,
        &RowSet::new(),
        "select none",
    );

    for (l, r, what) in [
        (&r, &s, "r,s"),
        (&s, &r, "s,r"),
        (&r, &r, "r,r"),
        (&r, &empty, "r,∅"),
        (&empty, &r, "∅,r"),
    ] {
        let (ls, rs) = (row_set(l), row_set(r));
        let want: RowSet = ls.union(&rs).cloned().collect();
        assert_rows(
            &ops::union(l, r).unwrap(),
            ab,
            &want,
            &format!("union {what}"),
        );
        let want: RowSet = ls.difference(&rs).cloned().collect();
        assert_rows(
            &ops::difference(l, r).unwrap(),
            ab,
            &want,
            &format!("difference {what}"),
        );
        let want: RowSet = ls.intersection(&rs).cloned().collect();
        assert_rows(
            &ops::intersection(l, r).unwrap(),
            ab,
            &want,
            &format!("intersection {what}"),
        );
    }

    let z = c.intern("Z");
    // `[(a, z)]` moves column A behind B; `[(a, b), (b, z)]` shifts both.
    for mapping in [vec![(a, z)], vec![(b, z)], vec![(a, b), (b, z)], vec![]] {
        let (schema, want) = ref_rename(&r, &mapping);
        let got = ops::rename(&r, &mapping).unwrap();
        assert_rows(&got, &schema, &want, &format!("rename {mapping:?}"));
    }
    // A self-join through a column-reordering rename.
    let shifted = ops::rename(&r, &[(a, b), (b, z)]).unwrap();
    check_joins(&r, &shifted, "self-join via rename");
}

/// Integer spans at every cell-width edge: a single value, both sides of
/// the `u8`, `u16` and `u32` limits, and all of `i64`.
const EDGE_WIDTHS: [u64; 8] = [
    0,
    255,
    256,
    65_535,
    65_536,
    (1 << 32) - 1,
    1 << 32,
    u64::MAX,
];

/// A value inside every edge span, so columns of any two widths share keys.
const ANCHOR: i64 = 5;

/// `rows` distinct-by-id rows over `scheme` (an id attribute and a key
/// attribute, in written order): the key spans exactly `width`, starting
/// up to `below` under [`ANCHOR`], and repeats a few values around it.
fn edge_rel(
    c: &mut Catalog,
    scheme: &str,
    width: u64,
    below: u64,
    rows: usize,
    rng: &mut StdRng,
) -> Relation {
    let min = match width {
        u64::MAX => i64::MIN,
        _ => ANCHOR.saturating_sub_unsigned(below.min(width)),
    };
    let max = min.wrapping_add(width as i64);
    let near = [ANCHOR - 1, ANCHOR, ANCHOR + 1, ANCHOR + 2, min, max];
    let keys = (0..rows).map(|i| match i {
        0 => min,
        1 => max,
        _ if i % 3 == 0 => rng.gen_range(min..=max),
        _ => near[rng.gen_range(0..near.len())].clamp(min, max),
    });
    let ids = c.intern_chars(scheme);
    let schema = Schema::new(ids.clone());
    let rows: Vec<Row> = keys
        .enumerate()
        .map(|(i, key)| {
            let written = [Value::Int(i as i64 % 97), Value::Int(key)];
            let mut row = vec![Value::Int(0); 2];
            for (id, v) in ids.iter().zip(written) {
                row[schema.position(*id).unwrap()] = v;
            }
            row.into()
        })
        .collect();
    let rel = Relation::from_rows(schema, rows.clone()).unwrap();
    // The columns hold what went in: a cell written at too narrow a width
    // would read back as another value here, and nowhere else, since every
    // reference below reads the same columns.
    assert!(
        row_set(&rel) == rows.into_iter().collect(),
        "{scheme}: rows read back"
    );
    rel
}

/// `l ⋈ r` by [`ops::trie_join`] under [`ops::trie_plan`] against
/// `merge_join`.
fn check_trie_join(l: &Relation, r: &Relation, what: &str) {
    let reference = ops::merge_join(l, r);
    let (order, keys) = ops::trie_plan(&[l, r]);
    let tries: Vec<TrieIndex> = [l, r]
        .into_iter()
        .zip(keys)
        .map(|(rel, key)| TrieIndex::build(Arc::new(rel.clone()), key))
        .collect();
    let refs: Vec<&TrieIndex> = tries.iter().collect();
    let (got, stats) = ops::trie_join(&refs, &order, &mut || false).unwrap();
    let what = format!("{what}: trie_join");
    assert_rows(&got, reference.schema(), &row_set(&reference), &what);
    assert_eq!(stats.emitted, reference.len() as u64, "{what}: emitted");
}

/// Joins, semijoins, set operations and the trie join between integer
/// columns of every edge width, at different minimums, against the
/// references — each pair of widths meeting on a shared key, so the
/// kernels compare, seek and gather across cell types.
#[test]
fn integer_columns_at_every_width_edge() {
    let mut rng = StdRng::seed_from_u64(0xed6e);
    for (i, &lw) in EDGE_WIDTHS.iter().enumerate() {
        for &rw in &EDGE_WIDTHS[i..] {
            let mut c = Catalog::new();
            let what = format!("widths {lw} and {rw}");
            // Different minimums: the left key starts a third of its span
            // under the anchor, the right one at most 3 under it.
            let l = edge_rel(&mut c, "AB", lw, lw / 3, 300, &mut rng);
            let r = edge_rel(&mut c, "CB", rw, 3, 250, &mut rng);
            check_joins(&l, &r, &what);
            check_semijoins(&l, &r, &what);
            check_semijoins(&r, &l, &format!("{what}, swapped"));
            check_trie_join(&l, &r, &what);

            // Set operations over one schema, the key at the two widths.
            let s = edge_rel(&mut c, "AB", rw, 3, 250, &mut rng);
            let (ls, ss) = (row_set(&l), row_set(&s));
            let ab = l.schema();
            let union: RowSet = ls.union(&ss).cloned().collect();
            assert_rows(&ops::union(&l, &s).unwrap(), ab, &union, &what);
            let diff: RowSet = ls.difference(&ss).cloned().collect();
            assert_rows(&ops::difference(&l, &s).unwrap(), ab, &diff, &what);
            let both: RowSet = ls.intersection(&ss).cloned().collect();
            assert!(!both.is_empty(), "{what}: the anchor rows meet");
            let got = ops::intersection(&l, &s).unwrap();
            assert_rows(&got, ab, &both, &what);
        }
    }
}

/// `rel` projected onto `pos` through a [`JoinIndex`] on `pos` (whose
/// layout it returns) and through [`ops::project`], against the reference.
fn check_projection(rel: &Relation, pos: &[usize], what: &str) -> &'static str {
    let attrs: Vec<AttrId> = pos.iter().map(|&p| rel.schema().attrs()[p]).collect();
    let schema = Schema::new(attrs.clone());
    let want = ref_project(rel, &schema);
    let index = JoinIndex::build(Arc::new(rel.clone()), pos.to_vec());
    let what = format!("{what}: {} layout", index.layout());
    assert_rows(&ops::project_indexed(&index), &schema, &want, &what);
    assert_rows(&ops::project(rel, &attrs).unwrap(), &schema, &want, &what);
    index.layout()
}

/// Projections read the key groups of a dense index and of a hash index
/// alike: onto keys of every cell width, from negative minimums, and onto
/// multi-column, interned and empty keys.
#[test]
fn projections_through_dense_and_hash_indexes() {
    let mut rng = StdRng::seed_from_u64(0x9e0);
    for width in EDGE_WIDTHS {
        let mut c = Catalog::new();
        // Rows enough (about a third distinct) that the dense layout fits
        // every span up to `u16`'s.
        let rows = if width <= 256 { 300 } else { 48_000 };
        let rel = edge_rel(&mut c, "AB", width, width / 3, rows, &mut rng);
        let what = format!("width {width}");
        let dense = width <= 65_536;
        let layout = check_projection(&rel, &[1], &what);
        assert_eq!(layout == "dense", dense, "{what}: layout");
        check_projection(&rel, &[0], &format!("{what}, onto the id"));
    }
    let mut c = Catalog::new();
    let r = random_rel(&mut c, "ABC", "ims", 1_500, 9, &mut rng);
    assert_eq!(check_projection(&r, &[0, 2], "two columns"), "hash");
    assert_eq!(check_projection(&r, &[1], "interned"), "hash");
    assert_eq!(check_projection(&r, &[], "nullary"), "hash");
    let empty = Relation::empty(r.schema().clone());
    check_projection(&empty, &[0], "empty");
}

/// `target ⋉ filter` through a dense index over `target` against the
/// reference, with the filter indexed as it comes (dense or hash): the
/// result shares the target's columns exactly when every row survives.
fn check_group_semijoin(target: &Relation, filter: &Relation, what: &str) -> Relation {
    let (tkey, fkey) = ops::join_key_positions(target.schema(), filter.schema());
    let groups = Arc::new(JoinIndex::build(Arc::new(target.clone()), tkey));
    assert_eq!(groups.layout(), "dense", "{what}: target layout");
    let on_filter = JoinIndex::build(Arc::new(filter.clone()), fkey);
    let what = format!("{what}, {} filter", on_filter.layout());
    let got = ops::semijoin_grouped(target, &groups, &on_filter).expect("a dense index");
    let got = Relation::clone(&got);
    let want = ref_semijoin(target, filter);
    assert_rows(&got, target.schema(), &want, &what);
    let shared = (target.columns().iter().zip(got.columns())).all(|(t, g)| t.shares_payload(g));
    assert_eq!(shared, want.len() == target.len(), "{what}: sharing");
    got
}

/// A `BC` filter holding `keys` under `B` (numbered in `C`), plus a string
/// key when `interned`, which puts the filter's index on the hash layout.
fn filter_of(c: &mut Catalog, keys: impl Iterator<Item = i64>, interned: bool) -> Relation {
    let mut rows: Vec<Row> = keys
        .enumerate()
        .map(|(i, k)| vec![Value::Int(k), Value::Int(i as i64)].into())
        .collect();
    if interned {
        rows.push(vec![Value::str("x"), Value::Int(-1)].into());
    }
    Relation::from_rows(Schema::new(c.intern_chars("BC")), rows).unwrap()
}

/// The group semijoin against the reference over target keys of every
/// dense cell width from negative minimums: filters keeping every other
/// key, every key, and none (their span beside the target's), and a
/// gathered target whose stored span is looser than its keys.
#[test]
fn group_semijoins_match_row_set_reference() {
    let mut rng = StdRng::seed_from_u64(0x6e0);
    for width in EDGE_WIDTHS.into_iter().filter(|&w| w <= 65_536) {
        let mut c = Catalog::new();
        let rows = if width <= 256 { 300 } else { 48_000 };
        let target = edge_rel(&mut c, "AB", width, width / 3, rows, &mut rng);
        let keys: BTreeSet<i64> = (target.rows().iter())
            .map(|row| row[1].as_int().unwrap())
            .collect();
        let (min, max) = (*keys.first().unwrap(), *keys.last().unwrap());
        for interned in [false, true] {
            let what = format!("width {width}, min {min}");
            let every_other = keys.iter().copied().step_by(2).chain([max + 1, min - 1]);
            let filter = filter_of(&mut c, every_other, interned);
            let half = check_group_semijoin(&target, &filter, &format!("{what}: half"));
            assert!(keys.len() == 1 || half.len() < target.len(), "{what}: half");
            let filter = filter_of(&mut c, keys.iter().copied(), interned);
            check_group_semijoin(&target, &filter, &format!("{what}: every key"));
            let beside = filter_of(&mut c, max + 1..max + 50, interned);
            let none = check_group_semijoin(&target, &beside, &format!("{what}: none"));
            assert!(none.is_empty(), "{what}: none kept");

            // Keys strictly inside the span, gathered: the stored span
            // still runs from `min` to `max`.
            let inner = ops::select_where(&target, |row| {
                row[1] != Value::Int(min) && row[1] != Value::Int(max)
            });
            if !inner.is_empty() {
                let filter = filter_of(&mut c, keys.iter().copied().skip(1).step_by(3), interned);
                check_group_semijoin(&inner, &filter, &format!("{what}: loose span"));
            }
        }
    }
    // The hash layout has no group semijoin.
    let mut c = Catalog::new();
    let r = random_rel(&mut c, "AB", "is", 200, 9, &mut rng);
    let s = random_rel(&mut c, "BC", "si", 200, 9, &mut rng);
    let on_r = Arc::new(JoinIndex::build(Arc::new(r.clone()), vec![1]));
    let on_s = JoinIndex::build(Arc::new(s.clone()), vec![0]);
    assert_eq!(on_r.layout(), "hash");
    assert!(ops::semijoin_grouped(&r, &on_r, &on_s).is_none());
}

/// `got` is `want` row for row, in order, each integer column at `want`'s
/// stored span.
fn assert_same_gather(got: &Relation, want: &Relation, what: &str) {
    assert_eq!(got.schema(), want.schema(), "{what}: schema");
    assert!(got.rows() == want.rows(), "{what}: rows or their order");
    let span = |c: &Column| match c {
        Column::Int(c) => Some(c.span()),
        Column::Dict { .. } => None,
    };
    for (g, w) in got.columns().iter().zip(want.columns()) {
        assert_eq!(span(g), span(w), "{what}: column span");
    }
}

/// A group semijoin that drops keys is a selection: counted before it is
/// gathered, then gathered to the rows the row probe keeps — in order, at
/// the target's spans — and printed as those rows print. Target keys of
/// every edge width from negative minimums, under filters keeping every
/// other key, one key, none and all (the target itself, sharing its
/// columns); past `u16`'s span the target has no dense index, so no group
/// semijoin.
#[test]
fn selections_match_group_semijoins() {
    let mut rng = StdRng::seed_from_u64(0x5e1);
    for width in EDGE_WIDTHS {
        let mut c = Catalog::new();
        let rows = if width <= 256 { 300 } else { 48_000 };
        let target = edge_rel(&mut c, "AB", width, width / 3, rows, &mut rng);
        let groups = Arc::new(JoinIndex::build(Arc::new(target.clone()), vec![1]));
        let keys: Vec<i64> = (target.rows().iter())
            .map(|row| row[1].as_int().unwrap())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let (min, max) = (keys[0], keys[keys.len() - 1]);
        let what = format!("width {width}, min {min}");
        let kept_sets = [
            ("every other key", keys.iter().copied().step_by(2).collect()),
            ("one key", vec![keys[keys.len() / 2]]),
            ("none", vec![max.wrapping_add(1)]),
            ("every key", keys.clone()),
        ];
        for (kept, filter_keys) in kept_sets {
            let what = format!("{what}: {kept}");
            let filter = filter_of(&mut c, filter_keys.into_iter(), false);
            let on_filter = JoinIndex::build(Arc::new(filter), vec![0]);
            let Some(answer) = ops::semijoin_grouped(&target, &groups, &on_filter) else {
                assert!(width > 65_536, "{what}: no group semijoin");
                assert_eq!(groups.layout(), "hash", "{what}: target layout");
                continue;
            };
            let eager = ops::par_semijoin_indexed_cutoff(&target, &on_filter, 1, 0);
            let selected = eager.len() < target.len();
            let drops = kept == "none" || (keys.len() > 1 && kept != "every key");
            assert_eq!(selected, drops, "{what}: keys dropped");
            assert_eq!(answer.is_selection(), selected, "{what}: a selection");
            assert_eq!(answer.len(), eager.len(), "{what}: len before gathering");

            let mut printed = Vec::new();
            tsv::answer_to_tsv_writer(&c, &answer, &mut printed).unwrap();
            let names: Vec<&str> = (eager.schema().attrs().iter())
                .map(|&a| c.name(a))
                .collect();
            let cols: Vec<&Column> = eager.columns().iter().collect();
            let mut want = Vec::new();
            tsv::write_sorted(&names, &cols, eager.len(), &mut want).unwrap();
            assert!(printed == want, "{what}: printed TSV");

            let rel: &Relation = &answer;
            assert_eq!(rel.len(), answer.len(), "{what}: gathered len");
            assert_same_gather(rel, &eager, &what);
            let shared =
                (target.columns().iter().zip(rel.columns())).all(|(t, g)| t.shares_payload(g));
            assert_eq!(shared, !selected, "{what}: sharing");
        }
    }
}
