//! Differential suite for factorized join answers ([`Product`]): random
//! many-to-many joins over integer, wide-integer, string and mixed columns
//! (hostile strings included), on one- and two-attribute keys, with keys
//! that only one side holds, under every canonical head order (the catalog
//! interns the attributes in each of their orders). Each join is left a
//! product in memory, indexed on either side, and spilled at 1, 2 and 4
//! partitions. Whichever operand leads the head, and on the orders where
//! neither does and the writer falls back to materializing, the product
//! must be the join it stands in for:
//!
//! - `len()` is the row count of the sort-based [`ops::merge_join`];
//! - `materialize()` holds the rows of the join the product replaced, in
//!   that join's order;
//! - [`tsv::write_product`] prints the bytes that [`tsv::write_sorted`]
//!   prints for the materialized rows and for the merge join's.

use mjoin_relation::ops::{self, JoinIndex, Product};
use mjoin_relation::{tsv, Answer, Catalog, Relation, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Operand schemes, in written letters; the shared letters are the key.
const SHAPES: [(&str, &str); 5] = [
    ("AK", "KCD"),
    ("AKL", "KLC"),
    ("K", "KC"),
    ("AK", "K"),
    ("ABK", "KC"),
];

/// Strings the TSV writer must escape or mark, and some it must not.
const HOSTILE: [&str; 10] = [
    "tab\there",
    "line\nbreak",
    "007",
    "",
    "  padded  ",
    "back\\slash",
    "-0",
    "cr\rhere",
    "x",
    "a string well past sixteen bytes",
];

/// A cell of `kind` — `i` small integers, `w` integers spread over the
/// whole `i64` range, `s` strings, `m` either — chosen by `idx`, so equal
/// indices give equal cells on both sides of a join.
fn cell(kind: u8, idx: i64) -> Value {
    match kind {
        b'i' => Value::Int(idx * 3 - 7),
        b'w' => Value::Int(match idx % 3 {
            0 => i64::MIN + idx,
            1 => i64::MAX - idx,
            _ => idx * 1_000_000_007,
        }),
        b's' => match idx as usize {
            i if i < HOSTILE.len() => Value::str(HOSTILE[i]),
            i => Value::str(format!("s{i}")),
        },
        _ if idx % 2 == 0 => Value::Int(idx),
        _ => cell(b's', idx),
    }
}

/// The attribute letters of both operands, once each, in written order.
fn letters(left: &str, right: &str) -> Vec<char> {
    let mut out: Vec<char> = left.chars().collect();
    out.extend(right.chars().filter(|c| !left.contains(*c)));
    out
}

/// Every ordering of `items`.
fn permutations(items: &[char]) -> Vec<Vec<char>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    (0..items.len())
        .flat_map(|i| {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            permutations(&rest).into_iter().map(move |mut p| {
                p.insert(0, first);
                p
            })
        })
        .collect()
}

/// A random relation over `scheme`: key letters draw their index from
/// `keys`, the others from a wider domain; `kinds` gives each letter's
/// cell kind.
fn random_rel(
    c: &mut Catalog,
    scheme: &str,
    key: &str,
    keys: std::ops::Range<i64>,
    kinds: &dyn Fn(char) -> u8,
    rng: &mut StdRng,
) -> Relation {
    let schema = Schema::from_chars(c, scheme);
    let ids = c.intern_chars(scheme);
    let n = rng.gen_range(1..40);
    let rows = (0..n)
        .map(|_| {
            let mut row = vec![Value::Int(0); ids.len()];
            for (ch, &id) in scheme.chars().zip(&ids) {
                let idx = match key.contains(ch) {
                    true => rng.gen_range(keys.clone()),
                    false => rng.gen_range(0..14),
                };
                row[schema.position(id).unwrap()] = cell(kinds(ch), idx);
            }
            row.into()
        })
        .collect();
    Relation::from_rows(schema, rows).unwrap()
}

fn tsv_of(c: &Catalog, rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    tsv::relation_to_tsv_writer(c, rel, &mut out).unwrap();
    out
}

/// `product` against the join it stands in for, whose rows in order are
/// `rows`, and against the merge join of `l` and `r`.
fn check(c: &Catalog, l: &Relation, r: &Relation, product: Product, rows: Vec<Row>, what: &str) {
    let reference = ops::merge_join(l, r);
    let want = tsv_of(c, &reference);
    let names: Vec<&str> = (product.schema().attrs().iter())
        .map(|&a| c.name(a))
        .collect();
    let mut got = Vec::new();
    tsv::write_product(&names, &product, &mut got).unwrap();
    assert!(
        got == want,
        "{what}: product TSV\n{}\nwant\n{}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
    assert_eq!(product.len(), reference.len(), "{what}: len");
    let answer = Answer::Product(Arc::new(product));
    assert_eq!(answer.len(), reference.len(), "{what}: answer len");
    let mut printed = Vec::new();
    tsv::answer_to_tsv_writer(c, &answer, &mut printed).unwrap();
    assert!(printed == want, "{what}: answer TSV");
    let rel: &Relation = &answer;
    assert_eq!(rel.len(), reference.len(), "{what}: materialized len");
    assert!(
        rel.rows() == rows,
        "{what}: materialized rows or their order"
    );
    assert!(tsv_of(c, rel) == want, "{what}: materialized TSV");
}

/// One random join of `left ⋈ right` under the attribute order `order`,
/// checked as every kind of product.
fn check_case(left: &str, right: &str, order: &[char], rng: &mut StdRng) {
    let mut c = Catalog::new();
    for ch in order {
        c.intern(&ch.to_string());
    }
    let key: String = left.chars().filter(|ch| right.contains(*ch)).collect();
    let kinds: Vec<(char, u8)> = order
        .iter()
        .map(|&ch| (ch, b"iwsm"[rng.gen_range(0..4usize)]))
        .collect();
    let kind = |ch: char| kinds.iter().find(|k| k.0 == ch).unwrap().1;
    // Keys 0 and 5 (of a one-letter key) are on one side only.
    let width = if key.len() == 1 { 5 } else { 3 };
    let l = random_rel(&mut c, left, &key, 0..width, &kind, rng);
    let r = random_rel(&mut c, right, &key, 1..width + 1, &kind, rng);
    let what = |mode: &str| format!("{left} ⋈ {right}, order {order:?}, kinds {kinds:?}, {mode}");

    let (index, probe) = JoinIndex::on_smaller(Arc::new(l.clone()), Arc::new(r.clone()));
    let product = Product::new(Arc::new(index), probe);
    check(
        &c,
        &l,
        &r,
        product,
        ops::join(&l, &r).rows(),
        &what("in memory"),
    );

    // The index on the larger side, as a cache hit may leave it.
    let (big, small) = if l.len() <= r.len() {
        (&r, &l)
    } else {
        (&l, &r)
    };
    let key_pos = ops::join_key_positions(big.schema(), small.schema()).0;
    let index = Arc::new(JoinIndex::build(Arc::new(big.clone()), key_pos));
    let rows = ops::par_join_indexed_cutoff(&index, small, 1, 0).rows();
    let product = Product::new(index, Arc::new(small.clone()));
    check(
        &c,
        &l,
        &r,
        product,
        rows,
        &what("indexed on the larger side"),
    );

    for p in [1, 2, 4] {
        let (product, stats) = ops::grace_hash_product(&l, &r, p).unwrap();
        let (joined, join_stats) = ops::grace_hash_join(&l, &r, p).unwrap();
        assert_eq!(stats, join_stats, "{}", what("spill stats"));
        check(
            &c,
            &l,
            &r,
            product,
            joined.rows(),
            &what(&format!("{p} partitions")),
        );
    }
}

#[test]
fn products_print_and_materialize_as_their_joins_under_every_head_order() {
    let mut rng = StdRng::seed_from_u64(0x5eed_f00d);
    for (left, right) in SHAPES {
        for order in permutations(&letters(left, right)) {
            for _ in 0..3 {
                check_case(left, right, &order, &mut rng);
            }
        }
    }
}

/// Every head order of the `chain_spill` shape — a 4-valued many-to-many
/// join, here of 200-row sides into 10,000 rows — in memory and spilled:
/// large enough that the reference writer radix sorts its keys.
#[test]
fn a_large_product_prints_as_its_join() {
    let n = 200i64;
    for order in permutations(&['A', 'B', 'C', 'D']) {
        let mut c = Catalog::new();
        for ch in &order {
            c.intern(&ch.to_string());
        }
        let (ab, bcd) = (
            Schema::from_chars(&mut c, "AB"),
            Schema::from_chars(&mut c, "BCD"),
        );
        let rows = |schema: &Schema, cells: &dyn Fn(i64) -> Vec<(char, i64)>| {
            let mut out = Vec::new();
            for i in 0..n {
                let mut row = vec![Value::Int(0); schema.arity()];
                for (ch, v) in cells(i) {
                    let id = c.lookup(&ch.to_string()).unwrap();
                    row[schema.position(id).unwrap()] = Value::Int(v);
                }
                out.push(row.into());
            }
            Relation::from_rows(schema.clone(), out).unwrap()
        };
        let l = rows(&ab, &|i| vec![('A', 700_123 + (i * 11) % n), ('B', i % 4)]);
        let r = rows(&bcd, &|i| {
            vec![('B', i % 4), ('C', 300_007 - i), ('D', i % 3)]
        });
        let what = format!("order {order:?}");
        for p in [1, 4] {
            let (product, _) = ops::grace_hash_product(&l, &r, p).unwrap();
            assert_eq!(product.len(), 10_000);
            let joined = ops::grace_hash_join(&l, &r, p).unwrap().0;
            check(
                &c,
                &l,
                &r,
                product,
                joined.rows(),
                &format!("{what}, {p} partitions"),
            );
        }
    }
}
