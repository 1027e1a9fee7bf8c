//! Sort-merge natural join: an alternative to the hash join with identical
//! semantics.
//!
//! The paper's cost model is implementation-agnostic ("when this cost is `n`
//! the cost of the actual best possible method is no more than
//! `O(n log n)`" — which is exactly sort-merge). Having two independent
//! implementations also gives the test suite a differential oracle: every
//! join computed both ways must agree.

use super::join::join_key_positions;
use crate::relation::{Relation, Row};
use crate::value::Value;
use std::cmp::Ordering;

/// Natural join via sort-merge. Produces the same relation as
/// [`super::join`] (hash join), in `O(n log n + output)`.
pub fn merge_join(left: &Relation, right: &Relation) -> Relation {
    let (lkey, rkey) = join_key_positions(left.schema(), right.schema());
    let out_schema = left.schema().union(right.schema());
    let (lrows, rrows) = (left.rows(), right.rows());

    if lkey.is_empty() {
        // Cartesian product: nothing to sort on.
        let mut rows: Vec<Row> = Vec::with_capacity(left.len() * right.len());
        let plan = splice_plan(left, right, &out_schema);
        for l in &lrows {
            for r in &rrows {
                rows.push(splice(l, r, &plan));
            }
        }
        return Relation::from_distinct_rows(out_schema, rows);
    }

    // Decorate-sort-undecorate: materialize each row's key once, instead of
    // re-collecting a fresh `Vec<Value>` on every comparison inside the sort
    // and again on every run-boundary probe of the merge loop (the old code
    // allocated O(n log n) transient keys; this allocates exactly n).
    let decorate = |rows: &[Row], positions: &[usize]| -> Vec<(Box<[Value]>, usize)> {
        let mut keyed: Vec<(Box<[Value]>, usize)> = rows
            .iter()
            .enumerate()
            .map(|(idx, row)| (positions.iter().map(|&p| row[p].clone()).collect(), idx))
            .collect();
        keyed.sort_unstable();
        keyed
    };
    let lkeyed = decorate(&lrows, &lkey);
    let rkeyed = decorate(&rrows, &rkey);

    let plan = splice_plan(left, right, &out_schema);
    let mut rows: Vec<Row> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lkeyed.len() && j < rkeyed.len() {
        let lk = &lkeyed[i].0;
        let rk = &rkeyed[j].0;
        match lk.cmp(rk) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Find the runs of equal keys on both sides.
                let i_end = (i..lkeyed.len())
                    .find(|&x| lkeyed[x].0 != *lk)
                    .unwrap_or(lkeyed.len());
                let j_end = (j..rkeyed.len())
                    .find(|&x| rkeyed[x].0 != *rk)
                    .unwrap_or(rkeyed.len());
                for (_, li) in &lkeyed[i..i_end] {
                    for (_, rj) in &rkeyed[j..j_end] {
                        rows.push(splice(&lrows[*li], &rrows[*rj], &plan));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Relation::from_distinct_rows(out_schema, rows)
}

/// For each output column: copy from the left row at position `p` (`Left(p)`)
/// or the right row (`Right(p)`).
enum Src {
    Left(usize),
    Right(usize),
}

fn splice_plan(left: &Relation, right: &Relation, out: &crate::schema::Schema) -> Vec<Src> {
    out.attrs()
        .iter()
        .map(|&a| match left.schema().position(a) {
            Some(p) => Src::Left(p),
            None => Src::Right(right.schema().position(a).expect("attr from one side")),
        })
        .collect()
}

fn splice(l: &Row, r: &Row, plan: &[Src]) -> Row {
    plan.iter()
        .map(|src| match *src {
            Src::Left(p) => l[p].clone(),
            Src::Right(p) => r[p].clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::ops::join;
    use crate::relation_of_ints;

    #[test]
    fn agrees_with_hash_join_on_examples() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 10]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[10, 7], &[10, 8], &[99, 9]]).unwrap();
        assert_eq!(merge_join(&r, &s), join(&r, &s));
    }

    #[test]
    fn cartesian_case() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "A", &[&[1], &[2]]).unwrap();
        let s = relation_of_ints(&mut c, "B", &[&[5], &[6], &[7]]).unwrap();
        let m = merge_join(&r, &s);
        assert_eq!(m.len(), 6);
        assert_eq!(m, join(&r, &s));
    }

    #[test]
    fn duplicate_key_runs() {
        let mut c = Catalog::new();
        // 3 left rows and 2 right rows share B = 1 → 6 outputs.
        let r = relation_of_ints(&mut c, "AB", &[&[1, 1], &[2, 1], &[3, 1], &[4, 9]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[1, 10], &[1, 11]]).unwrap();
        let m = merge_join(&r, &s);
        assert_eq!(m.len(), 6);
        assert_eq!(m, join(&r, &s));
    }

    #[test]
    fn empty_inputs() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2]]).unwrap();
        let empty = Relation::empty(r.schema().clone());
        assert!(merge_join(&r, &empty).is_empty());
        assert!(merge_join(&empty, &r).is_empty());
    }

    #[test]
    fn multi_attribute_keys() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "ABC", &[&[1, 2, 3], &[1, 2, 4], &[5, 5, 5]]).unwrap();
        let s = relation_of_ints(&mut c, "BCD", &[&[2, 3, 9], &[2, 4, 8], &[0, 0, 0]]).unwrap();
        assert_eq!(merge_join(&r, &s), join(&r, &s));
    }
}
