//! Semijoin (`⋉`), the reducer used by Algorithm 2 and by full reducers.

use super::columnar;
use crate::relation::Relation;

/// Semijoin `left ⋉ right`: the tuples of `left` that join with at least one
/// tuple of `right`. Equivalently `π_{scheme(left)}(left ⋈ right)`.
///
/// The result schema is `left`'s schema — a semijoin statement in a program
/// never widens the head's scheme (§2.2). When the schemas are disjoint the
/// definition degenerates to `left` if `right` is nonempty and the empty
/// relation otherwise.
pub fn semijoin(left: &Relation, right: &Relation) -> Relation {
    let common = left.schema().intersect(right.schema());
    if common.is_empty() {
        return if right.is_empty() {
            Relation::empty(left.schema().clone())
        } else {
            left.clone()
        };
    }
    let lpos = left
        .schema()
        .positions_of(common.attrs())
        .expect("common attrs in left");
    let rpos = right
        .schema()
        .positions_of(common.attrs())
        .expect("common attrs in right");

    columnar::col_semijoin(left, right, &lpos, &rpos, 1).0
}

/// Parallel semijoin on the shared pool: build the filter's key set once,
/// then probe chunks of `left` concurrently against it.
///
/// Unlike a join, a semijoin never combines tuples, so there is no need to
/// co-partition the two sides by key hash — a single read-only key set
/// shared by every probe task does the same work with no partitioning pass
/// over the (typically much larger) probed side. Chunks are contiguous
/// slices of `left`, so concatenating the per-chunk survivors reproduces
/// the sequential output order exactly.
///
/// Falls back to [`semijoin`] when both inputs are below `cutoff` rows, for
/// a single thread, or in the disjoint-schema degenerate case (which does no
/// per-tuple work).
pub fn par_semijoin_cutoff(
    left: &Relation,
    right: &Relation,
    threads: usize,
    cutoff: usize,
) -> Relation {
    let threads = threads.max(1);
    let mut sp = mjoin_trace::span("op", "semijoin");
    if sp.is_active() {
        sp.arg("left_rows", left.len());
        sp.arg("right_rows", right.len());
        sp.arg("threads", threads);
    }
    if threads == 1 || (left.len() < cutoff && right.len() < cutoff) {
        let out = semijoin(left, right);
        sp.arg("strategy", "sequential");
        sp.arg("out_rows", out.len());
        return out;
    }
    let common = left.schema().intersect(right.schema());
    if common.is_empty() {
        let out = semijoin(left, right);
        sp.arg("strategy", "disjoint");
        sp.arg("out_rows", out.len());
        return out;
    }
    let lpos = left
        .schema()
        .positions_of(common.attrs())
        .expect("common attrs in left");
    let rpos = right
        .schema()
        .positions_of(common.attrs())
        .expect("common attrs in right");

    let (out, keys) = columnar::col_semijoin(left, right, &lpos, &rpos, threads);
    sp.arg("strategy", "chunked_probe");
    sp.arg("build_keys", keys);
    sp.arg("out_rows", out.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::ops::{join, project, SMALL};
    use crate::schema::Schema;
    use crate::value::Value;

    fn rel(c: &mut Catalog, scheme: &str, tuples: &[&[i64]]) -> Relation {
        let schema = Schema::from_chars(c, scheme);
        Relation::from_tuples(
            schema,
            tuples
                .iter()
                .map(|t| t.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn filters_dangling_tuples() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 30]]);
        let s = rel(&mut c, "BC", &[&[10, 0], &[30, 0]]);
        let sj = semijoin(&r, &s);
        assert_eq!(sj.len(), 2);
        assert_eq!(sj.schema(), r.schema());
        assert!(sj.contains_row(&[Value::Int(1), Value::Int(10)]));
        assert!(sj.contains_row(&[Value::Int(3), Value::Int(30)]));
    }

    #[test]
    fn equals_projection_of_join() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 30]]);
        let s = rel(&mut c, "BC", &[&[10, 0], &[10, 1], &[30, 0]]);
        let via_join = project(&join(&r, &s), r.schema().attrs()).unwrap();
        assert_eq!(semijoin(&r, &s), via_join);
    }

    #[test]
    fn disjoint_nonempty_right_is_identity() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 2]]);
        let s = rel(&mut c, "CD", &[&[9, 9]]);
        assert_eq!(semijoin(&r, &s), r);
    }

    #[test]
    fn disjoint_empty_right_empties_left() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 2]]);
        let s = Relation::empty(Schema::from_chars(&mut c, "CD"));
        let sj = semijoin(&r, &s);
        assert!(sj.is_empty());
        assert_eq!(sj.schema(), r.schema());
    }

    #[test]
    fn idempotent() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20]]);
        let s = rel(&mut c, "BC", &[&[10, 5]]);
        let once = semijoin(&r, &s);
        let twice = semijoin(&once, &s);
        assert_eq!(once, twice);
    }

    #[test]
    fn par_semijoin_agrees_with_sequential() {
        let mut c = Catalog::new();
        let schema_l = Schema::from_chars(&mut c, "AB");
        let schema_r = Schema::from_chars(&mut c, "BC");
        let l = Relation::from_rows(
            schema_l,
            (0..6000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 700)].into())
                .collect(),
        )
        .unwrap();
        let r = Relation::from_rows(
            schema_r,
            (0..5000)
                .map(|i| vec![Value::Int(i % 350), Value::Int(i)].into())
                .collect(),
        )
        .unwrap();
        let seq = semijoin(&l, &r);
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                par_semijoin_cutoff(&l, &r, threads, SMALL),
                seq,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn par_semijoin_small_and_degenerate_fallbacks() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20]]);
        let s = rel(&mut c, "BC", &[&[10, 5]]);
        assert_eq!(par_semijoin_cutoff(&r, &s, 8, SMALL), semijoin(&r, &s));
        let disjoint = rel(&mut c, "DE", &[&[9, 9]]);
        assert_eq!(par_semijoin_cutoff(&r, &disjoint, 8, 0), r);
    }

    #[test]
    fn reduces_to_subset_of_left() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20]]);
        let s = rel(&mut c, "B", &[&[10], &[20], &[99]]);
        let sj = semijoin(&r, &s);
        assert_eq!(sj, r); // every left tuple matches
        for row in sj.rows() {
            assert!(r.contains_row(&row));
        }
    }
}
