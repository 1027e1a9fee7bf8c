//! Partitioned parallel hash join over [`crate::par_map`].
//!
//! Two strategies, chosen by build-side size:
//!
//! * **Shared-table chunked probe** (build side below [`SMALL`]): build the
//!   hash table once, sequentially, then probe contiguous chunks of the big
//!   side concurrently against the shared read-only table. No partitioning
//!   pass touches the probed side at all, so the per-tuple overhead versus
//!   the sequential join is essentially zero.
//! * **Radix-style co-partitioning** (both sides large): both inputs are
//!   partitioned by the hash of their natural-join key and the partitions
//!   are joined independently, parallelizing the *build* as well as the
//!   probe. Because partitions are key-disjoint, the union of the partition
//!   joins *is* the join, and the outputs are disjoint (no deduplication
//!   needed).
//!
//! Semantically both are identical to [`super::join`]; the test suite
//! checks them against each other.
//!
//! Partitioning is zero-copy: the partitions are `u32` row-id lists over the
//! shared key-hash vectors, and only the joined output columns are
//! materialized (one gather per column). Output row *order* is deterministic
//! for a given `threads` value (chunks/partitions are concatenated in index
//! order) but differs across thread counts; `Relation` equality is
//! order-blind.

use super::columnar;
use super::join::{join, join_key_positions};
use crate::relation::Relation;

/// Parallel natural join over `threads` partitions (clamped to ≥ 1).
///
/// Falls back to the sequential join when both inputs are below `cutoff`
/// rows (the partitioning overhead dominates below a few thousand rows;
/// the program interpreter passes [`crate::ops::SMALL`]);
/// Cartesian products (no key to partition on) always take the
/// chunked-probe path.
pub fn par_join_cutoff(
    left: &Relation,
    right: &Relation,
    threads: usize,
    cutoff: usize,
) -> Relation {
    let threads = threads.max(1);
    let mut sp = mjoin_trace::span("op", "join");
    if sp.is_active() {
        sp.arg("left_rows", left.len());
        sp.arg("right_rows", right.len());
        sp.arg("threads", threads);
    }
    if threads == 1 || (left.len() < cutoff && right.len() < cutoff) {
        let out = join(left, right);
        sp.arg("strategy", "sequential");
        sp.arg("out_rows", out.len());
        return out;
    }
    let (build, probe) = if left.len() <= right.len() {
        (left, right)
    } else {
        (right, left)
    };
    let (lkey, _) = join_key_positions(left.schema(), right.schema());
    if build.len() < cutoff || lkey.is_empty() {
        let out = columnar::col_join_chunked(build, probe, threads);
        sp.arg("strategy", "shared_build_probe");
        sp.arg("build_rows", build.len());
        sp.arg("probe_rows", probe.len());
        sp.arg("out_rows", out.len());
        return out;
    }

    let out = columnar::col_join_radix(left, right, threads);
    sp.arg("strategy", "radix_copartition");
    sp.arg("partitions", threads);
    sp.arg("out_rows", out.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::ops::SMALL;
    use crate::relation_of_ints;
    use crate::schema::Schema;
    use crate::value::Value;

    fn big(c: &mut Catalog, scheme: &str, n: i64, fanout: i64) -> Relation {
        let schema = Schema::from_chars(c, scheme);
        let rows = (0..n)
            .map(|i| vec![Value::Int(i % fanout), Value::Int(i)].into())
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn agrees_with_sequential_join_large() {
        let mut c = Catalog::new();
        let r = big(&mut c, "AB", 6000, 500);
        let s = big(&mut c, "AC", 6000, 500);
        let seq = join(&r, &s);
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                par_join_cutoff(&r, &s, threads, SMALL),
                seq,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn small_inputs_take_fallback() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[2, 5]]).unwrap();
        assert_eq!(par_join_cutoff(&r, &s, 8, SMALL), join(&r, &s));
    }

    #[test]
    fn explicit_cutoff_zero_forces_parallel_paths() {
        // Tiny inputs driven down the partitioned paths must still agree
        // with the sequential join.
        let mut c = Catalog::new();
        let r = big(&mut c, "AB", 300, 20);
        let s = big(&mut c, "AC", 200, 20);
        let seq = join(&r, &s);
        assert_eq!(par_join_cutoff(&r, &s, 4, 0), seq);
        // A huge cutoff forces the sequential path regardless of size.
        assert_eq!(par_join_cutoff(&r, &s, 4, usize::MAX), seq);
    }

    #[test]
    fn parallel_cartesian_product() {
        let mut c = Catalog::new();
        let schema_a = Schema::from_chars(&mut c, "A");
        let schema_b = Schema::from_chars(&mut c, "B");
        let r = Relation::from_rows(
            schema_a,
            (0..5000).map(|i| vec![Value::Int(i)].into()).collect(),
        )
        .unwrap();
        let s = Relation::from_rows(
            schema_b,
            (0..3).map(|i| vec![Value::Int(i)].into()).collect(),
        )
        .unwrap();
        let p = par_join_cutoff(&r, &s, 4, SMALL);
        assert_eq!(p.len(), 15000);
        assert_eq!(p, join(&r, &s));
    }

    #[test]
    fn empty_side() {
        let mut c = Catalog::new();
        let r = big(&mut c, "AB", 6000, 10);
        let empty = Relation::empty(Schema::from_chars(&mut c, "BC"));
        assert!(par_join_cutoff(&r, &empty, 4, SMALL).is_empty());
    }

    #[test]
    fn multi_attribute_key_agrees() {
        let mut c = Catalog::new();
        let schema_l = Schema::from_chars(&mut c, "ABX");
        let schema_r = Schema::from_chars(&mut c, "ABY");
        let mk = |schema: Schema, n: i64| {
            Relation::from_rows(
                schema,
                (0..n)
                    .map(|i| vec![Value::Int(i % 40), Value::Int(i % 70), Value::Int(i)].into())
                    .collect(),
            )
            .unwrap()
        };
        let l = mk(schema_l, 6000);
        let r = mk(schema_r, 5000);
        assert_eq!(par_join_cutoff(&l, &r, 4, SMALL), join(&l, &r));
    }
}
