//! Projection (`π`), with set-semantics deduplication.

use super::columnar;
use crate::attr::AttrId;
use crate::error::Result;
use crate::relation::Relation;
use crate::schema::Schema;

/// Project `rel` onto `attrs` (which must all belong to `rel`'s schema),
/// deduplicating the result.
///
/// This implements the paper's project statement `R(U) := π_U R(S)` with the
/// requirement `U ⊆ S`; violating that is an error, not a silent extension.
pub fn project(rel: &Relation, attrs: &[AttrId]) -> Result<Relation> {
    let out_schema = Schema::new(attrs.to_vec());
    let positions = rel.schema().positions_of(out_schema.attrs())?;

    if out_schema == *rel.schema() {
        // Identity projection: nothing to do (rows are already distinct).
        return Ok(rel.clone());
    }

    let ids = columnar::col_project_sequential(rel, &positions);
    Ok(columnar::materialize_project(
        rel,
        &out_schema,
        &positions,
        &ids,
    ))
}

/// Parallel projection with partition-then-merge deduplication.
///
/// Input rows are partitioned by the hash of the *projected* values, so all
/// rows that project to the same tuple land in the same partition; each
/// partition projects and deduplicates independently on the shared pool, and
/// the merge step is plain concatenation (no cross-partition duplicates are
/// possible). Row order is unspecified but deterministic for a given
/// `threads` value; `Relation` equality is order-blind. Below `cutoff` rows,
/// or on a single thread, this is [`project`].
pub fn par_project_cutoff(
    rel: &Relation,
    attrs: &[AttrId],
    threads: usize,
    cutoff: usize,
) -> Result<Relation> {
    let threads = threads.max(1);
    let mut sp = mjoin_trace::span("op", "project");
    if sp.is_active() {
        sp.arg("in_rows", rel.len());
        sp.arg("threads", threads);
    }
    if threads == 1 || rel.len() < cutoff {
        let out = project(rel, attrs)?;
        sp.arg("strategy", "sequential");
        sp.arg("out_rows", out.len());
        sp.arg("dedup_dropped", rel.len().saturating_sub(out.len()));
        return Ok(out);
    }
    let out_schema = Schema::new(attrs.to_vec());
    let positions = rel.schema().positions_of(out_schema.attrs())?;

    if out_schema == *rel.schema() {
        // Identity projection: nothing to do (rows are already distinct).
        sp.arg("strategy", "identity");
        sp.arg("out_rows", rel.len());
        return Ok(rel.clone());
    }

    // Partition ids by projected-key hash (duplicates collide in one
    // partition), dedup each partition against the shared hash vector,
    // then gather the surviving ids in one pass.
    let hashes = columnar::key_hashes(rel, &positions);
    let cols = rel.columns();
    let parts = columnar::partition_ids(&hashes, threads);
    let partitions = parts.len();
    let kept = crate::par_map(parts, threads, |ids| {
        columnar::dedup_ids_by_key(cols, &positions, &hashes, ids.into_iter())
    });
    let ids: Vec<u32> = kept.into_iter().flatten().collect();
    let out = columnar::materialize_project(rel, &out_schema, &positions, &ids);
    sp.arg("strategy", "partitioned");
    sp.arg("partitions", partitions);
    sp.arg("out_rows", out.len());
    sp.arg("dedup_dropped", rel.len().saturating_sub(out.len()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::ops::SMALL;
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
    fn projects_and_dedups() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[1, 20], &[2, 10]]);
        let a = c.lookup("A").unwrap();
        let p = project(&r, &[a]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.schema().display(&c).to_string(), "A");
        assert!(p.contains_row(&[Value::Int(1)]));
        assert!(p.contains_row(&[Value::Int(2)]));
    }

    #[test]
    fn identity_projection() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20]]);
        let p = project(&r, r.schema().attrs()).unwrap();
        assert_eq!(p, r);
    }

    #[test]
    fn projection_to_empty_schema() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20]]);
        let p = project(&r, &[]).unwrap();
        // Nonempty relation projects to the nullary unit.
        assert_eq!(p.len(), 1);
        assert!(p.contains_row(&[]));
        let empty = Relation::empty(r.schema().clone());
        assert_eq!(project(&empty, &[]).unwrap().len(), 0);
    }

    #[test]
    fn unknown_attribute_errors() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10]]);
        let z = c.intern("Z");
        assert!(project(&r, &[z]).is_err());
    }

    #[test]
    fn column_order_is_canonical() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "ABC", &[&[1, 2, 3]]);
        let a = c.lookup("A").unwrap();
        let cc = c.lookup("C").unwrap();
        // Requesting [C, A] still yields canonical schema order AC.
        let p = project(&r, &[cc, a]).unwrap();
        assert_eq!(p.schema().display(&c).to_string(), "AC");
        assert!(p.contains_row(&[Value::Int(1), Value::Int(3)]));
    }

    #[test]
    fn par_project_agrees_with_sequential() {
        let mut c = Catalog::new();
        let schema = Schema::from_chars(&mut c, "ABC");
        let r = Relation::from_rows(
            schema,
            (0..8000)
                .map(|i| vec![Value::Int(i % 90), Value::Int(i % 130), Value::Int(i)].into())
                .collect(),
        )
        .unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let seq = project(&r, &[a, b]).unwrap();
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                par_project_cutoff(&r, &[a, b], threads, SMALL).unwrap(),
                seq,
                "threads = {threads}"
            );
        }
        // Identity and error paths mirror the sequential operator.
        assert_eq!(
            par_project_cutoff(&r, r.schema().attrs(), 4, SMALL).unwrap(),
            r
        );
        let z = c.intern("Z");
        assert!(par_project_cutoff(&r, &[z], 4, SMALL).is_err());
    }

    #[test]
    fn monotone_size() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 20]]);
        let b = c.lookup("B").unwrap();
        let p = project(&r, &[b]).unwrap();
        assert!(p.len() <= r.len());
        assert_eq!(p.len(), 2);
    }
}
