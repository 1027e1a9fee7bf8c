//! Projection (`π`), with set-semantics deduplication.
//!
//! A projection is a grouping: the rows of `π_Y R` are the keys of a
//! [`JoinIndex`] over `R` on `Y`, one per key group. [`project`] builds a
//! fresh index and reads its groups ([`project_indexed`]); the program
//! interpreter reads the groups of the index its cache holds for `R` on
//! `Y` — the one a join or semijoin on `Y` probes — and leaves the one it
//! builds there for them.

use super::{project_indexed, JoinIndex};
use crate::attr::AttrId;
use crate::error::Result;
use crate::relation::Relation;
use crate::schema::Schema;
use std::sync::Arc;

/// Project `rel` onto `attrs` (which must all belong to `rel`'s schema),
/// deduplicating the result: one row per key group of a [`JoinIndex`] over
/// `rel` on `attrs`, in key order when the index takes the dense layout and
/// in first-occurrence order otherwise.
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
    let index = JoinIndex::build(Arc::new(rel.clone()), positions);
    Ok(project_indexed(&index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
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
    fn monotone_size() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 20]]);
        let b = c.lookup("B").unwrap();
        let p = project(&r, &[b]).unwrap();
        assert!(p.len() <= r.len());
        assert_eq!(p.len(), 2);
    }
}
