//! Semijoin (`⋉`), the reducer used by Algorithm 2 and by full reducers.

use super::JoinIndex;
use crate::relation::Relation;
use std::sync::Arc;

/// Semijoin `left ⋉ right`: the tuples of `left` that join with at least one
/// tuple of `right`. Equivalently `π_{scheme(left)}(left ⋈ right)`.
///
/// The result schema is `left`'s schema — a semijoin statement in a program
/// never widens the head's scheme (§2.2). When the schemas are disjoint the
/// definition degenerates to `left` if `right` is nonempty and the empty
/// relation otherwise. Otherwise `right` is indexed on the shared attributes
/// and `left` probes it, keeping its rows in order.
pub fn semijoin(left: &Relation, right: &Relation) -> Relation {
    let (rpos, _) = super::join_key_positions(right.schema(), left.schema());
    if rpos.is_empty() {
        return if right.is_empty() {
            Relation::empty(left.schema().clone())
        } else {
            left.clone()
        };
    }
    JoinIndex::build(Arc::new(right.clone()), rpos)
        .semijoin(left, 1, 0)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::ops::{join, project};
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
