//! Natural join (`⋈`), the paper's central operator.

use super::JoinIndex;
use crate::relation::Relation;
use crate::schema::Schema;
use std::sync::Arc;

/// The positions, in `left` and `right`, of their shared attributes (the
/// natural-join key), in the shared attributes' canonical order.
pub fn join_key_positions(left: &Schema, right: &Schema) -> (Vec<usize>, Vec<usize>) {
    let common = left.intersect(right);
    let lpos = left
        .positions_of(common.attrs())
        .expect("common attrs are in left schema");
    let rpos = right
        .positions_of(common.attrs())
        .expect("common attrs are in right schema");
    (lpos, rpos)
}

/// Natural join `left ⋈ right`.
///
/// If the schemas share no attributes this degenerates to the Cartesian
/// product — exactly the case the paper's CPF heuristic avoids, but which the
/// evaluator must still support in order to *cost* non-CPF join expressions
/// (e.g. the optimal expression of Example 3).
///
/// The output is a set without explicit deduplication: an output row
/// restricted to `left`'s attributes is the contributing left row and
/// likewise for `right`, so distinct input pairs produce distinct outputs.
///
/// Builds a [`JoinIndex`] on the smaller side, probes it with the other,
/// and late-materializes the output columns from selection vectors.
pub fn join(left: &Relation, right: &Relation) -> Relation {
    // A nullary operand is the join's identity (or annihilates it): share
    // the other side's columns instead of probing and gathering every row.
    for (unit, other) in [(left, right), (right, left)] {
        if unit.schema().arity() == 0 {
            return if unit.is_empty() {
                Relation::empty(left.schema().union(right.schema()))
            } else {
                other.clone()
            };
        }
    }
    let (index, probe) = JoinIndex::on_smaller(Arc::new(left.clone()), Arc::new(right.clone()));
    index.join(&probe, 1, 0).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::error::Result;
    use crate::value::Value;

    fn rel(c: &mut Catalog, scheme: &str, tuples: &[&[i64]]) -> Result<Relation> {
        let schema = Schema::from_chars(c, scheme);
        Relation::from_tuples(
            schema,
            tuples
                .iter()
                .map(|t| t.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
        )
    }

    #[test]
    fn join_on_shared_attribute() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20]]).unwrap();
        let s = rel(&mut c, "BC", &[&[10, 100], &[10, 101], &[30, 300]]).unwrap();
        let j = join(&r, &s);
        assert_eq!(j.schema().display(&c).to_string(), "ABC");
        assert_eq!(j.len(), 2);
        assert!(j.contains_row(&[Value::Int(1), Value::Int(10), Value::Int(100)]));
        assert!(j.contains_row(&[Value::Int(1), Value::Int(10), Value::Int(101)]));
    }

    #[test]
    fn join_is_commutative_as_sets() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 20], &[3, 20]]).unwrap();
        let s = rel(&mut c, "BC", &[&[20, 5], &[20, 6]]).unwrap();
        assert_eq!(join(&r, &s), join(&s, &r));
    }

    #[test]
    fn disjoint_schemas_yield_cartesian_product() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "A", &[&[1], &[2]]).unwrap();
        let s = rel(&mut c, "B", &[&[10], &[20], &[30]]).unwrap();
        let j = join(&r, &s);
        assert_eq!(j.len(), 6);
        assert_eq!(j.schema().display(&c).to_string(), "AB");
    }

    #[test]
    fn same_schema_join_is_intersection() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap();
        let s = rel(&mut c, "AB", &[&[3, 4], &[5, 6]]).unwrap();
        let j = join(&r, &s);
        assert_eq!(j.len(), 1);
        assert!(j.contains_row(&[Value::Int(3), Value::Int(4)]));
    }

    #[test]
    fn join_with_empty_is_empty() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 2]]).unwrap();
        let empty = Relation::empty(Schema::from_chars(&mut c, "BC"));
        assert!(join(&r, &empty).is_empty());
        assert!(join(&empty, &r).is_empty());
    }

    #[test]
    fn nullary_unit_is_identity() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap();
        let u = Relation::nullary_unit();
        assert_eq!(join(&r, &u), r);
        assert_eq!(join(&u, &r), r);
    }

    /// The identity is taken in the kernel: the result shares the other
    /// side's column payloads instead of gathering a copy of every row.
    #[test]
    fn nullary_unit_join_shares_columns() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap();
        let u = Relation::nullary_unit();
        for j in [join(&r, &u), join(&u, &r)] {
            assert_eq!(j, r);
            assert!(j.columns()[0].shares_payload(&r.columns()[0]));
        }
        let none = Relation::empty(Schema::empty());
        for j in [join(&r, &none), join(&none, &r)] {
            assert!(j.is_empty());
            assert_eq!(j.schema(), r.schema());
        }
    }

    #[test]
    fn multi_attribute_key() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "ABC", &[&[1, 2, 3], &[1, 2, 4], &[9, 9, 9]]).unwrap();
        let s = rel(&mut c, "BCD", &[&[2, 3, 7], &[2, 4, 8]]).unwrap();
        let j = join(&r, &s);
        assert_eq!(j.len(), 2);
        assert!(j.contains_row(&[Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(7)]));
    }

    #[test]
    fn build_side_choice_does_not_change_result() {
        let mut c = Catalog::new();
        // left bigger than right, then vice versa
        let big = rel(&mut c, "AB", &[&[1, 1], &[2, 1], &[3, 2], &[4, 2]]).unwrap();
        let small = rel(&mut c, "BC", &[&[1, 7]]).unwrap();
        let j1 = join(&big, &small);
        let j2 = join(&small, &big);
        assert_eq!(j1, j2);
        assert_eq!(j1.len(), 2);
    }
}
