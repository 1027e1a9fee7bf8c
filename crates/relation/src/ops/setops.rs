//! Set operations over relations with identical schemas.

use super::columnar;
use crate::error::{Error, Result};
use crate::relation::Relation;

fn require_same_schema(left: &Relation, right: &Relation) -> Result<()> {
    if left.schema() != right.schema() {
        return Err(Error::Parse(format!(
            "set operation requires identical schemas ({} vs {} attributes)",
            left.schema().arity(),
            right.schema().arity()
        )));
    }
    Ok(())
}

/// Set union `left ∪ right`.
pub fn union(left: &Relation, right: &Relation) -> Result<Relation> {
    require_same_schema(left, right)?;
    Ok(columnar::col_union(left, right))
}

/// Set difference `left − right`.
pub fn difference(left: &Relation, right: &Relation) -> Result<Relation> {
    require_same_schema(left, right)?;
    Ok(columnar::col_diff_inter(left, right, false))
}

/// Set intersection `left ∩ right`.
pub fn intersection(left: &Relation, right: &Relation) -> Result<Relation> {
    require_same_schema(left, right)?;
    Ok(columnar::col_diff_inter(left, right, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
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
    fn union_dedups() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 2], &[3, 4]]);
        let s = rel(&mut c, "AB", &[&[3, 4], &[5, 6]]);
        let u = union(&r, &s).unwrap();
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn difference_and_intersection() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 2], &[3, 4]]);
        let s = rel(&mut c, "AB", &[&[3, 4], &[5, 6]]);
        let d = difference(&r, &s).unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.contains_row(&[Value::Int(1), Value::Int(2)]));
        let i = intersection(&r, &s).unwrap();
        assert_eq!(i.len(), 1);
        assert!(i.contains_row(&[Value::Int(3), Value::Int(4)]));
    }

    #[test]
    fn schema_mismatch_errors() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 2]]);
        let s = rel(&mut c, "AC", &[&[1, 2]]);
        assert!(union(&r, &s).is_err());
        assert!(difference(&r, &s).is_err());
        assert!(intersection(&r, &s).is_err());
    }

    #[test]
    fn algebraic_identities() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "A", &[&[1], &[2]]);
        let empty = Relation::empty(r.schema().clone());
        assert_eq!(union(&r, &empty).unwrap(), r);
        assert_eq!(difference(&r, &empty).unwrap(), r);
        assert_eq!(intersection(&r, &empty).unwrap(), empty);
        assert_eq!(difference(&r, &r).unwrap(), empty);
        assert_eq!(intersection(&r, &r).unwrap(), r);
    }
}
