//! Selection (`σ`). Not used by the paper's algorithms themselves, but part
//! of any adoptable relational substrate and handy for building workloads.

use crate::attr::AttrId;
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::value::Value;

/// Select the tuples whose `attr` column equals `value`: scans exactly one
/// column and gathers the survivors.
pub fn select_eq(rel: &Relation, attr: AttrId, value: &Value) -> Result<Relation> {
    let pos = rel
        .schema()
        .position(attr)
        .ok_or_else(|| Error::AttributeNotInSchema(attr.to_string()))?;
    Ok(super::columnar::col_select_eq(rel, pos, value))
}

/// Select the tuples whose `a` and `b` columns hold equal values (what a
/// repeated variable in a query atom asks for): compares the two columns
/// cell by cell and gathers the survivors.
pub fn select_attrs_eq(rel: &Relation, a: AttrId, b: AttrId) -> Result<Relation> {
    let positions = rel.schema().positions_of(&[a, b])?;
    Ok(super::columnar::col_select_cols_eq(
        rel,
        positions[0],
        positions[1],
    ))
}

/// Select the tuples satisfying an arbitrary predicate over the whole row.
///
/// The predicate sees values in the relation's canonical column order (it is
/// fed a transient scratch tuple per row; the output is gathered from the
/// columns).
pub fn select_where(rel: &Relation, pred: impl Fn(&[Value]) -> bool) -> Relation {
    super::columnar::col_select_where(rel, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::schema::Schema;

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
    fn select_eq_filters() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[2, 10], &[3, 30]]);
        let b = c.lookup("B").unwrap();
        let s = select_eq(&r, b, &Value::Int(10)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.schema(), r.schema());
    }

    #[test]
    fn select_eq_unknown_attr_errors() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10]]);
        let z = c.intern("Z");
        assert!(select_eq(&r, z, &Value::Int(1)).is_err());
    }

    #[test]
    fn select_where_predicate() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "AB", &[&[1, 10], &[5, 2], &[7, 7]]);
        let s = select_where(&r, |row| {
            row[0].as_int().unwrap() > row[1].as_int().unwrap()
        });
        assert_eq!(s.len(), 1);
        assert!(s.contains_row(&[Value::Int(5), Value::Int(2)]));
    }

    /// Column equality agrees with the row predicate across column
    /// representations: an all-integer column against a mixed one, and two
    /// interned columns with separate dictionaries.
    #[test]
    fn select_attrs_eq_matches_select_where() {
        let mut c = Catalog::new();
        let schema = Schema::from_chars(&mut c, "ABC");
        let s = |t: &str| Value::str(t);
        let r = Relation::from_tuples(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(1), s("x")],
                vec![Value::Int(2), s("2"), s("2")],
                vec![Value::Int(3), s("x"), s("x")],
                vec![Value::Int(4), Value::Int(4), Value::Int(4)],
            ],
        )
        .unwrap();
        let ids = c.intern_chars("ABC");
        for (a, b) in [(0, 1), (1, 2), (2, 0), (1, 1)] {
            let got = select_attrs_eq(&r, ids[a], ids[b]).unwrap();
            assert_eq!(got, select_where(&r, |row| row[a] == row[b]), "{a} = {b}");
        }
        let z = c.intern("Z");
        assert!(select_attrs_eq(&r, ids[0], z).is_err());
    }

    #[test]
    fn selection_is_subset() {
        let mut c = Catalog::new();
        let r = rel(&mut c, "A", &[&[1], &[2], &[3]]);
        let s = select_where(&r, |_| true);
        assert_eq!(s, r);
        let none = select_where(&r, |_| false);
        assert!(none.is_empty());
    }
}
