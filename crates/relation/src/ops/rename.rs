//! Attribute renaming (`ρ`), completing the SPJR algebra.
//!
//! Natural join identifies columns by attribute identity, so renaming is how
//! a user points two relations' columns at each other (or apart). The
//! paper's algorithms never rename — their schemes are fixed — but a usable
//! relational substrate needs it (e.g. self-joins in the examples).

use crate::attr::AttrId;
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::Schema;

/// Rename attributes of `rel` according to `(from, to)` pairs.
///
/// Every `from` must be in the schema; attributes not mentioned are kept.
/// The resulting attribute set must not collapse two columns into one
/// (renaming is a bijection on the schema).
pub fn rename(rel: &Relation, mapping: &[(AttrId, AttrId)]) -> Result<Relation> {
    for (from, _) in mapping {
        if !rel.schema().contains(*from) {
            return Err(Error::AttributeNotInSchema(from.to_string()));
        }
    }
    let lookup = |a: AttrId| -> AttrId {
        mapping
            .iter()
            .find(|(from, _)| *from == a)
            .map_or(a, |&(_, to)| to)
    };
    let new_attrs: Vec<AttrId> = rel.schema().attrs().iter().map(|&a| lookup(a)).collect();
    let new_schema = Schema::new(new_attrs.clone());
    if new_schema.arity() != rel.schema().arity() {
        return Err(Error::Parse(
            "rename would merge two attributes into one".to_string(),
        ));
    }
    // Columns must be permuted into the new schema's canonical order.
    let perm: Vec<usize> = new_schema
        .attrs()
        .iter()
        .map(|&na| {
            new_attrs
                .iter()
                .position(|&x| x == na)
                .expect("bijective rename")
        })
        .collect();
    Ok(super::columnar::col_rename(rel, &new_schema, &perm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::ops::join;
    use crate::relation_of_ints;
    use crate::value::Value;

    #[test]
    fn rename_changes_schema_keeps_data() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap();
        let b = c.lookup("B").unwrap();
        let z = c.intern("Z");
        let renamed = rename(&r, &[(b, z)]).unwrap();
        assert_eq!(renamed.schema().display(&c).to_string(), "AZ");
        assert_eq!(renamed.len(), 2);
        assert!(renamed.contains_row(&[Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn rename_reorders_canonically() {
        let mut c = Catalog::new();
        // Rename A (id 0) to Z (a later id): column must move to the end.
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2]]).unwrap();
        let a = c.lookup("A").unwrap();
        let z = c.intern("Z");
        let renamed = rename(&r, &[(a, z)]).unwrap();
        assert_eq!(renamed.schema().display(&c).to_string(), "BZ");
        // Canonical order is now (B, Z) = (2, 1).
        assert!(renamed.contains_row(&[Value::Int(2), Value::Int(1)]));
    }

    #[test]
    fn self_join_via_rename() {
        // Edges E(A,B); compute 2-paths by joining E with ρ_{A→B,B→C}(E).
        let mut c = Catalog::new();
        let e = relation_of_ints(&mut c, "AB", &[&[1, 2], &[2, 3], &[3, 4]]).unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let cc = c.intern("C");
        let shifted = rename(&e, &[(a, b), (b, cc)]).unwrap();
        let paths = join(&e, &shifted);
        assert_eq!(paths.len(), 2); // 1→2→3 and 2→3→4
        assert!(paths.contains_row(&[Value::Int(1), Value::Int(2), Value::Int(3)]));
    }

    #[test]
    fn swap_two_attributes() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2]]).unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let swapped = rename(&r, &[(a, b), (b, a)]).unwrap();
        assert_eq!(swapped.schema(), r.schema());
        assert!(swapped.contains_row(&[Value::Int(2), Value::Int(1)]));
    }

    #[test]
    fn errors() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2]]).unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let z = c.intern("Z");
        // Unknown source attribute.
        assert!(rename(&r, &[(z, a)]).is_err());
        // Collapsing A onto B.
        assert!(rename(&r, &[(a, b)]).is_err());
    }
}
