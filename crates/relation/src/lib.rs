//! `mjoin-relation` — the relational-algebra substrate for the `mjoin`
//! workspace, a reproduction of Morishita, *"Avoiding Cartesian Products in
//! Programs for Multiple Joins"* (PODS 1992).
//!
//! This crate provides everything the paper assumes of a relational engine:
//!
//! * [`Value`]s, interned attributes ([`Catalog`], [`AttrId`]), attribute
//!   bitsets ([`AttrSet`]) and canonical [`Schema`]s;
//! * set-semantics [`Relation`]s and [`Database`]s (assignments of relations
//!   to the occurrences of a database scheme);
//! * hash-based operators: natural [`join`](ops::join),
//!   [`semijoin`](ops::semijoin), [`project`](ops::project), selection and
//!   the set operations;
//! * the paper's tuple-count cost model as a [`CostLedger`];
//! * [`par_map`], the one way the workspace runs work in parallel;
//! * a tiny TSV loader for examples.
//!
//! Higher layers (join-expression trees, programs, the paper's Algorithms 1
//! and 2, optimizers, workloads) build on these types.

#![warn(missing_docs)]

pub mod attr;
pub mod attrset;
pub mod column;
pub mod cost;
pub mod database;
pub mod error;
pub mod fxhash;
pub mod ops;
mod par;
pub mod relation;
pub mod schema;
mod sortkey;
pub mod span;
pub mod tsv;
pub mod value;

pub use attr::{AttrId, Catalog};
pub use attrset::AttrSet;
pub use column::{Column, ColumnBuilder, Dict};
pub use cost::{CostEntry, CostKind, CostLedger};
pub use database::Database;
pub use error::{Error, Result};
pub use ops::Answer;
pub use par::par_map;
pub use relation::{Relation, Row};
pub use schema::Schema;
pub use span::IntSpan;
pub use value::Value;

/// Convenience: build a relation over single-letter attributes from integer
/// tuples, interning into `catalog`. Used pervasively by tests and examples.
///
/// Tuple values are given in the scheme's *written* order (`"CA"` means the
/// first value is `C`, the second `A`) and are permuted into the schema's
/// canonical order, so `relation_of_ints(c, "CA", &[&[3, 1]])` holds the
/// tuple with `C = 3, A = 1` no matter which id ordering the catalog chose.
pub fn relation_of_ints(
    catalog: &mut Catalog,
    scheme: &str,
    tuples: &[&[i64]],
) -> Result<Relation> {
    let written_ids = catalog.intern_chars(scheme);
    let schema = Schema::new(written_ids.clone());
    if written_ids.len() != schema.arity() {
        return Err(Error::Parse(format!(
            "scheme `{scheme}` repeats an attribute"
        )));
    }
    let dest: Vec<usize> = written_ids
        .iter()
        .map(|&id| schema.position(id).expect("interned above"))
        .collect();
    let mut builders: Vec<ColumnBuilder> = (0..dest.len())
        .map(|_| ColumnBuilder::with_capacity(tuples.len()))
        .collect();
    for t in tuples {
        if t.len() != dest.len() {
            return Err(Error::ArityMismatch {
                expected: dest.len(),
                got: t.len(),
            });
        }
        for (&p, &v) in dest.iter().zip(t.iter()) {
            builders[p].push_int(v);
        }
    }
    let cols = builders.into_iter().map(ColumnBuilder::finish).collect();
    Ok(Relation::from_columns(schema, tuples.len(), cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_of_ints_helper() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().display(&c).to_string(), "AB");
    }

    #[test]
    fn relation_of_ints_permutes_written_order() {
        let mut c = Catalog::new();
        c.intern_chars("ABC");
        // Written order CA; canonical order AC.
        let r = relation_of_ints(&mut c, "CA", &[&[3, 1]]).unwrap();
        assert!(r.contains_row(&[Value::Int(1), Value::Int(3)]));
    }

    #[test]
    fn relation_of_ints_rejects_bad_input() {
        let mut c = Catalog::new();
        assert!(relation_of_ints(&mut c, "AA", &[&[1, 2]]).is_err());
        assert!(relation_of_ints(&mut c, "AB", &[&[1]]).is_err());
    }
}
