//! Relation schemas: ordered attribute lists with fast positional lookup.
//!
//! A relation scheme in the paper is a *set* of attributes. For storage we
//! need an order, so a [`Schema`] keeps its attributes sorted by [`AttrId`].
//! That canonical order means two relations over the same scheme always
//! agree on column positions, which lets the join operators splice tuples
//! positionally without any per-tuple name lookups.

use crate::attr::{AttrId, Catalog};
use crate::attrset::AttrSet;
use crate::error::{Error, Result};
use std::fmt;
use std::sync::Arc;

/// An ordered, deduplicated attribute list (sorted by [`AttrId`]).
///
/// Schemas are cheaply cloneable (`Arc` internally): join results share the
/// schema computation, and tuples never embed their schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Schema {
    attrs: Arc<[AttrId]>,
}

impl Schema {
    /// Build a schema from attribute ids; duplicates are removed and the ids
    /// are sorted into canonical order.
    pub fn new(mut ids: Vec<AttrId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Schema { attrs: ids.into() }
    }

    /// The empty schema (zero attributes). A relation over it is either the
    /// empty relation or the single nullary tuple — the two relational
    /// constants.
    pub fn empty() -> Self {
        Schema {
            attrs: Arc::from([]),
        }
    }

    /// Build a schema by interning one single-letter attribute per character,
    /// matching the paper's `ABC` notation.
    pub fn from_chars(catalog: &mut Catalog, s: &str) -> Self {
        Self::new(catalog.intern_chars(s))
    }

    /// Build a schema from an [`AttrSet`].
    pub fn from_set(set: &AttrSet) -> Self {
        // AttrSet already iterates in sorted order.
        Schema {
            attrs: set.to_vec().into(),
        }
    }

    /// The attributes, sorted.
    #[inline]
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Number of attributes (the arity of tuples over this schema).
    #[inline]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Whether `attr` belongs to the schema.
    pub fn contains(&self, attr: AttrId) -> bool {
        self.attrs.binary_search(&attr).is_ok()
    }

    /// Column position of `attr`, if present.
    pub fn position(&self, attr: AttrId) -> Option<usize> {
        self.attrs.binary_search(&attr).ok()
    }

    /// Column positions of every attribute in `attrs`, in the given order.
    ///
    /// Errors if any attribute is missing from the schema. Used to compile
    /// projections and join keys once per operator, not once per tuple.
    pub fn positions_of(&self, attrs: &[AttrId]) -> Result<Vec<usize>> {
        attrs
            .iter()
            .map(|&a| {
                self.position(a)
                    .ok_or_else(|| Error::AttributeNotInSchema(a.to_string()))
            })
            .collect()
    }

    /// The schema as an [`AttrSet`].
    pub fn to_set(&self) -> AttrSet {
        self.attrs.iter().copied().collect()
    }

    /// Union of two schemas (the scheme of a natural join result).
    pub fn union(&self, other: &Schema) -> Schema {
        let mut ids: Vec<AttrId> = Vec::with_capacity(self.arity() + other.arity());
        ids.extend_from_slice(&self.attrs);
        ids.extend_from_slice(&other.attrs);
        Schema::new(ids)
    }

    /// Intersection of two schemas (the natural-join key attributes).
    pub fn intersect(&self, other: &Schema) -> Schema {
        // Merge walk over two sorted lists.
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.attrs.len() && j < other.attrs.len() {
            match self.attrs[i].cmp(&other.attrs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.attrs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Schema { attrs: out.into() }
    }

    /// Attributes of `self` not in `other`.
    pub fn difference(&self, other: &Schema) -> Schema {
        let attrs: Vec<AttrId> = self
            .attrs
            .iter()
            .copied()
            .filter(|a| !other.contains(*a))
            .collect();
        Schema {
            attrs: attrs.into(),
        }
    }

    /// Whether the two schemas share no attributes — i.e. joining relations
    /// over them would be a Cartesian product.
    pub fn is_disjoint(&self, other: &Schema) -> bool {
        self.intersect(other).is_empty()
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &Schema) -> bool {
        self.attrs.iter().all(|&a| other.contains(a))
    }

    /// Render with attribute names from `catalog`, e.g. `ABC` for
    /// single-letter names or `{a,b,c}` otherwise.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> SchemaDisplay<'a> {
        SchemaDisplay {
            schema: self,
            catalog,
        }
    }
}

/// Helper returned by [`Schema::display`].
pub struct SchemaDisplay<'a> {
    schema: &'a Schema,
    catalog: &'a Catalog,
}

impl fmt::Display for SchemaDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self
            .schema
            .attrs()
            .iter()
            .map(|&a| self.catalog.name(a))
            .collect();
        if !names.is_empty() && names.iter().all(|n| n.chars().count() == 1) {
            for n in names {
                write!(f, "{n}")?;
            }
            Ok(())
        } else {
            write!(f, "{{{}}}", names.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (Catalog, Schema) {
        let mut c = Catalog::new();
        let s = Schema::from_chars(&mut c, "ABC");
        (c, s)
    }

    #[test]
    fn canonical_order_and_dedup() {
        let s = Schema::new(vec![AttrId(2), AttrId(0), AttrId(2), AttrId(1)]);
        assert_eq!(s.attrs(), &[AttrId(0), AttrId(1), AttrId(2)]);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn from_chars_and_display() {
        let (c, s) = abc();
        assert_eq!(s.display(&c).to_string(), "ABC");
        let mut c2 = c.clone();
        let multi = Schema::new(vec![c2.intern("id"), c2.intern("name")]);
        assert_eq!(multi.display(&c2).to_string(), "{id,name}");
        assert_eq!(Schema::empty().display(&c).to_string(), "{}");
    }

    #[test]
    fn positions() {
        let (_c, s) = abc();
        assert_eq!(s.position(AttrId(1)), Some(1));
        assert_eq!(s.position(AttrId(9)), None);
        assert_eq!(s.positions_of(&[AttrId(2), AttrId(0)]).unwrap(), vec![2, 0]);
        assert!(s.positions_of(&[AttrId(9)]).is_err());
    }

    #[test]
    fn set_operations() {
        let mut c = Catalog::new();
        let abc = Schema::from_chars(&mut c, "ABC");
        let cde = Schema::from_chars(&mut c, "CDE");
        let fg = Schema::from_chars(&mut c, "FG");
        assert_eq!(abc.union(&cde).display(&c).to_string(), "ABCDE");
        assert_eq!(abc.intersect(&cde).display(&c).to_string(), "C");
        assert_eq!(abc.difference(&cde).display(&c).to_string(), "AB");
        assert!(abc.is_disjoint(&fg));
        assert!(!abc.is_disjoint(&cde));
        assert!(Schema::from_chars(&mut c, "AB").is_subset(&abc));
        assert!(!abc.is_subset(&cde));
    }

    #[test]
    fn to_set_roundtrip() {
        let (_c, s) = abc();
        assert_eq!(Schema::from_set(&s.to_set()), s);
    }

    #[test]
    fn empty_schema() {
        let e = Schema::empty();
        assert!(e.is_empty());
        assert_eq!(e.arity(), 0);
        let (_c, s) = abc();
        assert!(e.is_subset(&s));
        assert!(e.is_disjoint(&s));
    }
}
