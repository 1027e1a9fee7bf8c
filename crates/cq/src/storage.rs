//! Named relation storage for the query front end.
//!
//! A [`NamedDatabase`] maps predicate names to stored relations and — unlike
//! the bare [`Relation`], whose columns live in canonical attribute order —
//! remembers each relation's *declared* column order, which is what atom
//! terms bind to positionally.
//!
//! Relations that arrive as data — a TSV file ([`NamedDatabase::add_tsv`]) or
//! an already-built relation ([`NamedDatabase::add_shared`]) — are adopted
//! column-wise: parsed once, never copied row by row, never deduplicated a
//! second time. The `add_relation*` constructors take tuples in declared
//! column order, for callers that have them in hand (tests, examples), and
//! push them straight into columns.

use mjoin_relation::fxhash::FxHashMap;
use mjoin_relation::{ops, tsv, AttrId, Catalog, Error, Relation, Result, Schema, Value};
use std::io::BufRead;

/// One stored relation with its declared column order.
#[derive(Debug, Clone)]
pub struct StoredRelation {
    /// The predicate name.
    pub name: String,
    /// Column attributes in declared (not canonical) order.
    pub columns: Vec<AttrId>,
    /// The data.
    pub relation: Relation,
}

impl StoredRelation {
    /// Position of declared column `i` within the canonical schema.
    pub fn canonical_position(&self, i: usize) -> usize {
        self.relation
            .schema()
            .position(self.columns[i])
            .expect("declared columns are the schema")
    }
}

/// A named collection of stored relations sharing one attribute catalog.
#[derive(Debug, Clone, Default)]
pub struct NamedDatabase {
    catalog: Catalog,
    relations: Vec<StoredRelation>,
    index: FxHashMap<String, usize>,
}

impl NamedDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared attribute catalog (column names are interned here,
    /// qualified by relation name to keep same-named columns of different
    /// relations distinct).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Add a relation with named columns and integer tuples (values in
    /// declared column order).
    pub fn add_relation(
        &mut self,
        name: &str,
        column_names: &[&str],
        tuples: &[&[i64]],
    ) -> Result<()> {
        let rows: Vec<Vec<Value>> = tuples
            .iter()
            .map(|t| t.iter().map(|&v| Value::Int(v)).collect())
            .collect();
        self.add_relation_values(name, column_names, rows)
    }

    /// Add a relation with named columns and arbitrary values (in declared
    /// column order). The tuples become declared-order columns, adopted
    /// through [`NamedDatabase::add_shared`].
    pub fn add_relation_values(
        &mut self,
        name: &str,
        column_names: &[&str],
        tuples: Vec<Vec<Value>>,
    ) -> Result<()> {
        let relation = Relation::from_tuples(positional_schema(column_names.len()), tuples)?;
        self.add_shared(name, column_names, &relation)
    }

    /// Intern `name`'s declared columns, qualified by the relation name so
    /// `R.a` and `S.a` are unrelated attributes (joins come from query
    /// variables, not column-name coincidence).
    fn declare(&mut self, name: &str, column_names: &[&str]) -> Result<Vec<AttrId>> {
        if self.index.contains_key(name) {
            return Err(Error::Parse(format!("relation `{name}` already exists")));
        }
        let columns: Vec<AttrId> = column_names
            .iter()
            .map(|c| self.catalog.intern(&format!("{name}.{c}")))
            .collect();
        let mut sorted = columns.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != columns.len() {
            return Err(Error::Parse(format!(
                "relation `{name}` repeats a column name"
            )));
        }
        Ok(columns)
    }

    /// Adopt an already-built relation as predicate `name`, its attributes
    /// in canonical order declared as `column_names`. The tuples are not
    /// copied, re-deduplicated or re-interned: the stored relation shares
    /// the source's columns under an O(arity) attribute rename.
    pub fn add_shared(
        &mut self,
        name: &str,
        column_names: &[&str],
        relation: &Relation,
    ) -> Result<()> {
        if relation.schema().arity() != column_names.len() {
            return Err(Error::ArityMismatch {
                expected: relation.schema().arity(),
                got: column_names.len(),
            });
        }
        let columns = self.declare(name, column_names)?;
        let relation = adopt(&columns, relation)?;
        self.index.insert(name.to_string(), self.relations.len());
        self.relations.push(StoredRelation {
            name: name.to_string(),
            columns,
            relation,
        });
        Ok(())
    }

    /// Replace stored predicate `name`'s tuples with `relation`'s, whose
    /// attributes in canonical order map onto the declared columns — the
    /// O(arity) rename of [`NamedDatabase::add_shared`], on a name that
    /// already exists.
    pub(crate) fn replace_shared(&mut self, name: &str, relation: &Relation) -> Result<()> {
        let stored = &mut self.relations[self.index[name]];
        stored.relation = adopt(&stored.columns, relation)?;
        Ok(())
    }

    /// Add a relation from TSV text (header = declared column order). Thin
    /// wrapper over [`NamedDatabase::add_tsv_reader`].
    pub fn add_tsv(&mut self, name: &str, text: &str) -> Result<()> {
        self.add_tsv_reader(name, text.as_bytes())
    }

    /// Add a relation parsed from any [`BufRead`] source of TSV (header =
    /// declared column order). The input is parsed once, straight into
    /// columns, and adopted through [`NamedDatabase::add_shared`].
    pub fn add_tsv_reader<R: BufRead>(&mut self, name: &str, reader: R) -> Result<()> {
        // A scratch catalog interns the header left to right, so the parsed
        // relation's canonical column order is the declared one.
        let mut scratch = Catalog::new();
        let rel = tsv::relation_from_tsv_reader(&mut scratch, reader)?;
        let cols: Vec<&str> = rel
            .schema()
            .attrs()
            .iter()
            .map(|&a| scratch.name(a))
            .collect();
        self.add_shared(name, &cols, &rel)
    }

    /// Look up a stored relation by name.
    pub fn get(&self, name: &str) -> Option<&StoredRelation> {
        self.index.get(name).map(|&i| &self.relations[i])
    }

    /// All stored relations.
    pub fn relations(&self) -> &[StoredRelation] {
        &self.relations
    }
}

/// `relation` under the attributes `columns`, matched to its schema in
/// canonical order: the columns are shared, not copied.
fn adopt(columns: &[AttrId], relation: &Relation) -> Result<Relation> {
    let mapping: Vec<(AttrId, AttrId)> = relation
        .schema()
        .attrs()
        .iter()
        .copied()
        .zip(columns.iter().copied())
        .collect();
    ops::rename(relation, &mapping)
}

/// A schema of `arity` placeholder attributes whose canonical order is
/// their position, for relations built before their columns are named.
pub(crate) fn positional_schema(arity: usize) -> Schema {
    Schema::new((0..arity as u32).map(AttrId).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut db = NamedDatabase::new();
        db.add_relation("edge", &["src", "dst"], &[&[1, 2], &[2, 3]])
            .unwrap();
        let stored = db.get("edge").unwrap();
        assert_eq!(stored.relation.len(), 2);
        assert_eq!(stored.columns.len(), 2);
        assert!(db.get("missing").is_none());
    }

    #[test]
    fn declared_order_preserved() {
        let mut db = NamedDatabase::new();
        // Force canonical order ≠ declared order by declaring (b, a) after
        // interning is alphabetical-by-insertion anyway; check positions map.
        db.add_relation("r", &["b", "a"], &[&[10, 20]]).unwrap();
        let stored = db.get("r").unwrap();
        let p0 = stored.canonical_position(0); // column `b`
        let p1 = stored.canonical_position(1); // column `a`
        let row = &stored.relation.rows()[0];
        assert_eq!(row[p0], Value::Int(10));
        assert_eq!(row[p1], Value::Int(20));
    }

    #[test]
    fn same_column_name_in_two_relations_is_distinct() {
        let mut db = NamedDatabase::new();
        db.add_relation("r", &["a"], &[&[1]]).unwrap();
        db.add_relation("s", &["a"], &[&[2]]).unwrap();
        let ra = db.get("r").unwrap().columns[0];
        let sa = db.get("s").unwrap().columns[0];
        assert_ne!(ra, sa);
    }

    #[test]
    fn duplicate_names_and_bad_arity_rejected() {
        let mut db = NamedDatabase::new();
        db.add_relation("r", &["a"], &[&[1]]).unwrap();
        assert!(db.add_relation("r", &["a"], &[&[1]]).is_err());
        assert!(db.add_relation("s", &["a", "a"], &[&[1, 2]]).is_err());
        assert!(db.add_relation("t", &["a", "b"], &[&[1]]).is_err());
    }

    #[test]
    fn add_shared_adopts_a_relation_under_qualified_columns() {
        let mut cat = Catalog::new();
        let rel = mjoin_relation::relation_of_ints(&mut cat, "AB", &[&[1, 2], &[3, 4]]).unwrap();
        let mut db = NamedDatabase::new();
        db.add_relation("pad", &["x"], &[&[9]]).unwrap(); // shift the attr ids
        db.add_shared("e", &["A", "B"], &rel).unwrap();
        let stored = db.get("e").unwrap();
        assert_eq!(stored.relation.len(), 2);
        assert_eq!(db.catalog().name(stored.columns[1]), "e.B");
        let (a, b) = (stored.canonical_position(0), stored.canonical_position(1));
        assert!(stored
            .relation
            .rows()
            .iter()
            .any(|r| r[a] == Value::Int(3) && r[b] == Value::Int(4)));
        assert!(db.add_shared("e", &["A", "B"], &rel).is_err(), "name taken");
        assert!(db.add_shared("f", &["A"], &rel).is_err(), "arity");
    }

    #[test]
    fn tsv_import() {
        let mut db = NamedDatabase::new();
        db.add_tsv("people", "name\tage\nalice\t30\nbob\t40\n")
            .unwrap();
        let stored = db.get("people").unwrap();
        assert_eq!(stored.relation.len(), 2);
        let p_name = stored.canonical_position(0);
        let names: Vec<String> = stored
            .relation
            .sorted_rows()
            .iter()
            .map(|r| r[p_name].to_string())
            .collect();
        assert!(names.contains(&"alice".to_string()));
    }
}
