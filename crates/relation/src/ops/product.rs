//! Factorized join answers: `left ⋈ right` kept as its two operands,
//! grouped by key, instead of as its rows.
//!
//! A many-to-many join's answer can dwarf its operands: two 1,400-row
//! relations on a 4-valued key join into 490,000 rows. A [`Product`] holds
//! the operands instead — one pair in memory, or the Grace-hash partition
//! pairs read back from disk ([`super::grace_hash_product`]) — each pair as
//! the relation the join indexes (with the [`JoinIndex`] itself, in memory)
//! and the relation that probes it. Its length `Σ_k |L_k|·|R_k|` is counted
//! by that index when the product is built ([`JoinIndex::count`]), so no
//! answer row is enumerated.
//! [`crate::tsv::write_product`] prints it in sorted order without
//! materializing it, and [`Product::materialize`] gathers its rows once, on
//! demand, through the same indices and at the same widths as the join the
//! product stands in for.
//!
//! [`Answer`] is what an executor hands back, in one of three forms: its
//! rows; a product; or a [`Selection`], a group semijoin's surviving key
//! groups of its target, counted from the target's dense index and
//! gathered on demand. It dereferences to a [`Relation`] (materializing a
//! product or a selection the first time), so a caller that wants rows
//! reads it as one, and its `len()` counts without materializing.

use super::spill::{operand_spans, Gather};
use super::{join_key_positions, par_join_indexed_cutoff, JoinIndex, Selection, SMALL};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::span::IntSpan;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// `left ⋈ right`, unmaterialized; see the module docs.
pub struct Product {
    left: Schema,
    right: Schema,
    schema: Schema,
    parts: Parts,
    len: usize,
    rows: OnceLock<Relation>,
}

/// Where a product's pairs live, which decides how its rows are gathered.
enum Parts {
    /// The operands in memory: the rows are the in-memory join's.
    InMemory(Arc<JoinIndex>, Arc<Relation>),
    /// Key-disjoint partition pairs, each as the relation the Grace join
    /// indexes and the one that probes it: the rows are that join's, each
    /// output column written at its operand's span, each pair indexed in
    /// turn.
    Spilled {
        pairs: Vec<(Arc<Relation>, Arc<Relation>)>,
        spans: Vec<Option<IntSpan>>,
    },
}

impl Product {
    /// `index.relation() ⋈ probe`, the operands in memory, counted by one
    /// probe of `index`.
    pub fn new(index: Arc<JoinIndex>, probe: Arc<Relation>) -> Self {
        let len = index.count(&probe);
        let (left, right) = (index.relation().schema().clone(), probe.schema().clone());
        Product::of(left, right, Parts::InMemory(index, probe), len)
    }

    /// `left ⋈ right` as its Grace partition `pairs` — each the relation
    /// to index and the one to probe it — which make `len` rows.
    pub(crate) fn spilled(
        left: &Relation,
        right: &Relation,
        pairs: Vec<(Arc<Relation>, Arc<Relation>)>,
        len: usize,
    ) -> Self {
        let spans = operand_spans(left, right);
        let (l, r) = (left.schema().clone(), right.schema().clone());
        Product::of(l, r, Parts::Spilled { pairs, spans }, len)
    }

    fn of(left: Schema, right: Schema, parts: Parts, len: usize) -> Self {
        Product {
            schema: left.union(&right),
            left,
            right,
            parts,
            len,
            rows: OnceLock::new(),
        }
    }

    /// The number of answer rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the answer has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The answer's schema: both operands' attributes.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The two operands' schemas.
    pub(crate) fn operands(&self) -> (&Schema, &Schema) {
        (&self.left, &self.right)
    }

    /// The pairs, each as its two relations: the indexed one, then the
    /// probing one.
    pub(crate) fn pairs(&self) -> Vec<(&Relation, &Relation)> {
        match &self.parts {
            Parts::InMemory(index, probe) => vec![(index.relation(), probe)],
            Parts::Spilled { pairs, .. } => pairs
                .iter()
                .map(|(built, probe)| (&**built, &**probe))
                .collect(),
        }
    }

    /// The column bytes the product holds: its pairs' relations (each
    /// dictionary pool once per relation), not the rows they stand for.
    pub(crate) fn resident_col_bytes(&self) -> usize {
        let pairs = self.pairs().into_iter();
        pairs
            .map(|(built, probe)| built.resident_col_bytes() + probe.resident_col_bytes())
            .sum()
    }

    /// The answer's rows, gathered on first use and kept: the in-memory
    /// join's rows, or the Grace join's, through the product's own indices.
    pub fn materialize(&self) -> &Relation {
        self.rows.get_or_init(|| match &self.parts {
            Parts::InMemory(index, probe) => par_join_indexed_cutoff(index, probe, 1, SMALL),
            Parts::Spilled { pairs, spans } => {
                let mut out = Gather::new(&self.schema, spans);
                for (built, probe) in pairs {
                    let key = join_key_positions(built.schema(), probe.schema()).0;
                    out.pair(&JoinIndex::build(Arc::clone(built), key), probe);
                }
                out.finish()
            }
        })
    }
}

impl fmt::Debug for Product {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Product")
            .field("schema", &self.schema)
            .field("len", &self.len)
            .field("pairs", &self.pairs().len())
            .finish_non_exhaustive()
    }
}

/// An executor's answer: its rows, or a [`Product`] or a [`Selection`]
/// standing for them.
#[derive(Debug, Clone)]
pub enum Answer {
    /// The rows.
    Rows(Arc<Relation>),
    /// A join left factorized.
    Product(Arc<Product>),
    /// A group semijoin left as its target's surviving key groups.
    Selection(Arc<Selection>),
}

impl Answer {
    /// The number of answer rows (a product's or a selection's without
    /// materializing it).
    pub fn len(&self) -> usize {
        match self {
            Answer::Rows(rel) => rel.len(),
            Answer::Product(p) => p.len(),
            Answer::Selection(s) => s.len(),
        }
    }

    /// Whether the answer has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The answer's schema.
    pub fn schema(&self) -> &Schema {
        match self {
            Answer::Rows(rel) => rel.schema(),
            Answer::Product(p) => p.schema(),
            Answer::Selection(s) => s.schema(),
        }
    }

    /// Whether the answer is a product.
    pub fn is_factorized(&self) -> bool {
        matches!(self, Answer::Product(_))
    }

    /// Whether the answer is a selection.
    pub fn is_selection(&self) -> bool {
        matches!(self, Answer::Selection(_))
    }

    /// The column bytes the answer holds: a product's are its pairs'
    /// relations', a selection's its slot marks beyond the target it pins,
    /// not the rows they stand for.
    pub fn resident_col_bytes(&self) -> usize {
        match self {
            Answer::Rows(rel) => rel.resident_col_bytes(),
            Answer::Product(p) => p.resident_col_bytes(),
            Answer::Selection(s) => s.resident_col_bytes(),
        }
    }

    /// The rows as a shared relation: the rows' own `Arc`, or a product's
    /// or a selection's materialized rows in a new one. (Not `rows`, which
    /// would shadow [`Relation::rows`] on an answer.)
    pub fn relation(&self) -> Arc<Relation> {
        match self {
            Answer::Rows(rel) => Arc::clone(rel),
            Answer::Product(p) => Arc::new(p.materialize().clone()),
            Answer::Selection(s) => Arc::new(s.materialize().clone()),
        }
    }
}

impl Deref for Answer {
    type Target = Relation;

    /// The rows, a product's or a selection's materialized on first use.
    fn deref(&self) -> &Relation {
        match self {
            Answer::Rows(rel) => rel,
            Answer::Product(p) => p.materialize(),
            Answer::Selection(s) => s.materialize(),
        }
    }
}

/// Answers are equal when their rows are (as sets, like relations).
impl PartialEq for Answer {
    fn eq(&self, other: &Answer) -> bool {
        **self == **other
    }
}

impl From<Relation> for Answer {
    fn from(rel: Relation) -> Self {
        Answer::Rows(Arc::new(rel))
    }
}
