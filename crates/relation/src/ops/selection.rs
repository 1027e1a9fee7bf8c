//! Selected semijoin answers: `R ⋉ S` kept as `R`'s dense key groups and
//! the keys that survive, instead of as its rows.
//!
//! A group semijoin ([`super::semijoin_grouped`]) tests each of `R`'s keys
//! once, and so knows its exact size — the rows of the surviving key
//! groups, `Σ starts[k + 1] − starts[k]` over the kept slots `k` of `R`'s
//! dense [`JoinIndex`] — before it has touched a row. A [`Selection`] holds
//! that index (which pins `R`), one mark per slot and the count, so a
//! caller that needs only the answer's size (a server's `run` reply) never
//! pays the pass over `R`'s key column and the gather of the kept rows.
//! [`Selection::materialize`] does both once, on demand: the rows, their
//! order and their columns' spans and widths are the eager group
//! semijoin's. (Not to be confused with [`super::select_where`] and its
//! kin, which filter rows by a predicate.)

use super::{columnar, JoinIndex};
use crate::column::{with_cells, IntCells};
use crate::relation::Relation;
use crate::schema::Schema;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The rows of `groups.relation()` whose key slot is marked; see the module
/// docs.
pub struct Selection {
    groups: Arc<JoinIndex>,
    keep: Vec<bool>,
    len: usize,
    rows: OnceLock<Relation>,
}

impl Selection {
    /// The `len` rows of the dense index `groups`' relation whose key slot
    /// is marked in `keep`.
    pub(crate) fn new(groups: Arc<JoinIndex>, keep: Vec<bool>, len: usize) -> Self {
        Selection {
            groups,
            keep,
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

    /// The answer's schema: the target's.
    pub fn schema(&self) -> &Schema {
        self.groups.relation().schema()
    }

    /// The bytes the selection holds beyond the target and its index, which
    /// it pins: one mark per key slot.
    pub(crate) fn resident_col_bytes(&self) -> usize {
        self.keep.len() * std::mem::size_of::<bool>()
    }

    /// The answer's rows, gathered on first use and kept: one pass over the
    /// target's key column for the ids of the marked slots' rows, in row
    /// order, then a gather at the target's spans and widths.
    pub fn materialize(&self) -> &Relation {
        self.rows.get_or_init(|| {
            let target = self.groups.relation();
            let mut sp = mjoin_trace::span("op", "semijoin");
            if sp.is_active() {
                sp.arg("left_rows", target.len());
                sp.arg("strategy", "gather");
            }
            let keys = self.groups.dense_keys();
            let ids = with_cells!(IntCells, keys.cells(), v => rows_kept(v, &self.keep, self.len));
            let out = columnar::gather_relation(target, &ids);
            sp.arg("out_rows", out.len());
            out
        })
    }
}

impl fmt::Debug for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Selection")
            .field("schema", self.schema())
            .field("len", &self.len)
            .field("slots", &self.keep.len())
            .finish_non_exhaustive()
    }
}

/// The `rows` rows whose cell — a dense index's slot — is marked in `keep`.
fn rows_kept<T: Copy + Into<u64>>(cells: &[T], keep: &[bool], rows: usize) -> Vec<u32> {
    let mut ids = Vec::with_capacity(rows);
    for (i, &c) in cells.iter().enumerate() {
        if keep[c.into() as usize] {
            ids.push(i as u32);
        }
    }
    debug_assert_eq!(ids.len(), rows);
    ids
}
