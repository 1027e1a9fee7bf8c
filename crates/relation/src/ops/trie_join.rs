//! The Generic Join elimination loop over [`TrieIndex`] views: one attribute
//! at a time, leapfrog-intersecting the current trie nodes of every relation
//! that mentions it (Ngo–Porat–Ré–Rudra; Veldhuizen's Leapfrog Triejoin).
//!
//! The loop is a columnar kernel like the ones in `ops/columnar.rs`:
//!
//! * **Typed seeks.** The value every participant must reach is hoisted out
//!   of its column once ([`Cell`]), and each seek translates it into the
//!   sought column's cell domain (its distance from that column's minimum)
//!   and gallops over one slice of `u8`…`u64` cells (or codes + pool)
//!   against it.
//! * **No allocation in the recursion.** Cursors, run ends and node ranges
//!   live in scratch sized once from the participants of every depth; a
//!   trie level's node range is indexed by `(trie, level)`, so descending
//!   writes the child's slot and returning restores nothing.
//! * **Late materialization.** Every depth owns a selection vector of row
//!   indices into its first participant's level column. Only the last depth
//!   pushes per tuple (a whole node at once when a single relation covers
//!   it); a prefix depth repeats its bound row up to the emitted count when
//!   its subtree returns. The output is one [`Column::gather`] per
//!   attribute — no row, no [`Value`] clone, no dedup (Generic Join emits
//!   each tuple once).
//!
//! The same recursion serves two sinks: [`trie_join`] gathers columns,
//! [`trie_join_count`] only sums what the last depth would have emitted.
//! [`trie_plan`] is the policy every caller shares — the elimination order
//! and the trie levels that follow it — so the executor (`wcoj_join` beside
//! `mjoin_core::engine`, with its cache, cancellation and trace) and the
//! exact planner's [`generic_join_count`] eliminate the same way.

use super::trie::TrieIndex;
use crate::attr::AttrId;
use crate::column::{with_cells, Column, IntCells};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;
use std::sync::Arc;

/// Work counts of one elimination, accumulated in locals and reported once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrieJoinStats {
    /// Attribute loops entered (one per trie-node combination visited).
    pub attr_loops: u64,
    /// Leapfrog seeks performed.
    pub seeks: u64,
    /// Tuples emitted — the size of the join.
    pub emitted: u64,
}

/// The elimination was abandoned because the stop callback returned `true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped;

/// The natural join of the relations behind `tries`, over the union of
/// their attributes, eliminating attributes in `order`.
///
/// Every trie's levels must follow `order` (its attributes sorted by their
/// position in it) and `order` must list each attribute of the tries exactly
/// once. `stop` is polled once per value of the outermost attribute.
pub fn trie_join(
    tries: &[&TrieIndex],
    order: &[AttrId],
    stop: &mut dyn FnMut() -> bool,
) -> Result<(Relation, TrieJoinStats), Stopped> {
    let walk = eliminate(tries, order, true, stop)?;
    let schema = Schema::new(order.to_vec());
    let cols: Vec<Column> = schema
        .attrs()
        .iter()
        .map(|a| {
            let d = order.iter().position(|x| x == a).expect("attr of order");
            walk.parts[walk.first[d]].col.gather(&walk.sel[d])
        })
        .collect();
    let rows = walk.stats.emitted as usize;
    Ok((
        Relation::from_distinct_columns(schema, rows, cols),
        walk.stats,
    ))
}

/// `|⋈ tries|` by the same elimination as [`trie_join`], without touching a
/// selection vector.
pub fn trie_join_count(
    tries: &[&TrieIndex],
    order: &[AttrId],
    stop: &mut dyn FnMut() -> bool,
) -> Result<(u64, TrieJoinStats), Stopped> {
    let stats = eliminate(tries, order, false, stop)?.stats;
    Ok((stats.emitted, stats))
}

/// Generic Join's plan for the natural join of `rels`: the global
/// elimination order — most-covered attribute first (smaller intersections
/// early), attribute id as the tiebreak for determinism — and, per relation,
/// the key positions of the trie whose levels follow it, so that when the
/// loop reaches attribute `a` every covering relation's next unbound level
/// is exactly `a`.
pub fn trie_plan(rels: &[&Relation]) -> (Vec<AttrId>, Vec<Vec<usize>>) {
    let mut order: Vec<AttrId> = rels
        .iter()
        .flat_map(|r| r.schema().attrs().iter().copied())
        .collect();
    order.sort_unstable();
    order.dedup();
    let coverage = |a| rels.iter().filter(|r| r.schema().contains(a)).count();
    order.sort_by_key(|&a| (std::cmp::Reverse(coverage(a)), a));
    let keys = rels
        .iter()
        .map(|r| {
            order
                .iter()
                .filter_map(|&a| r.schema().position(a))
                .collect()
        })
        .collect();
    (order, keys)
}

/// `|⋈ rels|` by [`trie_join_count`] under [`trie_plan`], each trie built
/// on the spot: no cache, no stop, no trace — the count a planner asks for.
pub fn generic_join_count(rels: &[&Relation]) -> u64 {
    if rels.iter().any(|r| r.is_empty()) {
        return 0;
    }
    let (order, keys) = trie_plan(rels);
    let tries: Vec<TrieIndex> = rels
        .iter()
        .zip(keys)
        .map(|(&r, key)| TrieIndex::build(Arc::new(r.clone()), key))
        .collect();
    let tries: Vec<&TrieIndex> = tries.iter().collect();
    trie_join_count(&tries, &order, &mut || false)
        .expect("never stopped")
        .0
}

fn eliminate<'a>(
    tries: &[&'a TrieIndex],
    order: &[AttrId],
    collect: bool,
    stop: &mut dyn FnMut() -> bool,
) -> Result<Walk<'a>, Stopped> {
    let mut walk = Walk::new(tries, order, collect);
    if tries.iter().any(|t| t.tuples() == 0) {
        // An empty operand annihilates the join.
    } else if order.is_empty() {
        // All-nullary join of non-empty relations: the nullary tuple.
        walk.stats.emitted = 1;
    } else {
        walk.descend(0, stop)?;
    }
    Ok(walk)
}

/// One trie level taking part in the elimination of one attribute, with its
/// cursor scratch.
struct Part<'a> {
    col: &'a Column,
    /// Index into [`Walk::ranges`] of this level's current node; the child
    /// node it descends into goes to `slot + 1`.
    slot: usize,
    /// Innermost level of a trie over its relation's full schema: the
    /// relation is a set, so every run within a node has length one.
    unit_runs: bool,
    /// Cursor, end of the run at the cursor, and end of the node.
    cur: usize,
    end: usize,
    hi: usize,
}

struct Walk<'a> {
    /// Participants of every depth, flattened: depth `d` owns
    /// `parts[first[d]..first[d + 1]]`.
    parts: Vec<Part<'a>>,
    first: Vec<usize>,
    /// Current node `[lo, hi)` per `(trie, level)`.
    ranges: Vec<(usize, usize)>,
    /// Per depth, one row index into its first participant's level column
    /// for every emitted tuple. Stays empty when only counting.
    sel: Vec<Vec<u32>>,
    collect: bool,
    stats: TrieJoinStats,
}

impl<'a> Walk<'a> {
    fn new(tries: &[&'a TrieIndex], order: &[AttrId], collect: bool) -> Self {
        let mut ranges = Vec::new();
        let mut slot0 = Vec::with_capacity(tries.len());
        for t in tries {
            slot0.push(ranges.len());
            ranges.push((0, t.tuples()));
            ranges.resize(ranges.len() + t.depth(), (0, 0));
        }
        let mut bound = vec![0usize; tries.len()];
        let mut parts = Vec::new();
        let mut first = vec![0];
        for &a in order {
            for (ti, t) in tries.iter().enumerate() {
                let level = bound[ti];
                if level < t.depth() && t.level_attr(level) == a {
                    parts.push(Part {
                        col: &t.levels()[level],
                        slot: slot0[ti] + level,
                        unit_runs: level + 1 == t.depth()
                            && t.depth() == t.relation().schema().arity(),
                        cur: 0,
                        end: 0,
                        hi: 0,
                    });
                    bound[ti] += 1;
                }
            }
            assert!(
                parts.len() > first[first.len() - 1],
                "attribute {a:?} is on no trie's next level"
            );
            first.push(parts.len());
        }
        assert!(
            tries.iter().zip(&bound).all(|(t, &b)| b == t.depth()),
            "trie levels must follow the elimination order"
        );
        Walk {
            parts,
            first,
            ranges,
            sel: vec![Vec::new(); order.len()],
            collect,
            stats: TrieJoinStats::default(),
        }
    }

    /// Eliminate the attribute at `depth`: leapfrog-intersect the current
    /// nodes of its participants, and for each common value descend into the
    /// matching child nodes (or emit, at the last attribute).
    fn descend(&mut self, depth: usize, stop: &mut dyn FnMut() -> bool) -> Result<(), Stopped> {
        self.stats.attr_loops += 1;
        let (p0, p1) = (self.first[depth], self.first[depth + 1]);
        let last = depth + 2 == self.first.len();
        // Nodes are never empty: the roots are checked by `eliminate`, and a
        // child node is a run.
        for p in &mut self.parts[p0..p1] {
            (p.cur, p.hi) = self.ranges[p.slot];
        }
        if last && p1 - p0 == 1 && self.parts[p0].unit_runs {
            // One relation covers the last attribute: its whole node joins.
            let (lo, hi) = (self.parts[p0].cur, self.parts[p0].hi);
            self.stats.emitted += (hi - lo) as u64;
            if self.collect {
                self.sel[depth].extend(lo as u32..hi as u32);
            }
            return Ok(());
        }

        loop {
            // Leapfrog: seek the participants round-robin to the largest
            // cell seen until all of them sit on it.
            let mut max = Cell::of(self.parts[p0].col, self.parts[p0].cur);
            let (mut i, mut agree) = (p0, 1);
            while agree < p1 - p0 {
                i = if i + 1 == p1 { p0 } else { i + 1 };
                let p = &mut self.parts[i];
                p.cur = seek_ge(p.col, p.cur, p.hi, max);
                self.stats.seeks += 1;
                if p.cur == p.hi {
                    return Ok(());
                }
                let found = Cell::of(p.col, p.cur);
                if found == max {
                    agree += 1;
                } else {
                    (max, agree) = (found, 1);
                }
            }

            // Every participant agrees: the runs of that value are the
            // child nodes.
            for p in &mut self.parts[p0..p1] {
                p.end = if p.unit_runs {
                    p.cur + 1
                } else {
                    run_end(p.col, p.cur, p.hi)
                };
                self.ranges[p.slot + 1] = (p.cur, p.end);
            }
            let row = self.parts[p0].cur as u32;
            if last {
                self.stats.emitted += 1;
                if self.collect {
                    self.sel[depth].push(row);
                }
            } else {
                if depth == 0 && stop() {
                    return Err(Stopped);
                }
                self.descend(depth + 1, stop)?;
                if self.collect {
                    // Repeat the bound row once per tuple of the subtree.
                    self.sel[depth].resize(self.stats.emitted as usize, row);
                }
            }

            // Advance every participant past the consumed run.
            for p in &mut self.parts[p0..p1] {
                if p.end == p.hi {
                    return Ok(());
                }
                p.cur = p.end;
            }
        }
    }
}

/// A cell hoisted out of its column so seeks compare against a plain word
/// (or one string reference) instead of re-matching two columns per probe.
/// Integers held by a dictionary pool are `Int` too, which keeps a mixed
/// column comparable with a dense integer one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell<'a> {
    Int(i64),
    /// Always a [`Value::Str`].
    Str(&'a Value),
}

impl<'a> Cell<'a> {
    #[inline]
    fn of(col: &'a Column, i: usize) -> Self {
        match col {
            Column::Int(c) => Cell::Int(c.get(i)),
            Column::Dict { codes, dict } => match dict.value(codes[i]) {
                Value::Int(x) => Cell::Int(*x),
                s => Cell::Str(s),
            },
        }
    }
}

/// First row in `[lo, hi)` of the sorted range of `col` whose cell is `>=
/// target` under the global [`Value`] order; `hi` when every cell is
/// smaller.
#[inline]
fn seek_ge(col: &Column, lo: usize, hi: usize, target: Cell<'_>) -> usize {
    match (col, target) {
        (Column::Int(c), Cell::Int(x)) => {
            // In the cell domain: every cell is at least the minimum, so a
            // target at or below it is met at `lo`.
            let min = c.span().min;
            if x <= min {
                return lo;
            }
            let t = x.wrapping_sub(min) as u64;
            with_cells!(IntCells, c.cells(), v => gallop(lo, hi, |k| u64::from(v[k]) < t))
        }
        // Every integer sorts before every string.
        (Column::Int(_), Cell::Str(_)) => hi,
        (Column::Dict { codes, dict }, _) => {
            let int;
            let target = match target {
                Cell::Int(x) => {
                    int = Value::Int(x);
                    &int
                }
                Cell::Str(s) => s,
            };
            gallop(lo, hi, |k| dict.value(codes[k]) < target)
        }
    }
}

/// End of the run of cells equal to row `i` of `col` within `[i, hi)`: the
/// first index `> i` whose cell differs, by galloping (runs are usually
/// short).
#[inline]
fn run_end(col: &Column, i: usize, hi: usize) -> usize {
    match col {
        Column::Int(c) => with_cells!(IntCells, c.cells(), v => {
            let x = v[i];
            gallop(i + 1, hi, |k| v[k] == x)
        }),
        Column::Dict { codes, dict } => {
            let c = codes[i];
            gallop(i + 1, hi, |k| {
                codes[k] == c || dict.value(codes[k]) == dict.value(c)
            })
        }
    }
}

/// The first index in `[lo, hi)` where `pred` turns false, assuming `pred`
/// is monotone (true-prefix, false-suffix) on the range: exponential probe
/// from `lo`, then binary search within the bracketed window.
#[inline]
fn gallop(lo: usize, hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    if lo >= hi || !pred(lo) {
        return lo;
    }
    // Invariant: pred holds at `base - 1`.
    let mut step = 1usize;
    let mut base = lo + 1;
    while base < hi && pred(base) {
        base += step;
        step *= 2;
    }
    // Binary search in [base - step/2 .. min(base, hi)) — pred true below,
    // false at/after the answer.
    let (mut left, mut right) = (base - step / 2, base.min(hi));
    while left < right {
        let mid = left + (right - left) / 2;
        if pred(mid) {
            left = mid + 1;
        } else {
            right = mid;
        }
    }
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use crate::database::Database;
    use crate::relation::Row;
    use crate::relation_of_ints;
    use std::sync::Arc;

    fn never() -> impl FnMut() -> bool {
        || false
    }

    /// One trie per relation, levels sorted to follow `order`.
    fn tries_for(db: &Database, order: &[AttrId]) -> Vec<TrieIndex> {
        db.relations()
            .iter()
            .map(|rel| {
                let key_pos = order
                    .iter()
                    .filter_map(|&a| rel.schema().position(a))
                    .collect();
                TrieIndex::build(Arc::new(rel.clone()), key_pos)
            })
            .collect()
    }

    /// Join and count `db` in `order`; both sinks must agree with each other
    /// and with the binary-join fold.
    fn check(db: &Database, order: &[AttrId]) -> (Relation, TrieJoinStats) {
        let tries = tries_for(db, order);
        let refs: Vec<&TrieIndex> = tries.iter().collect();
        let (rel, stats) = trie_join(&refs, order, &mut never()).unwrap();
        assert_eq!(rel, db.join_all());
        assert_eq!(stats.emitted as usize, rel.len());
        assert_eq!(
            trie_join_count(&refs, order, &mut never()).unwrap(),
            (stats.emitted, stats),
            "counting walks the same nodes"
        );
        (rel, stats)
    }

    fn str_rel(c: &mut Catalog, scheme: &str, rows: &[&[Value]]) -> Relation {
        let rows: Vec<Row> = rows.iter().map(|r| r.to_vec().into()).collect();
        Relation::from_rows(Schema::from_chars(c, scheme), rows).unwrap()
    }

    #[test]
    fn typed_seek_and_run_end_on_integers() {
        let mut c = Catalog::new();
        let r =
            relation_of_ints(&mut c, "AB", &[&[1, 1], &[1, 2], &[1, 3], &[4, 1], &[6, 1]]).unwrap();
        let col = &r.columns()[0];
        assert_eq!(run_end(col, 0, 5), 3, "run of A=1");
        assert_eq!(run_end(col, 3, 5), 4, "run of A=4");
        assert_eq!(run_end(col, 0, 2), 2, "clipped to the node");
        let seek = |x| seek_ge(col, 0, 5, Cell::Int(x));
        assert_eq!(
            [seek(0), seek(1), seek(2), seek(5), seek(9)],
            [0, 0, 3, 4, 5]
        );
        assert_eq!(seek_ge(col, 4, 5, Cell::Int(1)), 4, "never moves backwards");
        let s = Value::str("a");
        assert_eq!(seek_ge(col, 0, 5, Cell::Str(&s)), 5, "ints before strings");
    }

    #[test]
    fn seeks_compare_values_across_pools_and_kinds() {
        let mut c = Catalog::new();
        let v = |s: &str| Value::str(s);
        // Sorted mixed column: ints, then strings; pool codes out of order.
        let r = str_rel(
            &mut c,
            "A",
            &[&[v("m")], &[Value::Int(7)], &[v("a")], &[Value::Int(-2)]],
        );
        let t = TrieIndex::build(Arc::new(r), vec![0]);
        let col = &t.levels()[0];
        assert_eq!(Cell::of(col, 1), Cell::Int(7), "pool ints hoist as ints");
        // A target from another pool, and one from a dense integer column.
        let other = str_rel(&mut c, "A", &[&[v("z")], &[v("m")], &[v("b")]]);
        let ocol = &other.columns()[0];
        assert_eq!(seek_ge(col, 0, 4, Cell::of(ocol, 1)), 3, "first >= \"m\"");
        assert!(Cell::of(col, 3) == Cell::of(ocol, 1), "equal across pools");
        assert_eq!(seek_ge(col, 0, 4, Cell::of(ocol, 2)), 3, "first >= \"b\"");
        assert_eq!(seek_ge(col, 0, 4, Cell::of(ocol, 0)), 4, "nothing >= \"z\"");
        assert_eq!(seek_ge(col, 0, 4, Cell::Int(0)), 1, "first >= 0");
        assert_eq!(run_end(col, 2, 4), 3);
    }

    #[test]
    fn triangle_matches_the_binary_fold() {
        let mut c = Catalog::new();
        let db = Database::from_relations(vec![
            relation_of_ints(&mut c, "AB", &[&[1, 2], &[1, 3], &[2, 3], &[4, 5]]).unwrap(),
            relation_of_ints(&mut c, "BC", &[&[2, 7], &[3, 7], &[3, 8], &[5, 6]]).unwrap(),
            relation_of_ints(&mut c, "AC", &[&[1, 7], &[1, 8], &[4, 6]]).unwrap(),
        ]);
        let abc: Vec<AttrId> = Schema::from_chars(&mut c, "ABC").attrs().to_vec();
        let (rel, stats) = check(&db, &abc);
        assert_eq!(rel.len(), 4, "(1,2,7), (1,3,7), (1,3,8), (4,5,6)");
        assert!(stats.seeks > 0 && stats.attr_loops > 0);
        // Any elimination order computes the same join.
        check(&db, &[abc[2], abc[0], abc[1]]);
    }

    /// The last attribute is covered by one relation, so whole nodes are
    /// appended at once and every prefix depth repeats its bound row.
    #[test]
    fn single_cover_last_attribute_appends_whole_nodes() {
        let mut c = Catalog::new();
        let db = Database::from_relations(vec![
            relation_of_ints(&mut c, "AB", &[&[1, 10], &[2, 10], &[3, 11], &[4, 12]]).unwrap(),
            relation_of_ints(
                &mut c,
                "BC",
                &[&[10, 20], &[10, 21], &[10, 22], &[11, 23], &[13, 24]],
            )
            .unwrap(),
        ]);
        let abc: Vec<AttrId> = Schema::from_chars(&mut c, "ABC").attrs().to_vec();
        let (rel, stats) = check(&db, &[abc[1], abc[0], abc[2]]);
        assert_eq!(
            rel.len(),
            7,
            "two A's × three C's under B=10, one under B=11"
        );
        assert_eq!(stats.seeks, 4, "only B is intersected");
        // A single relation is one node appended in one go.
        let one = Database::from_relations(vec![db.relation(1).clone()]);
        let (_, stats) = check(&one, &[abc[1], abc[2]]);
        assert_eq!((stats.seeks, stats.emitted), (0, 5));
    }

    #[test]
    fn strings_and_mixed_columns_join_by_value() {
        let mut c = Catalog::new();
        let (v, i) = (|s: &str| Value::str(s), Value::Int);
        let db = Database::from_relations(vec![
            // B is dense-integer here …
            relation_of_ints(&mut c, "AB", &[&[1, 5], &[2, 6], &[3, 7]]).unwrap(),
            // … and interned here, mixed with strings.
            str_rel(
                &mut c,
                "BC",
                &[
                    &[v("x"), v("p")],
                    &[i(7), v("q")],
                    &[i(5), v("p")],
                    &[i(5), i(9)],
                ],
            ),
            str_rel(&mut c, "C", &[&[v("q")], &[i(9)], &[v("p")], &[v("r")]]),
        ]);
        let abc: Vec<AttrId> = Schema::from_chars(&mut c, "ABC").attrs().to_vec();
        let (rel, _) = check(&db, &[abc[1], abc[2], abc[0]]);
        assert_eq!(rel.len(), 3);
        check(&db, &abc);
    }

    /// Tries over part of their schema have runs at the innermost level;
    /// the loop joins the projections without emitting a tuple twice.
    #[test]
    fn partial_key_tries_join_their_projections() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 1], &[1, 2], &[2, 1], &[3, 1]]).unwrap();
        let s = relation_of_ints(&mut c, "AC", &[&[1, 5], &[1, 6], &[3, 5], &[4, 5]]).unwrap();
        let a = r.schema().attrs()[0];
        let tries = [
            TrieIndex::build(Arc::new(r), vec![0]),
            TrieIndex::build(Arc::new(s), vec![0]),
        ];
        let refs: Vec<&TrieIndex> = tries.iter().collect();
        let (rel, stats) = trie_join(&refs, &[a], &mut never()).unwrap();
        assert_eq!(stats.emitted, 2);
        assert!(rel.contains_row(&[Value::Int(1)]) && rel.contains_row(&[Value::Int(3)]));
    }

    #[test]
    fn empty_and_nullary_operands() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2]]).unwrap();
        let ab: Vec<AttrId> = r.schema().attrs().to_vec();
        let with_unit = Database::from_relations(vec![r.clone(), Relation::nullary_unit()]);
        assert_eq!(check(&with_unit, &ab).0, r);
        let with_none = Database::from_relations(vec![r, Relation::empty(Schema::empty())]);
        assert_eq!(check(&with_none, &ab).1, TrieJoinStats::default());
        let units = Database::from_relations(vec![Relation::nullary_unit(); 2]);
        assert_eq!(check(&units, &[]).0, Relation::nullary_unit());
    }

    /// `stop` is polled once per value of the outermost attribute, and a
    /// `true` abandons the walk there.
    #[test]
    fn stop_is_polled_per_outermost_value() {
        let mut c = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..5)
            .flat_map(|a| (0..3).map(move |b| vec![a, b]))
            .collect();
        let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let db = Database::from_relations(vec![
            relation_of_ints(&mut c, "AB", &rows).unwrap(),
            relation_of_ints(&mut c, "BC", &rows).unwrap(),
        ]);
        let abc: Vec<AttrId> = Schema::from_chars(&mut c, "ABC").attrs().to_vec();
        let tries = tries_for(&db, &abc);
        let refs: Vec<&TrieIndex> = tries.iter().collect();
        let mut polls = 0;
        let (count, _) = trie_join_count(&refs, &abc, &mut || {
            polls += 1;
            false
        })
        .unwrap();
        assert_eq!((polls, count), (5, 45));
        let mut polls = 0;
        let stopped = trie_join(&refs, &abc, &mut || {
            polls += 1;
            polls == 3
        });
        assert_eq!(stopped.map(|_| ()), Err(Stopped));
        assert_eq!(polls, 3);
    }
}
