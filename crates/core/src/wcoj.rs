//! The worst-case-optimal multiway join executor and the `auto` policy that
//! chooses it.
//!
//! Morishita's §2.2 programs avoid Cartesian products but remain
//! binary-join-shaped: every statement joins two operands, so on cyclic
//! schemes (the paper's Example 3 territory) even the best-ordered program
//! materializes an intermediate that can be asymptotically larger than the
//! output. Worst-case-optimal joins (Ngo–Porat–Ré–Rudra; the Generic Join /
//! Leapfrog-Triejoin family) instead eliminate one *attribute* at a time,
//! intersecting all relations that mention it, and run in time proportional
//! to the AGM output bound — `N^{3/2}` on the triangle where every binary
//! plan pays `N^2`.
//!
//! This module provides, for [`crate::engine`] alone:
//!
//! * [`wcoj_join`] — the executor: a Generic Join elimination loop over
//!   sorted [`TrieIndex`] views built directly from the columnar storage,
//!   with leapfrog (galloping) intersection at each attribute;
//! * [`select`] — the `auto`-mode policy: compare the AGM bound of the
//!   query's hypergraph ([`mjoin_hypergraph::cover`]) against the best
//!   program's Theorem-2 certificate evaluated with AGM sub-bounds, and
//!   take the WCOJ path exactly when the certificate (the binary engine's
//!   provable worst case) is strictly larger;
//! * [`ExecutorKind`] — the shared `--executor` name parser used by both
//!   the CLI and the server protocol, so spellings cannot drift (re-exported
//!   from [`crate::engine`], with [`Selection`]).

use mjoin_analyze::Certificate;
use mjoin_hypergraph::{agm_ln, bound_u64, DbScheme};
use mjoin_program::{CancelToken, Cancelled, SharedIndexCache};
use mjoin_relation::ops::{self, Stopped, TrieIndex};
use mjoin_relation::{Database, Relation, Schema};
use std::sync::Arc;

/// Which executor a query (or a query component) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// The §2.2 program path: derive a binary join/semijoin/projection
    /// program from a CPF join expression and interpret it (the default).
    #[default]
    Program,
    /// The worst-case-optimal path: Generic Join over every component.
    Wcoj,
    /// Per component, pick whichever of the two has the smaller provable
    /// bound (AGM vs Theorem-2 certificate); ties keep the program.
    Auto,
}

impl ExecutorKind {
    /// Parse an executor name as spelled on `mjoin_cli query --executor`
    /// and in the server protocol's `"executor"` field. One parser for
    /// both surfaces, mirroring the optimizer-name parser, so spellings
    /// and error messages cannot drift.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "program" => Ok(ExecutorKind::Program),
            "wcoj" => Ok(ExecutorKind::Wcoj),
            "auto" => Ok(ExecutorKind::Auto),
            other => Err(format!(
                "unknown executor `{other}` (try program|wcoj|auto)"
            )),
        }
    }

    /// The canonical spelling, as accepted by [`ExecutorKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            ExecutorKind::Program => "program",
            ExecutorKind::Wcoj => "wcoj",
            ExecutorKind::Auto => "auto",
        }
    }
}

/// The outcome of the `auto`-mode comparison for one connected component.
#[derive(Debug, Clone, Copy)]
pub struct Selection {
    /// `ln` of the AGM bound of the whole component — what WCOJ's runtime
    /// is proportional to.
    pub agm_ln: f64,
    /// `ln` of the certificate bound: the worst statement of the chosen
    /// program, with each certificate factor bounded by its own AGM bound
    /// (so both sides of the comparison are worst-case over databases with
    /// the given relation sizes).
    pub cert_ln: f64,
    /// The AGM bound as a saturating tuple count.
    pub agm_bound: u64,
    /// The certificate bound as a saturating tuple count.
    pub cert_bound: u64,
    /// `true` exactly when `agm_bound < cert_bound`: the program provably
    /// materializes more than the multiway join's worst case, so `auto`
    /// takes the WCOJ path. Ties go to the program engine (better
    /// constants, warm hash indices).
    pub use_wcoj: bool,
}

/// Compare the AGM bound of the component against the chosen program's
/// certificate. `sizes[e]` is the cardinality of the relation on edge `e`
/// of `scheme`.
///
/// The certificate side is evaluated symbolically: each statement's bound
/// is `Π |⋈D[S]|` over its factors, and each factor's subjoin is itself
/// bounded by the AGM bound of its sub-hypergraph. The statement maximum is
/// the binary engine's provable worst case under the same information the
/// AGM side uses. A derived program's final statement is certified tight
/// with the full relation set, so `cert_ln ≥ agm_ln` always — `auto` never
/// selects an executor whose stated bound is the larger one, and on exact
/// ties the program engine wins.
pub(crate) fn select(scheme: &DbScheme, sizes: &[u64], cert: &Certificate) -> Selection {
    let component_agm = agm_ln(scheme, scheme.all(), sizes);
    let mut cert_ln = f64::NEG_INFINITY;
    for stmt in &cert.stmts {
        let s: f64 = stmt.factors.iter().map(|&f| agm_ln(scheme, f, sizes)).sum();
        cert_ln = cert_ln.max(s);
    }
    let agm_bound = bound_u64(component_agm);
    let cert_bound = bound_u64(cert_ln);
    let use_wcoj = agm_bound < cert_bound;
    if mjoin_trace::enabled() {
        let mut sp = mjoin_trace::span("plan", "executor_select");
        sp.arg("agm_bound", agm_bound.to_string());
        sp.arg("cert_bound", cert_bound.to_string());
        sp.arg("selected", if use_wcoj { "wcoj" } else { "program" });
    }
    Selection {
        agm_ln: component_agm,
        cert_ln,
        agm_bound,
        cert_bound,
        use_wcoj,
    }
}

/// Evaluate the natural join of all relations in `db` (whose schemas form
/// `scheme`, index-aligned) with Generic Join: a global attribute order,
/// and at each attribute a leapfrog intersection across the sorted tries of
/// every relation covering it. [`ops::trie_plan`] picks the order and the
/// trie levels and [`ops::trie_join`] is the loop; this function is the
/// executor around them — the `exec/wcoj` span and the `wcoj.*` counters.
///
/// Tries are fetched from `cache` when one is supplied (the resident
/// server's catalog path — repeated queries skip the sort) and built on the
/// fly otherwise; every access is counted under `index_cache.trie_*`.
/// `cancel` is polled once per value of the outermost attribute.
///
/// The output is worst-case-optimal: total work is `O(AGM bound)` up to
/// logarithmic factors, versus the best binary program's worst statement.
/// The scheme is expected to be connected (callers run one component at a
/// time, as `execute_query` already does for the program path), but the
/// algorithm itself does not require it.
pub(crate) fn wcoj_join(
    scheme: &DbScheme,
    db: &Database,
    cache: Option<&SharedIndexCache>,
    cancel: Option<&CancelToken>,
) -> Result<Relation, Cancelled> {
    let all_attrs = scheme.attrs_of_set(scheme.all());
    let mut sp = mjoin_trace::span("exec", "wcoj");
    if sp.is_active() {
        sp.arg("relations", db.len().to_string());
        sp.arg("attrs", all_attrs.len().to_string());
    }
    // An expired request does not get to sort tries first.
    let mut stop = || cancel.is_some_and(CancelToken::is_cancelled);
    if stop() {
        return Err(Cancelled { at_stmt: 0 });
    }
    if db.relations().iter().any(Relation::is_empty) {
        // The join is empty, and no trie gets built.
        return Ok(Relation::empty(Schema::from_set(&all_attrs)));
    }

    let rels: Vec<&Relation> = db.relations().iter().collect();
    let (order, keys) = ops::trie_plan(&rels);
    let tries: Vec<Arc<TrieIndex>> = rels
        .iter()
        .zip(keys)
        .map(|(rel, key_pos)| fetch_trie(rel, key_pos, cache))
        .collect();
    let tries: Vec<&TrieIndex> = tries.iter().map(Arc::as_ref).collect();

    let (out, stats) =
        ops::trie_join(&tries, &order, &mut stop).map_err(|Stopped| Cancelled { at_stmt: 0 })?;
    mjoin_trace::add("wcoj.attr_loops", stats.attr_loops);
    mjoin_trace::add("wcoj.seeks", stats.seeks);
    mjoin_trace::add("wcoj.emit", stats.emitted);
    if sp.is_active() {
        sp.arg("rows", stats.emitted.to_string());
    }
    Ok(out)
}

/// Fetch the trie for `(rel, key_pos)` from the shared cache, or build it.
/// The build happens outside the lock (the interpreter's cache discipline);
/// hit/miss/insert counters are maintained by the cache itself.
fn fetch_trie(
    rel: &Relation,
    key_pos: Vec<usize>,
    cache: Option<&SharedIndexCache>,
) -> Arc<TrieIndex> {
    let Some(shared) = cache else {
        return Arc::new(TrieIndex::build(Arc::new(rel.clone()), key_pos));
    };
    let arc = Arc::new(rel.clone());
    if let Some(hit) = lock(shared).peek_trie(&arc, &key_pos) {
        return hit;
    }
    let built = Arc::new(TrieIndex::build(arc, key_pos));
    lock(shared).insert_trie(Arc::clone(&built));
    built
}

fn lock(cache: &SharedIndexCache) -> std::sync::MutexGuard<'_, mjoin_program::IndexCache> {
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::{relation_of_ints, Catalog, Value};

    fn db_of(catalog: &mut Catalog, rels: &[(&str, &[&[i64]])]) -> (DbScheme, Database) {
        let mut db = Database::new();
        for (scheme, rows) in rels {
            db.push(relation_of_ints(catalog, scheme, rows).unwrap());
        }
        let scheme = DbScheme::from_schemas(&db.schemas());
        (scheme, db)
    }

    #[test]
    fn executor_names_round_trip() {
        for kind in [
            ExecutorKind::Program,
            ExecutorKind::Wcoj,
            ExecutorKind::Auto,
        ] {
            assert_eq!(ExecutorKind::parse(kind.name()), Ok(kind));
        }
        let err = ExecutorKind::parse("speedy").unwrap_err();
        assert!(err.contains("unknown executor `speedy`"), "{err}");
        assert!(err.contains("program|wcoj|auto"), "{err}");
    }

    #[test]
    fn triangle_join_matches_oracle() {
        let mut c = Catalog::new();
        let (scheme, db) = db_of(
            &mut c,
            &[
                ("AB", &[&[1, 2], &[1, 3], &[2, 3], &[4, 5]]),
                ("BC", &[&[2, 7], &[3, 7], &[3, 8], &[5, 6]]),
                ("CA", &[&[7, 1], &[8, 1], &[6, 4]]),
            ],
        );
        let got = wcoj_join(&scheme, &db, None, None).unwrap();
        assert_eq!(got, db.join_all());
        assert_eq!(got.len(), 4, "(1,2,7), (1,3,7), (1,3,8), (4,5,6)");
    }

    #[test]
    fn acyclic_chain_matches_oracle() {
        let mut c = Catalog::new();
        let (scheme, db) = db_of(
            &mut c,
            &[
                ("AB", &[&[1, 10], &[2, 10], &[3, 11]]),
                ("BC", &[&[10, 20], &[11, 21], &[12, 22]]),
                ("CD", &[&[20, 5], &[21, 5]]),
            ],
        );
        assert_eq!(wcoj_join(&scheme, &db, None, None).unwrap(), db.join_all());
    }

    #[test]
    fn empty_relation_short_circuits() {
        let mut c = Catalog::new();
        let (scheme, mut db) = db_of(&mut c, &[("AB", &[&[1, 2]])]);
        db.push(Relation::empty(Schema::from_chars(&mut c, "BC")));
        let scheme2 = DbScheme::from_schemas(&db.schemas());
        drop(scheme);
        let got = wcoj_join(&scheme2, &db, None, None).unwrap();
        assert_eq!(got.len(), 0);
        assert_eq!(got.schema().arity(), 3);
    }

    #[test]
    fn single_relation_is_identity() {
        let mut c = Catalog::new();
        let (scheme, db) = db_of(&mut c, &[("AB", &[&[1, 2], &[3, 4]])]);
        assert_eq!(
            wcoj_join(&scheme, &db, None, None).unwrap(),
            *db.relation(0)
        );
    }

    #[test]
    fn repeated_scheme_intersects() {
        // Two relations over the same scheme: natural join = intersection.
        let mut c = Catalog::new();
        let (scheme, db) = db_of(
            &mut c,
            &[
                ("AB", &[&[1, 2], &[3, 4], &[5, 6]]),
                ("AB", &[&[3, 4], &[5, 6], &[7, 8]]),
            ],
        );
        let got = wcoj_join(&scheme, &db, None, None).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got, db.join_all());
    }

    #[test]
    fn string_values_join_across_dictionaries() {
        let mut c = Catalog::new();
        let s_ab = Schema::from_chars(&mut c, "AB");
        let s_bc = Schema::from_chars(&mut c, "BC");
        let r1 = Relation::from_rows(
            s_ab,
            vec![
                vec![Value::Int(1), Value::str("x")].into(),
                vec![Value::Int(2), Value::str("y")].into(),
            ],
        )
        .unwrap();
        let r2 = Relation::from_rows(
            s_bc,
            vec![
                vec![Value::str("y"), Value::Int(9)].into(),
                vec![Value::str("z"), Value::Int(8)].into(),
            ],
        )
        .unwrap();
        let db = Database::from_relations(vec![r1, r2]);
        let scheme = DbScheme::from_schemas(&db.schemas());
        let got = wcoj_join(&scheme, &db, None, None).unwrap();
        assert_eq!(got, db.join_all());
        assert_eq!(got.len(), 1, "only B = \"y\" survives");
    }

    #[test]
    fn selection_prefers_wcoj_exactly_when_certificate_is_larger() {
        use mjoin_analyze::cert::StmtBound;
        use mjoin_hypergraph::RelSet;
        let mut c = Catalog::new();
        let scheme = DbScheme::parse(&mut c, &["AB", "BC", "CA"]);
        let n = 10_000u64;
        let sizes = [n, n, n];
        // A hand-built certificate in the shape Algorithm 2 produces on the
        // triangle: first join {AB, BC}, then the tight final statement.
        let cert = Certificate {
            stmts: vec![
                StmtBound {
                    stmt: 0,
                    kind: "join",
                    factors: vec![RelSet::from_indices([0, 1])],
                    tight: true,
                    head_set: RelSet::from_indices([0, 1]),
                    node: None,
                },
                StmtBound {
                    stmt: 1,
                    kind: "join",
                    factors: vec![RelSet::from_indices([0, 1, 2])],
                    tight: true,
                    head_set: RelSet::from_indices([0, 1, 2]),
                    node: None,
                },
            ],
            quasi_factor: 0,
        };
        let sel = select(&scheme, &sizes, &cert);
        // {AB, BC} covers A,B,C with cover number 2 → N²; the component
        // AGM is N^{3/2}: wcoj wins.
        assert!(sel.use_wcoj);
        assert!(sel.agm_bound < sel.cert_bound);
        assert_eq!(sel.cert_bound, n * n);
        // Certificate ≥ AGM must hold by construction (final stmt tight).
        assert!(sel.cert_ln >= sel.agm_ln);
    }

    #[test]
    fn selection_ties_go_to_the_program() {
        use mjoin_analyze::cert::StmtBound;
        use mjoin_hypergraph::RelSet;
        let mut c = Catalog::new();
        let scheme = DbScheme::parse(&mut c, &["AB", "BC"]);
        let sizes = [100, 100];
        let cert = Certificate {
            stmts: vec![StmtBound {
                stmt: 0,
                kind: "join",
                factors: vec![RelSet::from_indices([0, 1])],
                tight: true,
                head_set: RelSet::from_indices([0, 1]),
                node: None,
            }],
            quasi_factor: 0,
        };
        let sel = select(&scheme, &sizes, &cert);
        assert!(!sel.use_wcoj, "equal bounds keep the program engine");
        assert_eq!(sel.agm_bound, sel.cert_bound);
    }

    #[test]
    fn trie_cache_round_trip() {
        use mjoin_program::IndexCache;
        let mut c = Catalog::new();
        let (scheme, db) = db_of(
            &mut c,
            &[("AB", &[&[1, 2], &[2, 3]]), ("BC", &[&[2, 4], &[3, 4]])],
        );
        let shared = IndexCache::shared(1 << 20, 64 << 20);
        let first = wcoj_join(&scheme, &db, Some(&shared), None).unwrap();
        let again = wcoj_join(&scheme, &db, Some(&shared), None).unwrap();
        assert_eq!(first, again);
        let cache = shared.lock().unwrap();
        assert_eq!(cache.entries(), 2, "one trie per relation stays resident");
    }

    #[test]
    fn skewed_hub_join_is_correct() {
        // The bench workloads' hub shape: every pairwise join is quadratic
        // but the triangle output is linear. Small instance against the
        // oracle.
        let m = 12i64;
        let mut ab: Vec<Vec<i64>> = Vec::new();
        for j in 0..=m {
            ab.push(vec![0, j]);
        }
        for i in 1..=m {
            ab.push(vec![i, 0]);
        }
        let rows: Vec<&[i64]> = ab.iter().map(Vec::as_slice).collect();
        let mut c = Catalog::new();
        let (scheme, db) = db_of(&mut c, &[("AB", &rows), ("BC", &rows), ("CA", &rows)]);
        let got = wcoj_join(&scheme, &db, None, None).unwrap();
        assert_eq!(got, db.join_all());
        assert!(got.len() >= (2 * m) as usize, "hub output is linear in m");
    }

    /// The complete `k × k` triangle: `k³` answers, `k²` work under every
    /// value of the outermost attribute.
    fn dense_triangle(k: i64) -> (DbScheme, Database) {
        let rows: Vec<Vec<i64>> = (0..k)
            .flat_map(|a| (0..k).map(move |b| vec![a, b]))
            .collect();
        let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let mut c = Catalog::new();
        db_of(&mut c, &[("AB", &rows), ("BC", &rows), ("CA", &rows)])
    }

    #[test]
    fn planner_count_agrees_with_the_executor_join() {
        let (scheme, db) = dense_triangle(6);
        let joined = wcoj_join(&scheme, &db, None, None).unwrap();
        assert_eq!(joined.len(), 6 * 6 * 6);
        let rels: Vec<&Relation> = db.relations().iter().collect();
        assert_eq!(ops::generic_join_count(&rels), 216);
    }

    /// A token cancelled from another thread stops the elimination inside
    /// the join — at the next value of the outermost attribute — long before
    /// the `k³` answers are enumerated.
    #[test]
    fn cancellation_stops_inside_the_elimination() {
        use mjoin_program::IndexCache;
        use std::time::{Duration, Instant};
        // ~33 M answers: the uncancelled count takes a few hundred
        // milliseconds in release, seconds in debug.
        let k = 320i64;
        let (scheme, db) = dense_triangle(k);
        let rels: Vec<&Relation> = db.relations().iter().collect();
        let started = Instant::now();
        let full = ops::generic_join_count(&rels);
        let full_time = started.elapsed();
        assert_eq!(full, (k * k * k) as u64);

        // A shared cache keeps the tries, so the second cancelled run
        // spends its time in the loop, not in the sort.
        let shared = IndexCache::shared(u64::MAX, u64::MAX);
        for _ in 0..2 {
            let token = CancelToken::new();
            let started = Instant::now();
            let stopped = std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(10));
                    token.cancel();
                });
                wcoj_join(&scheme, &db, Some(&shared), Some(&token)).map(|r| r.len())
            });
            let took = started.elapsed();
            assert_eq!(stopped, Err(Cancelled { at_stmt: 0 }));
            assert!(
                took < full_time / 2,
                "cancelled after {took:?} of an uncancelled {full_time:?}"
            );
        }

        // An already-cancelled token never starts.
        let token = CancelToken::new();
        token.cancel();
        let stopped = wcoj_join(&scheme, &db, None, Some(&token));
        assert_eq!(stopped, Err(Cancelled { at_stmt: 0 }));
    }
}
