//! Compiling and executing conjunctive queries through the paper's pipeline.
//!
//! A query goes through four steps, each a type — the same `prepare → admit
//! → execute` line as [`mjoin_core::engine`], with query-level admission
//! placed where it needs no data:
//!
//! 0. [`compile_query`] — **core minimization**: fold redundant atoms away
//!    under a verified homomorphism proof (opt-out). Arithmetic over the
//!    query text and the stored sizes only.
//! 1. [`CompiledQuery::admit`] — refuse a query whose AGM bound exceeds the
//!    caller's budget, before a tuple moves.
//! 2. [`AdmittedQuery::prepare`] — **atom binding** (each body atom becomes
//!    a relation over *variable* attributes: constants select, repeated
//!    variables within an atom filter, columns are renamed to their
//!    variables) and **planning** (the bound relations form a database
//!    scheme, hyperedges = each atom's variable set; every multi-atom
//!    connected component becomes one engine request, where tree search,
//!    Algorithms 1–2 and the executor choice happen). Everything that can
//!    fail is behind it.
//! 3. [`PreparedQuery::execute`] — each component is admitted (spill plan
//!    under a memory budget) and executed by the engine with §2.3 cost
//!    accounting; component results are combined (a Cartesian product
//!    *across* components is semantically forced, not an ordering accident)
//!    and projected onto the head variables.
//!
//! [`execute_query_with`] is the composition of the four.

use crate::ast::{Atom, ConjunctiveQuery, Term};
use crate::minimize::{differential_validate, minimize};
use crate::storage::NamedDatabase;
use mjoin_core::engine::{self, BoundViolation, ExecutorKind, Limits, Oracle, Plan, Rejection};
use mjoin_hypergraph::{agm_ln, bound_u64, DbScheme};
use mjoin_program::{CancelToken, Cancelled, SharedIndexCache};
use mjoin_relation::{
    ops, tsv, Answer, AttrId, Catalog, Column, CostLedger, Database, Error, Relation, Result,
    Schema, Value,
};
use std::borrow::Cow;

pub use mjoin_core::engine::PlanStrategy;

/// Execution knobs beyond the planning strategy: which executor runs each
/// component, how many threads a program execution may use, an optional
/// shared index cache (the resident server's — hash indices and sorted
/// tries both live in it), and whether to core-minimize the query first.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Executor choice ([`ExecutorKind::Program`] is the default; `Auto`
    /// compares bounds per component).
    pub executor: ExecutorKind,
    /// Threads for program execution (`0`/`1` = sequential).
    pub threads: usize,
    /// Shared index cache (hash indices on the program path, trie views
    /// on the WCOJ path). `None` gives each component a private one.
    pub cache: Option<SharedIndexCache>,
    /// Core-minimize the query before binding (**on** by default; the
    /// `--minimize=off` opt-out). Rewrites are applied only under a
    /// verified two-way homomorphism proof plus differential execution
    /// against the unminimized query on generated databases.
    pub minimize: bool,
    /// Per-statement memory budget in bytes. When set, each component's
    /// derived program gets a static memory certificate
    /// ([`mjoin_analyze::memory_report`]) and any join whose certified
    /// build-side bytes exceed the budget runs the Grace-hash spill path —
    /// decided before execution starts, never at runtime. `None` (the
    /// default) keeps every statement in memory.
    pub mem_budget: Option<u64>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            executor: ExecutorKind::default(),
            threads: 0,
            cache: None,
            minimize: true,
            mem_budget: None,
        }
    }
}

/// What core minimization did to a query, with the hypergraph bounds it
/// moved: AGM fractional-cover bounds of the query's join hypergraph
/// (stored relation sizes, constants not yet applied) before and after.
#[derive(Debug, Clone)]
pub struct MinimizeSummary {
    /// Body atoms before minimization.
    pub atoms_before: usize,
    /// Body atoms in the compiled core.
    pub atoms_after: usize,
    /// The dropped atoms, rendered.
    pub dropped: Vec<String>,
    /// AGM bound of the original query's hypergraph.
    pub agm_before: u64,
    /// AGM bound of the core's hypergraph (equal when nothing dropped).
    pub agm_after: u64,
}

/// How one connected component of a query was executed, with the bounds
/// that justified the choice (populated in `auto` mode; a forced executor
/// reports only what it computed).
#[derive(Debug, Clone)]
pub struct ComponentDecision {
    /// The component, as a relation-index set (e.g. `{0, 2}`).
    pub component: String,
    /// The executor the component actually ran on (never `Auto`).
    pub executor: ExecutorKind,
    /// AGM bound of the component hypergraph, when computed.
    pub agm_bound: Option<u64>,
    /// Theorem-2 certificate bound of the chosen program (evaluated with
    /// AGM sub-bounds), when a program was derived.
    pub cert_bound: Option<u64>,
    /// Statements of the component's program whose scheduled spill failed,
    /// with the I/O error ([`engine::Outcome::spill_failures`]): each
    /// joined in memory, over the certified budget.
    pub spill_failures: Vec<(usize, String)>,
    /// Measured values over their certified bounds
    /// ([`engine::Outcome::bound_violations`]; empty on an honest run).
    pub bound_violations: Vec<BoundViolation>,
}

/// The answer to a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result relation over the head variables' attributes.
    pub relation: Relation,
    /// Attribute id of each head variable, in head order.
    pub head_attrs: Vec<AttrId>,
    /// The query-side catalog (variable names).
    pub catalog: Catalog,
    /// Total §2.3 cost across binding, programs, and projection.
    pub ledger: CostLedger,
    /// What minimization did (`None` when it was skipped — opted out,
    /// single-atom body, or unresolvable predicates).
    pub minimize: Option<MinimizeSummary>,
}

impl QueryResult {
    /// Position in the relation's canonical schema of each head variable,
    /// in head order.
    fn head_positions(&self) -> Vec<usize> {
        self.head_attrs
            .iter()
            .map(|&a| {
                self.relation
                    .schema()
                    .position(a)
                    .expect("head attr in result")
            })
            .collect()
    }

    /// The result's columns in *head-variable order* (the relation itself
    /// stores canonical order); a repeated head variable repeats its column.
    pub(crate) fn head_columns(&self) -> Vec<Column> {
        let cols = self.relation.columns();
        self.head_positions()
            .iter()
            .map(|&p| cols[p].clone())
            .collect()
    }

    /// Result tuples with columns in *head-variable order*, sorted for
    /// determinism. This boxes every tuple; [`QueryResult::write_tsv`]
    /// prints without doing so.
    pub fn rows_in_head_order(&self) -> Vec<Vec<Value>> {
        let head = self.head_columns();
        let mut rows: Vec<Vec<Value>> = (0..self.len())
            .map(|i| head.iter().map(|c| c.value(i)).collect())
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Write the answer as TSV: `head_vars` as the header line, then the
    /// tuples in the order of [`QueryResult::rows_in_head_order`], one per
    /// line, cells escaped as [`tsv`] escapes them — straight from the
    /// result's columns through [`tsv::write_sorted`].
    pub fn write_tsv(
        &self,
        head_vars: &[String],
        out: &mut impl std::io::Write,
    ) -> std::io::Result<()> {
        let head = self.head_columns();
        let head: Vec<&Column> = head.iter().collect();
        tsv::write_sorted(head_vars, &head, self.relation.len(), out)
    }

    /// Number of result tuples.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }
}

/// Bind one atom: produce a relation over its variables' attributes.
///
/// Works on the stored relation's columns: each constant is a selection,
/// each repeated variable a column-equality selection, and what is left is
/// renamed to the variables' attributes — after a projection when a
/// constant or repeated column drops out. An atom of distinct variables is
/// therefore an O(arity) rename sharing the stored columns.
///
/// All-constant atoms bind to the nullary unit (condition true) or the empty
/// nullary relation (condition false).
fn bind_atom(ndb: &NamedDatabase, atom: &Atom, qcat: &mut Catalog) -> Result<Relation> {
    let stored = ndb
        .get(&atom.predicate)
        .ok_or_else(|| Error::Parse(format!("unknown relation `{}`", atom.predicate)))?;
    if atom.terms.len() != stored.columns.len() {
        return Err(Error::ArityMismatch {
            expected: stored.columns.len(),
            got: atom.terms.len(),
        });
    }

    // Borrowed until a selection applies, so the stored relation's own
    // columns are the ones the operators read.
    let mut rel = Cow::Borrowed(&stored.relation);
    // Each variable's first column, renamed to the variable's attribute.
    let mut seen: Vec<(&str, AttrId)> = Vec::new();
    let mut renaming: Vec<(AttrId, AttrId)> = Vec::new();
    for (term, &col) in atom.terms.iter().zip(&stored.columns) {
        match term {
            Term::Const(v) => rel = Cow::Owned(ops::select_eq(&rel, col, v)?),
            Term::Var(name) => match seen.iter().find(|(n, _)| n == name) {
                Some(&(_, first)) => rel = Cow::Owned(ops::select_attrs_eq(&rel, first, col)?),
                None => {
                    seen.push((name, col));
                    renaming.push((col, qcat.intern(name)));
                }
            },
        }
    }
    if renaming.len() < stored.columns.len() {
        let kept: Vec<AttrId> = renaming.iter().map(|&(col, _)| col).collect();
        rel = Cow::Owned(ops::project(&rel, &kept)?);
    }
    ops::rename(&rel, &renaming)
}

/// The attribute of each head variable, in head order; every one must have
/// been bound by a body atom.
fn head_attrs(query: &ConjunctiveQuery, qcat: &Catalog) -> Result<Vec<AttrId>> {
    let bound = |v: &String| {
        qcat.lookup(v)
            .ok_or_else(|| Error::Parse(format!("head variable `{v}` unbound")))
    };
    query.head_vars.iter().map(bound).collect()
}

/// Execute `query` against `ndb` on the default (program) executor.
pub fn execute_query(
    ndb: &NamedDatabase,
    query: &ConjunctiveQuery,
    strategy: PlanStrategy,
) -> Result<QueryResult> {
    execute_query_with(ndb, query, strategy, &ExecOptions::default()).map(|(r, _)| r)
}

/// Execute `query` against `ndb` with explicit executor options, returning
/// the per-component executor decisions alongside the result (for
/// `--explain`-style surfaces): compiled, admitted under no budget,
/// prepared, and executed with no cancellation token.
pub fn execute_query_with(
    ndb: &NamedDatabase,
    query: &ConjunctiveQuery,
    strategy: PlanStrategy,
    opts: &ExecOptions,
) -> Result<(QueryResult, Vec<ComponentDecision>)> {
    compile_query(ndb, query, opts.minimize)
        .admit(None)
        .map_err(|r| Error::Parse(r.to_string()))?
        .prepare(strategy, opts)?
        .execute(None)
        .map_err(|c| Error::Parse(c.to_string()))
}

/// A query after stage 0: the body that will run (the core, when
/// minimization rewrote it) and what minimization did.
pub struct CompiledQuery<'n> {
    ndb: &'n NamedDatabase,
    query: ConjunctiveQuery,
    minimize: Option<MinimizeSummary>,
}

/// A [`CompiledQuery`] whose AGM bound passed the caller's budget.
pub struct AdmittedQuery<'n>(CompiledQuery<'n>);

/// One connected component of the bound body.
enum Component {
    /// A single atom: its binding is the component's result.
    Single(Relation),
    /// Several atoms: one engine request.
    Join(Box<engine::Prepared>),
}

/// What is left to run once the atoms are bound.
enum Body {
    /// Binding alone decided the answer (an empty binding, or nothing but
    /// satisfied all-constant atoms).
    Decided(Relation),
    /// The components, each with its relation-index set's name.
    Components(Vec<(String, Component)>),
}

/// An admitted query bound and planned — every step that can fail is
/// behind it. See the module docs.
pub struct PreparedQuery {
    minimize: Option<MinimizeSummary>,
    qcat: Catalog,
    head_attrs: Vec<AttrId>,
    /// Binding costs so far; execution adds to it.
    ledger: CostLedger,
    body: Body,
    opts: ExecOptions,
}

/// Stage 0 for `query`: compute its core (once) unless `minimize` is off.
pub fn compile_query<'n>(
    ndb: &'n NamedDatabase,
    query: &ConjunctiveQuery,
    minimize: bool,
) -> CompiledQuery<'n> {
    let (core, minimize) = compile_core(ndb, query, minimize);
    CompiledQuery {
        ndb,
        query: core.unwrap_or_else(|| query.clone()),
        minimize,
    }
}

impl<'n> CompiledQuery<'n> {
    /// The query that will run: the core, or the query as written.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// What minimization did (`None` when it was skipped — opted out,
    /// single-atom body, unresolvable predicates, or no verified proof).
    pub fn minimize(&self) -> Option<&MinimizeSummary> {
        self.minimize.as_ref()
    }

    /// AGM bound of the body that will run (see [`query_agm_bound`]): the
    /// minimization summary's post-fold bound when there is one.
    pub fn agm_bound(&self) -> u64 {
        self.minimize.as_ref().map_or_else(
            || query_agm_bound(self.ndb, &self.query.body),
            |m| m.agm_after,
        )
    }

    /// Whole-query admission: refuse when the AGM bound of the compiled
    /// body exceeds `max_cost`. A query rejected verbatim can be admitted
    /// once its redundant atoms fold away.
    pub fn admit(self, max_cost: Option<u64>) -> std::result::Result<AdmittedQuery<'n>, Rejection> {
        if let Some(budget) = max_cost {
            let bound = self.agm_bound();
            if bound > budget {
                return Err(Rejection::agm(bound, budget));
            }
        }
        Ok(AdmittedQuery(self))
    }
}

impl AdmittedQuery<'_> {
    /// The certified size the query was admitted at: its AGM bound.
    pub fn certified_peak(&self) -> u64 {
        self.0.agm_bound()
    }

    /// Stages 1–2: bind every atom and hand each multi-atom connected
    /// component to [`engine::prepare`] (`opts.minimize` was already spent
    /// on [`compile_query`]).
    pub fn prepare(self, strategy: PlanStrategy, opts: &ExecOptions) -> Result<PreparedQuery> {
        let CompiledQuery {
            ndb,
            query,
            minimize,
        } = self.0;
        if !query.is_safe() {
            return Err(Error::Parse("unsafe query".to_string()));
        }
        let mut qcat = Catalog::new();
        let mut ledger = CostLedger::new();

        // Stage 1: bind atoms. Boolean (nullary) bindings fold into a flag.
        let mut bound: Vec<Relation> = Vec::new();
        let mut boolean_false = false;
        for atom in &query.body {
            let rel = bind_atom(ndb, atom, &mut qcat)?;
            ledger.charge_input(format!("bind {atom}"), rel.len());
            if rel.schema().is_empty() {
                if rel.is_empty() {
                    boolean_false = true;
                }
                // A satisfied all-constant atom adds no join constraint.
            } else {
                bound.push(rel);
            }
        }

        let head_attrs = head_attrs(&query, &qcat)?;

        let body = if boolean_false || bound.iter().any(Relation::is_empty) {
            Body::Decided(Relation::empty(Schema::new(head_attrs.clone())))
        } else if bound.is_empty() {
            // All atoms were satisfied constants: the answer is the unit.
            Body::Decided(Relation::nullary_unit())
        } else {
            // Stage 2: one engine request per multi-atom connected component.
            let db = Database::from_relations(bound);
            let scheme = DbScheme::from_schemas(&db.schemas());
            let mut components = Vec::new();
            for comp in scheme.components(scheme.all()) {
                let indices = comp.to_vec();
                let comp_db = db.restrict(&indices);
                let component = if indices.len() == 1 {
                    Component::Single(comp_db.relation(0).clone())
                } else {
                    let comp_scheme = DbScheme::from_schemas(&comp_db.schemas());
                    Component::Join(Box::new(match opts.executor {
                        // Forced generic join needs no tree and no program.
                        ExecutorKind::Wcoj => {
                            engine::prepare_wcoj(comp_scheme, comp_db, qcat.clone())
                        }
                        // Estimation-based tree search: the exact oracle would
                        // *count* every candidate subjoin it ranks — a
                        // join-forest pass or a Generic Join count each, the
                        // Cartesian pairs the greedy scan probes included —
                        // which on queries with repeated predicates can cost
                        // more than the join being planned.
                        executor => engine::prepare(
                            comp_scheme,
                            comp_db,
                            qcat.clone(),
                            Plan::Search {
                                strategy,
                                oracle: Oracle::Estimate,
                            },
                            executor,
                        )
                        .map_err(|e| Error::Parse(e.to_string()))?,
                    }))
                };
                components.push((comp.to_string(), component));
            }
            Body::Components(components)
        };
        Ok(PreparedQuery {
            minimize,
            qcat,
            head_attrs,
            ledger,
            body,
            opts: opts.clone(),
        })
    }
}

impl PreparedQuery {
    /// Stages 3–4: run every component through the engine, combine, and
    /// project onto the head. `cancel` is checked before starting and
    /// passed to every component's executor.
    pub fn execute(
        self,
        cancel: Option<CancelToken>,
    ) -> std::result::Result<(QueryResult, Vec<ComponentDecision>), Cancelled> {
        let PreparedQuery {
            minimize,
            qcat,
            head_attrs,
            mut ledger,
            body,
            opts,
        } = self;
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(Cancelled { at_stmt: 0 });
        }
        let mut decisions = Vec::new();
        let relation = match body {
            Body::Decided(relation) => relation,
            Body::Components(components) => {
                let limits = Limits {
                    mem_budget: opts.mem_budget,
                    ..Limits::default()
                };
                let mut full = Relation::nullary_unit();
                for (name, component) in components {
                    let result = match component {
                        Component::Single(rel) => Answer::from(rel),
                        Component::Join(prepared) => {
                            let out = prepared
                                .admit(&limits)
                                .expect(
                                    "no cost budget and a spilling memory budget refuse nothing",
                                )
                                .execute(opts.threads, opts.cache.as_ref(), cancel.clone())?;
                            // Inputs were already charged at binding.
                            ledger.charge_generated(
                                format!("{} over component {name}", out.decision.executor.name()),
                                out.ledger.generated_total() as usize,
                            );
                            decisions.push(ComponentDecision {
                                component: name.clone(),
                                executor: out.decision.executor,
                                agm_bound: out.decision.agm_bound,
                                cert_bound: out.decision.cert_bound,
                                spill_failures: out.spill_failures,
                                bound_violations: out.bound_violations,
                            });
                            out.result
                        }
                    };
                    // Cross-component combination: a forced Cartesian product.
                    full = ops::join(&full, &result);
                    ledger.charge_generated(format!("combine component {name}"), full.len());
                }
                // Stage 4: the head projection.
                let relation = ops::project(&full, Schema::new(head_attrs.clone()).attrs())
                    .expect("head variables are bound by the body");
                ledger.charge_generated("head projection", relation.len());
                relation
            }
        };
        Ok((
            QueryResult {
                relation,
                head_attrs,
                catalog: qcat,
                ledger,
                minimize,
            },
            decisions,
        ))
    }
}

/// Differential-validation budget: beyond this many body atoms, the naive
/// validator could get expensive, so compile trusts the (already verified)
/// homomorphism proof alone.
const DIFF_VALIDATE_MAX_ATOMS: usize = 8;

/// [`compile_query`]'s decision: compute the core of `query` and decide
/// whether to compile it.
/// Returns the replacement query (if any) and the summary (if minimization
/// ran at all). Only attempted when every predicate resolves (so
/// unknown-relation/arity errors surface exactly as they would
/// unminimized), and only applied under a verified two-way homomorphism
/// proof *plus* differential execution of original vs core on small
/// generated databases.
fn compile_core(
    ndb: &NamedDatabase,
    query: &ConjunctiveQuery,
    enabled: bool,
) -> (Option<ConjunctiveQuery>, Option<MinimizeSummary>) {
    let resolvable = query.body.iter().all(|atom| {
        ndb.get(&atom.predicate)
            .is_some_and(|s| s.columns.len() == atom.terms.len())
    });
    if !enabled || query.body.len() < 2 || !resolvable {
        return (None, None);
    }
    let m = minimize(query);
    if !m.proof.verified {
        return (None, None);
    }
    if m.proof.dropped.is_empty() {
        let agm = query_agm_bound(ndb, &query.body);
        return (
            None,
            Some(MinimizeSummary {
                atoms_before: query.body.len(),
                atoms_after: query.body.len(),
                dropped: Vec::new(),
                agm_before: agm,
                agm_after: agm,
            }),
        );
    }
    // Dynamic check on top of the static proof; a failure (which a verified
    // proof rules out, but the check is cheap insurance) rejects the rewrite.
    if query.body.len() <= DIFF_VALIDATE_MAX_ATOMS
        && differential_validate(query, &m.core, 0x517c_c1b7_2722_0a95, 2).is_err()
    {
        return (None, None);
    }
    let summary = MinimizeSummary {
        atoms_before: query.body.len(),
        atoms_after: m.core.body.len(),
        dropped: m
            .proof
            .dropped
            .iter()
            .map(|&i| query.body[i].to_string())
            .collect(),
        agm_before: query_agm_bound(ndb, &query.body),
        agm_after: query_agm_bound(ndb, &m.core.body),
    };
    (Some(m.core), Some(summary))
}

/// AGM fractional-cover bound of a query's join hypergraph, evaluated with
/// *stored* relation sizes (before constant selection): one hyperedge per
/// atom with at least one variable, weighted by its relation's cardinality.
/// All-constant atoms contribute nothing; a body with no variables bounds
/// at 1 (the nullary unit).
pub fn query_agm_bound(ndb: &NamedDatabase, body: &[Atom]) -> u64 {
    let mut cat = Catalog::new();
    let mut schemas: Vec<Schema> = Vec::new();
    let mut sizes: Vec<u64> = Vec::new();
    for atom in body {
        let vars = atom.variables();
        if vars.is_empty() {
            continue;
        }
        let attrs: Vec<AttrId> = vars.iter().map(|v| cat.intern(v)).collect();
        schemas.push(Schema::new(attrs));
        let size = ndb.get(&atom.predicate).map_or(0, |s| s.relation.len());
        sizes.push(size as u64);
    }
    if schemas.is_empty() {
        return 1;
    }
    let scheme = DbScheme::from_schemas(&schemas);
    bound_u64(agm_ln(&scheme, scheme.all(), &sizes))
}

/// Reference executor: bind atoms, fold-join them naively (in body order,
/// Cartesian products and all), project. Used as the differential-testing
/// oracle for [`execute_query`]; do not use it for anything performance
/// sensitive.
pub fn execute_query_naive(ndb: &NamedDatabase, query: &ConjunctiveQuery) -> Result<Relation> {
    if !query.is_safe() {
        return Err(Error::Parse("unsafe query".to_string()));
    }
    let mut qcat = Catalog::new();
    let mut acc = Relation::nullary_unit();
    for atom in &query.body {
        let rel = bind_atom(ndb, atom, &mut qcat)?;
        acc = ops::join(&acc, &rel);
    }
    ops::project(&acc, Schema::new(head_attrs(query, &qcat)?).attrs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use std::sync::Arc;

    fn graph_db() -> NamedDatabase {
        let mut db = NamedDatabase::new();
        db.add_relation(
            "edge",
            &["src", "dst"],
            &[&[1, 2], &[2, 3], &[3, 4], &[4, 1], &[2, 5]],
        )
        .unwrap();
        db.add_relation(
            "label",
            &["node", "tag"],
            &[&[2, 100], &[3, 100], &[5, 200]],
        )
        .unwrap();
        db
    }

    fn run(db: &NamedDatabase, text: &str) -> QueryResult {
        let q = parse_query(text).unwrap();
        execute_query(db, &q, PlanStrategy::Greedy).unwrap()
    }

    #[test]
    fn two_hop_paths() {
        let db = graph_db();
        let res = run(&db, "Q(x, z) :- edge(x, y), edge(y, z).");
        let rows = res.rows_in_head_order();
        assert!(rows.contains(&vec![Value::Int(1), Value::Int(3)]));
        assert!(rows.contains(&vec![Value::Int(1), Value::Int(5)]));
        assert!(rows.contains(&vec![Value::Int(4), Value::Int(2)]));
        assert_eq!(rows.len(), 5); // 1→3, 1→5, 2→4, 3→1, 4→2
    }

    #[test]
    fn triangle_query_on_cycle() {
        // The 4-cycle has no triangle.
        let db = graph_db();
        let res = run(&db, "Q(x, y, z) :- edge(x, y), edge(y, z), edge(z, x).");
        assert!(res.is_empty());
    }

    #[test]
    fn four_cycle_query() {
        let db = graph_db();
        let res = run(
            &db,
            "Q(a, b, c, d) :- edge(a, b), edge(b, c), edge(c, d), edge(d, a).",
        );
        assert_eq!(res.len(), 4); // the 4-cycle, from each starting point
    }

    #[test]
    fn constants_select() {
        let db = graph_db();
        let res = run(&db, "Q(x) :- edge(x, y), label(y, 100).");
        let rows = res.rows_in_head_order();
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut db = NamedDatabase::new();
        db.add_relation("r", &["a", "b"], &[&[1, 1], &[1, 2], &[3, 3]])
            .unwrap();
        let res = run(&db, "Q(x) :- r(x, x).");
        assert_eq!(
            res.rows_in_head_order(),
            vec![vec![Value::Int(1)], vec![Value::Int(3)]]
        );
    }

    #[test]
    fn boolean_query() {
        let db = graph_db();
        let yes = run(&db, "Q() :- edge(x, y), label(y, 200).");
        assert_eq!(yes.len(), 1);
        let no = run(&db, "Q() :- edge(x, y), label(y, 999).");
        assert!(no.is_empty());
    }

    #[test]
    fn all_constant_atom_is_a_condition() {
        let db = graph_db();
        let yes = run(&db, "Q(x) :- edge(x, 2), label(2, 100).");
        assert_eq!(yes.rows_in_head_order(), vec![vec![Value::Int(1)]]);
        let no = run(&db, "Q(x) :- edge(x, 2), label(2, 999).");
        assert!(no.is_empty());
    }

    #[test]
    fn disconnected_components_cross_product() {
        let mut db = NamedDatabase::new();
        db.add_relation("r", &["a"], &[&[1], &[2]]).unwrap();
        db.add_relation("s", &["b"], &[&[10]]).unwrap();
        let res = run(&db, "Q(x, y) :- r(x), s(y).");
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn strategies_agree() {
        let db = graph_db();
        let q = parse_query("Q(x, z) :- edge(x, y), edge(y, z), label(z, t).").unwrap();
        let a = execute_query(&db, &q, PlanStrategy::Greedy).unwrap();
        let b = execute_query(&db, &q, PlanStrategy::DpOptimal).unwrap();
        let c = execute_query(&db, &q, PlanStrategy::DpCpf).unwrap();
        let d = execute_query(&db, &q, PlanStrategy::DpLinear).unwrap();
        assert_eq!(a.rows_in_head_order(), b.rows_in_head_order());
        assert_eq!(a.rows_in_head_order(), c.rows_in_head_order());
        assert_eq!(a.rows_in_head_order(), d.rows_in_head_order());
    }

    #[test]
    fn executors_agree_and_auto_reports_bounds() {
        let mut db = NamedDatabase::new();
        // A graph with triangles: 0–1–2, 0–2–3 share edge 0–2.
        db.add_relation(
            "e",
            &["a", "b"],
            &[&[0, 1], &[1, 2], &[0, 2], &[2, 3], &[0, 3], &[2, 0]],
        )
        .unwrap();
        let q = parse_query("Q(x, y, z) :- e(x, y), e(y, z), e(z, x).").unwrap();
        let prog = execute_query_with(&db, &q, PlanStrategy::Greedy, &ExecOptions::default())
            .unwrap()
            .0;
        let wcoj = execute_query_with(
            &db,
            &q,
            PlanStrategy::Greedy,
            &ExecOptions {
                executor: ExecutorKind::Wcoj,
                ..ExecOptions::default()
            },
        )
        .unwrap()
        .0;
        let (auto, decisions) = execute_query_with(
            &db,
            &q,
            PlanStrategy::Greedy,
            &ExecOptions {
                executor: ExecutorKind::Auto,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(prog.rows_in_head_order(), wcoj.rows_in_head_order());
        assert_eq!(prog.rows_in_head_order(), auto.rows_in_head_order());
        assert_eq!(decisions.len(), 1);
        let d = &decisions[0];
        assert!(d.agm_bound.is_some() && d.cert_bound.is_some());
        assert_ne!(
            d.executor,
            ExecutorKind::Auto,
            "auto resolves to a real executor"
        );
        // The invariant behind `auto`: the selected executor's stated bound
        // is never the strictly larger one.
        if d.executor == ExecutorKind::Wcoj {
            assert!(d.agm_bound.unwrap() < d.cert_bound.unwrap());
        } else {
            assert!(d.agm_bound.unwrap() >= d.cert_bound.unwrap());
        }
    }

    #[test]
    fn unknown_relation_and_bad_arity() {
        let db = graph_db();
        let q = parse_query("Q(x) :- nope(x).").unwrap();
        assert!(execute_query(&db, &q, PlanStrategy::Greedy).is_err());
        let q = parse_query("Q(x) :- edge(x).").unwrap();
        assert!(execute_query(&db, &q, PlanStrategy::Greedy).is_err());
    }

    #[test]
    fn cost_ledger_populated() {
        let db = graph_db();
        let res = run(&db, "Q(x, z) :- edge(x, y), edge(y, z).");
        assert!(res.ledger.total() > 0);
        assert!(res.ledger.input_total() >= 10); // two bindings of 5 edges
    }

    /// The row-at-a-time binder [`bind_atom`] replaced, kept as its
    /// reference: filter and permute boxed rows, then deduplicate.
    fn bind_atom_rows(ndb: &NamedDatabase, atom: &Atom, qcat: &mut Catalog) -> Relation {
        let stored = ndb.get(&atom.predicate).unwrap();
        let positions: Vec<usize> = (0..atom.terms.len())
            .map(|i| stored.canonical_position(i))
            .collect();
        let mut var_attrs: Vec<AttrId> = Vec::new();
        let mut var_first_pos: Vec<usize> = Vec::new();
        let mut checks: Vec<(usize, usize)> = Vec::new();
        let mut const_checks: Vec<(usize, Value)> = Vec::new();
        let mut seen: Vec<(&str, usize)> = Vec::new();
        for (i, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(v) => const_checks.push((positions[i], v.clone())),
                Term::Var(name) => match seen.iter().find(|(n, _)| n == name) {
                    Some(&(_, first)) => checks.push((positions[first], positions[i])),
                    None => {
                        seen.push((name, i));
                        var_attrs.push(qcat.intern(name));
                        var_first_pos.push(positions[i]);
                    }
                },
            }
        }
        let out_schema = Schema::new(var_attrs.clone());
        let dest: Vec<usize> = var_attrs
            .iter()
            .map(|&a| out_schema.position(a).unwrap())
            .collect();
        let mut out_rows = Vec::new();
        for row in stored.relation.rows() {
            if const_checks.iter().any(|(pos, v)| &row[*pos] != v)
                || checks.iter().any(|(p1, p2)| row[*p1] != row[*p2])
            {
                continue;
            }
            let mut out = vec![Value::Int(0); var_attrs.len()];
            for (vi, &src) in var_first_pos.iter().enumerate() {
                out[dest[vi]] = row[src].clone();
            }
            out_rows.push(out.into());
        }
        Relation::from_rows(out_schema, out_rows).unwrap()
    }

    /// A three-column relation of mixed integers and strings in which
    /// columns repeat each other often and projections collapse rows.
    fn mixed_db() -> NamedDatabase {
        let vals = [
            Value::Int(1),
            Value::Int(2),
            Value::str("s"),
            Value::str("2"),
        ];
        // A fixed scramble: 38 of the 64 possible tuples, ten of them twice.
        let mut rows = Vec::new();
        for i in 0..48usize {
            let (a, b, c) = (
                (i * 7 + i / 3) % 4,
                (i * 5 + i / 7) % 4,
                (i * 3 + i / 5) % 4,
            );
            rows.push(vec![vals[a].clone(), vals[b].clone(), vals[c].clone()]);
        }
        let mut db = NamedDatabase::new();
        db.add_relation_values("r", &["a", "b", "c"], rows).unwrap();
        db
    }

    #[test]
    fn bind_atom_matches_the_row_reference() {
        let db = mixed_db();
        for body in [
            "r(x, y, z)", // pure renaming
            "r(z, y, x)", // renaming that permutes the columns
            "r(x, x, z)", // repeated variable
            "r(x, y, x)",
            "r(x, x, x)",
            "r(1, y, z)", // constants: dropped columns
            "r(x, \"s\", z)",
            "r(x, \"2\", 2)", // Str(\"2\") is not Int(2)
            "r(x, 1, x)",     // constant and repeated variable together
            "r(y, y, 7)",     // constant that matches nothing
            "r(1, 1, 2)",     // all constants, present: the nullary unit
            "r(1, 1, 1)",
            "r(1, \"s\", 7)", // all constants, absent: the empty nullary
        ] {
            let q = parse_query(&format!("Q() :- {body}.")).unwrap();
            let atom = &q.body[0];
            // Intern `z` first so canonical order is not first-use order.
            let (mut c1, mut c2) = (Catalog::new(), Catalog::new());
            c1.intern("z");
            c2.intern("z");
            let want = bind_atom_rows(&db, atom, &mut c1);
            let got = bind_atom(&db, atom, &mut c2).unwrap();
            assert_eq!(got, want, "atom {body}");
            assert_eq!(got.len(), want.len(), "charged to the ledger; atom {body}");
        }
        let all_present = parse_query("Q() :- r(1, 1, 2).").unwrap();
        let unit = bind_atom(&db, &all_present.body[0], &mut Catalog::new()).unwrap();
        assert_eq!((unit.schema().arity(), unit.len()), (0, 1));
    }

    #[test]
    fn bind_atom_of_distinct_variables_shares_the_stored_columns() {
        let db = mixed_db();
        let q = parse_query("Q() :- r(z, y, x).").unwrap();
        let bound = bind_atom(&db, &q.body[0], &mut Catalog::new()).unwrap();
        let stored = &db.get("r").unwrap().relation;
        for col in bound.columns() {
            assert!(stored.columns().iter().any(|c| match (c, col) {
                (Column::Dict { codes: a, .. }, Column::Dict { codes: b, .. }) => Arc::ptr_eq(a, b),
                _ => false,
            }));
        }
    }

    /// `write_tsv` prints what `rows_in_head_order` holds, each cell through
    /// the TSV row encoder — for a head order that is not the canonical
    /// order, over strings that need escaping, and for answers born as
    /// columns (program) and as rows (wcoj) alike.
    #[test]
    fn write_tsv_is_the_escaped_rows_in_head_order() {
        let mut db = NamedDatabase::new();
        let s = |t: &str| Value::str(t);
        let edges = vec![
            vec![s("a\tb"), s("007")],
            vec![s("007"), s(" pad ")],
            vec![s(" pad "), s("a\tb")],
            vec![s(""), Value::Int(5)],
            vec![Value::Int(5), s("back\\slash")],
            vec![s("back\\slash"), s("")],
            vec![s("plain"), s("line\nbreak")],
        ];
        db.add_relation_values("e", &["src", "dst"], edges).unwrap();
        for (text, executor) in [
            (
                "Q(z, x, y) :- e(x, y), e(y, z), e(z, x).",
                ExecutorKind::Program,
            ),
            (
                "Q(z, x, y) :- e(x, y), e(y, z), e(z, x).",
                ExecutorKind::Wcoj,
            ),
            ("Q(y, x) :- e(x, y).", ExecutorKind::Program),
            ("Q(y, y, x) :- e(x, y).", ExecutorKind::Program),
            ("Q() :- e(x, y).", ExecutorKind::Program),
            ("Q(x) :- e(x, 404).", ExecutorKind::Program),
        ] {
            let q = parse_query(text).unwrap();
            let opts = ExecOptions {
                executor,
                ..ExecOptions::default()
            };
            let (res, _) = execute_query_with(&db, &q, PlanStrategy::Greedy, &opts).unwrap();
            let mut want = (q.head_vars.join("\t") + "\n").into_bytes();
            for row in res.rows_in_head_order() {
                tsv::push_row(&mut want, &row);
            }
            let mut got = Vec::new();
            res.write_tsv(&q.head_vars, &mut got).unwrap();
            assert_eq!(
                String::from_utf8(got).unwrap(),
                String::from_utf8(want).unwrap(),
                "{text} on {executor:?}"
            );
        }
    }

    /// A printed answer re-imports as the same relation.
    #[test]
    fn hostile_answers_round_trip_through_tsv() {
        let mut db = NamedDatabase::new();
        let hostile = ["tab\there", "line\nbreak", "back\\slash", "007", "", " x "];
        let rows = hostile
            .iter()
            .enumerate()
            .map(|(i, h)| vec![Value::Int(i as i64), Value::str(h)])
            .collect();
        db.add_relation_values("r", &["k", "v"], rows).unwrap();
        let q = parse_query("Q(k, v) :- r(k, v).").unwrap();
        let res = execute_query(&db, &q, PlanStrategy::Greedy).unwrap();
        let mut text = Vec::new();
        res.write_tsv(&q.head_vars, &mut text).unwrap();
        let mut back = NamedDatabase::new();
        back.add_tsv("r", std::str::from_utf8(&text).unwrap())
            .unwrap();
        let again = execute_query(&back, &q, PlanStrategy::Greedy).unwrap();
        assert_eq!(again.rows_in_head_order(), res.rows_in_head_order());
        assert_eq!(again.len(), hostile.len());
    }

    #[test]
    fn head_order_respected() {
        let db = graph_db();
        // Same query, reversed head: columns must come back reversed.
        let a = run(&db, "Q(x, z) :- edge(x, y), edge(y, z).");
        let b = run(&db, "Q(z, x) :- edge(x, y), edge(y, z).");
        let swapped: Vec<Vec<Value>> = {
            let mut v: Vec<Vec<Value>> = a
                .rows_in_head_order()
                .into_iter()
                .map(|r| vec![r[1].clone(), r[0].clone()])
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(b.rows_in_head_order(), swapped);
    }
}
