//! Lints over the raw conjunctive-query / Datalog AST — structural findings
//! available *before* Algorithm 1/2 compiles anything.
//!
//! The statement-level analyzer (`mjoin-analyze`) inspects §2.2 programs;
//! these lints inspect the query that produces them, because a defect in the
//! query inflates everything downstream (hypergraph, AGM bound, Theorem-2
//! certificate, executor choice). Findings reuse the analyzer's
//! [`Diagnostic`]/[`Report`] machinery so `--deny` gates and renderers work
//! unchanged; `stmt` carries the *atom index* for single-query lints and the
//! *rule index* when linting a Datalog rule set.
//!
//! | lint | severity | finding |
//! |------|----------|---------|
//! | `unsafe-head` | error | head variable absent from the body |
//! | `duplicate-atom` | warn | body atom repeated verbatim |
//! | `redundant-atom` | warn | atom folded away by the core (with proof) |
//! | `cartesian-component` | warn | disconnected join graph — the result is a Cartesian product |
//! | `dominated-atom` | note | atom's variables are a strict subset of another atom's |
//! | `minimize-budget` | note | the core search gave up on some fold; atoms may remain redundant |

use crate::ast::{Atom, ConjunctiveQuery};
use crate::hom::NODE_BUDGET;
use crate::minimize::minimize_counting;
use mjoin_analyze::{Diagnostic, Report, Severity};
use std::collections::BTreeSet;

/// Lint one conjunctive query. `stmt` in each diagnostic is the offending
/// atom's index in the body (or `None` for whole-query findings).
pub fn lint_query(query: &ConjunctiveQuery) -> Report {
    let mut report = Report::default();
    unsafe_head(query, &mut report);
    let duplicates = duplicate_atoms(query, &mut report);
    if query.is_safe() {
        redundant_atoms(query, &duplicates, &mut report);
    }
    cartesian_components(query, &mut report);
    dominated_atoms(query, &mut report);
    report
}

/// Lint a Datalog rule set: every rule is linted as a conjunctive query and
/// each finding's `stmt` is re-stamped to the *rule* index, with the atom
/// spelled out in the message.
pub fn lint_rules(rules: &[ConjunctiveQuery]) -> Report {
    let mut report = Report::default();
    for (i, rule) in rules.iter().enumerate() {
        for mut d in lint_query(rule).diagnostics {
            if let Some(atom) = d.stmt {
                d.message = format!(
                    "rule {i} (`{}`), atom {atom}: {}",
                    rule.head_name, d.message
                );
            } else {
                d.message = format!("rule {i} (`{}`): {}", rule.head_name, d.message);
            }
            d.stmt = Some(i);
            report.diagnostics.push(d);
        }
    }
    report
}

/// `unsafe-head`: every head variable must occur in some body atom.
fn unsafe_head(query: &ConjunctiveQuery, report: &mut Report) {
    let body: BTreeSet<&str> = query.body_variables().into_iter().collect();
    for v in &query.head_vars {
        if !body.contains(v.as_str()) {
            report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                lint: "unsafe-head",
                stmt: None,
                message: format!(
                    "head variable `{v}` does not occur in the body; the query is unsafe"
                ),
                excerpt: Some(query.to_string()),
            });
        }
    }
}

/// `duplicate-atom`: a body atom repeated verbatim. Returns the duplicate
/// indices so `redundant-atom` does not re-report them.
fn duplicate_atoms(query: &ConjunctiveQuery, report: &mut Report) -> BTreeSet<usize> {
    let mut duplicates = BTreeSet::new();
    for (i, atom) in query.body.iter().enumerate() {
        if let Some(j) = query.body[..i].iter().position(|a| a == atom) {
            duplicates.insert(i);
            report.diagnostics.push(Diagnostic {
                severity: Severity::Warn,
                lint: "duplicate-atom",
                stmt: Some(i),
                message: format!("atom {i} repeats atom {j} verbatim; drop one"),
                excerpt: Some(atom.to_string()),
            });
        }
    }
    duplicates
}

/// `redundant-atom`: atoms the core computation folds away (each carries a
/// verified two-way homomorphism proof; unverifiable folds report nothing).
fn redundant_atoms(query: &ConjunctiveQuery, duplicates: &BTreeSet<usize>, report: &mut Report) {
    let (m, abandoned) = minimize_counting(query);
    if abandoned > 0 {
        report.diagnostics.push(Diagnostic {
            severity: Severity::Note,
            lint: "minimize-budget",
            stmt: None,
            message: format!(
                "the core search gave up on {abandoned} fold(s) after {NODE_BUDGET} \
                 backtracking nodes each; the query may not be minimal"
            ),
            excerpt: Some(query.to_string()),
        });
    }
    if !m.proof.verified {
        return;
    }
    for &i in &m.proof.dropped {
        // A dropped atom that is part of a verbatim-duplicate group is
        // already reported with the simpler explanation — whichever
        // occurrence the fold happened to remove.
        let in_dup_group = duplicates.contains(&i)
            || query
                .body
                .iter()
                .enumerate()
                .any(|(j, a)| j != i && *a == query.body[i]);
        if in_dup_group {
            continue;
        }
        report.diagnostics.push(Diagnostic {
            severity: Severity::Warn,
            lint: "redundant-atom",
            stmt: Some(i),
            message: format!(
                "atom {i} folds into the core (proof-checked both ways); the query is \
                 equivalent to its {}-atom core `{}`",
                m.core.body.len(),
                m.core
            ),
            excerpt: Some(query.body[i].to_string()),
        });
    }
}

/// Connected components of the body's join graph (atoms share a component
/// when they share a variable); all-constant atoms are excluded.
fn join_components(body: &[Atom]) -> Vec<Vec<usize>> {
    let with_vars: Vec<usize> = (0..body.len())
        .filter(|&i| !body[i].variables().is_empty())
        .collect();
    let mut component: Vec<Option<usize>> = vec![None; body.len()];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for &start in &with_vars {
        if component[start].is_some() {
            continue;
        }
        let id = components.len();
        let mut stack = vec![start];
        let mut members = Vec::new();
        component[start] = Some(id);
        while let Some(i) = stack.pop() {
            members.push(i);
            let vars: BTreeSet<&str> = body[i].variables().into_iter().collect();
            for &j in &with_vars {
                if component[j].is_none() && body[j].variables().iter().any(|v| vars.contains(v)) {
                    component[j] = Some(id);
                    stack.push(j);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// `cartesian-component`: a disconnected join graph forces a Cartesian
/// product across components — caught here, before compilation.
fn cartesian_components(query: &ConjunctiveQuery, report: &mut Report) {
    let components = join_components(&query.body);
    if components.len() < 2 {
        return;
    }
    let shape = components
        .iter()
        .map(|c| {
            format!(
                "{{{}}}",
                c.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect::<Vec<_>>()
        .join(" × ");
    report.diagnostics.push(Diagnostic {
        severity: Severity::Warn,
        lint: "cartesian-component",
        stmt: None,
        message: format!(
            "body atoms form {} disconnected join components ({shape}); the result is a \
             Cartesian product across them",
            components.len()
        ),
        excerpt: Some(query.to_string()),
    });
}

/// `dominated-atom`: an atom whose variable set is a *strict* subset of
/// another atom's. Its hyperedge is subsumed in the join hypergraph — not
/// wrong (the data still filters), but worth knowing when reading bounds.
fn dominated_atoms(query: &ConjunctiveQuery, report: &mut Report) {
    let var_sets: Vec<BTreeSet<&str>> = query
        .body
        .iter()
        .map(|a| a.variables().into_iter().collect())
        .collect();
    for (i, vi) in var_sets.iter().enumerate() {
        if vi.is_empty() {
            continue;
        }
        if let Some(j) = var_sets
            .iter()
            .enumerate()
            .position(|(j, vj)| j != i && vi.is_subset(vj) && vi.len() < vj.len())
        {
            report.diagnostics.push(Diagnostic {
                severity: Severity::Note,
                lint: "dominated-atom",
                stmt: Some(i),
                message: format!(
                    "atom {i}'s variables are a strict subset of atom {j}'s; its hyperedge is \
                     scheme-subsumed in the join hypergraph"
                ),
                excerpt: Some(format!("{} ⊑ {}", query.body[i], query.body[j])),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ConjunctiveQuery;
    use crate::parse::parse_query;

    fn q(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap()
    }

    #[test]
    fn clean_query_is_clean() {
        let report = lint_query(&q("Q(x, z) :- e(x, y), e(y, z)."));
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn unsafe_head_is_an_error() {
        // The parser rejects unsafe queries, so build the AST directly.
        let query = ConjunctiveQuery {
            head_name: "Q".into(),
            head_vars: vec!["x".into(), "ghost".into()],
            body: q("Q(x) :- e(x, y).").body,
        };
        let report = lint_query(&query);
        assert_eq!(report.by_lint("unsafe-head").len(), 1);
        assert_eq!(report.worst(), Some(Severity::Error));
    }

    #[test]
    fn duplicate_atom_reported_once_not_twice() {
        let report = lint_query(&q("Q(x, y) :- e(x, y), e(x, y)."));
        assert_eq!(report.by_lint("duplicate-atom").len(), 1);
        // The duplicate is also what the core drops; no double report.
        assert!(report.by_lint("redundant-atom").is_empty());
    }

    #[test]
    fn redundant_atom_carries_core_size() {
        let report = lint_query(&q("Q(x, z) :- r(x, y), s(y, z), r(x, w)."));
        let redundant = report.by_lint("redundant-atom");
        assert_eq!(redundant.len(), 1);
        assert_eq!(redundant[0].stmt, Some(2));
        assert!(redundant[0].message.contains("2-atom core"));
        assert_eq!(report.worst(), Some(Severity::Warn));
    }

    #[test]
    fn cartesian_component_detected() {
        let report = lint_query(&q("Q(x, a) :- e(x, y), f(a, b)."));
        assert_eq!(report.by_lint("cartesian-component").len(), 1);
        // Connected queries stay silent.
        let ok = lint_query(&q("Q(x, a) :- e(x, y), f(y, a)."));
        assert!(ok.by_lint("cartesian-component").is_empty());
    }

    #[test]
    fn dominated_atom_is_a_note() {
        let report = lint_query(&q("Q(x, y, z) :- t(x, y, z), e(x, y)."));
        let dominated = report.by_lint("dominated-atom");
        assert_eq!(dominated.len(), 1);
        assert_eq!(dominated[0].stmt, Some(1));
        assert_eq!(dominated[0].severity, Severity::Note);
        // A note alone keeps the report clean for `--deny warn`.
        assert!(report.is_clean());
    }

    #[test]
    fn all_constant_atoms_do_not_fake_products() {
        let report = lint_query(&q("Q(x) :- e(x, 2), l(2, 100)."));
        assert!(report.by_lint("cartesian-component").is_empty());
    }

    #[test]
    fn rule_sets_restamp_stmt_to_rule_index() {
        let rules = vec![
            q("T(x, y) :- e(x, y)."),
            q("U(x, z) :- r(x, y), s(y, z), r(x, w)."),
        ];
        let report = lint_rules(&rules);
        let redundant = report.by_lint("redundant-atom");
        assert_eq!(redundant.len(), 1);
        assert_eq!(redundant[0].stmt, Some(1));
        assert!(redundant[0].message.contains("rule 1"));
        assert!(redundant[0].message.contains("atom 2"));
    }

    /// A directed 5-cycle beside a dense bipartite block `u ⇄ v`: no cycle
    /// atom folds away (the block has no odd closed walk), and proving that
    /// takes the homomorphism search past its node budget.
    fn budget_exceeding_query() -> ConjunctiveQuery {
        let mut atoms = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                atoms.push(format!("e(u{i}, v{j})"));
                atoms.push(format!("e(v{j}, u{i})"));
            }
        }
        for i in 0..5 {
            atoms.push(format!("e(z{i}, z{})", (i + 1) % 5));
        }
        let head: Vec<String> = (0..5)
            .flat_map(|i| [format!("u{i}"), format!("v{i}")])
            .collect();
        q(&format!("Q({}) :- {}.", head.join(", "), atoms.join(", ")))
    }

    #[test]
    fn abandoned_folds_are_noted_and_counted() {
        mjoin_trace::set_enabled(true);
        mjoin_trace::clear();
        let report = lint_query(&budget_exceeding_query());
        let trace = mjoin_trace::take();
        mjoin_trace::set_enabled(false);
        let notes = report.by_lint("minimize-budget");
        assert_eq!(notes.len(), 1, "{}", report.render_text());
        assert_eq!(notes[0].severity, Severity::Note);
        assert!(notes[0].message.contains("gave up on 5 fold(s)"));
        assert_eq!(trace.counter("cq.hom_budget_exhausted"), Some(5));
        assert!(report.by_lint("redundant-atom").is_empty());
        // A query whose searches all finish notes nothing.
        let clean = lint_query(&q("Q(x, z) :- r(x, y), s(y, z), r(x, w)."));
        assert!(clean.by_lint("minimize-budget").is_empty());
    }

    #[test]
    fn constant_terms_do_not_upset_domination() {
        let query = q("Q(x) :- r(x, 3), s(x, y).");
        let report = lint_query(&query);
        // r(x, 3) has var set {x} ⊂ {x, y}: dominated note expected.
        assert_eq!(report.by_lint("dominated-atom").len(), 1);
    }
}
