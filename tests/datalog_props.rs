//! Differential test for the semi-naive Datalog fixpoint: on random small
//! graphs, `evaluate_datalog`'s facts must equal a naive fixpoint that
//! re-runs the reference executor (`execute_query_naive`) on every rule
//! until no predicate grows.

use mjoin::cq::{
    evaluate_datalog, execute_query_naive, parse_rules, ConjunctiveQuery, NamedDatabase,
    PlanStrategy, Term,
};
use mjoin::relation::Value;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const PROGRAMS: &[&str] = &[
    // Left- and right-linear transitive closure.
    "t(x, y) :- e(x, y). t(x, z) :- t(x, y), e(y, z).",
    "t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z).",
    // Same generation.
    "sg(x, y) :- e(p, x), e(p, y). sg(x, y) :- e(px, x), sg(px, py), e(py, y).",
    // Even/odd mutual recursion.
    "odd(x, y) :- e(x, y). odd(x, z) :- even(x, y), e(y, z). even(x, z) :- odd(x, y), e(y, z).",
    // A constant selection seeding a recursion.
    "r(y) :- e(0, y). r(z) :- r(y), e(y, z).",
    // A repeated head variable, alone and feeding a recursion.
    "loop(x, x) :- e(x, y), e(y, x).",
    "loop(x, x) :- e(x, y), e(y, x). reach(x, y) :- loop(x, z), e(z, y). \
     reach(x, y) :- reach(x, z), e(z, y).",
    // Two EDB relations, the second one empty in some cases.
    "u(x, y) :- e(x, y). u(x, y) :- f(x, y). u(x, z) :- u(x, y), f(y, z).",
];

/// Node `i` labelled as an integer, a string, or by parity either one.
fn label(kind: usize, i: i64) -> Value {
    match kind {
        0 => Value::Int(i),
        1 => Value::str(format!("v{i}")),
        _ if i % 2 == 0 => Value::Int(i),
        _ => Value::str(format!("v{i}")),
    }
}

fn db_strategy() -> impl Strategy<Value = NamedDatabase> {
    (
        prop::collection::vec((0i64..7, 0i64..7), 0..20),
        prop::collection::vec((0i64..7, 0i64..7), 0..6),
        0usize..3,
        any::<bool>(),
    )
        .prop_map(|(e, f, kind, f_empty)| {
            let tuples = |edges: &[(i64, i64)]| -> Vec<Vec<Value>> {
                edges
                    .iter()
                    .map(|&(a, b)| vec![label(kind, a), label(kind, b)])
                    .collect()
            };
            let f = if f_empty { Vec::new() } else { f };
            let mut db = NamedDatabase::new();
            db.add_relation_values("e", &["s", "d"], tuples(&e))
                .unwrap();
            db.add_relation_values("f", &["s", "d"], tuples(&f))
                .unwrap();
            db
        })
}

type Facts = BTreeMap<String, BTreeSet<Vec<Value>>>;

/// The rule's head tuples over `db`, by the reference executor. Its answer
/// holds each distinct head variable once, in attribute order — the order
/// in which the body first binds the variables.
fn naive_rule(db: &NamedDatabase, rule: &ConjunctiveQuery) -> Vec<Vec<Value>> {
    let mut bound: Vec<&str> = Vec::new();
    for atom in &rule.body {
        for term in &atom.terms {
            if let Term::Var(v) = term {
                if !bound.contains(&v.as_str()) {
                    bound.push(v);
                }
            }
        }
    }
    let mut distinct: Vec<String> = Vec::new();
    for v in &rule.head_vars {
        if !distinct.contains(v) {
            distinct.push(v.clone());
        }
    }
    let mut query = rule.clone();
    query.head_vars = distinct.clone();
    let answer = execute_query_naive(db, &query).unwrap();
    let rank = |v: &str| bound.iter().position(|b| *b == v).unwrap();
    let position = |v: &String| distinct.iter().filter(|d| rank(d) < rank(v)).count();
    answer
        .rows()
        .iter()
        .map(|row| {
            rule.head_vars
                .iter()
                .map(|v| row[position(v)].clone())
                .collect()
        })
        .collect()
}

/// Naive fixpoint: every rule re-run over all facts until nothing grows.
fn naive_fixpoint(edb: &NamedDatabase, rules: &[ConjunctiveQuery]) -> Facts {
    let mut facts: Facts = rules
        .iter()
        .map(|r| (r.head_name.clone(), BTreeSet::new()))
        .collect();
    loop {
        let mut db = edb.clone();
        for (p, tuples) in &facts {
            let arity = rules
                .iter()
                .find(|r| &r.head_name == p)
                .unwrap()
                .head_vars
                .len();
            let cols: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
            let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
            db.add_relation_values(p, &cols, tuples.iter().cloned().collect())
                .unwrap();
        }
        let mut grew = false;
        for rule in rules {
            for tuple in naive_rule(&db, rule) {
                grew |= facts.get_mut(&rule.head_name).unwrap().insert(tuple);
            }
        }
        if !grew {
            return facts;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn semi_naive_matches_naive_fixpoint(
        db in db_strategy(),
        pidx in 0usize..PROGRAMS.len(),
    ) {
        let rules = parse_rules(PROGRAMS[pidx]).unwrap();
        let want = naive_fixpoint(&db, &rules);
        for strategy in [PlanStrategy::Greedy, PlanStrategy::DpOptimal] {
            let got = evaluate_datalog(&db, &rules, strategy).unwrap();
            for (p, tuples) in &want {
                let want: Vec<Vec<Value>> = tuples.iter().cloned().collect();
                prop_assert_eq!(
                    got.facts_of(p), &want[..],
                    "predicate {} of {} under {:?}", p, PROGRAMS[pidx], strategy
                );
            }
        }
    }
}
