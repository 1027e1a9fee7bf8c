//! Recursive Datalog over the conjunctive-query engine: semi-naive fixpoint
//! evaluation of positive rule sets.
//!
//! The paper's opening motivation is "relational and *deductive* database
//! systems"; this module is the deductive half. A program is a list of rules
//! (each syntactically a [`ConjunctiveQuery`]); predicates that appear in a
//! head are *intensional* (IDB, derived), everything else must be stored in
//! the [`NamedDatabase`] (EDB). Evaluation runs the classic semi-naive
//! fixpoint: each iteration rewrites every rule once per recursive body atom,
//! binding that atom to the previous iteration's *delta*, so work is
//! proportional to new facts — and every rule body is planned and executed
//! through the paper's join/semijoin/projection pipeline.

use crate::ast::ConjunctiveQuery;
use crate::compile::{execute_query, PlanStrategy};
use crate::storage::{positional_schema, NamedDatabase};
use mjoin_relation::fxhash::FxHashMap;
use mjoin_relation::{ops, Error, Relation, Result, Value};

/// The result of evaluating a Datalog program: each IDB predicate's facts
/// (tuples in head-variable order) plus iteration statistics.
#[derive(Debug, Clone)]
pub struct DatalogResult {
    /// Facts per IDB predicate, sorted, in head order.
    pub facts: FxHashMap<String, Vec<Vec<Value>>>,
    /// Number of semi-naive iterations until the fixpoint (0 = the seed
    /// round only).
    pub iterations: usize,
    /// Total §2.3 cost across every rule-body execution.
    pub total_cost: u64,
}

impl DatalogResult {
    /// Facts of one predicate (empty slice if it derived nothing).
    pub fn facts_of(&self, predicate: &str) -> &[Vec<Value>] {
        self.facts.get(predicate).map_or(&[], |v| v.as_slice())
    }
}

/// Column names `c0, c1, …` for derived predicates.
fn idb_columns(arity: usize) -> Vec<String> {
    (0..arity).map(|i| format!("c{i}")).collect()
}

/// The delta predicate's working name (a character no parser identifier can
/// contain keeps it from colliding with user predicates).
fn delta_name(pred: &str) -> String {
    format!("Δ{pred}")
}

/// Validate the rule set and collect the IDB arity map.
fn idb_arities(
    edb: &NamedDatabase,
    rules: &[ConjunctiveQuery],
) -> Result<FxHashMap<String, usize>> {
    let mut arities: FxHashMap<String, usize> = FxHashMap::default();
    for rule in rules {
        if !rule.is_safe() {
            return Err(Error::Parse(format!("unsafe rule: {rule}")));
        }
        if edb.get(&rule.head_name).is_some() {
            return Err(Error::Parse(format!(
                "head predicate `{}` is a stored (EDB) relation",
                rule.head_name
            )));
        }
        match arities.get(&rule.head_name) {
            Some(&a) if a != rule.head_vars.len() => {
                return Err(Error::Parse(format!(
                    "predicate `{}` used with arities {a} and {}",
                    rule.head_name,
                    rule.head_vars.len()
                )))
            }
            _ => {
                arities.insert(rule.head_name.clone(), rule.head_vars.len());
            }
        }
    }
    // Every body predicate must be EDB or IDB.
    for rule in rules {
        for atom in &rule.body {
            if edb.get(&atom.predicate).is_none() && !arities.contains_key(&atom.predicate) {
                return Err(Error::Parse(format!(
                    "unknown predicate `{}` in rule {rule}",
                    atom.predicate
                )));
            }
        }
    }
    Ok(arities)
}

/// Evaluate `rules` against `edb` to the least fixpoint.
///
/// ```
/// use mjoin_cq::{evaluate_datalog, parse_rules, NamedDatabase, PlanStrategy};
///
/// let mut edb = NamedDatabase::new();
/// edb.add_relation("e", &["s", "d"], &[&[0, 1], &[1, 2], &[2, 3]]).unwrap();
/// let rules = parse_rules(
///     "t(x, y) :- e(x, y). t(x, z) :- t(x, y), e(y, z).",
/// ).unwrap();
/// let result = evaluate_datalog(&edb, &rules, PlanStrategy::Greedy).unwrap();
/// // Transitive closure of the 4-node chain: 6 pairs.
/// assert_eq!(result.facts_of("t").len(), 6);
/// ```
pub fn evaluate_datalog(
    edb: &NamedDatabase,
    rules: &[ConjunctiveQuery],
    strategy: PlanStrategy,
) -> Result<DatalogResult> {
    let arities = idb_arities(edb, rules)?;
    let mut fix_sp = mjoin_trace::span("datalog", "fixpoint");
    if fix_sp.is_active() {
        fix_sp.arg("rules", rules.len());
        fix_sp.arg("idb_predicates", arities.len());
    }
    let idb_names: Vec<String> = {
        let mut v: Vec<String> = arities.keys().cloned().collect();
        v.sort();
        v
    };

    // Facts and current deltas per IDB predicate, in head order, and the
    // working database (EDB + each IDB predicate and its delta) that rule
    // bodies read them from.
    let mut facts: FxHashMap<String, Relation> = FxHashMap::default();
    let mut delta: FxHashMap<String, Relation> = FxHashMap::default();
    let mut work = edb.clone();
    for p in &idb_names {
        let empty = Relation::empty(positional_schema(arities[p]));
        let cols = idb_columns(arities[p]);
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        work.add_shared(p, &col_refs, &empty)?;
        work.add_shared(&delta_name(p), &col_refs, &empty)?;
        facts.insert(p.clone(), empty.clone());
        delta.insert(p.clone(), empty);
    }
    let mut total_cost = 0u64;

    // Round 0 (the seed) evaluates every rule as-is: recursive rules
    // contribute nothing yet because IDB relations are empty. Every later
    // round is semi-naive: one rewrite per recursive body atom, that atom
    // bound to the previous round's delta.
    let mut iterations = 0usize;
    loop {
        let mut sp = mjoin_trace::span("datalog", "iteration");
        let mut derived: FxHashMap<&str, Relation> = idb_names
            .iter()
            .map(|p| (p.as_str(), Relation::empty(positional_schema(arities[p]))))
            .collect();
        let mut rules_fired = 0usize;
        for rule in rules {
            let variants: Vec<ConjunctiveQuery> = if iterations == 0 {
                vec![rule.clone()]
            } else {
                let recursive = |p: &str| delta.get(p).is_some_and(|d| !d.is_empty());
                (0..rule.body.len())
                    .filter(|&i| recursive(&rule.body[i].predicate))
                    .map(|i| {
                        let mut rewritten = rule.clone();
                        rewritten.body[i].predicate = delta_name(&rule.body[i].predicate);
                        rewritten
                    })
                    .collect()
            };
            for query in &variants {
                let res = execute_query(&work, query, strategy)?;
                rules_fired += 1;
                total_cost += res.ledger.total();
                let cols = res.head_columns();
                let tuples = Relation::from_columns(positional_schema(cols.len()), res.len(), cols);
                let acc = derived.get_mut(rule.head_name.as_str()).expect("IDB head");
                *acc = ops::union(acc, &tuples)?;
            }
        }

        // Fold the fresh facts in: Δp' = new − p, p' = p ∪ Δp'.
        let delta_rows: usize = delta.values().map(Relation::len).sum();
        let mut new_rows = 0usize;
        for p in &idb_names {
            let fresh = ops::difference(&derived[p.as_str()], &facts[p])?;
            new_rows += fresh.len();
            let known = facts.get_mut(p).expect("initialized");
            *known = ops::union(known, &fresh)?;
            delta.insert(p.clone(), fresh);
        }
        if sp.is_active() {
            sp.arg("iteration", iterations);
            sp.arg("rules_fired", rules_fired);
            sp.arg("delta_rows", delta_rows);
            sp.arg("new_rows", new_rows);
        }
        if new_rows == 0 {
            break;
        }
        iterations += 1;
        if iterations > 1_000_000 {
            return Err(Error::Parse("datalog fixpoint did not converge".into()));
        }
        for p in &idb_names {
            work.replace_shared(p, &facts[p])?;
            work.replace_shared(&delta_name(p), &delta[p])?;
        }
    }

    let out: FxHashMap<String, Vec<Vec<Value>>> = facts
        .into_iter()
        .map(|(p, rel)| (p, sorted_tuples(&rel)))
        .collect();
    if fix_sp.is_active() {
        fix_sp.arg("iterations", iterations);
        fix_sp.arg("total_cost", total_cost);
        fix_sp.arg("facts", out.values().map(Vec::len).sum::<usize>());
    }
    Ok(DatalogResult {
        facts: out,
        iterations,
        total_cost,
    })
}

/// `rel`'s tuples read out of its columns, sorted.
fn sorted_tuples(rel: &Relation) -> Vec<Vec<Value>> {
    let cols = rel.columns();
    let mut tuples: Vec<Vec<Value>> = (0..rel.len())
        .map(|i| cols.iter().map(|c| c.value(i)).collect())
        .collect();
    tuples.sort_unstable();
    tuples
}

/// Parse a multi-rule program: one rule per `.`-terminated statement.
pub fn parse_rules(text: &str) -> Result<Vec<ConjunctiveQuery>> {
    let mut rules = Vec::new();
    for chunk in text.split('.') {
        let chunk = chunk.trim();
        if chunk.is_empty() || chunk.starts_with('%') {
            continue;
        }
        rules.push(crate::parse::parse_query(chunk)?);
    }
    if rules.is_empty() {
        return Err(Error::Parse("no rules in program".into()));
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_edb(n: i64) -> NamedDatabase {
        let mut db = NamedDatabase::new();
        let edges: Vec<Vec<i64>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        let refs: Vec<&[i64]> = edges.iter().map(std::vec::Vec::as_slice).collect();
        db.add_relation("e", &["s", "d"], &refs).unwrap();
        db
    }

    fn ints(rows: &[Vec<Value>]) -> Vec<(i64, i64)> {
        rows.iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect()
    }

    #[test]
    fn transitive_closure_on_chain() {
        let db = chain_edb(6); // 0→1→2→3→4→5
        let rules = parse_rules("t(x, y) :- e(x, y). t(x, z) :- t(x, y), e(y, z).").unwrap();
        let res = evaluate_datalog(&db, &rules, PlanStrategy::Greedy).unwrap();
        // Closure of a 6-node chain: C(6,2) = 15 pairs.
        assert_eq!(res.facts_of("t").len(), 15);
        let pairs = ints(res.facts_of("t"));
        assert!(pairs.contains(&(0, 5)));
        assert!(!pairs.contains(&(5, 0)));
        // Semi-naive on a chain of length 5 needs ~5 iterations, not 15.
        assert!(res.iterations <= 6, "iterations = {}", res.iterations);
        assert!(res.total_cost > 0);
    }

    #[test]
    fn transitive_closure_on_cycle_saturates() {
        let mut db = NamedDatabase::new();
        db.add_relation("e", &["s", "d"], &[&[0, 1], &[1, 2], &[2, 0]])
            .unwrap();
        let rules = parse_rules("t(x, y) :- e(x, y). t(x, z) :- t(x, y), e(y, z).").unwrap();
        let res = evaluate_datalog(&db, &rules, PlanStrategy::Greedy).unwrap();
        // Strongly connected 3-cycle: all 9 pairs.
        assert_eq!(res.facts_of("t").len(), 9);
    }

    #[test]
    fn right_linear_equivalent() {
        let db = chain_edb(5);
        let left = parse_rules("t(x, y) :- e(x, y). t(x, z) :- t(x, y), e(y, z).").unwrap();
        let right = parse_rules("t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z).").unwrap();
        let a = evaluate_datalog(&db, &left, PlanStrategy::Greedy).unwrap();
        let b = evaluate_datalog(&db, &right, PlanStrategy::Greedy).unwrap();
        assert_eq!(a.facts_of("t"), b.facts_of("t"));
    }

    #[test]
    fn same_generation() {
        // parent(p, c); sg(x, y) if x and y are at the same depth below a
        // common ancestor structure.
        let mut db = NamedDatabase::new();
        db.add_relation("parent", &["p", "c"], &[&[0, 1], &[0, 2], &[1, 3], &[2, 4]])
            .unwrap();
        let rules = parse_rules(
            "sg(x, y) :- parent(p, x), parent(p, y). \
             sg(x, y) :- parent(px, x), sg(px, py), parent(py, y).",
        )
        .unwrap();
        let res = evaluate_datalog(&db, &rules, PlanStrategy::Greedy).unwrap();
        let pairs = ints(res.facts_of("sg"));
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(3, 4)));
        assert!(pairs.contains(&(3, 3)));
        assert!(!pairs.contains(&(1, 3)));
    }

    #[test]
    fn mutual_recursion_even_odd_paths() {
        let db = chain_edb(6);
        let rules = parse_rules(
            "odd(x, y) :- e(x, y). \
             odd(x, z) :- even(x, y), e(y, z). \
             even(x, z) :- odd(x, y), e(y, z).",
        )
        .unwrap();
        let res = evaluate_datalog(&db, &rules, PlanStrategy::Greedy).unwrap();
        let odd = ints(res.facts_of("odd"));
        let even = ints(res.facts_of("even"));
        assert!(odd.contains(&(0, 1)));
        assert!(odd.contains(&(0, 3)));
        assert!(odd.contains(&(0, 5)));
        assert!(even.contains(&(0, 2)));
        assert!(even.contains(&(0, 4)));
        assert!(!odd.contains(&(0, 2)));
        assert!(!even.contains(&(0, 3)));
    }

    #[test]
    fn nonrecursive_program_is_one_round() {
        let db = chain_edb(4);
        let rules = parse_rules("q(x, z) :- e(x, y), e(y, z).").unwrap();
        let res = evaluate_datalog(&db, &rules, PlanStrategy::DpOptimal).unwrap();
        assert_eq!(res.facts_of("q").len(), 2);
        assert_eq!(res.iterations, 1, "seed facts fold in, then fixpoint");
    }

    #[test]
    fn strategies_agree_on_closure() {
        let db = chain_edb(6);
        let rules = parse_rules("t(x, y) :- e(x, y). t(x, z) :- t(x, y), e(y, z).").unwrap();
        let a = evaluate_datalog(&db, &rules, PlanStrategy::Greedy).unwrap();
        let b = evaluate_datalog(&db, &rules, PlanStrategy::DpOptimal).unwrap();
        assert_eq!(a.facts_of("t"), b.facts_of("t"));
    }

    #[test]
    fn errors() {
        let db = chain_edb(3);
        // Head collides with EDB.
        let r = parse_rules("e(x, y) :- e(y, x).").unwrap();
        assert!(evaluate_datalog(&db, &r, PlanStrategy::Greedy).is_err());
        // Inconsistent arity.
        let r = parse_rules("t(x, y) :- e(x, y). t(x) :- e(x, x).").unwrap();
        assert!(evaluate_datalog(&db, &r, PlanStrategy::Greedy).is_err());
        // Unknown body predicate.
        let r = parse_rules("t(x, y) :- nope(x, y).").unwrap();
        assert!(evaluate_datalog(&db, &r, PlanStrategy::Greedy).is_err());
        // Empty program.
        assert!(parse_rules("  ").is_err());
    }

    #[test]
    fn constants_in_recursive_rules() {
        let db = chain_edb(6);
        // Reachability from node 0 only.
        let rules = parse_rules("r(y) :- e(0, y). r(z) :- r(y), e(y, z).").unwrap();
        let res = evaluate_datalog(&db, &rules, PlanStrategy::Greedy).unwrap();
        let vals: Vec<i64> = res
            .facts_of("r")
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 5]);
    }
}
