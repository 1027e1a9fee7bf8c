//! Abstract syntax for conjunctive queries.
//!
//! A conjunctive query is a head and a body of relational atoms:
//!
//! ```text
//! Q(x, z) :- R(x, y), S(y, z), T(y, 3).
//! ```
//!
//! Variables join positionally-named columns of the stored relations; shared
//! variables are natural-join conditions, constants are selections. This is
//! exactly the multi-join workload the paper's opening sentence motivates
//! ("computing the natural join of a set of relations plays an important
//! role in relational and deductive database systems").

use mjoin_relation::Value;
use std::fmt;

/// A term in an atom: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A query variable (joins wherever it repeats).
    Var(String),
    /// A constant (a selection on that column).
    Const(Value),
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Value::Int(i)) => write!(f, "{i}"),
            Term::Const(Value::Str(s)) => write!(f, "\"{s}\""),
        }
    }
}

/// A body atom: a stored predicate applied to terms, positionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The stored relation's name.
    pub predicate: String,
    /// Terms, one per column of the stored relation.
    pub terms: Vec<Term>,
}

impl Atom {
    /// The distinct variable names appearing in this atom, in first-use order.
    pub fn variables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !out.contains(&v.as_str()) {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A conjunctive query `head(vars) :- atom, atom, …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Name of the head predicate (cosmetic).
    pub head_name: String,
    /// Output variables, in output-column order.
    pub head_vars: Vec<String>,
    /// The body atoms.
    pub body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// All distinct body variables, in first-use order.
    pub fn body_variables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for atom in &self.body {
            for v in atom.variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// A query is *safe* if every head variable occurs in the body.
    pub fn is_safe(&self) -> bool {
        let body = self.body_variables();
        self.head_vars.iter().all(|v| body.contains(&v.as_str()))
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.head_name)?;
        for (i, v) in self.head_vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") :- ")?;
        for (i, atom) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{atom}")?;
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> ConjunctiveQuery {
        ConjunctiveQuery {
            head_name: "Q".into(),
            head_vars: vec!["x".into(), "z".into()],
            body: vec![
                Atom {
                    predicate: "R".into(),
                    terms: vec![Term::Var("x".into()), Term::Var("y".into())],
                },
                Atom {
                    predicate: "S".into(),
                    terms: vec![Term::Var("y".into()), Term::Var("z".into())],
                },
                Atom {
                    predicate: "T".into(),
                    terms: vec![Term::Var("y".into()), Term::Const(Value::Int(3))],
                },
            ],
        }
    }

    #[test]
    fn variables_in_order() {
        let q = q();
        assert_eq!(q.body_variables(), vec!["x", "y", "z"]);
        assert_eq!(q.body[0].variables(), vec!["x", "y"]);
    }

    #[test]
    fn safety() {
        let mut q = q();
        assert!(q.is_safe());
        q.head_vars.push("w".into());
        assert!(!q.is_safe());
    }

    #[test]
    fn display_roundtrips_visually() {
        assert_eq!(q().to_string(), "Q(x, z) :- R(x, y), S(y, z), T(y, 3).");
    }

    #[test]
    fn repeated_variable_listed_once() {
        let a = Atom {
            predicate: "E".into(),
            terms: vec![Term::Var("x".into()), Term::Var("x".into())],
        };
        assert_eq!(a.variables(), vec!["x"]);
    }
}
