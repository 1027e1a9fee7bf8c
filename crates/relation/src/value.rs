//! Scalar values stored in relation tuples.
//!
//! The paper's cost model counts tuples, not bytes, so the value domain only
//! needs to be hashable and comparable. We support 64-bit integers (the
//! workhorse for synthetic workloads) and interned strings (for realistic
//! example data). Strings are reference-counted so that cloning a tuple is
//! cheap and hash joins do not copy string payloads.

use std::fmt;
use std::sync::Arc;

/// A single attribute value inside a tuple.
///
/// `Value` is totally ordered: all integers sort before all strings. This is
/// an arbitrary but fixed convention so relations can be printed and compared
/// deterministically.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// An interned, immutable string.
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// A deterministic 64-bit content hash, independent of where the value
    /// is stored. This is the *one* per-cell hash the engine uses: the
    /// kernels precompute it per dictionary entry and fold it per key
    /// position, and [`crate::relation::Relation`] fingerprints fold it
    /// across whole tuples — so hashes computed from a boxed row, an
    /// integer column or an interned column agree bit-for-bit.
    #[inline]
    pub fn stable_hash(&self) -> u64 {
        use crate::fxhash::FxHasher;
        use std::hash::Hasher;
        match self {
            Value::Int(v) => {
                let mut h = FxHasher::default();
                h.write_u64(*v as u64);
                h.finish()
            }
            Value::Str(s) => {
                let mut h = FxHasher::default();
                h.write(s.as_bytes());
                // Distinguish `Str("5")` from `Int(5)`-adjacent byte streams
                // and `""` from the hasher's initial state.
                h.write_u8(0xff);
                h.finish()
            }
        }
    }

    /// Construct an integer value.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Return the integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// Return the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    /// Parse a value from its text form: an integer if the text parses as
    /// `i64`, otherwise a string. This is the convention used by the TSV
    /// loader.
    pub fn parse(text: &str) -> Self {
        match text.parse::<i64>() {
            Ok(v) => Value::Int(v),
            Err(_) => Value::str(text),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        let v = Value::int(42);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.as_str(), None);
        assert_eq!(v.to_string(), "42");
    }

    #[test]
    fn str_roundtrip() {
        let v = Value::str("hello");
        assert_eq!(v.as_str(), Some("hello"));
        assert_eq!(v.as_int(), None);
        assert_eq!(v.to_string(), "hello");
    }

    #[test]
    fn parse_prefers_int() {
        assert_eq!(Value::parse("17"), Value::Int(17));
        assert_eq!(Value::parse("-3"), Value::Int(-3));
        assert_eq!(Value::parse("x17"), Value::str("x17"));
        // Overflowing integers fall back to strings.
        assert_eq!(
            Value::parse("99999999999999999999"),
            Value::str("99999999999999999999")
        );
    }

    #[test]
    fn ordering_ints_before_strings() {
        let mut vs = vec![Value::str("a"), Value::int(5), Value::int(-1)];
        vs.sort();
        assert_eq!(vs, vec![Value::int(-1), Value::int(5), Value::str("a")]);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from("s".to_string()), Value::str("s"));
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let v = Value::str("shared");
        let w = v.clone();
        assert_eq!(v, w);
        if let (Value::Str(a), Value::Str(b)) = (&v, &w) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("expected strings");
        }
    }
}
