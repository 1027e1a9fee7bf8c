//! Diagnostics: what a lint pass reports, and how reports render.

use mjoin_trace::json::Value;
use std::fmt;

/// How serious a finding is.
///
/// Ordering is by severity, so `max()` over a report yields the worst
/// finding and `--deny warn`-style gates compare with `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never wrong by itself.
    Note,
    /// A defect the paper's pipeline never produces (a Cartesian join, a
    /// dead store, a recomputation): almost certainly a program bug.
    Warn,
    /// The program is broken: invalid per §2.2, or its schedule races.
    Error,
}

impl Severity {
    /// Lowercase name, as printed and as accepted by `--deny`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parse a `--deny` threshold name.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "note" => Some(Severity::Note),
            "warn" | "warning" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// The lint's stable kebab-case name (e.g. `cartesian-join`).
    pub lint: &'static str,
    /// The offending statement index, if the finding is about one.
    pub stmt: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
    /// The offending statement rendered in the paper's notation.
    pub excerpt: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.lint)?;
        if let Some(i) = self.stmt {
            write!(f, " stmt {i}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(e) = &self.excerpt {
            write!(f, "\n    {e}")?;
        }
        Ok(())
    }
}

/// The outcome of analyzing one program: every pass's findings, in pass
/// order then statement order.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// The most severe finding, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the report has no findings at `threshold` or above.
    pub fn clean_at(&self, threshold: Severity) -> bool {
        // (Not `Option::is_none_or`: the workspace supports rust 1.75.)
        match self.worst() {
            Some(w) => w < threshold,
            None => true,
        }
    }

    /// Whether the report has no errors and no warnings (notes allowed) —
    /// the bar every Algorithm-2/optimizer-generated program must meet.
    pub fn is_clean(&self) -> bool {
        self.clean_at(Severity::Warn)
    }

    /// Findings raised by the lint named `lint`.
    pub fn by_lint(&self, lint: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.lint == lint).collect()
    }

    /// Plain-text rendering, one finding per entry, with a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Note)
        ));
        out
    }

    /// JSON rendering: an object with a `diagnostics` array and counters.
    pub fn to_json(&self) -> Value {
        let diagnostics = self.diagnostics.iter().map(|d| {
            Value::obj()
                .set("severity", Value::str(d.severity.as_str()))
                .set("lint", Value::str(d.lint))
                .set("stmt", d.stmt.map_or(Value::Null, |s| Value::u64(s as u64)))
                .set("message", Value::str(d.message.as_str()))
                .set(
                    "excerpt",
                    d.excerpt.as_deref().map_or(Value::Null, Value::str),
                )
        });
        let count = |severity| Value::u64(self.count(severity) as u64);
        Value::obj()
            .set("diagnostics", Value::Arr(diagnostics.collect()))
            .set("errors", count(Severity::Error))
            .set("warnings", count(Severity::Warn))
            .set("notes", count(Severity::Note))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity, lint: &'static str) -> Diagnostic {
        Diagnostic {
            severity,
            lint,
            stmt: Some(3),
            message: "msg".into(),
            excerpt: Some("R(V) := R(AB) ⋈ R(CD)".into()),
        }
    }

    #[test]
    fn severity_orders_and_parses() {
        assert!(Severity::Note < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::parse("warn"), Some(Severity::Warn));
        assert_eq!(Severity::parse("warning"), Some(Severity::Warn));
        assert_eq!(Severity::parse("bogus"), None);
    }

    #[test]
    fn report_gates() {
        let mut r = Report::default();
        assert!(r.is_clean());
        assert!(r.clean_at(Severity::Note));
        r.diagnostics.push(diag(Severity::Note, "claim-c-bound"));
        assert!(r.is_clean(), "notes do not break cleanliness");
        assert!(!r.clean_at(Severity::Note));
        r.diagnostics.push(diag(Severity::Warn, "cartesian-join"));
        assert!(!r.is_clean());
        assert!(r.clean_at(Severity::Error));
        assert_eq!(r.worst(), Some(Severity::Warn));
        assert_eq!(r.by_lint("cartesian-join").len(), 1);
    }

    #[test]
    fn json_is_escaped() {
        let mut r = Report::default();
        r.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            lint: "validate",
            stmt: None,
            message: "bad \"quote\"\nand newline".into(),
            excerpt: None,
        });
        let json = r.to_json().render();
        assert!(json.contains("\\\"quote\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"stmt\":null"));
        assert!(json.ends_with("\"errors\":1,\"warnings\":0,\"notes\":0}"));
        assert_eq!(Value::parse(&json), Ok(r.to_json()));
    }

    #[test]
    fn text_rendering_includes_excerpt() {
        let mut r = Report::default();
        r.diagnostics.push(diag(Severity::Warn, "cartesian-join"));
        let text = r.render_text();
        assert!(text.contains("warn[cartesian-join] stmt 3: msg"));
        assert!(text.contains("R(V) := R(AB) ⋈ R(CD)"));
        assert!(text.contains("0 error(s), 1 warning(s), 0 note(s)"));
    }
}
