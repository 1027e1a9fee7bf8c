//! Parsing programs from the paper's textual notation.
//!
//! The inverse of [`crate::display::render`]: lines of the form
//!
//! ```text
//! R(V) := R(ABC) ⋉ R(CDE)
//! R(F) := π_C R(V)
//! R(V) := R(V) ⋈ R(F)
//! ```
//!
//! Base relations are referenced by their scheme's attribute letters
//! (resolved as a *set* against the database scheme, consuming multiset
//! occurrences in order); any other name is a relation scheme variable,
//! created at its first head occurrence. `:=`, `⋈`/`|x|`, `⋉`/`|x`, and
//! `π_`/`pi_` are accepted. The last line's head is the program result.

use crate::program::Program;
use crate::stmt::{Reg, Stmt};
use mjoin_hypergraph::DbScheme;
use mjoin_relation::fxhash::FxHashMap;
use mjoin_relation::{AttrSet, Catalog, Error, Result};

struct Names<'a> {
    catalog: &'a Catalog,
    scheme: &'a DbScheme,
    used_bases: Vec<bool>,
    /// Base register resolved for a given scheme text, so later mentions of
    /// the same text reuse the same occurrence.
    base_by_text: FxHashMap<String, usize>,
    temps: FxHashMap<String, usize>,
    temp_names: Vec<String>,
}

impl Names<'_> {
    /// Resolve a name inside `R(...)`: an existing temp, a base scheme, or a
    /// fresh temp if `allow_new_temp`.
    fn resolve(&mut self, name: &str, allow_new_temp: bool) -> Result<Reg> {
        if let Some(&t) = self.temps.get(name) {
            return Ok(Reg::Temp(t));
        }
        if let Some(&b) = self.base_by_text.get(name) {
            return Ok(Reg::Base(b));
        }
        // Try to read the name as an attribute set naming a base scheme.
        let mut attrs = AttrSet::new();
        let mut is_scheme = true;
        for ch in name.chars() {
            match self.catalog.lookup(&ch.to_string()) {
                Some(id) => {
                    attrs.insert(id);
                }
                None => {
                    is_scheme = false;
                    break;
                }
            }
        }
        if is_scheme {
            for idx in 0..self.scheme.num_relations() {
                if !self.used_bases[idx] && *self.scheme.attrs_of(idx) == attrs {
                    self.used_bases[idx] = true;
                    self.base_by_text.insert(name.to_string(), idx);
                    return Ok(Reg::Base(idx));
                }
            }
        }
        if allow_new_temp {
            let t = self.temp_names.len();
            self.temp_names.push(name.to_string());
            self.temps.insert(name.to_string(), t);
            return Ok(Reg::Temp(t));
        }
        Err(Error::Parse(format!(
            "`{name}` is neither a defined variable nor an unused base scheme"
        )))
    }
}

/// Extract the name inside `R(...)` starting at `text`; returns (name, rest).
fn parse_reg_token(text: &str) -> Result<(&str, &str)> {
    let text = text.trim_start();
    let rest = text
        .strip_prefix("R(")
        .ok_or_else(|| Error::Parse(format!("expected `R(…)` at `{text}`")))?;
    let close = rest
        .find(')')
        .ok_or_else(|| Error::Parse("unclosed `R(`".to_string()))?;
    Ok((rest[..close].trim(), &rest[close + 1..]))
}

/// The database scheme a program text declares for itself: what follows
/// its first `# scheme:` comment (`# scheme: AB,BC,CD`), if it has one.
pub fn scheme_directive(text: &str) -> Option<&str> {
    text.lines()
        .find_map(|l| l.trim().strip_prefix("# scheme:"))
        .map(str::trim)
}

/// Parse a comma-separated scheme list (`AB, BC, CD`) in the paper's
/// single-letter notation, interning into `catalog`. `None` when the list
/// names no relation scheme.
pub fn parse_scheme_list(catalog: &mut Catalog, text: &str) -> Option<DbScheme> {
    let parts: Vec<&str> = text
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    (!parts.is_empty()).then(|| DbScheme::parse(catalog, &parts))
}

/// Parse a program in display notation. `result` defaults to the last
/// statement's head; an empty input is an error (there is no way to name a
/// result register).
pub fn parse_program(catalog: &Catalog, scheme: &DbScheme, text: &str) -> Result<Program> {
    let mut names = Names {
        catalog,
        scheme,
        used_bases: vec![false; scheme.num_relations()],
        base_by_text: FxHashMap::default(),
        temps: FxHashMap::default(),
        temp_names: Vec::new(),
    };
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut temp_init: Vec<Option<Reg>> = Vec::new();
    let mut last_head: Option<Reg> = None;

    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head_name, rest) = parse_reg_token(line)?;
        let rest = rest.trim_start();
        let rest = rest
            .strip_prefix(":=")
            .ok_or_else(|| Error::Parse(format!("expected `:=` in `{line}`")))?
            .trim_start();

        // Projection?
        let proj_prefix = ["π_", "pi_"].iter().find_map(|p| rest.strip_prefix(p));
        if let Some(after) = proj_prefix {
            let after = after.trim_start();
            let split = after
                .find(char::is_whitespace)
                .ok_or_else(|| Error::Parse(format!("expected source after π in `{line}`")))?;
            let (attr_text, src_text) = after.split_at(split);
            let mut attrs = AttrSet::new();
            for ch in attr_text.chars() {
                attrs.insert(catalog.require(&ch.to_string())?);
            }
            let (src_name, tail) = parse_reg_token(src_text)?;
            if !tail.trim().is_empty() {
                return Err(Error::Parse(format!("trailing input in `{line}`")));
            }
            let src = names.resolve(src_name, false)?;
            let dst = names.resolve(head_name, true)?;
            if !dst.is_temp() {
                return Err(Error::Parse("projection head must be a variable".into()));
            }
            while temp_init.len() < names.temp_names.len() {
                temp_init.push(None);
            }
            stmts.push(Stmt::Project { dst, src, attrs });
            last_head = Some(dst);
            continue;
        }

        // Join or semijoin: `R(a) OP R(b)`.
        let (left_name, rest2) = parse_reg_token(rest)?;
        let rest2 = rest2.trim_start();
        let (op, rest3) = if let Some(r) = rest2.strip_prefix('⋈') {
            ('j', r)
        } else if let Some(r) = rest2.strip_prefix("|x|") {
            ('j', r)
        } else if let Some(r) = rest2.strip_prefix('⋉') {
            ('s', r)
        } else if let Some(r) = rest2.strip_prefix("|x") {
            ('s', r)
        } else {
            return Err(Error::Parse(format!("expected ⋈ or ⋉ in `{line}`")));
        };
        let (right_name, tail) = parse_reg_token(rest3)?;
        if !tail.trim().is_empty() {
            return Err(Error::Parse(format!("trailing input in `{line}`")));
        }

        match op {
            'j' => {
                // If the head reads itself (V := V ⋈ W) the head must already
                // exist — unless the left operand *is* a base scheme, in
                // which case the head aliases it (Algorithm 2's step 1 fused
                // into the first statement, e.g. `R(V) := R(ABC) ⋉ R(CDE)`).
                let left = names.resolve(left_name, false)?;
                let right = names.resolve(right_name, false)?;
                let dst = if head_name == left_name {
                    left
                } else {
                    names.resolve(head_name, true)?
                };
                if !dst.is_temp() {
                    return Err(Error::Parse("join head must be a variable".into()));
                }
                while temp_init.len() < names.temp_names.len() {
                    temp_init.push(None);
                }
                stmts.push(Stmt::Join { dst, left, right });
                last_head = Some(dst);
            }
            _ => {
                let filter = names.resolve(right_name, false)?;
                // Head and left operand must denote the same register; if
                // the head is a new variable and the left is a base, the
                // variable starts as an alias of that base.
                let target = if head_name == left_name {
                    names.resolve(head_name, true)?
                } else {
                    let left = names.resolve(left_name, false)?;
                    let head = names.resolve(head_name, true)?;
                    match head {
                        Reg::Temp(t) if temp_init.len() <= t => {
                            // Fresh variable: alias it to the left operand.
                            while temp_init.len() < t {
                                temp_init.push(None);
                            }
                            temp_init.push(Some(left));
                            head
                        }
                        _ => {
                            return Err(Error::Parse(format!(
                            "semijoin head `{head_name}` must equal its left operand `{left_name}`"
                        )))
                        }
                    }
                };
                while temp_init.len() < names.temp_names.len() {
                    temp_init.push(None);
                }
                stmts.push(Stmt::Semijoin { target, filter });
                last_head = Some(target);
            }
        }
    }

    let result = last_head.ok_or_else(|| Error::Parse("empty program".to_string()))?;
    while temp_init.len() < names.temp_names.len() {
        temp_init.push(None);
    }
    Ok(Program {
        num_bases: scheme.num_relations(),
        temp_names: names.temp_names,
        temp_init,
        stmts,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::render;
    use crate::interp::execute;
    use crate::validate::validate;
    use mjoin_relation::{relation_of_ints, Database};

    #[test]
    fn scheme_directive_and_list() {
        let text = "# a comment\n  # scheme: AB, BC ,\nR(V) := R(AB) ⋈ R(BC)\n";
        assert_eq!(scheme_directive(text), Some("AB, BC ,"));
        assert_eq!(scheme_directive("R(V) := R(AB) ⋈ R(BC)"), None);
        let mut c = Catalog::new();
        let s = parse_scheme_list(&mut c, "AB, BC ,").unwrap();
        assert_eq!(s, DbScheme::parse(&mut c, &["AB", "BC"]));
        assert!(parse_scheme_list(&mut c, " , ").is_none());
    }

    fn setup() -> (Catalog, DbScheme, Database) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["ABC", "CDE", "EFG", "GHA"]);
        let db = Database::from_relations(vec![
            relation_of_ints(&mut c, "ABC", &[&[1, 2, 3]]).unwrap(),
            relation_of_ints(&mut c, "CDE", &[&[3, 4, 5]]).unwrap(),
            relation_of_ints(&mut c, "EFG", &[&[5, 6, 7]]).unwrap(),
            relation_of_ints(&mut c, "GHA", &[&[7, 8, 1]]).unwrap(),
        ]);
        (c, s, db)
    }

    /// The paper's Example 6 program, verbatim.
    const EXAMPLE6: &str = "\
R(V) := R(ABC) ⋉ R(CDE)
R(F) := π_C R(V)
R(F) := R(F) ⋈ R(CDE)
R(F) := π_CE R(F)
R(F) := R(F) ⋉ R(EFG)
R(V) := R(V) ⋈ R(F)
R(V) := R(V) ⋈ R(EFG)
R(V) := R(V) ⋉ R(GHA)
R(V) := R(V) ⋈ R(CDE)
R(V) := R(V) ⋈ R(GHA)
";

    #[test]
    fn parses_example6_and_computes_join() {
        let (c, s, db) = setup();
        let p = parse_program(&c, &s, EXAMPLE6).unwrap();
        assert_eq!(p.len(), 10);
        validate(&p, &s).unwrap();
        let out = execute(&p, &db);
        assert_eq!(*out.result, db.join_all());
    }

    #[test]
    fn render_parse_roundtrip() {
        let (c, s, db) = setup();
        let p = parse_program(&c, &s, EXAMPLE6).unwrap();
        let text = render(&p, &s, &c);
        let p2 = parse_program(&c, &s, &text).unwrap();
        assert_eq!(p.stmts, p2.stmts);
        assert_eq!(*execute(&p2, &db).result, db.join_all());
    }

    #[test]
    fn ascii_operators_accepted() {
        let (c, s, db) = setup();
        let text = "\
R(V) := R(ABC) |x R(CDE)
R(V) := R(V) |x| R(CDE)
R(V) := R(V) |x| R(EFG)
R(V) := R(V) |x| R(GHA)
";
        let p = parse_program(&c, &s, text).unwrap();
        assert_eq!(*execute(&p, &db).result, db.join_all());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let (c, s, _db) = setup();
        let text = "# header\n\nR(V) := R(ABC) ⋈ R(CDE)\n";
        let p = parse_program(&c, &s, text).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn errors() {
        let (c, s, _db) = setup();
        assert!(parse_program(&c, &s, "").is_err());
        assert!(parse_program(&c, &s, "R(V) = R(ABC) ⋈ R(CDE)").is_err());
        assert!(parse_program(&c, &s, "R(V) := R(QQQ) ⋈ R(CDE)").is_err());
        assert!(parse_program(&c, &s, "R(V) := R(ABC) ? R(CDE)").is_err());
        // Reading an undefined variable.
        assert!(parse_program(&c, &s, "R(V) := R(W) ⋈ R(CDE)").is_err());
        // Unclosed register.
        assert!(parse_program(&c, &s, "R(V := R(ABC) ⋈ R(CDE)").is_err());
    }

    #[test]
    fn multiset_occurrences_resolved_in_order() {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, &["AB", "AB", "BC"]);
        let text = "R(V) := R(AB) ⋈ R(BC)\nR(V) := R(V) ⋈ R(AB)\n";
        let p = parse_program(&c, &s, text).unwrap();
        // First AB mention binds occurrence 0 (and is reused by name);
        // hmm — the second `R(AB)` reuses the same text. Both refer to base 0.
        // That is the documented behavior: to address the second occurrence
        // a distinct text form is unavailable, so programs needing both
        // occurrences must come from the API, not the parser.
        validate(&p, &s).unwrap();
        assert_eq!(p.num_bases, 3);
    }
}
