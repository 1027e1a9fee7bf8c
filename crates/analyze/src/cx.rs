//! The shared analysis context: every dataflow fact the passes consume,
//! computed once per analysis run.
//!
//! Building an [`AnalysisCx`] performs
//!
//! * static validation ([`fn@mjoin_program::validate`] — a context only exists
//!   for valid programs);
//! * a forward *scheme* sweep recording every operand's scheme at its point
//!   of use (the final schemes in [`ValidationInfo`] are not enough: a
//!   variable's scheme changes as it is rewritten);
//! * a forward *value-numbering* sweep (available expressions over
//!   registers): two reads get the same number iff they provably denote the
//!   same relation, which powers `redundant-recompute` and `noop-semijoin`;
//! * backward liveness ([`mjoin_program::Liveness`] — the same bitset
//!   analysis `eliminate_dead_code` rewrites with, so the `dead-store` lint
//!   and the optimizer can never disagree);
//! * def-use chains (which later statements read each statement's head);
//! * the level [`Schedule`], for the `schedule-audit` pass;
//! * the program rendered in the paper's notation, one line per statement,
//!   for diagnostic excerpts — on the first [`AnalysisCx::excerpt`] call,
//!   since only a diagnostic, a rejection or a report prints one (a warm
//!   server request that is admitted renders none).

use mjoin_hypergraph::DbScheme;
use mjoin_program::dataflow::{num_regs, reg_index};
use mjoin_program::schedule::read_closure;
use mjoin_program::{display, schedule, validate, Liveness, Program, Reg, Schedule, Stmt};
use mjoin_program::{ValidateError, ValidationInfo};
use mjoin_relation::fxhash::FxHashMap;
use mjoin_relation::{AttrSet, Catalog};
use std::borrow::Cow;
use std::ops::Deref;
use std::sync::OnceLock;

/// A value number: two occurrences with the same number provably hold the
/// same relation (the converse does not hold — value numbering is
/// conservative).
pub type Vn = u32;

/// The defining expression of a value number, over operand value numbers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprKey {
    /// A base relation as loaded — value number `i` for base `i`.
    Input(usize),
    /// Natural join; operands normalized to `(min, max)` (⋈ commutes).
    Join(Vn, Vn),
    /// Semijoin `(target, filter)` — not commutative.
    Semijoin(Vn, Vn),
    /// Projection of a value onto an attribute set.
    Project(Vn, AttrSet),
}

/// Per-statement facts, in statement order.
#[derive(Debug, Clone)]
pub struct StmtFacts {
    /// Schemes of the operand registers *at this point*: `[src]` for a
    /// projection, `[left, right]` for a join, `[target, filter]` for a
    /// semijoin.
    pub operand_schemes: Vec<AttrSet>,
    /// Value numbers of the operands, same order.
    pub operand_vns: Vec<Vn>,
    /// Scheme of the head after the statement.
    pub head_scheme: AttrSet,
    /// Value number assigned to the head.
    pub head_vn: Vn,
    /// `Some(j)` if statement `j < i` already computed this exact value
    /// (same expression over the same operand values).
    pub redundant_with: Option<usize>,
}

/// Everything the passes share. See the module docs. The facts that do not
/// borrow the program ([`CxFacts`]) are reached through `Deref`, owned or
/// borrowed from a holder that keeps them across analyses
/// ([`AnalysisCx::with_facts`]).
pub struct AnalysisCx<'a> {
    /// The program under analysis.
    pub program: &'a Program,
    /// Its database scheme.
    pub scheme: &'a DbScheme,
    /// The attribute catalog, for rendering.
    pub catalog: &'a Catalog,
    facts: Cow<'a, CxFacts>,
}

/// The dataflow facts of an [`AnalysisCx`]: everything it computes about
/// its program, owned, so a caller can keep them beside the program.
#[derive(Debug, Clone)]
pub struct CxFacts {
    /// Final register schemes from validation.
    pub info: ValidationInfo,
    /// Backward liveness (shared with `eliminate_dead_code`).
    pub liveness: Liveness,
    /// Per-statement dataflow facts.
    pub stmts: Vec<StmtFacts>,
    /// Def-use chains: `uses[i]` lists the statements reading statement
    /// `i`'s head before it is overwritten (read closures included).
    pub uses: Vec<Vec<usize>>,
    /// The defining expression of every value number.
    pub def_of: FxHashMap<Vn, ExprKey>,
    /// The level schedule of the program.
    pub schedule: Schedule,
    /// The program rendered in paper notation, one line per statement;
    /// rendered by the first [`AnalysisCx::excerpt`].
    lines: OnceLock<Vec<String>>,
}

impl Deref for AnalysisCx<'_> {
    type Target = CxFacts;

    fn deref(&self) -> &CxFacts {
        &self.facts
    }
}

impl<'a> AnalysisCx<'a> {
    /// Build the context, validating first.
    pub fn new(
        program: &'a Program,
        scheme: &'a DbScheme,
        catalog: &'a Catalog,
    ) -> Result<Self, ValidateError> {
        let info = validate(program, scheme)?;
        Ok(Self::from_validated(program, scheme, catalog, info))
    }

    /// Build the context for a program already known to validate, reusing
    /// the [`ValidationInfo`] that [`validate()`] returned for it.
    pub fn from_validated(
        program: &'a Program,
        scheme: &'a DbScheme,
        catalog: &'a Catalog,
        info: ValidationInfo,
    ) -> Self {
        let facts = Cow::Owned(CxFacts::new(program, scheme, info));
        AnalysisCx {
            program,
            scheme,
            catalog,
            facts,
        }
    }

    /// The context over facts computed earlier for this same program and
    /// scheme ([`CxFacts::new`]); nothing is recomputed.
    pub fn with_facts(
        program: &'a Program,
        scheme: &'a DbScheme,
        catalog: &'a Catalog,
        facts: &'a CxFacts,
    ) -> Self {
        let facts = Cow::Borrowed(facts);
        AnalysisCx {
            program,
            scheme,
            catalog,
            facts,
        }
    }
}

impl CxFacts {
    /// Compute the facts of a program already known to validate against
    /// `scheme`, from the [`ValidationInfo`] [`validate()`] returned.
    pub fn new(program: &Program, scheme: &DbScheme, info: ValidationInfo) -> Self {
        let liveness = Liveness::compute(program);
        let sched = schedule(program);

        // Forward sweeps: schemes, value numbers, def-use.
        let mut base_schemes: Vec<AttrSet> = scheme.edges().to_vec();
        let mut temp_schemes: Vec<Option<AttrSet>> = vec![None; program.temp_names.len()];
        let mut vn_of: Vec<Option<Vn>> = vec![None; num_regs(program)];
        let mut def_of: FxHashMap<Vn, ExprKey> = FxHashMap::default();
        let mut avail: FxHashMap<ExprKey, (Vn, usize)> = FxHashMap::default();
        let mut next_vn: Vn = 0;
        for (i, _) in scheme.edges().iter().enumerate() {
            vn_of[i] = Some(next_vn);
            def_of.insert(next_vn, ExprKey::Input(i));
            next_vn += 1;
        }

        let mut last_writer: Vec<Option<usize>> = vec![None; num_regs(program)];
        let mut uses: Vec<Vec<usize>> = vec![Vec::new(); program.stmts.len()];
        let mut stmts = Vec::with_capacity(program.stmts.len());

        let resolve_scheme = |bs: &[AttrSet], ts: &[Option<AttrSet>], reg: Reg| -> AttrSet {
            let mut cur = reg;
            loop {
                match cur {
                    Reg::Base(b) => return bs[b].clone(),
                    Reg::Temp(t) => match &ts[t] {
                        Some(s) => return s.clone(),
                        None => cur = program.temp_init[t].expect("validated alias"),
                    },
                }
            }
        };
        let resolve_vn = |vn_of: &[Option<Vn>], reg: Reg| -> Vn {
            let mut cur = reg;
            loop {
                match vn_of[reg_index(program, cur)] {
                    Some(vn) => return vn,
                    None => match cur {
                        Reg::Temp(t) => {
                            cur = program.temp_init[t].expect("validated alias");
                        }
                        Reg::Base(_) => unreachable!("bases are numbered at entry"),
                    },
                }
            }
        };

        for (i, stmt) in program.stmts.iter().enumerate() {
            // Def-use: every register in a read closure charges its last
            // writer with a use.
            let mut closure = Vec::new();
            for r in stmt.reads() {
                read_closure(program, r, &mut closure);
            }
            for &r in &closure {
                if let Some(w) = last_writer[reg_index(program, r)] {
                    if !uses[w].contains(&i) {
                        uses[w].push(i);
                    }
                }
            }

            let (operand_schemes, operand_vns, key) = match stmt {
                Stmt::Project { src, attrs, .. } => {
                    let s = resolve_scheme(&base_schemes, &temp_schemes, *src);
                    let v = resolve_vn(&vn_of, *src);
                    (vec![s], vec![v], ExprKey::Project(v, attrs.clone()))
                }
                Stmt::Join { left, right, .. } => {
                    let ls = resolve_scheme(&base_schemes, &temp_schemes, *left);
                    let rs = resolve_scheme(&base_schemes, &temp_schemes, *right);
                    let lv = resolve_vn(&vn_of, *left);
                    let rv = resolve_vn(&vn_of, *right);
                    (
                        vec![ls, rs],
                        vec![lv, rv],
                        ExprKey::Join(lv.min(rv), lv.max(rv)),
                    )
                }
                Stmt::Semijoin { target, filter } => {
                    let ts = resolve_scheme(&base_schemes, &temp_schemes, *target);
                    let fs = resolve_scheme(&base_schemes, &temp_schemes, *filter);
                    let tv = resolve_vn(&vn_of, *target);
                    let fv = resolve_vn(&vn_of, *filter);
                    (vec![ts, fs], vec![tv, fv], ExprKey::Semijoin(tv, fv))
                }
            };

            // Available expressions: a key hit means the identical value was
            // already computed — the head inherits the memoized number.
            let (head_vn, redundant_with) = match avail.get(&key) {
                Some(&(vn, j)) => (vn, Some(j)),
                None => {
                    let vn = next_vn;
                    next_vn += 1;
                    avail.insert(key.clone(), (vn, i));
                    def_of.insert(vn, key);
                    (vn, None)
                }
            };

            // Update schemes and value numbers for the head.
            let head = stmt.head();
            let head_scheme = match stmt {
                Stmt::Project { attrs, .. } => attrs.clone(),
                Stmt::Join { .. } => operand_schemes[0].union(&operand_schemes[1]),
                Stmt::Semijoin { .. } => operand_schemes[0].clone(),
            };
            match head {
                Reg::Base(b) => base_schemes[b] = head_scheme.clone(),
                Reg::Temp(t) => temp_schemes[t] = Some(head_scheme.clone()),
            }
            vn_of[reg_index(program, head)] = Some(head_vn);
            last_writer[reg_index(program, head)] = Some(i);

            stmts.push(StmtFacts {
                operand_schemes,
                operand_vns,
                head_scheme,
                head_vn,
                redundant_with,
            });
        }

        CxFacts {
            info,
            liveness,
            stmts,
            uses,
            def_of,
            schedule: sched,
            lines: OnceLock::new(),
        }
    }
}

impl<'a> AnalysisCx<'a> {
    /// Render an attribute set in paper style (`ACE`), for messages.
    pub fn attrs_name(&self, attrs: &AttrSet) -> String {
        mjoin_relation::Schema::from_set(attrs)
            .display(self.catalog)
            .to_string()
    }

    /// The rendered excerpt of statement `i`. The first call renders the
    /// whole program.
    pub fn excerpt(&self, i: usize) -> Option<String> {
        let lines = self.lines.get_or_init(|| {
            let text = display::render(self.program, self.scheme, self.catalog);
            let lines: Vec<String> = text.lines().map(str::to_owned).collect();
            debug_assert_eq!(lines.len(), self.program.stmts.len());
            lines
        });
        lines.get(i).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_program::ProgramBuilder;

    fn scheme(schemes: &[&str]) -> (Catalog, DbScheme) {
        let mut c = Catalog::new();
        let s = DbScheme::parse(&mut c, schemes);
        (c, s)
    }

    #[test]
    fn value_numbers_detect_recomputation() {
        let (c, s) = scheme(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp("V");
        let w = b.new_temp("W");
        b.join(v, Reg::Base(0), Reg::Base(1));
        b.join(w, Reg::Base(1), Reg::Base(0)); // same value, flipped order
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &s, &c).unwrap();
        assert_eq!(cx.stmts[0].redundant_with, None);
        assert_eq!(cx.stmts[1].redundant_with, Some(0));
        assert_eq!(cx.stmts[0].head_vn, cx.stmts[1].head_vn);
    }

    #[test]
    fn rewriting_an_operand_breaks_availability() {
        let (c, s) = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp("V");
        let w = b.new_temp("W");
        b.join(v, Reg::Base(0), Reg::Base(1));
        b.semijoin(Reg::Base(0), Reg::Base(2)); // Base(0) changes value
        b.join(w, Reg::Base(0), Reg::Base(1)); // NOT the same computation
        let p = b.finish(w);
        let cx = AnalysisCx::new(&p, &s, &c).unwrap();
        assert_eq!(cx.stmts[2].redundant_with, None);
        assert_ne!(cx.stmts[0].head_vn, cx.stmts[2].head_vn);
    }

    #[test]
    fn operand_schemes_are_point_in_time() {
        let (c, s) = scheme(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1)); // reads AB via alias, head becomes ABC
        b.semijoin(v, Reg::Base(1)); // target scheme is now ABC
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &s, &c).unwrap();
        assert_eq!(cx.attrs_name(&cx.stmts[0].operand_schemes[0]), "AB");
        assert_eq!(cx.attrs_name(&cx.stmts[1].operand_schemes[0]), "ABC");
        assert_eq!(cx.excerpt(0).unwrap(), "R(V) := R(AB) ⋈ R(BC)");
    }

    #[test]
    fn def_use_chains_follow_alias_reads() {
        let (c, s) = scheme(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(Reg::Base(0), Reg::Base(1)); // stmt 0 writes Base(0)
        b.join(v, v, Reg::Base(1)); // stmt 1 reads Base(0) through V's alias
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &s, &c).unwrap();
        assert_eq!(cx.uses[0], vec![1]);
        assert!(cx.uses[1].is_empty());
    }

    #[test]
    fn invalid_program_is_rejected() {
        let (c, s) = scheme(&["AB", "BC"]);
        let p = Program {
            num_bases: 2,
            temp_names: vec!["V".into()],
            temp_init: vec![None],
            stmts: vec![],
            result: Reg::Temp(0),
        };
        assert!(AnalysisCx::new(&p, &s, &c).is_err());
    }
}
