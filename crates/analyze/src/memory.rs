//! Static peak-memory certificates: the byte-level companion of the
//! Theorem-2 cost certificate.
//!
//! [`memory_report`] abstract-interprets a §2.2 program *without touching a
//! tuple*: it replays the register file over the certified per-statement
//! cardinality bounds (the elementwise minimum of the [`Certificate`]
//! product bounds and the [`crate::absint::interval_analysis`] highs — the
//! same admitted bound the cost gate uses) and converts tuples to bytes
//! under the columnar layout's model. The result is a [`MemCertificate`]:
//! for every statement the bytes resident before it, the bytes its head and
//! its hash build side can add while it runs, and the statement-local peak —
//! plus the program-wide peak and the statement carrying it.
//!
//! ## The byte model
//!
//! * A register holding `n` tuples of arity `a` costs `n · a · 8` bytes.
//!   [`CELL_BYTES`] = 8 is an upper bound, not the layout: an integer cell
//!   takes 1, 2, 4 or 8 bytes by its column's span, and a dict-interned
//!   string a 4-byte code plus a shared value pool whose amortized share the
//!   flat 8 covers. The bound is kept on purpose, so that admission, spill
//!   plans and every certified figure do not move with the data's spans;
//!   pricing the bytes the executor really holds is ROADMAP item 4.
//! * A keyed join additionally builds a hash table over its smaller
//!   operand: `RawTable::with_capacity(n)` allocates
//!   `(max(n,1)·2).next_power_of_two()` 4-byte buckets plus 16 bytes per
//!   entry, and the build rows themselves are counted at the operands'
//!   larger arity (which side is smaller is not known statically).
//! * The model leaves out what the executor holds beyond registers, heads
//!   and keyed-join build tables: the index a keyed semijoin builds over
//!   every row of its filter (on a cache miss), the empty-key index a
//!   Cartesian join builds over its smaller operand, and the indices the
//!   run's index cache keeps across statements — and, over input
//!   relations, across runs. A semijoin or Cartesian statement is charged
//!   its operands and head only. Covering these is ROADMAP item 4.
//!
//! ## What the certificate guarantees
//!
//! The *tuple* replay ([`MemCertificate::peak_tuples`]) mirrors the
//! executor's `peak_resident` accounting statement for statement, over
//! bounds that are sound per-statement — so it is monotone in the input
//! cardinalities and never below the measured high-water mark (the
//! property suite in `tests/spill_differential.rs` holds both). The byte
//! figures inherit per-statement soundness of the tuple bounds but are a
//! *model* of the allocator, not a measurement; they are what the spill
//! gate and the `mem-blowup` lint act on.
//!
//! ## Acting on it
//!
//! [`MemCertificate::spill_plan`] turns the certificate into a
//! [`SpillPlan`]: every keyed-join statement whose certified build-side
//! bytes exceed the budget is scheduled for a Grace-hash spill with enough
//! partitions that one partition's build side fits. The executor consumes
//! the plan statically — under-budget statements never pay a runtime
//! check. [`mem_blowup`] is the lint face of the same comparison, and
//! servers admission-gate on [`MemCertificate::peak_bytes`] next to the
//! cost bound.
//!
//! The certificate is numbers only. Its renderings and the lint take the
//! [`AnalysisCx`] and the [`Certificate`] it was computed from, and render
//! each statement's symbolic bound, tree node and excerpt as they print it.

use crate::admission::admitted_bounds;
use crate::cert::{set_name, Certificate};
use crate::cx::AnalysisCx;
use crate::diagnostic::{Diagnostic, Severity};
use mjoin_program::dataflow::{num_regs, reg_index};
use mjoin_program::{Reg, SpillPlan, Stmt};
use mjoin_relation::AttrSet;
use mjoin_trace::json::Value;

/// Bytes per relation cell under the columnar model (see the module docs).
pub const CELL_BYTES: u64 = 8;

/// Cap on Grace-hash partitions per statement: beyond this, partition
/// files get too small to amortize their I/O.
pub const MAX_SPILL_PARTITIONS: u64 = 256;

/// Bytes of a register holding at most `tuples` tuples of arity `arity`.
fn rel_bytes(tuples: u64, arity: u64) -> u64 {
    tuples.saturating_mul(arity).saturating_mul(CELL_BYTES)
}

/// Heap bytes of a build-side hash table over `n` rows, mirroring the
/// executor's `RawTable::with_capacity` (bucket array of 4-byte slots at
/// twice the row count rounded up to a power of two, 16-byte entries).
fn hashtable_bytes(n: u64) -> u64 {
    let buckets = n
        .max(1)
        .saturating_mul(2)
        .checked_next_power_of_two()
        .unwrap_or(u64::MAX);
    buckets
        .saturating_mul(4)
        .saturating_add(n.saturating_mul(16))
}

fn arity_of(attrs: &AttrSet) -> u64 {
    mjoin_relation::Schema::from_set(attrs).arity() as u64
}

/// The memory footprint certified for one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStmt {
    /// Statement index.
    pub stmt: usize,
    /// `"join"`, `"semijoin"` or `"project"`.
    pub kind: &'static str,
    /// Certified bound on the head's cardinality (the admitted bound:
    /// `min(certificate product, interval hi)`).
    pub out_tuples: u64,
    /// The head's bytes under the model: `out_tuples · arity · 8`.
    pub out_bytes: u64,
    /// For keyed joins: bound on the hash build side's row count
    /// (`min` of the operand bounds — the executor builds the smaller
    /// side). `None` for other statement kinds and Cartesian joins.
    pub build_tuples: Option<u64>,
    /// For keyed joins: transient build-side bytes (hash table heap plus
    /// the build rows at the operands' larger arity). This is the figure
    /// the spill gate compares against the budget.
    pub build_bytes: Option<u64>,
    /// Bytes resident across all registers *before* this statement runs.
    pub resident_bytes: u64,
    /// Peak bytes while this statement runs: `resident_bytes` + the head
    /// being materialized + the build side (old head value still live —
    /// destructive assignment happens after evaluation).
    pub peak_bytes: u64,
    /// Whether the certificate's bound on the head is a single
    /// intermediate (Theorem-2 shape).
    pub tight: bool,
}

/// The whole-program memory certificate. See the module docs.
#[derive(Debug, Clone)]
pub struct MemCertificate {
    /// Per-statement footprints, in statement order.
    pub stmts: Vec<MemStmt>,
    /// Bytes of the inputs alone (the floor no plan can undercut).
    pub input_bytes: u64,
    /// The program-wide peak in bytes: the largest per-statement peak, or
    /// `input_bytes` for an empty program.
    pub peak_bytes: u64,
    /// The statement carrying [`MemCertificate::peak_bytes`].
    pub peak_stmt: Option<usize>,
    /// Peak resident *tuples* over the replay: the static counterpart of
    /// the executor's `peak_resident`, guaranteed `>=` the measured value.
    pub peak_tuples: u64,
}

impl MemCertificate {
    /// The first statement whose peak exceeds `budget`, if any — the
    /// statement a rejection or a `mem-blowup` diagnostic names.
    #[must_use]
    pub fn violation(&self, budget: u64) -> Option<&MemStmt> {
        self.stmts.iter().find(|s| s.peak_bytes > budget)
    }

    /// Derive the spill schedule for `budget` bytes: every keyed-join
    /// statement whose certified build-side bytes exceed the budget spills
    /// into the smallest power-of-two partition count that brings one
    /// partition's build side under it (capped at
    /// [`MAX_SPILL_PARTITIONS`]). Everything else — including Cartesian
    /// joins, which have no key to partition by — keeps the in-memory
    /// path.
    #[must_use]
    pub fn spill_plan(&self, budget: u64) -> SpillPlan {
        let budget = budget.max(1);
        let parts = self
            .stmts
            .iter()
            .map(|s| match s.build_bytes {
                Some(b) if b > budget => {
                    let want = b.div_ceil(budget);
                    let p = want
                        .checked_next_power_of_two()
                        .unwrap_or(MAX_SPILL_PARTITIONS)
                        .min(MAX_SPILL_PARTITIONS);
                    Some(usize::try_from(p).expect("partition cap fits usize"))
                }
                _ => None,
            })
            .collect();
        SpillPlan::new(parts)
    }

    /// Plain-text rendering: one line per statement plus the summary. `cx`
    /// and `cert` are what the certificate was computed from.
    #[must_use]
    pub fn render_text(&self, cx: &AnalysisCx<'_>, cert: &Certificate) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "memory: peak ≤ {} bytes{} (≤ {} resident tuples); inputs {} bytes\n",
            self.peak_bytes,
            match self.peak_stmt {
                Some(i) => format!(" at stmt {i}"),
                None => String::new(),
            },
            self.peak_tuples,
            self.input_bytes
        ));
        for s in &self.stmts {
            let build = match s.build_bytes {
                Some(b) => format!("build {b}"),
                None => "no build".to_string(),
            };
            let node = match cert.stmts[s.stmt].node {
                Some(n) => format!("  [node {}]", set_name(n, cx.scheme, cx.catalog)),
                None => String::new(),
            };
            out.push_str(&format!(
                "  stmt {:>3}  {:<8} peak {:>12}  resident {:>12}  out {:>12}  {}  |head| ≤ {}{}{}  {}\n",
                s.stmt,
                s.kind,
                s.peak_bytes,
                s.resident_bytes,
                s.out_bytes,
                build,
                cert.bound_name(s.stmt, cx.scheme, cx.catalog),
                if s.tight { "" } else { "  (product)" },
                node,
                cx.excerpt(s.stmt).unwrap_or_default()
            ));
        }
        out
    }

    /// JSON rendering: one object per statement plus the summary, over
    /// the `cx` and `cert` the certificate was computed from.
    #[must_use]
    pub fn to_json(&self, cx: &AnalysisCx<'_>, cert: &Certificate) -> Value {
        let opt = |v: Option<u64>| v.map_or(Value::Null, Value::u64);
        let stmts = self.stmts.iter().map(|s| {
            let node = cert.stmts[s.stmt].node;
            let node = node.map(|n| set_name(n, cx.scheme, cx.catalog));
            Value::obj()
                .set("stmt", Value::u64(s.stmt as u64))
                .set("kind", Value::str(s.kind))
                .set("out_tuples", Value::u64(s.out_tuples))
                .set("out_bytes", Value::u64(s.out_bytes))
                .set("build_tuples", opt(s.build_tuples))
                .set("build_bytes", opt(s.build_bytes))
                .set("resident_bytes", Value::u64(s.resident_bytes))
                .set("peak_bytes", Value::u64(s.peak_bytes))
                .set("tight", Value::Bool(s.tight))
                .set(
                    "symbolic",
                    Value::Str(cert.bound_name(s.stmt, cx.scheme, cx.catalog)),
                )
                .set("node", node.map_or(Value::Null, Value::Str))
        });
        Value::obj()
            .set("stmts", Value::Arr(stmts.collect()))
            .set("input_bytes", Value::u64(self.input_bytes))
            .set("peak_bytes", Value::u64(self.peak_bytes))
            .set("peak_stmt", opt(self.peak_stmt.map(|i| i as u64)))
            .set("peak_tuples", Value::u64(self.peak_tuples))
    }
}

/// Compute the memory certificate for an analyzed program given the input
/// cardinalities `seeds[i] = |D_i|`, deriving a fresh (unattributed)
/// Theorem-2 certificate. Use [`memory_report_with`] to thread a
/// certificate that already carries tree-node provenance.
#[must_use]
pub fn memory_report(cx: &AnalysisCx<'_>, seeds: &[u64]) -> MemCertificate {
    memory_report_with(cx, seeds, &Certificate::compute(cx))
}

/// [`memory_report`] over a caller-supplied [`Certificate`] — the one its
/// renderings then take, typically attributed with Algorithm 2's tree-node
/// provenance so every printed statement names the CPF-tree node it came
/// from.
#[must_use]
pub fn memory_report_with(
    cx: &AnalysisCx<'_>,
    seeds: &[u64],
    cert: &Certificate,
) -> MemCertificate {
    let program = cx.program;
    // The admitted cardinality bound per statement — identical to the
    // cost-admission bound.
    let bounds = admitted_bounds(cx, seeds, cert);

    // Per-register replay over the bounds, mirroring the executor's
    // resident accounting: bases seeded at their exact sizes, temps empty,
    // each statement replacing its head slot. Tracked twice — tuples (the
    // proptest-guaranteed mirror of `peak_resident`) and `(tuples, arity)`
    // for bytes.
    let n_regs = num_regs(program);
    let n_bases = cx.scheme.num_relations();
    let mut slots: Vec<Option<(u64, u64)>> = vec![None; n_regs];
    for (i, &n) in seeds.iter().enumerate().take(n_bases) {
        slots[i] = Some((n, arity_of(cx.scheme.attrs_of(i))));
    }
    let resolve = |slots: &[Option<(u64, u64)>], reg: Reg| -> (u64, u64) {
        let mut cur = reg;
        loop {
            match slots[reg_index(program, cur)] {
                Some(v) => return v,
                None => match cur {
                    Reg::Temp(t) => cur = program.temp_init[t].expect("validated alias"),
                    Reg::Base(_) => unreachable!("bases are seeded"),
                },
            }
        }
    };
    let slot_bytes = |slots: &[Option<(u64, u64)>]| -> u64 {
        slots
            .iter()
            .flatten()
            .fold(0u64, |acc, &(n, a)| acc.saturating_add(rel_bytes(n, a)))
    };
    let slot_tuples = |slots: &[Option<(u64, u64)>]| -> u64 {
        slots
            .iter()
            .flatten()
            .fold(0u64, |acc, &(n, _)| acc.saturating_add(n))
    };

    let input_bytes = slot_bytes(&slots);
    let mut peak_tuples = slot_tuples(&slots);
    let mut stmts = Vec::with_capacity(program.stmts.len());
    for (i, stmt) in program.stmts.iter().enumerate() {
        let facts = &cx.stmts[i];
        let head_arity = arity_of(&facts.head_scheme);
        let out_tuples = bounds[i];
        let out_bytes = rel_bytes(out_tuples, head_arity);
        let resident_bytes = slot_bytes(&slots);

        let (head, build) = match stmt {
            Stmt::Project { dst, .. } => (*dst, None),
            Stmt::Semijoin { target, .. } => (*target, None),
            Stmt::Join { dst, left, right } => {
                let keyed = !facts.operand_schemes[0].is_disjoint(&facts.operand_schemes[1]);
                if keyed {
                    let (lt, la) = resolve(&slots, *left);
                    let (rt, ra) = resolve(&slots, *right);
                    let build_tuples = lt.min(rt);
                    let build_bytes = hashtable_bytes(build_tuples)
                        .saturating_add(rel_bytes(build_tuples, la.max(ra)));
                    (*dst, Some((build_tuples, build_bytes)))
                } else {
                    (*dst, None)
                }
            }
        };
        let peak_bytes = resident_bytes
            .saturating_add(out_bytes)
            .saturating_add(build.map_or(0, |(_, b)| b));

        stmts.push(MemStmt {
            stmt: i,
            kind: cert.stmts[i].kind,
            out_tuples,
            out_bytes,
            build_tuples: build.map(|(t, _)| t),
            build_bytes: build.map(|(_, b)| b),
            resident_bytes,
            peak_bytes,
            tight: cert.stmts[i].tight,
        });

        slots[reg_index(program, head)] = Some((out_tuples, head_arity));
        peak_tuples = peak_tuples.max(slot_tuples(&slots));
    }

    let peak_stmt = stmts
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.peak_bytes)
        .map(|(i, _)| i);
    let peak_bytes = peak_stmt.map_or(input_bytes, |i| stmts[i].peak_bytes);
    MemCertificate {
        stmts,
        input_bytes,
        peak_bytes,
        peak_stmt,
        peak_tuples,
    }
}

/// The `mem-blowup` lint: statements of `mem` whose certified memory peak
/// exceeds `budget` bytes, worded over the `cx` and `cert` `mem` was
/// computed from. Like `cost-blowup` this is a standalone, seed-driven pass
/// (the certificate needs input cardinalities, the lint a budget, so it
/// does not run in the default pass list); `mjoin_cli check --memory` wires
/// it up over the certificate it prints.
#[must_use]
pub fn mem_blowup(
    mem: &MemCertificate,
    budget: u64,
    cx: &AnalysisCx<'_>,
    cert: &Certificate,
) -> Vec<Diagnostic> {
    mem.stmts
        .iter()
        .filter(|s| s.peak_bytes > budget)
        .map(|s| Diagnostic {
            severity: Severity::Warn,
            lint: "mem-blowup",
            stmt: Some(s.stmt),
            message: format!(
                "certified memory peak {} bytes exceeds the {budget}-byte budget \
                 (resident {} + head {} + build {}; |head| ≤ {})",
                s.peak_bytes,
                s.resident_bytes,
                s.out_bytes,
                s.build_bytes.unwrap_or(0),
                cert.bound_name(s.stmt, cx.scheme, cx.catalog)
            ),
            excerpt: cx.excerpt(s.stmt),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_hypergraph::DbScheme;
    use mjoin_program::{execute, ProgramBuilder};
    use mjoin_relation::{relation_of_ints, Catalog, Database};

    fn cx_parts(schemes: &[&str]) -> (Catalog, DbScheme) {
        let mut c = Catalog::new();
        let scheme = DbScheme::parse(&mut c, schemes);
        (c, scheme)
    }

    fn chain_program(scheme: &DbScheme) -> mjoin_program::Program {
        let mut b = ProgramBuilder::new(scheme);
        let v = b.new_temp_alias("V", mjoin_program::Reg::Base(0));
        b.join(v, v, mjoin_program::Reg::Base(1));
        b.join(v, v, mjoin_program::Reg::Base(2));
        b.finish(v)
    }

    #[test]
    fn certificate_covers_the_measured_high_water_mark() {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2], &[2, 3], &[9, 8]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[2, 3], &[3, 4], &[3, 5]]).unwrap();
        let t = relation_of_ints(&mut c, "CD", &[&[4, 1], &[5, 1]]).unwrap();
        let scheme = DbScheme::parse(&mut c, &["AB", "BC", "CD"]);
        let db = Database::from_relations(vec![r, s, t]);
        let p = chain_program(&scheme);
        let cx = AnalysisCx::new(&p, &scheme, &c).unwrap();
        let seeds: Vec<u64> = db.relations().iter().map(|r| r.len() as u64).collect();
        let cert = memory_report(&cx, &seeds);

        let out = execute(&p, &db);
        assert!(
            cert.peak_tuples >= out.peak_resident,
            "certified peak {} below measured {}",
            cert.peak_tuples,
            out.peak_resident
        );
        // Per-statement head bounds are sound too.
        for (s, &measured) in cert.stmts.iter().zip(&out.head_sizes) {
            assert!(s.out_tuples >= measured as u64);
        }
        assert_eq!(cert.stmts.len(), 2);
        assert!(cert.peak_bytes >= cert.input_bytes);
        assert!(cert.peak_stmt.is_some());
    }

    #[test]
    fn peak_is_monotone_in_relation_sizes() {
        let (c, scheme) = cx_parts(&["AB", "BC", "CD"]);
        let p = chain_program(&scheme);
        let cx = AnalysisCx::new(&p, &scheme, &c).unwrap();
        let small = memory_report(&cx, &[10, 10, 10]);
        let big = memory_report(&cx, &[10, 50, 10]);
        assert!(big.peak_bytes >= small.peak_bytes);
        assert!(big.peak_tuples >= small.peak_tuples);
    }

    #[test]
    fn spill_plan_targets_only_over_budget_keyed_joins() {
        let (c, scheme) = cx_parts(&["AB", "BC", "CD"]);
        let p = chain_program(&scheme);
        let cx = AnalysisCx::new(&p, &scheme, &c).unwrap();
        let cert = memory_report(&cx, &[1000, 1000, 1000]);

        // A huge budget spills nothing.
        let plan = cert.spill_plan(u64::MAX);
        assert!(!plan.any());

        // A tiny budget spills every keyed join, with power-of-two counts.
        let plan = cert.spill_plan(64);
        assert!(plan.any());
        for (i, s) in cert.stmts.iter().enumerate() {
            match s.build_bytes {
                Some(b) if b > 64 => {
                    let parts = plan.partitions(i).expect("over-budget join must spill");
                    assert!(parts.is_power_of_two());
                    assert!(parts as u64 <= MAX_SPILL_PARTITIONS);
                }
                _ => assert_eq!(plan.partitions(i), None),
            }
        }
    }

    #[test]
    fn cartesian_join_never_spills_but_trips_mem_blowup() {
        let (c, scheme) = cx_parts(&["AB", "CD"]);
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp("V");
        b.join(v, mjoin_program::Reg::Base(0), mjoin_program::Reg::Base(1));
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &scheme, &c).unwrap();
        let theorem2 = Certificate::compute(&cx);
        let cert = memory_report_with(&cx, &[1000, 1000], &theorem2);
        assert_eq!(cert.stmts[0].build_bytes, None, "no key, no build table");
        assert!(!cert.spill_plan(1).any(), "nothing to partition by");

        let diags = mem_blowup(&cert, 1024, &cx, &theorem2);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, "mem-blowup");
        assert_eq!(diags[0].severity, Severity::Warn);
        assert_eq!(diags[0].stmt, Some(0));
        assert!(mem_blowup(&cert, u64::MAX, &cx, &theorem2).is_empty());
    }

    #[test]
    fn violation_names_the_first_offender_and_renders() {
        let (c, scheme) = cx_parts(&["AB", "BC", "CD"]);
        let p = chain_program(&scheme);
        let cx = AnalysisCx::new(&p, &scheme, &c).unwrap();
        let theorem2 = Certificate::compute(&cx);
        let cert = memory_report_with(&cx, &[100, 100, 100], &theorem2);
        assert!(cert.violation(u64::MAX).is_none());
        let v = cert.violation(0).expect("everything exceeds 0");
        assert_eq!(v.stmt, 0);

        let text = cert.render_text(&cx, &theorem2);
        assert!(text.contains("memory: peak ≤"), "{text}");
        assert!(text.contains("|⋈D[{AB,BC}]|"), "{text}");
        let json = cert.to_json(&cx, &theorem2).render();
        assert_eq!(
            Value::parse(&json),
            Ok(cert.to_json(&cx, &theorem2)),
            "{json}"
        );
        assert!(json.contains("\"peak_bytes\""), "{json}");
        assert!(json.contains("\"build_bytes\""), "{json}");
    }

    #[test]
    fn provenance_flows_through_attributed_certificates() {
        use mjoin_hypergraph::RelSet;
        let (c, scheme) = cx_parts(&["AB", "BC"]);
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", mjoin_program::Reg::Base(0));
        b.join(v, v, mjoin_program::Reg::Base(1));
        let p = b.finish(v);
        let cx = AnalysisCx::new(&p, &scheme, &c).unwrap();
        let mut cert = Certificate::compute(&cx);
        cert.attribute(&[RelSet::from_indices([0, 1])]);
        let mem = memory_report_with(&cx, &[10, 10], &cert);
        assert!(mem.render_text(&cx, &cert).contains("[node {AB,BC}]"));
        let json = mem.to_json(&cx, &cert);
        let stmt = |v: &Value| match v.get("stmts") {
            Some(Value::Arr(stmts)) => stmts[0].get("node").cloned(),
            _ => None,
        };
        assert_eq!(stmt(&json), Some(Value::str("{AB,BC}")));
    }

    #[test]
    fn hashtable_model_matches_rawtable_shape() {
        // 3 rows → 8 buckets of 4 bytes + 3 entries of 16 bytes.
        assert_eq!(hashtable_bytes(3), 8 * 4 + 3 * 16);
        // 0 rows still allocates the minimum 2-bucket array.
        assert_eq!(hashtable_bytes(0), 2 * 4);
        // Saturates instead of overflowing.
        assert_eq!(hashtable_bytes(u64::MAX), u64::MAX);
    }
}
