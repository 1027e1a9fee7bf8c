//! Static dependence analysis and level scheduling for programs.
//!
//! A program is a straight-line sequence of statements, but most programs —
//! the full reducers of Algorithm 2 in particular — have far less true
//! ordering than their textual order suggests: the semijoin reductions of
//! unrelated subtrees commute. This module recovers that freedom statically.
//!
//! Two statements must stay ordered iff they exhibit a classic hazard on
//! some register: read-after-write (true dependence), write-after-read
//! (anti-dependence), or write-after-write (output dependence). Everything
//! else may run concurrently. Statements are assigned to *levels* — stmt `i`
//! gets `1 + max(level(j))` over its dependences `j` — so every statement in
//! a level is pairwise independent of the others, and executing levels in
//! order with an intra-level barrier computes exactly the sequential
//! machine states (see [`crate::interp::try_execute_with`], which walks these
//! levels whenever it is given more than one thread).
//!
//! Read sets are conservative: a register's read set includes its whole
//! alias chain (`temp_init`), because the interpreter reads *through* the
//! chain while a variable is unwritten. Over-approximating reads can only
//! add edges, never unsound parallelism.

use crate::dataflow::reg_index;
use crate::program::Program;
use crate::stmt::Reg;
use std::fmt;

/// The level assignment of a program's statements.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// `levels[k]` holds the statement indices of level `k`, ascending.
    /// Statements within a level are pairwise hazard-free.
    pub levels: Vec<Vec<usize>>,
    /// `level_of[i]` is the 1-based level of statement `i`.
    pub level_of: Vec<usize>,
}

impl Schedule {
    /// Number of levels — the critical-path length of the dependence DAG.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The largest level — an upper bound on exploitable statement-level
    /// parallelism.
    pub fn width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The conservative static read set of register `reg`: the register itself
/// plus its full `temp_init` alias chain (the interpreter reads through the
/// chain while a variable is unwritten, so any writer along it is a
/// potential dependence source). Alias cycles — rejected by
/// [`crate::validate::validate`] — are tolerated here by terminating on the
/// first repeated register.
pub fn read_closure(program: &Program, reg: Reg, out: &mut Vec<Reg>) {
    let mut cur = reg;
    loop {
        if out.contains(&cur) {
            return;
        }
        out.push(cur);
        match cur {
            Reg::Base(_) => return,
            Reg::Temp(t) => match program.temp_init[t] {
                Some(next) => cur = next,
                None => return,
            },
        }
    }
}

/// Compute the level schedule of `program` (see the module docs).
///
/// Runs in near-linear time: instead of testing every statement pair for a
/// hazard (quadratic, and programs from large cyclic schemes have thousands
/// of statements), each register tracks its *last writer* and the *readers
/// since that write*. For statement `i` those carry every binding hazard:
///
/// * RAW — only the last writer of a read register matters; any earlier
///   writer `j1` is dominated because the last writer `j2` already has
///   `level(j2) ≥ level(j1) + 1` through their WAW hazard.
/// * WAW — same argument on the written register.
/// * WAR — only readers since the last write matter; a reader `j` before
///   an intervening writer `k` is dominated through WAR(`k`, `j`) plus
///   WAW(`i`, `k`).
///
/// So the maximum over these dominating hazards equals the maximum over all
/// pairwise hazards, and the levels are byte-identical to the quadratic
/// definition (checked against a reference implementation in the tests).
pub fn schedule(program: &Program) -> Schedule {
    let mut sp = mjoin_trace::span("plan", "schedule");
    let n = program.stmts.len();
    let num_regs = program.num_bases + program.temp_init.len();
    let mut last_writer: Vec<Option<usize>> = vec![None; num_regs];
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); num_regs];

    let mut level_of = vec![0usize; n];
    let mut read_set = Vec::new();
    for (i, stmt) in program.stmts.iter().enumerate() {
        read_set.clear();
        for r in stmt.reads() {
            read_closure(program, r, &mut read_set);
        }
        let head = reg_index(program, stmt.head());

        let mut lv = 1;
        for &r in &read_set {
            if let Some(j) = last_writer[reg_index(program, r)] {
                lv = lv.max(level_of[j] + 1); // RAW
            }
        }
        if let Some(j) = last_writer[head] {
            lv = lv.max(level_of[j] + 1); // WAW
        }
        for &j in &readers[head] {
            lv = lv.max(level_of[j] + 1); // WAR
        }
        level_of[i] = lv;

        for &r in &read_set {
            readers[reg_index(program, r)].push(i);
        }
        // This write supersedes the register's history: later statements
        // hazard against `i`, which already dominates everything cleared.
        readers[head].clear();
        last_writer[head] = Some(i);
    }

    let depth = level_of.iter().copied().max().unwrap_or(0);
    let mut levels = vec![Vec::new(); depth];
    for (i, &lv) in level_of.iter().enumerate() {
        levels[lv - 1].push(i);
    }
    if sp.is_active() {
        sp.arg("stmts", n);
        sp.arg("depth", depth);
        sp.arg("width", levels.iter().map(Vec::len).max().unwrap_or(0));
    }
    Schedule { levels, level_of }
}

/// A defect found by [`audit_schedule`]: the schedule, run with intra-level
/// concurrency, would not reproduce sequential execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleAuditError {
    /// `level_of` does not have one entry per statement.
    WrongStatementCount {
        /// Statements in the program.
        expected: usize,
        /// Entries in `level_of`.
        got: usize,
    },
    /// A statement appears in no level, twice, or in a level disagreeing
    /// with `level_of` (the two views are double-entry bookkeeping).
    InconsistentLevels {
        /// The offending statement index.
        stmt: usize,
    },
    /// Two statements of one level write the same register (write/write
    /// race: the level's outcome would depend on completion order).
    WriteWriteConflict {
        /// The shared (1-based) level.
        level: usize,
        /// The earlier statement.
        a: usize,
        /// The later statement.
        b: usize,
    },
    /// One statement of a level writes a register another statement of the
    /// same level reads (read/write race: the reader might observe the
    /// pre- or post-write value).
    ReadWriteConflict {
        /// The shared (1-based) level.
        level: usize,
        /// The writing statement.
        writer: usize,
        /// The reading statement.
        reader: usize,
    },
    /// A hazard-ordered statement pair was placed in non-increasing levels
    /// (e.g. a statement "moved up" past a writer it depends on).
    OrderViolation {
        /// The textually earlier statement of the hazard pair.
        earlier: usize,
        /// The textually later statement, found at a level ≤ `earlier`'s.
        later: usize,
    },
}

impl fmt::Display for ScheduleAuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleAuditError::WrongStatementCount { expected, got } => {
                write!(f, "schedule covers {got} statements, program has {expected}")
            }
            ScheduleAuditError::InconsistentLevels { stmt } => {
                write!(f, "statement {stmt}: levels and level_of disagree")
            }
            ScheduleAuditError::WriteWriteConflict { level, a, b } => {
                write!(
                    f,
                    "level {level}: statements {a} and {b} write the same register"
                )
            }
            ScheduleAuditError::ReadWriteConflict {
                level,
                writer,
                reader,
            } => write!(
                f,
                "level {level}: statement {writer} writes a register statement {reader} reads"
            ),
            ScheduleAuditError::OrderViolation { earlier, later } => write!(
                f,
                "statement {later} depends on statement {earlier} but is not scheduled strictly after it"
            ),
        }
    }
}

impl std::error::Error for ScheduleAuditError {}

/// Independently audit that `sched` is a race-free level assignment of
/// `program`'s statements.
///
/// This is deliberately *not* the [`schedule`] algorithm run again: it
/// recomputes every pairwise hazard from scratch (the quadratic definition
/// the near-linear scheduler is proven against) and checks the schedule
/// from the other side of the ledger — every statement placed exactly once,
/// `levels` and `level_of` consistent, no write/write or read/write
/// register conflict inside a level, and every hazard pair on strictly
/// increasing levels. [`crate::interp::try_execute_with`] runs this audit
/// under `debug_assertions` before trusting a schedule; `mjoin-analyze`'s
/// `schedule-audit` pass surfaces it as a diagnostic.
pub fn audit_schedule(program: &Program, sched: &Schedule) -> Result<(), ScheduleAuditError> {
    let n = program.stmts.len();
    if sched.level_of.len() != n {
        return Err(ScheduleAuditError::WrongStatementCount {
            expected: n,
            got: sched.level_of.len(),
        });
    }
    // Double-entry: every statement in exactly one level, agreeing with
    // level_of (which must be 1-based and within the level list).
    let mut seen = vec![false; n];
    for (k, level) in sched.levels.iter().enumerate() {
        for &i in level {
            if i >= n || seen[i] || sched.level_of[i] != k + 1 {
                return Err(ScheduleAuditError::InconsistentLevels { stmt: i.min(n) });
            }
            seen[i] = true;
        }
    }
    if let Some(stmt) = seen.iter().position(|&s| !s) {
        return Err(ScheduleAuditError::InconsistentLevels { stmt });
    }

    // Conservative read/write sets, closures included — the same register
    // model the interpreter's reads actually follow.
    let reads: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut set = Vec::new();
            for r in program.stmts[i].reads() {
                read_closure(program, r, &mut set);
            }
            set.into_iter().map(|r| reg_index(program, r)).collect()
        })
        .collect();
    let writes: Vec<usize> = program
        .stmts
        .iter()
        .map(|s| reg_index(program, s.head()))
        .collect();

    for i in 0..n {
        for j in (i + 1)..n {
            let waw = writes[i] == writes[j];
            let raw = reads[j].contains(&writes[i]);
            let war = reads[i].contains(&writes[j]);
            if !(waw || raw || war) {
                continue;
            }
            let (li, lj) = (sched.level_of[i], sched.level_of[j]);
            if li == lj {
                return Err(if waw {
                    ScheduleAuditError::WriteWriteConflict {
                        level: li,
                        a: i,
                        b: j,
                    }
                } else if raw {
                    ScheduleAuditError::ReadWriteConflict {
                        level: li,
                        writer: i,
                        reader: j,
                    }
                } else {
                    ScheduleAuditError::ReadWriteConflict {
                        level: li,
                        writer: j,
                        reader: i,
                    }
                });
            }
            if lj < li {
                return Err(ScheduleAuditError::OrderViolation {
                    earlier: i,
                    later: j,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use mjoin_hypergraph::DbScheme;
    use mjoin_relation::Catalog;

    fn scheme(schemes: &[&str]) -> DbScheme {
        let mut c = Catalog::new();
        DbScheme::parse(&mut c, schemes)
    }

    #[test]
    fn independent_semijoins_share_a_level() {
        // Reduce R0 by R1 and R2 by R3: no shared registers → one level.
        let s = scheme(&["AB", "BC", "DE", "EF"]);
        let mut b = ProgramBuilder::new(&s);
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.semijoin(Reg::Base(2), Reg::Base(3));
        let p = b.finish(Reg::Base(0));
        let sched = schedule(&p);
        assert_eq!(sched.depth(), 1);
        assert_eq!(sched.levels[0], vec![0, 1]);
    }

    #[test]
    fn chain_of_joins_is_fully_serial() {
        let s = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let sched = schedule(&p);
        assert_eq!(sched.depth(), 2);
        assert_eq!(sched.width(), 1);
        assert_eq!(sched.level_of, vec![1, 2]);
    }

    #[test]
    fn war_hazard_orders_a_later_writer_after_a_reader() {
        // stmt0 reads Base(1); stmt1 writes Base(1): WAR forces level 2.
        let s = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.semijoin(Reg::Base(1), Reg::Base(2));
        let p = b.finish(Reg::Base(0));
        let sched = schedule(&p);
        assert_eq!(sched.level_of, vec![1, 2]);
    }

    #[test]
    fn waw_hazard_orders_writers_of_one_register() {
        let s = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.semijoin(Reg::Base(0), Reg::Base(2));
        let p = b.finish(Reg::Base(0));
        let sched = schedule(&p);
        assert_eq!(sched.level_of, vec![1, 2]);
    }

    #[test]
    fn alias_chain_counts_as_a_read() {
        // V aliases Base(0); stmt0 joins V (reading through to Base(0)),
        // stmt1 reduces Base(0) in place: the alias read must order them.
        let s = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        b.semijoin(Reg::Base(0), Reg::Base(2));
        let p = b.finish(v);
        let sched = schedule(&p);
        assert_eq!(sched.level_of, vec![1, 2]);
    }

    #[test]
    fn two_reducer_arms_then_final_join() {
        // Arms over disjoint registers parallelize; the combining joins
        // serialize after them.
        let s = scheme(&["AB", "BC", "DE", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        b.semijoin(Reg::Base(0), Reg::Base(1)); // level 1
        b.semijoin(Reg::Base(2), Reg::Base(3)); // level 1
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1)); // level 2 (reads Base(0) via alias)
        b.join(v, v, Reg::Base(3)); // level 3 (reads V)
        let p = b.finish(v);
        let sched = schedule(&p);
        assert_eq!(sched.level_of, vec![1, 1, 2, 3]);
        assert_eq!(sched.width(), 2);
    }

    #[test]
    fn empty_program_schedules_trivially() {
        let s = scheme(&["AB"]);
        let b = ProgramBuilder::new(&s);
        let p = b.finish(Reg::Base(0));
        let sched = schedule(&p);
        assert_eq!(sched.depth(), 0);
        assert_eq!(sched.width(), 0);
    }

    /// The original all-pairs hazard scan, kept as a test oracle for the
    /// near-linear implementation.
    fn quadratic_reference(program: &Program) -> Vec<usize> {
        let n = program.stmts.len();
        let reads: Vec<Vec<Reg>> = program
            .stmts
            .iter()
            .map(|stmt| {
                let mut set = Vec::new();
                for r in stmt.reads() {
                    read_closure(program, r, &mut set);
                }
                set
            })
            .collect();
        let writes: Vec<Reg> = program.stmts.iter().map(crate::stmt::Stmt::head).collect();
        let mut level_of = vec![0usize; n];
        for i in 0..n {
            let mut lv = 1;
            for j in 0..i {
                let raw = reads[i].contains(&writes[j]);
                let war = reads[j].contains(&writes[i]);
                let waw = writes[i] == writes[j];
                if raw || war || waw {
                    lv = lv.max(level_of[j] + 1);
                }
            }
            level_of[i] = lv;
        }
        level_of
    }

    #[test]
    fn matches_quadratic_reference_on_random_programs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = scheme(&["AB", "BC", "CD", "DE", "EF", "FA"]);
            let mut b = ProgramBuilder::new(&s);
            let mut regs: Vec<Reg> = (0..6).map(Reg::Base).collect();
            for t in 0..3 {
                let src = regs[rng.gen_range(0..regs.len())];
                regs.push(b.new_temp_alias(format!("V{t}"), src));
            }
            let temps: Vec<Reg> = regs.iter().copied().filter(|r| r.is_temp()).collect();
            for _ in 0..rng.gen_range(5..40usize) {
                let a = regs[rng.gen_range(0..regs.len())];
                let c = regs[rng.gen_range(0..regs.len())];
                if rng.gen_bool(0.5) {
                    b.semijoin(a, c);
                } else {
                    b.join(temps[rng.gen_range(0..temps.len())], a, c);
                }
            }
            let p = b.finish(regs[0]);
            assert_eq!(
                schedule(&p).level_of,
                quadratic_reference(&p),
                "seed {seed}"
            );
        }
    }

    /// A serial chain with one independent statement, handy for corrupting:
    /// stmt0 and stmt2 both write V (WAW + RAW), stmt1 touches other regs.
    fn auditable_program() -> Program {
        let s = scheme(&["AB", "BC", "CD", "DE", "EF"]);
        let mut b = ProgramBuilder::new(&s);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1)); // level 1
        b.semijoin(Reg::Base(3), Reg::Base(4)); // level 1, independent
        b.join(v, v, Reg::Base(2)); // level 2
        b.finish(v)
    }

    #[test]
    fn audit_accepts_generated_schedules() {
        let p = auditable_program();
        audit_schedule(&p, &schedule(&p)).unwrap();
        // And across the random corpus the scheduler is audited against the
        // same conservative hazard model.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = scheme(&["AB", "BC", "CD", "DE"]);
            let mut b = ProgramBuilder::new(&s);
            let v = b.new_temp_alias("V", Reg::Base(0));
            for _ in 0..rng.gen_range(3..20usize) {
                let a = Reg::Base(rng.gen_range(0..4));
                if rng.gen_bool(0.5) {
                    b.semijoin(a, Reg::Base(rng.gen_range(0..4)));
                } else {
                    b.join(v, v, a);
                }
            }
            let p = b.finish(v);
            audit_schedule(&p, &schedule(&p)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn audit_catches_statement_moved_up_a_level() {
        let p = auditable_program();
        let mut sched = schedule(&p);
        assert_eq!(sched.level_of, vec![1, 1, 2]);
        // Hoist the dependent join into level 1 alongside its producer.
        sched.levels[1].retain(|&i| i != 2);
        sched.levels[0].push(2);
        sched.levels.pop();
        sched.level_of[2] = 1;
        let err = audit_schedule(&p, &sched).unwrap_err();
        assert!(
            matches!(
                err,
                ScheduleAuditError::WriteWriteConflict { a: 0, b: 2, .. }
                    | ScheduleAuditError::ReadWriteConflict { .. }
            ),
            "got {err}"
        );
    }

    #[test]
    fn audit_catches_two_writers_in_one_level() {
        // Two semijoins reducing the same base, forced into one level.
        let s = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.semijoin(Reg::Base(0), Reg::Base(2));
        let p = b.finish(Reg::Base(0));
        let sched = Schedule {
            levels: vec![vec![0, 1]],
            level_of: vec![1, 1],
        };
        assert_eq!(
            audit_schedule(&p, &sched).unwrap_err(),
            ScheduleAuditError::WriteWriteConflict {
                level: 1,
                a: 0,
                b: 1
            }
        );
    }

    #[test]
    fn audit_catches_intra_level_read_write_conflict() {
        // stmt0 reads Base(1); stmt1 writes Base(1). Same level → RW race.
        let s = scheme(&["AB", "BC", "CD"]);
        let mut b = ProgramBuilder::new(&s);
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.semijoin(Reg::Base(1), Reg::Base(2));
        let p = b.finish(Reg::Base(0));
        let sched = Schedule {
            levels: vec![vec![0, 1]],
            level_of: vec![1, 1],
        };
        assert_eq!(
            audit_schedule(&p, &sched).unwrap_err(),
            ScheduleAuditError::ReadWriteConflict {
                level: 1,
                writer: 1,
                reader: 0
            }
        );
    }

    #[test]
    fn audit_catches_inverted_order_and_bad_bookkeeping() {
        let p = auditable_program();
        let good = schedule(&p);

        // Dependent pair on strictly decreasing levels.
        let inverted = Schedule {
            levels: vec![vec![1, 2], vec![0]],
            level_of: vec![2, 1, 1],
        };
        assert_eq!(
            audit_schedule(&p, &inverted).unwrap_err(),
            ScheduleAuditError::OrderViolation {
                earlier: 0,
                later: 2
            }
        );

        // level_of too short.
        let truncated = Schedule {
            levels: good.levels.clone(),
            level_of: good.level_of[..2].to_vec(),
        };
        assert_eq!(
            audit_schedule(&p, &truncated).unwrap_err(),
            ScheduleAuditError::WrongStatementCount {
                expected: 3,
                got: 2
            }
        );

        // A statement listed twice across levels.
        let duplicated = Schedule {
            levels: vec![vec![0, 1], vec![0, 2]],
            level_of: vec![1, 1, 2],
        };
        assert!(matches!(
            audit_schedule(&p, &duplicated).unwrap_err(),
            ScheduleAuditError::InconsistentLevels { .. }
        ));

        // A statement missing from every level.
        let missing = Schedule {
            levels: vec![vec![0, 1]],
            level_of: vec![1, 1, 2],
        };
        assert!(matches!(
            audit_schedule(&p, &missing).unwrap_err(),
            ScheduleAuditError::InconsistentLevels { stmt: 2 }
        ));
    }
}
