//! `mjoin-program` — the paper's programs of joins, semijoins, and
//! projections (§2.2) as an executable IR.
//!
//! * [`Stmt`] / [`Reg`]: the three statement forms over base relations and
//!   relation scheme variables;
//! * [`Program`] / [`ProgramBuilder`]: straight-line programs with static
//!   scheme tracking (the builder is what Algorithm 2 in `mjoin-core` talks
//!   to while emitting statements);
//! * [`mod@validate`]: static well-formedness per §2.2;
//! * [`execute`] / [`execute_with`]: the interpreter, charging the §2.3
//!   program cost `Σ_{i=1}^{n+m} |Rᵢ|` — one executor loop that walks the
//!   hazard-free levels of [`schedule()`] (concurrently where a level is wide
//!   and [`ExecConfig::threads`] allows) or, with one thread, the statements
//!   in program order;
//! * [`dataflow`]: bitset register sets and backward liveness, shared by
//!   [`eliminate_dead_code`] and the `mjoin-analyze` lint passes;
//! * [`audit_schedule`]: an independent double-entry checker that a
//!   [`Schedule`] is race-free (no two statements of one level in a
//!   write/write or read/write conflict, all cross-level hazards ordered);
//! * [`display::render`]: pretty-printing in the paper's notation.

#![warn(missing_docs)]

pub mod dataflow;
pub mod display;
pub mod interp;
pub mod optimize;
pub mod parse;
pub mod program;
pub mod schedule;
pub mod stmt;
pub mod validate;

pub use dataflow::{BitSet, Liveness};
pub use interp::{
    execute, execute_with, try_execute_seeded, try_execute_with, CancelToken, Cancelled,
    ExecConfig, ExecOutcome, HeadFingerprints, IndexCache, SharedIndexCache, SpillPlan,
    DEFAULT_CACHE_BYTES, DEFAULT_CACHE_TUPLES, FACTORIZE_MIN_FANOUT,
};
pub use optimize::eliminate_dead_code;
pub use parse::{parse_program, parse_scheme_list, scheme_directive};
pub use program::{Program, ProgramBuilder};
pub use schedule::{audit_schedule, schedule, Schedule, ScheduleAuditError};
pub use stmt::{Reg, Stmt};
pub use validate::{validate, ValidateError, ValidationInfo};
