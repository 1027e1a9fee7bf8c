//! `mjoin-serve` — a resident query server for the paper's programs.
//!
//! The one-shot CLI pays the whole pipeline on every invocation: load the
//! TSVs, intern the catalog, derive the program, build every join index
//! from scratch. A resident server keeps all of that warm: named catalogs
//! of loaded relations and compiled programs live in the process, and one
//! process-wide [`mjoin_program::SharedIndexCache`] carries build-side
//! join indices across requests *and sessions*.
//!
//! The transport is deliberately boring — TCP, one JSON object per line
//! each way ([`protocol`]), parsed by the workspace's dependency-free
//! recursive-descent parser ([`mjoin_trace::json`]). See [`protocol`] for
//! the command table.
//!
//! The paper connection is admission control: because every compiled
//! program carries a Theorem-2 cost certificate, the server can evaluate
//! the certified per-statement bounds against the resident catalog's
//! cardinalities *before* running anything
//! ([`mjoin_core::engine::Prepared::admit`]). A request whose certified bound
//! exceeds the configured budget is rejected with the offending statement
//! and its bound — a Cartesian-product program (the paper's anti-pattern)
//! never reaches an operator. Admitted requests pass a bounded-FIFO
//! capacity gate keeping the sum of in-flight certified peaks under the
//! same budget.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use mjoin_trace::json::Value;
pub use protocol::Request;
pub use server::{ServeConfig, Server};
