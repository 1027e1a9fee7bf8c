//! The wire protocol: one JSON object per line, each way.
//!
//! Every request carries a `"cmd"` field; every response is an object with
//! `"ok": true` plus command-specific fields, or `"ok": false` with an
//! `"error"` object carrying a machine-readable `"kind"`, a human
//! `"message"`, and — for admission rejections — the offending statement
//! index, its certified numeric bound, the budget, and the certificate's
//! symbolic bound (see `mjoin_analyze::admission`).
//!
//! Commands:
//!
//! | cmd        | fields                                               | effect |
//! |------------|------------------------------------------------------|--------|
//! | `ping`     |                                                      | liveness check |
//! | `load`     | `catalog`, `tsv`, opt. `name`                        | add a TSV relation to a named server-side catalog |
//! | `compile`  | `catalog`, `name`, `program`, opt. `scheme`          | parse + validate a §2.2 program against the catalog |
//! | `run`      | `catalog`, `name` or `program` (+opt. `scheme`), opt. `deadline_ms`, opt. `tsv`, opt. `trace` | admission-gate, execute, return result |
//! | `query`    | `catalog`, opt. `cq`, opt. `optimizer`, opt. `executor`, opt. `minimize`, opt. `deadline_ms`, opt. `tsv`, opt. `trace` | derive a program for all loaded relations (Alg. 1+2) and run it — `executor` picks `program` (default), `wcoj`, or `auto` (AGM vs certificate). With `cq`, run that conjunctive query over the loaded relations instead; its core is compiled (`minimize: false` opts out) and the response reports atoms dropped plus pre/post AGM bounds |
//! | `explain`  | `catalog`, `name` or `program` or `cq` (+opt. `scheme`) | admission report without executing; with `cq`, the minimization report (core, dropped atoms, pre/post AGM bounds) plus query lints |
//! | `stats`    |                                                      | cumulative counters, cache residency, catalogs |
//! | `shutdown` |                                                      | drain in-flight requests and stop the server |
//!
//! `"trace": true` on a `run` or `query` records that request's spans (and
//! only that request's, whatever else the server is running) and returns
//! them in the reply's `trace` field, aggregated as `mjoin_cli
//! --explain-analyze` prints them: `{"spans": [{"key", "count",
//! "total_us", "max_us"}, …], "counters": {…}}`. Without it a request
//! records no span at all.
//!
//! `run`, `query` and `explain` reuse the plan of an earlier request with
//! the same source (`name` or `program` + `scheme`; `cq` + `minimize`;
//! `optimizer`, `executor`) while its catalog is unchanged: every `load`
//! and `compile` into the catalog starts a new epoch. A reused plan replies
//! with the same bytes; its trace lacks the planning spans
//! (`plan/optimize_*`, `plan/executor_select`) and counters (`cq.minimize`,
//! `optimizer.*`) it skipped. `serve.plan_hit` / `serve.plan_miss` in
//! `stats` count the lookups.

use mjoin_trace::json::Value;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Add a TSV relation to catalog `catalog`.
    Load {
        /// Server-side catalog name.
        catalog: String,
        /// Optional display name for the relation.
        name: Option<String>,
        /// The relation as TSV text (header + rows).
        tsv: String,
    },
    /// Parse and validate a program, storing it under `name`.
    Compile {
        /// Server-side catalog name.
        catalog: String,
        /// Name to store the compiled program under.
        name: String,
        /// Program text in paper notation.
        program: String,
        /// Database scheme (`"AB,BC"`); defaults to the program's
        /// `# scheme:` directive.
        scheme: Option<String>,
    },
    /// Execute a compiled (`name`) or inline (`program`) program.
    Run {
        /// Server-side catalog name.
        catalog: String,
        /// Name of a previously compiled program.
        name: Option<String>,
        /// Inline program text (alternative to `name`).
        program: Option<String>,
        /// Scheme for an inline program.
        scheme: Option<String>,
        /// Per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Whether to include the result TSV (default true).
        tsv: bool,
        /// Whether to record the request's spans and return them (default
        /// false).
        trace: bool,
    },
    /// Derive (Algorithm 1 + 2) and run a program joining every relation
    /// loaded in the catalog.
    Query {
        /// Server-side catalog name.
        catalog: String,
        /// A conjunctive query (`Q(x, z) :- r(x, y), s(y, z)`) over the
        /// loaded relations (by name, columns bound positionally). When
        /// absent, the full natural join of every loaded relation runs.
        cq: Option<String>,
        /// Join-tree search: `greedy` (default), `dp`, `dp-cpf`, `dp-linear`.
        optimizer: Option<String>,
        /// Join executor: `program` (default), `wcoj`, or `auto` (pick by
        /// AGM bound vs the derived program's Theorem-2 certificate).
        executor: Option<String>,
        /// (`cq` only) compile the query's core (Chandra–Merlin
        /// minimization) instead of the literal body. Default true.
        minimize: bool,
        /// Per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Whether to include the result TSV (default true).
        tsv: bool,
        /// Whether to record the request's spans and return them (default
        /// false).
        trace: bool,
    },
    /// Admission report for a program — or, with `cq`, the minimization
    /// and lint report for a conjunctive query — without executing.
    Explain {
        /// Server-side catalog name.
        catalog: String,
        /// Name of a previously compiled program.
        name: Option<String>,
        /// Inline program text (alternative to `name`).
        program: Option<String>,
        /// A conjunctive query to analyze (alternative to `name`/`program`).
        cq: Option<String>,
        /// Scheme for an inline program.
        scheme: Option<String>,
        /// (`cq` only) report the minimized core. Default true.
        minimize: bool,
    },
    /// Cumulative server counters and cache stats.
    Stats,
    /// Graceful shutdown: drain in-flight requests, exit.
    Shutdown,
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn opt_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

/// An optional boolean field, false when absent.
fn flag(v: &Value, key: &str) -> bool {
    v.get(key).and_then(Value::as_bool).unwrap_or(false)
}

impl Request {
    /// Whether the request asked for its own spans (`"trace": true`).
    pub fn traced(&self) -> bool {
        match self {
            Request::Run { trace, .. } | Request::Query { trace, .. } => *trace,
            _ => false,
        }
    }

    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line)?;
        let cmd = req_str(&v, "cmd")?;
        match cmd.as_str() {
            "ping" => Ok(Request::Ping),
            "load" => Ok(Request::Load {
                catalog: req_str(&v, "catalog")?,
                name: opt_str(&v, "name"),
                tsv: req_str(&v, "tsv")?,
            }),
            "compile" => Ok(Request::Compile {
                catalog: req_str(&v, "catalog")?,
                name: req_str(&v, "name")?,
                program: req_str(&v, "program")?,
                scheme: opt_str(&v, "scheme"),
            }),
            "run" => {
                let name = opt_str(&v, "name");
                let program = opt_str(&v, "program");
                if name.is_none() == program.is_none() {
                    return Err("run takes exactly one of `name` or `program`".to_string());
                }
                Ok(Request::Run {
                    catalog: req_str(&v, "catalog")?,
                    name,
                    program,
                    scheme: opt_str(&v, "scheme"),
                    deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
                    tsv: v.get("tsv").and_then(Value::as_bool).unwrap_or(true),
                    trace: flag(&v, "trace"),
                })
            }
            "query" => Ok(Request::Query {
                catalog: req_str(&v, "catalog")?,
                cq: opt_str(&v, "cq"),
                optimizer: opt_str(&v, "optimizer"),
                executor: opt_str(&v, "executor"),
                minimize: v.get("minimize").and_then(Value::as_bool).unwrap_or(true),
                deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
                tsv: v.get("tsv").and_then(Value::as_bool).unwrap_or(true),
                trace: flag(&v, "trace"),
            }),
            "explain" => {
                let name = opt_str(&v, "name");
                let program = opt_str(&v, "program");
                let cq = opt_str(&v, "cq");
                let given = [&name, &program, &cq]
                    .iter()
                    .filter(|o| o.is_some())
                    .count();
                if given != 1 {
                    return Err(
                        "explain takes exactly one of `name`, `program`, or `cq`".to_string()
                    );
                }
                Ok(Request::Explain {
                    catalog: req_str(&v, "catalog")?,
                    name,
                    program,
                    cq,
                    scheme: opt_str(&v, "scheme"),
                    minimize: v.get("minimize").and_then(Value::as_bool).unwrap_or(true),
                })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd `{other}`")),
        }
    }
}

/// Build an `ok` response skeleton for `cmd`.
pub fn ok(cmd: &str) -> Value {
    Value::obj()
        .set("ok", Value::Bool(true))
        .set("cmd", Value::str(cmd))
}

/// Build an error response of the given kind.
pub fn err(kind: &str, message: impl Into<String>) -> Value {
    Value::obj().set("ok", Value::Bool(false)).set(
        "error",
        Value::obj()
            .set("kind", Value::str(kind))
            .set("message", Value::Str(message.into())),
    )
}

/// Attach extra fields to an error response's `error` object.
pub fn err_with(kind: &str, message: impl Into<String>, extra: Vec<(String, Value)>) -> Value {
    let mut e = Value::obj()
        .set("kind", Value::str(kind))
        .set("message", Value::Str(message.into()));
    for (k, v) in extra {
        e = e.set(&k, v);
    }
    Value::obj().set("ok", Value::Bool(false)).set("error", e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commands() {
        assert_eq!(Request::parse("{\"cmd\":\"ping\"}").unwrap(), Request::Ping);
        let r = Request::parse(
            "{\"cmd\":\"run\",\"catalog\":\"c\",\"name\":\"q\",\"deadline_ms\":100}",
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Run {
                catalog: "c".into(),
                name: Some("q".into()),
                program: None,
                scheme: None,
                deadline_ms: Some(100),
                tsv: true,
                trace: false,
            }
        );
        assert!(!r.traced());
        let traced = |line: &str| Request::parse(line).unwrap().traced();
        assert!(traced(
            "{\"cmd\":\"run\",\"catalog\":\"c\",\"name\":\"q\",\"trace\":true}"
        ));
        assert!(traced(
            "{\"cmd\":\"query\",\"catalog\":\"c\",\"cq\":\"Q(x) :- r(x)\",\"trace\":true}"
        ));
        assert!(!traced("{\"cmd\":\"stats\",\"trace\":true}"));
        assert!(Request::parse("{\"cmd\":\"run\",\"catalog\":\"c\"}").is_err());
        assert!(Request::parse(
            "{\"cmd\":\"run\",\"catalog\":\"c\",\"name\":\"q\",\"program\":\"x\"}"
        )
        .is_err());
        assert!(Request::parse("{\"cmd\":\"nope\"}").is_err());
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn error_payloads_carry_kind() {
        let e = err("admission", "too expensive");
        assert_eq!(e.get("ok").and_then(Value::as_bool), Some(false));
        let kind = e
            .get("error")
            .and_then(|er| er.get("kind"))
            .and_then(Value::as_str);
        assert_eq!(kind, Some("admission"));
    }
}
