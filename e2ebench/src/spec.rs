//! The benchmark's metric and workload tables — the one place their names,
//! units, directions and bounds are written down in code. `BENCHMARK.json`
//! repeats them for the driver; `tests/e2e_smoke.rs` fails if the two drift.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; the same four on every workload.
///
/// The bounds are what the sandbox can resolve, not what one would like: ten
/// runs of one commit spread (quartile distance ÷ median) by 2–13 % on the
/// two timing metrics and up to 5 % on memory, because whatever shares the
/// host moves memory-bound work by ±10 % for tens of seconds at a time. A
/// bound has to sit well above the benchmark's own spread to mean anything.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// One group per crate the replay enters. A metric that does not apply to a
/// workload (no spill on `star_query`, no server on `ex3_dp`) reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("relation.load_ms", "ms", Lower),
    layer("relation.load_mb_per_s", "MB/s", Higher),
    layer("relation.write_ms", "ms", Lower),
    layer("relation.write_mb_per_s", "MB/s", Higher),
    layer("relation.join_ms", "ms", Lower),
    layer("relation.semijoin_ms", "ms", Lower),
    layer("relation.project_ms", "ms", Lower),
    layer("relation.spill_partitions", "count", Lower),
    layer("relation.spilled_bytes", "bytes", Lower),
    layer("relation.spill_passes", "count", Lower),
    layer("relation.spill_overhead_ratio", "ratio", Lower),
    layer("optimizer.plan_ms", "ms", Lower),
    layer("optimizer.oracle_calls", "count", Lower),
    layer("optimizer.dp_subproblems", "count", Lower),
    layer("optimizer.rss_after_plan_mb", "MB", Lower),
    layer("expr.tree_cost_ms", "ms", Lower),
    layer("core.derive_ms", "ms", Lower),
    layer("core.program_stmts", "count", Lower),
    layer("analyze.certify_ms", "ms", Lower),
    layer("analyze.mem_cert_peak_bytes", "bytes", Lower),
    layer("analyze.cert_over_measured", "ratio", Lower),
    layer("program.execute_ms", "ms", Lower),
    layer("program.head_tuples", "count", Lower),
    layer("program.cost_tuples", "count", Lower),
    layer("program.peak_resident_tuples", "count", Lower),
    layer("program.blowup", "ratio", Lower),
    layer("program.index_cache_hit_frac", "frac", Higher),
    layer("wcoj.execute_ms", "ms", Lower),
    layer("wcoj.seeks", "count", Lower),
    layer("wcoj.attr_loops", "count", Lower),
    layer("wcoj.selected", "count", Higher),
    layer("cq.parse_ms", "ms", Lower),
    layer("cq.minimize_ms", "ms", Lower),
    layer("cq.atoms_dropped", "count", Higher),
    layer("cq.execute_query_ms", "ms", Lower),
    layer("cq.materialize_ms", "ms", Lower),
    layer("serve.run_ms_p50", "ms", Lower),
    layer("serve.run_ms_p99", "ms", Lower),
    layer("serve.query_ms_p50", "ms", Lower),
    layer("serve.query_ms_p99", "ms", Lower),
    layer("serve.load_ms_p50", "ms", Lower),
    layer("serve.compile_ms_p50", "ms", Lower),
    layer("serve.cache_hit_frac", "frac", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.rss_growth_mb", "MB", Lower),
    layer("serve.json_parse_mb_per_s", "MB/s", Higher),
    layer("serve.json_render_mb_per_s", "MB/s", Higher),
    layer("pool.tasks", "count", Lower),
    layer("pool.task_wait_us", "us", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    layer("cli.startup_ms", "ms", Lower),
    layer("cli.unattributed_frac", "frac", Lower),
    layer("harness.op_ms_p90", "ms", Lower),
    layer("harness.op_ms_iqr_frac", "frac", Lower),
    layer("harness.build_s", "s", Lower),
];

/// Layer counts that must repeat exactly between two runs of one commit on
/// one seed; `--compare` reports any that differ.
pub const EXACT_COUNTS: &[&str] = &[
    "program.cost_tuples",
    "program.head_tuples",
    "relation.spilled_bytes",
    "wcoj.seeks",
    "optimizer.oracle_calls",
];

pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
