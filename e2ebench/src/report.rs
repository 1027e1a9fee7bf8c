//! Results out: the driver's one-line JSON, the suite's result file and
//! table, `--compare`, `--append`, and `--check`.

use crate::json::{number, quote, Json};
use crate::run::RunResult;
use crate::spec::{self, Better, END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::stats::{iqr_frac, median};
use crate::workloads::{Sizes, Workload};
use std::fmt::Write as _;
use std::path::Path;

/// The line the benchmark driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn driver_line(res: &RunResult) -> String {
    let metrics: Vec<String> = res
        .metrics
        .iter()
        .map(|(name, v)| {
            let unit = spec::find(name).map_or("", |s| s.unit);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                number(*v),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        res.correct(),
        res.attempted.max(1),
        res.failed,
        metrics.join(",")
    )
}

/// Everything the suite measured for one workload: one [`RunResult`] pair
/// (end-to-end, per-layer) per `--runs` repetition.
pub struct WorkloadResults {
    pub workload: Workload,
    pub end_to_end: Vec<RunResult>,
    pub per_layer: Vec<RunResult>,
}

impl WorkloadResults {
    fn values(&self, name: &str) -> Vec<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .filter_map(|r| r.get(name))
            .collect()
    }

    pub fn median(&self, name: &str) -> f64 {
        median(&self.values(name))
    }

    fn samples(&self, name: &str) -> usize {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .flat_map(|r| &r.samples)
            .filter(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .sum::<usize>()
            .max(self.values(name).len())
    }

    pub fn attempted(&self) -> u64 {
        self.end_to_end.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|r| r.failed.max(u64::from(!r.correct())))
            .sum()
    }
}

/// The suite's human-readable table: every metric by name with its unit.
pub fn print_table(results: &[WorkloadResults]) {
    for wr in results {
        println!(
            "\n== {} ==  ops_attempted {}  ops_failed {}",
            wr.workload.name(),
            wr.attempted(),
            wr.failed()
        );
        println!("   {}", wr.workload.why());
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            if wr.values(spec.name).is_empty() {
                continue;
            }
            println!(
                "  {:<34} {:>16.4} {:<6} ({} better, n={})",
                spec.name,
                wr.median(spec.name),
                spec.unit,
                spec.better.as_str(),
                wr.samples(spec.name)
            );
        }
    }
}

/// Days since 1970-01-01 → `(year, month, day)` (Howard Hinnant's
/// `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() as i64);
    let (y, m, d) = civil_from_days(secs.div_euclid(86_400));
    let s = secs.rem_euclid(86_400);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        s / 3600,
        s % 3600 / 60,
        s % 60
    )
}

/// `git rev-parse HEAD`, or `unknown` outside a repository (the driver's
/// checkout is not one).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// One schema for everything: metrics with unit, direction, sample count
/// and one value per repetition; workloads with sizes and operation counts.
pub fn suite_json(results: &[WorkloadResults], seed: u64, seconds: f64, smoke: bool) -> String {
    let sizes = Sizes::of(smoke);
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut out = format!(
        "{{\"schema\":1,\"commit\":{},\"date\":{},\"seed\":{seed},\"run_seconds\":{},\"smoke\":{smoke},\"nproc\":{nproc},\"workloads\":[\n",
        quote(&commit()),
        quote(&utc_now()),
        number(seconds),
    );
    for (i, wr) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = writeln!(
            out,
            " {{\"name\":{},\"why\":{},\"sizes\":{},\"ops_attempted\":{},\"ops_failed\":{},\"metrics\":{{",
            quote(wr.workload.name()),
            quote(wr.workload.why()),
            sizes.to_json(wr.workload),
            wr.attempted(),
            wr.failed()
        );
        let mut first = true;
        for (spec, kind) in END_TO_END
            .iter()
            .map(|s| (s, "end_to_end"))
            .chain(PER_LAYER.iter().map(|s| (s, "per_layer")))
        {
            let values = wr.values(spec.name);
            if values.is_empty() {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let rendered: Vec<String> = values.iter().map(|v| number(*v)).collect();
            let _ = write!(
                out,
                "  {}:{{\"kind\":\"{kind}\",\"unit\":{},\"better\":\"{}\",\"samples\":{},\"values\":[{}]}}",
                quote(spec.name),
                quote(spec.unit),
                spec.better.as_str(),
                wr.samples(spec.name),
                rendered.join(",")
            );
        }
        out.push_str("\n }}");
    }
    out.push_str("\n]}\n");
    out
}

/// `--append`: one line per suite run — commit, date, seed and each
/// metric's median — for a trajectory kept outside the benchmark's paths.
pub fn append_line(path: &Path, results: &[WorkloadResults], seed: u64) -> Result<(), String> {
    let workloads: Vec<String> = results
        .iter()
        .map(|wr| {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .filter(|s| !wr.values(s.name).is_empty())
                .map(|s| format!("{}:{}", quote(s.name), number(wr.median(s.name))))
                .collect();
            format!("{}:{{{}}}", quote(wr.workload.name()), metrics.join(","))
        })
        .collect();
    let line = format!(
        "{{\"commit\":{},\"date\":{},\"seed\":{seed},\"metrics\":{{{}}}}}\n",
        quote(&commit()),
        quote(&utc_now()),
        workloads.join(",")
    );
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// --compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judge `b` against `a` for one (metric, workload) pair under `bound`.
///
/// `unresolved` when either side's own run-to-run spread (quartile distance
/// over median, needs four runs) is wider than the bound — then neither
/// "same" nor a change can be told apart from noise. Otherwise `worse` when
/// `b`'s median is worse by more than the bound, `better` when it is better
/// by more than the bound, `same` in between.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = |v: &[f64]| if v.len() >= 4 { iqr_frac(v) } else { 0.0 };
    let verdict = if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, change)
}

fn metric_values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .map_or(&[][..], Json::arr)
        .iter()
        .find(|w| w.get("name").and_then(Json::str) == Some(workload))
        .and_then(|w| w.get("metrics")?.get(metric)?.get("values").map(Json::arr))
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::num)
        .collect()
}

/// Compare two result files. Prints one row per workload with a verdict per
/// end-to-end metric, then any exact-count layer metric that differs.
/// Returns whether the files agree: no `worse`, no `unresolved`, no count
/// mismatch.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    let mut agree = true;
    print!("{:<12}", "workload");
    for m in END_TO_END {
        print!(
            " {:<26}",
            format!("{} (±{:.0}%)", m.name, m.bound.unwrap_or(0.0) * 100.0)
        );
    }
    println!();
    for w in Workload::ALL {
        let mut row = format!("{:<12}", w.name());
        let mut any = false;
        for m in END_TO_END {
            let (va, vb) = (
                metric_values(&a, w.name(), m.name),
                metric_values(&b, w.name(), m.name),
            );
            if va.is_empty() || vb.is_empty() {
                let _ = write!(row, " {:<26}", "-");
                continue;
            }
            any = true;
            let (verdict, change) = judge(&va, &vb, m.better, m.bound.unwrap_or(0.0));
            agree &= matches!(verdict, Verdict::Better | Verdict::Same);
            let word = format!("{verdict:?}").to_lowercase();
            let _ = write!(row, " {:<26}", format!("{word} {:+.1}%", change * 100.0));
        }
        if any {
            println!("{row}");
        }
        for name in EXACT_COUNTS {
            let (va, vb) = (
                metric_values(&a, w.name(), name),
                metric_values(&b, w.name(), name),
            );
            if !va.is_empty() && !vb.is_empty() && (median(&va) != median(&vb)) {
                agree = false;
                println!(
                    "  count mismatch {}: {} vs {}",
                    name,
                    median(&va),
                    median(&vb)
                );
            }
        }
    }
    Ok(agree)
}

// ---------------------------------------------------------------------------
// --check

/// The assertions `--check` adds on top of the answer oracles: the replay
/// accounts for the operation, and each workload is dominated by the layer
/// it was chosen to exercise. Timing shares are skipped in smoke mode,
/// where every operation is mostly process start-up.
pub fn check(results: &[WorkloadResults], smoke: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let get = |w: Workload, name: &str| {
        results
            .iter()
            .find(|r| r.workload == w)
            .map(|r| r.median(name))
    };
    for wr in results {
        let w = wr.workload;
        let m = |name: &str| wr.median(name);
        let mut need = |ok: bool, what: String| {
            if !ok {
                bad.push(format!("{}: {what}", w.name()));
            }
        };
        if !w.is_serve() && !smoke {
            let u = m("cli.unattributed_frac");
            need(
                (-0.10..=0.15).contains(&u),
                format!("cli.unattributed_frac {u:.3} outside [-0.10, 0.15]: the replay no longer adds up to the operation"),
            );
        }
        match w {
            Workload::Ex3Dp if !smoke => need(
                m("optimizer.plan_ms") > 0.8 * m("op_ms_p50"),
                format!(
                    "optimizer.plan_ms {:.1} is not > 80% of op_ms_p50 {:.1}",
                    m("optimizer.plan_ms"),
                    m("op_ms_p50")
                ),
            ),
            Workload::StarQuery if !smoke => {
                let io = m("relation.load_ms") + m("relation.write_ms") + m("cq.materialize_ms");
                need(
                    io > 0.5 * m("op_ms_p50"),
                    format!(
                        "load+write+materialize {io:.1} ms is not > 50% of op_ms_p50 {:.1}",
                        m("op_ms_p50")
                    ),
                );
            }
            Workload::TriWcoj => need(
                m("wcoj.selected") == 1.0,
                format!("wcoj.selected = {}, expected 1", m("wcoj.selected")),
            ),
            Workload::ChainSpill => need(
                m("relation.spill_partitions") > 0.0,
                "relation.spill_partitions = 0: nothing spilled".to_string(),
            ),
            Workload::ServeWarm => need(
                m("serve.cache_hit_frac") > 0.9,
                format!(
                    "serve.cache_hit_frac {:.3} is not > 0.9",
                    m("serve.cache_hit_frac")
                ),
            ),
            Workload::ServeChurn => {
                if let Some(warm) = get(Workload::ServeWarm, "serve.cache_hit_frac") {
                    need(
                        m("serve.cache_hit_frac") < warm,
                        format!(
                            "serve.cache_hit_frac {:.3} is not below serve_warm's {warm:.3}",
                            m("serve.cache_hit_frac")
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let lower = |a: &[f64], b: &[f64]| judge(a, b, Better::Lower, 0.10).0;
        assert_eq!(lower(&[100.0], &[105.0]), Verdict::Same);
        assert_eq!(lower(&[100.0], &[115.0]), Verdict::Worse);
        assert_eq!(lower(&[100.0], &[85.0]), Verdict::Better);
        assert_eq!(
            judge(&[100.0], &[85.0], Better::Higher, 0.10).0,
            Verdict::Worse
        );
        // Quartiles 70 and 130 around a median of 100: spread 0.6 > bound.
        let noisy = [60.0, 70.0, 100.0, 130.0, 140.0];
        assert_eq!(lower(&noisy, &[100.0; 5]), Verdict::Unresolved);
    }

    #[test]
    fn dates_are_civil() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
    }
}
