//! Metric declarations and the result line.
//!
//! Every run prints a human-readable block and then, as its last line,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Untraced runs carry every end-to-end metric, traced runs every
//! per-layer metric; both lists match `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; README.md says what the work item is on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The 15 NIST SP 800-22 tests, in suite order, as metric suffixes.
pub const NIST_TESTS: [&str; 15] = [
    "frequency",
    "block_frequency",
    "runs",
    "longest_run",
    "matrix_rank",
    "spectral",
    "non_overlapping_template",
    "overlapping_template",
    "universal",
    "linear_complexity",
    "serial",
    "approximate_entropy",
    "cumulative_sums",
    "random_excursions",
    "random_excursions_variant",
];

/// Serve ops of the seven-op mix, as metric suffixes.
pub const SERVE_OPS: [&str; 7] = ["trng", "write", "read", "puf", "copy", "enroll", "verify"];

/// Per-layer metrics: `(name, unit)`. A traced run of any workload
/// prints all of them; one that belongs to another workload reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    // population
    add("model.construct_us_per_die", "us");
    add("model.materialize_us_per_die", "us");
    add("model.kernel_us_per_die", "us");
    add("core.puf_us_per_die", "us");
    add("softmc.retention_us_per_die", "us");
    add("experiments.accum_us_per_die", "us");
    add("experiments.store_write_us_per_die", "us");
    add("experiments.classify_us_per_die", "us");
    add("experiments.fleet_busy_frac", "fraction");
    add("unattributed_us_per_die", "us");
    // nist
    add("core.puf_ms", "ms");
    add("model.kernel_ms", "ms");
    add("model.noise_ms", "ms");
    add("softmc.self_ms", "ms");
    add("core.whiten_ms", "ms");
    add("stats.nist_ms", "ms");
    for test in NIST_TESTS {
        add(&format!("stats.nist.{test}_ms"), "ms");
    }
    add("unattributed_ms", "ms");
    // serve_mem
    add("serve.protocol.parse_us", "us");
    for op in SERVE_OPS {
        add(&format!("serve.pool.execute_us.{op}"), "us");
    }
    add("serve.unattributed_us", "us");
    add("serve.queue_hwm", "count");
    add("serve.drain_batch_mean", "count");
    add("serve.gen_late_ms", "ms");
    add("serve.open_p50_ms", "ms");
    add("serve.open_p99_ms", "ms");
    add("serve.rtt_p50_ms", "ms");
    add("serve.rtt_p90_ms", "ms");
    add("serve.closed_rps", "1/s");
    add("serve.slo_rps", "1/s");
    add("serve.replay_unattributed_ms", "ms");
    // serve_mem: the write-ahead log, journaled from the run's requests
    add("serve.wal.commit_ms", "ms");
    add("serve.wal.syncs_per_req", "ratio");
    add("serve.recover.read_ms", "ms");
    add("serve.recover.replay_us_per_entry", "us");
    add("serve.recovery_s", "s");
    // exact work counts
    for count in [
        "softmc.commands",
        "softmc.activates",
        "softmc.precharges",
        "softmc.reads",
        "softmc.writes",
        "softmc.refreshes",
        "softmc.sim_cycles",
        "model.cache_misses",
        "model.columns",
        "model.noise_draws",
        "model.exp_calls",
        "serve.requests",
        "serve.wal.entries",
        "serve.wal.bytes",
        "stats.nist_passed",
        "stats.nist_applicable",
    ] {
        add(count, "count");
    }
    // every workload
    add("traced_wall_s", "s");
    add("cpu_s", "s");
    add("trace_overhead_frac", "fraction");
    out
}

/// What a workload hands back to the printer.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (the printer fills the declared set).
    pub metrics: BTreeMap<String, f64>,
    /// Work items attempted.
    pub attempted: u64,
    /// Items that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold, one message each.
    pub mismatches: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records an output check: a failing check counts as one failed
    /// item and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Whether every item succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty() && self.attempted > 0
    }
}

/// A finite number in JSON, with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Renders the human block and the final JSON result line.
pub fn render(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let declared: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    if !traced {
        if let Some((name, _)) = declared
            .iter()
            .find(|(n, _)| !outcome.metrics.contains_key(n))
        {
            return Err(format!("workload did not measure end-to-end metric {name}"));
        }
    }
    if let Some(name) = outcome
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("workload set undeclared metric {name}"));
    }
    let mut out = String::new();
    for line in &outcome.lines {
        let _ = writeln!(out, "{line}");
    }
    for m in &outcome.mismatches {
        let _ = writeln!(out, "CHECK FAILED: {m}");
    }
    let failed = outcome.failed + outcome.mismatches.len() as u64;
    let _ = writeln!(
        out,
        "error_rate {:.6} ({failed} failed of {} attempted)",
        failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    let mut fields = Vec::new();
    for (name, unit) in &declared {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(out, "  {name:<40} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        fields.join(", ")
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = fracdram_experiments::Json::parse(&text).expect("valid JSON");
        let fracdram_experiments::Json::Arr(items) = doc.get(section).expect("section").clone()
        else {
            panic!("{section} is not a list");
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                    m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_in_benchmark_json("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_in_benchmark_json("per_layer"), layers);
    }

    #[test]
    fn result_line_is_last_and_counts_mismatches() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.check(false, || "digest differs".to_string());
        let text = render(&o, false).unwrap();
        let last = text.lines().last().unwrap();
        let doc = fracdram_experiments::Json::parse(last).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(1));
        let p50 = doc.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(p50.get("value").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(p50.get("unit").and_then(|v| v.as_str()), Some("ms"));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert!(render(&o, false).is_err());
        assert!(render(&o, true).is_ok());
    }
}
