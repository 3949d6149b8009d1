//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload population --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`population`, `nist`, `serve_mem`)
//! at the given seed for the given number of seconds, checks its
//! outputs, and prints a human-readable block followed by one JSON
//! result line. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` runs the traced pass and prints the
//! per-layer metrics and a layer table that adds up to the traced wall
//! time. Run it from the repository root. README.md in this directory
//! documents the workloads and metrics.

mod nist;
mod population;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::Outcome;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["population", "nist", "serve_mem"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not an integer"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a positive integer"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// A measuring window of a fixed length.
pub struct Clock {
    started: Instant,
    length: Duration,
}

impl Clock {
    /// Starts a window of `seconds`.
    pub fn start(seconds: u64) -> Clock {
        Clock {
            started: Instant::now(),
            length: Duration::from_secs(seconds),
        }
    }

    /// Whether the window has closed.
    pub fn done(&self) -> bool {
        self.started.elapsed() >= self.length
    }
}

/// Adds a traced pass's layer table (wall-time shares of each span
/// name, plus `unattributed`) to the human block, checks that it adds
/// up, sets `traced_wall_s`, and returns the `unattributed` ns.
pub fn layer_table(out: &mut Outcome, pass: &trace::Pass) -> f64 {
    let table = pass.table();
    let wall_ns = pass.wall_ns();
    out.set("traced_wall_s", wall_ns as f64 / 1e9);
    let total: f64 = table.iter().map(|(_, ns)| ns).sum();
    out.line(format!(
        "layer table (wall share of the traced run, {:.3} ms):",
        wall_ns as f64 / 1e6
    ));
    let mut rows: Vec<&(String, f64)> = table.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ns) in rows {
        out.line(format!(
            "  {name:<40} {:>12.3} ms {:>6.1}%",
            ns / 1e6,
            100.0 * ns / wall_ns.max(1) as f64
        ));
    }
    out.line(format!(
        "  {:<40} {:>12.3} ms (rows sum; traced wall {:.3} ms)",
        "total",
        total / 1e6,
        wall_ns as f64 / 1e6
    ));
    out.check(
        (total - wall_ns as f64).abs() <= 1e-6 * wall_ns as f64 + 1.0,
        || format!("layer table sums to {total} ns, not the traced wall {wall_ns} ns"),
    );
    table
        .iter()
        .find(|(n, _)| n == trace::UNATTRIBUTED)
        .map_or(0.0, |(_, ns)| *ns)
}

/// A scratch directory inside the build directory, removed on exit.
fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join(format!("perfbench-scratch-{}", std::process::id()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <n>] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let scratch = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let started = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("population", false) => population::run(&args, &scratch),
        ("population", true) => population::run_traced(&args, &scratch),
        ("nist", false) => nist::run(&args),
        ("nist", true) => nist::run_traced(&args),
        ("serve_mem", false) => serve::run(&args),
        ("serve_mem", true) => serve::run_traced(&args, &scratch),
        (other, _) => unreachable!("parse_args admits no workload {other:?}"),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let wall = started.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds() - cpu0;
    if args.trace {
        outcome.set("cpu_s", cpu);
    }
    outcome.lines.insert(
        0,
        format!(
            "perfbench {} seed={} seconds={} trace={} wall_s={wall:.3} cpu_s={cpu:.3} {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            sys::fingerprint()
        ),
    );
    match report::render(&outcome, args.trace) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload nist --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("nist", 7, 3, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload nist")).is_err());
        assert!(parse_args(&argv("--workload nist --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload nist --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload nist --seed 1 --extra")).is_err());
    }
}
