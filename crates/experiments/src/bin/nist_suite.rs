//! **§VI-B2 randomness validation**: run the full NIST SP 800-22 suite
//! (all 15 tests) on Von-Neumann-whitened Frac-PUF responses, per
//! module — the paper feeds one million whitened bits per module and
//! reports that all 15 tests pass.
//!
//! Each module's collection + suite run is one fleet task; reports
//! print in module order regardless of `--jobs`.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin nist_suite [-- --bits 1000000 --jobs N]
//! ```

use fracdram::puf::{challenge_set, evaluate_set, whitened_stream};
use fracdram_experiments::{fleet, render, setup, Args, Json, TaskKey};
use fracdram_model::GroupId;
use fracdram_stats::bits::BitVec;
use fracdram_stats::nist;

/// One module's suite run, pre-rendered for plan-order printing.
struct ModuleReport {
    used_rows: usize,
    bits: usize,
    weight: f64,
    report: String,
    passed: bool,
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "nist_suite",
        "run NIST SP 800-22 (15 tests) on whitened Frac-PUF output",
        &[
            (
                "bits",
                "whitened bits per module (default 450000; paper: 1000000)",
            ),
            ("modules", "modules tested (default 2)"),
            ("cols", "columns per chip row (default 4096)"),
            ("seed", "base seed (default 13)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing task (default 0)"),
            ("keep-going", "complete remaining tasks after a failure"),
            ("fail-fast", "stop claiming tasks after a failure (default)"),
            ("json", "write structured fleet results to PATH"),
        ],
    ) {
        return;
    }
    let target_bits = args.usize("bits", 450_000);
    let modules = args.usize("modules", 2);
    let cols = args.usize("cols", 4096);
    let seed = args.u64("seed", 13);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    args.reject_unknown();

    // A roomy row space so every challenge addresses a distinct row —
    // re-evaluating a row reproduces (almost) the same response, and
    // duplicated material would show up as structure in the stream.
    let geometry = fracdram_model::Geometry {
        banks: 8,
        subarrays_per_bank: 4,
        rows_per_subarray: 64,
        columns: cols,
    };
    let capacity = geometry.banks * geometry.rows_per_bank();
    println!(
        "{}",
        render::header("NIST SP 800-22 on whitened Frac-PUF responses (§VI-B2)")
    );

    let groups = [GroupId::B, GroupId::A];
    let plan: Vec<TaskKey> = (0..modules)
        .map(|m| TaskKey::new(groups[m % groups.len()], m, 0))
        .collect();
    let run = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        let mut mc = setup::controller(key.group, geometry, seed + key.module as u64);
        // Draw the whole challenge budget up front, without replacement.
        let challenges = challenge_set(&geometry, capacity, seed);
        let mut whitened = BitVec::new();
        let mut used = 0;
        while whitened.len() < target_bits {
            assert!(
                used + 64 <= capacity,
                "row space exhausted at {} whitened bits; raise --cols or lower --bits",
                whitened.len()
            );
            let responses = evaluate_set(&mut mc, &challenges[used..used + 64]).expect("puf");
            used += 64;
            whitened.extend_from(&whitened_stream(&responses));
        }
        let stream = whitened.slice(0, target_bits.min(whitened.len()));
        let report = nist::run_all(&stream);
        let value = ModuleReport {
            used_rows: used,
            bits: stream.len(),
            weight: stream.hamming_weight(),
            passed: report.all_passed(),
            report: report.to_string(),
        };
        setup::reclaim_caches(&mut mc);
        (value, mc.metrics())
    });
    eprintln!("{}", run.summary());

    let mut all_passed = true;
    for report in &run.tasks {
        let v = &report.value();
        println!(
            "\nmodule {} (group {}): {} whitened bits from {} rows, weight {:.3}",
            report.key.module, report.key.group, v.bits, v.used_rows, v.weight
        );
        println!("{}", v.report);
        all_passed &= v.passed;
    }

    if let Some(path) = args.json_path() {
        run.write_json("nist_suite", path, |v| {
            Json::obj()
                .field("bits", v.bits)
                .field("used_rows", v.used_rows)
                .field("weight", v.weight)
                .field("passed", v.passed)
        })
        .unwrap_or_else(|err| fracdram_experiments::exit_json_write_error(path, &err));
    }

    println!(
        "\n=> {}",
        if all_passed {
            "every applicable test passed on every module (paper: all 15 pass)"
        } else {
            "FAILURES present — see individual p-values above"
        }
    );

    if run.failed() > 0 {
        std::process::exit(1);
    }
}
