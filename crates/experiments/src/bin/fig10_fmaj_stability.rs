//! **Figure 10**: (a) the per-input-combination F-MAJ breakdown on group
//! C (fractional value in R1, initial ones), and (b)/(c) the stability
//! CDFs of F-MAJ on groups B and C — per-column success rate over many
//! trials with random inputs — against the group-B MAJ3 baseline.
//!
//! The headline numbers this regenerates: the average error rate of
//! in-memory majority drops from ~9 % (MAJ3) to ~2 % (F-MAJ) on group B.
//!
//! The (b)/(c) sweep fans out over the experiment fleet: one task per
//! (group, module, sub-array), each with its own controller and
//! task-derived RNG, so `--jobs N` changes wall time but never output.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin fig10_fmaj_stability [-- --trials N --jobs N]
//! ```

use fracdram::fmaj::{combo_breakdown, FmajConfig};
use fracdram::maj3::TEST_COMBINATIONS;
use fracdram::rowsets::{Quad, Triplet};
use fracdram_experiments::{fleet, render, setup, tasks, Args, Json, TaskKey};
use fracdram_model::{GroupId, SubarrayAddr};
use fracdram_stats::rng::Rng;
use fracdram_stats::summary::quantile;

/// One (b)/(c) fleet task: F-MAJ stability plus, on group B, the MAJ3
/// baseline measured on the same controller.
struct Stability {
    fmaj: Vec<f64>,
    maj3: Option<Vec<f64>>,
}

fn print_cdf(label: &str, stability: &[f64]) {
    let always = stability.iter().filter(|&&s| s >= 1.0).count() as f64 / stability.len() as f64;
    let avg_err = 1.0 - stability.iter().sum::<f64>() / stability.len() as f64;
    println!(
        "  {label:<24} always-correct {:>6}   avg error {:>6}   p1/p10/p50 stability {:.3}/{:.3}/{:.3}",
        render::pct(always),
        render::pct(avg_err),
        quantile(stability, 0.01),
        quantile(stability, 0.10),
        quantile(stability, 0.50),
    );
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "fig10_fmaj_stability",
        "reproduce Fig. 10: per-combo breakdown + stability CDFs",
        &[
            (
                "trials",
                "random-input trials per sub-array (default 200; paper: 10000)",
            ),
            (
                "subarrays",
                "sub-arrays sampled per module (default 4; paper: 500)",
            ),
            ("modules", "modules per group (default 2)"),
            ("seed", "base seed (default 10)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing task (default 0)"),
            ("keep-going", "complete remaining tasks after a failure"),
            ("fail-fast", "stop claiming tasks after a failure (default)"),
            ("json", "write structured fleet results to PATH"),
        ],
    ) {
        return;
    }
    let trials = args.usize("trials", 200);
    let subarrays = args.usize("subarrays", 4);
    let modules = args.usize("modules", 2);
    let seed = args.u64("seed", 10);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    args.reject_unknown();

    // ---- (a) per-combination breakdown, group C, frac in R1, ones ----
    println!(
        "{}",
        render::header(
            "Fig. 10a — F-MAJ per-combination coverage (group C, frac in R1, init ones)"
        )
    );
    let mut mc = setup::controller(GroupId::C, setup::compute_geometry(), seed);
    let geometry = *mc.module().geometry();
    let quad = Quad::canonical(&geometry, SubarrayAddr::new(0, 0), GroupId::C).expect("quad");
    println!(
        "{:>6}  {}  overall",
        "#Frac",
        TEST_COMBINATIONS
            .iter()
            .map(|c| format!(
                "{:>9}",
                c.iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect::<String>()
            ))
            .collect::<String>()
    );
    for frac_ops in 0..=5 {
        let config = FmajConfig {
            frac_role: 0,
            init_ones: true,
            frac_ops,
        };
        let b = combo_breakdown(&mut mc, &quad, &config).expect("breakdown");
        println!(
            "{:>6}  {}  {:>7.3}",
            frac_ops,
            b.per_combo
                .iter()
                .map(|p| format!("{p:>9.3}"))
                .collect::<String>(),
            b.overall
        );
    }
    println!("(combos with majority 1 start near 100% at 0 Frac; majority-0 combos start low");
    println!(" and rise as Frac drains the R1 charge — the Fig. 10a green/blue crossover)\n");

    // ---- (b)/(c) stability CDFs over the fleet ------------------------
    println!(
        "{}",
        render::header("Fig. 10b/c — stability over random-input trials")
    );
    println!("trials per sub-array: {trials}\n");

    let mut plan = Vec::new();
    for group in [GroupId::B, GroupId::C] {
        for m in 0..modules {
            for s in 0..subarrays {
                plan.push(TaskKey::new(group, m, s));
            }
        }
    }
    let run = fleet::run_with(&plan, seed, jobs, policy, |key, task_seed| {
        let mut mc = setup::controller(
            key.group,
            setup::compute_geometry(),
            seed + 100 + key.module as u64,
        );
        let geometry = *mc.module().geometry();
        let sa = SubarrayAddr::new(key.subarray % geometry.banks, key.subarray / geometry.banks);
        let quad = Quad::canonical(&geometry, sa, key.group).expect("quad");
        let config = FmajConfig::best_for(key.group);
        let mut rng = Rng::seed_from_u64(task_seed);
        let fmaj = tasks::stability_fmaj(&mut mc, &quad, &config, trials, &mut rng);
        let maj3 = (key.group == GroupId::B).then(|| {
            let triplet = Triplet::first(&geometry, sa);
            tasks::stability_maj3(&mut mc, &triplet, trials, &mut rng)
        });
        setup::reclaim_caches(&mut mc);
        (Stability { fmaj, maj3 }, mc.metrics())
    });
    eprintln!("{}", run.summary());

    for group in [GroupId::B, GroupId::C] {
        println!("group {group}:");
        let config = FmajConfig::best_for(group);
        let mut fmaj_stab = Vec::new();
        let mut maj3_stab = Vec::new();
        for report in run.tasks.iter().filter(|t| t.key.group == group) {
            fmaj_stab.extend_from_slice(&report.value().fmaj);
            if let Some(maj3) = &report.value().maj3 {
                maj3_stab.extend_from_slice(maj3);
            }
        }
        if !maj3_stab.is_empty() {
            print_cdf("MAJ3 baseline", &maj3_stab);
        }
        print_cdf(&format!("F-MAJ ({config:?})"), &fmaj_stab);
        println!();
    }

    if let Some(path) = args.json_path() {
        run.write_json("fig10_fmaj_stability", path, |v| {
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
            let mut obj = Json::obj().field("fmaj_mean", mean(&v.fmaj));
            if let Some(maj3) = &v.maj3 {
                obj = obj.field("maj3_mean", mean(maj3));
            }
            obj
        })
        .unwrap_or_else(|err| fracdram_experiments::exit_json_write_error(path, &err));
    }

    println!("paper: group B F-MAJ has >= 95.4% always-correct columns and the");
    println!("average error rate improves from 9.1% (MAJ3) to 2.2% (F-MAJ);");
    println!("group C modules span ~33-85% always-correct columns.");

    if run.failed() > 0 {
        std::process::exit(1);
    }
}
