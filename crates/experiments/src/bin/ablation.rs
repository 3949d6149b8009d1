//! **Ablation study**: which model mechanism drives which paper result.
//!
//! DESIGN.md argues the reproduction is mechanistic — every headline
//! number should be traceable to one physical knob. This binary turns
//! each knob and shows the result moving:
//!
//! 1. static share-weight variation → F-MAJ/MAJ3 *coverage* (Fig. 9);
//! 2. temporal decoder jitter → majority *stability* (Fig. 10);
//! 3. per-cell charge injection → PUF challenge diversity (and NIST
//!    §VI-B2 viability);
//! 4. sense-offset group mean → PUF Hamming weight (Fig. 11).
//!
//! Every sweep point is an independent die, so each section runs as a
//! small fleet with the sweep index in the task's `variant` slot.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin ablation [-- --jobs N]
//! ```

use fracdram::fmaj::{fmaj_coverage, FmajConfig};
use fracdram::maj3::maj3_coverage;
use fracdram::puf::{evaluate, Challenge};
use fracdram::rowsets::{Quad, Triplet};
use fracdram_experiments::{fleet, render, tasks, Args, Json, TaskKey};
use fracdram_model::{DeviceParams, Geometry, GroupId, Module, ModuleConfig, SubarrayAddr, Volts};
use fracdram_softmc::MemoryController;
use fracdram_stats::hamming::normalized_distance;
use fracdram_stats::rng::Rng;

fn geometry() -> Geometry {
    Geometry {
        banks: 2,
        subarrays_per_bank: 2,
        rows_per_subarray: 32,
        columns: 512,
    }
}

fn controller_with(group: GroupId, seed: u64, params: DeviceParams) -> MemoryController {
    MemoryController::new(Module::new(ModuleConfig {
        group,
        seed,
        geometry: geometry(),
        chips: 1,
        params,
    }))
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "ablation",
        "turn each model knob and watch the corresponding paper result move",
        &[
            ("seed", "base die seed (default 15)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing task (default 0)"),
            ("keep-going", "complete remaining tasks after a failure"),
            ("fail-fast", "stop claiming tasks after a failure (default)"),
            ("json", "write structured sweep results to PATH"),
        ],
    ) {
        return;
    }
    let seed = args.u64("seed", 15);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    args.reject_unknown();

    // ---- 1. static weight variation vs coverage ----------------------
    println!(
        "{}",
        render::header("1. static share-weight sigma -> majority coverage (Fig. 9 driver)")
    );
    println!(
        "{:>8} {:>14} {:>14}",
        "sigma", "MAJ3 coverage", "F-MAJ coverage"
    );
    let weight_sigmas = [0.0, 0.03, 0.06, 0.12, 0.24];
    let plan: Vec<TaskKey> = (0..weight_sigmas.len())
        .map(|v| TaskKey::new(GroupId::B, 0, 0).with_variant(v))
        .collect();
    let coverage = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        let params = DeviceParams {
            share_weight_sigma: weight_sigmas[key.variant],
            ..DeviceParams::default()
        };
        let mut mc = controller_with(GroupId::B, seed, params);
        let g = *mc.module().geometry();
        let triplet = Triplet::first(&g, SubarrayAddr::new(0, 0));
        let quad = Quad::canonical(&g, SubarrayAddr::new(0, 1), GroupId::B).unwrap();
        let maj3 = maj3_coverage(&mut mc, &triplet).unwrap();
        let fm = fmaj_coverage(&mut mc, &quad, &FmajConfig::best_for(GroupId::B)).unwrap();
        ((maj3, fm), mc.metrics())
    });
    for report in &coverage.tasks {
        let (maj3, fm) = *report.value();
        println!(
            "{:>8.2} {maj3:>14.3} {fm:>14.3}",
            weight_sigmas[report.key.variant]
        );
    }
    println!("(coverage is limited by static variation; F-MAJ stays ahead of MAJ3)\n");

    // ---- 2. temporal jitter vs stability ------------------------------
    println!(
        "{}",
        render::header("2. temporal decoder jitter -> majority stability (Fig. 10 driver)")
    );
    println!(
        "{:>8} {:>16} {:>16}",
        "sigma", "always-correct", "avg error"
    );
    let jitter_sigmas = [0.0, 0.03, 0.06, 0.15];
    let plan: Vec<TaskKey> = (0..jitter_sigmas.len())
        .map(|v| TaskKey::new(GroupId::B, 0, 0).with_variant(v))
        .collect();
    let trials = 60;
    let stability = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        let params = DeviceParams {
            share_temporal_sigma: jitter_sigmas[key.variant],
            ..DeviceParams::default()
        };
        let mut mc = controller_with(GroupId::B, seed, params);
        let g = *mc.module().geometry();
        let quad = Quad::canonical(&g, SubarrayAddr::new(0, 0), GroupId::B).unwrap();
        let config = FmajConfig::best_for(GroupId::B);
        // Deliberately the same RNG seed at every sweep point: each
        // sigma sees the same operand sequence (a paired comparison).
        let mut rng = Rng::seed_from_u64(seed);
        let rates = tasks::stability_fmaj(&mut mc, &quad, &config, trials, &mut rng);
        let always = rates.iter().filter(|&&r| r >= 1.0).count() as f64 / rates.len() as f64;
        let avg_err = 1.0 - rates.iter().sum::<f64>() / rates.len() as f64;
        ((always, avg_err), mc.metrics())
    });
    for report in &stability.tasks {
        let (always, avg_err) = *report.value();
        println!(
            "{:>8.2} {:>16} {:>16}",
            jitter_sigmas[report.key.variant],
            render::pct(always),
            render::pct(avg_err)
        );
    }
    println!("(with zero jitter every column is deterministic: stability is binary)\n");

    // ---- 3. cell injection vs challenge diversity ----------------------
    println!(
        "{}",
        render::header("3. per-cell charge injection -> PUF challenge diversity (NIST driver)")
    );
    println!("{:>10} {:>22}", "sigma (V)", "same-subarray HD");
    let inject_sigmas = [0.0, 0.02, 0.05, 0.10];
    let plan: Vec<TaskKey> = (0..inject_sigmas.len())
        .map(|v| TaskKey::new(GroupId::B, 0, 0).with_variant(v))
        .collect();
    let diversity = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        let params = DeviceParams {
            cell_inject_sigma: Volts(inject_sigmas[key.variant]),
            ..DeviceParams::default()
        };
        let mut mc = controller_with(GroupId::B, seed, params);
        let r1 = evaluate(&mut mc, Challenge::new(0, 3)).unwrap();
        let r2 = evaluate(&mut mc, Challenge::new(0, 4)).unwrap();
        (normalized_distance(&r1, &r2), mc.metrics())
    });
    for report in &diversity.tasks {
        println!(
            "{:>10.2} {:>22.3}",
            inject_sigmas[report.key.variant],
            report.value()
        );
    }
    println!("(without injection, rows sharing sense amplifiers answer identically:");
    println!(" the challenge space collapses and the whitened stream turns periodic)\n");

    // ---- 4. sense-offset mean vs Hamming weight ------------------------
    println!(
        "{}",
        render::header("4. sense-offset group mean -> PUF Hamming weight (Fig. 11 driver)")
    );
    println!("{:>12} {:>16}", "mean (mV)", "Hamming weight");
    let plan: Vec<TaskKey> = [GroupId::A, GroupId::B, GroupId::E, GroupId::G]
        .into_iter()
        .map(|group| TaskKey::new(group, 0, 0))
        .collect();
    let weights = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        let mut mc = controller_with(key.group, seed, DeviceParams::default());
        let r = evaluate(&mut mc, Challenge::new(1, 7)).unwrap();
        (r.hamming_weight(), mc.metrics())
    });
    for report in &weights.tasks {
        println!(
            "{:>12.1} {:>16.3}",
            report.key.group.profile().sense_offset_mean.value() * 1000.0,
            report.value()
        );
    }
    println!("(larger positive offsets push more columns below threshold: fewer ones)");

    if let Some(path) = args.json_path() {
        let section = |name: &str, rows: Vec<Json>| {
            Json::obj()
                .field("section", name)
                .field("rows", Json::Arr(rows))
        };
        let doc = Json::obj()
            .field("experiment", "ablation")
            .field("base_seed", seed)
            .field(
                "sections",
                Json::Arr(vec![
                    section(
                        "share_weight_sigma",
                        coverage
                            .tasks
                            .iter()
                            .map(|t| {
                                Json::obj()
                                    .field("sigma", weight_sigmas[t.key.variant])
                                    .field("maj3_coverage", t.value().0)
                                    .field("fmaj_coverage", t.value().1)
                            })
                            .collect(),
                    ),
                    section(
                        "share_temporal_sigma",
                        stability
                            .tasks
                            .iter()
                            .map(|t| {
                                Json::obj()
                                    .field("sigma", jitter_sigmas[t.key.variant])
                                    .field("always_correct", t.value().0)
                                    .field("avg_error", t.value().1)
                            })
                            .collect(),
                    ),
                    section(
                        "cell_inject_sigma",
                        diversity
                            .tasks
                            .iter()
                            .map(|t| {
                                Json::obj()
                                    .field("sigma", inject_sigmas[t.key.variant])
                                    .field("hd", *t.value())
                            })
                            .collect(),
                    ),
                    section(
                        "sense_offset_mean",
                        weights
                            .tasks
                            .iter()
                            .map(|t| {
                                Json::obj()
                                    .field("group", t.key.group.to_string())
                                    .field("hamming_weight", *t.value())
                            })
                            .collect(),
                    ),
                ]),
            );
        std::fs::write(path, format!("{doc}\n"))
            .unwrap_or_else(|err| fracdram_experiments::exit_json_write_error(path, &err));
    }

    if coverage.failed() + stability.failed() + diversity.failed() + weights.failed() > 0 {
        std::process::exit(1);
    }
}
