//! Exactness guarantees of the lazy closed-form leakage path and the
//! donor-stamped materialize-cache sharing.
//!
//! The lazy `leak_row` kernel evaluates each row's decay at its next
//! touch through a cached per-`(row, dt, scale)` factor vector instead
//! of stepping per event. Exactness rests on two claims, each pinned
//! here as a bit-identity property:
//!
//! 1. the cached factor vector holds exactly the scalar
//!    `(-dt / (tau20[col] * scale)).exp()` the stepped kernel computed
//!    inline (no hoisted reciprocals), and
//! 2. donating a warm cache to another controller of the *same*
//!    [`fracdram_model::ChipConfig`] never changes any simulated value,
//!    while donating across configs (different seed, different device
//!    parameters, or an armed fault plan) never leaks stale statics.

use fracdram_model::silicon::Silicon;
use fracdram_model::{
    DeviceParams, Environment, FaultConfig, Geometry, GroupId, MaterializeCache, ModelPerf, Module,
    ModuleConfig, RowAddr, Volts,
};

#[test]
fn decay_factor_vectors_match_inline_scalar_exp() {
    let cols = 64;
    for seed in [1u64, 7, 0xFEED] {
        for group in [GroupId::B, GroupId::C] {
            let silicon = Silicon::new(seed, DeviceParams::default(), group.profile());
            let mut cache = MaterializeCache::new(seed);
            let mut perf = ModelPerf::default();
            for (bank, sub, row) in [(0usize, 0usize, 0usize), (1, 2, 31)] {
                // dt spans refresh-interval-scale waits down to
                // single-command gaps; scale covers nominal and
                // excursion-window temperature accelerations.
                for dt in [1.0e-6, 3.2e-3, 64.0e-3, 512.0e-3] {
                    for scale in [1.0f64, 0.514, 2.375] {
                        cache.ensure_decay_factors(
                            &silicon, &mut perf, bank, sub, row, cols, dt, scale,
                        );
                        let factors = cache.decay_factors(bank, sub, row, dt, scale).to_vec();
                        let tau20 = cache.row(bank, sub, row).tau20.clone();
                        for col in 0..cols {
                            let inline = (-dt / (tau20[col] as f64 * scale)).exp();
                            assert_eq!(
                                factors[col].to_bits(),
                                inline.to_bits(),
                                "seed {seed} {group} ({bank},{sub},{row}) col {col} \
                                 dt {dt} scale {scale}: {} != {inline}",
                                factors[col],
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Drives a seeded write/retire/read-back pattern with long retention
/// waits (so leakage decays measurably) and returns every observable:
/// read-back rows and probed cell voltages.
fn drive(module: &mut Module, pattern_seed: u64) -> (Vec<Vec<bool>>, Vec<Volts>) {
    let width = module.row_bits();
    let mut reads = Vec::new();
    let mut volts = Vec::new();
    let mut t = 1_000u64;
    for round in 0..4u64 {
        let addr = RowAddr::new((round % 2) as usize, (3 + round) as usize);
        let pattern: Vec<bool> = (0..width as u64)
            .map(|i| (i * 13 + pattern_seed + round) % 7 < 3)
            .collect();
        module.activate(addr, t).unwrap();
        module.write(addr.bank, &pattern, t + 10).unwrap();
        module.precharge(addr.bank, t + 20).unwrap();
        t += 40_000_000 * (round + 1);
        module.activate(addr, t).unwrap();
        reads.push(module.read(addr.bank, t + 10).unwrap());
        module.precharge(addr.bank, t + 20).unwrap();
        volts.push(module.probe_cell_voltage(addr, round as usize, t + 30));
        t += 1_000;
    }
    (reads, volts)
}

#[test]
fn donated_caches_do_not_change_module_behavior() {
    // (fault plan armed, temperature) variants: nominal, faulty
    // silicon, and a hot environment (different leak scale).
    for (fault, temp) in [(false, 20.0), (true, 20.0), (false, 45.0)] {
        let cfg = ModuleConfig::single_chip(GroupId::B, 77, Geometry::tiny());
        let make = || {
            let mut m = Module::new(cfg.clone());
            m.set_environment(Environment {
                temperature_c: temp,
                vdd: Volts(1.5),
            });
            if fault {
                m.set_fault_config(&FaultConfig {
                    stuck_density: 0.01,
                    weak_density: 0.05,
                    ..FaultConfig::none()
                });
            }
            m
        };
        let mut warmup = make();
        let baseline = drive(&mut warmup, 5);
        let caches = warmup.take_caches();

        let mut donated = make();
        donated.install_caches(caches);
        assert_eq!(
            drive(&mut donated, 5),
            baseline,
            "fault={fault} temp={temp}: warm-donated run diverged from cold"
        );
        if !fault {
            assert!(
                donated.model_perf().cache_share_hits > 0,
                "same-config donation should credit share hits"
            );
        }

        let mut cold = make();
        assert_eq!(drive(&mut cold, 5), baseline);
    }
}

#[test]
fn mismatched_donor_caches_are_cleared_not_reused() {
    let geometry = Geometry::tiny();

    // Different die seed: stale buffers must not cross.
    let mut a = Module::new(ModuleConfig::single_chip(GroupId::B, 1, geometry));
    drive(&mut a, 9);
    let mut donated = Module::new(ModuleConfig::single_chip(GroupId::B, 2, geometry));
    donated.install_caches(a.take_caches());
    assert_eq!(donated.model_perf().cache_share_hits, 0);
    let mut cold = Module::new(ModuleConfig::single_chip(GroupId::B, 2, geometry));
    assert_eq!(drive(&mut donated, 9), drive(&mut cold, 9));

    // Same seed, different device parameters (the ablation sweep
    // shape): full-config donor stamping must reject the donation even
    // though the seed matches.
    let mut tweaked = DeviceParams::default();
    tweaked.cell_cap_rel_sigma *= 2.0;
    let base_cfg = ModuleConfig::single_chip(GroupId::B, 3, geometry);
    let tweaked_cfg = ModuleConfig {
        params: tweaked,
        ..base_cfg.clone()
    };
    let mut base = Module::new(base_cfg);
    drive(&mut base, 4);
    let mut donated = Module::new(tweaked_cfg.clone());
    donated.install_caches(base.take_caches());
    assert_eq!(donated.model_perf().cache_share_hits, 0);
    let mut cold = Module::new(tweaked_cfg);
    assert_eq!(drive(&mut donated, 4), drive(&mut cold, 4));
}
