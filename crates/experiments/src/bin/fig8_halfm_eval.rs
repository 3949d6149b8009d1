//! **Figure 8**: evaluation of Half-m on group B — retention profiles of
//! the "weak one" and the Half value (against a 5×Frac reference), and
//! the MAJ3 verification of the values left in rows 0 and 1.
//!
//! The retention profiles track one quad on one die and stay serial;
//! the MAJ3 verification scan fans out over the fleet with one task per
//! (initialization, sub-array) cell.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin fig8_halfm_eval [-- --subarrays N --jobs N]
//! ```

use fracdram::frac::{frac_program, physical_pattern};
use fracdram::halfm::halfm_in_place;
use fracdram::maj3::maj3_in_place;
use fracdram::retention::{BucketCounts, RetentionBucket};
use fracdram::rowsets::{Quad, Triplet};
use fracdram_experiments::{fleet, render, setup, Args, Json, TaskKey};
use fracdram_model::{GroupId, RowAddr, Seconds, SubarrayAddr};
use fracdram_softmc::MemoryController;

/// Quad initialization flavors.
#[derive(Clone, Copy, PartialEq)]
enum Init {
    /// Physical Vdd in all four rows (weak ones after Half-m).
    AllOnes,
    /// Physical ground in all four rows (weak zeros after Half-m).
    AllZeros,
    /// Two ones, two zeros per column (Half value after Half-m).
    Balanced,
}

/// The three verification scans, in figure order.
const SCANS: [(&str, Init, &str); 3] = [
    ("weak ones", Init::AllOnes, "(1,1)"),
    ("weak zeros", Init::AllZeros, "(0,0)"),
    ("Half value", Init::Balanced, "(1,0) = distinguishable Half"),
];

fn write_quad(mc: &mut MemoryController, quad: &Quad, init: Init) {
    let geometry = *mc.module().geometry();
    let balanced_one = [true, false, true, false];
    for (slot, row) in quad.rows(&geometry).into_iter().enumerate() {
        let physical = match init {
            Init::AllOnes => true,
            Init::AllZeros => false,
            Init::Balanced => balanced_one[slot],
        };
        let bits = physical_pattern(mc, row, physical);
        mc.write_row(row, &bits).expect("quad init");
    }
}

/// Retention buckets of `watch_row` after a preparation step, where a
/// cell "survives" while it still reads as physical one.
fn measure<F>(mc: &mut MemoryController, watch_row: RowAddr, mut prepare: F) -> Vec<RetentionBucket>
where
    F: FnMut(&mut MemoryController),
{
    let delays = [
        Seconds(0.001),
        Seconds::from_minutes(10.0),
        Seconds::from_minutes(30.0),
        Seconds::from_minutes(60.0),
        Seconds::from_hours(12.0),
    ];
    let ones = physical_pattern(mc, watch_row, true);
    let width = ones.len();
    let mut buckets = vec![RetentionBucket::Over12Hours; width];
    let mut alive = vec![true; width];
    for (probe, delay) in delays.into_iter().enumerate() {
        prepare(mc);
        mc.wait_seconds(delay);
        let read = mc.read_row(watch_row).expect("probe read");
        for col in 0..width {
            if alive[col] && read[col] != ones[col] {
                alive[col] = false;
                buckets[col] = RetentionBucket::ALL[probe];
            }
        }
    }
    buckets
}

/// One verification task: the (probe=1, probe=0) MAJ3 result pairs for
/// one initialization on one sub-array.
fn verify_pairs(
    mc: &mut MemoryController,
    subarray: SubarrayAddr,
    init: Init,
) -> Vec<(bool, bool)> {
    let geometry = *mc.module().geometry();
    let quad = Quad::canonical(&geometry, subarray, GroupId::B).expect("quad");
    let triplet = Triplet::first(&geometry, subarray);
    let probe_row = triplet.rows(&geometry)[1]; // local row 2 = role R2
    let anti: Vec<bool> = physical_pattern(mc, probe_row, true)
        .into_iter()
        .map(|b| !b)
        .collect();
    let mut run = |probe: bool| -> Vec<bool> {
        write_quad(mc, &quad, init);
        halfm_in_place(mc, &quad).expect("halfm");
        let bits = physical_pattern(mc, probe_row, probe);
        mc.write_row(probe_row, &bits).expect("probe write");
        maj3_in_place(mc, &triplet)
            .expect("maj3")
            .into_iter()
            .zip(&anti)
            .map(|(b, &a)| b ^ a)
            .collect()
    };
    let x1 = run(true);
    let x2 = run(false);
    x1.into_iter().zip(x2).collect()
}

fn print_profile(label: &str, buckets: &[RetentionBucket]) {
    let pdf = BucketCounts::from_buckets(buckets).pdf();
    let cells: String = (0..6).map(|rank| render::shade(pdf[rank])).collect();
    let detail: String = (0..6)
        .map(|rank| format!("{:>6}", render::pct(pdf[rank])))
        .collect();
    println!("  {label:<22} |{cells}|  {detail}");
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "fig8_halfm_eval",
        "reproduce Fig. 8: Half-m retention + MAJ3 verification (group B)",
        &[
            (
                "subarrays",
                "sub-arrays scanned for the MAJ3 part (default 4)",
            ),
            ("seed", "die seed (default 8)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing task (default 0)"),
            ("keep-going", "complete remaining tasks after a failure"),
            ("fail-fast", "stop claiming tasks after a failure (default)"),
            ("json", "write structured fleet results to PATH"),
        ],
    ) {
        return;
    }
    let subarrays = args.usize("subarrays", 4);
    let seed = args.u64("seed", 8);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    args.reject_unknown();

    let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), seed);
    let geometry = *mc.module().geometry();
    let sa = SubarrayAddr::new(0, 0);
    let quad = Quad::canonical(&geometry, sa, GroupId::B).expect("quad");
    // Row 0 (role R3) holds the generated value and is also row 0 of the
    // verification triplet, exactly as in the paper.
    let watch = quad.rows(&geometry)[2];

    println!(
        "{}",
        render::header("Fig. 8 — Half-m evaluation (group B, quad {8,1,0,9})")
    );
    println!("\nretention PDFs over buckets [0 | 0-10m | 10-30m | 30-60m | 1-12h | >12h]:");

    let q = quad;
    let normal = measure(&mut mc, watch, |mc| {
        let bits = physical_pattern(mc, watch, true);
        mc.write_row(watch, &bits).expect("write");
    });
    print_profile("normal ones", &normal);

    let weak_ones = measure(&mut mc, watch, |mc| {
        write_quad(mc, &q, Init::AllOnes);
        halfm_in_place(mc, &q).expect("halfm");
    });
    print_profile("weak ones (Half-m)", &weak_ones);

    let half = measure(&mut mc, watch, |mc| {
        write_quad(mc, &q, Init::Balanced);
        halfm_in_place(mc, &q).expect("halfm");
    });
    print_profile("Half value (Half-m)", &half);

    let frac5 = measure(&mut mc, watch, |mc| {
        let bits = physical_pattern(mc, watch, true);
        mc.write_row(watch, &bits).expect("write");
        mc.run(&frac_program(watch, 5)).expect("frac");
    });
    print_profile("5x Frac reference", &frac5);

    // ---- MAJ3 verification of the Half-m products over the fleet ----
    println!("\nMAJ3 results on rows {{0,1}} + probe row 2:");
    let mut plan = Vec::new();
    for (variant, _) in SCANS.iter().enumerate() {
        for s in 0..subarrays {
            plan.push(TaskKey::new(GroupId::B, 0, s).with_variant(variant));
        }
    }
    let run = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        // Same die seed as the retention part: every task probes the
        // module under test on a fresh controller.
        let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), seed);
        let geometry = *mc.module().geometry();
        let subarray =
            SubarrayAddr::new(key.subarray % geometry.banks, key.subarray / geometry.banks);
        let init = SCANS[key.variant].1;
        let pairs = verify_pairs(&mut mc, subarray, init);
        setup::reclaim_caches(&mut mc);
        (pairs, mc.metrics())
    });
    eprintln!("{}", run.summary());

    for (variant, (label, _, expect)) in SCANS.iter().enumerate() {
        let pairs: Vec<(bool, bool)> = run
            .tasks
            .iter()
            .filter(|t| t.key.variant == variant)
            .flat_map(|t| t.value().iter().copied())
            .collect();
        let total = pairs.len() as f64;
        let share =
            |a: bool, b: bool| pairs.iter().filter(|&&p| p == (a, b)).count() as f64 / total;
        println!(
            "  {label:<12} (1,1) {:>6}  (0,0) {:>6}  (1,0) {:>6}  (0,1) {:>6}   expect {expect}",
            render::pct(share(true, true)),
            render::pct(share(false, false)),
            render::pct(share(true, false)),
            render::pct(share(false, true)),
        );
    }

    if let Some(path) = args.json_path() {
        run.write_json("fig8_halfm_eval", path, |pairs| {
            let half = pairs.iter().filter(|&&p| p == (true, false)).count();
            Json::obj()
                .field("pairs", pairs.len())
                .field("half_signature", half)
        })
        .unwrap_or_else(|err| fracdram_experiments::exit_json_write_error(path, &err));
    }

    println!("\npaper: weak ones/zeros behave like normal values; ~16% of columns");
    println!("produce a distinguishable Half value ((1,0) signature).");

    if run.failed() > 0 {
        std::process::exit(1);
    }
}
