//! **Figure 7**: MAJ3-based verification of fractional values on group
//! B — the `(X₁, X₂)` outcome proportions as the number of Frac
//! operations grows, for all four placement/initial-value
//! configurations.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin fig7_maj3_verify [-- --subarrays N]
//! ```

use fracdram::rowsets::Triplet;
use fracdram::verify::{verify_fractional, FracPlacement, OutcomeShares, VerifySetup};
use fracdram_experiments::{render, setup, Args};
use fracdram_model::{GroupId, SubarrayAddr};

fn main() {
    let args = Args::parse();
    if args.usage(
        "fig7_maj3_verify",
        "reproduce Fig. 7: (X1, X2) proportions vs #Frac on group B",
        &[
            ("subarrays", "sub-arrays scanned (default 4; paper: all)"),
            ("seed", "die seed (default 7)"),
        ],
    ) {
        return;
    }
    let subarrays = args.usize("subarrays", 4);
    let seed = args.u64("seed", 7);
    args.reject_unknown();

    let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), seed);
    let geometry = *mc.module().geometry();
    let panels = [
        ("(a) frac in R1,R2, init ones", FracPlacement::R1R2, true),
        ("(b) frac in R1,R2, init zeros", FracPlacement::R1R2, false),
        ("(c) frac in R1,R3, init ones", FracPlacement::R1R3, true),
        ("(d) frac in R1,R3, init zeros", FracPlacement::R1R3, false),
    ];

    println!(
        "{}",
        render::header("Fig. 7 — MAJ3 verification of fractional values (group B)")
    );
    for (title, placement, init_ones) in panels {
        println!("\n{title}");
        println!(
            "{:>6}  {:>8} {:>8} {:>8} {:>8}   fractional signature",
            "#Frac", "(1,1)", "(0,0)", "(1,0)", "(0,1)"
        );
        for frac_ops in 0..=5 {
            let setup_cfg = VerifySetup {
                placement,
                init_ones,
                frac_ops,
            };
            let mut pairs = Vec::new();
            for sa in 0..subarrays {
                let subarray = SubarrayAddr::new(sa % geometry.banks, sa / geometry.banks);
                let triplet = Triplet::first(&geometry, subarray);
                pairs.extend(verify_fractional(&mut mc, &triplet, &setup_cfg).expect("verify"));
            }
            let s = OutcomeShares::from_pairs(&pairs);
            println!(
                "{:>6}  {:>8} {:>8} {:>8} {:>8}   {}",
                frac_ops,
                render::pct(s.one_one),
                render::pct(s.zero_zero),
                render::pct(s.one_zero),
                render::pct(s.zero_one),
                render::bar(s.fractional_share(), 30),
            );
        }
    }
    println!("\nexpected shape: without Frac the result echoes the stored value");
    println!("((1,1) for ones, (0,0) for zeros); with two or more Frac operations");
    println!("the fractional signature (1,0) dominates on almost every column.");
}
