//! **Figure 3**: voltage of the cell capacitor and the bit-line during
//! Frac operations — the analog trajectory of the interrupted row
//! activation.
//!
//! A probe is attached to one cell; the row is initialized to full
//! `Vdd` and two Frac operations are issued (as in the figure). Every
//! internal event (precharge, charge share, word-line close) is
//! sampled.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin fig3_frac_trace [-- --ops N]
//! ```

use fracdram::frac::{frac_program, physical_pattern};
use fracdram_experiments::{render, setup, Args};
use fracdram_model::{GroupId, RowAddr};

fn main() {
    let args = Args::parse();
    if args.usage(
        "fig3_frac_trace",
        "reproduce Fig. 3: cell/bit-line voltage during Frac",
        &[
            ("ops", "number of Frac operations (default 2, as in Fig. 3)"),
            ("seed", "die seed (default 3)"),
        ],
    ) {
        return;
    }
    let ops = args.usize("ops", 2);
    let seed = args.u64("seed", 3);
    args.reject_unknown();

    let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), seed);
    let row = RowAddr::new(0, 4);
    let col = 0;

    // Step 1 of the figure: the row holds a full value (physical Vdd).
    let pattern = physical_pattern(&mut mc, row, true);
    mc.write_row(row, &pattern).expect("init write");

    mc.module_mut().chip_mut(0).attach_probe(row, col);
    mc.run(&frac_program(row, ops)).expect("frac");
    // Advance past the final precharge so the close event is sampled.
    let t = mc.clock();
    mc.module_mut().probe_cell_voltage(row, col, t);
    let samples = mc.module_mut().chip_mut(0).take_probe_samples(row.bank, 0);

    println!(
        "{}",
        render::header(&format!(
            "Fig. 3 — Frac trajectory ({ops} ops, group B, one cell, Vdd = 1.5 V)"
        ))
    );
    println!(
        "{:>8}  {:>8}  {:>9}  event",
        "cycle", "cell (V)", "bit-line"
    );
    let base = samples[0].first().map_or(0, |s| s.cycle);
    for s in &samples[0] {
        println!(
            "{:>8}  {:>8.3}  {:>9.3}  {:?}",
            s.cycle - base,
            s.cell_v.value(),
            s.bitline_v.value(),
            s.event
        );
    }
    println!("\nexpected shape: each ChargeShared pulls the cell toward Vdd/2;");
    println!("each Closed freezes it before the sense amplifier can restore it.");
    println!("one Frac = 7 memory cycles (2 commands + 5 idle), 2.5 ns each.");
}
