//! The Frac-based Physical Unclonable Function (§VI-B).
//!
//! Ten Frac operations drive every cell of a row to ≈ `Vdd/2`. A normal
//! read then forces each column's sense amplifier to resolve a
//! metastable input: the decision follows the amplifier's static,
//! manufacturing-random input offset. The read-out data is therefore a
//! device fingerprint — reproducible on the same module (the offsets are
//! static), unique across modules (the offsets are die-specific), and
//! robust to temperature and supply voltage (a comparator's decision at
//! its trip point barely depends on either).
//!
//! Challenge = (bank, row); response = the row's read-out bits. An 8 KB
//! row yields a 65 536-bit response in ≈ 1.5 µs.

use fracdram_model::{Cycles, Geometry, RowAddr};
use fracdram_softmc::MemoryController;
use fracdram_stats::bits::BitVec;
use fracdram_stats::extractor::von_neumann;
use fracdram_stats::rng::splitmix64_mix;

use crate::error::Result;
use crate::frac::{frac_program, require_frac_support, FRAC_CYCLES};
use crate::rowcopy::COPY_CYCLES;

/// Frac operations per evaluation — "ten Frac operations are enough to
/// generate a voltage close to Vdd/2 for PUF" (§VI-B1).
pub const PUF_FRAC_OPS: usize = 10;

/// A PUF challenge: the address of the memory segment to fingerprint.
/// The paper fixes the segment length to one 8 KB row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Challenge {
    /// Bank index.
    pub bank: usize,
    /// Bank-level row number.
    pub row: usize,
}

impl Challenge {
    /// Creates a challenge.
    pub fn new(bank: usize, row: usize) -> Self {
        Challenge { bank, row }
    }

    /// The row address this challenge targets.
    pub fn addr(&self) -> RowAddr {
        RowAddr::new(self.bank, self.row)
    }
}

/// A deterministic, well-spread set of `n` distinct challenges for a
/// geometry (split-mix hashing over a counter; the same seed yields the
/// same challenge set, so it can be replayed against every module).
pub fn challenge_set(geometry: &Geometry, n: usize, seed: u64) -> Vec<Challenge> {
    let banks = geometry.banks;
    let rows = geometry.rows_per_bank();
    assert!(
        n <= banks * rows,
        "cannot draw {n} distinct challenges from {banks}x{rows} rows"
    );
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    let mut counter = 0u64;
    while out.len() < n {
        let z = splitmix64_mix(seed.wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        counter += 1;
        let bank = (z as usize) % banks;
        let row = ((z >> 32) as usize) % rows;
        if seen.insert((bank, row)) {
            out.push(Challenge::new(bank, row));
        }
    }
    out
}

/// Evaluates one challenge: store all ones, issue ten Frac operations,
/// read the row out (destructively). Returns the response bits.
///
/// # Errors
///
/// Returns [`crate::FracDramError::Unsupported`] on groups J/K/L (their
/// timing guards defeat Frac) and propagates controller errors.
pub fn evaluate(mc: &mut MemoryController, challenge: Challenge) -> Result<BitVec> {
    evaluate_with(mc, challenge, PUF_FRAC_OPS)
}

/// [`evaluate`] with an explicit Frac count (for studying response
/// quality versus preparation depth).
///
/// # Errors
///
/// Same conditions as [`evaluate`].
pub fn evaluate_with(
    mc: &mut MemoryController,
    challenge: Challenge,
    frac_ops: usize,
) -> Result<BitVec> {
    require_frac_support(mc)?;
    let addr = challenge.addr();
    // Physical full Vdd in every cell (polarity-corrected, §II-C).
    let ones = crate::frac::physical_pattern(mc, addr, true);
    mc.write_row(addr, &ones)?;
    mc.run(&frac_program(addr, frac_ops))?;
    let bits = mc.read_row(addr)?;
    Ok(BitVec::from_bools(&bits))
}

/// Evaluates a whole challenge set in order.
///
/// Each challenge becomes one self-contained program (write the ones
/// pattern, issue the Frac burst, read the row out) run through
/// [`MemoryController::run`]. Responses and the final clock are
/// byte-identical to a per-challenge [`evaluate`] loop.
///
/// # Errors
///
/// Same conditions as [`evaluate`].
pub fn evaluate_set(mc: &mut MemoryController, challenges: &[Challenge]) -> Result<Vec<BitVec>> {
    require_frac_support(mc)?;
    let mut out = Vec::with_capacity(challenges.len());
    for &challenge in challenges {
        let addr = challenge.addr();
        let ones = crate::frac::physical_pattern(mc, addr, true);
        let mut program = mc.write_row_program(addr, &ones);
        program.extend_from(&frac_program(addr, PUF_FRAC_OPS));
        program.extend_from(&mc.read_row_program(addr));
        let bits = mc.run(&program)?.single_read()?;
        out.push(BitVec::from_bools(&bits));
    }
    Ok(out)
}

/// Whitens raw responses for randomness testing — the paper's
/// "modified Von Neumann randomness extractor" (§VI-B2).
///
/// The modification matters: a plain Von Neumann pass over one
/// concatenated stream pairs *adjacent columns*, whose sense-amplifier
/// offsets are static and shared by every response from the same
/// sub-array, so residual pair structure survives. Instead, responses
/// are taken two at a time and the **same column of the two responses**
/// forms each Von Neumann pair: conditioned on the column's (arbitrary)
/// offset, the two cells' contributions are independent and identically
/// distributed, so `01` and `10` are exactly equally likely and every
/// emitted bit is unbiased. An odd trailing response is ignored.
pub fn whitened_stream(responses: &[BitVec]) -> BitVec {
    let mut interleaved = BitVec::new();
    for pair in responses.chunks_exact(2) {
        let n = pair[0].len().min(pair[1].len());
        for col in 0..n {
            interleaved.push(pair[0].get(col).unwrap());
            interleaved.push(pair[1].get(col).unwrap());
        }
    }
    von_neumann(&interleaved)
}

/// Authentication decision: accept when the normalized Hamming distance
/// between the enrolled and fresh response is below `threshold`
/// (a value between the maximum intra-HD and minimum inter-HD, e.g.
/// 0.15).
pub fn authenticate(enrolled: &BitVec, fresh: &BitVec, threshold: f64) -> bool {
    fracdram_stats::hamming::normalized_distance(enrolled, fresh) < threshold
}

/// Cycle cost of one PUF evaluation (§VI-B2's accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCost {
    /// Preparation: one in-DRAM row initialization plus the Frac
    /// operations. The paper's 88 cycles = 18-cycle row init + 10 × 7;
    /// this model's row copy costs [`COPY_CYCLES`] instead of 18.
    pub prep_cycles: u64,
    /// Read-out of the row over the memory bus.
    pub readout_cycles: u64,
}

impl EvalCost {
    /// Cost model for a response of `row_bits` bits on a 64-bit DDR bus.
    ///
    /// `optimized` selects the paper's "optimized memory controller"
    /// variant, where the read-out runs at the chip's native data rate
    /// instead of the (conservative) SoftMC bus schedule.
    pub fn for_row(row_bits: usize, optimized: bool) -> Self {
        let beats = row_bits.div_ceil(64);
        let readout_cycles = if optimized {
            // Full-speed DDR: two beats per memory cycle, fully pipelined
            // column reads across bank groups.
            (beats as u64).div_ceil(2).div_ceil(2)
        } else {
            // SoftMC-style: two beats per cycle, one burst in flight.
            (beats as u64).div_ceil(2)
        };
        EvalCost {
            prep_cycles: COPY_CYCLES + (PUF_FRAC_OPS as u64) * FRAC_CYCLES,
            readout_cycles,
        }
    }

    /// Total cycles.
    pub fn total(&self) -> Cycles {
        Cycles(self.prep_cycles + self.readout_cycles)
    }

    /// Total evaluation time in microseconds (2.5 ns cycles).
    pub fn total_micros(&self) -> f64 {
        self.total().to_seconds().value() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracdram_model::{GroupId, Module, ModuleConfig};
    use fracdram_stats::hamming::normalized_distance;

    fn controller(group: GroupId, seed: u64) -> MemoryController {
        MemoryController::new(Module::new(ModuleConfig::single_chip(
            group,
            seed,
            Geometry::tiny(),
        )))
    }

    #[test]
    fn challenge_set_is_deterministic_and_distinct() {
        let g = Geometry::tiny();
        let a = challenge_set(&g, 20, 42);
        let b = challenge_set(&g, 20, 42);
        assert_eq!(a, b);
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 20);
        let c = challenge_set(&g, 20, 43);
        assert_ne!(a, c, "different seeds draw different sets");
    }

    #[test]
    fn same_module_reproduces_its_response() {
        let mut mc = controller(GroupId::B, 101);
        let ch = Challenge::new(0, 7);
        let r1 = evaluate(&mut mc, ch).unwrap();
        let r2 = evaluate(&mut mc, ch).unwrap();
        let intra = normalized_distance(&r1, &r2);
        assert!(intra < 0.08, "intra-HD = {intra}");
    }

    #[test]
    fn different_modules_respond_differently() {
        let ch = Challenge::new(0, 7);
        let mut mc1 = controller(GroupId::B, 101);
        let mut mc2 = controller(GroupId::B, 202);
        let r1 = evaluate(&mut mc1, ch).unwrap();
        let r2 = evaluate(&mut mc2, ch).unwrap();
        let inter = normalized_distance(&r1, &r2);
        assert!(inter > 0.2, "inter-HD = {inter}");
    }

    #[test]
    fn different_challenges_give_different_responses() {
        let mut mc = controller(GroupId::B, 101);
        let r1 = evaluate(&mut mc, Challenge::new(0, 3)).unwrap();
        let r2 = evaluate(&mut mc, Challenge::new(1, 40)).unwrap();
        assert!(normalized_distance(&r1, &r2) > 0.1);
    }

    #[test]
    fn response_is_biased_but_not_constant() {
        // Group A's offsets skew most columns toward zero (the paper
        // measures Hamming weight 0.21 there).
        let mut mc = controller(GroupId::A, 33);
        let r = evaluate(&mut mc, Challenge::new(0, 12)).unwrap();
        let hw = r.hamming_weight();
        assert!(hw > 0.0 && hw < 0.5, "group A Hamming weight = {hw}");
    }

    #[test]
    fn authentication_accepts_self_rejects_other() {
        let ch = Challenge::new(1, 5);
        let mut mc1 = controller(GroupId::B, 7);
        let mut mc2 = controller(GroupId::B, 8);
        let enrolled = evaluate(&mut mc1, ch).unwrap();
        let fresh = evaluate(&mut mc1, ch).unwrap();
        let imposter = evaluate(&mut mc2, ch).unwrap();
        assert!(authenticate(&enrolled, &fresh, 0.15));
        assert!(!authenticate(&enrolled, &imposter, 0.15));
    }

    #[test]
    fn guarded_group_cannot_run_the_puf() {
        let mut mc = controller(GroupId::K, 9);
        assert!(evaluate(&mut mc, Challenge::new(0, 0)).is_err());
    }

    #[test]
    fn evaluate_set_matches_per_challenge_loop() {
        let challenges = [
            Challenge::new(0, 1),
            Challenge::new(1, 2),
            Challenge::new(0, 3),
            Challenge::new(1, 4),
            Challenge::new(1, 5),
        ];
        let mut looped = controller(GroupId::B, 21);
        let expected: Vec<BitVec> = challenges
            .iter()
            .map(|&c| evaluate(&mut looped, c).unwrap())
            .collect();

        let mut set = controller(GroupId::B, 21);
        let got = evaluate_set(&mut set, &challenges).unwrap();
        assert_eq!(got, expected, "set responses must be byte-identical");
        assert_eq!(set.clock(), looped.clock());
    }

    #[test]
    fn whitening_balances_a_biased_stream() {
        let mut mc = controller(GroupId::A, 33);
        let challenges = challenge_set(mc.module().geometry(), 8, 5);
        let responses = evaluate_set(&mut mc, &challenges).unwrap();
        let white = whitened_stream(&responses);
        assert!(!white.is_empty());
        let hw = white.hamming_weight();
        assert!((hw - 0.5).abs() < 0.1, "whitened weight = {hw}");
    }

    #[test]
    fn eval_cost_matches_paper_scale() {
        // 8 KB row: the paper reports ~1.5 us conservative, ~0.7 us
        // optimized, with read-out dominating.
        let cost = EvalCost::for_row(65_536, false);
        assert!(cost.readout_cycles > cost.prep_cycles);
        let us = cost.total_micros();
        assert!((1.0..2.2).contains(&us), "conservative = {us} us");
        let fast = EvalCost::for_row(65_536, true);
        assert!(fast.total_micros() < us);
        assert!((0.4..1.0).contains(&fast.total_micros()));
    }
}
