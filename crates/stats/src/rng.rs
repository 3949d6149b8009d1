//! Deterministic pseudo-random number generation for experiments.
//!
//! The experiment harness needs reproducible randomness that is (a)
//! identical across platforms and thread counts and (b) cheaply
//! derivable per task, so a parallel fleet can hand every
//! (group, module, sub-array) task its own independent stream. This is
//! xoshiro256** seeded through SplitMix64 — the standard construction
//! from Blackman & Vigna — implemented here so the workspace carries no
//! external dependency.

/// The SplitMix64 output function of state `z`: adds the golden-ratio
/// gamma, then applies the finalizer. A pure, strong 64-bit mixing
/// function — the one SplitMix64 mix every crate hashes with.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advances `state` and returns the next output.
///
/// Used both as the seeding PRNG for [`Rng`] and as a mixing function
/// for deriving per-task seeds from a base seed plus task coordinates.
pub fn splitmix64(state: &mut u64) -> u64 {
    let out = splitmix64_mix(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// Mixes a base seed with a sequence of coordinates into one derived
/// seed. Order-sensitive: `mix(s, &[a, b]) != mix(s, &[b, a])`.
pub fn mix(base: u64, parts: &[u64]) -> u64 {
    let mut state = base ^ 0x6A09_E667_F3BC_C909;
    let mut out = splitmix64(&mut state);
    for &p in parts {
        state ^= p;
        out ^= splitmix64(&mut state);
    }
    out
}

/// A small, fast, deterministic PRNG (xoshiro256**).
///
/// Not cryptographic — experiment input generation only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single `u64` via SplitMix64, as
    /// recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let s = [
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
        ];
        Rng { s }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A fair random bool (top output bit).
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// A uniform float in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `[0, n)` via Lemire's multiply-shift with
    /// rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range upper bound must be positive");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= n.wrapping_neg() % n {
                return hi as usize;
            }
        }
    }

    /// Fills `out` with fair random bools — the allocation-free shape
    /// the trial hot loop uses for operand rows. Draw-compatible with
    /// [`Rng::gen_bools`]: one `next_u64` per bool, in order.
    pub fn fill_bools(&mut self, out: &mut [bool]) {
        for b in out.iter_mut() {
            *b = self.gen_bool();
        }
    }

    /// A vector of `n` fair random bools (see [`Rng::fill_bools`] for
    /// the allocation-free form).
    pub fn gen_bools(&mut self, n: usize) -> Vec<bool> {
        let mut out = vec![false; n];
        self.fill_bools(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_answer() {
        // Reference values for seed 0 (Vigna's splitmix64.c).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn bools_are_balanced() {
        let mut rng = Rng::seed_from_u64(7);
        let ones = (0..10_000).filter(|_| rng.gen_bool()).count();
        assert!((4_500..5_500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..1_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_is_unbiased_shape() {
        let mut rng = Rng::seed_from_u64(9);
        let mut counts = [0usize; 3];
        for _ in 0..9_000 {
            counts[rng.gen_range(3)] += 1;
        }
        for c in counts {
            assert!((2_700..3_300).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn fill_bools_matches_gen_bools() {
        let mut a = Rng::seed_from_u64(3);
        let mut b = Rng::seed_from_u64(3);
        let v = a.gen_bools(257);
        let mut buf = vec![false; 257];
        b.fill_bools(&mut buf);
        assert_eq!(v, buf);
        assert_eq!(a, b, "draw counts diverged");
    }

    #[test]
    fn mix_depends_on_order_and_parts() {
        let a = mix(1, &[2, 3]);
        let b = mix(1, &[3, 2]);
        let c = mix(1, &[2, 3, 0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix(1, &[2, 3]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn empty_range_panics() {
        let _ = Rng::seed_from_u64(0).gen_range(0);
    }
}
