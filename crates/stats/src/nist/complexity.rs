//! SP 800-22 §2.10 Linear complexity test, with the Berlekamp–Massey
//! algorithm over GF(2) as its kernel.

use crate::bits::BitVec;
use crate::special::gamma_q;

use super::TestResult;

/// Berlekamp–Massey over GF(2): length of the shortest LFSR generating
/// the sequence.
pub fn berlekamp_massey(seq: &[bool]) -> usize {
    PackedBm::new(seq.len()).run(&BitVec::from_bools(seq), 0, seq.len())
}

/// Word-packed Berlekamp–Massey with its buffers sized once for blocks
/// of up to `max_len` bits.
///
/// The block is held reversed (bit k of `rev` is s_{n-1-k}), so the
/// discrepancy at step i, Σ_{j=0..deg c} c_j s_{i-j}, is the parity of
/// `c & rev[n-1-i..]` taken a word at a time. `c_deg` and `b_deg` bound
/// the degrees of `c` and `b` (no bit above them is set); BM keeps
/// deg c ≤ L, so summing up to `c_deg` adds only zero terms to the
/// bool formulation's Σ_{j=1..L}, and L comes out identical.
struct PackedBm {
    /// The block reversed, plus one zero pad word for the window read.
    rev: Vec<u64>,
    /// Connection polynomial, bit j = c_j.
    c: Vec<u64>,
    /// Connection polynomial before the last length change.
    b: Vec<u64>,
    /// Spare buffer that becomes `b` when L grows.
    t: Vec<u64>,
}

impl PackedBm {
    fn new(max_len: usize) -> Self {
        let words = max_len / 64 + 2;
        PackedBm {
            rev: vec![0; words],
            c: vec![0; words],
            b: vec![0; words],
            t: vec![0; words],
        }
    }

    /// Linear complexity of the `n` bits of `bits` starting at `start`.
    fn run(&mut self, bits: &BitVec, start: usize, n: usize) -> usize {
        let words = n.div_ceil(64);
        assert!(words < self.rev.len(), "block longer than the buffers");
        for (w, slot) in self.rev[..words].iter_mut().enumerate() {
            let rem = n - 64 * w;
            *slot = if rem >= 64 {
                bits.word_at(start + rem - 64).reverse_bits()
            } else {
                (bits.word_at(start) << (64 - rem)).reverse_bits()
            };
        }
        self.rev[words] = 0;
        self.c.fill(0);
        self.b.fill(0);
        self.c[0] = 1;
        self.b[0] = 1;
        let (mut c_deg, mut b_deg) = (0usize, 0usize);
        let mut l = 0usize;
        let mut m: isize = -1;
        for i in 0..n {
            let (q, r) = ((n - 1 - i) / 64, (n - 1 - i) % 64);
            let mut acc = 0u64;
            for (w, &cw) in self.c[..=c_deg / 64].iter().enumerate() {
                let lo = self.rev[q + w];
                let window = if r == 0 {
                    lo
                } else {
                    (lo >> r) | (self.rev[q + w + 1] << (64 - r))
                };
                acc ^= cw & window;
            }
            if acc.count_ones().is_multiple_of(2) {
                continue;
            }
            let shift = (i as isize - m) as usize;
            let grow = l <= i / 2;
            if grow {
                let used = c_deg / 64 + 1;
                self.t[..used].copy_from_slice(&self.c[..used]);
            }
            let (ws, bs) = (shift / 64, shift % 64);
            for (w, &bw) in self.b[..=b_deg / 64].iter().enumerate() {
                self.c[w + ws] ^= bw << bs;
                if bs != 0 {
                    self.c[w + ws + 1] ^= bw >> (64 - bs);
                }
            }
            let old_c_deg = c_deg;
            c_deg = c_deg.max(b_deg + shift);
            if grow {
                l = i + 1 - l;
                m = i as isize;
                std::mem::swap(&mut self.b, &mut self.t);
                b_deg = old_c_deg;
            }
        }
        l
    }
}

/// §2.10 Linear complexity: Berlekamp–Massey over M-bit blocks, with the
/// deviations from the expected complexity classified into seven bins.
///
/// Requires at least 200 blocks (spec: n ≥ 10⁶ with M = 500; we accept
/// any input providing ≥ 200 blocks of the chosen size).
pub fn linear_complexity(bits: &BitVec, block_len: usize) -> TestResult {
    const PI: [f64; 7] = [0.010_417, 0.031_25, 0.125, 0.5, 0.25, 0.062_5, 0.020_833];
    let m = block_len;
    let n = bits.len();
    let blocks = n / m;
    if blocks < 200 {
        return TestResult::not_applicable(
            "Linear complexity",
            format!("{blocks} blocks < 200 (n = {n}, M = {m})"),
        );
    }
    // sign = (-1)^M; mu uses (9 + (-1)^{M+1})/36 = (9 - sign)/36.
    let sign = if m.is_multiple_of(2) { 1.0 } else { -1.0 };
    let mu =
        m as f64 / 2.0 + (9.0 - sign) / 36.0 - (m as f64 / 3.0 + 2.0 / 9.0) / 2f64.powi(m as i32);
    let mut bm = PackedBm::new(m);
    let mut nu = [0u64; 7];
    for b in 0..blocks {
        let l = bm.run(bits, b * m, m);
        // T = (-1)^M (L - mu) + 2/9.
        let t = sign * (l as f64 - mu) + 2.0 / 9.0;
        let class = if t <= -2.5 {
            0
        } else if t <= -1.5 {
            1
        } else if t <= -0.5 {
            2
        } else if t <= 0.5 {
            3
        } else if t <= 1.5 {
            4
        } else if t <= 2.5 {
            5
        } else {
            6
        };
        nu[class] += 1;
    }
    let nf = blocks as f64;
    let chi2: f64 = nu
        .iter()
        .zip(PI.iter())
        .map(|(&obs, &p)| {
            let exp = nf * p;
            (obs as f64 - exp) * (obs as f64 - exp) / exp
        })
        .sum();
    let p = gamma_q(3.0, chi2 / 2.0); // K = 6 -> K/2 = 3
    TestResult::from_p_values("Linear complexity", vec![p])
}

#[cfg(test)]
mod tests {
    use super::super::reference_random_bits;
    use super::*;

    fn seq(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    /// The bool Berlekamp–Massey the packed kernel replaced.
    fn bool_berlekamp_massey(seq: &[bool]) -> usize {
        let n = seq.len();
        let mut c = vec![false; n + 1];
        let mut b = vec![false; n + 1];
        c[0] = true;
        b[0] = true;
        let mut l = 0usize;
        let mut m: isize = -1;
        for i in 0..n {
            let mut d = seq[i];
            for j in 1..=l {
                if c[j] && seq[i - j] {
                    d = !d;
                }
            }
            if d {
                let t = c.clone();
                let shift = (i as isize - m) as usize;
                for j in 0..=n.saturating_sub(shift) {
                    if b[j] {
                        c[j + shift] ^= true;
                    }
                }
                if l <= i / 2 {
                    l = i + 1 - l;
                    m = i as isize;
                    b = t;
                }
            }
        }
        l
    }

    /// `len` bits of a 16-bit Fibonacci LFSR with feedback `taps`.
    fn lfsr_bits(len: usize, taps: u16, seed: u16) -> Vec<bool> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                let fb = (state & taps).count_ones() as u16 & 1;
                state = (state >> 1) | (fb << 15);
                state & 1 == 1
            })
            .collect()
    }

    #[test]
    fn packed_bm_matches_bool_bm_across_word_edges() {
        for n in 0..=300 {
            let random = reference_random_bits(n.max(1), n as u64 + 11).to_bools();
            let mut single_one = vec![false; n];
            if let Some(last) = single_one.last_mut() {
                *last = true;
            }
            let cases = [
                vec![false; n],
                vec![true; n],
                (0..n).map(|i| i % 5 < 2).collect(),
                single_one,
                random[..n].to_vec(),
            ];
            for s in &cases {
                assert_eq!(berlekamp_massey(s), bool_berlekamp_massey(s), "{s:?}");
            }
        }
    }

    #[test]
    fn packed_bm_matches_bool_bm_on_random_blocks_and_lfsrs() {
        let bits = reference_random_bits(500 * 300, 5).to_bools();
        for block in bits.chunks(500) {
            assert_eq!(berlekamp_massey(block), bool_berlekamp_massey(block));
        }
        for (k, taps) in [0x002Du16, 0xB400, 0x8016, 0x0003, 0xFFFF]
            .into_iter()
            .enumerate()
        {
            for seed in [1u16, 0xACE1, 0x1234] {
                let s = lfsr_bits(500, taps, seed ^ k as u16);
                assert_eq!(
                    berlekamp_massey(&s),
                    bool_berlekamp_massey(&s),
                    "taps {taps:#x}"
                );
            }
        }
    }

    #[test]
    fn block_complexities_match_the_bool_oracle() {
        // M = 500 is not a multiple of 64, so blocks straddle words.
        let bits = reference_random_bits(500 * 40 + 17, 23);
        let data = bits.to_bools();
        let mut bm = PackedBm::new(500);
        for b in 0..40 {
            let block = &data[b * 500..(b + 1) * 500];
            assert_eq!(
                bm.run(&bits, b * 500, 500),
                bool_berlekamp_massey(block),
                "block {b}"
            );
        }
    }

    #[test]
    fn bm_known_small_cases() {
        // All zeros: complexity 0.
        assert_eq!(berlekamp_massey(&seq("00000")), 0);
        // Single one at the end needs full length.
        assert_eq!(berlekamp_massey(&seq("00001")), 5);
        // Alternating sequence: generated by a 2-stage LFSR.
        assert_eq!(berlekamp_massey(&seq("10101010")), 2);
        // SP 800-22 §2.10.8 example: ε = 1101011110001 has L = 4.
        assert_eq!(berlekamp_massey(&seq("1101011110001")), 4);
    }

    #[test]
    fn bm_period_one_sequences() {
        assert_eq!(berlekamp_massey(&seq("1111")), 1);
    }

    #[test]
    fn bm_complexity_of_random_is_near_half() {
        let bits = reference_random_bits(512, 3).to_bools();
        let l = berlekamp_massey(&bits);
        // Expected ~ n/2 ± small.
        assert!((l as i64 - 256).abs() <= 4, "L = {l}");
    }

    #[test]
    fn random_passes() {
        // 200 blocks of 500 bits.
        let bits = reference_random_bits(100_000, 77);
        let r = linear_complexity(&bits, 500);
        assert!(r.passed(), "p = {:?}", r.p_values);
    }

    #[test]
    fn lfsr_output_fails() {
        // A short LFSR stream has complexity far below M/2 in every block.
        let mut state = 0b1010_1101u16;
        let mut bits = BitVec::new();
        for _ in 0..100_000 {
            let fb = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1;
            state = (state >> 1) | (fb << 15);
            bits.push(state & 1 == 1);
        }
        let r = linear_complexity(&bits, 500);
        assert!(r.applicable && !r.passed(), "p = {:?}", r.p_values);
    }

    #[test]
    fn short_input_not_applicable() {
        assert!(!linear_complexity(&BitVec::zeros(1_000), 500).applicable);
    }
}
