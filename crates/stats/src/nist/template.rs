//! SP 800-22 §2.7 Non-overlapping and §2.8 overlapping template tests.

use crate::bits::BitVec;
use crate::special::gamma_q;

use super::TestResult;

/// Template length used by both tests (the STS default).
pub const TEMPLATE_LEN: usize = 9;

/// Generates all aperiodic templates of length `m` in ascending numeric
/// order. A template is aperiodic when no proper shift of it matches
/// itself — the condition under which non-overlapping match counts are
/// independent.
pub fn aperiodic_templates(m: usize) -> Vec<Vec<bool>> {
    assert!(m <= 16, "template length too large");
    let mut out = Vec::new();
    'patterns: for value in 0..(1u32 << m) {
        let bits: Vec<bool> = (0..m).map(|i| (value >> (m - 1 - i)) & 1 == 1).collect();
        for k in 1..m {
            if bits[..m - k] == bits[k..] {
                continue 'patterns;
            }
        }
        out.push(bits);
    }
    out
}

/// Packs a template MSB-first: its first bit lands at bit `m - 1`, the
/// position a stream bit reaches after `m - 1` more shifts into a
/// rolling window.
fn pack_template(template: &[bool]) -> u16 {
    template
        .iter()
        .fold(0u16, |acc, &bit| (acc << 1) | u16::from(bit))
}

/// Fills `out` with the rolling 9-bit windows of the `len` bits of
/// `bits` from `start`: `out[i]` packs bits `start + i ..
/// start + i + 9` MSB-first, like [`pack_template`].
fn windows_into(bits: &BitVec, start: usize, len: usize, out: &mut Vec<u16>) {
    const MASK: u16 = (1 << TEMPLATE_LEN) - 1;
    out.clear();
    let mut window = 0u16;
    let mut word = 0u64;
    for p in 0..len {
        if p % 64 == 0 {
            word = bits.word_at(start + p);
        }
        window = ((window << 1) | ((word >> (p % 64)) & 1) as u16) & MASK;
        if p + 1 >= TEMPLATE_LEN {
            out.push(window);
        }
    }
}

/// Non-overlapping matches of `template` among `windows`: a match skips
/// the scan past its last bit.
///
/// Searching for the next match, rather than stepping one window per
/// iteration, keeps the window load off the loop-carried dependency.
fn non_overlapping_count(windows: &[u16], template: u16) -> u64 {
    let mut count = 0;
    let mut i = 0;
    while let Some(offset) = windows
        .get(i..)
        .and_then(|rest| rest.iter().position(|&w| w == template))
    {
        count += 1;
        i += offset + TEMPLATE_LEN;
    }
    count
}

/// §2.7 Non-overlapping template matching: occurrences of an aperiodic
/// pattern in N = 8 blocks, scanned without overlap.
///
/// Runs the first `template_count` aperiodic 9-bit templates and emits
/// one p-value per template. Requires blocks long enough for the normal
/// approximation (n ≥ 8 × 128).
pub fn non_overlapping_template(bits: &BitVec, template_count: usize) -> TestResult {
    const N_BLOCKS: usize = 8;
    let n = bits.len();
    let m = TEMPLATE_LEN;
    let block = n / N_BLOCKS;
    if block < 128 {
        return TestResult::not_applicable(
            "Non-overlapping template",
            format!("block {block} < 128 (n = {n})"),
        );
    }
    let templates = aperiodic_templates(m);
    let used = templates.len().min(template_count.max(1));
    let mean = (block - m + 1) as f64 / 2f64.powi(m as i32);
    let var =
        block as f64 * (2f64.powi(-(m as i32)) - (2 * m - 1) as f64 * 2f64.powi(-2 * m as i32));
    let packed: Vec<u16> = templates
        .iter()
        .take(used)
        .map(|t| pack_template(t))
        .collect();
    let mut counts = vec![[0u64; N_BLOCKS]; used];
    let mut windows = Vec::with_capacity(block);
    for b in 0..N_BLOCKS {
        windows_into(bits, b * block, block, &mut windows);
        for (per_block, &template) in counts.iter_mut().zip(&packed) {
            per_block[b] = non_overlapping_count(&windows, template);
        }
    }
    let p_values = counts
        .iter()
        .map(|per_block| {
            let chi2 = per_block.iter().fold(0.0, |chi2, &count| {
                chi2 + (count as f64 - mean) * (count as f64 - mean) / var
            });
            gamma_q(N_BLOCKS as f64 / 2.0, chi2 / 2.0)
        })
        .collect();
    TestResult::from_p_values("Non-overlapping template", p_values)
}

/// §2.8 Overlapping template matching: occurrences of the all-ones
/// 9-bit template counted *with* overlap in 1032-bit blocks, classified
/// into 6 categories against the spec's theoretical probabilities.
///
/// Requires n ≥ 1032 × 38 (enough blocks for the χ² approximation; the
/// spec uses N = 968 at n = 10⁶).
pub fn overlapping_template(bits: &BitVec) -> TestResult {
    const M_BLOCK: usize = 1032;
    const K: usize = 5;
    // §2.8.4 / STS source: theoretical category probabilities for
    // m = 9, M = 1032 (λ = 2).
    const PI: [f64; 6] = [
        0.364_091, 0.185_659, 0.139_381, 0.100_571, 0.070_432, 0.139_865,
    ];
    let n = bits.len();
    let blocks = n / M_BLOCK;
    if blocks < 38 {
        return TestResult::not_applicable(
            "Overlapping template",
            format!("{blocks} blocks < 38 (n = {n})"),
        );
    }
    let all_ones = pack_template(&[true; TEMPLATE_LEN]);
    let mut windows = Vec::with_capacity(M_BLOCK);
    let mut nu = [0u64; K + 1];
    for b in 0..blocks {
        windows_into(bits, b * M_BLOCK, M_BLOCK, &mut windows);
        let count = windows.iter().filter(|&&w| w == all_ones).count();
        nu[count.min(K)] += 1;
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
    let p = gamma_q(K as f64 / 2.0, chi2 / 2.0);
    TestResult::from_p_values("Overlapping template", vec![p])
}

#[cfg(test)]
mod tests {
    use super::super::reference_random_bits;
    use super::*;

    #[test]
    fn aperiodic_generation_for_m9_matches_sts_count() {
        let templates = aperiodic_templates(9);
        // The STS template library for m = 9 contains 148 aperiodic
        // patterns.
        assert_eq!(templates.len(), 148);
        // Canonical members and non-members.
        let as_bits = |s: &str| -> Vec<bool> { s.chars().map(|c| c == '1').collect() };
        assert!(templates.contains(&as_bits("000000001")));
        assert!(templates.contains(&as_bits("011111111")));
        assert!(!templates.contains(&as_bits("101010101")), "periodic");
        assert!(!templates.contains(&as_bits("111111111")), "periodic");
    }

    #[test]
    fn small_m_aperiodic() {
        // m=2: "01" and "10" are aperiodic; "00" and "11" are not.
        let t = aperiodic_templates(2);
        assert_eq!(t.len(), 2);
    }

    /// The bool-slice scans the integer windows replaced.
    fn bool_non_overlapping(slice: &[bool], template: &[bool]) -> u64 {
        let (m, mut count, mut i) = (template.len(), 0, 0);
        while i + m <= slice.len() {
            if slice[i..i + m] == *template {
                count += 1;
                i += m;
            } else {
                i += 1;
            }
        }
        count
    }

    fn bool_all_ones(slice: &[bool]) -> usize {
        slice
            .windows(TEMPLATE_LEN)
            .filter(|w| w.iter().all(|&x| x))
            .count()
    }

    #[test]
    fn window_counts_match_bool_slice_scans() {
        let inputs = [
            reference_random_bits(5_000, 8),
            (0..5_000).map(|_| true).collect(),
            (0..5_000).map(|i| i % 7 < 3).collect(),
            (0..5_000).map(|i| i % 10 == 9).collect(),
        ];
        // Periodic templates can overlap themselves, so they also pin
        // the skip-past-a-match rule.
        let mut templates = aperiodic_templates(TEMPLATE_LEN);
        templates.push(vec![true; TEMPLATE_LEN]);
        templates.push((0..TEMPLATE_LEN).map(|i| i % 2 == 0).collect());
        let all_ones = pack_template(&[true; TEMPLATE_LEN]);
        let mut windows = Vec::new();
        for bits in &inputs {
            let data = bits.to_bools();
            // Unaligned starts and lengths, block sizes of both tests.
            for (start, len) in [
                (0, 625),
                (625, 625),
                (3, 1032),
                (1032, 1032),
                (100, 9),
                (7, 8),
            ] {
                let slice = &data[start..start + len];
                windows_into(bits, start, len, &mut windows);
                for t in &templates {
                    assert_eq!(
                        non_overlapping_count(&windows, pack_template(t)),
                        bool_non_overlapping(slice, t),
                        "template {t:?} at {start}+{len}"
                    );
                }
                let ones = windows.iter().filter(|&&w| w == all_ones).count();
                assert_eq!(ones, bool_all_ones(slice), "all-ones at {start}+{len}");
            }
        }
    }

    #[test]
    fn random_passes_both() {
        let bits = reference_random_bits(60_000, 21);
        let r = non_overlapping_template(&bits, 10);
        assert_eq!(r.p_values.len(), 10);
        assert!(r.passed(), "p = {:?}", r.p_values);
        let r = overlapping_template(&bits);
        assert!(r.passed(), "p = {:?}", r.p_values);
    }

    #[test]
    fn planted_template_fails_non_overlapping() {
        // Plant "000000001" far more often than chance.
        let mut bits = reference_random_bits(40_000, 4).to_bools();
        let template = [false, false, false, false, false, false, false, false, true];
        let mut i = 0;
        while i + 9 <= bits.len() {
            if i % 100 == 0 {
                bits[i..i + 9].copy_from_slice(&template);
            }
            i += 9;
        }
        let r = non_overlapping_template(&BitVec::from_bools(&bits), 3);
        // Template #0 is "000000001" (ascending numeric order).
        assert!(r.p_values[0] < 0.01, "p = {:?}", r.p_values);
    }

    #[test]
    fn all_ones_fails_overlapping() {
        let bits: BitVec = (0..60_000).map(|_| true).collect();
        let r = overlapping_template(&bits);
        assert!(r.applicable && !r.passed());
    }

    #[test]
    fn short_inputs_not_applicable() {
        assert!(!non_overlapping_template(&BitVec::zeros(500), 4).applicable);
        assert!(!overlapping_template(&BitVec::zeros(5000)).applicable);
    }
}
