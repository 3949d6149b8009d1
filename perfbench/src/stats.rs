//! Order statistics for host-time samples.
//!
//! Quantiles are nearest-rank, so every reported value is a sample that
//! was actually measured, and each one carries the number of samples
//! that lie beyond it: a tail percentile is only worth reporting when at
//! least [`MIN_BEYOND`] samples lie past it.

/// Samples that must lie beyond a quantile before it is reportable.
pub const MIN_BEYOND: usize = 10;

/// One quantile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Quantile level in `(0, 1]`.
    pub level: f64,
    /// The sample at that level (nearest rank).
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly above the quantile's rank.
    pub beyond: usize,
}

impl Quantile {
    /// Whether enough samples lie beyond the quantile to report it.
    pub fn reportable(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank quantile at `level` of `samples` (any order).
/// Returns `None` for an empty set.
pub fn quantile(samples: &[f64], level: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((level * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        level,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median of `samples` (nearest rank), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5).map(|q| q.value)
}

/// The mean of `samples`, or 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&samples, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        assert!(p99.reportable());
        let p50 = quantile(&samples, 0.5).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.beyond, 500);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        let p99 = quantile(&samples, 0.99).unwrap();
        assert_eq!(p99.beyond, 9);
        assert!(!p99.reportable(), "999 samples leave only 9 beyond p99");
        let few = quantile(&[3.0, 1.0, 2.0], 0.99).unwrap();
        assert_eq!(few.value, 3.0);
        assert_eq!(few.beyond, 0);
        assert!(!few.reportable());
    }

    #[test]
    fn quantile_ignores_input_order_and_empty_sets() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[7.0], 0.99).unwrap().value, 7.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
