//! Percentiles that say how well the sample supports them.

/// A percentile estimate together with its sample support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile's value (0 for an empty sample).
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples ranked strictly above the percentile's nearest rank.
    pub beyond: usize,
}

impl Pct {
    /// A tail percentile with fewer than ten samples beyond it is one or
    /// two outliers, not a distribution: report it, but flag it.
    pub fn flagged(&self) -> bool {
        self.beyond < 10
    }
}

/// Percentile `q` (in `(0, 1)`) of unsorted `samples`: the nearest-rank
/// sample, the smallest value with at least `q·n` samples at or below it.
pub fn percentile(samples: &[f64], q: f64) -> Pct {
    let n = samples.len();
    if n == 0 {
        return Pct {
            value: 0.0,
            n: 0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// Median of unsorted `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).value
}

/// Mean of `samples` (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thin = percentile(&ramp(500), 0.99);
        assert_eq!(thin.beyond, 5);
        assert!(thin.flagged(), "5 samples beyond p99 must be flagged");

        let enough = percentile(&ramp(1000), 0.99);
        assert_eq!(enough.beyond, 10);
        assert!(!enough.flagged());
    }

    #[test]
    fn percentiles_take_the_nearest_rank() {
        assert_eq!(percentile(&ramp(1000), 0.5).value, 500.0);
        assert_eq!(percentile(&ramp(1000), 0.99).value, 990.0);
        assert_eq!(percentile(&ramp(7), 0.99).value, 7.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert!(percentile(&[], 0.99).flagged());
    }
}
