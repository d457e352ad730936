//! Per-layer readings taken from outside the program: the counters and
//! histograms it already exports through its `Registry`, and timings of
//! the crypto layer's public functions on workload-shaped inputs.

use std::collections::BTreeMap;
use std::time::Instant;

use zugchain_crypto::Keystore;
use zugchain_telemetry::{bucket_upper_bound, Registry, SampleValue, HISTOGRAM_BUCKETS};

/// Registry state at one instant, summed over label sets per name.
#[derive(Debug, Default)]
pub struct RegistrySnap {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Vec<u64>>,
}

impl RegistrySnap {
    /// Snapshots every counter and histogram of `registry`.
    pub fn take(registry: &Registry) -> Self {
        let mut snap = RegistrySnap::default();
        for sample in registry.snapshot() {
            match sample.value {
                SampleValue::Counter(v) => *snap.counters.entry(sample.name).or_default() += v,
                SampleValue::Histogram(h) => {
                    let merged = snap
                        .histograms
                        .entry(sample.name)
                        .or_insert_with(|| vec![0; HISTOGRAM_BUCKETS]);
                    for (m, b) in merged.iter_mut().zip(&h.buckets) {
                        *m += b;
                    }
                }
                SampleValue::Gauge(_) => {}
            }
        }
        snap
    }

    /// How much counter `name` grew since `earlier`.
    pub fn delta(&self, earlier: &RegistrySnap, name: &str) -> f64 {
        let now = self.counters.get(name).copied().unwrap_or(0);
        let then = earlier.counters.get(name).copied().unwrap_or(0);
        now.saturating_sub(then) as f64
    }

    /// Quantile `q` of the observations histogram `name` gained since
    /// `earlier`, interpolated linearly inside its log2 bucket.
    pub fn histogram_quantile(&self, earlier: &RegistrySnap, name: &str, q: f64) -> f64 {
        let empty = vec![0; HISTOGRAM_BUCKETS];
        let now = self.histograms.get(name).unwrap_or(&empty);
        let then = earlier.histograms.get(name).unwrap_or(&empty);
        let counts: Vec<u64> = now
            .iter()
            .zip(then)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0);
        let mut below = 0.0;
        for (index, &count) in counts.iter().enumerate() {
            let count = count as f64;
            if below + count >= rank {
                let low = if index == 0 {
                    0.0
                } else {
                    bucket_upper_bound(index - 1) as f64 + 1.0
                };
                let high = bucket_upper_bound(index) as f64;
                return low + (high - low) * (rank - below) / count;
            }
            below += count;
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1) as f64
    }
}

/// Sum of gauge `name` over replicas `0..replicas`.
pub fn gauge_sum(registry: &Registry, name: &str, replicas: usize) -> f64 {
    (0..replicas)
        .map(|node| {
            let node = node.to_string();
            registry
                .gauge_value(name, &[("node", node.as_str())])
                .unwrap_or(0) as f64
        })
        .sum()
}

/// Median per-call cost in µs of `KeyPair::sign` and of verifying that
/// signature against the public keystore, on `message`.
pub fn crypto_costs(message: &[u8], seed: u64) -> (f64, f64) {
    const BATCHES: usize = 15;
    const PER_BATCH: usize = 200;
    let (pairs, keystore) = Keystore::generate(1, seed);
    let signature = pairs[0].sign(message);
    let mut sign = Vec::with_capacity(BATCHES);
    let mut verify = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..PER_BATCH {
            std::hint::black_box(pairs[0].sign(std::hint::black_box(message)));
        }
        sign.push(started.elapsed().as_secs_f64() * 1e6 / PER_BATCH as f64);
        let started = Instant::now();
        for _ in 0..PER_BATCH {
            let ok = keystore.verify(0, std::hint::black_box(message), &signature);
            std::hint::black_box(ok.is_ok());
        }
        verify.push(started.elapsed().as_secs_f64() * 1e6 / PER_BATCH as f64);
    }
    (crate::stats::median(&sign), crate::stats::median(&verify))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantile_reads_only_the_window() {
        let registry = Registry::new();
        let histogram = registry.histogram("zugchain_demo_us", &[]);
        histogram.observe(1000);
        let before = RegistrySnap::take(&registry);
        for _ in 0..10 {
            histogram.observe(3);
        }
        let after = RegistrySnap::take(&registry);
        let p50 = after.histogram_quantile(&before, "zugchain_demo_us", 0.5);
        assert!((2.0..=3.0).contains(&p50), "p50 {p50}");
    }
}
