//! Shared helpers for the ZugChain benchmark harness.
//!
//! The `figures` binary regenerates every table and figure of the paper's
//! evaluation (see `DESIGN.md` §5 for the experiment index); the Criterion
//! benches under `benches/` measure the building blocks on the host CPU.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use zugchain_sim::{run_scenario, Mode, RunMetrics, ScenarioConfig};

/// The bus cycle sweep of Fig. 6/7 (left panels): 32 ms (MVB minimum) to
/// 256 ms, at 1 kB payloads.
pub const CYCLE_SWEEP_MS: [u64; 4] = [32, 64, 128, 256];

/// The payload sweep of Fig. 6/7 (right panels): 32 B to 8 kB at the
/// common 64 ms cycle.
pub const PAYLOAD_SWEEP_BYTES: [usize; 9] = [32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// The block counts of Table II.
pub const EXPORT_BLOCK_COUNTS: [u64; 6] = [500, 1_000, 2_000, 4_000, 8_000, 16_000];

/// The fabricated-request rates of Fig. 9.
pub const FABRICATE_RATES: [f64; 3] = [0.25, 0.75, 1.0];

/// Runs one evaluation point for both systems, averaged over `runs`
/// seeds (the paper averages 5 runs).
pub fn run_pair(
    bus_cycle_ms: u64,
    payload_bytes: usize,
    duration_ms: u64,
    runs: u64,
) -> (RunMetrics, RunMetrics) {
    let zc = run_averaged(
        Mode::Zugchain,
        bus_cycle_ms,
        payload_bytes,
        duration_ms,
        runs,
    );
    let bl = run_averaged(
        Mode::Baseline,
        bus_cycle_ms,
        payload_bytes,
        duration_ms,
        runs,
    );
    (zc, bl)
}

/// Runs one configuration over `runs` seeds and merges the metrics
/// (means of scalar metrics, concatenated latency samples).
pub fn run_averaged(
    mode: Mode,
    bus_cycle_ms: u64,
    payload_bytes: usize,
    duration_ms: u64,
    runs: u64,
) -> RunMetrics {
    let mut merged = RunMetrics::default();
    for seed in 0..runs.max(1) {
        let mut config = ScenarioConfig::evaluation(mode, bus_cycle_ms, payload_bytes);
        config.duration_ms = duration_ms;
        let metrics = run_scenario(&config, 1000 + seed);
        merged.duration_ms = metrics.duration_ms;
        merged.logged_requests += metrics.logged_requests;
        merged.blocks_created += metrics.blocks_created;
        merged.network_mbps += metrics.network_mbps;
        merged.cpu_percent_of_total += metrics.cpu_percent_of_total;
        merged.memory_mb_mean += metrics.memory_mb_mean;
        merged.memory_mb_max = merged.memory_mb_max.max(metrics.memory_mb_max);
        merged.view_changes += metrics.view_changes;
        merged.unlogged_requests += metrics.unlogged_requests;
        merged
            .latency
            .samples
            .extend(metrics.latency.samples.iter().copied());
    }
    let n = runs.max(1) as f64;
    merged.logged_requests = (merged.logged_requests as f64 / n) as u64;
    merged.blocks_created = (merged.blocks_created as f64 / n) as u64;
    merged.network_mbps /= n;
    merged.cpu_percent_of_total /= n;
    merged.memory_mb_mean /= n;
    merged
}

/// Renders one row of a figure table.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut line = format!("{label:<24}");
    for cell in cells {
        line.push_str(&format!(" {cell:>12}"));
    }
    line
}

/// Formats a float with sensible precision for tables.
pub fn fmt(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}")
    } else if value >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_pair_produces_comparable_metrics() {
        let (zc, bl) = run_pair(64, 256, 3_000, 1);
        assert!(zc.logged_requests > 10);
        assert!(
            bl.logged_requests > zc.logged_requests * 2,
            "baseline logs n copies"
        );
        assert!(bl.network_mbps > zc.network_mbps);
    }

    #[test]
    fn averaging_merges_samples() {
        let merged = run_averaged(Mode::Zugchain, 64, 128, 2_000, 2);
        assert!(merged.latency.len() > 40, "two runs' samples concatenated");
    }

    #[test]
    fn formatting_is_stable() {
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(12.34), "12.34");
        assert_eq!(fmt(0.1234), "0.123");
    }
}
