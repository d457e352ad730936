//! The result of one run: output-check verdicts, operation counts, and
//! named metrics, printed as comment lines followed by one JSON object.

use std::collections::BTreeMap;

use crate::stats::Pct;

/// End-to-end metrics `(name, unit)`, printed by an untraced run. Every
/// workload reports every one; `README.md` defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("decided_p50_ms", "ms"),
    ("durable_p50_ms", "ms"),
    ("decided_rps", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. A layer a
/// workload does not load reports 0. First come the end-to-end metrics
/// that carry no bound: latency tails, CPU per request and peak memory
/// vary too much from run to run on a shared host, and reads exist on
/// `ground_archive` only (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("decided_p99_ms", "ms"),
    ("durable_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("reads_per_s", "1/s"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MiB"),
    ("sim.node_cpu_us_per_req", "us"),
    ("sim.tcp_reader_cpu_us_per_req", "us"),
    ("bench.gen_cpu_us_per_req", "us"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.failed_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.rss_growth_kib_per_req", "KiB"),
    ("pbft.msgs_per_req", "msgs/req"),
    ("pbft.reqs_per_batch", "reqs/batch"),
    ("pbft.backlog_mean", "count"),
    ("pbft.first_decide_ms_p50", "ms"),
    ("pbft.quorum_lag_ms_p50", "ms"),
    ("pbft.quorum_lag_ms_p99", "ms"),
    ("pbft.checkpoint_lag_ms_p50", "ms"),
    ("pbft.view_changes", "count"),
    ("pbft.invalid_signatures", "count"),
    ("core.dedup_hits_per_req", "hits/req"),
    ("core.open_requests_mean", "count"),
    ("core.rate_limited", "count"),
    ("blockchain.fill_wait_ms_p50", "ms"),
    ("blockchain.persist_ms_p50", "ms"),
    ("blockchain.persist_ms_p99", "ms"),
    ("blockchain.fsyncs_per_req", "fsyncs/req"),
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("export.round_ms_p50", "ms"),
    ("export.round_ms_p99", "ms"),
    ("export.us_per_req", "us"),
    ("archive.ingest_us_per_req", "us"),
    ("archive.ingest_ms_p99", "ms"),
    ("archive.bundle_verify_us_p50", "us"),
    ("archive.ingest_errors", "count"),
    ("api.server_latency_us_p50", "us"),
    ("api.cache_hit_ratio", "ratio"),
    ("api.cache_lookups", "count"),
    ("api.cpu_us_per_read", "us"),
];

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// `(check, passed, detail)` in the order they ran.
    pub checks: Vec<(&'static str, bool, String)>,
    /// Operations attempted (requests fed, rounds run, reads issued).
    pub attempted: u64,
    /// Operations that failed (see `README.md` for what counts).
    pub failed: u64,
    /// Measured metrics by name (names from [`END_TO_END`] or [`PER_LAYER`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Facts recorded with the result (host, data directory, sizes).
    pub facts: Vec<String>,
    /// Caveats printed with the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records an output check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name, ok, detail.into()));
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalog"
        );
        // `+ 0.0` turns a negative zero into zero.
        self.values.insert(name, value + 0.0);
    }

    /// Records a percentile, noting when its tail support is thin.
    pub fn set_pct(&mut self, name: &'static str, pct: Pct) {
        if pct.flagged() && pct.n > 0 && pct.beyond < pct.n / 2 {
            self.notes.push(format!(
                "{name}: only {} of {} samples lie beyond it",
                pct.beyond, pct.n
            ));
        }
        self.set(name, pct.value);
    }

    /// Human-readable lines: facts, check verdicts, notes, every metric.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.facts.iter().map(|f| format!("# {f}")).collect();
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            out.push(format!("# check {name}: {verdict} ({detail})"));
        }
        out.extend(self.notes.iter().map(|n| format!("# note: {n}")));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(value) = self.values.get(name) {
                out.push(format!("# {name} = {value} {unit}"));
            }
        }
        out
    }

    /// The final result line: `correct`, `attempted`, `failed`, and the
    /// end-to-end (`trace == false`) or per-layer metrics, every catalog
    /// entry present.
    pub fn json(&self, trace: bool) -> String {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        let body: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                // JSON has no NaN or infinity.
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_catalog_metric_once() {
        let mut report = Report::default();
        report.check("demo", true, "");
        report.set("decided_p50_ms", 1.5);
        let line = report.json(false);
        for (name, _) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{name}\"")).count(), 1, "{name}");
        }
        assert!(line.starts_with("{\"correct\": true"));
        assert!(line.contains("\"decided_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
