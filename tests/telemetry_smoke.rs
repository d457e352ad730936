//! Instrumented-simulation acceptance: a short deterministic run with
//! observability attached must tell the same story in its registry as
//! in its run report, and every artifact it leaves must parse back.
//!
//! Set `ZUGCHAIN_TELEMETRY_OUT=<dir>` to keep the artifacts: the
//! Prometheus exposition as `metrics.prom` and each node's event-ring
//! dump as `trace-node<i>.jsonl`.

use zugchain_sim::{Mode, ScenarioConfig, Simulation, Workload};
use zugchain_telemetry::{parse_jsonl, parse_prometheus};

#[test]
fn registry_agrees_with_the_run_report_and_artifacts_parse() {
    let config = ScenarioConfig {
        mode: Mode::Zugchain,
        duration_ms: 5_000,
        bus_cycle_ms: 64,
        workload: Workload::SyntheticPayload { bytes: 256 },
        ..ScenarioConfig::default()
    };
    let (metrics, capture) = Simulation::new(&config, 1).run_instrumented();
    let exposition = capture.registry.render_prometheus();
    let samples = parse_prometheus(&exposition).expect("exposition round-trips");

    // The run report is ported from registry reads: the most advanced
    // node's decide counter is the report's decided count.
    let decided = samples
        .iter()
        .filter(|s| s.name == "zugchain_pbft_decided_total")
        .map(|s| s.value as u64)
        .max();
    assert!(metrics.consensus_decided > 0);
    assert_eq!(decided, Some(metrics.consensus_decided));
    // Every node publishes its view gauge.
    let views: Vec<f64> = samples
        .iter()
        .filter(|s| s.name == "zugchain_pbft_view")
        .map(|s| s.value)
        .collect();
    assert_eq!(views.len(), config.n_nodes, "one view gauge per node");
    assert!(views.iter().all(|v| *v >= 0.0));

    let dumps: Vec<String> = capture.nodes.iter().map(|t| t.dump_jsonl()).collect();
    for (node, dump) in dumps.iter().enumerate() {
        let records = parse_jsonl(dump)
            .unwrap_or_else(|e| panic!("node {node} ring dump is not valid JSONL: {e}"));
        assert!(!records.is_empty(), "node {node} recorded nothing");
        assert!(records.iter().all(|r| r.node == node as u64));
    }

    if let Some(dir) = std::env::var_os("ZUGCHAIN_TELEMETRY_OUT") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create artifact directory");
        std::fs::write(dir.join("metrics.prom"), &exposition).expect("write exposition");
        for (node, dump) in dumps.iter().enumerate() {
            std::fs::write(dir.join(format!("trace-node{node}.jsonl")), dump)
                .expect("write ring dump");
        }
    }
}
