//! End-to-end causal-tracing acceptance: a deterministic simulation's
//! decided chain driven through export → archive → HTTP serving, with
//! the `/v1/trains/<id>/trace/<sn>` endpoint answering a complete,
//! monotonically-timestamped span lifecycle for every archived request.
//!
//! Set `ZUGCHAIN_TRACE_OUT=<dir>` to keep the artifacts: the served
//! trace bodies as `traces.jsonl` and the exposition as `metrics.prom`.

use zugchain_sim::{run_traced_pipeline, Mode, ScenarioConfig, TracedPipelineOutcome, Workload};
use zugchain_telemetry::parse_jsonl;

/// The canonical stage order every served lifecycle must pass through.
const STAGE_ORDER: [&str; 10] = [
    "\"stage\":\"record\"",
    "\"stage\":\"submit\"",
    "\"stage\":\"batch_flush\"",
    "\"stage\":\"preprepare\"",
    "\"stage\":\"prepare\"",
    "\"stage\":\"commit\"",
    "\"stage\":\"decide\"",
    "\"stage\":\"export\"",
    "\"stage\":\"ingest\"",
    "\"stage\":\"servable\"",
];

fn quick() -> ScenarioConfig {
    ScenarioConfig {
        mode: Mode::Zugchain,
        duration_ms: 2_000,
        bus_cycle_ms: 64,
        workload: Workload::SyntheticPayload { bytes: 256 },
        ..ScenarioConfig::default()
    }
}

fn assert_complete(outcome: &TracedPipelineOutcome) {
    assert!(
        !outcome.archived_sns.is_empty(),
        "the pipeline must archive requests"
    );
    for (sn, status, body) in &outcome.trace_responses {
        assert_eq!(*status, 200, "sn {sn}: {body}");
        assert!(
            body.contains("\"chain\":\"Complete\""),
            "sn {sn} lifecycle incomplete: {body}"
        );
        // The assembled lifecycle lists the stages in canonical
        // pipeline order: each stage's first occurrence must come
        // after the previous stage's.
        let mut last = 0;
        for stage in STAGE_ORDER {
            let at = body[last..]
                .find(stage)
                .unwrap_or_else(|| panic!("sn {sn}: {stage} missing after offset {last}: {body}"));
            last += at;
        }
    }
}

#[test]
fn every_archived_request_serves_a_complete_span_chain() {
    let outcome = run_traced_pipeline(&quick(), 42);
    assert_complete(&outcome);
    // The default ring capacity holds the whole run: no node evicted
    // anything, so `/trace/<sn>` served every span ever recorded.
    for (node, telemetry) in outcome.capture.nodes.iter().enumerate() {
        let records = parse_jsonl(&telemetry.dump_jsonl()).expect("ring dump parses");
        assert_eq!(records[0].seq, 0, "node {node} evicted part of the run");
    }
    assert_eq!(
        outcome.record_to_servable_count, outcome.archived_requests as u64,
        "record_to_servable must observe exactly one latency per archived request"
    );
    assert!(
        outcome
            .exposition
            .contains("zugchain_record_to_servable_ms_count"),
        "end-to-end histogram missing from the exposition"
    );
    assert!(
        outcome
            .exposition
            .contains("zugchain_stage_latency_ms_bucket"),
        "per-stage latency histograms missing from the exposition"
    );
    if let Some(dir) = std::env::var_os("ZUGCHAIN_TRACE_OUT") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create artifact directory");
        std::fs::write(dir.join("traces.jsonl"), outcome.trace_fingerprint())
            .expect("write trace bodies");
        std::fs::write(dir.join("metrics.prom"), &outcome.exposition).expect("write exposition");
    }
}

#[test]
fn same_seed_runs_serve_identical_trace_bytes() {
    let a = run_traced_pipeline(&quick(), 77);
    let b = run_traced_pipeline(&quick(), 77);
    assert_complete(&a);
    assert_eq!(a.archived_sns, b.archived_sns);
    assert_eq!(
        a.trace_fingerprint(),
        b.trace_fingerprint(),
        "trace bodies must be byte-identical for a fixed (config, seed)"
    );
    assert_eq!(a.record_to_servable_count, b.record_to_servable_count);
}
