//! Cross-commit behaviour pin for the observability surface.
//!
//! Two byte streams are hashed and compared against constants: the
//! concatenated `/v1/trains/0/trace/<sn>` bodies of a seeded traced
//! pipeline, and the `/metrics` exposition of a seeded instrumented
//! simulation. A refactor of the event model, the rings or the JSON
//! codec must leave both byte-identical. The traced pipeline's own
//! exposition is not pinned: its archive-ingest and API latency
//! histograms are wall-clock.

use zugchain_crypto::Digest;
use zugchain_sim::{run_traced_pipeline, Mode, ScenarioConfig, Simulation, Workload};

/// SHA-256 of the seed-77 trace fingerprint (config as in `trace_smoke`).
const TRACE_FINGERPRINT_SHA256: &str =
    "083ff7ec73ba19b14f2838dc753912a5e6e872c745090c47f91705bf5bfb6c86";
/// SHA-256 of the seed-1 instrumented exposition (5 s, 256 B payloads):
/// the bytes taken before the MAC authenticator was removed (17 260
/// bytes), minus its 10 always-zero lines — the `# TYPE` line and four
/// per-node samples of each of `zugchain_pbft_auth_mac_fast_path_total`
/// and `zugchain_pbft_auth_sig_fallback_total` (16 749 bytes).
const EXPOSITION_SHA256: &str = "b73be43d2911e63497bead084c7a5840da8cf51a25a5b92d75f4354953acb43d";

fn config(duration_ms: u64) -> ScenarioConfig {
    ScenarioConfig {
        mode: Mode::Zugchain,
        duration_ms,
        bus_cycle_ms: 64,
        workload: Workload::SyntheticPayload { bytes: 256 },
        ..ScenarioConfig::default()
    }
}

#[test]
fn served_trace_bodies_are_pinned() {
    let outcome = run_traced_pipeline(&config(2_000), 77);
    let fingerprint = outcome.trace_fingerprint();
    assert_eq!(
        Digest::of(fingerprint.as_bytes()).to_string(),
        TRACE_FINGERPRINT_SHA256,
        "served trace bytes changed ({} bytes)",
        fingerprint.len()
    );
}

#[test]
fn instrumented_exposition_is_pinned() {
    let (_, capture) = Simulation::new(&config(5_000), 1).run_instrumented();
    let exposition = capture.registry.render_prometheus();
    assert_eq!(
        Digest::of(exposition.as_bytes()).to_string(),
        EXPOSITION_SHA256,
        "exposition bytes changed ({} bytes)",
        exposition.len()
    );
}
