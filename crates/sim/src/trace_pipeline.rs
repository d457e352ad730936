//! End-to-end traced pipeline: one deterministic simulation run whose
//! decided chain is carried through the real ground stages — export
//! (paper Fig. 4), archive ingest, HTTP serving — with every stage
//! recording causal spans into its handle's event ring, all rings
//! joined by the simulation's [`TraceStore`].
//!
//! This is the subject of the `trace_smoke` integration test (run by
//! the CI `trace-smoke` job) and of the `figures a8-stages` experiment:
//! after the run, the `/v1/trains/<id>/trace/<sn>` endpoint must return
//! a `Complete` span chain (record → submit → batch_flush → preprepare
//! → prepare → commit → decide → export → ingest → servable) for every
//! archived request, byte-identical across two same-seed runs, and the
//! `zugchain_record_to_servable_ms` histogram must have observed
//! exactly one latency per archived request.
//!
//! [`TraceStore`]: zugchain_telemetry::TraceStore

use std::collections::BTreeSet;
use std::sync::Arc;

use zugchain_api::{ApiConfig, ApiServer, Backend, HttpClient};
use zugchain_archive::{Archive, QueryEngine};
use zugchain_blockchain::ChainStore;
use zugchain_crypto::Keystore;
use zugchain_export::{
    DataCenter, DcAddr, DcConfig, DcEffect, DcId, ExportReplica, ReplicaExportConfig,
};
use zugchain_pbft::NodeId;
use zugchain_telemetry::Telemetry;
use zugchain_wire::TrainId;

use crate::fleet::{certify, REPLICAS_PER_TRAIN, REPLICA_QUORUM};
use crate::{RunMetrics, ScenarioConfig, Simulation, TelemetryCapture};

/// Everything the traced pipeline produced, ready for assertions.
#[derive(Debug)]
pub struct TracedPipelineOutcome {
    /// The simulation's run report.
    pub metrics: RunMetrics,
    /// The simulation's telemetry capture (registry, node handles, trace
    /// store).
    pub capture: TelemetryCapture,
    /// Consensus sequence numbers of every archived request, ascending.
    pub archived_sns: Vec<u64>,
    /// Total requests landed in the archive.
    pub archived_requests: usize,
    /// Observation count of `zugchain_record_to_servable_ms` — must
    /// equal `archived_requests`.
    pub record_to_servable_count: u64,
    /// `(sn, status, body)` of `GET /v1/trains/0/trace/<sn>` for every
    /// archived sn, in ascending sn order.
    pub trace_responses: Vec<(u64, u16, String)>,
    /// The final Prometheus exposition.
    pub exposition: String,
}

impl TracedPipelineOutcome {
    /// Concatenated trace bodies — the determinism fingerprint: two
    /// same-seed runs must produce identical bytes.
    pub fn trace_fingerprint(&self) -> String {
        self.trace_responses
            .iter()
            .map(|(sn, status, body)| format!("{sn} {status} {body}\n"))
            .collect()
    }
}

/// Runs the full traced pipeline for `(config, seed)`: simulation →
/// export round → archive ingest → HTTP trace endpoint.
///
/// # Panics
///
/// Panics if the export or serving stages fail structurally (a
/// certified segment refuses ingestion, the server cannot bind) —
/// these are bugs, not environment conditions.
pub fn run_traced_pipeline(config: &ScenarioConfig, seed: u64) -> TracedPipelineOutcome {
    let (metrics, capture, chain) = Simulation::new(config, seed).run_traced();

    // Ground-side telemetry: same registry as the simulated cluster and
    // a ring attached to its trace store, clock pinned past the drain
    // horizon so export and ingest spans sort after every consensus span.
    let ground = Telemetry::new_with_store(
        0,
        Arc::clone(&capture.registry),
        config.node_config.trace_capacity,
        Some(Arc::clone(&capture.trace_store)),
    );
    ground.set_time_ms(config.duration_ms + 2_048);

    // --- Export: one synchronous protocol round (paper Fig. 4) over
    // the decided chain, exactly as the fleet simulation drives it. ---
    let (pairs, keystore) = Keystore::generate(REPLICAS_PER_TRAIN, seed ^ 0x7AC3);
    let (dc_pairs, dc_keystore) = Keystore::generate(1, seed ^ 0xDC00);
    let mut dc = DataCenter::new(
        DcConfig {
            id: DcId(0),
            train: TrainId::DEFAULT,
            n_replicas: REPLICAS_PER_TRAIN,
            replica_quorum: REPLICA_QUORUM,
            peers: vec![],
        },
        dc_pairs[0].clone(),
        keystore.clone(),
        REPLICA_QUORUM,
    );
    dc.set_telemetry(&ground);
    let mut replicas: Vec<ExportReplica> = (0..REPLICAS_PER_TRAIN)
        .map(|id| {
            ExportReplica::new(
                NodeId(id as u64),
                pairs[id].clone(),
                dc_keystore.clone(),
                ReplicaExportConfig { delete_quorum: 1 },
            )
        })
        .collect();
    let mut chains: Vec<ChainStore> = (0..REPLICAS_PER_TRAIN)
        .map(|_| {
            let mut store = ChainStore::new();
            for block in &chain {
                store
                    .append(block.clone())
                    .expect("decided chain extends an empty store");
            }
            store
        })
        .collect();
    let proofs = match chain.last() {
        Some(head) => vec![certify(&pairs, head.header.last_sn, head)],
        None => Vec::new(),
    };
    if !chain.is_empty() {
        let mut effects = dc.begin_export(NodeId(1));
        while let Some(effect) = effects.pop() {
            match effect {
                DcEffect::Broadcast { message } => {
                    for id in 0..REPLICAS_PER_TRAIN {
                        for reply in replicas[id].handle(message.clone(), &mut chains[id], &proofs)
                        {
                            effects.extend(dc.on_replica_message(NodeId(id as u64), reply));
                        }
                    }
                }
                DcEffect::Send {
                    to: DcAddr::Replica(to),
                    message,
                } => {
                    let id = to.0 as usize;
                    for reply in replicas[id].handle(message, &mut chains[id], &proofs) {
                        effects.extend(dc.on_replica_message(NodeId(id as u64), reply));
                    }
                }
                DcEffect::Send {
                    to: DcAddr::DataCenter(_),
                    ..
                }
                | DcEffect::Output(_) => {}
                effect => panic!("unexpected export effect {effect:?}"),
            }
        }
    }
    let segments = dc.drain_certified_segments();

    // --- Archive ingest: emits the ingest/servable span tail and the
    // record_to_servable histogram. ---
    let mut archive = Archive::in_memory(keystore, REPLICA_QUORUM);
    archive.set_telemetry(&ground);
    let mut sns = BTreeSet::new();
    let mut archived_requests = 0usize;
    for segment in &segments {
        archive.ingest(segment).expect("certified segment ingests");
        for block in &segment.blocks {
            for request in &block.requests {
                sns.insert(request.sn);
                archived_requests += 1;
            }
        }
    }
    let archived_sns: Vec<u64> = sns.into_iter().collect();
    let record_to_servable_count = capture
        .registry
        .histogram_snapshot("zugchain_record_to_servable_ms", &[("node", "0")])
        .map_or(0, |snapshot| snapshot.count);

    // --- Serve: the joined trace store behind the real HTTP stack. ---
    let mut server = ApiServer::start_with_traces(
        ApiConfig::open(),
        Backend::Single(QueryEngine::new(archive)),
        Arc::clone(&capture.registry),
        Some(Arc::clone(&capture.trace_store)),
    )
    .expect("api server binds");
    let mut client = HttpClient::new(server.address());
    let trace_responses: Vec<(u64, u16, String)> = archived_sns
        .iter()
        .map(|&sn| {
            let response = client
                .get(&format!("/v1/trains/0/trace/{sn}"), None)
                .expect("trace endpoint answers");
            (sn, response.status, response.text().to_string())
        })
        .collect();
    let exposition = capture.registry.render_prometheus();
    server.stop();

    TracedPipelineOutcome {
        metrics,
        capture,
        archived_sns,
        archived_requests,
        record_to_servable_count,
        trace_responses,
        exposition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, Workload};

    fn quick() -> ScenarioConfig {
        ScenarioConfig {
            mode: Mode::Zugchain,
            duration_ms: 2_000,
            bus_cycle_ms: 64,
            workload: Workload::SyntheticPayload { bytes: 128 },
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn traced_pipeline_serves_complete_chains() {
        let outcome = run_traced_pipeline(&quick(), 11);
        assert!(
            !outcome.archived_sns.is_empty(),
            "the run must archive something"
        );
        assert_eq!(
            outcome.record_to_servable_count,
            outcome.archived_requests as u64
        );
        for (sn, status, body) in &outcome.trace_responses {
            assert_eq!(*status, 200, "sn {sn}: {body}");
            assert!(body.contains("\"chain\":\"Complete\""), "sn {sn}: {body}");
        }
        assert!(outcome
            .exposition
            .contains("zugchain_record_to_servable_ms_count"));
    }

    #[test]
    fn traced_pipeline_is_deterministic() {
        let a = run_traced_pipeline(&quick(), 23);
        let b = run_traced_pipeline(&quick(), 23);
        assert_eq!(a.trace_fingerprint(), b.trace_fingerprint());
        assert_eq!(a.archived_sns, b.archived_sns);
    }
}
