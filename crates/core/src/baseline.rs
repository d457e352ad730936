use std::collections::BTreeMap;

use zugchain_blockchain::{BlockBuilder, ChainStore, LoggedRequest};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_machine::Effect;
use zugchain_mvb::{Nsdb, Telegram};
use zugchain_pbft::{CheckpointProof, NodeId, ProposedRequest, Replica, ReplicaEvent};
use zugchain_signals::CycleConsolidator;
use zugchain_wire::{Encode, Writer};

use crate::node::{NodeEffect, NodeEvent, NodeMetrics, NodeStats, TrainNode};
use crate::{LayerMessage, NodeConfig, NodeMessage, SignedRequest, TimerId};

/// The evaluation baseline: PBFT with traditional client handling
/// (paper §V-A).
///
/// Every node runs a client and a replica process. The client reads bus
/// data and forwards each consolidated request to the primary as an
/// ordinary BFT client request — framed with the client id and a client
/// sequence number, so requests from different clients are distinct even
/// when their payloads are identical. Identical bus data is therefore
/// ordered up to n times, and every copy is logged; this is exactly the
/// duplication ZugChain's communication layer eliminates.
///
/// The client suspects the primary when a request is not ordered within
/// the view-change timeout (500 ms in the paper's Fig. 8) and resends its
/// open requests to the new primary after a view change.
#[derive(Debug)]
pub struct BaselineNode {
    id: NodeId,
    config: NodeConfig,
    key: KeyPair,
    replica: Replica,
    sources: Vec<CycleConsolidator>,
    nsdb: Nsdb,
    /// Client state: open requests by framed-payload digest (ordered so
    /// resends after a view change are deterministic).
    open: BTreeMap<Digest, ProposedRequest>,
    client_seq: u64,
    builder: BlockBuilder,
    store: ChainStore,
    stable_proofs: Vec<CheckpointProof>,
    last_time_ms: u64,
    effects: Vec<NodeEffect>,
    stats: NodeStats,
    /// Registry handles shared with the ZugChain flavour so evaluation
    /// runs report both modes from the same metric names; inert until
    /// [`TrainNode::set_telemetry`].
    metrics: NodeMetrics,
}

impl BaselineNode {
    /// Creates a baseline node with a single bus input source.
    pub fn new(id: u64, config: NodeConfig, nsdb: Nsdb, key: KeyPair, keystore: Keystore) -> Self {
        let pbft_config = config
            .pbft
            .clone()
            .with_view_change_timeout(config.view_change_timeout_ms);
        let replica = Replica::new(NodeId(id), pbft_config, key.clone(), keystore);
        Self {
            id: NodeId(id),
            sources: vec![CycleConsolidator::new(nsdb.clone())],
            nsdb,
            open: BTreeMap::new(),
            client_seq: 0,
            builder: BlockBuilder::new(config.block_size),
            store: ChainStore::new(),
            stable_proofs: Vec::new(),
            last_time_ms: 0,
            effects: Vec::new(),
            stats: NodeStats::default(),
            metrics: NodeMetrics::default(),
            config,
            key,
            replica,
        }
    }

    /// Returns `true` if this node hosts the current primary replica.
    pub fn is_primary(&self) -> bool {
        self.replica.is_primary()
    }

    /// The current view number.
    pub fn view(&self) -> u64 {
        self.replica.view()
    }

    /// Number of client requests awaiting a decide.
    pub fn open_requests(&self) -> usize {
        self.open.len()
    }

    /// Attaches an additional bus input source, returning its index.
    pub fn add_input_source(&mut self) -> usize {
        self.sources.push(CycleConsolidator::new(self.nsdb.clone()));
        self.sources.len() - 1
    }

    /// Frames and submits one bus payload as a traditional client request.
    fn submit_client_request(&mut self, payload: Vec<u8>) {
        // Traditional client framing: (client id, client sequence,
        // payload). Identical payloads from different clients differ.
        let mut framed = Writer::with_capacity(payload.len() + 16);
        self.id.encode(&mut framed);
        framed.write_u64(self.client_seq);
        framed.write_bytes(&payload);
        self.client_seq += 1;

        let request =
            ProposedRequest::application(framed.into_bytes(), self.id).with_time(self.last_time_ms);
        let digest = request.payload_digest();
        self.open.insert(digest, request.clone());

        // Client-side view-change timer: suspect if not ordered in time.
        self.effects.push(Effect::SetTimer {
            id: TimerId::Hard(digest),
            duration_ms: self.config.view_change_timeout_ms,
        });

        if self.is_primary() {
            self.stats.proposed += 1;
            self.replica.propose(request);
            self.pump_replica();
        } else {
            let signed = SignedRequest::sign(request, &self.key);
            let primary = self.replica.primary();
            self.effects.push(Effect::Send {
                to: primary,
                message: NodeMessage::Layer(LayerMessage::ClientRequest(signed)),
            });
        }
    }

    fn on_decide(&mut self, sn: u64, request: ProposedRequest, digest: Digest) {
        if request.is_noop() {
            return;
        }
        if self.open.remove(&digest).is_some() {
            self.effects.push(Effect::CancelTimer {
                id: TimerId::Hard(digest),
            });
        }
        // No duplicate filtering: the baseline logs every ordered copy.
        self.stats.logged += 1;
        self.metrics.logged.inc();
        self.effects.push(Effect::Output(NodeEvent::Logged {
            sn,
            origin: request.origin,
            payload: request.payload.clone(),
            digest,
        }));
        let logged = LoggedRequest {
            sn,
            origin: request.origin.0,
            payload: request.payload,
        };
        if let Some(sealed) = self.builder.seal(logged, request.time_ms) {
            let block_hash = sealed.hash();
            let block = sealed.block().clone();
            let last_sn = block.header.last_sn;
            self.store
                .append_sealed(sealed)
                .expect("builder output always extends the local chain");
            self.stats.blocks_created += 1;
            self.metrics.blocks.inc();
            self.effects
                .push(Effect::Output(NodeEvent::BlockCreated { block }));
            self.replica.record_checkpoint(last_sn, block_hash);
            self.pump_replica();
        }
    }

    fn on_new_primary(&mut self, view: u64, primary: NodeId) {
        self.effects
            .push(Effect::Output(NodeEvent::NewPrimary { view, primary }));
        // The client resends its open requests to the new primary.
        let open: Vec<ProposedRequest> = self.open.values().cloned().collect();
        for request in open {
            let digest = request.payload_digest();
            self.effects.push(Effect::SetTimer {
                id: TimerId::Hard(digest),
                duration_ms: self.config.view_change_timeout_ms,
            });
            if primary == self.id {
                self.stats.proposed += 1;
                self.replica.propose(request);
            } else {
                let signed = SignedRequest::sign(request, &self.key);
                self.effects.push(Effect::Send {
                    to: primary,
                    message: NodeMessage::Layer(LayerMessage::ClientRequest(signed)),
                });
            }
        }
        if primary == self.id {
            self.pump_replica();
        }
    }

    fn pump_replica(&mut self) {
        let effects = self.replica.drain_effects();
        for effect in effects {
            match effect {
                Effect::Broadcast { message } => self.effects.push(Effect::Broadcast {
                    message: NodeMessage::Consensus(message),
                }),
                Effect::Send { to, message } => self.effects.push(Effect::Send {
                    to,
                    message: NodeMessage::Consensus(message),
                }),
                Effect::SetTimer { id, duration_ms } => self.effects.push(Effect::SetTimer {
                    id: id.into(),
                    duration_ms,
                }),
                Effect::CancelTimer { id } => {
                    self.effects.push(Effect::CancelTimer { id: id.into() });
                }
                Effect::Output(ReplicaEvent::Decide {
                    sn,
                    request,
                    payload_digest,
                }) => {
                    self.on_decide(sn, request, payload_digest);
                }
                Effect::Output(ReplicaEvent::NewPrimary { view, primary }) => {
                    self.on_new_primary(view, primary);
                }
                Effect::Output(ReplicaEvent::PrePrepareSeen { .. }) => {}
                Effect::Output(ReplicaEvent::StableCheckpoint { proof }) => {
                    self.stable_proofs.push(proof.clone());
                    self.effects
                        .push(Effect::Output(NodeEvent::CheckpointStable { proof }));
                }
                Effect::Output(ReplicaEvent::NeedStateTransfer { from_sn, to_sn }) => {
                    self.metrics.state_transfers.inc();
                    self.effects
                        .push(Effect::Output(NodeEvent::StateTransferNeeded {
                            from_sn,
                            to_sn,
                        }));
                }
            }
        }
    }
}

impl TrainNode for BaselineNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn view(&self) -> u64 {
        BaselineNode::view(self)
    }

    fn is_primary(&self) -> bool {
        BaselineNode::is_primary(self)
    }

    fn on_raw_bus_payload(&mut self, payload: Vec<u8>, time_ms: u64) {
        self.last_time_ms = self.last_time_ms.max(time_ms);
        self.stats.bus_requests += 1;
        self.submit_client_request(payload);
    }

    fn on_bus_cycle(&mut self, source: usize, cycle: u64, time_ms: u64, telegrams: &[Telegram]) {
        self.last_time_ms = self.last_time_ms.max(time_ms);
        assert!(source < self.sources.len(), "unknown input source {source}");
        if let Some(request) = self.sources[source].consolidate(cycle, time_ms, telegrams) {
            self.stats.bus_requests += 1;
            let payload = zugchain_wire::to_bytes(&request);
            self.submit_client_request(payload);
        }
    }

    fn on_message(&mut self, message: NodeMessage) {
        match message {
            NodeMessage::Consensus(signed) => {
                self.replica.on_message(signed);
                self.pump_replica();
            }
            NodeMessage::Layer(LayerMessage::ClientRequest(signed)) => {
                if !signed.verify(self.replica.keystore()) {
                    self.stats.invalid_signatures += 1;
                    return;
                }
                if self.is_primary() {
                    // Traditional PBFT: the primary orders every client
                    // request; duplication is only avoided on identical
                    // (client, sequence) pairs, which the framing makes
                    // unique per client.
                    self.stats.proposed += 1;
                    self.replica.propose(signed.request);
                    self.pump_replica();
                }
            }
            NodeMessage::Layer(_) => {
                // ZugChain-layer traffic is not part of the baseline.
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId) {
        if let Some(timer) = timer.replica_timer() {
            self.replica.on_timer(timer);
            self.pump_replica();
            return;
        }
        // The baseline has no soft timers.
        if let TimerId::Hard(digest) = timer {
            if self.open.contains_key(&digest) {
                self.stats.hard_timeouts += 1;
                let primary = self.replica.primary();
                self.replica.suspect(primary);
                self.pump_replica();
            }
        }
    }

    fn drain_effects(&mut self) -> Vec<NodeEffect> {
        std::mem::take(&mut self.effects)
    }

    fn chain(&self) -> &ChainStore {
        &self.store
    }

    fn chain_mut(&mut self) -> &mut ChainStore {
        &mut self.store
    }

    fn stable_proofs(&self) -> &[CheckpointProof] {
        &self.stable_proofs
    }

    fn stats(&self) -> NodeStats {
        self.stats
    }

    fn open_requests(&self) -> usize {
        self.open.len()
    }

    fn consensus_stats(&self) -> zugchain_pbft::ReplicaStats {
        self.replica.stats()
    }

    fn set_telemetry(&mut self, telemetry: &zugchain_telemetry::Telemetry) {
        self.metrics = NodeMetrics::resolve(telemetry);
        self.replica.set_telemetry(telemetry);
    }

    fn slot_snapshot(&self) -> Vec<(u64, bool, usize, usize, bool, bool)> {
        self.replica.slot_snapshot()
    }

    fn progress_snapshot(&self) -> (u64, u64, u64, u64, usize) {
        self.replica.progress_snapshot()
    }

    fn approx_memory_bytes(&self) -> usize {
        let open_bytes: usize = self.open.values().map(|r| r.payload.len() + 96).sum();
        self.replica.approx_memory_bytes()
            + self.store.resident_bytes()
            + open_bytes
            + self.stable_proofs.len() * 512
    }
}

#[cfg(test)]
mod tests {
    use crate::node::testutil::Cluster;

    #[test]
    fn baseline_orders_every_copy() {
        let mut cluster = Cluster::baseline(4);
        cluster.bus_payload_everywhere(b"cycle-1".to_vec());
        cluster.run_until_quiet();
        // All four clients' copies are ordered and logged on every node.
        for id in 0..4 {
            assert_eq!(cluster.logged_payload_count(id), 4, "node {id}");
        }
    }

    #[test]
    fn baseline_client_framing_makes_copies_distinct() {
        let mut cluster = Cluster::baseline(4);
        cluster.bus_payload_everywhere(b"same".to_vec());
        cluster.bus_payload_everywhere(b"same".to_vec());
        cluster.run_until_quiet();
        // 4 nodes × 2 cycles = 8 ordered requests (client seq makes the
        // second cycle distinct even with identical bus bytes).
        assert_eq!(cluster.logged_payload_count(0), 8);
    }

    #[test]
    fn baseline_blocks_grow_n_times_faster() {
        let zc = {
            let mut cluster = Cluster::zugchain(4);
            for tag in 0..12u8 {
                cluster.bus_payload_everywhere(vec![tag]);
            }
            cluster.run_until_quiet();
            cluster.node(0).chain().height()
        };
        let baseline = {
            let mut cluster = Cluster::baseline(4);
            for tag in 0..12u8 {
                cluster.bus_payload_everywhere(vec![tag]);
            }
            cluster.run_until_quiet();
            cluster.node(0).chain().height()
        };
        assert!(
            baseline >= zc * 3,
            "baseline ({baseline}) must order ~4x the blocks of zugchain ({zc})"
        );
    }

    #[test]
    fn baseline_client_timeout_triggers_view_change() {
        let mut cluster = Cluster::baseline(4);
        // Primary (node 0) drops everything: client requests go nowhere.
        cluster.silence_node(0);
        cluster.bus_payload_everywhere(b"lost".to_vec());
        cluster.run_until_quiet();
        assert_eq!(cluster.logged_payload_count(1), 0);

        // Client timers fire on the backups; they suspect and rotate the
        // primary, then resend, and the request is finally ordered.
        cluster.fire_due_timers();
        cluster.run_until_quiet();
        cluster.fire_due_timers();
        cluster.run_until_quiet();
        assert!(cluster.node(1).view() >= 1, "view change happened");
        assert!(
            cluster.logged_payload_count(1) >= 3,
            "surviving clients' copies are ordered in the new view"
        );
    }
}
