//! Byzantine node wrappers.
//!
//! [`ByzNode`] wraps a concrete [`ZugchainNode`] and implements
//! [`TrainNode`] by delegation, intercepting the *effect stream* to
//! realize attacker behaviours. Working at the effect layer keeps the
//! protocol code untouched: a Byzantine node here is a correct node
//! whose network interface lies.

use zugchain::{NodeEffect, NodeMessage, NodeStats, TimerId, TrainNode, ZugchainNode};
use zugchain_blockchain::ChainStore;
use zugchain_crypto::KeyPair;
use zugchain_machine::Effect;
use zugchain_mvb::Telegram;
use zugchain_pbft::{
    CheckpointProof, Message, NodeId, PrePrepare, ProposedBatch, ProposedRequest, SignedMessage,
};

use crate::plan::ByzBehavior;

/// A train node with an optional Byzantine filter on its outbound
/// effects. `behavior: None` is a fully honest node.
pub struct ByzNode {
    inner: ZugchainNode,
    behavior: Option<ByzBehavior>,
    /// This node's signing key, needed to re-sign tampered proposals
    /// (an equivocating primary signs both of its proposals correctly —
    /// that is what makes equivocation a protocol violation rather than
    /// a forgery the signature layer would reject).
    key: KeyPair,
    n_nodes: usize,
}

impl std::fmt::Debug for ByzNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzNode")
            .field("id", &self.inner.id())
            .field("behavior", &self.behavior)
            .finish_non_exhaustive()
    }
}

impl ByzNode {
    /// Wraps `inner` with `behavior` (or none, for an honest node).
    pub fn new(
        inner: ZugchainNode,
        behavior: Option<ByzBehavior>,
        key: KeyPair,
        n_nodes: usize,
    ) -> Self {
        Self {
            inner,
            behavior,
            key,
            n_nodes,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &ZugchainNode {
        &self.inner
    }

    /// Mutable access to the wrapped node (mutation hooks, recovery).
    pub fn inner_mut(&mut self) -> &mut ZugchainNode {
        &mut self.inner
    }

    /// The configured behaviour, if any.
    pub fn behavior(&self) -> Option<ByzBehavior> {
        self.behavior
    }

    /// Splits one of this node's own preprepare broadcasts into
    /// per-peer sends, with the highest-id peer receiving `conflicting`
    /// (re-signed) for the same slot.
    fn split_with_conflicting(
        &self,
        signed: &SignedMessage,
        conflicting: PrePrepare,
    ) -> Vec<NodeEffect> {
        let me = self.inner.id();
        let victim = (0..self.n_nodes as u64)
            .map(NodeId)
            .filter(|&peer| peer != me)
            .max()
            .expect("cluster has peers");
        let forged = SignedMessage::sign(me, Message::PrePrepare(conflicting), &self.key);
        (0..self.n_nodes as u64)
            .map(NodeId)
            .filter(|&peer| peer != me)
            .map(|peer| {
                let message = if peer == victim {
                    NodeMessage::Consensus(forged.clone())
                } else {
                    NodeMessage::Consensus(signed.clone())
                };
                Effect::Send { to: peer, message }
            })
            .collect()
    }

    /// A conflicting proposal with the last request's payload tampered —
    /// same batch shape, different content, correctly re-signed.
    fn tampered_payload(preprepare: &PrePrepare) -> PrePrepare {
        let mut requests = preprepare.batch.requests().to_vec();
        requests
            .last_mut()
            .expect("batches are never empty")
            .payload
            .push(0xB7);
        PrePrepare {
            view: preprepare.view,
            sn: preprepare.sn,
            batch: ProposedBatch::new(requests),
        }
    }

    /// A conflicting batch differing in exactly one request: the first
    /// request is swapped for a protocol no-op attributed to this node
    /// (same length, one differing element — the batch-equivocation
    /// attack of the chaos plan).
    fn swapped_request(&self, preprepare: &PrePrepare) -> PrePrepare {
        let mut requests = preprepare.batch.requests().to_vec();
        requests[0] = ProposedRequest::noop(self.inner.id());
        PrePrepare {
            view: preprepare.view,
            sn: preprepare.sn,
            batch: ProposedBatch::new(requests),
        }
    }
}

impl TrainNode for ByzNode {
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn view(&self) -> u64 {
        self.inner.view()
    }
    fn is_primary(&self) -> bool {
        self.inner.is_primary()
    }
    fn on_raw_bus_payload(&mut self, payload: Vec<u8>, time_ms: u64) {
        self.inner.on_raw_bus_payload(payload, time_ms);
    }
    fn on_bus_cycle(&mut self, source: usize, cycle: u64, time_ms: u64, telegrams: &[Telegram]) {
        self.inner.on_bus_cycle(source, cycle, time_ms, telegrams);
    }
    fn on_message(&mut self, message: NodeMessage) {
        self.inner.on_message(message);
    }
    fn on_timer(&mut self, timer: TimerId) {
        self.inner.on_timer(timer);
    }

    fn drain_effects(&mut self) -> Vec<NodeEffect> {
        let effects = self.inner.drain_effects();
        match self.behavior {
            // Honest, and FabricateBus (the fabrication happens on the
            // input side, driven by the executor).
            None | Some(ByzBehavior::FabricateBus) => effects,
            Some(ByzBehavior::Silent) => effects
                .into_iter()
                .filter(|e| !matches!(e, Effect::Send { .. } | Effect::Broadcast { .. }))
                .collect(),
            Some(
                behavior @ (ByzBehavior::EquivocatePreprepares | ByzBehavior::EquivocateBatch),
            ) => {
                let me = self.inner.id();
                let mut out = Vec::with_capacity(effects.len());
                for effect in effects {
                    match &effect {
                        Effect::Broadcast {
                            message: NodeMessage::Consensus(signed),
                        } if signed.from == me => {
                            if let Message::PrePrepare(pp) = &signed.message {
                                let conflicting = match behavior {
                                    ByzBehavior::EquivocateBatch => self.swapped_request(pp),
                                    _ => Self::tampered_payload(pp),
                                };
                                out.extend(self.split_with_conflicting(signed, conflicting));
                                continue;
                            }
                            out.push(effect);
                        }
                        _ => out.push(effect),
                    }
                }
                out
            }
        }
    }

    fn chain(&self) -> &ChainStore {
        self.inner.chain()
    }
    fn chain_mut(&mut self) -> &mut ChainStore {
        self.inner.chain_mut()
    }
    fn stable_proofs(&self) -> &[CheckpointProof] {
        self.inner.stable_proofs()
    }
    fn stats(&self) -> NodeStats {
        self.inner.stats()
    }
    fn approx_memory_bytes(&self) -> usize {
        self.inner.approx_memory_bytes()
    }
    fn open_requests(&self) -> usize {
        self.inner.open_requests()
    }
    fn consensus_stats(&self) -> zugchain_pbft::ReplicaStats {
        self.inner.consensus_stats()
    }
    fn slot_snapshot(&self) -> Vec<(u64, bool, usize, usize, bool, bool)> {
        self.inner.slot_snapshot()
    }
    fn progress_snapshot(&self) -> (u64, u64, u64, u64, usize) {
        self.inner.progress_snapshot()
    }
    fn set_telemetry(&mut self, telemetry: &zugchain_telemetry::Telemetry) {
        self.inner.set_telemetry(telemetry);
    }
}
