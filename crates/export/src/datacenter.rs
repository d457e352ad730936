use std::collections::{BTreeMap, BTreeSet, HashMap};

use zugchain_blockchain::{verify_chain, Block};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_machine::{Effect, Machine, NoTimer};
use zugchain_pbft::{CheckpointProof, NodeId};
use zugchain_wire::TrainId;

use zugchain_telemetry::{Counter, Gauge, Telemetry};

use crate::{CheckpointReply, DcId, DeleteCmd, ExportMessage, SignedAck, SignedDelete};

/// Cached metric handles for a data center (see DESIGN.md §12).
/// Resolved once in [`DataCenter::set_telemetry`]; all handles are inert
/// until then.
#[derive(Debug, Default)]
struct DcMetrics {
    /// `zugchain_export_rounds_total`: export rounds started.
    rounds: Counter,
    /// `zugchain_export_checkpoint_replies_total`: checkpoint replies
    /// received from replicas (step ②).
    checkpoint_replies: Counter,
    /// `zugchain_export_certified_segments_total`: checkpoint-certified
    /// segments adopted (from the train or via DC sync).
    certified_segments: Counter,
    /// `zugchain_export_blocks_total`: blocks adopted into the archive.
    blocks: Counter,
    /// `zugchain_export_range_fetches_total`: second-round block-range
    /// fetches — each one is a retry against the best-checkpoint replica.
    range_fetches: Counter,
    /// `zugchain_export_failed_rounds_total`: rounds abandoned without
    /// adopting blocks (empty, stale, or corrupt segment); the caller
    /// retries with a different block source.
    failed_rounds: Counter,
    /// `zugchain_export_archive_height`: height of the newest archived
    /// block.
    archive_height: Gauge,
}

impl DcMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        Self {
            rounds: telemetry.counter("zugchain_export_rounds_total"),
            checkpoint_replies: telemetry.counter("zugchain_export_checkpoint_replies_total"),
            certified_segments: telemetry.counter("zugchain_export_certified_segments_total"),
            blocks: telemetry.counter("zugchain_export_blocks_total"),
            range_fetches: telemetry.counter("zugchain_export_range_fetches_total"),
            failed_rounds: telemetry.counter("zugchain_export_failed_rounds_total"),
            archive_height: telemetry.gauge("zugchain_export_archive_height"),
        }
    }
}

/// Configuration of a data center.
#[derive(Debug, Clone)]
pub struct DcConfig {
    /// This data center's id (key id in the data-center keystore).
    pub id: DcId,
    /// The train this data center exports: its reads are addressed to
    /// that train's replica group, its certified segments are tagged with
    /// it, and DC syncs for any other train are rejected. A fleet data
    /// center runs one [`DataCenter`] machine per train, each against
    /// that train's replica keyset.
    pub train: TrainId,
    /// Number of replicas on the train.
    pub n_replicas: usize,
    /// Checkpoint replies to await before finalizing: 2f+1, so at least
    /// one reply is both honest and recent (paper step ③).
    pub replica_quorum: usize,
    /// The other data centers to synchronize with.
    pub peers: Vec<DcId>,
}

/// One contiguous, checkpoint-certified chain extension adopted by a
/// data center — the unit of ingestion for the juridical archive.
///
/// Every certified segment the data center emits satisfies, at emission
/// time: `blocks` is non-empty, chains onto `(base_height, base_hash)`
/// via [`verify_chain`], and `proof` is a 2f+1 checkpoint certificate
/// whose state digest equals the last block's hash. The archive
/// re-verifies all of this on ingest — it does not trust the data-center
/// process that handed the segment over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedSegment {
    /// Origin train of the blocks; the archive routes the segment to that
    /// train's shard and verifies it against that train's replica keyset.
    pub train: TrainId,
    /// Height of the archived block this segment extends.
    pub base_height: u64,
    /// Hash of that block (the first new block's `prev_hash`).
    pub base_hash: Digest,
    /// The newly adopted blocks, oldest first.
    pub blocks: Vec<Block>,
    /// The 2f+1 checkpoint certificate covering the last block.
    pub proof: CheckpointProof,
}

/// Result of a completed export round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportOutcome {
    /// Blocks newly added to the archive in this round.
    pub exported_blocks: usize,
    /// Archive height after the round.
    pub new_height: u64,
    /// Whether a delete was issued (false when nothing new was exported).
    pub delete_issued: bool,
}

/// Address space of the export protocol: replicas on the train and peer
/// data centers share one [`Effect::Send`] vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DcAddr {
    /// A replica on the train.
    Replica(NodeId),
    /// A peer data center.
    DataCenter(DcId),
}

/// Effects a data center emits. `Broadcast` addresses every replica on
/// the train (data centers are reached point-to-point via
/// [`DcAddr::DataCenter`]); the export protocol has no timers.
pub type DcEffect = Effect<DcAddr, ExportMessage, NoTimer, ExportOutcome>;

/// Inputs driving a [`DataCenter`] when used through the
/// [`Machine`] interface.
#[derive(Debug, Clone)]
pub enum DcInput {
    /// Step ①: start an export round, fetching blocks from `blocks_from`.
    BeginExport {
        /// Replica asked for the full blocks.
        blocks_from: NodeId,
    },
    /// A message arriving from a replica on the train.
    FromReplica {
        /// Sending replica.
        from: NodeId,
        /// The message.
        message: ExportMessage,
    },
    /// A synchronization message from a peer data center.
    FromDataCenter {
        /// The message (only [`ExportMessage::DcSync`] is meaningful).
        message: ExportMessage,
    },
}

/// State of an in-progress export round.
#[derive(Debug)]
struct Round {
    replies: BTreeMap<u64, CheckpointReply>,
    staged_blocks: Vec<Block>,
    range_requested: bool,
}

/// A railway company's private data center: drives the export protocol
/// and maintains a verified archive of the full blockchain.
///
/// # Examples
///
/// See the crate-level docs and the integration tests; a data center is
/// driven by [`begin_export`](Self::begin_export) and
/// [`on_replica_message`](Self::on_replica_message).
#[derive(Debug)]
pub struct DataCenter {
    config: DcConfig,
    key: KeyPair,
    replica_keystore: Keystore,
    /// Signature quorum for checkpoint proofs (2f+1 replicas).
    proof_quorum: usize,
    /// The archive: every exported block, oldest first, chaining from
    /// genesis.
    archive: Vec<Block>,
    last_height: u64,
    last_hash: Digest,
    round: Option<Round>,
    /// Acks per delete command: set of acknowledging replicas.
    acks: HashMap<(u64, Digest), BTreeSet<u64>>,
    /// Certified segments adopted since the last
    /// [`drain_certified_segments`](Self::drain_certified_segments) call.
    certified: Vec<CertifiedSegment>,
    metrics: DcMetrics,
    telemetry: Telemetry,
}

impl DataCenter {
    /// Creates a data center with an empty archive (genesis only).
    pub fn new(
        config: DcConfig,
        key: KeyPair,
        replica_keystore: Keystore,
        proof_quorum: usize,
    ) -> Self {
        let genesis = Block::genesis();
        Self {
            config,
            key,
            replica_keystore,
            proof_quorum,
            last_height: genesis.height(),
            last_hash: genesis.hash(),
            archive: vec![genesis],
            round: None,
            acks: HashMap::new(),
            certified: Vec::new(),
            metrics: DcMetrics::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: resolves the data center's metric
    /// handles (`zugchain_export_*`) and enables export-round trace
    /// events in its event ring.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = DcMetrics::resolve(telemetry);
        self.metrics.archive_height.set(self.last_height as i64);
        self.telemetry = telemetry.clone();
    }

    /// This data center's id.
    pub fn id(&self) -> DcId {
        self.config.id
    }

    /// The train this data center exports.
    pub fn train(&self) -> TrainId {
        self.config.train
    }

    /// Height of the newest archived block.
    pub fn archive_height(&self) -> u64 {
        self.last_height
    }

    /// The archived blocks, oldest first (starting at genesis).
    pub fn archive(&self) -> &[Block] {
        &self.archive
    }

    /// Verifies the whole archive chain — the externally checkable
    /// integrity property of blockchain-based logging.
    pub fn verify_archive(&self) -> bool {
        verify_chain(&self.archive, None).is_ok()
    }

    /// Number of replicas that acknowledged the delete for `height`.
    pub fn acks_for(&self, height: u64, hash: Digest) -> usize {
        self.acks.get(&(height, hash)).map_or(0, BTreeSet::len)
    }

    /// Returns `true` while an export round is in flight.
    pub fn round_in_progress(&self) -> bool {
        self.round.is_some()
    }

    /// Takes the certified segments adopted since the last call — the
    /// ingestion hookup for the juridical archive. Each segment carries
    /// the blocks, the base they chain onto, and the checkpoint
    /// certificate, in adoption order (so feeding them to an archive in
    /// order preserves chain continuity).
    pub fn drain_certified_segments(&mut self) -> Vec<CertifiedSegment> {
        std::mem::take(&mut self.certified)
    }

    /// Step ①: starts an export round, asking every replica for its
    /// latest checkpoint and `blocks_from` for the full blocks.
    ///
    /// If a round is already in progress it is abandoned (the caller
    /// timed out on a non-responsive replica and retries with another —
    /// paper §V-B: a faulty node denying to respond only delays the
    /// export "until another node is queried").
    pub fn begin_export(&mut self, blocks_from: NodeId) -> Vec<DcEffect> {
        self.metrics.rounds.inc();
        self.round = Some(Round {
            replies: BTreeMap::new(),
            staged_blocks: Vec::new(),
            range_requested: false,
        });
        vec![Effect::Broadcast {
            message: ExportMessage::Read {
                train: self.config.train,
                last_height: self.last_height,
                blocks_from,
            },
        }]
    }

    /// Handles a message from a replica (steps ②, ④, ⑦).
    pub fn on_replica_message(&mut self, from: NodeId, message: ExportMessage) -> Vec<DcEffect> {
        match message {
            ExportMessage::Checkpoint(reply) => {
                self.metrics.checkpoint_replies.inc();
                if let Some(round) = &mut self.round {
                    round.replies.entry(from.0).or_insert(reply);
                }
                self.try_finalize()
            }
            ExportMessage::Blocks { blocks } => {
                if let Some(round) = &mut self.round {
                    // Blocks may arrive in two rounds (initial + range
                    // fetch); keep them sorted and deduplicated by height.
                    round.staged_blocks.extend(blocks);
                    round.staged_blocks.sort_by_key(Block::height);
                    round.staged_blocks.dedup_by_key(|b| b.height());
                }
                self.try_finalize()
            }
            ExportMessage::Ack(ack) => {
                self.on_ack(ack);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// Handles a synchronization message from a peer data center
    /// (step ③ / scenario (iv): a delayed data center catches up from its
    /// peers rather than from the train).
    pub fn on_dc_sync(&mut self, message: ExportMessage) -> Vec<DcEffect> {
        let ExportMessage::DcSync {
            train,
            proof,
            blocks,
        } = message
        else {
            return Vec::new();
        };
        // A sync for another train cannot extend this archive: the blocks
        // belong to a different chain (and a different replica keyset).
        if train != self.config.train {
            return Vec::new();
        }
        if !proof.verify(&self.replica_keystore, self.proof_quorum) {
            return Vec::new();
        }
        // Keep only blocks beyond our archive and check they extend it.
        let new_blocks: Vec<Block> = blocks
            .into_iter()
            .filter(|b| b.height() > self.last_height)
            .collect();
        if new_blocks.is_empty() {
            return Vec::new();
        }
        // The sync must be backed by the checkpoint: its digest is the
        // hash of the last block.
        let Ok(head_hash) = verify_chain(&new_blocks, Some(self.last_hash)) else {
            return Vec::new();
        };
        if head_hash != proof.checkpoint.state_digest {
            return Vec::new();
        }
        self.metrics.certified_segments.inc();
        self.metrics.blocks.add(new_blocks.len() as u64);
        self.certified.push(CertifiedSegment {
            train,
            base_height: self.last_height,
            base_hash: self.last_hash,
            blocks: new_blocks.clone(),
            proof,
        });
        self.adopt(new_blocks, head_hash);
        self.metrics.archive_height.set(self.last_height as i64);
        // Step ⑤: "the data centers each sign a delete message" — having
        // verified and stored the blocks, this data center adds its own
        // signature so the replicas' delete quorum can form.
        let cmd = DeleteCmd {
            height: self.last_height,
            hash: self.last_hash,
        };
        let delete = SignedDelete::sign(cmd, self.config.id, &self.key);
        vec![Effect::Broadcast {
            message: ExportMessage::Delete(delete),
        }]
    }

    fn on_ack(&mut self, ack: SignedAck) {
        if !ack.verify(&self.replica_keystore) {
            return;
        }
        self.acks
            .entry((ack.cmd.height, ack.cmd.hash))
            .or_default()
            .insert(ack.node.0);
    }

    /// Appends a verified segment to the archive; `head_hash` is the hash
    /// of its last block, as [`verify_chain`] returned it.
    fn adopt(&mut self, blocks: Vec<Block>, head_hash: Digest) {
        if let Some(last) = blocks.last() {
            self.last_height = last.height();
            self.last_hash = head_hash;
        }
        self.archive.extend(blocks);
    }

    /// Emits one `export` span per logged request of a certified
    /// segment, parented on the origin replica's `decide` span. Ground
    /// stages record under the node-0 convention (there is one logical
    /// ground per train, regardless of which DC machine runs the round).
    fn trace_export_spans(&self, blocks: &[Block]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let train = self.config.train.0;
        let now = self.telemetry.now_ms();
        for block in blocks {
            for request in &block.requests {
                let digest = Digest::of(&request.payload);
                let trace_id =
                    zugchain_wire::derive_trace_id(train, request.origin, digest.as_bytes());
                self.telemetry.record(|| zugchain_telemetry::Span {
                    trace_id,
                    span_id: zugchain_wire::derive_span_id(
                        trace_id,
                        zugchain_telemetry::Stage::Export.as_str(),
                        0,
                    ),
                    parent_span: zugchain_wire::derive_span_id(
                        trace_id,
                        zugchain_telemetry::Stage::Decide.as_str(),
                        request.origin,
                    ),
                    stage: zugchain_telemetry::Stage::Export,
                    node: 0,
                    train,
                    sn: request.sn,
                    start_ms: now,
                    end_ms: now,
                });
            }
        }
    }

    /// The most recent *verifiable* checkpoint among the replies ("determine
    /// the latest one with the highest checkpoint sequence number", step ②):
    /// the reply with the highest checkpoint sn whose block claim matches
    /// its certificate and whose certificate verifies, the highest replica
    /// id among equal sns.
    ///
    /// Replies are tried best-first, and the search stops at the first that
    /// passes both checks, so a round verifies one certificate unless a
    /// better-ranked one fails. Every reply the search skips ranks below
    /// the one it returns, so it returns the reply that verifying all of
    /// them and taking the maximum would.
    fn best_reply(&self, round: &Round) -> Option<CheckpointReply> {
        let mut ranked: Vec<(u64, u64, &CheckpointReply)> = round
            .replies
            .iter()
            .filter_map(|(id, reply)| Some((reply.proof.as_ref()?.checkpoint.sn, *id, reply)))
            .collect();
        ranked.sort_unstable_by_key(|&(sn, id, _)| std::cmp::Reverse((sn, id)));
        ranked
            .into_iter()
            .map(|(_, _, reply)| reply)
            .find(|reply| {
                let proof = reply.proof.as_ref().expect("ranked replies carry a proof");
                reply.block_hash == proof.checkpoint.state_digest
                    && proof.verify(&self.replica_keystore, self.proof_quorum)
            })
            .cloned()
    }

    /// Steps ③–⑤ once enough replies are in.
    fn try_finalize(&mut self) -> Vec<DcEffect> {
        let Some(round) = &self.round else {
            return Vec::new();
        };
        if round.replies.len() < self.config.replica_quorum {
            return Vec::new();
        }

        let Some(best) = self.best_reply(round) else {
            // No verifiable checkpoint yet (system just started): round
            // completes empty once quorum answered.
            self.round = None;
            return vec![Effect::Output(ExportOutcome {
                exported_blocks: 0,
                new_height: self.last_height,
                delete_issued: false,
            })];
        };

        if best.block_height <= self.last_height {
            // Nothing new since the last export.
            self.round = None;
            return vec![Effect::Output(ExportOutcome {
                exported_blocks: 0,
                new_height: self.last_height,
                delete_issued: false,
            })];
        }

        // Do we have the full blocks up to the checkpointed one?
        let staged = &round.staged_blocks;
        let have_up_to = staged
            .iter()
            .take_while({
                let mut expected = self.last_height + 1;
                move |b| {
                    let ok = b.height() == expected;
                    expected += 1;
                    ok
                }
            })
            .count();
        let covers = have_up_to > 0 && staged[have_up_to - 1].height() >= best.block_height;

        if !covers {
            // Step ④ second round: fetch what is missing from the replica
            // that sent the best checkpoint (it must have the blocks).
            if round.range_requested {
                return Vec::new(); // already asked; wait
            }
            let from_height = if have_up_to > 0 {
                staged[have_up_to - 1].height()
            } else {
                self.last_height
            };
            let to_height = best.block_height;
            let target = round
                .replies
                .iter()
                .find(|(_, reply)| reply.block_height >= best.block_height)
                .map(|(id, _)| NodeId(*id))
                .expect("the best reply exists");
            self.metrics.range_fetches.inc();
            if let Some(round) = &mut self.round {
                round.range_requested = true;
            }
            return vec![Effect::Send {
                to: DcAddr::Replica(target),
                message: ExportMessage::BlockRange {
                    from_height,
                    to_height,
                },
            }];
        }

        // The round ends here, adopted or failed: its staged blocks move
        // out of it instead of being copied.
        let mut segment = self.round.take().expect("checked above").staged_blocks;
        segment.retain(|b| b.height() > self.last_height && b.height() <= best.block_height);

        // Validate the chain segment against our archive head and the
        // checkpoint (step ④).
        let head_hash = match verify_chain(&segment, Some(self.last_hash)) {
            Ok(head_hash) if head_hash == best.block_hash => head_hash,
            _ => {
                // Corrupt blocks from a faulty replica: retry the round
                // with a different block source next time.
                self.metrics.failed_rounds.inc();
                return vec![Effect::Output(ExportOutcome {
                    exported_blocks: 0,
                    new_height: self.last_height,
                    delete_issued: false,
                })];
            }
        };

        let exported = segment.len();
        let proof = best.proof.expect("verified above");
        self.metrics.certified_segments.inc();
        self.metrics.blocks.add(exported as u64);
        self.trace_export_spans(&segment);
        self.certified.push(CertifiedSegment {
            train: self.config.train,
            base_height: self.last_height,
            base_hash: self.last_hash,
            blocks: segment.clone(),
            proof: proof.clone(),
        });
        self.adopt(segment, head_hash);
        self.metrics.archive_height.set(self.last_height as i64);
        self.telemetry
            .record(|| zugchain_telemetry::Event::ExportRound {
                blocks: exported as u64,
            });

        let mut actions = Vec::new();
        // Step ③: synchronize with the other companies' data centers.
        for peer in self.config.peers.clone() {
            actions.push(Effect::Send {
                to: DcAddr::DataCenter(peer),
                message: ExportMessage::DcSync {
                    train: self.config.train,
                    proof: proof.clone(),
                    blocks: self.archive[self.archive.len() - exported..].to_vec(),
                },
            });
        }
        // Step ⑤: sign and broadcast the delete.
        let cmd = DeleteCmd {
            height: self.last_height,
            hash: self.last_hash,
        };
        let delete = SignedDelete::sign(cmd, self.config.id, &self.key);
        actions.push(Effect::Broadcast {
            message: ExportMessage::Delete(delete),
        });
        actions.push(Effect::Output(ExportOutcome {
            exported_blocks: exported,
            new_height: self.last_height,
            delete_issued: true,
        }));
        actions
    }
}

/// A [`DataCenter`] is a sans-io [`Machine`]: the round-trip protocol of
/// Fig. 4 expressed as inputs in, effects out. The export protocol is
/// purely request-driven, so the timer vocabulary is the uninhabited
/// [`NoTimer`].
impl Machine for DataCenter {
    type Addr = DcAddr;
    type Message = ExportMessage;
    type Timer = NoTimer;
    type Output = ExportOutcome;
    type Input = DcInput;

    fn on_input(&mut self, input: DcInput) -> Vec<DcEffect> {
        match input {
            DcInput::BeginExport { blocks_from } => self.begin_export(blocks_from),
            DcInput::FromReplica { from, message } => self.on_replica_message(from, message),
            DcInput::FromDataCenter { message } => self.on_dc_sync(message),
        }
    }

    fn on_timer(&mut self, timer: NoTimer) -> Vec<DcEffect> {
        match timer {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zugchain_blockchain::{BlockBuilder, LoggedRequest};
    use zugchain_pbft::{Checkpoint, CheckpointProof};

    fn chain(n_blocks: u64) -> Vec<Block> {
        let mut builder = BlockBuilder::new(2);
        let mut blocks = Vec::new();
        for sn in 1..=n_blocks * 2 {
            if let Some(block) = builder.push(
                LoggedRequest {
                    sn,
                    origin: 0,
                    payload: vec![sn as u8; 8],
                },
                sn * 64,
            ) {
                blocks.push(block);
            }
        }
        blocks
    }

    /// Builds a real 2f+1-signed proof for a block.
    fn proof_for(block: &Block, pairs: &[zugchain_crypto::KeyPair]) -> CheckpointProof {
        let checkpoint = Checkpoint {
            sn: block.header.last_sn,
            state_digest: block.hash(),
        };
        let message = zugchain_wire::to_bytes(&zugchain_pbft::Message::Checkpoint(checkpoint));
        CheckpointProof {
            checkpoint,
            signatures: (0..3)
                .map(|id| (NodeId(id as u64), pairs[id].sign(&message)))
                .collect(),
        }
    }

    fn setup() -> (DataCenter, Vec<Block>, Vec<zugchain_crypto::KeyPair>) {
        let (replica_pairs, replica_keystore) = Keystore::generate(4, 30);
        let (dc_pairs, _) = Keystore::generate(2, 40);
        let dc = DataCenter::new(
            DcConfig {
                id: DcId(0),
                train: TrainId::DEFAULT,
                n_replicas: 4,
                replica_quorum: 3,
                peers: vec![DcId(1)],
            },
            dc_pairs[0].clone(),
            replica_keystore,
            3,
        );
        (dc, chain(4), replica_pairs)
    }

    fn checkpoint_reply(block: &Block, pairs: &[zugchain_crypto::KeyPair]) -> ExportMessage {
        ExportMessage::Checkpoint(CheckpointReply {
            proof: Some(proof_for(block, pairs)),
            block_height: block.height(),
            block_hash: block.hash(),
        })
    }

    #[test]
    fn full_round_exports_syncs_and_deletes() {
        let (mut dc, blocks, pairs) = setup();
        let actions = dc.begin_export(NodeId(0));
        assert!(matches!(
            actions[0],
            Effect::Broadcast {
                message: ExportMessage::Read { last_height: 0, .. }
            }
        ));

        // Replica 0 sends blocks 1..=4 plus its checkpoint; 1 and 2 send
        // checkpoints only.
        dc.on_replica_message(
            NodeId(0),
            ExportMessage::Blocks {
                blocks: blocks.clone(),
            },
        );
        dc.on_replica_message(NodeId(0), checkpoint_reply(&blocks[3], &pairs));
        dc.on_replica_message(NodeId(1), checkpoint_reply(&blocks[3], &pairs));
        let actions = dc.on_replica_message(NodeId(2), checkpoint_reply(&blocks[2], &pairs));

        assert_eq!(dc.archive_height(), 4);
        assert!(dc.verify_archive());
        // Sync to the peer + delete broadcast + completion.
        assert!(actions.iter().any(|a| matches!(
            a,
            Effect::Send {
                to: DcAddr::DataCenter(DcId(1)),
                message: ExportMessage::DcSync { .. }
            }
        )));
        let delete = actions.iter().find_map(|a| match a {
            Effect::Broadcast {
                message: ExportMessage::Delete(d),
            } => Some(d.clone()),
            _ => None,
        });
        let delete = delete.expect("delete issued");
        assert_eq!(delete.cmd.height, 4);
        assert_eq!(delete.cmd.hash, blocks[3].hash());
        assert!(actions.iter().any(|a| matches!(
            a,
            Effect::Output(ExportOutcome {
                exported_blocks: 4,
                new_height: 4,
                delete_issued: true
            })
        )));
    }

    #[test]
    fn finalized_export_queues_a_certified_segment_for_the_archive() {
        let (mut dc, blocks, pairs) = setup();
        assert!(dc.drain_certified_segments().is_empty());
        dc.begin_export(NodeId(0));
        dc.on_replica_message(
            NodeId(0),
            ExportMessage::Blocks {
                blocks: blocks.clone(),
            },
        );
        dc.on_replica_message(NodeId(0), checkpoint_reply(&blocks[3], &pairs));
        dc.on_replica_message(NodeId(1), checkpoint_reply(&blocks[3], &pairs));
        dc.on_replica_message(NodeId(2), checkpoint_reply(&blocks[3], &pairs));

        let segments = dc.drain_certified_segments();
        assert_eq!(segments.len(), 1);
        let segment = &segments[0];
        let genesis = Block::genesis();
        assert_eq!(segment.base_height, genesis.height());
        assert_eq!(segment.base_hash, genesis.hash());
        assert_eq!(segment.blocks, blocks);
        assert_eq!(
            segment.proof.checkpoint.state_digest,
            blocks[3].hash(),
            "certificate covers the segment head"
        );
        assert!(dc.drain_certified_segments().is_empty(), "drain empties");
    }

    #[test]
    fn outdated_checkpoints_lose_to_the_most_recent() {
        let (mut dc, blocks, pairs) = setup();
        dc.begin_export(NodeId(0));
        dc.on_replica_message(
            NodeId(0),
            ExportMessage::Blocks {
                blocks: blocks.clone(),
            },
        );
        // Two stale replies, one fresh.
        dc.on_replica_message(NodeId(1), checkpoint_reply(&blocks[0], &pairs));
        dc.on_replica_message(NodeId(2), checkpoint_reply(&blocks[1], &pairs));
        let actions = dc.on_replica_message(NodeId(0), checkpoint_reply(&blocks[3], &pairs));
        assert_eq!(dc.archive_height(), 4, "the freshest checkpoint wins");
        assert!(!actions.is_empty());
    }

    #[test]
    fn unverifiable_proof_is_ignored() {
        let (mut dc, blocks, pairs) = setup();
        dc.begin_export(NodeId(0));
        dc.on_replica_message(
            NodeId(0),
            ExportMessage::Blocks {
                blocks: blocks.clone(),
            },
        );
        // A forged proof with too few signatures claims block 4...
        let mut forged = proof_for(&blocks[3], &pairs);
        forged.signatures.truncate(1);
        dc.on_replica_message(
            NodeId(3),
            ExportMessage::Checkpoint(CheckpointReply {
                proof: Some(forged),
                block_height: 4,
                block_hash: blocks[3].hash(),
            }),
        );
        // ...while honest replies only certify block 2.
        dc.on_replica_message(NodeId(1), checkpoint_reply(&blocks[1], &pairs));
        dc.on_replica_message(NodeId(2), checkpoint_reply(&blocks[1], &pairs));
        assert_eq!(dc.archive_height(), 2, "forged checkpoint did not count");
    }

    #[test]
    fn a_forged_best_certificate_yields_to_the_next_verifiable_reply() {
        let (mut dc, blocks, pairs) = setup();
        dc.begin_export(NodeId(0));
        dc.on_replica_message(
            NodeId(0),
            ExportMessage::Blocks {
                blocks: blocks.clone(),
            },
        );
        // Replica 3 claims block 4 with a certificate whose signatures
        // are over another checkpoint: the highest sn, but forged.
        let mut forged = proof_for(&blocks[3], &pairs);
        forged.signatures = proof_for(&blocks[0], &pairs).signatures;
        dc.on_replica_message(
            NodeId(3),
            ExportMessage::Checkpoint(CheckpointReply {
                proof: Some(forged),
                block_height: 4,
                block_hash: blocks[3].hash(),
            }),
        );
        // Replicas 1 and 2 certify block 3 with the signatures in
        // different orders, so their certificates' bytes differ; among
        // equal sns the higher replica id's certificate is taken.
        let mut by_replica_1 = proof_for(&blocks[2], &pairs);
        by_replica_1.signatures.reverse();
        let by_replica_2 = proof_for(&blocks[2], &pairs);
        for (id, proof) in [(1, by_replica_1), (2, by_replica_2.clone())] {
            dc.on_replica_message(
                NodeId(id),
                ExportMessage::Checkpoint(CheckpointReply {
                    proof: Some(proof),
                    block_height: 3,
                    block_hash: blocks[2].hash(),
                }),
            );
        }
        assert_eq!(dc.archive_height(), 3, "finalized on block 3");
        let segments = dc.drain_certified_segments();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].blocks, blocks[..3].to_vec());
        assert_eq!(segments[0].proof, by_replica_2, "replica 2's certificate");
    }

    #[test]
    fn missing_blocks_trigger_a_range_request() {
        let (mut dc, blocks, pairs) = setup();
        dc.begin_export(NodeId(0));
        // The chosen replica only had blocks 1..=2 (its checkpoint was
        // older), but the quorum certifies block 4.
        dc.on_replica_message(
            NodeId(0),
            ExportMessage::Blocks {
                blocks: blocks[..2].to_vec(),
            },
        );
        dc.on_replica_message(NodeId(0), checkpoint_reply(&blocks[1], &pairs));
        dc.on_replica_message(NodeId(1), checkpoint_reply(&blocks[3], &pairs));
        let actions = dc.on_replica_message(NodeId(2), checkpoint_reply(&blocks[3], &pairs));
        let range = actions.iter().find_map(|a| match a {
            Effect::Send {
                to: DcAddr::Replica(to),
                message:
                    ExportMessage::BlockRange {
                        from_height,
                        to_height,
                    },
            } => Some((*to, *from_height, *to_height)),
            _ => None,
        });
        let (to, from_height, to_height) = range.expect("range request issued");
        assert_eq!(to, NodeId(1), "fetched from a replica with the blocks");
        assert_eq!((from_height, to_height), (2, 4));

        // The second round completes the export.
        let actions = dc.on_replica_message(
            NodeId(1),
            ExportMessage::Blocks {
                blocks: blocks[2..].to_vec(),
            },
        );
        assert_eq!(dc.archive_height(), 4);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Effect::Output(o) if o.exported_blocks == 4)));
    }

    #[test]
    fn corrupt_blocks_from_faulty_replica_are_rejected() {
        let (mut dc, blocks, pairs) = setup();
        dc.begin_export(NodeId(3));
        let mut corrupted = blocks.clone();
        corrupted[1].requests[0].payload = vec![0xFF];
        dc.on_replica_message(NodeId(3), ExportMessage::Blocks { blocks: corrupted });
        dc.on_replica_message(NodeId(0), checkpoint_reply(&blocks[3], &pairs));
        dc.on_replica_message(NodeId(1), checkpoint_reply(&blocks[3], &pairs));
        let actions = dc.on_replica_message(NodeId(2), checkpoint_reply(&blocks[3], &pairs));
        assert_eq!(dc.archive_height(), 0, "corrupt segment rejected");
        assert!(actions
            .iter()
            .any(|a| matches!(a, Effect::Output(o) if o.exported_blocks == 0)));
    }

    #[test]
    fn dc_sync_lets_a_late_data_center_catch_up() {
        let (_, blocks, pairs) = setup();
        let (dc_pairs, _) = Keystore::generate(2, 40);
        let (_, replica_keystore) = Keystore::generate(4, 30);
        let mut late = DataCenter::new(
            DcConfig {
                id: DcId(1),
                train: TrainId::DEFAULT,
                n_replicas: 4,
                replica_quorum: 3,
                peers: vec![DcId(0)],
            },
            dc_pairs[1].clone(),
            replica_keystore,
            3,
        );
        late.on_dc_sync(ExportMessage::DcSync {
            train: TrainId::DEFAULT,
            proof: proof_for(&blocks[3], &pairs),
            blocks: blocks.clone(),
        });
        assert_eq!(late.archive_height(), 4);
        assert!(late.verify_archive());
    }

    #[test]
    fn dc_sync_for_another_train_is_rejected() {
        let (mut dc, blocks, pairs) = setup();
        dc.on_dc_sync(ExportMessage::DcSync {
            train: TrainId(99),
            proof: proof_for(&blocks[3], &pairs),
            blocks: blocks.clone(),
        });
        assert_eq!(dc.archive_height(), 0, "foreign train's sync not adopted");
        assert!(dc.drain_certified_segments().is_empty());
    }

    #[test]
    fn dc_sync_rejects_tampered_blocks() {
        let (mut dc, blocks, pairs) = setup();
        let mut tampered = blocks.clone();
        tampered[0].requests[0].payload = vec![9];
        dc.on_dc_sync(ExportMessage::DcSync {
            train: TrainId::DEFAULT,
            proof: proof_for(&blocks[3], &pairs),
            blocks: tampered,
        });
        assert_eq!(dc.archive_height(), 0);
    }

    #[test]
    fn acks_are_counted_per_replica() {
        let (mut dc, blocks, _) = setup();
        let (replica_pairs, _) = Keystore::generate(4, 30);
        let cmd = DeleteCmd {
            height: 4,
            hash: blocks[3].hash(),
        };
        for id in 0..3u64 {
            dc.on_replica_message(
                NodeId(id),
                ExportMessage::Ack(SignedAck::sign(
                    cmd,
                    NodeId(id),
                    &replica_pairs[id as usize],
                )),
            );
        }
        // A duplicate does not double count.
        dc.on_replica_message(
            NodeId(0),
            ExportMessage::Ack(SignedAck::sign(cmd, NodeId(0), &replica_pairs[0])),
        );
        assert_eq!(dc.acks_for(4, blocks[3].hash()), 3);
    }

    #[test]
    fn unresponsive_replica_is_sidestepped_by_restarting_the_round() {
        // Paper §V-B: "a faulty node denying to respond can delay the
        // export until another node is queried."
        let (mut dc, blocks, pairs) = setup();
        // Round 1: the chosen replica (3) never sends blocks, and only
        // two checkpoint replies arrive — below the 2f+1 quorum. The
        // round stalls.
        dc.begin_export(NodeId(3));
        dc.on_replica_message(NodeId(0), checkpoint_reply(&blocks[3], &pairs));
        let actions = dc.on_replica_message(NodeId(1), checkpoint_reply(&blocks[3], &pairs));
        assert!(actions.is_empty(), "quorum not reached, round pending");
        assert!(dc.round_in_progress());

        // The operator times out and retries with a different source.
        let actions = dc.begin_export(NodeId(0));
        assert_eq!(actions.len(), 1, "fresh read broadcast");
        dc.on_replica_message(
            NodeId(0),
            ExportMessage::Blocks {
                blocks: blocks.clone(),
            },
        );
        dc.on_replica_message(NodeId(0), checkpoint_reply(&blocks[3], &pairs));
        dc.on_replica_message(NodeId(1), checkpoint_reply(&blocks[3], &pairs));
        let actions = dc.on_replica_message(NodeId(2), checkpoint_reply(&blocks[3], &pairs));
        assert_eq!(dc.archive_height(), 4);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Effect::Output(o) if o.exported_blocks == 4)));
    }

    #[test]
    fn replica_reply_after_round_completion_is_ignored() {
        let (mut dc, blocks, pairs) = setup();
        dc.begin_export(NodeId(0));
        dc.on_replica_message(
            NodeId(0),
            ExportMessage::Blocks {
                blocks: blocks.clone(),
            },
        );
        dc.on_replica_message(NodeId(0), checkpoint_reply(&blocks[3], &pairs));
        dc.on_replica_message(NodeId(1), checkpoint_reply(&blocks[3], &pairs));
        dc.on_replica_message(NodeId(2), checkpoint_reply(&blocks[3], &pairs));
        assert!(!dc.round_in_progress());
        // A straggler reply must not corrupt the archive.
        let actions = dc.on_replica_message(NodeId(3), checkpoint_reply(&blocks[1], &pairs));
        assert!(actions.is_empty());
        assert_eq!(dc.archive_height(), 4);
        assert!(dc.verify_archive());
    }

    #[test]
    fn empty_system_completes_with_no_export() {
        let (mut dc, _, _) = setup();
        dc.begin_export(NodeId(0));
        let empty = ExportMessage::Checkpoint(CheckpointReply {
            proof: None,
            block_height: 0,
            block_hash: Digest::ZERO,
        });
        dc.on_replica_message(NodeId(0), empty.clone());
        dc.on_replica_message(NodeId(1), empty.clone());
        let actions = dc.on_replica_message(NodeId(2), empty);
        assert!(actions.iter().any(|a| matches!(
            a,
            Effect::Output(ExportOutcome {
                exported_blocks: 0,
                delete_issued: false,
                ..
            })
        )));
    }
}
