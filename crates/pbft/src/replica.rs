use std::collections::{BTreeMap, VecDeque};

use zugchain_crypto::{verify_batch, BatchItem, Digest, KeyPair, Keystore, Signature};
use zugchain_machine::{Effect, Machine};
use zugchain_telemetry::{Counter, Gauge, Histogram, Span, Stage, Telemetry};
use zugchain_wire::{derive_trace_id, SpanIds};

use crate::messages::Commit;
use crate::{
    Checkpoint, CheckpointProof, Config, DigestedRequest, Message, NewView, NodeId, PrePrepare,
    Prepare, PreparedCert, ProposedBatch, ProposedRequest, SignedMessage, ViewChange,
};

/// The replica's timer vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReplicaTimer {
    /// Waiting for the `NewView` of this target view; on expiry the
    /// replica escalates to the next view.
    ViewChange(u64),
    /// A partially filled batch is waiting on the primary; on expiry the
    /// primary flushes it so light load never waits for a full batch.
    BatchFlush,
}

/// An application up-call of the replica state machine (Table I ①).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum ReplicaEvent {
    /// A request is totally ordered: the `DECIDE(r, sn)` up-call of
    /// Table I. Emitted in strict sequence order.
    Decide {
        /// The assigned sequence number.
        sn: u64,
        /// The ordered request (may be a no-op gap filler).
        request: ProposedRequest,
        /// Content digest of the request's payload, hashed once when the
        /// batch was built or decoded ([`ProposedBatch::payload_digests`]).
        payload_digest: Digest,
    },
    /// A view change completed: the `NEWPRIMARY` up-call of Table I.
    NewPrimary {
        /// The new view number.
        view: u64,
        /// The primary of that view.
        primary: NodeId,
    },
    /// A valid preprepare was accepted — the ZugChain layer uses this as
    /// an early indicator that the request will be ordered and cancels
    /// its soft timeout (§III-C optimization).
    PrePrepareSeen {
        /// Sequence number assigned by the primary.
        sn: u64,
        /// Content digest of the proposed request's payload.
        payload_digest: Digest,
    },
    /// A checkpoint became stable (2f+1 matching signatures). The export
    /// protocol persists and serves these proofs.
    StableCheckpoint {
        /// The verifiable checkpoint proof.
        proof: CheckpointProof,
    },
    /// The replica discovered a stable checkpoint beyond what it decided:
    /// it missed requests and the application must fetch state (blocks)
    /// from peers — §III-D scenario (ii).
    NeedStateTransfer {
        /// First missing sequence number.
        from_sn: u64,
        /// The stable checkpoint sequence number to catch up to.
        to_sn: u64,
    },
}

/// An effect of the replica state machine, to be executed by the runtime.
///
/// The shared [`Effect`] vocabulary of `zugchain-machine`: network sends,
/// broadcasts, timers (the replica arms its own view-change timer), and
/// [`ReplicaEvent`] up-calls.
pub type ReplicaEffect = Effect<NodeId, SignedMessage, ReplicaTimer, ReplicaEvent>;

/// An input to the replica when driven through the [`Machine`] trait.
///
/// Mirrors the interface ① down-calls of Table I plus network delivery;
/// the granular inherent methods ([`Replica::propose`],
/// [`Replica::on_message`], …) remain available for embedding the
/// replica inside a larger machine, as the ZugChain node does.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum ReplicaInput {
    /// A signed protocol message from the network.
    Message(SignedMessage),
    /// `PROPOSE(r)`: propose a request (primary).
    Propose(ProposedRequest),
    /// `SUSPECT(id)`: suspect a node.
    Suspect(NodeId),
    /// The application snapshot at `sn` (checkpoint declaration).
    RecordCheckpoint {
        /// Covered sequence number.
        sn: u64,
        /// Application state digest (ZugChain: the block hash).
        state_digest: Digest,
    },
}

/// Counters exposed for evaluation and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Valid protocol messages processed.
    pub messages_processed: u64,
    /// Messages dropped due to bad signatures.
    pub invalid_signatures: u64,
    /// Messages dropped as stale/out-of-window/wrong-view.
    pub ignored: u64,
    /// Requests decided.
    pub decided: u64,
    /// Batches decided — `decided / batches_decided` is the mean batch
    /// occupancy actually agreed, the quantity the batching trade-off is
    /// tuned by.
    pub batches_decided: u64,
    /// View changes completed.
    pub view_changes: u64,
    /// Message signatures verified valid on arrival.
    pub signatures_verified: u64,
}

/// One prepare or checkpoint vote. The signature was verified on
/// arrival; it becomes evidence in prepared certificates and checkpoint
/// proofs.
#[derive(Debug, Clone, Copy)]
struct Vote {
    digest: Digest,
    signature: Signature,
}

/// Ordering state for one batch, keyed by its base sequence number; the
/// batch occupies `sn ..= preprepare.end_sn()`.
#[derive(Debug, Default)]
struct Slot {
    /// Accepted preprepare for the current view.
    preprepare: Option<PrePrepare>,
    /// Batch digest of the accepted preprepare, hashed once on accept
    /// and reused by every quorum check instead of re-hashing the batch
    /// per prepare/commit arrival.
    batch_digest: Option<Digest>,
    /// Payload content digests of the accepted preprepare's requests, in
    /// batch order — cached for the in-flight lookups the ZugChain layer
    /// performs per open request.
    payload_digests: Vec<Digest>,
    /// Prepare votes: sender → vote over the batch digest.
    prepares: BTreeMap<NodeId, Vote>,
    /// Commit votes: sender → batch digest. Commits never become
    /// evidence, so only the digest is kept.
    commits: BTreeMap<NodeId, Digest>,
    prepared: bool,
    committed: bool,
    decided: bool,
    /// Trace-clock readings of the three protocol transitions, used as
    /// span boundaries (0 when telemetry is disabled): preprepare
    /// accepted, prepare quorum reached, commit quorum reached.
    t_accept: u64,
    t_prepared: u64,
    t_committed: u64,
    /// Trace state of the accepted batch's application requests, built
    /// once on accept (empty when telemetry is disabled).
    traced: Vec<TracedRequest>,
}

/// One application request of an accepted batch as its trace sees it:
/// its span ids, derived from the trace id once when the preprepare is
/// accepted, and the id of this node's latest span for it, which
/// parents its next one.
#[derive(Debug, Clone, Copy)]
struct TracedRequest {
    sn: u64,
    ids: SpanIds,
    span_id: u64,
}

/// A request waiting in the primary's backlog, with the trace-clock
/// reading at which it entered (the start of its `batch_flush` span).
#[derive(Debug)]
struct BacklogEntry {
    request: DigestedRequest,
    entered_ms: u64,
}

impl Slot {
    fn matching_prepares(&self, digest: &Digest) -> usize {
        self.prepares
            .values()
            .filter(|vote| vote.digest == *digest)
            .count()
    }

    fn matching_commits(&self, digest: &Digest) -> usize {
        self.commits
            .values()
            .filter(|voted| *voted == digest)
            .count()
    }
}

/// Checkpoint votes being collected for one sequence number.
#[derive(Debug, Default)]
struct CheckpointVotes {
    /// sender → vote over the state digest.
    votes: BTreeMap<NodeId, Vote>,
}

/// State of an in-progress view change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ViewChangeState {
    /// The view this replica is trying to move to.
    target: u64,
}

/// A PBFT replica: the deterministic state machine at the heart of
/// ZugChain's ordering (see the crate docs for the interface mapping to
/// Cached registry handles for the replica's instrument points. All
/// handles are disabled (single-branch no-ops) until
/// [`Replica::set_telemetry`] resolves them against a live registry —
/// resolution happens once, so the hot path never takes the registry
/// lock.
#[derive(Debug, Clone, Default)]
struct ReplicaMetrics {
    preprepares: Counter,
    prepares: Counter,
    commits: Counter,
    checkpoint_msgs: Counter,
    view_change_msgs: Counter,
    new_view_msgs: Counter,
    invalid_signatures: Counter,
    ignored: Counter,
    decided: Counter,
    batches_decided: Counter,
    view_changes: Counter,
    buffer_evictions: Counter,
    view: Gauge,
    decided_up_to: Gauge,
    future_buffer_len: Gauge,
    backlog_len: Gauge,
    batch_occupancy: Histogram,
}

impl ReplicaMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        let msg =
            |kind: &str| telemetry.counter_with("zugchain_pbft_messages_total", &[("type", kind)]);
        Self {
            preprepares: msg("preprepare"),
            prepares: msg("prepare"),
            commits: msg("commit"),
            checkpoint_msgs: msg("checkpoint"),
            view_change_msgs: msg("viewchange"),
            new_view_msgs: msg("newview"),
            invalid_signatures: telemetry.counter("zugchain_pbft_invalid_signatures_total"),
            ignored: telemetry.counter("zugchain_pbft_ignored_total"),
            decided: telemetry.counter("zugchain_pbft_decided_total"),
            batches_decided: telemetry.counter("zugchain_pbft_batches_decided_total"),
            view_changes: telemetry.counter("zugchain_pbft_view_changes_total"),
            buffer_evictions: telemetry.counter("zugchain_pbft_future_buffer_evictions_total"),
            view: telemetry.gauge("zugchain_pbft_view"),
            decided_up_to: telemetry.gauge("zugchain_pbft_decided_up_to"),
            future_buffer_len: telemetry.gauge("zugchain_pbft_future_buffer_len"),
            backlog_len: telemetry.gauge("zugchain_pbft_backlog_len"),
            batch_occupancy: telemetry.histogram("zugchain_pbft_batch_occupancy"),
        }
    }

    fn for_message(&self, message: &Message) -> &Counter {
        match message {
            Message::PrePrepare(_) => &self.preprepares,
            Message::Prepare(_) => &self.prepares,
            Message::Commit(_) => &self.commits,
            Message::Checkpoint(_) => &self.checkpoint_msgs,
            Message::ViewChange(_) => &self.view_change_msgs,
            Message::NewView(_) => &self.new_view_msgs,
        }
    }
}

/// the paper's Table I).
#[derive(Debug)]
pub struct Replica {
    id: NodeId,
    config: Config,
    key: KeyPair,
    keystore: Keystore,

    view: u64,
    phase: Option<ViewChangeState>,
    /// Primary only: next sequence number to assign.
    next_sn: u64,
    /// Primary only: proposals waiting for watermark headroom.
    backlog: VecDeque<BacklogEntry>,
    /// Last stable checkpoint sequence number (low watermark).
    low_watermark: u64,
    /// All decides up to this sequence number have been emitted.
    decided_up_to: u64,
    slots: BTreeMap<u64, Slot>,
    checkpoints: BTreeMap<u64, CheckpointVotes>,
    last_stable_proof: Option<CheckpointProof>,
    /// View-change votes per target view.
    view_change_votes: BTreeMap<u64, BTreeMap<NodeId, SignedMessage>>,
    /// Ordering messages that arrived during a view change or for a view
    /// ahead of ours (e.g. prepares racing the `NewView` on another
    /// link). Replayed after entering a view — dropping them instead
    /// wedges this replica behind the in-order execution point and
    /// causes spurious suspicions.
    buffered: VecDeque<SignedMessage>,
    /// The view-change timer the replica currently has armed (the target
    /// view it is waiting on), if any. The replica owns this bookkeeping
    /// so every runtime gets identical escalation behaviour for free.
    armed_vc_timer: Option<u64>,
    /// Primary only: whether a [`ReplicaTimer::BatchFlush`] is armed for
    /// a partially filled batch sitting in the backlog.
    armed_batch_timer: bool,
    effects: Vec<ReplicaEffect>,
    stats: ReplicaStats,
    /// Registry handles for the instrument points, resolved once by
    /// [`Replica::set_telemetry`]; disabled (free) by default.
    metrics: ReplicaMetrics,
    /// Span-emission handle (disabled by default: every causal-tracing
    /// site is a single branch when observability is off).
    telemetry: Telemetry,
    /// Mutation hook (chaos harness only): when set, this replica
    /// equivocates as primary — see [`Replica::enable_equivocation_bug`].
    #[cfg(feature = "mutation-hooks")]
    equivocate: bool,
}

impl Replica {
    /// Creates a replica in view 0.
    ///
    /// # Panics
    ///
    /// Panics if `keystore` does not contain a key for every replica id in
    /// `0..config.n`.
    pub fn new(id: NodeId, config: Config, key: KeyPair, keystore: Keystore) -> Self {
        for replica in 0..config.n as u64 {
            assert!(
                keystore.get(replica).is_some(),
                "keystore is missing replica {replica}"
            );
        }
        Self {
            id,
            config,
            key,
            keystore,
            view: 0,
            phase: None,
            next_sn: 1,
            backlog: VecDeque::new(),
            low_watermark: 0,
            decided_up_to: 0,
            slots: BTreeMap::new(),
            checkpoints: BTreeMap::new(),
            last_stable_proof: None,
            view_change_votes: BTreeMap::new(),
            buffered: VecDeque::new(),
            armed_vc_timer: None,
            armed_batch_timer: false,
            effects: Vec::new(),
            stats: ReplicaStats::default(),
            metrics: ReplicaMetrics::default(),
            telemetry: Telemetry::disabled(),
            #[cfg(feature = "mutation-hooks")]
            equivocate: false,
        }
    }

    /// Attaches a telemetry handle: resolves the replica's registry
    /// metrics once (cached handles; a disabled handle keeps every
    /// instrument point free) and publishes the current view and decide
    /// horizon.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = ReplicaMetrics::resolve(telemetry);
        self.metrics.view.set(self.view as i64);
        self.metrics.decided_up_to.set(self.decided_up_to as i64);
        self.telemetry = telemetry.clone();
    }

    /// Creates a replica resuming from a stable checkpoint — the restart
    /// path after a power loss, once the application has reloaded its
    /// state (blocks) from disk. Ordering continues after the
    /// checkpoint's sequence number; the view restarts at 0 (all replicas
    /// of a train power-cycle together, so they re-align from scratch).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new), if the keystore is incomplete.
    pub fn resume(
        id: NodeId,
        config: Config,
        key: KeyPair,
        keystore: Keystore,
        last_stable: CheckpointProof,
    ) -> Self {
        let mut replica = Self::new(id, config, key, keystore);
        let sn = last_stable.checkpoint.sn;
        replica.low_watermark = sn;
        replica.decided_up_to = sn;
        replica.next_sn = sn + 1;
        replica.last_stable_proof = Some(last_stable);
        replica
    }

    /// This replica's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The primary of the current view.
    pub fn primary(&self) -> NodeId {
        self.config.primary_of(self.view)
    }

    /// Returns `true` if this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.primary() == self.id
    }

    /// Returns `true` while a view change is in progress.
    pub fn in_view_change(&self) -> bool {
        self.phase.is_some()
    }

    /// The last stable checkpoint sequence number.
    pub fn low_watermark(&self) -> u64 {
        self.low_watermark
    }

    /// Proof of the last stable checkpoint, once one exists.
    pub fn last_stable_proof(&self) -> Option<&CheckpointProof> {
        self.last_stable_proof.as_ref()
    }

    /// The group configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The keystore of the permissioned group.
    pub fn keystore(&self) -> &Keystore {
        &self.keystore
    }

    /// Snapshot of undecided slots for diagnostics:
    /// `(sn, has_preprepare, prepares, commits, prepared, committed)`.
    pub fn slot_snapshot(&self) -> Vec<(u64, bool, usize, usize, bool, bool)> {
        self.slots
            .iter()
            .filter(|(_, slot)| !slot.decided)
            .map(|(sn, slot)| {
                (
                    *sn,
                    slot.preprepare.is_some(),
                    slot.prepares.len(),
                    slot.commits.len(),
                    slot.prepared,
                    slot.committed,
                )
            })
            .collect()
    }

    /// `(view, low watermark, decided_up_to, next_sn, buffered)` snapshot.
    pub fn progress_snapshot(&self) -> (u64, u64, u64, u64, usize) {
        (
            self.view,
            self.low_watermark,
            self.decided_up_to,
            self.next_sn,
            self.buffered.len(),
        )
    }

    /// Returns `true` if a request with this payload digest has a running
    /// consensus instance (a preprepare accepted but not yet decided).
    ///
    /// The ZugChain layer uses this after a view change: open requests
    /// are re-proposed only when they have *no* running instance
    /// (paper §III-C) — re-proposing one that the `NewView` already
    /// re-preprepared would order it twice and falsely incriminate the
    /// new primary.
    pub fn has_in_flight_payload(&self, digest: &Digest) -> bool {
        self.slots
            .values()
            .any(|slot| !slot.decided && slot.payload_digests.contains(digest))
    }

    /// Statistics counters.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// Rough resident memory of consensus state in bytes (payloads held in
    /// slots and backlog) — used by the evaluation's memory accounting.
    pub fn approx_memory_bytes(&self) -> usize {
        let slot_bytes: usize = self
            .slots
            .values()
            .map(|slot| {
                slot.preprepare
                    .as_ref()
                    .map_or(0, |pp| pp.batch.payload_bytes() + 128)
                    + (slot.prepares.len() + slot.commits.len()) * 104
            })
            .sum();
        let backlog_bytes: usize = self
            .backlog
            .iter()
            .map(|entry| entry.request.request().payload.len() + 64)
            .sum();
        slot_bytes + backlog_bytes
    }

    /// Drains the effects produced since the last call.
    ///
    /// The runtime must execute them in order.
    pub fn drain_effects(&mut self) -> Vec<ReplicaEffect> {
        std::mem::take(&mut self.effects)
    }

    fn broadcast(&mut self, message: Message) -> SignedMessage {
        let signed = SignedMessage::sign(self.id, message, &self.key);
        self.effects.push(Effect::Broadcast {
            message: signed.clone(),
        });
        signed
    }

    // ------------------------------------------------------------------
    // Interface ① down-calls (Table I)
    // ------------------------------------------------------------------

    /// `PROPOSE(r)`: proposes a request to the consensus group.
    ///
    /// Only meaningful on the primary; backups' proposals are silently
    /// buffered until they become primary (the ZugChain layer routes
    /// proposals to the primary, so this is a defensive backstop).
    ///
    /// The primary accumulates open requests and assigns one batch of up
    /// to [`Config::max_batch_size`] per base sequence number. Full
    /// batches flush immediately; a partial batch flushes after
    /// [`Config::batch_delay_ms`], so latency under light load is
    /// unchanged (with a batch size of 1 every proposal is a full batch
    /// and the timer is never armed).
    ///
    /// A [`DigestedRequest`] brings its payload digest along; a plain
    /// [`ProposedRequest`] is hashed here.
    pub fn propose(&mut self, request: impl Into<DigestedRequest>) {
        let entered_ms = self.telemetry.now_ms();
        self.backlog.push_back(BacklogEntry {
            request: request.into(),
            entered_ms,
        });
        if self.is_primary() && !self.in_view_change() {
            self.flush_backlog(false);
        }
        self.metrics.backlog_len.set(self.backlog.len() as i64);
    }

    /// Proposes backlog requests as batches. Only full batches flush
    /// unless `force_partial` (the batch-delay timer fired); a leftover
    /// partial batch arms the flush timer.
    fn flush_backlog(&mut self, force_partial: bool) {
        let window_end = self.low_watermark + self.config.watermark_window;
        while !self.backlog.is_empty() {
            let base = self.next_sn;
            if base > window_end {
                // No headroom: wait for a checkpoint to advance the
                // window (stabilize re-flushes; no point spinning the
                // flush timer until then).
                self.metrics.backlog_len.set(self.backlog.len() as i64);
                return;
            }
            let headroom = (window_end - base + 1) as usize;
            let max = self.config.max_batch_size.max(1).min(headroom);
            if self.backlog.len() < max && !force_partial {
                break;
            }
            let take = max.min(self.backlog.len());
            let entered_ms: Vec<u64> = if self.telemetry.is_enabled() {
                self.backlog
                    .iter()
                    .take(take)
                    .map(|entry| entry.entered_ms)
                    .collect()
            } else {
                Vec::new()
            };
            let batch = ProposedBatch::from_digested(
                self.backlog
                    .drain(..take)
                    .map(|entry| entry.request)
                    .collect(),
            );
            self.next_sn = base + batch.len() as u64;
            let preprepare = PrePrepare {
                view: self.view,
                sn: base,
                batch,
            };
            // Record locally, then broadcast to the backups.
            self.accept_preprepare(preprepare.clone(), &entered_ms);
            #[cfg(feature = "mutation-hooks")]
            self.maybe_equivocate(&preprepare);
            self.broadcast(Message::PrePrepare(preprepare));
        }
        if !self.backlog.is_empty() && !self.armed_batch_timer {
            self.armed_batch_timer = true;
            self.effects.push(Effect::SetTimer {
                id: ReplicaTimer::BatchFlush,
                duration_ms: self.config.batch_delay_ms,
            });
        }
        self.metrics.backlog_len.set(self.backlog.len() as i64);
    }

    /// Emits one `batch_flush` span per application request of the batch
    /// the primary is about to broadcast: start = when the proposal
    /// entered the backlog (`entered_ms`, in batch order; clamped forward
    /// to its origin bus time so the per-stage timeline never runs
    /// backwards across nodes), end = now, parented on the origin's
    /// `submit` span. `traced` holds the batch's trace state, whose span
    /// ids on the primary are those `batch_flush` spans.
    fn trace_batch_flush(
        &self,
        preprepare: &PrePrepare,
        entered_ms: &[u64],
        traced: &[TracedRequest],
        now: u64,
    ) {
        let train = self.telemetry.train_id();
        let node = self.id.0;
        let requests = preprepare.batch.requests();
        for flushed in traced {
            let offset = (flushed.sn - preprepare.sn) as usize;
            let request = &requests[offset];
            let start = entered_ms[offset].max(request.time_ms);
            self.telemetry.record(|| Span {
                trace_id: flushed.ids.trace_id(),
                span_id: flushed.span_id,
                parent_span: flushed.ids.derive(Stage::Submit.as_str(), request.origin.0),
                stage: Stage::BatchFlush,
                node,
                train,
                sn: flushed.sn,
                start_ms: start,
                end_ms: now.max(start),
            });
        }
    }

    /// The trace state of every application request of an accepted
    /// batch: its trace id, derived from `(train, origin, digest)` so
    /// every node names the same spans without coordination, and, as the
    /// parent of this node's first span, the primary's `batch_flush`
    /// span. Empty when telemetry is disabled.
    fn traced_requests(&self, preprepare: &PrePrepare) -> Vec<TracedRequest> {
        if !self.telemetry.is_enabled() {
            return Vec::new();
        }
        let train = self.telemetry.train_id();
        let primary = self.config.primary_of(preprepare.view).0;
        let mut traced = Vec::with_capacity(preprepare.batch.len());
        for (offset, (request, digest)) in preprepare
            .batch
            .requests()
            .iter()
            .zip(preprepare.batch.payload_digests())
            .enumerate()
        {
            if request.is_noop() {
                continue;
            }
            let ids = SpanIds::new(derive_trace_id(train, request.origin.0, digest.as_bytes()));
            traced.push(TracedRequest {
                sn: preprepare.sn + offset as u64,
                ids,
                span_id: ids.derive(Stage::BatchFlush.as_str(), primary),
            });
        }
        traced
    }

    /// Emits one `stage` span per traced request of a slot, parented on
    /// the request's previous span, and makes it the parent of the next.
    fn emit_slot_spans(
        telemetry: &Telemetry,
        node: u64,
        stage: Stage,
        requests: &mut [TracedRequest],
        start_ms: u64,
        end_ms: u64,
    ) {
        let train = telemetry.train_id();
        let end_ms = end_ms.max(start_ms);
        for request in requests {
            let span_id = request.ids.derive(stage.as_str(), node);
            telemetry.record(|| Span {
                trace_id: request.ids.trace_id(),
                span_id,
                parent_span: request.span_id,
                stage,
                node,
                train,
                sn: request.sn,
                start_ms,
                end_ms,
            });
            request.span_id = span_id;
        }
    }

    /// Mutation hook: enables a deliberately injected equivocation bug.
    ///
    /// While primary, this replica assigns each sequence number twice:
    /// the honest preprepare is broadcast as usual, but the highest-id
    /// backup is privately sent a *conflicting* preprepare for the same
    /// `(view, sn)` with tampered payload bytes. A correct PBFT primary
    /// never does this; the chaos harness must flag it as a safety
    /// violation (and correct backups that see both proposals suspect the
    /// primary).
    #[cfg(feature = "mutation-hooks")]
    pub fn enable_equivocation_bug(&mut self) {
        self.equivocate = true;
    }

    #[cfg(feature = "mutation-hooks")]
    fn maybe_equivocate(&mut self, preprepare: &PrePrepare) {
        if !self.equivocate {
            return;
        }
        let victim = (0..self.config.n as u64)
            .rev()
            .map(NodeId)
            .find(|id| *id != self.id)
            .expect("groups have n >= 4 replicas");
        let mut requests = preprepare.batch.requests().to_vec();
        requests
            .last_mut()
            .expect("batches are never empty")
            .payload
            .push(0xE0);
        let conflicting = PrePrepare {
            view: preprepare.view,
            sn: preprepare.sn,
            batch: ProposedBatch::new(requests),
        };
        let signed = SignedMessage::sign(self.id, Message::PrePrepare(conflicting), &self.key);
        self.effects.push(Effect::Send {
            to: victim,
            message: signed,
        });
    }

    /// `SUSPECT(id)`: suspects a node; if it is the current primary this
    /// initiates a view change (Table I).
    pub fn suspect(&mut self, id: NodeId) {
        if id != self.primary() || self.in_view_change() {
            return;
        }
        let target = self.view + 1;
        self.start_view_change(target);
    }

    // ------------------------------------------------------------------
    // Checkpointing (application-triggered, one per block)
    // ------------------------------------------------------------------

    /// Declares the application snapshot at `sn` (ZugChain: the hash of
    /// the block whose last request is `sn`). Broadcasts a checkpoint
    /// message; once 2f+1 replicas match, the checkpoint becomes stable.
    pub fn record_checkpoint(&mut self, sn: u64, state_digest: Digest) {
        let checkpoint = Checkpoint { sn, state_digest };
        let signature = self.broadcast(Message::Checkpoint(checkpoint)).signature();
        self.store_checkpoint_vote(self.id, checkpoint, signature);
    }

    fn store_checkpoint_vote(
        &mut self,
        from: NodeId,
        checkpoint: Checkpoint,
        signature: Signature,
    ) {
        if checkpoint.sn <= self.low_watermark {
            return;
        }
        let votes = self.checkpoints.entry(checkpoint.sn).or_default();
        votes.votes.entry(from).or_insert(Vote {
            digest: checkpoint.state_digest,
            signature,
        });
        self.maybe_stabilize_checkpoint(checkpoint.sn);
    }

    fn maybe_stabilize_checkpoint(&mut self, sn: u64) {
        let Some(votes) = self.checkpoints.get(&sn) else {
            return;
        };
        // Group by digest; a quorum must agree on the same state.
        let mut counts: BTreeMap<Digest, usize> = BTreeMap::new();
        for vote in votes.votes.values() {
            *counts.entry(vote.digest).or_default() += 1;
        }
        let Some((digest, _)) = counts
            .iter()
            .find(|(_, count)| **count >= self.config.quorum())
        else {
            return;
        };
        let digest = *digest;
        let signatures: Vec<(NodeId, Signature)> = votes
            .votes
            .iter()
            .filter(|(_, vote)| vote.digest == digest)
            .map(|(id, vote)| (*id, vote.signature))
            .collect();
        let proof = CheckpointProof {
            checkpoint: Checkpoint {
                sn,
                state_digest: digest,
            },
            signatures,
        };
        self.stabilize(proof);
    }

    fn stabilize(&mut self, proof: CheckpointProof) {
        let sn = proof.checkpoint.sn;
        if sn <= self.low_watermark {
            return;
        }
        self.low_watermark = sn;
        self.last_stable_proof = Some(proof.clone());
        // Garbage collect ordering state covered by the checkpoint. A
        // slot is covered only when its whole *range* is: a batch
        // straddling the checkpoint still owes decides above it.
        self.slots.retain(|slot_sn, slot| {
            slot.preprepare
                .as_ref()
                .map_or(*slot_sn, PrePrepare::end_sn)
                > sn
        });
        self.checkpoints.retain(|cp_sn, _| *cp_sn > sn);
        if self.decided_up_to < sn {
            // We missed decides that the quorum already checkpointed.
            self.effects
                .push(Effect::Output(ReplicaEvent::NeedStateTransfer {
                    from_sn: self.decided_up_to + 1,
                    to_sn: sn,
                }));
            self.decided_up_to = sn;
            self.metrics.decided_up_to.set(sn as i64);
        }
        if self.next_sn <= sn {
            self.next_sn = sn + 1;
        }
        self.effects
            .push(Effect::Output(ReplicaEvent::StableCheckpoint { proof }));
        // The window may have opened: the primary can propose backlog.
        if self.is_primary() && !self.in_view_change() {
            self.flush_backlog(false);
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Processes a protocol message from the network.
    ///
    /// The message's signature must verify under its claimed sender's
    /// key; invalid messages are counted and dropped — a Byzantine peer
    /// cannot impersonate others or corrupt state with garbage.
    pub fn on_message(&mut self, message: SignedMessage) {
        if message.from == self.id {
            return; // our own broadcast echoed back
        }
        if message.from.0 >= self.config.n as u64 {
            self.stats.ignored += 1;
            self.metrics.ignored.inc();
            return;
        }
        if !message.verify(&self.keystore) {
            self.stats.invalid_signatures += 1;
            self.metrics.invalid_signatures.inc();
            return;
        }
        self.stats.signatures_verified += 1;
        self.stats.messages_processed += 1;
        self.metrics.for_message(&message.message).inc();
        self.dispatch(message);
    }

    /// The view an ordering message belongs to (`None` for view-change
    /// and checkpoint traffic, which is never buffered).
    fn ordering_view(message: &Message) -> Option<u64> {
        match message {
            Message::PrePrepare(m) => Some(m.view),
            Message::Prepare(m) => Some(m.view),
            Message::Commit(m) => Some(m.view),
            _ => None,
        }
    }

    /// Routes one verified message, buffering ordering traffic that this
    /// replica cannot act on yet (mid-view-change, or for a future view).
    fn dispatch(&mut self, message: SignedMessage) {
        if let Some(view) = Self::ordering_view(&message.message) {
            if view > self.view || (view == self.view && self.in_view_change()) {
                if self.buffered.len() >= self.config.max_buffered_messages {
                    // Keep the entries for the *nearest* future views:
                    // after a long partition the buffer fills with traffic
                    // for many views, and the messages for the nearest
                    // future view are exactly the ones that let this
                    // replica rejoin. Dropping the oldest entry instead
                    // (typically the lowest view) starves recovery.
                    let (evict, evict_view) = self
                        .buffered
                        .iter()
                        .enumerate()
                        .max_by_key(|(index, buffered)| {
                            (Self::ordering_view(&buffered.message), *index)
                        })
                        .map(|(index, buffered)| (index, Self::ordering_view(&buffered.message)))
                        .expect("buffer at capacity is non-empty");
                    if Some(view) >= evict_view {
                        // The incoming message is at least as far in the
                        // future as the farthest buffered entry — evicting
                        // a nearer-view message for it would invert the
                        // policy, so drop the newcomer instead.
                        self.stats.ignored += 1;
                        self.metrics.ignored.inc();
                        self.metrics.buffer_evictions.inc();
                        return;
                    }
                    self.buffered.remove(evict);
                    self.metrics.buffer_evictions.inc();
                }
                self.buffered.push_back(message);
                self.metrics
                    .future_buffer_len
                    .set(self.buffered.len() as i64);
                return;
            }
        }
        // Destructure instead of cloning: a preprepare's batch should not
        // be deep-copied just to route it.
        let SignedMessage {
            from,
            message,
            signature,
        } = message;
        match message {
            Message::PrePrepare(preprepare) => self.on_preprepare(from, preprepare),
            Message::Prepare(prepare) => self.on_prepare(from, prepare, signature),
            Message::Commit(commit) => self.on_commit(from, commit),
            Message::Checkpoint(checkpoint) => {
                self.store_checkpoint_vote(from, checkpoint, signature);
            }
            Message::NewView(new_view) => self.on_new_view(from, new_view),
            message @ Message::ViewChange(_) => self.on_view_change_vote(SignedMessage {
                from,
                message,
                signature,
            }),
        }
    }

    fn in_window(&self, sn: u64) -> bool {
        sn > self.low_watermark && sn <= self.low_watermark + self.config.watermark_window
    }

    /// Window check for prepares and commits: the standard watermark
    /// window, plus the base sequence number of a live slot whose batch
    /// straddles the low watermark (a checkpoint can land mid-batch on a
    /// replica that accepted the batch before stabilizing; its votes are
    /// still needed to finish the run above the watermark). Fresh
    /// preprepares keep the strict check — no new slots below the
    /// watermark.
    fn ordering_in_window(&self, sn: u64) -> bool {
        if self.in_window(sn) {
            return true;
        }
        sn <= self.low_watermark
            && self.slots.get(&sn).is_some_and(|slot| {
                slot.preprepare
                    .as_ref()
                    .is_some_and(|pp| pp.end_sn() > self.low_watermark)
            })
    }

    fn on_preprepare(&mut self, from: NodeId, preprepare: PrePrepare) {
        if self.in_view_change()
            || preprepare.view != self.view
            || from != self.primary()
            || !self.in_window(preprepare.sn)
            || preprepare.end_sn() > self.low_watermark + self.config.watermark_window
        {
            self.stats.ignored += 1;
            return;
        }
        let sn = preprepare.sn;
        if let Some(slot) = self.slots.get(&sn) {
            if slot.preprepare.is_some() {
                if slot.batch_digest != Some(preprepare.batch.digest()) {
                    // Primary equivocation: two different proposals for
                    // the same (view, sn). Initiate a view change.
                    let primary = self.primary();
                    self.suspect(primary);
                    return;
                }
                // Duplicate preprepare with a matching digest: the
                // primary (or the network) retransmitted it. Re-broadcast
                // our own prepare — if the first one was lost, staying
                // silent wedges the slot until a view change.
                if let Some(vote) = slot.prepares.get(&self.id) {
                    let prepare = Prepare {
                        view: self.view,
                        sn,
                        digest: vote.digest,
                    };
                    self.broadcast(Message::Prepare(prepare));
                }
                return;
            }
        }
        // A batch whose range collides with an already-preprepared
        // neighbour means the primary assigned some sequence number
        // twice — treat it like equivocation. Slots holding only stray
        // votes don't count (they carry no conflicting assignment), and
        // they must not shadow a lower preprepared batch either: a
        // Byzantine backup could interpose a vote-only slot mid-batch to
        // sneak an overlapping preprepare past a nearest-key check, so
        // scan back to the nearest slot that actually holds a
        // preprepare.
        let predecessor_overlap = self
            .slots
            .range(..sn)
            .rev()
            .find_map(|(_, prev)| prev.preprepare.as_ref())
            .is_some_and(|pp| pp.end_sn() >= sn);
        let successor_overlap = preprepare.end_sn() > sn
            && self
                .slots
                .range(sn + 1..=preprepare.end_sn())
                .any(|(_, next)| next.preprepare.is_some());
        if predecessor_overlap || successor_overlap {
            let primary = self.primary();
            self.suspect(primary);
            return;
        }
        let (digest, payload_digests) = self.accept_preprepare(preprepare, &[]);
        for (offset, payload_digest) in payload_digests.into_iter().enumerate() {
            self.effects
                .push(Effect::Output(ReplicaEvent::PrePrepareSeen {
                    sn: sn + offset as u64,
                    payload_digest,
                }));
        }
        // Backups confirm with a prepare over the batch digest.
        let prepare = Prepare {
            view: self.view,
            sn,
            digest,
        };
        let signature = self.broadcast(Message::Prepare(prepare)).signature();
        if let Some(slot) = self.slots.get_mut(&sn) {
            slot.prepares.insert(self.id, Vote { digest, signature });
        }
        self.maybe_advance(sn);
    }

    /// Records a preprepare into its slot (primary: own proposal; backup:
    /// accepted proposal), reusing the digests the batch already hashed
    /// (payloads are hashed exactly once, at batch construction or
    /// decode). `flushed_at` holds the backlog-entry times of a batch
    /// this primary is flushing (empty otherwise, and when telemetry is
    /// disabled). Returns the batch digest and the per-request payload
    /// digests in batch order.
    fn accept_preprepare(
        &mut self,
        preprepare: PrePrepare,
        flushed_at: &[u64],
    ) -> (Digest, Vec<Digest>) {
        let sn = preprepare.sn;
        let batch_digest = preprepare.batch.digest();
        let payload_digests: Vec<Digest> = preprepare.batch.payload_digests().to_vec();
        let mut traced = self.traced_requests(&preprepare);
        let now = self.telemetry.now_ms();
        if !flushed_at.is_empty() {
            self.trace_batch_flush(&preprepare, flushed_at, &traced, now);
        }
        Self::emit_slot_spans(
            &self.telemetry,
            self.id.0,
            Stage::PrePrepare,
            &mut traced,
            now,
            now,
        );
        let slot = self.slots.entry(sn).or_default();
        slot.batch_digest = Some(batch_digest);
        slot.payload_digests = payload_digests.clone();
        slot.t_accept = now;
        slot.traced = traced;
        slot.preprepare = Some(preprepare);
        self.maybe_advance(sn);
        (batch_digest, payload_digests)
    }

    fn on_prepare(&mut self, from: NodeId, prepare: Prepare, signature: Signature) {
        if self.in_view_change()
            || prepare.view != self.view
            || !self.ordering_in_window(prepare.sn)
        {
            self.stats.ignored += 1;
            return;
        }
        if from == self.primary() {
            // The primary's preprepare is its prepare; a prepare from the
            // primary is protocol noise.
            self.stats.ignored += 1;
            return;
        }
        let slot = self.slots.entry(prepare.sn).or_default();
        slot.prepares.entry(from).or_insert(Vote {
            digest: prepare.digest,
            signature,
        });
        self.maybe_advance(prepare.sn);
    }

    fn on_commit(&mut self, from: NodeId, commit: Commit) {
        if self.in_view_change() || commit.view != self.view || !self.ordering_in_window(commit.sn)
        {
            self.stats.ignored += 1;
            return;
        }
        let slot = self.slots.entry(commit.sn).or_default();
        slot.commits.entry(from).or_insert(commit.digest);
        self.maybe_advance(commit.sn);
    }

    /// Advances the three-phase protocol for `sn` as far as possible.
    fn maybe_advance(&mut self, sn: u64) {
        let view = self.view;
        let prepare_quorum = self.config.prepare_quorum();
        let quorum = self.config.quorum();

        let Some(slot) = self.slots.get_mut(&sn) else {
            return;
        };
        if slot.preprepare.is_none() {
            return;
        }
        let digest = slot
            .batch_digest
            .expect("slot with a preprepare has a cached batch digest");

        if !slot.prepared && slot.matching_prepares(&digest) >= prepare_quorum {
            let now = self.telemetry.now_ms();
            slot.prepared = true;
            slot.t_prepared = now;
            // The prepare span covers preprepare-accept → prepare-quorum
            // on this node, parented on this node's own preprepare span.
            Self::emit_slot_spans(
                &self.telemetry,
                self.id.0,
                Stage::Prepare,
                &mut slot.traced,
                slot.t_accept,
                now,
            );
            self.broadcast(Message::Commit(Commit { view, sn, digest }));
            if let Some(slot) = self.slots.get_mut(&sn) {
                slot.commits.insert(self.id, digest);
            }
            self.maybe_advance(sn);
            return;
        }

        let Some(slot) = self.slots.get_mut(&sn) else {
            return;
        };
        if slot.prepared && !slot.committed && slot.matching_commits(&digest) >= quorum {
            let now = self.telemetry.now_ms();
            slot.committed = true;
            slot.t_committed = now;
            // The commit span covers prepare-quorum → commit-quorum.
            Self::emit_slot_spans(
                &self.telemetry,
                self.id.0,
                Stage::Commit,
                &mut slot.traced,
                slot.t_prepared,
                now,
            );
            self.try_decide();
        }
    }

    /// Emits `Decide` actions for every committed batch in sequence
    /// order, one per request: committing a batch decides its whole run
    /// of sequence numbers atomically.
    fn try_decide(&mut self) {
        loop {
            let next = self.decided_up_to + 1;
            // The covering slot is keyed at the batch's base sequence
            // number, which can lie below `next` when a state-transfer
            // watermark jump landed mid-batch. Vote-only slots (created
            // by stray prepares/commits at an in-window sn) can sit
            // between that base and `next`, so walk back to the nearest
            // slot that actually holds a preprepare instead of taking
            // the nearest key.
            let Some(base) = self
                .slots
                .range(..=next)
                .rev()
                .find(|(_, slot)| slot.preprepare.is_some())
                .map(|(&base, _)| base)
            else {
                return;
            };
            let slot = self
                .slots
                .get_mut(&base)
                .expect("slot found by the scan above");
            let covers = slot
                .preprepare
                .as_ref()
                .is_some_and(|pp| pp.end_sn() >= next);
            if !covers || !slot.committed || slot.decided {
                return;
            }
            slot.decided = true;
            let digests = slot.payload_digests.clone();
            let preprepare = slot
                .preprepare
                .clone()
                .expect("committed slot has a preprepare");
            // The decide span closes the consensus phase: commit-quorum →
            // in-order execution up-call, for the requests a state
            // transfer has not already covered.
            let mut traced = std::mem::take(&mut slot.traced);
            let undecided = traced.partition_point(|request| request.sn < next);
            Self::emit_slot_spans(
                &self.telemetry,
                self.id.0,
                Stage::Decide,
                &mut traced[undecided..],
                slot.t_committed,
                self.telemetry.now_ms(),
            );
            self.stats.batches_decided += 1;
            self.metrics.batches_decided.inc();
            let requests = preprepare.batch.into_requests();
            self.metrics.batch_occupancy.observe(requests.len() as u64);
            for ((offset, request), payload_digest) in requests.into_iter().enumerate().zip(digests)
            {
                let sn = base + offset as u64;
                if sn <= self.decided_up_to {
                    continue; // already covered by a state transfer
                }
                self.decided_up_to = sn;
                self.stats.decided += 1;
                self.metrics.decided.inc();
                self.effects.push(Effect::Output(ReplicaEvent::Decide {
                    sn,
                    request,
                    payload_digest,
                }));
            }
            self.metrics.decided_up_to.set(self.decided_up_to as i64);
        }
    }

    // ------------------------------------------------------------------
    // View change
    // ------------------------------------------------------------------

    /// Called by the runtime when a replica timer expires.
    ///
    /// `ViewChange(view)`: no `NewView` for `view` arrived in time — move
    /// on to the next view. Stale expiries (a generation the runtime
    /// failed to drop, or a view this replica already left) are ignored,
    /// so every runtime gets identical escalation semantics.
    pub fn on_timer(&mut self, timer: ReplicaTimer) {
        match timer {
            ReplicaTimer::ViewChange(view) => {
                if self.armed_vc_timer != Some(view) {
                    return;
                }
                self.armed_vc_timer = None;
                if self.phase == Some(ViewChangeState { target: view }) {
                    self.start_view_change(view + 1);
                }
            }
            ReplicaTimer::BatchFlush => {
                if !self.armed_batch_timer {
                    return;
                }
                self.armed_batch_timer = false;
                if self.is_primary() && !self.in_view_change() {
                    self.flush_backlog(true);
                }
            }
        }
    }

    fn prepared_certs(&self) -> Vec<PreparedCert> {
        self.slots
            .iter()
            .filter(|(_, slot)| {
                // A batch straddling the low watermark still owes decides
                // above it, so its base may sit at or below the
                // watermark.
                slot.prepared
                    && slot
                        .preprepare
                        .as_ref()
                        .is_some_and(|pp| pp.end_sn() > self.low_watermark)
            })
            .map(|(sn, slot)| {
                let preprepare = slot
                    .preprepare
                    .as_ref()
                    .expect("prepared slot has a preprepare");
                let digest = slot
                    .batch_digest
                    .expect("slot with a preprepare has a cached batch digest");
                PreparedCert {
                    view: preprepare.view,
                    sn: *sn,
                    batch: preprepare.batch.clone(),
                    prepare_signatures: slot
                        .prepares
                        .iter()
                        .filter(|(_, vote)| vote.digest == digest)
                        .map(|(id, vote)| (*id, vote.signature))
                        .collect(),
                }
            })
            .collect()
    }

    fn start_view_change(&mut self, target: u64) {
        if target <= self.view {
            return;
        }
        self.phase = Some(ViewChangeState { target });
        let view_change = ViewChange {
            new_view: target,
            last_stable_sn: self.low_watermark,
            checkpoint_proof: self.last_stable_proof.clone(),
            prepared: self.prepared_certs(),
        };
        let signed = self.broadcast(Message::ViewChange(view_change));
        // (Re-)arm the view-change timer for the new target. Cancelling
        // the previous arm keeps at most one live generation per replica.
        if let Some(old) = self.armed_vc_timer.take() {
            self.effects.push(Effect::CancelTimer {
                id: ReplicaTimer::ViewChange(old),
            });
        }
        self.armed_vc_timer = Some(target);
        self.effects.push(Effect::SetTimer {
            id: ReplicaTimer::ViewChange(target),
            duration_ms: self.config.view_change_timeout_ms,
        });
        // Count our own vote; if we are the new primary and votes from the
        // others already arrived, this may complete the view change.
        self.store_view_change_vote(signed);
        self.maybe_assemble_new_view(target);
    }

    fn on_view_change_vote(&mut self, signed: SignedMessage) {
        let Message::ViewChange(ref view_change) = signed.message else {
            return;
        };
        if view_change.new_view <= self.view {
            self.stats.ignored += 1;
            return;
        }
        let new_view = view_change.new_view;
        self.store_view_change_vote(signed);

        // Liveness rule: join a view change once f+1 distinct replicas
        // vote for a view above ours — at least one of them is correct.
        let joined_target = self.phase.map_or(self.view, |s| s.target);
        if new_view > joined_target {
            let votes = self
                .view_change_votes
                .get(&new_view)
                .map_or(0, BTreeMap::len);
            if votes >= self.config.suspicion_quorum() {
                self.start_view_change(new_view);
            }
        }
        self.maybe_assemble_new_view(new_view);
    }

    fn store_view_change_vote(&mut self, signed: SignedMessage) {
        let Message::ViewChange(ref view_change) = signed.message else {
            return;
        };
        self.view_change_votes
            .entry(view_change.new_view)
            .or_default()
            .entry(signed.from)
            .or_insert(signed.clone());
    }

    fn maybe_assemble_new_view(&mut self, target: u64) {
        if self.config.primary_of(target) != self.id {
            return;
        }
        if self.phase != Some(ViewChangeState { target }) {
            return;
        }
        let Some(votes) = self.view_change_votes.get(&target) else {
            return;
        };
        if votes.len() < self.config.quorum() {
            return;
        }
        let view_changes: Vec<SignedMessage> = votes.values().cloned().collect();
        let (preprepares, _min_s) = compute_new_view_preprepares(
            &self.config,
            &self.keystore,
            target,
            self.id,
            &view_changes,
        );
        let new_view = NewView {
            view: target,
            view_changes,
            preprepares: preprepares.clone(),
        };
        self.broadcast(Message::NewView(new_view));
        self.enter_view(target, preprepares);
    }

    fn on_new_view(&mut self, from: NodeId, new_view: NewView) {
        if new_view.view <= self.view || from != self.config.primary_of(new_view.view) {
            self.stats.ignored += 1;
            return;
        }
        // Verify the 2f+1 distinct, valid view-change votes. The
        // signatures are checked in one `verify_batch` call instead of
        // one at a time: a new-view message carries a whole round's
        // worth of votes at once.
        let mut candidates = Vec::new();
        let mut items: Vec<BatchItem> = Vec::new();
        for vote in &new_view.view_changes {
            let Message::ViewChange(ref view_change) = vote.message else {
                continue;
            };
            if view_change.new_view != new_view.view {
                continue;
            }
            let Some(key) = self.keystore.get(vote.from.0) else {
                continue;
            };
            items.push((*key, vote.message.auth_bytes(), vote.signature()));
            candidates.push(vote);
        }
        let outcome = verify_batch(&items);
        let mut voters = std::collections::BTreeSet::new();
        let mut valid_votes = Vec::new();
        for (index, vote) in candidates.into_iter().enumerate() {
            if outcome.is_valid(index) && voters.insert(vote.from.0) {
                valid_votes.push(vote.clone());
            }
        }
        if valid_votes.len() < self.config.quorum() {
            self.stats.ignored += 1;
            return;
        }
        // Recompute the preprepare set and require it to match: a
        // Byzantine new primary cannot smuggle in different requests.
        let (expected, _min_s) = compute_new_view_preprepares(
            &self.config,
            &self.keystore,
            new_view.view,
            from,
            &valid_votes,
        );
        if expected != new_view.preprepares {
            self.stats.ignored += 1;
            return;
        }
        // Adopt any newer stable checkpoint carried in the votes.
        let best_proof = valid_votes
            .iter()
            .filter_map(|vote| match &vote.message {
                Message::ViewChange(vc) => vc.checkpoint_proof.clone(),
                _ => None,
            })
            .filter(|proof| proof.verify(&self.keystore, self.config.quorum()))
            .max_by_key(|proof| proof.checkpoint.sn);
        if let Some(proof) = best_proof {
            if proof.checkpoint.sn > self.low_watermark {
                self.stabilize(proof);
            }
        }
        self.enter_view(new_view.view, new_view.preprepares);
    }

    /// Switches to `view` and replays the new primary's preprepares.
    fn enter_view(&mut self, view: u64, preprepares: Vec<PrePrepare>) {
        self.view = view;
        self.phase = None;
        self.stats.view_changes += 1;
        self.metrics.view_changes.inc();
        self.metrics.view.set(view as i64);
        self.view_change_votes.retain(|target, _| *target > view);
        if let Some(armed) = self.armed_vc_timer.take() {
            self.effects.push(Effect::CancelTimer {
                id: ReplicaTimer::ViewChange(armed),
            });
        }
        if self.armed_batch_timer {
            // Primary status may have changed hands; the new primary
            // re-arms for its own backlog below.
            self.armed_batch_timer = false;
            self.effects.push(Effect::CancelTimer {
                id: ReplicaTimer::BatchFlush,
            });
        }

        // Reset per-view slot state above the checkpoint: prepares and
        // commits from the old view are void in the new one.
        self.slots.retain(|_, slot| slot.decided);
        self.next_sn = preprepares
            .iter()
            .map(|p| p.end_sn() + 1)
            .max()
            .unwrap_or(self.low_watermark + 1)
            .max(self.decided_up_to + 1);

        let primary = self.config.primary_of(view);
        self.effects
            .push(Effect::Output(ReplicaEvent::NewPrimary { view, primary }));

        for preprepare in preprepares {
            if preprepare.end_sn() <= self.decided_up_to {
                continue; // already decided locally
            }
            let sn = preprepare.sn;
            let (digest, payload_digests) = self.accept_preprepare(preprepare, &[]);
            for (offset, payload_digest) in payload_digests.into_iter().enumerate() {
                self.effects
                    .push(Effect::Output(ReplicaEvent::PrePrepareSeen {
                        sn: sn + offset as u64,
                        payload_digest,
                    }));
            }
            if self.id != primary {
                let prepare = Prepare { view, sn, digest };
                let signature = self.broadcast(Message::Prepare(prepare)).signature();
                if let Some(slot) = self.slots.get_mut(&sn) {
                    slot.prepares.insert(self.id, Vote { digest, signature });
                }
                self.maybe_advance(sn);
            }
        }
        // The new primary re-proposes anything still in its backlog.
        if self.is_primary() {
            self.flush_backlog(false);
        }
        // Replay ordering traffic that raced the view change; anything
        // still ahead of the new view goes straight back into the buffer.
        let buffered: Vec<SignedMessage> = self.buffered.drain(..).collect();
        for message in buffered {
            self.dispatch(message);
        }
        self.metrics
            .future_buffer_len
            .set(self.buffered.len() as i64);
    }
}

impl Machine for Replica {
    type Addr = NodeId;
    type Message = SignedMessage;
    type Timer = ReplicaTimer;
    type Output = ReplicaEvent;
    type Input = ReplicaInput;

    fn on_input(&mut self, input: ReplicaInput) -> Vec<ReplicaEffect> {
        match input {
            ReplicaInput::Message(message) => self.on_message(message),
            ReplicaInput::Propose(request) => self.propose(request),
            ReplicaInput::Suspect(id) => self.suspect(id),
            ReplicaInput::RecordCheckpoint { sn, state_digest } => {
                self.record_checkpoint(sn, state_digest);
            }
        }
        self.drain_effects()
    }

    fn on_timer(&mut self, timer: ReplicaTimer) -> Vec<ReplicaEffect> {
        Replica::on_timer(self, timer);
        self.drain_effects()
    }
}

/// Deterministically computes the preprepares a new primary must issue
/// from a set of view-change votes: every batch above the highest stable
/// checkpoint that some vote proves prepared is re-proposed
/// *bit-identically at its original base sequence number* (its digest,
/// and thus its prepare certificate, binds the base through the batch
/// contents); where batch ranges collide the higher view wins; interior
/// gaps are filled with single no-op batches.
///
/// A batch straddling the stable checkpoint keeps its original base (at
/// or below the checkpoint) — the decided prefix is skipped at decide
/// time.
///
/// Both the new primary and every backup run this function, so a
/// fabricated `NewView` is rejected by comparison.
fn compute_new_view_preprepares(
    config: &Config,
    keystore: &Keystore,
    view: u64,
    primary: NodeId,
    votes: &[SignedMessage],
) -> (Vec<PrePrepare>, u64) {
    let mut min_s = 0u64;
    for vote in votes {
        if let Message::ViewChange(vc) = &vote.message {
            // Only checkpoint claims backed by a valid proof count.
            let proven = match &vc.checkpoint_proof {
                Some(proof) => {
                    proof.checkpoint.sn == vc.last_stable_sn
                        && proof.verify(keystore, config.quorum())
                }
                None => vc.last_stable_sn == 0,
            };
            if proven {
                min_s = min_s.max(vc.last_stable_sn);
            }
        }
    }

    // Pick, per base sequence number, the prepared cert from the highest
    // view whose range reaches above the checkpoint.
    let mut chosen: BTreeMap<u64, &PreparedCert> = BTreeMap::new();
    for vote in votes {
        if let Message::ViewChange(vc) = &vote.message {
            for cert in &vc.prepared {
                if cert.end_sn() <= min_s || !cert.verify(keystore, config.prepare_quorum()) {
                    continue;
                }
                match chosen.get(&cert.sn) {
                    Some(existing) if existing.view >= cert.view => {}
                    _ => {
                        chosen.insert(cert.sn, cert);
                    }
                }
            }
        }
    }

    // Batches prepared in different views can overlap in range (a later
    // view's primary starts below an uncarried earlier cert). The higher
    // view wins; a *decided* batch is never overlapped by a higher-view
    // cert (quorum intersection puts its cert in every vote set), so
    // decided runs always survive this resolution.
    let mut by_view: Vec<&PreparedCert> = chosen.values().copied().collect();
    by_view.sort_by(|a, b| b.view.cmp(&a.view).then(a.sn.cmp(&b.sn)));
    let mut placed: Vec<&PreparedCert> = Vec::new();
    for cert in by_view {
        let overlaps = placed
            .iter()
            .any(|p| cert.sn <= p.end_sn() && p.sn <= cert.end_sn());
        if !overlaps {
            placed.push(cert);
        }
    }
    placed.sort_by_key(|cert| cert.sn);

    let max_s = placed
        .iter()
        .map(|cert| cert.end_sn())
        .max()
        .unwrap_or(min_s);
    let mut preprepares = Vec::new();
    let mut iter = placed.into_iter().peekable();
    let mut next = min_s + 1;
    while next <= max_s {
        match iter.peek() {
            Some(cert) if cert.sn <= next => {
                // Covers `next` (its base may straddle the checkpoint).
                preprepares.push(PrePrepare {
                    view,
                    sn: cert.sn,
                    batch: cert.batch.clone(),
                });
                next = cert.end_sn() + 1;
                iter.next();
            }
            _ => {
                preprepares.push(PrePrepare {
                    view,
                    sn: next,
                    batch: ProposedBatch::single(ProposedRequest::noop(primary)),
                });
                next += 1;
            }
        }
    }
    (preprepares, min_s)
}

#[cfg(test)]
mod tests;
