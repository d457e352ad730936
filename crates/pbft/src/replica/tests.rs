use std::collections::VecDeque;

use zugchain_crypto::{Digest, Keystore};
use zugchain_machine::Effect;

use crate::{
    Checkpoint, Commit, Config, Message, NewView, NodeId, PrePrepare, Prepare, ProposedBatch,
    ProposedRequest, Replica, ReplicaEvent, ReplicaTimer, SignedMessage, ViewChange,
};

/// Events collected from all replicas during a harness run.
#[derive(Debug, Default)]
struct Collected {
    /// `(replica, sn, request)` per decide.
    decides: Vec<(NodeId, u64, ProposedRequest)>,
    /// `(replica, view, primary)` per completed view change.
    new_primaries: Vec<(NodeId, u64, NodeId)>,
    /// `(replica, checkpoint sn)` per stable checkpoint.
    stable_checkpoints: Vec<(NodeId, u64)>,
    /// `(replica, from_sn, to_sn)` per requested state transfer.
    state_transfers: Vec<(NodeId, u64, u64)>,
}

/// A synchronous in-memory router driving a replica group: executes every
/// action, delivering messages until the system is quiet.
/// Per-destination message filter: return `false` to drop.
type MessageFilter = Box<dyn Fn(usize, &SignedMessage) -> bool>;

struct Cluster {
    replicas: Vec<Replica>,
    queue: VecDeque<(usize, SignedMessage)>,
    filter: MessageFilter,
    collected: Collected,
    /// Replicas whose view-change timer is armed (target view).
    vc_timers: Vec<Option<u64>>,
    /// Replicas whose partial-batch flush timer is armed.
    batch_timers: Vec<bool>,
}

impl Cluster {
    fn new(n: usize) -> Self {
        let config = Config::new(n).unwrap();
        let (pairs, keystore) = Keystore::generate(n, 42);
        let replicas = pairs
            .into_iter()
            .enumerate()
            .map(|(id, key)| Replica::new(NodeId(id as u64), config.clone(), key, keystore.clone()))
            .collect();
        Self {
            replicas,
            queue: VecDeque::new(),
            filter: Box::new(|_, _| true),
            collected: Collected::default(),
            vc_timers: vec![None; n],
            batch_timers: vec![false; n],
        }
    }

    /// Rebuilds the cluster's replicas with a custom config.
    fn with_config(n: usize, config: Config) -> Self {
        let mut cluster = Self::new(n);
        let (pairs, keystore) = Keystore::generate(n, 42);
        cluster.replicas = pairs
            .into_iter()
            .enumerate()
            .map(|(id, key)| Replica::new(NodeId(id as u64), config.clone(), key, keystore.clone()))
            .collect();
        cluster
    }

    /// Fires the batch-flush timer on every replica where it is armed.
    fn fire_batch_timers(&mut self) {
        for index in 0..self.replicas.len() {
            if std::mem::take(&mut self.batch_timers[index]) {
                self.replicas[index].on_timer(ReplicaTimer::BatchFlush);
            }
        }
        self.run_until_quiet();
    }

    fn keystore(&self) -> Keystore {
        let (_, keystore) = Keystore::generate(self.replicas.len(), 42);
        keystore
    }

    fn set_filter(&mut self, filter: impl Fn(usize, &SignedMessage) -> bool + 'static) {
        self.filter = Box::new(filter);
    }

    /// Collects effects from one replica into the queue / event log.
    fn pump(&mut self, index: usize) {
        let effects = self.replicas[index].drain_effects();
        let id = self.replicas[index].id();
        for effect in effects {
            match effect {
                Effect::Broadcast { message } => {
                    for dest in 0..self.replicas.len() {
                        if dest != index && (self.filter)(dest, &message) {
                            self.queue.push_back((dest, message.clone()));
                        }
                    }
                }
                Effect::Send { to, message } => {
                    let dest = to.0 as usize;
                    if dest != index && (self.filter)(dest, &message) {
                        self.queue.push_back((dest, message));
                    }
                }
                Effect::SetTimer {
                    id: ReplicaTimer::ViewChange(view),
                    ..
                } => {
                    self.vc_timers[index] = Some(view);
                }
                Effect::CancelTimer {
                    id: ReplicaTimer::ViewChange(_),
                } => {
                    self.vc_timers[index] = None;
                }
                Effect::SetTimer {
                    id: ReplicaTimer::BatchFlush,
                    ..
                } => {
                    self.batch_timers[index] = true;
                }
                Effect::CancelTimer {
                    id: ReplicaTimer::BatchFlush,
                } => {
                    self.batch_timers[index] = false;
                }
                Effect::Output(ReplicaEvent::Decide {
                    sn,
                    request,
                    payload_digest,
                }) => {
                    assert_eq!(payload_digest, request.payload_digest(), "sn {sn}");
                    self.collected.decides.push((id, sn, request));
                }
                Effect::Output(ReplicaEvent::NewPrimary { view, primary }) => {
                    self.collected.new_primaries.push((id, view, primary));
                }
                Effect::Output(ReplicaEvent::StableCheckpoint { proof }) => {
                    self.collected
                        .stable_checkpoints
                        .push((id, proof.checkpoint.sn));
                }
                Effect::Output(ReplicaEvent::NeedStateTransfer { from_sn, to_sn }) => {
                    self.collected.state_transfers.push((id, from_sn, to_sn));
                }
                Effect::Output(ReplicaEvent::PrePrepareSeen { .. }) => {}
            }
        }
    }

    /// Delivers queued messages until no replica produces more output.
    fn run_until_quiet(&mut self) {
        for index in 0..self.replicas.len() {
            self.pump(index);
        }
        while let Some((dest, message)) = self.queue.pop_front() {
            self.replicas[dest].on_message(message);
            self.pump(dest);
        }
    }

    /// Sequence of decided `(sn, payload)` on one replica.
    fn decides_on(&self, id: usize) -> Vec<(u64, Vec<u8>)> {
        self.collected
            .decides
            .iter()
            .filter(|(node, _, _)| node.0 == id as u64)
            .map(|(_, sn, request)| (*sn, request.payload.clone()))
            .collect()
    }
}

fn request(tag: u8, origin: u64) -> ProposedRequest {
    ProposedRequest::application(vec![tag; 16], NodeId(origin))
}

#[test]
fn normal_case_every_replica_decides() {
    let mut cluster = Cluster::new(4);
    cluster.replicas[0].propose(request(1, 0));
    cluster.run_until_quiet();
    for id in 0..4 {
        assert_eq!(
            cluster.decides_on(id),
            vec![(1, vec![1; 16])],
            "replica {id} must decide the request at sn 1"
        );
    }
}

#[test]
fn requests_decide_in_sequence_order() {
    let mut cluster = Cluster::new(4);
    for tag in 1..=5 {
        cluster.replicas[0].propose(request(tag, 0));
    }
    cluster.run_until_quiet();
    for id in 0..4 {
        let decides = cluster.decides_on(id);
        assert_eq!(decides.len(), 5);
        let sns: Vec<u64> = decides.iter().map(|(sn, _)| *sn).collect();
        assert_eq!(sns, vec![1, 2, 3, 4, 5]);
        let tags: Vec<u8> = decides.iter().map(|(_, payload)| payload[0]).collect();
        assert_eq!(tags, vec![1, 2, 3, 4, 5]);
    }
}

#[test]
fn seven_replica_group_orders_too() {
    let mut cluster = Cluster::new(7);
    cluster.replicas[0].propose(request(9, 0));
    cluster.run_until_quiet();
    for id in 0..7 {
        assert_eq!(cluster.decides_on(id), vec![(1, vec![9; 16])]);
    }
}

#[test]
fn decides_survive_one_silent_backup() {
    let mut cluster = Cluster::new(4);
    // Node 3 receives nothing: a crashed replica.
    cluster.set_filter(|dest, _| dest != 3);
    cluster.replicas[0].propose(request(2, 0));
    cluster.run_until_quiet();
    for id in 0..3 {
        assert_eq!(cluster.decides_on(id).len(), 1, "replica {id}");
    }
    assert!(cluster.decides_on(3).is_empty());
}

#[test]
fn checkpoint_becomes_stable_and_garbage_collects() {
    let mut cluster = Cluster::new(4);
    for tag in 1..=3 {
        cluster.replicas[0].propose(request(tag, 0));
    }
    cluster.run_until_quiet();

    let state = Digest::of(b"block-1");
    for replica in &mut cluster.replicas {
        replica.record_checkpoint(3, state);
    }
    cluster.run_until_quiet();

    assert_eq!(cluster.collected.stable_checkpoints.len(), 4);
    for replica in &cluster.replicas {
        assert_eq!(replica.low_watermark(), 3);
        let proof = replica.last_stable_proof().expect("stable proof exists");
        assert!(proof.verify(&cluster.keystore(), 3));
        assert_eq!(proof.checkpoint.state_digest, state);
    }
}

#[test]
fn divergent_checkpoint_from_one_faulty_replica_does_not_stabilize_wrong_state() {
    let mut cluster = Cluster::new(4);
    cluster.replicas[0].propose(request(1, 0));
    cluster.run_until_quiet();

    // Three replicas agree; the fourth lies about its state.
    for id in 0..3 {
        cluster.replicas[id].record_checkpoint(1, Digest::of(b"good"));
    }
    cluster.replicas[3].record_checkpoint(1, Digest::of(b"evil"));
    cluster.run_until_quiet();

    for replica in &cluster.replicas {
        if let Some(proof) = replica.last_stable_proof() {
            assert_eq!(proof.checkpoint.state_digest, Digest::of(b"good"));
        }
    }
}

#[test]
fn suspicion_by_two_nodes_changes_the_view() {
    let mut cluster = Cluster::new(4);
    // f+1 = 2 replicas suspect the primary; the join rule pulls in the rest.
    cluster.replicas[1].suspect(NodeId(0));
    cluster.replicas[2].suspect(NodeId(0));
    cluster.run_until_quiet();

    for replica in &cluster.replicas {
        if replica.id().0 == 0 {
            continue; // the deposed primary may lag
        }
        assert_eq!(replica.view(), 1, "replica {} view", replica.id().0);
        assert_eq!(replica.primary(), NodeId(1));
        assert!(!replica.in_view_change());
    }
    assert!(cluster
        .collected
        .new_primaries
        .iter()
        .any(|(_, view, primary)| *view == 1 && *primary == NodeId(1)));
}

#[test]
fn single_faulty_suspicion_does_not_change_view() {
    let mut cluster = Cluster::new(4);
    cluster.replicas[3].suspect(NodeId(0));
    cluster.run_until_quiet();
    // Nobody else suspects: no quorum, view stays 0 everywhere else.
    for id in 0..3 {
        assert_eq!(cluster.replicas[id].view(), 0);
    }
}

#[test]
fn view_change_preserves_prepared_requests() {
    let mut cluster = Cluster::new(4);
    // Let the request prepare but block every commit, so it is prepared
    // but not decided when the view change hits.
    cluster.set_filter(|_, message| !matches!(message.message, Message::Commit(_)));
    cluster.replicas[0].propose(request(7, 0));
    cluster.run_until_quiet();
    assert!(cluster.collected.decides.is_empty());

    cluster.set_filter(|_, _| true);
    cluster.replicas[1].suspect(NodeId(0));
    cluster.replicas[2].suspect(NodeId(0));
    cluster.run_until_quiet();

    // The request decides in the new view with its original payload.
    for id in 1..4 {
        let decides = cluster.decides_on(id);
        assert_eq!(decides.len(), 1, "replica {id} decides after view change");
        assert_eq!(decides[0].1, vec![7; 16]);
    }
}

#[test]
fn new_primary_fills_gaps_with_noops() {
    let mut cluster = Cluster::new(4);
    // Drop the preprepare for sn 1 entirely; sn 2 prepares normally but
    // cannot decide (in-order execution). Commits for sn 2 are also
    // dropped so it stays merely prepared.
    cluster.set_filter(|_, message| match &message.message {
        Message::PrePrepare(pp) => pp.sn != 1,
        Message::Commit(_) => false,
        _ => true,
    });
    cluster.replicas[0].propose(request(1, 0));
    cluster.replicas[0].propose(request(2, 0));
    cluster.run_until_quiet();
    assert!(cluster.collected.decides.is_empty());

    cluster.set_filter(|_, _| true);
    cluster.replicas[1].suspect(NodeId(0));
    cluster.replicas[2].suspect(NodeId(0));
    cluster.run_until_quiet();

    for id in 1..4 {
        let decides = cluster.decides_on(id);
        assert_eq!(decides.len(), 2, "replica {id}");
        assert_eq!(decides[0].0, 1);
        assert!(decides[0].1.is_empty(), "sn 1 must be a noop");
        assert_eq!(decides[1], (2, vec![2; 16]));
    }
}

#[test]
fn equivocating_primary_is_suspected() {
    let mut cluster = Cluster::new(4);
    let (pairs, _) = Keystore::generate(4, 42);

    // Byzantine primary: two different requests for the same (view, sn).
    let pp_a = SignedMessage::sign(
        NodeId(0),
        Message::PrePrepare(PrePrepare {
            view: 0,
            sn: 1,
            batch: ProposedBatch::single(request(1, 0)),
        }),
        &pairs[0],
    );
    let pp_b = SignedMessage::sign(
        NodeId(0),
        Message::PrePrepare(PrePrepare {
            view: 0,
            sn: 1,
            batch: ProposedBatch::single(request(2, 0)),
        }),
        &pairs[0],
    );
    cluster.replicas[1].on_message(pp_a);
    cluster.replicas[1].on_message(pp_b);
    let effects = cluster.replicas[1].drain_effects();
    assert!(
        effects.iter().any(|effect| matches!(
            effect,
            Effect::Broadcast { message } if matches!(message.message, Message::ViewChange(_))
        )),
        "equivocation must trigger a view-change vote"
    );
}

/// One message of every kind, each with the id of the replica that
/// would send it to replica 1 in view 0.
fn one_of_each_kind() -> Vec<(u64, Message)> {
    let digest = Digest::of(b"batch");
    vec![
        (
            0,
            Message::PrePrepare(PrePrepare {
                view: 0,
                sn: 1,
                batch: ProposedBatch::single(request(9, 0)),
            }),
        ),
        (
            2,
            Message::Prepare(Prepare {
                view: 0,
                sn: 1,
                digest,
            }),
        ),
        (
            2,
            Message::Commit(Commit {
                view: 0,
                sn: 1,
                digest,
            }),
        ),
        (
            2,
            Message::Checkpoint(Checkpoint {
                sn: 1,
                state_digest: digest,
            }),
        ),
        (
            2,
            Message::ViewChange(ViewChange {
                new_view: 1,
                last_stable_sn: 0,
                checkpoint_proof: None,
                prepared: Vec::new(),
            }),
        ),
        (
            2,
            Message::NewView(NewView {
                view: 2,
                view_changes: Vec::new(),
                preprepares: Vec::new(),
            }),
        ),
    ]
}

/// Changes one field of a message after it was signed.
fn tamper(message: &mut Message) {
    let other = Digest::of(b"other");
    match message {
        Message::PrePrepare(pp) => pp.batch = ProposedBatch::single(request(8, 0)),
        Message::Prepare(prepare) => prepare.digest = other,
        Message::Commit(commit) => commit.sn += 1,
        Message::Checkpoint(checkpoint) => checkpoint.state_digest = other,
        Message::ViewChange(vc) => vc.last_stable_sn += 1,
        Message::NewView(nv) => nv.preprepares.push(PrePrepare {
            view: nv.view,
            sn: 1,
            batch: ProposedBatch::single(ProposedRequest::noop(NodeId(2))),
        }),
    }
}

#[test]
fn forged_signatures_are_rejected() {
    let (pairs, _) = Keystore::generate(4, 42);
    for (sender, message) in one_of_each_kind() {
        let kind = message.kind();
        let key = &pairs[sender as usize];
        // The genuine message is accepted, so each forgery below differs
        // from it in authentication alone.
        let mut cluster = Cluster::new(4);
        cluster.replicas[1].on_message(SignedMessage::sign(NodeId(sender), message.clone(), key));
        assert_eq!(cluster.replicas[1].stats().messages_processed, 1, "{kind}");

        // Replica 3 signs with its own key and claims another sender.
        let mut impersonated = SignedMessage::sign(NodeId(3), message.clone(), &pairs[3]);
        impersonated.from = NodeId(sender);
        // The sender signs correctly; one field changes in flight.
        let mut tampered = SignedMessage::sign(NodeId(sender), message, key);
        tamper(&mut tampered.message);

        for (case, forged) in [("impersonated", impersonated), ("tampered", tampered)] {
            let mut cluster = Cluster::new(4);
            let replica = &mut cluster.replicas[1];
            replica.on_message(forged);
            let stats = replica.stats();
            assert_eq!(stats.invalid_signatures, 1, "{kind} {case}");
            assert_eq!(stats.messages_processed, 0, "{kind} {case}");
            assert!(replica.drain_effects().is_empty(), "{kind} {case}");
            assert!(replica.slot_snapshot().is_empty(), "{kind} {case}");
            assert_eq!(
                replica.progress_snapshot(),
                (0, 0, 0, 1, 0),
                "{kind} {case}"
            );
        }
    }
}

#[test]
fn out_of_range_sender_is_ignored() {
    let mut cluster = Cluster::new(4);
    let (pairs, _) = Keystore::generate(1, 999);
    let msg = SignedMessage::sign(
        NodeId(77),
        Message::Prepare(crate::Prepare {
            view: 0,
            sn: 1,
            digest: Digest::ZERO,
        }),
        &pairs[0],
    );
    cluster.replicas[0].on_message(msg);
    assert_eq!(cluster.replicas[0].stats().ignored, 1);
}

#[test]
fn watermark_window_throttles_the_primary() {
    let mut cluster = Cluster::new(4);
    let config = Config::new(4).unwrap().with_watermark_window(2);
    let (pairs, keystore) = Keystore::generate(4, 42);
    cluster.replicas = pairs
        .into_iter()
        .enumerate()
        .map(|(id, key)| Replica::new(NodeId(id as u64), config.clone(), key, keystore.clone()))
        .collect();

    for tag in 1..=5 {
        cluster.replicas[0].propose(request(tag, 0));
    }
    cluster.run_until_quiet();
    // Only sn 1 and 2 fit in the window.
    assert_eq!(cluster.decides_on(1).len(), 2);

    // A checkpoint at 2 opens the window for 3 and 4.
    let state = Digest::of(b"block");
    for replica in &mut cluster.replicas {
        replica.record_checkpoint(2, state);
    }
    cluster.run_until_quiet();
    assert_eq!(cluster.decides_on(1).len(), 4);
}

#[test]
fn lagging_replica_detects_missed_state_via_checkpoints() {
    let mut cluster = Cluster::new(4);
    // Node 3 misses all ordering traffic.
    cluster
        .set_filter(|dest, message| dest != 3 || matches!(message.message, Message::Checkpoint(_)));
    for tag in 1..=3 {
        cluster.replicas[0].propose(request(tag, 0));
    }
    cluster.run_until_quiet();

    for id in 0..3 {
        cluster.replicas[id].record_checkpoint(3, Digest::of(b"block"));
    }
    cluster.run_until_quiet();

    // Node 3 saw 3 matching checkpoints (a quorum) and realizes it missed
    // sn 1..=3.
    assert!(cluster
        .collected
        .state_transfers
        .iter()
        .any(|(node, from, to)| node.0 == 3 && *from == 1 && *to == 3));
}

#[test]
fn stats_count_processing() {
    let mut cluster = Cluster::new(4);
    cluster.replicas[0].propose(request(1, 0));
    cluster.run_until_quiet();
    let stats = cluster.replicas[1].stats();
    assert!(stats.messages_processed > 0);
    assert_eq!(stats.decided, 1);
    assert_eq!(stats.invalid_signatures, 0);
}

#[test]
fn view_change_timeout_escalates_to_next_view() {
    let mut cluster = Cluster::new(4);
    // Nodes 1 and 2 suspect, but node 1 (the would-be new primary) is
    // silenced, so view 1 never assembles.
    cluster.set_filter(|dest, _| dest != 1);
    cluster.replicas[2].suspect(NodeId(0));
    cluster.replicas[3].suspect(NodeId(0));
    cluster.run_until_quiet();
    assert!(cluster.replicas[2].in_view_change());

    // Timers fire: everyone escalates to view 2, whose primary (node 2)
    // is alive.
    cluster.set_filter(|_, _| true);
    for id in [0usize, 2, 3] {
        if let Some(view) = cluster.vc_timers[id] {
            cluster.replicas[id].on_timer(ReplicaTimer::ViewChange(view));
        }
    }
    cluster.run_until_quiet();
    for id in [0usize, 2, 3] {
        assert_eq!(cluster.replicas[id].view(), 2, "replica {id}");
        assert_eq!(cluster.replicas[id].primary(), NodeId(2));
    }
}

#[test]
fn ordering_continues_in_the_new_view() {
    let mut cluster = Cluster::new(4);
    cluster.replicas[0].propose(request(1, 0));
    cluster.run_until_quiet();

    cluster.replicas[1].suspect(NodeId(0));
    cluster.replicas[2].suspect(NodeId(0));
    cluster.run_until_quiet();
    assert_eq!(cluster.replicas[1].view(), 1);

    // The new primary (node 1) proposes; everything still decides.
    cluster.replicas[1].propose(request(5, 1));
    cluster.run_until_quiet();
    let decides = cluster.decides_on(2);
    assert_eq!(decides.last().unwrap().1, vec![5; 16]);
}

#[test]
fn memory_accounting_reflects_in_flight_payloads() {
    let mut cluster = Cluster::new(4);
    let before = cluster.replicas[0].approx_memory_bytes();
    // Block all traffic so proposals pile up undecided.
    cluster.set_filter(|_, _| false);
    for tag in 1..=10 {
        cluster.replicas[0].propose(ProposedRequest::application(vec![tag; 1024], NodeId(0)));
    }
    cluster.run_until_quiet();
    let during = cluster.replicas[0].approx_memory_bytes();
    assert!(during > before + 10 * 1024);
}

#[test]
fn view_change_carries_checkpoint_to_lagging_replica() {
    let mut cluster = Cluster::new(4);
    // Node 3 misses all traffic while 5 requests are ordered and
    // checkpointed at sn 5.
    cluster.set_filter(|dest, _| dest != 3);
    for tag in 1..=5 {
        cluster.replicas[0].propose(request(tag, 0));
    }
    cluster.run_until_quiet();
    for id in 0..3 {
        cluster.replicas[id].record_checkpoint(5, Digest::of(b"block-5"));
    }
    cluster.run_until_quiet();
    assert_eq!(cluster.replicas[3].low_watermark(), 0, "node 3 is behind");

    // A view change happens; the view-change votes carry the stable
    // checkpoint proof, and node 3 adopts it when processing NewView.
    cluster.set_filter(|_, _| true);
    cluster.replicas[1].suspect(NodeId(0));
    cluster.replicas[2].suspect(NodeId(0));
    cluster.run_until_quiet();
    assert_eq!(
        cluster.replicas[3].low_watermark(),
        5,
        "NewView carried the checkpoint"
    );
    assert!(cluster
        .collected
        .state_transfers
        .iter()
        .any(|(node, _, to)| node.0 == 3 && *to == 5));
}

#[test]
fn buffered_prepares_racing_the_new_view_are_replayed() {
    let mut cluster = Cluster::new(4);
    // Prepare-but-don't-commit a request, then view change.
    cluster.set_filter(|_, message| !matches!(message.message, Message::Commit(_)));
    cluster.replicas[0].propose(request(5, 0));
    cluster.run_until_quiet();

    cluster.set_filter(|_, _| true);
    cluster.replicas[1].suspect(NodeId(0));
    cluster.replicas[2].suspect(NodeId(0));
    cluster.run_until_quiet();

    // All correct replicas decided it in the new view despite the raced
    // messages (the buffer/replay path).
    for id in 1..4 {
        assert_eq!(cluster.decides_on(id).len(), 1, "replica {id}");
    }
    // And the system keeps working afterwards.
    cluster.replicas[1].propose(request(6, 1));
    cluster.run_until_quiet();
    for id in 1..4 {
        assert_eq!(cluster.decides_on(id).len(), 2, "replica {id}");
    }
}

#[test]
fn noop_decides_advance_sequence_without_payload() {
    let mut cluster = Cluster::new(4);
    // sn 1's preprepare is censored; sn 2 prepares but cannot decide.
    cluster.set_filter(|_, message| match &message.message {
        Message::PrePrepare(pp) => pp.sn != 1,
        Message::Commit(_) => false,
        _ => true,
    });
    cluster.replicas[0].propose(request(1, 0));
    cluster.replicas[0].propose(request(2, 0));
    cluster.run_until_quiet();

    cluster.set_filter(|_, _| true);
    cluster.replicas[1].suspect(NodeId(0));
    cluster.replicas[2].suspect(NodeId(0));
    cluster.run_until_quiet();

    // The noop at sn 1 is decided (empty payload, noop kind) so sn 2 can
    // execute; ordering continues at sn 3 afterwards.
    cluster.replicas[1].propose(request(7, 1));
    cluster.run_until_quiet();
    let decides = cluster.decides_on(2);
    assert_eq!(decides.len(), 3);
    assert_eq!(decides[2].0, 3, "fresh proposal took sn 3");
}

#[test]
fn full_batches_decide_per_request_in_order() {
    let config = Config::new(4).unwrap().with_max_batch_size(4);
    let mut cluster = Cluster::with_config(4, config);
    for tag in 1..=8 {
        cluster.replicas[0].propose(request(tag, 0));
    }
    cluster.run_until_quiet();
    // Two full batches of four, unpacked into one decide per request at
    // consecutive sequence numbers.
    for id in 0..4 {
        let decides = cluster.decides_on(id);
        let sns: Vec<u64> = decides.iter().map(|(sn, _)| *sn).collect();
        assert_eq!(sns, (1..=8).collect::<Vec<u64>>(), "replica {id}");
        let tags: Vec<u8> = decides.iter().map(|(_, payload)| payload[0]).collect();
        assert_eq!(tags, (1..=8).collect::<Vec<u8>>(), "replica {id}");
    }
}

#[test]
fn partial_batch_waits_for_the_flush_timer() {
    let config = Config::new(4)
        .unwrap()
        .with_max_batch_size(4)
        .with_batch_delay(5);
    let mut cluster = Cluster::with_config(4, config);
    for tag in 1..=3 {
        cluster.replicas[0].propose(request(tag, 0));
    }
    cluster.run_until_quiet();
    assert!(
        cluster.collected.decides.is_empty(),
        "a partial batch must not flush before the timer"
    );
    assert!(cluster.batch_timers[0], "the flush timer must be armed");

    cluster.fire_batch_timers();
    for id in 0..4 {
        let decides = cluster.decides_on(id);
        assert_eq!(decides.len(), 3, "replica {id}");
        let sns: Vec<u64> = decides.iter().map(|(sn, _)| *sn).collect();
        assert_eq!(sns, vec![1, 2, 3]);
    }
}

#[test]
fn batch_flush_spans_start_at_each_requests_own_entry_time() {
    use std::sync::Arc;
    use zugchain_telemetry::{Registry, Stage, Telemetry, TraceStore};

    let config = Config::new(4)
        .unwrap()
        .with_max_batch_size(4)
        .with_batch_delay(5);
    let mut cluster = Cluster::with_config(4, config);
    let store = Arc::new(TraceStore::new());
    let telemetry =
        Telemetry::new_with_store(0, Arc::new(Registry::new()), 64, Some(Arc::clone(&store)));
    cluster.replicas[0].set_telemetry(&telemetry);

    telemetry.set_time_ms(10);
    cluster.replicas[0].propose(request(1, 0));
    telemetry.set_time_ms(25);
    cluster.replicas[0].propose(request(2, 0));
    cluster.run_until_quiet();
    // Both wait in one partial batch until the flush timer fires.
    telemetry.set_time_ms(40);
    cluster.fire_batch_timers();
    assert_eq!(cluster.decides_on(0).len(), 2);

    for (sn, entered) in [(1, 10), (2, 25)] {
        let [trace_id] = store.traces_for_sn(sn)[..] else {
            panic!("sn {sn} must have exactly one trace");
        };
        let spans = store.assemble(trace_id);
        let flush = spans
            .iter()
            .find(|span| span.stage == Stage::BatchFlush)
            .expect("the primary traced the flush");
        assert_eq!((flush.start_ms, flush.end_ms), (entered, 40), "sn {sn}");
    }
}

#[test]
fn view_change_carries_a_prepared_batch_bit_identically() {
    let config = Config::new(4).unwrap().with_max_batch_size(3);
    let mut cluster = Cluster::with_config(4, config);
    // The batch prepares everywhere but never commits.
    cluster.set_filter(|_, message| !matches!(message.message, Message::Commit(_)));
    for tag in 1..=3 {
        cluster.replicas[0].propose(request(tag, 0));
    }
    cluster.run_until_quiet();
    assert!(cluster.collected.decides.is_empty());

    cluster.set_filter(|_, _| true);
    cluster.replicas[1].suspect(NodeId(0));
    cluster.replicas[2].suspect(NodeId(0));
    cluster.run_until_quiet();

    // The new primary re-proposed the prepared batch unchanged: every
    // request decides at its original sequence number with its original
    // payload.
    for id in 1..4 {
        let decides = cluster.decides_on(id);
        assert_eq!(decides.len(), 3, "replica {id}");
        for (i, (sn, payload)) in decides.iter().enumerate() {
            assert_eq!(*sn, i as u64 + 1, "replica {id}");
            assert_eq!(payload, &vec![i as u8 + 1; 16], "replica {id}");
        }
    }
}

#[test]
fn ordering_continues_after_a_batched_view_change() {
    let config = Config::new(4).unwrap().with_max_batch_size(2);
    let mut cluster = Cluster::with_config(4, config);
    cluster.replicas[0].propose(request(1, 0));
    cluster.replicas[0].propose(request(2, 0));
    cluster.run_until_quiet();

    cluster.replicas[1].suspect(NodeId(0));
    cluster.replicas[2].suspect(NodeId(0));
    cluster.run_until_quiet();
    assert_eq!(cluster.replicas[1].view(), 1);

    // The new primary proposes a fresh full batch; its base sequence
    // number continues after the decided batch.
    cluster.replicas[1].propose(request(5, 1));
    cluster.replicas[1].propose(request(6, 1));
    cluster.run_until_quiet();
    let decides = cluster.decides_on(2);
    assert_eq!(decides.len(), 4);
    assert_eq!(decides[2].0, 3, "fresh batch starts at sn 3");
    assert_eq!(decides[3].0, 4);
    assert_eq!(decides[3].1, vec![6; 16]);
}

/// Regression for the lost-prepare stall: a replica that re-receives a
/// preprepare with a matching digest must re-broadcast its Prepare
/// instead of silently ignoring the duplicate.
#[test]
fn redelivered_preprepare_rebroadcasts_the_prepare() {
    let mut cluster = Cluster::new(4);
    let (pairs, _) = Keystore::generate(4, 42);
    let pp = SignedMessage::sign(
        NodeId(0),
        Message::PrePrepare(PrePrepare {
            view: 0,
            sn: 1,
            batch: ProposedBatch::single(request(3, 0)),
        }),
        &pairs[0],
    );
    cluster.replicas[1].on_message(pp.clone());
    // The first Prepare broadcast is lost in transit.
    let first = cluster.replicas[1].drain_effects();
    assert!(first.iter().any(|effect| matches!(
        effect,
        Effect::Broadcast { message } if matches!(message.message, Message::Prepare(_))
    )));

    cluster.replicas[1].on_message(pp);
    let second = cluster.replicas[1].drain_effects();
    assert!(
        second.iter().any(|effect| matches!(
            effect,
            Effect::Broadcast { message } if matches!(message.message, Message::Prepare(_))
        )),
        "a duplicate preprepare with a matching digest must re-trigger the Prepare"
    );
}

/// Regression for the lost-prepare stall, end to end: with enough
/// prepares lost the slot cannot commit, and retransmitting the
/// preprepare (rather than a full view change) heals it.
#[test]
fn lost_prepares_heal_when_the_preprepare_is_retransmitted() {
    let mut cluster = Cluster::new(4);
    // Every Prepare broadcast by nodes 1 and 2 vanishes: node 3 and the
    // primary never assemble a prepared certificate, so no slot commits.
    cluster.set_filter(|_, message| {
        !(matches!(message.message, Message::Prepare(_))
            && (message.from == NodeId(1) || message.from == NodeId(2)))
    });
    cluster.replicas[0].propose(request(4, 0));
    cluster.run_until_quiet();
    assert!(
        cluster.collected.decides.is_empty(),
        "the slot must stall with the prepares lost"
    );

    // The network heals and the primary retransmits its preprepare.
    // Replicas 1 and 2 already accepted it; the duplicate must make them
    // re-broadcast their Prepare so the slot commits everywhere.
    cluster.set_filter(|_, _| true);
    let (pairs, _) = Keystore::generate(4, 42);
    let pp = SignedMessage::sign(
        NodeId(0),
        Message::PrePrepare(PrePrepare {
            view: 0,
            sn: 1,
            batch: ProposedBatch::single(request(4, 0)),
        }),
        &pairs[0],
    );
    for id in [1usize, 2] {
        cluster.replicas[id].on_message(pp.clone());
        cluster.pump(id);
    }
    cluster.run_until_quiet();
    for id in 0..4 {
        assert_eq!(cluster.decides_on(id).len(), 1, "replica {id} commits");
    }
}

/// Regression for buffered-message starvation: with the buffer at
/// exactly its capacity limit, the entry for the *farthest* future view
/// must be evicted — dropping the newest arrival instead starves the
/// nearest-view traffic that lets a partitioned replica rejoin.
#[test]
fn full_buffer_evicts_farthest_view_so_a_healing_partition_replays() {
    let config = Config::new(4).unwrap().with_max_buffered_messages(3);
    let mut cluster = Cluster::with_config(4, config.clone());
    let (pairs, _) = Keystore::generate(4, 42);

    let prepare = |view: u64, sn: u64, from: u64, digest: Digest| {
        SignedMessage::sign(
            NodeId(from),
            Message::Prepare(crate::Prepare { view, sn, digest }),
            &pairs[from as usize],
        )
    };

    // Node 3 sits behind a partition in view 0 while the rest of the
    // group races ahead: stray view-9 traffic fills its buffer to the
    // limit first.
    for sn in 1..=3 {
        cluster.replicas[3].on_message(prepare(9, sn, 1, Digest::ZERO));
    }
    assert_eq!(cluster.replicas[3].progress_snapshot().4, 3);

    // As the partition heals, the view-1 ordering round for sn 1
    // arrives. Each message must displace a view-9 entry.
    let batch = ProposedBatch::single(request(1, 0));
    let digest = batch.digest();
    let pp = SignedMessage::sign(
        NodeId(1),
        Message::PrePrepare(PrePrepare {
            view: 1,
            sn: 1,
            batch,
        }),
        &pairs[1],
    );
    cluster.replicas[3].on_message(pp);
    cluster.replicas[3].on_message(prepare(1, 1, 2, digest));
    cluster.replicas[3].on_message(prepare(1, 1, 0, digest));
    assert_eq!(
        cluster.replicas[3].progress_snapshot().4,
        3,
        "buffer stays at its limit"
    );

    // The NewView for view 1 finally reaches node 3.
    let votes: Vec<SignedMessage> = [0u64, 1, 2]
        .iter()
        .map(|&id| {
            SignedMessage::sign(
                NodeId(id),
                Message::ViewChange(crate::ViewChange {
                    new_view: 1,
                    last_stable_sn: 0,
                    checkpoint_proof: None,
                    prepared: Vec::new(),
                }),
                &pairs[id as usize],
            )
        })
        .collect();
    let new_view = SignedMessage::sign(
        NodeId(1),
        Message::NewView(crate::NewView {
            view: 1,
            view_changes: votes,
            preprepares: Vec::new(),
        }),
        &pairs[1],
    );
    cluster.replicas[3].on_message(new_view);
    let _ = cluster.replicas[3].drain_effects();

    // The buffered view-1 round replayed: the slot holds the preprepare
    // plus both prepares and reaches the prepared milestone. Under the
    // old drop-newest policy the buffer would still hold the useless
    // view-9 strays and the slot would not exist.
    let slots = cluster.replicas[3].slot_snapshot();
    assert!(
        slots
            .iter()
            .any(|&(sn, has_pp, prepares, _, prepared, _)| sn == 1
                && has_pp
                && prepares >= 2
                && prepared),
        "view-1 traffic must survive eviction and replay: {slots:?}"
    );
}

#[test]
fn resumed_replica_continues_after_its_checkpoint() {
    // Run a group, checkpoint at sn 3, then "power-cycle" every replica
    // via Replica::resume and order new requests.
    let mut cluster = Cluster::new(4);
    for tag in 1..=3 {
        cluster.replicas[0].propose(request(tag, 0));
    }
    cluster.run_until_quiet();
    let state = Digest::of(b"block-1");
    for replica in &mut cluster.replicas {
        replica.record_checkpoint(3, state);
    }
    cluster.run_until_quiet();
    let proof = cluster.replicas[0]
        .last_stable_proof()
        .expect("stable")
        .clone();

    // Restart all four from the proof.
    let config = Config::new(4).unwrap();
    let (pairs, keystore) = Keystore::generate(4, 42);
    cluster.replicas = pairs
        .into_iter()
        .enumerate()
        .map(|(id, key)| {
            Replica::resume(
                NodeId(id as u64),
                config.clone(),
                key,
                keystore.clone(),
                proof.clone(),
            )
        })
        .collect();
    cluster.collected = Default::default();

    assert_eq!(cluster.replicas[1].low_watermark(), 3);
    cluster.replicas[0].propose(request(9, 0));
    cluster.run_until_quiet();
    for id in 0..4 {
        let decides = cluster.decides_on(id);
        assert_eq!(
            decides,
            vec![(4, vec![9; 16])],
            "replica {id} continues at sn 4"
        );
    }
}

/// Regression: a Byzantine backup must not be able to launder an
/// overlapping preprepare past the batch-overlap check by interposing a
/// vote-only slot. The batch at sn 1 covers 1..=4; a stray prepare at
/// sn 3 creates a preprepare-less slot between the batch's base and an
/// equivocating preprepare at sn 4, which must still be detected and
/// trigger a view change — accepting it would let two committed batches
/// cover the same sequence number (divergent logs).
#[test]
fn overlapping_preprepare_behind_a_vote_only_slot_is_equivocation() {
    let config = Config::new(4).unwrap().with_max_batch_size(4);
    let mut cluster = Cluster::with_config(4, config);
    let (pairs, _) = Keystore::generate(4, 42);

    let batch = ProposedBatch::new((1u8..=4).map(|tag| request(tag, 0)).collect());
    let pp = SignedMessage::sign(
        NodeId(0),
        Message::PrePrepare(PrePrepare {
            view: 0,
            sn: 1,
            batch,
        }),
        &pairs[0],
    );
    cluster.replicas[1].on_message(pp);
    let _ = cluster.replicas[1].drain_effects();

    // Byzantine node 2 interposes a vote-only slot mid-batch...
    let stray = SignedMessage::sign(
        NodeId(2),
        Message::Prepare(crate::Prepare {
            view: 0,
            sn: 3,
            digest: Digest::ZERO,
        }),
        &pairs[2],
    );
    cluster.replicas[1].on_message(stray);

    // ...so the equivocating primary's second preprepare at sn 4 (a
    // number the first batch already owns) has a preprepare-less
    // nearest predecessor.
    let overlapping = SignedMessage::sign(
        NodeId(0),
        Message::PrePrepare(PrePrepare {
            view: 0,
            sn: 4,
            batch: ProposedBatch::single(request(9, 0)),
        }),
        &pairs[0],
    );
    cluster.replicas[1].on_message(overlapping);

    let effects = cluster.replicas[1].drain_effects();
    assert!(
        effects.iter().any(|effect| matches!(
            effect,
            Effect::Broadcast { message } if matches!(message.message, Message::ViewChange(_))
        )),
        "an overlapping preprepare behind a vote-only slot must trigger a view change"
    );
    assert!(
        cluster.replicas[1]
            .slot_snapshot()
            .iter()
            .all(|&(sn, has_pp, ..)| sn != 4 || !has_pp),
        "the overlapping preprepare must not be accepted"
    );
}

/// Regression: a stray vote-only slot between a straddling batch's base
/// and the next undecided sequence number must not wedge decides. A
/// checkpoint quorum lands mid-batch (decided_up_to jumps to 2 inside a
/// batch covering 1..=4), a Byzantine prepare creates a vote-only slot
/// at sn 3, and the batch's tail must still decide once it commits.
#[test]
fn decides_resume_past_a_vote_only_slot_after_a_mid_batch_checkpoint() {
    let config = Config::new(4).unwrap().with_max_batch_size(4);
    let (pairs, keystore) = Keystore::generate(4, 42);
    let mut replica = Replica::new(NodeId(3), config, pairs[3].clone(), keystore);

    // The primary's batch covers sn 1..=4.
    let batch = ProposedBatch::new((1u8..=4).map(|tag| request(tag, 0)).collect());
    let digest = batch.digest();
    let pp = SignedMessage::sign(
        NodeId(0),
        Message::PrePrepare(PrePrepare {
            view: 0,
            sn: 1,
            batch,
        }),
        &pairs[0],
    );
    replica.on_message(pp);

    // A checkpoint quorum at sn 2 lands mid-batch: the watermark and
    // decided_up_to jump to 2 while the batch still owes sn 3 and 4.
    for id in 0..3u64 {
        let vote = SignedMessage::sign(
            NodeId(id),
            Message::Checkpoint(crate::Checkpoint {
                sn: 2,
                state_digest: Digest::of(b"mid-batch"),
            }),
            &pairs[id as usize],
        );
        replica.on_message(vote);
    }
    assert_eq!(
        replica.progress_snapshot().2,
        2,
        "decided_up_to jumped to 2"
    );

    // Byzantine node 2 interposes a vote-only slot at sn 3, right
    // between the batch's base and the next undecided sequence number.
    let stray = SignedMessage::sign(
        NodeId(2),
        Message::Prepare(crate::Prepare {
            view: 0,
            sn: 3,
            digest: Digest::ZERO,
        }),
        &pairs[2],
    );
    replica.on_message(stray);

    // The rest of the round arrives and the batch commits.
    for id in [1u64, 2] {
        let prepare = SignedMessage::sign(
            NodeId(id),
            Message::Prepare(crate::Prepare {
                view: 0,
                sn: 1,
                digest,
            }),
            &pairs[id as usize],
        );
        replica.on_message(prepare);
    }
    for id in [0u64, 1] {
        let commit = SignedMessage::sign(
            NodeId(id),
            Message::Commit(crate::Commit {
                view: 0,
                sn: 1,
                digest,
            }),
            &pairs[id as usize],
        );
        replica.on_message(commit);
    }

    let decided: Vec<(u64, Vec<u8>)> = replica
        .drain_effects()
        .into_iter()
        .filter_map(|effect| match effect {
            Effect::Output(ReplicaEvent::Decide { sn, request, .. }) => Some((sn, request.payload)),
            _ => None,
        })
        .collect();
    assert_eq!(
        decided,
        vec![(3, vec![3; 16]), (4, vec![4; 16])],
        "the batch's tail must decide despite the vote-only slot at sn 3"
    );
}

/// Regression: with the buffer at capacity, an incoming message for a
/// view at or beyond the farthest buffered view must be dropped — under
/// the old policy it displaced a nearer-view entry, inverting the
/// "nearest future views survive" rule for the first arrival after the
/// buffer fills.
#[test]
fn full_buffer_drops_incoming_farther_view_message() {
    let config = Config::new(4).unwrap().with_max_buffered_messages(3);
    let mut cluster = Cluster::with_config(4, config);
    let (pairs, _) = Keystore::generate(4, 42);

    // The complete view-1 round for sn 1 fills node 3's buffer.
    let batch = ProposedBatch::single(request(1, 0));
    let digest = batch.digest();
    let pp = SignedMessage::sign(
        NodeId(1),
        Message::PrePrepare(PrePrepare {
            view: 1,
            sn: 1,
            batch,
        }),
        &pairs[1],
    );
    cluster.replicas[3].on_message(pp);
    for from in [2u64, 0] {
        let prepare = SignedMessage::sign(
            NodeId(from),
            Message::Prepare(crate::Prepare {
                view: 1,
                sn: 1,
                digest,
            }),
            &pairs[from as usize],
        );
        cluster.replicas[3].on_message(prepare);
    }
    assert_eq!(cluster.replicas[3].progress_snapshot().4, 3);

    // A stray view-9 message hits the full buffer: it is farther out
    // than everything buffered and must be dropped, not traded for a
    // view-1 entry.
    let ignored_before = cluster.replicas[3].stats().ignored;
    let stray = SignedMessage::sign(
        NodeId(2),
        Message::Prepare(crate::Prepare {
            view: 9,
            sn: 1,
            digest: Digest::ZERO,
        }),
        &pairs[2],
    );
    cluster.replicas[3].on_message(stray);
    assert_eq!(cluster.replicas[3].progress_snapshot().4, 3);
    assert_eq!(cluster.replicas[3].stats().ignored, ignored_before + 1);

    // The NewView arrives; the full view-1 round must replay.
    let votes: Vec<SignedMessage> = [0u64, 1, 2]
        .iter()
        .map(|&id| {
            SignedMessage::sign(
                NodeId(id),
                Message::ViewChange(crate::ViewChange {
                    new_view: 1,
                    last_stable_sn: 0,
                    checkpoint_proof: None,
                    prepared: Vec::new(),
                }),
                &pairs[id as usize],
            )
        })
        .collect();
    let new_view = SignedMessage::sign(
        NodeId(1),
        Message::NewView(crate::NewView {
            view: 1,
            view_changes: votes,
            preprepares: Vec::new(),
        }),
        &pairs[1],
    );
    cluster.replicas[3].on_message(new_view);
    let _ = cluster.replicas[3].drain_effects();

    assert_eq!(
        cluster.replicas[3].progress_snapshot().4,
        0,
        "no stray future-view traffic survives the replay"
    );
    let slots = cluster.replicas[3].slot_snapshot();
    assert!(
        slots
            .iter()
            .any(|&(sn, has_pp, prepares, _, prepared, _)| sn == 1
                && has_pp
                && prepares >= 3
                && prepared),
        "the full view-1 round must survive the stray: {slots:?}"
    );
}
