//! The one threaded node event loop.
//!
//! The channel runtime ([`runtime`](crate::runtime)) and the TCP mesh
//! ([`tcp`](crate::tcp)) used to carry two near-identical copies of the
//! same loop: receive with a timeout, fire due timers, match over node
//! actions. Both now share this module — a `zugchain_machine::Driver`
//! over [`TrainMachine<ZugchainNode>`] plus a [`PeerLink`] that captures
//! the only real difference between them: how a [`Frame`] reaches a peer.
//!
//! Channels deliver by cloning the message out of the frame (never
//! encoding); TCP writes [`Frame::bytes`] — computed once per broadcast —
//! into every peer's send buffer. The link is also where a node waits:
//! the channel link blocks in `recv_timeout`, the TCP link in `poll(2)`
//! on its sockets.
//!
//! The loop works in bursts: it waits for inputs, takes everything ready
//! at that moment, handles that burst (stopping early only if the
//! earliest armed timer comes due), fires due timers, and only then calls
//! [`PeerLink::flush`]. A link that buffers (TCP) thus sends every frame
//! a burst produced for one peer in one write, and nothing is ever left
//! buffered while the loop waits. Inputs that arrive while a burst is
//! handled belong to the next one: under a steady stream of traffic a
//! burst still ends, so its frames are not held back by later arrivals.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zugchain::{
    NodeEvent, NodeInput, NodeMessage, NodeObserver, TimerId, TrainMachine, TrainNode as _,
    ZugchainNode,
};
use zugchain_blockchain::DiskStore;
use zugchain_machine::{Driver, Frame, Host};
use zugchain_mvb::Telegram;
use zugchain_pbft::NodeId;
use zugchain_telemetry::Telemetry;

use crate::runtime::{ClusterEvent, NodeSummary};
use crate::tcp::Doorbell;

/// Input to a threaded node loop, shared by both transports.
#[derive(Debug)]
pub(crate) enum LoopInput {
    /// A consolidated bus payload delivered to this node.
    RawPayload(Vec<u8>),
    /// Telegrams of one bus cycle.
    Telegrams {
        cycle: u64,
        time_ms: u64,
        telegrams: Vec<Telegram>,
    },
    /// A network message from a peer.
    Message(NodeMessage),
    /// Crash the node (stop processing, keep the thread for state
    /// collection).
    Crash,
    /// Stop and report state.
    Shutdown,
}

/// How a node's inputs arrive and its frames leave — the only
/// transport-specific part of the loop.
pub(crate) trait PeerLink {
    /// Cluster size (including this node).
    fn peer_count(&self) -> usize;

    /// Delivers `frame` to peer `to` (never called with `to == self`).
    /// A link may hold the frame back until [`flush`](Self::flush), but
    /// frames to one peer always leave in the order they were delivered.
    fn deliver(&mut self, to: usize, frame: &Frame<NodeMessage>);

    /// Sends everything delivered so far, or hands what the peer cannot
    /// take yet to [`wait`](Self::wait). The loop calls this after each
    /// burst, before it waits again.
    fn flush(&mut self);

    /// Waits until an input is ready or `timeout` passes, then appends
    /// every input ready at that moment to `burst`. Returns `false` once
    /// no input can arrive any more (the cluster handle is gone).
    fn wait(&mut self, timeout: Duration, burst: &mut VecDeque<LoopInput>) -> bool;

    /// Sends whatever [`flush`](Self::flush) left behind. The loop calls
    /// this once, as it exits.
    fn close(&mut self) {
        self.flush();
    }
}

/// What a live cluster's transport supplies: the only part of its
/// set-up that differs between channels and TCP. Everything else (keys,
/// telemetry, the status server, data directories, thread spawn and
/// every accessor) is [`LiveCluster`](crate::runtime::LiveCluster)'s.
pub(crate) trait Transport {
    /// Node threads are named `<THREAD_NAME>-<id>`.
    const THREAD_NAME: &'static str;
    /// A node's end of the transport, moved onto its thread.
    type Link: PeerLink + Send + 'static;

    /// Connects `n` nodes: each node's link and the cluster handle's side
    /// of its inbox, by id.
    fn connect(n: usize) -> io::Result<Vec<(Self::Link, Inbox)>>;
}

/// The cluster handle's side of one node's inbox.
pub(crate) struct Inbox {
    pub(crate) inputs: SyncSender<LoopInput>,
    /// Rung after each queued input, for a node that waits on more than
    /// its inbox (TCP's `poll`); channel nodes wait on the inbox itself.
    pub(crate) doorbell: Option<Arc<Doorbell>>,
}

impl Inbox {
    /// Queues `input`, waiting while the inbox is full.
    pub(crate) fn send(&self, input: LoopInput) {
        if self.inputs.send(input).is_ok() {
            if let Some(doorbell) = &self.doorbell {
                doorbell.ring();
            }
        }
    }
}

/// How long the loop waits when no timer is armed. Every input wakes the
/// loop before that, so this only bounds how late a node notices that its
/// cluster handle was dropped without a `Shutdown`.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// The channel runtime's wait: block for one input, then take everything
/// already queued behind it.
pub(crate) fn recv_burst(
    inbox: &Receiver<LoopInput>,
    timeout: Duration,
    burst: &mut VecDeque<LoopInput>,
) -> bool {
    match inbox.recv_timeout(timeout) {
        Ok(input) => burst.push_back(input),
        Err(RecvTimeoutError::Timeout) => {}
        Err(RecvTimeoutError::Disconnected) => return false,
    }
    burst.extend(inbox.try_iter());
    true
}

/// A channel link: in-process delivery clones the message out of the
/// frame; nothing is ever wire-encoded.
pub(crate) struct ChannelLink {
    pub(crate) peers: Vec<SyncSender<LoopInput>>,
    pub(crate) inbox: Receiver<LoopInput>,
}

impl PeerLink for ChannelLink {
    fn peer_count(&self) -> usize {
        self.peers.len()
    }

    fn deliver(&mut self, to: usize, frame: &Frame<NodeMessage>) {
        if let Some(sender) = self.peers.get(to) {
            let _ = sender.send(LoopInput::Message(frame.to_message()));
        }
    }

    /// Nothing to do: a channel send is already a delivery.
    fn flush(&mut self) {}

    fn wait(&mut self, timeout: Duration, burst: &mut VecDeque<LoopInput>) -> bool {
        recv_burst(&self.inbox, timeout, burst)
    }
}

/// The runtime-mechanics side of the driver: frames go through the link,
/// timers into a deadline map served by the link's wait, outputs onto the
/// cluster event stream (with blocks persisted *before* being reported).
struct ThreadHost<'a, T: PeerLink> {
    id: NodeId,
    link: &'a mut T,
    deadlines: &'a mut BTreeMap<TimerId, (Instant, u64)>,
    events: &'a Sender<ClusterEvent>,
    disk: Option<&'a DiskStore>,
    /// The loop's crashed flag. Once set, no frame, event or disk write
    /// leaves the node.
    crashed: &'a mut bool,
}

impl<T: PeerLink> Host<TrainMachine<ZugchainNode>> for ThreadHost<'_, T> {
    fn send(&mut self, to: NodeId, frame: &Frame<NodeMessage>) {
        if !*self.crashed && to != self.id && (to.0 as usize) < self.link.peer_count() {
            self.link.deliver(to.0 as usize, frame);
        }
    }

    fn broadcast(&mut self, frame: &Frame<NodeMessage>) {
        if *self.crashed {
            return;
        }
        for peer in 0..self.link.peer_count() {
            if peer as u64 != self.id.0 {
                self.link.deliver(peer, frame);
            }
        }
    }

    fn set_timer(&mut self, id: TimerId, gen: u64, duration_ms: u64) {
        self.deadlines.insert(
            id,
            (Instant::now() + Duration::from_millis(duration_ms), gen),
        );
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.deadlines.remove(&id);
    }

    fn output(&mut self, output: NodeEvent) {
        if *self.crashed {
            return;
        }
        match output {
            NodeEvent::Logged {
                sn,
                origin,
                payload,
                digest,
            } => {
                let _ = self.events.send(ClusterEvent::Logged {
                    node: self.id,
                    sn,
                    origin,
                    payload_len: payload.len(),
                    digest,
                });
            }
            NodeEvent::BlockCreated { block } => {
                if let Some(disk) = self.disk {
                    // Durable before reported: a block is only announced
                    // once it would survive power loss.
                    disk.write_block(&block).expect("persist block");
                }
                let _ = self.events.send(ClusterEvent::BlockCreated {
                    node: self.id,
                    height: block.height(),
                    hash: block.hash(),
                });
            }
            NodeEvent::CheckpointStable { proof } => {
                if let Some(disk) = self.disk {
                    disk.write_proof(proof.checkpoint.sn, &zugchain_wire::to_bytes(&proof))
                        .expect("persist checkpoint proof");
                }
                let _ = self.events.send(ClusterEvent::CheckpointStable {
                    node: self.id,
                    sn: proof.checkpoint.sn,
                });
            }
            NodeEvent::NewPrimary { view, primary } => {
                let _ = self.events.send(ClusterEvent::ViewChange {
                    node: self.id,
                    view,
                    primary,
                });
            }
            // The quorum checkpointed decides this node never saw (it
            // restarted behind its peers), and the live loop serves no
            // state transfer: the node stops as if crashed, rather than
            // record its next decides on a chain that lacks them.
            NodeEvent::StateTransferNeeded { .. } => *self.crashed = true,
        }
    }
}

/// The per-node event loop: inputs in, effects routed by the driver,
/// timers via the link's wait against the earliest deadline, the link
/// flushed once per burst (see the module docs). `start` is the
/// cluster's common clock origin, so every node stamps its events on one
/// timeline.
pub(crate) fn node_loop<T: PeerLink>(
    mut node: ZugchainNode,
    mut link: T,
    events: Sender<ClusterEvent>,
    disk: Option<DiskStore>,
    telemetry: Telemetry,
    start: Instant,
) -> NodeSummary {
    let id = node.id();
    node.set_telemetry(&telemetry);
    // A node thread that dies mid-run leaves its last events on stderr.
    telemetry.dump_on_panic();
    let mut driver = Driver::with_observer(
        TrainMachine(node),
        Box::new(NodeObserver::new(telemetry.clone())),
    );
    let mut deadlines: BTreeMap<TimerId, (Instant, u64)> = BTreeMap::new();
    let mut crashed = false;
    // The current burst: inputs taken from the link, not yet handled.
    let mut burst = VecDeque::new();

    'run: loop {
        // A crashed or stopped node fires no timer again.
        if crashed {
            deadlines.clear();
            driver.clear_timers();
        }
        if burst.is_empty() {
            let now = Instant::now();
            let timeout = deadlines
                .values()
                .map(|(deadline, _)| deadline.saturating_duration_since(now))
                .min()
                .unwrap_or(IDLE_WAIT);
            // The burst is what is ready now. Inputs that arrive while it
            // is handled wait for the next burst, so no frame stays
            // buffered for longer than one burst takes.
            if !link.wait(timeout, &mut burst) {
                break;
            }
        }
        while let Some(input) = burst.pop_front() {
            let input = match input {
                LoopInput::Shutdown => break 'run,
                LoopInput::Crash => {
                    crashed = true;
                    None
                }
                _ if crashed => None,
                LoopInput::RawPayload(payload) => Some(NodeInput::RawPayload {
                    payload,
                    time_ms: start.elapsed().as_millis() as u64,
                }),
                LoopInput::Telegrams {
                    cycle,
                    time_ms,
                    telegrams,
                } => Some(NodeInput::BusCycle {
                    source: 0,
                    cycle,
                    time_ms,
                    telegrams,
                }),
                LoopInput::Message(message) => Some(NodeInput::Message(message)),
            };
            // Live runtimes stamp events with wall time since cluster
            // start, read after the wait so that an input is never
            // stamped earlier than its sender's own events.
            telemetry.set_time_ms(start.elapsed().as_millis() as u64);
            if let Some(input) = input {
                let mut host = ThreadHost {
                    id,
                    link: &mut link,
                    deadlines: &mut deadlines,
                    events: &events,
                    disk: disk.as_ref(),
                    crashed: &mut crashed,
                };
                driver.on_input(input, &mut host);
            }
            // A due timer cuts the burst short; the rest of it is handled
            // once the timer has fired.
            let now = Instant::now();
            if deadlines.values().any(|(deadline, _)| *deadline <= now) {
                break;
            }
        }

        // Fire due timers.
        if !crashed {
            telemetry.set_time_ms(start.elapsed().as_millis() as u64);
            let now = Instant::now();
            let due: Vec<(TimerId, u64)> = deadlines
                .iter()
                .filter(|(_, (deadline, _))| *deadline <= now)
                .map(|(timer, (_, gen))| (*timer, *gen))
                .collect();
            for (timer, gen) in due {
                // A previously fired timer may have re-armed this one: only
                // consume the deadline if it still belongs to `gen`.
                match deadlines.get(&timer) {
                    Some((_, current)) if *current == gen => deadlines.remove(&timer),
                    _ => continue,
                };
                let mut host = ThreadHost {
                    id,
                    link: &mut link,
                    deadlines: &mut deadlines,
                    events: &events,
                    disk: disk.as_ref(),
                    crashed: &mut crashed,
                };
                driver.on_timer_fired(timer, gen, &mut host);
            }
        }
        link.flush();
    }
    // On `Shutdown` (or a dropped inbox) the last burst's frames still
    // leave.
    link.close();

    let mut node = driver.into_machine().0;
    NodeSummary {
        id,
        stats: node.stats(),
        stable_proofs: node.stable_proofs().to_vec(),
        chain: std::mem::take(node.chain_mut()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, sync_channel};
    use std::sync::{Arc, Mutex};
    use zugchain::NodeConfig;
    use zugchain_crypto::Keystore;
    use zugchain_mvb::Nsdb;
    use zugchain_pbft::Message;

    /// What a [`RecordingLink`] saw: deliveries not yet flushed, and the
    /// deliveries of each flush that sent something.
    #[derive(Default)]
    struct Wire {
        pending: Vec<(usize, NodeMessage)>,
        flushes: Vec<Vec<(usize, NodeMessage)>>,
    }

    /// Records deliveries and flushes, and waits on a channel inbox as
    /// the channel link does. With `late` set, the first delivery also
    /// queues that input in the node's own inbox: an input that arrives
    /// while a burst is being handled.
    struct RecordingLink {
        wire: Arc<Mutex<Wire>>,
        inbox: Receiver<LoopInput>,
        late: Option<(SyncSender<LoopInput>, LoopInput)>,
    }

    impl PeerLink for RecordingLink {
        fn peer_count(&self) -> usize {
            4
        }

        fn deliver(&mut self, to: usize, frame: &Frame<NodeMessage>) {
            if let Some((inbox, input)) = self.late.take() {
                inbox.send(input).unwrap();
            }
            let mut wire = self.wire.lock().unwrap();
            wire.pending.push((to, frame.to_message()));
        }

        fn flush(&mut self) {
            let mut wire = self.wire.lock().unwrap();
            if !wire.pending.is_empty() {
                let sent = std::mem::take(&mut wire.pending);
                wire.flushes.push(sent);
            }
        }

        fn wait(&mut self, timeout: Duration, burst: &mut VecDeque<LoopInput>) -> bool {
            recv_burst(&self.inbox, timeout, burst)
        }
    }

    /// Sequence numbers of the preprepares among `deliveries` to `peer`.
    fn preprepares_to(deliveries: &[(usize, NodeMessage)], peer: usize) -> Vec<u64> {
        deliveries
            .iter()
            .filter(|(to, _)| *to == peer)
            .filter_map(|(_, message)| match message {
                NodeMessage::Consensus(signed) => match &signed.message {
                    Message::PrePrepare(preprepare) => Some(preprepare.sn),
                    _ => None,
                },
                NodeMessage::Layer(_) => None,
            })
            .collect()
    }

    /// Runs the primary's loop (node 0 of four) over `link`.
    fn spawn_primary(link: RecordingLink) -> std::thread::JoinHandle<NodeSummary> {
        let (pairs, keystore) = Keystore::generate(4, 11);
        let primary = ZugchainNode::new(
            0,
            NodeConfig::evaluation_default(),
            Nsdb::jru_default(),
            pairs[0].clone(),
            keystore,
        );
        let (events, _events_rx) = channel();
        std::thread::spawn(move || {
            node_loop(
                primary,
                link,
                events,
                None,
                Telemetry::disabled(),
                Instant::now(),
            )
        })
    }

    /// Waits until `wire` has seen a flush that sent something.
    fn await_first_flush(wire: &Mutex<Wire>) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while wire.lock().unwrap().flushes.is_empty() {
            assert!(Instant::now() < deadline, "the loop never flushed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_queued_burst_leaves_in_one_flush_and_shutdown_flushes_the_rest() {
        let (inbox_tx, inbox) = sync_channel(64);
        for tag in 0..5u8 {
            inbox_tx.send(LoopInput::RawPayload(vec![tag; 64])).unwrap();
        }
        let wire = Arc::new(Mutex::new(Wire::default()));
        let link = RecordingLink {
            wire: Arc::clone(&wire),
            inbox,
            late: None,
        };
        let node = spawn_primary(link);

        await_first_flush(&wire);
        // One more proposal, then `Shutdown` right behind it: the loop
        // exits from inside that burst.
        inbox_tx.send(LoopInput::RawPayload(vec![5; 64])).unwrap();
        inbox_tx.send(LoopInput::Shutdown).unwrap();
        node.join().unwrap();

        let wire = wire.lock().unwrap();
        assert!(wire.pending.is_empty(), "frames left buffered at shutdown");
        let later: Vec<(usize, NodeMessage)> = wire.flushes[1..].concat();
        for peer in 1..4 {
            assert_eq!(preprepares_to(&wire.flushes[0], peer), [1, 2, 3, 4, 5]);
            assert_eq!(preprepares_to(&later, peer), [6]);
        }
    }

    /// A burst is what was queued when the loop woke. A payload that
    /// arrives while the burst is handled waits for the next burst, so
    /// it cannot hold the burst's frames back.
    #[test]
    fn an_input_arriving_mid_burst_waits_for_the_next_flush() {
        let (inbox_tx, inbox) = sync_channel(64);
        for tag in 0..3u8 {
            inbox_tx.send(LoopInput::RawPayload(vec![tag; 64])).unwrap();
        }
        let wire = Arc::new(Mutex::new(Wire::default()));
        let link = RecordingLink {
            wire: Arc::clone(&wire),
            inbox,
            late: Some((inbox_tx.clone(), LoopInput::RawPayload(vec![3; 64]))),
        };
        let node = spawn_primary(link);

        // The late payload was queued during the first burst, so it is
        // ahead of `Shutdown` in the inbox.
        await_first_flush(&wire);
        inbox_tx.send(LoopInput::Shutdown).unwrap();
        node.join().unwrap();

        let wire = wire.lock().unwrap();
        let later: Vec<(usize, NodeMessage)> = wire.flushes[1..].concat();
        for peer in 1..4 {
            assert_eq!(preprepares_to(&wire.flushes[0], peer), [1, 2, 3]);
            assert_eq!(preprepares_to(&later, peer), [4]);
        }
    }
}
