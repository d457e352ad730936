//! A TCP transport for ZugChain clusters: the same node state machines as
//! [`runtime`](crate::runtime), but with consensus traffic carried over
//! real sockets in the canonical wire encoding — the shape of an actual
//! deployment on the train's Ethernet.
//!
//! Frames are length-prefixed: a big-endian `u32` byte count followed by
//! the canonical [`NodeMessage`] encoding. Malformed frames from a peer
//! are dropped (and the connection closed), never trusted.
//!
//! Outbound frames come from the shared [`node_loop`](crate::node_loop)
//! as [`Frame`]s: a broadcast encodes (and signs) the message **once**
//! and writes the same cached buffer to every peer socket, instead of
//! re-encoding per recipient.
//!
//! One thread per node owns all of that node's sockets. It waits in
//! `poll(2)` on its inbound sockets and on an eventfd that the cluster
//! handle rings after it queues an input; on each wake it reads every
//! ready socket into that peer's buffer, decodes each complete frame in
//! place, and then takes its inbox unless a socket still holds more. Outbound frames are appended to one buffer per peer and
//! leave when the loop flushes after each burst: a burst costs one
//! `write` per peer. Outbound sockets are non-blocking, so a peer that
//! stops reading keeps its frames in its buffer instead of stopping the
//! node; the rest leaves when `poll` reports the socket writable.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rustix::event::{eventfd, poll, EventfdFlags, PollFd, PollFlags, Timespec};
use zugchain::{NodeConfig, NodeMessage};
use zugchain_machine::Frame;
use zugchain_wire::{decode_traced, derive_span_id, derive_trace_id, encode_traced, TraceCtx};

use crate::node_loop::{Inbox, LoopInput, PeerLink, Transport};
use crate::runtime::{launch, LiveCluster};

/// Maximum accepted frame size (matches the wire crate's field limit).
const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Starting size of each inbound socket's read buffer and each outbound
/// socket's write buffer. One read or write moves a whole burst: at 16
/// requests in flight a saturated primary sends each peer about 25 kB per
/// burst (proposals of a 1 kB payload and their votes). A buffer grows
/// only for a larger burst or frame; a ViewChange can carry 256 prepared
/// 1 kB slots.
const SOCKET_BUFFER: usize = 64 * 1024;

/// How long a node that is shutting down keeps sending what its peers
/// have not taken yet. A peer that takes nothing for this long is gone or
/// wedged, and the node's summary must not wait on it.
const CLOSE_TIMEOUT: Duration = Duration::from_secs(1);

/// Inputs the cluster handle can queue for one node before `feed_*`
/// blocks. A node takes its inbox only once it has caught up with its
/// peers' frames (see [`TcpLink::wait`]), so this bounds how far a slow
/// replica falls behind the quorum before the feeder waits for it: 32
/// requests plus those in flight stay well inside the 80 decided requests
/// (8 checkpoints of 10) its duplicate filter remembers, so a bus copy
/// taken late is still recognised as decided.
const INBOX_CAPACITY: usize = 32;

/// The trace context a frame carries on the wire. Request broadcasts name
/// the trace of the request they carry (derived from the same identity
/// every layer uses — the TCP harness runs one unlabelled train, id 0 —
/// and parented on the origin's `submit` span); everything else rides
/// bare, exactly as the legacy format, so mixed-version peers interop.
fn frame_trace_ctx(message: &NodeMessage) -> TraceCtx {
    match message {
        NodeMessage::Layer(layer) => {
            let request = &layer.request().request;
            if request.is_noop() {
                return TraceCtx::NONE;
            }
            let trace_id =
                derive_trace_id(0, request.origin.0, request.payload_digest().as_bytes());
            TraceCtx {
                trace_id,
                parent_span: derive_span_id(trace_id, "submit", request.origin.0),
            }
        }
        NodeMessage::Consensus(_) => TraceCtx::NONE,
    }
}

/// Appends one length-prefixed frame to `out`. The frame's inner encoding
/// is computed at most once and shared across every peer this frame is
/// written to; traced frames additionally carry the 17-byte envelope
/// (`magic ‖ TraceCtx`) in front of the unchanged inner bytes. A frame too
/// large for its length prefix is dropped.
fn encode_frame(out: &mut Vec<u8>, frame: &Frame<NodeMessage>) {
    let bytes = frame.bytes();
    let ctx = frame_trace_ctx(frame.message());
    let envelope = if ctx.is_traced() {
        encode_traced(ctx, &[])
    } else {
        Vec::new()
    };
    let Ok(len) = u32::try_from(envelope.len() + bytes.len()) else {
        return;
    };
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&envelope);
    out.extend_from_slice(bytes);
}

fn invalid_data(error: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, error.to_string())
}

/// Decodes one frame body. Frames in the traced envelope yield their
/// carried [`TraceCtx`]; legacy bare frames decode unchanged with
/// [`TraceCtx::NONE`].
fn decode_frame(body: &[u8]) -> io::Result<(TraceCtx, NodeMessage)> {
    let (ctx, inner) = decode_traced(body).map_err(invalid_data)?;
    let message = zugchain_wire::from_bytes(inner).map_err(invalid_data)?;
    Ok((ctx, message))
}

/// The length, prefix included, of the frame at the start of `pending`;
/// `None` while its 4-byte prefix is incomplete. A prefix beyond
/// [`MAX_FRAME_BYTES`] is refused before anything is buffered for it.
fn frame_len(pending: &[u8]) -> io::Result<Option<usize>> {
    let Some(prefix) = pending.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(prefix.try_into().expect("four bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(invalid_data("oversized frame"));
    }
    Ok(Some(4 + len as usize))
}

/// An inbound socket and what has been read from it but does not form a
/// whole frame yet.
struct Inbound<R> {
    stream: R,
    /// `buf[..filled]` holds the start of the next frame; every complete
    /// frame before it has been decoded.
    buf: Vec<u8>,
    filled: usize,
}

impl<R: Read> Inbound<R> {
    fn new(stream: R) -> Self {
        Self {
            stream,
            buf: vec![0; SOCKET_BUFFER],
            filled: 0,
        }
    }

    /// Reads once from the socket and hands each complete frame to
    /// `on_frame`, in order. Returns whether the read filled the buffer,
    /// so that the socket may hold more. An error closes this peer and
    /// nothing after it is trusted: end of stream (a frame cut short by
    /// it yields nothing), an oversized length prefix, or a frame that
    /// does not decode.
    fn read_frames(&mut self, mut on_frame: impl FnMut(TraceCtx, NodeMessage)) -> io::Result<bool> {
        if self.filled == self.buf.len() {
            // One incomplete frame fills the buffer: make room for all of
            // it (its prefix was checked when it was parsed).
            let total = frame_len(&self.buf)?.expect("a full buffer holds a prefix");
            self.buf.resize(total, 0);
        }
        let space = self.buf.len() - self.filled;
        let read = loop {
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(read) => break read,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        };
        self.filled += read;
        self.decode(&mut on_frame)?;
        Ok(read == space)
    }

    /// Decodes every complete frame in the buffer, then moves the
    /// incomplete rest to its front.
    fn decode(&mut self, on_frame: &mut impl FnMut(TraceCtx, NodeMessage)) -> io::Result<()> {
        let mut start = 0;
        while let Some(total) = frame_len(&self.buf[start..self.filled])? {
            if self.filled - start < total {
                break;
            }
            let (ctx, message) = decode_frame(&self.buf[start + 4..start + total])?;
            on_frame(ctx, message);
            start += total;
        }
        if start > 0 {
            self.buf.copy_within(start..self.filled, 0);
            self.filled -= start;
        }
        if self.filled == 0 && self.buf.len() > SOCKET_BUFFER {
            // Give back what one large frame took.
            self.buf.truncate(SOCKET_BUFFER);
            self.buf.shrink_to_fit();
        }
        Ok(())
    }
}

/// An outbound socket (non-blocking) and the frames delivered to it that
/// the kernel has not taken yet.
struct Outbound {
    stream: TcpStream,
    unsent: Vec<u8>,
}

impl Outbound {
    /// Writes what the kernel takes now and keeps the rest.
    fn send(&mut self) -> io::Result<()> {
        while !self.unsent.is_empty() {
            match (&self.stream).write(&self.unsent) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                // A short write means the socket buffer is full: the rest
                // waits until `poll` reports the socket writable.
                Ok(written) => {
                    self.unsent.drain(..written);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// A node's doorbell: the eventfd its `poll` watches, rung by whoever
/// queues an input in its inbox.
///
/// `rung` lets a ring skip the `write` while an earlier ring is still
/// unanswered. No wake-up is lost, because every access to `rung` is a
/// `swap` with acquire-release ordering:
/// * a sender queues its input, then swaps `rung` to `true`, and writes
///   the eventfd only if it read `false`;
/// * the node, on a wake where it takes its inbox and sees the eventfd
///   readable, reads it (resetting it), then swaps `rung` to `false`,
///   then drains the inbox. On a wake where it does not take its inbox
///   it leaves the eventfd readable, so its next `poll` returns at once.
///
/// Take any queued input and the sender's swap `S`. If `S` comes before
/// the node's swap `N` in `rung`'s order, `N` reads the value `S` wrote or
/// a later swap's; all of them are read-modify-writes, so `S` releases to
/// `N`, the queued input happens before the drain, and the drain takes
/// it. If `S` comes after `N`, then the first swap after `N` read
/// `false`, and its sender writes the eventfd after `N`: the counter
/// stays non-zero until the node's next answer, so its next `poll`
/// returns at once and the drain after that answer takes the input by
/// the same argument. A ring whose input an earlier drain already took
/// costs one empty wake, nothing more.
pub(crate) struct Doorbell {
    eventfd: File,
    rung: AtomicBool,
}

impl Doorbell {
    fn new() -> io::Result<Self> {
        let fd = eventfd(0, EventfdFlags::CLOEXEC | EventfdFlags::NONBLOCK)?;
        Ok(Self {
            eventfd: File::from(fd),
            rung: AtomicBool::new(false),
        })
    }

    /// Wakes the node. Call after queueing the input.
    pub(crate) fn ring(&self) {
        if !self.rung.swap(true, Ordering::AcqRel) {
            // Fails only if the counter would overflow, and then the
            // node is already woken.
            let _ = (&self.eventfd).write(&1u64.to_ne_bytes());
        }
    }

    /// Resets the eventfd. The node calls this when `poll` reports it
    /// readable, and drains the inbox after.
    fn answer(&self) {
        let mut counter = [0u8; 8];
        let _ = (&self.eventfd).read(&mut counter);
        self.rung.swap(false, Ordering::AcqRel);
    }
}

/// A node's sockets and inbox. Only the node's own thread touches them.
pub(crate) struct TcpLink {
    inbox: Receiver<LoopInput>,
    doorbell: Arc<Doorbell>,
    inbound: Vec<Inbound<TcpStream>>,
    /// By peer id; `None` for this node and for dead links.
    outbound: Vec<Option<Outbound>>,
    /// What the last `poll` reported, entry by entry.
    revents: Vec<PollFlags>,
}

impl TcpLink {
    fn new(
        inbox: Receiver<LoopInput>,
        doorbell: Arc<Doorbell>,
        inbound: Vec<TcpStream>,
        outbound: Vec<Option<TcpStream>>,
    ) -> io::Result<Self> {
        let inbound = inbound
            .into_iter()
            .map(|stream| {
                stream.set_nonblocking(true)?;
                Ok(Inbound::new(stream))
            })
            .collect::<io::Result<_>>()?;
        let outbound = outbound
            .into_iter()
            .map(|stream| {
                stream
                    .map(|stream| {
                        stream.set_nodelay(true)?;
                        stream.set_nonblocking(true)?;
                        Ok(Outbound {
                            stream,
                            unsent: Vec::with_capacity(SOCKET_BUFFER),
                        })
                    })
                    .transpose()
            })
            .collect::<io::Result<_>>()?;
        Ok(Self {
            inbox,
            doorbell,
            inbound,
            outbound,
            revents: Vec::new(),
        })
    }

    fn has_unsent(&self) -> bool {
        self.outbound
            .iter()
            .flatten()
            .any(|peer| !peer.unsent.is_empty())
    }
}

impl PeerLink for TcpLink {
    fn peer_count(&self) -> usize {
        self.outbound.len()
    }

    fn deliver(&mut self, to: usize, frame: &Frame<NodeMessage>) {
        if let Some(Some(peer)) = self.outbound.get_mut(to) {
            encode_frame(&mut peer.unsent, frame);
        }
    }

    // A failed peer write is a dead link, not a node error.
    fn flush(&mut self) {
        for slot in &mut self.outbound {
            if slot.as_mut().is_some_and(|peer| peer.send().is_err()) {
                *slot = None;
            }
        }
    }

    /// A burst is the frames the ready sockets held, then the inbox. While
    /// a socket still holds more than one read took, the inbox waits: a
    /// replica that has fallen behind its peers catches up on their frames
    /// before it takes new bus input, and once its inbox is full the
    /// cluster handle's `feed_*` waits for it. So it never starts a
    /// request's soft timeout far ahead of that request's votes, and the
    /// quorum cannot run ahead of it without bound.
    fn wait(&mut self, timeout: Duration, burst: &mut VecDeque<LoopInput>) -> bool {
        // The poll set: the doorbell, every inbound socket, and every
        // outbound socket that still holds unsent frames.
        let mut fds = Vec::with_capacity(1 + self.inbound.len() + self.outbound.len());
        fds.push(PollFd::new(&self.doorbell.eventfd, PollFlags::IN));
        for peer in &self.inbound {
            fds.push(PollFd::new(&peer.stream, PollFlags::IN));
        }
        for peer in self.outbound.iter().flatten() {
            if !peer.unsent.is_empty() {
                fds.push(PollFd::new(&peer.stream, PollFlags::OUT));
            }
        }
        let timeout = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // An interrupted poll is a wake with nothing ready.
        if poll(&mut fds, Some(&timeout)).is_err() {
            fds.iter_mut().for_each(PollFd::clear_revents);
        }
        self.revents.clear();
        self.revents.extend(fds.iter().map(PollFd::revents));
        drop(fds);

        let mut revents = self.revents.iter();
        let rung = revents.next().is_some_and(|ready| !ready.is_empty());
        let mut behind = false;
        self.inbound.retain_mut(|peer| {
            let ready = revents.next().expect("one entry per inbound socket");
            if ready.is_empty() {
                return true;
            }
            // The context is advisory: every layer re-derives the same
            // ids from data it holds.
            match peer.read_frames(|_ctx, message| burst.push_back(LoopInput::Message(message))) {
                Ok(more) => {
                    behind |= more;
                    true
                }
                Err(_) => false,
            }
        });
        let mut open = true;
        if !behind {
            if rung {
                self.doorbell.answer();
            }
            loop {
                match self.inbox.try_recv() {
                    Ok(input) => burst.push_back(input),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
        }
        for slot in &mut self.outbound {
            let Some(peer) = slot else { continue };
            if peer.unsent.is_empty() {
                continue;
            }
            let ready = revents.next().expect("one entry per waiting peer");
            if !ready.is_empty() && peer.send().is_err() {
                *slot = None;
            }
        }
        open
    }

    /// Keeps reading while it sends: a peer that is closing too may be
    /// waiting for this node to take its frames before it takes ours.
    fn close(&mut self) {
        self.flush();
        let deadline = Instant::now() + CLOSE_TIMEOUT;
        let mut discarded = VecDeque::new();
        while self.has_unsent() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            self.wait(left, &mut discarded);
            discarded.clear();
        }
    }
}

/// A node's link and the cluster handle's side of its inbox, over the
/// given sockets.
fn node_link(
    inbound: Vec<TcpStream>,
    outbound: Vec<Option<TcpStream>>,
) -> io::Result<(TcpLink, Inbox)> {
    let (inputs, inbox) = sync_channel(INBOX_CAPACITY);
    let doorbell = Arc::new(Doorbell::new()?);
    let link = TcpLink::new(inbox, Arc::clone(&doorbell), inbound, outbound)?;
    let doorbell = Some(doorbell);
    Ok((link, Inbox { inputs, doorbell }))
}

/// The socket transport: a full TCP mesh on loopback, one thread per node
/// owning all of that node's sockets.
pub struct Tcp;

impl Transport for Tcp {
    const THREAD_NAME: &'static str = "zugchain-tcp";
    type Link = TcpLink;

    fn connect(n: usize) -> io::Result<Vec<(TcpLink, Inbox)>> {
        // Bind every node's listener first so all addresses are known.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addresses: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<_>>()?;

        // Full mesh: node i owns outbound connections to every peer. A
        // loopback connect completes in the listener's backlog, so every
        // connection is dialled first and accepted after.
        let outbound: Vec<Vec<Option<TcpStream>>> = (0..n)
            .map(|id| {
                (0..n)
                    .map(|peer| {
                        (peer != id)
                            .then(|| TcpStream::connect(addresses[peer]))
                            .transpose()
                    })
                    .collect::<io::Result<_>>()
            })
            .collect::<io::Result<_>>()?;
        let inbound: Vec<Vec<TcpStream>> = listeners
            .iter()
            .map(|listener| {
                (1..n)
                    .map(|_| listener.accept().map(|(stream, _)| stream))
                    .collect::<io::Result<_>>()
            })
            .collect::<io::Result<_>>()?;
        inbound
            .into_iter()
            .zip(outbound)
            .map(|(inbound, outbound)| node_link(inbound, outbound))
            .collect()
    }
}

/// A live ZugChain cluster whose replica network is real TCP on loopback.
///
/// # Examples
///
/// ```no_run
/// use zugchain::NodeConfig;
/// use zugchain_sim::tcp::TcpCluster;
///
/// # fn main() -> std::io::Result<()> {
/// let cluster = TcpCluster::start(4, NodeConfig::evaluation_default())?;
/// cluster.feed_bus_payload_all(b"cycle 0".to_vec());
/// std::thread::sleep(std::time::Duration::from_millis(300));
/// let summaries = cluster.shutdown();
/// assert_eq!(summaries.len(), 4);
/// # Ok(())
/// # }
/// ```
pub type TcpCluster = LiveCluster<Tcp>;

impl TcpCluster {
    /// Starts `n` nodes listening on loopback and fully meshed over TCP.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding, accepting, or connecting.
    pub fn start(n: usize, config: NodeConfig) -> io::Result<Self> {
        launch(n, config, None)
    }

    /// Starts `n` meshed nodes that persist to, or resume from,
    /// `dir/node-<id>/`, exactly as
    /// [`ThreadedCluster::start_with_disk`](crate::runtime::ThreadedCluster::start_with_disk)
    /// does: four replicas over sockets, each writing its own disk.
    ///
    /// # Errors
    ///
    /// Socket errors as [`start`](Self::start), and I/O errors in a data
    /// directory.
    pub fn start_with_disk(
        n: usize,
        config: NodeConfig,
        dir: impl AsRef<Path>,
    ) -> io::Result<Self> {
        launch(n, config, Some(dir.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::mpsc::channel;
    use std::sync::Mutex;
    use std::thread::JoinHandle;
    use zugchain::{LayerMessage, SignedRequest, ZugchainNode};
    use zugchain_crypto::{Digest, KeyPair, Keystore};
    use zugchain_mvb::{Bus, BusConfig, Nsdb, SignalGenerator};
    use zugchain_telemetry::Telemetry;

    use crate::node_loop::node_loop;
    use crate::runtime::{ClusterEvent, NodeSummary, ThreadedCluster};
    use zugchain_pbft::{
        Checkpoint, CheckpointProof, Commit, Message, NewView, NodeId, PrePrepare, Prepare,
        PreparedCert, ProposedBatch, ProposedRequest, SignedMessage, ViewChange,
    };

    /// Per-node block progress from the registry; used both to converge
    /// and to produce a useful timeout diagnostic.
    fn blocks_by_node<T>(cluster: &LiveCluster<T>, n: usize) -> Vec<u64> {
        let registry = cluster.registry();
        (0..n)
            .map(|i| {
                let node = i.to_string();
                registry
                    .counter_value("zugchain_node_blocks_total", &[("node", node.as_str())])
                    .unwrap_or(0)
            })
            .collect()
    }

    fn decided_up_to_by_node<T>(cluster: &LiveCluster<T>, n: usize) -> Vec<i64> {
        let registry = cluster.registry();
        (0..n)
            .map(|i| {
                let node = i.to_string();
                registry
                    .gauge_value("zugchain_pbft_decided_up_to", &[("node", node.as_str())])
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Over real sockets, and over channels as one more input: both live
    /// clusters order the payloads and serve `/metrics` on their status
    /// address.
    #[test]
    fn tcp_cluster_orders_over_real_sockets() {
        let config = NodeConfig::evaluation_default().with_block_size(3);
        orders_and_serves_metrics(TcpCluster::start(4, config.clone()).expect("loopback sockets"));
        orders_and_serves_metrics(ThreadedCluster::start(4, config));
    }

    fn orders_and_serves_metrics<T>(cluster: LiveCluster<T>) {
        for tag in 0..6u8 {
            cluster.feed_bus_payload_all(vec![tag; 128]);
            std::thread::sleep(Duration::from_millis(25));
        }
        // Short-sleep poll against the registry until every node has
        // built block #2; on timeout, report per-node progress instead
        // of failing bare.
        let deadline = Instant::now() + Duration::from_secs(10);
        while blocks_by_node(&cluster, 4).iter().any(|blocks| *blocks < 2) {
            if Instant::now() >= deadline {
                panic!(
                    "cluster did not converge: blocks per node {:?}, decided_up_to per node {:?}",
                    blocks_by_node(&cluster, 4),
                    decided_up_to_by_node(&cluster, 4),
                );
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        // The live read path serves the same snapshot over HTTP: the
        // status socket is a real API server scraping `GET /metrics`.
        let mut status = zugchain_api::HttpClient::new(cluster.status_address);
        let health = status.get("/healthz", None).expect("GET /healthz");
        assert_eq!(health.status, 200);
        let response = status.get("/metrics", None).expect("GET /metrics");
        assert_eq!(response.status, 200);
        let exposition = response.text();
        assert!(exposition.contains("zugchain_pbft_decided_total"));
        assert!(exposition.contains("zugchain_node_blocks_total"));
        zugchain_telemetry::parse_prometheus(&exposition).expect("exposition parses");

        let summaries = cluster.shutdown();
        let head = summaries[0].chain.head_hash();
        for summary in &summaries {
            assert_eq!(summary.chain.height(), 2, "node {}", summary.id.0);
            assert_eq!(summary.chain.head_hash(), head);
            assert_eq!(summary.stats.logged, 6);
        }
    }

    /// JRU telegrams from the simulated MVB, fed per tap as the
    /// `train_journey` example feeds them, reach every node over sockets:
    /// all four log the same requests.
    #[test]
    fn tcp_cluster_logs_jru_telegrams() {
        let cluster = TcpCluster::start(4, NodeConfig::evaluation_default().with_block_size(5))
            .expect("loopback sockets");
        let mut bus = Bus::new(BusConfig::jru_default(64), 4, 7);
        bus.attach_device(Box::new(SignalGenerator::new(2026)));
        for _ in 0..60 {
            let out = bus.run_cycle();
            for obs in out.observations {
                cluster.feed_telegrams(obs.tap, out.cycle, out.time_ms, obs.telegrams);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Collect until the cluster has been quiet for a second.
        let mut logged: Vec<Vec<(u64, Digest)>> = vec![Vec::new(); 4];
        let deadline = Instant::now() + Duration::from_secs(20);
        while let Ok(event) = cluster.events().recv_timeout(Duration::from_secs(1)) {
            assert!(Instant::now() < deadline, "the cluster never went quiet");
            if let ClusterEvent::Logged {
                node, sn, digest, ..
            } = event
            {
                logged[node.0 as usize].push((sn, digest));
            }
        }
        cluster.shutdown();
        assert!(!logged[0].is_empty(), "the journey logged nothing");
        for (node, log) in logged.iter().enumerate() {
            assert_eq!(*log, logged[0], "node {node} agrees with node 0");
        }
    }

    /// A signed request broadcast carrying `payload`, signed by the first
    /// key of `seed`'s keyset.
    fn request_message(payload: Vec<u8>, seed: u64) -> NodeMessage {
        let (pairs, _) = Keystore::generate(1, seed);
        NodeMessage::Layer(LayerMessage::BroadcastRequest(SignedRequest::sign(
            ProposedRequest::application(payload, NodeId(0)),
            &pairs[0],
        )))
    }

    /// `k` connected loopback pairs: `(dialled, accepted)`, matched by
    /// index.
    fn socket_pairs(k: usize) -> (Vec<TcpStream>, Vec<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialled: Vec<TcpStream> = (0..k)
            .map(|_| TcpStream::connect(listener.local_addr().unwrap()).unwrap())
            .collect();
        let mut accepted: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
        for _ in 0..k {
            let (conn, from) = listener.accept().unwrap();
            let index = dialled
                .iter()
                .position(|s| s.local_addr().unwrap() == from)
                .unwrap();
            accepted[index] = Some(conn);
        }
        (dialled, accepted.into_iter().map(Option::unwrap).collect())
    }

    /// A link over the given sockets, and the handle that feeds its inbox.
    fn test_link(inbound: Vec<TcpStream>, outbound: Vec<Option<TcpStream>>) -> (TcpLink, Inbox) {
        node_link(inbound, outbound).unwrap()
    }

    /// Every frame a blocking socket carries until it closes, and the
    /// error that ended the stream.
    fn read_to_end(stream: impl Read) -> (Vec<(TraceCtx, NodeMessage)>, io::Error) {
        let mut inbound = Inbound::new(stream);
        let mut frames = Vec::new();
        loop {
            if let Err(error) = inbound.read_frames(|ctx, message| frames.push((ctx, message))) {
                return (frames, error);
            }
        }
    }

    /// The messages of a burst, in order (inputs other than messages are
    /// dropped).
    fn messages(burst: &mut VecDeque<LoopInput>) -> Vec<NodeMessage> {
        burst
            .drain(..)
            .filter_map(|input| match input {
                LoopInput::Message(message) => Some(message),
                _ => None,
            })
            .collect()
    }

    /// Waits on `link` until it has handed over `count` messages.
    fn wait_for_messages(link: &mut TcpLink, count: usize) -> Vec<NodeMessage> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut burst = VecDeque::new();
        let mut received = Vec::new();
        while received.len() < count {
            assert!(
                Instant::now() < deadline,
                "only {} of {count} frames",
                received.len()
            );
            link.wait(Duration::from_millis(100), &mut burst);
            received.extend(messages(&mut burst));
        }
        received
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_oversize() {
        let (dialled, accepted) = socket_pairs(1);
        let (mut link, _inbox) = test_link(Vec::new(), dialled.into_iter().map(Some).collect());
        let message = request_message(vec![7; 64], 1);
        link.deliver(0, &Frame::new(message.clone()));
        link.close();
        drop(link);

        let (frames, end) = read_to_end(accepted.into_iter().next().unwrap());
        let [(ctx, received)] = &frames[..] else {
            panic!("one frame, got {}", frames.len());
        };
        assert_eq!(*received, message);
        // A request broadcast rides in the traced envelope: the carried
        // context is the deterministic derivation from the request's
        // identity, parented on the origin's submit span.
        assert!(ctx.is_traced());
        assert_eq!(*ctx, frame_trace_ctx(&message));
        // EOF ends the stream cleanly: no further frame.
        assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
        // A length prefix beyond the limit is refused before any read.
        let oversized = (MAX_FRAME_BYTES + 1).to_be_bytes();
        let (frames, error) = read_to_end(&oversized[..]);
        assert!(frames.is_empty());
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }

    /// Legacy bare frames (no traced envelope) must keep decoding: a
    /// pre-envelope peer's bytes come back as the same message with
    /// [`TraceCtx::NONE`].
    #[test]
    fn bare_legacy_frame_decodes_with_untraced_ctx() {
        let (dialled, accepted) = socket_pairs(1);
        let message = request_message(vec![5; 32], 3);
        // Write the legacy format by hand: length prefix + canonical
        // bytes, no envelope.
        let bytes = zugchain_wire::to_bytes(&message);
        let len = u32::try_from(bytes.len()).unwrap();
        let mut stream = dialled.into_iter().next().unwrap();
        stream.write_all(&len.to_be_bytes()).unwrap();
        stream.write_all(&bytes).unwrap();
        drop(stream);

        let (frames, _) = read_to_end(accepted.into_iter().next().unwrap());
        assert_eq!(frames, [(TraceCtx::NONE, message)]);
    }

    /// Regression for the per-peer re-encoding bug: broadcasting one
    /// frame to three peers must wire-encode the message exactly once —
    /// the byte buffer is cached in the frame and shared by every socket
    /// write.
    #[test]
    fn broadcast_frame_encodes_once_across_three_peers() {
        let (dialled, accepted) = socket_pairs(3);
        let (mut link, _inbox) = test_link(Vec::new(), dialled.into_iter().map(Some).collect());
        let frame = Frame::new(request_message(vec![9; 256], 2));
        assert_eq!(frame.encode_count(), 0, "lazily encoded");
        for peer in 0..3 {
            link.deliver(peer, &frame);
        }
        link.close();
        drop(link);

        let received: Vec<NodeMessage> = accepted
            .into_iter()
            .map(|conn| {
                let (frames, _) = read_to_end(conn);
                assert_eq!(frames.len(), 1);
                frames.into_iter().next().unwrap().1
            })
            .collect();
        assert_eq!(
            frame.encode_count(),
            1,
            "one broadcast, one encode, three writes"
        );
        assert!(received.iter().all(|m| m == frame.message()));
    }

    /// The batching contract on real sockets: delivered frames stay in
    /// the sender's buffer until `flush`, then every peer reads all of
    /// its frames, in delivery order.
    #[test]
    fn delivered_frames_leave_on_flush_in_delivery_order() {
        let (dialled, accepted) = socket_pairs(2);
        let (mut link, _inbox) = test_link(Vec::new(), dialled.into_iter().map(Some).collect());
        let mut sent: Vec<Vec<NodeMessage>> = vec![Vec::new(), Vec::new()];
        for (peer, count) in [(0usize, 5u8), (1, 2)] {
            for tag in 0..count {
                let message = request_message(vec![tag; 64], 4);
                link.deliver(peer, &Frame::new(message.clone()));
                sent[peer].push(message);
            }
        }

        for conn in &accepted {
            conn.set_nonblocking(true).unwrap();
            let error = (&*conn).read(&mut [0u8; 1]).unwrap_err();
            assert_eq!(
                error.kind(),
                io::ErrorKind::WouldBlock,
                "nothing before flush"
            );
            conn.set_nonblocking(false).unwrap();
        }
        link.flush();
        assert!(!link.has_unsent(), "small frames leave in the flush itself");
        drop(link);
        for (conn, expected) in accepted.into_iter().zip(sent) {
            let (frames, _) = read_to_end(conn);
            let received: Vec<NodeMessage> = frames.into_iter().map(|(_, m)| m).collect();
            assert_eq!(received, expected);
        }
    }

    /// One message of every kind a node sends: the six consensus kinds
    /// (a view change with and without a certificate) and the three layer
    /// kinds.
    fn every_kind(payload: &[u8]) -> Vec<NodeMessage> {
        let (keys, _) = Keystore::generate(4, 21);
        let keys: &[KeyPair] = &keys;
        let request = ProposedRequest::application(payload.to_vec(), NodeId(1)).with_time(7);
        let batch = ProposedBatch::single(request.clone());
        let preprepare = PrePrepare {
            view: 0,
            sn: 3,
            batch: batch.clone(),
        };
        let digest = batch.digest();
        let checkpoint = Checkpoint {
            sn: 10,
            state_digest: Digest::of(payload),
        };
        let proof = CheckpointProof {
            checkpoint,
            signatures: (0..3)
                .map(|id| {
                    (
                        NodeId(id),
                        keys[id as usize].sign(&zugchain_wire::to_bytes(&checkpoint)),
                    )
                })
                .collect(),
        };
        let full_vc = ViewChange {
            new_view: 1,
            last_stable_sn: 10,
            checkpoint_proof: Some(proof),
            prepared: vec![PreparedCert {
                view: 0,
                sn: 11,
                batch,
                prepare_signatures: vec![(NodeId(2), keys[2].sign(payload))],
            }],
        };
        let empty_vc = ViewChange {
            new_view: 1,
            last_stable_sn: 0,
            checkpoint_proof: None,
            prepared: Vec::new(),
        };
        let new_view = NewView {
            view: 1,
            view_changes: vec![SignedMessage::sign(
                NodeId(2),
                Message::ViewChange(full_vc.clone()),
                &keys[2],
            )],
            preprepares: vec![preprepare.clone()],
        };
        let consensus = [
            Message::PrePrepare(preprepare),
            Message::Prepare(Prepare {
                view: 0,
                sn: 3,
                digest,
            }),
            Message::Commit(Commit {
                view: 0,
                sn: 3,
                digest,
            }),
            Message::Checkpoint(checkpoint),
            Message::ViewChange(full_vc),
            Message::ViewChange(empty_vc),
            Message::NewView(new_view),
        ];
        let signed = SignedRequest::sign(request, &keys[1]);
        consensus
            .into_iter()
            .map(|message| {
                NodeMessage::Consensus(SignedMessage::sign(NodeId(0), message, &keys[0]))
            })
            .chain([
                NodeMessage::Layer(LayerMessage::BroadcastRequest(signed.clone())),
                NodeMessage::Layer(LayerMessage::ForwardRequest(signed.clone())),
                NodeMessage::Layer(LayerMessage::ClientRequest(signed)),
            ])
            .collect()
    }

    /// The parent's framing, written out by hand: `len ‖ envelope ‖
    /// to_bytes(message)`, the envelope on request broadcasts only.
    fn reference_frame(message: &NodeMessage) -> Vec<u8> {
        let inner = zugchain_wire::to_bytes(message);
        let body = match message {
            NodeMessage::Layer(layer) if !layer.request().request.is_noop() => {
                zugchain_wire::encode_traced(frame_trace_ctx(message), &inner)
            }
            _ => inner,
        };
        let mut frame = u32::try_from(body.len()).unwrap().to_be_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
    }

    /// Frames on the wire are byte-identical to the parent's framing, for
    /// one frame of every kind.
    #[test]
    fn frames_on_the_wire_match_the_parent_framing() {
        let (dialled, accepted) = socket_pairs(1);
        let (mut link, _inbox) = test_link(Vec::new(), dialled.into_iter().map(Some).collect());
        let sent = every_kind(&[3; 100]);
        let mut expected = Vec::new();
        for message in &sent {
            link.deliver(0, &Frame::new(message.clone()));
            expected.extend(reference_frame(message));
        }
        link.close();
        drop(link);
        let mut wire = Vec::new();
        accepted[0]
            .try_clone()
            .unwrap()
            .read_to_end(&mut wire)
            .unwrap();
        assert_eq!(wire, expected);
        assert!(
            sent.iter().any(|m| frame_trace_ctx(m).is_traced())
                && sent.iter().any(|m| !frame_trace_ctx(m).is_traced()),
            "both framings are covered"
        );
    }

    /// Hands out `data` in the given read sizes, and `WouldBlock` after
    /// each read: every read is the whole of one wake's data.
    struct Chunked {
        data: Vec<u8>,
        at: usize,
        sizes: std::vec::IntoIter<usize>,
        drained: bool,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if std::mem::take(&mut self.drained) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let left = self.data.len() - self.at;
            let size = self.sizes.next().unwrap_or(left).min(left).min(buf.len());
            buf[..size].copy_from_slice(&self.data[self.at..self.at + size]);
            self.at += size;
            self.drained = true;
            Ok(size)
        }
    }

    #[test]
    fn frames_survive_any_read_split() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Every kind, traced and bare legacy alike, plus one frame
            // longer than the read buffer.
            let mut sent: Vec<(TraceCtx, NodeMessage)> = Vec::new();
            let mut stream = Vec::new();
            let mut starts = Vec::new();
            let kinds = every_kind(&[seed as u8; 300]);
            let big = request_message(vec![9; SOCKET_BUFFER + 1000], seed);
            for _ in 0..3 {
                for message in kinds.iter().chain([&big]) {
                    starts.push(stream.len());
                    if rng.random_bool(0.3) {
                        let bytes = zugchain_wire::to_bytes(message);
                        stream.extend(u32::try_from(bytes.len()).unwrap().to_be_bytes());
                        stream.extend(bytes);
                        sent.push((TraceCtx::NONE, message.clone()));
                    } else {
                        encode_frame(&mut stream, &Frame::new(message.clone()));
                        sent.push((frame_trace_ctx(message), message.clone()));
                    }
                }
            }
            // Cut points: 1-byte reads, cuts inside every third length
            // prefix, and seeded reads of up to 3 kB.
            let mut cuts: Vec<usize> = starts
                .iter()
                .step_by(3)
                .map(|start| start + rng.random_range(1..4usize))
                .collect();
            let mut at = 0;
            while at < stream.len() {
                at += match rng.random_range(0..4u8) {
                    0 => 1,
                    1 => rng.random_range(2..6usize),
                    _ => rng.random_range(6..3000usize),
                };
                cuts.push(at.min(stream.len()));
            }
            cuts.sort_unstable();
            cuts.dedup();
            let sizes: Vec<usize> = cuts
                .iter()
                .scan(0, |last, cut| {
                    let size = cut - *last;
                    *last = *cut;
                    Some(size)
                })
                .filter(|size| *size > 0)
                .collect();
            assert!(sizes.contains(&1));
            let (frames, end) = read_to_end(Chunked {
                data: stream,
                at: 0,
                sizes: sizes.into_iter(),
                drained: false,
            });
            assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
            assert!(frames == sent, "seed {seed}: frames differ");
        }
    }

    /// An oversized length prefix or a frame that does not decode closes
    /// that peer only; a peer that closes mid-frame yields its complete
    /// frames and nothing more.
    #[test]
    fn a_bad_or_closed_peer_closes_that_peer_only() {
        let (dialled, accepted) = socket_pairs(4);
        let (mut link, _inbox) = test_link(accepted, vec![None]);
        let [mut oversized, mut garbage, mut truncated, mut good] =
            <[TcpStream; 4]>::try_from(dialled).unwrap();
        let message = request_message(vec![1; 64], 5);
        let frame = reference_frame(&message);

        oversized
            .write_all(&(MAX_FRAME_BYTES + 1).to_be_bytes())
            .unwrap();
        oversized.write_all(&frame).unwrap();
        garbage.write_all(&5u32.to_be_bytes()).unwrap();
        garbage.write_all(&[0xFF; 5]).unwrap();
        garbage.write_all(&frame).unwrap();
        truncated.write_all(&frame).unwrap();
        truncated.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(truncated);
        good.write_all(&frame).unwrap();

        // The one whole frame of `truncated` and the one of `good`.
        assert_eq!(
            wait_for_messages(&mut link, 2),
            [message.clone(), message.clone()]
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut burst = VecDeque::new();
        while link.inbound.len() > 1 {
            assert!(Instant::now() < deadline, "bad peers were not closed");
            link.wait(Duration::from_millis(100), &mut burst);
            assert!(messages(&mut burst).is_empty(), "nothing after a bad frame");
        }
        // The good peer is still heard.
        good.write_all(&frame).unwrap();
        assert_eq!(wait_for_messages(&mut link, 1), [message]);
    }

    /// A node whose socket still holds more than one read takes catches
    /// up on those frames before it takes new bus input.
    #[test]
    fn a_node_behind_on_its_sockets_takes_bus_input_after_catching_up() {
        let (dialled, accepted) = socket_pairs(1);
        let queued = accepted[0].try_clone().unwrap();
        let (mut link, inbox) = test_link(accepted, vec![None]);
        let frame = reference_frame(&request_message(vec![4; 1024], 6));
        let frames = 3 * SOCKET_BUFFER / frame.len();
        let mut peer = dialled.into_iter().next().unwrap();
        for _ in 0..frames {
            peer.write_all(&frame).unwrap();
        }
        // Wait until the socket holds more than one read takes.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut peek = vec![0; SOCKET_BUFFER + 1];
        while queued.peek(&mut peek).unwrap() <= SOCKET_BUFFER {
            assert!(Instant::now() < deadline, "the frames never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        inbox.send(LoopInput::RawPayload(vec![1]));

        let mut burst = VecDeque::new();
        link.wait(Duration::from_millis(100), &mut burst);
        assert!(
            burst
                .iter()
                .all(|input| matches!(input, LoopInput::Message(_))),
            "bus input taken while the socket held more"
        );
        let mut received = messages(&mut burst).len();
        assert!(received > 0);
        let mut payload = false;
        while !payload || received < frames {
            assert!(
                Instant::now() < deadline,
                "{received} frames, bus input {payload}"
            );
            link.wait(Duration::from_millis(100), &mut burst);
            payload |= burst
                .iter()
                .any(|input| matches!(input, LoopInput::RawPayload(_)));
            received += messages(&mut burst).len();
        }
        assert_eq!(received, frames);
    }

    /// The doorbell under stress: payloads fed from another thread with
    /// seeded pauses all arrive, and none waits for a poll timeout. The
    /// wait's timeout is far beyond the feeder's deadline, so only the
    /// doorbell can end a wait in time.
    #[test]
    fn no_wake_up_is_lost() {
        const PAYLOADS: u64 = 12_000;
        let (mut link, inbox) = test_link(Vec::new(), vec![None]);
        let (acks, acked) = channel::<u64>();
        let consumer = std::thread::spawn(move || {
            let mut burst = VecDeque::new();
            let mut seen = 0u64;
            loop {
                assert!(link.wait(Duration::from_secs(600), &mut burst));
                for input in burst.drain(..) {
                    match input {
                        LoopInput::RawPayload(payload) => {
                            assert_eq!(payload, seen.to_le_bytes(), "in order");
                            seen += 1;
                        }
                        LoopInput::Shutdown => return seen,
                        _ => unreachable!(),
                    }
                }
                acks.send(seen).unwrap();
            }
        });

        let mut rng = StdRng::seed_from_u64(0xD00B);
        let mut sent = 0u64;
        while sent < PAYLOADS {
            for _ in 0..rng.random_range(1..=8u32) {
                inbox.send(LoopInput::RawPayload(sent.to_le_bytes().to_vec()));
                sent += 1;
                match rng.random_range(0..4u8) {
                    0 => {}
                    1 => std::thread::yield_now(),
                    2 => {
                        for _ in 0..rng.random_range(0..2_000u32) {
                            std::hint::spin_loop();
                        }
                    }
                    _ => std::thread::sleep(Duration::from_micros(rng.random_range(1..50u64))),
                }
            }
            // The last payload of each run must arrive without any later
            // ring to rescue it.
            loop {
                match acked.recv_timeout(Duration::from_secs(10)) {
                    Ok(seen) if seen == sent => break,
                    Ok(_) => {}
                    Err(_) => panic!("wake-up lost: {sent} payloads queued"),
                }
            }
        }
        inbox.send(LoopInput::Shutdown);
        assert_eq!(consumer.join().unwrap(), PAYLOADS);
    }

    /// Starts nodes `0..n - 1` of an `n`-node mesh. Node `n - 1` is a peer
    /// that accepts its connections and never reads them.
    fn start_with_a_wedged_peer(
        n: usize,
        config: NodeConfig,
    ) -> (
        Vec<Inbox>,
        Receiver<ClusterEvent>,
        Vec<JoinHandle<NodeSummary>>,
        Vec<TcpStream>,
    ) {
        let (pairs, keystore) = Keystore::generate(n, 0x7C9);
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let live = n - 1;
        let outbound: Vec<Vec<Option<TcpStream>>> = (0..live)
            .map(|id| {
                listeners
                    .iter()
                    .enumerate()
                    .map(|(peer, l)| {
                        (peer != id).then(|| TcpStream::connect(l.local_addr().unwrap()).unwrap())
                    })
                    .collect()
            })
            .collect();
        let mut inbound: Vec<Vec<TcpStream>> = listeners
            .iter()
            .enumerate()
            .map(|(id, l)| {
                let dialled_in = if id < live { live - 1 } else { live };
                (0..dialled_in).map(|_| l.accept().unwrap().0).collect()
            })
            .collect();
        let wedged = inbound.pop().unwrap();
        let (event_tx, events) = channel();
        let start = Instant::now();
        let mut inboxes = Vec::new();
        let mut handles = Vec::new();
        for (id, (inbound, outbound)) in inbound.into_iter().zip(outbound).enumerate() {
            let (link, inbox) = test_link(inbound, outbound);
            inboxes.push(inbox);
            let node = ZugchainNode::new(
                id as u64,
                config.clone(),
                Nsdb::jru_default(),
                pairs[id].clone(),
                keystore.clone(),
            );
            let events = event_tx.clone();
            handles.push(std::thread::spawn(move || {
                node_loop(node, link, events, None, Telemetry::disabled(), start)
            }));
        }
        (inboxes, events, handles, wedged)
    }

    /// With one peer's sockets never read, the other nodes' flushes
    /// return and they keep deciding. The primary alone sends that peer
    /// about 20 MB, more than loopback socket buffers hold.
    #[test]
    fn a_peer_that_stops_reading_never_blocks_the_node() {
        const REQUESTS: usize = 600;
        const IN_FLIGHT: usize = 8;
        let (inboxes, events, handles, _wedged) =
            start_with_a_wedged_peer(4, NodeConfig::evaluation_default());
        let mut logged = vec![0usize; 3];
        let mut fed = 0;
        let deadline = Instant::now() + Duration::from_secs(60);
        while logged.iter().any(|count| *count < REQUESTS) {
            while fed < REQUESTS && fed < logged[0] + IN_FLIGHT {
                let mut payload = vec![0u8; 32 * 1024];
                payload[..8].copy_from_slice(&(fed as u64).to_le_bytes());
                for inbox in &inboxes {
                    inbox.send(LoopInput::RawPayload(payload.clone()));
                }
                fed += 1;
            }
            assert!(
                Instant::now() < deadline,
                "stalled at {logged:?} of {REQUESTS}"
            );
            if let Ok(ClusterEvent::Logged { node, .. }) =
                events.recv_timeout(Duration::from_millis(100))
            {
                logged[node.0 as usize] += 1;
            }
        }
        for inbox in &inboxes {
            inbox.send(LoopInput::Shutdown);
        }
        for handle in handles {
            assert_eq!(handle.join().unwrap().stats.logged, REQUESTS as u64);
        }
    }

    /// Frames delivered, by peer, in delivery order.
    type Deliveries = Vec<(usize, NodeMessage)>;

    /// Records what each flush of the wrapped link sent.
    struct Recording {
        link: TcpLink,
        pending: Deliveries,
        flushes: Arc<Mutex<Vec<Deliveries>>>,
    }

    impl PeerLink for Recording {
        fn peer_count(&self) -> usize {
            self.link.peer_count()
        }

        fn deliver(&mut self, to: usize, frame: &Frame<NodeMessage>) {
            self.pending.push((to, frame.to_message()));
            self.link.deliver(to, frame);
        }

        fn flush(&mut self) {
            if !self.pending.is_empty() {
                self.flushes
                    .lock()
                    .unwrap()
                    .push(std::mem::take(&mut self.pending));
            }
            self.link.flush();
        }

        /// A burst is the frames the ready sockets held, then the inbox. While
        /// a socket still holds more than one read took, the inbox waits: a
        /// replica that has fallen behind its peers catches up on their frames
        /// before it takes new bus input, and once its inbox is full the
        /// cluster handle's `feed_*` waits for it. So it never starts a
        /// request's soft timeout far ahead of that request's votes, and the
        /// quorum cannot run ahead of it without bound.
        fn wait(&mut self, timeout: Duration, burst: &mut VecDeque<LoopInput>) -> bool {
            self.link.wait(timeout, burst)
        }

        fn close(&mut self) {
            self.flush();
            self.link.close();
        }
    }

    /// Runs node `id` of four (keys of seed 11) over `link`.
    fn spawn_node(id: usize, link: Recording) -> JoinHandle<NodeSummary> {
        let (pairs, keystore) = Keystore::generate(4, 11);
        let node = ZugchainNode::new(
            id as u64,
            NodeConfig::evaluation_default(),
            Nsdb::jru_default(),
            pairs[id].clone(),
            keystore,
        );
        let (events, _) = channel();
        std::thread::spawn(move || {
            node_loop(
                node,
                link,
                events,
                None,
                Telemetry::disabled(),
                Instant::now(),
            )
        })
    }

    /// Sequence numbers of the votes of `kind` among `deliveries` to
    /// `peer`.
    fn votes_to(deliveries: &[(usize, NodeMessage)], peer: usize, kind: &str) -> Vec<u64> {
        deliveries
            .iter()
            .filter(|(to, _)| *to == peer)
            .filter_map(|(_, message)| match message {
                NodeMessage::Consensus(signed) if signed.message.kind() == kind => {
                    match &signed.message {
                        Message::Prepare(prepare) => Some(prepare.sn),
                        Message::PrePrepare(preprepare) => Some(preprepare.sn),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect()
    }

    /// Proposals already queued on a backup's inbound socket when it wakes
    /// are one burst: their prepares leave in one flush.
    #[test]
    fn a_burst_queued_on_a_socket_leaves_in_one_flush() {
        let (from_primary, inbound) = socket_pairs(1);
        let (outbound, peers) = socket_pairs(3);
        let mut outbound = outbound.into_iter().map(Some);
        let outbound = vec![
            outbound.next().unwrap(),
            None,
            outbound.next().unwrap(),
            outbound.next().unwrap(),
        ];
        let (link, inbox) = test_link(inbound, outbound);
        let (pairs, _) = Keystore::generate(4, 11);
        let mut primary = from_primary.into_iter().next().unwrap();
        for sn in 1..=5u64 {
            let preprepare = Message::PrePrepare(PrePrepare {
                view: 0,
                sn,
                batch: ProposedBatch::single(
                    ProposedRequest::application(vec![sn as u8; 64], NodeId(0)).with_time(sn),
                ),
            });
            let signed =
                NodeMessage::Consensus(SignedMessage::sign(NodeId(0), preprepare, &pairs[0]));
            primary.write_all(&reference_frame(&signed)).unwrap();
        }
        let flushes = Arc::new(Mutex::new(Vec::new()));
        let node = spawn_node(
            1,
            Recording {
                link,
                pending: Vec::new(),
                flushes: Arc::clone(&flushes),
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while flushes.lock().unwrap().is_empty() {
            assert!(Instant::now() < deadline, "the loop never flushed");
            std::thread::sleep(Duration::from_millis(1));
        }
        inbox.send(LoopInput::Shutdown);
        node.join().unwrap();
        drop(primary);

        let flushes = flushes.lock().unwrap();
        for peer in [0, 2, 3] {
            assert_eq!(votes_to(&flushes[0], peer, "prepare"), [1, 2, 3, 4, 5]);
        }
        for (index, conn) in peers.into_iter().enumerate() {
            let (frames, _) = read_to_end(conn);
            let prepares = frames
                .iter()
                .filter(|(_, m)| matches!(m, NodeMessage::Consensus(s) if s.message.kind() == "prepare"))
                .count();
            assert_eq!(prepares, 5, "peer socket {index}");
        }
    }

    /// What a node produced before `Crash` or `Shutdown` still reaches
    /// every peer, even a proposal too large for one non-blocking write.
    #[test]
    fn frames_produced_before_shutdown_or_crash_still_leave() {
        for last in [LoopInput::Crash, LoopInput::Shutdown] {
            let (outbound, peers) = socket_pairs(3);
            let outbound = std::iter::once(None)
                .chain(outbound.into_iter().map(Some))
                .collect();
            let (link, inbox) = test_link(Vec::new(), outbound);
            // Readers run while the node sends: 4 MB per peer need them.
            let readers: Vec<_> = peers
                .into_iter()
                .map(|conn| std::thread::spawn(move || read_to_end(conn).0))
                .collect();
            let crash = matches!(last, LoopInput::Crash);
            inbox.send(LoopInput::RawPayload(vec![1; 4 << 20]));
            inbox.send(last);
            let node = spawn_node(
                0,
                Recording {
                    link,
                    pending: Vec::new(),
                    flushes: Arc::new(Mutex::new(Vec::new())),
                },
            );
            if crash {
                std::thread::sleep(Duration::from_millis(50));
                inbox.send(LoopInput::Shutdown);
            }
            node.join().unwrap();
            for reader in readers {
                let frames: Vec<(usize, NodeMessage)> = reader
                    .join()
                    .unwrap()
                    .into_iter()
                    .map(|(_, m)| (0, m))
                    .collect();
                assert_eq!(votes_to(&frames, 0, "preprepare"), [1]);
            }
        }
    }
}
