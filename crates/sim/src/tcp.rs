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
//! Both directions are buffered. A node owns one buffered writer per
//! peer: frames are appended in delivery order and leave when the loop
//! flushes after each burst of inputs, so a burst costs one `write` per
//! peer, not two per frame. Each inbound socket is read through a
//! buffered reader, so a coalesced burst costs one `read` and one wake-up.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use zugchain::{NodeConfig, NodeMessage, ZugchainNode};
use zugchain_api::{ApiConfig, ApiServer, Backend};
use zugchain_crypto::Keystore;
use zugchain_machine::Frame;
use zugchain_mvb::Nsdb;
use zugchain_telemetry::{Registry, Telemetry, TraceStore};
use zugchain_wire::{decode_traced, derive_span_id, derive_trace_id, TraceCtx};

use crate::node_loop::{node_loop, LoopInput, PeerLink};
use crate::runtime::{ClusterEvent, NodeSummary};

/// Maximum accepted frame size (matches the wire crate's field limit).
const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

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

/// Writes one length-prefixed frame. The frame's inner encoding is
/// computed at most once and shared across every peer this frame is
/// written to; traced frames additionally carry the 17-byte envelope
/// (`magic ‖ TraceCtx`) in front of the unchanged inner bytes.
fn write_frame(out: &mut impl Write, frame: &Frame<NodeMessage>) -> io::Result<()> {
    let bytes = frame.bytes();
    let ctx = frame_trace_ctx(frame.message());
    let envelope = if ctx.is_traced() {
        zugchain_wire::encode_traced(ctx, &[])
    } else {
        Vec::new()
    };
    let len = u32::try_from(envelope.len() + bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    out.write_all(&len.to_be_bytes())?;
    out.write_all(&envelope)?;
    out.write_all(&bytes)
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF. Frames in
/// the traced envelope yield their carried [`TraceCtx`]; legacy bare
/// frames decode unchanged with [`TraceCtx::NONE`].
fn read_frame(stream: &mut impl Read) -> io::Result<Option<(TraceCtx, NodeMessage)>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    let (ctx, inner) = decode_traced(&buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    zugchain_wire::from_bytes(inner)
        .map(|message| Some((ctx, message)))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// The socket link: frames leave as length-prefixed canonical bytes,
/// buffered per peer until the loop flushes. Only the owning node thread
/// writes to these sockets.
struct TcpLink {
    streams: Vec<Option<BufWriter<TcpStream>>>,
}

impl PeerLink for TcpLink {
    fn peer_count(&self) -> usize {
        self.streams.len()
    }

    // A failed peer write is a dead link, not a node error.
    fn deliver(&mut self, to: usize, frame: &Frame<NodeMessage>) {
        if let Some(Some(stream)) = self.streams.get_mut(to) {
            let _ = write_frame(stream, frame);
        }
    }

    fn flush(&mut self) {
        for stream in self.streams.iter_mut().flatten() {
            let _ = stream.flush();
        }
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
pub struct TcpCluster {
    inboxes: Vec<Sender<LoopInput>>,
    events: Receiver<ClusterEvent>,
    handles: Vec<JoinHandle<NodeSummary>>,
    registry: Arc<Registry>,
    telemetry: Vec<Telemetry>,
    traces: Arc<TraceStore>,
    status: ApiServer,
    /// Socket addresses the nodes listen on, by node id.
    pub addresses: Vec<SocketAddr>,
    /// Address of the live status server: `GET /metrics` returns the
    /// cluster's Prometheus-text snapshot (`GET /healthz` for liveness).
    /// This is a [`zugchain_api::ApiServer`] with no archive backend —
    /// the same exposition path the fleet's query front end uses.
    pub status_address: SocketAddr,
}

impl TcpCluster {
    /// Starts `n` nodes listening on loopback and fully meshed over TCP.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding, accepting, or connecting.
    pub fn start(n: usize, config: NodeConfig) -> io::Result<Self> {
        let (pairs, keystore) = Keystore::generate(n, 0x7C9);
        let (event_tx, event_rx) = unbounded();
        let registry = Arc::new(Registry::new());
        let traces = Arc::new(TraceStore::new());
        let telemetry: Vec<Telemetry> = (0..n)
            .map(|id| {
                Telemetry::new_with_store(
                    id as u64,
                    Arc::clone(&registry),
                    config.trace_capacity,
                    Some(Arc::clone(&traces)),
                )
            })
            .collect();

        // The live read path: the API server with no archive behind it
        // serves `/metrics` (and `/healthz`) over real HTTP — one
        // exposition path shared with the fleet query front end.
        let status = ApiServer::start(ApiConfig::open(), Backend::None, Arc::clone(&registry))?;
        let status_address = status.address();

        // Bind every node's listener first so all addresses are known.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addresses: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<_>>()?;

        let mut inboxes = Vec::with_capacity(n);
        let mut inbox_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = bounded::<LoopInput>(4096);
            inboxes.push(tx);
            inbox_rxs.push(rx);
        }

        // Full mesh: node i owns outbound connections to every peer.
        // Connect in index order while acceptor threads feed inbound
        // frames to the owning node's inbox.
        let mut acceptors = Vec::new();
        for (id, listener) in listeners.into_iter().enumerate() {
            let inbox = inboxes[id].clone();
            let expected = n - 1;
            acceptors.push(std::thread::spawn(move || -> io::Result<()> {
                for _ in 0..expected {
                    let (stream, _) = listener.accept()?;
                    stream.set_nodelay(true)?;
                    let mut stream = BufReader::new(stream);
                    let inbox = inbox.clone();
                    std::thread::spawn(move || loop {
                        match read_frame(&mut stream) {
                            // The context is advisory: every layer
                            // re-derives the same ids from data it holds.
                            Ok(Some((_ctx, message))) => {
                                if inbox.send(LoopInput::Message(message)).is_err() {
                                    return;
                                }
                            }
                            Ok(None) | Err(_) => return,
                        }
                    });
                }
                Ok(())
            }));
        }

        let mut outbound: Vec<Vec<Option<BufWriter<TcpStream>>>> = Vec::with_capacity(n);
        for id in 0..n {
            let mut streams = Vec::with_capacity(n);
            for (peer, address) in addresses.iter().enumerate() {
                if peer == id {
                    streams.push(None);
                } else {
                    let stream = TcpStream::connect(address)?;
                    stream.set_nodelay(true)?;
                    streams.push(Some(BufWriter::new(stream)));
                }
            }
            outbound.push(streams);
        }
        for acceptor in acceptors {
            acceptor
                .join()
                .map_err(|_| io::Error::other("acceptor panicked"))??;
        }

        let start = Instant::now();
        let handles = inbox_rxs
            .into_iter()
            .enumerate()
            .map(|(id, rx)| {
                let node = ZugchainNode::new(
                    id as u64,
                    config.clone(),
                    Nsdb::jru_default(),
                    pairs[id].clone(),
                    keystore.clone(),
                );
                let link = TcpLink {
                    streams: std::mem::take(&mut outbound[id]),
                };
                let events = event_tx.clone();
                let node_telemetry = telemetry[id].clone();
                std::thread::Builder::new()
                    .name(format!("zugchain-tcp-{id}"))
                    .spawn(move || node_loop(node, rx, link, events, None, node_telemetry, start))
                    .expect("spawn node thread")
            })
            .collect();

        Ok(Self {
            inboxes,
            events: event_rx,
            handles,
            registry,
            telemetry,
            traces,
            status,
            addresses,
            status_address,
        })
    }

    /// The cluster's shared metrics registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// A Prometheus-text snapshot of every node's metrics (the same text
    /// the status responder serves on [`status_address`](Self::status_address)).
    pub fn metrics_text(&self) -> String {
        self.registry.render_prometheus()
    }

    /// JSONL dump of one node's event ring (empty when out of range).
    pub fn trace_jsonl(&self, node: usize) -> String {
        self.telemetry
            .get(node)
            .map(Telemetry::dump_jsonl)
            .unwrap_or_default()
    }

    /// The cluster-wide view over the nodes' rings, for cross-node trace
    /// assembly.
    pub fn trace_store(&self) -> Arc<TraceStore> {
        Arc::clone(&self.traces)
    }

    /// Delivers the same consolidated payload to every node.
    pub fn feed_bus_payload_all(&self, payload: Vec<u8>) {
        for inbox in &self.inboxes {
            let _ = inbox.send(LoopInput::RawPayload(payload.clone()));
        }
    }

    /// Delivers a payload to one node only (diverging reception).
    pub fn feed_bus_payload(&self, node: usize, payload: Vec<u8>) {
        let _ = self.inboxes[node].send(LoopInput::RawPayload(payload));
    }

    /// Crashes a node: it stops processing but its thread stays alive so
    /// its state can still be collected at shutdown.
    pub fn crash(&self, node: usize) {
        let _ = self.inboxes[node].send(LoopInput::Crash);
    }

    /// The event stream.
    pub fn events(&self) -> &Receiver<ClusterEvent> {
        &self.events
    }

    /// Stops all nodes and returns their final state.
    pub fn shutdown(mut self) -> Vec<NodeSummary> {
        for inbox in &self.inboxes {
            let _ = inbox.send(LoopInput::Shutdown);
        }
        self.status.stop();
        self.handles
            .into_iter()
            .map(|handle| handle.join().expect("node thread panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use zugchain_pbft::NodeId;

    /// Per-node block progress from the registry; used both to converge
    /// and to produce a useful timeout diagnostic.
    fn blocks_by_node(cluster: &TcpCluster, n: usize) -> Vec<u64> {
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

    fn decided_up_to_by_node(cluster: &TcpCluster, n: usize) -> Vec<i64> {
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

    #[test]
    fn tcp_cluster_orders_over_real_sockets() {
        let config = NodeConfig::evaluation_default().with_block_size(3);
        let cluster = TcpCluster::start(4, config).expect("loopback sockets");
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

    /// A signed request broadcast carrying `payload`, signed by the first
    /// key of `seed`'s keyset.
    fn request_message(payload: Vec<u8>, seed: u64) -> NodeMessage {
        let (pairs, _) = Keystore::generate(1, seed);
        NodeMessage::Layer(zugchain::LayerMessage::BroadcastRequest(
            zugchain::SignedRequest::sign(
                zugchain_pbft::ProposedRequest::application(payload, NodeId(0)),
                &pairs[0],
            ),
        ))
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_oversize() {
        // Codec-level check without sockets: encode, then decode through
        // a loopback pair.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let address = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(address).unwrap();
            let message = request_message(vec![7; 64], 1);
            write_frame(&mut stream, &Frame::new(message.clone())).unwrap();
            message
        });
        let (mut conn, _) = listener.accept().unwrap();
        let (ctx, received) = read_frame(&mut conn).unwrap().expect("one frame");
        let sent = sender.join().unwrap();
        assert_eq!(received, sent);
        // A request broadcast rides in the traced envelope: the carried
        // context is the deterministic derivation from the request's
        // identity, parented on the origin's submit span.
        assert!(ctx.is_traced());
        assert_eq!(ctx, frame_trace_ctx(&sent));
        // EOF is a clean None.
        assert!(read_frame(&mut conn).unwrap().is_none());
        // A length prefix beyond the limit is refused before any read.
        let oversized = (MAX_FRAME_BYTES + 1).to_be_bytes();
        let error = read_frame(&mut &oversized[..]).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }

    /// Legacy bare frames (no traced envelope) must keep decoding: a
    /// pre-envelope peer's bytes come back as the same message with
    /// [`TraceCtx::NONE`].
    #[test]
    fn bare_legacy_frame_decodes_with_untraced_ctx() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let address = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(address).unwrap();
            let (pairs, _) = Keystore::generate(1, 3);
            let message = NodeMessage::Layer(zugchain::LayerMessage::BroadcastRequest(
                zugchain::SignedRequest::sign(
                    zugchain_pbft::ProposedRequest::application(vec![5; 32], NodeId(0)),
                    &pairs[0],
                ),
            ));
            // Write the legacy format by hand: length prefix + canonical
            // bytes, no envelope.
            let bytes = zugchain_wire::to_bytes(&message);
            let len = u32::try_from(bytes.len()).unwrap();
            stream.write_all(&len.to_be_bytes()).unwrap();
            stream.write_all(&bytes).unwrap();
            message
        });
        let (mut conn, _) = listener.accept().unwrap();
        let (ctx, received) = read_frame(&mut conn).unwrap().expect("one frame");
        assert_eq!(ctx, TraceCtx::NONE);
        assert_eq!(received, sender.join().unwrap());
    }

    /// Regression for the per-peer re-encoding bug: broadcasting one
    /// frame to three peers must wire-encode the message exactly once —
    /// the byte buffer is cached in the frame and shared by every socket
    /// write.
    #[test]
    fn broadcast_frame_encodes_once_across_three_peers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let address = listener.local_addr().unwrap();

        let writer = std::thread::spawn(move || {
            let frame = Frame::new(request_message(vec![9; 256], 2));
            assert_eq!(frame.encode_count(), 0, "lazily encoded");
            let mut link = TcpLink {
                streams: (0..3)
                    .map(|_| Some(BufWriter::new(TcpStream::connect(address).unwrap())))
                    .collect(),
            };
            for peer in 0..3 {
                link.deliver(peer, &frame);
            }
            link.flush();
            frame.encode_count()
        });

        let mut received = Vec::new();
        for _ in 0..3 {
            let (mut conn, _) = listener.accept().unwrap();
            let (_ctx, message) = read_frame(&mut conn).unwrap().expect("one frame");
            received.push(message);
        }
        let encodes = writer.join().unwrap();
        assert_eq!(encodes, 1, "one broadcast, one encode, three writes");
        assert!(received.iter().all(|m| *m == received[0]));
    }

    /// The batching contract on real sockets: delivered frames stay in
    /// the sender's buffer until `flush`, then every peer reads all of
    /// its frames, in delivery order.
    #[test]
    fn delivered_frames_leave_on_flush_in_delivery_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let outbound: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(listener.local_addr().unwrap()).unwrap())
            .collect();
        // Pair each accepted socket with the peer index that dialled it.
        let mut inbound: Vec<Option<TcpStream>> = vec![None, None];
        for _ in 0..2 {
            let (conn, from) = listener.accept().unwrap();
            let peer = outbound
                .iter()
                .position(|s| s.local_addr().unwrap() == from)
                .unwrap();
            inbound[peer] = Some(conn);
        }
        let inbound: Vec<TcpStream> = inbound.into_iter().map(Option::unwrap).collect();

        let mut link = TcpLink {
            streams: outbound
                .into_iter()
                .map(|s| Some(BufWriter::new(s)))
                .collect(),
        };
        let mut sent: Vec<Vec<NodeMessage>> = vec![Vec::new(), Vec::new()];
        for (peer, count) in [(0usize, 5u8), (1, 2)] {
            for tag in 0..count {
                let message = request_message(vec![tag; 64], 4);
                link.deliver(peer, &Frame::new(message.clone()));
                sent[peer].push(message);
            }
        }

        for conn in &inbound {
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
        for (conn, expected) in inbound.into_iter().zip(sent) {
            let mut reader = BufReader::new(conn);
            for message in expected {
                let (_ctx, received) = read_frame(&mut reader).unwrap().expect("a frame");
                assert_eq!(received, message);
            }
        }
    }
}
