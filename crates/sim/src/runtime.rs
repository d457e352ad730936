//! The live cluster: the real node state machines on real time, one OS
//! thread per node, over either transport — in-process channels
//! ([`ThreadedCluster`], which the examples use) or real TCP sockets
//! ([`TcpCluster`](crate::tcp::TcpCluster), the shape of a deployment on
//! the train's Ethernet). Both are one [`LiveCluster`], built by one
//! set-up; the transport supplies only its connected links, its inbox
//! senders and the names of the node threads.

use std::io;
use std::marker::PhantomData;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc::{channel, sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use zugchain::{rebuild_recovered_state, NodeConfig, ZugchainNode};
use zugchain_api::{ApiConfig, ApiServer, Backend};
use zugchain_blockchain::{ChainStore, DiskStore};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_mvb::{Nsdb, Telegram};
use zugchain_pbft::{CheckpointProof, NodeId};
use zugchain_telemetry::{Registry, Telemetry, TraceStore};

use crate::node_loop::{node_loop, ChannelLink, Inbox, LoopInput, Transport};

/// Events a running cluster reports to the caller.
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// A request was appended to a node's log.
    Logged {
        /// Reporting node.
        node: NodeId,
        /// Sequence number.
        sn: u64,
        /// Origin node of the request.
        origin: NodeId,
        /// Payload length in bytes.
        payload_len: usize,
        /// Payload digest — lets callers compare decided sequences across
        /// runtimes without shipping payloads around.
        digest: Digest,
    },
    /// A block was created.
    BlockCreated {
        /// Reporting node.
        node: NodeId,
        /// Block height.
        height: u64,
        /// Block hash.
        hash: Digest,
    },
    /// A checkpoint became stable.
    CheckpointStable {
        /// Reporting node.
        node: NodeId,
        /// Checkpoint sequence number.
        sn: u64,
    },
    /// A view change completed.
    ViewChange {
        /// Reporting node.
        node: NodeId,
        /// The new view.
        view: u64,
        /// The new primary.
        primary: NodeId,
    },
}

/// Final state of one node after shutdown.
#[derive(Debug)]
pub struct NodeSummary {
    /// The node's id.
    pub id: NodeId,
    /// Its blockchain store.
    pub chain: ChainStore,
    /// Its stable checkpoint proofs.
    pub stable_proofs: Vec<CheckpointProof>,
    /// Its statistics counters.
    pub stats: zugchain::NodeStats,
}

/// Seed of every live cluster's replica keys.
const KEYSTORE_SEED: u64 = 0xC10C;

/// A live cluster of ZugChain nodes, one OS thread each, over the
/// transport `T`: [`Channels`] ([`ThreadedCluster`]) or
/// [`Tcp`](crate::tcp::Tcp) ([`TcpCluster`](crate::tcp::TcpCluster)).
///
/// Every live cluster serves its metrics over HTTP on
/// [`status_address`](Self::status_address), and, when started with a
/// data directory, persists each node's blocks and checkpoint proofs
/// under `dir/node-<id>/`. A node whose directory already holds a chain
/// resumes from it (see [`ThreadedCluster::start_with_disk`]).
pub struct LiveCluster<T> {
    inboxes: Vec<Inbox>,
    events: Receiver<ClusterEvent>,
    handles: Vec<JoinHandle<NodeSummary>>,
    registry: Arc<Registry>,
    telemetry: Vec<Telemetry>,
    traces: Arc<TraceStore>,
    status: ApiServer,
    /// The group keystore, exposed for export-side verification.
    pub keystore: Keystore,
    /// Node key pairs (exported so examples can build export handlers).
    pub pairs: Vec<KeyPair>,
    /// Address of the live status server: `GET /metrics` returns the
    /// cluster's Prometheus-text snapshot (`GET /healthz` for liveness).
    /// This is a [`zugchain_api::ApiServer`] with no archive backend —
    /// the same exposition path the fleet's query front end uses.
    pub status_address: SocketAddr,
    transport: PhantomData<T>,
}

/// The in-process transport: one bounded channel per node. Delivery
/// clones the message out of its frame and never encodes it.
pub struct Channels;

impl Transport for Channels {
    const THREAD_NAME: &'static str = "zugchain-node";
    type Link = ChannelLink;

    fn connect(n: usize) -> io::Result<Vec<(ChannelLink, Inbox)>> {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| sync_channel(4096)).unzip();
        Ok(receivers
            .into_iter()
            .zip(&senders)
            .map(|(inbox, inputs)| {
                let peers = senders.clone();
                let inputs = inputs.clone();
                let doorbell = None;
                (ChannelLink { peers, inbox }, Inbox { inputs, doorbell })
            })
            .collect())
    }
}

/// A live cluster whose nodes talk over in-process channels.
///
/// # Examples
///
/// ```no_run
/// use zugchain::NodeConfig;
/// use zugchain_sim::runtime::ThreadedCluster;
///
/// let cluster = ThreadedCluster::start(4, NodeConfig::evaluation_default());
/// cluster.feed_bus_payload_all(b"speed=120".to_vec());
/// std::thread::sleep(std::time::Duration::from_millis(200));
/// let summaries = cluster.shutdown();
/// assert_eq!(summaries.len(), 4);
/// ```
pub type ThreadedCluster = LiveCluster<Channels>;

impl ThreadedCluster {
    /// Starts `n` nodes with the default JRU signal configuration.
    ///
    /// # Panics
    ///
    /// Panics if the status server cannot bind a loopback port.
    pub fn start(n: usize, config: NodeConfig) -> Self {
        launch(n, config, None).expect("start the cluster")
    }

    /// Starts `n` nodes that additionally persist every block durably to
    /// `dir/node-<id>/` (the JRU requirement that data survive power
    /// loss; §V-B reports ~5 ms per block write on the testbed).
    ///
    /// An empty directory starts a fresh node. A directory that already
    /// holds a chain is a restart after a power cut: the node keeps the
    /// verified block prefix ([`DiskStore::recover_chain`], which deletes a
    /// damaged tail), cut back to the newest block a stored checkpoint
    /// proof covers, else restarts from genesis
    /// ([`rebuild_recovered_state`]). Block files above the kept head are
    /// removed, so the directory's blocks are exactly the chain the node
    /// resumes with; proof files stay. Consensus continues after the kept
    /// checkpoint, and the duplicate filter is re-seeded from the kept
    /// blocks. A node that resumes behind its peers stops, as a crashed
    /// node does, at the first checkpoint it cannot fill: the live loop
    /// serves no state transfer.
    ///
    /// # Panics
    ///
    /// Panics on an I/O error in a data directory, or if the status
    /// server cannot bind a loopback port.
    pub fn start_with_disk(n: usize, config: NodeConfig, dir: impl AsRef<Path>) -> Self {
        launch(n, config, Some(dir.as_ref())).expect("start the cluster on its directory")
    }
}

/// The one set-up of every live cluster: keys, telemetry, the status
/// server, each node as its data directory left it, the transport's
/// links, and one named thread per node.
pub(crate) fn launch<T: Transport>(
    n: usize,
    config: NodeConfig,
    dir: Option<&Path>,
) -> io::Result<LiveCluster<T>> {
    let (pairs, keystore) = Keystore::generate(n, KEYSTORE_SEED);
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

    let nodes = pairs
        .iter()
        .enumerate()
        .map(|(id, key)| {
            let disk = dir
                .map(|dir| DiskStore::open(dir.join(format!("node-{id}"))))
                .transpose()?;
            let survived = disk.as_ref().map(recover_state).transpose()?.flatten();
            let node = ZugchainNode::restart(
                id as u64,
                config.clone(),
                Nsdb::jru_default(),
                key.clone(),
                keystore.clone(),
                survived,
            );
            Ok((node, disk))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let (links, inboxes): (Vec<_>, Vec<_>) = T::connect(n)?.into_iter().unzip();
    let (event_tx, events) = channel();
    let start = Instant::now();
    let handles = nodes
        .into_iter()
        .zip(links)
        .enumerate()
        .map(|(id, ((node, disk), link))| {
            let events = event_tx.clone();
            let node_telemetry = telemetry[id].clone();
            std::thread::Builder::new()
                .name(format!("{}-{id}", T::THREAD_NAME))
                .spawn(move || node_loop(node, link, events, disk, node_telemetry, start))
                .expect("spawn node thread")
        })
        .collect();

    Ok(LiveCluster {
        inboxes,
        events,
        handles,
        registry,
        telemetry,
        traces,
        status,
        keystore,
        pairs,
        status_address,
        transport: PhantomData,
    })
}

impl<T> LiveCluster<T> {
    /// The cluster's shared metrics registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// A Prometheus-text snapshot of every node's metrics (the same text
    /// the status server serves on [`status_address`](Self::status_address)).
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
    /// assembly and the `/v1/trains/<id>/trace/<sn>` API endpoint.
    pub fn trace_store(&self) -> Arc<TraceStore> {
        Arc::clone(&self.traces)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// Returns `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.inboxes.is_empty()
    }

    /// Delivers the same consolidated payload to every node, as if all
    /// read it from one bus cycle.
    pub fn feed_bus_payload_all(&self, payload: Vec<u8>) {
        let Some((last, others)) = self.inboxes.split_last() else {
            return;
        };
        for inbox in others {
            inbox.send(LoopInput::RawPayload(payload.clone()));
        }
        last.send(LoopInput::RawPayload(payload));
    }

    /// Delivers a payload to one node only (diverging reception).
    pub fn feed_bus_payload(&self, node: usize, payload: Vec<u8>) {
        self.inboxes[node].send(LoopInput::RawPayload(payload));
    }

    /// Delivers one bus cycle's telegrams to a node.
    pub fn feed_telegrams(&self, node: usize, cycle: u64, time_ms: u64, telegrams: Vec<Telegram>) {
        let telegrams = LoopInput::Telegrams {
            cycle,
            time_ms,
            telegrams,
        };
        self.inboxes[node].send(telegrams);
    }

    /// Crashes a node: it stops processing but its thread stays alive so
    /// its state can still be collected at shutdown.
    pub fn crash(&self, node: usize) {
        self.inboxes[node].send(LoopInput::Crash);
    }

    /// The event stream (logged requests, blocks, view changes).
    pub fn events(&self) -> &Receiver<ClusterEvent> {
        &self.events
    }

    /// Stops all nodes and returns their final state.
    pub fn shutdown(mut self) -> Vec<NodeSummary> {
        for inbox in &self.inboxes {
            inbox.send(LoopInput::Shutdown);
        }
        self.status.stop();
        self.handles
            .into_iter()
            .map(|handle| handle.join().expect("node thread panicked"))
            .collect()
    }
}

/// What a node's data directory holds, through the one restart rule (see
/// [`ThreadedCluster::start_with_disk`]); `None` starts at genesis.
fn recover_state(disk: &DiskStore) -> io::Result<Option<(ChainStore, Vec<CheckpointProof>)>> {
    let blocks = disk.recover_chain(None)?.blocks;
    let proofs = disk
        .load_proofs()?
        .into_iter()
        .map(|(_, bytes)| {
            zugchain_wire::from_bytes(&bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        })
        .collect::<io::Result<Vec<CheckpointProof>>>()?;
    let survived = rebuild_recovered_state(&blocks, None, &proofs);
    let kept = survived.as_ref().map_or(0, |(store, _)| store.len());
    for block in &blocks[kept..] {
        disk.remove_block(block.height())?;
    }
    Ok(survived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use zugchain_telemetry::{check_chain, ChainCheck, Stage, STAGES};

    #[test]
    fn threaded_cluster_orders_and_shuts_down() {
        let cluster = ThreadedCluster::start(4, NodeConfig::default_for_testing());
        for tag in 0..6u8 {
            cluster.feed_bus_payload_all(vec![tag; 64]);
            std::thread::sleep(Duration::from_millis(30));
        }
        std::thread::sleep(Duration::from_millis(300));
        let summaries = cluster.shutdown();
        assert_eq!(summaries.len(), 4);
        for summary in &summaries {
            assert_eq!(
                summary.stats.logged, 6,
                "node {} logged {}",
                summary.id.0, summary.stats.logged
            );
            assert_eq!(summary.chain.height(), 2, "block size 3 → 2 blocks");
        }
        // All chains agree.
        let head = summaries[0].chain.head_hash();
        assert!(summaries.iter().all(|s| s.chain.head_hash() == head));
    }

    #[test]
    fn crashed_primary_is_replaced_live() {
        let cluster = ThreadedCluster::start(4, NodeConfig::default_for_testing());
        cluster.feed_bus_payload_all(b"before".to_vec());
        std::thread::sleep(Duration::from_millis(150));
        cluster.crash(0);
        // Only the surviving nodes read this payload.
        for node in 1..4 {
            cluster.feed_bus_payload(node, b"after-crash".to_vec());
        }
        std::thread::sleep(Duration::from_millis(800));
        let mut view_changed = false;
        while let Ok(event) = cluster.events().try_recv() {
            if let ClusterEvent::ViewChange { view, .. } = event {
                assert!(view >= 1);
                view_changed = true;
            }
        }
        let summaries = cluster.shutdown();
        assert!(view_changed, "view change must be reported");
        assert!(
            summaries[1].stats.logged >= 2,
            "survivors logged both payloads"
        );
    }

    #[test]
    fn rings_stay_bounded_and_the_newest_request_still_assembles() {
        // Each request puts a few dozen events and spans on every node,
        // so this run records far more than one ring holds.
        const CAPACITY: usize = 128;
        const REQUESTS: u64 = 120;
        let config = NodeConfig::evaluation_default().with_trace_capacity(CAPACITY);
        let cluster = ThreadedCluster::start(4, config);
        let store = cluster.trace_store();
        let mut logged = 0;
        let mut newest_sn = 0;
        let mut trace_counts = Vec::new();
        for tag in 0..REQUESTS {
            cluster.feed_bus_payload_all(tag.to_le_bytes().repeat(8));
            // One request at a time: wait until every node logged it.
            while logged < 4 * (tag + 1) {
                match cluster.events().recv_timeout(Duration::from_secs(10)) {
                    Ok(ClusterEvent::Logged { sn, .. }) => {
                        logged += 1;
                        newest_sn = newest_sn.max(sn);
                    }
                    Ok(_) => {}
                    Err(e) => panic!("request {tag} not logged everywhere: {e}"),
                }
            }
            if (tag + 1) % (REQUESTS / 4) == 0 {
                trace_counts.push(store.trace_count());
            }
        }
        for node in 0..4 {
            let events = cluster.trace_jsonl(node).lines().count();
            assert!(events <= CAPACITY, "node {node} ring holds {events}");
        }
        // Every request opens one trace per receiving node, yet the
        // store only sees what the bounded rings still hold.
        assert!(
            trace_counts.iter().all(|&count| count <= CAPACITY),
            "trace count must stay bounded, got {trace_counts:?}"
        );
        let [id] = store.traces_for_sn(newest_sn)[..] else {
            panic!("sn {newest_sn} must name exactly one trace");
        };
        let record_to_decide = &STAGES[..=Stage::Decide.order()];
        assert_eq!(
            check_chain(&store.assemble(id), record_to_decide),
            ChainCheck::Complete,
            "{}",
            store.render_tree(id)
        );
        cluster.shutdown();
    }
}

#[cfg(test)]
mod disk_tests {
    use super::*;
    use std::time::{Duration, Instant};
    use zugchain_blockchain::DiskStore;

    #[test]
    fn blocks_survive_power_loss_on_disk() {
        let dir =
            std::env::temp_dir().join(format!("zugchain-runtime-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let config = NodeConfig::evaluation_default().with_block_size(3);
        let cluster = ThreadedCluster::start_with_disk(4, config, &dir);
        for tag in 0..6u8 {
            cluster.feed_bus_payload_all(vec![tag; 64]);
            std::thread::sleep(Duration::from_millis(30));
        }
        // Wait until every node has reported two durable blocks.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut done = [0u64; 4];
        while done.iter().any(|h| *h < 2) && Instant::now() < deadline {
            if let Ok(ClusterEvent::BlockCreated { node, height, .. }) =
                cluster.events().recv_timeout(Duration::from_millis(200))
            {
                done[node.0 as usize] = done[node.0 as usize].max(height);
            }
        }
        let summaries = cluster.shutdown();

        // "Power loss": all that remains are the on-disk directories.
        for summary in &summaries {
            let store = DiskStore::open(dir.join(format!("node-{}", summary.id.0))).unwrap();
            let chain = store.load_chain().expect("disk chain loads and verifies");
            assert_eq!(chain.len(), 2, "node {}", summary.id.0);
            assert_eq!(
                chain.last().unwrap().hash(),
                summary.chain.get(2).unwrap().hash(),
                "disk matches in-memory chain"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use std::ops::Range;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    use crate::tcp::TcpCluster;

    /// Block size 3: six requests make two blocks, each proven by its
    /// checkpoint.
    fn config() -> NodeConfig {
        NodeConfig::evaluation_default().with_block_size(3)
    }

    fn channels(dir: &Path) -> ThreadedCluster {
        ThreadedCluster::start_with_disk(4, config(), dir)
    }

    fn tcp(dir: &Path) -> TcpCluster {
        TcpCluster::start_with_disk(4, config(), dir).expect("loopback sockets")
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zugchain-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn node_disk(dir: &Path, node: usize) -> DiskStore {
        DiskStore::open(dir.join(format!("node-{node}"))).unwrap()
    }

    /// Feeds one 64-byte payload per tag, 30 ms apart.
    fn feed<T>(cluster: &LiveCluster<T>, tags: Range<u8>) {
        for tag in tags {
            cluster.feed_bus_payload_all(vec![tag; 64]);
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    fn proven(event: &ClusterEvent) -> Option<(NodeId, u64)> {
        match *event {
            ClusterEvent::CheckpointStable { node, sn } => Some((node, sn)),
            _ => None,
        }
    }

    fn built(event: &ClusterEvent) -> Option<(NodeId, u64)> {
        match *event {
            ClusterEvent::BlockCreated { node, height, .. } => Some((node, height)),
            _ => None,
        }
    }

    /// Waits until each of `nodes` has reported `target` or beyond, as
    /// `progress` reads it off the event stream.
    fn await_progress<T>(
        cluster: &LiveCluster<T>,
        nodes: Range<usize>,
        target: u64,
        progress: fn(&ClusterEvent) -> Option<(NodeId, u64)>,
    ) {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut reached = [0u64; 4];
        while nodes.clone().any(|node| reached[node] < target) {
            assert!(
                Instant::now() < deadline,
                "nodes {nodes:?} reached {reached:?}, not {target}"
            );
            if let Ok(event) = cluster.events().recv_timeout(Duration::from_millis(200)) {
                if let Some((node, value)) = progress(&event) {
                    let node = node.0 as usize;
                    reached[node] = reached[node].max(value);
                }
            }
        }
    }

    /// Every node's directory holds exactly the blocks it ended with.
    fn assert_disk_matches(dir: &Path, summaries: &[NodeSummary]) {
        for summary in summaries {
            let node = summary.id.0 as usize;
            let on_disk = node_disk(dir, node).load_chain().unwrap();
            assert_eq!(
                on_disk,
                summary.chain.blocks(),
                "node {node}: disk vs memory"
            );
        }
    }

    /// Full power-loss drill: run, lose power, restart from disk, keep
    /// recording — one continuous verified chain across the outage.
    fn power_loss_drill<T>(dir: &Path, start: fn(&Path) -> LiveCluster<T>) {
        // --- Before the outage: order 6 requests = 2 durable blocks.
        let cluster = start(dir);
        feed(&cluster, 0..6);
        await_progress(&cluster, 0..4, 6, proven);
        let before = cluster.shutdown(); // power loss
        let head_before = before[0].chain.head_hash();
        assert_eq!(before[0].chain.height(), 2);

        // --- After the outage: restart from disk only.
        let recovered = start(dir);
        feed(&recovered, 10..16);
        await_progress(&recovered, 0..4, 4, built);
        let after = recovered.shutdown();

        for summary in &after {
            assert_eq!(summary.chain.height(), 4, "node {}", summary.id.0);
            // The pre-outage blocks are the prefix of the recovered chain.
            assert_eq!(summary.chain.get(2).unwrap().hash(), head_before);
            assert!(zugchain_blockchain::verify_chain(summary.chain.blocks(), None).is_ok());
        }
        // And the full chain on disk verifies end to end, on every node.
        assert_eq!(node_disk(dir, 0).load_chain().unwrap().len(), 4);
        assert_disk_matches(dir, &after);
    }

    /// Over channels, and over sockets as one more input: the deployment
    /// shape, four replicas over TCP, each writing its own disk.
    #[test]
    fn cluster_recovers_from_power_loss_and_continues_the_chain() {
        let dir = fresh_dir("recovery");
        power_loss_drill(&dir, channels);
        let _ = std::fs::remove_dir_all(&dir);
        let dir = fresh_dir("recovery-tcp");
        power_loss_drill(&dir, tcp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pre-restart payloads must not be logged twice after recovery (the
    /// dedup filter is re-seeded from the reloaded blocks).
    #[test]
    fn recovery_reseeds_the_duplicate_filter() {
        let dir = fresh_dir("reseed");
        let cluster = channels(&dir);
        feed(&cluster, 0..3);
        await_progress(&cluster, 0..1, 3, proven);
        cluster.shutdown();

        let recovered = channels(&dir);
        // A delayed bus frame re-delivers a pre-outage payload.
        recovered.feed_bus_payload_all(vec![1u8; 64]);
        std::thread::sleep(Duration::from_millis(400));
        let after = recovered.shutdown();
        for summary in &after {
            assert_eq!(
                summary.stats.logged, 0,
                "node {} re-logged a pre-outage payload",
                summary.id.0
            );
            assert!(summary.stats.duplicates_filtered >= 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Block 2 of node 0 is cut in half, as a power cut mid-write leaves
    /// it. Without its proof (`proven_head` false, `ckpt 6` never reached
    /// the disk) the torn block lies above the last proven block; with it,
    /// the torn block is the proven head. Either way node 0 resumes from
    /// block 1 and stops at the first checkpoint it cannot fill, and the
    /// other three keep recording.
    fn torn_block_drill<T>(dir: &Path, start: fn(&Path) -> LiveCluster<T>, proven_head: bool) {
        let cluster = start(dir);
        feed(&cluster, 0..6);
        await_progress(&cluster, 0..4, 6, proven);
        let before = cluster.shutdown();

        let node0 = dir.join("node-0");
        if !proven_head {
            std::fs::remove_file(node0.join("ckpt-0000000006.zcp")).unwrap();
        }
        let torn = node0.join("block-0000000002.zc");
        let raw = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &raw[..raw.len() / 2]).unwrap();

        let restarted = start(dir);
        // Node 0 resumes from block 1, on disk as in memory.
        assert_eq!(
            node_disk(dir, 0).load_chain().unwrap(),
            before[0].chain.blocks()[..1]
        );
        // Node 0 is the view-0 primary, three requests behind the others:
        // they depose it and order without it.
        feed(&restarted, 10..16);
        await_progress(&restarted, 1..4, 4, built);
        let after = restarted.shutdown();

        assert_eq!(after[0].chain.get(1), before[0].chain.get(1));
        // Behind a checkpoint it cannot fill, node 0 stops rather than
        // record its next decides on a chain that lacks the gap.
        assert!(
            after[1].chain.blocks().starts_with(after[0].chain.blocks()),
            "node 0 forked from the quorum's chain"
        );
        for summary in &after[1..] {
            assert_eq!(summary.chain.height(), 4, "node {}", summary.id.0);
            assert_eq!(summary.chain.blocks()[..2], before[0].chain.blocks()[..]);
        }
        assert_disk_matches(dir, &after);
    }

    #[test]
    fn a_torn_block_above_the_last_proof_resumes_from_the_proven_block() {
        let dir = fresh_dir("torn");
        torn_block_drill(&dir, channels, false);
        let _ = std::fs::remove_dir_all(&dir);
        let dir = fresh_dir("torn-tcp");
        torn_block_drill(&dir, tcp, false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_proven_head_falls_back_to_the_previous_proof() {
        let dir = fresh_dir("proven-head");
        torn_block_drill(&dir, channels, true);
        let _ = std::fs::remove_dir_all(&dir);
        let dir = fresh_dir("proven-head-tcp");
        torn_block_drill(&dir, tcp, true);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The power cut came after every node wrote block 1 and before any
    /// wrote its checkpoint proof: nothing is proven, so every node
    /// restarts at genesis, drops the unproven block, and records.
    fn unproven_block_drill<T>(dir: &Path, start: fn(&Path) -> LiveCluster<T>) {
        let cluster = start(dir);
        feed(&cluster, 0..3);
        await_progress(&cluster, 0..4, 1, built);
        cluster.shutdown();
        for node in 0..4 {
            for entry in std::fs::read_dir(dir.join(format!("node-{node}"))).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|ext| ext == "zcp") {
                    std::fs::remove_file(path).unwrap();
                }
            }
        }

        let restarted = start(dir);
        for node in 0..4 {
            assert_eq!(node_disk(dir, node).heights().unwrap(), [], "node {node}");
        }
        feed(&restarted, 10..13);
        await_progress(&restarted, 0..4, 1, built);
        let after = restarted.shutdown();

        for summary in &after {
            assert_eq!(summary.chain.height(), 1, "node {}", summary.id.0);
            assert_eq!(summary.chain.head_hash(), after[0].chain.head_hash());
            let payloads: Vec<&[u8]> = summary.chain.blocks()[0]
                .requests
                .iter()
                .map(|request| &request.payload[..])
                .collect();
            assert_eq!(payloads, [[10u8; 64], [11; 64], [12; 64]]);
        }
        assert_disk_matches(dir, &after);
    }

    #[test]
    fn a_power_cut_before_the_first_checkpoint_restarts_from_genesis() {
        let dir = fresh_dir("unproven");
        unproven_block_drill(&dir, channels);
        let _ = std::fs::remove_dir_all(&dir);
        let dir = fresh_dir("unproven-tcp");
        unproven_block_drill(&dir, tcp);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
