//! A thread-per-node runtime driving the real state machines on real
//! time — the examples use this to run a live ZugChain cluster inside one
//! process, with `std::sync::mpsc` channels standing in for the testbed
//! Ethernet.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use zugchain::{NodeConfig, ZugchainNode};
use zugchain_blockchain::{ChainStore, DiskStore};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_mvb::{Nsdb, Telegram};
use zugchain_pbft::{CheckpointProof, NodeId};
use zugchain_telemetry::{Registry, Telemetry, TraceStore};

use crate::node_loop::{node_loop, ChannelLink, LoopInput};

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

/// A live cluster of ZugChain nodes, one OS thread each.
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
pub struct ThreadedCluster {
    inboxes: Vec<SyncSender<LoopInput>>,
    events: Receiver<ClusterEvent>,
    handles: Vec<JoinHandle<NodeSummary>>,
    registry: Arc<Registry>,
    telemetry: Vec<Telemetry>,
    traces: Arc<TraceStore>,
    /// The group keystore, exposed for export-side verification.
    pub keystore: Keystore,
    /// Node key pairs (exported so examples can build export handlers).
    pub pairs: Vec<KeyPair>,
}

impl ThreadedCluster {
    /// Starts `n` nodes with the default JRU signal configuration.
    pub fn start(n: usize, config: NodeConfig) -> Self {
        Self::start_with_nsdb(n, config, Nsdb::jru_default())
    }

    /// Starts `n` nodes that additionally persist every block durably to
    /// `dir/node-<id>/` (the JRU requirement that data survive power
    /// loss; §V-B reports ~5 ms per block write on the testbed).
    pub fn start_with_disk(n: usize, config: NodeConfig, dir: impl AsRef<std::path::Path>) -> Self {
        let dir = dir.as_ref().to_path_buf();
        Self::build(n, config, Nsdb::jru_default(), Some(dir))
    }

    /// Starts `n` nodes with an explicit NSDB.
    pub fn start_with_nsdb(n: usize, config: NodeConfig, nsdb: Nsdb) -> Self {
        Self::build(n, config, nsdb, None)
    }

    /// Restarts a cluster from the per-node block directories written by
    /// [`start_with_disk`](Self::start_with_disk) — the power-loss
    /// recovery path. Each node reloads and verifies its chain, resumes
    /// the block builder at the last *proven* block, and consensus
    /// continues after the last stable checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if a node's on-disk state is missing, corrupt, or carries
    /// no stable checkpoint.
    pub fn recover_from_disk(
        n: usize,
        config: NodeConfig,
        dir: impl AsRef<std::path::Path>,
    ) -> Self {
        let dir = dir.as_ref().to_path_buf();
        let (pairs, keystore) = Keystore::generate(n, 0xC10C);
        let (event_tx, event_rx) = channel();
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
        let channels: Vec<(SyncSender<LoopInput>, Receiver<LoopInput>)> =
            (0..n).map(|_| sync_channel(4096)).collect();
        let inboxes: Vec<SyncSender<LoopInput>> =
            channels.iter().map(|(tx, _)| tx.clone()).collect();

        let start = Instant::now();
        let handles = channels
            .into_iter()
            .enumerate()
            .map(|(id, (_, rx))| {
                let disk = DiskStore::open(dir.join(format!("node-{id}")))
                    .expect("open per-node block directory");
                let blocks = disk.load_chain().expect("disk chain loads and verifies");
                let proofs: Vec<zugchain_pbft::CheckpointProof> = disk
                    .load_proofs()
                    .expect("proofs load")
                    .into_iter()
                    .map(|(_, bytes)| zugchain_wire::from_bytes(&bytes).expect("proof decodes"))
                    .collect();
                // Keep the chain up to the last proven block; anything
                // after it lacked a stable checkpoint at power loss and
                // is recovered from peers via state transfer instead.
                let last_proven = proofs
                    .last()
                    .expect("recovery requires a stable checkpoint")
                    .checkpoint
                    .state_digest;
                let mut store = ChainStore::new();
                for block in blocks {
                    let hash = block.hash();
                    store.append(block).expect("verified chain appends");
                    if hash == last_proven {
                        break;
                    }
                }
                let node = ZugchainNode::recover(
                    id as u64,
                    config.clone(),
                    Nsdb::jru_default(),
                    pairs[id].clone(),
                    keystore.clone(),
                    store,
                    proofs,
                );
                let link = ChannelLink {
                    peers: inboxes.clone(),
                    inbox: rx,
                };
                let events = event_tx.clone();
                let node_telemetry = telemetry[id].clone();
                std::thread::Builder::new()
                    .name(format!("zugchain-node-{id}"))
                    .spawn(move || node_loop(node, link, events, Some(disk), node_telemetry, start))
                    .expect("spawn node thread")
            })
            .collect();

        Self {
            inboxes,
            events: event_rx,
            handles,
            registry,
            telemetry,
            traces,
            keystore,
            pairs,
        }
    }

    fn build(
        n: usize,
        config: NodeConfig,
        nsdb: Nsdb,
        disk_dir: Option<std::path::PathBuf>,
    ) -> Self {
        let (pairs, keystore) = Keystore::generate(n, 0xC10C);
        let (event_tx, event_rx) = channel();
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
        let channels: Vec<(SyncSender<LoopInput>, Receiver<LoopInput>)> =
            (0..n).map(|_| sync_channel(4096)).collect();
        let inboxes: Vec<SyncSender<LoopInput>> =
            channels.iter().map(|(tx, _)| tx.clone()).collect();

        let start = Instant::now();
        let handles = channels
            .into_iter()
            .enumerate()
            .map(|(id, (_, rx))| {
                let node = ZugchainNode::new(
                    id as u64,
                    config.clone(),
                    nsdb.clone(),
                    pairs[id].clone(),
                    keystore.clone(),
                );
                let link = ChannelLink {
                    peers: inboxes.clone(),
                    inbox: rx,
                };
                let events = event_tx.clone();
                let disk = disk_dir.as_ref().map(|dir| {
                    DiskStore::open(dir.join(format!("node-{id}")))
                        .expect("create per-node block directory")
                });
                let node_telemetry = telemetry[id].clone();
                std::thread::Builder::new()
                    .name(format!("zugchain-node-{id}"))
                    .spawn(move || node_loop(node, link, events, disk, node_telemetry, start))
                    .expect("spawn node thread")
            })
            .collect();

        Self {
            inboxes,
            events: event_rx,
            handles,
            registry,
            telemetry,
            traces,
            keystore,
            pairs,
        }
    }

    /// The cluster's shared metrics registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// A Prometheus-text snapshot of every node's metrics.
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
        for inbox in &self.inboxes {
            let _ = inbox.send(LoopInput::RawPayload(payload.clone()));
        }
    }

    /// Delivers a payload to one node only (diverging reception).
    pub fn feed_bus_payload(&self, node: usize, payload: Vec<u8>) {
        let _ = self.inboxes[node].send(LoopInput::RawPayload(payload));
    }

    /// Delivers one bus cycle's telegrams to a node.
    pub fn feed_telegrams(&self, node: usize, cycle: u64, time_ms: u64, telegrams: Vec<Telegram>) {
        let _ = self.inboxes[node].send(LoopInput::Telegrams {
            cycle,
            time_ms,
            telegrams,
        });
    }

    /// Crashes a node: it stops processing but its thread stays alive so
    /// its state can still be collected at shutdown.
    pub fn crash(&self, node: usize) {
        let _ = self.inboxes[node].send(LoopInput::Crash);
    }

    /// The event stream (logged requests, blocks, view changes).
    pub fn events(&self) -> &Receiver<ClusterEvent> {
        &self.events
    }

    /// Stops all nodes and returns their final state.
    pub fn shutdown(self) -> Vec<NodeSummary> {
        for inbox in &self.inboxes {
            let _ = inbox.send(LoopInput::Shutdown);
        }
        self.handles
            .into_iter()
            .map(|handle| handle.join().expect("node thread panicked"))
            .collect()
    }
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
    use std::time::{Duration, Instant};

    /// Full power-loss drill: run, lose power, restart from disk, keep
    /// recording — one continuous verified chain across the outage.
    #[test]
    fn cluster_recovers_from_power_loss_and_continues_the_chain() {
        let dir = std::env::temp_dir().join(format!("zugchain-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = NodeConfig::evaluation_default().with_block_size(3);

        // --- Before the outage: order 6 requests = 2 durable blocks.
        let cluster = ThreadedCluster::start_with_disk(4, config.clone(), &dir);
        for tag in 0..6u8 {
            cluster.feed_bus_payload_all(vec![tag; 64]);
            std::thread::sleep(Duration::from_millis(30));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut proven = [0u64; 4];
        while proven.iter().any(|sn| *sn < 6) && Instant::now() < deadline {
            if let Ok(ClusterEvent::CheckpointStable { node, sn }) =
                cluster.events().recv_timeout(Duration::from_millis(200))
            {
                proven[node.0 as usize] = proven[node.0 as usize].max(sn);
            }
        }
        let before = cluster.shutdown(); // power loss
        let head_before = before[0].chain.head_hash();
        assert_eq!(before[0].chain.height(), 2);

        // --- After the outage: restart from disk only.
        let recovered = ThreadedCluster::recover_from_disk(4, config, &dir);
        for tag in 10..16u8 {
            recovered.feed_bus_payload_all(vec![tag; 64]);
            std::thread::sleep(Duration::from_millis(30));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut heights = [0u64; 4];
        while heights.iter().any(|h| *h < 4) && Instant::now() < deadline {
            if let Ok(ClusterEvent::BlockCreated { node, height, .. }) =
                recovered.events().recv_timeout(Duration::from_millis(200))
            {
                heights[node.0 as usize] = heights[node.0 as usize].max(height);
            }
        }
        let after = recovered.shutdown();

        for summary in &after {
            assert_eq!(summary.chain.height(), 4, "node {}", summary.id.0);
            // The pre-outage blocks are the prefix of the recovered chain.
            assert_eq!(summary.chain.get(2).unwrap().hash(), head_before);
            assert!(zugchain_blockchain::verify_chain(summary.chain.blocks(), None).is_ok());
        }
        // And the full chain on disk verifies end to end.
        let disk = DiskStore::open(dir.join("node-0")).unwrap();
        let chain = disk.load_chain().unwrap();
        assert_eq!(chain.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pre-restart payloads must not be logged twice after recovery (the
    /// dedup filter is re-seeded from the reloaded blocks).
    #[test]
    fn recovery_reseeds_the_duplicate_filter() {
        let dir = std::env::temp_dir().join(format!("zugchain-reseed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = NodeConfig::evaluation_default().with_block_size(3);

        let cluster = ThreadedCluster::start_with_disk(4, config.clone(), &dir);
        for tag in 0..3u8 {
            cluster.feed_bus_payload_all(vec![tag; 64]);
            std::thread::sleep(Duration::from_millis(30));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut proven = false;
        while !proven && Instant::now() < deadline {
            if let Ok(ClusterEvent::CheckpointStable { sn: 3, .. }) =
                cluster.events().recv_timeout(Duration::from_millis(200))
            {
                proven = true;
            }
        }
        cluster.shutdown();

        let recovered = ThreadedCluster::recover_from_disk(4, config, &dir);
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
}
