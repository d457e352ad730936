//! One handle over the two live train runtimes: the channel-connected
//! `ThreadedCluster` (optionally persisting blocks to disk) and the
//! socket-connected `TcpCluster`.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use zugchain::NodeConfig;
use zugchain_sim::runtime::{ClusterEvent, NodeSummary, ThreadedCluster};
use zugchain_sim::tcp::TcpCluster;
use zugchain_telemetry::Registry;

/// Replicas per train (the paper's n = 4).
pub const REPLICAS: usize = 4;

/// Name given to the thread that starts a TCP cluster. `TcpCluster`
/// spawns its socket acceptors unnamed, and Linux threads inherit their
/// creator's name, so every acceptor and every frame-reader thread they
/// spawn carries this name in `/proc/self/task/*/comm` — which is how the
/// benchmark attributes reader CPU from outside the program.
pub const TCP_READER_THREAD: &str = "zugchain-tcp-rd";

/// A running cluster of either runtime.
pub enum Cluster {
    Threaded(ThreadedCluster),
    Tcp(TcpCluster),
}

impl Cluster {
    /// Starts the channel runtime, persisting blocks under `disk` if given.
    pub fn threaded(config: NodeConfig, disk: Option<&Path>) -> Self {
        Cluster::Threaded(match disk {
            Some(dir) => ThreadedCluster::start_with_disk(REPLICAS, config, dir),
            None => ThreadedCluster::start(REPLICAS, config),
        })
    }

    /// Starts the TCP runtime from a thread named [`TCP_READER_THREAD`].
    pub fn tcp(config: NodeConfig) -> io::Result<Self> {
        let cluster = std::thread::Builder::new()
            .name(TCP_READER_THREAD.to_string())
            .spawn(move || TcpCluster::start(REPLICAS, config))?
            .join()
            .map_err(|_| io::Error::other("TCP cluster start panicked"))??;
        Ok(Cluster::Tcp(cluster))
    }

    /// Delivers one bus payload to every replica.
    pub fn feed(&self, payload: Vec<u8>) {
        match self {
            Cluster::Threaded(c) => c.feed_bus_payload_all(payload),
            Cluster::Tcp(c) => c.feed_bus_payload_all(payload),
        }
    }

    /// The next cluster event, waiting at most `timeout`.
    pub fn next_event(&self, timeout: Duration) -> Option<ClusterEvent> {
        match self {
            Cluster::Threaded(c) => c.events().recv_timeout(timeout).ok(),
            Cluster::Tcp(c) => c.events().recv_timeout(timeout).ok(),
        }
    }

    /// The cluster's metrics registry.
    pub fn registry(&self) -> Arc<Registry> {
        match self {
            Cluster::Threaded(c) => c.registry(),
            Cluster::Tcp(c) => c.registry(),
        }
    }

    /// Stops every replica; returns final states.
    pub fn shutdown(self) -> Vec<NodeSummary> {
        match self {
            Cluster::Threaded(c) => c.shutdown(),
            Cluster::Tcp(c) => c.shutdown(),
        }
    }
}
