use zugchain_pbft::Config as PbftConfig;
use zugchain_wire::TrainId;

/// Configuration of a ZugChain node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The train this node's consensus group belongs to. Every train in
    /// a fleet runs its own independent chain and PBFT group; the id
    /// flows into export segments, archive shards, and the `train`
    /// telemetry label. Single-train deployments keep the default.
    pub train: TrainId,
    /// The PBFT group configuration (n, f, watermarks).
    pub pbft: PbftConfig,
    /// Ordered requests bundled per block (the paper evaluates 10).
    pub block_size: usize,
    /// Soft timeout in milliseconds: how long a backup waits for the
    /// primary to order a request it received from the bus before
    /// broadcasting it itself (paper Fig. 8 uses 250 ms).
    pub soft_timeout_ms: u64,
    /// Hard timeout in milliseconds: how long after broadcasting a node
    /// waits for the decide before suspecting the primary (250 ms in the
    /// paper, for a combined 500 ms view-change trigger).
    pub hard_timeout_ms: u64,
    /// View-change timeout: how long to wait for a `NewView` before
    /// escalating to the next view.
    pub view_change_timeout_ms: u64,
    /// Maximum open (broadcast but undecided) requests accepted per node —
    /// the DoS rate limit of §III-C, "calculated based on the bus
    /// frequency".
    pub open_request_limit: usize,
    /// Number of recent checkpoints whose requests stay in the duplicate
    /// filter's sliding window (§III-C: "a hashmap over the requests of a
    /// sliding window of past checkpoints").
    pub dedup_window_checkpoints: usize,
    /// Capacity of each telemetry handle's event ring, spans included
    /// (events retained per node). Overflow keeps the newest events.
    pub trace_capacity: usize,
}

impl NodeConfig {
    /// The paper's evaluation configuration: n=4, block size 10, soft and
    /// hard timeouts of 250 ms each.
    pub fn evaluation_default() -> Self {
        Self {
            train: TrainId::DEFAULT,
            pbft: PbftConfig::new(4).expect("4 >= 4"),
            block_size: 10,
            soft_timeout_ms: 250,
            hard_timeout_ms: 250,
            view_change_timeout_ms: 500,
            open_request_limit: 16,
            dedup_window_checkpoints: 8,
            trace_capacity: zugchain_telemetry::DEFAULT_TRACE_CAPACITY,
        }
    }

    /// A small configuration convenient for unit tests: block size 3 and
    /// short timeouts.
    pub fn default_for_testing() -> Self {
        Self {
            train: TrainId::DEFAULT,
            pbft: PbftConfig::new(4).expect("4 >= 4"),
            block_size: 3,
            soft_timeout_ms: 50,
            hard_timeout_ms: 50,
            view_change_timeout_ms: 100,
            open_request_limit: 8,
            dedup_window_checkpoints: 4,
            trace_capacity: zugchain_telemetry::DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Computes the open-request limit from the bus frequency: a node can
    /// legitimately have at most a few cycles' worth of requests in
    /// flight, so the limit is the number of bus cycles covered by the
    /// combined timeouts, plus slack.
    #[must_use]
    pub fn with_limit_from_bus_cycle(mut self, bus_cycle_ms: u64) -> Self {
        let window = self.soft_timeout_ms + self.hard_timeout_ms;
        let cycles = window.div_ceil(bus_cycle_ms.max(1)) as usize;
        self.open_request_limit = (cycles + 2).max(4);
        self
    }

    /// Assigns the node's consensus group to a train of the fleet.
    #[must_use]
    pub fn with_train(mut self, train: TrainId) -> Self {
        self.train = train;
        self
    }

    /// Overrides the block size.
    #[must_use]
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Overrides both timeouts.
    #[must_use]
    pub fn with_timeouts(mut self, soft_ms: u64, hard_ms: u64) -> Self {
        self.soft_timeout_ms = soft_ms;
        self.hard_timeout_ms = hard_ms;
        self
    }

    /// Overrides the event-ring capacity (a floor of 1
    /// is applied by the ring itself).
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_default_matches_paper() {
        let config = NodeConfig::evaluation_default();
        assert_eq!(config.pbft.n, 4);
        assert_eq!(config.block_size, 10);
        assert_eq!(config.soft_timeout_ms + config.hard_timeout_ms, 500);
    }

    #[test]
    fn limit_follows_bus_frequency() {
        let fast = NodeConfig::evaluation_default().with_limit_from_bus_cycle(32);
        let slow = NodeConfig::evaluation_default().with_limit_from_bus_cycle(256);
        assert!(fast.open_request_limit > slow.open_request_limit);
        assert!(slow.open_request_limit >= 4);
    }
}
