use std::fmt;

/// Static configuration of a PBFT group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Total number of replicas, n ≥ 3f+1.
    pub n: usize,
    /// Maximum number of Byzantine replicas tolerated.
    pub f: usize,
    /// Window of sequence numbers accepted above the low watermark.
    pub watermark_window: u64,
    /// How long the replica waits for a `NewView` after voting for a view
    /// change before escalating to the next view, in milliseconds. The
    /// replica arms this timer itself via `Effect::SetTimer`.
    pub view_change_timeout_ms: u64,
    /// Maximum requests bundled under one preprepare. `1` (the default)
    /// reproduces the unbatched protocol exactly; larger values amortize
    /// one three-phase round over up to this many requests.
    pub max_batch_size: usize,
    /// How long a partially filled batch may wait for more requests
    /// before the primary flushes it, in milliseconds. `0` (the default)
    /// flushes at the next timer edge, keeping light-load latency
    /// essentially unchanged.
    pub batch_delay_ms: u64,
    /// Capacity of the future-view message buffer. When full, the
    /// highest-view message loses — an arrival for a view at or beyond
    /// the farthest buffered one is dropped, anything nearer evicts that
    /// farthest entry — so messages for the nearest future views, the
    /// ones needed to make progress after a partition heals, survive.
    pub max_buffered_messages: usize,
}

/// Error constructing a [`Config`] with too few replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidGroupSize {
    /// The rejected group size.
    pub n: usize,
}

impl fmt::Display for InvalidGroupSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "group of {} replicas cannot tolerate any fault (need n >= 4)",
            self.n
        )
    }
}

impl std::error::Error for InvalidGroupSize {}

impl Config {
    /// Creates a configuration for `n` replicas tolerating
    /// `f = (n - 1) / 3` faults.
    ///
    /// # Errors
    ///
    /// [`InvalidGroupSize`] if `n < 4`.
    pub fn new(n: usize) -> Result<Self, InvalidGroupSize> {
        if n < 4 {
            return Err(InvalidGroupSize { n });
        }
        Ok(Self {
            n,
            f: (n - 1) / 3,
            watermark_window: 256,
            view_change_timeout_ms: 500,
            max_batch_size: 1,
            batch_delay_ms: 0,
            max_buffered_messages: 8192,
        })
    }

    /// Overrides the watermark window.
    #[must_use]
    pub fn with_watermark_window(mut self, window: u64) -> Self {
        self.watermark_window = window;
        self
    }

    /// Overrides the view-change timeout.
    #[must_use]
    pub fn with_view_change_timeout(mut self, timeout_ms: u64) -> Self {
        self.view_change_timeout_ms = timeout_ms;
        self
    }

    /// Overrides the maximum batch size (values below 1 are clamped to 1).
    #[must_use]
    pub fn with_max_batch_size(mut self, max_batch_size: usize) -> Self {
        self.max_batch_size = max_batch_size.max(1);
        self
    }

    /// Overrides the partial-batch flush delay.
    #[must_use]
    pub fn with_batch_delay(mut self, delay_ms: u64) -> Self {
        self.batch_delay_ms = delay_ms;
        self
    }

    /// Overrides the future-view buffer capacity.
    #[must_use]
    pub fn with_max_buffered_messages(mut self, capacity: usize) -> Self {
        self.max_buffered_messages = capacity.max(1);
        self
    }

    /// The quorum size for prepares, commits and checkpoints: 2f+1.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Number of matching prepare messages from *other* replicas required
    /// in the prepare phase: 2f (the preprepare stands in for the
    /// primary's prepare).
    pub fn prepare_quorum(&self) -> usize {
        2 * self.f
    }

    /// Votes needed before a view change actually happens: f+1 suspicions
    /// guarantee at least one correct suspecter.
    pub fn suspicion_quorum(&self) -> usize {
        self.f + 1
    }

    /// The primary of `view`: round-robin over the group.
    pub fn primary_of(&self, view: u64) -> crate::NodeId {
        crate::NodeId(view % self.n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_replicas_tolerate_one_fault() {
        let config = Config::new(4).unwrap();
        assert_eq!(config.f, 1);
        assert_eq!(config.quorum(), 3);
        assert_eq!(config.prepare_quorum(), 2);
        assert_eq!(config.suspicion_quorum(), 2);
    }

    #[test]
    fn batching_defaults_to_unbatched_protocol() {
        let config = Config::new(4).unwrap();
        assert_eq!(config.max_batch_size, 1);
        assert_eq!(config.batch_delay_ms, 0);
        assert_eq!(
            Config::new(4)
                .unwrap()
                .with_max_batch_size(0)
                .max_batch_size,
            1
        );
        assert_eq!(
            Config::new(4)
                .unwrap()
                .with_max_batch_size(16)
                .with_batch_delay(5)
                .batch_delay_ms,
            5
        );
        assert_eq!(
            Config::new(4)
                .unwrap()
                .with_max_buffered_messages(64)
                .max_buffered_messages,
            64
        );
    }

    #[test]
    fn seven_replicas_tolerate_two_faults() {
        let config = Config::new(7).unwrap();
        assert_eq!(config.f, 2);
        assert_eq!(config.quorum(), 5);
    }

    #[test]
    fn tiny_groups_are_rejected() {
        assert!(Config::new(3).is_err());
        assert!(Config::new(0).is_err());
    }

    #[test]
    fn primary_rotates_round_robin() {
        let config = Config::new(4).unwrap();
        assert_eq!(config.primary_of(0), crate::NodeId(0));
        assert_eq!(config.primary_of(5), crate::NodeId(1));
        assert_eq!(config.primary_of(7), crate::NodeId(3));
    }
}
