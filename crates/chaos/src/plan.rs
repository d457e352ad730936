//! Seeded scenario generation.
//!
//! A [`ChaosPlan`] is a complete, self-describing schedule of everything
//! a chaos run will do: client operations, crash/recover events with
//! disk truncation, a healing partition, Byzantine behaviour
//! assignments, export rounds, and the network fault model. It is
//! derived from a single `u64` seed, so a failing scenario is fully
//! identified by that seed — and because the executor replays a plan
//! (not a seed), the minimizer can shrink it structurally and still
//! reproduce the violation.

use rand::{rngs::StdRng, RngExt as _, SeedableRng as _};
use std::collections::BTreeSet;

/// How a Byzantine node misbehaves for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzBehavior {
    /// Drops every outbound message while processing inputs normally —
    /// indistinguishable from a crashed node to its peers, but its local
    /// state keeps evolving (and stays subject to the safety checks).
    Silent,
    /// Rewrites its own preprepare broadcasts into per-peer sends with
    /// one victim receiving a conflicting, re-signed proposal for the
    /// same `(view, sn)` slot.
    EquivocatePreprepares,
    /// Feeds fabricated junk bus payloads into its own input path,
    /// flooding consensus with requests no other node observed.
    FabricateBus,
    /// Batch-contents equivocation: the victim receives a batch of the
    /// same length differing in exactly one request for the same
    /// `(view, sn)` slot.
    EquivocateBatch,
}

impl ByzBehavior {
    /// `true` for the behaviours that send a victim a conflicting
    /// preprepare (the victim is then legitimately stalled at that slot
    /// and exempt from the liveness check).
    pub fn equivocates(self) -> bool {
        matches!(
            self,
            ByzBehavior::EquivocatePreprepares | ByzBehavior::EquivocateBatch
        )
    }
}

/// One client operation: a consolidated bus payload of `size` bytes
/// injected into every live node at `at_ms` (all nodes observe the same
/// bus, §III-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpPlan {
    /// Injection time in milliseconds of simulated time.
    pub at_ms: u64,
    /// Payload size in bytes (at least 16; the first 16 bytes encode
    /// seed and op index so payloads are globally unique).
    pub size: usize,
}

/// A crash, optionally followed by a restart that reloads durable state
/// with simulated disk damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    /// Which node crashes.
    pub node: usize,
    /// Crash time (ms).
    pub at_ms: u64,
    /// Restart time (ms); `None` means the node stays down.
    pub recover_at_ms: Option<u64>,
    /// Number of chain-tail blocks lost on disk (torn writes).
    pub truncate_blocks: usize,
    /// If `true`, the checkpoint-proof files are unreadable too and the
    /// node must restart from genesis.
    pub drop_proofs: bool,
}

/// A network partition isolating `island` from everyone else between
/// `start_ms` and `heal_ms`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// The minority side (at most f nodes, so the rest keep a quorum).
    pub island: Vec<usize>,
    /// Partition start (ms).
    pub start_ms: u64,
    /// Partition heal (ms).
    pub heal_ms: u64,
}

/// A window during which every `Prepare` message *sent by* `node` is
/// silently dropped — the fault the lost-prepare stall fix defends
/// against. Bounded: after `end_ms` the cluster heals (re-broadcast on
/// duplicate preprepare, or a view change re-proposing the slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepareLossPlan {
    /// The node whose outbound prepares are lost.
    pub node: usize,
    /// Window start (ms).
    pub start_ms: u64,
    /// Window end (ms).
    pub end_ms: u64,
}

/// A Byzantine behaviour assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzPlan {
    /// The misbehaving node.
    pub node: usize,
    /// What it does.
    pub behavior: ByzBehavior,
}

/// One export round started by a ground-side data center.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportPlan {
    /// Round start (ms).
    pub at_ms: u64,
    /// Which of the two data centers initiates.
    pub dc: usize,
    /// The replica asked to serve block bodies.
    pub blocks_from: usize,
}

/// The message-level fault model. Links are reliable-but-untimely (TCP
/// semantics): a "retransmitted" message arrives late rather than never,
/// because PBFT as implemented does not retransmit commits and true loss
/// to a live, connected peer would make liveness checks meaningless.
#[derive(Debug, Clone, PartialEq)]
pub struct NetPlan {
    /// Minimum one-way latency (µs).
    pub min_latency_us: u64,
    /// Maximum one-way latency (µs).
    pub max_latency_us: u64,
    /// Probability a message needs a retransmit (adds a large delay).
    pub retransmit_probability: f64,
    /// Extra delay a retransmitted message suffers (ms).
    pub retransmit_delay_ms: u64,
    /// Probability a message is delivered twice.
    pub duplicate_probability: f64,
}

impl NetPlan {
    /// A fault-free, fixed-latency network (used by the minimizer to
    /// test whether network faults are relevant to a violation).
    pub const RELIABLE: NetPlan = NetPlan {
        min_latency_us: 200,
        max_latency_us: 200,
        retransmit_probability: 0.0,
        retransmit_delay_ms: 0,
        duplicate_probability: 0.0,
    };
}

/// A fully materialized chaos scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// The seed this plan was generated from (also seeds the network
    /// jitter RNG during execution).
    pub seed: u64,
    /// Cluster size (4 or 7).
    pub n_nodes: usize,
    /// Requests bundled per block.
    pub block_size: usize,
    /// Maximum requests bundled per preprepare (1 = unbatched protocol).
    pub max_batch_size: usize,
    /// Partial-batch flush delay (ms); only meaningful when batching.
    pub batch_delay_ms: u64,
    /// Client operations, sorted by time.
    pub ops: Vec<OpPlan>,
    /// Crash/recover schedule.
    pub crashes: Vec<CrashPlan>,
    /// At most one healing partition.
    pub partition: Option<PartitionPlan>,
    /// At most one prepare-loss window.
    pub prepare_loss: Option<PrepareLossPlan>,
    /// Byzantine behaviour assignments.
    pub byzantine: Vec<ByzPlan>,
    /// Export rounds.
    pub exports: Vec<ExportPlan>,
    /// Network fault model.
    pub net: NetPlan,
    /// If `true`, the `mutation-hooks` equivocation bug is armed on the
    /// initial primary (node 0). Used to prove the harness catches a
    /// deliberately injected consensus bug; never set by [`generate`].
    ///
    /// [`generate`]: ChaosPlan::generate
    pub mutation: bool,
}

impl ChaosPlan {
    /// Derives a scenario from `seed`.
    ///
    /// The fault budget is respected by construction: the set of
    /// *touched* nodes — ever crashed, Byzantine, or inside the
    /// partition island — has at most `f = (n - 1) / 3` members, so the
    /// untouched majority always retains a 2f+1 quorum and the liveness
    /// invariant is meaningful.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_nodes = if rng.random_bool(0.75) { 4 } else { 7 };
        let f = (n_nodes - 1) / 3;
        let block_size = rng.random_range(2..5usize);
        // Half the plans exercise the batched protocol; a small flush
        // delay lets bursty op schedules actually fill batches.
        let max_batch_size = if rng.random_bool(0.5) {
            1
        } else {
            rng.random_range(2..17usize)
        };
        let batch_delay_ms = if max_batch_size > 1 {
            rng.random_range(0..6u64)
        } else {
            0
        };

        let n_ops = rng.random_range(10..40usize);
        let mut ops = Vec::with_capacity(n_ops);
        let mut at_ms = rng.random_range(10..80u64);
        for _ in 0..n_ops {
            ops.push(OpPlan {
                at_ms,
                size: rng.random_range(16..256usize),
            });
            at_ms += rng.random_range(20..220u64);
        }
        let last_op_ms = ops.last().map(|op| op.at_ms).unwrap_or(0);

        // Pick the fault budget: which nodes may be touched at all.
        // Node 0 (the initial primary) is deliberately eligible — losing
        // the primary is the most interesting crash.
        let mut budget: Vec<usize> = Vec::new();
        while budget.len() < f {
            let node = rng.random_range(0..n_nodes);
            if !budget.contains(&node) {
                budget.push(node);
            }
        }

        let mut crashes = Vec::new();
        let mut byzantine = Vec::new();
        let mut partition = None;
        let mut island = Vec::new();
        let mut prepare_loss = None;
        for &node in &budget {
            match rng.random_range(0..5u32) {
                // Crash, usually with recovery and disk damage.
                0 | 1 => {
                    let crash_at = rng.random_range(100..last_op_ms.max(200));
                    let recover_at_ms = if rng.random_bool(0.8) {
                        Some(crash_at + rng.random_range(300..1500u64))
                    } else {
                        None
                    };
                    crashes.push(CrashPlan {
                        node,
                        at_ms: crash_at,
                        recover_at_ms,
                        truncate_blocks: rng.random_range(0..3usize),
                        drop_proofs: rng.random_bool(0.2),
                    });
                }
                2 => {
                    let behavior = match rng.random_range(0..4u32) {
                        0 => ByzBehavior::Silent,
                        1 => ByzBehavior::EquivocatePreprepares,
                        2 => ByzBehavior::EquivocateBatch,
                        _ => ByzBehavior::FabricateBus,
                    };
                    byzantine.push(ByzPlan { node, behavior });
                }
                // Bounded window of lost prepares from this node.
                3 if prepare_loss.is_none() => {
                    let start_ms = rng.random_range(100..last_op_ms.max(200));
                    prepare_loss = Some(PrepareLossPlan {
                        node,
                        start_ms,
                        end_ms: start_ms + rng.random_range(200..900u64),
                    });
                }
                // Partition island member (all budget nodes picking this
                // arm share one island).
                _ => island.push(node),
            }
        }
        if !island.is_empty() {
            let start_ms = rng.random_range(100..last_op_ms.max(200));
            let heal_ms = start_ms + rng.random_range(400..1600u64);
            island.sort_unstable();
            partition = Some(PartitionPlan {
                island,
                start_ms,
                heal_ms,
            });
        }
        crashes.sort_by_key(|c| c.at_ms);

        // Export rounds, initiated from either data center against an
        // untouched replica (a touched one may legitimately be behind
        // or down, which is an availability question, not a safety one).
        // An equivocator's victim counts as touched: it stalls.
        let mut touched: BTreeSet<usize> = budget.iter().copied().collect();
        for b in &byzantine {
            if b.behavior.equivocates() {
                touched.insert(if b.node == n_nodes - 1 {
                    n_nodes - 2
                } else {
                    n_nodes - 1
                });
            }
        }
        let untouched: Vec<usize> = (0..n_nodes).filter(|i| !touched.contains(i)).collect();
        let n_exports = rng.random_range(0..3usize);
        let mut exports = Vec::with_capacity(n_exports);
        for _ in 0..n_exports {
            exports.push(ExportPlan {
                at_ms: rng.random_range(300..last_op_ms + 1500),
                dc: rng.random_range(0..2usize),
                blocks_from: untouched[rng.random_range(0..untouched.len())],
            });
        }
        exports.sort_by_key(|e| e.at_ms);

        let min_latency_us = rng.random_range(50..400u64);
        let net = NetPlan {
            min_latency_us,
            max_latency_us: min_latency_us + rng.random_range(100..2000u64),
            retransmit_probability: if rng.random_bool(0.5) {
                rng.random_range(1..50u32) as f64 / 1000.0
            } else {
                0.0
            },
            retransmit_delay_ms: rng.random_range(5..60u64),
            duplicate_probability: if rng.random_bool(0.5) {
                rng.random_range(1..50u32) as f64 / 1000.0
            } else {
                0.0
            },
        };

        ChaosPlan {
            seed,
            n_nodes,
            block_size,
            max_batch_size,
            batch_delay_ms,
            ops,
            crashes,
            partition,
            prepare_loss,
            byzantine,
            exports,
            net,
            mutation: false,
        }
    }

    /// The fault tolerance of this cluster size.
    pub fn f(&self) -> usize {
        (self.n_nodes - 1) / 3
    }

    /// Arms the injected equivocation bug on the initial primary.
    #[must_use]
    pub fn with_mutation(mut self) -> Self {
        self.mutation = true;
        self
    }

    /// Forces the batched protocol with the given batch size and a small
    /// flush delay (sweep harnesses pin this rather than sampling it).
    #[must_use]
    pub fn with_max_batch_size(mut self, max_batch_size: usize) -> Self {
        self.max_batch_size = max_batch_size.max(1);
        if self.max_batch_size > 1 && self.batch_delay_ms == 0 {
            self.batch_delay_ms = 2;
        }
        self
    }

    /// The payload of operation `index`: 16 bytes of (seed, index) —
    /// making every payload globally unique, so the content-based
    /// duplicate filter never collapses two planned ops — followed by a
    /// deterministic fill.
    pub fn op_payload(&self, index: usize) -> Vec<u8> {
        let size = self.ops[index].size.max(16);
        let mut payload = Vec::with_capacity(size);
        payload.extend_from_slice(&self.seed.to_le_bytes());
        payload.extend_from_slice(&(index as u64).to_le_bytes());
        while payload.len() < size {
            let b = (payload.len() as u64)
                .wrapping_mul(31)
                .wrapping_add(self.seed);
            payload.push(b as u8);
        }
        payload
    }

    /// Nodes excluded from the liveness check: ever crashed, Byzantine,
    /// partition-islanded, carrying the injected mutation, or the victim
    /// of a planned equivocator (the victim only ever receives the
    /// forged proposal, so without a state-transfer service it is
    /// legitimately stalled at that slot). Safety invariants still apply
    /// to all of them in full.
    pub fn touched_nodes(&self) -> BTreeSet<usize> {
        let mut touched = BTreeSet::new();
        for c in &self.crashes {
            touched.insert(c.node);
        }
        for b in &self.byzantine {
            touched.insert(b.node);
            if b.behavior.equivocates() {
                touched.insert(self.equivocation_victim(b.node));
            }
        }
        if let Some(p) = &self.partition {
            touched.extend(p.island.iter().copied());
        }
        if let Some(pl) = &self.prepare_loss {
            touched.insert(pl.node);
        }
        if self.mutation {
            touched.insert(0);
        }
        touched
    }

    /// The node an equivocator at `node` sends its forged proposal to:
    /// the highest-id peer (must match `ByzNode::equivocate` and the
    /// pbft `mutation-hooks` victim selection).
    pub fn equivocation_victim(&self, node: usize) -> usize {
        if node == self.n_nodes - 1 {
            self.n_nodes - 2
        } else {
            self.n_nodes - 1
        }
    }

    /// Time of the last scheduled event (ms) — the base for the
    /// quiescence deadline.
    pub fn last_event_ms(&self) -> u64 {
        let mut last = self.ops.last().map(|op| op.at_ms).unwrap_or(0);
        for c in &self.crashes {
            last = last.max(c.recover_at_ms.unwrap_or(c.at_ms));
        }
        if let Some(p) = &self.partition {
            last = last.max(p.heal_ms);
        }
        if let Some(pl) = &self.prepare_loss {
            last = last.max(pl.end_ms);
        }
        for e in &self.exports {
            last = last.max(e.at_ms);
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(ChaosPlan::generate(seed), ChaosPlan::generate(seed));
        }
    }

    #[test]
    fn fault_budget_is_respected() {
        for seed in 0..500 {
            let plan = ChaosPlan::generate(seed);
            // Actually-faulty nodes (crashed, Byzantine, islanded) must
            // fit the BFT budget; an equivocator's victim is *stalled*
            // (and so also liveness-exempt) but not faulty.
            let mut faulty = BTreeSet::new();
            faulty.extend(plan.crashes.iter().map(|c| c.node));
            faulty.extend(plan.byzantine.iter().map(|b| b.node));
            if let Some(p) = &plan.partition {
                faulty.extend(p.island.iter().copied());
            }
            if let Some(pl) = &plan.prepare_loss {
                faulty.insert(pl.node);
            }
            assert!(
                faulty.len() <= plan.f(),
                "seed {seed}: {} faulty nodes exceeds f={}",
                faulty.len(),
                plan.f()
            );
            let quorum = 2 * plan.f() + 1;
            assert!(plan.n_nodes - faulty.len() >= quorum);
            // And someone must remain for the liveness check to bite.
            assert!(plan.touched_nodes().len() < plan.n_nodes, "seed {seed}");
        }
    }

    #[test]
    fn partitions_heal_and_islands_are_minorities() {
        for seed in 0..500 {
            let plan = ChaosPlan::generate(seed);
            if let Some(p) = &plan.partition {
                assert!(p.heal_ms > p.start_ms, "seed {seed}");
                assert!(p.island.len() <= plan.f(), "seed {seed}");
            }
        }
    }

    #[test]
    fn op_payloads_are_unique_and_sized() {
        let plan = ChaosPlan::generate(7);
        let mut seen = std::collections::HashSet::new();
        for i in 0..plan.ops.len() {
            let payload = plan.op_payload(i);
            assert_eq!(payload.len(), plan.ops[i].size.max(16));
            assert!(seen.insert(payload));
        }
    }

    #[test]
    fn exports_target_untouched_replicas() {
        for seed in 0..200 {
            let plan = ChaosPlan::generate(seed);
            let touched = plan.touched_nodes();
            for e in &plan.exports {
                assert!(!touched.contains(&e.blocks_from), "seed {seed}");
            }
        }
    }
}
