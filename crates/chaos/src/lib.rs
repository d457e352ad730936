//! Deterministic chaos-exploration harness for ZugChain.
//!
//! Everything flows from one `u64` seed:
//!
//! 1. [`ChaosPlan::generate`] derives a randomized scenario — cluster
//!    size, crash/recover schedules with disk truncation, Byzantine
//!    behaviours (silence, preprepare equivocation, fabricated bus
//!    values), message delay/duplication, a healing partition, and
//!    ground-side export rounds — always leaving an honest 2f+1
//!    majority.
//! 2. [`execute`](executor::execute) runs the scenario through the
//!    unified [`Driver`](zugchain_machine::Driver) over real
//!    [`ZugchainNode`](zugchain::ZugchainNode)s, pbft replicas, and
//!    export [`DataCenter`](zugchain_export::DataCenter)s, checking
//!    safety invariants after every event (cross-replica decide
//!    agreement, block-fork freedom, chain validity, non-equivocation,
//!    archive consistency) and liveness invariants at quiescence.
//! 3. On violation, [`minimize`](minimize::minimize) delta-debugs the
//!    schedule down to a minimal reproducing plan, and
//!    [`write_repro`](ron::write_repro) persists it as
//!    `chaos-repro-<seed>.ron` — a file [`parse_repro`](ron::parse_repro)
//!    replays byte-for-byte deterministically.
//!
//! The harness proves its own teeth against the `mutation-hooks`
//! equivocation bug deliberately compiled into the consensus layer: see
//! `tests/chaos_harness.rs`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod byzantine;
pub mod executor;
pub mod explore;
pub mod minimize;
pub mod plan;
pub mod ron;

pub use executor::{execute, ChaosOutcome, Violation, ViolationKind};
pub use explore::{explore, run_seed, ExploreReport, SeedFailure, DEFAULT_MINIMIZE_RUNS};
pub use minimize::minimize;
pub use plan::{ByzBehavior, ChaosPlan, NetPlan};
pub use ron::{parse_repro, write_repro};
