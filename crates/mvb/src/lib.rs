//! Simulated Multifunction Vehicle Bus (MVB) for ZugChain.
//!
//! The paper's testbed reads train signals from a real MVB (IEC 61375-3-1)
//! through a proprietary Siemens library, with a SIBAS-KLIP bus master and a
//! DDC signal generator producing ATP data. None of that hardware is
//! available here, so this crate builds the closest synthetic equivalent
//! (`DESIGN.md` §3) — which matches the paper's own methodology for its
//! parameter sweeps: *"We instead simulate receiving messages over the
//! bus."*
//!
//! The simulation reproduces the properties the ZugChain design actually
//! depends on (paper §II-A, §III-B):
//!
//! * **Time-triggered master/follower schedule.** A bus master polls
//!   configured ports each cycle (minimum cycle 32 ms, common value 64 ms).
//! * **Shared, unauthenticated medium.** Every attached tap (ZugChain node)
//!   observes the same telegrams; data sources are indistinguishable.
//! * **Unreliability.** Telegrams can be dropped per-tap, delayed into a
//!   later cycle, or corrupted by bit flips — so nodes can receive
//!   *diverging* input for the same cycle.
//! * **Configuration by NSDB.** Which signals exist, their ports, widths and
//!   cycle times come from a node supervisor database-like table.
//!
//! # Examples
//!
//! ```
//! use zugchain_mvb::{Bus, BusConfig, SignalGenerator};
//!
//! let config = BusConfig::jru_default(64);
//! let mut bus = Bus::new(config, 4, 1);
//! bus.attach_device(Box::new(SignalGenerator::new(7)));
//!
//! // Run one cycle: every tap observes the same telegrams (no faults here).
//! let cycle = bus.run_cycle();
//! assert_eq!(cycle.observations.len(), 4);
//! assert!(!cycle.observations[0].telegrams.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bus;
mod device;
mod fault;
mod nsdb;
pub mod profinet;
mod telegram;

pub use bus::{Bus, BusConfig, CycleOutput, TapObservation};
pub use device::{Device, PayloadDevice, SignalGenerator};
pub use fault::{BusFaultPlan, TapFaults};
pub use nsdb::{Nsdb, SignalDescriptor, SignalKind};
pub use telegram::{PortAddress, Telegram};

/// Minimum MVB cycle time in milliseconds (paper §V-B: "32 ms, the MVB's
/// minimum").
pub const MIN_CYCLE_MS: u64 = 32;

/// The bus cycle commonly used in the paper's evaluation.
pub const COMMON_CYCLE_MS: u64 = 64;
