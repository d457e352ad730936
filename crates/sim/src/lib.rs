//! Deterministic simulation of the ZugChain testbed.
//!
//! The paper evaluates ZugChain on four M-COM train computers (quad-core
//! ARM Cortex-A9 @800 MHz, 2 GB RAM) connected by 100 Mbit/s Ethernet,
//! fed by a real MVB, and exporting over LTE (~8.5 Mbit/s) to an AWS VM.
//! That hardware is not available here, so this crate provides the
//! closest synthetic equivalent (`DESIGN.md` §3): a **discrete-event
//! simulator** that drives the real ZugChain/baseline node state machines
//! (the same code a deployment would run) under explicit cost models:
//!
//! * **CPU** ([`CostModel`]) — service times for signing, verification,
//!   hashing and (de)serialization calibrated to the 800 MHz Cortex-A9.
//!   Consensus processing is a serial lane (one event loop, as in the
//!   real implementation); bus parsing runs on its own lane. Overload
//!   therefore shows up as queueing delay, reproducing the paper's
//!   collapse of the baseline at 32 ms bus cycles.
//! * **Network** — per-link store-and-forward with 100 Mbit/s bandwidth
//!   and sub-millisecond switch latency; byte counts come from the real
//!   canonical encodings of the real protocol messages.
//! * **Memory** — the nodes' own accounting (chain store, consensus
//!   slots, queues) plus a fixed process baseline.
//!
//! Everything is seeded and virtual-time: the same
//! [`ScenarioConfig`]/seed pair always produces identical results.
//!
//! [`run_scenario`] executes one evaluation run and returns
//! [`RunMetrics`]; [`export_sim`] computes the Table II export timings;
//! [`runtime`] holds the live cluster, one thread per node over channels
//! or [`tcp`] sockets, used by the examples.
//!
//! # Examples
//!
//! ```
//! use zugchain_sim::{run_scenario, Mode, ScenarioConfig, Workload};
//!
//! let config = ScenarioConfig {
//!     mode: Mode::Zugchain,
//!     duration_ms: 5_000,
//!     bus_cycle_ms: 64,
//!     workload: Workload::SyntheticPayload { bytes: 1024 },
//!     ..ScenarioConfig::default()
//! };
//! let metrics = run_scenario(&config, 1);
//! assert!(metrics.logged_requests > 0);
//! assert!(metrics.latency.mean_ms() < 100.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cost;
mod export_sim;
pub mod fleet;
mod metrics;
mod network;
mod node_loop;
pub mod runtime;
mod scenario;
mod sim;
pub mod tcp;
pub mod trace_pipeline;

pub use cost::CostModel;
pub use export_sim::{simulate_export, ExportSimConfig, ExportTiming};
pub use metrics::{LatencyStats, RunMetrics};
pub use network::NetworkModel;
pub use scenario::{Mode, PartitionFault, ScenarioConfig, SimFaults, Workload};
pub use sim::{run_scenario, Simulation, TelemetryCapture};
pub use trace_pipeline::{run_traced_pipeline, TracedPipelineOutcome};
