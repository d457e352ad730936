//! From bus signals to BFT requests.
//!
//! This crate implements the "From Signals to Blocks" pipeline of the paper
//! (§III-A) up to the point where data enters consensus:
//!
//! 1. **Parse** raw telegrams into typed [`TrainEvent`]s using the same
//!    NSDB configuration that drives the bus ([`SignalParser`]). The
//!    transformation is value-preserving and side-effect free, mirroring
//!    the verified JRU transformation steps.
//! 2. **Filter** events as is common practice in JRUs, e.g. logging the
//!    speed only upon changes ([`ChangeFilter`]).
//! 3. **Consolidate** all signals of one bus cycle into a single BFT
//!    [`Request`] ([`CycleConsolidator`]), as required by §III-B: *"All
//!    signals transmitted in a bus cycle are consolidated into one BFT
//!    request."*
//!
//! Corrupted telegrams (e.g. width mismatches from bus bit flips) are not
//! discarded: the paper requires that *all data sent over the bus is
//! considered valid data to be logged*. They are recorded as
//! [`SignalValue::Raw`] events instead.
//!
//! # Examples
//!
//! ```
//! use zugchain_mvb::{Bus, BusConfig, SignalGenerator};
//! use zugchain_signals::CycleConsolidator;
//!
//! let config = BusConfig::jru_default(64);
//! let mut bus = Bus::new(config.clone(), 1, 0);
//! bus.attach_device(Box::new(SignalGenerator::new(7)));
//!
//! let mut consolidator = CycleConsolidator::new(config.nsdb);
//! let cycle = bus.run_cycle();
//! let request = consolidator
//!     .consolidate(cycle.cycle, cycle.time_ms, &cycle.observations[0].telegrams)
//!     .expect("first cycle logs every signal");
//! assert!(!request.events.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
mod event;
mod filter;
mod parser;
mod request;

pub use event::{SignalValue, TrainEvent};
pub use filter::ChangeFilter;
pub use parser::{ParseOutcome, SignalParser};
pub use request::{CycleConsolidator, Request, RequestDigest};
