//! ZugChain: the BFT communication layer for juridical train event
//! recording (paper §III-C, Algorithm 1).
//!
//! ZugChain replaces the authenticated, individual clients of primary-based
//! BFT protocols with handling of input from a single, unauthenticated,
//! time-triggered bus that all replicas read independently. The layer
//! guarantees:
//!
//! * **Completeness** — every request received by a correct node is logged,
//!   even if only one node saw it (soft-timeout broadcast + forwarding);
//! * **No payload duplication** — no correct node logs the same payload
//!   twice (content-based filtering on the primary, log checks on decide,
//!   suspicion of duplicating primaries);
//! * **Censorship detection** — a primary that omits requests is suspected
//!   after a hard timeout, triggering a PBFT view change;
//! * **Attribution** — each logged request carries the id of a node that
//!   actually received it from the bus, authenticated by that node's
//!   signature;
//! * **DoS containment** — per-node open-request limits bound the load a
//!   faulty node can inject (evaluated in the paper's Fig. 9).
//!
//! Ordered requests flow into the blockchain application: every
//! `block_size` logged requests are deterministically bundled into a
//! block, and a PBFT checkpoint is created per block, backing each block
//! with 2f+1 replica signatures for the export protocol.
//!
//! The crate also contains the evaluation **baseline** ([`BaselineNode`]):
//! PBFT with traditional per-node clients, where every node forwards every
//! bus request to the primary and identical payloads are ordered up to
//! n times.
//!
//! # Examples
//!
//! ```
//! use zugchain::{NodeConfig, TrainNode, ZugchainNode};
//! use zugchain_crypto::Keystore;
//! use zugchain_mvb::Nsdb;
//!
//! let config = NodeConfig::default_for_testing();
//! let (pairs, keystore) = Keystore::generate(4, 0);
//! let mut nodes: Vec<ZugchainNode> = pairs
//!     .into_iter()
//!     .enumerate()
//!     .map(|(id, key)| {
//!         ZugchainNode::new(id as u64, config.clone(), Nsdb::jru_default(), key, keystore.clone())
//!     })
//!     .collect();
//! assert!(nodes[0].is_primary());
//! assert_eq!(nodes[1].chain().height(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod config;
mod dedup;
mod messages;
mod node;
mod restart;
pub mod telemetry;

pub use baseline::BaselineNode;
pub use config::NodeConfig;
pub use dedup::DedupLog;
pub use messages::{LayerMessage, NodeMessage, SignedRequest, TimerId};
pub use node::{
    NodeEffect, NodeEvent, NodeInput, NodeStats, TrainMachine, TrainNode, ZugchainNode,
};
pub use restart::rebuild_recovered_state;
pub use telemetry::NodeObserver;
