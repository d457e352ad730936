//! Secure data-center export for ZugChain blocks (paper §III-D, Fig. 4).
//!
//! Newer JRU data is of higher interest, but a blockchain needs its
//! history for verification — so ZugChain continuously extracts blocks to
//! one or more private data centers and only then prunes them on the
//! train. The protocol is deliberately **decoupled from agreement**:
//! export reads bypass consensus and are answered from stable-checkpoint
//! state, so exporting can never delay ordering.
//!
//! The guarantees (paper §III-D):
//!
//! 1. only blocks logged by correct nodes are exported — every exported
//!    block is covered by a stable checkpoint carrying 2f+1 replica
//!    signatures;
//! 2. all blocks up to the most recent stable checkpoint are exported —
//!    the data center waits for 2f+1 checkpoint replies, so at least one
//!    reply is both honest and recent;
//! 3. exported blocks are deleted from the nodes — a configurable quorum
//!    of signed *delete* messages authorizes pruning, and replicas
//!    acknowledge with their own signatures.
//!
//! The message flow mirrors Fig. 4: ① `read` broadcast → ② checkpoint
//! replies from every replica plus full blocks from one → ③ synchronize
//! between data centers → ④ validate signatures and chain → ⑤ signed
//! `delete` broadcast → ⑥ replicas prune → ⑦ signed acknowledgements.
//!
//! Error scenarios (i)–(v) of the paper are all handled; see
//! [`ExportReplica`] (early deletes, delete quorums, emergency
//! header-only retention) and [`DataCenter`] (late data centers, second
//! read rounds), plus [`install_transfer`] for checkpoint transfer to a
//! lagging replica.
//!
//! Everything here is sans-io, like the rest of ZugChain: handlers take
//! messages and return effects/replies (the [`DataCenter`] implements
//! `zugchain_machine::Machine`); the simulator and the threaded runtime
//! provide transport.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod datacenter;
mod messages;
mod replica;
mod transfer;

pub use datacenter::{
    CertifiedSegment, DataCenter, DcAddr, DcConfig, DcEffect, DcInput, ExportOutcome,
};
pub use messages::{
    CheckpointReply, DcId, DeleteCmd, DeleteStatus, ExportMessage, SignedAck, SignedDelete,
};
pub use replica::{EmergencyPrune, ExportReplica, ReplicaExportConfig};
pub use transfer::{install_transfer, StateTransferError, TransferPackage};
