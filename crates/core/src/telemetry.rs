//! The node-level [`Observer`]: maps the typed traffic at the
//! [`Driver`](zugchain_machine::Driver) seam — inputs, effects and the
//! timer lifecycle of a [`TrainMachine`] — into the telemetry [`Event`]
//! vocabulary. Every runtime that drives nodes through the shared driver
//! (simulator, threaded, TCP, chaos) gets identical rings by attaching
//! this one observer.

use zugchain_machine::{Effect, MachineEffect, Observer};
use zugchain_telemetry::{Event, Telemetry};

use crate::messages::TimerId;
use crate::node::{NodeEvent, NodeInput, TrainMachine, TrainNode};

/// A timer's static kind and numeric argument as recorded in the ring:
/// the target view, or for a request timer the big-endian first
/// 8 bytes of the payload digest.
fn timer_parts(id: &TimerId) -> (&'static str, u64) {
    let prefix = |digest: &zugchain_crypto::Digest| {
        u64::from_be_bytes(digest.as_bytes()[..8].try_into().expect("32-byte digest"))
    };
    match id {
        TimerId::Soft(digest) => ("soft", prefix(digest)),
        TimerId::Hard(digest) => ("hard", prefix(digest)),
        TimerId::ViewChange(view) => ("view-change", *view),
        TimerId::BatchFlush => ("batch-flush", 0),
    }
}

/// Observer wiring one node's [`Telemetry`] handle into its driver.
///
/// Message deliveries, protocol milestones (decide, view change,
/// checkpoint, state transfer — read off the machine's
/// [`NodeEvent`] outputs), send/broadcast effects, and the timer
/// lifecycle (with generations) all land in the node's event ring,
/// timestamped from the telemetry clock.
#[derive(Debug, Clone)]
pub struct NodeObserver {
    telemetry: Telemetry,
}

impl NodeObserver {
    /// Wraps a telemetry handle. A disabled handle yields an observer
    /// whose every hook is a no-op branch.
    pub fn new(telemetry: Telemetry) -> Self {
        Self { telemetry }
    }

    /// The wrapped telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

impl<N: TrainNode> Observer<TrainMachine<N>> for NodeObserver {
    fn input(&mut self, input: &NodeInput) {
        if let NodeInput::Message(message) = input {
            self.telemetry.record(|| Event::MessageDelivered {
                kind: message.kind(),
            });
        }
    }

    fn effect(&mut self, effect: &MachineEffect<TrainMachine<N>>) {
        match effect {
            Effect::Output(event) => {
                self.telemetry.record(|| match event {
                    NodeEvent::Logged { sn, origin, .. } => Event::Decide {
                        sn: *sn,
                        origin: origin.0,
                    },
                    NodeEvent::NewPrimary { view, primary } => Event::ViewChange {
                        view: *view,
                        primary: primary.0,
                    },
                    NodeEvent::CheckpointStable { proof } => Event::Checkpoint {
                        sn: proof.checkpoint.sn,
                    },
                    NodeEvent::StateTransferNeeded { to_sn, .. } => {
                        Event::StateTransfer { target_sn: *to_sn }
                    }
                    NodeEvent::BlockCreated { .. } => Event::EffectEmitted {
                        kind: "block-created",
                    },
                });
            }
            Effect::Send { .. } | Effect::Broadcast { .. } => {
                let kind = effect.kind().as_str();
                self.telemetry.record(|| Event::EffectEmitted { kind });
            }
            // Timer effects are traced via the dedicated hooks below,
            // which carry the assigned generation.
            Effect::SetTimer { .. } | Effect::CancelTimer { .. } => {}
        }
    }

    fn timer_set(&mut self, id: &TimerId, gen: u64, duration_ms: u64) {
        self.telemetry.record(|| {
            let (timer, arg) = timer_parts(id);
            Event::TimerSet {
                timer,
                arg,
                generation: gen,
                duration_ms,
            }
        });
    }

    fn timer_cancelled(&mut self, id: &TimerId) {
        self.telemetry.record(|| {
            let (timer, arg) = timer_parts(id);
            Event::TimerCancelled { timer, arg }
        });
    }

    fn timer_fired(&mut self, id: &TimerId, gen: u64, stale: bool) {
        self.telemetry.record(|| {
            let (timer, arg) = timer_parts(id);
            Event::TimerFired {
                timer,
                arg,
                generation: gen,
                stale,
            }
        });
    }
}
