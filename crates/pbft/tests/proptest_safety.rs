//! Property-based safety tests for the PBFT replica: under *any*
//! delivery order and any pattern of message loss, no two correct
//! replicas ever decide different requests for the same sequence number,
//! and decides are emitted in strictly increasing order.

use proptest::prelude::*;
use zugchain_crypto::Keystore;
use zugchain_machine::Effect;
use zugchain_pbft::{Config, NodeId, ProposedRequest, Replica, ReplicaEvent, SignedMessage};

/// A scripted run: proposals interleaved with a delivery schedule.
#[derive(Debug, Clone)]
struct Schedule {
    /// Payload tags to propose on the primary.
    proposals: Vec<u8>,
    /// For each routing step: a permutation selector and a drop mask.
    routing: Vec<(u64, u8)>,
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (
        proptest::collection::vec(any::<u8>(), 1..6),
        proptest::collection::vec((any::<u64>(), any::<u8>()), 0..40),
    )
        .prop_map(|(proposals, routing)| Schedule { proposals, routing })
}

/// Runs the schedule over a 4-replica group. Messages are queued; each
/// routing step picks a pseudo-random queued message and delivers it to a
/// subset of replicas (the drop mask), modelling arbitrary reordering and
/// loss. Afterwards everything remaining is delivered to everyone.
fn run(schedule: &Schedule) -> Vec<Vec<(u64, Vec<u8>)>> {
    let config = Config::new(4).unwrap();
    let (pairs, keystore) = Keystore::generate(4, 7777);
    let mut replicas: Vec<Replica> = pairs
        .into_iter()
        .enumerate()
        .map(|(id, key)| Replica::new(NodeId(id as u64), config.clone(), key, keystore.clone()))
        .collect();
    let mut decided: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); 4];
    // Pending deliveries: (destination, message).
    let mut queue: Vec<(usize, SignedMessage)> = Vec::new();

    let pump = |replicas: &mut Vec<Replica>,
                queue: &mut Vec<(usize, SignedMessage)>,
                decided: &mut Vec<Vec<(u64, Vec<u8>)>>| {
        for index in 0..replicas.len() {
            for effect in replicas[index].drain_effects() {
                match effect {
                    Effect::Broadcast { message } => {
                        for dest in 0..4 {
                            if dest != index {
                                queue.push((dest, message.clone()));
                            }
                        }
                    }
                    Effect::Send { to, message } if to.0 as usize != index => {
                        queue.push((to.0 as usize, message));
                    }
                    Effect::Output(ReplicaEvent::Decide { sn, request, .. })
                        if !request.is_noop() =>
                    {
                        decided[index].push((sn, request.payload));
                    }
                    _ => {}
                }
            }
        }
    };

    for &tag in &schedule.proposals {
        replicas[0].propose(ProposedRequest::application(vec![tag; 8], NodeId(0)));
    }
    pump(&mut replicas, &mut queue, &mut decided);

    // Adversarial scheduling phase: deliver in arbitrary order, possibly
    // to only a subset (dropped for the others).
    for &(pick, mask) in &schedule.routing {
        if queue.is_empty() {
            break;
        }
        let index = (pick as usize) % queue.len();
        let (dest, message) = queue.swap_remove(index);
        if mask & 1 == 0 {
            // Dropped entirely.
            continue;
        }
        replicas[dest].on_message(message);
        pump(&mut replicas, &mut queue, &mut decided);
    }

    // Stabilization phase: deliver everything left, FIFO.
    let mut steps = 0;
    while !queue.is_empty() && steps < 100_000 {
        let (dest, message) = queue.remove(0);
        replicas[dest].on_message(message);
        pump(&mut replicas, &mut queue, &mut decided);
        steps += 1;
    }
    decided
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Agreement: no two replicas decide different payloads at the same
    /// sequence number, regardless of delivery order or drops.
    #[test]
    fn no_conflicting_decisions(schedule in schedule_strategy()) {
        let decided = run(&schedule);
        for a in 0..4 {
            for b in (a + 1)..4 {
                for (sn_a, payload_a) in &decided[a] {
                    for (sn_b, payload_b) in &decided[b] {
                        if sn_a == sn_b {
                            prop_assert_eq!(
                                payload_a, payload_b,
                                "replicas {} and {} disagree at sn {}", a, b, sn_a
                            );
                        }
                    }
                }
            }
        }
    }

    /// Total order: every replica's decide stream has strictly
    /// increasing sequence numbers (in-order execution).
    #[test]
    fn decides_are_in_order(schedule in schedule_strategy()) {
        let decided = run(&schedule);
        for (id, stream) in decided.iter().enumerate() {
            for pair in stream.windows(2) {
                prop_assert!(
                    pair[0].0 < pair[1].0,
                    "replica {} decided {} after {}", id, pair[1].0, pair[0].0
                );
            }
        }
    }

    /// Validity: decided payloads were actually proposed.
    #[test]
    fn only_proposed_payloads_decide(schedule in schedule_strategy()) {
        let decided = run(&schedule);
        let proposed: Vec<Vec<u8>> =
            schedule.proposals.iter().map(|tag| vec![*tag; 8]).collect();
        for stream in &decided {
            for (_, payload) in stream {
                prop_assert!(
                    proposed.contains(payload),
                    "decided a payload that was never proposed"
                );
            }
        }
    }

    /// Liveness under loss-free schedules: if nothing is dropped, every
    /// distinct proposal decides on every replica.
    #[test]
    fn lossless_runs_decide_everything(
        proposals in proptest::collection::vec(any::<u8>(), 1..6)
    ) {
        let schedule = Schedule { proposals: proposals.clone(), routing: vec![] };
        let decided = run(&schedule);
        // Distinct tags → distinct requests; duplicate tags are separate
        // proposals with identical payloads, each ordered separately.
        for stream in &decided {
            prop_assert_eq!(stream.len(), proposals.len());
        }
    }
}
