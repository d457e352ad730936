//! Telemetry overhead on the consensus hot path: orders one stream of
//! distinct 256-byte requests through a fresh 4-replica all-to-all group
//! at batch 1 and batch 16, with telemetry disabled (the default — every
//! handle is an inert `None`) and enabled (each replica publishing its
//! metrics, stage histograms and spans into its event ring, the rings
//! joined by one `TraceStore`).
//!
//! Every round orders the stream once disabled and once enabled, back
//! to back, so both sides see the same host state. Per batch size the
//! bench prints the fastest run of each side and the median of the
//! per-round enabled/disabled ratios:
//!
//! ```text
//! bench-result: pbft/telemetry_overhead/batch<B> disabled_ns=N enabled_ns=N ratio=R
//! ```
//!
//! CI gates `ratio`, a comparison made within one run. Set
//! `ZUGCHAIN_BENCH_QUICK=1` for the CI smoke variant.

use std::sync::Arc;
use std::time::Instant;

use zugchain_crypto::Keystore;
use zugchain_machine::Effect;
use zugchain_pbft::{Config, NodeId, ProposedRequest, Replica, ReplicaEvent};
use zugchain_telemetry::{Registry, Telemetry, TraceStore, DEFAULT_TRACE_CAPACITY};

const N: usize = 4;

fn fresh_group(batch: usize, enabled: bool) -> Vec<Replica> {
    let config = Config::new(N).unwrap().with_max_batch_size(batch);
    let (pairs, keystore) = Keystore::generate(N, 7);
    let registry = Arc::new(Registry::new());
    let store = Arc::new(TraceStore::new());
    pairs
        .into_iter()
        .enumerate()
        .map(|(id, key)| {
            let mut replica =
                Replica::new(NodeId(id as u64), config.clone(), key, keystore.clone());
            if enabled {
                replica.set_telemetry(&Telemetry::new_with_store(
                    id as u64,
                    Arc::clone(&registry),
                    DEFAULT_TRACE_CAPACITY,
                    Some(Arc::clone(&store)),
                ));
            }
            replica
        })
        .collect()
}

/// Proposes the stream on the primary and pumps the group until quiet;
/// returns the wall time of the ordering in nanoseconds.
fn order_stream(mut replicas: Vec<Replica>, requests: usize) -> u64 {
    let start = Instant::now();
    for tag in 0..requests {
        let mut payload = vec![0u8; 256];
        payload[..8].copy_from_slice(&(tag as u64).to_le_bytes());
        replicas[0].propose(ProposedRequest::application(payload, NodeId(0)));
    }
    let mut decided = 0usize;
    loop {
        let mut traffic = Vec::new();
        for replica in replicas.iter_mut() {
            for effect in replica.drain_effects() {
                match effect {
                    Effect::Broadcast { message } => traffic.push(message),
                    Effect::Output(ReplicaEvent::Decide { .. }) => decided += 1,
                    _ => {}
                }
            }
        }
        if traffic.is_empty() {
            break;
        }
        for message in traffic {
            for replica in replicas.iter_mut() {
                replica.on_message(message.clone());
            }
        }
    }
    let elapsed = start.elapsed().as_nanos() as u64;
    assert_eq!(decided, N * requests);
    elapsed
}

fn main() {
    let quick = std::env::var_os("ZUGCHAIN_BENCH_QUICK").is_some();
    let (requests, rounds) = if quick { (64, 21) } else { (256, 51) };
    for batch in [1usize, 16] {
        let (mut disabled_ns, mut enabled_ns) = (u64::MAX, u64::MAX);
        let mut ratios = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let disabled = order_stream(fresh_group(batch, false), requests);
            let enabled = order_stream(fresh_group(batch, true), requests);
            disabled_ns = disabled_ns.min(disabled);
            enabled_ns = enabled_ns.min(enabled);
            ratios.push(enabled as f64 / disabled as f64);
        }
        ratios.sort_by(f64::total_cmp);
        println!(
            "bench-result: pbft/telemetry_overhead/batch{batch} disabled_ns={disabled_ns} \
             enabled_ns={enabled_ns} ratio={:.3}",
            ratios[rounds / 2]
        );
    }
}
