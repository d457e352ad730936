//! Consensus batching throughput: orders a fixed stream of 256-byte
//! requests through a 4-replica group at batch sizes 1, 4, 16 and 64.
//! One three-phase exchange (preprepare → prepare → commit) is amortized
//! over up to `max_batch_size` requests, so ops/s should rise steeply
//! with the batch size while the per-request decide semantics stay
//! identical to the unbatched protocol.
//!
//! Set `ZUGCHAIN_BENCH_QUICK=1` for the CI smoke variant (shorter stream,
//! fewer samples).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use zugchain_crypto::Keystore;
use zugchain_machine::Effect;
use zugchain_pbft::{Config, NodeId, ProposedRequest, Replica, ReplicaEvent};

const N: usize = 4;

fn fresh_group(batch_size: usize) -> Vec<Replica> {
    let config = Config::new(N).unwrap().with_max_batch_size(batch_size);
    let (pairs, keystore) = Keystore::generate(N, 7);
    pairs
        .into_iter()
        .enumerate()
        .map(|(id, key)| Replica::new(NodeId(id as u64), config.clone(), key, keystore.clone()))
        .collect()
}

/// Proposes `requests` distinct requests on the primary and pumps the
/// group until quiet. The request count is a multiple of every measured
/// batch size, so all batches flush full and no flush timer is needed.
fn order_stream(replicas: &mut [Replica], requests: usize) -> usize {
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
    decided
}

fn bench_batch_sizes(c: &mut Criterion) {
    let quick = std::env::var_os("ZUGCHAIN_BENCH_QUICK").is_some();
    let requests = if quick { 64usize } else { 256 };
    let mut group = c.benchmark_group("pbft/batch_throughput");
    group.sample_size(if quick { 5 } else { 20 });
    for batch in [1usize, 4, 16, 64] {
        group.throughput(Throughput::Elements(requests as u64));
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter_batched(
                || fresh_group(batch),
                |mut replicas| {
                    let decided = order_stream(&mut replicas, requests);
                    assert_eq!(decided, N * requests);
                    decided
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_sizes);
criterion_main!(benches);
