//! Ordering cost at the deployment shapes: orders a fixed stream of
//! 256-byte requests through all-to-all PBFT groups of n = 4 (one train's
//! group) and n = 7 (the next size that tolerates two faults). Every
//! replica broadcasts its prepare and commit, so vote traffic per slot
//! grows with n.
//!
//! Besides the wall-clock `bench-result:` lines from the criterion
//! shim, each group size prints one extra machine-readable line,
//!
//! ```text
//! bench-result: pbft/scale_msgs/<n> msgs_per_replica_per_req=M sigs_verified_per_replica_per_req=S
//! ```
//!
//! with the messages each replica put on the wire and the signatures it
//! verified, averaged over replicas and divided by the requests each
//! replica decided. They come from an untimed accounting run (`Send`
//! counts 1, `Broadcast` counts n − 1).
//!
//! Set `ZUGCHAIN_BENCH_QUICK=1` for the CI smoke variant (shorter
//! stream, fewer samples).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use zugchain_crypto::Keystore;
use zugchain_machine::Effect;
use zugchain_pbft::{Config, NodeId, ProposedRequest, Replica, ReplicaEvent};

fn fresh_group(n: usize) -> Vec<Replica> {
    let config = Config::new(n).unwrap();
    let (pairs, keystore) = Keystore::generate(n, 7);
    pairs
        .into_iter()
        .enumerate()
        .map(|(id, key)| Replica::new(NodeId(id as u64), config.clone(), key, keystore.clone()))
        .collect()
}

/// Proposes `requests` distinct requests on the primary and pumps the
/// group until quiet, delivering unicasts only to their destination.
/// `sent[i]` accumulates the messages replica `i` put on the wire
/// (`Send` = 1, `Broadcast` = n − 1). Returns the total decide count.
fn order_stream(replicas: &mut [Replica], requests: usize, sent: &mut [u64]) -> usize {
    let n = replicas.len();
    for tag in 0..requests {
        let mut payload = vec![0u8; 256];
        payload[..8].copy_from_slice(&(tag as u64).to_le_bytes());
        replicas[0].propose(ProposedRequest::application(payload, NodeId(0)));
    }
    let mut decided = 0usize;
    loop {
        let mut traffic = Vec::new();
        for (node, replica) in replicas.iter_mut().enumerate() {
            for effect in replica.drain_effects() {
                match effect {
                    Effect::Broadcast { message } => {
                        sent[node] += (n - 1) as u64;
                        traffic.push((None, message));
                    }
                    Effect::Send { to, message } => {
                        sent[node] += 1;
                        traffic.push((Some(to), message));
                    }
                    Effect::Output(ReplicaEvent::Decide { .. }) => decided += 1,
                    _ => {}
                }
            }
        }
        if traffic.is_empty() {
            break;
        }
        for (dest, message) in traffic {
            match dest {
                Some(to) => replicas[to.0 as usize].on_message(message),
                None => {
                    for replica in replicas.iter_mut() {
                        replica.on_message(message.clone());
                    }
                }
            }
        }
    }
    decided
}

fn bench_scale(c: &mut Criterion) {
    let quick = std::env::var_os("ZUGCHAIN_BENCH_QUICK").is_some();
    let requests = if quick { 16usize } else { 64 };
    let mut group = c.benchmark_group("pbft/scale");
    group.sample_size(if quick { 3 } else { 10 });
    let mut accounting: Vec<(usize, f64, f64)> = Vec::new();
    for n in [4usize, 7] {
        group.throughput(Throughput::Elements(requests as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || fresh_group(n),
                |mut replicas| {
                    let mut sent = vec![0u64; n];
                    let decided = order_stream(&mut replicas, requests, &mut sent);
                    assert_eq!(decided, n * requests);
                    decided
                },
                BatchSize::LargeInput,
            );
        });

        // Untimed accounting run: the message flow is deterministic,
        // so one pass gives exact per-replica counts.
        let mut replicas = fresh_group(n);
        let mut sent = vec![0u64; n];
        let decided = order_stream(&mut replicas, requests, &mut sent);
        assert_eq!(decided, n * requests);
        let per_replica_per_req = |total: u64| total as f64 / decided as f64;
        let sigs = replicas
            .iter()
            .map(|replica| replica.stats().signatures_verified)
            .sum();
        accounting.push((
            n,
            per_replica_per_req(sent.iter().sum()),
            per_replica_per_req(sigs),
        ));
    }
    group.finish();
    for (n, msgs, sigs) in accounting {
        println!(
            "bench-result: pbft/scale_msgs/{n} msgs_per_replica_per_req={msgs:.2} \
             sigs_verified_per_replica_per_req={sigs:.2}"
        );
    }
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
