//! Cross-runtime conformance: the same scenario — four nodes, six
//! payloads, the initial primary crashing halfway, exactly one view
//! change — runs on all three runtimes built on the generic
//! `zugchain_machine::Driver`:
//!
//! * the discrete-event simulator ([`zugchain_sim::run_scenario`]),
//! * the in-process threaded cluster ([`ThreadedCluster`]),
//! * the real-socket cluster ([`TcpCluster`]), also with every node
//!   persisting to its own disk (the deployment shape),
//!
//! and every node must decide the identical `(sn, digest)` sequence.
//! The suite also covers the timer-generation contract: soft timeouts
//! that were cancelled and re-armed while the crash was handled must
//! never cause a payload to be proposed (and thus decided) twice.

use std::time::{Duration, Instant};

use zugchain::NodeConfig;
use zugchain_crypto::Digest;
use zugchain_sim::runtime::{ClusterEvent, ThreadedCluster};
use zugchain_sim::tcp::TcpCluster;
use zugchain_sim::{run_scenario, Mode, ScenarioConfig, Workload};

const N: usize = 4;
/// Index of the first payload fed after the primary crash.
const CRASH_AT: usize = 3;

/// The scripted payloads: spaced far enough apart that each one is
/// decided before the next arrives, on every runtime.
fn payloads() -> Vec<Vec<u8>> {
    (0..6u8)
        .map(|i| {
            let mut payload = vec![i; 96];
            payload[..4].copy_from_slice(b"CONF");
            payload
        })
        .collect()
}

/// The conformance node config at a given consensus batch size. Batched
/// configs get a short flush delay so a partial batch (every batch, in
/// the quiescent script) still proposes promptly.
fn node_config(max_batch_size: usize) -> NodeConfig {
    let mut config = NodeConfig::default_for_testing();
    if max_batch_size > 1 {
        config.pbft = config
            .pbft
            .with_max_batch_size(max_batch_size)
            .with_batch_delay(10);
    }
    config
}

/// Runs the scenario on the discrete-event simulator and returns the
/// per-node decided logs.
fn sim_decided(node_config: NodeConfig) -> Vec<Vec<(u64, Digest)>> {
    let mut config = ScenarioConfig {
        mode: Mode::Zugchain,
        n_nodes: N,
        bus_cycle_ms: 64,
        duration_ms: 12_000,
        workload: Workload::Scripted {
            payloads: payloads()
                .into_iter()
                .enumerate()
                .map(|(i, payload)| (1_000 + 1_000 * i as u64, payload))
                .collect(),
        },
        node_config,
        ..ScenarioConfig::default()
    };
    // Crash the initial primary at a quiescent point: payloads 0..3 are
    // decided, payload 3 (at t=4 s) is the first the new primary orders.
    config.faults.crash = Some((0, 3_500));
    run_scenario(&config, 77).decided
}

/// Drives a live cluster (threaded or TCP — same API) through the same
/// scenario in real time and returns the per-node decided logs.
macro_rules! live_decided {
    ($cluster:expr) => {{
        let cluster = $cluster;
        let mut decided: Vec<Vec<(u64, Digest)>> = vec![Vec::new(); N];
        let drain = |decided: &mut Vec<Vec<(u64, Digest)>>| {
            while let Ok(event) = cluster.events().try_recv() {
                if let ClusterEvent::Logged {
                    node, sn, digest, ..
                } = event
                {
                    decided[node.0 as usize].push((sn, digest));
                }
            }
        };
        for (i, payload) in payloads().into_iter().enumerate() {
            if i == CRASH_AT {
                cluster.crash(0);
                std::thread::sleep(Duration::from_millis(100));
            }
            cluster.feed_bus_payload_all(payload);
            // Wait until every live node decided this payload before
            // feeding the next one — the quiescence the sim script has by
            // construction.
            let target = i + 1;
            let alive: &[usize] = if i >= CRASH_AT {
                &[1, 2, 3]
            } else {
                &[0, 1, 2, 3]
            };
            let deadline = Instant::now() + Duration::from_secs(20);
            while Instant::now() < deadline {
                drain(&mut decided);
                if alive.iter().all(|&node| decided[node].len() >= target) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        std::thread::sleep(Duration::from_millis(200));
        drain(&mut decided);
        cluster.shutdown();
        decided
    }};
}

/// Asserts the invariants every runtime's decided logs must satisfy.
fn check_one_runtime(decided: &[Vec<(u64, Digest)>], runtime: &str) {
    let expected: Vec<Digest> = payloads().iter().map(|p| Digest::of(p)).collect();
    // The crashed node decided exactly the pre-crash prefix.
    assert_eq!(
        decided[0].len(),
        CRASH_AT,
        "{runtime}: node 0 decided up to the crash"
    );
    for node in 1..N {
        let digests: Vec<Digest> = decided[node].iter().map(|(_, d)| *d).collect();
        assert_eq!(
            digests, expected,
            "{runtime}: node {node} decided all payloads in script order"
        );
        // Never double-proposed: no digest decided twice, and sequence
        // numbers strictly increase even across the view change.
        let sns: Vec<u64> = decided[node].iter().map(|(sn, _)| *sn).collect();
        assert!(
            sns.windows(2).all(|w| w[0] < w[1]),
            "{runtime}: node {node} sns strictly increase: {sns:?}"
        );
        assert_eq!(
            decided[node], decided[1],
            "{runtime}: node {node} agrees with node 1"
        );
    }
    assert_eq!(
        decided[0][..],
        decided[1][..CRASH_AT],
        "{runtime}: crashed node's prefix agrees"
    );
}

#[test]
fn all_three_runtimes_decide_the_identical_sequence() {
    let sim = sim_decided(node_config(1));
    check_one_runtime(&sim, "sim");

    let threaded = live_decided!(ThreadedCluster::start(N, node_config(1)));
    check_one_runtime(&threaded, "threaded");

    let tcp =
        live_decided!(TcpCluster::start(N, node_config(1)).expect("loopback sockets available"));
    check_one_runtime(&tcp, "tcp");

    let dir = std::env::temp_dir().join(format!("zugchain-conformance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tcp_disk = live_decided!(TcpCluster::start_with_disk(N, node_config(1), &dir)
        .expect("loopback sockets and a data directory available"));
    let _ = std::fs::remove_dir_all(&dir);
    check_one_runtime(&tcp_disk, "tcp+disk");

    // The tentpole claim: one driver, one behaviour. The full (sn,
    // digest) logs — not just the payload sets — line up across the
    // simulator, the threaded runtime, and real sockets, with or
    // without disk.
    assert_eq!(sim, threaded, "sim and threaded decided identically");
    assert_eq!(threaded, tcp, "threaded and tcp decided identically");
    assert_eq!(tcp, tcp_disk, "tcp and tcp+disk decided identically");
}

/// The same scenario with consensus batching on (`max_batch_size` 16).
/// The quiescent script makes every batch a singleton flushed by the
/// batch timer, so the per-request decided logs must be bit-identical
/// across the three runtimes AND identical to the unbatched run —
/// batching changes when agreement happens, never what is agreed.
#[test]
fn batched_runtimes_decide_the_identical_per_request_sequence() {
    let sim_unbatched = sim_decided(node_config(1));
    let sim = sim_decided(node_config(16));
    check_one_runtime(&sim, "sim/batch16");
    assert_eq!(
        sim, sim_unbatched,
        "batch size must not change the decided log"
    );

    let threaded = live_decided!(ThreadedCluster::start(N, node_config(16)));
    check_one_runtime(&threaded, "threaded/batch16");

    let tcp =
        live_decided!(TcpCluster::start(N, node_config(16)).expect("loopback sockets available"));
    check_one_runtime(&tcp, "tcp/batch16");

    assert_eq!(sim, threaded, "sim and threaded decided identically");
    assert_eq!(threaded, tcp, "threaded and tcp decided identically");
}

/// Crash the primary *mid-batch*: a burst of eight payloads lands in the
/// primary's backlog (batch size 16, 96 ms flush delay) and the primary
/// dies before its flush timer fires. The view change must hand the
/// burst to the new primary, which proposes it as one batch; a second
/// burst after the view change checks ordering continues. Every payload
/// is decided exactly once on every survivor, batched or not, and both
/// runs decide the same requests in the same order.
#[test]
fn mid_batch_crash_and_view_change_decide_the_burst_exactly_once() {
    let bursts: Vec<(u64, Vec<u8>)> = (0..8u8)
        .map(|i| (1_000, vec![0xB0 + i; 80]))
        .chain((0..4u8).map(|i| (6_000, vec![0xC0 + i; 80])))
        .collect();
    let run = |node_config: NodeConfig| {
        let mut config = ScenarioConfig {
            mode: Mode::Zugchain,
            n_nodes: N,
            bus_cycle_ms: 64,
            duration_ms: 12_000,
            workload: Workload::Scripted {
                payloads: bursts.clone(),
            },
            node_config,
            ..ScenarioConfig::default()
        };
        // The burst is delivered at the 1 024 ms bus cycle; with a 96 ms
        // flush delay the batch would propose at ~1 120 ms, but the
        // primary crashes at the 1 088 ms cycle — the batch still open.
        config.faults.crash = Some((0, 1_030));
        run_scenario(&config, 41)
    };

    let mut batched_config = node_config(1);
    batched_config.pbft = batched_config
        .pbft
        .with_max_batch_size(16)
        .with_batch_delay(96);
    let batched = run(batched_config);
    let unbatched = run(NodeConfig::default_for_testing());

    let expected: std::collections::BTreeSet<Digest> =
        bursts.iter().map(|(_, p)| Digest::of(p)).collect();
    for (metrics, name) in [(&batched, "batch16"), (&unbatched, "batch1")] {
        assert!(
            metrics.view_changes >= 1,
            "{name}: the crash deposes the primary"
        );
        for node in 1..N {
            let digests: Vec<Digest> = metrics.decided[node].iter().map(|(_, d)| *d).collect();
            let unique: std::collections::BTreeSet<Digest> = digests.iter().copied().collect();
            assert_eq!(
                unique.len(),
                digests.len(),
                "{name}: node {node} decided no digest twice"
            );
            assert_eq!(
                unique, expected,
                "{name}: node {node} decided every burst payload"
            );
            assert_eq!(
                metrics.decided[node], metrics.decided[1],
                "{name}: node {node} agrees with node 1"
            );
        }
    }
    // The batched run really agreed in multi-request batches. (The
    // *relative order* of the burst can differ between the two runs: it
    // is fixed by the order the new primary's backlog was filled in, not
    // by the batch size — the protocol's promise is agreement,
    // completeness and exactly-once, all asserted above.)
    assert!(
        batched.mean_batch_occupancy() > 2.0,
        "occupancy {}",
        batched.mean_batch_occupancy()
    );
}

/// Soft timeouts fire on every request here (the primary's preprepares
/// are delayed past the soft timeout), so each request's timer is armed,
/// fired or cancelled, and re-armed repeatedly while ordering catches
/// up. With the generation handling unified in the driver, a
/// cancelled-then-refired soft timeout must never double-propose: every
/// payload is decided exactly once on every node, with no spurious view
/// change.
#[test]
fn cancelled_then_refired_soft_timeouts_never_double_propose() {
    let mut config = ScenarioConfig {
        mode: Mode::Zugchain,
        n_nodes: N,
        bus_cycle_ms: 64,
        duration_ms: 8_000,
        workload: Workload::SyntheticPayload { bytes: 256 },
        ..ScenarioConfig::default()
    };
    // Delay between the soft and hard timeout (250/250 ms defaults):
    // every request's soft timer fires and forwards, then the delayed
    // preprepare lands and cancels the hard timer.
    config.faults.primary_preprepare_delay_ms = Some(300);
    let metrics = run_scenario(&config, 99);

    assert_eq!(metrics.view_changes, 0, "soft timeouts alone never depose");
    assert!(metrics.logged_requests > 50, "ordering kept up");
    for (node, decided) in metrics.decided.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        for (sn, digest) in decided {
            assert!(
                seen.insert(*digest),
                "node {node} decided digest twice (sn {sn})"
            );
        }
    }
}

/// The same no-double-propose property on a live runtime: crash the
/// primary with a request in flight, so the backups' soft and hard
/// timers fire, get cancelled by the view change, and are re-armed for
/// the re-proposal. The request must still be decided exactly once.
#[test]
fn live_runtime_decides_in_flight_request_exactly_once_across_view_change() {
    let cluster = ThreadedCluster::start(N, NodeConfig::default_for_testing());
    // A quiet payload first, so the cluster is warm.
    cluster.feed_bus_payload_all(vec![0xA0; 64]);
    std::thread::sleep(Duration::from_millis(150));
    // Crash the primary, then immediately feed: the request is in flight
    // with no primary, so every backup's soft timer fires, then the hard
    // timer, then the view change re-proposes it.
    cluster.crash(0);
    cluster.feed_bus_payload_all(vec![0xA1; 64]);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut decided: Vec<Vec<(u64, Digest)>> = vec![Vec::new(); N];
    while Instant::now() < deadline {
        while let Ok(event) = cluster.events().try_recv() {
            if let ClusterEvent::Logged {
                node, sn, digest, ..
            } = event
            {
                decided[node.0 as usize].push((sn, digest));
            }
        }
        if (1..N).all(|node| decided[node].len() >= 2) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Extra settle time: a buggy stale-timer path would re-propose now.
    std::thread::sleep(Duration::from_millis(400));
    while let Ok(event) = cluster.events().try_recv() {
        if let ClusterEvent::Logged {
            node, sn, digest, ..
        } = event
        {
            decided[node.0 as usize].push((sn, digest));
        }
    }
    cluster.shutdown();

    let in_flight = Digest::of(&[0xA1; 64]);
    for node in 1..N {
        let times = decided[node]
            .iter()
            .filter(|(_, digest)| *digest == in_flight)
            .count();
        assert_eq!(times, 1, "node {node} decided the in-flight request once");
        assert_eq!(decided[node], decided[1], "node {node} agrees with node 1");
    }
}
