//! Byzantine drill: the deterministic simulator under attack.
//!
//! Reproduces the paper's §V-B Byzantine evaluation interactively — a
//! fabricating backup, a stalling primary, and a primary crash — and
//! prints how latency, CPU and view changes respond.
//!
//! ```text
//! cargo run --release --example byzantine_drill
//! ```

use zugchain_sim::{run_scenario, Mode, ScenarioConfig, SimFaults, Workload};

fn scenario(faults: SimFaults) -> ScenarioConfig {
    ScenarioConfig {
        mode: Mode::Zugchain,
        duration_ms: 20_000,
        bus_cycle_ms: 64,
        workload: Workload::SyntheticPayload { bytes: 1024 },
        faults,
        ..ScenarioConfig::default()
    }
}

fn main() {
    println!("ZugChain Byzantine drill — 4 nodes, f = 1, 64 ms bus cycle\n");

    let clean = run_scenario(&scenario(SimFaults::default()), 1);
    println!("baseline (no faults):");
    println!(
        "  latency {:.1} ms | cpu {:.1}% of total | {} requests logged | {} view changes\n",
        clean.latency.mean_ms(),
        clean.cpu_percent_of_total,
        clean.logged_requests,
        clean.view_changes
    );

    println!("attack 1: backup node 3 fabricates a request every cycle");
    let fabricate = run_scenario(
        &scenario(SimFaults {
            fabricate: Some((3, 1.0)),
            ..SimFaults::default()
        }),
        1,
    );
    println!(
        "  latency {:.1} ms (+{:.0}%) | cpu {:.1}% (+{:.0}%) | logged {} (incl. fabricated, attributed to node 3)",
        fabricate.latency.mean_ms(),
        (fabricate.latency.mean_ms() / clean.latency.mean_ms() - 1.0) * 100.0,
        fabricate.cpu_percent_of_total,
        (fabricate.cpu_percent_of_total / clean.cpu_percent_of_total - 1.0) * 100.0,
        fabricate.logged_requests,
    );
    println!("  → rate limiting keeps ordering within JRU bounds\n");

    println!("attack 2: primary delays its preprepares by 250 ms");
    let mut stall_config = scenario(SimFaults {
        primary_preprepare_delay_ms: Some(250),
        ..SimFaults::default()
    });
    stall_config.node_config = stall_config.node_config.with_timeouts(300, 300);
    let stall = run_scenario(&stall_config, 1);
    println!(
        "  latency {:.1} ms | view changes {} (soft timeouts absorb the stall)\n",
        stall.latency.mean_ms(),
        stall.view_changes
    );
    assert_eq!(
        stall.view_changes, 0,
        "a stall inside the timeouts deposed the primary"
    );

    println!("attack 3: primary crashes at t = 8 s");
    let crash = run_scenario(
        &scenario(SimFaults {
            crash: Some((0, 8_000)),
            ..SimFaults::default()
        }),
        1,
    );
    let worst = crash
        .latency
        .samples
        .iter()
        .filter(|(birth, _)| (8_000.0..10_000.0).contains(birth))
        .map(|(_, l)| *l)
        .fold(0.0, f64::max);
    let after: Vec<f64> = crash
        .latency
        .samples
        .iter()
        .filter(|(birth, _)| *birth > 11_000.0)
        .map(|(_, l)| *l)
        .collect();
    let stabilized = after.iter().sum::<f64>() / after.len().max(1) as f64;
    println!(
        "  view changes {} | worst latency during fail-over {:.0} ms | stabilized at {:.1} ms",
        crash.view_changes, worst, stabilized
    );
    println!(
        "  → no request was lost: {} unlogged",
        crash.unlogged_requests
    );
    assert!(
        crash.view_changes >= 1,
        "the crashed primary was never replaced"
    );
    assert_eq!(crash.unlogged_requests, 0, "the fail-over lost requests");
}
