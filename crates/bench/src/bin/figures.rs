//! Regenerates every table and figure of the ZugChain paper's evaluation
//! (§V). Each subcommand prints the same rows/series the paper reports;
//! `EXPERIMENTS.md` records the paper-vs-measured comparison.
//!
//! Usage:
//!
//! ```text
//! figures [--quick|--paper] <experiment>
//!
//! experiments:
//!   fig6-cycles      network utilization & latency vs bus cycle
//!   fig6-payloads    network utilization & latency vs payload size
//!   fig7-cycles      CPU & memory vs bus cycle
//!   fig7-payloads    CPU & memory vs payload size
//!   fig8-viewchange  request latency timeline across a view change
//!   table2-export    export latencies for 500..16000 blocks
//!   fig9-byzantine   fabricated requests & delayed preprepares
//!   jru-requirements the §V-B JRU requirement check
//!   ablation-blocksize  block size = checkpoint interval tradeoff
//!   ablation-timeouts   timeout aggressiveness vs a censoring primary
//!   a8-stages        per-stage provenance latency of served traces
//!   all              everything above
//! ```
//!
//! `--quick` shortens runs for smoke testing; `--paper` uses the paper's
//! full 5-minute × 5-run protocol.

#![forbid(unsafe_code)]

use zugchain_bench::{
    fmt, row, run_averaged, run_pair, CYCLE_SWEEP_MS, EXPORT_BLOCK_COUNTS, FABRICATE_RATES,
    PAYLOAD_SWEEP_BYTES,
};
use zugchain_sim::{
    run_scenario, run_traced_pipeline, simulate_export, ExportSimConfig, Mode, ScenarioConfig,
    Workload,
};
use zugchain_telemetry::{Stage, STAGES};

/// Run-length profile.
#[derive(Clone, Copy)]
struct Profile {
    duration_ms: u64,
    runs: u64,
}

const QUICK: Profile = Profile {
    duration_ms: 10_000,
    runs: 1,
};
const DEFAULT: Profile = Profile {
    duration_ms: 60_000,
    runs: 2,
};
const PAPER: Profile = Profile {
    duration_ms: 300_000,
    runs: 5,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = DEFAULT;
    let mut experiments = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--quick" => profile = QUICK,
            "--paper" => profile = PAPER,
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        eprintln!("usage: figures [--quick|--paper] <experiment|all>");
        eprintln!("experiments: fig6-cycles fig6-payloads fig7-cycles fig7-payloads");
        eprintln!("             fig8-viewchange table2-export fig9-byzantine jru-requirements");
        eprintln!("             ablation-blocksize ablation-timeouts a8-stages all");
        std::process::exit(2);
    }
    for experiment in experiments {
        match experiment.as_str() {
            "fig6-cycles" => fig6_cycles(profile),
            "fig6-payloads" => fig6_payloads(profile),
            "fig7-cycles" => fig7_cycles(profile),
            "fig7-payloads" => fig7_payloads(profile),
            "fig8-viewchange" => fig8_viewchange(),
            "table2-export" => table2_export(),
            "fig9-byzantine" => fig9_byzantine(profile),
            "jru-requirements" => jru_requirements(profile),
            "ablation-blocksize" => ablation_blocksize(profile),
            "ablation-timeouts" => ablation_timeouts(profile),
            "a8-stages" => a8_stages(),
            "all" => {
                fig6_cycles(profile);
                fig6_payloads(profile);
                fig7_cycles(profile);
                fig7_payloads(profile);
                fig8_viewchange();
                table2_export();
                fig9_byzantine(profile);
                jru_requirements(profile);
                ablation_blocksize(profile);
                ablation_timeouts(profile);
                a8_stages();
            }
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    }
}

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Fig. 6 (left): network utilization and latency for bus cycles
/// 32–256 ms at 1 kB payloads.
fn fig6_cycles(profile: Profile) {
    header("Fig. 6 (left): network & latency vs bus cycle (payload 1 kB)");
    println!(
        "{}",
        row("bus cycle [ms]", &CYCLE_SWEEP_MS.map(|c| c.to_string()))
    );
    let mut net_zc = Vec::new();
    let mut net_bl = Vec::new();
    let mut lat_zc = Vec::new();
    let mut lat_bl = Vec::new();
    for cycle in CYCLE_SWEEP_MS {
        let (zc, bl) = run_pair(cycle, 1024, profile.duration_ms, profile.runs);
        net_zc.push(fmt(zc.network_mbps));
        net_bl.push(fmt(bl.network_mbps));
        lat_zc.push(fmt(zc.latency.mean_ms()));
        lat_bl.push(fmt(bl.latency.mean_ms()));
    }
    println!("{}", row("net zugchain [MB/s]", &net_zc));
    println!("{}", row("net baseline [MB/s]", &net_bl));
    println!("{}", row("lat zugchain [ms]", &lat_zc));
    println!("{}", row("lat baseline [ms]", &lat_bl));
}

/// Fig. 6 (right): network utilization and latency for payloads
/// 32 B – 8 kB at a 64 ms cycle.
fn fig6_payloads(profile: Profile) {
    header("Fig. 6 (right): network & latency vs payload (cycle 64 ms)");
    println!(
        "{}",
        row("payload [B]", &PAYLOAD_SWEEP_BYTES.map(|b| b.to_string()))
    );
    let mut net_zc = Vec::new();
    let mut net_bl = Vec::new();
    let mut lat_zc = Vec::new();
    let mut lat_bl = Vec::new();
    for bytes in PAYLOAD_SWEEP_BYTES {
        let (zc, bl) = run_pair(64, bytes, profile.duration_ms, profile.runs);
        net_zc.push(fmt(zc.network_mbps));
        net_bl.push(fmt(bl.network_mbps));
        lat_zc.push(fmt(zc.latency.mean_ms()));
        lat_bl.push(fmt(bl.latency.mean_ms()));
    }
    println!("{}", row("net zugchain [MB/s]", &net_zc));
    println!("{}", row("net baseline [MB/s]", &net_bl));
    println!("{}", row("lat zugchain [ms]", &lat_zc));
    println!("{}", row("lat baseline [ms]", &lat_bl));
}

/// Fig. 7 (left): CPU and memory for bus cycles 32–256 ms.
fn fig7_cycles(profile: Profile) {
    header("Fig. 7 (left): CPU & memory vs bus cycle (payload 1 kB)");
    println!(
        "{}",
        row("bus cycle [ms]", &CYCLE_SWEEP_MS.map(|c| c.to_string()))
    );
    let mut cpu_zc = Vec::new();
    let mut cpu_bl = Vec::new();
    let mut mem_zc = Vec::new();
    let mut mem_bl = Vec::new();
    for cycle in CYCLE_SWEEP_MS {
        let (zc, bl) = run_pair(cycle, 1024, profile.duration_ms, profile.runs);
        cpu_zc.push(fmt(zc.cpu_percent_of_total));
        cpu_bl.push(fmt(bl.cpu_percent_of_total));
        mem_zc.push(fmt(zc.memory_mb_mean));
        mem_bl.push(fmt(bl.memory_mb_mean));
    }
    println!("{}", row("cpu zugchain [% tot]", &cpu_zc));
    println!("{}", row("cpu baseline [% tot]", &cpu_bl));
    println!("{}", row("mem zugchain [MB]", &mem_zc));
    println!("{}", row("mem baseline [MB]", &mem_bl));
}

/// Fig. 7 (right): CPU and memory for payloads 32 B – 8 kB.
fn fig7_payloads(profile: Profile) {
    header("Fig. 7 (right): CPU & memory vs payload (cycle 64 ms)");
    println!(
        "{}",
        row("payload [B]", &PAYLOAD_SWEEP_BYTES.map(|b| b.to_string()))
    );
    let mut cpu_zc = Vec::new();
    let mut cpu_bl = Vec::new();
    let mut mem_zc = Vec::new();
    let mut mem_bl = Vec::new();
    for bytes in PAYLOAD_SWEEP_BYTES {
        let (zc, bl) = run_pair(64, bytes, profile.duration_ms, profile.runs);
        cpu_zc.push(fmt(zc.cpu_percent_of_total));
        cpu_bl.push(fmt(bl.cpu_percent_of_total));
        mem_zc.push(fmt(zc.memory_mb_mean));
        mem_bl.push(fmt(bl.memory_mb_mean));
    }
    println!("{}", row("cpu zugchain [% tot]", &cpu_zc));
    println!("{}", row("cpu baseline [% tot]", &cpu_bl));
    println!("{}", row("mem zugchain [MB]", &mem_zc));
    println!("{}", row("mem baseline [MB]", &mem_bl));
}

/// Fig. 8: request latency across a view change. The primary fails at
/// relative time 0; timeouts: ZugChain soft+hard 250 ms + 250 ms,
/// baseline 500 ms; bus cycle 64 ms; checkpoint/block size 10.
fn fig8_viewchange() {
    header("Fig. 8: request latency during a view change (fault at t=0)");
    let fault_at_ms = 10_000u64;
    for (label, mode) in [("zugchain", Mode::Zugchain), ("baseline", Mode::Baseline)] {
        let mut config = ScenarioConfig::evaluation(mode, 64, 1024);
        config.duration_ms = 25_000;
        config.faults.crash = Some((0, fault_at_ms));
        let metrics = run_scenario(&config, 42);
        println!("--- {label} ---");
        println!("{:>12} {:>12}", "t_rel [ms]", "latency [ms]");
        // Bucket the latency series into 100 ms buckets around the fault.
        let mut buckets: std::collections::BTreeMap<i64, (f64, u32)> = Default::default();
        for (birth_ms, latency_ms) in &metrics.latency.samples {
            let rel = *birth_ms - fault_at_ms as f64;
            if !(-1_000.0..=4_000.0).contains(&rel) {
                continue;
            }
            let bucket = (rel / 100.0).floor() as i64 * 100;
            let entry = buckets.entry(bucket).or_insert((0.0, 0));
            entry.0 += latency_ms;
            entry.1 += 1;
        }
        for (bucket, (sum, count)) in buckets {
            println!("{:>12} {:>12}", bucket, fmt(sum / f64::from(count)));
        }
        let before: Vec<f64> = metrics
            .latency
            .samples
            .iter()
            .filter(|(b, _)| *b < fault_at_ms as f64 - 500.0)
            .map(|(_, l)| *l)
            .collect();
        let steady_before = before.iter().sum::<f64>() / before.len().max(1) as f64;
        let after: Vec<f64> = metrics
            .latency
            .samples
            .iter()
            .filter(|(b, _)| *b > fault_at_ms as f64 + 2_000.0)
            .map(|(_, l)| *l)
            .collect();
        let steady_after = after.iter().sum::<f64>() / after.len().max(1) as f64;
        println!("steady-state before: {} ms", fmt(steady_before));
        println!("steady-state after:  {} ms", fmt(steady_after));
        println!("view changes: {}", metrics.view_changes);
    }
}

/// Table II: export latencies for 500–16 000 blocks over LTE.
fn table2_export() {
    header("Table II: read / delete / verify latency of the export [s]");
    println!(
        "{}",
        row("#blocks", &EXPORT_BLOCK_COUNTS.map(|n| n.to_string()))
    );
    let mut read = Vec::new();
    let mut delete = Vec::new();
    let mut verify = Vec::new();
    let mut share = Vec::new();
    for n_blocks in EXPORT_BLOCK_COUNTS {
        let timing = simulate_export(&ExportSimConfig {
            n_blocks,
            ..ExportSimConfig::default()
        });
        read.push(fmt(timing.read_s));
        delete.push(fmt(timing.delete_s));
        verify.push(fmt(timing.verify_s));
        share.push(format!("{:.0}%", timing.fractions().0 * 100.0));
    }
    println!("{}", row("read [s]", &read));
    println!("{}", row("delete [s]", &delete));
    println!("{}", row("verify [s]", &verify));
    println!("{}", row("read share of total", &share));
}

/// Fig. 9: Byzantine behaviour — fabricated requests at 25/75/100 % of
/// bus cycles and a primary delaying preprepares by 250 ms.
fn fig9_byzantine(profile: Profile) {
    header("Fig. 9: Byzantine behaviour (cycle 64 ms, payload 1 kB)");
    let baseline = run_averaged(Mode::Zugchain, 64, 1024, profile.duration_ms, profile.runs);
    println!(
        "normal case: cpu {}% mem {} MB lat {} ms",
        fmt(baseline.cpu_percent_of_total),
        fmt(baseline.memory_mb_mean),
        fmt(baseline.latency.mean_ms()),
    );
    for rate in FABRICATE_RATES {
        let mut config = ScenarioConfig::evaluation(Mode::Zugchain, 64, 1024);
        config.duration_ms = profile.duration_ms;
        config.faults.fabricate = Some((3, rate));
        let metrics = run_scenario(&config, 2000);
        let d = |a: f64, b: f64| if b > 0.0 { (a / b - 1.0) * 100.0 } else { 0.0 };
        println!(
            "fabricate {:>3.0}%: cpu {}% (+{:.0}%)  mem {} MB (+{:.1}%)  lat {} ms (+{:.0}%)",
            rate * 100.0,
            fmt(metrics.cpu_percent_of_total),
            d(metrics.cpu_percent_of_total, baseline.cpu_percent_of_total),
            fmt(metrics.memory_mb_mean),
            d(metrics.memory_mb_mean, baseline.memory_mb_mean),
            fmt(metrics.latency.mean_ms()),
            d(metrics.latency.mean_ms(), baseline.latency.mean_ms()),
        );
    }
    let mut config = ScenarioConfig::evaluation(Mode::Zugchain, 64, 1024);
    config.duration_ms = profile.duration_ms;
    config.faults.primary_preprepare_delay_ms = Some(250);
    // Soft timeout must exceed the delay for "soft but not hard" — the
    // paper uses 250/250 ms; with a 250 ms delay the preprepare arrives
    // as the soft timer fires, stalling but not changing views.
    config.node_config = config.node_config.with_timeouts(300, 300);
    let metrics = run_scenario(&config, 2001);
    println!(
        "primary delays preprepares 250 ms: lat {} ms (+{:.0}%), view changes {}",
        fmt(metrics.latency.mean_ms()),
        (metrics.latency.mean_ms() / baseline.latency.mean_ms() - 1.0) * 100.0,
        metrics.view_changes,
    );
}

/// §V-B "Comparison to JRU Requirements": ≥10 events/s stored within
/// 500 ms; at a 64 ms cycle ZugChain handles 15.6 events/s at ~14 ms.
fn jru_requirements(profile: Profile) {
    header("JRU requirements check (§V-B)");
    let metrics = run_averaged(Mode::Zugchain, 64, 1024, profile.duration_ms, profile.runs);
    let eps = metrics.events_per_second() * profile.runs as f64 / profile.runs as f64;
    println!(
        "events per second:        {:.1} (paper: 15.6, requirement: 10)",
        eps
    );
    println!(
        "mean ordering latency:    {} ms (paper: ~14 ms, requirement: 500 ms)",
        fmt(metrics.latency.mean_ms())
    );
    println!(
        "p99 ordering latency:     {} ms",
        fmt(metrics.latency.quantile_ms(0.99))
    );
    println!(
        "max CPU of total:         {}% (paper: <= 15%)",
        fmt(metrics.cpu_percent_of_total)
    );
    let ok = metrics.latency.quantile_ms(0.99) < 500.0 && eps >= 10.0;
    println!(
        "requirement met:          {}",
        if ok { "YES" } else { "NO" }
    );
}

/// Ablation: block size (= checkpoint interval). The paper fixes both at
/// 10; this sweep shows the tradeoff — small blocks checkpoint (and can
/// be exported/pruned) sooner but spend more CPU on checkpoint traffic.
fn ablation_blocksize(profile: Profile) {
    header("Ablation: block size / checkpoint interval (cycle 64 ms, 1 kB)");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>14}",
        "blocksize", "lat [ms]", "cpu [%tot]", "blocks", "ckpt int [s]"
    );
    for block_size in [1usize, 5, 10, 25, 50] {
        let mut config = ScenarioConfig::evaluation(Mode::Zugchain, 64, 1024);
        config.duration_ms = profile.duration_ms;
        config.node_config = config.node_config.with_block_size(block_size);
        let metrics = run_scenario(&config, 3000);
        let interval_s = if metrics.blocks_created > 0 {
            metrics.duration_ms / 1000.0 / metrics.blocks_created as f64
        } else {
            f64::INFINITY
        };
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>14}",
            block_size,
            fmt(metrics.latency.mean_ms()),
            fmt(metrics.cpu_percent_of_total),
            metrics.blocks_created,
            fmt(interval_s),
        );
    }
}

/// Ablation: timeout sensitivity against a censoring primary. The
/// combined soft+hard timeout bounds how long a censoring primary can
/// suppress recording before it is deposed (paper §V-B: "with our quickly
/// stabilizing view change, we can use more aggressive timeouts").
fn ablation_timeouts(profile: Profile) {
    header("Ablation: timeouts vs a censoring primary (cycle 64 ms)");
    println!(
        "{:>18} {:>14} {:>12} {:>12}",
        "soft+hard [ms]", "worst lat [ms]", "view chg", "unlogged"
    );
    for (soft_ms, hard_ms) in [(50u64, 50u64), (125, 125), (250, 250), (500, 500)] {
        let mut config = ScenarioConfig::evaluation(Mode::Zugchain, 64, 1024);
        config.duration_ms = profile.duration_ms.min(30_000);
        config.faults.primary_censors = true;
        config.node_config = config.node_config.with_timeouts(soft_ms, hard_ms);
        let metrics = run_scenario(&config, 3100);
        println!(
            "{:>18} {:>14} {:>12} {:>12}",
            format!("{soft_ms}+{hard_ms}"),
            fmt(metrics.latency.max_ms()),
            metrics.view_changes,
            metrics.unlogged_requests,
        );
    }
    println!("(aggressive timeouts cut the censorship window; nothing is ever lost)");
}

/// A8: where a request's time goes, stage by stage. Runs the traced
/// pipeline (3 s at a 64 ms cycle, then one export round, archive ingest
/// and HTTP serving), assembles every archived request's lifecycle, and
/// prints the mean delay between the first spans of consecutive stages
/// in virtual milliseconds.
fn a8_stages() {
    header("A8: per-stage provenance latency (cycle 64 ms, 3 s run, mean ms)");
    let config = ScenarioConfig {
        mode: Mode::Zugchain,
        duration_ms: 3_000,
        bus_cycle_ms: 64,
        workload: Workload::SyntheticPayload { bytes: 256 },
        ..ScenarioConfig::default()
    };
    let outcome = run_traced_pipeline(&config, 7);
    let store = &outcome.capture.trace_store;
    // Per trace: the earliest start of every stage, in chain order.
    let firsts: Vec<Vec<u64>> = outcome
        .archived_sns
        .iter()
        .flat_map(|&sn| store.traces_for_sn(sn))
        .filter_map(|id| {
            let spans = store.assemble(id);
            STAGES
                .iter()
                .map(|stage| {
                    spans
                        .iter()
                        .filter(|s| s.stage == *stage)
                        .map(|s| s.start_ms)
                        .min()
                })
                .collect()
        })
        .collect();
    let mean = |from: Stage, to: Stage| {
        let total: u64 = firsts
            .iter()
            .map(|f| f[to.order()].saturating_sub(f[from.order()]))
            .sum();
        total as f64 / firsts.len().max(1) as f64
    };
    println!("{} complete lifecycles", firsts.len());
    println!("{:>26} {:>12}", "transition", "mean");
    let transitions = STAGES.windows(2).map(|w| (w[0], w[1])).chain([
        (Stage::Record, Stage::Decide),
        (Stage::Decide, Stage::Servable),
    ]);
    for (from, to) in transitions {
        let label = format!("{from} -> {to}");
        println!("{label:>26} {:>12}", fmt(mean(from, to)));
    }
}
