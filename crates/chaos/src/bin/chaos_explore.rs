//! Seed-range chaos exploration CLI.
//!
//! ```text
//! chaos_explore [--start N] [--seeds N] [--mutate] [--out DIR] [--minimize-runs N]
//! ```
//!
//! Runs the seeded scenario for each seed in `[start, start + seeds)`.
//! Every violation is minimized and written to
//! `DIR/chaos-repro-<seed>.ron`, with the failing run's per-node
//! event-ring dumps next to it as `DIR/chaos-trace-<seed>.jsonl`;
//! the process exits non-zero if any seed violated an invariant. `--mutate` arms the `mutation-hooks`
//! equivocation bug on every scenario's initial primary (expect 100%
//! violations — this is how the harness's own detection power is
//! smoke-tested).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use zugchain_chaos::{explore, DEFAULT_MINIMIZE_RUNS};

struct Args {
    start: u64,
    seeds: u64,
    mutate: bool,
    out: PathBuf,
    minimize_runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        start: 0,
        seeds: 64,
        mutate: false,
        out: PathBuf::from("."),
        minimize_runs: DEFAULT_MINIMIZE_RUNS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--start" => args.start = value("--start")?.parse().map_err(|e| format!("{e}"))?,
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--mutate" => args.mutate = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--minimize-runs" => {
                args.minimize_runs = value("--minimize-runs")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: chaos_explore [--start N] [--seeds N] [--mutate] [--out DIR] [--minimize-runs N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("chaos_explore: {err}");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let report = explore(args.start, args.seeds, args.mutate, args.minimize_runs);
    let elapsed = started.elapsed();

    println!(
        "explored {} seeds in {:.2}s ({:.1} seeds/s): {} ops scheduled, {} messages delivered, {} violation(s)",
        report.seeds_run,
        elapsed.as_secs_f64(),
        report.seeds_run as f64 / elapsed.as_secs_f64().max(1e-9),
        report.total_ops,
        report.total_messages,
        report.failures.len(),
    );

    let mut wrote_all = true;
    if !report.failures.is_empty() {
        if let Err(err) = std::fs::create_dir_all(&args.out) {
            wrote_all = false;
            eprintln!("  failed to create {}: {err}", args.out.display());
        }
    }
    for failure in &report.failures {
        println!(
            "seed {}: {} — minimized to {} op(s), {} crash(es), {} byzantine, {} export(s), partition: {}",
            failure.seed,
            failure.violation,
            failure.minimized.ops.len(),
            failure.minimized.crashes.len(),
            failure.minimized.byzantine.len(),
            failure.minimized.exports.len(),
            failure.minimized.partition.is_some(),
        );
        let path = args.out.join(&failure.file_name);
        match std::fs::write(&path, &failure.repro) {
            Ok(()) => println!("  wrote {}", path.display()),
            Err(err) => {
                wrote_all = false;
                eprintln!("  failed to write {}: {err}", path.display());
            }
        }
        // The event-ring dumps of the failing run ride along with
        // the repro: each node's last events before the violation.
        let trace_path = args.out.join(&failure.trace_file_name);
        match std::fs::write(&trace_path, failure.traces.concat()) {
            Ok(()) => println!("  wrote {}", trace_path.display()),
            Err(err) => {
                wrote_all = false;
                eprintln!("  failed to write {}: {err}", trace_path.display());
            }
        }
        // When the violation names a consensus slot, the assembled
        // cross-node span trees of that slot's traces land next to the
        // ring dumps.
        if !failure.span_trees.is_empty() {
            let span_path = args.out.join(&failure.span_tree_file_name);
            match std::fs::write(&span_path, &failure.span_trees) {
                Ok(()) => println!("  wrote {}", span_path.display()),
                Err(err) => {
                    wrote_all = false;
                    eprintln!("  failed to write {}: {err}", span_path.display());
                }
            }
        }
    }

    if report.failures.is_empty() && wrote_all {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
