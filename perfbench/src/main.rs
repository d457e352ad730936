//! The ZugChain benchmark: one command that drives the live train
//! runtimes and the ground archive path, checks every output, and prints
//! end-to-end metrics (or, traced, per-layer metrics) as its last line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_cycle --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads and metrics are defined in `perfbench/README.md`.

mod cluster;
mod ground;
mod layers;
mod report;
mod rng;
mod stats;
mod sys;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use train::{Load, TrainWorkload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Scratch data of one run, removed when the run ends.
const DATA_ROOT: &str = ".bench_data";
/// Spans of traced runs.
const OUT_ROOT: &str = ".bench_out";

/// Every workload: those `BENCHMARK.json` lists, in its order, then
/// `saturate_disk`, which runs on request but is left out of the
/// benchmark because host fsync latency makes it unsteady (`README.md`).
pub const WORKLOADS: [&str; 4] = [
    "paper_cycle",
    "saturate_tcp",
    "ground_archive",
    "saturate_disk",
];

/// The command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

impl RunArgs {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds: u64 = seconds.ok_or("missing --seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(RunArgs {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// A fresh data directory under the checkout, removed on drop. Runs keep
/// every set-up's directory until their timed window is over.
#[derive(Debug)]
pub struct DataDir(PathBuf);

impl DataDir {
    /// Creates an empty directory for set-up `rep` of `workload`.
    pub fn fresh(workload: &str, rep: usize) -> std::io::Result<Self> {
        let path = Path::new(DATA_ROOT).join(format!("{workload}-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(DataDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Commit the removal now: on a filesystem mounted with `discard`,
        // freed blocks are trimmed at the next journal commit, which would
        // otherwise stall whatever fsyncs next.
        if let Ok(root) = std::fs::File::open(DATA_ROOT) {
            let _ = root.sync_all();
        }
        // Leaves the root behind only while another run still uses it.
        let _ = std::fs::remove_dir(DATA_ROOT);
    }
}

/// Wall seconds of each set-up of one run.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs one set-up and records its time.
    pub fn time<T>(&mut self, set_up: impl FnOnce() -> std::io::Result<T>) -> std::io::Result<T> {
        let started = Instant::now();
        let out = set_up()?;
        self.0.push(started.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Reports `setup_s`, their median, and records every set-up's time.
    pub fn report(&self, report: &mut Report) {
        report.set("setup_s", stats::median(&self.0));
        report
            .facts
            .push(format!("setup_s per set-up: {:.4?}", self.0));
    }
}

/// Writes a traced run's spans to `.bench_out/spans-<workload>.jsonl`.
pub fn write_spans(report: &mut Report, workload: &str, spans: &trace::Spans) {
    let path = Path::new(OUT_ROOT).join(format!("spans-{workload}.jsonl"));
    let written = std::fs::create_dir_all(OUT_ROOT).and_then(|()| spans.write_jsonl(&path));
    match written {
        Ok(()) => report.facts.push(format!(
            "spans={} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.notes.push(format!("spans not written: {e}")),
    }
}

/// Runs one workload end to end.
pub fn run(args: &RunArgs) -> std::io::Result<Report> {
    let mut report = match args.workload.as_str() {
        "paper_cycle" => train::run(
            TrainWorkload {
                tcp: false,
                disk: true,
                load: Load::OpenLoop,
            },
            args,
        )?,
        "saturate_disk" => train::run(
            TrainWorkload {
                tcp: false,
                disk: true,
                load: Load::ClosedLoop,
            },
            args,
        )?,
        "saturate_tcp" => train::run(
            TrainWorkload {
                tcp: true,
                disk: false,
                load: Load::ClosedLoop,
            },
            args,
        )?,
        "ground_archive" => ground::run(args)?,
        other => return Err(std::io::Error::other(format!("unknown workload {other}"))),
    };
    report.facts.insert(
        0,
        format!(
            "workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" commit={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            sys::nproc(),
            sys::cpu_model(),
            sys::commit()
        ),
    );
    Ok(report)
}

fn main() -> ExitCode {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in report.lines() {
                println!("{line}");
            }
            println!("{}", report.json(args.trace));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_run(workload: &str) {
        let args = RunArgs {
            workload: workload.to_string(),
            seed: 7,
            seconds: 1,
            trace: true,
        };
        let report = run(&args).expect("workload runs");
        for line in report.lines() {
            println!("{line}");
        }
        assert!(
            report.correct(),
            "output checks failed: {:?}",
            report.checks
        );
        assert_eq!(report.failed, 0);
        assert!(report.attempted > 0);
    }

    #[test]
    fn short_paper_cycle_passes_its_checks() {
        short_run("paper_cycle");
    }

    #[test]
    fn short_saturate_disk_passes_its_checks() {
        short_run("saturate_disk");
    }

    #[test]
    fn short_saturate_tcp_passes_its_checks() {
        short_run("saturate_tcp");
    }

    #[test]
    fn short_ground_archive_passes_its_checks() {
        short_run("ground_archive");
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| RunArgs::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload saturate_tcp --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (3, 5, true));
        assert!(parse("--workload nope --seed 3 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload paper_cycle --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload paper_cycle --seconds 5").is_err());
    }
}
