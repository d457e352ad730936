//! Local stand-in for the `criterion` crate (the build environment has no
//! crates.io access). Provides a minimal wall-clock harness with the
//! criterion API surface ZugChain's benches use: `benchmark_group`,
//! `throughput`, `sample_size`, `bench_function`, `bench_with_input`,
//! `Bencher::iter`/`iter_batched`, `BenchmarkId`, and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Results are printed as `name  time: [.. ns/iter]` (plus derived
//! throughput when configured), followed by a machine-readable
//! `bench-result: <name> ns_per_iter=N median_ns=M mad_ns=D
//! [elem_per_s=R|bytes_per_s=R]` line for scripts (the CI regression
//! gates parse that one). `ns_per_iter` and the rates come from the
//! fastest sample; `median_ns` and `mad_ns` (median absolute deviation)
//! give the spread of all samples. There is no HTML report or baseline
//! comparison.

#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Measurement entry point handed to benchmark functions.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: 10,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function(&mut self, name: impl fmt::Display, f: impl FnMut(&mut Bencher)) {
        run_benchmark(&name.to_string(), None, 10, f);
    }
}

/// Units for derived throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The measured iteration processes this many bytes.
    Bytes(u64),
    /// The measured iteration processes this many elements.
    Elements(u64),
}

/// How [`Bencher::iter_batched`] sizes its setup batches (ignored here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{name}/{parameter}"),
        }
    }

    /// An id made of a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput used to derive per-byte/element rates.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Sets the number of measurement samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks a closure under `id` within this group.
    pub fn bench_function(
        &mut self,
        id: impl fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id);
        run_benchmark(&name, self.throughput, self.sample_size, f);
        self
    }

    /// Benchmarks a closure that borrows a fixed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id);
        run_benchmark(&name, self.throughput, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (report flushing in real criterion; a no-op here).
    pub fn finish(&mut self) {}
}

/// Measures one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, called in a loop.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over fresh inputs built by `setup` (setup time is
    /// excluded from the measurement).
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_benchmark(
    name: &str,
    throughput: Option<Throughput>,
    sample_size: usize,
    mut f: impl FnMut(&mut Bencher),
) {
    // Calibration pass: find an iteration count that runs ≥ ~20 ms, so
    // short routines are not dominated by timer noise.
    let mut iters = 1u64;
    let per_iter = loop {
        let mut bencher = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        if bencher.elapsed >= Duration::from_millis(20) || iters >= 1 << 20 {
            break bencher.elapsed.as_nanos() as u64 / iters.max(1);
        }
        iters = iters.saturating_mul(4);
    };

    // Measurement: `sample_size` more samples at the calibrated count
    // (the last calibration pass is the first sample); rates use the
    // minimum (least-noise) sample.
    let mut samples = vec![per_iter];
    for _ in 0..sample_size.min(20) {
        let mut bencher = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        samples.push(bencher.elapsed.as_nanos() as u64 / iters.max(1));
    }
    let Spread {
        min: best,
        median,
        mad,
    } = Spread::of(&samples);

    let (rate, machine_rate) = match throughput {
        Some(Throughput::Bytes(bytes)) if best > 0 => {
            let bytes_s = bytes as f64 * 1e9 / best as f64;
            let mib_s = bytes_s / (1024.0 * 1024.0);
            (
                format!("  thrpt: {mib_s:.1} MiB/s"),
                format!(" bytes_per_s={bytes_s:.0}"),
            )
        }
        Some(Throughput::Elements(elements)) if best > 0 => {
            let elem_s = elements as f64 * 1e9 / best as f64;
            (
                format!("  thrpt: {elem_s:.0} elem/s"),
                format!(" elem_per_s={elem_s:.0}"),
            )
        }
        _ => (String::new(), String::new()),
    };
    println!("{name:<50} time: {best} ns/iter (median {median} ± {mad}){rate}");
    // A second, machine-readable line with a fixed `key=value` layout:
    // scripts (CI regression gates, figure generators) parse this one,
    // so the human-readable formatting above can change freely.
    println!(
        "bench-result: {name} ns_per_iter={best} median_ns={median} mad_ns={mad}{machine_rate}"
    );
}

/// The minimum, median and median absolute deviation of per-iteration
/// samples, in ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Spread {
    min: u64,
    median: u64,
    mad: u64,
}

impl Spread {
    fn of(samples: &[u64]) -> Self {
        let center = median(samples.to_vec());
        Self {
            min: samples.iter().copied().min().unwrap_or(0),
            median: center,
            mad: median(samples.iter().map(|s| s.abs_diff(center)).collect()),
        }
    }
}

/// The middle value; the mean of the two middle values for an even count.
fn median(mut values: Vec<u64>) -> u64 {
    values.sort_unstable();
    let mid = values.len() / 2;
    match values.len() {
        0 => 0,
        n if n % 2 == 1 => values[mid],
        _ => (values[mid - 1] + values[mid]) / 2,
    }
}

/// Declares a benchmark group function calling each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("shim");
        group.sample_size(2);
        group.throughput(Throughput::Bytes(64));
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::from_parameter(64), &64usize, |b, n| {
            b.iter_batched(|| vec![0u8; *n], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }

    #[test]
    fn spread_reports_min_median_and_mad() {
        // Sorted: 10 11 12 13 40 → median 12; deviations 2 1 0 1 28 →
        // sorted 0 1 1 2 28 → MAD 1. The outlier moves neither.
        assert_eq!(
            Spread::of(&[13, 40, 10, 12, 11]),
            Spread {
                min: 10,
                median: 12,
                mad: 1
            }
        );
        // Even count: the two middle values are averaged.
        assert_eq!(
            Spread::of(&[8, 2, 6, 4]),
            Spread {
                min: 2,
                median: 5,
                mad: 2
            }
        );
        assert_eq!(
            Spread::of(&[7]),
            Spread {
                min: 7,
                median: 7,
                mad: 0
            }
        );
    }
}
