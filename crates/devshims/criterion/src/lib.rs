//! Offline stand-in for the `criterion` crate.
//!
//! The build environment for this workspace has no network access, so the
//! real `criterion` cannot be fetched. This crate implements the subset of
//! its API used by the benches in `crates/bench/benches/`:
//!
//! * [`Criterion::benchmark_group`], [`BenchmarkGroup::sample_size`],
//!   [`BenchmarkGroup::bench_function`], [`BenchmarkGroup::bench_with_input`],
//! * [`Bencher::iter`] and [`Bencher::iter_batched`] with [`BatchSize`],
//! * [`BenchmarkId::from_parameter`],
//! * the [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Timing uses `std::time::Instant`. Each benchmark reports mean and
//! minimum wall time per iteration on stdout. Environment knobs:
//!
//! * `BENCH_QUICK=1` — caps samples at 10 and the per-sample calibration
//!   budget, for CI smoke runs;
//! * `CRITERION_JSON=<path>` — appends one JSON object per benchmark
//!   (`{"group","bench","mean_ns","min_ns","samples"}`) as JSON lines.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::io::Write as _;
use std::time::Instant;

/// Re-export matching `criterion::black_box` (benches also use
/// `std::hint::black_box` directly).
pub use std::hint::black_box;

/// How `iter_batched` amortizes setup cost. The shim times one routine
/// call per sample regardless of the variant, so these are equivalent
/// here; the enum exists for API compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered from a parameter value, e.g. a problem size.
    pub fn from_parameter<T: Display>(parameter: T) -> Self {
        Self(parameter.to_string())
    }

    /// A `function_name/parameter` id.
    pub fn new<T: Display>(function_name: &str, parameter: T) -> Self {
        Self(format!("{function_name}/{parameter}"))
    }
}

/// Conversion accepted by `bench_function` (matches the upstream
/// `IntoBenchmarkId` flexibility for the call sites in this workspace).
pub trait IntoBenchmarkId {
    /// The rendered id.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.0
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// The timing harness handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Collected per-iteration times (ns) for the current benchmark.
    recorded: Vec<f64>,
}

impl Bencher {
    /// Times `routine` repeatedly and records per-iteration wall time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: one untimed warm-up call, then pick an iteration
        // count that makes a sample last at least ~2 ms.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().as_secs_f64();
        let target = if quick_mode() { 2e-3 } else { 10e-3 };
        let iters = ((target / once.max(1e-9)) as usize).clamp(1, 1_000_000);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let dt = start.elapsed().as_secs_f64();
            self.recorded.push(dt * 1e9 / iters as f64);
        }
    }

    /// Times `routine` on fresh inputs from `setup` (setup is untimed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            let dt = start.elapsed().as_secs_f64();
            self.recorded.push(dt * 1e9);
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(2);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let samples = effective_samples(self.samples);
        let mut bencher = Bencher {
            samples,
            recorded: Vec::with_capacity(samples),
        };
        f(&mut bencher);
        self.criterion
            .report(&self.name, &id.into_id(), &bencher.recorded);
        self
    }

    /// Runs one benchmark parameterized by an input reference.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (upstream-compatible no-op beyond reporting flow).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            samples: 10,
        }
    }

    fn report(&mut self, group: &str, bench: &str, samples_ns: &[f64]) {
        if samples_ns.is_empty() {
            return;
        }
        let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        let min = samples_ns.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "{group}/{bench}: mean {} min {} ({} samples)",
            format_ns(mean),
            format_ns(min),
            samples_ns.len()
        );
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path)
            {
                let _ = writeln!(
                    f,
                    "{{\"group\":\"{group}\",\"bench\":\"{bench}\",\"mean_ns\":{mean:.1},\"min_ns\":{min:.1},\"samples\":{}}}",
                    samples_ns.len()
                );
            }
        }
    }
}

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn effective_samples(configured: usize) -> usize {
    if quick_mode() {
        configured.clamp(2, 10)
    } else {
        configured.max(2)
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Groups benchmark functions, matching `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Entry point, matching `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2u64)));
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &n| {
            b.iter(|| n * 2)
        });
        group.bench_function(format!("fmt-{}", 1), |b| {
            b.iter_batched(|| vec![1u8; 8], |v| v.len(), BatchSize::LargeInput)
        });
        group.finish();
    }

    #[test]
    fn harness_runs() {
        let mut c = Criterion::default();
        trivial_bench(&mut c);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(12.0), "12 ns");
        assert_eq!(format_ns(1.2e3), "1.200 us");
        assert_eq!(format_ns(1.2e6), "1.200 ms");
        assert_eq!(format_ns(1.2e9), "1.200 s");
    }
}
