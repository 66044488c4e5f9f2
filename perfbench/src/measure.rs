//! Timing, statistics and result bookkeeping shared by the workloads.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `body` and returns its result with its wall time in ms.
pub fn timed<R>(body: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = body();
    (out, ms_since(t0))
}

/// Linear-interpolated quantile `q` in [0, 1] of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// SplitMix64: the benchmark's own input generator, so workload inputs
/// are a pure function of `--seed` and independent of library RNGs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Converts any displayable error into the workloads' `String` errors.
pub trait Ctx<T> {
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Fails with `what` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// What one benchmark run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, cold set-ups included.
    pub attempted: u64,
    /// Operations that returned an error or failed their output check.
    pub failed: u64,
    /// Run-level checks (determinism, recovery) that failed.
    pub check_failures: Vec<String>,
    /// Metric values by name; units come from the metric tables.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form labels (resolved backends, digests, the largest layer).
    pub labels: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Counts one operation and records its failure, if any.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {e}");
                None
            }
        }
    }

    /// Records a run-level check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            eprintln!("check failed: {e}");
            self.check_failures.push(e);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn label(&mut self, name: &'static str, value: impl Into<String>) {
        self.labels.insert(name, value.into());
    }
}

/// Runs `op` back to back until `seconds` have elapsed, skipping a
/// further call once the previous one says it would overrun the window
/// by more than half its own length. Always runs at least `min_ops`.
pub fn measure_window(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0;
    loop {
        let before = t0.elapsed().as_secs_f64();
        op(i);
        i += 1;
        let now = t0.elapsed().as_secs_f64();
        let last = now - before;
        if i >= min_ops && now + 0.5 * last >= seconds {
            break;
        }
    }
}
