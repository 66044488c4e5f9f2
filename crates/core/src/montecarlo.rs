//! Monte Carlo uncertainty engine over the co-simulation.
//!
//! Samples manufacturing and operating tolerances (channel geometry,
//! contact ASR, inlet temperature, flow rate, per-block power scaling)
//! from seeded distributions, pushes every sample through the retarget
//! mutators of a warm [`CoSimulation`] worker, and reduces the yield
//! metrics with streaming, mergeable accumulators whose state is
//! O(log n) in the sample count.
//!
//! # Determinism contract
//!
//! For a fixed [`McSpec`] (same base scenario, variables, samples and
//! seed) and no fault injection, the [`McReport`] — including its JSON
//! serialization — is **bitwise identical** regardless of chunk size
//! and worker count. Three mechanisms combine to give that:
//!
//! * sample `i`'s parameter vector is a pure function of `(seed, i)`
//!   (counter-based RNG streams, [`bright_num::rng::CorrelatedSampler`]),
//! * every worker calls [`CoSimulation::reset_warm_starts`] before each
//!   sample, and the retarget mutators re-stamp operator values
//!   bitwise-equal to a cold build, so the solve for sample `i` does
//!   not depend on which worker served it or what it served before;
//!   the PDN droop comes from one study-wide banded Cholesky factor
//!   whose multi-load sweeps give every load the bits of a one-load
//!   solve, whatever lane group it lands in and whichever thread
//!   solves it,
//! * per-sample states reduce through a [`DyadicForest`] whose merge
//!   tree is a function of the index range alone, and chunk forests are
//!   appended in chunk order ([`QuantileSketch`] and the exceedance
//!   counters are integer-exact, so they need no ordering at all).
//!
//! Fault-injected runs (`BRIGHT_FAULTS`) keep the batch alive — panics
//! and solve failures poison only their own sample, which is excluded
//! from every accumulator — but which sample absorbs a fault depends on
//! thread interleaving, so the bitwise contract applies to fault-free
//! runs only. See `docs/MONTECARLO.md`.

use crate::cosim::{pdn_for, CoSimulation};
use crate::reports::YieldReport;
use crate::scenario::Scenario;
use crate::CoreError;
use bright_flowcell::GeometryCache;
use bright_jsonio::Value;
use bright_num::rng::{CorrelatedSampler, Distribution};
use bright_num::stats::{
    wilson_interval, Accumulate, DyadicForest, QuantileSketch, VecMoments,
};
use bright_floorplan::{Floorplan, PowerScenario};
use bright_pdn::grid::LANE_GROUP;
use bright_pdn::PowerGrid;
use bright_units::{Kelvin, Volt, Watt};
use std::sync::Arc;

/// The scalar yield metrics accumulated per sample, in report order.
const METRIC_NAMES: [&str; 7] = [
    "peak_temperature_k",
    "outlet_temperature_k",
    "net_power_at_1v_w",
    "power_at_1v_w",
    "pumping_power_w",
    "pdn_min_voltage_v",
    "pressure_drop_pa",
];

/// A scenario knob the Monte Carlo engine can sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McParameter {
    /// Total electrolyte flow through the array (m³/s).
    TotalFlow,
    /// Electrolyte inlet temperature (K).
    InletTemperature,
    /// Microchannel width (m) — a manufacturing tolerance.
    ChannelWidth,
    /// Microchannel height (m).
    ChannelHeight,
    /// Membrane/contact area-specific resistance (Ω·m²).
    ContactAsr,
    /// Multiplier on every thermal power density (workload variation).
    ThermalPowerScale,
    /// Multiplier on every rail power density.
    RailPowerScale,
}

impl McParameter {
    /// Stable lower-snake name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            McParameter::TotalFlow => "total_flow",
            McParameter::InletTemperature => "inlet_temperature",
            McParameter::ChannelWidth => "channel_width",
            McParameter::ChannelHeight => "channel_height",
            McParameter::ContactAsr => "contact_asr",
            McParameter::ThermalPowerScale => "thermal_power_scale",
            McParameter::RailPowerScale => "rail_power_scale",
        }
    }
}

/// One sampled variable: which knob, its marginal distribution (in the
/// knob's SI unit), and an optional manufacturing quantum.
#[derive(Debug, Clone, PartialEq)]
pub struct McVariable {
    /// The scenario knob being varied.
    pub parameter: McParameter,
    /// Marginal distribution of the knob, in its SI unit.
    pub distribution: Distribution,
    /// Snap grid for the sampled value (e.g. a 1 µm lithography grid
    /// for channel geometry). Quantized geometry samples collide on
    /// their fingerprint, so the shared [`GeometryCache`] serves
    /// repeat geometries without a new duct solve. `None` = continuous.
    pub quantum: Option<f64>,
}

impl McVariable {
    /// A continuous variable.
    #[must_use]
    pub fn new(parameter: McParameter, distribution: Distribution) -> Self {
        Self { parameter, distribution, quantum: None }
    }

    /// A variable snapped to a manufacturing grid of `quantum`.
    #[must_use]
    pub fn quantized(parameter: McParameter, distribution: Distribution, quantum: f64) -> Self {
        Self { parameter, distribution, quantum: Some(quantum) }
    }

    fn apply_quantum(&self, v: f64) -> f64 {
        match self.quantum {
            Some(q) if q > 0.0 => (v / q).round() * q,
            _ => v,
        }
    }
}

/// Pass/fail limits for the failure-probability counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McLimits {
    /// A sample fails thermally when its peak temperature exceeds this.
    pub max_peak_temperature: Kelvin,
    /// A sample fails electrically when its net power at the 1 V rail
    /// point (generation minus pumping) falls below this.
    pub min_net_power: Watt,
}

impl Default for McLimits {
    /// 360 K junction limit, net-positive generation.
    fn default() -> Self {
        Self {
            max_peak_temperature: Kelvin::new(360.0),
            min_net_power: Watt::new(0.0),
        }
    }
}

/// A complete Monte Carlo study description.
#[derive(Debug, Clone)]
pub struct McSpec {
    /// The nominal scenario every sample perturbs.
    pub base: Scenario,
    /// Sampled variables (the marginals of the joint distribution).
    pub variables: Vec<McVariable>,
    /// Optional row-major k×k correlation matrix over the variables
    /// (Gaussian copula); `None` = independent.
    pub correlation: Option<Vec<f64>>,
    /// Number of samples.
    pub samples: usize,
    /// RNG seed; the entire study is a pure function of the spec.
    pub seed: u64,
    /// Samples per dispatch chunk. Does not affect the report — only
    /// scheduling granularity and how often workers retarget vs build.
    pub chunk: usize,
    /// The number of chunk workers that serve samples; `None` = the
    /// workspace-wide policy ([`bright_num::parallel::worker_count`],
    /// capped by `BRIGHT_SWEEP_THREADS`). Each worker's PDN stage takes
    /// one more thread when the chunk workers leave a core free (see
    /// [`run`]). Does not affect the report.
    pub workers: Option<usize>,
    /// Pass/fail limits.
    pub limits: McLimits,
}

impl McSpec {
    /// A study over `base` with no variables yet (push into
    /// [`McSpec::variables`]); 1000 samples, seed 2014, chunks of 64.
    #[must_use]
    pub fn new(base: Scenario) -> Self {
        Self {
            base,
            variables: Vec::new(),
            correlation: None,
            samples: 1000,
            seed: 2014,
            chunk: 64,
            workers: None,
            limits: McLimits::default(),
        }
    }

    /// The paper-flavored tolerance study over `base`: ±2.5 % channel
    /// width and height on a 1 µm lithography grid (correlated 0.7 —
    /// one etch step cuts both), ±3 % pump flow, ±2 K inlet, a
    /// triangular contact-ASR spread and ±5 % workload scaling on both
    /// power maps.
    #[must_use]
    pub fn power7_tolerances(base: Scenario) -> Self {
        let w = base.channel_width.value();
        let h = base.channel_height.value();
        let q = base.total_flow.value();
        let t = base.inlet_temperature.value();
        let asr = base.cell_options.contact_asr;
        let variables = vec![
            McVariable::quantized(
                McParameter::ChannelWidth,
                Distribution::normal(w, 0.025 * w),
                1e-6,
            ),
            McVariable::quantized(
                McParameter::ChannelHeight,
                Distribution::normal(h, 0.025 * h),
                1e-6,
            ),
            McVariable::new(McParameter::TotalFlow, Distribution::normal(q, 0.03 * q)),
            McVariable::new(
                McParameter::InletTemperature,
                Distribution::uniform(t - 2.0, t + 2.0),
            ),
            McVariable::new(
                McParameter::ContactAsr,
                if asr > 0.0 {
                    Distribution::triangular(0.5 * asr, asr, 2.0 * asr)
                } else {
                    // No nominal contact resistance: sample an absolute
                    // parasitic spread around the ~0.1 Ω·cm² scale of
                    // microfabricated contacts.
                    Distribution::triangular(0.0, 1e-5, 4e-5)
                },
            ),
            McVariable::new(
                McParameter::ThermalPowerScale,
                Distribution::normal(1.0, 0.05),
            ),
            McVariable::new(McParameter::RailPowerScale, Distribution::normal(1.0, 0.05)),
        ];
        // Identity except width↔height.
        let k = variables.len();
        let mut c = vec![0.0; k * k];
        for j in 0..k {
            c[j * k + j] = 1.0;
        }
        c[1] = 0.7;
        c[k] = 0.7;
        Self {
            correlation: Some(c),
            variables,
            ..Self::new(base)
        }
    }

    /// Validates the spec, including building the sampler once (so all
    /// distribution/correlation errors surface before any solve).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] describing the first violation;
    /// [`CoreError::PdnBandTooLarge`] from the base scenario's
    /// [`Scenario::validate`].
    pub fn validate(&self) -> Result<(), CoreError> {
        self.base.validate()?;
        if self.variables.is_empty() {
            return Err(CoreError::InvalidScenario(
                "Monte Carlo spec has no sampled variables".into(),
            ));
        }
        if self.samples == 0 {
            return Err(CoreError::InvalidScenario("zero samples".into()));
        }
        if self.chunk == 0 {
            return Err(CoreError::InvalidScenario("zero chunk size".into()));
        }
        self.sampler()?;
        Ok(())
    }

    fn sampler(&self) -> Result<CorrelatedSampler, CoreError> {
        let marginals: Vec<Distribution> =
            self.variables.iter().map(|v| v.distribution).collect();
        CorrelatedSampler::new(self.seed, marginals, self.correlation.as_deref())
            .map_err(|e| CoreError::InvalidScenario(e.to_string()))
    }
}

/// Builds the scenario sample `values` describes (one value per spec
/// variable, already drawn). Exposed to tests; the engine applies it
/// per sample.
///
/// # Errors
///
/// [`CoreError::InvalidScenario`] when the sampled values land outside
/// the physical domain (negative width, non-positive scale, …); the
/// engine counts such samples as invalid and excludes them.
pub fn apply_sample(
    base: &Scenario,
    variables: &[McVariable],
    values: &[f64],
) -> Result<Scenario, CoreError> {
    assert_eq!(variables.len(), values.len(), "one value per variable");
    let mut s = base.clone();
    for (var, &raw) in variables.iter().zip(values) {
        let v = var.apply_quantum(raw);
        match var.parameter {
            McParameter::TotalFlow => {
                s.total_flow = bright_units::CubicMetersPerSecond::new(v);
            }
            McParameter::InletTemperature => s.inlet_temperature = Kelvin::new(v),
            McParameter::ChannelWidth => s.channel_width = bright_units::Meters::new(v),
            McParameter::ChannelHeight => s.channel_height = bright_units::Meters::new(v),
            McParameter::ContactAsr => s.cell_options.contact_asr = v,
            McParameter::ThermalPowerScale => {
                if !(v.is_finite() && v > 0.0) {
                    return Err(CoreError::InvalidScenario(format!(
                        "thermal power scale must be positive, got {v}"
                    )));
                }
                s.thermal_load = base.thermal_load.scaled(v);
            }
            McParameter::RailPowerScale => {
                if !(v.is_finite() && v > 0.0) {
                    return Err(CoreError::InvalidScenario(format!(
                        "rail power scale must be positive, got {v}"
                    )));
                }
                s.rail_load = base.rail_load.scaled(v);
            }
        }
    }
    s.validate()?;
    Ok(s)
}

/// Per-sample streaming state: moments of the seven scalar metrics plus
/// per-node moments of the junction temperature map.
#[derive(Debug, Clone)]
struct McState {
    metrics: VecMoments,
    field: VecMoments,
}

impl McState {
    fn single(metrics: &[f64], field: &[f64]) -> Self {
        Self {
            metrics: VecMoments::single(metrics),
            field: VecMoments::single(field),
        }
    }
}

impl Accumulate for McState {
    fn empty() -> Self {
        Self {
            metrics: VecMoments::empty(),
            field: VecMoments::empty(),
        }
    }

    fn merge(&self, other: &Self) -> Self {
        Self {
            metrics: self.metrics.merge(&other.metrics),
            field: self.field.merge(&other.field),
        }
    }

    fn count(&self) -> u64 {
        self.metrics.count()
    }
}

/// Distribution summary of one scalar metric.
#[derive(Debug, Clone, PartialEq)]
pub struct McMetric {
    /// Stable metric name (see the module source for the order).
    pub name: String,
    /// Samples accumulated (evaluated samples only).
    pub count: u64,
    /// Streaming mean.
    pub mean: f64,
    /// Streaming sample standard deviation.
    pub std_dev: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
}

/// Quantile summary of one sketched metric.
#[derive(Debug, Clone, PartialEq)]
pub struct McQuantiles {
    /// 5th / 25th / 50th / 75th / 95th percentiles (NaN when no sample
    /// landed).
    pub p: [f64; 5],
    /// Fraction of samples outside the sketch range (interpolation is
    /// exact-min/max clamped for those, but a large fraction means the
    /// range should be widened).
    pub out_of_range_fraction: f64,
}

/// One failure-probability counter against a limit.
#[derive(Debug, Clone, PartialEq)]
pub struct McFailure {
    /// The limit, in the metric's SI unit.
    pub limit: f64,
    /// Samples violating the limit.
    pub exceedances: u64,
    /// Evaluated samples (the trials).
    pub trials: u64,
    /// Point estimate `exceedances / trials`.
    pub probability: f64,
    /// 95 % Wilson score interval, lower bound.
    pub wilson_low: f64,
    /// 95 % Wilson score interval, upper bound.
    pub wilson_high: f64,
}

fn failure(exceedances: u64, trials: u64, limit: f64) -> McFailure {
    let (lo, hi) = wilson_interval(exceedances, trials, 1.959_963_984_540_054);
    McFailure {
        limit,
        exceedances,
        trials,
        probability: if trials == 0 {
            f64::NAN
        } else {
            exceedances as f64 / trials as f64
        },
        wilson_low: lo,
        wilson_high: hi,
    }
}

/// The deterministic statistical result of a study. For a fixed spec
/// and no fault injection this — including [`McReport::to_json`] — is
/// bitwise identical across chunk sizes and worker counts; volatile
/// operational telemetry lives in [`McStats`] instead.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Samples requested.
    pub samples: u64,
    /// Samples whose solve succeeded and entered the accumulators.
    pub evaluated: u64,
    /// Samples whose drawn values left the physical domain (excluded).
    pub invalid: u64,
    /// Samples whose solve failed or panicked (excluded).
    pub failed: u64,
    /// The study seed.
    pub seed: u64,
    /// Per-metric streaming moments, in a fixed order.
    pub metrics: Vec<McMetric>,
    /// Junction-map grid columns.
    pub field_nx: usize,
    /// Junction-map grid rows.
    pub field_ny: usize,
    /// Per-node mean junction temperature (K), row-major; empty when no
    /// sample was evaluated.
    pub field_mean: Vec<f64>,
    /// Per-node sample standard deviation (K).
    pub field_std: Vec<f64>,
    /// Peak-temperature quantiles.
    pub peak_temperature: McQuantiles,
    /// Net-power quantiles.
    pub net_power: McQuantiles,
    /// Thermal failure probability (peak above the limit).
    pub over_temperature: McFailure,
    /// Electrical failure probability (net power below the limit).
    pub under_power: McFailure,
}

impl McReport {
    /// Serializes the report as JSON. Keys are sorted and numbers use
    /// Rust's shortest-roundtrip formatting, so two bitwise-equal
    /// reports serialize to identical text — the determinism tests
    /// compare this string.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let quantiles = |q: &McQuantiles| {
            Value::object([
                ("p05".into(), Value::Number(q.p[0])),
                ("p25".into(), Value::Number(q.p[1])),
                ("p50".into(), Value::Number(q.p[2])),
                ("p75".into(), Value::Number(q.p[3])),
                ("p95".into(), Value::Number(q.p[4])),
                (
                    "out_of_range_fraction".into(),
                    Value::Number(q.out_of_range_fraction),
                ),
            ])
        };
        let fail = |f: &McFailure| {
            Value::object([
                ("limit".into(), Value::Number(f.limit)),
                ("exceedances".into(), Value::Number(f.exceedances as f64)),
                ("trials".into(), Value::Number(f.trials as f64)),
                ("probability".into(), Value::Number(f.probability)),
                ("wilson_low".into(), Value::Number(f.wilson_low)),
                ("wilson_high".into(), Value::Number(f.wilson_high)),
            ])
        };
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Value::object([
                    ("name".into(), Value::String(m.name.clone())),
                    ("count".into(), Value::Number(m.count as f64)),
                    ("mean".into(), Value::Number(m.mean)),
                    ("std_dev".into(), Value::Number(m.std_dev)),
                    ("min".into(), Value::Number(m.min)),
                    ("max".into(), Value::Number(m.max)),
                ])
            })
            .collect();
        Value::object([
            ("samples".into(), Value::Number(self.samples as f64)),
            ("evaluated".into(), Value::Number(self.evaluated as f64)),
            ("invalid".into(), Value::Number(self.invalid as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("seed".into(), Value::Number(self.seed as f64)),
            ("metrics".into(), Value::Array(metrics)),
            (
                "field".into(),
                Value::object([
                    ("nx".into(), Value::Number(self.field_nx as f64)),
                    ("ny".into(), Value::Number(self.field_ny as f64)),
                    ("mean".into(), Value::from_f64_slice(&self.field_mean)),
                    ("std".into(), Value::from_f64_slice(&self.field_std)),
                ]),
            ),
            ("peak_temperature".into(), quantiles(&self.peak_temperature)),
            ("net_power".into(), quantiles(&self.net_power)),
            ("over_temperature".into(), fail(&self.over_temperature)),
            ("under_power".into(), fail(&self.under_power)),
        ])
    }

    /// Short human-readable synopsis.
    #[must_use]
    pub fn summary(&self) -> String {
        let peak = self.metrics.first();
        format!(
            "{} samples ({} evaluated, {} invalid, {} failed); peak T mean {:.2} K, \
             P(over-temp) = {:.4} [{:.4}, {:.4}], P(net power < limit) = {:.4}",
            self.samples,
            self.evaluated,
            self.invalid,
            self.failed,
            peak.map_or(f64::NAN, |m| m.mean),
            self.over_temperature.probability,
            self.over_temperature.wilson_low,
            self.over_temperature.wilson_high,
            self.under_power.probability,
        )
    }
}

/// Volatile operational telemetry of a study run: counters that depend
/// on scheduling (which worker served what, cache races) and therefore
/// live outside the bitwise-compared [`McReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McStats {
    /// Dispatch chunks.
    pub chunks: u64,
    /// Chunk workers used (a PDN stage's thread is not counted).
    pub workers: u64,
    /// Cold [`CoSimulation`] builds (first sample of each chunk, plus
    /// rebuilds after quarantines).
    pub cold_builds: u64,
    /// Samples served by retargeting a warm worker.
    pub retargets: u64,
    /// Workers dropped after a failed or panicked sample.
    pub quarantines: u64,
    /// Samples that panicked (fault injection).
    pub panicked: u64,
    /// Samples whose solve needed the session recovery ladder but
    /// converged (degraded, still accumulated).
    pub degraded: u64,
    /// Total recovered solves across all sessions.
    pub recovered_solves: u64,
    /// Duct-solve cache hits across all workers.
    pub geometry_cache_hits: u64,
    /// Duct-solve cache misses (each paid one duct solve).
    pub geometry_cache_misses: u64,
    /// Bytes held by the merged accumulator state at the end of the
    /// run (forest partials + sketches) — the streaming-memory gate
    /// asserts this is independent of the sample count up to the
    /// O(log n) forest.
    pub accumulator_state_bytes: u64,
    /// Live forest nodes at the end of the run (≤ log2(samples) + 1).
    pub peak_live_nodes: u64,
}

/// Everything a study run produces.
#[derive(Debug, Clone)]
pub struct McRun {
    /// The deterministic statistical report.
    pub report: McReport,
    /// Scheduling-dependent telemetry.
    pub stats: McStats,
}

/// Sketch range for peak temperature (K).
const PEAK_SKETCH: (f64, f64, usize) = (280.0, 420.0, 2800);
/// Sketch range for net power at 1 V (W).
const NET_SKETCH: (f64, f64, usize) = (-50.0, 150.0, 2000);

struct ChunkOut {
    forest: DyadicForest<McState>,
    peak_sketch: QuantileSketch,
    net_sketch: QuantileSketch,
    over_temp: u64,
    under_power: u64,
    evaluated: u64,
    invalid: u64,
    failed: u64,
    panicked: u64,
    degraded: u64,
    recovered: u64,
    cold_builds: u64,
    retargets: u64,
    quarantines: u64,
}

impl ChunkOut {
    /// Empty accumulators for the chunk whose first sample is `start`.
    fn starting_at(start: u64) -> Self {
        let (lo_p, hi_p, bins_p) = PEAK_SKETCH;
        let (lo_n, hi_n, bins_n) = NET_SKETCH;
        Self {
            forest: DyadicForest::starting_at(start),
            peak_sketch: QuantileSketch::new(lo_p, hi_p, bins_p).expect("static range"),
            net_sketch: QuantileSketch::new(lo_n, hi_n, bins_n).expect("static range"),
            over_temp: 0,
            under_power: 0,
            evaluated: 0,
            invalid: 0,
            failed: 0,
            panicked: 0,
            degraded: 0,
            recovered: 0,
            cold_builds: 0,
            retargets: 0,
            quarantines: 0,
        }
    }
}

/// Runs a Monte Carlo study.
///
/// Samples are dispatched in chunks of [`McSpec::chunk`]; each chunk
/// worker cold-builds one [`CoSimulation`] on its first sample and
/// serves the rest by retargeting, with all workers sharing one
/// [`GeometryCache`] so quantized geometry samples pay for each
/// distinct duct solve once across the whole study. No
/// [`McParameter`] reaches the PDN's grid, resistances, ports or
/// supply, so the study builds the base scenario's [`PowerGrid`] once
/// and every chunk solves its samples' droops against its one factor.
///
/// A chunk worker splits its samples into two stages: the sample
/// stages, and a PDN stage over each lane group of served samples,
/// which runs beside the serving of the next group. The study's first
/// join puts the PDN factor on the calling thread beside the fan-out,
/// so its band lands in that thread's allocator arena, where the next
/// study's factor reuses it. The PDN work gets a thread of its own only
/// when the chunk workers leave a core free, that is when
/// `worker_count(workers + 1) > workers` (see
/// [`bright_num::parallel::worker_count`]): a serial study on a
/// multi-core host overlaps it, a study that fills the cores runs it
/// inline, and so does `BRIGHT_SWEEP_THREADS=1`. The report does not
/// depend on it.
///
/// # Errors
///
/// [`CoreError::InvalidScenario`] for invalid specs; the base
/// scenario's PDN build or factorization errors, since every sample
/// shares that system. Per-sample solve failures do **not** abort the
/// run — they are counted in [`McReport::failed`] and excluded from
/// the accumulators.
///
/// # Panics
///
/// Propagates worker panics that escape the per-sample isolation
/// (indicative of a bug, not a fault-injection event).
pub fn run(spec: &McSpec) -> Result<McRun, CoreError> {
    run_with(spec, None)
}

/// [`run`] with the width of the PDN work's
/// [`bright_num::parallel::join`]s given (1 = inline, 2 = beside), or
/// `None` for the free-core rule.
fn run_with(spec: &McSpec, pdn_workers: Option<usize>) -> Result<McRun, CoreError> {
    spec.validate()?;
    let samples = spec.samples as u64;
    let chunk = spec.chunk as u64;
    let ranges: Vec<(u64, u64)> = (0..samples.div_ceil(chunk))
        .map(|c| (c * chunk, ((c + 1) * chunk).min(samples)))
        .collect();
    let workers = spec
        .workers
        .unwrap_or_else(|| bright_num::parallel::worker_count(ranges.len()));
    let pdn_workers = pdn_workers.unwrap_or_else(|| {
        if bright_num::parallel::worker_count(workers.saturating_add(1)) > workers {
            2
        } else {
            1
        }
    });
    let cache = Arc::new(GeometryCache::new());
    let pdn = pdn_for(&spec.base)?;

    let (factored, outs) = bright_num::parallel::join(
        pdn_workers,
        || pdn.factor_direct(),
        || {
            bright_num::parallel::parallel_map_indexed(&ranges, workers, |_, &(start, end)| {
                run_chunk(spec, start, end, &cache, &pdn, pdn_workers)
            })
        },
    );
    // A factor error is the study's own, whatever droops it failed.
    factored?;

    // Fixed-order reduction: forests append in chunk order (their merge
    // tree then equals the unchunked one); sketches and counters are
    // integer-exact either way.
    let mut forest = DyadicForest::new();
    let (lo_p, hi_p, bins_p) = PEAK_SKETCH;
    let (lo_n, hi_n, bins_n) = NET_SKETCH;
    let mut peak_sketch = QuantileSketch::new(lo_p, hi_p, bins_p)
        .map_err(|e| CoreError::InvalidScenario(e.to_string()))?;
    let mut net_sketch = QuantileSketch::new(lo_n, hi_n, bins_n)
        .map_err(|e| CoreError::InvalidScenario(e.to_string()))?;
    let mut stats = McStats {
        chunks: ranges.len() as u64,
        workers: workers as u64,
        ..McStats::default()
    };
    let (mut over_temp, mut under_power) = (0u64, 0u64);
    let (mut evaluated, mut invalid, mut failed) = (0u64, 0u64, 0u64);
    for out in outs {
        forest.append(out.forest);
        peak_sketch.merge(&out.peak_sketch);
        net_sketch.merge(&out.net_sketch);
        over_temp += out.over_temp;
        under_power += out.under_power;
        evaluated += out.evaluated;
        invalid += out.invalid;
        failed += out.failed;
        stats.panicked += out.panicked;
        stats.degraded += out.degraded;
        stats.recovered_solves += out.recovered;
        stats.cold_builds += out.cold_builds;
        stats.retargets += out.retargets;
        stats.quarantines += out.quarantines;
    }
    stats.geometry_cache_hits = cache.hits();
    stats.geometry_cache_misses = cache.misses();
    stats.peak_live_nodes = forest.live_nodes() as u64;

    let total = forest.finalize();
    let field_len = total.field.width();
    stats.accumulator_state_bytes = (forest.live_nodes()
        * (METRIC_NAMES.len() + field_len) * 4 * std::mem::size_of::<f64>()
        + peak_sketch.state_bytes()
        + net_sketch.state_bytes()) as u64;

    let metric_std = total.metrics.std_dev();
    let metrics = METRIC_NAMES
        .iter()
        .enumerate()
        .map(|(j, name)| McMetric {
            name: (*name).into(),
            count: total.metrics.count(),
            mean: total.metrics.mean.get(j).copied().unwrap_or(f64::NAN),
            std_dev: metric_std.get(j).copied().unwrap_or(f64::NAN),
            min: total.metrics.min.get(j).copied().unwrap_or(f64::NAN),
            max: total.metrics.max.get(j).copied().unwrap_or(f64::NAN),
        })
        .collect();
    let quantiles = |s: &QuantileSketch| McQuantiles {
        p: [0.05, 0.25, 0.50, 0.75, 0.95]
            .map(|q| s.quantile(q).unwrap_or(f64::NAN)),
        out_of_range_fraction: s.out_of_range_fraction(),
    };
    let (field_nx, field_ny) = (spec.base.thermal_columns, spec.base.thermal_ny);
    let report = McReport {
        samples,
        evaluated,
        invalid,
        failed,
        seed: spec.seed,
        metrics,
        field_nx,
        field_ny,
        field_mean: total.field.mean.clone(),
        field_std: total.field.std_dev(),
        peak_temperature: quantiles(&peak_sketch),
        net_power: quantiles(&net_sketch),
        over_temperature: failure(
            over_temp,
            evaluated,
            spec.limits.max_peak_temperature.value(),
        ),
        under_power: failure(under_power, evaluated, spec.limits.min_net_power.value()),
    };
    Ok(McRun { report, stats })
}

/// Serves the sample range `[start, end)` on one worker in two stages.
/// The sample stages (thermal, flow-cell and hydraulic) serve samples
/// until [`LANE_GROUP`] of them are served. The PDN stage rasterizes
/// that group's rail maps and solves their droops in one multi-load
/// direct solve through the study's `pdn` (see [`Pending::droops`]).
/// Group g's PDN stage runs through [`bright_num::parallel::join`] of
/// width `pdn_workers` beside the serving of group g + 1, and after
/// each join group g is accumulated in index order, so the bits do not
/// depend on the width. The first PDN stage waits for the study's
/// factor if `run` is still building it.
fn run_chunk(
    spec: &McSpec,
    start: u64,
    end: u64,
    cache: &Arc<GeometryCache>,
    pdn: &PowerGrid,
    pdn_workers: usize,
) -> ChunkOut {
    let sampler = spec.sampler().expect("spec validated before dispatch");
    let mut out = ChunkOut::starting_at(start);
    let mut sim: Option<CoSimulation> = None;
    let mut recovered_seen = 0u64;
    let mut next = start;
    let mut serve_group = |out: &mut ChunkOut| {
        let mut group = Pending::default();
        let mut served = 0;
        while next < end && served < LANE_GROUP {
            let values = sampler.sample(next);
            next += 1;
            let scenario = match apply_sample(&spec.base, &spec.variables, &values) {
                Ok(s) => s,
                Err(_) => {
                    out.invalid += 1;
                    group.samples.push(None);
                    continue;
                }
            };
            let report = crate::isolate(|| {
                serve_sample(
                    &mut sim,
                    &scenario,
                    cache,
                    &mut out.cold_builds,
                    &mut out.retargets,
                    &mut out.quarantines,
                )
            });
            match report {
                Ok(report) => {
                    let w = sim.as_ref().expect("serve succeeded");
                    if w.recovery_digest().is_some() {
                        out.degraded += 1;
                    }
                    let now = w.thermal_session_stats().recovered_solves;
                    out.recovered += now.saturating_sub(recovered_seen);
                    recovered_seen = now;
                    served += 1;
                    group.samples.push(Some((report, scenario.rail_load)));
                }
                Err(CoreError::WorkerPanic(_)) => {
                    // Worker panic (fault injection): quarantine the sim —
                    // its internal state is suspect mid-solve.
                    sim = None;
                    recovered_seen = 0;
                    out.quarantines += 1;
                    out.panicked += 1;
                    out.failed += 1;
                    group.samples.push(None);
                }
                Err(_) => {
                    // Solve failed even after a cold rebuild: poison only
                    // this sample. `serve_sample` already quarantined.
                    recovered_seen = 0;
                    out.failed += 1;
                    group.samples.push(None);
                }
            }
        }
        group
    };

    let mut in_flight = serve_group(&mut out);
    while !in_flight.samples.is_empty() {
        let (group, droops) = bright_num::parallel::join(
            pdn_workers,
            || serve_group(&mut out),
            || in_flight.droops(&spec.base.floorplan, pdn),
        );
        in_flight.settle(droops, &mut out, &spec.limits);
        in_flight = group;
    }
    out
}

/// One lane group of a chunk's samples: served, but not yet through
/// the PDN stage or accumulated.
#[derive(Default)]
struct Pending {
    /// In index order: each served sample's report, awaiting its droop,
    /// with the rail load to solve it at; or `None` for a sample already
    /// counted invalid or failed.
    samples: Vec<Option<(YieldReport, PowerScenario)>>,
}

impl Pending {
    /// The PDN stage: one droop per served sample, in index order. One
    /// [`PowerGrid::min_voltages_direct`] call rasterizes the group's
    /// rail maps and solves them as the lanes of one sweep, holding one
    /// lane block rather than a rail and a voltage map per sample. It
    /// touches no fault-injection site.
    fn droops(&self, floorplan: &Floorplan, pdn: &PowerGrid) -> Vec<Option<Volt>> {
        let loads: Vec<&PowerScenario> =
            self.samples.iter().flatten().map(|(_, load)| load).collect();
        match pdn.min_voltages_direct(floorplan, &loads) {
            Ok(droops) => droops.into_iter().map(Some).collect(),
            // A bad map fails the whole group: solve one sample at a time
            // so it fails only its own.
            Err(_) => loads
                .iter()
                .map(|load| Some(pdn.min_voltages_direct(floorplan, &[load]).ok()?[0]))
                .collect(),
        }
    }

    /// Accumulates every sample of the group in index order, each served
    /// one with its droop from [`Pending::droops`].
    fn settle(self, droops: Vec<Option<Volt>>, out: &mut ChunkOut, limits: &McLimits) {
        let mut droops = droops.into_iter();
        for sample in self.samples {
            match sample {
                Some((mut report, _)) => {
                    // A droop that failed to rasterize or solve leaves the
                    // NaN, which `accumulate` counts as a failed sample.
                    if let Some(min_voltage) = droops.next().flatten() {
                        report.pdn_min_voltage = min_voltage;
                    }
                    accumulate(out, &report, limits);
                }
                None => out.forest.push(McState::empty()),
            }
        }
    }
}

/// Runs one sample's non-PDN stages on the chunk's worker: retarget
/// when warm, cold build when not (or when the retarget/run fails — one
/// cold retry so a poisoned predecessor cannot fail an otherwise
/// healthy sample).
fn serve_sample(
    sim: &mut Option<CoSimulation>,
    scenario: &Scenario,
    cache: &Arc<GeometryCache>,
    cold_builds: &mut u64,
    retargets: &mut u64,
    quarantines: &mut u64,
) -> Result<YieldReport, CoreError> {
    if let Some(w) = sim.as_mut() {
        let warm = w.retarget(scenario.clone()).and_then(|()| {
            *retargets += 1;
            w.reset_warm_starts();
            w.run_yield_stages()
        });
        match warm {
            Ok(r) => return Ok(r),
            Err(_) => {
                *sim = None;
                *quarantines += 1;
            }
        }
    }
    let mut w = CoSimulation::new(scenario.clone())?;
    w.set_geometry_cache(Arc::clone(cache));
    *cold_builds += 1;
    let r = w.run_yield_stages();
    match r {
        Ok(report) => {
            *sim = Some(w);
            Ok(report)
        }
        Err(e) => {
            *quarantines += 1;
            Err(e)
        }
    }
}

/// Folds one evaluated sample into the chunk accumulators (or counts it
/// failed when a metric is non-finite).
fn accumulate(out: &mut ChunkOut, report: &YieldReport, limits: &McLimits) {
    let peak = report.peak_temperature.value();
    let net = report.net_power_at_1v().value();
    let metrics = [
        peak,
        report.outlet_temperature.value(),
        net,
        report.power_at_1v.value(),
        report.pumping_power.value(),
        report.pdn_min_voltage.value(),
        report.pressure_drop.value(),
    ];
    if !metrics.iter().all(|x| x.is_finite()) {
        out.failed += 1;
        out.forest.push(McState::empty());
        return;
    }
    out.evaluated += 1;
    out.forest
        .push(McState::single(&metrics, report.junction_map.as_slice()));
    out.peak_sketch.record(peak);
    out.net_sketch.record(net);
    if peak > limits.max_peak_temperature.value() {
        out.over_temp += 1;
    }
    if net < limits.min_net_power.value() {
        out.under_power += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(samples: usize) -> McSpec {
        let mut spec = McSpec::power7_tolerances(Scenario::power7_reduced());
        spec.samples = samples;
        spec.chunk = 16;
        spec.workers = Some(1);
        spec
    }

    /// The reduced POWER7+ point on grids coarse enough that one yield
    /// solve costs milliseconds.
    fn coarse_base() -> Scenario {
        let mut s = Scenario::power7_reduced();
        s.thermal_columns = 11;
        s.thermal_ny = 8;
        s.cell_options.ny = 12;
        s.cell_options.nx = 24;
        s.pdn.nx = 24;
        s.pdn.ny = 20;
        s
    }

    #[test]
    fn pdn_stage_beside_the_sample_stages_matches_inline() {
        // The counters that depend only on the samples and the chunking.
        let counters = |s: &McStats| {
            [
                s.chunks,
                s.workers,
                s.cold_builds,
                s.retargets,
                s.quarantines,
                s.panicked,
                s.degraded,
                s.recovered_solves,
                s.geometry_cache_hits + s.geometry_cache_misses,
                s.accumulator_state_bytes,
                s.peak_live_nodes,
            ]
        };
        // Chunk 24 on one worker settles lane groups of 16 and 8, so one
        // group's PDN stage runs beside the next group's serving; chunk 7
        // on two workers settles groups of 7 and 3.
        for (chunk, workers) in [(24, 1), (7, 2)] {
            let mut spec = McSpec::power7_tolerances(coarse_base());
            spec.samples = 24;
            spec.chunk = chunk;
            spec.workers = Some(workers);
            let inline = run_with(&spec, Some(1)).unwrap();
            let beside = run_with(&spec, Some(2)).unwrap();
            assert_eq!(inline.report.evaluated, 24);
            assert_eq!(
                inline.report.to_json().to_json_string_pretty(),
                beside.report.to_json().to_json_string_pretty(),
                "chunk {chunk}, workers {workers}"
            );
            assert_eq!(
                counters(&inline.stats),
                counters(&beside.stats),
                "chunk {chunk}, workers {workers}"
            );
        }
    }

    #[test]
    fn a_rail_map_that_fails_to_rasterize_fails_only_its_own_sample() {
        let base = coarse_base();
        let pdn = pdn_for(&base).unwrap();
        let report = CoSimulation::new(base.clone()).unwrap().run_yield_stages().unwrap();
        // The middle load has no densities, so its map cannot rasterize.
        let loads = [base.rail_load.clone(), PowerScenario::new(), base.rail_load.scaled(1.1)];
        let group = Pending {
            samples: loads.into_iter().map(|load| Some((report.clone(), load))).collect(),
        };
        let droops = group.droops(&base.floorplan, &pdn);
        // `pdn_for` stamps the base rail load: its one-load solve gives
        // the first droop's bits.
        let one_load = pdn.solve_direct().unwrap().min_voltage();
        assert_eq!(droops.len(), 3);
        assert_eq!(droops[0].map(|v| v.value().to_bits()), Some(one_load.value().to_bits()));
        assert!(droops[1].is_none());
        assert!(droops[2].unwrap() < droops[0].unwrap(), "a heavier load droops further");
        let mut out = ChunkOut::starting_at(0);
        group.settle(droops, &mut out, &McLimits::default());
        assert_eq!((out.evaluated, out.failed), (2, 1));
        assert_eq!(out.forest.finalize().count(), 2);
    }

    #[test]
    fn spec_validation_catches_bad_studies() {
        let mut s = tiny_spec(4);
        s.samples = 0;
        assert!(s.validate().is_err());
        let mut s = tiny_spec(4);
        s.chunk = 0;
        assert!(s.validate().is_err());
        let mut s = tiny_spec(4);
        s.variables.clear();
        assert!(s.validate().is_err());
        let mut s = tiny_spec(4);
        // Break the correlation matrix (asymmetric).
        s.correlation.as_mut().unwrap()[1] = 0.9;
        assert!(s.validate().is_err());
        assert!(tiny_spec(4).validate().is_ok());
    }

    #[test]
    fn spec_validation_bounds_the_pdn_band() {
        // The 4x Fig. 8 sheet needs a 490 MB band: refused through the
        // base scenario before `run` factors anything.
        let mut s = tiny_spec(4);
        s.base.pdn.nx *= 4;
        s.base.pdn.ny *= 4;
        assert!(matches!(s.validate(), Err(CoreError::PdnBandTooLarge { nx: 424, ny: 340, .. })));
        assert!(matches!(run(&s), Err(CoreError::PdnBandTooLarge { .. })));
    }

    #[test]
    fn apply_sample_sets_every_parameter() {
        let base = Scenario::power7_reduced();
        let vars = vec![
            McVariable::new(McParameter::TotalFlow, Distribution::normal(1.0, 0.1)),
            McVariable::new(McParameter::InletTemperature, Distribution::normal(1.0, 0.1)),
            McVariable::quantized(
                McParameter::ChannelWidth,
                Distribution::normal(1.0, 0.1),
                1e-6,
            ),
            McVariable::new(McParameter::ChannelHeight, Distribution::normal(1.0, 0.1)),
            McVariable::new(McParameter::ContactAsr, Distribution::normal(1.0, 0.1)),
            McVariable::new(McParameter::ThermalPowerScale, Distribution::normal(1.0, 0.1)),
            McVariable::new(McParameter::RailPowerScale, Distribution::normal(1.0, 0.1)),
        ];
        let values = [2e-6, 305.0, 2.1004e-4, 4.1e-4, 3e-5, 1.1, 0.9];
        let s = apply_sample(&base, &vars, &values).unwrap();
        assert_eq!(s.total_flow.value(), 2e-6);
        assert_eq!(s.inlet_temperature.value(), 305.0);
        // Quantized to the 1 µm grid.
        assert!((s.channel_width.value() - 2.1e-4).abs() < 1e-12);
        assert_eq!(s.channel_height.value(), 4.1e-4);
        assert_eq!(s.cell_options.contact_asr, 3e-5);
        let thermal_scale = s.thermal_load.total_power(&s.floorplan).unwrap().value()
            / base.thermal_load.total_power(&base.floorplan).unwrap().value();
        assert!((thermal_scale - 1.1).abs() < 1e-9);
        let rail_scale = s.rail_load.total_power(&s.floorplan).unwrap().value()
            / base.rail_load.total_power(&base.floorplan).unwrap().value();
        assert!((rail_scale - 0.9).abs() < 1e-9);
    }

    #[test]
    fn no_parameter_reaches_the_pdn_system() {
        // `run` factors the base scenario's PDN once for the whole study,
        // which holds only while no sampled knob moves the PDN
        // parameters, the VRM or the floorplan. A new variant must be
        // given a value here (the match is exhaustive) and listed.
        let value = |p: McParameter| match p {
            McParameter::TotalFlow => 2e-6,
            McParameter::InletTemperature => 305.0,
            McParameter::ChannelWidth => 2.2e-4,
            McParameter::ChannelHeight => 4.1e-4,
            McParameter::ContactAsr => 3e-5,
            McParameter::ThermalPowerScale => 1.1,
            McParameter::RailPowerScale => 0.9,
        };
        let every = [
            McParameter::TotalFlow,
            McParameter::InletTemperature,
            McParameter::ChannelWidth,
            McParameter::ChannelHeight,
            McParameter::ContactAsr,
            McParameter::ThermalPowerScale,
            McParameter::RailPowerScale,
        ];
        let base = Scenario::power7_reduced();
        let var = |p| McVariable::new(p, Distribution::normal(1.0, 0.1));
        let mut samples: Vec<Scenario> = every
            .iter()
            .map(|&p| apply_sample(&base, &[var(p)], &[value(p)]).unwrap())
            .collect();
        let all: Vec<McVariable> = every.iter().map(|&p| var(p)).collect();
        let values: Vec<f64> = every.iter().map(|&p| value(p)).collect();
        samples.push(apply_sample(&base, &all, &values).unwrap());
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.pdn, base.pdn, "sample {k}");
            assert_eq!(s.vrm, base.vrm, "sample {k}");
            assert_eq!(s.floorplan, base.floorplan, "sample {k}");
        }
    }

    #[test]
    fn load_ramps_track_sampled_operating_points() {
        // LoadRamp is *relative* (flow as a scale of the scenario's
        // nominal flow, inlet as a Kelvin offset), so a Monte
        // Carlo-perturbed scenario carries its transient ramps with it:
        // resolving against the sampled scenario sweeps around the
        // sampled operating point, not the base one.
        use crate::transient::LoadRamp;

        let base = Scenario::power7_reduced();
        let vars = vec![
            McVariable::new(McParameter::TotalFlow, Distribution::normal(1.0, 0.1)),
            McVariable::new(McParameter::InletTemperature, Distribution::normal(1.0, 0.1)),
        ];
        let sampled = apply_sample(&base, &vars, &[2e-6, 305.0]).unwrap();
        let ramp = LoadRamp {
            flow_scale_from: 1.0,
            flow_scale_to: 0.25,
            inlet_offset_from_k: 0.0,
            inlet_offset_to_k: 4.0,
        };
        let resolved = ramp.resolve(&sampled);
        assert_eq!(resolved.flow_start.value(), 2e-6);
        assert_eq!(resolved.flow_end.value(), 2e-6 * 0.25);
        assert_eq!(resolved.inlet_start.value(), 305.0);
        assert_eq!(resolved.inlet_end.value(), 309.0);
        // And it still resolves differently against the base — the
        // perturbation really flowed through.
        assert_ne!(
            ramp.resolve(&base).flow_start.value(),
            resolved.flow_start.value()
        );
    }

    #[test]
    fn out_of_domain_samples_are_invalid() {
        let base = Scenario::power7_reduced();
        let vars =
            vec![McVariable::new(McParameter::ChannelWidth, Distribution::normal(1.0, 0.1))];
        assert!(apply_sample(&base, &vars, &[-1e-4]).is_err());
        let vars = vec![McVariable::new(
            McParameter::ThermalPowerScale,
            Distribution::normal(1.0, 0.1),
        )];
        assert!(apply_sample(&base, &vars, &[-0.5]).is_err());
    }

    #[test]
    fn report_json_round_trips_headline_counts() {
        let spec = tiny_spec(4);
        let run = run(&spec).unwrap();
        assert_eq!(run.report.samples, 4);
        assert_eq!(
            run.report.evaluated + run.report.invalid + run.report.failed,
            4
        );
        let json = run.report.to_json();
        let text = json.to_json_string_pretty();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(parsed.get("samples").and_then(Value::as_usize), Some(4));
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(7)
        );
        assert!(run.report.summary().contains("4 samples"));
    }
}
