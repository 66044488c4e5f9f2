//! Integration tests for the Monte Carlo uncertainty engine: the
//! determinism contract (bitwise-identical reports across chunk sizes
//! and worker counts), seed divergence, fault-tolerant batches and the
//! shared geometry cache.
//!
//! The reference digest was recorded once and is not edited, with three
//! exceptions: the PDN stage's batching onto one study-wide factor, the
//! grouping of like flow-cell columns, and MILU(0) preconditioning of
//! the fluid-cooled thermal solve (see [`REFERENCE_DIGEST`]).

use bright_core::montecarlo::{self, McParameter, McSpec, McVariable};
use bright_core::Scenario;
use bright_jsonio::checksummed::fnv1a64;
use bright_jsonio::Value;
use bright_num::faults::FaultPlan;
use bright_num::rng::Distribution;

/// A deliberately coarse scenario so one yield solve costs
/// milliseconds: the determinism tests below run hundreds of them.
fn tiny_scenario() -> Scenario {
    let mut s = Scenario::power7_reduced();
    s.thermal_columns = 11;
    s.thermal_ny = 8;
    s.cell_options.ny = 12;
    s.cell_options.nx = 24;
    s.pdn.nx = 24;
    s.pdn.ny = 20;
    s
}

fn tiny_spec(samples: usize) -> McSpec {
    let mut spec = McSpec::power7_tolerances(tiny_scenario());
    spec.samples = samples;
    spec
}

/// Digest and length of `tiny_spec(24)`'s pretty-printed `McReport`
/// JSON, recorded before the Monte Carlo PDN stage was batched onto one
/// study-wide factor: any change to the report's bits fails here.
///
/// Re-recorded once since, its second deliberate exception: when
/// adjacent thermal columns whose fluid profiles agree within 0.25 K
/// began to march once, at their mean profile, the two metrics fed by
/// the array's current (`net_power_at_1v_w`, `power_at_1v_w`) moved:
/// their means and extremes by at most 4.1e-7 relative, their standard
/// deviations by at most 1.7e-6.
/// [`REFERENCE_DIGEST_WITHOUT_CELLS`], recorded before that change,
/// still holds.
///
/// Re-recorded once more, its third deliberate exception, with
/// [`REFERENCE_DIGEST_WITHOUT_CELLS`]: when fluid-cooled stacks switched
/// their thermal solve from SSOR to MILU(0) preconditioning, every
/// statistic the thermal solution feeds moved (both solves stop at the
/// same 1e-10 relative residual from different iterates).
/// [`REFERENCE_DIGEST_WITHOUT_THERMAL`], recorded before that change,
/// still holds.
const REFERENCE_DIGEST: (u64, usize) = (12_113_954_909_405_685_993, 6897);

#[test]
fn report_is_bitwise_identical_across_chunking_and_workers() {
    let mut reference: Option<String> = None;
    // Chunk 24 at 2 workers serves its samples in lane groups of 16 + 8,
    // chunk 7 in one group of 7 and chunk 1 in groups of one.
    for (chunk, workers) in [(24, 1), (1, 1), (7, 1), (24, 2), (24, 4), (5, 4)] {
        let mut spec = tiny_spec(24);
        spec.chunk = chunk;
        spec.workers = Some(workers);
        let run = montecarlo::run(&spec).unwrap();
        assert_eq!(run.report.samples, 24);
        assert_eq!(run.report.evaluated, 24, "all tiny samples solve");
        let json = run.report.to_json().to_json_string_pretty();
        match &reference {
            None => {
                assert_eq!(
                    (fnv1a64(json.as_bytes()), json.len()),
                    REFERENCE_DIGEST,
                    "McReport JSON moved from its recorded bits"
                );
                reference = Some(json);
            }
            Some(r) => assert_eq!(
                r, &json,
                "McReport must be bitwise stable (chunk {chunk}, workers {workers})"
            ),
        }
    }
}

/// The `McReport` entries the flow-cell array's current feeds: two
/// metrics, the net-power quantiles and the under-power failure.
const CELL_METRICS: [&str; 2] = ["net_power_at_1v_w", "power_at_1v_w"];
const CELL_ENTRIES: [&str; 2] = ["net_power", "under_power"];

/// Digest and length of `tiny_spec(24)`'s pretty-printed `McReport`
/// JSON without [`CELL_METRICS`] and [`CELL_ENTRIES`]: every thermal,
/// PDN and hydraulic statistic of the study. Re-recorded once, with
/// [`REFERENCE_DIGEST`], for MILU(0).
const REFERENCE_DIGEST_WITHOUT_CELLS: (u64, usize) = (5_304_788_132_752_129_785, 6094);

#[test]
fn report_keeps_its_bits_outside_the_cell_entries() {
    let run = montecarlo::run(&tiny_spec(24)).unwrap();
    let mut json = run.report.to_json();
    let Value::Object(fields) = &mut json else {
        panic!("a report serializes to an object");
    };
    for key in CELL_ENTRIES {
        assert!(fields.remove(key).is_some(), "report lacks `{key}`");
    }
    let Some(Value::Array(metrics)) = fields.get_mut("metrics") else {
        panic!("report lacks its metrics");
    };
    let before = metrics.len();
    metrics.retain(|m| {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .expect("a metric names itself");
        !CELL_METRICS.contains(&name)
    });
    assert_eq!(metrics.len(), before - CELL_METRICS.len());
    let json = json.to_json_string_pretty();
    assert_eq!(
        (fnv1a64(json.as_bytes()), json.len()),
        REFERENCE_DIGEST_WITHOUT_CELLS,
        "McReport JSON moved outside the cell entries"
    );
}

/// The `McReport` metrics the thermal solve cannot feed: the
/// hydraulics, at each sample's inlet temperature, and the PDN droop.
const THERMAL_FREE_METRICS: [&str; 3] =
    ["pumping_power_w", "pdn_min_voltage_v", "pressure_drop_pa"];
const SAMPLE_COUNTS: [&str; 4] = ["samples", "evaluated", "invalid", "failed"];

/// Digest and length of `tiny_spec(24)`'s pretty-printed `McReport`
/// JSON keeping only [`SAMPLE_COUNTS`] and the [`THERMAL_FREE_METRICS`].
const REFERENCE_DIGEST_WITHOUT_THERMAL: (u64, usize) = (1_827_172_053_041_794_020, 705);

#[test]
fn report_keeps_its_bits_outside_the_thermal_entries() {
    let run = montecarlo::run(&tiny_spec(24)).unwrap();
    let mut json = run.report.to_json();
    let Value::Object(fields) = &mut json else {
        panic!("a report serializes to an object");
    };
    let Some(Value::Array(mut metrics)) = fields.remove("metrics") else {
        panic!("report lacks its metrics");
    };
    metrics.retain(|m| {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .expect("a metric names itself");
        THERMAL_FREE_METRICS.contains(&name)
    });
    assert_eq!(metrics.len(), THERMAL_FREE_METRICS.len());
    for key in SAMPLE_COUNTS {
        assert!(fields.contains_key(key), "report lacks `{key}`");
    }
    fields.retain(|key, _| SAMPLE_COUNTS.contains(&key.as_str()));
    fields.insert("metrics".into(), Value::Array(metrics));
    let json = json.to_json_string_pretty();
    assert_eq!(
        (fnv1a64(json.as_bytes()), json.len()),
        REFERENCE_DIGEST_WITHOUT_THERMAL,
        "McReport JSON moved outside the thermal entries"
    );
}

#[test]
fn different_seeds_diverge() {
    let mut a = tiny_spec(12);
    a.seed = 1;
    let mut b = tiny_spec(12);
    b.seed = 2;
    let ra = montecarlo::run(&a).unwrap().report;
    let rb = montecarlo::run(&b).unwrap().report;
    assert_ne!(
        ra.to_json().to_json_string(),
        rb.to_json().to_json_string(),
        "distinct seeds must explore distinct samples"
    );
    // And the physics actually moved: the sampled peak temperatures are
    // not the same sequence.
    assert!((ra.metrics[0].mean - rb.metrics[0].mean).abs() > 0.0);
}

#[test]
fn accumulator_memory_is_logarithmic_in_samples() {
    let small = montecarlo::run(&tiny_spec(8)).unwrap().stats;
    let large = montecarlo::run(&tiny_spec(64)).unwrap().stats;
    // The forest holds at most popcount(n) live partials and the
    // sketches are fixed-size: 8× the samples must not grow the state
    // beyond the log-term slack.
    assert!(small.peak_live_nodes <= 4, "{small:?}");
    assert!(large.peak_live_nodes <= 7, "{large:?}");
    let per_node = |s: &bright_core::McStats| {
        s.accumulator_state_bytes / s.peak_live_nodes.max(1)
    };
    assert!(
        per_node(&large) <= 2 * per_node(&small),
        "per-node state must not scale with samples: {small:?} vs {large:?}"
    );
    // The study never stores per-sample results: the whole footprint
    // stays within 2× while the sample count grows 8×.
    assert!(
        large.accumulator_state_bytes <= 2 * small.accumulator_state_bytes,
        "total state must not scale with samples: {small:?} vs {large:?}"
    );
}

#[test]
fn invalid_samples_are_excluded_not_fatal() {
    let mut spec = tiny_spec(16);
    // A power scale straddling zero: a fair share of draws are
    // non-physical and must be skipped without aborting the study.
    spec.variables = vec![McVariable::new(
        McParameter::ThermalPowerScale,
        Distribution::normal(0.3, 0.6),
    )];
    spec.correlation = None;
    let run = montecarlo::run(&spec).unwrap();
    assert!(run.report.invalid > 0, "{:?}", run.report);
    assert!(run.report.evaluated > 0, "{:?}", run.report);
    assert_eq!(
        run.report.evaluated + run.report.invalid + run.report.failed,
        16
    );
    // Excluded samples never enter the accumulators.
    assert_eq!(run.report.metrics[0].count, run.report.evaluated);
    assert_eq!(run.report.over_temperature.trials, run.report.evaluated);
}

#[test]
fn coarse_geometry_quanta_share_duct_solves() {
    let mut spec = tiny_spec(24);
    spec.chunk = 24;
    spec.workers = Some(1);
    // Snap geometry to a 20 µm grid: the ±5/10 µm spreads then land on
    // a handful of distinct fingerprints, so the shared cache must
    // serve most samples without a new duct solve.
    for v in &mut spec.variables {
        if matches!(
            v.parameter,
            McParameter::ChannelWidth | McParameter::ChannelHeight
        ) {
            v.quantum = Some(2e-5);
        }
    }
    let run = montecarlo::run(&spec).unwrap();
    assert_eq!(run.report.evaluated, 24);
    let stats = &run.stats;
    assert!(
        stats.geometry_cache_hits > 0,
        "quantized geometry must revisit cached duct solves: {stats:?}"
    );
    assert!(
        stats.geometry_cache_misses < 24,
        "24 samples on a coarse grid cannot all be distinct: {stats:?}"
    );
    assert_eq!(stats.retargets + stats.cold_builds, 24, "{stats:?}");
}

#[test]
fn seeded_faults_poison_samples_not_the_batch() {
    bright_num::faults::reset_counters();
    let mut spec = tiny_spec(24);
    spec.chunk = 6;
    spec.workers = Some(2);
    let plan = FaultPlan {
        seed: 2014,
        nan: 3,
        breakdown: 5,
        panic: 4,
        ..FaultPlan::default()
    };
    let run = bright_num::faults::with_plan(Some(plan), || montecarlo::run(&spec)).unwrap();
    let (report, stats) = (&run.report, &run.stats);
    // The batch completed and every sample is accounted for exactly
    // once.
    assert_eq!(
        report.evaluated + report.invalid + report.failed,
        24,
        "{report:?}"
    );
    // Scripted worker panics fired and were absorbed as failed samples,
    // each quarantining its worker.
    assert!(stats.panicked > 0, "{stats:?}");
    assert!(report.failed >= stats.panicked, "{report:?} vs {stats:?}");
    assert!(stats.quarantines >= stats.panicked, "{stats:?}");
    // The NaN/breakdown sites exercised the session recovery ladder on
    // samples that still converged (degraded, not lost).
    assert!(
        stats.recovered_solves > 0 || stats.degraded > 0,
        "injected solver faults should surface in the recovery telemetry: {stats:?}"
    );
    // Poisoned samples are excluded from every accumulator.
    assert_eq!(report.metrics[0].count, report.evaluated);
    assert_eq!(report.over_temperature.trials, report.evaluated);
    assert_eq!(report.under_power.trials, report.evaluated);
    // The survivors still produced healthy statistics.
    assert!(report.evaluated > 0);
    assert!(report.metrics[0].mean.is_finite());
}
