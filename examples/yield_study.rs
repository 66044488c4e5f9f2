//! Monte Carlo yield study: how manufacturing and operating tolerances
//! spread the integrated design's headline metrics, and how often the
//! paper's operating point violates its thermal and net-power limits.
//!
//! Samples channel geometry (on a 1 µm lithography grid, width and
//! height correlated — one etch step cuts both), pump flow, inlet
//! temperature, contact ASR and workload scaling around the Table II
//! nominal point; every sample rides the co-simulation's retarget
//! mutators through a pool of warm workers, and the statistics stream
//! through mergeable constant-memory accumulators — the whole study
//! never stores per-sample results.
//!
//! Run with: `cargo run --release --example yield_study`

use bright_silicon::core::montecarlo::{self, McSpec};
use bright_silicon::core::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The reduced-resolution nominal point (same physics, ~30x less
    // work per sample), coarsened a step further so the 2048-sample
    // study finishes in seconds.
    let mut base = Scenario::power7_reduced();
    base.thermal_columns = 11;
    base.thermal_ny = 11;
    base.cell_options.ny = 12;
    base.cell_options.nx = 30;
    base.pdn.nx = 32;
    base.pdn.ny = 26;

    let mut spec = McSpec::power7_tolerances(base);
    spec.samples = 2048;
    spec.seed = 2014;
    spec.chunk = 64;

    println!("Monte Carlo yield study: {} samples, seed {}", spec.samples, spec.seed);
    println!("sampled variables:");
    for v in &spec.variables {
        println!(
            "  {:<20} {:?}{}",
            v.parameter.name(),
            v.distribution,
            v.quantum.map_or(String::new(), |q| format!("  (quantum {q:.1e})")),
        );
    }

    let run = montecarlo::run(&spec)?;
    let (report, stats) = (&run.report, &run.stats);

    println!("\n{}", report.summary());
    println!("\nmetric distributions:");
    println!("  {:<22} {:>10} {:>10} {:>10} {:>10}", "metric", "mean", "std", "min", "max");
    for m in &report.metrics {
        println!(
            "  {:<22} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            m.name, m.mean, m.std_dev, m.min, m.max
        );
    }

    println!("\npeak-temperature quantiles (K):");
    for (name, v) in ["p05", "p25", "p50", "p75", "p95"].iter().zip(report.peak_temperature.p) {
        println!("  {name}: {v:.3}");
    }
    println!("net-power quantiles (W):");
    for (name, v) in ["p05", "p25", "p50", "p75", "p95"].iter().zip(report.net_power.p) {
        println!("  {name}: {v:.3}");
    }

    println!("\nfailure probabilities (95% Wilson intervals):");
    println!(
        "  P(peak T > {:.1} K)  = {:.4}  [{:.4}, {:.4}]",
        report.over_temperature.limit,
        report.over_temperature.probability,
        report.over_temperature.wilson_low,
        report.over_temperature.wilson_high,
    );
    println!(
        "  P(net power < {:.1} W) = {:.4}  [{:.4}, {:.4}]",
        report.under_power.limit,
        report.under_power.probability,
        report.under_power.wilson_low,
        report.under_power.wilson_high,
    );

    // The per-node field statistics come from the same streaming pass:
    // locate the hottest mean junction cell and how much it wobbles.
    if let Some((i, t)) = report
        .field_mean
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
    {
        println!(
            "\nhottest mean junction cell: ({}, {}) at {:.2} K (sigma {:.3} K)",
            i % report.field_nx,
            i / report.field_nx,
            t,
            report.field_std[i],
        );
    }

    println!(
        "\nengine: {} cold builds, {} retargets, {} quarantines across {} chunks on {} workers",
        stats.cold_builds, stats.retargets, stats.quarantines, stats.chunks, stats.workers,
    );
    // Every lookup counts one hit or one miss, so the total is fixed by
    // the sample set; the split is not (two workers that race to fill
    // one key both count a miss).
    println!(
        "geometry cache: {} lookups",
        stats.geometry_cache_hits + stats.geometry_cache_misses,
    );
    println!(
        "streaming state: {} live forest nodes, {} accumulator bytes for {} samples",
        stats.peak_live_nodes, stats.accumulator_state_bytes, spec.samples,
    );

    // The O(1)-memory claim, enforced: the accumulator never holds more
    // than ~log2(n) partial states no matter how many samples streamed
    // through (2048 leaves reduce to a handful of live nodes).
    assert!(
        stats.peak_live_nodes <= 12,
        "streaming reduction must stay logarithmic, got {} live nodes",
        stats.peak_live_nodes
    );
    assert_eq!(
        report.evaluated + report.invalid + report.failed,
        spec.samples as u64,
        "every sample must be accounted for",
    );
    Ok(())
}
