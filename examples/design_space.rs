//! Design-space exploration: how flow-cell power density responds to
//! channel dimensions, flow rate and temperature (the assessment the
//! paper's conclusion describes), plus the dark-silicon framing — what
//! fraction of the cache demand each design point covers.
//!
//! The polarization ablations (flow and temperature) route through the
//! batched [`ScenarioEngine`] as [`ScenarioRequest::Polarization`]
//! requests: every point shares one cached flow-cell worker whose
//! geometry context (the duct velocity solution) survives the
//! coefficient retargets — no per-point duct solves, mirroring how the
//! coupled flow/inlet ablation below shares one thermal operator.
//!
//! Run with: `cargo run --release --example design_space`

use bright_silicon::core::engine::{PolarizationRequest, ScenarioEngine};
use bright_silicon::core::{sweeps, Scenario};
use bright_silicon::floorplan::power7;
use bright_silicon::flowcell::options::VelocityModel;
use bright_silicon::flowcell::SolverOptions;
use bright_silicon::units::{CubicMetersPerSecond, Kelvin};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plan = power7::floorplan();
    let cache_demand_w = plan.cache_area().to_square_centimeters() * 1.0; // 1 W/cm^2
    let electrode_cm2_per_channel = 0.088; // 22 mm x 400 um side wall
    let channels = 88.0;

    println!("cache demand: {cache_demand_w:.2} W at 1 V\n");
    println!("channel-width sweep at 1.6 m/s (thinner diffusion gap wins):");
    println!("  w (um)   P (W/cm2)   array W   x demand");
    for row in sweeps::width_sweep(
        &[400.0, 300.0, 200.0, 100.0, 75.0],
        400.0,
        1.6,
        Kelvin::new(300.0),
    )? {
        let array_w = row.peak_power_density_w_cm2 * electrode_cm2_per_channel * channels;
        println!(
            "  {:>6.0}   {:>9.3}   {:>7.2}   {:>7.2}",
            row.width_um,
            row.peak_power_density_w_cm2,
            array_w,
            array_w / cache_demand_w
        );
    }

    // One engine serves every ablation below: the polarization batches
    // share a cached flow-cell worker, the coupled batch a cached
    // thermal/PDN worker.
    let mut engine = ScenarioEngine::new();
    let sweep_request = |f: &dyn Fn(&mut Scenario)| {
        let mut s = Scenario::power7_nominal();
        s.cell_options = SolverOptions {
            ny: 40,
            nx: 120,
            velocity: VelocityModel::PlanePoiseuille,
            ..SolverOptions::default()
        };
        f(&mut s);
        PolarizationRequest {
            scenario: s,
            points: 14,
        }
    };

    println!("\nflow sweep at the Table II geometry (engine-batched):");
    println!("  Q (uL/min)   P (W/cm2)   array W   x demand");
    let flows = [400.0, 1600.0, 7681.8, 30000.0];
    let reports = engine.run_polarization_batch(flows.iter().map(|&ul_min| {
        sweep_request(&move |s: &mut Scenario| {
            s.total_flow =
                CubicMetersPerSecond::from_microliters_per_minute(ul_min * s.channel_count as f64);
        })
    }));
    for (&ul_min, report) in flows.iter().zip(reports) {
        let outcome = report.result?;
        let array_w = outcome.max_power.power.value();
        println!(
            "  {:>10.0}   {:>9.3}   {:>7.2}   {:>7.2}",
            ul_min,
            array_w / (electrode_cm2_per_channel * channels),
            array_w,
            array_w / cache_demand_w
        );
    }

    println!("\ntemperature sweep (the 'hot chips help' effect, engine-batched):");
    println!("  T (degC)   P (W/cm2)   array W   x demand");
    let temps_k = [290.0, 300.0, 310.0, 320.0, 330.0];
    let reports = engine.run_polarization_batch(temps_k.iter().map(|&t| {
        sweep_request(&move |s: &mut Scenario| {
            s.inlet_temperature = Kelvin::new(t);
        })
    }));
    for (&t, report) in temps_k.iter().zip(reports) {
        let outcome = report.result?;
        let array_w = outcome.max_power.power.value();
        println!(
            "  {:>8.1}   {:>9.3}   {:>7.2}   {:>7.2}",
            t - 273.15,
            array_w / (electrode_cm2_per_channel * channels),
            array_w,
            array_w / cache_demand_w
        );
    }
    let stats = engine.stats();
    println!(
        "  engine: {} polarization requests, {} cell context build(s), {} reuse(s)",
        stats.polarization_requests, stats.cell_contexts_built, stats.cell_context_reuses
    );

    println!(
        "\nreading: every design point covers the cache rail several times \
         over, but remains 10-50x short of the full-chip demand — exactly \
         the gap the paper's outlook describes."
    );

    // Coupled flow-rate / inlet-temperature ablation through the same
    // engine: one thermal operator assembly serves every point below
    // (coefficients are refreshed in place between requests).
    let mut points: Vec<Scenario> = Vec::new();
    for ml_min in [676.0, 400.0, 200.0, 100.0, 48.0] {
        let mut s = Scenario::power7_reduced();
        s.total_flow = CubicMetersPerSecond::from_milliliters_per_minute(ml_min);
        points.push(s);
    }
    for inlet_c in [32.0, 37.0] {
        let mut s = Scenario::power7_reduced();
        s.inlet_temperature = Kelvin::new(273.15 + inlet_c);
        points.push(s);
    }
    let reports = engine.run_batch(points.iter().cloned());
    println!("\ncoupled flow/inlet ablation (batched engine, reduced grid):");
    println!("  Q (ml/min)   T_in (degC)   peak (degC)   boost (%)");
    for (scenario, report) in points.iter().zip(reports) {
        let r = report.result?;
        println!(
            "  {:>10.0}   {:>11.1}   {:>11.1}   {:>9.2}",
            scenario.total_flow.to_milliliters_per_minute(),
            scenario.inlet_temperature.to_celsius().value(),
            r.peak_temperature.to_celsius().value(),
            r.thermal_boost_percent,
        );
    }
    let stats = engine.stats();
    println!(
        "  engine: {} steady requests, {} operator build(s), {} reuse(s)",
        stats.requests, stats.operators_built, stats.operator_reuses
    );
    Ok(())
}
