//! Transient thermal response to a pump-throttling event: the chip runs
//! at full load while the electrolyte flow is ramped from 676 down to
//! 48 ml/min, and the die temperature is tracked through the transition
//! (the dynamic side of the paper's Section III-B flow-throttling
//! experiment). The throttle is modelled as a *coefficient ramp* riding
//! a single thermal model — the operator is re-stamped in place each
//! step (an O(nnz) value refresh, never a re-assembly) while the
//! TR-BDF2 controller picks the step size: small through the fast part
//! of the spin-down, stretching as the field settles. A mid-ramp
//! checkpoint/restore round trip closes the loop.
//!
//! Run with: `cargo run --release --example transient_throttle`

use bright_silicon::floorplan::{power7, PowerScenario};
use bright_silicon::thermal::presets;
use bright_silicon::thermal::transient::{
    AdaptiveConfig, Checkpoint, CoefficientRamp, PowerTrace, SteppingMode, TraceSegment,
    TransientSimulation,
};
use bright_silicon::units::{Celsius, CubicMetersPerSecond, Kelvin};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plan = power7::floorplan();

    // Phase 1: steady state at the nominal 676 ml/min.
    let nominal = presets::power7_stack()?;
    let power = PowerScenario::full_load().rasterize(&plan, nominal.grid())?;
    let steady = nominal.solve_steady(&power)?;
    println!(
        "phase 1 (676 ml/min): steady peak {:.1}",
        steady.max_temperature().to_celsius()
    );

    // Phase 2: spin the pump down to 48 ml/min over 150 ms, then hold.
    // One model carries the whole trace; the ramp re-stamps its
    // convection coefficients in place as the flow falls.
    let (nominal_flow, inlet) = nominal.operating_point().expect("liquid-cooled preset");
    let throttled_flow = CubicMetersPerSecond::from_milliliters_per_minute(48.0);
    let spin_down = CoefficientRamp {
        flow_start: nominal_flow,
        flow_end: throttled_flow,
        inlet_start: inlet,
        inlet_end: inlet,
    };
    let hold = CoefficientRamp {
        flow_start: throttled_flow,
        flow_end: throttled_flow,
        inlet_start: inlet,
        inlet_end: inlet,
    };
    let trace = PowerTrace::new(vec![
        TraceSegment::constant(0.15, power.clone()).with_ramp(spin_down),
        TraceSegment::constant(0.45, power.clone()).with_ramp(hold),
    ])?;
    let cfg = AdaptiveConfig {
        abs_tol: 0.05,
        dt_init: 2e-3,
        dt_min: 5e-4,
        dt_max: 0.1,
        ..AdaptiveConfig::default()
    };
    let mut sim = TransientSimulation::new(
        nominal.clone(),
        trace.clone(),
        steady.max_temperature().value(), // warm start at the phase-1 level
        SteppingMode::Adaptive(cfg),
    )?;
    println!("\nphase 2 (676 -> 48 ml/min over 150 ms): TR-BDF2 through the ramp");
    println!("   t (ms)   dt (ms)   peak (degC)   local err");
    let mut checkpoint: Option<Checkpoint> = None;
    while !sim.finished() {
        let step = sim.step()?;
        println!(
            "   {:>6.1}   {:>7.2}   {:>11.2}   {:>9.2e}",
            step.time * 1e3,
            step.dt * 1e3,
            Celsius::from(Kelvin::new(step.peak)).value(),
            step.error,
        );
        // Grab a checkpoint mid-ramp, while the coefficients are still
        // in flight.
        if checkpoint.is_none() && step.time > 0.05 {
            checkpoint = Some(sim.save_checkpoint());
        }
    }
    let stats = sim.stats();
    let final_peak = sim.peak();
    println!(
        "\nadaptive: {} accepted steps ({} rejected), {} solves for {:.0} ms of trace",
        stats.accepted,
        stats.rejected,
        stats.solves,
        sim.time() * 1e3
    );
    assert_eq!(
        sim.model().assembly_count(),
        1,
        "ramps must ride value refreshes, never re-assembly"
    );
    println!(
        "ramp cost:  {} coefficient re-stamps, {} operator assembly (the one at construction)",
        sim.coefficient_refreshes(),
        sim.model().assembly_count()
    );

    // Fixed-dt stepping integrates the same ramped trace, but needs its
    // step sized for the *fastest* part of the transient everywhere:
    let mut fixed = TransientSimulation::new(
        nominal,
        trace.clone(),
        steady.max_temperature().value(),
        SteppingMode::Fixed { dt: 2e-3 },
    )?;
    fixed.run_to_end()?;
    let fixed_stats = fixed.stats();
    println!(
        "fixed 2 ms:  {} steps ({} solves) for the same trace -> {:.1}x more solves",
        fixed_stats.accepted,
        fixed_stats.solves,
        fixed_stats.solves as f64 / stats.solves as f64
    );

    // Checkpoint round trip: restore the mid-ramp snapshot (via its
    // JSON form) into a fresh model and integrate the remainder again —
    // bit-identical end state, coefficients re-synced to where the ramp
    // stood.
    let cp = Checkpoint::from_json_str(&checkpoint.expect("saved mid-ramp").to_json_string())?;
    let resume_from = cp.time;
    let mut resumed = TransientSimulation::new(
        presets::power7_stack()?,
        trace,
        steady.max_temperature().value(),
        SteppingMode::Adaptive(cfg),
    )?;
    resumed.restore_checkpoint(&cp)?;
    resumed.run_to_end()?;
    assert_eq!(
        resumed.temperatures(),
        sim.temperatures(),
        "restored run must continue bitwise-identically"
    );
    println!(
        "checkpoint:  restored mid-ramp at t = {:.0} ms and re-integrated to the same field, bit for bit",
        resume_from * 1e3
    );

    println!(
        "\nafter {:.0} ms the die settles near {:.1} — still well below \
         silicon limits, and (Section III-B) the hotter electrolyte now \
         generates ~20% more electrical power.",
        sim.time() * 1e3,
        Celsius::from(Kelvin::new(final_peak)).value()
    );
    Ok(())
}
