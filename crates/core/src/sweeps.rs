//! Parameter sweeps for the paper's design-space discussion.
//!
//! The conclusion of the paper describes "an assessment of the power
//! density as function of channel dimensions, flow rate and temperature".
//! These helpers regenerate that assessment (ablation **A1** in
//! DESIGN.md) and back the flow/temperature experiments of Section III-B.
//!
//! Each sweep fans its independent points across the workspace's worker
//! pool ([`bright_num::parallel`]): every point builds its own cell
//! model, results come back in input order, and `BRIGHT_SWEEP_THREADS`
//! caps the worker count.

use crate::CoreError;
use bright_echem::vanadium;
use bright_flowcell::options::{SolverOptions, TemperatureProfile, VelocityModel};
use bright_flowcell::{CellGeometry, CellModel};
use bright_flow::RectChannel;
use bright_num::parallel::{try_parallel_map_indexed, worker_count};
use bright_units::{CubicMetersPerSecond, Kelvin, Meters};

/// One row of a power-density sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDensityRow {
    /// Channel width (µm).
    pub width_um: f64,
    /// Channel height (µm).
    pub height_um: f64,
    /// Per-channel flow (µL/min).
    pub flow_ul_min: f64,
    /// Electrolyte temperature (K).
    pub temperature_k: f64,
    /// Max-power-point areal power density (W/cm² of electrode).
    pub peak_power_density_w_cm2: f64,
    /// Max-power-point voltage (V).
    pub mpp_voltage: f64,
}

fn sweep_options() -> SolverOptions {
    SolverOptions {
        ny: 40,
        nx: 120,
        velocity: VelocityModel::PlanePoiseuille,
        ..SolverOptions::default()
    }
}

/// Evaluates the Table II chemistry in a channel of the given dimensions
/// at one flow/temperature point and returns the max-power-point areal
/// power density.
///
/// # Errors
///
/// Propagates flow-cell construction/solve errors.
pub fn power_density_at(
    width: Meters,
    height: Meters,
    length: Meters,
    flow: CubicMetersPerSecond,
    temperature: Kelvin,
) -> Result<PowerDensityRow, CoreError> {
    let channel = RectChannel::new(width, height, length)
        .map_err(|e| CoreError::Fluidics(e.to_string()))?;
    let model = CellModel::new(
        CellGeometry::new(channel),
        vanadium::power7_cell_chemistry(),
        flow,
        TemperatureProfile::Uniform(temperature),
        sweep_options(),
    )?;
    let curve = model.polarization_curve(14)?;
    let mpp = curve.max_power_point();
    let area_cm2 = model.geometry().electrode_area().to_square_centimeters();
    Ok(PowerDensityRow {
        width_um: width.to_micrometers(),
        height_um: height.to_micrometers(),
        flow_ul_min: flow.to_microliters_per_minute(),
        temperature_k: temperature.value(),
        peak_power_density_w_cm2: mpp.power.value() / area_cm2,
        mpp_voltage: mpp.voltage.value(),
    })
}

/// Sweeps channel widths at fixed mean velocity (flow scaled with the
/// cross-section), height, length and temperature.
///
/// # Errors
///
/// As [`power_density_at`].
pub fn width_sweep(
    widths_um: &[f64],
    height_um: f64,
    mean_velocity: f64,
    temperature: Kelvin,
) -> Result<Vec<PowerDensityRow>, CoreError> {
    try_parallel_map_indexed(widths_um, worker_count(widths_um.len()), |_, &w_um| {
        let width = Meters::from_micrometers(w_um);
        let height = Meters::from_micrometers(height_um);
        let flow = CubicMetersPerSecond::new(mean_velocity * width.value() * height.value());
        power_density_at(
            width,
            height,
            Meters::from_millimeters(22.0),
            flow,
            temperature,
        )
    })
}

/// Sweeps per-channel flow rates at the Table II geometry.
///
/// # Errors
///
/// As [`power_density_at`].
pub fn flow_sweep(
    flows_ul_min: &[f64],
    temperature: Kelvin,
) -> Result<Vec<PowerDensityRow>, CoreError> {
    try_parallel_map_indexed(flows_ul_min, worker_count(flows_ul_min.len()), |_, &f| {
        power_density_at(
            Meters::from_micrometers(200.0),
            Meters::from_micrometers(400.0),
            Meters::from_millimeters(22.0),
            CubicMetersPerSecond::from_microliters_per_minute(f),
            temperature,
        )
    })
}

/// Sweeps electrolyte temperatures at the Table II geometry and nominal
/// per-channel flow.
///
/// # Errors
///
/// As [`power_density_at`].
pub fn temperature_sweep(temperatures_k: &[f64]) -> Result<Vec<PowerDensityRow>, CoreError> {
    let workers = worker_count(temperatures_k.len());
    try_parallel_map_indexed(temperatures_k, workers, |_, &t| {
        power_density_at(
            Meters::from_micrometers(200.0),
            Meters::from_micrometers(400.0),
            Meters::from_millimeters(22.0),
            CubicMetersPerSecond::from_milliliters_per_minute(676.0 / 88.0),
            Kelvin::new(t),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bright_num::parallel::parallel_map_indexed;

    // The sweeps run on `bright_num::parallel`; these check the calls
    // they make: order, completeness and first error in input order.

    #[test]
    fn parallel_map_preserves_order_and_balances() {
        let items: Vec<usize> = (0..57).collect();
        let doubled = parallel_map_indexed(&items, worker_count(items.len()), |i, &x| {
            assert_eq!(i, x);
            2 * x
        });
        assert_eq!(doubled, (0..57).map(|x| 2 * x).collect::<Vec<_>>());
        // Empty input short-circuits.
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map_indexed(&empty, worker_count(0), |_, &x: &usize| x).is_empty());
    }

    #[test]
    fn threaded_path_matches_inline_path() {
        // `worker_count` returns 1 on single-core hosts, so exercise the
        // multi-worker branch explicitly: order, completeness, and
        // equality with the inline result.
        let items: Vec<usize> = (0..101).collect();
        let inline = parallel_map_indexed(&items, 1, |_, &x| x * x);
        for workers in [2, 4, 7] {
            let threaded = parallel_map_indexed(&items, workers, |_, &x| x * x);
            assert_eq!(threaded, inline, "{workers} workers");
        }
        // More workers than items is fine.
        let few: Vec<usize> = (0..3).collect();
        assert_eq!(parallel_map_indexed(&few, 8, |_, &x| x + 1), vec![1, 2, 3]);
    }

    #[test]
    fn try_parallel_map_returns_first_error_in_input_order() {
        let items: Vec<i32> = (0..20).collect();
        let workers = worker_count(items.len());
        let err =
            try_parallel_map_indexed(&items, workers, |_, &x| if x >= 7 { Err(x) } else { Ok(x) });
        assert_eq!(err, Err(7));
        let ok = try_parallel_map_indexed(&items, workers, |_, &x| Ok::<_, ()>(x)).unwrap();
        assert_eq!(ok, items);
    }

    #[test]
    fn power_density_below_state_of_the_art_ceiling() {
        // Section II: all reported flow-cell densities are < 1 W/cm^2;
        // our planar-electrode model should sit well inside that.
        let row = power_density_at(
            Meters::from_micrometers(200.0),
            Meters::from_micrometers(400.0),
            Meters::from_millimeters(22.0),
            CubicMetersPerSecond::from_milliliters_per_minute(676.0 / 88.0),
            Kelvin::new(300.0),
        )
        .unwrap();
        assert!(
            row.peak_power_density_w_cm2 > 0.05 && row.peak_power_density_w_cm2 < 1.0,
            "density {} W/cm^2",
            row.peak_power_density_w_cm2
        );
        assert!(row.mpp_voltage > 0.6 && row.mpp_voltage < 1.5);
    }

    #[test]
    fn more_flow_more_power() {
        let rows = flow_sweep(&[20.0, 200.0], Kelvin::new(300.0)).unwrap();
        assert!(rows[1].peak_power_density_w_cm2 > rows[0].peak_power_density_w_cm2);
    }

    #[test]
    fn warmer_electrolyte_more_power() {
        let rows = temperature_sweep(&[300.0, 315.0]).unwrap();
        assert!(rows[1].peak_power_density_w_cm2 > rows[0].peak_power_density_w_cm2);
    }

    #[test]
    fn narrower_channel_more_power_density() {
        // Thinner diffusion gap -> higher limiting current density.
        let rows = width_sweep(&[400.0, 100.0], 400.0, 1.6, Kelvin::new(300.0)).unwrap();
        assert!(
            rows[1].peak_power_density_w_cm2 > rows[0].peak_power_density_w_cm2,
            "100um {} vs 400um {}",
            rows[1].peak_power_density_w_cm2,
            rows[0].peak_power_density_w_cm2
        );
    }
}
