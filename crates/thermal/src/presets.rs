//! The POWER7+ stack of the paper's case study.

use crate::stack::{LayerSpec, MicrochannelSpec, StackConfig};
use crate::{Material, ThermalError, ThermalModel};
use bright_flow::fluid::TemperatureDependentFluid;
use bright_units::{CubicMetersPerSecond, Kelvin, Meters};

/// Default channel count (= grid columns), one per Table II channel.
pub const POWER7_NX: usize = 88;

/// Default grid rows along the channels.
pub const POWER7_NY: usize = 44;

/// Builds the POWER7+ stack at the Table II operating point:
/// 88 channels (200 µm × 400 µm) at 300 µm pitch, 676 ml/min total,
/// 27 °C (300 K) inlet, flip-chip die with channels etched on top
/// (Fig. 1/Fig. 5 of the paper).
///
/// # Errors
///
/// Returns [`ThermalError`] variants if construction fails (cannot happen
/// for the encoded constants).
pub fn power7_stack() -> Result<ThermalModel, ThermalError> {
    power7_stack_at(
        CubicMetersPerSecond::from_milliliters_per_minute(676.0),
        Kelvin::new(300.0),
    )
}

/// POWER7+ stack with explicit total flow and inlet temperature — used by
/// the paper's Section III-B throttling experiments (48 ml/min, 37 °C
/// inlet).
///
/// # Errors
///
/// Returns [`ThermalError::InvalidConfig`] for non-physical flow or inlet
/// temperature.
pub fn power7_stack_at(
    total_flow: CubicMetersPerSecond,
    inlet: Kelvin,
) -> Result<ThermalModel, ThermalError> {
    let fluid = TemperatureDependentFluid::vanadium_electrolyte()
        .at(inlet)
        .map_err(|e| ThermalError::InvalidConfig(e.to_string()))?;
    ThermalModel::new(StackConfig {
        width: Meters::from_millimeters(26.55),
        height: Meters::from_millimeters(21.34),
        nx: POWER7_NX,
        ny: POWER7_NY,
        layers: vec![
            LayerSpec::Solid {
                name: "die".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(400.0),
                sublayers: 2,
            },
            LayerSpec::Microchannel {
                name: "flow-cell channels".into(),
                spec: MicrochannelSpec {
                    channel_width: Meters::from_micrometers(200.0),
                    channel_height: Meters::from_micrometers(400.0),
                    channels_per_cell: 1,
                    fluid,
                    total_flow,
                    inlet_temperature: inlet,
                    wall_material: Material::silicon(),
                },
            },
            LayerSpec::Solid {
                name: "cap".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(300.0),
                sublayers: 1,
            },
        ],
        top_cooling: None,
    })
}

/// POWER7+ stack with the plane resolution multiplied by `scale` in
/// both directions (`scale = 1` is [`power7_stack`]): the physical die
/// and operating point are unchanged; the microchannel array is
/// refined with the grid (one channel per column at `scale`× finer
/// pitch, width shrunk proportionally) so the per-cell geometry stays
/// valid. `scale = 8` puts the 4-level stack at
/// `704 × 352 × 4 ≈ 991k` unknowns, exercising the large-grid path.
/// The fluid layer keeps the session on MILU(0) at every
/// size (see [`ThermalModel::solve_options`]); the geometric-multigrid
/// regime is reached by the conduction-only
/// [`conduction_stack_scaled`].
///
/// # Errors
///
/// Returns [`ThermalError::InvalidConfig`] for `scale = 0` (and
/// construction errors as in [`power7_stack`], which cannot happen for
/// the encoded constants).
pub fn power7_stack_scaled(scale: usize) -> Result<ThermalModel, ThermalError> {
    if scale == 0 {
        return Err(ThermalError::InvalidConfig(
            "preset scale must be at least 1".into(),
        ));
    }
    let inlet = Kelvin::new(300.0);
    let total_flow = CubicMetersPerSecond::from_milliliters_per_minute(676.0);
    let fluid = TemperatureDependentFluid::vanadium_electrolyte()
        .at(inlet)
        .map_err(|e| ThermalError::InvalidConfig(e.to_string()))?;
    ThermalModel::new(StackConfig {
        width: Meters::from_millimeters(26.55),
        height: Meters::from_millimeters(21.34),
        nx: POWER7_NX * scale,
        ny: POWER7_NY * scale,
        layers: vec![
            LayerSpec::Solid {
                name: "die".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(400.0),
                sublayers: 2,
            },
            LayerSpec::Microchannel {
                name: "flow-cell channels".into(),
                spec: MicrochannelSpec {
                    channel_width: Meters::from_micrometers(200.0 / scale as f64),
                    channel_height: Meters::from_micrometers(400.0),
                    channels_per_cell: 1,
                    fluid,
                    total_flow,
                    inlet_temperature: inlet,
                    wall_material: Material::silicon(),
                },
            },
            LayerSpec::Solid {
                name: "cap".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(300.0),
                sublayers: 1,
            },
        ],
        top_cooling: None,
    })
}

/// The conventional-cooling baseline the paper argues against, scaled
/// for large-grid solver work: the same POWER7+ die (two 400 µm silicon
/// tiers and a cap, no microchannels) under a forced-air heat sink,
/// with the plane resolution multiplied by `scale` in both directions.
/// The operator is pure conduction — symmetric positive definite — so
/// [`ThermalModel::solve_options`] switches the session to the
/// geometric-multigrid preconditioner once `nx·ny·levels` crosses
/// [`bright_num::MG_MIN_UNKNOWNS`] (200 000): `scale = 4` gives
/// `352 × 176 × 5 ≈ 310k` unknowns, `scale = 8` gives
/// `704 × 352 × 5 ≈ 1.24M`.
///
/// # Errors
///
/// Returns [`ThermalError::InvalidConfig`] for `scale = 0` (and
/// construction errors as in [`power7_stack`], which cannot happen for
/// the encoded constants).
pub fn conduction_stack_scaled(scale: usize) -> Result<ThermalModel, ThermalError> {
    if scale == 0 {
        return Err(ThermalError::InvalidConfig(
            "preset scale must be at least 1".into(),
        ));
    }
    ThermalModel::new(StackConfig {
        width: Meters::from_millimeters(26.55),
        height: Meters::from_millimeters(21.34),
        nx: POWER7_NX * scale,
        ny: POWER7_NY * scale,
        layers: vec![
            LayerSpec::Solid {
                name: "die0".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(400.0),
                sublayers: 2,
            },
            LayerSpec::Solid {
                name: "die1".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(400.0),
                sublayers: 2,
            },
            LayerSpec::Solid {
                name: "cap".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(300.0),
                sublayers: 1,
            },
        ],
        top_cooling: Some(crate::stack::TopCooling::forced_air()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_builds() {
        let m = power7_stack().unwrap();
        assert_eq!(m.level_count(), 4);
        assert_eq!(m.fluid_levels(), vec![2]);
        assert_eq!(m.grid().nx(), 88);
        // Total capacity rate ~ 47 W/K for 676 ml/min of the electrolyte.
        let cr = m.total_capacity_rate();
        assert!((cr - 47.2).abs() < 1.0, "capacity rate {cr}");
    }

    #[test]
    fn scaled_preset_multiplies_the_plane() {
        let m = power7_stack_scaled(2).unwrap();
        assert_eq!(m.grid().nx(), 2 * POWER7_NX);
        assert_eq!(m.grid().ny(), 2 * POWER7_NY);
        assert_eq!(m.level_count(), 4);
        // Same physical die: capacity rate is unchanged by resolution.
        let cr = m.total_capacity_rate();
        assert!((cr - 47.2).abs() < 1.0, "capacity rate {cr}");
        assert!(power7_stack_scaled(0).is_err());
    }

    #[test]
    fn conduction_preset_is_fluid_free() {
        let m = conduction_stack_scaled(1).unwrap();
        assert_eq!(m.level_count(), 5);
        assert!(m.fluid_levels().is_empty());
        assert!(conduction_stack_scaled(0).is_err());
    }

    #[test]
    fn preset_rejects_bad_operating_points() {
        assert!(power7_stack_at(
            CubicMetersPerSecond::from_milliliters_per_minute(0.0),
            Kelvin::new(300.0)
        )
        .is_err());
        assert!(power7_stack_at(
            CubicMetersPerSecond::from_milliliters_per_minute(100.0),
            Kelvin::new(-4.0)
        )
        .is_err());
    }
}
