//! Scenario description for the integrated co-simulation.

use crate::CoreError;
use bright_flowcell::options::VelocityModel;
use bright_flowcell::SolverOptions;
use bright_floorplan::{power7, Floorplan, PowerScenario};
use bright_pdn::ports::PortLayout;
use bright_pdn::Vrm;
use bright_units::{CubicMetersPerSecond, Kelvin, Meters};

/// Largest banded Cholesky factor [`Scenario::validate`] lets a PDN
/// sheet need: 256 MiB. Every co-simulation factors its cache rail, and
/// the band holds `nx·ny·(nx + 1)` doubles, so this bounds the memory of
/// one solve (and of each cached engine worker).
///
/// Source: ROADMAP F8's sheet table. The Fig. 8 sheet every preset uses
/// (106×85) needs 7.7 MB, 35× below the limit; the 2× sheet (212×170,
/// 61 MB) passes. The 4× sheet (424×340, 490 MB, a factor of 5–6 s) is
/// refused, and with it every die-shaped sheet at or above the 200,000
/// unknowns where the CG path switched to multigrid (about 500×400, a
/// 0.8 GB band; the 8× sheet needs 3.9 GB). The bound is on memory, so a
/// sheet that is long and narrow in `nx` passes with many unknowns.
pub const MAX_PDN_BAND_BYTES: u64 = 256 << 20;

/// PDN parameters of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PdnParams {
    /// Rail sheet resistance (Ω/sq).
    pub sheet_resistance: f64,
    /// Port series resistance (Ω).
    pub port_resistance: f64,
    /// Port layout.
    pub ports: PortLayout,
    /// PDN grid columns.
    pub nx: usize,
    /// PDN grid rows.
    pub ny: usize,
}

impl Default for PdnParams {
    fn default() -> Self {
        Self {
            sheet_resistance: bright_pdn::presets::CACHE_RAIL_SHEET_RESISTANCE,
            port_resistance: bright_pdn::presets::PORT_RESISTANCE,
            ports: PortLayout::UniformArray {
                pitch: bright_pdn::presets::PORT_PITCH,
            },
            nx: bright_pdn::presets::FIG8_NX,
            ny: bright_pdn::presets::FIG8_NY,
        }
    }
}

/// A complete description of one integrated operating point.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The chip floorplan.
    pub floorplan: Floorplan,
    /// Power densities dissipated by the chip (heats the die).
    pub thermal_load: PowerScenario,
    /// Power densities drawn from the microfluidic rail (the cache rail
    /// in the paper).
    pub rail_load: PowerScenario,
    /// Total electrolyte flow through the array.
    pub total_flow: CubicMetersPerSecond,
    /// Electrolyte inlet temperature.
    pub inlet_temperature: Kelvin,
    /// Number of physical channels in the array (88 in Table II).
    pub channel_count: usize,
    /// Microchannel width (Table II: 200 µm). Shared by the flow-cell
    /// electrode gap, the thermal microchannel layer and the hydraulic
    /// array — the Monte Carlo engine samples it as a manufacturing
    /// tolerance.
    pub channel_width: Meters,
    /// Microchannel height (Table II: 400 µm).
    pub channel_height: Meters,
    /// Thermal grid columns; must divide `channel_count`. Each column
    /// lumps `channel_count / thermal_columns` adjacent channels, which
    /// share a temperature profile.
    pub thermal_columns: usize,
    /// Thermal grid rows along the channels.
    pub thermal_ny: usize,
    /// Flow-cell solver options.
    pub cell_options: SolverOptions,
    /// Couple chip heat into the electrochemistry (disable for the
    /// isothermal baseline of the Section III-B comparison).
    pub couple_temperature: bool,
    /// The VRM between the array and the rail.
    pub vrm: Vrm,
    /// PDN parameters.
    pub pdn: PdnParams,
    /// Pump efficiency for the pumping-power account.
    pub pump_efficiency: f64,
    /// Points on the array polarization sweep.
    pub sweep_points: usize,
}

impl Scenario {
    /// The paper's nominal POWER7+ operating point: full-load thermal
    /// map, cache-only rail, 676 ml/min at 27 °C through 88 channels,
    /// switched-capacitor VRM onto a 1.0 V rail.
    pub fn power7_nominal() -> Self {
        Self {
            floorplan: power7::floorplan(),
            thermal_load: PowerScenario::full_load(),
            rail_load: PowerScenario::cache_only(),
            total_flow: CubicMetersPerSecond::from_milliliters_per_minute(676.0),
            inlet_temperature: Kelvin::new(300.0),
            channel_count: 88,
            channel_width: Meters::from_micrometers(200.0),
            channel_height: Meters::from_micrometers(400.0),
            thermal_columns: 88,
            thermal_ny: 44,
            cell_options: SolverOptions::default(),
            couple_temperature: true,
            vrm: Vrm::andersen_switched_capacitor(),
            pdn: PdnParams::default(),
            pump_efficiency: bright_flow::hydraulics::DEFAULT_PUMP_EFFICIENCY,
            sweep_points: 16,
        }
    }

    /// The Section III-B throttled point: 48 ml/min.
    pub fn power7_throttled() -> Self {
        Self {
            total_flow: CubicMetersPerSecond::from_milliliters_per_minute(48.0),
            ..Self::power7_nominal()
        }
    }

    /// The Section III-B warm-inlet point: 37 °C inlet.
    pub fn power7_warm_inlet() -> Self {
        Self {
            inlet_temperature: Kelvin::new(310.15),
            ..Self::power7_nominal()
        }
    }

    /// A reduced-resolution variant for fast tests: all 88 physical
    /// channels, but only 22 thermal columns (4 channels share a
    /// temperature profile) and coarse transport grids. Same physics at
    /// ~30× less work.
    pub fn power7_reduced() -> Self {
        Self {
            thermal_columns: 22,
            thermal_ny: 22,
            cell_options: SolverOptions {
                ny: 24,
                nx: 60,
                velocity: VelocityModel::PlanePoiseuille,
                ..SolverOptions::default()
            },
            sweep_points: 8,
            ..Self::power7_nominal()
        }
    }

    /// The per-channel share of the total flow — the coefficient the
    /// flow-cell template (and the engine's polarization workers) run
    /// at.
    #[must_use]
    pub fn per_channel_flow(&self) -> CubicMetersPerSecond {
        self.total_flow / self.channel_count as f64
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] describing the first
    /// violated rule, or [`CoreError::PdnBandTooLarge`] for a PDN sheet
    /// whose banded factor would exceed [`MAX_PDN_BAND_BYTES`].
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.channel_count == 0 {
            return Err(CoreError::InvalidScenario("zero channels".into()));
        }
        if self.thermal_columns == 0 || !self.channel_count.is_multiple_of(self.thermal_columns) {
            return Err(CoreError::InvalidScenario(format!(
                "thermal columns ({}) must divide the channel count ({})",
                self.thermal_columns, self.channel_count
            )));
        }
        if self.thermal_ny == 0 {
            return Err(CoreError::InvalidScenario("zero thermal rows".into()));
        }
        let positive = |name: &str, value: f64, shown: &dyn std::fmt::Display| {
            if !value.is_finite() {
                return Err(CoreError::InvalidScenario(format!(
                    "{name} must be finite, got {shown}"
                )));
            }
            if value <= 0.0 {
                return Err(CoreError::InvalidScenario(format!(
                    "{name} must be positive, got {shown}"
                )));
            }
            Ok(())
        };
        positive("flow", self.total_flow.value(), &self.total_flow)?;
        positive(
            "channel width",
            self.channel_width.value(),
            &self.channel_width,
        )?;
        positive(
            "channel height",
            self.channel_height.value(),
            &self.channel_height,
        )?;
        if !self.inlet_temperature.is_physical() {
            return Err(CoreError::InvalidScenario(format!(
                "non-physical inlet temperature {}",
                self.inlet_temperature
            )));
        }
        if !(self.pump_efficiency > 0.0 && self.pump_efficiency <= 1.0) {
            return Err(CoreError::InvalidScenario(format!(
                "pump efficiency must be in (0,1], got {}",
                self.pump_efficiency
            )));
        }
        if self.sweep_points < 2 {
            return Err(CoreError::InvalidScenario(
                "need at least 2 sweep points".into(),
            ));
        }
        self.cell_options
            .validate()
            .map_err(|e| CoreError::InvalidScenario(e.to_string()))?;
        self.vrm
            .validate()
            .map_err(|e| CoreError::InvalidScenario(e.to_string()))?;
        let (nx, ny) = (self.pdn.nx, self.pdn.ny);
        let band_bytes = (nx as u128)
            .saturating_mul(ny as u128)
            .saturating_mul(nx as u128 + 1)
            .saturating_mul(8);
        if band_bytes > u128::from(MAX_PDN_BAND_BYTES) {
            return Err(CoreError::PdnBandTooLarge { nx, ny, band_bytes });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(Scenario::power7_nominal().validate().is_ok());
        assert!(Scenario::power7_throttled().validate().is_ok());
        assert!(Scenario::power7_warm_inlet().validate().is_ok());
        assert!(Scenario::power7_reduced().validate().is_ok());
    }

    #[test]
    fn pdn_band_bound_passes_the_paper_sheets_and_refuses_large_ones() {
        let sheet = |scale: usize| {
            let mut s = Scenario::power7_reduced();
            s.pdn.nx *= scale;
            s.pdn.ny *= scale;
            s
        };
        // The Fig. 8 sheet (7.7 MB) and the 2x sheet (61 MB) pass.
        assert_eq!(Scenario::power7_reduced().pdn.nx, 106);
        assert!(sheet(1).validate().is_ok());
        assert!(sheet(2).validate().is_ok());
        // The 4x sheet (490 MB) and the 8x sheet (3.9 GB) are refused
        // with the band size and the limit.
        for (scale, mb) in [(4, "490.1"), (8, "3916.5")] {
            let err = sheet(scale).validate().unwrap_err();
            assert!(
                matches!(err, CoreError::PdnBandTooLarge { nx, .. } if nx == 106 * scale),
                "{err:?}"
            );
            let text = err.to_string();
            assert!(text.contains(&format!("{mb} MB")), "{text}");
            assert!(text.contains("268.4 MB limit (MAX_PDN_BAND_BYTES"), "{text}");
        }
        // Right at the limit: 2^25 doubles pass, one more row does not.
        let mut edge = Scenario::power7_reduced();
        edge.pdn.nx = 127;
        edge.pdn.ny = (1 << 25) / (128 * 127);
        assert!(edge.validate().is_ok());
        edge.pdn.ny += 1;
        assert!(edge.validate().is_err());
        // Absurd sizes do not overflow the arithmetic.
        let mut huge = Scenario::power7_reduced();
        huge.pdn.nx = usize::MAX;
        huge.pdn.ny = usize::MAX;
        assert!(matches!(huge.validate(), Err(CoreError::PdnBandTooLarge { .. })));
    }

    #[test]
    fn throttled_and_warm_presets_differ_as_expected() {
        let nominal = Scenario::power7_nominal();
        let throttled = Scenario::power7_throttled();
        let warm = Scenario::power7_warm_inlet();
        assert!(throttled.total_flow.value() < nominal.total_flow.value());
        assert!(warm.inlet_temperature.value() > nominal.inlet_temperature.value());
    }

    #[test]
    fn invalid_scenarios_are_caught() {
        let mut s = Scenario::power7_nominal();
        s.channel_count = 0;
        assert!(s.validate().is_err());

        let message = |s: &Scenario| match s.validate() {
            Err(CoreError::InvalidScenario(m)) => m,
            other => panic!("expected an invalid scenario, got {other:?}"),
        };
        let mut s = Scenario::power7_nominal();
        s.total_flow = CubicMetersPerSecond::new(0.0);
        let m = message(&s);
        assert!(m.starts_with("flow must be positive"), "{m}");
        for bad in [f64::INFINITY, f64::NAN] {
            s.total_flow = CubicMetersPerSecond::new(bad);
            let m = message(&s);
            let expected = format!("flow must be finite, got {bad}");
            assert!(m.starts_with(&expected), "{m}");
        }

        let mut s = Scenario::power7_nominal();
        s.channel_width = Meters::new(f64::INFINITY);
        let m = message(&s);
        let expected = "channel width must be finite, got inf";
        assert!(m.starts_with(expected), "{m}");

        let mut s = Scenario::power7_nominal();
        s.inlet_temperature = Kelvin::new(-1.0);
        assert!(s.validate().is_err());

        let mut s = Scenario::power7_nominal();
        s.pump_efficiency = 1.5;
        assert!(s.validate().is_err());

        let mut s = Scenario::power7_nominal();
        s.sweep_points = 1;
        assert!(s.validate().is_err());
    }
}
