//! Scenario description for the integrated co-simulation.

use crate::CoreError;
use bright_flowcell::options::VelocityModel;
use bright_flowcell::SolverOptions;
use bright_floorplan::{power7, Floorplan, PowerScenario};
use bright_pdn::ports::PortLayout;
use bright_pdn::Vrm;
use bright_units::{CubicMetersPerSecond, Kelvin, Meters};

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
    /// violated rule.
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
