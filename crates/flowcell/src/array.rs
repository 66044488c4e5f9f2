//! Arrays of flow cells electrically in parallel.
//!
//! The POWER7+ integration lays 88 channels over the die, all fed by one
//! manifold and connected in parallel (same terminal voltage, currents
//! add). When the thermal model supplies per-column temperature profiles
//! the columns differ: every solve fans out over the marched columns,
//! and a worker builds each one's model from the template, marches all
//! of that solve's voltages through it in one station-major march, keeps
//! the per-voltage currents and drops the model. No column model
//! outlives its solve. A marched column may stand for several columns
//! (a weight): its currents count once per column it represents.
//! Otherwise a single representative channel is solved and scaled.

use crate::options::TemperatureProfile;
use crate::polarization::{PolarizationCurve, PolarizationPoint};
use crate::solver::CellModel;
use crate::FlowCellError;
use bright_num::parallel::{try_parallel_map_indexed, worker_count};
use bright_num::roots::{brent, RootOptions};
use bright_units::{Ampere, Volt, Watt};

/// An array of `count` flow-cell channels electrically in parallel.
///
/// An array with per-column temperature profiles holds only the
/// template, the profiles of the columns it marches and each one's
/// weight, the number of columns it stands for (1 for every column
/// given by [`CellArray::with_channel_temperatures`]). Each solve builds
/// the marched columns' models from the template on worker threads
/// (every one shares the template's duct solve) and drops them before
/// it returns.
#[derive(Debug, Clone)]
pub struct CellArray {
    template: CellModel,
    count: usize,
    columns: Option<Columns>,
}

/// The marched columns of an array with per-column temperatures: one
/// profile and one weight each, the weights summing to the array's
/// count.
#[derive(Debug, Clone)]
struct Columns {
    temperatures: Vec<TemperatureProfile>,
    weights: Vec<f64>,
}

/// Aggregate operating point of an array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayOperatingPoint {
    /// Terminal voltage (common to all channels).
    pub voltage: Volt,
    /// Total delivered current.
    pub current: Ampere,
    /// Total delivered power.
    pub power: Watt,
}

impl ArrayOperatingPoint {
    fn at(voltage: f64, current: f64) -> Self {
        Self {
            voltage: Volt::new(voltage),
            current: Ampere::new(current),
            power: Volt::new(voltage) * Ampere::new(current),
        }
    }
}

impl CellArray {
    /// Creates an array of `count` identical channels.
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] if `count == 0`.
    pub fn new(template: CellModel, count: usize) -> Result<Self, FlowCellError> {
        if count == 0 {
            return Err(FlowCellError::InvalidConfig("zero channels".into()));
        }
        Ok(Self {
            template,
            count,
            columns: None,
        })
    }

    /// Number of channels: with weighted columns, the number of columns
    /// they stand for (the sum of the weights).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of channel models a solve marches: the profiles given to
    /// [`CellArray::with_channel_temperatures`] or
    /// [`CellArray::with_weighted_channel_temperatures`], or 1 for the
    /// scaled template.
    #[inline]
    pub fn marched_columns(&self) -> usize {
        self.columns.as_ref().map_or(1, |c| c.temperatures.len())
    }

    /// The template channel model.
    #[inline]
    pub fn template(&self) -> &CellModel {
        &self.template
    }

    /// Assigns an individual temperature profile to every channel (from
    /// the thermal solver), each marched on its own. The vector length
    /// must equal the channel count.
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] on length mismatch.
    pub fn with_channel_temperatures(
        mut self,
        temps: Vec<TemperatureProfile>,
    ) -> Result<Self, FlowCellError> {
        self.retarget_channel_temperatures(temps)?;
        Ok(self)
    }

    /// Assigns temperature profiles to runs of channels: profile `k` is
    /// marched once and its currents count `weights[k]` times, as if
    /// that many channels had it. With every weight 1 this is
    /// [`CellArray::with_channel_temperatures`], bit for bit (a current
    /// times 1.0 is the current).
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] when the lengths differ,
    /// a weight is zero, or the weights do not sum to the channel count.
    pub fn with_weighted_channel_temperatures(
        mut self,
        temps: Vec<TemperatureProfile>,
        weights: &[usize],
    ) -> Result<Self, FlowCellError> {
        if temps.len() != weights.len() {
            return Err(FlowCellError::InvalidConfig(format!(
                "{} temperature profiles for {} weights",
                temps.len(),
                weights.len()
            )));
        }
        if weights.contains(&0) {
            return Err(FlowCellError::InvalidConfig("a zero column weight".into()));
        }
        let total: usize = weights.iter().sum();
        if total != self.count {
            return Err(FlowCellError::InvalidConfig(format!(
                "column weights sum to {total} for {} channels",
                self.count
            )));
        }
        self.columns = Some(Columns {
            temperatures: temps,
            weights: weights.iter().map(|&w| w as f64).collect(),
        });
        Ok(self)
    }

    /// Applies a retarget to the template, for a caller that keeps one
    /// array across a stream of operating points. The channel
    /// models of the next solve are built from the retargeted template;
    /// retargets are bitwise-equal to cold builds (the
    /// [`CellModel::retarget_geometry`] family's contract), so a
    /// long-lived retargeted array and a freshly built one solve to
    /// identical bits.
    ///
    /// # Errors
    ///
    /// Propagates the retarget error.
    pub fn retarget_models<F>(&mut self, mut retarget: F) -> Result<(), FlowCellError>
    where
        F: FnMut(&mut CellModel) -> Result<(), FlowCellError>,
    {
        retarget(&mut self.template)
    }

    /// Replaces the per-channel temperature profiles in place, like
    /// [`CellArray::with_channel_temperatures`]: the next solve builds
    /// its channel models at the new profiles.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] on length mismatch (the array
    /// is unchanged).
    pub fn retarget_channel_temperatures(
        &mut self,
        temps: Vec<TemperatureProfile>,
    ) -> Result<(), FlowCellError> {
        if temps.len() != self.count {
            return Err(FlowCellError::InvalidConfig(format!(
                "{} temperature profiles for {} channels",
                temps.len(),
                self.count
            )));
        }
        self.columns = Some(Columns {
            weights: vec![1.0; temps.len()],
            temperatures: temps,
        });
        Ok(())
    }

    /// Total array current at a terminal voltage.
    ///
    /// # Errors
    ///
    /// Propagates channel-solver errors.
    pub fn solve_at_voltage(&self, voltage: f64) -> Result<ArrayOperatingPoint, FlowCellError> {
        let total = match &self.columns {
            None => self.count as f64 * self.template.solve_at_voltage(voltage)?.current().value(),
            Some(columns) => self.column_totals(columns, &[voltage], 0, columns.workers())?[0],
        };
        Ok(ArrayOperatingPoint::at(voltage, total))
    }

    /// Terminal voltage when the array delivers `target` total current.
    /// Every Brent step is a [`CellArray::solve_at_voltage`], so an
    /// array with per-column temperatures builds and solves all its
    /// marched column models again at each step.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::Infeasible`] if `target` exceeds the array's
    /// limiting current.
    pub fn solve_at_current(&self, target: Ampere) -> Result<ArrayOperatingPoint, FlowCellError> {
        if !(target.value() >= 0.0 && target.is_finite()) {
            return Err(FlowCellError::Infeasible(format!(
                "target current must be non-negative, got {target}"
            )));
        }
        let v_floor = 0.02;
        let at_floor = self.solve_at_voltage(v_floor)?;
        if target.value() > at_floor.current.value() {
            return Err(FlowCellError::Infeasible(format!(
                "target {target} exceeds array limiting current {:.3} A",
                at_floor.current.value()
            )));
        }
        let ocv = self.template.open_circuit_voltage()?.value() + 0.05;
        let v = brent(
            |v| match self.solve_at_voltage(v) {
                Ok(op) => op.current.value() - target.value(),
                Err(_) => f64::NAN,
            },
            v_floor,
            ocv,
            &RootOptions {
                x_tolerance: 1e-6,
                f_tolerance: (target.value() * 1e-6).max(1e-12),
                max_iterations: 100,
            },
        )
        .map_err(FlowCellError::from)?;
        self.solve_at_voltage(v)
    }

    /// The array polarization curve (Fig. 7) with `n` sweep points.
    ///
    /// # Errors
    ///
    /// Propagates channel-solver errors.
    pub fn polarization_curve(&self, n: usize) -> Result<PolarizationCurve, FlowCellError> {
        Ok(self.curve_and_point(n, None)?.0)
    }

    /// The array polarization curve with `n` sweep points and the
    /// operating point at `voltage`, bitwise equal to
    /// [`CellArray::polarization_curve`] followed by
    /// [`CellArray::solve_at_voltage`] but in one pass: each marched
    /// column marches the sweep ladder plus `voltage` as one more lane,
    /// whose station roots start cold as a lone solve's do, so every
    /// column model is built once.
    ///
    /// # Errors
    ///
    /// As the two calls. When both would fail, the error reported is the
    /// lowest failing column's, and within it the one its march meets
    /// first (station-major).
    pub fn polarization_curve_and_point(
        &self,
        n: usize,
        voltage: f64,
    ) -> Result<(PolarizationCurve, ArrayOperatingPoint), FlowCellError> {
        let (curve, point) = self.curve_and_point(n, Some(voltage))?;
        Ok((curve, point.expect("a point was requested")))
    }

    fn curve_and_point(
        &self,
        n: usize,
        point: Option<f64>,
    ) -> Result<(PolarizationCurve, Option<ArrayOperatingPoint>), FlowCellError> {
        let Some(columns) = &self.columns else {
            let curve = self
                .template
                .polarization_curve(n)?
                .scaled_parallel(self.count);
            return Ok((curve, point.map(|v| self.solve_at_voltage(v)).transpose()?));
        };
        if n < 2 {
            return Err(FlowCellError::InvalidConfig(
                "need at least 2 sweep points".into(),
            ));
        }
        let ocv = self.template.open_circuit_voltage()?.value();
        let v_lo = 0.05_f64.min(ocv / 2.0);
        let mut voltages: Vec<f64> = (0..n)
            .map(|k| v_lo + (ocv - 1e-4 - v_lo) * k as f64 / (n - 1) as f64)
            .collect();
        voltages.extend(point);
        let mut totals = self.column_totals(columns, &voltages, n, columns.workers())?;
        let point = point.map(|v| ArrayOperatingPoint::at(v, totals.pop().expect("point lane")));
        let mut pts: Vec<PolarizationPoint> = voltages[..n]
            .iter()
            .zip(&totals)
            .map(|(&v, &total)| PolarizationPoint {
                voltage: Volt::new(v),
                current: Ampere::new(total),
                power: Volt::new(v) * Ampere::new(total),
            })
            .collect();
        pts.push(PolarizationPoint {
            voltage: Volt::new(ocv),
            current: Ampere::new(0.0),
            power: Watt::new(0.0),
        });
        Ok((PolarizationCurve::new(pts)?, point))
    }

    /// Total array current at each of `voltages`: one fan-out over the
    /// marched columns on `workers` threads. A worker builds a column's
    /// model from the template at the column's profile, marches every
    /// voltage through it at once (the hint chain restarting cold at
    /// lane `restart`), keeps the currents and drops the model. The
    /// totals sum weight · current in column order. The lowest failing
    /// column's error wins and later columns are cancelled.
    fn column_totals(
        &self,
        columns: &Columns,
        voltages: &[f64],
        restart: usize,
        workers: usize,
    ) -> Result<Vec<f64>, FlowCellError> {
        // One duct solve on the template, shared by every column.
        self.template.warm_geometry()?;
        let per_column = try_parallel_map_indexed(&columns.temperatures, workers, |_, t| {
            let column = self.template.with_temperature(t.clone())?;
            let sols = column.sweep_restarting_at(voltages, restart)?;
            debug_assert_eq!(
                column.context_stats().geometry_builds,
                0,
                "columns share the template's duct solve"
            );
            Ok::<_, FlowCellError>(sols.iter().map(|s| s.current().value()).collect::<Vec<_>>())
        })?;
        Ok((0..voltages.len())
            .map(|k| {
                per_column
                    .iter()
                    .zip(&columns.weights)
                    .map(|(currents, w)| w * currents[k])
                    .sum()
            })
            .collect())
    }
}

impl Columns {
    /// The fan-out width of a solve over these columns.
    fn workers(&self) -> usize {
        worker_count(self.temperatures.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use bright_units::Kelvin;

    #[test]
    fn uniform_array_scales_single_channel() {
        let array = presets::power7_array().unwrap();
        let single = presets::power7_channel().unwrap();
        let op = array.solve_at_voltage(1.0).unwrap();
        let i1 = single.solve_at_voltage(1.0).unwrap().current().value();
        assert!((op.current.value() - 88.0 * i1).abs() < 1e-9 * 88.0 * i1.max(1e-12));
    }

    #[test]
    fn per_channel_temperatures_change_the_answer() {
        let array = presets::power7_array().unwrap();
        let cold = array.solve_at_voltage(1.0).unwrap().current.value();
        let temps: Vec<TemperatureProfile> = (0..88)
            .map(|k| {
                // Center channels run hotter (under the cores).
                let t = 300.0 + 10.0 * (-((k as f64 - 43.5) / 20.0).powi(2)).exp();
                TemperatureProfile::Uniform(Kelvin::new(t))
            })
            .collect();
        let warm_array = presets::power7_array()
            .unwrap()
            .with_channel_temperatures(temps)
            .unwrap();
        let warm = warm_array.solve_at_voltage(1.0).unwrap().current.value();
        assert!(warm > cold, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn threaded_channel_map_matches_inline() {
        // Single-core hosts never take the threaded branch organically;
        // force it and compare against the inline result and against
        // channel-by-channel solves: the ladder lanes are each channel's
        // sweep, the restarted lane its lone 1 V solve.
        let temps: Vec<TemperatureProfile> = (0..6)
            .map(|k| TemperatureProfile::Uniform(Kelvin::new(300.0 + k as f64)))
            .collect();
        let template = presets::power7_channel().unwrap();
        let array = CellArray::new(template.clone(), 6).unwrap();
        let columns = Columns {
            temperatures: temps.clone(),
            weights: vec![1.0; 6],
        };
        let voltages = [0.6, 0.9, 1.0];
        let inline = array.column_totals(&columns, &voltages, 2, 1).unwrap();
        let threaded = array.column_totals(&columns, &voltages, 2, 3).unwrap();
        assert_eq!(inline, threaded);
        let channels: Vec<Vec<f64>> = temps
            .iter()
            .map(|t| {
                let m = template.with_temperature(t.clone()).unwrap();
                let mut currents: Vec<f64> = m
                    .sweep_at_voltages(&voltages[..2])
                    .unwrap()
                    .iter()
                    .map(|s| s.current().value())
                    .collect();
                currents.push(m.solve_at_voltage(1.0).unwrap().current().value());
                currents
            })
            .collect();
        let serial: Vec<f64> = (0..3)
            .map(|k| channels.iter().map(|c| c[k]).sum())
            .collect();
        assert_eq!(inline, serial);
        // Errors propagate from worker threads too.
        assert!(array.column_totals(&columns, &[-1.0], 0, 3).is_err());
    }

    #[test]
    fn unit_weights_reproduce_per_channel_temperatures_bitwise() {
        let temps: Vec<TemperatureProfile> = (0..5)
            .map(|k| TemperatureProfile::Uniform(Kelvin::new(300.0 + 1.5 * k as f64)))
            .collect();
        let array = || CellArray::new(presets::power7_channel().unwrap(), 5).unwrap();
        let plain = array().with_channel_temperatures(temps.clone()).unwrap();
        let weighted = array()
            .with_weighted_channel_temperatures(temps, &[1; 5])
            .unwrap();
        assert_eq!((weighted.count(), weighted.marched_columns()), (5, 5));
        let (curve_a, point_a) = plain.polarization_curve_and_point(6, 1.0).unwrap();
        let (curve_b, point_b) = weighted.polarization_curve_and_point(6, 1.0).unwrap();
        assert_eq!(
            point_a.current.value().to_bits(),
            point_b.current.value().to_bits()
        );
        for (a, b) in curve_a.points().iter().zip(curve_b.points()) {
            assert_eq!(a.current.value().to_bits(), b.current.value().to_bits());
        }
    }

    #[test]
    fn a_weighted_column_counts_once_per_column_it_stands_for() {
        let t = |k: f64| TemperatureProfile::Uniform(Kelvin::new(300.0 + k));
        // Columns 0-1 share one profile and 3-5 another.
        let each = CellArray::new(presets::power7_channel().unwrap(), 6)
            .unwrap()
            .with_channel_temperatures(vec![t(0.0), t(0.0), t(2.0), t(4.0), t(4.0), t(4.0)])
            .unwrap();
        let runs = CellArray::new(presets::power7_channel().unwrap(), 6)
            .unwrap()
            .with_weighted_channel_temperatures(vec![t(0.0), t(2.0), t(4.0)], &[2, 1, 3])
            .unwrap();
        assert_eq!((runs.count(), runs.marched_columns()), (6, 3));
        let (a, b) = (
            each.solve_at_voltage(1.0).unwrap().current.value(),
            runs.solve_at_voltage(1.0).unwrap().current.value(),
        );
        // Only the summation order differs.
        assert!((a - b).abs() <= 8.0 * f64::EPSILON * a, "{a} vs {b}");
    }

    #[test]
    fn weights_must_cover_the_channels_once() {
        let t = TemperatureProfile::Uniform(Kelvin::new(300.0));
        let array = || CellArray::new(presets::power7_channel().unwrap(), 4).unwrap();
        assert!(array()
            .with_weighted_channel_temperatures(vec![t.clone(); 2], &[3])
            .is_err());
        assert!(array()
            .with_weighted_channel_temperatures(vec![t.clone(); 2], &[4, 0])
            .is_err());
        assert!(array()
            .with_weighted_channel_temperatures(vec![t.clone(); 2], &[2, 1])
            .is_err());
        let ok = array()
            .with_weighted_channel_temperatures(vec![t; 2], &[1, 3])
            .unwrap();
        assert_eq!(ok.marched_columns(), 2);
        assert_eq!(array().marched_columns(), 1);
    }

    #[test]
    fn per_channel_models_share_one_duct_solution() {
        use crate::options::{SolverOptions, VelocityModel};
        use crate::CellGeometry;
        use bright_echem::vanadium;
        use bright_flow::RectChannel;
        use bright_units::{CubicMetersPerSecond, Meters};

        let channel = RectChannel::new(
            Meters::from_micrometers(200.0),
            Meters::from_micrometers(400.0),
            Meters::from_millimeters(22.0),
        )
        .unwrap();
        let template = CellModel::new(
            CellGeometry::new(channel),
            vanadium::power7_cell_chemistry(),
            CubicMetersPerSecond::from_milliliters_per_minute(7.68),
            TemperatureProfile::Uniform(Kelvin::new(300.0)),
            SolverOptions {
                ny: 16,
                nx: 40,
                velocity: VelocityModel::Duct { nz: 8 },
                ..SolverOptions::default()
            },
        )
        .unwrap();
        let temps = |base: f64| -> Vec<TemperatureProfile> {
            (0..5)
                .map(|k| TemperatureProfile::Uniform(Kelvin::new(base + k as f64)))
                .collect()
        };
        let array = CellArray::new(template, 5)
            .unwrap()
            .with_channel_temperatures(temps(300.0))
            .unwrap();
        // The channel fan-out asserts (in debug builds) that no channel
        // model builds a duct solve of its own; the template pays for
        // the one they all ride.
        array.solve_at_voltage(1.0).unwrap();
        assert_eq!(
            array.template().context_stats().geometry_builds,
            1,
            "all channels must ride one duct solution"
        );
        // A temperature-variant array built from the same (already
        // solved) array keeps sharing the template's duct solution.
        let variant = array.clone().with_channel_temperatures(temps(305.0)).unwrap();
        variant.solve_at_voltage(1.0).unwrap();
        assert_eq!(variant.template().context_stats().geometry_builds, 0);
        assert!(variant
            .template()
            .shares_geometry_with(array.template()));
    }

    #[test]
    fn retargeted_array_matches_fresh_build_bitwise() {
        let temps = |base: f64| -> Vec<TemperatureProfile> {
            (0..4)
                .map(|k| TemperatureProfile::Uniform(Kelvin::new(base + 2.0 * k as f64)))
                .collect()
        };
        let template = presets::power7_channel().unwrap();

        // Long-lived array: built at one operating point, solved (so
        // the per-channel models and their contexts exist), then moved
        // in place to a second point.
        let mut lived = CellArray::new(template.clone(), 4)
            .unwrap()
            .with_channel_temperatures(temps(300.0))
            .unwrap();
        lived.solve_at_voltage(1.0).unwrap();
        let flow2 =
            bright_units::CubicMetersPerSecond::from_milliliters_per_minute(9.0);
        lived
            .retarget_models(|m| {
                m.retarget_contact_asr(2.5e-6)?;
                m.retarget_flow(flow2)?;
                Ok(())
            })
            .unwrap();
        lived.retarget_channel_temperatures(temps(306.0)).unwrap();
        let warm = lived.solve_at_voltage(1.0).unwrap();

        // Fresh array built directly at the second operating point.
        let mut template2 = template;
        template2.retarget_contact_asr(2.5e-6).unwrap();
        template2.retarget_flow(flow2).unwrap();
        let fresh = CellArray::new(template2, 4)
            .unwrap()
            .with_channel_temperatures(temps(306.0))
            .unwrap()
            .solve_at_voltage(1.0)
            .unwrap();

        assert_eq!(warm.current.value().to_bits(), fresh.current.value().to_bits());
        assert_eq!(warm.power.value().to_bits(), fresh.power.value().to_bits());
    }

    #[test]
    fn retarget_channel_temperatures_checks_length_and_falls_back() {
        let template = presets::power7_channel().unwrap();
        let mut array = CellArray::new(template, 3).unwrap();
        // Models not built yet: the call stores profiles for the lazy
        // build, exactly like with_channel_temperatures.
        let temps: Vec<TemperatureProfile> = (0..3)
            .map(|k| TemperatureProfile::Uniform(Kelvin::new(301.0 + k as f64)))
            .collect();
        array.retarget_channel_temperatures(temps.clone()).unwrap();
        let stored = array.solve_at_voltage(1.0).unwrap();
        let built = CellArray::new(presets::power7_channel().unwrap(), 3)
            .unwrap()
            .with_channel_temperatures(temps)
            .unwrap()
            .solve_at_voltage(1.0)
            .unwrap();
        assert_eq!(stored.current.value().to_bits(), built.current.value().to_bits());
        // Length mismatch is rejected and leaves the array untouched.
        assert!(array
            .retarget_channel_temperatures(vec![TemperatureProfile::Uniform(
                Kelvin::new(300.0)
            )])
            .is_err());
        let again = array.solve_at_voltage(1.0).unwrap();
        assert_eq!(again.current.value().to_bits(), stored.current.value().to_bits());
    }

    #[test]
    fn solve_at_current_hits_target() {
        let array = presets::power7_array().unwrap();
        let op = array.solve_at_current(Ampere::new(2.0)).unwrap();
        assert!((op.current.value() - 2.0).abs() < 1e-4);
        assert!(op.voltage.value() > 0.5 && op.voltage.value() < 1.7);
    }

    #[test]
    fn infeasible_and_invalid_inputs() {
        let array = presets::power7_array().unwrap();
        assert!(array.solve_at_current(Ampere::new(1e6)).is_err());
        assert!(array.solve_at_current(Ampere::new(-1.0)).is_err());
        assert!(CellArray::new(presets::power7_channel().unwrap(), 0).is_err());
        let wrong_len = presets::power7_array()
            .unwrap()
            .with_channel_temperatures(vec![TemperatureProfile::Uniform(Kelvin::new(300.0)); 3]);
        assert!(wrong_len.is_err());
    }
}
