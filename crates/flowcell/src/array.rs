//! Arrays of flow cells electrically in parallel.
//!
//! The POWER7+ integration lays 88 channels over the die, all fed by one
//! manifold and connected in parallel (same terminal voltage, currents
//! add). When the thermal model supplies per-channel temperature profiles
//! the channels differ and are solved individually (in parallel threads);
//! otherwise a single representative channel is solved and scaled.

use crate::options::TemperatureProfile;
use crate::polarization::{PolarizationCurve, PolarizationPoint};
use crate::solver::CellModel;
use crate::FlowCellError;
use bright_num::roots::{brent, RootOptions};
use bright_units::{Ampere, Volt, Watt};
use std::sync::OnceLock;

/// An array of `count` flow-cell channels electrically in parallel.
#[derive(Debug, Clone)]
pub struct CellArray {
    template: CellModel,
    count: usize,
    per_channel_temperatures: Option<Vec<TemperatureProfile>>,
    /// Lazily built per-channel models (one template clone per distinct
    /// temperature profile). Every solve on the array reuses them — and
    /// with them each model's cached solve context.
    models: OnceLock<Vec<CellModel>>,
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
            per_channel_temperatures: None,
            models: OnceLock::new(),
        })
    }

    /// Number of channels.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The template channel model.
    #[inline]
    pub fn template(&self) -> &CellModel {
        &self.template
    }

    /// Assigns an individual temperature profile to every channel (from
    /// the thermal solver). The vector length must equal the channel
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] on length mismatch.
    pub fn with_channel_temperatures(
        mut self,
        temps: Vec<TemperatureProfile>,
    ) -> Result<Self, FlowCellError> {
        if temps.len() != self.count {
            return Err(FlowCellError::InvalidConfig(format!(
                "{} temperature profiles for {} channels",
                temps.len(),
                self.count
            )));
        }
        self.per_channel_temperatures = Some(temps);
        self.models = OnceLock::new();
        Ok(self)
    }

    /// Removes per-channel temperatures (back to the template profile).
    pub fn without_channel_temperatures(mut self) -> Self {
        self.per_channel_temperatures = None;
        self.models = OnceLock::new();
        self
    }

    /// Applies an in-place retarget to the template **and** every
    /// cached per-channel model, for a caller that keeps one array
    /// across a stream of operating points: geometry, flow and ASR
    /// updates ride the models' existing solve contexts instead of
    /// rebuilding them. Retargets are bitwise-equal to cold builds (the
    /// [`CellModel::retarget_geometry`] family's contract), so a
    /// long-lived retargeted array and a freshly built one solve to
    /// identical bits. Each changed coefficient re-stamps every model's
    /// transport operators on the calling thread; when more than the
    /// temperature changes, an array built fresh from a retargeted
    /// template (what the co-simulation does) measured no slower.
    ///
    /// # Errors
    ///
    /// Propagates the first retarget error; failed models clear their
    /// contexts, so subsequent solves rebuild cold rather than serving
    /// stale coefficients.
    pub fn retarget_models<F>(&mut self, mut retarget: F) -> Result<(), FlowCellError>
    where
        F: FnMut(&mut CellModel) -> Result<(), FlowCellError>,
    {
        retarget(&mut self.template)?;
        if let Some(models) = self.models.get_mut() {
            for m in models {
                retarget(m)?;
            }
        }
        Ok(())
    }

    /// Re-points the per-channel temperature profiles **in place**:
    /// when the per-channel models are already built (and match the
    /// channel count) each one is refreshed through
    /// [`CellModel::retarget_temperature`] — station chemistry and
    /// operator re-stamps through existing storage, no new model
    /// builds; otherwise this falls back to storing the profiles for
    /// the next lazy build, exactly like
    /// [`CellArray::with_channel_temperatures`].
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] on length mismatch (the array
    /// is unchanged); retarget errors as [`CellArray::retarget_models`].
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
        match self.models.get_mut() {
            Some(models) if models.len() == temps.len() => {
                for (m, t) in models.iter_mut().zip(&temps) {
                    m.retarget_temperature(t.clone())?;
                }
                self.per_channel_temperatures = Some(temps);
            }
            _ => {
                self.per_channel_temperatures = Some(temps);
                self.models = OnceLock::new();
            }
        }
        Ok(())
    }

    /// The cached per-channel models, built on first use. The duct
    /// velocity profile is solved **once** on the template and shared by
    /// every per-temperature channel model (temperature is a
    /// coefficient; the geometry context survives it) — and because the
    /// template keeps its context across
    /// [`CellArray::with_channel_temperatures`], it is shared across
    /// temperature-variant arrays too.
    fn channel_models(&self) -> Result<&[CellModel], FlowCellError> {
        let models = bright_num::lazy::get_or_try_init(&self.models, || {
            match &self.per_channel_temperatures {
                None => Ok(vec![self.template.clone()]),
                Some(temps) => {
                    self.template.warm_geometry()?;
                    temps
                        .iter()
                        .map(|t| self.template.with_temperature(t.clone()))
                        .collect::<Result<Vec<_>, _>>()
                }
            }
        })?;
        Ok(models)
    }

    /// Number of **distinct** built geometry contexts (duct solutions)
    /// across the template and every cached per-channel model. Stays at
    /// 1 however many per-channel temperature variants are solved — the
    /// observable form of the shared duct solution.
    #[must_use]
    pub fn distinct_geometry_contexts(&self) -> usize {
        let mut ptrs: Vec<usize> = std::iter::once(&self.template)
            .chain(self.models.get().into_iter().flatten())
            .filter_map(CellModel::geometry_ptr)
            .collect();
        ptrs.sort_unstable();
        ptrs.dedup();
        ptrs.len()
    }

    /// Total array current at a terminal voltage.
    ///
    /// # Errors
    ///
    /// Propagates channel-solver errors.
    pub fn solve_at_voltage(&self, voltage: f64) -> Result<ArrayOperatingPoint, FlowCellError> {
        let models = self.channel_models()?;
        let total = if models.len() == 1 {
            self.count as f64 * models[0].solve_at_voltage(voltage)?.current().value()
        } else {
            solve_channels_parallel(models, voltage)?
        };
        Ok(ArrayOperatingPoint {
            voltage: Volt::new(voltage),
            current: Ampere::new(total),
            power: Volt::new(voltage) * Ampere::new(total),
        })
    }

    /// Terminal voltage when the array delivers `target` total current.
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
        match &self.per_channel_temperatures {
            None => Ok(self
                .template
                .polarization_curve(n)?
                .scaled_parallel(self.count)),
            Some(_) => {
                if n < 2 {
                    return Err(FlowCellError::InvalidConfig(
                        "need at least 2 sweep points".into(),
                    ));
                }
                let ocv = self.template.open_circuit_voltage()?.value();
                let v_lo = 0.05_f64.min(ocv / 2.0);
                let voltages: Vec<f64> = (0..n)
                    .map(|k| v_lo + (ocv - 1e-4 - v_lo) * k as f64 / (n - 1) as f64)
                    .collect();
                // Channel-major sweep: each channel walks the whole
                // voltage ladder against its cached context with
                // warm-started root brackets; channels fan out across
                // worker threads.
                let models = self.channel_models()?;
                let per_channel = map_channels(models, |m| m.sweep_at_voltages(&voltages))?;
                let mut pts = Vec::with_capacity(n + 1);
                for (k, &v) in voltages.iter().enumerate() {
                    let total: f64 = per_channel
                        .iter()
                        .map(|sols| sols[k].current().value())
                        .sum();
                    pts.push(PolarizationPoint {
                        voltage: Volt::new(v),
                        current: Ampere::new(total),
                        power: Volt::new(v) * Ampere::new(total),
                    });
                }
                pts.push(PolarizationPoint {
                    voltage: Volt::new(ocv),
                    current: Ampere::new(0.0),
                    power: Watt::new(0.0),
                });
                PolarizationCurve::new(pts)
            }
        }
    }
}

/// Applies `f` to every channel model, fanning the channels across worker
/// threads (order-preserving). With a single worker — or a single model —
/// the work runs inline with zero thread overhead.
fn map_channels<R, F>(models: &[CellModel], f: F) -> Result<Vec<R>, FlowCellError>
where
    R: Send,
    F: Fn(&CellModel) -> Result<R, FlowCellError> + Sync,
{
    // Shared workspace-wide policy: BRIGHT_SWEEP_THREADS caps this inner
    // fan-out too, so outer scenario sweeps can serialize everything.
    map_channels_with_workers(models, bright_num::parallel::worker_count(models.len()), f)
}

/// [`map_channels`] with an explicit worker count (single-core hosts can
/// still exercise the threaded path, e.g. in tests). The execution
/// engine is shared workspace-wide: [`bright_num::parallel`].
fn map_channels_with_workers<R, F>(
    models: &[CellModel],
    workers: usize,
    f: F,
) -> Result<Vec<R>, FlowCellError>
where
    R: Send,
    F: Fn(&CellModel) -> Result<R, FlowCellError> + Sync,
{
    bright_num::parallel::parallel_map_indexed(models, workers, |_, m| f(m))
        .into_iter()
        .collect()
}

/// Solves many channel models at the same voltage on worker threads and
/// returns the summed current.
fn solve_channels_parallel(models: &[CellModel], voltage: f64) -> Result<f64, FlowCellError> {
    let currents = map_channels(models, |m| {
        Ok(m.solve_at_voltage(voltage)?.current().value())
    })?;
    Ok(currents.iter().sum())
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
        // force it and compare against the inline result.
        let temps: Vec<TemperatureProfile> = (0..6)
            .map(|k| TemperatureProfile::Uniform(Kelvin::new(300.0 + k as f64)))
            .collect();
        let template = presets::power7_channel().unwrap();
        let models: Vec<CellModel> = temps
            .iter()
            .map(|t| template.with_temperature(t.clone()).unwrap())
            .collect();
        let inline = map_channels_with_workers(&models, 1, |m| {
            Ok(m.solve_at_voltage(1.0)?.current().value())
        })
        .unwrap();
        let threaded = map_channels_with_workers(&models, 3, |m| {
            Ok(m.solve_at_voltage(1.0)?.current().value())
        })
        .unwrap();
        assert_eq!(inline, threaded);
        // Errors propagate from worker threads too.
        let err = map_channels_with_workers(&models, 3, |m| m.solve_at_voltage(-1.0).map(|_| ()));
        assert!(err.is_err());
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
        array.solve_at_voltage(1.0).unwrap();
        assert_eq!(
            array.distinct_geometry_contexts(),
            1,
            "all channels must ride one duct solution"
        );
        // A temperature-variant array built from the same (already
        // solved) array keeps sharing the template's duct solution.
        let variant = array.clone().with_channel_temperatures(temps(305.0)).unwrap();
        variant.solve_at_voltage(1.0).unwrap();
        assert_eq!(variant.distinct_geometry_contexts(), 1);
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
