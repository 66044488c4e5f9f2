//! Butler–Volmer electrode kinetics (paper eq. 6).
//!
//! Sign convention: **anodic current is positive**. For a couple
//! `Ox + n·e⁻ ⇌ Red` at overpotential `η = E − E_eq`:
//!
//! ```text
//! i = i₀ · [ (C_red,s/C_red,ref)·exp((1−α)·n·F·η/(R·T))
//!          − (C_ox,s /C_ox,ref )·exp(−α·n·F·η/(R·T)) ]
//! ```
//!
//! with the exchange current density
//! `i₀ = n·F·k⁰·C_ox,ref^(1−α)·C_red,ref^α`. The surface-concentration
//! ratios implicitly contain the mass-transfer overpotential, exactly as
//! the paper notes below its eq. (6).

use crate::{EchemError, RedoxCouple};
use bright_units::constants::FARADAY;
use bright_units::constants::thermal_voltage;
use bright_units::{AmperePerSquareMeter, Kelvin, MetersPerSecondRate, MolePerCubicMeter};

/// Butler–Volmer kinetics for one electrode.
///
/// Holds the couple, the kinetic rate constant `k⁰` and the reference
/// (inlet bulk) concentrations that normalize the surface terms.
#[derive(Debug, Clone, PartialEq)]
pub struct ButlerVolmer {
    couple: RedoxCouple,
    rate_constant: MetersPerSecondRate,
    c_ox_ref: MolePerCubicMeter,
    c_red_ref: MolePerCubicMeter,
}

/// Surface concentrations at an electrode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceState {
    /// Oxidized-species concentration at the electrode surface.
    pub c_ox: MolePerCubicMeter,
    /// Reduced-species concentration at the electrode surface.
    pub c_red: MolePerCubicMeter,
}

/// The temperature-resolved constants of a Butler–Volmer inversion,
/// stamped by [`ButlerVolmer::inversion_constants`] or
/// [`InversionStamp::at`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InversionConstants {
    i0: f64,
    f_over_rt: f64,
    c_ox_ref: f64,
    c_red_ref: f64,
    alpha: f64,
    symmetric: bool,
}

/// The temperature-independent part of [`InversionConstants`]: the
/// couple's electron count and transfer coefficient, the reference
/// concentrations and the two `powf` of the `i₀` prefactor. Stamped once
/// per electrode by [`ButlerVolmer::inversion_stamp`], it gives the
/// constants at any rate constant and temperature with no `powf` and no
/// allocation — what a caller resolving many temperatures of one
/// electrode (a flow cell's stations) needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InversionStamp {
    n: f64,
    alpha: f64,
    /// `C_ox,ref^(1−α)`.
    ox_factor: f64,
    /// `C_red,ref^α`.
    red_factor: f64,
    c_ox_ref: f64,
    c_red_ref: f64,
}

impl InversionStamp {
    /// The inversion constants at rate constant `k⁰` and temperature
    /// `t`: bitwise those of [`ButlerVolmer::inversion_constants`] on
    /// the stamped kinetics with their rate constant set to `k⁰`
    /// ([`ButlerVolmer::with_rate_constant`]), since `i₀` multiplies the
    /// same factors in the same order.
    ///
    /// # Errors
    ///
    /// [`EchemError::InvalidParameter`] for a non-positive or
    /// non-finite `k⁰` (as [`ButlerVolmer::new`]) and
    /// [`EchemError::InvalidTemperature`] for non-physical `t`.
    pub fn at(
        &self,
        rate_constant: MetersPerSecondRate,
        t: Kelvin,
    ) -> Result<InversionConstants, EchemError> {
        if !(rate_constant.value() > 0.0 && rate_constant.is_finite()) {
            return Err(EchemError::InvalidParameter(format!(
                "rate constant must be positive and finite, got {rate_constant}"
            )));
        }
        if !t.is_physical() {
            return Err(EchemError::InvalidTemperature(format!(
                "non-physical temperature {t}"
            )));
        }
        Ok(InversionConstants {
            i0: self.n * FARADAY * rate_constant.value() * self.ox_factor * self.red_factor,
            f_over_rt: self.n / thermal_voltage(t.value()),
            c_ox_ref: self.c_ox_ref,
            c_red_ref: self.c_red_ref,
            alpha: self.alpha,
            symmetric: (self.alpha - 0.5).abs() < 1e-12,
        })
    }
}

impl InversionConstants {
    /// The overpotential `η` that drives current density `target`
    /// (anodic positive) at the given surface state: closed-form for
    /// `α = ½`, a damped Newton iteration seeded from the symmetric
    /// solution otherwise. The arithmetic of
    /// [`ButlerVolmer::overpotential_for_current`] at the stamped rate
    /// constant and temperature, so the same bits.
    ///
    /// # Errors
    ///
    /// * [`EchemError::InvalidConcentration`] for negative or
    ///   non-finite surface ratios,
    /// * [`EchemError::InfeasibleOperatingPoint`] if the anodic branch
    ///   is required (`target > 0`) but the reduced species is fully
    ///   depleted at the surface (or vice versa for cathodic currents).
    pub fn overpotential(
        &self,
        target: AmperePerSquareMeter,
        surface: SurfaceState,
    ) -> Result<f64, EchemError> {
        let symmetric_eta = self.symmetric_overpotential(target.value(), surface)?;
        if self.symmetric {
            return Ok(symmetric_eta);
        }
        // General alpha: damped Newton on the monotone BV curve. The
        // symmetric solve has checked the surface ratios, so the
        // current and its slope are defined everywhere below.
        let (a, f) = (self.alpha, self.f_over_rt);
        let a_red = surface.c_red.value() / self.c_red_ref;
        let a_ox = surface.c_ox.value() / self.c_ox_ref;
        let mut eta = symmetric_eta;
        for _ in 0..100 {
            let anodic = a_red * ((1.0 - a) * f * eta).exp();
            let cathodic = a_ox * (-a * f * eta).exp();
            let resid = self.i0 * (anodic - cathodic) - target.value();
            let slope = self.i0
                * (a_red * (1.0 - a) * f * ((1.0 - a) * f * eta).exp()
                    + a_ox * a * f * (-a * f * eta).exp());
            if slope <= 0.0 || !slope.is_finite() {
                break;
            }
            let mut step = resid / slope;
            let scale = 2.0 / f;
            if step.abs() > scale {
                step = step.signum() * scale;
            }
            eta -= step;
            if step.abs() < 1e-14 {
                break;
            }
        }
        Ok(eta)
    }

    /// The closed-form (`α = ½`) overpotential for current density
    /// `target`: with `X = exp(n·F·η/(2RT))`, the root of
    /// `a_red·X² − (i/i₀)·X − a_ox = 0`.
    fn symmetric_overpotential(
        &self,
        target: f64,
        surface: SurfaceState,
    ) -> Result<f64, EchemError> {
        let a_red = surface.c_red.value() / self.c_red_ref;
        let a_ox = surface.c_ox.value() / self.c_ox_ref;
        if !a_red.is_finite() || !a_ox.is_finite() || a_red < 0.0 || a_ox < 0.0 {
            return Err(EchemError::InvalidConcentration(format!(
                "bad surface ratios a_red={a_red}, a_ox={a_ox}"
            )));
        }
        let y = target / self.i0;
        if a_red <= 0.0 && y > 0.0 {
            return Err(EchemError::InfeasibleOperatingPoint(
                "anodic current demanded with depleted reductant".into(),
            ));
        }
        if a_ox <= 0.0 && y < 0.0 {
            return Err(EchemError::InfeasibleOperatingPoint(
                "cathodic current demanded with depleted oxidant".into(),
            ));
        }
        let disc = (y * y + 4.0 * a_red * a_ox).sqrt();
        let x = if a_red > 0.0 {
            (y + disc) / (2.0 * a_red)
        } else {
            // a_red == 0, y <= 0: X = -a_ox / y.
            -a_ox / y
        };
        if !x.is_finite() || x <= 0.0 {
            return Err(EchemError::InfeasibleOperatingPoint(format!(
                "no overpotential satisfies i/i0 = {y:.3e} at a_red={a_red:.3e}, \
                 a_ox={a_ox:.3e}"
            )));
        }
        Ok(2.0 * x.ln() / self.f_over_rt)
    }
}

impl ButlerVolmer {
    /// Creates the kinetics for `couple` with rate constant `k⁰` and
    /// reference bulk concentrations.
    ///
    /// # Errors
    ///
    /// Returns [`EchemError::InvalidParameter`] for a non-positive rate
    /// constant and [`EchemError::InvalidConcentration`] for non-positive
    /// reference concentrations.
    pub fn new(
        couple: RedoxCouple,
        rate_constant: MetersPerSecondRate,
        c_ox_ref: MolePerCubicMeter,
        c_red_ref: MolePerCubicMeter,
    ) -> Result<Self, EchemError> {
        if !(rate_constant.value() > 0.0 && rate_constant.is_finite()) {
            return Err(EchemError::InvalidParameter(format!(
                "rate constant must be positive and finite, got {rate_constant}"
            )));
        }
        for (name, c) in [("oxidant", c_ox_ref), ("reductant", c_red_ref)] {
            if !(c.value() > 0.0 && c.is_finite()) {
                return Err(EchemError::InvalidConcentration(format!(
                    "reference {name} concentration must be positive, got {c}"
                )));
            }
        }
        Ok(Self {
            couple,
            rate_constant,
            c_ox_ref,
            c_red_ref,
        })
    }

    /// The redox couple.
    #[inline]
    pub fn couple(&self) -> &RedoxCouple {
        &self.couple
    }

    /// The kinetic rate constant `k⁰`.
    #[inline]
    pub fn rate_constant(&self) -> MetersPerSecondRate {
        self.rate_constant
    }

    /// Reference oxidant concentration.
    #[inline]
    pub fn c_ox_ref(&self) -> MolePerCubicMeter {
        self.c_ox_ref
    }

    /// Reference reductant concentration.
    #[inline]
    pub fn c_red_ref(&self) -> MolePerCubicMeter {
        self.c_red_ref
    }

    /// The temperature-independent part of the inversion constants
    /// ([`InversionStamp`]): two `powf`, once per electrode.
    pub fn inversion_stamp(&self) -> InversionStamp {
        let a = self.couple.alpha();
        InversionStamp {
            n: self.couple.electrons() as f64,
            alpha: a,
            ox_factor: self.c_ox_ref.value().powf(1.0 - a),
            red_factor: self.c_red_ref.value().powf(a),
            c_ox_ref: self.c_ox_ref.value(),
            c_red_ref: self.c_red_ref.value(),
        }
    }

    /// Returns a copy with a different rate constant (used by the
    /// temperature coupling).
    pub fn with_rate_constant(&self, k0: MetersPerSecondRate) -> Result<Self, EchemError> {
        Self::new(self.couple.clone(), k0, self.c_ox_ref, self.c_red_ref)
    }

    /// Exchange current density
    /// `i₀ = n·F·k⁰·C_ox,ref^(1−α)·C_red,ref^α` (A/m²).
    pub fn exchange_current_density(&self) -> AmperePerSquareMeter {
        let n = self.couple.electrons() as f64;
        let a = self.couple.alpha();
        AmperePerSquareMeter::new(
            n * FARADAY
                * self.rate_constant.value()
                * self.c_ox_ref.value().powf(1.0 - a)
                * self.c_red_ref.value().powf(a),
        )
    }

    /// Net anodic current density at overpotential `eta` (V) with the given
    /// surface concentrations, eq. (6) of the paper in standard form.
    ///
    /// # Errors
    ///
    /// * [`EchemError::InvalidTemperature`] for non-physical `t`,
    /// * [`EchemError::InvalidConcentration`] for negative surface
    ///   concentrations (zero is allowed — full depletion).
    pub fn current_density(
        &self,
        eta: f64,
        surface: SurfaceState,
        t: Kelvin,
    ) -> Result<AmperePerSquareMeter, EchemError> {
        if !t.is_physical() {
            return Err(EchemError::InvalidTemperature(format!(
                "non-physical temperature {t}"
            )));
        }
        for (name, c) in [("oxidant", surface.c_ox), ("reductant", surface.c_red)] {
            if !(c.value() >= 0.0 && c.is_finite()) {
                return Err(EchemError::InvalidConcentration(format!(
                    "surface {name} concentration must be non-negative, got {c}"
                )));
            }
        }
        let n = self.couple.electrons() as f64;
        let a = self.couple.alpha();
        let f_over_rt = n / thermal_voltage(t.value());
        let i0 = self.exchange_current_density().value();
        let anodic = (surface.c_red / self.c_red_ref) * ((1.0 - a) * f_over_rt * eta).exp();
        let cathodic = (surface.c_ox / self.c_ox_ref) * (-a * f_over_rt * eta).exp();
        Ok(AmperePerSquareMeter::new(i0 * (anodic - cathodic)))
    }

    /// Derivative `∂i/∂η` at the given state (used by Newton iterations).
    ///
    /// # Errors
    ///
    /// As [`ButlerVolmer::current_density`].
    pub fn current_density_slope(
        &self,
        eta: f64,
        surface: SurfaceState,
        t: Kelvin,
    ) -> Result<f64, EchemError> {
        if !t.is_physical() {
            return Err(EchemError::InvalidTemperature(format!(
                "non-physical temperature {t}"
            )));
        }
        let n = self.couple.electrons() as f64;
        let a = self.couple.alpha();
        let f_over_rt = n / thermal_voltage(t.value());
        let i0 = self.exchange_current_density().value();
        let anodic = (surface.c_red / self.c_red_ref)
            * (1.0 - a)
            * f_over_rt
            * ((1.0 - a) * f_over_rt * eta).exp();
        let cathodic =
            (surface.c_ox / self.c_ox_ref) * a * f_over_rt * (-a * f_over_rt * eta).exp();
        Ok(i0 * (anodic + cathodic))
    }

    /// Inverts Butler–Volmer: the overpotential `η` that drives current
    /// density `target` (anodic positive) at the given surface state.
    ///
    /// For the symmetric case `α = ½` (all vanadium couples in this
    /// workspace) the inversion is closed-form: with `X = exp(n·F·η/(2RT))`
    /// the kinetics become the quadratic `a_red·X² − (i/i₀)·X − a_ox = 0`.
    /// For other `α` a damped Newton iteration seeded from the symmetric
    /// solution is used.
    ///
    /// Equivalent to [`ButlerVolmer::overpotential_with`] on the
    /// constants of [`ButlerVolmer::inversion_constants`]`(t)`.
    ///
    /// # Errors
    ///
    /// * [`EchemError::InvalidTemperature`] / `InvalidConcentration` as for
    ///   [`ButlerVolmer::current_density`],
    /// * [`EchemError::InfeasibleOperatingPoint`] if the anodic branch is
    ///   required (`target > 0`) but the reduced species is fully depleted
    ///   at the surface (or vice versa for cathodic currents).
    pub fn overpotential_for_current(
        &self,
        target: AmperePerSquareMeter,
        surface: SurfaceState,
        t: Kelvin,
    ) -> Result<f64, EchemError> {
        self.overpotential_with(&self.inversion_constants(t)?, target, surface)
    }

    /// The temperature-resolved constants of the inversion (`i₀`,
    /// `n·F/(R·T)`, the reference concentrations, the `α = ½` flag).
    /// A caller that inverts many times at one temperature stamps them
    /// once and passes them to [`ButlerVolmer::overpotential_with`],
    /// skipping the two `powf` of `i₀` per call.
    ///
    /// # Errors
    ///
    /// [`EchemError::InvalidTemperature`] for non-physical `t`.
    pub fn inversion_constants(&self, t: Kelvin) -> Result<InversionConstants, EchemError> {
        self.inversion_stamp().at(self.rate_constant, t)
    }

    /// [`ButlerVolmer::overpotential_for_current`] against constants
    /// stamped by [`ButlerVolmer::inversion_constants`] on these
    /// kinetics: [`InversionConstants::overpotential`], the same
    /// arithmetic, so the same bits.
    ///
    /// # Errors
    ///
    /// As [`ButlerVolmer::overpotential_for_current`], minus the
    /// temperature check the stamp already made.
    pub fn overpotential_with(
        &self,
        k: &InversionConstants,
        target: AmperePerSquareMeter,
        surface: SurfaceState,
    ) -> Result<f64, EchemError> {
        k.overpotential(target, surface)
    }

    /// Charge-transfer resistance per unit area at equilibrium:
    /// `R_ct = R·T/(n·F·i₀)` (Ω·m²) — the small-signal linearization of
    /// Butler–Volmer.
    pub fn charge_transfer_resistance(&self, t: Kelvin) -> Result<f64, EchemError> {
        if !t.is_physical() {
            return Err(EchemError::InvalidTemperature(format!(
                "non-physical temperature {t}"
            )));
        }
        let n = self.couple.electrons() as f64;
        Ok(thermal_voltage(t.value()) / (n * self.exchange_current_density().value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bright_units::Volt;

    fn bv() -> ButlerVolmer {
        let couple = RedoxCouple::new("test", Volt::new(0.0), 1, 0.5).unwrap();
        ButlerVolmer::new(
            couple,
            MetersPerSecondRate::new(1e-5),
            MolePerCubicMeter::new(1000.0),
            MolePerCubicMeter::new(1000.0),
        )
        .unwrap()
    }

    fn bulk() -> SurfaceState {
        SurfaceState {
            c_ox: MolePerCubicMeter::new(1000.0),
            c_red: MolePerCubicMeter::new(1000.0),
        }
    }

    #[test]
    fn zero_overpotential_gives_zero_current() {
        let i = bv()
            .current_density(0.0, bulk(), Kelvin::new(300.0))
            .unwrap();
        assert!(i.value().abs() < 1e-12);
    }

    #[test]
    fn exchange_current_density_formula() {
        // i0 = F k0 sqrt(Cox Cred) = 96485 * 1e-5 * 1000 = 964.85 A/m2.
        let i0 = bv().exchange_current_density();
        assert!((i0.value() - 964.85).abs() < 0.01);
    }

    #[test]
    fn anodic_positive_cathodic_negative() {
        let b = bv();
        let t = Kelvin::new(300.0);
        assert!(b.current_density(0.1, bulk(), t).unwrap().value() > 0.0);
        assert!(b.current_density(-0.1, bulk(), t).unwrap().value() < 0.0);
    }

    #[test]
    fn symmetric_alpha_gives_antisymmetric_curve() {
        let b = bv();
        let t = Kelvin::new(300.0);
        let ip = b.current_density(0.05, bulk(), t).unwrap().value();
        let im = b.current_density(-0.05, bulk(), t).unwrap().value();
        assert!((ip + im).abs() < 1e-9 * ip.abs().max(1.0));
    }

    #[test]
    fn depleted_surface_kills_anodic_branch() {
        let b = bv();
        let t = Kelvin::new(300.0);
        let depleted = SurfaceState {
            c_ox: MolePerCubicMeter::new(1000.0),
            c_red: MolePerCubicMeter::new(0.0),
        };
        // Large positive overpotential but no reductant at the surface:
        // only the (small) cathodic branch remains -> negative current.
        let i = b.current_density(0.3, depleted, t).unwrap();
        assert!(i.value() <= 0.0, "i = {i}");
    }

    #[test]
    fn slope_matches_finite_difference() {
        let b = bv();
        let t = Kelvin::new(300.0);
        let eta = 0.07;
        let h = 1e-7;
        let slope = b.current_density_slope(eta, bulk(), t).unwrap();
        let fd = (b.current_density(eta + h, bulk(), t).unwrap().value()
            - b.current_density(eta - h, bulk(), t).unwrap().value())
            / (2.0 * h);
        assert!(((slope - fd) / fd).abs() < 1e-6, "{slope} vs {fd}");
    }

    #[test]
    fn tafel_slope_at_large_overpotential() {
        // At eta >> RT/F, d(ln i)/d(eta) -> (1-a) F/(RT).
        let b = bv();
        let t = Kelvin::new(300.0);
        let e1 = 0.25;
        let e2 = 0.26;
        let i1 = b.current_density(e1, bulk(), t).unwrap().value();
        let i2 = b.current_density(e2, bulk(), t).unwrap().value();
        let slope = (i2.ln() - i1.ln()) / (e2 - e1);
        let expected = 0.5 / thermal_voltage(300.0);
        assert!((slope - expected).abs() / expected < 1e-3);
    }

    #[test]
    fn charge_transfer_resistance_is_small_signal_inverse_slope() {
        let b = bv();
        let t = Kelvin::new(300.0);
        let rct = b.charge_transfer_resistance(t).unwrap();
        let slope = b.current_density_slope(0.0, bulk(), t).unwrap();
        assert!((rct - 1.0 / slope).abs() / rct < 1e-12);
    }

    #[test]
    fn inversion_roundtrips_symmetric() {
        let b = bv();
        let t = Kelvin::new(300.0);
        for target in [-500.0, -50.0, 0.0, 50.0, 500.0, 5000.0] {
            let eta = b
                .overpotential_for_current(AmperePerSquareMeter::new(target), bulk(), t)
                .unwrap();
            let back = b.current_density(eta, bulk(), t).unwrap().value();
            assert!(
                (back - target).abs() < 1e-8 * target.abs().max(1.0),
                "target {target}: eta {eta} -> {back}"
            );
        }
    }

    #[test]
    fn inversion_at_zero_current_is_local_nernst_shift() {
        let b = bv();
        let t = Kelvin::new(300.0);
        let skewed = SurfaceState {
            c_ox: MolePerCubicMeter::new(2000.0),
            c_red: MolePerCubicMeter::new(500.0),
        };
        let eta = b
            .overpotential_for_current(AmperePerSquareMeter::new(0.0), skewed, t)
            .unwrap();
        // eta(0) = (RT/nF) ln(a_ox/a_red) = Vt ln(2.0/0.5).
        let expected = thermal_voltage(300.0) * (4.0_f64).ln();
        assert!((eta - expected).abs() < 1e-12, "{eta} vs {expected}");
    }

    #[test]
    fn inversion_roundtrips_asymmetric_alpha() {
        let couple = RedoxCouple::new("asym", Volt::new(0.0), 1, 0.3).unwrap();
        let b = ButlerVolmer::new(
            couple,
            MetersPerSecondRate::new(1e-5),
            MolePerCubicMeter::new(1000.0),
            MolePerCubicMeter::new(1000.0),
        )
        .unwrap();
        let t = Kelvin::new(300.0);
        for target in [-800.0, -10.0, 10.0, 800.0] {
            let eta = b
                .overpotential_for_current(AmperePerSquareMeter::new(target), bulk(), t)
                .unwrap();
            let back = b.current_density(eta, bulk(), t).unwrap().value();
            assert!(
                (back - target).abs() < 1e-6 * target.abs().max(1.0),
                "target {target}: eta {eta} -> {back}"
            );
        }
    }

    /// The general-α inversion as it ran before the constants carried
    /// α: a damped Newton on `current_density` and its slope, from the
    /// symmetric solution. The reference the constants' own Newton must
    /// reproduce bit for bit.
    fn reference_inversion(b: &ButlerVolmer, target: f64, surface: SurfaceState, t: Kelvin) -> f64 {
        let k = b.inversion_constants(t).unwrap();
        let mut eta = k.symmetric_overpotential(target, surface).unwrap();
        if k.symmetric {
            return eta;
        }
        for _ in 0..100 {
            let i = b.current_density(eta, surface, t).unwrap().value();
            let slope = b.current_density_slope(eta, surface, t).unwrap();
            if slope <= 0.0 || !slope.is_finite() {
                break;
            }
            let mut step = (i - target) / slope;
            let scale = 2.0 / k.f_over_rt;
            if step.abs() > scale {
                step = step.signum() * scale;
            }
            eta -= step;
            if step.abs() < 1e-14 {
                break;
            }
        }
        eta
    }

    #[test]
    fn a_stamp_at_a_rate_constant_matches_the_rebuilt_electrode_bitwise() {
        for alpha in [0.5, 0.3] {
            let couple = RedoxCouple::new("stamp", Volt::new(0.1), 1, alpha).unwrap();
            let base = ButlerVolmer::new(
                couple,
                MetersPerSecondRate::new(1e-5),
                MolePerCubicMeter::new(850.0),
                MolePerCubicMeter::new(1200.0),
            )
            .unwrap();
            let stamp = base.inversion_stamp();
            for (k0, t) in [(1e-5, 300.0), (3.7e-6, 312.5), (2.2e-4, 295.0)] {
                let (k0, t) = (MetersPerSecondRate::new(k0), Kelvin::new(t));
                let rebuilt = base.with_rate_constant(k0).unwrap();
                let want = rebuilt.inversion_constants(t).unwrap();
                assert_eq!(stamp.at(k0, t).unwrap(), want);
                assert_eq!(
                    want.i0.to_bits(),
                    rebuilt.exchange_current_density().value().to_bits()
                );
                for target in [-700.0, -3.0, 0.0, 45.0, 900.0] {
                    let reference = reference_inversion(&rebuilt, target, bulk(), t);
                    let target = AmperePerSquareMeter::new(target);
                    let eta = want.overpotential(target, bulk()).unwrap();
                    let direct = rebuilt
                        .overpotential_for_current(target, bulk(), t)
                        .unwrap();
                    assert_eq!(eta.to_bits(), reference.to_bits(), "alpha {alpha}");
                    assert_eq!(direct.to_bits(), reference.to_bits(), "alpha {alpha}");
                }
            }
            assert!(stamp
                .at(MetersPerSecondRate::new(0.0), Kelvin::new(300.0))
                .is_err());
            assert!(stamp
                .at(MetersPerSecondRate::new(1e-5), Kelvin::new(-1.0))
                .is_err());
        }
    }

    #[test]
    fn inversion_rejects_depleted_demands() {
        let b = bv();
        let t = Kelvin::new(300.0);
        let no_red = SurfaceState {
            c_ox: MolePerCubicMeter::new(1000.0),
            c_red: MolePerCubicMeter::new(0.0),
        };
        assert!(matches!(
            b.overpotential_for_current(AmperePerSquareMeter::new(100.0), no_red, t),
            Err(EchemError::InfeasibleOperatingPoint(_))
        ));
        // Cathodic current through the depleted-red surface is fine.
        assert!(b
            .overpotential_for_current(AmperePerSquareMeter::new(-100.0), no_red, t)
            .is_ok());
    }

    #[test]
    fn validation() {
        let couple = RedoxCouple::new("t", Volt::new(0.0), 1, 0.5).unwrap();
        assert!(ButlerVolmer::new(
            couple.clone(),
            MetersPerSecondRate::new(0.0),
            MolePerCubicMeter::new(1.0),
            MolePerCubicMeter::new(1.0)
        )
        .is_err());
        assert!(ButlerVolmer::new(
            couple,
            MetersPerSecondRate::new(1e-5),
            MolePerCubicMeter::new(-1.0),
            MolePerCubicMeter::new(1.0)
        )
        .is_err());
        let b = bv();
        assert!(b.current_density(0.0, bulk(), Kelvin::new(0.0)).is_err());
        let bad = SurfaceState {
            c_ox: MolePerCubicMeter::new(-5.0),
            c_red: MolePerCubicMeter::new(1.0),
        };
        assert!(b.current_density(0.0, bad, Kelvin::new(300.0)).is_err());
    }
}
