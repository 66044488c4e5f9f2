//! Property-based tests of the electrochemical relations.

use proptest::prelude::*;

use bright_echem::electrolyte::{area_specific_resistance, Electrolyte, IonicConductivity};
use bright_echem::nernst::equilibrium_potential;
use bright_echem::temperature::{diffusivity_law, rate_constant_law};
use bright_echem::vanadium;
use bright_echem::{ButlerVolmer, RedoxCouple, SurfaceState};
use bright_units::constants::{thermal_voltage, FARADAY};
use bright_units::{
    AmperePerSquareMeter, Kelvin, MetersPerSecondRate, MolePerCubicMeter, SiemensPerMeter, Volt,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nernst_is_antisymmetric_in_concentration_swap(
        c_ox in 1.0..5000.0f64,
        c_red in 1.0..5000.0f64,
        t in 280.0..340.0f64,
    ) {
        let couple = RedoxCouple::new("p", Volt::new(0.0), 1, 0.5).unwrap();
        let tk = Kelvin::new(t);
        let e1 = equilibrium_potential(
            &couple,
            MolePerCubicMeter::new(c_ox),
            MolePerCubicMeter::new(c_red),
            tk,
        )
        .unwrap()
        .value();
        let e2 = equilibrium_potential(
            &couple,
            MolePerCubicMeter::new(c_red),
            MolePerCubicMeter::new(c_ox),
            tk,
        )
        .unwrap()
        .value();
        prop_assert!((e1 + e2).abs() < 1e-12);
    }

    #[test]
    fn vanadium_ocv_grows_with_state_of_charge(
        soc in 0.05..0.90f64,
        dsoc in 0.01..0.09f64,
    ) {
        let total = MolePerCubicMeter::new(2000.0);
        let t = Kelvin::new(300.0);
        let pos = vanadium::positive_couple();
        let neg = vanadium::negative_couple();
        let ocv = |s: f64| {
            let p = Electrolyte::positive_at_soc(total, s).unwrap();
            let n = Electrolyte::negative_at_soc(total, s).unwrap();
            bright_echem::nernst::open_circuit_voltage(
                &pos, p.c_ox, p.c_red, &neg, n.c_ox, n.c_red, t,
            )
            .unwrap()
            .value()
        };
        prop_assert!(ocv(soc + dsoc) > ocv(soc));
    }

    #[test]
    fn exchange_current_grows_with_rate_constant_and_concentration(
        k0 in 1e-7..1e-4f64,
        c in 10.0..3000.0f64,
        factor in 1.1..5.0f64,
    ) {
        let couple = RedoxCouple::new("p", Volt::new(0.0), 1, 0.5).unwrap();
        let make = |k: f64, conc: f64| {
            ButlerVolmer::new(
                couple.clone(),
                MetersPerSecondRate::new(k),
                MolePerCubicMeter::new(conc),
                MolePerCubicMeter::new(conc),
            )
            .unwrap()
            .exchange_current_density()
            .value()
        };
        prop_assert!(make(k0 * factor, c) > make(k0, c));
        prop_assert!(make(k0, c * factor) > make(k0, c));
        // i0 = n F k0 c for equal concentrations and alpha = 1/2.
        let i0 = make(k0, c);
        prop_assert!((i0 - 96485.33212 * k0 * c).abs() < 1e-6 * i0);
    }

    #[test]
    fn butler_volmer_slope_positive_everywhere(
        eta in -0.5..0.5f64,
        c_ox_s in 0.0..2000.0f64,
        c_red_s in 0.0..2000.0f64,
    ) {
        let couple = RedoxCouple::new("p", Volt::new(0.0), 1, 0.5).unwrap();
        let bv = ButlerVolmer::new(
            couple,
            MetersPerSecondRate::new(1e-5),
            MolePerCubicMeter::new(1000.0),
            MolePerCubicMeter::new(1000.0),
        )
        .unwrap();
        let surf = SurfaceState {
            c_ox: MolePerCubicMeter::new(c_ox_s),
            c_red: MolePerCubicMeter::new(c_red_s),
        };
        let slope = bv.current_density_slope(eta, surf, Kelvin::new(300.0)).unwrap();
        prop_assert!(slope >= 0.0);
    }

    #[test]
    fn inversion_is_monotone_in_target(
        t1 in -1000.0..1000.0f64,
        dt in 1.0..500.0f64,
    ) {
        let couple = RedoxCouple::new("p", Volt::new(0.0), 1, 0.5).unwrap();
        let bv = ButlerVolmer::new(
            couple,
            MetersPerSecondRate::new(1e-5),
            MolePerCubicMeter::new(1000.0),
            MolePerCubicMeter::new(1000.0),
        )
        .unwrap();
        let surf = SurfaceState {
            c_ox: MolePerCubicMeter::new(800.0),
            c_red: MolePerCubicMeter::new(900.0),
        };
        let tk = Kelvin::new(300.0);
        let e1 = bv
            .overpotential_for_current(AmperePerSquareMeter::new(t1), surf, tk)
            .unwrap();
        let e2 = bv
            .overpotential_for_current(AmperePerSquareMeter::new(t1 + dt), surf, tk)
            .unwrap();
        prop_assert!(e2 > e1);
    }

    #[test]
    fn stamped_inversion_matches_reference_closed_form_bitwise(
        t in 273.0..373.0f64,
        k0 in 1e-7..1e-4f64,
        c_ox_s in 0.0..3000.0f64,
        c_red_s in 0.0..3000.0f64,
        target in -5e4..5e4f64,
    ) {
        for bv in [
            vanadium::power7_cell_chemistry().negative.kinetics,
            vanadium::power7_cell_chemistry().positive.kinetics,
        ] {
            let bv = bv.with_rate_constant(MetersPerSecondRate::new(k0)).unwrap();
            let surface = SurfaceState {
                c_ox: MolePerCubicMeter::new(c_ox_s),
                c_red: MolePerCubicMeter::new(c_red_s),
            };
            let tk = Kelvin::new(t);
            let want = reference_symmetric_inversion(&bv, target, surface, tk);
            let stamped = bv
                .overpotential_with(
                    &bv.inversion_constants(tk).unwrap(),
                    AmperePerSquareMeter::new(target),
                    surface,
                )
                .ok();
            let direct = bv
                .overpotential_for_current(AmperePerSquareMeter::new(target), surface, tk)
                .ok();
            prop_assert!(
                stamped.map(f64::to_bits) == want.map(f64::to_bits),
                "stamped {stamped:?} vs reference {want:?}"
            );
            prop_assert!(direct.map(f64::to_bits) == want.map(f64::to_bits));
        }
    }

    #[test]
    fn arrhenius_laws_are_monotone_and_positive(
        ref_val in 1e-12..1e-3f64,
        t in 275.0..345.0f64,
        dt in 0.5..30.0f64,
    ) {
        let t_ref = Kelvin::new(300.0);
        for law in [
            rate_constant_law(ref_val, t_ref).unwrap(),
            diffusivity_law(ref_val, t_ref).unwrap(),
        ] {
            let v1 = law.at(Kelvin::new(t)).unwrap();
            let v2 = law.at(Kelvin::new(t + dt)).unwrap();
            prop_assert!(v1 > 0.0);
            prop_assert!(v2 > v1);
        }
    }

    #[test]
    fn asr_scales_linearly_with_gap(
        gap in 1e-5..1e-2f64,
        sigma in 1.0..100.0f64,
        factor in 1.1..10.0f64,
    ) {
        let s = SiemensPerMeter::new(sigma);
        let r1 = area_specific_resistance(gap, s).unwrap();
        let r2 = area_specific_resistance(gap * factor, s).unwrap();
        prop_assert!((r2 / r1 - factor).abs() < 1e-12);
    }

    #[test]
    fn conductivity_model_positive_in_operating_range(t in 280.0..360.0f64) {
        let sigma = IonicConductivity::vanadium_default()
            .at(Kelvin::new(t))
            .unwrap();
        prop_assert!(sigma.value() > 0.0);
    }
}

/// The `α = ½` Butler–Volmer inversion written out as it stood before
/// the constants were stamped per temperature: `i₀` (two `powf`) and
/// `F/RT` recomputed inline. `None` where the inversion errors.
fn reference_symmetric_inversion(
    bv: &ButlerVolmer,
    target: f64,
    surface: SurfaceState,
    t: Kelvin,
) -> Option<f64> {
    let a_red = surface.c_red / bv.c_red_ref();
    let a_ox = surface.c_ox / bv.c_ox_ref();
    if !a_red.is_finite() || !a_ox.is_finite() || a_red < 0.0 || a_ox < 0.0 {
        return None;
    }
    let n = bv.couple().electrons() as f64;
    let a = bv.couple().alpha();
    let i0 = n
        * FARADAY
        * bv.rate_constant().value()
        * bv.c_ox_ref().value().powf(1.0 - a)
        * bv.c_red_ref().value().powf(a);
    let y = target / i0;
    if (a_red <= 0.0 && y > 0.0) || (a_ox <= 0.0 && y < 0.0) {
        return None;
    }
    let f_over_rt = n / thermal_voltage(t.value());
    let disc = (y * y + 4.0 * a_red * a_ox).sqrt();
    let x = if a_red > 0.0 {
        (y + disc) / (2.0 * a_red)
    } else {
        -a_ox / y
    };
    if !x.is_finite() || x <= 0.0 {
        return None;
    }
    Some(2.0 * x.ln() / f_over_rt)
}
