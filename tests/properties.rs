//! Property-based tests (proptest) on the numerical substrate and the
//! physics invariants that every figure of the paper leans on.

use proptest::prelude::*;

use bright_silicon::echem::{ButlerVolmer, RedoxCouple, SurfaceState};
use bright_silicon::num::dense::DenseMatrix;
use bright_silicon::num::solvers::{bicgstab, conjugate_gradient, IterOptions};
use bright_silicon::num::tridiag::TridiagonalFactorization;
use bright_silicon::num::TripletMatrix;
use bright_silicon::units::{
    AmperePerSquareMeter, Celsius, Kelvin, MetersPerSecondRate, MolePerCubicMeter, Volt,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn temperature_roundtrip(c in -200.0..500.0f64) {
        let k = Celsius::new(c).to_kelvin();
        let back = k.to_celsius().value();
        prop_assert!((back - c).abs() < 1e-9);
    }

    #[test]
    fn tridiagonal_solves_match_dense(
        n in 2usize..12,
        seed in 0u64..1000,
    ) {
        // Diagonally dominant random-ish tridiagonal system.
        let val = |i: usize, salt: u64| {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
            ((x >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let lower: Vec<f64> = (0..n - 1).map(|i| val(i, 1)).collect();
        let upper: Vec<f64> = (0..n - 1).map(|i| val(i, 2)).collect();
        let diag: Vec<f64> = (0..n)
            .map(|i| {
                3.0 + val(i, 3).abs()
                    + if i > 0 { lower[i - 1].abs() } else { 0.0 }
                    + if i < n - 1 { upper[i].abs() } else { 0.0 }
            })
            .collect();
        let b: Vec<f64> = (0..n).map(|i| val(i, 4)).collect();

        let mut x_tri = b.clone();
        TridiagonalFactorization::factor(&lower, &diag, &upper)
            .unwrap()
            .solve_in_place(&mut x_tri)
            .unwrap();

        let mut rows = vec![vec![0.0; n]; n];
        for i in 0..n {
            rows[i][i] = diag[i];
            if i > 0 {
                rows[i][i - 1] = lower[i - 1];
            }
            if i < n - 1 {
                rows[i][i + 1] = upper[i];
            }
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let dense = DenseMatrix::from_rows(&row_refs).unwrap();
        let x_dense = dense.solve(&b).unwrap();
        for (a, d) in x_tri.iter().zip(&x_dense) {
            prop_assert!((a - d).abs() < 1e-9, "tri {a} vs dense {d}");
        }
    }

    #[test]
    fn cg_and_bicgstab_agree_on_spd_systems(
        n in 3usize..20,
        shift in 0.1..5.0f64,
    ) {
        // SPD: 1-D Laplacian + positive shift.
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + shift).unwrap();
            if i > 0 {
                t.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0).unwrap();
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let opts = IterOptions::default();
        let x1 = conjugate_gradient(&a, &b, None, &opts).unwrap().x;
        let x2 = bicgstab(&a, &b, None, &opts).unwrap().x;
        for (u, v) in x1.iter().zip(&x2) {
            prop_assert!((u - v).abs() < 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn butler_volmer_inverse_roundtrips(
        k0 in 1e-6..1e-4f64,
        c_ox in 10.0..3000.0f64,
        c_red in 10.0..3000.0f64,
        target in -2000.0..2000.0f64,
        t in 280.0..340.0f64,
    ) {
        let couple = RedoxCouple::new("p", Volt::new(0.0), 1, 0.5).unwrap();
        let bv = ButlerVolmer::new(
            couple,
            MetersPerSecondRate::new(k0),
            MolePerCubicMeter::new(c_ox),
            MolePerCubicMeter::new(c_red),
        )
        .unwrap();
        let surface = SurfaceState {
            c_ox: MolePerCubicMeter::new(c_ox * 0.7),
            c_red: MolePerCubicMeter::new(c_red * 0.8),
        };
        let tk = Kelvin::new(t);
        let eta = bv
            .overpotential_for_current(AmperePerSquareMeter::new(target), surface, tk)
            .unwrap();
        let back = bv.current_density(eta, surface, tk).unwrap().value();
        prop_assert!(
            (back - target).abs() < 1e-6 * target.abs().max(1.0),
            "target {target} -> eta {eta} -> {back}"
        );
    }

    #[test]
    fn butler_volmer_is_monotone_in_overpotential(
        k0 in 1e-6..1e-4f64,
        eta1 in -0.4..0.4f64,
        delta in 0.001..0.2f64,
    ) {
        let couple = RedoxCouple::new("p", Volt::new(0.0), 1, 0.5).unwrap();
        let bv = ButlerVolmer::new(
            couple,
            MetersPerSecondRate::new(k0),
            MolePerCubicMeter::new(1000.0),
            MolePerCubicMeter::new(1000.0),
        )
        .unwrap();
        let surface = SurfaceState {
            c_ox: MolePerCubicMeter::new(1000.0),
            c_red: MolePerCubicMeter::new(1000.0),
        };
        let tk = Kelvin::new(300.0);
        let i1 = bv.current_density(eta1, surface, tk).unwrap().value();
        let i2 = bv.current_density(eta1 + delta, surface, tk).unwrap().value();
        prop_assert!(i2 > i1);
    }

    #[test]
    fn nernst_potential_monotone_in_oxidant(
        c1 in 1.0..1000.0f64,
        factor in 1.01..10.0f64,
    ) {
        use bright_silicon::echem::nernst::equilibrium_potential;
        let couple = RedoxCouple::new("p", Volt::new(0.5), 1, 0.5).unwrap();
        let t = Kelvin::new(300.0);
        let red = MolePerCubicMeter::new(500.0);
        let e1 = equilibrium_potential(&couple, MolePerCubicMeter::new(c1), red, t).unwrap();
        let e2 =
            equilibrium_potential(&couple, MolePerCubicMeter::new(c1 * factor), red, t).unwrap();
        prop_assert!(e2.value() > e1.value());
    }
}

proptest! {
    // The transport marcher is more expensive: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn marcher_conserves_mass_for_any_flux(
        q in 0.0..5e-3f64,
        d in 1e-10..5e-10f64,
        v in 0.2..3.0f64,
    ) {
        use bright_silicon::flowcell::transport::HalfCellMarcher;
        let ny = 32;
        let nx = 50;
        let mut m =
            HalfCellMarcher::new(100e-6, 22e-3, nx, vec![v; ny], 2000.0, 1.0).unwrap();
        let inflow = m.convected_reactant_flux();
        let mut extracted = 0.0;
        for _ in 0..nx {
            let resp = m.prepare(d).unwrap();
            let q_applied = q.min(0.9 * resp.q_max);
            m.commit(q_applied);
            extracted += q_applied * m.dx();
        }
        let outflow = m.convected_reactant_flux();
        let balance = inflow - outflow - extracted;
        prop_assert!(
            balance.abs() <= 2e-3 * extracted.max(inflow * 1e-9) + 1e-12,
            "imbalance {balance} (extracted {extracted})"
        );
    }
}
