//! Property-based tests of the numerical kernels.

use proptest::prelude::*;

use bright_num::dense::DenseMatrix;
use bright_num::roots::{brent, brent_bracketed, RootOptions};
use bright_num::session::next_operator_tag;
use bright_num::solvers::{
    bicgstab, bicgstab_preconditioned, conjugate_gradient, conjugate_gradient_preconditioned,
    IterOptions, KrylovWorkspace,
};
use bright_num::tridiag::TridiagonalFactorization;
use bright_num::vec_ops;
use bright_num::{
    BandedCholesky, CsrMatrix, PrecondSpec, Preconditioner, SolverSession, TripletMatrix,
};

fn lcg(seed: u64, i: u64, salt: u64) -> f64 {
    let x = i
        .wrapping_mul(6364136223846793005)
        .wrapping_add(seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15));
    ((x >> 33) as f64 / (1u64 << 31) as f64) - 0.5
}

/// `opts.preconditioner` built and set up on `a`.
fn set_up(opts: &IterOptions, a: &CsrMatrix) -> Box<dyn Preconditioner> {
    let mut m = opts.preconditioner.build();
    m.setup(a).unwrap();
    m
}

/// Random SPD system: symmetric off-diagonals under a dominant diagonal.
fn random_spd(n: usize, seed: u64) -> bright_num::CsrMatrix {
    random_spd_triplets(n, seed).to_csr()
}

/// Triplet form of [`random_spd`], for session tests.
fn random_spd_triplets(n: usize, seed: u64) -> TripletMatrix {
    let mut t = TripletMatrix::new(n, n);
    let mut diag = vec![1.0; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v = lcg(seed, (i * n + j) as u64, 41) * 0.5;
            if v.abs() > 0.1 {
                t.push(i, j, v).unwrap();
                t.push(j, i, v).unwrap();
                diag[i] += v.abs();
                diag[j] += v.abs();
            }
        }
    }
    for (i, d) in diag.iter().enumerate() {
        t.push(i, i, d + 0.5).unwrap();
    }
    t
}

/// Random nonsymmetric diagonally dominant system (upwind-like).
fn random_nonsymmetric(n: usize, seed: u64) -> bright_num::CsrMatrix {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        let peclet = 0.5 + lcg(seed, i as u64, 43).abs() * 4.0;
        t.push(i, i, 2.0 + peclet + lcg(seed, i as u64, 47).abs()).unwrap();
        if i > 0 {
            t.push(i, i - 1, -1.0 - peclet).unwrap();
        }
        if i + 1 < n {
            t.push(i, i + 1, -1.0).unwrap();
        }
    }
    t.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_matvec_matches_dense(n in 1usize..10, seed in 0u64..500) {
        let mut t = TripletMatrix::new(n, n);
        let mut rows = vec![vec![0.0; n]; n];
        // i/j index both the triplets and the dense mirror; the range
        // loop is the clear form here.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in 0..n {
                let v = lcg(seed, (i * n + j) as u64, 7);
                if v.abs() > 0.2 {
                    t.push(i, j, v).unwrap();
                    rows[i][j] = v;
                }
            }
        }
        let a = t.to_csr();
        let x: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 13)).collect();
        let sparse = a.matvec(&x).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let dense: f64 = vec_ops::dot(row, &x);
            prop_assert!((sparse[i] - dense).abs() < 1e-12);
        }
    }

    #[test]
    fn cg_solves_random_spd(n in 2usize..16, seed in 0u64..200) {
        // A = B^T B + I is SPD for any B.
        let b_mat: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| lcg(seed, (i * n + j) as u64, 3)).collect())
            .collect();
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = if i == j { 1.0 } else { 0.0 };
                for (k, _) in b_mat.iter().enumerate() {
                    acc += b_mat[k][i] * b_mat[k][j];
                }
                t.push(i, j, acc).unwrap();
            }
        }
        let a = t.to_csr();
        let x_true: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 17)).collect();
        let rhs = a.matvec(&x_true).unwrap();
        let sol = conjugate_gradient(&a, &rhs, None, &IterOptions {
            tolerance: 1e-12,
            max_iterations: 20_000,
            preconditioner: PrecondSpec::Jacobi,
        }).unwrap();
        for (xs, xt) in sol.x.iter().zip(&x_true) {
            prop_assert!((xs - xt).abs() < 1e-6, "{xs} vs {xt}");
        }
    }

    #[test]
    fn brent_finds_root_of_monotone_cubic(a in 0.1..5.0f64, b in -10.0..10.0f64) {
        // f(x) = a x^3 + x + b is strictly increasing -> unique root.
        let f = |x: f64| a * x * x * x + x + b;
        let root = brent(f, -100.0, 100.0, &RootOptions::default()).unwrap();
        prop_assert!(f(root).abs() < 1e-7, "f({root}) = {}", f(root));
        // Starting from the evaluated ends gives the same root bits, and
        // the payload is f at that root.
        let (same, f_root) = brent_bracketed(
            |x| (f(x), f(x)),
            (-100.0, f(-100.0), f(-100.0)),
            (100.0, f(100.0), f(100.0)),
            &RootOptions::default(),
        )
        .unwrap();
        prop_assert!(same.to_bits() == root.to_bits(), "{same} vs {root}");
        prop_assert!(f_root.to_bits() == f(root).to_bits());
    }

    #[test]
    fn lane_solve_matches_single_solves_bitwise(n in 1usize..70, seed in 0u64..500) {
        // A diagonally dominant operator like the implicit cross-stream
        // diffusion stencil, and right-hand sides of mixed magnitude.
        let lower: Vec<f64> = (0..n.saturating_sub(1))
            .map(|i| -1.0 - lcg(seed, i as u64, 3).abs() * 50.0)
            .collect();
        let upper: Vec<f64> = (0..n.saturating_sub(1))
            .map(|i| -1.0 - lcg(seed, i as u64, 5).abs() * 50.0)
            .collect();
        let diag: Vec<f64> = (0..n)
            .map(|i| {
                let off = lower.get(i.wrapping_sub(1)).map_or(0.0, |v| v.abs())
                    + upper.get(i).map_or(0.0, |v| v.abs());
                off + 1e3 * (0.5 + lcg(seed, i as u64, 7))
            })
            .collect();
        let fac = TridiagonalFactorization::factor(&lower, &diag, &upper).unwrap();
        for lanes in [1usize, 2, 3, 16, 33] {
            let rhs = |lane: usize, i: usize| {
                lcg(seed, (lane * n + i) as u64, 11) * 10f64.powi((lane % 7) as i32 - 3)
            };
            let mut block = vec![0.0; n * lanes];
            for i in 0..n {
                for lane in 0..lanes {
                    block[i * lanes + lane] = rhs(lane, i);
                }
            }
            fac.solve_lanes_in_place(&mut block, lanes).unwrap();
            for lane in 0..lanes {
                let mut single: Vec<f64> = (0..n).map(|i| rhs(lane, i)).collect();
                fac.solve_in_place(&mut single).unwrap();
                for (i, s) in single.iter().enumerate() {
                    let got = block[i * lanes + lane];
                    prop_assert!(
                        got.to_bits() == s.to_bits(),
                        "lanes {lanes}, lane {lane}, row {i}: {got} vs {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn banded_lane_solve_matches_single_solves_bitwise(
        n in 1usize..60,
        bw in 0usize..9,
        seed in 0u64..500,
    ) {
        // A random SPD band (every band entry stored) under a dominant
        // diagonal, and right-hand sides of mixed magnitude.
        let mut t = TripletMatrix::new(n, n);
        let mut diag = vec![0.5; n];
        for i in 0..n {
            for j in i + 1..n.min(i + bw + 1) {
                let v = lcg(seed, (i * n + j) as u64, 13) * 10f64.powi((i % 5) as i32 - 2);
                t.push(i, j, v).unwrap();
                t.push(j, i, v).unwrap();
                diag[i] += v.abs();
                diag[j] += v.abs();
            }
        }
        for (i, d) in diag.iter().enumerate() {
            t.push(i, i, d + lcg(seed, i as u64, 17).abs()).unwrap();
        }
        let chol = BandedCholesky::factor(&t.to_csr()).unwrap();
        for lanes in [1usize, 2, 3, 7, 8, 9, 16, 17, 33] {
            let rhs = |lane: usize, i: usize| {
                lcg(seed, (lane * n + i) as u64, 19) * 10f64.powi((lane % 7) as i32 - 3)
            };
            let mut block = vec![0.0; n * lanes];
            for i in 0..n {
                for lane in 0..lanes {
                    block[i * lanes + lane] = rhs(lane, i);
                }
            }
            chol.solve_lanes_in_place(&mut block, lanes).unwrap();
            for lane in 0..lanes {
                let mut single: Vec<f64> = (0..n).map(|i| rhs(lane, i)).collect();
                chol.solve_in_place(&mut single).unwrap();
                for (i, s) in single.iter().enumerate() {
                    let got = block[i * lanes + lane];
                    prop_assert!(
                        got.to_bits() == s.to_bits(),
                        "bw {bw}, lanes {lanes}, lane {lane}, row {i}: {got} vs {s}"
                    );
                }
            }
        }
        // Wrong sizes are rejected, leaving the block untouched.
        let mut short = vec![1.0; n * 3 - 1];
        prop_assert!(chol.solve_lanes_in_place(&mut short, 3).is_err());
        prop_assert!(short.iter().all(|v| *v == 1.0));
        let mut block = vec![1.0; n * 2];
        prop_assert!(chol.solve_lanes_in_place(&mut block, 0).is_err());
        prop_assert!(chol.solve_lanes_in_place(&mut block, 3).is_err());
    }

    #[test]
    fn dense_lu_det_matches_cofactor_for_2x2(
        a in -10.0..10.0f64, b in -10.0..10.0f64,
        c in -10.0..10.0f64, d in -10.0..10.0f64,
    ) {
        let m = DenseMatrix::from_rows(&[&[a, b], &[c, d]]).unwrap();
        let det = m.det().unwrap();
        prop_assert!((det - (a * d - b * c)).abs() < 1e-9 * (1.0 + (a * d - b * c).abs()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cg_warm_start_matches_cold_start_on_random_spd(
        n in 2usize..24,
        seed in 0u64..400,
    ) {
        let a = random_spd(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 53)).collect();
        let b = a.matvec(&x_true).unwrap();
        let opts = IterOptions { tolerance: 1e-11, max_iterations: 20_000, preconditioner: PrecondSpec::Jacobi };

        let cold = conjugate_gradient(&a, &b, None, &opts).unwrap();

        // Warm start from a perturbed nearby solution (a "previous sweep
        // point"), solved through the caller-owned-buffer path.
        let mut ws = KrylovWorkspace::new();
        let mut m = set_up(&opts, &a);
        let mut x: Vec<f64> = cold.x.iter().enumerate()
            .map(|(i, v)| v + 0.05 * lcg(seed, i as u64, 59))
            .collect();
        let stats =
            conjugate_gradient_preconditioned(&a, &b, &mut x, &opts, &mut ws, m.as_mut()).unwrap();
        prop_assert!(stats.relative_residual <= opts.tolerance);
        prop_assert!(stats.iterations <= cold.iterations + 1,
            "warm start took {} iterations vs cold {}", stats.iterations, cold.iterations);
        let b_scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
        for (w, c) in x.iter().zip(&cold.x) {
            prop_assert!((w - c).abs() < 1e-6 * b_scale.max(1.0), "{w} vs {c}");
        }

        // Reusing the same workspace and solution for the same system
        // converges (nearly) immediately.
        let stats2 =
            conjugate_gradient_preconditioned(&a, &b, &mut x, &opts, &mut ws, m.as_mut()).unwrap();
        prop_assert!(stats2.iterations <= 1);
    }

    #[test]
    fn bicgstab_warm_start_matches_cold_start_on_random_nonsymmetric(
        n in 4usize..64,
        seed in 0u64..400,
    ) {
        let a = random_nonsymmetric(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 61)).collect();
        let b = a.matvec(&x_true).unwrap();
        let opts = IterOptions { tolerance: 1e-11, max_iterations: 20_000, preconditioner: PrecondSpec::Jacobi };

        let cold = bicgstab(&a, &b, None, &opts).unwrap();

        let mut ws = KrylovWorkspace::new();
        let mut m = set_up(&opts, &a);
        let mut x: Vec<f64> = cold.x.iter().enumerate()
            .map(|(i, v)| v + 0.05 * lcg(seed, i as u64, 67))
            .collect();
        let stats = bicgstab_preconditioned(&a, &b, &mut x, &opts, &mut ws, m.as_mut()).unwrap();
        prop_assert!(stats.relative_residual <= opts.tolerance);
        for (w, c) in x.iter().zip(&cold.x) {
            prop_assert!((w - c).abs() < 1e-6, "{w} vs {c}");
        }

        let stats2 = bicgstab_preconditioned(&a, &b, &mut x, &opts, &mut ws, m.as_mut()).unwrap();
        prop_assert!(stats2.iterations <= 1);
    }

    #[test]
    fn workspace_wrappers_are_bit_identical_when_fresh(
        n in 2usize..20,
        seed in 0u64..200,
    ) {
        // The one-shot entries set up the named preconditioner and run
        // the caller-owned-buffer form with a fresh workspace, so with a
        // fresh workspace of its own that form runs the same
        // floating-point sequence and the results agree exactly.
        let a = random_spd(n, seed);
        let b: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 71)).collect();
        let opts = IterOptions::default();
        for spd in [true, false] {
            let one_shot = if spd {
                conjugate_gradient(&a, &b, None, &opts)
            } else {
                bicgstab(&a, &b, None, &opts)
            }
            .unwrap();
            let (mut x, mut ws, mut m) = (Vec::new(), KrylovWorkspace::new(), set_up(&opts, &a));
            let stats = if spd {
                conjugate_gradient_preconditioned(&a, &b, &mut x, &opts, &mut ws, m.as_mut())
            } else {
                bicgstab_preconditioned(&a, &b, &mut x, &opts, &mut ws, m.as_mut())
            }
            .unwrap();
            prop_assert_eq!(one_shot.iterations, stats.iterations);
            prop_assert_eq!(one_shot.relative_residual.to_bits(), stats.relative_residual.to_bits());
            for (u, v) in one_shot.x.iter().zip(&x) {
                prop_assert!(u.to_bits() == v.to_bits(), "spd {spd}: one-shot {u} vs {v}");
            }
        }
    }

    #[test]
    fn refresh_values_matches_fresh_compression(
        n in 2usize..16,
        seed in 0u64..400,
        scale in 0.1..10.0f64,
    ) {
        // Stamp the same pattern with two coefficient sets; refreshing the
        // first matrix with the second triplet list must equal a fresh
        // to_csr of the second list.
        let stamp = |k: f64| {
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                for j in 0..n {
                    let v = lcg(seed, (i * n + j) as u64, 73);
                    if v.abs() > 0.25 {
                        t.push(i, j, v * k).unwrap();
                        if i != j {
                            // Duplicate stamps exercise slot accumulation.
                            t.push(i, j, 0.5 * v * k).unwrap();
                        }
                    }
                }
            }
            t
        };
        let base = stamp(1.0);
        let sym = base.to_csr_symbolic();
        let mut m = sym.numeric(&base).unwrap();
        prop_assert_eq!(&m, &base.to_csr());

        let restamped = stamp(scale);
        sym.refresh_values(&mut m, &restamped).unwrap();
        let fresh = restamped.to_csr();
        prop_assert_eq!(m.nnz(), fresh.nnz());
        for i in 0..n {
            for j in 0..n {
                let a = m.get(i, j);
                let b = fresh.get(i, j);
                prop_assert!((a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
                    "({i},{j}): {a} vs {b}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ssor_and_ic0_cg_match_jacobi_solution(n in 3usize..28, seed in 0u64..300) {
        // All preconditioner choices solve the *same* system to the same
        // relative residual; the returned solutions must agree within
        // the convergence tolerance.
        let a = random_spd(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 83)).collect();
        let b = a.matvec(&x_true).unwrap();
        let solve = |spec: PrecondSpec| {
            conjugate_gradient(&a, &b, None, &IterOptions {
                tolerance: 1e-11,
                max_iterations: 20_000,
                preconditioner: spec,
            }).unwrap()
        };
        let jacobi = solve(PrecondSpec::Jacobi);
        for spec in [PrecondSpec::ssor(), PrecondSpec::Ssor { omega: 1.4 }, PrecondSpec::Ic0] {
            let other = solve(spec);
            prop_assert!(other.relative_residual <= 1e-11);
            for (u, v) in jacobi.x.iter().zip(&other.x) {
                prop_assert!((u - v).abs() < 1e-7, "{spec:?}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn ssor_bicgstab_matches_jacobi_on_nonsymmetric(n in 4usize..48, seed in 0u64..300) {
        let a = random_nonsymmetric(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 89)).collect();
        let b = a.matvec(&x_true).unwrap();
        let solve = |spec: PrecondSpec| {
            bicgstab(&a, &b, None, &IterOptions {
                tolerance: 1e-11,
                max_iterations: 20_000,
                preconditioner: spec,
            }).unwrap()
        };
        let jacobi = solve(PrecondSpec::Jacobi);
        let ssor = solve(PrecondSpec::ssor());
        prop_assert!(ssor.relative_residual <= 1e-11);
        for (u, v) in jacobi.x.iter().zip(&ssor.x) {
            prop_assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn fused_matvec_dot_bitwise_matches_unfused(n in 1usize..90, seed in 0u64..400) {
        // The fused A·x / (w, A·x) epilogue must be bitwise identical
        // to the unfused matvec-then-dot sequence: same in-order row
        // accumulators, same pairwise chunk tree. Sizes straddle the
        // 64-element reduction chunk so partial leaves and multi-chunk
        // merges are both exercised.
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = lcg(seed, (i * n + j) as u64, 211);
                if v.abs() > 0.3 {
                    t.push(i, j, v).unwrap();
                }
            }
        }
        let a = t.to_csr();
        let x: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 223)).collect();
        let w: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 227)).collect();
        let mut y_ref = vec![0.0; n];
        a.matvec_into(&x, &mut y_ref).unwrap();
        let dot_ref = vec_ops::dot(&w, &y_ref);
        let mut y = vec![f64::NAN; n];
        let d = a.matvec_dot_into(&x, &mut y, &w).unwrap();
        prop_assert!(d.to_bits() == dot_ref.to_bits(), "fused dot {d} vs unfused {dot_ref}");
        for (s, v) in y_ref.iter().zip(&y) {
            prop_assert!(s.to_bits() == v.to_bits(), "y {s} vs {v}");
        }
    }

    #[test]
    fn session_solves_match_direct_solver_across_refreshes(
        n in 3usize..20,
        seed in 0u64..200,
        scale in 0.2..5.0f64,
    ) {
        // A session loaded once and refreshed must produce the same
        // solutions as one-shot solves on freshly assembled operators.
        let stamp = |k: f64| {
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                let mut off = 0.0;
                for j in 0..n {
                    if i != j {
                        let v = lcg(seed, (i * n + j) as u64, 97) * k;
                        if v.abs() > 0.12 * k.abs() {
                            t.push(i, j, v).unwrap();
                            off += v.abs();
                        }
                    }
                }
                t.push(i, i, 2.0 * off + k.abs() + 1.0).unwrap();
            }
            t
        };
        let b: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 101)).collect();
        let opts = IterOptions { tolerance: 1e-11, max_iterations: 20_000, preconditioner: PrecondSpec::ssor() };

        let mut session = SolverSession::new(opts.clone());
        let tag = next_operator_tag();
        session.load(&stamp(1.0).to_csr(), tag, 0).unwrap();
        session.solve_general(&b).unwrap();
        let direct = bicgstab(&stamp(1.0).to_csr(), &b, None, &opts).unwrap();
        for (u, v) in session.solution().iter().zip(&direct.x) {
            prop_assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }

        session.load(&stamp(scale).to_csr(), tag, 1).unwrap();
        session.solve_general(&b).unwrap();
        let direct2 = bicgstab(&stamp(scale).to_csr(), &b, None, &opts).unwrap();
        for (u, v) in session.solution().iter().zip(&direct2.x) {
            prop_assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
        prop_assert_eq!(session.stats().binds, 1);
        prop_assert_eq!(session.stats().refreshes, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Solves recovered through the session ladder under injected
    /// faults agree with clean solves to solver tolerance. Every plan
    /// here uses period 1 (fires on every opportunity), so the
    /// assertion is independent of the global opportunity counters and
    /// of any `BRIGHT_FAULTS` seed a CI run installs.
    #[test]
    fn fault_recovered_solves_agree_with_clean_solves(
        n in 4usize..24,
        seed in 0u64..200,
        fault in 0usize..3,
    ) {
        use bright_num::faults::{self, FaultPlan};

        let t = random_spd_triplets(n, seed);
        let b: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 211) + 1.0).collect();
        let opts = IterOptions {
            tolerance: 1e-11,
            max_iterations: 10_000,
            preconditioner: PrecondSpec::ssor(),
        };

        let mut clean = SolverSession::new(opts.clone());
        clean.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        faults::with_plan(None, || clean.solve_spd(&b)).unwrap();

        let plan = match fault {
            0 => FaultPlan { nan: 1, ..FaultPlan::default() },
            1 => FaultPlan { breakdown: 1, ..FaultPlan::default() },
            _ => FaultPlan { budget: 1, ..FaultPlan::default() },
        };
        let mut faulted = SolverSession::new(opts);
        faulted.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        faults::with_plan(Some(plan), || faulted.solve_spd(&b)).unwrap();
        prop_assert!(faulted.stats().recovered_solves >= 1, "ladder never engaged");
        prop_assert!(!faulted.poisoned());
        prop_assert!(faulted.last_recovery().describe().is_some());

        let denom = clean
            .solution()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-30);
        for (u, v) in faulted.solution().iter().zip(clean.solution()) {
            prop_assert!((u - v).abs() / denom < 1e-8, "{} vs {}", u, v);
        }
    }

    /// A session poisoned by an unrecovered NaN fault refuses further
    /// solves, and after a resync its cold-rebuilt solve is bitwise
    /// equal to a fresh session's.
    #[test]
    fn fault_poisoned_session_cold_rebuilds_bitwise_equal_to_fresh(
        n in 4usize..24,
        seed in 0u64..200,
    ) {
        use bright_num::faults::{self, FaultPlan};
        use bright_num::{NumError, RecoveryPolicy};

        let t = random_spd_triplets(n, seed);
        let b: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 223) + 1.0).collect();
        let opts = IterOptions {
            tolerance: 1e-11,
            max_iterations: 10_000,
            preconditioner: PrecondSpec::ssor(),
        };

        let mut s = SolverSession::new(opts.clone());
        s.set_recovery_policy(RecoveryPolicy::disabled());
        s.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        let plan = FaultPlan { nan: 1, ..FaultPlan::default() };
        prop_assert!(faults::with_plan(Some(plan), || s.solve_spd(&b)).is_err());
        prop_assert!(s.poisoned());
        prop_assert_eq!(s.stats().poisonings, 1);
        prop_assert!(!s.is_current(s.operator_tag(), s.epoch()));
        // Poisoned sessions refuse to solve until resynced.
        prop_assert!(matches!(
            faults::with_plan(None, || s.solve_spd(&b)),
            Err(NumError::InvalidInput(_))
        ));

        // Reloading the held operator clears the poison; the rebuilt
        // state must be indistinguishable from a fresh session's.
        s.load(&t.to_csr(), s.operator_tag(), s.epoch()).unwrap();
        prop_assert_eq!(s.stats().refreshes, 1);
        prop_assert!(!s.poisoned());
        faults::with_plan(None, || s.solve_spd(&b)).unwrap();

        let mut fresh = SolverSession::new(opts);
        fresh.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        faults::with_plan(None, || fresh.solve_spd(&b)).unwrap();
        prop_assert_eq!(s.solution().len(), fresh.solution().len());
        for (u, v) in s.solution().iter().zip(fresh.solution()) {
            prop_assert!(u.to_bits() == v.to_bits(), "{} vs {}", u, v);
        }
    }
}

/// Random nonsymmetric M-matrix on an `nx × ny` grid: each of the four
/// neighbour links has its own random negative weight (so no link is
/// symmetric), and the diagonal is the row's link sum plus a random
/// slack that is zero on about half the rows and at least 0.5 on the
/// first grid row — diagonally dominant, strictly on the first row,
/// like the fluid-cooled thermal operator's inlet.
fn random_m_matrix(nx: usize, ny: usize, seed: u64) -> TripletMatrix {
    let n = nx * ny;
    let mut t = TripletMatrix::new(n, n);
    for iy in 0..ny {
        for ix in 0..nx {
            let i = iy * nx + ix;
            let mut diag = 0.0;
            let neighbours = [
                (ix > 0).then(|| i.wrapping_sub(1)),
                (ix + 1 < nx).then_some(i + 1),
                (iy > 0).then(|| i.wrapping_sub(nx)),
                (iy + 1 < ny).then_some(i + nx),
            ];
            for j in neighbours.into_iter().flatten() {
                let g = 0.1 + 2.0 * lcg(seed, (i * n + j) as u64, 97).abs();
                t.push(i, j, -g).unwrap();
                diag += g;
            }
            let slack = lcg(seed, i as u64, 101).max(0.0);
            let inlet = if iy == 0 { 0.5 } else { 0.0 };
            t.push(i, i, diag + slack + inlet).unwrap();
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// BiCGSTAB under MILU(0) converges on its own (no recovery rung) on
    /// random diagonally dominant nonsymmetric M-matrices, and lands on
    /// an SSOR session's solution.
    #[test]
    fn milu0_bicgstab_matches_ssor_on_random_m_matrices(
        nx in 2usize..14,
        ny in 2usize..14,
        seed in 0u64..400,
    ) {
        let t = random_m_matrix(nx, ny, seed);
        let b: Vec<f64> = (0..nx * ny).map(|i| lcg(seed, i as u64, 103)).collect();
        let solve = |spec: PrecondSpec| {
            let mut s = SolverSession::new(IterOptions {
                tolerance: 1e-13,
                max_iterations: 20_000,
                preconditioner: spec,
            });
            s.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
            s.solve_general(&b).unwrap();
            s
        };
        let milu = solve(PrecondSpec::Milu0);
        prop_assert_eq!(milu.last_recovery(), bright_num::RecoveryRung::Clean);
        prop_assert_eq!(milu.precond_digest(), "milu0");
        let ssor = solve(PrecondSpec::ssor());
        let scale = ssor.solution().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (u, v) in milu.solution().iter().zip(ssor.solution()) {
            prop_assert!((u - v).abs() <= 1e-8 * scale, "{u} vs {v} (scale {scale})");
        }
    }
}

/// Random SPD stencil on a structured `nx × ny × layers` grid: 5-point
/// in-plane couplings plus inter-layer links, all with random negative
/// magnitudes under a dominant diagonal — the operator family the
/// geometric-multigrid hierarchy is built for.
fn random_grid_stencil(nx: usize, ny: usize, layers: usize, seed: u64, scale: f64) -> TripletMatrix {
    let plane = nx * ny;
    let n = plane * layers;
    let mut t = TripletMatrix::new(n, n);
    let w = |i: usize, j: usize| scale * (-0.1 - lcg(seed, (i * n + j) as u64, 71).abs());
    for l in 0..layers {
        for iy in 0..ny {
            for ix in 0..nx {
                let i = l * plane + iy * nx + ix;
                let mut diag = scale * (0.3 + lcg(seed, i as u64, 73).abs());
                let couple = |t: &mut TripletMatrix, j: usize, diag: &mut f64| {
                    // Symmetrize: both orientations use the same weight.
                    let v = w(i.min(j), i.max(j));
                    t.push(i, j, v).unwrap();
                    *diag += v.abs();
                };
                if ix > 0 {
                    couple(&mut t, i - 1, &mut diag);
                }
                if ix + 1 < nx {
                    couple(&mut t, i + 1, &mut diag);
                }
                if iy > 0 {
                    couple(&mut t, i - nx, &mut diag);
                }
                if iy + 1 < ny {
                    couple(&mut t, i + nx, &mut diag);
                }
                if l > 0 {
                    couple(&mut t, i - plane, &mut diag);
                }
                if l + 1 < layers {
                    couple(&mut t, i + plane, &mut diag);
                }
                t.push(i, i, diag).unwrap();
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multigrid-preconditioned CG and BiCGSTAB land on the same
    /// solution as Jacobi-preconditioned CG on random SPD grid
    /// stencils: the V-cycle changes the path, never the answer.
    #[test]
    fn mg_preconditioned_krylov_matches_jacobi(
        nx in 4usize..14,
        ny in 4usize..14,
        layers in 1usize..4,
        seed in 0u64..200,
    ) {
        use bright_num::MgConfig;

        let a = random_grid_stencil(nx, ny, layers, seed, 1.0).to_csr();
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 79) + 0.5).collect();
        let mg_opts = IterOptions {
            tolerance: 1e-11,
            preconditioner: PrecondSpec::Multigrid(MgConfig::for_grid(nx, ny, layers)),
            ..IterOptions::default()
        };
        let jac_opts = IterOptions {
            tolerance: 1e-11,
            ..IterOptions::default()
        };
        let reference = conjugate_gradient(&a, &b, None, &jac_opts).unwrap().x;
        let cg = conjugate_gradient(&a, &b, None, &mg_opts).unwrap().x;
        let bi = bicgstab(&a, &b, None, &mg_opts).unwrap().x;
        let denom = reference.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
        for (u, v) in cg.iter().zip(&reference) {
            prop_assert!((u - v).abs() / denom < 1e-7, "cg {} vs jacobi {}", u, v);
        }
        for (u, v) in bi.iter().zip(&reference) {
            prop_assert!((u - v).abs() / denom < 1e-7, "bicgstab {} vs jacobi {}", u, v);
        }
    }

    /// Re-setup on retargeted values (same pattern) walks the O(nnz)
    /// refresh path and reproduces the cold-built hierarchy bitwise:
    /// applying both preconditioners to the same vector gives bit-equal
    /// results, and the counters prove which path ran.
    #[test]
    fn mg_refresh_reproduces_cold_hierarchy_bitwise(
        nx in 4usize..14,
        ny in 4usize..14,
        layers in 1usize..4,
        seed in 0u64..200,
        scale in 0.25..4.0f64,
    ) {
        use bright_num::{MgConfig, MultigridPrecond, Preconditioner};

        let a1 = random_grid_stencil(nx, ny, layers, seed, 1.0).to_csr();
        // Same pattern, every value scaled: the retarget shape a sweep
        // produces through `refresh_values`.
        let a2 = random_grid_stencil(nx, ny, layers, seed, scale).to_csr();

        let cfg = MgConfig::for_grid(nx, ny, layers);
        let mut warm = MultigridPrecond::new(cfg);
        warm.setup(&a1).unwrap();
        warm.setup(&a2).unwrap();
        prop_assert_eq!(warm.stats().hierarchy_builds, 1);
        prop_assert_eq!(warm.stats().value_refreshes, 1);

        let mut cold = MultigridPrecond::new(cfg);
        cold.setup(&a2).unwrap();
        prop_assert_eq!(cold.stats().hierarchy_builds, 1);
        prop_assert_eq!(cold.stats().value_refreshes, 0);

        let n = a1.rows();
        let src: Vec<f64> = (0..n).map(|i| lcg(seed, i as u64, 83)).collect();
        let mut dw = vec![0.0; n];
        let mut dc = vec![0.0; n];
        warm.apply(&mut dw, &src);
        cold.apply(&mut dc, &src);
        for (u, v) in dw.iter().zip(&dc) {
            prop_assert!(u.to_bits() == v.to_bits(), "warm {} vs cold {}", u, v);
        }
    }
}

// ---------------------------------------------------------------------------
// Statistical correctness: streaming estimators and samplers (the Monte
// Carlo engine's determinism contract rests on these).
// ---------------------------------------------------------------------------

use bright_num::rng::{CorrelatedSampler, CounterRng, Distribution};
use bright_num::stats::{DyadicForest, Moments, QuantileSketch};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chan-merged moments through the dyadic forest are **bitwise**
    /// identical for any chunking of the index range, and agree with a
    /// two-pass reference.
    #[test]
    fn forest_moments_bitwise_stable_under_any_split(
        n in 1usize..400,
        split_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let data: Vec<f64> = (0..n).map(|i| lcg(data_seed, i as u64, 101) * 10.0).collect();
        let mut whole = DyadicForest::new();
        for &x in &data {
            whole.push(Moments::single(x));
        }
        let total = whole.finalize();

        // Split the range into random-length chunks, build a forest per
        // chunk (as the Monte Carlo chunk workers do), append in order.
        let mut merged = DyadicForest::new();
        let mut start = 0usize;
        let mut s = split_seed;
        while start < n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let end = (start + 1 + (s >> 33) as usize % 16).min(n);
            let mut f = DyadicForest::starting_at(start as u64);
            for &x in &data[start..end] {
                f.push(Moments::single(x));
            }
            merged.append(f);
            start = end;
        }
        let m = merged.finalize();
        prop_assert_eq!(m.count, total.count);
        prop_assert_eq!(m.mean.to_bits(), total.mean.to_bits());
        prop_assert_eq!(m.m2.to_bits(), total.m2.to_bits());
        prop_assert_eq!(m.min.to_bits(), total.min.to_bits());
        prop_assert_eq!(m.max.to_bits(), total.max.to_bits());

        // Two-pass reference.
        let mean_ref = data.iter().sum::<f64>() / n as f64;
        let m2_ref: f64 = data.iter().map(|x| (x - mean_ref) * (x - mean_ref)).sum();
        prop_assert!((total.mean - mean_ref).abs() <= 1e-12 * mean_ref.abs().max(1.0));
        prop_assert!((total.m2 - m2_ref).abs() <= 1e-10 * m2_ref.max(1.0));
        let min_ref = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_ref = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(total.min.to_bits(), min_ref.to_bits());
        prop_assert_eq!(total.max.to_bits(), max_ref.to_bits());
    }

    /// The fixed-grid sketch's quantiles stay inside the bracketing
    /// order statistics of an exact sort, up to the bin resolution.
    #[test]
    fn quantile_sketch_tracks_exact_sort(n in 1usize..2000, seed in 0u64..500) {
        let data: Vec<f64> =
            (0..n).map(|i| 300.0 + lcg(seed, i as u64, 103) * 60.0).collect();
        let mut sketch = QuantileSketch::new(260.0, 340.0, 800).unwrap();
        for &x in &data {
            sketch.record(x);
        }
        prop_assert_eq!(sketch.out_of_range_fraction(), 0.0);
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let bin_width = (340.0 - 260.0) / 800.0;
        for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let est = sketch.quantile(q).unwrap();
            let rank = q * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            // The estimate must land between the two order statistics
            // bracketing the rank, up to the bin resolution (the exact
            // interpolated quantile can sit anywhere between them when
            // the data is sparse).
            prop_assert!(
                est >= sorted[lo] - 2.0 * bin_width - 1e-9
                    && est <= sorted[hi] + 2.0 * bin_width + 1e-9,
                "q={} est={} bracket=[{}, {}] (n={})", q, est, sorted[lo], sorted[hi], n
            );
        }
    }

    /// Counter-stream draws mapped through each marginal reproduce its
    /// mean and standard deviation within CLT bounds at a fixed seed.
    #[test]
    fn sampler_moments_within_clt_bounds(seed in 0u64..200) {
        let n = 4000u64;
        for dist in [
            Distribution::normal(2.0, 0.5),
            Distribution::uniform(-1.0, 3.0),
            Distribution::triangular(0.0, 1.0, 4.0),
        ] {
            let rng = CounterRng::new(seed, 9);
            let (mut sum, mut sum2) = (0.0, 0.0);
            for i in 0..n {
                let x = dist.from_standard_normal(rng.normal_at(i));
                sum += x;
                sum2 += x * x;
            }
            let mean = sum / n as f64;
            let std = (sum2 / n as f64 - mean * mean).sqrt();
            let se = dist.std_dev() / (n as f64).sqrt();
            prop_assert!(
                (mean - dist.mean()).abs() < 5.0 * se,
                "{:?}: mean {} vs {}", dist, mean, dist.mean()
            );
            prop_assert!(
                (std - dist.std_dev()).abs() < 0.1 * dist.std_dev(),
                "{:?}: std {} vs {}", dist, std, dist.std_dev()
            );
        }
    }

    /// Cholesky-correlated normal pairs reproduce the target Pearson
    /// correlation within sampling error.
    #[test]
    fn correlated_pairs_reproduce_target_correlation(
        seed in 0u64..100,
        rho_tenths in -8i32..9,
    ) {
        let rho = f64::from(rho_tenths) / 10.0;
        let c = [1.0, rho, rho, 1.0];
        let sampler = CorrelatedSampler::new(
            seed,
            vec![Distribution::normal(0.0, 1.0), Distribution::normal(5.0, 2.0)],
            Some(&c),
        )
        .unwrap();
        let n = 4000u64;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for i in 0..n {
            let v = sampler.sample(i);
            let (x, y) = (v[0], v[1]);
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let nf = n as f64;
        let (mx, my) = (sx / nf, sy / nf);
        let cov = sxy / nf - mx * my;
        let (vx, vy) = (sxx / nf - mx * mx, syy / nf - my * my);
        let emp = cov / (vx * vy).sqrt();
        prop_assert!(
            (emp - rho).abs() < 0.08,
            "seed {}: empirical correlation {} vs target {}", seed, emp, rho
        );
    }
}
