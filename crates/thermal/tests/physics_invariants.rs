//! Physics invariants of the compact thermal model.

use bright_floorplan::{power7, PowerScenario};
use bright_mesh::Field2d;
use bright_num::{MgConfig, PrecondSpec, RecoveryRung, SolverSession};
use bright_thermal::presets;
use bright_thermal::stack::LayerSpec;
use bright_thermal::{ThermalModel, ThermalSolution};
use bright_units::{CubicMetersPerSecond, Kelvin};

fn full_load_map(model: &ThermalModel) -> Field2d {
    PowerScenario::full_load()
        .rasterize(&power7::floorplan(), model.grid())
        .unwrap()
}

/// A coarse stack (fast enough for property-test case counts).
fn coarse_config(flow_ml_min: f64, inlet_k: f64) -> bright_thermal::stack::StackConfig {
    use bright_thermal::stack::{MicrochannelSpec, StackConfig};
    use bright_thermal::Material;
    use bright_units::Meters;
    let fluid = bright_flow::fluid::TemperatureDependentFluid::vanadium_electrolyte()
        .at(Kelvin::new(inlet_k))
        .unwrap();
    StackConfig {
        width: Meters::from_millimeters(8.0),
        height: Meters::from_millimeters(8.0),
        nx: 8,
        ny: 8,
        layers: vec![
            LayerSpec::Solid {
                name: "die".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(400.0),
                sublayers: 2,
            },
            LayerSpec::Microchannel {
                name: "mc".into(),
                spec: MicrochannelSpec {
                    channel_width: Meters::from_micrometers(200.0),
                    channel_height: Meters::from_micrometers(400.0),
                    channels_per_cell: 1,
                    fluid,
                    total_flow: CubicMetersPerSecond::from_milliliters_per_minute(flow_ml_min),
                    inlet_temperature: Kelvin::new(inlet_k),
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
    }
}

#[test]
fn linearity_doubling_power_doubles_the_rise() {
    // The network is linear: T(2P) - T_in = 2 (T(P) - T_in).
    let model = presets::power7_stack().unwrap();
    let p1 = full_load_map(&model);
    let mut p2 = p1.clone();
    p2.map_in_place(|v| 2.0 * v);
    let t1 = model.solve_steady(&p1).unwrap();
    let t2 = model.solve_steady(&p2).unwrap();
    let inlet = t1.inlet_temperature().value();
    let rise1 = t1.max_temperature().value() - inlet;
    let rise2 = t2.max_temperature().value() - inlet;
    assert!(
        (rise2 - 2.0 * rise1).abs() < 1e-4 * rise1,
        "rise {rise1} vs doubled {rise2}"
    );
}

#[test]
fn superposition_of_power_maps() {
    let model = presets::power7_stack().unwrap();
    let plan = power7::floorplan();
    let full = PowerScenario::full_load().rasterize(&plan, model.grid()).unwrap();
    let cache = PowerScenario::cache_only().rasterize(&plan, model.grid()).unwrap();
    // residual = full - cache (cores + logic + io only).
    let residual = Field2d::from_vec(
        model.grid().clone(),
        full.as_slice()
            .iter()
            .zip(cache.as_slice())
            .map(|(f, c)| f - c)
            .collect(),
    )
    .unwrap();

    let t_full = model.solve_steady(&full).unwrap();
    let t_cache = model.solve_steady(&cache).unwrap();
    let t_res = model.solve_steady(&residual).unwrap();
    let inlet = t_full.inlet_temperature().value();

    // Check superposition at a handful of probe cells on the junction map.
    for (ix, iy) in [(10, 10), (44, 22), (80, 40), (0, 0)] {
        let a = t_full.junction_map().get(ix, iy) - inlet;
        let b = (t_cache.junction_map().get(ix, iy) - inlet)
            + (t_res.junction_map().get(ix, iy) - inlet);
        assert!((a - b).abs() < 1e-5 * a.abs().max(1e-3), "cell ({ix},{iy}): {a} vs {b}");
    }
}

#[test]
fn every_cell_at_or_above_inlet_with_nonnegative_power() {
    let model = presets::power7_stack().unwrap();
    let sol = model.solve_steady(&full_load_map(&model)).unwrap();
    let inlet = sol.inlet_temperature().value();
    for lvl in 0..sol.level_count() {
        let min = sol.level_map(lvl).min();
        assert!(
            min >= inlet - 1e-6,
            "level {lvl} dips below inlet: {min} < {inlet}"
        );
    }
}

#[test]
fn warmer_inlet_shifts_the_whole_field() {
    // With temperature-independent properties, T(inlet + d) = T(inlet) + d.
    let cold_model = presets::power7_stack_at(
        CubicMetersPerSecond::from_milliliters_per_minute(676.0),
        Kelvin::new(300.0),
    )
    .unwrap();
    let warm_model = presets::power7_stack_at(
        CubicMetersPerSecond::from_milliliters_per_minute(676.0),
        Kelvin::new(310.0),
    )
    .unwrap();
    let p = full_load_map(&cold_model);
    let cold = cold_model.solve_steady(&p).unwrap();
    let warm = warm_model.solve_steady(&p).unwrap();
    let d_peak = warm.max_temperature().value() - cold.max_temperature().value();
    // Fluid properties change slightly with inlet temperature (viscosity,
    // conductivity), so allow a modest band around the exact +10 K shift.
    assert!((d_peak - 10.0).abs() < 1.0, "peak shift {d_peak}");
}

#[test]
fn thicker_die_spreads_better_but_insulates_more() {
    let base = presets::power7_stack().unwrap();
    let mut config = base.config().clone();
    if let LayerSpec::Solid { thickness, .. } = &mut config.layers[0] {
        *thickness = *thickness * 3.0;
    }
    let thick = ThermalModel::new(config).unwrap();
    let p = full_load_map(&base);
    let t_base = base.solve_steady(&p).unwrap().max_temperature().value();
    let t_thick = thick.solve_steady(&p).unwrap().max_temperature().value();
    // Tripling the die thickness adds vertical resistance; with strong
    // in-plane spreading the peak may drop slightly instead — accept
    // either, but the change must be bounded and the solve stable.
    assert!(
        (t_thick - t_base).abs() < 5.0,
        "base {t_base} vs thick {t_thick}"
    );
}

#[test]
fn flow_sweep_monotone_peak_temperature() {
    let p = full_load_map(&presets::power7_stack().unwrap());
    let mut last = f64::INFINITY;
    for flow in [100.0, 300.0, 676.0, 1500.0] {
        let model = presets::power7_stack_at(
            CubicMetersPerSecond::from_milliliters_per_minute(flow),
            Kelvin::new(300.0),
        )
        .unwrap();
        let peak = model.solve_steady(&p).unwrap().max_temperature().value();
        assert!(peak < last, "peak should fall with flow: {peak} at {flow}");
        last = peak;
    }
}

#[test]
fn multi_source_injection_superposes_and_validates() {
    let model = presets::power7_stack().unwrap();
    let p = full_load_map(&model);
    // Injecting at level 0 via both APIs must agree exactly.
    let a = model.solve_steady(&p).unwrap();
    let b = model.solve_steady_with_sources(&[(0, &p)]).unwrap();
    assert!((a.max_temperature().value() - b.max_temperature().value()).abs() < 1e-9);

    // Splitting the same power across two calls of half magnitude at the
    // same level superposes linearly.
    let mut half = p.clone();
    half.map_in_place(|v| 0.5 * v);
    let c = model
        .solve_steady_with_sources(&[(0, &half), (0, &half)])
        .unwrap();
    assert!((a.max_temperature().value() - c.max_temperature().value()).abs() < 1e-6);

    // Injecting into the cap (level 3, above the channels) heats less at
    // the junction than injecting at the junction itself.
    let top = model.solve_steady_with_sources(&[(3, &p)]).unwrap();
    assert!(top.junction_map().max() < a.junction_map().max());
    // Energy balance still exact.
    assert!(
        (top.absorbed_power().value() - p.integral()).abs() < 1e-4 * p.integral()
    );

    // Validation: fluid level and out-of-range level are rejected.
    assert!(model.solve_steady_with_sources(&[(2, &p)]).is_err());
    assert!(model.solve_steady_with_sources(&[(9, &p)]).is_err());
}

#[test]
fn conventional_heat_sink_baseline_behaves() {
    use bright_thermal::stack::{StackConfig, TopCooling};
    use bright_thermal::Material;
    use bright_units::Meters;

    let plan = power7::floorplan();
    let stack = |h: f64| {
        ThermalModel::new(StackConfig {
            width: plan.width(),
            height: plan.height(),
            nx: 44,
            ny: 22,
            layers: vec![LayerSpec::Solid {
                name: "die".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(700.0),
                sublayers: 2,
            }],
            top_cooling: Some(TopCooling {
                coefficient: h,
                ambient: Kelvin::new(298.15),
            }),
        })
        .unwrap()
    };
    let power = PowerScenario::full_load()
        .rasterize(&plan, stack(1500.0).grid())
        .unwrap();

    // Better sinks give cooler chips, approaching a 1-D bound:
    // dT >= q_peak/h locally.
    let mut last = f64::INFINITY;
    for h in [200.0, 1500.0, 20000.0] {
        let peak = stack(h).solve_steady(&power).unwrap().max_temperature().value();
        assert!(peak < last, "peak {peak} at h={h}");
        // Never below ambient.
        assert!(peak > 298.15);
        last = peak;
    }
    // A forced-air sink runs the 71 W chip far hotter than the
    // microfluidic layer does (the paper's motivation).
    let air = stack(1500.0).solve_steady(&power).unwrap().max_temperature().value();
    let micro = presets::power7_stack()
        .unwrap()
        .solve_steady(
            &PowerScenario::full_load()
                .rasterize(&plan, presets::power7_stack().unwrap().grid())
                .unwrap(),
        )
        .unwrap()
        .max_temperature()
        .value();
    assert!(air > micro + 20.0, "air {air} vs micro {micro}");

    // A stack with neither channels nor top cooling is rejected.
    let floating = StackConfig {
        width: plan.width(),
        height: plan.height(),
        nx: 10,
        ny: 10,
        layers: vec![LayerSpec::Solid {
            name: "die".into(),
            material: Material::silicon(),
            thickness: Meters::from_micrometers(700.0),
            sublayers: 1,
        }],
        top_cooling: None,
    };
    assert!(ThermalModel::new(floating).is_err());
}

/// The largest temperature difference between two solutions of one
/// stack, over every level, in kelvin.
fn largest_difference(a: &ThermalSolution, b: &ThermalSolution) -> f64 {
    let mut worst = 0.0f64;
    for level in 0..a.level_count() {
        let pairs = a
            .level_map(level)
            .as_slice()
            .iter()
            .zip(b.level_map(level).as_slice());
        for (x, y) in pairs {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

/// Full-load steady solves of `model` through a session given an
/// explicit multigrid spec and through an explicit SSOR session.
/// Returns both sessions and the largest temperature difference over
/// every level, in kelvin.
fn multigrid_against_ssor(model: &ThermalModel) -> (SolverSession, SolverSession, f64) {
    let power = full_load_map(model);
    let mut mg = model.session().unwrap();
    mg.set_preconditioner(PrecondSpec::Multigrid(MgConfig::for_grid(
        model.grid().nx(),
        model.grid().ny(),
        model.level_count(),
    )));
    let mut ssor = model.session().unwrap();
    ssor.set_preconditioner(PrecondSpec::ssor());
    let t_mg = model.solve_steady_warm(&power, &mut mg).unwrap();
    let t_ssor = model.solve_steady_warm(&power, &mut ssor).unwrap();
    let worst = largest_difference(&t_mg, &t_ssor);
    (mg, ssor, worst)
}

#[test]
fn explicit_multigrid_is_refused_on_the_nominal_fluid_stack() {
    // At 676 ml/min the fluid rows' advection makes the V-cycle
    // expansive: setup's contraction guard refuses the hierarchy, IC(0)
    // fails on the nonsymmetric operator and is skipped, and SSOR
    // serves the solve.
    let model = presets::power7_stack().unwrap();
    let (mg, _, worst) = multigrid_against_ssor(&model);
    assert_eq!(
        mg.last_recovery(),
        RecoveryRung::PrecondFallback(PrecondSpec::ssor())
    );
    assert_eq!(mg.stats().recovered_solves, 1);
    assert_eq!(mg.precond_digest(), "ssor");
    assert!(
        worst < 1e-5,
        "multigrid session is {worst} K off the SSOR solve"
    );
}

#[test]
fn a_refused_multigrid_setup_is_not_retried_until_the_operator_changes() {
    let mut model = presets::power7_stack().unwrap();
    let power = full_load_map(&model);
    let (mut mg, _, _) = multigrid_against_ssor(&model);
    let first = mg.stats();
    for _ in 0..3 {
        model.solve_steady_warm(&power, &mut mg).unwrap();
        assert_eq!(
            mg.last_recovery(),
            RecoveryRung::PrecondFallback(PrecondSpec::ssor())
        );
    }
    let repeated = mg.stats();
    assert_eq!(repeated.solves, first.solves + 3);
    assert_eq!(repeated.mg_refreshes, first.mg_refreshes, "{repeated:?}");
    assert_eq!(repeated.mg_hierarchy_builds, first.mg_hierarchy_builds);
    // While the refusal stands, the SSOR fallback that served is kept,
    // set up on the current values, and each repeated solve starts from
    // it with its warm start.
    assert_eq!(
        repeated.precond_setups, first.precond_setups,
        "{repeated:?}"
    );
    assert_eq!(repeated.recovered_solves, first.recovered_solves + 3);
    assert!(mg.last_stats().iterations <= 1, "{:?}", mg.last_stats());
    // New operator values earn the configured spec one more setup.
    model
        .refresh_coefficients(
            CubicMetersPerSecond::from_milliliters_per_minute(600.0),
            Kelvin::new(300.0),
        )
        .unwrap();
    model.solve_steady_warm(&power, &mut mg).unwrap();
    assert_eq!(mg.stats().mg_refreshes, first.mg_refreshes + 1);
}

/// The POWER7+ stack at `flow_ml_min` and `inlet_k`, on the paper's
/// 88 × 44 grid or, with `grid`, on `(nx, ny)` with the 88 channels
/// shared evenly among the columns.
fn power7_at(flow_ml_min: f64, inlet_k: f64, grid: Option<(usize, usize)>) -> ThermalModel {
    let model = presets::power7_stack_at(
        CubicMetersPerSecond::from_milliliters_per_minute(flow_ml_min),
        Kelvin::new(inlet_k),
    )
    .unwrap();
    let Some((nx, ny)) = grid else {
        return model;
    };
    let mut config = model.config().clone();
    config.nx = nx;
    config.ny = ny;
    for layer in &mut config.layers {
        if let LayerSpec::Microchannel { spec, .. } = layer {
            spec.channels_per_cell = presets::POWER7_NX / nx;
        }
    }
    ThermalModel::new(config).unwrap()
}

#[test]
fn fluid_stacks_solve_with_milu0_in_half_the_ssor_iterations() {
    let density = bright_units::WattPerSquareMeter::from_watts_per_square_centimeter;
    let mut one_core = PowerScenario::full_load();
    for name in ["core0", "core2", "core3"] {
        one_core.set_block_density(name, density(0.0));
    }
    one_core.set_block_density("core1", density(3.0 * 26.7));
    let full = PowerScenario::full_load;
    let points = [
        ("nominal", power7_at(676.0, 300.0, None), full()),
        ("throttled", power7_at(48.0, 300.0, None), full()),
        ("warm inlet", power7_at(676.0, 310.15, None), full()),
        ("150 ml/min", power7_at(150.0, 300.0, None), full()),
        (
            "Monte Carlo grid",
            power7_at(676.0, 300.0, Some((11, 8))),
            full(),
        ),
        ("one hot core", power7_at(676.0, 300.0, None), one_core),
    ];
    for (name, model, load) in points {
        let power = load.rasterize(&power7::floorplan(), model.grid()).unwrap();
        let mut milu = model.session().unwrap();
        assert_eq!(milu.options().preconditioner, PrecondSpec::Milu0, "{name}");
        let mut ssor = model.session().unwrap();
        ssor.set_preconditioner(PrecondSpec::ssor());
        let t_milu = model.solve_steady_warm(&power, &mut milu).unwrap();
        let t_ssor = model.solve_steady_warm(&power, &mut ssor).unwrap();
        assert_eq!(milu.last_recovery(), RecoveryRung::Clean, "{name}");
        assert_eq!(milu.precond_digest(), "milu0", "{name}");
        let (milu_iters, ssor_iters) = (milu.stats().iterations, ssor.stats().iterations);
        assert!(
            2 * milu_iters <= ssor_iters,
            "{name}: MILU(0) {milu_iters} vs SSOR {ssor_iters} iterations"
        );
        let worst = largest_difference(&t_milu, &t_ssor);
        assert!(
            worst < 1e-5,
            "{name}: MILU(0) is {worst} K off the SSOR solve"
        );
        let injected = power.integral();
        let absorbed = t_milu.absorbed_power().value();
        assert!(
            ((injected - absorbed) / injected).abs() < 1e-5,
            "{name}: injected {injected} vs absorbed {absorbed}"
        );
    }
}

#[test]
fn explicit_multigrid_serves_the_throttled_fluid_stack() {
    // At 48 ml/min and a 37 °C inlet the V-cycle passes the contraction
    // guard and serves the solve itself, in fewer iterations than SSOR.
    let model = presets::power7_stack_at(
        CubicMetersPerSecond::from_milliliters_per_minute(48.0),
        Kelvin::new(310.15),
    )
    .unwrap();
    let (mg, ssor, worst) = multigrid_against_ssor(&model);
    assert_eq!(mg.last_recovery(), RecoveryRung::Clean);
    assert_eq!(mg.stats().recovered_solves, 0);
    let digest = mg.precond_digest();
    assert!(digest.starts_with("mg("), "{digest}");
    let (mg_iters, ssor_iters) = (mg.last_stats().iterations, ssor.last_stats().iterations);
    assert!(
        mg_iters < ssor_iters,
        "multigrid {mg_iters} vs SSOR {ssor_iters} iterations"
    );
    assert!(
        worst < 1e-5,
        "multigrid session is {worst} K off the SSOR solve"
    );
}

mod refresh_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `refresh_coefficients` must land on exactly the state a cold
        /// rebuild at the target point produces, from any starting
        /// point: same solution field (checked to solver tolerance) and
        /// no re-assembly.
        #[test]
        fn refresh_matches_cold_rebuild(
            flow0 in 40.0..700.0f64,
            flow1 in 40.0..700.0f64,
            inlet_k in 295.0..320.0f64,
        ) {
            let mut model = ThermalModel::new(coarse_config(flow0, inlet_k)).unwrap();
            let power = Field2d::constant(model.grid().clone(), 5e4); // 5 W/cm^2
            let mut session = model.session().unwrap();
            model.solve_steady_warm(&power, &mut session).unwrap();

            model
                .refresh_coefficients(
                    CubicMetersPerSecond::from_milliliters_per_minute(flow1),
                    Kelvin::new(inlet_k),
                )
                .unwrap();
            let refreshed = model.solve_steady_warm(&power, &mut session).unwrap();
            let cold = ThermalModel::new(coarse_config(flow1, inlet_k))
                .unwrap()
                .solve_steady(&power)
                .unwrap();

            for lvl in 0..refreshed.level_count() {
                for (a, b) in refreshed
                    .level_map(lvl)
                    .as_slice()
                    .iter()
                    .zip(cold.level_map(lvl).as_slice())
                {
                    prop_assert!((a - b).abs() < 1e-5, "level {lvl}: {a} vs {b}");
                }
            }
            prop_assert_eq!(model.assembly_count(), 1);
            prop_assert_eq!(model.refresh_count(), 1);
        }
    }
}

mod checkpoint_properties {
    use super::*;
    use bright_thermal::{Checkpoint, PowerTrace, SteppingMode, TraceSegment, TransientSimulation};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// save -> (JSON round-trip) -> restore -> continue must be
        /// *bitwise* identical to the uninterrupted fixed-dt run, for
        /// any split point, step size and operating point: the solve
        /// warm-starts from the committed field either way, so the
        /// iterates coincide exactly.
        #[test]
        fn save_restore_continue_is_bitwise_identical(
            pre_steps in 1usize..8,
            post_steps in 1usize..8,
            dt_ms in 0.5..8.0f64,
            flow_ml_min in 40.0..700.0f64,
        ) {
            let dt = dt_ms * 1e-3;
            let model = ThermalModel::new(coarse_config(flow_ml_min, 300.0)).unwrap();
            let power = Field2d::constant(model.grid().clone(), 5e4); // 5 W/cm^2
            let duration = (pre_steps + post_steps) as f64 * dt;
            let trace = PowerTrace::new(vec![TraceSegment::constant(duration, power)]).unwrap();
            let stepping = SteppingMode::Fixed { dt };
            let fixed = || {
                TransientSimulation::new(model.clone(), trace.clone(), 300.0, stepping).unwrap()
            };

            let mut full = fixed();
            full.run_to_end().unwrap();

            let mut first = fixed();
            for _ in 0..pre_steps {
                first.step().unwrap();
            }
            let json = first.save_checkpoint().to_json_string();
            let cp = Checkpoint::from_json_str(&json).unwrap();

            let mut resumed = fixed();
            resumed.restore_checkpoint(&cp).unwrap();
            resumed.run_to_end().unwrap();

            prop_assert_eq!(resumed.time().to_bits(), full.time().to_bits());
            for (a, b) in resumed.temperatures().iter().zip(full.temperatures()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "field diverged: {} vs {}", a, b);
            }
        }
    }
}

mod trbdf2_properties {
    use super::*;
    use bright_num::vec_ops::wrms_diff;
    use bright_thermal::{
        AdaptiveConfig, Checkpoint, CoefficientRamp, PowerTrace, SteppingMode, TraceSegment,
        TransientSimulation,
    };
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// TR-BDF2 at its default (tight) tolerance must land within
        /// the controller's own error bound of a fine fixed-dt
        /// backward-Euler reference, for any operating point and load
        /// level: the embedded estimate really controls the global
        /// boundary-sampled error, not just the per-step one.
        #[test]
        fn trbdf2_tracks_fine_reference_within_bound(
            flow_ml_min in 40.0..700.0f64,
            power_w_cm2 in 1.0..12.0f64,
            duration_ms in 20.0..60.0f64,
        ) {
            let model =
                ThermalModel::new(coarse_config(flow_ml_min, 300.0)).unwrap();
            let power =
                Field2d::constant(model.grid().clone(), power_w_cm2 * 1e4);
            let duration = duration_ms * 1e-3;
            let cfg = AdaptiveConfig {
                dt_init: 1e-3,
                dt_min: 1e-4,
                dt_max: 0.02,
                ..AdaptiveConfig::default()
            };
            let trace = PowerTrace::new(vec![TraceSegment::constant(
                duration,
                power,
            )])
            .unwrap();
            let mut sim = TransientSimulation::new(
                model.clone(),
                trace.clone(),
                300.0,
                SteppingMode::Adaptive(cfg),
            )
            .unwrap();
            sim.run_to_end().unwrap();

            // Reference: fixed backward Euler at the controller's floor.
            let floor = SteppingMode::Fixed { dt: cfg.dt_min };
            let mut reference = TransientSimulation::new(model, trace, 300.0, floor).unwrap();
            reference.run_to_end().unwrap();

            let err = wrms_diff(
                sim.temperatures(),
                reference.temperatures(),
                cfg.abs_tol,
                cfg.rel_tol,
            );
            // wrms <= 1 is "within tolerance"; allow slack for the
            // reference's own first-order error at its floor step.
            prop_assert!(
                err < 2.0,
                "TR-BDF2 drifted {err} tolerance units from the fine reference"
            );
        }

        /// save -> (versioned JSON) -> restore -> continue is bitwise
        /// for the TR-BDF2 controller *mid-ramp*: the restore re-syncs
        /// the coefficients to where the ramp stood, so the remaining
        /// steps reproduce the uninterrupted run exactly — for any
        /// split point and ramp endpoints.
        #[test]
        fn mid_ramp_save_restore_continue_is_bitwise(
            split_steps in 2usize..6,
            flow_to_scale in 0.1..1.0f64,
            inlet_drift_k in 0.0..6.0f64,
        ) {
            let flow0 = 600.0;
            let model = ThermalModel::new(coarse_config(flow0, 300.0)).unwrap();
            let power = Field2d::constant(model.grid().clone(), 5e4);
            let ramp = CoefficientRamp {
                flow_start: CubicMetersPerSecond::from_milliliters_per_minute(flow0),
                flow_end: CubicMetersPerSecond::from_milliliters_per_minute(
                    flow0 * flow_to_scale,
                ),
                inlet_start: Kelvin::new(300.0),
                inlet_end: Kelvin::new(300.0 + inlet_drift_k),
            };
            let trace = PowerTrace::new(vec![
                TraceSegment::constant(0.03, power).with_ramp(ramp),
            ])
            .unwrap();
            let cfg = AdaptiveConfig {
                dt_init: 1e-3,
                dt_min: 2e-4,
                dt_max: 5e-3,
                ..AdaptiveConfig::default()
            };

            let stepping = SteppingMode::Adaptive(cfg);
            let mut full =
                TransientSimulation::new(model.clone(), trace.clone(), 300.0, stepping)
                    .unwrap();
            for _ in 0..split_steps {
                full.step().unwrap();
            }
            prop_assert!(!full.finished(), "split point must be mid-trace");
            let json = full.save_checkpoint().to_json_string();
            let cp = Checkpoint::from_json_str(&json).unwrap();
            full.run_to_end().unwrap();

            let mut resumed =
                TransientSimulation::new(model, trace, 300.0, stepping).unwrap();
            resumed.restore_checkpoint(&cp).unwrap();
            resumed.run_to_end().unwrap();

            prop_assert_eq!(resumed.time().to_bits(), full.time().to_bits());
            prop_assert_eq!(resumed.stats(), full.stats());
            for (a, b) in resumed.temperatures().iter().zip(full.temperatures()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "field diverged: {} vs {}", a, b);
            }
        }
    }
}
