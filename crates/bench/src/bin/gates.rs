//! The performance gates as one table: twelve time ratios (warm paths
//! against the cold rebuilds they replace, and the clean-path cost of
//! the recovery ladder and the durable service) and the counts that
//! need release-scale inputs, each a [`Row`] judged by [`passes`].
//! Other counts are ordinary tests; `docs/PERFORMANCE.md` maps them.
//!
//! Usage: `cargo run --release -p bright-bench --bin gates`, with no
//! flags and no `BRIGHT_*` variables set. It prints the table, writes
//! `GATES.json` (host threads, git revision, and each row's value,
//! limit and verdict), and exits 1 naming every failed row.

use bright_core::montecarlo::{self, McSpec};
use bright_core::service::{JobKind, JobSpec, LoadRef, Priority};
use bright_core::{
    CoSimulation, LoadStep, PolarizationRequest, Scenario, ScenarioEngine, ScenarioService,
    ServiceClock, ServiceConfig, SteppingMode, TransientRequest,
};
use bright_floorplan::{power7, PowerScenario};
use bright_flowcell::options::{SolverOptions, TemperatureProfile, VelocityModel};
use bright_flowcell::{CellGeometry, CellModel};
use bright_jsonio::Value;
use bright_num::rng::{CorrelatedSampler, Distribution};
use bright_num::solvers::IterOptions;
use bright_num::vec_ops::wrms_diff;
use bright_num::{faults, MgConfig, PrecondSpec, RecoveryPolicy, SolverSession, TripletMatrix};
use bright_pdn::presets::{CACHE_RAIL_SHEET_RESISTANCE, FIG8_NX, FIG8_NY};
use bright_pdn::presets::{PORT_PITCH, PORT_RESISTANCE};
use bright_pdn::{PortLayout, PowerGrid};
use bright_thermal::presets::{self, conduction_stack_scaled};
use bright_thermal::{
    AdaptiveConfig, AdaptiveTransient, CoefficientRamp, LayerSpec, PowerTrace, ThermalModel,
    TraceSegment, TransientSimulation,
};
use bright_units::{CubicMetersPerSecond, Kelvin, Meters, Volt, WattPerSquareMeter};
use std::hint::black_box;
use std::time::Instant;

/// The removed step-doubling controller on the full-scale throttle
/// trace, at equal boundary-sampled accuracy: its last recorded run
/// before it was deleted in `c26355c`. Linear solves, accepted steps,
/// tracking error in tolerance units, and the absolute tolerance that
/// run needed to match TR-BDF2.
const STEP_DOUBLING_SOLVES: f64 = 1368.0;
const STEP_DOUBLING_STEPS: f64 = 452.0;
const STEP_DOUBLING_ERR_TOL_UNITS: f64 = 0.862_523_972_349_401_9;
const STEP_DOUBLING_ABS_TOL: f64 = 3.125e-4;
/// TR-BDF2's tracking error when that run was picked. A less accurate
/// TR-BDF2 would have been matched by a looser, cheaper step-doubling
/// run, so the recorded solve count would overstate the saving.
const TRBDF2_MAX_ERR_TOL_UNITS: f64 = 1.24;

/// Which side of its limit a row's value must fall on.
#[derive(Clone, Copy, Debug)]
enum Dir {
    AtLeast,
    AtMost,
    Below,
    Exactly,
}

/// One gate: `value` must satisfy `dir` against `limit`.
struct Row {
    name: &'static str,
    value: f64,
    dir: Dir,
    limit: f64,
}

fn row(name: &'static str, value: f64, dir: Dir, limit: f64) -> Row {
    Row { name, value, dir, limit }
}

/// The verdict on one row. A NaN value fails in every direction.
fn passes(row: &Row) -> bool {
    match row.dir {
        Dir::AtLeast => row.value >= row.limit,
        Dir::AtMost => row.value <= row.limit,
        Dir::Below => row.value < row.limit,
        Dir::Exactly => row.value == row.limit,
    }
}

impl Row {
    fn to_json(&self) -> Value {
        Value::object([
            ("name".into(), Value::String(self.name.into())),
            ("value".into(), Value::Number(self.value)),
            ("direction".into(), Value::String(format!("{:?}", self.dir))),
            ("limit".into(), Value::Number(self.limit)),
            ("pass".into(), Value::Bool(passes(self))),
        ])
    }
}

/// The best of `reps` timed runs after one untimed warm-up: the least
/// noisy statistic on a shared host.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `best_of` the cold side over `best_of` the warm side.
fn speedup<A, B>(reps: usize, cold: impl FnMut() -> A, warm: impl FnMut() -> B) -> f64 {
    let cold = best_of(reps, cold);
    cold / best_of(reps, warm)
}

/// The cold side's process CPU over the warm side's, summed over
/// `pairs` alternating runs after one untimed warm-up of each. For
/// single-threaded work this is steadier than best-of wall time on a
/// shared host: preemption does not count, alternation spreads slow
/// spells over both sides, and the sums span enough clock ticks.
fn cpu_speedup<A, B>(pairs: usize, mut cold: impl FnMut() -> A, mut warm: impl FnMut() -> B) -> f64 {
    black_box(cold());
    black_box(warm());
    let (mut cold_cpu, mut warm_cpu) = (0.0, 0.0);
    for _ in 0..pairs {
        cold_cpu += cpu_cost(|| {
            black_box(cold());
        });
        warm_cpu += cpu_cost(|| {
            black_box(warm());
        });
    }
    cold_cpu / warm_cpu
}

/// Builds the cache rail at `nx`×`ny` with the Fig. 8 electrical
/// parameters. The grid and its load map are made once, outside any
/// timed build.
fn cache_rail(nx: usize, ny: usize) -> impl Fn() -> PowerGrid {
    let plan = power7::floorplan();
    let (width, height) = (plan.width().value(), plan.height().value());
    let grid = bright_mesh::Grid2d::from_extent(width, height, nx, ny).expect("grid");
    let load = PowerScenario::cache_only().rasterize(&plan, &grid).expect("rail map");
    let ports = PortLayout::UniformArray { pitch: PORT_PITCH };
    let (sheet, port) = (CACHE_RAIL_SHEET_RESISTANCE, PORT_RESISTANCE);
    move || PowerGrid::new(grid.clone(), sheet, Volt::new(1.0), port, &ports, &load).expect("grid")
}

/// The POWER7+ stack at `flow_ml_min` and a 300 K inlet, with its full-load map.
fn stack_at(flow_ml_min: f64) -> (ThermalModel, bright_mesh::Field2d) {
    let flow = CubicMetersPerSecond::from_milliliters_per_minute(flow_ml_min);
    let model = presets::power7_stack_at(flow, Kelvin::new(300.0)).expect("Table II stack");
    let full = PowerScenario::full_load().rasterize(&power7::floorplan(), model.grid());
    (model, full.expect("power map"))
}

/// Sessions and caches against rebuilding per call, two repetitions
/// each: a 64-point channel polarization curve; three repeated thermal
/// and PDN (106×85) solves; a 4-request flow batch through one
/// `ScenarioEngine` against cold co-simulations. A 4-point flow sweep
/// re-stamped through one thermal model, by process CPU over five
/// alternating pairs. Six cold CG solves of six cache-rail loads
/// against the banded factor plus six direct solves on one 106×85
/// grid, the path the co-simulation takes. Then Jacobi's CG iterations
/// on the 212×170 rail over the best of SSOR(1.0), SSOR(1.5) and IC(0).
fn warm_paths() -> Vec<Row> {
    let (reps, solves) = (2, 3);
    let channel = bright_flowcell::presets::power7_channel().expect("Table II preset");
    let ocv = channel.open_circuit_voltage().expect("chemistry").value();
    let v_lo = 0.05_f64.min(ocv / 2.0);
    let voltages: Vec<f64> = (0..64)
        .map(|k| v_lo + (ocv - 1e-4 - v_lo) * f64::from(k) / 63.0)
        .collect();
    let polarization = speedup(
        reps,
        || {
            for &v in &voltages {
                let fresh = channel.with_temperature(channel.temperature().clone());
                black_box(fresh.expect("same profile").solve_at_voltage(v).expect("solve"));
            }
        },
        || channel.polarization_curve(64).expect("sweep"),
    );

    let (model, power) = stack_at(676.0);
    let thermal = speedup(
        reps,
        || {
            for _ in 0..solves {
                let fresh = ThermalModel::new(model.config().clone()).expect("valid stack");
                black_box(fresh.solve_steady(&power).expect("steady solve"));
            }
        },
        || {
            let mut session = model.session().expect("assembled operator");
            for _ in 0..solves {
                black_box(model.solve_steady_warm(&power, &mut session).expect("solve"));
            }
        },
    );

    let rail = cache_rail(FIG8_NX, FIG8_NY);
    let grid = rail();
    let plan = power7::floorplan();
    let loads: Vec<bright_mesh::Field2d> = (0..6)
        .map(|k| {
            let scale = 0.90 + 0.05 * f64::from(k);
            PowerScenario::cache_only().scaled(scale).rasterize(&plan, grid.grid()).expect("map")
        })
        .collect();
    let direct = speedup(
        reps,
        || {
            let mut cold = rail();
            for load in &loads {
                cold.set_power_density(load).expect("same grid");
                black_box(cold.solve().expect("pdn solve"));
            }
        },
        || {
            let mut factored = rail();
            factored.factor_direct().expect("SPD sheet");
            for load in &loads {
                factored.set_power_density(load).expect("same grid");
                black_box(factored.solve_direct().expect("pdn solve"));
            }
        },
    );
    let pdn = speedup(
        reps,
        || {
            for _ in 0..solves {
                black_box(rail().solve().expect("pdn solve"));
            }
        },
        || {
            let mut session = grid.session();
            for _ in 0..solves {
                black_box(grid.solve_warm(&mut session).expect("pdn solve"));
            }
        },
    );

    // Four flows from the nominal 676 ml/min down to `lo`.
    let ladder = |lo: f64| {
        let ml_min = (0..4).map(move |k| 676.0 - (676.0 - lo) * f64::from(k) / 3.0);
        ml_min.map(CubicMetersPerSecond::from_milliliters_per_minute)
    };
    let inlet = Kelvin::new(300.0);
    let flows: Vec<CubicMetersPerSecond> = ladder(48.0).collect();
    let mut sweep = ThermalModel::new(model.config().clone()).expect("valid stack");
    let refresh = cpu_speedup(
        5,
        || {
            for flow in &flows {
                let mut config = model.config().clone();
                for layer in &mut config.layers {
                    if let LayerSpec::Microchannel { spec, .. } = layer {
                        spec.total_flow = *flow;
                        spec.inlet_temperature = inlet;
                    }
                }
                let fresh = ThermalModel::new(config).expect("valid stack");
                black_box(fresh.solve_steady(&power).expect("steady solve"));
            }
        },
        || {
            let mut session = sweep.session().expect("assembled operator");
            for flow in &flows {
                sweep.refresh_coefficients(*flow, inlet).expect("same pattern");
                black_box(sweep.solve_steady_warm(&power, &mut session).expect("solve"));
            }
        },
    );

    let scenarios: Vec<Scenario> = ladder(96.0)
        .map(|total_flow| Scenario { total_flow, ..Scenario::power7_reduced() })
        .collect();
    let mut engine = ScenarioEngine::new();
    let batch = speedup(
        reps,
        || {
            for s in &scenarios {
                let mut sim = CoSimulation::new(s.clone()).expect("valid scenario");
                black_box(sim.run().expect("cosim run"));
            }
        },
        || {
            for report in engine.run_batch(scenarios.iter().cloned()) {
                black_box(report.result.expect("engine request"));
            }
        },
    );

    let grid = cache_rail(212, 170)();
    let iterations = |spec: PrecondSpec| {
        let mut session = grid.session_with(spec);
        grid.solve_warm(&mut session).expect("pdn solve");
        session.last_stats().iterations as f64
    };
    let strong = [PrecondSpec::ssor(), PrecondSpec::Ssor { omega: 1.5 }, PrecondSpec::Ic0];
    let best = strong.map(iterations).into_iter().fold(f64::INFINITY, f64::min);
    vec![
        row("polarization_curve_64", polarization, Dir::AtLeast, 2.0),
        row("thermal_steady_repeat", thermal, Dir::AtLeast, 1.5),
        row("pdn_solve_repeat", pdn, Dir::AtLeast, 1.5),
        row("thermal_refresh_sweep", refresh, Dir::AtLeast, 1.3),
        row("pdn_direct_six_loads", direct, Dir::AtLeast, 2.0),
        row("engine_batch", batch, Dir::AtLeast, 1.05),
        row("pdn_cg_jacobi_over_best", iterations(PrecondSpec::Jacobi) / best, Dir::AtLeast, 2.0),
    ]
}

/// Four 3-segment duty-cycle traces sharing a 2-segment prefix, as one
/// engine batch against one fresh engine per trace (best of 2).
fn checkpoint_branch() -> Vec<Row> {
    let requests: Vec<TransientRequest> = (1..=4)
        .map(|dark| {
            let mut tail = PowerScenario::full_load();
            for i in 0..dark {
                tail.set_block_density(format!("core{i}"), WattPerSquareMeter::new(0.0));
            }
            TransientRequest {
                scenario: Scenario::power7_reduced(),
                trace: vec![
                    LoadStep::new(0.02, PowerScenario::full_load()),
                    LoadStep::new(0.02, PowerScenario::cache_only()),
                    LoadStep::new(0.02, tail),
                ],
                initial_temperature: Kelvin::new(300.0),
                stepping: SteppingMode::Adaptive(AdaptiveConfig::default()),
            }
        })
        .collect();
    let serve = |batch: &[TransientRequest]| {
        let mut engine = ScenarioEngine::new();
        for report in engine.run_transient_batch(batch.iter().cloned()) {
            black_box(report.result.expect("transient request"));
        }
    };
    let cold = || requests.iter().for_each(|r| serve(std::slice::from_ref(r)));
    let branch = speedup(2, cold, || serve(&requests));
    vec![row("checkpoint_branch", branch, Dir::AtLeast, 1.2)]
}

/// Integrates `trace` at fixed `dt` from 300 K; returns the step count
/// and the field at every segment boundary.
fn fixed_sampled(model: &ThermalModel, trace: &PowerTrace, dt: f64) -> (u64, Vec<Vec<f64>>) {
    let first = &trace.segments()[0].power;
    let mut sim = TransientSimulation::new(model.clone(), first, 300.0, dt).expect("fixed sim");
    let mut samples = Vec::with_capacity(trace.len());
    for seg in trace.segments() {
        sim.run_trace(&PowerTrace::new(vec![seg.clone()]).expect("segment")).expect("fixed trace");
        samples.push(sim.temperatures().to_vec());
    }
    (sim.step_count(), samples)
}

/// Two full-scale TR-BDF2 traces, both at `abs_tol` 0.01 with steps
/// from 2.5e-4 to 0.1 s.
///
/// The throttle trace is full load for 0.10 s, power-gated for 0.30 s,
/// then full load for 0.20 s, on the 48 ml/min stack. TR-BDF2 and a
/// halving ladder of fixed Δt are sampled at the segment boundaries
/// against a fixed-Δt reference at the 2.5e-4 s step floor. The
/// tracking error is the worst weighted-RMS distance over those
/// samples, in tolerance units: an end-of-trace comparison would let a
/// coarse stepper coast, since this system forgets early errors.
///
/// The spin-down ramps the pump from 676 to 48 ml/min over 0.15 s under
/// full load, then holds it for 0.25 s, on one model.
fn transients() -> Vec<Row> {
    let cfg = AdaptiveConfig {
        abs_tol: 0.01,
        dt_init: 1e-3,
        dt_min: 2.5e-4,
        dt_max: 0.1,
        ..AdaptiveConfig::default()
    };
    let (model, full) = stack_at(48.0);
    let gated = PowerScenario::cache_only().rasterize(&power7::floorplan(), model.grid());
    let trace = PowerTrace::new(vec![
        TraceSegment::constant(0.10, full.clone()),
        TraceSegment::constant(0.30, gated.expect("power map")),
        TraceSegment::constant(0.20, full),
    ])
    .expect("valid trace");
    let (_, reference) = fixed_sampled(&model, &trace, cfg.dt_min);
    let tracking_err = |samples: &[Vec<f64>]| {
        samples
            .iter()
            .zip(&reference)
            .map(|(s, r)| wrms_diff(s, r, cfg.abs_tol, cfg.rel_tol))
            .fold(0.0, f64::max)
    };
    let mut sim = AdaptiveTransient::new(model.clone(), trace.clone(), 300.0, cfg).expect("sim");
    let mut samples = Vec::with_capacity(trace.len());
    while !sim.finished() {
        sim.step().expect("TR-BDF2 step");
        if sim.segment_index() > samples.len() {
            samples.push(sim.temperatures().to_vec());
        }
    }
    let (steps, solves) = (sim.stats().accepted as f64, sim.stats().solves as f64);
    let err = tracking_err(&samples);

    // Fixed Δt at equal accuracy: the coarsest rung, halving from
    // 16 ms, whose error does not exceed TR-BDF2's. If even the finest
    // rung is less accurate, it under-counts the steps equal accuracy
    // needs, so the ratio stays conservative.
    let mut dt = 16e-3;
    let fixed_steps = loop {
        let (steps, fixed) = fixed_sampled(&model, &trace, dt);
        if tracking_err(&fixed) <= err || dt / 2.0 < cfg.dt_min * 2.0 - 1e-12 {
            break steps as f64;
        }
        dt /= 2.0;
    };
    println!("  throttle: fixed dt {:.2} ms takes {fixed_steps} steps", dt * 1e3);

    let (model, full) = stack_at(676.0);
    let (nominal, inlet) = model.operating_point().expect("liquid-cooled preset");
    let throttled = CubicMetersPerSecond::from_milliliters_per_minute(48.0);
    let ramp = |flow_start, flow_end| {
        CoefficientRamp { flow_start, flow_end, inlet_start: inlet, inlet_end: inlet }
    };
    let spin_down = PowerTrace::new(vec![
        TraceSegment::constant(0.15, full.clone()).with_ramp(ramp(nominal, throttled)),
        TraceSegment::constant(0.25, full).with_ramp(ramp(throttled, throttled)),
    ])
    .expect("valid trace");
    let mut ramped = AdaptiveTransient::new(model, spin_down, 300.0, cfg).expect("sim");
    ramped.run_to_end().expect("ramped trace");
    let step_doubling = STEP_DOUBLING_SOLVES / solves;
    vec![
        row("throttle_trbdf2_steps", steps, Dir::Exactly, 44.0),
        row("throttle_trbdf2_solves", solves, Dir::Exactly, 110.0),
        row("throttle_fixed_over_trbdf2_steps", fixed_steps / steps, Dir::AtLeast, 2.0),
        row("throttle_step_doubling_over_trbdf2_solves", step_doubling, Dir::AtLeast, 1.8),
        row("throttle_trbdf2_tracking_err", err, Dir::AtMost, TRBDF2_MAX_ERR_TOL_UNITS),
        row("spin_down_solves", ramped.stats().solves as f64, Dir::Exactly, 54.0),
        row("spin_down_restamps", ramped.coefficient_refreshes() as f64, Dir::Exactly, 35.0),
        row("spin_down_assemblies", ramped.model().assembly_count() as f64, Dir::Exactly, 1.0),
    ]
}

/// A 6-point flow and temperature ablation of 6-point polarization
/// curves on a duct-velocity cell (best of 2): one cell retargeted in
/// place against a cold cell per point, then as engine requests against
/// a cold cell per request.
fn retarget() -> Vec<Row> {
    let (reps, curve) = (2, 6);
    let per_channel = CubicMetersPerSecond::from_milliliters_per_minute;
    let velocity = VelocityModel::Duct { nz: 16 };
    let options = SolverOptions { ny: 32, nx: 80, velocity, ..SolverOptions::default() };
    let cold_cell = |flow, inlet| {
        let (width, height) = (Meters::from_micrometers(200.0), Meters::from_micrometers(400.0));
        let channel = bright_flow::RectChannel::new(width, height, Meters::from_millimeters(22.0));
        let geometry = CellGeometry::new(channel.expect("Table II channel"));
        let chemistry = bright_echem::vanadium::power7_cell_chemistry();
        let profile = TemperatureProfile::Uniform(inlet);
        CellModel::new(geometry, chemistry, flow, profile, options.clone()).expect("valid cell")
    };
    // Three flows (ml/min per channel) at 300 K, three inlets at 7.68.
    let points = [(7.68, 300.0), (4.115, 300.0), (0.55, 300.0)]
        .into_iter()
        .chain([(7.68, 295.0), (7.68, 310.0), (7.68, 325.0)])
        .map(|(ml_min, t)| (per_channel(ml_min), Kelvin::new(t)));
    let points: Vec<(CubicMetersPerSecond, Kelvin)> = points.collect();
    let mut cell = cold_cell(per_channel(7.68), Kelvin::new(300.0));
    cell.warm().expect("context");
    let sweep = speedup(
        reps,
        || {
            for &(flow, t) in &points {
                black_box(cold_cell(flow, t).polarization_curve(curve).expect("sweep"));
            }
        },
        || {
            for &(flow, t) in &points {
                cell.retarget_flow(flow).expect("flow retarget");
                let profile = TemperatureProfile::Uniform(t);
                cell.retarget_temperature(profile).expect("temperature retarget");
                black_box(cell.polarization_curve(curve).expect("sweep"));
            }
        },
    );

    let scenarios: Vec<Scenario> = points
        .iter()
        .map(|&(flow, t)| {
            let mut s = Scenario::power7_nominal();
            s.cell_options = options.clone();
            s.total_flow = flow * s.channel_count as f64;
            s.inlet_temperature = t;
            s
        })
        .collect();
    let request = |scenario| PolarizationRequest { scenario, points: curve };
    let mut engine = ScenarioEngine::new();
    let batch = speedup(
        reps,
        || {
            for s in &scenarios {
                let cell = cold_cell(s.per_channel_flow(), s.inlet_temperature);
                let sweep = cell.polarization_curve(curve).expect("sweep");
                black_box(sweep.scaled_parallel(s.channel_count));
            }
        },
        || {
            for report in engine.run_polarization_batch(scenarios.iter().cloned().map(request)) {
                black_box(report.result.expect("polarization request"));
            }
        },
    );
    vec![
        row("polarization_retarget_sweep", sweep, Dir::AtLeast, 1.3),
        row("engine_polarization_batch", batch, Dir::AtLeast, 1.05),
    ]
}

/// Ten refresh+solve epochs on a 1200-row SSOR-CG chain, faults forced
/// off, with the recovery ladder on against off (best of 3). The row is
/// (on − 1 ms) / off: one millisecond of slack keeps timer noise on a
/// short run from tripping the 5% limit.
fn recovery_ladder() -> Vec<Row> {
    let n = 1200;
    let chain = |k: f64| {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 * k + 1.0).expect("in range");
            if i > 0 {
                t.push(i, i - 1, -k).expect("in range");
            }
            if i + 1 < n {
                t.push(i, i + 1, -k).expect("in range");
            }
        }
        t
    };
    let b = vec![1.0; n];
    let timed = |policy: RecoveryPolicy| {
        let options = IterOptions { preconditioner: PrecondSpec::ssor(), ..IterOptions::default() };
        let mut session = SolverSession::new(options);
        session.set_recovery_policy(policy);
        session.bind_triplets(&chain(1.0)).expect("square SPD chain");
        let mut epoch = 0u64;
        best_of(3, || {
            faults::with_plan(None, || {
                for e in 0..10 {
                    epoch += 1;
                    let k = 1.0 + 0.25 * f64::from(e % 5);
                    session.refresh_values(&chain(k), epoch).expect("same pattern");
                    black_box(session.solve_spd(&b).expect("clean solve"));
                }
            })
        })
    };
    let (off, on) = (timed(RecoveryPolicy::disabled()), timed(RecoveryPolicy::default()));
    vec![row("recovery_ladder_on_over_off", (on - 1e-3) / off, Dir::AtMost, 1.05)]
}

/// Multigrid on the scaled conduction stack: mesh independence from
/// scale 2 (77 440 unknowns, multigrid forced) to scale 8 (1 239 040,
/// auto-selected), the SSOR(1.5) comparison at scale 6 (696 960), and
/// one bind → solve → re-stamp → solve cycle at scale 2.
fn multigrid() -> Vec<Row> {
    let stack = |scale: usize| {
        let model = conduction_stack_scaled(scale).expect("conduction preset");
        let power = PowerScenario::full_load().rasterize(&power7::floorplan(), model.grid());
        (model, power.expect("rasterize"))
    };
    // Forces multigrid on a grid below the auto-selection threshold.
    let forced_mg = |model: &ThermalModel| {
        let grid = model.grid();
        PrecondSpec::Multigrid(MgConfig::for_grid(grid.nx(), grid.ny(), model.level_count()))
    };
    // Unknowns, iterations and the preconditioner digest of one cold
    // solve; `None` keeps the preconditioner the session auto-selects.
    let solve = |scale: usize, precond: Option<PrecondSpec>| {
        let (model, power) = stack(scale);
        let mut session = model.session().expect("session");
        if let Some(spec) = precond {
            session.set_preconditioner(spec);
        }
        let sources = [(0, &power), (2, &power)];
        model.solve_steady_with_sources_warm(&sources, &mut session).expect("steady solve");
        let unknowns = (model.grid().len() * model.level_count()) as f64;
        let iterations = session.last_stats().iterations as f64;
        println!("  scale {scale}: {unknowns} unknowns, {iterations} iterations");
        (unknowns, iterations, session.precond_digest())
    };
    let small = solve(2, Some(forced_mg(&stack(2).0)));
    let large = solve(8, None);
    let ssor = solve(6, Some(PrecondSpec::Ssor { omega: 1.5 }));
    let mg = solve(6, None);

    // A value-only re-stamp: the stack has no microchannel layers, but
    // the model still re-stamps through its cached pattern and advances
    // its coefficient epoch, as a flow sweep does on the fluid stacks.
    let (mut model, power) = stack(2);
    let sources = [(0, &power), (2, &power)];
    let mut session = model.session().expect("session");
    session.set_preconditioner(forced_mg(&model));
    model.solve_steady_with_sources_warm(&sources, &mut session).expect("cold solve");
    model.refresh_microchannels(|_| {}).expect("value-only re-stamp");
    model.solve_steady_with_sources_warm(&sources, &mut session).expect("warm solve");
    let stats = session.stats();
    let auto_mg = if large.2.starts_with("mg(") { 1.0 } else { 0.0 };
    vec![
        row("mg_unknown_growth", large.0 / small.0, Dir::Exactly, 16.0),
        row("mg_iteration_growth", large.1 / small.1, Dir::Below, 1.5),
        row("mg_auto_selected_at_scale_8", auto_mg, Dir::Exactly, 1.0),
        row("ssor_comparison_unknowns", ssor.0, Dir::AtLeast, 500_000.0),
        row("ssor_over_mg_iterations", ssor.1 / mg.1, Dir::AtLeast, 3.0),
        row("mg_hierarchy_builds", stats.mg_hierarchy_builds as f64, Dir::Exactly, 1.0),
        row("mg_hierarchy_refreshes", stats.mg_refreshes as f64, Dir::Exactly, 1.0),
    ]
}

/// A serial 200-sample `power7_tolerances` study on coarse thermal and
/// cell grids (the PDN stays at 106×85), served warm by
/// `montecarlo::run` against a cold `CoSimulation` per sample on the
/// same sample sequence. One timed run per side.
fn monte_carlo() -> Vec<Row> {
    let samples = 200;
    let mut base = Scenario::power7_reduced();
    (base.thermal_columns, base.thermal_ny) = (11, 8);
    (base.cell_options.ny, base.cell_options.nx) = (12, 24);
    let mut spec = McSpec::power7_tolerances(base);
    (spec.samples, spec.chunk, spec.workers) = (samples, samples, Some(1));

    let marginals: Vec<Distribution> = spec.variables.iter().map(|v| v.distribution).collect();
    let sampler = CorrelatedSampler::new(spec.seed, marginals, spec.correlation.as_deref())
        .expect("valid sampler");
    let t0 = Instant::now();
    for i in 0..samples as u64 {
        let values = sampler.sample(i);
        if let Ok(scenario) = montecarlo::apply_sample(&spec.base, &spec.variables, &values) {
            let mut sim = CoSimulation::new(scenario).expect("valid scenario");
            black_box(sim.run_yield().expect("cold yield solve"));
        }
    }
    let cold = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    black_box(montecarlo::run(&spec).expect("warm yield study"));
    let warm = t1.elapsed().as_secs_f64();
    vec![row("mc_warm_over_cold", cold / warm, Dir::AtLeast, 5.0)]
}

/// The CPU cost of `body` in clock ticks (user + system, all threads),
/// or its wall time off Linux. CPU time charges exactly the work the
/// process did, where wall clock on a shared host swings tens of
/// percent from scheduler interference alone.
fn cpu_cost(body: impl FnOnce()) -> f64 {
    let ticks = || {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Skip past the parenthesised command name, which may hold spaces.
        let mut fields = stat.get(stat.rfind(')')? + 2..)?.split_whitespace();
        let utime: f64 = fields.nth(11)?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some(utime + stime)
    };
    let (cpu0, t0) = (ticks(), Instant::now());
    body();
    match (cpu0, ticks()) {
        (Some(a), Some(b)) => b - a,
        _ => t0.elapsed().as_secs_f64(),
    }
}

/// A mixed batch of 8 jobs at upsized `power7_reduced` resolution (4
/// steady flows, 2 transients with distinct first loads, 2
/// polarization sweeps) through a fresh durable service against a
/// fresh deterministic engine. The row is the least service/engine CPU
/// ratio over 3 back-to-back pairs, minus one.
fn durability() -> Vec<Row> {
    let heavy = |kind, priority| {
        let mut spec = JobSpec { kind, priority, ..JobSpec::steady("power7_reduced") };
        let o = &mut spec.overrides;
        (o.thermal_columns, o.thermal_ny) = (Some(44), Some(44));
        (o.cell_ny, o.cell_nx) = (Some(24), Some(120));
        spec
    };
    let (mut specs, mut steady) = (Vec::new(), Vec::new());
    let (mut transients, mut polarizations) = (Vec::new(), Vec::new());
    for i in 0..4 {
        let mut spec = heavy(JobKind::Steady, Priority::Normal);
        spec.overrides.total_flow_ml_min = Some(600.0 + 20.0 * f64::from(i));
        steady.push(spec.scenario().expect("valid spec"));
        specs.push(spec);
    }
    for i in 0..2 {
        let first = LoadRef { base: "full_load".into(), scale: 1.0 - 0.1 * f64::from(i) };
        let trace = vec![(3e-3, first, None), (3e-3, LoadRef::cache_only(), None)];
        let stepping = SteppingMode::Fixed { dt: 1e-3 };
        let load = |(d, l, _): &(f64, LoadRef, _)| LoadStep::new(*d, l.resolve().expect("load"));
        let steps = trace.iter().map(load).collect();
        let kind = JobKind::Transient { trace, initial_temperature_k: 300.0, stepping };
        let spec = heavy(kind, Priority::Batch);
        let (scenario, initial_temperature) = (spec.scenario().expect("spec"), Kelvin::new(300.0));
        transients.push(TransientRequest { scenario, trace: steps, initial_temperature, stepping });
        specs.push(spec);
    }
    for i in 0..2 {
        let mut spec = heavy(JobKind::Polarization { points: 6 }, Priority::Interactive);
        spec.overrides.inlet_temperature_k = Some(300.0 + 2.0 * f64::from(i));
        let scenario = spec.scenario().expect("valid spec");
        polarizations.push(PolarizationRequest { scenario, points: 6 });
        specs.push(spec);
    }

    let dir = std::env::temp_dir().join(format!("bright_gates_{}", std::process::id()));
    let mut overhead = f64::INFINITY;
    for _ in 0..3 {
        let engine = cpu_cost(|| {
            let mut engine = ScenarioEngine::new();
            engine.set_deterministic(true);
            for r in engine.run_batch(steady.clone()) {
                r.result.expect("steady solve");
            }
            for r in engine.run_transient_batch(transients.clone()) {
                r.result.expect("transient solve");
            }
            for r in engine.run_polarization_batch(polarizations.clone()) {
                r.result.expect("polarization solve");
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
        let service = cpu_cost(|| {
            let (config, clock) = (ServiceConfig::default(), ServiceClock::System);
            let mut service = ScenarioService::open(&dir, config, clock).expect("store opens");
            for spec in specs.clone() {
                service.submit(spec).expect("admitted");
            }
            let summary = service.drain().expect("drain");
            assert_eq!(summary.completed as usize, specs.len(), "every job completes");
        });
        let _ = std::fs::remove_dir_all(&dir);
        overhead = overhead.min(service / engine - 1.0);
    }
    vec![row("durability_cpu_overhead", overhead, Dir::AtMost, 0.05)]
}

fn main() {
    bright_bench::banner("GATES", "time ratios and release-scale counts");
    let start = Instant::now();
    let families: [fn() -> Vec<Row>; 8] = [
        warm_paths,
        checkpoint_branch,
        transients,
        retarget,
        recovery_ladder,
        multigrid,
        monte_carlo,
        durability,
    ];
    let mut rows = Vec::new();
    for family in families {
        for r in family() {
            let verdict = if passes(&r) { "pass" } else { "FAIL" };
            let (name, value, dir, limit) = (r.name, r.value, r.dir, r.limit);
            println!("  {name:<42} {value:>12.4} {:>7} {limit:<10} {verdict}", format!("{dir:?}"));
            rows.push(r);
        }
    }

    let revision = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned());
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let step_doubling = [
        ("solves", STEP_DOUBLING_SOLVES),
        ("steps", STEP_DOUBLING_STEPS),
        ("err_tol_units", STEP_DOUBLING_ERR_TOL_UNITS),
        ("abs_tol", STEP_DOUBLING_ABS_TOL),
    ];
    let doc = Value::object([
        ("host_threads".into(), Value::Number(threads as f64)),
        ("git_revision".into(), Value::String(revision.unwrap_or_else(|| "unknown".into()))),
        (
            "step_doubling_record".into(),
            Value::object(step_doubling.map(|(key, x)| (key.into(), Value::Number(x)))),
        ),
        ("rows".into(), Value::Array(rows.iter().map(Row::to_json).collect())),
    ]);
    std::fs::write("GATES.json", doc.to_json_string_pretty() + "\n").expect("write GATES.json");
    let elapsed = start.elapsed().as_secs_f64();
    println!("  {} rows in {elapsed:.1} s; wrote GATES.json", rows.len());

    let failed: Vec<&str> = rows.iter().filter(|r| !passes(r)).map(|r| r.name).collect();
    if !failed.is_empty() {
        eprintln!("GATES FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_passes_and_fails_in_every_direction() {
        // (direction, value, limit, verdict): one pass, one fail each.
        let cases = [
            (Dir::AtLeast, 2.0, 2.0, true),
            (Dir::AtLeast, 1.99, 2.0, false),
            (Dir::AtMost, 0.05, 0.05, true),
            (Dir::AtMost, 0.051, 0.05, false),
            (Dir::Below, 1.49, 1.5, true),
            (Dir::Below, 1.5, 1.5, false),
            (Dir::Exactly, 44.0, 44.0, true),
            (Dir::Exactly, 45.0, 44.0, false),
        ];
        for (dir, value, limit, pass) in cases {
            assert_eq!(passes(&row("case", value, dir, limit)), pass, "{value} {dir:?} {limit}");
            assert!(!passes(&row("nan", f64::NAN, dir, limit)), "NaN must fail {dir:?}");
        }
    }
}
