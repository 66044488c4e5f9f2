//! `paper_cosim`: one full-resolution POWER7+ co-simulation retargeted
//! through the paper's operating points (nominal, Section III-B
//! throttled and warm-inlet) and a few seeded flow-sweep points, with
//! `CoSimulation::run` at each.
//!
//! The traced run replays every point stage by stage through the public
//! layer calls (thermal solve, flow-cell sweep / 1 V point / isothermal
//! baseline, PDN solve, hydraulics) and checks that the replay
//! reproduces the co-simulation's report.

use crate::measure::{ensure, mean, median, ms_since, timed, Ctx, Outcome, Rng};
use bright_core::{CoSimReport, CoSimulation, Scenario};
use bright_flow::array::ChannelArray;
use bright_flow::fluid::TemperatureDependentFluid;
use bright_flowcell::options::TemperatureProfile;
use bright_flowcell::{CellArray, CellModel};
use bright_num::SolverSession;
use bright_pdn::PowerGrid;
use bright_thermal::ThermalModel;
use bright_units::{CubicMetersPerSecond, Meters};
use std::time::Instant;

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seeded flow-sweep points appended to the three paper points.
const SWEEP_POINTS: usize = 3;
/// Points per cycle.
const CYCLE: usize = 3 + SWEEP_POINTS;

#[derive(Clone, Copy, PartialEq)]
enum Point {
    Nominal,
    Throttled,
    WarmInlet,
    FlowSweep,
}

/// The paper's three points followed by `SWEEP_POINTS` seeded flows;
/// cycle `k` draws its own flows, so a run covers many of them.
fn cycle(rng: &mut Rng) -> Vec<(Point, Scenario)> {
    let mut points = vec![
        (Point::Nominal, Scenario::power7_nominal()),
        (Point::Throttled, Scenario::power7_throttled()),
        (Point::WarmInlet, Scenario::power7_warm_inlet()),
    ];
    for _ in 0..SWEEP_POINTS {
        let mut s = Scenario::power7_nominal();
        s.total_flow =
            CubicMetersPerSecond::from_milliliters_per_minute(rng.uniform(150.0, 650.0).round());
        points.push((Point::FlowSweep, s));
    }
    points
}

/// Enough cycles for any measurement window (a point takes about 1 s).
fn points(seed: u64, seconds: f64) -> Vec<(Point, Scenario)> {
    let mut rng = Rng::new(seed);
    let cycles = (seconds / 3.0).ceil() as usize + 2;
    (0..cycles).flat_map(|_| cycle(&mut rng)).collect()
}

fn within(name: &str, value: f64, lo: f64, hi: f64) -> Result<(), String> {
    ensure(value > lo && value < hi, || {
        format!("{name} = {value} outside ({lo}, {hi})")
    })
}

/// The `tests/reproduction.rs` bands: the rail (Fig 8) bands hold at
/// every point, since the PDN does not see the coolant; the array and
/// temperature bands hold at the flow and inlet the paper states them
/// for.
fn check_report(point: Point, r: &CoSimReport) -> Result<(), String> {
    within(
        "Fig 8 min rail voltage",
        r.pdn_min_voltage.value(),
        0.93,
        0.995,
    )?;
    within(
        "Fig 8 max rail voltage",
        r.pdn_max_voltage.value(),
        0.99,
        1.0 + 1e-9,
    )?;
    within("array OCV", r.array_ocv.value(), 1.55, 1.75)?;
    ensure(
        r.peak_temperature.value() > r.inlet_temperature.value() && r.current_at_1v.value() > 0.0,
        || "peak temperature below the inlet or no current at 1 V".into(),
    )?;
    if matches!(point, Point::Nominal | Point::WarmInlet) {
        within(
            "Fig 7 array current at 1 V",
            r.current_at_1v.value(),
            2.5,
            8.0,
        )?;
    }
    match point {
        Point::Nominal => {
            let peak_c = r.peak_temperature.to_celsius().value();
            within("Fig 9 peak temperature (degC)", peak_c, 32.0, 50.0)?;
            within("Fig 9 peak rise (K)", peak_c - 26.85, 5.0, 28.0)?;
            within(
                "nominal thermal boost (%)",
                r.thermal_boost_percent,
                -1e-9,
                8.0,
            )?;
            ensure(r.is_net_positive() && r.operating_point.is_some(), || {
                "nominal point is not net positive with an operating point".into()
            })
        }
        Point::Throttled => within(
            "throttled thermal boost (%)",
            r.thermal_boost_percent,
            10.0,
            35.0,
        ),
        Point::WarmInlet | Point::FlowSweep => Ok(()),
    }
}

/// Retarget + run: the user's operation, timed as one point.
fn point(sim: &mut CoSimulation, s: &Scenario) -> Result<(CoSimReport, f64, f64), String> {
    let (retargeted, retarget_ms) = timed(|| sim.retarget(s.clone()));
    retargeted.ctx("retarget")?;
    let (report, run_ms) = timed(|| sim.run());
    Ok((report.ctx("run")?, retarget_ms, run_ms))
}

fn cold_setup() -> Result<(CoSimulation, f64), String> {
    let t0 = Instant::now();
    let mut sim = CoSimulation::new(Scenario::power7_nominal()).ctx("new")?;
    sim.run().ctx("cold run")?;
    Ok((sim, t0.elapsed().as_secs_f64()))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut sim = None;
    for _ in 0..SETUPS {
        if let Some((s, secs)) = out.record(cold_setup()) {
            setup_s.push(secs);
            sim = Some(s);
        }
    }
    let Some(mut sim) = sim else {
        return out;
    };
    out.set("setup_s", median(&setup_s));
    let points = points(seed, seconds);
    if trace {
        traced(&mut out, sim, &points, seconds);
        return out;
    }

    let mut point_ms = Vec::new();
    let mut nominal: Option<CoSimReport> = None;
    crate::measure::measure_window(seconds, CYCLE, |i| {
        let (kind, s) = &points[i % points.len()];
        let result = point(&mut sim, s).and_then(|(r, retarget_ms, run_ms)| {
            check_report(*kind, &r)?;
            if *kind == Point::Nominal {
                // Revisits start warm from other points: they must agree
                // with the first visit to solver tolerance.
                if let Some(first) = &nominal {
                    let dt = (first.peak_temperature.value() - r.peak_temperature.value()).abs();
                    let di = (first.current_at_1v.value() - r.current_at_1v.value()).abs();
                    ensure(dt < 1e-4 && di < 1e-6 * first.current_at_1v.value(), || {
                        format!("nominal revisit drifted: {dt} K, {di} A")
                    })?;
                } else {
                    nominal = Some(r);
                }
            }
            Ok(retarget_ms + run_ms)
        });
        if let Some(ms) = out.record(result) {
            point_ms.push(ms);
        }
    });
    out.set("op_ms_p50", median(&point_ms));
    out.set("work_per_s", 1e3 / median(&point_ms));
    out
}

/// The layer objects of the replay, built the way the co-simulation
/// builds them for the POWER7+ preset.
struct Replay {
    thermal: ThermalModel,
    thermal_session: SolverSession,
    template: CellModel,
    pdn: PowerGrid,
    pdn_session: SolverSession,
    flow: CubicMetersPerSecond,
    inlet: bright_units::Kelvin,
}

/// Per-point replay spans (ms) and the replayed report figures.
#[derive(Default)]
struct Spans {
    thermal_solve: f64,
    sweep: f64,
    point: f64,
    isothermal: f64,
    pdn_solve: f64,
    hydraulics: f64,
    peak_k: f64,
    current_at_1v: f64,
    pdn_min_v: f64,
}

impl Replay {
    fn build(out: &mut Outcome) -> Result<Self, String> {
        let (thermal, thermal_ms) = timed(|| {
            let model = bright_thermal::presets::power7_stack()?;
            model.assemble().map(|()| model)
        });
        let thermal = thermal.ctx("thermal preset")?;
        let (pdn, pdn_ms) = timed(bright_pdn::presets::power7_cache_rail);
        out.set("thermal.assemble_ms", thermal_ms);
        out.set("pdn.assemble_ms", pdn_ms);
        let template = bright_flowcell::presets::power7_channel().ctx("cell preset")?;
        template.warm().ctx("cell warm")?;
        let (flow, inlet) = thermal.operating_point().ok_or("preset has no coolant")?;
        Ok(Self {
            thermal,
            thermal_session: SolverSession::new(ThermalModel::iter_options()),
            template,
            pdn: pdn.ctx("pdn preset")?,
            pdn_session: SolverSession::new(PowerGrid::iter_options(
                PowerGrid::default_preconditioner(),
            )),
            flow,
            inlet,
        })
    }

    /// Moves the replay objects to the scenario's coolant point (the
    /// counterpart of `CoSimulation::retarget`, untimed).
    fn retarget(&mut self, s: &Scenario) -> Result<(), String> {
        if s.total_flow.value() == self.flow.value()
            && s.inlet_temperature.value() == self.inlet.value()
        {
            return Ok(());
        }
        let fluid = TemperatureDependentFluid::vanadium_electrolyte()
            .at(s.inlet_temperature)
            .ctx("fluid")?;
        let (flow, inlet) = (s.total_flow, s.inlet_temperature);
        self.thermal
            .refresh_microchannels(|spec| {
                spec.fluid = fluid;
                spec.total_flow = flow;
                spec.inlet_temperature = inlet;
            })
            .ctx("thermal refresh")?;
        self.template
            .retarget_flow(s.per_channel_flow())
            .ctx("cell flow")?;
        self.template
            .retarget_temperature(TemperatureProfile::Uniform(inlet))
            .ctx("cell temperature")?;
        self.flow = flow;
        self.inlet = inlet;
        Ok(())
    }

    fn replay(&mut self, s: &Scenario) -> Result<Spans, String> {
        self.retarget(s)?;
        let mut spans = Spans::default();
        let columns = s.thermal_columns;

        let t = Instant::now();
        let power = s
            .thermal_load
            .rasterize(&s.floorplan, self.thermal.grid())
            .ctx("rasterize")?;
        self.thermal_session
            .set_preconditioner(self.thermal.solve_options().preconditioner);
        let sol = self
            .thermal
            .solve_steady_with_sources_warm(&[(0, &power)], &mut self.thermal_session)
            .ctx("thermal solve")?;
        spans.thermal_solve = ms_since(t);

        let t = Instant::now();
        let profiles = (0..columns)
            .map(|ix| TemperatureProfile::Sampled(sol.channel_profile(ix)))
            .collect();
        let array = CellArray::new(self.template.clone(), columns)
            .and_then(|a| a.with_channel_temperatures(profiles))
            .ctx("coupled array")?;
        array.polarization_curve(s.sweep_points).ctx("sweep")?;
        spans.sweep = ms_since(t);

        let t = Instant::now();
        let at_1v = array.solve_at_voltage(1.0).ctx("1 V point")?;
        spans.point = ms_since(t);

        let t = Instant::now();
        CellArray::new(self.template.clone(), s.channel_count)
            .and_then(|a| a.solve_at_voltage(1.0))
            .ctx("isothermal baseline")?;
        spans.isothermal = ms_since(t);

        let t = Instant::now();
        let rail = s
            .rail_load
            .rasterize(&s.floorplan, self.pdn.grid())
            .ctx("rail map")?;
        self.pdn.set_power_density(&rail).ctx("pdn load")?;
        self.pdn_session
            .set_preconditioner(self.pdn.preferred_preconditioner());
        let pdn_sol = self
            .pdn
            .solve_warm(&mut self.pdn_session)
            .ctx("pdn solve")?;
        spans.pdn_solve = ms_since(t);

        let t = Instant::now();
        let pitch = Meters::new(s.floorplan.width().value() / s.channel_count as f64);
        let hydraulic =
            ChannelArray::new(*self.template.geometry().channel(), s.channel_count, pitch)
                .ctx("channel array")?;
        let props = TemperatureDependentFluid::vanadium_electrolyte()
            .at(s.inlet_temperature)
            .ctx("fluid")?;
        hydraulic.pressure_drop(&props, s.total_flow);
        hydraulic
            .pumping_power(&props, s.total_flow, s.pump_efficiency)
            .ctx("pumping power")?;
        spans.hydraulics = ms_since(t);

        let group = (s.channel_count / columns) as f64;
        spans.peak_k = sol.max_temperature().value();
        spans.current_at_1v = at_1v.current.value() * group;
        spans.pdn_min_v = pdn_sol.min_voltage().value();
        Ok(spans)
    }
}

/// The replay must reproduce the co-simulation's report of the same
/// point to solver tolerance (the two hold separate warm starts).
fn check_replay(spans: &Spans, r: &CoSimReport) -> Result<(), String> {
    let dt = (spans.peak_k - r.peak_temperature.value()).abs();
    let di = (spans.current_at_1v - r.current_at_1v.value()).abs() / r.current_at_1v.value();
    let dv = (spans.pdn_min_v - r.pdn_min_voltage.value()).abs();
    ensure(dt < 1e-3 && di < 1e-4 && dv < 1e-6, || {
        format!("replay diverged from the report: peak {dt} K, I(1V) {di} rel, min rail {dv} V")
    })
}

fn traced(out: &mut Outcome, mut sim: CoSimulation, points: &[(Point, Scenario)], seconds: f64) {
    let built = Replay::build(out);
    let Some(mut replay) = out.record(built) else {
        return;
    };
    let (thermal0, pdn0) = (sim.thermal_session_stats(), sim.pdn_session_stats());
    let (reuses0, cell0) = (sim.cell_context_reuses(), sim.cell_context_stats());
    let mut rows: Vec<[f64; 8]> = Vec::new();
    crate::measure::measure_window(seconds, CYCLE, |i| {
        let (kind, s) = &points[i % points.len()];
        let result = point(&mut sim, s).and_then(|(r, retarget_ms, run_ms)| {
            check_report(*kind, &r)?;
            let spans = replay.replay(s)?;
            check_replay(&spans, &r)?;
            Ok([
                retarget_ms + run_ms,
                retarget_ms,
                spans.thermal_solve,
                spans.sweep,
                spans.point,
                spans.isothermal,
                spans.pdn_solve,
                spans.hydraulics,
            ])
        });
        if let Some(row) = out.record(result) {
            rows.push(row);
        }
        if i + 1 == CYCLE {
            // Counters are deltas over exactly one cycle, so they repeat
            // from run to run whatever the window holds.
            let (thermal, pdn) = (sim.thermal_session_stats(), sim.pdn_session_stats());
            let cell = sim.cell_context_stats();
            out.set(
                "cosim.thermal_assemblies",
                sim.thermal_assembly_count() as f64,
            );
            out.set(
                "cosim.cell_context_reuses",
                (sim.cell_context_reuses() - reuses0) as f64,
            );
            out.set(
                "flowcell.context.op_builds",
                (cell.op_builds - cell0.op_builds) as f64,
            );
            out.set(
                "flowcell.context.coefficient_refreshes",
                (cell.coefficient_refreshes - cell0.coefficient_refreshes) as f64,
            );
            out.set(
                "thermal.session.solves",
                (thermal.solves - thermal0.solves) as f64,
            );
            out.set("pdn.session.solves", (pdn.solves - pdn0.solves) as f64);
        }
    });
    if rows.is_empty() {
        return;
    }
    let col = |k: usize| mean(&rows.iter().map(|r| r[k]).collect::<Vec<_>>());
    let point_ms = col(0);
    let spans: [(&'static str, f64); 7] = [
        ("cosim.retarget_ms", col(1)),
        ("thermal.solve_ms", col(2)),
        ("flowcell.sweep_ms", col(3)),
        ("flowcell.point_ms", col(4)),
        ("flowcell.isothermal_ms", col(5)),
        ("pdn.solve_ms", col(6)),
        ("flow.hydraulics_ms", col(7)),
    ];
    let covered: f64 = spans.iter().map(|(_, v)| v).sum();
    for (name, v) in spans {
        out.set(name, v);
    }
    out.set("cosim.point_ms", point_ms);
    out.set("cosim.other_ms", point_ms - covered);
    out.set("trace.coverage_pct", 100.0 * covered / point_ms);
    let (largest, ms) = spans
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("seven spans");
    out.label(
        "largest_layer_share",
        format!(
            "{largest} {:.1}% of a co-simulation point",
            100.0 * ms / point_ms
        ),
    );
    let thermal = sim.thermal_session_stats();
    out.label("thermal.kernel", thermal.kernel_digest());
    out.label("thermal.kernel_threads", thermal.kernel_threads.to_string());
    out.label("thermal.precond", sim.precond_digest());
    out.label("pdn.kernel", sim.pdn_session_stats().kernel_digest());
}
