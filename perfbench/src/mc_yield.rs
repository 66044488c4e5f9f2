//! `mc_yield`: the `McSpec::power7_tolerances` yield study on coarse
//! thermal and cell grids with the PDN at the paper's 106×85, served
//! serially study after study, against one 2-worker study's report.
//!
//! The traced run replays samples serially the way the engine serves
//! them (`apply_sample` → `retarget` → `reset_warm_starts` →
//! `run_yield`) and, beside each, the stages of `run_yield` through the
//! public layer calls.

use crate::measure::{ensure, mean, measure_window, median, ms_since, timed, Ctx, Outcome};
use bright_core::montecarlo::{self, McSpec};
use bright_core::{CoSimulation, Scenario, YieldReport};
use bright_flow::array::ChannelArray;
use bright_flow::fluid::TemperatureDependentFluid;
use bright_flow::RectChannel;
use bright_flowcell::options::TemperatureProfile;
use bright_flowcell::{CellArray, CellGeometry, CellModel, GeometryCache};
use bright_mesh::Grid2d;
use bright_num::{CorrelatedSampler, SolverSession};
use bright_pdn::PowerGrid;
use bright_thermal::stack::{LayerSpec, MicrochannelSpec, StackConfig};
use bright_thermal::{Material, ThermalModel};
use bright_units::Meters;
use std::time::Instant;

/// Samples per study: a quarter of `McSpec`'s default 1000, so a run holds
/// enough studies for a median on a noisy shared host. Per-sample cost is
/// the same, since the engine cold-builds once per 64-sample chunk.
const SAMPLES: usize = 250;
const SETUPS: usize = 15;
/// Channel length of the Table II array, as the co-simulation uses it.
const CHANNEL_LENGTH_MM: f64 = 22.0;

/// The reduced POWER7+ point with thermal and cell grids coarsened so a
/// yield solve costs milliseconds; the PDN keeps the Fig. 8 grid.
fn base() -> Scenario {
    let mut s = Scenario::power7_reduced();
    s.thermal_columns = 11;
    s.thermal_ny = 8;
    s.cell_options.ny = 12;
    s.cell_options.nx = 24;
    s
}

fn spec(seed: u64, workers: usize) -> McSpec {
    let mut spec = McSpec::power7_tolerances(base());
    spec.samples = SAMPLES;
    spec.seed = seed;
    spec.workers = Some(workers);
    spec
}

fn cold_setup() -> Result<(CoSimulation, f64), String> {
    let t0 = Instant::now();
    let mut sim = CoSimulation::new(base()).ctx("new")?;
    sim.run_yield().ctx("cold yield solve")?;
    Ok((sim, t0.elapsed().as_secs_f64()))
}

/// One study; returns its report JSON and wall time (ms).
fn study(seed: u64, workers: usize) -> Result<(String, montecarlo::McStats, f64), String> {
    let (run, ms) = timed(|| montecarlo::run(&spec(seed, workers)));
    let run = run.ctx("yield study")?;
    let r = &run.report;
    ensure(
        r.samples == SAMPLES as u64 && r.failed == 0 && r.evaluated + r.invalid == r.samples,
        || {
            format!(
                "study with {workers} worker(s): {} evaluated, {} invalid, {} failed",
                r.evaluated, r.invalid, r.failed
            )
        },
    )?;
    Ok((run.report.to_json().to_json_string(), run.stats, ms))
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
    let Some(sim) = sim else {
        return out;
    };
    out.set("setup_s", median(&setup_s));
    out.label(
        "thermal.kernel",
        sim.thermal_session_stats().kernel_digest(),
    );
    out.label("thermal.precond", sim.precond_digest());
    if trace {
        traced(&mut out, sim, seed, seconds);
        return out;
    }

    // The report must not depend on the worker count or the repeat: one
    // 2-worker study sets the reference every serial study must equal.
    // The end-to-end figures time serial studies only, since a 2-worker
    // study also waits on the other vCPU of a shared host; the traced
    // run measures the 2-worker rate.
    let Some((reference, _, _)) = out.record(study(seed, 2)) else {
        return out;
    };
    let mut serial_ms = Vec::new();
    measure_window(seconds, 1, |_| {
        let result = study(seed, 1).and_then(|(json, _, ms)| {
            ensure(json == reference, || {
                "McReport JSON of a serial study differs from the 2-worker study".into()
            })?;
            Ok(ms)
        });
        if let Some(ms) = out.record(result) {
            serial_ms.push(ms);
        }
    });
    out.set("op_ms_p50", median(&serial_ms));
    out.set("work_per_s", SAMPLES as f64 / (median(&serial_ms) / 1e3));
    out
}

/// The thermal stack the co-simulation builds for a scenario: die,
/// flow-cell channel layer and cap on the scenario's grid and lumping.
fn thermal_model_for(s: &Scenario) -> Result<ThermalModel, String> {
    let fluid = TemperatureDependentFluid::vanadium_electrolyte()
        .at(s.inlet_temperature)
        .ctx("fluid")?;
    ThermalModel::new(StackConfig {
        width: s.floorplan.width(),
        height: s.floorplan.height(),
        nx: s.thermal_columns,
        ny: s.thermal_ny,
        layers: vec![
            LayerSpec::Solid {
                name: "die".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(400.0),
                sublayers: 2,
            },
            LayerSpec::Microchannel {
                name: "flow-cell channels".into(),
                spec: MicrochannelSpec {
                    channel_width: s.channel_width,
                    channel_height: s.channel_height,
                    channels_per_cell: s.channel_count / s.thermal_columns,
                    fluid,
                    total_flow: s.total_flow,
                    inlet_temperature: s.inlet_temperature,
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
    })
    .ctx("thermal model")
}

fn geometry_for(s: &Scenario) -> Result<CellGeometry, String> {
    RectChannel::new(
        s.channel_width,
        s.channel_height,
        Meters::from_millimeters(CHANNEL_LENGTH_MM),
    )
    .map(CellGeometry::new)
    .ctx("channel")
}

fn pdn_for(s: &Scenario) -> Result<PowerGrid, String> {
    let grid = Grid2d::from_extent(
        s.floorplan.width().value(),
        s.floorplan.height().value(),
        s.pdn.nx,
        s.pdn.ny,
    )
    .ctx("pdn grid")?;
    let rail = s.rail_load.rasterize(&s.floorplan, &grid).ctx("rail map")?;
    PowerGrid::new(
        grid,
        s.pdn.sheet_resistance,
        s.vrm.output_voltage(),
        s.pdn.port_resistance,
        &s.pdn.ports,
        &rail,
    )
    .ctx("pdn")
}

/// The layer objects `run_yield` keeps between samples.
struct Replay {
    thermal: ThermalModel,
    session: SolverSession,
    array: CellArray,
    cache: GeometryCache,
    pdn: PowerGrid,
}

/// Replay spans (ms) of one sample: thermal, flow cell, PDN, hydraulics.
type Spans = [f64; 4];

impl Replay {
    fn build(s: &Scenario, out: &mut Outcome) -> Result<Self, String> {
        let thermal = thermal_model_for(s)?;
        let template = CellModel::new(
            geometry_for(s)?,
            bright_echem::vanadium::power7_cell_chemistry(),
            s.per_channel_flow(),
            TemperatureProfile::Uniform(s.inlet_temperature),
            s.cell_options.clone(),
        )
        .ctx("cell template")?;
        template.warm().ctx("cell warm")?;
        let cache = GeometryCache::new();
        cache.warm_from(&template).ctx("geometry cache")?;
        let array = CellArray::new(template, s.thermal_columns).ctx("array")?;
        let pdn = pdn_for(s)?;
        // The banded Cholesky factor is built by the first direct solve;
        // its cost is the first solve's excess over a factored one.
        let (first, first_ms) = timed(|| pdn.solve_direct());
        first.ctx("first direct solve")?;
        let (second, second_ms) = timed(|| pdn.solve_direct());
        second.ctx("direct solve")?;
        out.set("pdn.factor_ms", first_ms - second_ms);
        Ok(Self {
            thermal,
            session: SolverSession::new(ThermalModel::iter_options()),
            array,
            cache,
            pdn,
        })
    }

    /// The stages of `run_yield` for one sampled scenario.
    fn replay(&mut self, s: &Scenario, r: &YieldReport) -> Result<Spans, String> {
        let fluid = TemperatureDependentFluid::vanadium_electrolyte()
            .at(s.inlet_temperature)
            .ctx("fluid")?;
        let (flow, inlet) = (s.total_flow, s.inlet_temperature);
        let (cw, ch) = (s.channel_width, s.channel_height);
        self.thermal
            .refresh_microchannels(|spec| {
                spec.fluid = fluid;
                spec.total_flow = flow;
                spec.inlet_temperature = inlet;
                spec.channel_width = cw;
                spec.channel_height = ch;
            })
            .ctx("thermal refresh")?;
        self.session.reset_warm_start();

        let t = Instant::now();
        let power = s
            .thermal_load
            .rasterize(&s.floorplan, self.thermal.grid())
            .ctx("rasterize")?;
        self.session
            .set_preconditioner(self.thermal.solve_options().preconditioner);
        let sol = self
            .thermal
            .solve_steady_with_sources_warm(&[(0, &power)], &mut self.session)
            .ctx("thermal solve")?;
        let thermal_ms = ms_since(t);

        let t = Instant::now();
        let geometry = geometry_for(s)?;
        let (asr, per_channel) = (s.cell_options.contact_asr, s.per_channel_flow());
        let cache = &self.cache;
        self.array
            .retarget_models(|m| {
                m.retarget_geometry(geometry, Some(cache))?;
                m.retarget_contact_asr(asr)?;
                if m.flow().value() != per_channel.value() {
                    m.retarget_flow(per_channel)?;
                }
                Ok(())
            })
            .ctx("array retarget")?;
        let profiles = (0..s.thermal_columns)
            .map(|ix| TemperatureProfile::Sampled(sol.channel_profile(ix)))
            .collect();
        self.array
            .retarget_channel_temperatures(profiles)
            .ctx("channel temperatures")?;
        let at_1v = self.array.solve_at_voltage(1.0).ctx("1 V point")?;
        let cell_ms = ms_since(t);

        let t = Instant::now();
        let rail = s
            .rail_load
            .rasterize(&s.floorplan, self.pdn.grid())
            .ctx("rail map")?;
        self.pdn.set_power_density(&rail).ctx("pdn load")?;
        let pdn_sol = self.pdn.solve_direct().ctx("direct solve")?;
        let pdn_ms = ms_since(t);

        let t = Instant::now();
        let pitch = Meters::new(s.floorplan.width().value() / s.channel_count as f64);
        let hydraulic =
            ChannelArray::new(*geometry.channel(), s.channel_count, pitch).ctx("channel array")?;
        let props = TemperatureDependentFluid::vanadium_electrolyte()
            .at(s.inlet_temperature)
            .ctx("fluid")?;
        hydraulic.pressure_drop(&props, s.total_flow);
        hydraulic
            .pumping_power(&props, s.total_flow, s.pump_efficiency)
            .ctx("pumping power")?;
        let hydraulics_ms = ms_since(t);

        let group = (s.channel_count / s.thermal_columns) as f64;
        let dt = (sol.max_temperature().value() - r.peak_temperature.value()).abs();
        let di = (at_1v.current.value() * group - r.current_at_1v.value()).abs()
            / r.current_at_1v.value();
        let dv = (pdn_sol.min_voltage().value() - r.pdn_min_voltage.value()).abs();
        ensure(dt < 1e-6 && di < 1e-6 && dv < 1e-9, || {
            format!("sample replay diverged: peak {dt} K, I(1V) {di} rel, min rail {dv} V")
        })?;
        Ok([thermal_ms, cell_ms, pdn_ms, hydraulics_ms])
    }
}

/// `sim` comes from the set-up, so its cold build is behind it.
fn traced(out: &mut Outcome, mut sim: CoSimulation, seed: u64, seconds: f64) {
    let t0 = Instant::now();
    // Counters and 2-thread scaling from one study at each worker count.
    let Some((_, stats, parallel_ms)) = out.record(study(seed, 2)) else {
        return;
    };
    let hits = stats.geometry_cache_hits as f64;
    let misses = stats.geometry_cache_misses as f64;
    out.set("montecarlo.cold_builds", stats.cold_builds as f64);
    out.set("montecarlo.retargets", stats.retargets as f64);
    out.set("montecarlo.geometry_cache_hits", hits);
    out.set("montecarlo.geometry_cache_misses", misses);
    out.set(
        "montecarlo.geometry_cache_hit_ratio",
        hits / (hits + misses),
    );
    out.set(
        "montecarlo.samples_per_s_2w",
        SAMPLES as f64 / (parallel_ms / 1e3),
    );
    if let Some((_, _, serial_ms)) = out.record(study(seed, 1)) {
        out.set("montecarlo.speedup_2w", serial_ms / parallel_ms);
    }

    let spec = spec(seed, 1);
    let marginals = spec.variables.iter().map(|v| v.distribution).collect();
    let sampler = CorrelatedSampler::new(spec.seed, marginals, spec.correlation.as_deref());
    let Some(sampler) = out.record(sampler.ctx("sampler")) else {
        return;
    };
    let built = Replay::build(&spec.base, out);
    let Some(mut replay) = out.record(built) else {
        return;
    };
    let mut rows: Vec<[f64; 6]> = Vec::new();
    let remaining = (seconds - t0.elapsed().as_secs_f64()).max(0.0);
    let mut index = 0u64;
    measure_window(remaining, 1, |_| {
        // A chunk of consecutive samples per window step.
        for _ in 0..50 {
            let i = index;
            index += 1;
            let t = Instant::now();
            let Ok(scenario) =
                montecarlo::apply_sample(&spec.base, &spec.variables, &sampler.sample(i))
            else {
                // Invalid draws are skipped by the study itself.
                continue;
            };
            let result = (|| {
                let (retargeted, retarget_ms) = timed(|| sim.retarget(scenario.clone()));
                retargeted.ctx("retarget")?;
                sim.reset_warm_starts();
                let report = sim.run_yield().ctx("yield solve")?;
                let sample_ms = ms_since(t);
                let spans = replay.replay(&scenario, &report)?;
                Ok([
                    sample_ms,
                    retarget_ms,
                    spans[0],
                    spans[1],
                    spans[2],
                    spans[3],
                ])
            })();
            if let Some(row) = out.record(result) {
                rows.push(row);
            }
        }
    });
    if rows.is_empty() {
        return;
    }
    let col = |k: usize| mean(&rows.iter().map(|r| r[k]).collect::<Vec<_>>());
    let sample_ms = col(0);
    let spans = [
        ("cosim.retarget_ms", col(1)),
        ("thermal.solve_ms", col(2)),
        ("flowcell.point_ms", col(3)),
        ("pdn.direct_solve_ms", col(4)),
        ("flow.hydraulics_ms", col(5)),
    ];
    let covered: f64 = spans.iter().map(|(_, v)| v).sum();
    for (name, v) in spans {
        out.set(name, v);
    }
    out.set("montecarlo.sample_ms", sample_ms);
    out.set("cosim.other_ms", sample_ms - covered);
    out.set("trace.coverage_pct", 100.0 * covered / sample_ms);
}
