//! Pinned output bits of the co-simulation.
//!
//! Three engines walk the same ten retarget steps from
//! `Scenario::power7_reduced()`, each step changing what the previous
//! one left:
//!
//! 1. the base scenario;
//! 2. 48 ml/min;
//! 3. inlet at 310.15 K;
//! 4. thermal coupling off;
//! 5. coupling on again, at 180 µm channel width;
//! 6. a contact ASR of 2.5e-6 Ω·m²;
//! 7. 200 µm width at 400 ml/min;
//! 8. a 44×30 thermal grid (a new thermal pattern);
//! 9. four more flow-cell stations (a new cell grid shape);
//! 10. the base scenario again.
//!
//! Engine 1 pins `(fnv1a, len)` of every `run()` report's JSON, and a
//! second walk pins the same digest with the four PDN fields left out.
//! Engine 2 pins the bit patterns of every `run_yield()` report's eight
//! scalars and an FNV-1a digest of its junction map, with warm starts
//! reset before each sample as a Monte Carlo worker does. Engine 3 calls
//! `run_yield()` and then `run()` at every step, so both paths share one
//! engine's caches and sessions. Run the file under
//! `BRIGHT_SWEEP_THREADS=1` and `=4` to check that the per-column
//! fan-out and the PDN solve beside the thermal stage do not matter
//! either.
//!
//! A third walk pins the `run()` digest with the five fields the
//! flow-cell array's current feeds left out, and a fourth the six
//! `run_yield()` scalars other than the current and power at 1 V, with
//! the junction map's digest. A fifth pins the `run()` digest of only
//! the ten fields the thermal solve cannot feed, and a sixth the four
//! `run_yield()` scalars it cannot feed.
//!
//! The values were recorded once and are not edited, with three
//! exceptions. First, when `run()` moved its cache-rail solve from
//! warm-started CG to the cached banded factor that `run_yield()`
//! already used, `RUN` and the run half of `YIELD_THEN_RUN` were
//! re-recorded once. That move changes only the four PDN fields:
//! `RUN_WITHOUT_PDN`, recorded before it, still holds, and
//! `run_pdn_fields_match_a_cold_iterative_solve` bounds how far the four
//! fields moved. Second, when adjacent thermal columns whose fluid
//! profiles agree within 0.25 K began to march once, at their mean
//! profile, `RUN`, `RUN_WITHOUT_PDN`, `YIELD` and `YIELD_THEN_RUN` were
//! re-recorded once. That move changes only what the array's current
//! feeds (the current and power at 1 V, the thermal boost, the operating
//! point and the polarization curve): `RUN_WITHOUT_CELLS` and
//! `YIELD_WITHOUT_CELLS`, recorded before it, still hold, and the
//! co-simulation's budget test bounds the current's move by 5e-7.
//! Third, when fluid-cooled stacks switched their thermal solve from
//! SSOR to MILU(0) preconditioning, `RUN`, `RUN_WITHOUT_PDN`,
//! `RUN_WITHOUT_CELLS`, `YIELD`, `YIELD_WITHOUT_CELLS` and
//! `YIELD_THEN_RUN` were re-recorded once. Both solves stop at the same
//! 1e-10 relative residual from different iterates, so every field the
//! thermal solution feeds moved: on the base scenario by at most 2.2e-8
//! relative (the thermal boost; 5.7e-8 at the full-resolution nominal
//! point), the junction map by 1.8e-9. `RUN_WITHOUT_THERMAL` and
//! `YIELD_WITHOUT_THERMAL`, recorded before it, still hold.

use bright_core::{CoSimulation, Scenario, YieldReport};
use bright_floorplan::PowerScenario;
use bright_jsonio::checksummed::fnv1a64;
use bright_jsonio::Value;
use bright_mesh::Grid2d;
use bright_pdn::{PdnSolution, PowerGrid};
use bright_units::{CubicMetersPerSecond, Kelvin, Meters};

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// The ten scenarios, in order.
fn steps() -> Vec<Scenario> {
    let base = Scenario::power7_reduced();
    let mut s = base.clone();
    let mut out = vec![s.clone()];
    let mut step = |edit: &dyn Fn(&mut Scenario)| {
        edit(&mut s);
        out.push(s.clone());
    };
    step(&|s| s.total_flow = CubicMetersPerSecond::from_milliliters_per_minute(48.0));
    step(&|s| s.inlet_temperature = Kelvin::new(310.15));
    step(&|s| s.couple_temperature = false);
    step(&|s| {
        s.couple_temperature = true;
        s.channel_width = Meters::from_micrometers(180.0);
    });
    step(&|s| s.cell_options.contact_asr = 2.5e-6);
    step(&|s| {
        s.channel_width = Meters::from_micrometers(200.0);
        s.total_flow = CubicMetersPerSecond::from_milliliters_per_minute(400.0);
    });
    step(&|s| {
        s.thermal_columns = 44;
        s.thermal_ny = 30;
    });
    step(&|s| s.cell_options.nx += 4);
    out.push(base);
    out
}

/// Walks the steps through one engine, retargeting between them.
fn walk(mut visit: impl FnMut(&mut CoSimulation) -> String) -> Vec<String> {
    let steps = steps();
    let mut sim = CoSimulation::new(steps[0].clone()).expect("base scenario");
    let mut lines = Vec::with_capacity(steps.len());
    for (i, s) in steps.into_iter().enumerate() {
        if i > 0 {
            sim.retarget(s).expect("retarget");
        }
        lines.push(visit(&mut sim));
    }
    lines
}

/// `fnv1a len` of the report JSON.
fn run_line(sim: &mut CoSimulation) -> String {
    let json = sim.run().expect("run").to_json().to_json_string();
    format!("{} {}", fnv1a64(json.as_bytes()), json.len())
}

/// The four report fields that carry the PDN solve.
const PDN_FIELDS: [&str; 4] = [
    "pdn_min_voltage",
    "pdn_max_voltage",
    "pdn_worst_drop",
    "voltage_map",
];

/// The five report fields the flow-cell array's current feeds.
const CELL_FIELDS: [&str; 5] = [
    "current_at_1v",
    "power_at_1v",
    "thermal_boost_percent",
    "operating_point",
    "polarization",
];

/// `fnv1a len` of the report JSON without the `left_out` fields.
fn run_line_without(sim: &mut CoSimulation, left_out: &[&str]) -> String {
    let mut json = sim.run().expect("run").to_json();
    let Value::Object(fields) = &mut json else {
        panic!("a report serializes to an object");
    };
    for key in left_out {
        assert!(fields.remove(*key).is_some(), "report lacks `{key}`");
    }
    let json = json.to_json_string();
    format!("{} {}", fnv1a64(json.as_bytes()), json.len())
}

/// The ten report fields the thermal solve cannot feed: the four PDN
/// fields, the hydraulics (at the inlet temperature), the rasterized
/// chip and rail loads, the inlet temperature and the isothermal
/// baseline (the template at the inlet temperature, or the uncoupled
/// array's own current).
const THERMAL_FREE_FIELDS: [&str; 10] = [
    "pdn_min_voltage",
    "pdn_max_voltage",
    "pdn_worst_drop",
    "voltage_map",
    "pressure_drop",
    "pumping_power",
    "chip_power",
    "rail_power",
    "inlet_temperature",
    "isothermal_current_at_1v",
];

/// `fnv1a len` of the report JSON keeping only the `kept` fields.
fn run_line_keeping(sim: &mut CoSimulation, kept: &[&str]) -> String {
    let mut json = sim.run().expect("run").to_json();
    let Value::Object(fields) = &mut json else {
        panic!("a report serializes to an object");
    };
    for key in kept {
        assert!(fields.contains_key(*key), "report lacks `{key}`");
    }
    fields.retain(|key, _| kept.contains(&key.as_str()));
    let json = json.to_json_string();
    format!("{} {}", fnv1a64(json.as_bytes()), json.len())
}

/// `fnv1a len` of the report JSON without [`PDN_FIELDS`].
fn run_line_without_pdn(sim: &mut CoSimulation) -> String {
    run_line_without(sim, &PDN_FIELDS)
}

/// The given scalars' bits, then the junction map's digest.
fn scalars_and_junction(scalars: &[f64], r: &YieldReport) -> String {
    let junction: Vec<u8> = r
        .junction_map
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let mut line = scalars
        .iter()
        .map(|x| hex(*x))
        .collect::<Vec<_>>()
        .join(" ");
    line.push_str(&format!(" {}", fnv1a64(&junction)));
    line
}

/// The eight scalars' bits, then the junction map's digest.
fn yield_line(r: &YieldReport) -> String {
    let scalars = [
        r.chip_power.value(),
        r.peak_temperature.value(),
        r.outlet_temperature.value(),
        r.current_at_1v.value(),
        r.power_at_1v.value(),
        r.pdn_min_voltage.value(),
        r.pressure_drop.value(),
        r.pumping_power.value(),
    ];
    scalars_and_junction(&scalars, r)
}

/// The six scalars the array's current does not feed, then the junction
/// map's digest.
fn yield_line_without_cells(r: &YieldReport) -> String {
    let scalars = [
        r.chip_power.value(),
        r.peak_temperature.value(),
        r.outlet_temperature.value(),
        r.pdn_min_voltage.value(),
        r.pressure_drop.value(),
        r.pumping_power.value(),
    ];
    scalars_and_junction(&scalars, r)
}

/// The four scalars the thermal solve cannot feed.
fn yield_line_without_thermal(r: &YieldReport) -> String {
    [
        r.chip_power.value(),
        r.pdn_min_voltage.value(),
        r.pressure_drop.value(),
        r.pumping_power.value(),
    ]
    .iter()
    .map(|x| hex(*x))
    .collect::<Vec<_>>()
    .join(" ")
}

fn assert_lines(what: &str, actual: &[String], expected: &[&str]) {
    assert_eq!(
        actual, expected,
        "{what}: output bits moved; actual lines:\n{actual:#?}"
    );
}

const RUN: &[&str] = &[
    "10099382631220917532 189653",
    "14029575515572596681 189486",
    "9288352875875568448 189502",
    "692303923706912062 189493",
    "6258161945062092068 189516",
    "6718462986569090004 189512",
    "12072857351900440738 189648",
    "9113517209743685709 220369",
    "17604526054999995580 220365",
    "10099382631220917532 189653",
];

const YIELD: &[&str] = &[
    "4051d115d7c513c3 40734bd9a31fc5cc 4072d82bfdf2ffcf 40103f311bc48810 40103f311bc48810 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15737073344263955686",
    "4051d115d7c513c3 4074728563f85062 4074146b8ee18172 3ffee22c6a40824b 3ffee22c6a40824b 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 3377103338162632567",
    "4051d115d7c513c3 407513cd2f41a536 4074b6d1f547e89f 4001d58ed909c9f9 4001d58ed909c9f9 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 15714109477313998285",
    "4051d115d7c513c3 407513cd2f41a536 4074b6d1f547e89f 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 15714109477313998285",
    "4051d115d7c513c3 40750d19baca1cc7 4074b6d1f54809d4 40031d03772507bd 40031d03772507bd 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 13250838449040107431",
    "4051d115d7c513c3 40750d19baca1cc7 4074b6d1f54809d4 40031a9115ca6edf 40031a9115ca6edf 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 13250838449040107431",
    "4051d115d7c513c3 4073fc1cb7e07dae 40738b401b626a46 400fa1ca095c5b78 400fa1ca095c5b78 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 13745509280588974049",
    "405225cb46bacf75 4073fd31b5c34315 40738c0253f3a057 400fa310e57be37d 400fa310e57be37d 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 10521818577303462293",
    "405225cb46bacf75 4073fd31b5c34315 40738c0253f3a057 400fa3e45f792c88 400fa3e45f792c88 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 10521818577303462293",
    "4051d115d7c513c3 40734bd9a31fc5cc 4072d82bfdf2ffcf 40103f311bc48810 40103f311bc48810 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15737073344263955686",
];

const YIELD_THEN_RUN: &[&str] = &[
    "4051d115d7c513c3 40734bd9a31fc5cc 4072d82bfdf2ffcf 40103f311bc48810 40103f311bc48810 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15737073344263955686 | 10099382631220917532 189653",
    "4051d115d7c513c3 4074728563fa46c9 4074146b8ee1ad7c 3ffee22c6a448216 3ffee22c6a448216 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 552636363546470853 | 14029575515572596681 189486",
    "4051d115d7c513c3 407513cd2f4a660d 4074b6d1f547ea3b 4001d58ed90b8d00 4001d58ed90b8d00 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 16810114917408205005 | 9288352875875568448 189502",
    "4051d115d7c513c3 407513cd2f4a660d 4074b6d1f547ea3b 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 16810114917408205005 | 692303923706912062 189493",
    "4051d115d7c513c3 40750d19bacaa2a4 4074b6d1f5488376 40031d0377284d07 40031d0377284d07 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 1909345056410334431 | 6258161945062092068 189516",
    "4051d115d7c513c3 40750d19bacaa2a4 4074b6d1f5488376 40031a9115cdb3a0 40031a9115cdb3a0 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 1909345056410334431 | 6718462986569090004 189512",
    "4051d115d7c513c3 4073fc1cb7de7b46 40738b401b62d851 400fa1ca095b7e3a 400fa1ca095b7e3a 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 6016615880231203299 | 12072857351900440738 189648",
    "405225cb46bacf75 4073fd31b5c34315 40738c0253f3a057 400fa310e57be37d 400fa310e57be37d 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 10521818577303462293 | 9113517209743685709 220369",
    "405225cb46bacf75 4073fd31b5c34315 40738c0253f3a057 400fa3e45f792c88 400fa3e45f792c88 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 10521818577303462293 | 17604526054999995580 220365",
    "4051d115d7c513c3 40734bd9a31fc5cc 4072d82bfdf2ffcf 40103f311bc48810 40103f311bc48810 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15737073344263955686 | 10099382631220917532 189653",
];

/// `run()` reports without [`PDN_FIELDS`].
const RUN_WITHOUT_PDN: &[&str] = &[
    "17223982742745819879 19321",
    "4145631489792487402 19154",
    "100378677195488285 19170",
    "10386913782188634833 19161",
    "9959176613659022317 19184",
    "13712130055257402721 19180",
    "12057724818523880491 19316",
    "9462093929362291490 50037",
    "16136293450302682477 50033",
    "17223982742745819879 19321",
];

/// `run()` reports without [`CELL_FIELDS`].
const RUN_WITHOUT_CELLS: &[&str] = &[
    "4383579932623429848 188593",
    "1344564134527180198 188589",
    "11897904626612848746 188611",
    "11897904626612848746 188611",
    "17139210240603132449 188623",
    "13833498155224908303 188622",
    "2817830925701133793 188585",
    "2070588350891717136 219305",
    "3964716282556499918 219305",
    "4383579932623429848 188593",
];

/// `run_yield()` reports without `current_at_1v` and `power_at_1v`.
const YIELD_WITHOUT_CELLS: &[&str] = &[
    "4051d115d7c513c3 40734bd9a31fc5cc 4072d82bfdf2ffcf 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15737073344263955686",
    "4051d115d7c513c3 4074728563f85062 4074146b8ee18172 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 3377103338162632567",
    "4051d115d7c513c3 407513cd2f41a536 4074b6d1f547e89f 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 15714109477313998285",
    "4051d115d7c513c3 407513cd2f41a536 4074b6d1f547e89f 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 15714109477313998285",
    "4051d115d7c513c3 40750d19baca1cc7 4074b6d1f54809d4 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 13250838449040107431",
    "4051d115d7c513c3 40750d19baca1cc7 4074b6d1f54809d4 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 13250838449040107431",
    "4051d115d7c513c3 4073fc1cb7e07dae 40738b401b626a46 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 13745509280588974049",
    "405225cb46bacf75 4073fd31b5c34315 40738c0253f3a057 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 10521818577303462293",
    "405225cb46bacf75 4073fd31b5c34315 40738c0253f3a057 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 10521818577303462293",
    "4051d115d7c513c3 40734bd9a31fc5cc 4072d82bfdf2ffcf 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15737073344263955686",
];

/// `run()` reports keeping only [`THERMAL_FREE_FIELDS`].
const RUN_WITHOUT_THERMAL: &[&str] = &[
    "11947777816087724855 170535",
    "11161955310556545592 170538",
    "10135226929806676532 170540",
    "10135226929806676532 170540",
    "5746640797710908436 170540",
    "14650985842368551288 170539",
    "16675788774729850201 170538",
    "13187408143605993428 170539",
    "11695372469391926058 170539",
    "11947777816087724855 170535",
];

/// `run_yield()` reports' four scalars the thermal solve cannot feed.
const YIELD_WITHOUT_THERMAL: &[&str] = &[
    "4051d115d7c513c3 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5",
    "4051d115d7c513c3 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa",
    "4051d115d7c513c3 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba",
    "4051d115d7c513c3 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba",
    "4051d115d7c513c3 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f",
    "4051d115d7c513c3 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f",
    "4051d115d7c513c3 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300",
    "405225cb46bacf75 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300",
    "405225cb46bacf75 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300",
    "4051d115d7c513c3 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5",
];

#[test]
fn run_reports_keep_their_bits() {
    assert_lines("run", &walk(run_line), RUN);
}

#[test]
fn run_reports_keep_their_bits_outside_the_pdn_fields() {
    assert_lines(
        "run without the PDN fields",
        &walk(run_line_without_pdn),
        RUN_WITHOUT_PDN,
    );
}

#[test]
fn run_reports_keep_their_bits_outside_the_cell_fields() {
    assert_lines(
        "run without the cell fields",
        &walk(|sim| run_line_without(sim, &CELL_FIELDS)),
        RUN_WITHOUT_CELLS,
    );
}

#[test]
fn yield_reports_keep_their_bits_outside_the_cell_fields() {
    let lines = walk(|sim| {
        sim.reset_warm_starts();
        yield_line_without_cells(&sim.run_yield().expect("run_yield"))
    });
    assert_lines(
        "run_yield without the cell fields",
        &lines,
        YIELD_WITHOUT_CELLS,
    );
}

#[test]
fn run_reports_keep_their_bits_outside_the_thermal_fields() {
    assert_lines(
        "run without the thermal fields",
        &walk(|sim| run_line_keeping(sim, &THERMAL_FREE_FIELDS)),
        RUN_WITHOUT_THERMAL,
    );
}

#[test]
fn yield_reports_keep_their_bits_outside_the_thermal_fields() {
    let lines = walk(|sim| {
        sim.reset_warm_starts();
        yield_line_without_thermal(&sim.run_yield().expect("run_yield"))
    });
    assert_lines(
        "run_yield without the thermal fields",
        &lines,
        YIELD_WITHOUT_THERMAL,
    );
}

#[test]
fn yield_reports_keep_their_bits() {
    let lines = walk(|sim| {
        sim.reset_warm_starts();
        yield_line(&sim.run_yield().expect("run_yield"))
    });
    assert_lines("run_yield", &lines, YIELD);
}

#[test]
fn yield_then_run_on_one_engine_keeps_its_bits() {
    let lines = walk(|sim| {
        let y = yield_line(&sim.run_yield().expect("run_yield"));
        format!("{y} | {}", run_line(sim))
    });
    assert_lines("run_yield then run", &lines, YIELD_THEN_RUN);
}

/// The cache rail a scenario describes, solved by a cold-started CG on
/// a freshly built grid: an independent reference for `run()`'s direct
/// solve.
fn cold_iterative_rail(s: &Scenario) -> PdnSolution {
    let (width, height) = (s.floorplan.width().value(), s.floorplan.height().value());
    let grid = Grid2d::from_extent(width, height, s.pdn.nx, s.pdn.ny).expect("PDN grid");
    let load = s.rail_load.rasterize(&s.floorplan, &grid).expect("rail load");
    PowerGrid::new(
        grid,
        s.pdn.sheet_resistance,
        s.vrm.output_voltage(),
        s.pdn.port_resistance,
        &s.pdn.ports,
        &load,
    )
    .expect("PDN system")
    .solve()
    .expect("CG solve")
}

#[test]
fn run_pdn_fields_match_a_cold_iterative_solve() {
    // The ten steps, then the base scenario with every block on the rail.
    let mut scenarios = steps();
    let mut full_rail = Scenario::power7_reduced();
    full_rail.rail_load = PowerScenario::full_load();
    scenarios.push(full_rail);
    let mut sim = CoSimulation::new(scenarios[0].clone()).expect("base scenario");
    for (i, s) in scenarios.into_iter().enumerate() {
        if i > 0 {
            sim.retarget(s.clone()).expect("retarget");
        }
        let report = sim.run().expect("run");
        let cold = cold_iterative_rail(&s);
        let within = |what: &str, got: f64, want: f64| {
            assert!(
                (got - want).abs() < 1e-8,
                "step {}: {what} {got} V vs cold CG {want} V",
                i + 1
            );
        };
        within("min", report.pdn_min_voltage.value(), cold.min_voltage().value());
        within("max", report.pdn_max_voltage.value(), cold.max_voltage().value());
        within("worst drop", report.pdn_worst_drop.value(), cold.worst_drop().value());
        let (got, want) = (report.voltage_map.as_slice(), cold.voltage_map().as_slice());
        assert_eq!(got.len(), want.len());
        for (node, (g, w)) in got.iter().zip(want).enumerate() {
            within(&format!("node {node}"), *g, *w);
        }
    }
}
