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
//! the junction map's digest.
//!
//! The values were recorded once and are not edited, with two
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

fn assert_lines(what: &str, actual: &[String], expected: &[&str]) {
    assert_eq!(
        actual, expected,
        "{what}: output bits moved; actual lines:\n{actual:#?}"
    );
}

const RUN: &[&str] = &[
    "7841756091618813213 189637",
    "9981766304859057028 189457",
    "5688840978003214412 189462",
    "12625744958369168167 189454",
    "5146679214758140711 189514",
    "13692752088052221896 189510",
    "8314722823291599416 189649",
    "1963073949285005832 220440",
    "8195707257591776251 220435",
    "7841756091618813213 189637",
];

const YIELD: &[&str] = &[
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f311bb2924b 40103f311bb2924b 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779",
    "4051d115d7c513c3 40747285640616c2 4074146b8ee26987 3ffee22c6a461957 3ffee22c6a461957 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 10046660626379232351",
    "4051d115d7c513c3 407513cd2f45b533 4074b6d1f548c283 4001d58ed90b880b 4001d58ed90b880b 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 8809391164036229073",
    "4051d115d7c513c3 407513cd2f45b533 4074b6d1f548c283 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 8809391164036229073",
    "4051d115d7c513c3 40750d19bae8b044 4074b6d1f5467c84 40031d037724d221 40031d037724d221 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 6870686282104975893",
    "4051d115d7c513c3 40750d19bae8b044 4074b6d1f5467c84 40031a9115ca397e 40031a9115ca397e 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 6870686282104975893",
    "4051d115d7c513c3 4073fc1cb7ea6501 40738b401b627e76 400fa1ca096f6992 400fa1ca096f6992 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 15041496233486242136",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa310e5b01076 400fa310e5b01076 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa3e45fad5bc4 400fa3e45fad5bc4 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905",
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f311bb2924b 40103f311bb2924b 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779",
];

const YIELD_THEN_RUN: &[&str] = &[
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f311bb2924b 40103f311bb2924b 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779 | 7841756091618813213 189637",
    "4051d115d7c513c3 407472856410890c 4074146b8ee0d008 3ffee22c6a4484ca 3ffee22c6a4484ca 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 13201788766200785428 | 9981766304859057028 189457",
    "4051d115d7c513c3 407513cd2f4ba9b0 4074b6d1f5486125 4001d58ed90beb9c 4001d58ed90beb9c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 9503886549713742996 | 5688840978003214412 189462",
    "4051d115d7c513c3 407513cd2f4ba9b0 4074b6d1f5486125 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 9503886549713742996 | 12625744958369168167 189454",
    "4051d115d7c513c3 40750d19bae843b8 4074b6d1f547ddf4 40031d037725ead0 40031d037725ead0 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 15240808847171098783 | 5146679214758140711 189514",
    "4051d115d7c513c3 40750d19bae843b8 4074b6d1f547ddf4 40031a9115cb51f2 40031a9115cb51f2 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 15240808847171098783 | 13692752088052221896 189510",
    "4051d115d7c513c3 4073fc1cb7783ea8 40738b401b6304de 400fa1ca09640510 400fa1ca09640510 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 4278967054558337287 | 8314722823291599416 189649",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa310e5b01076 400fa310e5b01076 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905 | 1963073949285005832 220440",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa3e45fad5bc4 400fa3e45fad5bc4 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905 | 8195707257591776251 220435",
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f311bb2924b 40103f311bb2924b 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779 | 7841756091618813213 189637",
];

/// `run()` reports without [`PDN_FIELDS`].
const RUN_WITHOUT_PDN: &[&str] = &[
    "9292929486616461376 19305",
    "14075181829637335281 19125",
    "7850401850851088077 19130",
    "8621079111962731996 19122",
    "15307369800439076268 19182",
    "8316883861881309225 19178",
    "4643047921987943535 19317",
    "121071055585615353 50108",
    "5130254421174045882 50103",
    "9292929486616461376 19305",
];

/// `run()` reports without [`CELL_FIELDS`].
const RUN_WITHOUT_CELLS: &[&str] = &[
    "15296992381936799438 188578",
    "1230256797448048744 188566",
    "13187638560307511703 188572",
    "13187638560307511703 188572",
    "15416239750259313394 188620",
    "13520963860432253266 188619",
    "17127559890122514442 188586",
    "15439023337162868174 219380",
    "17701940197048569992 219380",
    "15296992381936799438 188578",
];

/// `run_yield()` reports without `current_at_1v` and `power_at_1v`.
const YIELD_WITHOUT_CELLS: &[&str] = &[
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779",
    "4051d115d7c513c3 40747285640616c2 4074146b8ee26987 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 10046660626379232351",
    "4051d115d7c513c3 407513cd2f45b533 4074b6d1f548c283 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 8809391164036229073",
    "4051d115d7c513c3 407513cd2f45b533 4074b6d1f548c283 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 8809391164036229073",
    "4051d115d7c513c3 40750d19bae8b044 4074b6d1f5467c84 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 6870686282104975893",
    "4051d115d7c513c3 40750d19bae8b044 4074b6d1f5467c84 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 6870686282104975893",
    "4051d115d7c513c3 4073fc1cb7ea6501 40738b401b627e76 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 15041496233486242136",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905",
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779",
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
