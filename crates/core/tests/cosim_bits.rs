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
//! either. A forced multigrid thermal preconditioner has a second
//! recorded set.
//!
//! The values were recorded once and are not edited, with one
//! exception. When `run()` moved its cache-rail solve from warm-started
//! CG to the cached banded factor that `run_yield()` already used,
//! `RUN`, `RUN_MG` and the run halves of `YIELD_THEN_RUN` and
//! `YIELD_THEN_RUN_MG` were re-recorded once. That move changes only the
//! four PDN fields: `RUN_WITHOUT_PDN` and `RUN_WITHOUT_PDN_MG`, recorded
//! before it, still hold, and
//! `run_pdn_fields_match_a_cold_iterative_solve` bounds how far the four
//! fields moved.

use bright_core::{CoSimulation, Scenario, YieldReport};
use bright_floorplan::PowerScenario;
use bright_jsonio::Value;
use bright_mesh::Grid2d;
use bright_pdn::{PdnSolution, PowerGrid};
use bright_num::PrecondSpec;
use bright_units::{CubicMetersPerSecond, Kelvin, Meters};

/// FNV-1a (64-bit) over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

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
    format!("{} {}", fnv1a(json.bytes()), json.len())
}

/// The four report fields that carry the PDN solve.
const PDN_FIELDS: [&str; 4] = [
    "pdn_min_voltage",
    "pdn_max_voltage",
    "pdn_worst_drop",
    "voltage_map",
];

/// `fnv1a len` of the report JSON without [`PDN_FIELDS`].
fn run_line_without_pdn(sim: &mut CoSimulation) -> String {
    let mut json = sim.run().expect("run").to_json();
    let Value::Object(fields) = &mut json else {
        panic!("a report serializes to an object");
    };
    for key in PDN_FIELDS {
        assert!(fields.remove(key).is_some(), "report lacks `{key}`");
    }
    let json = json.to_json_string();
    format!("{} {}", fnv1a(json.bytes()), json.len())
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
    let junction = r
        .junction_map
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes());
    let mut line = scalars.map(hex).join(" ");
    line.push_str(&format!(" {}", fnv1a(junction)));
    line
}

fn assert_lines(what: &str, actual: &[String], expected: &[&str]) {
    assert_eq!(
        actual, expected,
        "{what}: output bits moved; actual lines:\n{actual:#?}"
    );
}

const RUN: &[&str] = &[
    "13038506293619385628 189635",
    "8402504994070026377 189461",
    "2227621987279332611 189462",
    "12625744958369168167 189454",
    "10436023670611849503 189510",
    "9028850005271179331 189508",
    "1006614058989236495 189641",
    "943931083962046810 220438",
    "15306183765061651482 220441",
    "13038506293619385628 189635",
];

const YIELD: &[&str] = &[
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f313c629c92 40103f313c629c92 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779",
    "4051d115d7c513c3 40747285640616c2 4074146b8ee26987 3ffee22ca511cfcf 3ffee22ca511cfcf 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 10046660626379232351",
    "4051d115d7c513c3 407513cd2f45b533 4074b6d1f548c283 4001d58ef69bafb7 4001d58ef69bafb7 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 8809391164036229073",
    "4051d115d7c513c3 407513cd2f45b533 4074b6d1f548c283 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 8809391164036229073",
    "4051d115d7c513c3 40750d19bae8b044 4074b6d1f5467c84 40031d03977867f3 40031d03977867f3 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 6870686282104975893",
    "4051d115d7c513c3 40750d19bae8b044 4074b6d1f5467c84 40031a9136053168 40031a9136053168 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 6870686282104975893",
    "4051d115d7c513c3 4073fc1cb7ea6501 40738b401b627e76 400fa1ca9db7d6e2 400fa1ca9db7d6e2 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 15041496233486242136",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa3113d66c303 400fa3113d66c303 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa3e4b7655f95 400fa3e4b7655f95 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905",
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f313c629c92 40103f313c629c92 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779",
];

const YIELD_THEN_RUN: &[&str] = &[
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f313c629c92 40103f313c629c92 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779 | 13038506293619385628 189635",
    "4051d115d7c513c3 407472856410890c 4074146b8ee0d008 3ffee22ca5103ac1 3ffee22ca5103ac1 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 13201788766200785428 | 8402504994070026377 189461",
    "4051d115d7c513c3 407513cd2f4ba9b0 4074b6d1f5486125 4001d58ef69c1307 4001d58ef69c1307 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 9503886549713742996 | 2227621987279332611 189462",
    "4051d115d7c513c3 407513cd2f4ba9b0 4074b6d1f5486125 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 9503886549713742996 | 12625744958369168167 189454",
    "4051d115d7c513c3 40750d19bae843b8 4074b6d1f547ddf4 40031d03977981b8 40031d03977981b8 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 15240808847171098783 | 10436023670611849503 189510",
    "4051d115d7c513c3 40750d19bae843b8 4074b6d1f547ddf4 40031a9136064aef 40031a9136064aef 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 15240808847171098783 | 9028850005271179331 189508",
    "4051d115d7c513c3 4073fc1cb7783ea8 40738b401b6304de 400fa1ca9dac771c 400fa1ca9dac771c 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 4278967054558337287 | 1006614058989236495 189641",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa3113d66c303 400fa3113d66c303 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905 | 943931083962046810 220438",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa3e4b7655f95 400fa3e4b7655f95 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905 | 15306183765061651482 220441",
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f313c629c92 40103f313c629c92 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779 | 13038506293619385628 189635",
];

/// `run()` reports without [`PDN_FIELDS`].
const RUN_WITHOUT_PDN: &[&str] = &[
    "5120424515041443389 19303",
    "18050456624341858338 19129",
    "2844185767298142020 19130",
    "8621079111962731996 19122",
    "847876702557552320 19178",
    "4979140674720445166 19176",
    "7807697497337038246 19309",
    "1924149348695824767 50106",
    "12156209819320906631 50109",
    "5120424515041443389 19303",
];

/// The same walks with the thermal preconditioner forced to multigrid
/// (`BRIGHT_PRECOND=multigrid`, the forced-multigrid CI leg): the forced
/// V-cycle takes other Krylov iterates, so the reports carry other bits.
/// Recorded once, like the default set, and never edited.
const RUN_MG: &[&str] = &[
    "15203190973029091281 189687",
    "14983033572986424083 189492",
    "10068692978894130157 189507",
    "9147205247940655273 189498",
    "1786764992782689212 189505",
    "13344709112189932592 189512",
    "12925067252829718241 189655",
    "13752409825706293260 220372",
    "7616734220515943361 220367",
    "15203190973029091281 189687",
];

const YIELD_MG: &[&str] = &[
    "4051d115d7c513c3 40734bd9a32c71e0 4072d82bfe06f12c 40103f313c8fc771 40103f313c8fc771 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15692240635291529104",
    "4051d115d7c513c3 4074728563f7bc88 4074146b8ee19f6e 3ffee22ca5100887 3ffee22ca5100887 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 9934671517506345571",
    "4051d115d7c513c3 407513cd2f40f593 4074b6d1f54807f2 4001d58ef69c008d 4001d58ef69c008d 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 8613222838237698243",
    "4051d115d7c513c3 407513cd2f40f593 4074b6d1f54807f2 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 8613222838237698243",
    "4051d115d7c513c3 40750d19bacc71fd 4074b6d1f547ffc8 40031d039779f865 40031d039779f865 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 9378425090149933313",
    "4051d115d7c513c3 40750d19bacc71fd 4074b6d1f547ffc8 40031a913606c18c 40031a913606c18c 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 9378425090149933313",
    "4051d115d7c513c3 4073fc1cb7cf2e8e 40738b401b62c506 400fa1ca9da39260 400fa1ca9da39260 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 2402060425328900204",
    "405225cb46bacf75 4073fd31b5e258ae 40738c0253f75137 400fa3113d51bbfa 400fa3113d51bbfa 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 5383186500193283149",
    "405225cb46bacf75 4073fd31b5e258ae 40738c0253f75137 400fa3e4b75057a7 400fa3e4b75057a7 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 5383186500193283149",
    "4051d115d7c513c3 40734bd9a32c71e0 4072d82bfe06f12c 40103f313c8fc771 40103f313c8fc771 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15692240635291529104",
];

const YIELD_THEN_RUN_MG: &[&str] = &[
    "4051d115d7c513c3 40734bd9a32c71e0 4072d82bfe06f12c 40103f313c8fc771 40103f313c8fc771 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15692240635291529104 | 15203190973029091281 189687",
    "4051d115d7c513c3 4074728563f6c05c 4074146b8ee19fcf 3ffee22ca5107d85 3ffee22ca5107d85 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 12113497288154398984 | 14983033572986424083 189492",
    "4051d115d7c513c3 407513cd2f431c6f 4074b6d1f547ff42 4001d58ef69bf4ec 4001d58ef69bf4ec 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 16497359097273216509 | 10068692978894130157 189507",
    "4051d115d7c513c3 407513cd2f431c6f 4074b6d1f547ff42 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 16497359097273216509 | 9147205247940655273 189498",
    "4051d115d7c513c3 40750d19bacd2328 4074b6d1f5482ee4 40031d03977a1b97 40031d03977a1b97 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 12416431025330491599 | 1786764992782689212 189505",
    "4051d115d7c513c3 40750d19bacd2328 4074b6d1f5482ee4 40031a913606e4b8 40031a913606e4b8 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 12416431025330491599 | 13344709112189932592 189512",
    "4051d115d7c513c3 4073fc1cb7d5243e 40738b401b62b5bf 400fa1ca9da37a7e 400fa1ca9da37a7e 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 2028058178875168991 | 12925067252829718241 189655",
    "405225cb46bacf75 4073fd31b5e258ae 40738c0253f75137 400fa3113d51bbfa 400fa3113d51bbfa 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 5383186500193283149 | 13752409825706293260 220372",
    "405225cb46bacf75 4073fd31b5e258ae 40738c0253f75137 400fa3e4b75057a7 400fa3e4b75057a7 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 5383186500193283149 | 7616734220515943361 220367",
    "4051d115d7c513c3 40734bd9a32c71e0 4072d82bfe06f12c 40103f313c8fc771 40103f313c8fc771 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15692240635291529104 | 15203190973029091281 189687",
];

const RUN_WITHOUT_PDN_MG: &[&str] = &[
    "2955233433761251696 19355",
    "16611462510395604446 19160",
    "11620108099129718420 19175",
    "5705794923983346562 19166",
    "14047085289726904531 19173",
    "5933097921232009039 19180",
    "14811554904530281302 19323",
    "18224141563033373645 50040",
    "7167387613664424088 50035",
    "2955233433761251696 19355",
];

/// `true` when the library resolves a forced multigrid preconditioner
/// for the thermal solve, which selects the `*_MG` pins.
fn forced_multigrid() -> bool {
    PrecondSpec::forced_or(1, 1, 1, PrecondSpec::ssor()).name() == "multigrid"
}

#[test]
fn run_reports_keep_their_bits() {
    let pins = if forced_multigrid() { RUN_MG } else { RUN };
    assert_lines("run", &walk(run_line), pins);
}

#[test]
fn run_reports_keep_their_bits_outside_the_pdn_fields() {
    let pins = if forced_multigrid() {
        RUN_WITHOUT_PDN_MG
    } else {
        RUN_WITHOUT_PDN
    };
    assert_lines("run without the PDN fields", &walk(run_line_without_pdn), pins);
}

#[test]
fn yield_reports_keep_their_bits() {
    let lines = walk(|sim| {
        sim.reset_warm_starts();
        yield_line(&sim.run_yield().expect("run_yield"))
    });
    let pins = if forced_multigrid() { YIELD_MG } else { YIELD };
    assert_lines("run_yield", &lines, pins);
}

#[test]
fn yield_then_run_on_one_engine_keeps_its_bits() {
    let lines = walk(|sim| {
        let y = yield_line(&sim.run_yield().expect("run_yield"));
        format!("{y} | {}", run_line(sim))
    });
    let pins = if forced_multigrid() {
        YIELD_THEN_RUN_MG
    } else {
        YIELD_THEN_RUN
    };
    assert_lines("run_yield then run", &lines, pins);
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
