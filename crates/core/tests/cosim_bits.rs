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
//! Engine 1 pins `(fnv1a, len)` of every `run()` report's JSON. Engine
//! 2 pins the bit patterns of every `run_yield()` report's eight scalars
//! and an FNV-1a digest of its junction map, with warm starts reset
//! before each sample as a Monte Carlo worker does. Engine 3 calls
//! `run_yield()` and then `run()` at every step, so both paths share one
//! engine's caches and sessions. The values were recorded once and are
//! never edited; run the file under `BRIGHT_SWEEP_THREADS=1` and `=4` to
//! check that the per-column fan-out does not matter either. A forced
//! multigrid thermal preconditioner has a second recorded set.

use bright_core::{CoSimulation, Scenario, YieldReport};
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
    "11204358635358047779 189638",
    "9381152200760537804 189464",
    "6496157422182715220 189465",
    "589138069181555534 189457",
    "1490407748720064212 189513",
    "10871754465528834844 189511",
    "4195045131156583010 189644",
    "65589206174903635 220441",
    "13424261718421439299 220444",
    "11204358635358047779 189638",
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
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f313c629c92 40103f313c629c92 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779 | 11204358635358047779 189638",
    "4051d115d7c513c3 407472856410890c 4074146b8ee0d008 3ffee22ca5103ac1 3ffee22ca5103ac1 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 13201788766200785428 | 9381152200760537804 189464",
    "4051d115d7c513c3 407513cd2f4ba9b0 4074b6d1f5486125 4001d58ef69c1307 4001d58ef69c1307 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 9503886549713742996 | 6496157422182715220 189465",
    "4051d115d7c513c3 407513cd2f4ba9b0 4074b6d1f5486125 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 9503886549713742996 | 589138069181555534 189457",
    "4051d115d7c513c3 40750d19bae843b8 4074b6d1f547ddf4 40031d03977981b8 40031d03977981b8 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 15240808847171098783 | 1490407748720064212 189513",
    "4051d115d7c513c3 40750d19bae843b8 4074b6d1f547ddf4 40031a9136064aef 40031a9136064aef 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 15240808847171098783 | 10871754465528834844 189511",
    "4051d115d7c513c3 4073fc1cb7783ea8 40738b401b6304de 400fa1ca9dac771c 400fa1ca9dac771c 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 4278967054558337287 | 4195045131156583010 189644",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa3113d66c303 400fa3113d66c303 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905 | 65589206174903635 220441",
    "405225cb46bacf75 4073fd31b5e25bba 40738c0253f91424 400fa3e4b7655f95 400fa3e4b7655f95 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 8259937427098231905 | 13424261718421439299 220444",
    "4051d115d7c513c3 40734bd9a37ca0e2 4072d82bfe0034cf 40103f313c629c92 40103f313c629c92 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 18211154972864752779 | 11204358635358047779 189638",
];

/// The same walks with the thermal preconditioner forced to multigrid
/// (`BRIGHT_PRECOND=multigrid`, the forced-multigrid CI leg): the forced
/// V-cycle takes other Krylov iterates, so the reports carry other bits.
/// Recorded once, like the default set, and never edited.
const RUN_MG: &[&str] = &[
    "3623805193648299725 189611",
    "8636487837357885447 189416",
    "9362272507537152489 189431",
    "3481942174786966259 189422",
    "17583927981688899482 189429",
    "12146066279006977238 189436",
    "16165945942629924103 189579",
    "4185175159643121776 220296",
    "5205492537982976501 220291",
    "3623805193648299725 189611",
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
    "4051d115d7c513c3 40734bd9a32c71e0 4072d82bfe06f12c 40103f313c8fc771 40103f313c8fc771 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15692240635291529104 | 3623805193648299725 189611",
    "4051d115d7c513c3 4074728563f6c05c 4074146b8ee19fcf 3ffee22ca5107d85 3ffee22ca5107d85 3feed1967cd4ea6d 40a59f0129374bcd 3f7223192c4f52fa 12113497288154398984 | 8636487837357885447 189416",
    "4051d115d7c513c3 407513cd2f431c6f 4074b6d1f547ff42 4001d58ef69bf4ec 4001d58ef69bf4ec 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 16497359097273216509 | 9362272507537152489 189431",
    "4051d115d7c513c3 407513cd2f431c6f 4074b6d1f547ff42 3ffe2737c812573c 3ffe2737c812573c 3feed1967cd4ea6d 40a1e488036b9286 3f6e04db36d095ba 16497359097273216509 | 3481942174786966259 189422",
    "4051d115d7c513c3 40750d19bacd2328 4074b6d1f5482ee4 40031d03977a1b97 40031d03977a1b97 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 12416431025330491599 | 17583927981688899482 189429",
    "4051d115d7c513c3 40750d19bacd2328 4074b6d1f5482ee4 40031a913606e4b8 40031a913606e4b8 3feed1967cd4ea6d 40a77cd65a9d981f 3f73b3eefb79315f 12416431025330491599 | 12146066279006977238 189436",
    "4051d115d7c513c3 4073fc1cb7d5243e 40738b401b62b5bf 400fa1ca9da37a7e 400fa1ca9da37a7e 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 2028058178875168991 | 16165945942629924103 189579",
    "405225cb46bacf75 4073fd31b5e258ae 40738c0253f75137 400fa3113d51bbfa 400fa3113d51bbfa 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 5383186500193283149 | 4185175159643121776 220296",
    "405225cb46bacf75 4073fd31b5e258ae 40738c0253f75137 400fa3e4b75057a7 400fa3e4b75057a7 3feed1967cd4ea6d 40d2a36303900df5 3fd0494d274b6300 5383186500193283149 | 5205492537982976501 220291",
    "4051d115d7c513c3 40734bd9a32c71e0 4072d82bfe06f12c 40103f313c8fc771 40103f313c8fc771 3feed1967cd4ea6d 40e307f5059cac0c 3fec1aa2d37386c5 15692240635291529104 | 3623805193648299725 189611",
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
