//! Pinned output bits of the flow-cell solver.
//!
//! Every value below is the IEEE-754 bit pattern (hex) of a solver
//! output, recorded once and never edited: polarization curves of a
//! POWER7+ channel (isothermal, and with a sampled temperature profile
//! that gives every station a distinct transport operator), a
//! four-channel array with per-channel profiles (the channel fan-out,
//! the curve and its 1 V point apart and in one pass), the 1 V operating
//! point and a fixed-current inversion.
//! A change to the marching solver that reorders any floating-point
//! operation fails here; run it under `BRIGHT_SWEEP_THREADS=1` and `=4`
//! to check that the channel fan-out does not matter either.

use bright_flowcell::options::TemperatureProfile;
use bright_flowcell::{presets, CellArray, CellModel, PolarizationCurve};
use bright_units::{Ampere, Kelvin};

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// One line per curve point: `voltage current power`.
fn curve_lines(curve: &PolarizationCurve) -> Vec<String> {
    curve
        .points()
        .iter()
        .map(|p| {
            format!(
                "{} {} {}",
                hex(p.voltage.value()),
                hex(p.current.value()),
                hex(p.power.value())
            )
        })
        .collect()
}

/// The 12-point curve, then `current transport_limited_stations` at 1 V.
fn channel_lines(model: &CellModel) -> Vec<String> {
    let mut lines = curve_lines(&model.polarization_curve(12).expect("curve"));
    let sol = model.solve_at_voltage(1.0).expect("1 V point");
    lines.push(format!(
        "{} {}",
        hex(sol.current().value()),
        sol.transport_limited_stations()
    ));
    lines
}

/// A 5-knot inlet-to-outlet profile: warming, then a slight cool-down.
fn sampled_profile(base: f64) -> TemperatureProfile {
    TemperatureProfile::Sampled(
        [0.0, 3.5, 7.0, 11.0, 9.5]
            .iter()
            .map(|dt| Kelvin::new(base + dt))
            .collect(),
    )
}

fn sampled_channel() -> CellModel {
    presets::power7_channel()
        .expect("preset")
        .with_temperature(sampled_profile(301.0))
        .expect("profile")
}

fn assert_lines(what: &str, actual: &[String], expected: &[&str]) {
    assert_eq!(
        actual, expected,
        "{what}: output bits moved; actual lines:\n{actual:#?}"
    );
}

const ISOTHERMAL_CHANNEL: &[&str] = &[
    "3ffa5e32299fc7ef 0000000000000000 0000000000000000",
    "3ffa5dc94e141b7e 3e7006cb9dbddf24 3e7a68fc036c9c86",
    "3ff80ac99f6ab73f 3f3fd8a2c6843692 3f47ed366f263df0",
    "3ff5b7c9f0c15301 3f7953829e6eb872 3f8130431e0a7a63",
    "3ff364ca4217eec2 3f9dd6b61d66cb7c 3fa21577b38fac38",
    "3ff111ca936e8a84 3fa679574a34037b 3fa7f9ea369a3a89",
    "3fed7d95c98a4c8a 3fa748e08345ef06 3fa5756d21f3f13b",
    "3fe8d7966c37840c 3fa7594c7ff35fad 3fa220471b7eaeb6",
    "3fe431970ee4bb8f 3fa75a6b2d785dae 3f9d79675c222ad9",
    "3fdf172f6323e623 3fa75a7cb0db90d5 3f96b0946a351a90",
    "3fd5cb30a87e5528 3fa75a7dbf27cc98 3f8fcf582bb55033",
    "3fc8fe63dbb1885c 3fa75a7dcf6ffdcd 3f823d85827c9e1a",
    "3fa999999999999a 3fa75a7dd06282c8 3f62aecb0d1b9bd3",
    "3fa7147bb4082441 0",
];

const SAMPLED_CHANNEL: &[&str] = &[
    "3ffa86c632389d6c 0000000000000000 0000000000000000",
    "3ffa865d56acf0fc 3ec019b861cc0491 3ecab100f3d6928f",
    "3ff82fad4a243383 3f416b6b36d8ea64 3f4a55090765f774",
    "3ff5d8fd3d9b760a 3f7aef0f23df58ce 3f826384bba6f7a4",
    "3ff3824d3112b891 3fa04e84c99c55f2 3fa3e20a523251a4",
    "3ff12b9d2489fb19 3fa93ed8ff78e710 3fab179768f773d3",
    "3feda9da30027b40 3faa376a8b974067 3fa84d5ffa0d4861",
    "3fe8fc7a16f10050 3faa4ae3984e7f3b 3fa4879cc2e77efe",
    "3fe44f19fddf855e 3faa4c3e5d776d16 3fa0b0a890949a08",
    "3fdf4373c99c14d9 3faa4c5420d6c7f4 3f99b16077f2df15",
    "3fd5e8b397791ef7 3faa4c557a8cd882 3f9201551b9ece2b",
    "3fc91be6caac522a 3faa4c5590042e88 3f84a290ebeb3cef",
    "3fa999999999999a 3faa4c559155d882 3f6509de0dde46cf",
    "3faa01533d5332b1 0",
];

const SAMPLED_ARRAY: &[&str] = &[
    "3ffa5e32299fc7da 0000000000000000 0000000000000000",
    "3ffa5dc94e141b68 3f05571d86a33a81 3f1195536a77204e",
    "3ff6b6c9cde55953 3f87a164d5677e26 3f90c5f046018ab1",
    "3ff30fca4db6973c 3fc382c880c874b7 3fc73e8f66ce2d69",
    "3feed1959b0faa4c 3fcaa54cae0bd429 3fc9a97c12c69544",
    "3fe783969ab22620 3fcaccc66637e5dd 3fc3b163071b4efb",
    "3fe035979a54a1f3 3fcacd652588bc16 3fbb272b79865666",
    "3fd1cf3133ee3b8c 3fcacd6742e0845a 3fadd5518b09ce65",
    "3fa999999999999a 3fcacd674a101d40 3f85711f6e734a9a",
];

/// `current power` of the same array at 1 V.
const SAMPLED_ARRAY_AT_1V: &str = "3fca8140eb1b5e72 3fca8140eb1b5e72";

const VOLTAGE_AT_30_MA: &str = "3ff3513acac534e7";

#[test]
fn isothermal_channel_bits() {
    let model = presets::power7_channel().expect("preset");
    assert_lines(
        "isothermal channel",
        &channel_lines(&model),
        ISOTHERMAL_CHANNEL,
    );
}

#[test]
fn sampled_profile_channel_bits() {
    assert_lines(
        "sampled channel",
        &channel_lines(&sampled_channel()),
        SAMPLED_CHANNEL,
    );
}

#[test]
fn four_channel_array_bits() {
    let temps = (0..4)
        .map(|k| sampled_profile(300.0 + 1.5 * k as f64))
        .collect();
    let array = CellArray::new(presets::power7_channel().expect("preset"), 4)
        .expect("array")
        .with_channel_temperatures(temps)
        .expect("profiles");
    let curve = array.polarization_curve(8).expect("array curve");
    assert_lines("four-channel array", &curve_lines(&curve), SAMPLED_ARRAY);
}

#[test]
fn four_channel_array_1v_point_bits() {
    let temps = (0..4)
        .map(|k| sampled_profile(300.0 + 1.5 * k as f64))
        .collect();
    let array = CellArray::new(presets::power7_channel().expect("preset"), 4)
        .expect("array")
        .with_channel_temperatures(temps)
        .expect("profiles");
    let point_line = |op: bright_flowcell::array::ArrayOperatingPoint| {
        format!("{} {}", hex(op.current.value()), hex(op.power.value()))
    };
    let alone = array.solve_at_voltage(1.0).expect("1 V point");
    assert_eq!(
        point_line(alone),
        SAMPLED_ARRAY_AT_1V,
        "array 1 V point moved"
    );
    // One pass: the curve and the point lane of the same march.
    let (curve, point) = array
        .polarization_curve_and_point(8, 1.0)
        .expect("curve and point");
    assert_lines("one-pass array curve", &curve_lines(&curve), SAMPLED_ARRAY);
    assert_eq!(
        point_line(point),
        SAMPLED_ARRAY_AT_1V,
        "one-pass 1 V point moved"
    );
}

#[test]
fn fixed_current_voltage_bits() {
    let model = presets::power7_channel().expect("preset");
    let sol = model.solve_at_current(Ampere::new(0.030)).expect("30 mA");
    assert_eq!(
        hex(sol.voltage().value()),
        VOLTAGE_AT_30_MA,
        "voltage at 30 mA moved"
    );
}
