//! Criterion benches of the flow-cell solver — the kernels behind Fig. 3
//! (validation polarization) and Fig. 7 (array V–I), and the coupled
//! array stage of a co-simulation point.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bright_flowcell::options::TemperatureProfile;
use bright_flowcell::{presets, CellArray};
use bright_units::Kelvin;

fn bench_single_voltage_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("flowcell_solve_at_voltage");
    group.sample_size(20);
    let power7 = presets::power7_channel().unwrap();
    group.bench_function("power7_channel_1V", |b| {
        b.iter(|| power7.solve_at_voltage(black_box(1.0)).unwrap());
    });
    let kjeang = presets::kjeang2007(60.0).unwrap();
    group.bench_function("kjeang_cell_0.8V", |b| {
        b.iter(|| kjeang.solve_at_voltage(black_box(0.8)).unwrap());
    });
    group.finish();
}

fn bench_polarization_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("flowcell_polarization");
    group.sample_size(10);
    let power7 = presets::power7_channel().unwrap();
    group.bench_function("fig7_single_channel_12pts", |b| {
        b.iter(|| power7.polarization_curve(black_box(12)).unwrap());
    });
    group.bench_function("fig7_single_channel_64pts", |b| {
        b.iter(|| power7.polarization_curve(black_box(64)).unwrap());
    });
    group.finish();
}

fn bench_current_inversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("flowcell_solve_at_current");
    group.sample_size(10);
    let power7 = presets::power7_channel().unwrap();
    group.bench_function("power7_channel_30mA", |b| {
        b.iter(|| {
            power7
                .solve_at_current(black_box(bright_units::Ampere::new(0.03)))
                .unwrap()
        });
    });
    group.finish();
}

/// One co-simulation channel: paper resolution with a sampled 5-knot
/// temperature profile, so every station has its own transport operator.
/// The 16-voltage sweep is the lane march of a coupled point; the 1 V
/// point is the same march with one lane.
fn bench_sampled_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("flowcell_sampled_channel");
    group.sample_size(10);
    let profile = TemperatureProfile::Sampled(
        [301.0, 304.5, 308.0, 312.0, 310.5]
            .iter()
            .map(|&t| Kelvin::new(t))
            .collect(),
    );
    let channel = presets::power7_channel()
        .unwrap()
        .with_temperature(profile)
        .unwrap();
    let ocv = channel.open_circuit_voltage().unwrap().value();
    let ladder: Vec<f64> = (0..16)
        .map(|k| 0.05 + (ocv - 1e-4 - 0.05) * k as f64 / 15.0)
        .collect();
    group.bench_function("sweep_at_voltages_16", |b| {
        b.iter(|| channel.sweep_at_voltages(black_box(&ladder)).unwrap());
    });
    group.bench_function("solve_at_voltage_1V", |b| {
        b.iter(|| channel.solve_at_voltage(black_box(1.0)).unwrap());
    });
    group.finish();
}

/// The co-simulation's array stage at the preset grid: eight columns,
/// each with its own sampled 5-knot profile, swept over 16 voltages plus
/// the 1 V point. One pass builds every column model once; the two-pass
/// form builds them twice.
fn bench_array(c: &mut Criterion) {
    let mut group = c.benchmark_group("flowcell_array");
    group.sample_size(10);
    let profiles = (0..8)
        .map(|k| {
            let base = 300.0 + 0.75 * k as f64;
            TemperatureProfile::Sampled(
                [0.0, 3.5, 7.0, 11.0, 9.5]
                    .iter()
                    .map(|dt| Kelvin::new(base + dt))
                    .collect(),
            )
        })
        .collect();
    let array = CellArray::new(presets::power7_channel().unwrap(), 8)
        .unwrap()
        .with_channel_temperatures(profiles)
        .unwrap();
    group.bench_function("curve_and_point_one_pass_8cols", |b| {
        b.iter(|| {
            array
                .polarization_curve_and_point(black_box(16), black_box(1.0))
                .unwrap()
        });
    });
    group.bench_function("curve_then_point_8cols", |b| {
        b.iter(|| {
            (
                array.polarization_curve(black_box(16)).unwrap(),
                array.solve_at_voltage(black_box(1.0)).unwrap(),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_voltage_point,
    bench_polarization_sweep,
    bench_current_inversion,
    bench_sampled_channel,
    bench_array
);
criterion_main!(benches);
