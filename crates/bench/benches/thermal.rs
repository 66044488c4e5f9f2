//! Criterion benches of the 3D-ICE-style thermal solver behind Fig. 9.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bright_floorplan::{power7, PowerScenario};
use bright_thermal::presets;
use bright_thermal::transient::{PowerTrace, SteppingMode, TraceSegment, TransientSimulation};

fn bench_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_steady");
    group.sample_size(10);
    let model = presets::power7_stack().unwrap();
    let power = PowerScenario::full_load()
        .rasterize(&power7::floorplan(), model.grid())
        .unwrap();
    group.bench_function("power7_88x44_full_load", |b| {
        b.iter(|| model.solve_steady(black_box(&power)).unwrap());
    });
    // The sweep path: cached operator + Krylov workspace + warm start.
    let mut session = model.session().unwrap();
    group.bench_function("power7_88x44_full_load_warm", |b| {
        b.iter(|| model.solve_steady_warm(black_box(&power), &mut session).unwrap());
    });
    group.finish();
}

fn bench_transient_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_transient");
    group.sample_size(10);
    let model = presets::power7_stack().unwrap();
    let power = PowerScenario::full_load()
        .rasterize(&power7::floorplan(), model.grid())
        .unwrap();
    let trace = PowerTrace::new(vec![TraceSegment::constant(1e-3, power)]).unwrap();
    let stepping = SteppingMode::Fixed { dt: 1e-3 };
    group.bench_function("power7_step_1ms", |b| {
        b.iter_batched(
            || TransientSimulation::new(model.clone(), trace.clone(), 300.0, stepping).unwrap(),
            |mut sim| sim.step().unwrap(),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_steady, bench_transient_step);
criterion_main!(benches);
