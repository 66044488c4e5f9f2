//! Property tests of the geometry/coefficient context split: a model
//! driven through a random sequence of `retarget_flow` /
//! `retarget_temperature` mutations must produce solves
//! **bitwise-equal** to a model built cold at the final parameters,
//! while never rebuilding its geometry context.

use proptest::prelude::*;

use bright_echem::vanadium;
use bright_flow::RectChannel;
use bright_flowcell::options::{SolverOptions, TemperatureProfile, VelocityModel};
use bright_flowcell::{CellGeometry, CellModel, CellSolution};
use bright_units::{CubicMetersPerSecond, Kelvin, Meters};

fn geometry() -> CellGeometry {
    CellGeometry::new(
        RectChannel::new(
            Meters::from_micrometers(200.0),
            Meters::from_micrometers(400.0),
            Meters::from_millimeters(22.0),
        )
        .unwrap(),
    )
}

fn options(velocity: VelocityModel) -> SolverOptions {
    SolverOptions {
        ny: 16,
        nx: 40,
        velocity,
        ..SolverOptions::default()
    }
}

/// The plain-parameter description of an operating point; builds the
/// cold reference model.
#[derive(Clone)]
struct Spec {
    flow: CubicMetersPerSecond,
    temperature: TemperatureProfile,
    velocity: VelocityModel,
}

impl Spec {
    fn base(velocity: VelocityModel) -> Self {
        Self {
            flow: CubicMetersPerSecond::from_milliliters_per_minute(7.68),
            temperature: TemperatureProfile::Uniform(Kelvin::new(300.0)),
            velocity,
        }
    }

    fn cold_model(&self) -> CellModel {
        CellModel::new(
            geometry(),
            vanadium::power7_cell_chemistry(),
            self.flow,
            self.temperature.clone(),
            options(self.velocity),
        )
        .unwrap()
    }
}

/// Applies retarget step `kind` (parameterized by `p ∈ [0,1)`) to both
/// the warm model and the spec.
fn apply_step(model: &mut CellModel, spec: &mut Spec, kind: usize, p: f64) {
    match kind % 3 {
        0 => {
            let flow = CubicMetersPerSecond::from_milliliters_per_minute(2.0 + 18.0 * p);
            model.retarget_flow(flow).unwrap();
            spec.flow = flow;
        }
        1 => {
            let t = TemperatureProfile::Uniform(Kelvin::new(292.0 + 30.0 * p));
            model.retarget_temperature(t.clone()).unwrap();
            spec.temperature = t;
        }
        _ => {
            let t = TemperatureProfile::Sampled(vec![
                Kelvin::new(296.0 + 10.0 * p),
                Kelvin::new(300.0 + 12.0 * p),
                Kelvin::new(303.0 + 14.0 * p),
            ]);
            model.retarget_temperature(t.clone()).unwrap();
            spec.temperature = t;
        }
    }
}

fn assert_bitwise_equal(warm: &CellSolution, cold: &CellSolution) {
    assert_eq!(warm.voltage().value().to_bits(), cold.voltage().value().to_bits());
    assert_eq!(warm.current().value().to_bits(), cold.current().value().to_bits());
    let (wp, cp) = (warm.current_density_profile(), cold.current_density_profile());
    assert_eq!(wp.len(), cp.len());
    for (w, c) in wp.iter().zip(cp) {
        assert_eq!(w.to_bits(), c.to_bits());
    }
    for (w, c) in warm
        .anode_overpotential_profile()
        .iter()
        .zip(cold.anode_overpotential_profile())
    {
        assert_eq!(w.to_bits(), c.to_bits());
    }
    assert_eq!(
        warm.transport_limited_stations(),
        cold.transport_limited_stations()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn retarget_sequences_match_cold_builds_bitwise(
        k1 in 0usize..3,
        p1 in 0.0..1.0f64,
        k2 in 0usize..3,
        p2 in 0.0..1.0f64,
        k3 in 0usize..3,
        p3 in 0.0..1.0f64,
        v_probe in 0.3..1.3f64,
    ) {
        let mut spec = Spec::base(VelocityModel::PlanePoiseuille);
        let mut model = spec.cold_model();
        model.solve_at_voltage(1.0).unwrap();
        let base = model.context_stats();
        prop_assert_eq!(base.geometry_builds, 1);

        for (k, p) in [(k1, p1), (k2, p2), (k3, p3)] {
            apply_step(&mut model, &mut spec, k, p);
            let warm = model.solve_at_voltage(v_probe).unwrap();
            let cold = spec.cold_model().solve_at_voltage(v_probe).unwrap();
            assert_bitwise_equal(&warm, &cold);
        }
        let stats = model.context_stats();
        prop_assert_eq!(stats.geometry_builds, 1);
        prop_assert_eq!(stats.coefficient_builds, 4);
        prop_assert_eq!(stats.coefficient_refreshes, 3);
    }

    #[test]
    fn duct_retargets_never_resolve_the_duct(
        p1 in 0.0..1.0f64,
        p2 in 0.0..1.0f64,
    ) {
        // Duct velocity model: the geometry context holds a real Poisson
        // solve. Flow and uniform-temperature retargets must reuse it
        // (zero further duct solves; each rebuild factors one operator
        // per side) and stay bitwise-equal to cold builds.
        let mut spec = Spec::base(VelocityModel::Duct { nz: 6 });
        let mut model = spec.cold_model();
        model.solve_at_voltage(1.0).unwrap();
        let base = model.context_stats();
        prop_assert_eq!(base.geometry_builds, 1);
        prop_assert_eq!(base.op_builds, 2);

        for (k, p) in [(0usize, p1), (1usize, p2)] {
            apply_step(&mut model, &mut spec, k, p);
            let warm = model.solve_at_voltage(0.8).unwrap();
            let cold = spec.cold_model().solve_at_voltage(0.8).unwrap();
            assert_bitwise_equal(&warm, &cold);
        }
        let stats = model.context_stats();
        prop_assert_eq!(stats.geometry_builds, 1, "duct was re-solved");
        prop_assert_eq!(stats.op_builds, 6, "isothermal rebuilds factor 2 operators each");
    }
}
