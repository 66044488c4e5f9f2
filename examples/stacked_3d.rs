//! 3-D stacking with interlayer flow-cell cooling — the denser-packaging
//! vision of the paper's introduction (refs [6–8]): two POWER7+-class
//! dies in one stack, each with its own microfluidic fuel-cell layer
//! above it, both powered and cooled by the same fluid network. The
//! final section solves the conventional air-cooled baseline at 6×
//! plane resolution (~700k unknowns), where the solver session
//! switches to the geometric multigrid preconditioner
//! (`docs/MULTIGRID.md`).
//!
//! Run with: `cargo run --release --example stacked_3d`
//! (add `--quick` to skip the scaled large-grid solve)

use bright_silicon::flow::fluid::TemperatureDependentFluid;
use bright_silicon::floorplan::{power7, PowerScenario};
use bright_silicon::thermal::stack::{LayerSpec, MicrochannelSpec, StackConfig, TopCooling};
use bright_silicon::thermal::{Material, ThermalModel};
use bright_silicon::units::{CubicMetersPerSecond, Kelvin, Meters};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plan = power7::floorplan();
    let fluid = TemperatureDependentFluid::vanadium_electrolyte().at(Kelvin::new(300.0))?;
    let channels = |name: &str| LayerSpec::Microchannel {
        name: name.into(),
        spec: MicrochannelSpec {
            channel_width: Meters::from_micrometers(200.0),
            channel_height: Meters::from_micrometers(400.0),
            channels_per_cell: 1,
            fluid,
            total_flow: CubicMetersPerSecond::from_milliliters_per_minute(676.0),
            inlet_temperature: Kelvin::new(300.0),
            wall_material: Material::silicon(),
        },
    };
    let die = |name: &str| LayerSpec::Solid {
        name: name.into(),
        material: Material::silicon(),
        thickness: Meters::from_micrometers(400.0),
        sublayers: 2,
    };

    // Stack bottom-up: die0, channels0, die1, channels1, cap.
    let model = ThermalModel::new(StackConfig {
        width: plan.width(),
        height: plan.height(),
        nx: 88,
        ny: 44,
        layers: vec![
            die("die0"),
            channels("interlayer channels 0"),
            die("die1"),
            channels("interlayer channels 1"),
            LayerSpec::Solid {
                name: "cap".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(300.0),
                sublayers: 1,
            },
        ],
        top_cooling: None,
    })?;

    // Both dies run the full-load POWER7+ map; die1's active face sits at
    // level 3 (die0 occupies levels 0-1, channels0 level 2).
    let power = PowerScenario::full_load().rasterize(&plan, model.grid())?;
    let total = 2.0 * power.integral();
    let sol = model.solve_steady_with_sources(&[(0, &power), (3, &power)])?;

    println!("3-D stack: two full-load dies ({total:.0} W total), two flow-cell layers\n");
    for (lvl, label) in [
        (0usize, "die0 active face"),
        (2, "fluid layer 0"),
        (3, "die1 active face"),
        (5, "fluid layer 1"),
        (6, "cap"),
    ] {
        let map = sol.level_map(lvl);
        println!(
            "  level {lvl} ({label:<18}): {:6.1} .. {:6.1} degC",
            map.min() - 273.15,
            map.max() - 273.15
        );
    }
    println!(
        "\npeak anywhere: {:.1} degC — interlayer cooling keeps a 2-die,\n\
         ~143 W stack within a laptop-class thermal envelope, while both\n\
         fluid layers keep generating electrochemical power.",
        sol.max_temperature().to_celsius().value()
    );

    // Contrast: the same two dies with only ONE cooling layer on top.
    let single = ThermalModel::new(StackConfig {
        width: plan.width(),
        height: plan.height(),
        nx: 88,
        ny: 44,
        layers: vec![
            die("die0"),
            die("die1"),
            channels("top channels"),
            LayerSpec::Solid {
                name: "cap".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(300.0),
                sublayers: 1,
            },
        ],
        top_cooling: None,
    })?;
    let sol_single = single.solve_steady_with_sources(&[(0, &power), (2, &power)])?;
    println!(
        "\nwithout the interlayer (single cooling layer on top): peak {:.1} degC",
        sol_single.max_temperature().to_celsius().value()
    );

    if std::env::args().any(|a| a == "--quick") {
        return Ok(());
    }

    // Scale-up: the same two dies under a *conventional* forced-air
    // heat sink, meshed at 6x plane resolution (528 x 264 x 5 levels =
    // 696 960 unknowns). The conduction-only operator is symmetric, so
    // at this size `ThermalModel::solve_options` switches the session
    // to the geometric-multigrid preconditioner (the interlayer stacks
    // above keep MILU(0): their fluid advection is outside the geometric
    // hierarchy's reach — see docs/MULTIGRID.md).
    const SCALE: usize = 6;
    let air_cooled = ThermalModel::new(StackConfig {
        width: plan.width(),
        height: plan.height(),
        nx: 88 * SCALE,
        ny: 44 * SCALE,
        layers: vec![
            die("die0"),
            die("die1"),
            LayerSpec::Solid {
                name: "cap".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(300.0),
                sublayers: 1,
            },
        ],
        top_cooling: Some(TopCooling::forced_air()),
    })?;
    let power_fine = PowerScenario::full_load().rasterize(&plan, air_cooled.grid())?;
    let mut session = air_cooled.session()?;
    let sol_air =
        air_cooled.solve_steady_with_sources_warm(&[(0, &power_fine), (2, &power_fine)], &mut session)?;
    let stats = session.last_stats();
    println!(
        "\nair-cooled baseline at {} x {} x {} = {} unknowns:\n  \
         preconditioner {}, {} iterations, peak {:.1} degC —\n  \
         a forced-air sink cannot hold the 2-die stack near the\n  \
         envelope the interlayer flow cells manage above.",
        air_cooled.grid().nx(),
        air_cooled.grid().ny(),
        air_cooled.level_count(),
        air_cooled.grid().len() * air_cooled.level_count(),
        session.precond_digest(),
        stats.iterations,
        sol_air.max_temperature().to_celsius().value()
    );
    Ok(())
}
