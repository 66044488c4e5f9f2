//! **F8** — Fig. 8 of the paper: voltage distribution in the power grid
//! supplying the POWER7+ cache memories from the microfluidic cell array
//! (1.0 V rail, uniform TSV/VRM ports, color scale 0.96–1.0 V).

use bright_bench::{banner, compare_row};
use bright_floorplan::power7;
use bright_mesh::render::{render_ascii, RenderOptions};
use bright_pdn::presets;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("F8", "Fig. 8 - cache rail voltage map");

    let grid = presets::power7_cache_rail()?;
    println!(
        "grid: {}x{} cells, {} supply ports, {:.2} A cache load\n",
        grid.grid().nx(),
        grid.grid().ny(),
        grid.port_count(),
        grid.total_sink_current().value()
    );

    let sol = grid.solve_direct()?;
    let map = render_ascii(
        sol.voltage_map(),
        &RenderOptions {
            width: 80,
            height: 26,
            scale_min: Some(0.96),
            scale_max: Some(1.0),
            ..RenderOptions::default()
        },
    );
    println!("{map}");

    let plan = power7::floorplan();
    println!("per-block mean rail voltage:");
    for name in ["l3_0", "l3_1", "l2_0", "l2_4", "core0", "io_left"] {
        let rect = *plan.block(name).expect("known block").rect();
        let v = sol
            .mean_voltage_where(|x, y| rect.contains(x, y))
            .expect("block covers cells");
        println!("  {name:<10} {:.4} V", v.value());
    }

    println!();
    println!(
        "{}",
        compare_row("minimum rail voltage", 0.96, sol.min_voltage().value(), "V")
    );
    println!(
        "{}",
        compare_row("maximum rail voltage", 1.0, sol.max_voltage().value(), "V")
    );
    println!(
        "  worst IR drop: {:.1} mV; delivered power {:.2} W",
        sol.worst_drop().value() * 1e3,
        sol.delivered_power().value()
    );
    Ok(())
}
