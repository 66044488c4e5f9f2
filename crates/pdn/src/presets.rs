//! The POWER7+ cache-rail configuration of Fig. 8.

use crate::grid::PowerGrid;
use crate::ports::PortLayout;
use crate::PdnError;
use bright_floorplan::{power7, PowerScenario};
use bright_mesh::Grid2d;
use bright_units::Volt;

/// Effective sheet resistance of the cache rail (Ω/sq). Calibrated so
/// the Fig. 8 droop range (≈0.96–1.0 V) is reproduced with the paper's
/// cache load; representative of a mid-level metal grid dedicated to a
/// single rail.
pub const CACHE_RAIL_SHEET_RESISTANCE: f64 = 0.25;

/// Series resistance of each TSV + VRM output port (Ω).
pub const PORT_RESISTANCE: f64 = 0.03;

/// TSV/VRM port pitch of the microfluidic supply (m): one regulator per
/// ~5 mm tile (Fig. 5's interposer VRM granularity).
pub const PORT_PITCH: f64 = 5e-3;

/// Grid resolution across the die for Fig. 8 (250 µm cells).
pub const FIG8_NX: usize = 106;

/// Grid rows for Fig. 8.
pub const FIG8_NY: usize = 85;

/// Builds the Fig. 8 experiment: the POWER7+ cache blocks drawing their
/// 1 W/cm² from the microfluidic supply at 1.0 V through a uniform TSV
/// port array; the rest of the chip is externally powered and draws
/// nothing from this rail.
///
/// # Errors
///
/// Propagates construction errors (cannot occur for the encoded
/// constants).
pub fn power7_cache_rail() -> Result<PowerGrid, PdnError> {
    let plan = power7::floorplan();
    let grid = Grid2d::from_extent(
        plan.width().value(),
        plan.height().value(),
        FIG8_NX,
        FIG8_NY,
    )
    .map_err(|e| PdnError::InvalidConfig(e.to_string()))?;
    let load = PowerScenario::cache_only()
        .rasterize(&plan, &grid)
        .map_err(|e| PdnError::InvalidConfig(e.to_string()))?;
    PowerGrid::new(
        grid,
        CACHE_RAIL_SHEET_RESISTANCE,
        Volt::new(1.0),
        PORT_RESISTANCE,
        &PortLayout::UniformArray { pitch: PORT_PITCH },
        &load,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_droop_range() {
        let sol = power7_cache_rail().unwrap().solve().unwrap();
        let min = sol.min_voltage().value();
        let max = sol.max_voltage().value();
        // Fig. 8 scale: 0.96 .. 1.0 V.
        assert!(min > 0.93 && min < 0.995, "min = {min}");
        assert!(max <= 1.0 + 1e-9 && max > 0.99, "max = {max}");
    }

    #[test]
    fn cache_current_matches_floorplan() {
        let pg = power7_cache_rail().unwrap();
        let i = pg.total_sink_current().value();
        // 1 W/cm^2 over ~2.39 cm^2 of caches at 1 V.
        assert!(i > 2.0 && i < 2.8, "I = {i} A");
    }

    #[test]
    fn cache_blocks_sag_more_than_cores() {
        let sol = power7_cache_rail().unwrap().solve().unwrap();
        let plan = bright_floorplan::power7::floorplan();
        let l3 = plan.block("l3_0").unwrap().rect();
        let core = plan.block("core0").unwrap().rect();
        let v_l3 = sol
            .mean_voltage_where(|x, y| l3.contains(x, y))
            .unwrap()
            .value();
        let v_core = sol
            .mean_voltage_where(|x, y| core.contains(x, y))
            .unwrap()
            .value();
        assert!(v_l3 < v_core, "L3 {v_l3} vs core {v_core}");
    }
}
