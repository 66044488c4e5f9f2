//! Power scenarios and their rasterization onto grids.

use crate::{BlockKind, Floorplan, FloorplanError};
use bright_mesh::{Field2d, Grid2d};
use bright_units::{Watt, WattPerSquareMeter};
use std::collections::HashMap;

/// A power assignment: areal density per block kind, with optional
/// per-block overrides by name.
///
/// Densities are stored in W/m²; constructors take the W/cm² figures the
/// paper quotes.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerScenario {
    by_kind: HashMap<String, f64>,
    by_name: HashMap<String, f64>,
}

fn kind_key(kind: BlockKind) -> &'static str {
    match kind {
        BlockKind::Core => "core",
        BlockKind::L2Cache => "l2",
        BlockKind::L3Cache => "l3",
        BlockKind::Logic => "logic",
        BlockKind::Io => "io",
    }
}

impl PowerScenario {
    /// Creates an empty scenario (all densities must be set before use).
    pub fn new() -> Self {
        Self {
            by_kind: HashMap::new(),
            by_name: HashMap::new(),
        }
    }

    /// Full-load POWER7+ scenario (Fig. 9): cores at the paper's 26.7
    /// W/cm² peak density, caches at 1 W/cm², uncore logic at 10 W/cm²,
    /// I/O at 5 W/cm².
    pub fn full_load() -> Self {
        let mut s = Self::new();
        s.set_kind_density(BlockKind::Core, WattPerSquareMeter::from_watts_per_square_centimeter(26.7));
        s.set_kind_density(BlockKind::L2Cache, WattPerSquareMeter::from_watts_per_square_centimeter(1.0));
        s.set_kind_density(BlockKind::L3Cache, WattPerSquareMeter::from_watts_per_square_centimeter(1.0));
        s.set_kind_density(BlockKind::Logic, WattPerSquareMeter::from_watts_per_square_centimeter(10.0));
        s.set_kind_density(BlockKind::Io, WattPerSquareMeter::from_watts_per_square_centimeter(5.0));
        s
    }

    /// Cache-only scenario (Fig. 8): L2/L3 draw their 1 W/cm², everything
    /// else zero — this is the load the microfluidic supply must deliver.
    pub fn cache_only() -> Self {
        let mut s = Self::new();
        s.set_kind_density(BlockKind::Core, WattPerSquareMeter::new(0.0));
        s.set_kind_density(BlockKind::L2Cache, WattPerSquareMeter::from_watts_per_square_centimeter(1.0));
        s.set_kind_density(BlockKind::L3Cache, WattPerSquareMeter::from_watts_per_square_centimeter(1.0));
        s.set_kind_density(BlockKind::Logic, WattPerSquareMeter::new(0.0));
        s.set_kind_density(BlockKind::Io, WattPerSquareMeter::new(0.0));
        s
    }

    /// Sets the density for every block of a kind.
    pub fn set_kind_density(&mut self, kind: BlockKind, density: WattPerSquareMeter) -> &mut Self {
        self.by_kind.insert(kind_key(kind).to_string(), density.value());
        self
    }

    /// Overrides the density of one named block (e.g. an idle core in a
    /// dark-silicon scenario).
    pub fn set_block_density(
        &mut self,
        name: impl Into<String>,
        density: WattPerSquareMeter,
    ) -> &mut Self {
        self.by_name.insert(name.into(), density.value());
        self
    }

    /// Returns a copy with every density (kind and per-name) multiplied
    /// by `factor` — the Monte Carlo engine's power-scaling knob for
    /// workload/process variation studies.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        let scale = |m: &HashMap<String, f64>| {
            m.iter().map(|(k, d)| (k.clone(), d * factor)).collect()
        };
        Self {
            by_kind: scale(&self.by_kind),
            by_name: scale(&self.by_name),
        }
    }

    /// Density applied to a specific block.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::MissingDensity`] if neither a per-name
    /// override nor a kind density exists.
    pub fn density_for(
        &self,
        name: &str,
        kind: BlockKind,
    ) -> Result<WattPerSquareMeter, FloorplanError> {
        if let Some(d) = self.by_name.get(name) {
            return Ok(WattPerSquareMeter::new(*d));
        }
        self.by_kind
            .get(kind_key(kind))
            .map(|d| WattPerSquareMeter::new(*d))
            .ok_or(FloorplanError::MissingDensity { kind })
    }

    /// Total power of the scenario over a floorplan.
    ///
    /// # Errors
    ///
    /// As [`PowerScenario::density_for`].
    pub fn total_power(&self, plan: &Floorplan) -> Result<Watt, FloorplanError> {
        let mut acc = 0.0;
        for b in plan.blocks() {
            acc += self.density_for(b.name(), b.kind())?.value() * b.area().value();
        }
        Ok(Watt::new(acc))
    }

    /// Power of all blocks of one kind.
    ///
    /// # Errors
    ///
    /// As [`PowerScenario::density_for`].
    pub fn power_of_kind(&self, plan: &Floorplan, kind: BlockKind) -> Result<Watt, FloorplanError> {
        let mut acc = 0.0;
        for b in plan.blocks().iter().filter(|b| b.kind() == kind) {
            acc += self.density_for(b.name(), b.kind())?.value() * b.area().value();
        }
        Ok(Watt::new(acc))
    }

    /// Rasterizes the scenario onto a grid covering the die: each cell
    /// gets the density of the block at its center (W/m²). Cells outside
    /// any block (possible only for degenerate plans) get zero. A
    /// block's density is looked up on the first cell that lands on it
    /// and reused for the rest.
    ///
    /// # Errors
    ///
    /// As [`PowerScenario::density_for`], for a block some cell center
    /// lands on.
    pub fn rasterize(&self, plan: &Floorplan, grid: &Grid2d) -> Result<Field2d, FloorplanError> {
        let blocks = plan.blocks();
        let mut densities: Vec<Option<f64>> = vec![None; blocks.len()];
        let mut data = Vec::with_capacity(grid.len());
        for (ix, iy) in grid.iter_cells() {
            let (x, y) = grid
                .cell_center(ix, iy)
                .expect("iter_cells yields valid indices");
            // The first block containing the center, as `block_at` picks.
            let d = match blocks.iter().position(|b| b.rect().contains(x, y)) {
                Some(k) => match densities[k] {
                    Some(d) => d,
                    None => {
                        let b = &blocks[k];
                        *densities[k].insert(self.density_for(b.name(), b.kind())?.value())
                    }
                },
                None => 0.0,
            };
            data.push(d);
        }
        Ok(Field2d::from_vec(grid.clone(), data).expect("sized from grid"))
    }
}

impl Default for PowerScenario {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{power7, Block, Rect};

    #[test]
    fn full_load_has_cores_dominating() {
        let plan = power7::floorplan();
        let s = PowerScenario::full_load();
        let core = s.power_of_kind(&plan, BlockKind::Core).unwrap().value();
        let total = s.total_power(&plan).unwrap().value();
        assert!(core / total > 0.7, "cores {core} of {total}");
    }

    #[test]
    fn cache_only_matches_cache_area_times_density() {
        let plan = power7::floorplan();
        let s = PowerScenario::cache_only();
        let p = s.total_power(&plan).unwrap().value();
        let expected = plan.cache_area().to_square_centimeters() * 1.0;
        assert!((p - expected).abs() < 1e-9, "{p} vs {expected}");
    }

    #[test]
    fn per_block_override_wins() {
        let plan = power7::floorplan();
        let mut s = PowerScenario::full_load();
        let dark_core = plan
            .blocks()
            .iter()
            .find(|b| b.kind() == BlockKind::Core)
            .unwrap()
            .name()
            .to_string();
        let before = s.total_power(&plan).unwrap().value();
        s.set_block_density(dark_core.clone(), WattPerSquareMeter::new(0.0));
        let after = s.total_power(&plan).unwrap().value();
        assert!(after < before);
        let d = s.density_for(&dark_core, BlockKind::Core).unwrap();
        assert_eq!(d.value(), 0.0);
    }

    #[test]
    fn missing_density_is_an_error() {
        let plan = power7::floorplan();
        let s = PowerScenario::new();
        assert!(matches!(
            s.total_power(&plan),
            Err(FloorplanError::MissingDensity { .. })
        ));
    }

    /// The per-cell lookup `rasterize` replaced: one density lookup for
    /// every cell.
    fn rasterize_per_cell(
        s: &PowerScenario,
        plan: &Floorplan,
        grid: &Grid2d,
    ) -> Result<Vec<f64>, FloorplanError> {
        grid.iter_cells()
            .map(|(ix, iy)| {
                let (x, y) = grid.cell_center(ix, iy).unwrap();
                match plan.block_at(x, y) {
                    Some(b) => Ok(s.density_for(b.name(), b.kind())?.value()),
                    None => Ok(0.0),
                }
            })
            .collect()
    }

    #[test]
    fn rasterize_matches_per_cell_lookup() {
        let plan = power7::floorplan();
        let mut dark = PowerScenario::full_load();
        let core = plan.blocks().iter().find(|b| b.kind() == BlockKind::Core).unwrap();
        dark.set_block_density(core.name(), WattPerSquareMeter::new(0.0));
        let scenarios = [
            PowerScenario::full_load(),
            PowerScenario::cache_only(),
            PowerScenario::cache_only().scaled(1.07),
            dark,
        ];
        for (nx, ny) in [(106, 85), (11, 8), (3, 2)] {
            let grid =
                Grid2d::from_extent(plan.width().value(), plan.height().value(), nx, ny).unwrap();
            for s in &scenarios {
                let got = s.rasterize(&plan, &grid).unwrap();
                let want = rasterize_per_cell(s, &plan, &grid).unwrap();
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.as_slice()), bits(&want), "{nx}x{ny}");
            }
        }

        // A missing density fails only when some cell lands on its
        // block: a 10 µm I/O strip no 1 mm cell center falls in needs
        // no density, the logic block every other cell lands on does.
        let io = Rect::new(0.0, 0.0, 1e-5, 0.01).unwrap();
        let logic = Rect::new(1e-5, 0.0, 0.01 - 1e-5, 0.01).unwrap();
        let strip = Floorplan::new(
            bright_units::Meters::new(0.01),
            bright_units::Meters::new(0.01),
            vec![
                Block::new("io", BlockKind::Io, io),
                Block::new("logic", BlockKind::Logic, logic),
            ],
        )
        .unwrap();
        let grid = Grid2d::from_extent(0.01, 0.01, 10, 10).unwrap();
        let mut logic_only = PowerScenario::new();
        logic_only.set_kind_density(BlockKind::Logic, WattPerSquareMeter::new(5.0));
        let got = logic_only.rasterize(&strip, &grid).unwrap();
        assert_eq!(got.as_slice(), rasterize_per_cell(&logic_only, &strip, &grid).unwrap());
        assert!(logic_only.total_power(&strip).is_err());
        let mut io_only = PowerScenario::new();
        io_only.set_kind_density(BlockKind::Io, WattPerSquareMeter::new(5.0));
        let err = io_only.rasterize(&strip, &grid).unwrap_err();
        assert_eq!(err, rasterize_per_cell(&io_only, &strip, &grid).unwrap_err());
        assert!(matches!(err, FloorplanError::MissingDensity { kind: BlockKind::Logic }));
    }

    #[test]
    fn rasterization_conserves_power_at_fine_resolution() {
        let plan = power7::floorplan();
        let s = PowerScenario::full_load();
        let grid = Grid2d::from_extent(
            plan.width().value(),
            plan.height().value(),
            531, // 50 um cells
            427,
        )
        .unwrap();
        let field = s.rasterize(&plan, &grid).unwrap();
        let raster_power = field.integral();
        let exact = s.total_power(&plan).unwrap().value();
        assert!(
            ((raster_power - exact) / exact).abs() < 0.02,
            "raster {raster_power} vs exact {exact}"
        );
    }
}
