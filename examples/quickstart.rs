//! Quickstart: from particles to a surface density map in a few lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small synthetic cosmological box, estimates the DTFE density
//! field, renders a surface density grid with the marching kernel, and
//! writes `target/experiments/quickstart.pgm`.

use dtfe_repro::core::density::{DtfeField, Mass};
use dtfe_repro::core::grid::GridSpec2;
use dtfe_repro::core::io::{experiments_dir, write_pgm};
use dtfe_repro::core::marching::{surface_density_with_stats, MarchOptions};
use dtfe_repro::geometry::Vec2;
use dtfe_repro::nbody::datasets::planck_like;
use std::time::Instant;

fn main() {
    // 32³ = 32,768 particles of large-scale structure in a 32 Mpc/h box.
    let box_len = 32.0;
    let particles = planck_like(32, box_len, 2026);
    println!("particles: {}", particles.len());

    // Delaunay triangulation + DTFE densities (paper Eq. 2).
    let t0 = Instant::now();
    let field = DtfeField::build(&particles, Mass::Uniform(1.0)).expect("triangulation");
    println!(
        "triangulated {} tets in {:.2}s; integrated mass = {:.1}",
        field.delaunay().num_tets(),
        t0.elapsed().as_secs_f64(),
        field.integrated_mass()
    );

    // Render a 256² surface density map over the whole box footprint with
    // the marching kernel (paper Fig. 3).
    let grid = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(box_len, box_len), 256, 256);
    let t0 = Instant::now();
    let (sigma, stats) = surface_density_with_stats(&field, &grid, &MarchOptions::default());
    println!(
        "marched {} rays in {:.2}s ({} tetrahedron crossings)",
        grid.num_cells(),
        t0.elapsed().as_secs_f64(),
        stats.crossings
    );
    let (lo, hi) = sigma.min_max();
    println!(
        "surface density range: [{lo:.3}, {hi:.3}], grid mass = {:.1}",
        sigma.total_mass()
    );

    let out = experiments_dir().join("quickstart.pgm");
    write_pgm(&sigma, &out, true).expect("write pgm");
    println!("wrote {}", out.display());
}
