//! Figure 1: "a typical surface density field computed during a strong
//! lensing study" — the largest structural object of a snapshot, rendered
//! with the DTFE marching kernel.
//!
//! Paper: 2048² grid, ~1.5 M particles in a (4 Mpc/h)³ sub-volume. This
//! harness renders a synthetic cluster with substructure at a scale chosen
//! by `--scale` and writes the log-Σ map.
//!
//! ```text
//! cargo run --release -p dtfe-bench --bin fig1 [--scale small|medium|paper]
//! ```

use dtfe_bench::{Scale, SeriesWriter};
use dtfe_core::density::{DtfeField, Mass};
use dtfe_core::grid::GridSpec2;
use dtfe_core::io::{experiments_dir, write_pgm};
use dtfe_core::marching::{surface_density, MarchOptions};
use dtfe_nbody::datasets::cluster_with_substructure;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    let n_particles = scale.pick(100_000usize, 400_000, 1_500_000);
    let ng = scale.pick(256usize, 512, 2048);
    let (particles, bounds) = cluster_with_substructure(n_particles, 7);
    println!("# fig1: {} particles in (4)³, {ng}² grid", particles.len());

    let t0 = Instant::now();
    let field = DtfeField::build(&particles, Mass::Uniform(1.0)).expect("triangulation");
    let t_tri = t0.elapsed().as_secs_f64();
    let grid = GridSpec2::square(bounds.center().xy(), 4.0, ng);
    let t0 = Instant::now();
    let sigma = surface_density(&field, &grid, &MarchOptions::default());
    let t_render = t0.elapsed().as_secs_f64();

    let out = experiments_dir().join("fig1_cluster.pgm");
    write_pgm(&sigma, &out, true).expect("write pgm");

    let (_, hi) = sigma.min_max();
    // Minimum over covered cells (cells outside the hull footprint are 0).
    let lo = sigma
        .data
        .iter()
        .copied()
        .filter(|&v| v > 0.0)
        .fold(f64::INFINITY, f64::min);
    let mut w = SeriesWriter::create("fig1_summary", "metric,value");
    w.row(&format!("particles,{}", particles.len()));
    w.row(&format!("grid,{ng}"));
    w.row(&format!("triangulate_s,{t_tri:.2}"));
    w.row(&format!("render_s,{t_render:.2}"));
    w.row(&format!("sigma_min_covered,{lo:.4e}"));
    w.row(&format!("sigma_max,{hi:.4e}"));
    w.row(&format!("dynamic_range_dex,{:.2}", (hi / lo).log10()));
    println!("# map: {}", out.display());
}
