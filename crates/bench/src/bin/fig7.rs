//! Figure 7: distributed-memory comparison against TESS/DENSE.
//!
//! One large surface-density grid decomposed into per-rank sub-grids
//! (multiple-process-single-thread mode). Stages timed separately, as the
//! paper plots them:
//!
//! * ours: Triangulation (local Delaunay over the rank's inflated
//!   sub-volume) + Interpolation (marching the rank's sub-grid — always
//!   the march, the paper's kernel: at 1–2 ranks the window holds the
//!   whole rank mesh and a plain render would project, so the speedup
//!   column would compare two kernels);
//! * TESS analog: tessellation (Delaunay + Voronoi cell volumes) + DENSE
//!   (zero-order 3D grid render collapsed along z).
//!
//! Paper setting: 1.7 M particles in a 32 Mpc/h sub-volume, 4096² grid,
//! 1–64 MPI ranks; ours ~8× faster overall. Wall clock here is emulated as
//! max-over-ranks busy time (see `dtfe-bench` docs).
//!
//! ```text
//! cargo run --release -p dtfe-bench --bin fig7 [--scale small|medium|paper]
//! ```

use dtfe_bench::{wall_of, Scale, SeriesWriter};
use dtfe_core::density::{DtfeField, Mass};
use dtfe_core::grid::GridSpec2;
use dtfe_core::marching::{surface_density_by, HullIndex, Kernel, MarchOptions};
use dtfe_framework::decomp::Decomposition;
use dtfe_geometry::{Aabb3, Vec2, Vec3};
use dtfe_nbody::datasets::planck_like;
use dtfe_tess::VoronoiDensity;
use std::time::Instant;

struct StageTimes {
    tri: Vec<f64>,
    interp: Vec<f64>,
    tess: Vec<f64>,
    dense: Vec<f64>,
}

fn run_at(particles: &[Vec3], bounds: Aabb3, ng: usize, nranks: usize) -> StageTimes {
    let decomp = Decomposition::new(bounds, nranks);
    let margin = bounds.extent().x / (nranks as f64).cbrt() * 0.25;
    let full = GridSpec2::covering(bounds.lo.xy(), bounds.hi.xy(), ng, ng);
    let mut out = StageTimes {
        tri: vec![],
        interp: vec![],
        tess: vec![],
        dense: vec![],
    };

    for rank in 0..nranks {
        let sub = decomp.rank_box(rank);
        let inflated = sub.inflated(margin);
        let local: Vec<Vec3> = particles
            .iter()
            .copied()
            .filter(|p| inflated.contains_closed(*p))
            .collect();

        // The rank's share of the global 2D grid: the columns whose centre
        // falls in its box footprint AND whose z-range it owns — since the
        // decomposition cuts z too, each rank integrates only its z slab.
        let foot = sub.footprint();
        let (i0, i1) = (
            ((foot.lo.x - full.origin.x) / full.cell.x).round() as usize,
            ((foot.hi.x - full.origin.x) / full.cell.x).round() as usize,
        );
        let (j0, j1) = (
            ((foot.lo.y - full.origin.y) / full.cell.y).round() as usize,
            ((foot.hi.y - full.origin.y) / full.cell.y).round() as usize,
        );
        let nx = (i1 - i0).max(1);
        let nyy = (j1 - j0).max(1);
        let sub_grid = GridSpec2 {
            origin: Vec2::new(
                full.origin.x + i0 as f64 * full.cell.x,
                full.origin.y + j0 as f64 * full.cell.y,
            ),
            cell: full.cell,
            nx,
            ny: nyy,
        };
        let z_range = (sub.lo.z, sub.hi.z);

        // --- ours ---
        let t0 = Instant::now();
        let del = dtfe_delaunay::DelaunayBuilder::new()
            .build(&local)
            .expect("triangulation");
        let field = DtfeField::from_delaunay_for_inputs(del, local.len(), Mass::Uniform(1.0));
        out.tri.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let opts = MarchOptions::new()
            .parallel(false)
            .z_range(z_range.0, z_range.1);
        let index = HullIndex::build(&field);
        let (sigma, _) = surface_density_by(&field, &index, &sub_grid, &opts, Kernel::March);
        out.interp.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(sigma);

        // --- TESS / DENSE analog ---
        let t0 = Instant::now();
        let vd = VoronoiDensity::build(&local, Mass::Uniform(1.0)).expect("tessellation");
        out.tess.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        // DENSE materializes the rank's 3D slab; nz proportional to its z
        // extent so the global work matches a ng³ grid.
        let nz = ((z_range.1 - z_range.0) / (bounds.extent().z / ng as f64)).round() as usize;
        let sigma = vd.surface_density(&sub_grid, z_range, nz.max(1), false);
        out.dense.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(sigma);
    }
    out
}

fn main() {
    let scale = Scale::from_args();
    let n_side = scale.pick(24usize, 48, 96); // cbrt-ish of particle count
    let ng = scale.pick(128usize, 256, 512);
    let box_len = 32.0;
    // planck_like needs a power-of-two side; use halos-free Zel'dovich at
    // the nearest power of two and subsample to n_side³.
    let pow2 = n_side.next_power_of_two();
    let mut particles = planck_like(pow2, box_len, 3);
    let keep = n_side * n_side * n_side;
    if particles.len() > keep {
        let step = particles.len() as f64 / keep as f64;
        particles = (0..keep)
            .map(|i| particles[(i as f64 * step) as usize])
            .collect();
    }
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(box_len));
    println!("# fig7: {} particles, {ng}² global grid", particles.len());

    let ranks: &[usize] = &[1, 2, 4, 8, 16, 32, 64];
    let mut times = SeriesWriter::create(
        "fig7_times",
        "nranks,interpolation_s,triangulation_s,dense_s,tess_s,ours_total_s,tessdense_total_s",
    );
    let mut base: Option<(f64, f64, f64, f64)> = None;
    let mut speed = SeriesWriter::create(
        "fig7_speedup",
        "nranks,interpolation,triangulation,dense,tess",
    );
    for &p in ranks {
        let st = run_at(&particles, bounds, ng, p);
        let (wi, wt, wd, wv) = (
            wall_of(&st.interp),
            wall_of(&st.tri),
            wall_of(&st.dense),
            wall_of(&st.tess),
        );
        times.row(&format!(
            "{p},{wi:.3},{wt:.3},{wd:.3},{wv:.3},{:.3},{:.3}",
            wi + wt,
            wd + wv
        ));
        let b = *base.get_or_insert((wi * 1.0, wt, wd, wv));
        speed.row(&format!(
            "{p},{:.2},{:.2},{:.2},{:.2}",
            b.0 / wi,
            b.1 / wt,
            b.2 / wd,
            b.3 / wv
        ));
        if p == 1 {
            println!(
                "# single-rank total: ours {:.2}s vs TESS/DENSE {:.2}s ({:.1}x; paper ~8x)",
                wi + wt,
                wd + wv,
                (wd + wv) / (wi + wt)
            );
        }
    }
}
