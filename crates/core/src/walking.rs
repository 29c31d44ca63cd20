//! The walking 3D-grid baseline (paper §III-C).
//!
//! This reproduces the strategy of the DTFE public software the paper
//! compares against in Fig. 6: render the density on a full `N³` grid by
//! *walking* point location between adjacent grid cells (Eq. 6 — here the
//! remembering stochastic walk of `dtfe-delaunay`), then collapse the 3D
//! grid along the line of sight (Eq. 4), optionally Monte-Carlo averaging
//! several sample points per 3D cell (Eq. 5).
//!
//! Cost is `O(N_cell)` point locations — the `O(N_g³)` term the marching
//! kernel eliminates.

use crate::density::DtfeField;
use crate::grid::{Field2, Field3, GridSpec2, GridSpec3};
use crate::marching::{line_key, Draws};
use crate::render::MarchOptions;
use dtfe_delaunay::NONE;
use dtfe_geometry::Vec3;
use rayon::prelude::*;

/// The integration bounds of a walk over `field`: the explicit `z_range`
/// when set, else the triangulation's vertex z-extent.
fn resolve_z_range(opts: &MarchOptions, field: &DtfeField) -> (f64, f64) {
    match opts.z_range {
        Some(r) => r,
        None => {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for p in field.delaunay().vertices() {
                lo = lo.min(p.z);
                hi = hi.max(p.z);
            }
            (lo, hi)
        }
    }
}

/// Integrate one (i, j) column of the lifted 3D grid by walking cell to
/// cell along z (the baseline's inner loop, exposed for the Fig. 6
/// harness's per-thread timing). Each sample point's jitter and the seed of
/// the walk that locates it are drawn from the key of its column, level and
/// sample, so a column is the same alone or inside a render. It reads the
/// field's interpolants ([`DtfeField::rows`]), and the first column of a
/// field writes them.
pub fn walk_column(field: &DtfeField, g3: &GridSpec3, i: usize, j: usize, samples: usize) -> f64 {
    let n = samples.max(1);
    let dz = g3.cell.z;
    let mut hint = NONE;
    let mut acc = 0.0;
    for k in 0..g3.nz {
        let base = Vec3::new(
            g3.origin.x + i as f64 * g3.cell.x,
            g3.origin.y + j as f64 * g3.cell.y,
            g3.origin.z + k as f64 * g3.cell.z,
        );
        let mut cell = 0.0;
        for sample in 0..n {
            let mut d = Draws::new(line_key(i, j, sample), k as u64);
            let p = if samples <= 1 {
                g3.center(i, j, k)
            } else {
                base + Vec3::new(
                    d.unit() * g3.cell.x,
                    d.unit() * g3.cell.y,
                    d.unit() * g3.cell.z,
                )
            };
            if let Some((rho, t)) = field.density_at_hinted(p, hint, &mut (d.next() | 1)) {
                cell += rho;
                hint = t;
            }
        }
        acc += cell / n as f64 * dz;
    }
    acc
}

/// Surface density through the intermediate 3D grid (Eq. 4–5): the quantity
/// the Fig. 6/7 baselines produce, for the same grid footprint the marching
/// kernel renders directly, lifted to `nz` cells along the line of sight
/// (`N_z`). `opts.samples` counts sample points per **3D** cell: 1 is the
/// cell centre (the paper's comparison setting, "a single point for
/// computing the density at each grid cell"); more is the jittered
/// Monte-Carlo mean (Eq. 5). A parallel walk renders whole rows.
pub fn surface_density_walking(
    field: &DtfeField,
    grid: &GridSpec2,
    opts: &MarchOptions,
    nz: usize,
) -> Field2 {
    let _span = dtfe_telemetry::span!("core.walk_render", nx = grid.nx, ny = grid.ny);
    dtfe_telemetry::counter_add!("core.columns_walked", (grid.nx * grid.ny) as u64);
    // Written here, before the workers start, as the march writes them.
    field.rows();
    let (z_lo, z_hi) = resolve_z_range(opts, field);
    let g3 = GridSpec3::lift(grid, z_lo, z_hi, nz);
    let mut out = Field2::zeros(*grid);
    let nx = grid.nx;
    let column = |j: usize, row: &mut [f64]| {
        for (i, slot) in row.iter_mut().enumerate() {
            *slot = walk_column(field, &g3, i, j, opts.samples);
        }
    };
    if opts.parallel {
        out.data
            .par_chunks_mut(nx)
            .enumerate()
            .for_each(|(j, row)| column(j, row));
    } else {
        out.data
            .chunks_mut(nx)
            .enumerate()
            .for_each(|(j, row)| column(j, row));
    }
    out
}

/// Render the volumetric density on a 3D grid by walking (what the DTFE
/// public software and TESS/DENSE actually materialize; used by comparison
/// tests and the TESS analog).
pub fn render_density_3d(field: &DtfeField, g3: &GridSpec3, parallel: bool) -> Field3 {
    let _span = dtfe_telemetry::span!("core.render_3d", nx = g3.nx, ny = g3.ny, nz = g3.nz);
    field.rows();
    let mut out = Field3::zeros(*g3);
    let (nx, ny) = (g3.nx, g3.ny);
    let plane = |k: usize, data: &mut [f64]| {
        let mut seed = 0xC3F86D9BADB5B2ADu64 ^ ((k as u64) << 24);
        let mut hint = NONE;
        for j in 0..ny {
            for (i, slot) in data[j * nx..(j + 1) * nx].iter_mut().enumerate() {
                let p = g3.center(i, j, k);
                match field.density_at_hinted(p, hint, &mut seed) {
                    Some((rho, t)) => {
                        *slot = rho;
                        hint = t;
                    }
                    None => *slot = 0.0,
                }
            }
        }
    };
    if parallel {
        out.data
            .par_chunks_mut(nx * ny)
            .enumerate()
            .for_each(|(k, d)| plane(k, d));
    } else {
        out.data
            .chunks_mut(nx * ny)
            .enumerate()
            .for_each(|(k, d)| plane(k, d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::Mass;
    use crate::grid::GridSpec2;
    use crate::marching::{surface_density, MarchOptions};
    use dtfe_geometry::Vec2;

    fn jittered_cloud(n_side: usize, seed: u64) -> Vec<Vec3> {
        let mut s = seed;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    pts.push(Vec3::new(
                        i as f64 + 0.6 * r(),
                        j as f64 + 0.6 * r(),
                        k as f64 + 0.6 * r(),
                    ));
                }
            }
        }
        pts
    }

    #[test]
    fn walking_converges_to_marching() {
        // As N_z grows, the 3D-grid Riemann sum approaches the marching
        // kernel's exact per-tetrahedron integral.
        let pts = jittered_cloud(5, 77);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let grid = GridSpec2::covering(Vec2::new(1.0, 1.0), Vec2::new(3.0, 3.0), 12, 12);
        let marched = surface_density(&field, &grid, &MarchOptions::new().parallel(false));
        let mut err_prev = f64::INFINITY;
        for nz in [64, 512] {
            let walked = surface_density_walking(
                &field,
                &grid,
                &MarchOptions::new().z_range(-0.5, 5.5).parallel(false),
                nz,
            );
            let err: f64 = marched
                .data
                .iter()
                .zip(&walked.data)
                .map(|(&a, &b)| (a - b).abs())
                .sum::<f64>()
                / marched.data.iter().sum::<f64>();
            assert!(
                err < err_prev,
                "error should shrink with nz: {err} !< {err_prev}"
            );
            err_prev = err;
        }
        assert!(err_prev < 0.02, "relative L1 error {err_prev}");
    }

    #[test]
    fn render_3d_uniform_region() {
        let pts = jittered_cloud(6, 13);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let g3 = GridSpec3::covering(Vec3::splat(1.5), Vec3::splat(4.0), 8, 8, 8);
        let f3 = render_density_3d(&field, &g3, false);
        // Interior of a jittered unit-density cloud: all cells positive,
        // mean within a factor ~2 of 1.
        let mean = f3.data.iter().sum::<f64>() / f3.data.len() as f64;
        assert!(f3.data.iter().all(|&v| v > 0.0));
        assert!(mean > 0.4 && mean < 2.5, "mean = {mean}");
    }

    #[test]
    fn projection_matches_direct_walk() {
        let pts = jittered_cloud(4, 19);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let grid = GridSpec2::covering(Vec2::new(0.5, 0.5), Vec2::new(3.0, 3.0), 6, 6);
        let opts = MarchOptions::new().z_range(0.0, 3.5).parallel(false);
        let direct = surface_density_walking(&field, &grid, &opts, 32);
        let g3 = GridSpec3::lift(&grid, 0.0, 3.5, 32);
        let projected = render_density_3d(&field, &g3, false).project_z();
        // Same cell centres, same interpolant; only walk paths (and thus
        // outside-hull fallbacks) can differ — values must agree closely.
        for (a, b) in direct.data.iter().zip(&projected.data) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn columns_outside_hull_are_zero() {
        let pts = jittered_cloud(3, 29);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let g3 = GridSpec3::covering(
            Vec3::new(50.0, 50.0, 0.0),
            Vec3::new(51.0, 51.0, 1.0),
            2,
            2,
            4,
        );
        assert_eq!(walk_column(&field, &g3, 0, 0, 1), 0.0);
    }

    #[test]
    fn monte_carlo_samples_stay_close() {
        let pts = jittered_cloud(5, 37);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let grid = GridSpec2::covering(Vec2::new(1.0, 1.0), Vec2::new(3.0, 3.0), 8, 8);
        let one = surface_density_walking(
            &field,
            &grid,
            &MarchOptions::new().z_range(0.0, 5.0).parallel(false),
            64,
        );
        let mc = surface_density_walking(
            &field,
            &grid,
            &MarchOptions::new()
                .samples(4)
                .z_range(0.0, 5.0)
                .parallel(false),
            64,
        );
        let rel: f64 = one
            .data
            .iter()
            .zip(&mc.data)
            .map(|(&a, &b)| (a - b).abs() / (1.0 + a.abs()))
            .sum::<f64>()
            / one.data.len() as f64;
        assert!(rel < 0.5, "MC mean wildly off: {rel}");
    }
}
