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
use crate::render::RenderOptions;
use dtfe_delaunay::NONE;
use dtfe_geometry::Vec3;
use rayon::prelude::*;

/// Options for the walking renderer: the shared [`RenderOptions`] knobs plus
/// the 3D grid depth specific to this baseline.
///
/// # Example
///
/// ```
/// use dtfe_core::WalkOptions;
///
/// let opts = WalkOptions::new(128).samples(4).z_range(0.0, 8.0);
/// assert_eq!(opts.nz, 128);
/// assert_eq!(opts.render.z_range, Some((0.0, 8.0)));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WalkOptions {
    /// Shared renderer knobs. `samples` counts sample points per **3D** cell:
    /// 1 = cell centre (the paper's comparison setting, "a single point for
    /// computing the density at each grid cell"); more = jittered Monte-Carlo
    /// mean (Eq. 5). `z_range: None` spans the triangulation's vertex
    /// z-extent.
    pub render: RenderOptions,
    /// 3D cells along the line of sight (`N_z`).
    pub nz: usize,
}

// Deref to the embedded `RenderOptions` plus the shared forwarding builder
// setters (samples, z_range, parallel, tile, estimator). `tile`
// is accepted but inert here: the walking baseline parallelizes whole rows.
crate::forward_render_options!(WalkOptions);

impl WalkOptions {
    /// Options for an `nz`-deep walk with the [`RenderOptions`] defaults.
    pub fn new(nz: usize) -> WalkOptions {
        WalkOptions {
            render: RenderOptions::default(),
            nz,
        }
    }

    /// The integration bounds actually used for `field`: the explicit
    /// `z_range` when set, else the triangulation's vertex z-extent.
    pub fn resolve_z_range(&self, field: &DtfeField) -> (f64, f64) {
        match self.render.z_range {
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
}

#[inline]
fn next_rand(seed: &mut u64) -> u64 {
    let mut x = *seed;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *seed = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

#[inline]
fn rand_unit(seed: &mut u64) -> f64 {
    (next_rand(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// Integrate one (i, j) column of the lifted 3D grid by walking cell to
/// cell along z (the baseline's inner loop, exposed for the Fig. 6
/// harness's per-thread timing).
pub fn walk_column(
    field: &DtfeField,
    g3: &GridSpec3,
    i: usize,
    j: usize,
    samples: usize,
    seed: &mut u64,
) -> f64 {
    let dz = g3.cell.z;
    let mut hint = NONE;
    let mut acc = 0.0;
    for k in 0..g3.nz {
        if samples <= 1 {
            let p = g3.center(i, j, k);
            if let Some((rho, t)) = field.density_at_hinted(p, hint, seed) {
                acc += rho * dz;
                hint = t;
            }
        } else {
            let base = Vec3::new(
                g3.origin.x + i as f64 * g3.cell.x,
                g3.origin.y + j as f64 * g3.cell.y,
                g3.origin.z + k as f64 * g3.cell.z,
            );
            let mut cell = 0.0;
            for _ in 0..samples {
                let p = base
                    + Vec3::new(
                        rand_unit(seed) * g3.cell.x,
                        rand_unit(seed) * g3.cell.y,
                        rand_unit(seed) * g3.cell.z,
                    );
                if let Some((rho, t)) = field.density_at_hinted(p, hint, seed) {
                    cell += rho;
                    hint = t;
                }
            }
            acc += cell / samples as f64 * dz;
        }
    }
    acc
}

/// Surface density through the intermediate 3D grid (Eq. 4–5): the quantity
/// the Fig. 6/7 baselines produce, for the same grid footprint the marching
/// kernel renders directly.
pub fn surface_density_walking(field: &DtfeField, grid: &GridSpec2, opts: &WalkOptions) -> Field2 {
    let _span = dtfe_telemetry::span!("core.walk_render", nx = grid.nx, ny = grid.ny);
    dtfe_telemetry::counter_add!("core.columns_walked", (grid.nx * grid.ny) as u64);
    let (z_lo, z_hi) = opts.resolve_z_range(field);
    let g3 = GridSpec3::lift(grid, z_lo, z_hi, opts.nz);
    let mut out = Field2::zeros(*grid);
    let nx = grid.nx;
    let column = |j: usize, row: &mut [f64]| {
        let mut seed = 0xA24BAED4963EE407u64 ^ ((j as u64) << 32);
        for (i, slot) in row.iter_mut().enumerate() {
            *slot = walk_column(field, &g3, i, j, opts.render.samples, &mut seed);
        }
    };
    if opts.render.parallel {
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
                &WalkOptions::new(nz).z_range(-0.5, 5.5).parallel(false),
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
        let opts = WalkOptions::new(32).z_range(0.0, 3.5).parallel(false);
        let direct = surface_density_walking(&field, &grid, &opts);
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
        let mut seed = 1;
        assert_eq!(walk_column(&field, &g3, 0, 0, 1, &mut seed), 0.0);
    }

    #[test]
    fn monte_carlo_samples_stay_close() {
        let pts = jittered_cloud(5, 37);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let grid = GridSpec2::covering(Vec2::new(1.0, 1.0), Vec2::new(3.0, 3.0), 8, 8);
        let one = surface_density_walking(
            &field,
            &grid,
            &WalkOptions::new(64).z_range(0.0, 5.0).parallel(false),
        );
        let mc = surface_density_walking(
            &field,
            &grid,
            &WalkOptions::new(64)
                .samples(4)
                .z_range(0.0, 5.0)
                .parallel(false),
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
