//! The reference kernel (the equivalence oracle).

use super::{
    line_of_sight, perturb_or_fail, HullIndex, MarchOptions, MarchStats, EPSILON, MAX_PERTURB,
};
use crate::estimator::{FieldEstimator, FieldView};
use crate::grid::{Field2, GridSpec2};
use dtfe_delaunay::{Delaunay, Located, TetId, NONE};
use dtfe_geometry::plucker::{ray_tetra, Plucker, Ray};
use dtfe_geometry::predicates::orient3d;
use dtfe_geometry::{Vec2, Vec3};
use rayon::prelude::*;

/// The pre-coherence marching kernel: per-cell binned hull queries (each
/// tallied as an entry-hint miss), per-step [`ray_tetra`] with no
/// cross-face reuse (6 edge evaluations per test), row-parallel
/// scheduling, and — under a window — the window entry of the module docs
/// found from scratch for every line (`reference_window_entry`). The
/// rendered field and the crossings/perturbations/failures counters are
/// bit-identical to
/// [`surface_density_with_index`](super::surface_density_with_index) on
/// the same field and grid. That is asserted in tier-1
/// (`tests/window_entry.rs`, `tests/estimators.rs`), by this crate's unit
/// and property tests, and on every `perf --workload kernel_march` run,
/// which verifies its renders against this path and reports the coherent
/// kernel's cost beside it (`core.march_dense_ms`,
/// `core.edge_evals_per_los`, `core.entry_hint_hit_ratio`).
pub fn surface_density_reference<E: FieldEstimator + ?Sized>(
    field: &E,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> (Field2, MarchStats) {
    reference_render(field.view(), index, grid, opts, true)
}

/// [`surface_density_reference`] with every line entering through the hull
/// projection, windowed or not. Test support, kept on purpose: it is the
/// one oracle that does not depend on the window-entry definition, so it
/// pins window-entered == hull-entered output as a differential on fixed
/// fixtures (equal bits there; not a theorem — a floor within an ulp of a
/// face crossing, or a degeneracy below the window, may differ).
#[doc(hidden)]
pub fn surface_density_reference_hull_entry<E: FieldEstimator + ?Sized>(
    field: &E,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> (Field2, MarchStats) {
    reference_render(field.view(), index, grid, opts, false)
}

/// The window entry of the line through `xi` for floor `z_lo`, by the
/// definition alone: locate `(ξ, z_lo)` from scratch with the
/// triangulation's own stochastic walk, then demand four strictly positive
/// face signs. Shares no code with the kernel's hinted walk.
fn reference_window_entry(del: &Delaunay, xi: Vec2, z_lo: f64) -> Option<TetId> {
    let p = Vec3::new(xi.x, xi.y, z_lo);
    let Located::Finite(t) = del.locate_seeded(p, NONE, &mut 0x9E37_79B9_7F4A_7C15) else {
        return None; // outside the hull, or exactly on a vertex
    };
    (0..4)
        .all(|i| {
            let [a, b, c] = del.tet(t).face(i);
            orient3d(del.vertex(a), del.vertex(b), del.vertex(c), p).is_positive()
        })
        .then_some(t)
}

/// `seek_window_entry`: enter at the window entry where the definition gives
/// one. Its floor test is evaluated once per render, as the kernel does, but
/// from the vertices themselves rather than the kernel's cached `z_min`.
fn reference_render(
    field: FieldView<'_>,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
    seek_window_entry: bool,
) -> (Field2, MarchStats) {
    let z_min = (field.del.vertices().iter()).fold(f64::INFINITY, |m, v| m.min(v.z));
    let floor = opts.z_range.map(|(lo, _)| lo);
    let window_floor = floor.filter(|&lo| seek_window_entry && lo > z_min);
    let eps = EPSILON * grid.cell.norm();
    let row = |j: usize, out: &mut [f64], stats: &mut MarchStats| {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = reference_cell_value(field, index, grid, i, j, eps, opts, window_floor, stats);
        }
    };
    let mut out = Field2::zeros(*grid);
    let mut stats = MarchStats::default();
    if opts.parallel {
        let collected: Vec<MarchStats> = out
            .data
            .par_chunks_mut(grid.nx)
            .enumerate()
            .map(|(j, chunk)| {
                let mut s = MarchStats::default();
                row(j, chunk, &mut s);
                s
            })
            .collect();
        for s in &collected {
            stats.merge(s);
        }
    } else {
        for (j, chunk) in out.data.chunks_mut(grid.nx).enumerate() {
            row(j, chunk, &mut stats);
        }
    }
    (out, stats)
}

#[allow(clippy::too_many_arguments)]
fn reference_cell_value(
    field: FieldView<'_>,
    index: &HullIndex,
    grid: &GridSpec2,
    i: usize,
    j: usize,
    eps: f64,
    opts: &MarchOptions,
    window_floor: Option<f64>,
    stats: &mut MarchStats,
) -> f64 {
    let n = opts.samples.max(1);
    let mut acc = 0.0;
    for sample in 0..n {
        let (line, xi) = line_of_sight(grid, i, j, sample, opts.samples);
        acc += reference_march_one(field, index, xi, eps, opts, window_floor, line, stats);
    }
    acc / n as f64
}

#[allow(clippy::too_many_arguments)]
fn reference_march_one(
    field: FieldView<'_>,
    index: &HullIndex,
    xi: Vec2,
    eps: f64,
    opts: &MarchOptions,
    window_floor: Option<f64>,
    line: u64,
    stats: &mut MarchStats,
) -> f64 {
    let crossings_before = stats.crossings;
    let v = reference_march_cell_inner(
        field,
        index,
        xi,
        opts.z_range,
        window_floor,
        eps,
        MAX_PERTURB,
        line,
        stats,
    );
    dtfe_telemetry::hist_record!("core.tets_per_los", stats.crossings - crossings_before);
    v
}

#[allow(clippy::too_many_arguments)]
fn reference_march_cell_inner(
    field: FieldView<'_>,
    index: &HullIndex,
    xi: Vec2,
    z_range: Option<(f64, f64)>,
    window_floor: Option<f64>,
    eps: f64,
    max_perturb: usize,
    line: u64,
    stats: &mut MarchStats,
) -> f64 {
    let del = field.del;
    let mut xi_cur = xi;
    let mut attempts = 0usize;
    let max_steps = del.num_tets() + del.num_ghosts() + 16;
    'restart: loop {
        let mut t = match window_floor.and_then(|z_lo| reference_window_entry(del, xi_cur, z_lo)) {
            Some(t0) => t0,
            None => {
                stats.entry_hint_misses += 1;
                match index.query(xi_cur) {
                    Some(ghost) => del.tet(ghost).neighbors[3],
                    None => return 0.0,
                }
            }
        };
        let ray = Ray::vertical(xi_cur.x, xi_cur.y);
        let pl = Plucker::from_ray(&ray);
        let mut total = 0.0;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > max_steps {
                match perturb_or_fail(del, t, xi_cur, eps, max_perturb, line, &mut attempts, stats)
                {
                    Some(x) => {
                        xi_cur = x;
                        continue 'restart;
                    }
                    None => return total,
                }
            }
            let verts = del.tet_points(t);
            let hit = ray_tetra(&pl, &verts);
            stats.edge_evals += 6;
            if hit.degenerate || !hit.is_through() {
                match perturb_or_fail(del, t, xi_cur, eps, max_perturb, line, &mut attempts, stats)
                {
                    Some(x) => {
                        xi_cur = x;
                        continue 'restart;
                    }
                    None => return total,
                }
            }
            let (_, p_in) = hit.enter.unwrap();
            let (exit_face, p_out) = hit.exit.unwrap();
            stats.crossings += 1;

            let (mut a, mut b) = (p_in.z, p_out.z);
            if b < a {
                (a, b) = (b, a);
            }
            if let Some((zlo, zhi)) = z_range {
                a = a.max(zlo);
                b = b.min(zhi);
            }
            if b > a {
                let mid = Vec3::new(xi_cur.x, xi_cur.y, 0.5 * (a + b));
                let rho_mid = field.values.eval(t, verts[0], mid);
                total += rho_mid * (b - a);
            }
            if let Some((_, zhi)) = z_range {
                if p_out.z >= zhi {
                    return total;
                }
            }

            let next = del.tet(t).neighbors[exit_face];
            if del.tet(next).is_ghost() {
                return total;
            }
            t = next;
        }
    }
}
