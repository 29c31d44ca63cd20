//! The reference kernel (the equivalence oracle).

use super::{faces_up, line_of_sight, mesh_side_bound, HullIndex, MarchOptions, MarchStats, Start};
use crate::estimator::{FieldEstimator, FieldView, SlotRows};
use crate::grid::{Field2, GridSpec2};
use dtfe_delaunay::{Delaunay, Located, NONE};
use dtfe_geometry::plucker::ray_tetra;
use dtfe_geometry::predicates::orient3d;
use dtfe_geometry::{Vec2, Vec3};
use rayon::prelude::*;

/// The pre-coherence marching kernel: per-cell binned hull queries (each
/// tallied as an entry-hint miss), per-step [`ray_tetra`] with no
/// cross-face reuse (6 edge evaluations per test, each by the generic
/// Plücker product), row-parallel scheduling, and — under a window — the
/// window entry of the module docs found from scratch for every line
/// (`reference_window_entry`). The rendered field and the
/// crossings/failures counters are bit-identical to
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
/// face crossing may differ).
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
/// face signs. A point located beyond a hull facet that faces up is above
/// the hull. Shares no code with the kernel's hinted walk but the facet
/// test.
fn reference_window_entry(del: &Delaunay, xi: Vec2, z_lo: f64) -> Start {
    let p = Vec3::new(xi.x, xi.y, z_lo);
    match del.locate_seeded(p, NONE, &mut 0x9E37_79B9_7F4A_7C15) {
        Located::Finite(t) => {
            let strict = (0..4).all(|i| {
                let [a, b, c] = del.tet(t).face(i);
                orient3d(del.vertex(a), del.vertex(b), del.vertex(c), p).is_positive()
            });
            if strict {
                Start::Entry(t)
            } else {
                Start::Hull
            }
        }
        Located::Ghost(g) if faces_up(del, del.hull_facet(g)) => Start::AboveHull,
        // Below or beside the hull, exactly on a vertex, or lost.
        _ => Start::Hull,
    }
}

/// `seek_window_entry`: enter at the window entry where the definition gives
/// one. Its floor test and the side products' error bound are evaluated
/// once per render, as the kernel does, but from the vertices themselves
/// rather than the kernel's cached box.
fn reference_render(
    field: FieldView<'_>,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
    seek_window_entry: bool,
) -> (Field2, MarchStats) {
    let (inf, neg) = (f64::INFINITY, f64::NEG_INFINITY);
    let (lo, hi) = (field.del.vertices().iter()).fold(
        (Vec3::new(inf, inf, inf), Vec3::new(neg, neg, neg)),
        |(lo, hi), v| {
            (
                Vec3::new(lo.x.min(v.x), lo.y.min(v.y), lo.z.min(v.z)),
                Vec3::new(hi.x.max(v.x), hi.y.max(v.y), hi.z.max(v.z)),
            )
        },
    );
    let floor = opts.z_range.map(|(lo, _)| lo);
    let window_floor = floor.filter(|&z_lo| seek_window_entry && z_lo > lo.z);
    let line = Line {
        values: field.values.rows(field.del),
        z_range: opts.z_range,
        window_floor,
        side_bound: mesh_side_bound(lo, hi),
    };
    let row = |j: usize, out: &mut [f64], stats: &mut MarchStats| {
        for (i, slot) in out.iter_mut().enumerate() {
            let n = opts.samples.max(1);
            let mut acc = 0.0;
            for sample in 0..n {
                let xi = line_of_sight(grid, i, j, sample, opts.samples);
                acc += reference_march_one(field, index, xi, &line, stats);
            }
            *slot = acc / n as f64;
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

/// What every line of a reference render shares: the values it integrates
/// (a linear table's rows, written on its first march), the window, the
/// floor a window entry is sought at, and the side products' error bound.
struct Line<'a> {
    values: SlotRows<'a>,
    z_range: Option<(f64, f64)>,
    window_floor: Option<f64>,
    side_bound: f64,
}

fn reference_march_one(
    field: FieldView<'_>,
    index: &HullIndex,
    xi: Vec2,
    line: &Line<'_>,
    stats: &mut MarchStats,
) -> f64 {
    let crossings_before = stats.crossings;
    let v = reference_march_cell_inner(field, index, xi, line, stats);
    dtfe_telemetry::hist_record!("core.tets_per_los", stats.crossings - crossings_before);
    v
}

fn reference_march_cell_inner(
    field: FieldView<'_>,
    index: &HullIndex,
    xi: Vec2,
    line: &Line<'_>,
    stats: &mut MarchStats,
) -> f64 {
    let del = field.del;
    let start = match line.window_floor {
        Some(z_lo) => reference_window_entry(del, xi, z_lo),
        None => Start::Hull,
    };
    let mut t = match start {
        Start::Entry(t0) => t0,
        start => {
            stats.entry_hint_misses += 1;
            match index.query(xi) {
                Some(ghost) if start == Start::Hull => del.tet(ghost).neighbors[3],
                _ => return 0.0,
            }
        }
    };
    let mut total = 0.0;
    for _ in 0..del.num_tets() + del.num_ghosts() + 16 {
        let verts = del.tet_points(t);
        let hit = ray_tetra(xi, line.side_bound, &verts);
        stats.edge_evals += 6;
        let (Some((_, p_in)), Some((exit_face, p_out))) = (hit.enter, hit.exit) else {
            stats.failures += 1;
            return total;
        };
        let (mut a, mut b) = (p_in.z, p_out.z);
        if b < a {
            (a, b) = (b, a);
        }
        if let Some((zlo, zhi)) = line.z_range {
            if a >= zhi || verts.iter().all(|p| p.z >= zhi) {
                return total;
            }
            a = a.max(zlo);
            b = b.min(zhi);
        }
        stats.crossings += 1;
        if b > a {
            let mid = Vec3::new(xi.x, xi.y, 0.5 * (a + b));
            let rho_mid = line.values.eval(t, verts[0], mid);
            total += rho_mid * (b - a);
        }
        if let Some((_, zhi)) = line.z_range {
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
    stats.failures += 1;
    total
}
