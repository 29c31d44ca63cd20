//! The element projector against the march.
//!
//! A centre-sampled, full-depth render over a dense grid projects
//! (`dtfe_core::projector`); `surface_density_reference` always marches.
//! On the three render fixtures and every estimator a tile serves:
//!
//! * each cell is the reference's to `1e-9` of the cell's absolute
//!   integral `∫ |f| dz` (its value, for the positive estimators), and
//!   the grid sums agree to `1e-12` of the absolute sum;
//! * the projector's `(line, tetrahedron)` pairs equal the march's
//!   crossings, the march needing no `Perturb` on these general-position
//!   clouds;
//! * serial and row-banded parallel renders are bit-identical at every
//!   thread count.
//!
//! Renders that keep marching — jittered samples, a window inside the
//! mesh, a sparse grid — still give the reference's bits. The Kronecker
//! cloud, a quasi-lattice whose centre lines graze edges everywhere, is
//! rendered without a single perturbation.

use dtfe_repro::core::marching::{pairs_per_tet, projects, surface_density_with_stats, MarchStats};
use dtfe_repro::core::{
    surface_density_reference, surface_density_with_index, DtfeField, FieldView, GridSpec2,
    HullIndex, MarchOptions, Mass,
};
use dtfe_repro::geometry::{Vec2, Vec3};

mod common;

use common::*;

/// A grid over the fixtures' `[0, 6]²` footprint, dense enough to project.
fn dense_grid() -> GridSpec2 {
    GridSpec2::covering(Vec2::new(-0.1, 0.2), Vec2::new(6.2, 5.9), 41, 37)
}

fn project(view: &FieldView<'_>, index: &HullIndex, grid: &GridSpec2, opts: &MarchOptions) {
    let what = format!("{opts:?}");
    let (projected, ps) = surface_density_with_index(view, index, grid, opts);
    let (marched, ms) = surface_density_reference(view, index, grid, opts);
    assert_eq!(ms.perturbations, 0, "{what}: the fixture perturbs");
    assert_eq!(ps.crossings, ms.crossings, "{what}: pairs");
    assert_eq!(ps.perturbations + ps.edge_evals, 0, "{what}");
    let scale = magnitude(view, index, grid);
    assert_within_rounding(&projected.data, &marched.data, &scale, &what);
}

#[test]
fn the_projector_is_the_reference_to_rounding_on_every_estimator() {
    let grid = dense_grid();
    for (cloud, pts) in clouds() {
        let t = tables(&pts);
        let index = HullIndex::for_mesh(t.mesh.delaunay());
        for (estimator, view) in t.views() {
            let full = MarchOptions::new().parallel(false);
            assert!(
                projects(&view, &grid, &full),
                "{cloud}/{estimator}: {} pairs per tetrahedron",
                pairs_per_tet(&view, &grid, &full)
            );
            project(&view, &index, &grid, &full);
            // A window holding the whole mesh integrates every
            // tetrahedron whole, so it projects too.
            let whole = full.clone().z_range(-1.0, 7.0);
            assert!(projects(&view, &grid, &whole), "{cloud}/{estimator}");
            project(&view, &index, &grid, &whole);
        }
    }
}

#[test]
fn serial_and_banded_projections_are_bit_identical() {
    let grid = dense_grid();
    for (cloud, pts) in clouds() {
        let t = tables(&pts);
        let index = HullIndex::for_mesh(t.mesh.delaunay());
        for (estimator, view) in t.views() {
            let serial = MarchOptions::new().parallel(false);
            let (base, bs) = surface_density_with_index(&view, &index, &grid, &serial);
            for threads in [1, 2, 3, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let opts = serial.clone().parallel(true);
                let (par, stats) =
                    pool.install(|| surface_density_with_index(&view, &index, &grid, &opts));
                let at = format!("{cloud}/{estimator}, {threads} threads");
                let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&par.data), bits(&base.data), "{at}");
                assert_eq!(stats, bs, "{at}: stats");
            }
        }
    }
}

#[test]
fn jittered_windowed_and_sparse_renders_keep_marching() {
    let grid = dense_grid();
    let sparse = GridSpec2::covering(Vec2::new(-0.1, 0.2), Vec2::new(6.2, 5.9), 5, 4);
    for (cloud, pts) in clouds() {
        let t = tables(&pts);
        let index = HullIndex::for_mesh(t.mesh.delaunay());
        for (estimator, view) in t.views() {
            let renders = [
                (&grid, MarchOptions::new().samples(2).parallel(false)),
                (&grid, MarchOptions::new().z_range(1.5, 4.5).parallel(false)),
                (&sparse, MarchOptions::new().parallel(false)),
            ];
            for (g, opts) in renders {
                let what = format!("{cloud}/{estimator}, {opts:?}");
                assert!(!projects(&view, g, &opts), "{what}");
                let (kernel, ks) = surface_density_with_index(&view, &index, g, &opts);
                let (reference, rs) = surface_density_reference(&view, &index, g, &opts);
                assert_eq!(fnv(&kernel.data), fnv(&reference.data), "{what}");
                assert_eq!(ks.crossings, rs.crossings, "{what}");
            }
        }
    }
}

/// The Kronecker cloud `((i·0.618034) mod 1, (i·0.414214) mod 1,
/// (i·0.259921) mod 1) × 4`: a quasi-lattice whose centre lines lie on
/// projected edges and vertices all over the grid. The march perturbs them
/// and reads a grid mass half again too large; the projector counts each
/// such line in exactly one tetrahedron at every height and needs no
/// `Perturb`.
#[test]
fn the_kronecker_lattice_projects_without_a_perturbation() {
    let pts: Vec<Vec3> = (1..=2000)
        .map(|i| {
            let i = i as f64;
            Vec3::new(
                (i * 0.618034).fract(),
                (i * 0.414214).fract(),
                (i * 0.259921).fract(),
            ) * 4.0
        })
        .collect();
    let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
    assert_eq!(field.delaunay().num_tets(), 11_805);
    let grid = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(4.0, 4.0), 64, 64);
    let opts = MarchOptions::new().parallel(false);
    assert!(projects(&field, &grid, &opts));
    let (sigma, stats): (_, MarchStats) = surface_density_with_stats(&field, &grid, &opts);
    assert_eq!(stats.perturbations, 0);
    let mass = sigma.total_mass();
    assert!(
        (mass - 2000.0).abs() < 0.01 * 2000.0,
        "grid mass {mass} of 2000 particles"
    );
}
