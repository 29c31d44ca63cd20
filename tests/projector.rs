//! The element projector against the march.
//!
//! A centre-sampled render over a dense grid projects
//! (`dtfe_core::projector`) — over the whole depth, or under a window
//! inside the mesh from only the tetrahedra the window's box meets;
//! `surface_density_reference` always marches. On the three render
//! fixtures and every estimator a tile serves:
//!
//! * each cell is the reference's to `1e-9` of the cell's absolute
//!   integral `∫ |f| dz` over the window (its value, for the positive
//!   estimators), and the grid sums agree to `1e-12` of the absolute sum;
//! * the projector's `(line, tetrahedron)` pairs equal the march's
//!   crossings — both decide every edge side by one exact rule, so they
//!   follow the same lines; under a window a pair is a tetrahedron the
//!   segment meets;
//! * serial and row-banded parallel renders are bit-identical at every
//!   thread count;
//! * a windowed render that gathers its tetrahedra has the bits and pairs
//!   of one that scans the whole mesh — also where the gather finds no
//!   seed and scans itself.
//!
//! The windows include thin ones, ones partly outside the hull, and ones
//! whose floor or ceiling lies exactly on vertex heights; on the exact
//! lattice every floor point of such a window is a tie. Renders that keep
//! marching — jittered samples, a sparse grid — still give the
//! reference's bits, and so does the march under a window. The Kronecker
//! cloud, a quasi-lattice whose centre lines graze edges everywhere, is
//! projected, its stacked windows summing to its full-depth render, and
//! marched — jittered and on a sparse grid — with no line restarted or
//! failed, kernel == reference, and the projector's pairs.

use dtfe_repro::core::marching::{
    cell_value, pairs_per_tet, projects, surface_density_by, surface_density_with_stats, Kernel,
    MarchStats,
};
use dtfe_repro::core::{
    surface_density_reference, surface_density_with_index, DtfeField, FieldEstimator, FieldView,
    GridSpec2, HullIndex, MarchOptions, Mass,
};
use dtfe_repro::delaunay::{Delaunay, Located};
use dtfe_repro::geometry::{Vec2, Vec3};

mod common;

use common::*;

/// A grid over the fixtures' `[0, 6]²` footprint, dense enough to project
/// at full depth and under a window. It overhangs the footprint a little,
/// so some lines miss the hull and some cross it where it is thin.
fn dense_grid() -> GridSpec2 {
    GridSpec2::covering(Vec2::new(-0.1, 0.2), Vec2::new(6.2, 5.9), 57, 53)
}

/// The march's crossings on the lines of `grid` whose positive field
/// (DTFE) integrates to non-zero under `opts`' window, each line marched
/// alone. A line that enters at its window floor crosses exactly the
/// tetrahedra its segment meets. One whose floor point is outside the hull
/// enters through it when the point is below the hull's bottom, and then
/// too crosses only those the segment meets — none when the whole window
/// is below the hull. Above the hull's top — where the hull is thin, near
/// the footprint's edge — it crosses nothing. So every line the march
/// crosses anything on has a non-zero integral.
fn segment_crossings(
    view: &FieldView<'_>,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> u64 {
    let mut total = 0;
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            let mut stats = MarchStats::default();
            if cell_value(view, index, grid, i, j, opts, &mut stats) != 0.0 {
                total += stats.crossings;
            }
        }
    }
    total
}

/// Render `grid` as the render selects — which must project — and hold
/// it to the reference march within the rounding bound, with no line
/// restarted or failed. Returns the pairs and the march's crossings.
fn project(
    at: &str,
    view: &FieldView<'_>,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> (u64, u64) {
    let what = format!("{at}, {opts:?}");
    assert!(
        projects(view, grid, opts),
        "{what}: {} pairs per tetrahedron",
        pairs_per_tet(view, grid, opts)
    );
    let (projected, ps) = surface_density_with_index(view, index, grid, opts);
    let (marched, ms) = surface_density_reference(view, index, grid, opts);
    assert_eq!((ms.perturbations, ms.failures), (0, 0), "{what}");
    assert_eq!(ps.perturbations + ps.edge_evals, 0, "{what}");
    let scale = magnitude(view, index, grid, opts);
    assert_within_rounding(&projected.data, &marched.data, &scale, &what);
    (ps.crossings, ms.crossings)
}

/// The windows every fixture cloud is rendered under: an ordinary one, a
/// thin one, one below and one above the hull's z-extent in part, one on
/// the jittered lattice's unjittered heights, and one whose floor and
/// ceiling are the heights of two of the cloud's vertices.
fn windows(pts: &[Vec3]) -> Vec<(f64, f64)> {
    let near = |z: f64| {
        pts.iter()
            .map(|p| p.z)
            .min_by(|a, b| (a - z).abs().total_cmp(&(b - z).abs()))
            .unwrap()
    };
    vec![
        (1.5, 4.5),
        (2.5, 2.5 + 1e-3),
        (-1.0, 2.0),
        (4.0, 9.0),
        (2.0, 4.0),
        (near(1.5), near(4.5)),
    ]
}

/// Under a window a pair is a tetrahedron the segment meets: the pairs are
/// the march's crossings, all of them on lines whose window the march
/// reaches ([`segment_crossings`]), the same for every estimator of one
/// mesh.
#[test]
fn the_projector_is_the_reference_to_rounding_on_every_estimator() {
    let grid = dense_grid();
    let full = MarchOptions::new().parallel(false);
    for (cloud, pts) in clouds() {
        let t = tables(&pts);
        let index = HullIndex::for_mesh(t.mesh.delaunay());
        for (estimator, view) in t.views() {
            let at = format!("{cloud}/{estimator}");
            let (pairs, crossings) = project(&at, &view, &index, &grid, &full);
            assert_eq!(pairs, crossings, "{at}: full depth");
            // A window holding the whole mesh integrates every
            // tetrahedron whole, so it projects too.
            let whole = full.clone().z_range(-1.0, 7.0);
            let (pairs, crossings) = project(&at, &view, &index, &grid, &whole);
            assert_eq!(pairs, crossings, "{at}: whole window");
        }
        let dtfe = t.mesh.view(t.dtfe.linear());
        for (lo, hi) in windows(&pts) {
            let opts = full.clone().z_range(lo, hi);
            let segments = segment_crossings(&dtfe, &index, &grid, &opts);
            for (estimator, view) in t.views() {
                let what = format!("{cloud}/{estimator} [{lo}, {hi}]");
                let (pairs, crossings) = project(&what, &view, &index, &grid, &opts);
                assert_eq!(pairs, crossings, "{what}");
                assert_eq!(pairs, segments, "{what}");
            }
        }
    }
}

/// The exact 4³ lattice under windows whose floor or ceiling is a lattice
/// plane, rendered by centre lines in general position. A floor on a
/// lattice plane is a tie for every line — the plane is a union of faces —
/// so the march enters through the hull and crosses the tetrahedra below
/// the floor too: there the crossings exceed the pairs. A ceiling on a
/// plane does not: a Plücker exit height that rounds below it steps the
/// march into the layer above, whose lowest vertex is on the ceiling, and
/// the march ends the line there uncounted, as the projector does — so
/// under `[-1, 1]`, whose floor is below the mesh, pairs equal crossings.
/// The pairs themselves are exact: every tetrahedron lies in one layer, so
/// the windows stacked on the planes count the full-depth render's pairs,
/// which are the march's crossings.
#[test]
fn floors_and_ceilings_on_lattice_planes() {
    let pts = exact_lattice();
    let field = DtfeField::build(&pts, masses(pts.len())).unwrap();
    let index = HullIndex::build(&field);
    let view = field.view();
    let grid = GridSpec2::covering(Vec2::new(0.137, 0.213), Vec2::new(2.871, 2.929), 23, 19);
    let full = MarchOptions::new().parallel(false);
    // (pairs, the march's crossings) under the window [lo, hi].
    let render = |lo: f64, hi: f64| {
        let opts = full.clone().z_range(lo, hi);
        project("lattice", &view, &index, &grid, &opts)
    };
    // Floors and ceilings inside a layer: the march enters at the floor.
    for (lo, hi) in [(0.5, 2.5), (1.25, 2.75), (0.0, 1.5), (-1.0, 2.25)] {
        let (p, c) = render(lo, hi);
        assert_eq!(p, c, "[{lo}, {hi}]");
    }
    let (p, c) = project("lattice", &view, &index, &grid, &full);
    assert_eq!(p, c, "full depth");
    let mut stacked = 0;
    let (pairs, crossings) = render(-1.0, 1.0);
    assert_eq!(pairs, crossings, "[-1, 1]");
    stacked += pairs;
    // Tie floors: the hull-entered lines cross the layers below too.
    for (lo, hi) in [(1.0, 2.0), (2.0, 4.0)] {
        let (pairs, crossings) = render(lo, hi);
        assert!(pairs <= crossings, "[{lo}, {hi}]: {pairs} > {crossings}");
        stacked += pairs;
    }
    assert_eq!(stacked, p, "stacked on the planes");
    for (lo, plane, hi) in [(0.5, 1.0, 2.5), (1.25, 2.0, 2.75)] {
        assert_eq!(render(lo, plane).0 + render(plane, hi).0, render(lo, hi).0);
    }
}

/// Where the projector's gather seeds: the centre of the box of the grid's
/// centres times the window, cut to the mesh's vertex box.
fn seed(del: &Delaunay, grid: &GridSpec2, (lo, hi): (f64, f64)) -> Located {
    let (mesh_lo, mesh_hi) = del.vertices().iter().fold(
        (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY)),
        |(a, b), &p| (a.min(p), b.max(p)),
    );
    let (first, last) = (grid.center(0, 0), grid.center(grid.nx - 1, grid.ny - 1));
    let lo = Vec3::new(first.x, first.y, lo).max(mesh_lo);
    let hi = Vec3::new(last.x, last.y, hi).min(mesh_hi);
    del.locate((lo + hi) * 0.5)
}

#[test]
fn gathered_and_scanned_projections_are_bit_identical() {
    let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut fallbacks = 0;
    let lattice = exact_lattice();
    let fixtures = clouds()
        .into_iter()
        .chain([("exact lattice", lattice)])
        .map(|(cloud, pts)| {
            let mut renders: Vec<(GridSpec2, (f64, f64))> = windows(&pts)
                .into_iter()
                .map(|w| (dense_grid(), w))
                .collect();
            // The box's centre beyond the hull's corner, and on a lattice
            // vertex: the gather finds no seed and scans.
            let corner = GridSpec2::covering(Vec2::new(5.5, 5.5), Vec2::new(9.5, 9.5), 24, 24);
            renders.push((corner, (5.5, 9.5)));
            let on_vertex = GridSpec2::covering(Vec2::new(-0.5, -0.5), Vec2::new(2.5, 2.5), 24, 24);
            renders.push((on_vertex, (0.5, 1.5)));
            (cloud, pts, renders)
        });
    for (cloud, pts, renders) in fixtures {
        let t = tables(&pts);
        let index = HullIndex::for_mesh(t.mesh.delaunay());
        for (grid, window) in renders {
            let opts = MarchOptions::new()
                .z_range(window.0, window.1)
                .parallel(false);
            if !matches!(seed(t.mesh.delaunay(), &grid, window), Located::Finite(_)) {
                fallbacks += 1;
            }
            for (estimator, view) in t.views() {
                let what = format!("{cloud}/{estimator} {window:?}");
                let (gathered, gs) =
                    surface_density_by(&view, &index, &grid, &opts, Kernel::Project);
                let (scanned, ss) =
                    surface_density_by(&view, &index, &grid, &opts, Kernel::ProjectScan);
                assert_eq!(bits(&gathered.data), bits(&scanned.data), "{what}");
                assert_eq!(gs, ss, "{what}: stats");
            }
        }
    }
    assert!(
        fallbacks >= 2,
        "{fallbacks} renders scanned for want of a seed"
    );
}

#[test]
fn serial_and_banded_projections_are_bit_identical() {
    let grid = dense_grid();
    for (cloud, pts) in clouds() {
        let t = tables(&pts);
        let index = HullIndex::for_mesh(t.mesh.delaunay());
        for (estimator, view) in t.views() {
            for serial in [
                MarchOptions::new().parallel(false),
                MarchOptions::new().z_range(1.5, 4.5).parallel(false),
            ] {
                assert!(projects(&view, &grid, &serial));
                let (base, bs) = surface_density_with_index(&view, &index, &grid, &serial);
                for threads in [1, 2, 3, 8] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let opts = serial.clone().parallel(true);
                    let (par, stats) =
                        pool.install(|| surface_density_with_index(&view, &index, &grid, &opts));
                    let at = format!("{cloud}/{estimator} {:?}, {threads} threads", opts.z_range);
                    let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&par.data), bits(&base.data), "{at}");
                    assert_eq!(stats, bs, "{at}: stats");
                }
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
            // Centre lines under a window inside the mesh project; the
            // march, named, still enters at the floor and gives the
            // reference's bits.
            let opts = MarchOptions::new().z_range(1.5, 4.5).parallel(false);
            let what = format!("{cloud}/{estimator}, {opts:?}");
            let (kernel, ks) = surface_density_by(&view, &index, &grid, &opts, Kernel::March);
            let (reference, rs) = surface_density_reference(&view, &index, &grid, &opts);
            assert_eq!(fnv(&kernel.data), fnv(&reference.data), "{what}");
            assert_eq!(ks.crossings, rs.crossings, "{what}");
            assert!(ks.window_entries > 0, "{what}");
        }
    }
}

/// The Kronecker cloud `((i·0.618034) mod 1, (i·0.414214) mod 1,
/// (i·0.259921) mod 1) × 4`, `i = 1..=2000`: a quasi-lattice whose centre
/// lines lie on projected edges and vertices all over a 64² grid.
fn kronecker() -> DtfeField {
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
    field
}

/// The Kronecker cloud projected: the projector counts each line on an
/// edge in exactly one tetrahedron at every height, at full depth and
/// under each of four stacked windows, which sum to the full-depth render.
#[test]
fn the_kronecker_lattice_projects_without_a_perturbation() {
    let field = kronecker();
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

    let mut stacked = vec![0.0; sigma.data.len()];
    for k in 0..4 {
        let window = opts.clone().z_range(k as f64, k as f64 + 1.0);
        assert!(projects(&field, &grid, &window), "window {k}");
        let (part, stats) = surface_density_with_stats(&field, &grid, &window);
        assert_eq!(stats.perturbations, 0, "window {k}");
        for (s, v) in stacked.iter_mut().zip(&part.data) {
            *s += v;
        }
    }
    assert_within_rounding(&stacked, &sigma.data, &sigma.data, "stacked windows");
}

/// The Kronecker cloud marched. Its centre lines graze edges and vertices
/// everywhere, and one of its slivers has a float orientation opposite
/// the exact one: no line may restart or fail. Jittered lines and a
/// sparse grid march: the kernel gives the reference's bits and counters
/// and the grid holds the particles' mass. At full depth the reference
/// march crosses exactly the projector's pairs.
#[test]
fn the_kronecker_lattice_marches_without_a_perturbation() {
    let field = kronecker();
    let index = HullIndex::build(&field);
    let view = field.view();
    let dense = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(4.0, 4.0), 64, 64);
    let sparse = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(4.0, 4.0), 32, 32);
    let full = MarchOptions::new().parallel(false);
    for (what, grid, opts) in [
        ("jittered", dense, full.clone().samples(2)),
        ("sparse", sparse, full.clone()),
    ] {
        assert!(!projects(&view, &grid, &opts), "{what}");
        let (kernel, ks) = surface_density_with_index(&view, &index, &grid, &opts);
        let (reference, rs) = surface_density_reference(&view, &index, &grid, &opts);
        assert_eq!(fnv(&kernel.data), fnv(&reference.data), "{what}");
        let counters = |s: &MarchStats| {
            let lines = (s.perturbations, s.failures, s.crossings);
            (
                lines,
                s.entry_hint_misses,
                s.window_entries,
                s.window_fallbacks,
            )
        };
        assert_eq!(counters(&ks), counters(&rs), "{what}");
        assert_eq!((ks.perturbations, ks.failures), (0, 0), "{what}");
        let mass = kernel.total_mass();
        assert!(
            (mass - 2000.0).abs() < 0.01 * 2000.0,
            "{what}: grid mass {mass} of 2000 particles"
        );
    }
    let (pairs, crossings) = project("kronecker", &view, &index, &dense, &full);
    assert_eq!(pairs, crossings);
}
