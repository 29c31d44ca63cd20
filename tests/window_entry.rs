//! Window entry (DESIGN.md §4f): a z-windowed line of sight enters the mesh
//! at the tetrahedron strictly containing its floor point `(ξ, z_lo)`.
//!
//! What is held here, all seed-deterministic:
//!
//! * (a) `kernel == reference` — bits, `crossings`, `perturbations`,
//!   `failures` — under windows, on a jittered cloud, a clustered
//!   `dtfe_nbody` cloud and the exact 4³ lattice, for 1 and 3 samples,
//!   serial and tiled on 1–3 threads over a grid the tile seams cut,
//!   through every backend's view (DTFE named and as
//!   `&dyn FieldEstimator`, PS-DTFE density and divergence, stochastic, a
//!   linear `ScalarField`). The kernel walks to the entry from a hint; the
//!   reference locates it from scratch.
//! * (b) on the non-degenerate clouds the windowed render equals the
//!   hull-entered reference bit for bit, with strictly fewer crossings (a
//!   differential on fixed fixtures, deliberately not a theorem).
//! * (c) the edges of the definition: the three fallbacks, a floor at or
//!   below the mesh, a floor above the hull's top where it lies below the
//!   hull's highest vertex, a sliver window, additivity across a shared
//!   floor.
//! * (d) the hint cannot change an entry.
//!
//! A centre-sampled render under a window inside the mesh may project
//! (`tests/projector.rs` holds that path), so every render here names the
//! march: `surface_density_by(…, Kernel::March)`.

use dtfe_repro::core::marching::{
    cell_value, march_cell, surface_density_by, surface_density_reference,
    surface_density_reference_hull_entry, window_entry_with_hint, Kernel, MarchStats,
};
use dtfe_repro::core::{
    DtfeField, EstimatorKind, FieldEstimator, GridSpec2, HullIndex, MarchOptions, Mass,
    PsDtfeField, ScalarField, SlotValues, StochasticField, StochasticOptions,
};
use dtfe_repro::delaunay::{Delaunay, Located, TetId, NONE};
use dtfe_repro::geometry::{orient3d, Vec2, Vec3};
use dtfe_repro::nbody::datasets::galaxy_box;

mod common;

/// A named point set, the grid rendered over it, and the windows tried.
struct Fixture {
    name: &'static str,
    pts: Vec<Vec3>,
    grid: GridSpec2,
    windows: [(f64, f64); 3],
    /// Generic position: no line of sight is expected to perturb.
    generic: bool,
}

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

fn lattice() -> Vec<Vec3> {
    (0..4)
        .flat_map(|i| {
            (0..4).flat_map(move |j| (0..4).map(move |k| Vec3::new(i as f64, j as f64, k as f64)))
        })
        .collect()
}

fn fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "jittered",
            pts: jittered_cloud(6, 97),
            // Overhangs the footprint, so some lines miss the hull.
            grid: GridSpec2::covering(Vec2::new(-0.4, -0.2), Vec2::new(5.9, 5.8), 23, 19),
            windows: [(2.0, 3.7), (0.9, 2.2), (3.3, 5.4)],
            generic: true,
        },
        Fixture {
            name: "clustered",
            pts: galaxy_box(8.0, 2500, 6, 11).0,
            grid: GridSpec2::covering(Vec2::new(0.3, 0.3), Vec2::new(7.7, 7.7), 22, 22),
            windows: [(3.0, 5.0), (0.8, 2.9), (5.5, 7.6)],
            generic: true,
        },
        Fixture {
            name: "lattice",
            pts: lattice(),
            // Cell centres on the lattice's diagonal planes: degenerate
            // lines everywhere. The second window's floor is a lattice
            // plane, so every floor point is a tie.
            grid: GridSpec2::covering(Vec2::new(-0.5, -0.5), Vec2::new(3.5, 3.5), 8, 8),
            windows: [(0.5, 2.5), (1.0, 2.0), (1.25, 2.75)],
            generic: false,
        },
    ]
}

/// A smooth periodic flow for the PS-DTFE leg (the kernel is under test,
/// not the astrophysics).
fn demo_velocities(pts: &[Vec3]) -> Vec<Vec3> {
    pts.iter()
        .map(|p| Vec3::new((0.7 * p.x).sin(), (0.7 * p.y).sin(), (0.7 * p.z).sin()) * 0.3)
        .collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The definition, evaluated with the public predicates only.
fn strictly_contains(del: &Delaunay, t: TetId, p: Vec3) -> bool {
    (0..4).all(|i| {
        let [a, b, c] = del.tet(t).face(i);
        orient3d(del.vertex(a), del.vertex(b), del.vertex(c), p).is_positive()
    })
}

fn kernel_equals_reference<E: FieldEstimator + ?Sized>(
    fx: &Fixture,
    field: &E,
    kind: EstimatorKind,
) {
    let index = HullIndex::build(field);
    let grid = common::across_tile_seams(&fx.grid);
    for (lo, hi) in fx.windows {
        for samples in [1usize, 3] {
            let base = MarchOptions::new()
                .samples(samples)
                .z_range(lo, hi)
                .estimator(kind);
            let what = format!("{} {kind:?} [{lo},{hi}] x{samples}", fx.name);
            let serial = base.clone().parallel(false);
            let (want, sr) = surface_density_reference(field, &index, &grid, &serial);
            let parallel = base.clone().parallel(true);
            let mut runs = vec![(
                "serial".to_string(),
                surface_density_by(field, &index, &grid, &serial, Kernel::March),
            )];
            for threads in [1, 2, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                runs.push((
                    format!("{threads} threads"),
                    pool.install(|| {
                        surface_density_by(field, &index, &grid, &parallel, Kernel::March)
                    }),
                ));
            }
            for (how, (got, sk)) in runs {
                assert!(same_bits(&want.data, &got.data), "{what} {how}: field");
                assert_eq!(sr.crossings, sk.crossings, "{what} {how}: crossings");
                assert_eq!(
                    sr.perturbations, sk.perturbations,
                    "{what} {how}: perturbations"
                );
                assert_eq!(sr.failures, sk.failures, "{what} {how}: failures");
                assert_eq!(sk.failures, 0, "{what} {how}");
            }
        }
    }
}

#[test]
fn windowed_kernel_equals_reference_on_every_fixture() {
    for fx in fixtures() {
        let dtfe = DtfeField::build(&fx.pts, Mass::Uniform(1.0)).unwrap();
        kernel_equals_reference(&fx, &dtfe, EstimatorKind::Dtfe);
        kernel_equals_reference(&fx, &dtfe as &dyn FieldEstimator, EstimatorKind::Dtfe);
        let linear = dtfe
            .delaunay()
            .vertices()
            .iter()
            .map(|p| 3.0 + 1.5 * p.x - 2.0 * p.y + 0.5 * p.z);
        let scalar = ScalarField::new(dtfe.mesh(), linear.collect());
        kernel_equals_reference(&fx, &scalar, EstimatorKind::Dtfe);
        // A vertex field over the density's mesh renders with its cache.
        let (d, s) = (dtfe.view(), scalar.view());
        assert!(std::ptr::eq(d.del, s.del) && std::ptr::eq(d.cache, s.cache));

        let ps =
            PsDtfeField::build(&fx.pts, &demo_velocities(&fx.pts), Mass::Uniform(1.0)).unwrap();
        kernel_equals_reference(&fx, &ps, EstimatorKind::PsDtfe);
        let div = ps.divergence();
        kernel_equals_reference(&fx, &div, EstimatorKind::VelocityDivergence);
        // Two tables, one mesh and one traversal cache.
        let (a, b) = (ps.view(), div.view());
        assert!(std::ptr::eq(a.del, b.del) && std::ptr::eq(a.cache, b.cache));
        let (SlotValues::Constant(da), SlotValues::Constant(db)) = (a.values, b.values) else {
            panic!("PS-DTFE tables are per-simplex constants");
        };
        assert!(!std::ptr::eq(da, db));

        let kind = EstimatorKind::Stochastic { realizations: 2 };
        let opts = StochasticOptions::new().realizations(2).seed(41);
        let stochastic = StochasticField::build(&fx.pts, Mass::Uniform(1.0), opts).unwrap();
        kernel_equals_reference(&fx, &stochastic, kind);
    }
}

#[test]
fn window_entry_equals_hull_entry_on_generic_clouds() {
    for fx in fixtures().into_iter().filter(|f| f.generic) {
        let field = DtfeField::build(&fx.pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        for (lo, hi) in fx.windows {
            for samples in [1usize, 3] {
                let opts = MarchOptions::new()
                    .samples(samples)
                    .z_range(lo, hi)
                    .parallel(false);
                let what = format!("{} [{lo},{hi}] x{samples}", fx.name);
                let (hull, sh) =
                    surface_density_reference_hull_entry(&field, &index, &fx.grid, &opts);
                assert_eq!(sh.perturbations, 0, "{what}: fixture is not generic");
                let (got, sk) = surface_density_by(&field, &index, &fx.grid, &opts, Kernel::March);
                assert!(same_bits(&hull.data, &got.data), "{what}: field");
                assert_eq!(sk.perturbations, 0, "{what}");
                assert!(
                    sk.crossings < sh.crossings,
                    "{what}: {} crossings, hull entry {}",
                    sk.crossings,
                    sh.crossings
                );
                assert!(
                    sk.window_entries > 0,
                    "{what}: no line entered at the floor"
                );
            }
        }
    }
}

/// Both kernels over `grid` with window `(lo, hi)`, asserted equal; returns
/// the kernel's output.
fn render_both(
    field: &DtfeField,
    index: &HullIndex,
    grid: &GridSpec2,
    (lo, hi): (f64, f64),
) -> (Vec<f64>, MarchStats) {
    let opts = MarchOptions::new().z_range(lo, hi).parallel(false);
    let (want, sr) = surface_density_reference(field, index, grid, &opts);
    let (got, sk) = surface_density_by(field, index, grid, &opts, Kernel::March);
    assert!(same_bits(&want.data, &got.data), "[{lo},{hi}]: field");
    assert_eq!(
        (sr.crossings, sr.perturbations, sr.failures),
        (sk.crossings, sk.perturbations, sk.failures),
        "[{lo},{hi}]: counters"
    );
    (got.data, sk)
}

#[test]
fn floor_at_or_below_the_mesh_attempts_no_walk() {
    let fx = &fixtures()[0];
    let field = DtfeField::build(&fx.pts, Mass::Uniform(1.0)).unwrap();
    let index = HullIndex::build(&field);
    let z_min = fx.pts.iter().fold(f64::INFINITY, |m, p| m.min(p.z));
    for lo in [z_min, z_min - 1.0] {
        let (data, s) = render_both(&field, &index, &fx.grid, (lo, 3.0));
        assert_eq!(
            (s.window_entries, s.window_fallbacks, s.window_walk_steps),
            (0, 0, 0),
            "floor {lo}: a walk was attempted"
        );
        let opts = MarchOptions::new().z_range(lo, 3.0).parallel(false);
        let (hull, sh) = surface_density_reference_hull_entry(&field, &index, &fx.grid, &opts);
        assert!(same_bits(&hull.data, &data));
        assert_eq!(sh.crossings, s.crossings);
    }
    // One ulp above the lowest vertex the definition applies again.
    let (_, s) = render_both(&field, &index, &fx.grid, (z_min + 1e-9, 3.0));
    assert!(s.window_entries + s.window_fallbacks > 0);
}

#[test]
fn floor_above_the_hull_and_lines_outside_the_footprint_fall_back() {
    let fx = &fixtures()[0];
    let field = DtfeField::build(&fx.pts, Mass::Uniform(1.0)).unwrap();
    let index = HullIndex::build(&field);
    let z_max = fx.pts.iter().fold(f64::NEG_INFINITY, |m, p| m.max(p.z));
    let cells = fx.grid.num_cells() as u64;

    // Floor above every vertex: no floor point is inside the hull, every
    // line enters by the hull projection and nothing contributes.
    let (data, s) = render_both(&field, &index, &fx.grid, (z_max + 0.5, z_max + 2.0));
    assert!(data.iter().all(|&v| v == 0.0));
    assert_eq!((s.window_entries, s.window_fallbacks), (0, cells));

    // A grid wholly beside the footprint: every walk leaves the hull, every
    // hull lookup misses, nothing is crossed.
    let beside = GridSpec2::covering(Vec2::new(20.0, 20.0), Vec2::new(22.0, 22.0), 4, 4);
    let (data, s) = render_both(&field, &index, &beside, (2.0, 3.7));
    assert!(data.iter().all(|&v| v == 0.0));
    assert_eq!(
        (s.window_entries, s.window_fallbacks, s.crossings),
        (0, 16, 0)
    );
}

/// Random points under the roof `z = 4 − x` over `[0, 4]²`, and the
/// wedge's six corners: the hull's top is the roof, two upward-facing
/// facets, so a floor at `z_lo` is above the hull exactly where
/// `x > 4 − z_lo`, while the hull's highest vertices are at `z = 4`.
fn wedge() -> Vec<Vec3> {
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let mut r = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        4.0 * ((s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64)
    };
    let mut pts: Vec<Vec3> = [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0)]
        .into_iter()
        .chain([(4.0, 4.0, 0.0), (0.0, 0.0, 4.0), (0.0, 4.0, 4.0)])
        .map(|(x, y, z)| Vec3::new(x, y, z))
        .collect();
    while pts.len() < 400 {
        let p = Vec3::new(r(), r(), r());
        if p.z < 4.0 - p.x {
            pts.push(p);
        }
    }
    pts
}

#[test]
fn a_floor_above_the_hull_crosses_nothing() {
    // Under the window [2, 3] a line with x > 2 has its whole segment above
    // the roof: it asks the hull projection once and crosses nothing, in
    // both kernels — not the tetrahedra below its floor.
    let pts = wedge();
    let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
    let index = HullIndex::build(&field);
    let grid = GridSpec2::covering(Vec2::new(0.113, 0.071), Vec2::new(3.913, 3.957), 19, 17);
    let window = (2.0, 3.0);
    let (data, s) = render_both(&field, &index, &grid, window);
    let opts = MarchOptions::new()
        .z_range(window.0, window.1)
        .parallel(false);
    let (mut above, mut crossings) = (0, 0);
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            let mut line = MarchStats::default();
            let v = cell_value(&field, &index, &grid, i, j, &opts, &mut line);
            assert_eq!(v.to_bits(), data[j * grid.nx + i].to_bits());
            crossings += line.crossings;
            if grid.center(i, j).x > 2.0 {
                assert_eq!(
                    (v, line.crossings, line.entry_hint_misses),
                    (0.0, 0, 1),
                    "cell ({i}, {j})"
                );
                above += 1;
            }
        }
    }
    assert!(above > 0 && s.perturbations == 0);
    assert_eq!(crossings, s.crossings);
    assert_eq!(
        s.window_entries + s.window_fallbacks,
        grid.num_cells() as u64
    );
}

#[test]
fn floor_point_on_a_vertex_is_a_tie_and_enters_by_the_hull() {
    // Lattice vertex (1, 1, 1): the floor point of the line ξ = (1, 1) with
    // z_lo = 1 *is* that vertex, so no tetrahedron strictly contains it.
    let pts = lattice();
    let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
    let index = HullIndex::build(&field);
    let xi = Vec2::new(1.0, 1.0);
    assert_eq!(window_entry_with_hint(&field, &index, xi, 1.0, NONE), None);
    // Off the lattice plane the same column still runs along an edge.
    assert_eq!(window_entry_with_hint(&field, &index, xi, 1.5, NONE), None);

    // The 1×1 grid whose single cell centre is exactly that column: the
    // hull-entered line is degenerate, perturbs, and re-enters by the same
    // rule — identically in both kernels.
    let grid = GridSpec2::covering(Vec2::new(0.5, 0.5), Vec2::new(1.5, 1.5), 1, 1);
    assert_eq!(grid.center(0, 0), xi);
    let (data, s) = render_both(&field, &index, &grid, (1.0, 2.0));
    assert!(s.window_fallbacks >= 1 && s.perturbations >= 1);
    assert!(data[0].is_finite() && data[0] > 0.0);

    // A vertex of a cloud in generic position, through the hook alone.
    let fx = &fixtures()[0];
    let field = DtfeField::build(&fx.pts, Mass::Uniform(1.0)).unwrap();
    let index = HullIndex::build(&field);
    let v = fx.pts[100];
    assert_eq!(
        window_entry_with_hint(&field, &index, v.xy(), v.z, NONE),
        None
    );
    let t = window_entry_with_hint(&field, &index, v.xy(), v.z + 1e-6, NONE)
        .expect("just above a vertex is inside one of its tetrahedra");
    assert!(strictly_contains(
        field.delaunay(),
        t,
        Vec3::new(v.x, v.y, v.z + 1e-6)
    ));
}

#[test]
fn sliver_window_and_additivity_across_a_shared_floor() {
    let fx = &fixtures()[0];
    let field = DtfeField::build(&fx.pts, Mass::Uniform(1.0)).unwrap();
    let index = HullIndex::build(&field);

    // A window far thinner than any tetrahedron: the segment meets one
    // tetrahedron on almost every line (two where it straddles a face).
    let (data, s) = render_both(&field, &index, &fx.grid, (2.5, 2.5 + 1e-6));
    assert!(s.window_entries > 0);
    assert!(
        s.crossings <= 2 * s.window_entries + s.window_fallbacks * 64,
        "{} crossings for {} entries",
        s.crossings,
        s.window_entries
    );
    let opts = MarchOptions::new().z_range(2.5, 2.5 + 1e-6).parallel(false);
    let (hull, _) = surface_density_reference_hull_entry(&field, &index, &fx.grid, &opts);
    assert!(same_bits(&hull.data, &data));

    // ∫[lo, c] + ∫[c, hi] = ∫[lo, hi]: the upper half enters at the floor
    // `c`, the lower half and the whole enter through the hull.
    let run = |xi: Vec2, zr: Option<(f64, f64)>| {
        let mut stats = MarchStats::default();
        let v = march_cell(&field, &index, xi, zr, 1e-9, 16, 7, &mut stats);
        (v, stats)
    };
    for xi in [
        Vec2::new(2.2, 2.6),
        Vec2::new(0.9, 4.1),
        Vec2::new(4.7, 1.3),
    ] {
        for c in [1.1, 2.0, 3.3, 4.9] {
            let (full, _) = run(xi, None);
            let (lo, s_lo) = run(xi, Some((-10.0, c)));
            let (hi, s_hi) = run(xi, Some((c, 10.0)));
            assert_eq!((s_lo.window_entries, s_hi.window_entries), (0, 1));
            assert!(
                (lo + hi - full).abs() < 1e-9,
                "{lo} + {hi} != {full} at {xi:?}, floor {c}"
            );
        }
    }
}

#[test]
fn no_hint_can_change_an_entry() {
    for fx in fixtures() {
        let field = DtfeField::build(&fx.pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        let del = field.delaunay();
        let slots = del.num_slots() as TetId;
        let ghost = del.ghost_tets().next().unwrap();
        let (lo, _) = fx.windows[0];
        // Lines inside and outside the footprint, generic and (on the
        // lattice) degenerate, at two floors.
        let lines = [
            fx.grid.center(3, 4),
            fx.grid.center(fx.grid.nx / 2, fx.grid.ny / 2),
            fx.grid.center(fx.grid.nx - 2, 1),
            fx.grid.center(0, 0),
            Vec2::new(1.0, 2.0),
            Vec2::new(-30.0, 2.0),
        ];
        for xi in lines {
            for z_lo in [lo, lo + 0.37] {
                let p = Vec3::new(xi.x, xi.y, z_lo);
                let cold = window_entry_with_hint(&field, &index, xi, z_lo, NONE);
                // The answer is the definition's, checked independently.
                match cold {
                    Some(t) => assert!(strictly_contains(del, t, p), "{}: {p:?}", fx.name),
                    None => {
                        if let Located::Finite(t) = del.locate_seeded(p, NONE, &mut 3) {
                            assert!(!strictly_contains(del, t, p), "{}: missed {p:?}", fx.name);
                        }
                    }
                }
                // Every slot — live, ghost or freed — and ids past the end.
                for hint in (0..slots).chain([ghost, slots, slots + 7, u32::MAX]) {
                    assert_eq!(
                        window_entry_with_hint(&field, &index, xi, z_lo, hint),
                        cold,
                        "{}: hint {hint} moved the entry of {p:?}",
                        fx.name
                    );
                }
            }
        }
    }
}
