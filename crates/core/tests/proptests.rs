//! Property-based tests of the DTFE estimator and the marching kernel.

use dtfe_core::density::{DtfeField, Mass};
use dtfe_core::estimator::FieldEstimator;
use dtfe_core::grid::GridSpec2;
use dtfe_core::marching::{
    march_cell, surface_density_by, surface_density_reference, surface_density_with_index,
    surface_density_with_stats, HullIndex, Kernel, MarchOptions, MarchStats,
};
use dtfe_core::psdtfe::PsDtfeField;
use dtfe_core::stochastic::{StochasticField, StochasticOptions};
use dtfe_geometry::{Vec2, Vec3};
use proptest::prelude::*;

fn cloud_strategy(min: usize, max: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (0.0f64..8.0, 0.0f64..8.0, 0.0f64..8.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        min..max,
    )
}

/// `grid` with empty cells of the same size added below it in x and y, so
/// the parallel march's 64-cell tile seams cross the middle of the original
/// cells: more than one tile, the last ones partial.
fn across_tile_seams(grid: GridSpec2) -> GridSpec2 {
    let (px, py) = (64 - grid.nx / 2, 64 - grid.ny / 2);
    GridSpec2 {
        origin: grid.origin - Vec2::new(px as f64 * grid.cell.x, py as f64 * grid.cell.y),
        cell: grid.cell,
        nx: grid.nx + px,
        ny: grid.ny + py,
    }
}

/// `grid` projected serially, banded on 2 threads and scanning every
/// tetrahedron, against one one-column render per column: the same bits and
/// pairs. `grid`'s centres must be exact.
fn column_by_column<E: FieldEstimator + ?Sized>(field: &E, grid: &GridSpec2, opts: &MarchOptions) {
    let index = HullIndex::build(field);
    let project =
        |g: &GridSpec2, o: &MarchOptions, kernel| surface_density_by(field, &index, g, o, kernel);
    let (serial, ss) = project(grid, opts, Kernel::Project);
    let (scanned, sc) = project(grid, opts, Kernel::ProjectScan);
    prop_assert_eq!(&serial.data, &scanned.data);
    prop_assert_eq!(ss, sc);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let (banded, sb) =
        pool.install(|| project(grid, &opts.clone().parallel(true), Kernel::Project));
    prop_assert_eq!(&serial.data, &banded.data);
    prop_assert_eq!(ss, sb);
    let mut pairs = 0;
    for i in 0..grid.nx {
        let column = GridSpec2 {
            origin: Vec2::new(grid.origin.x + i as f64 * grid.cell.x, grid.origin.y),
            nx: 1,
            ..*grid
        };
        prop_assert_eq!(column.center(0, 0), grid.center(i, 0));
        let (alone, sa) = project(&column, opts, Kernel::Project);
        for j in 0..grid.ny {
            prop_assert_eq!(
                alone.data[j].to_bits(),
                serial.data[j * grid.nx + i].to_bits()
            );
        }
        pairs += sa.crossings;
    }
    prop_assert_eq!(pairs, ss.crossings);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dtfe_conserves_mass_on_random_clouds(pts in cloud_strategy(12, 120)) {
        let Ok(field) = DtfeField::build(&pts, Mass::Uniform(1.5)) else {
            return Ok(()); // degenerate draw
        };
        let m = field.integrated_mass();
        let expect = 1.5 * pts.len() as f64;
        prop_assert!((m - expect).abs() < 1e-8 * expect, "mass {m} vs {expect}");
    }

    #[test]
    fn vertex_densities_positive_and_finite(pts in cloud_strategy(12, 80)) {
        let Ok(field) = DtfeField::build(&pts, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        for (v, &rho) in field.vertex_densities().iter().enumerate() {
            prop_assert!(rho.is_finite() && rho > 0.0, "vertex {v}: {rho}");
        }
    }

    #[test]
    fn marching_never_negative_and_finite(pts in cloud_strategy(16, 100)) {
        let Ok(field) = DtfeField::build(&pts, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        let grid = GridSpec2::covering(Vec2::new(-1.0, -1.0), Vec2::new(9.0, 9.0), 16, 16);
        let (sigma, stats) = surface_density_with_stats(
            &field,
            &grid,
            &MarchOptions::new().parallel(false),
        );
        prop_assert_eq!(stats.failures, 0);
        for &v in &sigma.data {
            prop_assert!(v.is_finite() && v >= 0.0, "Σ = {}", v);
        }
        // The grid covers the whole hull: total within a few percent of the
        // particle count (x-y discretization only).
        let m = sigma.total_mass();
        prop_assert!(
            (m - pts.len() as f64).abs() < 0.25 * pts.len() as f64,
            "grid mass {} vs {}",
            m,
            pts.len()
        );
    }

    #[test]
    fn z_split_additivity_random_rays(
        pts in cloud_strategy(16, 80),
        ox in 1.0f64..7.0,
        oy in 1.0f64..7.0,
        zcut in 0.5f64..7.5,
    ) {
        let Ok(field) = DtfeField::build(&pts, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        let index = HullIndex::build(&field);
        let xi = Vec2::new(ox, oy);
        let run = |zr: Option<(f64, f64)>| {
            let mut stats = MarchStats::default();
            march_cell(&field, &index, xi, zr, &mut stats)
        };
        let full = run(Some((-1.0, 9.0)));
        let lo = run(Some((-1.0, zcut)));
        let hi = run(Some((zcut, 9.0)));
        prop_assert!((lo + hi - full).abs() < 1e-6 * (1.0 + full), "{} + {} != {}", lo, hi, full);
    }

    #[test]
    fn render_bit_identical_across_threads_and_tiles(
        pts in cloud_strategy(16, 100),
        zwin in (0.5f64..4.0, 4.5f64..7.5, 0usize..2),
        samples in 1usize..3,
    ) {
        // The coherent kernel's contract: the reference kernel, the serial
        // coherent march, and the tiled parallel march at any worker count
        // produce bit-identical fields; and the render — marched or
        // projected, whichever it selects — gives its serial bits at any
        // worker count.
        let Ok(field) = DtfeField::build(&pts, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        let index = HullIndex::build(&field);
        let grid = GridSpec2::covering(Vec2::new(-0.5, -0.5), Vec2::new(8.5, 8.5), 19, 17);
        let grid = across_tile_seams(grid);
        let mut opts = MarchOptions::new().samples(samples).parallel(false);
        if zwin.2 == 1 {
            opts = opts.z_range(zwin.0, zwin.1);
        }
        let march = |o: &MarchOptions| surface_density_by(&field, &index, &grid, o, Kernel::March);
        let (reference, sr) = surface_density_reference(&field, &index, &grid, &opts);
        let (serial, ss) = march(&opts);
        prop_assert_eq!(&reference.data, &serial.data);
        prop_assert_eq!(sr.crossings, ss.crossings);
        prop_assert_eq!(sr.perturbations, ss.perturbations);
        prop_assert_eq!(sr.failures, ss.failures);
        prop_assert!(ss.edge_evals <= sr.edge_evals);
        let (rendered, rs) = surface_density_with_index(&field, &index, &grid, &opts);
        let par_opts = opts.parallel(true);
        for threads in [1usize, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (par, sp) = pool.install(|| march(&par_opts));
            prop_assert_eq!(&serial.data, &par.data, "threads {}", threads);
            prop_assert_eq!(ss.crossings, sp.crossings);
            prop_assert_eq!(ss.perturbations, sp.perturbations);
            let (par, sp) =
                pool.install(|| surface_density_with_index(&field, &index, &grid, &par_opts));
            prop_assert_eq!(&rendered.data, &par.data, "threads {}", threads);
            prop_assert_eq!(rs.crossings, sp.crossings);
            prop_assert_eq!(rs.perturbations, sp.perturbations);
        }
    }

    #[test]
    fn windowed_projection_gathers_what_a_scan_projects(
        pts in cloud_strategy(16, 120),
        win in (-1.0f64..8.0, 0.01f64..5.0),
        corner in (-2.0f64..8.0, -2.0f64..8.0),
        side in 0.5f64..9.0,
        cells in 2usize..40,
    ) {
        // The projector under a window visits only the tetrahedra it
        // gathers from the one holding the render box's centre, or scans
        // when that centre is in none: the bits and pairs are the scan's
        // over the whole mesh, serial or banded, wherever the grid and the
        // window fall — inside the hull, across its edge, or beside it.
        let Ok(field) = DtfeField::build(&pts, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        let index = HullIndex::build(&field);
        let lo = Vec2::new(corner.0, corner.1);
        let grid = GridSpec2::covering(lo, lo + Vec2::new(side, side), cells, cells);
        let opts = MarchOptions::new().z_range(win.0, win.0 + win.1).parallel(false);
        let project = |o: &MarchOptions, kernel| surface_density_by(&field, &index, &grid, o, kernel);
        let (scanned, ss) = project(&opts, Kernel::ProjectScan);
        let (gathered, gs) = project(&opts, Kernel::Project);
        prop_assert_eq!(&scanned.data, &gathered.data);
        prop_assert_eq!(ss, gs);
        let par_opts = opts.parallel(true);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (banded, bs) = pool.install(|| project(&par_opts, Kernel::Project));
        prop_assert_eq!(&scanned.data, &banded.data);
        prop_assert_eq!(ss, bs);
    }

    #[test]
    fn projected_rows_equal_one_column_renders(
        pts in cloud_strategy(16, 120),
        win in (0u8..3, -1.0f64..8.0, 0.01f64..5.0),
        corner in (-8i32..32, -8i32..32),
        cell in (1u32..24, 1u32..24),
        size in (1usize..24, 1usize..24),
    ) {
        // The projector fills a row's covered cells two at a time, and one
        // alone at the end of an odd span. On a dyadic grid every centre is
        // exact, so a one-column grid's centre is its column's centre in the
        // whole grid, and a one-column render takes the one-cell path
        // everywhere: each column has its bits and pairs, serial, banded and
        // scanned, for a constant and a linear field.
        let Ok(dtfe) = DtfeField::build(&pts, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        let vels: Vec<Vec3> = pts.iter().map(|p| Vec3::new(p.y - 4.0, 4.0 - p.x, 0.5)).collect();
        let Ok(psdtfe) = PsDtfeField::build(&pts, &vels, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        let grid = GridSpec2 {
            origin: Vec2::new(corner.0 as f64 / 4.0, corner.1 as f64 / 4.0),
            cell: Vec2::new(cell.0 as f64 / 16.0, cell.1 as f64 / 16.0),
            nx: size.0,
            ny: size.1,
        };
        let mut opts = MarchOptions::new().parallel(false);
        if let (1.., lo, depth) = win {
            opts = opts.z_range(lo, lo + depth); // full depth in one case of three
        }
        column_by_column(&dtfe, &grid, &opts);
        column_by_column(&psdtfe, &grid, &opts);
    }

    #[test]
    fn degenerate_vertex_aligned_grids_bit_identical(n in 3usize..6) {
        // Exact lattice with grid cell centres landing exactly on lattice
        // vertices: every line of sight over the mesh runs along projected
        // vertices and edges. The exact edge sides march each as the line
        // moved by the symbolic offset — no restart, no failure — the
        // tiles the mesh straddles match the serial render, and the march
        // crosses exactly the projector's pairs.
        let pts: Vec<Vec3> = (0..n)
            .flat_map(|i| {
                (0..n).flat_map(move |j| {
                    (0..n).map(move |k| Vec3::new(i as f64, j as f64, k as f64))
                })
            })
            .collect();
        let Ok(field) = DtfeField::build(&pts, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        let index = HullIndex::build(&field);
        let hi = n as f64 - 0.5;
        let grid = GridSpec2::covering(Vec2::new(-0.5, -0.5), Vec2::new(hi, hi), n, n);
        let grid = across_tile_seams(grid);
        let opts = MarchOptions::new().parallel(false);
        let (serial, ss) = surface_density_with_index(&field, &index, &grid, &opts);
        let (reference, sr) = surface_density_reference(&field, &index, &grid, &opts);
        prop_assert_eq!(&reference.data, &serial.data);
        prop_assert_eq!((sr.crossings, sr.failures), (ss.crossings, ss.failures));
        prop_assert_eq!((ss.perturbations, ss.failures), (0, 0));
        let (_, ps) = surface_density_by(&field, &index, &grid, &opts, Kernel::ProjectScan);
        prop_assert_eq!(ps.crossings, ss.crossings);
        let par_opts = MarchOptions::new().parallel(true);
        for threads in [1usize, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (par, sp) =
                pool.install(|| surface_density_with_index(&field, &index, &grid, &par_opts));
            prop_assert_eq!(&serial.data, &par.data, "threads {}", threads);
            prop_assert_eq!(ss.perturbations, sp.perturbations);
            prop_assert_eq!(ss.crossings, sp.crossings);
        }
    }

    #[test]
    fn render_bit_identical_across_estimator_backends(
        pts in cloud_strategy(24, 80),
    ) {
        // The kernel is generic over `FieldEstimator`: every backend named
        // by `EstimatorKind` (DTFE, PS-DTFE, its velocity divergence, and
        // the stochastic reconstruction) must march bit-identically to the
        // reference kernel at every thread count.
        fn check<E: FieldEstimator + ?Sized>(field: &E, grid: &GridSpec2, label: &str) {
            let index = HullIndex::build(field);
            let opts = MarchOptions::new().parallel(false);
            let march = |o: &MarchOptions| surface_density_by(field, &index, grid, o, Kernel::March);
            let (reference, sr) = surface_density_reference(field, &index, grid, &opts);
            let (serial, ss) = march(&opts);
            prop_assert_eq!(&reference.data, &serial.data, "{} serial", label);
            prop_assert_eq!(sr.crossings, ss.crossings);
            prop_assert_eq!(sr.perturbations, ss.perturbations);
            let par_opts = opts.parallel(true);
            for threads in [1usize, 2, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let (par, sp) = pool.install(|| march(&par_opts));
                prop_assert_eq!(&reference.data, &par.data, "{} threads {}", label, threads);
                prop_assert_eq!(sr.crossings, sp.crossings);
                prop_assert_eq!(sr.perturbations, sp.perturbations);
            }
        }

        let Ok(dtfe) = DtfeField::build(&pts, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        // Synthesized smooth velocity field (rotation + z shear).
        let vels: Vec<Vec3> = pts
            .iter()
            .map(|p| Vec3::new(p.y - 4.0, 4.0 - p.x, 0.25 * (p.z - 4.0)))
            .collect();
        let Ok(ps) = PsDtfeField::build(&pts, &vels, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        let sto_opts = StochasticOptions { realizations: 2, sigma: 0.05, seed: 7 };
        let Ok(sto) = StochasticField::build(&pts, Mass::Uniform(1.0), sto_opts) else {
            return Ok(());
        };
        let grid = GridSpec2::covering(Vec2::new(-0.5, -0.5), Vec2::new(8.5, 8.5), 13, 11);
        let grid = across_tile_seams(grid);
        check(&dtfe, &grid, "dtfe");
        check(&ps, &grid, "psdtfe");
        check(&ps.divergence(), &grid, "veldiv");
        check(&sto, &grid, "stochastic");
    }

    #[test]
    fn per_particle_masses_scale_linearly(pts in cloud_strategy(12, 50), scale in 0.1f64..10.0) {
        let Ok(a) = DtfeField::build(&pts, Mass::Uniform(1.0)) else {
            return Ok(());
        };
        let Ok(b) = DtfeField::build(&pts, Mass::Uniform(scale)) else {
            return Ok(());
        };
        for (x, y) in a.vertex_densities().iter().zip(b.vertex_densities()) {
            prop_assert!((y - x * scale).abs() < 1e-9 * y.abs().max(1.0));
        }
    }
}
