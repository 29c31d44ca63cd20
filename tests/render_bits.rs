//! Rendered bits, pinned: FNV-1a checksums of every estimator's render.
//!
//! Three clouds — clustered, a jittered lattice, and one carrying exact
//! duplicates (merged vertices, accumulated masses) — are triangulated once
//! each into a [`RenderMesh`], and every table the service fills over a tile
//! mesh is rendered from it: DTFE, PS-DTFE density, PS-DTFE velocity
//! divergence and stochastic with two realizations. Each is rendered at full
//! depth with two samples per cell and under a z-window, through the
//! coherent march (`surface_density_by(…, Kernel::March)`) and through
//! `surface_density_reference`; both must give the pinned checksum. Each is
//! also rendered with centre lines on a dense grid, over the whole depth
//! and under the window, which projects: each render is held to the
//! reference march within the projector's rounding bound, then pinned. The
//! walking baseline over the DTFE field, whose point-located densities the
//! stochastic realizations are built from, is pinned beside them. A last
//! test holds each cell to its own lines of sight: marched alone through
//! `cell_value` it gives the reference march's bits, and tiled on any
//! thread count the serial render's, whichever kernel that selects.
//!
//! A change to how an interpolant is stored or read must pass this file
//! unedited: the checksums are the rendered bits, not a tolerance.

use dtfe_repro::core::marching::{cell_value, projects, surface_density_by, Kernel, MarchStats};
use dtfe_repro::core::{
    surface_density_reference, surface_density_walking, surface_density_with_index, DtfeField,
    GridSpec2, HullIndex, MarchOptions,
};
use dtfe_repro::delaunay::DelaunayBuilder;
use dtfe_repro::geometry::Vec2;

mod common;

use common::*;

/// `(cloud, estimator, render)` → checksum, each render taken through both
/// kernels and required to agree bit for bit before it is summed.
fn checksums() -> Vec<(String, u64)> {
    let grid = GridSpec2::covering(Vec2::new(0.4, 0.3), Vec2::new(5.6, 5.7), 17, 19);
    let window = MarchOptions::new().z_range(1.8, 4.1).parallel(false);
    // The march, named: centre lines under a window inside the mesh
    // project once a grid is dense enough.
    let renders = [
        ("full", MarchOptions::new().samples(2).parallel(false)),
        ("window", window.clone()),
    ];
    // Centre lines on a grid dense enough to project, over the whole depth
    // and under the window.
    let dense = GridSpec2::covering(Vec2::new(0.4, 0.3), Vec2::new(5.6, 5.7), 48, 48);
    let projected = [
        ("centre", MarchOptions::new().parallel(false)),
        ("window-centre", window),
    ];
    let mut out = Vec::new();
    for (cloud, pts) in clouds() {
        let t = tables(&pts);
        let idx = HullIndex::for_mesh(t.mesh.delaunay());
        for (estimator, view) in t.views() {
            for (render, opts) in &renders {
                let (kernel, ks) = surface_density_by(&view, &idx, &grid, opts, Kernel::March);
                let (reference, rs) = surface_density_reference(&view, &idx, &grid, opts);
                let what = format!("{cloud}/{estimator}/{render}");
                assert_eq!(fnv(&kernel.data), fnv(&reference.data), "{what}: kernels");
                assert_eq!(ks.crossings, rs.crossings, "{what}: crossings");
                out.push((what, fnv(&kernel.data)));
            }
            for (render, opts) in &projected {
                let what = format!("{cloud}/{estimator}/{render}");
                assert!(projects(&view, &dense, opts), "{what}: marched");
                let (projected, ps) = surface_density_with_index(&view, &idx, &dense, opts);
                let (reference, rs) = surface_density_reference(&view, &idx, &dense, opts);
                let scale = magnitude(&view, &idx, &dense, opts);
                assert_within_rounding(&projected.data, &reference.data, &scale, &what);
                // Under a window, a line the march enters through the hull
                // also crosses tetrahedra below the floor (`tests/projector.rs`
                // holds pairs to the crossings of the lines that reach it).
                match opts.z_range {
                    None => assert_eq!(ps.crossings, rs.crossings, "{what}: pairs"),
                    Some(_) => assert!(ps.crossings <= rs.crossings, "{what}: pairs"),
                }
                out.push((what, fnv(&projected.data)));
            }
        }
        let field = DtfeField::from_delaunay_for_inputs(
            DelaunayBuilder::new().build(&pts).unwrap(),
            pts.len(),
            masses(pts.len()),
        );
        let walked =
            surface_density_walking(&field, &grid, &MarchOptions::new().z_range(1.8, 4.1), 24);
        out.push((format!("{cloud}/dtfe/walking"), fnv(&walked.data)));
    }
    out
}

/// Taken at the commit before interpolant tables stopped storing `x₀`; the
/// twelve `*/full` (two-sample) checksums re-taken at the commit after
/// `3512e57`, where every line of sight began drawing its jitter and its
/// `Perturb` restarts from its own key instead of its row's stream. The
/// twelve `*/centre` checksums are the element projector's, taken when it
/// was added; the twelve `*/window-centre` ones when it began rendering
/// windows inside the mesh from the tetrahedra the window's box meets.
const PINNED: [(&str, u64); 51] = [
    ("clustered/dtfe/full", 0xd8c471f09e98fb2c),
    ("clustered/dtfe/window", 0x2962dd6483c67e4f),
    ("clustered/dtfe/centre", 0x8dc8d8335de4f4b1),
    ("clustered/dtfe/window-centre", 0x2c2881496d56becb),
    ("clustered/psdtfe/full", 0x091ff6427b3eaeab),
    ("clustered/psdtfe/window", 0x9ef37ccd66d5dce2),
    ("clustered/psdtfe/centre", 0xac31a7cb2fc6e1c5),
    ("clustered/psdtfe/window-centre", 0x55196e815e4b11b7),
    ("clustered/veldiv/full", 0x1b9c7deb555fee4b),
    ("clustered/veldiv/window", 0xbdc44737a560ad7f),
    ("clustered/veldiv/centre", 0xc9d0598cd3c1b3cc),
    ("clustered/veldiv/window-centre", 0xd5c7f44c20f0cdee),
    ("clustered/stochastic:2/full", 0xb010e9a1702dea2f),
    ("clustered/stochastic:2/window", 0x9cc0af9740e276ab),
    ("clustered/stochastic:2/centre", 0x1a941460e74584e6),
    ("clustered/stochastic:2/window-centre", 0x5db32ccee74a9388),
    ("clustered/dtfe/walking", 0x1c55a0649db04f44),
    ("lattice/dtfe/full", 0xc9035980e7539dcf),
    ("lattice/dtfe/window", 0x59c61309db6676c5),
    ("lattice/dtfe/centre", 0x71a5c9b676a12322),
    ("lattice/dtfe/window-centre", 0xd60581974c50d413),
    ("lattice/psdtfe/full", 0xaeab5bc2c3e7d75c),
    ("lattice/psdtfe/window", 0x8eb6c35514795fb2),
    ("lattice/psdtfe/centre", 0x9442ac235cce2bec),
    ("lattice/psdtfe/window-centre", 0xda646f49e47469e3),
    ("lattice/veldiv/full", 0xa5fc0465e69159f9),
    ("lattice/veldiv/window", 0x7c0f342becb70423),
    ("lattice/veldiv/centre", 0x80a261977278046c),
    ("lattice/veldiv/window-centre", 0x03df4ebc163f7760),
    ("lattice/stochastic:2/full", 0xf63e27ad6d2077be),
    ("lattice/stochastic:2/window", 0xbbb0093b6a97ec76),
    ("lattice/stochastic:2/centre", 0x819b3291037faab6),
    ("lattice/stochastic:2/window-centre", 0xed295acb791d4b62),
    ("lattice/dtfe/walking", 0x95a0b005777d8890),
    ("duplicates/dtfe/full", 0xf98f0ab3f8f51cfd),
    ("duplicates/dtfe/window", 0x1791171a8c8a8901),
    ("duplicates/dtfe/centre", 0x34eb67f7f605d17e),
    ("duplicates/dtfe/window-centre", 0x643c55e9961c80f5),
    ("duplicates/psdtfe/full", 0x19dda70f1b4b3946),
    ("duplicates/psdtfe/window", 0x473abdf26306cb2d),
    ("duplicates/psdtfe/centre", 0xd2199d7cd9ae842c),
    ("duplicates/psdtfe/window-centre", 0xe264eab100ec02bb),
    ("duplicates/veldiv/full", 0x9744e86d93a277d7),
    ("duplicates/veldiv/window", 0x5c65b58711ebe618),
    ("duplicates/veldiv/centre", 0xe480e2cf7df6d03f),
    ("duplicates/veldiv/window-centre", 0x327f3d2cd3f6272a),
    ("duplicates/stochastic:2/full", 0x7d581755124966e3),
    ("duplicates/stochastic:2/window", 0xf2781180f88452a8),
    ("duplicates/stochastic:2/centre", 0x17b64c70079929a6),
    ("duplicates/stochastic:2/window-centre", 0x08f07585b6721479),
    ("duplicates/dtfe/walking", 0xf8092956b4bc9af0),
];

#[test]
fn every_estimator_renders_its_pinned_bits_through_both_kernels() {
    let got = checksums();
    let table: String = got
        .iter()
        .map(|(what, h)| format!("    (\"{what}\", {h:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(w, h)| (w.to_string(), h)).collect();
    assert!(got == pinned, "rendered bits moved; now:\n{table}");
}

/// Every row is anchored where the kernels read `x₀`, the tetrahedron's
/// first vertex in the mesh: a vertex-field row's `rho0` is that vertex's
/// value bit for bit. (A PS-DTFE table is one number per simplex, so it
/// has no anchor.)
#[test]
fn every_table_row_is_anchored_at_its_first_vertex() {
    use dtfe_repro::core::density::TetInterp;
    use dtfe_repro::core::{FieldEstimator, ScalarField, SlotValues};
    for (cloud, pts) in clouds() {
        let t = tables(&pts);
        let del = t.mesh.delaunay();
        let heights: Vec<f64> = del.vertices().iter().map(|p| p.z * p.x).collect();
        let scalar = ScalarField::new(&t.mesh, heights.clone());
        let SlotValues::Linear(scalar_rows) = scalar.view().values else {
            panic!("a vertex field has linear rows");
        };
        let vertex_fields: [(&str, &[TetInterp], &[f64]); 3] = [
            ("dtfe", t.dtfe.interp(), t.dtfe.vertex_densities()),
            (
                "stochastic",
                t.stochastic.interp(),
                t.stochastic.vertex_densities(),
            ),
            ("scalar", scalar_rows, &heights),
        ];
        for (name, interp, values) in vertex_fields {
            for s in del.finite_tets() {
                let v0 = del.tet(s).verts[0] as usize;
                let rho0 = interp[s as usize].rho0;
                assert_eq!(
                    rho0.to_bits(),
                    values[v0].to_bits(),
                    "{cloud}/{name}: slot {s}"
                );
            }
        }
    }
}

/// A cell's value is a function of its own lines of sight: the cell
/// marched alone gives the reference march's bits and counters, and the
/// tiled render on any number of threads the serial render's — perturbed
/// lines and tiles cut by the grid's edge included.
#[test]
fn every_cell_renders_the_same_bits_alone_and_in_any_tile() {
    let fixtures = [
        (
            "duplicates",
            with_duplicates(),
            GridSpec2::covering(Vec2::new(0.4, 0.3), Vec2::new(5.6, 5.7), 17, 19),
        ),
        (
            "lattice",
            exact_lattice(),
            GridSpec2::covering(Vec2::new(-0.125, -0.125), Vec2::new(3.125, 3.125), 13, 13),
        ),
    ];
    let fixtures = fixtures.map(|(cloud, pts, grid)| (cloud, pts, across_tile_seams(&grid)));
    for (cloud, pts, grid) in fixtures {
        let field = DtfeField::build(&pts, masses(pts.len())).unwrap();
        let idx = HullIndex::build(&field);
        let mut perturbations = 0;
        // Centre lines, jittered lines, and centre lines under a window
        // inside the mesh, whichever kernel each selects; the reference
        // march perturbs on the lattice.
        let renders = [
            ("samples 1", MarchOptions::new().parallel(false)),
            ("samples 3", MarchOptions::new().samples(3).parallel(false)),
            (
                "window",
                MarchOptions::new().z_range(0.5, 2.5).parallel(false),
            ),
        ];
        for (render, opts) in renders {
            let what = format!("{cloud}/{render}");
            let (serial, ss) = surface_density_with_index(&field, &idx, &grid, &opts);
            // `cell_value` marches whatever the render selects.
            let (marched, ms) = surface_density_reference(&field, &idx, &grid, &opts);
            perturbations += ms.perturbations;
            let mut alone_stats = MarchStats::default();
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    let alone = cell_value(&field, &idx, &grid, i, j, &opts, &mut alone_stats);
                    assert_eq!(
                        alone.to_bits(),
                        marched.data[j * grid.nx + i].to_bits(),
                        "{what}: cell ({i}, {j}) alone"
                    );
                }
            }
            assert_eq!(
                alone_stats.crossings, ms.crossings,
                "{what}: crossings alone"
            );
            assert_eq!(
                alone_stats.perturbations, ms.perturbations,
                "{what}: perturbations alone"
            );
            let tiled_opts = opts.clone().parallel(true);
            for threads in [1, 2, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let (tiled, ts) =
                    pool.install(|| surface_density_with_index(&field, &idx, &grid, &tiled_opts));
                let at = format!("{what}, {threads} threads");
                assert_eq!(fnv(&tiled.data), fnv(&serial.data), "{at}: data");
                assert_eq!(ts.crossings, ss.crossings, "{at}: crossings");
                assert_eq!(ts.perturbations, ss.perturbations, "{at}: perturbations");
            }
        }
        if cloud == "lattice" {
            assert!(perturbations > 0, "the lattice fixture did not perturb");
        }
    }
}
