//! Rendered bits, pinned: FNV-1a checksums of every estimator's render.
//!
//! Three clouds — clustered, a jittered lattice, and one carrying exact
//! duplicates (merged vertices, accumulated masses) — are triangulated once
//! each into a [`RenderMesh`], and every table the service fills over a tile
//! mesh is rendered from it: DTFE, PS-DTFE density, PS-DTFE velocity
//! divergence and stochastic with two realizations. Each is rendered at full
//! depth with two samples per cell and under a z-window, through the
//! coherent kernel and through `surface_density_reference`; both must give
//! the pinned checksum. The walking baseline over the DTFE field, whose
//! point-located densities the stochastic realizations are built from, is
//! pinned beside them.
//!
//! A change to how an interpolant is stored or read must pass this file
//! unedited: the checksums are the rendered bits, not a tolerance.

use dtfe_repro::core::{
    surface_density_reference, surface_density_walking, surface_density_with_index, DtfeField,
    DtfeTable, FieldView, GridSpec2, HullIndex, MarchOptions, Mass, PsDtfeTable, RenderMesh,
    StochasticOptions, StochasticTable, WalkOptions,
};
use dtfe_repro::delaunay::DelaunayBuilder;
use dtfe_repro::geometry::{Vec2, Vec3};

const SIDE: f64 = 6.0;

fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A uniform background with three tight clumps on top.
fn clustered() -> Vec<Vec3> {
    let mut r = rng(41);
    let mut pts: Vec<Vec3> = (0..220)
        .map(|_| Vec3::new(r() * SIDE, r() * SIDE, r() * SIDE))
        .collect();
    for c in [
        Vec3::new(1.7, 1.4, 2.2),
        Vec3::new(4.1, 2.7, 3.3),
        Vec3::new(2.9, 4.6, 1.6),
    ] {
        for _ in 0..110 {
            pts.push(c + Vec3::new(r() - 0.5, r() - 0.5, r() - 0.5) * 0.7);
        }
    }
    pts
}

/// A 7³ lattice, each point moved by up to a fifth of the spacing.
fn jittered_lattice() -> Vec<Vec3> {
    let mut r = rng(53);
    let n = 7;
    let h = SIDE / (n - 1) as f64;
    (0..n * n * n)
        .map(|i| {
            let p = Vec3::new((i % n) as f64, (i / n % n) as f64, (i / (n * n)) as f64) * h;
            p + Vec3::new(r() - 0.5, r() - 0.5, r() - 0.5) * (0.4 * h)
        })
        .collect()
}

/// Every fourth point twice, the copies appended after the originals.
fn with_duplicates() -> Vec<Vec3> {
    let mut r = rng(67);
    let mut pts: Vec<Vec3> = (0..320)
        .map(|_| Vec3::new(r() * SIDE, r() * SIDE, r() * SIDE))
        .collect();
    for i in (0..320).step_by(4) {
        pts.push(pts[i]);
    }
    pts
}

fn clouds() -> [(&'static str, Vec<Vec3>); 3] {
    [
        ("clustered", clustered()),
        ("lattice", jittered_lattice()),
        ("duplicates", with_duplicates()),
    ]
}

/// Unequal per-particle masses, so merged duplicates accumulate.
fn masses(n: usize) -> Mass {
    Mass::PerParticle((0..n).map(|i| 0.75 + (i % 5) as f64 * 0.125).collect())
}

fn velocities(pts: &[Vec3]) -> Vec<Vec3> {
    pts.iter()
        .map(|p| {
            Vec3::new(
                (0.8 * p.y).sin(),
                0.2 * p.x * p.z,
                (0.6 * p.x).cos() - 0.5 * p.z,
            )
        })
        .collect()
}

fn fnv(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf29ce484222325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
    })
}

/// The estimator tables of one cloud, filled over one mesh as a tile entry
/// holds them.
struct Tables {
    mesh: RenderMesh,
    dtfe: DtfeTable,
    psdtfe: PsDtfeTable,
    stochastic: StochasticTable,
}

fn tables(pts: &[Vec3]) -> Tables {
    let mass = masses(pts.len());
    let mesh = RenderMesh::new(DelaunayBuilder::new().build(pts).unwrap());
    let dtfe = DtfeTable::build(&mesh, pts.len(), &mass);
    let psdtfe = PsDtfeTable::build(mesh.delaunay(), pts.len(), &velocities(pts), &mass).unwrap();
    let opts = StochasticOptions::new().realizations(2).seed(0x5EED_0B17);
    let stochastic = StochasticTable::build(mesh.delaunay(), pts, &mass, opts);
    Tables {
        mesh,
        dtfe,
        psdtfe,
        stochastic,
    }
}

/// `(cloud, estimator, render)` → checksum, each render taken through both
/// kernels and required to agree bit for bit before it is summed.
fn checksums() -> Vec<(String, u64)> {
    let grid = GridSpec2::covering(Vec2::new(0.4, 0.3), Vec2::new(5.6, 5.7), 17, 19);
    let renders = [
        ("full", MarchOptions::new().samples(2).parallel(false)),
        (
            "window",
            MarchOptions::new().z_range(1.8, 4.1).parallel(false),
        ),
    ];
    let mut out = Vec::new();
    for (cloud, pts) in clouds() {
        let t = tables(&pts);
        let idx = HullIndex::for_mesh(t.mesh.delaunay());
        let views: [(&str, FieldView<'_>); 4] = [
            ("dtfe", t.mesh.view(t.dtfe.interp())),
            ("psdtfe", t.mesh.view(t.psdtfe.density())),
            ("veldiv", t.mesh.view(t.psdtfe.divergence())),
            ("stochastic:2", t.mesh.view(t.stochastic.interp())),
        ];
        for (estimator, view) in views {
            for (render, opts) in &renders {
                let (kernel, ks) = surface_density_with_index(&view, &idx, &grid, opts);
                let (reference, rs) = surface_density_reference(&view, &idx, &grid, opts);
                let what = format!("{cloud}/{estimator}/{render}");
                assert_eq!(fnv(&kernel.data), fnv(&reference.data), "{what}: kernels");
                assert_eq!(ks.crossings, rs.crossings, "{what}: crossings");
                out.push((what, fnv(&kernel.data)));
            }
        }
        let field = DtfeField::from_delaunay_for_inputs(
            DelaunayBuilder::new().build(&pts).unwrap(),
            pts.len(),
            masses(pts.len()),
        );
        let walked =
            surface_density_walking(&field, &grid, &WalkOptions::new(24).z_range(1.8, 4.1));
        out.push((format!("{cloud}/dtfe/walking"), fnv(&walked.data)));
    }
    out
}

/// Taken at the commit before interpolant tables stopped storing `x₀`.
const PINNED: [(&str, u64); 27] = [
    ("clustered/dtfe/full", 0xd95c2ebf4773e888),
    ("clustered/dtfe/window", 0x2962dd6483c67e4f),
    ("clustered/psdtfe/full", 0x7204d55bf7768ac2),
    ("clustered/psdtfe/window", 0x9ef37ccd66d5dce2),
    ("clustered/veldiv/full", 0xd7a19bf4cc591f24),
    ("clustered/veldiv/window", 0xbdc44737a560ad7f),
    ("clustered/stochastic:2/full", 0x794145036df5c091),
    ("clustered/stochastic:2/window", 0x9cc0af9740e276ab),
    ("clustered/dtfe/walking", 0x1c55a0649db04f44),
    ("lattice/dtfe/full", 0x6e41eed487486b89),
    ("lattice/dtfe/window", 0x59c61309db6676c5),
    ("lattice/psdtfe/full", 0x2e4e6238e1c68abe),
    ("lattice/psdtfe/window", 0x8eb6c35514795fb2),
    ("lattice/veldiv/full", 0x47349f856f70d00a),
    ("lattice/veldiv/window", 0x7c0f342becb70423),
    ("lattice/stochastic:2/full", 0x7291bc4d1467c1f9),
    ("lattice/stochastic:2/window", 0xbbb0093b6a97ec76),
    ("lattice/dtfe/walking", 0x95a0b005777d8890),
    ("duplicates/dtfe/full", 0xeee8f4fcb672961e),
    ("duplicates/dtfe/window", 0x1791171a8c8a8901),
    ("duplicates/psdtfe/full", 0xf4718cae9326cb34),
    ("duplicates/psdtfe/window", 0x473abdf26306cb2d),
    ("duplicates/veldiv/full", 0x1688f6ec830e1207),
    ("duplicates/veldiv/window", 0x5c65b58711ebe618),
    ("duplicates/stochastic:2/full", 0xf205903274a53120),
    ("duplicates/stochastic:2/window", 0xf2781180f88452a8),
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
        let scalar = ScalarField::new(del, heights.clone());
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
