//! Fixtures shared by the render tests: three clouds — clustered, a
//! jittered lattice, and one carrying exact duplicates — and the estimator
//! tables a tile fills over each one's mesh.

#![allow(dead_code)] // each test target uses its own subset

use dtfe_repro::core::{
    surface_density_reference, DtfeTable, FieldView, GridSpec2, HullIndex, MarchOptions, Mass,
    PsDtfeTable, RenderMesh, SlotValues, StochasticOptions, StochasticTable,
};
use dtfe_repro::delaunay::DelaunayBuilder;
use dtfe_repro::geometry::{Vec2, Vec3};

pub const SIDE: f64 = 6.0;

pub fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `grid` with empty cells of the same size added below it in x and y, so
/// the parallel march's 64-cell tile seams cross the middle of the original
/// cells: more than one tile, the last ones partial.
pub fn across_tile_seams(grid: &GridSpec2) -> GridSpec2 {
    let (px, py) = (64 - grid.nx / 2, 64 - grid.ny / 2);
    GridSpec2 {
        origin: grid.origin - Vec2::new(px as f64 * grid.cell.x, py as f64 * grid.cell.y),
        cell: grid.cell,
        nx: grid.nx + px,
        ny: grid.ny + py,
    }
}

/// A uniform background with three tight clumps on top.
pub fn clustered() -> Vec<Vec3> {
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
pub fn jittered_lattice() -> Vec<Vec3> {
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
pub fn with_duplicates() -> Vec<Vec3> {
    let mut r = rng(67);
    let mut pts: Vec<Vec3> = (0..320)
        .map(|_| Vec3::new(r() * SIDE, r() * SIDE, r() * SIDE))
        .collect();
    for i in (0..320).step_by(4) {
        pts.push(pts[i]);
    }
    pts
}

/// An exact 4³ lattice: on a grid whose cell centres fall on its vertex
/// columns and cube diagonals, centre lines of sight run along projected
/// vertices and edges.
pub fn exact_lattice() -> Vec<Vec3> {
    (0..64)
        .map(|i| Vec3::new((i % 4) as f64, (i / 4 % 4) as f64, (i / 16) as f64))
        .collect()
}

pub fn clouds() -> [(&'static str, Vec<Vec3>); 3] {
    [
        ("clustered", clustered()),
        ("lattice", jittered_lattice()),
        ("duplicates", with_duplicates()),
    ]
}

/// Unequal per-particle masses, so merged duplicates accumulate.
pub fn masses(n: usize) -> Mass {
    Mass::PerParticle((0..n).map(|i| 0.75 + (i % 5) as f64 * 0.125).collect())
}

pub fn velocities(pts: &[Vec3]) -> Vec<Vec3> {
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

pub fn fnv(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf29ce484222325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
    })
}

/// The estimator tables of one cloud, filled over one mesh as a tile entry
/// holds them.
pub struct Tables {
    pub mesh: RenderMesh,
    pub dtfe: DtfeTable,
    pub psdtfe: PsDtfeTable,
    pub stochastic: StochasticTable,
}

pub fn tables(pts: &[Vec3]) -> Tables {
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

impl Tables {
    /// The four estimators a tile serves, as the kernels render them.
    pub fn views(&self) -> [(&'static str, FieldView<'_>); 4] {
        [
            ("dtfe", self.mesh.view(self.dtfe.linear())),
            ("psdtfe", self.mesh.view(self.psdtfe.density())),
            ("veldiv", self.mesh.view(self.psdtfe.divergence())),
            ("stochastic:2", self.mesh.view(self.stochastic.linear())),
        ]
    }
}

/// The reference render of `|f|` over `grid` under `opts`' window: per
/// cell, the scale a projected cell's rounding is held to. The linear
/// tables here are positive, so for them that is the field itself.
pub fn magnitude(
    view: &FieldView<'_>,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> Vec<f64> {
    let opts = opts.clone().parallel(false);
    match view.values {
        SlotValues::Linear(_) => surface_density_reference(view, index, grid, &opts).0.data,
        SlotValues::Constant(c) => {
            let abs: Vec<f64> = c.iter().map(|v| v.abs()).collect();
            let abs_view = FieldView {
                values: SlotValues::Constant(&abs),
                ..*view
            };
            surface_density_reference(&abs_view, index, grid, &opts)
                .0
                .data
        }
    }
}

/// The projector's tolerance against the march: each cell within `1e-9`
/// of its `scale` (see [`magnitude`]), the grid sums within `1e-12` of the
/// summed scale.
pub fn assert_within_rounding(projected: &[f64], marched: &[f64], scale: &[f64], what: &str) {
    assert_eq!(projected.len(), marched.len(), "{what}: cells");
    for (c, ((p, m), s)) in projected.iter().zip(marched).zip(scale).enumerate() {
        assert!(
            (p - m).abs() <= 1e-9 * s,
            "{what}: cell {c}: projected {p} vs marched {m} (scale {s})"
        );
    }
    let (sp, sm) = (projected.iter().sum::<f64>(), marched.iter().sum::<f64>());
    let total: f64 = scale.iter().sum();
    assert!(
        (sp - sm).abs() <= 1e-12 * total,
        "{what}: grid sums {sp} vs {sm}"
    );
}
