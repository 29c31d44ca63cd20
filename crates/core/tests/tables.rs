//! One mesh, many tables: an estimator table built over a shared
//! [`RenderMesh`] is the owning field's table, float for float.
//!
//! The two places sharing a mesh could silently move a float are the star
//! volumes (a float sum whose bits follow the slot order it runs in) and the
//! stochastic mass integral (likewise); PS-DTFE moves nothing but slot
//! numbers, which a render must not be able to see. Each is held here on a
//! clustered cloud, a lattice (every point cospherical with its neighbours)
//! and a cloud carrying duplicates (merged vertices, accumulated masses).

use dtfe_core::density::TetInterp;
use dtfe_core::{
    surface_density_with_index, DtfeField, DtfeTable, FieldEstimator, GridSpec2, HullIndex,
    MarchOptions, Mass, PsDtfeField, PsDtfeTable, RenderMesh, SlotValues, StochasticField,
    StochasticOptions, StochasticTable,
};
use dtfe_delaunay::DelaunayBuilder;
use dtfe_geometry::{Vec2, Vec3};
use std::collections::HashMap;

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
    let mut r = rng(17);
    let mut pts: Vec<Vec3> = (0..250)
        .map(|_| Vec3::new(r() * SIDE, r() * SIDE, r() * SIDE))
        .collect();
    for c in [
        Vec3::new(1.5, 1.5, 2.0),
        Vec3::new(4.0, 2.5, 3.5),
        Vec3::new(3.0, 4.5, 1.5),
    ] {
        for _ in 0..120 {
            pts.push(c + Vec3::new(r() - 0.5, r() - 0.5, r() - 0.5) * 0.6);
        }
    }
    pts
}

fn lattice() -> Vec<Vec3> {
    let n = 7;
    let h = SIDE / (n - 1) as f64;
    (0..n * n * n)
        .map(|i| Vec3::new((i % n) as f64, (i / n % n) as f64, (i / (n * n)) as f64) * h)
        .collect()
}

/// Every fifth point twice, the copies scattered through the input.
fn with_duplicates() -> Vec<Vec3> {
    let mut r = rng(29);
    let mut pts: Vec<Vec3> = (0..300)
        .map(|_| Vec3::new(r() * SIDE, r() * SIDE, r() * SIDE))
        .collect();
    for i in (0..300).step_by(5) {
        pts.push(pts[i]);
    }
    pts
}

fn clouds() -> [(&'static str, Vec<Vec3>); 3] {
    [
        ("clustered", clustered()),
        ("lattice", lattice()),
        ("duplicates", with_duplicates()),
    ]
}

fn mesh_of(pts: &[Vec3]) -> RenderMesh {
    RenderMesh::new(DelaunayBuilder::new().build(pts).unwrap())
}

/// Per-particle masses, so merged duplicates accumulate unequal ones.
fn masses(n: usize) -> Mass {
    Mass::PerParticle((0..n).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect())
}

fn velocities(pts: &[Vec3]) -> Vec<Vec3> {
    pts.iter()
        .map(|p| Vec3::new((0.9 * p.y).sin(), 0.3 * p.x * p.z, (0.7 * p.x).cos() - p.z))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn interp_bits(t: &[TetInterp]) -> Vec<[u64; 4]> {
    t.iter()
        .map(|i| [i.rho0, i.grad.x, i.grad.y, i.grad.z].map(f64::to_bits))
        .collect()
}

fn linear(values: SlotValues<'_>) -> &[TetInterp] {
    match values {
        SlotValues::Linear(rows) => rows,
        SlotValues::Constant(_) => panic!("a vertex field has linear rows"),
    }
}

/// Full depth with two samples, and a z window: both entry paths.
fn renders<E: FieldEstimator + ?Sized>(field: &E, idx: &HullIndex) -> Vec<Vec<u64>> {
    let grid = GridSpec2::covering(Vec2::new(0.4, 0.4), Vec2::new(5.6, 5.6), 19, 23);
    [
        MarchOptions::new().samples(2).parallel(false),
        MarchOptions::new().z_range(1.7, 3.9).parallel(false),
    ]
    .iter()
    .map(|opts| bits(&surface_density_with_index(field, idx, &grid, opts).0.data))
    .collect()
}

#[test]
fn dtfe_table_over_a_render_mesh_is_the_dtfe_field() {
    for (name, pts) in clouds() {
        let mass = masses(pts.len());
        let del = DelaunayBuilder::new().build(&pts).unwrap();
        let field = DtfeField::from_delaunay_for_inputs(del, pts.len(), mass.clone());
        let mesh = mesh_of(&pts);
        let table = DtfeTable::build(&mesh, pts.len(), &mass);
        assert_eq!(
            bits(table.vertex_densities()),
            bits(field.vertex_densities()),
            "{name}: vertex densities"
        );
        assert_eq!(
            interp_bits(table.interp()),
            interp_bits(linear(field.view().values)),
            "{name}: interpolants"
        );
        let idx = HullIndex::for_mesh(mesh.delaunay());
        assert_eq!(
            renders(&mesh.view(table.interp()), &idx),
            renders(&field, &HullIndex::build(&field)),
            "{name}: renders"
        );
    }
}

/// `PsDtfeField` renders from its own render-order mesh; the same tables
/// filled over the mesh as the builder left it hold the same number for
/// every tetrahedron, matched by its vertex array (which the render order
/// keeps verbatim) — so the render cannot see slot numbers.
#[test]
fn psdtfe_field_holds_its_tables_in_builder_order() {
    for (name, pts) in clouds() {
        let mass = masses(pts.len());
        let vel = velocities(&pts);
        let build = || DelaunayBuilder::new().build(&pts).unwrap();
        let field = PsDtfeField::from_delaunay(build(), pts.len(), &vel, mass.clone()).unwrap();
        let del = field.delaunay();
        assert_eq!(
            del.num_slots(),
            del.num_tets() + del.num_ghosts(),
            "{name}: the field's mesh is compact"
        );

        let raw = build();
        let table = PsDtfeTable::build(&raw, pts.len(), &vel, &mass).unwrap();
        let (SlotValues::Constant(density), SlotValues::Constant(divergence)) =
            (field.view().values, field.divergence().values)
        else {
            panic!("{name}: PS-DTFE tables are per-simplex constants");
        };
        assert_ne!(
            bits(table.density()),
            bits(density),
            "{name}: the builder's slot order is the render order"
        );
        let by_verts: HashMap<[u32; 4], u32> =
            del.finite_tets().map(|t| (del.tet(t).verts, t)).collect();
        assert_eq!(by_verts.len(), raw.num_tets(), "{name}: tetrahedra");
        for old in raw.finite_tets() {
            let new = by_verts[&raw.tet(old).verts] as usize;
            let old = old as usize;
            assert_eq!(
                table.density()[old].to_bits(),
                density[new].to_bits(),
                "{name}: density of slot {old}"
            );
            assert_eq!(
                table.divergence()[old].to_bits(),
                divergence[new].to_bits(),
                "{name}: divergence of slot {old}"
            );
        }
    }
}

#[test]
fn stochastic_table_over_a_render_mesh_is_the_stochastic_field() {
    for (name, pts) in clouds() {
        let mass = masses(pts.len());
        let opts = StochasticOptions::new().realizations(2).seed(77);
        let field = StochasticField::build(&pts, mass.clone(), opts).unwrap();
        let mesh = mesh_of(&pts);
        let table = StochasticTable::build(mesh.delaunay(), &pts, &mass, opts);
        assert_eq!(
            bits(table.vertex_densities()),
            bits(field.vertex_densities()),
            "{name}: vertex means"
        );
        assert_eq!(
            interp_bits(table.interp()),
            interp_bits(linear(field.view().values)),
            "{name}: interpolants"
        );
    }
}
