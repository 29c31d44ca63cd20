//! Mesh-identity goldens for [`DelaunayBuilder`].
//!
//! Everything downstream — star-volume sums in slot order, interpolant
//! tables, `compact_reorder`, every rendered bit and every exact work
//! counter — depends not just on *which* triangulation the builder returns
//! but on *where* it puts it: slot ids, vertex order inside a slot,
//! neighbour order, vertex ids. These hashes were taken at commit `2f99a04`,
//! before the insertion loop and the `insphere` filter were rewritten for
//! speed, and pin the builder to that output slot for slot on the input
//! families that reach every arm of the insertion code: generic cavities,
//! exact cospherical ties, duplicate merging, coplanar ghost conflicts, and
//! hull-sized cavities whose star is mostly ghosts.
//!
//! A legitimate change of insertion order or slot policy re-pins them, and
//! with them every density bit downstream; an optimisation must not.

use dtfe_delaunay::{Delaunay, DelaunayBuilder};
use dtfe_geometry::Vec3;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the slot count, every slot's `verts` and `neighbors` (freed
/// slots included), every vertex's coordinate bits and the input → vertex
/// map.
fn mesh_hash(d: &Delaunay, n_inputs: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, d.num_slots() as u64);
    for t in 0..d.num_slots() {
        let tet = d.tet_slot(t as u32);
        for v in tet.verts {
            fnv(&mut h, v as u64);
        }
        for n in tet.neighbors {
            fnv(&mut h, n as u64);
        }
    }
    for p in d.vertices() {
        fnv(&mut h, p.x.to_bits());
        fnv(&mut h, p.y.to_bits());
        fnv(&mut h, p.z.to_bits());
    }
    for i in 0..n_inputs {
        fnv(&mut h, d.vertex_of_input(i) as u64);
    }
    h
}

fn assert_golden(builder: DelaunayBuilder, pts: &[Vec3], golden: u64, what: &str) {
    let d = builder.build(pts).expect("build");
    d.validate().expect("validation");
    let h = mesh_hash(&d, pts.len());
    assert_eq!(
        h, golden,
        "{what}: mesh hash {h:#018x}, golden {golden:#018x} — the builder no longer returns \
         the same triangulation slot for slot"
    );
}

/// Uniform in [0, 1) from a seeded xorshift64*.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn lattice(n: usize) -> Vec<Vec3> {
    let mut pts = Vec::with_capacity(n * n * n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                pts.push(Vec3::new(i as f64, j as f64, k as f64));
            }
        }
    }
    pts
}

#[test]
fn jittered_lattice_12() {
    let mut r = uniform(0x01A7_71CE);
    let pts: Vec<Vec3> = lattice(12)
        .into_iter()
        .map(|p| p + Vec3::new(r() - 0.5, r() - 0.5, r() - 0.5) * 0.2)
        .collect();
    assert_golden(
        DelaunayBuilder::new(),
        &pts,
        0x8701_31a4_151e_e68e,
        "jittered 12³ lattice",
    );
}

#[test]
fn exact_lattice_4_with_duplicates() {
    // Every 2×2×2 sub-cube is cospherical (insphere == Zero decides most
    // cavities) and every third site is present twice.
    let mut pts = lattice(4);
    let dups: Vec<Vec3> = pts.iter().step_by(3).copied().collect();
    pts.extend(dups);
    assert_golden(
        DelaunayBuilder::new(),
        &pts,
        0x9597_55b2_e4ed_0821,
        "4³ lattice with duplicates",
    );
}

#[test]
fn cospherical_shell() {
    // The inverse stereographic image of a plane lattice: every point is on
    // the unit sphere up to rounding, lattice lines map to common circles.
    // Only +, × and ÷, so the coordinates are the same bits on every host.
    let mut pts = vec![Vec3::new(0.0, 0.0, 1.0), Vec3::new(0.0, 0.0, 0.0)];
    for i in -6..=6 {
        for j in -6..=6 {
            let (u, v) = (i as f64 / 3.0, j as f64 / 3.0);
            let s = u * u + v * v;
            pts.push(Vec3::new(
                2.0 * u / (1.0 + s),
                2.0 * v / (1.0 + s),
                (s - 1.0) / (1.0 + s),
            ));
        }
    }
    assert_golden(
        DelaunayBuilder::new(),
        &pts,
        0x3608_94d6_053b_bef7,
        "cospherical shell",
    );
}

#[test]
fn coplanar_sheet_plus_one() {
    // A sheet in the plane z = 0 and one apex: every tetrahedron has the
    // apex as a vertex, and every sheet point inserted after the bootstrap
    // is coplanar with hull facets (the ghost conflict's Zero arm).
    let mut r = uniform(0x5EE7);
    let mut pts: Vec<Vec3> = (0..400).map(|_| Vec3::new(r(), r(), 0.0)).collect();
    for i in 0..8 {
        for j in 0..8 {
            pts.push(Vec3::new(i as f64 / 8.0, j as f64 / 8.0, 0.0));
        }
    }
    pts.push(Vec3::new(0.4, 0.6, 0.7));
    assert_golden(
        DelaunayBuilder::new(),
        &pts,
        0xf570_b1c9_11dd_c60e,
        "coplanar sheet plus one",
    );
}

/// A round cloud, then points far outside it: each of those sees about half
/// the hull, so its cavity is mostly ghosts (the canonicalising 3-cycle of
/// the star) and outgrows the edge table.
fn round_cloud_then_far_points() -> Vec<Vec3> {
    let mut r = uniform(0xFA2);
    let mut pts = Vec::new();
    while pts.len() < 1500 {
        let p = Vec3::new(r() - 0.5, r() - 0.5, r() - 0.5);
        if p.norm() <= 0.5 {
            pts.push(p);
        }
    }
    pts.extend([
        Vec3::new(40.0, 30.0, 20.0),
        Vec3::new(-35.0, 10.0, -50.0),
        Vec3::new(0.0, -60.0, 5.0),
        Vec3::new(3.0, 2.0, 80.0),
    ]);
    pts
}

#[test]
fn far_outside_points_in_canonical_order() {
    assert_golden(
        DelaunayBuilder::new(),
        &round_cloud_then_far_points(),
        0x9d8e_98d9_d99f_326f,
        "round cloud then far points",
    );
}

#[test]
fn far_outside_points_in_input_order() {
    // Input order keeps the far points last, when the hull is largest.
    assert_golden(
        DelaunayBuilder::new().spatial_sort(false),
        &round_cloud_then_far_points(),
        0x55e8_fa2e_e26a_845b,
        "round cloud then far points, input order",
    );
}
