//! Permutation-invariance suite for [`DelaunayBuilder`].
//!
//! The canonical insertion order is a function of the point *set* (see
//! `src/morton.rs`), so the same points presented in any sequence must give
//! the same triangulation — also where the Delaunay triangulation is not
//! unique. These tests hold the builder to that on the adversarial families:
//! uniform random clouds, exact regular grids (maximally
//! cospherical/coplanar), points on a common sphere, and lattices with
//! duplicates. For each input
//!
//! 1. the mesh passes `validate::global_delaunay_check` (full structural
//!    validation plus the brute-force global empty-circumsphere check), and
//! 2. the meshes of the input and of two shuffles of it are the same set of
//!    tetrahedra, compared as sorted coordinate quadruples (vertex ids need
//!    not agree between two sequences; coordinates must).

use dtfe_delaunay::{validate, Delaunay, DelaunayBuilder};
use dtfe_geometry::Vec3;
use proptest::prelude::*;

type Corner = [u64; 3];

/// Canonical form of the finite complex: sorted list of sorted coordinate
/// quadruples.
fn finite_complex(d: &Delaunay) -> Vec<[Corner; 4]> {
    let mut tets: Vec<[Corner; 4]> = d
        .finite_tets()
        .map(|t| {
            let mut v = d
                .tet_points(t)
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]);
            v.sort_unstable();
            v
        })
        .collect();
    tets.sort_unstable();
    tets
}

/// Fisher–Yates under a seeded xorshift.
fn shuffled(pts: &[Vec3], seed: u64) -> Vec<Vec3> {
    let mut out = pts.to_vec();
    let mut s = seed | 1;
    for i in (1..out.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        out.swap(i, (s % (i as u64 + 1)) as usize);
    }
    out
}

fn assert_order_invariant(pts: &[Vec3]) {
    let d = DelaunayBuilder::new().build(pts).expect("build");
    validate::global_delaunay_check(&d).expect("validation");
    let reference = finite_complex(&d);
    for seed in [0x5EED, 0xBADC0DE] {
        let again = DelaunayBuilder::new()
            .build(&shuffled(pts, seed))
            .expect("build of the shuffled input");
        again.validate().expect("validation of the shuffled build");
        assert_eq!(again.num_vertices(), d.num_vertices());
        assert_eq!(
            finite_complex(&again),
            reference,
            "mesh depends on the input sequence (shuffle seed {seed:#x})"
        );
    }
}

/// Exact n×n×n lattice: every 2×2×2 sub-cube is cospherical, so nearly all
/// insertions hit the exact insphere==Zero path.
fn grid(n: usize) -> Vec<Vec3> {
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

/// Points on a common sphere (plus center): one giant cospherical family.
fn cosphere(n: usize, jitter_seed: u64) -> Vec<Vec3> {
    let mut pts = vec![Vec3::new(0.0, 0.0, 0.0)];
    let mut s = jitter_seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..n {
        let z = 2.0 * next() - 1.0;
        let phi = std::f64::consts::TAU * next();
        let r = (1.0 - z * z).max(0.0).sqrt();
        pts.push(Vec3::new(r * phi.cos(), r * phi.sin(), z));
    }
    pts
}

#[test]
fn grid_5x5x5_invariant() {
    assert_order_invariant(&grid(5));
}

#[test]
fn grid_7x7x7_invariant() {
    assert_order_invariant(&grid(7));
}

#[test]
fn cospherical_200_invariant() {
    assert_order_invariant(&cosphere(200, 0x5EED));
}

#[test]
fn cospherical_300_invariant() {
    assert_order_invariant(&cosphere(300, 0xBADC0DE));
}

#[test]
fn duplicates_and_near_duplicates_invariant() {
    // Stress the Located::Vertex dedup path: which copy of a duplicate is
    // met first depends on the sequence, the mesh must not.
    let mut pts = grid(4);
    let dups: Vec<Vec3> = pts.iter().step_by(3).copied().collect();
    pts.extend(dups);
    pts.push(Vec3::new(0.5, 0.5, 0.5));
    pts.push(Vec3::new(0.5, 0.5, 0.5 + 1e-13));
    assert_order_invariant(&pts);
}

#[test]
fn clustered_cloud_invariant() {
    // Tight clumps: many points share a Morton cell of the cloud's bounding
    // box, so the coordinate tie-break decides their order.
    let mut s = 0xC1057E4_u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = Vec::new();
    for _ in 0..12 {
        let c = Vec3::new(next() * 1e3, next() * 1e3, next() * 1e3);
        for _ in 0..30 {
            pts.push(c + Vec3::new(next(), next(), next()) * 1e-4);
        }
    }
    assert_order_invariant(&pts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_clouds_invariant(
        pts in prop::collection::vec(
            (0.0f64..16.0, 0.0f64..16.0, 0.0f64..16.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            8..300,
        )
    ) {
        match DelaunayBuilder::new().build(&pts) {
            Ok(_) => assert_order_invariant(&pts),
            // A degenerate random cloud (possible only at tiny sizes) must
            // be degenerate in every sequence too.
            Err(e) => {
                let again = DelaunayBuilder::new().build(&shuffled(&pts, 7)).unwrap_err();
                prop_assert_eq!(&again, &e);
            }
        }
    }

    #[test]
    fn quantized_clouds_invariant(
        pts in prop::collection::vec((0u8..5, 0u8..5, 0u8..5), 10..120)
    ) {
        // Integer-lattice clouds with duplicates: heavy exact-predicate and
        // vertex-merge traffic.
        let pts: Vec<Vec3> =
            pts.into_iter().map(|(x, y, z)| Vec3::new(x as f64, y as f64, z as f64)).collect();
        match DelaunayBuilder::new().build(&pts) {
            Ok(_) => assert_order_invariant(&pts),
            Err(e) => {
                let again = DelaunayBuilder::new().build(&shuffled(&pts, 7)).unwrap_err();
                prop_assert_eq!(&again, &e);
            }
        }
    }
}
