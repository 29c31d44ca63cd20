//! Tetrahedron helpers: volumes, barycentric coordinates and the constant
//! gradient of a linear field over a tetrahedron (the `∇̂f|_Del` of DTFE,
//! paper Eq. 1).

use crate::predicates::orient3d_det;
use crate::vec::Vec3;

/// Six times the signed volume of tetrahedron `(a, b, c, d)`; positive for a
/// positively-oriented tetrahedron (see [`crate::predicates::orient3d`]).
#[inline]
pub fn signed_volume6(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    orient3d_det(a, b, c, d)
}

/// Unsigned volume of tetrahedron `(a, b, c, d)`.
#[inline]
pub fn volume(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    signed_volume6(a, b, c, d).abs() / 6.0
}

/// Barycentric coordinates of `p` with respect to tetrahedron `v`.
///
/// Returns `None` when the tetrahedron is (numerically) flat. All four
/// coordinates are in `[0, 1]` and sum to 1 iff `p` is inside.
pub fn barycentric(p: Vec3, v: &[Vec3; 4]) -> Option<[f64; 4]> {
    let total = signed_volume6(v[0], v[1], v[2], v[3]);
    if total == 0.0 || !total.is_finite() {
        return None;
    }
    let w0 = signed_volume6(p, v[1], v[2], v[3]) / total;
    let w1 = signed_volume6(v[0], p, v[2], v[3]) / total;
    let w2 = signed_volume6(v[0], v[1], p, v[3]) / total;
    let w3 = signed_volume6(v[0], v[1], v[2], p) / total;
    Some([w0, w1, w2, w3])
}

/// Does the tetrahedron contain `p` (boundary inclusive, with tolerance
/// `eps` on the barycentric coordinates)?
pub fn contains(p: Vec3, v: &[Vec3; 4], eps: f64) -> bool {
    match barycentric(p, v) {
        Some(w) => w.iter().all(|&wi| wi >= -eps),
        None => false,
    }
}

/// Solve the 3x3 system with rows `r1, r2, r3` and right-hand side `b` by
/// Cramer's rule. `None` for a singular matrix.
pub fn solve3(r1: Vec3, r2: Vec3, r3: Vec3, b: Vec3) -> Option<Vec3> {
    let det = r1.dot(r2.cross(r3));
    if det == 0.0 || !det.is_finite() {
        return None;
    }
    // Columns of the inverse are the cross products of the rows (adjugate):
    // x = (b.x (r2×r3) + b.y (r3×r1) + b.z (r1×r2)) / det.
    let x = (b.x * r2.cross(r3) + b.y * r3.cross(r1) + b.z * r1.cross(r2)) / det;
    Some(x)
}

/// Constant gradient of the linear field taking value `f[i]` at vertex
/// `v[i]` (DTFE's `∇̂f|_Del`, paper Eq. 1). `None` for a flat tetrahedron.
pub fn linear_gradient(v: &[Vec3; 4], f: &[f64; 4]) -> Option<Vec3> {
    solve3(
        v[1] - v[0],
        v[2] - v[0],
        v[3] - v[0],
        Vec3::new(f[1] - f[0], f[2] - f[0], f[3] - f[0]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_tet() -> [Vec3; 4] {
        [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ]
    }

    #[test]
    fn unit_tet_volume() {
        let v = unit_tet();
        assert!((volume(v[0], v[1], v[2], v[3]) - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn degenerate_volume_zero() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(1.0, 0.0, 0.0);
        let c = Vec3::new(2.0, 0.0, 0.0);
        let d = Vec3::new(3.0, 0.0, 0.0);
        assert_eq!(volume(a, b, c, d), 0.0);
    }

    #[test]
    fn barycentric_partition_of_unity() {
        let v = unit_tet();
        let p = Vec3::new(0.2, 0.3, 0.1);
        let w = barycentric(p, &v).unwrap();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Reconstruct the point.
        let q = v[0] * w[0] + v[1] * w[1] + v[2] * w[2] + v[3] * w[3];
        assert!(q.distance(p) < 1e-12);
        assert!(contains(p, &v, 1e-12));
        assert!(!contains(Vec3::new(0.9, 0.9, 0.9), &v, 1e-12));
    }

    #[test]
    fn barycentric_at_vertices() {
        let v = unit_tet();
        for i in 0..4 {
            let w = barycentric(v[i], &v).unwrap();
            for (j, &wj) in w.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((wj - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gradient_recovers_linear_field() {
        let v = [
            Vec3::new(0.1, 0.0, 0.3),
            Vec3::new(1.2, 0.1, 0.0),
            Vec3::new(0.0, 1.5, 0.2),
            Vec3::new(0.3, 0.2, 1.9),
        ];
        let g_true = Vec3::new(2.0, -3.0, 0.5);
        let field = |p: Vec3| 7.0 + g_true.dot(p);
        let f = [field(v[0]), field(v[1]), field(v[2]), field(v[3])];
        let g = linear_gradient(&v, &f).unwrap();
        assert!(g.distance(g_true) < 1e-10, "g = {g:?}");
        // Interpolation is exact for a linear field anywhere in space.
        let p = Vec3::new(0.4, 0.4, 0.4);
        assert!((f[0] + g.dot(p - v[0]) - field(p)).abs() < 1e-10);
    }

    #[test]
    fn solve3_identity() {
        let x = solve3(
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(4.0, 5.0, 6.0),
        )
        .unwrap();
        assert_eq!(x, Vec3::new(4.0, 5.0, 6.0));
        assert!(solve3(Vec3::ZERO, Vec3::ZERO, Vec3::ZERO, Vec3::ZERO).is_none());
    }
}
