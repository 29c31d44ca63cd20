//! Plücker-coordinate rays and the Platis–Theoharis ray–tetrahedron
//! intersection test (paper §III-C-2, Eq. 7–10).
//!
//! A 3D ray `r` through point `x` with direction `l` has Plücker coordinates
//! `π_r = {l : l × x}` (Eq. 7). The *permuted inner product* of two rays
//! (Eq. 8) decides their relative orientation:
//!
//! ```text
//! π_r ⊙ π_s = u_r · v_s + u_s · v_r
//! ```
//!
//! Testing a ray against the three (consistently oriented) edges of a
//! triangular face yields both the crossing decision and, for free, the
//! barycentric coordinates of the intersection point (Eq. 9–10). Shared-edge
//! products can be reused between the faces of a tetrahedron; the
//! [`ray_tetra`] routine below does exactly that, mirroring the paper's
//! `RayTetra` subroutine (Fig. 3, line 7) including its degeneracy status.

use crate::predicates::orient3d_det;
use crate::vec::Vec3;

/// A line in 3D given by a point and a direction (not necessarily unit).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ray {
    pub origin: Vec3,
    pub dir: Vec3,
}

impl Ray {
    #[inline]
    pub fn new(origin: Vec3, dir: Vec3) -> Self {
        Ray { origin, dir }
    }

    /// The vertical line of sight through the 2D point `(x, y)`, integrating
    /// along `+z` — the paper's convention (§IV-A-2).
    #[inline]
    pub fn vertical(x: f64, y: f64) -> Self {
        Ray {
            origin: Vec3::new(x, y, 0.0),
            dir: Vec3::new(0.0, 0.0, 1.0),
        }
    }
}

/// Plücker coordinates `{u : v} = {l : l × x}` of a line (Eq. 7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plucker {
    /// Direction part `u = l`.
    pub u: Vec3,
    /// Moment part `v = l × x`.
    pub v: Vec3,
}

impl Plucker {
    #[inline]
    pub fn from_ray(r: &Ray) -> Self {
        Plucker {
            u: r.dir,
            v: r.dir.cross(r.origin),
        }
    }

    /// Plücker coordinates of the directed edge `p0 → p1`.
    #[inline]
    pub fn from_edge(p0: Vec3, p1: Vec3) -> Self {
        let l = p1 - p0;
        Plucker {
            u: l,
            v: l.cross(p0),
        }
    }

    /// Permuted inner product `π_self ⊙ π_other` (Eq. 8). The sign gives the
    /// relative orientation of the two lines; zero means they meet (or are
    /// parallel/coplanar).
    #[inline]
    pub fn side(&self, other: &Plucker) -> f64 {
        self.u.dot(other.v) + other.u.dot(self.v)
    }
}

/// Result of testing a line against one oriented triangular face.
///
/// The face `(a, b, c)` is oriented so its normal `(b-a) × (c-a)` points to
/// the *outside*; crossings are classified relative to that normal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaceCrossing {
    /// The line does not pass through the face interior.
    Miss,
    /// The line crosses against the normal (into the tetrahedron): all three
    /// permuted inner products are strictly positive. Carries the (normalized)
    /// barycentric weights of the intersection point w.r.t. `(a, b, c)`.
    Enter([f64; 3]),
    /// The line crosses along the normal (out of the tetrahedron): all three
    /// products strictly negative. Carries barycentric weights.
    Exit([f64; 3]),
    /// A degeneracy (Eq. 8 footnote): the line meets a vertex or an edge of
    /// the face, or is coplanar with it. The marching kernel responds by
    /// perturbing the line (paper Fig. 2).
    Degenerate,
}

/// Classify the crossing of line `r` (as Plücker coordinates) with the
/// oriented face `(a, b, c)` given the three precomputed edge products
/// `s_ab = π_r ⊙ π_{a→b}` etc.
///
/// Barycentric weights follow Eq. 9: the weight of a vertex is the product of
/// its *opposite* edge, so `w = [s_bc, s_ca, s_ab] / Σ`.
#[inline]
pub fn classify_face(s_ab: f64, s_bc: f64, s_ca: f64) -> FaceCrossing {
    let pos = (s_ab > 0.0) as u8 + (s_bc > 0.0) as u8 + (s_ca > 0.0) as u8;
    let neg = (s_ab < 0.0) as u8 + (s_bc < 0.0) as u8 + (s_ca < 0.0) as u8;
    if pos > 0 && neg > 0 {
        return FaceCrossing::Miss;
    }
    if pos == 3 || neg == 3 {
        let sum = s_ab + s_bc + s_ca;
        let w = [s_bc / sum, s_ca / sum, s_ab / sum];
        return if pos == 3 {
            FaceCrossing::Enter(w)
        } else {
            FaceCrossing::Exit(w)
        };
    }
    // At least one product is exactly zero and the rest do not disagree:
    // the line grazes a vertex/edge or lies in the face plane.
    FaceCrossing::Degenerate
}

/// Cartesian intersection point from barycentric weights (Eq. 10).
#[inline]
pub fn face_point(a: Vec3, b: Vec3, c: Vec3, w: [f64; 3]) -> Vec3 {
    Vec3::new(
        w[0] * a.x + w[1] * b.x + w[2] * c.x,
        w[0] * a.y + w[1] * b.y + w[2] * c.y,
        w[0] * a.z + w[1] * b.z + w[2] * c.z,
    )
}

/// Faces of a positively-oriented tetrahedron `(v0, v1, v2, v3)` such that
/// face `i` is opposite vertex `i` and its normal points outward.
pub const TET_FACES: [[usize; 3]; 4] = [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]];

/// Outcome of intersecting an (infinite) line with a tetrahedron.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RayTetraHit {
    /// Face index (opposite-vertex convention) the line enters through, with
    /// the intersection point; `None` if the line misses the tetrahedron.
    pub enter: Option<(usize, Vec3)>,
    /// Face index the line exits through, with the intersection point.
    pub exit: Option<(usize, Vec3)>,
    /// `true` when any face test hit a degeneracy; the caller should perturb
    /// the line and retry (paper Fig. 2–3).
    pub degenerate: bool,
}

impl RayTetraHit {
    pub const MISS: RayTetraHit = RayTetraHit {
        enter: None,
        exit: None,
        degenerate: false,
    };

    /// The line passes through the interior (both crossings found).
    #[inline]
    pub fn is_through(&self) -> bool {
        self.enter.is_some() && self.exit.is_some()
    }
}

/// Normalize a tetrahedron's vertex order to positive orientation, exactly
/// as [`ray_tetra`] does internally: swap vertices 2 and 3 when the
/// floating-point `orient3d_det` is negative. Returns `true` if a swap
/// happened. Callers that cache pre-normalized tetrahedra (the marching
/// kernel's per-slot cache) use this so the hot loop skips the determinant.
#[inline]
pub fn normalize_tet(v: &mut [Vec3; 4]) -> bool {
    if orient3d_det(v[0], v[1], v[2], v[3]) < 0.0 {
        v.swap(2, 3);
        true
    } else {
        false
    }
}

/// Intersect a line with the tetrahedron `verts`. The vertex order may be
/// either orientation; it is normalized internally, and the returned face
/// indices name the faces of `verts` as given (face `i` opposite
/// `verts[i]`).
///
/// Edge products shared between faces are computed once (six edges, not
/// twelve), as the paper notes ("shared edge calculations can be reused").
pub fn ray_tetra(r: &Plucker, verts: &[Vec3; 4]) -> RayTetraHit {
    let mut v = *verts;
    // Swapping vertices 2 and 3 swaps the faces opposite them.
    let swapped = normalize_tet(&mut v);
    let face = |fi: usize| if swapped && fi >= 2 { 5 - fi } else { fi };
    // The six directed edges i -> j for i < j.
    let edge = |i: usize, j: usize| Plucker::from_edge(v[i], v[j]);
    let s01 = r.side(&edge(0, 1));
    let s02 = r.side(&edge(0, 2));
    let s03 = r.side(&edge(0, 3));
    let s12 = r.side(&edge(1, 2));
    let s13 = r.side(&edge(1, 3));
    let s23 = r.side(&edge(2, 3));

    // Products for each outward face's directed edges, reusing edge products
    // with a sign flip when the face traverses the edge backwards.
    // Face 0 = (1,3,2): edges 1->3, 3->2, 2->1  => s13, -s23, -s12
    // Face 1 = (0,2,3): edges 0->2, 2->3, 3->0  => s02, s23, -s03
    // Face 2 = (0,3,1): edges 0->3, 3->1, 1->0  => s03, -s13, -s01
    // Face 3 = (0,1,2): edges 0->1, 1->2, 2->0  => s01, s12, -s02
    let face_products: [[f64; 3]; 4] = [
        [s13, -s23, -s12],
        [s02, s23, -s03],
        [s03, -s13, -s01],
        [s01, s12, -s02],
    ];

    let mut hit = RayTetraHit::MISS;
    for (fi, p) in face_products.iter().enumerate() {
        match classify_face(p[0], p[1], p[2]) {
            FaceCrossing::Miss => {}
            FaceCrossing::Degenerate => {
                hit.degenerate = true;
            }
            FaceCrossing::Enter(w) => {
                let [i, j, k] = TET_FACES[fi];
                hit.enter = Some((face(fi), face_point(v[i], v[j], v[k], w)));
            }
            FaceCrossing::Exit(w) => {
                let [i, j, k] = TET_FACES[fi];
                hit.exit = Some((face(fi), face_point(v[i], v[j], v[k], w)));
            }
        }
    }
    // A line through the interior must cross exactly two faces; anything else
    // with a zero product is already flagged degenerate above.
    hit
}

/// The six canonical directed edges `i → j` (`i < j`) of a tetrahedron, in
/// the order `[01, 02, 03, 12, 13, 23]` — the order [`ray_tetra`] computes
/// its `s01..s23` products in.
pub const TET_EDGES: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// Each face of [`TET_FACES`] as three (index into [`TET_EDGES`], reversed?)
/// pairs; a reversed edge enters the face's directed-edge product negated.
/// This is the same sign table `ray_tetra` writes out literally.
const FACE_EDGES: [[(usize, bool); 3]; 4] = [
    [(4, false), (5, true), (3, true)],  // (1,3,2): s13, -s23, -s12
    [(1, false), (5, false), (2, true)], // (0,2,3): s02, s23, -s03
    [(2, false), (4, true), (0, true)],  // (0,3,1): s03, -s13, -s01
    [(0, false), (3, false), (1, true)], // (0,1,2): s01, s12, -s02
];

/// The three canonical edge side-products of the face a marching ray just
/// exited through, keyed by the *directed* global-vertex-id pair each product
/// was computed for.
///
/// The next tetrahedron along the ray shares this face, so any of its
/// canonical edges matching one of these directed pairs reuses the value —
/// bitwise exactly, because [`Plucker::from_edge`] depends only on the two
/// endpoint positions and the ray is fixed. (A *reversed* edge cannot be
/// reused: `l × p0` and `-l × p1` round differently, so only
/// direction-matched pairs preserve bit-identity.)
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaceSeed {
    /// Directed global-vertex-id pairs, in the exit face's `FACE_EDGES`
    /// order.
    pub edges: [(u32, u32); 3],
    /// The canonical (unsigned, `i < j` direction) side-products.
    pub s: [f64; 3],
}

impl FaceSeed {
    /// A seed that matches no edge (the id pairs use the reserved
    /// `u32::MAX`, which never names a finite vertex).
    pub const EMPTY: FaceSeed = FaceSeed {
        edges: [(u32::MAX, u32::MAX); 3],
        s: [0.0; 3],
    };
}

/// [`Plucker::side`] against the directed edge `p0 → p1`, specialized for a
/// ray whose direction part is exactly `(0, 0, 1)` — every marching line of
/// sight ([`Ray::vertical`]). The generic permuted product is
/// `u_r · v_e + u_e · v_r`; with `u_r = (0,0,1)` the first dot collapses to
/// the edge moment's z-component, which `Vec3::cross` forms as
/// `l.x*p0.y - l.y*p0.x` — the exact two products and subtraction evaluated
/// here. The second dot is evaluated literally. The only way this can differ
/// from the generic path is in the *sign* of an exactly-zero product (the
/// generic path folds statically-zero `0 * e` terms into the sum), and
/// [`classify_face`] cannot observe a zero's sign: a zero product routes to
/// `Miss` or `Degenerate`, never into barycentric weights, and exit-face
/// seeds only ever carry strictly-signed products.
#[inline]
fn side_vertical(rv: Vec3, p0: Vec3, p1: Vec3) -> f64 {
    let lx = p1.x - p0.x;
    let ly = p1.y - p0.y;
    let lz = p1.z - p0.z;
    (lx * p0.y - ly * p0.x) + (lx * rv.x + ly * rv.y + lz * rv.z)
}

/// Classify a line against a tetrahedron from its six canonical edge
/// side-products (in [`TET_EDGES`] order, vertex order already
/// normalized), returning the hit and the local exit face. This is the
/// classification half of [`ray_tetra_seeded`].
#[inline]
fn hit_from_sides(s: &[f64; 6], verts: &[Vec3; 4]) -> (RayTetraHit, Option<usize>) {
    let mut hit = RayTetraHit::MISS;
    let mut exit_face = None;
    for (fi, fe) in FACE_EDGES.iter().enumerate() {
        let p = |k: usize| {
            let (e, rev) = fe[k];
            if rev {
                -s[e]
            } else {
                s[e]
            }
        };
        match classify_face(p(0), p(1), p(2)) {
            FaceCrossing::Miss => {}
            FaceCrossing::Degenerate => {
                hit.degenerate = true;
            }
            FaceCrossing::Enter(w) => {
                let [i, j, k] = TET_FACES[fi];
                hit.enter = Some((fi, face_point(verts[i], verts[j], verts[k], w)));
            }
            FaceCrossing::Exit(w) => {
                let [i, j, k] = TET_FACES[fi];
                hit.exit = Some((fi, face_point(verts[i], verts[j], verts[k], w)));
                exit_face = Some(fi);
            }
        }
    }
    (hit, exit_face)
}

/// [`ray_tetra`] for the marching kernel's coherent traversal: takes a
/// tetrahedron whose vertex order is already normalized (see
/// [`normalize_tet`]) together with vertex labels in the same order, and
/// optionally the [`FaceSeed`] of the face the ray entered through.
///
/// Direction-matched edge products are copied from the seed instead of being
/// recomputed; `evals` counts the products actually evaluated (the
/// `core.plucker_edge_evals` telemetry counter). `entry_face` optionally
/// names the local face the line entered through (the slot whose neighbor is
/// the previous tetrahedron), confining the seed match to that face's three
/// edges — the only ones that can match. All four faces are still
/// classified — the plain kernel's degeneracy flag inspects every face, so
/// skipping the entry face would change perturbation decisions and break
/// bit-identity. The returned hit is bit-for-bit what [`ray_tetra`] returns
/// on the same tetrahedron, its face indices in the normalized order of
/// `verts`; the returned seed carries the exit face's
/// products for the next step (it is [`FaceSeed::EMPTY`] when the line does
/// not exit).
pub fn ray_tetra_seeded(
    r: &Plucker,
    verts: &[Vec3; 4],
    ids: &[u32; 4],
    entry: Option<&FaceSeed>,
    entry_face: Option<usize>,
    evals: &mut u64,
) -> (RayTetraHit, FaceSeed) {
    // Pack each directed id pair into one u64 so a seed match is one
    // integer compare, no tuple/branch overhead.
    let key = |i: u32, j: u32| ((i as u64) << 32) | j as u64;
    let vertical = r.u.x == 0.0 && r.u.y == 0.0 && r.u.z == 1.0;
    let mut s = [0.0f64; 6];
    let mut todo = [true; 6];
    if let Some(seed) = entry {
        let seed_keys = [
            key(seed.edges[0].0, seed.edges[0].1),
            key(seed.edges[1].0, seed.edges[1].1),
            key(seed.edges[2].0, seed.edges[2].1),
        ];
        // Only the edges of the face the line entered through can name the
        // same geometric (hence directed-id) edge as the seed, so when the
        // caller knows that face, matching is confined to its three edges;
        // every other edge goes straight to evaluation. With no face hint
        // all six edges are tried — the outcome is identical either way,
        // since a non-shared edge's id pair can never equal a seed pair.
        let candidates = entry_face.map_or([0usize, 1, 2, 3, 4, 5], |f| {
            let fe = FACE_EDGES[f];
            [
                fe[0].0,
                fe[1].0,
                fe[2].0,
                usize::MAX,
                usize::MAX,
                usize::MAX,
            ]
        });
        for &e in candidates.iter().take_while(|&&e| e != usize::MAX) {
            let (i, j) = TET_EDGES[e];
            let k = key(ids[i], ids[j]);
            for (&sk, &sv) in seed_keys.iter().zip(seed.s.iter()) {
                if k == sk {
                    s[e] = sv;
                    todo[e] = false;
                    break;
                }
            }
        }
    }
    for (e, &(i, j)) in TET_EDGES.iter().enumerate() {
        if todo[e] {
            *evals += 1;
            s[e] = if vertical {
                side_vertical(r.v, verts[i], verts[j])
            } else {
                r.side(&Plucker::from_edge(verts[i], verts[j]))
            };
        }
    }

    let (hit, exit_face) = hit_from_sides(&s, verts);

    let mut seed_out = FaceSeed::EMPTY;
    if let Some(fi) = exit_face {
        for (k, &(e, _)) in FACE_EDGES[fi].iter().enumerate() {
            let (i, j) = TET_EDGES[e];
            seed_out.edges[k] = (ids[i], ids[j]);
            seed_out.s[k] = s[e];
        }
    }
    (hit, seed_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    const B: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    const C: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };

    /// The crossing of a line with a single oriented face.
    fn ray_face(r: &Plucker, a: Vec3, b: Vec3, c: Vec3) -> FaceCrossing {
        let s_ab = r.side(&Plucker::from_edge(a, b));
        let s_bc = r.side(&Plucker::from_edge(b, c));
        let s_ca = r.side(&Plucker::from_edge(c, a));
        classify_face(s_ab, s_bc, s_ca)
    }

    /// Ray parameter of the (assumed on-ray) point `p`.
    fn param_of(ray: &Ray, p: Vec3) -> f64 {
        (p - ray.origin).dot(ray.dir) / ray.dir.norm_sq()
    }

    #[test]
    fn side_zero_for_meeting_lines() {
        let r1 = Plucker::from_ray(&Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)));
        let r2 = Plucker::from_ray(&Ray::new(Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0)));
        assert_eq!(r1.side(&r2), 0.0);
    }

    #[test]
    fn face_crossing_classification() {
        // Upward ray through the interior of triangle ABC (normal +z):
        // crossing along the normal = Exit.
        let up = Plucker::from_ray(&Ray::vertical(0.2, 0.2));
        match ray_face(&up, A, B, C) {
            FaceCrossing::Exit(w) => {
                assert!((w[0] - 0.6).abs() < 1e-12);
                assert!((w[1] - 0.2).abs() < 1e-12);
                assert!((w[2] - 0.2).abs() < 1e-12);
            }
            other => panic!("expected Exit, got {other:?}"),
        }
        // Reversed face orientation flips Exit to Enter.
        match ray_face(&up, A, C, B) {
            FaceCrossing::Enter(_) => {}
            other => panic!("expected Enter, got {other:?}"),
        }
        // A ray outside the triangle footprint misses.
        let out = Plucker::from_ray(&Ray::vertical(2.0, 2.0));
        assert_eq!(ray_face(&out, A, B, C), FaceCrossing::Miss);
    }

    #[test]
    fn face_degenerate_through_vertex_and_edge() {
        let through_vertex = Plucker::from_ray(&Ray::vertical(0.0, 0.0));
        assert_eq!(ray_face(&through_vertex, A, B, C), FaceCrossing::Degenerate);
        let through_edge = Plucker::from_ray(&Ray::vertical(0.5, 0.0));
        assert_eq!(ray_face(&through_edge, A, B, C), FaceCrossing::Degenerate);
    }

    #[test]
    fn face_point_from_weights() {
        let p = face_point(A, B, C, [0.25, 0.5, 0.25]);
        assert_eq!(p, Vec3::new(0.5, 0.25, 0.0));
    }

    #[test]
    fn ray_tetra_through() {
        let verts = [A, B, C, Vec3::new(0.0, 0.0, 1.0)];
        let ray = Ray::new(Vec3::new(0.2, 0.2, -5.0), Vec3::new(0.0, 0.0, 1.0));
        let hit = ray_tetra(&Plucker::from_ray(&ray), &verts);
        assert!(hit.is_through(), "hit = {hit:?}");
        assert!(!hit.degenerate);
        let (enter_face, p_in) = hit.enter.unwrap();
        let (_, p_out) = hit.exit.unwrap();
        // Enters through the bottom z=0 face, leaves through the slanted one.
        assert!(p_in.z.abs() < 1e-12, "enter at {p_in:?}");
        assert!((p_out.z - 0.6).abs() < 1e-12, "exit at {p_out:?}"); // x+y+z=1 plane
        assert!(p_out.z > p_in.z);
        // Entry point keeps the ray's x, y.
        assert!((p_in.x - 0.2).abs() < 1e-12 && (p_in.y - 0.2).abs() < 1e-12);
        let _ = enter_face;
    }

    #[test]
    fn ray_tetra_vertex_order_invariant() {
        let verts_pos = [B, A, C, Vec3::new(0.0, 0.0, 1.0)];
        let verts_neg = [A, B, C, Vec3::new(0.0, 0.0, 1.0)];
        let ray = Plucker::from_ray(&Ray::vertical(0.1, 0.3));
        let h1 = ray_tetra(&ray, &verts_pos);
        let h2 = ray_tetra(&ray, &verts_neg);
        assert_eq!(h1.enter.unwrap().1, h2.enter.unwrap().1);
        assert_eq!(h1.exit.unwrap().1, h2.exit.unwrap().1);
    }

    #[test]
    fn face_indices_name_the_faces_of_the_vertices_as_given() {
        // [A, B, C, D] is negatively oriented, so ray_tetra swaps its
        // vertices 2 and 3 internally; [A, B, D, C] is the positive order.
        // Either way the line enters through the floor z = 0, opposite D,
        // and leaves through the slanted face, opposite A.
        let d = Vec3::new(0.0, 0.0, 1.0);
        let r = Plucker::from_ray(&Ray::vertical(0.2, 0.2));
        for (verts, floor) in [([A, B, C, d], 3), ([A, B, d, C], 2)] {
            let hit = ray_tetra(&r, &verts);
            assert_eq!(hit.enter.unwrap().0, floor, "{verts:?}");
            assert_eq!(hit.exit.unwrap().0, 0, "{verts:?}");
        }
    }

    #[test]
    fn ray_tetra_miss() {
        let verts = [A, B, C, Vec3::new(0.0, 0.0, 1.0)];
        let ray = Plucker::from_ray(&Ray::vertical(0.9, 0.9));
        let hit = ray_tetra(&ray, &verts);
        assert!(hit.enter.is_none() && hit.exit.is_none());
    }

    #[test]
    fn ray_tetra_degenerate_through_edge() {
        let verts = [A, B, C, Vec3::new(0.0, 0.0, 1.0)];
        // Vertical line through the edge from (0,0,0) to (0,0,1): x=y=0.
        let hit = ray_tetra(&Plucker::from_ray(&Ray::vertical(0.0, 0.0)), &verts);
        assert!(hit.degenerate);
    }

    #[test]
    fn ray_tetra_degenerate_edge_intersection() {
        // The vertical line x = y = 0.25 meets the edge from the origin to the
        // apex (0.3, 0.3, 1.0) — both lie in the plane x = y.
        let verts = [A, B, C, Vec3::new(0.3, 0.3, 1.0)];
        let ray = Ray::new(Vec3::new(0.25, 0.25, -1.0), Vec3::new(0.0, 0.0, 2.0));
        let hit = ray_tetra(&Plucker::from_ray(&ray), &verts);
        assert!(hit.degenerate);
    }

    #[test]
    fn ray_param_orders_crossings() {
        let verts = [A, B, C, Vec3::new(0.3, 0.3, 1.0)];
        let ray = Ray::new(Vec3::new(0.25, 0.2, -1.0), Vec3::new(0.0, 0.0, 2.0));
        let hit = ray_tetra(&Plucker::from_ray(&ray), &verts);
        let (_, p_in) = hit.enter.unwrap();
        let (_, p_out) = hit.exit.unwrap();
        assert!(param_of(&ray, p_in) < param_of(&ray, p_out));
    }

    fn rand_unit(s: &mut u64) -> f64 {
        *s ^= *s >> 12;
        *s ^= *s << 25;
        *s ^= *s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn seeded_matches_plain_on_random_tetra() {
        // Unseeded: bit-identical to ray_tetra on normalized vertices, six
        // evaluations. Seeded with the previous tetrahedron's exit face:
        // still bit-identical, strictly fewer evaluations when a direction
        // matches.
        let mut st = 0xC0FFEEu64;
        for _ in 0..500 {
            let mut v = [Vec3::ZERO; 4];
            for p in &mut v {
                *p = Vec3::new(rand_unit(&mut st), rand_unit(&mut st), rand_unit(&mut st));
            }
            let r = Plucker::from_ray(&Ray::vertical(rand_unit(&mut st), rand_unit(&mut st)));
            let mut vn = v;
            let mut ids = [7u32, 11, 13, 17];
            if normalize_tet(&mut vn) {
                ids.swap(2, 3);
            }
            let plain = ray_tetra(&r, &vn);
            let mut evals = 0u64;
            let (seeded, seed_out) = ray_tetra_seeded(&r, &vn, &ids, None, None, &mut evals);
            assert_eq!(plain, seeded);
            assert_eq!(evals, 6);
            if let Some((fi, _)) = seeded.exit {
                // Feed the exit seed back into the *same* tetrahedron: the
                // three exit-face edges must be reused (all directions
                // match), leaving exactly 3 fresh evaluations.
                let mut evals2 = 0u64;
                let (again, _) =
                    ray_tetra_seeded(&r, &vn, &ids, Some(&seed_out), None, &mut evals2);
                assert_eq!(again, seeded);
                assert_eq!(evals2, 3, "exit face {fi} edges not reused");
            } else {
                assert_eq!(seed_out, FaceSeed::EMPTY);
            }
        }
    }

    #[test]
    fn seeded_reuse_across_shared_face() {
        // Two tetrahedra sharing face (A, B, C): marching from the lower one
        // into the upper one through the shared face must give the upper
        // tetrahedron's plain ray_tetra hit bitwise, with fewer evaluations
        // whenever a canonical direction matches.
        let apex_lo = Vec3::new(0.3, 0.2, -1.0);
        let apex_hi = Vec3::new(0.25, 0.3, 1.0);
        let lower = [A, B, C, apex_lo];
        let upper = [B, A, C, apex_hi]; // different local order on purpose
        let r = Plucker::from_ray(&Ray::vertical(0.2, 0.25));

        let mut lo = lower;
        let mut lo_ids = [0u32, 1, 2, 3];
        if normalize_tet(&mut lo) {
            lo_ids.swap(2, 3);
        }
        let mut evals = 0u64;
        let (lo_hit, seed) = ray_tetra_seeded(&r, &lo, &lo_ids, None, None, &mut evals);
        assert!(lo_hit.is_through());

        let mut up = upper;
        let mut up_ids = [1u32, 0, 2, 4];
        if normalize_tet(&mut up) {
            up_ids.swap(2, 3);
        }
        let mut seeded_evals = 0u64;
        let (up_hit, _) = ray_tetra_seeded(&r, &up, &up_ids, Some(&seed), None, &mut seeded_evals);
        assert_eq!(up_hit, ray_tetra(&r, &upper));
        assert!(up_hit.is_through());
        assert!(seeded_evals < 6, "no shared-face reuse happened");
    }

    #[test]
    fn face_edges_table_matches_ray_tetra_products() {
        // The FACE_EDGES sign table must reproduce ray_tetra's literal
        // per-face products for every face.
        let v = [A, B, C, Vec3::new(0.1, 0.2, 1.0)];
        let r = Plucker::from_ray(&Ray::vertical(0.21, 0.17));
        let s: Vec<f64> = TET_EDGES
            .iter()
            .map(|&(i, j)| r.side(&Plucker::from_edge(v[i], v[j])))
            .collect();
        let (s01, s02, s03, s12, s13, s23) = (s[0], s[1], s[2], s[3], s[4], s[5]);
        let expect: [[f64; 3]; 4] = [
            [s13, -s23, -s12],
            [s02, s23, -s03],
            [s03, -s13, -s01],
            [s01, s12, -s02],
        ];
        for (fi, fe) in FACE_EDGES.iter().enumerate() {
            for k in 0..3 {
                let (e, rev) = fe[k];
                let got = if rev { -s[e] } else { s[e] };
                assert_eq!(got.to_bits(), expect[fi][k].to_bits(), "face {fi} slot {k}");
            }
        }
    }

    #[test]
    fn oblique_ray_tetra() {
        let verts = [A, B, C, Vec3::new(0.2, 0.2, 1.0)];
        let ray = Ray::new(Vec3::new(-1.0, 0.15, 0.1), Vec3::new(1.0, 0.05, 0.05));
        let hit = ray_tetra(&Plucker::from_ray(&ray), &verts);
        if hit.is_through() {
            let (_, p_in) = hit.enter.unwrap();
            let (_, p_out) = hit.exit.unwrap();
            // Both points must lie (approximately) on the ray.
            for p in [p_in, p_out] {
                let on_ray = ray.origin + ray.dir * param_of(&ray, p);
                assert!(on_ray.distance(p) < 1e-9, "point {p:?} not on ray");
            }
        }
    }
}
