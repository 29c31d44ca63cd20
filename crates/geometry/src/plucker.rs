//! Plücker-coordinate rays and the Platis–Theoharis ray–tetrahedron
//! intersection test (paper §III-C-2, Eq. 7–10), for the vertical lines of
//! sight every render marches.
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
//! `RayTetra` subroutine (Fig. 3, line 7).
//!
//! # Exact sides
//!
//! For the vertical line through `ξ`, the side product with the directed
//! edge `a → b` is `−orient2d(a_xy, b_xy, ξ)`. Its sign — which side of the
//! projected edge the line passes — is decided exactly, and for the line
//! moved by the symbolic offset `(ε, ε²)` ([`orient2d_sos`]), the rule the
//! element projector decides its spans by. The float product stands
//! wherever its magnitude exceeds [`side_error_bound`], which provably
//! fixes its sign; only a product inside that bound asks the exact rule.
//! So no side is zero (but a vertical edge's, whose faces every line
//! misses), a line crosses a tetrahedron through exactly one entry and one
//! exit face or misses it, and no line is degenerate: the paper's
//! `Perturb` restart (Fig. 2) has nothing to do. The float products stay
//! the crossing weights; one whose sign the exact rule overrules weighs
//! zero, so a crossing point is always a convex combination of its face's
//! corners.

use crate::predicates::{orient2d_sos, orient3d_uncounted, Orientation};
use crate::vec::{Vec2, Vec3};

/// The vertical line of sight through a 2D point, integrating along `+z`
/// — the paper's convention (§IV-A-2) and every line this crate marches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ray {
    pub origin: Vec3,
    pub dir: Vec3,
}

impl Ray {
    /// The vertical line through `(x, y)`.
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

    /// Permuted inner product `π_self ⊙ π_other` (Eq. 8) in floating
    /// point. The sign gives the relative orientation of the two lines;
    /// zero means they meet (or are parallel/coplanar).
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
    /// edge sides positive. Carries the (normalized) barycentric weights of
    /// the intersection point w.r.t. `(a, b, c)`.
    Enter([f64; 3]),
    /// The line crosses along the normal (out of the tetrahedron): all three
    /// sides negative. Carries barycentric weights.
    Exit([f64; 3]),
}

/// Classify the crossing of a line with the oriented face `(a, b, c)`
/// given its three edge side-products `s_ab = π_r ⊙ π_{a→b}` etc., each
/// with its exact sign in its sign bit (a zero of either sign is a side;
/// module docs). A face is crossed when its three sides agree.
///
/// Barycentric weights follow Eq. 9: the weight of a vertex is the product of
/// its *opposite* edge, so `w = [s_bc, s_ca, s_ab] / Σ`. The three share a
/// sign, so every weight lies in `[0, 1]`; where all three are zeros —
/// a face whose projected area is below the products' rounding — the
/// crossing is its centroid.
#[inline]
pub fn classify_face(s_ab: f64, s_bc: f64, s_ca: f64) -> FaceCrossing {
    let weights = || {
        let sum = s_ab + s_bc + s_ca;
        if sum == 0.0 {
            [1.0 / 3.0; 3]
        } else {
            [s_bc / sum, s_ca / sum, s_ab / sum]
        }
    };
    match (
        s_ab.is_sign_negative(),
        s_bc.is_sign_negative(),
        s_ca.is_sign_negative(),
    ) {
        (false, false, false) => FaceCrossing::Enter(weights()),
        (true, true, true) => FaceCrossing::Exit(weights()),
        _ => FaceCrossing::Miss,
    }
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

/// Outcome of intersecting a vertical line with a tetrahedron: both faces
/// or neither.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RayTetraHit {
    /// Face index (opposite-vertex convention) the line enters through, with
    /// the intersection point; `None` if the line misses the tetrahedron.
    pub enter: Option<(usize, Vec3)>,
    /// Face index the line exits through, with the intersection point.
    pub exit: Option<(usize, Vec3)>,
}

impl RayTetraHit {
    pub const MISS: RayTetraHit = RayTetraHit {
        enter: None,
        exit: None,
    };

    /// The line passes through the interior (both crossings found).
    #[inline]
    pub fn is_through(&self) -> bool {
        self.enter.is_some() && self.exit.is_some()
    }
}

/// Normalize a tetrahedron's vertex order to positive orientation, exactly
/// as [`ray_tetra`] does internally: swap vertices 2 and 3 when the exact
/// orientation is negative. Returns `true` if a swap happened. Callers that
/// cache pre-normalized tetrahedra (the marching kernel's per-slot cache)
/// use this so the hot loop skips the determinant. The sign must be exact:
/// on a sliver whose float determinant has the wrong sign, the faces'
/// outward normals would point in, every line would read its entry face as
/// its exit, and a march would step back out the way it came.
#[inline]
pub fn normalize_tet(v: &mut [Vec3; 4]) -> bool {
    if orient3d_uncounted(v[0], v[1], v[2], v[3]) == Orientation::Negative {
        v.swap(2, 3);
        true
    } else {
        false
    }
}

/// The static error bound of a vertical line's float side product with an
/// edge, when every `x` and `y` coordinate of the edge's endpoints and of
/// the line is at most `extent` in magnitude: a product larger than this
/// has the exact sign. With `u = 2⁻⁵³`, each of the evaluation's four
/// products carries its factor's rounded difference and its own rounding,
/// `≤ 4·extent²·u` apiece; the two differences and the sum add `4`, `4`
/// and `8·extent²·u`: `32·extent²·u` in all, doubled here for the
/// higher-order terms, plus a term that covers underflow.
#[inline]
pub fn side_error_bound(extent: f64) -> f64 {
    32.0 * f64::EPSILON * extent * extent + 8.0 * f64::MIN_POSITIVE
}

/// The float side product `s` of the vertical line through `xi` with the
/// directed edge `p0 → p1`, its sign made exact: `s` itself when it clears
/// `bound` ([`side_error_bound`]), else the exact rule's (module docs).
#[inline]
fn certify(s: f64, bound: f64, xi: Vec2, p0: Vec3, p1: Vec3) -> f64 {
    if s.abs() > bound {
        s
    } else {
        exact_side(s, xi, p0, p1)
    }
}

/// [`certify`] over a tetrahedron's six canonical products (in
/// [`TET_EDGES`] order, vertex order `verts`): one test on the hot path,
/// and all six certified out of line when any product needs it.
#[inline]
fn certify_sides(s: &mut [f64; 6], bound: f64, xi: Vec2, verts: &[Vec3; 4]) {
    if s.iter().fold(false, |any, v| any | (v.abs() <= bound)) {
        certify_each(s, bound, xi, verts);
    }
}

#[cold]
#[inline(never)]
fn certify_each(s: &mut [f64; 6], bound: f64, xi: Vec2, verts: &[Vec3; 4]) {
    for (e, &(i, j)) in TET_EDGES.iter().enumerate() {
        s[e] = certify(s[e], bound, xi, verts[i], verts[j]);
    }
}

/// [`certify`]'s exact arm: `s` when its sign is the exact one; else a zero
/// of the exact sign, so it weighs nothing in a crossing. A vertical edge's
/// product is a zero of either sign: every line misses its two faces,
/// whose other two sides disagree.
fn exact_side(s: f64, xi: Vec2, p0: Vec3, p1: Vec3) -> f64 {
    // The side product is −orient2d(p0, p1, ξ).
    match orient2d_sos(p0.xy(), p1.xy(), xi) {
        Orientation::Negative if s <= 0.0 => 0.0,
        Orientation::Positive if s >= 0.0 => -0.0,
        _ => s,
    }
}

/// Intersect the vertical line through `xi` with the tetrahedron `verts`,
/// every side certified against `bound` ([`side_error_bound`]). The vertex
/// order may be either orientation; it is normalized internally, and the
/// returned face indices name the faces of `verts` as given (face `i`
/// opposite `verts[i]`).
///
/// Edge products shared between faces are computed once (six edges, not
/// twelve), as the paper notes ("shared edge calculations can be reused"),
/// by the generic [`Plucker::side`]: this is the reference kernel's test,
/// and its arithmetic is independent of [`ray_tetra_seeded`]'s.
pub fn ray_tetra(xi: Vec2, bound: f64, verts: &[Vec3; 4]) -> RayTetraHit {
    let r = Plucker::from_ray(&Ray::vertical(xi.x, xi.y));
    let mut v = *verts;
    // Swapping vertices 2 and 3 swaps the faces opposite them.
    let swapped = normalize_tet(&mut v);
    let face = |fi: usize| if swapped && fi >= 2 { 5 - fi } else { fi };
    // The six directed edges i -> j for i < j.
    let mut s = TET_EDGES.map(|(i, j)| r.side(&Plucker::from_edge(v[i], v[j])));
    certify_sides(&mut s, bound, xi, &v);
    let [s01, s02, s03, s12, s13, s23] = s;

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
        let [i, j, k] = TET_FACES[fi];
        match classify_face(p[0], p[1], p[2]) {
            FaceCrossing::Miss => {}
            FaceCrossing::Enter(w) => hit.enter = Some((face(fi), face_point(v[i], v[j], v[k], w))),
            FaceCrossing::Exit(w) => hit.exit = Some((face(fi), face_point(v[i], v[j], v[k], w))),
        }
    }
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
/// bitwise exactly, because the certified product depends only on the two
/// endpoint positions and the line. (A *reversed* edge cannot be reused:
/// `l × p0` and `-l × p1` round differently, so only direction-matched
/// pairs preserve bit-identity.)
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

/// [`Plucker::side`] of the vertical line through `xi` against the
/// directed edge `p0 → p1`, specialized: with `u_r = (0,0,1)` and
/// `v_r = (−ξ_y, ξ_x, 0)` the generic permuted product is the edge
/// moment's z-component, which `Vec3::cross` forms as
/// `l.x*p0.y - l.y*p0.x`, plus `l.y ξ_x − l.x ξ_y` — the same products,
/// differences and sum that [`ray_tetra`]'s generic path rounds. The two
/// can differ only in the sign of an exactly-zero product (the generic
/// path folds statically-zero `0 * e` terms into the sum), which is inside
/// every error bound and so decided by the exact rule in both.
#[inline]
fn side_vertical(xi: Vec2, p0: Vec3, p1: Vec3) -> f64 {
    let lx = p1.x - p0.x;
    let ly = p1.y - p0.y;
    (lx * p0.y - ly * p0.x) + (ly * xi.x - lx * xi.y)
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
        let [i, j, k] = TET_FACES[fi];
        match classify_face(p(0), p(1), p(2)) {
            FaceCrossing::Miss => {}
            FaceCrossing::Enter(w) => {
                hit.enter = Some((fi, face_point(verts[i], verts[j], verts[k], w)));
            }
            FaceCrossing::Exit(w) => {
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
/// classified, as [`ray_tetra`] classifies them. The returned hit is
/// bit-for-bit what [`ray_tetra`] returns on the same tetrahedron, its
/// face indices in the normalized order of `verts`; the returned seed
/// carries the exit face's products for the next step (it is
/// [`FaceSeed::EMPTY`] when the line does not exit).
pub fn ray_tetra_seeded(
    xi: Vec2,
    bound: f64,
    verts: &[Vec3; 4],
    ids: &[u32; 4],
    entry: Option<&FaceSeed>,
    entry_face: Option<usize>,
    evals: &mut u64,
) -> (RayTetraHit, FaceSeed) {
    // Pack each directed id pair into one u64 so a seed match is one
    // integer compare, no tuple/branch overhead.
    let key = |i: u32, j: u32| ((i as u64) << 32) | j as u64;
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
            s[e] = side_vertical(xi, verts[i], verts[j]);
        }
    }
    // Seeded products are certified already, and certifying is idempotent.
    certify_sides(&mut s, bound, xi, verts);

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

    /// The bound for the unit-scale fixtures here.
    fn bound() -> f64 {
        side_error_bound(8.0)
    }

    fn xy(x: f64, y: f64) -> Vec2 {
        Vec2::new(x, y)
    }

    /// The crossing of the vertical line through `xi` with a single
    /// oriented face.
    fn ray_face(xi: Vec2, a: Vec3, b: Vec3, c: Vec3) -> FaceCrossing {
        let r = Plucker::from_ray(&Ray::vertical(xi.x, xi.y));
        let side = |p: Vec3, q: Vec3| certify(r.side(&Plucker::from_edge(p, q)), bound(), xi, p, q);
        classify_face(side(a, b), side(b, c), side(c, a))
    }

    #[test]
    fn side_is_minus_orient2d_for_a_vertical_line() {
        let (p0, p1) = (Vec3::new(0.3, -1.2, 4.0), Vec3::new(2.5, 0.7, -1.0));
        for xi in [xy(0.1, 0.2), xy(3.0, -2.0), xy(-1.5, 0.9)] {
            let generic =
                Plucker::from_ray(&Ray::vertical(xi.x, xi.y)).side(&Plucker::from_edge(p0, p1));
            assert_eq!(side_vertical(xi, p0, p1).to_bits(), generic.to_bits());
            let o = crate::predicates::orient2d(p0.xy(), p1.xy(), xi);
            assert_eq!(generic > 0.0, o == Orientation::Negative, "{xi:?}");
        }
    }

    #[test]
    fn face_crossing_classification() {
        // Upward ray through the interior of triangle ABC (normal +z):
        // crossing along the normal = Exit.
        match ray_face(xy(0.2, 0.2), A, B, C) {
            FaceCrossing::Exit(w) => {
                assert!((w[0] - 0.6).abs() < 1e-12);
                assert!((w[1] - 0.2).abs() < 1e-12);
                assert!((w[2] - 0.2).abs() < 1e-12);
            }
            other => panic!("expected Exit, got {other:?}"),
        }
        // Reversed face orientation flips Exit to Enter.
        match ray_face(xy(0.2, 0.2), A, C, B) {
            FaceCrossing::Enter(_) => {}
            other => panic!("expected Enter, got {other:?}"),
        }
        // A ray outside the triangle footprint misses.
        assert_eq!(ray_face(xy(2.0, 2.0), A, B, C), FaceCrossing::Miss);
    }

    #[test]
    fn a_line_through_a_vertex_or_an_edge_crosses_by_the_offset() {
        // ξ + (ε, ε²) from the vertex A, or from the edges AB or CA, lies
        // inside ABC; from B, C or the edge BC it lies outside.
        for xi in [xy(0.0, 0.0), xy(0.5, 0.0), xy(0.0, 0.5)] {
            assert!(
                matches!(ray_face(xi, A, B, C), FaceCrossing::Exit(_)),
                "{xi:?}"
            );
            assert!(
                matches!(ray_face(xi, A, C, B), FaceCrossing::Enter(_)),
                "{xi:?}"
            );
        }
        for xi in [xy(1.0, 0.0), xy(0.0, 1.0), xy(0.5, 0.5)] {
            assert_eq!(ray_face(xi, A, B, C), FaceCrossing::Miss, "{xi:?}");
        }
    }

    #[test]
    fn classify_face_reads_signs_and_weighs_zeros_nothing() {
        assert_eq!(
            classify_face(0.0, 0.0, 0.0),
            FaceCrossing::Enter([1.0 / 3.0; 3])
        );
        assert_eq!(
            classify_face(-0.0, -0.0, -0.0),
            FaceCrossing::Exit([1.0 / 3.0; 3])
        );
        assert_eq!(classify_face(0.0, -0.0, 1.0), FaceCrossing::Miss);
        assert_eq!(
            classify_face(2.0, 0.0, 0.0),
            FaceCrossing::Enter([0.0, 0.0, 1.0])
        );
        assert_eq!(
            classify_face(-1.0, -3.0, -0.0),
            FaceCrossing::Exit([0.75, 0.0, 0.25])
        );
    }

    #[test]
    fn a_product_whose_float_sign_is_wrong_weighs_zero_with_the_exact_sign() {
        // The line through the origin passes right of B → C (side product
        // −orient2d(B, C, 0) = −1 < 0): a float product of either sign
        // inside the bound takes the exact sign, and its magnitude only
        // when that sign agrees.
        let (xi, b, c) = (xy(0.0, 0.0), B, C);
        for (s, want) in [(1e-20, -0.0), (0.0, -0.0), (-0.0, -0.0), (-1e-20, -1e-20)] {
            let got = certify(s, bound(), xi, b, c);
            assert_eq!(got.to_bits(), f64::to_bits(want), "{s}");
        }
        // Outside the bound the float product stands as computed.
        assert_eq!(certify(0.5, bound(), xi, b, c), 0.5);
        // A vertical edge keeps its zero: its faces are missed anyway.
        let top = Vec3::new(1.0, 0.0, 2.0);
        assert_eq!(certify(0.0, bound(), xy(1.0, 0.0), B, top).to_bits(), 0);
        assert_eq!(ray_face(xy(1.0, 0.0), A, B, top), FaceCrossing::Miss);
        assert_eq!(ray_face(xy(0.5, 0.0), A, top, B), FaceCrossing::Miss);
    }

    #[test]
    fn face_point_from_weights() {
        let p = face_point(A, B, C, [0.25, 0.5, 0.25]);
        assert_eq!(p, Vec3::new(0.5, 0.25, 0.0));
    }

    #[test]
    fn ray_tetra_through() {
        let verts = [A, B, C, Vec3::new(0.0, 0.0, 1.0)];
        let hit = ray_tetra(xy(0.2, 0.2), bound(), &verts);
        assert!(hit.is_through(), "hit = {hit:?}");
        let (_, p_in) = hit.enter.unwrap();
        let (_, p_out) = hit.exit.unwrap();
        // Enters through the bottom z=0 face, leaves through the slanted one.
        assert!(p_in.z.abs() < 1e-12, "enter at {p_in:?}");
        assert!((p_out.z - 0.6).abs() < 1e-12, "exit at {p_out:?}"); // x+y+z=1 plane
        assert!(p_out.z > p_in.z);
        // Entry point keeps the ray's x, y.
        assert!((p_in.x - 0.2).abs() < 1e-12 && (p_in.y - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ray_tetra_vertex_order_invariant() {
        let verts_pos = [B, A, C, Vec3::new(0.0, 0.0, 1.0)];
        let verts_neg = [A, B, C, Vec3::new(0.0, 0.0, 1.0)];
        let h1 = ray_tetra(xy(0.1, 0.3), bound(), &verts_pos);
        let h2 = ray_tetra(xy(0.1, 0.3), bound(), &verts_neg);
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
        for (verts, floor) in [([A, B, C, d], 3), ([A, B, d, C], 2)] {
            let hit = ray_tetra(xy(0.2, 0.2), bound(), &verts);
            assert_eq!(hit.enter.unwrap().0, floor, "{verts:?}");
            assert_eq!(hit.exit.unwrap().0, 0, "{verts:?}");
        }
    }

    #[test]
    fn ray_tetra_miss() {
        let verts = [A, B, C, Vec3::new(0.0, 0.0, 1.0)];
        let hit = ray_tetra(xy(0.9, 0.9), bound(), &verts);
        assert_eq!(hit, RayTetraHit::MISS);
    }

    #[test]
    fn a_line_along_an_edge_crosses_or_misses_whole() {
        // The line x = y = 0 runs along the vertical edge from A to (0,0,1);
        // the line x = y = 0.25 meets the edge from A to the apex
        // (0.3, 0.3, 1). Each crosses the tetrahedron through one face pair
        // or misses it, never half.
        for (apex, xi) in [
            (Vec3::new(0.0, 0.0, 1.0), xy(0.0, 0.0)),
            (Vec3::new(0.3, 0.3, 1.0), xy(0.25, 0.25)),
            (Vec3::new(0.3, 0.3, 1.0), xy(0.3, 0.3)),
        ] {
            let hit = ray_tetra(xi, bound(), &[A, B, C, apex]);
            assert_eq!(hit.enter.is_some(), hit.exit.is_some(), "{apex:?} {xi:?}");
        }
        // Through the apex's projection, inside the base: crossed.
        let hit = ray_tetra(xy(0.3, 0.3), bound(), &[A, B, C, Vec3::new(0.3, 0.3, 1.0)]);
        assert!(hit.is_through());
    }

    #[test]
    fn sliver_face_crossings_stay_in_the_tetrahedron() {
        // A face whose projection is a sliver of area ~1e-300: no product
        // of its edges clears the bound, so the exact rule decides all
        // three, and the crossing height must still be finite and inside
        // the tetrahedron's z-range.
        for k in 1..=8 {
            let c = Vec3::new(0.5, k as f64 * 1e-300, 0.5);
            let verts = [A, Vec3::new(1.0, 0.0, 1.0), c, Vec3::new(0.5, 0.5, 3.0)];
            for x in [0.25, 0.5, 0.75, 0.5 + 1e-17] {
                let hit = ray_tetra(xy(x, 0.0), bound(), &verts);
                assert!(hit.is_through(), "k {k} x {x}: {hit:?}");
                for (_, p) in [hit.enter.unwrap(), hit.exit.unwrap()] {
                    assert!(
                        p.z.is_finite() && (0.0..=3.0).contains(&p.z),
                        "k {k} x {x}: {p:?}"
                    );
                }
                let mut vn = verts;
                let mut ids = [0u32, 1, 2, 3];
                if normalize_tet(&mut vn) {
                    ids.swap(2, 3);
                }
                let (seeded, _) =
                    ray_tetra_seeded(xy(x, 0.0), bound(), &vn, &ids, None, None, &mut 0);
                assert_eq!(seeded, ray_tetra(xy(x, 0.0), bound(), &vn));
            }
        }
    }

    #[test]
    fn ray_param_orders_crossings() {
        let verts = [A, B, C, Vec3::new(0.3, 0.3, 1.0)];
        let hit = ray_tetra(xy(0.25, 0.2), bound(), &verts);
        let (_, p_in) = hit.enter.unwrap();
        let (_, p_out) = hit.exit.unwrap();
        assert!(p_in.z < p_out.z);
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
            let xi = xy(rand_unit(&mut st), rand_unit(&mut st));
            let mut vn = v;
            let mut ids = [7u32, 11, 13, 17];
            if normalize_tet(&mut vn) {
                ids.swap(2, 3);
            }
            let plain = ray_tetra(xi, bound(), &vn);
            let mut evals = 0u64;
            let (seeded, seed_out) =
                ray_tetra_seeded(xi, bound(), &vn, &ids, None, None, &mut evals);
            assert_eq!(plain, seeded);
            assert_eq!(evals, 6);
            if let Some((fi, _)) = seeded.exit {
                // Feed the exit seed back into the *same* tetrahedron: the
                // three exit-face edges must be reused (all directions
                // match), leaving exactly 3 fresh evaluations.
                let mut evals2 = 0u64;
                let (again, _) =
                    ray_tetra_seeded(xi, bound(), &vn, &ids, Some(&seed_out), None, &mut evals2);
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
        let xi = xy(0.2, 0.25);

        let mut lo = lower;
        let mut lo_ids = [0u32, 1, 2, 3];
        if normalize_tet(&mut lo) {
            lo_ids.swap(2, 3);
        }
        let mut evals = 0u64;
        let (lo_hit, seed) = ray_tetra_seeded(xi, bound(), &lo, &lo_ids, None, None, &mut evals);
        assert!(lo_hit.is_through());

        let mut up = upper;
        let mut up_ids = [1u32, 0, 2, 4];
        if normalize_tet(&mut up) {
            up_ids.swap(2, 3);
        }
        let mut seeded_evals = 0u64;
        let (up_hit, _) = ray_tetra_seeded(
            xi,
            bound(),
            &up,
            &up_ids,
            Some(&seed),
            None,
            &mut seeded_evals,
        );
        assert_eq!(up_hit, ray_tetra(xi, bound(), &upper));
        assert!(up_hit.is_through());
        assert!(seeded_evals < 6, "no shared-face reuse happened");
    }

    #[test]
    fn face_edges_table_matches_ray_tetra_products() {
        // The FACE_EDGES sign table must reproduce ray_tetra's literal
        // per-face products for every face.
        let v = [A, B, C, Vec3::new(0.1, 0.2, 1.0)];
        let xi = xy(0.21, 0.17);
        let s: Vec<f64> = TET_EDGES
            .iter()
            .map(|&(i, j)| side_vertical(xi, v[i], v[j]))
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
}
