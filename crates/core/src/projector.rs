//! The element projector: Eq. 12 rendered one tetrahedron at a time.
//!
//! The marching kernel ([`crate::marching`]) walks each line of sight
//! through the tetrahedra it crosses, so a tetrahedron crossed by `k`
//! centre lines is set up `k` times, once per Plücker step. The projector
//! turns the loop inside out, as in Kaehler's phase-space-element method:
//! each finite tetrahedron is projected into the grid plane once, and the
//! cell centres its footprint covers receive its share of Eq. 12,
//!
//! ```text
//! Σ_T(ξ) += f(ξ, (z_in + z_out)/2) · (z_out − z_in)
//! ```
//!
//! with `z_in` the height of the tetrahedron's lower boundary above `ξ` —
//! the highest of its downward-facing (entry) face planes there — and
//! `z_out` the lowest of its upward-facing (exit) face planes, both clipped
//! to the render's window. The footprint is the union of the lower faces'
//! projections; its boundary (the *silhouette*) is the set of edges with
//! exactly one lower face beside them. Row by row, the two silhouette edges
//! that cross the row bound a span of covered cell centres.
//!
//! # Which cells a footprint covers
//!
//! Every membership decision is exact and made for the centre line moved
//! by the symbolic offset `(ε, ε²)`, `ε → 0⁺`, which lies on no projected
//! edge or vertex:
//!
//! * a row of centre height `y` crosses an edge when `y_lo ≤ y < y_hi`
//!   (half-open, so horizontal edges cross no row);
//! * a centre lies right of a crossing edge when the exact `orient2d` sign
//!   says so, and a centre *on* the edge counts as right of it — the
//!   offset's `ε` moves it right ([`orient2d_sos`], the rule the march
//!   decides its edge sides by).
//!
//! An edge's span boundary on a row is computed from its endpoints in
//! vertex-id order, so the tetrahedra sharing the edge evaluate it the
//! same way, and because the decisions are exact they are also
//! consistent: the moved line lies in exactly one tetrahedron at every
//! height. A line through a projected edge or vertex is therefore counted
//! once, and the projector's `(line, tetrahedron)` pair count equals the
//! march's crossings, which follow the same moved line.
//!
//! # Windows inside the mesh
//!
//! Under a window that leaves part of the mesh's z-extent out, only the
//! tetrahedra whose vertex box meets the render's box — the grid's centres
//! times the window — can contribute, and the projector visits only those
//! (`gather`: a flood fill over face adjacency from the tetrahedron that
//! holds the box's centre). A covered centre then counts as a pair only
//! where its clipped interval is non-empty.
//!
//! # Order of summation
//!
//! Tetrahedra are visited in slot order, so each cell accumulates its
//! contributions in slot order whatever the schedule: a serial render and
//! a row-banded parallel render on any number of threads, gathering or
//! scanning the mesh, give the same bits. They are not the march's bits — the march sums along the line and finds
//! `z_in`, `z_out` from Plücker weights — but agree with them to rounding
//! (`surface_density_reference` is the projector's differential oracle).
//!
//! # Cells per step
//!
//! A row's span is filled several adjacent cells at a time by `fill_span`,
//! one generic over the lanes and the tetrahedron's shape. The width is
//! chosen once per render (`Lanes::host`): four lanes in AVX2 code on an
//! x86-64 host that has AVX2, two (packed SSE2 on x86-64) otherwise. The
//! shape — how many of the faces are lower and how many upper — is chosen
//! once per element, so a row's plane loops have fixed counts. Each lane
//! evaluates `RowPlanes::cell`'s operations in its order, with no fused
//! multiply-add, so the bits are the one-cell loop's whatever the width:
//! lanes split a tetrahedron's row, never the order of the tetrahedra a
//! cell sums (DESIGN.md §4f, "Cells per step").

use crate::estimator::{FieldView, SlotValues};
use crate::grid::{Field2, GridSpec2};
use crate::marching::MarchStats;
use dtfe_delaunay::{Located, Tet, TetId, Topology, INFINITE};
use dtfe_geometry::plucker::{TET_EDGES, TET_FACES};
use dtfe_geometry::predicates::{orient2d_inline as orient2d, orient2d_sos, Orientation};
use dtfe_geometry::{Vec2, Vec3};
use rayon::prelude::*;
use std::array::from_fn;
use std::ops::Range;

/// Rows per band of a parallel render. A band's worker visits the
/// tetrahedra whose vertex box reaches a centre of its rows (one serial
/// pass bins them), so a tetrahedron that straddles a band boundary is set
/// up once per band it touches.
const BAND_ROWS: usize = 16;

/// The cell centres of a grid along one axis: centre `k` is at
/// `origin + (k + 0.5) · cell`, the expression [`GridSpec2::center`]
/// evaluates, so the projector's lines are the march's. A render computes
/// each centre once, into `centres`, and every search and cell reads it
/// there.
struct Axis {
    origin: f64,
    inv_cell: f64,
    centres: Vec<f64>,
}

impl Axis {
    fn new(origin: f64, cell: f64, n: usize) -> Axis {
        Axis {
            origin,
            inv_cell: 1.0 / cell,
            centres: (0..n).map(|k| origin + (k as f64 + 0.5) * cell).collect(),
        }
    }

    fn x(grid: &GridSpec2) -> Axis {
        Axis::new(grid.origin.x, grid.cell.x, grid.nx)
    }

    fn y(grid: &GridSpec2) -> Axis {
        Axis::new(grid.origin.y, grid.cell.y, grid.ny)
    }

    #[inline]
    fn n(&self) -> usize {
        self.centres.len()
    }

    /// An index near the first centre at or above `v`, for the settling
    /// loops to correct (`as i64` truncates and saturates, NaN → 0: one
    /// instruction where `as usize` takes several, and no `ceil`, a libm
    /// call on baseline x86-64).
    #[inline]
    fn guess(&self, v: f64) -> usize {
        let k = (v - self.origin) * self.inv_cell + 0.5;
        (k as i64).clamp(0, self.n() as i64) as usize
    }

    /// The first centre at or above `v` (`n` if none).
    #[inline]
    fn first_at(&self, v: f64) -> usize {
        let c = &self.centres;
        let mut k = self.guess(v);
        while k > 0 && c[k - 1] >= v {
            k -= 1;
        }
        while k < c.len() && c[k] < v {
            k += 1;
        }
        k
    }

    /// The centres in `[lo, hi)`.
    #[inline]
    fn span(&self, lo: f64, hi: f64) -> Range<usize> {
        self.first_at(lo)..self.first_at(hi)
    }
}

/// A non-vertical face's plane, `z = z0 + gx (x − x0) + gy (y − y0)`,
/// anchored at one of its vertices.
#[derive(Clone, Copy, Default)]
struct Plane {
    x0: f64,
    y0: f64,
    z0: f64,
    gx: f64,
    gy: f64,
}

impl Plane {
    fn through(a: Vec3, b: Vec3, c: Vec3) -> Plane {
        let n = (b - a).cross(c - a);
        let inv = -1.0 / n.z;
        Plane {
            x0: a.x,
            y0: a.y,
            z0: a.z,
            gx: n.x * inv,
            gy: n.y * inv,
        }
    }

    /// The plane on row `y`.
    #[inline]
    fn on_row(&self, y: f64) -> RowPlane {
        RowPlane {
            r: self.z0 + self.gy * (y - self.y0),
            g: self.gx,
            x0: self.x0,
        }
    }
}

/// A face plane on one row: `z = r + g (x − x0)`.
#[derive(Clone, Copy, Default, Debug)]
struct RowPlane {
    r: f64,
    g: f64,
    x0: f64,
}

impl RowPlane {
    #[inline]
    fn z(&self, x: f64) -> f64 {
        self.r + self.g * (x - self.x0)
    }
}

/// One row of a projected tetrahedron with `LOWER` lower (entry) faces and
/// `UPPER` upper (exit) ones: their planes on the row, each group in face
/// order, and the heights its integral is clipped to.
#[derive(Clone, Copy, Debug)]
struct RowPlanes<const LOWER: usize, const UPPER: usize> {
    y: f64,
    lower: [RowPlane; LOWER],
    upper: [RowPlane; UPPER],
    z_lo: f64,
    z_hi: f64,
}

impl<const LOWER: usize, const UPPER: usize> RowPlanes<LOWER, UPPER> {
    /// Eq. 12 on the centre line at `x` of the row: `f(mid) · (b − a)`
    /// over the clipped interval `[a, b]`, or `None` where it is empty;
    /// `f` is the field inside the tetrahedron. The one definition of a
    /// cell; [`fill_span`]'s lanes evaluate the same operations in the same
    /// order.
    #[inline]
    fn cell(&self, f: impl Fn(Vec3) -> f64, x: f64) -> Option<f64> {
        let mut z_in = self.lower[0].z(x);
        for p in &self.lower[1..] {
            z_in = z_in.max(p.z(x));
        }
        let mut z_out = self.upper[0].z(x);
        for p in &self.upper[1..] {
            z_out = z_out.min(p.z(x));
        }
        let (a, b) = (z_in.max(self.z_lo), z_out.min(self.z_hi));
        (b > a).then(|| f(Vec3::new(x, self.y, 0.5 * (a + b))) * (b - a))
    }

    /// [`RowPlanes::cell`] at the `N` adjacent centres `x`, one lane each,
    /// added to `out`; returns how many had a non-empty interval. An empty
    /// lane adds `+0.0`.
    #[inline(always)]
    fn cells<const N: usize>(&self, f: &impl Fn(Vec3) -> f64, x: [f64; N], out: &mut [f64]) -> u64 {
        let z = |p: &RowPlane| -> [f64; N] { from_fn(|k| p.z(x[k])) };
        let mut z_in = z(&self.lower[0]);
        for p in &self.lower[1..] {
            let zp = z(p);
            z_in = from_fn(|k| z_in[k].max(zp[k]));
        }
        let mut z_out = z(&self.upper[0]);
        for p in &self.upper[1..] {
            let zp = z(p);
            z_out = from_fn(|k| z_out[k].min(zp[k]));
        }
        let a: [f64; N] = from_fn(|k| z_in[k].max(self.z_lo));
        let b: [f64; N] = from_fn(|k| z_out[k].min(self.z_hi));
        let v: [f64; N] = from_fn(|k| {
            let v = f(Vec3::new(x[k], self.y, 0.5 * (a[k] + b[k]))) * (b[k] - a[k]);
            if b[k] > a[k] {
                v
            } else {
                0.0
            }
        });
        for (o, v) in out.iter_mut().zip(v) {
            *o += v;
        }
        (0..N).map(|k| (b[k] > a[k]) as u64).sum()
    }
}

/// Add row `planes`' cells at the centres `xs` to `out` (one cell per
/// centre) and return how many had a non-empty interval: `LANES` adjacent
/// cells per step, then two, then one through [`RowPlanes::cell`]. Each
/// lane evaluates `cell`'s operations in its order: `f64::max`/`min`
/// ignore a NaN in each lane as they do in one, and an empty lane adds
/// `+0.0`, which leaves every cell as it was — a cell starts at `+0.0` and
/// a round-to-nearest sum never makes it `−0.0`. The plane counts are the
/// tetrahedron's shape, so the plane loops unroll.
///
/// The width is chosen once per render ([`Lanes`]): the body is inlined
/// into [`fill_span_x2`] and, on an x86-64 host with AVX2, into
/// [`fill_span_x4_avx2`], compiled for 256-bit registers. Those two stay
/// out of line, so the packed code has symbols of its own to disassemble.
#[inline(always)]
fn fill_span<const LANES: usize, const LOWER: usize, const UPPER: usize>(
    planes: &RowPlanes<LOWER, UPPER>,
    f: impl Fn(Vec3) -> f64,
    xs: &[f64],
    out: &mut [f64],
) -> u64 {
    debug_assert_eq!(xs.len(), out.len());
    let mut nonempty = 0;
    let mut wide = out.chunks_exact_mut(LANES);
    for (o, x) in (&mut wide).zip(xs.chunks_exact(LANES)) {
        nonempty += planes.cells::<LANES>(&f, from_fn(|k| x[k]), o);
    }
    let out = wide.into_remainder();
    let xs = &xs[xs.len() - out.len()..];
    let mut pairs = out.chunks_exact_mut(2);
    if LANES > 2 {
        for (o, x) in (&mut pairs).zip(xs.chunks_exact(2)) {
            nonempty += planes.cells(&f, [x[0], x[1]], o);
        }
    }
    if let ([o], [.., x]) = (pairs.into_remainder(), xs) {
        if let Some(v) = planes.cell(&f, *x) {
            *o += v;
            nonempty += 1;
        }
    }
    nonempty
}

/// [`fill_span`] two cells per step: packed SSE2 on x86-64.
#[inline(never)]
fn fill_span_x2<const LOWER: usize, const UPPER: usize>(
    planes: &RowPlanes<LOWER, UPPER>,
    f: impl Fn(Vec3) -> f64,
    xs: &[f64],
    out: &mut [f64],
) -> u64 {
    fill_span::<2, LOWER, UPPER>(planes, f, xs, out)
}

/// [`fill_span`] four cells per step, in 256-bit AVX registers. AVX2 adds
/// no fused multiply-add (that is the `fma` feature, not enabled here),
/// so every operation rounds as in [`fill_span_x2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn fill_span_x4_avx2<const LOWER: usize, const UPPER: usize>(
    planes: &RowPlanes<LOWER, UPPER>,
    f: impl Fn(Vec3) -> f64,
    xs: &[f64],
    out: &mut [f64],
) -> u64 {
    fill_span::<4, LOWER, UPPER>(planes, f, xs, out)
}

/// The cells a render fills per step, chosen once per render by
/// [`Lanes::host`].
#[derive(Clone, Copy, Debug)]
enum Lanes {
    /// Two: baseline SSE2 on x86-64, portable code elsewhere.
    X2,
    /// Four, in AVX2 code. Made only by [`Lanes::host`], on a host that
    /// has AVX2.
    #[cfg(target_arch = "x86_64")]
    X4Avx2,
}

impl Lanes {
    /// The widest fill this host runs.
    fn host() -> Lanes {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Lanes::X4Avx2;
        }
        Lanes::X2
    }

    /// [`fill_span`] at this width.
    #[inline(always)]
    fn fill<const LOWER: usize, const UPPER: usize>(
        self,
        planes: &RowPlanes<LOWER, UPPER>,
        f: impl Fn(Vec3) -> f64,
        xs: &[f64],
        out: &mut [f64],
    ) -> u64 {
        match self {
            Lanes::X2 => fill_span_x2(planes, f, xs, out),
            // SAFETY: `X4Avx2` is made only by `Lanes::host`, after
            // `is_x86_feature_detected!("avx2")` said this host has AVX2,
            // the one feature `fill_span_x4_avx2` enables.
            #[cfg(target_arch = "x86_64")]
            Lanes::X4Avx2 => unsafe { fill_span_x4_avx2(planes, f, xs, out) },
        }
    }
}

/// A projected edge, endpoints in vertex-id order, and its inverse slope
/// (`dx/dy`; not finite on a horizontal edge, which crosses no row).
#[derive(Clone, Copy, Default)]
struct Edge {
    u: Vec2,
    v: Vec2,
    dx_dy: f64,
    /// The corners it joins, indices into [`Element::p`].
    ends: [usize; 2],
}

impl Edge {
    /// The first column whose centre on row `y` lies right of the edge or
    /// on it. The float intercept `x` decides when no centre lies within
    /// its error bound; otherwise exact signs settle it. The row must cross
    /// the edge.
    #[inline]
    fn boundary(&self, y: f64, xs: &Axis) -> usize {
        let (u, v, c) = (self.u, self.v, &xs.centres);
        // `y` lies between the endpoint heights, so `|dx_dy (y − u.y)| ≤
        // |v.x − u.x|`: three roundings in the product, one in the sum,
        // bounded here with room to spare.
        let x = u.x + self.dx_dy * (y - u.y);
        let tol = 8.0 * f64::EPSILON * (x.abs() + (v.x - u.x).abs());
        let mut i = xs.guess(x);
        let clear_right = i == c.len() || c[i] - x > tol;
        let clear_left = i == 0 || x - c[i - 1] > tol;
        if clear_right && clear_left {
            return i;
        }
        // Right of an upward edge is clockwise of it, of a downward one
        // counterclockwise; a centre on the edge is moved right by the
        // symbolic offset, as in the march.
        let right_of = if v.y > u.y {
            Orientation::Negative
        } else {
            Orientation::Positive
        };
        let right = |i: usize| orient2d_sos(u, v, Vec2::new(c[i], y)) == right_of;
        while i > 0 && right(i - 1) {
            i -= 1;
        }
        while i < c.len() && !right(i) {
            i += 1;
        }
        i
    }
}

/// One finite tetrahedron, projected: its lower and upper faces, its
/// silhouette edges, and the heights its integral is clipped to.
struct Element {
    /// The corners in the builder's orientation.
    p: [Vec3; 4],
    /// The lower faces, then the upper ones, as indices into
    /// [`TET_FACES`]; their planes are computed once a row of the
    /// footprint covers a centre.
    faces: [usize; 4],
    n_lower: usize,
    n_faces: usize,
    silhouette: [Edge; 4],
    n_silhouette: usize,
    /// The window, narrowed to the tetrahedron's own z-extent: a float
    /// plane evaluated near a steep face cannot leave the tetrahedron.
    z_lo: f64,
    z_hi: f64,
    /// [`Window::inside`]: a covered centre is a pair only where its
    /// clipped interval is non-empty.
    clipped: bool,
}

/// A render's integration window and whether it lies inside the mesh.
#[derive(Clone, Copy)]
struct Window {
    lo: f64,
    hi: f64,
    /// The window leaves part of the mesh's z-extent out: a covered centre
    /// is a pair only where its clipped interval is non-empty, so a pair is
    /// a tetrahedron the segment `ξ × [lo, hi]` meets, as the march counts
    /// one on a line it enters at the window's floor. At full depth every
    /// covered centre is a pair.
    inside: bool,
}

impl Element {
    /// Project the finite tetrahedron `tet` with corners `p` in its order
    /// — the builder's, positive exactly, so its faces are outward.
    fn new(tet: &Tet, p: [Vec3; 4], window: Window) -> Element {
        let ids = tet.verts;
        let xy = p.map(|q| q.xy());
        // Face `f` is opposite vertex `f` and outward; its projected
        // winding is the sign of its normal's z-component (zero for a
        // vertical face, which projects to a segment). A tetrahedron's
        // projected faces have signed areas summing to exactly zero, so
        // one with a lower face has an upper one too.
        let winding = TET_FACES.map(|[i, j, k]| orient2d(xy[i], xy[j], xy[k]));
        let (mut faces, mut n_faces) = ([0; 4], 0);
        let mut take = |side| {
            for f in (0..4).filter(|&f| winding[f] == side) {
                faces[n_faces] = f;
                n_faces += 1;
            }
            n_faces
        };
        let n_lower = take(Orientation::Negative);
        let n_faces = take(Orientation::Positive);
        let mut silhouette = [Edge::default(); 4];
        let mut n_silhouette = 0;
        for &(i, j) in &TET_EDGES {
            // The edge's two faces are the ones opposite the other two
            // vertices.
            let beside = (0..4).filter(|&f| f != i && f != j);
            let lower_beside = beside
                .filter(|&f| winding[f] == Orientation::Negative)
                .count();
            // (An element with no upper face covers nothing; see above.)
            if lower_beside == 1 && n_silhouette < 4 && n_lower < n_faces {
                let (u, v) = if ids[i] < ids[j] { (i, j) } else { (j, i) };
                let (a, b) = (xy[u], xy[v]);
                let dx_dy = (b.x - a.x) / (b.y - a.y);
                silhouette[n_silhouette] = Edge {
                    u: a,
                    v: b,
                    dx_dy,
                    ends: [u, v],
                };
                n_silhouette += 1;
            }
        }
        let (z_lo, z_hi) = p
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), q| {
                (lo.min(q.z), hi.max(q.z))
            });
        Element {
            p,
            faces,
            n_lower,
            n_faces,
            silhouette,
            n_silhouette,
            z_lo: z_lo.max(window.lo),
            z_hi: z_hi.min(window.hi),
            clipped: window.inside,
        }
    }

    /// Add the element's integral to every covered cell of `rows × cols`
    /// in `band`. `f` is the field inside the tetrahedron. Returns the
    /// pairs — the cells covered or, under a window inside the mesh, those
    /// whose clipped interval is non-empty — and the rows set up.
    ///
    /// The element's shape, its `(lower, upper)` face counts, is chosen
    /// here once: (1, 3), (2, 2) or (3, 1), or with one or two vertical
    /// faces (1, 1), (1, 2) or (2, 1). One with no lower face has no upper
    /// one either (see [`Element::new`]) and covers nothing.
    #[inline]
    fn project(
        &self,
        f: impl Fn(Vec3) -> f64,
        rows: Range<usize>,
        cols: &Range<usize>,
        band: &mut Band<'_>,
    ) -> (u64, u64) {
        match (self.n_lower, self.n_faces - self.n_lower) {
            (1, 3) => self.project_shaped::<1, 3>(f, rows, cols, band),
            (2, 2) => self.project_shaped::<2, 2>(f, rows, cols, band),
            (3, 1) => self.project_shaped::<3, 1>(f, rows, cols, band),
            (1, 1) => self.project_shaped::<1, 1>(f, rows, cols, band),
            (1, 2) => self.project_shaped::<1, 2>(f, rows, cols, band),
            (2, 1) => self.project_shaped::<2, 1>(f, rows, cols, band),
            _ => (0, 0),
        }
    }

    /// [`Element::project`] for an element of `LOWER` lower and `UPPER`
    /// upper faces.
    ///
    /// Each silhouette edge crosses the rows whose centres lie in its
    /// half-open y-extent, the centres from its lower end's row to its
    /// upper end's. So the rows fall into runs over which the same edges
    /// cross, and each run looks up its two bounding edges once.
    #[inline]
    fn project_shaped<const LOWER: usize, const UPPER: usize>(
        &self,
        f: impl Fn(Vec3) -> f64,
        rows: Range<usize>,
        cols: &Range<usize>,
        band: &mut Band<'_>,
    ) -> (u64, u64) {
        let (xs, ys) = (band.xs, band.ys);
        let width = band.cols.len();
        let (mut covered, mut nonempty, mut set_up) = (0, 0, 0);
        let mut planes = None;
        let edges = &self.silhouette[..self.n_silhouette];
        let first_row = self.p.map(|q| ys.first_at(q.y));
        let crossed_rows = self.silhouette.map(|e| {
            let [a, b] = e.ends.map(|v| first_row[v]);
            a.min(b)..a.max(b)
        });
        let crossed_rows = &crossed_rows[..edges.len()];
        let mut j = rows.start;
        while j < rows.end {
            // The first two edges crossing row `j`, and the next row where
            // an edge starts or stops crossing.
            let (mut pair, mut n, mut next) = ([0; 2], 0, rows.end);
            for (e, r) in crossed_rows.iter().enumerate() {
                if r.contains(&j) {
                    if n < 2 {
                        pair[n] = e;
                        n += 1;
                    }
                    next = next.min(r.end);
                } else if r.start > j {
                    next = next.min(r.start);
                }
            }
            let run = j..next;
            j = next;
            if n < 2 {
                continue; // a footprint row has exactly two; guard anyway
            }
            set_up += run.len() as u64;
            let [e0, e1] = pair.map(|e| &edges[e]);
            for j in run {
                let y = ys.centres[j];
                let (b0, b1) = (e0.boundary(y, xs), e1.boundary(y, xs));
                let lo = b0.min(b1).max(cols.start);
                let hi = b0.max(b1).min(cols.end);
                if lo >= hi {
                    continue;
                }
                covered += (hi - lo) as u64;
                let (lower, upper): &([Plane; LOWER], [Plane; UPPER]) =
                    planes.get_or_insert_with(|| {
                        let plane = |f: usize| {
                            let [i, j, k] = TET_FACES[self.faces[f]];
                            Plane::through(self.p[i], self.p[j], self.p[k])
                        };
                        (from_fn(plane), from_fn(|k| plane(LOWER + k)))
                    });
                let row: RowPlanes<LOWER, UPPER> = RowPlanes {
                    y,
                    lower: from_fn(|k| lower[k].on_row(y)),
                    upper: from_fn(|k| upper[k].on_row(y)),
                    z_lo: self.z_lo,
                    z_hi: self.z_hi,
                };
                let cells = &mut band.out[(j - band.rows.start) * width..][..width];
                let at = lo - band.cols.start..hi - band.cols.start;
                nonempty += band
                    .lanes
                    .fill(&row, &f, &xs.centres[lo..hi], &mut cells[at]);
            }
        }
        (if self.clipped { nonempty } else { covered }, set_up)
    }
}

/// Finite tetrahedron `tet`'s corners, in its order, from the vertex array.
#[inline]
fn corners(points: &[Vec3], tet: &Tet) -> [Vec3; 4] {
    tet.verts.map(|v| points[v as usize])
}

/// The vertex box of corners `p`.
#[inline]
fn vertex_box(p: &[Vec3; 4]) -> (Vec3, Vec3) {
    p[1..]
        .iter()
        .fold((p[0], p[0]), |(lo, hi), &q| (lo.min(q), hi.max(q)))
}

/// The rows and columns whose centres lie in the vertex box of a finite
/// tetrahedron's corners `p`, clipped to `rows × cols`; `None` if that
/// holds no centre, or if the box's z-extent ends at or outside `window`.
/// The footprint lies in the box, and a centre it covers in `[min, max)`
/// on both axes, so a tetrahedron outside reaches no centre; one outside
/// the window clips every interval to empty, so it adds nothing and counts
/// no pair.
fn reach(
    p: &[Vec3; 4],
    window: Window,
    xs: &Axis,
    ys: &Axis,
    rows: &Range<usize>,
    cols: &Range<usize>,
) -> Option<(Range<usize>, Range<usize>)> {
    let (lo, hi) = vertex_box(p);
    if hi.z <= window.lo || lo.z >= window.hi {
        return None;
    }
    let r = ys.span(lo.y, hi.y);
    let r = r.start.max(rows.start)..r.end.min(rows.end);
    if r.is_empty() {
        return None;
    }
    let c = xs.span(lo.x, hi.x);
    let c = c.start.max(cols.start)..c.end.min(cols.end);
    (!c.is_empty()).then_some((r, c))
}

/// The cells one [`project_into`] call fills: `rows × cols` of the
/// render's axes `xs × ys`, row-major in `out`, `lanes` cells per step.
struct Band<'a> {
    xs: &'a Axis,
    ys: &'a Axis,
    lanes: Lanes,
    rows: Range<usize>,
    cols: Range<usize>,
    out: &'a mut [f64],
}

/// What [`project_into`] counts.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// `(line, tetrahedron)` pairs.
    pairs: u64,
    /// Rows set up.
    rows: u64,
    /// Tetrahedra set up: those that reach a centre of the band.
    elements: u64,
    /// Linear rows derived with a zero gradient (float-singular
    /// tetrahedra).
    zero_grad: u64,
}

impl std::ops::Add for Tally {
    type Output = Tally;
    fn add(self, o: Tally) -> Tally {
        Tally {
            pairs: self.pairs + o.pairs,
            rows: self.rows + o.rows,
            elements: self.elements + o.elements,
            zero_grad: self.zero_grad + o.zero_grad,
        }
    }
}

/// Project the finite tetrahedra `tets` of `view` (in slot order) into
/// `band`, skipping those that reach no centre of it. A linear table's row
/// is derived here, at set-up, from the four vertex values — through the
/// one function its stored rows are written by, so the bits are the
/// stored table's — and the stored rows are never read.
fn project_into(view: &FieldView<'_>, window: Window, tets: &[TetId], mut band: Band<'_>) -> Tally {
    let (topo, points) = (view.cache, view.del.vertices());
    let mut tally = Tally::default();
    for &t in tets {
        let tet = topo.tet(t);
        let p = corners(points, tet);
        let Some((rows, cols)) = reach(&p, window, band.xs, band.ys, &band.rows, &band.cols) else {
            continue;
        };
        tally.elements += 1;
        let el = Element::new(tet, p, window);
        let (p, r) = match view.values {
            SlotValues::Linear(table) => {
                let (row, zeroed) = table.row_at(&el.p, tet.verts);
                tally.zero_grad += zeroed as u64;
                // `x₀` is vertex 0.
                let x0 = el.p[0];
                el.project(|mid| row.eval(x0, mid), rows, &cols, &mut band)
            }
            SlotValues::Constant(c) => {
                let c = c[t as usize];
                el.project(|_| c, rows, &cols, &mut band)
            }
        };
        tally.pairs += p;
        tally.rows += r;
    }
    tally
}

/// The finite tetrahedra, in slot order.
fn finite<'a>(view: &FieldView<'a>) -> impl Iterator<Item = TetId> + 'a {
    let topo = view.cache;
    (0..topo.len() as TetId).filter(move |&t| topo.tet(t).verts[3] != INFINITE)
}

/// The finite tetrahedra whose vertex box meets the render's box `B` —
/// the box of the grid's centres times the window, cut to the mesh's
/// vertex box — in slot order. A flood fill over face adjacency from the
/// tetrahedron that holds `B`'s centre (`Delaunay::locate`), keeping the
/// finite tetrahedra whose box meets `B`, one bit per slot marking those
/// visited. A tetrahedron that contributes to a cell meets `B`, and the
/// tetrahedra that meet `B` meet the convex set `B ∩ hull` and are
/// face-connected through one another, so the fill reaches them all
/// (DESIGN.md §4f has the argument, and its caveat for chords that round
/// into the window).
/// `None` — scan the mesh instead — when `B`'s centre is not inside a
/// finite tetrahedron: outside the hull, on a vertex, or a lost walk.
fn gather(view: &FieldView<'_>, xs: &Axis, ys: &Axis, window: Window) -> Option<Vec<TetId>> {
    let topo = view.cache;
    let (Some((&x0, &x1)), Some((&y0, &y1))) = (
        xs.centres.first().zip(xs.centres.last()),
        ys.centres.first().zip(ys.centres.last()),
    ) else {
        return Some(Vec::new());
    };
    let (mesh_lo, mesh_hi) = topo.bounds();
    let lo = Vec3::new(x0, y0, window.lo).max(mesh_lo);
    let hi = Vec3::new(x1, y1, window.hi).min(mesh_hi);
    if lo.x > hi.x || lo.y > hi.y || lo.z > hi.z {
        return Some(Vec::new()); // no tetrahedron's box meets `B`
    }
    let Located::Finite(seed) = view.del.locate((lo + hi) * 0.5) else {
        return None;
    };
    let points = view.del.vertices();
    let meets = |tet: &Tet| {
        let (a, b) = vertex_box(&corners(points, tet));
        a.x <= hi.x && a.y <= hi.y && a.z <= hi.z && b.x >= lo.x && b.y >= lo.y && b.z >= lo.z
    };
    let mut seen = vec![0u64; topo.len().div_ceil(64)];
    let mut first_visit = |t: TetId| {
        let (word, bit) = (&mut seen[t as usize / 64], 1u64 << (t % 64));
        let first = *word & bit == 0;
        *word |= bit;
        first
    };
    first_visit(seed);
    // Breadth-first, the kept list doubling as the queue.
    let mut kept = vec![seed];
    let mut head = 0;
    while let Some(&t) = kept.get(head) {
        head += 1;
        for &n in &topo.tet(t).neighbors {
            if first_visit(n) {
                let tet = topo.tet(n);
                if tet.verts[3] != INFINITE && meets(tet) {
                    kept.push(n);
                }
            }
        }
    }
    kept.sort_unstable();
    Some(kept)
}

/// One pass over `tets` (in slot order): for each band of [`BAND_ROWS`]
/// rows, those that reach a centre of it, in slot order; and how many
/// reach a centre of the grid.
fn bands(
    view: &FieldView<'_>,
    xs: &Axis,
    ys: &Axis,
    window: Window,
    tets: &[TetId],
) -> (Vec<Vec<TetId>>, u64) {
    let (rows, cols) = (0..ys.n(), 0..xs.n());
    let points = view.del.vertices();
    let mut bands = vec![Vec::new(); ys.n().div_ceil(BAND_ROWS)];
    let mut reached = 0;
    for &t in tets {
        let p = corners(points, view.cache.tet(t));
        if let Some((r, _)) = reach(&p, window, xs, ys, &rows, &cols) {
            reached += 1;
            for band in &mut bands[r.start / BAND_ROWS..=(r.end - 1) / BAND_ROWS] {
                band.push(t);
            }
        }
    }
    (bands, reached)
}

/// Whether a render under `z_range` leaves part of `topo`'s z-extent out
/// (a window inside the mesh), rather than integrating every tetrahedron
/// whole.
pub(crate) fn window_inside(topo: &Topology, z_range: Option<(f64, f64)>) -> bool {
    z_range.is_some_and(|(lo, hi)| lo > topo.z_min() || topo.z_max() > hi)
}

/// Render `grid` by projecting each finite tetrahedron of `view` that can
/// reach it once: serially, or in bands of [`BAND_ROWS`] rows on the Rayon
/// pool — the same bits either way. Under a window inside the mesh only
/// the tetrahedra [`gather`] keeps are visited (every one, when `gather` is
/// false or finds no seed); the others add nothing, so the bits are the
/// same. The stats carry the pair count as `crossings`.
pub(crate) fn render(
    view: FieldView<'_>,
    grid: &GridSpec2,
    z_range: Option<(f64, f64)>,
    parallel: bool,
    gather: bool,
) -> (Field2, MarchStats) {
    let span = dtfe_telemetry::span!("core.project_render", nx = grid.nx, ny = grid.ny);
    let (lo, hi) = z_range.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
    let window = Window {
        lo,
        hi,
        inside: window_inside(view.cache, z_range),
    };
    let (xs, ys) = (Axis::x(grid), Axis::y(grid));
    let gathered = if gather && window.inside {
        let tets = self::gather(&view, &xs, &ys, window);
        match &tets {
            Some(kept) => dtfe_telemetry::counter_add!("core.project_gathered", kept.len() as u64),
            None => dtfe_telemetry::counter_add!("core.project_scan_fallback", 1),
        }
        tets
    } else {
        None
    };
    let tets = gathered.unwrap_or_else(|| finite(&view).collect());
    dtfe_telemetry::counter_add!("core.project_tets", tets.len() as u64);
    let mut out = Field2::zeros(*grid);
    let (nx, lanes) = (grid.nx, Lanes::host());
    let (tally, reached) = if parallel {
        let (bands, reached) = bands(&view, &xs, &ys, window, &tets);
        let tally = out
            .data
            .par_chunks_mut(BAND_ROWS * nx)
            .enumerate()
            .map(|(b, out)| {
                let j0 = b * BAND_ROWS;
                let rows = j0..j0 + out.len() / nx;
                let (xs, ys, cols) = (&xs, &ys, 0..nx);
                let band = Band {
                    xs,
                    ys,
                    lanes,
                    rows,
                    cols,
                    out,
                };
                project_into(&view, window, &bands[b], band)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .fold(Tally::default(), |a, b| a + b);
        (tally, reached)
    } else {
        let (xs, ys, rows, cols) = (&xs, &ys, 0..grid.ny, 0..nx);
        let band = Band {
            xs,
            ys,
            lanes,
            rows,
            cols,
            out: &mut out.data,
        };
        let tally = project_into(&view, window, &tets, band);
        (tally, tally.elements)
    };
    let Tally {
        pairs,
        rows,
        zero_grad,
        ..
    } = tally;
    dtfe_telemetry::counter_add!("core.project_rows", rows);
    dtfe_telemetry::counter_add!("core.project_reach_rejects", tets.len() as u64 - reached);
    if zero_grad > 0 {
        dtfe_telemetry::counter_add!("core.degenerate_tet_zero_grad", zero_grad);
    }
    // The march's traversal counters, so `tets_crossed / los_marched`
    // reads the same quantity on either kernel.
    dtfe_telemetry::counter_add!("core.los_marched", (grid.nx * grid.ny) as u64);
    dtfe_telemetry::counter_add!("core.tets_crossed", pairs);
    drop(span);
    let stats = MarchStats {
        crossings: pairs,
        ..MarchStats::default()
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::TetInterp;
    use crate::marching::Draws;

    fn below(d: &mut Draws, n: usize) -> usize {
        (d.next() % n as u64) as usize
    }

    /// A uniform value in `[-4, 4)`, or one of the values a near-vertical
    /// face, a tie or a signed zero produces.
    fn value(d: &mut Draws) -> f64 {
        const SPECIAL: [f64; 9] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e-300,
        ];
        if below(d, 3) == 0 {
            SPECIAL[below(d, SPECIAL.len())]
        } else {
            d.unit() * 8.0 - 4.0
        }
    }

    /// As [`value`], finite: a render's centres, clip heights and slot
    /// values are (the builder refuses points it cannot hold, and a grid is
    /// validated), so its cells never hold a NaN, whose sign and payload
    /// the compiler's operand order would decide.
    fn finite(d: &mut Draws) -> f64 {
        loop {
            let v = value(d);
            if v.is_finite() {
                return v;
            }
        }
    }

    /// Every width's fill and [`RowPlanes::cell`] one centre at a time,
    /// from the same cells: the same bits and the same count. The widths
    /// are two lanes, four lanes in baseline code, and the render's choice
    /// on this host (four in AVX2 code where the host has AVX2).
    fn same_as_scalar<const L: usize, const U: usize>(
        planes: &RowPlanes<L, U>,
        f: impl Fn(Vec3) -> f64,
        xs: &[f64],
    ) {
        let start: Vec<f64> = (0..xs.len())
            .map(|k| if k % 3 == 0 { 0.0 } else { 0.37 * k as f64 })
            .collect();
        let mut scalar = start.clone();
        let mut m = 0;
        for (o, &x) in scalar.iter_mut().zip(xs) {
            if let Some(v) = planes.cell(&f, x) {
                *o += v;
                m += 1;
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for width in ["2 lanes", "4 lanes", "host"] {
            let mut lanes = start.clone();
            let out = &mut lanes[..];
            let n = match width {
                "2 lanes" => Lanes::X2.fill(planes, &f, xs, out),
                "4 lanes" => fill_span::<4, L, U>(planes, &f, xs, out),
                _ => Lanes::host().fill(planes, &f, xs, out),
            };
            assert_eq!(n, m, "{width}: {planes:?} at {xs:?}");
            assert_eq!(bits(&lanes), bits(&scalar), "{width}: {planes:?} at {xs:?}");
        }
    }

    fn plane(d: &mut Draws) -> RowPlane {
        RowPlane {
            r: value(d),
            g: value(d),
            x0: value(d),
        }
    }

    /// A random row: clipped (finite heights inside the planes' range) or
    /// at full depth (heights beyond every finite plane a row draws but
    /// the extremes).
    fn row<const L: usize, const U: usize>(d: &mut Draws, full_depth: bool) -> RowPlanes<L, U> {
        let (a, b) = if full_depth {
            (-1e6, 1e6)
        } else {
            let (a, b) = (finite(d), finite(d));
            (a.min(b), a.max(b))
        };
        RowPlanes {
            y: finite(d),
            lower: from_fn(|_| plane(d)),
            upper: from_fn(|_| plane(d)),
            z_lo: a,
            z_hi: b,
        }
    }

    /// A linear slot value (Eq. 1) and its tetrahedron's first vertex, and
    /// a constant one.
    fn integrands(d: &mut Draws) -> (TetInterp, Vec3, f64) {
        let row = TetInterp {
            rho0: finite(d),
            grad: Vec3::new(finite(d), finite(d), finite(d)),
        };
        (row, Vec3::new(finite(d), finite(d), finite(d)), finite(d))
    }

    fn random_rows<const L: usize, const U: usize>(seed: u64) {
        let mut d = Draws::new(seed, 0);
        for case in 0..1500 {
            let planes: RowPlanes<L, U> = row(&mut d, case % 5 == 0);
            let len = case % 10;
            let (origin, cell) = (finite(&mut d), 0.25 + below(&mut d, 4) as f64);
            let mut xs: Vec<f64> = (0..len).map(|k| origin + (k as f64 + 0.5) * cell).collect();
            let k = below(&mut d, L + U);
            let anchor = if k < L {
                planes.lower[k].x0
            } else {
                planes.upper[k - L].x0
            };
            if len > 0 && case % 4 == 0 && anchor.is_finite() {
                // A centre on a plane's anchor: `g · 0` is NaN when `g` is
                // infinite.
                xs[below(&mut d, len)] = anchor;
            }
            let (row, x0, c) = integrands(&mut d);
            same_as_scalar(&planes, |p| row.eval(x0, p), &xs);
            same_as_scalar(&planes, |_| c, &xs);
        }
    }

    #[test]
    fn lanes_equal_the_scalar_cell_on_random_and_special_rows() {
        random_rows::<1, 3>(42);
        random_rows::<2, 2>(43);
        random_rows::<3, 1>(44);
        random_rows::<1, 1>(45);
        random_rows::<1, 2>(46);
        random_rows::<2, 1>(47);
    }

    /// Floors and ceilings exactly on the clip heights, signed zeros in
    /// the planes and the clip, and a plane crossing both clip heights
    /// inside the span, for every shape.
    fn clip_heights_and_signed_zeros<const L: usize, const U: usize>() {
        let flat = |z: f64| RowPlane {
            r: z,
            g: 0.0,
            x0: 0.0,
        };
        let sloped = RowPlane {
            r: 0.0,
            g: 1.0,
            x0: 2.0,
        };
        let xs: Vec<f64> = (0..9).map(|k| k as f64 * 0.5).collect();
        let mut d = Draws::new(7, 0);
        let (row, x0, c) = integrands(&mut d);
        let heights = [
            (-1.0, 1.0),
            (-0.0, 0.0),
            (0.0, -0.0),
            (0.0, 0.0),
            (-0.0, 1.0),
        ];
        for (z_lo, z_hi) in heights {
            let lowers = [flat(z_lo), flat(-0.0), flat(0.0), sloped, flat(z_hi)];
            let uppers = [flat(z_hi), flat(0.0), flat(-0.0), sloped, flat(z_lo)];
            for i in 0..lowers.len() {
                for j in 0..uppers.len() {
                    let planes = RowPlanes::<L, U> {
                        y: -0.0,
                        lower: from_fn(|k| lowers[(i + k) % lowers.len()]),
                        upper: from_fn(|k| uppers[(j + k) % uppers.len()]),
                        z_lo,
                        z_hi,
                    };
                    for len in 0..=xs.len() {
                        same_as_scalar(&planes, |p| row.eval(x0, p), &xs[..len]);
                        same_as_scalar(&planes, |_| c, &xs[..len]);
                        same_as_scalar(&planes, |_| -0.0, &xs[..len]);
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_equal_the_scalar_cell_on_clip_heights_and_signed_zeros() {
        clip_heights_and_signed_zeros::<1, 3>();
        clip_heights_and_signed_zeros::<2, 2>();
        clip_heights_and_signed_zeros::<3, 1>();
        clip_heights_and_signed_zeros::<1, 1>();
        clip_heights_and_signed_zeros::<1, 2>();
        clip_heights_and_signed_zeros::<2, 1>();
    }
}
