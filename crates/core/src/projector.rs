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
//!   says so, and a centre *on* the edge counts as right of it.
//!
//! An edge's span boundary on a row is computed from its endpoints in
//! vertex-id order, so the tetrahedra sharing the edge evaluate it the
//! same way, and because the decisions are exact they are also
//! consistent: the perturbed line lies in exactly one tetrahedron at every
//! height. A line through a projected edge or vertex is therefore counted
//! once, never perturbed, and the projector's `(line, tetrahedron)` pair
//! count equals the march's crossings wherever the march needs no
//! `Perturb`.
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

use crate::estimator::{FieldView, SlotValues};
use crate::grid::{Field2, GridSpec2};
use crate::marching::MarchStats;
use dtfe_delaunay::{Located, Record, TetId, Topology, INFINITE};
use dtfe_geometry::plucker::{TET_EDGES, TET_FACES};
use dtfe_geometry::predicates::{orient2d_inline as orient2d, Orientation};
use dtfe_geometry::{Vec2, Vec3};
use rayon::prelude::*;
use std::ops::Range;

/// Rows per band of a parallel render. A band's worker visits the
/// tetrahedra whose vertex box reaches a centre of its rows (one serial
/// pass bins them), so a tetrahedron that straddles a band boundary is set
/// up once per band it touches.
const BAND_ROWS: usize = 16;

/// The cell centres of a grid along one axis: centre `k` is at
/// `origin + (k + 0.5) · cell`, the expression [`GridSpec2::center`]
/// evaluates, so the projector's lines are the march's.
#[derive(Clone, Copy)]
struct Axis {
    origin: f64,
    cell: f64,
    inv_cell: f64,
    n: usize,
}

impl Axis {
    fn x(grid: &GridSpec2) -> Axis {
        Axis {
            origin: grid.origin.x,
            cell: grid.cell.x,
            inv_cell: 1.0 / grid.cell.x,
            n: grid.nx,
        }
    }

    fn y(grid: &GridSpec2) -> Axis {
        Axis {
            origin: grid.origin.y,
            cell: grid.cell.y,
            inv_cell: 1.0 / grid.cell.y,
            n: grid.ny,
        }
    }

    #[inline]
    fn centre(&self, k: usize) -> f64 {
        self.at(k as f64)
    }

    /// Centre `k` from `k` as a float. `usize → f64` is a several-instruction
    /// conversion on x86-64, so the checks that almost always settle a
    /// guess share one conversion (`k ± 1` is exact in f64 below `2⁵²`).
    #[inline]
    fn at(&self, k: f64) -> f64 {
        self.origin + (k + 0.5) * self.cell
    }

    /// An index near the first centre at or above `v`, for the settling
    /// loops to correct (`as` truncates and saturates, NaN → 0; no `ceil`,
    /// a libm call on baseline x86-64).
    #[inline]
    fn guess(&self, v: f64) -> usize {
        let k = (v - self.origin) * self.inv_cell + 0.5;
        (k.max(0.0) as usize).min(self.n)
    }

    /// The first centre at or above `v` (`n` if none).
    #[inline]
    fn first_at(&self, v: f64) -> usize {
        let mut k = self.guess(v);
        let kf = k as f64;
        if k > 0 && self.at(kf - 1.0) >= v {
            k -= 1;
            while k > 0 && self.centre(k - 1) >= v {
                k -= 1;
            }
        } else if k < self.n && self.at(kf) < v {
            k += 1;
            while k < self.n && self.centre(k) < v {
                k += 1;
            }
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

    /// The plane on row `y`: `z = r + gx (x − x0)`.
    #[inline]
    fn on_row(&self, y: f64) -> (f64, f64, f64) {
        (self.z0 + self.gy * (y - self.y0), self.gx, self.x0)
    }
}

/// A projected edge, endpoints in vertex-id order, and its inverse slope
/// (`dx/dy`; not finite on a horizontal edge, which crosses no row).
#[derive(Clone, Copy, Default)]
struct Edge {
    u: Vec2,
    v: Vec2,
    dx_dy: f64,
}

impl Edge {
    /// Whether a row of centre height `y` crosses the edge (half-open in y).
    #[inline]
    fn crosses(&self, y: f64) -> bool {
        (self.u.y <= y) != (self.v.y <= y)
    }

    /// The first column whose centre on row `y` lies right of the edge or
    /// on it. The float intercept `x` decides when no centre lies within
    /// its error bound; otherwise exact signs settle it. The row must cross
    /// the edge.
    #[inline]
    fn boundary(&self, y: f64, xs: &Axis) -> usize {
        let (u, v) = (self.u, self.v);
        // `y` lies between the endpoint heights, so `|dx_dy (y − u.y)| ≤
        // |v.x − u.x|`: three roundings in the product, one in the sum,
        // bounded here with room to spare.
        let x = u.x + self.dx_dy * (y - u.y);
        let tol = 8.0 * f64::EPSILON * (x.abs() + (v.x - u.x).abs());
        let mut i = xs.guess(x);
        let f = i as f64;
        let clear_right = i == xs.n || xs.at(f) - x > tol;
        let clear_left = i == 0 || x - xs.at(f - 1.0) > tol;
        if clear_right && clear_left {
            return i;
        }
        let up = v.y > u.y;
        let right = |i: usize| match orient2d(u, v, Vec2::new(xs.centre(i), y)) {
            Orientation::Zero => true,
            Orientation::Positive => !up,
            Orientation::Negative => up,
        };
        while i > 0 && right(i - 1) {
            i -= 1;
        }
        while i < xs.n && !right(i) {
            i += 1;
        }
        i
    }
}

/// One finite tetrahedron, projected: the planes of its lower and upper
/// faces, its silhouette edges, and the heights its integral is clipped to.
struct Element {
    /// The corners in the builder's orientation.
    p: [Vec3; 4],
    /// The lower and upper faces, as indices into [`TET_FACES`]; their
    /// planes are computed once a row of the footprint covers a centre.
    lower: [usize; 3],
    n_lower: usize,
    upper: [usize; 3],
    n_upper: usize,
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
    /// Project the finite tetrahedron of record `rec`, `swapped` undoing
    /// the record's float orientation so the faces are outward under the
    /// builder's exact orientation.
    fn new(rec: &Record, swapped: bool, window: Window) -> Element {
        let (mut p, mut ids) = (rec.pts, rec.ids);
        if swapped {
            p.swap(2, 3);
            ids.swap(2, 3);
        }
        let xy = p.map(|q| q.xy());
        // Face `f` is opposite vertex `f` and outward; its projected
        // winding is the sign of its normal's z-component.
        let mut lower_face = [false; 4];
        let (mut lower, mut n_lower) = ([0; 3], 0);
        let (mut upper, mut n_upper) = ([0; 3], 0);
        for (f, &[i, j, k]) in TET_FACES.iter().enumerate() {
            match orient2d(xy[i], xy[j], xy[k]) {
                Orientation::Negative if n_lower < 3 => {
                    lower_face[f] = true;
                    lower[n_lower] = f;
                    n_lower += 1;
                }
                Orientation::Positive if n_upper < 3 => {
                    upper[n_upper] = f;
                    n_upper += 1;
                }
                _ => {} // vertical: it projects to a segment
            }
        }
        let mut silhouette = [Edge::default(); 4];
        let mut n_silhouette = 0;
        for &(i, j) in &TET_EDGES {
            // The edge's two faces are the ones opposite the other two
            // vertices.
            let beside = (0..4).filter(|&f| f != i && f != j);
            let lower_beside = beside.filter(|&f| lower_face[f]).count();
            if lower_beside == 1 && n_silhouette < 4 {
                let (u, v) = if ids[i] < ids[j] { (i, j) } else { (j, i) };
                let (u, v) = (xy[u], xy[v]);
                let dx_dy = (v.x - u.x) / (v.y - u.y);
                silhouette[n_silhouette] = Edge { u, v, dx_dy };
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
            lower,
            n_lower,
            upper,
            n_upper,
            silhouette,
            n_silhouette,
            z_lo: z_lo.max(window.lo),
            z_hi: z_hi.min(window.hi),
            clipped: window.inside,
        }
    }

    /// Add the element's integral to every covered cell of `rows × cols`;
    /// `out` holds the cells of `out_rows × out_cols` row-major. `f` is the
    /// field inside the tetrahedron. Returns the cells covered — under a
    /// window inside the mesh, those whose clipped interval is non-empty.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn project(
        &self,
        f: impl Fn(Vec3) -> f64,
        xs: &Axis,
        ys: &Axis,
        rows: Range<usize>,
        cols: &Range<usize>,
        out_rows: &Range<usize>,
        out_cols: &Range<usize>,
        out: &mut [f64],
    ) -> u64 {
        let width = out_cols.len();
        let (mut covered, mut nonempty) = (0, 0);
        let mut planes = None;
        for j in rows {
            let y = ys.centre(j);
            let mut bounds = [0usize; 2];
            let mut n = 0;
            for e in &self.silhouette[..self.n_silhouette] {
                if e.crosses(y) && n < 2 {
                    bounds[n] = e.boundary(y, xs);
                    n += 1;
                }
            }
            if n < 2 {
                continue; // a footprint row has exactly two; guard anyway
            }
            let lo = bounds[0].min(bounds[1]).max(cols.start);
            let hi = bounds[0].max(bounds[1]).min(cols.end);
            if lo >= hi {
                continue;
            }
            covered += (hi - lo) as u64;
            let (lower, upper) = planes.get_or_insert_with(|| {
                let plane = |f: usize| {
                    let [i, j, k] = TET_FACES[f];
                    Plane::through(self.p[i], self.p[j], self.p[k])
                };
                (self.lower.map(plane), self.upper.map(plane))
            });
            let lower = lower.map(|p| p.on_row(y));
            let upper = upper.map(|p| p.on_row(y));
            let row = &mut out[(j - out_rows.start) * width..][..width];
            for i in lo..hi {
                let x = xs.centre(i);
                let z = |(r, g, x0): (f64, f64, f64)| r + g * (x - x0);
                let mut z_in = z(lower[0]);
                for &pl in &lower[1..self.n_lower] {
                    z_in = z_in.max(z(pl));
                }
                let mut z_out = z(upper[0]);
                for &pl in &upper[1..self.n_upper] {
                    z_out = z_out.min(z(pl));
                }
                let (a, b) = (z_in.max(self.z_lo), z_out.min(self.z_hi));
                if b > a {
                    row[i - out_cols.start] += f(Vec3::new(x, y, 0.5 * (a + b))) * (b - a);
                    nonempty += 1;
                }
            }
        }
        if self.clipped {
            nonempty
        } else {
            covered
        }
    }
}

/// Finite record `rec`'s vertex box.
#[inline]
fn vertex_box(rec: &Record) -> (Vec3, Vec3) {
    rec.pts[1..]
        .iter()
        .fold((rec.pts[0], rec.pts[0]), |(lo, hi), &p| {
            (lo.min(p), hi.max(p))
        })
}

/// The rows and columns whose centres lie in finite record `rec`'s vertex
/// box, clipped to `rows × cols`; `None` if that holds no centre, or if the
/// box's z-extent ends at or outside `window`. The footprint lies in the
/// box, and a centre it covers in `[min, max)` on both axes, so a
/// tetrahedron outside reaches no centre; one outside the window clips
/// every interval to empty, so it adds nothing and counts no pair.
fn reach(
    rec: &Record,
    window: Window,
    xs: &Axis,
    ys: &Axis,
    rows: &Range<usize>,
    cols: &Range<usize>,
) -> Option<(Range<usize>, Range<usize>)> {
    let (lo, hi) = vertex_box(rec);
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

/// Project the finite tetrahedra `tets` of `view` (in slot order) into
/// `out`, the cells of `rows × cols` row-major, skipping those that reach
/// no centre there. Returns the `(line, tetrahedron)` pairs.
fn project_into(
    view: &FieldView<'_>,
    grid: &GridSpec2,
    window: Window,
    tets: &[TetId],
    rows: Range<usize>,
    cols: Range<usize>,
    out: &mut [f64],
) -> u64 {
    let topo = view.cache;
    let (xs, ys) = (Axis::x(grid), Axis::y(grid));
    let mut pairs = 0;
    for &t in tets {
        let rec = topo.record(t);
        let Some((reach_rows, reach_cols)) = reach(rec, window, &xs, &ys, &rows, &cols) else {
            continue;
        };
        let el = Element::new(rec, topo.is_swapped(t), window);
        pairs += match view.values {
            SlotValues::Linear(table) => {
                let (row, x0) = (table[t as usize], rec.pts[0]);
                let f = |mid| row.eval(x0, mid);
                el.project(f, &xs, &ys, reach_rows, &reach_cols, &rows, &cols, out)
            }
            SlotValues::Constant(c) => {
                let c = c[t as usize];
                el.project(|_| c, &xs, &ys, reach_rows, &reach_cols, &rows, &cols, out)
            }
        };
    }
    pairs
}

/// The finite tetrahedra, in slot order.
fn finite<'a>(view: &FieldView<'a>) -> impl Iterator<Item = TetId> + 'a {
    let topo = view.cache;
    (0..topo.len() as TetId).filter(move |&t| topo.record(t).ids[3] != INFINITE)
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
fn gather(view: &FieldView<'_>, grid: &GridSpec2, window: Window) -> Option<Vec<TetId>> {
    let topo = view.cache;
    if grid.nx == 0 || grid.ny == 0 {
        return Some(Vec::new());
    }
    let (xs, ys) = (Axis::x(grid), Axis::y(grid));
    let (mesh_lo, mesh_hi) = topo.bounds();
    let lo = Vec3::new(xs.centre(0), ys.centre(0), window.lo).max(mesh_lo);
    let hi = Vec3::new(xs.centre(xs.n - 1), ys.centre(ys.n - 1), window.hi).min(mesh_hi);
    if lo.x > hi.x || lo.y > hi.y || lo.z > hi.z {
        return Some(Vec::new()); // no tetrahedron's box meets `B`
    }
    let Located::Finite(seed) = view.del.locate((lo + hi) * 0.5) else {
        return None;
    };
    let meets = |rec: &Record| {
        let (a, b) = vertex_box(rec);
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
        for &n in &topo.record(t).neighbors {
            if first_visit(n) {
                let rec = topo.record(n);
                if rec.ids[3] != INFINITE && meets(rec) {
                    kept.push(n);
                }
            }
        }
    }
    kept.sort_unstable();
    Some(kept)
}

/// One pass over `tets` (in slot order): for each band of [`BAND_ROWS`]
/// rows, those that reach a centre of it, in slot order.
fn bands(
    view: &FieldView<'_>,
    grid: &GridSpec2,
    window: Window,
    tets: &[TetId],
) -> Vec<Vec<TetId>> {
    let (xs, ys) = (Axis::x(grid), Axis::y(grid));
    let (rows, cols) = (0..grid.ny, 0..grid.nx);
    let mut bands = vec![Vec::new(); grid.ny.div_ceil(BAND_ROWS)];
    for &t in tets {
        if let Some((r, _)) = reach(view.cache.record(t), window, &xs, &ys, &rows, &cols) {
            for band in &mut bands[r.start / BAND_ROWS..=(r.end - 1) / BAND_ROWS] {
                band.push(t);
            }
        }
    }
    bands
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
    let gathered = if gather && window.inside {
        let tets = self::gather(&view, grid, window);
        if tets.is_none() {
            dtfe_telemetry::counter_add!("core.project_scan_fallback", 1);
        }
        tets
    } else {
        None
    };
    let tets = gathered.unwrap_or_else(|| finite(&view).collect());
    dtfe_telemetry::counter_add!("core.project_tets", tets.len() as u64);
    let mut out = Field2::zeros(*grid);
    let nx = grid.nx;
    let pairs = if parallel {
        let bands = bands(&view, grid, window, &tets);
        out.data
            .par_chunks_mut(BAND_ROWS * nx)
            .enumerate()
            .map(|(b, band)| {
                let j0 = b * BAND_ROWS;
                let rows = j0..j0 + band.len() / nx;
                project_into(&view, grid, window, &bands[b], rows, 0..nx, band)
            })
            .collect::<Vec<u64>>()
            .iter()
            .sum()
    } else {
        project_into(&view, grid, window, &tets, 0..grid.ny, 0..nx, &mut out.data)
    };
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
