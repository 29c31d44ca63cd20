//! Incremental 3D Delaunay triangulation.
//!
//! This crate replaces the role CGAL / Qhull play in the paper: it builds the
//! Delaunay tetrahedralization the DTFE method interpolates on (paper §III-A)
//! and exposes exactly the two structural features the surface-density kernel
//! needs:
//!
//! * a **facet adjacency** structure (`neighbors[i]` opposite `verts[i]`),
//!   which is what both the *walking* point location (paper Eq. 6) and the
//!   *marching* ray traversal (paper §IV-A) consume, and
//! * the **convex hull**, represented by ghost tetrahedra incident to a
//!   symbolic infinite vertex — the hull-projection entry search of the
//!   marching kernel (paper Eq. 14) is a scan over these.
//!
//! # Algorithm
//!
//! Construction is incremental Bowyer–Watson with the *infinite vertex*
//! convention (as in CGAL): every hull facet has an adjacent *ghost*
//! tetrahedron whose fourth vertex is [`INFINITE`]. Inserting a point
//!
//! 1. **locates** the tetrahedron containing it by a remembering stochastic
//!    visibility walk ([`Delaunay::locate`]),
//! 2. grows the **conflict region** — every tetrahedron whose open
//!    circumball contains the point (for ghosts: every hull facet the point
//!    is strictly beyond, plus coplanar facets whose circumdisk contains it),
//! 3. deletes the region and **retriangulates the cavity** by starring the
//!    boundary facets from the new point, rewiring adjacency in place.
//!
//! All orientation decisions go through the exact predicates of
//! [`dtfe_geometry::predicates`], so the structure is sound for the
//! degenerate inputs cosmological data actually contains (lattice initial
//! conditions, cospherical points).
//!
//! # Insertion order
//!
//! [`DelaunayBuilder`] is the single construction entry point. It inserts in
//! a BRIO order (see `morton.rs`): rounds drawn by a hash of each point's
//! coordinates, coarsest first, Morton-sorted inside a round, which keeps
//! consecutive locates short. The order depends only on the point set, so
//! the same particles give the same mesh however the caller sequenced them.
//! One triangulation is built by one thread; parallelism lives a level up,
//! across tiles and work items.
//!
//! # Example
//!
//! ```
//! use dtfe_delaunay::DelaunayBuilder;
//! use dtfe_geometry::Vec3;
//!
//! let pts = vec![
//!     Vec3::new(0.0, 0.0, 0.0),
//!     Vec3::new(1.0, 0.0, 0.0),
//!     Vec3::new(0.0, 1.0, 0.0),
//!     Vec3::new(0.0, 0.0, 1.0),
//!     Vec3::new(0.3, 0.3, 0.3),
//! ];
//! let del = DelaunayBuilder::new().build(&pts).unwrap();
//! assert_eq!(del.num_vertices(), 5);
//! assert!(del.validate().is_ok());
//! ```

mod builder;
mod insert;
mod locate;
mod mesh;
mod morton;
mod topology;
pub mod validate;

pub use builder::{BuildError, DelaunayBuilder, Triangulation};
pub use locate::Located;
pub use mesh::{Tet, TetId, VertexId, INFINITE, NONE};
pub use topology::{Record, Topology};
pub use validate::ValidationError;

use dtfe_geometry::Vec3;
use insert::Incremental;

/// Insert `input` in `order`. Assumes finite coordinates (the builder
/// checks).
pub(crate) fn build_serial(input: &[Vec3], order: &[u32]) -> Result<Incremental, DelaunayError> {
    let mut d = insert::bootstrap(input, order)?;
    for &idx in order {
        let index = idx as usize;
        if d.input_vertex[index] == NONE {
            let v = d
                .insert_point(input[index])
                .ok_or(DelaunayError::Lost { index })?;
            d.input_vertex[index] = v;
        }
    }
    Ok(d)
}

/// Errors from triangulation construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelaunayError {
    /// Fewer than four affinely independent points: no 3D triangulation
    /// exists (all points coincident, collinear, or coplanar).
    Degenerate,
    /// Locating input point `index` in the partial triangulation overran
    /// the walk's step bound ([`Located::Lost`]).
    Lost {
        /// Index of the input point being inserted.
        index: usize,
    },
}

impl std::fmt::Display for DelaunayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelaunayError::Degenerate => {
                write!(
                    f,
                    "input points are affinely degenerate (need 4 non-coplanar points)"
                )
            }
            DelaunayError::Lost { index } => {
                write!(f, "locating input point {index} did not terminate")
            }
        }
    }
}

impl std::error::Error for DelaunayError {}

/// A 3D Delaunay triangulation with ghost tetrahedra on the hull.
///
/// Vertex ids index [`Delaunay::vertex`]; duplicate input points are merged
/// and [`Delaunay::vertex_of_input`] maps input indices to vertex ids.
///
/// Its tetrahedra are laid out one of two ways. [`DelaunayBuilder::build`]
/// returns them as insertion left them: 32 B [`Tet`] slots in insertion
/// order, freed slots kept. [`Delaunay::into_topology`] consumes that array
/// and writes the render-time [`Topology`], one 128 B [`Record`] per live
/// slot in breadth-first order, which is then the only copy. Every reader
/// — [`Delaunay::tet`], point location, validation — reads whichever
/// layout the triangulation has, in the builder's exact vertex order.
pub struct Delaunay {
    pub(crate) points: Vec<Vec3>,
    /// Map from input point index to vertex id (duplicates collapse).
    pub(crate) input_vertex: Vec<VertexId>,
    /// Number of live finite tetrahedra.
    pub(crate) n_finite: usize,
    /// Number of live ghost tetrahedra.
    pub(crate) n_ghost: usize,
    pub(crate) slots: Slots,
}

/// Where a triangulation's tetrahedra live.
pub(crate) enum Slots {
    /// As insertion left them: slot order of creation, freed slots kept as
    /// dead records.
    Built(Vec<Tet>),
    /// The render-time records.
    Records(Topology),
}

impl std::fmt::Debug for Delaunay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Delaunay")
            .field("vertices", &self.points.len())
            .field("finite_tets", &self.n_finite)
            .field("ghost_tets", &self.n_ghost)
            .field("records", &matches!(self.slots, Slots::Records(_)))
            .finish()
    }
}

impl Delaunay {
    /// Number of (unique) vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.points.len()
    }

    /// Number of live finite tetrahedra.
    #[inline]
    pub fn num_tets(&self) -> usize {
        self.n_finite
    }

    /// Number of live ghost (hull) tetrahedra — one per hull facet.
    #[inline]
    pub fn num_ghosts(&self) -> usize {
        self.n_ghost
    }

    /// Coordinates of vertex `v`.
    #[inline]
    pub fn vertex(&self, v: VertexId) -> Vec3 {
        self.points[v as usize]
    }

    /// All vertex coordinates, indexed by `VertexId`.
    #[inline]
    pub fn vertices(&self) -> &[Vec3] {
        &self.points
    }

    /// Vertex id the `i`-th input point mapped to.
    #[inline]
    pub fn vertex_of_input(&self, i: usize) -> VertexId {
        self.input_vertex[i]
    }

    /// Tetrahedron `t` (may be a ghost; check [`Tet::is_ghost`]), in the
    /// builder's exact vertex order.
    #[inline]
    pub fn tet(&self, t: TetId) -> Tet {
        let tet = self.tet_slot(t);
        debug_assert!(tet.is_live(), "access to freed tet {t}");
        tet
    }

    /// Total number of tetrahedron slots (live and freed); `TetId`s are
    /// indices below this bound.
    #[inline]
    pub fn num_slots(&self) -> usize {
        match &self.slots {
            Slots::Built(tets) => tets.len(),
            Slots::Records(topo) => topo.len(),
        }
    }

    /// Slot access that tolerates freed slots (check [`Tet::is_live`];
    /// the render-time layout has none).
    #[inline]
    pub fn tet_slot(&self, t: TetId) -> Tet {
        match &self.slots {
            Slots::Built(tets) => tets[t as usize],
            Slots::Records(topo) => topo.tet(t),
        }
    }

    /// The render-time records; `None` until [`Delaunay::into_topology`].
    #[inline]
    pub fn topology(&self) -> Option<&Topology> {
        match &self.slots {
            Slots::Built(_) => None,
            Slots::Records(topo) => Some(topo),
        }
    }

    /// Lay the triangulation out for rendering: one pass over the builder's
    /// slots numbers the live ones breadth-first and writes one [`Record`]
    /// per slot (see [`Topology`]); the slot array is freed. Only slot
    /// numbers change — every tetrahedron's vertex array, as [`Delaunay::tet`]
    /// returns it, is the builder's — so `TetId`s retained from before this
    /// call go stale. A triangulation already laid out is returned as is.
    pub fn into_topology(self) -> Delaunay {
        let Delaunay {
            points,
            input_vertex,
            n_finite,
            n_ghost,
            slots,
        } = self;
        let topo = match slots {
            Slots::Built(tets) => Topology::build(&tets, &points, n_finite + n_ghost),
            Slots::Records(topo) => topo,
        };
        Delaunay {
            points,
            input_vertex,
            n_finite,
            n_ghost,
            slots: Slots::Records(topo),
        }
    }

    /// Iterator over ids of live finite tetrahedra.
    pub fn finite_tets(&self) -> impl Iterator<Item = TetId> + '_ {
        (0..self.num_slots() as TetId).filter(move |&t| {
            let tet = self.tet_slot(t);
            tet.is_live() && !tet.is_ghost()
        })
    }

    /// Iterator over ids of live ghost tetrahedra (hull facets).
    pub fn ghost_tets(&self) -> impl Iterator<Item = TetId> + '_ {
        (0..self.num_slots() as TetId).filter(move |&t| {
            let tet = self.tet_slot(t);
            tet.is_live() && tet.is_ghost()
        })
    }

    /// The four vertex positions of a finite tetrahedron, in the builder's
    /// vertex order.
    #[inline]
    pub fn tet_points(&self, t: TetId) -> [Vec3; 4] {
        let tet = self.tet(t);
        debug_assert!(!tet.is_ghost());
        tet.verts.map(|v| self.points[v as usize])
    }

    /// The hull facet of a ghost tetrahedron, returned *outward*-oriented:
    /// `(b-a) × (c-a)` points out of the hull. (Internally ghosts store the
    /// facet inward-oriented; see [`Tet`].)
    #[inline]
    pub fn hull_facet(&self, ghost: TetId) -> [VertexId; 3] {
        let tet = self.tet(ghost);
        debug_assert!(tet.is_ghost());
        [tet.verts[0], tet.verts[2], tet.verts[1]]
    }

    /// Sum of incident finite-tetrahedron volumes per vertex — the `W_i`
    /// denominator of the DTFE density estimate (paper Eq. 2). Hull vertices
    /// only count interior tetrahedra, matching the DTFE convention. A float
    /// sum, so its bits follow the slot order it runs in.
    pub fn vertex_star_volumes(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.points.len()];
        for t in self.finite_tets() {
            let verts = self.tet(t).verts;
            let p = verts.map(|v| self.points[v as usize]);
            let vol = dtfe_geometry::tetra::volume(p[0], p[1], p[2], p[3]);
            for v in verts {
                w[v as usize] += vol;
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simplex_points() -> Vec<Vec3> {
        vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ]
    }

    fn build(pts: &[Vec3]) -> Result<Delaunay, BuildError> {
        DelaunayBuilder::new().build(pts)
    }

    #[test]
    fn single_tet() {
        let d = build(&simplex_points()).unwrap();
        assert_eq!(d.num_vertices(), 4);
        assert_eq!(d.num_tets(), 1);
        assert_eq!(d.num_ghosts(), 4);
        d.validate().unwrap();
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert_eq!(build(&[]).unwrap_err(), BuildError::Degenerate);
        let coincident = vec![Vec3::splat(1.0); 10];
        assert_eq!(build(&coincident).unwrap_err(), BuildError::Degenerate);
        let collinear: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        assert_eq!(build(&collinear).unwrap_err(), BuildError::Degenerate);
        let coplanar: Vec<Vec3> = (0..4)
            .flat_map(|i| (0..4).map(move |j| Vec3::new(i as f64, j as f64, 0.0)))
            .collect();
        assert_eq!(build(&coplanar).unwrap_err(), BuildError::Degenerate);
        let nan = vec![Vec3::ZERO, Vec3::new(f64::NAN, 0.0, 0.0)];
        assert_eq!(build(&nan).unwrap_err(), BuildError::NonFinite { index: 1 });
    }

    #[test]
    fn interior_point_splits_tet() {
        let mut pts = simplex_points();
        pts.push(Vec3::new(0.2, 0.2, 0.2));
        let d = build(&pts).unwrap();
        assert_eq!(d.num_vertices(), 5);
        assert_eq!(d.num_tets(), 4); // 1-to-4 split
        d.validate().unwrap();
        d.validate_delaunay_global().unwrap();
    }

    #[test]
    fn duplicates_merge() {
        let mut pts = simplex_points();
        pts.push(Vec3::new(0.0, 0.0, 0.0));
        pts.push(Vec3::new(0.2, 0.2, 0.2));
        pts.push(Vec3::new(0.2, 0.2, 0.2));
        let d = build(&pts).unwrap();
        assert_eq!(d.num_vertices(), 5);
        assert_eq!(d.vertex_of_input(0), d.vertex_of_input(4));
        assert_eq!(d.vertex_of_input(5), d.vertex_of_input(6));
        d.validate().unwrap();
    }

    #[test]
    fn cube_corners() {
        // All eight corners are cospherical: a maximally degenerate insphere
        // configuration. Any valid Delaunay triangulation has 5 or 6 tets.
        let pts: Vec<Vec3> = (0..8)
            .map(|i| Vec3::new((i & 1) as f64, ((i >> 1) & 1) as f64, ((i >> 2) & 1) as f64))
            .collect();
        let d = build(&pts).unwrap();
        assert_eq!(d.num_vertices(), 8);
        assert!(
            d.num_tets() == 5 || d.num_tets() == 6,
            "tets = {}",
            d.num_tets()
        );
        d.validate().unwrap();
        d.validate_delaunay_global().unwrap();
    }

    #[test]
    fn lattice_4x4x4() {
        let pts: Vec<Vec3> = (0..4)
            .flat_map(|i| {
                (0..4)
                    .flat_map(move |j| (0..4).map(move |k| Vec3::new(i as f64, j as f64, k as f64)))
            })
            .collect();
        let d = build(&pts).unwrap();
        assert_eq!(d.num_vertices(), 64);
        d.validate().unwrap();
        d.validate_delaunay_global().unwrap();
        // The lattice volume is tiled exactly: total tet volume = 27.
        let total: f64 = d
            .finite_tets()
            .map(|t| {
                let p = d.tet_points(t);
                dtfe_geometry::tetra::volume(p[0], p[1], p[2], p[3])
            })
            .sum();
        assert!((total - 27.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn random_points_valid() {
        let mut state = 42u64;
        let mut rnd = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Vec3> = (0..300).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect();
        let d = build(&pts).unwrap();
        assert_eq!(d.num_vertices(), 300);
        d.validate().unwrap();
        d.validate_delaunay_global().unwrap();
        // Convex hull of points in a cube: total volume below 1, above 0.5.
        let total: f64 = d
            .finite_tets()
            .map(|t| {
                let p = d.tet_points(t);
                dtfe_geometry::tetra::volume(p[0], p[1], p[2], p[3])
            })
            .sum();
        assert!(total > 0.5 && total < 1.0, "hull volume = {total}");
    }

    #[test]
    fn insertion_order_equivalent() {
        let mut state = 7u64;
        let mut rnd = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Vec3> = (0..100).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect();
        let a = build(&pts).unwrap();
        let b = DelaunayBuilder::new()
            .spatial_sort(false)
            .build(&pts)
            .unwrap();
        // Same number of tets (Delaunay is unique for points in general
        // position) and both valid.
        assert_eq!(a.num_tets(), b.num_tets());
        a.validate_delaunay_global().unwrap();
        b.validate_delaunay_global().unwrap();
    }

    #[test]
    fn star_volumes_cover_hull() {
        let mut pts = simplex_points();
        pts.push(Vec3::new(0.25, 0.25, 0.25));
        let d = build(&pts).unwrap();
        let w = d.vertex_star_volumes();
        // Each tet contributes its volume to 4 vertices; hull volume is 1/6.
        let total: f64 = w.iter().sum();
        assert!((total - 4.0 / 6.0).abs() < 1e-12);
        let interior = d.vertex_of_input(4);
        assert!((w[interior as usize] - 1.0 / 6.0).abs() < 1e-12);
    }
}
