//! Bowyer–Watson insertion: bootstrap, conflict region, cavity
//! retriangulation.

use crate::locate::{walk, Located};
use crate::mesh::{Tet, TetId, VertexId, INFINITE, NONE};
use crate::{Delaunay, DelaunayError, Slots};
use dtfe_geometry::predicates::{insphere, orient2d, orient3d, Orientation};
use dtfe_geometry::{Vec2, Vec3};

/// One entry of the [`EdgeTable`].
#[derive(Clone, Copy, Default)]
struct EdgeSlot {
    key: u64,
    tet: TetId,
    /// Cavity the entry belongs to; anything else reads as empty.
    stamp: u32,
    face: u8,
}

/// Open-addressed table that pairs up the faces of a cavity's new
/// tetrahedra across the boundary edge they share. Every edge of the cavity
/// boundary is offered exactly twice (once from each flanking facet), so
/// entries are never deleted, and a per-cavity stamp empties the table
/// without touching it.
#[derive(Default)]
struct EdgeTable {
    slots: Vec<EdgeSlot>,
    stamp: u32,
}

impl EdgeTable {
    /// Empty the table for a cavity of `facets` boundary facets
    /// (`3·facets/2` edges), growing it to keep the load at most one half.
    fn begin(&mut self, facets: usize) {
        let want = (3 * facets).next_power_of_two().max(64);
        if self.slots.len() < want {
            self.slots = vec![EdgeSlot::default(); want];
            self.stamp = 0;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(EdgeSlot::default());
            self.stamp = 1;
        }
    }

    /// Offer face `face` of `tet` over the edge `key`: the first offer is
    /// stored and returns `None`, the second returns what the first stored.
    #[inline]
    fn pair(&mut self, key: u64, tet: TetId, face: u8) -> Option<(TetId, u8)> {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the top bits of the product index the table.
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9E3779B97F4A7C15) >> shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.stamp {
                *slot = EdgeSlot {
                    key,
                    tet,
                    stamp: self.stamp,
                    face,
                };
                return None;
            }
            if slot.key == key {
                return Some((slot.tet, slot.face));
            }
            i = (i + 1) & mask;
        }
    }
}

/// The cost model's primitives, summed over a triangulation's insertions in
/// plain integers and published once per build as `delaunay.walk_steps`,
/// `delaunay.conflict_tets` and `delaunay.cavity_facets`.
#[derive(Clone, Copy, Default)]
pub(crate) struct Work {
    /// Tetrahedra visited by point location.
    pub(crate) walk_steps: u64,
    /// Tetrahedra deleted.
    pub(crate) conflict_tets: u64,
    /// Cavity boundary facets, i.e. tetrahedra created.
    pub(crate) cavity_facets: u64,
}

/// Reusable buffers for the insertion loop.
#[derive(Default)]
pub(crate) struct Scratch {
    stack: Vec<TetId>,
    conflict: Vec<TetId>,
    /// Boundary facets as `(outside_tet, face_index_in_outside_tet)`.
    boundary: Vec<(TetId, u8)>,
    /// Wires the new tetrahedra to each other.
    edges: EdgeTable,
    created: Vec<TetId>,
}

/// Key for the edge table: the two vertices of a new tet's face other than
/// the inserted point, order-normalized.
#[inline]
fn edge_key(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((lo as u64) << 32) | hi as u64
}

/// Vertex/neighbor record for the star tetrahedron over a boundary facet `f`
/// that passes through the infinite vertex, as seen from the outside tet `o`
/// (i.e. `f` is outward-oriented w.r.t. `o`, its normal pointing into the
/// cavity). Reversing two vertices makes `(f0, f2, f1, vid)` positively
/// oriented; the ghost is then canonicalized — `INFINITE` moved to slot 3 by
/// an even permutation (a 3-cycle), preserving orientation. (A finite facet
/// needs no search: `insert_point` writes its record out.)
#[inline]
fn star_record(f: [VertexId; 3], vid: VertexId, o: TetId) -> ([VertexId; 4], [TetId; 4]) {
    let mut verts = [f[0], f[2], f[1], vid];
    let mut nbrs = [NONE, NONE, NONE, o];
    // Proof: `f` is a ghost's face other than 3, so it holds slot 3, `INFINITE`.
    let k = verts[..3]
        .iter()
        .position(|&v| v == INFINITE)
        .expect("ghost facet without the infinite vertex");
    let m = (k + 1) % 3; // any other slot below 3
                         // 3-cycle k -> 3 -> m -> k.
    let (vk, v3, vm) = (verts[k], verts[3], verts[m]);
    verts[3] = vk;
    verts[m] = v3;
    verts[k] = vm;
    let (nk, n3, nm) = (nbrs[k], nbrs[3], nbrs[m]);
    nbrs[3] = nk;
    nbrs[m] = n3;
    nbrs[k] = nm;
    (verts, nbrs)
}

/// A triangulation under construction: the [`Tet`] slots and everything
/// insertion keeps beside them. [`Incremental::finish`] keeps the slots and
/// drops the rest.
pub(crate) struct Incremental {
    pub(crate) points: Vec<Vec3>,
    pub(crate) tets: Vec<Tet>,
    /// Free-list of deleted tetrahedron slots.
    pub(crate) free: Vec<TetId>,
    /// Epoch marks for conflict-region search (avoids clearing between
    /// inserts).
    pub(crate) mark: Vec<u32>,
    pub(crate) epoch: u32,
    /// Walk start hint: the most recently created tetrahedron.
    pub(crate) hint: TetId,
    /// Map from input point index to vertex id (duplicates collapse).
    pub(crate) input_vertex: Vec<VertexId>,
    /// Deterministic xorshift state for the stochastic walk.
    pub(crate) rng_state: u64,
    pub(crate) n_finite: usize,
    pub(crate) n_ghost: usize,
    /// Walk steps, conflict tetrahedra and cavity facets so far.
    pub(crate) work: Work,
    /// Scratch buffers reused across insertions.
    pub(crate) scratch: Scratch,
}

impl Incremental {
    /// The finished triangulation: the slots as insertion left them.
    pub(crate) fn finish(self) -> Delaunay {
        Delaunay {
            points: self.points,
            input_vertex: self.input_vertex,
            n_finite: self.n_finite,
            n_ghost: self.n_ghost,
            slots: Slots::Built(self.tets),
        }
    }
}

/// Tetrahedron slots reserved per input point: above the ~6.7 a
/// triangulation uses, ghosts and free slots included.
const TETS_PER_POINT: usize = 8;

/// Find four affinely independent points in `order` and build the initial
/// tetrahedron plus its four ghosts.
pub(crate) fn bootstrap(input: &[Vec3], order: &[u32]) -> Result<Incremental, DelaunayError> {
    // First point.
    let Some(&i0) = order.first() else {
        return Err(DelaunayError::Degenerate);
    };
    let p0 = input[i0 as usize];
    // Second: first distinct point.
    let i1 = order
        .iter()
        .copied()
        .find(|&i| input[i as usize] != p0)
        .ok_or(DelaunayError::Degenerate)?;
    let p1 = input[i1 as usize];
    // Third: first point not collinear with (p0, p1). Collinearity in 3D is
    // tested exactly via the three coordinate-plane projections.
    let collinear = |p: Vec3, q: Vec3, r: Vec3| {
        let proj = |f: fn(Vec3) -> Vec2| orient2d(f(p), f(q), f(r)) == Orientation::Zero;
        proj(|v| Vec2::new(v.x, v.y))
            && proj(|v| Vec2::new(v.y, v.z))
            && proj(|v| Vec2::new(v.z, v.x))
    };
    let i2 = order
        .iter()
        .copied()
        .find(|&i| !collinear(p0, p1, input[i as usize]))
        .ok_or(DelaunayError::Degenerate)?;
    let p2 = input[i2 as usize];
    // Fourth: first point off the (p0, p1, p2) plane.
    let i3 = order
        .iter()
        .copied()
        .find(|&i| !orient3d(p0, p1, p2, input[i as usize]).is_zero())
        .ok_or(DelaunayError::Degenerate)?;
    let p3 = input[i3 as usize];

    // Orient the first tetrahedron positively.
    let (p1, p2, idx12) = if orient3d(p0, p1, p2, p3).is_positive() {
        (p1, p2, (i1, i2))
    } else {
        (p2, p1, (i2, i1))
    };

    let mut d = Incremental {
        points: vec![p0, p1, p2, p3],
        // A `Tet` is 32-byte aligned, and the system allocator grows an
        // over-aligned buffer by copying it whole, with the old one still
        // held; the slots a point set needs are reserved up front instead
        // (~6.7 a point with ghosts and free slots; pages are touched only
        // as slots are written).
        tets: Vec::with_capacity(TETS_PER_POINT * input.len() + 16),
        free: Vec::new(),
        mark: Vec::new(),
        epoch: 0,
        hint: 0,
        input_vertex: vec![NONE; input.len()],
        rng_state: 0x9E3779B97F4A7C15,
        n_finite: 1,
        n_ghost: 4,
        work: Work::default(),
        scratch: Scratch::default(),
    };
    d.input_vertex[i0 as usize] = 0;
    d.input_vertex[idx12.0 as usize] = 1;
    d.input_vertex[idx12.1 as usize] = 2;
    d.input_vertex[i3 as usize] = 3;

    let t0 = d.push_tet([0, 1, 2, 3], [NONE; 4]);
    // One ghost per face. The face triple from TET_FACES is outward-oriented
    // w.r.t. t0; the ghost stores it reversed (inward) per the canonical
    // convention.
    let mut ghosts = [NONE; 4];
    for (i, slot) in ghosts.iter_mut().enumerate() {
        let [a, b, c] = d.tets[t0 as usize].face(i);
        let g = d.push_tet([a, c, b, INFINITE], [NONE, NONE, NONE, t0]);
        d.tets[t0 as usize].neighbors[i] = g;
        *slot = g;
    }
    // Wire ghost-ghost adjacency over the hull edges.
    d.scratch.edges.begin(ghosts.len());
    for &g in &ghosts {
        let verts = d.tets[g as usize].verts;
        for l in 0..3usize {
            // Face l of the ghost contains INFINITE and the two base vertices
            // other than verts[l].
            let (u, v) = match l {
                0 => (verts[1], verts[2]),
                1 => (verts[0], verts[2]),
                _ => (verts[0], verts[1]),
            };
            if let Some((other, ol)) = d.scratch.edges.pair(edge_key(u, v), g, l as u8) {
                d.tets[g as usize].neighbors[l] = other;
                d.tets[other as usize].neighbors[ol as usize] = g;
            }
        }
    }
    d.hint = t0;
    Ok(d)
}

impl Incremental {
    /// Is tetrahedron `t` in conflict with `p` (its open circumball contains
    /// `p`; for ghosts, `p` is strictly beyond the hull facet, or coplanar
    /// with it and inside the circumball of the adjacent finite
    /// tetrahedron)?
    pub(crate) fn in_conflict(&self, t: TetId, p: Vec3) -> bool {
        let tet = &self.tets[t as usize];
        if tet.is_ghost() {
            let (a, b, c) = (
                self.points[tet.verts[0] as usize],
                self.points[tet.verts[1] as usize],
                self.points[tet.verts[2] as usize],
            );
            // Base is inward-oriented: Positive = strictly outside the hull
            // facet's plane.
            match orient3d(a, b, c, p) {
                Orientation::Positive => true,
                Orientation::Negative => false,
                Orientation::Zero => {
                    // Coplanar: in conflict iff inside the facet's circumdisk,
                    // which equals membership in the adjacent finite
                    // tetrahedron's circumball (their intersection with the
                    // facet plane is the same disk). This also covers
                    // degenerate (collinear) hull facets, where the plane
                    // test is vacuous.
                    let inner = &self.tets[tet.neighbors[3] as usize];
                    debug_assert!(!inner.is_ghost());
                    let q = |i: usize| self.points[inner.verts[i] as usize];
                    insphere(q(0), q(1), q(2), q(3), p).is_positive()
                }
            }
        } else {
            let q = |i: usize| self.points[tet.verts[i] as usize];
            insphere(q(0), q(1), q(2), q(3), p).is_positive()
        }
    }

    /// Offer face `l` of the new tetrahedron `t` over the cavity edge `key`;
    /// the second offer of an edge links the two faces. Returns the links
    /// made (0 or 1).
    #[inline(always)]
    fn wire(&mut self, edges: &mut EdgeTable, key: u64, t: TetId, l: usize) -> usize {
        let Some((other, ol)) = edges.pair(key, t, l as u8) else {
            return 0;
        };
        self.tets[t as usize].neighbors[l] = other;
        self.tets[other as usize].neighbors[ol as usize] = t;
        1
    }

    /// Insert input point `index` at `p`, returning its vertex id (an
    /// existing id for an exact duplicate). On corrupt adjacency — locating
    /// `p` lost its way ([`Located::Lost`]), a neighbour of the conflict
    /// region does not link back, or the cavity has no boundary — it
    /// returns the typed error with no tetrahedron or vertex changed.
    pub(crate) fn insert_point(
        &mut self,
        p: Vec3,
        index: usize,
    ) -> Result<VertexId, DelaunayError> {
        let mut seed = self.rng_state;
        let (located, steps) = walk(self.tets.as_slice(), &self.points, p, self.hint, &mut seed);
        self.rng_state = seed;
        self.work.walk_steps += steps as u64;
        let start = match located {
            Located::Vertex(v) => return Ok(v),
            Located::Finite(t) => t,
            Located::Ghost(g) => g,
            Located::Lost => return Err(DelaunayError::Lost { index }),
        };

        // --- Conflict region (BFS with epoch marks) ---
        // mark = 2*epoch   : in conflict
        // mark = 2*epoch+1 : tested, not in conflict
        self.epoch += 1;
        let c_mark = 2 * self.epoch;
        let n_mark = c_mark + 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.stack.clear();
        scratch.conflict.clear();
        scratch.boundary.clear();
        scratch.created.clear();

        debug_assert!(self.in_conflict(start, p), "located tet must conflict");
        self.mark[start as usize] = c_mark;
        scratch.stack.push(start);
        let mut ghosts_deleted = 0usize;
        while let Some(t) = scratch.stack.pop() {
            scratch.conflict.push(t);
            ghosts_deleted += self.tets[t as usize].is_ghost() as usize;
            for i in 0..4 {
                let n = self.tets[t as usize].neighbors[i];
                let m = self.mark[n as usize];
                if m == c_mark {
                    continue;
                }
                if m == n_mark || !self.in_conflict(n, p) {
                    if m != n_mark {
                        self.mark[n as usize] = n_mark;
                    }
                    // Boundary facet, identified from the outside tet.
                    let Some(j) = self.tets[n as usize].index_of_neighbor(t) else {
                        self.scratch = scratch;
                        return Err(DelaunayError::Corrupt { index });
                    };
                    scratch.boundary.push((n, j as u8));
                } else {
                    self.mark[n as usize] = c_mark;
                    scratch.stack.push(n);
                }
            }
        }

        // A ghost whose hull facet faces away from `p` never conflicts, so a
        // valid triangulation's cavity always has a boundary.
        if scratch.boundary.is_empty() {
            self.scratch = scratch;
            return Err(DelaunayError::Corrupt { index });
        }
        let vid = self.points.len() as VertexId;
        self.points.push(p);

        // --- Star the cavity boundary from the new point ---
        // The star is written straight over the conflict region, in the
        // order a free list would hand those slots back (last deleted
        // first), then over older free slots, then over fresh ones.
        let n_conflict = scratch.conflict.len();
        let n_facets = scratch.boundary.len();
        scratch.edges.begin(n_facets);
        let mut paired = 0usize;
        let mut ghosts_created = 0usize;
        for (k, &(o, j)) in scratch.boundary.iter().enumerate() {
            let t_new = match n_conflict.checked_sub(k + 1) {
                Some(back) => scratch.conflict[back],
                None => self.spare_slot(),
            };
            scratch.created.push(t_new);
            // Facet as seen from the outside tet: outward w.r.t. `o`, i.e.
            // its normal points into the cavity (toward p). Reversing two
            // vertices makes (f0, f2, f1, p) positively oriented.
            let outside = &mut self.tets[o as usize];
            let f = outside.face(j as usize);
            let finite = !outside.is_ghost() || j == 3;
            outside.neighbors[j as usize] = t_new;
            if finite {
                // Nine facets in ten: the record is known slot for slot, so
                // the new point's three faces and their edge keys are
                // written out rather than searched for.
                self.tets[t_new as usize] = Tet {
                    verts: [f[0], f[2], f[1], vid],
                    neighbors: [NONE, NONE, NONE, o],
                };
                let keys = [
                    edge_key(f[2], f[1]),
                    edge_key(f[0], f[1]),
                    edge_key(f[0], f[2]),
                ];
                for (l, key) in keys.into_iter().enumerate() {
                    paired += self.wire(&mut scratch.edges, key, t_new, l);
                }
                continue;
            }
            // A facet through the infinite vertex: the canonicalising 3-cycle
            // decides where everything lands, so look for it.
            ghosts_created += 1;
            let (verts, neighbors) = star_record(f, vid, o);
            self.tets[t_new as usize] = Tet { verts, neighbors };
            for l in 0..4usize {
                if verts[l] == vid {
                    continue;
                }
                // Face l contains vid and the two other non-l vertices.
                let mut uv = [NONE, NONE];
                let mut n = 0;
                for (m, &v) in verts.iter().enumerate() {
                    if m != l && v != vid {
                        uv[n] = v;
                        n += 1;
                    }
                }
                debug_assert_eq!(n, 2);
                paired += self.wire(&mut scratch.edges, edge_key(uv[0], uv[1]), t_new, l);
            }
        }
        debug_assert_eq!(2 * paired, 3 * n_facets, "unpaired cavity facets");

        // A cavity of more tetrahedra than facets (a large one can be)
        // leaves slots over, the first deleted: those go on the free list.
        for &t in &scratch.conflict[..n_conflict.saturating_sub(n_facets)] {
            self.tets[t as usize] = Tet::DEAD;
            self.free.push(t);
        }
        self.n_ghost = self.n_ghost + ghosts_created - ghosts_deleted;
        self.n_finite = self.n_finite + (n_facets - ghosts_created) - (n_conflict - ghosts_deleted);
        self.work.conflict_tets += n_conflict as u64;
        self.work.cavity_facets += n_facets as u64;

        #[cfg(debug_assertions)]
        for &t in &scratch.created {
            let tet = &self.tets[t as usize];
            if !tet.is_ghost() {
                let q = |i: usize| self.points[tet.verts[i] as usize];
                debug_assert!(
                    orient3d(q(0), q(1), q(2), q(3)).is_positive(),
                    "new tet {t} not positively oriented"
                );
            }
        }

        // The boundary is not empty (checked above), so the star is not.
        if let Some(&t) = scratch.created.last() {
            self.hint = t;
        }
        self.scratch = scratch;
        Ok(vid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_key_symmetric() {
        assert_eq!(edge_key(3, 9), edge_key(9, 3));
        assert_ne!(edge_key(3, 9), edge_key(3, 10));
        assert_eq!(edge_key(INFINITE, 2), edge_key(2, INFINITE));
    }

    #[test]
    fn bootstrap_skips_leading_degeneracies() {
        // Duplicates, collinear, and coplanar prefixes must be skipped when
        // hunting for the initial simplex.
        let pts = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let order: Vec<u32> = (0..pts.len() as u32).collect();
        let d = bootstrap(&pts, &order).unwrap().finish();
        assert_eq!(d.num_tets(), 1);
        assert_eq!(d.num_ghosts(), 4);
        d.validate().unwrap();
    }

    #[test]
    fn edge_table_pairs_each_key_once_per_cavity() {
        let mut table = EdgeTable::default();
        for cavity in 0..3u32 {
            table.begin(8);
            let keys: Vec<u64> = (0..12).map(|k| edge_key(k, k + 100)).collect();
            for (i, &key) in keys.iter().enumerate() {
                assert_eq!(table.pair(key, cavity * 100 + i as u32, 1), None);
            }
            for (i, &key) in keys.iter().enumerate() {
                let first = (cavity * 100 + i as u32, 1);
                assert_eq!(table.pair(key, 999, 2), Some(first));
            }
        }
    }

    #[test]
    fn non_reciprocal_adjacency_is_a_typed_error() {
        // Cut the link back from a neighbour of a tetrahedron that the
        // tetrahedron's centroid does not conflict with, then insert the
        // centroid starting there: the conflict search meets the cut link
        // and must return `Corrupt`, changing nothing.
        let pts: Vec<Vec3> = (0..200)
            .map(|i| {
                let f = 1.0 + i as f64;
                Vec3::new(
                    (f * 0.618034).fract(),
                    (f * 0.414214).fract(),
                    (f * 0.259921).fract(),
                )
            })
            .collect();
        let mut d = crate::build_serial(&pts, &crate::morton::brio_order(&pts)).unwrap();
        let centroid = |d: &Incremental, t: TetId| {
            let q = |i: usize| d.points[d.tets[t as usize].verts[i] as usize];
            (q(0) + q(1) + q(2) + q(3)) * 0.25
        };
        let (t, n) = (0..d.tets.len() as TetId)
            .filter(|&t| d.tets[t as usize].is_live() && !d.tets[t as usize].is_ghost())
            .find_map(|t| {
                let p = centroid(&d, t);
                let mut around = d.tets[t as usize].neighbors.into_iter();
                around.find(|&n| !d.in_conflict(n, p)).map(|n| (t, n))
            })
            .unwrap();
        let j = d.tets[n as usize].index_of_neighbor(t).unwrap();
        d.tets[n as usize].neighbors[j] = n;
        d.hint = t;
        let (tets, n_points) = (format!("{:?}", d.tets), d.points.len());
        assert_eq!(
            d.insert_point(centroid(&d, t), 7),
            Err(DelaunayError::Corrupt { index: 7 })
        );
        assert_eq!(format!("{:?}", d.tets), tets);
        assert_eq!(d.points.len(), n_points);
    }

    #[test]
    fn far_outside_point_grows_the_edge_table() {
        // A point far outside a round cloud sees about half of its hull:
        // a cavity with far more boundary facets than any interior insertion
        // made, so the edge table has to grow before the star is wired.
        let mut s = 0xFA2_u64;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::new();
        while pts.len() < 1000 {
            let p = Vec3::new(r() - 0.5, r() - 0.5, r() - 0.5);
            if p.norm() <= 0.5 {
                pts.push(p);
            }
        }
        let mut d = crate::build_serial(&pts, &crate::morton::brio_order(&pts)).unwrap();
        let before = d.scratch.edges.slots.len();
        let ghosts = d.n_ghost;
        d.insert_point(Vec3::new(40.0, 30.0, 20.0), pts.len())
            .unwrap();
        let facets = d.scratch.boundary.len();
        assert!(facets > 64, "cavity has only {facets} boundary facets");
        assert!(facets > ghosts / 3, "{facets} of {ghosts} hull facets");
        assert!(
            d.scratch.edges.slots.len() > before,
            "table of {before} slots did not grow for {facets} facets"
        );
        let d = d.finish();
        d.validate().unwrap();
        d.validate_delaunay_global().unwrap();
    }
}
