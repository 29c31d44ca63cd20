//! The render-time topology: one 128-byte record per tetrahedron.
//!
//! The marching kernel steps from tetrahedron to tetrahedron through the
//! facet adjacency and reads, per step, the four vertex positions in the
//! orientation [`dtfe_geometry::plucker::ray_tetra`] expects, the vertex ids
//! the shared-edge reuse keys on, and the neighbours. [`Record`] holds
//! exactly that in two cache lines, and once a triangulation is rendered it
//! is the *only* copy of its tetrahedra: [`crate::Delaunay::tet`], point
//! location, the table fills and the hull index read the same records.
//!
//! [`Topology::build`] is one pass over the builder's slots. It numbers the
//! live slots breadth-first over facet adjacency from a hull (ghost)
//! tetrahedron, so neighbours sit in nearby slots and a line of sight
//! touches mostly contiguous memory (the locality behind the DTFE public
//! software's kernel), then writes each record with its neighbours
//! renumbered. A finite record whose float orientation is negative has
//! vertices 2 and 3 swapped (`normalize_tet`), with its ids and neighbours
//! permuted alike; one bit a slot remembers the swap, and
//! [`Topology::tet`] undoes it, so every exact predicate still sees the
//! builder's vertex order. Only slot *numbers* change: every vertex array,
//! and so every density, gradient and rendered field, is the builder's.

use crate::mesh::{Tet, TetId, VertexId, NONE};
use dtfe_geometry::plucker::normalize_tet;
use dtfe_geometry::Vec3;
use rayon::prelude::*;

/// One tetrahedron as a traversal step reads it.
///
/// Finite records hold the vertex positions with the `ray_tetra`
/// orientation swap already applied, and the ids and neighbours in the
/// same order (`neighbors[i]` lies across the face opposite `pts[i]`).
/// Ghost records hold the hull facet's ids with [`crate::INFINITE`] at index 3 —
/// the kernel's "stepped out of the hull" test — its three positions and a
/// zero fourth, and are never swapped.
#[derive(Clone, Copy, Debug)]
#[repr(align(128))] // exactly two cache lines per record, never three
pub struct Record {
    pub pts: [Vec3; 4],
    pub ids: [VertexId; 4],
    pub neighbors: [TetId; 4],
}

/// A triangulation's tetrahedra as the render path reads them: one
/// [`Record`] per live slot in breadth-first order, the swap bits, and the
/// vertex box — per render, without touching the mesh, its heights say
/// whether a z-window has a window entry (a floor not above the lowest has
/// none) and whether it integrates every tetrahedron whole (it contains
/// both), and its xy extent prices a render over a grid.
pub struct Topology {
    records: Vec<Record>,
    /// Bit `t % 64` of word `t / 64`: slot `t`'s record has vertices 2 and
    /// 3 swapped.
    swapped: Vec<u64>,
    lo: Vec3,
    hi: Vec3,
}

/// Below this many slots the records are written in the calling thread:
/// the vendored rayon spawns scoped OS threads per call, which costs more
/// than a serial pass over a small mesh (the batch path builds one
/// topology per ~4k-slot work item, on ranks that already fill the cores).
const PAR_MIN_SLOTS: usize = 1 << 15;

impl Topology {
    /// Number the live slots of `tets` breadth-first and write one record
    /// per slot. `live` is the number of live slots (a capacity hint).
    pub(crate) fn build(tets: &[Tet], points: &[Vec3], live: usize) -> Topology {
        let (order, remap) = bfs_order(tets, live);
        let record = |new: usize| {
            let tet = tets[order[new] as usize];
            // Every neighbour of a live slot is live, so it has a number.
            let neighbors = tet
                .neighbors
                .map(|n| remap.get(n as usize).copied().unwrap_or(NONE));
            let corner = |v: VertexId| points[v as usize];
            if tet.is_ghost() {
                let [a, b, c, _] = tet.verts;
                return Record {
                    pts: [corner(a), corner(b), corner(c), Vec3::ZERO],
                    ids: tet.verts,
                    neighbors,
                };
            }
            let mut rec = Record {
                pts: tet.verts.map(corner),
                ids: tet.verts,
                neighbors,
            };
            if normalize_tet(&mut rec.pts) {
                // Neighbour `i` lies across the face opposite vertex `i`.
                rec.ids.swap(2, 3);
                rec.neighbors.swap(2, 3);
            }
            rec
        };
        let records: Vec<Record> = if order.len() < PAR_MIN_SLOTS {
            (0..order.len()).map(record).collect()
        } else {
            (0..order.len()).into_par_iter().map(record).collect()
        };
        // A finite record is swapped exactly when its id 2 is not the
        // builder's (the four ids are distinct).
        let mut swapped = vec![0u64; records.len().div_ceil(64)];
        for (new, rec) in records.iter().enumerate() {
            if rec.ids[2] != tets[order[new] as usize].verts[2] {
                swapped[new / 64] |= 1 << (new % 64);
            }
        }
        let (lo, hi) = points.iter().fold(
            (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY)),
            |(lo, hi), &p| (lo.min(p), hi.max(p)),
        );
        Topology {
            records,
            swapped,
            lo,
            hi,
        }
    }

    /// Number of records (all live: the layout is dense).
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the topology holds no records (a triangulation not yet laid
    /// out for rendering).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Slot `t`'s record, in the traversal orientation.
    #[inline]
    pub fn record(&self, t: TetId) -> &Record {
        &self.records[t as usize]
    }

    /// Whether slot `t`'s record has vertices 2 and 3 swapped relative to
    /// the builder's order (`normalize_tet`'s decision; never for a ghost).
    #[inline]
    pub fn is_swapped(&self, t: TetId) -> bool {
        (self.swapped[t as usize / 64] >> (t % 64)) & 1 != 0
    }

    /// Slot `t` in the builder's exact orientation: the record's ids and
    /// neighbours with the swap undone.
    #[inline]
    pub fn tet(&self, t: TetId) -> Tet {
        let rec = &self.records[t as usize];
        let (mut verts, mut neighbors) = (rec.ids, rec.neighbors);
        if self.is_swapped(t) {
            verts.swap(2, 3);
            neighbors.swap(2, 3);
        }
        Tet { verts, neighbors }
    }

    /// The lowest vertex height of the mesh.
    #[inline]
    pub fn z_min(&self) -> f64 {
        self.lo.z
    }

    /// The highest vertex height of the mesh.
    #[inline]
    pub fn z_max(&self) -> f64 {
        self.hi.z
    }

    /// The mesh's vertex box, lowest and highest corner: the box of its
    /// hull, and of every tetrahedron in it.
    #[inline]
    pub fn bounds(&self) -> (Vec3, Vec3) {
        (self.lo, self.hi)
    }

    /// Resident bytes (the service layer's budget accounting). Counts the
    /// allocations' *capacity*, not their length, so the estimate never
    /// understates what the allocator is holding.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Topology>()
            + self.records.capacity() * std::mem::size_of::<Record>()
            + self.swapped.capacity() * std::mem::size_of::<u64>()
    }
}

/// The live slots of `tets` in breadth-first order over facet adjacency
/// (neighbours in index order), from the first live ghost slot — marching
/// enters through the hull, so slot order roughly tracks traversal depth
/// along lines of sight — and the inverse map, old slot → new (`NONE` for
/// freed slots). A valid triangulation's adjacency is connected;
/// stragglers are appended in slot order so the numbering is total on any
/// input.
fn bfs_order(tets: &[Tet], live: usize) -> (Vec<TetId>, Vec<TetId>) {
    let n = tets.len() as TetId;
    let mut remap = vec![NONE; tets.len()];
    let mut order: Vec<TetId> = Vec::with_capacity(live);
    fn visit(t: TetId, order: &mut Vec<TetId>, remap: &mut [TetId]) {
        remap[t as usize] = order.len() as TetId;
        order.push(t);
    }
    let start = (0..n)
        .find(|&t| tets[t as usize].is_live() && tets[t as usize].is_ghost())
        .or_else(|| (0..n).find(|&t| tets[t as usize].is_live()));
    if let Some(s) = start {
        visit(s, &mut order, &mut remap);
    }
    let mut head = 0;
    while head < order.len() {
        let t = order[head];
        head += 1;
        for &nb in &tets[t as usize].neighbors {
            if nb != NONE && tets[nb as usize].is_live() && remap[nb as usize] == NONE {
                visit(nb, &mut order, &mut remap);
            }
        }
    }
    for t in 0..n {
        if tets[t as usize].is_live() && remap[t as usize] == NONE {
            visit(t, &mut order, &mut remap);
        }
    }
    (order, remap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelaunayBuilder, INFINITE};

    fn jittered_cloud(n_side: usize, seed: u64) -> Vec<Vec3> {
        let mut s = seed;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    pts.push(Vec3::new(
                        i as f64 + 0.6 * r(),
                        j as f64 + 0.6 * r(),
                        k as f64 + 0.6 * r(),
                    ));
                }
            }
        }
        pts
    }

    #[test]
    fn neighbors_are_nearby() {
        // The point of the numbering: the mean slot distance to a neighbour
        // must be far below the random-order mean (~n/3 for n slots).
        let pts = jittered_cloud(8, 3);
        let d = DelaunayBuilder::new().build(&pts).unwrap().into_topology();
        let n = d.num_slots();
        let mut dist = 0u64;
        let mut edges = 0u64;
        for t in 0..n as TetId {
            for &nb in &d.tet(t).neighbors {
                dist += (nb as i64 - t as i64).unsigned_abs();
                edges += 1;
            }
        }
        let mean = dist as f64 / edges as f64;
        assert!(
            mean < n as f64 / 8.0,
            "mean neighbour slot distance {mean:.1} of {n} slots"
        );
    }

    #[test]
    fn records_hold_what_the_kernel_reads() {
        let pts = jittered_cloud(5, 77);
        let built = DelaunayBuilder::new().build(&pts).unwrap();
        assert!(built.topology().is_none(), "no records before the pass");
        let d = built.into_topology();
        let topo = d.topology().unwrap();
        assert_eq!(topo.len(), d.num_tets() + d.num_ghosts());
        for t in 0..topo.len() as TetId {
            let (rec, tet) = (topo.record(t), d.tet(t));
            if tet.is_ghost() {
                assert!(!topo.is_swapped(t));
                assert_eq!(rec.ids, tet.verts);
                assert_eq!(rec.ids[3], INFINITE);
                continue;
            }
            // Positive in float, and the ids and neighbours follow the
            // positions.
            let mut p = d.tet_points(t);
            assert_eq!(normalize_tet(&mut p), topo.is_swapped(t));
            assert_eq!(p, rec.pts);
            for i in 0..4 {
                assert_eq!(d.vertex(rec.ids[i]), rec.pts[i]);
                let face = |ids: [u32; 4], k: usize| {
                    let mut f: Vec<u32> = (0..4).filter(|&j| j != k).map(|j| ids[j]).collect();
                    f.sort_unstable();
                    f
                };
                let n = d.tet(rec.neighbors[i]);
                let back = n.index_of_neighbor(t).unwrap();
                assert_eq!(face(rec.ids, i), face(n.verts, back));
            }
        }
        assert!(topo.bytes() >= topo.len() * 128 + topo.len() / 8);
        let (lo, hi) = topo.bounds();
        for p in d.vertices() {
            assert!(
                lo.min(*p) == lo && hi.max(*p) == hi,
                "{p:?} outside the box"
            );
        }
        assert!(d.vertices().iter().any(|p| p.x == lo.x));
        assert!(d.vertices().iter().any(|p| p.y == hi.y));
        assert_eq!((topo.z_min(), topo.z_max()), (lo.z, hi.z));
    }
}
