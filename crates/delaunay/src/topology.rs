//! The render-time topology: one 32-byte link per tetrahedron, and the
//! march's vertex positions as a cache built on first use.
//!
//! Every reader of a rendered triangulation — [`crate::Delaunay::tet`],
//! point location, the element projector, the table fills and the hull
//! index — needs a tetrahedron's vertex ids and neighbours and gathers its
//! corners from the vertex array. A link is the builder's own [`Tet`]
//! record, which holds exactly that in half a cache line, with its
//! neighbours renumbered; once a triangulation is rendered it is the
//! *only* copy of its tetrahedra.
//!
//! The marching kernel is the one reader that wants more: per step it
//! reads the four vertex positions. [`Topology::march_positions`]
//! writes them once, in parallel on a large mesh, on a mesh's first march:
//! 96 B a slot beside the link, so a marched mesh holds what the 128 B
//! record of one array did and a step reads the same values from two.
//! A mesh that is only projected never holds them.
//!
//! [`Topology::build`] is one pass over the builder's slots. It numbers the
//! live slots breadth-first over facet adjacency from a hull (ghost)
//! tetrahedron, so neighbours sit in nearby slots and a line of sight
//! touches mostly contiguous memory (the locality behind the DTFE public
//! software's kernel), then writes each link with its neighbours
//! renumbered. A link keeps the builder's vertex order, which is
//! positively oriented exactly — the orientation
//! [`dtfe_geometry::plucker::ray_tetra_seeded`] expects — so every reader,
//! exact predicate or march, reads it as is. Only slot *numbers* change:
//! every vertex array, and so every density, gradient and rendered field,
//! is the builder's.

use crate::mesh::{Tet, TetId, VertexId, INFINITE, NONE};
use dtfe_geometry::Vec3;
use rayon::prelude::*;
use std::sync::OnceLock;

/// A triangulation's tetrahedra as the render path reads them: one link —
/// a [`Tet`], vertex ids and neighbours in the builder's order, ghosts
/// holding [`crate::INFINITE`] at index 3 — per live slot in breadth-first
/// order, the vertex box — per render, without touching the mesh, its heights say
/// whether a z-window has a window entry (a floor not above the lowest has
/// none) and whether it integrates every tetrahedron whole (it contains
/// both), and its xy extent prices a render over a grid — and, once a
/// march has asked for them, the march's vertex positions.
pub struct Topology {
    links: Vec<Tet>,
    lo: Vec3,
    hi: Vec3,
    /// Slot `t`'s four corners in its link's order (`vertex(ids[i])`; a
    /// ghost's fourth is zero), written by the first
    /// [`Topology::march_positions`].
    positions: OnceLock<Vec<[Vec3; 4]>>,
}

/// Below this many slots the links and positions are written in the
/// calling thread: the vendored rayon spawns scoped OS threads per call,
/// which costs more than a serial pass over a small mesh (the batch path
/// builds one topology per ~4k-slot work item, on ranks that already fill
/// the cores).
const PAR_MIN_SLOTS: usize = 1 << 15;

/// `f(0..n)` collected, on the pool when `n` is large.
fn map_slots<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync + Send) -> Vec<T> {
    if n < PAR_MIN_SLOTS {
        (0..n).map(f).collect()
    } else {
        (0..n).into_par_iter().map(f).collect()
    }
}

impl Topology {
    /// Number the live slots of `tets` breadth-first and write one link per
    /// slot. `live` is the number of live slots (a capacity hint).
    pub(crate) fn build(tets: &[Tet], points: &[Vec3], live: usize) -> Topology {
        let (order, remap) = bfs_order(tets, live);
        let links = map_slots(order.len(), |new| {
            let tet = tets[order[new] as usize];
            // Every neighbour of a live slot is live, so it has a number.
            Tet {
                verts: tet.verts,
                neighbors: tet
                    .neighbors
                    .map(|n| remap.get(n as usize).copied().unwrap_or(NONE)),
            }
        });
        let (lo, hi) = points.iter().fold(
            (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY)),
            |(lo, hi), &p| (lo.min(p), hi.max(p)),
        );
        Topology {
            links,
            lo,
            hi,
            positions: OnceLock::new(),
        }
    }

    /// Number of links (all live: the layout is dense).
    #[inline]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the topology holds no links (a triangulation not yet laid
    /// out for rendering).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Slot `t`'s link.
    #[inline]
    pub fn tet(&self, t: TetId) -> &Tet {
        &self.links[t as usize]
    }

    /// Every link, in slot order.
    #[inline]
    pub fn tets(&self) -> &[Tet] {
        &self.links
    }

    /// The march's vertex positions, one `[Vec3; 4]` per slot in its
    /// link's order — `vertex(ids[i])`, and `[a, b, c, 0]` for a ghost —
    /// written on the first call, which every concurrent first call waits
    /// for, and read by the marching kernel on every step. `points` is the
    /// triangulation's vertex array ([`crate::Delaunay::vertices`]).
    pub fn march_positions(&self, points: &[Vec3]) -> &[[Vec3; 4]] {
        self.positions.get_or_init(|| {
            let _span = dtfe_telemetry::span!("core.march_positions_build", slots = self.len());
            dtfe_telemetry::counter_add!("core.march_cache_builds", 1);
            map_slots(self.len(), |t| {
                let ids = self.links[t].verts;
                let corner = |v: VertexId| match v {
                    INFINITE => Vec3::ZERO,
                    v => points[v as usize],
                };
                ids.map(corner)
            })
        })
    }

    /// The march's vertex positions if a march has written them.
    #[inline]
    pub fn positions(&self) -> Option<&[[Vec3; 4]]> {
        self.positions.get().map(Vec::as_slice)
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

    /// Resident bytes (the service layer's budget accounting): the links
    /// and, once written, the march's positions. Counts the
    /// allocations' *capacity*, not their length, so the estimate never
    /// understates what the allocator is holding.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Topology>()
            + self.links.capacity() * std::mem::size_of::<Tet>()
            + self
                .positions
                .get()
                .map_or(0, |p| p.capacity() * std::mem::size_of::<[Vec3; 4]>())
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
    use dtfe_geometry::predicates::orient3d;

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
    fn links_and_positions_hold_what_the_kernel_reads() {
        let pts = jittered_cloud(5, 77);
        let built = DelaunayBuilder::new().build(&pts).unwrap();
        assert!(built.topology().is_none(), "no links before the pass");
        let d = built.into_topology();
        let topo = d.topology().unwrap();
        assert_eq!(topo.len(), d.num_tets() + d.num_ghosts());
        let links_only = topo.bytes();
        assert!(links_only >= topo.len() * 32);
        assert!(topo.positions().is_none(), "no positions before a march");
        let positions = topo.march_positions(d.vertices());
        assert!(std::ptr::eq(positions, topo.march_positions(d.vertices())));
        assert_eq!(
            topo.positions().map(<[_]>::as_ptr),
            Some(positions.as_ptr())
        );
        assert_eq!(positions.len(), topo.len());
        for t in 0..topo.len() as TetId {
            let (link, tet, pos) = (topo.tet(t), d.tet(t), positions[t as usize]);
            assert!(std::ptr::eq(link, tet), "the mesh hands out its link");
            if tet.is_ghost() {
                assert_eq!(link.verts[3], INFINITE);
                let [a, b, c, _] = link.verts;
                assert_eq!(pos, [d.vertex(a), d.vertex(b), d.vertex(c), Vec3::ZERO]);
                continue;
            }
            // The builder's order, positive exactly: the orientation the
            // march's face table reads.
            let p = d.tet_points(t);
            assert!(orient3d(p[0], p[1], p[2], p[3]).is_positive());
            assert_eq!(p, pos);
            for (i, &corner) in pos.iter().enumerate() {
                assert_eq!(d.vertex(link.verts[i]), corner);
                let face = |ids: [u32; 4], k: usize| {
                    let mut f: Vec<u32> = (0..4).filter(|&j| j != k).map(|j| ids[j]).collect();
                    f.sort_unstable();
                    f
                };
                let n = d.tet(link.neighbors[i]);
                let back = n.index_of_neighbor(t).unwrap();
                assert_eq!(face(link.verts, i), face(n.verts, back));
            }
        }
        assert_eq!(topo.bytes(), links_only + topo.len() * 96);
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
