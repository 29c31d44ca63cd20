//! Tetrahedron storage: vertex/neighbor records, ghost convention, slot
//! allocation.

/// Vertex index into [`crate::Delaunay::vertices`].
pub type VertexId = u32;

/// Tetrahedron index into the triangulation's slot array.
pub type TetId = u32;

/// The symbolic vertex "at infinity". Every hull facet is the base of exactly
/// one *ghost* tetrahedron whose fourth vertex is `INFINITE`.
pub const INFINITE: VertexId = u32::MAX;

/// Sentinel for "no tetrahedron" / "no vertex".
pub const NONE: u32 = u32::MAX;

/// One tetrahedron record.
///
/// Invariants maintained by the insertion code:
///
/// * Finite tetrahedra are positively oriented
///   (`orient3d(v0, v1, v2, v3) > 0`).
/// * Ghost tetrahedra store the infinite vertex at index 3 and their base
///   facet `(v0, v1, v2)` is the hull facet oriented *inward* — the normal
///   points into the hull, so `orient3d(v0, v1, v2, x) < 0` for interior `x`
///   and `> 0` for points strictly outside. This is "symbolic positivity":
///   treating the infinite vertex as lying beyond the facet makes the ghost
///   positively oriented, so [`dtfe_geometry::plucker::TET_FACES`] stays
///   valid for ghosts too.
/// * `neighbors[i]` is the tetrahedron sharing the facet opposite
///   `verts[i]`, and the relation is reciprocal.
///
/// The builder's slots and the render-time [`crate::Topology`] both hold
/// this record: 32 B, aligned so that two share a cache line and none
/// straddles two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(align(32))]
pub struct Tet {
    pub verts: [VertexId; 4],
    pub neighbors: [TetId; 4],
}

impl Tet {
    pub(crate) const DEAD: Tet = Tet {
        verts: [NONE; 4],
        neighbors: [NONE; 4],
    };

    /// Is this slot live (not on the free list)?
    #[inline]
    pub fn is_live(&self) -> bool {
        self.verts[0] != NONE
    }

    /// Is this a ghost (hull) tetrahedron?
    #[inline]
    pub fn is_ghost(&self) -> bool {
        self.verts[3] == INFINITE
    }

    /// Local index (0..4) of neighbor `t`.
    #[inline]
    pub fn index_of_neighbor(&self, t: TetId) -> Option<usize> {
        // Four compares into a mask and a bit scan: the conflict search, the
        // walk and the march's window entry all ask this about a neighbour
        // that is equally likely to sit in any slot, which a compare-and-exit
        // loop mispredicts about every other call.
        let n = &self.neighbors;
        let mask = (n[0] == t) as u32
            | ((n[1] == t) as u32) << 1
            | ((n[2] == t) as u32) << 2
            | ((n[3] == t) as u32) << 3;
        (mask != 0).then(|| mask.trailing_zeros() as usize)
    }

    /// The three vertices of the face opposite local vertex `i`, in the
    /// outward orientation of [`dtfe_geometry::plucker::TET_FACES`].
    #[inline]
    pub fn face(&self, i: usize) -> [VertexId; 3] {
        let [a, b, c] = dtfe_geometry::plucker::TET_FACES[i];
        [self.verts[a], self.verts[b], self.verts[c]]
    }
}

impl crate::insert::Incremental {
    /// Append a live tetrahedron (bootstrap only; the caller keeps the
    /// live counts).
    pub(crate) fn push_tet(&mut self, verts: [VertexId; 4], neighbors: [TetId; 4]) -> TetId {
        let id = self.spare_slot();
        self.tets[id as usize] = Tet { verts, neighbors };
        id
    }

    /// A slot to write a new tetrahedron into: the most recently freed one,
    /// or a fresh one at the end.
    #[inline]
    pub(crate) fn spare_slot(&mut self) -> TetId {
        self.free.pop().unwrap_or_else(|| {
            self.tets.push(Tet::DEAD);
            self.mark.push(0);
            (self.tets.len() - 1) as TetId
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghost_detection() {
        let g = Tet {
            verts: [0, 1, 2, INFINITE],
            neighbors: [NONE; 4],
        };
        assert!(g.is_ghost());
        assert!(g.is_live());
        let f = Tet {
            verts: [0, 1, 2, 3],
            neighbors: [NONE; 4],
        };
        assert!(!f.is_ghost());
        assert!(!Tet::DEAD.is_live());
    }

    #[test]
    fn face_uses_outward_table() {
        let t = Tet {
            verts: [10, 11, 12, 13],
            neighbors: [NONE; 4],
        };
        assert_eq!(t.face(3), [10, 11, 12]);
        assert_eq!(t.face(0), [11, 13, 12]);
    }
}
