//! Structural and Delaunay-property validation.
//!
//! These checks exist because the insertion code is the foundation everything
//! else (DTFE estimation, marching, the baselines) stands on; tests call them
//! after every adversarial construction.

use crate::mesh::{TetId, INFINITE};
use crate::Delaunay;
use dtfe_geometry::predicates::{insphere, orient3d, Orientation};

/// A violated invariant, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// A tetrahedron has repeated vertex ids.
    RepeatedVertex(TetId),
    /// A finite tetrahedron is not positively oriented.
    BadOrientation(TetId),
    /// `neighbors[i]` does not point back.
    NonReciprocalAdjacency(TetId, TetId),
    /// Two tets listed as neighbors do not share a facet (vertex sets
    /// disagree).
    FacetMismatch(TetId, TetId),
    /// A ghost without the infinite vertex at slot 3, or an infinite vertex
    /// elsewhere.
    BadGhostLayout(TetId),
    /// A ghost's base facet is not inward-oriented w.r.t. the adjacent
    /// finite tetrahedron.
    BadGhostOrientation(TetId),
    /// The empty-circumsphere property fails: `vertex` is strictly inside
    /// the circumball of `tet`.
    NotDelaunay { tet: TetId, vertex: u32 },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ValidationError {}

/// Run every check we have: the structural + local-Delaunay validation plus
/// the brute-force global empty-circumsphere cross-check. O(tets × vertices);
/// intended for tests (the parallel-vs-serial equivalence suite in
/// particular), not production paths.
pub fn global_delaunay_check(d: &Delaunay) -> Result<(), ValidationError> {
    d.validate()?;
    d.validate_delaunay_global()
}

impl Delaunay {
    /// Check every structural invariant: vertex distinctness, positive
    /// orientation, reciprocal adjacency with matching shared facets, ghost
    /// canonicalization, and the *local* Delaunay property (for each
    /// interior facet, the opposite vertex of the neighbor is not strictly
    /// inside the circumball — which implies the global property for a
    /// triangulation).
    pub fn validate(&self) -> Result<(), ValidationError> {
        for t in 0..self.num_slots() as TetId {
            let tet = self.tet_slot(t);
            if !tet.is_live() {
                continue;
            }
            // Distinct vertices.
            for a in 0..4 {
                for b in (a + 1)..4 {
                    if tet.verts[a] == tet.verts[b] {
                        return Err(ValidationError::RepeatedVertex(t));
                    }
                }
            }
            // Ghost layout.
            if tet.verts[..3].contains(&INFINITE) {
                return Err(ValidationError::BadGhostLayout(t));
            }
            if tet.is_ghost() {
                // Adjacent finite tet across the base facet.
                let inner = self.tet_slot(tet.neighbors[3]);
                if inner.is_ghost() {
                    return Err(ValidationError::BadGhostLayout(t));
                }
                // The base must be inward-oriented: the inner tet's opposite
                // vertex lies on the interior side (Negative), or Zero only
                // when the base is collinear (degenerate flat hull facet).
                let Some(opp) = inner
                    .verts
                    .iter()
                    .copied()
                    .find(|v| !tet.verts[..3].contains(v))
                else {
                    // Four distinct vertices cannot all lie on the base.
                    return Err(ValidationError::RepeatedVertex(tet.neighbors[3]));
                };
                let (a, b, c) = (
                    self.points[tet.verts[0] as usize],
                    self.points[tet.verts[1] as usize],
                    self.points[tet.verts[2] as usize],
                );
                match orient3d(a, b, c, self.points[opp as usize]) {
                    Orientation::Negative => {}
                    Orientation::Positive => return Err(ValidationError::BadGhostOrientation(t)),
                    Orientation::Zero => {
                        // Acceptable only for a degenerate (collinear) base.
                        let collinear = orient3d(a, b, c, self.points[inner.verts[0] as usize])
                            .is_zero()
                            && orient3d(a, b, c, self.points[inner.verts[1] as usize]).is_zero();
                        if !collinear {
                            return Err(ValidationError::BadGhostOrientation(t));
                        }
                    }
                }
            } else {
                let p = self.tet_points(t);
                if !orient3d(p[0], p[1], p[2], p[3]).is_positive() {
                    return Err(ValidationError::BadOrientation(t));
                }
            }
            // Adjacency.
            for k in 0..4 {
                let n = tet.neighbors[k];
                let ntet = self.tet_slot(n);
                if !ntet.is_live() {
                    return Err(ValidationError::NonReciprocalAdjacency(t, n));
                }
                let Some(back) = ntet.index_of_neighbor(t) else {
                    return Err(ValidationError::NonReciprocalAdjacency(t, n));
                };
                // Shared facet: same vertex set.
                let mut fa = tet.face(k);
                let mut fb = ntet.face(back);
                fa.sort_unstable();
                fb.sort_unstable();
                if fa != fb {
                    return Err(ValidationError::FacetMismatch(t, n));
                }
            }
            // Local Delaunay across finite-finite facets.
            if !tet.is_ghost() {
                let p = self.tet_points(t);
                for k in 0..4 {
                    let n = tet.neighbors[k];
                    let ntet = self.tet_slot(n);
                    if ntet.is_ghost() {
                        continue;
                    }
                    // Reciprocity was checked for every facet above.
                    let Some(back) = ntet.index_of_neighbor(t) else {
                        return Err(ValidationError::NonReciprocalAdjacency(t, n));
                    };
                    let opp = ntet.verts[back];
                    let q = self.points[opp as usize];
                    if insphere(p[0], p[1], p[2], p[3], q).is_positive() {
                        return Err(ValidationError::NotDelaunay {
                            tet: t,
                            vertex: opp,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Brute-force global empty-circumsphere check: O(tets × vertices), for
    /// tests on small inputs. [`Delaunay::validate`]'s local check already
    /// implies this for valid triangulations; this is the independent
    /// cross-check.
    pub fn validate_delaunay_global(&self) -> Result<(), ValidationError> {
        for t in self.finite_tets() {
            let p = self.tet_points(t);
            let verts = self.tet(t).verts;
            for (vi, &q) in self.points.iter().enumerate() {
                if verts.contains(&(vi as u32)) {
                    continue;
                }
                if insphere(p[0], p[1], p[2], p[3], q).is_positive() {
                    return Err(ValidationError::NotDelaunay {
                        tet: t,
                        vertex: vi as u32,
                    });
                }
            }
        }
        Ok(())
    }
}
