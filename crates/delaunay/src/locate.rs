//! Point location by walking (paper §III-C-1).
//!
//! The *remembering stochastic visibility walk*: starting from a hint
//! tetrahedron, repeatedly step through the facet whose plane separates the
//! current tetrahedron from the query point (the Sambridge et al. test,
//! paper Eq. 6 — here evaluated with the robust `orient3d`). Facets are
//! tried in a random rotation each step, which is what guarantees
//! termination on a Delaunay triangulation even for degenerate queries.

use crate::mesh::{TetId, VertexId, NONE};
use crate::Delaunay;
use dtfe_geometry::predicates::orient3d;
use dtfe_geometry::Vec3;

/// Where a query point landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Located {
    /// Inside (or on the boundary of) this finite tetrahedron.
    Finite(TetId),
    /// Outside the convex hull; the returned ghost's facet is one the point
    /// is strictly beyond.
    Ghost(TetId),
    /// Exactly coincident with an existing vertex.
    Vertex(VertexId),
}

#[inline]
fn next_rand(state: &mut u64) -> u64 {
    // xorshift64*: deterministic, cheap, good enough to break walk cycles.
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

impl Delaunay {
    /// Locate `p`, starting the walk from the internal hint (the most
    /// recently created tetrahedron).
    pub fn locate(&mut self, p: Vec3) -> Located {
        let hint = self.hint;
        self.locate_from(p, hint)
    }

    /// Locate `p` starting from tetrahedron `start` (which may be a ghost or
    /// a freed slot; both are normalized to a live finite start).
    pub fn locate_from(&mut self, p: Vec3, start: TetId) -> Located {
        let mut seed = self.rng_state;
        let r = self.locate_seeded(p, start, &mut seed);
        self.rng_state = seed;
        r
    }

    /// Shared-state-free locate for parallel callers: the stochastic walk's
    /// randomness comes from the caller-owned `seed`. This is what the
    /// marching/walking kernels use from worker threads.
    pub fn locate_seeded(&self, p: Vec3, start: TetId, seed: &mut u64) -> Located {
        self.walk(p, start, seed).0
    }

    /// The walk behind every locate: where `p` landed, and how many
    /// tetrahedra were visited on the way.
    pub(crate) fn walk(&self, p: Vec3, start: TetId, seed: &mut u64) -> (Located, usize) {
        let mut cur = self.live_finite_start(start);
        // Bound the walk defensively: a correct visibility walk on a Delaunay
        // triangulation terminates, but an fp-filtered walk on a corrupted
        // structure would loop forever; better to panic loudly.
        let mut steps = 0usize;
        let max_steps = 8 * (self.tets.len() + 16);
        // The face the walk entered `cur` through. Its orientation test is
        // the exact negation of the one that just sent the walk across it,
        // so it can never separate `cur` from `p` and is not evaluated.
        let mut entered = usize::MAX;
        'walk: loop {
            steps += 1;
            assert!(steps <= max_steps, "visibility walk failed to terminate");
            let tet = self.tets[cur as usize];
            // Exact-vertex check: the walk can stop at any tetrahedron whose
            // closure contains p; if p coincides with a vertex it is one of
            // the current tet's vertices once the walk converges.
            let rot = (next_rand(seed) % 4) as usize;
            for k in 0..4 {
                let i = (k + rot) & 3;
                if i == entered {
                    continue;
                }
                let [fa, fb, fc] = tet.face(i);
                let (a, b, c) = (
                    self.points[fa as usize],
                    self.points[fb as usize],
                    self.points[fc as usize],
                );
                // Face i is outward-oriented, so its normal points toward any
                // point strictly beyond it — and `orient3d(F, p)` is Negative
                // exactly when F's normal points toward p.
                if orient3d(a, b, c, p).is_negative() {
                    let n = tet.neighbors[i];
                    debug_assert_ne!(n, NONE);
                    let next = &self.tets[n as usize];
                    if next.is_ghost() {
                        return (Located::Ghost(n), steps);
                    }
                    entered = next
                        .index_of_neighbor(cur)
                        .expect("adjacency not reciprocal");
                    cur = n;
                    continue 'walk;
                }
            }
            // No facet separates: p is inside or on the boundary of `cur`.
            for &v in &tet.verts {
                if self.points[v as usize] == p {
                    return (Located::Vertex(v), steps);
                }
            }
            return (Located::Finite(cur), steps);
        }
    }

    /// Normalize a start id to a live finite tetrahedron.
    fn live_finite_start(&self, start: TetId) -> TetId {
        let mut s = start;
        if s == NONE || s as usize >= self.tets.len() || !self.tets[s as usize].is_live() {
            // Fall back to any live finite tet.
            s = self
                .tets
                .iter()
                .position(|t| t.is_live() && !t.is_ghost())
                .expect("triangulation has no finite tetrahedra") as TetId;
        }
        if self.tets[s as usize].is_ghost() {
            // Step inside: the facet-neighbor of a ghost is finite.
            let inner = self.tets[s as usize].neighbors[3];
            debug_assert!(!self.tets[inner as usize].is_ghost());
            return inner;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_geometry::tetra::contains;

    fn build_cloud(n: usize, seed: u64) -> (Delaunay, Vec<Vec3>) {
        let mut state = seed;
        let mut rnd = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Vec3> = (0..n).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect();
        let d = crate::DelaunayBuilder::new().build(&pts).unwrap();
        (d, pts)
    }

    #[test]
    fn locate_finds_containing_tet() {
        let (mut d, _) = build_cloud(200, 11);
        let queries = [
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(0.21, 0.77, 0.4),
            Vec3::new(0.9, 0.1, 0.6),
        ];
        for q in queries {
            match d.locate(q) {
                Located::Finite(t) => {
                    let pts = d.tet_points(t);
                    assert!(contains(q, &pts, 1e-9), "tet {t} does not contain {q:?}");
                }
                other => panic!("expected Finite, got {other:?}"),
            }
        }
    }

    #[test]
    fn locate_outside_returns_ghost() {
        let (mut d, _) = build_cloud(100, 5);
        for q in [Vec3::new(5.0, 5.0, 5.0), Vec3::new(-3.0, 0.5, 0.5)] {
            match d.locate(q) {
                Located::Ghost(g) => {
                    // The query must be strictly beyond the ghost's facet:
                    // the outward normal points toward it (Negative).
                    let [a, b, c] = d.hull_facet(g);
                    let o = orient3d(d.vertex(a), d.vertex(b), d.vertex(c), q);
                    assert!(o.is_negative());
                }
                other => panic!("expected Ghost, got {other:?}"),
            }
        }
    }

    #[test]
    fn locate_existing_vertex() {
        let (mut d, pts) = build_cloud(50, 99);
        for (i, &p) in pts.iter().enumerate().step_by(7) {
            match d.locate(p) {
                Located::Vertex(v) => assert_eq!(v, d.vertex_of_input(i)),
                other => panic!("expected Vertex for input {i}, got {other:?}"),
            }
        }
    }

    #[test]
    fn locate_from_arbitrary_starts() {
        let (mut d, _) = build_cloud(150, 3);
        let q = Vec3::new(0.4, 0.6, 0.3);
        let expected = match d.locate(q) {
            Located::Finite(t) => d.tet_points(t),
            other => panic!("{other:?}"),
        };
        // Every live start must reach a tetrahedron containing q (possibly a
        // different one if q sits on a shared face, so compare containment).
        let starts: Vec<TetId> = d.finite_tets().step_by(17).collect();
        for s in starts {
            match d.locate_from(q, s) {
                Located::Finite(t) => {
                    let pts = d.tet_points(t);
                    assert!(contains(q, &pts, 1e-9));
                }
                other => panic!("{other:?}"),
            }
        }
        let _ = expected;
    }
}
