//! Phase-space DTFE (PS-DTFE): per-simplex density and velocity gradients,
//! with multi-stream handling on tetrahedron orientation.
//!
//! Following Feldbrugge's phase-space estimator (PAPERS.md), the density is
//! **piecewise constant per simplex** rather than interpolated from vertex
//! stars: each vertex distributes its mass equally over its incident
//! tetrahedra, so a tetrahedron `T` carries
//!
//! ```text
//! m_T = Σ_{v ∈ T} m_v / deg(v),    ρ_T = m_T / V_T,
//! ```
//!
//! where `deg(v)` counts the finite tetrahedra incident on `v`. Summing
//! `ρ_T · V_T` over all tetrahedra telescopes back to `Σ_v m_v`, so the
//! estimate conserves mass *exactly* (to floating-point roundoff) — the
//! conformance suite asserts 1e-12 relative.
//!
//! Alongside the density, each simplex's constant **velocity gradient**
//! `∇v` is solved from the vertex velocities (the `inv(A) @ (v[1:] - v[0])`
//! of the reference implementation); a degenerate simplex is a typed error,
//! never a silent zero. Only its trace is kept: the velocity divergence,
//! rendered through the same marching kernel via
//! [`PsDtfeField::divergence`]. Both tables hold one number per simplex
//! ([`SlotValues::Constant`]): Eq. 12 integrates a constant exactly from it.
//!
//! In a multi-stream region the Zel'dovich map folds the Lagrangian mesh
//! over itself; [`StreamField`] counts streams at a point by counting the
//! mapped (possibly inverted) tetrahedra containing it, with the fold
//! detected by the **orientation sign** of each mapped tetrahedron.

use crate::density::Mass;
use crate::estimator::{vertex_masses, DegenerateTetError, FieldEstimator, FieldView, SlotValues};
use crate::marching::MarchCache;
use dtfe_delaunay::{BuildError, Delaunay, DelaunayBuilder, TetId};
use dtfe_geometry::tetra::{linear_gradient, signed_volume6, volume};
use dtfe_geometry::Vec3;
use std::sync::OnceLock;

/// Why a PS-DTFE build failed.
#[derive(Debug)]
pub enum PsDtfeError {
    /// The particle set does not triangulate (fewer than 4 affinely
    /// independent points).
    Build(BuildError),
    /// A tetrahedron is too flat for a velocity gradient
    /// (see [`DegenerateTetError`]).
    Degenerate(DegenerateTetError),
}

impl std::fmt::Display for PsDtfeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsDtfeError::Build(e) => write!(f, "triangulation failed: {e}"),
            PsDtfeError::Degenerate(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PsDtfeError {}

impl From<BuildError> for PsDtfeError {
    fn from(e: BuildError) -> Self {
        PsDtfeError::Build(e)
    }
}

impl From<DegenerateTetError> for PsDtfeError {
    fn from(e: DegenerateTetError) -> Self {
        PsDtfeError::Degenerate(e)
    }
}

/// The PS-DTFE tables over a triangulation, in its slot order: one number
/// per simplex, 8 B a slot each. Ghost/freed slots hold zeros.
pub struct PsDtfeTable {
    /// `ρ_T` per slot.
    density: Vec<f64>,
    /// `tr ∇v` per slot.
    divergence: Vec<f64>,
}

impl PsDtfeTable {
    /// Build over a triangulation of `n_input` input points from the
    /// per-particle `velocities` (one per input point) and `mass`.
    /// Duplicate inputs that merged into one vertex average their
    /// velocities and accumulate their masses. Every entry depends on its
    /// own tetrahedron only, so the tables over two slot orders of one
    /// mesh hold the same values under the renumbering.
    pub fn build(
        del: &Delaunay,
        n_input: usize,
        velocities: &[Vec3],
        mass: &Mass,
    ) -> Result<PsDtfeTable, DegenerateTetError> {
        assert_eq!(velocities.len(), n_input, "one velocity per input particle");
        let nv = del.num_vertices();

        // Per-vertex mass (merged duplicates accumulate) and velocity
        // (merged duplicates average).
        let vmass = vertex_masses(del, n_input, mass);
        let mut vvel = vec![Vec3::ZERO; nv];
        let mut vcount = vec![0u32; nv];
        for (i, &v) in velocities.iter().enumerate() {
            let vid = del.vertex_of_input(i) as usize;
            vvel[vid] += v;
            vcount[vid] += 1;
        }
        for (v, &c) in vvel.iter_mut().zip(&vcount) {
            if c > 1 {
                *v = *v * (1.0 / c as f64);
            }
        }

        // deg(v): finite tetrahedra incident on each vertex.
        let mut deg = vec![0u32; nv];
        for t in del.finite_tets() {
            for &v in &del.tet(t).verts {
                deg[v as usize] += 1;
            }
        }

        let slots = del.num_slots();
        let mut density = vec![0.0; slots];
        let mut divergence = vec![0.0; slots];
        for t in 0..slots as u32 {
            let tet = del.tet_slot(t);
            if !tet.is_live() || tet.is_ghost() {
                continue;
            }
            let p = tet.verts.map(|v| del.vertex(v));
            // ρ_T = m_T / V_T with each vertex's mass split evenly over its
            // incident tetrahedra. Degenerate (zero-volume) simplices keep
            // ρ = 0: they cannot contribute to any line-of-sight integral.
            let vol = volume(p[0], p[1], p[2], p[3]).abs();
            let m_t: f64 = tet
                .verts
                .iter()
                .map(|&v| {
                    let d = deg[v as usize];
                    if d > 0 {
                        vmass[v as usize] / d as f64
                    } else {
                        0.0
                    }
                })
                .sum();
            if vol > 0.0 {
                density[t as usize] = m_t / vol;
            }

            // ∇v rows: one linear solve per velocity component, reduced to
            // the trace. Unlike the density (where a sliver's zero
            // contribution is harmless), a silently zeroed velocity gradient
            // would corrupt divergence output — degenerate simplices are a
            // typed error here.
            let vel = tet.verts.map(|v| vvel[v as usize]);
            let mut rows = [Vec3::ZERO; 3];
            for (c, row) in rows.iter_mut().enumerate() {
                let f = [vel[0][c], vel[1][c], vel[2][c], vel[3][c]];
                *row = linear_gradient(&p, &f).ok_or(DegenerateTetError { tet: t })?;
            }
            divergence[t as usize] = rows[0].x + rows[1].y + rows[2].z;
        }

        Ok(PsDtfeTable {
            density,
            divergence,
        })
    }

    /// The per-slot densities `ρ_T`.
    #[inline]
    pub fn density(&self) -> &[f64] {
        &self.density
    }

    /// The per-slot velocity divergences `tr ∇v`: rendering them integrates
    /// `∫ ∇·v dz`.
    #[inline]
    pub fn divergence(&self) -> &[f64] {
        &self.divergence
    }
}

/// The phase-space DTFE estimator: a triangulation, in the slot order it
/// was given in, and its [`PsDtfeTable`] in one owner.
pub struct PsDtfeField {
    del: Delaunay,
    table: PsDtfeTable,
    march: OnceLock<MarchCache>,
}

impl PsDtfeField {
    /// Triangulate `points` and build the phase-space estimate from the
    /// per-particle `velocities` (one per input point) and `mass`.
    pub fn build(
        points: &[Vec3],
        velocities: &[Vec3],
        mass: Mass,
    ) -> Result<PsDtfeField, PsDtfeError> {
        let del = DelaunayBuilder::new().build(points)?;
        Ok(Self::from_delaunay(del, points.len(), velocities, mass)?)
    }

    /// Build over an existing triangulation of `n_input` input points,
    /// keeping its slot order (see [`PsDtfeTable::build`]).
    pub fn from_delaunay(
        del: Delaunay,
        n_input: usize,
        velocities: &[Vec3],
        mass: Mass,
    ) -> Result<PsDtfeField, DegenerateTetError> {
        let table = PsDtfeTable::build(&del, n_input, velocities, &mass)?;
        Ok(PsDtfeField {
            del,
            table,
            march: OnceLock::new(),
        })
    }

    /// The underlying triangulation.
    #[inline]
    pub fn delaunay(&self) -> &Delaunay {
        &self.del
    }

    /// The constant density of simplex `t`.
    #[inline]
    pub fn tet_density(&self, t: TetId) -> f64 {
        self.table.density[t as usize]
    }

    /// The constant velocity divergence `tr ∇v` of simplex `t`.
    #[inline]
    pub fn tet_divergence(&self, t: TetId) -> f64 {
        self.table.divergence[t as usize]
    }

    /// Total estimated mass `Σ_T ρ_T V_T` — equals the input mass exactly
    /// (to roundoff), by construction.
    pub fn integrated_mass(&self) -> f64 {
        self.del
            .finite_tets()
            .map(|t| {
                let p = self.del.tet_points(t);
                volume(p[0], p[1], p[2], p[3]).abs() * self.tet_density(t)
            })
            .sum()
    }

    /// The velocity-divergence view: a [`FieldEstimator`] over the *same*
    /// mesh and marching cache whose value is `tr ∇v` per simplex.
    /// Rendering it integrates `∫ ∇·v dz`.
    pub fn divergence(&self) -> PsDtfeDivergence<'_> {
        PsDtfeDivergence(self)
    }
}

/// PS-DTFE density: the per-simplex-constant table.
impl FieldEstimator for PsDtfeField {
    fn view(&self) -> FieldView<'_> {
        FieldView::new(
            &self.del,
            &self.march,
            SlotValues::Constant(&self.table.density),
        )
    }
}

/// Velocity-divergence view of a [`PsDtfeField`] (see
/// [`PsDtfeField::divergence`]): the second table over the density view's
/// mesh and marching cache — a hull index built for one serves both.
pub struct PsDtfeDivergence<'a>(&'a PsDtfeField);

impl FieldEstimator for PsDtfeDivergence<'_> {
    fn view(&self) -> FieldView<'_> {
        FieldView::new(
            &self.0.del,
            &self.0.march,
            SlotValues::Constant(&self.0.table.divergence),
        )
    }
}

/// Multi-stream diagnosis for a flow `q ↦ x(q)`: the Lagrangian-space
/// triangulation mapped through the flow, with per-simplex orientation.
///
/// Where the map is single-stream the mapped tetrahedra tile space with one
/// consistent orientation; a fold (shell crossing) inverts some tetrahedra
/// and covers the folded region multiple times. The number of streams at a
/// point is the number of mapped tetrahedra containing it.
pub struct StreamField {
    del: Delaunay,
    /// Eulerian position of each Lagrangian vertex.
    x: Vec<Vec3>,
    /// Orientation sign of each mapped finite tetrahedron (+1 / −1, 0 for
    /// degenerate or non-finite slots), in slot order.
    orient: Vec<i8>,
}

impl StreamField {
    /// Triangulate the Lagrangian positions `q` and map vertices to the
    /// Eulerian positions `x` (both per input point, same length).
    pub fn build(q: &[Vec3], x: &[Vec3]) -> Result<StreamField, BuildError> {
        assert_eq!(q.len(), x.len(), "one Eulerian position per q");
        let del = DelaunayBuilder::new().build(q)?;
        let mut vx = vec![Vec3::ZERO; del.num_vertices()];
        for (i, &p) in x.iter().enumerate() {
            vx[del.vertex_of_input(i) as usize] = p;
        }
        let mut orient = vec![0i8; del.num_slots()];
        for t in del.finite_tets() {
            let verts = del.tet(t).verts;
            let v = signed_volume6(
                vx[verts[0] as usize],
                vx[verts[1] as usize],
                vx[verts[2] as usize],
                vx[verts[3] as usize],
            );
            orient[t as usize] = if v > 0.0 {
                1
            } else if v < 0.0 {
                -1
            } else {
                0
            };
        }
        Ok(StreamField { del, x: vx, orient })
    }

    /// The Lagrangian triangulation.
    pub fn delaunay(&self) -> &Delaunay {
        &self.del
    }

    /// Number of streams at Eulerian point `p`: mapped tetrahedra whose
    /// (possibly inverted) image contains `p`. ≥ 1 anywhere inside the
    /// mapped hull; ≥ 3 inside a fold (stream counts change by 2 across a
    /// caustic). Brute force over the mesh — a diagnosis tool, not a
    /// render-path hot loop.
    pub fn stream_count_at(&self, p: Vec3) -> u32 {
        let mut n = 0u32;
        for t in self.del.finite_tets() {
            let verts = self.del.tet(t).verts;
            let (a, b, c, d) = (
                self.x[verts[0] as usize],
                self.x[verts[1] as usize],
                self.x[verts[2] as usize],
                self.x[verts[3] as usize],
            );
            let s = self.orient[t as usize];
            if s == 0 {
                continue;
            }
            let sf = s as f64;
            // p is inside iff every face sub-volume keeps the simplex's
            // orientation sign (boundary counts as inside).
            if signed_volume6(p, b, c, d) * sf >= 0.0
                && signed_volume6(a, p, c, d) * sf >= 0.0
                && signed_volume6(a, b, p, d) * sf >= 0.0
                && signed_volume6(a, b, c, p) * sf >= 0.0
            {
                n += 1;
            }
        }
        n
    }

    /// Fraction of mapped tetrahedra whose orientation is inverted relative
    /// to the majority — 0 for a fold-free (injective) map.
    pub fn folded_fraction(&self) -> f64 {
        let (mut pos, mut neg) = (0usize, 0usize);
        for &s in &self.orient {
            match s {
                1 => pos += 1,
                -1 => neg += 1,
                _ => {}
            }
        }
        let total = pos + neg;
        if total == 0 {
            0.0
        } else {
            pos.min(neg) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn mass_conserved_exactly() {
        let pts = jittered_cloud(5, 11);
        let vel: Vec<Vec3> = pts.iter().map(|p| Vec3::new(p.y, -p.x, 0.3)).collect();
        let field = PsDtfeField::build(&pts, &vel, Mass::Uniform(1.5)).unwrap();
        let m_true = 1.5 * pts.len() as f64;
        let m_est = field.integrated_mass();
        assert!(
            (m_est - m_true).abs() <= 1e-12 * m_true,
            "{m_est} vs {m_true}"
        );
    }

    #[test]
    fn linear_flow_gradients_are_exact() {
        // v = (2x + z, 3y, −x + 4z): constant ∇v everywhere, div = 9.
        let pts = jittered_cloud(4, 23);
        let flow = |p: Vec3| Vec3::new(2.0 * p.x + p.z, 3.0 * p.y, -p.x + 4.0 * p.z);
        let vel: Vec<Vec3> = pts.iter().map(|&p| flow(p)).collect();
        let field = PsDtfeField::build(&pts, &vel, Mass::Uniform(1.0)).unwrap();
        let del = field.delaunay();
        for t in del.finite_tets() {
            // The rows the table solves, then reduces to their trace.
            let p = del.tet_points(t);
            let rows: [Vec3; 3] =
                std::array::from_fn(|c| linear_gradient(&p, &p.map(|q| flow(q)[c])).unwrap());
            assert!(
                (rows[0] - Vec3::new(2.0, 0.0, 1.0)).norm() < 1e-8,
                "{rows:?}"
            );
            assert!((rows[1] - Vec3::new(0.0, 3.0, 0.0)).norm() < 1e-8);
            assert!((rows[2] - Vec3::new(-1.0, 0.0, 4.0)).norm() < 1e-8);
            assert!((field.tet_divergence(t) - 9.0).abs() < 1e-8);
            // Both views read the simplex's one number anywhere inside it.
            let mid = (p[0] + p[1] + p[2] + p[3]) * 0.25;
            assert_eq!(
                field.divergence().tet_value(t, mid),
                field.tet_divergence(t)
            );
            assert_eq!(field.tet_value(t, mid), field.tet_density(t));
        }
    }

    #[test]
    fn identity_map_is_single_stream() {
        let q = jittered_cloud(4, 31);
        let sf = StreamField::build(&q, &q).unwrap();
        assert_eq!(sf.folded_fraction(), 0.0);
        // Interior points see exactly one stream.
        for p in [Vec3::new(1.5, 1.5, 1.5), Vec3::new(2.1, 1.2, 2.6)] {
            assert_eq!(sf.stream_count_at(p), 1, "at {p:?}");
        }
        // Far outside: zero.
        assert_eq!(sf.stream_count_at(Vec3::splat(100.0)), 0);
    }

    #[test]
    fn fold_multiplies_streams() {
        // 1D fold embedded in 3D: x' = x + 1.5 sin(πx/2) has x'-slope
        // 1 + 2.36 cos(πx/2), which goes negative around x ≈ 2 — the sheet
        // folds over itself and x' ∈ (~1.6, ~2.4) has three preimages.
        let q = jittered_cloud(5, 47);
        let x: Vec<Vec3> = q
            .iter()
            .map(|p| {
                Vec3::new(
                    p.x + 1.5 * (std::f64::consts::PI * p.x / 2.0).sin(),
                    p.y,
                    p.z,
                )
            })
            .collect();
        let sf = StreamField::build(&q, &x).unwrap();
        assert!(sf.folded_fraction() > 0.0, "map did not fold");
        // Somewhere in the fold there are ≥ 3 streams.
        let mut max_streams = 0;
        for i in 0..40 {
            let p = Vec3::new(1.5 + i as f64 * 0.025, 2.2, 2.4);
            max_streams = max_streams.max(sf.stream_count_at(p));
        }
        assert!(max_streams >= 3, "max streams {max_streams}");
    }
}
