//! Phase-space DTFE (PS-DTFE): per-simplex density and velocity gradients.
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
//! ([`crate::estimator::SlotValues::Constant`]): Eq. 12 integrates a
//! constant exactly from it. A value depends on its own simplex only, never
//! on a slot number, so [`PsDtfeField`] is a [`RenderMesh`] — the render
//! order every other estimator uses — and its two tables.

use crate::density::Mass;
use crate::estimator::{vertex_masses, DegenerateTetError, FieldEstimator, FieldView, RenderMesh};
use dtfe_delaunay::{BuildError, Delaunay, DelaunayBuilder, TetId};
use dtfe_geometry::tetra::{linear_gradient, volume};
use dtfe_geometry::Vec3;

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

/// The phase-space DTFE estimator: a [`RenderMesh`] and its
/// [`PsDtfeTable`] in one owner.
pub struct PsDtfeField {
    mesh: RenderMesh,
    table: PsDtfeTable,
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

    /// Build over an existing triangulation of `n_input` input points. Its
    /// slots are renumbered into render order by [`RenderMesh::new`], so
    /// `TetId`s retained from `del` go stale; the error names a slot of that
    /// order.
    pub fn from_delaunay(
        del: Delaunay,
        n_input: usize,
        velocities: &[Vec3],
        mass: Mass,
    ) -> Result<PsDtfeField, DegenerateTetError> {
        let mesh = RenderMesh::new(del);
        let table = PsDtfeTable::build(mesh.delaunay(), n_input, velocities, &mass)?;
        Ok(PsDtfeField { mesh, table })
    }

    /// The underlying triangulation.
    #[inline]
    pub fn delaunay(&self) -> &Delaunay {
        self.mesh.delaunay()
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
        let del = self.delaunay();
        del.finite_tets()
            .map(|t| {
                let p = del.tet_points(t);
                volume(p[0], p[1], p[2], p[3]).abs() * self.tet_density(t)
            })
            .sum()
    }

    /// The velocity-divergence view: the `tr ∇v` table over the *same* mesh
    /// and records as the density, so a hull index built for one
    /// serves both. Rendering it integrates `∫ ∇·v dz`.
    pub fn divergence(&self) -> FieldView<'_> {
        self.mesh.view(self.table.divergence())
    }
}

/// PS-DTFE density: the per-simplex-constant table.
impl FieldEstimator for PsDtfeField {
    fn view(&self) -> FieldView<'_> {
        self.mesh.view(self.table.density())
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
}
