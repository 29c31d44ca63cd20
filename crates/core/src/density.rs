//! The DTFE estimator: per-vertex densities and the piecewise-linear
//! interpolant (paper §III-A).

use crate::estimator::{
    integrate_vertex_field, vertex_interp, vertex_masses, FieldEstimator, FieldView, RenderMesh,
};
use crate::marching::MarchCache;
use dtfe_delaunay::{BuildError, Delaunay, DelaunayBuilder, Located, TetId};
use dtfe_geometry::{Vec2, Vec3};

/// Particle masses for the density estimate.
#[derive(Clone, Debug)]
pub enum Mass {
    /// All particles share one mass (the N-body case).
    Uniform(f64),
    /// Per-*input-point* masses (merged duplicates accumulate their masses).
    PerParticle(Vec<f64>),
}

/// Per-tetrahedron interpolation cache: the linear field inside tetrahedron
/// `t` is `ρ(x) = rho0 + grad · (x − x₀)` (Eq. 1), where `x₀` is the
/// tetrahedron's first vertex, `del.vertex(del.tet(t).verts[0])`. `x₀` is
/// not stored: whoever evaluates the row has the mesh, and reads it there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TetInterp {
    pub rho0: f64,
    pub grad: Vec3,
}

impl TetInterp {
    /// The row of a ghost, freed or degenerate slot: zero everywhere.
    pub const ZERO: TetInterp = TetInterp {
        rho0: 0.0,
        grad: Vec3::ZERO,
    };

    /// Eq. 1 at `p`, for the tetrahedron whose first vertex is `x0`.
    #[inline]
    pub fn eval(&self, x0: Vec3, p: Vec3) -> f64 {
        self.rho0 + self.grad.dot(p - x0)
    }
}

/// The DTFE table over a [`RenderMesh`]: the vertex densities of Eq. 2 and
/// one precomputed linear interpolant per tetrahedron slot.
///
/// Densities are `ρ̂(x_i) = (d+1) m_i / Σ_j V(T_{j,i})` with `d = 3`: four
/// times the vertex mass over the volume of its star (the contiguous Voronoi
/// cell). This makes the piecewise-linear field conserve total mass exactly:
/// `∫ ρ̂ dV = Σ_i m_i` over the convex hull.
pub struct DtfeTable {
    vertex_density: Vec<f64>,
    /// Indexed by tetrahedron slot id; ghost/freed slots hold zeros.
    interp: Vec<TetInterp>,
}

impl DtfeTable {
    /// Eq. 2 and Eq. 1 over `mesh`, which was triangulated from `n_input`
    /// input points (duplicates may have merged; masses accumulate via
    /// [`Delaunay::vertex_of_input`]). Degenerate (coplanar) tetrahedra
    /// carry zero volume and get a zero gradient, counted on
    /// `core.degenerate_tet_zero_grad`.
    pub fn build(mesh: &RenderMesh, n_input: usize, mass: &Mass) -> DtfeTable {
        let del = mesh.delaunay();
        let vertex_density: Vec<f64> = vertex_masses(del, n_input, mass)
            .iter()
            .zip(mesh.star_volumes())
            .map(|(&m, &w)| if w > 0.0 { 4.0 * m / w } else { 0.0 })
            .collect();
        let interp = vertex_interp(del, &vertex_density);
        DtfeTable {
            vertex_density,
            interp,
        }
    }

    /// Vertex densities `ρ̂(x_i)` (Eq. 2), indexed by `VertexId`.
    #[inline]
    pub fn vertex_densities(&self) -> &[f64] {
        &self.vertex_density
    }

    /// The per-slot interpolants: what [`RenderMesh::view`] renders.
    #[inline]
    pub fn interp(&self) -> &[TetInterp] {
        &self.interp
    }
}

/// A DTFE density field: a [`RenderMesh`] and its [`DtfeTable`] in one
/// owner.
pub struct DtfeField {
    mesh: RenderMesh,
    table: DtfeTable,
}

impl DtfeField {
    /// Triangulate `points` and estimate densities.
    pub fn build(points: &[Vec3], mass: Mass) -> Result<DtfeField, BuildError> {
        let del = DelaunayBuilder::new().build(points)?;
        Ok(Self::from_delaunay_for_inputs(del, points.len(), mass))
    }

    /// Use an existing triangulation built from `n_input` input points
    /// (duplicates may have merged; masses accumulate via
    /// [`Delaunay::vertex_of_input`]).
    ///
    /// The triangulation is laid out as one record per tetrahedron in
    /// cache-coherent BFS order by [`RenderMesh::new`], which keeps every
    /// density, gradient and rendered field bit-identical to one computed
    /// over the builder's slots. `TetId`s obtained from this field's
    /// [`DtfeField::delaunay`] are consistent with every accessor; ids
    /// retained from `del` *before* this call go stale.
    pub fn from_delaunay_for_inputs(del: Delaunay, n_input: usize, mass: Mass) -> DtfeField {
        Self::over(RenderMesh::new(del), n_input, &mass)
    }

    fn over(mesh: RenderMesh, n_input: usize, mass: &Mass) -> DtfeField {
        let table = DtfeTable::build(&mesh, n_input, mass);
        DtfeField { mesh, table }
    }

    /// The underlying triangulation.
    #[inline]
    pub fn delaunay(&self) -> &Delaunay {
        self.mesh.delaunay()
    }

    /// The mesh this field is a table over: another table over it — a
    /// [`crate::fields::ScalarField`] of any vertex quantity — renders with
    /// this field's records.
    #[inline]
    pub fn mesh(&self) -> &RenderMesh {
        &self.mesh
    }

    /// The mesh's records as the marching kernel steps through them,
    /// written when the field was built.
    #[inline]
    pub fn march_cache(&self) -> &MarchCache {
        self.view().cache
    }

    /// Vertex densities `ρ̂(x_i)` (Eq. 2), indexed by `VertexId`.
    #[inline]
    pub fn vertex_densities(&self) -> &[f64] {
        self.table.vertex_densities()
    }

    /// The linear interpolant parameters of finite tetrahedron `t`.
    #[inline]
    pub fn tet_interp(&self, t: TetId) -> &TetInterp {
        &self.table.interp[t as usize]
    }

    /// Evaluate `ρ̂` inside tetrahedron `t` at `p` (Eq. 1). `p` is assumed
    /// to lie in `t`; no containment check.
    #[inline]
    pub fn density_in_tet(&self, t: TetId, p: Vec3) -> f64 {
        let del = self.delaunay();
        self.tet_interp(t).eval(del.vertex(del.tet(t).verts[0]), p)
    }

    /// Point-located density: walk from `hint`, interpolate, and return the
    /// containing tetrahedron for the next call's hint. `None` outside the
    /// hull (or where the walk is [`Located::Lost`]). This is the walking
    /// baseline's inner loop.
    pub fn density_at_hinted(&self, p: Vec3, hint: TetId, seed: &mut u64) -> Option<(f64, TetId)> {
        match self.delaunay().locate_seeded(p, hint, seed) {
            Located::Finite(t) => Some((self.density_in_tet(t, p), t)),
            Located::Ghost(_) | Located::Lost => None,
            Located::Vertex(v) => {
                // Any incident tetrahedron gives the same vertex value.
                Some((self.vertex_densities()[v as usize], hint))
            }
        }
    }

    /// Convenience single query (fresh walk each call).
    pub fn density_at(&self, p: Vec3) -> Option<f64> {
        let mut seed = 0x9E3779B97F4A7C15 ^ (p.x.to_bits() ^ p.y.to_bits().rotate_left(17));
        self.density_at_hinted(p, dtfe_delaunay::NONE, &mut seed)
            .map(|(d, _)| d)
    }

    /// Total estimated mass `∫ ρ̂ dV` over the hull — equals the input mass
    /// up to floating-point roundoff (DTFE's conservation property).
    pub fn integrated_mass(&self) -> f64 {
        integrate_vertex_field(self.delaunay(), self.vertex_densities())
    }
}

impl FieldEstimator for DtfeField {
    fn view(&self) -> FieldView<'_> {
        self.mesh.view(self.table.interp())
    }
}

/// A downward-facing hull facet projected into the x-y plane; the 2D
/// "triangulation" of Eq. 14 used to find the first tetrahedron a vertical
/// line of sight enters.
#[derive(Clone, Copy, Debug)]
pub struct EntryFacet {
    /// The ghost tetrahedron owning the facet; its `neighbors[3]` is the
    /// finite tetrahedron the ray enters first.
    pub ghost: TetId,
    pub a: Vec2,
    pub b: Vec2,
    pub c: Vec2,
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
    fn mass_conservation() {
        let pts = jittered_cloud(6, 3);
        let field = DtfeField::build(&pts, Mass::Uniform(2.5)).unwrap();
        let m_total = 2.5 * pts.len() as f64;
        let m_est = field.integrated_mass();
        assert!(
            (m_est - m_total).abs() < 1e-9 * m_total,
            "integrated {m_est} vs input {m_total}"
        );
    }

    #[test]
    fn per_particle_masses_accumulate_on_duplicates() {
        let mut pts = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.3, 0.3, 0.3),
        ];
        pts.push(pts[4]); // duplicate carrying extra mass
        let masses = vec![1.0, 1.0, 1.0, 1.0, 2.0, 3.0];
        let field = DtfeField::build(&pts, Mass::PerParticle(masses)).unwrap();
        assert!((field.integrated_mass() - 9.0).abs() < 1e-9);
        // The duplicate vertex carries mass 5.
        let v = field.delaunay().vertex_of_input(4);
        let w = field.delaunay().vertex_star_volumes()[v as usize];
        let expect = 4.0 * 5.0 / w;
        assert!((field.vertex_densities()[v as usize] - expect).abs() < 1e-9);
    }

    #[test]
    fn uniform_lattice_density_in_interior() {
        // On a unit lattice with unit masses, the mean density is 1; interior
        // vertex stars tile space so interior densities are exactly 4m/W with
        // W varying by vertex parity, but interpolated mass over interior
        // cells must average to ~1.
        let pts: Vec<Vec3> = (0..6)
            .flat_map(|i| {
                (0..6)
                    .flat_map(move |j| (0..6).map(move |k| Vec3::new(i as f64, j as f64, k as f64)))
            })
            .collect();
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let rho = field.density_at(Vec3::new(2.5, 2.5, 2.5)).unwrap();
        assert!(rho > 0.3 && rho < 3.0, "rho = {rho}");
        // Outside the hull:
        assert!(field.density_at(Vec3::new(50.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn density_linear_inside_tet() {
        let pts = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let t = field.delaunay().finite_tets().next().unwrap();
        // All vertices have the same star volume (the single tet), so the
        // field is constant = 4 * 1 / (1/6) = 24.
        let rho = field.density_in_tet(t, Vec3::new(0.2, 0.2, 0.2));
        assert!((rho - 24.0).abs() < 1e-9, "rho = {rho}");
        assert!((field.integrated_mass() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn records_carry_the_builders_interpolants() {
        // Laying the mesh out permutes slots only: every tetrahedron's
        // interpolant (rho0, grad) — what the marching integral is computed
        // from — is the one the builder's slots give, bit for bit.
        use crate::estimator::vertex_interp;
        use dtfe_delaunay::DelaunayBuilder;
        let pts = jittered_cloud(5, 21);
        let raw = DelaunayBuilder::new().build(&pts).unwrap();
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        // Densities are estimated over the builder's slots either way.
        let w = raw.vertex_star_volumes();
        let rho: Vec<f64> = w.iter().map(|&w| 4.0 / w).collect();
        assert_eq!(rho, field.vertex_densities());
        let rows = vertex_interp(&raw, &rho);
        let by_verts: std::collections::HashMap<[u32; 4], TetId> = field
            .delaunay()
            .finite_tets()
            .map(|t| (field.delaunay().tet(t).verts, t))
            .collect();
        assert_eq!(by_verts.len(), raw.num_tets());
        for old in raw.finite_tets() {
            let new = by_verts[&raw.tet(old).verts];
            assert_eq!(&rows[old as usize], field.tet_interp(new), "slot {old}");
        }
    }

    #[test]
    fn entry_facets_cover_footprint() {
        let pts = jittered_cloud(4, 9);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let facets = crate::estimator::entry_facets_of(field.delaunay());
        assert!(!facets.is_empty());
        // Each entry facet's ghost leads to a finite tetrahedron.
        for f in &facets {
            let inner = field.delaunay().tet(f.ghost).neighbors[3];
            assert!(!field.delaunay().tet(inner).is_ghost());
        }
        // Projected area of downward facets ≈ hull footprint area; for a
        // convex body both up- and down-facing sets project to the same area.
        let area_down: f64 = facets
            .iter()
            .map(|f| 0.5 * (f.b - f.a).perp_dot(f.c - f.a).abs())
            .sum();
        assert!(area_down > 1.0, "area = {area_down}");
    }
}
