//! The estimator seam: one view from any backend to the renderers.
//!
//! The paper's pipeline — Delaunay mesh → per-simplex linear interpolant →
//! exact line-of-sight integration (Eq. 12) — has exactly one input, and
//! [`FieldView`] is that input: the triangulation, its 32 B traversal
//! links, and the field on each tetrahedron slot ([`SlotValues`]):
//! a vertex-sampled field, linear in each slot ([`LinearTable`]: its
//! interpolant `(f₀, ∇f)`, Eq. 1 about the slot's first vertex `x₀`, is
//! derived from the four vertex values), or one constant per simplex.
//! Both kernels in [`crate::marching`] take a `FieldView` and nothing else,
//! so each is compiled once however many backends exist.
//!
//! [`RenderMesh`] is the one owner of a triangulation for rendering: it
//! lays the mesh out as one link per tetrahedron in cache-coherent BFS
//! order, and `mesh.view(table)` is the only way a view is made from it. A
//! backend is whatever *fills a table* over that mesh:
//! [`crate::density::DtfeTable`] (Eq. 2 densities),
//! [`crate::fields::ScalarField`] (any per-vertex scalar),
//! [`crate::stochastic::StochasticTable`] (a jittered, mass-rescaled mean)
//! — all three a [`LinearTable`], whose rows come from one function — and
//! [`crate::psdtfe::PsDtfeTable`] (two per-simplex-constant tables, density
//! and velocity divergence). Any number of tables share one mesh;
//! [`crate::density::DtfeField`], [`crate::psdtfe::PsDtfeField`] and
//! [`crate::stochastic::StochasticField`] are a mesh and one table in one
//! owner. [`FieldEstimator`] is the one-method trait that hands the view
//! out.

use crate::density::{EntryFacet, Mass, TetInterp};
use crate::marching::MarchCache;
use dtfe_delaunay::{Delaunay, TetId, VertexId};
use dtfe_geometry::predicates::{orient2d, Orientation};
use dtfe_geometry::tetra::{linear_gradient, volume};
use dtfe_geometry::Vec3;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A linear table: one value per vertex, `f(x_i)`, which fixes the field
/// inside every tetrahedron (Eq. 1), and the per-slot rows `(f₀, ∇f)`
/// derived from them, written only when a march or a walk asks.
///
/// The element projector sets every tetrahedron up once per render, so it
/// derives the row there ([`LinearTable::row`], one 3×3 solve) and never
/// reads the stored rows; the marching kernels and the walking baseline
/// read a tetrahedron's row once per line crossing it, so the first of them
/// writes all rows ([`LinearTable::rows`]) and the rest read them. Both go
/// through one function, so a derived row equals the written one bit for
/// bit. A table that is only projected holds 8 B a vertex.
pub struct LinearTable {
    values: Vec<f64>,
    rows: OnceLock<Vec<TetInterp>>,
}

impl LinearTable {
    /// A table of `values`, one per vertex (indexed by `VertexId`).
    pub fn new(values: Vec<f64>) -> LinearTable {
        LinearTable {
            values,
            rows: OnceLock::new(),
        }
    }

    /// The vertex values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The row of finite tetrahedron `t` of `del`, derived from its vertex
    /// values — what [`LinearTable::rows`] holds at `t`, bit for bit.
    #[inline]
    pub fn row(&self, del: &Delaunay, t: TetId) -> TetInterp {
        let ids = del.tet(t).verts;
        self.row_at(&ids.map(|v| del.vertex(v)), ids).0
    }

    /// The row of the tetrahedron with vertices `ids` at `corners`, and
    /// whether its gradient fell back to zero (a float-singular
    /// tetrahedron).
    #[inline]
    pub(crate) fn row_at(&self, corners: &[Vec3; 4], ids: [VertexId; 4]) -> (TetInterp, bool) {
        linear_row(corners, ids.map(|v| self.values[v as usize]))
    }

    /// One row per slot of `del` — the triangulation the values are over —
    /// written by the first call, which every concurrent first call waits
    /// for, and counted on `core.interp_rows_builds`. Ghost slots hold
    /// [`TetInterp::ZERO`].
    pub fn rows(&self, del: &Delaunay) -> &[TetInterp] {
        self.rows.get_or_init(|| {
            dtfe_telemetry::counter_add!("core.interp_rows_builds", 1);
            vertex_interp(del, &self.values)
        })
    }

    /// The rows if a march or a walk has written them.
    #[inline]
    pub fn written_rows(&self) -> Option<&[TetInterp]> {
        self.rows.get().map(Vec::as_slice)
    }
}

/// A table's per-slot values, as the kernels read them.
#[derive(Clone, Copy)]
pub enum SlotValues<'a> {
    /// A vertex-sampled field, linear in each slot: DTFE, stochastic and
    /// [`crate::fields::ScalarField`] tables.
    Linear(&'a LinearTable),
    /// One number per simplex, `f(x) = c[t]`: the PS-DTFE density and
    /// velocity divergence, whose Eq. 12 integral is that number times the
    /// crossing length.
    Constant(&'a [f64]),
}

impl<'a> SlotValues<'a> {
    /// What a march reads: a linear table's rows — written by this call if
    /// no march has yet — or the constants.
    pub(crate) fn rows(self, del: &Delaunay) -> SlotRows<'a> {
        match self {
            SlotValues::Linear(table) => SlotRows::Linear(table.rows(del)),
            SlotValues::Constant(c) => SlotRows::Constant(c),
        }
    }
}

impl<'a> From<&'a LinearTable> for SlotValues<'a> {
    fn from(table: &'a LinearTable) -> Self {
        SlotValues::Linear(table)
    }
}

impl<'a> From<&'a [f64]> for SlotValues<'a> {
    fn from(c: &'a [f64]) -> Self {
        SlotValues::Constant(c)
    }
}

/// A table's per-slot values as a march reads them on every crossing.
#[derive(Clone, Copy)]
pub(crate) enum SlotRows<'a> {
    /// One row per slot, `f(x) = rho0 + grad · (x − x₀)` (Eq. 1), `x₀` the
    /// slot's first vertex.
    Linear(&'a [TetInterp]),
    /// One number per simplex.
    Constant(&'a [f64]),
}

impl SlotRows<'_> {
    /// The field inside slot `t` at `p`; `x0` is the slot's first vertex.
    #[inline]
    pub(crate) fn eval(&self, t: TetId, x0: Vec3, p: Vec3) -> f64 {
        match self {
            SlotRows::Linear(rows) => rows[t as usize].eval(x0, p),
            SlotRows::Constant(c) => c[t as usize],
        }
    }
}

/// What the kernels render: three borrows.
///
/// * `values` must be valid for every finite tetrahedron slot `t` of `del`
///   (ghost slots are never read by the kernel): a linear table holds one
///   value per vertex of `del`, a constant table `del.num_slots()`
///   entries.
/// * `cache` must be `del`'s own links ([`Delaunay::topology`], `Some`
///   once [`Delaunay::into_topology`] has laid it out) —
///   [`RenderMesh::view`] guarantees it.
#[derive(Clone, Copy)]
pub struct FieldView<'a> {
    /// The triangulation the field is defined over.
    pub del: &'a Delaunay,
    /// The triangulation's links, as every kernel reads them, and the
    /// positions the first march writes beside them.
    pub cache: &'a MarchCache,
    /// The field on each slot of `del`.
    pub values: SlotValues<'a>,
}

/// A `(mesh, table)` pair renders as it is.
impl FieldEstimator for FieldView<'_> {
    fn view(&self) -> FieldView<'_> {
        *self
    }
}

/// A triangulation prepared for rendering: the vertex star volumes of
/// Eq. 2 and the render-time topology ([`Delaunay::into_topology`]) — one
/// 32 B link per tetrahedron in cache-coherent BFS order, which the
/// kernels traverse and every table fill and point location reads, and the
/// march's positions once a march has written them. Every
/// estimator table over one point set is a table over this one mesh, and
/// every rendered field — owned or served — is a view of one.
///
/// A star volume is a float sum over the incident tetrahedra, so its bits
/// depend on the slot order it is summed in; [`RenderMesh::new`] sums over
/// the order the builder left, *then* writes the links. Interpolants
/// depend only on their own tetrahedron, whose vertex order the links
/// keep, so every density, gradient and rendered field is bit-identical to
/// one computed over the builder's slots.
pub struct RenderMesh {
    del: Delaunay,
    star: Vec<f64>,
}

impl RenderMesh {
    /// Take a triangulation as its builder left it. `TetId`s retained from
    /// `del` before this call go stale.
    pub fn new(del: Delaunay) -> RenderMesh {
        let star = del.vertex_star_volumes();
        let _span = dtfe_telemetry::span!("core.march_cache_build", slots = del.num_slots());
        RenderMesh {
            del: del.into_topology(),
            star,
        }
    }

    /// The triangulation, in render order.
    #[inline]
    pub fn delaunay(&self) -> &Delaunay {
        &self.del
    }

    /// The mesh's links with the march's positions written beside them —
    /// by this call, if no march has yet: what a marched render reads.
    pub fn march_cache(&self) -> &MarchCache {
        let topo = self.topology();
        topo.march_positions(self.del.vertices());
        topo
    }

    /// `W_i = Σ_j V(T_{j,i})` per vertex (the contiguous Voronoi cell).
    #[inline]
    pub(crate) fn star_volumes(&self) -> &[f64] {
        &self.star
    }

    /// What the kernels render for one table over this mesh — linear rows
    /// or per-simplex constants, one per slot of [`RenderMesh::delaunay`].
    pub fn view<'a>(&'a self, values: impl Into<SlotValues<'a>>) -> FieldView<'a> {
        FieldView {
            del: &self.del,
            cache: self.topology(),
            values: values.into(),
        }
    }

    fn topology(&self) -> &MarchCache {
        // `RenderMesh::new` is the only constructor, and it lays out.
        self.del.topology().expect("a RenderMesh is laid out")
    }
}

/// An integrable piecewise-linear field over a Delaunay mesh. A backend
/// implements [`FieldEstimator::view`]; everything else is derived from it.
/// Backends sharing one triangulation (a density field and its
/// velocity-divergence view) hand out views that differ only in `values`,
/// so a [`crate::marching::HullIndex`] built for one serves the other.
pub trait FieldEstimator: Sync {
    /// The (mesh, traversal cache, per-slot values) the kernels render.
    fn view(&self) -> FieldView<'_>;

    /// The triangulation the field is defined over.
    fn delaunay(&self) -> &Delaunay {
        self.view().del
    }

    /// The mesh's links with the march's positions written beside them,
    /// and a linear table's rows — by this call, if no march has yet: what
    /// a marched render reads.
    fn march_cache(&self) -> &MarchCache {
        let view = self.view();
        view.values.rows(view.del);
        view.cache.march_positions(view.del.vertices());
        view.cache
    }

    /// The field inside finite tetrahedron `t` at `p` (no containment
    /// check). A linear table's row is derived, not read, so this writes
    /// nothing.
    fn tet_value(&self, t: TetId, p: Vec3) -> f64 {
        let view = self.view();
        let x0 = view.del.vertex(view.del.tet(t).verts[0]);
        match view.values {
            SlotValues::Linear(table) => table.row(view.del, t).eval(x0, p),
            SlotValues::Constant(c) => c[t as usize],
        }
    }
}

/// The downward hull facets (`n_hull · ẑ < 0`, Eq. 14) of a triangulation,
/// projected into the x-y plane: the entry candidates for vertical lines of
/// sight. A facet is downward when its exact projected winding is
/// clockwise — the complement of the march's `faces_up`, a vertical facet
/// being neither — so the facets tile the hull's footprint exactly.
pub fn entry_facets_of(del: &Delaunay) -> Vec<EntryFacet> {
    let mut out = Vec::new();
    for g in del.ghost_tets() {
        let [a, b, c] = del.hull_facet(g);
        let (pa, pb, pc) = (del.vertex(a), del.vertex(b), del.vertex(c));
        if orient2d(pa.xy(), pb.xy(), pc.xy()) == Orientation::Negative {
            out.push(EntryFacet {
                ghost: g,
                a: pa.xy(),
                b: pb.xy(),
                c: pc.xy(),
            });
        }
    }
    out
}

/// A tetrahedron whose vertices are (numerically) coplanar, so the linear
/// gradient of Eq. 1 is undefined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegenerateTetError {
    /// Slot id of the offending tetrahedron.
    pub tet: TetId,
}

impl std::fmt::Display for DegenerateTetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tetrahedron {} is degenerate (coplanar vertices): no linear gradient exists",
            self.tet
        )
    }
}

impl std::error::Error for DegenerateTetError {}

/// Eq. 1's row of a tetrahedron with corners `p` and vertex values `f`:
/// `rho0 = f[0]` and the constant gradient, or a zero gradient — and
/// `true` — where `p` is coplanar in floating point, so the field is
/// constant over the sliver: it has (near-)zero volume, so its share of any
/// line-of-sight integral is negligible either way. The one definition of
/// a row: [`vertex_interp`] writes it per slot and the element projector
/// derives it per tetrahedron.
#[inline]
pub(crate) fn linear_row(p: &[Vec3; 4], f: [f64; 4]) -> (TetInterp, bool) {
    let grad = linear_gradient(p, &f);
    let row = TetInterp {
        rho0: f[0],
        grad: grad.unwrap_or(Vec3::ZERO),
    };
    (row, grad.is_none())
}

/// Per-slot interpolant table for a vertex-sampled field: [`linear_row`]
/// of every finite slot of `del`, in its current slot order. Ghost/freed
/// slots hold inert zeros. Each zero-gradient fallback is counted on
/// `core.degenerate_tet_zero_grad`. Parallel on large meshes; a row
/// depends only on its own tetrahedron, so the table's bits do not depend
/// on how the pass is split.
fn vertex_interp(del: &Delaunay, values: &[f64]) -> Vec<TetInterp> {
    /// Below this many slots the pass runs in the calling thread: the
    /// vendored rayon spawns scoped OS threads per call, which costs more
    /// than a serial pass over a batch work item's ~4k-slot mesh.
    const PAR_MIN_SLOTS: usize = 1 << 15;

    // Statistics only: publishes no other data.
    let singular = AtomicU64::new(0);
    let interp_of = |t: u32| {
        let tet = del.tet_slot(t);
        if !tet.is_live() || tet.is_ghost() {
            return TetInterp::ZERO;
        }
        let (row, zeroed) = linear_row(
            &tet.verts.map(|v| del.vertex(v)),
            tet.verts.map(|v| values[v as usize]),
        );
        if zeroed {
            singular.fetch_add(1, Ordering::Relaxed);
        }
        row
    };
    let slots = del.num_slots();
    let out: Vec<TetInterp> = if slots < PAR_MIN_SLOTS {
        (0..slots as u32).map(interp_of).collect()
    } else {
        (0..slots as u32).into_par_iter().map(interp_of).collect()
    };
    let zeroed = singular.into_inner();
    if zeroed > 0 {
        // From the calling thread: rayon workers see no recorder.
        dtfe_telemetry::counter_add!("core.degenerate_tet_zero_grad", zeroed);
    }
    out
}

/// Per-vertex mass of `n_input` input particles: merged duplicates
/// accumulate their masses through [`Delaunay::vertex_of_input`].
pub(crate) fn vertex_masses(del: &Delaunay, n_input: usize, mass: &Mass) -> Vec<f64> {
    let mut vmass = vec![0.0f64; del.num_vertices()];
    match mass {
        Mass::Uniform(m) => {
            if n_input == del.num_vertices() {
                vmass.fill(*m);
            } else {
                for i in 0..n_input {
                    vmass[del.vertex_of_input(i) as usize] += m;
                }
            }
        }
        Mass::PerParticle(ms) => {
            assert_eq!(ms.len(), n_input, "mass count != input point count");
            for (i, &m) in ms.iter().enumerate() {
                vmass[del.vertex_of_input(i) as usize] += m;
            }
        }
    }
    vmass
}

/// `∫ f dV` of a piecewise-linear vertex field over the finite mesh
/// (tetrahedron-wise exact: volume × vertex mean).
pub(crate) fn integrate_vertex_field(del: &Delaunay, values: &[f64]) -> f64 {
    del.finite_tets()
        .map(|t| {
            let p = del.tet_points(t);
            let vol = volume(p[0], p[1], p[2], p[3]);
            let mean: f64 = del
                .tet(t)
                .verts
                .iter()
                .map(|&v| values[v as usize])
                .sum::<f64>()
                / 4.0;
            vol * mean
        })
        .sum()
}

/// Which estimator a render should integrate — the request-level selector
/// surfaced in [`crate::MarchOptions`] and threaded through the
/// serving layer's table fills, admission pricing, and wire protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Canonical DTFE density (Eq. 1–2); bit-identical to the pre-trait
    /// kernel.
    #[default]
    Dtfe,
    /// PS-DTFE per-simplex density (mass-conserving piecewise-constant
    /// estimate with per-simplex velocity gradients).
    PsDtfe,
    /// Line-of-sight integral of the PS-DTFE velocity divergence
    /// `∫ ∇·v dz` (served from the same built tile as [`Self::PsDtfe`]).
    VelocityDivergence,
    /// Aragon-Calvo-style smoothed stochastic reconstruction: the mean of
    /// `realizations` jittered DTFE realizations, rescaled to conserve
    /// mass exactly.
    Stochastic {
        /// Number of jittered realizations averaged (`k ≥ 1`).
        realizations: u16,
    },
}

impl EstimatorKind {
    /// Default realization count for [`EstimatorKind::Stochastic`] when a
    /// request leaves it unspecified (`0`).
    pub const DEFAULT_REALIZATIONS: u16 = 4;

    /// Stable lowercase tag (span arguments, bench/loadgen reports).
    pub fn label(&self) -> &'static str {
        match self {
            EstimatorKind::Dtfe => "dtfe",
            EstimatorKind::PsDtfe => "psdtfe",
            EstimatorKind::VelocityDivergence => "veldiv",
            EstimatorKind::Stochastic { .. } => "stochastic",
        }
    }

    /// Parse a label as produced by [`EstimatorKind::label`];
    /// `"stochastic:K"` selects the realization count, bare
    /// `"stochastic"` uses [`Self::DEFAULT_REALIZATIONS`].
    pub fn parse_label(s: &str) -> Option<EstimatorKind> {
        match s {
            "dtfe" => Some(EstimatorKind::Dtfe),
            "psdtfe" => Some(EstimatorKind::PsDtfe),
            "veldiv" => Some(EstimatorKind::VelocityDivergence),
            "stochastic" => Some(EstimatorKind::Stochastic {
                realizations: Self::DEFAULT_REALIZATIONS,
            }),
            _ => {
                let k = s.strip_prefix("stochastic:")?.parse::<u16>().ok()?;
                Some(EstimatorKind::Stochastic { realizations: k })
            }
        }
    }

    /// The canonical form a request is served under: an unspecified
    /// stochastic realization count (`0`) takes
    /// [`Self::DEFAULT_REALIZATIONS`].
    pub fn normalized(self) -> EstimatorKind {
        match self {
            EstimatorKind::Stochastic { realizations: 0 } => EstimatorKind::Stochastic {
                realizations: Self::DEFAULT_REALIZATIONS,
            },
            k => k,
        }
    }

    /// What filling this estimator's table over an existing mesh costs, in
    /// units of one triangulation of that mesh, for admission pricing: the
    /// DTFE table is one pass over the slots, PS-DTFE adds three gradient
    /// solves per tetrahedron, a stochastic table triangulates `k` jittered
    /// realizations.
    pub fn table_cost_factor(&self) -> f64 {
        match self {
            EstimatorKind::Dtfe => 0.0,
            EstimatorKind::PsDtfe | EstimatorKind::VelocityDivergence => 0.5,
            EstimatorKind::Stochastic { realizations } => *realizations as f64,
        }
    }

    /// Wire encoding: `(tag, parameter)`. The parameter carries the
    /// stochastic realization count and is zero otherwise.
    pub fn wire_code(&self) -> (u8, u16) {
        match self {
            EstimatorKind::Dtfe => (1, 0),
            EstimatorKind::PsDtfe => (2, 0),
            EstimatorKind::VelocityDivergence => (3, 0),
            EstimatorKind::Stochastic { realizations } => (4, *realizations),
        }
    }

    /// Decode [`EstimatorKind::wire_code`]; `None` on an unknown tag.
    pub fn from_wire_code(tag: u8, param: u16) -> Option<EstimatorKind> {
        match tag {
            1 => Some(EstimatorKind::Dtfe),
            2 => Some(EstimatorKind::PsDtfe),
            3 => Some(EstimatorKind::VelocityDivergence),
            4 => Some(EstimatorKind::Stochastic {
                realizations: param,
            }),
            _ => None,
        }
    }
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimatorKind::Stochastic { realizations } => write!(f, "stochastic:{realizations}"),
            k => f.write_str(k.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for k in [
            EstimatorKind::Dtfe,
            EstimatorKind::PsDtfe,
            EstimatorKind::VelocityDivergence,
            EstimatorKind::Stochastic { realizations: 4 },
            EstimatorKind::Stochastic { realizations: 7 },
        ] {
            assert_eq!(EstimatorKind::parse_label(&k.to_string()), Some(k));
        }
        assert_eq!(
            EstimatorKind::parse_label("stochastic"),
            Some(EstimatorKind::Stochastic {
                realizations: EstimatorKind::DEFAULT_REALIZATIONS
            })
        );
        assert_eq!(EstimatorKind::parse_label("nope"), None);
        assert_eq!(EstimatorKind::parse_label("stochastic:x"), None);
    }

    #[test]
    fn wire_codes_roundtrip() {
        for k in [
            EstimatorKind::Dtfe,
            EstimatorKind::PsDtfe,
            EstimatorKind::VelocityDivergence,
            EstimatorKind::Stochastic { realizations: 3 },
        ] {
            let (tag, param) = k.wire_code();
            assert_eq!(EstimatorKind::from_wire_code(tag, param), Some(k));
        }
        assert_eq!(EstimatorKind::from_wire_code(0, 0), None);
        assert_eq!(EstimatorKind::from_wire_code(9, 0), None);
    }

    #[test]
    fn cost_factors_scale_with_work() {
        assert_eq!(EstimatorKind::Dtfe.table_cost_factor(), 0.0);
        assert!(EstimatorKind::PsDtfe.table_cost_factor() > 0.0);
        assert_eq!(
            EstimatorKind::PsDtfe.table_cost_factor(),
            EstimatorKind::VelocityDivergence.table_cost_factor()
        );
        let k2 = EstimatorKind::Stochastic { realizations: 2 }.table_cost_factor();
        let k8 = EstimatorKind::Stochastic { realizations: 8 }.table_cost_factor();
        assert!(k8 > k2 && k2 > 1.0);
    }
}
