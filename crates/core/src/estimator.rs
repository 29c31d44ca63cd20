//! The pluggable estimator seam: one trait from the mesh to the renderers.
//!
//! The paper's pipeline — Delaunay mesh → per-simplex linear interpolant →
//! exact line-of-sight integration (Eq. 12) — is generic over *what* is
//! interpolated. [`FieldEstimator`] captures exactly what the marching
//! kernel consumes: the triangulation, the pre-normalized traversal cache,
//! and a per-tetrahedron linear interpolant. Every renderer in
//! [`crate::marching`] is generic over this trait, so density
//! ([`crate::density::DtfeField`]), arbitrary vertex-sampled scalars
//! ([`crate::fields::ScalarField`]), phase-space estimates
//! ([`crate::psdtfe::PsDtfeField`]), and smoothed stochastic
//! reconstructions ([`crate::stochastic::StochasticField`]) all render
//! through one code path — and `DtfeField` renders **bit-identically** to
//! the pre-trait kernel, because the trait methods are the same accessors
//! the kernel called before (the conformance suite asserts this against
//! [`crate::marching::surface_density_reference`]).

use crate::density::{EntryFacet, TetInterp};
use crate::marching::MarchCache;
use dtfe_delaunay::{Delaunay, TetId};
use dtfe_geometry::tetra::linear_gradient;
use dtfe_geometry::Vec3;

/// An integrable piecewise-linear field over a Delaunay mesh: everything
/// the marching renderers need, nothing more.
///
/// # Contract
///
/// * `tet_interp(t)` must be valid for every *finite live* tetrahedron slot
///   of `delaunay()` (ghost/freed slots are never read by the kernel).
/// * `march_cache()` must be built from the same triangulation
///   `delaunay()` returns (use [`MarchCache::build`] lazily via
///   `OnceLock`, as every in-tree backend does).
/// * `entry_facets()` must list the downward hull facets of that same
///   triangulation; the default implementation derives them from
///   `delaunay()` and is correct for every backend.
///
/// Backends sharing one triangulation (e.g. a density field and its
/// velocity-divergence view) may share the mesh, cache, and hull index;
/// only `tet_interp` differs.
pub trait FieldEstimator: Sync {
    /// The triangulation the field is defined over.
    fn delaunay(&self) -> &Delaunay;

    /// The marching kernel's pre-normalized tetrahedron cache (lazily
    /// built, shared across renders).
    fn march_cache(&self) -> &MarchCache;

    /// The linear interpolant of finite tetrahedron `t`
    /// (`f(x) = rho0 + grad · (x − v0)`, Eq. 1).
    fn tet_interp(&self, t: TetId) -> &TetInterp;

    /// Downward-facing hull facets projected to 2D (Eq. 14) — the entry
    /// candidates for vertical lines of sight.
    fn entry_facets(&self) -> Vec<EntryFacet> {
        entry_facets_of(self.delaunay())
    }

    /// Evaluate the interpolant inside tetrahedron `t` (no containment
    /// check).
    #[inline]
    fn value_in_tet(&self, t: TetId, p: Vec3) -> f64 {
        let ti = self.tet_interp(t);
        ti.rho0 + ti.grad.dot(p - ti.v0)
    }
}

/// The downward hull facets (`n_hull · ẑ < 0`, Eq. 14) of a triangulation,
/// projected into the x-y plane. Shared by every backend's
/// [`FieldEstimator::entry_facets`].
pub fn entry_facets_of(del: &Delaunay) -> Vec<EntryFacet> {
    let mut out = Vec::new();
    for g in del.ghost_tets() {
        let [a, b, c] = del.hull_facet(g);
        let (pa, pb, pc) = (del.vertex(a), del.vertex(b), del.vertex(c));
        let n = (pb - pa).cross(pc - pa);
        if n.z < 0.0 {
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

/// What to do when a tetrahedron is too flat for a well-defined gradient
/// (the edge matrix of Eq. 1 is singular).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegeneratePolicy {
    /// Return a typed [`DegenerateTetError`] naming the offending slot.
    /// Velocity-derived backends use this: a silently zeroed gradient
    /// would corrupt PS-DTFE divergence output.
    Error,
    /// Use a zero gradient (the field is constant over the sliver). This
    /// is the documented DTFE density policy: a degenerate tetrahedron has
    /// (near-)zero volume, so its contribution to any line-of-sight
    /// integral is negligible either way. Occurrences are counted on the
    /// `core.degenerate_tet_zero_grad` telemetry counter.
    ZeroGradient,
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

/// Per-slot interpolant table for a vertex-sampled field: `values[v]` at
/// each vertex, constant gradient per tetrahedron. Ghost/freed slots hold
/// inert zeros. Degenerate tetrahedra follow `policy`.
pub(crate) fn vertex_interp(
    del: &Delaunay,
    values: &[f64],
    policy: DegeneratePolicy,
) -> Result<Vec<TetInterp>, DegenerateTetError> {
    let mut out = Vec::with_capacity(del.num_slots());
    let mut zeroed = 0u64;
    for t in 0..del.num_slots() as u32 {
        let tet = del.tet_slot(t);
        if !tet.is_live() || tet.is_ghost() {
            out.push(TetInterp {
                v0: Vec3::ZERO,
                rho0: 0.0,
                grad: Vec3::ZERO,
            });
            continue;
        }
        let v = [
            del.vertex(tet.verts[0]),
            del.vertex(tet.verts[1]),
            del.vertex(tet.verts[2]),
            del.vertex(tet.verts[3]),
        ];
        let f = [
            values[tet.verts[0] as usize],
            values[tet.verts[1] as usize],
            values[tet.verts[2] as usize],
            values[tet.verts[3] as usize],
        ];
        let grad = match (linear_gradient(&v, &f), policy) {
            (Some(g), _) => g,
            (None, DegeneratePolicy::Error) => return Err(DegenerateTetError { tet: t }),
            (None, DegeneratePolicy::ZeroGradient) => {
                zeroed += 1;
                Vec3::ZERO
            }
        };
        out.push(TetInterp {
            v0: v[0],
            rho0: f[0],
            grad,
        });
    }
    if zeroed > 0 {
        dtfe_telemetry::counter_add!("core.degenerate_tet_zero_grad", zeroed);
    }
    Ok(out)
}

/// Which estimator a render should integrate — the request-level selector
/// surfaced in [`crate::render::RenderOptions`] and threaded through the
/// serving layer's cache keys, admission pricing, and wire protocol.
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

    /// Stable lowercase tag (cache-key display, bench/loadgen reports).
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

    /// The canonical form every tile key is built from: an unspecified
    /// stochastic realization count (`0`) takes
    /// [`Self::DEFAULT_REALIZATIONS`]. Server and ring-aware client both
    /// hash this form, so they cannot disagree about a request's owner.
    pub fn normalized(self) -> EstimatorKind {
        match self {
            EstimatorKind::Stochastic { realizations: 0 } => EstimatorKind::Stochastic {
                realizations: Self::DEFAULT_REALIZATIONS,
            },
            k => k,
        }
    }

    /// The estimator whose *built artifact* serves this kind: a
    /// velocity-divergence render is a view over the PS-DTFE tile, so both
    /// share one cache entry.
    pub fn tile_kind(self) -> EstimatorKind {
        match self {
            EstimatorKind::VelocityDivergence => EstimatorKind::PsDtfe,
            k => k,
        }
    }

    /// Build-cost multiplier relative to a plain DTFE tile build, for
    /// admission pricing: PS-DTFE adds three gradient solves per
    /// tetrahedron; a stochastic build triangulates `k` extra realizations.
    pub fn build_cost_factor(&self) -> f64 {
        match self {
            EstimatorKind::Dtfe => 1.0,
            EstimatorKind::PsDtfe | EstimatorKind::VelocityDivergence => 1.5,
            EstimatorKind::Stochastic { realizations } => 1.0 + *realizations as f64,
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
    fn divergence_shares_the_psdtfe_tile() {
        assert_eq!(
            EstimatorKind::VelocityDivergence.tile_kind(),
            EstimatorKind::PsDtfe
        );
        let k = EstimatorKind::Stochastic { realizations: 2 };
        assert_eq!(k.tile_kind(), k);
        assert_eq!(EstimatorKind::Dtfe.tile_kind(), EstimatorKind::Dtfe);
    }

    #[test]
    fn cost_factors_scale_with_work() {
        assert_eq!(EstimatorKind::Dtfe.build_cost_factor(), 1.0);
        assert!(EstimatorKind::PsDtfe.build_cost_factor() > 1.0);
        let k2 = EstimatorKind::Stochastic { realizations: 2 }.build_cost_factor();
        let k8 = EstimatorKind::Stochastic { realizations: 8 }.build_cost_factor();
        assert!(k8 > k2 && k2 > 1.0);
    }
}
