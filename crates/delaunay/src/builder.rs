//! The [`DelaunayBuilder`] construction API.

use crate::{morton, Delaunay, DelaunayError, ValidationError};
use dtfe_geometry::Vec3;

/// Alias for the triangulation the builder produces.
pub type Triangulation = Delaunay;

/// Typed construction failure: every failure mode — including non-finite
/// coordinates — surfaces as a `Result`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// Fewer than four affinely independent points: no 3D triangulation
    /// exists (empty input, all points coincident, collinear, or coplanar).
    Degenerate,
    /// An input coordinate is NaN or infinite.
    NonFinite {
        /// Index of the first offending input point.
        index: usize,
    },
    /// The input's scale is outside the range the exact predicates and the
    /// DTFE interpolant are computed in: a coordinate's magnitude exceeds
    /// `2^k`, or the bounding box's largest side is positive but below
    /// `2^-k`, with `k` = [`DelaunayBuilder::RANGE_EXP`].
    OutOfRange {
        /// Index of the first point whose coordinate is too large; `0` when
        /// the cloud is too small (every point is then at fault).
        index: usize,
    },
    /// Locating input point `index` during insertion overran the walk's
    /// step bound ([`crate::Located::Lost`]): the partial triangulation's
    /// adjacency is corrupt. This indicates a library bug, not bad input;
    /// please report it.
    Lost {
        /// Index of the input point being inserted.
        index: usize,
    },
    /// Post-build structural validation failed (only with
    /// [`DelaunayBuilder::validate`]). This indicates a library bug, not bad
    /// input; please report it.
    Validation(ValidationError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Degenerate => {
                write!(
                    f,
                    "input points are affinely degenerate (need 4 non-coplanar points)"
                )
            }
            BuildError::NonFinite { index } => {
                write!(f, "input point {index} has a non-finite coordinate")
            }
            BuildError::OutOfRange { index } => write!(
                f,
                "input point {index} is out of range: coordinates must be at most 2^{} in \
                 magnitude and the cloud must span at least 2^-{}",
                DelaunayBuilder::RANGE_EXP,
                DelaunayBuilder::RANGE_EXP
            ),
            BuildError::Lost { index } => {
                write!(f, "locating input point {index} did not terminate")
            }
            BuildError::Validation(e) => write!(f, "triangulation failed validation: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Validation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DelaunayError> for BuildError {
    fn from(e: DelaunayError) -> BuildError {
        match e {
            DelaunayError::Degenerate => BuildError::Degenerate,
            DelaunayError::Lost { index } => BuildError::Lost { index },
        }
    }
}

/// Builder for [`Delaunay`] triangulations — the single public construction
/// entry point.
///
/// Defaults: canonical BRIO insertion order on, no post-build validation.
/// Construction is serial; callers parallelise across triangulations (tiles,
/// work items), never inside one.
///
/// # Example
///
/// ```
/// use dtfe_delaunay::DelaunayBuilder;
/// use dtfe_geometry::Vec3;
///
/// let pts: Vec<Vec3> = (0..200)
///     .map(|i| {
///         let f = 1.0 + i as f64;
///         Vec3::new(
///             (f * 0.618_033_988_749_894_9).fract(),
///             (f * 0.414_213_562_373_095_1).fract(),
///             (f * 0.259_921_049_894_873_2).fract(),
///         )
///     })
///     .collect();
/// let tri = DelaunayBuilder::new()
///     .spatial_sort(true)
///     .validate(true)
///     .build(&pts)
///     .unwrap();
/// assert_eq!(tri.num_vertices(), 200);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DelaunayBuilder {
    no_spatial_sort: bool,
    validate: bool,
}

impl DelaunayBuilder {
    /// The exponent `k` of the accepted scale range `[2^-k, 2^k]`.
    ///
    /// `insphere` is a degree-5 polynomial in coordinate differences: for
    /// coordinates up to `2^k` its terms reach about `2^(5k+12)`, which must
    /// stay below `f64::MAX ≈ 2^1024`, and for a cloud spanning `2^-k` they
    /// fall to about `2^-5k`, which must stay above the smallest normal
    /// `2^-1022` for the filters' error bounds to hold — so `k ≤ 200`. The
    /// DTFE gradient scales as `m / L⁴` and squares the range once more in
    /// `linear_gradient`'s cofactors. `k = 190` keeps ten doublings of
    /// headroom on both sides: renders at `1e±50` (`2^±166`) match scale 1,
    /// while at `1e±70` (`2^±232`) the rendered mass is already wrong.
    pub const RANGE_EXP: i32 = 190;

    /// A builder with default settings.
    pub fn new() -> DelaunayBuilder {
        DelaunayBuilder::default()
    }

    /// Insert in the canonical BRIO order (`true`, default) or input order
    /// (`false`: what tests hold the canonical order against).
    pub fn spatial_sort(mut self, yes: bool) -> DelaunayBuilder {
        self.no_spatial_sort = !yes;
        self
    }

    /// Run the full structural + local-Delaunay validation after
    /// construction, surfacing any violation as [`BuildError::Validation`].
    pub fn validate(mut self, yes: bool) -> DelaunayBuilder {
        self.validate = yes;
        self
    }

    /// Triangulate `points`. Duplicates merge ([`Delaunay::vertex_of_input`]
    /// maps input indices to vertex ids); degenerate or non-finite input
    /// returns a typed [`BuildError`] instead of panicking.
    pub fn build(&self, points: &[Vec3]) -> Result<Triangulation, BuildError> {
        let span = dtfe_telemetry::span!("delaunay.build", n = points.len());
        if let Some(index) = points.iter().position(|p| !p.is_finite()) {
            return Err(BuildError::NonFinite { index });
        }
        check_range(points)?;
        let order: Vec<u32> = if self.no_spatial_sort {
            (0..points.len() as u32).collect()
        } else {
            morton::brio_order(points)
        };
        let built = crate::build_serial(points, &order)?;
        let work = built.work;
        let d = built.finish();
        if self.validate {
            d.validate().map_err(BuildError::Validation)?;
        }
        if dtfe_telemetry::is_enabled() {
            // Every input either became a vertex or hit `Located::Vertex`.
            let merged = points.len() - d.num_vertices();
            dtfe_telemetry::counter_add!("delaunay.points_inserted", d.num_vertices() as u64);
            dtfe_telemetry::counter_add!("delaunay.duplicates_merged", merged as u64);
            dtfe_telemetry::counter_add!("delaunay.serial_builds", 1);
            // The cost model's primitives, summed in plain integers by the
            // insertion loop and published here, once.
            dtfe_telemetry::counter_add!("delaunay.walk_steps", work.walk_steps);
            dtfe_telemetry::counter_add!("delaunay.conflict_tets", work.conflict_tets);
            dtfe_telemetry::counter_add!("delaunay.cavity_facets", work.cavity_facets);
        }
        drop(span);
        Ok(d)
    }
}

/// [`BuildError::OutOfRange`] unless every `|coordinate| ≤ 2^k` and the
/// bounding box's largest side is zero (all points coincide: `Degenerate`,
/// decided by the build) or at least `2^-k`, `k` =
/// [`DelaunayBuilder::RANGE_EXP`].
fn check_range(points: &[Vec3]) -> Result<(), BuildError> {
    let k = DelaunayBuilder::RANGE_EXP;
    let max = 2f64.powi(k);
    let too_big = |p: &Vec3| p.x.abs() > max || p.y.abs() > max || p.z.abs() > max;
    if let Some(index) = points.iter().position(too_big) {
        return Err(BuildError::OutOfRange { index });
    }
    let Some(&first) = points.first() else {
        return Ok(());
    };
    let (lo, hi) = points.iter().fold((first, first), |(lo, hi), &p| {
        (
            Vec3::new(lo.x.min(p.x), lo.y.min(p.y), lo.z.min(p.z)),
            Vec3::new(hi.x.max(p.x), hi.y.max(p.y), hi.z.max(p.z)),
        )
    });
    let side = (hi.x - lo.x).max(hi.y - lo.y).max(hi.z - lo.z);
    if side > 0.0 && side < 2f64.powi(-k) {
        return Err(BuildError::OutOfRange { index: 0 });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_duplicates_are_counted() {
        let mut s = 0x5EED_u64;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts: Vec<Vec3> = (0..400).map(|_| Vec3::new(r(), r(), r())).collect();
        let dups: Vec<Vec3> = pts.iter().step_by(9).copied().collect();
        pts.extend_from_slice(&dups);
        pts.push(pts[0]);

        let rec = dtfe_telemetry::Recorder::new("dups");
        let guard = rec.install();
        let d = DelaunayBuilder::new().build(&pts).unwrap();
        drop(guard);
        assert_eq!(d.num_vertices(), 400);
        let m = rec.snapshot().metrics;
        assert_eq!(
            m.counter("delaunay.duplicates_merged"),
            dups.len() as u64 + 1
        );
        assert_eq!(m.counter("delaunay.points_inserted"), 400);
        assert_eq!(m.counter("delaunay.serial_builds"), 1);
    }
}
