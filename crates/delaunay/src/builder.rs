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
        let order: Vec<u32> = if self.no_spatial_sort {
            (0..points.len() as u32).collect()
        } else {
            morton::brio_order(points)
        };
        let d = crate::build_serial(points, &order)?;
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
            dtfe_telemetry::counter_add!("delaunay.walk_steps", d.work.walk_steps);
            dtfe_telemetry::counter_add!("delaunay.conflict_tets", d.work.conflict_tets);
            dtfe_telemetry::counter_add!("delaunay.cavity_facets", d.work.cavity_facets);
        }
        drop(span);
        Ok(d)
    }
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
