//! The [`DelaunayBuilder`] construction API.

use crate::{morton, parallel, Delaunay, DelaunayError, ValidationError};
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

/// In auto mode (no explicit [`DelaunayBuilder::threads`] call), inputs
/// below this size build serially: round-synchronization overhead beats the
/// parallel win on small meshes.
const AUTO_PARALLEL_MIN: usize = 4096;

/// Builder for [`Delaunay`] triangulations — the single public construction
/// entry point.
///
/// Defaults: Morton (BRIO) spatial sort on, thread count chosen
/// automatically (serial for small inputs, the global Rayon pool otherwise),
/// no post-build validation.
///
/// The parallel and serial paths produce the *same* triangulation (identical
/// as an abstract simplicial complex, for every thread count); see
/// `parallel.rs` for why.
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
///     .threads(2)
///     .spatial_sort(true)
///     .validate(true)
///     .build(&pts)
///     .unwrap();
/// assert_eq!(tri.num_vertices(), 200);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DelaunayBuilder {
    threads: Option<usize>,
    no_spatial_sort: bool,
    validate: bool,
}

impl DelaunayBuilder {
    /// A builder with default settings.
    pub fn new() -> DelaunayBuilder {
        DelaunayBuilder::default()
    }

    /// Use exactly `n` worker threads: `1` forces the serial path, `n > 1`
    /// runs the parallel path in a dedicated pool of `n` threads. Without
    /// this call the builder decides automatically: serial below ~4k points
    /// or when the ambient Rayon pool has a single worker, the global pool
    /// otherwise.
    pub fn threads(mut self, n: usize) -> DelaunayBuilder {
        self.threads = Some(n.max(1));
        self
    }

    /// Insert in Morton (BRIO) order (`true`, default) or input order
    /// (`false`, mainly for the ablation bench).
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
            morton::stratified_order(points)
        };
        // Round accounting from the parallel path, published below from the
        // *caller's* thread (the round driver runs on a Rayon worker, which
        // a thread-locally installed recorder would not cover).
        let mut rounds = parallel::RoundStats::default();
        let d = match self.threads {
            Some(1) => crate::build_serial(points, &order)?,
            Some(n) => match rayon::ThreadPoolBuilder::new().num_threads(n).build() {
                Ok(pool) => pool.install(|| parallel::triangulate(points, &order, &mut rounds))?,
                // Pool creation can only fail in exotic environments; the
                // global pool still yields the identical mesh.
                Err(_) => parallel::triangulate(points, &order, &mut rounds)?,
            },
            // Auto mode: small inputs and single-worker pools gain nothing
            // from round synchronization — build serially (the mesh is
            // identical either way).
            None if points.len() < AUTO_PARALLEL_MIN || rayon::current_num_threads() < 2 => {
                crate::build_serial(points, &order)?
            }
            None => parallel::triangulate(points, &order, &mut rounds)?,
        };
        if self.validate {
            d.validate().map_err(BuildError::Validation)?;
        }
        dtfe_telemetry::counter_add!("delaunay.points_inserted", d.num_vertices() as u64);
        if rounds.rounds > 0 {
            dtfe_telemetry::counter_add!("delaunay.rounds", rounds.rounds);
            dtfe_telemetry::counter_add!("delaunay.round_inserted", rounds.inserted);
            dtfe_telemetry::counter_add!("delaunay.duplicates_merged", rounds.duplicates);
            dtfe_telemetry::counter_add!("delaunay.cache_hits", rounds.cache_hits);
            dtfe_telemetry::counter_add!("delaunay.scans", rounds.scans);
            dtfe_telemetry::counter_add!("delaunay.deferred", rounds.deferred);
            if dtfe_telemetry::is_enabled() {
                for &k in &rounds.per_round {
                    dtfe_telemetry::hist_record!("delaunay.points_per_round", k);
                }
            }
        } else {
            dtfe_telemetry::counter_add!("delaunay.serial_builds", 1);
        }
        drop(span);
        Ok(d)
    }
}
