//! The options of a surface-density render.
//!
//! [`MarchOptions`] holds the inputs of the paper's kernel that a caller
//! chooses: the samples per cell (Eq. 5), the z-window of the Eq. 12
//! integral, the parallel switch, and the estimator a request names. The
//! marching kernel, its reference and the walking baseline all read it.
//! There is no degeneracy knob (the march decides every edge side
//! exactly), and the walking baseline takes its grid depth as an
//! argument.

use crate::estimator::EstimatorKind;

/// The options of a render, with builder setters.
///
/// # Example
///
/// ```
/// use dtfe_core::MarchOptions;
///
/// let opts = MarchOptions::new().samples(4).z_range(0.0, 10.0).parallel(false);
/// assert_eq!(opts.samples, 4);
/// assert_eq!(opts.z_range, Some((0.0, 10.0)));
/// assert!(!opts.parallel);
///
/// // Defaults: one centre sample, full hull depth, parallel on, canonical
/// // DTFE estimator.
/// let d = MarchOptions::default();
/// assert_eq!((d.samples, d.z_range, d.parallel), (1, None, true));
/// assert_eq!(d.estimator, dtfe_core::EstimatorKind::Dtfe);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MarchOptions {
    /// The four knobs, read as `opts.samples`, `opts.z_range`, … through
    /// `Deref`. They sit one field down only because the `perf` harness's
    /// kernel workload (`perf/src/kernel.rs`) reads `samples` through this
    /// field.
    pub render: MarchKnobs,
}

/// The fields of [`MarchOptions`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MarchKnobs {
    /// Line-of-sight samples per cell: 1 uses the cell centre; more uses
    /// deterministic jittered samples and averages (the Monte-Carlo mean of
    /// Eq. 5, with "one fewer degree of freedom in the error" since z is
    /// integrated exactly). The walking baseline counts samples per **3D**
    /// cell.
    pub samples: usize,
    /// Restrict the integral to `z ∈ [lo, hi]` (sub-volume fields). `None`
    /// uses the full extent: the marching kernel integrates the hull chord,
    /// the walking baseline lifts its 3D grid over the vertex z-extent.
    ///
    /// In the marching kernel a window makes the line of sight the segment
    /// `ξ × [lo, hi]`: the march enters at the tetrahedron strictly
    /// containing `(ξ, lo)` (through the hull projection when there is
    /// none — see [`crate::marching`]) and leaves at `hi`, so it examines
    /// only the tetrahedra the segment meets, and
    /// [`MarchStats::crossings`](crate::marching::MarchStats::crossings) counts
    /// those, not the whole hull chord.
    pub z_range: Option<(f64, f64)>,
    /// Parallelize with Rayon (the paper's OpenMP loop): the marching
    /// kernel over square tiles of cells, the walking baseline over rows.
    /// The rendered field is bit-identical either way.
    pub parallel: bool,
    /// Which estimator backend a request-driven renderer should integrate.
    /// The in-process render entry points are generic over
    /// [`crate::FieldEstimator`] and ignore this; the serving layer uses it
    /// to pick the backend, key its tile cache, and price admission.
    pub estimator: EstimatorKind,
}

impl Default for MarchKnobs {
    fn default() -> Self {
        MarchKnobs {
            samples: 1,
            z_range: None,
            parallel: true,
            estimator: EstimatorKind::Dtfe,
        }
    }
}

impl std::ops::Deref for MarchOptions {
    type Target = MarchKnobs;
    fn deref(&self) -> &MarchKnobs {
        &self.render
    }
}

impl MarchOptions {
    /// Default options: one centre sample, full depth, parallel on, DTFE.
    pub fn new() -> MarchOptions {
        MarchOptions::default()
    }

    /// Sample points per cell (clamped to at least 1).
    pub fn samples(mut self, n: usize) -> MarchOptions {
        self.render.samples = n.max(1);
        self
    }

    /// Integrate only over `z ∈ [lo, hi]`.
    pub fn z_range(mut self, lo: f64, hi: f64) -> MarchOptions {
        self.render.z_range = Some((lo, hi));
        self
    }

    /// Switch row/column parallelism on or off.
    pub fn parallel(mut self, yes: bool) -> MarchOptions {
        self.render.parallel = yes;
        self
    }

    /// Select the estimator backend for request-driven rendering.
    pub fn estimator(mut self, kind: EstimatorKind) -> MarchOptions {
        self.render.estimator = kind;
        self
    }

    /// Check the options for values the kernels would silently turn into
    /// garbage (NaN integration bounds, inverted z-windows, a zero sample
    /// count, a zero-realization stochastic estimator). The builder setters
    /// cannot construct most of these, but options deserialized from a wire
    /// request can — the serving layer calls this before admitting a
    /// request.
    pub fn validate(&self) -> Result<(), MarchOptionsError> {
        if self.samples == 0 {
            return Err(MarchOptionsError::ZeroSamples);
        }
        if let Some((lo, hi)) = self.z_range {
            if !lo.is_finite() || !hi.is_finite() {
                return Err(MarchOptionsError::NonFiniteZRange);
            }
            if hi <= lo {
                return Err(MarchOptionsError::InvertedZRange);
            }
        }
        if let EstimatorKind::Stochastic { realizations: 0 } = self.estimator {
            return Err(MarchOptionsError::ZeroRealizations);
        }
        Ok(())
    }
}

/// Typed rejection of malformed [`MarchOptions`] (see
/// [`MarchOptions::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarchOptionsError {
    /// `samples == 0`: the Monte-Carlo mean over zero samples is undefined.
    ZeroSamples,
    /// A z-integration bound is NaN or infinite.
    NonFiniteZRange,
    /// `z_range.1 <= z_range.0`: the integration window is empty.
    InvertedZRange,
    /// A stochastic estimator with zero realizations: the mean over an
    /// empty ensemble is undefined.
    ZeroRealizations,
}

impl std::fmt::Display for MarchOptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarchOptionsError::ZeroSamples => write!(f, "samples per cell must be at least 1"),
            MarchOptionsError::NonFiniteZRange => {
                write!(f, "z-range has a non-finite bound")
            }
            MarchOptionsError::InvertedZRange => {
                write!(f, "z-range is inverted or empty (hi <= lo)")
            }
            MarchOptionsError::ZeroRealizations => {
                write!(f, "stochastic estimator needs at least 1 realization")
            }
        }
    }
}

impl std::error::Error for MarchOptionsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_builder_output() {
        assert_eq!(MarchOptions::new().validate(), Ok(()));
        assert_eq!(
            MarchOptions::new().samples(4).z_range(-1.0, 1.0).validate(),
            Ok(())
        );
        assert_eq!(
            MarchOptions::new()
                .estimator(EstimatorKind::Stochastic { realizations: 3 })
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_wire_shaped_garbage() {
        let mut o = MarchOptions::new();
        o.render.samples = 0;
        assert_eq!(o.validate(), Err(MarchOptionsError::ZeroSamples));
        let o = MarchOptions::new().z_range(f64::NAN, 1.0);
        assert_eq!(o.validate(), Err(MarchOptionsError::NonFiniteZRange));
        let o = MarchOptions::new().z_range(0.0, f64::INFINITY);
        assert_eq!(o.validate(), Err(MarchOptionsError::NonFiniteZRange));
        let o = MarchOptions::new().z_range(2.0, 2.0);
        assert_eq!(o.validate(), Err(MarchOptionsError::InvertedZRange));
        let o = MarchOptions::new().z_range(3.0, 1.0);
        assert_eq!(o.validate(), Err(MarchOptionsError::InvertedZRange));
        let o = MarchOptions::new().estimator(EstimatorKind::Stochastic { realizations: 0 });
        assert_eq!(o.validate(), Err(MarchOptionsError::ZeroRealizations));
    }
}
