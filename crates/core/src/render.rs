//! Options shared by every surface-density renderer.
//!
//! The marching kernel ([`crate::marching::MarchOptions`]) and the walking
//! 3D-grid baseline ([`crate::walking::WalkOptions`]) historically duplicated
//! the same builder boilerplate — per-cell sample count, line-of-sight
//! integration bounds, the parallel switch, and now the estimator selector.
//! [`RenderOptions`] is the single shared home for them; the kernel-specific
//! option structs embed it as their `render` field, `Deref` to it for reads,
//! and generate the forwarding builder setters with
//! [`forward_render_options!`] so call sites read the same either way and new
//! shared knobs are added in exactly one place.

use crate::estimator::EstimatorKind;

/// Knobs common to every line-of-sight surface-density renderer.
///
/// # Example
///
/// ```
/// use dtfe_core::RenderOptions;
///
/// let opts = RenderOptions::new().samples(4).z_range(0.0, 10.0).parallel(false);
/// assert_eq!(opts.samples, 4);
/// assert_eq!(opts.z_range, Some((0.0, 10.0)));
/// assert!(!opts.parallel);
///
/// // Defaults: one centre sample, full hull depth, parallel on, auto tile,
/// // canonical DTFE estimator.
/// let d = RenderOptions::default();
/// assert_eq!((d.samples, d.z_range, d.parallel, d.tile), (1, None, true, 0));
/// assert_eq!(d.estimator, dtfe_core::EstimatorKind::Dtfe);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RenderOptions {
    /// Line-of-sight samples per cell: 1 uses the cell centre; more uses
    /// deterministic jittered samples and averages (the Monte-Carlo mean of
    /// Eq. 5).
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
    /// Parallelize over grid rows/columns with Rayon (the paper's OpenMP
    /// loop).
    pub parallel: bool,
    /// Square tile edge (in cells) for the marching kernel's parallel
    /// scheduler: workers render 2D tiles instead of whole rows, so
    /// consecutive cells reuse mesh locality in both directions. `0` picks
    /// a default. The rendered field is bit-identical for every tile size.
    pub tile: usize,
    /// Which estimator backend a request-driven renderer should integrate.
    /// The in-process render entry points are generic over
    /// [`crate::FieldEstimator`] and ignore this; the serving layer uses it
    /// to pick the backend, key its tile cache, and price admission.
    pub estimator: EstimatorKind,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            samples: 1,
            z_range: None,
            parallel: true,
            tile: 0,
            estimator: EstimatorKind::Dtfe,
        }
    }
}

impl RenderOptions {
    /// Default options: one centre sample, full depth, parallel on, DTFE.
    pub fn new() -> RenderOptions {
        RenderOptions::default()
    }

    /// Sample points per cell (clamped to at least 1).
    pub fn samples(mut self, n: usize) -> RenderOptions {
        self.samples = n.max(1);
        self
    }

    /// Integrate only over `z ∈ [lo, hi]`.
    pub fn z_range(mut self, lo: f64, hi: f64) -> RenderOptions {
        self.z_range = Some((lo, hi));
        self
    }

    /// Switch row/column parallelism on or off.
    pub fn parallel(mut self, yes: bool) -> RenderOptions {
        self.parallel = yes;
        self
    }

    /// Tile edge for the parallel marching scheduler (`0` = auto).
    pub fn tile(mut self, n: usize) -> RenderOptions {
        self.tile = n;
        self
    }

    /// Select the estimator backend for request-driven rendering.
    pub fn estimator(mut self, kind: EstimatorKind) -> RenderOptions {
        self.estimator = kind;
        self
    }

    /// Check the options for values the kernels would silently turn into
    /// garbage (NaN integration bounds, inverted z-windows, a zero sample
    /// count, a zero-realization stochastic estimator). The builder setters
    /// cannot construct most of these, but options deserialized from a wire
    /// request can — the serving layer calls this before admitting a
    /// request.
    pub fn validate(&self) -> Result<(), RenderOptionsError> {
        if self.samples == 0 {
            return Err(RenderOptionsError::ZeroSamples);
        }
        if let Some((lo, hi)) = self.z_range {
            if !lo.is_finite() || !hi.is_finite() {
                return Err(RenderOptionsError::NonFiniteZRange);
            }
            if hi <= lo {
                return Err(RenderOptionsError::InvertedZRange);
            }
        }
        if let EstimatorKind::Stochastic { realizations: 0 } = self.estimator {
            return Err(RenderOptionsError::ZeroRealizations);
        }
        Ok(())
    }
}

/// Typed rejection of malformed [`RenderOptions`] (see
/// [`RenderOptions::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RenderOptionsError {
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

impl std::fmt::Display for RenderOptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenderOptionsError::ZeroSamples => write!(f, "samples per cell must be at least 1"),
            RenderOptionsError::NonFiniteZRange => {
                write!(f, "z-range has a non-finite bound")
            }
            RenderOptionsError::InvertedZRange => {
                write!(f, "z-range is inverted or empty (hi <= lo)")
            }
            RenderOptionsError::ZeroRealizations => {
                write!(f, "stochastic estimator needs at least 1 realization")
            }
        }
    }
}

impl std::error::Error for RenderOptionsError {}

/// Generate the shared [`RenderOptions`] plumbing for a kernel-specific
/// option struct that embeds one as its `render` field: `Deref`/`DerefMut`
/// to the embedded options (so `opts.samples`, `opts.z_range`, … read
/// directly) plus the by-value forwarding builder setters. Kernel-specific
/// knobs (`epsilon`, `nz`, …) stay as inherent methods on the struct.
#[macro_export]
macro_rules! forward_render_options {
    ($opts:ty) => {
        impl std::ops::Deref for $opts {
            type Target = $crate::RenderOptions;
            fn deref(&self) -> &$crate::RenderOptions {
                &self.render
            }
        }

        impl std::ops::DerefMut for $opts {
            fn deref_mut(&mut self) -> &mut $crate::RenderOptions {
                &mut self.render
            }
        }

        impl $opts {
            /// Sample points per cell (clamped to at least 1); forwards to
            /// `RenderOptions::samples`.
            pub fn samples(mut self, n: usize) -> Self {
                self.render = self.render.samples(n);
                self
            }

            /// Integrate only over `z ∈ [lo, hi]`; forwards to
            /// `RenderOptions::z_range`.
            pub fn z_range(mut self, lo: f64, hi: f64) -> Self {
                self.render = self.render.z_range(lo, hi);
                self
            }

            /// Switch parallelism on or off; forwards to
            /// `RenderOptions::parallel`.
            pub fn parallel(mut self, yes: bool) -> Self {
                self.render = self.render.parallel(yes);
                self
            }

            /// Tile edge for the parallel scheduler (`0` = auto); forwards
            /// to `RenderOptions::tile`.
            pub fn tile(mut self, n: usize) -> Self {
                self.render = self.render.tile(n);
                self
            }

            /// Select the estimator backend; forwards to
            /// `RenderOptions::estimator`.
            pub fn estimator(mut self, kind: $crate::EstimatorKind) -> Self {
                self.render = self.render.estimator(kind);
                self
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_builder_output() {
        assert_eq!(RenderOptions::new().validate(), Ok(()));
        assert_eq!(
            RenderOptions::new()
                .samples(4)
                .z_range(-1.0, 1.0)
                .validate(),
            Ok(())
        );
        assert_eq!(
            RenderOptions::new()
                .estimator(EstimatorKind::Stochastic { realizations: 3 })
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_wire_shaped_garbage() {
        let mut o = RenderOptions::new();
        o.samples = 0;
        assert_eq!(o.validate(), Err(RenderOptionsError::ZeroSamples));
        let o = RenderOptions::new().z_range(f64::NAN, 1.0);
        assert_eq!(o.validate(), Err(RenderOptionsError::NonFiniteZRange));
        let o = RenderOptions::new().z_range(0.0, f64::INFINITY);
        assert_eq!(o.validate(), Err(RenderOptionsError::NonFiniteZRange));
        let o = RenderOptions::new().z_range(2.0, 2.0);
        assert_eq!(o.validate(), Err(RenderOptionsError::InvertedZRange));
        let o = RenderOptions::new().z_range(3.0, 1.0);
        assert_eq!(o.validate(), Err(RenderOptionsError::InvertedZRange));
        let o = RenderOptions::new().estimator(EstimatorKind::Stochastic { realizations: 0 });
        assert_eq!(o.validate(), Err(RenderOptionsError::ZeroRealizations));
    }
}
