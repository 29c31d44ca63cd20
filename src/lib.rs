//! Umbrella crate for the DTFE surface-density reproduction.
//!
//! Re-exports every subsystem so the examples and integration tests can use a
//! single dependency. The actual implementations live in the `crates/*`
//! workspace members; see `DESIGN.md` for the system inventory.

pub use dtfe_core as core;
pub use dtfe_delaunay as delaunay;
pub use dtfe_framework as framework;
pub use dtfe_geometry as geometry;
pub use dtfe_lensing as lensing;
pub use dtfe_nbody as nbody;
pub use dtfe_service as service;
pub use dtfe_simcluster as simcluster;
pub use dtfe_telemetry as telemetry;
pub use dtfe_tess as tess;

/// The names most programs need: triangulation construction, field
/// estimation, and the surface-density renderers with their options.
///
/// ```
/// use dtfe_repro::prelude::*;
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
/// let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
/// let grid = GridSpec2::covering(Vec2::new(0.2, 0.2), Vec2::new(0.8, 0.8), 8, 8);
/// let sigma = surface_density(&field, &grid, &MarchOptions::new().parallel(false));
/// assert!(sigma.total_mass() > 0.0);
/// ```
pub mod prelude {
    pub use dtfe_core::{
        surface_density, surface_density_walking, DtfeField, Field2, Field3, GridSpec2, GridSpec3,
        MarchOptions, Mass,
    };
    pub use dtfe_delaunay::{BuildError, DelaunayBuilder, Triangulation};
    pub use dtfe_geometry::{Vec2, Vec3};
}

/// The README's Rust examples, compiled (and, unless marked `no_run`, run)
/// as doctests, so the README cannot name an API that does not exist.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
