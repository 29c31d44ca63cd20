//! Thin-lens gravitational lensing on surface density fields.
//!
//! The paper's motivating application (§I): the surface density Σ produced
//! by the DTFE kernel feeds the thin-lens approximation, where the lensing
//! convergence is `κ = Σ / Σ_cr` (Eq. 3 context). This crate provides
//!
//! * [`thin_lens`] — the critical surface density and convergence maps;
//! * [`configs`] — the two field-placement configurations of the paper's
//!   experiments: **galaxy-galaxy** (fields centred on the most massive
//!   halos, §V "Galaxy-Galaxy Lensing Experiment") and **multiplane
//!   line-of-sight** stacks (§V "Multiplane Lensing Experiment": "density
//!   fields along an observer's entire line of sight");
//! * [`deflection`] — FFT-based deflection-angle and shear maps from κ
//!   (the step the downstream PICS/GLAMER pipelines perform; included as
//!   the paper's "future work" extension so the examples can produce actual
//!   lensing observables).

pub mod configs;
pub mod deflection;
pub mod thin_lens;

pub use configs::{galaxy_galaxy_centers, multiplane_los_centers};
pub use deflection::{deflection_maps, LensMaps};
pub use thin_lens::{convergence_map, critical_surface_density};
