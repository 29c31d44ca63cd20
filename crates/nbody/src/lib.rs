//! Synthetic cosmological particle data.
//!
//! The paper evaluates on proprietary HACC snapshots (`Planck` 1024³,
//! `MiraU` 3200³) and the Gadget demo data — none of which can ship with a
//! reproduction. This crate builds the closest synthetic equivalents that
//! exercise the same code paths:
//!
//! * [`grf`] / [`zeldovich`] — Gaussian random fields with a CDM-like
//!   spectrum (via the crate's own FFT, [`fft`]) displaced by the Zel'dovich
//!   approximation: large-scale-structure-like clustering with a tunable
//!   growth factor.
//! * [`halos`] — the NFW sampler and the
//!   [`halos::clustered_box`] generator: heavy-tailed halo occupations that
//!   recreate the load imbalance driving the paper's Figs. 9–13.
//! * [`fof`] — friends-of-friends halo finding (the "density based
//!   clustering algorithm" whose most-massive objects centre the MiraU
//!   fields).
//! * [`snapshot`] — a blocked binary snapshot format with per-rank offsets,
//!   standing in for the HACC files the paper ingests with MPI-IO.
//! * [`datasets`] — one-call dataset constructors used by the examples and
//!   benchmark harnesses.

pub mod datasets;
pub mod fft;
pub mod fof;
pub mod grf;
pub mod halos;
pub mod rng;
pub mod snapshot;
pub mod zeldovich;

pub use fof::{fof_groups, FofGroup};
pub use halos::{clustered_box, ClusteredBoxSpec, Halo};
pub use rng::Sampler;
