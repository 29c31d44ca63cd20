//! The paper's primary contribution: DTFE surface density field
//! reconstruction by **marching** the line of sight through the Delaunay
//! mesh.
//!
//! # What this crate implements
//!
//! * [`density::DtfeField`] — the Delaunay Tessellation Field Estimator
//!   (paper §III-A): per-vertex densities from contiguous-Voronoi-cell
//!   volumes (Eq. 2) and the piecewise-linear interpolant with constant
//!   per-tetrahedron gradients (Eq. 1).
//! * [`marching`] — the shared-memory surface-density kernel (paper §IV-A,
//!   Fig. 3): for each 2D grid cell, traverse the tetrahedra intersecting
//!   the vertical line of sight with Plücker ray–tetrahedron tests, and
//!   integrate the linear interpolant *exactly* per tetrahedron by
//!   evaluating at the midpoint of the intersection interval (Eq. 11–13).
//!   No intermediate 3D grid is ever built. Every edge side is decided
//!   exactly, so no crossing is degenerate and the paper's `Perturb`
//!   routine (Fig. 2) is not needed.
//! * [`walking`] — the baseline the paper compares against (§III-C): render
//!   a 3D grid by walking point location (Eq. 6) and collapse it along z
//!   (Eq. 4–5). This mimics the DTFE public software's kernel and is what
//!   the Fig. 6 experiment reproduces.
//! * [`grid`] — 2D/3D grid specifications and the field containers.
//! * [`estimator`] — [`FieldView`], the one thing the kernels render: a
//!   mesh, its 32 B traversal links and the field on each tetrahedron —
//!   linear, from its four vertex values ([`LinearTable`], whose rows a
//!   march writes and the projector derives), or, for PS-DTFE, one
//!   constant ([`SlotValues`]).
//!   [`RenderMesh`] is the one owner of a triangulation for rendering — it
//!   lays the mesh out as one link per tetrahedron — and `mesh.view(table)` makes
//!   every view. A backend fills a table over that mesh and hands the view
//!   out through the one-method [`FieldEstimator`] trait; the shared
//!   vertex-field loops (gradients, vertex masses, `∫ f dV`) live there
//!   too. One kernel, compiled once, serves DTFE density, arbitrary vertex
//!   scalars ([`fields::ScalarField`]), phase-space estimates
//!   ([`psdtfe::PsDtfeField`] and its velocity divergence), and smoothed
//!   stochastic reconstructions ([`stochastic::StochasticField`]) — each a
//!   table over one `RenderMesh`.
//!   [`EstimatorKind`] names a backend at the request level (render
//!   options, the service's table fills, the wire protocol).
//!
//! Parallelism follows the paper: the loop over grid cells is
//! data-parallel (Rayon here, OpenMP in the paper). Per-cell entry points
//! ([`marching::cell_value`], [`walking::walk_column`]) are exposed so the
//! benchmark harnesses can drive their own schedules and measure per-thread
//! balance (`fig6` renders every cell alone through `cell_value`);
//! [`marching::march_cell`] marches one line of sight.
//!
//! # Quick start
//!
//! ```
//! use dtfe_core::density::{DtfeField, Mass};
//! use dtfe_core::grid::GridSpec2;
//! use dtfe_core::marching::{surface_density, MarchOptions};
//! use dtfe_geometry::Vec3;
//!
//! // A small particle cloud (deterministic jittered grid).
//! let mut pts = Vec::new();
//! let mut s = 1u64;
//! let mut r = move || {
//!     s ^= s >> 12; s ^= s << 25; s ^= s >> 27;
//!     (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
//! };
//! for i in 0..5 { for j in 0..5 { for k in 0..5 {
//!     pts.push(Vec3::new(i as f64 + 0.5 * r(), j as f64 + 0.5 * r(), k as f64 + 0.5 * r()));
//! }}}
//!
//! let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
//! let grid = GridSpec2::covering(dtfe_geometry::Vec2::new(1.0, 1.0),
//!                                dtfe_geometry::Vec2::new(3.0, 3.0), 16, 16);
//! let sigma = surface_density(&field, &grid, &MarchOptions::default());
//! assert!(sigma.total_mass() > 0.0);
//! ```

pub mod density;
pub mod estimator;
pub mod fields;
pub mod grid;
pub mod io;
pub mod marching;
pub mod projector;
pub mod psdtfe;
pub mod render;
pub mod stochastic;
pub mod walking;

pub use density::{DtfeField, DtfeTable, Mass};
pub use estimator::{
    DegenerateTetError, EstimatorKind, FieldEstimator, FieldView, LinearTable, RenderMesh,
    SlotValues,
};
pub use fields::ScalarField;
pub use grid::{Field2, Field3, GridError, GridSpec2, GridSpec3};
pub use marching::{
    surface_density, surface_density_reference, surface_density_with_index, HullIndex, MarchOptions,
};
pub use psdtfe::{PsDtfeField, PsDtfeTable};
pub use render::MarchOptionsError;
pub use stochastic::{StochasticField, StochasticOptions, StochasticTable};
pub use walking::surface_density_walking;
