//! Geometric foundations for the DTFE surface density reconstruction.
//!
//! This crate provides the numerical substrate the paper takes from CGAL and
//! Qhull:
//!
//! * [`Vec3`] / [`Vec2`] — small fixed-size vector types used throughout the
//!   workspace.
//! * [`expansion`] — Shewchuk-style floating-point expansion arithmetic, the
//!   machinery behind the exact fallback paths of the predicates.
//! * [`predicates`] — robust [`predicates::orient3d`] and
//!   [`predicates::insphere`] (plus their 2D analogues) with static
//!   error filters and an exact expansion-arithmetic fallback. These are what
//!   make the Delaunay construction in `dtfe-delaunay` sound.
//! * [`plucker`] — Plücker-coordinate ray representation and the
//!   Platis–Theoharis ray–tetrahedron intersection test (paper §III-C-2,
//!   Eq. 7–10) for vertical lines of sight, its edge sides made exact by
//!   [`predicates::orient2d_sos`], so no line is degenerate.
//! * [`tetra`] — tetrahedron volume, barycentric coordinates and related
//!   helpers used by the DTFE interpolation itself.
//! * [`aabb`] — axis-aligned boxes used for domain decomposition and ghost
//!   zones.

pub mod aabb;
pub mod expansion;
pub mod plucker;
pub mod predicates;
pub mod tetra;
pub mod vec;

pub use aabb::{Aabb2, Aabb3};
pub use plucker::{FaceCrossing, Plucker, Ray};
pub use predicates::{incircle, insphere, orient2d, orient3d, Orientation};
pub use vec::{Vec2, Vec3};
