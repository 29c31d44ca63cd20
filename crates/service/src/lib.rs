//! # dtfe-service
//!
//! An **online** field-rendering tier over the batch DTFE pipeline: the
//! repo's offline path reproduces the paper's "one snapshot → many fields"
//! job, this crate serves the same renders as an interactive service —
//! think a lensing portal where many concurrent clients request
//! surface-density cutouts of arbitrary sky patches on demand.
//!
//! The cost structure follows the paper's own workload model
//! (`framework::model`): a Delaunay triangulation costs `c·n·log₂n` while a
//! render against an existing triangulation costs `α·n^β` — orders of
//! magnitude less. The serving layer therefore treats the triangulation as
//! the expensive *reusable* artifact:
//!
//! * the domain is cut into ghost-padded spatial **tiles** (reusing
//!   [`dtfe_framework::Decomposition`]); a request lands on the tile that
//!   contains its field centre, and the tile's padding
//!   ([`ServiceConfig::ghost_margin`], `l_F/2`) ensures the whole field
//!   cube is covered by tile-local particles;
//! * each tile's triangulation (plus its hull index) is built lazily via
//!   [`dtfe_delaunay::DelaunayBuilder`] and held in a **byte-budgeted LRU**
//!   ([`cache::TileCache`]) keyed `(snapshot, tile)`, with **single-flight**
//!   deduplication — N concurrent requests for a cold tile trigger exactly
//!   one build while the rest park on a condvar;
//! * an estimator is an **interpolant table over that one mesh**
//!   ([`tiles::TileData`]), filled by the first request that asks for it
//!   and charged to the byte budget as it appears — a tile rendered under
//!   three estimators is triangulated once;
//! * requests queued for the same tile are **coalesced into one batch**:
//!   the worker resolves the tile once and marches every field grid in the
//!   batch against the shared triangulation
//!   ([`dtfe_core::surface_density_with_index`]);
//! * **cost-aware admission control** ([`admission::Admission`]) prices
//!   each request with the workload model and sheds load with a typed
//!   [`ServiceError::Overloaded`] (carrying a `retry_after` hint) once the
//!   priced backlog exceeds a budget; per-request **deadlines** drop work
//!   that can no longer meet its SLO; shutdown **drains** the queue before
//!   the workers exit.
//!
//! Two interchangeable transports: the in-process [`Service`] handle
//! (tests, benches, embedding) and a length-prefixed binary protocol
//! ([`wire`]) on `std::net::TcpListener` ([`tcp`], the `dtfe-served`
//! binary). Everything is std-only, like the rest of the workspace.
//!
//! The serving tier assumes a **hostile network and fallible builds**:
//! frames carry checksums so corruption is rejected, not served; sockets
//! get read/write timeouts and per-connection in-flight caps; tile builds
//! run under panic isolation with a failure-quarantine negative cache;
//! overload sheds with a typed `Overloaded`; and the seeded [`chaos`]
//! injector plus the retrying [`ResilientClient`] make all of it
//! testable deterministically (see `DESIGN.md` §4c).
//!
//! Rendering semantics match the batch framework path bit-for-bit: a tile
//! build uses the same [`dtfe_delaunay::DelaunayBuilder`] as the
//! framework's per-item path, whose mesh depends only on the particle set,
//! and renders with the same
//! [`MarchOptions`](dtfe_core::MarchOptions), so a field served from a
//! single whole-domain tile is identical to
//! [`dtfe_framework::run_distributed_snapshot`] output on the same request
//! (the root `tests/service.rs` asserts this).

pub mod admission;
pub mod api;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod config;
pub mod error;
pub mod registry;
pub mod server;
pub mod stats_doc;
pub mod tcp;
pub mod tiles;
pub mod wire;

pub use api::{
    HealthStatus, RenderRequest, RenderResponse, ResponseMeta, ShardHeartbeat, Stage, TraceContext,
};
pub use cache::{QuarantinePolicy, TileCache};
pub use chaos::{ChaosProxy, ChaosStats, Direction, SocketFaultPlan, SocketFaultRule};
pub use client::{ClientConfig, ClientStats, ResilientClient};
pub use config::{DaemonArgs, ServiceConfig};
pub use dtfe_core::EstimatorKind;
pub use error::ServiceError;
pub use registry::{SnapshotData, SnapshotRegistry};
pub use server::{Resolved, Service, ServiceStats};
pub use stats_doc::{
    CacheCounters, HistDigest, MetricsDigest, ServingCounters, StatsDocument, STATS_VERSION,
};
pub use tcp::{Client, Handled, RequestHandler, TcpServer};
pub use tiles::{TileData, TileKey};
pub use wire::{Request, Response, WireError, MAX_FRAME};
