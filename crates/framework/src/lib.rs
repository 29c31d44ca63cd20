//! The distributed surface-density framework (paper §IV).
//!
//! Four phases, exactly as the paper structures them:
//!
//! 1. **Data partitioning and redistribution** ([`decomp`], [`ingest`]) —
//!    uniform spatial volume decomposition, parallel blocked read,
//!    all-to-all redistribution, and neighbour ghost-zone exchange deep
//!    enough (`l_F / 2`) that every field is computable without further
//!    communication.
//! 2. **Workload modeling** ([`model`]) — per-item particle counting, one
//!    random test-problem timing per rank, `allgather` of the samples, and
//!    the two fits: `t_tri = c·n·log₂n` by ordinary least squares (Eq.
//!    15–16) and `t_interp = α·n^β` by Gauss–Newton (Eq. 17).
//! 3. **Work sharing** ([`sharing`]) — the `CreateCommunicationList`
//!    schedule (paper Fig. 5) plus greedy first-fit variable-size bin
//!    packing of work items into send buckets and local compute gaps.
//! 4. **Execution and communication** ([`runner`]) — senders send their
//!    scheduled (particles, field positions) bundles up front, then run
//!    their kept items; receivers run their local items, then block on
//!    each sender of their `RecvList` in turn.
//!
//! [`eventsim`] replays the same scheduling algorithm inside a
//! discrete-event simulator so the 4k–16k-rank regime of the paper's
//! Fig. 13 can be evaluated without 16k OS threads (see `DESIGN.md`,
//! substitutions).
//!
//! Like the paper, the framework assumes a reliable transport: every
//! scheduled bundle arrives. What can fail is rank-collective — a field
//! the grid cannot hold, an unreadable snapshot, a non-finite model
//! prediction — and every rank returns the same typed [`FrameworkError`]
//! instead of panicking or deadlocking its peers.

pub mod decomp;
pub mod error;
pub mod eventsim;
pub mod ingest;
pub mod model;
pub mod runner;
pub mod sharing;

pub use decomp::Decomposition;
pub use error::FrameworkError;
pub use model::{
    InterpModel, ModelResiduals, ResidualSummary, TimingSample, TriModel, WorkloadModel,
};
pub use runner::{
    field_geometry, run_distributed, run_distributed_snapshot, FieldRequest, FrameworkConfig,
    PhaseTimings, RankReport, RunReport,
};
pub use sharing::{create_schedule, pack_bins, Schedule, ScheduleError, ScheduleReport, Transfer};

// Re-exported so framework users can consume RankReport telemetry
// (snapshots, exporters, the shared load statistics) without naming the
// telemetry crate.
pub use dtfe_telemetry::{LoadSummary, TelemetrySnapshot};
