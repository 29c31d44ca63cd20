//! A simulated MPI-like runtime: ranks are OS threads, messages are typed
//! values over channels — with deterministic fault injection.
//!
//! The paper's distributed framework is C++/MPI on Cooley and Mira. This
//! crate preserves the *communication structure* — blocking point-to-point
//! `send`/`recv` with tags and selective receive, `barrier`,
//! `allgather`, `alltoallv` — while the transport is
//! crossbeam channels between threads of one process. The framework code in
//! `dtfe-framework` is written against this API exactly the way the paper
//! describes its MPI usage (`MPI_Allgather` for the model exchange,
//! `MPI_Send`/`MPI_Recv` for work sharing), so the scheduling behaviour,
//! including blocking waits on senders, is faithfully reproduced.
//!
//! Beyond the happy path, [`run_with_faults`] threads a seeded
//! [`FaultPlan`] through every rank's [`Comm`]: user-tagged messages can be
//! dropped, delayed, duplicated, or reordered per `(src, dst, tag)`, and a
//! rank can be killed at a named phase boundary — all reproducibly, so a
//! failing fault scenario replays exactly. See the [`faults`] module for
//! the model and the fair-lossy (bounded drop burst) guarantee that the
//! framework's reliable-delivery layer builds on.
//!
//! # Example
//!
//! ```
//! use dtfe_simcluster::run;
//!
//! let results = run(4, |mut comm| {
//!     // Everyone learns everyone's rank².
//!     let sq = comm.rank() * comm.rank();
//!     let all = comm.allgather(sq);
//!     all.iter().sum::<usize>()
//! });
//! assert_eq!(results, vec![14, 14, 14, 14]);
//! ```
//!
//! With injected faults:
//!
//! ```
//! use dtfe_simcluster::{run_with_faults, FaultPlan, FaultRule};
//!
//! // Drop 30% of tag-5 traffic, reproducibly.
//! let plan = FaultPlan::seeded(7).rule(FaultRule::all().on_tag(5).drop(0.3));
//! let stats = run_with_faults(2, &plan, |mut comm| {
//!     if comm.rank() == 0 {
//!         for i in 0..100u32 {
//!             comm.send(1, 5, i);
//!         }
//!     }
//!     comm.barrier();
//!     while comm.try_recv::<u32>(None, 5).is_some() {}
//!     comm.fault_stats()
//! });
//! assert!(stats[0].dropped > 0);
//! ```

pub mod faults;
pub mod transport;

pub use faults::{FaultPlan, FaultRule, FaultStats};
pub use transport::{run, run_with_faults, Comm};
