//! A simulated MPI-like runtime: ranks are OS threads, messages are typed
//! values over channels.
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
//! The transport is reliable, as the paper assumes of MPI: every message
//! sent to a live rank arrives once, in order per `(src, dst)` pair. The
//! [`faults`] module keeps only the seeded draw and probability check that
//! the socket-level chaos proxy in `dtfe-service` builds on.
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
//! Selective receive by source and tag, as the framework's work sharing
//! uses it:
//!
//! ```
//! use dtfe_simcluster::run;
//!
//! let got = run(3, |mut comm| {
//!     if comm.rank() == 0 {
//!         // Take rank 2's message first, whatever arrives first.
//!         let (_, a): (usize, u32) = comm.recv(Some(2), 5);
//!         let (_, b): (usize, u32) = comm.recv(Some(1), 5);
//!         vec![a, b]
//!     } else {
//!         comm.send(0, 5, comm.rank() as u32 * 10);
//!         Vec::new()
//!     }
//! });
//! assert_eq!(got[0], vec![20, 10]);
//! ```

pub mod faults;
pub mod transport;

pub use transport::{run, Comm};
