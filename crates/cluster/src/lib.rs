//! Distributed serving tier for the DTFE tile service.
//!
//! Shards the tile cache across N nodes with a deterministic consistent-hash
//! ring ([`ring`]), routes requests to the cheapest owner using the calibrated
//! cost model plus live shard gauges ([`router`]), replicates hot tiles, and
//! fails over dead shards' arcs to ring successors ([`node`]). A ring-aware
//! client lives in [`client`]; [`local`] is the one place shards are booted.

pub mod client;
pub mod local;
pub mod node;
pub mod ring;
pub mod router;

pub use client::ClusterClient;
pub use local::{LocalCluster, ShardSpec};
pub use node::{ClusterConfig, ClusterNode};
pub use ring::{key_of, HashRing};
