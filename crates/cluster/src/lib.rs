//! Distributed serving tier for the DTFE tile service.
//!
//! Shards the tile cache across N nodes with a deterministic consistent-hash
//! ring ([`ring`]): each tile has one owner, its primary in the live view,
//! and is resident there alone. A shard forwards a request for another
//! shard's tile to that primary, and dead shards' arcs fail over to ring
//! successors ([`node`]). A ring-aware client lives in [`client`]; [`local`]
//! is the one place shards are booted.

pub mod client;
pub mod local;
pub mod node;
pub mod ring;

pub use client::ClusterClient;
pub use local::{LocalCluster, ShardSpec};
pub use node::{ClusterConfig, ClusterNode};
pub use ring::{key_of, HashRing};
