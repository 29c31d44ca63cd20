//! Shard bring-up, once: start a [`Service`] per shard, wrap it in a
//! [`ClusterNode`], bind its listener, install the membership, start
//! gossip, and serve on a thread — with a handle to kill one shard and to
//! wait for all of them.
//!
//! `dtfe-clusterd` (both modes), `loadgen` and the cluster tests all boot
//! through [`LocalCluster::boot`]; what differs between them — each shard's
//! [`ServiceConfig`], [`ClusterConfig`] and bind address — is the caller's.

use crate::node::{ClusterConfig, ClusterNode};
use dtfe_service::{RequestHandler, Service, ServiceConfig, TcpServer};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Everything one shard is booted from. `cluster.shard` is its index into
/// the membership list.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    pub service: ServiceConfig,
    pub cluster: ClusterConfig,
    /// Listener address (port 0 picks an ephemeral port).
    pub bind: SocketAddr,
}

struct Shard {
    node: Arc<ClusterNode>,
    stop: Arc<AtomicBool>,
    serve: Option<JoinHandle<()>>,
    gossip: Option<JoinHandle<()>>,
}

impl Shard {
    /// Silence gossip, stop the listener, and join both threads.
    fn kill(&mut self) -> std::thread::Result<()> {
        self.node.stop_gossip();
        self.stop.store(true, Ordering::SeqCst);
        join(&mut self.serve).and(join(&mut self.gossip))
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let _ = self.kill();
    }
}

fn join(handle: &mut Option<JoinHandle<()>>) -> std::thread::Result<()> {
    handle.take().map_or(Ok(()), JoinHandle::join)
}

/// Shards running in this process, each behind its own TCP listener.
/// Dropping the cluster (or a shard) kills whatever is still running.
pub struct LocalCluster {
    shards: Vec<Shard>,
    addrs: Vec<SocketAddr>,
}

impl LocalCluster {
    /// Boot one shard per spec over the snapshot directory. Every listener
    /// is bound before any membership is installed, so ephemeral ports
    /// work. With `peers = None` the shards booted here *are* the cluster:
    /// the membership is their bound addresses, in spec order. A process
    /// that hosts only some shards of a wider cluster passes the full
    /// address list instead (each spec's `bind` is then its own entry).
    pub fn boot(
        snapshots: &Path,
        specs: Vec<ShardSpec>,
        peers: Option<Vec<SocketAddr>>,
    ) -> std::io::Result<LocalCluster> {
        let mut bound = Vec::with_capacity(specs.len());
        for spec in specs {
            let shard = spec.cluster.shard;
            let service = Service::start(snapshots, spec.service)
                .map_err(|e| std::io::Error::other(format!("cannot start shard {shard}: {e}")))?;
            let node = ClusterNode::new(Arc::new(service), spec.cluster);
            let handler: Arc<dyn RequestHandler> = node.clone();
            let server = TcpServer::bind_with(handler, spec.bind).map_err(|e| {
                std::io::Error::new(e.kind(), format!("cannot bind {}: {e}", spec.bind))
            })?;
            bound.push((node, server));
        }
        let addrs = bound
            .iter()
            .map(|(_, server)| server.local_addr())
            .collect::<std::io::Result<Vec<_>>>()?;
        let peers = peers.unwrap_or_else(|| addrs.clone());
        // An error part-way drops the shards started so far, which kills
        // them.
        let mut shards = Vec::with_capacity(bound.len());
        for (node, server) in bound {
            node.configure_peers(peers.clone())?;
            let mut shard = Shard {
                node,
                stop: server.stop_handle(),
                serve: None,
                gossip: None,
            };
            shard.gossip = Some(shard.node.start_gossip()?);
            shard.serve = Some(
                std::thread::Builder::new()
                    .name("dtfe-shard".into())
                    .spawn(move || server.serve())?,
            );
            shards.push(shard);
        }
        Ok(LocalCluster { shards, addrs })
    }

    /// The bound listener addresses, in spec order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Shard `i`'s node (its epoch, heartbeat and wrapped service).
    pub fn node(&self, i: usize) -> &Arc<ClusterNode> {
        &self.shards[i].node
    }

    /// Kill shard `i`: stop accepting, drain, drop the listener. After
    /// this returns, connects to its address are refused and its gossip is
    /// silent, so the survivors declare it dead and rehash its arcs.
    /// Idempotent. `Err` carries the panic of a shard thread that died.
    pub fn kill(&mut self, i: usize) -> std::thread::Result<()> {
        self.shards[i].kill()
    }

    /// Block until every serve loop has returned — each ends on a wire
    /// `Shutdown` to its listener (or an earlier [`kill`](Self::kill)) —
    /// then stop gossip. Every thread is joined; `Err` carries the first
    /// panic among them.
    pub fn wait(mut self) -> std::thread::Result<()> {
        let mut result = Ok(());
        for shard in &mut self.shards {
            result = result.and(join(&mut shard.serve));
        }
        for shard in &mut self.shards {
            result = result.and(shard.kill());
        }
        result
    }
}
