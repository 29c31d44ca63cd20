//! Ring-aware cluster client: the one layer that picks an endpoint.
//!
//! Holds one [`ResilientClient`] per shard — each is retry policy over
//! that shard's single address — and derives each request's plan from the
//! same deterministic ring the servers use: every shard in ring order from
//! the request's tile (the ring primary first), presumed-live shards before
//! presumed-dead ones. While the views agree the first hop lands on the
//! owner; when they do not, the shard reached forwards the request itself
//! ([`crate::node`]), so the client never chases an owner. Per
//! attempt: a transport give-up or `ShuttingDown` marks the shard that was
//! called dead and moves on; any other answer — field or typed error — is
//! returned. The shard that was called is the shard that answered (or
//! gave up), so blame and per-shard accounting need no bookkeeping.
//!
//! A request the client cannot place (unregistered snapshot, centre out
//! of bounds) walks the same plan in shard order: every shard answers it
//! with the same typed error, so the first live one will do.
//!
//! Telemetry: `cluster.client_failovers`.

use crate::ring::{key_of, HashRing};
use dtfe_framework::Decomposition;
use dtfe_geometry::Aabb3;
use dtfe_service::client::{ClientConfig, ResilientClient};
use dtfe_service::{RenderRequest, RenderResponse, ServiceError, TileKey};
use std::collections::HashMap;
use std::net::SocketAddr;

/// A client that routes renders to the owning shard of a cluster.
pub struct ClusterClient {
    ring: HashRing,
    live: Vec<bool>,
    clients: Vec<ResilientClient>,
    /// Per registered snapshot, the decomposition that maps a field centre
    /// to its tile without asking a server.
    snapshots: HashMap<String, Decomposition>,
}

impl ClusterClient {
    /// A client over the cluster's shard listeners (`addrs[i]` = shard
    /// `i`). `vnodes` must match the shards' setting.
    pub fn new(
        addrs: &[SocketAddr],
        vnodes: usize,
        cfg: ClientConfig,
    ) -> std::io::Result<ClusterClient> {
        let invalid = |what| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, what));
        if addrs.is_empty() {
            return invalid("no shards");
        }
        if vnodes == 0 {
            return invalid("a ring needs at least one virtual node per shard");
        }
        let clients = addrs
            .iter()
            .map(|a| ResilientClient::new(*a, cfg))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ClusterClient {
            ring: HashRing::new(addrs.len(), vnodes),
            live: vec![true; addrs.len()],
            clients,
            snapshots: HashMap::new(),
        })
    }

    /// Teach the client a snapshot's geometry, mirroring the server-side
    /// registry (`bounds` and `tiles` exactly as the servers load it), so
    /// tile ownership is computed locally.
    pub fn register_snapshot(&mut self, id: impl Into<String>, bounds: Aabb3, tiles: usize) {
        self.snapshots
            .insert(id.into(), Decomposition::new(bounds, tiles));
    }

    /// The ring key this request maps to, if its snapshot is registered.
    fn ring_key(&self, req: &RenderRequest) -> Option<u64> {
        let decomp = self.snapshots.get(&req.snapshot)?;
        if !req.center.is_finite() || !decomp.bounds.contains_closed(req.center) {
            return None;
        }
        let key = TileKey::new(req.snapshot.clone(), decomp.rank_of(req.center));
        Some(key_of(&key))
    }

    /// The order in which `req` tries the shards: ring order from its tile
    /// (shard order if it has none), presumed-live first. Presumed-dead
    /// shards still get a try — a wrong liveness guess only costs a fast
    /// connect failure, while skipping them could strand the request with
    /// reachable shards left.
    fn plan(&self, req: &RenderRequest) -> Vec<usize> {
        let n = self.clients.len();
        let mut plan = match self.ring_key(req) {
            Some(key) => self.ring.replicas(key, n, &vec![true; n]),
            None => (0..n).collect(),
        };
        plan.sort_by_key(|&i| !self.live[i]); // stable: live first
        plan
    }

    /// Render via the owning shard; returns the response and the index of
    /// the shard that served it (for per-shard accounting).
    pub fn render(&mut self, req: &RenderRequest) -> Result<(RenderResponse, usize), ServiceError> {
        let req = req.clone().forwarded(false);
        let mut last = None;
        for shard in self.plan(&req) {
            match self.clients[shard].render(&req) {
                Ok(resp) => {
                    self.live[shard] = true;
                    return Ok((resp, shard));
                }
                // Transport give-up or drain: the shard we called is down.
                // Try the next one.
                Err(e @ (ServiceError::Internal(_) | ServiceError::ShuttingDown)) => {
                    dtfe_telemetry::counter_add!("cluster.client_failovers", 1);
                    self.live[shard] = false;
                    last = Some(e);
                }
                // Typed service answer (overload shed, bad request,
                // deadline): that *is* the response.
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ServiceError::Internal("no live shards".into())))
    }
}
