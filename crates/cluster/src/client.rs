//! Ring-aware cluster client.
//!
//! Holds one [`ResilientClient`] per shard and derives each request's
//! candidate shards from the same deterministic ring the servers use, so
//! the first hop almost always lands on the owner. Candidates are tried in
//! ring order: a typed service error is a real answer (return it), a
//! transport give-up marks the shard dead locally and moves on, and if
//! every candidate fails the request falls back to *any* live shard in
//! proxy mode (`redirect = false`) — a non-owner then serves the tile
//! itself, bit-identically, rather than bouncing the client again.
//!
//! The client tracks per-tile heat like the shards do, so its owner set
//! widens to the replica set at the same threshold and hot-tile traffic
//! spreads across replicas.

use crate::ring::{key_of, HashRing};
use dtfe_framework::Decomposition;
use dtfe_geometry::Aabb3;
use dtfe_service::client::{ClientConfig, ResilientClient};
use dtfe_service::{RenderRequest, RenderResponse, ServiceError, TileKey};
use std::collections::HashMap;
use std::net::SocketAddr;

/// Client-side geometry of one registered snapshot: enough to map a field
/// centre to its tile without asking a server.
struct SnapshotGeo {
    decomp: Decomposition,
}

/// A client that routes renders to the owning shard of a cluster.
pub struct ClusterClient {
    addrs: Vec<SocketAddr>,
    ring: HashRing,
    replication: usize,
    heat_threshold: u32,
    heat: HashMap<u64, u32>,
    live: Vec<bool>,
    clients: Vec<ResilientClient>,
    cfg: ClientConfig,
    snapshots: HashMap<String, SnapshotGeo>,
}

impl ClusterClient {
    /// A client over the cluster's shard listeners (`addrs[i]` = shard
    /// `i`). `vnodes` and `replication` must match the shards' settings.
    pub fn new(
        addrs: &[SocketAddr],
        vnodes: usize,
        replication: usize,
        cfg: ClientConfig,
    ) -> std::io::Result<ClusterClient> {
        let clients = addrs
            .iter()
            .map(|a| ResilientClient::new(*a, cfg))
            .collect::<std::io::Result<Vec<_>>>()?;
        if clients.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no shards",
            ));
        }
        Ok(ClusterClient {
            addrs: addrs.to_vec(),
            ring: HashRing::new(addrs.len(), vnodes),
            replication,
            heat_threshold: 8,
            heat: HashMap::new(),
            live: vec![true; addrs.len()],
            clients,
            cfg,
            snapshots: HashMap::new(),
        })
    }

    /// Requests per tile after which the client spreads that tile over the
    /// replica set (matches the shards' `heat_threshold` by default).
    pub fn set_heat_threshold(&mut self, t: u32) {
        self.heat_threshold = t;
    }

    /// Teach the client a snapshot's geometry, mirroring the server-side
    /// registry (`bounds` and `tiles` exactly as the servers load it), so
    /// tile ownership is computed locally.
    pub fn register_snapshot(&mut self, id: impl Into<String>, bounds: Aabb3, tiles: usize) {
        self.snapshots.insert(
            id.into(),
            SnapshotGeo {
                decomp: Decomposition::new(bounds, tiles),
            },
        );
    }

    /// Per-shard resilient client, for non-render calls (stats, health,
    /// dump, shutdown) against a specific shard.
    pub fn shard(&mut self, i: usize) -> &mut ResilientClient {
        &mut self.clients[i]
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.addrs.len()
    }

    /// The ring key this request maps to, if its snapshot is registered.
    fn ring_key(&self, req: &RenderRequest) -> Option<u64> {
        let geo = self.snapshots.get(&req.snapshot)?;
        if !req.center.is_finite() || !geo.decomp.bounds.contains_closed(req.center) {
            return None;
        }
        let key = TileKey::new(
            req.snapshot.clone(),
            geo.decomp.rank_of(req.center),
            req.estimator.normalized(),
        );
        Some(key_of(&key))
    }

    /// Render via the owning shard; returns the response and the index of
    /// the shard that served it (for per-shard accounting).
    pub fn render(&mut self, req: &RenderRequest) -> Result<(RenderResponse, usize), ServiceError> {
        let Some(ringkey) = self.ring_key(req) else {
            // Unknown snapshot or out-of-bounds centre: let shard 0 answer
            // (it returns the same typed error every shard would).
            return self.clients[0].render(req).map(|r| (r, 0));
        };
        let heat = {
            let c = self.heat.entry(ringkey).or_insert(0);
            *c = c.saturating_add(1);
            *c
        };
        let want = if heat >= self.heat_threshold {
            self.replication
        } else {
            1
        };
        let mut candidates = self.ring.replicas(ringkey, want, &self.live);
        if candidates.is_empty() {
            // Everything looks dead: optimistically resurrect the whole
            // view rather than fail without trying.
            self.live.iter_mut().for_each(|l| *l = true);
            candidates = self.ring.replicas(ringkey, want, &self.live);
        }
        let redirected = req.clone().redirect(true);
        let mut last: Option<ServiceError> = None;
        for shard in candidates {
            match self.clients[shard].render(&redirected) {
                Ok(resp) => return Ok((resp, self.repin(shard))),
                // Transport give-up or drain: someone on the path is
                // down. Blame the right shard (a redirect may have moved
                // the failure elsewhere), try the next replica.
                Err(e @ (ServiceError::Internal(_) | ServiceError::ShuttingDown)) => {
                    dtfe_telemetry::counter_add!("cluster.client_failovers", 1);
                    self.note_failure(shard);
                    last = Some(e);
                }
                // A redirect loop the resilient client gave up on: our
                // ring view disagrees with the cluster's. Fall through to
                // proxy mode below.
                Err(ServiceError::NotMine { owner }) => {
                    last = Some(ServiceError::NotMine { owner });
                }
                // Typed service answer (overload shed, bad request,
                // deadline): that *is* the response.
                Err(e) => return Err(e),
            }
        }
        // Every candidate failed. Ask any shard to serve it in proxy mode:
        // a non-owner builds the tile itself (bit-identical) instead of
        // redirecting us again. Presumed-live shards first, but presumed-
        // dead ones still get a try — a wrong liveness guess only costs a
        // fast connect failure, while skipping them could strand the
        // request with reachable shards left.
        let proxied = req.clone().redirect(false);
        let mut order: Vec<usize> = (0..self.clients.len()).filter(|&i| self.live[i]).collect();
        order.extend((0..self.clients.len()).filter(|&i| !self.live[i]));
        for shard in order {
            match self.clients[shard].render(&proxied) {
                Ok(resp) => {
                    self.live[shard] = true;
                    return Ok((resp, self.repin(shard)));
                }
                Err(e @ (ServiceError::Internal(_) | ServiceError::ShuttingDown)) => {
                    dtfe_telemetry::counter_add!("cluster.client_failovers", 1);
                    self.note_failure(shard);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ServiceError::Internal("no live shards".into())))
    }

    /// Which shard actually answered: the one whose listener the resilient
    /// client ended up pointing at (it may have followed a `NotMine`
    /// redirect away from the shard we contacted).
    fn served_by(&self, contacted: usize) -> usize {
        let end = self.clients[contacted].endpoint();
        self.addrs
            .iter()
            .position(|a| *a == end)
            .unwrap_or(contacted)
    }

    /// After a success on `contacted`'s client: resolve who actually
    /// served, and if the client drifted to another shard's listener by
    /// following a redirect, re-pin it to its own shard so future routing
    /// stays one-hop.
    fn repin(&mut self, contacted: usize) -> usize {
        let served = self.served_by(contacted);
        if served != contacted {
            if let Ok(fresh) = ResilientClient::new(self.addrs[contacted], self.cfg) {
                self.clients[contacted] = fresh;
            }
        }
        served
    }

    /// After a transport give-up on `contacted`'s client: mark the shard
    /// whose listener actually failed. If the client drifted (it followed
    /// a `NotMine` redirect and then hit the wall), the *redirect target*
    /// is the dead one — blaming `contacted` would cascade false deaths
    /// across healthy shards that merely pointed at the corpse.
    fn note_failure(&mut self, contacted: usize) {
        let end = self.clients[contacted].endpoint();
        if end == self.addrs[contacted] {
            self.live[contacted] = false;
            return;
        }
        if let Some(target) = self.addrs.iter().position(|a| *a == end) {
            self.live[target] = false;
        }
        if let Ok(fresh) = ResilientClient::new(self.addrs[contacted], self.cfg) {
            self.clients[contacted] = fresh;
        }
    }
}
