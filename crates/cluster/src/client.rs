//! Ring-aware cluster client: the one layer that picks an endpoint.
//!
//! Holds one [`ResilientClient`] per shard — each is retry policy over
//! that shard's single address — and derives each request's candidate
//! shards from the same deterministic ring the servers use, so the first
//! hop almost always lands on the owner. A request walks one ordered plan:
//! the ring candidates with `redirect = true`, then *every* shard in proxy
//! mode (`redirect = false`), where a non-owner serves the tile itself,
//! bit-identically, rather than bouncing the client again. Per attempt: a
//! typed service error is a real answer (return it); a transport give-up
//! marks the shard that was called dead locally and moves on; a
//! [`ServiceError::NotMine`] naming one of this client's shards is followed
//! to that shard's client, at most [`MAX_REDIRECTS`] times per request. An
//! owner that does not parse or is not one of the shards is a ring
//! disagreement — it is not followed, and the proxy-mode tail of the plan
//! repairs it. The shard that was called is the shard that answered (or
//! gave up), so blame and per-shard accounting need no bookkeeping.
//!
//! The client tracks per-tile heat like the shards do, so its owner set
//! widens to the replica set at the same threshold and hot-tile traffic
//! spreads across replicas.
//!
//! Telemetry: `client.redirects`, `cluster.client_failovers`.

use crate::node::DEFAULT_HEAT_THRESHOLD;
use crate::ring::{key_of, HashRing};
use dtfe_framework::Decomposition;
use dtfe_geometry::Aabb3;
use dtfe_service::client::{ClientConfig, ResilientClient};
use dtfe_service::{RenderRequest, RenderResponse, ServiceError, TileKey};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;

/// How many `NotMine` redirects one request may follow — bounds the damage
/// of two shards with disagreeing ring views bouncing a request between
/// them.
const MAX_REDIRECTS: u32 = 3;

/// A client that routes renders to the owning shard of a cluster.
pub struct ClusterClient {
    addrs: Vec<SocketAddr>,
    ring: HashRing,
    replication: usize,
    heat_threshold: u32,
    heat: HashMap<u64, u32>,
    live: Vec<bool>,
    clients: Vec<ResilientClient>,
    /// Per registered snapshot, the decomposition that maps a field centre
    /// to its tile without asking a server.
    snapshots: HashMap<String, Decomposition>,
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
            heat_threshold: DEFAULT_HEAT_THRESHOLD,
            heat: HashMap::new(),
            live: vec![true; addrs.len()],
            clients,
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
        let mut follows = 0;
        let mut last: Option<ServiceError> = None;
        // Ring candidates first, then every shard in proxy mode, where a
        // non-owner builds the tile itself (bit-identical) instead of
        // redirecting us again. Presumed-live shards first, but presumed-
        // dead ones still get a try — a wrong liveness guess only costs a
        // fast connect failure, while skipping them could strand the
        // request with reachable shards left.
        for redirect in [true, false] {
            let req = req.clone().redirect(redirect);
            let mut plan: VecDeque<usize> = if redirect {
                std::mem::take(&mut candidates).into()
            } else {
                let mut all: Vec<usize> = (0..self.clients.len()).collect();
                all.sort_by_key(|&i| !self.live[i]); // stable: live first
                all.into()
            };
            while let Some(shard) = plan.pop_front() {
                match self.clients[shard].render(&req) {
                    Ok(resp) => {
                        self.live[shard] = true;
                        return Ok((resp, shard));
                    }
                    // Transport give-up or drain: the shard we called is
                    // down. Try the next one.
                    Err(e @ (ServiceError::Internal(_) | ServiceError::ShuttingDown)) => {
                        dtfe_telemetry::counter_add!("cluster.client_failovers", 1);
                        self.live[shard] = false;
                        last = Some(e);
                    }
                    // Follow a redirect to one of our own shards. Anything
                    // else (foreign or unparseable owner, follow budget
                    // spent) means our ring view disagrees with the
                    // cluster's, and proxy mode serves the request anyway.
                    Err(ServiceError::NotMine { owner }) => {
                        let target = owner
                            .parse::<SocketAddr>()
                            .ok()
                            .and_then(|a| self.addrs.iter().position(|x| *x == a));
                        if let Some(target) = target.filter(|_| follows < MAX_REDIRECTS) {
                            follows += 1;
                            dtfe_telemetry::counter_add!("client.redirects", 1);
                            plan.push_front(target);
                        }
                        last = Some(ServiceError::NotMine { owner });
                    }
                    // Typed service answer (overload shed, bad request,
                    // deadline): that *is* the response.
                    Err(e) => return Err(e),
                }
            }
        }
        Err(last.unwrap_or_else(|| ServiceError::Internal("no live shards".into())))
    }
}
