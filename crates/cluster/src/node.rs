//! One cluster shard: a [`Service`] wrapped with ring ownership, cost-aware
//! peer routing, hot-tile replication, gossip, and failover.
//!
//! ## Request flow
//!
//! A shard receiving a render resolves the tile key exactly like a
//! single-node server, hashes it onto the ring, and computes the owner set
//! against its *live view* of the cluster (dead peers are skipped by the
//! ring walk — that is the failover rehash). Then:
//!
//! * **self is an owner** (or the node runs solo): serve locally;
//! * **redirect-mode request** (a ring-aware client's first hop): answer a
//!   typed [`NotMine`](ServiceError::NotMine) naming the cheapest owner so
//!   the client re-sends there directly;
//! * **plain request** (naive client, or a peer's proxied hop): proxy to
//!   the cheapest owner with `redirect` set — if the owner disagrees about
//!   ownership it answers `NotMine` rather than forwarding again, which
//!   bounds any routing disagreement to one extra hop — and on *any*
//!   proxy failure (owner dead, mid-stream cut, `NotMine`) the shard
//!   serves the tile itself. Every shard loads the same snapshots and
//!   builds tiles with the same single-threaded builder, so a failover
//!   render is bit-identical to the owner's; failover costs latency, never
//!   correctness.
//!
//! ## Gossip
//!
//! Shards exchange [`ShardHeartbeat`]s on a fixed interval over the same
//! wire protocol (symmetric piggyback: the request carries the sender's
//! heartbeat, the response the receiver's). Heartbeats carry the load
//! gauges the router scores with, plus each shard's *hot set* — ring keys
//! whose request rate crossed [`ClusterConfig::heat_threshold`], which
//! widens the owner set to [`ClusterConfig::replication`] shards. A peer
//! whose heartbeat goes silent past [`ClusterConfig::heartbeat_timeout`]
//! is marked dead: the live view changes, the ring **epoch** bumps, a
//! `cluster.ring_rebalance` counter ticks, and a rebalance event lands in
//! the flight recorder.

use crate::ring::{key_of, HashRing};
use crate::router::{cheapest, ShardGauges};
use dtfe_service::config::default_model;
use dtfe_service::{
    Client, Handled, RenderRequest, Request, RequestHandler, Response, Service, ServiceError,
    ShardHeartbeat,
};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default [`ClusterConfig::heat_threshold`], shared with the ring-aware
/// client: both sides must widen a tile's owner set at the same count.
pub(crate) const DEFAULT_HEAT_THRESHOLD: u32 = 8;

/// Shard-local cluster settings. The ring geometry (`vnodes`) and
/// `replication` must agree across every shard and ring-aware client, or
/// redirects ping-pong; everything else is per-shard tunable.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// This shard's index into the peer address list.
    pub shard: u32,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Owner-set width for hot tiles (1 = primary only).
    pub replication: usize,
    /// Local request count after which a tile is considered hot and its
    /// owner set widens to `replication` shards.
    pub heat_threshold: u32,
    /// Gossip exchange period.
    pub heartbeat_interval: Duration,
    /// Silence after which a peer is declared dead and its arcs rehash.
    pub heartbeat_timeout: Duration,
}

impl ClusterConfig {
    /// Most hot keys advertised per heartbeat (bounds frame size).
    pub const HOT_CAP: usize = 64;
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shard: 0,
            vnodes: 128,
            replication: 2,
            heat_threshold: DEFAULT_HEAT_THRESHOLD,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_millis(1000),
        }
    }
}

/// What this shard currently believes about one peer.
#[derive(Clone, Debug)]
struct PeerState {
    alive: bool,
    last_seen: Instant,
    last_seq: u64,
    queue_depth: u64,
    backlog_ms: u64,
    draining: bool,
    hot: HashSet<u64>,
    resident_bytes: u64,
}

impl PeerState {
    fn fresh(now: Instant) -> PeerState {
        PeerState {
            alive: true,
            last_seen: now,
            last_seq: 0,
            queue_depth: 0,
            backlog_ms: 0,
            draining: false,
            hot: HashSet::new(),
            resident_bytes: 0,
        }
    }
}

/// The mutable cluster view: peer addresses (index = shard id), the ring
/// built over them, and per-peer liveness/gauges.
struct Topology {
    addrs: Vec<SocketAddr>,
    ring: HashRing,
    peers: Vec<PeerState>,
}

/// A cluster shard. Implements [`RequestHandler`], so it plugs into
/// [`dtfe_service::TcpServer::bind_with`] unchanged.
pub struct ClusterNode {
    service: Arc<Service>,
    cfg: ClusterConfig,
    topo: Mutex<Topology>,
    /// Live-view generation; bumps on every peer death or resurrection.
    epoch: AtomicU64,
    /// Heartbeat sequence (stale-heartbeat rejection on receivers).
    seq: AtomicU64,
    /// Local per-ring-key request counts driving hot-tile replication.
    heat: Mutex<HashMap<u64, u32>>,
    stop: AtomicBool,
}

impl ClusterNode {
    /// Wrap a service as a solo shard (owns everything until
    /// [`configure_peers`](ClusterNode::configure_peers) is called). The
    /// two-phase construction exists because listeners bind ephemeral
    /// ports *before* the full peer address list is known.
    pub fn new(service: Arc<Service>, cfg: ClusterConfig) -> Arc<ClusterNode> {
        Arc::new(ClusterNode {
            service,
            topo: Mutex::new(Topology {
                addrs: Vec::new(),
                ring: HashRing::new(1, cfg.vnodes),
                peers: vec![PeerState::fresh(Instant::now())],
            }),
            cfg,
            epoch: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            heat: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
        })
    }

    /// Install the cluster membership: `addrs[i]` is shard `i`'s listener.
    /// All peers start presumed-live with a fresh liveness grace period.
    pub fn configure_peers(&self, addrs: Vec<SocketAddr>) {
        assert!(
            (self.cfg.shard as usize) < addrs.len(),
            "own shard index {} outside peer list of {}",
            self.cfg.shard,
            addrs.len()
        );
        let now = Instant::now();
        let mut topo = self.topo.lock().unwrap();
        topo.ring = HashRing::new(addrs.len(), self.cfg.vnodes);
        topo.peers = (0..addrs.len()).map(|_| PeerState::fresh(now)).collect();
        topo.addrs = addrs;
    }

    /// The wrapped service (tests reach through for cache/stats).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Current live-view epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Stop the gossip loop (the thread exits within one interval).
    pub fn stop_gossip(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// This shard's current heartbeat (also advances the sequence).
    pub fn heartbeat(&self) -> ShardHeartbeat {
        let h = self.service.health();
        let heat = self.heat.lock().unwrap();
        let mut hot: Vec<u64> = heat
            .iter()
            .filter(|(_, &c)| c >= self.cfg.heat_threshold)
            .map(|(&k, _)| k)
            .collect();
        hot.sort_unstable(); // deterministic frame bytes
        hot.truncate(ClusterConfig::HOT_CAP);
        ShardHeartbeat {
            shard: self.cfg.shard,
            seq: self.seq.fetch_add(1, Ordering::SeqCst) + 1,
            epoch: self.epoch.load(Ordering::SeqCst),
            queue_depth: h.queue_depth,
            backlog_ms: h.backlog_ms,
            resident_bytes: h.resident_bytes,
            resident_tiles: h.resident_tiles,
            draining: h.draining,
            hot,
        }
    }

    /// Fold a peer's heartbeat into the live view. Resurrections (a dead
    /// peer heard from again) bump the epoch just like deaths.
    pub fn absorb(&self, hb: &ShardHeartbeat) {
        let idx = hb.shard as usize;
        let mut topo = self.topo.lock().unwrap();
        let Some(peer) = topo.peers.get_mut(idx) else {
            return; // unknown shard id: ignore, membership is static
        };
        if idx == self.cfg.shard as usize || hb.seq <= peer.last_seq {
            return; // self-echo or stale
        }
        let resurrected = !peer.alive;
        peer.alive = true;
        peer.last_seen = Instant::now();
        peer.last_seq = hb.seq;
        peer.queue_depth = hb.queue_depth;
        peer.backlog_ms = hb.backlog_ms;
        peer.draining = hb.draining;
        peer.resident_bytes = hb.resident_bytes;
        peer.hot = hb.hot.iter().copied().collect();
        drop(topo);
        if resurrected {
            self.note_rebalance(idx, "peer-rejoined");
        }
    }

    /// Sweep liveness: peers silent past the timeout are declared dead.
    /// Called from the gossip loop; public so tests can force the sweep.
    pub fn sweep_liveness(&self) {
        let timeout = self.cfg.heartbeat_timeout;
        let me = self.cfg.shard as usize;
        let mut died = Vec::new();
        {
            let mut topo = self.topo.lock().unwrap();
            for (i, p) in topo.peers.iter_mut().enumerate() {
                if i != me && p.alive && p.last_seen.elapsed() > timeout {
                    p.alive = false;
                    died.push(i);
                }
            }
        }
        for i in died {
            self.note_rebalance(i, "peer-dead");
        }
    }

    /// Record a live-view change: epoch bump, counter, flight-recorder
    /// event (visible in the Chrome trace as a `ring_rebalance` span).
    fn note_rebalance(&self, peer: usize, why: &str) {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        dtfe_telemetry::counter_add!("cluster.ring_rebalance", 1);
        let t0 = dtfe_telemetry::clock::now_us();
        self.service.flight().record(dtfe_telemetry::RequestTrace {
            trace_id: String::new(),
            reason: "rebalance".into(),
            t0_us: t0,
            spans: vec![dtfe_telemetry::SpanEvent {
                name: "ring_rebalance".into(),
                tid: self.cfg.shard as u64,
                depth: 0,
                t0_us: t0,
                dur_us: 0,
                cpu_us: 0,
                args: vec![
                    ("peer".into(), peer.to_string()),
                    ("why".into(), why.into()),
                    ("epoch".into(), epoch.to_string()),
                ],
            }],
        });
    }

    /// Spawn the gossip thread: exchange heartbeats with every peer each
    /// interval, then sweep liveness.
    pub fn start_gossip(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let node = self.clone();
        std::thread::Builder::new()
            .name(format!("dtfe-gossip-{}", self.cfg.shard))
            .spawn(move || {
                while !node.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(node.cfg.heartbeat_interval);
                    let peers: Vec<(usize, SocketAddr)> = {
                        let topo = node.topo.lock().unwrap();
                        topo.addrs
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != node.cfg.shard as usize)
                            .map(|(i, a)| (i, *a))
                            .collect()
                    };
                    for (_, addr) in peers {
                        let hb = node.heartbeat();
                        if let Some(peer_hb) =
                            gossip_exchange(addr, &hb, node.cfg.heartbeat_interval)
                        {
                            node.absorb(&peer_hb);
                        }
                    }
                    node.sweep_liveness();
                }
            })
            .expect("spawn gossip thread")
    }

    /// Count a request against a ring key's heat.
    fn touch_heat(&self, ringkey: u64) -> u32 {
        let mut heat = self.heat.lock().unwrap();
        // Crude pressure valve: forget everything rather than grow without
        // bound; hot tiles re-earn their heat in a few requests.
        if heat.len() > 4096 {
            heat.clear();
        }
        let c = heat.entry(ringkey).or_insert(0);
        *c = c.saturating_add(1);
        *c
    }

    /// Where one request should be served under the current live view. An
    /// invalid request is an `Err` before anything is counted against its
    /// tile: it fails identically on every shard, so it is nobody's to
    /// redirect.
    fn route(&self, r: &RenderRequest) -> Result<Routing, ServiceError> {
        let resolved = self.service.resolve(r)?;
        let ringkey = key_of(&resolved.tile);
        let heat = self.touch_heat(ringkey);
        let me = self.cfg.shard as usize;
        let topo = self.topo.lock().unwrap();
        if topo.addrs.len() <= 1 {
            return Ok(Routing::Local);
        }
        // Draining peers are refusing work; keep them off the ring now
        // rather than eat a refused hop (self stays live — a draining
        // local service answers `ShuttingDown` itself).
        let live: Vec<bool> = topo
            .peers
            .iter()
            .enumerate()
            .map(|(i, p)| p.alive && (i == me || !p.draining))
            .collect();
        // A tile is hot if we see it hot locally *or* any peer advertises
        // it — so replicas converge on the widened owner set.
        let hot =
            heat >= self.cfg.heat_threshold || topo.peers.iter().any(|p| p.hot.contains(&ringkey));
        let owners = topo
            .ring
            .replicas(ringkey, if hot { self.cfg.replication } else { 1 }, &live);
        if owners.is_empty() || owners.contains(&me) {
            if hot {
                dtfe_telemetry::counter_add!("cluster.hot_replica_serves", 1);
            }
            return Ok(Routing::Local);
        }
        // Rank the owners with the cost model + gossiped gauges.
        let gauges: Vec<(usize, ShardGauges)> = owners
            .iter()
            .map(|&i| {
                let p = &topo.peers[i];
                (
                    i,
                    ShardGauges {
                        resident: p.hot.contains(&ringkey),
                        queue_depth: p.queue_depth,
                        backlog_ms: p.backlog_ms,
                        draining: p.draining,
                    },
                )
            })
            .collect();
        let model = default_model();
        let best =
            cheapest(&model, resolved.particles, resolved.cells, &gauges).unwrap_or(owners[0]);
        Ok(Routing::Remote {
            owner: topo.addrs[best],
        })
    }

    /// Serve `r` locally, as a pipeline slot.
    fn serve_local(&self, r: &RenderRequest) -> Handled {
        dtfe_telemetry::counter_add!("cluster.local_serves", 1);
        match self.service.submit(r) {
            Ok(reply) => Handled::Pending(reply),
            Err(e) => Handled::ready(Response::Error(e)),
        }
    }
}

/// Where one request should be served.
enum Routing {
    Local,
    Remote { owner: SocketAddr },
}

impl RequestHandler for ClusterNode {
    fn service(&self) -> &Service {
        &self.service
    }

    fn render(&self, r: RenderRequest) -> Handled {
        let owner = match self.route(&r) {
            Ok(Routing::Local) => return self.serve_local(&r),
            Ok(Routing::Remote { owner }) => owner,
            // Invalid requests fail identically on every shard; answer
            // here rather than burn a hop.
            Err(e) => return Handled::ready(Response::Error(e)),
        };
        if r.redirect {
            // Ring-aware client: hand it the owner instead of proxying.
            dtfe_telemetry::counter_add!("cluster.not_mine", 1);
            return Handled::ready(Response::Error(ServiceError::NotMine {
                owner: owner.to_string(),
            }));
        }
        // Proxy mode (naive client, or our own ring view is stale). The
        // hop is redirect-mode so a disagreeing owner answers `NotMine`
        // instead of forwarding again — no proxy loops — and any failure
        // falls back to a bit-identical local render.
        dtfe_telemetry::counter_add!("cluster.proxied", 1);
        let service = self.service.clone();
        let timeout = proxy_timeout(&r, self.service.config());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::Builder::new()
            .name("dtfe-proxy".into())
            .spawn(move || {
                let result = match proxy_render(owner, &r, timeout) {
                    Some(outcome) => outcome,
                    None => {
                        dtfe_telemetry::counter_add!("cluster.forward_failovers", 1);
                        service.render(&r)
                    }
                };
                let _ = tx.send(result);
            })
            .expect("spawn proxy thread");
        Handled::Pending(rx)
    }

    fn gossip(&self, hb: ShardHeartbeat) -> Response {
        self.absorb(&hb);
        Response::Gossip(self.heartbeat())
    }
}

/// Deadline for one proxied hop: the request's own deadline if set, else
/// the server's write timeout, else a generous fixed cap.
fn proxy_timeout(r: &RenderRequest, cfg: &dtfe_service::ServiceConfig) -> Duration {
    if r.deadline_ms > 0 {
        Duration::from_millis(r.deadline_ms)
    } else {
        cfg.write_timeout.unwrap_or(Duration::from_secs(30))
    }
}

/// One proxied render hop. `Some(outcome)` is a definitive answer to relay
/// (field *or* typed error — an `Overloaded` from the owner is real
/// backpressure and must reach the client); `None` means the hop failed in
/// a way local failover repairs: transport trouble or `NotMine`.
fn proxy_render(
    owner: SocketAddr,
    r: &RenderRequest,
    timeout: Duration,
) -> Option<Result<dtfe_service::RenderResponse, ServiceError>> {
    let hop = Request::Render(r.clone().redirect(true));
    match peer(owner, timeout)?.call(&hop).ok()? {
        Response::Field(resp) => Some(Ok(resp)),
        // Ring disagreement or a shard on its way out: both are repaired
        // by serving locally, not by relaying the refusal.
        Response::Error(ServiceError::NotMine { .. } | ServiceError::ShuttingDown) => None,
        Response::Error(e) => Some(Err(e)),
        _ => None,
    }
}

/// One gossip exchange: send our heartbeat, return the peer's.
fn gossip_exchange(
    addr: SocketAddr,
    hb: &ShardHeartbeat,
    timeout: Duration,
) -> Option<ShardHeartbeat> {
    match peer(addr, timeout)?
        .call(&Request::Gossip(hb.clone()))
        .ok()?
    {
        Response::Gossip(peer_hb) => Some(peer_hb),
        _ => None,
    }
}

/// A connection to a peer shard with one deadline on every socket step.
fn peer(addr: SocketAddr, timeout: Duration) -> Option<Client> {
    Client::connect_timeout(&addr, timeout, Some(timeout), Some(timeout)).ok()
}
