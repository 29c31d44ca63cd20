//! One cluster shard: a [`Service`] wrapped with ring ownership, gossip,
//! and failover.
//!
//! ## Request flow
//!
//! A shard receiving a render resolves the tile key exactly like a
//! single-node server, hashes it onto the ring, and finds the tile's
//! primary in its *live view* of the cluster (dead and draining peers are
//! skipped by the ring walk — that is the failover rehash). Then:
//!
//! * **self is the primary** (or the node runs solo): serve locally;
//! * **a peer's forward** ([`RenderRequest::forwarded`] set): serve
//!   locally even if this shard's view names another primary — a forward
//!   is never forwarded again, so no request can loop;
//! * **otherwise** (any client's request for a tile another shard owns):
//!   forward it to the primary with `forwarded` set and relay the answer;
//!   on a failed hop (primary dead, mid-stream cut, `ShuttingDown`) the
//!   shard serves the tile itself. Every shard loads the same snapshots
//!   and builds tiles with the same single-threaded builder, so a failover
//!   render is bit-identical to the primary's; failover costs latency,
//!   never correctness.
//!
//! So a tile is resident only on the shard that serves it: its primary,
//! or the shard that rendered it on failover. No shard keeps a second copy
//! of a tile another shard serves.
//!
//! ## Gossip
//!
//! Shards exchange [`ShardHeartbeat`]s on a fixed interval over the same
//! wire protocol (symmetric piggyback: the request carries the sender's
//! heartbeat, the response the receiver's). A heartbeat carries liveness
//! only: the sender, its per-boot sequence number, and whether it is
//! draining. A peer whose heartbeat goes silent past
//! [`ClusterConfig::heartbeat_timeout`] is marked dead, and one heard from
//! again is alive; either way the live view changes, the ring **epoch**
//! bumps, a `cluster.ring_rebalance` counter ticks, and a rebalance event
//! lands in the flight recorder. A restarted peer counts its sequence from
//! zero again, so a peer marked dead is taken back on any heartbeat.

use crate::ring::{key_of, HashRing};
use dtfe_service::server::unpoisoned;
use dtfe_service::{
    Client, Handled, RenderRequest, Request, RequestHandler, Response, Service, ServiceError,
    ShardHeartbeat,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shard-local cluster settings. The ring geometry (`vnodes`) must agree
/// across every shard and ring-aware client, or first hops miss the owner
/// and pay a forward; everything else is per-shard tunable.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// This shard's index into the peer address list.
    pub shard: u32,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Gossip exchange period.
    pub heartbeat_interval: Duration,
    /// Silence after which a peer is declared dead and its arcs rehash.
    pub heartbeat_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shard: 0,
            vnodes: 128,
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
    draining: bool,
}

impl PeerState {
    fn fresh(now: Instant) -> PeerState {
        PeerState {
            alive: true,
            last_seen: now,
            last_seq: 0,
            draining: false,
        }
    }
}

/// The mutable cluster view: peer addresses (index = shard id), the ring
/// built over them, and per-peer liveness.
struct Topology {
    addrs: Vec<SocketAddr>,
    ring: HashRing,
    peers: Vec<PeerState>,
}

/// A cluster shard. Implements [`RequestHandler`], so it plugs into
/// [`dtfe_service::TcpServer::bind_with`] unchanged.
///
/// Its locks go through [`unpoisoned`]: poison cannot occur, as no node
/// lock is held across a hop, a render or a gossip exchange.
pub struct ClusterNode {
    service: Arc<Service>,
    cfg: ClusterConfig,
    topo: Mutex<Topology>,
    /// Live-view generation; bumps on every peer death or resurrection.
    epoch: AtomicU64,
    /// Heartbeat sequence (stale-heartbeat rejection on receivers).
    seq: AtomicU64,
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
            stop: AtomicBool::new(false),
        })
    }

    /// Install the cluster membership: `addrs[i]` is shard `i`'s listener.
    /// All peers start presumed-live with a fresh liveness grace period.
    /// A membership without this shard's own index is `InvalidInput`.
    pub fn configure_peers(&self, addrs: Vec<SocketAddr>) -> std::io::Result<()> {
        if self.cfg.shard as usize >= addrs.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "own shard index {} outside peer list of {}",
                    self.cfg.shard,
                    addrs.len()
                ),
            ));
        }
        let now = Instant::now();
        let mut topo = unpoisoned(self.topo.lock());
        topo.ring = HashRing::new(addrs.len(), self.cfg.vnodes);
        topo.peers = (0..addrs.len()).map(|_| PeerState::fresh(now)).collect();
        topo.addrs = addrs;
        Ok(())
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
        ShardHeartbeat {
            shard: self.cfg.shard,
            seq: self.seq.fetch_add(1, Ordering::SeqCst) + 1,
            draining: self.service.health().draining,
        }
    }

    /// Fold a peer's heartbeat into the live view. Resurrections (a dead
    /// peer heard from again) bump the epoch just like deaths. A live
    /// peer's heartbeat that is not newer than the last one is stale and
    /// ignored; a dead peer's is always taken, since a restarted shard
    /// counts its sequence from zero again.
    pub fn absorb(&self, hb: &ShardHeartbeat) {
        let idx = hb.shard as usize;
        let mut topo = unpoisoned(self.topo.lock());
        let Some(peer) = topo.peers.get_mut(idx) else {
            return; // unknown shard id: ignore, membership is static
        };
        if idx == self.cfg.shard as usize || (peer.alive && hb.seq <= peer.last_seq) {
            return; // self-echo or stale
        }
        let resurrected = !peer.alive;
        peer.alive = true;
        peer.last_seen = Instant::now();
        peer.last_seq = hb.seq;
        peer.draining = hb.draining;
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
            let mut topo = unpoisoned(self.topo.lock());
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
    pub fn start_gossip(self: &Arc<Self>) -> std::io::Result<std::thread::JoinHandle<()>> {
        let node = self.clone();
        std::thread::Builder::new()
            .name(format!("dtfe-gossip-{}", self.cfg.shard))
            .spawn(move || {
                while !node.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(node.cfg.heartbeat_interval);
                    let peers: Vec<(usize, SocketAddr)> = {
                        let topo = unpoisoned(node.topo.lock());
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
                            gossip_exchange(addr, hb, node.cfg.heartbeat_interval)
                        {
                            node.absorb(&peer_hb);
                        }
                    }
                    node.sweep_liveness();
                }
            })
    }

    /// Where one request should be served under the current live view:
    /// here if this shard is the tile's live-view primary or runs solo,
    /// otherwise at the primary. An invalid request is an `Err`: it fails
    /// identically on every shard, so it is nobody's to forward.
    fn route(&self, r: &RenderRequest) -> Result<Routing, ServiceError> {
        let ringkey = key_of(&self.service.resolve(r)?.tile);
        let me = self.cfg.shard as usize;
        let topo = unpoisoned(self.topo.lock());
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
        match topo.ring.primary(ringkey, &live) {
            Some(primary) if primary != me => Ok(Routing::Remote {
                owner: topo.addrs[primary],
            }),
            _ => Ok(Routing::Local),
        }
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
            Ok(Routing::Remote { owner }) if !r.forwarded => owner,
            // Ours, or a peer's forward: a forward is served here whatever
            // our view says, never forwarded twice, so no request can loop.
            Ok(_) => return self.serve_local(&r),
            // Invalid requests fail identically on every shard; answer
            // here rather than burn a hop.
            Err(e) => return Handled::ready(Response::Error(e)),
        };
        // Forward to the owner, marked so it serves rather than forwards
        // again; a failed hop falls back to a bit-identical local render.
        dtfe_telemetry::counter_add!("cluster.proxied", 1);
        let service = self.service.clone();
        let timeout = proxy_timeout(&r, self.service.config());
        let (tx, rx) = std::sync::mpsc::channel();
        let hop = r.clone().forwarded(true);
        let spawned = std::thread::Builder::new()
            .name("dtfe-proxy".into())
            .spawn(move || {
                let result = proxy_render(owner, &hop, timeout).unwrap_or_else(|| {
                    dtfe_telemetry::counter_add!("cluster.forward_failovers", 1);
                    service.render(&hop)
                });
                let _ = tx.send(result);
            });
        match spawned {
            Ok(_) => Handled::Pending(rx),
            // No thread for the hop: serve the tile here instead.
            Err(_) => self.serve_local(&r),
        }
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

/// One forwarded render hop (`hop` has `forwarded` set). `Some(outcome)`
/// is a definitive answer to relay (field *or* typed error — an
/// `Overloaded` from the owner is real backpressure and must reach the
/// client); `None` means the hop failed in a way local failover repairs:
/// transport trouble or an owner on its way out.
fn proxy_render(
    owner: SocketAddr,
    hop: &RenderRequest,
    timeout: Duration,
) -> Option<Result<dtfe_service::RenderResponse, ServiceError>> {
    match peer(owner, timeout)?
        .call(&Request::Render(hop.clone()))
        .ok()?
    {
        Response::Field(resp) => Some(Ok(resp)),
        Response::Error(ServiceError::ShuttingDown) => None,
        Response::Error(e) => Some(Err(e)),
        _ => None,
    }
}

/// One gossip exchange: send our heartbeat, return the peer's.
fn gossip_exchange(
    addr: SocketAddr,
    hb: ShardHeartbeat,
    timeout: Duration,
) -> Option<ShardHeartbeat> {
    match peer(addr, timeout)?.call(&Request::Gossip(hb)).ok()? {
        Response::Gossip(peer_hb) => Some(peer_hb),
        _ => None,
    }
}

/// A connection to a peer shard with one deadline on every socket step.
fn peer(addr: SocketAddr, timeout: Duration) -> Option<Client> {
    Client::connect_timeout(&addr, timeout, Some(timeout), Some(timeout)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_geometry::{Aabb3, Vec3};
    use dtfe_service::ServiceConfig;

    /// A draining peer leaves the live view on its heartbeat, before any
    /// timeout: a request for a tile it is primary of is served here, not
    /// forwarded to a shard that would refuse it.
    #[test]
    fn a_draining_peer_gets_no_forwards() {
        let dir = std::env::temp_dir().join(format!("dtfe_node_{}_draining", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(8.0));
        let points: Vec<Vec3> = (0..512)
            .map(|i| {
                let f = f64::from(i);
                Vec3::new((f * 0.37) % 8.0, (f * 0.61) % 8.0, (f * 0.83) % 8.0)
            })
            .collect();
        dtfe_nbody::snapshot::write_snapshot(&dir.join("c.snap"), &[points], bounds).unwrap();
        let mut cfg = ServiceConfig::new(4.0, 16);
        cfg.tiles = 4;
        let service = Arc::new(Service::start(&dir, cfg).unwrap());
        let node = ClusterNode::new(service, ClusterConfig::default());
        let addrs = vec![([127, 0, 0, 1], 1).into(), ([127, 0, 0, 1], 2).into()];
        node.configure_peers(addrs).unwrap();

        let peer_owned = [2.0, 6.0]
            .iter()
            .flat_map(|&x| [2.0, 6.0].map(|y| RenderRequest::new("c", Vec3::new(x, y, 4.0))))
            .find(|r| matches!(node.route(r), Ok(Routing::Remote { .. })))
            .expect("shard 1 is primary of one of the four tiles");
        node.absorb(&ShardHeartbeat {
            shard: 1,
            seq: 1,
            draining: true,
        });
        assert!(matches!(node.route(&peer_owned), Ok(Routing::Local)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
