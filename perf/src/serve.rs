//! `serve_warm` and `serve_churn`: closed-loop `Client` connections over
//! loopback to a `TcpServer` on an in-process `Service`.
//!
//! The two differ in one thing, how the working set compares with the tile
//! cache. Warm: every tile stays resident, so each timed request is a hit
//! and socket, `wire`, admission, queue and a small render are the whole
//! cost; `delaunay` does nothing. Churn: the client scans more tiles than
//! the cache holds, so LRU serves no hit and each request is a ghost-padded
//! tile extraction, a serial build, an insert and an eviction; the render is
//! almost nothing. A build optimisation must move churn and leave warm
//! alone; collapsing the wire or retry layers, the reverse.

use crate::measure::{checksum, cyclic_sequence, halo_box, timed, zipf_sequence, Rng};
use crate::run::{Phase, Workload};
use dtfe_framework::Decomposition;
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::snapshot::{read_all, write_snapshot};
use dtfe_service::{
    Client, EstimatorKind, RenderRequest, RenderResponse, Response, Service, ServiceConfig,
    TcpServer,
};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const BOX_LEN: f64 = 32.0;
const SNAPSHOT_ID: &str = "perf";

/// What distinguishes the two serving workloads.
struct Spec {
    particles: usize,
    tiles: usize,
    field_len: f64,
    resolution: usize,
    /// Closed-loop connections, one thread each.
    clients: usize,
    /// Requests alternate through these backends; each is its own tile key.
    estimators: &'static [EstimatorKind],
    cache_budget_bytes: usize,
    /// Requests per client per round.
    round_len: usize,
    /// Zipf exponent of tile popularity; `None` scans the tiles cyclically.
    zipf: Option<f64>,
}

/// One request of a client's list. Each has a centre of its own: what a
/// render costs follows the density around its centre, and over a few
/// hundred centres that averages out where over one centre per tile it
/// would follow the seed.
struct Probe {
    tile: usize,
    /// Index into `Spec::estimators`.
    estimator: usize,
    center: Vec3,
}

pub struct Serve {
    spec: Spec,
    points: Vec<Vec3>,
    bounds: Aabb3,
    /// Every client's round, one after the other.
    probes: Vec<Probe>,
    /// Each client's round as a range of `probes`: the same list every round.
    rounds: Vec<std::ops::Range<usize>>,
    dir: PathBuf,
}

/// The stack under test, up and connected.
pub struct Stack {
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    server: JoinHandle<()>,
    clients: Vec<Client>,
    /// Checksum of the field first served for each probe, by its index.
    seen: HashMap<usize, u64>,
    ops: u64,
}

struct Served {
    probe: usize,
    ms: f64,
    response: Result<RenderResponse, String>,
}

impl Serve {
    fn new(spec: Spec, seed: u64, dir: &Path) -> Serve {
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(BOX_LEN));
        // Sixteen halos to a tile, so no tile is much heavier than the next.
        let (points, _) = halo_box(BOX_LEN, spec.particles, 16 * spec.tiles, seed);
        let decomp = Decomposition::new(bounds, spec.tiles);
        let tiles = decomp.num_ranks();
        let mut rng = Rng(seed ^ 0x5E47E);
        let mut probes = Vec::new();
        let mut rounds = Vec::new();
        for _ in 0..spec.clients {
            let list = match spec.zipf {
                Some(s) => zipf_sequence(tiles, s, spec.round_len, &mut rng),
                None => cyclic_sequence(tiles, &mut rng),
            };
            let first = probes.len();
            for (i, tile) in list.into_iter().enumerate() {
                // Off the tile's middle by up to a quarter of its side: in
                // the tile whatever the seed, so popularity stays per tile.
                let bx = decomp.rank_box(tile);
                let mut nudge = |lo: f64, hi: f64| (rng.next_f64() - 0.5) * 0.5 * (hi - lo);
                let center = bx.center()
                    + Vec3::new(
                        nudge(bx.lo.x, bx.hi.x),
                        nudge(bx.lo.y, bx.hi.y),
                        nudge(bx.lo.z, bx.hi.z),
                    );
                probes.push(Probe {
                    tile,
                    estimator: i % spec.estimators.len(),
                    center,
                });
            }
            rounds.push(first..probes.len());
        }
        Serve {
            spec,
            points,
            bounds,
            probes,
            rounds,
            dir: dir.to_path_buf(),
        }
    }

    fn config(&self) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(self.spec.field_len, self.spec.resolution);
        cfg.tiles = self.spec.tiles;
        cfg.cache_budget_bytes = self.spec.cache_budget_bytes;
        cfg
    }

    fn request(&self, probe: usize) -> RenderRequest {
        let probe = &self.probes[probe];
        RenderRequest::new(SNAPSHOT_ID, probe.center)
            .estimator(self.spec.estimators[probe.estimator])
    }

    fn call(&self, client: &mut Client, probe: usize, op: u64) -> Served {
        let request = self.request(probe);
        let (response, ms) = timed("bench.client.render", op, || client.render(&request));
        Served {
            probe,
            ms,
            response: response.map_err(|e| e.to_string()),
        }
    }

    /// Book one served request: its bytes against what the target served
    /// before, and the stage breakdown the response carries.
    fn book(&self, served: Served, stack: &mut Stack, phase: &mut Phase, timed_phase: bool) {
        let response = match served.response {
            Ok(r) => r,
            Err(e) => {
                eprintln!("request failed: {e}");
                phase.op(served.ms, 0, false);
                return;
            }
        };
        let sum = checksum(&response.data);
        let ok = *stack.seen.entry(served.probe).or_insert(sum) == sum && !response.meta.degraded;
        phase.op(served.ms, 1, ok);
        let meta = &response.meta;
        let layers = &mut phase.layers;
        if !meta.cache_hit {
            layers.record("service.build_ms_p50", meta.build_us as f64 / 1e3);
        }
        if timed_phase {
            layers.record("service.admission_us_p50", meta.admission_us as f64);
            layers.record("service.queue_us_p50", meta.queue_us as f64);
            layers.record("service.render_ms_p50", meta.render_us as f64 / 1e3);
            layers.record(
                "service.cache_hit_ratio",
                f64::from(u8::from(meta.cache_hit)),
            );
            layers.record("service.batch_size_mean", f64::from(meta.batch_size));
            layers.record(
                "wire.overhead_us_p50",
                served.ms * 1e3 - meta.stage_sum_us() as f64,
            );
        }
    }

    /// What the codec costs on a response the server really sent.
    fn codec(&self, response: RenderResponse, phase: &mut Phase) {
        let response = Response::Field(response);
        for i in 0..20 {
            let (bytes, ms) = timed("bench.wire.encode", i, || response.encode());
            phase.layers.record("wire.encode_us", ms * 1e3);
            phase
                .layers
                .record("wire.response_bytes", bytes.len() as f64);
            let (decoded, ms) = timed("bench.wire.decode", i, || Response::decode(&bytes));
            phase.layers.record("wire.decode_us", ms * 1e3);
            if decoded.ok().as_ref() != Some(&response) {
                eprintln!("MISMATCH: a response does not survive encode and decode");
                phase.failed += 1;
            }
        }
    }
}

impl Workload for Serve {
    type State = Stack;

    fn setup(&self, phase: &mut Phase) -> Stack {
        let path = self.dir.join(format!("{SNAPSHOT_ID}.snap"));
        let (_, ms) = timed("bench.nbody.write_snapshot", 0, || {
            write_snapshot(&path, std::slice::from_ref(&self.points), self.bounds)
                .expect("write snapshot")
        });
        phase.layers.record("nbody.snapshot_write_ms", ms);
        // The registry reads the file the same way when the first request
        // arrives; here the read has a clock around it.
        let ((_, points), ms) = timed("bench.nbody.read_all", 0, || {
            read_all(&path).expect("read snapshot")
        });
        phase.layers.record("nbody.snapshot_read_ms", ms);
        let mib = (points.len() * 24) as f64 / (1 << 20) as f64;
        phase
            .layers
            .record("nbody.snapshot_read_mb_per_s", mib / (ms / 1e3));
        drop(points);

        let service = Arc::new(Service::start(&self.dir, self.config()).expect("start service"));
        let server = TcpServer::bind(service.clone(), ("127.0.0.1", 0)).expect("bind loopback");
        let addr = server.local_addr().expect("server address");
        let stop = server.stop_handle();
        let server = std::thread::spawn(move || server.serve());
        let clients = (0..self.spec.clients)
            .map(|_| Client::connect(addr).expect("connect"))
            .collect();
        let mut stack = Stack {
            service,
            stop,
            server,
            clients,
            seen: HashMap::new(),
            ops: 0,
        };

        // Warm-up: every tile key once. With a zipf list each cold build
        // lands here and none in the timed phase. A cyclic scan has no warm
        // state to reach, but one whole scan costs the same whatever the
        // seed (a few tiles of it would not), and in scan order it leaves
        // the cache holding the tiles the next scan asks for last.
        let mut built = HashSet::new();
        let mut first = None;
        for probe in 0..self.probes.len() {
            let Probe {
                tile, estimator, ..
            } = self.probes[probe];
            if !built.insert((tile, estimator)) {
                continue;
            }
            let served = self.call(&mut stack.clients[0], probe, 0);
            first = first.or_else(|| served.response.clone().ok());
            self.book(served, &mut stack, phase, false);
        }
        if let Some(response) = first {
            self.codec(response, phase);
        }
        stack
    }

    fn round(&self, stack: &mut Stack, phase: &mut Phase) {
        let service = stack.service.clone();
        let (cache, stats) = (service.cache(), service.stats());
        let counts = || {
            [
                cache.stats.evictions.load(Ordering::Relaxed),
                stats.shed.load(Ordering::Relaxed),
                stats.rejected.load(Ordering::Relaxed),
            ]
        };
        let before = counts();
        let first_op = stack.ops;
        let served: Vec<Vec<Served>> = std::thread::scope(|scope| {
            let handles: Vec<_> = stack
                .clients
                .iter_mut()
                .zip(&self.rounds)
                .enumerate()
                .map(|(c, (client, list))| {
                    scope.spawn(move || {
                        list.clone()
                            .enumerate()
                            .map(|(i, probe)| {
                                let op = first_op + (i * self.rounds.len() + c) as u64 + 1;
                                self.call(client, probe, op)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let ops: usize = served.iter().map(Vec::len).sum();
        stack.ops += ops as u64;
        for s in served.into_iter().flatten() {
            self.book(s, stack, phase, true);
        }
        let after = counts();
        let per_op = |i: usize| (after[i] - before[i]) as f64 / ops as f64;
        let layers = &mut phase.layers;
        layers.record("service.cache_evictions", per_op(0));
        layers.record("service.shed", per_op(1));
        layers.record("service.rejected", per_op(2));
        layers.record(
            "service.resident_mb",
            cache.resident_bytes() as f64 / (1 << 20) as f64,
        );
    }

    /// Every probe served, against `Service::render` on a second, in-process
    /// service over the same snapshot: no socket, no codec, default cache.
    fn verify(&self, stack: &mut Stack, phase: &mut Phase) {
        let mut cfg = ServiceConfig::new(self.spec.field_len, self.spec.resolution);
        cfg.tiles = self.spec.tiles;
        let reference = Service::start(&self.dir, cfg).expect("start reference service");
        // Tile by tile, so the reference builds each tile once.
        let mut served: Vec<_> = stack.seen.iter().collect();
        served.sort_by_key(|(&p, _)| (self.probes[p].tile, self.probes[p].estimator, p));
        for (&probe, &sum) in served {
            match reference.render(&self.request(probe)) {
                Ok(r) if checksum(&r.data) == sum => {}
                Ok(_) => {
                    eprintln!("MISMATCH: probe {probe} differs from Service::render");
                    phase.failed += 1;
                }
                Err(e) => {
                    eprintln!("reference render failed: {e}");
                    phase.failed += 1;
                }
            }
        }
        reference.drain();
    }

    fn teardown(&self, stack: Stack) {
        // Close the connections first, or their handler threads sit out the
        // read timeout before `serve` returns.
        drop(stack.clients);
        stack.stop.store(true, Ordering::SeqCst);
        stack.server.join().expect("server thread");
    }
}

const DTFE_AND_PS: &[EstimatorKind] = &[EstimatorKind::Dtfe, EstimatorKind::PsDtfe];
const DTFE: &[EstimatorKind] = &[EstimatorKind::Dtfe];

impl Serve {
    /// `serve_warm`: 2 clients, 8 tiles, zipf(1.1), `dtfe` and `psdtfe`
    /// alternating, and a cache budget raised until all 16 tile keys stay
    /// resident (`ServiceConfig::new`'s 256 MiB holds about half of them).
    pub fn warm(seed: u64, smoke: bool, dir: &Path) -> Serve {
        let spec = Spec {
            particles: if smoke { 6_000 } else { 40_000 },
            tiles: 8,
            field_len: 4.0,
            resolution: if smoke { 16 } else { 64 },
            clients: 2,
            estimators: DTFE_AND_PS,
            cache_budget_bytes: 1 << 30,
            round_len: if smoke { 24 } else { 100 },
            zipf: Some(1.1),
        };
        Serve::new(spec, seed, dir)
    }

    /// `serve_churn`: 1 client scanning 27 tiles through a cache that holds
    /// a few of them.
    pub fn churn(seed: u64, smoke: bool, dir: &Path) -> Serve {
        let spec = Spec {
            particles: if smoke { 6_000 } else { 120_000 },
            tiles: 27,
            field_len: 4.0,
            resolution: if smoke { 16 } else { 64 },
            clients: 1,
            estimators: DTFE,
            cache_budget_bytes: if smoke { 4 << 20 } else { 64 << 20 },
            round_len: 27,
            zipf: None,
        };
        Serve::new(spec, seed, dir)
    }
}
