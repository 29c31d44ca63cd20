//! Load driver and bit-checker for the serving tier. It only ever talks to
//! TCP listeners; what `perf/` measures (throughput, cold/warm latency,
//! stage breakdowns) is not reported here.
//!
//! **Target** — a list of listener addresses: given (`--addrs A[,B,C]`: a
//! running `dtfe-served`, or every shard of a `dtfe-clusterd` in shard
//! order) or booted in this process through [`LocalCluster`] (`--shards N`,
//! default 1; `--chaos SEED` puts a seeded [`ChaosProxy`] in front of a
//! one-shard local target). One address is driven by the `--client
//! naive|retry` wire client, several by the ring-aware [`ClusterClient`].
//! `--kill-shard I` takes shard `I` down at the warm phase's midpoint.
//! `--snapshots` must hold the files the target serves (a missing
//! `--snapshot` id is seeded with the demo cloud).
//!
//! **Phases** — first an in-process single-node [`Service`] over the same
//! snapshot renders every (tile, estimator) request once: the reference
//! map. Every shard builds the same padded tile from the same snapshot, so
//! any listener's answer must equal it bit for bit; one that does not is
//! counted `corrupt`. Then a **cold sweep**, one request per tile, serially; then
//! the **warm open loop**, `--requests` requests at `--rate` req/s with
//! zipf(`--zipf`) tile popularity on a fixed arrival schedule. Request `i`
//! uses `estimators[i % len]`. `--trace` samples every request into the
//! server's flight recorder; `--dump-out` / `--stats-out` save that dump
//! and the stats document (fetched from a listener directly, never through
//! the fault proxy) for `trace_check`. A local target is always drained
//! over the wire afterwards, a given one under `--shutdown`.
//!
//! **Exit codes** — 0: every check held. 1: a corrupt payload or a failed
//! drain (any mode); a request error or unaccounted response when nothing
//! was being broken on purpose (under `--chaos` or `--kill-shard`, typed
//! errors are the contract and `--slo error_rate=` is the gate); a
//! breached `--slo p99=MS,error_rate=FRAC`. 2: usage.
//!
//! ```text
//! cargo run --release -p dtfe-bench --bin loadgen [-- --requests 400 --rate 100]
//! cargo run --release -p dtfe-bench --bin loadgen -- --addrs 127.0.0.1:7433 --shutdown
//! cargo run --release -p dtfe-bench --bin loadgen -- --shards 3 --kill-shard 2 --slo error_rate=0.1
//! cargo run --release -p dtfe-bench --bin loadgen -- --chaos 42 --client retry
//! ```

use dtfe_cluster::{ClusterClient, ClusterConfig, LocalCluster, ShardSpec};
use dtfe_core::EstimatorKind;
use dtfe_framework::Decomposition;
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::halos::{clustered_box, ClusteredBoxSpec};
use dtfe_nbody::snapshot::{read_info, write_snapshot};
use dtfe_service::{
    ChaosProxy, Client, ClientConfig, RenderRequest, RenderResponse, ResilientClient, Service,
    ServiceConfig, SocketFaultPlan, SocketFaultRule, TraceContext,
};
use dtfe_telemetry::json::number;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Args {
    /// Listeners of a running target, in shard order; empty boots a local
    /// one.
    addrs: Vec<String>,
    /// Shards of the local target.
    shards: usize,
    snapshots: PathBuf,
    snapshot_id: String,
    requests: usize,
    rate: f64,
    zipf: f64,
    tiles: usize,
    field_len: f64,
    resolution: usize,
    /// Size of the demo cloud seeded when the snapshot is missing.
    particles: usize,
    senders: usize,
    seed: u64,
    estimators: Vec<EstimatorKind>,
    /// Drain a given target over the wire afterwards and require the acks.
    shutdown: bool,
    chaos: Option<u64>,
    client: ClientKind,
    /// Report path (default `target/experiments/loadgen_report.json`).
    out: Option<PathBuf>,
    trace: bool,
    slo: Option<Slo>,
    dump_out: Option<PathBuf>,
    stats_out: Option<PathBuf>,
    kill_shard: Option<usize>,
}

/// `--slo p99=MS,error_rate=FRAC`; either key may be omitted.
#[derive(Clone, Copy, Default)]
struct Slo {
    p99_ms: Option<f64>,
    error_rate: Option<f64>,
}

impl Slo {
    fn parse(spec: &str) -> Option<Slo> {
        let mut slo = Slo::default();
        for part in spec.split(',') {
            let (key, value) = part.split_once('=')?;
            let value: f64 = value.trim().parse().ok()?;
            if !value.is_finite() || value < 0.0 {
                return None;
            }
            match key.trim() {
                "p99" => slo.p99_ms = Some(value),
                "error_rate" => slo.error_rate = Some(value),
                _ => return None,
            }
        }
        (slo.p99_ms.is_some() || slo.error_rate.is_some()).then_some(slo)
    }
}

/// `--client naive|retry` picks the wire client for a one-listener target;
/// several listeners are always driven ring-aware.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ClientKind {
    Naive,
    Retry,
    Ring,
}

impl ClientKind {
    fn label(self) -> &'static str {
        match self {
            ClientKind::Naive => "naive",
            ClientKind::Retry => "retry",
            ClientKind::Ring => "ring",
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addrs A[,B,C] | --shards N] [--snapshots DIR] [--snapshot ID] \
         [--requests N] [--rate R] [--zipf S] [--tiles N] [--field-len L] [--resolution N] \
         [--particles N] [--senders N] [--seed N] [--estimators dtfe,psdtfe,...] [--shutdown] \
         [--chaos SEED] [--client naive|retry] [--out FILE] [--trace] \
         [--slo p99=MS,error_rate=FRAC] [--dump-out FILE] [--stats-out FILE] [--kill-shard I]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        addrs: Vec::new(),
        shards: 1,
        snapshots: PathBuf::from("target/service-snapshots"),
        snapshot_id: "demo".into(),
        requests: 200,
        rate: 50.0,
        zipf: 1.1,
        tiles: 8,
        field_len: 8.0,
        resolution: 64,
        particles: 120_000,
        senders: 8,
        seed: 42,
        estimators: vec![EstimatorKind::Dtfe],
        shutdown: false,
        chaos: None,
        client: ClientKind::Naive,
        out: None,
        trace: false,
        slo: None,
        dump_out: None,
        stats_out: None,
        kill_shard: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addrs" => args.addrs = val().split(',').map(|s| s.trim().to_string()).collect(),
            "--shards" => args.shards = val().parse().unwrap_or_else(|_| usage()),
            "--snapshots" => args.snapshots = PathBuf::from(val()),
            "--snapshot" => args.snapshot_id = val(),
            "--requests" => args.requests = val().parse().unwrap_or_else(|_| usage()),
            "--rate" => args.rate = val().parse().unwrap_or_else(|_| usage()),
            "--zipf" => args.zipf = val().parse().unwrap_or_else(|_| usage()),
            "--tiles" => args.tiles = val().parse().unwrap_or_else(|_| usage()),
            "--field-len" => args.field_len = val().parse().unwrap_or_else(|_| usage()),
            "--resolution" => args.resolution = val().parse().unwrap_or_else(|_| usage()),
            "--particles" => args.particles = val().parse().unwrap_or_else(|_| usage()),
            "--senders" => args.senders = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--estimators" => {
                args.estimators = val()
                    .split(',')
                    .map(|s| EstimatorKind::parse_label(s.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--shutdown" => args.shutdown = true,
            "--chaos" => args.chaos = Some(val().parse().unwrap_or_else(|_| usage())),
            "--client" => {
                args.client = match val().as_str() {
                    "naive" => ClientKind::Naive,
                    "retry" => ClientKind::Retry,
                    _ => usage(),
                }
            }
            "--out" => args.out = Some(PathBuf::from(val())),
            "--trace" => args.trace = true,
            "--slo" => args.slo = Some(Slo::parse(&val()).unwrap_or_else(|| usage())),
            "--dump-out" => args.dump_out = Some(PathBuf::from(val())),
            "--stats-out" => args.stats_out = Some(PathBuf::from(val())),
            "--kill-shard" => args.kill_shard = Some(val().parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    let given = !args.addrs.is_empty();
    let nshards = if given { args.addrs.len() } else { args.shards };
    let conflict = if args.estimators.is_empty() || nshards == 0 {
        Some("need at least one estimator and one shard")
    } else if args.chaos.is_some() && (given || nshards != 1) {
        Some("--chaos boots its own one-shard target; it conflicts with --addrs and --shards")
    } else if args.kill_shard.is_some_and(|k| nshards < 2 || k >= nshards) {
        Some("--kill-shard needs several shards and an index inside them")
    } else {
        None
    };
    if let Some(msg) = conflict {
        eprintln!("{msg}");
        std::process::exit(2)
    }
    if nshards > 1 {
        args.client = ClientKind::Ring;
    }
    args
}

struct Xorshift(u64);

impl Xorshift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over `0..k` (rank r has weight `1/(r+1)^s`).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(k: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(k);
        let mut acc = 0.0;
        for r in 0..k {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Xorshift) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The all-kinds fault mix for `--chaos` runs: every injector fires with
/// equal probability, totalling 0.35 per frame, so a bounded-retry client
/// usually gets through while every failure mode is exercised.
fn chaos_rule() -> SocketFaultRule {
    SocketFaultRule::all()
        .drop(0.05)
        .delay(0.05, Duration::from_millis(5))
        .truncate(0.05)
        .split(0.05)
        .stall(0.05, Duration::from_millis(30))
        .reset(0.05)
        .bitflip(0.05)
}

/// The listeners under test.
struct Target {
    /// Where renders go: the listeners, or under `--chaos` the fault proxy
    /// in front of the only one.
    render: Vec<SocketAddr>,
    /// The listeners themselves. Control frames (health, stats, dump,
    /// shutdown) document or end the run; they never ride through it.
    direct: Vec<SocketAddr>,
    local: Option<LocalCluster>,
    proxy: Option<ChaosProxy>,
}

impl Target {
    fn open(args: &Args) -> Target {
        if !args.addrs.is_empty() {
            let direct: Vec<SocketAddr> = args
                .addrs
                .iter()
                .map(|a| {
                    a.to_socket_addrs()
                        .ok()
                        .and_then(|mut it| it.next())
                        .unwrap_or_else(|| {
                            eprintln!("bad address {a}");
                            std::process::exit(2)
                        })
                })
                .collect();
            return Target {
                render: direct.clone(),
                direct,
                local: None,
                proxy: None,
            };
        }
        let specs = (0..args.shards)
            .map(|i| {
                let mut service = ServiceConfig::new(args.field_len, args.resolution);
                service.tiles = args.tiles;
                // One process-global telemetry recorder: shard 0 owns it.
                service.telemetry = i == 0;
                // Severed or killed connections must not pin handler
                // threads for the default 10 s when the run tears down.
                service.read_timeout = Some(Duration::from_millis(500));
                service.write_timeout = Some(Duration::from_millis(500));
                ShardSpec {
                    service,
                    cluster: ClusterConfig {
                        shard: i as u32,
                        ..ClusterConfig::default()
                    },
                    bind: ([127, 0, 0, 1], 0).into(),
                }
            })
            .collect();
        let local = LocalCluster::boot(&args.snapshots, specs, None).expect("boot local target");
        let direct = local.addrs().to_vec();
        let proxy = args.chaos.map(|seed| {
            let plan = SocketFaultPlan::seeded(seed).rule(chaos_rule());
            ChaosProxy::start(plan, direct[0]).expect("start chaos proxy")
        });
        Target {
            render: proxy.as_ref().map_or(direct.clone(), |p| vec![p.addr()]),
            direct,
            local: Some(local),
            proxy,
        }
    }
}

/// One sender's connection. The naive variant reconnects lazily after a
/// failed request (one error per fault, no retries); the others carry
/// their own retry discipline.
enum Conn {
    Naive {
        client: Option<Client>,
        addr: SocketAddr,
    },
    Retry(Box<ResilientClient>),
    Ring(Box<ClusterClient>),
}

impl Conn {
    /// Render; the second value is the index of the serving shard.
    fn render(&mut self, req: &RenderRequest) -> Result<(RenderResponse, usize), String> {
        match self {
            Conn::Naive { client, addr } => {
                if client.is_none() {
                    *client = Some(Client::connect(*addr).map_err(|e| format!("connect: {e}"))?);
                }
                let result = client.as_mut().unwrap().render(req);
                if result.is_err() {
                    // The connection may be mid-frame garbage now; a naive
                    // client's only move is to throw it away.
                    *client = None;
                }
                result.map(|r| (r, 0)).map_err(|e| e.to_string())
            }
            Conn::Retry(client) => client
                .render(req)
                .map(|r| (r, 0))
                .map_err(|e| e.to_string()),
            Conn::Ring(client) => client.render(req).map_err(|e| e.to_string()),
        }
    }

    /// `[retries, reconnects, giveups]` for the report.
    fn client_stats(&self) -> [u64; 3] {
        match self {
            Conn::Retry(client) => [
                client.stats.retries.load(Ordering::Relaxed),
                client.stats.reconnects.load(Ordering::Relaxed),
                client.stats.giveups.load(Ordering::Relaxed),
            ],
            _ => [0; 3],
        }
    }
}

/// One served request.
struct Served {
    hit: bool,
    shard: usize,
    us: u64,
}

#[derive(Default)]
struct Tally {
    served: Vec<Served>,
    /// Served requests per `--estimators` slot.
    per_estimator: Vec<u64>,
    corrupt: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Book one request's outcome — the only place either phase counts
    /// anything. `expect` is the reference render's bits for this request.
    fn book(
        &mut self,
        what: &str,
        est_slot: usize,
        expect: &[u64],
        outcome: Result<(RenderResponse, usize), String>,
        us: u64,
    ) {
        let (resp, shard) = match outcome {
            Ok(ok) => ok,
            Err(e) => return self.errors.push(format!("{what}: {e}")),
        };
        self.served.push(Served {
            hit: resp.meta.cache_hit,
            shard,
            us,
        });
        self.per_estimator[est_slot] += 1;
        if resp.data.len() != expect.len()
            || resp.data.iter().zip(expect).any(|(v, &b)| v.to_bits() != b)
        {
            self.corrupt += 1;
            self.errors.push(format!("{what}: CORRUPT payload"));
        }
    }
}

/// Deterministic sampled trace id for request `i` of a run (phase 0 =
/// cold, 1 = warm), so reruns at the same seed produce identical ids.
fn trace_for(seed: u64, phase: u64, i: u64) -> TraceContext {
    let mut id = [0u8; 16];
    id[..8].copy_from_slice(&(seed ^ phase.rotate_left(32)).to_le_bytes());
    id[8..].copy_from_slice(&i.wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes());
    TraceContext::sampled(id)
}

fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx] as f64 / 1e3
}

/// Wire `Shutdown` to one listener, waiting for the ack.
fn shutdown(addr: SocketAddr) -> Result<(), String> {
    Client::connect(addr)
        .map_err(|e| e.to_string())?
        .shutdown()
        .map_err(|e| e.to_string())
}

fn write_file(path: &PathBuf, contents: &str) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, contents).expect("write output file");
}

/// What the run asks for, and what every answer must be.
struct Workload {
    decomp: Decomposition,
    /// `[tile * estimators + slot]`: the bits of a single-node in-process
    /// render of that request — no network, no sharding.
    references: Vec<Vec<u64>>,
}

impl Workload {
    /// Seed the snapshot with the demo cloud when it is missing, read the
    /// tile grid off its header, and render the reference map.
    fn prepare(args: &Args) -> Workload {
        std::fs::create_dir_all(&args.snapshots).expect("create snapshot dir");
        let path = args.snapshots.join(format!("{}.snap", args.snapshot_id));
        if !path.is_file() {
            let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(32.0));
            let spec = ClusteredBoxSpec::new(bounds, args.particles, 24, 1234);
            write_snapshot(&path, &[clustered_box(&spec).0], bounds).expect("write demo snapshot");
        }
        let bounds = read_info(&path).expect("read snapshot header").bounds;
        let mut work = Workload {
            decomp: Decomposition::new(bounds, args.tiles),
            references: Vec::new(),
        };
        let mut cfg = ServiceConfig::new(args.field_len, args.resolution);
        cfg.tiles = args.tiles;
        let single = Service::start(&args.snapshots, cfg).expect("start reference service");
        let n_est = args.estimators.len();
        work.references = (0..work.decomp.num_ranks() * n_est)
            .map(|k| {
                let req = work.request(args, k / n_est, k % n_est);
                let resp = single.render(&req).expect("reference render");
                resp.data.iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        work
    }

    /// The one exact request per (tile, estimator slot): the tile's centre.
    fn request(&self, args: &Args, tile: usize, slot: usize) -> RenderRequest {
        RenderRequest::new(&args.snapshot_id, self.decomp.rank_box(tile).center())
            .estimator(args.estimators[slot])
    }
}

/// Both phases against the target; returns what was booked and the
/// senders' summed `[retries, reconnects, giveups]`.
fn drive(args: &Args, work: &Workload, target: &mut Target) -> (Tally, [u64; 3]) {
    let tiles = work.decomp.num_ranks();
    let n_est = args.estimators.len();
    let retry_cfg = ClientConfig {
        connect_timeout: Duration::from_secs(1),
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        max_retries: 5,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(200),
        seed: args.seed ^ args.chaos.unwrap_or(0).rotate_left(17),
        sample_traces: args.trace,
    };
    let render_addrs = &target.render;
    let connect = || match args.client {
        ClientKind::Naive => Conn::Naive {
            client: None,
            addr: render_addrs[0],
        },
        ClientKind::Retry => Conn::Retry(Box::new(
            ResilientClient::new(render_addrs[0], retry_cfg).expect("resolve addr"),
        )),
        ClientKind::Ring => {
            let ring = ClusterConfig::default();
            let mut client =
                ClusterClient::new(render_addrs, ring.vnodes, retry_cfg).expect("cluster client");
            client.register_snapshot(args.snapshot_id.clone(), work.decomp.bounds, args.tiles);
            Conn::Ring(Box::new(client))
        }
    };

    let tally = Mutex::new(Tally {
        per_estimator: vec![0; n_est],
        ..Tally::default()
    });
    // Request `i` of a phase: estimator slot `i % n_est`, timed, booked.
    let run_one = |conn: &mut Conn, what: String, phase: u64, i: usize, tile: usize| {
        let slot = i % n_est;
        let mut req = work.request(args, tile, slot);
        if args.trace {
            req = req.traced(trace_for(args.seed, phase, i as u64));
        }
        let t0 = Instant::now();
        let outcome = conn.render(&req);
        let us = t0.elapsed().as_micros() as u64;
        let expect = &work.references[tile * n_est + slot];
        tally.lock().unwrap().book(&what, slot, expect, outcome, us);
    };

    // ---- Phase 1: cold sweep, one request per tile, serial.
    let mut client_stats = {
        let mut conn = connect();
        for tile in 0..tiles {
            run_one(&mut conn, format!("cold tile {tile}"), 0, tile, tile);
        }
        conn.client_stats()
    };
    eprintln!(
        "# cold sweep: {tiles} tiles, {} errors",
        tally.lock().unwrap().errors.len()
    );

    // ---- Phase 2: warm open loop at a fixed rate with zipf popularity.
    // Arrivals follow the schedule, not the server: a slow server grows
    // queueing delay rather than slowing the arrival process.
    let zipf = Zipf::new(tiles, args.zipf);
    let mut rng = Xorshift(args.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let schedule: Vec<(Duration, usize)> = (0..args.requests)
        .map(|i| {
            let at = Duration::from_secs_f64(i as f64 / args.rate);
            (at, zipf.sample(&mut rng))
        })
        .collect();
    let (schedule, next) = (&schedule, &AtomicUsize::new(0));
    let start = Instant::now();
    let sleep_until = |at: Duration| {
        if let Some(wait) = at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
    };
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..args.senders.max(1))
            .map(|_| {
                let mut conn = connect();
                scope.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(at, tile)) = schedule.get(i) else {
                            break;
                        };
                        sleep_until(at);
                        run_one(&mut conn, format!("warm req {i} tile {tile}"), 1, i, tile);
                    }
                    conn.client_stats()
                })
            })
            .collect();
        // Mid-run shard kill at the schedule's midpoint: half the load
        // lands before the rehash and half rides the failover. A local
        // shard is killed outright, a given one gets a wire `Shutdown`.
        if let Some(victim) = args.kill_shard {
            let (local, addr) = (target.local.as_mut(), target.direct[victim]);
            scope.spawn(move || {
                sleep_until(Duration::from_secs_f64(
                    args.requests as f64 / 2.0 / args.rate.max(1e-9),
                ));
                let killed = match local {
                    Some(cluster) => cluster
                        .kill(victim)
                        .map_err(|_| "a shard thread panicked".to_string()),
                    None => shutdown(addr),
                };
                if let Err(e) = killed {
                    eprintln!("# shard {victim} kill: {e}");
                }
                let at = start.elapsed().as_secs_f64();
                eprintln!("# killed shard {victim} at {at:.2}s");
            });
        }
        for sender in senders {
            let stats = sender.join().expect("sender thread panicked");
            for (total, v) in client_stats.iter_mut().zip(stats) {
                *total += v;
            }
        }
    });
    (tally.into_inner().unwrap(), client_stats)
}

fn main() -> ExitCode {
    let args = parse_args();
    let work = Workload::prepare(&args);
    let mut target = Target::open(&args);
    let (tally, client_stats) = drive(&args, &work, &mut target);
    let Tally {
        served,
        per_estimator,
        corrupt,
        errors,
    } = tally;
    let (nshards, tiles) = (target.direct.len(), work.decomp.num_ranks());
    let client_label = args.client.label();

    let completed = served.len();
    let hits = served.iter().filter(|s| s.hit).count();
    let misses = completed - hits;
    let mut all_us: Vec<u64> = served.iter().map(|s| s.us).collect();
    all_us.sort_unstable();
    let p50_ms = percentile_ms(&all_us, 0.50);
    let p99_ms = percentile_ms(&all_us, 0.99);

    // Who served how much, at what tail, holding how many resident bytes —
    // and whether it was the one we killed.
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); nshards];
    for s in &served {
        per_shard[s.shard].push(s.us);
    }
    let served_by: Vec<usize> = per_shard.iter().map(Vec::len).collect();
    let shards_json = per_shard
        .iter_mut()
        .enumerate()
        .map(|(i, us)| {
            us.sort_unstable();
            let killed = args.kill_shard == Some(i);
            let resident = (!killed)
                .then(|| Client::connect(target.direct[i]).ok()?.health().ok())
                .flatten()
                .map_or_else(|| "null".into(), |h| h.resident_bytes.to_string());
            format!(
                "{{\"shard\":{i},\"served\":{},\"p50_ms\":{},\"p99_ms\":{},\
                 \"resident_bytes\":{resident},\"killed\":{killed}}}",
                us.len(),
                number(percentile_ms(us, 0.50)),
                number(percentile_ms(us, 0.99)),
            )
        })
        .collect::<Vec<_>>()
        .join(",");

    // Observability artifacts and the server's own account of the run,
    // from the first listener still standing (shard 0 holds a local
    // target's recorder).
    let control = (0..nshards)
        .find(|&i| args.kill_shard != Some(i))
        .map(|i| target.direct[i])
        .expect("at least one shard survives");
    let stats_doc = Client::connect(control)
        .ok()
        .and_then(|mut c| c.stats().ok());
    // The server classified every request it completed as a hit or a miss.
    let accounted = stats_doc
        .as_ref()
        .is_some_and(|d| d.serving.hits + d.serving.misses == d.serving.completed);
    let stats_json = stats_doc.map(|d| d.to_json());
    let dump_json = args
        .dump_out
        .as_ref()
        .and_then(|_| Client::connect(control).ok()?.dump().ok());
    for (what, out, json) in [
        ("flight dump", &args.dump_out, &dump_json),
        ("stats document", &args.stats_out, &stats_json),
    ] {
        match (out, json) {
            (Some(path), Some(json)) => {
                write_file(path, json);
                eprintln!("# {what} -> {}", path.display());
            }
            (Some(_), None) => eprintln!("error: failed to fetch {what}"),
            (None, _) => {}
        }
    }

    // Drain over the wire — a local target always, a given one on request
    // — and require every surviving listener's ack: a battered server must
    // still shut down cleanly.
    let mut drain_ok = true;
    if target.local.is_some() || args.shutdown {
        for (i, &addr) in target.direct.iter().enumerate() {
            if args.kill_shard == Some(i) {
                continue;
            }
            match shutdown(addr) {
                Ok(()) => eprintln!("# shard {i} acked shutdown"),
                Err(e) => {
                    eprintln!("error: shard {i} shutdown: {e}");
                    drain_ok = false;
                }
            }
        }
    }
    if let Some(cluster) = target.local.take() {
        if drain_ok && cluster.wait().is_err() {
            eprintln!("error: a shard thread panicked");
            drain_ok = false;
        } // else dropping it kills whatever refused to drain
    }
    let chaos_json = target.proxy.take().map_or("null".into(), |mut proxy| {
        let s = &proxy.stats;
        let json = format!(
            "{{\"forwarded\":{},\"dropped\":{},\"delayed\":{},\"truncated\":{},\
             \"split\":{},\"stalled\":{},\"reset\":{},\"bitflipped\":{}}}",
            s.forwarded.load(Ordering::Relaxed),
            s.dropped.load(Ordering::Relaxed),
            s.delayed.load(Ordering::Relaxed),
            s.truncated.load(Ordering::Relaxed),
            s.split.load(Ordering::Relaxed),
            s.stalled.load(Ordering::Relaxed),
            s.reset.load(Ordering::Relaxed),
            s.bitflipped.load(Ordering::Relaxed),
        );
        proxy.stop();
        json
    });

    // SLO gate: overall p99 and request error rate against the target.
    let attempts = completed + errors.len();
    let error_rate = if attempts == 0 {
        0.0
    } else {
        errors.len() as f64 / attempts as f64
    };
    let mut slo_breaches: Vec<String> = Vec::new();
    let slo = args.slo.unwrap_or_default();
    if slo.p99_ms.is_some_and(|target| p99_ms > target) {
        slo_breaches.push(format!("p99 {p99_ms:.2} ms over target"));
    }
    if slo.error_rate.is_some_and(|target| error_rate > target) {
        slo_breaches.push(format!("error rate {error_rate:.4} over target"));
    }
    let slo_json = args.slo.map_or("null".into(), |slo| {
        format!(
            "{{\"p99_ms\":{},\"error_rate\":{},\"breached\":{}}}",
            slo.p99_ms.map_or("null".into(), number),
            slo.error_rate.map_or("null".into(), number),
            !slo_breaches.is_empty(),
        )
    });

    let est_json = args
        .estimators
        .iter()
        .zip(&per_estimator)
        .map(|(e, n)| format!("\"{e}\":{n}"))
        .collect::<Vec<_>>()
        .join(",");
    let opt = |v: Option<u64>| v.map_or("null".into(), |v| v.to_string());
    let out = format!(
        "{{\"target\":\"{}\",\"nshards\":{nshards},\"tiles\":{tiles},\"requests\":{},\
         \"rate\":{},\"zipf\":{},\"completed\":{completed},\"errors\":{},\
         \"error_rate\":{},\"p50_ms\":{},\"p99_ms\":{},\
         \"hits\":{hits},\"misses\":{misses},\"accounted\":{accounted},\
         \"estimators\":{{{est_json}}},\"corrupt\":{corrupt},\
         \"drain_ok\":{drain_ok},\"chaos_seed\":{},\"chaos\":{chaos_json},\
         \"client\":\"{client_label}\",\
         \"client_stats\":{{\"retries\":{},\"reconnects\":{},\"giveups\":{}}},\
         \"trace\":{},\"slo\":{slo_json},\"kill_shard\":{},\"shards\":[{shards_json}],\
         \"server\":{}}}\n",
        if args.addrs.is_empty() {
            "local"
        } else {
            "given"
        },
        args.requests,
        number(args.rate),
        number(args.zipf),
        errors.len(),
        number(error_rate),
        number(p50_ms),
        number(p99_ms),
        opt(args.chaos),
        client_stats[0],
        client_stats[1],
        client_stats[2],
        args.trace,
        opt(args.kill_shard.map(|k| k as u64)),
        stats_json.as_deref().unwrap_or("null"),
    );
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| dtfe_core::io::experiments_dir().join("loadgen_report.json"));
    write_file(&path, &out);
    dtfe_telemetry::json::Json::parse(&out).expect("valid report JSON");

    println!("# loadgen -> {}", path.display());
    println!(
        "shards={nshards} served={served_by:?} kill_shard={:?} chaos={:?} client={client_label} | \
         requests={completed} errors={} corrupt {corrupt} | \
         p50 {p50_ms:.2} ms p99 {p99_ms:.2} ms | hits {hits} misses {misses} | \
         retries {} | drain_ok={drain_ok}",
        args.kill_shard,
        args.chaos,
        errors.len(),
        client_stats[0],
    );
    for b in &slo_breaches {
        eprintln!("error: SLO breached: {b}");
    }
    for e in errors.iter().take(5) {
        eprintln!("error: {e}");
    }

    // A silently accepted corrupt payload or a failed drain fails the run
    // in any mode. Request *errors* fail it only when nothing was being
    // broken on purpose — under chaos or a mid-run shard kill, typed
    // errors are the contract and `--slo error_rate` is the gate.
    let broken_on_purpose = args.chaos.is_some() || args.kill_shard.is_some();
    if corrupt > 0
        || !drain_ok
        || (!broken_on_purpose && (!errors.is_empty() || !accounted))
        || !slo_breaches.is_empty()
    {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_core::GridSpec2;
    use dtfe_service::ResponseMeta;

    fn response(data: Vec<f64>) -> Result<(RenderResponse, usize), String> {
        let grid = GridSpec2::try_square(Vec3::ZERO.xy(), 1.0, 2).unwrap();
        let meta = ResponseMeta::default();
        Ok((RenderResponse { grid, data, meta }, 0))
    }

    #[test]
    fn book_counts_any_differing_bit_as_corrupt() {
        let field = vec![1.0, 2.0, 3.0, 4.0];
        let expect: Vec<u64> = field.iter().map(|v: &f64| v.to_bits()).collect();
        let mut tally = Tally {
            per_estimator: vec![0],
            ..Tally::default()
        };
        tally.book("same", 0, &expect, response(field.clone()), 10);
        assert_eq!((tally.corrupt, tally.errors.len()), (0, 0));

        let mut one_bit = field.clone();
        one_bit[2] = f64::from_bits(one_bit[2].to_bits() ^ 1);
        tally.book("one bit", 0, &expect, response(one_bit), 10);
        assert_eq!(tally.corrupt, 1);

        tally.book("short", 0, &expect, response(field[..3].to_vec()), 10);
        assert_eq!(tally.corrupt, 2);
        assert!(tally.errors.iter().all(|e| e.contains("CORRUPT")));

        tally.book("refused", 0, &expect, Err("overloaded".into()), 10);
        assert_eq!((tally.served.len(), tally.per_estimator[0]), (3, 3));
        assert_eq!(tally.errors.len(), 3);
    }
}
