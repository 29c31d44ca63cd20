//! Open-loop load generator for `dtfe-service`, reporting
//! `target/experiments/BENCH_service.json`.
//!
//! Two phases against a zipf-popular tile workload:
//!
//! 1. **cold sweep** — one request per tile, serially, with an empty
//!    cache: every request pays (or would pay) a triangulation build, so
//!    the phase's p50 is the triangulation-included latency;
//! 2. **warm open-loop** — `--requests` requests at `--rate` req/s with
//!    zipf(`--zipf`) tile popularity. Arrivals follow a fixed schedule
//!    (open loop: a slow server grows queueing delay rather than slowing
//!    the arrival process), spread over enough sender threads that the
//!    schedule never starves.
//!
//! Modes: in-process (default; self-seeds a demo snapshot), `--addr
//! HOST:PORT` against a running `dtfe-served` (the CI smoke run), or
//! `--chaos SEED` — spin up a local TCP server behind a seeded
//! [`ChaosProxy`] and drive all traffic through the injected faults.
//! Exits nonzero if any request fails (faults-off modes), if the
//! hit/miss counters fail to account for every completed request, or —
//! chaos mode's reason to exist — if a client ever **accepts a corrupt
//! payload** (responses are checked bit-for-bit against unjittered
//! per-tile references) or the battered server fails its clean drain.
//!
//! `--client retry|naive` selects the wire client for `--addr`/`--chaos`
//! runs: the naive [`Client`] fails a request on the first transport
//! error (reconnecting for the next one), the [`ResilientClient`]
//! retries with jittered backoff — run both under the same `--chaos`
//! seed to compare tail latency and error rates.
//!
//! Observability knobs (PR 8):
//!
//! * `--trace` samples every request (deterministic per-request trace
//!   ids), so server-side per-stage timings come back in `ResponseMeta`
//!   and sampled requests land in the flight recorder. The report then
//!   carries per-stage (admission/queue/build/render) latency aggregates.
//! * `--slo p99=MS,error_rate=FRAC` turns the run into a gate: the
//!   process exits nonzero if overall p99 exceeds `MS` milliseconds or
//!   the request error rate exceeds `FRAC`. Either key may be omitted.
//! * `--dump-out FILE` / `--stats-out FILE` fetch the server's flight
//!   recorder dump (Chrome-trace JSON) and stats document after the run
//!   (directly, bypassing the fault proxy in chaos mode) — CI feeds
//!   these to `trace_check`.
//!
//! ```text
//! cargo run --release -p dtfe-bench --bin loadgen [-- --requests 400 --rate 100]
//! cargo run --release -p dtfe-bench --bin loadgen -- --addr 127.0.0.1:7433
//! cargo run --release -p dtfe-bench --bin loadgen -- --chaos 42 --client retry
//! cargo run --release -p dtfe-bench --bin loadgen -- --trace --slo p99=500,error_rate=0.01
//! ```

use dtfe_cluster::{ClusterClient, ClusterConfig, ClusterNode};
use dtfe_core::EstimatorKind;
use dtfe_framework::Decomposition;
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::halos::{clustered_box, ClusteredBoxSpec};
use dtfe_nbody::snapshot::write_snapshot;
use dtfe_service::{
    ChaosProxy, Client, ClientConfig, RenderRequest, RenderResponse, ResilientClient, Service,
    ServiceConfig, SocketFaultPlan, SocketFaultRule, TcpServer, TraceContext,
};
use dtfe_telemetry::json::number;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    addr: Option<String>,
    snapshots: PathBuf,
    snapshot_id: String,
    requests: usize,
    rate: f64,
    zipf: f64,
    tiles: usize,
    box_len: f64,
    field_len: f64,
    resolution: usize,
    particles: usize,
    senders: usize,
    seed: u64,
    /// Estimator mix: requests cycle through these backends
    /// deterministically (request `i` uses `estimators[i % len]`), so a
    /// `dtfe,psdtfe` mix exercises two cache-key populations at a fixed
    /// 50/50 ratio regardless of seed.
    estimators: Vec<EstimatorKind>,
    /// After the run, send the wire `Shutdown` to a `--addr` server (the
    /// SIGTERM-equivalent) and wait for its ack — the CI smoke run uses
    /// this to assert clean drain.
    shutdown: bool,
    /// Chaos mode: start a local TCP server behind a fault-injecting
    /// proxy seeded with this value and route all traffic through it.
    chaos: Option<u64>,
    /// Wire client for `--addr`/`--chaos` runs.
    client: ClientKind,
    /// Report path override (default `target/experiments/BENCH_service.json`).
    out: Option<PathBuf>,
    /// Sample a trace on every request (per-stage breakdowns + flight
    /// recorder entries on the server).
    trace: bool,
    /// SLO gate: exit nonzero when breached.
    slo: Option<Slo>,
    /// Write the server's flight-recorder dump (Chrome-trace JSON) here.
    dump_out: Option<PathBuf>,
    /// Write the server's stats document JSON here.
    stats_out: Option<PathBuf>,
    /// Run the telemetry-off vs telemetry-on A/B leg.
    /// Boot an N-shard in-process cluster and drive all traffic through
    /// the ring-aware [`ClusterClient`] (0 = off).
    cluster: usize,
    /// Drive an already-running cluster: `addrs[i]` is shard `i`'s
    /// listener (the CI job boots `dtfe-clusterd` and passes these).
    cluster_addrs: Vec<String>,
    /// Kill this shard at the warm phase's midpoint: in-process clusters
    /// stop the shard's listener and gossip, external ones get a wire
    /// `Shutdown`. The run then exercises rehash + failover under load.
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum ClientKind {
    Naive,
    Retry,
}

impl ClientKind {
    fn label(self) -> &'static str {
        match self {
            ClientKind::Naive => "naive",
            ClientKind::Retry => "retry",
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--snapshots DIR] [--snapshot ID] [--requests N] \
         [--rate R] [--zipf S] [--tiles N] [--box-len L] [--field-len L] [--resolution N] \
         [--particles N] [--senders N] [--seed N] [--estimators dtfe,psdtfe,...] [--shutdown] \
         [--chaos SEED] [--client naive|retry] [--out FILE] [--trace] \
         [--slo p99=MS,error_rate=FRAC] [--dump-out FILE] [--stats-out FILE] \
         [--cluster N] [--cluster-addrs A,B,C] [--kill-shard I]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        snapshots: PathBuf::from("target/service-snapshots"),
        snapshot_id: "demo".into(),
        requests: 200,
        rate: 50.0,
        zipf: 1.1,
        tiles: 8,
        box_len: 32.0,
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
        cluster: 0,
        cluster_addrs: Vec::new(),
        kill_shard: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => args.addr = Some(val()),
            "--snapshots" => args.snapshots = PathBuf::from(val()),
            "--snapshot" => args.snapshot_id = val(),
            "--requests" => args.requests = val().parse().unwrap_or_else(|_| usage()),
            "--rate" => args.rate = val().parse().unwrap_or_else(|_| usage()),
            "--zipf" => args.zipf = val().parse().unwrap_or_else(|_| usage()),
            "--tiles" => args.tiles = val().parse().unwrap_or_else(|_| usage()),
            "--box-len" => args.box_len = val().parse().unwrap_or_else(|_| usage()),
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
                if args.estimators.is_empty() {
                    usage();
                }
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
            "--cluster" => args.cluster = val().parse().unwrap_or_else(|_| usage()),
            "--cluster-addrs" => {
                args.cluster_addrs = val().split(',').map(|s| s.trim().to_string()).collect();
                if args.cluster_addrs.is_empty() {
                    usage();
                }
            }
            "--kill-shard" => args.kill_shard = Some(val().parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
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

/// Either transport, one per sender thread. The naive TCP variant
/// reconnects lazily after a failed request (one error per fault, no
/// retries); the resilient variant carries its own retry discipline.
enum Conn {
    InProc(Arc<Service>),
    Tcp {
        client: Option<Client>,
        addr: String,
    },
    Resilient(Box<ResilientClient>),
    Cluster(Box<ClusterClient>),
}

impl Conn {
    /// Render; the second value is the serving shard (cluster mode only).
    fn render(&mut self, req: &RenderRequest) -> Result<(RenderResponse, Option<usize>), String> {
        match self {
            Conn::InProc(svc) => svc
                .render(req)
                .map(|r| (r, None))
                .map_err(|e| e.to_string()),
            Conn::Tcp { client, addr } => {
                if client.is_none() {
                    *client =
                        Some(Client::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?);
                }
                let result = client.as_mut().unwrap().render(req);
                if result.is_err() {
                    // The connection may be mid-frame garbage now; a naive
                    // client's only move is to throw it away.
                    *client = None;
                }
                result.map(|r| (r, None)).map_err(|e| e.to_string())
            }
            Conn::Resilient(client) => client
                .render(req)
                .map(|r| (r, None))
                .map_err(|e| e.to_string()),
            Conn::Cluster(client) => client
                .render(req)
                .map(|(r, shard)| (r, Some(shard)))
                .map_err(|e| e.to_string()),
        }
    }

    /// `[retries, reconnects, giveups]` for the report.
    fn client_stats(&self) -> [u64; 3] {
        match self {
            Conn::Resilient(client) => [
                client.stats.retries.load(Ordering::Relaxed),
                client.stats.reconnects.load(Ordering::Relaxed),
                client.stats.giveups.load(Ordering::Relaxed),
            ],
            _ => [0; 3],
        }
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

/// One in-process cluster shard and the handles needed to kill it.
struct InprocShard {
    node: Arc<ClusterNode>,
    stop: Arc<AtomicBool>,
    serve: Option<std::thread::JoinHandle<()>>,
    gossip: Option<std::thread::JoinHandle<()>>,
}

impl InprocShard {
    /// Stop accepting, drain, drop the listener; gossip goes silent so
    /// the survivors declare this shard dead and rehash its arcs.
    fn kill(&mut self) {
        self.node.stop_gossip();
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.serve.take() {
            let _ = h.join();
        }
        if let Some(h) = self.gossip.take() {
            let _ = h.join();
        }
    }
}

/// The cluster under test: in-process shards (with kill handles) or just
/// the listener addresses of an external `dtfe-clusterd`.
struct ClusterCtx {
    addrs: Vec<std::net::SocketAddr>,
    inproc: Vec<InprocShard>,
}

/// Boot an N-shard in-process cluster over the seeded snapshot directory:
/// bind ephemeral listeners first, then install the membership and start
/// gossip. Shard 0 owns the process-global telemetry recorder.
fn boot_cluster(args: &Args) -> ClusterCtx {
    let mut addrs = Vec::new();
    let mut pending = Vec::new();
    for i in 0..args.cluster {
        let mut cfg = ServiceConfig::new(args.field_len, args.resolution);
        cfg.tiles = args.tiles;
        cfg.telemetry = i == 0;
        cfg.read_timeout = Some(Duration::from_millis(500));
        cfg.write_timeout = Some(Duration::from_millis(500));
        let service = Arc::new(Service::start(&args.snapshots, cfg).expect("start shard service"));
        let node = ClusterNode::new(
            service,
            ClusterConfig {
                shard: i as u32,
                ..ClusterConfig::default()
            },
        );
        let handler: Arc<dyn dtfe_service::RequestHandler> = node.clone();
        let server = TcpServer::bind_with(handler, ("127.0.0.1", 0)).expect("bind shard");
        addrs.push(server.local_addr().expect("shard addr"));
        pending.push((node, server));
    }
    let inproc = pending
        .into_iter()
        .map(|(node, server)| {
            node.configure_peers(addrs.clone());
            let gossip = node.start_gossip();
            let stop = server.stop_handle();
            let serve = std::thread::spawn(move || server.serve());
            InprocShard {
                node,
                stop,
                serve: Some(serve),
                gossip: Some(gossip),
            }
        })
        .collect();
    ClusterCtx { addrs, inproc }
}

#[derive(Default)]
struct Tally {
    /// `(was_hit, latency_us)` per completed request.
    done: Vec<(bool, u64)>,
    /// `(serving_shard, latency_us)` per completed request (cluster mode).
    per_shard: Vec<(usize, u64)>,
    /// `[admission, queue, build, render]` µs per completed request
    /// (server-reported, nonzero breakdowns only arrive on v4 traced
    /// responses but the fields default to 0 either way).
    stages: Vec<[u64; 4]>,
    errors: Vec<String>,
}

const STAGE_NAMES: [&str; 4] = ["admission", "queue", "build", "render"];

fn stage_row(resp: &RenderResponse) -> [u64; 4] {
    let m = &resp.meta;
    [m.admission_us, m.queue_us, m.build_us, m.render_us]
}

/// Per-stage aggregate JSON: `{"admission":{"mean_ms":..,"p50_ms":..,
/// "p99_ms":..},...}` over every completed request.
fn stages_json(rows: &[[u64; 4]]) -> String {
    let fields = STAGE_NAMES
        .iter()
        .enumerate()
        .map(|(s, name)| {
            let mut us: Vec<u64> = rows.iter().map(|r| r[s]).collect();
            us.sort_unstable();
            let mean_ms = if us.is_empty() {
                0.0
            } else {
                us.iter().sum::<u64>() as f64 / 1e3 / us.len() as f64
            };
            format!(
                "\"{name}\":{{\"mean_ms\":{},\"p50_ms\":{},\"p99_ms\":{}}}",
                number(mean_ms),
                number(percentile_ms(&us, 0.50)),
                number(percentile_ms(&us, 0.99)),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{fields}}}")
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

fn main() -> ExitCode {
    let args = parse_args();
    if args.chaos.is_some() && args.addr.is_some() {
        eprintln!("--chaos starts its own local server; it conflicts with --addr");
        return ExitCode::from(2);
    }
    let cluster_on = args.cluster > 0 || !args.cluster_addrs.is_empty();
    if cluster_on && (args.addr.is_some() || args.chaos.is_some()) {
        eprintln!("--cluster/--cluster-addrs conflict with --addr and --chaos");
        return ExitCode::from(2);
    }
    if args.cluster > 0 && !args.cluster_addrs.is_empty() {
        eprintln!("--cluster boots its own shards; it conflicts with --cluster-addrs");
        return ExitCode::from(2);
    }
    let nshards = if args.cluster > 0 {
        args.cluster
    } else {
        args.cluster_addrs.len()
    };
    if args.kill_shard.is_some_and(|k| !cluster_on || k >= nshards) {
        eprintln!("--kill-shard needs a cluster and a shard index inside it");
        return ExitCode::from(2);
    }
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(args.box_len));
    let decomp = Decomposition::new(bounds, args.tiles);
    let tiles = decomp.num_ranks();

    // Self-seed the demo snapshot for any mode that runs a local service.
    if args.addr.is_none() {
        std::fs::create_dir_all(&args.snapshots).expect("create snapshot dir");
        let path = args.snapshots.join(format!("{}.snap", args.snapshot_id));
        if !path.is_file() {
            let (points, _) =
                clustered_box(&ClusteredBoxSpec::new(bounds, args.particles, 24, 1234));
            write_snapshot(&path, &[points], bounds).expect("write demo snapshot");
        }
    }

    // Cluster mode: boot in-process shards (or adopt external listeners),
    // plus a single-node *reference* service over the same snapshot — the
    // bit-identity oracle every cluster response is checked against.
    let mut cluster_ctx: Option<ClusterCtx> = if args.cluster > 0 {
        Some(boot_cluster(&args))
    } else if !args.cluster_addrs.is_empty() {
        let addrs = args
            .cluster_addrs
            .iter()
            .map(|a| {
                use std::net::ToSocketAddrs;
                a.to_socket_addrs()
                    .ok()
                    .and_then(|mut it| it.next())
                    .unwrap_or_else(|| {
                        eprintln!("bad cluster address {a}");
                        std::process::exit(2)
                    })
            })
            .collect();
        Some(ClusterCtx {
            addrs,
            inproc: Vec::new(),
        })
    } else {
        None
    };
    let cluster_reference: Option<Service> = cluster_on.then(|| {
        let mut cfg = ServiceConfig::new(args.field_len, args.resolution);
        cfg.tiles = args.tiles;
        Service::start(&args.snapshots, cfg).expect("start reference service")
    });

    // The service under test: remote, or started in-process over the
    // seeded demo snapshot.
    let service: Option<Arc<Service>> = if args.addr.is_some() || cluster_on {
        None
    } else {
        let mut cfg = ServiceConfig::new(args.field_len, args.resolution);
        cfg.tiles = args.tiles;
        cfg.telemetry = true;
        if args.chaos.is_some() {
            // Chaos-severed connections must not pin handler threads for
            // the default 10s when the run tears down.
            cfg.read_timeout = Some(Duration::from_millis(500));
            cfg.write_timeout = Some(Duration::from_millis(500));
        }
        Some(Arc::new(
            Service::start(&args.snapshots, cfg).expect("start service"),
        ))
    };
    // Chaos topology: in-proc service → local TCP server → fault proxy;
    // every client connects through the proxy, the clean-drain Shutdown
    // at the end goes to the server directly.
    let mut chaos_ctx: Option<(
        ChaosProxy,
        std::net::SocketAddr,
        std::thread::JoinHandle<()>,
    )> = None;
    let wire_addr: Option<String> = if let Some(chaos_seed) = args.chaos {
        let svc = service.clone().expect("chaos mode is in-proc");
        let server = TcpServer::bind(svc, ("127.0.0.1", 0)).expect("bind chaos server");
        let server_addr = server.local_addr().expect("server addr");
        let serve = std::thread::spawn(move || server.serve());
        let plan = SocketFaultPlan::seeded(chaos_seed).rule(chaos_rule());
        let proxy = ChaosProxy::start(plan, server_addr).expect("start chaos proxy");
        let addr = proxy.addr().to_string();
        chaos_ctx = Some((proxy, server_addr, serve));
        Some(addr)
    } else {
        args.addr.clone()
    };
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
    let connect = || -> Conn {
        if let Some(ctx) = &cluster_ctx {
            let mut client =
                ClusterClient::new(&ctx.addrs, 128, 2, retry_cfg).expect("connect cluster client");
            client.register_snapshot(args.snapshot_id.clone(), bounds, args.tiles);
            return Conn::Cluster(Box::new(client));
        }
        match (&wire_addr, &service) {
            (Some(addr), _) => match args.client {
                ClientKind::Naive => Conn::Tcp {
                    client: None,
                    addr: addr.clone(),
                },
                ClientKind::Retry => Conn::Resilient(Box::new(
                    ResilientClient::new(addr.as_str(), retry_cfg).expect("resolve addr"),
                )),
            },
            (None, Some(svc)) => Conn::InProc(svc.clone()),
            (None, None) => unreachable!(),
        }
    };

    // Request centres: the tile centre, nudged inward so jitter never
    // leaves the tile (tile popularity stays exactly zipf). Chaos and
    // cluster modes drop the jitter entirely — each (tile, estimator)
    // pair then maps to one exact request, so every response can be
    // checked bit-for-bit against a reference map. The rng draws are
    // consumed either way to keep schedules identical across modes at the
    // same seed.
    let chaos_jitter = if args.chaos.is_some() || cluster_on {
        0.0
    } else {
        0.25
    };
    let center_of = |tile: usize, rng: &mut Xorshift| -> Vec3 {
        let bx = decomp.rank_box(tile);
        let c = bx.center();
        let jitter = chaos_jitter
            * (bx.hi.x - bx.lo.x)
                .min(bx.hi.y - bx.lo.y)
                .min(bx.hi.z - bx.lo.z);
        Vec3::new(
            c.x + (rng.next_f64() - 0.5) * jitter,
            c.y + (rng.next_f64() - 0.5) * jitter,
            c.z + (rng.next_f64() - 0.5) * jitter,
        )
    };

    // Reference map: every (tile, estimator) request rendered once by a
    // single-node in-process service (no network, no sharding). Any wire
    // response that disagrees with its reference is a *silently accepted
    // corruption* — the outcome chaos mode exists to rule out, and in
    // cluster mode the proof that sharding, rebalances, and failover
    // never change a single served byte.
    let references: Arc<HashMap<String, Vec<u64>>> = Arc::new(
        if let Some(svc) = cluster_reference
            .as_ref()
            .or_else(|| service.as_deref().filter(|_| args.chaos.is_some()))
        {
            let mut rng = Xorshift(args.seed | 1);
            let mut map = HashMap::new();
            for tile in 0..tiles {
                for est in &args.estimators {
                    let req = RenderRequest::new(&args.snapshot_id, center_of(tile, &mut rng))
                        .estimator(*est);
                    let resp = svc.render(&req).expect("reference render");
                    map.insert(
                        format!("{tile}:{}", est.label()),
                        resp.data.iter().map(|v| v.to_bits()).collect(),
                    );
                }
            }
            map
        } else {
            HashMap::new()
        },
    );
    // The reference service's job is done; release its workers before the
    // load starts.
    if let Some(r) = &cluster_reference {
        r.drain();
    }
    let corrupt = Arc::new(AtomicU64::new(0));
    let degraded_served = Arc::new(AtomicU64::new(0));
    // True when the response matches its reference (or there is none).
    let verify = |tile: usize, est: EstimatorKind, resp: &RenderResponse| -> bool {
        let Some(expect) = references.get(&format!("{tile}:{}", est.label())) else {
            return true;
        };
        if resp.meta.degraded {
            return true; // flagged stale data is honest, not corrupt
        }
        resp.data.len() == expect.len()
            && resp
                .data
                .iter()
                .zip(expect)
                .all(|(v, &bits)| v.to_bits() == bits)
    };

    // ---- Phase 1: cold sweep, one request per tile, serial.
    let mut rng = Xorshift(args.seed | 1);
    let mut conn = connect();
    let mut cold_us = Vec::with_capacity(tiles);
    let mut cold_stages: Vec<[u64; 4]> = Vec::with_capacity(tiles);
    let mut cold_per_shard: Vec<(usize, u64)> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    let est_counts: Vec<AtomicU64> = args.estimators.iter().map(|_| AtomicU64::new(0)).collect();
    let t_cold = Instant::now();
    for tile in 0..tiles {
        let est = args.estimators[tile % args.estimators.len()];
        let mut req =
            RenderRequest::new(&args.snapshot_id, center_of(tile, &mut rng)).estimator(est);
        if args.trace {
            req = req.traced(trace_for(args.seed, 0, tile as u64));
        }
        let t0 = Instant::now();
        match conn.render(&req) {
            Ok((resp, shard)) => {
                let us = t0.elapsed().as_micros() as u64;
                cold_us.push(us);
                cold_stages.push(stage_row(&resp));
                if let Some(shard) = shard {
                    cold_per_shard.push((shard, us));
                }
                est_counts[tile % args.estimators.len()].fetch_add(1, Ordering::Relaxed);
                if resp.meta.cache_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                if resp.meta.degraded {
                    degraded_served.fetch_add(1, Ordering::Relaxed);
                }
                if !verify(tile, est, &resp) {
                    corrupt.fetch_add(1, Ordering::Relaxed);
                    errors.push(format!(
                        "cold tile {tile} ({}): CORRUPT payload",
                        est.label()
                    ));
                }
            }
            Err(e) => errors.push(format!("cold tile {tile} ({}): {e}", est.label())),
        }
    }
    let cold_wall = t_cold.elapsed().as_secs_f64();
    let cold_client_stats = conn.client_stats();
    drop(conn); // close the cold connection before teardown accounting
    eprintln!(
        "# cold sweep: {tiles} tiles in {cold_wall:.2}s ({} ok, {} errors)",
        cold_us.len(),
        errors.len()
    );

    // ---- Phase 2: warm open-loop at fixed rate with zipf popularity.
    let zipf = Zipf::new(tiles, args.zipf);
    let schedule: Vec<(Duration, usize, Vec3, EstimatorKind)> = {
        let mut rng = Xorshift(args.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        (0..args.requests)
            .map(|i| {
                let tile = zipf.sample(&mut rng);
                (
                    Duration::from_secs_f64(i as f64 / args.rate),
                    tile,
                    center_of(tile, &mut rng),
                    args.estimators[i % args.estimators.len()],
                )
            })
            .collect()
    };
    let schedule = Arc::new(schedule);
    let next = Arc::new(AtomicUsize::new(0));
    let tally = Arc::new(Mutex::new(Tally::default()));
    let lag_us = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let est_counts = Arc::new(est_counts);
    let n_estimators = args.estimators.len();
    let (trace, seed) = (args.trace, args.seed);
    let retry_totals = Arc::new([(); 3].map(|_| AtomicU64::new(0)));
    let senders: Vec<_> = (0..args.senders.max(1))
        .map(|_| {
            let schedule = schedule.clone();
            let next = next.clone();
            let tally = tally.clone();
            let lag_us = lag_us.clone();
            let est_counts = est_counts.clone();
            let snapshot_id = args.snapshot_id.clone();
            let references = references.clone();
            let corrupt = corrupt.clone();
            let degraded_served = degraded_served.clone();
            let retry_totals = retry_totals.clone();
            let mut conn = connect();
            std::thread::spawn(move || {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((at, tile, center, est)) = schedule.get(i).copied() else {
                        break;
                    };
                    // Open loop: wait for the scheduled arrival, then record
                    // how late the send actually is (sender starvation shows
                    // up as lag, not as a silently lowered rate).
                    let now = start.elapsed();
                    if now < at {
                        std::thread::sleep(at - now);
                    } else {
                        lag_us.fetch_add((now - at).as_micros() as u64, Ordering::Relaxed);
                    }
                    let mut req = RenderRequest::new(&snapshot_id, center).estimator(est);
                    if trace {
                        req = req.traced(trace_for(seed, 1, i as u64));
                    }
                    let t0 = Instant::now();
                    let result = conn.render(&req);
                    let us = t0.elapsed().as_micros() as u64;
                    let mut t = tally.lock().unwrap();
                    match result {
                        Ok((resp, shard)) => {
                            t.done.push((resp.meta.cache_hit, us));
                            t.stages.push(stage_row(&resp));
                            if let Some(shard) = shard {
                                t.per_shard.push((shard, us));
                            }
                            est_counts[i % n_estimators].fetch_add(1, Ordering::Relaxed);
                            if resp.meta.degraded {
                                degraded_served.fetch_add(1, Ordering::Relaxed);
                            }
                            let expect = references.get(&format!("{tile}:{}", est.label()));
                            let ok = expect.is_none_or(|bits| {
                                resp.meta.degraded
                                    || (resp.data.len() == bits.len()
                                        && resp
                                            .data
                                            .iter()
                                            .zip(bits)
                                            .all(|(v, &b)| v.to_bits() == b))
                            });
                            if !ok {
                                corrupt.fetch_add(1, Ordering::Relaxed);
                                t.errors.push(format!(
                                    "warm req {i} tile {tile} ({}): CORRUPT payload",
                                    est.label()
                                ));
                            }
                        }
                        Err(e) => t
                            .errors
                            .push(format!("warm req {i} ({}): {e}", est.label())),
                    }
                }
                for (slot, v) in retry_totals.iter().zip(conn.client_stats()) {
                    slot.fetch_add(v, Ordering::Relaxed);
                }
            })
        })
        .collect();
    // Mid-run shard kill: fire at the warm schedule's midpoint, so half
    // the load lands before the rehash and half rides the failover.
    let killer: Option<std::thread::JoinHandle<()>> = args.kill_shard.map(|victim| {
        let at = Duration::from_secs_f64(args.requests as f64 / 2.0 / args.rate.max(1e-9));
        let inproc = cluster_ctx.as_mut().and_then(|ctx| {
            ctx.inproc.get_mut(victim).map(|s| {
                (
                    s.node.clone(),
                    s.stop.clone(),
                    s.serve.take(),
                    s.gossip.take(),
                )
            })
        });
        let ext_addr = cluster_ctx.as_ref().map(|ctx| ctx.addrs[victim]);
        std::thread::spawn(move || {
            let now = start.elapsed();
            if now < at {
                std::thread::sleep(at - now);
            }
            if let Some((node, stop, serve, gossip)) = inproc {
                node.stop_gossip();
                stop.store(true, Ordering::SeqCst);
                if let Some(h) = serve {
                    let _ = h.join();
                }
                if let Some(h) = gossip {
                    let _ = h.join();
                }
                eprintln!(
                    "# killed shard {victim} at {:.2}s",
                    start.elapsed().as_secs_f64()
                );
            } else if let Some(addr) = ext_addr {
                match Client::connect(addr)
                    .map_err(|e| e.to_string())
                    .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()))
                {
                    Ok(()) => eprintln!(
                        "# shard {victim} acked kill shutdown at {:.2}s",
                        start.elapsed().as_secs_f64()
                    ),
                    Err(e) => eprintln!("# shard {victim} kill: {e}"),
                }
            }
        })
    });
    for h in senders {
        let _ = h.join();
    }
    if let Some(h) = killer {
        let _ = h.join();
    }
    let warm_wall = start.elapsed().as_secs_f64();
    let tally = Arc::try_unwrap(tally).ok().unwrap().into_inner().unwrap();
    errors.extend(tally.errors);

    for &(hit, _) in &tally.done {
        if hit {
            hits += 1;
        } else {
            misses += 1;
        }
    }
    let completed = cold_us.len() + tally.done.len();
    let accounted = hits + misses == completed as u64;

    let mut all_us: Vec<u64> = cold_us
        .iter()
        .copied()
        .chain(tally.done.iter().map(|&(_, us)| us))
        .collect();
    all_us.sort_unstable();
    let mut cold_sorted = cold_us.clone();
    cold_sorted.sort_unstable();
    let mut warm_hit_us: Vec<u64> = tally
        .done
        .iter()
        .filter(|&&(hit, _)| hit)
        .map(|&(_, us)| us)
        .collect();
    warm_hit_us.sort_unstable();

    let p50_ms = percentile_ms(&all_us, 0.50);
    let p99_ms = percentile_ms(&all_us, 0.99);
    let cold_p50_ms = percentile_ms(&cold_sorted, 0.50);
    let warm_p50_ms = percentile_ms(&warm_hit_us, 0.50);
    let throughput_rps = tally.done.len() as f64 / warm_wall.max(1e-9);
    let mean_lag_ms = if tally.done.is_empty() {
        0.0
    } else {
        lag_us.load(Ordering::Relaxed) as f64 / 1e3 / args.requests as f64
    };

    for (slot, v) in retry_totals.iter().zip(cold_client_stats) {
        slot.fetch_add(v, Ordering::Relaxed);
    }

    // Per-shard accounting (cluster mode): who served how much, at what
    // tail, holding how many resident bytes — and whether it was the one
    // we killed.
    let shards_json = if let Some(ctx) = &cluster_ctx {
        let mut per: Vec<Vec<u64>> = vec![Vec::new(); nshards];
        for &(shard, us) in cold_per_shard.iter().chain(tally.per_shard.iter()) {
            if shard < nshards {
                per[shard].push(us);
            }
        }
        let rows = (0..nshards)
            .map(|i| {
                let mut us = std::mem::take(&mut per[i]);
                us.sort_unstable();
                let killed = args.kill_shard == Some(i);
                let resident = if let Some(s) = ctx.inproc.get(i) {
                    Some(s.node.service().health().resident_bytes)
                } else if !killed {
                    Client::connect(ctx.addrs[i])
                        .ok()
                        .and_then(|mut c| c.health().ok())
                        .map(|h| h.resident_bytes)
                } else {
                    None
                };
                format!(
                    "{{\"shard\":{i},\"served\":{},\"p50_ms\":{},\"p99_ms\":{},\
                     \"resident_bytes\":{},\"killed\":{killed}}}",
                    us.len(),
                    number(percentile_ms(&us, 0.50)),
                    number(percentile_ms(&us, 0.99)),
                    resident.map_or_else(|| "null".into(), |b| b.to_string()),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("[{rows}]")
    } else {
        "null".to_string()
    };

    // Observability artifacts, fetched before teardown. In chaos mode the
    // fetch goes directly to the server (not through the fault proxy):
    // the artifacts document the chaos run, they should not ride through
    // it.
    // Artifacts (and the final stats document) come from shard 0 in
    // cluster mode — the shard holding the process-global recorder
    // in-process, or the first listener externally.
    let artifact_svc: Option<Arc<Service>> = service.clone().or_else(|| {
        cluster_ctx
            .as_ref()
            .and_then(|c| c.inproc.first().map(|s| s.node.service().clone()))
    });
    if args.dump_out.is_some() || args.stats_out.is_some() {
        let direct_addr: Option<String> = chaos_ctx
            .as_ref()
            .map(|(_, server_addr, _)| server_addr.to_string())
            .or_else(|| args.addr.clone())
            .or_else(|| {
                cluster_ctx
                    .as_ref()
                    .filter(|c| c.inproc.is_empty())
                    .map(|c| c.addrs[0].to_string())
            });
        let fetch = |what: &str, f: &dyn Fn() -> Option<String>, out: &Option<PathBuf>| {
            let Some(path) = out else { return };
            match f() {
                Some(json) => {
                    if let Some(parent) = path.parent() {
                        let _ = std::fs::create_dir_all(parent);
                    }
                    std::fs::write(path, json).expect("write artifact");
                    eprintln!("# {what} -> {}", path.display());
                }
                None => eprintln!("error: failed to fetch {what}"),
            }
        };
        fetch(
            "flight dump",
            &|| match (&artifact_svc, &direct_addr) {
                (Some(svc), None) => Some(svc.dump_trace()),
                (_, Some(addr)) => Client::connect(addr.as_str())
                    .ok()
                    .and_then(|mut c| c.dump().ok()),
                (None, None) => None,
            },
            &args.dump_out,
        );
        fetch(
            "stats document",
            &|| match (&artifact_svc, &direct_addr) {
                (Some(svc), None) => Some(svc.metrics_json()),
                (_, Some(addr)) => Client::connect(addr.as_str())
                    .ok()
                    .and_then(|mut c| c.stats().ok())
                    .map(|doc| doc.to_json()),
                (None, None) => None,
            },
            &args.stats_out,
        );
    }

    // Chaos teardown first: the battered server must still drain cleanly
    // on a direct (unproxied) Shutdown before the report is written.
    let mut drain_ok = true;
    let chaos_json = if let Some((mut proxy, server_addr, serve)) = chaos_ctx {
        match Client::connect(server_addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()))
        {
            Ok(()) => eprintln!("# chaos server acked direct shutdown"),
            Err(e) => {
                eprintln!("error: chaos clean drain: {e}");
                drain_ok = false;
            }
        }
        if serve.join().is_err() {
            eprintln!("error: serve loop panicked");
            drain_ok = false;
        }
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
    } else {
        "null".into()
    };

    let stats_json = if let Some(svc) = &artifact_svc {
        svc.metrics_json()
    } else if let Some(addr) = args
        .addr
        .clone()
        .or_else(|| cluster_ctx.as_ref().map(|c| c.addrs[0].to_string()))
    {
        Client::connect(addr.as_str())
            .ok()
            .and_then(|mut c| c.stats().ok())
            .map(|doc| doc.to_json())
            .unwrap_or_else(|| "null".into())
    } else {
        unreachable!()
    };

    let est_json = args
        .estimators
        .iter()
        .zip(est_counts.iter())
        .map(|(e, c)| format!("\"{e}\":{}", c.load(Ordering::Relaxed)))
        .collect::<Vec<_>>()
        .join(",");
    let n_corrupt = corrupt.load(Ordering::Relaxed);
    let n_degraded = degraded_served.load(Ordering::Relaxed);

    // Per-stage breakdowns over every completed request (cold + warm).
    let all_stages: Vec<[u64; 4]> = cold_stages
        .iter()
        .chain(tally.stages.iter())
        .copied()
        .collect();
    let stages_json = stages_json(&all_stages);

    // SLO gate: overall p99 and request error rate against the target.
    let attempts = completed + errors.len();
    let error_rate = if attempts == 0 {
        0.0
    } else {
        errors.len() as f64 / attempts as f64
    };
    let mut slo_breaches: Vec<String> = Vec::new();
    if let Some(slo) = args.slo {
        if let Some(target) = slo.p99_ms {
            if p99_ms > target {
                slo_breaches.push(format!("p99 {p99_ms:.2} ms > target {target} ms"));
            }
        }
        if let Some(target) = slo.error_rate {
            if error_rate > target {
                slo_breaches.push(format!("error rate {error_rate:.4} > target {target}"));
            }
        }
    }
    let slo_json = match args.slo {
        None => "null".to_string(),
        Some(slo) => format!(
            "{{\"p99_ms\":{},\"error_rate\":{},\"breached\":{}}}",
            slo.p99_ms.map_or("null".into(), number),
            slo.error_rate.map_or("null".into(), number),
            !slo_breaches.is_empty(),
        ),
    };

    let out = format!(
        "{{\"bench\":\"service\",\"mode\":\"{}\",\"tiles\":{tiles},\"requests\":{},\
         \"rate\":{},\"zipf\":{},\"completed\":{completed},\"errors\":{},\
         \"hits\":{hits},\"misses\":{misses},\"accounted\":{accounted},\
         \"estimators\":{{{est_json}}},\
         \"chaos_seed\":{},\"client\":\"{}\",\"corrupt\":{n_corrupt},\
         \"degraded\":{n_degraded},\"drain_ok\":{drain_ok},\"chaos\":{chaos_json},\
         \"client_stats\":{{\"retries\":{},\"reconnects\":{},\"giveups\":{}}},\
         \"throughput_rps\":{},\"p50_ms\":{},\"p99_ms\":{},\
         \"cold_p50_ms\":{},\"warm_p50_ms\":{},\"mean_lag_ms\":{},\
         \"trace\":{},\"stages\":{stages_json},\"error_rate\":{},\"slo\":{slo_json},\
         \"cluster\":{},\"kill_shard\":{},\"shards\":{shards_json},\
         \"server\":{stats_json}}}\n",
        if args.chaos.is_some() {
            "chaos"
        } else if cluster_on {
            "cluster"
        } else if args.addr.is_some() {
            "tcp"
        } else {
            "inproc"
        },
        args.requests,
        number(args.rate),
        number(args.zipf),
        errors.len(),
        args.chaos.map_or("null".into(), |s| s.to_string()),
        args.client.label(),
        retry_totals[0].load(Ordering::Relaxed),
        retry_totals[1].load(Ordering::Relaxed),
        retry_totals[2].load(Ordering::Relaxed),
        number(throughput_rps),
        number(p50_ms),
        number(p99_ms),
        number(cold_p50_ms),
        number(warm_p50_ms),
        number(mean_lag_ms),
        args.trace,
        number(error_rate),
        if cluster_on {
            nshards.to_string()
        } else {
            "null".into()
        },
        args.kill_shard
            .map_or_else(|| "null".into(), |k| k.to_string()),
    );
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| dtfe_core::io::experiments_dir().join("BENCH_service.json"));
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, &out).expect("write bench report");
    dtfe_telemetry::json::Json::parse(&out).expect("valid bench report JSON");

    println!("# service -> {}", path.display());
    println!(
        "requests={completed} errors={} | throughput {throughput_rps:.1} rps | \
         p50 {p50_ms:.2} ms p99 {p99_ms:.2} ms | cold p50 {cold_p50_ms:.2} ms \
         warm p50 {warm_p50_ms:.2} ms ({:.1}x) | hits {hits} misses {misses} | lag {mean_lag_ms:.2} ms",
        errors.len(),
        cold_p50_ms / warm_p50_ms.max(1e-9),
    );
    if let Some(chaos_seed) = args.chaos {
        println!(
            "chaos seed={chaos_seed} client={} | corrupt {n_corrupt} | degraded {n_degraded} | \
             request errors {} | retries {} | drain_ok={drain_ok}",
            args.client.label(),
            errors.len(),
            retry_totals[0].load(Ordering::Relaxed),
        );
    }
    if let Some(ctx) = &cluster_ctx {
        let served: Vec<usize> = {
            let mut v = vec![0usize; nshards];
            for &(shard, _) in cold_per_shard.iter().chain(tally.per_shard.iter()) {
                if shard < nshards {
                    v[shard] += 1;
                }
            }
            v
        };
        println!(
            "cluster shards={} mode={} served={served:?} kill_shard={:?} | corrupt {n_corrupt}",
            nshards,
            if ctx.inproc.is_empty() {
                "external"
            } else {
                "inproc"
            },
            args.kill_shard,
        );
    }
    if args.trace && !all_stages.is_empty() {
        let mean = |s: usize| {
            all_stages.iter().map(|r| r[s]).sum::<u64>() as f64 / 1e3 / all_stages.len() as f64
        };
        println!(
            "stages (mean ms): admission {:.3} queue {:.3} build {:.3} render {:.3}",
            mean(0),
            mean(1),
            mean(2),
            mean(3),
        );
    }
    for b in &slo_breaches {
        eprintln!("error: SLO breached: {b}");
    }
    for e in errors.iter().take(5) {
        eprintln!("error: {e}");
    }

    if let Some(mut ctx) = cluster_ctx {
        if ctx.inproc.is_empty() && args.shutdown {
            // External cluster: drain every still-running shard.
            for (i, addr) in ctx.addrs.iter().enumerate() {
                if args.kill_shard == Some(i) {
                    continue;
                }
                match Client::connect(*addr)
                    .map_err(|e| e.to_string())
                    .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()))
                {
                    Ok(()) => eprintln!("# shard {i} acked shutdown"),
                    Err(e) => {
                        eprintln!("error: shard {i} shutdown: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for s in &mut ctx.inproc {
            s.kill();
        }
    }
    if let Some(svc) = service {
        // In-process mode owns the service: drain before reporting success
        // so the run also smoke-tests shutdown.
        svc.drain();
    } else if args.shutdown && args.addr.is_some() {
        let addr = args.addr.as_deref().unwrap();
        match Client::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()))
        {
            Ok(()) => eprintln!("# server acked shutdown"),
            Err(e) => {
                eprintln!("error: shutdown: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // A silently accepted corrupt payload or a failed clean drain fails
    // the run in any mode. Request *errors* fail it only when nothing was
    // being broken on purpose — under chaos or a mid-run shard kill,
    // typed errors are the contract and `--slo error_rate` is the gate.
    if n_corrupt > 0 || !drain_ok {
        return ExitCode::FAILURE;
    }
    if args.chaos.is_none() && args.kill_shard.is_none() && (!errors.is_empty() || !accounted) {
        return ExitCode::FAILURE;
    }
    if !slo_breaches.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
