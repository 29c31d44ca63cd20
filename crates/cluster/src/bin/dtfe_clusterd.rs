//! `dtfe-clusterd` — a sharded field-rendering cluster.
//!
//! Two ways to run it:
//!
//! **Supervisor mode** (CI, smoke runs): one process hosts N shards, each
//! with its own listener and gossip loop.
//!
//! ```text
//! dtfe-clusterd --shards 3 --port 0 --snapshots DIR --demo
//! ```
//!
//! Prints one `LISTENING <addr>` line per shard (shard order; scripts
//! parse these), serves until every shard has received a wire `Shutdown`
//! frame, then drains and exits 0. Shutting down a single shard's listener
//! kills just that shard — the survivors gossip its death, rehash its
//! arcs, and keep serving; that is the failover leg of the CI job.
//!
//! **Single-shard mode** (real deployments, one process per box): every
//! process is given the full peer list and its own index.
//!
//! ```text
//! dtfe-clusterd --shard 0 --peers 127.0.0.1:7501,127.0.0.1:7502,127.0.0.1:7503 \
//!               --snapshots DIR --demo
//! ```
//!
//! The process binds `peers[shard]` and gossips with the rest. See the
//! README's "Running a 3-node cluster" walkthrough.

use dtfe_cluster::{ClusterConfig, ClusterNode};
use dtfe_service::{Service, ServiceConfig, TcpServer};
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    snapshots: PathBuf,
    port: u16,
    shards: usize,
    shard: Option<u32>,
    peers: Vec<SocketAddr>,
    tiles: usize,
    field_len: f64,
    resolution: usize,
    samples: usize,
    workers: usize,
    cache_mb: usize,
    admission_s: f64,
    replication: usize,
    vnodes: usize,
    heat: u32,
    heartbeat_ms: u64,
    timeout_ms: u64,
    demo: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: dtfe-clusterd --snapshots DIR [--shards N | --shard I --peers A,B,C] \
         [--port P] [--tiles N] [--field-len L] [--resolution N] [--samples N] \
         [--workers N] [--cache-mb N] [--admission-s S] [--replication R] [--vnodes V] \
         [--heat N] [--heartbeat-ms MS] [--timeout-ms MS] [--demo]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        snapshots: PathBuf::from("snapshots"),
        port: 0,
        shards: 3,
        shard: None,
        peers: Vec::new(),
        tiles: 8,
        field_len: 8.0,
        resolution: 128,
        samples: 1,
        workers: 2,
        cache_mb: 256,
        admission_s: 30.0,
        replication: 2,
        vnodes: 128,
        heat: 8,
        heartbeat_ms: 100,
        timeout_ms: 1000,
        demo: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--snapshots" => args.snapshots = PathBuf::from(val("--snapshots")),
            "--port" => args.port = val("--port").parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = val("--shards").parse().unwrap_or_else(|_| usage()),
            "--shard" => args.shard = Some(val("--shard").parse().unwrap_or_else(|_| usage())),
            "--peers" => {
                args.peers = val("--peers")
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--tiles" => args.tiles = val("--tiles").parse().unwrap_or_else(|_| usage()),
            "--field-len" => {
                args.field_len = val("--field-len").parse().unwrap_or_else(|_| usage())
            }
            "--resolution" => {
                args.resolution = val("--resolution").parse().unwrap_or_else(|_| usage())
            }
            "--samples" => args.samples = val("--samples").parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--cache-mb" => args.cache_mb = val("--cache-mb").parse().unwrap_or_else(|_| usage()),
            "--admission-s" => {
                args.admission_s = val("--admission-s").parse().unwrap_or_else(|_| usage())
            }
            "--replication" => {
                args.replication = val("--replication").parse().unwrap_or_else(|_| usage())
            }
            "--vnodes" => args.vnodes = val("--vnodes").parse().unwrap_or_else(|_| usage()),
            "--heat" => args.heat = val("--heat").parse().unwrap_or_else(|_| usage()),
            "--heartbeat-ms" => {
                args.heartbeat_ms = val("--heartbeat-ms").parse().unwrap_or_else(|_| usage())
            }
            "--timeout-ms" => {
                args.timeout_ms = val("--timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--demo" => args.demo = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn service_config(args: &Args, telemetry: bool) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(args.field_len, args.resolution);
    cfg.samples = args.samples;
    cfg.tiles = args.tiles;
    cfg.workers = args.workers;
    cfg.cache_budget_bytes = args.cache_mb << 20;
    cfg.admission_budget_s = args.admission_s;
    cfg.telemetry = telemetry;
    cfg
}

fn cluster_config(args: &Args, shard: u32) -> ClusterConfig {
    ClusterConfig {
        shard,
        vnodes: args.vnodes,
        replication: args.replication,
        heat_threshold: args.heat,
        heartbeat_interval: Duration::from_millis(args.heartbeat_ms),
        heartbeat_timeout: Duration::from_millis(args.timeout_ms),
        ..ClusterConfig::default()
    }
}

/// Supervisor mode: N shards in one process, ephemeral ports welcome.
fn run_supervisor(args: &Args) -> ExitCode {
    let mut nodes = Vec::new();
    let mut servers = Vec::new();
    for i in 0..args.shards {
        // One process-global telemetry recorder: shard 0 gets it, the
        // others run with plain counters only.
        let cfg = service_config(args, i == 0);
        let service = match Service::start(&args.snapshots, cfg) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("cannot start shard {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let node = ClusterNode::new(service, cluster_config(args, i as u32));
        let port = if args.port == 0 {
            0
        } else {
            args.port + i as u16
        };
        let handler: Arc<dyn dtfe_service::RequestHandler> = node.clone();
        let server = match TcpServer::bind_with(handler, ("127.0.0.1", port)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot bind shard {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        nodes.push(node);
        servers.push(server);
    }
    let addrs: Vec<SocketAddr> = match servers.iter().map(|s| s.local_addr()).collect() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot read bound addresses: {e}");
            return ExitCode::FAILURE;
        }
    };
    for node in &nodes {
        node.configure_peers(addrs.clone());
        node.start_gossip();
    }
    for addr in &addrs {
        println!("LISTENING {addr}");
    }
    let _ = std::io::stdout().flush();
    let threads: Vec<_> = servers
        .into_iter()
        .map(|server| std::thread::spawn(move || server.serve()))
        .collect();
    for t in threads {
        let _ = t.join();
    }
    for node in &nodes {
        node.stop_gossip();
    }
    eprintln!("drained, exiting");
    ExitCode::SUCCESS
}

/// Single-shard mode: this process is `--shard I` of the `--peers` list.
fn run_single(args: &Args, shard: u32) -> ExitCode {
    if args.peers.is_empty() || (shard as usize) >= args.peers.len() {
        eprintln!("--shard {shard} needs a --peers list that includes it");
        return ExitCode::FAILURE;
    }
    let service = match Service::start(&args.snapshots, service_config(args, true)) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("cannot start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let node = ClusterNode::new(service, cluster_config(args, shard));
    let handler: Arc<dyn dtfe_service::RequestHandler> = node.clone();
    let server = match TcpServer::bind_with(handler, args.peers[shard as usize]) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.peers[shard as usize]);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    node.configure_peers(args.peers.clone());
    node.start_gossip();
    println!("LISTENING {addr}");
    let _ = std::io::stdout().flush();
    server.serve();
    node.stop_gossip();
    eprintln!("drained, exiting");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.snapshots) {
        eprintln!("cannot create snapshot dir {:?}: {e}", args.snapshots);
        return ExitCode::FAILURE;
    }
    if args.demo {
        if let Err(e) = dtfe_service::tiles::write_demo_snapshot(&args.snapshots) {
            eprintln!("cannot write demo snapshot: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("demo snapshot ready (id: demo)");
    }
    match args.shard {
        Some(shard) => run_single(&args, shard),
        None => run_supervisor(&args),
    }
}
