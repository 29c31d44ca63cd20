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

use dtfe_cluster::{ClusterConfig, LocalCluster, ShardSpec};
use dtfe_service::DaemonArgs;
use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    daemon: DaemonArgs,
    shards: usize,
    shard: Option<u32>,
    peers: Vec<SocketAddr>,
    replication: usize,
    vnodes: usize,
    heat: u32,
    heartbeat_ms: u64,
    timeout_ms: u64,
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

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        daemon: DaemonArgs::new(0),
        shards: 3,
        shard: None,
        peers: Vec::new(),
        replication: 2,
        vnodes: 128,
        heat: 8,
        heartbeat_ms: 100,
        timeout_ms: 1000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if args.daemon.accept(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--shards" => args.shards = DaemonArgs::value(&flag, &mut it)?,
            "--shard" => args.shard = Some(DaemonArgs::value(&flag, &mut it)?),
            "--peers" => {
                args.peers = DaemonArgs::value::<String>(&flag, &mut it)?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad peer address {s:?}")))
                    .collect::<Result<_, _>>()?
            }
            "--replication" => args.replication = DaemonArgs::value(&flag, &mut it)?,
            "--vnodes" => args.vnodes = DaemonArgs::value(&flag, &mut it)?,
            "--heat" => args.heat = DaemonArgs::value(&flag, &mut it)?,
            "--heartbeat-ms" => args.heartbeat_ms = DaemonArgs::value(&flag, &mut it)?,
            "--timeout-ms" => args.timeout_ms = DaemonArgs::value(&flag, &mut it)?,
            "--help" | "-h" => usage(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Shard `shard`'s spec. One process-global telemetry recorder: the
/// process's first shard gets it, the others run with plain counters only.
fn spec(args: &Args, shard: u32, telemetry: bool, bind: SocketAddr) -> ShardSpec {
    ShardSpec {
        service: args.daemon.service_config(telemetry),
        cluster: ClusterConfig {
            shard,
            vnodes: args.vnodes,
            replication: args.replication,
            heat_threshold: args.heat,
            heartbeat_interval: Duration::from_millis(args.heartbeat_ms),
            heartbeat_timeout: Duration::from_millis(args.timeout_ms),
        },
        bind,
    }
}

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    if let Err(e) = args.daemon.prepare_snapshots() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    // Supervisor mode hosts the whole cluster (ephemeral ports welcome);
    // single-shard mode is `--shard I` of the `--peers` list.
    let (specs, peers) = match args.shard {
        Some(shard) => {
            let Some(&bind) = args.peers.get(shard as usize) else {
                eprintln!("--shard {shard} needs a --peers list that includes it");
                return ExitCode::FAILURE;
            };
            (
                vec![spec(&args, shard, true, bind)],
                Some(args.peers.clone()),
            )
        }
        None => {
            let port = |i: usize| match args.daemon.port {
                0 => 0,
                base => base + i as u16,
            };
            let specs = (0..args.shards)
                .map(|i| spec(&args, i as u32, i == 0, ([127, 0, 0, 1], port(i)).into()))
                .collect();
            (specs, None)
        }
    };
    let cluster = match LocalCluster::boot(&args.daemon.snapshots, specs, peers) {
        Ok(cluster) => cluster,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for addr in cluster.addrs() {
        println!("LISTENING {addr}");
    }
    let _ = std::io::stdout().flush();
    if cluster.wait().is_err() {
        eprintln!("error: a shard thread panicked");
        return ExitCode::FAILURE;
    }
    eprintln!("drained, exiting");
    ExitCode::SUCCESS
}
