//! `dtfe-served` — the online field-rendering server.
//!
//! ```text
//! dtfe-served --snapshots DIR [--port P] [--tiles N] [--field-len L]
//!             [--resolution N] [--samples N] [--workers N] [--cache-mb N]
//!             [--admission-s S] [--demo]
//! ```
//!
//! Binds a TCP listener (`--port 0` picks an ephemeral port), prints
//! `LISTENING <addr>` once ready — scripts parse this line — and serves
//! the wire protocol until a `Shutdown` frame arrives, then drains and
//! exits 0. `--demo` seeds the snapshot directory with a clustered demo
//! snapshot (id `demo`) so a smoke run needs no dataset.

use dtfe_service::{Service, ServiceConfig, TcpServer};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    snapshots: PathBuf,
    port: u16,
    tiles: usize,
    field_len: f64,
    resolution: usize,
    samples: usize,
    workers: usize,
    cache_mb: usize,
    admission_s: f64,
    demo: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: dtfe-served --snapshots DIR [--port P] [--tiles N] [--field-len L] \
         [--resolution N] [--samples N] [--workers N] [--cache-mb N] [--admission-s S] [--demo]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        snapshots: PathBuf::from("snapshots"),
        port: 7433,
        tiles: 8,
        field_len: 8.0,
        resolution: 128,
        samples: 1,
        workers: 2,
        cache_mb: 256,
        admission_s: 30.0,
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

    let mut cfg = ServiceConfig::new(args.field_len, args.resolution);
    cfg.samples = args.samples;
    cfg.tiles = args.tiles;
    cfg.workers = args.workers;
    cfg.cache_budget_bytes = args.cache_mb << 20;
    cfg.admission_budget_s = args.admission_s;
    cfg.telemetry = true;

    let service = match Service::start(&args.snapshots, cfg) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("cannot start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match TcpServer::bind(service, ("127.0.0.1", args.port)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind port {}: {e}", args.port);
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
    println!("LISTENING {addr}");
    let _ = std::io::stdout().flush();
    server.serve();
    eprintln!("drained, exiting");
    ExitCode::SUCCESS
}
