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

use dtfe_service::{DaemonArgs, Service, TcpServer};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: dtfe-served --snapshots DIR [--port P] [--tiles N] [--field-len L] \
         [--resolution N] [--samples N] [--workers N] [--cache-mb N] [--admission-s S] [--demo]"
    );
    std::process::exit(2)
}

fn parse_args() -> Result<DaemonArgs, String> {
    let mut args = DaemonArgs::new(7433);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if !args.accept(&flag, &mut it)? {
            match flag.as_str() {
                "--help" | "-h" => usage(),
                other => return Err(format!("unknown flag {other}")),
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    if let Err(e) = args.prepare_snapshots() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let service = match Service::start(&args.snapshots, args.service_config(true)) {
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
