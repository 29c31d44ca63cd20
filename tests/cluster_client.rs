//! `ClusterClient` owns endpoint choice: which shard a render goes to and
//! which shard is blamed when an address stops answering. These tests
//! drive it against scripted shards — listeners that answer every render
//! with one fixed frame and log the `forwarded` flag they were sent — so
//! each routing rule is pinned without a real cluster:
//!
//! (a) the first attempt goes to the tile's ring primary, with `forwarded`
//!     clear, and the returned index is the shard that answered;
//! (b) a dead primary is blamed and its ring successor serves;
//! (c) a shard that answers `ShuttingDown` is skipped;
//! (d) a typed error comes back after one attempt;
//! (e) a request the client cannot place still reaches a live shard.

use dtfe_cluster::{key_of, ClusterClient, HashRing};
use dtfe_repro::core::GridSpec2;
use dtfe_repro::geometry::{Aabb3, Vec2, Vec3};
use dtfe_repro::service::wire::{read_frame, write_frame};
use dtfe_repro::service::{
    ClientConfig, RenderRequest, RenderResponse, Request, Response, ServiceError, TileKey,
};
use dtfe_repro::telemetry::Recorder;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const VNODES: usize = 128;

fn listen() -> (TcpListener, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    (listener, addr)
}

/// A dead shard: every connection is hung up on before a byte is read.
/// (The port stays bound, so no parallel test can be handed it.)
fn dead_shard() -> SocketAddr {
    let (listener, addr) = listen();
    std::thread::spawn(move || listener.incoming().for_each(drop));
    addr
}

/// A scripted shard answering every render with `reply`. Returns its
/// address and the log of `forwarded` flags it was sent.
fn scripted_shard(reply: Response) -> (SocketAddr, Arc<Mutex<Vec<bool>>>) {
    let (listener, addr) = listen();
    let log = Arc::new(Mutex::new(Vec::new()));
    let seen = log.clone();
    let reply = Arc::new(reply.encode());
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let (seen, reply) = (seen.clone(), reply.clone());
            std::thread::spawn(move || {
                while let Ok(frame) = read_frame(&mut stream) {
                    let Ok(Request::Render(req)) = Request::decode(&frame) else {
                        break;
                    };
                    seen.lock().unwrap().push(req.forwarded);
                    if write_frame(&mut stream, &reply).is_err() {
                        break;
                    }
                }
            });
        }
    });
    (addr, log)
}

/// A 1×1 field whose single value names the shard that produced it.
fn field(shard: usize) -> Response {
    Response::Field(RenderResponse {
        grid: GridSpec2 {
            origin: Vec2::new(0.0, 0.0),
            cell: Vec2::new(1.0, 1.0),
            nx: 1,
            ny: 1,
        },
        data: vec![shard as f64],
        meta: Default::default(),
    })
}

fn fast_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Some(Duration::from_millis(2_000)),
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(5),
        ..ClientConfig::default()
    }
}

/// A snapshot id whose one whole-domain tile the ring walks from shard
/// `primary` to shard `successor`.
fn snapshot_placed(nshards: usize, primary: usize, successor: usize) -> String {
    let ring = HashRing::new(nshards, VNODES);
    let live = vec![true; nshards];
    (0..)
        .map(|i| format!("s{i}"))
        .find(|s| {
            let key = key_of(&TileKey::new(s.clone(), 0));
            ring.replicas(key, 2, &live) == [primary, successor]
        })
        .unwrap()
}

/// A client over `addrs` that knows a one-tile snapshot the ring walks
/// from `primary` to `successor`, plus a request for that tile.
fn client_and_request(
    addrs: &[SocketAddr],
    primary: usize,
    successor: usize,
) -> (ClusterClient, RenderRequest) {
    let mut client = ClusterClient::new(addrs, VNODES, fast_cfg()).unwrap();
    let snapshot = snapshot_placed(addrs.len(), primary, successor);
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(1.0));
    client.register_snapshot(snapshot.clone(), bounds, 1);
    (client, RenderRequest::new(snapshot, bounds.center()))
}

/// Render once under a thread-local recorder; returns the outcome plus the
/// `cluster.client_failovers` counter it moved.
fn render_counted(
    client: &mut ClusterClient,
    req: &RenderRequest,
) -> (Result<(RenderResponse, usize), ServiceError>, u64) {
    let rec = Recorder::new("cluster-client-test");
    let result = {
        let _guard = rec.install();
        client.render(req)
    };
    let failovers = rec.snapshot().metrics.counter("cluster.client_failovers");
    (result, failovers)
}

#[test]
fn first_attempt_goes_to_the_ring_primary_with_forwarded_clear() {
    let shards: Vec<_> = (0..3).map(|i| scripted_shard(field(i))).collect();
    let addrs: Vec<_> = shards.iter().map(|(a, _)| *a).collect();
    let (mut client, req) = client_and_request(&addrs, 2, 0);

    // Even a caller's request that arrives marked forwarded goes out clear:
    // only a shard forwards.
    let (result, failovers) = render_counted(&mut client, &req.forwarded(true));
    let (resp, shard) = result.expect("the primary serves");
    assert_eq!((resp.data, shard), (vec![2.0], 2));
    assert_eq!(failovers, 0);
    let logs: Vec<_> = shards
        .iter()
        .map(|(_, l)| l.lock().unwrap().clone())
        .collect();
    assert_eq!(logs, [vec![], vec![], vec![false]]);
}

#[test]
fn a_dead_primary_is_blamed_and_its_ring_successor_serves() {
    let (a1, log1) = scripted_shard(field(1));
    let (a2, log2) = scripted_shard(field(2));
    let addrs = [dead_shard(), a1, a2];
    let (mut client, req) = client_and_request(&addrs, 0, 2);

    let (result, failovers) = render_counted(&mut client, &req);
    let (resp, shard) = result.expect("the successor serves");
    assert_eq!((resp.data, shard), (vec![2.0], 2));
    assert_eq!(failovers, 1);
    assert_eq!(*log2.lock().unwrap(), [false]);
    assert!(log1.lock().unwrap().is_empty(), "not the ring successor");

    // Shard 0 is now presumed dead: the next request starts at the
    // successor and blames nobody.
    let (result, failovers) = render_counted(&mut client, &req);
    assert_eq!(result.unwrap().1, 2);
    assert_eq!(failovers, 0);
}

#[test]
fn a_shard_answering_shutting_down_is_skipped() {
    let (a0, log0) = scripted_shard(Response::Error(ServiceError::ShuttingDown));
    let (a1, log1) = scripted_shard(field(1));
    let (mut client, req) = client_and_request(&[a0, a1], 0, 1);

    let (result, failovers) = render_counted(&mut client, &req);
    let (resp, shard) = result.expect("the live shard serves");
    assert_eq!((resp.data, shard), (vec![1.0], 1));
    assert_eq!(failovers, 1);
    assert_eq!(*log0.lock().unwrap(), [false]);
    assert_eq!(*log1.lock().unwrap(), [false]);
}

#[test]
fn a_typed_error_comes_back_after_one_attempt() {
    let invalid = ServiceError::InvalidRequest("resolution over the cap".into());
    let (a0, log0) = scripted_shard(Response::Error(invalid.clone()));
    let (a1, log1) = scripted_shard(field(1));
    let (mut client, req) = client_and_request(&[a0, a1], 0, 1);

    let (result, failovers) = render_counted(&mut client, &req);
    assert_eq!(result.unwrap_err(), invalid);
    assert_eq!(failovers, 0);
    assert_eq!(*log0.lock().unwrap(), [false]);
    assert!(log1.lock().unwrap().is_empty(), "a typed error was retried");
}

#[test]
fn a_request_the_client_cannot_place_reaches_a_live_shard() {
    let unknown = ServiceError::UnknownSnapshot("nowhere".into());
    let (a1, log1) = scripted_shard(Response::Error(unknown.clone()));
    let mut client = ClusterClient::new(&[dead_shard(), a1], VNODES, fast_cfg()).unwrap();

    // Never registered, so the client has no tile for it.
    let req = RenderRequest::new("nowhere", Vec3::ZERO);
    let (result, failovers) = render_counted(&mut client, &req);
    assert_eq!(result.unwrap_err(), unknown, "shard 1's answer");
    assert_eq!(failovers, 1, "the dead shard 0 is blamed");
    assert_eq!(*log1.lock().unwrap(), [false]);
}
