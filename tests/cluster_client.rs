//! `ClusterClient` owns endpoint choice: which shard a render goes to,
//! whether a `NotMine` redirect is followed, and which shard is blamed when
//! an address stops answering. These tests drive it against scripted
//! shards — listeners that answer every render with one frame chosen from
//! the request's `redirect` flag — so each routing rule is pinned without
//! a real cluster:
//!
//! (a) a redirect naming one of the client's shards is followed, and the
//!     returned index is the shard that answered;
//! (b) an unparseable or foreign owner is not followed, and the request is
//!     still served in proxy mode;
//! (c) two shards naming each other stop after a bounded number of follows
//!     and fall to proxy mode;
//! (d) a redirect to a dead listener marks the *dead* shard down, not the
//!     shard that pointed at it.

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

/// Serve `listener` as a scripted shard: every render is answered with
/// `reply(redirect_flag)`. Returns the log of redirect flags it was sent.
fn scripted_shard(
    listener: TcpListener,
    reply: impl Fn(bool) -> Response + Send + Sync + 'static,
) -> Arc<Mutex<Vec<bool>>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let seen = log.clone();
    let reply = Arc::new(reply);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let (seen, reply) = (seen.clone(), reply.clone());
            std::thread::spawn(move || {
                while let Ok(frame) = read_frame(&mut stream) {
                    let Ok(Request::Render(req)) = Request::decode(&frame) else {
                        break;
                    };
                    seen.lock().unwrap().push(req.redirect);
                    if write_frame(&mut stream, &reply(req.redirect).encode()).is_err() {
                        break;
                    }
                }
            });
        }
    });
    log
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

fn not_mine(owner: impl ToString) -> Response {
    Response::Error(ServiceError::NotMine {
        owner: owner.to_string(),
    })
}

/// A shard that redirects to `owner` when allowed to and serves the tile
/// itself in proxy mode — what a real non-owner does.
fn redirects_to(
    owner: impl ToString,
    me: usize,
) -> impl Fn(bool) -> Response + Send + Sync + 'static {
    let owner = owner.to_string();
    move |redirect| {
        if redirect {
            not_mine(&owner)
        } else {
            field(me)
        }
    }
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

/// A snapshot id whose one whole-domain tile the ring places on shard
/// `owner` — in the client's own view; the scripted shards may disagree.
fn snapshot_owned_by(nshards: usize, owner: usize) -> String {
    let ring = HashRing::new(nshards, VNODES);
    let live = vec![true; nshards];
    (0..)
        .map(|i| format!("s{i}"))
        .find(|s| {
            let key = key_of(&TileKey::new(s.clone(), 0));
            ring.replicas(key, 1, &live) == [owner]
        })
        .unwrap()
}

/// Teach `client` a one-tile snapshot owned by shard `owner` and return a
/// request for it.
fn request_owned_by(client: &mut ClusterClient, nshards: usize, owner: usize) -> RenderRequest {
    let snapshot = snapshot_owned_by(nshards, owner);
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(1.0));
    client.register_snapshot(snapshot.clone(), bounds, 1);
    RenderRequest::new(snapshot, bounds.center())
}

/// A client over `addrs` plus a request whose ring owner is shard `owner`.
fn client_and_request(addrs: &[SocketAddr], owner: usize) -> (ClusterClient, RenderRequest) {
    let mut client = ClusterClient::new(addrs, VNODES, 2, fast_cfg()).unwrap();
    let req = request_owned_by(&mut client, addrs.len(), owner);
    (client, req)
}

/// Render once under a thread-local recorder; returns the outcome plus the
/// `client.redirects` and `cluster.client_failovers` counters it moved.
fn render_counted(
    client: &mut ClusterClient,
    req: &RenderRequest,
) -> (Result<(RenderResponse, usize), ServiceError>, u64, u64) {
    let rec = Recorder::new("cluster-client-test");
    let result = {
        let _guard = rec.install();
        client.render(req)
    };
    let metrics = rec.snapshot().metrics;
    (
        result,
        metrics.counter("client.redirects"),
        metrics.counter("cluster.client_failovers"),
    )
}

#[test]
fn redirect_on_not_mine_follows_owner() {
    let (l0, a0) = listen();
    let (l1, a1) = listen();
    let log0 = scripted_shard(l0, redirects_to(a1, 0));
    let log1 = scripted_shard(l1, |_| field(1));
    let (mut client, req) = client_and_request(&[a0, a1], 0);

    let (result, redirects, failovers) = render_counted(&mut client, &req);
    let (resp, shard) = result.expect("redirect should reach the owner");
    assert_eq!(resp.data, vec![1.0], "answered by the owner");
    assert_eq!(shard, 1, "the shard that answered is the shard reported");
    assert_eq!(redirects, 1);
    assert_eq!(failovers, 0);
    assert_eq!(*log0.lock().unwrap(), [true]);
    assert_eq!(*log1.lock().unwrap(), [true]);

    // Following a redirect moves nothing: the next request still starts at
    // the client's own ring owner, over that shard's own connection.
    let (_, shard) = client.render(&req).unwrap();
    assert_eq!(shard, 1);
    assert_eq!(*log0.lock().unwrap(), [true, true]);
}

#[test]
fn unparseable_or_foreign_owner_is_not_followed_and_proxy_mode_serves() {
    let (foreign_listener, foreign) = listen();
    let foreign_log = scripted_shard(foreign_listener, |_| field(9));
    for owner in ["not-an-addr".to_string(), foreign.to_string()] {
        let (l0, a0) = listen();
        let (l1, a1) = listen();
        let log0 = scripted_shard(l0, redirects_to(&owner, 0));
        let log1 = scripted_shard(l1, |_| field(1));
        let (mut client, req) = client_and_request(&[a0, a1], 0);

        let (result, redirects, failovers) = render_counted(&mut client, &req);
        let (resp, shard) = result.expect("proxy mode serves a ring disagreement");
        assert_eq!((resp.data, shard), (vec![0.0], 0), "owner {owner}");
        assert_eq!((redirects, failovers), (0, 0), "owner {owner}");
        assert_eq!(*log0.lock().unwrap(), [true, false], "owner {owner}");
        assert!(log1.lock().unwrap().is_empty(), "owner {owner}");
    }
    assert!(
        foreign_log.lock().unwrap().is_empty(),
        "an address outside the shard list is never contacted"
    );
}

#[test]
fn shards_naming_each_other_stop_after_bounded_follows() {
    let (l0, a0) = listen();
    let (l1, a1) = listen();
    let log0 = scripted_shard(l0, redirects_to(a1, 0));
    let log1 = scripted_shard(l1, redirects_to(a0, 1));
    let (mut client, req) = client_and_request(&[a0, a1], 0);

    let (result, redirects, failovers) = render_counted(&mut client, &req);
    let (resp, shard) = result.expect("proxy mode ends the ping-pong");
    assert_eq!((resp.data, shard), (vec![0.0], 0));
    assert_eq!(redirects, 3, "bounded follows");
    assert_eq!(failovers, 0);
    // 0 → 1 → 0 → 1 with redirects allowed, then shard 0 in proxy mode.
    assert_eq!(*log0.lock().unwrap(), [true, true, false]);
    assert_eq!(*log1.lock().unwrap(), [true, true]);
}

#[test]
fn redirect_to_a_dead_listener_blames_the_dead_shard() {
    let (l0, a0) = listen();
    let a1 = dead_shard();
    let log0 = scripted_shard(l0, redirects_to(a1, 0));
    let (mut client, req) = client_and_request(&[a0, a1], 0);

    let (result, redirects, failovers) = render_counted(&mut client, &req);
    let (resp, shard) = result.expect("the redirector serves it in proxy mode");
    assert_eq!((resp.data, shard), (vec![0.0], 0));
    assert_eq!(redirects, 1);
    // Exactly one give-up, on shard 1. Had the redirector been blamed, the
    // proxy pass would have put the corpse first and failed over twice.
    assert_eq!(failovers, 1);
    assert_eq!(*log0.lock().unwrap(), [true, false]);

    // Shard 1 is now presumed dead and shard 0 live: a request the ring
    // places on shard 1 starts at its live successor, shard 0.
    let dead_owned = request_owned_by(&mut client, 2, 1);
    assert_eq!(client.render(&dead_owned).unwrap().1, 0);
    assert_eq!(*log0.lock().unwrap(), [true, false, true, false]);
}
