//! Chaos conformance suite: the serving stack driven through the seeded
//! socket fault injector.
//!
//! The contract under hostile-network conditions, for every seed and
//! every fault kind: a client request either yields the **byte-identical
//! correct field** or a **typed error** — never a silently corrupt
//! payload, and never a hang. Plus: the negative cache bounds rebuild
//! attempts when a tile's build always fails, evicted tiles can be
//! served stale (flagged `degraded`) under overload, and a faults-off
//! proxy is perfectly transparent.

use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::snapshot::write_snapshot;
use dtfe_service::{
    ChaosProxy, Client, ClientConfig, QuarantinePolicy, RenderRequest, Request, ResilientClient,
    Response, Service, ServiceConfig, ServiceError, SocketFaultPlan, SocketFaultRule, TcpServer,
    TileCache, TileData, TileKey,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("dtfe_chaos_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn cloud(n: usize, side: f64, seed: u64) -> Vec<Vec3> {
    let mut s = seed;
    let mut r = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Vec3::new(r() * side, r() * side, r() * side))
        .collect()
}

fn assert_bits_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: cell {i}: {x} vs {y}");
    }
}

/// A rule injecting all seven fault kinds, tuned so a bounded-retry
/// client usually gets through while every kind still fires across the
/// sweep. Probabilities sum to 0.42; delivery keeps the majority.
fn stormy_rule() -> SocketFaultRule {
    SocketFaultRule::all()
        .drop(0.06)
        .delay(0.06, Duration::from_millis(5))
        .truncate(0.06)
        .split(0.06)
        .stall(0.06, Duration::from_millis(30))
        .reset(0.06)
        .bitflip(0.06)
}

/// ≥5 seeds × all 7 fault kinds through the proxy: every resilient-client
/// outcome is either the bit-identical field or a typed error; afterwards
/// the server still drains cleanly on a direct (unproxied) Shutdown.
#[test]
fn chaos_sweep_never_corrupts_and_server_drains_clean() {
    let dir = tmpdir("sweep");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("c.snap"), &[cloud(900, side, 42)], bounds).unwrap();

    let mut cfg = ServiceConfig::new(4.0, 16);
    cfg.tiles = 1;
    // Short server-side socket timeouts so chaos-severed connections
    // cannot pin handler threads for the test's lifetime.
    cfg.read_timeout = Some(Duration::from_millis(500));
    cfg.write_timeout = Some(Duration::from_millis(500));
    let service = Arc::new(Service::start(&dir, cfg).unwrap());
    let server = TcpServer::bind(service.clone(), ("127.0.0.1", 0)).unwrap();
    let server_addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());

    // Two distinct request shapes (different payload bytes) and their
    // offline references.
    let centers = [Vec3::new(3.0, 3.0, 3.0), Vec3::new(5.0, 5.0, 5.0)];
    let references: Vec<_> = centers
        .iter()
        .map(|&c| service.render(&RenderRequest::new("c", c)).unwrap())
        .collect();

    let mut injected_kinds = std::collections::HashSet::new();
    let mut oks = 0usize;
    let mut typed_errors = 0usize;
    for seed in [11u64, 22, 33, 44, 55] {
        let plan = SocketFaultPlan::seeded(seed).rule(stormy_rule());
        let mut proxy = ChaosProxy::start(plan, server_addr).unwrap();
        let ccfg = ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Some(Duration::from_millis(1_000)),
            write_timeout: Some(Duration::from_millis(1_000)),
            max_retries: 6,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            seed,
            sample_traces: false,
        };
        let mut client = ResilientClient::new(proxy.addr(), ccfg).unwrap();
        for i in 0..10 {
            let which = i % centers.len();
            match client.render(&RenderRequest::new("c", centers[which])) {
                Ok(resp) => {
                    // The one and only acceptable success: exact bytes.
                    assert_bits_equal(
                        &resp.data,
                        &references[which].data,
                        &format!("seed {seed} req {i}"),
                    );
                    assert!(!resp.meta.degraded, "no stale mode configured");
                    oks += 1;
                }
                // Bounded give-up after transport chaos is a typed error,
                // not a hang and not garbage.
                Err(ServiceError::Internal(msg)) if msg.contains("transport") => typed_errors += 1,
                Err(ServiceError::Overloaded { .. }) => typed_errors += 1,
                Err(other) => panic!("seed {seed} req {i}: unexpected error {other:?}"),
            }
        }
        let s = &proxy.stats;
        for (kind, n) in [
            ("drop", s.dropped.load(Ordering::Relaxed)),
            ("delay", s.delayed.load(Ordering::Relaxed)),
            ("truncate", s.truncated.load(Ordering::Relaxed)),
            ("split", s.split.load(Ordering::Relaxed)),
            ("stall", s.stalled.load(Ordering::Relaxed)),
            ("reset", s.reset.load(Ordering::Relaxed)),
            ("bitflip", s.bitflipped.load(Ordering::Relaxed)),
        ] {
            if n > 0 {
                injected_kinds.insert(kind);
            }
        }
        proxy.stop();
    }
    assert!(oks > 0, "no request ever survived the storm");
    assert!(
        injected_kinds.len() >= 6,
        "sweep exercised only {injected_kinds:?}"
    );
    // Retries actually happened (the storm was not a no-op); the exact
    // count is seed-determined but load-order dependent, so only bound it.
    assert!(oks + typed_errors == 50, "every request accounted for");

    // Clean drain: a direct connection (no proxy) still shuts down the
    // chaos-battered server gracefully.
    let mut direct = Client::connect(server_addr).unwrap();
    assert_eq!(
        direct.call(&Request::Shutdown).unwrap(),
        Response::ShutdownAck
    );
    serve.join().expect("accept loop exits after Shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// A faults-off proxy is invisible: responses through it are bit-identical
/// to in-process renders and it reports zero injected events.
#[test]
fn noop_proxy_is_bit_transparent() {
    let dir = tmpdir("noop");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("n.snap"), &[cloud(700, side, 7)], bounds).unwrap();

    let mut cfg = ServiceConfig::new(4.0, 24);
    cfg.tiles = 1;
    let service = Arc::new(Service::start(&dir, cfg).unwrap());
    let server = TcpServer::bind(service.clone(), ("127.0.0.1", 0)).unwrap();
    let addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());

    let mut proxy = ChaosProxy::start(SocketFaultPlan::none(), addr).unwrap();
    let mut client = ResilientClient::new(proxy.addr(), ClientConfig::default()).unwrap();
    let req = RenderRequest::new("n", Vec3::new(4.0, 4.0, 4.0));
    let via_proxy = client.render(&req).unwrap();
    let in_proc = service.render(&req).unwrap();
    assert_bits_equal(&via_proxy.data, &in_proc.data, "noop proxy vs in-process");
    assert_eq!(proxy.stats.total_injected(), 0, "no-op plan injected");
    assert_eq!(client.stats.retries.load(Ordering::Relaxed), 0);

    // Health over the wire through the proxy.
    let h = client.health().unwrap();
    assert!(h.ok && !h.draining, "{h:?}");
    assert!(h.resident_tiles >= 1);

    let mut direct = Client::connect(addr).unwrap();
    direct.call(&Request::Shutdown).unwrap();
    serve.join().unwrap();
    proxy.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// The negative cache bounds rebuild attempts against an estimator that
/// always fails: 40 rapid fetches may run the build only until the
/// quarantine trips, plus at most the handful of window expiries that fit
/// in the loop's runtime — never once per fetch.
#[test]
fn negative_cache_bounds_rebuilds_of_an_always_failing_tile() {
    let policy = QuarantinePolicy {
        after: 2,
        base: Duration::from_millis(200),
        max: Duration::from_secs(2),
    };
    let cache = TileCache::with_policy(1 << 20, 0, policy);
    let key = TileKey::new("bad", 0);
    let builds = AtomicUsize::new(0);
    let mut quarantined_errors = 0usize;
    for _ in 0..40 {
        let r = cache.get_or_build(&key, || {
            builds.fetch_add(1, Ordering::SeqCst);
            Err::<TileData, _>(ServiceError::Internal("estimator always fails".into()))
        });
        match r.err() {
            Some(ServiceError::Quarantined { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "hint must be usable");
                quarantined_errors += 1;
            }
            Some(ServiceError::Internal(_)) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let ran = builds.load(Ordering::SeqCst);
    // 2 pre-quarantine failures; the 200ms first window dwarfs the loop's
    // runtime, so at most a couple of expiry retries can slip through.
    assert!(
        ran <= 5,
        "quarantine failed to bound rebuilds: {ran} builds"
    );
    assert!(
        quarantined_errors >= 40 - ran,
        "rejections must be typed Quarantined ({quarantined_errors})"
    );
    assert_eq!(cache.quarantined_entries(), 1);
}

/// Degraded-mode serving end to end: warm a tile, push it out with a second
/// estimator's tables, choke admission, and the service answers from the
/// stale copy — bit-identical data, `degraded` flagged — then recovers to
/// fresh serving once the budget returns.
#[test]
fn stale_while_revalidate_serves_evicted_tile_under_overload() {
    let dir = tmpdir("stale");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    let pts = cloud(800, side, 99);
    write_snapshot(&dir.join("s.snap"), &[pts], bounds).unwrap();

    // Phase 1: measure the resident tile with one estimator's table and
    // with a second's, so phase 2's budget can be sized between the two.
    let mut probe_cfg = ServiceConfig::new(4.0, 16);
    probe_cfg.tiles = 1;
    let probe = Service::start(&dir, probe_cfg.clone()).unwrap();
    let req = RenderRequest::new("s", Vec3::new(4.0, 4.0, 4.0));
    let mut ps = req.clone();
    ps.estimator = dtfe_service::EstimatorKind::PsDtfe;
    probe.render(&req).unwrap();
    let tile_bytes = probe.health().resident_bytes as usize;
    probe.render(&ps).unwrap();
    let grown_bytes = probe.health().resident_bytes as usize;
    assert!(0 < tile_bytes && tile_bytes < grown_bytes);
    probe.drain();

    // Phase 2: budget fits the tile with one table, not with two; stale
    // retention on.
    let mut cfg = probe_cfg;
    cfg.cache_budget_bytes = (tile_bytes + grown_bytes) / 2;
    cfg.stale_while_revalidate = true;
    cfg.stale_budget_bytes = 4 * tile_bytes;
    let service = Service::start(&dir, cfg).unwrap();

    let fresh = service.render(&req).unwrap();
    assert!(!fresh.meta.degraded);

    // Same tile, second estimator: its tables grow the one entry past the
    // budget, which moves it — both tables and all — into the stale set.
    service.render(&ps).unwrap();
    let h = service.health();
    assert_eq!(h.stale_tiles, 1, "evicted tile retained stale: {h:?}");

    // Choke admission: the shed path must fall back to the stale copy.
    service.set_admission_budget(0.0);
    let degraded = service.render(&req).unwrap();
    assert!(degraded.meta.degraded, "stale serve must be flagged");
    assert_bits_equal(&degraded.data, &fresh.data, "stale bits vs original");
    assert_eq!(
        service
            .stats()
            .stale_served
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    // A request whose estimator the stale copy holds no table for still
    // sheds with a typed error: degraded serving never fills one.
    let mut cold = req.clone();
    cold.estimator = dtfe_service::EstimatorKind::Stochastic { realizations: 2 };
    match service.render(&cold) {
        Err(ServiceError::Overloaded { .. }) => {}
        other => panic!("expected Overloaded for stale-less shed, got {other:?}"),
    }

    // Budget restored: the tile is rebuilt fresh and matches bit for bit.
    service.set_admission_budget(10.0);
    let rebuilt = service.render(&req).unwrap();
    assert!(!rebuilt.meta.degraded);
    assert_bits_equal(&rebuilt.data, &fresh.data, "rebuilt vs original");
    service.drain();
    std::fs::remove_dir_all(&dir).ok();
}
