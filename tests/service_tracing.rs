//! End-to-end tests of request tracing and live metrics (DESIGN.md §4i).
//!
//! Acceptance behaviors for the observability layer, each proven over the
//! real serving stack (TCP wire included where it matters):
//!
//! 1. a render with a sampled trace id echoes the id and a per-stage
//!    breakdown whose stage sum never exceeds the request wall time;
//! 2. failing builds (corrupt snapshot) land quarantine entries in the
//!    flight recorder, and after the file is fixed the tile recovers —
//!    with the slow cold recovery request recorded too;
//! 3. the wire `Dump` request returns Chrome-trace JSON that passes
//!    `check_chrome_trace`;
//! 4. the windowed `Stats` histograms surface a just-injected latency
//!    spike that the cumulative histogram dilutes away;
//! 5. a sampled request is flight-recorded whatever its outcome, served
//!    stale or refused at submission included.
//!
//! Every test installs a process-global telemetry recorder (via
//! `cfg.telemetry`), so they serialize on one lock: global install is
//! last-wins and concurrent tests would cross their metrics streams.

use dtfe_repro::geometry::{Aabb3, Vec3};
use dtfe_repro::nbody::snapshot::write_snapshot;
use dtfe_repro::service::{
    Client, ClientConfig, RenderRequest, ResilientClient, Service, ServiceConfig, ServiceError,
    TcpServer, TraceContext,
};
use dtfe_repro::telemetry::check::{check_chrome_trace, check_stats_json};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dtfe_tracing_e2e_{}_{name}", std::process::id()));
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

/// Behavior 1 + 3: a sampled trace id round-trips over TCP with a
/// per-stage breakdown bounded by the wall time, the sampled request is
/// in the flight recorder, and the wire `Dump` passes the trace checker.
#[test]
fn traced_tcp_render_returns_stage_breakdown_and_is_flight_recorded() {
    let _guard = telemetry_lock();
    let dir = tmpdir("traced");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("t.snap"), &[cloud(1_500, side, 11)], bounds).unwrap();

    let mut cfg = ServiceConfig::new(4.0, 32);
    cfg.tiles = 1;
    cfg.telemetry = true;
    let service = Arc::new(Service::start(&dir, cfg).unwrap());
    let server = TcpServer::bind(service.clone(), ("127.0.0.1", 0)).unwrap();
    let addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());

    // Explicit sampled trace through the naive client: the exact id must
    // come back in the response meta.
    let ctx = TraceContext::sampled(*b"0123456789abcdef");
    let req = RenderRequest::new("t", bounds.center()).traced(ctx);
    let mut client = Client::connect(addr).unwrap();
    let t0 = Instant::now();
    let resp = client.render(&req).expect("traced cold render");
    let wall_us = t0.elapsed().as_micros() as u64;
    assert_eq!(resp.meta.trace, Some(ctx), "trace id must echo");
    let stage_sum = resp.meta.stage_sum_us();
    assert!(stage_sum > 0, "cold render must report stage timings");
    assert!(
        stage_sum <= wall_us,
        "stage sum {stage_sum}µs exceeds client wall {wall_us}µs"
    );
    assert!(
        resp.meta.build_us > 0,
        "cold render must report build time: {:?}",
        resp.meta
    );

    // The resilient client mints (and samples) an id when none is given.
    let minted_cfg = ClientConfig {
        sample_traces: true,
        ..ClientConfig::default()
    };
    let mut resilient = ResilientClient::new(addr, minted_cfg).unwrap();
    let resp2 = resilient
        .render(&RenderRequest::new("t", bounds.center()))
        .expect("warm render with minted trace");
    let minted = resp2.meta.trace.expect("client must mint a trace id");
    assert!(minted.sampled, "minted traces are sampled");
    assert_ne!(minted.id, [0u8; 16], "minted id must be nonzero");

    // Both sampled requests are in the flight recorder.
    let flights = service.flight().snapshot();
    let ids: Vec<&str> = flights.iter().map(|t| t.trace_id.as_str()).collect();
    assert!(ids.contains(&ctx.hex().as_str()), "explicit id in {ids:?}");
    assert!(ids.contains(&minted.hex().as_str()), "minted id in {ids:?}");
    assert!(flights.iter().all(|t| t.reason == "sampled"), "{flights:?}");

    // Behavior 3: the wire Dump is valid Chrome-trace JSON carrying the
    // explicit trace id; the typed Stats document validates too.
    let dump = client.dump().expect("dump over the wire");
    let stats = check_chrome_trace(&dump).expect("dump passes the trace checker");
    assert!(stats.events > 0 && stats.spans > 0, "{stats:?}");
    assert!(
        dump.contains(&ctx.hex()),
        "dump must name the sampled trace id"
    );
    let doc = client.stats().expect("typed stats over the wire");
    assert!(doc.serving.completed >= 2, "{doc:?}");
    check_stats_json(&doc.to_json()).expect("stats JSON passes the checker");

    client.shutdown().expect("clean shutdown");
    serve.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Behavior 2: a corrupt snapshot fails builds into quarantine (flight
/// reason "quarantined"), fixing the file recovers the tile, and the
/// slow cold recovery render is flight-recorded as "slow".
#[test]
fn quarantine_and_recovery_are_flight_recorded() {
    let _guard = telemetry_lock();
    let dir = tmpdir("quarantine");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    let snap = dir.join("q.snap");
    write_snapshot(&snap, &[cloud(2_000, side, 22)], bounds).unwrap();
    let good_bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, b"definitely not a snapshot").unwrap();

    let mut cfg = ServiceConfig::new(4.0, 32);
    cfg.tiles = 1;
    cfg.telemetry = true;
    // Far below any cold build time, far above a warm render: the cold
    // recovery render must classify as slow.
    cfg.slow_threshold = Some(Duration::from_millis(1));
    let service = Service::start(&dir, cfg).unwrap();
    let req = RenderRequest::new("q", bounds.center());

    // Two failing builds trip the quarantine; the third is rejected by it.
    for attempt in 0..2 {
        let err = service.render(&req).unwrap_err();
        assert!(
            !matches!(err, ServiceError::Quarantined { .. }),
            "attempt {attempt} failed the build itself, got {err:?}"
        );
    }
    let err = service.render(&req).unwrap_err();
    assert!(
        matches!(err, ServiceError::Quarantined { .. }),
        "third attempt must be quarantined, got {err:?}"
    );

    let reasons: Vec<String> = service
        .flight()
        .snapshot()
        .into_iter()
        .map(|t| t.reason)
        .collect();
    assert!(
        reasons.iter().any(|r| r == "failed"),
        "build failures recorded: {reasons:?}"
    );
    assert!(
        reasons.iter().any(|r| r == "quarantined"),
        "quarantine recorded: {reasons:?}"
    );

    // Fix the file, let the quarantine window lapse, and the tile
    // recovers with a real (cold, slow) render.
    std::fs::write(&snap, &good_bytes).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let resp = service.render(&req).expect("recovery render");
    assert!(!resp.meta.cache_hit, "recovery rebuilds the tile");
    assert!(!resp.data.is_empty());
    let flights = service.flight().snapshot();
    assert!(
        flights.iter().any(|t| t.reason == "slow"),
        "slow recovery render recorded: {:?}",
        flights.iter().map(|t| &t.reason).collect::<Vec<_>>()
    );

    // The whole story exports as a valid Chrome trace.
    check_chrome_trace(&service.dump_trace()).expect("dump passes the trace checker");
    service.drain();
    std::fs::remove_dir_all(&dir).ok();
}

/// Behavior 5: a sampled request is flight-recorded whatever its outcome —
/// refused by admission at submission too, not only when a worker renders
/// it.
#[test]
fn sampled_requests_are_flight_recorded_when_refused() {
    let _guard = telemetry_lock();
    let dir = tmpdir("refused");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("s.snap"), &[cloud(800, side, 44)], bounds).unwrap();
    let mut cfg = ServiceConfig::new(4.0, 16);
    cfg.tiles = 1;
    let service = Service::start(&dir, cfg).unwrap();
    service.set_admission_budget(0.0);

    let refused = TraceContext::sampled(*b"shed-at-submit!!");
    let req = RenderRequest::new("s", bounds.center()).traced(refused);
    let err = service.render(&req).unwrap_err();
    assert!(matches!(err, ServiceError::Overloaded { .. }), "{err:?}");

    let flights = service.flight().snapshot();
    let trace = flights
        .iter()
        .find(|t| t.trace_id == refused.hex())
        .unwrap_or_else(|| panic!("{} not recorded: {flights:?}", refused.hex()));
    assert_eq!(trace.reason, "sampled");
    check_chrome_trace(&service.dump_trace()).expect("dump passes the trace checker");
    service.drain();
    std::fs::remove_dir_all(&dir).ok();
}

/// Behavior 4: the windowed histograms answer "p99 over the last few
/// seconds" — a latency spike injected after the bulk traffic rotates out
/// dominates the windowed p99 while the cumulative histogram, carrying
/// hundreds of earlier fast samples, keeps a small p99.
#[test]
fn windowed_p99_surfaces_a_spike_the_cumulative_histogram_dilutes() {
    let _guard = telemetry_lock();
    let dir = tmpdir("windows");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("w.snap"), &[cloud(1_000, side, 33)], bounds).unwrap();

    let mut cfg = ServiceConfig::new(4.0, 16);
    cfg.tiles = 1;
    cfg.telemetry = true;
    // Small windows so the test can rotate them out with a short sleep.
    cfg.window_buckets = 4;
    cfg.window_width = Duration::from_millis(250);
    let service = Service::start(&dir, cfg).unwrap();
    let req = RenderRequest::new("w", bounds.center());

    // Bulk traffic: one cold build, then warm (sub-millisecond) renders.
    // Pad with synthetic 1ms samples so the cumulative p99 is pinned deep
    // in fast territory regardless of how quick the real renders are.
    for _ in 0..100 {
        service.render(&req).expect("warm render");
    }
    for _ in 0..900 {
        dtfe_repro::telemetry::hist_record!("service.request_latency_us", 1_000);
    }

    // Let every bulk sample rotate out of the 4×250ms windows, then
    // inject the spike: five 5-second "requests", just now.
    std::thread::sleep(Duration::from_millis(1_100));
    for _ in 0..5 {
        dtfe_repro::telemetry::hist_record!("service.request_latency_us", 5_000_000);
    }

    let doc = service.stats_document();
    let metrics = doc.metrics.as_ref().expect("telemetry is on");
    let cumulative = &metrics.histograms["service.request_latency_us"];
    let windowed = &metrics.windows["service.request_latency_us"];
    assert!(
        metrics.window_seconds > 0.9 && metrics.window_seconds < 1.1,
        "4×250ms windows advertise ≈1s of coverage, got {}",
        metrics.window_seconds
    );
    assert!(
        windowed.count >= 5 && windowed.count < 100,
        "window holds (roughly) only the spike, got {} samples",
        windowed.count
    );
    assert!(
        windowed.p99 >= 4_000_000,
        "windowed p99 must surface the spike, got {}µs",
        windowed.p99
    );
    assert!(
        cumulative.p99 < 1_000_000,
        "cumulative p99 must stay diluted, got {}µs over {} samples",
        cumulative.p99,
        cumulative.count
    );
    assert!(cumulative.count >= 1_005, "{cumulative:?}");

    // The same document round-trips and validates, windows included.
    let json = doc.to_json();
    let stats = check_stats_json(&json).expect("stats JSON passes the checker");
    assert!(stats.windows > 0, "checker must see window sections");
    service.drain();
    std::fs::remove_dir_all(&dir).ok();
}
