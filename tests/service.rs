//! End-to-end tests of the serving layer against the batch pipeline.
//!
//! The load-bearing property: a field served by `dtfe-service` is
//! **bit-identical** to the same request rendered through the offline
//! paths — the distributed batch framework (single-tile config, where the
//! request cube equals the domain and both paths see the same particle
//! sequence) and the core render over a tile's padded particle set
//! (multi-tile config). Cold (triangulation built on demand) and warm
//! (tile LRU hit) responses must match exactly too.

use dtfe_repro::core::marching::projects;
use dtfe_repro::core::{
    surface_density_with_index, DtfeField, GridSpec2, HullIndex, MarchOptions, Mass,
};
use dtfe_repro::delaunay::DelaunayBuilder;
use dtfe_repro::framework::{run_distributed_snapshot, FieldRequest, FrameworkConfig};
use dtfe_repro::geometry::{Aabb3, Vec2, Vec3};
use dtfe_repro::nbody::snapshot::write_snapshot;
use dtfe_repro::service::{
    Client, EstimatorKind, HealthStatus, RenderRequest, RenderResponse, Request, Response,
    ResponseMeta, Service, ServiceConfig, ServiceError, ShardHeartbeat, TcpServer, TraceContext,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dtfe_service_e2e_{}_{name}", std::process::id()));
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
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: cell {i} differs: {x} vs {y}"
        );
    }
}

/// Single-tile service vs the distributed batch framework: the request
/// cube is the whole domain, so both paths triangulate the identical
/// particle sequence — the grids must match bit for bit, cold and warm.
/// With one sample per cell the render is centre-sampled over the whole
/// depth of a dense grid, so both paths project; with two, both march.
#[test]
fn service_matches_batch_framework_bit_for_bit() {
    for samples in [1, 2] {
        served_equals_batch(samples);
    }
}

fn served_equals_batch(samples: usize) {
    let dir = tmpdir(&format!("batch_{samples}"));
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    let pts = cloud(2_500, side, 20260805);
    let path = dir.join("box.snap");
    write_snapshot(&path, std::slice::from_ref(&pts), bounds).unwrap();

    let resolution = 48;
    let center = bounds.center();
    let what = |s: &str| format!("{s}, {samples} samples");

    // Both paths render the whole domain's mesh with these options.
    let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
    let grid = GridSpec2::square(center.xy(), side, resolution);
    let opts = MarchOptions::new()
        .samples(samples)
        .z_range(center.z - side * 0.5, center.z + side * 0.5);
    assert_eq!(
        projects(&field, &grid, &opts),
        samples == 1,
        "{}",
        what("kernel")
    );

    // Offline reference: the batch framework on 1 rank with the field
    // cube equal to the domain.
    let mut fw = FrameworkConfig::new(side, resolution);
    fw.samples = samples;
    fw.keep_fields = true;
    let report =
        run_distributed_snapshot(1, &path, &[FieldRequest { center }], &fw).expect("batch run");
    let (_, reference) = report.ranks[0]
        .fields
        .first()
        .expect("batch path rendered the field");

    // The service with one whole-domain tile and matching options.
    let mut cfg = ServiceConfig::new(side, resolution);
    cfg.tiles = 1;
    cfg.samples = samples;
    let service = Service::start(&dir, cfg).unwrap();
    let mut req = RenderRequest::new("box", center);
    req.samples = samples as u32;

    let cold = service.render(&req).expect("cold render");
    assert!(!cold.meta.cache_hit, "first request must be a miss");
    assert_eq!((cold.grid.nx, cold.grid.ny), (resolution, resolution));
    assert_bits_equal(
        &cold.data,
        &reference.data,
        &what("cold vs batch framework"),
    );

    let warm = service.render(&req).expect("warm render");
    assert!(warm.meta.cache_hit, "second request must hit the tile LRU");
    assert_bits_equal(&warm.data, &cold.data, &what("warm vs cold"));

    let stats = service.stats();
    assert_eq!(
        stats.hits.load(std::sync::atomic::Ordering::Relaxed)
            + stats.misses.load(std::sync::atomic::Ordering::Relaxed),
        stats.completed.load(std::sync::atomic::Ordering::Relaxed),
        "hit/miss accounting"
    );
    service.drain();
    std::fs::remove_dir_all(&dir).ok();
}

/// Multi-tile service vs an offline core-path render over the same tile
/// mesh: the serving machinery (queueing, batching, cache) must not
/// perturb a single bit of the output.
#[test]
fn multi_tile_service_matches_offline_tile_render() {
    let dir = tmpdir("tiles");
    let side = 16.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    let pts = cloud(4_000, side, 7_654_321);
    write_snapshot(&dir.join("t.snap"), std::slice::from_ref(&pts), bounds).unwrap();

    let field_len = 4.0;
    let resolution = 40;
    let mut cfg = ServiceConfig::new(field_len, resolution);
    cfg.tiles = 8;
    let service = Service::start(&dir, cfg.clone()).unwrap();

    // A centre well inside one of the 8 octant tiles.
    let center = Vec3::new(3.9, 4.1, 3.7);
    let resp = service
        .render(&RenderRequest::new("t", center))
        .expect("served render");

    // Offline: rebuild exactly what the tile cache should have built —
    // the ghost-padded tile particle set in file order — and render with
    // the same options.
    let decomp = dtfe_repro::framework::Decomposition::new(bounds, cfg.tiles);
    let tile_box = decomp
        .rank_box(decomp.rank_of(center))
        .inflated(cfg.ghost_margin());
    let local: Vec<Vec3> = pts
        .iter()
        .copied()
        .filter(|&p| tile_box.contains_closed(p))
        .collect();
    let del = DelaunayBuilder::new().build(&local).unwrap();
    let field = DtfeField::from_delaunay_for_inputs(del, local.len(), Mass::Uniform(1.0));
    let index = HullIndex::build(&field);
    let grid = GridSpec2::try_square(center.xy(), field_len, resolution).unwrap();
    let opts = MarchOptions::new()
        .samples(1)
        .parallel(false)
        .z_range(center.z - field_len * 0.5, center.z + field_len * 0.5);
    let (reference, _) = surface_density_with_index(&field, &index, &grid, &opts);

    assert_bits_equal(&resp.data, &reference.data, "served vs offline tile render");
    service.drain();
    std::fs::remove_dir_all(&dir).ok();
}

/// The TCP transport returns byte-identical fields to the in-process
/// handle, reports typed errors, serves stats, and drains on Shutdown.
#[test]
fn tcp_transport_round_trip_errors_and_shutdown() {
    let dir = tmpdir("tcp");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("net.snap"), &[cloud(1_500, side, 99)], bounds).unwrap();

    let mut cfg = ServiceConfig::new(side, 32);
    cfg.tiles = 1;
    let service = Arc::new(Service::start(&dir, cfg).unwrap());
    let server = TcpServer::bind(service.clone(), ("127.0.0.1", 0)).unwrap();
    let addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());

    let mut client = Client::connect(addr).unwrap();
    let req = RenderRequest::new("net", bounds.center());
    let over_wire = client.render(&req).expect("tcp render");
    let in_proc = service.render(&req).expect("in-process render");
    assert_bits_equal(&over_wire.data, &in_proc.data, "tcp vs in-process");

    // Typed errors survive the wire.
    let err = client
        .render(&RenderRequest::new("no-such-snapshot", bounds.center()))
        .unwrap_err();
    assert_eq!(
        err,
        ServiceError::UnknownSnapshot("no-such-snapshot".into())
    );
    let err = client
        .render(&RenderRequest::new("net", Vec3::new(-100.0, 0.0, 0.0)))
        .unwrap_err();
    assert!(matches!(err, ServiceError::InvalidRequest(_)), "{err:?}");

    // Stats is a typed document whose counters reflect the work above,
    // and whose JSON form passes the telemetry checker.
    let stats = client.stats().expect("stats");
    assert!(stats.serving.hits + stats.serving.misses > 0, "{stats:?}");
    dtfe_telemetry::check::check_stats_json(&stats.to_json()).expect("stats JSON validates");

    // Shutdown acks, the accept loop exits, and renders after drain are
    // refused.
    assert_eq!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShutdownAck
    );
    serve.join().expect("serve loop exits after Shutdown");
    let err = service.render(&req).unwrap_err();
    assert_eq!(err, ServiceError::ShuttingDown);
    std::fs::remove_dir_all(&dir).ok();
}

/// Admission control sheds with a typed `Overloaded` carrying a usable
/// retry hint once the priced backlog exceeds the budget.
#[test]
fn admission_sheds_with_retry_hint_when_budget_is_zero() {
    let dir = tmpdir("shed");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("s.snap"), &[cloud(800, side, 5)], bounds).unwrap();

    let mut cfg = ServiceConfig::new(side, 32);
    cfg.tiles = 1;
    cfg.admission_budget_s = 0.0;
    let service = Service::start(&dir, cfg).unwrap();
    let err = service
        .render(&RenderRequest::new("s", bounds.center()))
        .unwrap_err();
    let ServiceError::Overloaded { retry_after_ms } = err else {
        panic!("expected Overloaded, got {err:?}");
    };
    assert!(retry_after_ms >= 10);
    assert_eq!(
        service
            .stats()
            .shed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    service.drain();
    std::fs::remove_dir_all(&dir).ok();
}

/// A request whose deadline passes while it waits in the queue is dropped
/// with a typed `DeadlineExceeded`, counted once, and refunded: one worker
/// busy with a cold build of tile A holds tile B's 1 ms request past its
/// deadline, and after drain the serving counters balance and nothing is
/// left queued or priced. Sampled, the dropped request is flight-recorded.
#[test]
fn queued_request_past_its_deadline_is_dropped_counted_and_refunded() {
    use std::sync::atomic::Ordering::Relaxed;
    let dir = tmpdir("deadline");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("d.snap"), &[cloud(6_000, side, 31)], bounds).unwrap();

    let mut cfg = ServiceConfig::new(2.0, 16);
    cfg.tiles = 8;
    cfg.workers = 1;
    let service = Service::start(&dir, cfg).unwrap();
    let tile_a = service
        .submit(&RenderRequest::new("d", Vec3::splat(2.0)))
        .expect("tile A admitted");
    let trace = TraceContext::sampled(*b"deadline-dropped");
    let mut late = RenderRequest::new("d", Vec3::splat(6.0)).traced(trace);
    late.deadline_ms = 1;
    let tile_b = service.submit(&late).expect("tile B admitted");

    assert_eq!(tile_b.recv().unwrap(), Err(ServiceError::DeadlineExceeded));
    assert!(tile_a.recv().unwrap().is_ok(), "tile A is served");
    let stats = service.stats();
    assert_eq!(stats.deadline_dropped.load(Relaxed), 1);
    let flights = service.flight().snapshot();
    assert!(
        flights.iter().any(|t| t.trace_id == trace.hex()),
        "sampled drop recorded: {flights:?}"
    );

    service.drain();
    let doc = service.stats_document().serving;
    assert_eq!(doc.admitted, 2);
    assert_eq!(
        doc.admitted,
        doc.completed + doc.failed + doc.deadline_dropped,
        "{doc:?}"
    );
    assert_eq!(doc.hits + doc.misses, doc.completed, "{doc:?}");
    let health = service.health();
    assert_eq!(
        (health.backlog_ms, health.queue_depth),
        (0, 0),
        "{health:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Round-trip tests cannot see an encoder and decoder drifting together;
/// these byte vectors pin the two frames every render exchanges.
#[test]
fn wire_layout_is_pinned() {
    #[rustfmt::skip]
    let request: &[u8] = &[
        8,                                              // tag
        1, 0, b's',                                     // snapshot: u16 length + UTF-8
        0, 0, 0, 0, 0, 0, 0xF0, 0x3F,                   // center.x = 1.0
        0, 0, 0, 0, 0, 0, 0x00, 0x40,                   // center.y = 2.0
        0, 0, 0, 0, 0, 0, 0xE0, 0xBF,                   // center.z = -0.5
        64, 0, 0, 0,                                    // resolution
        2, 0, 0, 0,                                     // samples
        250, 0, 0, 0, 0, 0, 0, 0,                       // deadline_ms
        2, 0, 0,                                        // estimator psdtfe + u16 parameter
        3,                                              // trace flags: present | sampled
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, // trace id
        1,                                              // routing flags: forwarded
    ];
    let id: [u8; 16] = std::array::from_fn(|i| i as u8);
    let mut req = RenderRequest::new("s", Vec3::new(1.0, 2.0, -0.5))
        .estimator(EstimatorKind::PsDtfe)
        .traced(TraceContext::sampled(id))
        .forwarded(true);
    req.resolution = 64;
    req.samples = 2;
    req.deadline_ms = 250;
    let req = Request::Render(req);
    assert_eq!(req.encode(), request);
    assert_eq!(Request::decode(request).unwrap(), req);

    #[rustfmt::skip]
    let response: &[u8] = &[
        7,                                              // tag
        0, 0, 0, 0, 0, 0, 0xF0, 0x3F,                   // origin.x = 1.0
        0, 0, 0, 0, 0, 0, 0x00, 0x40,                   // origin.y = 2.0
        0, 0, 0, 0, 0, 0, 0xD0, 0x3F,                   // cell.x = 0.25
        0, 0, 0, 0, 0, 0, 0xE0, 0x3F,                   // cell.y = 0.5
        2, 0, 0, 0,                                     // nx
        1, 0, 0, 0,                                     // ny
        1,                                              // cache_hit
        2, 0, 0, 0,                                     // batch_size
        10, 0, 0, 0, 0, 0, 0, 0,                        // queue_us
        20, 0, 0, 0, 0, 0, 0, 0,                        // render_us
        1,                                              // degraded
        3, 0, 0, 0, 0, 0, 0, 0,                         // admission_us
        40, 0, 0, 0, 0, 0, 0, 0,                        // build_us
        1,                                              // trace flags: present, unsampled
        7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, // trace id
        2, 0, 0, 0, 0, 0, 0, 0,                         // value count
        0, 0, 0, 0, 0, 0, 0x14, 0x40,                   // 5.0
        0, 0, 0, 0, 0, 0, 0x18, 0x40,                   // 6.0
    ];
    let resp = Response::Field(RenderResponse {
        grid: GridSpec2 {
            origin: Vec2::new(1.0, 2.0),
            cell: Vec2::new(0.25, 0.5),
            nx: 2,
            ny: 1,
        },
        data: vec![5.0, 6.0],
        meta: ResponseMeta {
            cache_hit: true,
            batch_size: 2,
            admission_us: 3,
            queue_us: 10,
            build_us: 40,
            render_us: 20,
            trace: Some(TraceContext {
                id: [7; 16],
                sampled: false,
            }),
            degraded: true,
        },
    });
    assert_eq!(resp.encode(), response);
    assert_eq!(Response::decode(response).unwrap(), resp);
}

/// The two control frames the cluster and its probes exchange, pinned the
/// same way: a gossip heartbeat (liveness only) and a health answer.
#[test]
fn gossip_and_health_layouts_are_pinned() {
    #[rustfmt::skip]
    let gossip: &[u8] = &[
        9,                                              // tag
        2, 0, 0, 0,                                     // shard
        41, 0, 0, 0, 0, 0, 0, 0,                        // seq
        1,                                              // draining
    ];
    let hb = ShardHeartbeat {
        shard: 2,
        seq: 41,
        draining: true,
    };
    let req = Request::Gossip(hb);
    assert_eq!(req.encode(), gossip);
    assert_eq!(Request::decode(gossip).unwrap(), req);
    let resp = Response::Gossip(hb);
    assert_eq!(resp.encode(), gossip, "both directions share the layout");
    assert_eq!(Response::decode(gossip).unwrap(), resp);

    #[rustfmt::skip]
    let health: &[u8] = &[
        6,                                              // tag
        1,                                              // ok
        0,                                              // draining
        3, 0, 0, 0, 0, 0, 0, 0,                         // resident_tiles
        0, 0, 0x10, 0, 0, 0, 0, 0,                      // resident_bytes = 1 MiB
        1, 0, 0, 0, 0, 0, 0, 0,                         // quarantined_tiles
        7, 0, 0, 0, 0, 0, 0, 0,                         // queue_depth
        0xC2, 1, 0, 0, 0, 0, 0, 0,                      // backlog_ms = 450
    ];
    let resp = Response::Health(HealthStatus {
        ok: true,
        draining: false,
        resident_tiles: 3,
        resident_bytes: 1 << 20,
        quarantined_tiles: 1,
        queue_depth: 7,
        backlog_ms: 450,
    });
    assert_eq!(resp.encode(), health);
    assert_eq!(Response::decode(health).unwrap(), resp);
}
