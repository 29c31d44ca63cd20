//! Cluster end-to-end conformance: a 3-shard cluster must be
//! *observationally identical* to a single-node server.
//!
//! Three escalating contracts:
//!
//! 1. **Bit-identity**: every field served by the cluster — cold, warm,
//!    via the ring-aware client *or* a naive client whose requests get
//!    proxied server-side — matches a single-node reference render bit for
//!    bit, and each tile is built once in the whole cluster.
//! 2. **Failover**: killing one shard rehashes its arcs to the survivors;
//!    every subsequent request still returns the bit-identical field, and
//!    the survivors' ring epoch bumps once gossip notices the silence.
//! 3. **Chaos** (the serving tier's standing contract, now clustered):
//!    under the full seeded fault storm *with a shard killed mid-storm*,
//!    every response is either the byte-identical field or a typed error —
//!    never corrupt bytes, never a hang.

use dtfe_cluster::{key_of, ClusterClient, ClusterConfig, HashRing, LocalCluster, ShardSpec};
use dtfe_framework::Decomposition;
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::snapshot::write_snapshot;
use dtfe_service::{
    ChaosProxy, Client, ClientConfig, RenderRequest, Service, ServiceConfig, SocketFaultPlan,
    SocketFaultRule, TileKey,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dtfe_cluster_{}_{name}", std::process::id()));
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

const SIDE: f64 = 8.0;
const TILES: usize = 4;

/// The shared shard/reference service config. Every shard loads the same
/// snapshot with the same single-threaded builder, which is what makes
/// failover renders bit-identical.
fn service_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(4.0, 16);
    cfg.tiles = TILES;
    // Short socket timeouts so severed connections cannot pin handler
    // threads for the test's lifetime (and shard kills converge fast).
    cfg.read_timeout = Some(Duration::from_millis(500));
    cfg.write_timeout = Some(Duration::from_millis(500));
    cfg
}

fn cluster_config(shard: u32) -> ClusterConfig {
    ClusterConfig {
        shard,
        vnodes: 128,
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(400),
    }
}

/// Boot an n-shard cluster over one snapshot directory on ephemeral ports.
fn boot(dir: &Path, n: usize) -> (LocalCluster, Vec<SocketAddr>) {
    let specs = (0..n)
        .map(|i| ShardSpec {
            service: service_config(),
            cluster: cluster_config(i as u32),
            bind: ([127, 0, 0, 1], 0).into(),
        })
        .collect();
    let cluster = LocalCluster::boot(dir, specs, None).unwrap();
    let addrs = cluster.addrs().to_vec();
    (cluster, addrs)
}

fn client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Some(Duration::from_millis(2_000)),
        write_timeout: Some(Duration::from_millis(2_000)),
        max_retries: 3,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(50),
        seed,
        sample_traces: false,
    }
}

/// Field centres spread across all tiles of the 8³ box (field_len 4 keeps
/// each cube inside the ghost-padded tile).
fn centers() -> Vec<Vec3> {
    let mut v = Vec::new();
    for &x in &[2.5, 5.5] {
        for &y in &[2.5, 5.5] {
            for &z in &[2.5, 5.5] {
                v.push(Vec3::new(x, y, z));
            }
        }
    }
    v
}

fn ring_client(addrs: &[SocketAddr], seed: u64) -> ClusterClient {
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(SIDE));
    let mut client = ClusterClient::new(addrs, 128, client_config(seed)).unwrap();
    client.register_snapshot("c", bounds, TILES);
    client
}

/// Contract 1: cold, warm, and naive-client renders are all bit-identical
/// to a single-node reference, and with every shard live each ring-aware
/// request is served by its tile's ring primary.
#[test]
fn three_shards_bit_identical_to_single_node() {
    let dir = tmpdir("bitident");
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(SIDE));
    write_snapshot(&dir.join("c.snap"), &[cloud(2000, SIDE, 42)], bounds).unwrap();

    // Single-node reference: the same config, rendered in-process.
    let reference = Service::start(&dir, service_config()).unwrap();
    let cs = centers();
    let refs: Vec<_> = cs
        .iter()
        .map(|&c| reference.render(&RenderRequest::new("c", c)).unwrap())
        .collect();

    let (_shards, addrs) = boot(&dir, 3);
    let mut client = ring_client(&addrs, 7);
    let ring = HashRing::new(3, 128);
    let decomp = Decomposition::new(bounds, TILES);
    let primary = |c: Vec3| {
        let key = key_of(&TileKey::new("c", decomp.rank_of(c)));
        ring.primary(key, &[true; 3]).unwrap()
    };

    // Cold pass: every tile built from scratch, spread over the ring.
    let mut served_by = [0usize; 3];
    for (i, &c) in cs.iter().enumerate() {
        let (resp, shard) = client.render(&RenderRequest::new("c", c)).unwrap();
        assert_bits_equal(&resp.data, &refs[i].data, &format!("cold centre {i}"));
        assert_eq!(shard, primary(c), "cold centre {i}: not the ring primary");
        served_by[shard] += 1;
    }
    assert!(
        served_by.iter().filter(|&&n| n > 0).count() >= 2,
        "ring routing collapsed onto one shard: {served_by:?}"
    );

    // Warm passes: every repeat is served by its tile's primary again, with
    // the same bytes.
    for round in 0..4 {
        for (i, &c) in cs.iter().enumerate() {
            let (resp, shard) = client.render(&RenderRequest::new("c", c)).unwrap();
            assert_bits_equal(
                &resp.data,
                &refs[i].data,
                &format!("warm round {round} centre {i}"),
            );
            assert_eq!(shard, primary(c), "warm round {round} centre {i}");
        }
    }

    // Naive client pointed at one shard: non-owned tiles are proxied (or
    // failover-rendered) server-side, still bit-identical.
    let mut naive = Client::connect(addrs[0]).unwrap();
    for (i, &c) in cs.iter().enumerate() {
        let resp = naive.render(&RenderRequest::new("c", c)).unwrap();
        assert_bits_equal(&resp.data, &refs[i].data, &format!("naive centre {i}"));
    }
}

/// Repeated traffic for a tile sent to a shard that does not own it is
/// forwarded every time: the tile is built once, on its primary, and never
/// a second time on the shard that keeps receiving it.
#[test]
fn non_owner_traffic_builds_each_tile_once() {
    use std::sync::atomic::Ordering;
    let dir = tmpdir("onebuild");
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(SIDE));
    write_snapshot(&dir.join("c.snap"), &[cloud(2000, SIDE, 46)], bounds).unwrap();
    let reference = Service::start(&dir, service_config()).unwrap();
    let (shards, addrs) = boot(&dir, 3);

    let center = centers()[0];
    let tile = TileKey::new("c", Decomposition::new(bounds, TILES).rank_of(center));
    let successor = HashRing::new(3, 128).replicas(key_of(&tile), 2, &[true; 3])[1];
    let req = RenderRequest::new("c", center);
    let expect = reference.render(&req).unwrap();
    let mut to_successor = Client::connect(addrs[successor]).unwrap();
    for i in 0..10 {
        let resp = to_successor.render(&req).unwrap();
        assert_bits_equal(&resp.data, &expect.data, &format!("request {i}"));
    }
    let builds: u64 = (0..3)
        .map(|i| {
            shards
                .node(i)
                .service()
                .cache()
                .stats
                .misses
                .load(Ordering::Relaxed)
        })
        .sum();
    assert_eq!(builds, 1, "one tile, one build in the whole cluster");
}

/// Placement follows the mesh, not the estimator: every estimator of a tile
/// hashes to the tile's ring position, so a second estimator lands on the
/// shard that already holds the triangulation and only fills a table there.
#[test]
fn estimators_of_one_tile_share_a_shard_and_a_mesh() {
    use dtfe_service::EstimatorKind;
    use std::sync::atomic::Ordering;
    let dir = tmpdir("onemesh");
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(SIDE));
    write_snapshot(&dir.join("c.snap"), &[cloud(2000, SIDE, 45)], bounds).unwrap();
    let reference = Service::start(&dir, service_config()).unwrap();
    let (shards, addrs) = boot(&dir, 3);
    let mut client = ring_client(&addrs, 10);

    let center = centers()[0];
    let kinds = [EstimatorKind::Dtfe, EstimatorKind::PsDtfe];
    let served_by = kinds.map(|kind| {
        let req = RenderRequest::new("c", center).estimator(kind);
        let (resp, shard) = client.render(&req).unwrap();
        let expect = reference.render(&req).unwrap();
        assert_bits_equal(&resp.data, &expect.data, &format!("{kind}"));
        assert!(!resp.meta.cache_hit, "{kind}: a mesh or a table was built");
        shard
    });
    assert_eq!(served_by[0], served_by[1], "one tile, one owner");
    // One triangulation in the whole cluster (a cache miss is a mesh
    // build), one entry, two tables on it.
    let caches = (0..3).map(|i| shards.node(i).service().cache());
    let (builds, entries) = caches.fold((0, 0), |(b, e), cache| {
        let misses = cache.stats.misses.load(Ordering::Relaxed);
        (b + misses, e + cache.resident_entries())
    });
    assert_eq!((builds, entries), (1, 1));
}

/// Contract 2: kill one shard after warmup. Every later render still
/// returns the bit-identical field (rehash + failover), and the
/// survivors' ring epoch bumps once gossip notices the silence.
#[test]
fn shard_death_fails_over_and_rebalances() {
    let dir = tmpdir("failover");
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(SIDE));
    write_snapshot(&dir.join("c.snap"), &[cloud(2000, SIDE, 43)], bounds).unwrap();

    let reference = Service::start(&dir, service_config()).unwrap();
    let cs = centers();
    let refs: Vec<_> = cs
        .iter()
        .map(|&c| reference.render(&RenderRequest::new("c", c)).unwrap())
        .collect();

    let (mut shards, addrs) = boot(&dir, 3);
    let mut client = ring_client(&addrs, 8);

    // Warm every tile and find a shard that actually served traffic, so
    // the kill is guaranteed to take someone's arcs away.
    let mut served_by = [0usize; 3];
    for (i, &c) in cs.iter().enumerate() {
        let (resp, shard) = client.render(&RenderRequest::new("c", c)).unwrap();
        assert_bits_equal(&resp.data, &refs[i].data, &format!("pre-kill centre {i}"));
        served_by[shard] += 1;
    }
    let victim = served_by
        .iter()
        .enumerate()
        .max_by_key(|(_, &n)| n)
        .map(|(i, _)| i)
        .unwrap();
    let survivors: Vec<usize> = (0..3).filter(|&i| i != victim).collect();
    let epochs_before: Vec<u64> = survivors.iter().map(|&i| shards.node(i).epoch()).collect();

    shards.kill(victim).expect("shard thread panicked");

    // Every request must still come back bit-identical: the client marks
    // the dead shard, the ring rehashes its arcs, and worst case a
    // survivor failover-renders the tile locally.
    for (i, &c) in cs.iter().enumerate() {
        let (resp, shard) = client.render(&RenderRequest::new("c", c)).unwrap();
        assert_bits_equal(&resp.data, &refs[i].data, &format!("post-kill centre {i}"));
        assert_ne!(shard, victim, "dead shard cannot have served centre {i}");
    }

    // Gossip notices the silence within the heartbeat timeout: each
    // survivor bumps its epoch and records a rebalance.
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let bumped = survivors
            .iter()
            .zip(&epochs_before)
            .all(|(&i, &e0)| shards.node(i).epoch() > e0);
        if bumped {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "survivors never bumped their ring epoch after the kill"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // And the rebalanced cluster keeps serving the dead shard's tiles.
    let mut fresh = ring_client(&addrs, 9);
    for (i, &c) in cs.iter().enumerate() {
        let (resp, shard) = fresh.render(&RenderRequest::new("c", c)).unwrap();
        assert_bits_equal(&resp.data, &refs[i].data, &format!("rebalanced centre {i}"));
        assert_ne!(shard, victim);
    }
}

/// The serving tier's stormy rule (all seven fault kinds), identical to
/// the single-node chaos suite's.
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

/// Contract 3 (chaos): the full seeded storm on shard 0's socket path,
/// with shard 1 killed mid-storm. Every outcome is bit-identical-or-typed
/// error; after the storm the dead shard's tiles are served bit-identical
/// by the survivors.
#[test]
fn chaos_storm_with_shard_kill() {
    let dir = tmpdir("chaos");
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(SIDE));
    write_snapshot(&dir.join("c.snap"), &[cloud(1200, SIDE, 44)], bounds).unwrap();

    let reference = Service::start(&dir, service_config()).unwrap();
    let cs = centers();
    let refs: Vec<_> = cs
        .iter()
        .map(|&c| reference.render(&RenderRequest::new("c", c)).unwrap())
        .collect();

    let (mut shards, addrs) = boot(&dir, 3);

    let mut oks = 0usize;
    let mut typed_errors = 0usize;
    let mut killed = false;
    for seed in [11u64, 22, 33, 44, 55] {
        // Chaos on the path to shard 0 only: the ring-aware client's view
        // of shard 0 goes through the fault injector, shards 1 and 2 are
        // reached directly.
        let plan = SocketFaultPlan::seeded(seed).rule(stormy_rule());
        let mut proxy = ChaosProxy::start(plan, addrs[0]).unwrap();
        let storm_addrs = [proxy.addr(), addrs[1], addrs[2]];
        let mut client = ring_client(&storm_addrs, seed);
        for i in 0..8 {
            let which = i % cs.len();
            match client.render(&RenderRequest::new("c", cs[which])) {
                Ok((resp, _)) => {
                    // The one acceptable success: exact bytes.
                    assert_bits_equal(
                        &resp.data,
                        &refs[which].data,
                        &format!("seed {seed} req {i}"),
                    );
                    oks += 1;
                }
                // Any typed error is an honest outcome under chaos; what
                // is forbidden is corrupt bytes (caught above) or a hang
                // (caught by the socket timeouts).
                Err(_) => typed_errors += 1,
            }
        }
        proxy.stop();

        if seed == 33 && !killed {
            shards.kill(1).expect("shard thread panicked");
            killed = true;
        }
    }
    assert!(killed);
    assert!(
        oks >= 10,
        "storm starved the client: {oks} oks, {typed_errors} typed errors"
    );

    // Storm over, chaos proxy gone, shard 1 still dead: every tile —
    // including shard 1's former arcs — must now serve bit-identical from
    // the survivors, with plain bounded retries.
    let calm_addrs = [addrs[0], addrs[1], addrs[2]];
    let mut calm = ring_client(&calm_addrs, 99);
    for round in 0..2 {
        for (i, &c) in cs.iter().enumerate() {
            let (resp, shard) = calm.render(&RenderRequest::new("c", c)).unwrap();
            assert_bits_equal(
                &resp.data,
                &refs[i].data,
                &format!("post-storm round {round} centre {i}"),
            );
            assert_ne!(shard, 1, "dead shard served centre {i}");
        }
    }
}
