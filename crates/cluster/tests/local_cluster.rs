//! `LocalCluster` is the one shard bring-up: its kill/wait handles behave
//! as the daemons and drivers rely on, a shard validates a request before
//! it routes it, and a restarted shard comes back in its peers' view.

use dtfe_cluster::{ClusterConfig, ClusterNode, LocalCluster, ShardSpec};
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::snapshot::write_snapshot;
use dtfe_service::{
    Client, EstimatorKind, RenderRequest, Request, Response, Service, ServiceConfig, ServiceError,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dtfe_local_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn boot(dir: &Path, n: usize, cluster: ClusterConfig, telemetry: bool) -> LocalCluster {
    let specs = (0..n)
        .map(|i| {
            let mut service = ServiceConfig::new(4.0, 16);
            service.tiles = 4;
            // One process-global recorder, as in the daemons: shard 0's.
            service.telemetry = telemetry && i == 0;
            ShardSpec {
                service,
                cluster: ClusterConfig {
                    shard: i as u32,
                    ..cluster.clone()
                },
                bind: ([127, 0, 0, 1], 0).into(),
            }
        })
        .collect();
    LocalCluster::boot(dir, specs, None).unwrap()
}

#[test]
fn kill_refuses_connects_and_wait_returns_after_wire_shutdown() {
    let dir = tmpdir("killwait");
    let mut cluster = boot(&dir, 3, ClusterConfig::default(), false);
    let addrs = cluster.addrs().to_vec();

    cluster.kill(1).unwrap();
    assert!(
        Client::connect(addrs[1]).is_err(),
        "a killed shard's listener must be gone"
    );
    cluster.kill(1).unwrap(); // idempotent

    for &i in &[0, 2] {
        Client::connect(addrs[i]).unwrap().shutdown().unwrap();
    }
    // `wait` on its own thread with a deadline: a serve or gossip loop
    // that never ends is a test failure, not a hung suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(cluster.wait().is_ok());
    });
    let joined = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("wait() did not return after every survivor acked Shutdown");
    assert!(joined, "a shard thread panicked");
    for addr in addrs {
        assert!(Client::connect(addr).is_err(), "{addr} still listening");
    }
}

/// A membership list without the shard's own index is a boot error, not
/// a panic.
#[test]
fn a_membership_without_the_shards_own_index_is_a_boot_error() {
    let dir = tmpdir("badindex");
    let spec = ShardSpec {
        service: ServiceConfig::new(4.0, 16),
        cluster: ClusterConfig {
            shard: 3,
            ..ClusterConfig::default()
        },
        bind: ([127, 0, 0, 1], 0).into(),
    };
    let peers = vec![([127, 0, 0, 1], 1).into()];
    match LocalCluster::boot(&dir, vec![spec], Some(peers)) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        Ok(_) => panic!("booted shard 3 of a one-shard membership"),
    }
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

/// A shard forwards a valid request for a tile it does not own, serves a
/// forwarded one itself, and answers an over-cap request `InvalidRequest`
/// on the spot: it is invalid on every shard, so it is not forwarded.
#[test]
fn over_cap_request_to_a_non_owner_is_invalid_not_forwarded() {
    let dir = tmpdir("overcap");
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("c.snap"), &[cloud(1500, side, 45)], bounds).unwrap();
    let cluster = boot(&dir, 2, ClusterConfig::default(), true);
    let proxied = || {
        let doc = cluster.node(0).service().stats_document();
        let metrics = doc.metrics.expect("shard 0 owns the recorder");
        metrics
            .counters
            .get("cluster.proxied")
            .copied()
            .unwrap_or(0)
    };
    let mut to_shard0 = Client::connect(cluster.addrs()[0]).unwrap();
    let mut ask = |req: RenderRequest| match to_shard0.call(&Request::Render(req)).unwrap() {
        Response::Field(resp) => Ok(resp),
        Response::Error(e) => Err(e),
        other => panic!("unexpected response {other:?}"),
    };

    // Positive control: a valid request for a tile shard 1 owns is
    // forwarded, and the counter sees it.
    let (center, field) = [2.0, 6.0]
        .iter()
        .flat_map(|&x| [2.0, 6.0].map(|y| Vec3::new(x, y, 4.0)))
        .find_map(|c| {
            let before = proxied();
            let field = ask(RenderRequest::new("c", c)).unwrap();
            (proxied() > before).then_some((c, field))
        })
        .expect("shard 1 owns none of the four tiles");
    assert_eq!(proxied(), 1);

    // The same request marked as a peer's forward is served by shard 0
    // itself: the same bits, and no second hop.
    let valid = RenderRequest::new("c", center);
    let here = ask(valid.clone().forwarded(true)).unwrap();
    assert_eq!(
        here.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        field.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "a forwarded request rendered different bits"
    );
    assert_eq!(proxied(), 1, "a forwarded request was forwarded again");

    let over_cap = [
        RenderRequest {
            resolution: ServiceConfig::MAX_RESOLUTION as u32 + 1,
            ..valid.clone()
        },
        RenderRequest {
            samples: ServiceConfig::MAX_SAMPLES as u32 + 1,
            ..valid.clone()
        },
        valid.estimator(EstimatorKind::Stochastic {
            realizations: ServiceConfig::MAX_REALIZATIONS + 1,
        }),
    ];
    for req in over_cap {
        let what = format!("{req:?}");
        match ask(req) {
            Err(ServiceError::InvalidRequest(_)) => {}
            other => panic!("{what}: expected InvalidRequest, got {other:?}"),
        }
    }
    assert_eq!(proxied(), 1, "an invalid request was forwarded");
}

/// A restarted shard counts its heartbeat sequence from zero again. Its
/// peers must take it back on its first heartbeat, not ignore it until the
/// new sequence passes the old one.
#[test]
fn a_restarted_shard_rejoins_on_its_first_heartbeat() {
    let dir = tmpdir("restart");
    let service = Arc::new(Service::start(&dir, ServiceConfig::new(4.0, 16)).unwrap());
    let node = |shard: u32| {
        let cfg = ClusterConfig {
            shard,
            heartbeat_timeout: Duration::from_millis(20),
            ..ClusterConfig::default()
        };
        let node = ClusterNode::new(service.clone(), cfg);
        let addrs = vec![([127, 0, 0, 1], 1).into(), ([127, 0, 0, 1], 2).into()];
        node.configure_peers(addrs).unwrap();
        node
    };
    let a = node(0);

    let before_restart = node(1);
    for _ in 0..5 {
        a.absorb(&before_restart.heartbeat());
    }
    assert_eq!(a.epoch(), 0, "a live peer's heartbeats change nothing");

    std::thread::sleep(Duration::from_millis(40));
    a.sweep_liveness();
    assert_eq!(a.epoch(), 1, "the silent peer is swept dead");

    let restarted = node(1);
    let first = restarted.heartbeat();
    assert_eq!(first.seq, 1, "a fresh node counts from the start");
    a.absorb(&first);
    assert_eq!(
        a.epoch(),
        2,
        "the restarted peer's first heartbeat revives it"
    );
}
