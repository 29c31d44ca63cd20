//! Concurrency properties of the tile cache: single-flight build dedup,
//! the byte-budget invariant under multithreaded churn, and the accounting
//! of entries that grow — estimator tables filled into a resident mesh.

use dtfe_framework::Decomposition;
use dtfe_geometry::{Aabb3, Vec2, Vec3};
use dtfe_service::{
    EstimatorKind, QuarantinePolicy, ServiceError, SnapshotData, TileCache, TileData, TileKey,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Ghost margin of the real tiles below.
const GHOST: f64 = 0.5;

/// A one-tile snapshot small enough to triangulate in a millisecond.
fn small_snapshot() -> SnapshotData {
    let mut s = 0x51CEu64;
    let mut r = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let particles: Vec<Vec3> = (0..300)
        .map(|_| Vec3::new(r() * 4.0, r() * 4.0, r() * 4.0))
        .collect();
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
    SnapshotData {
        id: "small".into(),
        bounds,
        tile_counts: vec![particles.len()],
        particles,
        decomp: Decomposition::new(bounds, 1),
    }
}

fn key(s: &str, t: usize) -> TileKey {
    TileKey::new(s, t)
}

/// 8 threads rush the same cold tile at once: exactly one build runs, all
/// threads get the same Arc, and everyone but the builder parks.
#[test]
fn cold_tile_is_built_exactly_once_under_contention() {
    const THREADS: usize = 8;
    let cache = Arc::new(TileCache::new(1 << 20));
    let builds = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = cache.clone();
            let builds = builds.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let (data, _hit) = cache
                    .get_or_build(&key("s", 0), || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Hold the build long enough that every other
                        // thread must hit the Building slot.
                        std::thread::sleep(Duration::from_millis(50));
                        Ok(TileData::synthetic(100, 1000))
                    })
                    .unwrap();
                Arc::as_ptr(&data) as usize
            })
        })
        .collect();
    let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(builds.load(Ordering::SeqCst), 1, "double build");
    assert!(
        ptrs.windows(2).all(|w| w[0] == w[1]),
        "threads saw different tile instances"
    );
    assert_eq!(
        cache.stats.singleflight_parks.load(Ordering::Relaxed),
        (THREADS - 1) as u64
    );
    // One miss for the builder; the 7 waiters also rode the build (they
    // are misses, not hits): every fetch is accounted.
    let hits = cache.stats.hits.load(Ordering::Relaxed);
    let misses = cache.stats.misses.load(Ordering::Relaxed);
    assert_eq!(hits + misses, THREADS as u64);
    assert_eq!(misses, THREADS as u64);
}

/// A failed build must unpark waiters and let one of them retry — no
/// poisoned slot, no thread stuck forever.
#[test]
fn failed_build_unparks_waiters_who_retry() {
    const THREADS: usize = 6;
    let cache = Arc::new(TileCache::new(1 << 20));
    let attempts = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = cache.clone();
            let attempts = attempts.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_build(&key("s", 0), || {
                    // First attempt fails after a delay (so others park);
                    // any retry succeeds.
                    if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        std::thread::sleep(Duration::from_millis(30));
                        Err(ServiceError::Internal("flaky".into()))
                    } else {
                        Ok(TileData::synthetic(1, 10))
                    }
                })
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let failures = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(failures, 1, "exactly the first builder fails");
    assert!(cache.is_resident(&key("s", 0)));
}

/// A build that *panics* (not just errors) must also unpark waiters:
/// without `catch_unwind` around the build closure, the Building slot is
/// abandoned and every parked thread hangs forever. Waiters must come
/// back with a typed error or a successful retry — never deadlock.
#[test]
fn panicking_build_unparks_waiters_instead_of_deadlocking() {
    const THREADS: usize = 6;
    let cache = Arc::new(TileCache::new(1 << 20));
    let attempts = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = cache.clone();
            let attempts = attempts.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_build(&key("s", 0), || {
                    // First attempt panics after a delay (so others park);
                    // any retry succeeds.
                    if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        std::thread::sleep(Duration::from_millis(30));
                        panic!("estimator exploded mid-build");
                    }
                    Ok(TileData::synthetic(1, 10))
                })
            })
        })
        .collect();
    // Join with a watchdog: the regression this guards against is a hang,
    // so a stuck thread must fail the test rather than wedge the harness.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let _ = tx.send(results);
    });
    let results = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("waiters deadlocked after a panicking build");
    let failures = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(failures, 1, "exactly the panicking builder fails");
    assert!(matches!(
        results.iter().find_map(|r| r.as_ref().err()),
        Some(ServiceError::Internal(msg)) if msg.contains("estimator exploded")
    ));
    assert!(cache.is_resident(&key("s", 0)));
    assert_eq!(cache.stats.build_panics.load(Ordering::Relaxed), 1);
}

/// 8 threads churn through a keyspace 4× the cache capacity, growing the
/// entries they fetch, while a watcher samples resident bytes: the budget
/// must hold at every sample, and at rest.
#[test]
fn byte_budget_never_exceeded_under_churn() {
    const THREADS: usize = 8;
    const BUDGET: usize = 10_000;
    const ENTRY: usize = 1_000; // 10 entries fit
    const GROW: usize = 700;
    const KEYS: usize = 40;
    const OPS: usize = 300;
    let cache = Arc::new(TileCache::new(BUDGET));
    let peak = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicUsize::new(0));

    let watcher = {
        let cache = cache.clone();
        let peak = peak.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            while done.load(Ordering::SeqCst) < THREADS {
                peak.fetch_max(cache.resident_bytes() as u64, Ordering::SeqCst);
                std::thread::yield_now();
            }
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = cache.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut s = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                for _ in 0..OPS {
                    s ^= s >> 12;
                    s ^= s << 25;
                    s ^= s >> 27;
                    let k = (s.wrapping_mul(0x2545F4914F6CDD1D) % KEYS as u64) as usize;
                    // Entry sizes vary (some oversized — never retained).
                    let bytes = if k == 0 { BUDGET + 1 } else { ENTRY };
                    let (data, _) = cache
                        .get_or_build(&key("churn", k), || Ok(TileData::synthetic(k, bytes)))
                        .unwrap();
                    assert_eq!(data.n_particles, k, "wrong entry under churn");
                    // Every fourth fetch fills a table into what it got:
                    // the entry grows while resident, evicted or already
                    // dropped, and in the end outgrows the budget alone.
                    if s & 3 == 0 {
                        let filled = cache.fill(&key("churn", k), &data, || {
                            data.grow_synthetic(GROW);
                            true
                        });
                        assert_eq!(filled, Ok(true));
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    for h in workers {
        h.join().unwrap();
    }
    watcher.join().unwrap();

    let observed_peak = peak.load(Ordering::SeqCst) as usize;
    assert!(
        observed_peak <= BUDGET,
        "resident bytes peaked at {observed_peak} > budget {BUDGET}"
    );
    assert!(cache.resident_bytes() <= BUDGET);
    // At rest every fill has been charged: what the cache holds is what
    // its entries weigh now, to the byte.
    let weighed: usize = (0..KEYS)
        .filter_map(|k| cache.peek(&key("churn", k)))
        .map(|data| data.bytes())
        .sum();
    assert_eq!(cache.resident_bytes(), weighed, "charged bytes drifted");
    // The keyspace (40 × 1000 B) is 4× the budget, so churn must have
    // evicted; and oversized key 0 must never be resident.
    assert!(cache.stats.evictions.load(Ordering::Relaxed) > 0);
    assert!(!cache.is_resident(&key("churn", 0)));
    assert!(cache.stats.uncacheable.load(Ordering::Relaxed) > 0);
    // Accounting: every one of the 8×300 fetches is a hit or a miss.
    let hits = cache.stats.hits.load(Ordering::Relaxed);
    let misses = cache.stats.misses.load(Ordering::Relaxed);
    assert_eq!(hits + misses, (THREADS * OPS) as u64);
}

/// Two threads ask one cold tile for different estimators at once: one
/// triangulation, one fill per table, one shared entry charged for both.
#[test]
fn two_estimators_on_a_cold_tile_build_one_mesh_and_one_table_each() {
    let snap = Arc::new(small_snapshot());
    let cache = Arc::new(TileCache::new(64 << 20));
    let mesh_builds = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(2));
    let kinds = [EstimatorKind::Dtfe, EstimatorKind::PsDtfe];
    let handles: Vec<_> = kinds
        .into_iter()
        .map(|kind| {
            let (snap, cache) = (snap.clone(), cache.clone());
            let (mesh_builds, barrier) = (mesh_builds.clone(), barrier.clone());
            std::thread::spawn(move || {
                let key = key("small", 0);
                barrier.wait();
                let (data, _) = cache
                    .get_or_build(&key, || {
                        mesh_builds.fetch_add(1, Ordering::SeqCst);
                        // Long enough that the other thread parks on it.
                        std::thread::sleep(Duration::from_millis(30));
                        Ok(TileData::build(&snap, 0, GHOST))
                    })
                    .unwrap();
                // Each asks for its own table and, after the other is done
                // with it, for the other's too.
                let mut built = 0;
                for kind in [kind, kinds[(kind == kinds[0]) as usize]] {
                    barrier.wait();
                    if !data.has_table(kind) {
                        let fill = || data.fill_table(&snap, kind, GHOST);
                        built += cache.fill(&key, &data, fill).unwrap() as usize;
                    }
                }
                (Arc::as_ptr(&data) as usize, built)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(mesh_builds.load(Ordering::SeqCst), 1, "double mesh build");
    assert_eq!(results[0].0, results[1].0, "one shared entry");
    assert_eq!(results[0].1 + results[1].1, 2, "one fill per table");
    let data = cache.peek(&key("small", 0)).expect("resident");
    assert!(kinds.iter().all(|&k| data.has_table(k)));
    assert_eq!(cache.resident_bytes(), data.bytes(), "both tables charged");
}

/// The same race on one table: both threads find it missing, one fills it.
#[test]
fn concurrent_fills_of_one_table_run_once() {
    let snap = Arc::new(small_snapshot());
    let cache = Arc::new(TileCache::new(64 << 20));
    let key = key("small", 0);
    let (data, _) = cache
        .get_or_build(&key, || Ok(TileData::build(&snap, 0, GHOST)))
        .unwrap();
    let kind = EstimatorKind::Stochastic { realizations: 2 };
    let barrier = Barrier::new(2);
    let built: usize = std::thread::scope(|scope| {
        let fills: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    assert!(!data.has_table(kind));
                    barrier.wait();
                    let fill = || data.fill_table(&snap, kind, GHOST);
                    cache.fill(&key, &data, fill).unwrap() as usize
                })
            })
            .collect();
        fills.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(built, 1, "the loser waited for the winner's table");
    assert!(data.has_table(kind));
    assert_eq!(cache.resident_bytes(), data.bytes());
}

/// An entry whose tables alone outgrow the budget leaves the cache as
/// uncacheable — and still answers the request that grew it.
#[test]
fn entry_that_outgrows_the_budget_is_dropped_but_answers() {
    let snap = small_snapshot();
    let mesh_and_dtfe = {
        let tile = TileData::build(&snap, 0, GHOST);
        tile.fill_table(&snap, EstimatorKind::Dtfe, GHOST);
        tile.bytes()
    };
    let cache = TileCache::new(mesh_and_dtfe + 1);
    let key = key("small", 0);
    let (data, _) = cache
        .get_or_build(&key, || Ok(TileData::build(&snap, 0, GHOST)))
        .unwrap();
    let fill = |kind| cache.fill(&key, &data, || data.fill_table(&snap, kind, GHOST));
    assert_eq!(fill(EstimatorKind::Dtfe), Ok(true));
    assert_eq!(cache.resident_bytes(), mesh_and_dtfe, "fits, to the byte");
    assert_eq!(fill(EstimatorKind::PsDtfe), Ok(true));
    assert!(!cache.is_resident(&key));
    assert_eq!(cache.resident_bytes(), 0);
    assert_eq!(cache.stats.uncacheable.load(Ordering::Relaxed), 1);
    assert_eq!(cache.stats.evictions.load(Ordering::Relaxed), 0);
    // The requester's Arc renders what it asked for.
    let grid = dtfe_core::GridSpec2::square(Vec2::new(2.0, 2.0), 2.0, 8);
    let opts = dtfe_core::MarchOptions::new()
        .parallel(false)
        .estimator(EstimatorKind::PsDtfe);
    assert!(
        data.render(&grid, &opts)
            .expect("table filled")
            .total_mass()
            > 0.0
    );
    // And the next request starts over from a mesh that fits.
    let (_, hit) = cache
        .get_or_build(&key, || Ok(TileData::build(&snap, 0, GHOST)))
        .unwrap();
    assert!(!hit);
    assert!(cache.is_resident(&key));
}

/// Eviction, stale retention and supersession subtract what an entry was
/// *charged*, not what it weighs when it leaves: an entry that grew since
/// its last charge (a fill in flight) must not drift the totals.
#[test]
fn eviction_and_stale_retention_subtract_the_charged_bytes() {
    let cache = TileCache::with_policy(300, 250, QuarantinePolicy::default());
    let entry = |bytes| move || Ok(TileData::synthetic(0, bytes));
    let (a, _) = cache.get_or_build(&key("s", 0), entry(100)).unwrap();
    let grow = |by| {
        let fill = || {
            a.grow_synthetic(by);
            true
        };
        cache.fill(&key("s", 0), &a, fill)
    };
    // Charged growth: 100 → 150.
    assert_eq!(grow(50), Ok(true));
    assert_eq!(cache.resident_bytes(), 150);
    // Uncharged growth, as between a fill's allocation and its charge.
    a.grow_synthetic(40);
    assert_eq!((a.bytes(), cache.resident_bytes()), (190, 150));
    cache.get_or_build(&key("s", 1), entry(100)).unwrap();
    assert_eq!(cache.resident_bytes(), 250);
    // Inserting 2 evicts 0, the LRU entry: 150 leave, not 190.
    cache.get_or_build(&key("s", 2), entry(100)).unwrap();
    assert!(!cache.is_resident(&key("s", 0)));
    assert_eq!((cache.resident_bytes(), cache.stale_entries()), (200, 1));
    // The late charge finds the entry in the stale set and weighs it there
    // (190 of 250); the resident total does not move.
    assert_eq!(grow(0), Ok(true));
    assert_eq!((cache.resident_bytes(), cache.stale_entries()), (200, 1));
    // Inserting 3 evicts 1. Beside 150 its 100 B would fit the stale set;
    // beside 190 they do not, and the older copy goes.
    cache.get_or_build(&key("s", 3), entry(120)).unwrap();
    assert!(!cache.is_resident(&key("s", 1)));
    assert_eq!((cache.resident_bytes(), cache.stale_entries()), (220, 1));
    assert!(cache.get_stale(&key("s", 0)).is_none());
    assert!(cache.get_stale(&key("s", 1)).is_some());
    // A rebuild supersedes the stale copy; every total stays exact.
    cache.get_or_build(&key("s", 1), entry(100)).unwrap();
    assert!(cache.get_stale(&key("s", 1)).is_none(), "superseded");
    assert!(cache.get_stale(&key("s", 2)).is_some(), "evicted for it");
    assert_eq!((cache.resident_bytes(), cache.stale_entries()), (220, 1));
}

/// A table fill that panics is a typed `Internal`, counted and booked on
/// the tile's failure ledger; the mesh stays resident and serves on.
#[test]
fn panicking_table_fill_is_typed_and_leaves_the_mesh_resident() {
    let policy = QuarantinePolicy {
        after: 2,
        base: Duration::from_secs(5),
        max: Duration::from_secs(5),
    };
    let cache = TileCache::with_policy(1 << 20, 0, policy);
    let key = key("s", 0);
    let (data, _) = cache
        .get_or_build(&key, || Ok(TileData::synthetic(7, 100)))
        .unwrap();
    let explode = || -> bool { panic!("psdtfe table exploded") };
    match cache.fill(&key, &data, explode) {
        Err(ServiceError::Internal(msg)) => assert!(msg.contains("psdtfe table exploded")),
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(cache.stats.build_panics.load(Ordering::Relaxed), 1);
    assert_eq!(cache.stats.build_failures.load(Ordering::Relaxed), 1);
    assert!(cache.is_resident(&key));
    assert_eq!(cache.resident_bytes(), 100, "a failed fill charges nothing");
    // The mesh still answers requests that need no fill.
    let (again, hit) = cache
        .get_or_build(&key, || -> Result<TileData, ServiceError> {
            panic!("resident: no rebuild")
        })
        .unwrap();
    assert!(hit && Arc::ptr_eq(&again, &data));
    // A second failure trips the quarantine: further fills are refused
    // without running, hits are still served.
    assert!(cache.fill(&key, &data, explode).is_err());
    assert_eq!(cache.quarantined_entries(), 1);
    let ran = AtomicUsize::new(0);
    let refused = cache.fill(&key, &data, || {
        ran.fetch_add(1, Ordering::SeqCst);
        true
    });
    assert!(matches!(refused, Err(ServiceError::Quarantined { .. })));
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    assert!(
        cache
            .get_or_build(&key, || Ok(TileData::synthetic(7, 100)))
            .unwrap()
            .1
    );
}
