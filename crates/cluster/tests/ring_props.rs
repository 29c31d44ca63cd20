//! Ring-math property tests: the three guarantees routing correctness
//! rests on.
//!
//! 1. **Join/leave stability**: growing the cluster from N to N+1 shards
//!    moves roughly K/(N+1) of the keys, and every moved key moves *to*
//!    the joining shard — never between survivors. (Multi-probe lookup
//!    preserves plain consistent hashing's movement bound: new points only
//!    shrink probe distances, so a winner can change only to a new point.)
//! 2. **Cross-process determinism**: ring placement is a pure function of
//!    `(nshards, vnodes)` and the key string — pinned against golden
//!    values, so no `RandomState`/pointer-identity sneaks in.
//! 3. **Uniformity**: at 128 vnodes, every shard's share of a large
//!    deterministic key population is within 10% of the mean for all
//!    cluster sizes 2..=8.

use dtfe_cluster::{key_of, HashRing};
use dtfe_service::TileKey;
use proptest::prelude::*;

/// A deterministic population of tile-key ring positions shaped like real
/// traffic: a few snapshots, tens of tiles.
fn key_population(n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let key = TileKey::new(format!("snap{}", i % 5), i % 64);
            // Decorrelate beyond the 5×64 distinct tile keys: fold the
            // index in so each i is a distinct ring position, the way
            // distinct snapshots would hash.
            key_of(&key) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
        .collect()
}

#[test]
fn placement_is_deterministic_across_processes() {
    // Golden values: computed once, must never drift — a drift means two
    // builds of the cluster would route the same key differently. (The key
    // hash was re-pinned once, when the canonical form went from
    // "demo/3/dtfe" to "demo/3": ring ownership does not depend on the
    // estimator.)
    let key = TileKey::new("demo", 3);
    assert_eq!(key.to_string(), "demo/3");
    assert_eq!(key_of(&key), 0x2ef3_df7a_a815_72c4, "key hash drifted");
    let ring = HashRing::new(3, 128);
    let live = [true; 3];
    let owners: Vec<usize> = (0..16u64)
        .map(|k| {
            ring.primary(k.wrapping_mul(0x0123_4567_89ab_cdef), &live)
                .unwrap()
        })
        .collect();
    assert_eq!(
        owners,
        vec![0, 2, 2, 0, 2, 0, 1, 0, 1, 2, 1, 2, 1, 1, 2, 2],
        "ring placement drifted"
    );
}

#[test]
fn same_inputs_build_identical_rings() {
    let a = HashRing::new(5, 128);
    let b = HashRing::new(5, 128);
    let live = [true; 5];
    for k in key_population(2000) {
        assert_eq!(a.primary(k, &live), b.primary(k, &live));
        assert_eq!(a.replicas(k, 3, &live), b.replicas(k, 3, &live));
    }
}

#[test]
fn uniform_within_ten_percent_at_128_vnodes() {
    let keys = key_population(65_536);
    for n in 2..=8usize {
        let ring = HashRing::new(n, 128);
        let live = vec![true; n];
        let mut counts = vec![0u64; n];
        for &k in &keys {
            counts[ring.primary(k, &live).unwrap()] += 1;
        }
        let mean = keys.len() as f64 / n as f64;
        for (shard, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - mean).abs() / mean;
            assert!(
                dev <= 0.10,
                "shard {shard}/{n} holds {c} keys, {:.1}% off the mean {mean:.0}",
                dev * 100.0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adding shard N to an N-shard ring moves ~K/(N+1) keys, all of them
    /// to the new shard.
    #[test]
    fn join_moves_about_one_over_n(n in 2usize..8, seed in 0u64..1_000_000) {
        let before = HashRing::new(n, 128);
        let after = HashRing::new(n + 1, 128);
        let live_b = vec![true; n];
        let live_a = vec![true; n + 1];
        let keys: Vec<u64> = (0..4096u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed)
            .collect();
        let mut moved = 0usize;
        for &k in &keys {
            let ob = before.primary(k, &live_b).unwrap();
            let oa = after.primary(k, &live_a).unwrap();
            if ob != oa {
                moved += 1;
                prop_assert_eq!(
                    oa, n,
                    "a moved key must land on the joining shard, not shuffle between survivors"
                );
            }
        }
        let expected = keys.len() as f64 / (n + 1) as f64;
        let frac = moved as f64;
        // Loose statistical envelope: between a third and double the
        // consistent-hashing expectation K/(N+1).
        prop_assert!(
            frac > expected / 3.0 && frac < expected * 2.0,
            "{moved} of {} keys moved joining shard {n} (expected ≈ {expected:.0})",
            keys.len()
        );
    }

    /// Marking a shard dead reassigns exactly its keys; every other key
    /// keeps its owner (leave = the mirror of join).
    #[test]
    fn leave_moves_only_the_dead_shards_keys(n in 3usize..8, dead in 0usize..8, seed in 0u64..1_000_000) {
        let dead = dead % n;
        let ring = HashRing::new(n, 128);
        let all = vec![true; n];
        let mut live = all.clone();
        live[dead] = false;
        for i in 0..2048u64 {
            let k = i.wrapping_mul(0x0123_4567_89ab_cdef) ^ seed;
            let before = ring.primary(k, &all).unwrap();
            let after = ring.primary(k, &live).unwrap();
            if before == dead {
                prop_assert_ne!(after, dead, "dead shard still owns a key");
            } else {
                prop_assert_eq!(after, before, "a survivor's key moved on an unrelated death");
            }
        }
    }

    /// Replica sets under any live mask are distinct, live, and no larger
    /// than the live population.
    #[test]
    fn replicas_are_live_and_distinct(
        n in 2usize..8,
        r in 1usize..4,
        mask in 0u8..255,
        seed in 0u64..1_000_000,
    ) {
        let ring = HashRing::new(n, 128);
        let live: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let nlive = live.iter().filter(|&&l| l).count();
        for i in 0..256u64 {
            let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            let reps = ring.replicas(k, r, &live);
            prop_assert_eq!(reps.len(), r.min(nlive));
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), reps.len(), "duplicate replica");
            for &s in &reps {
                prop_assert!(live[s], "dead shard {} in replica set", s);
            }
        }
    }
}
