//! Property-based tests of the scheduling machinery and decomposition.

use dtfe_framework::decomp::{factor3, Decomposition};
use dtfe_framework::eventsim::{
    partition_items, simulate_balanced, simulate_unbalanced, SimParams,
};
use dtfe_framework::model::{InterpModel, TimingSample};
use dtfe_framework::{create_schedule, pack_bins};
use dtfe_geometry::{Aabb3, Vec3};
use proptest::prelude::*;

proptest! {
    #[test]
    fn schedule_conserves_work_and_caps_at_mean(
        times in prop::collection::vec(0.0f64..100.0, 2..64)
    ) {
        let s = create_schedule(&times).unwrap();
        let after = s.balanced_times(&times);
        let total: f64 = times.iter().sum();
        let mean = total / times.len() as f64;
        prop_assert!((after.iter().sum::<f64>() - total).abs() < 1e-6 * total.max(1.0));
        for (r, &t) in after.iter().enumerate() {
            prop_assert!(t <= mean + 1e-6 * mean.max(1.0), "rank {} at {} > mean {}", r, t, mean);
            prop_assert!(t >= -1e-9, "negative time on rank {}", r);
        }
        // Transfers always flow from above-mean to below-mean ranks.
        for tr in &s.transfers {
            prop_assert!(times[tr.from] > mean - 1e-9);
            prop_assert!(times[tr.to] < mean + 1e-9);
            prop_assert!(tr.amount > 0.0);
        }
    }

    #[test]
    fn schedule_no_rank_both_sends_and_receives(
        times in prop::collection::vec(0.0f64..50.0, 2..40)
    ) {
        let s = create_schedule(&times).unwrap();
        for r in 0..times.len() {
            prop_assert!(
                s.sends_of(r).is_empty() || s.recvs_of(r).is_empty(),
                "rank {} both sends and receives",
                r
            );
        }
    }

    #[test]
    fn pack_bins_respects_capacities(
        items in prop::collection::vec(0.1f64..20.0, 0..40),
        bins in prop::collection::vec(1.0f64..30.0, 0..10),
    ) {
        let (assign, left) = pack_bins(&items, &bins).unwrap();
        prop_assert_eq!(assign.len(), bins.len());
        // Every item exactly once.
        let mut seen = vec![false; items.len()];
        for bin in &assign {
            for &i in bin {
                prop_assert!(!seen[i], "item {} assigned twice", i);
                seen[i] = true;
            }
        }
        for &i in &left {
            prop_assert!(!seen[i], "leftover {} also assigned", i);
            seen[i] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "item lost");
        // Capacity.
        for (b, bin) in assign.iter().enumerate() {
            let sum: f64 = bin.iter().map(|&i| items[i]).sum();
            prop_assert!(sum <= bins[b] * (1.0 + 1e-6) + 1e-6, "bin {} over: {} > {}", b, sum, bins[b]);
        }
    }

    #[test]
    fn non_finite_inputs_always_rejected(
        times in prop::collection::vec(0.0f64..100.0, 2..32),
        idx in 0usize..32,
        bad_i in 0usize..3,
    ) {
        prop_assume!(idx < times.len());
        let mut poisoned = times.clone();
        poisoned[idx] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad_i];
        prop_assert!(create_schedule(&poisoned).is_err());
        prop_assert!(pack_bins(&poisoned, &times).is_err());
        prop_assert!(pack_bins(&times, &poisoned).is_err());
    }

    #[test]
    fn factor3_products(n in 1usize..512) {
        let f = factor3(n);
        prop_assert_eq!(f.iter().product::<usize>(), n);
        prop_assert!(f[0] >= f[1] && f[1] >= f[2]);
    }

    #[test]
    fn decomposition_owns_every_point(
        n in 1usize..64,
        pts in prop::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            1..50,
        ),
    ) {
        let d = Decomposition::new(Aabb3::new(Vec3::ZERO, Vec3::splat(10.0)), n);
        for p in pts {
            let r = d.rank_of(p);
            prop_assert!(r < d.num_ranks());
            prop_assert!(d.rank_box(r).contains_closed(p));
            // The owner is always among the ghost destinations.
            prop_assert!(d.ranks_within(p, 0.5).any(|q| q == r));
        }
    }

    #[test]
    fn eventsim_balancing_with_perfect_model_never_hurts(
        seed in 1u64..1000,
        nranks in 2usize..64,
    ) {
        // With exact predictions (no model error, no degenerate items) the
        // schedule can only help, up to communication cost. (With prediction
        // error balancing CAN hurt — that is the paper's Fig. 13 mechanism —
        // so that case carries no such invariant.)
        let items = dtfe_framework::eventsim::synth_global_workload(256, 0.5, 0.0, 0, 1.0, seed);
        let work = partition_items(&items, nranks);
        let total_items: usize = work.iter().map(|w| w.actual.len()).sum();
        prop_assert_eq!(total_items, 256);
        let bal = simulate_balanced(&work, &SimParams::default()).unwrap();
        let unbal = simulate_unbalanced(&work);
        prop_assert!(bal.wall.is_finite() && bal.wall > 0.0);
        // Receivers can idle on a sender's *interleaved* dispatch points (the
        // "delays in communication" the paper's bin-packing order minimizes),
        // so the sound bound is the unbalanced wall plus one mean rank load
        // plus communication.
        let total: f64 = work.iter().map(|w| w.total_actual()).sum();
        let mean = total / nranks as f64;
        let comm_slack = 1.0 + 0.01 * 256.0;
        prop_assert!(
            bal.wall <= unbal.wall + mean + comm_slack,
            "balancing made it worse: {} vs {} (mean {})",
            bal.wall,
            unbal.wall,
            mean
        );
    }

    /// Whatever two positive samples it is given — a particle apart or
    /// decades apart, timed 1e-7 s to 1 s — the render-cost fit predicts a
    /// finite, non-negative time for every `n ≥ 0`.
    #[test]
    fn interp_fit_of_any_two_samples_predicts_finite_times(
        ln_n in 0.0f64..16.0,
        log_gap in -12.0f64..2.0,
        ln_t in (-16.0f64..0.0, -16.0f64..0.0),
    ) {
        let n0 = ln_n.exp();
        let n1 = n0 + n0 * 10f64.powf(log_gap);
        let samples = [(n0, ln_t.0.exp()), (n1, ln_t.1.exp())]
            .map(|(n, t)| TimingSample { n, t_tri: t, t_interp: t });
        let m = InterpModel::fit(&samples);
        for n in [0.0, 1.0, n0, n1, 1e3, 1e6, 1e12, f64::MAX] {
            let t = m.predict(n);
            prop_assert!(t.is_finite() && t >= 0.0, "predict({}) = {} from {:?}: {:?}", n, t, samples, m);
        }
    }
}
