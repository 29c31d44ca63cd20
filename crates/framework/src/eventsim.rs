//! Discrete-event simulation of the work-sharing schedule at scale.
//!
//! The paper's Fig. 13 runs on 4,096–16,384 BG/Q ranks — far beyond what
//! thread-ranks can emulate on one machine. The *algorithmic* content of
//! that experiment is the scheduling behaviour: how well the a-priori
//! schedule balances heavy-tailed work when the model's predictions carry
//! error, and how a few "degenerate point configurations" (items whose true
//! cost vastly exceeds their prediction) stall the senders holding them and
//! delay the idle receivers waiting on their `RecvList` (the drop the paper
//! observes at 16k ranks).
//!
//! This module replays exactly that: the schedule comes from the real
//! [`create_schedule`] on *predicted* times; execution then charges the
//! *actual* item costs, with senders transferring items first-fit into the
//! scheduled amounts and receivers blocking until their sender's bundle has
//! been dispatched.

use crate::error::FrameworkError;
use crate::sharing::{create_schedule, pack_bins};

/// A synthetic rank workload: per-item predicted and actual costs.
#[derive(Clone, Debug, Default)]
pub struct RankWork {
    pub predicted: Vec<f64>,
    pub actual: Vec<f64>,
}

impl RankWork {
    pub fn total_predicted(&self) -> f64 {
        self.predicted.iter().sum()
    }

    pub fn total_actual(&self) -> f64 {
        self.actual.iter().sum()
    }
}

/// Result of one simulated run.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Per-rank finish times.
    pub finish: Vec<f64>,
    /// Wall clock = max finish.
    pub wall: f64,
    /// Total time ranks spent blocked waiting for work messages.
    pub total_wait: f64,
    /// Number of transfers in the schedule.
    pub transfers: usize,
}

/// Per-item communication cost charged to a transfer (send/packing
/// overhead per item, standing in for the bundle's serialization and
/// network time).
#[derive(Clone, Copy, Debug)]
pub struct SimParams {
    pub per_item_comm: f64,
    /// Fixed per-transfer latency.
    pub per_transfer_comm: f64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            per_item_comm: 1e-4,
            per_transfer_comm: 1e-3,
        }
    }
}

/// Simulate execution *without* work sharing: each rank runs its own items.
pub fn simulate_unbalanced(work: &[RankWork]) -> SimResult {
    let finish: Vec<f64> = work.iter().map(|w| w.total_actual()).collect();
    let wall = finish.iter().cloned().fold(0.0, f64::max);
    SimResult {
        finish,
        wall,
        total_wait: 0.0,
        transfers: 0,
    }
}

/// Simulate execution with the a-priori schedule (paper §IV-D/E).
///
/// Timeline model per rank:
/// * A **sender** interleaves its kept local items with the scheduled
///   sends, as the paper describes ("senders execute their local work items
///   and call `MPI_Send` after iterations determined by the optimization
///   algorithm"): bundle `i` of `k` is dispatched after a fraction
///   `(i+1)/(k+1)` of the kept items have *actually* executed. An item
///   whose real cost vastly exceeds its prediction therefore delays every
///   later send — exactly the Fig. 13 degradation mechanism.
/// * A **receiver** first runs its local items, then for each entry of its
///   `RecvList` waits (if needed) until the bundle has been dispatched,
///   then runs the received items.
///
/// A predicted cost that is NaN or infinite is a
/// [`FrameworkError::Schedule`], as it is on the real runner.
pub fn simulate_balanced(
    work: &[RankWork],
    params: &SimParams,
) -> Result<SimResult, FrameworkError> {
    let p = work.len();
    let predicted_totals: Vec<f64> = work.iter().map(|w| w.total_predicted()).collect();
    let schedule = create_schedule(&predicted_totals)?;

    struct Bundle {
        available_at: f64,
        actual_cost: f64,
    }
    let mut bundles: std::collections::HashMap<(usize, usize), Bundle> =
        std::collections::HashMap::new();
    // Per-rank time at which all local (kept) work and dispatching is done.
    let mut local_done: Vec<f64> = vec![0.0; p];

    for rank in 0..p {
        let sends = schedule.sends_of(rank);
        if sends.is_empty() {
            local_done[rank] = work[rank].total_actual();
            continue;
        }
        let bins: Vec<f64> = sends.iter().map(|t| t.amount).collect();
        let (assign, _left) = pack_bins(&work[rank].predicted, &bins)?;
        let mut moved = vec![false; work[rank].actual.len()];
        let mut bundle_costs = Vec::with_capacity(sends.len());
        for items in &assign {
            let mut cost = 0.0;
            for &i in items {
                moved[i] = true;
                cost += work[rank].actual[i];
            }
            bundle_costs.push((items.len(), cost));
        }
        // Kept items in original order, with prefix sums of actual cost.
        let kept: Vec<f64> = work[rank]
            .actual
            .iter()
            .enumerate()
            .filter(|(i, _)| !moved[*i])
            .map(|(_, &a)| a)
            .collect();
        let kept_total: f64 = kept.iter().sum();
        let k = sends.len();
        let mut t = 0.0;
        let mut consumed = 0usize;
        for (i, (send, &(n_items, cost))) in sends.iter().zip(&bundle_costs).enumerate() {
            // Execute kept items up to this send point.
            let upto = kept.len() * (i + 1) / (k + 1);
            while consumed < upto {
                t += kept[consumed];
                consumed += 1;
            }
            t += params.per_transfer_comm + params.per_item_comm * n_items as f64;
            bundles.insert(
                (send.from, send.to),
                Bundle {
                    available_at: t,
                    actual_cost: cost,
                },
            );
        }
        while consumed < kept.len() {
            t += kept[consumed];
            consumed += 1;
        }
        local_done[rank] = t;
        let _ = kept_total;
    }

    // Receivers: local work, then blocking receives in list order.
    let mut finish = vec![0.0; p];
    let mut total_wait = 0.0;
    for rank in 0..p {
        let mut t = local_done[rank];
        for recv in schedule.recvs_of(rank) {
            let b = &bundles[&(recv.from, recv.to)];
            if b.available_at > t {
                total_wait += b.available_at - t;
                t = b.available_at;
            }
            t += b.actual_cost;
        }
        finish[rank] = t;
    }
    let wall = finish.iter().cloned().fold(0.0, f64::max);
    Ok(SimResult {
        finish,
        wall,
        total_wait,
        transfers: schedule.transfers.len(),
    })
}

/// Generate a synthetic heavy-tailed workload for `nranks` ranks:
/// `items_per_rank` items whose actual costs follow a Pareto-like law, with
/// multiplicative log-normal-ish model error of relative scale
/// `model_error`, plus `n_degenerate` items (on distinct leading ranks)
/// whose actual cost is `degenerate_factor ×` their prediction — the
/// "degenerate point configurations" of Fig. 13.
pub fn synth_workload(
    nranks: usize,
    items_per_rank: usize,
    clustering: f64,
    model_error: f64,
    n_degenerate: usize,
    degenerate_factor: f64,
    seed: u64,
) -> Vec<RankWork> {
    let mut s = seed.max(1);
    let mut rnd = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut work: Vec<RankWork> = (0..nranks)
        .map(|_r| {
            // Rank-level clustering multiplier: a few ranks own the dense
            // regions. Pareto-tailed, capped so a single rank cannot hold
            // (essentially) all the work — matching the paper's setting
            // where items are numerous and individually small relative to
            // the mean load.
            let u = (1.0 - rnd()).max(1.0 / (4.0 * nranks as f64));
            let hot = u.powf(-clustering);
            let mut w = RankWork::default();
            for _ in 0..items_per_rank {
                let base = 1.0 + 9.0 * (1.0 - rnd()).powf(-0.5); // item tail
                let actual = base * hot;
                // Model error: symmetric multiplicative noise.
                let err = 1.0 + model_error * (rnd() - 0.5) * 2.0;
                w.actual.push(actual);
                w.predicted.push((actual * err).max(1e-9));
            }
            w
        })
        .collect();
    for w in work.iter_mut().take(n_degenerate.min(nranks)) {
        // Make one item on each leading rank wildly under-predicted
        // (prediction unchanged: that is the failure mode).
        if let Some(x) = w.actual.first_mut() {
            *x *= degenerate_factor;
        }
    }
    work
}

/// One global work item: predicted and actual cost.
pub type Item = (f64, f64);

/// Generate a *global* item population with spatial autocorrelation, so the
/// same population can be re-partitioned across different rank counts (the
/// Fig. 13 sweep keeps the 233,230 fields fixed while the decomposition
/// shrinks).
///
/// Item costs follow a log-AR(1) "hotness" walk (contiguous runs of
/// expensive items = dense sky regions) times a Pareto-ish per-item tail;
/// predictions carry symmetric multiplicative `model_error`;
/// `n_degenerate` items spread through the population have their *actual*
/// cost multiplied by `degenerate_factor` while the prediction stays —
/// the paper's "degenerate point configurations \[that\] make the model
/// predicted execution time inaccurate".
pub fn synth_global_workload(
    total_items: usize,
    clustering: f64,
    model_error: f64,
    n_degenerate: usize,
    degenerate_factor: f64,
    seed: u64,
) -> Vec<Item> {
    let mut s = seed.max(1);
    let mut rnd = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut items = Vec::with_capacity(total_items);
    let mut log_hot = 0.0f64;
    for _ in 0..total_items {
        // AR(1) in log space: persistent hot/cold stretches.
        log_hot = 0.97 * log_hot + clustering * (rnd() - 0.5);
        let hot = log_hot.exp();
        // Capped Pareto-ish per-item tail: ordinary items stay well below a
        // rank's mean load (the un-capped tail belongs to the *degenerate*
        // items, which are injected explicitly below).
        let base = 1.0 + 4.0 * (1.0 - rnd()).max(1e-3).powf(-0.4);
        let actual = base * hot;
        let err = 1.0 + model_error * (rnd() - 0.5) * 2.0;
        items.push(((actual * err).max(1e-9), actual));
    }
    // Degenerate actual cost = factor × the mean item cost, prediction
    // unchanged. Calibrated against the mean so the factor directly controls
    // at which rank count (mean rank load ≈ items/rank × mean item) the
    // degeneracy starts to dominate.
    if let Some(stride) = total_items.checked_div(n_degenerate) {
        let stride = stride.max(1);
        let mean_actual = items.iter().map(|&(_, a)| a).sum::<f64>() / total_items as f64;
        for idx in (0..n_degenerate).map(|d| (d * stride + stride / 2).min(total_items - 1)) {
            items[idx].1 = degenerate_factor * mean_actual;
        }
    }
    items
}

/// Partition a global item population into `nranks` contiguous blocks —
/// the spatial decomposition analog (autocorrelated costs ⇒ imbalanced
/// blocks at every rank count).
pub fn partition_items(items: &[Item], nranks: usize) -> Vec<RankWork> {
    assert!(nranks > 0);
    let chunk = items.len().div_ceil(nranks);
    let mut out: Vec<RankWork> = (0..nranks).map(|_| RankWork::default()).collect();
    for (i, &(p, a)) in items.iter().enumerate() {
        let r = (i / chunk.max(1)).min(nranks - 1);
        out[r].predicted.push(p);
        out[r].actual.push(a);
    }
    out
}

/// Normalized standard deviation of per-rank compute times — the paper's
/// Fig. 10 imbalance metric. Delegates to the shared
/// [`dtfe_telemetry::LoadSummary`] helper, the same computation the
/// work-sharing [`Schedule::report`](crate::sharing::Schedule::report)
/// uses, so the simulator and the schedule report cannot drift.
pub fn normalized_std(times: &[f64]) -> f64 {
    dtfe_telemetry::normalized_std(times)
}

impl SimResult {
    /// Load summary over per-rank finish times (Fig. 10's aggregation).
    pub fn load_summary(&self) -> dtfe_telemetry::LoadSummary {
        dtfe_telemetry::LoadSummary::from_times(&self.finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balancing_beats_unbalanced_on_skewed_load() {
        let work = synth_workload(64, 64, 0.5, 0.1, 0, 1.0, 42);
        let unbal = simulate_unbalanced(&work);
        let bal = simulate_balanced(&work, &SimParams::default()).unwrap();
        assert!(
            bal.wall < 0.6 * unbal.wall,
            "expected clear speedup: {} vs {}",
            bal.wall,
            unbal.wall
        );
        // Work is conserved (no items lost).
        let total: f64 = work.iter().map(|w| w.total_actual()).sum();
        let executed: f64 = bal.finish.iter().sum::<f64>() - bal.total_wait - 0.0; // finish includes waits; crude lower bound check below
        assert!(
            executed > 0.9 * total / 64.0,
            "sanity: {executed} vs {total}"
        );
    }

    #[test]
    fn perfect_model_balances_to_mean() {
        // No model error, no comm cost: wall ≈ mean.
        let work = synth_workload(32, 64, 0.5, 0.0, 0, 1.0, 7);
        let total: f64 = work.iter().map(|w| w.total_actual()).sum();
        let mean = total / 32.0;
        let bal = simulate_balanced(
            &work,
            &SimParams {
                per_item_comm: 0.0,
                per_transfer_comm: 0.0,
            },
        )
        .unwrap();
        // Packing granularity keeps this approximate: within 2× of the mean
        // and far below the unbalanced max.
        let unbal = simulate_unbalanced(&work).wall;
        assert!(bal.wall < unbal);
        assert!(
            bal.wall
                < 2.0 * mean
                    + work
                        .iter()
                        .flat_map(|w| &w.actual)
                        .cloned()
                        .fold(0.0, f64::max),
            "wall {} vs mean {mean}",
            bal.wall
        );
    }

    #[test]
    fn uniform_load_needs_no_transfers() {
        let work: Vec<RankWork> = (0..16)
            .map(|_| RankWork {
                predicted: vec![1.0; 4],
                actual: vec![1.0; 4],
            })
            .collect();
        let bal = simulate_balanced(&work, &SimParams::default()).unwrap();
        assert_eq!(bal.transfers, 0);
        assert!((bal.wall - 4.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_items_erode_speedup() {
        // The Fig. 13 effect: under-predicted items stall the schedule.
        let clean = synth_workload(256, 48, 0.5, 0.15, 0, 1.0, 11);
        let dirty = synth_workload(256, 48, 0.5, 0.15, 4, 400.0, 11);
        let params = SimParams::default();
        let speedup = |w: &[RankWork]| {
            simulate_unbalanced(w).wall / simulate_balanced(w, &params).unwrap().wall
        };
        let s_clean = speedup(&clean);
        let s_dirty = speedup(&dirty);
        assert!(s_clean > 1.5, "clean speedup {s_clean}");
        assert!(
            s_dirty < s_clean,
            "degeneracy should hurt: {s_dirty} vs {s_clean}"
        );
    }

    #[test]
    fn imbalance_metric_drops_after_balancing() {
        let work = synth_workload(128, 48, 0.5, 0.1, 0, 1.0, 3);
        let unbal = simulate_unbalanced(&work);
        let bal = simulate_balanced(&work, &SimParams::default()).unwrap();
        assert!(normalized_std(&bal.finish) < normalized_std(&unbal.finish));
    }

    #[test]
    fn scales_to_sixteen_k_ranks() {
        // The whole point of the event simulator: 16k ranks at a bounded
        // number of events. Every item runs once, locally or in one bundle,
        // and each transfer is one dispatch and one receive. Each greedy
        // transfer retires a sender or a receiver, so there are fewer
        // transfers than ranks and at most 9/8 events per item here.
        let (ranks, items) = (16_384, 16);
        let work = synth_workload(ranks, items, 0.5, 0.1, 8, 100.0, 99);
        let bal = simulate_balanced(&work, &SimParams::default()).unwrap();
        assert!(bal.transfers < ranks, "{} transfers", bal.transfers);
        let events = ranks * items + 2 * bal.transfers;
        assert!(events <= ranks * items * 9 / 8, "{events} events");
        assert!(bal.wall.is_finite() && bal.wall > 0.0);
        assert_eq!(bal.finish.len(), ranks);
    }

    #[test]
    fn normalized_std_basics() {
        assert_eq!(normalized_std(&[]), 0.0);
        assert_eq!(normalized_std(&[2.0, 2.0, 2.0]), 0.0);
        assert!(normalized_std(&[0.0, 4.0]) > 0.9);
    }

    #[test]
    fn imbalance_agrees_with_schedule_report() {
        // One load vector, two consumers: the simulator's metric and the
        // scheduler's report must be the same number (shared helper).
        let work = synth_workload(64, 32, 0.5, 0.1, 0, 1.0, 17);
        let unbal = simulate_unbalanced(&work);
        let totals: Vec<f64> = work.iter().map(|w| w.total_predicted()).collect();
        let schedule = create_schedule(&totals).unwrap();
        let rep = schedule.report(&totals);
        assert_eq!(rep.before.normalized_std, normalized_std(&totals));
        assert_eq!(
            unbal.load_summary().normalized_std,
            normalized_std(&unbal.finish)
        );
    }
}
