//! Work-sharing schedule (paper §IV-D, Fig. 5) and work-item bin packing.
//!
//! After the modeling phase every rank knows every rank's total predicted
//! time, so each can independently compute the same deterministic schedule:
//! overloaded ranks (above the mean) send work to underloaded ones (below
//! the mean), greedily pairing the most-loaded sender with the
//! largest-capacity receiver. The schedule leaves every sender at exactly
//! the mean and no receiver above it.

use dtfe_telemetry::LoadSummary;

/// Why the scheduler rejected its input. Predicted times come from a
/// fitted model, so a NaN/∞ anywhere upstream used to surface here as a
/// comparator panic inside a sort; now it is a value the runner can turn
/// into a coordinated, typed abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// `times[rank]` passed to [`create_schedule`] was NaN or infinite.
    NonFiniteTime { rank: usize },
    /// `items[index]` passed to [`pack_bins`] was NaN or infinite.
    NonFiniteItem { index: usize },
    /// `bins[index]` passed to [`pack_bins`] was NaN or infinite.
    NonFiniteBin { index: usize },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NonFiniteTime { rank } => {
                write!(f, "non-finite predicted time for rank {rank}")
            }
            ScheduleError::NonFiniteItem { index } => {
                write!(f, "non-finite cost for work item {index}")
            }
            ScheduleError::NonFiniteBin { index } => {
                write!(f, "non-finite capacity for bin {index}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

fn all_finite(xs: &[f64], err: impl Fn(usize) -> ScheduleError) -> Result<(), ScheduleError> {
    match xs.iter().position(|x| !x.is_finite()) {
        Some(i) => Err(err(i)),
        None => Ok(()),
    }
}

/// One scheduled work transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transfer {
    pub from: usize,
    pub to: usize,
    /// Predicted work time to move.
    pub amount: f64,
}

/// The full (global, deterministic) work-sharing schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    pub transfers: Vec<Transfer>,
    /// Mean predicted time — the post-balance target.
    pub mean: f64,
}

impl Schedule {
    /// Transfers out of `rank`, in schedule order (its `SendList`).
    pub fn sends_of(&self, rank: usize) -> Vec<Transfer> {
        self.transfers
            .iter()
            .copied()
            .filter(|t| t.from == rank)
            .collect()
    }

    /// Source ranks `rank` will receive from, in schedule order (its
    /// `RecvList`).
    pub fn recvs_of(&self, rank: usize) -> Vec<Transfer> {
        self.transfers
            .iter()
            .copied()
            .filter(|t| t.to == rank)
            .collect()
    }

    /// Per-rank predicted times after applying the schedule.
    pub fn balanced_times(&self, times: &[f64]) -> Vec<f64> {
        let mut t = times.to_vec();
        for tr in &self.transfers {
            t[tr.from] -= tr.amount;
            t[tr.to] += tr.amount;
        }
        t
    }

    /// Imbalance before/after applying this schedule to `times`. Both
    /// summaries come from the same [`LoadSummary`] helper the event
    /// simulator's Fig. 10 metric uses, so the schedule report and the
    /// simulator cannot drift apart in how they aggregate per-rank loads.
    pub fn report(&self, times: &[f64]) -> ScheduleReport {
        ScheduleReport {
            before: LoadSummary::from_times(times),
            after: LoadSummary::from_times(&self.balanced_times(times)),
            transfers: self.transfers.len(),
        }
    }
}

/// Summary of what a schedule does to the load distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScheduleReport {
    pub before: LoadSummary,
    pub after: LoadSummary,
    pub transfers: usize,
}

/// `CreateCommunicationList` (paper Fig. 5), computed globally.
///
/// `times[r]` is rank `r`'s total predicted local work time. Ranks above
/// the mean are senders; the most-loaded sender transfers to the
/// least-loaded receiver until it reaches the mean, consuming receivers
/// from the bottom of the sorted order ("the senders with the most work to
/// share send to receivers with the largest ability to receive").
///
/// Rejects non-finite times with a typed error — a NaN prediction must
/// abort the run identically on every rank, not panic mid-sort.
pub fn create_schedule(times: &[f64]) -> Result<Schedule, ScheduleError> {
    all_finite(times, |rank| ScheduleError::NonFiniteTime { rank })?;
    let p = times.len();
    if p < 2 {
        return Ok(Schedule {
            transfers: Vec::new(),
            mean: times.first().copied().unwrap_or(0.0),
        });
    }
    // The mean comes from the same helper as every imbalance metric in the
    // repo (Fig. 10's normalized σ/mean), so the schedule target and the
    // reported statistics are one computation, not two.
    let mean = LoadSummary::from_times(times).mean;
    // Sort by time descending (stable tie-break by rank id for determinism).
    let mut order: Vec<usize> = (0..p).collect();
    order.sort_by(|&a, &b| times[b].total_cmp(&times[a]).then(a.cmp(&b)));
    let mut t: Vec<f64> = order.iter().map(|&r| times[r]).collect();

    // lr = number of senders (entries strictly above the mean).
    let lr = t.iter().take_while(|&&x| x > mean).count();
    let mut transfers = Vec::new();
    let mut cr = p - 1; // least-loaded receiver cursor
    const EPS: f64 = 1e-12;
    for i in 0..lr {
        while cr >= lr && t[i] > mean + EPS {
            let give = t[i] - mean;
            let take = mean - t[cr];
            if take <= EPS {
                // Receiver already at the mean (can happen with ties).
                if cr == lr {
                    break;
                }
                cr -= 1;
                continue;
            }
            if give > take {
                transfers.push(Transfer {
                    from: order[i],
                    to: order[cr],
                    amount: take,
                });
                t[i] -= take;
                t[cr] = mean;
                if cr == lr {
                    break;
                }
                cr -= 1;
            } else {
                transfers.push(Transfer {
                    from: order[i],
                    to: order[cr],
                    amount: give,
                });
                t[cr] += give;
                t[i] = mean;
            }
        }
    }
    Ok(Schedule { transfers, mean })
}

/// Greedy first-fit approximation to variable-size bin packing (paper
/// §IV-D, citing Kang & Park): items sorted by descending cost, bins by
/// ascending capacity; each item goes to the first bin it fits in.
///
/// Returns `(assignment, leftovers)`: `assignment[b]` holds the item
/// indices packed into bin `b` (indices into `items`), `leftovers` the
/// items that fit nowhere (they stay local). Non-finite costs or
/// capacities are rejected with a typed error.
pub fn pack_bins(
    items: &[f64],
    bins: &[f64],
) -> Result<(Vec<Vec<usize>>, Vec<usize>), ScheduleError> {
    all_finite(items, |index| ScheduleError::NonFiniteItem { index })?;
    all_finite(bins, |index| ScheduleError::NonFiniteBin { index })?;
    let mut item_order: Vec<usize> = (0..items.len()).collect();
    item_order.sort_by(|&a, &b| items[b].total_cmp(&items[a]).then(a.cmp(&b)));
    let mut bin_order: Vec<usize> = (0..bins.len()).collect();
    bin_order.sort_by(|&a, &b| bins[a].total_cmp(&bins[b]).then(a.cmp(&b)));

    let mut remaining: Vec<f64> = bins.to_vec();
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); bins.len()];
    let mut leftovers = Vec::new();
    // Tiny tolerance: predicted costs are continuous, capacities should not
    // reject an exactly-fitting item to roundoff.
    const SLACK: f64 = 1e-9;
    for &it in &item_order {
        let cost = items[it];
        let mut placed = false;
        for &b in &bin_order {
            if cost <= remaining[b] * (1.0 + SLACK) + SLACK {
                remaining[b] -= cost;
                assignment[b].push(it);
                placed = true;
                break;
            }
        }
        if !placed {
            leftovers.push(it);
        }
    }
    Ok((assignment, leftovers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_after(times: &[f64]) -> f64 {
        let s = create_schedule(times).unwrap();
        s.balanced_times(times)
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn balanced_input_produces_no_transfers() {
        let s = create_schedule(&[5.0, 5.0, 5.0, 5.0]).unwrap();
        assert!(s.transfers.is_empty());
        assert_eq!(s.mean, 5.0);
    }

    #[test]
    fn single_overload_spreads() {
        let times = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        // mean = 16/7 ≈ 2.2857.
        let s = create_schedule(&times).unwrap();
        let after = s.balanced_times(&times);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        for (r, &t) in after.iter().enumerate() {
            assert!(t <= mean + 1e-9, "rank {r} at {t} > mean {mean}");
        }
        // Work conserved.
        assert!((after.iter().sum::<f64>() - times.iter().sum::<f64>()).abs() < 1e-9);
        // Sender 0 ends exactly at the mean.
        assert!((after[0] - mean).abs() < 1e-9);
    }

    #[test]
    fn paper_invariant_max_equals_mean() {
        // Arbitrary skewed loads: the schedule must bring the max down to
        // the mean (the algorithm's fixed point).
        let times = [12.0, 7.5, 3.0, 1.0, 0.5, 0.25, 9.0, 2.0];
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        assert!((max_after(&times) - mean).abs() < 1e-9);
    }

    #[test]
    fn heavy_tail_many_senders() {
        let mut times = vec![1.0; 64];
        times[0] = 100.0;
        times[1] = 50.0;
        times[2] = 25.0;
        let s = create_schedule(&times).unwrap();
        let after = s.balanced_times(&times);
        let mean = times.iter().sum::<f64>() / 64.0;
        for &t in &after {
            assert!(t <= mean + 1e-9);
        }
        // Most-loaded sender pairs with least-loaded receivers first.
        assert_eq!(s.transfers[0].from, 0);
    }

    #[test]
    fn send_and_recv_views_partition_transfers() {
        let times = [9.0, 8.0, 1.0, 1.0, 1.0];
        let s = create_schedule(&times).unwrap();
        let total: usize = (0..5).map(|r| s.sends_of(r).len()).sum();
        assert_eq!(total, s.transfers.len());
        let total_r: usize = (0..5).map(|r| s.recvs_of(r).len()).sum();
        assert_eq!(total_r, s.transfers.len());
        // No rank both sends and receives.
        for r in 0..5 {
            assert!(
                s.sends_of(r).is_empty() || s.recvs_of(r).is_empty(),
                "rank {r} does both"
            );
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert!(create_schedule(&[]).unwrap().transfers.is_empty());
        assert!(create_schedule(&[3.0]).unwrap().transfers.is_empty());
        let s = create_schedule(&[4.0, 0.0]).unwrap();
        assert_eq!(s.transfers.len(), 1);
        assert_eq!(
            s.transfers[0],
            Transfer {
                from: 0,
                to: 1,
                amount: 2.0
            }
        );
    }

    #[test]
    fn zero_total_work() {
        let s = create_schedule(&[0.0, 0.0, 0.0]).unwrap();
        assert!(s.transfers.is_empty());
    }

    #[test]
    fn pack_bins_first_fit_decreasing() {
        // Items 5,4,3,2,1 into bins of 6 and 9 (sorted ascending: 6 first).
        let (assign, left) = pack_bins(&[5.0, 4.0, 3.0, 2.0, 1.0], &[6.0, 9.0]).unwrap();
        // Largest item 5 → bin 6 (first fit ascending); 4 → bin 9; 3 → bin 9;
        // 2 → bin 9 (remaining 2); 1 → bin 6 (remaining 1).
        let sum = |b: usize| {
            assign[b]
                .iter()
                .map(|&i| [5.0, 4.0, 3.0, 2.0, 1.0][i])
                .sum::<f64>()
        };
        assert!(sum(0) <= 6.0 + 1e-9);
        assert!(sum(1) <= 9.0 + 1e-9);
        assert!(left.is_empty());
        assert!((sum(0) + sum(1) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn pack_bins_leftovers() {
        let (assign, left) = pack_bins(&[10.0, 1.0], &[2.0]).unwrap();
        assert_eq!(assign[0], vec![1]);
        assert_eq!(left, vec![0]);
    }

    #[test]
    fn pack_bins_no_bins() {
        let (assign, left) = pack_bins(&[1.0, 2.0], &[]).unwrap();
        assert!(assign.is_empty());
        assert_eq!(left.len(), 2);
    }

    #[test]
    fn pack_bins_exact_fit() {
        let (assign, left) = pack_bins(&[3.0, 3.0], &[3.0, 3.0]).unwrap();
        assert!(left.is_empty());
        assert_eq!(assign[0].len(), 1);
        assert_eq!(assign[1].len(), 1);
    }

    #[test]
    fn pack_bins_fills_tight_bins_on_a_heavy_tail() {
        // Heavy-tailed items into tight bins: first-fit *decreasing* places
        // nearly all the capacity's worth of work.
        let mut s = 5u64;
        let mut rnd = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let items: Vec<f64> = (0..200).map(|_| (1.0 - rnd()).powf(-0.4)).collect();
        let bins: Vec<f64> = (0..12).map(|_| 5.0 + 10.0 * rnd()).collect();
        let (assign, _left) = pack_bins(&items, &bins).unwrap();
        let placed: f64 = assign.iter().flatten().map(|&i| items[i]).sum();
        let fill = placed / bins.iter().sum::<f64>();
        assert!(fill > 0.95, "FFD fill {fill}");
    }

    #[test]
    fn non_finite_inputs_are_rejected_with_typed_errors() {
        assert_eq!(
            create_schedule(&[1.0, f64::NAN, 2.0]),
            Err(ScheduleError::NonFiniteTime { rank: 1 })
        );
        assert_eq!(
            create_schedule(&[1.0, f64::INFINITY]),
            Err(ScheduleError::NonFiniteTime { rank: 1 })
        );
        assert_eq!(
            pack_bins(&[1.0, f64::NAN], &[2.0]),
            Err(ScheduleError::NonFiniteItem { index: 1 })
        );
        assert_eq!(
            pack_bins(&[1.0], &[f64::NEG_INFINITY]),
            Err(ScheduleError::NonFiniteBin { index: 0 })
        );
        let msg = ScheduleError::NonFiniteTime { rank: 3 }.to_string();
        assert!(msg.contains("rank 3"), "{msg}");
    }

    #[test]
    fn schedule_report_matches_balanced_times() {
        let times = [20.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 2.0];
        let s = create_schedule(&times).unwrap();
        let rep = s.report(&times);
        assert_eq!(rep.transfers, s.transfers.len());
        // The report's mean IS the schedule's target mean (same helper).
        assert_eq!(rep.before.mean, s.mean);
        assert!((rep.after.mean - s.mean).abs() < 1e-12, "work conserved");
        // Balancing brings max to the mean and collapses the spread.
        assert!((rep.after.max - s.mean).abs() < 1e-9);
        assert!(rep.after.normalized_std < 0.2 * rep.before.normalized_std);
        // And the report agrees with an independent recompute.
        let after = s.balanced_times(&times);
        assert_eq!(rep.after, LoadSummary::from_times(&after));
    }

    #[test]
    fn schedule_reduces_imbalance_metric() {
        // Std-dev of compute time — the paper's Fig. 10 metric — drops.
        let times = [20.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 2.0];
        let s = create_schedule(&times).unwrap();
        let after = s.balanced_times(&times);
        let sd = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        assert!(
            sd(&after) < 0.2 * sd(&times),
            "sd {} -> {}",
            sd(&times),
            sd(&after)
        );
    }
}
