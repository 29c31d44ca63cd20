//! Rotating-window histograms: the one store behind every histogram a
//! recorder keeps, answering both "p99 since boot" and "p99 over the
//! *last N seconds*".
//!
//! A window is `n` slots of `width_us` microseconds each. A slot is keyed
//! by its *epoch* (`now_us / width_us`); recording maps the current epoch
//! onto `epoch % n` and lazily rotates a slot whose stored epoch is stale,
//! so rotation costs nothing when no samples arrive and there is no timer
//! thread. A rotated-out slot is merged into a `retired` histogram, so each
//! sample is stored once: the windowed view
//! ([`WindowedHistogram::merged_at`]) merges the slots still inside the
//! window, and the cumulative view ([`WindowedHistogram::cumulative`]) is
//! `retired` merged with every slot — one histogram of every sample, since
//! [`Histogram::merge`] adds bucket counts exactly. Both are plain
//! [`Histogram`]s, so the quantile machinery carries over unchanged. With
//! zero slots (windowing off) a sample goes straight into `retired`, with
//! no clock read.
//!
//! Every mutation and read can take an explicit `now_us` timestamp (the
//! convenience wrapper uses [`clock::now_us`]), which makes rotation
//! boundaries deterministic under test: the same sequence of
//! `(now_us, value)` pairs always yields the same merged histograms.

use crate::clock;
use crate::metrics::Histogram;

/// Is a sample or set made in `epoch` still inside a window of `slots`
/// epochs that ends with (and includes) `now_epoch`? Never, when the
/// window has no slots.
pub fn live(epoch: u64, now_epoch: u64, slots: u64) -> bool {
    epoch + slots > now_epoch && epoch <= now_epoch
}

/// One rotating slot: the samples recorded during a single epoch.
#[derive(Clone, Debug, Default)]
struct Slot {
    epoch: u64,
    hist: Histogram,
}

/// A histogram over all time and over the last `n × width` window of it.
#[derive(Clone, Debug)]
pub struct WindowedHistogram {
    width_us: u64,
    /// Every sample of a slot that has rotated out; with no slots, every
    /// sample.
    retired: Histogram,
    slots: Vec<Slot>,
}

impl WindowedHistogram {
    /// A window of `buckets` rotating slots, each covering `width_us`
    /// microseconds. Total coverage is `buckets × width_us`; `buckets = 0`
    /// keeps the cumulative view only.
    pub fn new(buckets: usize, width_us: u64) -> WindowedHistogram {
        WindowedHistogram {
            width_us: width_us.max(1),
            retired: Histogram::new(),
            slots: vec![Slot::default(); buckets],
        }
    }

    /// Record one sample at an explicit timestamp.
    pub fn record_at(&mut self, now_us: u64, v: u64) {
        if self.slots.is_empty() {
            self.retired.record(v);
            return;
        }
        let epoch = now_us / self.width_us;
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            // The slot last served an epoch a full rotation ago (or is
            // untouched); its samples have aged out of the window, not out
            // of the cumulative view.
            self.retired.merge(&std::mem::take(&mut slot.hist));
            slot.epoch = epoch;
        }
        slot.hist.record(v);
    }

    /// Record one sample now (without reading the clock when there are no
    /// slots).
    pub fn record(&mut self, v: u64) {
        let now_us = if self.slots.is_empty() {
            0
        } else {
            clock::now_us()
        };
        self.record_at(now_us, v);
    }

    /// Merge every slot still inside the window ending at `now_us` into
    /// one histogram. Deterministic: slots are merged in index order and
    /// the same `(now_us, recordings)` history always yields an equal
    /// result.
    pub fn merged_at(&self, now_us: u64) -> Histogram {
        let epoch = now_us / self.width_us;
        let n = self.slots.len() as u64;
        let mut out = Histogram::new();
        // `slot.epoch == 0` with an empty histogram is the untouched
        // initial state and merges as a no-op.
        for slot in self.slots.iter().filter(|s| live(s.epoch, epoch, n)) {
            out.merge(&slot.hist);
        }
        out
    }

    /// Every sample ever recorded: the retired samples merged with every
    /// slot, live or stale.
    pub fn cumulative(&self) -> Histogram {
        let mut out = self.retired.clone();
        for slot in &self.slots {
            out.merge(&slot.hist);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000_000; // 1 s slots

    #[test]
    fn samples_age_out_after_one_full_window() {
        let mut h = WindowedHistogram::new(4, W);
        for i in 0..100 {
            h.record_at(10 + i, 50);
        }
        assert_eq!(h.merged_at(10 + 99).count(), 100);
        // Still inside the 4-slot window (epochs 0..=3 cover epoch 0).
        assert_eq!(h.merged_at(3 * W + 1).count(), 100);
        // Epoch 4: the samples' slot has aged out.
        assert_eq!(h.merged_at(4 * W + 1).count(), 0);
    }

    #[test]
    fn quantiles_are_correct_across_rotation_boundaries() {
        // 100 small samples in epoch 0, 10 huge ones in epoch 2: while
        // both slots are live the p50 sits in the small population and the
        // p99 in the spike; once epoch 0 rotates out, only the spike
        // remains and every quantile jumps to it.
        let mut h = WindowedHistogram::new(3, W);
        for _ in 0..100 {
            h.record_at(W / 2, 100);
        }
        for _ in 0..10 {
            h.record_at(2 * W + W / 2, 1_000_000);
        }
        let both = h.merged_at(2 * W + W / 2);
        assert_eq!(both.count(), 110);
        let p50 = both.quantile(0.5).unwrap();
        assert!((94..=107).contains(&p50), "p50={p50}");
        let p99 = both.quantile(0.99).unwrap();
        assert!(p99 >= 900_000, "p99={p99}");
        // Epoch 3: epoch 0's slot is out of the window, the spike is not.
        let spike_only = h.merged_at(3 * W + 1);
        assert_eq!(spike_only.count(), 10);
        assert!(spike_only.quantile(0.5).unwrap() >= 900_000);
        // Epoch 5: everything has aged out.
        assert!(h.merged_at(5 * W + 1).is_empty());
    }

    #[test]
    fn slot_reuse_after_long_idle_drops_stale_samples() {
        let mut h = WindowedHistogram::new(2, W);
        h.record_at(0, 7);
        // Ten epochs later the same slot index is reused; the stale
        // samples must not leak into the new epoch.
        h.record_at(10 * W, 9);
        let m = h.merged_at(10 * W);
        assert_eq!(m.count(), 1);
        assert_eq!(m.quantile(0.5), Some(9));
    }

    #[test]
    fn merge_on_read_is_deterministic() {
        let build = || {
            let mut h = WindowedHistogram::new(4, W);
            for i in 0..1000u64 {
                h.record_at(i * 3_777, i % 97);
            }
            h
        };
        let (a, b) = (build(), build());
        for t in [0, W - 1, W, 3 * W + 123, 7 * W] {
            assert_eq!(a.merged_at(t), b.merged_at(t), "divergence at t={t}");
        }
        // Reading must not mutate: repeated reads agree.
        assert_eq!(a.merged_at(2 * W), a.merged_at(2 * W));
    }

    /// splitmix64: a deterministic stream for the property test below.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn both_views_equal_brute_force_over_random_histories() {
        // Random monotone histories with idle gaps longer than the whole
        // window: the cumulative view is one histogram of every sample, and
        // the windowed view one of the samples whose epoch is live.
        for buckets in [0usize, 1, 4, 10] {
            for seed in 0..200u64 {
                let mut rng = seed.wrapping_mul(31).wrapping_add(buckets as u64);
                let mut h = WindowedHistogram::new(buckets, W);
                let mut samples: Vec<(u64, u64)> = Vec::new();
                let mut now = mix(&mut rng) % (3 * W);
                let check = |h: &WindowedHistogram, samples: &[(u64, u64)], now: u64| {
                    let mut all = Histogram::new();
                    let mut window = Histogram::new();
                    for &(t, v) in samples {
                        all.record(v);
                        if live(t / W, now / W, buckets as u64) {
                            window.record(v);
                        }
                    }
                    assert_eq!(h.cumulative(), all, "buckets={buckets} seed={seed}");
                    assert_eq!(
                        h.merged_at(now),
                        window,
                        "buckets={buckets} seed={seed} now={now}"
                    );
                };
                for _ in 0..mix(&mut rng) % 300 {
                    now += match mix(&mut rng) % 16 {
                        0 => (buckets as u64 + 1 + mix(&mut rng) % 4) * W,
                        1..=3 => mix(&mut rng) % W,
                        _ => mix(&mut rng) % (W / 20),
                    };
                    let r = mix(&mut rng);
                    let v = r >> (r % 64);
                    h.record_at(now, v);
                    samples.push((now, v));
                    if mix(&mut rng).is_multiple_of(16) {
                        check(&h, &samples, now);
                    }
                }
                for k in 0..2 * buckets as u64 + 2 {
                    check(&h, &samples, now + k * W / 2);
                }
            }
        }
    }
}
