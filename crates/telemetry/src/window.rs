//! Rotating-window metrics: histograms and gauges that answer "what was
//! p99 over the *last N seconds*" instead of "since boot".
//!
//! A window is `n` slots of `width_us` microseconds each. A slot is keyed
//! by its *epoch* (`now_us / width_us`); recording maps the current epoch
//! onto `epoch % n` and lazily resets a slot whose stored epoch is stale,
//! so rotation costs nothing when no samples arrive and there is no timer
//! thread. Reading merges every slot whose epoch is still inside the
//! window — [`WindowedHistogram::merged_at`] returns a plain
//! [`Histogram`], so all the quantile machinery (and its error bounds)
//! carries over unchanged.
//!
//! Every mutation and read takes an explicit `now_us` timestamp (the
//! convenience wrappers use [`clock::now_us`]), which makes rotation
//! boundaries deterministic under test: the same sequence of
//! `(now_us, value)` pairs always yields the same merged histogram.

use crate::clock;
use crate::metrics::Histogram;

/// One rotating slot: the samples recorded during a single epoch.
#[derive(Clone, Debug, Default)]
struct Slot {
    epoch: u64,
    hist: Histogram,
}

/// A histogram over the last `n × width` window of time.
#[derive(Clone, Debug)]
pub struct WindowedHistogram {
    width_us: u64,
    slots: Vec<Slot>,
}

impl WindowedHistogram {
    /// A window of `buckets` rotating slots, each covering `width_us`
    /// microseconds. Total coverage is `buckets × width_us`.
    pub fn new(buckets: usize, width_us: u64) -> WindowedHistogram {
        WindowedHistogram {
            width_us: width_us.max(1),
            slots: vec![Slot::default(); buckets.max(1)],
        }
    }

    /// Record one sample at an explicit timestamp.
    pub fn record_at(&mut self, now_us: u64, v: u64) {
        let epoch = now_us / self.width_us;
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            // The slot last served an epoch a full rotation ago (or is
            // untouched); its samples have aged out of the window.
            slot.hist = Histogram::new();
            slot.epoch = epoch;
        }
        slot.hist.record(v);
    }

    /// Record one sample now.
    pub fn record(&mut self, v: u64) {
        self.record_at(clock::now_us(), v);
    }

    /// Merge every slot still inside the window ending at `now_us` into
    /// one histogram. Deterministic: slots are merged in index order and
    /// the same `(now_us, recordings)` history always yields an equal
    /// result.
    pub fn merged_at(&self, now_us: u64) -> Histogram {
        let epoch = now_us / self.width_us;
        let n = self.slots.len() as u64;
        let mut out = Histogram::new();
        for slot in &self.slots {
            // Live iff recorded within the last `n` epochs (inclusive of
            // the current one). `slot.epoch == 0` with an empty histogram
            // is the untouched initial state and merges as a no-op.
            if slot.epoch + n > epoch && slot.epoch <= epoch {
                out.merge(&slot.hist);
            }
        }
        out
    }
}

/// The last/min/max of a gauge over a rotating window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaugeWindow {
    /// Most recent value set inside the window.
    pub last: f64,
    /// Timestamp of that most recent set.
    pub last_at_us: u64,
    /// Smallest value set inside the window.
    pub min: f64,
    /// Largest value set inside the window.
    pub max: f64,
}

#[derive(Clone, Copy, Debug, Default)]
struct GaugeSlot {
    epoch: u64,
    set: bool,
    last: f64,
    last_at_us: u64,
    min: f64,
    max: f64,
}

/// A gauge whose reads cover only the last `n × width` of time — the
/// live-routing signal (`queue_depth` right now, not its all-time last
/// write from a quiet hour ago).
#[derive(Clone, Debug)]
pub struct WindowedGauge {
    width_us: u64,
    slots: Vec<GaugeSlot>,
}

impl WindowedGauge {
    pub fn new(buckets: usize, width_us: u64) -> WindowedGauge {
        WindowedGauge {
            width_us: width_us.max(1),
            slots: vec![GaugeSlot::default(); buckets.max(1)],
        }
    }

    /// Set the gauge at an explicit timestamp.
    pub fn set_at(&mut self, now_us: u64, v: f64) {
        let epoch = now_us / self.width_us;
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch || !slot.set {
            *slot = GaugeSlot {
                epoch,
                set: true,
                last: v,
                last_at_us: now_us,
                min: v,
                max: v,
            };
            return;
        }
        slot.min = slot.min.min(v);
        slot.max = slot.max.max(v);
        if now_us >= slot.last_at_us {
            slot.last = v;
            slot.last_at_us = now_us;
        }
    }

    /// Set the gauge now.
    pub fn set(&mut self, v: f64) {
        self.set_at(clock::now_us(), v);
    }

    /// The gauge's last/min/max over the window ending at `now_us`, or
    /// `None` when nothing was set inside it.
    pub fn merged_at(&self, now_us: u64) -> Option<GaugeWindow> {
        let epoch = now_us / self.width_us;
        let n = self.slots.len() as u64;
        let mut out: Option<GaugeWindow> = None;
        for slot in &self.slots {
            if !slot.set || slot.epoch + n <= epoch || slot.epoch > epoch {
                continue;
            }
            out = Some(match out {
                None => GaugeWindow {
                    last: slot.last,
                    last_at_us: slot.last_at_us,
                    min: slot.min,
                    max: slot.max,
                },
                Some(w) => GaugeWindow {
                    last: if slot.last_at_us >= w.last_at_us {
                        slot.last
                    } else {
                        w.last
                    },
                    last_at_us: w.last_at_us.max(slot.last_at_us),
                    min: w.min.min(slot.min),
                    max: w.max.max(slot.max),
                },
            });
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

    #[test]
    fn windowed_gauge_tracks_last_min_max_and_ages_out() {
        let mut g = WindowedGauge::new(3, W);
        assert_eq!(g.merged_at(0), None);
        g.set_at(100, 5.0);
        g.set_at(200, 1.0);
        g.set_at(W + 100, 9.0);
        let w = g.merged_at(W + 200).unwrap();
        assert_eq!(w.last, 9.0);
        assert_eq!(w.min, 1.0);
        assert_eq!(w.max, 9.0);
        // Epoch 3: epoch 0's sets are out; only the 9.0 remains.
        let w = g.merged_at(3 * W + 1).unwrap();
        assert_eq!((w.last, w.min, w.max), (9.0, 9.0, 9.0));
        // Epoch 4+: nothing in the window.
        assert_eq!(g.merged_at(4 * W + 1), None);
    }
}
