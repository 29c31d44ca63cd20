//! Metric value types: counters and gauges are plain numbers held by the
//! recorder shards; this module implements the log-linear-bucket histogram
//! and the merged [`MetricsSnapshot`] they are all gathered into.
//!
//! The histogram uses HDR-style log-linear buckets: values below 16 get one
//! exact bucket each, and every subsequent power of two is split into 16
//! linear sub-buckets, bounding the relative quantile error at 1/16 ≈ 6.25%
//! while keeping `record` branch-free enough for hot paths (a shift, a mask
//! and one `Vec` index). Quantile representatives are clamped into the
//! observed `[min, max]` range so single-sample histograms report exactly.

use std::collections::BTreeMap;

/// Linear sub-buckets per power of two (log2).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS; // 16

/// Bucket index for a recorded value. Monotone in `v`; exact for `v < 16`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = msb - SUB_BITS;
        let sub = (v >> shift) & (SUB - 1);
        (SUB as usize) * (shift as usize) + SUB as usize + sub as usize
    }
}

/// Inclusive `[lo, hi]` value range covered by bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        (idx as u64, idx as u64)
    } else {
        let b = idx - SUB as usize;
        let shift = (b / SUB as usize) as u32;
        let sub = (b % SUB as usize) as u64;
        let lo = (SUB + sub) << shift;
        (lo, lo + (1u64 << shift) - 1)
    }
}

/// A log-linear histogram of `u64` samples (typically microseconds or
/// per-operation counts). Cheap to record into, mergeable across the
/// per-thread shards, and queryable for p50/p90/p99 quantiles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded samples, or `None`
    /// when the histogram is empty. The representative is the midpoint of
    /// the selected bucket, clamped into `[min, max]`, so a single-sample
    /// histogram answers every quantile exactly and the relative error is
    /// otherwise bounded by the bucket width (≤ 6.25%).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample we are after.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_range(idx);
                let mid = lo + (hi - lo) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram (e.g. a different thread's shard) into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// All metric values gathered from one recorder (or merged across several).
///
/// Merging semantics: counters and histograms are additive; gauges take the
/// last writer per rank and are *summed* across ranks when snapshots are
/// merged (per-rank phase seconds sum to cluster-wide busy seconds — the
/// per-rank values remain available in the per-rank snapshots).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
    /// Rotating-window views of the histograms: same names, but covering
    /// only the last [`MetricsSnapshot::window_seconds`] of samples.
    pub windows: BTreeMap<String, Histogram>,
    /// Rotating-window gauge values (most recent set inside the window).
    pub window_gauges: BTreeMap<String, f64>,
    /// Time span the `windows`/`window_gauges` entries cover, in seconds
    /// (`0` when the recorder has no windowing configured).
    pub window_seconds: f64,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, h) in &other.windows {
            self.windows.entry(k.clone()).or_default().merge(h);
        }
        for (k, v) in &other.window_gauges {
            *self.window_gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        self.window_seconds = self.window_seconds.max(other.window_seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_contiguous() {
        // Exhaustive on the low range, sampled above.
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx == prev || idx == prev + 1, "gap at v={v}");
            prev = idx;
            let (lo, hi) = bucket_range(idx);
            assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}]");
        }
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        for v in [15u64, 16, 17, 31, 32, 33, 255, 256, 1 << 20, u64::MAX / 2] {
            let (lo, hi) = bucket_range(bucket_index(v));
            assert!(lo <= v && v <= hi);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        let v = 123_456_789u64;
        h.record(v);
        // Single sample: clamping makes every quantile exact.
        assert_eq!(h.quantile(0.5), Some(v));
        h.record(v + 1);
        let p99 = h.quantile(0.99).unwrap();
        let err = (p99 as f64 - (v + 1) as f64).abs() / v as f64;
        assert!(err <= 1.0 / 16.0 + 1e-9, "err={err}");
    }
}
