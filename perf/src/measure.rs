//! What the harness measures with: clocks read from `/proc`, percentile and
//! quartile pickers, seeded request generators, a field checksum, and the
//! per-layer sample store.

use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::halos::{clustered_box, ClusteredBoxSpec, Halo};
use std::collections::BTreeMap;
use std::time::Instant;

// ---------------------------------------------------------------- statistics

/// Linear-interpolated percentile (`p` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let at = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = at.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it — the tail a sample of `n` supports. Falls back to the median.
pub fn tail_percentile(n: usize) -> f64 {
    // In per mille, so that 100 samples at p90 count exactly ten beyond.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10_000)
        .map_or(0.5, |per_mille| per_mille as f64 / 1000.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method), so
/// `perf --repeat` judges spread exactly as the driver does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

// ------------------------------------------------------------ process clocks

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The command
/// name may hold spaces and parentheses, so fields count from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Process CPU seconds so far, all threads. Linux reports ticks of 1/100 s.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / 100.0
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("parse VmHWM") as f64 / 1024.0
}

// -------------------------------------------------------- seeded generators

/// splitmix64: every stream the harness draws comes from one of these, keyed
/// by `--seed`, so the same seed gives the same inputs.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A list of `len` draws over `0..k` in zipf(`s`) proportions: rank `r` gets
/// its expected share `len * (1/(r+1)^s) / H` (largest remainders make up
/// the total), and the seed decides only the order. Every seed therefore
/// asks for the same mix, and two runs differ by what the host did, not by
/// how the draw fell.
pub fn zipf_sequence(k: usize, s: f64, len: usize, rng: &mut Rng) -> Vec<usize> {
    let weights: Vec<f64> = (0..k).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..k).collect();
    by_remainder.sort_by(|&a, &b| shares[b].fract().total_cmp(&shares[a].fract()));
    let short = len - counts.iter().sum::<usize>();
    for &r in &by_remainder[..short] {
        counts[r] += 1;
    }
    let mut out: Vec<usize> = (0..k)
        .flat_map(|r| std::iter::repeat_n(r, counts[r]))
        .collect();
    shuffle(&mut out, rng);
    out
}

/// Fisher-Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// The clustered box every workload draws its particles from:
/// `dtfe_nbody`'s generator with the heavy tail of its halo occupation cut
/// to one decade. The default (three decades over a few dozen halos) lets
/// one halo own the box, so the work a workload does would follow the seed.
pub fn halo_box(box_len: f64, n: usize, n_halos: usize, seed: u64) -> (Vec<Vec3>, Vec<Halo>) {
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(box_len));
    let mut spec = ClusteredBoxSpec::new(bounds, n, n_halos, seed);
    spec.occupation_range = (100.0, 1000.0);
    clustered_box(&spec)
}

/// One scan over `0..k`, starting where the seed says: a cache smaller than
/// `k` entries serves it no hits, whatever the start.
pub fn cyclic_sequence(k: usize, rng: &mut Rng) -> Vec<usize> {
    let start = (rng.next_u64() % k as u64) as usize;
    (0..k).map(|i| (start + i) % k).collect()
}

// ------------------------------------------------------------------ checksum

/// FNV-1a over the bit patterns of a field: equal checksums stand in for
/// bit-identical fields.
pub fn checksum(data: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Bit-for-bit equality of two fields: `==` on floats would let `0.0` pass
/// for `-0.0` and fail a NaN against itself.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ------------------------------------------------------------- layer samples

/// Per-layer samples by metric name, gathered from outside the layers: wall
/// around a public call, or a value the call returned.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn p50(&self, name: &str) -> Option<f64> {
        let v = self.get(name);
        (!v.is_empty()).then(|| median(v))
    }

    pub fn mean(&self, name: &str) -> Option<f64> {
        let v = self.get(name);
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    pub fn merge(&mut self, other: Samples) {
        for (name, mut values) in other.0 {
            self.0.entry(name).or_default().append(&mut values);
        }
    }
}

/// Run `f` inside the harness-side span `span` (recorded only in the traced
/// run) and return its result with the wall milliseconds it took.
pub fn timed<R>(span: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = dtfe_telemetry::span!(span, op = op);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 0.5);
        assert_eq!(tail_percentile(39), 0.5);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let zipf = |seed| zipf_sequence(8, 1.1, 400, &mut Rng(seed));
        assert_eq!(zipf(7), zipf(7));
        assert_ne!(zipf(7), zipf(8));
        let count = |draws: &[usize], t| draws.iter().filter(|&&x| x == t).count();
        let (a, b) = (zipf(7), zipf(8));
        assert_eq!(a.len(), 400);
        assert!(a.iter().all(|&t| t < 8));
        assert!(
            count(&a, 0) > count(&a, 3) && count(&a, 7) > 0,
            "popularity falls with rank"
        );
        for t in 0..8 {
            assert_eq!(
                count(&a, t),
                count(&b, t),
                "every seed asks for the same mix"
            );
        }

        let scan = |seed| cyclic_sequence(27, &mut Rng(seed));
        assert_eq!(scan(7), scan(7));
        assert!((0..64).any(|s| scan(s) != scan(7)));
        let mut seen = scan(7);
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..27).collect::<Vec<_>>(),
            "one scan visits every tile once"
        );
    }

    #[test]
    fn proc_parsers() {
        let stat = "4242 (perf (x) y) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        let status = "Name:\tperf\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tperf\n"), None);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn same_bits_is_stricter_than_float_equality() {
        assert!(same_bits(&[1.5, f64::NAN], &[1.5, f64::NAN]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 1.0]));
    }

    #[test]
    fn checksum_sees_every_bit() {
        assert_ne!(checksum(&[0.0]), checksum(&[-0.0]));
        assert_ne!(checksum(&[1.0, 2.0]), checksum(&[2.0, 1.0]));
        assert_eq!(checksum(&[1.5, 2.5]), checksum(&[1.5, 2.5]));
    }
}
