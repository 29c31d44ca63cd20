//! Workload modeling (paper §IV-C).
//!
//! Each work item (one surface-density field) costs one triangulation and
//! one grid render. The framework predicts both from the item's particle
//! count `n`:
//!
//! * triangulation: `t = c · n · log₂ n` — the quickhull average case; the
//!   single coefficient is fit by ordinary least squares (Eq. 15–16);
//! * interpolation: `t = α · n^β` — a power law fit by Gauss–Newton with a
//!   log-log linear initial guess (Eq. 17).
//!
//! Sample points come from each rank timing *one random local work item*
//! and `allgather`-ing `(n, t_del, t_interp)` — so with `P` ranks every
//! rank fits the same `P`-sample model.

use dtfe_geometry::{Aabb3, Vec3};

/// One timing sample: particle count and the two measured phase times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingSample {
    pub n: f64,
    pub t_tri: f64,
    pub t_interp: f64,
}

/// `t = c · n log₂ n` (Eq. 15).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TriModel {
    pub c: f64,
}

impl TriModel {
    /// OLS for the single coefficient: `c = Σ x t / Σ x²` with
    /// `x = n log₂ n` (Eq. 16 specialized to one regressor).
    pub fn fit(samples: &[TimingSample]) -> TriModel {
        let mut num = 0.0;
        let mut den = 0.0;
        for s in samples {
            let x = basis_nlogn(s.n);
            num += x * s.t_tri;
            den += x * x;
        }
        TriModel {
            c: if den > 0.0 { num / den } else { 0.0 },
        }
    }

    #[inline]
    pub fn predict(&self, n: f64) -> f64 {
        self.c * basis_nlogn(n)
    }
}

#[inline]
fn basis_nlogn(n: f64) -> f64 {
    if n >= 2.0 {
        n * n.log2()
    } else {
        n.max(0.0)
    }
}

/// `t = α · n^β` (Eq. 17).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterpModel {
    pub alpha: f64,
    pub beta: f64,
}

impl InterpModel {
    /// Gauss–Newton on the residuals `t_i − α n_i^β`, initialized from the
    /// log-log linear fit (the paper's initialization).
    ///
    /// The returned model predicts a finite, non-negative time for every
    /// finite `n ≥ 0`. A power law is returned only when `α > 0`, `β ≥ 0`
    /// and its prediction at `n = f64::MAX` is finite: it does not decrease
    /// with `n`, so it is then finite at every `n`. That admits sublinear
    /// and linear laws, which is what a render costs — per field, the
    /// tetrahedra on a line of sight grow like `n^{1/3}`. Any other fit,
    /// and fewer than two samples, give the linear fit `t = α·n` instead,
    /// least squares through the origin: `β = 1`, `α = Σ n·t / Σ n²`
    /// (finite everywhere while no sample takes more seconds than it has
    /// particles). What this rules out is two samples a few particles apart
    /// with noisy times: their log-log slope runs to the hundreds, and
    /// `α·n^β` is `0 · ∞` (NaN) or overflows on a slightly larger item.
    pub fn fit(samples: &[TimingSample]) -> InterpModel {
        let pts: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| s.n > 0.0 && s.t_interp > 0.0)
            .map(|s| (s.n, s.t_interp))
            .collect();
        let (nt, nn) = pts
            .iter()
            .fold((0.0, 0.0), |(nt, nn), &(n, t)| (nt + n * t, nn + n * n));
        let linear = InterpModel {
            alpha: if nn > 0.0 { nt / nn } else { 0.0 },
            beta: 1.0,
        };
        if pts.len() < 2 {
            return linear;
        }
        let power = Self::gauss_newton(&pts);
        if power.alpha > 0.0 && power.beta >= 0.0 && power.predict(f64::MAX).is_finite() {
            power
        } else {
            linear
        }
    }

    /// The paper's fit over `(n, t)` pairs, both positive, at least two.
    fn gauss_newton(pts: &[(f64, f64)]) -> InterpModel {
        // Log-log linear initial guess.
        let m = pts.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for &(n, t) in pts {
            let (x, y) = (n.ln(), t.ln());
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let den = m * sxx - sx * sx;
        let mut beta = if den.abs() > 1e-12 {
            (m * sxy - sx * sy) / den
        } else {
            1.0
        };
        let mut alpha = ((sy - beta * sx) / m).exp();

        // Gauss–Newton with simple step damping.
        let sse =
            |a: f64, b: f64| -> f64 { pts.iter().map(|&(n, t)| (t - a * n.powf(b)).powi(2)).sum() };
        let mut err = sse(alpha, beta);
        for _ in 0..60 {
            // J columns: ∂/∂α = n^β, ∂/∂β = α n^β ln n.
            let (mut jtj00, mut jtj01, mut jtj11) = (0.0, 0.0, 0.0);
            let (mut jtr0, mut jtr1) = (0.0, 0.0);
            for &(n, t) in pts {
                let f = alpha * n.powf(beta);
                let r = t - f;
                let j0 = n.powf(beta);
                let j1 = f * n.ln();
                jtj00 += j0 * j0;
                jtj01 += j0 * j1;
                jtj11 += j1 * j1;
                jtr0 += j0 * r;
                jtr1 += j1 * r;
            }
            let det = jtj00 * jtj11 - jtj01 * jtj01;
            if det.abs() < 1e-30 {
                break;
            }
            let da = (jtj11 * jtr0 - jtj01 * jtr1) / det;
            let db = (jtj00 * jtr1 - jtj01 * jtr0) / det;
            // Damped line search.
            let mut step = 1.0;
            let mut improved = false;
            for _ in 0..20 {
                let (na, nb) = (alpha + step * da, beta + step * db);
                if na > 0.0 {
                    let e = sse(na, nb);
                    if e < err {
                        alpha = na;
                        beta = nb;
                        err = e;
                        improved = true;
                        break;
                    }
                }
                step *= 0.5;
            }
            if !improved {
                break;
            }
        }
        InterpModel { alpha, beta }
    }

    #[inline]
    pub fn predict(&self, n: f64) -> f64 {
        self.alpha * n.powf(self.beta)
    }
}

/// The combined per-item cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadModel {
    pub tri: TriModel,
    pub interp: InterpModel,
}

impl WorkloadModel {
    pub fn fit(samples: &[TimingSample]) -> WorkloadModel {
        WorkloadModel {
            tri: TriModel::fit(samples),
            interp: InterpModel::fit(samples),
        }
    }

    /// Predicted total time for a work item with `n` particles.
    #[inline]
    pub fn predict(&self, n: f64) -> f64 {
        self.tri.predict(n) + self.interp.predict(n)
    }
}

/// Measured-vs-predicted residual summary for one fitted quantity.
///
/// Computed from `(predicted, actual)` pairs, so it works equally on the
/// fit's own samples (in-sample error) and on the full execution-phase
/// [`ItemRecord`](crate::runner::ItemRecord) stream (out-of-sample error —
/// the spread behind Fig. 11's histograms).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResidualSummary {
    pub n: usize,
    /// Root-mean-square residual (seconds).
    pub rmse: f64,
    /// Mean of `|predicted − actual| / actual` over pairs with `actual > 0`.
    pub mean_rel_err: f64,
    /// Max of the same relative error.
    pub max_rel_err: f64,
}

impl ResidualSummary {
    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> ResidualSummary {
        let mut n = 0usize;
        let mut sq = 0.0;
        let mut rel_sum = 0.0;
        let mut rel_n = 0usize;
        let mut rel_max = 0.0f64;
        for (pred, actual) in pairs {
            n += 1;
            sq += (pred - actual) * (pred - actual);
            if actual > 0.0 {
                let rel = (pred - actual).abs() / actual;
                rel_sum += rel;
                rel_max = rel_max.max(rel);
                rel_n += 1;
            }
        }
        ResidualSummary {
            n,
            rmse: if n > 0 { (sq / n as f64).sqrt() } else { 0.0 },
            mean_rel_err: if rel_n > 0 {
                rel_sum / rel_n as f64
            } else {
                0.0
            },
            max_rel_err: rel_max,
        }
    }
}

/// Residuals of both phase models over a set of timing samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModelResiduals {
    pub tri: ResidualSummary,
    pub interp: ResidualSummary,
}

impl WorkloadModel {
    /// Measured-vs-predicted residuals of this model over `samples` —
    /// how well the OLS / Gauss–Newton fits explain recorded phase times.
    pub fn residuals(&self, samples: &[TimingSample]) -> ModelResiduals {
        ModelResiduals {
            tri: ResidualSummary::from_pairs(
                samples.iter().map(|s| (self.tri.predict(s.n), s.t_tri)),
            ),
            interp: ResidualSummary::from_pairs(
                samples
                    .iter()
                    .map(|s| (self.interp.predict(s.n), s.t_interp)),
            ),
        }
    }
}

/// Uniform-bin particle index: the modeling phase's step 1, "count the
/// number of particles needed to complete each local work item" by centring
/// a cube on the item (paper §IV-C-1), and the execution phase's cut of
/// each item's particles.
pub struct ParticleCounter<'a> {
    particles: &'a [Vec3],
    lo: Vec3,
    inv_cell: f64,
    dims: [usize; 3],
    /// Bin `b` holds the particle indices `items[off[b]..off[b + 1]]`, in
    /// input order.
    off: Vec<u32>,
    items: Vec<u32>,
}

impl<'a> ParticleCounter<'a> {
    /// Bin `particles` over `bounds` with bins of roughly `cell` size. A
    /// particle outside `bounds` goes to the nearest bin.
    pub fn new(particles: &'a [Vec3], bounds: Aabb3, cell: f64) -> Self {
        assert!(cell > 0.0);
        let ext = bounds.extent();
        let dims = [
            ((ext.x / cell).ceil() as usize).max(1),
            ((ext.y / cell).ceil() as usize).max(1),
            ((ext.z / cell).ceil() as usize).max(1),
        ];
        let (lo, inv_cell) = (bounds.lo, 1.0 / cell);
        let bin_of = |p: Vec3| {
            let b = |a: usize| bin(p[a], lo[a], inv_cell, dims[a]);
            (b(2) * dims[1] + b(1)) * dims[0] + b(0)
        };
        // Count, then fill: a counting sort keeps each bin in input order.
        let mut off = vec![0u32; dims[0] * dims[1] * dims[2] + 1];
        for &p in particles {
            off[bin_of(p) + 1] += 1;
        }
        for b in 1..off.len() {
            off[b] += off[b - 1];
        }
        let mut cursor = off.clone();
        let mut items = vec![0u32; particles.len()];
        for (q, &p) in particles.iter().enumerate() {
            let b = bin_of(p);
            items[cursor[b] as usize] = q as u32;
            cursor[b] += 1;
        }
        ParticleCounter {
            particles,
            lo,
            inv_cell,
            dims,
            off,
            items,
        }
    }

    /// The particles in the closed cube of side `side` centred on `c`, in
    /// input order: the particles `Aabb3::cube(c, side).contains_closed`
    /// admits, testing only those in the bins the cube overlaps. The bin of
    /// a coordinate does not decrease as the coordinate grows, so a particle
    /// in the cube lies in a bin between those of the cube's corners.
    pub fn particles_in_cube(&self, c: Vec3, side: f64) -> Vec<Vec3> {
        let cube = Aabb3::cube(c, side);
        let corner =
            |v: Vec3| [0, 1, 2].map(|a| bin(v[a], self.lo[a], self.inv_cell, self.dims[a]));
        let ([i0, j0, k0], [i1, j1, k1]) = (corner(cube.lo), corner(cube.hi));
        let mut inside: Vec<u32> = Vec::new();
        for k in k0..=k1 {
            for j in j0..=j1 {
                // Bins i0..=i1 of one row are consecutive in `items`.
                let row = (k * self.dims[1] + j) * self.dims[0];
                let run = self.off[row + i0] as usize..self.off[row + i1 + 1] as usize;
                inside.extend(
                    (self.items[run].iter().copied())
                        .filter(|&q| cube.contains_closed(self.particles[q as usize])),
                );
            }
        }
        inside.sort_unstable();
        inside
            .into_iter()
            .map(|q| self.particles[q as usize])
            .collect()
    }

    /// Approximate count inside the cube of side `side` centred on `c`
    /// (bin-resolution accuracy — the model only needs the scale of `n`).
    /// The cube is half-open, `[c−h, c+h)` per axis.
    pub fn count_cube(&self, c: Vec3, side: f64) -> usize {
        let h = side * 0.5;
        let clamp_lo = |v: f64, lo: f64, n: usize| {
            (((v - lo) * self.inv_cell).floor() as isize).clamp(0, n as isize - 1) as usize
        };
        // Upper edge exclusive: an exactly bin-aligned cube face does not
        // pull in the next bin.
        let clamp_hi = |v: f64, lo: f64, n: usize| {
            ((((v - lo) * self.inv_cell).ceil() as isize) - 1).clamp(0, n as isize - 1) as usize
        };
        let i0 = clamp_lo(c.x - h, self.lo.x, self.dims[0]);
        let i1 = clamp_hi(c.x + h, self.lo.x, self.dims[0]);
        let j0 = clamp_lo(c.y - h, self.lo.y, self.dims[1]);
        let j1 = clamp_hi(c.y + h, self.lo.y, self.dims[1]);
        let k0 = clamp_lo(c.z - h, self.lo.z, self.dims[2]);
        let k1 = clamp_hi(c.z + h, self.lo.z, self.dims[2]);
        let mut total = 0usize;
        for k in k0..=k1 {
            for j in j0..=j1 {
                let row = (k * self.dims[1] + j) * self.dims[0];
                total += (self.off[row + i1 + 1] - self.off[row + i0]) as usize;
            }
        }
        total
    }
}

/// The bin of coordinate `v` on an axis whose bins start at `lo`, `n` of
/// them `1 / inv_cell` wide; a coordinate beyond either end takes the end
/// bin.
#[inline]
fn bin(v: f64, lo: f64, inv_cell: f64, n: usize) -> usize {
    (((v - lo) * inv_cell) as isize).clamp(0, n as isize - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth_samples(c: f64, alpha: f64, beta: f64, noise: f64, seed: u64) -> Vec<TimingSample> {
        let mut s = seed;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..40)
            .map(|i| {
                let n = 500.0 * (i as f64 + 1.0) + r() * 100.0;
                let mut jitter = |v: f64| v * (1.0 + noise * (r() - 0.5));
                TimingSample {
                    n,
                    t_tri: jitter(c * n * n.log2()),
                    t_interp: jitter(alpha * n.powf(beta)),
                }
            })
            .collect()
    }

    #[test]
    fn tri_fit_recovers_coefficient() {
        let samples = synth_samples(3e-6, 1e-5, 0.8, 0.0, 1);
        let m = TriModel::fit(&samples);
        assert!((m.c - 3e-6).abs() < 1e-9, "c = {}", m.c);
        // Prediction matches generation exactly with no noise.
        assert!((m.predict(5000.0) - 3e-6 * 5000.0 * 5000f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn tri_fit_with_noise() {
        let samples = synth_samples(2e-6, 1e-5, 0.8, 0.3, 7);
        let m = TriModel::fit(&samples);
        assert!((m.c - 2e-6).abs() / 2e-6 < 0.1, "c = {}", m.c);
    }

    #[test]
    fn interp_fit_recovers_power_law() {
        let samples = synth_samples(1e-6, 4e-5, 0.75, 0.0, 3);
        let m = InterpModel::fit(&samples);
        assert!((m.beta - 0.75).abs() < 1e-6, "beta = {}", m.beta);
        assert!((m.alpha - 4e-5).abs() / 4e-5 < 1e-4, "alpha = {}", m.alpha);
    }

    #[test]
    fn interp_fit_with_noise() {
        let samples = synth_samples(1e-6, 4e-5, 0.6, 0.25, 11);
        let m = InterpModel::fit(&samples);
        assert!((m.beta - 0.6).abs() < 0.1, "beta = {}", m.beta);
        let mid = m.predict(10_000.0);
        let expect = 4e-5 * 10_000f64.powf(0.6);
        assert!((mid - expect).abs() / expect < 0.15);
        // A superlinear law overflows at a finite `n`: the fit is linear.
        let m = InterpModel::fit(&synth_samples(1e-6, 4e-5, 1.2, 0.25, 11));
        assert_eq!(m.beta, 1.0);
    }

    #[test]
    fn interp_fit_degenerate_inputs() {
        assert_eq!(InterpModel::fit(&[]).alpha, 0.0);
        let one = [TimingSample {
            n: 100.0,
            t_tri: 0.0,
            t_interp: 5.0,
        }];
        let m = InterpModel::fit(&one);
        assert!((m.predict(100.0) - 5.0).abs() < 1e-12);
    }

    /// Two samples a particle apart whose render times differ 2× (timer
    /// noise on a small item): the log-log slope is ~416, `α = e^−2670`
    /// underflows to 0, and `0 · 600^416 = 0 · ∞` predicted NaN — the
    /// `batch_pipeline --seed 705` schedule failure. The second pair is one
    /// that run sampled: a slope of ~96 and `α ≈ 4e-308`, which overflowed
    /// on a 1,894-particle item and made a rank's total infinite.
    #[test]
    fn near_equal_counts_with_noisy_times_predict_finite_costs() {
        let sample = |n, t| TimingSample {
            n,
            t_tri: t,
            t_interp: t,
        };
        for samples in [
            [sample(600.0, 1e-3), sample(601.0, 2e-3)],
            [sample(1543.0, 7.481e-3), sample(1537.0, 5.152e-3)],
        ] {
            let m = WorkloadModel::fit(&samples);
            let total: f64 = (0..=2500).map(|n| m.predict(n as f64)).sum();
            assert!(total.is_finite(), "{m:?}");
            for n in [0.0, 1.0, 600.0, 1894.0, 5e4, 1e9] {
                let t = m.predict(n);
                assert!(t.is_finite() && t >= 0.0, "predict({n}) = {t}, {m:?}");
            }
        }
    }

    #[test]
    fn combined_model_predicts_sum() {
        let samples = synth_samples(1e-6, 2e-5, 1.0, 0.0, 5);
        let m = WorkloadModel::fit(&samples);
        let n: f64 = 3000.0;
        let expect = 1e-6 * n * n.log2() + 2e-5 * n;
        assert!((m.predict(n) - expect).abs() / expect < 0.01);
    }

    #[test]
    fn residuals_vanish_for_a_perfect_fit() {
        let samples = synth_samples(3e-6, 4e-5, 0.75, 0.0, 1);
        let m = WorkloadModel::fit(&samples);
        let r = m.residuals(&samples);
        assert_eq!(r.tri.n, samples.len());
        assert_eq!(r.interp.n, samples.len());
        assert!(r.tri.mean_rel_err < 1e-6, "{:?}", r.tri);
        assert!(r.interp.mean_rel_err < 1e-3, "{:?}", r.interp);
    }

    #[test]
    fn residuals_track_noise_scale() {
        let samples = synth_samples(2e-6, 4e-5, 0.9, 0.3, 13);
        let m = WorkloadModel::fit(&samples);
        let r = m.residuals(&samples);
        // ±15% multiplicative noise: mean relative error lands near its
        // expectation (~7.5%), far from zero and far below the noise bound.
        assert!(
            r.tri.mean_rel_err > 0.01 && r.tri.mean_rel_err < 0.15,
            "{:?}",
            r.tri
        );
        assert!(r.tri.max_rel_err >= r.tri.mean_rel_err);
        assert!(r.tri.rmse > 0.0);
    }

    #[test]
    fn residuals_of_empty_input_are_zero() {
        let r = WorkloadModel::fit(&[]).residuals(&[]);
        assert_eq!(r, ModelResiduals::default());
    }

    #[test]
    fn particle_counter_counts_cubes() {
        // A lattice of one particle per unit cell.
        let pts: Vec<Vec3> = (0..10)
            .flat_map(|i| {
                (0..10).flat_map(move |j| {
                    (0..10).map(move |k| Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5))
                })
            })
            .collect();
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(10.0));
        let counter = ParticleCounter::new(&pts, bounds, 1.0);
        // A 4-cube in the middle: ~64 particles (bin-aligned, so exact).
        let c = counter.count_cube(Vec3::splat(5.0), 4.0);
        assert_eq!(c, 64, "bin-aligned cube should count exactly 4³ bins");
        // Whole domain.
        assert_eq!(counter.count_cube(Vec3::splat(5.0), 20.0), 1000);
        // Empty corner outside.
        assert!(counter.count_cube(Vec3::splat(100.0), 1.0) <= 1);
    }

    /// A cube's particles from the bins are the linear filter's, point for
    /// point and in input order — for random cubes, cubes whose faces lie
    /// on bin edges (with particles on those edges), and cubes reaching
    /// past the binned bounds, where particles also lie.
    #[test]
    fn cube_particles_equal_the_linear_filter_in_order() {
        let mut s = 0xC0FF_EE00_D15E_A5E5u64;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let bounds = Aabb3::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(7.0, 5.0, 6.0));
        let cell = 0.5;
        // A coordinate on a bin edge, or anywhere from a bin below the
        // bounds to a bin above them.
        let mut coord = |a: usize, edge: bool| {
            let (lo, hi) = (bounds.lo[a], bounds.hi[a]);
            if edge {
                lo + (r() * (hi - lo) / cell).floor() * cell
            } else {
                lo - cell + r() * (hi - lo + 2.0 * cell)
            }
        };
        let pts: Vec<Vec3> = (0..4000)
            .map(|q| {
                let edge = q % 3 == 0;
                Vec3::new(coord(0, edge), coord(1, edge), coord(2, edge))
            })
            .collect();
        let bins = ParticleCounter::new(&pts, bounds, cell);
        for q in 0..400 {
            let (c, side) = if q % 2 == 0 {
                let side = (1.0 + (q % 7) as f64) * cell;
                let corner = Vec3::new(coord(0, true), coord(1, true), coord(2, true));
                (corner + Vec3::splat(0.5 * side), side)
            } else {
                let c = Vec3::new(coord(0, false), coord(1, false), coord(2, false));
                (c, 0.1 + 3.0 * (q % 13) as f64 / 13.0)
            };
            let cube = Aabb3::cube(c, side);
            let linear: Vec<Vec3> = pts
                .iter()
                .copied()
                .filter(|&p| cube.contains_closed(p))
                .collect();
            assert_eq!(bins.particles_in_cube(c, side), linear, "cube {cube:?}");
        }
    }
}
