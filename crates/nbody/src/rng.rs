//! Deterministic random sampling helpers shared by the generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG with the distributions the generators need. Thin wrapper so
/// every generator in this crate draws from one implementation.
pub struct Sampler {
    rng: StdRng,
}

impl Sampler {
    pub fn new(seed: u64) -> Self {
        Sampler {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Standard normal (Box–Muller; one value per call, cached pair
    /// deliberately omitted to keep the state minimal and reproducible).
    pub fn normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Uniform direction on the unit sphere.
    pub fn direction(&mut self) -> [f64; 3] {
        let z = self.range(-1.0, 1.0);
        let phi = self.range(0.0, std::f64::consts::TAU);
        let r = (1.0 - z * z).max(0.0).sqrt();
        [r * phi.cos(), r * phi.sin(), z]
    }

    /// Power-law sample `x ∈ [lo, hi]` with density `∝ x^alpha`
    /// (`alpha != -1`).
    pub fn power_law(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        assert!(lo > 0.0 && hi > lo);
        let u = self.unit();
        if (alpha + 1.0).abs() < 1e-12 {
            // ∝ 1/x: log-uniform.
            return lo * (hi / lo).powf(u);
        }
        let a1 = alpha + 1.0;
        (lo.powf(a1) + u * (hi.powf(a1) - lo.powf(a1))).powf(1.0 / a1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Sampler::new(42);
        let mut b = Sampler::new(42);
        for _ in 0..10 {
            assert_eq!(a.unit(), b.unit());
        }
        let mut c = Sampler::new(43);
        assert_ne!(a.unit(), c.unit());
    }

    #[test]
    fn normal_moments() {
        let mut s = Sampler::new(7);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| s.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn direction_is_unit_and_isotropic() {
        let mut s = Sampler::new(11);
        let mut zsum = 0.0;
        for _ in 0..5000 {
            let d = s.direction();
            let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            assert!((n - 1.0).abs() < 1e-12);
            zsum += d[2];
        }
        assert!((zsum / 5000.0).abs() < 0.05);
    }

    #[test]
    fn power_law_bounds_and_slope() {
        let mut s = Sampler::new(3);
        let mut below = 0usize;
        let n = 10_000;
        for _ in 0..n {
            let x = s.power_law(1.0, 100.0, -2.0);
            assert!((1.0..=100.0).contains(&x));
            if x < 2.0 {
                below += 1;
            }
        }
        // For α = -2: P(x < 2) = (1 - 1/2) / (1 - 1/100) ≈ 0.505.
        let frac = below as f64 / n as f64;
        assert!((frac - 0.505).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn log_uniform_special_case() {
        let mut s = Sampler::new(5);
        for _ in 0..100 {
            let x = s.power_law(1.0, 10.0, -1.0);
            assert!((1.0..=10.0).contains(&x));
        }
    }
}
