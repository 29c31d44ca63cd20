//! Halo profile samplers and clustered-cloud builders.
//!
//! These produce the heavy-tailed particle concentrations the paper's
//! galaxy-galaxy lensing experiment stresses ("fields are required in the
//! most highly concentrated particle regions"). NFW is the standard N-body
//! halo profile.

use crate::rng::Sampler;
use dtfe_geometry::{Aabb3, Vec3};

/// `μ(x) = ln(1+x) − x/(1+x)` — the NFW enclosed-mass shape function.
#[inline]
fn nfw_mu(x: f64) -> f64 {
    (1.0 + x).ln() - x / (1.0 + x)
}

/// Sample a radius (in units of the scale radius) from an NFW profile
/// truncated at concentration `c`, by bisecting the enclosed-mass CDF.
pub fn nfw_radius(s: &mut Sampler, c: f64) -> f64 {
    assert!(c > 0.0);
    let target = s.unit() * nfw_mu(c);
    let (mut lo, mut hi) = (0.0, c);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if nfw_mu(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// `n` particles from an NFW halo: scale radius `r_vir / c`, truncated at
/// `r_vir`.
pub fn sample_nfw(center: Vec3, r_vir: f64, c: f64, n: usize, s: &mut Sampler) -> Vec<Vec3> {
    let rs = r_vir / c;
    (0..n)
        .map(|_| {
            let r = nfw_radius(s, c) * rs;
            let d = s.direction();
            center + Vec3::new(d[0], d[1], d[2]) * r
        })
        .collect()
}

/// A halo in a synthetic catalog.
#[derive(Clone, Copy, Debug)]
pub struct Halo {
    pub center: Vec3,
    pub r_vir: f64,
    pub concentration: f64,
    pub n_particles: usize,
}

/// Specification of a clustered box: uniform background plus NFW halos with
/// a power-law occupation function. This is the workload generator for the
/// load-balancing experiments (Figs. 9–13).
#[derive(Clone, Debug)]
pub struct ClusteredBoxSpec {
    pub bounds: Aabb3,
    /// Total particle budget.
    pub n_particles: usize,
    /// Fraction of particles placed in halos (the rest are uniform
    /// background). Higher = more imbalance.
    pub halo_fraction: f64,
    /// Number of halos.
    pub n_halos: usize,
    /// Halo occupation ∝ n^slope between `n_min` and the remaining budget
    /// (slope ≈ −2 gives the heavy tail of real mass functions).
    pub occupation_slope: f64,
    /// Raw occupation draw range before rescaling to the budget; the upper
    /// bound caps how dominant a single halo can be.
    pub occupation_range: (f64, f64),
    pub r_vir_range: (f64, f64),
    pub seed: u64,
}

impl ClusteredBoxSpec {
    pub fn new(bounds: Aabb3, n_particles: usize, n_halos: usize, seed: u64) -> Self {
        ClusteredBoxSpec {
            bounds,
            n_particles,
            halo_fraction: 0.7,
            n_halos,
            occupation_slope: -2.0,
            occupation_range: (20.0, 20_000.0),
            r_vir_range: (0.01, 0.05), // relative to the box diagonal
            seed,
        }
    }
}

/// Generate the particles and the halo catalog.
pub fn clustered_box(spec: &ClusteredBoxSpec) -> (Vec<Vec3>, Vec<Halo>) {
    let mut s = Sampler::new(spec.seed);
    let ext = spec.bounds.extent();
    let diag = ext.norm();
    let mut pts = Vec::with_capacity(spec.n_particles);
    let mut halos = Vec::with_capacity(spec.n_halos);

    let budget = ((spec.n_particles as f64) * spec.halo_fraction) as usize;
    // Draw halo occupations from the power law, then rescale to the budget.
    let raw: Vec<f64> = (0..spec.n_halos)
        .map(|_| {
            s.power_law(
                spec.occupation_range.0,
                spec.occupation_range.1,
                spec.occupation_slope,
            )
        })
        .collect();
    let raw_total: f64 = raw.iter().sum();
    for r in &raw {
        let n = ((r / raw_total) * budget as f64).round().max(4.0) as usize;
        let r_vir = diag * s.range(spec.r_vir_range.0, spec.r_vir_range.1);
        // Keep halos comfortably inside the box so their particles stay in
        // bounds after truncation at r_vir.
        let margin = r_vir;
        let center = Vec3::new(
            s.range(spec.bounds.lo.x + margin, spec.bounds.hi.x - margin),
            s.range(spec.bounds.lo.y + margin, spec.bounds.hi.y - margin),
            s.range(spec.bounds.lo.z + margin, spec.bounds.hi.z - margin),
        );
        let c = s.range(4.0, 12.0);
        pts.extend(sample_nfw(center, r_vir, c, n, &mut s));
        halos.push(Halo {
            center,
            r_vir,
            concentration: c,
            n_particles: n,
        });
    }
    // Uniform background with the remaining budget.
    while pts.len() < spec.n_particles {
        pts.push(Vec3::new(
            s.range(spec.bounds.lo.x, spec.bounds.hi.x),
            s.range(spec.bounds.lo.y, spec.bounds.hi.y),
            s.range(spec.bounds.lo.z, spec.bounds.hi.z),
        ));
    }
    pts.truncate(spec.n_particles);
    // Most massive first, like a halo-finder catalog.
    halos.sort_by_key(|h| std::cmp::Reverse(h.n_particles));
    (pts, halos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfw_radius_within_truncation() {
        let mut s = Sampler::new(1);
        for _ in 0..1000 {
            let r = nfw_radius(&mut s, 8.0);
            assert!((0.0..=8.0).contains(&r));
        }
    }

    #[test]
    fn nfw_enclosed_mass_profile() {
        // Half of μ(c) of the mass lies within the μ-median radius.
        let c = 10.0;
        let mut s = Sampler::new(2);
        let median_target = 0.5 * nfw_mu(c);
        let (mut lo, mut hi) = (0.0, c);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if nfw_mu(mid) < median_target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let r_half = 0.5 * (lo + hi);
        let n = 20_000;
        let inside = (0..n).filter(|_| nfw_radius(&mut s, c) < r_half).count();
        let frac = inside as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn nfw_sampler_centers_and_radius() {
        let mut s = Sampler::new(3);
        let center = Vec3::new(5.0, 5.0, 5.0);
        let pts = sample_nfw(center, 2.0, 5.0, 2000, &mut s);
        assert_eq!(pts.len(), 2000);
        let mut max_r: f64 = 0.0;
        let mut mean = Vec3::ZERO;
        for p in &pts {
            max_r = max_r.max(p.distance(center));
            mean += *p;
        }
        mean = mean / 2000.0;
        assert!(max_r <= 2.0 + 1e-9, "max_r = {max_r}");
        assert!(
            mean.distance(center) < 0.2,
            "mean offset {:?}",
            mean - center
        );
    }

    #[test]
    fn clustered_box_budget_and_catalog() {
        let spec = ClusteredBoxSpec::new(Aabb3::new(Vec3::ZERO, Vec3::splat(10.0)), 20_000, 15, 6);
        let (pts, halos) = clustered_box(&spec);
        assert_eq!(pts.len(), 20_000);
        assert_eq!(halos.len(), 15);
        for p in &pts {
            assert!(spec.bounds.contains_closed(*p), "out of box: {p:?}");
        }
        // Catalog sorted by mass.
        for w in halos.windows(2) {
            assert!(w[0].n_particles >= w[1].n_particles);
        }
        // Clustering: counts-in-cells far above Poisson.
        let v = crate::zeldovich::count_in_cells_variance(&pts, 10.0, 5);
        assert!(v > 5.0, "variance ratio = {v}");
    }
}
