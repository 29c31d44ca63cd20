//! Smoothed stochastic DTFE reconstruction (Aragon-Calvo, PAPERS.md).
//!
//! A single DTFE realization is exact for the given particle set but noisy:
//! the density at a point is determined by the one Delaunay star that
//! happens to contain it. The stochastic estimator treats the particle set
//! as one sample of an underlying smooth field: it builds `k` realizations
//! with deterministically jittered particle positions, evaluates each
//! realization's DTFE density at the base mesh's vertices, and averages —
//! a smoothed field whose roughness decreases as `1/√k`.
//!
//! Averaging (and hull-edge clipping of the jittered realizations) does not
//! conserve mass by itself, so the averaged field is **rescaled** by
//! `M / ∫ ρ̄ dV`, restoring exact mass conservation (to roundoff) — the
//! mass-constrained reconstruction of the reference method, asserted at
//! 1e-12 relative by the conformance suite.
//!
//! Everything is deterministic in `(points, mass, options)`: the jitters
//! come from a counter-based xorshift stream seeded by
//! [`StochasticOptions::seed`], so the same inputs reproduce the same field
//! bit for bit — on one thread or many, locally or in the serving layer.

use crate::density::{DtfeField, Mass, TetInterp};
use crate::estimator::{
    integrate_vertex_field, vertex_interp, DegeneratePolicy, FieldEstimator, FieldView, SlotValues,
};
use crate::marching::MarchCache;
use dtfe_delaunay::{BuildError, Delaunay, DelaunayBuilder};
use dtfe_geometry::Vec3;
use std::sync::OnceLock;

/// Knobs for the stochastic reconstruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StochasticOptions {
    /// Number of jittered realizations averaged (`k ≥ 1`).
    pub realizations: u16,
    /// Jitter amplitude: each coordinate of each particle is displaced
    /// uniformly in `[-sigma, sigma]` per realization. `0.0` (the default)
    /// derives `0.25 ×` the mean inter-particle spacing from the particle
    /// bounding box.
    pub sigma: f64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for StochasticOptions {
    fn default() -> Self {
        StochasticOptions {
            realizations: crate::estimator::EstimatorKind::DEFAULT_REALIZATIONS,
            sigma: 0.0,
            seed: 0x5EEDED5EEDED5EED,
        }
    }
}

impl StochasticOptions {
    pub fn new() -> StochasticOptions {
        StochasticOptions::default()
    }

    pub fn realizations(mut self, k: u16) -> StochasticOptions {
        self.realizations = k;
        self
    }

    pub fn seed(mut self, s: u64) -> StochasticOptions {
        self.seed = s;
        self
    }
}

/// The stochastic table over a base triangulation: the
/// k-realization-averaged, mass-rescaled vertex densities and their
/// interpolants.
pub struct StochasticTable {
    /// Averaged and rescaled per-vertex densities.
    vertex_mean: Vec<f64>,
    /// Interpolants of the averaged field over the base mesh.
    interp: Vec<TetInterp>,
    /// The applied mass-conservation scale `M / ∫ ρ̄ dV`.
    scale: f64,
}

impl StochasticTable {
    /// Build the smoothed reconstruction of `points` with `mass` at the
    /// vertices of `del`, the triangulation of those same `points`. The
    /// mass integral is a float sum over `del`'s slot order, so the table
    /// belongs to that order.
    pub fn build(
        del: &Delaunay,
        points: &[Vec3],
        mass: &Mass,
        opts: StochasticOptions,
    ) -> StochasticTable {
        assert!(opts.realizations >= 1, "need at least one realization");
        let _span = dtfe_telemetry::span!(
            "core.stochastic_build",
            n = points.len(),
            k = opts.realizations as usize
        );

        let sigma = if opts.sigma > 0.0 {
            opts.sigma
        } else {
            default_sigma(points)
        };

        // Accumulate each realization's density at the base vertices. A
        // vertex falling outside a jittered realization's hull contributes
        // zero for that realization — the global rescale absorbs the
        // resulting edge bias.
        let mut acc = vec![0.0f64; del.num_vertices()];
        let mut jittered = Vec::with_capacity(points.len());
        for r in 0..opts.realizations {
            jittered.clear();
            for (i, &p) in points.iter().enumerate() {
                let mut s = jitter_seed(opts.seed, r, i);
                jittered.push(
                    p + Vec3::new(
                        (rand_unit(&mut s) * 2.0 - 1.0) * sigma,
                        (rand_unit(&mut s) * 2.0 - 1.0) * sigma,
                        (rand_unit(&mut s) * 2.0 - 1.0) * sigma,
                    ),
                );
            }
            // A jittered cloud can in principle degenerate; skip such
            // realizations rather than failing the whole build (the base
            // triangulation already proved the cloud is 3-dimensional).
            let Ok(real) = DtfeField::build(&jittered, mass.clone()) else {
                continue;
            };
            for (a, &v) in acc.iter_mut().zip(del.vertices()) {
                if let Some(rho) = real.density_at(v) {
                    *a += rho;
                }
            }
        }
        let inv_k = 1.0 / opts.realizations as f64;
        let mut mean: Vec<f64> = acc.iter().map(|a| a * inv_k).collect();

        // Mass-conservation constraint: rescale so ∫ ρ̄ dV = M exactly.
        let m_true = total_mass(mass, points.len());
        let integral = integrate_vertex_field(del, &mean);
        let scale = if integral > 0.0 {
            m_true / integral
        } else {
            1.0
        };
        for m in &mut mean {
            *m *= scale;
        }

        let interp = vertex_interp(del, &mean, DegeneratePolicy::ZeroGradient)
            .expect("ZeroGradient policy is infallible");
        StochasticTable {
            vertex_mean: mean,
            interp,
            scale,
        }
    }

    /// Averaged, rescaled per-vertex densities.
    #[inline]
    pub fn vertex_densities(&self) -> &[f64] {
        &self.vertex_mean
    }

    /// The per-slot interpolants of the averaged field.
    #[inline]
    pub fn interp(&self) -> &[TetInterp] {
        &self.interp
    }
}

/// The smoothed stochastic estimator: the base triangulation, in the DTFE
/// constructor's slot order, and its [`StochasticTable`] in one owner.
pub struct StochasticField {
    del: Delaunay,
    table: StochasticTable,
    march: OnceLock<MarchCache>,
}

impl StochasticField {
    /// Build the smoothed reconstruction of `points` with `mass`.
    pub fn build(
        points: &[Vec3],
        mass: Mass,
        opts: StochasticOptions,
    ) -> Result<StochasticField, BuildError> {
        let mut del = DelaunayBuilder::new().build(points)?;
        del.compact_reorder();
        let table = StochasticTable::build(&del, points, &mass, opts);
        Ok(StochasticField {
            del,
            table,
            march: OnceLock::new(),
        })
    }

    /// The base triangulation.
    pub fn delaunay(&self) -> &Delaunay {
        &self.del
    }

    /// Averaged, rescaled per-vertex densities.
    pub fn vertex_densities(&self) -> &[f64] {
        self.table.vertex_densities()
    }

    /// The applied mass-conservation scale `M / ∫ ρ̄ dV` (≈ 1 in the bulk;
    /// diagnostically interesting near 0 or ≫ 1).
    pub fn mass_scale(&self) -> f64 {
        self.table.scale
    }

    /// Total mass of the reconstruction `∫ ρ̄ dV` — equals the input mass
    /// exactly (to roundoff), by the rescaling constraint.
    pub fn integrated_mass(&self) -> f64 {
        integrate_vertex_field(&self.del, self.vertex_densities())
    }
}

impl FieldEstimator for StochasticField {
    fn view(&self) -> FieldView<'_> {
        FieldView::new(
            &self.del,
            &self.march,
            SlotValues::Linear(&self.table.interp),
        )
    }
}

/// `0.25 ×` the mean inter-particle spacing estimated from the bounding
/// box.
fn default_sigma(points: &[Vec3]) -> f64 {
    let mut lo = Vec3::splat(f64::INFINITY);
    let mut hi = Vec3::splat(f64::NEG_INFINITY);
    for &p in points {
        lo = Vec3::new(lo.x.min(p.x), lo.y.min(p.y), lo.z.min(p.z));
        hi = Vec3::new(hi.x.max(p.x), hi.y.max(p.y), hi.z.max(p.z));
    }
    let ext = hi - lo;
    let vol = ext.x.max(1e-300) * ext.y.max(1e-300) * ext.z.max(1e-300);
    0.25 * (vol / points.len().max(1) as f64).cbrt()
}

fn total_mass(mass: &Mass, n_input: usize) -> f64 {
    match mass {
        Mass::Uniform(m) => m * n_input as f64,
        Mass::PerParticle(ms) => ms.iter().sum(),
    }
}

/// Counter-based stream: one independent seed per (run, realization,
/// particle), so jitters never depend on iteration order.
#[inline]
fn jitter_seed(seed: u64, realization: u16, particle: usize) -> u64 {
    (seed ^ ((realization as u64) << 48) ^ (particle as u64).wrapping_mul(0x9E3779B97F4A7C15)) | 1
    // xorshift must not start at 0
}

#[inline]
fn rand_unit(s: &mut u64) -> f64 {
    let mut x = *s;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *s = x;
    (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jittered_cloud(n_side: usize, seed: u64) -> Vec<Vec3> {
        let mut s = seed;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    pts.push(Vec3::new(
                        i as f64 + 0.6 * r(),
                        j as f64 + 0.6 * r(),
                        k as f64 + 0.6 * r(),
                    ));
                }
            }
        }
        pts
    }

    #[test]
    fn mass_conserved_exactly() {
        let pts = jittered_cloud(4, 7);
        let opts = StochasticOptions::new().realizations(3).seed(99);
        let f = StochasticField::build(&pts, Mass::Uniform(2.0), opts).unwrap();
        let m_true = 2.0 * pts.len() as f64;
        let m_est = f.integrated_mass();
        assert!(
            (m_est - m_true).abs() <= 1e-12 * m_true,
            "{m_est} vs {m_true}"
        );
        assert!(f.mass_scale() > 0.5 && f.mass_scale() < 2.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let pts = jittered_cloud(3, 13);
        let opts = StochasticOptions::new().realizations(2).seed(5);
        let a = StochasticField::build(&pts, Mass::Uniform(1.0), opts).unwrap();
        let b = StochasticField::build(&pts, Mass::Uniform(1.0), opts).unwrap();
        assert_eq!(a.vertex_densities(), b.vertex_densities());
        let c = StochasticField::build(&pts, Mass::Uniform(1.0), opts.seed(6)).unwrap();
        assert_ne!(a.vertex_densities(), c.vertex_densities());
    }

    #[test]
    fn more_realizations_smooth_the_field() {
        // Variance of the reconstruction around the base DTFE should not
        // grow with k; check the k=8 field is no rougher than k=1 in the
        // bulk (a weak but deterministic smoke test of the averaging).
        let pts = jittered_cloud(4, 29);
        let base = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let rough = |f: &StochasticField| -> f64 {
            f.vertex_densities()
                .iter()
                .zip(base.vertex_densities())
                .map(|(&a, &b)| (a - b).abs())
                .sum::<f64>()
        };
        let k1 = StochasticField::build(
            &pts,
            Mass::Uniform(1.0),
            StochasticOptions::new().realizations(1).seed(3),
        )
        .unwrap();
        let k8 = StochasticField::build(
            &pts,
            Mass::Uniform(1.0),
            StochasticOptions::new().realizations(8).seed(3),
        )
        .unwrap();
        assert!(rough(&k8) <= rough(&k1) * 1.5, "averaging made it rougher");
    }
}
