//! Uniform spatial volume decomposition (paper §IV-B).
//!
//! Every rank owns one equal-size box of a `dims[0] × dims[1] × dims[2]`
//! grid over the domain. Equal *volume*, not equal particle count — the
//! resulting particle imbalance on clustered data is precisely what the
//! work-sharing machinery then repairs.

use dtfe_geometry::{Aabb3, Vec3};

/// A uniform box decomposition of a domain across `n` ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct Decomposition {
    pub bounds: Aabb3,
    pub dims: [usize; 3],
}

/// Factor `n` into three near-equal factors (largest first), preferring
/// cubic sub-volumes.
pub fn factor3(n: usize) -> [usize; 3] {
    assert!(n > 0);
    let mut best = [n, 1, 1];
    let mut best_score = usize::MAX;
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let m = n / a;
            let mut b = a;
            while b * b <= m {
                if m.is_multiple_of(b) {
                    let c = m / b;
                    // Score: spread between largest and smallest factor.
                    let score = c - a;
                    if score < best_score {
                        best_score = score;
                        best = [c, b, a];
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

impl Decomposition {
    /// Decompose `bounds` across `nranks` with near-cubic boxes.
    pub fn new(bounds: Aabb3, nranks: usize) -> Self {
        Decomposition {
            bounds,
            dims: factor3(nranks),
        }
    }

    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Per-axis box size.
    #[inline]
    pub fn box_size(&self) -> Vec3 {
        let e = self.bounds.extent();
        Vec3::new(
            e.x / self.dims[0] as f64,
            e.y / self.dims[1] as f64,
            e.z / self.dims[2] as f64,
        )
    }

    #[inline]
    fn cell_of(&self, p: Vec3) -> [usize; 3] {
        let s = self.box_size();
        let c = |v: f64, lo: f64, step: f64, n: usize| {
            (((v - lo) / step) as isize).clamp(0, n as isize - 1) as usize
        };
        [
            c(p.x, self.bounds.lo.x, s.x, self.dims[0]),
            c(p.y, self.bounds.lo.y, s.y, self.dims[1]),
            c(p.z, self.bounds.lo.z, s.z, self.dims[2]),
        ]
    }

    #[inline]
    fn flat(&self, c: [usize; 3]) -> usize {
        (c[2] * self.dims[1] + c[1]) * self.dims[0] + c[0]
    }

    /// Owning rank of point `p` (domain-boundary points clamp inward).
    #[inline]
    pub fn rank_of(&self, p: Vec3) -> usize {
        self.flat(self.cell_of(p))
    }

    /// The box owned by `rank`.
    pub fn rank_box(&self, rank: usize) -> Aabb3 {
        let (i, j, k) = self.coords(rank);
        let s = self.box_size();
        let lo = Vec3::new(
            self.bounds.lo.x + i as f64 * s.x,
            self.bounds.lo.y + j as f64 * s.y,
            self.bounds.lo.z + k as f64 * s.z,
        );
        Aabb3::new(lo, lo + s)
    }

    /// Grid coordinates of `rank`.
    #[inline]
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        let i = rank % self.dims[0];
        let j = (rank / self.dims[0]) % self.dims[1];
        let k = rank / (self.dims[0] * self.dims[1]);
        (i, j, k)
    }

    /// Every rank whose box, inflated by `margin`, contains `p` — the
    /// destinations of a ghost particle, in rank order.
    ///
    /// Containment is a test per axis, and along one axis the boxes that
    /// pass it are a run of consecutive indices, so the ranks are the
    /// product of three index windows. Each window is found among the boxes
    /// within `margin` of `p`'s own, by the same float expressions
    /// [`Decomposition::rank_box`] and [`Aabb3::inflated`] evaluate.
    ///
    /// [`Aabb3::inflated`]: dtfe_geometry::Aabb3::inflated
    pub fn ranks_within(&self, p: Vec3, margin: f64) -> impl Iterator<Item = usize> + '_ {
        let s = self.box_size();
        let c = self.cell_of(p);
        let window = |a: usize| {
            let (lo, step, n, v) = (self.bounds.lo[a], s[a], self.dims[a], p[a]);
            let holds = |i: usize| {
                let b = lo + i as f64 * step;
                b - margin <= v && v <= b + step + margin
            };
            let reach = (margin / step).ceil() as usize + 1;
            let last = (c[a] + reach).min(n - 1);
            let start = (c[a].saturating_sub(reach)..=last)
                .find(|&i| holds(i))
                .unwrap_or(last + 1);
            let end = (start..=last).find(|&i| !holds(i)).unwrap_or(last + 1);
            start..end
        };
        let (wi, wj, wk) = (window(0), window(1), window(2));
        wk.flat_map(move |k| {
            let wi = wi.clone();
            wj.clone()
                .flat_map(move |j| wi.clone().map(move |i| self.flat([i, j, k])))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor3_cases() {
        assert_eq!(factor3(1), [1, 1, 1]);
        assert_eq!(factor3(8), [2, 2, 2]);
        assert_eq!(factor3(64), [4, 4, 4]);
        assert_eq!(factor3(12), [3, 2, 2]);
        let f = factor3(7); // prime
        assert_eq!(f.iter().product::<usize>(), 7);
        let f = factor3(240);
        assert_eq!(f.iter().product::<usize>(), 240);
        assert!(f[0] <= 10, "{f:?} too elongated"); // 240 = 8*6*5
    }

    #[test]
    fn boxes_tile_domain() {
        let d = Decomposition::new(Aabb3::new(Vec3::ZERO, Vec3::new(8.0, 4.0, 2.0)), 8);
        let total: f64 = (0..d.num_ranks()).map(|r| d.rank_box(r).volume()).sum();
        assert!((total - 64.0).abs() < 1e-9);
        // Disjoint.
        for a in 0..8 {
            for b in (a + 1)..8 {
                assert!(!d.rank_box(a).intersects(&d.rank_box(b)), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn rank_of_matches_boxes() {
        let d = Decomposition::new(Aabb3::new(Vec3::ZERO, Vec3::splat(10.0)), 27);
        let probe = [
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(9.9, 9.9, 9.9),
            Vec3::new(5.0, 5.0, 5.0),
            Vec3::new(3.33, 6.66, 0.0),
        ];
        for p in probe {
            let r = d.rank_of(p);
            assert!(
                d.rank_box(r).contains_closed(p),
                "rank {r} box misses {p:?}"
            );
        }
    }

    #[test]
    fn ghost_destinations() {
        let d = Decomposition::new(Aabb3::new(Vec3::ZERO, Vec3::splat(4.0)), 8);
        let within = |p, margin| d.ranks_within(p, margin).collect::<Vec<_>>();
        // Point deep inside a box: only its owner.
        let inner = within(Vec3::new(1.0, 1.0, 1.0), 0.25);
        assert_eq!(inner, vec![d.rank_of(Vec3::new(1.0, 1.0, 1.0))]);
        // Point near the centre face: several owners within margin.
        let near = within(Vec3::new(1.9, 1.0, 1.0), 0.25);
        assert_eq!(near.len(), 2);
        // Corner point with a large margin reaches all 8.
        let corner = within(Vec3::new(2.0, 2.0, 2.0), 0.5);
        assert_eq!(corner.len(), 8);
    }

    /// The windowed search returns what testing every rank's inflated box
    /// returns, in the same order: on every grid `factor3` makes for up to
    /// 64 ranks, for margins from none to wider than two boxes, at points
    /// on box faces and corners, exactly on inflated faces, and outside the
    /// bounds.
    #[test]
    fn ranks_within_equals_every_rank_tested() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let bounds = Aabb3::new(Vec3::new(-1.5, 0.25, 2.0), Vec3::new(6.5, 4.75, 5.0));
        for n in 1..=64 {
            let d = Decomposition::new(bounds, n);
            let step = d.box_size();
            let widest = step.x.max(step.y).max(step.z);
            for margin in [0.0, 0.3 * step.x, step.y, 2.5 * widest] {
                for _ in 0..40 {
                    let mut p = Vec3::ZERO;
                    for a in 0..3 {
                        let (lo, hi, w) = (bounds.lo[a], bounds.hi[a], step[a]);
                        let face = lo + (r() * (d.dims[a] + 1) as f64).floor() * w;
                        p[a] = match (r() * 5.0) as u32 {
                            0 => face,
                            1 => face - margin,
                            2 => face + margin,
                            _ => lo - w + r() * (hi - lo + 2.0 * w),
                        };
                    }
                    let every: Vec<usize> = (0..d.num_ranks())
                        .filter(|&q| d.rank_box(q).inflated(margin).contains_closed(p))
                        .collect();
                    let got: Vec<usize> = d.ranks_within(p, margin).collect();
                    assert_eq!(got, every, "{n} ranks, margin {margin}, {p:?}");
                }
            }
        }
    }

    #[test]
    fn coords_roundtrip() {
        let d = Decomposition::new(Aabb3::new(Vec3::ZERO, Vec3::splat(1.0)), 12);
        for r in 0..12 {
            let (i, j, k) = d.coords(r);
            assert_eq!(d.flat([i, j, k]), r);
        }
    }
}
