//! Axis-aligned bounding boxes.
//!
//! Used for the uniform volume decomposition, ghost-zone construction
//! (paper §IV-B: ghosts extend `l_F / 2` beyond each sub-volume boundary) and
//! for the cubic particle-count queries of the workload model (paper §IV-C-1).

use crate::vec::{Vec2, Vec3};

/// An axis-aligned box in 3D, `lo` inclusive / `hi` exclusive for point
/// membership (half-open, so a uniform decomposition tiles space exactly).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb3 {
    pub lo: Vec3,
    pub hi: Vec3,
}

/// An axis-aligned rectangle in 2D (half-open like [`Aabb3`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb2 {
    pub lo: Vec2,
    pub hi: Vec2,
}

impl Aabb3 {
    #[inline]
    pub fn new(lo: Vec3, hi: Vec3) -> Self {
        Aabb3 { lo, hi }
    }

    /// A cube of side `side` centred on `c`.
    #[inline]
    pub fn cube(c: Vec3, side: f64) -> Self {
        let h = side * 0.5;
        Aabb3 {
            lo: c - Vec3::splat(h),
            hi: c + Vec3::splat(h),
        }
    }

    /// Smallest box containing every point; `None` for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut lo = first;
        let mut hi = first;
        for p in it {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Some(Aabb3 { lo, hi })
    }

    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.lo.x
            && p.x < self.hi.x
            && p.y >= self.lo.y
            && p.y < self.hi.y
            && p.z >= self.lo.z
            && p.z < self.hi.z
    }

    /// Inclusive-on-both-ends membership, used for ghost-zone capture where a
    /// particle exactly on the outer boundary must still be replicated.
    #[inline]
    pub fn contains_closed(&self, p: Vec3) -> bool {
        p.x >= self.lo.x
            && p.x <= self.hi.x
            && p.y >= self.lo.y
            && p.y <= self.hi.y
            && p.z >= self.lo.z
            && p.z <= self.hi.z
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.lo + self.hi) * 0.5
    }

    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.hi - self.lo
    }

    #[inline]
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        (e.x * e.y * e.z).max(0.0)
    }

    /// Grow by `margin` on every side (the ghost-zone operation).
    #[inline]
    pub fn inflated(&self, margin: f64) -> Aabb3 {
        Aabb3 {
            lo: self.lo - Vec3::splat(margin),
            hi: self.hi + Vec3::splat(margin),
        }
    }

    #[inline]
    pub fn intersects(&self, o: &Aabb3) -> bool {
        self.lo.x < o.hi.x
            && o.lo.x < self.hi.x
            && self.lo.y < o.hi.y
            && o.lo.y < self.hi.y
            && self.lo.z < o.hi.z
            && o.lo.z < self.hi.z
    }

    /// The 2D footprint in the x-y plane (line-of-sight projection).
    #[inline]
    pub fn footprint(&self) -> Aabb2 {
        Aabb2 {
            lo: self.lo.xy(),
            hi: self.hi.xy(),
        }
    }
}

impl Aabb2 {
    #[inline]
    pub fn new(lo: Vec2, hi: Vec2) -> Self {
        Aabb2 { lo, hi }
    }

    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.lo.x && p.x < self.hi.x && p.y >= self.lo.y && p.y < self.hi.y
    }

    #[inline]
    pub fn center(&self) -> Vec2 {
        (self.lo + self.hi) * 0.5
    }

    #[inline]
    pub fn extent(&self) -> Vec2 {
        self.hi - self.lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_open_membership() {
        let b = Aabb3::new(Vec3::ZERO, Vec3::splat(1.0));
        assert!(b.contains(Vec3::ZERO));
        assert!(!b.contains(Vec3::splat(1.0)));
        assert!(b.contains_closed(Vec3::splat(1.0)));
    }

    #[test]
    fn cube_centering() {
        let b = Aabb3::cube(Vec3::new(1.0, 2.0, 3.0), 2.0);
        assert_eq!(b.lo, Vec3::new(0.0, 1.0, 2.0));
        assert_eq!(b.hi, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert!((b.volume() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn from_points_bounds_all() {
        let pts = [
            Vec3::new(0.0, 5.0, -1.0),
            Vec3::new(2.0, -3.0, 4.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        let b = Aabb3::from_points(pts).unwrap();
        assert_eq!(b.lo, Vec3::new(0.0, -3.0, -1.0));
        assert_eq!(b.hi, Vec3::new(2.0, 5.0, 4.0));
        assert!(Aabb3::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn inflate_is_ghost_margin() {
        let b = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0)).inflated(0.5);
        assert_eq!(b.lo, Vec3::splat(-0.5));
        assert_eq!(b.hi, Vec3::splat(4.5));
    }

    #[test]
    fn intersection_cases() {
        let a = Aabb3::new(Vec3::ZERO, Vec3::splat(2.0));
        let b = Aabb3::new(Vec3::splat(1.0), Vec3::splat(3.0));
        let c = Aabb3::new(Vec3::splat(5.0), Vec3::splat(6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // Touching boxes do not intersect under the half-open convention.
        let d = Aabb3::new(Vec3::new(2.0, 0.0, 0.0), Vec3::new(4.0, 2.0, 2.0));
        assert!(!a.intersects(&d));
    }

    #[test]
    fn footprint_projects() {
        let b = Aabb3::new(Vec3::new(0.0, 1.0, 2.0), Vec3::new(3.0, 4.0, 5.0));
        let f = b.footprint();
        assert_eq!(f.lo, Vec2::new(0.0, 1.0));
        assert_eq!(f.hi, Vec2::new(3.0, 4.0));
    }
}
