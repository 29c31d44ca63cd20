//! Morton-order (Z-curve) spatial sort for insertion locality.
//!
//! Inserting points in a space-filling-curve order is the standard BRIO
//! trick: consecutive points are spatially close, so the remembering walk
//! from the previous insertion's tetrahedron is O(1) on average instead of
//! O(n^(1/3)).
//!
//! The *canonical* insertion order used by [`crate::DelaunayBuilder`]
//! ([`stratified_order`]) additionally interleaves [`STREAMS`] contiguous
//! chunks of the Morton sequence round-robin. Order-consecutive points are
//! then spread across distant regions of the curve — which is what lets the
//! parallel rounds in `parallel.rs` accept many spatially independent
//! insertions per round — while each *stream* stays Morton-contiguous, so
//! walks seeded from a per-stream hint remain short.

use dtfe_geometry::{Aabb3, Vec3};

/// Number of interleaved Morton streams in [`stratified_order`].
///
/// Part of the canonical order definition: changing it changes which
/// triangulation degenerate (e.g. cospherical) inputs resolve to, so it is a
/// fixed constant, never derived from the thread count or input size.
pub(crate) const STREAMS: usize = 64;

/// Interleave the low 21 bits of three coordinates into a 63-bit Morton key.
#[inline]
fn morton3(x: u32, y: u32, z: u32) -> u64 {
    #[inline]
    fn spread(v: u32) -> u64 {
        let mut v = (v as u64) & 0x1F_FFFF; // 21 bits
        v = (v | (v << 32)) & 0x1F00000000FFFF;
        v = (v | (v << 16)) & 0x1F0000FF0000FF;
        v = (v | (v << 8)) & 0x100F00F00F00F00F;
        v = (v | (v << 4)) & 0x10C30C30C30C30C3;
        v = (v | (v << 2)) & 0x1249249249249249;
        v
    }
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

/// Indices of `points` sorted by Morton key within their bounding box.
pub fn morton_order(points: &[Vec3]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..points.len() as u32).collect();
    let Some(bbox) = Aabb3::from_points(points.iter().copied()) else {
        return order;
    };
    let ext = bbox.extent();
    let scale = |e: f64| {
        if e > 0.0 {
            ((1u32 << 21) - 1) as f64 / e
        } else {
            0.0
        }
    };
    let (sx, sy, sz) = (scale(ext.x), scale(ext.y), scale(ext.z));
    let key = |p: Vec3| {
        morton3(
            ((p.x - bbox.lo.x) * sx) as u32,
            ((p.y - bbox.lo.y) * sy) as u32,
            ((p.z - bbox.lo.z) * sz) as u32,
        )
    };
    order.sort_by_key(|&i| key(points[i as usize]));
    order
}

/// The canonical spatially-sorted insertion order: Morton order, split into
/// [`STREAMS`] contiguous chunks (sizes differing by at most one), emitted
/// round-robin. Every construction path — serial and parallel — inserts
/// in exactly this order, which is what makes their outputs identical even
/// on inputs whose Delaunay triangulation is not unique.
pub fn stratified_order(points: &[Vec3]) -> Vec<u32> {
    interleave(&morton_order(points), STREAMS)
}

/// Round-robin interleave of `streams` contiguous chunks of `order`.
fn interleave(order: &[u32], streams: usize) -> Vec<u32> {
    let n = order.len();
    if n <= streams {
        return order.to_vec();
    }
    let (base, rem) = (n / streams, n % streams);
    // Chunk `c` starts at `c*base + min(c, rem)`: the first `rem` chunks
    // hold one extra element.
    let start = |c: usize| c * base + c.min(rem);
    let mut out = Vec::with_capacity(n);
    for row in 0..base + (rem > 0) as usize {
        for c in 0..streams {
            let i = start(c) + row;
            if i < start(c + 1) {
                out.push(order[i]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_permutation() {
        let pts: Vec<Vec3> = (0..100)
            .map(|i| {
                let f = i as f64;
                Vec3::new(
                    (f * 0.37).fract() * 8.0,
                    (f * 0.71).fract() * 8.0,
                    (f * 0.13).fract() * 8.0,
                )
            })
            .collect();
        let mut order = morton_order(&pts);
        order.sort_unstable();
        assert_eq!(order, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn nearby_points_nearby_in_order() {
        // Two clusters far apart: the order must not interleave them.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Vec3::new(i as f64 * 1e-3, 0.0, 0.0));
        }
        for i in 0..10 {
            pts.push(Vec3::new(1000.0 + i as f64 * 1e-3, 0.0, 0.0));
        }
        let order = morton_order(&pts);
        let first_cluster: Vec<bool> = order.iter().map(|&i| i < 10).collect();
        let transitions = first_cluster.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 1, "clusters interleaved: {order:?}");
    }

    #[test]
    fn empty_and_singleton() {
        assert!(morton_order(&[]).is_empty());
        assert_eq!(morton_order(&[Vec3::ZERO]), vec![0]);
    }

    #[test]
    fn stratified_is_permutation() {
        for n in [0usize, 1, 5, STREAMS - 1, STREAMS, STREAMS + 1, 1000, 1037] {
            let pts: Vec<Vec3> = (0..n)
                .map(|i| {
                    let f = i as f64;
                    Vec3::new(
                        (f * 0.37).fract() * 8.0,
                        (f * 0.71).fract() * 8.0,
                        (f * 0.13).fract() * 8.0,
                    )
                })
                .collect();
            let mut order = stratified_order(&pts);
            order.sort_unstable();
            assert_eq!(order, (0..n as u32).collect::<Vec<u32>>(), "n={n}");
        }
    }

    #[test]
    fn stratified_round_robins_the_chunks() {
        // 2·STREAMS points on a line: Morton order is coordinate order, so
        // chunk c is {2c, 2c+1} and the interleave must emit all chunk heads
        // before any chunk tails.
        let pts: Vec<Vec3> = (0..2 * STREAMS)
            .map(|i| Vec3::new(i as f64, 0.0, 0.0))
            .collect();
        let order = stratified_order(&pts);
        let heads: Vec<u32> = order[..STREAMS].to_vec();
        let tails: Vec<u32> = order[STREAMS..].to_vec();
        assert!(heads.iter().all(|&i| i % 2 == 0), "{heads:?}");
        assert!(tails.iter().all(|&i| i % 2 == 1), "{tails:?}");
    }

    #[test]
    fn morton_key_monotone_per_axis() {
        assert!(morton3(0, 0, 0) < morton3(1, 0, 0));
        assert!(morton3(0, 0, 0) < morton3(0, 1, 0));
        assert!(morton3(0, 0, 0) < morton3(0, 0, 1));
        assert!(morton3(1, 1, 1) < morton3(2, 2, 2));
    }
}
