//! The canonical insertion order: a biased randomized insertion order
//! (BRIO) whose rounds are Morton (Z-curve) sorted.
//!
//! Every point is assigned a *level* by a hash of its coordinate bits: level
//! `k` or coarser with probability `8^-k`. Levels are inserted coarsest
//! first, so each round roughly octuples the mesh and the points already in
//! it are a uniform sample of the whole cloud; inside a round the points go
//! in Morton order, so consecutive insertions are spatial neighbours and the
//! remembering walk from the previous insertion's tetrahedron is O(1) on
//! average instead of O(n^(1/3)).
//!
//! The order is a pure function of the point *set*: the level comes from the
//! coordinates, never from the input index, and Morton ties are broken by
//! the coordinates themselves. Two callers holding the same particles in a
//! different sequence (two ranks of the batch framework, a served tile and
//! its offline reference) therefore insert the same coordinates in the same
//! sequence and get the same mesh — also on inputs whose Delaunay
//! triangulation is not unique.

use dtfe_geometry::{Aabb3, Vec3};
use std::cmp::Ordering;

/// Morton resolution per axis; three axes leave the top four key bits for
/// the BRIO round.
const AXIS_BITS: u32 = 20;
/// Coarsest level a point can be hashed to (`8^15` exceeds any `u32`-indexed
/// input, so the cap is never what empties a level).
const MAX_LEVEL: u32 = 15;

/// Interleave the low [`AXIS_BITS`] bits of three coordinates into a 60-bit
/// Morton key.
#[inline]
fn morton3(x: u32, y: u32, z: u32) -> u64 {
    #[inline]
    fn spread(v: u32) -> u64 {
        let mut v = (v as u64) & ((1 << AXIS_BITS) - 1);
        v = (v | (v << 32)) & 0x1F00000000FFFF;
        v = (v | (v << 16)) & 0x1F0000FF0000FF;
        v = (v | (v << 8)) & 0x100F00F00F00F00F;
        v = (v | (v << 4)) & 0x10C30C30C30C30C3;
        v = (v | (v << 2)) & 0x1249249249249249;
        v
    }
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

/// BRIO level of a point: `k` with probability `7/8 · 8^-k`, from a
/// splitmix64 mix of the coordinate bits (`-0.0` hashes as `0.0`, so points
/// that compare equal share a level).
#[inline]
fn level(p: Vec3) -> u32 {
    #[inline]
    fn mix(mut h: u64) -> u64 {
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D049BB133111EB);
        h ^ (h >> 31)
    }
    let bits = |c: f64| (c + 0.0).to_bits();
    let h = mix(mix(mix(bits(p.x)) ^ bits(p.y)) ^ bits(p.z));
    (h.trailing_zeros() / 3).min(MAX_LEVEL)
}

/// Indices of `points` in canonical insertion order: by BRIO round (coarsest
/// level first), then by Morton key within the cloud's bounding box, then by
/// coordinates.
pub(crate) fn brio_order(points: &[Vec3]) -> Vec<u32> {
    let Some(bbox) = Aabb3::from_points(points.iter().copied()) else {
        return Vec::new();
    };
    let ext = bbox.extent();
    let scale = |e: f64| {
        if e > 0.0 {
            ((1u32 << AXIS_BITS) - 1) as f64 / e
        } else {
            0.0
        }
    };
    let (sx, sy, sz) = (scale(ext.x), scale(ext.y), scale(ext.z));
    let mut keyed: Vec<(u64, u32)> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let cell = morton3(
                ((p.x - bbox.lo.x) * sx) as u32,
                ((p.y - bbox.lo.y) * sy) as u32,
                ((p.z - bbox.lo.z) * sz) as u32,
            );
            let round = (MAX_LEVEL - level(p)) as u64;
            ((round << (3 * AXIS_BITS)) | cell, i as u32)
        })
        .collect();
    // Points sharing a round and a Morton cell are ordered by their
    // coordinates, not by input position; exact duplicates are
    // interchangeable.
    let by_coords = |a: u32, b: u32| -> Ordering {
        let (p, q) = (points[a as usize], points[b as usize]);
        p.x.total_cmp(&q.x)
            .then(p.y.total_cmp(&q.y))
            .then(p.z.total_cmp(&q.z))
    };
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| by_coords(a.1, b.1)));
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize) -> Vec<Vec3> {
        let mut s = 0x0DD5EED_u64;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Vec3::new(8.0 * r(), 8.0 * r(), 8.0 * r()))
            .collect()
    }

    #[test]
    fn order_is_permutation() {
        for n in [0usize, 1, 5, 100, 1037] {
            let mut order = brio_order(&cloud(n));
            order.sort_unstable();
            assert_eq!(order, (0..n as u32).collect::<Vec<u32>>(), "n={n}");
        }
    }

    #[test]
    fn order_depends_on_the_set_not_the_sequence() {
        // Same points (with duplicates and a shared Morton cell) presented
        // reversed: the coordinate sequence inserted must be identical.
        let mut pts = cloud(500);
        pts.extend_from_slice(&cloud(40));
        pts.push(pts[7] + Vec3::new(1e-13, 0.0, 0.0));
        let coords = |pts: &[Vec3]| -> Vec<[u64; 3]> {
            brio_order(pts)
                .iter()
                .map(|&i| {
                    let p = pts[i as usize];
                    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
                })
                .collect()
        };
        let forward = coords(&pts);
        pts.reverse();
        assert_eq!(forward, coords(&pts));
    }

    #[test]
    fn rounds_grow_eightfold_and_are_morton_sorted() {
        let pts = cloud(40_000);
        let order = brio_order(&pts);
        let levels: Vec<u32> = order.iter().map(|&i| level(pts[i as usize])).collect();
        assert!(levels.windows(2).all(|w| w[0] >= w[1]), "coarsest first");
        let last = levels.iter().filter(|&&l| l == 0).count() as f64;
        let frac = last / pts.len() as f64;
        assert!((frac - 0.875).abs() < 0.01, "final round holds {frac}");
        let coarser = levels.iter().filter(|&&l| l >= 2).count() as f64;
        let frac = coarser / pts.len() as f64;
        assert!((frac - 1.0 / 64.0).abs() < 0.005, "levels >= 2 hold {frac}");
    }

    #[test]
    fn nearby_points_nearby_within_a_round() {
        // Two clusters far apart: inside any one round the order must not
        // interleave them.
        let mut pts = Vec::new();
        for i in 0..200 {
            pts.push(Vec3::new(i as f64 * 1e-3, 0.0, 0.0));
        }
        for i in 0..200 {
            pts.push(Vec3::new(1000.0 + i as f64 * 1e-3, 0.0, 0.0));
        }
        let order = brio_order(&pts);
        let rounds = order.chunk_by(|&a, &b| level(pts[a as usize]) == level(pts[b as usize]));
        for round in rounds {
            let transitions = round
                .windows(2)
                .filter(|w| (w[0] < 200) != (w[1] < 200))
                .count();
            assert!(transitions <= 1, "clusters interleaved: {round:?}");
        }
    }

    #[test]
    fn morton_key_monotone_per_axis() {
        assert!(morton3(0, 0, 0) < morton3(1, 0, 0));
        assert!(morton3(0, 0, 0) < morton3(0, 1, 0));
        assert!(morton3(0, 0, 0) < morton3(0, 0, 1));
        assert!(morton3(1, 1, 1) < morton3(2, 2, 2));
        let top = (1 << AXIS_BITS) - 1;
        assert!(morton3(top, top, top) < 1 << (3 * AXIS_BITS));
    }
}
