//! Friends-of-friends (FOF) halo finding.
//!
//! The MiraU experiment centres its 233,230 fields on "the most massive
//! objects found by a density based clustering algorithm" (paper §V-3). FOF
//! with a linking length `b` is the standard such algorithm in cosmology:
//! particles closer than `b` are linked, and connected components are the
//! halos. Implemented with a union-find over a uniform cell grid whose
//! cells are at least `b` on a side (so only the 27 neighbouring cells can
//! contain links), and at most about `n^(1/3)` per axis (so a tiny `b`
//! cannot ask for more cells than there is memory).

use dtfe_geometry::{Aabb3, Vec3};

/// A FOF group (halo) in descending-mass order.
#[derive(Clone, Debug)]
pub struct FofGroup {
    /// Particle indices (input order) belonging to the group.
    pub members: Vec<u32>,
    /// Centre of mass.
    pub center: Vec3,
}

impl FofGroup {
    pub fn mass(&self) -> usize {
        self.members.len()
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        // Path halving.
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Union by id (deterministic).
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Find all FOF groups with at least `min_members` particles, sorted by
/// descending mass (ties by lowest member index, for determinism).
pub fn fof_groups(points: &[Vec3], linking_length: f64, min_members: usize) -> Vec<FofGroup> {
    assert!(linking_length > 0.0);
    if points.is_empty() {
        return Vec::new();
    }
    let bounds = Aabb3::from_points(points.iter().copied()).unwrap();
    let ext = bounds.extent();
    let ext = [ext.x, ext.y, ext.z];
    let b = linking_length;
    // `ext / b + 1` cells of side `b` per axis, capped; a capped axis has
    // cells wider than `b`, which keeps the ±1-cell stencil exact.
    let max_dim = (points.len() as f64).cbrt().ceil();
    let dims = ext.map(|e| ((e / b).floor() + 1.0).min(max_dim) as usize);
    let side: [f64; 3] = std::array::from_fn(|a| (ext[a] / dims[a] as f64).max(b));
    let cell_of = |p: Vec3| -> [usize; 3] {
        [
            (((p.x - bounds.lo.x) / side[0]) as usize).min(dims[0] - 1),
            (((p.y - bounds.lo.y) / side[1]) as usize).min(dims[1] - 1),
            (((p.z - bounds.lo.z) / side[2]) as usize).min(dims[2] - 1),
        ]
    };
    let flat = |c: [usize; 3]| (c[2] * dims[1] + c[1]) * dims[0] + c[0];

    // CSR bin structure.
    let nbins = dims[0] * dims[1] * dims[2];
    let mut count = vec![0u32; nbins + 1];
    for &p in points {
        count[flat(cell_of(p)) + 1] += 1;
    }
    for i in 1..count.len() {
        count[i] += count[i - 1];
    }
    let off = count.clone();
    let mut cursor = count;
    let mut items = vec![0u32; points.len()];
    for (pi, &p) in points.iter().enumerate() {
        let bin = flat(cell_of(p));
        items[cursor[bin] as usize] = pi as u32;
        cursor[bin] += 1;
    }

    let b2 = b * b;
    let mut uf = UnionFind::new(points.len());
    for (pi, &p) in points.iter().enumerate() {
        let c = cell_of(p);
        // Half the neighbourhood suffices (each pair is examined once):
        // same cell with higher index, plus 13 of the 26 neighbours.
        for (di, dj, dk) in NEIGHBOR_HALF {
            let (i, j, k) = (c[0] as isize + di, c[1] as isize + dj, c[2] as isize + dk);
            if i < 0
                || j < 0
                || k < 0
                || i >= dims[0] as isize
                || j >= dims[1] as isize
                || k >= dims[2] as isize
            {
                continue;
            }
            let bin = flat([i as usize, j as usize, k as usize]);
            for &qi in &items[off[bin] as usize..off[bin + 1] as usize] {
                if (di, dj, dk) == (0, 0, 0) && qi as usize <= pi {
                    continue;
                }
                if points[qi as usize].distance_sq(p) <= b2 {
                    uf.union(pi as u32, qi);
                }
            }
        }
    }

    // Gather groups.
    let mut members: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for pi in 0..points.len() as u32 {
        members.entry(uf.find(pi)).or_default().push(pi);
    }
    let mut groups: Vec<FofGroup> = members
        .into_values()
        .filter(|m| m.len() >= min_members)
        .map(|m| {
            let mut c = Vec3::ZERO;
            for &i in &m {
                c += points[i as usize];
            }
            c = c / m.len() as f64;
            FofGroup {
                members: m,
                center: c,
            }
        })
        .collect();
    groups.sort_by(|a, b| {
        b.members
            .len()
            .cmp(&a.members.len())
            .then(a.members[0].cmp(&b.members[0]))
    });
    groups
}

/// The 14 cell offsets covering each unordered cell pair exactly once.
const NEIGHBOR_HALF: [(isize, isize, isize); 14] = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 1, 0),
    (0, 1, 0),
    (1, 1, 0),
    (-1, -1, 1),
    (0, -1, 1),
    (1, -1, 1),
    (-1, 0, 1),
    (0, 0, 1),
    (1, 0, 1),
    (-1, 1, 1),
    (0, 1, 1),
    (1, 1, 1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Sampler;

    #[test]
    fn planted_clusters_recovered() {
        let mut s = Sampler::new(9);
        let centers = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::new(0.0, 10.0, 0.0),
        ];
        let sizes = [300usize, 200, 100];
        let mut pts = Vec::new();
        for (c, &n) in centers.iter().zip(&sizes) {
            for _ in 0..n {
                let d = s.direction();
                pts.push(*c + Vec3::new(d[0], d[1], d[2]) * (s.unit() * 0.5));
            }
        }
        let groups = fof_groups(&pts, 0.3, 10);
        assert_eq!(
            groups.len(),
            3,
            "groups: {:?}",
            groups.iter().map(|g| g.mass()).collect::<Vec<_>>()
        );
        assert_eq!(groups[0].mass(), 300);
        assert_eq!(groups[1].mass(), 200);
        assert_eq!(groups[2].mass(), 100);
        // Centres recovered.
        assert!(groups[0].center.distance(centers[0]) < 0.2);
        assert!(groups[1].center.distance(centers[1]) < 0.2);
    }

    #[test]
    fn chain_links_transitively() {
        // A chain of points each 0.9·b apart forms one group.
        let pts: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(i as f64 * 0.9, 0.0, 0.0))
            .collect();
        let groups = fof_groups(&pts, 1.0, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].mass(), 20);
        // Spacing beyond b: all singletons, filtered by min_members.
        let groups = fof_groups(&pts, 0.5, 2);
        assert!(groups.is_empty());
    }

    #[test]
    fn min_members_filters() {
        let mut pts = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.1, 0.0, 0.0),
            Vec3::new(0.0, 0.1, 0.0),
        ];
        pts.push(Vec3::new(5.0, 5.0, 5.0)); // isolated
        let groups = fof_groups(&pts, 0.3, 3);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].mass(), 3);
    }

    #[test]
    fn linking_exact_boundary() {
        // Distance exactly b links (<=).
        let pts = vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        assert_eq!(fof_groups(&pts, 1.0, 2).len(), 1);
        let pts = vec![Vec3::ZERO, Vec3::new(1.0 + 1e-9, 0.0, 0.0)];
        assert_eq!(fof_groups(&pts, 1.0, 2).len(), 0);
    }

    #[test]
    fn empty_and_uniform_inputs() {
        assert!(fof_groups(&[], 1.0, 2).is_empty());
        let mut s = Sampler::new(12);
        let pts: Vec<Vec3> = (0..500)
            .map(|_| Vec3::new(s.unit() * 50.0, s.unit() * 50.0, s.unit() * 50.0))
            .collect();
        // Sparse uniform points with a short link: essentially no big groups.
        let groups = fof_groups(&pts, 0.5, 5);
        assert!(groups.len() < 5);
    }

    /// Every pair within `b` linked by brute force, grouped and ordered as
    /// [`fof_groups`] orders its groups.
    fn brute_force_members(points: &[Vec3], b: f64, min_members: usize) -> Vec<Vec<u32>> {
        let mut uf = UnionFind::new(points.len());
        for (i, &p) in points.iter().enumerate() {
            for (j, &q) in points.iter().enumerate().skip(i + 1) {
                if p.distance_sq(q) <= b * b {
                    uf.union(i as u32, j as u32);
                }
            }
        }
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); points.len()];
        for i in 0..points.len() as u32 {
            groups[uf.find(i) as usize].push(i);
        }
        groups.retain(|m| !m.is_empty() && m.len() >= min_members);
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        groups
    }

    #[test]
    fn tiny_links_and_duplicates_equal_brute_force() {
        // A link far below the spacing asks for ~1e9 cells per axis; the
        // grid must stay small and still link exactly the duplicates.
        let mut s = Sampler::new(5);
        let mut pts: Vec<Vec3> = (0..300)
            .map(|_| Vec3::new(s.unit() * 4.0, s.unit() * 4.0, s.unit() * 4.0))
            .collect();
        for i in (0..300).step_by(3) {
            pts.push(pts[i]);
        }
        pts.push(pts[0]);
        for b in [1e-9, 0.05, 0.3] {
            let got: Vec<Vec<u32>> = fof_groups(&pts, b, 2)
                .into_iter()
                .map(|g| g.members)
                .collect();
            assert_eq!(got, brute_force_members(&pts, b, 2), "b = {b}");
        }
        let duplicates = fof_groups(&pts, 1e-9, 2);
        assert_eq!(duplicates.len(), 100);
        assert_eq!(duplicates[0].members, vec![0, 300, 400]);
    }

    #[test]
    fn deterministic_ordering() {
        let mut s = Sampler::new(31);
        let pts: Vec<Vec3> = (0..2000)
            .map(|_| Vec3::new(s.unit() * 5.0, s.unit() * 5.0, s.unit() * 5.0))
            .collect();
        let a = fof_groups(&pts, 0.2, 3);
        let b = fof_groups(&pts, 0.2, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.members, y.members);
        }
    }
}
