//! Phase 1: spatial redistribution and ghost exchange (paper §IV-B). The
//! parallel read that feeds it is
//! [`run_distributed_snapshot`](crate::runner::run_distributed_snapshot)'s.

use crate::decomp::Decomposition;
use dtfe_geometry::Vec3;
use dtfe_simcluster::Comm;

/// A rank's particle holdings after ingest.
#[derive(Clone, Debug)]
pub struct RankParticles {
    /// Particles inside the rank's own sub-volume.
    pub owned: Vec<Vec3>,
    /// Replicated particles within the ghost margin of the boundary.
    pub ghosts: Vec<Vec3>,
}

impl RankParticles {
    /// Owned and ghost particles concatenated (what work items triangulate
    /// from).
    pub fn all(&self) -> Vec<Vec3> {
        let mut v = Vec::with_capacity(self.owned.len() + self.ghosts.len());
        v.extend_from_slice(&self.owned);
        v.extend_from_slice(&self.ghosts);
        v
    }
}

/// Redistribute an arbitrary local block of particles to their spatial
/// owners, then exchange ghosts within `margin` of each boundary
/// ("neighbor-to-neighbor exchange to fill the ghost zones").
pub fn redistribute(
    comm: &mut Comm,
    my_block: Vec<Vec3>,
    decomp: &Decomposition,
    margin: f64,
) -> RankParticles {
    let size = comm.size();
    assert_eq!(decomp.num_ranks(), size, "decomposition/ranks mismatch");

    // Spatial redistribution.
    let mut buckets: Vec<Vec<Vec3>> = vec![Vec::new(); size];
    for p in my_block {
        buckets[decomp.rank_of(p)].push(p);
    }
    let owned: Vec<Vec3> = comm.alltoallv(buckets).into_iter().flatten().collect();

    // Ghost exchange: owned particles within `margin` of another rank's box
    // are replicated there.
    let me = comm.rank();
    let mut ghost_buckets: Vec<Vec<Vec3>> = vec![Vec::new(); size];
    for &p in &owned {
        for r in decomp.ranks_within(p, margin) {
            if r != me {
                ghost_buckets[r].push(p);
            }
        }
    }
    let ghosts: Vec<Vec3> = comm
        .alltoallv(ghost_buckets)
        .into_iter()
        .flatten()
        .collect();
    RankParticles { owned, ghosts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_geometry::Aabb3;
    use dtfe_simcluster::run;

    fn cloud(n: usize, seed: u64, side: f64) -> Vec<Vec3> {
        let mut s = seed;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Vec3::new(r() * side, r() * side, r() * side))
            .collect()
    }

    #[test]
    fn redistribution_partitions_particles() {
        let pts = cloud(4000, 5, 8.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(8.0));
        let nranks = 8;
        let decomp = Decomposition::new(bounds, nranks);
        let d2 = decomp.clone();
        let pts2 = pts.clone();
        let results = run(nranks, move |mut comm| {
            // Arbitrary initial assignment: round-robin slices.
            let mine: Vec<Vec3> = pts2
                .iter()
                .skip(comm.rank())
                .step_by(comm.size())
                .copied()
                .collect();
            let rp = redistribute(&mut comm, mine, &d2, 0.5);
            (comm.rank(), rp)
        });
        // Every particle owned exactly once, by its spatial owner.
        let total: usize = results.iter().map(|(_, rp)| rp.owned.len()).sum();
        assert_eq!(total, pts.len());
        for (rank, rp) in &results {
            let bx = decomp.rank_box(*rank);
            for p in &rp.owned {
                assert!(bx.contains_closed(*p), "rank {rank} owns stray {p:?}");
            }
            // Ghosts: inside the inflated box but not the box.
            let inflated = bx.inflated(0.5);
            for g in &rp.ghosts {
                assert!(inflated.contains_closed(*g));
                assert!(
                    !bx.contains(*g),
                    "ghost {g:?} inside own box of rank {rank}"
                );
            }
        }
    }

    #[test]
    fn ghosts_cover_margin_completely() {
        // Every particle within `margin` of a rank's box must appear in that
        // rank's owned+ghost set.
        let pts = cloud(2000, 9, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let nranks = 8;
        let margin = 0.6;
        let decomp = Decomposition::new(bounds, nranks);
        let d2 = decomp.clone();
        let pts2 = pts.clone();
        let results = run(nranks, move |mut comm| {
            let mine: Vec<Vec3> = pts2
                .iter()
                .skip(comm.rank())
                .step_by(comm.size())
                .copied()
                .collect();
            redistribute(&mut comm, mine, &d2, margin)
        });
        for (rank, rp) in results.iter().enumerate() {
            let inflated = decomp.rank_box(rank).inflated(margin);
            let expect = pts.iter().filter(|p| inflated.contains_closed(**p)).count();
            assert_eq!(
                rp.owned.len() + rp.ghosts.len(),
                expect,
                "rank {rank} coverage mismatch"
            );
        }
    }
}
