//! Tile identity and the cached per-tile artifact.
//!
//! A tile is one cell of a snapshot's [`Decomposition`] *under one
//! estimator backend*; the cached artifact is the estimator's field built
//! over the tile's ghost-padded particle set plus the 2-D hull index used
//! to locate ray entry points. Building it is the `c·n·log₂n` cost the
//! cache amortises; rendering against it is the cheap `α·n^β` tail.
//!
//! The estimator in the key is *normalised* via
//! [`EstimatorKind::tile_kind`]: velocity divergence shares the PS-DTFE
//! tile (same mesh, same gradients — only the interpolant view differs),
//! so both request kinds hit one cache entry.
//!
//! [`Decomposition`]: dtfe_framework::Decomposition

use crate::registry::SnapshotData;
use dtfe_core::{
    surface_density_with_index, DtfeField, EstimatorKind, Field2, FieldEstimator, GridSpec2,
    HullIndex, MarchOptions, Mass, PsDtfeField, StochasticField, StochasticOptions,
};
use dtfe_delaunay::DelaunayBuilder;
use dtfe_geometry::{Aabb3, Vec3};
use std::sync::Arc;

/// Cache key: a tile of a snapshot under a (normalised) estimator. All
/// requests whose field centre falls in the same decomposition cell *and*
/// whose estimators share a tile artifact use one key (and so one build,
/// one cache entry, and one batch queue).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TileKey {
    pub snapshot: String,
    pub tile: usize,
    /// Normalised estimator ([`EstimatorKind::tile_kind`] of the request's
    /// estimator — e.g. `VelocityDivergence` stores as `PsDtfe`).
    pub estimator: EstimatorKind,
}

impl TileKey {
    pub fn new(snapshot: impl Into<String>, tile: usize, estimator: EstimatorKind) -> TileKey {
        TileKey {
            snapshot: snapshot.into(),
            tile,
            estimator: estimator.tile_kind(),
        }
    }
}

impl std::fmt::Display for TileKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.snapshot, self.tile, self.estimator)
    }
}

/// The estimator-specific triangulation artifact a tile caches.
pub enum TileField {
    Dtfe(DtfeField, HullIndex),
    /// Shared by density *and* velocity-divergence requests; the gradients
    /// are in the field, the divergence is a free view over them.
    PsDtfe(PsDtfeField, HullIndex),
    Stochastic(StochasticField, HullIndex),
}

impl TileField {
    /// March the requested grid against this artifact. `opts.estimator`
    /// picks the interpolant table (PS-DTFE density vs divergence); the
    /// mesh, index, and marching cache are shared either way.
    pub fn render(&self, grid: &GridSpec2, opts: &MarchOptions) -> Field2 {
        let divergence;
        let (field, idx): (&dyn FieldEstimator, _) = match self {
            TileField::Dtfe(f, idx) => (f, idx),
            TileField::PsDtfe(f, idx)
                if opts.render.estimator == EstimatorKind::VelocityDivergence =>
            {
                divergence = f.divergence();
                (&divergence, idx)
            }
            TileField::PsDtfe(f, idx) => (f, idx),
            TileField::Stochastic(f, idx) => (f, idx),
        };
        surface_density_with_index(field, idx, grid, opts).0
    }
}

/// A built tile: the reusable triangulation artifact.
pub struct TileData {
    /// `None` when the tile's particle set was affinely degenerate (fewer
    /// than 4 non-coplanar points) or the estimator could not be built on
    /// it — such tiles render as all-zero fields, matching the batch
    /// framework's degenerate-item behaviour.
    pub field: Option<TileField>,
    /// Ghost-padded particle count the tile was built from (prices renders).
    pub n_particles: usize,
    /// How many of `n_particles` are **ghosts** — particles outside the
    /// tile's own decomposition cell, pulled in by the padding margin.
    /// Ghosts are the part of a tile that is *duplicated* when the tile is
    /// replicated across shards (each replica re-materialises the same
    /// padding), so the byte estimate must charge them explicitly or a
    /// cluster's aggregate budget under-counts real memory.
    pub ghost_particles: usize,
    /// Estimated resident bytes, charged against the cache budget.
    pub bytes: usize,
}

/// Deterministic demo velocity field for PS-DTFE serving: snapshots carry
/// positions only, so the service synthesises a smooth periodic flow
/// `v = 0.1·L·sin(2πx/L)` per component over the snapshot bounds. The
/// divergence is analytic and non-trivial, which is exactly what the
/// cross-estimator comparison scenario needs.
pub fn demo_velocities(points: &[Vec3], bounds: &Aabb3) -> Vec<Vec3> {
    let ext = bounds.hi - bounds.lo;
    let l = ext.x.max(ext.y).max(ext.z).max(1e-12);
    let w = std::f64::consts::TAU / l;
    points
        .iter()
        .map(|p| {
            let q = *p - bounds.lo;
            Vec3::new(
                0.1 * l * (w * q.x).sin(),
                0.1 * l * (w * q.y).sin(),
                0.1 * l * (w * q.z).sin(),
            )
        })
        .collect()
}

/// Write the demo snapshot (`demo.snap`, id `demo`) into `dir` unless it
/// exists: a 32³-box clustered particle set, dense enough that a cold
/// tile build costs hundreds of milliseconds while a warm render costs
/// ~10 ms — the cold/warm split the cache exists for stays visible over
/// the wire round-trip floor. `dtfe-served --demo` and `dtfe-clusterd
/// --demo` both call this, so cluster responses are comparable
/// bit-for-bit with a single node's.
pub fn write_demo_snapshot(dir: &std::path::Path) -> std::io::Result<()> {
    let path = dir.join("demo.snap");
    if path.is_file() {
        return Ok(());
    }
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(32.0));
    let spec = dtfe_nbody::halos::ClusteredBoxSpec::new(bounds, 120_000, 24, 1234);
    let (points, _halos) = dtfe_nbody::halos::clustered_box(&spec);
    dtfe_nbody::snapshot::write_snapshot(&path, &[points], bounds)?;
    Ok(())
}

/// FNV-1a over the snapshot id, mixed with the tile index: a stable
/// stochastic-jitter seed so repeated builds of one tile are bit-identical
/// while distinct tiles decorrelate.
fn tile_seed(snapshot: &str, tile: usize) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in snapshot.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ ((tile as u64).wrapping_mul(0x9E3779B97F4A7C15)) | 1
}

impl TileData {
    /// Build the tile artifact from a snapshot's padded particle set.
    ///
    /// The mesh comes from the one [`DelaunayBuilder`] the batch framework's
    /// per-item path uses: given the same particle set, it — and any field
    /// rendered from it — is bit-identical with the offline pipeline.
    ///
    /// The hull index is built from the mesh, not through the field's view:
    /// a view builds the 128 B/slot traversal cache, which is better
    /// allocated by the tile's first render — after the tile cache has
    /// evicted to make room — than here, before it (+11 % `serve_churn`
    /// peak RSS otherwise).
    pub fn build(
        snap: &SnapshotData,
        tile: usize,
        estimator: EstimatorKind,
        ghost_margin: f64,
    ) -> TileData {
        let local = snap.tile_particles(tile, ghost_margin);
        let span = dtfe_telemetry::span!(
            "service.tile_build",
            tile = tile,
            n = local.len(),
            estimator = estimator.label()
        );
        let field = match estimator.tile_kind() {
            EstimatorKind::Dtfe => DelaunayBuilder::new().build(&local).ok().map(|del| {
                let f = DtfeField::from_delaunay_for_inputs(del, local.len(), Mass::Uniform(1.0));
                let idx = HullIndex::for_mesh(f.delaunay());
                TileField::Dtfe(f, idx)
            }),
            EstimatorKind::PsDtfe | EstimatorKind::VelocityDivergence => {
                let vels = demo_velocities(&local, &snap.bounds);
                DelaunayBuilder::new()
                    .build(&local)
                    .ok()
                    .and_then(|del| {
                        PsDtfeField::from_delaunay(del, local.len(), &vels, Mass::Uniform(1.0)).ok()
                    })
                    .map(|f| {
                        let idx = HullIndex::for_mesh(f.delaunay());
                        TileField::PsDtfe(f, idx)
                    })
            }
            EstimatorKind::Stochastic { realizations } => {
                let opts = StochasticOptions::new()
                    .realizations(realizations.max(1))
                    .seed(tile_seed(&snap.id, tile));
                StochasticField::build(&local, Mass::Uniform(1.0), opts)
                    .ok()
                    .map(|f| {
                        let idx = HullIndex::for_mesh(f.delaunay());
                        TileField::Stochastic(f, idx)
                    })
            }
        };
        drop(span);
        // Interior = particles inside the un-inflated cell (which lies
        // inside the padded box `local` was cut from); the rest of the
        // padded set are ghosts shared with neighbouring tiles.
        let cell = snap.decomp.rank_box(tile);
        let interior = local.iter().filter(|&&p| cell.contains_closed(p)).count();
        let mut td = TileData {
            field,
            n_particles: local.len(),
            ghost_particles: local.len().saturating_sub(interior),
            bytes: 0,
        };
        td.bytes = td.estimate_bytes();
        td
    }

    /// A synthetic entry of a given claimed size — cache tests use this to
    /// exercise budget/eviction logic without paying for triangulations.
    pub fn synthetic(n_particles: usize, bytes: usize) -> TileData {
        TileData {
            field: None,
            n_particles,
            ghost_particles: 0,
            bytes,
        }
    }

    /// The slice of [`TileData::bytes`] attributable to ghost padding —
    /// the bytes a replica on another shard would duplicate.
    pub fn ghost_bytes(&self) -> usize {
        self.ghost_particles * GHOST_PARTICLE_BYTES
    }

    fn estimate_bytes(&self) -> usize {
        // Per-vertex: position + density + adjacency bookkeeping; per-tet
        // slot: 4 vertex ids, 4 neighbours, the gradient interpolant
        // (4 f64), geometry scratch, and the marching kernel's lazily-built
        // traversal cache (4 pre-normalized positions + ids + neighbors =
        // 128 B/slot). PS-DTFE additionally stores a 3×3 velocity gradient
        // plus the divergence interpolant per slot; stochastic keeps the
        // per-vertex realization mean. The constants are deliberately
        // generous — the budget must bound true RSS, so overestimating is
        // the safe direction.
        fn mesh_bytes(del: &dtfe_delaunay::Delaunay, per_slot_extra: usize) -> usize {
            let verts = del.num_vertices() * 96;
            let tets = (del.num_tets() + del.num_ghosts()) * (280 + per_slot_extra);
            64 + verts + tets
        }
        let base = match &self.field {
            None => 64,
            Some(TileField::Dtfe(f, _)) => mesh_bytes(f.delaunay(), 0),
            Some(TileField::PsDtfe(f, _)) => mesh_bytes(f.delaunay(), 112),
            Some(TileField::Stochastic(f, _)) => {
                mesh_bytes(f.delaunay(), 0) + f.delaunay().num_vertices() * 16
            }
        };
        // Ghost padding is charged explicitly: those particles' positions
        // are re-materialised by every shard holding a replica of this
        // tile, so they are real per-shard memory the budget must see even
        // though they logically "belong" to a neighbouring cell.
        base + self.ghost_bytes()
    }
}

/// Bytes one ghost particle's duplicated position costs a shard.
const GHOST_PARTICLE_BYTES: usize = 24;

/// Convenience alias used throughout the server.
pub type SharedTile = Arc<TileData>;

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_framework::Decomposition;
    use dtfe_geometry::{Aabb3, Vec3};

    fn snap_from(points: Vec<Vec3>, bounds: Aabb3, tiles: usize, ghost: f64) -> SnapshotData {
        let decomp = Decomposition::new(bounds, tiles);
        let tile_counts = (0..decomp.num_ranks())
            .map(|t| {
                let bx = decomp.rank_box(t).inflated(ghost);
                points.iter().filter(|&&p| bx.contains_closed(p)).count()
            })
            .collect();
        SnapshotData {
            id: "test".into(),
            bounds,
            particles: points,
            decomp,
            tile_counts,
        }
    }

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
    fn build_produces_field_and_size_estimate() {
        let pts = cloud(400, 42, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let tile = TileData::build(&snap, 0, EstimatorKind::Dtfe, 0.5);
        let Some(TileField::Dtfe(field, _)) = &tile.field else {
            panic!("400 random points triangulate");
        };
        assert_eq!(tile.n_particles, 400);
        assert!(field.delaunay().num_tets() > 0);
        // The estimate must at least cover the raw vertex positions.
        assert!(tile.bytes >= field.delaunay().num_vertices() * 24);
    }

    #[test]
    fn degenerate_tile_builds_as_empty() {
        // All points coplanar: no 3D triangulation exists.
        let pts: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(i as f64 * 0.1, (i % 5) as f64 * 0.2, 1.0))
            .collect();
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(2.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let tile = TileData::build(&snap, 0, EstimatorKind::Dtfe, 0.5);
        assert!(tile.field.is_none());
        assert_eq!(tile.n_particles, 20);
        assert!(tile.bytes > 0);
    }

    #[test]
    fn ghost_padding_is_counted_and_charged() {
        // Two tiles with a fat ghost margin: each tile's padded set pulls
        // particles from the other's cell, and those ghosts must be both
        // counted and charged in the byte estimate.
        let pts = cloud(500, 99, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let ghost = 1.0;
        let snap = snap_from(pts.clone(), bounds, 2, ghost);
        for tile in 0..snap.decomp.num_ranks() {
            let built = TileData::build(&snap, tile, EstimatorKind::Dtfe, ghost);
            let cell = snap.decomp.rank_box(tile);
            let interior = pts.iter().filter(|&&p| cell.contains_closed(p)).count();
            let padded = snap.tile_particles(tile, ghost).len();
            assert_eq!(built.n_particles, padded);
            assert_eq!(built.ghost_particles, padded - interior);
            assert!(built.ghost_particles > 0, "margin 1.0 must pull ghosts");
            // The estimate includes the explicit ghost charge on top of
            // the mesh estimate (which itself covers all padded vertices).
            assert!(built.bytes > built.ghost_bytes());
            assert_eq!(built.ghost_bytes(), built.ghost_particles * 24);
        }
    }

    #[test]
    fn tile_bytes_charge_only_resident_state() {
        let pts = cloud(400, 42, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let tile = TileData::build(&snap, 0, EstimatorKind::Dtfe, 0.5);
        assert!(tile.field.is_some());
        // A render allocates nothing per row, so the charge is the mesh
        // estimate plus ghosts: well under 1 MiB at 400 particles.
        assert!(tile.bytes < 1 << 20, "charged {} B", tile.bytes);
        // A tile with no field holds only its header.
        assert_eq!(TileData::synthetic(0, 0).estimate_bytes(), 64);
    }

    #[test]
    fn tile_key_normalises_divergence_to_psdtfe() {
        let a = TileKey::new("s", 3, EstimatorKind::VelocityDivergence);
        let b = TileKey::new("s", 3, EstimatorKind::PsDtfe);
        assert_eq!(a, b);
        assert_ne!(a, TileKey::new("s", 3, EstimatorKind::Dtfe));
        assert_eq!(format!("{a}"), "s/3/psdtfe");
    }

    #[test]
    fn psdtfe_tile_renders_density_and_divergence() {
        let pts = cloud(300, 7, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let tile = TileData::build(&snap, 0, EstimatorKind::PsDtfe, 0.5);
        let tf = tile.field.as_ref().expect("psdtfe build");
        let grid = GridSpec2::square(dtfe_geometry::Vec2::new(1.0, 1.0), 2.0, 8);
        let dens = tf.render(
            &grid,
            &MarchOptions::new()
                .parallel(false)
                .estimator(EstimatorKind::PsDtfe),
        );
        assert!(dens.total_mass() > 0.0);
        let div = tf.render(
            &grid,
            &MarchOptions::new()
                .parallel(false)
                .estimator(EstimatorKind::VelocityDivergence),
        );
        // Divergence integrates signed values; it must differ from density.
        assert!(div.data.iter().all(|v| v.is_finite()));
        assert_ne!(dens.data, div.data);
    }

    #[test]
    fn stochastic_tile_build_is_deterministic() {
        let pts = cloud(200, 11, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let kind = EstimatorKind::Stochastic { realizations: 2 };
        let t1 = TileData::build(&snap, 0, kind, 0.5);
        let t2 = TileData::build(&snap, 0, kind, 0.5);
        let (Some(TileField::Stochastic(f1, _)), Some(TileField::Stochastic(f2, _))) =
            (&t1.field, &t2.field)
        else {
            panic!("stochastic builds");
        };
        assert_eq!(f1.vertex_densities(), f2.vertex_densities());
    }
}
