//! Tile identity and the cached per-tile artifact.
//!
//! A tile is one cell of a snapshot's [`Decomposition`]; the cached artifact
//! is the *one* Delaunay mesh of the tile's ghost-padded particle set — laid
//! out as one record per tetrahedron in render order, with the 2-D hull
//! index that locates ray entry points — plus one table per estimator that
//! has been asked for, filled on first use. Building the mesh is the
//! `c·n·log₂n` cost the cache amortises, and it is paid once per tile
//! however many estimators render it; a table is a pass over the mesh (DTFE,
//! PS-DTFE) or `k` jittered triangulations evaluated at its vertices
//! (stochastic); rendering against either is the cheap `α·n^β` tail.
//!
//! Tables appear after the entry is resident, so an entry's size is not
//! fixed: [`TileData::bytes`] is what it holds *now*, and the cache
//! re-charges it after every fill ([`crate::cache::TileCache::fill`]).
//!
//! [`Decomposition`]: dtfe_framework::Decomposition

use crate::registry::SnapshotData;
use crate::server::unpoisoned;
use dtfe_core::{
    surface_density_with_index, DtfeTable, EstimatorKind, Field2, GridSpec2, HullIndex,
    MarchOptions, Mass, PsDtfeTable, RenderMesh, SlotValues, StochasticOptions, StochasticTable,
};
use dtfe_delaunay::DelaunayBuilder;
use dtfe_geometry::{Aabb3, Vec3};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key: a tile of a snapshot. All requests whose field centre falls
/// in the same decomposition cell use one key — one mesh build, one cache
/// entry, one batch queue and, hashed, one ring position — whatever their
/// estimators.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TileKey {
    pub snapshot: String,
    pub tile: usize,
}

impl TileKey {
    pub fn new(snapshot: impl Into<String>, tile: usize) -> TileKey {
        TileKey {
            snapshot: snapshot.into(),
            tile,
        }
    }
}

impl std::fmt::Display for TileKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.snapshot, self.tile)
    }
}

/// The table an estimator reads. PS-DTFE's tables serve both its density
/// and the velocity divergence; stochastic tables are one per realization
/// count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TableKey {
    Dtfe,
    PsDtfe,
    Stochastic(u16),
}

impl TableKey {
    /// The one estimator → table mapping.
    fn of(estimator: EstimatorKind) -> TableKey {
        match estimator {
            EstimatorKind::Dtfe => TableKey::Dtfe,
            EstimatorKind::PsDtfe | EstimatorKind::VelocityDivergence => TableKey::PsDtfe,
            EstimatorKind::Stochastic { realizations } => TableKey::Stochastic(realizations),
        }
    }
}

/// A filled estimator table.
enum Table {
    Dtfe(DtfeTable),
    /// `None` when a tetrahedron was too flat for a velocity gradient:
    /// PS-DTFE renders of this tile are all-zero fields.
    PsDtfe(Option<PsDtfeTable>),
    Stochastic(StochasticTable),
}

impl Table {
    /// What a render under `estimator` marches: `None` renders zeros.
    fn values(&self, estimator: EstimatorKind) -> Option<SlotValues<'_>> {
        match self {
            Table::Dtfe(t) => Some(t.interp().into()),
            Table::Stochastic(t) => Some(t.interp().into()),
            Table::PsDtfe(t) => t.as_ref().map(|t| match estimator {
                EstimatorKind::PsDtfe => t.density().into(),
                _ => t.divergence().into(),
            }),
        }
    }
}

/// One table's cell. It is in the map before it is filled, so concurrent
/// first uses of one table run one fill.
type TableCell = Arc<OnceLock<Table>>;

/// A built tile: the reusable mesh and the estimator tables filled so far.
pub struct TileData {
    /// `None` when the tile's particle set was affinely degenerate (fewer
    /// than 4 non-coplanar points) — such tiles render as all-zero fields,
    /// matching the batch framework's degenerate-item behaviour.
    mesh: Option<(RenderMesh, HullIndex)>,
    /// Which tile of its snapshot this is (seeds the stochastic jitter and
    /// re-extracts the padded set for a table fill).
    tile: usize,
    /// Ghost-padded particle count the tile was built from (prices renders).
    pub n_particles: usize,
    /// How many of `n_particles` are **ghosts** — particles outside the
    /// tile's own decomposition cell, pulled in by the padding margin.
    /// Ghosts are the part of a tile that is *duplicated* when the tile is
    /// replicated across shards (each replica re-materialises the same
    /// padding), so the byte estimate must charge them explicitly or a
    /// cluster's aggregate budget under-counts real memory.
    pub ghost_particles: usize,
    /// The tables filled (or being filled) so far; a handful at most (the
    /// stochastic realization cap is
    /// [`crate::ServiceConfig::MAX_REALIZATIONS`]).
    tables: Mutex<HashMap<TableKey, TableCell>>,
    /// What the entry charges before its mesh and tables: header and ghost
    /// padding for a built tile, the claimed size of a
    /// [`TileData::synthetic`] one.
    base_bytes: AtomicUsize,
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
/// tile build costs tens of milliseconds (~35 ms) while a warm render costs
/// ~3 ms — the cold/warm split the cache exists for stays visible over
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

/// The byte estimate, term by term. Every constant is deliberately above
/// what it stands for — the budget must bound true RSS, so overestimating
/// is the safe direction — and `each_byte_term_bounds_what_it_stands_for`
/// holds each one against the allocations themselves.
mod charge {
    /// The entry header: the struct, its `Arc` and its cache slot.
    pub const HEADER: usize = 64;
    /// Per vertex of the mesh: position and input map (28 B), star volume
    /// (8 B), and the hull index's share.
    pub const MESH_VERTEX: usize = 96;
    /// Per tetrahedron slot of the mesh: its 128 B record and its swap
    /// bit, with headroom for the builder's 32 B slot, which the pass that
    /// writes the records reads beside them.
    pub const MESH_SLOT: usize = 168;
    /// DTFE table, per slot: one interpolant (32 B) and the vertex
    /// densities' share.
    pub const DTFE_SLOT: usize = 48;
    /// PS-DTFE tables, per slot: one density and one divergence (8 B
    /// each).
    pub const PSDTFE_SLOT: usize = 16;
    /// Stochastic table: one interpolant per slot, the realization mean
    /// per vertex.
    pub const STOCHASTIC_SLOT: usize = 48;
    pub const STOCHASTIC_VERTEX: usize = 16;
    /// One ghost particle's duplicated position.
    pub const GHOST_PARTICLE: usize = 24;
}

/// What an entry charges, by the component that holds the bytes;
/// [`TileData::bytes`] is the [`Charge::total`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Charge {
    /// The entry header and its ghost padding ([`TileData::ghost_bytes`]),
    /// or the claimed size of a [`TileData::synthetic`] entry.
    pub header: usize,
    /// The mesh: vertices, star volumes, tetrahedron records, the hull
    /// index and the traversal cache.
    pub mesh: usize,
    /// The DTFE table.
    pub dtfe: usize,
    /// The PS-DTFE tables (density and divergence).
    pub psdtfe: usize,
    /// Every stochastic table, whatever its realization count.
    pub stochastic: usize,
}

impl Charge {
    /// The whole charge: what the cache holds against its budget.
    pub fn total(&self) -> usize {
        self.header + self.mesh + self.dtfe + self.psdtfe + self.stochastic
    }
}

impl std::ops::AddAssign for Charge {
    fn add_assign(&mut self, o: Charge) {
        self.header += o.header;
        self.mesh += o.mesh;
        self.dtfe += o.dtfe;
        self.psdtfe += o.psdtfe;
        self.stochastic += o.stochastic;
    }
}

/// FNV-1a over the snapshot id, mixed with the tile index: a stable
/// stochastic-jitter seed so repeated builds of one tile are bit-identical
/// while distinct tiles decorrelate. (Public, like [`demo_velocities`], so
/// an offline render can reproduce a served stochastic field.)
pub fn tile_seed(snapshot: &str, tile: usize) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in snapshot.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ ((tile as u64).wrapping_mul(0x9E3779B97F4A7C15)) | 1
}

/// The ghost-padded particle set of a tile, in file order, and how many of
/// it lie inside the tile's own (un-inflated) cell; the rest are ghosts
/// shared with neighbouring tiles.
fn extract(snap: &SnapshotData, tile: usize) -> (Vec<Vec3>, usize) {
    let _span = dtfe_telemetry::span!("service.tile_extract", tile = tile);
    let local = snap.tile_particles(tile);
    let cell = snap.decomp.rank_box(tile);
    let interior = local.iter().filter(|&&p| cell.contains_closed(p)).count();
    (local, interior)
}

impl TileData {
    /// Build the tile's mesh from a snapshot's padded particle set. No
    /// estimator table is filled here: [`TileData::fill_table`] does that,
    /// on the first request that needs one.
    ///
    /// The mesh comes from the one [`DelaunayBuilder`] the batch framework's
    /// per-item path uses: given the same particle set, it — and any field
    /// rendered from it — is bit-identical with the offline pipeline.
    pub fn build(snap: &SnapshotData, tile: usize) -> TileData {
        let (local, interior) = extract(snap, tile);
        let _span = dtfe_telemetry::span!("service.tile_build", tile = tile, n = local.len());
        dtfe_telemetry::counter_add!("service.tile_mesh_builds", 1);
        let mesh = DelaunayBuilder::new().build(&local).ok().map(|del| {
            let mesh = RenderMesh::new(del);
            let hull = HullIndex::for_mesh(mesh.delaunay());
            (mesh, hull)
        });
        // Ghost padding is charged explicitly: those particles' positions
        // are re-materialised by every shard holding a replica of this
        // tile, so they are real per-shard memory the budget must see even
        // though they logically "belong" to a neighbouring cell.
        let ghost_particles = local.len() - interior;
        TileData {
            mesh,
            tile,
            ghost_particles,
            ..TileData::synthetic(
                local.len(),
                charge::HEADER + ghost_particles * charge::GHOST_PARTICLE,
            )
        }
    }

    /// A synthetic entry of a given claimed size — cache tests use this to
    /// exercise budget/eviction logic without paying for triangulations.
    pub fn synthetic(n_particles: usize, bytes: usize) -> TileData {
        TileData {
            mesh: None,
            tile: 0,
            n_particles,
            ghost_particles: 0,
            tables: Mutex::default(),
            base_bytes: AtomicUsize::new(bytes),
        }
    }

    /// Grow a [`TileData::synthetic`] entry's claimed size, as a table fill
    /// grows a real one.
    pub fn grow_synthetic(&self, bytes: usize) {
        self.base_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The table map. No fill runs under its lock, so it is never poisoned.
    fn tables(&self) -> std::sync::MutexGuard<'_, HashMap<TableKey, TableCell>> {
        unpoisoned(self.tables.lock())
    }

    /// The cell of `estimator`'s table, added empty if it is new.
    fn cell(&self, estimator: EstimatorKind) -> TableCell {
        self.tables()
            .entry(TableKey::of(estimator))
            .or_default()
            .clone()
    }

    /// Does a render under `estimator` find its table? (A degenerate tile
    /// renders zeros and needs none.)
    pub fn has_table(&self, estimator: EstimatorKind) -> bool {
        self.mesh.is_none() || self.cell(estimator).get().is_some()
    }

    /// Fill `estimator`'s table over the mesh unless it is there; `true`
    /// when this call built it. Concurrent calls for one table run one
    /// fill and the rest wait for it. The padded positions are not kept
    /// with the mesh (its vertices are the merged set, in another order),
    /// so a fill that needs them cuts them from `snap` again.
    pub fn fill_table(&self, snap: &SnapshotData, estimator: EstimatorKind) -> bool {
        let Some((mesh, _)) = &self.mesh else {
            return false;
        };
        let mut built = false;
        let mut building = || {
            built = true;
            dtfe_telemetry::counter_add!("service.tile_table_builds", 1);
            dtfe_telemetry::span!(
                "service.table_build",
                tile = self.tile,
                estimator = estimator.label()
            )
        };
        let mass = Mass::Uniform(1.0);
        self.cell(estimator)
            .get_or_init(|| match TableKey::of(estimator) {
                TableKey::Dtfe => {
                    let _span = building();
                    Table::Dtfe(DtfeTable::build(mesh, self.n_particles, &mass))
                }
                TableKey::PsDtfe => {
                    let (local, _) = extract(snap, self.tile);
                    let _span = building();
                    let vels = demo_velocities(&local, &snap.bounds);
                    Table::PsDtfe(
                        PsDtfeTable::build(mesh.delaunay(), local.len(), &vels, &mass).ok(),
                    )
                }
                TableKey::Stochastic(realizations) => {
                    let (local, _) = extract(snap, self.tile);
                    let _span = building();
                    let opts = StochasticOptions::new()
                        .realizations(realizations.max(1))
                        .seed(tile_seed(&snap.id, self.tile));
                    Table::Stochastic(StochasticTable::build(mesh.delaunay(), &local, &mass, opts))
                }
            });
        built
    }

    /// March the requested grid against the mesh under `opts.estimator`'s
    /// table; the mesh and hull index are shared by every table. `None`
    /// when that table has not been filled.
    pub fn render(&self, grid: &GridSpec2, opts: &MarchOptions) -> Option<Field2> {
        let Some((mesh, hull)) = &self.mesh else {
            return Some(Field2::zeros(*grid));
        };
        let cell = self.cell(opts.estimator);
        Some(match cell.get()?.values(opts.estimator) {
            Some(values) => surface_density_with_index(&mesh.view(values), hull, grid, opts).0,
            None => Field2::zeros(*grid),
        })
    }

    /// The slice of [`TileData::bytes`] attributable to ghost padding —
    /// the bytes a replica on another shard would duplicate.
    pub fn ghost_bytes(&self) -> usize {
        self.ghost_particles * charge::GHOST_PARTICLE
    }

    /// Estimated resident bytes *now*: the mesh (with the traversal cache
    /// its first render builds) plus every table filled so far. This is
    /// what the cache charges against its budget, again after each fill.
    pub fn bytes(&self) -> usize {
        self.charge().total()
    }

    /// [`TileData::bytes`] by component.
    pub fn charge(&self) -> Charge {
        let header = self.base_bytes.load(Ordering::Relaxed);
        let Some((mesh, _)) = &self.mesh else {
            return Charge {
                header,
                ..Charge::default()
            };
        };
        let del = mesh.delaunay();
        let (verts, slots) = (del.num_vertices(), del.num_tets() + del.num_ghosts());
        let mut c = Charge {
            header,
            mesh: verts * charge::MESH_VERTEX + slots * charge::MESH_SLOT,
            ..Charge::default()
        };
        for cell in self.tables().values() {
            match cell.get() {
                Some(Table::Dtfe(_)) => c.dtfe += slots * charge::DTFE_SLOT,
                Some(Table::PsDtfe(Some(_))) => c.psdtfe += slots * charge::PSDTFE_SLOT,
                Some(Table::Stochastic(_)) => {
                    c.stochastic +=
                        slots * charge::STOCHASTIC_SLOT + verts * charge::STOCHASTIC_VERTEX
                }
                Some(Table::PsDtfe(None)) | None => {}
            }
        }
        c
    }
}

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
            ghost_margin: ghost,
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

    const DTFE: EstimatorKind = EstimatorKind::Dtfe;

    #[test]
    fn build_produces_mesh_and_size_estimate() {
        let pts = cloud(400, 42, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let tile = TileData::build(&snap, 0);
        let (mesh, _) = tile.mesh.as_ref().expect("400 random points triangulate");
        let del = mesh.delaunay();
        assert_eq!(tile.n_particles, 400);
        assert!(del.num_tets() > 0);
        // The estimate must at least cover the raw vertex positions.
        assert!(tile.bytes() >= del.num_vertices() * 24);
        // The mesh alone renders nothing; a filled table does, once.
        let grid = GridSpec2::square(dtfe_geometry::Vec2::new(2.0, 2.0), 2.0, 8);
        let opts = MarchOptions::new().parallel(false);
        assert!(!tile.has_table(DTFE) && tile.render(&grid, &opts).is_none());
        assert!(tile.fill_table(&snap, DTFE));
        assert!(!tile.fill_table(&snap, DTFE), "already there");
        assert!(tile.has_table(DTFE));
        assert!(tile.render(&grid, &opts).unwrap().total_mass() > 0.0);
    }

    #[test]
    fn degenerate_tile_builds_as_empty() {
        // All points coplanar: no 3D triangulation exists.
        let pts: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(i as f64 * 0.1, (i % 5) as f64 * 0.2, 1.0))
            .collect();
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(2.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let tile = TileData::build(&snap, 0);
        assert!(tile.mesh.is_none());
        assert_eq!(tile.n_particles, 20);
        // Nothing to fill, all-zero renders, and only the header charged.
        assert!(tile.has_table(DTFE) && !tile.fill_table(&snap, DTFE));
        let grid = GridSpec2::square(dtfe_geometry::Vec2::new(1.0, 1.0), 1.0, 4);
        let zeros = tile.render(&grid, &MarchOptions::new()).unwrap();
        assert!(zeros.data.iter().all(|&v| v == 0.0));
        assert_eq!(tile.bytes(), charge::HEADER);
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
            let built = TileData::build(&snap, tile);
            let cell = snap.decomp.rank_box(tile);
            let interior = pts.iter().filter(|&&p| cell.contains_closed(p)).count();
            let padded = snap.tile_particles(tile).len();
            assert_eq!(built.n_particles, padded);
            assert_eq!(built.ghost_particles, padded - interior);
            assert!(built.ghost_particles > 0, "margin 1.0 must pull ghosts");
            // The estimate includes the explicit ghost charge on top of
            // the mesh estimate (which itself covers all padded vertices).
            assert!(built.bytes() > built.ghost_bytes());
            assert_eq!(built.ghost_bytes(), built.ghost_particles * 24);
        }
    }

    /// The byte estimate is a sum of per-component terms; each is held here
    /// against the allocation it stands for, so a new table (or a fatter
    /// one) cannot under-charge the budget unnoticed.
    #[test]
    fn each_byte_term_bounds_what_it_stands_for() {
        use dtfe_core::density::TetInterp;
        use dtfe_delaunay::Tet;
        use std::mem::size_of;
        let pts = cloud(400, 42, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let tile = TileData::build(&snap, 0);
        let (mesh, _) = tile.mesh.as_ref().unwrap();
        let del = mesh.delaunay();
        let (verts, slots) = (del.num_vertices(), del.num_slots());
        assert_eq!(
            slots,
            del.num_tets() + del.num_ghosts(),
            "render order is dense"
        );

        // Mesh: one record per tetrahedron (the builder's slots are gone
        // once it is written, but the pass holds both), and per vertex a
        // position, an input-map entry and a star volume.
        let records = mesh.view(&[] as &[f64]).cache.bytes();
        assert!(records >= slots * 128, "a record is 128 B a slot");
        assert!(slots * charge::MESH_SLOT >= records + slots * size_of::<Tet>());
        assert!(verts * charge::MESH_VERTEX >= verts * (28 + 8));
        let mesh_only = tile.bytes();
        assert_eq!(
            mesh_only,
            charge::HEADER + verts * charge::MESH_VERTEX + slots * charge::MESH_SLOT
        );

        // Tables, each charged as it appears. An interpolant is four f64
        // (`x₀` is the mesh's); PS-DTFE holds two f64 a slot.
        assert_eq!(size_of::<TetInterp>(), 32);
        let interp = slots * size_of::<TetInterp>();
        tile.fill_table(&snap, DTFE);
        let dtfe = tile.bytes() - mesh_only;
        assert!(
            dtfe >= interp + verts * 8,
            "interpolants and vertex densities"
        );
        assert_eq!(dtfe, slots * charge::DTFE_SLOT);

        tile.fill_table(&snap, EstimatorKind::PsDtfe);
        let psdtfe = tile.bytes() - mesh_only - dtfe;
        assert_eq!(psdtfe, slots * charge::PSDTFE_SLOT);
        assert!(psdtfe >= slots * 2 * size_of::<f64>());
        // The divergence view is the same tables.
        tile.fill_table(&snap, EstimatorKind::VelocityDivergence);
        assert_eq!(tile.bytes(), mesh_only + dtfe + psdtfe);

        // One stochastic table per realization count.
        for (i, k) in [2u16, 3].into_iter().enumerate() {
            tile.fill_table(&snap, EstimatorKind::Stochastic { realizations: k });
            let each = (tile.bytes() - mesh_only - dtfe - psdtfe) / (i + 1);
            assert!(each >= interp + verts * 8);
            assert_eq!(
                each,
                slots * charge::STOCHASTIC_SLOT + verts * charge::STOCHASTIC_VERTEX
            );
        }

        // An entry holding one estimator: 216 B a slot for DTFE, 184 for
        // PS-DTFE.
        assert_eq!(charge::MESH_SLOT + charge::DTFE_SLOT, 216);
        assert_eq!(charge::MESH_SLOT + charge::PSDTFE_SLOT, 184);
        assert_eq!(charge::MESH_SLOT + charge::STOCHASTIC_SLOT, 216);
    }

    #[test]
    fn tile_key_is_snapshot_and_tile() {
        let a = TileKey::new("s", 3);
        assert_eq!(a, TileKey::new("s", 3));
        assert_ne!(a, TileKey::new("s", 4));
        assert_ne!(a, TileKey::new("t", 3));
        assert_eq!(format!("{a}"), "s/3");
    }

    #[test]
    fn one_mesh_renders_density_and_divergence() {
        let pts = cloud(300, 7, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let tile = TileData::build(&snap, 0);
        // Either kind fills the tables both render from.
        assert!(tile.fill_table(&snap, EstimatorKind::VelocityDivergence));
        assert!(!tile.fill_table(&snap, EstimatorKind::PsDtfe));
        let grid = GridSpec2::square(dtfe_geometry::Vec2::new(1.0, 1.0), 2.0, 8);
        let render = |kind| {
            let opts = MarchOptions::new().parallel(false).estimator(kind);
            tile.render(&grid, &opts).expect("table filled")
        };
        let dens = render(EstimatorKind::PsDtfe);
        assert!(dens.total_mass() > 0.0);
        let div = render(EstimatorKind::VelocityDivergence);
        // Divergence integrates signed values; it must differ from density.
        assert!(div.data.iter().all(|v| v.is_finite()));
        assert_ne!(dens.data, div.data);
    }

    #[test]
    fn stochastic_table_fill_is_deterministic_and_per_realization_count() {
        let pts = cloud(200, 11, 4.0);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let snap = snap_from(pts, bounds, 1, 0.5);
        let grid = GridSpec2::square(dtfe_geometry::Vec2::new(2.0, 2.0), 2.0, 8);
        let render = |tile: &TileData, k| {
            let kind = EstimatorKind::Stochastic { realizations: k };
            tile.fill_table(&snap, kind);
            let opts = MarchOptions::new().parallel(false).estimator(kind);
            tile.render(&grid, &opts).expect("table filled").data
        };
        let (t1, t2) = (TileData::build(&snap, 0), TileData::build(&snap, 0));
        assert_eq!(render(&t1, 2), render(&t2, 2));
        // A second count is a second table beside the first.
        assert_ne!(render(&t1, 3), render(&t1, 2));
        assert!(t1.has_table(EstimatorKind::Stochastic { realizations: 2 }));
        assert!(!t2.has_table(EstimatorKind::Stochastic { realizations: 3 }));
    }
}
