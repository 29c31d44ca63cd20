//! The snapshot registry: id → verified, memory-resident particle set.
//!
//! Snapshots are the service's datasets. An id maps to `<id>.snap` under
//! the registry directory; the first request for an id loads the file
//! through [`dtfe_nbody::snapshot::read_all`] — which verifies the FNV-1a
//! content checksum, so truncated or bit-flipped uploads surface as a
//! typed [`ServiceError::CorruptSnapshot`] instead of garbage fields — and
//! caches the particles plus the tile decomposition. Loads are
//! single-flight: concurrent first requests trigger one read.
//!
//! Like tile builds, snapshot loads carry a failure quarantine: a file
//! that keeps failing verification (corrupt upload, torn write) is
//! refused with a typed [`ServiceError::Quarantined`] for an
//! exponentially growing window instead of being re-read and re-hashed on
//! every request. A missing file ([`ServiceError::UnknownSnapshot`]) is
//! *not* quarantined — checking for it is one `stat`, and the usual fix
//! (upload the file) should take effect immediately.

use crate::cache::{catch_panic, FailureLedger, QuarantinePolicy};
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::server::unpoisoned;
use dtfe_framework::Decomposition;
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::snapshot::{self, SnapshotError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// A loaded, checksum-verified snapshot with its tile decomposition.
#[derive(Debug)]
pub struct SnapshotData {
    pub id: String,
    pub bounds: Aabb3,
    /// Particles in file order (block-concatenated — the same order every
    /// reader of the file sees, which keeps tile meshes reproducible).
    pub particles: Vec<Vec3>,
    /// The tile grid over `bounds` (`cfg.tiles` near-cubic tiles).
    pub decomp: Decomposition,
    /// Per-tile particle counts *including ghost padding* — the `n` that
    /// prices a request on that tile.
    pub tile_counts: Vec<usize>,
    /// How far each tile's box is inflated for its ghost particles:
    /// [`ServiceConfig::ghost_margin`] of the config it was loaded under.
    pub ghost_margin: f64,
}

impl SnapshotData {
    /// Number of tiles in this snapshot's decomposition.
    pub fn num_tiles(&self) -> usize {
        self.decomp.num_ranks()
    }

    /// The ghost-padded particle set of one tile, in file order.
    pub fn tile_particles(&self, tile: usize) -> Vec<Vec3> {
        let bx = self.decomp.rank_box(tile).inflated(self.ghost_margin);
        self.particles
            .iter()
            .copied()
            .filter(|&p| bx.contains_closed(p))
            .collect()
    }
}

enum Slot {
    Loading,
    Ready(Arc<SnapshotData>),
}

/// Directory-backed snapshot store with single-flight loading.
pub struct SnapshotRegistry {
    dir: PathBuf,
    tiles: usize,
    ghost_margin: f64,
    state: Mutex<HashMap<String, Slot>>,
    cv: Condvar,
    /// Negative cache of failing loads, same policy as tile builds.
    neg: Mutex<FailureLedger<String>>,
}

/// Snapshot ids are path components; keep them boring so an id can never
/// escape the registry directory.
fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
        && !id.contains("..")
}

impl SnapshotRegistry {
    pub fn new(dir: impl Into<PathBuf>, cfg: &ServiceConfig) -> SnapshotRegistry {
        SnapshotRegistry {
            dir: dir.into(),
            tiles: cfg.tiles,
            ghost_margin: cfg.ghost_margin(),
            state: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            neg: Mutex::new(FailureLedger::new(QuarantinePolicy::default())),
        }
    }

    /// The on-disk path of an id.
    pub fn path_of(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.snap"))
    }

    /// Fetch a snapshot, loading and verifying it on first use. Like a tile
    /// build, the load runs under panic isolation, so a panicking load
    /// takes the error path instead of leaving a permanent `Loading` slot
    /// that parks every later request for the id.
    pub fn get(&self, id: &str) -> Result<Arc<SnapshotData>, ServiceError> {
        if !valid_id(id) {
            return Err(ServiceError::InvalidRequest(format!(
                "malformed snapshot id {id:?}"
            )));
        }
        // Quarantine gate before any slot is claimed: a file that keeps
        // failing verification is refused without touching the disk.
        if let Some(retry_after_ms) = unpoisoned(self.neg.lock()).gate(id) {
            dtfe_telemetry::counter_add!("service.snapshot_quarantine_rejects", 1);
            return Err(ServiceError::Quarantined { retry_after_ms });
        }
        let mut st = unpoisoned(self.state.lock());
        loop {
            match st.get(id) {
                Some(Slot::Ready(data)) => return Ok(data.clone()),
                Some(Slot::Loading) => {
                    dtfe_telemetry::counter_add!("service.snapshot_load_parks", 1);
                    st = unpoisoned(self.cv.wait(st));
                    // Re-check: the loader either published Ready or removed
                    // the slot on failure (then we retry the load ourselves).
                }
                None => {
                    st.insert(id.to_string(), Slot::Loading);
                    drop(st);
                    let loaded = catch_panic(|| self.load(id)).unwrap_or_else(|msg| {
                        Err(ServiceError::Internal(format!(
                            "loading {id} panicked: {msg}"
                        )))
                    });
                    st = unpoisoned(self.state.lock());
                    match loaded {
                        Ok(data) => {
                            let data = Arc::new(data);
                            st.insert(id.to_string(), Slot::Ready(data.clone()));
                            unpoisoned(self.neg.lock()).clear(id);
                            self.cv.notify_all();
                            return Ok(data);
                        }
                        Err(e) => {
                            st.remove(id);
                            // Missing files are cheap to re-check and fix;
                            // only actual load failures quarantine.
                            if !matches!(e, ServiceError::UnknownSnapshot(_))
                                && unpoisoned(self.neg.lock()).record_failure(id.to_string())
                            {
                                dtfe_telemetry::counter_add!("service.snapshots_quarantined", 1);
                            }
                            self.cv.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    fn load(&self, id: &str) -> Result<SnapshotData, ServiceError> {
        let span = dtfe_telemetry::span!("service.snapshot_load", id = id);
        let path = self.path_of(id);
        if !path.is_file() {
            return Err(ServiceError::UnknownSnapshot(id.to_string()));
        }
        let (info, particles) = snapshot::read_all(&path).map_err(|e| match e {
            SnapshotError::Io(io) => ServiceError::Internal(format!("reading {id}: {io}")),
            corrupt => ServiceError::CorruptSnapshot(format!("{id}: {corrupt}")),
        })?;
        let decomp = Decomposition::new(info.bounds, self.tiles);
        let mut tile_counts = vec![0usize; decomp.num_ranks()];
        for (t, count) in tile_counts.iter_mut().enumerate() {
            let bx = decomp.rank_box(t).inflated(self.ghost_margin);
            *count = particles.iter().filter(|&&p| bx.contains_closed(p)).count();
        }
        dtfe_telemetry::counter_add!("service.snapshots_loaded", 1);
        dtfe_telemetry::counter_add!("service.snapshot_particles", particles.len() as u64);
        drop(span);
        Ok(SnapshotData {
            id: id.to_string(),
            bounds: info.bounds,
            particles,
            decomp,
            tile_counts,
            ghost_margin: self.ghost_margin,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_nbody::snapshot::write_snapshot;

    fn tmpdir(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("dtfe_registry_test_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn cloud(n: usize, side: f64, seed: u64) -> Vec<Vec3> {
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
    fn loads_and_caches_by_id() {
        let dir = tmpdir("load");
        let pts = cloud(500, 4.0, 7);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        write_snapshot(&dir.join("box.snap"), std::slice::from_ref(&pts), bounds).unwrap();
        let cfg = ServiceConfig::new(1.0, 16);
        let reg = SnapshotRegistry::new(&dir, &cfg);
        let a = reg.get("box").unwrap();
        assert_eq!(a.particles, pts);
        assert_eq!(a.num_tiles(), cfg.tiles);
        assert_eq!(a.tile_counts.len(), cfg.tiles);
        // Padded tiles overlap, so the counts sum to at least n.
        assert!(a.tile_counts.iter().sum::<usize>() >= pts.len());
        // Second get returns the same Arc (no re-read).
        let b = reg.get("box").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_and_malformed_ids() {
        let dir = tmpdir("ids");
        let cfg = ServiceConfig::new(1.0, 16);
        let reg = SnapshotRegistry::new(&dir, &cfg);
        assert!(matches!(
            reg.get("nope"),
            Err(ServiceError::UnknownSnapshot(_))
        ));
        for bad in ["", "a/b", "../etc", "x y"] {
            assert!(
                matches!(reg.get(bad), Err(ServiceError::InvalidRequest(_))),
                "{bad:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let dir = tmpdir("corrupt");
        let pts = cloud(200, 4.0, 11);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        let path = dir.join("bad.snap");
        write_snapshot(&path, &[pts], bounds).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let cfg = ServiceConfig::new(1.0, 16);
        let reg = SnapshotRegistry::new(&dir, &cfg);
        assert!(matches!(
            reg.get("bad"),
            Err(ServiceError::CorruptSnapshot(_))
        ));
        // A failed load leaves no poisoned slot: retry re-attempts the read.
        assert!(matches!(
            reg.get("bad"),
            Err(ServiceError::CorruptSnapshot(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same v1-layout file a pre-checksum writer produced: magic
    /// "DTFESNP1" and no checksum word, every other byte as in v2.
    fn write_snapshot_v1(path: &std::path::Path, blocks: &[Vec<Vec3>], bounds: Aabb3) {
        write_snapshot(path, blocks, bounds).unwrap();
        let v2 = std::fs::read(path).unwrap();
        let mut v1 = 0x4454_4645_534E_5031u64.to_le_bytes().to_vec();
        v1.extend_from_slice(&v2[8..24]); // nranks, total
        v1.extend_from_slice(&v2[32..]); // bounds, table, data
        std::fs::write(path, v1).unwrap();
    }

    #[test]
    fn v1_layout_file_is_bad_magic_not_a_load() {
        // A v1 file carries nothing to verify its particles against, so it
        // is refused outright rather than served unchecked.
        let dir = tmpdir("v1");
        let path = dir.join("old.snap");
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(4.0));
        write_snapshot_v1(&path, &[cloud(200, 4.0, 17)], bounds);
        for err in [
            snapshot::read_info(&path).err(),
            snapshot::read_all(&path).err(),
            snapshot::verify(&path).err(),
        ] {
            assert!(
                matches!(err, Some(SnapshotError::BadMagic { .. })),
                "{err:?}"
            );
        }
        let reg = SnapshotRegistry::new(&dir, &ServiceConfig::new(1.0, 16));
        assert!(matches!(
            reg.get("old"),
            Err(ServiceError::CorruptSnapshot(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_header_is_corrupt_not_a_panic_or_a_parked_handler() {
        // One particle, then the header's `total` (offset 16) and the one
        // block's count (offset 88) claim 2^60 particles.
        let dir = tmpdir("hostile");
        let path = dir.join("bad.snap");
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(1.0));
        write_snapshot(&path, &[vec![Vec3::splat(0.5)]], bounds).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for at in [16, 88] {
            bytes[at..at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let reg = Arc::new(SnapshotRegistry::new(&dir, &ServiceConfig::new(1.0, 16)));
        // Each `get` runs on its own thread with a deadline: a parked
        // caller is a test failure, not a hung suite.
        for _ in 0..2 {
            let (tx, rx) = std::sync::mpsc::channel();
            let reg = reg.clone();
            std::thread::spawn(move || tx.send(reg.get("bad")));
            let got = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("get() panicked, or parked on a dead Loading slot");
            assert!(matches!(got, Err(ServiceError::CorruptSnapshot(_))));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tile_particles_cover_padded_box_exactly() {
        let dir = tmpdir("tiles");
        let pts = cloud(800, 8.0, 13);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(8.0));
        write_snapshot(&dir.join("t.snap"), std::slice::from_ref(&pts), bounds).unwrap();
        let mut cfg = ServiceConfig::new(2.0, 16);
        cfg.tiles = 8;
        let reg = SnapshotRegistry::new(&dir, &cfg);
        let snap = reg.get("t").unwrap();
        for t in 0..snap.num_tiles() {
            let sel = snap.tile_particles(t);
            assert_eq!(sel.len(), snap.tile_counts[t], "tile {t}");
            let bx = snap.decomp.rank_box(t).inflated(cfg.ghost_margin());
            assert!(sel.iter().all(|&p| bx.contains_closed(p)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
