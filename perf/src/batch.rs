//! `batch_pipeline`: the paper's framework, one snapshot to many fields.
//!
//! The only workload that runs snapshot read, redistribute, model fit,
//! schedule, per-item triangulation and render, and work sharing. It uses
//! `delaunay` and `core` unlike the other three: thousands of points per
//! build, not tens of thousands, and z-clipped cutouts around the densest
//! halos, not one big grid.

use crate::measure::{checksum, halo_box, shuffle, timed, Rng};
use crate::run::{Phase, Workload};
use dtfe_framework::{
    run_distributed, run_distributed_snapshot, FieldRequest, FrameworkConfig, RunReport,
};
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_lensing::configs::galaxy_galaxy_centers;
use dtfe_nbody::snapshot::{read_all, write_snapshot};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const BOX_LEN: f64 = 32.0;
const FIELD_LEN: f64 = 3.0;
/// One rank per core of the host the bounds were set on; fixed, so the
/// workload is the same wherever it runs.
const RANKS: usize = 2;
/// Blocks the snapshot is written in: more than the ranks that read it, so
/// the round-robin block assignment is exercised.
const WRITER_BLOCKS: usize = 4;

pub struct Batch {
    particles: Vec<Vec3>,
    bounds: Aabb3,
    /// Every centre any request set uses.
    pool: Vec<FieldRequest>,
    /// The seeded request sets a round cycles through.
    sets: Vec<Vec<FieldRequest>>,
    cfg: FrameworkConfig,
    snapshot: PathBuf,
}

type Key = [u64; 3];

fn key(c: Vec3) -> Key {
    [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()]
}

pub struct Served {
    /// Checksum of each centre's field from the single-rank reference run;
    /// every delivery must repeat it.
    expect: HashMap<Key, u64>,
    ops: u64,
}

impl Batch {
    /// One framework run over one request set; it succeeds when every
    /// requested field came back exactly once and equal to the reference.
    fn operation(&self, set: &[FieldRequest], served: &mut Served, phase: &mut Phase) {
        served.ops += 1;
        let (result, ms) = timed(
            "bench.framework.run_distributed_snapshot",
            served.ops,
            || run_distributed_snapshot(RANKS, &self.snapshot, set, &self.cfg),
        );
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                eprintln!("framework run failed: {e}");
                phase.op(ms, 0, false);
                return;
            }
        };
        let mut ok = run.computed == set.len() && run.lost_items == 0 && !run.degraded;
        let mut delivered = 0;
        for (center, field) in run.ranks.iter().flat_map(|r| &r.fields) {
            delivered += 1;
            ok &= served.expect.get(&key(*center)) == Some(&checksum(&field.data));
        }
        ok &= delivered == set.len();
        record_layers(&run, phase);
        if !ok {
            eprintln!("MISMATCH: a framework run differs from the single-rank run");
        }
        phase.op(ms, delivered as u64, ok);
    }
}

/// Per-phase busy time is thread CPU, as the framework reports it: the
/// slowest rank sets the phase, so the maximum over ranks.
fn record_layers(run: &RunReport, phase: &mut Phase) {
    let max = |f: fn(&dtfe_framework::PhaseTimings) -> f64| {
        run.ranks.iter().map(|r| f(&r.timings)).fold(0.0, f64::max)
    };
    let layers = &mut phase.layers;
    layers.record("framework.partition_s", max(|t| t.partition));
    layers.record("framework.model_s", max(|t| t.model));
    layers.record("framework.triangulate_s", max(|t| t.triangulate));
    layers.record("framework.render_s", max(|t| t.render));
    layers.record("framework.sharing_wait_s", max(|t| t.sharing_wait));
    layers.record("framework.imbalance", run.imbalance());
    let sent: usize = run.ranks.iter().map(|r| r.sent_items).sum();
    layers.record("framework.items_sent", sent as f64);
    layers.record("framework.retries", run.retries as f64);
    let residuals = run.model_residuals();
    // Root-mean-square, not relative error: a near-empty item's measured
    // time is a few nanoseconds and would own any mean of ratios.
    layers.record("framework.model_rmse_tri_s", residuals.tri.rmse);
    layers.record("framework.model_rmse_interp_s", residuals.interp.rmse);
}

impl Batch {
    pub fn prepare(seed: u64, smoke: bool, dir: &Path) -> Batch {
        let (n, per_set, n_sets, resolution) = if smoke {
            (8_000, 6, 2, 16)
        } else {
            (120_000, 40, 3, 64)
        };
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(BOX_LEN));
        // Half again as many halos as centres: the margin excludes a fifth.
        let (particles, catalog) = halo_box(BOX_LEN, n, per_set * n_sets * 3 / 2, seed);
        let mut pool: Vec<FieldRequest> =
            galaxy_galaxy_centers(&catalog, per_set * n_sets, bounds, FIELD_LEN * 0.5)
                .into_iter()
                .map(|center| FieldRequest { center })
                .collect();
        assert!(
            pool.len() >= per_set * n_sets,
            "too few halos inside the margin"
        );
        // The sets share no centre and the seed deals them out, so each set
        // is as heavy as the next.
        shuffle(&mut pool, &mut Rng(seed ^ 0xBA7C));
        let sets = pool.chunks(per_set).map(<[_]>::to_vec).collect();
        let cfg = FrameworkConfig {
            keep_fields: true,
            ..FrameworkConfig::new(FIELD_LEN, resolution)
        };
        Batch {
            particles,
            bounds,
            pool,
            sets,
            cfg,
            snapshot: dir.join("batch.snap"),
        }
    }
}

impl Workload for Batch {
    type State = Served;

    fn setup(&self, phase: &mut Phase) -> Served {
        let mut blocks = vec![Vec::new(); WRITER_BLOCKS];
        for (i, p) in self.particles.iter().enumerate() {
            blocks[i % WRITER_BLOCKS].push(*p);
        }
        let (_, ms) = timed("bench.nbody.write_snapshot", 0, || {
            write_snapshot(&self.snapshot, &blocks, self.bounds).expect("write snapshot")
        });
        phase.layers.record("nbody.snapshot_write_ms", ms);
        let ((_, points), ms) = timed("bench.nbody.read_all", 0, || {
            read_all(&self.snapshot).expect("read snapshot")
        });
        phase.layers.record("nbody.snapshot_read_ms", ms);
        let mib = (points.len() * 24) as f64 / (1 << 20) as f64;
        phase
            .layers
            .record("nbody.snapshot_read_mb_per_s", mib / (ms / 1e3));

        // The reference: one unbalanced single-rank run over the in-memory
        // particles, so no snapshot, no redistribution and no sharing.
        let cfg = FrameworkConfig {
            balance: false,
            ..self.cfg.clone()
        };
        let (reference, _) = timed("bench.framework.run_distributed", 0, || {
            run_distributed(1, &self.particles, self.bounds, &self.pool, &cfg)
                .expect("single-rank reference run")
        });
        let expect = reference
            .ranks
            .iter()
            .flat_map(|r| &r.fields)
            .map(|(c, f)| (key(*c), checksum(&f.data)))
            .collect();
        let mut served = Served { expect, ops: 0 };

        let mut warm_up = Phase::default();
        self.operation(&self.sets[0], &mut served, &mut warm_up);
        phase.attempted += warm_up.attempted;
        phase.failed += warm_up.failed;
        served
    }

    fn round(&self, served: &mut Served, phase: &mut Phase) {
        for set in &self.sets {
            self.operation(set, served, phase);
        }
    }
}
