//! `kernel_march`: a resident mesh rendered three ways on one thread.
//!
//! `core::marching` and `geometry::plucker` do all the timed work; the
//! triangulation is built in set-up and `framework` and `service` are never
//! called while the clock runs. The menu uses the kernel in its three
//! regimes, so a coherence or packet gain on one that costs another shows:
//! *dense* (many cells per tetrahedron), *multisample* (many lines of sight
//! per cell) and *sparse* (few cells per tetrahedron, so hull entry
//! dominates), the last through the PS-DTFE estimator.

use crate::measure::{halo_box, same_bits, timed};
use crate::run::{Phase, Workload};
use dtfe_core::density::{DtfeField, Mass};
use dtfe_core::grid::{Field2, GridSpec2};
use dtfe_core::marching::{
    surface_density_reference, surface_density_with_index, HullIndex, MarchOptions, MarchStats,
};
use dtfe_core::{EstimatorKind, PsDtfeField};
use dtfe_delaunay::DelaunayBuilder;
use dtfe_geometry::{Aabb3, Vec2, Vec3};
use dtfe_nbody::snapshot::{read_all, write_snapshot};
use std::path::{Path, PathBuf};

const BOX_LEN: f64 = 16.0;

struct Item {
    /// Its latency metric, and the harness-side span around the render.
    metric: &'static str,
    span: &'static str,
    grid: GridSpec2,
    opts: MarchOptions,
    ps: bool,
}

pub struct Kernel {
    particles: Vec<Vec3>,
    snapshot: PathBuf,
    menu: [Item; 3],
}

pub struct Mesh {
    dtfe: DtfeField,
    dtfe_index: HullIndex,
    ps: PsDtfeField,
    ps_index: HullIndex,
    /// The warm-up pass: every later pass must repeat it bit for bit, and
    /// `verify` holds it against the reference kernel.
    first: Vec<Field2>,
    ops: u64,
}

impl Mesh {
    fn render(&self, item: &Item, op: u64) -> ((Field2, MarchStats), f64) {
        timed(item.span, op, || {
            if item.ps {
                surface_density_with_index(&self.ps, &self.ps_index, &item.grid, &item.opts)
            } else {
                surface_density_with_index(&self.dtfe, &self.dtfe_index, &item.grid, &item.opts)
            }
        })
    }
}

impl Kernel {
    pub fn prepare(seed: u64, smoke: bool, dir: &Path) -> Kernel {
        let (n, scale) = if smoke { (3_000, 4) } else { (32_000, 1) };
        let (particles, _halos) = halo_box(BOX_LEN, n, 64, seed);
        let margin = 0.02 * BOX_LEN;
        let grid = |cells: usize| {
            GridSpec2::covering(
                Vec2::new(-margin, -margin),
                Vec2::new(BOX_LEN + margin, BOX_LEN + margin),
                cells / scale,
                cells / scale,
            )
        };
        let serial = |samples| MarchOptions::new().samples(samples).parallel(false);
        let menu = [
            Item {
                metric: "core.march_dense_ms",
                span: "bench.core.march_dense",
                grid: grid(192),
                opts: serial(2),
                ps: false,
            },
            Item {
                metric: "core.march_multisample_ms",
                span: "bench.core.march_multisample",
                grid: grid(96),
                opts: serial(4),
                ps: false,
            },
            Item {
                metric: "core.march_sparse_ms",
                span: "bench.core.march_sparse",
                grid: grid(48),
                opts: serial(1).estimator(EstimatorKind::PsDtfe),
                ps: true,
            },
        ];
        Kernel {
            particles,
            snapshot: dir.join("kernel.snap"),
            menu,
        }
    }
}

impl Workload for Kernel {
    type State = Mesh;

    fn setup(&self, phase: &mut Phase) -> Mesh {
        let layers = &mut phase.layers;
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(BOX_LEN));
        let (_, ms) = timed("bench.nbody.write_snapshot", 0, || {
            write_snapshot(
                &self.snapshot,
                std::slice::from_ref(&self.particles),
                bounds,
            )
            .expect("write snapshot")
        });
        layers.record("nbody.snapshot_write_ms", ms);
        let ((_, points), ms) = timed("bench.nbody.read_all", 0, || {
            read_all(&self.snapshot).expect("read snapshot")
        });
        layers.record("nbody.snapshot_read_ms", ms);
        let mib = (points.len() * 24) as f64 / (1 << 20) as f64;
        layers.record("nbody.snapshot_read_mb_per_s", mib / (ms / 1e3));

        // The builder a user gets: thread count chosen automatically.
        let build = |layers: &mut crate::measure::Samples| {
            let (del, ms) = timed("bench.delaunay.build", 0, || {
                DelaunayBuilder::new()
                    .build(&points)
                    .expect("triangulation")
            });
            layers.record("delaunay.build_ms", ms);
            layers.record(
                "delaunay.build_us_per_point",
                ms * 1e3 / points.len() as f64,
            );
            layers.record(
                "delaunay.tets_per_point",
                del.num_tets() as f64 / del.num_vertices() as f64,
            );
            del
        };
        let del = build(layers);
        let (dtfe, ms) = timed("bench.core.from_delaunay", 0, || {
            DtfeField::from_delaunay_for_inputs(del, points.len(), Mass::Uniform(1.0))
        });
        layers.record("core.density_ms", ms);
        let (cache_bytes, ms) = timed("bench.core.march_cache", 0, || dtfe.march_cache().bytes());
        layers.record("core.march_cache_ms", ms);
        layers.record("core.march_cache_mb", cache_bytes as f64 / (1 << 20) as f64);
        let (dtfe_index, ms) = timed("bench.core.hull_index", 0, || HullIndex::build(&dtfe));
        layers.record("core.hull_index_ms", ms);

        let del = build(layers);
        // The smooth periodic flow the service gives its PS-DTFE tiles: the
        // kernel is measured, not astrophysics.
        let velocities = dtfe_service::tiles::demo_velocities(&points, &bounds);
        let ps = PsDtfeField::from_delaunay(del, points.len(), &velocities, Mass::Uniform(1.0))
            .expect("PS-DTFE field");
        let ps_index = HullIndex::build(&ps);

        let mut mesh = Mesh {
            dtfe,
            dtfe_index,
            ps,
            ps_index,
            first: Vec::new(),
            ops: 0,
        };
        mesh.first = self
            .menu
            .iter()
            .map(|item| mesh.render(item, 0).0 .0)
            .collect();
        phase.attempted += 1;
        mesh
    }

    fn round(&self, mesh: &mut Mesh, phase: &mut Phase) {
        mesh.ops += 1;
        let mut op_ms = 0.0;
        let mut ok = true;
        let mut total = MarchStats::default();
        let mut los = 0usize;
        for (item, first) in self.menu.iter().zip(&mesh.first) {
            let ((field, stats), ms) = mesh.render(item, mesh.ops);
            ok &= same_bits(&field.data, &first.data);
            phase.layers.record(item.metric, ms);
            op_ms += ms;
            total.merge(&stats);
            los += item.grid.num_cells() * item.opts.render.samples;
        }
        let los = los as f64;
        let layers = &mut phase.layers;
        layers.record("core.tets_per_los", total.crossings as f64 / los);
        layers.record("core.edge_evals_per_los", total.edge_evals as f64 / los);
        let hints = total.entry_hint_hits + total.entry_hint_misses;
        layers.record(
            "core.entry_hint_hit_ratio",
            total.entry_hint_hits as f64 / hints.max(1) as f64,
        );
        layers.record("core.perturbations", total.perturbations as f64);
        layers.record("core.march_failures", total.failures as f64);
        phase.op(op_ms, self.menu.len() as u64, ok);
    }

    /// The warm-up pass against `surface_density_reference`, bit for bit;
    /// `round` has already held every later pass against the warm-up pass.
    fn verify(&self, mesh: &mut Mesh, phase: &mut Phase) {
        for (item, first) in self.menu.iter().zip(&mesh.first) {
            let (reference, _) = if item.ps {
                surface_density_reference(&mesh.ps, &mesh.ps_index, &item.grid, &item.opts)
            } else {
                surface_density_reference(&mesh.dtfe, &mesh.dtfe_index, &item.grid, &item.opts)
            };
            if !same_bits(&reference.data, &first.data) {
                eprintln!(
                    "MISMATCH: {} differs from the reference kernel",
                    item.metric
                );
                phase.failed += 1;
            }
        }
    }
}
