//! The march's vertex positions are a cache the first march writes.
//!
//! A rendered mesh holds one 32 B link per tetrahedron; only the marching
//! kernel reads positions beside it, 96 B a slot. Held here:
//!
//! * a projected render, at full depth or under a window inside the mesh,
//!   leaves the positions unwritten;
//! * a marched render writes them exactly once (`core.march_cache_builds`),
//!   and so does `FieldEstimator::march_cache`;
//! * four threads' simultaneous first marches on one mesh write them once
//!   and render the serial render's bits;
//! * `kernel == reference` on bits and counters once they exist.

use dtfe_repro::core::marching::{
    projects, surface_density_reference, surface_density_with_stats, MarchStats,
};
use dtfe_repro::core::{DtfeField, FieldEstimator, GridSpec2, HullIndex, MarchOptions, Mass};
use dtfe_repro::geometry::{Vec2, Vec3};
use dtfe_repro::telemetry::Recorder;
use std::sync::Barrier;

/// A jittered lattice of `n³` points in `[0, n]³`.
fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
    let mut s = seed;
    let mut r = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n * n * n)
        .map(|i| {
            let c = Vec3::new((i % n) as f64, (i / n % n) as f64, (i / (n * n)) as f64);
            c + Vec3::new(r(), r(), r()) * 0.6
        })
        .collect()
}

fn written(field: &DtfeField) -> bool {
    let topo = field.delaunay().topology().expect("laid out");
    topo.positions().is_some()
}

fn builds(rec: &Recorder) -> u64 {
    rec.snapshot().metrics.counter("core.march_cache_builds")
}

#[test]
fn projected_renders_leave_the_positions_unwritten() {
    let field = DtfeField::build(&cloud(12, 3), Mass::Uniform(1.0)).unwrap();
    let rec = Recorder::new("project");
    let guard = rec.install();
    let grid = GridSpec2::square(Vec2::new(6.0, 6.0), 12.0, 96);
    let full = MarchOptions::new().parallel(false);
    let window = full.clone().z_range(4.0, 8.0);
    for opts in [&full, &window, &full.clone().parallel(true)] {
        assert!(projects(&field, &grid, opts), "the grid is dense");
        let (sigma, _) = surface_density_with_stats(&field, &grid, opts);
        assert!(sigma.total_mass() > 0.0);
    }
    drop(guard);
    assert!(!written(&field), "a projected render wrote the positions");
    assert_eq!(builds(&rec), 0);
    let links = field.delaunay().topology().unwrap().bytes();

    // `march_cache` — the trait's and the field's — writes them, once,
    // 96 B a slot beside the links.
    let guard = rec.install();
    let bytes = FieldEstimator::march_cache(&field).bytes();
    assert_eq!(field.march_cache().bytes(), bytes);
    drop(guard);
    assert!(written(&field));
    assert_eq!(builds(&rec), 1);
    assert_eq!(bytes, links + 96 * field.delaunay().num_slots());
}

#[test]
fn simultaneous_first_marches_write_the_positions_once() {
    let field = DtfeField::build(&cloud(10, 7), Mass::Uniform(1.0)).unwrap();
    // Jittered lines always march.
    let grid = GridSpec2::square(Vec2::new(5.0, 5.0), 10.0, 24);
    let opts = MarchOptions::new().parallel(false).samples(2);
    assert!(!projects(&field, &grid, &opts));
    assert!(!written(&field));

    let rec = Recorder::new("march");
    let barrier = Barrier::new(4);
    let renders: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let _guard = rec.install();
                    barrier.wait();
                    surface_density_with_stats(&field, &grid, &opts)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert!(written(&field));
    assert_eq!(builds(&rec), 1, "one write for four first marches");

    let guard = rec.install();
    let (serial, stats) = surface_density_with_stats(&field, &grid, &opts);
    let (tiled, _) = surface_density_with_stats(&field, &grid, &opts.clone().parallel(true));
    drop(guard);
    assert_eq!(builds(&rec), 1, "later marches read what is there");
    for (sigma, s) in &renders {
        assert_eq!(sigma.data, serial.data);
        assert_eq!(s.crossings, stats.crossings);
    }
    assert_eq!(tiled.data, serial.data);
}

#[test]
fn kernel_equals_reference_over_the_written_positions() {
    let field = DtfeField::build(&cloud(9, 11), Mass::Uniform(1.0)).unwrap();
    let index = HullIndex::build(&field);
    let grid = GridSpec2::square(Vec2::new(4.5, 4.5), 9.0, 20);
    for opts in [
        MarchOptions::new().parallel(false).samples(2),
        MarchOptions::new()
            .parallel(false)
            .samples(2)
            .z_range(3.0, 6.0),
    ] {
        // The first march writes the positions; the second reads them.
        for _ in 0..2 {
            let (kernel, ks) = surface_density_with_stats(&field, &grid, &opts);
            let (reference, rs): (_, MarchStats) =
                surface_density_reference(&field, &index, &grid, &opts);
            assert!(written(&field));
            assert_eq!(kernel.data, reference.data);
            assert_eq!(
                (ks.crossings, ks.perturbations, ks.failures),
                (rs.crossings, rs.perturbations, rs.failures)
            );
        }
    }
}
