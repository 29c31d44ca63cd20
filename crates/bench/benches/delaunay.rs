//! Criterion benches of the Delaunay substrate: construction (with the
//! insertion-order ablation from DESIGN.md) and point location.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtfe_delaunay::DelaunayBuilder;
use dtfe_geometry::Vec3;

fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
    let mut s = seed;
    let mut r = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Vec3::new(r(), r(), r())).collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("delaunay_build");
    group.sample_size(10);
    for &n in &[8_000usize, 32_000] {
        let pts = cloud(n, 42);
        group.bench_with_input(BenchmarkId::new("brio", n), &pts, |b, pts| {
            b.iter(|| DelaunayBuilder::new().build(pts).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("input_order", n), &pts, |b, pts| {
            b.iter(|| {
                DelaunayBuilder::new()
                    .spatial_sort(false)
                    .build(pts)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_locate(c: &mut Criterion) {
    let pts = cloud(20_000, 7);
    let del = DelaunayBuilder::new().build(&pts).unwrap();
    let mut group = c.benchmark_group("delaunay_locate");
    group.bench_function("cold_walk", |b| {
        let mut seed = 1u64;
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E3779B9);
            let q = Vec3::new(
                (i % 1009) as f64 / 1009.0,
                (i % 1013) as f64 / 1013.0,
                (i % 1019) as f64 / 1019.0,
            );
            del.locate_seeded(q, dtfe_delaunay::NONE, &mut seed)
        });
    });
    group.bench_function("warm_walk_nearby", |b| {
        // Remembering walk between spatially adjacent queries — the access
        // pattern of both kernels.
        let mut seed = 2u64;
        let mut hint = dtfe_delaunay::NONE;
        let mut t = 0.0f64;
        b.iter(|| {
            t += 1e-3;
            let q = Vec3::new(
                0.5 + 0.3 * (t * 1.7).sin(),
                0.5 + 0.3 * (t * 1.3).cos(),
                0.5 + 0.3 * (t * 0.7).sin(),
            );
            let loc = del.locate_seeded(q, hint, &mut seed);
            if let dtfe_delaunay::Located::Finite(f) = loc {
                hint = f;
            }
            loc
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3));
    targets = bench_build, bench_locate
}
criterion_main!(benches);
