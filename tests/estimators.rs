//! Trait-conformance suite for the `FieldEstimator` backends.
//!
//! The contract under test, per backend:
//!
//! * **Dtfe** — rendering through the trait seam (including via
//!   `&dyn FieldEstimator`) is *bit-identical* to the retained reference
//!   kernel on proptest clouds: the refactor moved the interpolant lookup
//!   behind a vtable without touching a single float.
//! * **PS-DTFE** — per-simplex densities conserve mass exactly (≤ 1e-12
//!   relative), velocity gradients are exact on linear flows, and the
//!   stream counter reports ≥ 1 stream everywhere inside the hull.
//! * **Stochastic** — the k-realization average is rescaled to conserve
//!   mass (≤ 1e-12 relative) and is deterministic in its seed.
//! * **Service** — PS-DTFE and stochastic cutouts round-trip over TCP
//!   bit-identically to the in-process handle, and every estimator of a
//!   tile is a table over the tile's one cache entry.

use dtfe_repro::core::marching::surface_density_reference;
use dtfe_repro::core::{
    surface_density, DtfeField, EstimatorKind, FieldEstimator, GridSpec2, HullIndex, MarchOptions,
    Mass, PsDtfeField, ScalarField, StochasticField, StochasticOptions, StreamField,
};
use dtfe_repro::geometry::tetra::linear_gradient;
use dtfe_repro::geometry::{Aabb3, Vec2, Vec3};
use dtfe_repro::nbody::snapshot::write_snapshot;
use dtfe_repro::service::{Client, RenderRequest, Service, ServiceConfig, TcpServer};
use dtfe_repro::telemetry::Recorder;
use proptest::prelude::*;
use std::sync::Arc;

fn cloud(n: usize, side: f64, seed: u64) -> Vec<Vec3> {
    let mut s = seed | 1;
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

fn assert_bits_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: cell {i} differs: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole guarantee: `DtfeField` rendered through the generic
    /// trait seam — monomorphized *and* type-erased — matches the
    /// reference kernel bit for bit on random clouds.
    #[test]
    fn dtfe_via_trait_is_bit_identical_to_reference(
        seed in 1u64..u64::MAX,
        n in 120usize..400,
    ) {
        let side = 6.0;
        let pts = cloud(n, side, seed);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        let grid = GridSpec2::covering(Vec2::new(1.0, 1.0), Vec2::new(5.0, 5.0), 24, 24);
        let opts = MarchOptions::new().samples(2).parallel(false);

        let (reference, _) = surface_density_reference(&field, &index, &grid, &opts);
        let mono = surface_density(&field, &grid, &opts);
        let erased = surface_density(&field as &dyn FieldEstimator, &grid, &opts);

        for (i, ((r, m), e)) in reference
            .data
            .iter()
            .zip(&mono.data)
            .zip(&erased.data)
            .enumerate()
        {
            prop_assert_eq!(r.to_bits(), m.to_bits(), "monomorphized cell {}", i);
            prop_assert_eq!(r.to_bits(), e.to_bits(), "type-erased cell {}", i);
        }
    }
}

#[test]
fn psdtfe_conserves_mass_and_counts_streams() {
    let side = 5.0;
    let pts = cloud(350, side, 424242);
    let vels: Vec<Vec3> = pts
        .iter()
        .map(|p| Vec3::new(2.0 * p.x + p.z, 3.0 * p.y, -p.x + 4.0 * p.z))
        .collect();
    let ps = PsDtfeField::build(&pts, &vels, Mass::Uniform(1.0)).unwrap();

    // Per-simplex constant densities integrate to the total mass exactly.
    let total = pts.len() as f64;
    let rel = (ps.integrated_mass() - total).abs() / total;
    assert!(rel <= 1e-12, "PS-DTFE mass error {rel:e}");

    // The linear flow's divergence is 2 + 3 + 4 = 9 on every simplex.
    for t in ps.delaunay().finite_tets() {
        assert!(
            (ps.tet_divergence(t) - 9.0).abs() < 1e-8,
            "tet {t}: div {}",
            ps.tet_divergence(t)
        );
    }

    // Identity mapping: exactly one stream everywhere inside the hull.
    let sf = StreamField::build(&pts, &pts).unwrap();
    assert_eq!(sf.folded_fraction(), 0.0);
    for i in 0..5 {
        for j in 0..5 {
            let p = Vec3::new(
                1.0 + i as f64 * 0.7,
                1.3 + j as f64 * 0.6,
                0.4 * (i + j) as f64 + 0.8,
            );
            let streams = sf.stream_count_at(p);
            assert!(streams >= 1, "no stream at {p:?}");
        }
    }
}

#[test]
fn stochastic_conserves_mass_and_is_seed_deterministic() {
    let side = 5.0;
    let pts = cloud(260, side, 777);
    let opts = StochasticOptions::new().realizations(3).seed(0xDECAF);
    let a = StochasticField::build(&pts, Mass::Uniform(1.0), opts).unwrap();
    let total = pts.len() as f64;
    let rel = (a.integrated_mass() - total).abs() / total;
    assert!(rel <= 1e-12, "stochastic mass error {rel:e}");

    let b = StochasticField::build(&pts, Mass::Uniform(1.0), opts).unwrap();
    assert_eq!(a.vertex_densities(), b.vertex_densities());
    assert_eq!(a.mass_scale().to_bits(), b.mass_scale().to_bits());

    // FNV-1a over the bits of every vertex density, then the mass scale,
    // pinned at f141eb5 — when the field still embedded a whole `DtfeField`.
    let bits = (a.vertex_densities().iter().chain([&a.mass_scale()]))
        .fold(0xcbf29ce484222325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
        });
    assert_eq!(bits, 0x01a3fb92122755b6, "stochastic field moved a bit");
}

/// A tetrahedron that is valid under the exact predicates but singular in
/// floating point: the zero-gradient fallback is counted by every backend
/// that takes it, the strict constructor refuses, and the render is finite.
#[test]
fn float_singular_tetrahedron_is_counted_not_silent() {
    let e = (2.0f64).powi(-30);
    let pts = [
        Vec3::ZERO,
        Vec3::new(1.0 + 5.0 * e, 1.0 + 7.0 * e, 1.0 + 7.0 * e),
        Vec3::new(1.0 + 2.0 * e, 1.0 + 9.0 * e, 1.0 + 12.0 * e),
        Vec3::new(1.0 + 5.0 * e, 1.0 + 2.0 * e, 1.0 + 5.0 * e),
    ];
    fn counting<T>(build: impl FnOnce() -> T) -> (T, u64) {
        let rec = Recorder::new("degenerate");
        let guard = rec.install();
        let built = build();
        drop(guard);
        let metrics = rec.snapshot().metrics;
        (built, metrics.counter("core.degenerate_tet_zero_grad"))
    }

    let (field, counted) = counting(|| DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap());
    let del = field.delaunay();
    del.validate().expect("exactly valid triangulation");
    let values = field.vertex_densities().to_vec();
    let singular = del
        .finite_tets()
        .filter(|&t| {
            let f = del.tet(t).verts.map(|v| values[v as usize]);
            linear_gradient(&del.tet_points(t), &f).is_none()
        })
        .count() as u64;
    assert!(singular >= 1, "fixture is not float-singular");
    assert_eq!(counted, singular, "DtfeField's fallback is silent");
    assert_eq!(
        counting(|| ScalarField::new(del, values.clone())).1,
        singular
    );
    assert!(ScalarField::try_new(del, values.clone()).is_err());

    let grid = GridSpec2::covering(Vec2::new(-0.1, -0.1), Vec2::new(1.1, 1.1), 9, 9);
    let sigma = surface_density(&field, &grid, &MarchOptions::new().parallel(false));
    assert!(sigma.data.iter().all(|v| v.is_finite()));
}

/// Serve every estimator end-to-end: PS-DTFE and stochastic cutouts
/// round-trip over TCP byte-identically to the in-process handle, the
/// four request kinds occupy one cache entry (one mesh, three tables:
/// divergence shares PS-DTFE's), and all renders are finite.
#[test]
fn service_round_trips_every_estimator_over_tcp() {
    let dir = std::env::temp_dir().join(format!("dtfe_estimators_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let side = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(side));
    write_snapshot(&dir.join("est.snap"), &[cloud(1_800, side, 31337)], bounds).unwrap();

    let mut cfg = ServiceConfig::new(side, 24);
    cfg.tiles = 1;
    let service = Arc::new(Service::start(&dir, cfg).unwrap());
    let server = TcpServer::bind(service.clone(), ("127.0.0.1", 0)).unwrap();
    let addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());

    let mut client = Client::connect(addr).unwrap();
    let kinds = [
        EstimatorKind::Dtfe,
        EstimatorKind::PsDtfe,
        EstimatorKind::VelocityDivergence,
        EstimatorKind::Stochastic { realizations: 2 },
    ];
    let mut fields = Vec::new();
    for kind in kinds {
        let req = RenderRequest::new("est", bounds.center()).estimator(kind);
        let over_wire = client.render(&req).expect("tcp render");
        let in_proc = service.render(&req).expect("in-process render");
        assert_bits_equal(
            &over_wire.data,
            &in_proc.data,
            &format!("tcp vs in-process ({kind})"),
        );
        assert!(
            over_wire.data.iter().all(|v| v.is_finite()),
            "{kind}: non-finite cells"
        );
        fields.push(over_wire.data);
    }

    // Density-like renders carry mass; the three density estimators must
    // actually differ from each other (they are different estimates).
    assert!(fields[0].iter().sum::<f64>() > 0.0, "dtfe renders mass");
    assert!(fields[1].iter().sum::<f64>() > 0.0, "psdtfe renders mass");
    assert!(
        fields[3].iter().sum::<f64>() > 0.0,
        "stochastic renders mass"
    );
    assert_ne!(fields[0], fields[1], "dtfe vs psdtfe");
    assert_ne!(fields[0], fields[3], "dtfe vs stochastic");
    assert_ne!(fields[1], fields[2], "psdtfe density vs divergence");

    // Four request kinds, one cache entry: each estimator is a table over
    // the tile's one mesh.
    assert_eq!(service.cache().resident_entries(), 1);

    drop(client);
    service.drain();
    drop(serve);
    std::fs::remove_dir_all(&dir).ok();
}
