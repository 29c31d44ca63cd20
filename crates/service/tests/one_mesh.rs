//! One mesh per tile, served: whichever estimator touches a cold tile
//! first, every estimator's payload is the standalone field over that
//! tile's padded particle set, bit for bit.
//!
//! The standalone fields are the ones a single-estimator entry used to
//! hold — `DtfeField::from_delaunay_for_inputs`, `PsDtfeField::from_delaunay`,
//! `StochasticField::build`, each a mesh of its own and one table — rendered
//! with `surface_density_with_index`. The service renders all of them from
//! tables over one mesh per tile, filled in request order.

use dtfe_core::{
    surface_density_with_index, DtfeField, FieldEstimator, GridSpec2, HullIndex, MarchOptions,
    Mass, PsDtfeField, StochasticField, StochasticOptions,
};
use dtfe_delaunay::DelaunayBuilder;
use dtfe_framework::Decomposition;
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::snapshot::write_snapshot;
use dtfe_service::tiles::{demo_velocities, tile_seed, TileKey};
use dtfe_service::{EstimatorKind, RenderRequest, Service, ServiceConfig};
use std::sync::Mutex;

/// The second test installs a process-wide recorder; services of the first
/// would record into it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const SIDE: f64 = 16.0;
const FIELD_LEN: f64 = 4.0;
const RESOLUTION: usize = 24;
const KINDS: [EstimatorKind; 4] = [
    EstimatorKind::Dtfe,
    EstimatorKind::PsDtfe,
    EstimatorKind::VelocityDivergence,
    EstimatorKind::Stochastic { realizations: 2 },
];

fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
    let mut s = seed;
    let mut r = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Vec3::new(r() * SIDE, r() * SIDE, r() * SIDE))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// All orders of `0..4`.
fn permutations() -> Vec<[usize; 4]> {
    let mut out = Vec::new();
    for a in 0..4 {
        for b in (0..4).filter(|&b| b != a) {
            for c in (0..4).filter(|&c| c != a && c != b) {
                out.push([a, b, c, 6 - a - b - c]);
            }
        }
    }
    out
}

#[test]
fn every_first_touch_order_serves_the_standalone_fields() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("dtfe_one_mesh_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(SIDE));
    let pts = cloud(3_000, 424_242);
    write_snapshot(&dir.join("m.snap"), std::slice::from_ref(&pts), bounds).unwrap();
    let mut cfg = ServiceConfig::new(FIELD_LEN, RESOLUTION);
    cfg.tiles = 8;
    let decomp = Decomposition::new(bounds, cfg.tiles);

    // Per tile, what each kind must serve for a field at the tile's centre.
    let expected: Vec<[Vec<u64>; 4]> = (0..decomp.num_ranks())
        .map(|tile| {
            let cell = decomp.rank_box(tile);
            let center = cell.center();
            let padded = cell.inflated(cfg.ghost_margin());
            let local: Vec<Vec3> = pts
                .iter()
                .copied()
                .filter(|&p| padded.contains_closed(p))
                .collect();
            let grid = GridSpec2::try_square(center.xy(), FIELD_LEN, RESOLUTION).unwrap();
            let opts = MarchOptions::new()
                .parallel(false)
                .z_range(center.z - FIELD_LEN * 0.5, center.z + FIELD_LEN * 0.5);
            let render = |field: &dyn FieldEstimator| {
                let idx = HullIndex::build(field);
                bits(&surface_density_with_index(field, &idx, &grid, &opts).0.data)
            };
            let mass = Mass::Uniform(1.0);
            let build = || DelaunayBuilder::new().build(&local).unwrap();
            let dtfe = DtfeField::from_delaunay_for_inputs(build(), local.len(), mass.clone());
            let vels = demo_velocities(&local, &bounds);
            let ps = PsDtfeField::from_delaunay(build(), local.len(), &vels, mass.clone()).unwrap();
            let stochastic = StochasticField::build(
                &local,
                mass,
                StochasticOptions::new()
                    .realizations(2)
                    .seed(tile_seed("m", tile)),
            )
            .unwrap();
            [
                render(&dtfe),
                render(&ps),
                render(&ps.divergence()),
                render(&stochastic),
            ]
        })
        .collect();

    for (i, order) in permutations().into_iter().enumerate() {
        // A cold service per order, each on another tile.
        let tile = i % decomp.num_ranks();
        let service = Service::start(&dir, cfg.clone()).unwrap();
        let center = decomp.rank_box(tile).center();
        for (nth, &k) in order.iter().enumerate() {
            let req = RenderRequest::new("m", center).estimator(KINDS[k]);
            let served = service.render(&req).expect("served");
            assert_eq!(
                bits(&served.data),
                expected[tile][k],
                "tile {tile}, order {order:?}: {} differs from the standalone field",
                KINDS[k]
            );
            // The first request builds the mesh; each later one only a
            // table — except the second of the PS-DTFE pair, which finds
            // its table filled.
            let shares_table = |a: usize, b: usize| a.min(b) == 1 && a.max(b) == 2;
            let table_present = order[..nth].iter().any(|&prev| shares_table(prev, k));
            assert_eq!(
                served.meta.cache_hit, table_present,
                "order {order:?}, request {nth}"
            );
            // Asked again, everything is there and the bytes are the same.
            let again = service.render(&req).expect("served again");
            assert!(again.meta.cache_hit);
            assert_eq!(bits(&again.data), expected[tile][k]);
        }
        assert_eq!(service.cache().resident_entries(), 1);
        service.drain();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The stats document splits the cache's resident bytes by component, and
/// the split adds up: with every estimator filled on three of eight tiles
/// (one of them at a second realization count too), header, mesh and table
/// terms sum to `resident_bytes()` exactly, a table term is charged only
/// once its table exists, and the total is what the entries hold now.
#[test]
fn resident_bytes_add_up_by_component() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("dtfe_one_mesh_terms_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(SIDE));
    write_snapshot(&dir.join("m.snap"), &[cloud(2_500, 7)], bounds).unwrap();
    let mut cfg = ServiceConfig::new(FIELD_LEN, RESOLUTION);
    cfg.tiles = 8;
    let decomp = Decomposition::new(bounds, cfg.tiles);
    let service = Service::start(&dir, cfg).unwrap();
    let center = |tile: usize| decomp.rank_box(tile).center();
    let render = |tile, kind| {
        let req = RenderRequest::new("m", center(tile)).estimator(kind);
        service.render(&req).expect("served");
    };
    render(6, EstimatorKind::Dtfe);
    let dtfe_only = service.stats_document().cache;
    for tile in [0, 3, 6] {
        for kind in KINDS {
            render(tile, kind);
        }
    }
    render(3, EstimatorKind::Stochastic { realizations: 3 });

    let cache = service.cache();
    let doc = service.stats_document().cache;
    let terms = [
        doc.header_bytes,
        doc.mesh_bytes,
        doc.dtfe_bytes,
        doc.psdtfe_bytes,
        doc.stochastic_bytes,
    ];
    assert_eq!(cache.resident_entries(), 3);
    assert_eq!(terms.iter().sum::<u64>(), cache.resident_bytes() as u64);
    assert_eq!(doc.resident_bytes, cache.resident_bytes() as u64);
    assert_eq!(cache.resident_charge().total(), cache.resident_bytes());
    assert!(terms.iter().all(|&t| t > 0), "{doc:?}");
    assert!(doc.header_bytes >= doc.ghost_bytes && doc.ghost_bytes > 0);
    // One table on one tile before: no PS-DTFE or stochastic bytes, and a
    // DTFE term that three tiles' tables outgrow.
    assert_eq!((dtfe_only.psdtfe_bytes, dtfe_only.stochastic_bytes), (0, 0));
    assert!(dtfe_only.dtfe_bytes > 0 && doc.dtfe_bytes > 2 * dtfe_only.dtfe_bytes);
    let held: usize = [0, 3, 6]
        .map(|t| cache.peek(&TileKey::new("m", t)).expect("resident").bytes())
        .iter()
        .sum();
    assert_eq!(held, cache.resident_bytes());
    service.drain();
    std::fs::remove_dir_all(&dir).ok();
}

/// What the build path reports: one `service.tile_build` (and one
/// `delaunay.build`) per tile however many estimators ask, one
/// `service.table_build` per table naming its estimator, the extraction
/// under a span of its own, and the two counters CI reads.
#[test]
fn traces_name_one_mesh_build_per_tile_and_one_fill_per_table() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("dtfe_one_mesh_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(SIDE));
    write_snapshot(&dir.join("m.snap"), &[cloud(2_000, 99)], bounds).unwrap();
    let mut cfg = ServiceConfig::new(FIELD_LEN, RESOLUTION);
    cfg.tiles = 8;
    let decomp = Decomposition::new(bounds, cfg.tiles);

    let recorder = dtfe_telemetry::Recorder::new("one_mesh");
    let installed = recorder.install_global();
    let service = Service::start(&dir, cfg).unwrap();
    for tile in [0, 5] {
        for _round in 0..2 {
            for kind in KINDS {
                let req = RenderRequest::new("m", decomp.rank_box(tile).center()).estimator(kind);
                service.render(&req).expect("served");
            }
        }
    }
    service.drain();
    drop(installed);
    let snapshot = recorder.snapshot();

    let spans = |name: &'static str| snapshot.spans.iter().filter(move |s| s.name == name);
    assert_eq!(spans("service.tile_build").count(), 2);
    // The mesh, and two jittered realizations for each stochastic table.
    assert_eq!(spans("delaunay.build").count(), 2 + 2 * 2);
    let mut filled: Vec<&str> = spans("service.table_build")
        .flat_map(|s| &s.args)
        .filter(|(key, _)| key == "estimator")
        .map(|(_, label)| label.as_str())
        .collect();
    filled.sort_unstable();
    // `veldiv` found `psdtfe`'s tables.
    assert_eq!(
        filled,
        [
            "dtfe",
            "dtfe",
            "psdtfe",
            "psdtfe",
            "stochastic",
            "stochastic"
        ]
    );
    // Cut once for the mesh and once each for the two fills that need
    // positions (DTFE's needs only the particle count).
    assert_eq!(spans("service.tile_extract").count(), 2 * 3);
    let counters = &snapshot.metrics.counters;
    assert_eq!(counters.get("service.tile_mesh_builds"), Some(&2));
    assert_eq!(counters.get("service.tile_table_builds"), Some(&6));
    std::fs::remove_dir_all(&dir).ok();
}
