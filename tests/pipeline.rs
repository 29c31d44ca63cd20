//! End-to-end integration tests spanning all crates: data generation →
//! triangulation → DTFE → kernels → baselines → distributed framework →
//! lensing.

use dtfe_repro::core::density::{DtfeField, Mass};
use dtfe_repro::core::grid::GridSpec2;
use dtfe_repro::core::marching::{surface_density_with_stats, MarchOptions};
use dtfe_repro::core::walking::surface_density_walking;
use dtfe_repro::framework::{run_distributed, FieldRequest, FrameworkConfig};
use dtfe_repro::geometry::{Aabb3, Vec2, Vec3};
use dtfe_repro::lensing::configs::galaxy_galaxy_centers;
use dtfe_repro::lensing::deflection::deflection_maps;
use dtfe_repro::lensing::thin_lens::{convergence_map, critical_surface_density};
use dtfe_repro::nbody::datasets::{cluster_with_substructure, galaxy_box, planck_like};
use dtfe_repro::nbody::fof::fof_groups;
use dtfe_repro::tess::VoronoiDensity;

#[test]
fn zeldovich_to_surface_density_conserves_mass() {
    let box_len = 16.0;
    let pts = planck_like(16, box_len, 31);
    let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
    assert!((field.integrated_mass() - pts.len() as f64).abs() < 1e-9 * pts.len() as f64);

    let grid = GridSpec2::covering(Vec2::new(-0.5, -0.5), Vec2::new(16.5, 16.5), 64, 64);
    let (sigma, stats) = surface_density_with_stats(&field, &grid, &MarchOptions::default());
    assert_eq!(stats.failures, 0);
    let m = sigma.total_mass();
    assert!(
        (m - pts.len() as f64).abs() < 0.03 * pts.len() as f64,
        "grid mass {m} vs {} particles",
        pts.len()
    );
}

#[test]
fn three_estimators_agree_on_smooth_data() {
    // Marching, walking, and the zero-order baseline must agree to within
    // the expected discretization/bias differences on a mildly clustered
    // volume.
    let box_len = 12.0;
    let pts = planck_like(16, box_len, 77);
    let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
    let grid = GridSpec2::square(Vec2::new(6.0, 6.0), 8.0, 24);

    let marched = dtfe_repro::core::marching::surface_density(
        &field,
        &grid,
        &MarchOptions::new().z_range(0.0, box_len),
    );
    let walked = surface_density_walking(
        &field,
        &grid,
        &MarchOptions::new().z_range(0.0, box_len),
        256,
    );
    let vd = VoronoiDensity::from_dtfe(&field);
    let dense = vd.surface_density(&grid, (0.0, box_len), 256, true);

    let rel_l1 = |a: &[f64], b: &[f64]| {
        let denom: f64 = a.iter().sum();
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / denom
    };
    let walk_err = rel_l1(&marched.data, &walked.data);
    assert!(walk_err < 0.03, "walking vs marching rel-L1 {walk_err}");
    // Zero-order differs more (the Fig. 8 bias), but not wildly.
    let dense_err = rel_l1(&marched.data, &dense.data);
    assert!(dense_err < 0.5, "zero-order vs marching rel-L1 {dense_err}");
}

#[test]
fn halo_pipeline_fof_to_framework_to_lensing() {
    // The full galaxy-galaxy pipeline: clustered box → FOF halos → field
    // requests → distributed framework → convergence + deflection of one
    // field.
    let box_len = 24.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(box_len));
    let (pts, catalog) = galaxy_box(box_len, 40_000, 24, 5);

    // FOF rediscovers the planted halos (linking length tuned to the NFW
    // scale radii); centres should be near catalog centres.
    let groups = fof_groups(&pts, 0.25, 40);
    assert!(!groups.is_empty(), "FOF found nothing");
    let top = &groups[0];
    let nearest_catalog = catalog
        .iter()
        .map(|h| h.center.distance(top.center))
        .fold(f64::INFINITY, f64::min);
    assert!(
        nearest_catalog < 1.0,
        "top FOF group {:.2} from any catalog halo",
        nearest_catalog
    );

    // Field requests on FOF-mass-ranked centres (as the MiraU experiment).
    let field_len = 3.0;
    let centers: Vec<Vec3> = groups
        .iter()
        .map(|g| g.center)
        .filter(|c| {
            let m = field_len * 0.5;
            c.x > m
                && c.y > m
                && c.z > m
                && c.x < box_len - m
                && c.y < box_len - m
                && c.z < box_len - m
        })
        .take(8)
        .collect();
    assert!(centers.len() >= 4);
    let requests: Vec<FieldRequest> = centers
        .iter()
        .map(|&c| FieldRequest { center: c })
        .collect();

    let cfg = FrameworkConfig {
        keep_fields: true,
        resolution: 32,
        ..FrameworkConfig::new(field_len, 32)
    };
    let run = run_distributed(4, &pts, bounds, &requests, &cfg).unwrap();
    let fields: Vec<_> = run.ranks.into_iter().flat_map(|r| r.fields).collect();
    assert_eq!(fields.len(), requests.len());

    // Densest field: positive everywhere near the halo, peaked at centre.
    let (_, sigma) = fields
        .iter()
        .max_by(|a, b| a.1.total_mass().partial_cmp(&b.1.total_mass()).unwrap())
        .unwrap();
    assert!(sigma.total_mass() > 0.0);
    let (_, peak) = sigma.min_max();
    assert!(peak > 0.0);

    // Lensing maps on a power-of-two upsample-free grid: resolution 32 ✓.
    let kappa = convergence_map(
        sigma,
        critical_surface_density(1000.0, 2000.0, 1000.0) / 1e12,
    );
    let maps = deflection_maps(&kappa);
    assert!(maps.alpha_x.data.iter().all(|v| v.is_finite()));
    assert!(maps.gamma1.data.iter().all(|v| v.is_finite()));
}

#[test]
fn galaxy_galaxy_centers_from_catalog_work_in_framework() {
    let box_len = 20.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(box_len));
    let (pts, halos) = galaxy_box(box_len, 25_000, 16, 13);
    let centers = galaxy_galaxy_centers(&halos, 10, bounds, 1.0);
    let requests: Vec<FieldRequest> = centers
        .iter()
        .map(|&c| FieldRequest { center: c })
        .collect();
    for balance in [true, false] {
        let cfg = FrameworkConfig {
            balance,
            ..FrameworkConfig::new(2.0, 16)
        };
        let run = run_distributed(3, &pts, bounds, &requests, &cfg).unwrap();
        assert_eq!(run.computed, requests.len());
    }
}

#[test]
fn telemetry_snapshot_run_exports_trace_and_imbalance() {
    // The observability acceptance test: a snapshot-driven distributed run
    // with telemetry on must yield (a) a valid Chrome trace whose phase
    // spans cover ≥95% of every rank's busy time and (b) a metrics JSON
    // document whose per-rank triangulate/interpolate gauges reproduce the
    // Fig. 10 imbalance metric computed by the framework itself.
    use dtfe_repro::nbody::snapshot::write_snapshot;
    use dtfe_repro::telemetry::json::Json;
    use dtfe_repro::telemetry::{check, normalized_std};

    let box_len = 20.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(box_len));
    let (pts, halos) = galaxy_box(box_len, 30_000, 20, 17);
    let mut blocks: Vec<Vec<Vec3>> = vec![Vec::new(); 3];
    for (i, &p) in pts.iter().enumerate() {
        blocks[i % 3].push(p);
    }
    let mut path = std::env::temp_dir();
    path.push(format!("dtfe_pipeline_snap_{}.bin", std::process::id()));
    write_snapshot(&path, &blocks, bounds).unwrap();

    let requests: Vec<FieldRequest> = halos
        .iter()
        .filter(|h| bounds.inflated(-1.0).contains_closed(h.center))
        .take(10)
        .map(|h| FieldRequest { center: h.center })
        .collect();
    assert!(requests.len() >= 6);
    let nranks = 4;
    let cfg = FrameworkConfig {
        balance: true,
        telemetry: true,
        ..FrameworkConfig::new(2.0, 24)
    };
    let run = dtfe_repro::framework::run_distributed_snapshot(nranks, &path, &requests, &cfg)
        .expect("snapshot run");
    std::fs::remove_file(&path).ok();
    assert_eq!(run.computed, requests.len());

    // (a) Chrome trace: parses, one process per rank, and on every rank
    // the depth-1 phase spans cover ≥95% of the depth-0 rank span's CPU.
    let trace = run.chrome_trace().expect("telemetry attached");
    let stats = check::check_chrome_trace(&trace).expect("valid chrome trace");
    assert_eq!(stats.processes, nranks);
    let snaps = run.telemetry();
    assert_eq!(snaps.len(), nranks);
    for snap in &snaps {
        let busy = snap.span_cpu_s(0);
        let phases = snap.span_cpu_s(1);
        assert!(
            phases >= 0.95 * busy,
            "{}: phase spans cover {phases:.6}s of {busy:.6}s busy",
            snap.label
        );
    }

    // (b) Metrics JSON: per-rank tri/interp gauges round-trip exactly, so
    // the imbalance recomputed from the exported document equals the
    // framework's own Fig. 10 metric.
    let metrics = run.metrics_json().expect("telemetry attached");
    check::check_metrics_json(&metrics).expect("valid metrics json");
    let doc = Json::parse(&metrics).unwrap();
    let ranks = doc.get("ranks").and_then(|r| r.as_arr()).unwrap();
    assert_eq!(ranks.len(), nranks);
    let mut times = vec![0.0; nranks];
    for r in ranks {
        let label = r.get("label").and_then(|l| l.as_str()).unwrap();
        let idx: usize = label.strip_prefix("rank").unwrap().parse().unwrap();
        let gauges = r.get("gauges").unwrap();
        let tri = gauges
            .get("framework.triangulate_s")
            .and_then(|v| v.as_f64())
            .unwrap();
        let interp = gauges
            .get("framework.interpolate_s")
            .and_then(|v| v.as_f64())
            .unwrap();
        times[idx] = tri + interp;
    }
    let from_json = normalized_std(&times);
    assert!(
        (from_json - run.imbalance()).abs() < 1e-12,
        "imbalance from exported JSON {from_json} vs framework {}",
        run.imbalance()
    );
    assert!(from_json.is_finite());
}

#[test]
fn cluster_dataset_renders_like_fig1() {
    let (pts, bounds) = cluster_with_substructure(20_000, 3);
    let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
    let grid = GridSpec2::square(bounds.center().xy(), 3.0, 64);
    let sigma =
        dtfe_repro::core::marching::surface_density(&field, &grid, &MarchOptions::default());
    // Strong central concentration: peak well above the edge mean.
    let peak = sigma.min_max().1;
    let edge_mean = (0..64).map(|i| sigma.at(i, 0)).sum::<f64>() / 64.0;
    assert!(
        peak > 10.0 * edge_mean.max(1e-12),
        "no central concentration: peak {peak}, edge {edge_mean}"
    );
}
