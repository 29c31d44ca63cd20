//! The two render kernels priced side by side: nanoseconds per
//! `(line, tetrahedron)` pair for the march (`core::marching`) and the
//! element projector (`core::projector`) on the scenes the benchmark
//! renders, and the crossover that sets `marching::PROJECT_MIN_PAIRS`.
//!
//! Every scene is rendered by both kernels, whichever one the render would
//! select: the projector draws centre lines only, so on a jittered scene it
//! is priced on the centre-sampled field of the same grid. Each kernel's
//! time is divided by its own pair count. One thread, medians of
//! alternating repeats — and, for two renders that project in parallel,
//! on the whole Rayon pool. Two sweeps follow: the full-depth crossover
//! that sets `PROJECT_MIN_PAIRS`, and the windowed one, over served
//! windows inside padded tiles, that sets `PROJECT_MIN_WINDOW_PAIRS`.
//!
//! ```text
//! cargo run --release -p dtfe-bench --bin kernels [--scale small|medium|paper]
//! ```

use dtfe_bench::{Scale, SeriesWriter};
use dtfe_core::density::{DtfeField, Mass};
use dtfe_core::grid::GridSpec2;
use dtfe_core::marching::{
    pairs_per_tet, projects, surface_density_by, HullIndex, Kernel, MarchOptions,
    PROJECT_MIN_PAIRS, PROJECT_MIN_WINDOW_PAIRS,
};
use dtfe_core::{EstimatorKind, FieldEstimator, PsDtfeField};
use dtfe_geometry::{Aabb3, Vec2, Vec3};
use dtfe_lensing::configs::galaxy_galaxy_centers;
use dtfe_nbody::datasets::cluster_with_substructure;
use dtfe_nbody::halos::{clustered_box, ClusteredBoxSpec};
use std::time::Instant;

/// A clustered box shaped like the benchmark's: 70 % of the particles in
/// halos of 100–1000 raw occupation.
fn halo_box(box_len: f64, n: usize, n_halos: usize, seed: u64) -> (Vec<Vec3>, Aabb3, Vec<Vec3>) {
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(box_len));
    let mut spec = ClusteredBoxSpec::new(bounds, n, n_halos, seed);
    spec.occupation_range = (100.0, 1000.0);
    let (pts, halos) = clustered_box(&spec);
    let centres = galaxy_galaxy_centers(&halos, n_halos, bounds, 1.5);
    (pts, bounds, centres)
}

fn in_cube(pts: &[Vec3], c: Vec3, side: f64) -> Vec<Vec3> {
    let cube = Aabb3::cube(c, side);
    pts.iter()
        .copied()
        .filter(|&p| cube.contains_closed(p))
        .collect()
}

/// Seconds and pairs of one render by `kernel`.
fn time<E: FieldEstimator + ?Sized>(
    field: &E,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
    kernel: Kernel,
) -> (f64, u64) {
    let t = Instant::now();
    let (sigma, stats) = surface_density_by(field, index, grid, opts, kernel);
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(sigma);
    (s, stats.crossings)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// One scene's prices: medians over `reps` alternating renders.
struct Priced {
    march_s: f64,
    march_pairs: u64,
    project_s: f64,
    project_pairs: u64,
}

impl Priced {
    fn of<E: FieldEstimator + ?Sized>(
        field: &E,
        grid: &GridSpec2,
        opts: &MarchOptions,
        reps: usize,
    ) -> Priced {
        let index = HullIndex::build(field);
        let (mut m, mut p) = (Vec::new(), Vec::new());
        let (mut march_pairs, mut project_pairs) = (0, 0);
        for _ in 0..reps {
            let (s, n) = time(field, &index, grid, opts, Kernel::March);
            m.push(s);
            march_pairs = n;
            let (s, n) = time(field, &index, grid, opts, Kernel::Project);
            p.push(s);
            project_pairs = n;
        }
        Priced {
            march_s: median(m),
            march_pairs,
            project_s: median(p),
            project_pairs,
        }
    }

    fn ns_per_pair(s: f64, pairs: u64) -> f64 {
        s * 1e9 / pairs.max(1) as f64
    }
}

fn main() {
    let scale = Scale::from_args();
    let reps = scale.pick(3, 7, 9);
    let serial = |samples| MarchOptions::new().samples(samples).parallel(false);
    println!("# kernels: ns per (line, tetrahedron) pair, one thread, median of {reps}");
    println!("# PROJECT_MIN_PAIRS = {PROJECT_MIN_PAIRS}");
    let mut w = SeriesWriter::create(
        "kernels",
        "scene,est_pairs_per_tet,selected,march_ms,march_pairs,march_ns_per_pair,\
         project_ms,project_pairs,project_ns_per_pair,march_over_project",
    );
    let mut report = |scene: &str, est: f64, selected: bool, p: &Priced| {
        let (m, q) = (
            Priced::ns_per_pair(p.march_s, p.march_pairs),
            Priced::ns_per_pair(p.project_s, p.project_pairs),
        );
        let kernel = if selected { "project" } else { "march" };
        println!(
            "{scene:<28} est {est:>7.2} pairs/tet  selects {kernel:<7}  march {:>8.3} ms \
             {m:>6.1} ns/pair  project {:>8.3} ms {q:>6.1} ns/pair  ×{:.2}",
            p.march_s * 1e3,
            p.project_s * 1e3,
            p.march_s / p.project_s
        );
        w.row(&format!(
            "{scene},{est:.3},{kernel},{:.4},{},{m:.2},{:.4},{},{q:.2},{:.3}",
            p.march_s * 1e3,
            p.march_pairs,
            p.project_s * 1e3,
            p.project_pairs,
            p.march_s / p.project_s
        ));
    };

    // Batch items: a 3³ field cube around a halo, its particles
    // triangulated alone, 64² centre lines over the cube's full depth.
    let (n, items) = scale.pick((30_000, 8), (120_000, 40), (120_000, 120));
    let (pts, _, centres) = halo_box(32.0, n, 180, 1);
    let (mut sm, mut sp, mut pm, mut pp, mut est) = (0.0, 0.0, 0u64, 0u64, 0.0);
    let mut selected = true;
    for &c in centres.iter().take(items) {
        let local = in_cube(&pts, c, 3.0);
        let Ok(field) = DtfeField::build(&local, Mass::Uniform(1.0)) else {
            continue;
        };
        let grid = GridSpec2::square(c.xy(), 3.0, 64);
        let opts = serial(1).z_range(c.z - 1.5, c.z + 1.5);
        selected &= projects(&field, &grid, &opts);
        est += pairs_per_tet(&field, &grid, &opts) / items as f64;
        let p = Priced::of(&field, &grid, &opts, reps);
        (sm, sp, pm, pp) = (
            sm + p.march_s,
            sp + p.project_s,
            pm + p.march_pairs,
            pp + p.project_pairs,
        );
    }
    let total = Priced {
        march_s: sm,
        march_pairs: pm,
        project_s: sp,
        project_pairs: pp,
    };
    report(&format!("batch items ({items})"), est, selected, &total);

    // The kernel_march menus: one resident clustered mesh.
    let (n, cells) = scale.pick((8_000, 96), (32_000, 192), (32_000, 192));
    let (pts, _, _) = halo_box(16.0, n, 64, 1);
    let field = DtfeField::build(&pts, Mass::Uniform(1.0)).expect("triangulation");
    let velocities: Vec<Vec3> = pts
        .iter()
        .map(|p| Vec3::new((0.4 * p.y).sin(), (0.4 * p.z).sin(), (0.4 * p.x).sin()))
        .collect();
    let ps = PsDtfeField::build(&pts, &velocities, Mass::Uniform(1.0)).expect("PS-DTFE field");
    let margin = 0.02 * 16.0;
    let grid = |c: usize| {
        GridSpec2::covering(
            Vec2::new(-margin, -margin),
            Vec2::new(16.0 + margin, 16.0 + margin),
            c,
            c,
        )
    };
    let menu = [
        ("kernel_march dense", grid(cells), serial(2), false),
        (
            "kernel_march multisample",
            grid(cells / 2),
            serial(4),
            false,
        ),
        (
            "kernel_march sparse",
            grid(cells / 4),
            serial(1).estimator(EstimatorKind::PsDtfe),
            true,
        ),
    ];
    for (scene, g, opts, psd) in &menu {
        let p = if *psd {
            (
                pairs_per_tet(&ps, g, opts),
                projects(&ps, g, opts),
                Priced::of(&ps, g, opts, reps),
            )
        } else {
            (
                pairs_per_tet(&field, g, opts),
                projects(&field, g, opts),
                Priced::of(&field, g, opts, reps),
            )
        };
        report(scene, p.0, p.1, &p.2);
    }

    // Parallel renders that project: the CLI's default `dtfe render` of a
    // 30k-particle cluster (128², 8 bands) and Fig. 1 at small scale
    // (100k particles, 256², 16 bands), both kernels on the whole pool.
    let threads = rayon::current_num_threads();
    println!("# parallel renders, {threads} threads");
    for (scene, n, cells, side) in [
        ("cli render", 30_000, 128, None),
        ("fig1 small", 100_000, 256, Some(4.0)),
    ] {
        let (pts, bounds) = cluster_with_substructure(n, 7);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).expect("triangulation");
        let g = match side {
            Some(side) => GridSpec2::square(bounds.center().xy(), side, cells),
            None => GridSpec2::covering(bounds.lo.xy(), bounds.hi.xy(), cells, cells),
        };
        for (how, opts) in [("serial", serial(1)), ("parallel", MarchOptions::new())] {
            let p = Priced::of(&field, &g, &opts, reps);
            let (est, selected) = (
                pairs_per_tet(&field, &g, &opts),
                projects(&field, &g, &opts),
            );
            report(&format!("{scene} ({how})"), est, selected, &p);
        }
    }

    // The crossover: centre lines over the whole depth of one mesh, the
    // grid swept from sparse to dense.
    println!("# crossover sweep: centre lines, full depth");
    let mut sweep = SeriesWriter::create(
        "kernels_crossover",
        "mesh,cells,est_pairs_per_tet,pairs_per_tet,march_ms,project_ms,march_over_project",
    );
    let item = in_cube(&pts, Vec3::splat(8.0), 3.0);
    let meshes = [
        (
            "item",
            DtfeField::build(&item, Mass::Uniform(1.0)).expect("item"),
        ),
        ("box", field),
    ];
    for (mesh, f) in &meshes {
        let tets = f.delaunay().num_tets();
        let (lo, hi) = f.delaunay().vertices().iter().fold(
            (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY)),
            |(lo, hi), &p| (lo.min(p), hi.max(p)),
        );
        for c in [8usize, 12, 16, 24, 32, 48, 64, 96, 128] {
            let g = GridSpec2::covering(lo.xy(), hi.xy(), c, c);
            let opts = serial(1);
            let p = Priced::of(f, &g, &opts, reps);
            let est = pairs_per_tet(f, &g, &opts);
            let real = p.project_pairs as f64 / tets as f64;
            println!(
                "{mesh:<4} {c:>4}²  est {est:>7.2}  real {real:>7.2} pairs/tet  \
                 march {:>8.3} ms  project {:>8.3} ms  ×{:.2}",
                p.march_s * 1e3,
                p.project_s * 1e3,
                p.march_s / p.project_s
            );
            sweep.row(&format!(
                "{mesh},{c},{est:.3},{real:.3},{:.4},{:.4},{:.3}",
                p.march_s * 1e3,
                p.project_s * 1e3,
                p.march_s / p.project_s
            ));
        }
    }

    // The windowed crossover: centre lines under a served window — a
    // 4³ field cube inside a tile padded by 2, as `serve_warm` (40k
    // particles, 8 tiles) and `serve_churn` (120k, 27 tiles) serve it — the
    // grid swept from sparse to dense, three windows per tile. The
    // projector is priced twice: gathering the tetrahedra the window's box
    // meets, as a render does, and scanning every tetrahedron of the tile.
    println!("# windowed crossover sweep: centre lines, served windows, 3 per tile");
    println!("# PROJECT_MIN_WINDOW_PAIRS = {PROJECT_MIN_WINDOW_PAIRS}");
    let mut sweep = SeriesWriter::create(
        "kernels_window_crossover",
        "tile,cells,est_pairs_per_tet,selected,pairs_per_line,march_ms,project_ms,scan_ms,\
         march_over_project",
    );
    let (box_len, field_len) = (32.0, 4.0);
    for (tile, n, per_axis) in [("warm", 40_000, 2usize), ("churn", 120_000, 3)] {
        let (pts, _, _) = halo_box(box_len, n, 16 * per_axis.pow(3), 1);
        let side = box_len / per_axis as f64;
        let padded = Aabb3::new(
            Vec3::splat(-0.5 * field_len),
            Vec3::splat(side + 0.5 * field_len),
        );
        let local: Vec<Vec3> = pts
            .iter()
            .copied()
            .filter(|&p| padded.contains_closed(p))
            .collect();
        let field = DtfeField::build(&local, Mass::Uniform(1.0)).expect("tile triangulation");
        let index = HullIndex::build(&field);
        let centres = [(0.5, 0.5, 0.5), (0.3, 0.6, 0.4), (0.7, 0.35, 0.65)]
            .map(|(x, y, z)| Vec3::new(x, y, z) * side);
        for cells in [8usize, 12, 16, 24, 32, 48, 64] {
            let (mut est, mut selected, mut pairs) = (0.0, true, 0u64);
            let mut secs = [0.0; 3];
            for c in centres {
                let g = GridSpec2::square(c.xy(), field_len, cells);
                let opts = serial(1).z_range(c.z - 0.5 * field_len, c.z + 0.5 * field_len);
                est += pairs_per_tet(&field, &g, &opts) / centres.len() as f64;
                selected &= projects(&field, &g, &opts);
                let kernels = [Kernel::March, Kernel::Project, Kernel::ProjectScan];
                let mut t = kernels.map(|_| Vec::new());
                for _ in 0..reps {
                    for (k, &kernel) in kernels.iter().enumerate() {
                        let (s, n) = time(&field, &index, &g, &opts, kernel);
                        t[k].push(s);
                        if kernel == Kernel::March {
                            pairs += n;
                        }
                    }
                }
                for (k, t) in t.into_iter().enumerate() {
                    secs[k] += median(t);
                }
            }
            let per_line = pairs as f64 / (reps * centres.len() * cells * cells) as f64;
            let kernel = if selected { "project" } else { "march" };
            let [m, p, q] = secs.map(|s| s * 1e3);
            println!(
                "{tile:<5} {cells:>3}²  est {est:>7.2} pairs/tet  selects {kernel:<7}  \
                 {per_line:>6.2} pairs/line  march {m:>7.3} ms  project {p:>7.3} ms  \
                 scan {q:>7.3} ms  ×{:.2}",
                m / p
            );
            sweep.row(&format!(
                "{tile},{cells},{est:.3},{kernel},{per_line:.4},{m:.4},{p:.4},{q:.4},{:.3}",
                m / p
            ));
        }
    }
}
