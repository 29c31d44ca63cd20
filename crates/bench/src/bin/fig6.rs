//! Figure 6: shared-memory kernel comparison — per-thread interpolation
//! time of the walking 3D-grid renderer (DTFE public software analog, with
//! its static per-thread volume decomposition) vs our marching kernel
//! (dynamic cell scheduling), on one grid from one triangulation.
//!
//! Paper setting: 650,466 particles (Gadget demo), 1024³ grid, 24 threads;
//! our kernel ~10× faster with visibly flatter per-thread times.
//!
//! ```text
//! cargo run --release -p dtfe-bench --bin fig6 [--scale small|medium|paper]
//! ```

use dtfe_bench::{dynamic_schedule, mean, static_schedule, wall_of, Scale, SeriesWriter};
use dtfe_core::density::{DtfeField, Mass};
use dtfe_core::grid::{GridSpec2, GridSpec3};
use dtfe_core::marching::{cell_value, HullIndex, MarchOptions, MarchStats};
use dtfe_core::walking::walk_column;
use dtfe_geometry::Vec2;
use dtfe_nbody::datasets::gadget_demo_like;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    let n_side = scale.pick(16usize, 32, 64);
    let ng = scale.pick(96usize, 192, 384);
    let nthreads = 24; // the paper's thread count
    let (particles, box_len) = gadget_demo_like(n_side, 1);
    println!(
        "# fig6: {} particles, {ng}³-equivalent grid, {nthreads} threads (emulated)",
        particles.len()
    );

    let t0 = Instant::now();
    let field = DtfeField::build(&particles, Mass::Uniform(1.0)).expect("triangulation");
    // The walk reads the interpolants; write them outside the timing, as
    // the march's first render writes them before its cells are timed.
    field.rows();
    println!(
        "# triangulation: {:.2}s (excluded from the comparison, as in the paper)",
        t0.elapsed().as_secs_f64()
    );

    let grid = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(box_len, box_len), ng, ng);
    let g3 = GridSpec3::lift(&grid, 0.0, box_len, ng);

    // --- Walking baseline: per-column costs (each column = ng cell locates).
    let t_all = Instant::now();
    let mut walk_costs = Vec::with_capacity(ng * ng);
    for j in 0..ng {
        for i in 0..ng {
            let t = Instant::now();
            let v = walk_column(&field, &g3, i, j, 1);
            walk_costs.push(t.elapsed().as_secs_f64());
            std::hint::black_box(v);
        }
    }
    let walk_total = t_all.elapsed().as_secs_f64();

    // --- Marching kernel: per-cell costs.
    let index = HullIndex::build(&field);
    let opts = MarchOptions::new().parallel(false);
    let mut stats = MarchStats::default();
    let t_all = Instant::now();
    let mut march_costs = Vec::with_capacity(ng * ng);
    for j in 0..ng {
        for i in 0..ng {
            let t = Instant::now();
            let v = cell_value(&field, &index, &grid, i, j, &opts, &mut stats);
            march_costs.push(t.elapsed().as_secs_f64());
            std::hint::black_box(v);
        }
    }
    let march_total = t_all.elapsed().as_secs_f64();

    // Distribute costs over threads the way each code schedules them.
    let walk_threads = static_schedule(&walk_costs, nthreads);
    let march_threads = dynamic_schedule(&march_costs, nthreads);

    let mut w = SeriesWriter::create("fig6_thread_times", "method,thread,time_s");
    for (t, v) in walk_threads.iter().enumerate() {
        w.row(&format!("DTFE-walking,{t},{v:.6}"));
    }
    for (t, v) in march_threads.iter().enumerate() {
        w.row(&format!("our-marching,{t},{v:.6}"));
    }
    drop(w);

    let mut s = SeriesWriter::create("fig6_summary", "metric,walking,marching,ratio");
    s.row(&format!(
        "total_cpu_s,{walk_total:.3},{march_total:.3},{:.2}",
        walk_total / march_total
    ));
    s.row(&format!(
        "thread_mean_s,{:.4},{:.4},{:.2}",
        mean(&walk_threads),
        mean(&march_threads),
        mean(&walk_threads) / mean(&march_threads)
    ));
    s.row(&format!(
        "thread_wall_s,{:.4},{:.4},{:.2}",
        wall_of(&walk_threads),
        wall_of(&march_threads),
        wall_of(&walk_threads) / wall_of(&march_threads)
    ));
    let spread =
        |v: &[f64]| (wall_of(v) - v.iter().cloned().fold(f64::INFINITY, f64::min)) / mean(v);
    s.row(&format!(
        "thread_spread,{:.3},{:.3},{:.2}",
        spread(&walk_threads),
        spread(&march_threads),
        spread(&walk_threads) / spread(&march_threads).max(1e-9)
    ));
    println!(
        "# paper: ~10x kernel speedup, walking threads visibly imbalanced; \
         measured speedup {:.1}x",
        wall_of(&walk_threads) / wall_of(&march_threads)
    );
}
