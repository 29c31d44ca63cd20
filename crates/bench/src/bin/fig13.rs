//! Figure 13: the large-scale (MiraU) experiment — 233,230 fields on
//! 4,096–16,384 ranks — replayed through the discrete-event schedule
//! simulator (running 16k OS threads on one node is not possible; see
//! DESIGN.md substitutions).
//!
//! One fixed, spatially-autocorrelated population of work items is
//! re-partitioned for every rank count. A fixed sprinkling of "degenerate
//! point configurations" (items whose real cost vastly exceeds the model's
//! prediction) is irrelevant while per-rank loads are large, but at 16k
//! ranks a single degenerate item exceeds the mean rank load: the senders
//! holding them stall, their receivers idle, and the work-sharing speedup
//! drops — the knee the paper reports.
//!
//! ```text
//! cargo run --release -p dtfe-bench --bin fig13 [--scale small|medium|paper]
//! ```

use dtfe_bench::{Scale, SeriesWriter};
use dtfe_framework::eventsim::{
    normalized_std, partition_items, simulate_balanced, simulate_unbalanced, synth_global_workload,
    SimParams,
};

fn main() {
    let scale = Scale::from_args();
    let total_fields = scale.pick(65_536usize, 131_072, 233_230);
    let n_degenerate = 8;
    // Degenerate items end up ~ a few × the 16k-rank mean load: atomic
    // work that cannot be balanced away at the largest scale.
    let degenerate_factor = 12.0;
    let ranks: &[usize] = &[1024, 2048, 4096, 6144, 8192, 12288, 16384];

    println!(
        "# fig13: {total_fields} fields (event-simulated), {n_degenerate} degenerate items x{degenerate_factor:.0}"
    );
    let items = synth_global_workload(total_fields, 0.6, 0.15, n_degenerate, degenerate_factor, 9);
    let total_cost: f64 = items.iter().map(|&(_, a)| a).sum();
    println!("# total work: {total_cost:.0} cost units");

    let mut times = SeriesWriter::create(
        "fig13_times",
        "nranks,unbalanced_wall,balanced_wall,work_sharing_speedup,transfers,balanced_norm_std",
    );
    let mut speed = SeriesWriter::create("fig13_speedup", "nranks,total_speedup,ideal");
    let params = SimParams::default();
    let mut base: Option<f64> = None;
    for &p in ranks {
        let work = partition_items(&items, p);
        let unbal = simulate_unbalanced(&work);
        let bal = simulate_balanced(&work, &params).expect("synthetic costs are finite");
        times.row(&format!(
            "{p},{:.1},{:.1},{:.2},{},{:.3}",
            unbal.wall,
            bal.wall,
            unbal.wall / bal.wall,
            bal.transfers,
            normalized_std(&bal.finish)
        ));
        // Total speedup normalized so the first point sits on the ideal
        // line, as the paper plots it.
        let b = *base.get_or_insert(bal.wall * ranks[0] as f64);
        speed.row(&format!("{p},{:.0},{p}", b / bal.wall));
    }
    println!(
        "# paper: ~3.6x work-sharing speedup mid-scale; total speedup near-linear \
         until 16,384 ranks where the degenerate configurations bite"
    );
}
