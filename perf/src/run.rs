//! One run of one workload: set-up, timed phase, verification, and the
//! metrics computed from them. A traced run repeats the timed phase under a
//! `dtfe_telemetry::Recorder` and derives the per-layer metrics that need the
//! crates' own counters and spans.

use crate::measure::{self, Samples};
use crate::report::Report;
use crate::table;
use dtfe_telemetry::{MetricsSnapshot, Recorder, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How many times an untraced run sets up; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny fixed sizes and one round: the unit tests' end-to-end check.
    pub smoke: bool,
}

/// What a set-up or a timed phase accumulates.
#[derive(Default)]
pub struct Phase {
    /// Latency of each timed operation.
    pub op_ms: Vec<f64>,
    /// Fields delivered (their bytes are checked in `round` or `verify`).
    pub fields: u64,
    pub attempted: u64,
    pub failed: u64,
    pub layers: Samples,
}

impl Phase {
    /// Count one operation that delivered `fields` fields, `ok` or not.
    pub fn op(&mut self, ms: f64, fields: u64, ok: bool) {
        self.op_ms.push(ms);
        self.attempted += 1;
        if ok {
            self.fields += fields;
        } else {
            self.failed += 1;
        }
    }
}

/// A workload holds the inputs made from the seed (making them is the
/// benchmark's work, not the program's, and is not timed); it offers a set-up
/// that can be repeated, a round of operations that can be repeated, and a
/// check of what was served.
pub trait Workload {
    /// Everything `setup` builds: the system under test, ready for `round`.
    type State;

    /// Bring the system up to its first timed operation, warm-up included.
    fn setup(&self, phase: &mut Phase) -> Self::State;

    /// One whole round: a fixed list of operations, the same every time, so
    /// per-operation counts do not depend on how many rounds fit the clock.
    fn round(&self, state: &mut Self::State, phase: &mut Phase);

    /// Check what the state served against an independent reference. Runs
    /// after the clocks and the memory high-water mark have been read.
    fn verify(&self, _state: &mut Self::State, _phase: &mut Phase) {}

    fn teardown(&self, _state: Self::State) {}
}

/// Scratch space inside the build directory: the benchmark writes nowhere
/// else.
pub fn work_root() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent().expect("exe has a parent").join("perf-work")
}

struct Timed {
    phase: Phase,
    wall_s: f64,
    cpu_s: f64,
    /// `VmHWM` after the first round: the set-up and one round are the same
    /// work whatever the clock allowed afterwards.
    peak_rss_mb: f64,
}

fn timed_phase<W: Workload>(w: &W, state: &mut W::State, seconds: f64) -> Timed {
    let mut phase = Phase::default();
    let mut peak_rss_mb = None;
    let cpu0 = measure::process_cpu_s();
    let t0 = Instant::now();
    let wall_s = loop {
        w.round(state, &mut phase);
        peak_rss_mb.get_or_insert_with(measure::peak_rss_mb);
        let wall_s = t0.elapsed().as_secs_f64();
        if wall_s >= seconds {
            break wall_s;
        }
    };
    Timed {
        cpu_s: measure::process_cpu_s() - cpu0,
        wall_s,
        phase,
        peak_rss_mb: peak_rss_mb.expect("at least one round ran"),
    }
}

/// Run the workload `prepare` makes; it is handed a scratch directory that
/// is removed when the run ends.
pub fn run<W: Workload>(name: &str, args: &Args, prepare: impl FnOnce(&Path) -> W) -> Report {
    let dir = work_root().join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work dir");
    let w = prepare(&dir);
    let report = if args.traced {
        run_traced(&w, name, args)
    } else {
        run_untraced(&w, args)
    };
    std::fs::remove_dir_all(&dir).ok();
    report
}

fn run_untraced<W: Workload>(w: &W, args: &Args) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut set_up = |report: &mut Report| {
        let mut phase = Phase::default();
        let t0 = Instant::now();
        let state = w.setup(&mut phase);
        setup_s.push(t0.elapsed().as_secs_f64());
        report.attempted += phase.attempted;
        report.failed += phase.failed;
        (state, phase)
    };
    // The timed phase runs on the first set-up, so the memory high-water
    // mark is that of a process that set up once, as a user's does. The
    // other set-ups come after the verification and are only timed.
    let (mut state, setup) = set_up(&mut report);
    let mut timed = timed_phase(w, &mut state, args.seconds);
    w.verify(&mut state, &mut timed.phase);
    w.teardown(state);
    for _ in 1..if args.smoke { 1 } else { SETUP_REPEATS } {
        let (state, _) = set_up(&mut report);
        w.teardown(state);
    }

    end_to_end(&mut report, &timed);
    report.set("setup_s", measure::median(&setup_s));
    report.set("peak_rss_mb", timed.peak_rss_mb);
    let mut layers = setup.layers;
    layers.merge(std::mem::take(&mut timed.phase.layers));
    layer_samples(&mut report, &layers);
    client_tail(&mut report, &timed.phase.op_ms);
    report
}

fn run_traced<W: Workload>(w: &W, name: &str, args: &Args) -> Report {
    let mut report = Report::default();
    // The untraced third: the same rounds with telemetry off, so the price
    // of the recorder is measured inside this run.
    let mut scratch = Phase::default();
    let mut state = w.setup(&mut scratch);
    let plain = timed_phase(w, &mut state, args.seconds / 3.0);
    w.teardown(state);

    // No rotating windows: nothing here reads live quantiles.
    let recorder = Recorder::with_windows("perf", 0, std::time::Duration::from_secs(1));
    let guard = recorder.install_global();
    let mut setup = Phase::default();
    let mut state = w.setup(&mut setup);
    let before = recorder.snapshot().metrics;
    let window_from_us = dtfe_telemetry::clock::now_us();
    let mut timed = timed_phase(w, &mut state, args.seconds * 2.0 / 3.0);
    let after = recorder.snapshot();
    w.verify(&mut state, &mut timed.phase);
    w.teardown(state);
    drop(guard);

    report.attempted += scratch.attempted + plain.phase.attempted + setup.attempted;
    report.failed += scratch.failed + plain.phase.failed + setup.failed;
    end_to_end(&mut report, &timed);
    let mut layers = setup.layers;
    layers.merge(std::mem::take(&mut timed.phase.layers));
    harvest_spans(&mut layers, &after, window_from_us);
    layer_samples(&mut report, &layers);
    counters(&mut report, &before, &after.metrics, timed.phase.attempted);
    client_tail(&mut report, &timed.phase.op_ms);
    let overhead = measure::median(&timed.phase.op_ms) / measure::median(&plain.phase.op_ms) - 1.0;
    report.set("trace.overhead_pct", overhead * 100.0);

    print_self_times(&after);
    let trace = dtfe_telemetry::chrome_trace(std::slice::from_ref(&after));
    let stats = dtfe_telemetry::check::check_chrome_trace(&trace).unwrap_or_else(|e| {
        report.failed += 1;
        eprintln!("trace failed check_chrome_trace: {e}");
        Default::default()
    });
    let path = work_root().join(format!("perf_{name}.trace.json"));
    std::fs::write(&path, trace).expect("write trace");
    println!(
        "# trace: {} spans in {} events -> {}",
        stats.spans,
        stats.events,
        path.display()
    );
    report
}

/// The three end-to-end metrics a timed phase gives; `setup_s` and
/// `peak_rss_mb` belong to the untraced run alone.
fn end_to_end(report: &mut Report, timed: &Timed) {
    let phase = &timed.phase;
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    let fields = phase.fields.max(1) as f64;
    report.set("fields_per_s", fields / timed.wall_s);
    report.set("op_p50_ms", measure::median(&phase.op_ms));
    report.set("cpu_ms_per_field", timed.cpu_s * 1e3 / fields);
}

fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// Samples become metrics: a timing is reported as its median, anything
/// else (a ratio, a size, a count per operation) as its mean.
fn layer_samples(report: &mut Report, layers: &Samples) {
    for name in layers.names() {
        let decl = table::metric(name)
            .unwrap_or_else(|| panic!("sample {name:?} is not declared in table::METRICS"));
        let value = if is_time_unit(decl.unit) {
            layers.p50(name)
        } else {
            layers.mean(name)
        };
        report.set(name, value.expect("a recorded name has samples"));
    }
}

fn client_tail(report: &mut Report, op_ms: &[f64]) {
    let sorted = measure::sorted(op_ms);
    let p = measure::tail_percentile(sorted.len());
    report.set("client.op_tail_ms", measure::percentile(&sorted, p));
    report.set("client.op_tail_pct", p * 100.0);
    report.set("client.op_max_ms", sorted.last().copied().unwrap_or(0.0));
    report.set("client.samples", sorted.len() as f64);
}

/// Metrics from the crates' own counters over the traced timed phase: whole
/// rounds, so every ratio repeats exactly for a seed. A layer the harness
/// already sampled from outside (the kernel's `MarchStats`) keeps that value.
fn counters(report: &mut Report, before: &MetricsSnapshot, after: &MetricsSnapshot, ops: u64) {
    let c = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ops = ops.max(1) as f64;
    let mut set = |name: &str, value: f64| {
        if report.get(name).is_none() {
            report.set(name, value);
        }
    };
    let los = c("core.los_marched");
    set("core.tets_per_los", ratio(c("core.tets_crossed"), los));
    set(
        "core.edge_evals_per_los",
        ratio(c("core.plucker_edge_evals"), los),
    );
    let (hit, miss) = (c("core.entry_hint_hit"), c("core.entry_hint_miss"));
    set("core.entry_hint_hit_ratio", ratio(hit, hit + miss));
    set("core.perturbations", c("core.degenerate_restarts") / ops);
    set("core.march_failures", c("core.march_failures") / ops);
    let points = c("delaunay.points_inserted");
    set("delaunay.points_inserted", points / ops);
    set(
        "delaunay.duplicates_merged",
        c("delaunay.duplicates_merged") / ops,
    );
    set("delaunay.serial_builds", c("delaunay.serial_builds") / ops);
    let (o_exact, o_fast) = (
        c("geometry.orient3d_exact"),
        c("geometry.orient3d_filtered"),
    );
    let (i_exact, i_fast) = (
        c("geometry.insphere_exact"),
        c("geometry.insphere_filtered"),
    );
    set(
        "geometry.orient3d_exact_ratio",
        ratio(o_exact, o_exact + o_fast),
    );
    set(
        "geometry.insphere_exact_ratio",
        ratio(i_exact, i_exact + i_fast),
    );
    set(
        "geometry.predicate_calls_per_point",
        ratio(o_exact + o_fast + i_exact + i_fast, points),
    );
}

/// Where a build happens behind the service or the framework the harness
/// cannot put a clock around it; the crates' own spans of the traced timed
/// phase stand in. Layers the harness timed itself keep their samples.
fn harvest_spans(layers: &mut Samples, snap: &TelemetrySnapshot, from_us: u64) {
    let spans = || snap.spans.iter().filter(move |s| s.t0_us >= from_us);
    let mut take = |metric: &'static str, span: &str| {
        if layers.get(metric).is_empty() {
            for s in spans().filter(|s| s.name == span) {
                layers.record(metric, s.dur_us as f64 / 1e3);
            }
        }
    };
    take("delaunay.build_ms", "delaunay.build");
    take("core.march_cache_ms", "core.march_cache_build");
    take("core.hull_index_ms", "core.hull_index_build");
    if layers.get("delaunay.build_us_per_point").is_empty() {
        for s in spans().filter(|s| s.name == "delaunay.build") {
            let n = s.args.iter().find(|(k, _)| k == "n");
            if let Some(n) = n.and_then(|(_, v)| v.parse::<f64>().ok()) {
                if n > 0.0 {
                    layers.record("delaunay.build_us_per_point", s.dur_us as f64 / n);
                }
            }
        }
    }
}

/// The per-layer table of the traced run: for each span name its count,
/// total time and self time (its duration minus the part its child spans on
/// the same thread cover).
fn print_self_times(snap: &TelemetrySnapshot) {
    let mut spans: Vec<_> = snap.spans.iter().collect();
    spans.sort_by_key(|s| (s.tid, s.t0_us, s.depth));
    // (count, total us, self us) per name.
    let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    // Open ancestors on the current thread: (end, index into `selfs`).
    let mut stack: Vec<(u64, usize)> = Vec::new();
    let mut selfs: Vec<u64> = Vec::with_capacity(spans.len());
    let mut tid = u64::MAX;
    for (i, s) in spans.iter().enumerate() {
        if s.tid != tid {
            stack.clear();
            tid = s.tid;
        }
        while stack.last().is_some_and(|&(end, _)| end <= s.t0_us) {
            stack.pop();
        }
        if let Some(&(_, parent)) = stack.last() {
            selfs[parent] = selfs[parent].saturating_sub(s.dur_us);
        }
        selfs.push(s.dur_us);
        stack.push((s.end_us(), i));
    }
    for (s, own) in spans.iter().zip(&selfs) {
        let row = rows.entry(s.name.as_str()).or_default();
        row.0 += 1;
        row.1 += s.dur_us;
        row.2 += own;
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by_key(|&(_, (_, _, own))| std::cmp::Reverse(own));
    println!(
        "# spans of the traced run (harness-side `bench.*` and the crates' own), by self time:"
    );
    println!(
        "  {:<44} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in rows {
        println!(
            "  {:<44} {:>8} {:>12.2} {:>12.2}",
            name,
            count,
            total as f64 / 1e3,
            own as f64 / 1e3
        );
    }
}
