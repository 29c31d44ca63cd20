//! The one declaration of every workload and metric the benchmark has.
//! `BENCHMARK.json` at the repo root repeats it (a unit test holds the two
//! together), `perf --list` prints it, and [`crate::report::Report`] refuses a
//! name that is not in it.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDecl {
    pub name: &'static str,
    /// One line: which layers the workload loads and which it bypasses.
    pub why: &'static str,
}

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. `Some` marks an end-to-end metric;
    /// per-layer metrics explain, they do not gate.
    pub bound: Option<f64>,
}

impl MetricDecl {
    /// The crate or module the metric measures: the name up to its first
    /// dot (`end_to_end` for the five a user of the system sees).
    pub fn layer(&self) -> &'static str {
        match self.bound {
            Some(_) => "end_to_end",
            None => self.name.split('.').next().unwrap_or(self.name),
        }
    }
}

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "kernel_march",
        why: "resident mesh rendered three ways on one thread: core::marching and geometry::plucker do all the work, delaunay, framework and service none",
    },
    WorkloadDecl {
        name: "batch_pipeline",
        why: "the paper's framework on 2 ranks: snapshot read, redistribute, model fit, schedule, many small per-item triangulations and z-clipped renders, work sharing",
    },
    WorkloadDecl {
        name: "serve_warm",
        why: "2 closed-loop TCP clients, every tile resident: socket, wire, admission, queue and a small render are the whole cost and delaunay does nothing",
    },
    WorkloadDecl {
        name: "serve_churn",
        why: "1 closed-loop TCP client scanning 27 tiles through a cache that holds a few: every request is a serial tile build, an insert and an eviction",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[MetricDecl] = &[
    // ---- end to end: reported for every workload, telemetry off.
    // Every bound is the widest the contract allows: this host's speed drifts
    // by a fifth over a minute (README, "Why the bounds are what they are").
    e2e("fields_per_s", "fields/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_field", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    // ---- core: the marching kernel and what it is built from.
    layer("core.march_dense_ms", "ms", Lower),
    layer("core.march_multisample_ms", "ms", Lower),
    layer("core.march_sparse_ms", "ms", Lower),
    layer("core.tets_per_los", "count", Lower),
    layer("core.edge_evals_per_los", "count", Lower),
    layer("core.entry_hint_hit_ratio", "ratio", Higher),
    layer("core.perturbations", "count/op", Lower),
    layer("core.march_failures", "count/op", Lower),
    layer("core.density_ms", "ms", Lower),
    layer("core.march_cache_ms", "ms", Lower),
    layer("core.hull_index_ms", "ms", Lower),
    layer("core.march_cache_mb", "MiB", Lower),
    // ---- delaunay: the triangulation build.
    layer("delaunay.build_ms", "ms", Lower),
    layer("delaunay.build_us_per_point", "us", Lower),
    layer("delaunay.tets_per_point", "count", Lower),
    layer("delaunay.points_inserted", "count/op", Lower),
    layer("delaunay.duplicates_merged", "count/op", Lower),
    layer("delaunay.serial_builds", "count/op", Lower),
    // ---- geometry: how often the float filter falls back to exact.
    layer("geometry.orient3d_exact_ratio", "ratio", Lower),
    layer("geometry.insphere_exact_ratio", "ratio", Lower),
    layer("geometry.predicate_calls_per_point", "count", Lower),
    // ---- nbody: snapshot IO.
    layer("nbody.snapshot_write_ms", "ms", Lower),
    layer("nbody.snapshot_read_ms", "ms", Lower),
    layer("nbody.snapshot_read_mb_per_s", "MiB/s", Higher),
    // ---- framework: per-phase busy time, max over ranks, p50 over runs.
    layer("framework.partition_s", "s", Lower),
    layer("framework.model_s", "s", Lower),
    layer("framework.triangulate_s", "s", Lower),
    layer("framework.render_s", "s", Lower),
    layer("framework.sharing_wait_s", "s", Lower),
    layer("framework.imbalance", "ratio", Lower),
    layer("framework.items_sent", "count/op", Lower),
    layer("framework.retries", "count/op", Lower),
    layer("framework.model_rmse_tri_s", "s", Lower),
    layer("framework.model_rmse_interp_s", "s", Lower),
    // ---- service: the stages a request passes through, and the tile cache.
    layer("service.admission_us_p50", "us", Lower),
    layer("service.queue_us_p50", "us", Lower),
    layer("service.build_ms_p50", "ms", Lower),
    layer("service.render_ms_p50", "ms", Lower),
    layer("service.cache_hit_ratio", "ratio", Higher),
    layer("service.cache_evictions", "count/op", Lower),
    layer("service.resident_mb", "MiB", Lower),
    layer("service.batch_size_mean", "count", Higher),
    layer("service.shed", "count", Lower),
    layer("service.rejected", "count", Lower),
    // ---- wire: what the socket and the codec add to the server's stages.
    layer("wire.overhead_us_p50", "us", Lower),
    layer("wire.encode_us", "us", Lower),
    layer("wire.decode_us", "us", Lower),
    layer("wire.response_bytes", "bytes", Lower),
    // ---- client: the tail the harness saw, with its sample count.
    layer("client.op_tail_ms", "ms", Lower),
    layer("client.op_tail_pct", "%", Higher),
    layer("client.op_max_ms", "ms", Lower),
    layer("client.samples", "count", Higher),
    // ---- trace: the price of the traced run itself.
    layer("trace.overhead_pct", "%", Lower),
];

pub fn metric(name: &str) -> Option<&'static MetricDecl> {
    METRICS.iter().find(|m| m.name == name)
}

pub fn end_to_end() -> impl Iterator<Item = &'static MetricDecl> {
    METRICS.iter().filter(|m| m.bound.is_some())
}

pub fn per_layer() -> impl Iterator<Item = &'static MetricDecl> {
    METRICS.iter().filter(|m| m.bound.is_none())
}

/// `perf --list`: the table, one row per workload and per metric.
pub fn print_list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("metrics:");
    println!(
        "  {:<36} {:<10} {:<7} {:<6} layer",
        "name", "unit", "better", "bound"
    );
    for m in METRICS {
        let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
        println!(
            "  {:<36} {:<10} {:<7} {:<6} {}",
            m.name,
            m.unit,
            m.better.label(),
            bound,
            m.layer()
        );
    }
}
