//! # dtfe-telemetry
//!
//! Structured tracing and metrics for the DTFE pipeline: RAII spans with
//! wall + thread-CPU time, a counters/gauges/histograms registry, and
//! exporters to Chrome-trace JSON (Perfetto), flat metrics JSON, and a
//! human summary table. std-only; the single dependency is the vendored
//! `libc` stub for `CLOCK_THREAD_CPUTIME_ID`.
//!
//! ## Model
//!
//! A [`Recorder`] is a sink. Installing it — thread-locally with
//! [`Recorder::install`] (the per-rank pattern used by the cluster
//! simulator) or process-wide with [`Recorder::install_global`] — routes
//! the recording macros on the covered threads into sharded per-thread
//! buffers. With *no* recorder installed every macro short-circuits on one
//! relaxed atomic load, so instrumentation can stay in hot paths.
//!
//! ```
//! use dtfe_telemetry::{counter_add, hist_record, span, Recorder};
//!
//! let rec = Recorder::new("rank0");
//! {
//!     let _g = rec.install();
//!     let sp = span!("triangulate", n = 4096);
//!     counter_add!("delaunay.points_inserted", 4096);
//!     hist_record!("core.tets_per_los", 128);
//!     let times = sp.end(); // SpanTimes { wall_s, cpu_s }
//!     assert!(times.wall_s >= 0.0);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.metrics.counter("delaunay.points_inserted"), 4096);
//! println!("{}", dtfe_telemetry::export::chrome_trace(&[snap]));
//! ```
//!
//! Metric names follow `subsystem.verb_noun` (see DESIGN.md
//! "Observability" for the taxonomy).

pub mod check;
pub mod clock;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod stats;
pub mod window;

pub use export::{chrome_trace, merged_metrics, metrics_json, metrics_object, Summary};
pub use flight::{FlightRecorder, RequestTrace};
pub use metrics::{Histogram, MetricsSnapshot};
pub use recorder::{
    is_enabled, GlobalInstallGuard, InstallGuard, Recorder, SpanEvent, SpanGuard, SpanTimes,
    TelemetrySnapshot,
};
pub use stats::{normalized_std, LoadSummary};

/// Open a span: `span!("name")` or `span!("name", key = value, ...)`.
/// Returns a [`SpanGuard`] that records on drop; bind it (`let sp = ...`)
/// or the span closes immediately. Argument values use `Display` and are
/// only formatted when telemetry is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {{
        let args = if $crate::is_enabled() {
            ::std::vec![$(
                (::std::string::String::from(stringify!($key)),
                 ::std::format!("{}", $val))
            ),+]
        } else {
            ::std::vec::Vec::new()
        };
        $crate::SpanGuard::enter($name, args)
    }};
}

/// Add `n` to the named counter. Free when telemetry is disabled; one TLS
/// lookup + relaxed atomic add when enabled (name interned once per site).
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {
        if $crate::is_enabled() {
            static __DTFE_TELEMETRY_ID: ::std::sync::OnceLock<usize> = ::std::sync::OnceLock::new();
            let id = *__DTFE_TELEMETRY_ID.get_or_init(|| $crate::recorder::register_counter($name));
            $crate::recorder::record_counter(id, $n as u64);
        }
    };
}

/// Set the named gauge to an `f64` value (last write per rank wins).
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {
        if $crate::is_enabled() {
            static __DTFE_TELEMETRY_ID: ::std::sync::OnceLock<usize> = ::std::sync::OnceLock::new();
            let id = *__DTFE_TELEMETRY_ID.get_or_init(|| $crate::recorder::register_gauge($name));
            $crate::recorder::record_gauge(id, $v as f64);
        }
    };
}

/// Record one `u64` sample into the named log-linear histogram.
#[macro_export]
macro_rules! hist_record {
    ($name:expr, $v:expr) => {
        if $crate::is_enabled() {
            static __DTFE_TELEMETRY_ID: ::std::sync::OnceLock<usize> = ::std::sync::OnceLock::new();
            let id =
                *__DTFE_TELEMETRY_ID.get_or_init(|| $crate::recorder::register_histogram($name));
            $crate::recorder::record_histogram(id, $v as u64);
        }
    };
}
