//! The recorder: sharded per-thread buffers behind a thread-local (or
//! process-global) install, plus the RAII [`SpanGuard`].
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be ~free.** Every macro first loads one global atomic
//!    (`INSTALL_COUNT`); when no recorder is installed anywhere that is the
//!    entire cost, so hot paths (geometry predicates, per-LOS marching) can
//!    stay instrumented unconditionally.
//! 2. **Enabled must stay off the lock.** Each thread resolves its shard
//!    once and caches the `Arc` in TLS; a counter increment is then a TLS
//!    read plus one relaxed atomic add. Gauges, histograms and spans go
//!    through an uncontended per-shard mutex (only the snapshot reader ever
//!    competes), one lock per sample.
//! 3. **Ranks are threads.** The cluster simulator runs each rank on its own
//!    OS thread, so `Recorder::install()` is thread-local and each rank gets
//!    an isolated registry; `install_global()` exists for single-process
//!    profiling where rayon workers should land in the same recorder.
//!
//! Metric names are interned process-wide into dense ids (one table per
//! metric kind) so shards can use plain slot arrays instead of hash maps.
//!
//! Each metric has one store per shard, and a snapshot derives both of its
//! views from it: a histogram's is a [`WindowedHistogram`], a gauge's its
//! last set on the shard with the time of that set — the cumulative value
//! is the most recent set across shards, the windowed one that set when it
//! was made inside the window.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::clock;
use crate::metrics::MetricsSnapshot;
use crate::window::{self, WindowedHistogram};

/// Maximum distinct metric names per kind. Interning past the cap silently
/// drops the metric (returns an out-of-range id) rather than panicking.
pub const COUNTER_CAP: usize = 256;
pub const GAUGE_CAP: usize = 128;
pub const HIST_CAP: usize = 128;

static INSTALL_COUNT: AtomicUsize = AtomicUsize::new(0);
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);
/// Bumped whenever the global recorder changes so TLS shard caches revalidate.
static GLOBAL_VERSION: AtomicU64 = AtomicU64::new(0);

fn global_slot() -> &'static Mutex<Option<Recorder>> {
    static GLOBAL: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Is any recorder installed anywhere in the process? This is the macro
/// fast-path gate: a single relaxed atomic load.
#[inline]
pub fn is_enabled() -> bool {
    INSTALL_COUNT.load(Ordering::Relaxed) != 0
}

// ---------------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------------

#[derive(Default)]
struct NameTable {
    ids: HashMap<String, usize>,
    names: Vec<String>,
    cap: usize,
}

impl NameTable {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len();
        if id >= self.cap {
            return usize::MAX;
        }
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }
}

struct Names {
    counters: NameTable,
    gauges: NameTable,
    hists: NameTable,
}

fn names() -> &'static Mutex<Names> {
    static NAMES: OnceLock<Mutex<Names>> = OnceLock::new();
    NAMES.get_or_init(|| {
        Mutex::new(Names {
            counters: NameTable {
                cap: COUNTER_CAP,
                ..Default::default()
            },
            gauges: NameTable {
                cap: GAUGE_CAP,
                ..Default::default()
            },
            hists: NameTable {
                cap: HIST_CAP,
                ..Default::default()
            },
        })
    })
}

/// Intern a counter name into a dense id. Call-sites cache the result in a
/// `OnceLock` (the macros do this), so the lock here is taken once per site.
pub fn register_counter(name: &str) -> usize {
    names().lock().unwrap().counters.intern(name)
}

pub fn register_gauge(name: &str) -> usize {
    names().lock().unwrap().gauges.intern(name)
}

pub fn register_histogram(name: &str) -> usize {
    names().lock().unwrap().hists.intern(name)
}

// ---------------------------------------------------------------------------
// Shards and the recorder
// ---------------------------------------------------------------------------

/// One span, as recorded: a closed interval on the process-wide timeline
/// plus the thread-CPU time it consumed and its nesting depth.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    pub name: String,
    /// Recorder-local thread id (shard index) — the Chrome-trace `tid`.
    pub tid: u64,
    /// Nesting depth at entry (0 = outermost on its thread).
    pub depth: u32,
    /// Microseconds since the process telemetry epoch.
    pub t0_us: u64,
    pub dur_us: u64,
    pub cpu_us: u64,
    pub args: Vec<(String, String)>,
}

impl SpanEvent {
    pub fn end_us(&self) -> u64 {
        self.t0_us + self.dur_us
    }
}

struct Shard {
    tid: u64,
    /// Rotating-window shape `(buckets, width_us)` copied from the owning
    /// recorder; `(0, _)` disables windowing on this shard.
    window: (usize, u64),
    counters: Box<[AtomicU64]>,
    /// Each gauge's last set on this thread: `(value, set_at_us)`.
    gauges: Mutex<Vec<Option<(f64, u64)>>>,
    hists: Mutex<Vec<Option<WindowedHistogram>>>,
    spans: Mutex<Vec<SpanEvent>>,
}

impl Shard {
    fn new(tid: u64, window: (usize, u64)) -> Self {
        Shard {
            tid,
            window,
            counters: (0..COUNTER_CAP).map(|_| AtomicU64::new(0)).collect(),
            gauges: Mutex::new(vec![None; GAUGE_CAP]),
            hists: Mutex::new((0..HIST_CAP).map(|_| None).collect()),
            spans: Mutex::new(Vec::new()),
        }
    }
}

struct RecorderInner {
    id: u64,
    label: String,
    /// Rotating-window shape `(buckets, width_us)` for windowed metrics;
    /// `(0, _)` records cumulative metrics only.
    window: (usize, u64),
    shards: Mutex<Vec<Arc<Shard>>>,
}

/// A telemetry sink: spans and metrics recorded by every thread it is
/// installed on. Cheap to clone (an `Arc`).
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

/// Everything one recorder saw, gathered for export: the per-rank unit that
/// `run_distributed*` collects into its `RunReport`.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Recorder label, e.g. `rank3`.
    pub label: String,
    /// All spans from all shards, sorted by `(t0_us, depth)`.
    pub spans: Vec<SpanEvent>,
    pub metrics: MetricsSnapshot,
}

impl TelemetrySnapshot {
    /// Total thread-CPU time covered by spans at the given depth, in seconds.
    pub fn span_cpu_s(&self, depth: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.depth == depth)
            .map(|s| s.cpu_us as f64 * 1e-6)
            .sum()
    }
}

impl Recorder {
    /// Default recorder: cumulative metrics plus a 10 × 1 s rotating
    /// window (so live quantiles work out of the box).
    pub fn new(label: &str) -> Recorder {
        Recorder::with_windows(label, 10, std::time::Duration::from_secs(1))
    }

    /// A recorder whose histograms and gauges are also read over a rotating
    /// window of `buckets × width` (see [`crate::window`]). `buckets = 0`
    /// disables windowing entirely.
    pub fn with_windows(label: &str, buckets: usize, width: std::time::Duration) -> Recorder {
        Recorder {
            inner: Arc::new(RecorderInner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                label: label.to_string(),
                window: (buckets, (width.as_micros() as u64).max(1)),
                shards: Mutex::new(Vec::new()),
            }),
        }
    }

    fn shard_for_current_thread(&self) -> Arc<Shard> {
        let mut shards = self.inner.shards.lock().unwrap();
        let shard = Arc::new(Shard::new(shards.len() as u64, self.inner.window));
        shards.push(shard.clone());
        shard
    }

    /// Install this recorder for the **calling thread** until the returned
    /// guard is dropped. Nested installs restore the previous recorder.
    #[must_use = "telemetry is recorded only while the guard is alive"]
    pub fn install(&self) -> InstallGuard {
        let prev = TLS.with(|cell| {
            let mut t = cell.borrow_mut();
            t.cache = None;
            t.local.replace(self.clone())
        });
        INSTALL_COUNT.fetch_add(1, Ordering::Relaxed);
        InstallGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// Install this recorder as the **process-wide fallback** for threads
    /// without a thread-local install (e.g. rayon workers). Single-process
    /// profiling convenience; per-rank runs use `install()`.
    #[must_use = "telemetry is recorded only while the guard is alive"]
    pub fn install_global(&self) -> GlobalInstallGuard {
        let prev = global_slot().lock().unwrap().replace(self.clone());
        GLOBAL_VERSION.fetch_add(1, Ordering::Relaxed);
        INSTALL_COUNT.fetch_add(1, Ordering::Relaxed);
        GlobalInstallGuard { prev }
    }

    /// Gather every shard into one snapshot. Safe to call while threads are
    /// still recording (they will simply miss the snapshot), but the usual
    /// pattern is: run, drop the install guard, snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (counter_names, gauge_names, hist_names) = {
            let n = names().lock().unwrap();
            (
                n.counters.names.clone(),
                n.gauges.names.clone(),
                n.hists.names.clone(),
            )
        };
        let mut metrics = MetricsSnapshot::default();
        let (wbuckets, wwidth_us) = self.inner.window;
        if wbuckets > 0 {
            metrics.window_seconds = (wbuckets as u64 * wwidth_us) as f64 * 1e-6;
        }
        // One read timestamp for every shard, so the merged window is a
        // consistent cut across threads.
        let now_us = clock::now_us();
        // Most recent set per gauge across shards: `(set_at_us, value)`.
        let mut gauge_latest: std::collections::BTreeMap<&str, (u64, f64)> = Default::default();
        let mut spans = Vec::new();
        let shards = self.inner.shards.lock().unwrap();
        for shard in shards.iter() {
            for (id, slot) in shard.counters.iter().enumerate() {
                let v = slot.load(Ordering::Relaxed);
                if v != 0 {
                    if let Some(name) = counter_names.get(id) {
                        *metrics.counters.entry(name.clone()).or_insert(0) += v;
                    }
                }
            }
            for (id, slot) in shard.gauges.lock().unwrap().iter().enumerate() {
                if let (Some((v, at_us)), Some(name)) = (slot, gauge_names.get(id)) {
                    // The later set wins; a tie goes to the later shard.
                    let e = gauge_latest.entry(name).or_insert((*at_us, *v));
                    if *at_us >= e.0 {
                        *e = (*at_us, *v);
                    }
                }
            }
            for (id, slot) in shard.hists.lock().unwrap().iter().enumerate() {
                if let (Some(wh), Some(name)) = (slot, hist_names.get(id)) {
                    metrics
                        .histograms
                        .entry(name.clone())
                        .or_default()
                        .merge(&wh.cumulative());
                    let merged = wh.merged_at(now_us);
                    if !merged.is_empty() {
                        metrics
                            .windows
                            .entry(name.clone())
                            .or_default()
                            .merge(&merged);
                    }
                }
            }
            spans.extend(shard.spans.lock().unwrap().iter().cloned());
        }
        for (name, (at_us, v)) in gauge_latest {
            if window::live(at_us / wwidth_us, now_us / wwidth_us, wbuckets as u64) {
                metrics.window_gauges.insert(name.to_string(), v);
            }
            metrics.gauges.insert(name.to_string(), v);
        }
        spans.sort_by_key(|s| (s.t0_us, s.depth));
        TelemetrySnapshot {
            label: self.inner.label.clone(),
            spans,
            metrics,
        }
    }
}

/// Guard for a thread-local install; restores the previous recorder on drop.
pub struct InstallGuard {
    prev: Option<Recorder>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        TLS.with(|cell| {
            let mut t = cell.borrow_mut();
            t.local = self.prev.take();
            t.cache = None;
        });
        INSTALL_COUNT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Guard for a process-global install; restores the previous global on drop.
pub struct GlobalInstallGuard {
    prev: Option<Recorder>,
}

impl Drop for GlobalInstallGuard {
    fn drop(&mut self) {
        *global_slot().lock().unwrap() = self.prev.take();
        GLOBAL_VERSION.fetch_add(1, Ordering::Relaxed);
        INSTALL_COUNT.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Thread-local state
// ---------------------------------------------------------------------------

struct ShardCache {
    recorder_id: u64,
    global_version: u64,
    /// `None` caches "this thread has no recorder" so uninstrumented
    /// threads do not retake the global lock on every event.
    shard: Option<Arc<Shard>>,
}

struct Tls {
    local: Option<Recorder>,
    cache: Option<ShardCache>,
    depth: u32,
}

thread_local! {
    static TLS: RefCell<Tls> = const {
        RefCell::new(Tls { local: None, cache: None, depth: 0 })
    };
}

fn with_shard<R>(f: impl FnOnce(&Shard) -> R) -> Option<R> {
    TLS.with(|cell| {
        let mut t = cell.borrow_mut();
        let t = &mut *t;
        let gv = GLOBAL_VERSION.load(Ordering::Relaxed);
        if let Some(c) = &t.cache {
            let valid = match &t.local {
                Some(r) => c.recorder_id == r.inner.id,
                None => c.global_version == gv,
            };
            if valid {
                return c.shard.as_deref().map(f);
            }
        }
        let rec = t
            .local
            .clone()
            .or_else(|| global_slot().lock().unwrap().clone());
        match rec {
            Some(r) => {
                let shard = r.shard_for_current_thread();
                let out = f(&shard);
                t.cache = Some(ShardCache {
                    recorder_id: r.inner.id,
                    global_version: gv,
                    shard: Some(shard),
                });
                Some(out)
            }
            None => {
                t.cache = Some(ShardCache {
                    recorder_id: 0,
                    global_version: gv,
                    shard: None,
                });
                None
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Recording entry points (called by the macros)
// ---------------------------------------------------------------------------

#[inline]
pub fn record_counter(id: usize, n: u64) {
    if id >= COUNTER_CAP {
        return;
    }
    with_shard(|s| s.counters[id].fetch_add(n, Ordering::Relaxed));
}

#[inline]
pub fn record_gauge(id: usize, v: f64) {
    if id >= GAUGE_CAP {
        return;
    }
    with_shard(|s| s.gauges.lock().unwrap()[id] = Some((v, clock::now_us())));
}

#[inline]
pub fn record_histogram(id: usize, v: u64) {
    if id >= HIST_CAP {
        return;
    }
    with_shard(|s| {
        let (buckets, width_us) = s.window;
        s.hists.lock().unwrap()[id]
            .get_or_insert_with(|| WindowedHistogram::new(buckets, width_us))
            .record(v);
    });
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Wall and thread-CPU seconds measured by a finished span.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTimes {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// RAII span: measures wall + thread-CPU time from construction to drop and
/// (when a recorder is installed on this thread) records a [`SpanEvent`].
///
/// The clocks are read unconditionally, so a guard also works as a plain
/// timer via [`SpanGuard::end`] / [`SpanGuard::cpu_elapsed`] with telemetry
/// disabled — this is what replaced the framework's private `BusyTimer`.
pub struct SpanGuard {
    name: &'static str,
    args: Vec<(String, String)>,
    wall0: Instant,
    cpu0_us: u64,
    t0_us: u64,
    depth: u32,
    recording: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    pub fn enter(name: &'static str, args: Vec<(String, String)>) -> SpanGuard {
        let recording = is_enabled() && with_shard(|_| ()).is_some();
        let (t0_us, depth) = if recording {
            let d = TLS.with(|cell| {
                let mut t = cell.borrow_mut();
                let d = t.depth;
                t.depth += 1;
                d
            });
            (clock::now_us(), d)
        } else {
            (0, 0)
        };
        SpanGuard {
            name,
            args,
            wall0: Instant::now(),
            cpu0_us: clock::thread_cpu_us(),
            t0_us,
            depth,
            recording,
            _not_send: PhantomData,
        }
    }

    /// Wall seconds elapsed so far.
    pub fn wall_elapsed(&self) -> f64 {
        self.wall0.elapsed().as_secs_f64()
    }

    /// Thread-CPU seconds elapsed so far.
    pub fn cpu_elapsed(&self) -> f64 {
        (clock::thread_cpu_us().saturating_sub(self.cpu0_us)) as f64 * 1e-6
    }

    /// Close the span, returning its measured times (and recording it).
    pub fn end(self) -> SpanTimes {
        SpanTimes {
            wall_s: self.wall_elapsed(),
            cpu_s: self.cpu_elapsed(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.recording {
            return;
        }
        let dur_us = clock::now_us().saturating_sub(self.t0_us);
        let cpu_us = clock::thread_cpu_us().saturating_sub(self.cpu0_us);
        let event_args = std::mem::take(&mut self.args);
        let name = self.name;
        let (t0_us, depth) = (self.t0_us, self.depth);
        with_shard(move |s| {
            s.spans.lock().unwrap().push(SpanEvent {
                name: name.to_string(),
                tid: s.tid,
                depth,
                t0_us,
                dur_us,
                cpu_us,
                args: event_args,
            })
        });
        TLS.with(|cell| {
            let mut t = cell.borrow_mut();
            t.depth = t.depth.saturating_sub(1);
        });
    }
}
