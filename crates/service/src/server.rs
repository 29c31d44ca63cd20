//! The in-process service: validation, admission, the batching queue, the
//! worker pool, and graceful drain.
//!
//! ## Request path
//!
//! [`Service::render`] validates the request, prices it against the
//! workload model, admits or sheds it, then enqueues it on its tile's
//! batch queue and blocks until a worker replies. Workers pop one tile at
//! a time and take *every* queued request for that tile as a single batch,
//! whatever estimators they name: the tile triangulation is resolved once
//! (cache hit, or one single-flight build), each estimator's table is
//! filled over it unless it is there, and each request's grid is marched
//! against the shared mesh via [`dtfe_core::surface_density_with_index`] —
//! so the marginal cost of the 2nd..Nth coalesced request is render-only.
//!
//! ## Drain semantics
//!
//! [`Service::drain`] flips the queue into draining mode: new submissions
//! are refused with [`ServiceError::ShuttingDown`], already-admitted
//! requests are served to completion, and the call returns once every
//! worker has exited. Dropping the service drains implicitly.

use crate::admission::Admission;
use crate::api::{HealthStatus, RenderRequest, RenderResponse, ResponseMeta, TraceContext};
use crate::cache::{QuarantinePolicy, TileCache};
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::registry::SnapshotRegistry;
use crate::stats_doc::{CacheCounters, MetricsDigest, ServingCounters, StatsDocument};
use crate::tiles::{SharedTile, TileData, TileKey};
use dtfe_core::{EstimatorKind, GridSpec2, MarchOptions};
use dtfe_telemetry::{clock, FlightRecorder, RequestTrace, SpanEvent};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Always-on serving counters. `hits + misses == completed` — every served
/// request is classified by whether its batch found the tile's mesh and
/// every table it needed resident.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests that passed validation and admission.
    pub admitted: AtomicU64,
    /// Requests shed by admission control (`Overloaded`).
    pub shed: AtomicU64,
    /// Requests refused as malformed / unknown-snapshot / shutting-down.
    pub rejected: AtomicU64,
    /// Requests served with a field.
    pub completed: AtomicU64,
    /// Admitted requests dropped because their deadline expired in queue.
    pub deadline_dropped: AtomicU64,
    /// Admitted requests that failed (tile build error and the like).
    pub failed: AtomicU64,
    /// Served requests whose batch built nothing.
    pub hits: AtomicU64,
    /// Served requests that paid (or waited out) a mesh build or a table
    /// fill.
    pub misses: AtomicU64,
    /// Total requests coalesced into multi-request batches (batch_size − 1
    /// summed over batches).
    pub coalesced: AtomicU64,
    /// Requests served from an evicted-but-retained stale tile (flagged
    /// `degraded`; counted inside `completed` and `hits`, so the
    /// `hits + misses == completed` invariant still holds).
    pub stale_served: AtomicU64,
}

impl ServiceStats {
    fn get(a: &AtomicU64) -> u64 {
        a.load(Ordering::Relaxed)
    }
}

/// One admitted request waiting in (or moving through) the queue.
struct Job {
    grid: GridSpec2,
    opts: MarchOptions,
    cost_s: f64,
    /// Trace context the request carried (or `None` for untraced).
    trace: Option<TraceContext>,
    /// Submission entry, microseconds on the telemetry clock — the origin
    /// for flight-recorder span offsets.
    t0_us: u64,
    /// Submission entry wall clock (request wall time = elapsed since).
    submitted: Instant,
    /// Microseconds from submission to enqueue (validation + admission).
    admission_us: u64,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<RenderResponse, ServiceError>>,
}

/// What a request resolves to once its defaults are filled in and its
/// caps, bounds and geometry are checked: the one normalisation
/// [`Service::submit`] admits from and the cluster router routes on, so the
/// two can never disagree about which tile a request lands on or whether it
/// is valid at all.
#[derive(Debug)]
pub struct Resolved {
    /// The cache key (and, hashed, the ring key) the request lands on.
    pub tile: TileKey,
    /// Ghost-padded particle count of that tile — the cost model's `n`.
    pub particles: usize,
    /// The exact render geometry the batch framework would use.
    pub grid: GridSpec2,
    pub opts: MarchOptions,
    /// Lines of sight the render marches: `resolution² × samples`.
    pub cells: usize,
}

struct QueueState {
    /// Pending jobs, batched per tile.
    per_tile: HashMap<TileKey, VecDeque<Job>>,
    /// FIFO of tiles with pending jobs (each key appears at most once).
    order: VecDeque<TileKey>,
    draining: bool,
    /// Jobs admitted but not yet replied to (drain waits for zero).
    in_flight: usize,
}

struct Inner {
    cfg: ServiceConfig,
    registry: SnapshotRegistry,
    cache: TileCache,
    admission: Admission,
    queue: Mutex<QueueState>,
    /// Signals workers (new work / drain) and drainers (queue empty).
    cv: Condvar,
    stats: ServiceStats,
    /// Bounded ring of recent interesting request traces (`Dump` replays
    /// it as Chrome-trace JSON).
    flight: FlightRecorder,
}

/// The in-process serving handle. Clone-free: share it behind an `Arc`
/// (the TCP layer does exactly that).
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Keeps the process-global telemetry recorder installed for the
    /// service's lifetime when `cfg.telemetry` is set.
    _telemetry: Option<(dtfe_telemetry::Recorder, dtfe_telemetry::GlobalInstallGuard)>,
}

impl Service {
    /// Start a service over the snapshot directory. Spawns `cfg.workers`
    /// render threads.
    pub fn start(
        snapshot_dir: impl AsRef<Path>,
        cfg: ServiceConfig,
    ) -> Result<Service, ServiceError> {
        cfg.validate().map_err(ServiceError::InvalidRequest)?;
        let telemetry = if cfg.telemetry {
            let rec = dtfe_telemetry::Recorder::with_windows(
                "service",
                cfg.window_buckets,
                cfg.window_width,
            );
            let guard = rec.install_global();
            Some((rec, guard))
        } else {
            None
        };
        let inner = Arc::new(Inner {
            registry: SnapshotRegistry::new(snapshot_dir.as_ref(), &cfg),
            cache: TileCache::with_policy(
                cfg.cache_budget_bytes,
                // Stale retention costs memory; pay it only when degraded
                // serving is actually enabled.
                if cfg.stale_while_revalidate {
                    cfg.stale_budget_bytes
                } else {
                    0
                },
                QuarantinePolicy {
                    after: cfg.quarantine_after,
                    base: cfg.quarantine_base,
                    max: cfg.quarantine_max,
                },
            ),
            admission: Admission::new(cfg.model, cfg.admission_budget_s, cfg.workers),
            queue: Mutex::new(QueueState {
                per_tile: HashMap::new(),
                order: VecDeque::new(),
                draining: false,
                in_flight: 0,
            }),
            cv: Condvar::new(),
            stats: ServiceStats::default(),
            flight: FlightRecorder::new(cfg.flight_capacity),
            cfg,
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("dtfe-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn render worker")
            })
            .collect();
        Ok(Service {
            inner,
            workers: Mutex::new(workers),
            _telemetry: telemetry,
        })
    }

    /// Serving configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// Always-on serving counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.inner.stats
    }

    /// The tile cache (counters and residency, for tests and stats).
    pub fn cache(&self) -> &TileCache {
        &self.inner.cache
    }

    /// Render one request, blocking until it is served, shed, or fails.
    pub fn render(&self, req: &RenderRequest) -> Result<RenderResponse, ServiceError> {
        let rx = self.submit(req)?;
        match rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServiceError::Internal("worker dropped reply".into())),
        }
    }

    /// Validate, price, admit, and enqueue a request; the returned channel
    /// yields the result exactly once. Use [`Service::render`] unless you
    /// are pipelining submissions yourself.
    pub fn submit(
        &self,
        req: &RenderRequest,
    ) -> Result<mpsc::Receiver<Result<RenderResponse, ServiceError>>, ServiceError> {
        let inner = &*self.inner;
        match self.submit_inner(req) {
            Ok(rx) => Ok(rx),
            Err(e) => {
                match &e {
                    ServiceError::Overloaded { .. } => {
                        inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        dtfe_telemetry::counter_add!("service.requests_rejected", 1);
                    }
                }
                Err(e)
            }
        }
    }

    fn submit_inner(
        &self,
        req: &RenderRequest,
    ) -> Result<mpsc::Receiver<Result<RenderResponse, ServiceError>>, ServiceError> {
        let inner = &*self.inner;
        let cfg = &inner.cfg;
        // Stage-timing origin: everything from here to enqueue is the
        // request's admission stage.
        let submitted = Instant::now();
        let t0_us = clock::now_us();

        // Loading the snapshot is part of resolving: unknown/corrupt ids
        // fail fast, before admission charges anything. Corrupt and
        // quarantined loads are incidents the flight recorder must keep —
        // they never reach `serve_batch`, so they are recorded here.
        let Resolved {
            tile,
            particles,
            grid,
            opts,
            ..
        } = match self.resolve(req) {
            Ok(resolved) => resolved,
            Err(e) => {
                record_submit_failure(inner, req.trace, t0_us, submitted, &e);
                return Err(e);
            }
        };
        let cost_s = {
            let estimator = opts.render.estimator;
            let resident = inner.cache.peek(&tile);
            let has_table = resident.as_ref().is_some_and(|d| d.has_table(estimator));
            inner.admission.price(
                particles,
                resident.is_some(),
                (!has_table).then_some(estimator),
            )
        };

        let deadline = match req.deadline_ms {
            0 => cfg.default_deadline.map(|d| Instant::now() + d),
            ms => Some(Instant::now() + Duration::from_millis(ms)),
        };

        // Admission last, so every earlier error path has nothing to
        // refund; past this point the job WILL reach `finish_job`.
        if let Err(shed) = inner.admission.try_admit(cost_s) {
            // Degraded fallback: under overload, a retained stale copy of
            // the tile beats a bare `Overloaded` — render it inline on the
            // caller's thread (no queue slot, no admission charge) with
            // the response flagged.
            if cfg.stale_while_revalidate {
                if let Some(resp) =
                    render_stale(inner, &tile, &grid, &opts, Instant::now(), req.trace)
                {
                    let (tx, rx) = mpsc::channel();
                    let _ = tx.send(Ok(resp));
                    return Ok(rx);
                }
            }
            return Err(shed);
        }

        let (tx, rx) = mpsc::channel();
        let job = Job {
            grid,
            opts,
            cost_s,
            trace: req.trace,
            t0_us,
            submitted,
            admission_us: submitted.elapsed().as_micros() as u64,
            enqueued: Instant::now(),
            deadline,
            reply: tx,
        };
        {
            let mut q = inner.queue.lock().unwrap();
            if q.draining {
                inner.admission.complete(cost_s);
                return Err(ServiceError::ShuttingDown);
            }
            if !q.per_tile.contains_key(&tile) {
                q.order.push_back(tile.clone());
            }
            q.per_tile.entry(tile).or_default().push_back(job);
            q.in_flight += 1;
            dtfe_telemetry::gauge_set!("service.queue_depth", q.in_flight as i64);
            inner.cv.notify_all();
        }
        inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
        dtfe_telemetry::counter_add!("service.requests_admitted", 1);
        Ok(rx)
    }

    /// Normalise and validate a request without admitting anything: fill
    /// the `resolution`/`samples`/realization defaults, enforce their caps,
    /// load the snapshot, bounds-check the centre and build the render
    /// geometry. Every shard of a cluster loads the same snapshots under
    /// the same config, so a request that fails here fails identically
    /// everywhere — which is why the cluster router calls this *before*
    /// deciding whose tile it is.
    pub fn resolve(&self, req: &RenderRequest) -> Result<Resolved, ServiceError> {
        let inner = &*self.inner;
        let cfg = &inner.cfg;
        let invalid = |msg: String| Err(ServiceError::InvalidRequest(msg));

        let resolution = match req.resolution {
            0 => cfg.resolution,
            r => r as usize,
        };
        if resolution > ServiceConfig::MAX_RESOLUTION {
            return invalid(format!(
                "resolution {resolution} exceeds cap {}",
                ServiceConfig::MAX_RESOLUTION
            ));
        }
        let samples = match req.samples {
            0 => cfg.samples,
            s => s as usize,
        };
        if samples > ServiceConfig::MAX_SAMPLES {
            return invalid(format!(
                "samples {samples} exceeds cap {}",
                ServiceConfig::MAX_SAMPLES
            ));
        }
        if !req.center.is_finite() {
            return invalid("field center must be finite".into());
        }
        // Normalise the estimator: an unspecified stochastic realization
        // count (0) takes the default; past the cap each realization is a
        // full rebuild, so it is a typed refusal, not a silent clamp.
        let estimator = req.estimator.normalized();
        if let EstimatorKind::Stochastic { realizations } = estimator {
            if realizations > ServiceConfig::MAX_REALIZATIONS {
                return invalid(format!(
                    "stochastic realizations {realizations} exceeds cap {}",
                    ServiceConfig::MAX_REALIZATIONS
                ));
            }
        }

        let snap = inner.registry.get(&req.snapshot)?;
        if !snap.bounds.contains_closed(req.center) {
            return invalid(format!("center {:?} outside snapshot bounds", req.center));
        }

        // Built through the validating constructors so degenerate geometry
        // is a typed error, not a panic in the marching kernel.
        let grid = GridSpec2::try_square(req.center.xy(), cfg.field_len, resolution)
            .map_err(|e| ServiceError::InvalidRequest(e.to_string()))?;
        let opts = MarchOptions::new()
            .samples(samples)
            .parallel(false)
            .estimator(estimator)
            .z_range(
                req.center.z - cfg.field_len * 0.5,
                req.center.z + cfg.field_len * 0.5,
            );
        opts.render
            .validate()
            .map_err(|e| ServiceError::InvalidRequest(e.to_string()))?;

        let tile = TileKey::new(req.snapshot.clone(), snap.decomp.rank_of(req.center));
        Ok(Resolved {
            particles: snap.tile_counts[tile.tile],
            tile,
            grid,
            opts,
            cells: resolution * resolution * samples,
        })
    }

    /// Readiness snapshot for probes: answers from counters and brief
    /// lock holds, never from the render path.
    pub fn health(&self) -> HealthStatus {
        let inner = &*self.inner;
        let (draining, queue_depth) = {
            let q = inner.queue.lock().unwrap();
            (q.draining, q.in_flight as u64)
        };
        HealthStatus {
            ok: !draining,
            draining,
            resident_tiles: inner.cache.resident_entries() as u64,
            resident_bytes: inner.cache.resident_bytes() as u64,
            stale_tiles: inner.cache.stale_entries() as u64,
            quarantined_tiles: inner.cache.quarantined_entries() as u64,
            queue_depth,
            backlog_ms: (inner.admission.backlog_s() * 1e3) as u64,
        }
    }

    /// Retune the admission budget at runtime (operator load-shedding
    /// control; `0.0` sheds all new work, forcing stale serving where
    /// enabled).
    pub fn set_admission_budget(&self, budget_s: f64) {
        self.inner.admission.set_budget(budget_s);
    }

    /// Drain: refuse new work, serve everything already admitted, then
    /// join the workers. Idempotent.
    pub fn drain(&self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.draining = true;
            self.inner.cv.notify_all();
        }
        let mut workers = self.workers.lock().unwrap();
        for h in workers.drain(..) {
            let _ = h.join();
        }
        dtfe_telemetry::counter_add!("service.drains", 1);
    }

    /// The typed, versioned stats document: serving counters, cache
    /// counters, and — when the service owns a telemetry recorder — a
    /// metrics digest with cumulative *and* rotating-window quantiles.
    pub fn stats_document(&self) -> StatsDocument {
        let inner = &*self.inner;
        let cache = &inner.cache;
        let s = &inner.stats;
        let get = ServiceStats::get;
        // One snapshot of the charges, so the terms add up to the total.
        let charge = cache.resident_charge();
        StatsDocument {
            version: crate::stats_doc::STATS_VERSION,
            serving: ServingCounters {
                admitted: get(&s.admitted),
                shed: get(&s.shed),
                rejected: get(&s.rejected),
                completed: get(&s.completed),
                deadline_dropped: get(&s.deadline_dropped),
                failed: get(&s.failed),
                hits: get(&s.hits),
                misses: get(&s.misses),
                coalesced: get(&s.coalesced),
                stale_served: get(&s.stale_served),
            },
            cache: CacheCounters {
                resident_bytes: charge.total() as u64,
                ghost_bytes: cache.resident_ghost_bytes() as u64,
                budget_bytes: cache.budget() as u64,
                entries: cache.resident_entries() as u64,
                evictions: cache.stats.evictions.load(Ordering::Relaxed),
                uncacheable: cache.stats.uncacheable.load(Ordering::Relaxed),
                singleflight_parks: cache.stats.singleflight_parks.load(Ordering::Relaxed),
                stale_entries: cache.stale_entries() as u64,
                quarantined: cache.quarantined_entries() as u64,
                build_panics: cache.stats.build_panics.load(Ordering::Relaxed),
                header_bytes: charge.header as u64,
                mesh_bytes: charge.mesh as u64,
                dtfe_bytes: charge.dtfe as u64,
                psdtfe_bytes: charge.psdtfe as u64,
                stochastic_bytes: charge.stochastic as u64,
            },
            metrics: self
                ._telemetry
                .as_ref()
                .map(|(rec, _)| MetricsDigest::of(&rec.snapshot().metrics)),
        }
    }

    /// The flight recorder (recent interesting request traces).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Chrome-trace JSON dump of the flight recorder (what the wire
    /// `Dump` request answers).
    pub fn dump_trace(&self) -> String {
        self.inner.flight.chrome_trace()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Pop the next tile batch, or `None` when draining and empty.
fn next_batch(inner: &Inner) -> Option<(TileKey, Vec<Job>)> {
    let mut q = inner.queue.lock().unwrap();
    loop {
        if let Some(tile) = q.order.pop_front() {
            let jobs = q.per_tile.remove(&tile).map(Vec::from).unwrap_or_default();
            return Some((tile, jobs));
        }
        if q.draining {
            return None;
        }
        q = inner.cv.wait(q).unwrap();
    }
}

/// Account a finished job (served, dropped, or failed).
fn finish_job(inner: &Inner, job: &Job) {
    inner.admission.complete(job.cost_s);
    let mut q = inner.queue.lock().unwrap();
    q.in_flight -= 1;
    dtfe_telemetry::gauge_set!("service.queue_depth", q.in_flight as i64);
}

fn worker_loop(inner: &Inner) {
    while let Some((tile, jobs)) = next_batch(inner) {
        serve_batch(inner, &tile, jobs);
    }
}

fn serve_batch(inner: &Inner, tile: &TileKey, mut jobs: Vec<Job>) {
    let stats = &inner.stats;
    if jobs.len() > 1 {
        stats
            .coalesced
            .fetch_add(jobs.len() as u64 - 1, Ordering::Relaxed);
        dtfe_telemetry::counter_add!("service.requests_coalesced", jobs.len() as u64 - 1);
    }

    // Drop jobs whose deadline already passed — before paying for a build
    // they can no longer use.
    let now = Instant::now();
    jobs.retain(|job| match job.deadline {
        Some(d) if d <= now => {
            stats.deadline_dropped.fetch_add(1, Ordering::Relaxed);
            dtfe_telemetry::counter_add!("service.deadline_dropped", 1);
            let _ = job.reply.send(Err(ServiceError::DeadlineExceeded));
            finish_job(inner, job);
            false
        }
        _ => true,
    });
    if jobs.is_empty() {
        return;
    }

    // Queue stage ends here for every job in the batch: the worker has
    // picked it up. What follows is build (shared) + per-job render, so
    // the per-stage intervals are disjoint and sum to at most the wall.
    let pickup = Instant::now();
    let build_t0 = Instant::now();
    let fetched = inner.cache.get_or_build(tile, || {
        let snap = inner.registry.get(&tile.snapshot)?;
        let data = TileData::build(&snap, tile.tile, inner.cfg.ghost_margin);
        // A cold tile is inserted already holding the table its first
        // request renders: one charge, and one eviction pass that makes
        // room for both before the render allocates the traversal cache.
        data.fill_table(&snap, jobs[0].opts.render.estimator, inner.cfg.ghost_margin);
        Ok(data)
    });
    // The batch's other tables, filled by the first job that needs each: a
    // fill that fails fails the jobs that asked for that estimator, not
    // the batch.
    let resolved = fetched.map(|(data, mesh_hit)| {
        let tables: Vec<_> = jobs
            .iter()
            .map(|job| ensure_table(inner, tile, &data, job.opts.render.estimator))
            .collect();
        (data, mesh_hit, tables)
    });
    let build_us = build_t0.elapsed().as_micros() as u64;
    dtfe_telemetry::hist_record!("service.tile_resolve_us", build_us);
    // Degraded fallback: a quarantined tile with a retained stale copy is
    // served flagged instead of failed — the tile is sick, but an older
    // render beats no render when the operator opted into
    // stale_while_revalidate.
    let fail = |job: &Job, e: &ServiceError| {
        if inner.cfg.stale_while_revalidate && matches!(e, ServiceError::Quarantined { .. }) {
            if let Some(resp) =
                render_stale(inner, tile, &job.grid, &job.opts, job.enqueued, job.trace)
            {
                let _ = job.reply.send(Ok(resp));
                finish_job(inner, job);
                return;
            }
        }
        stats.failed.fetch_add(1, Ordering::Relaxed);
        let queue_us = pickup.duration_since(job.enqueued).as_micros() as u64;
        record_flight(
            inner,
            job,
            &[
                ("admission", job.admission_us),
                ("queue", queue_us),
                ("build", build_us),
            ],
            Some(e),
        );
        let _ = job.reply.send(Err(e.clone()));
        finish_job(inner, job);
    };
    let (data, mesh_hit, tables) = match resolved {
        Ok(ok) => ok,
        Err(e) => {
            jobs.iter().for_each(|job| fail(job, &e));
            return;
        }
    };
    let cache_hit = mesh_hit && !tables.iter().any(|t| matches!(t, Ok(true)));

    let batch_size = jobs.len() as u32;
    for (job, table) in jobs.iter().zip(&tables) {
        if let Err(e) = table {
            fail(job, e);
            continue;
        }
        // Re-check the deadline after the (possibly long) build.
        let now = Instant::now();
        if matches!(job.deadline, Some(d) if d <= now) {
            stats.deadline_dropped.fetch_add(1, Ordering::Relaxed);
            dtfe_telemetry::counter_add!("service.deadline_dropped", 1);
            let _ = job.reply.send(Err(ServiceError::DeadlineExceeded));
            finish_job(inner, job);
            continue;
        }
        let queue_us = pickup.duration_since(job.enqueued).as_micros() as u64;
        let t0 = Instant::now();
        let sigma = data
            .render(&job.grid, &job.opts)
            .expect("ensure_table returned Ok, and tables are never removed");
        let render_us = t0.elapsed().as_micros() as u64;
        if cache_hit {
            stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        stats.completed.fetch_add(1, Ordering::Relaxed);
        dtfe_telemetry::counter_add!("service.requests_completed", 1);
        dtfe_telemetry::hist_record!(
            "service.request_latency_us",
            job.submitted.elapsed().as_micros() as u64
        );
        dtfe_telemetry::hist_record!("service.render_us", render_us);
        record_flight(
            inner,
            job,
            &[
                ("admission", job.admission_us),
                ("queue", queue_us),
                ("build", build_us),
                ("render", render_us),
            ],
            None,
        );
        let _ = job.reply.send(Ok(RenderResponse {
            grid: sigma.spec,
            data: sigma.data,
            meta: ResponseMeta {
                cache_hit,
                batch_size,
                admission_us: job.admission_us,
                queue_us,
                build_us,
                render_us,
                trace: job.trace,
                degraded: false,
            },
        }));
        finish_job(inner, job);
    }
}

/// Make sure `data` holds `estimator`'s table, filling it — through the
/// cache, which isolates the fill and charges the bytes — unless it is
/// there. `Ok(true)` when it was not: this call built it, or waited out
/// another batch's fill of it, which is a miss either way.
fn ensure_table(
    inner: &Inner,
    tile: &TileKey,
    data: &SharedTile,
    estimator: EstimatorKind,
) -> Result<bool, ServiceError> {
    if data.has_table(estimator) {
        return Ok(false);
    }
    let snap = inner.registry.get(&tile.snapshot)?;
    inner.cache.fill(tile, data, || {
        data.fill_table(&snap, estimator, inner.cfg.ghost_margin)
    })?;
    Ok(true)
}

/// Record one finished request into the flight recorder, if it is
/// interesting: carrying a sampled trace id, slower than the operator's
/// threshold, or failed (quarantine refusals and caught build panics are
/// always interesting). The span tree is synthesized from the stage
/// durations: a depth-0 `request` span from the submission origin, one
/// depth-1 span per non-empty stage laid back-to-back, and for failures a
/// trailing `error` span carrying the message.
fn record_flight(
    inner: &Inner,
    job: &Job,
    stages: &[(&'static str, u64)],
    error: Option<&ServiceError>,
) {
    let wall_us = job.submitted.elapsed().as_micros() as u64;
    let reason = match error {
        Some(ServiceError::Quarantined { .. }) => "quarantined",
        Some(ServiceError::Internal(msg)) if msg.contains("panic") => "panic",
        Some(_) => "failed",
        None if job.trace.is_some_and(|t| t.sampled) => "sampled",
        None if inner
            .cfg
            .slow_threshold
            .is_some_and(|t| wall_us >= t.as_micros() as u64) =>
        {
            "slow"
        }
        None => return,
    };
    let stage_sum: u64 = stages.iter().map(|(_, d)| d).sum();
    let mut spans = vec![SpanEvent {
        name: "request".to_string(),
        tid: 0,
        depth: 0,
        t0_us: job.t0_us,
        dur_us: wall_us.max(stage_sum),
        cpu_us: 0,
        args: Vec::new(),
    }];
    let mut off = job.t0_us;
    for (name, dur) in stages {
        if *dur > 0 {
            spans.push(SpanEvent {
                name: (*name).to_string(),
                tid: 0,
                depth: 1,
                t0_us: off,
                dur_us: *dur,
                cpu_us: 0,
                args: Vec::new(),
            });
        }
        off += dur;
    }
    if let Some(e) = error {
        spans.push(SpanEvent {
            name: "error".to_string(),
            tid: 0,
            depth: 1,
            t0_us: off,
            dur_us: 0,
            cpu_us: 0,
            args: vec![("message".to_string(), e.to_string())],
        });
    }
    inner.flight.record(RequestTrace {
        trace_id: job.trace.map(|t| t.hex()).unwrap_or_default(),
        reason: reason.to_string(),
        t0_us: job.t0_us,
        spans,
    });
    dtfe_telemetry::counter_add!("service.flight_recorded", 1);
}

/// Flight-record a request that died at submission. Only incident-grade
/// failures are kept (quarantine, corruption, internal errors): routine
/// refusals — unknown ids, invalid requests, load shedding — would churn
/// the bounded ring without telling the operator anything a counter
/// doesn't.
fn record_submit_failure(
    inner: &Inner,
    trace: Option<TraceContext>,
    t0_us: u64,
    submitted: Instant,
    e: &ServiceError,
) {
    let reason = match e {
        ServiceError::Quarantined { .. } => "quarantined",
        ServiceError::Internal(msg) if msg.contains("panic") => "panic",
        ServiceError::CorruptSnapshot(_) | ServiceError::Internal(_) => "failed",
        _ => return,
    };
    let wall_us = submitted.elapsed().as_micros() as u64;
    let spans = vec![
        SpanEvent {
            name: "request".to_string(),
            tid: 0,
            depth: 0,
            t0_us,
            dur_us: wall_us,
            cpu_us: 0,
            args: Vec::new(),
        },
        SpanEvent {
            name: "error".to_string(),
            tid: 0,
            depth: 1,
            t0_us: t0_us + wall_us,
            dur_us: 0,
            cpu_us: 0,
            args: vec![("message".to_string(), e.to_string())],
        },
    ];
    inner.flight.record(RequestTrace {
        trace_id: trace.map(|t| t.hex()).unwrap_or_default(),
        reason: reason.to_string(),
        t0_us,
        spans,
    });
    dtfe_telemetry::counter_add!("service.flight_recorded", 1);
}

/// Render a request from an evicted-but-retained stale tile, if one
/// exists and already holds the request's estimator table: degraded
/// serving is for when there is no capacity to build, so it never fills
/// one. Counted as a completed hit plus `stale_served`, so the
/// `hits + misses == completed` invariant holds for degraded responses
/// too.
fn render_stale(
    inner: &Inner,
    tile: &TileKey,
    grid: &GridSpec2,
    opts: &MarchOptions,
    enqueued: Instant,
    trace: Option<TraceContext>,
) -> Option<RenderResponse> {
    let data = inner.cache.get_stale(tile)?;
    let queue_us = enqueued.elapsed().as_micros() as u64;
    let t0 = Instant::now();
    let sigma = data.render(grid, opts)?;
    let render_us = t0.elapsed().as_micros() as u64;
    let stats = &inner.stats;
    stats.hits.fetch_add(1, Ordering::Relaxed);
    stats.completed.fetch_add(1, Ordering::Relaxed);
    stats.stale_served.fetch_add(1, Ordering::Relaxed);
    dtfe_telemetry::counter_add!("service.requests_completed", 1);
    dtfe_telemetry::counter_add!("service.stale_served", 1);
    Some(RenderResponse {
        grid: sigma.spec,
        data: sigma.data,
        meta: ResponseMeta {
            cache_hit: true,
            batch_size: 1,
            admission_us: 0,
            queue_us,
            build_us: 0,
            render_us,
            trace,
            degraded: true,
        },
    })
}
