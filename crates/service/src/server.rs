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
//! filled over it unless it is there (and, for a request whose render
//! marches, the march's positions and hull index), and each request's grid
//! is rendered against the shared mesh — so the marginal cost of the
//! 2nd..Nth coalesced request is render-only.
//!
//! ## Outcomes
//!
//! Every request [`Service::submit`] receives ends in one function,
//! `finish`, exactly once — refused at submission, dropped on its
//! deadline, failed, or served. `finish` counts the one outcome (`shed`,
//! `rejected`, `deadline_dropped`, `failed`, or `completed` as a hit or a
//! miss), records the flight trace, refunds admission if the request was
//! admitted, and replies. Overload is always `Overloaded` and a sick tile
//! always `Quarantined`: the service serves only fresh renders of the one
//! copy of a tile its cache holds.
//!
//! The flight-recording rule: a sampled request is recorded whatever its
//! outcome (reason `sampled`, or its incident's); an unsampled one only on
//! an incident — `quarantined`, `panic`, or `failed` (every admitted
//! failure, and corrupt or internal refusals) — or, when served, on taking
//! longer than the operator's slow threshold (`slow`).
//!
//! ## Drain semantics
//!
//! [`Service::drain`] flips the queue into draining mode: new submissions
//! are refused with [`ServiceError::ShuttingDown`], already-admitted
//! requests are served to completion, and the call returns once every
//! worker has exited. Dropping the service drains implicitly.

use crate::admission::Admission;
use crate::api::{HealthStatus, RenderRequest, RenderResponse, ResponseMeta, TraceContext};
use crate::cache::{catch_panic, TileCache};
use crate::config::{default_model, ServiceConfig};
use crate::error::ServiceError;
use crate::registry::SnapshotRegistry;
use crate::stats_doc::{CacheCounters, MetricsDigest, ServingCounters, StatsDocument};
use crate::tiles::{SharedTile, TileData, TileKey};
use dtfe_core::{EstimatorKind, Field2, GridSpec2, MarchOptions};
use dtfe_telemetry::{clock, FlightRecorder, RequestTrace, SpanEvent};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, LockResult, Mutex, PoisonError};
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
}

impl ServiceStats {
    fn get(a: &AtomicU64) -> u64 {
        a.load(Ordering::Relaxed)
    }
}

/// What a request is answered with.
type Reply = Result<RenderResponse, ServiceError>;

/// A request from the moment [`Service::submit`] receives it until
/// [`finish`] answers it.
struct Ticket {
    /// Submission entry, microseconds on the telemetry clock — the origin
    /// for flight-recorder span offsets.
    t0_us: u64,
    /// Submission entry wall clock (request wall time = elapsed since).
    submitted: Instant,
    /// The priced cost admission holds for the request: `Some` once it is
    /// admitted (and so queued), refunded by [`finish`].
    admitted: Option<f64>,
    /// Trace context the request carried (or `None` for untraced).
    trace: Option<TraceContext>,
    reply: mpsc::Sender<Reply>,
}

impl Ticket {
    /// The request's meta as of now, all of it spent in admission.
    fn meta(&self) -> ResponseMeta {
        ResponseMeta {
            admission_us: self.submitted.elapsed().as_micros() as u64,
            trace: self.trace,
            ..ResponseMeta::default()
        }
    }
}

/// One admitted request waiting in (or moving through) the queue.
struct Job {
    ticket: Ticket,
    grid: GridSpec2,
    opts: MarchOptions,
    /// The meta at enqueue: the admission stage and the trace.
    meta: ResponseMeta,
    enqueued: Instant,
    deadline: Option<Instant>,
}

impl Job {
    /// The one expiry predicate: a job whose deadline has passed is not
    /// worth a build or a render.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }

    /// The job's meta as of its batch's pickup: admission and queue stages.
    fn meta(&self, pickup: Instant) -> ResponseMeta {
        ResponseMeta {
            queue_us: pickup.duration_since(self.enqueued).as_micros() as u64,
            ..self.meta
        }
    }
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
            cache: TileCache::new(cfg.cache_budget_bytes),
            admission: Admission::new(default_model(), cfg.admission_budget_s, cfg.workers),
            queue: Mutex::new(QueueState {
                per_tile: HashMap::new(),
                order: VecDeque::new(),
                draining: false,
                in_flight: 0,
            }),
            cv: Condvar::new(),
            stats: ServiceStats::default(),
            flight: FlightRecorder::new(ServiceConfig::FLIGHT_CAPACITY),
            cfg,
        });
        let mut service = Service {
            inner,
            workers: Mutex::default(),
            _telemetry: telemetry,
        };
        for i in 0..service.inner.cfg.workers {
            let inner = service.inner.clone();
            let worker = std::thread::Builder::new()
                .name(format!("dtfe-worker-{i}"))
                .spawn(move || worker_loop(&inner))
                // Returning drops `service`, whose drain joins the workers
                // already started.
                .map_err(|e| ServiceError::Internal(format!("spawn render worker {i}: {e}")))?;
            unpoisoned(service.workers.get_mut()).push(worker);
        }
        Ok(service)
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
    /// are pipelining submissions yourself. A refusal (invalid, unknown,
    /// shed, shutting down) is the `Err`.
    pub fn submit(&self, req: &RenderRequest) -> Result<mpsc::Receiver<Reply>, ServiceError> {
        let (reply, rx) = mpsc::channel();
        // Stage-timing origin: everything from here to enqueue is the
        // request's admission stage.
        let ticket = Ticket {
            t0_us: clock::now_us(),
            submitted: Instant::now(),
            admitted: None,
            trace: req.trace,
            reply,
        };
        match self.admit(req, ticket) {
            Ok(()) => Ok(rx),
            Err((ticket, e)) => {
                finish(&self.inner, ticket.meta(), ticket, Err(e.clone()));
                Err(e)
            }
        }
    }

    /// Resolve, price, admit and enqueue `req`. A refusal hands the ticket
    /// back unanswered.
    fn admit(&self, req: &RenderRequest, ticket: Ticket) -> Result<(), (Ticket, ServiceError)> {
        let inner = &*self.inner;
        // Loading the snapshot is part of resolving: unknown/corrupt ids
        // fail fast, before admission charges anything.
        let Resolved {
            tile,
            particles,
            grid,
            opts,
        } = match self.resolve(req) {
            Ok(resolved) => resolved,
            Err(e) => return Err((ticket, e)),
        };
        let cost_s = {
            let estimator = opts.estimator;
            let resident = inner.cache.peek(&tile);
            let has_table = resident.as_ref().is_some_and(|d| d.has_table(estimator));
            inner.admission.price(
                particles,
                resident.is_some(),
                (!has_table).then_some(estimator),
            )
        };

        let deadline = match req.deadline_ms {
            0 => None,
            ms => Some(Instant::now() + Duration::from_millis(ms)),
        };

        // Admission last, and under the queue lock: a request is admitted
        // exactly when it is queued, so no earlier exit has anything to
        // refund.
        let mut q = unpoisoned(inner.queue.lock());
        if q.draining {
            return Err((ticket, ServiceError::ShuttingDown));
        }
        if let Err(shed) = inner.admission.try_admit(cost_s) {
            return Err((ticket, shed));
        }
        let job = Job {
            grid,
            opts,
            meta: ticket.meta(),
            enqueued: Instant::now(),
            deadline,
            ticket: Ticket {
                admitted: Some(cost_s),
                ..ticket
            },
        };
        if !q.per_tile.contains_key(&tile) {
            q.order.push_back(tile.clone());
        }
        q.per_tile.entry(tile).or_default().push_back(job);
        q.in_flight += 1;
        dtfe_telemetry::gauge_set!("service.queue_depth", q.in_flight as i64);
        inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
        dtfe_telemetry::counter_add!("service.requests_admitted", 1);
        // One job wakes one idle worker: `next_batch` checks the queue
        // before it waits, so a worker that is busy now finds the job when
        // it is done, and `drain` wakes them all.
        inner.cv.notify_one();
        Ok(())
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

        // The batch framework's field, validated: degenerate geometry is a
        // typed error, not a panic in the marching kernel.
        let (grid, opts) =
            dtfe_framework::field_geometry(req.center, cfg.field_len, resolution, samples)
                .map_err(ServiceError::InvalidRequest)?;
        let opts = opts.estimator(estimator);

        let tile = TileKey::new(req.snapshot.clone(), snap.decomp.rank_of(req.center));
        Ok(Resolved {
            particles: snap.tile_counts[tile.tile],
            tile,
            grid,
            opts,
        })
    }

    /// Readiness snapshot for probes: answers from counters and brief
    /// lock holds, never from the render path.
    pub fn health(&self) -> HealthStatus {
        let inner = &*self.inner;
        let (draining, queue_depth) = {
            let q = unpoisoned(inner.queue.lock());
            (q.draining, q.in_flight as u64)
        };
        HealthStatus {
            ok: !draining,
            draining,
            resident_tiles: inner.cache.resident_entries() as u64,
            resident_bytes: inner.cache.resident_bytes() as u64,
            quarantined_tiles: inner.cache.quarantined_entries() as u64,
            queue_depth,
            backlog_ms: (inner.admission.backlog_s() * 1e3) as u64,
        }
    }

    /// Retune the admission budget at runtime (operator load-shedding
    /// control; `0.0` sheds all new work).
    pub fn set_admission_budget(&self, budget_s: f64) {
        self.inner.admission.set_budget(budget_s);
    }

    /// Drain: refuse new work, serve everything already admitted, then
    /// join the workers. Idempotent.
    pub fn drain(&self) {
        {
            let mut q = unpoisoned(self.inner.queue.lock());
            q.draining = true;
            self.inner.cv.notify_all();
        }
        let mut workers = unpoisoned(self.workers.lock());
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
            },
            cache: CacheCounters {
                resident_bytes: charge.total() as u64,
                ghost_bytes: cache.resident_ghost_bytes() as u64,
                budget_bytes: cache.budget() as u64,
                entries: cache.resident_entries() as u64,
                evictions: cache.stats.evictions.load(Ordering::Relaxed),
                uncacheable: cache.stats.uncacheable.load(Ordering::Relaxed),
                singleflight_parks: cache.stats.singleflight_parks.load(Ordering::Relaxed),
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

/// A lock's guard, poisoned or not. Poison cannot occur where this is
/// used: no caller holds a lock across code that can panic. Builds, fills,
/// snapshot loads and renders run under `catch_panic` with no lock held;
/// the cache, registry, admission, table-map and queue locks guard map,
/// counter and queue updates only, as do the cluster's.
pub fn unpoisoned<G>(lock: LockResult<G>) -> G {
    lock.unwrap_or_else(PoisonError::into_inner)
}

/// Pop the next tile batch, or `None` when draining and empty.
fn next_batch(inner: &Inner) -> Option<(TileKey, Vec<Job>)> {
    let mut q = unpoisoned(inner.queue.lock());
    loop {
        if let Some(tile) = q.order.pop_front() {
            let jobs = q.per_tile.remove(&tile).map(Vec::from).unwrap_or_default();
            return Some((tile, jobs));
        }
        if q.draining {
            return None;
        }
        q = unpoisoned(inner.cv.wait(q));
    }
}

fn worker_loop(inner: &Inner) {
    while let Some((tile, jobs)) = next_batch(inner) {
        serve_batch(inner, &tile, jobs);
    }
}

fn serve_batch(inner: &Inner, tile: &TileKey, mut jobs: Vec<Job>) {
    if jobs.len() > 1 {
        inner
            .stats
            .coalesced
            .fetch_add(jobs.len() as u64 - 1, Ordering::Relaxed);
        dtfe_telemetry::counter_add!("service.requests_coalesced", jobs.len() as u64 - 1);
    }

    // Drop jobs whose deadline already passed — before paying for a build
    // they can no longer use.
    let now = Instant::now();
    for job in jobs.extract_if(.., |job| job.expired(now)) {
        let meta = job.meta(now);
        finish(inner, meta, job.ticket, Err(ServiceError::DeadlineExceeded));
    }
    let Some(first) = jobs.first() else {
        return;
    };

    // Queue stage ends here for every job in the batch: the worker has
    // picked it up. What follows is build (shared) + per-job render, so
    // the per-stage intervals are disjoint and sum to at most the wall.
    let pickup = Instant::now();
    let fetched = inner.cache.get_or_build(tile, || {
        let snap = inner.registry.get(&tile.snapshot)?;
        let data = TileData::build(&snap, tile.tile);
        // A cold tile is inserted already holding what its first request
        // renders from — its table and, if it marches, the march's state:
        // one charge, and one eviction pass that makes room for them all.
        data.fill_table(&snap, first.opts.estimator);
        if data.marches(&first.grid, &first.opts) {
            data.fill_march(first.opts.estimator);
        }
        Ok(data)
    });
    // The batch's other tables (and the march's state), filled by the
    // first job that needs each: a fill that fails fails the jobs that
    // asked for it, not the batch. `Ok((data, true))` when the job's table
    // or march state was not there.
    let tables: Vec<Result<(&SharedTile, bool), ServiceError>> = jobs
        .iter()
        .map(|job| {
            let (data, _) = fetched.as_ref().map_err(ServiceError::clone)?;
            Ok((data, ensure_ready(inner, tile, data, job)?))
        })
        .collect();
    let build_us = pickup.elapsed().as_micros() as u64;
    dtfe_telemetry::hist_record!("service.tile_resolve_us", build_us);
    let cache_hit =
        matches!(fetched, Ok((_, true))) && !tables.iter().any(|t| matches!(t, Ok((_, true))));

    let batch_size = jobs.len() as u32;
    for (job, table) in jobs.into_iter().zip(tables) {
        let mut meta = ResponseMeta {
            cache_hit,
            batch_size,
            build_us,
            ..job.meta(pickup)
        };
        let field = match table {
            // Re-check the deadline after the (possibly long) build.
            Ok(_) if job.expired(Instant::now()) => Err(ServiceError::DeadlineExceeded),
            Ok((data, _)) => render(data, &job.grid, &job.opts, &mut meta),
            Err(e) => Err(e),
        };
        finish(inner, meta, job.ticket, field);
    }
}

/// Make sure `data` holds what `job` renders from — its estimator's table
/// and, when the render marches, the march's positions and hull index —
/// filling each through the cache, which isolates the fill and charges
/// the bytes, unless it is there. `Ok(true)` when one was not: this call
/// built it, or waited out another batch's fill of it, which is a miss
/// either way.
fn ensure_ready(
    inner: &Inner,
    tile: &TileKey,
    data: &SharedTile,
    job: &Job,
) -> Result<bool, ServiceError> {
    let estimator = job.opts.estimator;
    let mut missed = false;
    if !data.has_table(estimator) {
        let snap = inner.registry.get(&tile.snapshot)?;
        inner
            .cache
            .fill(tile, data, || data.fill_table(&snap, estimator))?;
        missed = true;
    }
    if !data.has_march(estimator) && data.marches(&job.grid, &job.opts) {
        inner
            .cache
            .fill(tile, data, || data.fill_march(estimator))?;
        missed = true;
    }
    Ok(missed)
}

/// March one request against a tile holding its table, timed into `meta`
/// and isolated like a build: a panic is a typed `Internal` error.
fn render(
    data: &TileData,
    grid: &GridSpec2,
    opts: &MarchOptions,
    meta: &mut ResponseMeta,
) -> Result<Field2, ServiceError> {
    let t0 = Instant::now();
    let field = catch_panic(|| data.render(grid, opts));
    meta.render_us = t0.elapsed().as_micros() as u64;
    match field {
        Ok(Some(field)) => Ok(field),
        Ok(None) => Err(ServiceError::Internal(format!(
            "no {} table to render",
            opts.estimator.label()
        ))),
        Err(msg) => Err(ServiceError::Internal(format!("render panicked: {msg}"))),
    }
}

/// The one exit: every request [`Service::submit`] receives ends here,
/// exactly once. It counts the request's one outcome, records its flight
/// trace, refunds its admission if it was admitted, and replies — with
/// `field` under `meta`, or the error.
fn finish(inner: &Inner, meta: ResponseMeta, ticket: Ticket, field: Result<Field2, ServiceError>) {
    let stats = &inner.stats;
    let count = |counter: &AtomicU64| counter.fetch_add(1, Ordering::Relaxed);
    let wall_us = ticket.submitted.elapsed().as_micros() as u64;
    match (&field, ticket.admitted) {
        (Ok(_), _) => {
            count(&stats.completed);
            dtfe_telemetry::counter_add!("service.requests_completed", 1);
            count(if meta.cache_hit {
                &stats.hits
            } else {
                &stats.misses
            });
            dtfe_telemetry::hist_record!("service.request_latency_us", wall_us);
            dtfe_telemetry::hist_record!("service.render_us", meta.render_us);
        }
        (Err(ServiceError::DeadlineExceeded), Some(_)) => {
            count(&stats.deadline_dropped);
            dtfe_telemetry::counter_add!("service.deadline_dropped", 1);
        }
        (Err(_), Some(_)) => {
            count(&stats.failed);
        }
        (Err(ServiceError::Overloaded { .. }), None) => {
            count(&stats.shed);
        }
        (Err(_), None) => {
            count(&stats.rejected);
            dtfe_telemetry::counter_add!("service.requests_rejected", 1);
        }
    }
    record_flight(inner, &ticket, &meta, wall_us, field.as_ref().err());
    if let Some(cost_s) = ticket.admitted {
        inner.admission.complete(cost_s);
        let mut q = unpoisoned(inner.queue.lock());
        q.in_flight -= 1;
        dtfe_telemetry::gauge_set!("service.queue_depth", q.in_flight as i64);
    }
    let _ = ticket.reply.send(field.map(|sigma| RenderResponse {
        grid: sigma.spec,
        data: sigma.data,
        meta,
    }));
}

/// Record a finished request into the flight recorder by the one rule of
/// the module docs: a sampled request always, an unsampled one on an
/// incident (quarantine, a caught panic, an admitted request's failure, a
/// corrupt or internal refusal) or when served slower than the operator's
/// threshold. The span tree is synthesized from `meta`'s stage durations:
/// a depth-0 `request` span from the submission origin, one depth-1 span
/// per non-empty stage laid back-to-back, and for errors a trailing
/// `error` span carrying the message.
fn record_flight(
    inner: &Inner,
    ticket: &Ticket,
    meta: &ResponseMeta,
    wall_us: u64,
    error: Option<&ServiceError>,
) {
    let incident = match error {
        Some(ServiceError::Quarantined { .. }) => Some("quarantined"),
        Some(ServiceError::Internal(msg)) if msg.contains("panic") => Some("panic"),
        Some(ServiceError::CorruptSnapshot(_) | ServiceError::Internal(_)) => Some("failed"),
        Some(ServiceError::DeadlineExceeded) => None,
        Some(_) if ticket.admitted.is_some() => Some("failed"),
        _ => None,
    };
    let sampled = meta.trace.is_some_and(|t| t.sampled);
    let slow = error.is_none()
        && inner
            .cfg
            .slow_threshold
            .is_some_and(|t| wall_us >= t.as_micros() as u64);
    let Some(reason) = incident
        .or(sampled.then_some("sampled"))
        .or(slow.then_some("slow"))
    else {
        return;
    };
    let span = |name: &str, depth, t0_us, dur_us, args| SpanEvent {
        name: name.to_string(),
        tid: 0,
        depth,
        t0_us,
        dur_us,
        cpu_us: 0,
        args,
    };
    let stages = [
        ("admission", meta.admission_us),
        ("queue", meta.queue_us),
        ("build", meta.build_us),
        ("render", meta.render_us),
    ];
    let request_us = wall_us.max(meta.stage_sum_us());
    let mut spans = vec![span("request", 0, ticket.t0_us, request_us, Vec::new())];
    let mut off = ticket.t0_us;
    for (name, dur) in stages {
        if dur > 0 {
            spans.push(span(name, 1, off, dur, Vec::new()));
        }
        off += dur;
    }
    if let Some(e) = error {
        let message = vec![("message".to_string(), e.to_string())];
        spans.push(span("error", 1, off, 0, message));
    }
    inner.flight.record(RequestTrace {
        trace_id: meta.trace.map(|t| t.hex()).unwrap_or_default(),
        reason: reason.to_string(),
        t0_us: ticket.t0_us,
        spans,
    });
    dtfe_telemetry::counter_add!("service.flight_recorded", 1);
}
