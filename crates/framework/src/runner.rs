//! Phases 2–4: modeling, scheduling, and execution with work sharing
//! (paper §IV-C/D/E) over the simulated cluster runtime.
//!
//! Execution is the paper's Fig. 5 schedule as written, over a reliable
//! transport: a sender sends each scheduled bundle once, up front, then
//! runs the items it kept; a receiver runs its local items, then blocks on
//! each sender of its receive list in turn. Failures that every rank can
//! see (a malformed field, an unreadable snapshot, a rejected schedule) are
//! typed [`FrameworkError`]s, returned by every rank before the collective
//! they would have torn.

use crate::decomp::Decomposition;
use crate::error::FrameworkError;
use crate::ingest::{redistribute, RankParticles};
use crate::model::{ModelResiduals, ParticleCounter, ResidualSummary, TimingSample, WorkloadModel};
use crate::sharing::{create_schedule, pack_bins};
use dtfe_core::density::{DtfeField, Mass};
use dtfe_core::grid::{Field2, GridSpec2};
use dtfe_core::marching::{surface_density_with_stats, MarchOptions};
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_simcluster::Comm;
use dtfe_telemetry::{counter_add, gauge_set, hist_record, span, Recorder, TelemetrySnapshot};
use std::sync::Arc;

/// Message tag of work-sharing bundles.
const TAG_WORK: u32 = 0xD7FE;

/// Seed of each rank's pick of its test item (paper §IV-C: "one random
/// test problem per process").
const SEED: u64 = 0x5EED;

/// A work bundle: the sender's particle set and the field centres to render
/// ("the process receives a copy of the sender's particle set and density
/// field positions", paper §IV-E). The particles are shared, so a sender
/// with several receivers copies them once.
struct Bundle {
    particles: Arc<Vec<Vec3>>,
    centers: Vec<Vec3>,
}

/// One requested surface-density field: a cube of side
/// [`FrameworkConfig::field_len`] centred here, rendered to a square grid.
/// (All fields share size and resolution — paper §IV-C: "we assume all
/// surface density fields to be of the same size and resolution".)
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FieldRequest {
    pub center: Vec3,
}

/// Framework configuration.
#[derive(Clone, Debug)]
pub struct FrameworkConfig {
    /// Physical field side length `l_F` (the ghost margin is `l_F / 2`).
    pub field_len: f64,
    /// Grid resolution `N_g` per field dimension.
    pub resolution: usize,
    /// Enable the work-sharing phases (off = the "unbalanced" runs of
    /// Figs. 9–13).
    pub balance: bool,
    /// Keep the rendered fields in the reports (memory-heavy; tests and
    /// small examples only).
    pub keep_fields: bool,
    /// Monte-Carlo samples per grid cell.
    pub samples: usize,
    /// Collect structured telemetry: each rank runs under its own
    /// [`Recorder`] and attaches a [`TelemetrySnapshot`] (spans + metrics)
    /// to its [`RankReport`], from which [`RunReport::chrome_trace`] and
    /// [`RunReport::metrics_json`] are assembled. Off by default — the
    /// disabled cost is one atomic load per instrumentation site.
    pub telemetry: bool,
}

impl FrameworkConfig {
    pub fn new(field_len: f64, resolution: usize) -> Self {
        FrameworkConfig {
            field_len,
            resolution,
            balance: true,
            keep_fields: false,
            samples: 1,
            telemetry: false,
        }
    }

    /// Ghost margin: `l_F / 2` (paper §IV-B).
    pub fn ghost_margin(&self) -> f64 {
        self.field_len * 0.5
    }
}

/// The grid and render options of the field centred at `center`: a
/// `field_len` square of `resolution` cells a side at `center.xy`,
/// integrated over the field cube's depth `center.z ± field_len / 2` with
/// `samples` per cell, on the calling thread. The batch framework and the
/// serving tier both render by this one rule (the service adds its
/// estimator), which is what makes a served field the batch field bit for
/// bit. Validated: malformed geometry is an error, not a panic in the
/// kernel.
pub fn field_geometry(
    center: Vec3,
    field_len: f64,
    resolution: usize,
    samples: usize,
) -> Result<(GridSpec2, MarchOptions), String> {
    let grid =
        GridSpec2::try_square(center.xy(), field_len, resolution).map_err(|e| e.to_string())?;
    // Batch ranks already run in parallel, and so do serving workers;
    // nesting Rayon here would oversubscribe (the paper's per-rank OpenMP
    // threads map onto the whole-process pool used by the shared-memory
    // experiments instead).
    let opts = MarchOptions::new()
        .samples(samples)
        .parallel(false)
        .z_range(center.z - field_len * 0.5, center.z + field_len * 0.5);
    opts.validate().map_err(|e| e.to_string())?;
    Ok((grid, opts))
}

/// Busy (thread-CPU) seconds per phase, per rank (the series of Figs.
/// 9/12/13a). Thread-CPU time is immune to the oversubscription of
/// thread-ranks on few cores; `sharing_wait` alone is wall clock, since a
/// blocked thread burns no CPU. The same numbers are recorded as telemetry
/// spans when [`FrameworkConfig::telemetry`] is set.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    pub partition: f64,
    pub model: f64,
    pub triangulate: f64,
    pub render: f64,
    /// Time blocked waiting for work-sharing messages.
    pub sharing_wait: f64,
    pub total: f64,
}

/// Predicted-vs-actual record for one executed work item (Fig. 11's error
/// histograms).
#[derive(Clone, Copy, Debug)]
pub struct ItemRecord {
    pub n_particles: f64,
    pub predicted_tri: f64,
    pub predicted_interp: f64,
    pub actual_tri: f64,
    pub actual_interp: f64,
}

/// Everything a rank reports back.
#[derive(Debug, Default)]
pub struct RankReport {
    pub rank: usize,
    pub timings: PhaseTimings,
    pub local_items: usize,
    pub received_items: usize,
    pub sent_items: usize,
    pub fields_computed: usize,
    /// Per-rank predicted total local time (Fig. 10's "unbalanced" series
    /// is the spread of these).
    pub predicted_local_time: f64,
    pub records: Vec<ItemRecord>,
    /// Rendered fields, when `keep_fields` is set, with their request
    /// centres.
    pub fields: Vec<(Vec3, Field2)>,
    /// Spans and metrics recorded on this rank, when
    /// [`FrameworkConfig::telemetry`] was set.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Whole-run summary returned by the drivers.
#[derive(Debug)]
pub struct RunReport {
    pub ranks: Vec<RankReport>,
    /// Number of requested fields.
    pub requested: usize,
    /// Fields actually rendered (across all ranks, exactly-once).
    pub computed: usize,
    /// Requested fields that were not rendered: requests whose centre lies
    /// outside the domain, so no rank owns them.
    pub lost_items: usize,
    /// Always `false`: the transport is reliable, so no run degrades. Kept
    /// because the `perf` batch workload reads it.
    pub degraded: bool,
    /// Always `0`: the transport is reliable, so nothing is retransmitted.
    /// Kept because the `perf` batch workload reads it.
    pub retries: u64,
}

impl RunReport {
    /// Per-rank telemetry snapshots, in rank order (empty when the run was
    /// made without [`FrameworkConfig::telemetry`]).
    pub fn telemetry(&self) -> Vec<TelemetrySnapshot> {
        self.ranks
            .iter()
            .filter_map(|r| r.telemetry.clone())
            .collect()
    }

    /// Chrome-trace JSON of the whole run (one `pid` per rank), loadable in
    /// Perfetto / `chrome://tracing`. `None` when telemetry was off.
    pub fn chrome_trace(&self) -> Option<String> {
        let snaps = self.telemetry();
        (!snaps.is_empty()).then(|| dtfe_telemetry::chrome_trace(&snaps))
    }

    /// Metrics JSON: per-rank counters/gauges/histograms plus a merged
    /// view. `None` when telemetry was off.
    pub fn metrics_json(&self) -> Option<String> {
        let snaps = self.telemetry();
        (!snaps.is_empty()).then(|| dtfe_telemetry::metrics_json(&snaps))
    }

    /// Per-rank compute (triangulate + render) busy seconds.
    pub fn compute_times(&self) -> Vec<f64> {
        self.ranks
            .iter()
            .map(|r| r.timings.triangulate + r.timings.render)
            .collect()
    }

    /// The paper's Fig. 10 imbalance metric (normalized σ of per-rank
    /// compute time), from the same [`dtfe_telemetry::LoadSummary`] helper
    /// as the event simulator and the schedule report.
    pub fn imbalance(&self) -> f64 {
        dtfe_telemetry::normalized_std(&self.compute_times())
    }

    /// Measured-vs-predicted residuals of the fitted workload models over
    /// every executed item of the run — how well the OLS (`c·n·log₂n`) and
    /// Gauss–Newton (`α·n^β`) fits explain the recorded phase metrics.
    pub fn model_residuals(&self) -> ModelResiduals {
        let records = || self.ranks.iter().flat_map(|r| r.records.iter());
        ModelResiduals {
            tri: ResidualSummary::from_pairs(records().map(|r| (r.predicted_tri, r.actual_tri))),
            interp: ResidualSummary::from_pairs(
                records().map(|r| (r.predicted_interp, r.actual_interp)),
            ),
        }
    }
}

/// What [`execute_item`] did: the particles in the item's cube, the phase
/// times, and the rendered field.
struct Executed {
    n_local: usize,
    t_tri: f64,
    t_render: f64,
    field: Field2,
}

/// Bin a rank's particles, which lie in `bounds`, for the item cubes cut
/// from them: bins a quarter of a field across.
fn item_bins<'a>(
    particles: &'a [Vec3],
    bounds: Aabb3,
    cfg: &FrameworkConfig,
) -> ParticleCounter<'a> {
    ParticleCounter::new(particles, bounds, (cfg.field_len * 0.25).max(1e-9))
}

/// Execute one work item: triangulate the particles in the item's cube and
/// render its field.
fn execute_item(
    particles: &ParticleCounter<'_>,
    center: Vec3,
    cfg: &FrameworkConfig,
) -> Result<Executed, FrameworkError> {
    let (grid, opts) = item_geometry(center, cfg)?;
    let local = particles.particles_in_cube(center, cfg.field_len);

    let sp = span!("framework.triangulate_item", n = local.len());
    let del = match dtfe_delaunay::DelaunayBuilder::new().build(&local) {
        Ok(d) => d,
        Err(_) => {
            return Ok(Executed {
                n_local: local.len(),
                t_tri: sp.end().cpu_s,
                t_render: 0.0,
                field: Field2::zeros(grid),
            })
        }
    };
    let field = DtfeField::from_delaunay_for_inputs(del, local.len(), Mass::Uniform(1.0));
    let t_tri = sp.end().cpu_s;

    let sp = span!("framework.interpolate_item", n = local.len());
    let (sigma, _stats) = surface_density_with_stats(&field, &grid, &opts);
    let t_render = sp.end().cpu_s;
    counter_add!("framework.items_executed", 1);
    hist_record!("framework.item_tri_us", (t_tri * 1e6) as u64);
    hist_record!("framework.item_interp_us", (t_render * 1e6) as u64);
    Ok(Executed {
        n_local: local.len(),
        t_tri,
        t_render,
        field: sigma,
    })
}

/// [`field_geometry`] of an item under the run's configuration.
fn item_geometry(
    center: Vec3,
    cfg: &FrameworkConfig,
) -> Result<(GridSpec2, MarchOptions), FrameworkError> {
    field_geometry(center, cfg.field_len, cfg.resolution, cfg.samples)
        .map_err(|reason| FrameworkError::Geometry { center, reason })
}

/// Run the full four-phase framework on one rank. `my_block` is this rank's
/// arbitrary slice of the input (the "parallel read"); `requests` is the
/// full request list (every rank holds it, as after the paper's broadcast;
/// each discards non-local centres).
///
/// With [`FrameworkConfig::telemetry`] set, the whole run executes under a
/// per-rank [`Recorder`] and the report carries the snapshot.
pub fn run_rank(
    comm: &mut Comm,
    my_block: Vec<Vec3>,
    requests: &[FieldRequest],
    decomp: &Decomposition,
    cfg: &FrameworkConfig,
) -> Result<RankReport, FrameworkError> {
    let recorder = cfg
        .telemetry
        .then(|| Recorder::new(&format!("rank{}", comm.rank())));
    let guard = recorder.as_ref().map(|r| r.install());
    let result = run_rank_inner(comm, my_block, requests, decomp, cfg);
    drop(guard);
    result.map(|mut report| {
        report.telemetry = recorder.map(|r| r.snapshot());
        report
    })
}

fn run_rank_inner(
    comm: &mut Comm,
    my_block: Vec<Vec3>,
    requests: &[FieldRequest],
    decomp: &Decomposition,
    cfg: &FrameworkConfig,
) -> Result<RankReport, FrameworkError> {
    // The phase spans below are contiguous children of this one, so the
    // depth-1 spans of a rank's snapshot cover (nearly) all of its busy
    // time — the invariant the observability acceptance test checks.
    let rank_span = span!("framework.rank", rank = comm.rank());
    let mut report = RankReport {
        rank: comm.rank(),
        ..Default::default()
    };
    // Every rank holds the same requests and configuration, so every rank
    // refuses a malformed field here, before its first collective.
    for r in requests {
        item_geometry(r.center, cfg)?;
    }

    // ---- Phase 1: partition & redistribute ----
    let sp = span!("framework.partition");
    let rp: RankParticles = redistribute(comm, my_block, decomp, cfg.ghost_margin());
    // Shared so work bundles can carry the particle set without a deep
    // copy per scheduled transfer.
    let all: Arc<Vec<Vec3>> = Arc::new(rp.all());

    // Local work items: requests whose centre lies in this rank's box.
    let me = comm.rank();
    let my_box = decomp.rank_box(me);
    let local_centers: Vec<Vec3> = requests
        .iter()
        .map(|r| r.center)
        .filter(|c| decomp.rank_of(*c) == me && my_box.contains_closed(*c))
        .collect();
    report.local_items = local_centers.len();
    counter_add!("framework.particles_after_exchange", all.len() as u64);
    report.timings.partition = sp.end().cpu_s;

    // ---- Phase 2: workload modeling ----
    let sp = span!("framework.model", items = local_centers.len());
    let counter = item_bins(&all, my_box.inflated(cfg.ghost_margin()), cfg);
    let counts: Vec<f64> = local_centers
        .iter()
        .map(|&c| counter.count_cube(c, cfg.field_len) as f64)
        .collect();
    // Time one random local work item (skip if there is none — contribute a
    // null sample that peers filter out).
    let mut rng = SEED ^ ((me as u64) << 32) ^ 0x9E37_79B9;
    let mut executed_early: Option<(usize, Executed)> = None;
    let my_sample = if local_centers.is_empty() {
        TimingSample {
            n: 0.0,
            t_tri: 0.0,
            t_interp: 0.0,
        }
    } else {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let pick = (rng % local_centers.len() as u64) as usize;
        let done = execute_item(&counter, local_centers[pick], cfg)?;
        let sample = TimingSample {
            n: counts[pick].max(1.0),
            t_tri: done.t_tri,
            t_interp: done.t_render,
        };
        executed_early = Some((pick, done));
        sample
    };
    let samples: Vec<TimingSample> = comm
        .allgather(my_sample)
        .into_iter()
        .filter(|s| s.n > 0.0)
        .collect();
    let model = WorkloadModel::fit(&samples);
    let predicted: Vec<f64> = counts.iter().map(|&n| model.predict(n)).collect();
    let my_total: f64 = predicted.iter().sum();
    report.predicted_local_time = my_total;
    gauge_set!("framework.predicted_local_s", my_total);
    report.timings.model = sp.end().cpu_s;

    // ---- Phase 3: work-sharing schedule ----
    let sp = span!("framework.schedule");
    let totals = comm.allgather(my_total);
    let schedule = if cfg.balance {
        // `totals` is identical on every rank, so a schedule rejection is
        // rank-collective: all ranks return the same error, no stragglers.
        create_schedule(&totals)?
    } else {
        Default::default()
    };
    let my_sends = schedule.sends_of(me);
    let my_recvs = schedule.recvs_of(me);

    // Senders pack local items into the scheduled send amounts; the test
    // item already executed stays local regardless.
    let mut is_sent = vec![false; local_centers.len()];
    let mut send_buckets: Vec<Vec<usize>> = Vec::new();
    if !my_sends.is_empty() {
        let packable: Vec<usize> = (0..local_centers.len())
            .filter(|&i| executed_early.as_ref().is_none_or(|(p, _)| *p != i))
            .collect();
        let costs: Vec<f64> = packable.iter().map(|&i| predicted[i]).collect();
        let bins: Vec<f64> = my_sends.iter().map(|t| t.amount).collect();
        let (assign, _left) = pack_bins(&costs, &bins)?;
        send_buckets = assign
            .into_iter()
            .map(|bin| {
                bin.into_iter()
                    .map(|ci| packable[ci])
                    .collect::<Vec<usize>>()
            })
            .collect();
        for bucket in &send_buckets {
            for &i in bucket {
                is_sent[i] = true;
            }
        }
    }
    counter_add!(
        "framework.transfers_scheduled",
        schedule.transfers.len() as u64
    );
    drop(sp);

    // ---- Phase 4: execution & communication ----
    let exec_span = span!("framework.exec");
    // Senders send every bundle up front: the transport is buffered, so
    // early sends strictly reduce receiver wait. (Schedule invariant: no
    // rank both sends and receives.)
    for (send, bucket) in my_sends.iter().zip(&send_buckets) {
        let centers: Vec<Vec3> = bucket.iter().map(|&i| local_centers[i]).collect();
        report.sent_items += centers.len();
        let particles = Arc::clone(&all);
        comm.send(send.to, TAG_WORK, Bundle { particles, centers });
    }

    // Book one executed item: its record against the model, the phase
    // totals, and the field when asked for. `n` is the modelled particle
    // count of a local item; a received item has none and is recorded with
    // the cube count its execution just made.
    let record_item = |rep: &mut RankReport, c: Vec3, n: Option<f64>, done: Executed| {
        let n = n.unwrap_or(f64::max(1.0, done.n_local as f64));
        rep.records.push(ItemRecord {
            n_particles: n,
            predicted_tri: model.tri.predict(n),
            predicted_interp: model.interp.predict(n),
            actual_tri: done.t_tri,
            actual_interp: done.t_render,
        });
        rep.fields_computed += 1;
        rep.timings.triangulate += done.t_tri;
        rep.timings.render += done.t_render;
        if cfg.keep_fields {
            rep.fields.push((c, done.field));
        }
    };
    // Local execution (the test item's result is reused, not recomputed).
    let early_pick = executed_early.as_ref().map(|(p, _)| *p);
    if let Some((pick, done)) = executed_early {
        record_item(&mut report, local_centers[pick], Some(counts[pick]), done);
    }
    let kept: Vec<usize> = (0..local_centers.len())
        .filter(|&i| !is_sent[i] && early_pick != Some(i))
        .collect();
    for &i in &kept {
        let c = local_centers[i];
        record_item(
            &mut report,
            c,
            Some(counts[i]),
            execute_item(&counter, c, cfg)?,
        );
    }

    // Receivers "simply execute all their local work and listen for a
    // message from the next sender in their list".
    for t in &my_recvs {
        // Wait time is wall clock by nature (the thread is blocked, not
        // burning CPU); on an oversubscribed host it is diagnostic only.
        let spw = span!("framework.wait_bundle");
        let (_, bundle): (usize, Bundle) = comm.recv(Some(t.from), TAG_WORK);
        report.timings.sharing_wait += spw.end().wall_s;
        // The sender's owned and ghost particles.
        let bins = item_bins(
            &bundle.particles,
            decomp.rank_box(t.from).inflated(cfg.ghost_margin()),
            cfg,
        );
        for c in bundle.centers {
            record_item(&mut report, c, None, execute_item(&bins, c, cfg)?);
            report.received_items += 1;
        }
    }

    drop(exec_span);
    report.timings.total = rank_span.end().cpu_s;

    // Per-rank roll-up gauges: the phase series of Figs. 9/12 straight in
    // the metrics JSON, one value per rank.
    counter_add!("framework.items_sent", report.sent_items as u64);
    counter_add!("framework.items_received", report.received_items as u64);
    counter_add!("framework.fields_computed", report.fields_computed as u64);
    gauge_set!("framework.partition_s", report.timings.partition);
    gauge_set!("framework.model_s", report.timings.model);
    gauge_set!("framework.triangulate_s", report.timings.triangulate);
    gauge_set!("framework.interpolate_s", report.timings.render);
    gauge_set!("framework.sharing_wait_s", report.timings.sharing_wait);
    gauge_set!("framework.busy_s", report.timings.total);
    Ok(report)
}

/// Fold per-rank results into a [`RunReport`]; the first rank error wins
/// (schedule errors are rank-collective, so all ranks carry the same one).
fn summarize(
    results: Vec<Result<RankReport, FrameworkError>>,
    requested: usize,
) -> Result<RunReport, FrameworkError> {
    let mut ranks = Vec::with_capacity(results.len());
    for r in results {
        ranks.push(r?);
    }
    let computed: usize = ranks.iter().map(|r| r.fields_computed).sum();
    Ok(RunReport {
        requested,
        computed,
        lost_items: requested.saturating_sub(computed),
        degraded: false,
        retries: 0,
        ranks,
    })
}

/// Convenience driver: run the whole framework on `nranks` simulated ranks
/// over an in-memory particle set (round-robin "read" assignment), and
/// return the run summary with per-rank reports.
pub fn run_distributed(
    nranks: usize,
    particles: &[Vec3],
    bounds: Aabb3,
    requests: &[FieldRequest],
    cfg: &FrameworkConfig,
) -> Result<RunReport, FrameworkError> {
    let decomp = Decomposition::new(bounds, nranks);
    let results = dtfe_simcluster::run(nranks, |mut comm| {
        let mine: Vec<Vec3> = particles
            .iter()
            .skip(comm.rank())
            .step_by(comm.size())
            .copied()
            .collect();
        run_rank(&mut comm, mine, requests, &decomp, cfg)
    });
    summarize(results, requests.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_nbody::datasets::galaxy_box;

    fn requests_at_halos(halos: &[dtfe_nbody::Halo], k: usize) -> Vec<FieldRequest> {
        halos
            .iter()
            .take(k)
            .map(|h| FieldRequest { center: h.center })
            .collect()
    }

    #[test]
    fn all_requests_computed_exactly_once() {
        let (pts, halos) = galaxy_box(16.0, 12_000, 12, 42);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(16.0));
        let requests = requests_at_halos(&halos, 12);
        let cfg = FrameworkConfig {
            balance: true,
            ..FrameworkConfig::new(2.0, 16)
        };
        let run = run_distributed(4, &pts, bounds, &requests, &cfg).unwrap();
        assert_eq!(
            run.computed,
            requests.len(),
            "every request computed exactly once"
        );
        // Fault-free: nothing lost, nothing retried, nothing degraded.
        assert_eq!(run.lost_items, 0);
        assert_eq!(run.retries, 0);
        assert!(!run.degraded);
        // Conservation between sent and received.
        let sent: usize = run.ranks.iter().map(|r| r.sent_items).sum();
        let recvd: usize = run.ranks.iter().map(|r| r.received_items).sum();
        assert_eq!(sent, recvd);
    }

    #[test]
    fn a_field_the_grid_cannot_hold_is_refused_by_every_rank() {
        let (pts, halos) = galaxy_box(8.0, 2_000, 4, 3);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(8.0));
        let requests = requests_at_halos(&halos, 4);
        for cfg in [
            FrameworkConfig::new(2.0, 0),
            FrameworkConfig::new(f64::NAN, 8),
        ] {
            let run = run_distributed(3, &pts, bounds, &requests, &cfg);
            assert!(matches!(run, Err(FrameworkError::Geometry { .. })));
        }
    }

    #[test]
    fn unbalanced_mode_computes_locally() {
        let (pts, halos) = galaxy_box(16.0, 8_000, 8, 7);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(16.0));
        let requests = requests_at_halos(&halos, 8);
        let cfg = FrameworkConfig {
            balance: false,
            ..FrameworkConfig::new(2.0, 12)
        };
        let run = run_distributed(4, &pts, bounds, &requests, &cfg).unwrap();
        assert_eq!(run.computed, requests.len());
        assert!(run
            .ranks
            .iter()
            .all(|r| r.sent_items == 0 && r.received_items == 0));
        // Local counts equal computed counts.
        for r in &run.ranks {
            assert_eq!(r.local_items, r.fields_computed);
        }
    }

    #[test]
    fn fields_match_between_modes() {
        // Balancing must not change WHAT is computed, only WHERE.
        let (pts, halos) = galaxy_box(12.0, 6_000, 6, 11);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(12.0));
        let requests = requests_at_halos(&halos, 6);
        let keep = |balance| FrameworkConfig {
            balance,
            keep_fields: true,
            ..FrameworkConfig::new(2.0, 8)
        };
        let bal = run_distributed(4, &pts, bounds, &requests, &keep(true)).unwrap();
        let unbal = run_distributed(4, &pts, bounds, &requests, &keep(false)).unwrap();
        let collect = |run: &RunReport| {
            let mut fields: Vec<(Vec3, Vec<f64>)> = run
                .ranks
                .iter()
                .flat_map(|r| r.fields.iter().map(|(c, f)| (*c, f.data.clone())))
                .collect();
            fields.sort_by(|a, b| {
                a.0.x
                    .total_cmp(&b.0.x)
                    .then(a.0.y.total_cmp(&b.0.y))
                    .then(a.0.z.total_cmp(&b.0.z))
            });
            fields
        };
        let a = collect(&bal);
        let b = collect(&unbal);
        assert_eq!(a.len(), b.len());
        for ((ca, fa), (cb, fb)) in a.iter().zip(&b) {
            assert_eq!(ca, cb);
            // Same item ⇒ same particles ⇒ same deterministic kernel output.
            assert_eq!(fa, fb, "field at {ca:?} differs between modes");
        }
    }

    #[test]
    fn telemetry_run_yields_valid_trace_with_phase_coverage() {
        let (pts, halos) = galaxy_box(16.0, 12_000, 12, 42);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(16.0));
        let requests = requests_at_halos(&halos, 12);
        let cfg = FrameworkConfig {
            telemetry: true,
            ..FrameworkConfig::new(2.0, 16)
        };
        let run = run_distributed(4, &pts, bounds, &requests, &cfg).unwrap();
        assert_eq!(run.computed, requests.len());

        let snaps = run.telemetry();
        assert_eq!(snaps.len(), 4, "every rank attaches a snapshot");
        for (r, snap) in run.ranks.iter().zip(&snaps) {
            assert_eq!(snap.label, format!("rank{}", r.rank));
            // The root span is the rank's busy time; the contiguous phase
            // spans beneath it must cover ≥95% of it (the acceptance bound).
            let total = snap.span_cpu_s(0);
            let phases = snap.span_cpu_s(1);
            assert!(total > 0.0, "rank {} recorded no root span", r.rank);
            assert!(
                phases >= 0.95 * total,
                "rank {}: phase spans cover {phases:.6}s of {total:.6}s busy",
                r.rank
            );
            // Span timings and report timings are the same measurement
            // (the snapshot's copy is rounded to whole microseconds).
            assert!((total - r.timings.total).abs() < 2e-6);
            assert_eq!(
                snap.metrics.gauge("framework.busy_s"),
                Some(r.timings.total)
            );
            assert_eq!(
                snap.metrics.gauge("framework.triangulate_s"),
                Some(r.timings.triangulate)
            );
            assert_eq!(
                snap.metrics.counter("framework.fields_computed"),
                r.fields_computed as u64
            );
        }

        // Exporters round-trip through the validating checker.
        let trace = run.chrome_trace().unwrap();
        let ts = dtfe_telemetry::check::check_chrome_trace(&trace).unwrap();
        assert_eq!(ts.processes, 4);
        assert!(ts.spans > 0);
        let metrics = run.metrics_json().unwrap();
        let ms = dtfe_telemetry::check::check_metrics_json(&metrics).unwrap();
        assert_eq!(ms.ranks, 4);

        // Merged counters reconcile with the report's own accounting.
        let merged = dtfe_telemetry::merged_metrics(&snaps);
        assert_eq!(
            merged.counter("framework.fields_computed"),
            run.computed as u64
        );
        assert_eq!(
            merged.counter("framework.items_sent"),
            merged.counter("framework.items_received")
        );
        assert!(merged.histogram("framework.item_tri_us").is_some());

        // The imbalance helper is the shared Fig. 10 metric over the same
        // per-rank compute times the timings report.
        assert_eq!(
            run.imbalance(),
            dtfe_telemetry::normalized_std(&run.compute_times())
        );

        // Model residuals are consumable straight from the run report.
        let res = run.model_residuals();
        let n_records: usize = run.ranks.iter().map(|r| r.records.len()).sum();
        assert_eq!(res.tri.n, n_records);
        assert_eq!(res.interp.n, n_records);
        assert!(res.tri.rmse.is_finite() && res.interp.rmse.is_finite());
    }

    #[test]
    fn telemetry_off_attaches_nothing() {
        let (pts, halos) = galaxy_box(12.0, 6_000, 6, 11);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(12.0));
        let requests = requests_at_halos(&halos, 6);
        let cfg = FrameworkConfig::new(2.0, 8);
        let run = run_distributed(2, &pts, bounds, &requests, &cfg).unwrap();
        assert!(run.ranks.iter().all(|r| r.telemetry.is_none()));
        assert!(run.chrome_trace().is_none());
        assert!(run.metrics_json().is_none());
        assert!(run.telemetry().is_empty());
    }

    #[test]
    fn records_track_predictions() {
        let (pts, halos) = galaxy_box(12.0, 6_000, 6, 19);
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(12.0));
        let requests = requests_at_halos(&halos, 6);
        let cfg = FrameworkConfig::new(2.0, 8);
        let run = run_distributed(2, &pts, bounds, &requests, &cfg).unwrap();
        let total_records: usize = run.ranks.iter().map(|r| r.records.len()).sum();
        assert_eq!(total_records, 6);
        for r in &run.ranks {
            for rec in &r.records {
                assert!(rec.n_particles >= 1.0);
                assert!(rec.actual_tri >= 0.0 && rec.actual_interp >= 0.0);
                assert!(rec.predicted_tri.is_finite() && rec.predicted_interp.is_finite());
            }
        }
    }
}

/// Snapshot-file driver: every rank reads its round-robin share of the
/// file's blocks (the paper's "parallel read of the data using an arbitrary
/// block assignment"), then runs the standard four phases.
pub fn run_distributed_snapshot(
    nranks: usize,
    snapshot: &std::path::Path,
    requests: &[FieldRequest],
    cfg: &FrameworkConfig,
) -> Result<RunReport, FrameworkError> {
    let info = dtfe_nbody::snapshot::read_info(snapshot).map_err(|error| FrameworkError::Io {
        rank: 0,
        error: error.into(),
    })?;
    let decomp = Decomposition::new(info.bounds, nranks);
    let results = dtfe_simcluster::run(nranks, |mut comm| {
        // Phase 1a: the parallel read (measured into the partition phase by
        // run_rank's redistribute; the read itself happens here).
        let mine = read_round_robin(&mut comm, snapshot, &info)?;
        run_rank(&mut comm, mine, requests, &decomp, cfg)
    });
    summarize(results, requests.len())
}

/// This rank's share of a snapshot's blocks, read round-robin ("a parallel
/// read of the data using an arbitrary block assignment"). Every rank
/// calls it: the ranks agree on the read status before returning, so one
/// rank's IO failure surfaces as the same typed error on every rank
/// instead of a deadlock in the framework's collectives.
fn read_round_robin(
    comm: &mut Comm,
    snapshot: &std::path::Path,
    info: &dtfe_nbody::snapshot::SnapshotInfo,
) -> Result<Vec<Vec3>, FrameworkError> {
    let mut mine = Vec::new();
    let mut read_err: Option<String> = None;
    let mut block = comm.rank();
    while block < info.num_ranks() {
        match dtfe_nbody::snapshot::read_block(snapshot, info, block) {
            Ok(pts) => mine.extend(pts),
            Err(e) => {
                read_err = Some(e.to_string());
                break;
            }
        }
        block += comm.size();
    }
    let statuses = comm.allgather(read_err);
    match statuses
        .iter()
        .enumerate()
        .find_map(|(r, s)| s.as_ref().map(|m| (r, m.clone())))
    {
        Some((rank, msg)) => Err(FrameworkError::Io {
            rank,
            error: std::io::Error::other(msg),
        }),
        None => Ok(mine),
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use dtfe_nbody::datasets::galaxy_box;
    use dtfe_nbody::snapshot::write_snapshot;

    #[test]
    fn snapshot_driver_end_to_end() {
        let box_len = 16.0;
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(box_len));
        let (pts, halos) = galaxy_box(box_len, 10_000, 10, 61);
        // 5 writer blocks (≠ 3 reader ranks) exercises the round-robin read.
        let mut blocks: Vec<Vec<Vec3>> = vec![Vec::new(); 5];
        for (i, &p) in pts.iter().enumerate() {
            blocks[i % 5].push(p);
        }
        let mut path = std::env::temp_dir();
        path.push(format!("dtfe_runner_snap_{}.bin", std::process::id()));
        write_snapshot(&path, &blocks, bounds).unwrap();

        let requests: Vec<FieldRequest> = halos
            .iter()
            .filter(|h| bounds.inflated(-1.0).contains_closed(h.center))
            .take(6)
            .map(|h| FieldRequest { center: h.center })
            .collect();
        assert!(!requests.is_empty());
        let cfg = FrameworkConfig::new(2.0, 12);
        let run = run_distributed_snapshot(3, &path, &requests, &cfg).unwrap();
        assert_eq!(run.computed, requests.len());
        // The round-robin read and the redistribution own every particle of
        // the file once.
        let info = dtfe_nbody::snapshot::read_info(&path).unwrap();
        let decomp = Decomposition::new(bounds, 3);
        let owned = dtfe_simcluster::run(3, |mut comm| {
            let mine = read_round_robin(&mut comm, &path, &info).unwrap();
            redistribute(&mut comm, mine, &decomp, 1.0).owned.len()
        });
        assert_eq!(owned.iter().sum::<usize>(), pts.len());
        std::fs::remove_file(&path).ok();
    }
}
