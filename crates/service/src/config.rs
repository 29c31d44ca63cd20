//! Service configuration.

use dtfe_framework::{InterpModel, TriModel, WorkloadModel};
use std::time::Duration;

/// Knobs of the serving layer. Mirrors the batch
/// [`FrameworkConfig`](dtfe_framework::FrameworkConfig) where the two
/// overlap (`field_len`, `resolution`, `samples`) so a served render is
/// comparable to — and with matching settings, bit-identical with — the
/// offline path.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Physical field side length `l_F`: every request renders a cube of
    /// this side centred on its `center`.
    pub field_len: f64,
    /// Default grid resolution `N_g` (a request may override it, up to
    /// [`ServiceConfig::MAX_RESOLUTION`]).
    pub resolution: usize,
    /// Monte-Carlo samples per grid cell (a request may override it, up to
    /// [`ServiceConfig::MAX_SAMPLES`]).
    pub samples: usize,
    /// Number of spatial tiles the domain is cut into
    /// ([`Decomposition`](dtfe_framework::Decomposition) factors this into
    /// a near-cubic grid).
    pub tiles: usize,
    /// Tile ghost padding. Must be at least `field_len / 2` so any field
    /// cube centred inside a tile is covered by the tile's padded particle
    /// set — the same invariant as the batch framework's ghost margin.
    pub ghost_margin: f64,
    /// Byte budget of the tile LRU (estimated resident bytes never exceed
    /// this).
    pub cache_budget_bytes: usize,
    /// Render worker threads.
    pub workers: usize,
    /// Admission budget in *priced seconds* of backlog: once the sum of
    /// model-priced costs of queued requests exceeds this, new requests
    /// are shed with [`Overloaded`](crate::ServiceError::Overloaded).
    pub admission_budget_s: f64,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// The cost model used to price requests (triangulation
    /// `c·n·log₂n` + render `α·n^β`, paper Eq. 15–17). The default
    /// coefficients are deliberately conservative; fit them from
    /// measurements with [`WorkloadModel::fit`] for accurate pricing.
    pub model: WorkloadModel,
    /// Install a process-global telemetry recorder for the service's
    /// lifetime, so cache/queue/latency metrics appear in
    /// [`Service::metrics_json`](crate::Service::metrics_json).
    pub telemetry: bool,
    /// Socket read timeout applied to every accepted connection (slow-loris
    /// defense: a peer that connects and goes silent is disconnected, not
    /// parked forever). `None` disables the timeout.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout applied to every accepted connection — a peer
    /// that stops draining its receive buffer cannot pin a handler.
    pub write_timeout: Option<Duration>,
    /// Maximum simultaneously-served connections; connection `n+1` is
    /// refused with a typed `Overloaded` error before its request is read.
    pub max_connections: usize,
    /// Pipelining depth per connection: at most this many requests may be
    /// in flight (read but not yet answered) on one socket.
    pub max_inflight_per_conn: usize,
    /// Serve an evicted-but-retained *stale* tile (flagged
    /// [`degraded`](crate::ResponseMeta::degraded)) when the fresh path is
    /// unavailable — admission overload, or a quarantined tile build —
    /// instead of a bare error. Off by default: freshness over
    /// availability unless the operator opts in.
    pub stale_while_revalidate: bool,
    /// Byte budget for retained stale tiles (beyond the fresh-cache
    /// budget). `0` retains nothing even when `stale_while_revalidate` is
    /// on.
    pub stale_budget_bytes: usize,
    /// Consecutive build failures of one tile key before the negative
    /// cache quarantines it (earlier failures retry immediately — a single
    /// transient failure shouldn't cost a backoff window).
    pub quarantine_after: u32,
    /// Initial quarantine window; doubles per subsequent failure.
    pub quarantine_base: Duration,
    /// Quarantine window cap.
    pub quarantine_max: Duration,
    /// Flight-recorder retention: how many recent request traces (sampled,
    /// slow, quarantined, panicked) the wire `Dump` request can replay.
    pub flight_capacity: usize,
    /// Completed requests slower than this are recorded in the flight
    /// recorder even untraced; `None` disables slow-request capture.
    pub slow_threshold: Option<Duration>,
    /// Rotating-window buckets for live metrics (the `Stats` windowed
    /// quantiles cover `window_buckets × window_width`). `0` disables
    /// windowed metrics.
    pub window_buckets: usize,
    /// Width of each rotating-window bucket.
    pub window_width: Duration,
}

impl ServiceConfig {
    /// Hard cap on per-request grid resolution (a 2048² f64 grid is a
    /// 32 MiB response payload, inside the wire frame limit).
    pub const MAX_RESOLUTION: usize = 2048;
    /// Hard cap on per-request Monte-Carlo samples.
    pub const MAX_SAMPLES: usize = 64;
    /// Hard cap on stochastic-estimator realizations per request — each
    /// realization is a full re-triangulation of the tile, so this bounds
    /// the worst-case build amplification a single request can demand.
    pub const MAX_REALIZATIONS: u16 = 8;

    /// A config with the given field geometry and serving defaults: 8
    /// tiles, ghost `l_F/2`, 256 MiB cache, 2 workers, a 30 s admission
    /// budget, no default deadline.
    pub fn new(field_len: f64, resolution: usize) -> ServiceConfig {
        ServiceConfig {
            field_len,
            resolution,
            samples: 1,
            tiles: 8,
            ghost_margin: field_len * 0.5,
            cache_budget_bytes: 256 << 20,
            workers: 2,
            admission_budget_s: 30.0,
            default_deadline: None,
            model: default_model(),
            telemetry: false,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            max_connections: 256,
            max_inflight_per_conn: 32,
            stale_while_revalidate: false,
            stale_budget_bytes: 0,
            quarantine_after: 2,
            quarantine_base: Duration::from_millis(100),
            quarantine_max: Duration::from_secs(30),
            flight_capacity: 64,
            slow_threshold: Some(Duration::from_millis(500)),
            window_buckets: 10,
            window_width: Duration::from_secs(1),
        }
    }

    /// Validate config invariants (positive geometry, ghost margin deep
    /// enough for the field size, at least one tile and worker).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.field_len.is_finite() && self.field_len > 0.0) {
            return Err("field_len must be finite and positive".into());
        }
        if self.resolution == 0 || self.resolution > Self::MAX_RESOLUTION {
            return Err(format!(
                "resolution must be in 1..={}",
                Self::MAX_RESOLUTION
            ));
        }
        if self.samples == 0 || self.samples > Self::MAX_SAMPLES {
            return Err(format!("samples must be in 1..={}", Self::MAX_SAMPLES));
        }
        if self.tiles == 0 {
            return Err("need at least one tile".into());
        }
        if self.ghost_margin < self.field_len * 0.5 {
            return Err("ghost_margin must be at least field_len / 2".into());
        }
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        if !(self.admission_budget_s.is_finite() && self.admission_budget_s >= 0.0) {
            return Err("admission_budget_s must be finite and non-negative".into());
        }
        if self.max_connections == 0 {
            return Err("max_connections must be at least 1".into());
        }
        if self.max_inflight_per_conn == 0 {
            return Err("max_inflight_per_conn must be at least 1".into());
        }
        if self.read_timeout.is_some_and(|t| t.is_zero()) {
            return Err("read_timeout must be positive (use None to disable)".into());
        }
        if self.write_timeout.is_some_and(|t| t.is_zero()) {
            return Err("write_timeout must be positive (use None to disable)".into());
        }
        if self.quarantine_after == 0 {
            return Err("quarantine_after must be at least 1".into());
        }
        if self.quarantine_base.is_zero() || self.quarantine_max < self.quarantine_base {
            return Err("quarantine windows must satisfy 0 < base <= max".into());
        }
        if self.flight_capacity == 0 {
            return Err("flight_capacity must be at least 1".into());
        }
        if self.slow_threshold.is_some_and(|t| t.is_zero()) {
            return Err("slow_threshold must be positive (use None to disable)".into());
        }
        if self.window_buckets > 0 && self.window_width.is_zero() {
            return Err("window_width must be positive when window_buckets > 0".into());
        }
        Ok(())
    }
}

/// Conservative default pricing model: coefficients of the right order of
/// magnitude for a laptop-class core (µs-scale per-point triangulation,
/// near-linear render). Pricing only has to *rank* requests and track
/// backlog scale, so order-of-magnitude defaults shed correctly; fit real
/// samples for tight SLOs.
pub fn default_model() -> WorkloadModel {
    WorkloadModel {
        tri: TriModel { c: 2e-7 },
        interp: InterpModel {
            alpha: 5e-7,
            beta: 1.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(ServiceConfig::new(4.0, 64).validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ServiceConfig::new(4.0, 64);
        c.ghost_margin = 1.0; // < l_F/2
        assert!(c.validate().is_err());
        let mut c = ServiceConfig::new(4.0, 64);
        c.resolution = 0;
        assert!(c.validate().is_err());
        let mut c = ServiceConfig::new(4.0, 64);
        c.resolution = ServiceConfig::MAX_RESOLUTION + 1;
        assert!(c.validate().is_err());
        let mut c = ServiceConfig::new(4.0, 64);
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c = ServiceConfig::new(4.0, 64);
        c.tiles = 0;
        assert!(c.validate().is_err());
        let mut c = ServiceConfig::new(f64::NAN, 64);
        c.ghost_margin = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_model_prices_triangulation_above_render() {
        let m = default_model();
        // The whole point of the cache: for any realistic tile size the
        // build dominates the render.
        for n in [1e3, 1e4, 1e5, 1e6] {
            assert!(m.tri.predict(n) > m.interp.predict(n));
        }
    }
}
