//! Service configuration.

use crate::cache::QuarantinePolicy;
use dtfe_framework::{InterpModel, TriModel, WorkloadModel};
use std::path::PathBuf;
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
    /// Byte budget of the tile LRU (estimated resident bytes never exceed
    /// this).
    pub cache_budget_bytes: usize,
    /// Render worker threads.
    pub workers: usize,
    /// Admission budget in *priced seconds* of backlog: once the sum of
    /// [`default_model`]-priced costs of queued requests exceeds this, new
    /// requests are shed with [`Overloaded`](crate::ServiceError::Overloaded).
    pub admission_budget_s: f64,
    /// Install a process-global telemetry recorder for the service's
    /// lifetime, so cache/queue/latency metrics appear in
    /// [`Service::stats_document`](crate::Service::stats_document).
    pub telemetry: bool,
    /// Socket read timeout applied to every accepted connection (slow-loris
    /// defense: a peer that connects and goes silent is disconnected, not
    /// parked forever). `None` disables the timeout.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout applied to every accepted connection — a peer
    /// that stops draining its receive buffer cannot pin a handler.
    pub write_timeout: Option<Duration>,
    /// When a repeatedly failing tile build or snapshot load is
    /// quarantined, and for how long.
    pub quarantine: QuarantinePolicy,
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
    /// Maximum simultaneously-served connections; connection `n+1` is
    /// refused with a typed `Overloaded` error before its request is read.
    pub const MAX_CONNECTIONS: usize = 256;
    /// Pipelining depth per connection: at most this many requests may be
    /// in flight (read but not yet answered) on one socket.
    pub const MAX_INFLIGHT_PER_CONN: usize = 32;
    /// Flight-recorder retention: how many recent request traces (sampled,
    /// slow, quarantined, panicked) the wire `Dump` request can replay.
    pub const FLIGHT_CAPACITY: usize = 64;

    /// A config with the given field geometry and serving defaults: 8
    /// tiles, 256 MiB cache, 2 workers, a 30 s admission budget.
    pub fn new(field_len: f64, resolution: usize) -> ServiceConfig {
        ServiceConfig {
            field_len,
            resolution,
            samples: 1,
            tiles: 8,
            cache_budget_bytes: 256 << 20,
            workers: 2,
            admission_budget_s: 30.0,
            telemetry: false,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            quarantine: QuarantinePolicy::default(),
            slow_threshold: Some(Duration::from_millis(500)),
            window_buckets: 10,
            window_width: Duration::from_secs(1),
        }
    }

    /// Tile ghost padding, `l_F / 2`: any field cube centred inside a tile
    /// is then covered by the tile's padded particle set — the same
    /// invariant as the batch framework's
    /// [`ghost_margin`](dtfe_framework::FrameworkConfig::ghost_margin).
    pub fn ghost_margin(&self) -> f64 {
        self.field_len * 0.5
    }

    /// Validate config invariants (positive geometry, at least one tile
    /// and worker, positive timeouts and quarantine windows).
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
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        if !(self.admission_budget_s.is_finite() && self.admission_budget_s >= 0.0) {
            return Err("admission_budget_s must be finite and non-negative".into());
        }
        if self.read_timeout.is_some_and(|t| t.is_zero()) {
            return Err("read_timeout must be positive (use None to disable)".into());
        }
        if self.write_timeout.is_some_and(|t| t.is_zero()) {
            return Err("write_timeout must be positive (use None to disable)".into());
        }
        let q = &self.quarantine;
        if q.after == 0 {
            return Err("quarantine.after must be at least 1".into());
        }
        if q.base.is_zero() || q.max < q.base {
            return Err("quarantine windows must satisfy 0 < base <= max".into());
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

/// The command line `dtfe-served` and `dtfe-clusterd` share: where the
/// snapshots live, where to listen, and the [`ServiceConfig`] overrides.
/// Each daemon feeds its flags through [`DaemonArgs::accept`] first and
/// matches only what is left.
#[derive(Clone, Debug)]
pub struct DaemonArgs {
    pub snapshots: PathBuf,
    pub port: u16,
    pub tiles: usize,
    pub field_len: f64,
    pub resolution: usize,
    pub samples: usize,
    pub workers: usize,
    pub cache_mb: usize,
    pub admission_s: f64,
    pub demo: bool,
}

impl DaemonArgs {
    /// The defaults; only the port differs between the daemons.
    pub fn new(port: u16) -> DaemonArgs {
        DaemonArgs {
            snapshots: PathBuf::from("snapshots"),
            port,
            tiles: 8,
            field_len: 8.0,
            resolution: 128,
            samples: 1,
            workers: 2,
            cache_mb: 256,
            admission_s: 30.0,
            demo: false,
        }
    }

    /// Take `flag` (and its value, the next item of `rest`) if it is one of
    /// the shared ten. `Ok(false)` leaves `rest` untouched for the caller's
    /// own flags; `Err` is a missing or unparseable value, or a
    /// `--cache-mb` whose byte count does not fit a `usize`.
    pub fn accept(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--snapshots" => self.snapshots = Self::value(flag, rest)?,
            "--port" => self.port = Self::value(flag, rest)?,
            "--tiles" => self.tiles = Self::value(flag, rest)?,
            "--field-len" => self.field_len = Self::value(flag, rest)?,
            "--resolution" => self.resolution = Self::value(flag, rest)?,
            "--samples" => self.samples = Self::value(flag, rest)?,
            "--workers" => self.workers = Self::value(flag, rest)?,
            "--cache-mb" => {
                let mb: usize = Self::value(flag, rest)?;
                if mb.checked_mul(1 << 20).is_none() {
                    return Err(format!("{flag} {mb} overflows the byte budget"));
                }
                self.cache_mb = mb;
            }
            "--admission-s" => self.admission_s = Self::value(flag, rest)?,
            "--demo" => self.demo = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The parsed value of `flag`: the next item of `rest`. A daemon's own
    /// flags parse through this too, so both report errors the same way.
    pub fn value<T: std::str::FromStr>(
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let raw = rest.next().ok_or(format!("missing value for {flag}"))?;
        raw.parse()
            .map_err(|_| format!("bad value {raw:?} for {flag}"))
    }

    /// The serving configuration these flags describe.
    pub fn service_config(&self, telemetry: bool) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(self.field_len, self.resolution);
        cfg.samples = self.samples;
        cfg.tiles = self.tiles;
        cfg.workers = self.workers;
        cfg.cache_budget_bytes = self.cache_mb << 20;
        cfg.admission_budget_s = self.admission_s;
        cfg.telemetry = telemetry;
        cfg
    }

    /// Create the snapshot directory and, under `--demo`, seed it with the
    /// demo snapshot. The error is the line the daemon prints before
    /// exiting.
    pub fn prepare_snapshots(&self) -> Result<(), String> {
        std::fs::create_dir_all(&self.snapshots)
            .map_err(|e| format!("cannot create snapshot dir {:?}: {e}", self.snapshots))?;
        if self.demo {
            crate::tiles::write_demo_snapshot(&self.snapshots)
                .map_err(|e| format!("cannot write demo snapshot: {e}"))?;
            eprintln!("demo snapshot ready (id: demo)");
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
        let c = ServiceConfig::new(f64::NAN, 64);
        assert!(c.validate().is_err());
    }

    #[test]
    fn daemon_args_take_the_shared_flags_and_leave_the_rest() {
        let mut args = DaemonArgs::new(7433);
        let mut rest = ["64", "3", "x"].map(String::from).into_iter();
        assert_eq!(args.accept("--resolution", &mut rest), Ok(true));
        assert_eq!(args.accept("--demo", &mut rest), Ok(true));
        // Not one of the ten: its value stays in `rest` for the caller.
        assert_eq!(args.accept("--shards", &mut rest), Ok(false));
        assert_eq!(rest.next().as_deref(), Some("3"));
        assert!(args.accept("--port", &mut rest).is_err(), "unparseable");
        assert!(args.accept("--tiles", &mut rest).is_err(), "missing");
        assert_eq!((args.resolution, args.demo, args.port), (64, true, 7433));
        let cfg = args.service_config(true);
        assert!(cfg.telemetry && cfg.resolution == 64 && cfg.cache_budget_bytes == 256 << 20);
    }

    #[test]
    fn daemon_args_refuse_a_cache_budget_that_overflows() {
        let largest = usize::MAX >> 20;
        let mut args = DaemonArgs::new(7433);
        for mb in [largest + 1, largest + 2, usize::MAX] {
            let mut rest = [mb.to_string()].into_iter();
            assert!(args.accept("--cache-mb", &mut rest).is_err(), "{mb}");
            assert_eq!(args.cache_mb, 256, "a refused value is not kept");
        }
        let mut rest = [largest.to_string()].into_iter();
        assert_eq!(args.accept("--cache-mb", &mut rest), Ok(true));
        assert_eq!(args.service_config(false).cache_budget_bytes, largest << 20);
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
