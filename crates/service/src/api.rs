//! The request/response types shared by the in-process handle and the wire
//! protocol.

use dtfe_core::{EstimatorKind, GridSpec2};
use dtfe_geometry::Vec3;

/// A request-scoped trace context: a 16-byte id plus a sampling decision.
///
/// Clients mint one per logical request (preserved across retries, so all
/// server-side records of the same request correlate); the server threads
/// it through every serving stage. Only **sampled** ids are recorded in
/// the server's flight recorder unconditionally — unsampled ids still flow
/// through responses for client-side correlation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id (big-endian hex in human-readable output).
    pub id: [u8; 16],
    /// Record this request's span tree server-side regardless of latency.
    pub sampled: bool,
}

impl TraceContext {
    /// A sampled context with the given id bytes.
    pub fn sampled(id: [u8; 16]) -> TraceContext {
        TraceContext { id, sampled: true }
    }

    /// Lower-case hex rendering of the id (32 chars).
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.id {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

/// The serving stages a request passes through, in order. Stage timings in
/// [`ResponseMeta`] cover disjoint intervals, so their sum never exceeds
/// the request's wall time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Validation + admission pricing, up to enqueue.
    Admission,
    /// Enqueued, waiting for a worker to pick the batch up.
    Queue,
    /// Tile triangulation build (shared across the batch; zero on a hit).
    Build,
    /// Marching this request's grid.
    Render,
}

impl Stage {
    pub const ALL: [Stage; 4] = [Stage::Admission, Stage::Queue, Stage::Build, Stage::Render];
}

/// One field-render request: a cube of the service's `field_len` centred on
/// `center`, rendered to a square `resolution²` grid (paper §IV-C assumes
/// all fields share size; the per-request knobs are resolution, sampling,
/// and deadline).
#[derive(Clone, Debug, PartialEq)]
pub struct RenderRequest {
    /// Snapshot id — the registry loads `<id>.snap` from its directory.
    pub snapshot: String,
    /// Field centre (must lie inside the snapshot bounds).
    pub center: Vec3,
    /// Grid resolution per dimension; `0` uses the service default.
    pub resolution: u32,
    /// Monte-Carlo samples per cell; `0` uses the service default.
    pub samples: u32,
    /// Per-request deadline in milliseconds from submission; `0` uses the
    /// service default (possibly none).
    pub deadline_ms: u64,
    /// Which field estimator renders the cutout. Defaults to classic DTFE
    /// surface density; see [`EstimatorKind`] for the alternatives
    /// (PS-DTFE density, velocity divergence, stochastic averaging).
    pub estimator: EstimatorKind,
    /// Request-scoped trace context; `None` means untraced (the resilient
    /// client mints one automatically so retries share an id).
    pub trace: Option<TraceContext>,
    /// Set by a cluster shard that forwards this request to the tile's
    /// owner: serve it here, never forward it again (any shard builds any
    /// tile bit-identically, so a receiver whose ring view disagrees still
    /// answers correctly, and no request can loop). Clients leave it
    /// clear; a single-node server owns every tile and ignores it.
    pub forwarded: bool,
}

impl RenderRequest {
    /// A request with service-default resolution/samples, no deadline, and
    /// the default DTFE estimator.
    pub fn new(snapshot: impl Into<String>, center: Vec3) -> RenderRequest {
        RenderRequest {
            snapshot: snapshot.into(),
            center,
            resolution: 0,
            samples: 0,
            deadline_ms: 0,
            estimator: EstimatorKind::Dtfe,
            trace: None,
            forwarded: false,
        }
    }

    /// Select the estimator backend for this request.
    pub fn estimator(mut self, kind: EstimatorKind) -> RenderRequest {
        self.estimator = kind;
        self
    }

    /// Attach a trace context to this request.
    pub fn traced(mut self, trace: TraceContext) -> RenderRequest {
        self.trace = Some(trace);
        self
    }

    /// Set or clear the shard-to-shard forward mark (the `forwarded`
    /// field).
    pub fn forwarded(mut self, forwarded: bool) -> RenderRequest {
        self.forwarded = forwarded;
        self
    }
}

/// Serving metadata attached to every successful response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResponseMeta {
    /// Neither a mesh nor an estimator table was built when this request's
    /// batch was served. (`false` means this request paid — or waited out
    /// — a tile's triangulation, a table fill over it, or both.)
    pub cache_hit: bool,
    /// How many requests the serving batch coalesced (≥ 1).
    pub batch_size: u32,
    /// Microseconds from submission to enqueue (validation + admission).
    pub admission_us: u64,
    /// Microseconds spent queued before the batch was picked up.
    pub queue_us: u64,
    /// Microseconds the batch spent resolving the tile: its triangulation
    /// and the tables its requests needed (next to nothing on a cache hit;
    /// shared across the batch's requests).
    pub build_us: u64,
    /// Microseconds spent marching this request's grid.
    pub render_us: u64,
    /// The trace context the request carried, echoed back.
    pub trace: Option<TraceContext>,
    /// Always false: the service serves only fresh renders. Kept, with its
    /// wire byte, because the benchmark reads it; both are deleted together
    /// by the next change to the benchmark.
    pub degraded: bool,
}

impl ResponseMeta {
    /// Microseconds this response spent in `stage`.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Admission => self.admission_us,
            Stage::Queue => self.queue_us,
            Stage::Build => self.build_us,
            Stage::Render => self.render_us,
        }
    }

    /// Total microseconds across all stages. The stages cover disjoint
    /// intervals, so this never exceeds the request's wall time.
    pub fn stage_sum_us(&self) -> u64 {
        Stage::ALL.iter().map(|s| self.stage_us(*s)).sum()
    }
}

/// A rendered surface-density field.
#[derive(Clone, Debug, PartialEq)]
pub struct RenderResponse {
    /// The grid actually rendered (origin/cell/nx/ny).
    pub grid: GridSpec2,
    /// Row-major `ny × nx` surface-density values.
    pub data: Vec<f64>,
    pub meta: ResponseMeta,
}

/// One shard's gossip heartbeat: liveness and whether the sender is
/// draining. Piggybacked symmetrically: a gossip *request* carries the
/// sender's heartbeat, the *response* carries the receiver's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardHeartbeat {
    /// Sender's shard index in the cluster's peer list.
    pub shard: u32,
    /// Per-boot sequence number: receivers ignore a live peer's stale
    /// heartbeats, and take any heartbeat from a peer they think dead.
    pub seq: u64,
    /// The sender is draining and should receive no new work.
    pub draining: bool,
}

/// Readiness/liveness snapshot answered by the wire `Health` request —
/// what a load balancer or orchestrator probe needs to decide whether to
/// route traffic here, without paying for a full `Stats` JSON document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthStatus {
    /// Ready for traffic (not draining).
    pub ok: bool,
    /// The service has begun its graceful drain; new work is refused.
    pub draining: bool,
    /// Resident tiles in the cache.
    pub resident_tiles: u64,
    /// Bytes held by resident tiles.
    pub resident_bytes: u64,
    /// Tile keys currently quarantined by the negative cache.
    pub quarantined_tiles: u64,
    /// Admitted-but-unserved requests.
    pub queue_depth: u64,
    /// Priced backlog in milliseconds (the admission controller's view of
    /// queueing delay).
    pub backlog_ms: u64,
}
