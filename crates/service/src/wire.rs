//! The length-prefixed, checksummed binary wire protocol.
//!
//! Frames are `u32-LE length ‖ u32-LE FNV-1a(payload) ‖ payload`; the
//! length covers the payload only and is capped at [`MAX_FRAME`] — a
//! reader rejects oversized lengths *before* allocating, so a hostile or
//! corrupt peer cannot make the server reserve gigabytes. The checksum
//! word makes payload corruption (a flipped bit on a bad link — the chaos
//! proxy injects exactly this) a typed [`WireError::ChecksumMismatch`]
//! instead of a silently wrong field: a payload is either delivered
//! bit-exact or rejected. Payloads are tag-prefixed little-endian structs;
//! decoding demands exact consumption (trailing bytes are an error,
//! catching framing bugs early).
//!
//! The protocol is tiny — six request kinds, seven response kinds, no
//! negotiation — and has exactly one layout per message (the table of
//! live tags is DESIGN.md §4e "Wire protocol"). A render request carries
//! the estimator, a trace block (flags byte + 16-byte trace id, so the
//! retries of one logical request correlate server-side) and
//! a routing flags byte (bit 0 = forwarded, see
//! [`RenderRequest::forwarded`]); a field response carries the grid, the
//! serving metadata (cache hit, batch size, per-stage timings, the
//! always-zero `degraded` byte, the echoed trace block) and the values.
//! `Stats` answers the typed, versioned [`StatsDocument`]; `Dump` exports
//! the server's flight recorder as Chrome-trace JSON; `Health` answers
//! readiness probes without the cost of a full `Stats` document;
//! `Gossip` exchanges cluster heartbeats. `Shutdown` is the
//! SIGTERM-equivalent — the server acks, drains, and exits its accept
//! loop.

use crate::api::{
    HealthStatus, RenderRequest, RenderResponse, ResponseMeta, ShardHeartbeat, TraceContext,
};
use crate::error::ServiceError;
use crate::stats_doc::StatsDocument;
use dtfe_core::{EstimatorKind, GridSpec2};
use dtfe_geometry::{Vec2, Vec3};
use std::io::{Read as IoRead, Write as IoWrite};

/// Maximum frame payload size: 64 MiB. A 2048² f64 grid response is
/// 32 MiB, comfortably inside; anything larger is a protocol violation.
pub const MAX_FRAME: usize = 64 << 20;

/// A client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Render(RenderRequest),
    /// Cluster shard gossip: the sender's heartbeat; the receiver answers
    /// [`Response::Gossip`] with its own.
    Gossip(ShardHeartbeat),
    /// Ask for the server's typed stats document.
    Stats,
    /// Cheap readiness probe: answers a fixed-size [`HealthStatus`].
    Health,
    /// Ask for the server's flight recorder as Chrome-trace JSON.
    Dump,
    /// Graceful shutdown: the server acks, drains in-flight work, and
    /// stops accepting connections.
    Shutdown,
}

/// A server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Field(RenderResponse),
    Error(ServiceError),
    /// The typed, versioned stats document (travels as JSON text).
    Stats(Box<StatsDocument>),
    Health(HealthStatus),
    /// Flight-recorder dump: Chrome-trace JSON, opaque to the protocol.
    Dump(String),
    /// The receiver's heartbeat, answering a gossip exchange.
    Gossip(ShardHeartbeat),
    ShutdownAck,
}

/// Wire-level failure (transport or encoding). Service-level failures
/// travel *inside* the protocol as [`Response::Error`].
#[derive(Debug)]
pub enum WireError {
    Io(std::io::Error),
    /// Peer announced a frame longer than [`MAX_FRAME`].
    FrameTooLarge {
        len: usize,
    },
    /// Payload ended mid-field.
    Truncated,
    /// Unknown message/variant tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Payload decoded fine but bytes were left over.
    TrailingBytes,
    /// The payload's FNV-1a checksum did not match the frame header: the
    /// bytes were corrupted in flight. The payload is rejected whole — a
    /// corrupt field can never be silently accepted.
    ChecksumMismatch,
    /// A structured text payload (the stats document) failed to parse.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds cap of {MAX_FRAME}")
            }
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload"),
            WireError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------- framing

/// Bytes of frame header: `u32` payload length + `u32` payload checksum.
pub const FRAME_HEADER: usize = 8;

/// FNV-1a over the payload — the frame integrity word. Cheap enough to
/// run on every frame, and one flipped payload bit flips the hash with
/// probability ~1 (the chaos suite asserts corrupt frames are rejected).
pub fn payload_checksum(payload: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in payload {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Write one frame (length prefix + checksum + payload).
pub fn write_frame(w: &mut impl IoWrite, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len: payload.len() });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload_checksum(payload).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, rejecting oversized announcements before allocating
/// and corrupt payloads after reading.
pub fn read_frame(r: &mut impl IoRead) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let (len, checksum) = split_header(header);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if payload_checksum(&payload) != checksum {
        dtfe_telemetry::counter_add!("service.wire_checksum_rejects", 1);
        return Err(WireError::ChecksumMismatch);
    }
    Ok(payload)
}

/// A frame header's two words: the payload length and its checksum.
pub(crate) fn split_header(header: [u8; FRAME_HEADER]) -> (usize, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    (
        u32::from_le_bytes([l0, l1, l2, l3]) as usize,
        u32::from_le_bytes([c0, c1, c2, c3]),
    )
}

// --------------------------------------------------------------- encoding

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// `u16` length + UTF-8 bytes. A longer string (a panic payload in an
    /// error message) is cut at the last `char` boundary that fits, so
    /// the frame stays decodable and the error stays typed.
    fn str(&mut self, s: &str) {
        let mut n = s.len().min(u16::MAX as usize);
        while !s.is_char_boundary(n) {
            n -= 1;
        }
        self.u16(n as u16);
        self.0.extend_from_slice(&s.as_bytes()[..n]);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.at + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    /// The next `N` bytes as a fixed-width array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| WireError::Truncated)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array()?))
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.array()?))
    }
    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
    fn finish(self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

// Tag values 1, 4 and 6 (requests) and 1 and 5 (responses) belonged to
// frame generations retired with no external client; they decode as
// `BadTag` like any other unknown byte and must not be reused.
const REQ_STATS: u8 = 2;
const REQ_SHUTDOWN: u8 = 3;
const REQ_HEALTH: u8 = 5;
const REQ_DUMP: u8 = 7;
const REQ_RENDER: u8 = 8;
const REQ_GOSSIP: u8 = 9;

const RESP_ERROR: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_SHUTDOWN_ACK: u8 = 4;
const RESP_HEALTH: u8 = 6;
const RESP_FIELD: u8 = 7;
const RESP_DUMP: u8 = 8;
const RESP_GOSSIP: u8 = 9;

/// Trace-block flag bits (`0` = untraced, `1` = traced, `3` = traced +
/// sampled).
const TRACE_PRESENT: u8 = 1;
const TRACE_SAMPLED: u8 = 2;

/// Routing flag bits of a render request. `ROUTE_FORWARDED` marks a
/// shard-to-shard forward: the receiver serves it and never forwards it
/// again.
const ROUTE_FORWARDED: u8 = 1;

fn encode_trace(e: &mut Enc, trace: &Option<TraceContext>) {
    match trace {
        None => {
            e.u8(0);
            e.0.extend_from_slice(&[0u8; 16]);
        }
        Some(t) => {
            e.u8(TRACE_PRESENT | if t.sampled { TRACE_SAMPLED } else { 0 });
            e.0.extend_from_slice(&t.id);
        }
    }
}

/// A strict wire bool: `0` or `1`, anything else is a bad tag.
fn decode_flag(d: &mut Dec) -> Result<bool, WireError> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::BadTag(t)),
    }
}

fn decode_trace(d: &mut Dec) -> Result<Option<TraceContext>, WireError> {
    let flags = d.u8()?;
    if flags & !(TRACE_PRESENT | TRACE_SAMPLED) != 0 {
        return Err(WireError::BadTag(flags));
    }
    let id = d.array::<16>()?;
    Ok((flags & TRACE_PRESENT != 0).then_some(TraceContext {
        id,
        sampled: flags & TRACE_SAMPLED != 0,
    }))
}

fn encode_render(e: &mut Enc, r: &RenderRequest) {
    e.str(&r.snapshot);
    e.f64(r.center.x);
    e.f64(r.center.y);
    e.f64(r.center.z);
    e.u32(r.resolution);
    e.u32(r.samples);
    e.u64(r.deadline_ms);
    let (tag, param) = r.estimator.wire_code();
    e.u8(tag);
    e.u16(param);
    encode_trace(e, &r.trace);
    e.u8(if r.forwarded { ROUTE_FORWARDED } else { 0 });
}

fn decode_render(d: &mut Dec) -> Result<RenderRequest, WireError> {
    let snapshot = d.str()?;
    let center = Vec3::new(d.f64()?, d.f64()?, d.f64()?);
    let resolution = d.u32()?;
    let samples = d.u32()?;
    let deadline_ms = d.u64()?;
    let (etag, param) = (d.u8()?, d.u16()?);
    let estimator = EstimatorKind::from_wire_code(etag, param).ok_or(WireError::BadTag(etag))?;
    let trace = decode_trace(d)?;
    let flags = d.u8()?;
    if flags & !ROUTE_FORWARDED != 0 {
        return Err(WireError::BadTag(flags));
    }
    Ok(RenderRequest {
        snapshot,
        center,
        resolution,
        samples,
        deadline_ms,
        estimator,
        trace,
        forwarded: flags & ROUTE_FORWARDED != 0,
    })
}

fn encode_heartbeat(e: &mut Enc, hb: &ShardHeartbeat) {
    e.u32(hb.shard);
    e.u64(hb.seq);
    e.u8(hb.draining as u8);
}

fn decode_heartbeat(d: &mut Dec) -> Result<ShardHeartbeat, WireError> {
    Ok(ShardHeartbeat {
        shard: d.u32()?,
        seq: d.u64()?,
        draining: decode_flag(d)?,
    })
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        match self {
            Request::Render(r) => {
                e.u8(REQ_RENDER);
                encode_render(&mut e, r);
            }
            Request::Gossip(hb) => {
                e.u8(REQ_GOSSIP);
                encode_heartbeat(&mut e, hb);
            }
            Request::Stats => e.u8(REQ_STATS),
            Request::Health => e.u8(REQ_HEALTH),
            Request::Dump => e.u8(REQ_DUMP),
            Request::Shutdown => e.u8(REQ_SHUTDOWN),
        }
        e.0
    }

    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        let mut d = Dec { buf, at: 0 };
        let req = match d.u8()? {
            REQ_RENDER => Request::Render(decode_render(&mut d)?),
            REQ_GOSSIP => Request::Gossip(decode_heartbeat(&mut d)?),
            REQ_STATS => Request::Stats,
            REQ_HEALTH => Request::Health,
            REQ_DUMP => Request::Dump,
            REQ_SHUTDOWN => Request::Shutdown,
            t => return Err(WireError::BadTag(t)),
        };
        d.finish()?;
        Ok(req)
    }
}

const ERR_OVERLOADED: u8 = 1;
const ERR_DEADLINE: u8 = 2;
const ERR_UNKNOWN_SNAPSHOT: u8 = 3;
const ERR_INVALID_REQUEST: u8 = 4;
const ERR_CORRUPT_SNAPSHOT: u8 = 5;
const ERR_SHUTTING_DOWN: u8 = 6;
const ERR_INTERNAL: u8 = 7;
const ERR_QUARANTINED: u8 = 8;
// Error kind 9 was a cluster redirect naming the tile's owner, retired when
// shards took over forwarding; it decodes as `BadTag` and must not be reused.

fn encode_error(e: &mut Enc, err: &ServiceError) {
    match err {
        ServiceError::Overloaded { retry_after_ms } => {
            e.u8(ERR_OVERLOADED);
            e.u64(*retry_after_ms);
        }
        ServiceError::DeadlineExceeded => e.u8(ERR_DEADLINE),
        ServiceError::UnknownSnapshot(s) => {
            e.u8(ERR_UNKNOWN_SNAPSHOT);
            e.str(s);
        }
        ServiceError::InvalidRequest(s) => {
            e.u8(ERR_INVALID_REQUEST);
            e.str(s);
        }
        ServiceError::CorruptSnapshot(s) => {
            e.u8(ERR_CORRUPT_SNAPSHOT);
            e.str(s);
        }
        ServiceError::ShuttingDown => e.u8(ERR_SHUTTING_DOWN),
        ServiceError::Internal(s) => {
            e.u8(ERR_INTERNAL);
            e.str(s);
        }
        ServiceError::Quarantined { retry_after_ms } => {
            e.u8(ERR_QUARANTINED);
            e.u64(*retry_after_ms);
        }
    }
}

fn decode_error(d: &mut Dec) -> Result<ServiceError, WireError> {
    Ok(match d.u8()? {
        ERR_OVERLOADED => ServiceError::Overloaded {
            retry_after_ms: d.u64()?,
        },
        ERR_DEADLINE => ServiceError::DeadlineExceeded,
        ERR_UNKNOWN_SNAPSHOT => ServiceError::UnknownSnapshot(d.str()?),
        ERR_INVALID_REQUEST => ServiceError::InvalidRequest(d.str()?),
        ERR_CORRUPT_SNAPSHOT => ServiceError::CorruptSnapshot(d.str()?),
        ERR_SHUTTING_DOWN => ServiceError::ShuttingDown,
        ERR_INTERNAL => ServiceError::Internal(d.str()?),
        ERR_QUARANTINED => ServiceError::Quarantined {
            retry_after_ms: d.u64()?,
        },
        t => return Err(WireError::BadTag(t)),
    })
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        match self {
            Response::Field(resp) => {
                e.u8(RESP_FIELD);
                e.f64(resp.grid.origin.x);
                e.f64(resp.grid.origin.y);
                e.f64(resp.grid.cell.x);
                e.f64(resp.grid.cell.y);
                e.u32(resp.grid.nx as u32);
                e.u32(resp.grid.ny as u32);
                e.u8(resp.meta.cache_hit as u8);
                e.u32(resp.meta.batch_size);
                e.u64(resp.meta.queue_us);
                e.u64(resp.meta.render_us);
                e.u8(resp.meta.degraded as u8);
                e.u64(resp.meta.admission_us);
                e.u64(resp.meta.build_us);
                encode_trace(&mut e, &resp.meta.trace);
                e.u64(resp.data.len() as u64);
                for &v in &resp.data {
                    e.f64(v);
                }
            }
            Response::Error(err) => {
                e.u8(RESP_ERROR);
                encode_error(&mut e, err);
            }
            Response::Stats(doc) => {
                e.u8(RESP_STATS);
                let json = doc.to_json();
                // Stats documents can exceed u16; length-prefix with u32.
                e.u32(json.len() as u32);
                e.0.extend_from_slice(json.as_bytes());
            }
            Response::Dump(json) => {
                e.u8(RESP_DUMP);
                // Flight dumps can exceed u16; length-prefix with u32.
                e.u32(json.len() as u32);
                e.0.extend_from_slice(json.as_bytes());
            }
            Response::Health(h) => {
                e.u8(RESP_HEALTH);
                e.u8(h.ok as u8);
                e.u8(h.draining as u8);
                e.u64(h.resident_tiles);
                e.u64(h.resident_bytes);
                e.u64(h.quarantined_tiles);
                e.u64(h.queue_depth);
                e.u64(h.backlog_ms);
            }
            Response::Gossip(hb) => {
                e.u8(RESP_GOSSIP);
                encode_heartbeat(&mut e, hb);
            }
            Response::ShutdownAck => e.u8(RESP_SHUTDOWN_ACK),
        }
        e.0
    }

    pub fn decode(buf: &[u8]) -> Result<Response, WireError> {
        let mut d = Dec { buf, at: 0 };
        let resp = match d.u8()? {
            RESP_FIELD => {
                let origin = Vec2::new(d.f64()?, d.f64()?);
                let cell = Vec2::new(d.f64()?, d.f64()?);
                let nx = d.u32()? as usize;
                let ny = d.u32()? as usize;
                let cache_hit = decode_flag(&mut d)?;
                let batch_size = d.u32()?;
                let queue_us = d.u64()?;
                let render_us = d.u64()?;
                let degraded = decode_flag(&mut d)?;
                let admission_us = d.u64()?;
                let build_us = d.u64()?;
                let trace = decode_trace(&mut d)?;
                let n = d.u64()? as usize;
                // A consumer indexes `data[j * nx + i]`: a count that
                // disagrees with the grid must never decode.
                if nx.checked_mul(ny) != Some(n) {
                    return Err(WireError::Malformed(format!(
                        "field of {n} values announced as {nx} x {ny}"
                    )));
                }
                // `n` is bounded by the frame cap; still cross-check against
                // the remaining payload before reserving.
                if n.checked_mul(8).is_none_or(|b| d.buf.len() - d.at < b) {
                    return Err(WireError::Truncated);
                }
                let mut data = Vec::with_capacity(n);
                for _ in 0..n {
                    data.push(d.f64()?);
                }
                Response::Field(RenderResponse {
                    grid: GridSpec2 {
                        origin,
                        cell,
                        nx,
                        ny,
                    },
                    data,
                    meta: ResponseMeta {
                        cache_hit,
                        batch_size,
                        admission_us,
                        queue_us,
                        build_us,
                        render_us,
                        trace,
                        degraded,
                    },
                })
            }
            RESP_ERROR => Response::Error(decode_error(&mut d)?),
            RESP_STATS => {
                let n = d.u32()? as usize;
                let bytes = d.take(n)?;
                let json = String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)?;
                Response::Stats(Box::new(
                    StatsDocument::parse(&json).map_err(WireError::Malformed)?,
                ))
            }
            RESP_DUMP => {
                let n = d.u32()? as usize;
                let bytes = d.take(n)?;
                Response::Dump(String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)?)
            }
            RESP_HEALTH => Response::Health(HealthStatus {
                ok: decode_flag(&mut d)?,
                draining: decode_flag(&mut d)?,
                resident_tiles: d.u64()?,
                resident_bytes: d.u64()?,
                quarantined_tiles: d.u64()?,
                queue_depth: d.u64()?,
                backlog_ms: d.u64()?,
            }),
            RESP_GOSSIP => Response::Gossip(decode_heartbeat(&mut d)?),
            RESP_SHUTDOWN_ACK => Response::ShutdownAck,
            t => return Err(WireError::BadTag(t)),
        };
        d.finish()?;
        Ok(resp)
    }
}

/// Typed replies: each request kind has one success variant; anything
/// else is the server's typed error or a protocol violation.
impl Response {
    fn unexpected(self) -> ServiceError {
        match self {
            Response::Error(e) => e,
            other => ServiceError::Internal(format!("unexpected response {other:?}")),
        }
    }

    pub fn into_field(self) -> Result<RenderResponse, ServiceError> {
        match self {
            Response::Field(resp) => Ok(resp),
            other => Err(other.unexpected()),
        }
    }

    pub fn into_stats(self) -> Result<StatsDocument, ServiceError> {
        match self {
            Response::Stats(doc) => Ok(*doc),
            other => Err(other.unexpected()),
        }
    }

    pub fn into_health(self) -> Result<HealthStatus, ServiceError> {
        match self {
            Response::Health(h) => Ok(h),
            other => Err(other.unexpected()),
        }
    }

    pub fn into_dump(self) -> Result<String, ServiceError> {
        match self {
            Response::Dump(json) => Ok(json),
            other => Err(other.unexpected()),
        }
    }

    pub fn into_ack(self) -> Result<(), ServiceError> {
        match self {
            Response::ShutdownAck => Ok(()),
            other => Err(other.unexpected()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let estimators = [
            EstimatorKind::Dtfe,
            EstimatorKind::PsDtfe,
            EstimatorKind::VelocityDivergence,
            EstimatorKind::Stochastic { realizations: 7 },
        ];
        let traces = [
            None,
            Some(TraceContext {
                id: *b"0123456789abcdef",
                sampled: false,
            }),
            Some(TraceContext::sampled([0xA5; 16])),
        ];
        let mut reqs = vec![Request::Stats, Request::Shutdown, Request::Dump];
        for est in estimators {
            for trace in traces {
                reqs.push(Request::Render(RenderRequest {
                    snapshot: "demo".into(),
                    center: Vec3::new(1.5, -2.25, 3.0),
                    resolution: 128,
                    samples: 4,
                    deadline_ms: 250,
                    estimator: est,
                    trace,
                    forwarded: false,
                }));
            }
        }
        for r in reqs {
            let bytes = r.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn routed_v5_render_roundtrips() {
        let base = RenderRequest::new("demo", Vec3::new(1.0, 2.0, 3.0))
            .estimator(EstimatorKind::PsDtfe)
            .traced(TraceContext::sampled([0x3C; 16]));
        for forwarded in [true, false] {
            let req = Request::Render(base.clone().forwarded(forwarded));
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        // Unknown route-flag bits are rejected, not silently ignored.
        let mut bytes = Request::Render(base).encode();
        let at = bytes.len() - 1; // the routing flags byte ends the frame
        bytes[at] = 0x40;
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::BadTag(0x40))
        ));
    }

    #[test]
    fn gossip_frames_roundtrip() {
        let hb = ShardHeartbeat {
            shard: 2,
            seq: 41,
            draining: true,
        };
        let req = Request::Gossip(hb);
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let resp = Response::Gossip(hb);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let quiet = Request::Gossip(ShardHeartbeat::default());
        assert_eq!(Request::decode(&quiet.encode()).unwrap(), quiet);
    }

    #[test]
    fn retired_error_kind_is_a_bad_tag() {
        let mut bytes = Response::Error(ServiceError::DeadlineExceeded).encode();
        bytes[1] = 9;
        assert!(matches!(
            Response::decode(&bytes),
            Err(WireError::BadTag(9))
        ));
    }

    #[test]
    fn bad_trace_flags_are_rejected() {
        let mut bytes = Request::Render(RenderRequest::new("x", Vec3::ZERO)).encode();
        // Trace flags byte sits 18 bytes from the end (flags + 16-byte id
        // + routing flags).
        let at = bytes.len() - 18;
        bytes[at] = 0x80;
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::BadTag(0x80))
        ));
    }

    #[test]
    fn bad_estimator_tag_is_rejected() {
        let req = Request::Render(RenderRequest::new("x", Vec3::ZERO));
        let mut bytes = req.encode();
        // The estimator tag precedes the u16 param, the 17-byte trace block
        // and the routing flags byte: 21st from the end.
        let at = bytes.len() - 21;
        bytes[at] = 0xEE;
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::BadTag(0xEE))
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // checksum word
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_payload_is_refused_before_writing() {
        let mut out = Vec::new();
        let payload = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame(&mut out, &payload),
            Err(WireError::FrameTooLarge { len }) if len == MAX_FRAME + 1
        ));
        assert!(out.is_empty(), "nothing reaches the peer");
    }

    #[test]
    fn frame_roundtrip_and_checksum_rejection() {
        let payload =
            Request::Render(RenderRequest::new("demo", Vec3::new(1.0, 2.0, 3.0))).encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf.len(), FRAME_HEADER + payload.len());
        let mut cursor = std::io::Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);

        // Flip one payload bit: the frame must be rejected whole, for every
        // bit position.
        for bit in 0..8 {
            let mut corrupt = buf.clone();
            let at = FRAME_HEADER + (bit * 3) % payload.len();
            corrupt[at] ^= 1 << bit;
            let mut cursor = std::io::Cursor::new(corrupt);
            assert!(matches!(
                read_frame(&mut cursor),
                Err(WireError::ChecksumMismatch)
            ));
        }
    }

    #[test]
    fn health_roundtrip() {
        for resp in [
            Response::Health(HealthStatus::default()),
            Response::Health(HealthStatus {
                ok: true,
                draining: false,
                resident_tiles: 12,
                resident_bytes: 1 << 20,
                quarantined_tiles: 1,
                queue_depth: 7,
                backlog_ms: 450,
            }),
        ] {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
        let bytes = Request::Health.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), Request::Health);
    }

    fn sample_field_response() -> RenderResponse {
        RenderResponse {
            grid: GridSpec2 {
                origin: Vec2::new(0.0, 0.0),
                cell: Vec2::new(1.0, 1.0),
                nx: 2,
                ny: 1,
            },
            data: vec![5.0, 6.0],
            meta: ResponseMeta {
                cache_hit: true,
                batch_size: 2,
                admission_us: 3,
                queue_us: 10,
                build_us: 40,
                render_us: 20,
                trace: Some(TraceContext::sampled([7; 16])),
                degraded: true,
            },
        }
    }

    #[test]
    fn field_frame_roundtrips_stage_timings_and_trace() {
        let resp = Response::Field(sample_field_response());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn typed_stats_and_dump_roundtrip() {
        let mut doc = StatsDocument {
            version: crate::stats_doc::STATS_VERSION,
            ..Default::default()
        };
        doc.serving.admitted = 7;
        doc.serving.completed = 6;
        doc.cache.entries = 2;
        let resp = Response::Stats(Box::new(doc));
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);

        let dump = Response::Dump("{\"traceEvents\":[]}".to_string());
        assert_eq!(Response::decode(&dump.encode()).unwrap(), dump);
    }

    #[test]
    fn malformed_stats_payload_is_a_typed_error() {
        let mut e = Enc(Vec::new());
        e.u8(RESP_STATS);
        let json = b"{\"not\":\"a stats doc\"}";
        e.u32(json.len() as u32);
        e.0.extend_from_slice(json);
        assert!(matches!(
            Response::decode(&e.0),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn quarantined_error_roundtrips() {
        let resp = Response::Error(ServiceError::Quarantined {
            retry_after_ms: 750,
        });
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn oversized_error_message_is_truncated_not_corrupted() {
        // 35 000 two-byte chars = 70 000 bytes: the cut must land on a
        // char boundary at or below u16::MAX.
        let long = "é".repeat(35_000);
        let resp = Response::Error(ServiceError::Internal(long.clone()));
        match Response::decode(&resp.encode()).unwrap() {
            Response::Error(ServiceError::Internal(got)) => {
                assert_eq!(got.len(), u16::MAX as usize - 1);
                assert!(long.starts_with(&got));
            }
            other => panic!("expected a typed internal error, got {other:?}"),
        }
        let exact = Response::Error(ServiceError::Internal("x".repeat(u16::MAX as usize)));
        assert_eq!(Response::decode(&exact.encode()).unwrap(), exact);
    }

    #[test]
    fn field_value_count_must_match_its_grid() {
        let mut resp = sample_field_response();
        resp.grid.nx = 64;
        resp.grid.ny = 64;
        assert!(matches!(
            Response::decode(&Response::Field(resp).encode()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = Request::Stats.encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::TrailingBytes)
        ));
    }

    #[test]
    fn truncated_field_payload_is_an_error() {
        let resp = Response::Field(RenderResponse {
            grid: GridSpec2 {
                origin: Vec2::new(0.0, 0.0),
                cell: Vec2::new(1.0, 1.0),
                nx: 2,
                ny: 2,
            },
            data: vec![1.0, 2.0, 3.0, 4.0],
            meta: ResponseMeta::default(),
        });
        let bytes = resp.encode();
        for cut in [bytes.len() - 1, bytes.len() - 9, 10, 1] {
            assert!(Response::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
