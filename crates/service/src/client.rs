//! The resilient wire client: timeouts, retries and backoff over **one**
//! address.
//!
//! [`Client`] is the connection; this is pure policy over it. A bare
//! `Client` trusts the network; this one doesn't. Every attempt runs on
//! a [`Client::connect_timeout`] connection; failures are classified and
//! handled per class:
//!
//! - **Back-pressure** (`Overloaded`, `Quarantined`): wait out the
//!   server's `retry_after_ms` hint (jittered, so a shed burst of clients
//!   doesn't return as a synchronized thundering herd), then retry.
//! - **Transport** (reset, timeout, EOF, checksum/framing corruption):
//!   drop the connection, reconnect, and re-send. Render requests are
//!   idempotent — the tile cache makes a repeated render of the same
//!   request cheap and bit-identical — so blind re-send is safe.
//! - **Typed service errors** (bad request, unknown snapshot, …):
//!   returned immediately; retrying a malformed request is pointless.
//!
//! Retries are bounded by [`ClientConfig::max_retries`] with exponential,
//! seeded-jittered backoff between transport failures.
//!
//! The client never picks an address: it talks to the one it was built
//! for. Which shard a request goes to and who is to blame when an address
//! stops answering are routing decisions, and routing belongs to the layer
//! that owns the ring (`dtfe_cluster::ClusterClient`, one of these per
//! shard).
//!
//! Telemetry: `client.retries`, `client.reconnects`, `client.giveups`.

use crate::api::{HealthStatus, RenderRequest, RenderResponse, TraceContext};
use crate::error::ServiceError;
use crate::tcp::Client;
use crate::wire::{Request, Response};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Retry/timeout policy for [`ResilientClient`].
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Socket read timeout per attempt (an unanswered request is a
    /// transport failure, not a hang).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout per attempt.
    pub write_timeout: Option<Duration>,
    /// Retries after the initial attempt (so `max_retries = 4` allows 5
    /// attempts total).
    pub max_retries: u32,
    /// First retry backoff; doubles per transport failure.
    pub backoff_base: Duration,
    /// Backoff cap (also caps how long an `Overloaded` hint is honored).
    pub backoff_max: Duration,
    /// Mark minted trace ids as **sampled**, so the server records every
    /// request's span tree in its flight recorder (not just slow ones).
    pub sample_traces: bool,
    /// Seed for backoff jitter — fixed seed, replayable schedule.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            max_retries: 4,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            sample_traces: false,
            seed: 0x5EED,
        }
    }
}

/// Always-on counters (telemetry mirrors them when a recorder is
/// installed).
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Re-sent attempts after a transport failure or back-pressure wait.
    pub retries: AtomicU64,
    /// Fresh connections established (first connect included).
    pub reconnects: AtomicU64,
    /// Requests abandoned after exhausting the retry budget.
    pub giveups: AtomicU64,
}

/// How one attempt failed, and what to do about it.
enum AttemptError {
    /// Server said try later (`Overloaded` / `Quarantined`).
    RetryAfter(Duration, ServiceError),
    /// The connection is unusable; reconnect and re-send.
    Transport(String),
    /// A typed failure retrying cannot fix.
    Fatal(ServiceError),
}

/// A blocking wire client that survives a hostile network. Not `Sync` —
/// one instance per thread, like [`Client`].
pub struct ResilientClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<Client>,
    rng: u64,
    pub stats: ClientStats,
}

impl ResilientClient {
    /// Create a client for `addr`. No connection is made until the first
    /// call (so constructing against a not-yet-started server is fine).
    pub fn new(addr: impl ToSocketAddrs, cfg: ClientConfig) -> std::io::Result<ResilientClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addr"))?;
        Ok(ResilientClient {
            addr,
            cfg,
            conn: None,
            rng: cfg.seed.max(1),
            stats: ClientStats::default(),
        })
    }

    /// Render with the full retry discipline. Requests without a trace
    /// context get one minted here — *before* the retry loop — so every
    /// retry of this logical request carries the same trace id and the
    /// server can correlate them.
    pub fn render(&mut self, req: &RenderRequest) -> Result<RenderResponse, ServiceError> {
        let mut req = req.clone();
        if req.trace.is_none() {
            req.trace = Some(TraceContext {
                id: self.mint_trace_id(),
                sampled: self.cfg.sample_traces,
            });
        }
        self.call(&Request::Render(req))?.into_field()
    }

    /// Readiness probe with the retry discipline.
    pub fn health(&mut self) -> Result<HealthStatus, ServiceError> {
        self.call(&Request::Health)?.into_health()
    }

    /// Ask the server to drain and exit. Not retried past transport
    /// failures that may mean "the server already shut down".
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        match self.attempt(&Request::Shutdown) {
            Ok(resp) => resp.into_ack(),
            Err(AttemptError::Fatal(e)) | Err(AttemptError::RetryAfter(_, e)) => Err(e),
            Err(AttemptError::Transport(msg)) => Err(ServiceError::Internal(format!(
                "transport during shutdown: {msg}"
            ))),
        }
    }

    /// One request through the full discipline: bounded retries with
    /// jittered backoff and back-pressure waits.
    fn call(&mut self, req: &Request) -> Result<Response, ServiceError> {
        let mut last: Option<ServiceError> = None;
        for attempt in 0..=self.cfg.max_retries {
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                dtfe_telemetry::counter_add!("client.retries", 1);
            }
            match self.attempt(req) {
                Ok(resp) => return Ok(resp),
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::RetryAfter(hint, e)) => {
                    let wait = self.jitter(hint.min(self.cfg.backoff_max));
                    std::thread::sleep(wait);
                    last = Some(e);
                }
                Err(AttemptError::Transport(msg)) => {
                    let backoff = self
                        .cfg
                        .backoff_base
                        .saturating_mul(1u32 << attempt.min(16))
                        .min(self.cfg.backoff_max);
                    std::thread::sleep(self.jitter(backoff));
                    last = Some(ServiceError::Internal(format!("transport: {msg}")));
                }
            }
        }
        self.stats.giveups.fetch_add(1, Ordering::Relaxed);
        dtfe_telemetry::counter_add!("client.giveups", 1);
        Err(last.unwrap_or_else(|| ServiceError::Internal("retries exhausted".into())))
    }

    /// One attempt on the cached connection, or on a fresh (counted) one
    /// under the config's timeouts if there is none. Every wire-level
    /// failure — including a checksum-rejected corrupt frame — is a
    /// transport error: the bytes on this connection can no longer be
    /// trusted, so it is dropped and the next attempt starts on a fresh one.
    fn attempt(&mut self, req: &Request) -> Result<Response, AttemptError> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => {
                let conn = Client::connect_timeout(
                    &self.addr,
                    self.cfg.connect_timeout,
                    self.cfg.read_timeout,
                    self.cfg.write_timeout,
                )
                .map_err(|e| AttemptError::Transport(format!("connect: {e}")))?;
                self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                dtfe_telemetry::counter_add!("client.reconnects", 1);
                conn
            }
        };
        let resp = conn
            .call(req)
            .map_err(|e| AttemptError::Transport(e.to_string()))?;
        self.conn = Some(conn);
        classify_response(resp)
    }

    /// Deterministic jitter in `[0.5, 1.5)` of the base wait — breaks up
    /// synchronized retry herds without giving up replayability.
    fn jitter(&mut self, base: Duration) -> Duration {
        let x = self.next_rand();
        let f = 0.5 + (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        base.mul_f64(f)
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// A fresh 16-byte trace id off the client's seeded generator —
    /// deterministic per client instance, unique across its requests.
    fn mint_trace_id(&mut self) -> [u8; 16] {
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&self.next_rand().to_le_bytes());
        id[8..].copy_from_slice(&self.next_rand().to_le_bytes());
        id
    }
}

/// Split a decoded response into retry classes: back-pressure errors
/// become `RetryAfter`, other service errors are fatal, everything else
/// passes through.
fn classify_response(resp: Response) -> Result<Response, AttemptError> {
    match resp {
        Response::Error(
            e @ (ServiceError::Overloaded { retry_after_ms }
            | ServiceError::Quarantined { retry_after_ms }),
        ) => Err(AttemptError::RetryAfter(
            Duration::from_millis(retry_after_ms.max(1)),
            e,
        )),
        Response::Error(e) => Err(AttemptError::Fatal(e)),
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut a = ResilientClient::new("127.0.0.1:1", ClientConfig::default()).unwrap();
        let mut b = ResilientClient::new("127.0.0.1:1", ClientConfig::default()).unwrap();
        for _ in 0..100 {
            let base = Duration::from_millis(100);
            let ja = a.jitter(base);
            assert_eq!(ja, b.jitter(base), "same seed, same schedule");
            assert!(ja >= base / 2 && ja < base * 3 / 2, "jitter {ja:?}");
        }
    }

    #[test]
    fn invalid_request_is_returned_as_a_typed_error_after_one_attempt() {
        use crate::wire::{read_frame, write_frame};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let invalid = Response::Error(ServiceError::InvalidRequest("too big".into()));
            while read_frame(&mut stream).is_ok() {
                if write_frame(&mut stream, &invalid.encode()).is_err() {
                    break;
                }
            }
        });
        let mut c = ResilientClient::new(addr, ClientConfig::default()).unwrap();
        let req = RenderRequest::new("s", dtfe_geometry::Vec3::ZERO);
        match c.render(&req) {
            Err(ServiceError::InvalidRequest(msg)) => assert_eq!(msg, "too big"),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        assert_eq!(c.stats.retries.load(Ordering::Relaxed), 0);
        assert_eq!(c.stats.reconnects.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn connect_failure_is_a_bounded_typed_error() {
        // Nothing listens on this port; every attempt fails fast and the
        // client gives up with a typed error instead of hanging.
        let cfg = ClientConfig {
            connect_timeout: Duration::from_millis(100),
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let mut c = ResilientClient::new("127.0.0.1:1", cfg).unwrap();
        let req = RenderRequest::new("s", dtfe_geometry::Vec3::ZERO);
        match c.render(&req) {
            Err(ServiceError::Internal(msg)) => assert!(msg.contains("transport")),
            other => panic!("expected transport giveup, got {other:?}"),
        }
        assert_eq!(c.stats.retries.load(Ordering::Relaxed), 1);
        assert_eq!(c.stats.giveups.load(Ordering::Relaxed), 1);
    }
}
