//! The resilient wire client: timeouts, retries, backoff, and hedging.
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
//! seeded-jittered backoff between transport failures. Optionally, a
//! **bounded hedged attempt** ([`ClientConfig::hedge_after`]) races a
//! second connection once the first attempt is slower than the threshold
//! — at most one hedge per logical request, so worst-case load
//! amplification is 2×.
//!
//! The client can hold **several endpoints** (cluster replicas, via
//! [`ResilientClient::with_endpoints`]): transport failures rotate to the
//! next endpoint, a typed [`ServiceError::NotMine`] redirect switches to
//! the owner the shard named (bounded follows, so two confused shards
//! cannot ping-pong a request forever), and hedges go to a *different*
//! endpoint than the primary — never the same address twice. With a
//! single endpoint there is no distinct hedge target, so no hedge is
//! launched (hedging one box doubles its load for no diversity).
//!
//! Telemetry: `client.retries`, `client.hedges`, `client.reconnects`,
//! `client.giveups`, `client.redirects`.

use crate::api::{HealthStatus, RenderRequest, RenderResponse, TraceContext};
use crate::error::ServiceError;
use crate::stats_doc::StatsDocument;
use crate::tcp::Client;
use crate::wire::{Request, Response};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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
    /// Race a second, fresh-connection attempt once the current one has
    /// been in flight this long. `None` disables hedging.
    pub hedge_after: Option<Duration>,
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
            hedge_after: None,
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
    /// Hedged second attempts launched.
    pub hedges: AtomicU64,
    /// Fresh connections established (first connect included).
    pub reconnects: AtomicU64,
    /// Requests abandoned after exhausting the retry budget.
    pub giveups: AtomicU64,
    /// `NotMine` redirects followed to the owning shard.
    pub redirects: AtomicU64,
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

/// How many `NotMine` redirects one logical request may follow before the
/// redirect itself is returned as the error — bounds the damage of two
/// shards with disagreeing ring views bouncing a request between them.
const MAX_REDIRECTS: u32 = 3;

/// A blocking wire client that survives a hostile network. Not `Sync` —
/// one instance per thread, like [`Client`].
pub struct ResilientClient {
    /// Candidate endpoints; `current` indexes the one in use. A plain
    /// [`ResilientClient::new`] client has exactly one.
    endpoints: Vec<SocketAddr>,
    current: usize,
    cfg: ClientConfig,
    conn: Option<Client>,
    rng: u64,
    pub stats: Arc<ClientStats>,
}

impl ResilientClient {
    /// Create a client for `addr`. No connection is made until the first
    /// call (so constructing against a not-yet-started server is fine).
    pub fn new(addr: impl ToSocketAddrs, cfg: ClientConfig) -> std::io::Result<ResilientClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addr"))?;
        ResilientClient::with_endpoints(&[addr], cfg)
    }

    /// Create a client over several replica endpoints. The first is the
    /// initial primary; transport failures rotate through the rest, and
    /// hedges race a *different* endpoint than the primary.
    pub fn with_endpoints(
        endpoints: &[SocketAddr],
        cfg: ClientConfig,
    ) -> std::io::Result<ResilientClient> {
        if endpoints.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no endpoints",
            ));
        }
        Ok(ResilientClient {
            endpoints: endpoints.to_vec(),
            current: 0,
            cfg,
            conn: None,
            rng: cfg.seed.max(1),
            stats: Arc::new(ClientStats::default()),
        })
    }

    /// The endpoint the next attempt will use.
    pub fn endpoint(&self) -> SocketAddr {
        self.endpoints[self.current]
    }

    /// Drop the cached connection and move to the next endpoint (no-op
    /// rotation with a single endpoint; the reconnect still happens).
    fn rotate_endpoint(&mut self) {
        self.conn = None;
        if self.endpoints.len() > 1 {
            self.current = (self.current + 1) % self.endpoints.len();
        }
    }

    /// Point the client at `addr` (a `NotMine` redirect target), adding it
    /// to the endpoint set if it is new.
    fn switch_to(&mut self, addr: SocketAddr) {
        self.conn = None;
        match self.endpoints.iter().position(|a| *a == addr) {
            Some(i) => self.current = i,
            None => {
                self.endpoints.push(addr);
                self.current = self.endpoints.len() - 1;
            }
        }
    }

    /// The hedge target: the first endpoint that is **not** the current
    /// primary. `None` with a single endpoint — hedging the same address
    /// twice buys no diversity, only double load.
    fn hedge_target(&self) -> Option<SocketAddr> {
        let primary = self.endpoint();
        self.endpoints.iter().copied().find(|a| *a != primary)
    }

    /// Render with the full retry/hedge discipline. Requests without a
    /// trace context get one minted here — *before* the retry loop — so
    /// every retry and hedge of this logical request carries the same
    /// trace id and the server can correlate them.
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

    /// Fetch the server's typed stats document with the retry discipline.
    pub fn stats(&mut self) -> Result<StatsDocument, ServiceError> {
        self.call(&Request::Stats)?.into_stats()
    }

    /// Fetch the server's stats document as JSON text (the wire payload,
    /// re-rendered; what CI artifacts store).
    pub fn stats_json(&mut self) -> Result<String, ServiceError> {
        self.stats().map(|doc| doc.to_json())
    }

    /// Fetch the server's flight-recorder dump (Chrome-trace JSON) with
    /// the retry discipline.
    pub fn dump(&mut self) -> Result<String, ServiceError> {
        self.call(&Request::Dump)?.into_dump()
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
    /// jittered backoff, back-pressure waits, and (if configured) one
    /// hedged attempt per call.
    fn call(&mut self, req: &Request) -> Result<Response, ServiceError> {
        let mut last: Option<ServiceError> = None;
        let mut redirects = 0u32;
        for attempt in 0..=self.cfg.max_retries {
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                dtfe_telemetry::counter_add!("client.retries", 1);
            }
            let outcome = if self.cfg.hedge_after.is_some() {
                self.attempt_hedged(req)
            } else {
                self.attempt(req)
            };
            match outcome {
                Ok(resp) => return Ok(resp),
                Err(AttemptError::Fatal(ServiceError::NotMine { owner })) => {
                    // Ring redirect: retry against the owner the shard
                    // named. Bounded follows — shards with disagreeing
                    // ring views must not ping-pong a request forever.
                    let parsed = owner.parse::<SocketAddr>();
                    if redirects >= MAX_REDIRECTS || parsed.is_err() {
                        return Err(ServiceError::NotMine { owner });
                    }
                    redirects += 1;
                    self.stats.redirects.fetch_add(1, Ordering::Relaxed);
                    dtfe_telemetry::counter_add!("client.redirects", 1);
                    self.switch_to(parsed.unwrap());
                    last = Some(ServiceError::NotMine { owner });
                }
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::RetryAfter(hint, e)) => {
                    let wait = self.jitter(hint.min(self.cfg.backoff_max));
                    std::thread::sleep(wait);
                    last = Some(e);
                }
                Err(AttemptError::Transport(msg)) => {
                    // The endpoint (or the path to it) is sick: move to
                    // the next replica before retrying.
                    self.rotate_endpoint();
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

    /// One attempt on the cached connection (reconnecting if absent).
    fn attempt(&mut self, req: &Request) -> Result<Response, AttemptError> {
        if self.conn.is_none() {
            self.conn = Some(connect(self.endpoint(), &self.cfg, &self.stats)?);
        }
        let result = exchange(self.conn.as_mut().unwrap(), req);
        if matches!(result, Err(AttemptError::Transport(_))) {
            self.conn = None;
        }
        classify_response(result)
    }

    /// One attempt raced against a hedged second attempt. Both attempts
    /// use fresh connections (a hedge against a sick *connection* must
    /// not share it); whichever answers first wins, the loser's thread
    /// dies with its socket when it finishes. The hedge goes to a
    /// **different** endpoint than the primary; with a single endpoint no
    /// hedge is launched (same-address hedging is the regression the
    /// dedupe test pins down) and the primary simply runs to completion.
    fn attempt_hedged(&mut self, req: &Request) -> Result<Response, AttemptError> {
        let hedge_after = self.cfg.hedge_after.expect("caller checked");
        let hedge_target = self.hedge_target();
        let (tx, rx) = mpsc::channel();
        let spawn_attempt = |tx: mpsc::Sender<Result<Response, AttemptError>>,
                             addr: SocketAddr,
                             cfg: ClientConfig,
                             req: Request,
                             stats: Arc<ClientStats>| {
            std::thread::spawn(move || {
                let result = connect(addr, &cfg, &stats)
                    .and_then(|mut conn| classify_response(exchange(&mut conn, &req)));
                let _ = tx.send(result);
            })
        };
        let started = Instant::now();
        let _primary = spawn_attempt(
            tx.clone(),
            self.endpoint(),
            self.cfg,
            req.clone(),
            self.stats.clone(),
        );
        let mut hedged = false;
        loop {
            let elapsed = started.elapsed();
            let wait = if hedged || hedge_target.is_none() {
                // Both attempts in flight — or no distinct endpoint to
                // hedge to: block until an attempt reports.
                None
            } else {
                Some(hedge_after.saturating_sub(elapsed))
            };
            let received = match wait {
                Some(w) => rx.recv_timeout(w),
                None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            };
            match received {
                Ok(result) => return result,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    hedged = true;
                    self.stats.hedges.fetch_add(1, Ordering::Relaxed);
                    dtfe_telemetry::counter_add!("client.hedges", 1);
                    let _ = spawn_attempt(
                        tx.clone(),
                        hedge_target.expect("timeout only set with a target"),
                        self.cfg,
                        req.clone(),
                        self.stats.clone(),
                    );
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(AttemptError::Transport("all attempts died".into()))
                }
            }
        }
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

/// A fresh connection under the config's timeouts, counted.
fn connect(
    addr: SocketAddr,
    cfg: &ClientConfig,
    stats: &ClientStats,
) -> Result<Client, AttemptError> {
    let conn = Client::connect_timeout(
        &addr,
        cfg.connect_timeout,
        cfg.read_timeout,
        cfg.write_timeout,
    )
    .map_err(|e| AttemptError::Transport(format!("connect: {e}")))?;
    stats.reconnects.fetch_add(1, Ordering::Relaxed);
    dtfe_telemetry::counter_add!("client.reconnects", 1);
    Ok(conn)
}

/// One request/response on `conn`. Every wire-level failure — including a
/// checksum-rejected corrupt frame — is a transport error: the bytes on
/// this connection can no longer be trusted.
fn exchange(conn: &mut Client, req: &Request) -> Result<Response, AttemptError> {
    conn.call(req)
        .map_err(|e| AttemptError::Transport(e.to_string()))
}

/// Split a successful exchange into retry classes: back-pressure errors
/// become `RetryAfter`, other service errors are fatal, everything else
/// passes through.
fn classify_response(result: Result<Response, AttemptError>) -> Result<Response, AttemptError> {
    match result {
        Ok(Response::Error(ServiceError::Overloaded { retry_after_ms })) => {
            Err(AttemptError::RetryAfter(
                Duration::from_millis(retry_after_ms.max(1)),
                ServiceError::Overloaded { retry_after_ms },
            ))
        }
        Ok(Response::Error(ServiceError::Quarantined { retry_after_ms })) => {
            Err(AttemptError::RetryAfter(
                Duration::from_millis(retry_after_ms.max(1)),
                ServiceError::Quarantined { retry_after_ms },
            ))
        }
        Ok(Response::Error(e)) => Err(AttemptError::Fatal(e)),
        other => other,
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

    use crate::wire::{read_frame, write_frame};
    use std::io::{BufReader, BufWriter};
    use std::net::TcpListener;

    /// A listener that accepts connections, counts them, and never
    /// responds — every client attempt against it ends in a read timeout.
    fn silent_listener() -> (SocketAddr, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let counter = count.clone();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                counter.fetch_add(1, Ordering::SeqCst);
                held.push(stream); // keep sockets open, never reply
            }
        });
        (addr, count)
    }

    fn hedging_cfg() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Some(Duration::from_millis(100)),
            write_timeout: Some(Duration::from_millis(100)),
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            hedge_after: Some(Duration::from_millis(5)),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn single_endpoint_never_hedges_to_itself() {
        // Regression: with one endpoint the hedge used to race a second
        // connection to the *same* address — double load, zero diversity.
        let (addr, count) = silent_listener();
        let mut c = ResilientClient::new(addr, hedging_cfg()).unwrap();
        let req = RenderRequest::new("s", dtfe_geometry::Vec3::ZERO);
        assert!(c.render(&req).is_err(), "silent server must time out");
        assert_eq!(c.stats.hedges.load(Ordering::Relaxed), 0, "no hedge");
        assert_eq!(count.load(Ordering::SeqCst), 1, "one connection only");
    }

    #[test]
    fn hedge_goes_to_a_distinct_endpoint() {
        let (a, count_a) = silent_listener();
        let (b, count_b) = silent_listener();
        let mut c = ResilientClient::with_endpoints(&[a, b], hedging_cfg()).unwrap();
        let req = RenderRequest::new("s", dtfe_geometry::Vec3::ZERO);
        assert!(c.render(&req).is_err(), "both servers are silent");
        assert_eq!(c.stats.hedges.load(Ordering::Relaxed), 1);
        assert_eq!(count_a.load(Ordering::SeqCst), 1, "primary to a");
        assert_eq!(count_b.load(Ordering::SeqCst), 1, "hedge to b");
    }

    /// A one-shot wire server answering every request on its first
    /// connection with a fixed response.
    fn scripted_server(resp: Response) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                let mut r = BufReader::new(stream.try_clone().unwrap());
                let mut w = BufWriter::new(stream);
                while read_frame(&mut r).is_ok() {
                    if write_frame(&mut w, &resp.encode()).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn redirect_on_not_mine_follows_owner() {
        use dtfe_core::GridSpec2;
        use dtfe_geometry::Vec2;
        let field = Response::Field(RenderResponse {
            grid: GridSpec2 {
                origin: Vec2::new(0.0, 0.0),
                cell: Vec2::new(1.0, 1.0),
                nx: 1,
                ny: 1,
            },
            data: vec![42.0],
            meta: Default::default(),
        });
        let owner = scripted_server(field);
        let wrong = scripted_server(Response::Error(ServiceError::NotMine {
            owner: owner.to_string(),
        }));
        let cfg = ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Some(Duration::from_millis(500)),
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let mut c = ResilientClient::new(wrong, cfg).unwrap();
        let req = RenderRequest::new("s", dtfe_geometry::Vec3::ZERO);
        let resp = c.render(&req).expect("redirect should reach the owner");
        assert_eq!(resp.data, vec![42.0]);
        assert_eq!(c.stats.redirects.load(Ordering::Relaxed), 1);
        assert_eq!(c.endpoint(), owner, "client now points at the owner");
    }

    #[test]
    fn unparseable_redirect_owner_is_returned_not_followed() {
        let wrong = scripted_server(Response::Error(ServiceError::NotMine {
            owner: "not-an-addr".into(),
        }));
        let mut c = ResilientClient::new(wrong, ClientConfig::default()).unwrap();
        let req = RenderRequest::new("s", dtfe_geometry::Vec3::ZERO);
        match c.render(&req) {
            Err(ServiceError::NotMine { owner }) => assert_eq!(owner, "not-an-addr"),
            other => panic!("expected NotMine, got {other:?}"),
        }
        assert_eq!(c.stats.redirects.load(Ordering::Relaxed), 0);
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
