//! TCP transport: a thread-per-connection server over [`wire`](crate::wire)
//! and the blocking [`Client`] — the one connection primitive every
//! caller (tests, `loadgen`, [`ResilientClient`](crate::ResilientClient),
//! the cluster's proxy and gossip hops) speaks the protocol through.
//!
//! The listener runs nonblocking with a short poll so a wire `Shutdown`
//! (the SIGTERM-equivalent in tests and CI, where signals are awkward)
//! can stop the accept loop promptly; the service then drains in-flight
//! renders before `serve` returns.
//!
//! ## Hostile-network posture
//!
//! Every accepted socket gets the config's read/write timeouts — a peer
//! that connects and goes silent (slow-loris) or stops draining its
//! receive buffer is disconnected, not parked forever. Silent means silent
//! with nothing owed: a closed-loop peer waiting for a response that takes
//! longer than the read timeout to compute is kept, and the timeout starts
//! over when the response is written; silence once a frame has begun is
//! never excused. Connections above [`ServiceConfig::MAX_CONNECTIONS`]
//! are refused with a typed `Overloaded` error before any request is read.
//! Each connection is served by a reader/writer thread pair joined by a
//! bounded channel of [`ServiceConfig::MAX_INFLIGHT_PER_CONN`] slots:
//! requests pipeline (the reader submits render jobs without
//! waiting for earlier responses) but responses are written strictly in
//! request order, and a peer that floods requests blocks at the channel
//! bound instead of growing an unbounded queue.

use crate::api::{HealthStatus, RenderRequest, RenderResponse, ShardHeartbeat};
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::server::Service;
use crate::wire::{read_frame, write_frame, Request, Response, WireError};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// One slot in the per-connection response pipeline: either a response
/// already known when the request was read, or a pending render whose
/// result a worker will deliver. The writer resolves slots in request
/// order, so pipelined responses are never reordered.
pub enum Handled {
    Ready(Box<Response>),
    Pending(mpsc::Receiver<Result<RenderResponse, ServiceError>>),
}

impl Handled {
    /// Wrap an immediately-known response.
    pub fn ready(r: Response) -> Handled {
        Handled::Ready(Box::new(r))
    }
}

/// What differs between the servers this transport fronts: how a render
/// is answered and whether gossip is spoken. The plain [`Service`] is the
/// single-node handler; the cluster tier wraps a `Service` with ring
/// ownership checks and peer forwarding. `Stats`, `Health`, `Dump` and
/// `Shutdown` never reach the handler — the transport answers them from
/// [`RequestHandler::service`] itself.
pub trait RequestHandler: Send + Sync {
    /// The underlying service (the transport reads its connection limits
    /// and timeouts, answers control frames from it, and drains it on
    /// shutdown).
    fn service(&self) -> &Service;
    /// Answer one render. Called from connection reader threads.
    fn render(&self, req: RenderRequest) -> Handled;
    /// Answer a peer's heartbeat with our own; only cluster shards do.
    fn gossip(&self, _hb: ShardHeartbeat) -> Response {
        Response::Error(ServiceError::InvalidRequest(
            "gossip frame sent to a non-cluster server".into(),
        ))
    }
}

impl RequestHandler for Service {
    fn service(&self) -> &Service {
        self
    }

    /// A single-node server owns every tile, so a `forwarded` request is
    /// served like any other.
    fn render(&self, req: RenderRequest) -> Handled {
        match self.submit(&req) {
            Ok(reply) => Handled::Pending(reply),
            Err(e) => Handled::ready(Response::Error(e)),
        }
    }
}

/// A running TCP front-end over a [`RequestHandler`].
pub struct TcpServer {
    handler: Arc<dyn RequestHandler>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
}

impl TcpServer {
    /// Bind (port 0 picks an ephemeral port) without accepting yet.
    pub fn bind(service: Arc<Service>, addr: impl ToSocketAddrs) -> std::io::Result<TcpServer> {
        TcpServer::bind_with(service, addr)
    }

    /// Bind with an arbitrary request handler (the cluster node wraps a
    /// `Service` this way).
    pub fn bind_with(
        handler: Arc<dyn RequestHandler>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpServer {
            handler,
            listener,
            stop: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address (tells CI which ephemeral port was chosen).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`TcpServer::serve`] return (used by tests;
    /// remote peers use the wire `Shutdown` message instead).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Accept and serve connections until a `Shutdown` frame arrives or
    /// the stop handle is set, then drain the service and return.
    pub fn serve(&self) {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.active.load(Ordering::SeqCst) >= ServiceConfig::MAX_CONNECTIONS {
                        // Refuse with a typed error, never a silent close:
                        // the client learns to back off instead of
                        // retrying into the same wall.
                        dtfe_telemetry::counter_add!("service.tcp_conn_refused", 1);
                        let mut w = BufWriter::new(stream);
                        let resp = Response::Error(ServiceError::Overloaded {
                            retry_after_ms: 100,
                        });
                        let _ = write_frame(&mut w, &resp.encode());
                        continue;
                    }
                    self.active.fetch_add(1, Ordering::SeqCst);
                    let handler = self.handler.clone();
                    let stop = self.stop.clone();
                    let active = self.active.clone();
                    conns.push(std::thread::spawn(move || {
                        handle_connection(stream, &*handler, &stop);
                        active.fetch_sub(1, Ordering::SeqCst);
                    }));
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        // Let connection threads finish writing their replies, then drain
        // the render queue.
        for h in conns {
            let _ = h.join();
        }
        self.handler.service().drain();
        dtfe_telemetry::counter_add!("service.tcp_server_stopped", 1);
    }
}

fn handle_connection(stream: TcpStream, handler: &dyn RequestHandler, stop: &AtomicBool) {
    let service = handler.service();
    let cfg = service.config();
    let _ = stream.set_nodelay(true);
    // Slow-loris defense: a peer that goes silent mid-frame (or stops
    // draining responses) hits these timeouts and is disconnected.
    let _ = stream.set_read_timeout(cfg.read_timeout);
    let _ = stream.set_write_timeout(cfg.write_timeout);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    dtfe_telemetry::counter_add!("service.tcp_connections", 1);

    // Bounded pipeline: the reader blocks once `MAX_INFLIGHT_PER_CONN`
    // responses are outstanding, so one connection cannot queue unbounded
    // work.
    let (tx, rx) = mpsc::sync_channel::<Handled>(ServiceConfig::MAX_INFLIGHT_PER_CONN);
    // Slots the writer is done with — written, or given up on once the
    // socket refused a write. The reader counts what it submitted, so the
    // difference is what the peer is still owed.
    let answered = Arc::new(AtomicUsize::new(0));
    let answered_by_writer = Arc::clone(&answered);
    let writer_thread = std::thread::spawn(move || {
        let answered = answered_by_writer;
        while let Ok(slot) = rx.recv() {
            let response = match slot {
                Handled::Ready(r) => *r,
                Handled::Pending(reply) => match reply.recv() {
                    Ok(Ok(resp)) => Response::Field(resp),
                    Ok(Err(e)) => Response::Error(e),
                    Err(_) => {
                        Response::Error(ServiceError::Internal("worker dropped reply".into()))
                    }
                },
            };
            let written = write_frame(&mut writer, &response.encode());
            answered.fetch_add(1, Ordering::SeqCst);
            if written.is_err() {
                dtfe_telemetry::counter_add!("service.tcp_write_failures", 1);
                // Keep draining pending receivers so in-flight jobs are
                // accounted, but stop writing to the dead socket.
                for slot in rx.iter() {
                    if let Handled::Pending(reply) = slot {
                        let _ = reply.recv();
                    }
                    answered.fetch_add(1, Ordering::SeqCst);
                }
                return;
            }
        }
    });

    let mut submitted = 0usize;
    let mut answered_at_last_timeout = 0usize;
    loop {
        // Wait for the first byte of a frame apart from the rest of it. A
        // closed-loop peer is rightly silent while it waits for an answer, so
        // a timeout here closes the connection only if nothing was owed for
        // the whole of it: no response outstanding now, none written since
        // the last timeout. Silence once a frame has begun is the slow-loris
        // case and times out in `read_frame`, as does an idle connection
        // (after at most two timeouts).
        match reader.fill_buf() {
            Ok([]) => break, // peer closed
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let done = answered.load(Ordering::SeqCst);
                if done < submitted || done != answered_at_last_timeout {
                    answered_at_last_timeout = done;
                    continue;
                }
                dtfe_telemetry::counter_add!("service.tcp_read_timeouts", 1);
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        let payload = match read_frame(&mut reader) {
            Ok(p) => p,
            // Peer closed, timed out, or broke framing: either way this
            // connection is done. Service state is untouched; pending
            // responses still drain through the writer.
            Err(e) => {
                if let WireError::Io(io) = &e {
                    if matches!(io.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                        dtfe_telemetry::counter_add!("service.tcp_read_timeouts", 1);
                    }
                }
                break;
            }
        };
        let slot = match Request::decode(&payload) {
            Err(e) => Handled::ready(Response::Error(ServiceError::InvalidRequest(format!(
                "bad frame: {e}"
            )))),
            Ok(Request::Shutdown) => {
                let _ = tx.send(Handled::ready(Response::ShutdownAck));
                drop(tx);
                let _ = writer_thread.join();
                stop.store(true, Ordering::SeqCst);
                return;
            }
            Ok(Request::Render(r)) => handler.render(r),
            Ok(Request::Gossip(hb)) => Handled::ready(handler.gossip(hb)),
            Ok(Request::Stats) => {
                Handled::ready(Response::Stats(Box::new(service.stats_document())))
            }
            Ok(Request::Health) => Handled::ready(Response::Health(service.health())),
            Ok(Request::Dump) => Handled::ready(Response::Dump(service.dump_trace())),
        };
        if tx.send(slot).is_err() {
            break; // writer died (socket gone)
        }
        submitted += 1;
    }
    drop(tx);
    let _ = writer_thread.join();
}

/// One blocking connection speaking the wire protocol.
///
/// On its own this is the *naive* client: [`Client::connect`] sets no
/// timeouts and nothing retries — it trusts the network (`loadgen
/// --client naive` keeps it as the comparison baseline).
/// [`ResilientClient`](crate::ResilientClient) is retry policy over
/// [`Client::connect_timeout`] connections to one address; use it anywhere
/// the network might misbehave.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::over(TcpStream::connect(addr)?)
    }

    /// Connect within `connect`, then bound every read and write.
    pub fn connect_timeout(
        addr: &SocketAddr,
        connect: Duration,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(addr, connect)?;
        let _ = stream.set_read_timeout(read);
        let _ = stream.set_write_timeout(write);
        Client::over(stream)
    }

    fn over(stream: TcpStream) -> std::io::Result<Client> {
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Send one request and read one response.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        write_frame(&mut self.writer, &req.encode())?;
        let payload = read_frame(&mut self.reader)?;
        Response::decode(&payload)
    }

    /// `call`, with a transport failure collapsed into the service error
    /// type the typed methods below return.
    fn ask(&mut self, req: &Request) -> Result<Response, ServiceError> {
        self.call(req)
            .map_err(|e| ServiceError::Internal(format!("wire: {e}")))
    }

    /// Render, collapsing transport and service failures into one result.
    pub fn render(&mut self, req: &RenderRequest) -> Result<RenderResponse, ServiceError> {
        self.ask(&Request::Render(req.clone()))?.into_field()
    }

    /// Fetch the server's typed stats document.
    pub fn stats(&mut self) -> Result<crate::stats_doc::StatsDocument, ServiceError> {
        self.ask(&Request::Stats)?.into_stats()
    }

    /// Fetch the server's flight-recorder dump (Chrome-trace JSON).
    pub fn dump(&mut self) -> Result<String, ServiceError> {
        self.ask(&Request::Dump)?.into_dump()
    }

    /// Cheap readiness probe.
    pub fn health(&mut self) -> Result<HealthStatus, ServiceError> {
        self.ask(&Request::Health)?.into_health()
    }

    /// Ask the server to drain and exit; resolves once the ack arrives.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        self.ask(&Request::Shutdown)?.into_ack()
    }
}
