//! The server's socket read timeout is a defence against silent peers, and a
//! closed-loop client waiting for its answer is not one: its connection must
//! outlive a build or table fill that takes longer than the timeout. Silence
//! in the middle of a frame, and an idle connection that is owed nothing,
//! still time out.

use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::snapshot::write_snapshot;
use dtfe_service::tcp::{Client, Handled, RequestHandler, TcpServer};
use dtfe_service::wire::Response;
use dtfe_service::{RenderRequest, Service, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Each test reads a process-wide recorder's `service.tcp_read_timeouts`.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// A single-node handler whose every render is answered `delay` after the
/// service produced it: a build that outlasts the read timeout, on demand.
struct SlowBuilds {
    service: Arc<Service>,
    delay: Duration,
}

impl RequestHandler for SlowBuilds {
    fn service(&self) -> &Service {
        &self.service
    }

    fn render(&self, req: RenderRequest) -> Handled {
        let reply = match self.service.submit(&req) {
            Ok(reply) => reply,
            Err(e) => return Handled::ready(Response::Error(e)),
        };
        let (tx, rx) = mpsc::channel();
        let delay = self.delay;
        std::thread::spawn(move || {
            if let Ok(result) = reply.recv() {
                std::thread::sleep(delay);
                let _ = tx.send(result);
            }
        });
        Handled::Pending(rx)
    }
}

struct Running {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    serve: std::thread::JoinHandle<()>,
    dir: std::path::PathBuf,
}

impl Running {
    fn start(tag: &str, delay: Duration) -> Running {
        let dir =
            std::env::temp_dir().join(format!("dtfe_read_timeout_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = 0xD1CE_u64;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Vec3> = (0..600).map(|_| Vec3::new(r(), r(), r()) * 8.0).collect();
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(8.0));
        write_snapshot(&dir.join("s.snap"), &[pts], bounds).unwrap();
        let mut cfg = ServiceConfig::new(4.0, 16);
        cfg.tiles = 1;
        cfg.read_timeout = Some(READ_TIMEOUT);
        let service = Arc::new(Service::start(&dir, cfg).unwrap());
        let server =
            TcpServer::bind_with(Arc::new(SlowBuilds { service, delay }), ("127.0.0.1", 0))
                .unwrap();
        Running {
            addr: server.local_addr().unwrap(),
            stop: server.stop_handle(),
            serve: std::thread::spawn(move || server.serve()),
            dir,
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.serve.join().unwrap();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn read_timeouts(recorder: &dtfe_telemetry::Recorder) -> u64 {
    recorder
        .snapshot()
        .metrics
        .counter("service.tcp_read_timeouts")
}

/// How long until the server closes `stream` (a read returns end-of-file).
fn time_to_close(stream: &mut TcpStream) -> Duration {
    let t0 = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => t0.elapsed(),
        other => panic!("expected the server to close the connection, read gave {other:?}"),
    }
}

#[test]
fn a_connection_waiting_for_its_answer_is_not_hung_up_on() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = dtfe_telemetry::Recorder::new("read_timeout_in_flight");
    let installed = recorder.install_global();
    // Each answer takes four read timeouts to come.
    let running = Running::start("in_flight", 4 * READ_TIMEOUT);

    let mut client = Client::connect(running.addr).unwrap();
    let req = RenderRequest::new("s", Vec3::splat(4.0));
    let first = client.render(&req).expect("first answer");
    // At the parent commit the server hung up while the first answer was
    // being computed, and this second call met a closed socket.
    let second = client
        .render(&req)
        .expect("second answer on the same connection");
    assert_eq!(first.data, second.data);
    assert_eq!(
        read_timeouts(&recorder),
        0,
        "waiting on an owed response was booked as a silent peer"
    );

    // Owed nothing and silent, the same connection is closed: within two
    // timeouts of its last answer (one may have been running already).
    drop(client);
    let mut idle = Client::connect(running.addr).unwrap();
    idle.render(&req).expect("answer");
    let t0 = Instant::now();
    while read_timeouts(&recorder) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "an idle connection was never timed out"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        idle.render(&req).is_err(),
        "timed-out connection still answers"
    );

    running.stop();
    drop(installed);
}

#[test]
fn silent_peers_still_time_out() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = dtfe_telemetry::Recorder::new("read_timeout_silent");
    let installed = recorder.install_global();
    let running = Running::start("silent", Duration::ZERO);

    // Connects and says nothing.
    let mut mute = TcpStream::connect(running.addr).unwrap();
    let took = time_to_close(&mut mute);
    assert!(took >= READ_TIMEOUT / 2, "closed after {took:?}");
    assert_eq!(read_timeouts(&recorder), 1);

    // Starts a frame and stalls: three bytes of an eight-byte header.
    let mut loris = TcpStream::connect(running.addr).unwrap();
    loris.write_all(&[7, 0, 0]).unwrap();
    time_to_close(&mut loris);
    assert_eq!(read_timeouts(&recorder), 2);

    running.stop();
    drop(installed);
}
