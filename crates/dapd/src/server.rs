//! The daemon: a std-only, thread-per-connection socket server,
//! hardened for overload and partial failure.
//!
//! Listens on a TCP address or a Unix-domain socket, speaks the
//! [`crate::wire`] protocol, and multiplexes all connections onto one
//! shared [`Engine`] behind a mutex (decisions are microseconds; the
//! lock, not the solver, is the ceiling — and the bench harness measures
//! exactly that ceiling honestly).
//!
//! ## Overload hardening
//!
//! Every connection runs under a [`ServerConfig`]:
//!
//! * **Read/write deadlines** — a peer that stalls mid-frame (or simply
//!   goes idle) is disconnected after `read_deadline`, so a slow-loris
//!   client can never pin a worker thread. Counted in
//!   `dapd_rejected_total{cause="deadline"}`.
//! * **Connection cap with deterministic load shedding** — beyond
//!   `max_connections` live workers, new connections are accepted, sent
//!   one [`Message::Reject`] with [`RejectCode::Overloaded`], and closed.
//!   Nothing queues unboundedly. Counted in `dapd_shed_total` and
//!   `dapd_rejected_total{cause="overloaded"}`.
//! * **Per-connection frame/byte budgets** — a connection that exceeds
//!   `max_frames_per_conn` or `max_bytes_per_conn` is told `Overloaded`
//!   and closed (`dapd_rejected_total{cause="frame_budget"}` /
//!   `{cause="byte_budget"}`), so a garbage-spewing or runaway
//!   client costs a bounded amount of work.
//! * **Garbage isolation** — undecodable bytes close only the offending
//!   connection (`dapd_rejected_total{cause="garbage"}`); the wire
//!   layer's [`crate::wire::SHUTDOWN_TOKEN`] guarantees garbage can
//!   never spoof a shutdown order.
//!
//! ## Observability
//!
//! Every shed and reject is also recorded in the engine's
//! [`FlightRecorder`] with its cause, and `GetRoute` handling is timed
//! into the `dapd_decision_ns` histogram (server path only — the
//! in-process bench drives [`Engine`] directly and stays uninstrumented).
//! If [`ServerConfig::flight_dump_path`] is set, the acceptor's tick
//! watches the reject rate once per second and dumps the flight ring when it
//! spikes past [`ServerConfig::reject_spike_per_sec`], so the window
//! around an incident is preserved even if nobody was scraping.
//! [`ServerHandle::ops_view`] exposes the `/metrics`, `/healthz`,
//! `/varz`, and `/debug/flight` endpoints for an
//! [`OpsServer`](dap_telemetry::http::OpsServer) via [`ops_router`].
//!
//! Connections arrive through [`dap_telemetry::accept`], the bounded
//! acceptor the ops plane shares, under its four rules: accept errors
//! are retried, streams are set blocking before their deadlines are
//! armed, unarmable streams are refused, and dropping the
//! [`ServerHandle`] stops and joins it (and unlinks the socket file).
//!
//! Shutdown is cooperative: any client may send [`Message::Shutdown`];
//! the acceptor notices within one poll interval (10 ms), stops
//! accepting, and [`ServerHandle::join`] returns once the acceptor
//! thread exits. Draining workers answer in-flight requests with
//! `Reject(ShuttingDown)` and close; because every worker wakes at least
//! once per `read_deadline`, the join is bounded even with silent peers.

use crate::engine::{Engine, EngineError};
use crate::wire::{read_frame_counted, write_frame, Message, RejectCode};
use dap_telemetry::accept::{self, Acceptor, Conn, Limits, Listener};
use dap_telemetry::http::OpsResponse;
use dap_telemetry::{labeled, Counter, FlightKind, FlightRecorder, Histogram};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Overload and deadline knobs for a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// How long a worker waits for the next byte before dropping the
    /// connection. Doubles as the idle timeout: a healthy client either
    /// pipelines its next request within this window or reconnects.
    pub read_deadline: Duration,
    /// How long a worker may block writing a reply (or a shed reject)
    /// before the connection is dropped.
    pub write_deadline: Duration,
    /// Hard cap on concurrently served connections. Beyond it, new
    /// connections are shed: accepted, told `Reject(Overloaded)`, closed.
    pub max_connections: usize,
    /// Frames one connection may send before being shed.
    pub max_frames_per_conn: u64,
    /// Wire bytes (headers + payloads) one connection may send before
    /// being shed.
    pub max_bytes_per_conn: u64,
    /// Where to dump the flight ring when the reject rate spikes.
    /// `None` disables spike dumps (the ring is still reachable via
    /// `/debug/flight` and `SIGUSR1`).
    pub flight_dump_path: Option<PathBuf>,
    /// Reject-rate threshold (rejects observed within one second) that
    /// triggers a flight dump to [`flight_dump_path`]. Zero disables
    /// the watcher.
    ///
    /// [`flight_dump_path`]: Self::flight_dump_path
    pub reject_spike_per_sec: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_deadline: Duration::from_secs(5),
            write_deadline: Duration::from_secs(5),
            max_connections: 64,
            max_frames_per_conn: 1 << 24,
            max_bytes_per_conn: 1 << 32,
            flight_dump_path: None,
            reject_spike_per_sec: 50,
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> io::Result<()> {
        if self.read_deadline.is_zero() || self.write_deadline.is_zero() {
            // A zero socket timeout means "no timeout" to the OS — the
            // opposite of what a caller asking for a zero deadline wants.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server deadlines must be non-zero",
            ));
        }
        if self.max_connections == 0
            || self.max_frames_per_conn == 0
            || self.max_bytes_per_conn == 0
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server caps and budgets must be non-zero",
            ));
        }
        Ok(())
    }
}

/// Counter/histogram/flight handles for the shed/reject bookkeeping,
/// resolved once at spawn (they live in the engine's registry so
/// `SnapshotStats` shows them) and cloned into every worker.
#[derive(Clone)]
struct ServerMetrics {
    shed: Counter,
    rejected_overloaded: Counter,
    rejected_deadline: Counter,
    rejected_garbage: Counter,
    rejected_frame_budget: Counter,
    rejected_byte_budget: Counter,
    rejected_unknown_id: Counter,
    decision_ns: Histogram,
    flight: Arc<FlightRecorder>,
}

impl ServerMetrics {
    fn new(engine: &Engine) -> Self {
        engine.describe("dapd_shed_total", "Connections shed at the admission cap.");
        engine.describe(
            "dapd_rejected_total",
            "Requests/connections rejected at a fault boundary, by cause.",
        );
        engine.describe(
            "dapd_decision_ns",
            "GetRoute handling latency on the server path, nanoseconds.",
        );
        let cause = |c: &str| -> Counter {
            engine.counter(&labeled("dapd_rejected_total", &[("cause", c)]))
        };
        Self {
            shed: engine.counter("dapd_shed_total"),
            rejected_overloaded: cause("overloaded"),
            rejected_deadline: cause("deadline"),
            rejected_garbage: cause("garbage"),
            rejected_frame_budget: cause("frame_budget"),
            rejected_byte_budget: cause("byte_budget"),
            rejected_unknown_id: cause("unknown_id"),
            decision_ns: engine.histogram("dapd_decision_ns"),
            flight: Arc::clone(engine.flight()),
        }
    }

    /// One reject: bump the cause counter and flight-record it.
    fn reject(&self, counter: &Counter, cause: &'static str, frames: u64, bytes: u64) {
        counter.incr();
        self.flight.record(
            FlightKind::Reject,
            cause,
            [frames as i64, bytes as i64, 0, 0, 0, 0],
        );
    }

    /// Total rejects across all causes (for the spike watcher).
    fn rejects_total(&self) -> u64 {
        self.rejected_overloaded.value()
            + self.rejected_deadline.value()
            + self.rejected_garbage.value()
            + self.rejected_frame_budget.value()
            + self.rejected_byte_budget.value()
            + self.rejected_unknown_id.value()
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: Box<dyn Listener>,
    /// The Unix socket path, unlinked when the daemon stops.
    socket_file: Option<PathBuf>,
    engine: Arc<Mutex<Engine>>,
    config: ServerConfig,
}

/// Handle to a running daemon; dropping it stops the daemon.
pub struct ServerHandle {
    // Declared before `_socket_file`: fields drop in order, so the
    // acceptor is stopped and joined before the socket is unlinked.
    acceptor: Acceptor,
    engine: Arc<Mutex<Engine>>,
    _socket_file: Option<SocketFile>,
}

/// A Unix socket path, unlinked on drop.
struct SocketFile(PathBuf);

impl Drop for SocketFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl Server {
    /// Binds a TCP listener. `addr` may use port 0 to let the OS pick;
    /// [`Server::local_addr`] reports the result.
    pub fn bind_tcp(addr: &str, engine: Engine) -> io::Result<Self> {
        Ok(Self::new(Box::new(TcpListener::bind(addr)?), None, engine))
    }

    /// Binds a Unix-domain socket.
    ///
    /// If a socket file already exists at `path`, it is probed first: a
    /// connection attempt that is *refused* means the file is stale — a
    /// crashed daemon never unlinks — so it is removed and the path
    /// rebound. A probe that connects means a live daemon owns the path,
    /// and binding fails with [`io::ErrorKind::AddrInUse`] instead of
    /// yanking the socket out from under it.
    pub fn bind_unix(path: &Path, engine: Engine) -> io::Result<Self> {
        let listener = match UnixListener::bind(path) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => match UnixStream::connect(path) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("{}: another daemon is listening", path.display()),
                    ));
                }
                Err(probe)
                    if probe.kind() == io::ErrorKind::ConnectionRefused
                        || probe.kind() == io::ErrorKind::NotFound =>
                {
                    // Stale socket file from a crashed daemon (or it
                    // vanished between bind and probe): reclaim the path.
                    let _ = std::fs::remove_file(path);
                    UnixListener::bind(path)?
                }
                Err(probe) => return Err(probe),
            },
            Err(e) => return Err(e),
        };
        Ok(Self::new(Box::new(listener), Some(path.into()), engine))
    }

    fn new(listener: Box<dyn Listener>, socket_file: Option<PathBuf>, engine: Engine) -> Self {
        Self {
            listener,
            socket_file,
            engine: Arc::new(Mutex::new(engine)),
            config: ServerConfig::default(),
        }
    }

    /// Replaces the default overload/deadline configuration.
    pub fn with_config(mut self, config: ServerConfig) -> io::Result<Self> {
        config.validate()?;
        self.config = config;
        Ok(self)
    }

    /// The bound TCP address (None for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.tcp_addr()
    }

    /// Starts the bounded acceptor: `serve_connection` per connection,
    /// `shed` over the cap, and the reject-spike watcher as its tick.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let config = self.config;
        let metrics = ServerMetrics::new(&self.engine.lock().unwrap());
        let limits = Limits {
            max_connections: config.max_connections,
            read_deadline: config.read_deadline,
            write_deadline: config.write_deadline,
        };
        let handler = {
            let (engine, config, metrics) =
                (Arc::clone(&self.engine), config.clone(), metrics.clone());
            move |stream, stop: &AtomicBool| {
                let _ = serve_connection(stream, &engine, stop, &config, &metrics);
            }
        };
        let shed_metrics = metrics.clone();
        let mut spikes = SpikeWatcher::new(&metrics);
        let acceptor = accept::spawn(
            self.listener,
            limits,
            handler,
            move |stream| shed(stream, &shed_metrics),
            move || spikes.tick(&config, &metrics),
        )?;
        Ok(ServerHandle {
            acceptor,
            engine: self.engine,
            _socket_file: self.socket_file.map(SocketFile),
        })
    }
}

/// Sheds one over-cap connection: best-effort `Reject(Overloaded)`, then
/// close (by drop). The acceptor armed the write deadline, which bounds
/// how long a non-reading peer can hold it.
fn shed(mut stream: Box<dyn Conn>, metrics: &ServerMetrics) {
    metrics.shed.incr();
    metrics.reject(&metrics.rejected_overloaded, "overloaded", 0, 0);
    metrics
        .flight
        .record(FlightKind::Shed, "overloaded", [0; 6]);
    let _ = write_frame(&mut stream, &Message::Reject(RejectCode::Overloaded));
}

/// Once-per-second reject-rate watcher: when the last second's rejects
/// exceed the configured threshold, the flight ring is dumped so the
/// decisions *around* the incident survive even if nobody is scraping.
struct SpikeWatcher {
    window_start: Instant,
    base_rejects: u64,
}

impl SpikeWatcher {
    fn new(metrics: &ServerMetrics) -> Self {
        Self {
            window_start: Instant::now(),
            base_rejects: metrics.rejects_total(),
        }
    }

    fn tick(&mut self, config: &ServerConfig, metrics: &ServerMetrics) {
        let Some(path) = &config.flight_dump_path else {
            return;
        };
        if config.reject_spike_per_sec == 0 || self.window_start.elapsed() < Duration::from_secs(1)
        {
            return;
        }
        let now_total = metrics.rejects_total();
        if now_total - self.base_rejects >= config.reject_spike_per_sec {
            if let Err(e) = metrics.flight.dump_to(path, "dapd") {
                eprintln!(
                    "dapd: reject-spike flight dump to {} failed: {e}",
                    path.display()
                );
            } else {
                eprintln!(
                    "dapd: reject-rate spike ({} in 1s >= {}); flight dumped to {}",
                    now_total - self.base_rejects,
                    config.reject_spike_per_sec,
                    path.display()
                );
            }
        }
        self.window_start = Instant::now();
        self.base_rejects = now_total;
    }
}

fn serve_connection<S: io::Read + io::Write>(
    mut stream: S,
    engine: &Mutex<Engine>,
    stop: &AtomicBool,
    config: &ServerConfig,
    metrics: &ServerMetrics,
) -> io::Result<()> {
    let mut frames: u64 = 0;
    let mut bytes: u64 = 0;
    loop {
        let (msg, frame_bytes) = match read_frame_counted(&mut stream) {
            Ok(Some(m)) => m,
            Ok(None) => return Ok(()), // clean EOF
            Err(e) => {
                match e.kind() {
                    // The OS read timeout fired: the peer stalled
                    // mid-frame or idled past the deadline.
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                        metrics.reject(&metrics.rejected_deadline, "deadline", frames, bytes)
                    }
                    // Undecodable bytes: drop this connection only.
                    io::ErrorKind::InvalidData => {
                        metrics.reject(&metrics.rejected_garbage, "garbage", frames, bytes)
                    }
                    _ => {}
                }
                return Err(e);
            }
        };
        frames += 1;
        bytes += frame_bytes as u64;
        if frames > config.max_frames_per_conn {
            metrics.reject(
                &metrics.rejected_frame_budget,
                "frame_budget",
                frames,
                bytes,
            );
            let _ = write_frame(&mut stream, &Message::Reject(RejectCode::Overloaded));
            return Ok(());
        }
        if bytes > config.max_bytes_per_conn {
            metrics.reject(&metrics.rejected_byte_budget, "byte_budget", frames, bytes);
            let _ = write_frame(&mut stream, &Message::Reject(RejectCode::Overloaded));
            return Ok(());
        }
        if stop.load(Ordering::SeqCst) && !matches!(msg, Message::Shutdown) {
            // Draining: answer and close, so shutdown never waits on us.
            let _ = write_frame(&mut stream, &Message::Reject(RejectCode::ShuttingDown));
            return Ok(());
        }
        let reply = match msg {
            Message::GetRoute { tenant, bytes } => {
                // Timed here, not in the engine: the in-process bench
                // drives `Engine::route` directly and must not pay for
                // server-path instrumentation.
                let t0 = Instant::now();
                let routed = engine.lock().unwrap().route(tenant, bytes);
                metrics
                    .decision_ns
                    .record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                match routed {
                    Ok(d) => Message::Route {
                        source: d.backend as u8,
                        window: d.window,
                    },
                    Err(EngineError::UnknownTenant(_)) => {
                        metrics.reject(
                            &metrics.rejected_unknown_id,
                            "unknown_id",
                            frames,
                            u64::from(bytes),
                        );
                        Message::Reject(RejectCode::UnknownTenant)
                    }
                    Err(_) => {
                        metrics.reject(
                            &metrics.rejected_unknown_id,
                            "unknown_id",
                            frames,
                            u64::from(bytes),
                        );
                        Message::Reject(RejectCode::UnknownBackend)
                    }
                }
            }
            Message::ReportServed {
                source,
                bytes,
                latency_ns,
            } => match engine
                .lock()
                .unwrap()
                .report_served(source, bytes, latency_ns)
            {
                Ok(()) => Message::Ack,
                Err(_) => {
                    metrics.reject(
                        &metrics.rejected_unknown_id,
                        "unknown_id",
                        frames,
                        u64::from(bytes),
                    );
                    Message::Reject(RejectCode::UnknownBackend)
                }
            },
            Message::SnapshotStats => Message::Stats(engine.lock().unwrap().stats_text()),
            Message::Shutdown => {
                stop.store(true, Ordering::SeqCst);
                write_frame(&mut stream, &Message::Ack)?;
                return Ok(());
            }
            // Response types arriving at the server are a protocol
            // violation; drop the connection.
            Message::Route { .. } | Message::Ack | Message::Stats(_) | Message::Reject(_) => {
                metrics.rejected_garbage.incr();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response message sent to server",
                ));
            }
        };
        write_frame(&mut stream, &reply)?;
    }
}

/// A cheap, clonable view of a running daemon for the ops plane: each
/// method takes the engine lock briefly and renders. Detached from the
/// [`ServerHandle`] lifetime so it can move into an
/// [`OpsServer`](dap_telemetry::http::OpsServer) router closure.
#[derive(Clone)]
pub struct OpsView {
    engine: Arc<Mutex<Engine>>,
}

impl OpsView {
    /// The Prometheus exposition (`GET /metrics` body).
    pub fn metrics_text(&self) -> String {
        self.engine.lock().unwrap().stats_text()
    }

    /// The JSON operator snapshot (`GET /varz` body).
    pub fn varz_text(&self) -> String {
        self.engine.lock().unwrap().varz_json().to_string_compact()
    }

    /// The flight-recorder dump (`GET /debug/flight` body). The engine
    /// lock is held only to clone the ring handle, not to render.
    pub fn flight_jsonl(&self) -> String {
        let flight = Arc::clone(self.engine.lock().unwrap().flight());
        flight.dump_jsonl("dapd")
    }
}

/// Routes the four ops endpoints — `/metrics`, `/healthz`, `/varz`,
/// `/debug/flight` — onto `view`, for mounting with
/// [`OpsServer::spawn`](dap_telemetry::http::OpsServer::spawn).
pub fn ops_router(view: OpsView) -> dap_telemetry::http::OpsRouter {
    Arc::new(move |path: &str| match path {
        "/metrics" => OpsResponse::ok_text(view.metrics_text()),
        "/healthz" => OpsResponse::ok_text("ok\n".to_string()),
        "/varz" => OpsResponse::ok_json(view.varz_text()),
        "/debug/flight" => OpsResponse::ok_text(view.flight_jsonl()),
        _ => OpsResponse::not_found(),
    })
}

impl ServerHandle {
    /// Asks the daemon to stop without a client round-trip.
    pub fn request_stop(&self) {
        self.acceptor.request_stop();
    }

    /// A clonable ops-plane view of the daemon (see [`OpsView`]).
    pub fn ops_view(&self) -> OpsView {
        OpsView {
            engine: Arc::clone(&self.engine),
        }
    }

    /// Whether a shutdown has been requested (or the acceptor has
    /// exited).
    pub fn stopping(&self) -> bool {
        self.acceptor.stopping()
    }

    /// Runs `f` against the shared engine — introspection for tests and
    /// operators (e.g. checking the [`crate::TenantLedger`] conservation
    /// invariant on a live daemon).
    pub fn with_engine<R>(&self, f: impl FnOnce(&Engine) -> R) -> R {
        f(&self.engine.lock().unwrap())
    }

    /// Waits for the acceptor to exit (a client's `Shutdown` or
    /// [`ServerHandle::request_stop`]), then unlinks the socket file.
    pub fn join(self) -> io::Result<()> {
        // `_socket_file` drops when this returns, after the join.
        self.acceptor.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::engine::EngineConfig;
    use crate::wire::read_frame;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::thread;

    fn spawn_tcp() -> (ServerHandle, SocketAddr) {
        let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap();
        let server = Server::bind_tcp("127.0.0.1:0", engine).unwrap();
        let addr = server.local_addr().unwrap();
        (server.spawn().unwrap(), addr)
    }

    fn spawn_tcp_with(config: ServerConfig) -> (ServerHandle, SocketAddr) {
        let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap();
        let server = Server::bind_tcp("127.0.0.1:0", engine)
            .unwrap()
            .with_config(config)
            .unwrap();
        let addr = server.local_addr().unwrap();
        (server.spawn().unwrap(), addr)
    }

    fn counter_value(stats: &str, name: &str) -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .map(|v| v.trim().parse().unwrap())
            .unwrap_or(0)
    }

    #[test]
    fn tcp_route_report_stats_shutdown() {
        let (handle, addr) = spawn_tcp();
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let d = client.get_route(0, 4096).unwrap();
        assert!(d.backend < 2);
        client.report_served(1, 38_400, 1000).unwrap();
        let stats = client.snapshot_stats().unwrap();
        assert!(stats.contains("dapd_decisions_total 1"), "{stats}");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn unix_socket_round_trip() {
        let path = std::env::temp_dir().join(format!("dapd-test-{}.sock", std::process::id()));
        let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap();
        let handle = Server::bind_unix(&path, engine).unwrap().spawn().unwrap();
        let mut client = Client::connect_unix(&path).unwrap();
        for i in 0..100u32 {
            client.get_route((i % 2) as u16, 4096).unwrap();
        }
        let stats = client.snapshot_stats().unwrap();
        assert!(stats.contains("dapd_decisions_total 100"), "{stats}");
        client.shutdown().unwrap();
        handle.join().unwrap();
        assert!(!path.exists(), "socket file cleaned up");
    }

    #[test]
    fn stale_unix_socket_is_reclaimed() {
        let path = std::env::temp_dir().join(format!("dapd-stale-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // A crashed daemon: the listener is gone but the file remains
        // (dropping a UnixListener does not unlink its socket file).
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists(), "crash leaves a stale socket file");
        let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap();
        let handle = Server::bind_unix(&path, engine)
            .expect("stale socket must be reclaimed")
            .spawn()
            .unwrap();
        let mut client = Client::connect_unix(&path).unwrap();
        client.get_route(0, 64).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn live_unix_socket_is_not_stolen() {
        let path = std::env::temp_dir().join(format!("dapd-live-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap();
        let handle = Server::bind_unix(&path, engine).unwrap().spawn().unwrap();
        let second = Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap();
        let err = Server::bind_unix(&path, second).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err}");
        // The live daemon kept its socket and still serves.
        let mut client = Client::connect_unix(&path).unwrap();
        client.get_route(0, 64).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn dropped_handle_stops_and_unlinks_its_socket() {
        let path = std::env::temp_dir().join(format!("dapd-drop-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap();
        drop(Server::bind_unix(&path, engine).unwrap().spawn().unwrap());
        assert!(!path.exists(), "dropped daemon left its socket file");
        let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap();
        let rebound = Server::bind_unix(&path, engine).expect("the path is free again");
        drop(rebound.spawn().unwrap());
    }

    #[test]
    fn unknown_tenant_gets_typed_reject() {
        let (handle, addr) = spawn_tcp();
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let err = client.get_route(999, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied, "{err}");
        assert!(err.to_string().contains("unknown tenant"), "{err}");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_clients_share_one_engine() {
        let (handle, addr) = spawn_tcp();
        let mut threads = Vec::new();
        for _ in 0..4 {
            let addr = addr.to_string();
            threads.push(thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).unwrap();
                for i in 0..250u32 {
                    client.get_route((i % 2) as u16, 1024).unwrap();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let stats = handle.ops_view().metrics_text();
        assert!(stats.contains("dapd_decisions_total 1000"), "{stats}");
        handle.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn over_cap_connections_are_shed_with_overloaded_reject() {
        let (handle, addr) = spawn_tcp_with(ServerConfig {
            max_connections: 2,
            read_deadline: Duration::from_secs(2),
            write_deadline: Duration::from_secs(2),
            ..ServerConfig::default()
        });
        // Two idle connections pin both worker slots (their deadline is
        // comfortably longer than this test).
        let pin_a = TcpStream::connect(addr).unwrap();
        let pin_b = TcpStream::connect(addr).unwrap();
        // Give the acceptor time to spawn both workers.
        thread::sleep(Duration::from_millis(200));
        // The third connection is shed: one Overloaded reject, then EOF.
        let mut extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        match read_frame(&mut extra) {
            Ok(Some(Message::Reject(RejectCode::Overloaded))) => {}
            other => panic!("expected Overloaded reject, got {other:?}"),
        }
        assert_eq!(read_frame(&mut extra).unwrap(), None, "then closed");
        let stats = handle.ops_view().metrics_text();
        assert!(counter_value(&stats, "dapd_shed_total") >= 1, "{stats}");
        assert!(
            counter_value(&stats, "dapd_rejected_total{cause=\"overloaded\"}") >= 1,
            "{stats}"
        );
        drop(pin_a);
        drop(pin_b);
        handle.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn stalled_peer_is_dropped_at_the_read_deadline() {
        let (handle, addr) = spawn_tcp_with(ServerConfig {
            read_deadline: Duration::from_millis(100),
            write_deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        // Half a GetRoute frame, then silence: a slow-loris peer.
        let frame = crate::wire::encode_frame(&Message::GetRoute {
            tenant: 0,
            bytes: 64,
        });
        stream.write_all(&frame[..4]).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        // The server must hang up (EOF), not wait forever.
        let mut buf = [0u8; 16];
        assert_eq!(stream.read(&mut buf).unwrap(), 0, "dropped at deadline");
        let stats = handle.ops_view().metrics_text();
        assert!(
            counter_value(&stats, "dapd_rejected_total{cause=\"deadline\"}") >= 1,
            "{stats}"
        );
        handle.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn garbage_bytes_close_only_the_offending_connection() {
        let (handle, addr) = spawn_tcp();
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(&[0xDE; 32]).unwrap();
        garbage
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        // The server drops the connection with our garbage still
        // unread, so the close may arrive as an RST (ConnectionReset)
        // rather than a clean EOF.
        let mut buf = [0u8; 16];
        match garbage.read(&mut buf) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("expected close, got {other:?}"),
        }
        // The daemon is still alive and serving.
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        client.get_route(0, 64).unwrap();
        let stats = client.snapshot_stats().unwrap();
        assert!(
            counter_value(&stats, "dapd_rejected_total{cause=\"garbage\"}") >= 1,
            "{stats}"
        );
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn frame_budget_exhaustion_sheds_the_connection() {
        let (handle, addr) = spawn_tcp_with(ServerConfig {
            max_frames_per_conn: 5,
            ..ServerConfig::default()
        });
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        for _ in 0..5 {
            client.get_route(0, 64).unwrap();
        }
        let err = client.get_route(0, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ResourceBusy, "{err}");
        let stats = handle.ops_view().metrics_text();
        assert!(
            counter_value(&stats, "dapd_rejected_total{cause=\"frame_budget\"}") >= 1,
            "{stats}"
        );
        // A fresh connection gets a fresh budget.
        let mut fresh = Client::connect_tcp(&addr.to_string()).unwrap();
        fresh.get_route(0, 64).unwrap();
        fresh.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn byte_budget_exhaustion_sheds_the_connection() {
        let (handle, addr) = spawn_tcp_with(ServerConfig {
            max_bytes_per_conn: 30, // two 11-byte GetRoute frames, not three
            ..ServerConfig::default()
        });
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        client.get_route(0, 64).unwrap();
        client.get_route(0, 64).unwrap();
        let err = client.get_route(0, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ResourceBusy, "{err}");
        let stats = handle.ops_view().metrics_text();
        assert!(
            counter_value(&stats, "dapd_rejected_total{cause=\"byte_budget\"}") >= 1,
            "{stats}"
        );
        handle.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn ops_endpoints_serve_metrics_varz_and_flight() {
        use dap_telemetry::http::{http_get, OpsServer};

        let (handle, addr) = spawn_tcp();
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        client.get_route(0, 4096).unwrap();
        client.report_served(0, 4096, 100).unwrap();

        let ops = OpsServer::bind("127.0.0.1:0")
            .unwrap()
            .spawn(ops_router(handle.ops_view()))
            .unwrap();
        let ops_addr = ops.addr().unwrap().to_string();
        let timeout = Duration::from_secs(5);

        let (status, body) = http_get(&ops_addr, "/metrics", timeout).unwrap();
        assert_eq!(status, 200);
        dap_telemetry::check_exposition(&body).unwrap();
        assert!(body.contains("dapd_decisions_total"), "{body}");

        let (status, body) = http_get(&ops_addr, "/healthz", timeout).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        let (status, body) = http_get(&ops_addr, "/varz", timeout).unwrap();
        assert_eq!(status, 200);
        let varz = dap_telemetry::json::parse(&body).unwrap();
        assert!(varz.get("backends").is_some(), "{body}");
        assert!(varz.get("ledger").is_some(), "{body}");

        let (status, body) = http_get(&ops_addr, "/debug/flight", timeout).unwrap();
        assert_eq!(status, 200);
        dap_telemetry::flight::parse_flight_dump(&body).unwrap();

        let (status, _) = http_get(&ops_addr, "/nope", timeout).unwrap();
        assert_eq!(status, 404);

        drop(ops);
        handle.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn zero_deadline_config_is_rejected() {
        let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap();
        let err = Server::bind_tcp("127.0.0.1:0", engine)
            .unwrap()
            .with_config(ServerConfig {
                read_deadline: Duration::ZERO,
                ..ServerConfig::default()
            })
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
