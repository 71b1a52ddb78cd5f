//! Blocking client for the daemon's wire protocol, with optional
//! retry/backoff for fault-tolerant callers.
//!
//! One request, one response, in order, per connection — the protocol
//! has no pipelining, which keeps both ends trivially correct and is
//! plenty for a control-plane service (routing *decisions* are returned,
//! not data).
//!
//! ## Waiting for a reply
//!
//! A reply is microseconds away, and a client asleep in a blocking read
//! pays for a wake-up when it lands, most of all when the daemon runs
//! on another CPU. So once a request is written, the client polls its
//! socket (nonblocking reads, a `yield_now` after each empty one) for up
//! to [`POLL_WINDOW`], and only then falls back to a blocking read under
//! the policy's `io_timeout`. On a 2-CPU VM this took the median
//! decision (a `GetRoute` and a `ReportServed`) from 27 to 20 µs. A
//! reply lost while polling is a Recv-stage failure like any other; the
//! stream is back in blocking mode whenever a call returns.
//!
//! Polling pays only while the daemon answers on another CPU. When the
//! two share one CPU, the first yield hands the daemon the CPU and the
//! reply is there when the yield returns: the same switch a blocking
//! read makes, plus the poll's mode toggles, empty read and yield, so
//! there the poll only adds system calls. The client cannot tell from
//! its own affinity mask where the daemon runs — a client pinned to one
//! CPU may well talk to a daemon pinned to another — so each connection
//! judges by what its polls catch: after 16 polls in a row that caught
//! nothing a blocking read would have missed (the reply was there
//! within one yield, or the window ran out), the connection blocks for
//! the rest of its life. A reconnect polls again.
//!
//! Only the client polls. The daemon's workers block between frames, so
//! a daemon holding many idle connections burns no CPU waiting for them.
//!
//! ## Retry semantics
//!
//! A [`RetryPolicy`] gives the client jittered exponential backoff with
//! a total deadline budget, and transparent reconnect when the daemon
//! drops the connection (broken pipe, restart, shed). Retries are
//! **idempotency-aware**, keyed on where the failure happened:
//!
//! * **Connect/Send failures** are always safe to retry, even for
//!   `ReportServed`: the protocol is length-prefixed, and `write_all`
//!   failing means at least the final byte of the frame was never
//!   submitted — the server discards truncated frames, so the request
//!   was provably not applied.
//! * **Typed rejects** (`Overloaded`, `ShuttingDown`) are safe to retry
//!   for the same reason: the server answered *instead of* applying the
//!   request.
//! * **Recv failures** (the reply lost after the frame was fully
//!   written) are retried only for idempotent calls (`GetRoute`,
//!   `SnapshotStats`). A `ReportServed` whose ack vanished is
//!   *indeterminate* — retrying could double-count served bytes in the
//!   engine's bandwidth measurement — so it fails the call and is
//!   counted in [`Client::indeterminate_reports`].

use crate::engine::RouteDecision;
use crate::wire::{read_frame, write_frame, Message, RejectCode, HEADER_LEN};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long a client polls for a reply before it blocks.
///
/// From a sweep of `dapbench --workload dapd-socket` on a 2-CPU VM
/// (EXPERIMENTS.md § Profiling & benchmarking): 5 µs measured like a
/// client that never polls, 10–200 µs measured alike, and 20 µs caught
/// all but 0.3% of the replies from a daemon on the other CPU.
pub const POLL_WINDOW: Duration = Duration::from_micros(20);

/// Polls in a row that caught nothing a blocking read would have missed,
/// after which a connection stops polling (see the module docs).
const POLL_GIVE_UP: u32 = 16;

/// Retry/backoff configuration for a [`Client`].
///
/// Backoff for attempt *n* (1-based) is drawn uniformly from
/// `[exp/2, exp]` where `exp = min(base_delay · 2^(n-1), max_delay)` —
/// "equal jitter", so a fleet of clients hitting the same outage does
/// not reconnect in lockstep. The jitter source is a seeded in-tree
/// SplitMix64, so a given `(seed, failure sequence)` produces the same
/// delays on every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call (1 = no retries).
    pub max_attempts: u32,
    /// First backoff delay; doubles each attempt.
    pub base_delay: Duration,
    /// Ceiling on a single backoff delay.
    pub max_delay: Duration,
    /// Total budget per call, covering all attempts and sleeps. When the
    /// next sleep would cross it, the call fails with the last error.
    pub deadline: Duration,
    /// Per-operation socket read/write timeout, so a stalled daemon
    /// surfaces as a retryable `TimedOut` instead of hanging the caller.
    pub io_timeout: Option<Duration>,
    /// Seed for the jitter PRNG.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            deadline: Duration::from_secs(30),
            io_timeout: Some(Duration::from_secs(5)),
            seed: 0xDA9D,
        }
    }
}

impl RetryPolicy {
    /// No retries, no socket timeouts: the original fail-fast client
    /// behavior. Used by [`Client::connect_tcp`] / [`Client::connect_unix`].
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            deadline: Duration::from_secs(u64::MAX >> 1),
            io_timeout: None,
            seed: 0,
        }
    }
}

/// Where in a call's lifecycle a failure happened — this, not the error
/// kind, decides whether a non-idempotent call may retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Establishing the connection. Nothing was sent.
    Connect,
    /// Writing the request frame. An error here proves the frame was
    /// incomplete at the server, which discards truncated frames.
    Send,
    /// Reading the reply after a fully-written request. The server may
    /// or may not have applied it.
    Recv,
    /// The server answered with a retryable reject *instead of*
    /// applying the request.
    Rejected,
}

/// Backoff jitter stream over [`dap_decide::splitmix`].
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        dap_decide::splitmix::next(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// A client bound to one daemon address, reconnecting as its policy
/// allows.
pub struct Client {
    target: Target,
    stream: Option<Stream>,
    policy: RetryPolicy,
    rng: SplitMix64,
    connects: u64,
    indeterminate_reports: u64,
    /// The current connection's polls in a row that did not pay; it
    /// stops polling at [`POLL_GIVE_UP`].
    unpaid_polls: u32,
}

enum Target {
    Tcp(String),
    Unix(PathBuf),
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Polls for the first bytes of a reply for up to [`POLL_WINDOW`],
    /// reading them into `head`. Returns what arrived (`Some(0)` is EOF,
    /// `None` an empty window) and whether polling paid: the reply came
    /// while this thread spun, after a yield that returned without it.
    /// Leaves the stream in blocking mode.
    fn poll_reply(&mut self, head: &mut [u8]) -> io::Result<(Option<usize>, bool)> {
        self.set_nonblocking(true)?;
        let deadline = Instant::now() + POLL_WINDOW;
        let mut yields = 0u32;
        let polled = loop {
            match self.read(head) {
                Ok(n) => break Ok(Some(n)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break Ok(None);
                    }
                    std::thread::yield_now();
                    yields += 1;
                }
                Err(e) => break Err(e),
            }
        };
        self.set_nonblocking(false)?;
        polled.map(|got| (got, got.is_some() && yields > 1))
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

fn reject_to_error(code: RejectCode) -> io::Error {
    let kind = match code {
        RejectCode::UnknownTenant | RejectCode::UnknownBackend => io::ErrorKind::PermissionDenied,
        RejectCode::ShuttingDown => io::ErrorKind::ConnectionAborted,
        RejectCode::Overloaded => io::ErrorKind::ResourceBusy,
    };
    let what = match code {
        RejectCode::UnknownTenant => "unknown tenant",
        RejectCode::UnknownBackend => "unknown backend",
        RejectCode::ShuttingDown => "daemon is shutting down",
        RejectCode::Overloaded => "daemon is overloaded",
    };
    io::Error::new(kind, format!("daemon rejected request: {what}"))
}

/// Transient failures worth another attempt. `PermissionDenied`
/// (unknown tenant/backend) and `InvalidData` (protocol violation) are
/// definitive and never retried.
fn is_retryable(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::NotFound
            | io::ErrorKind::ResourceBusy
            | io::ErrorKind::Interrupted
    )
}

impl Client {
    /// Connects over TCP (`host:port`), fail-fast (no retries).
    pub fn connect_tcp(addr: &str) -> io::Result<Self> {
        Self::connect_tcp_with(addr, RetryPolicy::none())
    }

    /// Connects to a Unix-domain socket, fail-fast (no retries).
    pub fn connect_unix(path: &Path) -> io::Result<Self> {
        Self::connect_unix_with(path, RetryPolicy::none())
    }

    /// Connects over TCP with retry/backoff under `policy`.
    pub fn connect_tcp_with(addr: &str, policy: RetryPolicy) -> io::Result<Self> {
        Self::connect(Target::Tcp(addr.to_string()), policy)
    }

    /// Connects to a Unix-domain socket with retry/backoff under
    /// `policy`.
    pub fn connect_unix_with(path: &Path, policy: RetryPolicy) -> io::Result<Self> {
        Self::connect(Target::Unix(path.to_path_buf()), policy)
    }

    fn connect(target: Target, policy: RetryPolicy) -> io::Result<Self> {
        let rng = SplitMix64::new(policy.seed);
        let mut client = Self {
            target,
            stream: None,
            policy,
            rng,
            connects: 0,
            indeterminate_reports: 0,
            unpaid_polls: 0,
        };
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match client.ensure_connected() {
                Ok(()) => return Ok(client),
                Err(e) => client.pause_or_fail(&start, attempt, Stage::Connect, true, e)?,
            }
        }
    }

    /// Connections established over this client's lifetime beyond the
    /// first — i.e. how many times retry logic had to reconnect.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// `ReportServed` calls that failed after the request frame was
    /// fully written (reply lost): the daemon *may* have counted the
    /// bytes, so they were not retried. The true served total lies in
    /// `[acked, acked + indeterminate]`.
    pub fn indeterminate_reports(&self) -> u64 {
        self.indeterminate_reports
    }

    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let stream = match &self.target {
            Target::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_read_timeout(self.policy.io_timeout)?;
                s.set_write_timeout(self.policy.io_timeout)?;
                Stream::Tcp(s)
            }
            Target::Unix(path) => {
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(self.policy.io_timeout)?;
                s.set_write_timeout(self.policy.io_timeout)?;
                Stream::Unix(s)
            }
        };
        self.stream = Some(stream);
        self.connects += 1;
        self.unpaid_polls = 0;
        Ok(())
    }

    /// One attempt: connect if needed, send, receive. Tags the error
    /// with the stage it happened in.
    fn try_call(&mut self, msg: &Message) -> Result<Message, (Stage, io::Error)> {
        self.ensure_connected().map_err(|e| (Stage::Connect, e))?;
        let stream = self.stream.as_mut().expect("connected above");
        write_frame(stream, msg).map_err(|e| (Stage::Send, e))?;
        match self.read_reply() {
            Ok(Some(Message::Reject(code))) => {
                let err = reject_to_error(code);
                let stage = match code {
                    // The server rejected instead of applying: safe to
                    // retry regardless of idempotency. It also closes
                    // the connection after Overloaded/ShuttingDown.
                    RejectCode::Overloaded | RejectCode::ShuttingDown => Stage::Rejected,
                    RejectCode::UnknownTenant | RejectCode::UnknownBackend => Stage::Recv,
                };
                Err((stage, err))
            }
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err((
                Stage::Recv,
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-call",
                ),
            )),
            Err(e) => Err((Stage::Recv, e)),
        }
    }

    /// Reads the reply to the request just written: polls for it while
    /// this connection's polls pay, then finishes (or starts) the frame
    /// with a blocking read under the policy's `io_timeout`.
    fn read_reply(&mut self) -> io::Result<Option<Message>> {
        let stream = self.stream.as_mut().expect("called after a send");
        // No more than a header: the poll must not read past the reply.
        let mut head = [0u8; HEADER_LEN];
        let got = if self.unpaid_polls < POLL_GIVE_UP {
            let (got, paid) = stream.poll_reply(&mut head)?;
            self.unpaid_polls = if paid { 0 } else { self.unpaid_polls + 1 };
            got
        } else {
            None
        };
        match got {
            Some(0) => Ok(None),
            Some(n) => read_frame(&mut head[..n].chain(stream)),
            None => read_frame(stream),
        }
    }

    /// Sleeps the backoff for `attempt` if another try is allowed, or
    /// returns `err`. `retry_stage_ok` is the idempotency verdict for
    /// the failed stage.
    fn pause_or_fail(
        &mut self,
        start: &Instant,
        attempt: u32,
        stage: Stage,
        idempotent: bool,
        err: io::Error,
    ) -> io::Result<()> {
        let stage_ok = match stage {
            Stage::Connect | Stage::Send | Stage::Rejected => true,
            Stage::Recv => idempotent,
        };
        if !stage_ok || !is_retryable(err.kind()) || attempt >= self.policy.max_attempts {
            return Err(err);
        }
        let delay = self.backoff_delay(attempt);
        if start.elapsed() + delay > self.policy.deadline {
            return Err(io::Error::new(
                err.kind(),
                format!("retry deadline exhausted after {attempt} attempts: {err}"),
            ));
        }
        std::thread::sleep(delay);
        Ok(())
    }

    /// Equal-jitter exponential backoff: uniform in `[exp/2, exp]`.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let exp = self
            .policy
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
            .min(self.policy.max_delay);
        let nanos = exp.as_nanos().min(u128::from(u64::MAX)) as u64;
        let half = nanos / 2;
        Duration::from_nanos(half + self.rng.below(nanos - half + 1))
    }

    fn call(&mut self, msg: &Message, idempotent: bool) -> io::Result<Message> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.try_call(msg) {
                Ok(reply) => return Ok(reply),
                Err((stage, err)) => {
                    // Every failure (including a reject, after which the
                    // server closes) poisons the connection: reconnect
                    // on the next attempt rather than reuse a stream in
                    // an unknown framing state.
                    self.stream = None;
                    // A retryable-kind Recv failure is a transport loss
                    // (the reply vanished); a definitive kind means a
                    // reply *arrived*, so the outcome is known.
                    if stage == Stage::Recv
                        && matches!(msg, Message::ReportServed { .. })
                        && is_retryable(err.kind())
                    {
                        self.indeterminate_reports += 1;
                    }
                    self.pause_or_fail(&start, attempt, stage, idempotent, err)?;
                }
            }
        }
    }

    /// Asks which backend should serve `bytes` for `tenant`.
    /// Idempotent: retried freely under the policy.
    pub fn get_route(&mut self, tenant: u16, bytes: u32) -> io::Result<RouteDecision> {
        match self.call(&Message::GetRoute { tenant, bytes }, true)? {
            Message::Route { source, window } => Ok(RouteDecision {
                backend: source as usize,
                window,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Reports that `source` delivered `bytes` in `latency_ns`
    /// nanoseconds of busy time. Not idempotent: only Connect/Send
    /// failures and typed rejects are retried (see module docs); a lost
    /// ack fails the call and bumps [`Client::indeterminate_reports`].
    pub fn report_served(&mut self, source: u8, bytes: u32, latency_ns: u32) -> io::Result<()> {
        match self.call(
            &Message::ReportServed {
                source,
                bytes,
                latency_ns,
            },
            false,
        )? {
            Message::Ack => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the Prometheus-text stats dump. Idempotent.
    pub fn snapshot_stats(&mut self) -> io::Result<String> {
        match self.call(&Message::SnapshotStats, true)? {
            Message::Stats(text) => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to exit cleanly. Not retried on a lost ack: once
    /// the daemon is down, further attempts can only fail.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Message::Shutdown, false)? {
            Message::Ack => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(msg: Message) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply from daemon: {msg:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy_for_test() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            deadline: Duration::from_secs(5),
            io_timeout: Some(Duration::from_millis(200)),
            seed: 42,
        }
    }

    #[test]
    fn backoff_is_jittered_bounded_and_deterministic() {
        let make = || Client {
            target: Target::Tcp("127.0.0.1:9".into()),
            stream: None,
            policy: RetryPolicy {
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(80),
                ..RetryPolicy::default()
            },
            rng: SplitMix64::new(7),
            connects: 0,
            indeterminate_reports: 0,
            unpaid_polls: 0,
        };
        let mut a = make();
        let mut b = make();
        for attempt in 1..=10 {
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1).min(20))
                .min(Duration::from_millis(80));
            let d = a.backoff_delay(attempt);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d:?} vs {exp:?}"
            );
            assert_eq!(d, b.backoff_delay(attempt), "same seed, same delays");
        }
    }

    #[test]
    fn connect_to_dead_address_fails_after_budgeted_attempts() {
        // Nothing listens on this socket path.
        let path = std::env::temp_dir().join(format!("dapd-nosuch-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let start = Instant::now();
        let err = Client::connect_unix_with(&path, policy_for_test())
            .map(|_| ())
            .unwrap_err();
        assert!(is_retryable(err.kind()), "{err}");
        // Three attempts with millisecond backoff: fast, not hung.
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn none_policy_is_single_attempt() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.io_timeout, None);
    }

    #[test]
    fn unpaid_polls_stop_polling_until_a_reconnect() {
        let path = std::env::temp_dir().join(format!("dapd-unpaid-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind");
        // Acks every request a millisecond late, past every poll window,
        // on two connections in turn.
        let peer = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().expect("accept");
                while let Ok(Some(_)) = read_frame(&mut stream) {
                    std::thread::sleep(Duration::from_millis(1));
                    write_frame(&mut stream, &Message::Ack).expect("ack");
                }
            }
        });
        let mut client = Client::connect_unix(&path).expect("connect");
        for calls in 1..=POLL_GIVE_UP + 4 {
            client.report_served(0, 64, 1).expect("acked");
            assert_eq!(client.unpaid_polls, calls.min(POLL_GIVE_UP));
        }
        client.stream = None;
        client.report_served(0, 64, 1).expect("acked");
        assert_eq!(client.unpaid_polls, 1, "a new connection polls again");
        assert_eq!(client.reconnects(), 1);
        drop(client);
        peer.join().expect("peer thread");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn definitive_errors_are_not_retryable() {
        assert!(!is_retryable(io::ErrorKind::PermissionDenied));
        assert!(!is_retryable(io::ErrorKind::InvalidData));
        assert!(is_retryable(io::ErrorKind::ConnectionRefused));
        assert!(is_retryable(io::ErrorKind::ResourceBusy));
    }
}
