//! The one bounded acceptor under `dapd` and the ops plane
//! ([`OpsServer`](crate::http::OpsServer)).
//!
//! [`spawn`] polls a nonblocking listener every 10 ms, prunes finished
//! workers (the live count is what [`Limits::max_connections`] checks),
//! hands each connection to a thread of its own or, over the cap, to the
//! caller's over-cap action, and runs the caller's tick once per poll.
//! Four rules hold for every server built on it:
//!
//! 1. **Accept errors** (`EMFILE`, say) are retried after one poll; the
//!    acceptor exits only on stop.
//! 2. **Blocking mode**: every accepted stream is set blocking before its
//!    deadlines are armed (BSD `accept(2)` inherits `O_NONBLOCK`).
//! 3. **Unarmable streams**, whose deadlines cannot be set, are refused.
//! 4. **Drop**: dropping the [`Acceptor`] stops it and joins it and its
//!    workers, each of which wakes within one read deadline.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// One accepted connection: blocking I/O under OS-level deadlines.
pub trait Conn: Read + Write + Send {
    /// Sets the stream blocking, then arms the `limits` deadlines.
    fn arm(&self, limits: &Limits) -> io::Result<()>;
}

/// A bound listener the acceptor polls.
pub trait Listener: Send {
    /// Switches accepts between blocking and nonblocking mode.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// Accepts one pending connection.
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>>;
    /// The bound TCP address, or `None` for a Unix-domain socket.
    fn tcp_addr(&self) -> Option<SocketAddr>;
}

macro_rules! impl_socket {
    ($listener:ty, $stream:ty, $tcp_addr:expr) => {
        impl Conn for $stream {
            fn arm(&self, limits: &Limits) -> io::Result<()> {
                self.set_nonblocking(false)?;
                self.set_read_timeout(Some(limits.read_deadline))?;
                self.set_write_timeout(Some(limits.write_deadline))
            }
        }

        impl Listener for $listener {
            fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
                <$listener>::set_nonblocking(self, nonblocking)
            }

            fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
                Ok(Box::new(self.accept()?.0))
            }

            fn tcp_addr(&self) -> Option<SocketAddr> {
                $tcp_addr(self)
            }
        }
    };
}

impl_socket! { TcpListener, TcpStream, |l: &TcpListener| l.local_addr().ok() }
impl_socket! { UnixListener, UnixStream, |_| None }

/// The cap and deadlines the acceptor applies to every connection.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Live workers at which new connections go to the over-cap action.
    pub max_connections: usize,
    /// Read deadline armed on every accepted stream.
    pub read_deadline: Duration,
    /// Write deadline armed on every accepted stream.
    pub write_deadline: Duration,
}

/// Handle to a running acceptor; dropping it stops and joins it.
#[must_use = "dropping an Acceptor stops it"]
pub struct Acceptor {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    addr: Option<SocketAddr>,
}

impl Acceptor {
    /// The bound TCP address, or `None` for a Unix-domain socket.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Asks the acceptor to stop after its current poll.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop was requested or the acceptor thread has exited.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.thread.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Waits until a stop, requested here or by a handler, ends the
    /// acceptor. Errors if the acceptor thread panicked.
    pub fn join(mut self) -> io::Result<()> {
        let thread = self.thread.take().expect("only join and drop take it");
        thread
            .join()
            .map_err(|_| io::Error::other("acceptor thread panicked"))
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.request_stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Starts accepting on `listener` in a background thread. Each
/// connection is armed with the `limits` deadlines and served by
/// `handler`, which also gets the stop flag (to drain, or to request a
/// stop); while `limits.max_connections` workers are live, new
/// connections go to `over_cap` instead. `tick` runs once per poll.
pub fn spawn<H, O, T>(
    listener: Box<dyn Listener>,
    limits: Limits,
    handler: H,
    mut over_cap: O,
    mut tick: T,
) -> io::Result<Acceptor>
where
    H: Fn(Box<dyn Conn>, &AtomicBool) + Send + Sync + 'static,
    O: FnMut(Box<dyn Conn>) + Send + 'static,
    T: FnMut() + Send + 'static,
{
    listener.set_nonblocking(true)?;
    let addr = listener.tcp_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let (handler, flag) = (Arc::new(handler), Arc::clone(&stop));
    let thread = thread::Builder::new().spawn(move || {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        while !flag.load(Ordering::SeqCst) {
            tick();
            let conn = match listener.accept_conn() {
                Ok(conn) => conn,
                // `WouldBlock`, or a transient error such as `EMFILE`.
                Err(_) => {
                    workers.retain(|w| !w.is_finished());
                    thread::sleep(ACCEPT_POLL);
                    continue;
                }
            };
            workers.retain(|w| !w.is_finished());
            if conn.arm(&limits).is_err() {
                continue;
            }
            if workers.len() >= limits.max_connections {
                over_cap(conn);
                continue;
            }
            let (handler, flag) = (Arc::clone(&handler), Arc::clone(&flag));
            // A worker that cannot be started drops its connection.
            if let Ok(worker) = thread::Builder::new().spawn(move || handler(conn, &flag)) {
                workers.push(worker);
            }
        }
        for worker in workers {
            let _ = worker.join();
        }
    })?;
    Ok(Acceptor {
        stop,
        thread: Some(thread),
        addr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::mpsc;

    const LIMITS: Limits = Limits {
        max_connections: 2,
        read_deadline: Duration::from_secs(5),
        write_deadline: Duration::from_secs(5),
    };

    /// Connections `1..=cap` get a worker each; the next one goes to
    /// the over-cap action, and only it does.
    fn over_cap_runs_for_the_extra_connection(
        listener: Box<dyn Listener>,
        connect: impl Fn() -> Box<dyn Conn>,
    ) {
        let (served_tx, served_rx) = mpsc::channel();
        let (shed_tx, shed_rx) = mpsc::channel();
        let acceptor = spawn(
            listener,
            LIMITS,
            move |mut conn, _| {
                served_tx.send(()).unwrap();
                // Hold the worker slot until the peer hangs up.
                let _ = conn.read(&mut [0u8; 1]);
            },
            move |_| shed_tx.send(()).unwrap(),
            || {},
        )
        .unwrap();
        let wait = Duration::from_secs(5);
        let mut peers = Vec::new();
        for _ in 0..LIMITS.max_connections {
            peers.push(connect());
            served_rx.recv_timeout(wait).expect("served under the cap");
        }
        assert!(shed_rx.try_recv().is_err(), "shed under the cap");
        peers.push(connect());
        shed_rx.recv_timeout(wait).expect("over-cap action ran");
        assert!(served_rx.try_recv().is_err(), "over-cap peer was served");
        drop(peers);
        drop(acceptor);
        assert!(shed_rx.try_recv().is_err(), "over-cap action ran twice");
    }

    #[test]
    fn over_cap_action_runs_for_the_extra_tcp_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        over_cap_runs_for_the_extra_connection(Box::new(listener), || {
            Box::new(TcpStream::connect(addr).unwrap())
        });
    }

    #[test]
    fn over_cap_action_runs_for_the_extra_unix_connection() {
        let path = std::env::temp_dir().join(format!("dap-accept-cap-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        over_cap_runs_for_the_extra_connection(Box::new(listener), || {
            Box::new(UnixStream::connect(&path).unwrap())
        });
        let _ = std::fs::remove_file(&path);
    }

    /// A TCP listener whose first accept fails with `EMFILE`.
    struct OutOfFdsOnce {
        inner: TcpListener,
        failed: Cell<bool>,
    }

    impl Listener for OutOfFdsOnce {
        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            Listener::set_nonblocking(&self.inner, nonblocking)
        }

        fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
            if !self.failed.replace(true) {
                return Err(io::Error::from_raw_os_error(24));
            }
            self.inner.accept_conn()
        }

        fn tcp_addr(&self) -> Option<SocketAddr> {
            self.inner.tcp_addr()
        }
    }

    #[test]
    fn accept_error_is_retried_not_fatal() {
        let listener = OutOfFdsOnce {
            inner: TcpListener::bind("127.0.0.1:0").unwrap(),
            failed: Cell::new(false),
        };
        let acceptor = spawn(
            Box::new(listener),
            LIMITS,
            |mut conn, _| {
                let _ = conn.write_all(b"served");
            },
            drop,
            || {},
        )
        .unwrap();
        let mut peer = TcpStream::connect(acceptor.addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reply = String::new();
        peer.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "served");
        assert!(!acceptor.stopping(), "acceptor gave up after EMFILE");
    }
}
