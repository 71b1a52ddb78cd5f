//! The client's wait for a reply, driven against a scripted peer on a
//! Unix socket.
//!
//! After writing a request the client polls for the reply for
//! [`POLL_WINDOW`], then blocks. Whichever way the reply comes — at once,
//! late, split across writes, never, or not at all because the peer hung
//! up — the call must end as a plain blocking read would have ended it,
//! and the stream must be left in blocking mode for the next call.

use dapd::client::POLL_WINDOW;
use dapd::wire::{encode_frame, read_frame, Message};
use dapd::{Client, RetryPolicy};
use std::io::{self, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// Far more than one poll window, far less than a test's second.
const LATE: Duration = POLL_WINDOW.saturating_mul(50);

/// Serves one connection on a fresh socket, handing each request to
/// `answer`. The peer thread returns how many requests it read once the
/// client hangs up (or `answer` does).
fn scripted_peer<F>(name: &str, mut answer: F) -> (PathBuf, thread::JoinHandle<u32>)
where
    F: FnMut(&mut UnixStream, &Message) + Send + 'static,
{
    let path = std::env::temp_dir().join(format!("dapd-poll-{name}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind");
    let socket_file = path.clone();
    let peer = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let _ = std::fs::remove_file(socket_file);
        let mut requests = 0;
        while let Ok(Some(msg)) = read_frame(&mut stream) {
            requests += 1;
            answer(&mut stream, &msg);
        }
        requests
    });
    (path, peer)
}

/// The frame a daemon would answer `msg` with.
fn reply_to(msg: &Message) -> Vec<u8> {
    encode_frame(&match msg {
        Message::GetRoute { .. } => Message::Route {
            source: 1,
            window: 7,
        },
        Message::ReportServed { .. } => Message::Ack,
        other => panic!("unscripted request {other:?}"),
    })
}

fn answer_after(delay: Duration) -> impl FnMut(&mut UnixStream, &Message) {
    move |stream, msg| {
        thread::sleep(delay);
        stream.write_all(&reply_to(msg)).expect("reply");
    }
}

/// One attempt per call, and a read timeout, so a client that loses
/// bytes fails its call instead of waiting forever.
fn connect(path: &Path) -> Client {
    let policy = RetryPolicy {
        max_attempts: 1,
        io_timeout: Some(Duration::from_secs(1)),
        ..RetryPolicy::default()
    };
    Client::connect_unix_with(path, policy).expect("connect")
}

fn assert_routed(client: &mut Client) {
    let route = client.get_route(0, 64).expect("routed");
    assert_eq!((route.backend, route.window), (1, 7));
}

fn finish(client: Client, peer: thread::JoinHandle<u32>) -> u32 {
    drop(client);
    peer.join().expect("peer thread")
}

#[test]
fn reply_at_once() {
    let (path, peer) = scripted_peer("once", answer_after(Duration::ZERO));
    let mut client = connect(&path);
    for _ in 0..3 {
        assert_routed(&mut client);
    }
    client.report_served(1, 64, 100).expect("acked");
    assert_eq!(finish(client, peer), 4);
}

#[test]
fn late_reply_is_read_by_the_blocking_fallback() {
    let (path, peer) = scripted_peer("late", answer_after(LATE));
    let mut client = connect(&path);
    let start = Instant::now();
    assert_routed(&mut client);
    assert!(start.elapsed() >= LATE);
    assert_eq!(finish(client, peer), 1);
}

#[test]
fn header_and_payload_in_two_writes() {
    // Split between header and payload, and inside the header, so the
    // poll catches a whole header or only part of one.
    for split in [5, 2] {
        let (path, peer) = scripted_peer(&format!("split{split}"), move |stream, msg| {
            let frame = reply_to(msg);
            stream.write_all(&frame[..split]).expect("first write");
            thread::sleep(LATE);
            stream.write_all(&frame[split..]).expect("second write");
        });
        let mut client = connect(&path);
        assert_routed(&mut client);
        assert_routed(&mut client);
        assert_eq!(finish(client, peer), 2, "split at {split}");
    }
}

#[test]
fn no_reply_times_out_and_a_stalled_report_is_indeterminate() {
    let policy = RetryPolicy {
        max_attempts: 3,
        io_timeout: Some(Duration::from_millis(100)),
        ..RetryPolicy::default()
    };
    let timed_out = |err: &io::Error, start: Instant| {
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        let took = start.elapsed();
        assert!(
            took >= Duration::from_millis(90) && took < Duration::from_millis(600),
            "{took:?}"
        );
    };

    // A route is idempotent, but with one attempt the timeout surfaces.
    let (path, peer) = scripted_peer("silent-route", |_, _| {});
    let once = RetryPolicy {
        max_attempts: 1,
        ..policy.clone()
    };
    let mut client = Client::connect_unix_with(&path, once).expect("connect");
    let start = Instant::now();
    let err = client.get_route(0, 64).unwrap_err();
    timed_out(&err, start);
    assert_eq!(client.indeterminate_reports(), 0);
    assert_eq!(finish(client, peer), 1);

    // A report whose ack never comes is not retried, whatever the
    // policy allows: it counts as exactly one indeterminate report.
    let (path, peer) = scripted_peer("silent-report", |_, _| {});
    let mut client = Client::connect_unix_with(&path, policy).expect("connect");
    let start = Instant::now();
    let err = client.report_served(1, 64, 100).unwrap_err();
    timed_out(&err, start);
    assert_eq!(client.indeterminate_reports(), 1);
    assert_eq!(client.reconnects(), 0);
    assert_eq!(finish(client, peer), 1, "the report was sent once");
}

#[test]
fn eof_while_polling_is_a_mid_call_close() {
    let (path, peer) = scripted_peer("eof", |stream, _| {
        stream.shutdown(std::net::Shutdown::Both).expect("hang up");
    });
    let mut client = connect(&path);
    let err = client.get_route(0, 64).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        err.to_string()
            .contains("daemon closed the connection mid-call"),
        "{err}"
    );
    assert_eq!(finish(client, peer), 1);
}

#[test]
fn calls_after_slow_replies_still_work() {
    // Twenty slow replies in a row outlast every poll, so the connection
    // stops polling (after 16) and reads straight away: a stream left
    // nonblocking would then fail those reads with `WouldBlock`.
    let mut n = 0u32;
    let (path, peer) = scripted_peer("slow", move |stream, msg| {
        n += 1;
        if n <= 20 {
            thread::sleep(LATE);
        }
        stream.write_all(&reply_to(msg)).expect("reply");
    });
    let mut client = connect(&path);
    for _ in 0..24 {
        assert_routed(&mut client);
    }
    client.report_served(1, 64, 100).expect("acked");
    assert_eq!(finish(client, peer), 25);
}
