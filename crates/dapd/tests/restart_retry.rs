//! A loadgen-shaped client survives a mid-run daemon restart through
//! retry/backoff — and the served-byte accounting stays exact.
//!
//! The core claim under test is the client's idempotency contract:
//! `ReportServed` is retried only when the failure proves the server
//! never saw a complete frame (connect/send failures, typed rejects),
//! and *never* after the frame was fully written (a lost ack). So with
//! `served` summed over both daemon incarnations' `dapd_served_bytes_total`
//! counters, every run must satisfy
//!
//! ```text
//! acked_bytes <= served <= acked_bytes + indeterminate_bytes
//! ```
//!
//! where `acked_bytes` are reports the client saw acked and
//! `indeterminate_bytes` are reports that failed at the recv stage (the
//! daemon may or may not have applied them). A double-count — one
//! report applied twice via a retry — breaks the upper bound; a lost
//! acked report breaks the lower bound.

use dapd::{Client, Engine, EngineConfig, RetryPolicy, Server, ServerConfig, ServerHandle};
use std::io;
use std::path::Path;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;
use workloads::{spec, RequestStream};

fn spawn_server(path: &Path) -> ServerHandle {
    let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).expect("stock config");
    Server::bind_unix(path, engine)
        .expect("bind")
        .with_config(ServerConfig {
            // Short deadlines so the old daemon's workers drain fast and
            // the restart window stays small.
            read_deadline: Duration::from_millis(200),
            write_deadline: Duration::from_millis(200),
            ..ServerConfig::default()
        })
        .expect("config")
        .spawn()
        .expect("spawn")
}

fn served_bytes_total(stats: &str) -> u64 {
    stats
        .lines()
        .filter_map(|l| {
            l.strip_prefix("dapd_served_bytes_total{")
                .and_then(|rest| rest.split_once("} "))
                .map(|(_, v)| v.trim().parse::<u64>().unwrap())
        })
        .sum()
}

#[test]
fn loadgen_survives_mid_run_restart_without_double_counts() {
    let path = std::env::temp_dir().join(format!("dapd-restart-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let first = spawn_server(&path);

    // The restart controller. On signal: stop the first daemon, capture
    // its final served total (after the stop flag lands, every new
    // request is drained with `ShuttingDown`, so the total is frozen),
    // join it (which unlinks the socket — the client sees
    // NotFound/ConnectionRefused, both retryable), hold a deliberate
    // outage window, then bind a fresh daemon on the same path.
    let (restart_tx, restart_rx) = mpsc::channel::<()>();
    let controller = {
        let path = path.clone();
        thread::spawn(move || -> (u64, ServerHandle) {
            restart_rx.recv().expect("restart signal");
            first.request_stop();
            // Let the (at most one, single client) in-flight request
            // finish before freezing the total.
            thread::sleep(Duration::from_millis(50));
            let served_first = served_bytes_total(&first.ops_view().metrics_text());
            first.join().expect("first daemon exits");
            thread::sleep(Duration::from_millis(150)); // hard outage
            (served_first, spawn_server(&path))
        })
    };

    let mut client = Client::connect_unix_with(
        &path,
        RetryPolicy {
            max_attempts: 30,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(100),
            deadline: Duration::from_secs(20),
            io_timeout: Some(Duration::from_millis(500)),
            seed: 0x02E5_7A27,
        },
    )
    .expect("connect");

    let mut stream = RequestStream::from_spec(spec("mcf").expect("mcf exists"), 2, 0x02E5_7A27);
    let mut acked_bytes = 0u64;
    let mut indeterminate_bytes = 0u64;
    let mut failed_reports = 0u64;
    let total_requests = 3_000u32;
    let restart_at = 1_000u32;

    for i in 0..total_requests {
        if i == restart_at {
            restart_tx.send(()).expect("controller alive");
        }
        let r = stream.next_request();
        // GetRoute is idempotent: through the whole restart, retries must
        // absorb every transient failure. An error here means the
        // policy's 20s budget was exhausted — a real failure.
        let d = client
            .get_route(r.tenant, r.bytes)
            .unwrap_or_else(|e| panic!("get_route failed despite retry policy (request {i}): {e}"));
        // 1 GB/s synthetic service: bytes == busy nanoseconds.
        match client.report_served(d.backend as u8, r.bytes, r.bytes) {
            Ok(()) => acked_bytes += u64::from(r.bytes),
            Err(e) => {
                // Only a lost-ack (recv-stage) failure may surface:
                // everything else is provably-unapplied and must have
                // been retried internally.
                assert!(
                    matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::BrokenPipe
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::WouldBlock
                            | io::ErrorKind::ConnectionAborted
                    ),
                    "report_served failed with a non-recv-looking error: {e}"
                );
                indeterminate_bytes += u64::from(r.bytes);
                failed_reports += 1;
            }
        }
    }

    let (served_first, second) = controller.join().expect("controller thread");
    assert!(
        client.reconnects() > 0,
        "the restart was never observed by the client"
    );
    assert_eq!(
        client.indeterminate_reports(),
        failed_reports,
        "client's indeterminate ledger disagrees with the test's"
    );

    let stats = client.snapshot_stats().expect("stats from second daemon");
    let served = served_first + served_bytes_total(&stats);
    assert!(
        served <= acked_bytes + indeterminate_bytes,
        "served {served} > acked {acked_bytes} + indeterminate {indeterminate_bytes}: \
         a ReportServed was double-counted"
    );
    assert!(
        served >= acked_bytes,
        "served {served} < acked {acked_bytes}: an acked report was lost"
    );
    assert!(
        served_bytes_total(&stats) > 0,
        "second daemon served nothing — the client never cut over"
    );

    client.shutdown().expect("shutdown");
    second.join().expect("second daemon exits");
    assert!(!path.exists(), "socket cleaned up");
}
