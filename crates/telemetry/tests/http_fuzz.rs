//! Seeded fuzz of the ops HTTP responder.
//!
//! The scrape endpoint faces whatever the network sends it, so this
//! harness drives both layers with deterministic byte soup:
//!
//! * the pure parser ([`handle_request`]) with thousands of random and
//!   mutated-from-valid requests — every input must yield a well-formed
//!   `200`/`400`/`404` response, never a panic;
//! * a live [`OpsServer`] socket with torn reads (partial request then
//!   close), oversized headers, pipelined garbage, and a silent staller
//!   — every connection resolves within the configured deadline, and a
//!   concurrent `/healthz` probe proves the accept loop never blocks.
//!
//! The PRNG is an inline SplitMix64 (same recurrence as
//! `workloads::rng`) because `dap-telemetry` sits below `workloads` in
//! the crate graph and must not depend on it.

use dap_telemetry::http::{handle_request, http_get, OpsResponse, OpsRouter, OpsServer};
use dap_telemetry::OpsServerConfig;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x0005_CA1E_F002;

/// Seeded fuzz stream over the workspace's one SplitMix64.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        dap_core::splitmix::next(&mut self.0)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn test_router() -> OpsRouter {
    Arc::new(|path: &str| match path {
        "/metrics" => OpsResponse::ok_text("# TYPE up gauge\nup 1\n".to_string()),
        "/healthz" => OpsResponse::ok_text("ok\n".to_string()),
        _ => OpsResponse::not_found(),
    })
}

/// Asserts `raw` is one complete, well-formed HTTP/1.1 response with an
/// allowed status and a `Content-Length` that matches the body.
fn assert_well_formed(raw: &[u8], input: &[u8]) {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator for input {input:?}: {text:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line for input {input:?}: {head:?}"));
    assert!(
        matches!(status, 200 | 400 | 404),
        "status {status} for input {input:?}"
    );
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no Content-Length: {head:?}"));
    assert_eq!(len, body.len(), "length mismatch for input {input:?}");
}

/// Random byte soup, occasionally salted with HTTP-ish tokens so the
/// fuzz reaches past the first parse branches.
fn random_request(rng: &mut SplitMix64) -> Vec<u8> {
    const TOKENS: &[&[u8]] = &[
        b"GET ",
        b"POST ",
        b"/metrics",
        b"/healthz",
        b"/",
        b" HTTP/1.1",
        b" HTTP/1.0",
        b" HTTP/9.9",
        b"\r\n",
        b"\n",
        b"\r\n\r\n",
        b"Host: x",
        b"\x00",
        b"\xff\xfe",
        b"?q=1",
    ];
    let mut out = Vec::new();
    for _ in 0..rng.below(12) {
        if rng.below(2) == 0 {
            out.extend_from_slice(TOKENS[rng.below(TOKENS.len() as u64) as usize]);
        } else {
            for _ in 0..rng.below(20) {
                out.push(rng.next() as u8);
            }
        }
    }
    out.extend_from_slice(b"\r\n\r\n"); // make it "complete" for the pure layer
    out
}

/// A valid request with a seeded mutation: byte flip, truncation,
/// insertion, or duplication (pipelining).
fn mutated_request(rng: &mut SplitMix64) -> Vec<u8> {
    let mut req = b"GET /metrics HTTP/1.1\r\nHost: fuzz\r\n\r\n".to_vec();
    match rng.below(4) {
        0 => {
            let at = rng.below(req.len() as u64) as usize;
            req[at] ^= (rng.next() as u8) | 1;
        }
        1 => {
            req.truncate(rng.below(req.len() as u64) as usize);
            req.extend_from_slice(b"\r\n\r\n");
        }
        2 => {
            let at = rng.below(req.len() as u64) as usize;
            req.insert(at, rng.next() as u8);
        }
        _ => {
            let dup = req.clone();
            req.extend_from_slice(&dup); // pipelined second request
        }
    }
    req
}

#[test]
fn pure_parser_never_panics_and_always_answers() {
    let router = test_router();
    let mut rng = SplitMix64(SEED);
    for _ in 0..4_000 {
        let req = random_request(&mut rng);
        let resp = handle_request(&req, router.as_ref());
        assert_well_formed(&resp, &req);
    }
    for _ in 0..4_000 {
        let req = mutated_request(&mut rng);
        let resp = handle_request(&req, router.as_ref());
        assert_well_formed(&resp, &req);
    }
}

#[test]
fn socket_survives_torn_oversized_and_pipelined_abuse() {
    let handle = OpsServer::bind("127.0.0.1:0")
        .unwrap()
        .with_config(OpsServerConfig {
            read_deadline: Duration::from_millis(300),
            max_connections: 8,
            max_request_bytes: 2 * 1024,
        })
        .spawn(test_router())
        .unwrap();
    let addr = handle.addr().expect("tcp");
    let mut rng = SplitMix64(SEED ^ 1);

    for case in 0..48u32 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        match case % 4 {
            0 => {
                // Torn read: half a request line, then FIN.
                let req = b"GET /metr";
                let cut = rng.below(req.len() as u64) as usize;
                let _ = stream.write_all(&req[..cut]);
                let _ = stream.shutdown(Shutdown::Write);
            }
            1 => {
                // Oversized headers: blow past max_request_bytes.
                let mut big = b"GET /metrics HTTP/1.1\r\n".to_vec();
                while big.len() < 4 * 1024 {
                    big.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\n");
                }
                let _ = stream.write_all(&big);
            }
            2 => {
                // Pipelined garbage: one valid + trailing soup in one write.
                let mut req = b"GET /healthz HTTP/1.1\r\n\r\n".to_vec();
                req.extend(random_request(&mut rng));
                let _ = stream.write_all(&req);
            }
            _ => {
                // Raw soup, complete with terminator.
                let _ = stream.write_all(&random_request(&mut rng));
            }
        }
        // Every connection resolves: either a well-formed response or a
        // clean close — never a hang past the deadline + margin.
        let mut resp = Vec::new();
        let _ = stream.read_to_end(&mut resp);
        if !resp.is_empty() {
            assert_well_formed(&resp, &[case as u8]);
        }
    }

    // The endpoint still serves after all that.
    let (status, body) = http_get(&addr.to_string(), "/healthz", Duration::from_secs(2)).unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    drop(handle);
}

#[test]
fn silent_staller_never_blocks_the_accept_loop() {
    let handle = OpsServer::bind("127.0.0.1:0")
        .unwrap()
        .with_config(OpsServerConfig {
            read_deadline: Duration::from_secs(2),
            max_connections: 8,
            ..OpsServerConfig::default()
        })
        .spawn(test_router())
        .unwrap();
    let addr = handle.addr().expect("tcp");

    // Open connections that never send a byte, holding them across the
    // probe. They occupy worker threads but must not park the acceptor.
    let stallers: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();

    let t0 = Instant::now();
    let (status, _) = http_get(&addr.to_string(), "/healthz", Duration::from_secs(2)).unwrap();
    assert_eq!(status, 200);
    assert!(
        t0.elapsed() < Duration::from_millis(1_500),
        "healthz stalled behind silent peers: {:?}",
        t0.elapsed()
    );

    drop(stallers);
    drop(handle);
}
