//! The `dapd-socket` workload: a daemon child process serving one client
//! connection over a real Unix socket, in a closed loop and then an open
//! loop, plus in-process replays of the same stream that split the
//! round trip into codec, engine and socket time.

use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

use dapd::wire::{decode_frame, encode_frame, Message};
use dapd::{Client, Engine, EngineConfig, Server};
use workloads::RequestStream;

use crate::probe::ProbeCost;
use crate::report::{nearest_rank, Stat, WorkloadResult};
use crate::sim::{more_passes, set_trace_layers, trace_next};
use crate::{vm_hwm_mb, Fnv, Opts};

/// Decisions per closed-loop pass: about a quarter second, so half a
/// run holds enough passes for a steady median on a noisy host.
const CLOSED_DECISIONS: u64 = 10_000;

/// Backend 0 reports this fraction of its nominal rate from a closed
/// pass's midpoint on.
const THROTTLE: f64 = 0.25;

/// Open-loop offered load, decisions per second: about a quarter of the
/// closed-loop capacity of a 2-CPU host with client and daemon pinned to
/// different CPUs, so a host that runs at half speed for a while still
/// keeps up.
const OPEN_RATE: f64 = 10_000.0;

/// A request is on time when it is sent within one inter-arrival gap of
/// its due time.
const ON_TIME_US: f64 = 1e6 / OPEN_RATE;

/// Daemon start-ups timed for `setup_s` beyond the one each pass makes:
/// start-up includes up to one 10 ms accept-poll interval, so its median
/// needs many samples.
const SETUP_ROUNDS: usize = 16;

/// How long a daemon may take to accept a connection or to exit.
const DAEMON_DEADLINE: Duration = Duration::from_secs(10);

/// The request stream's benchmark clone and tenant count (the stock
/// engine's reserved + best-effort pair).
const STREAM_BENCH: &str = "mcf";
const TENANTS: u16 = 2;

/// Eq. 4 HBM share before the throttle, and the HBM weight after it.
const HBM_SHARE: (f64, f64) = (102.4 / (102.4 + 38.4), 0.02);
const HBM_THROTTLED: (f64, f64) = (102.4 * THROTTLE / (102.4 * THROTTLE + 38.4), 0.03);

/// Runs the daemon for `--serve`: binds `socket`, serves until a client
/// sends Shutdown, unlinks the socket.
pub fn serve(socket: &Path) -> Result<(), String> {
    let engine = Engine::new(EngineConfig::hbm_ddr4_pair()).map_err(|e| e.to_string())?;
    Server::bind_unix(socket, engine)
        .and_then(Server::spawn)
        .and_then(dapd::ServerHandle::join)
        .map_err(|e| format!("{}: {e}", socket.display()))
}

/// A running daemon child; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on its CPU and connects one client to it,
    /// returning the daemon, the client, and the seconds from spawn to
    /// the first answered request.
    fn start(opts: &Opts, socket: &Path) -> Result<(Self, Client, f64), String> {
        let t0 = Instant::now();
        let child = opts
            .placement
            .command(opts.placement.daemon_cpu)
            .arg("--serve")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let mut client = loop {
            match Client::connect_unix(socket) {
                Ok(c) => break c,
                Err(e) => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(format!("daemon exited during start-up: {status}"));
                    }
                    if t0.elapsed() > DAEMON_DEADLINE {
                        return Err(format!("daemon never accepted a connection: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        };
        client
            .snapshot_stats()
            .map_err(|e| format!("daemon did not answer: {e}"))?;
        Ok((daemon, client, t0.elapsed().as_secs_f64()))
    }

    fn rss_mb(&self) -> f64 {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends Shutdown and waits for the daemon to exit.
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        client
            .shutdown()
            .map_err(|e| format!("shutdown not acknowledged: {e}"))?;
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if t0.elapsed() < DAEMON_DEADLINE => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(None) => return Err("daemon did not exit after Shutdown".to_string()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The synthetic service every client of this workload reports: each
/// backend serves at its nominal rate, backend 0 throttled once
/// `throttled`. Fractional nanoseconds carry between reports, as in
/// `dapctl loadgen`, so the daemon measures the true rate.
struct Service {
    nominal: Vec<f64>,
    carry_ns: Vec<f64>,
}

impl Service {
    fn new() -> Self {
        let nominal: Vec<f64> = EngineConfig::hbm_ddr4_pair()
            .backends
            .iter()
            .map(|b| b.nominal_gbps)
            .collect();
        Self {
            carry_ns: vec![0.0; nominal.len()],
            nominal,
        }
    }

    fn busy_ns(&mut self, backend: usize, bytes: u32, throttled: bool) -> u32 {
        let mut rate = self.nominal[backend];
        if backend == 0 && throttled {
            rate *= THROTTLE;
        }
        // One byte per nanosecond is 1 GB/s.
        self.carry_ns[backend] += f64::from(bytes) / rate;
        let nanos = self.carry_ns[backend] as u32;
        self.carry_ns[backend] -= f64::from(nanos);
        nanos
    }
}

fn stream(seed: u64) -> RequestStream {
    let spec = workloads::spec(STREAM_BENCH).expect("the stream clone is in-tree");
    RequestStream::from_spec(spec, TENANTS, seed)
}

/// The value of the exposition sample named exactly `key`.
fn sample(stats: &str, key: &str) -> Option<f64> {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.trim().parse().ok())
}

/// The sum of every sample of `family`, labelled or not.
fn family_sum(stats: &str, family: &str) -> f64 {
    stats
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(family)?;
            let value = match rest.as_bytes().first()? {
                b' ' => rest,
                b'{' => &rest[rest.find('}')? + 1..],
                _ => return None,
            };
            value.trim().parse::<f64>().ok()
        })
        .sum()
}

/// The `q` quantile of an exposition histogram, interpolated linearly
/// inside the power-of-two bucket it falls in (0 when empty).
fn histogram_quantile(stats: &str, family: &str, q: f64) -> f64 {
    let prefix = format!("{family}_bucket{{le=\"");
    let count = sample(stats, &format!("{family}_count")).unwrap_or(0.0);
    let target = q * count;
    let (mut lower, mut below) = (0.0, 0.0);
    for line in stats.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((le, cum)) = rest.split_once("\"} ") else {
            continue;
        };
        let Ok(cum) = cum.trim().parse::<f64>() else {
            continue;
        };
        let Ok(upper) = le.parse::<f64>() else {
            return lower;
        };
        if cum >= target && cum > below {
            return lower + (upper - lower) * (target - below) / (cum - below);
        }
        (lower, below) = (upper, cum);
    }
    lower
}

/// One closed-loop pass on a fresh daemon.
struct ClosedPass {
    loop_s: f64,
    rtt_us: Vec<f64>,
    digest: u64,
    stats: String,
    rejects: f64,
    reconnects: u64,
    indeterminate: u64,
}

/// Runs `CLOSED_DECISIONS` decisions (GetRoute then ReportServed) on a
/// fresh daemon, backend 0 throttled from the midpoint, and checks the
/// daemon's books. `traced` adds a clock read between the two calls.
/// Returns `None` when the pass could not run to the end.
fn closed_pass(
    opts: &Opts,
    socket: &Path,
    traced: bool,
    res: &mut WorkloadResult,
    setup: &mut Vec<f64>,
    rss: &mut f64,
) -> Option<ClosedPass> {
    let started = Daemon::start(opts, socket);
    res.check(started.is_ok(), || {
        format!(
            "closed pass: {}",
            started.as_ref().err().cloned().unwrap_or_default()
        )
    });
    let (daemon, mut client, setup_s) = started.ok()?;
    setup.push(setup_s);
    let mut requests = stream(opts.seed);
    let mut service = Service::new();
    let mut digest = Fnv::default();
    let mut routed = [0u64; 2];
    let mut routed_before = [0u64; 2];
    let mut rtt_us = Vec::with_capacity(CLOSED_DECISIONS as usize);
    let half = CLOSED_DECISIONS / 2;
    let t0 = Instant::now();
    for i in 0..CLOSED_DECISIONS {
        let r = requests.next_request();
        let sent = Instant::now();
        let route = client.get_route(r.tenant, r.bytes);
        if traced {
            std::hint::black_box(Instant::now());
        }
        let outcome = route.and_then(|d| {
            let nanos = service.busy_ns(d.backend, r.bytes, i >= half);
            client
                .report_served(d.backend as u8, r.bytes, nanos)
                .map(|()| d)
        });
        let done = Instant::now();
        res.attempted += 1;
        let d = match outcome {
            Ok(d) => d,
            Err(e) => {
                res.failed += 1;
                res.errors.push(format!("closed pass: request {i}: {e}"));
                return None;
            }
        };
        rtt_us.push((done - sent).as_secs_f64() * 1e6);
        digest.eat(d.backend as u64);
        digest.eat(u64::from(d.window));
        routed[d.backend] += u64::from(r.bytes);
        if i < half {
            routed_before[d.backend] += u64::from(r.bytes);
        }
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let stats = client.snapshot_stats();
    res.check(stats.is_ok(), || {
        "closed pass: stats snapshot failed".to_string()
    });
    let stats = stats.ok()?;
    *rss = rss.max(daemon.rss_mb());
    let stopped = daemon.stop(&mut client);
    res.check(stopped.is_ok(), || {
        format!("closed pass: {}", stopped.err().unwrap_or_default())
    });

    let decisions = sample(&stats, "dapd_decisions_total").unwrap_or(-1.0);
    res.check(decisions == CLOSED_DECISIONS as f64, || {
        format!("dapd_decisions_total {decisions} != {CLOSED_DECISIONS} requests")
    });
    let served = family_sum(&stats, "dapd_served_bytes_total");
    let routed_daemon = family_sum(&stats, "dapd_routed_bytes_total");
    let routed_client: u64 = routed.iter().sum();
    res.check(
        served == routed_daemon && routed_daemon == routed_client as f64,
        || format!("served {served} / daemon-routed {routed_daemon} / client-routed {routed_client} bytes differ"),
    );
    let share = routed_before[0] as f64 / routed_before.iter().sum::<u64>().max(1) as f64;
    res.check((share - HBM_SHARE.0).abs() <= HBM_SHARE.1, || {
        format!(
            "pre-throttle HBM share {share:.4} outside {:.3} ± {}",
            HBM_SHARE.0, HBM_SHARE.1
        )
    });
    let weight = sample(&stats, "dapd_weight_ppm{backend=\"hbm\"}").unwrap_or(-1.0) / 1e6;
    res.check((weight - HBM_THROTTLED.0).abs() <= HBM_THROTTLED.1, || {
        format!(
            "post-throttle HBM weight {weight:.4} outside {:.3} ± {}",
            HBM_THROTTLED.0, HBM_THROTTLED.1
        )
    });
    let rejects = family_sum(&stats, "dapd_rejected_total") + family_sum(&stats, "dapd_shed_total");
    res.check(rejects == 0.0, || format!("closed pass: {rejects} rejects"));
    Some(ClosedPass {
        loop_s,
        rtt_us,
        digest: digest.finish(),
        stats,
        rejects,
        reconnects: client.reconnects(),
        indeterminate: client.indeterminate_reports(),
    })
}

/// The open loop's measurements.
struct OpenLoop {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
}

/// Offers `OPEN_RATE` decisions per second for `seconds` on a fresh
/// daemon, sending each request at its due time (or at once when
/// behind) and timing it from that due time.
fn open_loop(
    opts: &Opts,
    socket: &Path,
    seconds: f64,
    res: &mut WorkloadResult,
    setup: &mut Vec<f64>,
    rss: &mut f64,
) -> Option<OpenLoop> {
    let started = Daemon::start(opts, socket);
    res.check(started.is_ok(), || {
        format!(
            "open loop: {}",
            started.as_ref().err().cloned().unwrap_or_default()
        )
    });
    let (daemon, mut client, setup_s) = started.ok()?;
    setup.push(setup_s);
    let n = (seconds * OPEN_RATE) as u64;
    let mut requests = stream(opts.seed);
    let mut service = Service::new();
    let mut latency_us = Vec::with_capacity(n as usize);
    let mut late_us = Vec::with_capacity(n as usize);
    let start = Instant::now();
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let r = requests.next_request();
        let outcome = client.get_route(r.tenant, r.bytes).and_then(|d| {
            let nanos = service.busy_ns(d.backend, r.bytes, false);
            client.report_served(d.backend as u8, r.bytes, nanos)
        });
        let done = Instant::now();
        res.attempted += 1;
        if let Err(e) = outcome {
            res.failed += 1;
            res.errors.push(format!("open loop: request {i}: {e}"));
            return None;
        }
        late_us.push((sent - due).as_secs_f64() * 1e6);
        latency_us.push((done - due).as_secs_f64() * 1e6);
    }
    let stats = client.snapshot_stats().unwrap_or_default();
    *rss = rss.max(daemon.rss_mb());
    let stopped = daemon.stop(&mut client);
    res.check(stopped.is_ok(), || {
        format!("open loop: {}", stopped.err().unwrap_or_default())
    });
    let decisions = sample(&stats, "dapd_decisions_total").unwrap_or(-1.0);
    res.check(decisions == n as f64, || {
        format!("open loop: dapd_decisions_total {decisions} != {n} requests")
    });
    // A backlog shows as lateness that keeps growing; a transient stall
    // recovers within the run. Judge by the median of the final tenth.
    let tail = &late_us[late_us.len() - late_us.len() / 10..];
    let tail_late_ms = Stat::median(tail).value / 1e3;
    res.check(tail_late_ms <= 2.0, || {
        format!("open loop: backlog, final-tenth median lateness {tail_late_ms:.2} ms")
    });
    Some(OpenLoop {
        latency_us,
        late_us,
    })
}

/// Per-call costs from replaying one closed pass in-process.
struct Replay {
    digest: u64,
    encode_ns: f64,
    decode_ns: f64,
    route_ns: f64,
    report_ns: f64,
    resolve_route_ns: f64,
    resolves: u64,
}

/// Replays one closed pass's requests and reports against an in-process
/// [`Engine`] (every call timed, less the clock floor), then encodes and
/// decodes the pass's four frames per decision. The decisions must
/// match the daemon's, and every frame must decode to itself.
fn replay(seed: u64, cost: &ProbeCost, res: &mut WorkloadResult) -> Replay {
    let mut engine =
        Engine::new(EngineConfig::hbm_ddr4_pair()).expect("the stock engine config is valid");
    let mut requests = stream(seed);
    let mut service = Service::new();
    let mut digest = Fnv::default();
    let mut frames = Vec::with_capacity(4 * CLOSED_DECISIONS as usize);
    let (mut route_ns, mut report_ns, mut resolve_ns) = (0.0, 0.0, 0.0);
    let mut resolves = 0u64;
    for i in 0..CLOSED_DECISIONS {
        let r = requests.next_request();
        let window = engine.window_seq();
        let t0 = Instant::now();
        let d = engine.route(r.tenant, r.bytes);
        let t1 = Instant::now();
        let d = d.expect("the stream's tenants exist in the stock engine");
        let nanos = service.busy_ns(d.backend, r.bytes, i >= CLOSED_DECISIONS / 2);
        let t2 = Instant::now();
        let reported = engine.report_served(d.backend as u8, r.bytes, nanos);
        let t3 = Instant::now();
        reported.expect("the engine's own backends accept reports");
        let route_span = (t1 - t0).as_nanos() as f64 - cost.floor_ns;
        if engine.window_seq() != window {
            resolves += 1;
            resolve_ns += route_span;
        } else {
            route_ns += route_span;
        }
        report_ns += (t3 - t2).as_nanos() as f64 - cost.floor_ns;
        digest.eat(d.backend as u64);
        digest.eat(u64::from(d.window));
        frames.push(Message::GetRoute {
            tenant: r.tenant,
            bytes: r.bytes,
        });
        frames.push(Message::Route {
            source: d.backend as u8,
            window: d.window,
        });
        frames.push(Message::ReportServed {
            source: d.backend as u8,
            bytes: r.bytes,
            latency_ns: nanos,
        });
        frames.push(Message::Ack);
    }
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let decoded: Vec<_> = encoded.iter().map(|f| decode_frame(f)).collect();
    let decode_s = t0.elapsed().as_secs_f64();
    let intact = decoded
        .iter()
        .zip(&frames)
        .zip(&encoded)
        .all(|((d, m), f)| matches!(d, Ok((back, used)) if back == m && *used == f.len()));
    res.check(intact, || {
        "wire replay: a frame did not decode to itself".to_string()
    });
    let n = CLOSED_DECISIONS as f64;
    let per_frame = 1e9 / frames.len() as f64;
    Replay {
        digest: digest.finish(),
        encode_ns: encode_s * per_frame,
        decode_ns: decode_s * per_frame,
        route_ns: route_ns.max(0.0) / (n - resolves as f64).max(1.0),
        report_ns: report_ns.max(0.0) / n,
        resolve_route_ns: resolve_ns.max(0.0) / (resolves.max(1) as f64),
        resolves,
    }
}

/// Runs the dapd workload: daemon start-ups for `setup_s`, closed-loop
/// passes for half of `opts.seconds` (every other one traced, when
/// tracing), the open loop for the other half, and the in-process replay.
pub fn run_daemon(name: &str, opts: &Opts) -> WorkloadResult {
    let mut res = WorkloadResult::new(name);
    let socket = opts.scratch.join("dapd.sock");
    let mut setup = Vec::new();
    let mut daemon_rss = 0.0f64;
    for _ in 0..SETUP_ROUNDS {
        match Daemon::start(opts, &socket) {
            Ok((daemon, mut client, s)) => {
                setup.push(s);
                daemon_rss = daemon_rss.max(daemon.rss_mb());
                let stopped = daemon.stop(&mut client);
                res.check(stopped.is_ok(), || stopped.err().unwrap_or_default());
            }
            Err(e) => res.check(false, || format!("daemon start-up: {e}")),
        }
    }

    let start = Instant::now();
    let (mut passes, mut traced): (Vec<ClosedPass>, Vec<ClosedPass>) = (Vec::new(), Vec::new());
    let closed = Opts {
        seconds: opts.seconds / 2.0,
        ..opts.clone()
    };
    while more_passes(&closed, start, passes.len(), traced.len()) {
        let tracing = trace_next(opts, passes.len(), traced.len());
        let pass = closed_pass(
            opts,
            &socket,
            tracing,
            &mut res,
            &mut setup,
            &mut daemon_rss,
        );
        let Some(p) = pass else {
            break;
        };
        if let Some(first) = passes.first() {
            let n = passes.len() + traced.len() + 1;
            res.check(p.digest == first.digest, || {
                format!("closed pass {n}: decisions differ from pass 1")
            });
        }
        if tracing {
            traced.push(p);
        } else {
            passes.push(p);
        }
    }
    let open = open_loop(
        opts,
        &socket,
        opts.seconds / 2.0,
        &mut res,
        &mut setup,
        &mut daemon_rss,
    );
    let rep = replay(opts.seed, &opts.cost, &mut res);
    if let Some(first) = passes.first() {
        res.check(rep.digest == first.digest, || {
            "in-process engine replay decided differently from the daemon".to_string()
        });
        res.digest = format!("{:016x}", first.digest);
    }
    res.passes = passes.len() as u64;

    // Every closed pass sends the same decisions, so decision i's round
    // trip is the lower quartile of its repetitions, and a host stall
    // costs one repetition of a few decisions rather than a tail.
    let loop_s = Stat::lower_quartile(&passes.iter().map(|p| p.loop_s).collect::<Vec<_>>());
    let rate: Vec<f64> = passes
        .iter()
        .map(|p| CLOSED_DECISIONS as f64 / p.loop_s)
        .collect();
    let rtt: Vec<f64> = (0..CLOSED_DECISIONS as usize)
        .map(|i| {
            let reps: Vec<f64> = passes.iter().map(|p| p.rtt_us[i]).collect();
            Stat::lower_quartile(&reps).value
        })
        .collect();
    res.set_end_to_end(
        "throughput_per_s",
        Stat {
            value: CLOSED_DECISIONS as f64 / loop_s.value,
            ..Stat::median(&rate)
        },
    );
    res.set_end_to_end("latency_p50_us", Stat::quantile(&rtt, 0.5));
    res.set_end_to_end("latency_p99_us", Stat::quantile(&rtt, 0.99));
    res.set_end_to_end("setup_s", Stat::median(&setup));
    res.set_end_to_end(
        "peak_rss_mb",
        Stat::median(&[vm_hwm_mb("/proc/self/status") + daemon_rss]),
    );

    if opts.traced {
        let loop_s = |ps: &[ClosedPass]| ps.iter().map(|p| p.loop_s).collect::<Vec<_>>();
        // The traced passes add one clock read per decision.
        let probe_s = CLOSED_DECISIONS as f64 * opts.cost.now_ns / 1e9;
        set_trace_layers(&mut res, &loop_s(&passes), &loop_s(&traced), probe_s);
        let mut sorted = rtt.clone();
        sorted.sort_by(f64::total_cmp);
        let stats = passes.last().map_or("", |p| p.stats.as_str());
        let decision_p50 = histogram_quantile(stats, "dapd_decision_ns", 0.5);
        res.set_layer("dapd.rtt_p999_us", nearest_rank(&sorted, 0.999));
        res.set_layer(
            "dapd.rtt_samples",
            passes.iter().map(|p| p.rtt_us.len()).sum::<usize>() as f64,
        );
        res.set_layer("dapd.server.decision_p50_ns", decision_p50);
        res.set_layer(
            "dapd.server.decision_p99_ns",
            histogram_quantile(stats, "dapd_decision_ns", 0.99),
        );
        res.set_layer("dapd.wire.encode_ns", rep.encode_ns);
        res.set_layer("dapd.wire.decode_ns", rep.decode_ns);
        res.set_layer("dapd.engine.route_ns", rep.route_ns);
        res.set_layer("dapd.engine.report_ns", rep.report_ns);
        res.set_layer("dapd.engine.resolve_route_ns", rep.resolve_route_ns);
        res.set_layer("dapd.engine.resolves", rep.resolves as f64);
        // Per decision the client and the daemon each encode and decode
        // two frames; the daemon's own work is the timed GetRoute plus
        // the report it applies.
        let rtt_p50_ns = nearest_rank(&sorted, 0.5) * 1e3;
        let known = decision_p50 + rep.report_ns + 4.0 * (rep.encode_ns + rep.decode_ns);
        res.set_layer(
            "dapd.socket_share",
            if rtt_p50_ns > 0.0 {
                1.0 - known / rtt_p50_ns
            } else {
                0.0
            },
        );
        let all = || passes.iter().chain(&traced);
        res.set_layer("dapd.rejects", all().map(|p| p.rejects).sum());
        res.set_layer(
            "dapd.reconnects",
            all().map(|p| p.reconnects).sum::<u64>() as f64,
        );
        res.set_layer(
            "dapd.indeterminate_reports",
            all().map(|p| p.indeterminate).sum::<u64>() as f64,
        );
        if let Some(open) = &open {
            let on_time = open.late_us.iter().filter(|&&l| l <= ON_TIME_US).count();
            res.set_layer(
                "dapd.open.p99_us",
                Stat::quantile(&open.latency_us, 0.99).value,
            );
            res.set_layer("dapd.open.samples", open.latency_us.len() as f64);
            res.set_layer(
                "dapd.open.late_max_ms",
                open.late_us.iter().copied().fold(0.0, f64::max) / 1e3,
            );
            res.set_layer(
                "dapd.open.on_time_ratio",
                on_time as f64 / open.late_us.len().max(1) as f64,
            );
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = "# TYPE dapd_decisions_total counter\n\
        dapd_decisions_total 40000\n\
        dapd_routed_bytes_total{backend=\"ddr4\"} 100\n\
        dapd_routed_bytes_total{backend=\"hbm\"} 300\n\
        dapd_weight_ppm{backend=\"hbm\"} 400000\n\
        dapd_decision_ns_bucket{le=\"1\"} 0\n\
        dapd_decision_ns_bucket{le=\"2\"} 0\n\
        dapd_decision_ns_bucket{le=\"4\"} 50\n\
        dapd_decision_ns_bucket{le=\"8\"} 100\n\
        dapd_decision_ns_bucket{le=\"+Inf\"} 100\n\
        dapd_decision_ns_sum 500\n\
        dapd_decision_ns_count 100\n";

    #[test]
    fn exposition_samples_sums_and_quantiles_parse() {
        assert_eq!(sample(STATS, "dapd_decisions_total"), Some(40_000.0));
        assert_eq!(
            sample(STATS, "dapd_weight_ppm{backend=\"hbm\"}"),
            Some(400_000.0)
        );
        assert_eq!(sample(STATS, "dapd_decisions"), None);
        assert_eq!(family_sum(STATS, "dapd_routed_bytes_total"), 400.0);
        assert_eq!(family_sum(STATS, "dapd_served_bytes_total"), 0.0);
        // The median sits at the top of the (2, 4] bucket; the 75th
        // percentile halfway through (4, 8].
        assert_eq!(histogram_quantile(STATS, "dapd_decision_ns", 0.5), 4.0);
        assert_eq!(histogram_quantile(STATS, "dapd_decision_ns", 0.75), 6.0);
        assert_eq!(histogram_quantile("", "dapd_decision_ns", 0.5), 0.0);
    }

    #[test]
    fn replay_is_deterministic_and_frames_round_trip() {
        let cost = ProbeCost::calibrate();
        let mut res = WorkloadResult::new("dapd-socket");
        let a = replay(7, &cost, &mut res);
        let b = replay(7, &cost, &mut res);
        assert!(res.correct(), "{:?}", res.errors);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, replay(8, &cost, &mut res).digest);
        assert!(a.resolves > 0);
    }
}
