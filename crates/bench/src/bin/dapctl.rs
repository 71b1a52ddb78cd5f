//! `dapctl` — command-line driver for ad-hoc simulations.
//!
//! ```text
//! dapctl list
//!     List the benchmark clones and their parameters.
//! dapctl run <benchmark> [--policy <baseline|dap|ta-dap|sbd|sbd-wt|batman>]
//!            [--cores N] [--arch <sectored|alloy|edram>] [--instructions N]
//!     Run one rate-N workload and print the full statistics.
//! dapctl record <benchmark> <file> [--ops N]
//!     Record a clone's access trace to a DAPTRACE file.
//! dapctl replay <file> [--cores N] [--policy ...] [--instructions N]
//!     Drive every core with a recorded trace.
//! dapctl trace <benchmark> [--policy <dap|ta-dap>] [--cores N] [--arch A]
//!              [--instructions N] [--out DIR]
//!     Run one workload with per-window DAP tracing: print the human
//!     summary and write versioned JSONL + CSV window-trace artifacts.
//! dapctl trace summarize <file> [--lenient-ok]
//!     Read a window-trace artifact (JSONL or CSV) leniently and print
//!     its human summary. Corrupt record lines are skipped with a
//!     `N records unparseable` warning and exit status 4 — pass
//!     --lenient-ok to accept partial artifacts with exit 0.
//! dapctl serve [--socket PATH | --tcp ADDR] [--resolve-every N]
//!              [--max-conns N] [--deadline-ms MS] [--metrics-addr ADDR]
//!              [--flight-dump PATH]
//!     Run the dapd partitioning daemon on a Unix socket (default
//!     target/dapd.sock) or TCP address, with the stock two-backend
//!     (HBM + DDR4) two-tenant configuration. Runs until a client sends
//!     Shutdown (`dapctl loadgen --shutdown` does). Beyond --max-conns
//!     concurrent connections (default 64) new peers are shed with
//!     `Reject(Overloaded)`; a peer that stalls longer than
//!     --deadline-ms (default 5000) is disconnected. A stale socket
//!     file left by a crashed daemon is probed and reclaimed; a live
//!     daemon's socket is never stolen. With --metrics-addr (e.g.
//!     127.0.0.1:0), an ops HTTP endpoint serves GET /metrics
//!     (Prometheus text), /healthz, /varz (JSON operator snapshot), and
//!     /debug/flight (flight-recorder JSONL). The flight ring is dumped
//!     to --flight-dump (default target/dapd-flight.jsonl) on SIGUSR1,
//!     on panic, and when the reject rate spikes.
//! dapctl top <addr> [--interval-ms MS] [--iterations N]
//!     Live operator view of a serving daemon: polls /varz on the ops
//!     endpoint every --interval-ms (default 1000) and renders tenant ×
//!     backend fractions, decisions/s, windows/s, shed rate, and p99
//!     decision latency to stderr (in-place rewrite on a TTY, plain
//!     lines otherwise / under DAP_QUIET=1). --iterations N exits after
//!     N polls (CI); default runs until the endpoint goes away.
//! dapctl scrape <target> [--path P] [--check]
//!     Fetch an ops endpoint (target host:port, path default /metrics)
//!     or read a local file, print the body to stdout. With --check,
//!     validate it: Prometheus expositions go through the in-tree
//!     format checker, flight dumps (first line schema "dap-flight")
//!     through the flight parser; invalid input exits 4.
//! dapctl loadgen [--socket PATH | --tcp ADDR] [--requests N]
//!                [--bench B] [--throttle-after N] [--throttle-factor F]
//!                [--retries N] [--shutdown]
//!     Drive a running daemon with a workload-clone-shaped request
//!     stream: route every request, report synthetic service at nominal
//!     rate (optionally throttling backend 0 by --throttle-factor after
//!     --throttle-after requests), print the routed split and final
//!     stats. With --retries N (default 0: fail fast), each call is
//!     retried up to N times with jittered exponential backoff and the
//!     run rides through daemon restarts and sheds, reporting how many
//!     calls were lost. --shutdown stops the daemon afterwards.
//! dapctl explore [--grid <smoke|std>] [--workers N] [--out DIR]
//!                [--instructions N] [--ttl-ms MS] [--poison-k K]
//!                [--max-restarts N] [--metrics-addr ADDR]
//!     Explore a named design-space grid with N crash-tolerant worker
//!     processes coordinating through a lease log in --out (default
//!     target/explore). Workers that crash are restarted with backoff
//!     (up to --max-restarts per slot); leases left by dead workers
//!     expire after --ttl-ms and are stolen by survivors; a cell that
//!     fails --poison-k times fleet-wide is quarantined. Afterwards the
//!     per-worker manifests are merged (duplicate completions must be
//!     bit-identical), `merged.ckpt` + `fleet.prom` are written, and
//!     the per-mix Pareto frontier (speedup vs DRAM-cache capacity vs
//!     energy proxy) is printed. Exit 1 if any cell is missing or
//!     manifests diverge. Re-running resumes from the same --out.
//!     While the fleet runs, `fleet.prom` is rewritten atomically about
//!     once a second from the live lease log (and deleted if the merge
//!     hard-fails, so a stale file can't masquerade as a result); with
//!     --metrics-addr the same live exposition is served over HTTP
//!     (GET /metrics, /healthz) for mid-run scraping.
//! ```
//!
//! All subcommands also accept `--threads N` (worker threads for any
//! parallel experiment machinery; overrides `DAP_THREADS`).

use std::sync::Arc;

use dap_telemetry::accept::Acceptor;
use dap_telemetry::{MetricsRegistry, OpsRouter, TraceMeta, WindowTraceRecorder};
use experiments::runner::{build_policy, PolicyKind};
use mem_sim::trace::TraceSource;
use mem_sim::{SubsystemTelemetry, System, SystemConfig};
use workloads::{rate_mode, spec, TraceFile};

const HELP: &str = "\
dapctl — driver for the DAP reproduction: simulations, traces, explorer, daemon

subcommands:
  list                       List the benchmark clones and their parameters.
  run <bench>                Run one rate-N workload and print statistics.
  record <bench> <file>      Record a clone's access trace to a DAPTRACE file.
  replay <file>              Drive every core with a recorded trace.
  trace <bench>              Run with per-window DAP tracing; write artifacts.
  trace summarize <file>     Summarize a window-trace artifact leniently.
  explore                    Explore a design-space grid with a crash-
                             tolerant multi-process worker fleet.
  serve                      Run the dapd partitioning daemon on a socket.
  loadgen                    Drive a running dapd daemon with clone traffic.
  top <addr>                 Live operator view of a serving daemon's /varz.
  scrape <target>            Fetch an ops endpoint or file; --check validates.
  help                       Show this message.

common flags:
  --policy P     baseline|dap|ta-dap|sbd|sbd-wt|batman   --cores N
  --arch A       sectored|alloy|edram                    --instructions N
  --ops N        --out DIR   --threads N   --audit[=strict|observe|off]

explore flags:
  --grid <smoke|std>   --workers N   --ttl-ms MS   --poison-k K
  --max-restarts N   --metrics-addr ADDR

daemon flags (serve/loadgen):
  --socket PATH   --tcp ADDR   --resolve-every N   --requests N   --bench B
  --throttle-after N   --throttle-factor F   --shutdown
  --max-conns N   --deadline-ms MS   --retries N
  --metrics-addr ADDR   --flight-dump PATH

ops flags (top/scrape):
  --interval-ms MS   --iterations N   --path P   --check

exit codes: 0 ok, 2 usage, 4 artifact parse errors, 5 unknown subcommand,
130 interrupted
";

fn usage() -> ! {
    eprint!("{HELP}");
    std::process::exit(2);
}

/// Exit status for a subcommand `dapctl` does not know. Distinct from
/// general usage errors (2) so scripts can tell a typo'd subcommand from
/// a malformed flag.
const EXIT_UNKNOWN_SUBCOMMAND: i32 = 5;

/// Exit status when `trace summarize` skipped unparseable records and
/// `--lenient-ok` was not given. Distinct from usage errors (2).
const EXIT_PARSE_ERRORS: i32 = 4;

struct Args {
    positional: Vec<String>,
    policy: Option<PolicyKind>,
    cores: usize,
    arch: String,
    instructions: Option<u64>,
    ops: u64,
    out: Option<String>,
    lenient_ok: bool,
    socket: Option<String>,
    tcp: Option<String>,
    resolve_every: u32,
    requests: u64,
    bench_clone: String,
    throttle_after: Option<u64>,
    throttle_factor: f64,
    shutdown: bool,
    max_conns: usize,
    deadline_ms: u64,
    retries: u32,
    grid: String,
    workers: u32,
    ttl_ms: u64,
    poison_k: u32,
    max_restarts: u32,
    worker_id: Option<u32>,
    incarnation: u32,
    metrics_addr: Option<String>,
    flight_dump: Option<String>,
    interval_ms: u64,
    iterations: Option<u64>,
    scrape_path: String,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        positional: Vec::new(),
        policy: None,
        cores: 8,
        arch: "sectored".to_string(),
        instructions: None,
        ops: 100_000,
        out: None,
        lenient_ok: false,
        socket: None,
        tcp: None,
        resolve_every: 64,
        requests: 10_000,
        bench_clone: "mcf".to_string(),
        throttle_after: None,
        throttle_factor: 0.25,
        shutdown: false,
        max_conns: 64,
        deadline_ms: 5_000,
        retries: 0,
        grid: "std".to_string(),
        workers: 4,
        ttl_ms: 2_000,
        poison_k: 3,
        max_restarts: 2,
        worker_id: None,
        incarnation: 1,
        metrics_addr: None,
        flight_dump: None,
        interval_ms: 1_000,
        iterations: None,
        scrape_path: "/metrics".to_string(),
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--policy" => {
                args.policy = Some(match value("--policy").as_str() {
                    "baseline" => PolicyKind::Baseline,
                    "dap" => PolicyKind::Dap,
                    "ta-dap" => PolicyKind::ThreadAwareDap,
                    "sbd" => PolicyKind::Sbd,
                    "sbd-wt" => PolicyKind::SbdWt,
                    "batman" => PolicyKind::Batman,
                    other => {
                        eprintln!("unknown policy {other}");
                        usage()
                    }
                })
            }
            "--cores" => args.cores = value("--cores").parse().unwrap_or_else(|_| usage()),
            "--arch" => args.arch = value("--arch"),
            "--instructions" => {
                args.instructions =
                    Some(value("--instructions").parse().unwrap_or_else(|_| usage()))
            }
            "--ops" => args.ops = value("--ops").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value("--out")),
            "--lenient-ok" => args.lenient_ok = true,
            "--socket" => args.socket = Some(value("--socket")),
            "--tcp" => args.tcp = Some(value("--tcp")),
            "--resolve-every" => {
                args.resolve_every = value("--resolve-every").parse().unwrap_or_else(|_| usage())
            }
            "--requests" => args.requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--bench" => args.bench_clone = value("--bench"),
            "--throttle-after" => {
                args.throttle_after = Some(
                    value("--throttle-after")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--throttle-factor" => {
                args.throttle_factor = value("--throttle-factor")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--shutdown" => args.shutdown = true,
            "--max-conns" => {
                args.max_conns = value("--max-conns").parse().unwrap_or_else(|_| usage())
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms").parse().unwrap_or_else(|_| usage())
            }
            "--retries" => args.retries = value("--retries").parse().unwrap_or_else(|_| usage()),
            "--grid" => args.grid = value("--grid"),
            "--workers" => args.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--ttl-ms" => args.ttl_ms = value("--ttl-ms").parse().unwrap_or_else(|_| usage()),
            "--poison-k" => args.poison_k = value("--poison-k").parse().unwrap_or_else(|_| usage()),
            "--max-restarts" => {
                args.max_restarts = value("--max-restarts").parse().unwrap_or_else(|_| usage())
            }
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")),
            "--flight-dump" => args.flight_dump = Some(value("--flight-dump")),
            "--interval-ms" => {
                args.interval_ms = value("--interval-ms").parse().unwrap_or_else(|_| usage())
            }
            "--iterations" => {
                args.iterations = Some(value("--iterations").parse().unwrap_or_else(|_| usage()))
            }
            "--path" => args.scrape_path = value("--path"),
            "--check" => args.check = true,
            // Internal: `explore` re-invokes itself with these to run as
            // one worker of the fleet. Not in the help text on purpose.
            "--worker-id" => {
                args.worker_id = Some(value("--worker-id").parse().unwrap_or_else(|_| usage()))
            }
            "--incarnation" => {
                args.incarnation = value("--incarnation").parse().unwrap_or_else(|_| usage())
            }
            "--threads" => {
                let v = value("--threads");
                dap_bench::cli::apply_threads("dapctl", Some(&v));
            }
            "--audit" => dap_core::audit::set_mode_override(Some(dap_core::AuditMode::Strict)),
            other if other.starts_with("--audit=") => {
                let mode = dap_core::audit::parse_mode(&other["--audit=".len()..]);
                dap_core::audit::set_mode_override(Some(mode));
            }
            _ => args.positional.push(a),
        }
    }
    args
}

fn policy_for(kind: PolicyKind, config: &SystemConfig) -> Box<dyn mem_sim::Partitioner> {
    build_policy(kind, config).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn config_for(arch: &str, cores: usize) -> SystemConfig {
    match arch {
        "sectored" => SystemConfig::sectored_dram_cache(cores),
        "alloy" => SystemConfig::alloy_cache(cores),
        "edram" => SystemConfig::edram_cache(cores, 256),
        other => {
            eprintln!("unknown architecture {other}");
            usage()
        }
    }
}

fn print_result(r: &mem_sim::RunResult) {
    let s = &r.stats;
    println!("total IPC            {:.4}", r.total_ipc());
    println!("L3 MPKI              {:.1}", r.l3_mpki());
    println!("MS$ hit ratio        {:.4}", s.ms_hit_ratio());
    println!(
        "MM CAS fraction      {:.4}  (sectored/eDRAM optimum 0.27, Alloy 0.36)",
        s.mm_cas_fraction()
    );
    println!("avg read latency     {:.0} cycles", s.avg_read_latency());
    println!("tag-cache miss ratio {:.4}", s.tag_cache_miss_ratio());
    println!(
        "fills {} (bypassed {})  WB {}  IFRM {}  SFRM {} (wasted {})  WT {}",
        s.fills,
        s.fills_bypassed,
        s.writes_bypassed,
        s.forced_read_misses,
        s.speculative_forced,
        s.speculative_wasted,
        s.write_throughs
    );
    if let Some(d) = r.dap_decisions {
        let [fwb, wb, ifrm, sfrm] = d.mix();
        println!(
            "DAP: {} decisions (FWB {:.0}% WB {:.0}% IFRM {:.0}% SFRM {:.0}%), partitioned {}/{} windows",
            d.total_decisions(),
            fwb * 100.0,
            wb * 100.0,
            ifrm * 100.0,
            sfrm * 100.0,
            d.windows_partitioned,
            d.windows_total
        );
    }
    for (i, core) in r.per_core.iter().enumerate() {
        println!(
            "core {i:2}: {} instructions, {} cycles, IPC {:.3}",
            core.instructions,
            core.cycles,
            core.ipc()
        );
    }
}

fn main() {
    dap_bench::cli::run_interruptible("dapctl", || {
        let args = parse_args();
        match args.positional.first().map(String::as_str) {
            Some("list") => {
                println!(
                    "{:<16} {:>9} {:>5} {:>7} {:>7} {:>8} {:>5} sensitivity",
                    "benchmark", "paper-MB", "gap", "writes", "chase", "streams", "hot"
                );
                for s in workloads::all_specs() {
                    println!(
                        "{:<16} {:>9} {:>5} {:>6.0}% {:>6.0}% {:>8} {:>4.0}% {:?}",
                        s.name,
                        s.footprint_mb,
                        s.gap_mean,
                        s.write_fraction * 100.0,
                        s.chase_fraction * 100.0,
                        s.streams,
                        s.hot_fraction * 100.0,
                        s.sensitivity
                    );
                }
            }
            Some("run") => {
                let bench = args
                    .positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage());
                let spec = spec(bench).unwrap_or_else(|| {
                    eprintln!("unknown benchmark {bench} (try `dapctl list`)");
                    std::process::exit(2);
                });
                let kind = args.policy.unwrap_or(PolicyKind::Baseline);
                let config = config_for(&args.arch, args.cores);
                let policy = policy_for(kind, &config);
                let mut sys = System::with_policy(config, rate_mode(spec, args.cores), policy);
                let r = sys.run(args.instructions.unwrap_or(400_000));
                println!(
                    "{bench} rate-{} on {} with {kind:?}:",
                    args.cores, args.arch
                );
                print_result(&r);
            }
            Some("record") => {
                let bench = args
                    .positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage());
                let file = args.positional.get(2).unwrap_or_else(|| usage());
                let spec = spec(bench).unwrap_or_else(|| usage());
                let mut src = workloads::CloneTrace::new(spec, 0x1000_0000, 0);
                workloads::record(&mut src, args.ops, file).unwrap_or_else(|e| {
                    eprintln!("error: cannot record trace to {file}: {e}");
                    std::process::exit(1);
                });
                println!("recorded {} operations of {bench} to {file}", args.ops);
            }
            Some("replay") => {
                let file = args.positional.get(1).unwrap_or_else(|| usage());
                let kind = args.policy.unwrap_or(PolicyKind::Baseline);
                let config = config_for(&args.arch, args.cores);
                let policy = policy_for(kind, &config);
                let traces: Vec<Box<dyn TraceSource>> = (0..args.cores)
                    .map(|_| {
                        Box::new(TraceFile::open(file).unwrap_or_else(|e| {
                            eprintln!("error: cannot load trace {file}: {e}");
                            std::process::exit(1);
                        })) as Box<dyn TraceSource>
                    })
                    .collect();
                let mut sys = System::with_policy(config, traces, policy);
                let r = sys.run(args.instructions.unwrap_or(400_000));
                println!("replay of {file} on {} cores with {kind:?}:", args.cores);
                print_result(&r);
            }
            Some("trace") => {
                let bench = args
                    .positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage());
                if bench == "summarize" {
                    let file = args.positional.get(2).unwrap_or_else(|| usage());
                    summarize_artifact(file, args.lenient_ok);
                    return;
                }
                let spec = spec(bench).unwrap_or_else(|| {
                    eprintln!("unknown benchmark {bench} (try `dapctl list`)");
                    std::process::exit(2);
                });
                // Tracing needs a DAP controller to trace; default to full DAP.
                let kind = args.policy.unwrap_or(PolicyKind::Dap);
                if !matches!(kind, PolicyKind::Dap | PolicyKind::ThreadAwareDap) {
                    eprintln!(
                        "error: `dapctl trace` records the DAP controller's window \
                         decisions; --policy must be dap or ta-dap, not {kind:?}"
                    );
                    std::process::exit(2);
                }
                if !dap_telemetry::enabled() {
                    eprintln!(
                        "error: this binary was built with --features telemetry-off; \
                         rebuild without it to record traces"
                    );
                    std::process::exit(2);
                }
                let config = config_for(&args.arch, args.cores);
                let policy = policy_for(kind, &config);
                let mut sys = System::with_policy(config, rate_mode(spec, args.cores), policy);
                let recorder = Arc::new(WindowTraceRecorder::new(1 << 16));
                sys.attach_dap_sink(recorder.clone());
                let registry = MetricsRegistry::new();
                sys.attach_telemetry(SubsystemTelemetry::new(&registry));
                let r = sys.run(args.instructions.unwrap_or(400_000));
                // Profile rollups must be read before `take()` clears
                // both recorder rings.
                let profile = recorder.profile_windows();
                let trace = recorder.take();
                let meta = TraceMeta {
                    label: format!("{bench}/rate-{}", args.cores),
                    arch: args.arch.clone(),
                    window_cycles: 64,
                };
                println!(
                    "{bench} rate-{} on {} with {kind:?}:",
                    args.cores, args.arch
                );
                print_result(&r);
                println!();
                print!("{}", dap_telemetry::summarize(&meta, &trace));
                print!("{}", dap_telemetry::summarize_profile_windows(&profile));
                let snapshot = registry.snapshot();
                if let Some(h) = snapshot.histograms.get("mem.read_latency") {
                    println!(
                        "demand read latency    mean {:.0} cycles over {} reads",
                        h.mean().unwrap_or(0.0),
                        h.count
                    );
                }
                let out = std::path::PathBuf::from(
                    args.out.as_deref().unwrap_or("target/telemetry/dapctl"),
                );
                // Benchmark names contain dots ("soplex.ref"): append the
                // extension instead of `with_extension`, which truncates.
                let stem = format!("{bench}-rate{}-{}", args.cores, args.arch);
                let jsonl = out.join(format!("{stem}.jsonl"));
                let csv = out.join(format!("{stem}.csv"));
                for result in [
                    dap_telemetry::export::write_window_trace_jsonl(&jsonl, &meta, &trace),
                    dap_telemetry::export::write_window_trace_csv(&csv, &meta, &trace),
                ] {
                    if let Err(e) = result {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
                println!();
                println!("artifacts:");
                println!("  {}", jsonl.display());
                println!("  {}", csv.display());
            }
            Some("help") => print!("{HELP}"),
            Some("explore") => explore(&args),
            Some("serve") => serve(&args),
            Some("loadgen") => loadgen(&args),
            Some("top") => top(&args),
            Some("scrape") => scrape(&args),
            Some(other) => {
                eprintln!("dapctl: unknown subcommand `{other}` (try `dapctl help`)");
                std::process::exit(EXIT_UNKNOWN_SUBCOMMAND);
            }
            None => usage(),
        }
    });
}

/// `dapctl explore`: a crash-tolerant multi-process design-space
/// exploration. With `--worker-id` (internal) this process *is* one
/// worker of the fleet; otherwise it supervises `--workers` child
/// processes (spawned as `current_exe() explore --worker-id I ...`),
/// then merges their manifests and reports the Pareto frontier.
fn explore(args: &Args) {
    let instructions = args.instructions.unwrap_or(40_000);
    let grid = experiments::explore_grid(&args.grid, instructions).unwrap_or_else(|| {
        eprintln!(
            "unknown grid {:?} (available: {})",
            args.grid,
            experiments::shard::grid_names().join(", ")
        );
        std::process::exit(2);
    });
    let out_dir = std::path::PathBuf::from(args.out.as_deref().unwrap_or("target/explore"));
    let cancel = experiments::global_cancel_token();

    if let Some(worker_id) = args.worker_id {
        // Worker mode: drain the grid, then exit. Interruption is
        // handled by run_interruptible's global token (exit 130).
        let summary = experiments::run_worker(&experiments::WorkerConfig {
            out_dir,
            worker_id,
            incarnation: args.incarnation,
            grid,
            ttl_ms: args.ttl_ms,
            quarantine_k: args.poison_k,
            cancel: cancel.clone(),
        })
        .unwrap_or_else(|e| {
            eprintln!("error: worker {worker_id}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "[w{worker_id}.{}] exit: {} completed, {} failed, {} abandoned",
            args.incarnation, summary.completed, summary.failed, summary.abandoned
        );
        return;
    }

    if args.workers == 0 {
        eprintln!("--workers must be at least 1");
        std::process::exit(2);
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot locate own binary: {e}");
        std::process::exit(1);
    });
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    });
    println!(
        "explore: grid {} ({} cells) with {} workers into {}",
        grid.name,
        grid.cells.len(),
        args.workers,
        out_dir.display()
    );
    let start = std::time::Instant::now();
    let supervisor = experiments::SupervisorConfig {
        workers: args.workers,
        max_restarts: args.max_restarts,
        ..experiments::SupervisorConfig::default()
    };
    let prom = out_dir.join("fleet.prom");
    let total_cells = grid.cells.len();
    // The live fleet exposition: the supervision tick rewrites
    // fleet.prom atomically about once a second from the lease log, and
    // the optional ops endpoint serves whatever the file last said — so
    // a scrape mid-run never sees a torn write.
    let fleet_log =
        experiments::LeaseLog::open(&out_dir.join("lease.log"), args.ttl_ms, args.poison_k).ok();
    let _fleet_ops = args.metrics_addr.as_deref().map(|addr| {
        let prom_path = prom.clone();
        let router: OpsRouter = Arc::new(move |path: &str| match path {
            "/metrics" => match std::fs::read_to_string(&prom_path) {
                Ok(text) => dap_telemetry::OpsResponse::ok_text(text),
                Err(_) => dap_telemetry::OpsResponse::ok_text(String::new()),
            },
            "/healthz" => dap_telemetry::OpsResponse::ok_text("ok\n".to_string()),
            _ => dap_telemetry::OpsResponse::not_found(),
        });
        serve_ops(addr, router, "explore: fleet metrics", "/metrics")
    });
    let mut last_prom = std::time::Instant::now() - std::time::Duration::from_secs(1);
    let outcome = experiments::supervise_with_tick(
        &supervisor,
        |worker_id, incarnation| {
            std::process::Command::new(&exe)
                .arg("explore")
                .arg("--out")
                .arg(&out_dir)
                .arg("--grid")
                .arg(&args.grid)
                .arg("--instructions")
                .arg(instructions.to_string())
                .arg("--ttl-ms")
                .arg(args.ttl_ms.to_string())
                .arg("--poison-k")
                .arg(args.poison_k.to_string())
                .arg("--worker-id")
                .arg(worker_id.to_string())
                .arg("--incarnation")
                .arg(incarnation.to_string())
                .spawn()
        },
        cancel,
        |fleet| {
            if last_prom.elapsed() < std::time::Duration::from_secs(1) {
                return;
            }
            last_prom = std::time::Instant::now();
            if let Some(log) = &fleet_log {
                if let Ok(snapshot) = log.snapshot() {
                    let text = experiments::live_fleet_exposition(&snapshot, total_cells, fleet);
                    if let Err(e) = write_atomic(&prom, &text) {
                        eprintln!("warning: cannot rewrite {}: {e}", prom.display());
                    }
                }
            }
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("error: fleet supervision failed: {e}");
        std::process::exit(1);
    });
    if cancel.is_cancelled() {
        // run_interruptible turns this into exit 130 with the resume hint.
        return;
    }
    let report =
        experiments::merge_worker_manifests(&out_dir, &grid, args.poison_k, outcome.restarts)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                // A failed merge means the fleet's results are suspect: a
                // stale live exposition must not outlive it and read as
                // healthy to a scraper.
                let _ = std::fs::remove_file(&prom);
                std::process::exit(1);
            });
    let merged = out_dir.join("merged.ckpt");
    for result in [
        experiments::write_merged_manifest(&report, &merged),
        write_atomic(&prom, &report.exposition()),
    ] {
        if let Err(e) = result {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "explore: fleet drained in {:.1}s ({} crashes, {} restarts, {} slots abandoned)",
        start.elapsed().as_secs_f64(),
        outcome.crashes,
        outcome.restarts,
        outcome.abandoned_slots
    );
    print!("{}", report.summary());
    let points = experiments::pareto_points(&report, &grid);
    print!("{}", experiments::pareto_report(&points));
    println!();
    println!("artifacts:");
    println!("  {}", merged.display());
    println!("  {}", prom.display());
    if !report.is_complete() {
        eprintln!(
            "error: {} cell(s) unaccounted for — re-run the same command to resume",
            report.missing.len()
        );
        std::process::exit(1);
    }
}

/// Default Unix socket path shared by `serve` and `loadgen`.
const DEFAULT_SOCKET: &str = "target/dapd.sock";

/// Default flight-recorder dump path for `serve`.
const DEFAULT_FLIGHT_DUMP: &str = "target/dapd-flight.jsonl";

/// Writes `text` to `path` atomically (same-directory tmp + rename), so
/// a concurrent reader sees either the old file or the new one, never a
/// torn write.
fn write_atomic(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Serves `router` on the ops endpoint `addr`, exiting on failure, and
/// prints `{what} on http://ADDR{path}` with the bound address.
fn serve_ops(addr: &str, router: OpsRouter, what: &str, path: &str) -> Acceptor {
    let ops = dap_telemetry::OpsServer::bind(addr)
        .and_then(|server| server.spawn(router))
        .unwrap_or_else(|e| {
            eprintln!("error: cannot start metrics endpoint {addr}: {e}");
            std::process::exit(1);
        });
    let bound = ops.addr().expect("the ops endpoint listens on TCP");
    println!("{what} on http://{bound}{path}");
    ops
}

/// `dapctl serve`: run the dapd daemon until a client asks it to stop.
fn serve(args: &Args) {
    let mut config = dapd::EngineConfig::hbm_ddr4_pair();
    config.resolve_every = args.resolve_every;
    let engine = dapd::Engine::new(config).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let flight_dump =
        std::path::PathBuf::from(args.flight_dump.as_deref().unwrap_or(DEFAULT_FLIGHT_DUMP));
    if let Some(parent) = flight_dump.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let deadline = std::time::Duration::from_millis(args.deadline_ms);
    let server_config = dapd::ServerConfig {
        read_deadline: deadline,
        write_deadline: deadline,
        max_connections: args.max_conns,
        flight_dump_path: Some(flight_dump.clone()),
        ..dapd::ServerConfig::default()
    };
    let path = args.socket.as_deref().unwrap_or(DEFAULT_SOCKET);
    let (bound, target) = match &args.tcp {
        Some(addr) => (dapd::Server::bind_tcp(addr, engine), addr.as_str()),
        None => {
            let socket = std::path::Path::new(path);
            if let Some(parent) = socket.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            // bind_unix probes an existing socket file: a stale one (crashed
            // daemon) is reclaimed, a live daemon's is left alone.
            (dapd::Server::bind_unix(socket, engine), path)
        }
    };
    let server = bound
        .and_then(|s| s.with_config(server_config))
        .unwrap_or_else(|e| {
            eprintln!("error: cannot bind {target}: {e}");
            std::process::exit(1);
        });
    match server.local_addr() {
        Some(addr) => println!("dapd listening on tcp {addr}"),
        None => println!("dapd listening on unix {path}"),
    }
    let handle = server.spawn().unwrap_or_else(|e| {
        eprintln!("error: cannot start acceptor: {e}");
        std::process::exit(1);
    });
    // Crash-safety: the flight ring is dumped on panic (hook) and on
    // SIGUSR1 (polled below), independent of anyone scraping.
    let flight = handle.with_engine(|e| Arc::clone(e.flight()));
    dap_telemetry::flight::install_panic_dump(Arc::clone(&flight), flight_dump.clone(), "dapd");
    dap_bench::sigint::install_usr1();
    let ops_router = dapd::ops_router(handle.ops_view());
    let _ops = args
        .metrics_addr
        .as_deref()
        .map(|addr| serve_ops(addr, ops_router, "dapd metrics", ""));
    // Wait for shutdown cooperatively instead of a blocking join, so
    // SIGUSR1 flight dumps and Ctrl-C both work while serving.
    let cancel = experiments::global_cancel_token();
    while !handle.stopping() {
        if cancel.is_cancelled() {
            handle.request_stop();
            break;
        }
        if dap_bench::sigint::take_usr1() {
            match flight.dump_to(&flight_dump, "dapd") {
                Ok(()) => eprintln!(
                    "dapd: SIGUSR1; flight ring dumped to {}",
                    flight_dump.display()
                ),
                Err(e) => eprintln!("dapd: SIGUSR1 flight dump failed: {e}"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    if let Err(e) = handle.join() {
        eprintln!("error: daemon exited abnormally: {e}");
        std::process::exit(1);
    }
    println!("dapd: clean shutdown");
}

/// `dapctl top`: poll a serving daemon's `/varz` and render a live
/// operator line — fractions vs the Eq. 4 ideal per backend, decision
/// and window rates, shed rate, p99 decision latency. On a TTY the line
/// rewrites in place (`\r`, like the grid progress reporter); piped or
/// under `DAP_QUIET=1` it prints one line per poll.
fn top(args: &Args) {
    use std::io::IsTerminal;

    let addr = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let addr = addr.strip_prefix("http://").unwrap_or(addr);
    let interval = std::time::Duration::from_millis(args.interval_ms.max(50));
    let timeout = std::time::Duration::from_secs(2);
    let quiet = std::env::var(experiments::progress::QUIET_ENV).is_ok_and(|v| v.trim() == "1");
    let tty = std::io::stderr().is_terminal() && !quiet;
    let mut prev: Option<(std::time::Instant, TopCounters)> = None;
    let mut consecutive_errors = 0u32;
    let mut polls = 0u64;
    loop {
        match dap_telemetry::http::http_get(addr, "/varz", timeout) {
            Ok((200, body)) => match dap_telemetry::json::parse(&body) {
                Ok(varz) => {
                    consecutive_errors = 0;
                    let line = render_top_line(&varz, &mut prev);
                    if tty {
                        eprint!("\r{line:<110}");
                    } else {
                        eprintln!("{line}");
                    }
                }
                Err(e) => {
                    consecutive_errors += 1;
                    eprintln!("top: unparseable /varz: {e}");
                }
            },
            Ok((status, _)) => {
                consecutive_errors += 1;
                eprintln!("top: /varz answered {status}");
            }
            Err(e) => {
                consecutive_errors += 1;
                eprintln!("top: {addr}: {e}");
            }
        }
        if consecutive_errors >= 3 {
            if tty {
                eprintln!();
            }
            eprintln!("top: endpoint gone (3 consecutive failures)");
            std::process::exit(1);
        }
        polls += 1;
        if args.iterations.is_some_and(|n| polls >= n) {
            if tty {
                eprintln!();
            }
            return;
        }
        std::thread::sleep(interval);
    }
}

/// The monotone counters `top` differentiates into rates.
#[derive(Clone, Copy)]
struct TopCounters {
    decisions: f64,
    resolves: f64,
    shed: f64,
}

fn counter_of(varz: &dap_telemetry::json::Json, name: &str) -> f64 {
    varz.get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// One `top` status line from a `/varz` snapshot; rates come from the
/// delta against the previous poll (dashes on the first).
fn render_top_line(
    varz: &dap_telemetry::json::Json,
    prev: &mut Option<(std::time::Instant, TopCounters)>,
) -> String {
    let now = std::time::Instant::now();
    let counters = TopCounters {
        decisions: counter_of(varz, "dapd_decisions_total"),
        resolves: counter_of(varz, "dapd_resolves_total"),
        shed: counter_of(varz, "dapd_shed_total"),
    };
    let rates = prev.replace((now, counters)).map(|(t0, old)| {
        let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
        (
            (counters.decisions - old.decisions) / dt,
            (counters.resolves - old.resolves) / dt,
            (counters.shed - old.shed) / dt,
        )
    });
    let mut line = match rates {
        Some((dec, win, shed)) => {
            format!("dapd | {dec:.0} dec/s | {win:.1} win/s | {shed:.1} shed/s")
        }
        None => format!(
            "dapd | {:.0} decisions | {:.0} windows | {:.0} shed",
            counters.decisions, counters.resolves, counters.shed
        ),
    };
    if let Some(p99) = varz.get("p99_decision_ns").and_then(|v| v.as_f64()) {
        line.push_str(&format!(" | p99 {:.1}us", p99 / 1_000.0));
    }
    if let Some(backends) = varz.get("backends").and_then(|b| b.as_arr()) {
        for backend in backends {
            let name = backend.get("name").and_then(|v| v.as_str()).unwrap_or("?");
            let frac = backend
                .get("fraction")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            let ideal = backend
                .get("ideal_fraction")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            line.push_str(&format!(" | {name} {frac:.3}/{ideal:.3}"));
        }
    }
    if let Some(tenants) = varz.get("tenants").and_then(|t| t.as_arr()) {
        for tenant in tenants {
            let name = tenant.get("name").and_then(|v| v.as_str()).unwrap_or("?");
            let reserved = tenant
                .get("reserved_remaining_bytes")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            line.push_str(&format!(" | {name} {:.0}M", reserved / 1e6));
        }
    }
    line
}

/// `dapctl scrape`: fetch one ops endpoint (or read a file), print the
/// body to stdout, and — with `--check` — validate it with the in-tree
/// checkers: Prometheus expositions through `check_exposition`, flight
/// dumps through `parse_flight_dump`, other JSON through the reader.
fn scrape(args: &Args) {
    let target = args.positional.get(1).unwrap_or_else(|| usage());
    let body = if std::path::Path::new(target).is_file() {
        std::fs::read_to_string(target).unwrap_or_else(|e| {
            eprintln!("error: cannot read {target}: {e}");
            std::process::exit(1);
        })
    } else {
        let stripped = target.strip_prefix("http://").unwrap_or(target);
        let (addr, path) = match stripped.split_once('/') {
            Some((a, p)) => (a, format!("/{p}")),
            None => (stripped, args.scrape_path.clone()),
        };
        let (status, body) =
            dap_telemetry::http::http_get(addr, &path, std::time::Duration::from_secs(5))
                .unwrap_or_else(|e| {
                    eprintln!("error: scrape {target}: {e}");
                    std::process::exit(1);
                });
        if status != 200 {
            eprintln!("error: scrape {target}{path}: HTTP {status}");
            std::process::exit(1);
        }
        body
    };
    print!("{body}");
    if !args.check {
        return;
    }
    let first = body.lines().next().unwrap_or("");
    let verdict = if first.trim_start().starts_with('{') {
        let is_flight = dap_telemetry::json::parse(first)
            .ok()
            .and_then(|meta| {
                meta.get("schema")
                    .and_then(|s| s.as_str().map(String::from))
            })
            .is_some_and(|schema| schema == dap_telemetry::flight::FLIGHT_SCHEMA);
        if is_flight {
            dap_telemetry::flight::parse_flight_dump(&body).map(|(dropped, events)| {
                format!("flight dump: {} events, {dropped} dropped", events.len())
            })
        } else {
            dap_telemetry::json::parse(&body).map(|_| "json document".to_string())
        }
    } else {
        dap_telemetry::check_exposition(&body).map(|()| {
            let families = body.lines().filter(|l| l.starts_with("# TYPE ")).count();
            format!("exposition: {families} families")
        })
    };
    match verdict {
        Ok(what) => eprintln!("scrape: OK ({what})"),
        Err(e) => {
            eprintln!("scrape: INVALID: {e}");
            std::process::exit(EXIT_PARSE_ERRORS);
        }
    }
}

/// `dapctl loadgen`: stream clone-shaped requests at a running daemon.
fn loadgen(args: &Args) {
    let spec = spec(&args.bench_clone).unwrap_or_else(|| {
        eprintln!("unknown benchmark {} (try `dapctl list`)", args.bench_clone);
        std::process::exit(2);
    });
    // --retries N: N retry attempts beyond the first try, jittered
    // exponential backoff, riding through restarts and sheds.
    let policy = if args.retries == 0 {
        dapd::RetryPolicy::none()
    } else {
        dapd::RetryPolicy {
            max_attempts: args.retries + 1,
            ..dapd::RetryPolicy::default()
        }
    };
    let mut client = if let Some(addr) = &args.tcp {
        dapd::Client::connect_tcp_with(addr, policy)
    } else {
        let path = args
            .socket
            .clone()
            .unwrap_or_else(|| DEFAULT_SOCKET.to_string());
        dapd::Client::connect_unix_with(std::path::Path::new(&path), policy)
    }
    .unwrap_or_else(|e| {
        eprintln!("error: cannot connect to daemon: {e}");
        std::process::exit(1);
    });
    // The stock daemon config: two tenants, nominal rates for synthetic
    // service-time reports.
    let stock = dapd::EngineConfig::hbm_ddr4_pair();
    let tenants = stock.tenants.len() as u16;
    let nominal: Vec<f64> = stock.backends.iter().map(|b| b.nominal_gbps).collect();
    let mut stream = workloads::RequestStream::from_spec(spec, tenants, 0xDA9D_10AD);
    let mut routed = vec![0u64; nominal.len()];
    // Fractional-nanosecond carry per backend: a 64-byte block takes
    // under a nanosecond at HBM rates, so truncating each report alone
    // would under-report busy time and the daemon would measure garbage.
    let mut carry_ns = vec![0.0f64; nominal.len()];
    let mut lost_routes = 0u64;
    let mut lost_reports = 0u64;
    let start = std::time::Instant::now();
    for i in 0..args.requests {
        let r = stream.next_request();
        let d = match client.get_route(r.tenant, r.bytes) {
            Ok(d) => d,
            Err(e) if args.retries > 0 => {
                // Retries exhausted: warn, skip the request, keep going —
                // a fault-tolerant loadgen finishes its run.
                eprintln!("warning: route request {i} lost: {e}");
                lost_routes += 1;
                continue;
            }
            Err(e) => {
                eprintln!("error: route request {i} failed: {e}");
                std::process::exit(1);
            }
        };
        routed[d.backend] += u64::from(r.bytes);
        // Synthetic service: the chosen backend delivers at nominal rate
        // — except a throttled backend 0, which delivers at
        // `--throttle-factor` of nominal from `--throttle-after` on.
        let mut rate = nominal[d.backend];
        if d.backend == 0 && args.throttle_after.is_some_and(|n| i >= n) {
            rate *= args.throttle_factor.clamp(0.0, 1.0);
        }
        if rate > 0.0 {
            // One byte per nanosecond is 1 GB/s, so ns = bytes / GB/s.
            carry_ns[d.backend] += f64::from(r.bytes) / rate;
            let nanos = carry_ns[d.backend] as u32;
            carry_ns[d.backend] -= f64::from(nanos);
            match client.report_served(d.backend as u8, r.bytes, nanos) {
                Ok(()) => {}
                Err(e) if args.retries > 0 => {
                    eprintln!("warning: served report {i} lost: {e}");
                    lost_reports += 1;
                }
                Err(e) => {
                    eprintln!("error: served report {i} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let total: u64 = routed.iter().sum::<u64>().max(1);
    println!(
        "loadgen: {} requests of {} in {:.2}s ({:.0} decisions/s)",
        args.requests,
        args.bench_clone,
        elapsed,
        args.requests as f64 / elapsed
    );
    if args.retries > 0 {
        println!(
            "  retry policy: {} reconnects, {} routes lost, {} reports lost \
             ({} indeterminate)",
            client.reconnects(),
            lost_routes,
            lost_reports,
            client.indeterminate_reports()
        );
    }
    for (i, (b, bytes)) in stock.backends.iter().zip(&routed).enumerate() {
        println!(
            "  backend {i} {:<6} {:>12} bytes  ({:.3} of total)",
            b.name,
            bytes,
            *bytes as f64 / total as f64
        );
    }
    let stats = client.snapshot_stats().unwrap_or_else(|e| {
        eprintln!("error: stats snapshot failed: {e}");
        std::process::exit(1);
    });
    print!("{stats}");
    if args.shutdown {
        client.shutdown().unwrap_or_else(|e| {
            eprintln!("error: shutdown failed: {e}");
            std::process::exit(1);
        });
        println!("loadgen: daemon acknowledged shutdown");
    }
}

/// `dapctl trace summarize`: reads a window-trace artifact leniently
/// (JSONL or CSV by extension) and prints the human digest. Unparseable
/// record lines are skipped with a warning; unless `--lenient-ok` is
/// given, they make the process exit with [`EXIT_PARSE_ERRORS`].
fn summarize_artifact(file: &str, lenient_ok: bool) {
    let path = std::path::Path::new(file);
    let parse_errors = if path.extension().is_some_and(|e| e == "csv") {
        match dap_telemetry::export::read_window_trace_csv_lenient(path) {
            Ok(recovered) => {
                // The lenient CSV reader reconstructs records only; the
                // window length lives in the JSONL twin's header.
                let meta = TraceMeta {
                    label: file.to_string(),
                    arch: String::new(),
                    window_cycles: 0,
                };
                let trace = dap_telemetry::WindowTrace {
                    records: recovered.records,
                    spilled: 0,
                    dropped: 0,
                };
                print!("{}", dap_telemetry::summarize(&meta, &trace));
                recovered.parse_errors
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match dap_telemetry::export::read_window_trace_jsonl_lenient(path) {
            Ok(recovered) => {
                print!("{}", dap_telemetry::summarize_recovered(&recovered));
                recovered.parse_errors
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    };
    if parse_errors > 0 {
        eprintln!("warning: {parse_errors} records unparseable");
        if !lenient_ok {
            std::process::exit(EXIT_PARSE_ERRORS);
        }
    }
}
