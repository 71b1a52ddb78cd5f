//! `dapbench` — seeded end-to-end and per-layer benchmark of the
//! simulator, the figure grid, and `dapd` over a real socket.
//!
//! ```text
//! dapbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1 | --traced]
//!          [--json PATH]
//! ```
//!
//! Each workload runs in a fresh child process (so peak RSS is per
//! workload), pinned to the last allowed CPU when `taskset` works and
//! two or more CPUs are allowed; the `dapd` daemon child is pinned to the
//! first. Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics, or per-layer ones when
//! traced). The exit status is 0 only when every correctness check held.
//! See README.md in this directory for the workloads and metrics.

mod daemon;
mod probe;
mod report;
mod sim;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use dap_telemetry::json::{obj, Json};

use crate::probe::ProbeCost;
use crate::report::{result_line, Stat, WorkloadResult, END_TO_END};

/// Fewest timed passes a workload makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// The workloads, in the order a full run executes them.
const WORKLOADS: [&str; 5] = [
    "sim-mcf-sectored-dap",
    "sim-lbm-edram-dap",
    "sim-milc-alloy-base",
    "grid-std-50k",
    "dapd-socket",
];

/// Scratch files (checkpoint manifests, the daemon socket) live under
/// this directory of the working directory, which the run removes.
const SCRATCH_ROOT: &str = ".dapbench-tmp";

const USAGE: &str = "usage: dapbench [--workload NAME] [--seed N] [--seconds N] \
[--trace 0|1 | --traced] [--json PATH]
workloads: sim-mcf-sectored-dap sim-lbm-edram-dap sim-milc-alloy-base grid-std-50k dapd-socket";

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    for &b in bytes {
        h.eat_byte(b);
    }
    h.finish()
}

/// Incremental 64-bit FNV-1a.
pub struct Fnv(u64);

impl Default for Fnv {
    /// The offset basis.
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn eat_byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// Folds in a word, little-endian.
    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.eat_byte(b);
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set (`VmHWM`) in MiB from a `/proc/<pid>/status` file,
/// 0 when unreadable.
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Which CPUs the measuring child and the daemon child run on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// CPU of the measuring child, when pinned.
    pub measure_cpu: Option<usize>,
    /// CPU of the `dapd` daemon child, when pinned.
    pub daemon_cpu: Option<usize>,
}

impl Placement {
    /// Pins to the last and first allowed CPUs when at least two are
    /// allowed and `taskset` can pin; otherwise leaves both unpinned.
    fn detect() -> Self {
        let unpinned = Self {
            measure_cpu: None,
            daemon_cpu: None,
        };
        let cpus = allowed_cpus();
        let (Some(&first), Some(&last)) = (cpus.first(), cpus.last()) else {
            return unpinned;
        };
        let pins = |cpu: usize| {
            Command::new("taskset")
                .args(["-c", &cpu.to_string(), "true"])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|s| s.success())
        };
        if first != last && pins(first) && pins(last) {
            Self {
                measure_cpu: Some(last),
                daemon_cpu: Some(first),
            }
        } else {
            unpinned
        }
    }

    /// A command running this executable, pinned to `cpu` when given.
    pub fn command(&self, cpu: Option<usize>) -> Command {
        let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("dapbench"));
        match cpu {
            Some(cpu) => {
                let mut cmd = Command::new("taskset");
                cmd.arg("-c").arg(cpu.to_string()).arg(exe);
                cmd
            }
            None => Command::new(exe),
        }
    }

    fn describe(&self) -> String {
        match (self.measure_cpu, self.daemon_cpu) {
            (Some(m), Some(d)) => format!("measure=cpu{m} daemon=cpu{d}"),
            _ => "unpinned".to_string(),
        }
    }
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// What one measuring process needs.
#[derive(Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measuring time per workload.
    pub seconds: f64,
    /// Whether to add the traced pass.
    pub traced: bool,
    /// Where this workload keeps its scratch files.
    pub scratch: PathBuf,
    /// CPU placement.
    pub placement: Placement,
    /// What the probes cost on this host.
    pub cost: ProbeCost,
}

/// Parsed command line.
struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    json: Option<PathBuf>,
    child: bool,
    scratch: Option<PathBuf>,
    daemon_cpu: Option<usize>,
    serve: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        json: None,
        child: false,
        scratch: None,
        daemon_cpu: None,
        serve: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                cli.workloads.push(w);
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--traced" => cli.traced = true,
            "--json" => cli.json = Some(PathBuf::from(value()?)),
            "--child" => cli.child = true,
            "--scratch" => cli.scratch = Some(PathBuf::from(value()?)),
            "--daemon-cpu" => {
                cli.daemon_cpu = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--daemon-cpu needs a CPU number".to_string())?,
                );
            }
            "--serve" => cli.serve = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(cli)
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &Opts) -> WorkloadResult {
    let mut res = if let Some(w) = sim::SIM_WORKLOADS.iter().find(|w| w.name == name) {
        sim::run_sim(w, opts)
    } else if name == "grid-std-50k" {
        sim::run_grid(name, opts)
    } else {
        daemon::run_daemon(name, opts)
    };
    if !res.end_to_end.contains_key("peak_rss_mb") {
        res.set_end_to_end(
            "peak_rss_mb",
            Stat::median(&[vm_hwm_mb("/proc/self/status")]),
        );
    }
    res
}

/// Spawns the measuring child for `workload` and collects its result.
fn run_child(cli: &Cli, workload: &str, placement: &Placement, scratch: &Path) -> WorkloadResult {
    let mut cmd = placement.command(placement.measure_cpu);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.traced { "1" } else { "0" }])
        .arg("--scratch")
        .arg(scratch.join(workload));
    if let Some(cpu) = placement.daemon_cpu {
        cmd.args(["--daemon-cpu", &cpu.to_string()]);
    }
    // Keep freed memory in the heap instead of returning it to the OS:
    // glibc's default adapts its mmap threshold and trims the heap as a
    // run goes on, which moves page-fault work in and out of set-up from
    // one pass to the next, and page faults are slow and erratic on a VM.
    cmd.env("MALLOC_MMAP_THRESHOLD_", "33554432")
        .env("MALLOC_TRIM_THRESHOLD_", "4294967296");
    let output = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output();
    let parsed = match &output {
        Ok(out) => String::from_utf8_lossy(&out.stdout)
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("child exited with {} and printed no result", out.status))
            .and_then(WorkloadResult::from_json),
        Err(e) => Err(format!("cannot start the measuring child: {e}")),
    };
    parsed.unwrap_or_else(|e| {
        let mut res = WorkloadResult::new(workload);
        res.check(false, || e);
        res
    })
}

fn print_result(res: &WorkloadResult) {
    println!(
        "== {}: {} passes, {}/{} failed, digest {}",
        res.workload, res.passes, res.failed, res.attempted, res.digest
    );
    for (name, unit) in END_TO_END {
        if let Some(s) = res.end_to_end.get(name) {
            println!(
                "  {name:<34} {:>14.6} {unit:<6} (min {:.6}, max {:.6}, n={})",
                s.value, s.min, s.max, s.n
            );
        }
    }
    for (name, unit) in report::LAYERS {
        if let Some(v) = res.layers.get(name) {
            println!("  {name:<34} {v:>14.6} {unit}");
        }
    }
    for e in &res.errors {
        println!("  FAILED: {e}");
    }
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(cli: &Cli, placement: &Placement) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut features = Vec::new();
    if cfg!(feature = "telemetry-off") {
        features.push(Json::Str("telemetry-off".to_string()));
    }
    if cfg!(feature = "reference-kernel") {
        features.push(Json::Str("reference-kernel".to_string()));
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    obj([
        ("git_rev", Json::Str(git_rev())),
        ("features", Json::Arr(features)),
        ("profile", Json::Str(profile.to_string())),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("traced", Json::Bool(cli.traced)),
        ("placement", Json::Str(placement.describe())),
    ])
}

/// The `--json` report: provenance plus every workload's result.
fn report_json(provenance: Json, results: &[WorkloadResult]) -> String {
    obj([
        ("schema", Json::Str("dapbench".to_string())),
        ("version", Json::Num(1.0)),
        ("provenance", provenance),
        (
            "workloads",
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ])
    .to_string_compact()
}

/// Runs every requested workload in its own child and reports.
fn run_parent(cli: &Cli) -> i32 {
    let placement = Placement::detect();
    let scratch = Path::new(SCRATCH_ROOT).join(std::process::id().to_string());
    let mut results = Vec::new();
    for w in &cli.workloads {
        let res = run_child(cli, w, &placement, &scratch);
        print_result(&res);
        results.push(res);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_ROOT);
    println!("placement: {}", placement.describe());
    if let Some(path) = &cli.json {
        let text = report_json(provenance(cli, &placement), &results) + "\n";
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    println!("{}", result_line(&results, cli.traced));
    if results.iter().all(WorkloadResult::correct) {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(socket) = &cli.serve {
        if let Err(e) = daemon::serve(socket) {
            eprintln!("dapbench daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    if !cli.child {
        std::process::exit(run_parent(&cli));
    }
    let scratch = cli
        .scratch
        .clone()
        .unwrap_or_else(|| Path::new(SCRATCH_ROOT).join(std::process::id().to_string()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        scratch,
        placement: Placement {
            measure_cpu: None,
            daemon_cpu: cli.daemon_cpu,
        },
        cost: ProbeCost::calibrate(),
    };
    eprintln!(
        "dapbench: clock read {:.1} ns, span floor {:.1} ns, counted call {:.1} ns",
        opts.cost.now_ns, opts.cost.floor_ns, opts.cost.call_ns
    );
    for w in &cli.workloads {
        let res = run_workload(w, &opts);
        println!("{}", res.to_json().to_string_compact());
    }
    let _ = std::fs::remove_dir_all(&opts.scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, ProbedPolicy, POLICY_METHODS};
    use crate::sim::{build_system, clone_trace, Probes, SIM_WORKLOADS};
    use dap_telemetry::json::parse;
    use experiments::runner::build_policy;
    use experiments::PolicyKind;
    use mem_sim::trace::TraceSource;
    use mem_sim::Partitioner;
    use mem_sim::{FaultSchedule, FaultTarget, SystemConfig};
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const TINY: u64 = 20_000;

    /// Every sim workload, plus inputs that reach the remaining hooks,
    /// gives a bit-identical `RunResult` with the probes wrapped around
    /// it: DAP on Alloy (`force_clean_hit`), SBD on write-heavy lbm
    /// (`take_sectors_to_clean`), BATMAN on libquantum long enough to
    /// disable sets (`set_enabled`, `take_newly_disabled_sets`), and
    /// measured-rate DAP under a cache throttle (`note_bandwidth_scale`).
    /// The hooks left (`window_cycles`, `attach_dap_sink`,
    /// `audited_totals`) feed profiling, telemetry and audits, not the
    /// result.
    #[test]
    fn probed_runs_are_bit_identical() {
        let sectored = || SystemConfig::sectored_dram_cache(8);
        let throttled = FaultSchedule::new(1).throttle(FaultTarget::Cache, 4, 1, 5_000, 60_000);
        let mut cases: Vec<(SystemConfig, &str, PolicyKind, u64)> = SIM_WORKLOADS
            .iter()
            .map(|w| (w.arch.config(8), w.bench, w.policy, TINY))
            .collect();
        cases.extend([
            (SystemConfig::alloy_cache(8), "mcf", PolicyKind::Dap, TINY),
            (sectored(), "parboil-lbm", PolicyKind::Sbd, TINY),
            (sectored(), "libquantum", PolicyKind::Batman, 200_000),
            (
                sectored().with_faults(throttled),
                "mcf",
                PolicyKind::DapMeasured,
                TINY,
            ),
        ]);
        for (config, bench, policy, instructions) in cases {
            let spec = workloads::spec(bench).unwrap();
            let specs = [spec; 8];
            let plain = build_system(config.clone(), &specs, 3, policy, None).run(instructions);
            let probes = Probes::new();
            let probed = build_system(config, &specs, 3, policy, Some(&probes)).run(instructions);
            assert_eq!(plain, probed, "{bench} {policy:?}");
        }
    }

    /// The hooks that never reach a `RunResult` are forwarded too.
    #[test]
    fn probed_policy_forwards_the_other_hooks() {
        struct Windows(AtomicU64);
        impl dap_core::TelemetrySink for Windows {
            fn record_window(&self, _: &dap_core::WindowSnapshot) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let config = SystemConfig::sectored_dram_cache(2);
        let plain = build_policy(PolicyKind::Dap, &config).unwrap();
        let probed = ProbedPolicy::new(
            build_policy(PolicyKind::Dap, &config).unwrap(),
            Rc::new(Probe::new()),
        );
        assert_eq!(probed.window_cycles(), plain.window_cycles());
        // Debug builds audit by default, so both report `Some`.
        assert_eq!(probed.audited_totals(), plain.audited_totals());
        let spec = workloads::spec("mcf").unwrap();
        let probes = Probes::new();
        let mut sys = build_system(config, &[spec; 2], 0, PolicyKind::Dap, Some(&probes));
        let sink = Arc::new(Windows(AtomicU64::new(0)));
        sys.attach_dap_sink(sink.clone());
        sys.run(2_000);
        assert!(sink.0.load(Ordering::Relaxed) > 0);
    }

    /// The probes count every call; the sampler times about one in 64.
    #[test]
    fn probes_count_every_call_and_sample_some() {
        let spec = workloads::spec("mcf").unwrap();
        let probes = Probes::new();
        let config = SystemConfig::sectored_dram_cache(2);
        let r = build_system(config, &[spec; 2], 0, PolicyKind::Sbd, Some(&probes)).run(TINY);
        let (source, policy) = probes.snapshot();
        assert!(source.calls > 0 && policy.calls > 0);
        assert_eq!(
            policy.per_method.iter().sum::<u64>(),
            policy.calls,
            "every method is counted once per call"
        );
        assert!(policy.calls_of("take_sectors_to_clean") > 0);
        assert!(policy.calls_of("observe") > 0);
        assert_eq!(POLICY_METHODS.len(), policy.per_method.len());
        let share = policy.timed as f64 / policy.calls as f64;
        assert!((0.01..0.025).contains(&share), "timed share {share}");
        assert!(r.stats.demand_reads > 0);
    }

    #[test]
    fn seed_zero_reproduces_the_figure_traces() {
        let spec = workloads::spec("mcf").unwrap();
        let mut figure = workloads::rate_mode(spec, 3);
        for (core, fig) in figure.iter_mut().enumerate() {
            let mut ours = clone_trace(spec, core, 0);
            let mut other = clone_trace(spec, core, 1);
            let (a, b): (Vec<_>, Vec<_>) =
                (0..500).map(|_| (fig.next_op(), ours.next_op())).unzip();
            assert_eq!(a, b, "core {core}");
            let c: Vec<_> = (0..500).map(|_| other.next_op()).collect();
            assert_ne!(a, c, "seed 1 must change core {core}'s trace");
        }
    }

    fn sample_result() -> WorkloadResult {
        let mut r = WorkloadResult::new("sim-mcf-sectored-dap");
        r.check(true, String::new);
        r.check(false, || {
            "pass 2: RunResult differs from pass 1".to_string()
        });
        r.digest = "00ff".to_string();
        r.passes = 2;
        r.set_end_to_end("throughput_per_s", Stat::median(&[6.4e6, 6.5e6, 6.1e6]));
        r.set_end_to_end("latency_p99_us", Stat::quantile(&[1.0, 2.5, 0.125], 0.99));
        r.set_layer("policy.calls", 19_700_000.0);
        r.set_layer("trace.overhead", 0.061_234_5);
        r
    }

    #[test]
    fn result_and_report_round_trip_through_json() {
        let r = sample_result();
        assert_eq!(
            r.layers.len(),
            report::LAYERS.len(),
            "whole catalog present"
        );
        let text = r.to_json().to_string_compact();
        assert_eq!(WorkloadResult::from_json(&text).unwrap(), r);
        assert!(WorkloadResult::from_json("{}").is_err());

        let cli = parse_cli(&["--seed".to_string(), "5".to_string()]).unwrap();
        let placement = Placement {
            measure_cpu: Some(1),
            daemon_cpu: Some(0),
        };
        let report = parse(&report_json(
            provenance(&cli, &placement),
            std::slice::from_ref(&r),
        ))
        .unwrap();
        let prov = report.get("provenance").unwrap();
        assert_eq!(prov.get("seed").and_then(Json::as_u64), Some(5));
        assert_eq!(
            prov.get("placement").and_then(Json::as_str),
            Some("measure=cpu1 daemon=cpu0")
        );
        let back = report.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(
            WorkloadResult::from_json(&back[0].to_string_compact()).unwrap(),
            r
        );

        let line = parse(&result_line(std::slice::from_ref(&r), false)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let m = line.get("metrics").unwrap();
        let tput = m.get("throughput_per_s").unwrap();
        assert_eq!(tput.get("value").and_then(Json::as_f64), Some(6.4e6));
        assert_eq!(tput.get("unit").and_then(Json::as_str), Some("1/s"));
        let traced = parse(&result_line(&[r], true)).unwrap();
        let layers = traced.get("metrics").unwrap();
        assert_eq!(
            layers
                .get("trace.overhead")
                .and_then(|v| v.get("value")?.as_f64()),
            Some(0.061_234_5)
        );
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let bench = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&report::LAYERS));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn cli_rejects_bad_input() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_cli(&args(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&args(&["--trace", "2"])).is_err());
        assert!(parse_cli(&args(&["--seconds", "0"])).is_err());
        assert!(parse_cli(&args(&["--bogus"])).is_err());
        let cli = parse_cli(&args(&["--workload", "dapd-socket", "--trace", "1"])).unwrap();
        assert_eq!(cli.workloads, ["dapd-socket"]);
        assert!(cli.traced);
        assert_eq!(parse_cli(&[]).unwrap().workloads.len(), WORKLOADS.len());
    }
}
