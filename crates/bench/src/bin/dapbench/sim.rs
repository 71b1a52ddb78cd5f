//! The simulator workloads: three single simulations that load different
//! layers, and the figure-sweep grid.

use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use experiments::runner::build_policy;
use experiments::{
    explore_grid, CellSpec, CheckpointManifest, ConfigFingerprint, ParallelExecutor, PolicyKind,
    WorkloadRun,
};
use mem_sim::trace::TraceSource;
use mem_sim::{KernelStats, RunResult, System, SystemConfig};
use workloads::spec::WorkloadSpec;
use workloads::CloneTrace;

use crate::probe::{Probe, ProbeCost, ProbedPolicy, ProbedSource, Reading};
use crate::report::{Stat, WorkloadResult};
use crate::{fnv1a, Opts, MIN_PASSES};

/// Where core 0's footprint starts and how far apart cores' footprints
/// lie: the layout `workloads::rate_mode` uses, so seed 0 reproduces the
/// figure traces exactly.
const CORE_BASE: u64 = 0x1000_0000;
const CORE_STRIDE: u64 = (1 << 36) + 0x31_1000;

/// Cores in every single-simulation workload (the paper's rate-8 mode).
const CORES: usize = 8;

/// Per-core instruction budget of the grid workload.
const GRID_INSTRUCTIONS: u64 = 50_000;

/// Core `core`'s trace at `seed`. Only the instance number depends on
/// the seed, so seed 0 is the trace the figures simulate.
pub fn clone_trace(spec: &WorkloadSpec, core: usize, seed: u64) -> CloneTrace {
    CloneTrace::new(
        spec,
        CORE_BASE + core as u64 * CORE_STRIDE,
        seed * 64 + core as u64,
    )
}

/// The memory-side cache a single-simulation workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Arch {
    /// 4 GB sectored DRAM cache behind a tag cache.
    Sectored,
    /// 256 MB eDRAM with split read/write channels.
    Edram256,
    /// Alloy direct-mapped DRAM cache.
    Alloy,
}

impl Arch {
    /// The system configuration for `cores` cores.
    pub fn config(self, cores: usize) -> SystemConfig {
        match self {
            Arch::Sectored => SystemConfig::sectored_dram_cache(cores),
            Arch::Edram256 => SystemConfig::edram_cache(cores, 256),
            Arch::Alloy => SystemConfig::alloy_cache(cores),
        }
    }
}

/// One single-simulation workload: a rate-8 benchmark on one
/// architecture under one policy.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Benchmark clone every core runs.
    pub bench: &'static str,
    /// Memory-side cache.
    pub arch: Arch,
    /// Partitioning policy.
    pub policy: PolicyKind,
    /// Instructions per core per pass, sized so a pass takes a quarter to
    /// half a second: a run then holds dozens of passes, enough to ride
    /// out host stalls that last a few seconds.
    pub instructions: u64,
}

/// The single-simulation workloads. The README gives the reason for each.
pub const SIM_WORKLOADS: [SimWorkload; 3] = [
    SimWorkload {
        name: "sim-mcf-sectored-dap",
        bench: "mcf",
        arch: Arch::Sectored,
        policy: PolicyKind::Dap,
        instructions: 200_000,
    },
    SimWorkload {
        name: "sim-lbm-edram-dap",
        bench: "parboil-lbm",
        arch: Arch::Edram256,
        policy: PolicyKind::Dap,
        instructions: 150_000,
    },
    SimWorkload {
        name: "sim-milc-alloy-base",
        bench: "milc",
        arch: Arch::Alloy,
        policy: PolicyKind::Baseline,
        instructions: 3_000_000,
    },
];

/// The probes of one traced simulation, shared by its wrapped seams.
pub struct Probes {
    source: Rc<Probe>,
    policy: Rc<Probe>,
}

impl Probes {
    /// Fresh, empty probes.
    pub fn new() -> Self {
        Self {
            source: Rc::new(Probe::new()),
            policy: Rc::new(Probe::new()),
        }
    }

    /// The probes' current readings.
    pub fn snapshot(&self) -> (Reading, Reading) {
        (self.source.reading(), self.policy.reading())
    }
}

/// Builds a system running `specs[i]` on core `i` at `seed`, with every
/// trace and the policy wrapped in `probes` when given.
///
/// # Panics
///
/// Panics if `policy` cannot run on `config`'s architecture; every
/// workload here pairs them so it can.
pub fn build_system(
    config: SystemConfig,
    specs: &[&'static WorkloadSpec],
    seed: u64,
    policy: PolicyKind,
    probes: Option<&Probes>,
) -> System {
    let traces: Vec<Box<dyn TraceSource>> = specs
        .iter()
        .enumerate()
        .map(|(core, spec)| {
            let trace = clone_trace(spec, core, seed);
            match probes {
                Some(p) => {
                    Box::new(ProbedSource::new(trace, Rc::clone(&p.source))) as Box<dyn TraceSource>
                }
                None => Box::new(trace),
            }
        })
        .collect();
    let inner = build_policy(policy, &config)
        .expect("every workload pairs its policy with an architecture that hosts it");
    let policy = match probes {
        Some(p) => Box::new(ProbedPolicy::new(inner, Rc::clone(&p.policy))),
        None => inner,
    };
    System::with_policy(config, traces, policy)
}

/// Simulated counts and probe readings summed over traced runs.
#[derive(Debug, Clone, Default)]
struct Tally {
    instructions: u64,
    reads: u64,
    writes: u64,
    l3_misses: u64,
    ms_hits: u64,
    ms_lookups: u64,
    tag_lookups: u64,
    tag_misses: u64,
    ms_cas: u64,
    mm_cas: u64,
    epochs: u64,
    skipped_quanta: u64,
    fwb: u64,
    wb: u64,
    ifrm: u64,
    sfrm: u64,
    /// Host seconds inside `run_kernel_instrumented`.
    run_s: f64,
    source: Reading,
    policy: Reading,
}

impl Tally {
    fn add_run(&mut self, r: &RunResult, k: &KernelStats, run_s: f64) {
        let s = &r.stats;
        self.instructions += r.per_core.iter().map(|c| c.instructions).sum::<u64>();
        self.reads += s.demand_reads;
        self.writes += s.demand_writes;
        self.l3_misses += s.l3_misses;
        self.ms_hits += s.ms_read_hits + s.ms_write_hits;
        self.ms_lookups += s.ms_read_hits + s.ms_write_hits + s.ms_read_misses + s.ms_write_misses;
        self.tag_lookups += s.tag_cache_lookups;
        self.tag_misses += s.tag_cache_misses;
        self.ms_cas += s.ms_cas;
        self.mm_cas += s.mm_cas;
        self.epochs += k.epochs;
        self.skipped_quanta += k.skipped_quanta;
        if let Some(d) = r.dap_decisions {
            self.fwb += d.fwb;
            self.wb += d.wb;
            self.ifrm += d.ifrm;
            self.sfrm += d.sfrm;
        }
        self.run_s += run_s;
    }

    fn add_probes(&mut self, probes: &(Reading, Reading)) {
        self.source.absorb(&probes.0);
        self.policy.absorb(&probes.1);
    }

    fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Host seconds the probes added to the traced pass.
    fn probe_seconds(&self, cost: &ProbeCost) -> f64 {
        self.source.probe_seconds(cost) + self.policy.probe_seconds(cost)
    }

    /// Writes the workloads, policy, mem_sim and dap layer metrics, per
    /// pass of a tally summed over `passes` traced passes.
    fn set_layers(&self, res: &mut WorkloadResult, cost: &ProbeCost, passes: usize) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let per = |x: f64| x / passes.max(1) as f64;
        let count = |x: u64| per(x as f64);
        let run_s = per(self.run_s - self.probe_seconds(cost)).max(0.0);
        let source_s = per(self.source.self_seconds());
        let policy_s = per(self.policy.self_seconds());
        let mem_s = (run_s - source_s - policy_s).max(0.0);
        let accesses = count(self.accesses());
        let kinstr = count(self.instructions) / 1000.0;
        res.set_layer("workloads.next_op.calls", count(self.source.calls));
        res.set_layer("workloads.next_op.self_s", source_s);
        res.set_layer("workloads.next_op.share", ratio(source_s, run_s));
        res.set_layer("policy.calls", count(self.policy.calls));
        res.set_layer(
            "policy.calls_per_access",
            ratio(count(self.policy.calls), accesses),
        );
        res.set_layer("policy.self_s", policy_s);
        res.set_layer("policy.share", ratio(policy_s, run_s));
        for method in [
            "tick",
            "observe",
            "route_read",
            "route_write",
            "allow_fill",
            "force_clean_hit",
        ] {
            res.set_layer(
                &format!("policy.{method}.calls"),
                count(self.policy.calls_of(method)),
            );
        }
        res.set_layer("mem_sim.self_s", mem_s);
        res.set_layer("mem_sim.share", ratio(mem_s, run_s));
        res.set_layer("mem_sim.ns_per_kinstr", ratio(mem_s * 1e9, kinstr));
        res.set_layer("mem_sim.ns_per_access", ratio(mem_s * 1e9, accesses));
        res.set_layer("mem_sim.instructions", count(self.instructions));
        res.set_layer("mem_sim.accesses", accesses);
        res.set_layer("mem_sim.accesses_per_kinstr", ratio(accesses, kinstr));
        res.set_layer("mem_sim.l3_mpki", ratio(count(self.l3_misses), kinstr));
        res.set_layer("mem_sim.write_share", ratio(count(self.writes), accesses));
        res.set_layer(
            "mem_sim.ms_hit_ratio",
            ratio(self.ms_hits as f64, self.ms_lookups as f64),
        );
        res.set_layer(
            "mem_sim.tag_miss_ratio",
            ratio(self.tag_misses as f64, self.tag_lookups as f64),
        );
        res.set_layer("mem_sim.ms_cas", count(self.ms_cas));
        res.set_layer("mem_sim.mm_cas", count(self.mm_cas));
        res.set_layer("mem_sim.kernel.epochs", count(self.epochs));
        res.set_layer("mem_sim.kernel.skipped_quanta", count(self.skipped_quanta));
        res.set_layer("dap.decisions.fwb", count(self.fwb));
        res.set_layer("dap.decisions.wb", count(self.wb));
        res.set_layer("dap.decisions.ifrm", count(self.ifrm));
        res.set_layer("dap.decisions.sfrm", count(self.sfrm));
    }
}

/// Writes `trace.overhead` and `trace.residual` from passes that
/// alternated untraced and traced, pairing each traced pass with the
/// untraced one just before it so both saw the same host conditions.
/// `probe_s` is what the probes themselves added to a traced pass.
pub fn set_trace_layers(
    res: &mut WorkloadResult,
    untraced_s: &[f64],
    traced_s: &[f64],
    probe_s: f64,
) {
    let pairs = || untraced_s.iter().zip(traced_s);
    let overhead: Vec<f64> = pairs().map(|(u, t)| t / u - 1.0).collect();
    let residual: Vec<f64> = pairs().map(|(u, t)| (t - probe_s) / u - 1.0).collect();
    res.set_layer("trace.overhead", Stat::median(&overhead).value);
    res.set_layer("trace.residual", Stat::median(&residual).value.abs());
}

/// Digest of a grid pass's results, weighted speedups by their bits.
fn digest_of(runs: &[CellOut]) -> u64 {
    let mut text = String::new();
    for out in runs {
        let ws = out.run.weighted_speedup.to_bits();
        text.push_str(&format!("{:?}/{ws:016x};", out.run.result));
    }
    fnv1a(text.as_bytes())
}

/// One pass of a single-simulation workload.
struct SimPass {
    setup_s: f64,
    run_s: f64,
    result: RunResult,
    kernel: KernelStats,
    probes: Option<(Reading, Reading)>,
}

fn sim_pass(w: &SimWorkload, seed: u64, traced: bool) -> SimPass {
    let t0 = Instant::now();
    let spec = workloads::spec(w.bench).expect("sim workloads name in-tree benchmarks");
    let probes = traced.then(Probes::new);
    let mut sys = build_system(
        w.arch.config(CORES),
        &[spec; CORES],
        seed,
        w.policy,
        probes.as_ref(),
    );
    let t1 = Instant::now();
    let (result, kernel) = sys.run_kernel_instrumented(w.instructions);
    let t2 = Instant::now();
    SimPass {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        result,
        kernel,
        probes: probes.as_ref().map(Probes::snapshot),
    }
}

/// Whether a workload needs another pass: until `opts.seconds` have gone
/// by, and at least [`MIN_PASSES`] untraced (and traced, when tracing).
pub fn more_passes(opts: &Opts, start: Instant, plain: usize, traced: usize) -> bool {
    plain < MIN_PASSES
        || (opts.traced && traced < MIN_PASSES)
        || start.elapsed().as_secs_f64() < opts.seconds
}

/// Whether the next pass is traced: when tracing, every other pass, so
/// traced and untraced passes see the same host conditions.
pub fn trace_next(opts: &Opts, plain: usize, traced: usize) -> bool {
    opts.traced && traced < plain
}

/// Runs a single-simulation workload for `opts.seconds`.
pub fn run_sim(w: &SimWorkload, opts: &Opts) -> WorkloadResult {
    let mut res = WorkloadResult::new(w.name);
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<SimPass>, Vec<SimPass>) = (Vec::new(), Vec::new());
    let mut first: Option<RunResult> = None;
    while more_passes(opts, start, plain.len(), traced.len()) {
        let tracing = trace_next(opts, plain.len(), traced.len());
        let p = sim_pass(w, opts.seed, tracing);
        let n = plain.len() + traced.len() + 1;
        let same = first.as_ref().is_none_or(|f| *f == p.result);
        res.check(same, || format!("pass {n}: RunResult differs from pass 1"));
        if first.is_none() {
            first = Some(p.result.clone());
        }
        if tracing {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    let first = first.expect("at least one pass ran");
    res.passes = plain.len() as u64;
    res.digest = format!("{:016x}", fnv1a(format!("{first:?}").as_bytes()));
    let of =
        |passes: &[SimPass], f: fn(&SimPass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    // A pass is the workload's only unit of work, so both latency
    // percentiles read its time.
    let instructions = (w.instructions * CORES as u64) as f64;
    let run = Stat::lower_quartile(&of(&plain, |p| p.run_s));
    let rate = Stat::median(
        &of(&plain, |p| p.run_s)
            .iter()
            .map(|s| instructions / s)
            .collect::<Vec<_>>(),
    );
    let wall_us = Stat::lower_quartile(&of(&plain, |p| (p.setup_s + p.run_s) * 1e6));
    res.set_end_to_end(
        "throughput_per_s",
        Stat {
            value: instructions / run.value,
            ..rate
        },
    );
    res.set_end_to_end("latency_p50_us", wall_us);
    res.set_end_to_end("latency_p99_us", wall_us);
    res.set_end_to_end("setup_s", Stat::median(&of(&plain, |p| p.setup_s)));
    if opts.traced {
        let mut tally = Tally::default();
        for p in &traced {
            tally.add_run(&p.result, &p.kernel, p.run_s);
            tally.add_probes(p.probes.as_ref().expect("traced passes carry probes"));
        }
        tally.set_layers(&mut res, &opts.cost, traced.len());
        let median =
            |passes: &[SimPass], f: fn(&SimPass) -> f64| Stat::median(&of(passes, f)).value;
        let (setup_s, run_s) = (median(&plain, |p| p.setup_s), median(&plain, |p| p.run_s));
        let wall_s = median(&plain, |p| p.setup_s + p.run_s);
        res.set_layer("experiments.wall_s", wall_s);
        res.set_layer("experiments.setup_s", setup_s);
        res.set_layer("experiments.run_s", run_s);
        res.set_layer("experiments.setup_share", setup_s / wall_s);
        set_trace_layers(
            &mut res,
            &of(&plain, |p| p.setup_s + p.run_s),
            &of(&traced, |p| p.setup_s + p.run_s),
            tally.probe_seconds(&opts.cost) / traced.len() as f64,
        );
    }
    res
}

/// One run of a grid cell or alone run inside the executor.
struct CellOut {
    run: WorkloadRun,
    kernel: KernelStats,
    setup_s: f64,
    run_s: f64,
    record_s: f64,
    wall_s: f64,
    probes: Option<(Reading, Reading)>,
}

/// One pass of the grid workload.
struct GridPass {
    wall_s: f64,
    setup_s: f64,
    run_s: f64,
    alone_s: f64,
    record_s: f64,
    records: u64,
    lookup_s: f64,
    exec_overhead_s: f64,
    instructions: u64,
    /// Each cell's wall time, alone runs first, in grid order.
    cell_walls_s: Vec<f64>,
    digest: u64,
}

/// Simulates `config` with `specs` under `policy`, timing the set-up and
/// the run; `finish` turns the result into the cell's run and may record
/// it (its time is the cell's record time).
fn simulate_cell(
    config: SystemConfig,
    specs: &[&'static WorkloadSpec],
    policy: PolicyKind,
    seed: u64,
    traced: bool,
    finish: impl FnOnce(RunResult) -> (WorkloadRun, f64),
) -> CellOut {
    let t0 = Instant::now();
    let probes = traced.then(Probes::new);
    let mut sys = build_system(config, specs, seed, policy, probes.as_ref());
    let t1 = Instant::now();
    let (result, kernel) = sys.run_kernel_instrumented(GRID_INSTRUCTIONS);
    let t2 = Instant::now();
    let (run, record_s) = finish(result);
    CellOut {
        run,
        kernel,
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        record_s,
        wall_s: t0.elapsed().as_secs_f64(),
        probes: probes.as_ref().map(Probes::snapshot),
    }
}

fn same_run(a: &WorkloadRun, b: &WorkloadRun) -> bool {
    a.result == b.result && a.weighted_speedup.to_bits() == b.weighted_speedup.to_bits()
}

/// One grid pass: the `std` exploration grid's 28 alone runs and 84
/// shared cells on a one-thread executor, each finished cell recorded in
/// an fsync'd checkpoint manifest under `dir`, then a resume that answers
/// every cell from the reopened manifest. Failures go to `res`. With a
/// `tally` the pass is traced, and its counts and probe readings are
/// added to it.
fn grid_pass(
    seed: u64,
    dir: &Path,
    res: &mut WorkloadResult,
    tally: Option<&mut Tally>,
) -> GridPass {
    let traced = tally.is_some();
    let t0 = Instant::now();
    let grid = explore_grid("std", GRID_INSTRUCTIONS).expect("the std grid exists");
    let mut alone_keys: Vec<(ConfigFingerprint, &'static WorkloadSpec, &SystemConfig)> = Vec::new();
    for cell in &grid.cells {
        let fp = ConfigFingerprint::of(&cell.config);
        for &spec in &cell.mix.specs {
            if !alone_keys
                .iter()
                .any(|(f, s, _)| *f == fp && s.name == spec.name)
            {
                alone_keys.push((fp.clone(), spec, &cell.config));
            }
        }
    }
    let build_s = t0.elapsed().as_secs_f64();

    let t_open = Instant::now();
    let path = dir.join("grid.ckpt");
    let manifest = std::fs::create_dir_all(dir).and_then(|()| CheckpointManifest::open(&path));
    let manifest = match manifest {
        Ok(m) => m,
        Err(e) => {
            res.check(false, || format!("cannot open checkpoint manifest: {e}"));
            CheckpointManifest::in_memory()
        }
    };
    let open_s = t_open.elapsed().as_secs_f64();
    let exec = ParallelExecutor::new(1);

    let alone_cells: Vec<CellSpec<'_, CellOut>> = alone_keys
        .iter()
        .map(|(_, spec, config)| {
            let mut alone = (*config).clone();
            alone.cores = 1;
            let spec = *spec;
            CellSpec::new(format!("alone/{}", spec.name), move || {
                simulate_cell(
                    alone.clone(),
                    &[spec],
                    PolicyKind::Baseline,
                    seed,
                    traced,
                    |result| {
                        let run = WorkloadRun {
                            result,
                            weighted_speedup: 1.0,
                        };
                        (run, 0.0)
                    },
                )
            })
        })
        .collect();
    let mut outs: Vec<CellOut> = Vec::new();
    let mut alone_ipc: HashMap<(ConfigFingerprint, &'static str), f64> = HashMap::new();
    for ((fp, spec, _), out) in alone_keys.iter().zip(exec.run_cells(alone_cells, 0)) {
        res.check(out.is_ok(), || format!("alone run {} failed", spec.name));
        if let Ok(out) = out {
            alone_ipc.insert((fp.clone(), spec.name), out.run.result.per_core[0].ipc());
            outs.push(out);
        }
    }
    let alone_count = outs.len();

    let manifest_ref = &manifest;
    let alone_ref = &alone_ipc;
    let cells: Vec<CellSpec<'_, CellOut>> = grid
        .cells
        .iter()
        .map(|cell| {
            CellSpec::new(cell.label.clone(), move || {
                simulate_cell(
                    cell.config.clone(),
                    &cell.mix.specs,
                    cell.policy,
                    seed,
                    traced,
                    |result| {
                        let fp = ConfigFingerprint::of(&cell.config);
                        let alone: Vec<f64> = cell
                            .mix
                            .specs
                            .iter()
                            .map(|s| alone_ref.get(&(fp.clone(), s.name)).copied().unwrap_or(0.0))
                            .collect();
                        let weighted_speedup = result.weighted_speedup(&alone);
                        let run = WorkloadRun {
                            result,
                            weighted_speedup,
                        };
                        let t = Instant::now();
                        manifest_ref.record(&cell.key, &run);
                        (run, t.elapsed().as_secs_f64())
                    },
                )
            })
        })
        .collect();
    let mut shared: Vec<(&str, WorkloadRun)> = Vec::new();
    for (cell, out) in grid.cells.iter().zip(exec.run_cells(cells, 0)) {
        res.check(out.is_ok(), || format!("grid cell {} failed", cell.label));
        if let Ok(out) = out {
            shared.push((&cell.key, out.run.clone()));
            outs.push(out);
        }
    }
    drop(manifest);

    let t_resume = Instant::now();
    match CheckpointManifest::open(&path) {
        Ok(resumed) => {
            for (key, run) in &shared {
                let hit = resumed.lookup(key);
                res.check(hit.is_some_and(|r| same_run(&r, run)), || {
                    format!("resume: {key} not answered bit-identically")
                });
            }
        }
        Err(e) => res.check(false, || format!("cannot reopen checkpoint manifest: {e}")),
    }
    let lookup_s = t_resume.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("warning: cannot remove {}: {e}", dir.display());
    }

    let (alone_outs, shared_outs) = outs.split_at(alone_count);
    let sum = |o: &[CellOut], f: fn(&CellOut) -> f64| o.iter().map(f).sum::<f64>();
    if let Some(tally) = tally {
        for out in &outs {
            tally.add_run(&out.run.result, &out.kernel, out.run_s);
            if let Some(p) = &out.probes {
                tally.add_probes(p);
            }
        }
    }
    let setup_s = build_s + open_s + sum(&outs, |o| o.setup_s);
    let cells_s = sum(&outs, |o| o.wall_s);
    GridPass {
        wall_s,
        setup_s,
        run_s: sum(shared_outs, |o| o.run_s),
        alone_s: sum(alone_outs, |o| o.run_s),
        record_s: sum(shared_outs, |o| o.record_s),
        records: shared_outs.len() as u64,
        lookup_s,
        exec_overhead_s: (wall_s - build_s - open_s - cells_s - lookup_s).max(0.0),
        instructions: outs
            .iter()
            .flat_map(|o| &o.run.result.per_core)
            .map(|c| c.instructions)
            .sum(),
        cell_walls_s: outs.iter().map(|o| o.wall_s).collect(),
        digest: digest_of(&outs),
    }
}

/// Runs the grid workload for `opts.seconds`.
///
/// Every pass repeats the same 112 simulations, so each cell's time is
/// the lower quartile of its repetitions, and the grid's wall time is the
/// sum of those plus the lower quartile of the time outside the cells. A
/// host stall then costs one repetition of a few cells, not a whole pass.
pub fn run_grid(name: &str, opts: &Opts) -> WorkloadResult {
    let mut res = WorkloadResult::new(name);
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<GridPass>, Vec<GridPass>) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    while more_passes(opts, start, plain.len(), traced.len()) {
        let tracing = trace_next(opts, plain.len(), traced.len());
        let n = plain.len() + traced.len();
        let p = grid_pass(
            opts.seed,
            &opts.scratch.join(format!("grid-{n}")),
            &mut res,
            tracing.then_some(&mut tally),
        );
        if let Some(first) = plain.first() {
            res.check(p.digest == first.digest, || {
                format!("grid pass {}: results differ from pass 1", n + 1)
            });
        }
        if tracing {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    let first = &plain[0];
    res.passes = plain.len() as u64;
    res.digest = format!("{:016x}", first.digest);
    let of = |passes: &[GridPass], f: fn(&GridPass) -> f64| -> Vec<f64> {
        passes.iter().map(f).collect()
    };
    let median = |passes: &[GridPass], f: fn(&GridPass) -> f64| Stat::median(&of(passes, f)).value;
    let complete: Vec<&GridPass> = plain
        .iter()
        .filter(|p| p.cell_walls_s.len() == first.cell_walls_s.len())
        .collect();
    let cell_s: Vec<f64> = (0..first.cell_walls_s.len())
        .map(|c| {
            let reps: Vec<f64> = complete.iter().map(|p| p.cell_walls_s[c]).collect();
            Stat::lower_quartile(&reps).value
        })
        .collect();
    let outside_s = Stat::lower_quartile(
        &complete
            .iter()
            .map(|p| p.wall_s - p.cell_walls_s.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    )
    .value;
    let wall_s = cell_s.iter().sum::<f64>() + outside_s;
    let rate = Stat::median(&of(&plain, |p| p.instructions as f64 / p.wall_s));
    res.set_end_to_end(
        "throughput_per_s",
        Stat {
            value: first.instructions as f64 / wall_s,
            ..rate
        },
    );
    let cell_us: Vec<f64> = cell_s.iter().map(|s| s * 1e6).collect();
    res.set_end_to_end("latency_p50_us", Stat::quantile(&cell_us, 0.5));
    res.set_end_to_end("latency_p99_us", Stat::quantile(&cell_us, 0.99));
    res.set_end_to_end("setup_s", Stat::median(&of(&plain, |p| p.setup_s)));
    if opts.traced {
        tally.set_layers(&mut res, &opts.cost, traced.len());
        res.set_layer("experiments.wall_s", wall_s);
        res.set_layer("experiments.setup_s", median(&plain, |p| p.setup_s));
        res.set_layer("experiments.run_s", median(&plain, |p| p.run_s));
        res.set_layer("experiments.alone_s", median(&plain, |p| p.alone_s));
        res.set_layer(
            "experiments.checkpoint.record_s",
            median(&plain, |p| p.record_s),
        );
        res.set_layer("experiments.checkpoint.records", first.records as f64);
        res.set_layer(
            "experiments.resume.lookup_s",
            median(&plain, |p| p.lookup_s),
        );
        res.set_layer(
            "experiments.exec_overhead_s",
            median(&plain, |p| p.exec_overhead_s),
        );
        res.set_layer(
            "experiments.setup_share",
            median(&plain, |p| p.setup_s / p.wall_s),
        );
        set_trace_layers(
            &mut res,
            &of(&plain, |p| p.wall_s),
            &of(&traced, |p| p.wall_s),
            tally.probe_seconds(&opts.cost) / traced.len() as f64,
        );
    }
    res
}
