//! Shared experiment machinery: policy construction, mix execution, and
//! weighted-speedup bookkeeping (with cached alone-run IPCs).

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use dap_core::DapConfig;
use mem_sim::clock::Cycle;
use mem_sim::{
    CacheKind, DapPolicy, NoPartitioning, Observation, Partitioner, ReadContext, ReadRoute,
    RunResult, System, SystemConfig, ThreadAwareDap, WriteRoute,
};
use policies::{Batman, Sbd, SbdVariant};
use workloads::{rate_mode, Mix};

use crate::exec::lock_unpoisoned;
use crate::fingerprint::ConfigFingerprint;

/// Which access-partitioning policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No partitioning (the optimized baseline).
    Baseline,
    /// Full DAP (FWB + WB + IFRM + SFRM / write-through).
    Dap,
    /// Full DAP that re-solves its window budget against measured
    /// per-source bandwidth when a fault schedule degrades a source
    /// (static Eq. 4 ratios otherwise — identical to [`Self::Dap`] on a
    /// healthy system).
    DapMeasured,
    /// DAP restricted to FWB and WB (the Fig. 8 ablation).
    DapFwbWbOnly,
    /// Thread-aware DAP: IFRM prefers latency-insensitive threads
    /// (the extension Section IV-A sketches).
    ThreadAwareDap,
    /// Self-balancing dispatch.
    Sbd,
    /// SBD without forced write-outs.
    SbdWt,
    /// BATMAN hit-rate modulation.
    Batman,
}

/// A policy was requested on an architecture that cannot host it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyBuildError {
    /// The policy that was requested.
    pub policy: &'static str,
    /// The architecture that cannot host it.
    pub architecture: &'static str,
}

impl fmt::Display for PolicyBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} needs a memory-side cache to steer accesses between; \
             the `{}` configuration has none",
            self.policy, self.architecture
        )
    }
}

impl std::error::Error for PolicyBuildError {}

/// The architecture's short name, as printed in errors and stored in
/// telemetry artifact headers.
pub(crate) fn architecture_name(cache: &CacheKind) -> &'static str {
    match cache {
        CacheKind::None => "no-cache",
        CacheKind::Sectored { .. } => "sectored",
        CacheKind::Alloy { .. } => "alloy",
        CacheKind::FlatTier { .. } => "flat-tier",
        CacheKind::Edram { .. } => "edram",
    }
}

/// Derives the DAP controller configuration implied by a system
/// configuration (architecture, bandwidths, CPU clock).
///
/// # Errors
///
/// [`PolicyBuildError`] if the system has no memory-side cache to
/// partition accesses against (`CacheKind::None`, `CacheKind::FlatTier`).
pub fn dap_config_for(
    config: &SystemConfig,
    window: u32,
    efficiency: f64,
) -> Result<DapConfig, PolicyBuildError> {
    let mm_gbps = config.mm.peak_gbps();
    let base = DapConfig {
        window_cycles: window,
        efficiency,
        mm_gbps,
        cpu_ghz: config.cpu_ghz(),
        ..DapConfig::hbm_ddr4()
    };
    match &config.cache {
        CacheKind::None | CacheKind::FlatTier { .. } => Err(PolicyBuildError {
            policy: "DAP request steering",
            architecture: architecture_name(&config.cache),
        }),
        CacheKind::Sectored { dram, .. } => Ok(DapConfig {
            architecture: dap_core::CacheArchitecture::SingleBus,
            cache_gbps: dram.peak_gbps(),
            split_channel_gbps: None,
            ..base
        }),
        CacheKind::Alloy { dram, .. } => Ok(DapConfig {
            architecture: dap_core::CacheArchitecture::Alloy,
            cache_gbps: dram.peak_gbps() * 2.0 / 3.0,
            split_channel_gbps: None,
            ..base
        }),
        CacheKind::Edram { direction, .. } => Ok(DapConfig {
            architecture: dap_core::CacheArchitecture::SplitChannel,
            cache_gbps: direction.peak_gbps(),
            split_channel_gbps: Some(direction.peak_gbps()),
            ..base
        }),
    }
}

/// DAP with IFRM/SFRM disabled (the paper's "FWB+WB" ablation bars).
#[derive(Debug, Clone)]
struct FwbWbOnly(DapPolicy);

impl Partitioner for FwbWbOnly {
    fn tick(&mut self, now: Cycle) {
        self.0.tick(now);
    }
    fn observe(&mut self, event: Observation, now: Cycle) {
        self.0.observe(event, now);
    }
    fn route_read(&mut self, _ctx: &ReadContext) -> ReadRoute {
        ReadRoute::Lookup
    }
    fn force_clean_hit(&mut self, _ctx: &ReadContext) -> bool {
        false
    }
    fn route_write(&mut self, block: u64, now: Cycle, hit: bool) -> WriteRoute {
        self.0.route_write(block, now, hit)
    }
    fn allow_fill(&mut self, block: u64, now: Cycle) -> bool {
        self.0.allow_fill(block, now)
    }
    fn dap_decisions(&self) -> Option<dap_core::DecisionStats> {
        self.0.dap_decisions()
    }
    fn attach_dap_sink(&mut self, sink: std::sync::Arc<dyn dap_core::TelemetrySink>) {
        self.0.attach_dap_sink(sink);
    }
}

/// Builds a policy instance for a system (default window 64, E = 0.75).
///
/// # Errors
///
/// [`PolicyBuildError`] if the policy needs a memory-side cache the
/// configuration lacks.
pub fn build_policy(
    kind: PolicyKind,
    config: &SystemConfig,
) -> Result<Box<dyn Partitioner>, PolicyBuildError> {
    build_policy_with(kind, config, 64, 0.75)
}

/// Builds a policy with explicit DAP window/efficiency parameters.
///
/// # Errors
///
/// [`PolicyBuildError`] if the policy needs a memory-side cache the
/// configuration lacks.
pub fn build_policy_with(
    kind: PolicyKind,
    config: &SystemConfig,
    window: u32,
    efficiency: f64,
) -> Result<Box<dyn Partitioner>, PolicyBuildError> {
    Ok(match kind {
        PolicyKind::Baseline => Box::new(NoPartitioning),
        PolicyKind::Dap => Box::new(DapPolicy::new(dap_config_for(config, window, efficiency)?)),
        PolicyKind::DapMeasured => Box::new(DapPolicy::with_measured_bandwidth(dap_config_for(
            config, window, efficiency,
        )?)),
        PolicyKind::DapFwbWbOnly => Box::new(FwbWbOnly(DapPolicy::new(dap_config_for(
            config, window, efficiency,
        )?))),
        PolicyKind::ThreadAwareDap => Box::new(ThreadAwareDap::new(
            dap_config_for(config, window, efficiency)?,
            config.cores,
        )),
        PolicyKind::Sbd => Box::new(Sbd::new(SbdVariant::Original)),
        PolicyKind::SbdWt => Box::new(Sbd::new(SbdVariant::WriteThroughOnly)),
        PolicyKind::Batman => {
            let (sets, cache_gbps) = match &config.cache {
                CacheKind::Sectored {
                    capacity_bytes,
                    sector_bytes,
                    ways,
                    dram,
                    ..
                } => (
                    capacity_bytes / sector_bytes / *ways as u64,
                    dram.peak_gbps(),
                ),
                CacheKind::Alloy {
                    capacity_bytes,
                    dram,
                    ..
                } => (capacity_bytes / 64, dram.peak_gbps()),
                CacheKind::Edram {
                    capacity_bytes,
                    sector_bytes,
                    ways,
                    direction,
                } => (
                    capacity_bytes / sector_bytes / *ways as u64,
                    direction.peak_gbps(),
                ),
                CacheKind::None | CacheKind::FlatTier { .. } => {
                    return Err(PolicyBuildError {
                        policy: "BATMAN",
                        architecture: architecture_name(&config.cache),
                    })
                }
            };
            Box::new(Batman::new(sets, cache_gbps, config.mm.peak_gbps()))
        }
    })
}

/// Runs one mix under one policy.
///
/// # Panics
///
/// Panics if the policy cannot run on the configuration's architecture —
/// figure code always pairs compatible ones; CLI callers should use
/// [`build_policy`] and report the error instead.
pub fn run_mix(config: &SystemConfig, kind: PolicyKind, mix: &Mix, instructions: u64) -> RunResult {
    let policy = build_policy(kind, config).unwrap_or_else(|e| panic!("{e}"));
    let mut system = System::with_policy(config.clone(), mix.traces(), policy);
    system.run(instructions)
}

/// A mix run together with its weighted speedup.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The raw simulation outcome.
    pub result: RunResult,
    /// `sum_i(IPC_i / IPC_alone_i)` with alone runs on the same system
    /// configuration (baseline policy, one core).
    pub weighted_speedup: f64,
}

/// Thread-safe cache of alone-run IPCs keyed by
/// ([`ConfigFingerprint`], benchmark).
///
/// Shared by reference across [`ParallelExecutor`](crate::exec::ParallelExecutor) workers.
/// Concurrent first touches of the same key may each simulate the alone
/// run, but the simulation is deterministic, so every thread computes the
/// same IPC and the first insert wins — results never depend on timing.
#[derive(Debug, Default)]
pub struct AloneIpcCache {
    map: Mutex<HashMap<(ConfigFingerprint, &'static str), f64>>,
}

impl AloneIpcCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct alone runs cached.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.map).len()
    }

    /// Whether no alone run has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached alone IPC for `bench` on `config`, or `None` — never
    /// simulates. For publishing freshly computed entries to the shard
    /// explorer's fleet-shared alone store.
    pub fn peek(&self, config: &SystemConfig, bench: &'static str) -> Option<f64> {
        lock_unpoisoned(&self.map)
            .get(&(ConfigFingerprint::of(config), bench))
            .copied()
    }

    /// Seeds the cache with an alone IPC computed elsewhere (another
    /// worker process, via the shard explorer's shared alone store).
    /// The first value for a key wins, matching [`Self::ipc`]'s insert
    /// discipline — and the simulation is deterministic, so a racing
    /// seed and first-touch computation agree bit for bit anyway.
    pub fn seed(&self, config: &SystemConfig, bench: &'static str, ipc: f64) {
        lock_unpoisoned(&self.map)
            .entry((ConfigFingerprint::of(config), bench))
            .or_insert(ipc);
    }

    /// The alone-run IPC for `bench` on `config`, simulating it on the
    /// first touch and answering from the cache afterwards.
    pub fn ipc(&self, config: &SystemConfig, bench: &'static str, instructions: u64) -> f64 {
        let key = (ConfigFingerprint::of(config), bench);
        if let Some(&v) = lock_unpoisoned(&self.map).get(&key) {
            return v;
        }
        // Simulate outside the lock so one slow alone run never serializes
        // the other workers.
        let mut alone_config = config.clone();
        alone_config.cores = 1;
        // invariant: `bench` comes from a Mix built over the in-tree
        // benchmark table, so the lookup cannot miss.
        let spec = workloads::spec(bench).expect("known benchmark");
        let mut system = System::new(alone_config, rate_mode(spec, 1));
        let ipc = system.run(instructions).per_core[0].ipc();
        *lock_unpoisoned(&self.map).entry(key).or_insert(ipc)
    }
}

/// Runs a mix and computes its weighted speedup, caching alone IPCs.
pub fn run_workload(
    config: &SystemConfig,
    kind: PolicyKind,
    mix: &Mix,
    instructions: u64,
    alone: &AloneIpcCache,
) -> WorkloadRun {
    run_workload_with(config, kind, mix, instructions, alone, |_| {})
}

/// [`run_workload`] with a hook that can attach telemetry to the system
/// before it runs.
///
/// # Panics
///
/// Panics if the policy cannot run on the configuration's architecture
/// (same contract as [`run_mix`]).
pub(crate) fn run_workload_with(
    config: &SystemConfig,
    kind: PolicyKind,
    mix: &Mix,
    instructions: u64,
    alone: &AloneIpcCache,
    attach: impl FnOnce(&mut System),
) -> WorkloadRun {
    let policy = build_policy(kind, config).unwrap_or_else(|e| panic!("{e}"));
    let mut system = System::with_policy(config.clone(), mix.traces(), policy);
    attach(&mut system);
    let result = system.run(instructions);
    let alone_ipcs: Vec<f64> = mix
        .specs
        .iter()
        .map(|s| alone.ipc(config, s.name, instructions))
        .collect();
    let weighted_speedup = result.weighted_speedup(&alone_ipcs);
    WorkloadRun {
        result,
        weighted_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{rate_mix, spec};

    const INSTR: u64 = 30_000;

    #[test]
    fn dap_config_matches_architecture() {
        let c = SystemConfig::sectored_dram_cache(8);
        let d = dap_config_for(&c, 64, 0.75).unwrap();
        assert_eq!(d.architecture, dap_core::CacheArchitecture::SingleBus);
        assert!((d.cache_gbps - 102.4).abs() < 1e-9);
        assert!((d.mm_gbps - 38.4).abs() < 1e-9);

        let e = dap_config_for(&SystemConfig::edram_cache(8, 256), 64, 0.75).unwrap();
        assert_eq!(e.architecture, dap_core::CacheArchitecture::SplitChannel);
        assert_eq!(e.split_channel_gbps, Some(51.2));

        let a = dap_config_for(&SystemConfig::alloy_cache(8), 64, 0.75).unwrap();
        assert_eq!(a.architecture, dap_core::CacheArchitecture::Alloy);
        assert!((a.cache_gbps - 102.4 * 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn cacheless_architectures_report_errors_instead_of_panicking() {
        let flat = SystemConfig::flat_tier(8, mem_sim::mscache::PlacementGoal::MaximizeFastHits);
        let none = SystemConfig::no_cache(8);
        for config in [&flat, &none] {
            let err = dap_config_for(config, 64, 0.75).unwrap_err();
            assert!(err.to_string().contains("memory-side cache"), "{err}");
            assert!(build_policy(PolicyKind::Dap, config).is_err());
            assert!(build_policy(PolicyKind::Batman, config).is_err());
            // Policies that do not steer into a cache still build.
            assert!(build_policy(PolicyKind::Baseline, config).is_ok());
            assert!(build_policy(PolicyKind::Sbd, config).is_ok());
        }
        let err = build_policy(PolicyKind::Batman, &none).err().unwrap();
        assert_eq!(err.architecture, "no-cache");
    }

    #[test]
    fn every_policy_kind_builds_and_runs() {
        let config = SystemConfig::sectored_dram_cache(2);
        let mix = rate_mix(spec("libquantum").unwrap(), 2);
        for kind in [
            PolicyKind::Baseline,
            PolicyKind::Dap,
            PolicyKind::DapMeasured,
            PolicyKind::DapFwbWbOnly,
            PolicyKind::Sbd,
            PolicyKind::SbdWt,
            PolicyKind::Batman,
        ] {
            let r = run_mix(&config, kind, &mix, INSTR);
            assert_eq!(r.per_core.len(), 2, "{kind:?}");
            assert!(
                r.per_core.iter().all(|c| c.instructions == INSTR),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn alone_cache_reuses_runs() {
        let config = SystemConfig::sectored_dram_cache(2);
        let mix = rate_mix(spec("libquantum").unwrap(), 2);
        let cache = AloneIpcCache::new();
        assert!(cache.is_empty());
        let a = run_workload(&config, PolicyKind::Baseline, &mix, INSTR, &cache);
        assert_eq!(cache.len(), 1, "one benchmark, one alone run");
        let b = run_workload(&config, PolicyKind::Baseline, &mix, INSTR, &cache);
        assert_eq!(cache.len(), 1);
        assert!(
            (a.weighted_speedup - b.weighted_speedup).abs() < 1e-12,
            "deterministic"
        );
        assert!(a.weighted_speedup > 0.0);
    }

    #[test]
    fn fwb_wb_only_never_forces_misses() {
        let config = SystemConfig::sectored_dram_cache(8);
        let mix = rate_mix(spec("libquantum").unwrap(), 8);
        let r = run_mix(&config, PolicyKind::DapFwbWbOnly, &mix, 60_000);
        let d = r.dap_decisions.expect("dap stats available");
        assert_eq!(d.ifrm, 0);
        assert_eq!(d.sfrm, 0);
    }
}
