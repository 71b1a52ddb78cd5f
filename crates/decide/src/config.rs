//! Static DAP configuration and lifetime decision statistics.
//!
//! These types are shared by every embedding of the decision library: the
//! simulator-side `DapController` (in `dap-core`), the `dapd` daemon's
//! per-tenant engines, and ad-hoc users of the solvers. They carry no
//! behaviour beyond derivations from their own fields.

use crate::window::WindowBudget;

/// Which memory-side cache architecture the controller manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheArchitecture {
    /// Sectored DRAM cache with a single bidirectional channel set (HBM).
    SingleBus,
    /// Alloy cache: direct-mapped TADs, DBC-gated IFRM, write-through.
    Alloy,
    /// Sectored eDRAM cache with independent read and write channels.
    SplitChannel,
}

/// One of DAP's partitioning techniques.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Drop an incoming read-miss fill.
    FillWriteBypass,
    /// Steer an L3 dirty eviction to main memory.
    WriteBypass,
    /// Serve a known-clean read hit from main memory.
    InformedForcedReadMiss,
    /// Send a read to main memory before its tag lookup resolves.
    SpeculativeForcedReadMiss,
    /// Mirror a write to main memory (Alloy cache only).
    WriteThrough,
}

impl Technique {
    /// All techniques, in the order DAP prefers them.
    pub const ALL: [Technique; 5] = [
        Technique::FillWriteBypass,
        Technique::WriteBypass,
        Technique::InformedForcedReadMiss,
        Technique::SpeculativeForcedReadMiss,
        Technique::WriteThrough,
    ];
}

/// Static configuration of a DAP controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DapConfig {
    /// The cache architecture being managed.
    pub architecture: CacheArchitecture,
    /// Window length `W` in CPU cycles (paper default: 64).
    pub window_cycles: u32,
    /// Bandwidth efficiency `E` in `(0, 1]` (paper default: 0.75).
    pub efficiency: f64,
    /// Memory-side cache effective peak bandwidth in GB/s (for Alloy this is
    /// already the TAD-adjusted 2/3 figure).
    pub cache_gbps: f64,
    /// Per-direction channel bandwidth for split-channel caches.
    pub split_channel_gbps: Option<f64>,
    /// Main memory peak bandwidth in GB/s.
    pub mm_gbps: f64,
    /// CPU clock in GHz (everything is accounted in CPU cycles).
    pub cpu_ghz: f64,
}

impl DapConfig {
    /// The paper's default system: 102.4 GB/s HBM DRAM cache + 38.4 GB/s
    /// dual-channel DDR4-2400, 4 GHz cores, `W = 64`, `E = 0.75`.
    pub fn hbm_ddr4() -> Self {
        Self {
            architecture: CacheArchitecture::SingleBus,
            window_cycles: 64,
            efficiency: 0.75,
            cache_gbps: 102.4,
            split_channel_gbps: None,
            mm_gbps: 38.4,
            cpu_ghz: 4.0,
        }
    }

    /// Alloy cache on the same system: the TAD transfer spends 3 channel
    /// cycles of which 2 move data, so effective bandwidth is 2/3 of peak.
    pub fn alloy_hbm_ddr4() -> Self {
        Self {
            architecture: CacheArchitecture::Alloy,
            cache_gbps: 102.4 * 2.0 / 3.0,
            ..Self::hbm_ddr4()
        }
    }

    /// Sectored eDRAM cache: 51.2 GB/s independent read and write channels.
    pub fn edram_ddr4() -> Self {
        Self {
            architecture: CacheArchitecture::SplitChannel,
            cache_gbps: 51.2,
            split_channel_gbps: Some(51.2),
            ..Self::hbm_ddr4()
        }
    }

    /// Derives the per-window budgets.
    pub fn budget(&self) -> WindowBudget {
        WindowBudget::from_gbps(
            self.cache_gbps,
            self.split_channel_gbps,
            self.mm_gbps,
            self.cpu_ghz,
            self.window_cycles,
            self.efficiency,
        )
    }
}

/// Lifetime counts of DAP activity, for the paper's Fig. 7 decision-mix plot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Fill write bypasses applied.
    pub fwb: u64,
    /// Write bypasses applied.
    pub wb: u64,
    /// Informed forced read misses applied.
    pub ifrm: u64,
    /// Speculative forced read misses applied.
    pub sfrm: u64,
    /// Write-throughs applied (Alloy only).
    pub write_through: u64,
    /// Windows in which partitioning was active.
    pub windows_partitioned: u64,
    /// Total windows observed.
    pub windows_total: u64,
    /// Measured-bandwidth changes that re-derived the window budget.
    pub bandwidth_resolves: u64,
}

impl DecisionStats {
    /// Total partitioning decisions (FWB + WB + IFRM + SFRM; write-through
    /// is bookkept separately because the paper's Fig. 7 does not count it).
    pub fn total_decisions(&self) -> u64 {
        self.fwb + self.wb + self.ifrm + self.sfrm
    }

    /// Fraction of decisions contributed by each technique, in
    /// (FWB, WB, IFRM, SFRM) order; all zeros if no decisions were made.
    pub fn mix(&self) -> [f64; 4] {
        let total = self.total_decisions();
        if total == 0 {
            return [0.0; 4];
        }
        let t = total as f64;
        [
            self.fwb as f64 / t,
            self.wb as f64 / t,
            self.ifrm as f64 / t,
            self.sfrm as f64 / t,
        ]
    }
}
