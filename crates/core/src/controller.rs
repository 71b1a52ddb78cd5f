//! The runtime DAP controller.
//!
//! [`DapController`] is the piece a memory controller instantiates: it
//! accumulates per-window access counts, re-solves the partition at every
//! window boundary, loads the credit counters, and answers "may I apply
//! technique X right now?" queries on the datapath.

use std::sync::Arc;

use crate::alloy::AlloyDapSolver;
use crate::audit::{self, AuditMode, AuditReport, WindowAuditor};
use crate::credits::{CreditBank, CreditCounter};
use crate::degrade::EffectiveBandwidth;
use crate::edram::EdramDapSolver;
use crate::sectored::SectoredDapSolver;
use crate::telemetry::{
    alloy_fractions, alloy_fractions_weighted, edram_fractions, edram_fractions_weighted,
    sectored_fractions, sectored_fractions_weighted, SinkSlot, SourceFractions, TechniqueCounts,
    TelemetrySink, WindowSnapshot,
};
use crate::window::{WindowBudget, WindowStats};

pub use dap_decide::config::{CacheArchitecture, DapConfig, DecisionStats, Technique};

/// The runtime DAP mechanism: observation counters + solver + credit bank.
#[derive(Debug, Clone)]
pub struct DapController {
    config: DapConfig,
    budget: WindowBudget,
    current: WindowStats,
    credits: CreditBank,
    write_through: CreditCounter,
    next_boundary: u64,
    decisions: DecisionStats,
    last_plan_idle: bool,
    sink: SinkSlot,
    window_index: u64,
    /// Decision totals at the previous window boundary, for computing the
    /// per-window applied counts handed to the telemetry sink.
    decisions_at_last_boundary: DecisionStats,
    /// The measured bandwidth the budget was last derived from; `None`
    /// means the nominal config rates are in effect.
    effective: Option<EffectiveBandwidth>,
    /// Checked-mode invariant auditor (`None` when auditing is off).
    auditor: Option<Box<WindowAuditor>>,
    /// Test seam: report a deliberately wrong Eq. 4 ideal at every
    /// boundary, proving the auditor catches a broken solver end to end.
    break_solver: bool,
}

impl DapController {
    /// Creates a controller; the first window starts at cycle zero.
    /// Checked mode follows [`audit::default_mode`] (strict in debug
    /// builds, `DAP_AUDIT`/`--audit` elsewhere).
    pub fn new(config: DapConfig) -> Self {
        Self::with_audit(config, audit::default_mode())
    }

    /// Creates a controller with an explicit audit mode, bypassing the
    /// process-wide default.
    pub fn with_audit(config: DapConfig, mode: AuditMode) -> Self {
        let budget = config.budget();
        Self {
            config,
            budget,
            current: WindowStats::default(),
            credits: CreditBank::new(budget.k),
            write_through: CreditCounter::new(),
            next_boundary: u64::from(config.window_cycles),
            decisions: DecisionStats::default(),
            last_plan_idle: true,
            sink: SinkSlot::new(),
            window_index: 0,
            decisions_at_last_boundary: DecisionStats::default(),
            effective: None,
            auditor: WindowAuditor::new(mode),
            break_solver: false,
        }
    }

    /// Makes every subsequent window boundary report a deliberately
    /// non-proportional Eq. 4 ideal (the fractions still sum to 1, so
    /// only the proportionality invariant can fire). Exists so tests can
    /// prove a broken solver is caught with the right equation
    /// reference; never call it outside a test.
    #[doc(hidden)]
    pub fn break_solver_for_test(&mut self) {
        self.break_solver = true;
    }

    /// The checked-mode report accumulated so far (`None` when auditing
    /// is off).
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.auditor.as_deref().map(WindowAuditor::report)
    }

    /// Lifetime `(cache, mm)` access totals the controller has observed,
    /// when auditing is on — the simulator's channel accounting uses
    /// this for the cross-layer served-access conservation check.
    pub fn audited_totals(&self) -> Option<(u64, u64)> {
        self.auditor.as_deref().map(WindowAuditor::noted_totals)
    }

    /// Installs (or clears, with `None`) a measured-bandwidth input.
    ///
    /// When the resulting budget differs from the one in effect, the
    /// window budget — including `K = B_MS$ / B_MM` — is re-derived so
    /// every subsequent window boundary solves Eq. 4 against *delivered*
    /// rather than nominal bandwidth, and the credit bank is rebuilt
    /// around the new `K`. Rebuilding empties every counter: a source
    /// that just went dark *drains* its outstanding credits instead of
    /// letting the datapath keep steering traffic at a dead device. A
    /// call that does not change the budget (same measurement, or a
    /// change too small to move the integer budgets) is free.
    pub fn set_effective_bandwidth(&mut self, effective: Option<EffectiveBandwidth>) {
        let budget = match &effective {
            Some(e) => e.budget(&self.config),
            None => self.config.budget(),
        };
        self.effective = effective;
        if budget != self.budget {
            self.decisions.bandwidth_resolves += 1;
            self.credits = CreditBank::new(budget.k);
            self.write_through.clear();
            self.budget = budget;
        }
    }

    /// How many times a measured-bandwidth change re-derived the budget.
    pub fn bandwidth_resolves(&self) -> u64 {
        self.decisions.bandwidth_resolves
    }

    /// Attaches a telemetry sink; every subsequent window boundary emits a
    /// [`WindowSnapshot`]. Without a sink the controller skips all snapshot
    /// assembly (one branch per window).
    pub fn attach_sink(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.sink.attach(sink);
    }

    /// The configuration this controller runs with.
    pub fn config(&self) -> &DapConfig {
        &self.config
    }

    /// The derived per-window budgets.
    pub fn budget(&self) -> &WindowBudget {
        &self.budget
    }

    /// Lifetime decision statistics.
    pub fn decisions(&self) -> &DecisionStats {
        &self.decisions
    }

    /// Whether the most recent solve produced no partitioning.
    pub fn is_partitioning(&self) -> bool {
        !self.last_plan_idle
    }

    /// Records an access demanded from the memory-side cache (`A_MS$`).
    /// For split-channel caches pass the direction; single-bus caches may
    /// pass either.
    pub fn note_cache_access(&mut self, is_write: bool) {
        self.current.cache_accesses += 1;
        if is_write {
            self.current.cache_write_accesses += 1;
        } else {
            self.current.cache_read_accesses += 1;
        }
        if let Some(auditor) = &mut self.auditor {
            auditor.note_cache_access();
        }
    }

    /// Records an access demanded from main memory (`A_MM`).
    pub fn note_mm_access(&mut self) {
        self.current.mm_accesses += 1;
        if let Some(auditor) = &mut self.auditor {
            auditor.note_mm_access();
        }
    }

    /// Records a read miss in the memory-side cache (`Rm`).
    pub fn note_read_miss(&mut self) {
        self.current.read_misses += 1;
    }

    /// Records a write arriving at the memory-side cache (`Wm`).
    pub fn note_write(&mut self) {
        self.current.writes += 1;
    }

    /// Records a read hit to a clean line (or, for Alloy, a read whose DBC
    /// lookup found a non-dirty set) — an IFRM candidate.
    pub fn note_clean_read_hit(&mut self) {
        self.current.clean_read_hits += 1;
    }

    /// Advances time; at window boundaries, solves and reloads credits.
    /// Call with a monotonically non-decreasing cycle count.
    pub fn tick(&mut self, now_cycle: u64) {
        let w = u64::from(self.config.window_cycles);
        // A caller stalled on a faulted device can next touch the
        // controller astronomically late (an access deferred toward the
        // fault horizon). The windows in between are empty, and one
        // empty end_window() already applies the full idle transition
        // (credits cleared, idle plan recorded), so beyond a threshold
        // no real run ever crosses, the repeats are folded into the
        // window counter instead of being stepped one by one.
        const IDLE_FOLD_WINDOWS: u64 = 1 << 20;
        if now_cycle >= self.next_boundary {
            let pending = (now_cycle - self.next_boundary) / w + 1;
            if pending > IDLE_FOLD_WINDOWS {
                self.end_window(); // the window holding the observed stats
                self.decisions.windows_total += pending - 2;
                self.next_boundary += (pending - 1) * w;
            }
        }
        while now_cycle >= self.next_boundary {
            self.end_window();
            self.next_boundary += w;
        }
    }

    /// Ends the current window immediately: solve, reload credits, reset
    /// the observation counters.
    pub fn end_window(&mut self) {
        let stats = std::mem::take(&mut self.current);
        self.boundary(&stats);
    }

    /// Ends a window using externally collected statistics (useful in tests
    /// and in simulators that keep their own counters). Bypassing the
    /// `note_*` counters disables the auditor's served-access conservation
    /// check, which is only meaningful for internally accumulated stats.
    pub fn end_window_with(&mut self, stats: &WindowStats) {
        if let Some(auditor) = &mut self.auditor {
            auditor.note_external_stats();
        }
        self.boundary(stats);
    }

    fn boundary(&mut self, stats: &WindowStats) {
        self.decisions.windows_total += 1;
        // Snapshot assembly (granted counts + solved fractions) happens
        // only when a sink or the auditor consumes it; the solve itself
        // is always needed.
        let traced = self.sink.is_attached() || self.auditor.is_some();
        let mut granted = TechniqueCounts::default();
        let mut fractions: Option<SourceFractions> = None;
        let mut weights = [0.0f64; crate::telemetry::MAX_SOURCES];
        match self.config.architecture {
            CacheArchitecture::SingleBus => {
                let plan = SectoredDapSolver::new(self.budget).solve(stats);
                self.last_plan_idle = plan.is_idle();
                if plan.is_idle() {
                    self.credits.clear();
                } else {
                    self.decisions.windows_partitioned += 1;
                    self.credits.fwb.refill(plan.n_fwb);
                    self.credits.wb.refill_scaled(plan.wb_scaled);
                    self.credits.ifrm.refill_scaled(plan.ifrm_scaled);
                    self.credits.sfrm.refill(plan.n_sfrm);
                }
                if traced {
                    granted = TechniqueCounts {
                        fwb: plan.n_fwb,
                        wb: plan.n_wb(),
                        ifrm: plan.n_ifrm(),
                        sfrm: plan.n_sfrm,
                        write_through: 0,
                    };
                    fractions = Some(match &self.effective {
                        Some(e) => {
                            weights = [e.cache_gbps, e.mm_gbps, 0.0];
                            sectored_fractions_weighted(stats, &plan, e.cache_gbps, e.mm_gbps)
                        }
                        None => {
                            let k = self.budget.k;
                            weights = [f64::from(k.numerator()), f64::from(k.denominator()), 0.0];
                            sectored_fractions(stats, &plan, k)
                        }
                    });
                }
            }
            CacheArchitecture::Alloy => {
                let plan = AlloyDapSolver::new(self.budget).solve(stats);
                self.last_plan_idle = plan.is_idle();
                if plan.n_ifrm == 0 {
                    self.credits.ifrm.clear();
                } else {
                    self.decisions.windows_partitioned += 1;
                    self.credits.ifrm.refill_applications(plan.n_ifrm);
                }
                if plan.n_write_through == 0 {
                    self.write_through.clear();
                } else {
                    self.write_through.refill(plan.n_write_through);
                }
                if traced {
                    granted = TechniqueCounts {
                        ifrm: plan.n_ifrm,
                        write_through: plan.n_write_through,
                        ..TechniqueCounts::default()
                    };
                    fractions = Some(match &self.effective {
                        Some(e) => {
                            weights = [e.cache_gbps, e.mm_gbps, 0.0];
                            alloy_fractions_weighted(stats, &plan, e.cache_gbps, e.mm_gbps)
                        }
                        None => {
                            let k = self.budget.k;
                            weights = [f64::from(k.numerator()), f64::from(k.denominator()), 0.0];
                            alloy_fractions(stats, &plan, k)
                        }
                    });
                }
            }
            CacheArchitecture::SplitChannel => {
                let plan = EdramDapSolver::new(self.budget).solve(stats);
                self.last_plan_idle = plan.is_idle();
                if plan.is_idle() {
                    self.credits.clear();
                } else {
                    self.decisions.windows_partitioned += 1;
                    self.credits.fwb.refill(plan.n_fwb);
                    self.credits.wb.refill_applications(plan.n_wb);
                    self.credits.ifrm.refill_applications(plan.n_ifrm);
                }
                if traced {
                    granted = TechniqueCounts {
                        fwb: plan.n_fwb,
                        wb: plan.n_wb,
                        ifrm: plan.n_ifrm,
                        sfrm: 0,
                        write_through: 0,
                    };
                    fractions = Some(match &self.effective {
                        Some(e) => {
                            let dir = e.split_channel_gbps.unwrap_or(e.cache_gbps);
                            weights = [dir, dir, e.mm_gbps];
                            edram_fractions_weighted(stats, &plan, dir, dir, e.mm_gbps)
                        }
                        None => {
                            let k = self.budget.k;
                            let num = f64::from(k.numerator());
                            weights = [num, num, f64::from(k.denominator())];
                            edram_fractions(stats, &plan, k)
                        }
                    });
                }
            }
        }
        let index = self.window_index;
        self.window_index += 1;
        // Every arch arm above fills `fractions` exactly when `traced`;
        // the let-else (rather than an `expect`) keeps the non-traced
        // path panic-free.
        let Some(mut fractions) = fractions else {
            return;
        };
        debug_assert!(traced);
        if self.break_solver {
            // Swapping the first two ideal entries keeps Σf = 1 while
            // breaking proportionality whenever the sources differ.
            fractions.ideal.swap(0, 1);
        }
        let d = &self.decisions;
        let p = &self.decisions_at_last_boundary;
        let applied = TechniqueCounts {
            fwb: (d.fwb - p.fwb) as u32,
            wb: (d.wb - p.wb) as u32,
            ifrm: (d.ifrm - p.ifrm) as u32,
            sfrm: (d.sfrm - p.sfrm) as u32,
            write_through: (d.write_through - p.write_through) as u32,
        };
        self.decisions_at_last_boundary = self.decisions;
        let snapshot = WindowSnapshot {
            window_index: index,
            end_cycle: (index + 1) * u64::from(self.config.window_cycles),
            stats: *stats,
            partitioned: !self.last_plan_idle,
            granted,
            applied,
            fractions,
        };
        if let Some(auditor) = &mut self.auditor {
            // In strict mode a violation panics inside check_window; in
            // observe mode the violations come back for the sink.
            let violations = auditor.check_window(&snapshot, weights);
            if let Some(sink) = self.sink.get() {
                for violation in &violations {
                    sink.record_violation(violation);
                }
            }
        }
        if let Some(sink) = self.sink.get() {
            sink.record_window(&snapshot);
        }
    }

    /// Attempts to apply a technique; consumes one credit and bumps the
    /// decision statistics on success.
    pub fn try_apply(&mut self, technique: Technique) -> bool {
        let ok = match technique {
            Technique::FillWriteBypass => self.credits.fwb.try_consume(),
            Technique::WriteBypass => self.credits.wb.try_consume(),
            Technique::InformedForcedReadMiss => self.credits.ifrm.try_consume(),
            Technique::SpeculativeForcedReadMiss => self.credits.sfrm.try_consume(),
            Technique::WriteThrough => self.write_through.try_consume(),
        };
        if ok {
            match technique {
                Technique::FillWriteBypass => self.decisions.fwb += 1,
                Technique::WriteBypass => self.decisions.wb += 1,
                Technique::InformedForcedReadMiss => self.decisions.ifrm += 1,
                Technique::SpeculativeForcedReadMiss => self.decisions.sfrm += 1,
                Technique::WriteThrough => self.decisions.write_through += 1,
            }
        }
        ok
    }

    /// Remaining credits for a technique (diagnostics).
    pub fn credits_remaining(&self, technique: Technique) -> u32 {
        match technique {
            Technique::FillWriteBypass => self.credits.fwb.remaining(),
            Technique::WriteBypass => self.credits.wb.remaining_applications(),
            Technique::InformedForcedReadMiss => self.credits.ifrm.remaining_applications(),
            Technique::SpeculativeForcedReadMiss => self.credits.sfrm.remaining(),
            Technique::WriteThrough => self.write_through.remaining(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressured_stats() -> WindowStats {
        WindowStats {
            cache_accesses: 40,
            mm_accesses: 2,
            read_misses: 6,
            writes: 10,
            clean_read_hits: 12,
            ..Default::default()
        }
    }

    #[test]
    fn window_boundary_triggers_solve() {
        let mut dap = DapController::new(DapConfig::hbm_ddr4());
        for _ in 0..40 {
            dap.note_cache_access(false);
        }
        for _ in 0..6 {
            dap.note_read_miss();
        }
        dap.note_mm_access();
        dap.note_mm_access();
        assert!(
            !dap.try_apply(Technique::FillWriteBypass),
            "no credits before boundary"
        );
        dap.tick(64);
        assert!(dap.try_apply(Technique::FillWriteBypass));
    }

    #[test]
    fn tick_catches_up_over_multiple_windows() {
        let mut dap = DapController::new(DapConfig::hbm_ddr4());
        dap.tick(64 * 10);
        assert_eq!(dap.decisions().windows_total, 10);
    }

    #[test]
    fn idle_plan_clears_stale_credits() {
        let mut dap = DapController::new(DapConfig::hbm_ddr4());
        dap.end_window_with(&pressured_stats());
        assert!(dap.credits_remaining(Technique::FillWriteBypass) > 0);
        // A calm window follows: everything is cleared.
        dap.end_window_with(&WindowStats::default());
        for t in Technique::ALL {
            assert_eq!(dap.credits_remaining(t), 0, "{t:?} should be cleared");
        }
    }

    #[test]
    fn decisions_accumulate() {
        let mut dap = DapController::new(DapConfig::hbm_ddr4());
        dap.end_window_with(&pressured_stats());
        while dap.try_apply(Technique::FillWriteBypass) {}
        while dap.try_apply(Technique::WriteBypass) {}
        let d = *dap.decisions();
        assert!(d.fwb > 0);
        assert!(d.wb > 0);
        assert_eq!(d.total_decisions(), d.fwb + d.wb);
        let mix = d.mix();
        assert!((mix.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alloy_controller_uses_ifrm_and_write_through() {
        let mut dap = DapController::new(DapConfig::alloy_hbm_ddr4());
        let stats = WindowStats {
            cache_accesses: 30,
            mm_accesses: 1,
            writes: 10,
            clean_read_hits: 3,
            ..Default::default()
        };
        dap.end_window_with(&stats);
        assert!(dap.try_apply(Technique::InformedForcedReadMiss));
        assert!(dap.try_apply(Technique::WriteThrough));
        assert!(
            !dap.try_apply(Technique::FillWriteBypass),
            "alloy never does FWB credits"
        );
    }

    #[test]
    fn edram_controller_routes_split_channels() {
        let mut dap = DapController::new(DapConfig::edram_ddr4());
        let stats = WindowStats {
            cache_read_accesses: 20,
            cache_write_accesses: 3,
            cache_accesses: 23,
            mm_accesses: 2,
            read_misses: 5,
            writes: 5,
            clean_read_hits: 15,
        };
        dap.end_window_with(&stats);
        assert!(dap.try_apply(Technique::InformedForcedReadMiss));
        assert!(
            !dap.try_apply(Technique::SpeculativeForcedReadMiss),
            "eDRAM has on-die tags"
        );
    }

    #[test]
    fn note_methods_feed_window_stats() {
        let mut dap = DapController::new(DapConfig::edram_ddr4());
        for _ in 0..20 {
            dap.note_cache_access(false);
            dap.note_clean_read_hit();
        }
        dap.note_cache_access(true);
        dap.note_mm_access();
        dap.end_window();
        // Read channel pressure (20 > 9) should produce IFRM credits.
        assert!(dap.credits_remaining(Technique::InformedForcedReadMiss) > 0);
    }

    #[test]
    fn degraded_bandwidth_rebuilds_budget_and_drains_credits() {
        let config = DapConfig::hbm_ddr4();
        let mut dap = DapController::new(config);
        dap.end_window_with(&pressured_stats());
        assert!(dap.credits_remaining(Technique::FillWriteBypass) > 0);
        // Cache throttled to half rate: budget shrinks, K halves, and the
        // rebuilt credit bank starts empty.
        dap.set_effective_bandwidth(Some(EffectiveBandwidth::scaled(&config, 0.5, 1.0)));
        assert_eq!(dap.bandwidth_resolves(), 1);
        assert_eq!(dap.budget().cache_budget, 9);
        for t in Technique::ALL {
            assert_eq!(dap.credits_remaining(t), 0, "{t:?} must be drained");
        }
        // Restoring nominal bandwidth re-derives the original budget.
        dap.set_effective_bandwidth(None);
        assert_eq!(dap.bandwidth_resolves(), 2);
        assert_eq!(*dap.budget(), config.budget());
    }

    #[test]
    fn unchanged_measurement_does_not_count_as_resolve() {
        let config = DapConfig::hbm_ddr4();
        let mut dap = DapController::new(config);
        dap.set_effective_bandwidth(Some(EffectiveBandwidth::nominal(&config)));
        assert_eq!(
            dap.bandwidth_resolves(),
            0,
            "nominal rates leave the budget alone"
        );
    }

    #[test]
    fn dark_mm_grants_nothing_mm_bound() {
        let config = DapConfig::hbm_ddr4();
        let mut dap = DapController::new(config);
        dap.set_effective_bandwidth(Some(EffectiveBandwidth::scaled(&config, 1.0, 0.0)));
        dap.end_window_with(&pressured_stats());
        // With main memory dark there is no headroom to move anything to
        // it: WB / IFRM / SFRM must all stay at zero.
        assert_eq!(dap.credits_remaining(Technique::WriteBypass), 0);
        assert_eq!(dap.credits_remaining(Technique::InformedForcedReadMiss), 0);
        assert_eq!(
            dap.credits_remaining(Technique::SpeculativeForcedReadMiss),
            0
        );
    }

    #[test]
    fn dark_cache_steers_everything_to_mm() {
        let config = DapConfig::hbm_ddr4();
        let mut dap = DapController::new(config);
        dap.set_effective_bandwidth(Some(EffectiveBandwidth::scaled(&config, 0.0, 1.0)));
        dap.end_window_with(&pressured_stats());
        // A dark cache makes every fill droppable and every write/clean
        // hit a candidate to move, bounded by mm headroom.
        assert!(dap.credits_remaining(Technique::FillWriteBypass) > 0);
        assert!(
            dap.credits_remaining(Technique::WriteBypass) > 0
                || dap.credits_remaining(Technique::InformedForcedReadMiss) > 0
        );
    }

    #[test]
    fn partitioning_flag_tracks_last_plan() {
        let mut dap = DapController::new(DapConfig::hbm_ddr4());
        assert!(!dap.is_partitioning());
        dap.end_window_with(&pressured_stats());
        assert!(dap.is_partitioning());
        dap.end_window_with(&WindowStats::default());
        assert!(!dap.is_partitioning());
    }
}
