//! Checked simulation mode: runtime verification of DAP's conservation
//! laws.
//!
//! DAP's correctness rests on a handful of per-window invariants — the
//! Eq. 4 partition `B_1/f_1 = … = B_n/f_n`, fraction conservation
//! `Σ f_i = 1` (Eq. 2's domain), credit counters that never go negative,
//! monotone window stamps, and access-count conservation between the
//! simulator's channel accounting and the controller's window counters.
//! A bug in any of them silently corrupts every downstream figure. This
//! module makes the laws *checked*: a [`WindowAuditor`] attached to the
//! controller re-verifies each [`WindowSnapshot`][crate::WindowSnapshot]
//! at the boundary where it is produced.
//!
//! ## Modes
//!
//! * [`AuditMode::Strict`] — the first violation panics with the full
//!   [`AuditViolation`] (window id, source, expected/actual, equation
//!   reference). This is the *one* deliberate panic class left in the
//!   library surface: it fires only on internal-consistency bugs, never
//!   on user input, and the experiment harness's per-cell `catch_unwind`
//!   turns it into a structured `CellError`.
//! * [`AuditMode::Observe`] — violations are counted (globally and in
//!   the per-controller [`AuditReport`]) and forwarded to any attached
//!   [`TelemetrySink`][crate::TelemetrySink], but execution continues.
//! * [`AuditMode::Off`] — no checking, no snapshot assembly overhead.
//!
//! The default is `Strict` in debug builds and `Off` in release builds;
//! the `DAP_AUDIT` environment variable (`1`/`strict`, `observe`,
//! `0`/`off`) and the figure binaries' `--audit` flag override it. The
//! `audit-off` cargo feature compiles the whole machinery to no-ops
//! (mirroring `telemetry-off`), for builds that must not even carry the
//! mode checks.
//!
//! Auditing never mutates simulation state: an audited run and an
//! unaudited run of the same configuration produce bit-identical
//! results.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::telemetry::{WindowSnapshot, MAX_SOURCES};
use crate::window::WindowStats;

/// Whether this build performs audit checks (`false` under `audit-off`).
pub const fn enabled() -> bool {
    cfg!(not(feature = "audit-off"))
}

/// How strictly the auditor reacts to a violated invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// No checking at all.
    Off,
    /// Count violations (and forward them to the telemetry sink) but
    /// keep running.
    Observe,
    /// Panic on the first violation. The experiment harness catches the
    /// panic per cell and surfaces it as a structured `CellError`.
    Strict,
}

/// The environment variable controlling the default audit mode:
/// `1`/`strict`/`on` → [`AuditMode::Strict`], `observe`/`count` →
/// [`AuditMode::Observe`], `0`/`off`/`false` → [`AuditMode::Off`].
/// Unset falls back to `Strict` in debug builds and `Off` in release.
pub const AUDIT_ENV: &str = "DAP_AUDIT";

/// Process-wide mode override installed by `--audit`-style CLI flags:
/// 0 = unset, otherwise 1 + (mode as u8).
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Process-wide count of violations observed (all controllers, all
/// threads) in [`AuditMode::Observe`]. Strict-mode panics also bump this
/// before unwinding, so harnesses that catch the panic still see it.
static OBSERVED_VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Installs (or clears) a process-wide audit mode override that takes
/// precedence over [`AUDIT_ENV`] and the build default. Used by the
/// `--audit` flag of the figure binaries.
pub fn set_mode_override(mode: Option<AuditMode>) {
    let encoded = match mode {
        None => 0,
        Some(AuditMode::Off) => 1,
        Some(AuditMode::Observe) => 2,
        Some(AuditMode::Strict) => 3,
    };
    MODE_OVERRIDE.store(encoded, Ordering::Relaxed);
}

/// Total violations recorded process-wide (see [`OBSERVED_VIOLATIONS`]).
pub fn observed_violations() -> u64 {
    OBSERVED_VIOLATIONS.load(Ordering::Relaxed)
}

/// Parses an audit-mode spelling (the `DAP_AUDIT` / `--audit` grammar):
/// `""`/`"0"`/`"off"`/`"false"`/`"no"` → `Off`, `"observe"`/`"count"` →
/// `Observe`, anything else (`"1"`, `"strict"`, `"on"`, ...) → `Strict`.
pub fn parse_mode(value: &str) -> AuditMode {
    match value.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "false" | "no" => AuditMode::Off,
        "observe" | "count" => AuditMode::Observe,
        // Any other non-empty value is a request *for* auditing; the
        // documented spellings are "1", "strict", and "on".
        _ => AuditMode::Strict,
    }
}

/// The audit mode newly created controllers run with: the
/// [`set_mode_override`] value if set, else [`AUDIT_ENV`] if set, else
/// `Strict` in debug builds and `Off` in release builds. Always `Off`
/// under the `audit-off` feature.
pub fn default_mode() -> AuditMode {
    if !enabled() {
        return AuditMode::Off;
    }
    match MODE_OVERRIDE.load(Ordering::Relaxed) {
        1 => return AuditMode::Off,
        2 => return AuditMode::Observe,
        3 => return AuditMode::Strict,
        _ => {}
    }
    match std::env::var(AUDIT_ENV) {
        Ok(value) => parse_mode(&value),
        Err(_) => {
            if cfg!(debug_assertions) {
                AuditMode::Strict
            } else {
                AuditMode::Off
            }
        }
    }
}

/// Which conservation law a violation broke. Each variant carries the
/// paper-equation reference the check derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// `Σ f_i = 1` over the bandwidth sources, and every `f_i ∈ [0, 1]`
    /// (the domain Eq. 2 is defined over).
    FractionConservation,
    /// The reported Eq. 4 ideal must be the bandwidth-proportional
    /// vector `f_i = B_i / ΣB`, and an active plan must not move the
    /// solved partition *away* from it.
    Eq4Proportionality,
    /// Credits applied in a window never exceed the credits granted and
    /// still available — the counters can never go negative (Section
    /// IV-B's `MAX_APPLICATIONS_PER_WINDOW`-capped counters).
    CreditConservation,
    /// Window indices advance by one and end-cycle stamps strictly
    /// increase.
    MonotoneWindows,
    /// Accesses counted by the simulator's channel accounting equal the
    /// accesses accumulated into the controller's windows (Eq. 1/2
    /// served-access conservation).
    ServedConservation,
}

impl Invariant {
    /// The paper-equation (or section) reference for the invariant.
    pub fn equation(&self) -> &'static str {
        match self {
            Invariant::FractionConservation => "Eq. 2 (Σf = 1)",
            Invariant::Eq4Proportionality => "Eq. 4 (B_i/f_i equalized)",
            Invariant::CreditConservation => "Sec. IV-B (credit counters)",
            Invariant::MonotoneWindows => "Sec. IV-A (window W)",
            Invariant::ServedConservation => "Eq. 1/2 (access conservation)",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.equation())
    }
}

/// One violated invariant, located precisely.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Zero-based index of the window at whose boundary the check fired.
    pub window_index: u64,
    /// The broken law (carries the equation reference).
    pub invariant: Invariant,
    /// Which bandwidth source (or technique lane) tripped the check,
    /// when the invariant is per-source; e.g. `"mm"`, `"cache"`,
    /// `"read"`, `"wb"`.
    pub source: &'static str,
    /// The value the invariant requires.
    pub expected: f64,
    /// The value observed.
    pub actual: f64,
    /// Human-readable elaboration (which quantity, which bound).
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit violation [{}] window {} source {}: {} (expected {}, got {})",
            self.invariant.equation(),
            self.window_index,
            self.source,
            self.detail,
            self.expected,
            self.actual,
        )
    }
}

/// A strict-mode audit failure as a typed error (the panic payload's
/// `Display` form carries the same content).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditError {
    /// The violation that failed the run.
    pub violation: AuditViolation,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.violation, f)
    }
}

impl std::error::Error for AuditError {}

/// Per-invariant violation counts plus the first few violations seen.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Windows checked.
    pub windows_checked: u64,
    /// Total violations recorded.
    pub violations: u64,
    /// The first violations (capped) for diagnostics.
    pub first: Vec<AuditViolation>,
}

impl AuditReport {
    /// How many of the first violations are retained in [`first`].
    ///
    /// [`first`]: AuditReport::first
    pub const RETAINED: usize = 16;

    /// `Ok` when no violation was recorded; otherwise the first one as a
    /// typed [`AuditError`].
    pub fn into_result(self) -> Result<(), AuditError> {
        match self.first.into_iter().next() {
            None => Ok(()),
            Some(violation) => Err(AuditError { violation }),
        }
    }
}

/// Absolute tolerance for `Σf = 1` and for comparing the reported ideal
/// against an independent recomputation (pure floating-point noise).
pub const SUM_TOL: f64 = 1e-9;

/// Slack for the "plan moves toward the ideal" check, beyond per-access
/// granularity: the rational `K ≈ B_MS$/B_MM` encoding is only accurate
/// to 5% (`Ratio::approximate`), and each technique's integer rounding
/// can land the partition a few accesses past the target.
pub const PROPORTIONALITY_SLACK: f64 = 0.05;

const TECHNIQUES: [&str; 5] = ["fwb", "wb", "ifrm", "sfrm", "write_through"];

/// The per-technique credit cap (mirrors
/// [`credits::MAX_APPLICATIONS_PER_WINDOW`][crate::credits]).
const CREDIT_CAP: u64 = crate::credits::MAX_APPLICATIONS_PER_WINDOW as u64;

/// Checks every window boundary of one controller. Owned by
/// [`DapController`][crate::DapController]; never mutates anything the
/// simulation reads.
#[derive(Debug, Clone)]
pub struct WindowAuditor {
    mode: AuditMode,
    report: AuditReport,
    /// Last window index / end cycle seen, for the monotonicity check.
    last: Option<(u64, u64)>,
    /// Conservative upper bound of credits available per technique
    /// (fwb, wb, ifrm, sfrm, write_through): clears only ever *reduce*
    /// the real counters below this model, so `applied > available`
    /// proves a real conservation bug without false positives.
    available: [u64; 5],
    /// Lifetime access counts the controller's `note_*` methods fed in.
    noted_cache: u64,
    noted_mm: u64,
    /// Lifetime access counts summed over emitted window snapshots.
    windowed_cache: u64,
    windowed_mm: u64,
    /// Set when `end_window_with` was driven by externally collected
    /// stats (tests); disables the noted-vs-windowed conservation check,
    /// which is only meaningful for internally accumulated counters.
    external_stats: bool,
}

impl WindowAuditor {
    /// A fresh auditor in `mode`; returns `None` for [`AuditMode::Off`]
    /// (and always under the `audit-off` feature), so the controller
    /// carries no audit state at all when disabled.
    pub fn new(mode: AuditMode) -> Option<Box<Self>> {
        if !enabled() || mode == AuditMode::Off {
            return None;
        }
        Some(Box::new(Self {
            mode,
            report: AuditReport::default(),
            last: None,
            available: [0; 5],
            noted_cache: 0,
            noted_mm: 0,
            windowed_cache: 0,
            windowed_mm: 0,
            external_stats: false,
        }))
    }

    /// The violations recorded so far.
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    /// Lifetime `(cache, mm)` access totals fed in through
    /// [`note_cache_access`](Self::note_cache_access) /
    /// [`note_mm_access`](Self::note_mm_access).
    pub fn noted_totals(&self) -> (u64, u64) {
        (self.noted_cache, self.noted_mm)
    }

    /// Marks one cache access observed by the controller.
    pub fn note_cache_access(&mut self) {
        self.noted_cache += 1;
    }

    /// Marks one main-memory access observed by the controller.
    pub fn note_mm_access(&mut self) {
        self.noted_mm += 1;
    }

    /// Marks that window stats were supplied externally (disables the
    /// noted-vs-windowed conservation check).
    pub fn note_external_stats(&mut self) {
        self.external_stats = true;
    }

    fn record(&mut self, violation: AuditViolation) {
        self.report.violations += 1;
        OBSERVED_VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        if self.report.first.len() < AuditReport::RETAINED {
            self.report.first.push(violation.clone());
        }
        if self.mode == AuditMode::Strict {
            // invariant: a strict-mode violation is an internal
            // consistency bug, not a user-input error; fail fast so the
            // harness's per-cell catch_unwind reports it structurally.
            panic!("{violation}");
        }
    }

    /// Runs every check against one window-boundary snapshot.
    ///
    /// `weights` are the per-source bandwidth weights the controller
    /// solved against (the rational `K`'s numerator/denominator, or the
    /// measured GB/s figures) — only the first `snapshot.fractions
    /// .sources` entries are meaningful.
    pub fn check_window(
        &mut self,
        snapshot: &WindowSnapshot,
        weights: [f64; MAX_SOURCES],
    ) -> Vec<AuditViolation> {
        if !enabled() {
            return Vec::new();
        }
        let before = self.report.first.len();
        self.report.windows_checked += 1;
        self.check_monotone(snapshot);
        self.check_fraction_conservation(snapshot);
        self.check_eq4(snapshot, weights);
        self.check_credits(snapshot);
        self.check_served(snapshot);
        self.report.first[before..].to_vec()
    }

    fn check_monotone(&mut self, s: &WindowSnapshot) {
        if let Some((index, end_cycle)) = self.last {
            if s.window_index != index + 1 {
                self.record(AuditViolation {
                    window_index: s.window_index,
                    invariant: Invariant::MonotoneWindows,
                    source: "index",
                    expected: (index + 1) as f64,
                    actual: s.window_index as f64,
                    detail: "window indices must advance by exactly one".into(),
                });
            }
            if s.end_cycle <= end_cycle {
                self.record(AuditViolation {
                    window_index: s.window_index,
                    invariant: Invariant::MonotoneWindows,
                    source: "end_cycle",
                    expected: (end_cycle + 1) as f64,
                    actual: s.end_cycle as f64,
                    detail: "end-cycle stamps must strictly increase".into(),
                });
            }
        }
        self.last = Some((s.window_index, s.end_cycle));
    }

    fn check_fraction_conservation(&mut self, s: &WindowSnapshot) {
        let f = &s.fractions;
        let n = usize::from(f.sources);
        for (name, values) in [("solved", &f.solved), ("ideal", &f.ideal)] {
            let sum: f64 = values[..n].iter().sum();
            if (sum - 1.0).abs() > SUM_TOL {
                self.record(AuditViolation {
                    window_index: s.window_index,
                    invariant: Invariant::FractionConservation,
                    source: if name == "solved" { "solved" } else { "ideal" },
                    expected: 1.0,
                    actual: sum,
                    detail: format!("{name} fractions must sum to 1 over {n} sources"),
                });
                return;
            }
            if let Some(&bad) = values[..n]
                .iter()
                .find(|v| !v.is_finite() || **v < -SUM_TOL || **v > 1.0 + SUM_TOL)
            {
                self.record(AuditViolation {
                    window_index: s.window_index,
                    invariant: Invariant::FractionConservation,
                    source: if name == "solved" { "solved" } else { "ideal" },
                    expected: 0.0,
                    actual: bad,
                    detail: format!("every {name} fraction must lie in [0, 1]"),
                });
                return;
            }
        }
    }

    fn check_eq4(&mut self, s: &WindowSnapshot, weights: [f64; MAX_SOURCES]) {
        let f = &s.fractions;
        let n = usize::from(f.sources);
        // (a) The reported ideal must be the normalized weight vector
        // f_i = B_i / ΣB (uniform when every source is dark) — recomputed
        // here independently of the telemetry builders.
        let expected = ideal_from_weights(f.sources, weights);
        for i in 0..n {
            if (f.ideal[i] - expected[i]).abs() > SUM_TOL {
                self.record(AuditViolation {
                    window_index: s.window_index,
                    invariant: Invariant::Eq4Proportionality,
                    source: SOURCE_NAMES[n - 2][i],
                    expected: expected[i],
                    actual: f.ideal[i],
                    detail: "ideal fraction must be bandwidth-proportional (B_i / ΣB)".into(),
                });
                return;
            }
        }
        // (b) An active plan must not move the partition away from the
        // ideal: the solved deviation may exceed the unpartitioned
        // (raw traffic) deviation only by rational-K error plus integer
        // granularity.
        if !s.partitioned {
            return;
        }
        let raw = raw_fractions(&s.stats, f.sources);
        let total: f64 = raw.iter().take(n).sum();
        if total <= 0.0 {
            return;
        }
        let mut raw_dev = 0.0f64;
        for i in 0..n {
            raw_dev = raw_dev.max((raw[i] / total - expected[i]).abs());
        }
        let granted = s.granted.total() as f64;
        let slack = PROPORTIONALITY_SLACK + (2.0 * granted + 8.0) / total;
        let solved_dev = f.max_deviation();
        if solved_dev > raw_dev + slack {
            self.record(AuditViolation {
                window_index: s.window_index,
                invariant: Invariant::Eq4Proportionality,
                source: "plan",
                expected: raw_dev + slack,
                actual: solved_dev,
                detail: format!(
                    "an active plan moved the partition away from the Eq. 4 \
                     ideal (deviation {solved_dev:.4} vs unpartitioned {raw_dev:.4})"
                ),
            });
        }
    }

    fn check_credits(&mut self, s: &WindowSnapshot) {
        let applied = [
            s.applied.fwb,
            s.applied.wb,
            s.applied.ifrm,
            s.applied.sfrm,
            s.applied.write_through,
        ];
        let granted = [
            s.granted.fwb,
            s.granted.wb,
            s.granted.ifrm,
            s.granted.sfrm,
            s.granted.write_through,
        ];
        for lane in 0..5 {
            let used = u64::from(applied[lane]);
            if used > self.available[lane] {
                self.record(AuditViolation {
                    window_index: s.window_index,
                    invariant: Invariant::CreditConservation,
                    source: TECHNIQUES[lane],
                    expected: self.available[lane] as f64,
                    actual: used as f64,
                    detail: "applied credits exceed the credits ever granted \
                             and still available (counter went negative)"
                        .into(),
                });
                // Keep the model consistent so one bug reports once.
                self.available[lane] = used;
            }
            self.available[lane] =
                (self.available[lane] - used + u64::from(granted[lane])).min(CREDIT_CAP);
        }
    }

    fn check_served(&mut self, s: &WindowSnapshot) {
        self.windowed_cache += u64::from(s.stats.cache_accesses);
        self.windowed_mm += u64::from(s.stats.mm_accesses);
        if self.external_stats {
            return;
        }
        for (name, windowed, noted) in [
            ("cache", self.windowed_cache, self.noted_cache),
            ("mm", self.windowed_mm, self.noted_mm),
        ] {
            if windowed != noted {
                self.record(AuditViolation {
                    window_index: s.window_index,
                    invariant: Invariant::ServedConservation,
                    source: name,
                    expected: noted as f64,
                    actual: windowed as f64,
                    detail: format!(
                        "sum of per-window {name} accesses must equal the \
                         accesses the controller observed (none lost or \
                         double-counted at boundaries)"
                    ),
                });
                return;
            }
        }
    }
}

/// Source labels for two-source (cache/mm) and three-source
/// (read/write/mm) architectures, indexed by `sources - 2`.
const SOURCE_NAMES: [[&str; MAX_SOURCES]; 2] = [["cache", "mm", ""], ["read", "write", "mm"]];

/// The Eq. 4 bandwidth-proportional ideal for raw weights: normalized,
/// clamped at zero, uniform when all sources are dark — the same rule
/// the telemetry fraction builders use.
pub fn ideal_from_weights(sources: u8, weights: [f64; MAX_SOURCES]) -> [f64; MAX_SOURCES] {
    let n = usize::from(sources);
    let mut ideal = [0.0; MAX_SOURCES];
    let sum: f64 = weights[..n].iter().map(|w| w.max(0.0)).sum();
    if sum > 0.0 {
        for i in 0..n {
            ideal[i] = weights[i].max(0.0) / sum;
        }
    } else {
        for slot in ideal.iter_mut().take(n) {
            *slot = 1.0 / n as f64;
        }
    }
    ideal
}

/// The unpartitioned per-source access counts for a window: what each
/// source served before any plan intervened.
fn raw_fractions(stats: &WindowStats, sources: u8) -> [f64; MAX_SOURCES] {
    if sources >= 3 {
        [
            f64::from(stats.cache_read_accesses),
            f64::from(stats.cache_write_accesses),
            f64::from(stats.mm_accesses),
        ]
    } else {
        [
            f64::from(stats.cache_accesses),
            f64::from(stats.mm_accesses),
            0.0,
        ]
    }
}

/// Convenience for layers outside the controller (e.g. the simulator's
/// channel-accounting conservation check): record one violation in the
/// current process-wide mode — panic under [`AuditMode::Strict`], count
/// under [`AuditMode::Observe`].
pub fn report_violation(mode: AuditMode, violation: AuditViolation) {
    if !enabled() || mode == AuditMode::Off {
        return;
    }
    OBSERVED_VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    if mode == AuditMode::Strict {
        // invariant: see WindowAuditor::record — deliberate fail-fast on
        // internal consistency bugs only.
        panic!("{violation}");
    }
}

// The auditor constructs to `None` under `audit-off`, so these tests
// only exist in checking builds.
#[cfg(all(test, not(feature = "audit-off")))]
mod tests {
    use super::*;
    use crate::telemetry::{SourceFractions, TechniqueCounts};

    fn snapshot(index: u64) -> WindowSnapshot {
        WindowSnapshot {
            window_index: index,
            end_cycle: (index + 1) * 64,
            stats: WindowStats::default(),
            partitioned: false,
            granted: TechniqueCounts::default(),
            applied: TechniqueCounts::default(),
            fractions: SourceFractions {
                sources: 2,
                solved: [11.0 / 15.0, 4.0 / 15.0, 0.0],
                ideal: [11.0 / 15.0, 4.0 / 15.0, 0.0],
            },
        }
    }

    const K_WEIGHTS: [f64; MAX_SOURCES] = [11.0, 4.0, 0.0];

    fn observe() -> Box<WindowAuditor> {
        WindowAuditor::new(AuditMode::Observe).expect("observe mode constructs")
    }

    #[test]
    fn clean_windows_produce_no_violations() {
        let mut a = observe();
        a.note_external_stats();
        for i in 0..5 {
            assert!(a.check_window(&snapshot(i), K_WEIGHTS).is_empty());
        }
        assert_eq!(a.report().violations, 0);
        assert_eq!(a.report().windows_checked, 5);
    }

    #[test]
    fn off_mode_constructs_nothing() {
        assert!(WindowAuditor::new(AuditMode::Off).is_none());
    }

    #[test]
    fn fraction_sum_violation_is_caught() {
        let mut a = observe();
        a.note_external_stats();
        let mut s = snapshot(0);
        s.fractions.solved = [0.9, 0.3, 0.0];
        let v = a.check_window(&s, K_WEIGHTS);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::FractionConservation);
        assert!(v[0].invariant.equation().contains("Eq. 2"));
    }

    #[test]
    fn wrong_ideal_is_an_eq4_violation() {
        let mut a = observe();
        a.note_external_stats();
        let mut s = snapshot(0);
        s.fractions.ideal = [0.5, 0.5, 0.0];
        s.fractions.solved = [0.5, 0.5, 0.0];
        let v = a.check_window(&s, K_WEIGHTS);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::Eq4Proportionality);
        assert!(v[0].invariant.equation().contains("Eq. 4"));
    }

    #[test]
    fn negative_credit_balance_is_caught() {
        let mut a = observe();
        a.note_external_stats();
        let mut s = snapshot(0);
        s.applied.fwb = 3; // nothing was ever granted
        let v = a.check_window(&s, K_WEIGHTS);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::CreditConservation);
        assert_eq!(v[0].source, "fwb");
    }

    #[test]
    fn credits_granted_then_applied_pass() {
        let mut a = observe();
        a.note_external_stats();
        let mut s0 = snapshot(0);
        s0.granted.wb = 5;
        assert!(a.check_window(&s0, K_WEIGHTS).is_empty());
        let mut s1 = snapshot(1);
        s1.applied.wb = 5;
        assert!(a.check_window(&s1, K_WEIGHTS).is_empty());
        let mut s2 = snapshot(2);
        s2.applied.wb = 1; // balance is back to zero
        assert_eq!(a.check_window(&s2, K_WEIGHTS).len(), 1);
    }

    #[test]
    fn credit_model_saturates_at_the_cap() {
        let mut a = observe();
        a.note_external_stats();
        for i in 0..4 {
            let mut s = snapshot(i);
            s.granted.sfrm = 60;
            a.check_window(&s, K_WEIGHTS);
        }
        // Despite 240 granted, at most 63 can be available.
        let mut s = snapshot(4);
        s.applied.sfrm = 64;
        let v = a.check_window(&s, K_WEIGHTS);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::CreditConservation);
    }

    #[test]
    fn non_monotone_window_index_is_caught() {
        let mut a = observe();
        a.note_external_stats();
        assert!(a.check_window(&snapshot(0), K_WEIGHTS).is_empty());
        let v = a.check_window(&snapshot(0), K_WEIGHTS);
        assert!(v.iter().any(|v| v.invariant == Invariant::MonotoneWindows));
    }

    #[test]
    fn strict_mode_panics_with_equation_reference() {
        let result = std::panic::catch_unwind(|| {
            let mut a = WindowAuditor::new(AuditMode::Strict).expect("strict constructs");
            a.note_external_stats();
            let mut s = snapshot(0);
            s.fractions.solved = [2.0, -1.0, 0.0];
            a.check_window(&s, K_WEIGHTS);
        });
        let payload = result.expect_err("strict mode must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("Eq. 2"),
            "panic names the equation: {message}"
        );
    }

    #[test]
    fn served_conservation_checks_internal_stats() {
        let mut a = observe();
        // 3 cache accesses noted, but the snapshot claims 4.
        a.note_cache_access();
        a.note_cache_access();
        a.note_cache_access();
        let mut s = snapshot(0);
        s.stats.cache_accesses = 4;
        s.fractions.solved = [1.0, 0.0, 0.0];
        s.fractions.ideal = [11.0 / 15.0, 4.0 / 15.0, 0.0];
        let v = a.check_window(&s, K_WEIGHTS);
        assert!(v
            .iter()
            .any(|v| v.invariant == Invariant::ServedConservation));
    }

    #[test]
    fn mode_parsing_covers_documented_spellings() {
        assert_eq!(parse_mode("0"), AuditMode::Off);
        assert_eq!(parse_mode("off"), AuditMode::Off);
        assert_eq!(parse_mode(""), AuditMode::Off);
        assert_eq!(parse_mode("observe"), AuditMode::Observe);
        assert_eq!(parse_mode("1"), AuditMode::Strict);
        assert_eq!(parse_mode("strict"), AuditMode::Strict);
        assert_eq!(parse_mode("on"), AuditMode::Strict);
    }

    #[test]
    fn ideal_from_weights_matches_dark_source_rule() {
        let i = ideal_from_weights(2, [0.0, 38.4, 0.0]);
        assert_eq!(i[0], 0.0);
        assert!((i[1] - 1.0).abs() < 1e-12);
        let u = ideal_from_weights(3, [0.0, 0.0, 0.0]);
        assert!((u[0] - 1.0 / 3.0).abs() < 1e-12);
    }
}
