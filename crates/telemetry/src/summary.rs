//! Human-readable digest of a window trace.
//!
//! The JSONL artifact is for machines; [`summarize`] renders the
//! same trace as a few lines a person can read in a terminal — window
//! counts, how often the controller actually partitioned, total technique
//! credits granted vs. applied, and how close the solved fractions sat to
//! the Eq. 4 bandwidth-proportional ideal.

use std::fmt::Write as _;

use dap_core::{ProfileWindow, TechniqueCounts};

use crate::export::{RecoveredWindowTrace, TraceMeta};
use crate::metrics::MetricsSnapshot;
use crate::window::WindowTrace;

fn accumulate(into: &mut TechniqueCounts, from: &TechniqueCounts) {
    into.fwb += from.fwb;
    into.wb += from.wb;
    into.ifrm += from.ifrm;
    into.sfrm += from.sfrm;
    into.write_through += from.write_through;
}

fn technique_line(counts: &TechniqueCounts) -> String {
    format!(
        "FWB {}  WB {}  IFRM {}  SFRM {}  WT {}  (total {})",
        counts.fwb,
        counts.wb,
        counts.ifrm,
        counts.sfrm,
        counts.write_through,
        counts.total()
    )
}

/// Renders a multi-line human summary of `trace`.
pub fn summarize(meta: &TraceMeta, trace: &WindowTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run {} ({}, W={} cycles)",
        if meta.label.is_empty() {
            "<unlabelled>"
        } else {
            &meta.label
        },
        if meta.arch.is_empty() {
            "unknown arch"
        } else {
            &meta.arch
        },
        meta.window_cycles
    );
    let retained = trace.records.len() as u64;
    let _ = writeln!(
        out,
        "windows: {} observed ({retained} retained, {} spilled, {} dropped)",
        trace.windows_observed(),
        trace.spilled,
        trace.dropped
    );
    if trace.records.is_empty() {
        out.push_str("no retained windows.\n");
        return out;
    }

    let partitioned = trace.records.iter().filter(|r| r.partitioned).count();
    let _ = writeln!(
        out,
        "partitioned windows: {partitioned}/{retained} ({:.1}%)",
        100.0 * partitioned as f64 / retained as f64
    );

    let mut granted = TechniqueCounts::default();
    let mut applied = TechniqueCounts::default();
    for record in &trace.records {
        accumulate(&mut granted, &record.granted);
        accumulate(&mut applied, &record.applied);
    }
    let _ = writeln!(out, "credits granted: {}", technique_line(&granted));
    let _ = writeln!(out, "credits applied: {}", technique_line(&applied));
    if granted.total() > 0 {
        let _ = writeln!(
            out,
            "credit utilization: {:.1}%",
            100.0 * applied.total() as f64 / granted.total() as f64
        );
    }

    let deviations: Vec<f64> = trace
        .records
        .iter()
        .map(|r| r.fractions.max_deviation())
        .collect();
    let mean = deviations.iter().sum::<f64>() / deviations.len() as f64;
    let max = deviations.iter().copied().fold(0.0, f64::max);
    let _ = writeln!(out, "|f - ideal| deviation: mean {mean:.4}, max {max:.4}");

    let traffic: u64 = trace
        .records
        .iter()
        .map(|r| u64::from(r.stats.cache_accesses) + u64::from(r.stats.mm_accesses))
        .sum();
    let _ = writeln!(
        out,
        "traffic: {traffic} accesses over {retained} retained windows ({:.2}/window)",
        traffic as f64 / retained as f64
    );
    out
}

/// Renders a metrics snapshot as human-readable tables: counters with
/// their totals, and histograms with count, mean, and the p50/p90/p99/
/// p999 percentile columns (bucket upper bounds — see
/// [`crate::percentile`]). Empty histograms render `-` in every
/// percentile column instead of fabricating zeros.
pub fn summarize_metrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if snapshot.counters.is_empty() && snapshot.gauges.is_empty() && snapshot.histograms.is_empty()
    {
        out.push_str("no metrics recorded.\n");
        return out;
    }
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "  {name:<28} {value:>12}");
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "  {name:<28} {value:>12}");
        }
    }
    if !snapshot.histograms.is_empty() {
        let _ = writeln!(
            out,
            "histograms:\n  {:<28} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "name", "count", "mean", "p50", "p90", "p99", "p999"
        );
        for (name, hist) in &snapshot.histograms {
            let mean = hist
                .mean()
                .map_or_else(|| "-".to_string(), |m| format!("{m:.1}"));
            let (p50, p90, p99, p999) = match hist.percentiles() {
                Some(p) => (
                    p.p50.to_string(),
                    p.p90.to_string(),
                    p.p99.to_string(),
                    p.p999.to_string(),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            let _ = writeln!(
                out,
                "  {name:<28} {:>10} {mean:>10} {p50:>8} {p90:>8} {p99:>8} {p999:>8}",
                hist.count
            );
        }
    }
    out
}

/// Renders the profiler's per-window cycle-attribution rollups as a
/// short digest: total sampled accesses and grants, and the mean
/// cache-queue / main-memory-queue wait per sampled access over the
/// first and last quarter of the windows — the queue-wait shift the
/// paper's Sec. III predicts when DAP activates shows up as the cache
/// wait collapsing between the two.
pub fn summarize_profile_windows(windows: &[ProfileWindow]) -> String {
    let mut out = String::new();
    if windows.is_empty() {
        out.push_str("profile: no sampled windows.\n");
        return out;
    }
    let samples: u64 = windows.iter().map(|w| w.samples).sum();
    let grants: u64 = windows.iter().map(|w| w.grants).sum();
    let _ = writeln!(
        out,
        "profile: {samples} sampled accesses over {} windows, {grants} DAP-granted",
        windows.len()
    );
    let quarter = (windows.len() / 4).max(1);
    let mean_waits = |slice: &[ProfileWindow]| -> Option<(f64, f64)> {
        let n: u64 = slice.iter().map(|w| w.samples).sum();
        if n == 0 {
            return None;
        }
        let cache: u64 = slice.iter().map(|w| w.cache_queue_wait).sum();
        let mm: u64 = slice.iter().map(|w| w.mm_queue_wait).sum();
        Some((cache as f64 / n as f64, mm as f64 / n as f64))
    };
    let early = mean_waits(&windows[..quarter]);
    let late = mean_waits(&windows[windows.len() - quarter..]);
    if let (Some((ec, em)), Some((lc, lm))) = (early, late) {
        let _ = writeln!(
            out,
            "queue wait per sampled access (cycles): cache {ec:.1} -> {lc:.1}, mm {em:.1} -> {lm:.1} \
             (first vs last quarter of windows)"
        );
    }
    out
}

/// Renders the summary of a read-back artifact, appending the counts of
/// corrupt lines skipped and of declared records missing (when any).
pub fn summarize_recovered(recovered: &RecoveredWindowTrace) -> String {
    let mut out = summarize(&recovered.meta, &recovered.trace);
    if recovered.parse_errors > 0 {
        let _ = writeln!(
            out,
            "parse_errors: {} corrupt record line(s) skipped",
            recovered.parse_errors
        );
    }
    if recovered.missing > 0 {
        let _ = writeln!(
            out,
            "missing: {} record(s) the header declares are absent",
            recovered.missing
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_core::telemetry::sectored_fractions;
    use dap_core::{Ratio, SectoredPlan, WindowSnapshot, WindowStats};

    #[test]
    fn summary_reports_counts_and_deviation() {
        let stats = WindowStats {
            cache_accesses: 40,
            mm_accesses: 2,
            ..Default::default()
        };
        let records = vec![WindowSnapshot {
            window_index: 0,
            end_cycle: 64,
            stats,
            partitioned: true,
            granted: TechniqueCounts {
                fwb: 5,
                wb: 2,
                ifrm: 1,
                sfrm: 0,
                write_through: 0,
            },
            applied: TechniqueCounts {
                fwb: 4,
                wb: 2,
                ifrm: 0,
                sfrm: 0,
                write_through: 0,
            },
            fractions: sectored_fractions(&stats, &SectoredPlan::default(), Ratio::new(11, 4)),
        }];
        let meta = TraceMeta {
            label: "dap/mix03".to_string(),
            arch: "sectored".to_string(),
            window_cycles: 64,
        };
        let trace = WindowTrace {
            records,
            spilled: 0,
            dropped: 0,
        };
        let text = summarize(&meta, &trace);
        assert!(text.contains("dap/mix03"), "{text}");
        assert!(text.contains("partitioned windows: 1/1"), "{text}");
        assert!(text.contains("FWB 5"), "{text}");
        assert!(text.contains("credit utilization: 75.0%"), "{text}");
        assert!(text.contains("|f - ideal|"), "{text}");
    }

    #[test]
    fn empty_trace_summarizes_without_panicking() {
        let text = summarize(&TraceMeta::default(), &WindowTrace::default());
        assert!(text.contains("no retained windows"), "{text}");
    }

    #[test]
    fn metrics_summary_shows_percentile_columns() {
        if !crate::enabled() {
            return;
        }
        let registry = crate::MetricsRegistry::new();
        registry.counter("mem.demand_reads").add(42);
        let hist = registry.histogram("prof.cache_queue_wait");
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 200] {
            hist.record(v);
        }
        registry.histogram("prof.mm_queue_wait"); // registered but empty
        let text = summarize_metrics(&registry.snapshot());
        assert!(text.contains("mem.demand_reads"), "{text}");
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("p999"), "{text}");
        assert!(text.contains("prof.cache_queue_wait"), "{text}");
        // Empty histograms show the `-` sentinel, never a fabricated 0.
        let empty_row = text
            .lines()
            .find(|l| l.contains("prof.mm_queue_wait"))
            .expect("row for empty histogram");
        assert!(empty_row.contains('-'), "{empty_row}");
    }

    #[test]
    fn empty_metrics_summary_says_so() {
        let text = summarize_metrics(&crate::MetricsSnapshot::default());
        assert!(text.contains("no metrics recorded"), "{text}");
    }

    #[test]
    fn profile_window_digest_shows_queue_shift() {
        let early = ProfileWindow {
            window_index: 0,
            samples: 10,
            grants: 0,
            cache_queue_wait: 1000,
            mm_queue_wait: 50,
            ..Default::default()
        };
        let late = ProfileWindow {
            window_index: 9,
            samples: 10,
            grants: 6,
            cache_queue_wait: 100,
            mm_queue_wait: 120,
            ..Default::default()
        };
        let windows = [early, early, early, early, late, late, late, late];
        let text = summarize_profile_windows(&windows);
        assert!(text.contains("80 sampled accesses"), "{text}");
        assert!(text.contains("24 DAP-granted"), "{text}");
        assert!(text.contains("cache 100.0 -> 10.0"), "{text}");
        assert!(summarize_profile_windows(&[]).contains("no sampled windows"));
    }
}
