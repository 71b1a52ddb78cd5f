//! End-to-end artifact round trip: drive a real `DapController` with a
//! recorder attached, export the trace as JSONL, parse it back, and
//! assert the paper's invariants hold on every record.

use std::fs;
use std::sync::Arc;

use dap_core::{DapConfig, DapController, Technique};
use dap_telemetry::export::{read_window_trace_jsonl, write_window_trace_jsonl, TraceMeta};
use dap_telemetry::window::WindowTraceRecorder;

const WINDOWS: u64 = 200;

/// Runs a controller for `WINDOWS` windows of synthetic traffic and
/// returns the recorder's trace.
fn drive_controller() -> (DapController, Arc<WindowTraceRecorder>) {
    let mut dap = DapController::new(DapConfig::hbm_ddr4());
    let recorder = Arc::new(WindowTraceRecorder::new(4096));
    dap.attach_sink(recorder.clone());
    let w = u64::from(dap.config().window_cycles);
    for window in 0..WINDOWS {
        // Alternate pressured and calm windows so the trace contains both
        // partitioned and idle boundaries.
        if window % 3 != 2 {
            for _ in 0..40 {
                dap.note_cache_access(false);
            }
            for _ in 0..6 {
                dap.note_read_miss();
            }
            for _ in 0..10 {
                dap.note_write();
            }
            for _ in 0..12 {
                dap.note_clean_read_hit();
            }
            dap.note_mm_access();
            dap.note_mm_access();
        }
        dap.tick((window + 1) * w);
        // Spend some of the granted credits so `applied` is non-trivial.
        dap.try_apply(Technique::FillWriteBypass);
        dap.try_apply(Technique::WriteBypass);
    }
    (dap, recorder)
}

#[test]
fn jsonl_round_trip_preserves_invariants() {
    if !dap_telemetry::enabled() {
        return; // telemetry-off builds record nothing, by design.
    }
    let (dap, recorder) = drive_controller();
    let trace = recorder.take();
    let meta = TraceMeta {
        label: "roundtrip/hbm-ddr4".to_string(),
        arch: "sectored".to_string(),
        window_cycles: dap.config().window_cycles,
    };

    // Window count must equal elapsed cycles / W, with nothing lost.
    assert_eq!(trace.records.len() as u64, WINDOWS);
    assert_eq!(trace.windows_observed(), WINDOWS);
    assert_eq!(trace.spilled + trace.dropped, 0);

    let dir = std::env::temp_dir().join(format!(
        "dap-roundtrip-{}-{}",
        std::process::id(),
        "artifacts"
    ));
    let _ = fs::remove_dir_all(&dir);
    let jsonl_path = dir.join("runs/trace.jsonl");
    write_window_trace_jsonl(&jsonl_path, &meta, &trace).expect("jsonl export");

    let back = read_window_trace_jsonl(&jsonl_path).expect("jsonl parse");
    let _ = fs::remove_dir_all(&dir);

    assert_eq!(back.meta, meta);
    assert_eq!(back.trace.records, trace.records, "JSONL must be lossless");
    assert_eq!((back.parse_errors, back.missing), (0, 0));

    let w = u64::from(meta.window_cycles);
    let mut saw_partitioned = false;
    let mut saw_applied = false;
    for (i, record) in back.trace.records.iter().enumerate() {
        let i = i as u64;
        assert_eq!(record.window_index, i);
        assert_eq!(record.end_cycle, (i + 1) * w, "boundaries align to W");

        let sources = usize::from(record.fractions.sources);
        assert_eq!(sources, 2, "HBM+DDR4 has two bandwidth sources");
        let solved_sum: f64 = record.fractions.solved[..sources].iter().sum();
        let ideal_sum: f64 = record.fractions.ideal[..sources].iter().sum();
        assert!(
            (solved_sum - 1.0).abs() < 1e-9,
            "window {i}: Σ f_i = {solved_sum}"
        );
        assert!((ideal_sum - 1.0).abs() < 1e-9);
        for f in &record.fractions.solved[..sources] {
            assert!((0.0..=1.0).contains(f), "window {i}: f = {f}");
        }
        for f in &record.fractions.ideal[..sources] {
            assert!((0.0..=1.0).contains(f));
        }

        // Applied credits can never exceed what the *previous* boundary
        // granted; the cheap always-true invariant is that both stay
        // within the per-window budget scale.
        assert!(record.granted.total() <= u64::from(u32::MAX));
        saw_partitioned |= record.partitioned;
        saw_applied |= record.applied.total() > 0;
    }
    assert!(
        saw_partitioned,
        "pressured windows must trigger partitioning"
    );
    assert!(
        saw_applied,
        "consumed credits must show up as applied counts"
    );

    // The controller's lifetime totals must equal the sum of per-window
    // applied counts — the trace is a complete decomposition.
    let applied_fwb: u64 = back
        .trace
        .records
        .iter()
        .map(|r| u64::from(r.applied.fwb))
        .sum();
    let applied_wb: u64 = back
        .trace
        .records
        .iter()
        .map(|r| u64::from(r.applied.wb))
        .sum();
    // Credits applied after the last boundary are not yet in any window;
    // this harness applies credits after each tick, so totals can exceed
    // the trace by at most one window's worth.
    assert!(dap.decisions().fwb >= applied_fwb);
    assert!(dap.decisions().wb >= applied_wb);
    assert!(dap.decisions().fwb - applied_fwb <= 1);
    assert!(dap.decisions().wb - applied_wb <= 1);
}

/// Splitmix64: the same deterministic generator the simulator uses for
/// jitter, reused here to corrupt artifacts reproducibly.
use dap_core::splitmix::next as splitmix64;

/// Fuzz-style corruption: for several seeds, truncate, byte-flip, or
/// garbage-fill a random subset of record lines. The reader must count
/// the corruption, keep every intact record, and account for every
/// declared record as either kept or skipped.
#[test]
fn lenient_reader_survives_seeded_corruption() {
    if !dap_telemetry::enabled() {
        return;
    }
    let (dap, recorder) = drive_controller();
    let trace = recorder.take();
    let meta = TraceMeta {
        label: "corruption/hbm-ddr4".to_string(),
        arch: "sectored".to_string(),
        window_cycles: dap.config().window_cycles,
    };
    let dir = std::env::temp_dir().join(format!("dap-corrupt-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    let clean_path = dir.join("clean.jsonl");
    write_window_trace_jsonl(&clean_path, &meta, &trace).expect("jsonl export");
    let clean = fs::read_to_string(&clean_path).expect("read back");
    let lines: Vec<&str> = clean.lines().collect();
    assert!(lines.len() as u64 > WINDOWS, "header + records");

    for seed in 0..16u64 {
        let mut rng = seed.wrapping_mul(0x2545f4914f6cdd1d) ^ 0xdeadbeef;
        let mut corrupted = 0u64;
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            // Never corrupt the header (line 0): without a schema line the
            // file is not identifiable as an artifact at all.
            let mangle = i > 0 && splitmix64(&mut rng).is_multiple_of(8);
            if mangle {
                corrupted += 1;
                match splitmix64(&mut rng) % 3 {
                    0 => {
                        // Truncate mid-line, as a killed writer would.
                        let cut = 1 + (splitmix64(&mut rng) as usize) % (line.len() - 1);
                        let cut = (0..=cut).rev().find(|&c| line.is_char_boundary(c)).unwrap();
                        out.push_str(&line[..cut]);
                    }
                    1 => {
                        // Flip one byte to a brace-breaking character.
                        let pos = (splitmix64(&mut rng) as usize) % line.len();
                        let pos = (0..=pos).rev().find(|&c| line.is_char_boundary(c)).unwrap();
                        out.push_str(&line[..pos]);
                        out.push('}');
                        out.push_str(&line[(pos + 1).min(line.len())..]);
                    }
                    _ => out.push_str("not json at all"),
                }
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        if corrupted == 0 {
            continue;
        }
        let path = dir.join(format!("corrupt-{seed}.jsonl"));
        fs::write(&path, &out).expect("write corrupted");

        let recovered = read_window_trace_jsonl(&path)
            .unwrap_or_else(|e| panic!("seed {seed}: reader failed: {e}"));
        assert!(
            recovered.parse_errors > 0,
            "seed {seed}: a corrupted artifact must count its bad lines"
        );
        // A byte flip can accidentally still parse as a (different) valid
        // record, so `parse_errors` is at most the mangled count — but the
        // reader must never lose an untouched line.
        assert!(
            recovered.parse_errors <= corrupted,
            "seed {seed}: {} errors from {corrupted} corruptions",
            recovered.parse_errors
        );
        assert_eq!(
            recovered.trace.records.len() as u64 + recovered.parse_errors,
            WINDOWS,
            "seed {seed}: every record line is either kept or counted"
        );
        assert_eq!(recovered.missing, 0, "seed {seed}: no line was removed");
        // Every surviving record is bit-identical to one the writer emitted.
        for record in &recovered.trace.records {
            assert_eq!(
                &trace.records[record.window_index as usize], record,
                "seed {seed}: window {} must round-trip exactly",
                record.window_index
            );
        }
        let text = dap_telemetry::summarize_recovered(&recovered);
        if recovered.parse_errors > 0 {
            assert!(text.contains("parse_errors:"), "{text}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A copy cut at a record-line boundary parses cleanly line by line; only
/// the header's declared window count shows that records are gone. The
/// reader must report the shortfall, and the summary must say so.
#[test]
fn a_copy_cut_at_a_line_boundary_reports_missing_records() {
    if !dap_telemetry::enabled() {
        return;
    }
    let (dap, recorder) = drive_controller();
    let trace = recorder.take();
    let meta = TraceMeta {
        label: "cut/hbm-ddr4".to_string(),
        arch: "sectored".to_string(),
        window_cycles: dap.config().window_cycles,
    };
    let dir = std::env::temp_dir().join(format!("dap-cut-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let full = dir.join("full.jsonl");
    write_window_trace_jsonl(&full, &meta, &trace).expect("jsonl export");
    let text = fs::read_to_string(&full).expect("read back");
    let kept = 120;
    let cut = dir.join("cut.jsonl");
    let head: String = text
        .lines()
        .take(1 + kept)
        .map(|l| format!("{l}\n"))
        .collect();
    fs::write(&cut, head).expect("write cut copy");

    let recovered = read_window_trace_jsonl(&cut).expect("header intact");
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(recovered.trace.records, trace.records[..kept]);
    assert_eq!(recovered.parse_errors, 0);
    assert_eq!(recovered.missing, WINDOWS - kept as u64);
    let text = dap_telemetry::summarize_recovered(&recovered);
    assert!(
        text.contains(&format!("missing: {}", WINDOWS - kept as u64)),
        "{text}"
    );
}

#[test]
fn summary_renders_for_a_real_trace() {
    if !dap_telemetry::enabled() {
        return;
    }
    let (dap, recorder) = drive_controller();
    let trace = recorder.take();
    let meta = TraceMeta {
        label: "summary/hbm-ddr4".to_string(),
        arch: "sectored".to_string(),
        window_cycles: dap.config().window_cycles,
    };
    let text = dap_telemetry::summarize(&meta, &trace);
    assert!(text.contains("summary/hbm-ddr4"), "{text}");
    assert!(text.contains(&format!("{WINDOWS} observed")), "{text}");
    assert!(text.contains("partitioned windows:"), "{text}");
}
