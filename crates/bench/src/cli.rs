//! Shared command-line handling for the dap-bench binaries.
//!
//! Every figure/table binary accepts `--threads N` (also `--threads=N`)
//! to set the experiment executor's worker count, taking precedence over
//! the `DAP_THREADS` environment variable; with neither, the executor
//! uses all available cores. `--audit[=MODE]` forces the checked-mode
//! invariant auditor (`strict` when bare; also `observe` / `off`),
//! taking precedence over `DAP_AUDIT`. Invalid values (zero,
//! non-numeric) are usage errors: the binary prints a diagnostic and
//! exits with status 2.
//!
//! [`run_figure`] wraps a figure binary's body with the graceful-
//! shutdown contract: the Ctrl-C handler is installed, the main thread
//! honors the global cancel token at window granularity, and an
//! interrupted run exits with
//! [`EXIT_INTERRUPTED`](experiments::EXIT_INTERRUPTED) (130) after its
//! checkpoint manifest and telemetry artifacts have been flushed. Every
//! mix × variant figure checkpoints through
//! [`Grid`](experiments::Grid), so a run started with `DAP_RESUME` and
//! re-run with the same manifest completes the figure bit-identically.

use experiments::exec::set_thread_override;
use experiments::{global_cancel_token, EXIT_INTERRUPTED};

/// Parses a `--threads` value. Zero is rejected — a zero-worker executor
/// cannot make progress, and silently clamping would hide the typo.
///
/// # Errors
///
/// A human-readable diagnostic when the value is not a positive integer.
pub fn parse_thread_count(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(0) => Err("--threads must be at least 1".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--threads expects a positive integer, got `{raw}`")),
    }
}

/// Parses and installs a `--threads` value, exiting with status 2 (usage
/// error) when it is missing or invalid.
pub fn apply_threads(binary: &str, value: Option<&str>) -> usize {
    let Some(raw) = value else {
        eprintln!("{binary}: --threads needs a value");
        std::process::exit(2);
    };
    match parse_thread_count(raw) {
        Ok(n) => {
            set_thread_override(n);
            n
        }
        Err(message) => {
            eprintln!("{binary}: {message}");
            std::process::exit(2);
        }
    }
}

/// Installs an `--audit` value as the process-wide audit-mode override
/// (bare `--audit` means strict).
fn apply_audit(value: Option<&str>) {
    let mode = match value {
        None => dap_core::AuditMode::Strict,
        Some(v) => dap_core::audit::parse_mode(v),
    };
    dap_core::audit::set_mode_override(Some(mode));
}

/// Argument handling for the figure/table binaries, which take no
/// positional arguments: accepts `--threads N` / `--threads=N` and
/// `--audit` / `--audit=MODE`, and rejects anything else with a usage
/// error (exit status 2).
pub fn parse_figure_args(binary: &str) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            apply_threads(binary, it.next().map(String::as_str));
        } else if let Some(v) = a.strip_prefix("--threads=") {
            apply_threads(binary, Some(v));
        } else if a == "--audit" {
            apply_audit(None);
        } else if let Some(v) = a.strip_prefix("--audit=") {
            apply_audit(Some(v));
        } else {
            eprintln!(
                "{binary}: unknown argument `{a}`\n\
                 usage: {binary} [--threads N] [--audit[=strict|observe|off]]   \
                 (env: DAP_THREADS, DAP_INSTRUCTIONS, DAP_AUDIT, DAP_CELL_DEADLINE_MS, \
                 DAP_RESUME, DAP_TELEMETRY, DAP_TELEMETRY_DIR)"
            );
            std::process::exit(2);
        }
    }
}

/// Runs a figure/table binary's body under the shared CLI contract:
/// parses the figure arguments, installs the Ctrl-C handler, arms the
/// global cancel token on the main thread (single-threaded grids run
/// inline there), and maps the outcome onto the documented exit codes —
/// 0 on success, [`EXIT_INTERRUPTED`] (130) when the run was cancelled
/// (checkpoints and telemetry already flushed; re-run with `DAP_RESUME`
/// to continue), and the default panic exit for genuine crashes.
pub fn run_figure(binary: &str, body: impl FnOnce()) -> ! {
    parse_figure_args(binary);
    run_interruptible(binary, body)
}

/// [`run_figure`]'s graceful-shutdown contract without the figure
/// argument parsing, for binaries with their own CLI grammar (`dapctl`).
pub fn run_interruptible(binary: &str, body: impl FnOnce()) -> ! {
    crate::sigint::install();
    let token = global_cancel_token();
    // Cooperative interruptions unwind with a typed payload; keep the
    // default panic hook's backtrace noise for genuine bugs only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<mem_sim::RunInterrupted>()
            .is_none()
        {
            default_hook(info);
        }
    }));
    let armed = mem_sim::ScopedStop::install(&[(token.flag(), mem_sim::StopCause::Cancelled)]);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    drop(armed);
    if token.is_cancelled() {
        eprintln!(
            "{binary}: interrupted; under DAP_RESUME=<manifest>, finished grid cells \
             are checkpointed there — re-run with the same manifest to continue"
        );
        std::process::exit(EXIT_INTERRUPTED);
    }
    match outcome {
        Ok(()) => std::process::exit(0),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_counts() {
        assert_eq!(parse_thread_count("1"), Ok(1));
        assert_eq!(parse_thread_count("64"), Ok(64));
    }

    #[test]
    fn rejects_zero_and_garbage() {
        assert!(parse_thread_count("0").is_err());
        assert!(parse_thread_count("four").is_err());
        assert!(parse_thread_count("-2").is_err());
        assert!(parse_thread_count("").is_err());
        assert!(parse_thread_count("3.5").is_err());
    }
}
