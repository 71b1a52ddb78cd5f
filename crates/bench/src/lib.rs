//! # dap-bench — the benchmark harness
//!
//! One binary per paper figure/table (`cargo run --release -p dap-bench
//! --bin fig06_dap_sectored`), the `dapctl` driver, and `dapbench`, the
//! seeded end-to-end and per-layer benchmark of the simulator, the
//! figure grid, and `dapd` over a real socket.
//!
//! Every binary accepts the `DAP_INSTRUCTIONS` environment variable to
//! override the per-core instruction budget; larger budgets reduce warmup
//! bias at proportional runtime. Figure binaries also accept
//! `--threads N` (see [`cli`]) and emit machine-readable window-trace
//! artifacts when `DAP_TELEMETRY=1` (see [`artifacts`]).

// `deny` rather than `forbid`: the `sigint` module registers the Ctrl-C
// handler through C `signal(2)` (std has no signal API) and carries the
// crate's only `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod cli;
pub mod sigint;

/// Per-core instruction budget: `DAP_INSTRUCTIONS` env var or `default`.
/// A set-but-invalid value is a usage error: the process prints a
/// diagnostic and exits with status 2 (matching the CLI flag contract)
/// instead of panicking.
pub fn instructions(default: u64) -> u64 {
    match std::env::var("DAP_INSTRUCTIONS") {
        Ok(s) => match s.trim().parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("DAP_INSTRUCTIONS must be a positive integer, got {s:?}");
                std::process::exit(2);
            }
        },
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_when_unset() {
        std::env::remove_var("DAP_INSTRUCTIONS");
        assert_eq!(super::instructions(123), 123);
    }
}
