//! # dap-telemetry — zero-dependency observability for the DAP stack
//!
//! DAP's contribution is a per-window control loop, and bandwidth-
//! efficiency claims live or die on traffic *breakdowns* — so this crate
//! makes the control loop observable without giving up the workspace's
//! hermetic build (no registry dependencies) or its determinism:
//!
//! * [`metrics`] — a [`MetricsRegistry`](metrics::MetricsRegistry) of
//!   sharded atomic counters, gauges, and fixed-bucket power-of-two
//!   histograms, cheap enough to stay enabled in release runs.
//! * [`window`] — a [`WindowTraceRecorder`](window::WindowTraceRecorder)
//!   implementing `dap_core`'s `TelemetrySink`: it captures every
//!   [`WindowSnapshot`](dap_core::WindowSnapshot) in a bounded ring
//!   buffer, optionally spilling overflow to a writer as JSONL.
//! * [`export`] — versioned JSONL and CSV run artifacts (schema
//!   [`export::SCHEMA_VERSION`]) with round-trip parsers, parent-directory
//!   creation, and path-reporting errors.
//! * [`summary`] — human-readable digests of window traces, metrics
//!   snapshots (with percentile columns), and profiler rollups.
//! * [`percentile`] — p50/p90/p99/p999 estimation from histogram bucket
//!   counts (upper-bound semantics, `None` for empty histograms).
//! * [`exposition`] — Prometheus text-format rendering of a snapshot
//!   (`# HELP`/`# TYPE` headers, labeled series via [`labeled`]) plus
//!   the in-tree format checker [`check_exposition`].
//! * [`flight`] — a crash-safe [`FlightRecorder`](flight::FlightRecorder)
//!   ring of decision-relevant events, dumped as JSONL on panic,
//!   `SIGUSR1`, reject-rate spikes, or `GET /debug/flight`.
//! * [`http`] — a minimal hand-rolled HTTP/1.1 ops responder
//!   ([`OpsServer`](http::OpsServer)) and one-shot client for the
//!   `/metrics`, `/healthz`, `/varz`, and `/debug/flight` endpoints.
//! * [`accept`] — the one bounded acceptor under both the ops responder
//!   and `dapd`.
//! * [`json`] — the minimal in-tree JSON reader/writer the exporters use.
//!
//! ## The `telemetry-off` feature
//!
//! Building with `--features telemetry-off` compiles every recording path
//! to a no-op while keeping the full API, so instrumented callers need no
//! `cfg` of their own. [`enabled()`] reports which build is active;
//! artifact emitters should skip writing when it returns `false`.
//!
//! ## Determinism
//!
//! Recording never influences simulation state, and all exported values
//! derive from deterministic simulations — a trace exported at any thread
//! count is bit-identical (counter *totals* are sums of commutative
//! atomic adds). `crates/experiments/tests/determinism.rs` proves this
//! end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accept;
pub mod export;
pub mod exposition;
pub mod flight;
pub mod http;
pub mod json;
pub mod metrics;
pub mod percentile;
pub mod summary;
pub mod window;

pub use export::{
    ArtifactError, RecoveredCsvTrace, RecoveredWindowTrace, TraceMeta, SCHEMA_NAME, SCHEMA_VERSION,
};
pub use exposition::{check_exposition, labeled, metric_family, render_exposition};
pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use http::{OpsResponse, OpsRouter, OpsServer, OpsServerConfig};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use percentile::Percentiles;
pub use summary::{summarize, summarize_metrics, summarize_profile_windows, summarize_recovered};
pub use window::{WindowTrace, WindowTraceRecorder};

/// Whether this build records telemetry (`false` under `telemetry-off`).
pub const fn enabled() -> bool {
    cfg!(not(feature = "telemetry-off"))
}
