//! # dapd — DAP as a service
//!
//! A multi-tenant bandwidth-partitioning daemon built on the pure
//! [`dap_decide`] decision library. Where `dap-core`'s `DapController`
//! embeds the HPCA 2017 window algorithm inside a cycle-accurate memory
//! simulator, `dapd` serves the same Eq. 4 arithmetic over a socket:
//! clients ask "which backend should serve these bytes?" and report what
//! each backend actually delivered, and the daemon re-solves the
//! bandwidth-proportional partition (`f_i = B_i / ΣB`) from the *measured*
//! rates at every window boundary.
//!
//! The three layers:
//!
//! * [`wire`] — the length-prefixed binary protocol (`GetRoute`,
//!   `ReportServed`, `SnapshotStats`, `Shutdown` and their responses),
//!   with typed decode errors.
//! * [`engine`] — the decision engine: per-backend measured-bandwidth
//!   accounting, a deterministic byte-weighted deficit router chasing the
//!   Eq. 4 optimum, and a Memshare-style tenant ledger (reserved shares +
//!   best-effort pool) with an exact credit-conservation invariant.
//! * [`server`] — a std-only, thread-per-connection TCP/Unix-socket
//!   server on the [`dap_telemetry::accept`] acceptor, plus the matching
//!   blocking [`client::Client`], and a Prometheus-text stats dump.
//!
//! The serving path is hardened for overload and partial failure: the
//! server runs every connection under a [`server::ServerConfig`]
//! (read/write deadlines, a hard connection cap with
//! `Reject(Overloaded)` load shedding, per-connection frame/byte
//! budgets), and the client takes a [`client::RetryPolicy`] for
//! jittered-exponential-backoff retries with idempotency-aware
//! semantics. Shed and reject events are counted in the same Prometheus
//! exposition as the routing metrics (`dapd_shed_total`,
//! `dapd_rejected_total{cause=...}`).
//!
//! The live ops plane rides on `dap-telemetry`: [`server::OpsView`] +
//! [`server::ops_router`] mount `/metrics`, `/healthz`, `/varz`, and
//! `/debug/flight` on an [`OpsServer`](dap_telemetry::http::OpsServer),
//! and the engine feeds a crash-safe
//! [`FlightRecorder`](dap_telemetry::FlightRecorder) that dumps the last
//! N decisions on panic, `SIGUSR1`, or a reject-rate spike.
//!
//! Everything is hermetic: no async runtime, no registry dependencies —
//! just `std::net`, `std::os::unix::net`, and the workspace crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod server;
pub mod wire;

pub use client::{Client, RetryPolicy};
pub use engine::{
    BackendSpec, Engine, EngineConfig, RouteDecision, TenantClass, TenantLedger, TenantSpec,
};
pub use server::{ops_router, OpsView, Server, ServerConfig, ServerHandle};
pub use wire::{Message, RejectCode, WireError, MAX_PAYLOAD};
