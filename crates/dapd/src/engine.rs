//! The multi-tenant decision engine.
//!
//! [`Engine`] is the daemon's core: `N` tenants share `M` backends, and
//! every `GetRoute` answers "which backend serves these bytes?" so that
//! the byte split across backends chases the paper's Eq. 4 optimum
//! `f_i = B_i / ΣB` — computed not from nominal datasheet rates but from
//! the bandwidth each backend *measurably* delivered in the previous
//! resolve window ([`dap_decide::degrade`]'s philosophy, lifted from
//! per-64-cycle hardware windows to per-`resolve_every`-request service
//! windows).
//!
//! ## Tenant model (Memshare-style)
//!
//! Tenants are either *reserved* — entitled to a fixed GB/s share, funded
//! first out of every window's byte budget — or *best-effort*, drawing
//! from the pool that remains. [`TenantLedger`] tracks the split with
//! exact integer arithmetic and maintains a conservation invariant: at
//! any instant, unspent reserved credits + unspent pool credits + drained
//! credits equals the window's global budget, regardless of how route
//! calls interleave.
//!
//! ## Degradation
//!
//! A backend that was routed traffic but served zero bytes in a window is
//! *dark*: its Eq. 4 fraction becomes exactly zero and the router stops
//! selecting it. A later `ReportServed` with non-zero bytes revives it at
//! the measured rate. A backend that simply wasn't exercised keeps its
//! previous estimate (absence of evidence is not darkness).

use dap_decide::bandwidth::proportional_split;
use dap_decide::config::DapConfig;
use dap_decide::degrade::{degraded_k, EffectiveBandwidth};
use dap_telemetry::json::{obj, Json};
use dap_telemetry::{
    labeled, render_exposition, Counter, FlightKind, FlightRecorder, Histogram, MetricsRegistry,
};
use std::fmt;
use std::sync::Arc;

/// Credit bytes granted per GB/s of effective bandwidth per resolve
/// window (1 MiB): a deterministic integer scale tying the ledger's byte
/// budget to measured rates, playing the role `E·B·W` plays in
/// [`dap_decide::window::WindowBudget`].
pub const BYTES_PER_GBPS: u64 = 1 << 20;

/// One bandwidth backend (a memory tier, a cache shard, a storage class).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSpec {
    /// Label used in metrics.
    pub name: String,
    /// Datasheet bandwidth in GB/s; the routing weight until measurements
    /// arrive, and the cap on measured estimates.
    pub nominal_gbps: f64,
}

/// How a tenant is funded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantClass {
    /// Guaranteed `gbps` of the global budget, funded before the pool.
    Reserved {
        /// The guaranteed share in GB/s.
        gbps: f64,
    },
    /// Draws from whatever the reserved tenants leave behind.
    BestEffort,
}

/// One tenant of the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Label used in metrics.
    pub name: String,
    /// Funding class.
    pub class: TenantClass,
}

/// Static engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The bandwidth backends, in routing order.
    pub backends: Vec<BackendSpec>,
    /// The tenants, in ledger-funding order.
    pub tenants: Vec<TenantSpec>,
    /// Decisions per re-solve window (the daemon's `W`).
    pub resolve_every: u32,
    /// Bandwidth efficiency `E` in `(0, 1]` applied to measured rates
    /// when funding the ledger (paper default 0.75).
    pub efficiency: f64,
}

impl EngineConfig {
    /// The paper's two-source system as daemon backends: 102.4 GB/s HBM
    /// cache tier + 38.4 GB/s DDR4, one reserved tenant guaranteed
    /// 40 GB/s and one best-effort tenant, re-solving every 64 decisions.
    pub fn hbm_ddr4_pair() -> Self {
        Self {
            backends: vec![
                BackendSpec {
                    name: "hbm".to_string(),
                    nominal_gbps: 102.4,
                },
                BackendSpec {
                    name: "ddr4".to_string(),
                    nominal_gbps: 38.4,
                },
            ],
            tenants: vec![
                TenantSpec {
                    name: "reserved0".to_string(),
                    class: TenantClass::Reserved { gbps: 40.0 },
                },
                TenantSpec {
                    name: "besteffort0".to_string(),
                    class: TenantClass::BestEffort,
                },
            ],
            resolve_every: 64,
            efficiency: 0.75,
        }
    }

    fn validate(&self) -> Result<(), EngineError> {
        if self.backends.is_empty() {
            return Err(EngineError::Config("need at least one backend"));
        }
        if self.backends.len() > u8::MAX as usize {
            return Err(EngineError::Config("at most 255 backends"));
        }
        if self.tenants.is_empty() {
            return Err(EngineError::Config("need at least one tenant"));
        }
        if self.tenants.len() > u16::MAX as usize {
            return Err(EngineError::Config("at most 65535 tenants"));
        }
        if self.resolve_every == 0 {
            return Err(EngineError::Config("resolve_every must be non-zero"));
        }
        if !(self.efficiency > 0.0 && self.efficiency <= 1.0) {
            return Err(EngineError::Config("efficiency must be in (0, 1]"));
        }
        if self
            .backends
            .iter()
            .any(|b| !(b.nominal_gbps.is_finite() && b.nominal_gbps > 0.0))
        {
            return Err(EngineError::Config("nominal rates must be positive"));
        }
        Ok(())
    }
}

/// Engine-level failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The configuration is unusable.
    Config(&'static str),
    /// `tenant` in a route request is outside the tenant table.
    UnknownTenant(u16),
    /// `source` in a served report is outside the backend table.
    UnknownBackend(u8),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(why) => write!(f, "bad engine config: {why}"),
            EngineError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            EngineError::UnknownBackend(b) => write!(f, "unknown backend {b}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The answer to a route request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Index of the backend that should serve the access.
    pub backend: usize,
    /// The resolve window the decision was made in.
    pub window: u32,
}

/// Per-window credit accounting for the tenant set.
///
/// All amounts are bytes. The ledger is (re)funded at every window
/// boundary from the window's global budget: reserved tenants first (in
/// tenant order, each capped by what remains), then the pool gets the
/// remainder. Spending drains a tenant's reserved allowance before
/// touching the pool; demand beyond both is *overdraft* — recorded, never
/// funded, so the invariant stays exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLedger {
    global: u64,
    reserved_remaining: Vec<u64>,
    pool_remaining: u64,
    drained: u64,
    overdraft: u64,
}

impl TenantLedger {
    /// Funds a fresh window. `reserved_bytes[t]` is tenant `t`'s
    /// guaranteed share (0 for best-effort tenants); grants are clipped
    /// in tenant order so they never exceed `global`.
    pub fn fund(global: u64, reserved_bytes: &[u64]) -> Self {
        let mut remaining = global;
        let reserved_remaining: Vec<u64> = reserved_bytes
            .iter()
            .map(|&want| {
                let got = want.min(remaining);
                remaining -= got;
                got
            })
            .collect();
        Self {
            global,
            reserved_remaining,
            pool_remaining: remaining,
            drained: 0,
            overdraft: 0,
        }
    }

    /// Spends `bytes` on behalf of `tenant`: reserved allowance first,
    /// then the pool; any shortfall is recorded as overdraft. Returns the
    /// overdraft amount (0 when fully funded).
    pub fn spend(&mut self, tenant: usize, bytes: u64) -> u64 {
        let from_reserved = bytes.min(self.reserved_remaining[tenant]);
        self.reserved_remaining[tenant] -= from_reserved;
        let rest = bytes - from_reserved;
        let from_pool = rest.min(self.pool_remaining);
        self.pool_remaining -= from_pool;
        self.drained += from_reserved + from_pool;
        let short = rest - from_pool;
        self.overdraft += short;
        short
    }

    /// The window's total byte budget.
    pub fn global(&self) -> u64 {
        self.global
    }

    /// Unspent reserved credits per tenant.
    pub fn reserved_remaining(&self) -> &[u64] {
        &self.reserved_remaining
    }

    /// Unspent best-effort pool credits.
    pub fn pool_remaining(&self) -> u64 {
        self.pool_remaining
    }

    /// Credits spent so far this window.
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// Demand that exceeded the window budget.
    pub fn overdraft(&self) -> u64 {
        self.overdraft
    }

    /// The conservation invariant: unspent + spent credits always equal
    /// the funded budget. Overdraft is demand that was never funded, so
    /// it does not enter the equation.
    pub fn conserves(&self) -> bool {
        self.reserved_remaining.iter().sum::<u64>() + self.pool_remaining + self.drained
            == self.global
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BackendWindow {
    routed_bytes: u64,
    served_bytes: u64,
    busy_ns: u64,
}

/// The multi-tenant partitioning engine.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    /// Current effective-bandwidth estimate per backend, GB/s.
    effective_gbps: Vec<f64>,
    /// Eq. 4 fractions derived from `effective_gbps`.
    weights: Vec<f64>,
    /// Smooth-deficit state for the byte-weighted router.
    deficit: Vec<f64>,
    per_backend: Vec<BackendWindow>,
    ledger: TenantLedger,
    decisions_in_window: u32,
    window_seq: u32,
    metrics: MetricsRegistry,
    flight: Arc<FlightRecorder>,
    // Metric handles are pre-resolved: `route` is the daemon's hot path
    // and must not pay a name `format!` + registry lookup per decision.
    m_decisions: Counter,
    m_overdraft: Counter,
    m_routed_bytes: Vec<Counter>,
    m_served_bytes: Vec<Counter>,
    m_dark_windows: Vec<Counter>,
    m_tenant_requests: Vec<Counter>,
    m_report_latency: Histogram,
    m_resolves: Counter,
    m_unmeasured: Counter,
    m_all_dark: Counter,
}

impl Engine {
    /// Builds an engine; backends start at their nominal rates.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        config.validate()?;
        let effective_gbps: Vec<f64> = config.backends.iter().map(|b| b.nominal_gbps).collect();
        let n = config.backends.len();
        let metrics = MetricsRegistry::new();
        for (name, help) in [
            ("dapd_decisions_total", "Route decisions answered."),
            (
                "dapd_overdraft_bytes_total",
                "Demand bytes beyond the window budget (never funded).",
            ),
            (
                "dapd_routed_bytes_total",
                "Bytes routed to each backend by the Eq. 4 router.",
            ),
            (
                "dapd_served_bytes_total",
                "Bytes each backend reported actually serving.",
            ),
            (
                "dapd_dark_windows_total",
                "Windows in which a backend was routed traffic but served zero bytes.",
            ),
            ("dapd_tenant_requests_total", "Route requests per tenant."),
            (
                "dapd_report_latency_ns",
                "Reported busy time per served report, nanoseconds.",
            ),
            ("dapd_resolves_total", "Window re-solves performed."),
            (
                "dapd_unmeasured_windows_total",
                "Windows that carried no served-bytes measurement at all.",
            ),
            (
                "dapd_all_dark_windows_total",
                "Windows in which every backend went dark (nominal fallback used).",
            ),
            ("dapd_window", "Current resolve-window sequence number."),
            ("dapd_budget_bytes", "Current window byte budget."),
            (
                "dapd_weight_ppm",
                "Current Eq. 4 fraction per backend, parts per million.",
            ),
            (
                "dapd_effective_mbps",
                "Measured effective bandwidth per backend, MB/s.",
            ),
            (
                "dapd_k_milli",
                "Degraded K = B_MS$/B_MM ratio, thousandths (two-backend engines).",
            ),
            (
                "dapd_hw_cache_budget",
                "Per-window cache access budget the hardware DAP would run with.",
            ),
            (
                "dapd_hw_mm_budget",
                "Per-window main-memory access budget the hardware DAP would run with.",
            ),
        ] {
            metrics.describe(name, help);
        }
        let per_backend_counter = |family: &str| -> Vec<Counter> {
            config
                .backends
                .iter()
                .map(|b| metrics.counter(&labeled(family, &[("backend", &b.name)])))
                .collect()
        };
        let m_decisions = metrics.counter("dapd_decisions_total");
        let m_overdraft = metrics.counter("dapd_overdraft_bytes_total");
        let m_routed_bytes = per_backend_counter("dapd_routed_bytes_total");
        let m_served_bytes = per_backend_counter("dapd_served_bytes_total");
        let m_dark_windows = per_backend_counter("dapd_dark_windows_total");
        let m_tenant_requests = config
            .tenants
            .iter()
            .map(|t| {
                metrics.counter(&labeled(
                    "dapd_tenant_requests_total",
                    &[("tenant", &t.name)],
                ))
            })
            .collect();
        let m_report_latency = metrics.histogram("dapd_report_latency_ns");
        let m_resolves = metrics.counter("dapd_resolves_total");
        let m_unmeasured = metrics.counter("dapd_unmeasured_windows_total");
        let m_all_dark = metrics.counter("dapd_all_dark_windows_total");
        let mut engine = Self {
            effective_gbps,
            weights: vec![0.0; n],
            deficit: vec![0.0; n],
            per_backend: vec![BackendWindow::default(); n],
            ledger: TenantLedger::fund(0, &[]),
            decisions_in_window: 0,
            window_seq: 0,
            metrics,
            flight: FlightRecorder::with_default_capacity(),
            m_decisions,
            m_overdraft,
            m_routed_bytes,
            m_served_bytes,
            m_dark_windows,
            m_tenant_requests,
            m_report_latency,
            m_resolves,
            m_unmeasured,
            m_all_dark,
            config,
        };
        engine.recompute_weights();
        engine.refund_ledger();
        engine.publish_gauges();
        Ok(engine)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current Eq. 4 fractions (one per backend, summing to 1).
    pub fn fractions(&self) -> &[f64] {
        &self.weights
    }

    /// Current effective-bandwidth estimates in GB/s.
    pub fn effective_gbps(&self) -> &[f64] {
        &self.effective_gbps
    }

    /// The current window's ledger (for tests and introspection).
    pub fn ledger(&self) -> &TenantLedger {
        &self.ledger
    }

    /// The resolve-window sequence number.
    pub fn window_seq(&self) -> u32 {
        self.window_seq
    }

    /// Routes `bytes` for `tenant`, advancing window accounting.
    pub fn route(&mut self, tenant: u16, bytes: u32) -> Result<RouteDecision, EngineError> {
        let t = tenant as usize;
        if t >= self.config.tenants.len() {
            return Err(EngineError::UnknownTenant(tenant));
        }
        let short = self.ledger.spend(t, u64::from(bytes));
        if short > 0 {
            self.m_overdraft.add(short);
        }

        // Byte-weighted smooth deficit routing: every backend accrues
        // credit proportional to its Eq. 4 fraction, the most-owed
        // backend serves. Deterministic (ties break to the lowest
        // index), and over any run of requests each backend's byte share
        // converges to its weight.
        let b = f64::from(bytes.max(1));
        for (d, w) in self.deficit.iter_mut().zip(&self.weights) {
            *d += w * b;
        }
        let mut chosen = 0usize;
        let mut best = f64::NEG_INFINITY;
        for (i, (&d, &w)) in self.deficit.iter().zip(&self.weights).enumerate() {
            if w > 0.0 && d > best {
                best = d;
                chosen = i;
            }
        }
        self.deficit[chosen] -= b;

        self.per_backend[chosen].routed_bytes += u64::from(bytes);
        self.m_routed_bytes[chosen].add(u64::from(bytes));
        self.m_decisions.incr();
        self.m_tenant_requests[t].incr();

        let decision = RouteDecision {
            backend: chosen,
            window: self.window_seq,
        };
        self.decisions_in_window += 1;
        if self.decisions_in_window >= self.config.resolve_every {
            self.resolve();
        }
        Ok(decision)
    }

    /// Records that backend `source` delivered `bytes` in `latency_ns`
    /// nanoseconds of busy time; feeds the next re-solve.
    ///
    /// Nanosecond granularity matters: at 100 GB/s-class backends a
    /// whole 64-decision window of cache blocks is well under a
    /// microsecond of busy time, so any coarser unit would quantize the
    /// measurement to zero. Clients integrate fractional nanoseconds
    /// themselves and report whole ones (see `dapctl loadgen`).
    pub fn report_served(
        &mut self,
        source: u8,
        bytes: u32,
        latency_ns: u32,
    ) -> Result<(), EngineError> {
        let s = source as usize;
        if s >= self.config.backends.len() {
            return Err(EngineError::UnknownBackend(source));
        }
        self.per_backend[s].served_bytes += u64::from(bytes);
        self.per_backend[s].busy_ns += u64::from(latency_ns);
        self.m_served_bytes[s].add(u64::from(bytes));
        self.m_report_latency.record(u64::from(latency_ns));
        Ok(())
    }

    /// Forces a window boundary now (also runs automatically every
    /// `resolve_every` decisions).
    pub fn resolve(&mut self) {
        // A window in which *nothing* was served carries no measurement
        // at all (the report stream is absent, not the backends): keep
        // every estimate. Dark-marking below only applies when the window
        // did measure traffic somewhere, so "routed but served nothing"
        // is evidence against that one backend specifically.
        let any_served = self.per_backend.iter().any(|w| w.served_bytes > 0);
        if !any_served {
            self.m_unmeasured.incr();
        }
        for (i, w) in self.per_backend.iter().enumerate() {
            if !any_served {
                break;
            }
            if w.served_bytes > 0 {
                // Measured delivered rate: one byte per nanosecond is
                // exactly 1 GB/s, so GB/s = bytes / busy_ns. A window
                // whose whole busy time truncates to zero carries no
                // usable rate — cap at nominal rather than divide by
                // zero.
                let nominal = self.config.backends[i].nominal_gbps;
                let gbps = if w.busy_ns == 0 {
                    nominal
                } else {
                    (w.served_bytes as f64 / w.busy_ns as f64).min(nominal)
                };
                self.effective_gbps[i] = gbps;
            } else if w.routed_bytes > 0 {
                // We sent it traffic and it delivered nothing: dark.
                self.effective_gbps[i] = 0.0;
                self.m_dark_windows[i].incr();
            }
            // No traffic routed and nothing served: keep the previous
            // estimate. Absence of evidence is not darkness.
        }
        self.recompute_weights();
        self.refund_ledger();
        self.per_backend.fill(BackendWindow::default());
        self.decisions_in_window = 0;
        self.window_seq = self.window_seq.wrapping_add(1);
        self.m_resolves.incr();
        self.publish_gauges();
        // Flight-record the re-solve: inputs (measured MB/s of the first
        // two backends) and outputs (first fraction in ppm, window
        // budget, K·1000 for two-backend engines; -1 where undefined).
        // This is the only flight hook on the engine path — one ring
        // write per `resolve_every` decisions, nothing per route.
        let mbps = |i: usize| {
            self.effective_gbps
                .get(i)
                .map_or(-1, |&g| (g * 1000.0) as i64)
        };
        let k_milli = if let [cache, mm] = self.effective_gbps[..] {
            (degraded_k(cache, mm).as_f64() * 1000.0) as i64
        } else {
            -1
        };
        self.flight.record(
            FlightKind::Resolve,
            if any_served { "measured" } else { "unmeasured" },
            [
                i64::from(self.window_seq),
                mbps(0),
                mbps(1),
                (self.weights[0] * 1e6) as i64,
                self.ledger.global().min(i64::MAX as u64) as i64,
                k_milli,
            ],
        );
    }

    /// Renders the current metrics as Prometheus exposition text.
    pub fn stats_text(&self) -> String {
        render_exposition(&self.metrics.snapshot())
    }

    /// Resolves (creating if absent) a named counter in the engine's
    /// metrics registry. The server layer uses this to count shed
    /// connections and per-cause rejects (`dapd_shed_total`,
    /// `dapd_rejected_total{cause="..."}`) in the same exposition the
    /// routing metrics live in, so one `SnapshotStats` shows the whole
    /// picture.
    pub fn counter(&self, name: &str) -> Counter {
        self.metrics.counter(name)
    }

    /// Resolves (creating if absent) a named histogram in the engine's
    /// metrics registry (the server layer's decision-latency histogram
    /// lives here for the same single-exposition reason as
    /// [`counter`](Self::counter)).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.metrics.histogram(name)
    }

    /// Registers `# HELP` text for a metric family in the engine's
    /// registry (see [`dap_telemetry::MetricsRegistry::describe`]).
    pub fn describe(&self, name: &str, help: &str) {
        self.metrics.describe(name, help);
    }

    /// The engine's flight recorder: the last N re-solves (recorded
    /// here) plus whatever the server layer adds (rejects, sheds).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// A JSON operator snapshot for `GET /varz`: per-backend measured
    /// bandwidth and current Eq. 4 fraction next to the nominal ideal,
    /// per-tenant ledger balances, window/budget state, every counter,
    /// and p99 latencies. Not a hot path — it snapshots the registry.
    pub fn varz_json(&self) -> Json {
        let snapshot = self.metrics.snapshot();
        let nominal_total: f64 = self.config.backends.iter().map(|b| b.nominal_gbps).sum();
        let backends: Vec<Json> = self
            .config
            .backends
            .iter()
            .enumerate()
            .map(|(i, b)| {
                obj([
                    ("name", Json::Str(b.name.clone())),
                    ("nominal_gbps", Json::Num(b.nominal_gbps)),
                    ("effective_gbps", Json::Num(self.effective_gbps[i])),
                    ("fraction", Json::Num(self.weights[i])),
                    // Eq. 4 over datasheet rates: where the solved
                    // fraction would sit with nothing degraded.
                    ("ideal_fraction", Json::Num(b.nominal_gbps / nominal_total)),
                ])
            })
            .collect();
        let tenants: Vec<Json> = self
            .config
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (class, gbps) = match t.class {
                    TenantClass::Reserved { gbps } => ("reserved", gbps),
                    TenantClass::BestEffort => ("besteffort", 0.0),
                };
                obj([
                    ("name", Json::Str(t.name.clone())),
                    ("class", Json::Str(class.to_string())),
                    ("reserved_gbps", Json::Num(gbps)),
                    (
                        "reserved_remaining_bytes",
                        Json::Num(self.ledger.reserved_remaining()[i] as f64),
                    ),
                ])
            })
            .collect();
        let counters = Json::Obj(
            snapshot
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                .collect(),
        );
        let p99 = |name: &str| {
            snapshot
                .histograms
                .get(name)
                .and_then(|h| h.quantile(0.99))
                .map_or(Json::Null, |v| Json::Num(v as f64))
        };
        obj([
            ("service", Json::Str("dapd".to_string())),
            ("window", Json::Num(f64::from(self.window_seq))),
            (
                "resolve_every",
                Json::Num(f64::from(self.config.resolve_every)),
            ),
            ("budget_bytes", Json::Num(self.ledger.global() as f64)),
            ("backends", Json::Arr(backends)),
            ("tenants", Json::Arr(tenants)),
            (
                "ledger",
                obj([
                    ("global", Json::Num(self.ledger.global() as f64)),
                    (
                        "pool_remaining",
                        Json::Num(self.ledger.pool_remaining() as f64),
                    ),
                    ("drained", Json::Num(self.ledger.drained() as f64)),
                    ("overdraft", Json::Num(self.ledger.overdraft() as f64)),
                    ("conserves", Json::Bool(self.ledger.conserves())),
                ]),
            ),
            ("counters", counters),
            ("p99_report_latency_ns", p99("dapd_report_latency_ns")),
            ("p99_decision_ns", p99("dapd_decision_ns")),
            (
                "flight",
                obj([
                    ("total", Json::Num(self.flight.total() as f64)),
                    ("dropped", Json::Num(self.flight.dropped() as f64)),
                ]),
            ),
        ])
    }

    fn recompute_weights(&mut self) {
        // Eq. 4: f_i = B_i / ΣB over *measured* rates.
        if !proportional_split(&self.effective_gbps, &mut self.weights) {
            // Every backend dark: fall back to nominal proportions so
            // routing stays defined (the operator's least-bad guess).
            self.m_all_dark.incr();
            let nom: f64 = self.config.backends.iter().map(|b| b.nominal_gbps).sum();
            for (w, b) in self.weights.iter_mut().zip(&self.config.backends) {
                *w = b.nominal_gbps / nom;
            }
        }
        // Weight changes invalidate accumulated deficits (a dark backend
        // must not inherit a large positive deficit from its past).
        self.deficit.fill(0.0);
    }

    fn budget_bytes(&self, gbps: f64) -> u64 {
        if gbps <= 0.0 {
            return 0;
        }
        (gbps * self.config.efficiency * BYTES_PER_GBPS as f64) as u64
    }

    fn refund_ledger(&mut self) {
        let global: u64 = self
            .effective_gbps
            .iter()
            .map(|&g| self.budget_bytes(g))
            .sum();
        let reserved: Vec<u64> = self
            .config
            .tenants
            .iter()
            .map(|t| match t.class {
                TenantClass::Reserved { gbps } => self.budget_bytes(gbps),
                TenantClass::BestEffort => 0,
            })
            .collect();
        self.ledger = TenantLedger::fund(global, &reserved);
        debug_assert!(self.ledger.conserves());
    }

    fn publish_gauges(&self) {
        self.metrics
            .gauge("dapd_window")
            .set(i64::from(self.window_seq));
        self.metrics
            .gauge("dapd_budget_bytes")
            .set(self.ledger.global().min(i64::MAX as u64) as i64);
        for (i, b) in self.config.backends.iter().enumerate() {
            self.metrics
                .gauge(&labeled("dapd_weight_ppm", &[("backend", &b.name)]))
                .set((self.weights[i] * 1e6) as i64);
            self.metrics
                .gauge(&labeled("dapd_effective_mbps", &[("backend", &b.name)]))
                .set((self.effective_gbps[i] * 1000.0) as i64);
        }
        // For the paper's two-source shape, also publish the degraded
        // K = B_MS$/B_MM ratio and the per-window access budgets the
        // hardware algorithm would run with, via dap-decide's seam.
        if let [cache, mm] = self.effective_gbps[..] {
            let k = degraded_k(cache, mm);
            self.metrics
                .gauge("dapd_k_milli")
                .set((k.as_f64() * 1000.0) as i64);
            let config = DapConfig {
                cache_gbps: self.config.backends[0].nominal_gbps,
                mm_gbps: self.config.backends[1].nominal_gbps,
                efficiency: self.config.efficiency,
                ..DapConfig::hbm_ddr4()
            };
            let budget = EffectiveBandwidth {
                cache_gbps: cache,
                split_channel_gbps: None,
                mm_gbps: mm,
            }
            .budget(&config);
            self.metrics
                .gauge("dapd_hw_cache_budget")
                .set(i64::from(budget.cache_budget));
            self.metrics
                .gauge("dapd_hw_mm_budget")
                .set(i64::from(budget.mm_budget));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig::hbm_ddr4_pair()).unwrap()
    }

    fn routed_split(e: &mut Engine, requests: u32, bytes: u32) -> Vec<u64> {
        let mut out = vec![0u64; e.config().backends.len()];
        for i in 0..requests {
            let d = e.route((i % 2) as u16, bytes).unwrap();
            out[d.backend] += u64::from(bytes);
        }
        out
    }

    #[test]
    fn routing_tracks_eq4_fractions() {
        let mut e = engine();
        let split = routed_split(&mut e, 10_000, 4096);
        let total: u64 = split.iter().sum();
        let f0 = split[0] as f64 / total as f64;
        // Eq. 4 for 102.4 + 38.4: f_hbm = 102.4/140.8 ≈ 0.727.
        assert!((f0 - 102.4 / 140.8).abs() < 0.01, "hbm fraction {f0}");
    }

    #[test]
    fn measured_throttle_shifts_routing() {
        let mut e = engine();
        // Backend 0 measurably throttles to 38.4 GB/s: equal split.
        e.report_served(0, 38_400, 1000).unwrap(); // 38.4 GB/s
        e.report_served(1, 38_400, 1000).unwrap();
        e.resolve();
        assert!((e.fractions()[0] - 0.5).abs() < 1e-9);
        let split = routed_split(&mut e, 10_000, 4096);
        let f0 = split[0] as f64 / (split[0] + split[1]) as f64;
        assert!((f0 - 0.5).abs() < 0.01, "post-throttle hbm fraction {f0}");
    }

    #[test]
    fn dark_backend_gets_exactly_zero_traffic() {
        let mut e = engine();
        // Window with traffic routed to both but only ddr4 serving.
        routed_split(&mut e, 64, 4096); // triggers a resolve... but no reports
        e.report_served(1, 38_400, 1000).unwrap();
        routed_split(&mut e, 64, 4096); // resolve sees hbm routed, served 0
        assert_eq!(e.fractions()[0], 0.0, "dark backend fraction");
        let split = routed_split(&mut e, 1000, 4096);
        assert_eq!(split[0], 0, "dark backend must receive no bytes");
        assert!(split[1] > 0);
    }

    #[test]
    fn dark_backend_revives_on_served_report() {
        let mut e = engine();
        e.report_served(1, 38_400, 1000).unwrap();
        routed_split(&mut e, 128, 4096);
        assert_eq!(e.fractions()[0], 0.0);
        // It comes back at half nominal.
        e.report_served(0, 51_200, 1000).unwrap(); // 51.2 GB/s
        e.resolve();
        assert!(
            e.fractions()[0] > 0.5,
            "revived fraction {}",
            e.fractions()[0]
        );
        let split = routed_split(&mut e, 1000, 4096);
        assert!(split[0] > split[1]);
    }

    #[test]
    fn unmeasured_windows_retain_estimates() {
        let mut e = engine();
        routed_split(&mut e, 64, 4096); // routed, nobody reports serving
        assert!((e.fractions()[0] - 102.4 / 140.8).abs() < 1e-9);
        let split = routed_split(&mut e, 1000, 4096);
        assert!(split[0] > 0 && split[1] > 0, "routing stays defined");
        assert!(e.stats_text().contains("dapd_unmeasured_windows"));
    }

    #[test]
    fn unknown_ids_rejected() {
        let mut e = engine();
        assert_eq!(e.route(99, 64), Err(EngineError::UnknownTenant(99)));
        assert_eq!(
            e.report_served(9, 64, 1),
            Err(EngineError::UnknownBackend(9))
        );
    }

    #[test]
    fn ledger_funds_reserved_before_pool() {
        let l = TenantLedger::fund(100, &[30, 0]);
        assert_eq!(l.reserved_remaining(), &[30, 0]);
        assert_eq!(l.pool_remaining(), 70);
        assert!(l.conserves());
    }

    #[test]
    fn ledger_clips_oversubscribed_reservations() {
        let l = TenantLedger::fund(50, &[40, 40]);
        assert_eq!(l.reserved_remaining(), &[40, 10]);
        assert_eq!(l.pool_remaining(), 0);
        assert!(l.conserves());
    }

    #[test]
    fn ledger_spend_order_reserved_then_pool_then_overdraft() {
        let mut l = TenantLedger::fund(100, &[30, 0]);
        assert_eq!(l.spend(0, 50), 0); // 30 reserved + 20 pool
        assert_eq!(l.reserved_remaining()[0], 0);
        assert_eq!(l.pool_remaining(), 50);
        assert_eq!(l.spend(1, 60), 10); // 50 pool + 10 overdraft
        assert_eq!(l.pool_remaining(), 0);
        assert_eq!(l.overdraft(), 10);
        assert_eq!(l.drained(), 100);
        assert!(l.conserves());
    }

    #[test]
    fn stats_text_is_prometheus_exposition() {
        let mut e = engine();
        routed_split(&mut e, 10, 64);
        let text = e.stats_text();
        assert!(text.contains("dapd_decisions_total 10"), "{text}");
        assert!(text.contains("# TYPE dapd_decisions_total counter"));
        assert!(text.contains("# HELP dapd_decisions_total "), "{text}");
        assert!(text.contains("dapd_weight_ppm{backend=\"hbm\"}"), "{text}");
        assert!(
            text.contains("dapd_routed_bytes_total{backend=\"hbm\"}"),
            "{text}"
        );
        dap_telemetry::check_exposition(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    }

    #[test]
    fn varz_reports_fractions_ledger_and_counters() {
        let mut e = engine();
        routed_split(&mut e, 130, 4096); // two full resolves and change
        let varz = e.varz_json();
        assert_eq!(
            varz.get("service").and_then(Json::as_str),
            Some("dapd"),
            "{varz:?}"
        );
        let backends = varz.get("backends").and_then(Json::as_arr).unwrap();
        assert_eq!(backends.len(), 2);
        let hbm = &backends[0];
        assert_eq!(hbm.get("name").and_then(Json::as_str), Some("hbm"));
        let ideal = hbm.get("ideal_fraction").and_then(Json::as_f64).unwrap();
        assert!((ideal - 102.4 / 140.8).abs() < 1e-9);
        let ledger = varz.get("ledger").unwrap();
        assert_eq!(ledger.get("conserves").and_then(Json::as_bool), Some(true));
        assert_eq!(
            varz.get("counters")
                .and_then(|c| c.get("dapd_decisions_total"))
                .and_then(Json::as_u64),
            Some(if dap_telemetry::enabled() { 130 } else { 0 })
        );
        // The snapshot round-trips through the in-tree JSON parser.
        dap_telemetry::json::parse(&varz.to_string_compact()).unwrap();
    }

    #[test]
    fn resolve_flight_records_inputs_and_outputs() {
        let mut e = engine();
        if !dap_telemetry::enabled() {
            e.resolve();
            assert_eq!(e.flight().total(), 0);
            return;
        }
        e.report_served(0, 38_400, 1000).unwrap();
        e.report_served(1, 38_400, 1000).unwrap();
        e.resolve();
        let events = e.flight().snapshot();
        let last = events.last().expect("resolve recorded");
        assert_eq!(last.kind, dap_telemetry::FlightKind::Resolve);
        assert_eq!(last.cause, "measured");
        // vals: [window, mbps0, mbps1, weight_ppm0, budget, k_milli]
        assert_eq!(last.vals[0], i64::from(e.window_seq()));
        assert_eq!(last.vals[1], 38_400); // 38.4 GB/s in MB/s
        assert_eq!(last.vals[3], 500_000); // equal split, ppm
        assert_eq!(last.vals[5], 1000); // K = 1.0 at equal rates
    }

    #[test]
    fn two_backend_engines_publish_hw_budgets() {
        let e = engine();
        let text = e.stats_text();
        // Nominal 102.4/38.4 at E=0.75, W=64 → the paper's 19/7 budgets.
        assert!(text.contains("dapd_hw_cache_budget 19"), "{text}");
        assert!(text.contains("dapd_hw_mm_budget 7"), "{text}");
        assert!(text.contains("dapd_k_milli 2750"), "{text}");
    }
}
