//! The metric catalog, one workload's result, and the JSON both travel
//! in: child process → parent (one line on stdout), parent → `--json`
//! report and the final result line.

use std::collections::BTreeMap;

use dap_telemetry::json::{obj, parse, Json};

/// End-to-end metrics every workload reports, with their units. Their
/// meaning per workload is in this directory's README.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// a workload never enters reads 0.
pub const LAYERS: [(&str, &str); 61] = [
    ("workloads.next_op.calls", "count"),
    ("workloads.next_op.self_s", "s"),
    ("workloads.next_op.share", "ratio"),
    ("policy.calls", "count"),
    ("policy.calls_per_access", "ratio"),
    ("policy.self_s", "s"),
    ("policy.share", "ratio"),
    ("policy.tick.calls", "count"),
    ("policy.observe.calls", "count"),
    ("policy.route_read.calls", "count"),
    ("policy.route_write.calls", "count"),
    ("policy.allow_fill.calls", "count"),
    ("policy.force_clean_hit.calls", "count"),
    ("mem_sim.self_s", "s"),
    ("mem_sim.share", "ratio"),
    ("mem_sim.ns_per_kinstr", "ns"),
    ("mem_sim.ns_per_access", "ns"),
    ("mem_sim.instructions", "count"),
    ("mem_sim.accesses", "count"),
    ("mem_sim.accesses_per_kinstr", "ratio"),
    ("mem_sim.l3_mpki", "ratio"),
    ("mem_sim.write_share", "ratio"),
    ("mem_sim.ms_hit_ratio", "ratio"),
    ("mem_sim.tag_miss_ratio", "ratio"),
    ("mem_sim.ms_cas", "count"),
    ("mem_sim.mm_cas", "count"),
    ("mem_sim.kernel.epochs", "count"),
    ("mem_sim.kernel.skipped_quanta", "count"),
    ("dap.decisions.fwb", "count"),
    ("dap.decisions.wb", "count"),
    ("dap.decisions.ifrm", "count"),
    ("dap.decisions.sfrm", "count"),
    ("experiments.wall_s", "s"),
    ("experiments.setup_s", "s"),
    ("experiments.run_s", "s"),
    ("experiments.alone_s", "s"),
    ("experiments.checkpoint.record_s", "s"),
    ("experiments.checkpoint.records", "count"),
    ("experiments.resume.lookup_s", "s"),
    ("experiments.exec_overhead_s", "s"),
    ("experiments.setup_share", "ratio"),
    ("dapd.wire.encode_ns", "ns"),
    ("dapd.wire.decode_ns", "ns"),
    ("dapd.engine.route_ns", "ns"),
    ("dapd.engine.report_ns", "ns"),
    ("dapd.engine.resolve_route_ns", "ns"),
    ("dapd.engine.resolves", "count"),
    ("dapd.server.decision_p50_ns", "ns"),
    ("dapd.server.decision_p99_ns", "ns"),
    ("dapd.socket_share", "ratio"),
    ("dapd.rtt_p999_us", "us"),
    ("dapd.rtt_samples", "count"),
    ("dapd.open.p99_us", "us"),
    ("dapd.open.samples", "count"),
    ("dapd.open.late_max_ms", "ms"),
    ("dapd.open.on_time_ratio", "ratio"),
    ("dapd.rejects", "count"),
    ("dapd.reconnects", "count"),
    ("dapd.indeterminate_reports", "count"),
    ("trace.overhead", "ratio"),
    ("trace.residual", "ratio"),
];

fn unit_of(catalog: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    catalog.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// A metric's value with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The reported value: a median or another quantile of the samples.
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: u64,
}

impl Stat {
    /// The median of `samples` (mean of the middle two for even counts).
    pub fn median(samples: &[f64]) -> Self {
        let sorted = sorted(samples);
        let n = sorted.len();
        let value = match n {
            0 => 0.0,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        };
        Self::over(&sorted, value)
    }

    /// The lower quartile of repeated timings of one unit of work: host
    /// interference only ever adds time, so the faster repetitions
    /// estimate the unit's own cost.
    pub fn lower_quartile(samples: &[f64]) -> Self {
        Self::quantile(samples, 0.25)
    }

    /// The nearest-rank `q` quantile of `samples`.
    pub fn quantile(samples: &[f64], q: f64) -> Self {
        let sorted = sorted(samples);
        Self::over(&sorted, nearest_rank(&sorted, q))
    }

    fn over(sorted: &[f64], value: f64) -> Self {
        Self {
            value,
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            n: sorted.len() as u64,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Everything one workload run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Operations attempted: simulation passes, grid cells and resume
    /// lookups, or dapd requests, plus one per correctness gate.
    pub attempted: u64,
    /// Operations that failed or gates that did not hold.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Digest of the outputs every pass must reproduce.
    pub digest: String,
    /// Timed passes.
    pub passes: u64,
    /// End-to-end metrics, keyed by [`END_TO_END`] names.
    pub end_to_end: BTreeMap<String, Stat>,
    /// Per-layer metrics from the traced pass, keyed by [`LAYERS`]
    /// names; empty when the run was not traced.
    pub layers: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// An empty result for `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            digest: String::new(),
            passes: 0,
            end_to_end: BTreeMap::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Whether every operation succeeded and every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Counts one checked operation; a failed check is recorded with
    /// `what` as its message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Sets an end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`END_TO_END`].
    pub fn set_end_to_end(&mut self, name: &str, stat: Stat) {
        assert!(
            unit_of(&END_TO_END, name).is_some(),
            "{name} is not an end-to-end metric"
        );
        self.end_to_end.insert(name.to_string(), stat);
    }

    /// Sets a per-layer metric, first filling every catalog entry with 0
    /// so a traced result always carries the whole catalog.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`LAYERS`].
    pub fn set_layer(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(&LAYERS, name).is_some(),
            "{name} is not a per-layer metric"
        );
        if self.layers.is_empty() {
            for (n, _) in LAYERS {
                self.layers.insert(n.to_string(), 0.0);
            }
        }
        self.layers.insert(name.to_string(), value);
    }

    /// Serializes the result.
    pub fn to_json(&self) -> Json {
        let stat = |s: &Stat| {
            obj([
                ("value", Json::Num(s.value)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("n", Json::Num(s.n as f64)),
            ])
        };
        obj([
            ("workload", Json::Str(self.workload.clone())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
            ("digest", Json::Str(self.digest.clone())),
            ("passes", Json::Num(self.passes as f64)),
            (
                "end_to_end",
                Json::Obj(
                    self.end_to_end
                        .iter()
                        .map(|(k, s)| (k.clone(), stat(s)))
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a result serialized by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        let num = |j: &Json, k: &str| -> Result<f64, String> {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number `{k}`"))
        };
        let int = |j: &Json, k: &str| -> Result<u64, String> {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing count `{k}`"))
        };
        let text_of = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{k}`"))
        };
        let members = |k: &str| -> Result<&BTreeMap<String, Json>, String> {
            match v.get(k) {
                Some(Json::Obj(m)) => Ok(m),
                _ => Err(format!("missing object `{k}`")),
            }
        };
        let mut end_to_end = BTreeMap::new();
        for (k, s) in members("end_to_end")? {
            end_to_end.insert(
                k.clone(),
                Stat {
                    value: num(s, "value")?,
                    min: num(s, "min")?,
                    max: num(s, "max")?,
                    n: int(s, "n")?,
                },
            );
        }
        let mut layers = BTreeMap::new();
        for (k, x) in members("layers")? {
            let value = x
                .as_f64()
                .ok_or_else(|| format!("layer `{k}` is not a number"))?;
            layers.insert(k.clone(), value);
        }
        let errors = v
            .get("errors")
            .and_then(Json::as_arr)
            .ok_or("missing array `errors`")?
            .iter()
            .map(|e| e.as_str().map(str::to_string).ok_or("non-string error"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            workload: text_of("workload")?,
            attempted: int(&v, "attempted")?,
            failed: int(&v, "failed")?,
            errors,
            digest: text_of("digest")?,
            passes: int(&v, "passes")?,
            end_to_end,
            layers,
        })
    }
}

/// The contract line: `correct`, `attempted`, `failed` and `metrics`,
/// where the metrics are the end-to-end ones, or the per-layer ones when
/// `traced`. Several workloads prefix each metric with the workload name.
pub fn result_line(results: &[WorkloadResult], traced: bool) -> String {
    let mut metrics = BTreeMap::new();
    for r in results {
        let prefix = if results.len() == 1 {
            String::new()
        } else {
            format!("{}.", r.workload)
        };
        let entry = |value: f64, unit: &str| {
            obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ])
        };
        if traced {
            for (name, value) in &r.layers {
                let unit = unit_of(&LAYERS, name).unwrap_or("count");
                metrics.insert(format!("{prefix}{name}"), entry(*value, unit));
            }
        } else {
            for (name, stat) in &r.end_to_end {
                let unit = unit_of(&END_TO_END, name).unwrap_or("count");
                metrics.insert(format!("{prefix}{name}"), entry(stat.value, unit));
            }
        }
    }
    obj([
        (
            "correct",
            Json::Bool(results.iter().all(WorkloadResult::correct)),
        ),
        (
            "attempted",
            Json::Num(results.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64),
        ),
        (
            "failed",
            Json::Num(results.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact()
}
