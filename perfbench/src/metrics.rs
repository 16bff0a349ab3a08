//! The metric registry (names, units, directions) and the result record
//! a run prints. `BENCHMARK.json` at the repository root lists the same
//! names; the crate's tests keep the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]` only.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: printed by every untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("solved_rps", "req/s", Higher),
    m("hit_frac", "fraction", Higher),
    m("urllc_hit_frac", "fraction", Higher),
    m("urllc_p50_ms", "ms", Lower),
    m("urllc_p99_ms", "ms", Lower),
    m("embb_p50_ms", "ms", Lower),
    m("embb_p99_ms", "ms", Lower),
    m("mmtc_p50_ms", "ms", Lower),
    m("mmtc_p99_ms", "ms", Lower),
    m("mean_se", "bit/s/Hz", Higher),
    m("qos_sat_frac", "fraction", Higher),
    m("bound_gap", "fraction", Lower),
];

/// Per-layer metrics: printed by every traced run of every workload. A
/// layer a workload does not exercise reads `0`.
pub const PER_LAYER: &[MetricDef] = &[
    m("qos.power.evaluate_ms.small", "ms", Lower),
    m("qos.power.evaluate_ms.large", "ms", Lower),
    m("qos.rra.greedy_ms.p50", "ms", Lower),
    m("qos.rra.greedy_ms.p99", "ms", Lower),
    m("qos.rra.exact_ms.p50", "ms", Lower),
    m("qos.rra.exact_ms.p99", "ms", Lower),
    m("qos.rra.pso_ms.p50", "ms", Lower),
    m("qos.rra.pso_ms.p99", "ms", Lower),
    m("qos.rra.greedy_ms.large.p50", "ms", Lower),
    m("qos.rra.greedy_ms.large.p99", "ms", Lower),
    m("qos.robust.plan_ms.small", "ms", Lower),
    m("qos.robust.plan_ms.large", "ms", Lower),
    m("qos.robust.solve_ms.small", "ms", Lower),
    m("qos.robust.solve_ms.large", "ms", Lower),
    m("serve.service.solve_ms.greedy.p50", "ms", Lower),
    m("serve.service.solve_ms.greedy.p99", "ms", Lower),
    m("serve.service.solve_ms.robust.p50", "ms", Lower),
    m("serve.service.solve_ms.robust.p99", "ms", Lower),
    m("serve.queue.wait_ms.urllc.p50", "ms", Lower),
    m("serve.queue.wait_ms.urllc.p99", "ms", Lower),
    m("serve.queue.wait_ms.embb.p50", "ms", Lower),
    m("serve.queue.wait_ms.embb.p99", "ms", Lower),
    m("serve.queue.wait_ms.mmtc.p50", "ms", Lower),
    m("serve.queue.wait_ms.mmtc.p99", "ms", Lower),
    m("serve.queue.lane_hwm.urllc", "count", Lower),
    m("serve.queue.lane_hwm.embb", "count", Lower),
    m("serve.queue.lane_hwm.mmtc", "count", Lower),
    m("serve.queue.rejected_frac", "fraction", Lower),
    m("serve.queue.expired_frac.enqueue", "fraction", Lower),
    m("serve.queue.expired_frac.queue", "fraction", Lower),
    m("serve.queue.expired_frac.solve", "fraction", Lower),
    m("serve.service.residual_ms.urllc.p50", "ms", Lower),
    m("serve.service.residual_ms.urllc.p99", "ms", Lower),
    m("serve.service.residual_ms.embb.p50", "ms", Lower),
    m("serve.service.residual_ms.embb.p99", "ms", Lower),
    m("serve.service.residual_ms.mmtc.p50", "ms", Lower),
    m("serve.service.residual_ms.mmtc.p99", "ms", Lower),
    m("serve.service.submit_us.p50", "us", Lower),
    m("serve.service.submit_us.p99", "us", Lower),
    m("serve.service.batch_size.embb", "count", Higher),
    m("serve.service.batch_size.mmtc", "count", Higher),
    m("serve.service.batches", "count", Lower),
    m("serve.reuse.hit_ratio", "fraction", Higher),
    m("serve.reuse.evictions", "count", Lower),
    m("serve.wire.encode_request_us", "us", Lower),
    m("serve.wire.parse_request_us", "us", Lower),
    m("serve.wire.encode_response_us", "us", Lower),
    m("serve.wire.parse_response_us", "us", Lower),
    m("serve.wire.bytes_per_req", "bytes", Lower),
    m("serve.wire.seed_fallback_frac", "fraction", Lower),
    m("scenarios.trace.gen_us", "us", Lower),
    m("harness.trace_overhead_frac", "fraction", Lower),
    m("harness.residual_negative", "count", Lower),
];

/// Looks a metric up in either registry.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The measurement.
    pub value: f64,
    /// Samples it summarizes.
    pub samples: usize,
}

/// The metrics of one run, keyed by registered name.
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    values: BTreeMap<&'static str, Value>,
}

impl MetricSet {
    /// Records `name`. Panics on an unregistered name: that is a bug in
    /// the benchmark, not a property of the measured program.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = find(name).unwrap_or_else(|| panic!("unregistered metric {name}"));
        self.values.insert(def.name, Value { value, samples });
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// Keeps exactly the metrics of `defs`, filling the ones not recorded
    /// with zero (a layer the workload does not exercise).
    pub fn restrict(&self, defs: &[MetricDef]) -> MetricSet {
        let values = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).unwrap_or(Value {
                    value: 0.0,
                    samples: 0,
                });
                (d.name, v)
            })
            .collect();
        MetricSet { values }
    }

    /// Human-readable table: name, value, unit, samples.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            let unit = find(name).map_or("", |d| d.unit);
            out.push_str(&format!(
                "  {name:<40} {:>14.6} {unit:<9} n={}\n",
                v.value, v.samples
            ));
        }
        out
    }

    /// The `metrics` object of the result line (sample counts go to the
    /// table from [`MetricSet::render`]).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, v)| {
                let unit = find(name).map_or("", |d| d.unit);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(v.value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) print as `0`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics.to_json()
    )
}
