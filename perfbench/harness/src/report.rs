//! The metric catalogue and the JSON the harness prints.
//!
//! `END_TO_END` and `PER_LAYER` must match `BENCHMARK.json` name for name
//! and unit for unit; `perfbench/run.py` checks every result against it and
//! `perfbench/test_run.py` checks the catalogue itself (`--list-metrics`).

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Bounded end-to-end metrics, measured with tracing off on every workload.
pub const END_TO_END: &[Def] = &[
    def("mcs_per_s", "sweeps/s"),
    def("accuracy_pct", "%"),
    def("latency_p50_ms", "ms"),
    def("latency_p99_ms", "ms"),
    def("goodput_jobs_per_s", "jobs/s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
];

/// End-to-end figures printed in the report line but not bounded: they can
/// be zero (`failed_pct`) or swing with the instance draw (`feasible_pct`),
/// so a relative bound on them would be meaningless.
pub const UNBOUNDED: &[Def] = &[
    def("feasible_pct", "%"),
    def("failed_pct", "%"),
    def("latency_tail_pct", "%"),
    def("latency_samples", "count"),
    def("bench.gen_late_p99_ms", "ms"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[Def] = &[
    def("core.setup_us", "us"),
    def("core.evaluate_us.p50", "us"),
    def("core.ascend_us.p50", "us"),
    def("core.share_pct", "%"),
    def("machine.solve_us.p50", "us"),
    def("machine.solve_us.p99", "us"),
    def("machine.mupd_per_s", "Mupd/s"),
    def("machine.init_us", "us"),
    def("machine.ensemble_solve_ms", "ms"),
    def("machine.pt_solve_ms", "ms"),
    def("machine.thread_speedup", "x"),
    def("ising.to_ising_us", "us"),
    def("service.run_us.p50.ensemble_r1", "us"),
    def("service.run_us.p50.ensemble_r4", "us"),
    def("frontend.frame_kb", "kB"),
    def("frontend.frame_kb.n100", "kB"),
    def("frontend.frame_kb.n200", "kB"),
    def("frontend.frame_kb.n300", "kB"),
    def("frontend.decode_us.p50", "us"),
    def("frontend.encode_us.p50", "us"),
    def("frontend.outcome_encode_us.p50", "us"),
    def("frontend.accept_ms.p50", "ms"),
    def("frontend.accept_ms.p99", "ms"),
    def("frontend.backend_settle_ms.p50", "ms"),
    def("frontend.backend_settle_ms.p99", "ms"),
    def("frontend.queue_wait_ms.p50", "ms"),
    def("frontend.shed", "count"),
    def("cluster.hop_ms.p50", "ms"),
    def("cluster.hop_ms.p99", "ms"),
    def("cluster.journal_kb_per_job", "kB"),
    def("cluster.max_backend_share_pct", "%"),
    def("cluster.reroutes", "count"),
    def("cluster.duplicates_dropped", "count"),
    def("cluster.hedges_fired", "count"),
    def("cluster.outcome_mismatches", "count"),
    def("bench.gen_late_p99_ms", "ms"),
    def("trace_overhead_pct", "%"),
];

/// Looks a metric up in every catalogue.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(UNBOUNDED)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

pub use serde::Value;

/// A JSON object with its fields in the given order.
pub fn obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON string.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("a value tree always serializes")
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (solves, served jobs, checks).
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure was counted.
    pub failures: Vec<String>,
    /// Workload parameters and findings, for the report line.
    pub info: Vec<(String, Value)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric `{name}` is not catalogued");
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.metrics.insert(name, value);
    }

    pub fn info(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    /// Counts one checked operation; a failed check is recorded with its
    /// reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Like [`Report::check`] for a batch of operations that all passed or
    /// were counted individually by the caller.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn metric_obj(&self, defs: &[&Def]) -> Value {
        Value::Object(
            defs.iter()
                .map(|d| {
                    let value = self.metrics.get(d.name).copied().unwrap_or_else(|| {
                        panic!("metric `{}` was not measured", d.name);
                    });
                    (
                        d.name.to_string(),
                        obj(vec![("value", Value::Float(value)), ("unit", text(d.unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The full report line: every measured metric plus run information.
    pub fn report_line(&self, trace: bool) -> String {
        let mut defs: Vec<&Def> = if trace {
            PER_LAYER.iter().collect()
        } else {
            END_TO_END.iter().collect()
        };
        for d in UNBOUNDED {
            if self.metrics.contains_key(d.name) && defs.iter().all(|e| e.name != d.name) {
                defs.push(d);
            }
        }
        let mut fields = vec![
            ("metrics".to_string(), self.metric_obj(&defs)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            (
                "failures".to_string(),
                Value::Array(self.failures.iter().map(|f| text(f.as_str())).collect()),
            ),
        ];
        fields.extend(self.info.iter().cloned());
        json(&obj(vec![("report", Value::Object(fields))]))
    }

    /// The contract's last line: exactly the bounded end-to-end metrics
    /// (`trace == false`) or exactly the per-layer ones.
    pub fn result_line(&self, trace: bool) -> String {
        let defs: Vec<&Def> = if trace {
            PER_LAYER.iter().collect()
        } else {
            END_TO_END.iter().collect()
        };
        json(&obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::UInt(self.attempted.max(1))),
            ("failed", Value::UInt(self.failed)),
            ("metrics", self.metric_obj(&defs)),
        ]))
    }
}

/// The catalogue as JSON, for `--list-metrics`.
pub fn catalogue() -> String {
    let list = |defs: &[Def]| {
        Value::Array(
            defs.iter()
                .map(|d| obj(vec![("name", text(d.name)), ("unit", text(d.unit))]))
                .collect(),
        )
    };
    json(&obj(vec![
        ("end_to_end", list(END_TO_END)),
        ("per_layer", list(PER_LAYER)),
        ("unbounded", list(UNBOUNDED)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_carries_exactly_the_selected_set() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        r.set("failed_pct", 0.0);
        r.check(true, String::new);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0"));
        assert!(!line.contains("failed_pct"));
        for d in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\":{{\"value\":1.5,\"unit\":\"{}\"}}",
                d.name, d.unit
            )));
        }
        assert!(r.report_line(false).contains("failed_pct"));
    }
}
