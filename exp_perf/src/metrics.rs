//! The metric registry (mirrored by `BENCHMARK.json`) and the report a
//! run prints: one `name value unit` line per metric, then one JSON line.

use std::fmt::Write as _;

/// Which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (share of the parent's median) for end-to-end
    /// metrics; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the server sees; reported by untraced runs. Wall-clock
/// throughput and the latency tail drift with the CPU time the host
/// steals from a small virtual machine, so they are per-layer metrics of
/// the load generator. The CPU time a request costs excludes stolen time
/// and drifts less. The bounds are sized to the spreads `PERF.md` records.
pub const END_TO_END: &[MetricDef] = &[
    e2e("latency_p50_us", "us", Lower, 0.24),
    e2e("cpu_us_per_request", "us", Lower, 0.24),
    e2e("rss_growth_mb", "MiB", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One layer each; reported by traced runs. Layers are named after the
/// modules they time (see `PERF.md` for the layer → module map).
pub const PER_LAYER: &[MetricDef] = &[
    layer("http.read_request_us", "us", Lower),
    layer("http.write_response_us", "us", Lower),
    layer("http.crc_us", "us", Lower),
    layer("wire.parse_us", "us", Lower),
    layer("wire.render_us", "us", Lower),
    layer("server.memo_hits", "count", Higher),
    layer("server.memo_hit_ratio", "ratio", Higher),
    layer("admission.admit_us", "us", Lower),
    layer("admission.admitted", "count", Higher),
    layer("engine.job_us", "us", Lower),
    layer("engine.overhead_us", "us", Lower),
    layer("engine.jobs_submitted", "count", Lower),
    layer("engine.cache_hits", "count", Higher),
    layer("engine.cache_misses", "count", Lower),
    layer("engine.hit_ratio", "ratio", Higher),
    layer("engine.single_flight_joins", "count", Higher),
    layer("engine.queue_high_water", "count", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("store.get_us", "us", Lower),
    layer("store.put_us", "us", Lower),
    layer("store.hits", "count", Higher),
    layer("store.appends", "count", Lower),
    layer("store.records", "count", Lower),
    layer("homcount.count_us", "us", Lower),
    layer("homcount.count_p99_us", "us", Lower),
    layer("homcount.resolve_us", "us", Lower),
    layer("homcount.naive_share", "ratio", Higher),
    layer("homcount.promotions", "count", Lower),
    layer("containment.check_us.bag-search", "us", Lower),
    layer("containment.check_us.set-chandra-merlin", "us", Lower),
    layer("containment.check_us.set-ucq", "us", Lower),
    layer("containment.check_us.bag-ucq", "us", Lower),
    layer("containment.check_p99_us", "us", Lower),
    layer("containment.counts_per_check", "count", Lower),
    layer("containment.unknown", "count", Lower),
    layer("containment.decided_frac", "ratio", Higher),
    layer("loadgen.throughput_rps", "req/s", Higher),
    layer("loadgen.latency_p99_us", "us", Lower),
    layer("loadgen.lag_p99_us", "us", Lower),
    layer("residual_us", "us", Lower),
    layer("trace_overhead", "ratio", Lower),
];

/// The unit a declared metric is printed with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Declared metrics, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Informational `name value unit` lines printed before the metrics
    /// (cross-checks, counts); not part of the JSON result.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Whether every answer and every oracle agreed.
    pub correct: bool,
    /// Timed requests sent.
    pub attempted: u64,
    /// Timed requests that failed.
    pub failed: u64,
    /// Failure reasons worth showing.
    pub reasons: Vec<String>,
}

impl Report {
    /// A declared metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The text a run prints: notes, metrics, then the JSON result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.notes {
            let _ = writeln!(out, "{name} {} {unit}", number(*value));
        }
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "{name} {} {}", number(*value), unit_of(name));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    number(*value),
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` has. A failed request's `+∞`
/// latency is written as the largest finite double.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_setup_is_declared() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    #[test]
    fn json_is_one_line_and_parses() {
        let report = Report {
            metrics: vec![("latency_p50_us", f64::INFINITY), ("setup_s", 0.25)],
            correct: true,
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        let line = report.json();
        assert!(!line.contains('\n'));
        let doc = bagcq_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
    }
}
