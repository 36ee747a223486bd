//! The metric catalogue: every name and unit the benchmark can emit, in
//! one place. `BENCHMARK.json` must list exactly these (`--check` and a
//! unit test compare the two in both directions), and a workload can only
//! set a metric that is in the catalogue.
//!
//! Every run reports *every* metric of the requested kind: a per-layer
//! metric whose layer the workload bypasses reads 0 (that is the
//! prediction the README's interaction table makes for it), while the
//! end-to-end metrics are defined so that every workload produces a
//! non-zero value for each.

use crate::stats::{json_number, json_string};

/// The evaluated configurations, in panel column order.
pub const BACKENDS: [&str; 4] = ["ms", "mp", "ocelot_cpu", "ocelot_gpu"];

/// Operator classes `NodeProfile` time is summed into; with
/// `engine.plan_overhead_ms` they partition the profiled total exactly.
pub const OP_CLASSES: [&str; 9] =
    ["bind", "select", "fetch", "calc", "join", "group", "agg", "sort", "other"];

/// The ported TPC-H queries (`ocelot_tpch::PORTED_QUERY_IDS`).
pub const QUERY_IDS: [u32; 8] = ocelot_tpch::PORTED_QUERY_IDS;

/// Name and unit of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit }
}

/// What a user of the system sees; each has a regression bound in
/// `BENCHMARK.json`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s"),
        def("peak_rss_mb", "MB"),
        def("geomean_ms", "ms"),
        def("ocelot_geomean_ms", "ms"),
        def("ocelot_sweep_ms", "ms"),
        def("ops_per_s", "1/s"),
    ]
}

/// Single-layer metrics, grouped by the crate/module they blame.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for backend in BACKENDS {
        for id in QUERY_IDS {
            defs.push(def(format!("tpch.{backend}.q{id}_ms"), "ms"));
        }
        defs.push(def(format!("tpch.{backend}.geomean_ms"), "ms"));
    }
    defs.push(def("tpch.ocelot_cpu.sweep_ms", "ms"));
    defs.push(def("tpch.ocelot_gpu.sweep_ms", "ms"));
    defs.push(def("tpch.dbgen_mrows_s", "Mrows/s"));
    for backend in BACKENDS {
        for class in OP_CLASSES {
            defs.push(def(format!("ops.{backend}.{class}_ms"), "ms"));
        }
    }
    for (name, unit) in [
        ("engine.nodes", "count"),
        ("engine.profiled_total_ms", "ms"),
        ("engine.plan_overhead_ms", "ms"),
        ("engine.us_per_node", "us"),
        ("engine.compile_cold_ms", "ms"),
        ("engine.compile_cached_us", "us"),
        ("engine.plan_cache_hit_rate", "ratio"),
        ("kernel.launches", "count"),
        ("kernel.flushes", "count"),
        ("kernel.transfers", "count"),
        ("kernel.bytes_to_device", "bytes"),
        ("kernel.bytes_from_device", "bytes"),
        ("kernel.queue_host_ms", "ms"),
        ("kernel.gpu_modeled_ms", "ms"),
        ("core.cache_hits", "count"),
        ("core.cache_misses", "count"),
        ("core.cache_evictions", "count"),
        ("core.cache_bytes_uploaded", "bytes"),
        ("core.pool_hits", "count"),
        ("core.pool_misses", "count"),
        ("core.reclaims", "count"),
        ("core.node_restarts", "count"),
        ("core.spills", "count"),
        ("core.spilled_bytes", "bytes"),
        ("core.pressure_slowdown", "ratio"),
        ("serve.qps", "1/s"),
        ("serve.p50_ms", "ms"),
        ("serve.p99_ms", "ms"),
        ("serve.q1_p50_ms", "ms"),
        ("serve.q3_p50_ms", "ms"),
        ("serve.q6_p50_ms", "ms"),
        ("sched.batch_qps", "1/s"),
        ("sched.batch_ms_p50", "ms"),
        ("sched.queue_wait_ms_p50", "ms"),
        ("sched.rejected", "count"),
        ("trace.overhead_frac", "ratio"),
        ("trace.events", "count"),
        ("mem.memcpy_1t_gbs", "GB/s"),
        ("mem.memcpy_nt_gbs", "GB/s"),
        ("mem.memcpy_drift", "ratio"),
        ("mem.rss_growth_mb", "MB"),
    ] {
        defs.push(def(name, unit));
    }
    defs
}

/// Values for one catalogue, every entry starting at 0.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: Vec<MetricDef>,
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: Vec<MetricDef>) -> Metrics {
        let values = vec![0.0; defs.len()];
        Metrics { defs, values }
    }

    fn index(&self, name: &str) -> usize {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue (metrics.rs)"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let index = self.index(name);
        self.values[index] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(d, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&d.name),
                    json_number(v),
                    json_string(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract_limits() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
    }

    #[test]
    fn metrics_start_at_zero_and_render_as_json() {
        let mut m = Metrics::new(vec![def("a.b", "ms"), def("c", "count")]);
        m.set("a.b", 1.5);
        assert_eq!(m.get("c"), 0.0);
        assert_eq!(
            m.to_json(),
            "{\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 0, \"unit\": \"count\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn setting_an_unknown_metric_is_a_bug() {
        Metrics::new(end_to_end()).set("no_such_metric", 1.0);
    }
}
