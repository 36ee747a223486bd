//! One evaluated configuration behind one object-safe interface, and the
//! counter snapshots the per-layer `kernel.*` / `core.*` metrics are read
//! from.
//!
//! Everything here goes through the engine's public surface — `run_query`,
//! `Session::{run, explain_analyze, metrics, attach_tracer}` — never the
//! `Backend` operator methods, whose signatures are free to change.

use ocelot_engine::{
    Backend, MetricsRegistry, Plan, PlanError, PlanProfile, QueryValue, Session, TraceSink,
};
use ocelot_storage::Catalog;
use ocelot_tpch::{run_query, QueryError, QueryResult, TpchDb};
use std::sync::Arc;

/// A session of one configuration, under its panel label (`ms`, `mp`,
/// `ocelot_cpu`, `ocelot_gpu`).
pub trait Runner {
    fn label(&self) -> &'static str;
    fn run_query(&self, db: &TpchDb, id: u32) -> Result<QueryResult, QueryError>;
    fn profile(
        &self,
        plan: &Plan,
        catalog: &Catalog,
    ) -> Result<(Vec<QueryValue>, PlanProfile), PlanError>;
    fn metrics(&self) -> MetricsRegistry;
    fn attach_tracer(&self, sink: &Arc<TraceSink>);
    fn detach_tracer(&self);

    fn is_ocelot(&self) -> bool {
        self.label().starts_with("ocelot")
    }
}

pub struct SessionRunner<B: Backend> {
    pub label: &'static str,
    pub session: Session<B>,
}

impl<B: Backend> Runner for SessionRunner<B> {
    fn label(&self) -> &'static str {
        self.label
    }

    fn run_query(&self, db: &TpchDb, id: u32) -> Result<QueryResult, QueryError> {
        run_query(&self.session, db, id)
    }

    fn profile(
        &self,
        plan: &Plan,
        catalog: &Catalog,
    ) -> Result<(Vec<QueryValue>, PlanProfile), PlanError> {
        self.session.explain_analyze(plan, catalog)
    }

    fn metrics(&self) -> MetricsRegistry {
        self.session.metrics()
    }

    fn attach_tracer(&self, sink: &Arc<TraceSink>) {
        self.session.attach_tracer(sink);
    }

    fn detach_tracer(&self) {
        self.session.detach_tracer();
    }
}

/// Who owns a counter: each session has its own queue, Memory Manager and
/// recovery state, while the column cache and buffer pool are per device —
/// summing a device-wide counter over the sessions of one device would
/// count it once per session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Session,
    /// Per session, but meaningful only on the modelled GPU (on CPU
    /// devices modelled time just mirrors host time).
    GpuSession,
    Device,
}

/// `(registry counter, per-layer metric, scope, scale)`: the registry
/// value times `scale` is the metric's unit.
pub const COUNTERS: [(&str, &str, Scope, f64); 17] = [
    ("ocelot.queue.kernels", "kernel.launches", Scope::Session, 1.0),
    ("ocelot.queue.flushes", "kernel.flushes", Scope::Session, 1.0),
    ("ocelot.queue.transfers", "kernel.transfers", Scope::Session, 1.0),
    ("ocelot.queue.bytes_to_device", "kernel.bytes_to_device", Scope::Session, 1.0),
    ("ocelot.queue.bytes_from_device", "kernel.bytes_from_device", Scope::Session, 1.0),
    ("ocelot.queue.host_ns", "kernel.queue_host_ms", Scope::Session, 1e-6),
    ("ocelot.queue.modeled_ns", "kernel.gpu_modeled_ms", Scope::GpuSession, 1e-6),
    ("ocelot.reclaims", "core.reclaims", Scope::Session, 1.0),
    ("session.recovery.oom_restarts", "core.node_restarts", Scope::Session, 1.0),
    ("ocelot.spill.spills", "core.spills", Scope::Session, 1.0),
    ("ocelot.spill.spilled_bytes", "core.spilled_bytes", Scope::Session, 1.0),
    ("ocelot.cache.hits", "core.cache_hits", Scope::Device, 1.0),
    ("ocelot.cache.misses", "core.cache_misses", Scope::Device, 1.0),
    ("ocelot.cache.evictions", "core.cache_evictions", Scope::Device, 1.0),
    ("ocelot.cache.bytes_uploaded", "core.cache_bytes_uploaded", Scope::Device, 1.0),
    ("ocelot.pool.hits", "core.pool_hits", Scope::Device, 1.0),
    ("ocelot.pool.misses", "core.pool_misses", Scope::Device, 1.0),
];

/// One reading of every [`COUNTERS`] entry (0 where the backend does not
/// register it — the host backends register none).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters(pub [u64; COUNTERS.len()]);

impl Counters {
    pub fn read(registry: &MetricsRegistry) -> Counters {
        let mut values = [0u64; COUNTERS.len()];
        for (slot, (name, ..)) in values.iter_mut().zip(COUNTERS.iter()) {
            *slot = registry.counter(name).unwrap_or(0);
        }
        Counters(values)
    }

    /// `self - earlier`, counter-wise (all counters are monotone).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut values = self.0;
        for (value, before) in values.iter_mut().zip(earlier.0.iter()) {
            *value = value.saturating_sub(*before);
        }
        Counters(values)
    }

    /// Adds the counters of `other` whose scope passes `keep`.
    pub fn absorb(&mut self, other: &Counters, keep: impl Fn(Scope) -> bool) {
        for (index, (_, _, scope, _)) in COUNTERS.iter().enumerate() {
            if keep(*scope) {
                self.0[index] += other.0[index];
            }
        }
    }
}

/// Per-pass counter totals of a workload, reduced to a per-pass mean and
/// the min–max over passes (thread interleaving can move some counts, e.g.
/// hash-build restarts; the report shows the range instead of pretending
/// they are exact).
#[derive(Debug, Default)]
pub struct CounterLog {
    passes: Vec<Counters>,
}

impl CounterLog {
    pub fn push(&mut self, pass: Counters) {
        self.passes.push(pass);
    }

    /// `(metric, mean per pass, min, max)` in the metric's unit.
    pub fn summary(&self) -> Vec<(&'static str, f64, f64, f64)> {
        COUNTERS
            .iter()
            .enumerate()
            .map(|(index, (_, metric, _, scale))| {
                let values: Vec<f64> =
                    self.passes.iter().map(|p| p.0[index] as f64 * scale).collect();
                let n = values.len().max(1) as f64;
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = values.iter().copied().fold(0.0, f64::max);
                (
                    *metric,
                    values.iter().sum::<f64>() / n,
                    if min.is_finite() { min } else { 0.0 },
                    max,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_delta_and_scope_filtering() {
        let mut before = MetricsRegistry::new();
        before.set_counter("ocelot.queue.kernels", 10);
        before.set_counter("ocelot.cache.hits", 5);
        let mut after = MetricsRegistry::new();
        after.set_counter("ocelot.queue.kernels", 25);
        after.set_counter("ocelot.cache.hits", 9);
        after.set_counter("ocelot.queue.modeled_ns", 3_000_000);
        let delta = Counters::read(&after).since(&Counters::read(&before));

        let mut total = Counters::default();
        total.absorb(&delta, |scope| scope == Scope::Session);
        total.absorb(&delta, |scope| scope == Scope::Session);
        total.absorb(&delta, |scope| scope == Scope::Device);
        let mut log = CounterLog::default();
        log.push(total);
        log.push(Counters::default());
        let summary = log.summary();
        let of = |metric: &str| *summary.iter().find(|s| s.0 == metric).unwrap();
        assert_eq!(of("kernel.launches"), ("kernel.launches", 15.0, 0.0, 30.0));
        assert_eq!(of("core.cache_hits"), ("core.cache_hits", 2.0, 0.0, 4.0));
        // GPU-scoped modelled time was never absorbed.
        assert_eq!(of("kernel.gpu_modeled_ms").1, 0.0);
    }
}
