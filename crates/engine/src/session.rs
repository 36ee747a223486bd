//! Query sessions: the unit of admission for the multi-query scheduler.
//!
//! A [`Session`] is one client's execution context on one backend
//! configuration. For the Ocelot configurations it is constructed from a
//! [`SharedDevice`], so the session owns a **private command queue** (its
//! flushes never execute another session's work, keeping per-query sync
//! accounting exact) and a **private Memory Manager** whose result buffers
//! recycle through the device's **shared pool** — a finished query donates
//! its intermediates to whichever session allocates next — and it binds
//! base columns through the device's one **column cache**, so a column any
//! session uploaded is a hit for every other. For the
//! MonetDB-style host backends a session is a thin wrapper; the same
//! session/plan API runs every configuration.
//!
//! Plans are executed with [`Session::run`] (one-shot) or admitted together
//! with other sessions' plans to a [`crate::scheduler::Scheduler`], which
//! interleaves their node execution.
//!
//! # Failover
//!
//! A session may carry a **fallback session** ([`Session::with_fallback`]).
//! When a plan run fails with [`PlanError::DeviceLost`] (the sticky,
//! non-retryable fault class of the unified recovery protocol —
//! `crate::plan` module docs), the session invalidates the lost device's
//! cached state ([`crate::backend::Backend::on_device_lost`]), re-lowers
//! the plan's logical source query onto the fallback (plans compiled
//! through the query layer carry it; hand-built plans are re-run as-is —
//! physical plans are backend-agnostic) and re-runs there, returning
//! results reference-equal to a fault-free run. Every recovery action is
//! counted in [`Session::recovery_stats`] and traced in
//! [`Session::recovery_trace`]. Fallbacks chain: the fallback session may
//! itself have a fallback.

use crate::backend::Backend;
use crate::backends::{MonetParBackend, MonetSeqBackend, OcelotBackend};
use crate::mal::MalPlan;
use crate::plan::{
    Plan, PlanError, PlanProfile, PlanRun, QueryValue, RecoveryEvent, RecoveryStats,
};
use ocelot_core::SharedDevice;
use ocelot_storage::Catalog;
use ocelot_trace::{MetricsRegistry, TraceSink};
use parking_lot::Mutex;
use std::sync::Arc;

/// One client's execution context on one backend configuration.
pub struct Session<B: Backend> {
    backend: B,
    /// Where queries go when this session's device is lost (module docs).
    fallback: Option<Box<Session<B>>>,
    /// Recovery counters and ordered trace, aggregated over every run of
    /// this session (interior mutability: `run` takes `&self`).
    recovery: Mutex<(RecoveryStats, Vec<RecoveryEvent>)>,
}

impl<B: Backend> Session<B> {
    /// Wraps an existing backend as a session.
    pub fn new(backend: B) -> Session<B> {
        Session { backend, fallback: None, recovery: Mutex::new(Default::default()) }
    }

    /// Arms device-loss failover: plans failing on this session with
    /// [`PlanError::DeviceLost`] are re-run on `fallback` (see module
    /// docs).
    pub fn with_fallback(mut self, fallback: Session<B>) -> Session<B> {
        self.fallback = Some(Box::new(fallback));
        self
    }

    /// The armed fallback session, if any.
    pub fn fallback(&self) -> Option<&Session<B>> {
        self.fallback.as_deref()
    }

    /// The session's backend (TPC-H query code executes against this).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The configuration name (`MS`, `MP`, `Ocelot CPU`, …).
    pub fn name(&self) -> &str {
        self.backend.name()
    }

    /// Recovery counters aggregated over every run of this session,
    /// including work its fallback chain performed on its behalf.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut stats = self.recovery.lock().0;
        if let Some(fallback) = &self.fallback {
            stats.absorb(&fallback.recovery_stats());
        }
        stats
    }

    /// The ordered recovery decisions this session's runs took (own runs
    /// only; the fallback keeps its own trace).
    pub fn recovery_trace(&self) -> Vec<RecoveryEvent> {
        self.recovery.lock().1.clone()
    }

    /// Executes an already-compiled plan to completion, applying the
    /// device-loss failover protocol when a fallback is armed (module
    /// docs).
    pub fn run(&self, plan: &Plan, catalog: &Catalog) -> Result<Vec<QueryValue>, PlanError> {
        #[cfg(debug_assertions)]
        {
            let report = self.verify_plan(plan);
            debug_assert!(report.is_ok(), "ill-formed plan admitted:\n{report}");
        }
        match self.run_local(plan, catalog) {
            Err(PlanError::DeviceLost) => self.fail_over(self.fallback(), plan, catalog),
            outcome => outcome,
        }
    }

    /// Statically verifies a plan against the full check list of
    /// [`crate::analyze`] (definition discipline, operator signatures,
    /// register liveness) and computes its conservative flush bound.
    /// Available in every build; [`Session::run`] re-checks admission
    /// automatically in debug builds.
    pub fn verify_plan(&self, plan: &Plan) -> crate::analyze::VerifyReport {
        crate::analyze::verify(plan)
    }

    /// One plan run on this session's own backend, recovery bookkeeping
    /// included.
    fn run_local(&self, plan: &Plan, catalog: &Catalog) -> Result<Vec<QueryValue>, PlanError> {
        let mut run = PlanRun::new(plan, &self.backend, catalog);
        let outcome = run.run_to_completion();
        self.absorb_run(&run);
        outcome.map(|_| run.into_results())
    }

    /// Adds a finished run's recovery counters and ordered trace to this
    /// session's — for its own runs and for the scheduler's runs on it.
    pub(crate) fn absorb_run(&self, run: &PlanRun<'_, B>) {
        let mut recovery = self.recovery.lock();
        recovery.0.absorb(&run.recovery_stats());
        recovery.1.extend_from_slice(run.recovery_trace());
    }

    /// The device-loss arm of the recovery protocol, for this session's
    /// own runs and for the scheduler's: invalidate this session's device
    /// state, re-lower, re-run on `fallback`. Without a fallback the typed
    /// error propagates.
    pub(crate) fn fail_over(
        &self,
        fallback: Option<&Session<B>>,
        plan: &Plan,
        catalog: &Catalog,
    ) -> Result<Vec<QueryValue>, PlanError> {
        self.backend.on_device_lost();
        let Some(fallback) = fallback else {
            return Err(PlanError::DeviceLost);
        };
        {
            let mut recovery = self.recovery.lock();
            recovery.0.failovers += 1;
            recovery.1.push(RecoveryEvent::Failover { to: fallback.name().to_string() });
        }
        let relowered = plan.source().and_then(|query| query.lower(catalog).ok());
        fallback.run(relowered.as_ref().unwrap_or(plan), catalog)
    }

    /// EXPLAIN ANALYZE: executes the plan with per-node profiling and
    /// returns the results together with the [`PlanProfile`] — per node,
    /// wall time, output rows, attributed kernel/transfer/flush counts and
    /// restart/retry/spill attribution, with
    /// `total_host_ns == Σ node.host_ns + overhead_ns` holding exactly
    /// (see [`PlanProfile`]). Profiling syncs after every node (observer
    /// effect on flush counts; see [`PlanRun::enable_profiling`]) and
    /// profiles **this session's own backend**: device loss surfaces as
    /// the typed error instead of failing over, since a fallback run's
    /// profile would describe a different device.
    pub fn explain_analyze(
        &self,
        plan: &Plan,
        catalog: &Catalog,
    ) -> Result<(Vec<QueryValue>, PlanProfile), PlanError> {
        let mut run = PlanRun::new(plan, &self.backend, catalog);
        run.enable_profiling();
        let outcome = run.run_to_completion();
        self.absorb_run(&run);
        outcome?;
        let profile = run.take_profile().expect("profiling was enabled");
        Ok((run.into_results(), profile))
    }

    /// One unified metrics snapshot: the backend's counters (queue totals,
    /// memory/cache/pool/spill/fault stats for Ocelot) plus this session's
    /// aggregated recovery counters under `session.recovery.*`. Every
    /// number remains available through its original typed accessor; the
    /// registry is a projection, not a replacement.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        self.backend.register_metrics(&mut registry);
        self.recovery_stats().register_metrics("session.recovery", &mut registry);
        registry
    }

    /// Attaches a trace sink to every emitter the session's backend owns
    /// (queue, device, Memory Manager, column cache for Ocelot; no-op for
    /// the host backends).
    pub fn attach_tracer(&self, sink: &Arc<TraceSink>) {
        self.backend.attach_tracer(sink);
    }

    /// Detaches the tracer attached via [`Session::attach_tracer`].
    pub fn detach_tracer(&self) {
        self.backend.detach_tracer();
    }

    /// Compiles a MAL program and executes it to completion.
    pub fn run_mal(&self, mal: &MalPlan, catalog: &Catalog) -> Result<Vec<QueryValue>, PlanError> {
        let plan = crate::mal::compile(mal)?;
        self.run(&plan, catalog)
    }

    /// Executes a parameterized query through a compiled-plan cache: the
    /// shape compiles once, later calls only bind `params` and run (see
    /// `crate::serve::PlanCache`). Any root `Limit` applies at the host
    /// boundary, exactly like [`crate::query::Query::run`].
    pub fn run_cached(
        &self,
        cache: &crate::serve::PlanCache,
        query: &crate::query::Query,
        params: &[crate::query::ParamValue],
        catalog: &Catalog,
    ) -> Result<Vec<QueryValue>, crate::query::QueryBuildError> {
        cache.execute(self, query, params, catalog)
    }
}

impl Session<OcelotBackend> {
    /// An Ocelot session on a shared device: own queue and Memory Manager,
    /// shared buffer pool and shared column cache (see module docs).
    pub fn ocelot(shared: &SharedDevice) -> Session<OcelotBackend> {
        Session::new(OcelotBackend::on_shared(shared))
    }

    /// The device-wide column cache this session binds base columns
    /// through. The handle exposes the cache's hit/miss/eviction counters
    /// and budget.
    pub fn column_cache(&self) -> &ocelot_core::ColumnCache {
        self.backend.context().column_cache()
    }
}

impl Session<MonetSeqBackend> {
    /// A sequential-MonetDB (MS) session.
    pub fn monet_seq() -> Session<MonetSeqBackend> {
        Session::new(MonetSeqBackend::new())
    }
}

impl Session<MonetParBackend> {
    /// A parallel-MonetDB (MP) session.
    pub fn monet_par() -> Session<MonetParBackend> {
        Session::new(MonetParBackend::new())
    }
}

impl<B: Backend> std::fmt::Debug for Session<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("backend", &self.backend.name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mal::{example_plan, rewrite_for_ocelot};
    use ocelot_storage::{Bat, Table};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let table = Table::new("t")
            .with_column("a", Bat::from_i32("a", (0..1_000).map(|i| i % 50).collect()).into_ref())
            .with_column(
                "b",
                Bat::from_f32("b", (0..1_000).map(|i| i as f32 * 0.1).collect()).into_ref(),
            );
        catalog.add_table(table);
        catalog
    }

    #[test]
    fn sessions_run_the_same_plan_on_every_configuration() {
        let catalog = catalog();
        let mal = example_plan("t", "a", "b", 10, 20);
        let reference = Session::monet_seq().run_mal(&mal, &catalog).unwrap();

        let shared = SharedDevice::cpu();
        let rewritten = rewrite_for_ocelot(&mal);
        for session in [Session::ocelot(&shared), Session::ocelot(&SharedDevice::gpu())] {
            let result = session.run_mal(&rewritten, &catalog).unwrap();
            match (&reference[0], &result[0]) {
                (QueryValue::Scalar(a), QueryValue::Scalar(b)) => {
                    assert!((a - b).abs() / a.abs().max(1.0) < 1e-3, "{a} vs {b}");
                }
                other => panic!("unexpected result shapes: {other:?}"),
            }
        }
        assert!(Session::monet_par().name().contains("MP"));
    }

    #[test]
    fn device_loss_fails_over_to_the_fallback_session() {
        use ocelot_kernel::{FaultPlan, FaultSpec};
        let catalog = catalog();
        let mal = rewrite_for_ocelot(&example_plan("t", "a", "b", 10, 20));
        let reference = Session::ocelot(&SharedDevice::cpu()).run_mal(&mal, &catalog).unwrap();

        let lost = SharedDevice::gpu();
        let session = Session::ocelot(&lost).with_fallback(Session::ocelot(&SharedDevice::cpu()));
        lost.device()
            .install_fault_plan(FaultPlan::scripted(vec![FaultSpec::DeviceLost { at_op: 2 }]));
        let result = session.run_mal(&mal, &catalog).unwrap();
        assert_eq!(result, reference, "failover must deliver reference-equal results");

        let stats = session.recovery_stats();
        assert_eq!(stats.failovers, 1, "one device loss, one failover");
        assert!(session
            .recovery_trace()
            .iter()
            .any(|event| matches!(event, RecoveryEvent::Failover { .. })));
    }

    #[test]
    fn device_loss_without_a_fallback_is_a_typed_error() {
        use ocelot_kernel::{FaultPlan, FaultSpec};
        let catalog = catalog();
        let mal = rewrite_for_ocelot(&example_plan("t", "a", "b", 10, 20));
        let lost = SharedDevice::gpu();
        let session = Session::ocelot(&lost);
        lost.device()
            .install_fault_plan(FaultPlan::scripted(vec![FaultSpec::DeviceLost { at_op: 2 }]));
        let err = session.run_mal(&mal, &catalog).unwrap_err();
        assert_eq!(err, PlanError::DeviceLost);
        assert_eq!(session.recovery_stats().failovers, 0);
    }

    #[test]
    fn ocelot_sessions_on_one_device_share_the_pool() {
        let catalog = catalog();
        let shared = SharedDevice::cpu();
        let mal = rewrite_for_ocelot(&example_plan("t", "a", "b", 5, 45));
        let a = Session::ocelot(&shared);
        let b = Session::ocelot(&shared);
        // Each session flushes its own queue exactly once (the sync node).
        for session in [&a, &b] {
            let before = session.backend().context().queue().flush_count();
            session.run_mal(&mal, &catalog).unwrap();
            assert_eq!(session.backend().context().queue().flush_count(), before + 1);
        }
        // Queues are independent; the pool is not.
        assert!(std::sync::Arc::ptr_eq(
            a.backend().context().memory().pool(),
            b.backend().context().memory().pool(),
        ));
    }
}
