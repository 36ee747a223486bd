//! The multi-query scheduler: admits several compiled plans and interleaves
//! their node execution.
//!
//! PR 2 made single-query pipelines sync-free, but a synchronous interpreter
//! could still only run one MAL program at a time — the device sat idle at
//! every host-resolve point (a group count, a sort schedule, a hash-build
//! restart check). The scheduler closes that gap: queries become [`QueryJob`]s
//! (a [`Session`] plus a compiled [`Plan`]), several of which are admitted
//! together, and the scheduler steps through their operator DAGs node by
//! node, switching between plans at node granularity. Because every node
//! only *enqueues* device work on its session's private queue (the deferred
//! `DevScalar`/`DevColumn` contract), a host-resolve node of one query
//! naturally interleaves with the enqueue work of another, and each
//! session's flush accounting stays exactly what it would be stand-alone —
//! the per-plan flush bounds of PR 2 hold unchanged under concurrency.
//!
//! # One drive
//!
//! [`Scheduler`] and [`ServeScheduler`] run through one drive: it admits by
//! deficit round-robin over per-(lane, tenant) backlogs, steps one node per
//! in-flight plan per round, and completes and recovers every job the same
//! way. FIFO scheduling is that drive with **one tenant, one lane and an
//! unbounded backlog**: [`Scheduler`] submits every job as tenant 0 in
//! [`Lane::Batch`] behind a backlog that holds them all, and one backlog
//! popped from the front admits in submission order.
//!
//! # Admission and ordering contract
//!
//! * **FIFO admission.** Jobs are admitted in submission order. At most
//!   [`Scheduler::with_in_flight`] plans are in flight at once; a plan's
//!   completion admits the next waiting job.
//! * **Cost-based admission (optional).** With
//!   [`Scheduler::with_memory_budget`], a job is additionally held back
//!   while the in-flight plans' estimated device footprints
//!   ([`Plan::estimate_device_footprint`]) plus its own would exceed the
//!   budget — two memory-hungry plans are never co-scheduled onto a small
//!   device, so concurrency does not push the memory manager into its
//!   eviction/restart paths. Admission order stays strictly FIFO and a
//!   plan too large even for an idle device still runs alone.
//! * **Round-robin interleaving.** In-flight plans execute one node per
//!   scheduling round, in admission order. Scheduling is deterministic: the
//!   same jobs admitted in the same order execute their nodes in the same
//!   global sequence (the property behind the interleaved-equals-sequential
//!   regression suite).
//! * **Per-plan program order.** A plan's own nodes always execute in its
//!   compiled (topological) order; interleaving never reorders a single
//!   query's dataflow. Combined with per-session queues this means results
//!   are *identical* to running each plan alone — concurrency changes only
//!   which buffers the shared pool hands out (contents are equal either
//!   way; see `ocelot_core::buffer_pool`).
//! * **Results in submission order.** [`Scheduler::run`] returns one result
//!   slot per job, indexed like the input, regardless of completion order.
//! * **Errors are per-job.** A failing plan yields `Err` in its slot and
//!   frees its in-flight slot; other jobs are unaffected. A plan that
//!   exhausted its retry budget is **quarantined**: its typed
//!   [`PlanError::Faulted`] stays in its slot, the quarantine is counted,
//!   and the rest of the stream proceeds.
//! * **Recovery reaches the session.** Every finished run's recovery
//!   counters and trace are absorbed into its job's session
//!   ([`Session::recovery_stats`]), as a stand-alone [`Session::run`] does.
//! * **Device-loss failover.** Under [`Scheduler::run_with_fallback`],
//!   jobs that failed with [`PlanError::DeviceLost`] (device loss is
//!   sticky, so every in-flight plan on the lost device fails as it next
//!   steps) are re-run on the fallback session **in submission order**
//!   after their device's cached state is invalidated
//!   ([`crate::backend::Backend::on_device_lost`]) — results land in their
//!   original slots, reference-equal to a fault-free run.
//! * **One session per concurrent Ocelot job.** The per-plan flush
//!   guarantees presuppose a private queue per admitted plan; see
//!   [`QueryJob`] for what happens when jobs share a session.
//!
//! # Serving contract ([`ServeScheduler`])
//!
//! The serving policy is the same drive with many tenants. Jobs become
//! [`ServeJob`]s — a [`QueryJob`] plus a **tenant** id and a **priority
//! lane** — and the contract is:
//!
//! * **Backpressure.** Each tenant has a bounded admission queue of
//!   [`ServeScheduler::with_queue_capacity`] entries. A submission
//!   arriving when the tenant's backlog is full is rejected *up front*
//!   with typed [`PlanError::Overloaded`] in its result slot — it never
//!   executes, and admitted jobs are unaffected. (The batch API presents
//!   the whole arrival stream at once — an open-loop arrival pattern — so
//!   the capacity bounds each tenant's accepted backlog per drive.)
//! * **Two priority lanes.** [`Lane::Interactive`] is strictly admitted
//!   before [`Lane::Batch`]: while any tenant has an interactive job
//!   queued, no batch job is admitted. Within a lane, tenants share via
//!   DRR (next point); within one tenant and lane, order is strictly FIFO.
//! * **Deficit-round-robin fairness.** Admission within a lane cycles
//!   over tenants in id order, each carrying a deficit counter topped up
//!   by [`ServeScheduler::with_quantum`] cost units per round and charged
//!   the node count of each admitted plan. A tenant submitting many
//!   queries (or heavier ones) cannot crowd out the others: over time
//!   every backlogged tenant is admitted work in proportion to the
//!   quantum, not to its arrival rate. A tenant's deficit resets when its
//!   backlog drains, so idle periods bank no credit.
//! * **What is preserved.** Everything below admission is the one drive,
//!   so it holds by construction: one node per in-flight plan per round in
//!   admission order, per-plan program order untouched, results in
//!   original submission slots, per-job typed errors, counted quarantines,
//!   and the cost-based memory admission of
//!   [`ServeScheduler::with_memory_budget`]. Within one tenant and lane,
//!   completion respects submission order ([`ServeStats::completion_order`]
//!   exposes it).
//! * **Plan-cache interplay.** Serving stacks compile jobs through
//!   `crate::serve::PlanCache` (shape-cached, parameter-bound plans whose
//!   cache key is the rendered parameter-abstract tree + outputs +
//!   rewrite config + parameter kinds + catalog generation); the
//!   scheduler itself is agnostic to how plans were compiled.

use crate::backend::Backend;
use crate::plan::{Plan, PlanError, PlanRun, QueryValue, RecoveryStats};
use crate::session::Session;
use ocelot_storage::Catalog;
use ocelot_trace::{MetricsRegistry, SchedAction, TraceEvent, TraceEventKind, TraceHandle};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One unit of admission: a plan to run in a session against a catalog.
///
/// Jobs may share a session, but for stateful backends (Ocelot) the
/// per-plan guarantees in the module docs — exact flush accounting, the
/// one-flush-per-plan Q6 bound — hold only when **each concurrently
/// admitted job has its own session**: two plans enqueueing on one queue
/// interleave their device work, and either plan's sync point flushes the
/// other's. Results stay correct either way (the queue is in-order); only
/// the per-session accounting blurs. Host-backend jobs (MS/MP) are
/// stateless and share sessions freely.
pub struct QueryJob<'a, B: Backend> {
    /// The session (backend + private queue + pooled memory) to run in.
    pub session: &'a Session<B>,
    /// The compiled plan.
    pub plan: &'a Plan,
    /// The catalog `bind` nodes resolve against.
    pub catalog: &'a Catalog,
}

/// One scheduled node, in global execution order (see
/// [`Scheduler::run_traced`]).
#[derive(Debug, Clone, Copy)]
pub struct StepTrace {
    /// Index of the job (submission order).
    pub job: usize,
    /// Node index within the job's plan.
    pub node: usize,
}

/// The multi-query scheduler (see module docs for the contract): the
/// serving drive with one tenant.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// In-flight cap, memory budget and trace; each run bounds the one
    /// tenant's backlog by its job count.
    policy: ServeScheduler,
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::new()
    }
}

impl Scheduler {
    /// A scheduler admitting up to 4 plans at once.
    pub fn new() -> Scheduler {
        Scheduler { policy: ServeScheduler::new() }
    }

    /// The scheduler's trace attachment point: attach a
    /// [`ocelot_trace::TraceSink`] to receive one
    /// [`TraceEventKind::Sched`] event per submission, admission,
    /// completion and quarantine — tenant 0, lane `"batch"`, and an
    /// admission's detail is the plan's node count, exactly as a one-tenant
    /// [`ServeScheduler`] run emits them.
    pub fn trace(&self) -> &TraceHandle {
        self.policy.trace()
    }

    /// Sets the admission cap (clamped to at least 1).
    pub fn with_in_flight(mut self, in_flight: usize) -> Scheduler {
        self.policy = self.policy.with_in_flight(in_flight);
        self
    }

    /// Enables **cost-based admission**: each job's device footprint is
    /// estimated from its plan's dataflow
    /// ([`Plan::estimate_device_footprint`]) and two plans whose combined
    /// estimates exceed `bytes` are never co-scheduled — the next job
    /// waits for an in-flight plan to finish instead of pushing the device
    /// into the eviction/restart paths. Admission stays strictly FIFO (an
    /// oversized head never lets later jobs jump the queue, keeping the
    /// deterministic-interleaving contract), and a job too large even for
    /// an idle device is still admitted alone — it then relies on
    /// eviction + node restarts rather than deadlocking the queue.
    pub fn with_memory_budget(mut self, bytes: usize) -> Scheduler {
        self.policy = self.policy.with_memory_budget(bytes);
        self
    }

    /// The admission memory budget, if cost-based admission is enabled.
    pub fn memory_budget(&self) -> Option<usize> {
        self.policy.memory_budget
    }

    /// The admission cap.
    pub fn in_flight(&self) -> usize {
        self.policy.in_flight
    }

    /// Admits and executes every job; returns results in submission order.
    pub fn run<B: Backend>(
        &self,
        jobs: &[QueryJob<'_, B>],
    ) -> Vec<Result<Vec<QueryValue>, PlanError>> {
        self.run_as_one_tenant(jobs, None, None).results
    }

    /// Like [`Scheduler::run`], with the scheduler arms of the unified
    /// recovery protocol applied (module docs): after the normal admission
    /// run, every job that failed with [`PlanError::DeviceLost`] has its
    /// session's device state invalidated and is **resubmitted on
    /// `fallback` in submission order** (re-lowered from its plan's
    /// logical source when it carries one), and every job whose typed
    /// [`PlanError::Faulted`] survived is counted as **quarantined** while
    /// its slot keeps the error. Returns the results plus the aggregated
    /// [`RecoveryStats`] of the whole stream (node retries and OOM
    /// restarts included).
    pub fn run_with_fallback<B: Backend>(
        &self,
        jobs: &[QueryJob<'_, B>],
        fallback: &Session<B>,
    ) -> (Vec<Result<Vec<QueryValue>, PlanError>>, RecoveryStats) {
        let outcome = self.run_as_one_tenant(jobs, Some(fallback), None);
        (outcome.results, outcome.stats.recovery)
    }

    /// Like [`Scheduler::run`], additionally recording a [`StepTrace`] per
    /// executed node. The trace is in global execution order — exactly the
    /// interleaving the admission contract prescribes.
    pub fn run_traced<B: Backend>(
        &self,
        jobs: &[QueryJob<'_, B>],
    ) -> (Vec<Result<Vec<QueryValue>, PlanError>>, Vec<StepTrace>) {
        let mut steps = Vec::new();
        let outcome = self.run_as_one_tenant(jobs, None, Some(&mut steps));
        (outcome.results, steps)
    }

    /// FIFO is deficit round-robin with one tenant: every job is tenant 0
    /// in the batch lane, and the backlog bound admits them all.
    fn run_as_one_tenant<B: Backend>(
        &self,
        jobs: &[QueryJob<'_, B>],
        fallback: Option<&Session<B>>,
        steps: Option<&mut Vec<StepTrace>>,
    ) -> ServeOutcome {
        let jobs: Vec<ServeJob<'_, B>> = jobs
            .iter()
            .map(|job| ServeJob {
                job: QueryJob { session: job.session, plan: job.plan, catalog: job.catalog },
                tenant: 0,
                lane: Lane::Batch,
            })
            .collect();
        self.policy.clone().with_queue_capacity(jobs.len()).drive(&jobs, fallback, steps)
    }
}

// ---------------------------------------------------------------------------
// Serving policy
// ---------------------------------------------------------------------------

/// The two priority lanes of the serving policy (module docs: interactive
/// admissions strictly precede batch admissions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Latency-sensitive traffic; admitted before any batch job.
    Interactive,
    /// Throughput traffic; admitted only when no interactive job waits.
    Batch,
}

impl Lane {
    /// Stable lane name, as tagged on [`TraceEventKind::Sched`] events.
    pub fn name(&self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Batch => "batch",
        }
    }
}

/// One serving submission: a [`QueryJob`] on behalf of a tenant in a lane.
pub struct ServeJob<'a, B: Backend> {
    /// The plan to run, in its session, against its catalog.
    pub job: QueryJob<'a, B>,
    /// The submitting tenant (fairness and backpressure are per tenant).
    pub tenant: usize,
    /// The priority lane.
    pub lane: Lane,
}

/// Per-tenant serving counters (see [`ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs the tenant submitted.
    pub submitted: usize,
    /// Jobs accepted into the tenant's admission queue.
    pub admitted: usize,
    /// Jobs rejected up front with [`PlanError::Overloaded`].
    pub rejected: usize,
    /// Admitted jobs that ran to completion (success or per-job error).
    pub completed: usize,
}

/// What one serving drive did, beyond the per-job results.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Counters per tenant id.
    pub tenants: BTreeMap<usize, TenantStats>,
    /// Job indices in the order their plans finished (the fairness
    /// observable: under DRR, backlogged tenants alternate here instead
    /// of one tenant completing its whole backlog first).
    pub completion_order: Vec<usize>,
    /// Aggregated recovery counters of every admitted run.
    pub recovery: RecoveryStats,
}

impl ServeStats {
    /// The counters of `tenant` (zeroes if it never submitted).
    pub fn tenant(&self, tenant: usize) -> TenantStats {
        self.tenants.get(&tenant).copied().unwrap_or_default()
    }

    /// Registers the per-tenant counters (as
    /// `{prefix}.tenant{id}.submitted` etc.) and the aggregated recovery
    /// counters under `prefix` in `registry`.
    pub fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry
            .set_counter(&format!("{prefix}.completed_total"), self.completion_order.len() as u64);
        for (id, tenant) in &self.tenants {
            registry
                .set_counter(&format!("{prefix}.tenant{id}.submitted"), tenant.submitted as u64);
            registry.set_counter(&format!("{prefix}.tenant{id}.admitted"), tenant.admitted as u64);
            registry.set_counter(&format!("{prefix}.tenant{id}.rejected"), tenant.rejected as u64);
            registry
                .set_counter(&format!("{prefix}.tenant{id}.completed"), tenant.completed as u64);
        }
        self.recovery.register_metrics(&format!("{prefix}.recovery"), registry);
    }
}

/// Per-job results (in submission order) plus the serving statistics.
pub struct ServeOutcome {
    /// One slot per submitted job, indexed like the input. Rejected jobs
    /// hold [`PlanError::Overloaded`].
    pub results: Vec<Result<Vec<QueryValue>, PlanError>>,
    /// Tenant counters, completion order and recovery totals.
    pub stats: ServeStats,
}

/// The serving scheduler: tenant-fair, two-lane, backpressured admission
/// over the one drive both schedulers share (module docs).
#[derive(Debug, Clone)]
pub struct ServeScheduler {
    in_flight: usize,
    memory_budget: Option<usize>,
    queue_capacity: usize,
    quantum: usize,
    trace: Arc<TraceHandle>,
}

impl Default for ServeScheduler {
    fn default() -> ServeScheduler {
        ServeScheduler::new()
    }
}

impl ServeScheduler {
    /// Up to 4 plans in flight, 16 queued jobs per tenant, a DRR quantum
    /// of 8 plan nodes, no memory budget.
    pub fn new() -> ServeScheduler {
        ServeScheduler {
            in_flight: 4,
            memory_budget: None,
            queue_capacity: 16,
            quantum: 8,
            trace: Arc::new(TraceHandle::new()),
        }
    }

    /// The serving scheduler's trace attachment point: attach a
    /// [`ocelot_trace::TraceSink`] to receive one
    /// [`TraceEventKind::Sched`] event per submission, rejection,
    /// admission, completion and quarantine, with the tenant as the
    /// timeline process and the job index as the timeline thread — the
    /// rows the Chrome trace export renders.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Sets the in-flight cap (clamped to at least 1).
    pub fn with_in_flight(mut self, in_flight: usize) -> ServeScheduler {
        self.in_flight = in_flight.max(1);
        self
    }

    /// Enables cost-based memory admission, exactly as
    /// [`Scheduler::with_memory_budget`] defines it.
    pub fn with_memory_budget(mut self, bytes: usize) -> ServeScheduler {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the per-tenant bounded-queue capacity (clamped to at least 1).
    /// Submissions beyond it are rejected with [`PlanError::Overloaded`].
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeScheduler {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the DRR quantum in plan-node cost units (clamped to ≥ 1).
    pub fn with_quantum(mut self, quantum: usize) -> ServeScheduler {
        self.quantum = quantum.max(1);
        self
    }

    /// The per-tenant queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The DRR quantum.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// Admits and executes a serving stream (module docs for the full
    /// contract): bounded per-tenant queues reject overflow up front,
    /// interactive jobs admit before batch, tenants within a lane share
    /// by deficit round-robin, and execution interleaves one node per
    /// in-flight plan per round. Results land in submission slots;
    /// surviving [`PlanError::Faulted`] results count as quarantines.
    pub fn run<B: Backend>(&self, jobs: &[ServeJob<'_, B>]) -> ServeOutcome {
        self.drive(jobs, None, None)
    }

    /// The one drive behind both schedulers (module docs). Records the
    /// global step order into `steps` when given; fails `DeviceLost` jobs
    /// over to `fallback` when given.
    fn drive<B: Backend>(
        &self,
        jobs: &[ServeJob<'_, B>],
        fallback: Option<&Session<B>>,
        mut steps: Option<&mut Vec<StepTrace>>,
    ) -> ServeOutcome {
        let mut stats = ServeStats::default();
        // Every job lands here exactly once, rejected up front or
        // completed; sorting by index yields the submission slots.
        let mut finished: Vec<(usize, Result<Vec<QueryValue>, PlanError>)> =
            Vec::with_capacity(jobs.len());

        // --- Backpressure: bounded per-tenant admission queues. ---------
        // Per (lane, tenant) FIFO backlog of job indices; the bound counts
        // both lanes of a tenant together.
        let mut backlog: BTreeMap<(Lane, usize), VecDeque<usize>> = BTreeMap::new();
        let mut queued: BTreeMap<usize, usize> = BTreeMap::new();
        for (index, job) in jobs.iter().enumerate() {
            let tenant = stats.tenants.entry(job.tenant).or_default();
            tenant.submitted += 1;
            let depth = queued.entry(job.tenant).or_insert(0);
            self.emit(jobs, index, SchedAction::Submit, *depth);
            if *depth >= self.queue_capacity {
                tenant.rejected += 1;
                self.emit(jobs, index, SchedAction::Reject, self.queue_capacity);
                let overloaded =
                    PlanError::Overloaded { queued: *depth, capacity: self.queue_capacity };
                finished.push((index, Err(overloaded)));
                continue;
            }
            *depth += 1;
            tenant.admitted += 1;
            backlog.entry((job.lane, job.tenant)).or_default().push_back(index);
        }

        // Estimated device footprint per job (0 when unbudgeted).
        let footprints: Vec<usize> = match self.memory_budget {
            Some(_) => jobs
                .iter()
                .map(|job| job.job.plan.estimate_device_footprint(job.job.catalog))
                .collect(),
            None => vec![0; jobs.len()],
        };
        let node_cost = |index: usize| jobs[index].job.plan.len().max(1);

        // --- DRR admission + round-robin execution. ---------------------
        let mut deficits: BTreeMap<usize, usize> = BTreeMap::new();
        // Rotating cursor per lane: the tenant id *after* the last one
        // admitted, so consecutive admissions visit tenants in turn.
        let mut cursors: BTreeMap<Lane, usize> = BTreeMap::new();
        // In-flight runs, in admission order.
        let mut active: Vec<(usize, PlanRun<'_, B>)> = Vec::new();
        loop {
            while active.len() < self.in_flight {
                // Strict lane priority: batch admits only when no
                // interactive job is backlogged anywhere. `heads` holds each
                // backlogged tenant's next job, in tenant id order.
                let heads_of = |lane: Lane| -> Vec<(usize, usize)> {
                    backlog
                        .range((lane, 0)..=(lane, usize::MAX))
                        .filter_map(|(&(_, tenant), queue)| Some((tenant, *queue.front()?)))
                        .collect()
                };
                let Some((lane, mut heads)) = [Lane::Interactive, Lane::Batch]
                    .into_iter()
                    .map(|lane| (lane, heads_of(lane)))
                    .find(|(_, heads)| !heads.is_empty())
                else {
                    break;
                };
                // DRR: starting at the lane cursor, admit the first tenant
                // whose deficit covers its head plan's node cost; when no
                // deficit suffices, top every backlogged tenant up by one
                // quantum and retry (terminates: deficits grow monotonically).
                let cursor = cursors.get(&lane).copied().unwrap_or(0);
                let start = heads.iter().position(|(tenant, _)| *tenant >= cursor).unwrap_or(0);
                heads.rotate_left(start);
                let (tenant, index) = loop {
                    let covered = heads.iter().find(|(tenant, index)| {
                        deficits.get(tenant).copied().unwrap_or(0) >= node_cost(*index)
                    });
                    if let Some(&head) = covered {
                        break head;
                    }
                    for (tenant, _) in &heads {
                        *deficits.entry(*tenant).or_insert(0) += self.quantum;
                    }
                };
                if let Some(budget) = self.memory_budget {
                    let in_use: usize =
                        active.iter().map(|(running, _)| footprints[*running]).sum();
                    // Refuse to co-schedule past the budget; an oversized
                    // plan still runs once the device is otherwise idle.
                    if !active.is_empty() && in_use + footprints[index] > budget {
                        break;
                    }
                }
                let queue = backlog.entry((lane, tenant)).or_default();
                queue.pop_front();
                if queue.is_empty() {
                    backlog.remove(&(lane, tenant));
                    // Classic DRR: an emptied backlog banks no credit for
                    // later bursts.
                    if !backlog.contains_key(&(Lane::Interactive, tenant))
                        && !backlog.contains_key(&(Lane::Batch, tenant))
                    {
                        deficits.remove(&tenant);
                    }
                }
                if let Some(deficit) = deficits.get_mut(&tenant) {
                    *deficit -= node_cost(index);
                }
                cursors.insert(lane, tenant + 1);
                self.emit(jobs, index, SchedAction::Admit, node_cost(index));
                let job = &jobs[index].job;
                #[cfg(debug_assertions)]
                {
                    let report = crate::analyze::verify(job.plan);
                    debug_assert!(
                        report.is_ok(),
                        "ill-formed plan admitted (job {index}):\n{report}"
                    );
                }
                active.push((index, PlanRun::new(job.plan, job.session.backend(), job.catalog)));
            }
            if active.is_empty() {
                break;
            }
            // One scheduling round: each in-flight plan executes one node,
            // in admission order; a finished or failed plan frees its slot
            // for the next admission.
            let mut slot = 0;
            while slot < active.len() {
                let (index, run) = &mut active[slot];
                if let Some(steps) = steps.as_deref_mut() {
                    steps.push(StepTrace { job: *index, node: run.completed_nodes() });
                }
                let outcome = run.step();
                if outcome.is_ok() && !run.is_done() {
                    slot += 1;
                    continue;
                }
                let (index, run) = active.remove(slot);
                let job = &jobs[index];
                stats.recovery.absorb(&run.recovery_stats());
                job.job.session.absorb_run(&run);
                self.emit(jobs, index, SchedAction::Complete, stats.completion_order.len());
                stats.completion_order.push(index);
                stats.tenants.entry(job.tenant).or_default().completed += 1;
                finished.push((index, outcome.map(|_| run.into_results())));
            }
        }

        // --- Recovery epilogue, in submission order. --------------------
        finished.sort_unstable_by_key(|(index, _)| *index);
        let mut results: Vec<_> = finished.into_iter().map(|(_, result)| result).collect();
        for (index, result) in results.iter_mut().enumerate() {
            let job = &jobs[index].job;
            // Invalidation is idempotent, so jobs sharing a lost device may
            // each purge it.
            if let (Some(fallback), Err(PlanError::DeviceLost)) = (fallback, &*result) {
                *result = job.session.fail_over(Some(fallback), job.plan, job.catalog);
                stats.recovery.failovers += 1;
            }
            if matches!(result, Err(PlanError::Faulted { .. })) {
                stats.recovery.quarantines += 1;
                self.emit(jobs, index, SchedAction::Quarantine, 0);
            }
        }
        ServeOutcome { results, stats }
    }

    /// Emits one scheduler event for job `index` with the timeline-row
    /// convention of the Chrome trace export: `pid` is the tenant, `tid`
    /// the job index — so a rendered timeline groups rows by tenant and
    /// threads by job.
    fn emit<B: Backend>(
        &self,
        jobs: &[ServeJob<'_, B>],
        index: usize,
        action: SchedAction,
        detail: usize,
    ) {
        let (tenant, job, lane) =
            (jobs[index].tenant as u64, index as u64, jobs[index].lane.name());
        self.trace.emit_with(|sink| TraceEvent {
            ts_ns: sink.now_ns(),
            dur_ns: 0,
            pid: tenant,
            tid: job,
            kind: TraceEventKind::Sched { tenant, job, lane, action, detail: detail as u64 },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::MonetBackend;
    use crate::mal::{compile, example_plan, rewrite_for_ocelot};
    use ocelot_core::SharedDevice;
    use ocelot_storage::{Bat, Catalog, Table};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let table = Table::new("t")
            .with_column("a", Bat::from_i32("a", (0..5_000).map(|i| i % 100).collect()).into_ref())
            .with_column(
                "b",
                Bat::from_f32("b", (0..5_000).map(|i| i as f32 * 0.25).collect()).into_ref(),
            );
        catalog.add_table(table);
        catalog
    }

    fn scalar(value: &Result<Vec<QueryValue>, PlanError>) -> f32 {
        match value.as_ref().unwrap().as_slice() {
            [QueryValue::Scalar(s)] => *s,
            other => panic!("expected one scalar, got {other:?}"),
        }
    }

    #[test]
    fn interleaved_execution_equals_sequential() {
        let catalog = catalog();
        let plans: Vec<Plan> = (0..6)
            .map(|i| compile(&example_plan("t", "a", "b", i * 7, i * 7 + 20)).unwrap())
            .collect();
        let session = Session::new(MonetBackend::with_threads(1));
        let sequential: Vec<f32> =
            plans.iter().map(|plan| scalar(&session.run(plan, &catalog))).collect();
        for in_flight in [1, 2, 6] {
            let jobs: Vec<QueryJob<'_, _>> = plans
                .iter()
                .map(|plan| QueryJob { session: &session, plan, catalog: &catalog })
                .collect();
            let results = Scheduler::new().with_in_flight(in_flight).run(&jobs);
            let interleaved: Vec<f32> = results.iter().map(scalar).collect();
            assert_eq!(interleaved, sequential, "in_flight={in_flight}");
        }
    }

    #[test]
    fn failing_jobs_do_not_disturb_others() {
        let catalog = catalog();
        let good = compile(&example_plan("t", "a", "b", 10, 30)).unwrap();
        let bad = compile(&example_plan("missing", "a", "b", 10, 30)).unwrap();
        let session = Session::new(MonetBackend::with_threads(1));
        let jobs = [
            QueryJob { session: &session, plan: &good, catalog: &catalog },
            QueryJob { session: &session, plan: &bad, catalog: &catalog },
            QueryJob { session: &session, plan: &good, catalog: &catalog },
        ];
        let results = Scheduler::new().with_in_flight(3).run(&jobs);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(PlanError::UnknownColumn { .. })));
        assert!(results[2].is_ok());
        assert_eq!(scalar(&results[0]), scalar(&results[2]));
    }

    #[test]
    fn per_session_flush_bounds_hold_under_interleaving() {
        // Two Ocelot sessions on one shared device, two plans admitted
        // together: each session still flushes exactly once (at its sync
        // node), interleaving notwithstanding.
        let catalog = catalog();
        let shared = SharedDevice::cpu();
        let plan = compile(&rewrite_for_ocelot(&example_plan("t", "a", "b", 10, 60))).unwrap();
        let a = Session::ocelot(&shared);
        let b = Session::ocelot(&shared);
        let jobs = [
            QueryJob { session: &a, plan: &plan, catalog: &catalog },
            QueryJob { session: &b, plan: &plan, catalog: &catalog },
        ];
        let results = Scheduler::new().with_in_flight(2).run(&jobs);
        assert!((scalar(&results[0]) - scalar(&results[1])).abs() < 1e-3);
        for session in [&a, &b] {
            assert_eq!(
                session.backend().context().queue().flush_count(),
                1,
                "{}: one flush per plan under concurrency",
                session.name()
            );
        }
    }

    /// First trace-step index of each job: under round-robin, co-scheduled
    /// jobs start in the same rounds; serialised jobs start strictly after
    /// the previous one finished.
    fn first_step(traces: &[StepTrace], job: usize) -> usize {
        traces.iter().position(|t| t.job == job).unwrap()
    }

    #[test]
    fn memory_budget_refuses_to_coschedule_hungry_plans() {
        let catalog = catalog();
        let plan = compile(&example_plan("t", "a", "b", 0, 50)).unwrap();
        let session = Session::new(MonetBackend::with_threads(1));
        let footprint = plan.estimate_device_footprint(&catalog);
        assert!(footprint > 0, "t has 5 000-row columns: the estimate must see them");
        let jobs = [
            QueryJob { session: &session, plan: &plan, catalog: &catalog },
            QueryJob { session: &session, plan: &plan, catalog: &catalog },
        ];

        // Budget below 2x the footprint: the second job must wait for the
        // first to finish (its first step comes after every step of job 0).
        let tight = Scheduler::new().with_in_flight(2).with_memory_budget(footprint * 3 / 2);
        let (results, traces) = tight.run_traced(&jobs);
        assert!(results.iter().all(|r| r.is_ok()));
        let job0_last = traces.iter().rposition(|t| t.job == 0).unwrap();
        assert!(
            first_step(&traces, 1) > job0_last,
            "hungry plans must not be co-scheduled under a tight budget"
        );

        // Ample budget: both are admitted together (round-robin start).
        let ample = Scheduler::new().with_in_flight(2).with_memory_budget(footprint * 4);
        let (results, traces) = ample.run_traced(&jobs);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(first_step(&traces, 1), 1, "ample budget co-schedules in round-robin");
    }

    #[test]
    fn oversized_plans_still_run_alone_and_fifo_is_preserved() {
        let catalog = catalog();
        let plan = compile(&example_plan("t", "a", "b", 0, 50)).unwrap();
        let session = Session::new(MonetBackend::with_threads(1));
        // Budget smaller than a single plan: every job still completes
        // (admitted alone, relying on eviction/restart at the device
        // level), in submission order.
        let scheduler = Scheduler::new().with_in_flight(3).with_memory_budget(1);
        let jobs = [
            QueryJob { session: &session, plan: &plan, catalog: &catalog },
            QueryJob { session: &session, plan: &plan, catalog: &catalog },
            QueryJob { session: &session, plan: &plan, catalog: &catalog },
        ];
        let (results, traces) = scheduler.run_traced(&jobs);
        assert!(results.iter().all(|r| r.is_ok()));
        for job in 1..3 {
            let previous_last = traces.iter().rposition(|t| t.job == job - 1).unwrap();
            assert!(
                first_step(&traces, job) > previous_last,
                "job {job} must wait for job {} under a minimal budget",
                job - 1
            );
        }
        // Results are identical to an unbudgeted run.
        let plain = Scheduler::new().with_in_flight(3).run(&jobs);
        for (a, b) in results.iter().zip(&plain) {
            assert_eq!(scalar(a).to_bits(), scalar(b).to_bits());
        }
    }

    #[test]
    fn faulted_plans_are_quarantined_and_lost_devices_fail_over() {
        use ocelot_kernel::{FaultPlan, FaultSpec};
        let catalog = catalog();
        let plan = compile(&rewrite_for_ocelot(&example_plan("t", "a", "b", 10, 60))).unwrap();
        let reference = Session::ocelot(&SharedDevice::cpu()).run(&plan, &catalog).unwrap();

        // Three sessions: one on a device lost mid-plan, one on a device
        // whose every launch/transfer faults (exhausts the retry budget),
        // one healthy.
        let lost = SharedDevice::gpu();
        let flaky = SharedDevice::cpu();
        let s_lost = Session::ocelot(&lost);
        let s_flaky = Session::ocelot(&flaky);
        let s_healthy = Session::ocelot(&SharedDevice::cpu());
        lost.device()
            .install_fault_plan(FaultPlan::scripted(vec![FaultSpec::DeviceLost { at_op: 4 }]));
        flaky.device().install_fault_plan(FaultPlan::seeded(7, 1.0, 0.0));

        let fallback = Session::ocelot(&SharedDevice::cpu());
        let jobs = [
            QueryJob { session: &s_lost, plan: &plan, catalog: &catalog },
            QueryJob { session: &s_flaky, plan: &plan, catalog: &catalog },
            QueryJob { session: &s_healthy, plan: &plan, catalog: &catalog },
        ];
        let (results, stats) =
            Scheduler::new().with_in_flight(3).run_with_fallback(&jobs, &fallback);
        assert_eq!(
            results[0].as_ref().unwrap(),
            &reference,
            "lost-device job fails over with reference-equal results"
        );
        assert!(
            matches!(results[1], Err(PlanError::Faulted { .. })),
            "budget-exhausting job is quarantined with a typed error: {:?}",
            results[1]
        );
        assert_eq!(results[2].as_ref().unwrap(), &reference, "healthy job is undisturbed");
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.quarantines, 1);
        assert!(stats.retries >= 6, "the quarantined plan retried up to its budget first");
    }

    fn serve_jobs<'a>(
        session: &'a Session<MonetBackend>,
        plans: &'a [Plan],
        catalog: &'a Catalog,
        spec: &[(usize, Lane)],
    ) -> Vec<ServeJob<'a, MonetBackend>> {
        spec.iter()
            .enumerate()
            .map(|(i, (tenant, lane))| ServeJob {
                job: QueryJob { session, plan: &plans[i % plans.len()], catalog },
                tenant: *tenant,
                lane: *lane,
            })
            .collect()
    }

    #[test]
    fn overload_rejects_typed_and_admitted_jobs_complete_in_tenant_order() {
        let catalog = catalog();
        let plans: Vec<Plan> = (0..8)
            .map(|i| compile(&example_plan("t", "a", "b", i * 5, i * 5 + 20)).unwrap())
            .collect();
        let session = Session::new(MonetBackend::with_threads(1));
        // Tenant 0 floods (6 jobs at capacity 2); tenant 1 stays polite.
        let spec: Vec<(usize, Lane)> =
            (0..6).map(|_| (0, Lane::Batch)).chain([(1, Lane::Batch), (1, Lane::Batch)]).collect();
        let jobs = serve_jobs(&session, &plans, &catalog, &spec);
        let outcome = ServeScheduler::new().with_queue_capacity(2).with_in_flight(2).run(&jobs);

        assert_eq!(outcome.stats.tenant(0).rejected, 4, "capacity 2 admits 2 of 6");
        assert_eq!(outcome.stats.tenant(0).completed, 2);
        assert_eq!(outcome.stats.tenant(1).rejected, 0);
        assert_eq!(outcome.stats.tenant(1).completed, 2);
        for index in 2..6 {
            assert!(
                matches!(
                    outcome.results[index],
                    Err(PlanError::Overloaded { queued: 2, capacity: 2 })
                ),
                "overflow submission {index} is rejected typed: {:?}",
                outcome.results[index]
            );
        }
        // Every admitted job completed reference-equal to a stand-alone
        // run, and each tenant's completions follow its submission order.
        for (index, job) in jobs.iter().enumerate() {
            if outcome.results[index].is_ok() {
                assert_eq!(
                    scalar(&outcome.results[index]),
                    scalar(&session.run(job.job.plan, &catalog))
                );
            }
        }
        for tenant in [0, 1] {
            let completions: Vec<usize> = outcome
                .stats
                .completion_order
                .iter()
                .copied()
                .filter(|i| jobs[*i].tenant == tenant)
                .collect();
            let mut sorted = completions.clone();
            sorted.sort_unstable();
            assert_eq!(completions, sorted, "tenant {tenant} completes in submission order");
        }
    }

    #[test]
    fn drr_shares_admissions_between_a_greedy_and_a_polite_tenant() {
        let catalog = catalog();
        let plans = vec![compile(&example_plan("t", "a", "b", 10, 30)).unwrap()];
        let session = Session::new(MonetBackend::with_threads(1));
        // Greedy tenant 0 submits 6 jobs before tenant 1's 2 arrive.
        let spec: Vec<(usize, Lane)> =
            (0..6).map(|_| (0, Lane::Batch)).chain([(1, Lane::Batch), (1, Lane::Batch)]).collect();
        let jobs = serve_jobs(&session, &plans, &catalog, &spec);
        // in_flight 1 serialises execution, so completion order equals
        // admission order and exposes the DRR alternation directly.
        let outcome = ServeScheduler::new().with_in_flight(1).run(&jobs);
        assert!(outcome.results.iter().all(|r| r.is_ok()));
        let tenants: Vec<usize> =
            outcome.stats.completion_order.iter().map(|i| jobs[*i].tenant).collect();
        assert_eq!(
            &tenants[..4],
            &[0, 1, 0, 1],
            "DRR alternates tenants instead of draining the greedy backlog: {tenants:?}"
        );
        assert_eq!(tenants[4..], [0, 0, 0, 0], "the greedy tail runs once tenant 1 drained");
    }

    #[test]
    fn interactive_lane_admits_strictly_before_batch() {
        let catalog = catalog();
        let plans = vec![compile(&example_plan("t", "a", "b", 10, 30)).unwrap()];
        let session = Session::new(MonetBackend::with_threads(1));
        // Batch jobs submitted first; the interactive job arrives last but
        // must be admitted first.
        let spec = [(0, Lane::Batch), (0, Lane::Batch), (1, Lane::Batch), (1, Lane::Interactive)];
        let jobs = serve_jobs(&session, &plans, &catalog, &spec);
        let outcome = ServeScheduler::new().with_in_flight(1).run(&jobs);
        assert!(outcome.results.iter().all(|r| r.is_ok()));
        assert_eq!(
            outcome.stats.completion_order[0], 3,
            "the interactive job completes first: {:?}",
            outcome.stats.completion_order
        );
    }

    #[test]
    fn serve_runs_emit_sched_events_on_tenant_rows() {
        use ocelot_trace::TraceSink;
        let catalog = catalog();
        let plans = vec![compile(&example_plan("t", "a", "b", 10, 30)).unwrap()];
        let session = Session::new(MonetBackend::with_threads(1));
        // Tenant 0 submits 3 at capacity 2 (one rejection); tenant 1's
        // interactive job admits first.
        let spec = [(0, Lane::Batch), (1, Lane::Interactive), (0, Lane::Batch), (0, Lane::Batch)];
        let jobs = serve_jobs(&session, &plans, &catalog, &spec);
        let scheduler = ServeScheduler::new().with_queue_capacity(2).with_in_flight(2);
        let sink = Arc::new(TraceSink::new());
        scheduler.trace().attach(Arc::clone(&sink));
        let outcome = scheduler.run(&jobs);
        scheduler.trace().detach();

        assert_eq!(outcome.stats.tenant(0).rejected, 1);
        let count = |action: SchedAction| {
            sink.count(|e| matches!(e.kind, TraceEventKind::Sched { action: a, .. } if a == action))
        };
        assert_eq!(count(SchedAction::Submit), 4, "one submit event per arrival");
        assert_eq!(count(SchedAction::Reject), 1, "the overflow submission is rejected");
        assert_eq!(count(SchedAction::Admit), 3, "every accepted job admits exactly once");
        assert_eq!(count(SchedAction::Complete), 3, "every admitted job completes");
        // Timeline-row convention: pid is the tenant, tid the job index.
        for event in sink.events() {
            let TraceEventKind::Sched { tenant, job, .. } = event.kind else {
                panic!("host-backend serve runs emit only sched events");
            };
            assert_eq!(event.pid, tenant);
            assert_eq!(event.tid, job);
            assert_eq!(jobs[job as usize].tenant as u64, tenant);
        }
        let chrome = sink.to_chrome_trace();
        assert!(chrome.contains("\"cat\":\"sched\""), "{chrome}");
    }

    #[test]
    fn traces_cover_every_node_in_admission_round_robin() {
        let catalog = catalog();
        let plan = compile(&example_plan("t", "a", "b", 0, 50)).unwrap();
        let session = Session::new(MonetBackend::with_threads(1));
        let jobs = [
            QueryJob { session: &session, plan: &plan, catalog: &catalog },
            QueryJob { session: &session, plan: &plan, catalog: &catalog },
        ];
        let (results, traces) = Scheduler::new().with_in_flight(2).run_traced(&jobs);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(traces.len(), 2 * plan.len());
        // Round-robin: the first two steps are node 0 of jobs 0 and 1.
        assert_eq!((traces[0].job, traces[0].node), (0, 0));
        assert_eq!((traces[1].job, traces[1].node), (1, 0));
        // Per-plan program order within each job's trace.
        for job in 0..2 {
            let nodes: Vec<usize> =
                traces.iter().filter(|t| t.job == job).map(|t| t.node).collect();
            assert_eq!(nodes, (0..plan.len()).collect::<Vec<_>>());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ill-formed plan admitted")]
    fn serve_admissions_are_verified_in_debug_builds() {
        use crate::backend::Map;
        use crate::plan::{PlanNode, PlanOp};
        let catalog = catalog();
        // Reads register 7, which no node defines.
        let plan = Plan::from_nodes_unchecked(vec![PlanNode {
            op: PlanOp::Map { map: Map::CastI32F32(Map::leaf(0)) },
            inputs: vec![7],
            outputs: vec![0],
        }]);
        let session = Session::new(MonetBackend::with_threads(1));
        let plans = [plan];
        let jobs = serve_jobs(&session, &plans, &catalog, &[(0, Lane::Batch)]);
        ServeScheduler::new().run(&jobs);
    }

    #[test]
    fn serve_runs_count_and_trace_quarantines() {
        use ocelot_kernel::FaultPlan;
        use ocelot_trace::TraceSink;
        let catalog = catalog();
        let plan = compile(&rewrite_for_ocelot(&example_plan("t", "a", "b", 10, 60))).unwrap();
        let flaky = SharedDevice::cpu();
        flaky.device().install_fault_plan(FaultPlan::seeded(7, 1.0, 0.0));
        let session = Session::ocelot(&flaky);
        let jobs = [ServeJob {
            job: QueryJob { session: &session, plan: &plan, catalog: &catalog },
            tenant: 0,
            lane: Lane::Batch,
        }];
        let scheduler = ServeScheduler::new();
        let sink = Arc::new(TraceSink::new());
        scheduler.trace().attach(Arc::clone(&sink));
        let outcome = scheduler.run(&jobs);
        scheduler.trace().detach();

        assert!(
            matches!(outcome.results[0], Err(PlanError::Faulted { .. })),
            "{:?}",
            outcome.results[0]
        );
        assert_eq!(outcome.stats.recovery.quarantines, 1);
        let quarantines = sink.count(|e| {
            matches!(e.kind, TraceEventKind::Sched { action: SchedAction::Quarantine, .. })
        });
        assert_eq!(quarantines, 1, "one quarantine event for the one faulted job");
    }

    #[test]
    fn scheduled_runs_reach_their_session_recovery_counters() {
        use ocelot_kernel::FaultPlan;
        let catalog = catalog();
        let plan = compile(&rewrite_for_ocelot(&example_plan("t", "a", "b", 10, 60))).unwrap();
        let flaky = SharedDevice::cpu();
        flaky.device().install_fault_plan(FaultPlan::seeded(7, 1.0, 0.0));
        let session = Session::ocelot(&flaky);
        let jobs = [QueryJob { session: &session, plan: &plan, catalog: &catalog }];
        let results = Scheduler::new().run(&jobs);
        assert!(matches!(results[0], Err(PlanError::Faulted { .. })), "{:?}", results[0]);
        let stats = session.recovery_stats();
        assert!(stats.retries >= 6, "the session saw its scheduled run retry: {stats:?}");
    }
}
