//! Engine-wide observability end to end: per-node EXPLAIN ANALYZE under
//! memory pressure, a unified metrics registry, and a Chrome-trace
//! timeline of a two-tenant serve run.
//!
//! Run with `cargo run --release -p ocelot-examples --example observability`.
//!
//! Three demonstrations:
//!
//! 1. **EXPLAIN ANALYZE.** TPC-H Q3's in-memory hash join runs under a
//!    device budget below its working set — on a copy of the database
//!    whose order and customer keys are sparse (`sparse_keys`), since a
//!    join on the generator's dense keys is positional and fits. The
//!    profile attributes wall time, rows, kernels, transfers and flushes to
//!    every plan node — and pins the recovery work (OOM restarts, spills)
//!    on the node that incurred it. The per-node times plus the accounted
//!    overhead sum to the plan total *exactly* (the conservation invariant
//!    is epsilon = 0).
//! 2. **Unified metrics registry.** The same session renders every
//!    subsystem's counters (queue, memory, pool, cache, recovery) under
//!    one namespace, without disturbing the existing typed accessors.
//! 3. **Timeline export.** A two-tenant serve run records plan-cache
//!    lookups, scheduler admissions and the sessions' kernel/flush events
//!    into one `TraceSink`, exported as Chrome trace-event JSON
//!    (chrome://tracing / Perfetto) with tenants as processes and jobs as
//!    threads.

use ocelot_core::SharedDevice;
use ocelot_engine::{
    Lane, PlanCache, QueryJob, SchedAction, ServeJob, ServeScheduler, Session, TraceEventKind,
    TraceSink,
};
use ocelot_tpch::{q3_query, q6_params, q6_query_p, sparse_keys, TpchConfig, TpchDb};
use std::sync::Arc;

/// Device budget for the pressured Q3 run: below the in-memory hash join's
/// working set at this scale factor, so the join node must recover.
const DEVICE_BUDGET: usize = 2048 * 1024;

fn main() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.01, seed: 31 });
    let catalog = db.catalog();

    // --- 1. EXPLAIN ANALYZE: pressured Q3, per-node attribution. -------
    let sparse = sparse_keys(catalog);
    let plan = q3_query(&db).lower(&sparse).unwrap();
    let pressured = SharedDevice::cpu().with_memory_budget(DEVICE_BUDGET);
    let session = Session::ocelot(&pressured);
    let (_, profile) = session.explain_analyze(&plan, &sparse).unwrap();
    print!("{}", profile.render());

    assert_eq!(
        profile.total_host_ns,
        profile.nodes_host_ns() + profile.overhead_ns,
        "node times + overhead must sum to the plan total exactly"
    );
    assert_eq!(profile.nodes.len(), plan.len(), "every node is profiled");
    let recovered = profile
        .nodes
        .iter()
        .find(|n| n.restarts > 0 || n.marker.spills > 0)
        .expect("the budget must force restart-or-spill work onto the join");
    println!(
        "attribution: node {} ({}) absorbed the pressure — {} restart(s), {} spill(s)",
        recovered.index,
        recovered.op.split_whitespace().next().unwrap_or(&recovered.op),
        recovered.restarts,
        recovered.marker.spills,
    );

    // --- 2. The unified metrics registry on the same session. ----------
    let metrics = session.metrics();
    assert!(metrics.counter("ocelot.queue.kernels").unwrap() > 0);
    assert!(
        metrics.counter("ocelot.reclaims").unwrap() > 0
            || metrics.counter("ocelot.spill.spills").unwrap() > 0,
        "the pressured run must show up in the registry"
    );
    assert_eq!(
        metrics.counter("session.recovery.oom_restarts").unwrap(),
        profile.recovery.oom_restarts,
        "the registry absorbs the typed stats without changing them"
    );
    println!("metrics registry: {} counters, e.g.", metrics.len());
    for name in ["ocelot.queue.kernels", "ocelot.queue.flushes", "session.recovery.oom_restarts"] {
        println!("  {name} = {}", metrics.counter(name).unwrap());
    }

    // --- 3. Chrome trace of a two-tenant serve run. --------------------
    let shared = SharedDevice::cpu();
    let sink = Arc::new(TraceSink::new());
    let cache = PlanCache::on(&shared);
    cache.trace().attach(Arc::clone(&sink));
    let q6 = q6_query_p(&db);
    let _ = cache.plan(&q6, &q6_params(), catalog).unwrap(); // cold: a miss
    let q6_plan = cache.plan(&q6, &q6_params(), catalog).unwrap(); // warm: a hit

    let sessions: Vec<Session<_>> = (0..4).map(|_| Session::ocelot(&shared)).collect();
    for s in &sessions {
        s.attach_tracer(&sink);
    }
    let jobs: Vec<ServeJob<'_, _>> = sessions
        .iter()
        .enumerate()
        .map(|(i, session)| ServeJob {
            job: QueryJob { session, plan: &q6_plan, catalog },
            tenant: i % 2,
            lane: if i == 3 { Lane::Interactive } else { Lane::Batch },
        })
        .collect();
    let scheduler = ServeScheduler::new().with_in_flight(2);
    scheduler.trace().attach(Arc::clone(&sink));
    let outcome = scheduler.run(&jobs);
    scheduler.trace().detach();
    for s in &sessions {
        s.detach_tracer();
    }
    cache.trace().detach();
    assert!(outcome.results.iter().all(|r| r.is_ok()));

    // The timeline carries every layer's events, in asserted numbers.
    let sched = |action: SchedAction| {
        sink.count(|e| matches!(e.kind, TraceEventKind::Sched { action: a, .. } if a == action))
    };
    assert_eq!(sched(SchedAction::Submit), 4, "one submission per job");
    assert_eq!(sched(SchedAction::Admit), 4, "all four jobs admit");
    assert_eq!(sched(SchedAction::Reject), 0, "nothing is shed below capacity");
    assert_eq!(sched(SchedAction::Complete), 4, "all four jobs complete");
    let hits = sink.count(|e| matches!(e.kind, TraceEventKind::PlanCache { hit: true }));
    let misses = sink.count(|e| matches!(e.kind, TraceEventKind::PlanCache { hit: false }));
    assert_eq!((misses, hits), (1, 1), "one cold compile, one cached binding");
    let flushes = sink.count(|e| matches!(e.kind, TraceEventKind::Flush { .. }));
    assert_eq!(flushes, 4, "one effective flush per admitted Q6 plan");
    let kernels = sink.count(|e| matches!(e.kind, TraceEventKind::Kernel { .. }));
    assert!(kernels > 0, "queue-level kernel events share the timeline");

    let chrome = sink.to_chrome_trace();
    assert!(chrome.contains("\"cat\":\"sched\""));
    assert!(chrome.contains("\"cat\":\"serve\""));
    assert!(chrome.contains("\"cat\":\"queue\""));
    std::fs::write("observability_trace.json", &chrome).unwrap();
    println!(
        "timeline: {} events ({kernels} kernels, {flushes} flushes, 4 admissions, \
         1 plan-cache miss + 1 hit) -> observability_trace.json ({} bytes, \
         chrome://tracing format)",
        sink.len(),
        chrome.len(),
    );
    println!("ok: per-node attribution, one metrics namespace, one timeline");
}
