//! The serving layer end to end: prepared shapes, the device-wide
//! compiled-plan cache, and tenant-fair backpressured scheduling.
//!
//! Run with `cargo run --release -p ocelot-examples --example serving`.
//!
//! Three demonstrations:
//!
//! 1. **Parameterized plan cache.** TPC-H Q6 is authored once as a shape
//!    with `$0..$4` placeholders. The first execution compiles it (rewrite
//!    rules + column statistics + lowering — a **miss**); every later
//!    request only binds fresh literals into the cached optimized tree
//!    (a **hit**: no rewrite, no base-column scans) and runs.
//! 2. **Tenant fairness under a greedy tenant.** Tenant 0 floods the
//!    batch lane while tenant 1 submits two jobs. Deficit round-robin
//!    alternates their completions instead of letting the flood finish
//!    first, and the interactive lane admits strictly before batch.
//! 3. **Backpressure.** The flood exceeds the bounded per-tenant queue;
//!    the overflow is rejected up front with the typed
//!    `PlanError::Overloaded`, while every admitted job completes with
//!    reference-equal results.

use ocelot_core::SharedDevice;
use ocelot_engine::{Lane, PlanCache, PlanError, QueryJob, ServeJob, ServeScheduler, Session};
use ocelot_storage::types::date_to_days;
use ocelot_tpch::{q1_params, q1_query_p, q6_params, q6_query_p, TpchConfig, TpchDb};

fn main() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 47 });
    let catalog = db.catalog();
    let shared = SharedDevice::cpu();
    let session = Session::ocelot(&shared);

    // --- 1. One shape, many bindings: compile once, bind per request. ---
    let q6 = q6_query_p(&db);
    let cache = PlanCache::on(&shared);
    session.run_cached(&cache, &q6, &q6_params(), catalog).unwrap();
    for year in [1993, 1995, 1996] {
        let params = vec![
            date_to_days(year, 1, 1).into(),
            (date_to_days(year + 1, 1, 1) - 1).into(),
            (0.05f32 - 0.001).into(),
            (0.07f32 + 0.001).into(),
            23.5f32.into(),
        ];
        session.run_cached(&cache, &q6, &params, catalog).unwrap();
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (3, 1), "one compile serves every binding");
    let explain = cache.explain(&q6, &q6_params(), catalog).unwrap();
    assert!(explain.contains("last run: HIT"));
    println!(
        "plan cache: 4 executions of the Q6 shape = {} compile ({} hits); \
         explain says \"last run: HIT\"",
        stats.misses, stats.hits
    );

    // --- 2 + 3. A greedy tenant vs a polite one, bounded queues. -------
    let q6_compiled = cache.plan(&q6, &q6_params(), catalog).unwrap();
    let q1_compiled = cache.plan(&q1_query_p(&db), &q1_params(), catalog).unwrap();
    let reference = session.run(&q6_compiled, catalog).unwrap();

    let capacity = 4;
    let greedy: Vec<Session<_>> = (0..2 * capacity).map(|_| Session::ocelot(&shared)).collect();
    let polite = [Session::ocelot(&shared), Session::ocelot(&shared)];
    let mut jobs: Vec<ServeJob<'_, _>> = greedy
        .iter()
        .map(|session| ServeJob {
            job: QueryJob { session, plan: &q6_compiled, catalog },
            tenant: 0,
            lane: Lane::Batch,
        })
        .collect();
    jobs.push(ServeJob {
        job: QueryJob { session: &polite[0], plan: &q6_compiled, catalog },
        tenant: 1,
        lane: Lane::Batch,
    });
    jobs.push(ServeJob {
        job: QueryJob { session: &polite[1], plan: &q1_compiled, catalog },
        tenant: 1,
        lane: Lane::Interactive,
    });

    let outcome = ServeScheduler::new()
        .with_in_flight(1) // serialize so the completion order shows admission order
        .with_queue_capacity(capacity)
        .run(&jobs);

    let t0 = outcome.stats.tenant(0);
    let t1 = outcome.stats.tenant(1);
    assert_eq!(t0.rejected, capacity, "the flood beyond the bounded queue is shed");
    assert_eq!(t0.completed, capacity, "every admitted greedy job still completes");
    assert_eq!((t1.rejected, t1.completed), (0, 2), "the polite tenant is untouched");

    // The interactive job admits first; after it, DRR alternates tenants.
    let order = &outcome.stats.completion_order;
    assert_eq!(order[0], jobs.len() - 1, "interactive precedes every batch job");
    assert!(
        order[1..].windows(2).any(|w| jobs[w[0]].tenant != jobs[w[1]].tenant),
        "batch completions must interleave tenants: {order:?}"
    );

    let mut overloaded = 0;
    for (index, result) in outcome.results.iter().enumerate() {
        match result {
            Ok(values) if jobs[index].tenant == 0 || index == jobs.len() - 2 => {
                assert_eq!(values, &reference, "admitted jobs stay reference-equal");
            }
            Ok(_) => {} // the interactive Q1 has its own result shape
            Err(PlanError::Overloaded { queued, capacity }) => {
                assert_eq!((*queued, *capacity), (4, 4));
                overloaded += 1;
            }
            Err(other) => panic!("untyped failure: {other:?}"),
        }
    }
    assert_eq!(overloaded, capacity);
    println!(
        "fairness: completion order {order:?} (job {} is tenant 1's interactive Q1, \
         then DRR alternates the backlogged tenants)",
        jobs.len() - 1
    );
    println!(
        "backpressure: tenant 0 submitted {}, {} admitted + completed, {} rejected \
         with `{}`",
        t0.submitted,
        t0.completed,
        t0.rejected,
        PlanError::Overloaded { queued: 4, capacity: 4 },
    );
    println!("ok: one compile per shape, fair interleaving, typed shedding");
}
