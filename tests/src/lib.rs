//! Cross-crate integration suites.
//!
//! Two headline suites:
//!
//! * **Sync-boundary regression** — the deferred device-value API
//!   (`DevScalar<T>` / typed `DevColumn<T>`) promises that a chained
//!   operator pipeline enqueues everything and flushes the command queue
//!   exactly once, at the final `.get()`/`.read()`. Pinned with
//!   [`ocelot_kernel::Queue::flush_count`] and `FlushStats` across every
//!   Ocelot device, and property-tested (deferred == eager) across all four
//!   evaluated backends.
//! * **Session/scheduler regression** (PR 3) — interleaving N sessions'
//!   plans through the multi-query scheduler yields results identical to
//!   running each plan alone; concurrently admitted TPC-H Q6 plans keep
//!   their per-plan single-flush bound; and the shared buffer pool serves
//!   one session's allocations from another session's finished
//!   intermediates (cross-context recycling hit-rate > 0).

use ocelot_tpch::{QueryResult, TpchDb};

/// Asserts two [`QueryResult`]s of a query over `db` agree under the one
/// equality rule ([`QueryResult::first_difference`] at a relative float
/// tolerance of `1e-5`) — the shared comparison every cross-backend suite
/// uses instead of re-deriving its own. On divergence it panics with the
/// `label`, the first differing cell and the scale factor and seed that
/// reproduce it.
pub fn assert_results_close(
    label: &str,
    db: &TpchDb,
    actual: &QueryResult,
    expected: &QueryResult,
) {
    if let Some(difference) = actual.first_difference(expected, 1e-5) {
        let config = db.config();
        panic!("{label} at sf {} seed {}: {difference}", config.scale_factor, config.seed);
    }
}

#[cfg(test)]
mod sync_boundary {
    use ocelot_core::ops::rowexpr::Pred;
    use ocelot_core::ops::select;
    use ocelot_core::primitives::{gather, reduce};
    use ocelot_core::OcelotContext;

    fn test_data() -> (Vec<i32>, Vec<f32>) {
        let keys: Vec<i32> = (0..50_000).map(|i| (i * 37 + 11) % 1000).collect();
        let payload: Vec<f32> = (0..50_000).map(|i| (i % 97) as f32 * 0.5).collect();
        (keys, payload)
    }

    fn expected_sum(keys: &[i32], payload: &[f32]) -> f32 {
        keys.iter().zip(payload).filter(|(k, _)| (100..=300).contains(*k)).map(|(_, p)| *p).sum()
    }

    /// The acceptance pipeline: select → scan (inside materialise) → gather
    /// → sum, with exactly one queue flush at the final `.get()`.
    fn run_pipeline(ctx: &OcelotContext) {
        let (keys, payload) = test_data();
        let k = ctx.upload_i32(&keys, "keys").unwrap();
        let p = ctx.upload_f32(&payload, "payload").unwrap();
        let flushes_before = ctx.queue().flush_count();
        let stats_before = ctx.queue().total_stats();

        let in_range = [Pred::RangeI32 { col: 0, low: 100, high: 300 }];
        let bitmap = select::select_where(ctx, &[&k.reinterpret()], &in_range).unwrap();
        let oids = select::materialize_bitmap(ctx, &bitmap).unwrap();
        let fetched = gather::gather(ctx, &p, &oids).unwrap();
        let total = reduce::sum_f32(ctx, &fetched).unwrap();
        assert_eq!(
            ctx.queue().flush_count(),
            flushes_before,
            "select→scan→gather→sum must not flush on {:?}",
            ctx.device().info().kind
        );
        assert!(ctx.queue().pending_ops() > 0, "work must be enqueued, not executed");

        let value = total.get(ctx).unwrap();
        assert_eq!(
            ctx.queue().flush_count(),
            flushes_before + 1,
            "exactly one flush, at the final .get(), on {:?}",
            ctx.device().info().kind
        );

        let expected = expected_sum(&keys, &payload);
        assert!((value - expected).abs() / expected.abs().max(1.0) < 1e-3, "{value} vs {expected}");

        // FlushStats cross-check: the single flush executed the whole chain
        // (select, count, 3 scan phases, write positions, gather, 2 reduce
        // phases).
        let delta_kernels = ctx.queue().total_stats().kernels - stats_before.kernels;
        assert!(delta_kernels >= 7, "the chain's kernels all ran in the one flush");
    }

    #[test]
    fn pipeline_flushes_once_on_all_ocelot_devices() {
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            run_pipeline(&ctx);
        }
    }

    #[test]
    fn gpu_reads_back_one_word_not_the_intermediates() {
        // The deferred design's bandwidth win, in FlushStats terms: on the
        // discrete device the only device→host transfer of the whole
        // pipeline is the four-byte scalar readback.
        let ctx = OcelotContext::gpu();
        let (keys, payload) = test_data();
        let k = ctx.upload_i32(&keys, "keys").unwrap();
        let p = ctx.upload_f32(&payload, "payload").unwrap();
        let before = ctx.queue().total_stats();
        let in_range = [Pred::RangeI32 { col: 0, low: 100, high: 300 }];
        let bitmap = select::select_where(&ctx, &[&k.reinterpret()], &in_range).unwrap();
        let oids = select::materialize_bitmap(&ctx, &bitmap).unwrap();
        let fetched = gather::gather(&ctx, &p, &oids).unwrap();
        let total = reduce::sum_f32(&ctx, &fetched).unwrap();
        let _ = total.get(&ctx).unwrap();
        let delta = ctx.queue().total_stats().bytes_from_device - before.bytes_from_device;
        assert_eq!(delta, 4, "only the one-word scalar crosses back to the host");
    }
}

#[cfg(test)]
mod sessions {
    use ocelot_core::SharedDevice;
    use ocelot_engine::mal::{compile, example_plan, rewrite_for_ocelot};
    use ocelot_engine::plan::Plan;
    use ocelot_engine::{QueryJob, QueryValue, RewriteConfig, Scheduler, Session};
    use ocelot_storage::{Bat, Catalog, Table};
    use ocelot_tpch::{q6_query, run_query, TpchConfig, TpchDb};
    use proptest::collection;
    use proptest::prelude::*;

    fn catalog(keys: &[i32], values: &[f32]) -> Catalog {
        let mut catalog = Catalog::new();
        let table = Table::new("t")
            .with_column("a", Bat::from_i32("a", keys.to_vec()).into_ref())
            .with_column("b", Bat::from_f32("b", values.to_vec()).into_ref());
        catalog.add_table(table);
        catalog
    }

    proptest! {
        /// N sessions' plans interleaved through the scheduler produce
        /// results identical to running every plan to completion alone —
        /// for any admission cap, on a shared device with a shared pool.
        #[test]
        fn interleaved_sessions_equal_sequential_execution(
            raw in collection::vec(-1_000i32..1_000, 50..400),
            bounds in collection::vec((-50i32..50, 0i32..80), 2..5),
        ) {
            let keys: Vec<i32> = raw.iter().map(|v| v % 100).collect();
            let values: Vec<f32> = raw.iter().map(|v| *v as f32 * 0.125).collect();
            let catalog = catalog(&keys, &values);
            let plans: Vec<Plan> = bounds
                .iter()
                .map(|(low, width)| {
                    compile(&rewrite_for_ocelot(&example_plan(
                        "t", "a", "b", *low, *low + *width,
                    )))
                    .unwrap()
                })
                .collect();

            // Sequential reference: each plan alone, in its own session on
            // its own (fresh) shared device.
            let sequential: Vec<Vec<QueryValue>> = plans
                .iter()
                .map(|plan| {
                    Session::ocelot(&SharedDevice::cpu())
                        .run(plan, &catalog)
                        .unwrap()
                })
                .collect();

            // Interleaved: one session per plan on ONE shared device, all
            // plans admitted together (and with a partial admission cap).
            for in_flight in [2, plans.len()] {
                let shared = SharedDevice::cpu();
                let sessions: Vec<Session<_>> =
                    plans.iter().map(|_| Session::ocelot(&shared)).collect();
                let jobs: Vec<QueryJob<'_, _>> = plans
                    .iter()
                    .zip(&sessions)
                    .map(|(plan, session)| QueryJob { session, plan, catalog: &catalog })
                    .collect();
                let results = Scheduler::new().with_in_flight(in_flight).run(&jobs);
                for (index, result) in results.iter().enumerate() {
                    prop_assert_eq!(
                        result.as_ref().unwrap(),
                        &sequential[index],
                        "plan {} diverged under interleaving (in_flight={})",
                        index,
                        in_flight
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_q6_plans_share_the_pool_within_flush_bounds() {
        // The PR 3 acceptance scenario: two Q6 plans admitted concurrently
        // in two sessions of one shared device. Each plan must keep its
        // PR 2 bound (exactly one flush), produce the reference revenue,
        // and the pool must prove cross-context reuse.
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 23 });
        // Unfused: the fused Q6 is one pipeline that allocates no pooled
        // intermediate, so it could not show the reuse.
        let unfused = RewriteConfig { fuse: false, ..RewriteConfig::optimized() };
        let plan = q6_query(&db).lower_with(db.catalog(), &unfused).unwrap();
        let reference = run_query(&Session::monet_seq(), &db, 6).unwrap();

        let shared = SharedDevice::cpu();
        let a = Session::ocelot(&shared);
        let b = Session::ocelot(&shared);
        let jobs = [
            QueryJob { session: &a, plan: &plan, catalog: db.catalog() },
            QueryJob { session: &b, plan: &plan, catalog: db.catalog() },
        ];
        let results = Scheduler::new().with_in_flight(2).run(&jobs);
        for (session, result) in [&a, &b].into_iter().zip(&results) {
            let revenue = match result.as_ref().unwrap().as_slice() {
                [QueryValue::Scalar(revenue)] => *revenue as f64,
                other => panic!("unexpected q6 result {other:?}"),
            };
            let expected = reference.rows[0][0];
            assert!(
                (revenue - expected).abs() / expected.abs().max(1.0) < 1e-3,
                "{}: {revenue} vs {expected}",
                session.name()
            );
            assert_eq!(
                session.backend().context().queue().flush_count(),
                1,
                "{}: Q6 must keep its single-flush bound under concurrency",
                session.name()
            );
        }

        // Cross-context recycling: a third session on the same device runs
        // the same plan; its result buffers come from the pool the first
        // two sessions filled — hits recorded by a Memory Manager that
        // never released a buffer itself are cross-context by construction.
        let c = Session::ocelot(&shared);
        let before = shared.pool().stats();
        let third = c.run(&plan, db.catalog()).unwrap();
        assert_eq!(third, *results[0].as_ref().unwrap());
        assert_eq!(c.backend().context().queue().flush_count(), 1);
        let hits = c.backend().context().memory().stats().recycle_hits;
        assert!(hits > 0, "the third session must allocate from the shared pool");
        let delta_cross = shared.pool().stats().cross_context_hits - before.cross_context_hits;
        assert!(
            delta_cross >= hits,
            "all {hits} hits are cross-context (pool stats moved by {delta_cross})"
        );
    }
}

#[cfg(test)]
mod column_cache {
    use crate::assert_results_close;
    use ocelot_core::SharedDevice;
    use ocelot_engine::Session;
    use ocelot_tpch::{run_query, QueryResult, TpchConfig, TpchDb};
    use proptest::collection;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One shared dataset for the pressure suites (generation is the
    /// expensive part; the suites only read it).
    fn db() -> &'static TpchDb {
        static DB: OnceLock<TpchDb> = OnceLock::new();
        DB.get_or_init(|| TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 31 }))
    }

    /// MS reference results, computed once per query id.
    fn reference(query: u32) -> &'static QueryResult {
        static REFS: OnceLock<Vec<(u32, QueryResult)>> = OnceLock::new();
        let refs = REFS.get_or_init(|| {
            let session = Session::monet_seq();
            [3u32, 4, 6, 12]
                .into_iter()
                .map(|q| (q, run_query(&session, db(), q).unwrap()))
                .collect()
        });
        &refs.iter().find(|(q, _)| *q == query).unwrap().1
    }

    /// A device-memory budget small enough to force eviction on the
    /// query stream's working set but comfortably above the largest
    /// single-plan pinned set (the stream must *complete*, via the
    /// restart protocol, not fail). One budget for every device: operator
    /// scratch follows the rows, not the device's width, so the stream below
    /// completes from 416 KiB up on the multi-core CPU and on the simulated
    /// GPU alike (measured in 32 KiB steps; ~50 evictions either way).
    const PRESSURE_BUDGET: usize = 512 * 1024;

    #[test]
    fn warm_cache_rerun_uploads_zero_base_column_bytes() {
        // The PR 4 acceptance scenario: a session stream re-running Q6 on
        // a warm ColumnCache re-uploads nothing — proven with the queue's
        // transfer accounting on the discrete device, where every
        // host→device byte is charged.
        let db = db();
        let shared = SharedDevice::gpu();
        let cold = Session::ocelot(&shared);
        let first = run_query(&cold, db, 6).unwrap();
        assert_results_close("cold q6 (gpu)", db, &first, reference(6));
        let cold_stats = shared.cache().stats();
        assert!(cold_stats.misses >= 4, "q6 binds four lineitem columns: {cold_stats:?}");
        assert!(cold_stats.bytes_uploaded > 0);
        assert!(cold.backend().context().queue().total_stats().bytes_to_device > 0);

        for rerun in 0..3 {
            let warm = Session::ocelot(&shared);
            let result = run_query(&warm, db, 6).unwrap();
            assert_results_close("warm q6 (gpu)", db, &result, reference(6));
            assert_eq!(
                warm.backend().context().queue().total_stats().bytes_to_device,
                0,
                "warm rerun {rerun} must not upload any base-column bytes"
            );
        }
        let warm_stats = shared.cache().stats();
        assert_eq!(warm_stats.misses, cold_stats.misses, "no upload after the cold run");
        assert_eq!(warm_stats.bytes_uploaded, cold_stats.bytes_uploaded);
        assert!(warm_stats.hits >= 12, "three warm reruns hit the cache: {warm_stats:?}");
    }

    #[test]
    fn base_columns_reach_the_device_in_at_most_one_write() {
        // After a stream, every resident column on the unified-memory CPU
        // device is the BAT's own tail (mapped, no copy); on the discrete GPU
        // it is a copy, uploaded exactly once — the bytes charged as uploads
        // are the resident bytes, nothing more.
        let db = db();
        for (shared, in_place) in [(SharedDevice::cpu(), true), (SharedDevice::gpu(), false)] {
            let session = Session::ocelot(&shared);
            for query in [3, 4, 6, 12] {
                let result = run_query(&session, db, query).unwrap();
                assert_results_close(session.name(), db, &result, reference(query));
            }
            let (cache, ctx) = (shared.cache(), session.backend().context());
            let uploaded = cache.stats().bytes_uploaded;
            let mut resident = Vec::new();
            for table in db.catalog().table_names() {
                let columns = db.catalog().table(table).unwrap().columns();
                resident.extend(columns.filter(|(_, bat)| cache.contains(bat)));
            }
            assert!(resident.len() >= 10, "{} columns bound", resident.len());
            for (name, bat) in &resident {
                let (buffer, _pin) = cache.get_or_upload(ctx, bat).unwrap();
                assert_eq!(buffer.is_mapped(), in_place, "{name}");
                assert_eq!(buffer.as_words().as_ptr() == bat.words().as_ptr(), in_place, "{name}");
                assert_eq!(buffer.as_words(), bat.words(), "{name}");
            }
            let bytes: usize = resident.iter().map(|(_, bat)| bat.len() * 4).sum();
            assert_eq!(uploaded, if in_place { 0 } else { bytes as u64 });
            assert_eq!(cache.resident_bytes(), bytes, "charged the same on either device");
        }
    }

    #[test]
    fn session_cache_handles_are_shared_and_observable() {
        let shared = SharedDevice::cpu();
        let a = Session::ocelot(&shared);
        let b = Session::ocelot(&shared);
        let (cache_a, cache_b) = (a.column_cache(), b.column_cache());
        assert!(std::ptr::eq(cache_a, cache_b), "one cache per device");
        assert!(std::ptr::eq(cache_a, &**shared.cache()));
        drop(run_query(&a, db(), 6).unwrap());
        assert!(cache_b.stats().misses > 0, "b observes a's binds through the shared handle");
    }

    #[test]
    fn tiny_budget_stream_completes_via_eviction_and_restart() {
        // The second PR 4 acceptance scenario: a stream whose working set
        // exceeds the device budget completes *correctly* — evicting
        // resident columns and restarting OOM'd nodes — with eviction
        // counters > 0. The race detector is armed throughout: restarts
        // and re-binds of evicted (mapped) columns declare every access and
        // never a write into a base column.
        let db = db();
        let shared = SharedDevice::cpu().with_memory_budget(PRESSURE_BUDGET);
        let mut reclaims = 0;
        for &query in &[6, 3, 4, 12, 6, 3, 12] {
            let session = Session::ocelot(&shared);
            let race = session.backend().context().queue().race();
            race.arm();
            let result = match run_query(&session, db, query) {
                Ok(r) => r,
                Err(e) => panic!(
                    "q{query} failed: {e:?}; cache={:?} used={} reclaims_this={} ",
                    shared.cache().stats(),
                    shared.device().memory().used(),
                    session.backend().reclaim_count(),
                ),
            };
            assert_results_close("pressured stream", db, &result, reference(query));
            reclaims += session.backend().reclaim_count();
            let (stats, diagnostics) = (race.stats(), race.take_diagnostics());
            race.disarm();
            assert!(diagnostics.is_empty(), "q{query}: {diagnostics:?}");
            assert_eq!(stats.kernels_declared, stats.kernels_observed, "q{query}: {stats:?}");
        }
        let stats = shared.cache().stats();
        assert!(stats.evictions > 0, "the budget must force eviction: {stats:?}");
        assert!(stats.hits > 0, "re-used columns still hit while resident: {stats:?}");
        assert!(
            reclaims > 0,
            "at least one node must go through the OOM-restart protocol \
             (evictions {}, reclaims {reclaims})",
            stats.evictions
        );
    }

    proptest! {
        /// Results under an artificially tiny device budget (forced
        /// eviction + restarts) equal results with an unbounded budget,
        /// across all four backends.
        #[test]
        fn pressured_results_equal_unbounded(
            extra_64k in 0usize..5,
            picks in collection::vec(0usize..4, 2..5),
        ) {
            let queries: Vec<u32> = picks.iter().map(|i| [3u32, 4, 6, 12][*i]).collect();
            let db = db();
            // Budgets between ~65% and ~95% of the working set: all force
            // eviction, the tightest also force node restarts.
            let budget = PRESSURE_BUDGET + extra_64k * 64 * 1024;
            let cpu = SharedDevice::cpu().with_memory_budget(budget);
            let gpu = SharedDevice::gpu().with_memory_budget(budget);
            let mp = Session::monet_par();
            for &query in &queries {
                // Unbounded reference (MS) vs the other three backends,
                // the Ocelot pair running under the tiny budget.
                let expected = reference(query);
                let mp_result = run_query(&mp, db, query).unwrap();
                assert_results_close("MP", db, &mp_result, expected);
                for shared in [&cpu, &gpu] {
                    let session = Session::ocelot(shared);
                    let race = session.backend().context().queue().race();
                    race.arm();
                    let result = run_query(&session, db, query).unwrap();
                    assert_results_close(session.name(), db, &result, expected);
                    let diagnostics = race.take_diagnostics();
                    prop_assert!(diagnostics.is_empty(), "{}: {:?}", session.name(), diagnostics);
                    race.disarm();
                }
            }
        }
    }
}

#[cfg(test)]
mod query_dsl {
    use ocelot_engine::{OcelotBackend, RewriteConfig, Session};
    use ocelot_tpch::{q3_query, TpchConfig, TpchDb};

    #[test]
    fn naive_lowering_is_semantically_equal_and_physically_bigger() {
        // The all-rules-off reference: turning every rewrite rule off must
        // only change the physical plan (more binds, later filters), never
        // the result.
        let db = &TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 37 });
        let q3 = q3_query(db);
        let session = Session::new(OcelotBackend::cpu());
        let optimized_plan = q3.lower(db.catalog()).unwrap();
        let naive_plan = q3.lower_with(db.catalog(), &RewriteConfig::naive()).unwrap();
        assert!(
            naive_plan.len() > optimized_plan.len(),
            "naive lowering materialises strictly more ({} vs {} nodes)",
            naive_plan.len(),
            optimized_plan.len()
        );
        let to_rows = |values: Vec<ocelot_engine::QueryValue>| -> Vec<Vec<f64>> {
            let columns: Vec<Vec<f64>> = values
                .iter()
                .map(|v| match v {
                    ocelot_engine::QueryValue::Scalar(s) => vec![*s as f64],
                    ocelot_engine::QueryValue::IntColumn(v) => {
                        v.iter().map(|x| *x as f64).collect()
                    }
                    ocelot_engine::QueryValue::FloatColumn(v) => {
                        v.iter().map(|x| *x as f64).collect()
                    }
                    ocelot_engine::QueryValue::OidColumn(v) => {
                        v.iter().map(|x| *x as f64).collect()
                    }
                })
                .collect();
            let mut rows: Vec<Vec<f64>> =
                (0..columns[0].len()).map(|r| columns.iter().map(|c| c[r]).collect()).collect();
            rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows
        };
        let optimized = to_rows(session.run(&optimized_plan, db.catalog()).unwrap());
        let naive = to_rows(session.run(&naive_plan, db.catalog()).unwrap());
        assert_eq!(optimized.len(), naive.len());
        for (a, b) in optimized.iter().zip(&naive) {
            for (x, y) in a.iter().zip(b) {
                assert!(
                    (x - y).abs() <= 1e-3 * x.abs().max(y.abs()).max(1.0),
                    "naive and optimized diverged: {x} vs {y}"
                );
            }
        }
    }
}

#[cfg(test)]
mod recovery {
    //! PR 6 chaos and determinism suites for the unified recovery protocol
    //! (`ocelot_engine::plan` module docs): seeded transient faults are
    //! retried invisibly, scripted device losses heal through failover,
    //! budget exhaustion surfaces as the typed quarantine error — and under
    //! all of it, results are reference-equal or absent, never wrong.

    use ocelot_core::SharedDevice;
    use ocelot_engine::mal::{compile, example_plan, rewrite_for_ocelot};
    use ocelot_engine::plan::Plan;
    use ocelot_engine::{
        PlanError, QueryJob, QueryValue, RecoveryEvent, RecoveryStats, Scheduler, Session,
    };
    use ocelot_kernel::{FaultPlan, FaultSpec};
    use ocelot_storage::{Bat, Catalog, Table};
    use ocelot_tpch::{q1_query, q3_query, q6_query, TpchConfig, TpchDb};
    use proptest::collection;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn db() -> &'static TpchDb {
        static DB: OnceLock<TpchDb> = OnceLock::new();
        DB.get_or_init(|| TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 41 }))
    }

    /// The chaos stream: three DSL-lowered TPC-H plans (so each carries its
    /// logical source and failover exercises the re-lowering path).
    fn plans() -> &'static Vec<Plan> {
        static PLANS: OnceLock<Vec<Plan>> = OnceLock::new();
        PLANS.get_or_init(|| {
            [q1_query(db()), q3_query(db()), q6_query(db())]
                .iter()
                .map(|query| query.lower(db().catalog()).unwrap())
                .collect()
        })
    }

    /// Fault-free references, computed once on fresh CPU devices — the same
    /// device kind every chaos run executes on (or fails over to), so the
    /// PR 3 same-device determinism property makes equality exact.
    fn reference() -> &'static Vec<Vec<QueryValue>> {
        static REFERENCE: OnceLock<Vec<Vec<QueryValue>>> = OnceLock::new();
        REFERENCE.get_or_init(|| {
            plans()
                .iter()
                .map(|plan| {
                    Session::ocelot(&SharedDevice::cpu()).run(plan, db().catalog()).unwrap()
                })
                .collect()
        })
    }

    proptest! {
        /// The PR 6 acceptance property: a query stream under seeded
        /// transient faults plus a scripted mid-stream device loss either
        /// completes reference-equal or fails with the typed quarantine
        /// error — never a hang, a panic or a wrong answer — and the lost
        /// device's plan always completes via failover.
        #[test]
        fn chaos_streams_complete_reference_equal_or_fail_typed(
            seed in 0u64..1 << 16,
            rate_pick in 0usize..3,
            lost_at in 1u64..6,
        ) {
            let rate = [0.0, 0.01, 0.05][rate_pick];
            let catalog = db().catalog();

            // Q1 and Q6 share one flaky CPU device; Q3 runs on a GPU device
            // scripted to drop off the bus mid-plan.
            let flaky = SharedDevice::cpu();
            flaky.device().install_fault_plan(FaultPlan::seeded(seed, rate, 0.0));
            let lost = SharedDevice::gpu();
            lost.device().install_fault_plan(FaultPlan::scripted(vec![FaultSpec::DeviceLost {
                at_op: lost_at,
            }]));

            let sessions =
                [Session::ocelot(&flaky), Session::ocelot(&lost), Session::ocelot(&flaky)];
            let jobs: Vec<QueryJob<'_, _>> = plans()
                .iter()
                .zip(&sessions)
                .map(|(plan, session)| QueryJob { session, plan, catalog })
                .collect();
            let fallback = Session::ocelot(&SharedDevice::cpu());
            // The race detector watches every queue the stream touches, the
            // fallback's included: retried, failed and failed-over nodes
            // declare every access they make.
            for session in sessions.iter().chain([&fallback]) {
                session.backend().context().queue().race().arm();
            }
            let (results, stats) =
                Scheduler::new().with_in_flight(2).run_with_fallback(&jobs, &fallback);
            for session in sessions.iter().chain([&fallback]) {
                let race = session.backend().context().queue().race();
                let diagnostics = race.take_diagnostics();
                race.disarm();
                prop_assert!(diagnostics.is_empty(), "{}: {:?}", session.name(), diagnostics);
            }

            for (index, result) in results.iter().enumerate() {
                match result {
                    Ok(values) => prop_assert_eq!(
                        values,
                        &reference()[index],
                        "slot {} must be reference-equal",
                        index
                    ),
                    // Budget exhaustion quarantines the plan — typed, never
                    // a panic or a silent wrong answer.
                    Err(PlanError::Faulted { .. }) => {}
                    Err(other) => prop_assert!(false, "untyped failure: {other:?}"),
                }
            }
            prop_assert!(results[1].is_ok(), "device loss must heal via failover");
            prop_assert!(stats.failovers > 0, "the loss must show up in the stats");
            prop_assert_eq!(
                stats.quarantines,
                results.iter().filter(|r| r.is_err()).count() as u64,
                "every surviving error is a quarantine"
            );
        }
    }

    #[test]
    fn recovery_traces_are_reproducible_for_a_seed() {
        // Same seed ⇒ same recovery decisions, whatever the outcome: two
        // fresh devices replaying one seeded fault schedule take the exact
        // same retry/backoff trace, count the same counters and end the
        // same way — reference-equal when the plan completes, the typed
        // quarantine error when a node's budget runs out. (Fresh devices
        // matter — a warm column cache would skip uploads and shift the
        // operation sequence.) Which operations a seed hits depends on the
        // plan's launch sequence, so no single seed is pinned: the property
        // holds for every seed of the set and the set must retry somewhere.
        // It also needs the launch sequence itself to repeat, which only a
        // single-threaded device guarantees: on the multi-core device the
        // hash build's racy optimistic round loses an interleaving-dependent
        // number of rows, so `hash_pessimistic_insert` is enqueued in some
        // runs and not in others and every later op index shifts. Hence the
        // sequential device (results bit-equal to the multi-core one).
        let catalog = db().catalog();
        let plan = &plans()[1]; // Q3: enough device ops to draw real faults.
        let run = |seed: u64| {
            let shared = SharedDevice::cpu_sequential();
            shared.device().install_fault_plan(FaultPlan::seeded(seed, 0.05, 0.0));
            let session = Session::ocelot(&shared);
            let outcome = session.run(plan, catalog);
            (outcome, session.recovery_stats(), session.recovery_trace())
        };
        let mut seeds_with_retries = 0;
        for seed in 1..=8 {
            let ((outcome_a, stats_a, trace_a), (outcome_b, stats_b, trace_b)) =
                (run(seed), run(seed));
            assert_eq!(stats_a, stats_b, "seed {seed}: same seed, same counters");
            assert_eq!(trace_a, trace_b, "seed {seed}: same seed, same ordered recovery trace");
            assert_eq!(outcome_a, outcome_b, "seed {seed}: same seed, same outcome");
            match &outcome_a {
                Ok(values) => assert_eq!(values, &reference()[1], "seed {seed}: reference-equal"),
                Err(PlanError::Faulted { .. }) => {}
                Err(other) => panic!("seed {seed}: untyped failure {other:?}"),
            }
            let traced = trace_a
                .iter()
                .filter(|e| matches!(e, RecoveryEvent::TransientRetry { .. }))
                .count();
            assert_eq!(traced as u64, stats_a.retries, "seed {seed}: every retry is traced");
            seeds_with_retries += usize::from(stats_a.retries > 0);
        }
        assert!(seeds_with_retries > 0, "some seed of the set must exercise a retry");
    }

    fn toy_catalog(keys: &[i32], values: &[f32]) -> Catalog {
        let mut catalog = Catalog::new();
        let table = Table::new("t")
            .with_column("a", Bat::from_i32("a", keys.to_vec()).into_ref())
            .with_column("b", Bat::from_f32("b", values.to_vec()).into_ref());
        catalog.add_table(table);
        catalog
    }

    proptest! {
        /// The PR 3 interleaving property survives fault injection: with a
        /// nonzero transient rate on the shared device, interleaved results
        /// still equal the fault-free sequential reference — transient
        /// faults fire before the operation enqueues, so a retried node
        /// recomputes exactly the same values.
        #[test]
        fn interleaved_equals_sequential_under_transient_faults(
            raw in collection::vec(-1_000i32..1_000, 50..200),
            bounds in collection::vec((-50i32..50, 0i32..80), 2..4),
            seed in 0u64..1 << 16,
        ) {
            let keys: Vec<i32> = raw.iter().map(|v| v % 100).collect();
            let values: Vec<f32> = raw.iter().map(|v| *v as f32 * 0.125).collect();
            let catalog = toy_catalog(&keys, &values);
            let plans: Vec<Plan> = bounds
                .iter()
                .map(|(low, width)| {
                    compile(&rewrite_for_ocelot(&example_plan(
                        "t", "a", "b", *low, *low + *width,
                    )))
                    .unwrap()
                })
                .collect();

            // Fault-free sequential reference, each plan on a fresh device.
            let sequential: Vec<Vec<QueryValue>> = plans
                .iter()
                .map(|plan| {
                    Session::ocelot(&SharedDevice::cpu()).run(plan, &catalog).unwrap()
                })
                .collect();

            // Interleaved on ONE shared device with a ~2% transient rate.
            let shared = SharedDevice::cpu();
            shared.device().install_fault_plan(FaultPlan::seeded(seed, 0.02, 0.0));
            let sessions: Vec<Session<_>> =
                plans.iter().map(|_| Session::ocelot(&shared)).collect();
            let jobs: Vec<QueryJob<'_, _>> = plans
                .iter()
                .zip(&sessions)
                .map(|(plan, session)| QueryJob { session, plan, catalog: &catalog })
                .collect();
            let fallback = Session::ocelot(&SharedDevice::cpu());
            let (results, stats) =
                Scheduler::new().with_in_flight(2).run_with_fallback(&jobs, &fallback);
            let _: RecoveryStats = stats; // retries vary by seed; 0 is legal
            for (index, result) in results.iter().enumerate() {
                prop_assert_eq!(
                    result.as_ref().unwrap(),
                    &sequential[index],
                    "plan {} diverged under interleaving with faults (seed {})",
                    index,
                    seed
                );
            }
        }
    }
}

#[cfg(test)]
mod deferred_vs_eager {
    use ocelot_core::ops::rowexpr::Pred;
    use ocelot_core::ops::select;
    use ocelot_core::primitives::reduce;
    use ocelot_core::OcelotContext;
    use ocelot_engine::{Backend, MonetBackend, OcelotBackend};
    use proptest::collection;
    use proptest::prelude::*;

    fn ocelot_contexts() -> Vec<OcelotContext> {
        vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
    }

    fn check_backend<B: Backend>(backend: &B, values: &[f32], expected: (f32, f32, f32)) {
        let col = backend.lift_f32(values.to_vec()).unwrap();
        let sum = backend.sum_f32(&col).unwrap();
        prop_assert!(
            (sum - expected.0).abs() / expected.0.abs().max(1.0) < 1e-3,
            "{}: {} vs {}",
            backend.name(),
            sum,
            expected.0
        );
        prop_assert_eq!(backend.min_f32(&col).unwrap(), expected.1, "{}", backend.name());
        prop_assert_eq!(backend.max_f32(&col).unwrap(), expected.2, "{}", backend.name());
        // The deferred one-element column path agrees bit-exactly with the
        // eager scalar path of the same backend.
        let deferred = backend.to_f32(&backend.sum_scalar_f32(&col).unwrap()).unwrap();
        prop_assert_eq!(deferred[0].to_bits(), sum.to_bits(), "{}", backend.name());
    }

    proptest! {
        #[test]
        fn devscalar_integer_reductions_equal_eager_readbacks(
            values in collection::vec(-10_000i32..10_000, 1..400),
        ) {
            let sum: i32 = values.iter().fold(0i32, |a, v| a.wrapping_add(*v));
            let min = *values.iter().min().unwrap();
            let max = *values.iter().max().unwrap();
            for ctx in ocelot_contexts() {
                let col = ctx.upload_i32(&values, "v").unwrap();
                prop_assert_eq!(reduce::sum_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), sum);
                prop_assert_eq!(reduce::min_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), min);
                prop_assert_eq!(reduce::max_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), max);
            }
        }

        #[test]
        fn devscalar_selected_counts_equal_eager_readbacks(
            values in collection::vec(0i32..100, 0..300),
        ) {
            let expected = values.iter().filter(|v| (25..=75).contains(*v)).count() as u32;
            for ctx in ocelot_contexts() {
                let col = ctx.upload_i32(&values, "v").unwrap();
                let in_range = [Pred::RangeI32 { col: 0, low: 25, high: 75 }];
                let bitmap = select::select_where(&ctx, &[&col.reinterpret()], &in_range).unwrap();
                let count = select::selected_count(&ctx, &bitmap).unwrap();
                prop_assert_eq!(count.get(&ctx).unwrap(), expected);
                // Deferred lengths resolve to the same cardinality.
                let oids = select::materialize_bitmap(&ctx, &bitmap).unwrap();
                prop_assert_eq!(oids.len(&ctx).unwrap(), expected as usize);
            }
        }

        #[test]
        fn backend_aggregates_agree_across_all_four_backends(
            raw in collection::vec(-500i32..500, 1..300),
        ) {
            let values: Vec<f32> = raw.iter().map(|v| *v as f32 * 0.25).collect();
            let reference = MonetBackend::with_threads(1);
            let column = reference.lift_f32(values.clone()).unwrap();
            let expected = (
                reference.sum_f32(&column).unwrap(),
                reference.min_f32(&column).unwrap(),
                reference.max_f32(&column).unwrap(),
            );
            check_backend(&MonetBackend::new(), &values, expected);
            check_backend(&OcelotBackend::cpu(), &values, expected);
            check_backend(&OcelotBackend::cpu_sequential(), &values, expected);
            check_backend(&OcelotBackend::gpu(), &values, expected);
        }
    }
}

#[cfg(test)]
mod serving {
    //! PR 7 serving-layer suites: parameter binding is semantically
    //! invisible (a bound shape equals the literal-inlined query on every
    //! backend, cold and cached), a cache hit re-lowers node for node, the
    //! device-wide cache flushes on scripted device loss, a re-generated
    //! catalog never reuses entries, and the serving scheduler's
    //! backpressure rejects typed while every admitted job completes
    //! reference-equal in per-tenant submission order.

    use ocelot_core::SharedDevice;
    use ocelot_engine::{
        Lane, OcelotBackend, ParamValue, PlanCache, PlanError, QueryJob, ServeJob, ServeScheduler,
        Session,
    };
    use ocelot_kernel::{FaultPlan, FaultSpec};
    use ocelot_storage::types::date_to_days;
    use ocelot_tpch::{
        q1_params, q1_query_p, q3_params, q3_query_p, q6_params, q6_query, q6_query_p, TpchConfig,
        TpchDb,
    };
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn db() -> &'static TpchDb {
        static DB: OnceLock<TpchDb> = OnceLock::new();
        DB.get_or_init(|| TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 53 }))
    }

    proptest! {
        /// The tentpole's semantic property: for randomly drawn parameter
        /// values, executing a prepared shape through the plan cache —
        /// cold (miss) and again warm (hit) — equals running the
        /// literal-inlined query compiled from scratch, on a randomly
        /// drawn backend (all four covered across the case budget).
        #[test]
        fn served_shapes_equal_literal_queries_on_every_backend(
            query_pick in 0usize..3,
            backend_pick in 0usize..4,
            year in 1993i32..1998,
            month in 1u32..13,
            day in 1u32..28,
            band_lo in 1i32..8,
            quantity_q in 30i32..70,
        ) {
            let db = db();
            let (shape, params) = match query_pick {
                0 => (q1_query_p(db), vec![ParamValue::from(date_to_days(year, month, day))]),
                1 => (q3_query_p(db), vec![
                    date_to_days(year, month, day).into(),
                    db.code("customer", "c_mktsegment", "BUILDING").into(),
                ]),
                _ => (q6_query_p(db), vec![
                    date_to_days(year, 1, 1).into(),
                    (date_to_days(year + 1, 1, 1) - 1).into(),
                    (band_lo as f32 * 0.01 - 0.001).into(),
                    ((band_lo + 2) as f32 * 0.01 + 0.001).into(),
                    (quantity_q as f32 * 0.5).into(),
                ]),
            };
            let catalog = db.catalog();
            let literal = shape.bind(&params).unwrap();
            let cache = PlanCache::new();
            fn check<B: ocelot_engine::Backend>(
                session: &Session<B>,
                cache: &PlanCache,
                shape: &ocelot_engine::Query,
                literal: &ocelot_engine::Query,
                params: &[ParamValue],
                catalog: &ocelot_storage::Catalog,
            ) {
                let expected = literal.run(session, catalog).unwrap();
                let cold = cache.execute(session, shape, params, catalog).unwrap();
                let warm = cache.execute(session, shape, params, catalog).unwrap();
                assert_eq!(cold, expected, "cold compile diverged on {}", session.name());
                assert_eq!(warm, expected, "cache hit diverged on {}", session.name());
            }
            match backend_pick {
                0 => check(&Session::monet_seq(), &cache, &shape, &literal, &params, catalog),
                1 => check(&Session::monet_par(), &cache, &shape, &literal, &params, catalog),
                2 => check(
                    &Session::new(OcelotBackend::cpu()),
                    &cache, &shape, &literal, &params, catalog,
                ),
                _ => check(
                    &Session::new(OcelotBackend::gpu()),
                    &cache, &shape, &literal, &params, catalog,
                ),
            }
            prop_assert_eq!(cache.stats().hits, 1);
            prop_assert_eq!(cache.stats().misses, 1);
        }
    }

    #[test]
    fn cache_hits_relower_tpch_shapes_node_for_node() {
        // The compiled-plan cache promise on the real workload shapes: a
        // hit (cached optimized tree + snapshotted statistics) lowers the
        // exact node sequence the cold compile produced.
        let db = db();
        let catalog = db.catalog();
        let cases: [(ocelot_engine::Query, Vec<ParamValue>); 3] = [
            (q1_query_p(db), q1_params()),
            (q3_query_p(db), q3_params(db)),
            (q6_query_p(db), q6_params()),
        ];
        let cache = PlanCache::new();
        for (shape, params) in &cases {
            let cold = cache.plan(shape, params, catalog).unwrap();
            let warm = cache.plan(shape, params, catalog).unwrap();
            assert_eq!(cold.nodes(), warm.nodes(), "hit must re-lower node for node");
        }
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn device_loss_invalidates_the_device_wide_plan_cache() {
        // Satellite (a): the cache handed out by `PlanCache::on` is one
        // per device, and the PR 6 recovery protocol's `on_device_lost`
        // bump flushes it — the lookup after a scripted loss recompiles.
        let db = db();
        let catalog = db.catalog();
        let lost = SharedDevice::gpu();
        let cache = PlanCache::on(&lost);
        assert!(
            std::sync::Arc::ptr_eq(&cache, &PlanCache::on(&lost)),
            "one cache per device, shared by every session"
        );

        let shape = q6_query_p(db);
        let params = q6_params();
        let plan = cache.plan(&shape, &params, catalog).unwrap();
        assert_eq!(cache.stats().misses, 1);

        let reference = Session::ocelot(&SharedDevice::cpu()).run(&plan, catalog).unwrap();
        lost.device()
            .install_fault_plan(FaultPlan::scripted(vec![FaultSpec::DeviceLost { at_op: 3 }]));
        let session = Session::ocelot(&lost).with_fallback(Session::ocelot(&SharedDevice::cpu()));
        let values = session.run(&plan, catalog).unwrap();
        assert_eq!(values, reference, "failover of a cached plan stays reference-equal");
        assert_eq!(session.recovery_stats().failovers, 1);

        // The loss bumped the slot epoch; the next lookup flushes.
        cache.plan(&shape, &params, catalog).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1, "the loss must flush the cache");
        assert_eq!((stats.hits, stats.misses), (0, 2), "post-loss lookup recompiles");
    }

    #[test]
    fn regenerated_databases_never_reuse_cached_shapes() {
        // Satellite (b): same config, fresh generation — the plan-cache
        // key moves with `Catalog::generation`, so stale selectivity
        // snapshots of the old data can't leak into the new catalog.
        let config = TpchConfig { scale_factor: 0.002, seed: 53 };
        let first = TpchDb::generate(config.clone());
        let second = TpchDb::generate(config);
        assert_ne!(first.catalog().generation(), second.catalog().generation());

        let cache = PlanCache::new();
        let params = q6_params();
        cache.plan(&q6_query_p(&first), &params, first.catalog()).unwrap();
        cache.plan(&q6_query_p(&second), &params, second.catalog()).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2), "a regenerated catalog is a cold shape");
    }

    #[test]
    fn overload_rejects_typed_and_admitted_jobs_complete_in_tenant_order() {
        // The backpressure acceptance criterion: a greedy tenant beyond
        // the bounded queue is rejected with the typed `Overloaded` error,
        // every admitted job completes reference-equal, and each tenant's
        // completions land in its submission order.
        let db = db();
        let catalog = db.catalog();
        let plan = q6_query(db).lower(catalog).unwrap();
        let reference = Session::monet_seq().run(&plan, catalog).unwrap();

        let greedy = Session::monet_seq();
        let polite = Session::monet_seq();
        // Tenant 0 submits twice the queue capacity; tenant 1 submits two.
        let capacity = 3;
        let jobs: Vec<ServeJob<'_, _>> = (0..2 * capacity)
            .map(|_| ServeJob {
                job: QueryJob { session: &greedy, plan: &plan, catalog },
                tenant: 0,
                lane: Lane::Batch,
            })
            .chain((0..2).map(|_| ServeJob {
                job: QueryJob { session: &polite, plan: &plan, catalog },
                tenant: 1,
                lane: Lane::Batch,
            }))
            .collect();
        let outcome =
            ServeScheduler::new().with_in_flight(1).with_queue_capacity(capacity).run(&jobs);

        assert_eq!(outcome.stats.tenant(0).rejected, capacity, "overflow sheds typed");
        assert_eq!(outcome.stats.tenant(0).completed, capacity);
        assert_eq!(outcome.stats.tenant(1).completed, 2, "the polite tenant is untouched");
        for (index, result) in outcome.results.iter().enumerate() {
            match result {
                Ok(values) => assert_eq!(values, &reference, "slot {index}"),
                Err(PlanError::Overloaded { queued, capacity }) => {
                    assert_eq!((*queued, *capacity), (3, 3), "slot {index}");
                    assert!(index < 2 * 3, "only the greedy tenant overflows");
                }
                Err(other) => panic!("untyped failure in slot {index}: {other:?}"),
            }
        }
        // Per-tenant completion order == submission order.
        for tenant in [0usize, 1] {
            let completions: Vec<usize> = outcome
                .stats
                .completion_order
                .iter()
                .copied()
                .filter(|&index| jobs[index].tenant == tenant)
                .collect();
            assert!(
                completions.windows(2).all(|w| w[0] < w[1]),
                "tenant {tenant} completions out of submission order: {completions:?}"
            );
        }
    }
}

#[cfg(test)]
mod streaming_dbgen {
    use ocelot_storage::Table;
    use ocelot_tpch::{chunked_tables, chunked_tables_by_rows, TpchConfig, TpchDb};

    fn assert_tables_equal(label: &str, a: &Table, b: &Table) {
        assert_eq!(a.name(), b.name(), "{label}");
        assert_eq!(a.row_count(), b.row_count(), "{label}: {} row count", a.name());
        assert_eq!(a.column_names(), b.column_names(), "{label}: {} columns", a.name());
        for (name, col_a) in a.columns() {
            let col_b = b.column(name).unwrap();
            if let (Some(x), Some(y)) = (col_a.as_i32(), col_b.as_i32()) {
                assert_eq!(x, y, "{label}: {}.{name} diverged", a.name());
            } else {
                let (x, y) = (col_a.as_f32().unwrap(), col_b.as_f32().unwrap());
                assert_eq!(x, y, "{label}: {}.{name} diverged", a.name());
            }
        }
    }

    /// The chunked generator is seed-deterministic and chunk-count
    /// invariant: one monolithic chunk, two chunks and seven chunks all
    /// produce identical rows for every table — the per-row counter-based
    /// seeding means a chunk boundary can never shift a random draw.
    #[test]
    fn chunked_equals_monolithic_for_every_table() {
        let cfg = TpchConfig { scale_factor: 0.01, seed: 42 };
        let monolithic: Vec<Table> =
            chunked_tables(&cfg, 1).into_iter().map(|t| t.collect()).collect();
        for chunks in [2usize, 7] {
            let chunked = chunked_tables(&cfg, chunks);
            assert_eq!(chunked.len(), monolithic.len());
            for (expected, table) in monolithic.iter().zip(chunked) {
                assert!(table.chunk_count() >= 1);
                let collected = table.collect();
                assert_tables_equal(
                    &format!("{chunks} chunks vs monolithic"),
                    &collected,
                    expected,
                );
            }
        }
    }

    /// `TpchDb::generate` (which materialises through the default chunk
    /// size) agrees with the single-chunk generator row for row.
    #[test]
    fn generate_matches_single_chunk_collect() {
        let cfg = TpchConfig { scale_factor: 0.01, seed: 23 };
        let db = TpchDb::generate(cfg.clone());
        for table in chunked_tables(&cfg, 1) {
            let expected = table.collect();
            let got = db.catalog().table(table.name()).unwrap();
            assert_tables_equal("generate vs 1-chunk", got, &expected);
        }
    }

    /// The out-of-core acceptance property: scale factor 1 streams through
    /// reusable row groups whose peak footprint stays far below even a
    /// single whole column of the table, so no column is ever materialised
    /// on the host.
    #[test]
    fn sf1_streams_without_materializing_a_column() {
        let cfg = TpchConfig { scale_factor: 1.0, seed: 7 };
        let tables = chunked_tables_by_rows(&cfg, 1 << 16);
        for name in ["orders", "lineitem"] {
            let table = tables.iter().find(|t| t.name() == name).unwrap();
            assert!(table.chunk_count() > 1, "{name} must stream in many chunks");
            let whole_column_bytes = table.rows() * 4;
            let mut peak_bytes = 0usize;
            let mut max_chunk_rows = 0usize;
            let rows = table.scan(|_, rg| {
                peak_bytes = peak_bytes.max(rg.capacity_bytes());
                max_chunk_rows = max_chunk_rows.max(rg.rows());
            });
            assert_eq!(rows, table.rows(), "{name} advertises its row count");
            assert!(
                peak_bytes < whole_column_bytes,
                "{name}: peak row group ({peak_bytes} B) must stay below one whole \
                 column ({whole_column_bytes} B)"
            );
            assert!(max_chunk_rows < rows / 2, "{name} never holds half the table");
        }
        let lineitem = tables.iter().find(|t| t.name() == "lineitem").unwrap();
        assert!(lineitem.rows() > 5_500_000, "sf 1 lineitem is ~6M rows");
    }
}

#[cfg(test)]
mod partitioned_join {
    use ocelot_core::{partitioned_pkfk_join, OcelotContext, PartitionedJoinConfig, SharedDevice};
    use ocelot_engine::{
        Backend, MonetBackend, OcelotBackend, PlanBuilder, QueryValue, RewriteConfig, Session,
    };
    use ocelot_storage::{Bat, Catalog, Table};
    use ocelot_tpch::{q3_query, sparse_keys, TpchConfig, TpchDb};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Host oracle: unique-key hash join in probe-row order.
    fn reference(fk: &[i32], pk: &[i32]) -> (Vec<u32>, Vec<u32>) {
        let index: HashMap<i32, u32> = pk.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let pairs: Vec<(u32, u32)> = fk
            .iter()
            .enumerate()
            .filter_map(|(i, k)| index.get(k).map(|p| (i as u32, *p)))
            .collect();
        (pairs.iter().map(|(f, _)| *f).collect(), pairs.iter().map(|(_, p)| *p).collect())
    }

    fn check_backend<B: Backend>(backend: &B, fk: &[i32], pk: &[i32], ndv_hint: usize) {
        let fkc = backend.lift_i32(fk.to_vec()).unwrap();
        let pkc = backend.lift_i32(pk.to_vec()).unwrap();
        let (in_fk, in_pk) = backend.pkfk_join(&fkc, &pkc).unwrap();
        let (part_fk, part_pk) = backend.pkfk_join_partitioned(&fkc, &pkc, ndv_hint).unwrap();
        let (exp_fk, exp_pk) = reference(fk, pk);
        let oids = |column| backend.to_oids(column).unwrap();
        assert_eq!(oids(&in_fk), exp_fk, "{}: in-memory fk oids", backend.name());
        assert_eq!(oids(&in_pk), exp_pk, "{}: in-memory pk oids", backend.name());
        assert_eq!(oids(&part_fk), exp_fk, "{}: partitioned fk oids", backend.name());
        assert_eq!(oids(&part_pk), exp_pk, "{}: partitioned pk oids", backend.name());
    }

    /// Key-distribution strategies: uniform, skewed (most probe rows hit
    /// one key) and sparse (many probe misses).
    fn probe_keys(n: usize, build_n: usize, mode: u8, seed: u64) -> Vec<i32> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let r = next();
                match mode {
                    0 => (r % build_n.max(1) as u64) as i32,
                    1 if r % 10 != 0 => (build_n / 2) as i32,
                    1 => (r % build_n.max(1) as u64) as i32,
                    _ => (r % (build_n.max(1) as u64 * 3)) as i32,
                }
            })
            .collect()
    }

    proptest! {
        /// The satellite property: the partitioned join equals the
        /// in-memory join (and the host oracle) on all four evaluated
        /// backends, across uniform, skewed and sparse key distributions
        /// and deliberately wrong ndv hints.
        #[test]
        fn partitioned_equals_in_memory_on_all_backends(
            build_n in 1usize..300,
            probe_n in 0usize..1200,
            mode in 0u8..3,
            seed in 1u64..u64::MAX,
            ndv_hint in 1usize..100_000,
        ) {
            let pk: Vec<i32> = (0..build_n as i32).collect();
            let fk = probe_keys(probe_n, build_n, mode, seed);
            check_backend(&MonetBackend::with_threads(1), &fk, &pk, ndv_hint);
            check_backend(&MonetBackend::with_threads(4), &fk, &pk, ndv_hint);
            check_backend(&OcelotBackend::cpu(), &fk, &pk, ndv_hint);
            check_backend(&OcelotBackend::gpu(), &fk, &pk, ndv_hint);
        }
    }

    /// Forced-spill configuration on the device contexts: a pool budget far
    /// below the partition footprint must spill and restore, and still
    /// reproduce the in-memory join exactly — including under skew.
    #[test]
    fn forced_spill_matches_in_memory_on_device_contexts() {
        let build_n = 3_000usize;
        let pk: Vec<i32> = (0..build_n as i32).collect();
        for mode in [0u8, 1] {
            let fk = probe_keys(30_000, build_n, mode, 0x5EED);
            let (exp_fk, exp_pk) = reference(&fk, &pk);
            for ctx in [OcelotContext::cpu(), OcelotContext::gpu()] {
                let fkc = ctx.upload_i32(&fk, "fk").unwrap();
                let pkc = ctx.upload_i32(&pk, "pk").unwrap();
                let cfg = PartitionedJoinConfig {
                    partition_bits: 4,
                    device_budget: Some(96 * 1024),
                    max_build_rows: usize::MAX,
                    max_passes: 1,
                };
                let join = partitioned_pkfk_join(&ctx, &fkc, &pkc, &cfg).unwrap();
                assert_eq!(join.probe_oids.read(&ctx).unwrap(), exp_fk, "mode {mode}");
                assert_eq!(join.build_oids.read(&ctx).unwrap(), exp_pk, "mode {mode}");
                assert!(join.stats.spills > 0, "mode {mode}: budget must force spills");
                assert_eq!(join.stats.unspills, join.stats.spills);
            }
        }
    }

    /// A selective build over a dense key — every 13th of 120 000 keys,
    /// probed four times per key — joined partitioned on a device budget
    /// that only the planned spill schedule fits: the join spills, never
    /// reclaims, and equals the host join. 7 MiB is the smallest budget in
    /// 256 KiB steps it completes in; partition tables the probe rows paid
    /// for (512 KiB each instead of 64 KiB) do not fit it.
    #[test]
    fn a_selective_partitioned_build_stays_in_its_budget() {
        const BUDGET: usize = 7 << 20;
        let build: Vec<i32> = (0..120_000).step_by(13).collect();
        let probe: Vec<i32> = (0..120_000).flat_map(|key| [key; 4]).collect();
        let (exp_fk, exp_pk) = reference(&probe, &build);
        let mut catalog = Catalog::new();
        let column = |keys: &[i32]| Bat::from_i32("k", keys.to_vec()).into_ref();
        catalog.add_table(Table::new("orders").with_column("k", column(&build)));
        catalog.add_table(Table::new("lineitem").with_column("k", column(&probe)));
        let mut builder = PlanBuilder::new();
        let (fk, pk) = (builder.bind("lineitem", "k"), builder.bind("orders", "k"));
        let (fk_oids, pk_oids) = builder.pkfk_join_partitioned(fk, pk, build.len()).unwrap();
        builder.result(&[fk_oids, pk_oids]).unwrap();
        let plan = builder.finish();
        for device in [SharedDevice::cpu(), SharedDevice::gpu()] {
            let session = Session::ocelot(&device.with_memory_budget(BUDGET));
            let values = session.run(&plan, &catalog).unwrap();
            let at = session.backend().name();
            assert_eq!(session.backend().reclaim_count(), 0, "{at}");
            let spills = session.backend().spill_stats();
            assert!(spills.spills > 0 && spills.unspills == spills.spills, "{at}: {spills:?}");
            let want =
                vec![QueryValue::OidColumn(exp_fk.clone()), QueryValue::OidColumn(exp_pk.clone())];
            assert_eq!(values, want, "{at}");
        }
    }

    /// Planned spill replaces OOM restarts (`examples/out_of_core.rs` runs
    /// the same pair): under a 2 MiB budget the in-memory Q3 plan survives
    /// only by reclaiming, the plan lowered `with_device_budget` spills and
    /// never reclaims, and both return the same result. The generator's
    /// keys are dense and join positionally within any budget, so the pair
    /// runs on their sparse copy (`sparse_keys`), whose joins hash. The
    /// budget window is calibrated to sf 0.01, seed 31.
    #[test]
    fn planned_spill_replaces_restarts_under_a_device_budget() {
        const BUDGET: usize = 2048 * 1024;
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.01, seed: 31 });
        let catalog = &sparse_keys(db.catalog());
        let run = |config: &RewriteConfig| {
            let plan = q3_query(&db).lower_with(catalog, config).unwrap();
            let device = SharedDevice::cpu().with_memory_budget(BUDGET);
            let session = Session::ocelot(&device);
            let values = session.run(&plan, catalog).unwrap();
            (values, session.backend().reclaim_count(), session.backend().spill_stats())
        };
        let (in_memory, reclaims, _) = run(&RewriteConfig::optimized());
        assert!(reclaims > 0, "the in-memory plan must not fit the budget");
        let (spilled, reclaims, spills) =
            run(&RewriteConfig::optimized().with_device_budget(BUDGET));
        assert_eq!(reclaims, 0, "planned spilling must replace the restart protocol");
        assert!(spills.spills > 0, "the budget must force cold partitions to spill");
        assert_eq!(spills.unspills, spills.spills, "every spilled partition streams back");
        assert_eq!(spilled, in_memory, "the partitioned join must equal the in-memory one");
    }
}

#[cfg(test)]
mod observability {
    use ocelot_core::SharedDevice;
    use ocelot_engine::mal::{compile, example_plan, rewrite_for_ocelot};
    use ocelot_engine::{OcelotBackend, Plan, Session, TraceEventKind, TraceSink};
    use ocelot_kernel::FaultPlan;
    use ocelot_storage::{Bat, Catalog, Table};
    use ocelot_tpch::{q10_query, q3_query, q5_query, run_query, TpchConfig, TpchDb};
    use proptest::collection;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn catalog(keys: &[i32], values: &[f32]) -> Catalog {
        let mut catalog = Catalog::new();
        let table = Table::new("t")
            .with_column("a", Bat::from_i32("a", keys.to_vec()).into_ref())
            .with_column("b", Bat::from_f32("b", values.to_vec()).into_ref());
        catalog.add_table(table);
        catalog
    }

    proptest! {
        /// The EXPLAIN ANALYZE conservation property: for any plan and
        /// data, the per-node wall times plus the accounted overhead sum
        /// to the plan total *exactly* (epsilon = 0 by construction), the
        /// per-node flush deltas partition the queue's flush count over
        /// the run, and profiling does not perturb the results.
        #[test]
        fn explain_analyze_conserves_time_rows_and_flushes(
            raw in collection::vec(-1_000i32..1_000, 50..400),
            bounds in collection::vec((-50i32..50, 0i32..80), 1..4),
        ) {
            let keys: Vec<i32> = raw.iter().map(|v| v % 100).collect();
            let values: Vec<f32> = raw.iter().map(|v| *v as f32 * 0.125).collect();
            let catalog = catalog(&keys, &values);
            let session = Session::ocelot(&SharedDevice::cpu());
            for (low, width) in &bounds {
                let plan = compile(&rewrite_for_ocelot(&example_plan(
                    "t", "a", "b", *low, *low + *width,
                )))
                .unwrap();
                let queue = session.backend().context().queue();
                let flushes_before = queue.flush_count();
                let (values, profile) = session.explain_analyze(&plan, &catalog).unwrap();
                let flush_delta = queue.flush_count() - flushes_before;

                // Time conservation: an exact partition, not an estimate.
                prop_assert_eq!(
                    profile.total_host_ns,
                    profile.nodes_host_ns() + profile.overhead_ns
                );
                // Every plan node has a profile record, in program order.
                prop_assert_eq!(profile.nodes.len(), plan.len());
                for (pc, node) in profile.nodes.iter().enumerate() {
                    prop_assert_eq!(node.index, pc);
                }
                // Per-node flush deltas partition the run's flush count.
                let node_flushes: u64 = profile.nodes.iter().map(|n| n.marker.flushes).sum();
                prop_assert_eq!(node_flushes, flush_delta);
                // Aggregated marker equals the per-node sum (monotone
                // counters partition across steps).
                prop_assert_eq!(profile.total_marker().flushes, node_flushes);
                // Rows roll up, and profiling leaves the answer untouched.
                let node_rows: u64 = profile.nodes.iter().map(|n| n.rows).sum();
                prop_assert_eq!(node_rows, profile.total_rows());
                let plain = session.run(&plan, &catalog).unwrap();
                prop_assert_eq!(values, plain);
            }
        }
    }

    /// The flush-trace mirror: `Queue::flush_count` and the number of
    /// recorded `Flush` trace events move in lockstep on the Q6
    /// one-flush-per-plan path, on both Ocelot devices — and the host
    /// configurations, which have no queue, record no flush events at all
    /// even with a tracer attached.
    #[test]
    fn traced_flush_events_mirror_flush_count_on_q6() {
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 11 });
        let flushes =
            |sink: &TraceSink| sink.count(|e| matches!(e.kind, TraceEventKind::Flush { .. }));

        let ms = Session::monet_seq();
        let sink = Arc::new(TraceSink::new());
        ms.attach_tracer(&sink);
        run_query(&ms, &db, 6).unwrap();
        ms.detach_tracer();
        assert_eq!(flushes(&sink), 0, "MS has no command queue to flush");

        let mp = Session::monet_par();
        let sink = Arc::new(TraceSink::new());
        mp.attach_tracer(&sink);
        run_query(&mp, &db, 6).unwrap();
        mp.detach_tracer();
        assert_eq!(flushes(&sink), 0, "MP has no command queue to flush");

        for shared in [SharedDevice::cpu(), SharedDevice::gpu()] {
            let session = Session::ocelot(&shared);
            let sink = Arc::new(TraceSink::new());
            let before = session.backend().context().queue().flush_count();
            session.attach_tracer(&sink);
            run_query(&session, &db, 6).unwrap();
            session.detach_tracer();
            let delta = session.backend().context().queue().flush_count() - before;
            assert_eq!(
                flushes(&sink) as u64,
                delta,
                "{}: traced flush events mirror the effective flush count",
                session.name()
            );
            assert_eq!(delta, 1, "{}: Q6 keeps its one-flush-per-plan bound", session.name());
        }
    }

    /// Disarmed layers leave the stream unchanged: a zero-rate fault plan,
    /// an attached sink that does not record and a race detector armed
    /// once and disarmed again change no result bit and no launch, flush or
    /// transfer of the Q3/Q5/Q10 stream, and record nothing. On the
    /// sequential device, whose launch sequence is deterministic.
    #[test]
    fn disarmed_layers_leave_the_stream_unchanged() {
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.01, seed: 5 });
        let plans: Vec<Plan> = [q3_query(&db), q5_query(&db), q10_query(&db)]
            .iter()
            .map(|query| query.lower(db.catalog()).unwrap())
            .collect();
        let bare = Session::ocelot(&SharedDevice::cpu_sequential());
        let device = SharedDevice::cpu_sequential();
        device.device().install_fault_plan(FaultPlan::seeded(5, 0.0, 0.0));
        let layered = Session::ocelot(&device);
        let sink = Arc::new(TraceSink::new());
        sink.set_recording(false);
        layered.attach_tracer(&sink);
        let race = layered.backend().context().queue().race();
        race.arm();
        race.disarm();
        let race_before = race.stats();

        for plan in &plans {
            let expected = bare.run(plan, db.catalog()).unwrap();
            let got = layered.run(plan, db.catalog()).unwrap();
            // `{:?}` prints every f32 exactly, so equal text is equal bits.
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "bit-equal results");
        }
        let counters = |session: &Session<OcelotBackend>| {
            let queue = session.backend().context().queue();
            let stats = queue.total_stats();
            (stats.kernels, queue.flush_count(), stats.transfers)
        };
        assert_eq!(counters(&layered), counters(&bare), "(launches, flushes, transfers)");
        let faults = device.device().fault_stats().unwrap();
        assert!(
            faults.total() == 0 && faults.ops_observed > 0,
            "consulted, never fired: {faults:?}"
        );
        assert!(sink.is_empty(), "a sink that does not record holds no event");
        assert_eq!(race.stats(), race_before, "a disarmed detector observes nothing");
    }
}

#[cfg(test)]
mod analysis {
    //! PR 10 — the static-analysis suite: ill-formed plans are rejected
    //! with the expected typed diagnostics, seeded device-phase races are
    //! caught (typed, never a panic), the full ported workload passes the
    //! verifier on all four backends, and the verifier's static flush
    //! bound proves Q6's one-flush property without executing it.

    use ocelot_analyze::{verify, FlushBound, PlanDiagnostic, RaceDiagnostic};
    use ocelot_core::{OcelotContext, SharedDevice};
    use ocelot_engine::mal::{compile, example_plan, rewrite_for_ocelot};
    use ocelot_engine::plan::{Plan, PlanBuilder, PlanError, PlanNode, PlanOp, ValueKind};
    use ocelot_engine::{Map, RewriteConfig, Session};
    use ocelot_kernel::{Buffer, BufferAccess, Kernel, KernelAccesses, LaunchConfig, WorkGroupCtx};
    use ocelot_tpch::{
        q10_query, q12_queries, q14_query, q1_query, q3_query, q4_query, q5_query, q6_query,
        run_query, sparse_keys, TpchConfig, TpchDb, PORTED_QUERY_IDS,
    };
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn bind(column: &str, out: usize) -> PlanNode {
        PlanNode {
            op: PlanOp::Bind { table: "t".into(), column: column.into() },
            inputs: vec![],
            outputs: vec![out],
        }
    }

    /// Each class of ill-formed plan is rejected with its own typed
    /// diagnostic — the verifier distinguishes a register read too early
    /// from one never defined, a redefinition, a kind clash and an arity
    /// violation.
    #[test]
    fn ill_formed_plans_each_produce_their_typed_diagnostic() {
        // Use before def (defined later) vs dangling (never defined).
        let report = verify(&Plan::from_nodes_unchecked(vec![
            PlanNode {
                op: PlanOp::Map { map: Map::CastI32F32(Map::leaf(0)) },
                inputs: vec![1],
                outputs: vec![0],
            },
            bind("a", 1),
            PlanNode {
                op: PlanOp::Map { map: Map::Year(Map::leaf(0)) },
                inputs: vec![9],
                outputs: vec![2],
            },
        ]));
        assert!(!report.is_ok());
        assert!(report.diagnostics.iter().any(|d| matches!(
            d,
            PlanDiagnostic::UseBeforeDef { node: 0, var: 1, defined_at: 1, .. }
        )));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, PlanDiagnostic::UndefinedInput { node: 2, var: 9, .. })));

        // Single assignment.
        let report = verify(&Plan::from_nodes_unchecked(vec![bind("a", 0), bind("b", 0)]));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, PlanDiagnostic::DoubleDefine { node: 1, var: 0, first: 0, .. })));

        // Kind clash: a grouping fed to an element-wise multiply.
        let report = verify(&Plan::from_nodes_unchecked(vec![
            bind("a", 0),
            PlanNode { op: PlanOp::GroupBy, inputs: vec![0], outputs: vec![1] },
            PlanNode {
                op: PlanOp::Map { map: Map::Mul(Map::leaf(0), Map::leaf(1)) },
                inputs: vec![0, 1],
                outputs: vec![2],
            },
        ]));
        assert!(report.diagnostics.iter().any(|d| matches!(
            d,
            PlanDiagnostic::InputKind { found: ValueKind::Group, expected: ValueKind::Column, .. }
        )));

        // Arity violation: a join with one operand.
        let report = verify(&Plan::from_nodes_unchecked(vec![
            bind("a", 0),
            PlanNode { op: PlanOp::PkFkJoin, inputs: vec![0], outputs: vec![1, 2] },
        ]));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, PlanDiagnostic::InputArity { node: 1, found: 1, .. })));
    }

    /// Selections and maps are programs (`Pred`, `Map`) over their operands:
    /// they render as the typed operators they replaced, and a program that
    /// does not match its operands is a typed error wherever it arrives.
    mod programs {
        use ocelot_analyze::{verify, PlanDiagnostic};
        use ocelot_engine::plan::{execute_plan, PlanBuilder, PlanError, PlanNode, PlanOp};
        use ocelot_engine::{Backend, Map, MonetBackend, OcelotBackend, Plan, Pred, Session};
        use ocelot_storage::{Bat, Catalog, CmpOp, Table};

        fn select(pred: Pred) -> PlanOp {
            PlanOp::Select { pred }
        }

        fn map(map: Map) -> PlanOp {
            PlanOp::Map { map }
        }

        fn malformed(op: &str, operands: usize) -> PlanError {
            PlanError::MalformedProgram { op: op.into(), operands }
        }

        /// `PlanOp::name()` and `Display` of every conjunct kind and every
        /// one-operator map are byte for byte what the typed variants gave:
        /// the bench's operator classes and the pipeline summary read them.
        #[test]
        fn render_as_the_operators_they_replaced() {
            let (x, y) = (Map::leaf(0), Map::leaf(1));
            let cmp = |op| select(Pred::CmpI32 { op, left: 0, right: 1 });
            let cases = [
                (select(Pred::RangeI32 { col: 0, low: 1, high: 2 }), "select_range_i32 [1, 2]"),
                (
                    select(Pred::RangeI32 { col: 0, low: i32::MIN, high: -3 }),
                    "select_range_i32 [-2147483648, -3]",
                ),
                (
                    select(Pred::RangeF32 { col: 0, low: 0.5, high: 1.0 }),
                    "select_range_f32 [0.5, 1.0]",
                ),
                (select(Pred::EqI32 { col: 0, needle: -7 }), "select_eq_i32 -7"),
                (select(Pred::NeI32 { col: 0, needle: 7 }), "select_ne_i32 7"),
                (select(Pred::InI32 { col: 0, values: [3, 5].into() }), "select_in_i32 [3, 5]"),
                (cmp(CmpOp::Lt), "select_cmp_i32 <"),
                (cmp(CmpOp::Le), "select_cmp_i32 <="),
                (cmp(CmpOp::Gt), "select_cmp_i32 >"),
                (cmp(CmpOp::Ge), "select_cmp_i32 >="),
                (cmp(CmpOp::Eq), "select_cmp_i32 ="),
                (cmp(CmpOp::Ne), "select_cmp_i32 <>"),
                (map(Map::Mul(x.clone(), y.clone())), "mul_f32"),
                (map(Map::Add(x.clone(), y.clone())), "add_f32"),
                (map(Map::Sub(x.clone(), y)), "sub_f32"),
                (map(Map::ConstMinus(1.0, x.clone())), "const_minus_f32 1.0"),
                (map(Map::ConstPlus(-0.25, x.clone())), "const_plus_f32 -0.25"),
                (map(Map::MulConst(x.clone(), 0.5)), "mul_const_f32 0.5"),
                (map(Map::CastI32F32(x.clone())), "cast_i32_f32"),
                (map(Map::Year(x)), "extract_year"),
            ];
            for (op, shown) in cases {
                assert_eq!(op.to_string(), shown);
                assert_eq!(op.name(), shown.split(' ').next().unwrap(), "{shown}");
            }
            // The pipeline summary counts its members by those names.
            let member = |op, inputs: Vec<usize>, out| PlanNode { op, inputs, outputs: vec![out] };
            let pipeline = PlanOp::Pipeline {
                members: vec![
                    member(select(Pred::RangeI32 { col: 0, low: 1, high: 2 }), vec![0], 2),
                    member(PlanOp::Fetch, vec![1, 2], 3),
                    member(map(Map::MulConst(Map::leaf(0), 2.0)), vec![3], 4),
                    member(PlanOp::SumF32, vec![4], 5),
                ],
            };
            assert_eq!(pipeline.to_string(), "pipeline [1 select, 1 fetch, 1 map] => sum_f32");
        }

        /// `PlanBuilder::{select, map}` refuse a program that does not read
        /// its operands as slots `0, 1, …` in order — a map with one
        /// operator over column leaves — and append nothing.
        #[test]
        fn the_builder_refuses_a_program_that_does_not_match_its_operands() {
            let mut p = PlanBuilder::new();
            let (a, b) = (p.bind("t", "a"), p.bind("t", "b"));
            let cmp = |left, right| Pred::CmpI32 { op: CmpOp::Lt, left, right };
            // Short of its right column; its columns swapped; a slot past
            // the one column given (the candidates are not a column).
            assert_eq!(p.select(cmp(0, 1), &[a], None), Err(malformed("select_cmp_i32 <", 1)));
            assert_eq!(p.select(cmp(1, 0), &[a, b], None), Err(malformed("select_cmp_i32 <", 2)));
            let eq = Pred::EqI32 { col: 1, needle: 3 };
            assert_eq!(p.select(eq, &[a], Some(b)), Err(malformed("select_eq_i32 3", 1)));
            // A leaf it was not given, a computed operand, no operator at
            // all, and one operand short.
            let (x, y) = (Map::leaf(0), Map::leaf(1));
            let past = Map::Mul(x.clone(), Map::leaf(2));
            assert_eq!(p.map(past, &[a, b]), Err(malformed("mul_f32", 2)));
            let nested = Map::Mul(Box::new(Map::ConstMinus(1.0, x.clone())), y.clone());
            assert_eq!(p.map(nested, &[a, b]), Err(malformed("mul_f32", 2)));
            assert_eq!(p.map(Map::Col(0), &[a]), Err(malformed("map", 1)));
            let error = p.map(Map::Add(x.clone(), y.clone()), &[a]).unwrap_err();
            assert_eq!(error, malformed("add_f32", 1));
            assert!(error.to_string().contains("`add_f32` over 1 operand(s)"), "{error}");
            // The refusals appended nothing; well-formed programs still build.
            let product = p.map(Map::Mul(x, y), &[a, b]).unwrap();
            let kept = p.select(cmp(0, 1), &[a, b], None).unwrap();
            p.result(&[product, kept]).unwrap();
            let plan = p.finish();
            assert_eq!(plan.len(), 5);
            assert!(verify(&plan).is_ok());
        }

        /// A raw node short of the columns its program reads gets the
        /// verifier's arity diagnostic, the count derived from the program:
        /// one past its highest slot.
        #[test]
        fn a_raw_node_short_of_its_program_gets_the_arity_diagnostic() {
            let mut builder = PlanBuilder::new();
            let a = builder.bind("t", "a");
            let cmp = Pred::CmpI32 { op: CmpOp::Lt, left: 0, right: 1 };
            builder.push_node(select(cmp), vec![a], vec![a + 1]).unwrap();
            let product = map(Map::Mul(Map::leaf(0), Map::leaf(1)));
            builder.push_node(product, vec![a], vec![a + 2]).unwrap();
            let past = map(Map::Add(Map::leaf(0), Map::leaf(2)));
            builder.push_node(past, vec![a, a], vec![a + 3]).unwrap();
            let report = verify(&builder.finish());
            let arity = |node, op, found, expected| PlanDiagnostic::InputArity {
                node,
                op,
                found,
                expected,
            };
            assert!(
                report.diagnostics.contains(&arity(1, "select_cmp_i32", 1, "2 or 3")),
                "{report}"
            );
            assert!(report.diagnostics.contains(&arity(2, "mul_f32", 1, "2")), "{report}");
            let three = "one per column its program reads";
            assert!(report.diagnostics.contains(&arity(3, "add_f32", 2, three)), "{report}");
        }

        /// A raw-node plan whose selection is short of its right column
        /// comes back from a session — and from the executor alone — as
        /// the typed error, on every backend, instead of unwinding.
        #[test]
        fn a_malformed_program_is_the_error_of_its_run() {
            let mut catalog = Catalog::new();
            catalog.add_table(
                Table::new("t")
                    .with_column("a", Bat::from_i32("a", (0..100).collect()).into_ref())
                    .with_column("b", Bat::from_i32("b", (0..100).rev().collect()).into_ref()),
            );
            let mut builder = PlanBuilder::new();
            let a = builder.bind("t", "a");
            let cmp = Pred::CmpI32 { op: CmpOp::Lt, left: 0, right: 1 };
            builder.push_node(select(cmp), vec![a], vec![a + 1]).unwrap();
            builder.result(&[a + 1]).unwrap();
            let plan = builder.finish();
            let want = Err(malformed("select_cmp_i32 <", 1));
            fn runs<B: Backend>(
                backend: B,
                plan: &Plan,
                catalog: &Catalog,
            ) -> [Result<(), PlanError>; 2] {
                let direct = execute_plan(plan, &backend, catalog).map(drop);
                [Session::new(backend).run(plan, catalog).map(drop), direct]
            }
            for outcome in runs(MonetBackend::with_threads(1), &plan, &catalog)
                .into_iter()
                .chain(runs(MonetBackend::with_threads(3), &plan, &catalog))
                .chain(runs(OcelotBackend::cpu(), &plan, &catalog))
                .chain(runs(OcelotBackend::gpu(), &plan, &catalog))
            {
                assert_eq!(outcome, want);
            }
        }
    }

    /// The builder's raw-node path enforces the definition discipline the
    /// SSA methods guarantee by construction: appending a node that
    /// redefines a live register fails with the typed
    /// [`PlanError::DuplicateDefinition`].
    #[test]
    fn raw_append_rejects_duplicate_definitions() {
        let mut builder = PlanBuilder::new();
        let a = builder.bind("t", "a");
        builder
            .push_node(PlanOp::Map { map: Map::CastI32F32(Map::leaf(0)) }, vec![a], vec![a + 1])
            .expect("fresh output register");
        let error = builder
            .push_node(PlanOp::Map { map: Map::Year(Map::leaf(0)) }, vec![a], vec![a])
            .expect_err("redefinition must be rejected");
        assert_eq!(error, PlanError::DuplicateDefinition { var: a });
        let error = builder
            .push_node(PlanOp::Map { map: Map::CastI32F32(Map::leaf(0)) }, vec![99], vec![a + 2])
            .expect_err("undefined input must be rejected");
        assert_eq!(error, PlanError::UndefinedVar { var: 99 });
        // The surviving nodes form a verifiable plan.
        let mut builder2 = PlanBuilder::new();
        let a = builder2.bind("t", "a");
        builder2
            .push_node(PlanOp::Map { map: Map::CastI32F32(Map::leaf(0)) }, vec![a], vec![a + 1])
            .unwrap();
        builder2.result(&[a + 1]).unwrap();
        assert!(verify(&builder2.finish()).is_ok());
    }

    /// Every ported TPC-H query's plan passes the verifier, checked through
    /// all four evaluated backend configurations — lowered optimized and
    /// `naive()`, on the generator's dense keys (positional joins) and on
    /// `sparse_keys` (hash joins); running the workload then
    /// re-checks every plan at admission (debug builds) — the fused plans
    /// included, which lowering already verified once after fusing them.
    #[test]
    fn ported_workload_passes_the_verifier_on_all_four_backends() {
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 7 });
        let sparse = sparse_keys(db.catalog());
        let (q12_all, q12_high) = q12_queries(&db);
        let queries = [
            ("q1", q1_query(&db)),
            ("q3", q3_query(&db)),
            ("q4", q4_query(&db)),
            ("q5", q5_query(&db)),
            ("q6", q6_query(&db)),
            ("q10", q10_query(&db)),
            ("q12_all", q12_all),
            ("q12_high", q12_high),
            ("q14", q14_query(&db)),
        ];
        let mut plans: Vec<(String, Plan)> = Vec::new();
        for (name, query) in &queries {
            for (keys, catalog) in [("dense", db.catalog()), ("sparse", &sparse)] {
                for (rules, config) in
                    [("optimized", RewriteConfig::optimized()), ("naive", RewriteConfig::naive())]
                {
                    let plan = query.lower_with(catalog, &config).unwrap();
                    plans.push((format!("{name} {rules} on {keys} keys"), plan));
                }
            }
        }

        // The plans cover the operator kinds the TPC-H workload runs on, a
        // fused region's members included (no lowering of a ported query
        // emits `union_oids`, `cast_i32_f32` or `sub_f32`).
        fn kinds<'a>(nodes: &'a [PlanNode], into: &mut BTreeSet<&'a str>) {
            for node in nodes {
                into.insert(node.op.name());
                if let PlanOp::Pipeline { members } = &node.op {
                    kinds(members, into);
                }
            }
        }
        let mut seen = BTreeSet::new();
        plans.iter().for_each(|(_, plan)| kinds(plan.nodes(), &mut seen));
        for kind in [
            "bind",
            "select_range_i32",
            "select_range_f32",
            "select_eq_i32",
            "fetch",
            "const_minus_f32",
            "const_plus_f32",
            "mul_f32",
            "pkfk_join",
            "semi_join",
            "group_by",
            "group_reps",
            "grouped_aggs",
            "sort_order_i32",
            "sort_order_f32",
            "sum_f32",
            "result",
        ] {
            assert!(seen.contains(kind), "no verified TPC-H plan contains {kind}: {seen:?}");
        }

        let shared = SharedDevice::cpu();
        let gpu = SharedDevice::gpu();
        let ms = Session::monet_seq();
        let mp = Session::monet_par();
        let ocelot_cpu = Session::ocelot(&shared);
        let ocelot_gpu = Session::ocelot(&gpu);

        for (name, plan) in &plans {
            for report in [
                ms.verify_plan(plan),
                mp.verify_plan(plan),
                ocelot_cpu.verify_plan(plan),
                ocelot_gpu.verify_plan(plan),
            ] {
                assert!(report.is_ok(), "{name} failed verification:\n{report}");
            }
        }

        // Execute the whole ported workload on every backend: in debug
        // builds `Session::run` re-verifies each plan at admission. The
        // Ocelot devices run it — fused regions and all — under the armed
        // race detector: every kernel declares its accesses, every declared
        // kernel's tier-2 ranges are checked against the kernels it is
        // unordered with, no kernel declares a write into a base column
        // (on the CPU device the BAT's own tail, mapped read-only), and
        // nothing is found.
        let queues = [&ocelot_cpu, &ocelot_gpu].map(|s| s.backend().context().queue());
        queues.iter().for_each(|queue| queue.race().arm());
        for query in PORTED_QUERY_IDS {
            run_query(&ms, &db, query).unwrap();
            run_query(&mp, &db, query).unwrap();
            run_query(&ocelot_cpu, &db, query).unwrap();
            run_query(&ocelot_gpu, &db, query).unwrap();
        }
        for queue in queues {
            let (stats, diagnostics) = (queue.race().stats(), queue.race().take_diagnostics());
            queue.race().disarm();
            assert!(diagnostics.is_empty(), "{diagnostics:?}");
            assert!(stats.pairs_checked > 0, "{stats:?}");
            assert_eq!(stats.kernels_declared, stats.kernels_observed, "{stats:?}");
        }
    }

    /// The flush-boundary pass proves Q6's one-flush property statically
    /// — and execution on the unified-memory device confirms the bound is
    /// an upper bound.
    #[test]
    fn q6_one_flush_property_is_proven_statically_and_holds_at_runtime() {
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 13 });
        let lowered = q6_query(&db).lower(db.catalog()).unwrap();
        let report = verify(&lowered);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.flush_bound, FlushBound::AtMost(1), "DSL-lowered Q6");

        // A plan with a join cannot claim a constant bound.
        let q3 = q3_query(&db).lower(db.catalog()).unwrap();
        assert!(
            matches!(verify(&q3).flush_bound, FlushBound::DataDependent { .. }),
            "Q3 joins are host-resolving"
        );

        // Runtime cross-check on the unified-memory device: the static
        // bound is conservative (actual <= bound).
        let session = Session::ocelot(&SharedDevice::cpu());
        let queue = session.backend().context().queue();
        let before = queue.flush_count();
        session.run(&lowered, db.catalog()).unwrap();
        let delta = queue.flush_count() - before;
        assert!(delta <= 1, "static bound 1 must dominate actual {delta}");
    }

    /// A kernel that executes nothing but declares a tier-2 write over a
    /// buffer range — the minimal seed for a device-phase race.
    struct DeclaredWriter {
        buffer: Buffer,
        from: usize,
        to: usize,
    }

    impl Kernel for DeclaredWriter {
        fn name(&self) -> &str {
            "test_declared_writer"
        }
        fn run_group(&self, _group: &mut WorkGroupCtx) {}
        fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<KernelAccesses> {
            Some(KernelAccesses::of(vec![BufferAccess::slice_write(
                &self.buffer,
                self.from..self.to,
            )]))
        }
    }

    /// Seeded violation: two event-unordered kernels declaring
    /// overlapping tier-2 writes to one buffer are reported as a typed
    /// [`RaceDiagnostic::WriteWriteOverlap`] at flush — the flush itself
    /// succeeds (diagnostics, never panics).
    #[test]
    fn seeded_overlapping_writes_are_caught_as_typed_diagnostics() {
        let ctx = OcelotContext::cpu();
        let buffer = ctx.alloc(64, "raced").unwrap();
        ctx.queue().race().arm();
        let writer =
            |from: usize, to: usize| Arc::new(DeclaredWriter { buffer: buffer.clone(), from, to });
        ctx.queue().enqueue_kernel(writer(0, 32), ctx.launch(32), &[]).unwrap();
        ctx.queue().enqueue_kernel(writer(16, 48), ctx.launch(32), &[]).unwrap();
        ctx.queue().flush().unwrap();
        let diagnostics = ctx.queue().race().take_diagnostics();
        ctx.queue().race().disarm();
        assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
        assert!(matches!(diagnostics[0], RaceDiagnostic::WriteWriteOverlap { .. }));
        // Rendered form carries the buffer label and both ranges.
        let rendered = diagnostics[0].to_string();
        assert!(rendered.contains("raced"), "{rendered}");
    }

    /// The real operator pipelines are race-free under their own access
    /// declarations: running TPC-H Q6, Q1 and Q12 with the detector armed
    /// yields zero diagnostics while actually checking declared kernels
    /// (positive control via stats). Q6 and Q1 run as one fused pass each
    /// and build no bitmap; Q12's conjunctive chain builds one, so the
    /// bitmap padding check has something to check.
    #[test]
    fn armed_detector_stays_silent_on_real_pipelines() {
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 23 });
        let session = Session::ocelot(&SharedDevice::cpu());
        let queue = session.backend().context().queue();
        queue.race().arm();
        run_query(&session, &db, 6).unwrap();
        run_query(&session, &db, 1).unwrap();
        run_query(&session, &db, 12).unwrap();
        let stats = queue.race().stats();
        let diagnostics = queue.race().take_diagnostics();
        queue.race().disarm();
        assert!(diagnostics.is_empty(), "{diagnostics:?}");
        assert!(stats.kernels_declared > 0, "declared kernels were actually checked: {stats:?}");
        assert!(stats.bitmap_checks > 0, "bitmap padding was actually checked: {stats:?}");
    }

    proptest! {
        /// Every plan of the PR 9 observability suite's family — the
        /// rewritten MAL example pipeline over arbitrary selection bounds
        /// — passes the verifier and keeps the static one-flush bound.
        #[test]
        fn observability_suite_plans_pass_the_verifier(
            low in -50i32..50,
            width in 0i32..80,
        ) {
            let plan = compile(&rewrite_for_ocelot(&example_plan(
                "t", "a", "b", low, low + width,
            )))
            .unwrap();
            let report = verify(&plan);
            prop_assert!(report.is_ok(), "{}", report);
            prop_assert_eq!(report.flush_bound, FlushBound::AtMost(1));
        }
    }
}

#[cfg(test)]
mod grouping {
    //! PR 13 — the linear-time grouping pipeline against host references:
    //! composite-key group-by and the hash build under any sizing hint
    //! equal a `HashMap` id for id, the private-partial aggregates equal an
    //! `f64` reference, the armed race detector stays silent over every new
    //! kernel's declared access set, and every ported query is
    //! bit-identical run to run on every backend (the run-to-run
    //! determinism gate).

    use ocelot_core::ops::aggregate::GroupedAgg::{Avg, Count, Max, Min, Sum};
    use ocelot_core::ops::hash_table::OcelotHashTable;
    use ocelot_core::ops::{aggregate, groupby, join};
    use ocelot_core::{OcelotContext, SharedDevice};
    use ocelot_engine::{Backend, OcelotBackend, Session};
    use ocelot_kernel::Device;
    use ocelot_tpch::{run_query, QueryResult, TpchConfig, TpchDb, PORTED_QUERY_IDS};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn contexts() -> Vec<OcelotContext> {
        vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
    }

    /// A cheap deterministic stream of row-dependent pseudo-random words.
    fn scramble(row: usize, seed: u64) -> u64 {
        let mut x = (row as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 32)
    }

    /// `keys` columns of `n` rows whose composite key takes (at most) `ndv`
    /// distinct values: the composite id is split into mixed-radix digits,
    /// one per column, and every digit is mapped through an odd multiplier
    /// minus one — so digit 0 is the key `-1` (`0xFFFF_FFFF`) and the
    /// others cover the whole 32-bit range, negatives included.
    fn key_columns(n: usize, keys: usize, ndv: usize, seed: u64) -> Vec<Vec<i32>> {
        let radix = (ndv as f64).powf(1.0 / keys as f64).ceil().max(1.0) as usize;
        (0..keys)
            .map(|c| {
                (0..n)
                    .map(|row| {
                        let id = scramble(row, seed) as usize % ndv;
                        let digit = (id / radix.pow(c as u32)) % radix;
                        (digit as u32).wrapping_mul(0x9E37_79B1).wrapping_sub(1) as i32
                    })
                    .collect()
            })
            .collect()
    }

    /// First-appearance dense ids and representatives — the contract.
    fn reference_grouping(columns: &[Vec<i32>]) -> (Vec<u32>, Vec<u32>) {
        let mut ids: HashMap<Vec<i32>, u32> = HashMap::new();
        let mut representatives = Vec::new();
        let gids = (0..columns[0].len())
            .map(|row| {
                let key: Vec<i32> = columns.iter().map(|c| c[row]).collect();
                let next = ids.len() as u32;
                *ids.entry(key).or_insert_with(|| {
                    representatives.push(row as u32);
                    next
                })
            })
            .collect();
        (gids, representatives)
    }

    proptest! {
        /// 1–4 key columns, distinct counts from one group to all-distinct,
        /// on all three devices: group ids and representatives equal the
        /// host reference exactly; and the single-column build reaches the
        /// same answer whatever probe count between 1 and 10× the distinct
        /// count it is told of (a large one can make the probe rows pay for
        /// a table covering the key range — that does not change the
        /// result).
        #[test]
        fn group_by_columns_equals_a_host_hashmap(
            n in 1usize..2_500,
            keys in 1usize..5,
            ndv_pick in 0usize..4,
            probe_tenths in 0usize..100,
            seed in 0u64..1 << 20,
        ) {
            let ndv = [1, 6, n / 2, n][ndv_pick].max(1);
            let columns = key_columns(n, keys, ndv, seed);
            let (expected_gids, expected_reps) = reference_grouping(&columns);
            let (single_gids, single_reps) = reference_grouping(&columns[..1]);
            let probe_rows = (single_reps.len() * probe_tenths / 10).max(1);
            for ctx in contexts() {
                let device = ctx.device().info().kind;
                let uploaded: Vec<_> =
                    columns.iter().map(|c| ctx.upload_i32(c, "key").unwrap()).collect();
                let refs: Vec<_> = uploaded.iter().collect();
                let result = groupby::group_by_columns(&ctx, &refs).unwrap();
                prop_assert_eq!(result.num_groups, expected_reps.len(), "{:?}", device);
                prop_assert_eq!(&result.gids.read(&ctx).unwrap(), &expected_gids, "{:?}", device);
                prop_assert_eq!(
                    &result.representatives.read(&ctx).unwrap(), &expected_reps, "{:?}", device
                );

                let table = OcelotHashTable::build_ranked(&ctx, &uploaded[0], probe_rows).unwrap();
                prop_assert_eq!(table.num_distinct(), single_reps.len(), "{} probe rows", probe_rows);
                prop_assert_eq!(&table.row_gids().read(&ctx).unwrap(), &single_gids);
                prop_assert_eq!(&table.probe_gids(&ctx, &uploaded[0]).unwrap().read(&ctx).unwrap(), &single_gids);
                prop_assert_eq!(&table.representatives().read(&ctx).unwrap(), &single_reps);
            }
        }

        /// Grouped sum/min/max/count/avg against an `f64` host reference on
        /// all three devices, from one group to one group per row (empty
        /// groups included: the scrambled ids need not hit every group).
        #[test]
        fn grouped_aggregates_equal_a_host_reference(
            n in 1usize..6_000,
            groups_pick in 0usize..4,
            seed in 0u64..1 << 20,
        ) {
            let groups = [1, 6, n / 2, n][groups_pick].max(1);
            let gids: Vec<u32> = (0..n).map(|row| (scramble(row, seed) % groups as u64) as u32).collect();
            let values: Vec<f32> =
                (0..n).map(|row| (scramble(row, !seed) % 20_001) as f32 * 0.25 - 2_500.0).collect();
            let mut sums = vec![0.0f64; groups];
            let mut mins = vec![f32::INFINITY; groups];
            let mut maxs = vec![f32::NEG_INFINITY; groups];
            let mut counts = vec![0u32; groups];
            for (gid, value) in gids.iter().zip(&values) {
                let gid = *gid as usize;
                sums[gid] += *value as f64;
                mins[gid] = mins[gid].min(*value);
                maxs[gid] = maxs[gid].max(*value);
                counts[gid] += 1;
            }
            let close = |got: f32, want: f64| (got as f64 - want).abs() <= 1e-4 * want.abs().max(1.0);
            for ctx in contexts() {
                let device = ctx.device().info().kind;
                let v = ctx.upload_f32(&values, "v").unwrap();
                let g = ctx.upload_u32(&gids, "g").unwrap();
                let read = |column: ocelot_core::DevColumn<f32>| column.read(&ctx).unwrap();
                let funcs = [Sum(0), Avg(0), Min(0), Max(0), Count];
                let got = aggregate::grouped_aggs(&ctx, &[&v], &g, groups, &funcs).unwrap();
                let got: Vec<Vec<f32>> = got.into_iter().map(read).collect();
                let [got_sums, got_avgs, got_mins, got_maxs, got_counts] = &got[..] else {
                    unreachable!("five aggregates, five columns")
                };
                for gid in 0..groups {
                    prop_assert!(close(got_sums[gid], sums[gid]), "{:?} sum[{}]", device, gid);
                    let avg = if counts[gid] == 0 { 0.0 } else { sums[gid] / counts[gid] as f64 };
                    prop_assert!(close(got_avgs[gid], avg), "{:?} avg[{}]", device, gid);
                }
                prop_assert_eq!(got_mins, &mins);
                prop_assert_eq!(got_maxs, &maxs);
                prop_assert!(got_counts.iter().zip(&counts).all(|(a, b)| *a == *b as f32));
            }
        }
    }

    /// The armed detector over everything this pipeline launches — a
    /// three-key group-by that restarts once, all five aggregates, and the
    /// semi/anti join in both build orientations: every kernel declares its
    /// access set, and no event-unordered pair conflicts.
    #[test]
    fn armed_race_detector_is_silent_over_grouping_and_aggregation() {
        let n = 20_000;
        let columns = key_columns(n, 3, 5_000, 77);
        let values: Vec<f32> = (0..n).map(|row| (scramble(row, 5) % 1_000) as f32).collect();
        let small: Vec<i32> = (0..300).map(|i| i * 3).collect();
        let large: Vec<i32> = (0..9_000).map(|i| i % 1_200).collect();
        for ctx in contexts() {
            let queue = ctx.queue();
            queue.race().arm();
            let uploaded: Vec<_> =
                columns.iter().map(|c| ctx.upload_i32(c, "key").unwrap()).collect();
            let result =
                groupby::group_by_columns(&ctx, &uploaded.iter().collect::<Vec<_>>()).unwrap();
            assert_eq!(result.num_groups, reference_grouping(&columns).1.len());
            let v = ctx.upload_f32(&values, "v").unwrap();
            let (gids, groups) = (&result.gids, result.num_groups);
            for func in [Sum(0), Min(0), Max(0), Avg(0)] {
                aggregate::grouped_aggs(&ctx, &[&v], gids, groups, &[func]).unwrap();
            }
            aggregate::grouped_aggs(&ctx, &[], gids, groups, &[Count]).unwrap();
            let (s, l) =
                (ctx.upload_i32(&small, "s").unwrap(), ctx.upload_i32(&large, "l").unwrap());
            join::semi_join(&ctx, &s, &l).unwrap();
            join::anti_join(&ctx, &l, &s).unwrap();
            ctx.sync().unwrap();
            let stats = queue.race().stats();
            let diagnostics = queue.race().take_diagnostics();
            queue.race().disarm();
            assert!(diagnostics.is_empty(), "{diagnostics:?}");
            assert_eq!(stats.kernels_declared, stats.kernels_observed, "{stats:?}");
            assert!(stats.pairs_checked > 0, "unordered pairs were actually compared: {stats:?}");
        }
    }

    /// The run-to-run determinism gate: every ported query, 20 runs per backend,
    /// bit-identical — the float aggregates included. (Fresh results every
    /// run; the sessions and their caches are reused, as a serving process
    /// would.) Ocelot CPU runs at thread-pool sizes 1, 2 and N, and the
    /// fused Q1 and Q6 — whose float sums partition rows by row and group
    /// counts only — are bit-identical *across* those sizes as well.
    #[test]
    fn every_ported_query_is_bit_identical_across_20_runs_per_backend() {
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.005, seed: 97 });
        fn check<B: Backend>(session: &Session<B>, db: &TpchDb) {
            for query in PORTED_QUERY_IDS {
                let first: QueryResult = run_query(session, db, query).unwrap();
                for run in 1..20 {
                    let again = run_query(session, db, query).unwrap();
                    assert_eq!(again, first, "q{query} run {run} on {}", session.name());
                }
            }
        }
        check(&Session::monet_seq(), &db);
        check(&Session::monet_par(), &db);
        check(&Session::new(OcelotBackend::gpu()), &db);
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        let mut across_sizes: Vec<(usize, [QueryResult; 2])> = Vec::new();
        for threads in [1, 2, cores] {
            let device = Device::cpu_multicore_with(threads);
            let session = Session::ocelot(&SharedDevice::with_device(device));
            check(&session, &db);
            let fused = [1, 6].map(|query| run_query(&session, &db, query).unwrap());
            across_sizes.push((threads, fused));
        }
        for (threads, fused) in &across_sizes[1..] {
            assert_eq!(fused, &across_sizes[0].1, "Q1/Q6 at {threads} threads vs 1");
        }
    }
}

#[cfg(test)]
mod join_locality {
    //! PR 14 — the locality-preserving hash table against the
    //! `monet::sequential` references on all three devices, over the key
    //! shapes that stress the range-relative first probe and the range
    //! sizing rule; the armed race detector over the join-shaped build and
    //! the fused probe/count pass; and the launch/flush budget of one
    //! PK-FK join.

    use ocelot_core::ops::hash_table::OcelotHashTable;
    use ocelot_core::ops::{groupby, join};
    use ocelot_core::{partitioned_pkfk_join, OcelotContext, PartitionedJoinConfig, TraceSink};
    use ocelot_engine::{Backend, OcelotBackend, TraceEventKind};
    use ocelot_monet::sequential as monet;
    use ocelot_monet::MonetHashTable;
    use std::sync::Arc;

    fn contexts() -> Vec<OcelotContext> {
        vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
    }

    /// `(label, unique build keys)`: every shape the first probe and the
    /// sizing rule distinguish.
    fn build_shapes() -> Vec<(&'static str, Vec<i32>)> {
        let rows = 1_500i32;
        let strided = |first: i32, stride: i32| -> Vec<i32> {
            (0..rows).map(|i| first.wrapping_add(i.wrapping_mul(stride))).collect()
        };
        let mut just_covered = strided(-40, 3);
        just_covered[rows as usize - 1] = -40 + 8 * rows - 1;
        let mut just_uncovered = just_covered.clone();
        just_uncovered[rows as usize - 1] += 1;
        vec![
            ("dense from 0", strided(0, 1)),
            ("dense from i32::MIN", strided(i32::MIN, 1)),
            ("dense up to i32::MAX", strided(i32::MAX - (rows - 1), 1)),
            ("negative, crossing zero", strided(-1_000, 1)),
            ("clustered, descending", strided(5_000, -2)),
            ("multiples of 2^10", strided(-(700 << 10), 1 << 10)),
            ("multiples of 2^20", strided(-(700 << 20), 1 << 20)),
            ("whole 32-bit range", strided(i32::MIN, 2_863_311)),
            ("range = 8·rows", just_covered),
            ("range = 8·rows + 1", just_uncovered),
            ("one row", vec![i32::MIN]),
            ("empty", vec![]),
        ]
    }

    /// Probe keys around `build`: every build key a few times, in a
    /// scrambled order, interleaved with near misses on both sides.
    fn probe_for(build: &[i32]) -> Vec<i32> {
        let mut probe = vec![i32::MIN, -1, 0, 1, i32::MAX];
        for i in 0..build.len() * 3 {
            let key = build[(i * 7 + 3) % build.len()];
            probe.push(key);
            if i % 4 == 0 {
                probe.extend([key.wrapping_add(1), key.wrapping_sub(1)]);
            }
        }
        probe
    }

    #[test]
    fn joins_and_grouping_equal_monet_for_every_key_shape_on_every_device() {
        for (label, build) in build_shapes() {
            let probe = probe_for(&build);
            let (exp_fk, exp_pk) = monet::pkfk_join_i32(&probe, &MonetHashTable::build(&build));
            // Duplicates on the left of a semi join, on both sides of the
            // grouping: the probe column repeats every build key.
            let semi = [
                monet::semi_join_i32(&probe, &build),
                monet::anti_join_i32(&probe, &build),
                monet::semi_join_i32(&build, &probe),
                monet::anti_join_i32(&build, &probe),
            ];
            // Duplicates in the build side of the membership table too: every
            // build key twice, the smaller input, so the table goes over it.
            let doubled: Vec<i32> = build.iter().chain(build.iter().rev()).copied().collect();
            let semi_doubled =
                [monet::semi_join_i32(&doubled, &probe), monet::anti_join_i32(&doubled, &probe)];
            let groups = monet::group_by_columns(&[&probe]);
            for ctx in contexts() {
                let at = format!("{label} on {:?}", ctx.device().info().kind);
                let b = ctx.upload_i32(&build, "build").unwrap();
                let p = ctx.upload_i32(&probe, "probe").unwrap();

                let table = OcelotHashTable::build(&ctx, &b, build.len()).unwrap();
                let joined = join::hash_join(&ctx, &p, &table).unwrap();
                assert_eq!(joined.probe_oids.read(&ctx).unwrap(), exp_fk, "{at}: fk oids");
                assert_eq!(joined.build_oids.read(&ctx).unwrap(), exp_pk, "{at}: pk oids");

                let cfg = PartitionedJoinConfig {
                    partition_bits: 2,
                    device_budget: None,
                    max_build_rows: usize::MAX,
                    max_passes: 1,
                };
                let parted = partitioned_pkfk_join(&ctx, &p, &b, &cfg).unwrap();
                assert_eq!(parted.probe_oids.read(&ctx).unwrap(), exp_fk, "{at}: partitioned fk");
                assert_eq!(parted.build_oids.read(&ctx).unwrap(), exp_pk, "{at}: partitioned pk");

                let read = |oids: ocelot_core::DevColumn<u32>| oids.read(&ctx).unwrap();
                assert_eq!(read(join::semi_join(&ctx, &p, &b).unwrap()), semi[0], "{at}: semi");
                assert_eq!(read(join::anti_join(&ctx, &p, &b).unwrap()), semi[1], "{at}: anti");
                assert_eq!(read(join::semi_join(&ctx, &b, &p).unwrap()), semi[2], "{at}: semi'");
                assert_eq!(read(join::anti_join(&ctx, &b, &p).unwrap()), semi[3], "{at}: anti'");
                let d = ctx.upload_i32(&doubled, "doubled").unwrap();
                assert_eq!(read(join::semi_join(&ctx, &d, &p).unwrap()), semi_doubled[0], "{at}");
                assert_eq!(read(join::anti_join(&ctx, &d, &p).unwrap()), semi_doubled[1], "{at}");

                let grouped = groupby::group_by_hash(&ctx, &p).unwrap();
                assert_eq!(grouped.num_groups, groups.num_groups, "{at}: group count");
                assert_eq!(read(grouped.gids), groups.gids, "{at}: group ids");
                assert_eq!(read(grouped.representatives), groups.representatives, "{at}: reps");
            }
        }
    }

    /// Join builds (range-covering and hash-sized), the fused probe/count
    /// pass and both membership orientations under the armed detector:
    /// every kernel declares its access set and no event-unordered pair
    /// conflicts. (A join build that restarts is the hash table's own unit
    /// test: no probe count starts one too small. The partitioned join runs
    /// the same build and probe per pair; its partitioning kernels are not
    /// launched here.)
    #[test]
    fn armed_race_detector_is_silent_over_join_builds_and_probes() {
        let dense: Vec<i32> = (0..30_000).map(|i| i - 15_000).collect();
        let sparse: Vec<i32> = (0..30_000).map(|i| i * 97).collect();
        let probe: Vec<i32> = (0..90_000).map(|i| (i * 31) % 45_000 - 15_000).collect();
        for ctx in contexts() {
            let queue = ctx.queue();
            queue.race().arm();
            let p = ctx.upload_i32(&probe, "probe").unwrap();
            for (keys, covered) in [(&dense, true), (&sparse, false)] {
                let b = ctx.upload_i32(keys, "build").unwrap();
                let table = OcelotHashTable::build(&ctx, &b, probe.len()).unwrap();
                assert_eq!(table.capacity() == 32_768, covered, "{table:?}");
                assert_eq!(table.build_attempts(), 1, "{table:?}");
                join::hash_join(&ctx, &p, &table).unwrap();
                join::semi_join(&ctx, &p, &b).unwrap();
                join::anti_join(&ctx, &b, &p).unwrap();
            }
            ctx.sync().unwrap();
            let stats = queue.race().stats();
            let diagnostics = queue.race().take_diagnostics();
            queue.race().disarm();
            assert!(diagnostics.is_empty(), "{diagnostics:?}");
            assert_eq!(stats.kernels_declared, stats.kernels_observed, "{stats:?}");
            assert!(stats.pairs_checked > 0, "unordered pairs were actually compared: {stats:?}");
        }
    }

    /// A selective build over a dense key — every 13th of 750 000 keys, as a
    /// date filter leaves `o_orderkey` — probed by a sorted FK column that
    /// holds every key four times, as `l_orderkey` does, plus keys past both
    /// ends of `i32`. The build covers an eighth of its range, so it is the
    /// probe rows that pay for a table covering it: the hash join, semi and
    /// anti in both orientations and the partitioned join equal MS; the
    /// table is range-sized and built in one attempt; no build stops for a
    /// failure count; and the armed detector is silent.
    #[test]
    fn a_selective_build_over_a_dense_key_gets_a_range_table() {
        const KEYS: i32 = 750_000;
        let build: Vec<i32> = (0..KEYS).step_by(13).collect();
        let mut probe = vec![i32::MIN, i32::MIN + 1, -1];
        probe.extend((0..KEYS).flat_map(|key| [key; 4]));
        probe.extend([KEYS, i32::MAX - 1, i32::MAX]);
        let span = (build[build.len() - 1] - build[0] + 1) as usize;
        assert!(span > 8 * build.len(), "the build alone would not pay for the range");
        let (exp_fk, exp_pk) = monet::pkfk_join_i32(&probe, &MonetHashTable::build(&build));
        let expected = [
            monet::semi_join_i32(&probe, &build),
            monet::anti_join_i32(&probe, &build),
            monet::semi_join_i32(&build, &probe),
            monet::anti_join_i32(&build, &probe),
        ];
        for ctx in contexts() {
            let at = format!("{:?}", ctx.device().info().kind);
            let queue = ctx.queue();
            queue.race().arm();
            let (b, p) = (
                ctx.upload_i32(&build, "build").unwrap(),
                ctx.upload_i32(&probe, "probe").unwrap(),
            );
            ctx.sync().unwrap();
            let flushes = queue.flush_count();
            let table = OcelotHashTable::build(&ctx, &b, p.cap()).unwrap();
            // The key range is the build's only flush: a table covering it
            // cannot lose a row, so there is no failure count to read.
            assert_eq!(queue.flush_count() - flushes, 1, "{at}");
            assert_eq!(table.capacity(), span.next_power_of_two(), "{at}: {table:?}");
            assert_eq!(table.build_attempts(), 1, "{at}: {table:?}");
            let joined = join::hash_join(&ctx, &p, &table).unwrap();
            assert_eq!(joined.probe_oids.read(&ctx).unwrap(), exp_fk, "{at}: fk oids");
            assert_eq!(joined.build_oids.read(&ctx).unwrap(), exp_pk, "{at}: pk oids");

            // Both membership orientations: a join build the probe rows
            // look up, which flushes for the range alone, and a grouping
            // build over the build rows the probe rows mark, which flushes
            // for its group count too. Nothing else flushes before the read.
            let read = |oids: ocelot_core::DevColumn<u32>| oids.read(&ctx).unwrap();
            for (index, (left, right, semi, flushed)) in
                [(&p, &b, true, 1), (&p, &b, false, 1), (&b, &p, true, 2), (&b, &p, false, 2)]
                    .into_iter()
                    .enumerate()
            {
                let flushes = queue.flush_count();
                let oids = if semi {
                    join::semi_join(&ctx, left, right)
                } else {
                    join::anti_join(&ctx, left, right)
                };
                assert_eq!(queue.flush_count() - flushes, flushed, "{at}: membership {index}");
                assert_eq!(read(oids.unwrap()), expected[index], "{at}: membership {index}");
            }

            let cfg = PartitionedJoinConfig {
                partition_bits: 2,
                device_budget: None,
                max_build_rows: usize::MAX,
                max_passes: 1,
            };
            let parted = partitioned_pkfk_join(&ctx, &p, &b, &cfg).unwrap();
            assert_eq!(parted.probe_oids.read(&ctx).unwrap(), exp_fk, "{at}: partitioned fk");
            assert_eq!(parted.build_oids.read(&ctx).unwrap(), exp_pk, "{at}: partitioned pk");
            ctx.sync().unwrap();
            let stats = queue.race().stats();
            let diagnostics = queue.race().take_diagnostics();
            queue.race().disarm();
            assert!(diagnostics.is_empty(), "{at}: {diagnostics:?}");
            assert_eq!(stats.kernels_declared, stats.kernels_observed, "{at}: {stats:?}");
        }
    }

    /// One PK-FK join through the backend: no ranking and no separate
    /// counting pass is launched, and the join costs fewer launches and no
    /// more flushes than the 14 launches / 2 flushes (build + read) it took
    /// when the build ranked dense ids and the probe counted separately.
    #[test]
    fn a_pkfk_join_launches_no_ranking_and_no_counting_pass() {
        let pk: Vec<i32> = (0..20_000).collect();
        let fk: Vec<i32> = (0..100_000).map(|i| (i * 13) % 25_000).collect();
        for backend in [OcelotBackend::cpu_sequential(), OcelotBackend::cpu(), OcelotBackend::gpu()]
        {
            let fkc = backend.lift_i32(fk.clone()).unwrap();
            let pkc = backend.lift_i32(pk.clone()).unwrap();
            backend.sync().unwrap();
            let sink = Arc::new(TraceSink::new());
            backend.attach_tracer(&sink);
            let flushes = backend.context().queue().flush_count();
            let (fk_oids, _pk_oids) = backend.pkfk_join(&fkc, &pkc).unwrap();
            assert_eq!(backend.len(&fk_oids).unwrap(), 80_000);
            backend.detach_tracer();
            let launched: Vec<String> = sink
                .events()
                .into_iter()
                .filter_map(|event| match event.kind {
                    TraceEventKind::Kernel { kernel, .. } => Some(kernel),
                    _ => None,
                })
                .collect();
            for gone in ["hash_representative_flags", "hash_finalize", "join_count_matches"] {
                assert!(!launched.iter().any(|k| k == gone), "{gone} in {launched:?}");
            }
            // Seven: the compaction's per-item counts are scanned in one
            // launch (PR 16), not three.
            assert_eq!(launched.len(), 7, "{}: {launched:?}", backend.name());
            assert_eq!(backend.context().queue().flush_count() - flushes, 2, "{}", backend.name());
        }
    }
}

#[cfg(test)]
mod grouped_aggregation;

#[cfg(test)]
mod fused_pipelines;

#[cfg(test)]
mod sort;

#[cfg(test)]
mod lockstep;

#[cfg(test)]
mod dense_join;

#[cfg(test)]
mod host_baselines;

#[cfg(test)]
mod steady_state {
    //! PR 14 — a warm session is in steady state: the second sweep of the
    //! ported workload allocates no fresh pooled buffer, uploads no base
    //! column and computes no column statistic.

    use ocelot_core::SharedDevice;
    use ocelot_engine::Session;
    use ocelot_tpch::{run_query, TpchConfig, TpchDb, PORTED_QUERY_IDS};

    /// Which base columns carry computed statistics, in catalog order.
    fn summarised_columns(db: &TpchDb) -> Vec<String> {
        let catalog = db.catalog();
        let mut tables = catalog.table_names();
        tables.sort_unstable();
        let mut found = Vec::new();
        for table in tables {
            let mut columns: Vec<_> = catalog.table(table).unwrap().columns().collect();
            columns.sort_unstable_by_key(|(name, _)| *name);
            found.extend(
                columns
                    .into_iter()
                    .filter(|(_, bat)| bat.has_summary())
                    .map(|(name, _)| format!("{table}.{name}")),
            );
        }
        found
    }

    #[test]
    fn second_sweep_misses_no_pool_no_cache_and_scans_no_column() {
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.01, seed: 14 });
        let shared = SharedDevice::cpu();
        let session = Session::ocelot(&shared);
        let sweep = || -> Vec<_> {
            PORTED_QUERY_IDS.iter().map(|id| run_query(&session, &db, *id).unwrap()).collect()
        };
        assert!(summarised_columns(&db).is_empty(), "dbgen computes no statistics");
        let first = sweep();
        let (pool, cache) = (shared.pool().stats(), shared.cache().stats());
        let summarised = summarised_columns(&db);
        assert!(!summarised.is_empty(), "lowering reads column statistics");
        assert!(pool.hits + pool.misses > 0 && cache.misses > 0, "the first sweep warmed both");

        let second = sweep();
        assert_eq!(second, first, "same session, same results");
        assert_eq!(shared.pool().stats().misses, pool.misses, "{:?}", shared.pool().stats());
        assert!(shared.pool().stats().hits > pool.hits);
        assert_eq!(shared.cache().stats().misses, cache.misses, "{:?}", shared.cache().stats());
        // Every statistic the second sweep's lowering read was already on
        // its BAT: no column gained one.
        assert_eq!(summarised_columns(&db), summarised);
    }
}
