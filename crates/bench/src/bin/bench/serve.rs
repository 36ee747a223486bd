//! `serve_mixed`: the same operators behind the serving path — four tenant
//! sessions on one shared Ocelot CPU device, a device-wide primed
//! `PlanCache`, one closed-loop client. Each pass sends 30 parameterised
//! Q1/Q3/Q6 requests one at a time through `PlanCache::execute` (each
//! timed; 30 consecutive requests are one of every (shape, binding) pair)
//! and then one batch of 16 plans compiled by `PlanCache::plan` through
//! `ServeScheduler::run`.

use crate::common::{
    compare_values, finish_trace, gate, repeat_setup, row_count_verdict, rows_in, run_passes,
    summarise, timed, Cell, OpSplit, Outcome, RunConfig, Verdict,
};
use crate::runner::{CounterLog, Counters, Scope};
use crate::spans::Spans;
use crate::stats::{median, median_ms, percentile_ms, samples_beyond};
use ocelot_core::SharedDevice;
use ocelot_engine::{
    Lane, OcelotBackend, ParamValue, Plan, PlanCache, Query, QueryJob, QueryValue, SchedAction,
    ServeJob, ServeScheduler, Session, TraceEventKind, TraceSink,
};
use ocelot_storage::types::date_to_days;
use ocelot_tpch::{q1_query_p, q3_query_p, q6_query_p, TpchConfig, TpchDb};
use std::collections::BTreeMap;
use std::sync::Arc;

const SCALE_FACTOR: f64 = 0.01;
const SETUP_REPS: usize = 15;
/// Set-up is 1 s, a pass 0.1 s. With the three timed passes before it,
/// `peak_rss_mb` is read after the 19th pass, mid-way between two steps of
/// the device pool's growth (13th and 26th pass; then 52nd, 104th).
const BURN_IN_PASSES: usize = 16;
const TENANTS: usize = 4;
const SHAPES: [&str; 3] = ["q1", "q3", "q6"];
/// Bindings repeat with this period in the binding index.
const BINDINGS: usize = 10;
const DIRECT_PER_PASS: usize = SHAPES.len() * BINDINGS;
const BATCHES_PER_PASS: usize = 1;
const BATCH_JOBS: usize = 16;
const TAIL_PCT: f64 = 99.0;

/// The `k`-th binding of shape `shape`: literals move with every request
/// (what the plan cache amortises), the shape never does.
pub fn binding(db: &TpchDb, shape: usize, k: u64) -> Vec<ParamValue> {
    let year = 1993 + (k % 5) as i32;
    match SHAPES[shape] {
        "q1" => vec![date_to_days(year, 9, 2).into()],
        "q3" => vec![
            date_to_days(year, 3, 15).into(),
            db.code("customer", "c_mktsegment", "BUILDING").into(),
        ],
        _ => {
            let band_lo = 2 + (k % 5) as i32;
            vec![
                date_to_days(year, 1, 1).into(),
                (date_to_days(year + 1, 1, 1) - 1).into(),
                (band_lo as f32 * 0.01 - 0.001).into(),
                ((band_lo + 2) as f32 * 0.01 + 0.001).into(),
                (20.0 + (k % 10) as f32).into(),
            ]
        }
    }
}

/// Request `r` of a run seeded `seed`: `(shape, binding index, tenant)`.
/// The seed rotates where in the binding sequence the stream starts; the
/// mix of shapes and tenants is the same for every seed.
pub fn request(r: u64, seed: u64) -> (usize, u64, usize) {
    ((r % SHAPES.len() as u64) as usize, r.wrapping_add(seed), (r % TENANTS as u64) as usize)
}

struct State {
    db: TpchDb,
    tenants: Vec<Session<OcelotBackend>>,
    cache: Arc<PlanCache>,
    shapes: Vec<Query>,
    /// First served result per `[shape][binding]`.
    cold: Vec<Vec<Result<Vec<QueryValue>, String>>>,
}

/// dbgen, the shared device with its tenants, and the first served run of
/// every (shape, binding) — the first of each shape primes the plan cache.
fn setup(cfg: &RunConfig) -> State {
    let db = TpchDb::generate(TpchConfig { scale_factor: cfg.scale(SCALE_FACTOR), seed: cfg.seed });
    let shared = SharedDevice::cpu();
    let tenants: Vec<Session<OcelotBackend>> =
        (0..TENANTS).map(|_| Session::ocelot(&shared)).collect();
    let cache = PlanCache::on(&shared);
    let shapes = vec![q1_query_p(&db), q3_query_p(&db), q6_query_p(&db)];
    let cold = (0..SHAPES.len())
        .map(|shape| {
            (0..BINDINGS)
                .map(|k| {
                    cache
                        .execute(
                            &tenants[k % TENANTS],
                            &shapes[shape],
                            &binding(&db, shape, k as u64),
                            db.catalog(),
                        )
                        .map_err(|e| e.to_string())
                })
                .collect()
        })
        .collect();
    State { db, tenants, cache, shapes, cold }
}

fn verdict_of<E: std::fmt::Display>(
    result: &Result<Vec<QueryValue>, E>,
    expected: usize,
) -> Result<(), Verdict> {
    row_count_verdict(result.as_ref().map(|values| rows_in(values)), expected)
}

/// The 16 jobs of batch `batch`: four per tenant, one of each tenant's in
/// the batch lane.
fn batch_requests(first: u64, seed: u64) -> Vec<(usize, u64, usize, Lane)> {
    (0..BATCH_JOBS as u64)
        .map(|j| {
            let (shape, k, _) = request(first + j, seed);
            let tenant = (j % TENANTS as u64) as usize;
            let lane = if j / TENANTS as u64 == j % TENANTS as u64 {
                Lane::Batch
            } else {
                Lane::Interactive
            };
            (shape, k, tenant, lane)
        })
        .collect()
}

pub fn run(cfg: &RunConfig, out: &mut Outcome) {
    let (state, setup_s) = repeat_setup(cfg.setup_reps(SETUP_REPS), || setup(cfg));
    let State { db, tenants, cache, shapes, cold } = state;
    let catalog = db.catalog();
    out.e2e.set("setup_s", setup_s);
    out.line(&format!(
        "sf {} seed {}: {} lineitem rows, {TENANTS} tenants on one Ocelot CPU device",
        db.config().scale_factor,
        cfg.seed,
        db.lineitem_rows()
    ));

    // Correctness gate: each served result against the literal query (the
    // shape bound and run cold through `Query::run`) on MS.
    let literal = Session::monet_seq();
    // Rows a served result must have, per `[shape][binding]`.
    let mut expected: Vec<Vec<usize>> = Vec::new();
    for (shape, results) in cold.iter().enumerate() {
        expected.push(Vec::new());
        for (k, served) in results.iter().enumerate() {
            let reference = shapes[shape]
                .bind(&binding(&db, shape, k as u64))
                .and_then(|bound| bound.run(&literal, catalog))
                .map_err(|e| e.to_string());
            let verdict = gate(&reference, served, |want, have| compare_values(want, have));
            out.book(&format!("cold served {} binding {k}", SHAPES[shape]), verdict);
            expected[shape].push(served.as_ref().map_or(0, |values| rows_in(values)));
        }
    }
    let expect = |shape: usize, k: u64| expected[shape][(k % BINDINGS as u64) as usize];

    let sched = ServeScheduler::new();
    let mut next_request = 0u64;
    // One pass of the closed loop; returns its summed latency. Samples go
    // to `tally` when given, calls are wrapped in spans when given.
    let mut one_pass = |out: &mut Outcome, mut tally: Option<&mut Tally>, spans: Option<&Spans>| {
        let mut total = 0;
        // (i) one request at a time through the plan cache.
        for _ in 0..DIRECT_PER_PASS {
            let (shape, k, tenant) = request(next_request, cfg.seed);
            next_request += 1;
            let params = binding(&db, shape, k);
            let (result, ns) =
                timed(spans, "engine::serve", &format!("execute {}", SHAPES[shape]), || {
                    cache.execute(&tenants[tenant], &shapes[shape], &params, catalog)
                });
            if out.book(&format!("served {}", SHAPES[shape]), verdict_of(&result, expect(shape, k)))
            {
                total += ns;
                if let Some(tally) = tally.as_deref_mut() {
                    tally.cells[cell_index(shape, k)].ns.push(ns);
                }
            }
        }
        // (ii) 16 compiled plans at a time through the serving scheduler.
        for _ in 0..BATCHES_PER_PASS {
            let requests = batch_requests(next_request, cfg.seed);
            next_request += BATCH_JOBS as u64;
            let mut plans: Vec<Result<Plan, String>> = Vec::new();
            for (shape, k, ..) in &requests {
                let (plan, ns) = timed(spans, "engine::serve", "plan_cache.plan", || {
                    cache.plan(&shapes[*shape], &binding(&db, *shape, *k), catalog)
                });
                total += ns;
                if let Some(tally) = tally.as_deref_mut() {
                    tally.plan_ns.push(ns);
                }
                plans.push(plan.map_err(|e| e.to_string()));
            }
            let jobs: Vec<ServeJob<'_, OcelotBackend>> = requests
                .iter()
                .zip(&plans)
                .filter_map(|((_, _, tenant, lane), plan)| {
                    let plan = plan.as_ref().ok()?;
                    let job = QueryJob { session: &tenants[*tenant], plan, catalog };
                    Some(ServeJob { job, tenant: *tenant, lane: *lane })
                })
                .collect();
            let (outcome, ns) =
                timed(spans, "engine::scheduler", "ServeScheduler::run", || sched.run(&jobs));
            total += ns;
            let mut ok = 0;
            let mut results = outcome.results.iter();
            for ((shape, k, ..), plan) in requests.iter().zip(&plans) {
                let verdict = match plan {
                    Err(error) => Err(Verdict::Failed(error.clone())),
                    Ok(_) => match results.next() {
                        Some(result) => verdict_of(result, expect(*shape, *k)),
                        None => Err(Verdict::Failed("no result slot".to_string())),
                    },
                };
                ok += out.book(&format!("batched {}", SHAPES[*shape]), verdict) as u64;
            }
            if let Some(tally) = tally.as_deref_mut() {
                tally.makespan_ns.push(ns);
                tally.batch_jobs_ok += ok;
                tally.rejected +=
                    outcome.stats.tenants.values().map(|t| t.rejected as u64).sum::<u64>();
            }
        }
        total
    };

    for _ in 0..cfg.burn_in_passes(BURN_IN_PASSES) {
        one_pass(out, None, None);
    }
    let mut tally = Tally {
        cells: (0..SHAPES.len() * BINDINGS)
            .map(|i| Cell::new("ocelot_cpu", format!("{}.b{}", SHAPES[i / BINDINGS], i % BINDINGS)))
            .collect(),
        plan_ns: Vec::new(),
        makespan_ns: Vec::new(),
        batch_jobs_ok: 0,
        rejected: 0,
    };
    let mut pass_ns = Vec::new();
    let mut log = CounterLog::default();
    let read_all = |tenants: &[Session<OcelotBackend>]| -> Vec<Counters> {
        tenants.iter().map(|t| Counters::read(&t.metrics())).collect()
    };
    let mut before = read_all(&tenants);
    let cache_before = cache.stats();
    let (attempted_before, failed_before) = (out.attempted, out.failed);
    let (passes, wall_s) = run_passes(cfg.seconds, cfg.min_passes(), |pass| {
        pass_ns.push(one_pass(out, Some(&mut tally), None));
        out.after_pass(pass, cfg);
        // Queues are per tenant; cache and pool are device-wide, read once.
        let now = read_all(&tenants);
        let mut total = Counters::default();
        for (index, (now, before)) in now.iter().zip(&before).enumerate() {
            total.absorb(&now.since(before), |scope| match scope {
                Scope::Session => true,
                Scope::GpuSession => false,
                Scope::Device => index == 0,
            });
        }
        log.push(total);
        before = now;
    });
    let ops = (out.attempted - attempted_before) - (out.failed - failed_before);
    let Tally { cells, plan_ns, makespan_ns, batch_jobs_ok, rejected } = &tally;
    let pooled_of = |shapes: std::ops::Range<usize>| -> Vec<u64> {
        let of_shapes = &cells[shapes.start * BINDINGS..shapes.end * BINDINGS];
        of_shapes.iter().flat_map(|c| c.ns.iter().copied()).collect()
    };
    let pooled = pooled_of(0..SHAPES.len());
    out.line(&format!(
        "{passes} timed passes in {wall_s:.2} s: {} direct requests, {} batches of {BATCH_JOBS}",
        pooled.len(),
        makespan_ns.len()
    ));
    summarise(out, cells, ops as f64 / passes as f64, &pass_ns);

    // The distribution a client sees, as it was on this box during this
    // run (per-layer, unbounded: the tail follows the neighbours).
    out.layers.set("serve.qps", pooled.len() as f64 / (pooled.iter().sum::<u64>() as f64 / 1e9));
    out.layers.set("serve.p50_ms", percentile_ms(&pooled, 50.0));
    out.layers.set("serve.p99_ms", percentile_ms(&pooled, TAIL_PCT));
    let beyond = if pooled.is_empty() { 0 } else { samples_beyond(pooled.len(), TAIL_PCT) };
    out.line(&format!(
        "serve.p99_ms is p{TAIL_PCT} of {} samples ({beyond} beyond it{})",
        pooled.len(),
        if beyond < 10 { " - FEWER THAN TEN, not a tail estimate" } else { "" },
    ));
    for (shape, label) in SHAPES.iter().enumerate() {
        out.layers.set(&format!("serve.{label}_p50_ms"), median_ms(&pooled_of(shape..shape + 1)));
    }
    out.layers.set(
        "sched.batch_qps",
        *batch_jobs_ok as f64 / (makespan_ns.iter().sum::<u64>() as f64 / 1e9),
    );
    out.layers.set("sched.batch_ms_p50", median_ms(makespan_ns));
    out.layers.set("sched.rejected", *rejected as f64);
    out.layers.set("engine.compile_cached_us", median_ms(plan_ns) * 1e3);
    let stats = cache.stats();
    let (hits, misses) = (stats.hits - cache_before.hits, stats.misses - cache_before.misses);
    out.layers.set("engine.plan_cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    out.set_counters(&log);
    out.line(&format!(
        "served p50 {:.3} ms  p99 {:.3} ms  {:.1} qps | batch makespan p50 {:.3} ms  {:.1} jobs/s | \
         plan-cache hit {:.1} us, hit rate {:.4}",
        out.layers.get("serve.p50_ms"),
        out.layers.get("serve.p99_ms"),
        out.layers.get("serve.qps"),
        out.layers.get("sched.batch_ms_p50"),
        out.layers.get("sched.batch_qps"),
        out.layers.get("engine.compile_cached_us"),
        out.layers.get("engine.plan_cache_hit_rate"),
    ));

    if cfg.trace {
        // The same pass with the sink on the tenants, the plan cache and
        // the scheduler, then the profiles of the three shapes.
        let spans = Spans::new(Arc::new(TraceSink::new()));
        for tenant in &tenants {
            tenant.attach_tracer(spans.sink());
        }
        cache.trace().attach(Arc::clone(spans.sink()));
        sched.trace().attach(Arc::clone(spans.sink()));
        let traced_ns = one_pass(out, None, Some(&spans));
        sched.trace().detach();
        out.layers.set("sched.queue_wait_ms_p50", queue_wait_ms_p50(spans.sink()));
        profile_shapes(out, cfg, &db, &tenants[0], &shapes, &spans);
        for tenant in &tenants {
            tenant.detach_tracer();
        }
        cache.trace().detach();
        finish_trace(out, &spans, traced_ns, &pass_ns);
    }
}

/// Cell of the individually served request `(shape, binding index)`.
fn cell_index(shape: usize, k: u64) -> usize {
    shape * BINDINGS + (k % BINDINGS as u64) as usize
}

/// What the timed passes accumulate.
struct Tally {
    /// Latencies of the individually served requests, one cell per
    /// `(shape, binding)` in [`cell_index`] order: Q1 at its five cut-off
    /// dates runs 2.3 to 7.2 ms, so a per-shape cell would mix literals.
    cells: Vec<Cell>,
    /// `PlanCache::plan` hit latencies (the batched requests' compiles).
    plan_ns: Vec<u64>,
    /// `ServeScheduler::run` wall time per 16-job batch.
    makespan_ns: Vec<u64>,
    batch_jobs_ok: u64,
    rejected: u64,
}

/// Median scheduler submit -> complete time over the traced pass's jobs.
/// Job indices restart with every `ServeScheduler::run`, and a run's submit
/// events all precede its completions, so the latest submit of an index is
/// the one a completion belongs to.
fn queue_wait_ms_p50(sink: &TraceSink) -> f64 {
    let mut submitted: BTreeMap<u64, u64> = BTreeMap::new();
    let mut waits_ns: Vec<f64> = Vec::new();
    for event in sink.events() {
        if let TraceEventKind::Sched { job, action, .. } = event.kind {
            match action {
                SchedAction::Submit => {
                    submitted.insert(job, event.ts_ns);
                }
                SchedAction::Complete => {
                    if let Some(at) = submitted.get(&job) {
                        waits_ns.push(event.ts_ns.saturating_sub(*at) as f64);
                    }
                }
                _ => {}
            }
        }
    }
    if waits_ns.is_empty() {
        0.0
    } else {
        median(&waits_ns) / 1e6
    }
}

/// Cold compile and `explain_analyze` of each shape: the operator-class
/// split and plan-run overhead of the served plans.
fn profile_shapes(
    out: &mut Outcome,
    cfg: &RunConfig,
    db: &TpchDb,
    tenant: &Session<OcelotBackend>,
    shapes: &[Query],
    spans: &Spans,
) {
    let catalog = db.catalog();
    let mut split = OpSplit::default();
    let mut cold_compile_ns = 0;
    for (shape, query) in shapes.iter().enumerate() {
        let params = binding(db, shape, cfg.seed);
        let (plan, ns) = timed(Some(spans), "engine::serve", "cold compile", || {
            PlanCache::new().plan(query, &params, catalog)
        });
        cold_compile_ns += ns;
        let verdict = plan.map_err(|e| Verdict::Failed(e.to_string())).and_then(|plan| {
            let (_, profile) = spans
                .span("engine::plan", "explain_analyze", || tenant.explain_analyze(&plan, catalog))
                .map_err(|e| Verdict::Failed(e.to_string()))?;
            split.absorb(&profile);
            Ok(())
        });
        out.book(&format!("profile {}", SHAPES[shape]), verdict);
    }
    out.layers.set("engine.compile_cold_ms", cold_compile_ns as f64 / 1e6);
    split.set_ops(out, "ocelot_cpu");
    split.set_engine(out, "ocelot_cpu");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(db: &TpchDb, seed: u64, n: u64) -> Vec<String> {
        (0..n)
            .map(|r| {
                let (shape, k, tenant) = request(r, seed);
                format!("{shape} {tenant} {:?}", binding(db, shape, k))
            })
            .collect()
    }

    #[test]
    fn seed_fixes_the_binding_sequence_and_rotates_it() {
        let db = TpchDb::generate(TpchConfig { scale_factor: 0.001, seed: 1 });
        assert_eq!(stream(&db, 7, 60), stream(&db, 7, 60));
        assert_ne!(stream(&db, 7, 60), stream(&db, 8, 60));
        // Same mix for every seed: shapes and tenants do not move.
        for r in 0..60 {
            assert_eq!(request(r, 7).0, request(r, 8).0);
            assert_eq!(request(r, 7).2, request(r, 8).2);
        }
        // Bindings repeat with period BINDINGS, so the cold pass's table of
        // (shape, binding) results covers every request of any stream.
        for (shape, k) in (0..SHAPES.len()).flat_map(|s| (0..100).map(move |k| (s, k))) {
            let (a, b) = (binding(&db, shape, k), binding(&db, shape, k % BINDINGS as u64));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn each_tenant_has_one_batch_lane_job_per_batch() {
        let requests = batch_requests(30, 3);
        assert_eq!(requests.len(), BATCH_JOBS);
        for tenant in 0..TENANTS {
            let own: Vec<_> = requests.iter().filter(|r| r.2 == tenant).collect();
            assert_eq!(own.len(), BATCH_JOBS / TENANTS);
            assert_eq!(own.iter().filter(|r| r.3 == Lane::Batch).count(), 1);
        }
    }
}
