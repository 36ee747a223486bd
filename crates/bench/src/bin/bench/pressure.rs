//! `gpu_pressure`: a join-heavy stream on a modelled GPU whose memory
//! equals the database payload, so base columns plus intermediates do not
//! fit — `ColumnCache` eviction, OOM reclaim/restart, PCIe transfers and
//! the partitioned join decide the time. Every fifth pass runs the same
//! plans on a 2 GiB device, the resident control the slowdown is taken
//! against.

use crate::common::{
    compare_values, finish_trace, gate, plans_for, repeat_setup, row_count_verdict, rows_in,
    run_passes, summarise, timed, Cell, OpSplit, Outcome, RunConfig, Verdict,
};
use crate::runner::{CounterLog, Counters, Scope};
use crate::spans::Spans;
use crate::stats::geomean;
use ocelot_core::SharedDevice;
use ocelot_engine::{Plan, QueryValue, RewriteConfig, Session, TraceSink};
use ocelot_kernel::GpuConfig;
use ocelot_tpch::{TpchConfig, TpchDb};
use std::sync::Arc;

const SCALE_FACTOR: f64 = 0.1;
const SETUP_REPS: usize = 7;
/// The join/aggregation queries of the ported set (Q1 and Q12 are
/// scan-and-group only and never spill).
const STREAM: [u32; 6] = [3, 4, 5, 6, 10, 14];
const CONTROL_EVERY: usize = 5;
const CONTROL_MEM: usize = 2 << 30;
/// Smallest device the stream is run on: hash tables and radix buffers have
/// fixed minimum sizes, so at the `--check` scale "memory = payload" would
/// starve them outright instead of pressuring them. sf 0.1 is far above it.
const MIN_DEVICE_MEM: usize = 8 << 20;

struct State {
    db: TpchDb,
    plans: Vec<Vec<Plan>>,
    pressured: SharedDevice,
    resident: SharedDevice,
    /// First result per query on each device (`Err` carries the typed
    /// error's rendering).
    cold_pressured: Vec<Result<Vec<QueryValue>, String>>,
    cold_resident: Vec<Result<Vec<QueryValue>, String>>,
}

/// Runs one query's plans in a fresh session on `device` (traced into
/// `sink` when given); returns the concatenated results and the session's
/// counters.
fn run_query(
    device: &SharedDevice,
    db: &TpchDb,
    plans: &[Plan],
    sink: Option<&Arc<TraceSink>>,
) -> (Result<Vec<QueryValue>, String>, Counters) {
    let session = Session::ocelot(device);
    if let Some(sink) = sink {
        session.attach_tracer(sink);
    }
    let mut values = Vec::new();
    let mut error = None;
    for plan in plans {
        match session.run(plan, db.catalog()) {
            Ok(more) => values.extend(more),
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    (error.map_or(Ok(values), Err), Counters::read(&session.metrics()))
}

fn device_mem(db: &TpchDb) -> usize {
    db.payload_bytes().max(MIN_DEVICE_MEM)
}

fn setup(cfg: &RunConfig) -> State {
    let db = TpchDb::generate(TpchConfig { scale_factor: cfg.scale(SCALE_FACTOR), seed: cfg.seed });
    let budget = device_mem(&db);
    let rewrite = RewriteConfig::optimized().with_device_budget(budget);
    let plans: Vec<Vec<Plan>> = STREAM
        .iter()
        .map(|id| {
            plans_for(&db, *id, &rewrite).expect("ported queries lower under a device budget")
        })
        .collect();
    let pressured = SharedDevice::gpu_with(GpuConfig::default().with_global_mem(budget));
    let resident = SharedDevice::gpu_with(GpuConfig::default().with_global_mem(CONTROL_MEM));
    let cold_pressured = plans.iter().map(|p| run_query(&pressured, &db, p, None).0).collect();
    let cold_resident = plans.iter().map(|p| run_query(&resident, &db, p, None).0).collect();
    State { db, plans, pressured, resident, cold_pressured, cold_resident }
}

pub fn run(cfg: &RunConfig, out: &mut Outcome) {
    let (state, setup_s) = repeat_setup(cfg.setup_reps(SETUP_REPS), || setup(cfg));
    let State { db, plans, pressured, resident, cold_pressured, cold_resident } = state;
    out.e2e.set("setup_s", setup_s);
    out.line(&format!(
        "sf {} seed {}: {} lineitem rows, payload {:.1} MB, device memory {:.1} MB, control {} MiB",
        db.config().scale_factor,
        cfg.seed,
        db.lineitem_rows(),
        db.payload_bytes() as f64 / 1e6,
        device_mem(&db) as f64 / 1e6,
        CONTROL_MEM >> 20
    ));

    // Correctness gate: pressured results against the resident control's.
    let mut expected = Vec::new();
    for ((id, got), reference) in STREAM.iter().zip(&cold_pressured).zip(&cold_resident) {
        let verdict = gate(reference, got, |want, have| compare_values(want, have));
        out.book(&format!("cold pressured q{id}"), verdict);
        expected.push(reference.as_ref().map_or(0, |values| rows_in(values)));
    }

    let mut cells: Vec<Cell> =
        STREAM.iter().map(|id| Cell::new("ocelot_gpu", format!("q{id}"))).collect();
    let mut control: Vec<Cell> =
        STREAM.iter().map(|id| Cell::new("ocelot_gpu", format!("q{id}"))).collect();
    // One pass of the stream on `device`; returns its summed latency and
    // counters (sessions are fresh per query, so their counters start at
    // zero; the device-wide cache and pool counters are deltas across the
    // pass). Samples go to `cells` when given, calls are wrapped in spans
    // and traced when given.
    let device_counters =
        |device: &SharedDevice| Counters::read(&Session::ocelot(device).metrics());
    let one_pass = |out: &mut Outcome,
                    device: &SharedDevice,
                    mut cells: Option<&mut Vec<Cell>>,
                    spans: Option<&Spans>| {
        let before = device_counters(device);
        let mut total = Counters::default();
        let mut wall = 0;
        for (q, id) in STREAM.iter().enumerate() {
            let ((result, counters), ns) =
                timed(spans, "tpch", &format!("ocelot_gpu q{id}"), || {
                    run_query(device, &db, &plans[q], spans.map(Spans::sink))
                });
            total.absorb(&counters, |scope| scope != Scope::Device);
            let verdict = row_count_verdict(result.map(|v| rows_in(&v)), expected[q]);
            if out.book(&format!("q{id}"), verdict) {
                wall += ns;
                if let Some(cells) = cells.as_deref_mut() {
                    cells[q].ns.push(ns);
                }
            }
        }
        total.absorb(&device_counters(device).since(&before), |scope| scope == Scope::Device);
        (wall, total)
    };

    // No burn-in passes: the seven set-up repetitions each ran the stream
    // on both devices, 3.3 s of the workload's own work.
    let mut pass_ns = Vec::new();
    let mut log = CounterLog::default();
    let (passes, wall_s) = run_passes(cfg.seconds, cfg.min_passes(), |pass| {
        let (wall, counters) = one_pass(out, &pressured, Some(&mut cells), None);
        pass_ns.push(wall);
        log.push(counters);
        out.after_pass(pass, cfg);
        if pass % CONTROL_EVERY == 0 {
            one_pass(out, &resident, Some(&mut control), None);
        }
    });
    out.line(&format!(
        "{passes} pressured passes and {} control passes in {wall_s:.2} s",
        control[0].ns.len()
    ));
    // Throughput is the pressured stream's: control passes are not in
    // `pass_ns`, so their operations are not counted either.
    let pressured_ops: usize = cells.iter().map(|c| c.ns.len()).sum();
    summarise(out, &cells, pressured_ops as f64 / passes as f64, &pass_ns);

    let quiet: Vec<f64> = cells.iter().map(Cell::quiet_ms).collect();
    let control_quiet: Vec<f64> = control.iter().map(Cell::quiet_ms).collect();
    for (cell, ms) in cells.iter().zip(&quiet) {
        out.layers.set(&format!("tpch.ocelot_gpu.{}_ms", cell.label), *ms);
    }
    out.layers.set("tpch.ocelot_gpu.geomean_ms", geomean(&quiet));
    out.layers.set("tpch.ocelot_gpu.sweep_ms", quiet.iter().sum());
    out.layers.set(
        "core.pressure_slowdown",
        quiet.iter().sum::<f64>() / control_quiet.iter().sum::<f64>(),
    );
    out.set_counters(&log);
    out.line("-- quiet-time (p10) ms per query: pressured device, resident control, slowdown --");
    for ((cell, pressured), resident) in cells.iter().zip(&quiet).zip(&control_quiet) {
        out.line(&format!(
            "{:<5}{pressured:>11.3}{resident:>11.3}{:>9.2}",
            cell.label,
            pressured / resident
        ));
    }

    if cfg.trace {
        let spans = Spans::new(Arc::new(TraceSink::new()));
        let (traced_ns, _) = one_pass(out, &pressured, None, Some(&spans));
        profile_pass(out, &db, &plans, &pressured, &spans);
        finish_trace(out, &spans, traced_ns, &pass_ns);
    }
}

/// The per-layer split: the stream lowered again (cold compile) and run
/// under `explain_analyze` on the pressured device.
fn profile_pass(
    out: &mut Outcome,
    db: &TpchDb,
    plans: &[Vec<Plan>],
    pressured: &SharedDevice,
    spans: &Spans,
) {
    let rewrite = RewriteConfig::optimized().with_device_budget(device_mem(db));
    let mut compile_ns = 0;
    for id in STREAM {
        let (lowered, ns) =
            timed(Some(spans), "engine::query", "lower", || plans_for(db, id, &rewrite));
        compile_ns += ns;
        out.book(
            &format!("lower q{id}"),
            lowered.map(|_| ()).map_err(|e| Verdict::Failed(e.to_string())),
        );
    }
    out.layers.set("engine.compile_cold_ms", compile_ns as f64 / 1e6);

    let mut split = OpSplit::default();
    for (id, plans) in STREAM.iter().zip(plans) {
        spans.span("tpch", &format!("profile ocelot_gpu q{id}"), || {
            let session = Session::ocelot(pressured);
            session.attach_tracer(spans.sink());
            let mut verdict = Ok(());
            for plan in plans {
                let profiled = spans.span("engine::plan", "explain_analyze", || {
                    session.explain_analyze(plan, db.catalog())
                });
                match profiled {
                    Ok((_, profile)) => split.absorb(&profile),
                    Err(error) => verdict = Err(Verdict::Failed(error.to_string())),
                }
            }
            out.book(&format!("profile q{id}"), verdict);
        });
    }
    split.set_ops(out, "ocelot_gpu");
    split.set_engine(out, "ocelot_gpu");
}
