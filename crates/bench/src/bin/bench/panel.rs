//! `tpch_large` and `tpch_small`: the paper's §5 panel — every ported
//! TPC-H query on each evaluated configuration through `run_query` — at a
//! data-bound and a dispatch-bound scale factor.

use crate::common::{
    compare_results, finish_trace, gate, plans_for, repeat_setup, row_count_verdict, run_passes,
    summarise, timed, Cell, OpSplit, Outcome, RunConfig, Verdict,
};
use crate::metrics::{BACKENDS, QUERY_IDS};
use crate::runner::{CounterLog, Counters, Runner, Scope, SessionRunner};
use crate::spans::Spans;
use crate::stats::geomean;
use ocelot_core::SharedDevice;
use ocelot_engine::{RewriteConfig, Session, TraceSink};
use ocelot_tpch::{QueryResult, TpchConfig, TpchDb};
use std::sync::Arc;
use std::time::Instant;

/// Which panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// Data-bound, MS / MP / Ocelot CPU. The modelled GPU is left out: its
    /// default 256 MiB cannot hold this scale and a larger one would add
    /// seconds of simulator wall time per pass.
    Large,
    /// Dispatch-bound (columns cache-resident), all four configurations.
    Small,
}

impl Panel {
    fn scale_factor(self) -> f64 {
        match self {
            Panel::Large => 0.5,
            Panel::Small => 0.01,
        }
    }

    /// Set-up alone is 12 s of work at the large scale, 1.8 s at the small
    /// one, where a pass is 0.12 s.
    fn burn_in_passes(self) -> usize {
        match self {
            Panel::Large => 0,
            Panel::Small => 10,
        }
    }

    fn setup_reps(self) -> usize {
        match self {
            Panel::Large => 3,
            Panel::Small => 15,
        }
    }
}

struct State {
    db: TpchDb,
    dbgen_s: f64,
    runners: Vec<Box<dyn Runner>>,
    /// Cold-pass result per `[runner][query]`, kept for the correctness
    /// check.
    cold: Vec<Vec<Result<QueryResult, String>>>,
}

/// dbgen, one session per configuration, and the first run of every cell.
fn setup(panel: Panel, cfg: &RunConfig) -> State {
    let start = Instant::now();
    let db = TpchDb::generate(TpchConfig {
        scale_factor: cfg.scale(panel.scale_factor()),
        seed: cfg.seed,
    });
    let dbgen_s = start.elapsed().as_secs_f64();
    let mut runners: Vec<Box<dyn Runner>> = vec![
        Box::new(SessionRunner { label: "ms", session: Session::monet_seq() }),
        Box::new(SessionRunner { label: "mp", session: Session::monet_par() }),
        Box::new(SessionRunner {
            label: "ocelot_cpu",
            session: Session::ocelot(&SharedDevice::cpu()),
        }),
    ];
    if panel == Panel::Small {
        runners.push(Box::new(SessionRunner {
            label: "ocelot_gpu",
            session: Session::ocelot(&SharedDevice::gpu()),
        }));
    }
    let cold = runners
        .iter()
        .map(|runner| {
            QUERY_IDS
                .iter()
                .map(|id| runner.run_query(&db, *id).map_err(|e| e.to_string()))
                .collect()
        })
        .collect();
    State { db, dbgen_s, runners, cold }
}

/// Counter totals of one pass: every runner is its own device here, so
/// session and device scopes are both summed over the runners.
fn pass_counters(runners: &[Box<dyn Runner>], before: &mut [Counters]) -> Counters {
    let mut total = Counters::default();
    for (runner, before) in runners.iter().zip(before.iter_mut()) {
        let now = Counters::read(&runner.metrics());
        let gpu = runner.label() == "ocelot_gpu";
        total.absorb(&now.since(before), |scope| scope != Scope::GpuSession || gpu);
        *before = now;
    }
    total
}

pub fn run(panel: Panel, cfg: &RunConfig, out: &mut Outcome) {
    let (state, setup_s) = repeat_setup(cfg.setup_reps(panel.setup_reps()), || setup(panel, cfg));
    let State { db, dbgen_s, runners, cold } = state;
    out.e2e.set("setup_s", setup_s);
    out.layers.set("tpch.dbgen_mrows_s", db.lineitem_rows() as f64 / 1e6 / dbgen_s);
    out.line(&format!(
        "sf {} seed {}: {} lineitem rows, {:.1} MB payload, dbgen {:.3} s",
        db.config().scale_factor,
        cfg.seed,
        db.lineitem_rows(),
        db.payload_bytes() as f64 / 1e6,
        dbgen_s
    ));

    // Correctness gate: every configuration's cold result against MS's.
    let mut expected_rows = Vec::new();
    for (q, id) in QUERY_IDS.iter().enumerate() {
        let reference = cold[0][q].clone();
        expected_rows.push(reference.as_ref().map_or(0, |r| r.rows.len()));
        for (runner, results) in runners.iter().zip(&cold) {
            let verdict = gate(&reference, &results[q], compare_results);
            out.book(&format!("cold {} q{id}", runner.label()), verdict);
        }
    }

    let mut cells: Vec<Cell> = runners
        .iter()
        .flat_map(|r| QUERY_IDS.iter().map(|id| Cell::new(r.label(), format!("q{id}"))))
        .collect();
    // One pass-major sweep: every (configuration, query) cell once, each
    // call timed; returns the pass's summed latency. Samples go to `cells`
    // when given, calls are wrapped in spans when given.
    let one_pass = |out: &mut Outcome, mut cells: Option<&mut Vec<Cell>>, spans: Option<&Spans>| {
        let mut total = 0;
        for (r, runner) in runners.iter().enumerate() {
            for (q, id) in QUERY_IDS.iter().enumerate() {
                let what = format!("{} q{id}", runner.label());
                let (result, ns) = timed(spans, "tpch", &what, || runner.run_query(&db, *id));
                let verdict = row_count_verdict(result.map(|r| r.rows.len()), expected_rows[q]);
                if out.book(&what, verdict) {
                    total += ns;
                    if let Some(cells) = cells.as_deref_mut() {
                        cells[r * QUERY_IDS.len() + q].ns.push(ns);
                    }
                }
            }
        }
        total
    };

    // Burn-in, then the timed passes: pass-major, so drift hits every cell
    // equally, with no trace sink attached.
    for _ in 0..cfg.burn_in_passes(panel.burn_in_passes()) {
        one_pass(out, None, None);
    }
    let mut pass_ns = Vec::new();
    let mut log = CounterLog::default();
    let mut before: Vec<Counters> = runners.iter().map(|r| Counters::read(&r.metrics())).collect();
    let (attempted_before, failed_before) = (out.attempted, out.failed);
    let (passes, wall_s) = run_passes(cfg.seconds, cfg.min_passes(), |pass| {
        pass_ns.push(one_pass(out, Some(&mut cells), None));
        log.push(pass_counters(&runners, &mut before));
        out.after_pass(pass, cfg);
    });
    let ops = (out.attempted - attempted_before) - (out.failed - failed_before);
    out.line(&format!("{passes} timed passes in {wall_s:.2} s"));
    summarise(out, &cells, ops as f64 / passes as f64, &pass_ns);

    for backend in BACKENDS {
        let quiet: Vec<f64> =
            cells.iter().filter(|c| c.backend == backend).map(Cell::quiet_ms).collect();
        if quiet.is_empty() {
            continue;
        }
        for (cell, ms) in cells.iter().filter(|c| c.backend == backend).zip(&quiet) {
            out.layers.set(&format!("tpch.{backend}.{}_ms", cell.label), *ms);
        }
        out.layers.set(&format!("tpch.{backend}.geomean_ms"), geomean(&quiet));
        if backend.starts_with("ocelot") {
            out.layers.set(&format!("tpch.{backend}.sweep_ms"), quiet.iter().sum());
        }
    }
    out.set_counters(&log);

    if cfg.trace {
        let spans = Spans::new(Arc::new(TraceSink::new()));
        for runner in runners.iter().filter(|r| r.is_ocelot()) {
            runner.attach_tracer(spans.sink());
        }
        let traced_ns = one_pass(out, None, Some(&spans));
        profile_pass(out, &db, &runners, &spans);
        for runner in &runners {
            runner.detach_tracer();
        }
        finish_trace(out, &spans, traced_ns, &pass_ns);
    }
    print_panel(out, &db, &cells);
}

/// The per-layer split: every plan lowered and run under `explain_analyze`,
/// per-node time summed by operator class for each configuration.
fn profile_pass(out: &mut Outcome, db: &TpchDb, runners: &[Box<dyn Runner>], spans: &Spans) {
    let cfg = RewriteConfig::optimized();
    for runner in runners {
        let backend = runner.label();
        let mut split = OpSplit::default();
        let mut compile_ns = 0;
        for id in QUERY_IDS {
            spans.span("tpch", &format!("profile {backend} q{id}"), || {
                let (plans, ns) =
                    timed(Some(spans), "engine::query", "lower", || plans_for(db, id, &cfg));
                compile_ns += ns;
                let verdict = plans.map_err(|e| Verdict::Failed(e.to_string())).and_then(|plans| {
                    for plan in &plans {
                        let (_, profile) = spans
                            .span("engine::plan", "explain_analyze", || {
                                runner.profile(plan, db.catalog())
                            })
                            .map_err(|e| Verdict::Failed(e.to_string()))?;
                        split.absorb(&profile);
                    }
                    Ok(())
                });
                out.book(&format!("profile {backend} q{id}"), verdict);
            });
        }
        split.set_ops(out, backend);
        if backend == "ocelot_cpu" {
            out.layers.set("engine.compile_cold_ms", compile_ns as f64 / 1e6);
            split.set_engine(out, backend);
        }
    }
}

/// The paper-style panel: query x configuration quiet-time ms, Ocelot CPU over
/// MP, and Ocelot CPU throughput against the memcpy roofline.
fn print_panel(out: &mut Outcome, db: &TpchDb, cells: &[Cell]) {
    let cell = |backend: &str, id: u32| {
        cells
            .iter()
            .find(|c| c.backend == backend && c.label == format!("q{id}"))
            .map(Cell::quiet_ms)
    };
    let roofline = out.layers.get("mem.memcpy_nt_gbs");
    out.line("-- panel: quiet-time (p10) ms per query (lower is better) --");
    out.line(&format!(
        "{:<5}{:>11}{:>11}{:>11}{:>11}{:>9}{:>10}{:>10}",
        "query", "ms", "mp", "ocelot_cpu", "ocelot_gpu", "ocl/mp", "Melem/s", "of memcpy"
    ));
    for id in QUERY_IDS {
        let mut row = format!("q{id:<4}");
        for backend in BACKENDS {
            row.push_str(
                &cell(backend, id).map_or(format!("{:>11}", "-"), |ms| format!("{ms:>11.3}")),
            );
        }
        if let (Some(mp), Some(ocelot)) = (cell("mp", id), cell("ocelot_cpu", id)) {
            let seconds = ocelot / 1e3;
            let fraction = db.payload_bytes() as f64 / 1e9 / seconds / roofline;
            row.push_str(&format!(
                "{:>9.2}{:>10.1}{:>10}",
                ocelot / mp,
                db.lineitem_rows() as f64 / 1e6 / seconds,
                if roofline > 0.0 { format!("{fraction:.3}") } else { "-".to_string() }
            ));
        }
        out.line(&row);
    }
}
