//! Plumbing the workloads share: run configuration, the pass loop, latency
//! cells and their end-to-end summary, the correctness rule, the
//! operator-class partition of an `explain_analyze` profile, and the two
//! machine probes (`VmHWM`, memcpy bandwidth).

use crate::metrics::{end_to_end, per_layer, Metrics, OP_CLASSES};
use crate::runner::CounterLog;
use crate::spans::Spans;
use crate::stats::{geomean, quiet_ms, QUIET_PCT};
use ocelot_engine::{Plan, PlanProfile, QueryBuildError, QueryValue, RewriteConfig};
use ocelot_tpch::{
    q10_query, q12_queries, q14_query, q1_query, q3_query, q4_query, q5_query, q6_query,
    QueryResult, TpchDb,
};
use std::hint::black_box;
use std::time::Instant;

/// Scale factor of `--check` and the in-binary self-test: every workload,
/// one pass, seconds in total.
pub const CHECK_SCALE: f64 = 0.002;

/// Relative tolerance for float results across configurations
/// (aggregation order differs; sf 1 agrees to 6e-6).
const FLOAT_REL_TOL: f64 = 1e-4;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// dbgen seed and binding-rotation offset.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced pass and fill the per-layer metrics.
    pub trace: bool,
    /// `--check`: tiny scale, one pass, no burn-in, set-up once.
    pub check: bool,
}

impl RunConfig {
    pub fn scale(&self, full: f64) -> f64 {
        if self.check {
            CHECK_SCALE
        } else {
            full
        }
    }

    /// Set-up is repeated and its lower decile reported, so a busy
    /// neighbour or a slow first-touch page fault does not decide `setup_s`.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.check {
            1
        } else {
            full
        }
    }

    /// Untimed passes between set-up and the timed phase. A fixed count,
    /// not a duration: `peak_rss_mb` is read a fixed number of passes into
    /// the run, and resident memory grows in steps with the passes done
    /// (`serve_mixed`: +5 MB in the 13th pass, +8 MB in the 26th, +14 MB in the 52nd), so a
    /// burn-in by the clock put the reading on either side of a step. Each
    /// workload's count makes set-up plus burn-in about three seconds of
    /// its own work on this sandbox (README, "Steadiness").
    pub fn burn_in_passes(&self, full: usize) -> usize {
        if self.check {
            0
        } else {
            full
        }
    }

    /// Passes a timed phase takes at least, however short `--seconds` is:
    /// `peak_rss_mb` is read after the third, and even a disturbed box
    /// leaves each cell three chances at a quiet sample.
    pub fn min_passes(&self) -> usize {
        if self.check {
            1
        } else {
            3
        }
    }
}

/// Everything a workload hands back to `main`.
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers (each is also a failed op); any makes the run exit
    /// non-zero.
    pub wrong: Vec<String>,
    /// Human-readable report, printed before the result line.
    pub report: String,
    /// Chrome trace of the traced pass.
    pub trace_json: Option<String>,
    /// `VmRSS` when `peak_rss_mb` was taken (see [`Outcome::after_pass`]).
    rss_at_mark_mb: f64,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            e2e: Metrics::new(end_to_end()),
            layers: Metrics::new(per_layer()),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
            report: String::new(),
            trace_json: None,
            rss_at_mark_mb: 0.0,
        }
    }

    /// Memory bookkeeping, called after every timed pass. `peak_rss_mb` is
    /// `VmHWM` after the third timed pass — a fixed amount of work, so runs
    /// and commits compare: the device buffer pool retains without bound,
    /// so `VmHWM` at exit grows with however many passes a run managed.
    /// That growth is reported on its own as `mem.rss_growth_mb` (`VmRSS`
    /// now minus `VmRSS` at the mark).
    pub fn after_pass(&mut self, pass: usize, cfg: &RunConfig) {
        if pass + 1 == cfg.min_passes() {
            self.e2e.set("peak_rss_mb", status_mb("VmHWM"));
            self.rss_at_mark_mb = status_mb("VmRSS");
        }
        self.layers.set("mem.rss_growth_mb", status_mb("VmRSS") - self.rss_at_mark_mb);
    }

    /// Books one operation: `Err` is a failed op, `wrong` additionally a
    /// wrong answer.
    pub fn book(&mut self, what: &str, verdict: Result<(), Verdict>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(Verdict::Failed(why)) => {
                self.failed += 1;
                self.line(&format!("FAILED {what}: {why}"));
                false
            }
            Err(Verdict::Wrong(why)) => {
                self.failed += 1;
                self.wrong.push(format!("{what}: {why}"));
                self.line(&format!("WRONG {what}: {why}"));
                false
            }
        }
    }

    pub fn line(&mut self, text: &str) {
        self.report.push_str(text);
        self.report.push('\n');
    }

    /// Copies the per-pass counter means into the per-layer metrics and
    /// lists them, with the range where passes disagreed.
    pub fn set_counters(&mut self, log: &CounterLog) {
        self.line("-- kernel/core counters, mean per pass (min-max where passes differ) --");
        for (metric, mean, min, max) in log.summary() {
            self.layers.set(metric, mean);
            if min != max {
                self.line(&format!("{metric:<28} {mean:>14.3}  ({min:.3}-{max:.3})"));
            } else if mean != 0.0 {
                self.line(&format!("{metric:<28} {mean:>14.3}"));
            }
        }
    }
}

/// Why an operation did not count.
pub enum Verdict {
    /// A typed `Err`, a shed request.
    Failed(String),
    /// A result that disagrees with its reference.
    Wrong(String),
}

/// The cold-pass correctness gate for one cell: a typed error on either
/// side is a failed op, a disagreement under `compare` a wrong answer.
pub fn gate<T>(
    reference: &Result<T, String>,
    got: &Result<T, String>,
    compare: impl FnOnce(&T, &T) -> Result<(), String>,
) -> Result<(), Verdict> {
    match (reference, got) {
        (_, Err(error)) => Err(Verdict::Failed(error.clone())),
        (Err(error), _) => Err(Verdict::Failed(format!("no reference result: {error}"))),
        (Ok(reference), Ok(got)) => compare(reference, got).map_err(Verdict::Wrong),
    }
}

/// The cheap per-op check of the timed passes: the result has the row
/// count its cold-pass reference had.
pub fn row_count_verdict<E: std::fmt::Display>(
    rows: Result<usize, E>,
    expected: usize,
) -> Result<(), Verdict> {
    match rows {
        Ok(rows) if rows == expected => Ok(()),
        Ok(rows) => Err(Verdict::Wrong(format!("{rows} rows, the cold pass had {expected}"))),
        Err(error) => Err(Verdict::Failed(error.to_string())),
    }
}

/// Latency samples of one cell: a configuration running one query with
/// one set of literals, so its samples differ only by what the machine did.
pub struct Cell {
    pub backend: &'static str,
    pub label: String,
    pub ns: Vec<u64>,
}

impl Cell {
    pub fn new(backend: &'static str, label: impl Into<String>) -> Cell {
        Cell { backend, label: label.into(), ns: Vec::new() }
    }

    /// The cell's reported latency (`stats::QUIET_PCT`).
    pub fn quiet_ms(&self) -> f64 {
        quiet_ms(&self.ns)
    }
}

/// Fills the four latency/throughput end-to-end metrics: `geomean_ms` over
/// every cell's quiet-time latency, `ocelot_geomean_ms` and
/// `ocelot_sweep_ms` over the Ocelot cells, and `ops_per_s` as the
/// operations of one pass over the quiet-time pass duration (`pass_ns`:
/// per timed pass, the summed latency of its operations).
pub fn summarise(out: &mut Outcome, cells: &[Cell], ops_per_pass: f64, pass_ns: &[u64]) {
    let quiet = |ocelot_only: bool| -> Vec<f64> {
        cells
            .iter()
            .filter(|c| !ocelot_only || c.backend.starts_with("ocelot"))
            .map(Cell::quiet_ms)
            .collect()
    };
    out.e2e.set("geomean_ms", geomean(&quiet(false)));
    out.e2e.set("ocelot_geomean_ms", geomean(&quiet(true)));
    out.e2e.set("ocelot_sweep_ms", quiet(true).iter().sum());
    out.e2e.set("ops_per_s", ops_per_pass / (quiet_ms(pass_ns) / 1e3));
    out.line(&format!(
        "latencies: p{QUIET_PCT} of {} samples per cell; ops_per_s: {ops_per_pass} ops over the \
         p{QUIET_PCT} of {} pass durations",
        cells.iter().map(|c| c.ns.len()).min().unwrap_or(0),
        pass_ns.len()
    ));
}

/// Runs `pass(index)` until the phase has lasted about `seconds`: a further
/// pass starts only while it would end closer to the target than stopping
/// now, and never fewer than `min_passes`. Returns `(passes, wall seconds)`.
pub fn run_passes(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize)) -> (usize, f64) {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next_ends = elapsed + if done == 0 { 0.0 } else { 0.5 * elapsed / done as f64 };
        if done >= min_passes && next_ends > seconds {
            return (done, elapsed);
        }
        pass(done);
        done += 1;
    }
}

/// Times `f`, inside a span when the pass is traced.
pub fn timed<T>(
    spans: Option<&Spans>,
    layer: &'static str,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let call = || {
        let start = Instant::now();
        let value = black_box(f());
        (value, start.elapsed().as_nanos() as u64)
    };
    match spans {
        Some(spans) => spans.span(layer, name, call),
        None => call(),
    }
}

/// Repeats `setup` `reps` times, dropping the previous state first (so
/// `peak_rss_mb` never holds two databases), and returns the last state
/// with the quiet-time set-up duration in seconds — the same lower decile
/// as every other timing, so three repetitions report their fastest.
pub fn repeat_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut state = None;
    let mut ns = Vec::new();
    for _ in 0..reps.max(1) {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup());
        ns.push(start.elapsed().as_nanos() as u64);
    }
    (state.expect("at least one repetition"), quiet_ms(&ns) / 1e3)
}

/// The DSL plans behind a ported query id (Q12 lowers to two plans).
pub fn plans_for(db: &TpchDb, id: u32, cfg: &RewriteConfig) -> Result<Vec<Plan>, QueryBuildError> {
    let queries = match id {
        1 => vec![q1_query(db)],
        3 => vec![q3_query(db)],
        4 => vec![q4_query(db)],
        5 => vec![q5_query(db)],
        6 => vec![q6_query(db)],
        10 => vec![q10_query(db)],
        12 => {
            let (all, high) = q12_queries(db);
            vec![all, high]
        }
        14 => vec![q14_query(db)],
        other => panic!("Q{other} is not a ported query"),
    };
    queries.iter().map(|q| q.lower_with(db.catalog(), cfg)).collect()
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// Column-major plan results as row-major floats, sorted so that
/// configurations with different group or tie order compare equal, plus
/// which columns are integers (`IntColumn`/`OidColumn`).
fn rows_of(values: &[QueryValue]) -> Option<(Vec<Vec<f64>>, Vec<bool>)> {
    let columns: Vec<Vec<f64>> = values
        .iter()
        .map(|value| match value {
            QueryValue::Scalar(s) => vec![*s as f64],
            QueryValue::IntColumn(v) => v.iter().map(|x| *x as f64).collect(),
            QueryValue::FloatColumn(v) => v.iter().map(|x| *x as f64).collect(),
            QueryValue::OidColumn(v) => v.iter().map(|x| *x as f64).collect(),
        })
        .collect();
    let integer = values
        .iter()
        .map(|value| matches!(value, QueryValue::IntColumn(_) | QueryValue::OidColumn(_)))
        .collect();
    let len = columns.first()?.len();
    if columns.iter().any(|c| c.len() != len) {
        return None;
    }
    let mut rows: Vec<Vec<f64>> =
        (0..len).map(|row| columns.iter().map(|c| c[row]).collect()).collect();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(a.len().cmp(&b.len()))
    });
    Some((rows, integer))
}

/// Row count of column-major plan results (a scalar is one row) — the
/// cheap per-op check of the timed passes.
pub fn rows_in(values: &[QueryValue]) -> usize {
    match values.first() {
        None => 0,
        Some(QueryValue::Scalar(_)) => 1,
        Some(QueryValue::IntColumn(v)) => v.len(),
        Some(QueryValue::FloatColumn(v)) => v.len(),
        Some(QueryValue::OidColumn(v)) => v.len(),
    }
}

/// The benchmark's result rule: same shape, non-empty, integer columns
/// exact, float columns within relative 1e-4.
fn compare_rows(reference: &[Vec<f64>], got: &[Vec<f64>], integer: &[bool]) -> Result<(), String> {
    if reference.is_empty() {
        return Err("reference result is empty".to_string());
    }
    if reference.len() != got.len() {
        return Err(format!("{} rows, reference has {}", got.len(), reference.len()));
    }
    for (index, (want, have)) in reference.iter().zip(got).enumerate() {
        if want.len() != have.len() || want.len() != integer.len() {
            return Err(format!(
                "row {index} has {} columns, reference {}",
                have.len(),
                want.len()
            ));
        }
        for (c, (x, y)) in want.iter().zip(have).enumerate() {
            let agrees = if integer[c] {
                x == y
            } else {
                (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs()).max(1.0)
            };
            if !agrees {
                return Err(format!("row {index} column {c}: {y} vs reference {x}"));
            }
        }
    }
    Ok(())
}

/// The result rule for typed plan results (served and pressured streams):
/// the value kinds say which columns are integers.
pub fn compare_values(reference: &[QueryValue], got: &[QueryValue]) -> Result<(), String> {
    match (rows_of(reference), rows_of(got)) {
        (Some((reference, integer)), Some((got, got_integer))) if integer == got_integer => {
            compare_rows(&reference, &got, &integer)
        }
        (Some(_), Some(_)) => Err("column kinds differ from the reference".to_string()),
        _ => Err("ragged result columns".to_string()),
    }
}

/// The result rule for shaped TPC-H results, whose rows carry no type. A
/// column counts as integer when every value in it, on both sides, is a
/// whole number below 2^22 (keys, dates, dictionary codes, counts) — and,
/// because a lone f32 sum of that size is whole by coincidence one time in
/// four to eight, only when the column has at least four rows or stays
/// below 2^17. A float column misjudged as integer needs every value on
/// both sides whole by coincidence: below 1e-4 per run.
pub fn compare_results(reference: &QueryResult, got: &QueryResult) -> Result<(), String> {
    if reference.columns != got.columns {
        return Err(format!("columns {:?}, reference {:?}", got.columns, reference.columns));
    }
    let column = |c: usize| {
        reference.rows.iter().chain(&got.rows).filter_map(move |row| row.get(c).copied())
    };
    let integer: Vec<bool> = (0..reference.columns.len())
        .map(|c| {
            let largest = column(c).fold(0.0, |m: f64, v| m.max(v.abs()));
            column(c).all(|v| v.fract() == 0.0)
                && largest < 4_194_304.0
                && (reference.rows.len() >= 4 || largest < 131_072.0)
        })
        .collect();
    compare_rows(&reference.rows, &got.rows, &integer)
}

// ---------------------------------------------------------------------------
// Operator-class partition
// ---------------------------------------------------------------------------

/// Index into [`OP_CLASSES`] of a `NodeProfile::op` rendering.
pub fn class_of(op: &str) -> usize {
    let name = op.split_whitespace().next().unwrap_or("");
    let class = match name {
        "bind" => "bind",
        "union_oids" => "select",
        "fetch" => "fetch",
        "mul_f32" | "add_f32" | "sub_f32" | "const_minus_f32" | "const_plus_f32"
        | "mul_const_f32" | "cast_i32_f32" | "extract_year" => "calc",
        "group_by" | "group_reps" => "group",
        "sum_f32" => "agg",
        _ if name.starts_with("select_") => "select",
        _ if name.ends_with("_join") || name.contains("_join_") => "join",
        _ if name.starts_with("grouped_") => "agg",
        _ if name.starts_with("sort_") => "sort",
        _ => "other",
    };
    OP_CLASSES.iter().position(|c| *c == class).expect("class is in OP_CLASSES")
}

/// `explain_analyze` time of one configuration, split by operator class.
/// `class_ns` and `overhead_ns` partition `total_ns` exactly (the engine's
/// conservation invariant, re-checked by [`OpSplit::partition_holds`]).
#[derive(Debug, Clone, Default)]
pub struct OpSplit {
    pub class_ns: [u64; OP_CLASSES.len()],
    pub overhead_ns: u64,
    pub total_ns: u64,
    pub nodes: u64,
}

impl OpSplit {
    pub fn absorb(&mut self, profile: &PlanProfile) {
        for node in &profile.nodes {
            self.class_ns[class_of(&node.op)] += node.host_ns;
        }
        self.overhead_ns += profile.overhead_ns;
        self.total_ns += profile.total_host_ns;
        self.nodes += profile.nodes.len() as u64;
    }

    pub fn partition_holds(&self) -> bool {
        self.class_ns.iter().sum::<u64>() + self.overhead_ns == self.total_ns
    }

    /// Share of the profiled total spent inside operators.
    pub fn operator_share(&self) -> f64 {
        self.class_ns.iter().sum::<u64>() as f64 / self.total_ns.max(1) as f64
    }

    /// Writes `ops.<backend>.*_ms`.
    pub fn set_ops(&self, out: &mut Outcome, backend: &str) {
        for (class, ns) in OP_CLASSES.iter().zip(self.class_ns) {
            out.layers.set(&format!("ops.{backend}.{class}_ms"), ns as f64 / 1e6);
        }
    }

    /// Writes the `engine.*` plan-run metrics for the workload's primary
    /// Ocelot configuration and checks the partition.
    pub fn set_engine(&self, out: &mut Outcome, backend: &str) {
        out.layers.set("engine.nodes", self.nodes as f64);
        out.layers.set("engine.profiled_total_ms", self.total_ns as f64 / 1e6);
        out.layers.set("engine.plan_overhead_ms", self.overhead_ns as f64 / 1e6);
        out.layers.set("engine.us_per_node", self.total_ns as f64 / 1e3 / self.nodes.max(1) as f64);
        out.line(&format!(
            "-- where the time went on {backend} (explain_analyze, {} nodes, {:.3} ms) --",
            self.nodes,
            self.total_ns as f64 / 1e6
        ));
        for (class, ns) in OP_CLASSES.iter().zip(self.class_ns) {
            out.line(&format!(
                "{class:<14} {:>12.3} ms {:>6.1} %",
                ns as f64 / 1e6,
                100.0 * ns as f64 / self.total_ns.max(1) as f64
            ));
        }
        out.line(&format!(
            "{:<14} {:>12.3} ms {:>6.1} %   operators {:.1} % of profiled time",
            "plan overhead",
            self.overhead_ns as f64 / 1e6,
            100.0 * self.overhead_ns as f64 / self.total_ns.max(1) as f64,
            100.0 * self.operator_share()
        ));
        if !self.partition_holds() {
            out.wrong.push(format!("{backend}: operator classes + overhead != profiled total"));
        }
    }
}

/// Finishes the traced pass: `trace.*` metrics, the span table, the trace
/// file contents.
pub fn finish_trace(
    out: &mut Outcome,
    spans: &Spans,
    traced_pass_ns: u64,
    untraced_pass_ns: &[u64],
) {
    let untraced =
        crate::stats::median(&untraced_pass_ns.iter().map(|v| *v as f64).collect::<Vec<_>>());
    out.layers.set("trace.overhead_frac", traced_pass_ns as f64 / untraced - 1.0);
    out.layers.set("trace.events", (spans.len() + spans.sink().len()) as f64);
    out.line("-- benchmark spans by layer (traced pass) --");
    for (layer, count, total_ns, self_ns) in spans.by_layer() {
        out.line(&format!(
            "{layer:<22} {count:>6} spans {:>12.3} ms total {:>12.3} ms self",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
    out.trace_json = Some(spans.to_chrome_trace());
}

// ---------------------------------------------------------------------------
// Machine probes
// ---------------------------------------------------------------------------

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB; 0 where
/// `/proc` is unavailable.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restricts the process to one of the CPUs it may run on (the highest
/// numbered: CPU 0 takes most interrupts) and returns it. Threads spawned
/// afterwards inherit the mask and `available_parallelism()` reads it, so
/// the engine sizes every pool to one thread. `None` where the mask cannot
/// be read or set; the run then goes ahead unpinned.
///
/// Why: the sandbox is two virtual CPUs of a shared host. Waking a parked
/// pool thread on the other virtual CPU costs 6 us or 35-45 us for minutes
/// at a time, depending on where the guest scheduler last put it; that
/// alone moved every dispatch-bound metric by 30 % between sets of runs.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc and musl both export these; std links one of them already.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `size` writable bytes; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut only = [0u64; 16];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is `size` readable bytes.
    (unsafe { sched_setaffinity(0, size, only.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Best-of-five bandwidth of copying `bytes` split over `threads` threads,
/// counted as bytes read plus bytes written per second, in GB/s — the
/// roofline the panel divides by, and a drift canary.
pub fn memcpy_gbs(bytes: usize, threads: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let chunk = bytes.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (d, s) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                scope.spawn(move || d.copy_from_slice(s));
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&dst);
    }
    2.0 * bytes as f64 / best / 1e9
}

/// Both memcpy probes: `(1 thread, available_parallelism threads)`.
pub fn memcpy_probe(check: bool) -> (f64, f64) {
    let bytes = if check { 4 << 20 } else { 64 << 20 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    (memcpy_gbs(bytes, 1), memcpy_gbs(bytes, threads))
}

/// Writes `mem.*` from the probes taken at the start and end of the run.
pub fn set_memcpy(out: &mut Outcome, start: (f64, f64), end: (f64, f64)) {
    out.layers.set("mem.memcpy_1t_gbs", (start.0 + end.0) / 2.0);
    out.layers.set("mem.memcpy_nt_gbs", (start.1 + end.1) / 2.0);
    out.layers.set("mem.memcpy_drift", end.0 / start.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_rule_ints_exact_floats_relative() {
        let ints = [true, false, true];
        let reference = vec![vec![1.0, 1000.5, 7.0], vec![2.0, 2000.25, 9.0]];
        assert!(compare_rows(&reference, &reference, &ints).is_ok());
        // Float column within 1e-4 relative.
        let close = vec![vec![1.0, 1000.55, 7.0], vec![2.0, 2000.25, 9.0]];
        assert!(compare_rows(&reference, &close, &ints).is_ok());
        let far = vec![vec![1.0, 1001.5, 7.0], vec![2.0, 2000.25, 9.0]];
        assert!(compare_rows(&reference, &far, &ints).unwrap_err().contains("column 1"));
        // Integer column off by one is wrong however large the value.
        let off = vec![vec![1.0, 1000.5, 8.0], vec![2.0, 2000.25, 9.0]];
        assert!(compare_rows(&reference, &off, &ints).unwrap_err().contains("column 2"));
        assert!(compare_rows(&reference, &reference[..1], &ints).unwrap_err().contains("rows"));
        assert!(compare_rows(&[], &[], &ints).unwrap_err().contains("empty"));
    }

    #[test]
    fn typed_results_compare_order_independently_with_their_kinds() {
        let a = [QueryValue::IntColumn(vec![2, 1]), QueryValue::FloatColumn(vec![20.0, 10.0])];
        let b = [QueryValue::IntColumn(vec![1, 2]), QueryValue::FloatColumn(vec![10.0005, 20.0])];
        assert!(compare_values(&a, &b).is_ok());
        let wrong_key =
            [QueryValue::IntColumn(vec![1, 3]), QueryValue::FloatColumn(vec![10.0, 20.0])];
        assert!(compare_values(&a, &wrong_key).is_err());
        // A whole-valued float sum is still a float: 3616738 vs 3616738.5.
        let sum = |v: f32| [QueryValue::Scalar(v)];
        assert!(compare_values(&sum(3_616_738.0), &sum(3_616_738.5)).is_ok());
        let ragged = [QueryValue::IntColumn(vec![1]), QueryValue::IntColumn(vec![])];
        assert!(compare_values(&ragged, &ragged).unwrap_err().contains("ragged"));
        assert!(compare_values(&a, &[a[1].clone(), a[0].clone()]).unwrap_err().contains("kinds"));
    }

    #[test]
    fn untyped_results_infer_integer_columns_conservatively() {
        let result = |rows: Vec<Vec<f64>>| QueryResult {
            query: 1,
            columns: vec!["key".to_string(), "value".to_string()],
            rows,
        };
        // Four rows of whole numbers on both sides: an integer column, so
        // an off-by-one count is wrong.
        let keys = |count: f64| {
            result(
                (0..4).map(|k| vec![k as f64, if k == 3 { count } else { 1_500_000.0 }]).collect(),
            )
        };
        assert!(compare_results(&keys(1_500_000.0), &keys(1_500_000.0)).is_ok());
        assert!(compare_results(&keys(1_500_000.0), &keys(1_500_001.0)).is_err());
        // One row, whole by coincidence on both sides, large: a float sum.
        let sum = |v: f64| result(vec![vec![0.0, v]]);
        assert!(compare_results(&sum(1_200_000.0), &sum(1_200_001.0)).is_ok());
        // One small whole value (a dictionary code, a count) stays exact.
        assert!(compare_results(&sum(17.0), &sum(18.0)).is_err());
        let mut renamed = sum(1.0);
        renamed.columns[1] = "other".to_string();
        assert!(compare_results(&sum(1.0), &renamed).unwrap_err().contains("columns"));
    }

    #[test]
    fn operator_classes_cover_the_plan_ops() {
        let class = |op: &str| OP_CLASSES[class_of(op)];
        assert_eq!(class("bind lineitem.l_shipdate"), "bind");
        assert_eq!(class("select_range_i32 [1, 2]"), "select");
        assert_eq!(class("union_oids"), "select");
        assert_eq!(class("fetch"), "fetch");
        assert_eq!(class("const_minus_f32 1.0"), "calc");
        assert_eq!(class("pkfk_join"), "join");
        assert_eq!(class("pkfk_join_partitioned ndv=10"), "join");
        assert_eq!(class("semi_join"), "join");
        assert_eq!(class("group_by"), "group");
        assert_eq!(class("grouped_sum_f32"), "agg");
        assert_eq!(class("sum_f32"), "agg");
        assert_eq!(class("sort_order_f32 desc"), "sort");
        assert_eq!(class("sync"), "other");
        assert_eq!(class("result"), "other");
    }

    #[test]
    fn pass_loop_respects_minimum_and_target() {
        let mut count = 0;
        let (passes, _) = run_passes(0.0, 3, |_| count += 1);
        assert_eq!((passes, count), (3, 3));
        // Stops within half a pass of the target (loose: sleeps overrun on a
        // loaded box, they never underrun).
        let (passes, wall) =
            run_passes(0.05, 1, |_| std::thread::sleep(std::time::Duration::from_millis(10)));
        assert!((1..=7).contains(&passes) && wall >= 0.04, "{passes} passes in {wall} s");
    }

    #[test]
    fn setup_repetition_reports_a_duration_and_keeps_the_last_state() {
        let mut calls = 0;
        let (state, seconds) = repeat_setup(3, || {
            calls += 1;
            calls
        });
        assert_eq!(state, 3);
        assert!(seconds >= 0.0);
    }
}
