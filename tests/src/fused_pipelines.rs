//! PR 16 — fused streaming pipelines: a `pipeline` node gives the same
//! answer as the nodes it replaced.
//!
//! **The equality rule, for fusion.** MS and MP run a pipeline member by
//! member, so fused and unfused plans are *bit-equal* there. On the Ocelot
//! devices integers, counts and OID lists are exact, and floats agree within
//! relative `1e-4`: a fused float sum partitions **base rows** (or the
//! positions of the candidate list it reads through) across work-groups,
//! where the unfused plan partitions the *compacted* intermediate column —
//! the additions happen in a different grouping. Both are bit-reproducible
//! run to run (the partition reads row and group counts only); they are not
//! bit-equal to each other.
//!
//! Covered here: every ported query fused vs. unfused on all four backends;
//! random conjunct lists and map trees against the MonetDB-style sequential
//! operators (row counts around the 32-row word and the 1024-row tile, empty
//! input, everything or nothing selected, candidate lists of deferred
//! length, extreme integer bounds, NaN under float ranges); bitmap padding;
//! the verifier's pipeline contract; and the launch/flush budgets the
//! rewrite exists for.

use ocelot_analyze::{verify, FlushBound, PlanDiagnostic};
use ocelot_core::ops::rowexpr::{select_where, Map, Pred};
use ocelot_core::{OcelotContext, SharedDevice, TraceSink};
use ocelot_engine::plan::{Plan, PlanBuilder, PlanNode, PlanOp, QueryValue, Var};
use ocelot_engine::{
    col, fuse_plan, lit, AggSpec, Backend, PlanCache, Query, RewriteConfig, Session, TraceEventKind,
};
use ocelot_storage::{Bat, Catalog, CmpOp, Table};
use ocelot_tpch::{
    q10_query, q12_queries, q14_query, q1_params, q1_query, q1_query_p, q3_query, q4_query,
    q5_query, q6_params, q6_query, q6_query_p, TpchConfig, TpchDb,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn db() -> &'static TpchDb {
    static DB: OnceLock<TpchDb> = OnceLock::new();
    DB.get_or_init(|| TpchDb::generate(TpchConfig { scale_factor: 0.01, seed: 16 }))
}

/// Every ported query, by name (Q12 is two plans).
fn ported_queries(db: &TpchDb) -> Vec<(&'static str, Query)> {
    let (q12_all, q12_high) = q12_queries(db);
    vec![
        ("q1", q1_query(db)),
        ("q3", q3_query(db)),
        ("q4", q4_query(db)),
        ("q5", q5_query(db)),
        ("q6", q6_query(db)),
        ("q10", q10_query(db)),
        ("q12_all", q12_all),
        ("q12_high", q12_high),
        ("q14", q14_query(db)),
    ]
}

fn unfused() -> RewriteConfig {
    RewriteConfig { fuse: false, ..RewriteConfig::optimized() }
}

fn pipelines(plan: &Plan) -> Vec<&PlanNode> {
    plan.nodes().iter().filter(|node| matches!(node.op, PlanOp::Pipeline { .. })).collect()
}

/// Result columns as rows of `f64`, sorted — float sums that differ in their
/// last bits may order a `sort by revenue` differently.
fn sorted_rows(values: &[QueryValue]) -> Vec<Vec<f64>> {
    let columns: Vec<Vec<f64>> = values
        .iter()
        .map(|value| match value {
            QueryValue::Scalar(s) => vec![*s as f64],
            QueryValue::IntColumn(v) => v.iter().map(|x| *x as f64).collect(),
            QueryValue::FloatColumn(v) => v.iter().map(|x| *x as f64).collect(),
            QueryValue::OidColumn(v) => v.iter().map(|x| *x as f64).collect(),
        })
        .collect();
    let mut rows: Vec<Vec<f64>> =
        (0..columns[0].len()).map(|row| columns.iter().map(|c| c[row]).collect()).collect();
    rows.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in results"));
    rows
}

/// The one equality rule: integer-typed columns exact, floats within
/// relative `1e-4`.
fn assert_reference_equal(label: &str, fused: &[QueryValue], reference: &[QueryValue]) {
    assert_eq!(fused.len(), reference.len(), "{label}: result arity");
    let exact: Vec<bool> = reference
        .iter()
        .map(|value| matches!(value, QueryValue::IntColumn(_) | QueryValue::OidColumn(_)))
        .collect();
    let (fused, reference) = (sorted_rows(fused), sorted_rows(reference));
    assert_eq!(fused.len(), reference.len(), "{label}: row count");
    for (row, (a, b)) in fused.iter().zip(&reference).enumerate() {
        for (column, (x, y)) in a.iter().zip(b).enumerate() {
            let tolerance = if exact[column] { 0.0 } else { 1e-4 * x.abs().max(y.abs()).max(1.0) };
            assert!(
                (x - y).abs() <= tolerance,
                "{label}: row {row} column {column}: fused {x} vs unfused {y}"
            );
        }
    }
}

#[test]
fn every_ported_query_is_reference_equal_fused_vs_unfused_on_all_four_backends() {
    let db = db();
    let catalog = db.catalog();
    fn check<B: Backend>(session: &Session<B>, db: &TpchDb, bit_equal: bool) {
        for (name, query) in ported_queries(db) {
            let fused = query.lower(db.catalog()).unwrap();
            let plain = query.lower_with(db.catalog(), &unfused()).unwrap();
            assert!(pipelines(&plain).is_empty(), "{name}: the rule is off");
            let label = format!("{name} on {}", session.name());
            let got = session.run(&fused, db.catalog()).unwrap();
            let want = session.run(&plain, db.catalog()).unwrap();
            if bit_equal {
                assert_eq!(got, want, "{label}: members in order are the unfused plan");
            }
            assert_reference_equal(&label, &got, &want);
            assert_eq!(session.run(&fused, db.catalog()).unwrap(), got, "{label}: run to run");
        }
    }
    // Something fuses in every query that has a streaming region.
    for (name, query) in ported_queries(db) {
        let fused = pipelines(&query.lower(catalog).unwrap()).len();
        assert_eq!(fused, usize::from(name != "q4"), "{name}");
    }
    check(&Session::monet_seq(), db, true);
    check(&Session::monet_par(), db, true);
    check(&Session::ocelot(&SharedDevice::cpu()), db, false);
    check(&Session::ocelot(&SharedDevice::gpu()), db, false);
}

// ---- random regions against the sequential operators ----------------------

/// A cheap deterministic stream of pseudo-random words.
fn scramble(index: usize, seed: u64) -> u64 {
    let mut x = (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

/// Row counts on and around the word (32) and tile (1024) boundaries.
const ROW_COUNTS: [usize; 12] = [0, 1, 31, 32, 33, 100, 1023, 1024, 1025, 2047, 2080, 3300];

/// `t(a, b, c: i32 — with the extremes in them; z: f32 with NaNs; x, y: f32
/// and k: small i32 — the columns values are computed from)`.
fn random_table(rows: usize, seed: u64) -> Catalog {
    let int = |salt: u64| -> Vec<i32> {
        (0..rows)
            .map(|row| match scramble(row, seed ^ salt) % 40 {
                0 => i32::MIN,
                1 => i32::MAX,
                pick => (pick as i32 - 20) * 3,
            })
            .collect()
    };
    let float = |salt: u64, nan: bool| -> Vec<f32> {
        (0..rows)
            .map(|row| match scramble(row, seed ^ salt) % 50 {
                0 if nan => f32::NAN,
                pick => pick as f32 * 0.25 - 3.0,
            })
            .collect()
    };
    let mut catalog = Catalog::new();
    catalog.add_table(
        Table::new("t")
            .with_column("a", Bat::from_i32("a", int(1)).into_ref())
            .with_column("b", Bat::from_i32("b", int(2)).into_ref())
            .with_column("c", Bat::from_i32("c", int(3)).into_ref())
            .with_column("z", Bat::from_f32("z", float(4, true)).into_ref())
            .with_column("x", Bat::from_f32("x", float(5, false)).into_ref())
            .with_column("y", Bat::from_f32("y", float(6, false)).into_ref())
            .with_column(
                "k",
                Bat::from_i32(
                    "k",
                    (0..rows).map(|row| (scramble(row, seed) % 20) as i32).collect(),
                )
                .into_ref(),
            ),
    );
    catalog
}

/// Appends one random conjunct over the base columns, chained on `cands`.
fn random_conjunct(p: &mut PlanBuilder, pick: u64, cands: Option<Var>) -> Var {
    let ints = [p.bind("t", "a"), p.bind("t", "b"), p.bind("t", "c")];
    let col = ints[(pick >> 8) as usize % 3];
    let other = ints[(pick >> 12) as usize % 3];
    let bound = |shift: u32| ((pick >> shift) % 41) as i32 * 3 - 60;
    let selected = match pick % 10 {
        // NaN is inside no range.
        9 => {
            let z = p.bind("t", "z");
            p.select(
                Pred::RangeF32 {
                    col: 0,
                    low: bound(16) as f32 * 0.1,
                    high: bound(24).abs() as f32 * 0.2,
                },
                &[z],
                cands,
            )
        }
        0 => p.select(
            Pred::RangeI32 { col: 0, low: bound(16), high: bound(16) + bound(24).abs() },
            &[col],
            cands,
        ),
        1 => p.select(Pred::RangeI32 { col: 0, low: i32::MIN, high: bound(16) }, &[col], cands),
        2 => p.select(Pred::RangeI32 { col: 0, low: bound(16), high: i32::MAX }, &[col], cands),
        // Everything, then nothing.
        3 => p.select(Pred::RangeI32 { col: 0, low: i32::MIN, high: i32::MAX }, &[col], cands),
        4 => p.select(Pred::RangeI32 { col: 0, low: 7, high: 6 }, &[col], cands),
        5 => p.select(Pred::EqI32 { col: 0, needle: bound(16) }, &[col], cands),
        6 => p.select(Pred::NeI32 { col: 0, needle: bound(16) }, &[col], cands),
        7 => {
            let values: Vec<i32> =
                (0..1 + (pick >> 32) % 6).map(|k| bound(16 + k as u32)).collect();
            p.select(Pred::InI32 { col: 0, values: values.into() }, &[col], cands)
        }
        _ => {
            let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
            p.select(
                Pred::CmpI32 { op: ops[(pick >> 20) as usize % 6], left: 0, right: 1 },
                &[col, other],
                cands,
            )
        }
    };
    selected.unwrap()
}

/// A random map tree of `depth` levels over `x`, `y` and `k` (fetched through
/// `cands` when there are any), with a bound on its values' magnitude.
fn random_map(p: &mut PlanBuilder, pick: u64, depth: u32, cands: Option<Var>) -> (Var, f64) {
    if depth == 0 {
        let base = p.bind("t", ["x", "y", "k"][(pick >> 4) as usize % 3]);
        let column = cands.map_or(base, |cands| p.fetch(base, cands).unwrap());
        let leaf = if (pick >> 4) % 3 == 2 {
            p.map(Map::CastI32F32(Map::leaf(0)), &[column]).unwrap()
        } else {
            column
        };
        return (leaf, 20.0);
    }
    let (left, bound) = random_map(p, scramble(1, pick), depth - 1, cands);
    let constant = ((pick >> 40) % 9) as f32 * 0.5 - 1.0;
    let c = constant.abs() as f64;
    let right = |p: &mut PlanBuilder| random_map(p, scramble(2, pick), depth - 1, cands);
    let (value, bound) = match pick % 7 {
        0 => {
            let (right, other) = right(p);
            (p.map(Map::Mul(Map::leaf(0), Map::leaf(1)), &[left, right]), bound * other)
        }
        1 => {
            let (right, other) = right(p);
            (p.map(Map::Add(Map::leaf(0), Map::leaf(1)), &[left, right]), bound + other)
        }
        2 => {
            let (right, other) = right(p);
            (p.map(Map::Sub(Map::leaf(0), Map::leaf(1)), &[left, right]), bound + other)
        }
        3 => (p.map(Map::ConstMinus(constant, Map::leaf(0)), &[left]), c + bound),
        4 => (p.map(Map::ConstPlus(constant, Map::leaf(0)), &[left]), c + bound),
        5 => (p.map(Map::MulConst(Map::leaf(0), constant), &[left]), c * bound),
        // A shared subtree: both operands are the same value.
        _ => (p.map(Map::Mul(Map::leaf(0), Map::leaf(1)), &[left, left]), bound * bound),
    };
    (value.unwrap(), bound)
}

/// Sums agree under the equality rule — relative `1e-4` — plus what `f32`
/// accumulation of `rows` values of magnitude up to `bound` may lose when
/// they cancel.
fn assert_sums_close(label: &str, got: &QueryValue, want: &QueryValue, rows: usize, bound: f64) {
    let (QueryValue::Scalar(got), QueryValue::Scalar(want)) = (got, want) else {
        panic!("{label}: scalars expected, got {got:?} vs {want:?}");
    };
    let (got, want) = (*got as f64, *want as f64);
    let tolerance = 1e-4 * want.abs().max(1.0) + 1e-6 * rows as f64 * bound;
    assert!((got - want).abs() <= tolerance, "{label}: {got} vs {want}");
}

proptest! {
    /// Random conjunct lists, fused into one bitmap launch, select exactly
    /// the rows the sequential operators select one candidate list at a
    /// time — on every Ocelot device, at every boundary row count.
    #[test]
    fn fused_conjunctions_select_what_the_sequential_chain_selects(seed in 0u64..1 << 40) {
        let rows = ROW_COUNTS[seed as usize % ROW_COUNTS.len()];
        let catalog = random_table(rows, seed);
        let mut p = PlanBuilder::new();
        let mut cands = None;
        for conjunct in 0..2 + scramble(0, seed) % 3 {
            cands = Some(random_conjunct(&mut p, scramble(10 + conjunct as usize, seed), cands));
        }
        if seed % 2 == 0 {
            let z = p.bind("t", "z");
            cands = Some(p.select(Pred::RangeF32 { col: 0, low: -1.0, high: 4.5 }, &[z], cands).unwrap());
        }
        p.result(&[cands.unwrap()]).unwrap();
        let plain = p.finish();
        let (fused, _) = fuse_plan(plain.clone());
        let [chain] = pipelines(&fused)[..] else { panic!("one chain:\n{}", fused.listing()) };
        prop_assert_eq!(chain.members().len(), plain.len() - fused.len() + 1);
        prop_assert!(verify(&fused).is_ok(), "{}", verify(&fused));
        let want = Session::monet_seq().run(&plain, &catalog).unwrap();
        for shared in [SharedDevice::cpu_sequential(), SharedDevice::cpu(), SharedDevice::gpu()] {
            let session = Session::ocelot(&shared);
            prop_assert_eq!(&session.run(&fused, &catalog).unwrap(), &want, "{} rows", rows);
        }
    }

    /// Random conjunct lists feeding random map trees into an ungrouped sum
    /// — no OID list at all, or (when something else reads the list too)
    /// base columns read through a candidate list of deferred length —
    /// equal the sequential operators under the equality rule.
    #[test]
    fn fused_select_calc_sum_regions_equal_the_sequential_operators(seed in 0u64..1 << 40) {
        let rows = ROW_COUNTS[seed as usize % ROW_COUNTS.len()];
        let catalog = random_table(rows, seed);
        let mut p = PlanBuilder::new();
        let mut cands = None;
        for conjunct in 0..scramble(0, seed) % 4 {
            cands = Some(random_conjunct(&mut p, scramble(10 + conjunct as usize, seed), cands));
        }
        let (value, bound) =
            random_map(&mut p, scramble(20, seed), (seed >> 8) as u32 % 3 + 1, cands);
        let total = p.sum_f32(value).unwrap();
        // Every third case hands the candidate list on as well: it stays a
        // node (or a chain) of its own and the region reads through it.
        let listed = cands.filter(|_| seed % 3 == 0);
        p.result(&listed.into_iter().chain([total]).collect::<Vec<_>>()).unwrap();
        let plain = p.finish();
        let (fused, _) = fuse_plan(plain.clone());
        prop_assert!(verify(&fused).is_ok(), "{}", verify(&fused));
        prop_assert_eq!(verify(&fused).flush_bound, FlushBound::AtMost(1));
        let sink = pipelines(&fused).into_iter().find(|node| matches!(node.sink(), PlanOp::SumF32));
        let sink = sink.unwrap_or_else(|| panic!("the sum fuses:\n{}", fused.listing()));
        let absorbed = sink.members().iter().any(|m| m.op.name().starts_with("select_"));
        prop_assert_eq!(absorbed, cands.is_some() && listed.is_none(), "{}", fused.listing());

        let want = Session::monet_seq().run(&plain, &catalog).unwrap();
        prop_assert_eq!(&Session::monet_par().run(&fused, &catalog).unwrap().len(), &want.len());
        for shared in [SharedDevice::cpu_sequential(), SharedDevice::cpu(), SharedDevice::gpu()] {
            let session = Session::ocelot(&shared);
            let got = session.run(&fused, &catalog).unwrap();
            let label = format!("{rows} rows on {}:\n{}", session.name(), fused.listing());
            if listed.is_some() {
                prop_assert_eq!(&got[0], &want[0], "{}", label);
            }
            assert_sums_close(&label, got.last().unwrap(), want.last().unwrap(), rows, bound);
            prop_assert_eq!(&session.run(&fused, &catalog).unwrap(), &got, "run to run");
        }
    }

    /// Bits of rows past the row count — in the last word and in every word
    /// after it — stay zero, whatever the conjunction selects.
    #[test]
    fn bitmap_padding_bits_stay_zero(seed in 0u64..1 << 40) {
        let rows = ROW_COUNTS[seed as usize % ROW_COUNTS.len()];
        let values: Vec<i32> = (0..rows).map(|row| (scramble(row, seed) % 9) as i32).collect();
        let preds = [
            Pred::RangeI32 { col: 0, low: i32::MIN, high: i32::MAX },
            Pred::NeI32 { col: 0, needle: (seed % 9) as i32 },
            Pred::CmpI32 { op: CmpOp::Le, left: 0, right: 0 },
        ];
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let column = ctx.upload_i32(&values, "v").unwrap().reinterpret();
            let bitmap = select_where(&ctx, &[&column], &preds[..1 + seed as usize % 3]).unwrap();
            let bits = bitmap.to_bools(&ctx).unwrap();
            let expected = values.iter().filter(|v| seed % 3 == 0 || **v != (seed % 9) as i32);
            prop_assert_eq!(bits.iter().filter(|bit| **bit).count(), expected.count());
            for (word, bits) in bitmap.buffer.chunk(0, bitmap.buffer.len()).iter().enumerate() {
                let live = rows.saturating_sub(word * 32).min(32);
                let padding = if live == 32 { 0 } else { !0u32 << live };
                prop_assert_eq!(bits & padding, 0, "word {} of {} rows", word, rows);
            }
        }
    }
}

/// Every kernel of the evaluator declares its buffer accesses — each source
/// column, the candidate list, the group ids, the partial tables, the bitmap
/// — and the armed race detector finds nothing to report over them.
#[test]
fn armed_race_detector_is_silent_over_the_evaluator_kernels() {
    use ocelot_core::ops::aggregate::{fused_aggs, GroupedAgg, RowSource};
    use ocelot_core::ops::rowexpr::map_columns;
    use ocelot_core::ops::select::materialize_bitmap;
    let rows = 5_000;
    let ints: Vec<i32> = (0..rows).map(|row| (scramble(row, 1) % 50) as i32).collect();
    let floats: Vec<f32> = (0..rows).map(|row| (scramble(row, 2) % 90) as f32 * 0.5).collect();
    let gids: Vec<u32> = (0..rows).map(|row| (scramble(row, 3) % 7) as u32).collect();
    for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
        ctx.queue().race().arm();
        let a = ctx.upload_i32(&ints, "a").unwrap().reinterpret();
        let x = ctx.upload_f32(&floats, "x").unwrap().reinterpret();
        let gids = ctx.upload_u32(&gids, "gids").unwrap();
        let preds = [
            Pred::RangeI32 { col: 0, low: 5, high: 40 },
            Pred::RangeF32 { col: 1, low: 1.0, high: 30.0 },
        ];
        let square = Map::Mul(Box::new(Map::Col(1)), Box::new(Map::Col(1)));
        let bitmap = select_where(&ctx, &[&a, &x], &preds).unwrap();
        let list = materialize_bitmap(&ctx, &bitmap).unwrap();
        map_columns::<f32>(&ctx, &[&a, &x], &square, x.col_len().clone()).unwrap();
        let sum = [GroupedAgg::Sum(0), GroupedAgg::Count];
        let values = [square.clone()];
        fused_aggs(&ctx, &[&a, &x], RowSource::All, &values, Some(&gids), 7, &sum).unwrap();
        fused_aggs(&ctx, &[&a, &x], RowSource::Candidates(&list), &values, None, 1, &sum).unwrap();
        fused_aggs(&ctx, &[&a, &x], RowSource::Where(&preds), &values, None, 1, &sum).unwrap();
        ctx.sync().unwrap();
        let (stats, diagnostics) =
            (ctx.queue().race().stats(), ctx.queue().race().take_diagnostics());
        ctx.queue().race().disarm();
        assert!(diagnostics.is_empty(), "{diagnostics:?}");
        assert_eq!(stats.kernels_declared, stats.kernels_observed, "{stats:?}");
        assert!(stats.pairs_checked > 0 && stats.bitmap_checks > 0, "{stats:?}");
    }
}

// ---- the rewrite's contract -------------------------------------------------

/// Kernels launched and flushes taken while `work` runs on `session`.
fn observed<R>(
    session: &Session<ocelot_engine::OcelotBackend>,
    work: impl FnOnce() -> R,
) -> (R, Vec<String>, u64) {
    let ctx = session.backend().context();
    ctx.sync().unwrap();
    let sink = Arc::new(TraceSink::new());
    ctx.attach_tracer(&sink);
    let flushes = ctx.queue().flush_count();
    let result = work();
    let flushes = ctx.queue().flush_count() - flushes;
    ctx.detach_tracer();
    let launched = sink
        .events()
        .into_iter()
        .filter_map(|event| match event.kind {
            TraceEventKind::Kernel { kernel, .. } => Some(kernel),
            _ => None,
        })
        .collect();
    (result, launched, flushes)
}

/// Q6 through the DSL is binds, one `pipeline` node and the result; it
/// verifies at one flush, and on the Ocelot devices runs in at most three
/// launches and exactly that one flush.
#[test]
fn q6_is_one_pipeline_node_three_launches_one_flush() {
    let db = db();
    let plan = q6_query(db).lower(db.catalog()).unwrap();
    let others: Vec<&str> = plan
        .nodes()
        .iter()
        .map(|node| node.op.name())
        .filter(|name| !["bind", "pipeline", "result"].contains(name))
        .collect();
    assert!(others.is_empty() && pipelines(&plan).len() == 1, "{}", plan.listing());
    assert_eq!(pipelines(&plan)[0].members().len(), 7, "3 selects, 2 fetches, mul, sum");
    assert_eq!(verify(&plan).flush_bound, FlushBound::AtMost(1));
    let explained = q6_query(db).explain(db.catalog()).unwrap();
    for needle in
        ["pipeline [3 select, 2 fetch, 1 map] => sum_f32", "| select_range_i32", "fused nodes"]
    {
        assert!(explained.contains(needle), "explain lacks `{needle}`:\n{explained}");
    }
    let reference = Session::monet_seq().run(&plan, db.catalog()).unwrap();
    for shared in [SharedDevice::cpu(), SharedDevice::gpu()] {
        let session = Session::ocelot(&shared);
        session.run(&plan, db.catalog()).unwrap(); // binds are cached now
        let (values, launched, flushes) = observed(&session, || session.run(&plan, db.catalog()));
        assert_sums_close(session.name(), &values.unwrap()[0], &reference[0], 0, 0.0);
        assert!(launched.len() <= 3, "{}: {launched:?}", session.name());
        assert_eq!(flushes, 1, "{}", session.name());
    }
}

/// Q1 — its selection, fetches, maps, grouping and eight aggregates — runs
/// in four launches on every Ocelot device, none of them a per-row grouping
/// pass, gather, bitmap, materialisation or map launch; Q12's four conjuncts
/// are one bitmap launch.
#[test]
fn q1_runs_in_four_launches_and_q12_selects_in_one() {
    let db = db();
    let q1 = q1_query(db).lower(db.catalog()).unwrap();
    for shared in [SharedDevice::cpu_sequential(), SharedDevice::cpu(), SharedDevice::gpu()] {
        let session = Session::ocelot(&shared);
        let (_, profile) = session.explain_analyze(&q1, db.catalog()).unwrap();
        let region: Vec<_> =
            profile.nodes.iter().filter(|n| n.op.starts_with("pipeline")).collect();
        assert_eq!(region.len(), 1, "{}", profile.render());
        let (_, launched, _) = observed(&session, || session.run(&q1, db.catalog()).unwrap());
        // The key ranges, the one pass, the per-code first-row fold the
        // dense-code grouping shares, the aggregate fold: no per-row grouping
        // pass, gather, bitmap, materialisation or map.
        let expected =
            ["hash_key_range", "grouped_partials", "group_first_rows_fold", "grouped_fold"];
        assert_eq!(launched, expected, "{}", session.name());
    }
    let session = Session::ocelot(&SharedDevice::cpu());
    let q12 = q12_queries(db).0.lower(db.catalog()).unwrap();
    let (_, launched, _) = observed(&session, || session.run(&q12, db.catalog()).unwrap());
    assert_eq!(launched.iter().filter(|k| *k == "select_bitmap").count(), 1, "{launched:?}");
}

/// A plan-cache hit lowers the same fused plan, node for node, as the cold
/// compile; the rule is part of the key.
#[test]
fn plan_cache_hits_are_fused_node_for_node() {
    let db = db();
    let cache = PlanCache::new();
    for (shape, params) in [(q1_query_p(db), q1_params()), (q6_query_p(db), q6_params())] {
        let cold = cache.plan(&shape, &params, db.catalog()).unwrap();
        let warm = cache.plan(&shape, &params, db.catalog()).unwrap();
        assert_eq!(cold.nodes(), warm.nodes());
        assert_eq!(pipelines(&warm).len(), 1, "{}", warm.listing());
        let plain = cache.plan_with(&shape, &params, db.catalog(), &unfused()).unwrap();
        assert!(pipelines(&plain).is_empty(), "a different rule set is a different entry");
    }
    assert_eq!((cache.stats().hits, cache.stats().misses), (2, 4));
}

/// The rule is a `RewriteConfig` flag like the others: on in `optimized()`,
/// off in `naive()`; and admission does not charge the intermediates a
/// region no longer allocates.
#[test]
fn the_rule_is_a_rewrite_flag_and_the_footprint_estimate_follows() {
    let db = db();
    assert!(RewriteConfig::optimized().fuse && !RewriteConfig::naive().fuse);
    let naive = q6_query(db).lower_with(db.catalog(), &RewriteConfig::naive()).unwrap();
    assert!(pipelines(&naive).is_empty());
    // A region is charged for its inputs and what it hands on — Q6 for its
    // four base columns and the one-word sum — never for more than the
    // nodes it replaced (which free a bind before the scalar exists: a word).
    let q6 = q6_query(db).lower(db.catalog()).unwrap().estimate_device_footprint(db.catalog());
    let columns = 4 * db.lineitem_rows() * 4;
    assert!((columns..columns + 64).contains(&q6), "four columns and a word: {q6}");
    // A region holding a grouping hands on one value per key tuple, written
    // while the columns it reads are live: Q1's ten outputs of its six
    // (returnflag, linestatus) tuples, next to its seven base columns.
    let q1 = q1_query(db).lower(db.catalog()).unwrap();
    let registers = q1.estimate_register_footprint(db.catalog());
    assert_eq!(registers, 7 * db.lineitem_rows() * 4 + 10 * 6 * 4, "{}", q1.listing());
    for (name, query) in ported_queries(db) {
        let fused = query.lower(db.catalog()).unwrap();
        let plain = query.lower_with(db.catalog(), &unfused()).unwrap();
        let bytes = |plan: &Plan| plan.estimate_device_footprint(db.catalog());
        assert!(
            bytes(&fused) <= bytes(&plain) + 4,
            "{name}: {} vs {}",
            bytes(&fused),
            bytes(&plain)
        );
    }
}

/// The verifier's pipeline signature: members are streaming operators
/// checked in the region's own scope, the node's registers are its
/// members', and a member's value is dead outside.
#[test]
fn verifier_rejects_malformed_pipelines_with_typed_diagnostics() {
    let db = db();
    let plan = q6_query(db).lower(db.catalog()).unwrap();
    assert!(verify(&plan).is_ok(), "{}", verify(&plan));
    let at = plan.nodes().iter().position(|node| !node.members().is_empty()).unwrap();
    let with = |edit: &dyn Fn(&mut Vec<PlanNode>)| {
        let mut nodes = plan.nodes().to_vec();
        edit(&mut nodes);
        verify(&Plan::from_nodes_unchecked(nodes)).diagnostics
    };
    let members = |node: &mut PlanNode| match &mut node.op {
        PlanOp::Pipeline { members } => std::mem::take(members),
        _ => unreachable!(),
    };
    // A host-resolving member.
    let found = with(&|nodes| {
        let mut inner = members(&mut nodes[at]);
        inner[3].op = PlanOp::SemiJoin;
        nodes[at].op = PlanOp::Pipeline { members: inner };
    });
    assert!(
        found.iter().any(|d| matches!(
            d,
            PlanDiagnostic::PipelineMember { member: 3, op: "semi_join", .. }
        )),
        "{found:?}"
    );
    // A column the members read, left out of the node's inputs.
    let found = with(&|nodes| {
        nodes[at].inputs.swap_remove(0);
    });
    assert!(
        found.iter().any(|d| matches!(d, PlanDiagnostic::PipelineInterface { .. })),
        "{found:?}"
    );
    // A member with one operand too few — the member's own signature.
    let found = with(&|nodes| {
        let mut inner = members(&mut nodes[at]);
        inner[5].inputs.truncate(1);
        nodes[at].op = PlanOp::Pipeline { members: inner };
    });
    assert!(
        found
            .iter()
            .any(|d| matches!(d, PlanDiagnostic::InputArity { op: "mul_f32", found: 1, .. })),
        "{found:?}"
    );
    // A member's register read outside the region is undefined there.
    let inner = plan.nodes()[at].members()[0].outputs[0];
    let found = with(&|nodes| {
        let last = nodes.len() - 1;
        nodes[last].inputs.push(inner);
    });
    assert!(
        found
            .iter()
            .any(|d| matches!(d, PlanDiagnostic::UndefinedInput { var, .. } if *var == inner)),
        "{found:?}"
    );
    // A pipeline in a pipeline.
    let found = with(&|nodes| {
        let nested = nodes[at].clone();
        let mut inner = members(&mut nodes[at]);
        inner.insert(0, nested);
        nodes[at].op = PlanOp::Pipeline { members: inner };
    });
    assert!(
        found
            .iter()
            .any(|d| matches!(d, PlanDiagnostic::PipelineMember { member: 0, op: "pipeline", .. })),
        "{found:?}"
    );
}

// ---- a grouping inside the region -----------------------------------------

/// `g(d: i32 in 0..1000 — below 100 in every odd 1024-row tile; k1, k2: i32
/// keys — `k` takes `spans[k]` values from `firsts[k]` up, both ends in rows
/// 0 and 1; v, w: f32)`, `rows` rows.
fn grouped_table(rows: usize, firsts: [i32; 2], spans: [u32; 2]) -> Catalog {
    let key = |k: usize| -> Vec<i32> {
        let offset = |row: usize| match row {
            0 => 0,
            1 => spans[k] - 1,
            _ => (scramble(row, 7 + k as u64) % u64::from(spans[k])) as u32,
        };
        (0..rows).map(|row| firsts[k].wrapping_add_unsigned(offset(row))).collect()
    };
    let float = |salt: u64, scale: f32| -> Vec<f32> {
        (0..rows).map(|row| (scramble(row, salt) % 997) as f32 * scale - 40.0).collect()
    };
    let dates = (0..rows).map(|row| (scramble(row, 3) % [1000, 100][row / 1024 % 2]) as i32);
    let mut catalog = Catalog::new();
    catalog.add_table(
        Table::new("g")
            .with_column("d", Bat::from_i32("d", dates.collect()).into_ref())
            .with_column("k1", Bat::from_i32("k1", key(0)).into_ref())
            .with_column("k2", Bat::from_i32("k2", key(1)).into_ref())
            .with_column("v", Bat::from_f32("v", float(4, 0.25)).into_ref())
            .with_column("w", Bat::from_f32("w", float(5, 0.001)).into_ref()),
    );
    catalog
}

/// Q1's shape over `g`: a date cutoff, a computed value, the grouping by
/// `keys`, sums, an average, a minimum and the count.
fn grouped_query(cutoff: i32, keys: &[&str]) -> Query {
    Query::scan("g")
        .filter(col("d").le(cutoff))
        .map("vw", col("v") * (lit(1.0f32) - col("w")))
        .group_by(
            keys,
            &[
                AggSpec::sum("v", "sum_v"),
                AggSpec::sum("vw", "sum_vw"),
                AggSpec::avg("w", "avg_w"),
                AggSpec::min("v", "min_v"),
                AggSpec::count("n"),
            ],
        )
}

/// Whether a `pipeline` node of `plan` holds a `group_by`.
fn groups_inside(plan: &Plan) -> bool {
    pipelines(plan).iter().any(|node| node.members().iter().any(|m| m.op == PlanOp::GroupBy))
}

/// Runs `plan` fused and `plain` unfused on every backend: bit-equal on
/// MS/MP, reference-equal on the Ocelot devices, where the key columns (the
/// first `keys` results) and the counts (the last) also equal MS's in order —
/// the same ids — and a second run is bit-identical. The armed race detector
/// stays silent on the CPU.
fn check_grouped(label: &str, catalog: &Catalog, plan: &Plan, plain: &Plan, keys: usize) {
    let ms = Session::monet_seq();
    let reference = ms.run(plan, catalog).unwrap();
    assert_eq!(reference, ms.run(plain, catalog).unwrap(), "{label}: MS");
    let mp = Session::monet_par();
    assert_eq!(mp.run(plan, catalog).unwrap(), mp.run(plain, catalog).unwrap(), "{label}: MP");
    for shared in [SharedDevice::cpu_sequential(), SharedDevice::cpu(), SharedDevice::gpu()] {
        let session = Session::ocelot(&shared);
        let queue = session.backend().context().queue();
        queue.race().arm();
        let got = session.run(plan, catalog).unwrap();
        let label = format!("{label} on {}", session.name());
        assert_reference_equal(&label, &got, &session.run(plain, catalog).unwrap());
        let exact = got[..keys].iter().chain(got.last());
        assert!(exact.eq(reference[..keys].iter().chain(reference.last())), "{label}: ids");
        assert_eq!(session.run(plan, catalog).unwrap(), got, "{label}: run to run");
        assert!(queue.race().take_diagnostics().is_empty(), "{label}: races");
        queue.race().disarm();
    }
}

/// A region that takes its grouping along equals the unfused plan on all
/// four backends, ids included: a cutoff that keeps no row or every row, one
/// that keeps a few rows of even tiles and most of odd ones (so a group's
/// first row may lie after tiles that dropped nearly everything), key values
/// at both ends of `i32`, one key of three values, and code spaces of exactly
/// `GROUPING_START` (the code-indexed pass) and one more (the fallback
/// through the listed rows' group ids).
#[test]
fn grouped_regions_equal_the_unfused_plan_on_all_four_backends() {
    // (label, cutoff, key minima, key spans, grouping keys)
    type Case = (&'static str, i32, [i32; 2], [u32; 2], &'static [&'static str]);
    let cases: [Case; 7] = [
        ("no row", -1, [0, 10], [3, 2], &["k1", "k2"]),
        ("mixed tiles", 95, [0, 10], [3, 2], &["k1", "k2"]),
        ("every row", 1_000, [0, 10], [3, 2], &["k1", "k2"]),
        ("i32 extremes", 600, [i32::MIN, i32::MAX - 1], [3, 2], &["k1", "k2"]),
        ("3 codes", 600, [-1, 0], [3, 1], &["k1"]),
        ("1024 codes", 900, [5, -7], [32, 32], &["k1", "k2"]),
        ("1025 codes", 900, [5, -7], [25, 41], &["k1", "k2"]),
    ];
    for (label, cutoff, firsts, spans, keys) in cases {
        let catalog = grouped_table(6_000, firsts, spans);
        let query = grouped_query(cutoff, keys);
        let plan = query.lower(&catalog).unwrap();
        let plain = query.lower_with(&catalog, &unfused()).unwrap();
        assert!(groups_inside(&plan), "{label}: {}", plan.listing());
        assert!(verify(&plan).is_ok(), "{label}: {}", verify(&plan));
        check_grouped(label, &catalog, &plan, &plain, keys.len());
        // Past `GROUPING_START` codes the keys are hashed.
        let codes: u32 = spans[..keys.len()].iter().product();
        let session = Session::ocelot(&SharedDevice::cpu());
        let (_, launched, _) = observed(&session, || session.run(&plan, &catalog).unwrap());
        let hashed = launched.iter().any(|k| k.starts_with("hash_") && k != "hash_key_range");
        assert_eq!(hashed, codes > 1024, "{label}: {launched:?}");
    }
}

/// The prepared Q1 shape the serving layer caches fuses its grouping too,
/// and answers as Q1 does, with MS's ids.
#[test]
fn the_q1_serving_shape_groups_inside_its_region() {
    let db = db();
    let cache = PlanCache::new();
    let plan = cache.plan(&q1_query_p(db), &q1_params(), db.catalog()).unwrap();
    assert!(groups_inside(&plan), "{}", plan.listing());
    let plain = cache.plan_with(&q1_query_p(db), &q1_params(), db.catalog(), &unfused()).unwrap();
    check_grouped("q1 shape", db.catalog(), &plan, &plain, 2);
    let q1 = q1_query(db).lower(db.catalog()).unwrap();
    let session = Session::ocelot(&SharedDevice::cpu());
    assert_eq!(session.run(&plan, db.catalog()).unwrap(), session.run(&q1, db.catalog()).unwrap());
}

/// Keys whose tuples span more codes than a partial table may have records
/// (lineitem by `l_orderkey`) take the fallback: the unfused operators'
/// launches, exactly as many as the plan ran before its grouping joined the
/// region, and the same answer.
#[test]
fn a_wide_key_region_takes_the_fallback_in_the_unfused_launches() {
    let db = db();
    let query = Query::scan("lineitem")
        .filter(col("l_shipdate").le(ocelot_storage::types::date_to_days(1998, 9, 2)))
        .group_by(&["l_orderkey"], &[AggSpec::count("n")]);
    let plan = query.lower(db.catalog()).unwrap();
    let plain = query.lower_with(db.catalog(), &unfused()).unwrap();
    assert!(groups_inside(&plan), "{}", plan.listing());
    assert!(pipelines(&plain).is_empty());
    check_grouped("wide keys", db.catalog(), &plan, &plain, 1);
    for shared in [SharedDevice::cpu_sequential(), SharedDevice::cpu(), SharedDevice::gpu()] {
        let session = Session::ocelot(&shared);
        session.run(&plan, db.catalog()).unwrap(); // binds are cached now
        let (fused, launched, _) = observed(&session, || session.run(&plan, db.catalog()).unwrap());
        let (unfused, today, _) = observed(&session, || session.run(&plain, db.catalog()).unwrap());
        assert_eq!(fused, unfused, "{}", session.name());
        assert_eq!(launched.len(), today.len(), "{}: {launched:?} vs {today:?}", session.name());
    }
}

/// A grouping whose representatives are also fetched for a column that is
/// not a key (a `FIRST`) stays outside every region.
#[test]
fn representatives_fetched_for_another_column_keep_the_grouping_outside() {
    let catalog = grouped_table(3_000, [0, 10], [3, 2]);
    let query = Query::scan("g")
        .filter(col("d").le(600))
        .group_by(&["k1"], &[AggSpec::sum("v", "sum_v"), AggSpec::first("w")]);
    let plan = query.lower(&catalog).unwrap();
    assert!(!groups_inside(&plan), "{}", plan.listing());
    assert!(plan.nodes().iter().any(|node| node.op == PlanOp::GroupBy), "{}", plan.listing());
    let plain = query.lower_with(&catalog, &unfused()).unwrap();
    check_grouped("first", &catalog, &plan, &plain, 1);
}

/// The verifier's contract for a grouping region: one `group_by` per region
/// and no grouping value leaves it — a second grouping, or representatives
/// read outside (declared as an output or not), is a typed diagnostic.
#[test]
fn a_second_grouping_or_representatives_read_outside_are_typed_diagnostics() {
    let db = db();
    let plan = q1_query(db).lower(db.catalog()).unwrap();
    let report = verify(&plan);
    assert!(report.is_ok(), "{report}");
    assert!(matches!(report.flush_bound, FlushBound::DataDependent { host_resolving: 1, .. }));
    let at = plan.nodes().iter().position(|node| !node.members().is_empty()).unwrap();
    let members = plan.nodes()[at].members();
    let grouping = members.iter().position(|m| m.op == PlanOp::GroupBy).unwrap();
    let reps = members.iter().find(|m| m.op == PlanOp::GroupReps).unwrap().outputs[0];
    let with = |edit: &dyn Fn(&mut Vec<PlanNode>, &mut Vec<PlanNode>)| {
        let mut nodes = plan.nodes().to_vec();
        let mut inner = nodes[at].members().to_vec();
        edit(&mut nodes, &mut inner);
        nodes[at].op = PlanOp::Pipeline { members: inner };
        verify(&Plan::from_nodes_unchecked(nodes)).diagnostics
    };
    // A second `group_by`, over the same keys, into a fresh register.
    let found = with(&|_, inner| {
        let mut second = inner[grouping].clone();
        second.outputs = vec![10_000];
        inner.insert(grouping + 1, second);
    });
    let second = grouping + 1;
    assert!(
        found.iter().any(|d| matches!(
            d,
            PlanDiagnostic::PipelineMember { member, op: "group_by", .. } if *member == second
        )),
        "{found:?}"
    );
    // The representatives handed on and read outside.
    let found = with(&|nodes, _| {
        nodes[at].outputs.insert(0, reps);
        let last = nodes.len() - 1;
        nodes[last].inputs.push(reps);
    });
    assert!(
        found.iter().any(|d| matches!(d, PlanDiagnostic::PipelineInterface { .. })),
        "{found:?}"
    );
    // Read outside without being handed on.
    let found = with(&|nodes, _| {
        let last = nodes.len() - 1;
        nodes[last].inputs.push(reps);
    });
    assert!(
        found.iter().any(|d| matches!(d, PlanDiagnostic::PipelineInterface { .. })),
        "{found:?}"
    );
}
