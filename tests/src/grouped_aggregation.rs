//! PR 15 — grouped aggregation at memory speed: the dense-code group-by
//! equals `monet::sequential::group_by_columns` id for id on every device
//! for the key shapes that sit on and around its code-space rule; the fused
//! `grouped_aggs` equals its one-aggregate wrappers bit for bit and an `f64`
//! host reference; the single-kernel column-vs-column and `IN` selections
//! equal MS; the armed race detector stays silent over every new kernel; and
//! the launch counts the change exists for are pinned — a dense group-by, the
//! one `grouped_aggs` node of Q1, Q12 without casts, differences or unions.

use ocelot_analyze::{verify, PlanDiagnostic};
use ocelot_core::ops::aggregate::{self, GroupedAgg};
use ocelot_core::ops::hash_table::GROUPING_START;
use ocelot_core::ops::{groupby, select};
use ocelot_core::primitives::gather;
use ocelot_core::{DevColumn, OcelotContext, SharedDevice, TraceSink};
use ocelot_engine::plan::{Plan, PlanBuilder, PlanError, PlanNode, PlanOp};
use ocelot_engine::Pred;
use ocelot_engine::{Backend, MonetBackend, OcelotBackend, Session, TraceEventKind};
use ocelot_monet::sequential as monet;
use ocelot_storage::CmpOp;
use ocelot_tpch::{q12_queries, q1_query, TpchConfig, TpchDb};
use std::sync::Arc;

fn contexts() -> Vec<OcelotContext> {
    vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
}

/// A cheap deterministic stream of row-dependent pseudo-random words.
pub(crate) fn scramble(row: usize, seed: u64) -> u64 {
    let mut x = (row as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

/// Runs `work` with a tracer on `ctx` and returns what it produced, the
/// kernels it launched (drained by a final sync) and the flushes it took
/// before that sync.
pub(crate) fn observed<R>(ctx: &OcelotContext, work: impl FnOnce() -> R) -> (R, Vec<String>, u64) {
    let (result, launches, flushes) = observed_launches(ctx, work);
    (result, launches.into_iter().map(|(kernel, ..)| kernel).collect(), flushes)
}

/// [`observed`], with each launch's shape as the trace records it:
/// `(kernel, work-groups, rows)`.
pub(crate) fn observed_launches<R>(
    ctx: &OcelotContext,
    work: impl FnOnce() -> R,
) -> (R, Vec<(String, u64, u64)>, u64) {
    ctx.sync().unwrap();
    let sink = Arc::new(TraceSink::new());
    ctx.attach_tracer(&sink);
    let flushes = ctx.queue().flush_count();
    let result = work();
    let flushes = ctx.queue().flush_count() - flushes;
    ctx.sync().unwrap();
    ctx.detach_tracer();
    let launches = sink
        .events()
        .into_iter()
        .filter_map(|event| match event.kind {
            TraceEventKind::Kernel { kernel, num_groups, n, .. } => Some((kernel, num_groups, n)),
            _ => None,
        })
        .collect();
    (result, launches, flushes)
}

/// `rows` rows of column `c` take `spans[c]` values from `firsts[c]` up, in
/// a scrambled order that still puts both ends of every range in the data.
fn ranged_columns(rows: usize, firsts: &[i32], spans: &[u32], seed: u64) -> Vec<Vec<i32>> {
    firsts
        .iter()
        .zip(spans)
        .enumerate()
        .map(|(c, (first, span))| {
            (0..rows)
                .map(|row| {
                    let offset = match row {
                        0 => 0,
                        1 => span - 1,
                        _ => (scramble(row, seed + c as u64) % u64::from(*span)) as u32,
                    };
                    first.wrapping_add(offset as i32)
                })
                .collect()
        })
        .collect()
}

/// Groups `columns` on every device and checks ids, count and
/// representatives against MS — and that the path the code-space rule
/// names (`dense` or the hash build) is the one that ran.
fn check_grouping(label: &str, columns: &[Vec<i32>], dense: bool) {
    let slices: Vec<&[i32]> = columns.iter().map(Vec::as_slice).collect();
    let expected = monet::group_by_columns(&slices);
    for ctx in contexts() {
        let at = format!("{label} on {:?}", ctx.device().info().kind);
        let uploaded: Vec<_> = columns.iter().map(|c| ctx.upload_i32(c, "key").unwrap()).collect();
        let refs: Vec<_> = uploaded.iter().collect();
        let (result, launched, _) =
            observed(&ctx, || groupby::group_by_columns(&ctx, &refs).unwrap());
        assert_eq!(result.num_groups, expected.num_groups, "{at}: group count");
        assert_eq!(result.gids.read(&ctx).unwrap(), expected.gids, "{at}: group ids");
        assert_eq!(
            result.representatives.read(&ctx).unwrap(),
            expected.representatives,
            "{at}: representatives"
        );
        let ran = |kernel: &str| launched.iter().any(|name| name == kernel);
        if columns[0].is_empty() {
            assert!(launched.is_empty(), "{at}: an empty input launches nothing: {launched:?}");
        } else {
            assert_eq!(ran("group_first_rows"), dense, "{at}: {launched:?}");
            assert_eq!(ran("hash_optimistic_insert"), !dense, "{at}: {launched:?}");
        }
    }
}

#[test]
fn dense_code_grouping_equals_monet_for_every_key_shape_on_every_device() {
    let rows = 6_000;
    let start = GROUPING_START as u32;
    // (label, first key per column, values per column, dense?)
    let shapes: Vec<(&str, Vec<i32>, Vec<u32>, bool)> = vec![
        ("one column", vec![3], vec![40], true),
        ("negative keys", vec![-9, -200], vec![5, 7], true),
        ("bottom of i32", vec![i32::MIN], vec![10], true),
        ("top of i32", vec![i32::MAX - 9], vec![10], true),
        ("both ends of i32", vec![i32::MIN, i32::MAX - 3], vec![6, 4], true),
        ("three columns", vec![-1, 65, 1_000], vec![3, 2, 11], true),
        ("code space = GROUPING_START", vec![0, -16], vec![start / 32, 32], true),
        ("one column of GROUPING_START values", vec![-500], vec![start], true),
        ("code space = GROUPING_START + 1", vec![-500], vec![start + 1], false),
        ("two columns past GROUPING_START", vec![0, 0], vec![start / 32 + 1, 32], false),
        ("one wide column among narrow ones", vec![0, i32::MIN, 7], vec![2, u32::MAX, 2], false),
        ("range product overflows u64", vec![i32::MIN; 3], vec![u32::MAX; 3], false),
    ];
    for (label, firsts, spans, dense) in shapes {
        check_grouping(label, &ranged_columns(rows, &firsts, &spans, 15), dense);
    }
    // Sizes with nothing to scramble.
    check_grouping("one row", &[vec![i32::MIN], vec![-1], vec![i32::MAX]], true);
    check_grouping("two rows, full range", &[vec![i32::MIN, i32::MAX]], false);
    check_grouping("empty", &[vec![], vec![]], true);
}

/// Key columns whose length is still on the device — a fetch through an
/// uncounted selection, the shape every grouping after a filter has — group
/// like their host-side filter, and the dense path resolves length and key
/// ranges in one flush, the first-row table in a second — pending upstream
/// work included.
#[test]
fn deferred_length_keys_group_densely_in_two_flushes() {
    let rows = 40_000;
    let keep: Vec<i32> = (0..rows).map(|row| (scramble(row, 3) % 10) as i32).collect();
    let columns = ranged_columns(rows, &[-3, 100, 0], &[4, 5, 6], 21);
    let kept: Vec<Vec<i32>> = columns
        .iter()
        .map(|c| c.iter().zip(&keep).filter(|(_, k)| **k <= 6).map(|(v, _)| *v).collect())
        .collect();
    let slices: Vec<&[i32]> = kept.iter().map(Vec::as_slice).collect();
    let expected = monet::group_by_columns(&slices);
    for ctx in contexts() {
        let device = ctx.device().info().kind;
        let kept = ctx.upload_i32(&keep, "k").unwrap().reinterpret();
        let in_range = [Pred::RangeI32 { col: 0, low: 0, high: 6 }];
        let bitmap = select::select_where(&ctx, &[&kept], &in_range).unwrap();
        let oids = select::materialize_bitmap(&ctx, &bitmap).unwrap();
        let keys: Vec<DevColumn<i32>> = columns
            .iter()
            .map(|c| gather::gather(&ctx, &ctx.upload_i32(c, "key").unwrap(), &oids).unwrap())
            .collect();
        assert!(keys.iter().all(DevColumn::is_deferred), "{device:?}");
        let refs: Vec<_> = keys.iter().collect();
        // The select→fetch chain is still queued: nothing has flushed yet.
        let sink = Arc::new(TraceSink::new());
        ctx.attach_tracer(&sink);
        let flushes = ctx.queue().flush_count();
        let result = groupby::group_by_columns(&ctx, &refs).unwrap();
        let flushes = ctx.queue().flush_count() - flushes;
        ctx.sync().unwrap();
        ctx.detach_tracer();
        // (A discrete device adds transfer-only flushes: every length and
        // the ranges are separate read-backs after the flush that ran the
        // kernels.)
        if ctx.device().is_unified() {
            assert_eq!(flushes, 2, "{device:?}");
        }
        let dense = sink.events().into_iter().any(|event| {
            matches!(event.kind, TraceEventKind::Kernel { kernel, .. } if kernel == "group_first_rows")
        });
        assert!(dense, "{device:?}: the dense path ran");
        assert_eq!(result.num_groups, expected.num_groups, "{device:?}");
        assert_eq!(result.gids.read(&ctx).unwrap(), expected.gids, "{device:?}");
        assert_eq!(result.representatives.read(&ctx).unwrap(), expected.representatives);
    }
}

/// The pass count the dense path exists for: range, first rows, fold, ids —
/// at most 5 launches and 2 flushes where the hash build took 8 and 2–3.
#[test]
fn a_dense_group_by_is_at_most_five_launches_and_two_flushes() {
    let columns = ranged_columns(50_000, &[65, 70], &[3, 2], 9);
    for ctx in contexts() {
        let device = ctx.device().info().kind;
        let uploaded: Vec<_> = columns.iter().map(|c| ctx.upload_i32(c, "key").unwrap()).collect();
        let refs: Vec<_> = uploaded.iter().collect();
        let (result, launched, flushes) =
            observed(&ctx, || groupby::group_by_columns(&ctx, &refs).unwrap());
        assert_eq!(result.num_groups, 6, "{device:?}");
        assert_eq!(
            launched,
            ["hash_key_range", "group_first_rows", "group_first_rows_fold", "group_dense_gids"],
            "{device:?}"
        );
        assert!(launched.len() <= 5 && flushes <= 2, "{device:?}: {flushes} flushes");
    }
}

/// Every mix of aggregates — duplicates, `avg` and `sum` of one column,
/// `count` alone, more sums than one pass holds, groups no row belongs to —
/// equals its one-aggregate wrappers bit for bit and the `f64` host
/// reference within `1e-4`, on every device.
#[test]
fn fused_aggregates_equal_their_one_aggregate_wrappers_and_a_host_reference() {
    use GroupedAgg::{Avg, Count, Max, Min, Sum};
    let mixes: Vec<Vec<GroupedAgg>> = vec![
        vec![Sum(0), Sum(1), Sum(2), Sum(3), Avg(0), Avg(1), Avg(4), Count],
        vec![Sum(2), Sum(2), Avg(2), Avg(2), Min(2), Max(2), Count, Count],
        vec![Count],
        vec![Avg(3)],
        vec![Max(0), Min(4), Max(4), Min(0), Sum(1)],
        (0..11).map(|c| Sum(c % 5)).chain((0..11).map(|c| Sum(10 - c))).chain([Avg(9)]).collect(),
        vec![],
    ];
    // (rows, groups): few groups (many partial tables), empty groups (ids
    // skip every third group), one group per row, one row.
    for (rows, groups, used) in [(50_000, 6, 6), (9_000, 300, 200), (700, 700, 700), (1, 4, 1)] {
        let gids: Vec<u32> =
            (0..rows).map(|row| (scramble(row, 4) % used as u64) as u32 * 3 % groups).collect();
        let columns: Vec<Vec<f32>> = (0..11u64)
            .map(|c| (0..rows).map(|row| (scramble(row, c) % 40_001) as f32 * 0.125).collect())
            .collect();
        let reference = |func: GroupedAgg| -> Vec<f64> {
            let mut counts = vec![0u32; groups as usize];
            let mut folded = vec![
                match func {
                    Min(_) => f64::INFINITY,
                    Max(_) => f64::NEG_INFINITY,
                    _ => 0.0,
                };
                groups as usize
            ];
            for (row, gid) in gids.iter().enumerate() {
                counts[*gid as usize] += 1;
                let slot = &mut folded[*gid as usize];
                match func {
                    Sum(c) | Avg(c) => *slot += columns[c][row] as f64,
                    Min(c) => *slot = slot.min(columns[c][row] as f64),
                    Max(c) => *slot = slot.max(columns[c][row] as f64),
                    Count => *slot += 1.0,
                }
            }
            if let Avg(_) = func {
                for (slot, count) in folded.iter_mut().zip(&counts) {
                    *slot = if *count == 0 { 0.0 } else { *slot / *count as f64 };
                }
            }
            folded
        };
        for ctx in contexts() {
            let device = ctx.device().info().kind;
            let g = ctx.upload_u32(&gids, "g").unwrap();
            let uploaded: Vec<_> =
                columns.iter().map(|c| ctx.upload_f32(c, "v").unwrap()).collect();
            let values: Vec<_> = uploaded.iter().collect();
            let groups = groups as usize;
            for mix in &mixes {
                let (fused, launched, flushes) =
                    observed(&ctx, || aggregate::grouped_aggs(&ctx, &values, &g, groups, mix));
                let fused = fused.unwrap();
                let expected_launches: &[&str] =
                    if mix.is_empty() { &[] } else { &["grouped_partials", "grouped_fold"] };
                assert_eq!(launched, expected_launches, "{device:?} {mix:?}");
                assert_eq!(flushes, 0, "{device:?}: grouped aggregation is lazy");
                assert_eq!(fused.len(), mix.len());
                for (func, column) in mix.iter().zip(fused) {
                    let got = column.read(&ctx).unwrap();
                    let (alone, operand) = match *func {
                        Sum(c) => (Sum(0), vec![values[c]]),
                        Min(c) => (Min(0), vec![values[c]]),
                        Max(c) => (Max(0), vec![values[c]]),
                        Avg(c) => (Avg(0), vec![values[c]]),
                        Count => (Count, vec![]),
                    };
                    let alone = aggregate::grouped_aggs(&ctx, &operand, &g, groups, &[alone]);
                    let alone = alone.unwrap().remove(0).read(&ctx).unwrap();
                    let bits =
                        |column: &[f32]| column.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&alone), "{device:?} {func} of {mix:?}");
                    for (gid, (got, want)) in got.iter().zip(reference(*func)).enumerate() {
                        let close = if want.is_finite() {
                            (*got as f64 - want).abs() <= 1e-4 * want.abs().max(1.0)
                        } else {
                            *got as f64 == want
                        };
                        assert!(close, "{device:?} {func}[{gid}] of {rows} rows: {got} vs {want}");
                    }
                }
            }
        }
    }
}

/// `left <op> right` for all six operators and `IN` lists of 1, 2 and 8
/// values — absent values and duplicates included — with and without a
/// candidate list, through the `Backend` interface: every Ocelot device
/// returns exactly MS's OIDs.
#[test]
fn column_comparison_and_in_list_selections_equal_monet() {
    let rows = 20_000usize;
    let mut left: Vec<i32> = (0..rows).map(|row| (scramble(row, 1) % 40) as i32 - 20).collect();
    let mut right: Vec<i32> = (0..rows).map(|row| (scramble(row, 2) % 40) as i32 - 20).collect();
    // The extremes compare as integers, not as the floats they used to be
    // cast to: 2^24 and 2^24 + 1 differ, and MIN < MAX does not overflow.
    left.extend([i32::MIN, i32::MAX, 1 << 24, (1 << 24) + 1, -1, 0]);
    right.extend([i32::MAX, i32::MIN, (1 << 24) + 1, 1 << 24, 0, -1]);
    let code: Vec<i32> = (0..left.len()).map(|row| (scramble(row, 3) % 12) as i32).collect();
    let in_lists: [&[i32]; 6] =
        [&[5], &[11, 2], &[7, 7, 7], &[99], &[3, -4, 9, 0, 3, 99, 1, 10], &[]];
    let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

    fn answers<B: Backend>(
        b: &B,
        (left, right, code): (&[i32], &[i32], &[i32]),
        ops: &[CmpOp],
        in_lists: &[&[i32]],
    ) -> Result<Vec<Vec<u32>>, PlanError> {
        let (l, r, c) =
            (b.lift_i32(left.to_vec())?, b.lift_i32(right.to_vec())?, b.lift_i32(code.to_vec())?);
        let cands = b.select(&[&c], &Pred::RangeI32 { col: 0, low: 2, high: 8 }, None)?;
        let mut out = Vec::new();
        for with in [None, Some(&cands)] {
            for op in ops {
                out.push(b.to_oids(&b.select(
                    &[&l, &r],
                    &Pred::CmpI32 { op: *op, left: 0, right: 1 },
                    with,
                )?)?);
            }
            for values in in_lists {
                out.push(b.to_oids(&b.select(
                    &[&c],
                    &Pred::InI32 { col: 0, values: (*values).into() },
                    with,
                )?)?);
            }
        }
        Ok(out)
    }
    let data = (left.as_slice(), right.as_slice(), code.as_slice());
    let expected = answers(&MonetBackend::with_threads(1), data, &ops, &in_lists).unwrap();
    assert!(expected.iter().filter(|oids| !oids.is_empty()).count() > 16, "the cases select rows");
    for backend in [OcelotBackend::cpu_sequential(), OcelotBackend::cpu(), OcelotBackend::gpu()] {
        let got = answers(&backend, data, &ops, &in_lists).unwrap();
        for (case, (got, want)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "case {case} on {}", backend.name());
        }
    }
}

/// The armed detector over everything this PR launches — dense grouping
/// over host-known and deferred keys, the fused aggregates in one and
/// several passes, both new selections with and without candidates: every
/// kernel declares its access set, and no event-unordered pair conflicts.
#[test]
fn armed_race_detector_is_silent_over_every_new_kernel() {
    use GroupedAgg::{Avg, Count, Max, Min, Sum};
    let rows = 30_000;
    let keys = ranged_columns(rows, &[-2, 40], &[5, 9], 33);
    let values: Vec<f32> = (0..rows).map(|row| (scramble(row, 8) % 1_000) as f32).collect();
    let many: Vec<GroupedAgg> =
        (0..12).map(|c| Sum(c % 2)).chain([Min(0), Max(1), Avg(0), Count]).collect();
    for backend in [OcelotBackend::cpu_sequential(), OcelotBackend::cpu(), OcelotBackend::gpu()] {
        let ctx = backend.context();
        ctx.queue().race().arm();
        let columns: Vec<_> = keys.iter().map(|c| backend.lift_i32(c.clone()).unwrap()).collect();
        let (a, b) = (&columns[0], &columns[1]);
        let v = backend.lift_f32(values.clone()).unwrap();
        let (less, unequal) = (CmpOp::Lt, CmpOp::Ne);
        let cands =
            backend.select(&[a, b], &Pred::CmpI32 { op: less, left: 0, right: 1 }, None).unwrap();
        let pred = Pred::CmpI32 { op: unequal, left: 0, right: 1 };
        let narrowed = backend.select(&[b, a], &pred, Some(&cands)).unwrap();
        let pred = Pred::InI32 { col: 0, values: [41, 44, 47].into() };
        let listed = backend.select(&[b], &pred, Some(&narrowed)).unwrap();
        backend.select(&[a], &Pred::InI32 { col: 0, values: [0, 2].into() }, None).unwrap();
        let (ka, kb) = (backend.fetch(a, &listed).unwrap(), backend.fetch(b, &listed).unwrap());
        let deferred = backend.group_by(&[&ka, &kb]).unwrap();
        let fetched = backend.fetch(&v, &listed).unwrap();
        backend.grouped_aggs(&deferred, &[&fetched, &fetched], &many).unwrap();
        let groups = backend.group_by(&[a, b]).unwrap();
        assert_eq!(groups.num_groups, 45);
        backend.grouped_aggs(&groups, &[&v], &[Sum(0), Avg(0), Count]).unwrap();
        backend.sync().unwrap();
        let stats = ctx.queue().race().stats();
        let diagnostics = ctx.queue().race().take_diagnostics();
        ctx.queue().race().disarm();
        assert!(diagnostics.is_empty(), "{}: {diagnostics:?}", backend.name());
        assert_eq!(stats.kernels_declared, stats.kernels_observed, "{stats:?}");
        assert!(stats.pairs_checked > 0, "unordered pairs were actually compared: {stats:?}");
    }
}

/// The operators the plan lowered to (fused regions taken apart again).
fn op_names(plan: &Plan) -> Vec<&'static str> {
    plan.unfused_nodes().map(|node| node.op.name()).collect()
}

/// Q1's grouping and its eight aggregates are one `pipeline` node: the
/// `group_by`, its key fetches and the keys fetched at its representatives
/// are members, so no grouping node is left outside. On every Ocelot device
/// the node is four launches — the key ranges, the accumulation, the
/// first-row fold and the aggregate fold — and no per-row grouping pass,
/// gather, bitmap, materialisation or map launch, in no more flushes than
/// the plan took before its grouping joined the region (three on the CPU
/// devices).
#[test]
fn q1_groups_and_aggregates_in_one_node_of_four_launches() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.005, seed: 15 });
    let plan = q1_query(&db).lower(db.catalog()).unwrap();
    let fused: Vec<&PlanNode> =
        plan.nodes().iter().filter(|node| !node.members().is_empty()).collect();
    let [node] = fused.as_slice() else { panic!("one region, found {}", plan.listing()) };
    assert_eq!(
        node.sink().to_string(),
        "grouped_aggs sum(0) sum(1) sum(2) sum(3) avg(0) avg(1) avg(4) count"
    );
    assert!(node.members().iter().any(|member| member.op == PlanOp::GroupBy));
    assert_eq!(node.outputs.len(), 2 + 8, "two keys and eight aggregates: {node}");
    let outside = |name: &str| plan.nodes().iter().any(|node| node.op.name() == name);
    assert!(!outside("group_by") && !outside("group_reps") && !outside("fetch"));
    for shared in [SharedDevice::cpu_sequential(), SharedDevice::cpu(), SharedDevice::gpu()] {
        let session = Session::ocelot(&shared);
        session.run(&plan, db.catalog()).unwrap(); // binds are cached now
        let ctx = session.backend().context();
        let (_, launched, flushes) = observed(ctx, || session.run(&plan, db.catalog()).unwrap());
        // The key ranges, the one pass, the per-code first-row fold the
        // dense-code grouping shares, the aggregate fold: no per-row grouping
        // pass, gather, bitmap, materialisation or map.
        let expected =
            ["hash_key_range", "grouped_partials", "group_first_rows_fold", "grouped_fold"];
        assert_eq!(launched, expected, "{}", session.name());
        // The GPU adds a transfer-only flush per result column read back.
        let gpu = ctx.device().info().kind == ocelot_kernel::DeviceKind::DiscreteGpu;
        assert!(flushes <= if gpu { 14 } else { 3 }, "{}: {flushes}", session.name());
    }
}

/// Q12's comparisons and `IN` lists are single selections: no cast, no
/// difference column, no candidate-list union anywhere in either plan.
#[test]
fn q12_lowers_without_casts_differences_or_unions() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.005, seed: 15 });
    let (all, high) = q12_queries(&db);
    for (query, in_lists) in [(all, 1), (high, 2)] {
        let plan = query.lower(db.catalog()).unwrap();
        let names = op_names(&plan);
        for gone in ["cast_i32_f32", "sub_f32", "union_oids", "select_range_f32"] {
            assert!(!names.contains(&gone), "{gone} in {names:?}");
        }
        let count = |name: &str| names.iter().filter(|n| **n == name).count();
        assert_eq!((count("select_cmp_i32"), count("select_in_i32")), (2, in_lists), "{names:?}");
        let explained = query.explain(db.catalog()).unwrap();
        assert!(!explained.contains("union_oids"), "{explained}");
    }
}

/// The verifier's signature table knows the three new operators: builder
/// plans verify clean, and a node whose operands or results do not fit its
/// aggregates, or a comparison short of a side, is rejected with the typed
/// diagnostic.
#[test]
fn verifier_knows_the_three_new_operators() {
    use GroupedAgg::{Avg, Count, Sum};
    let mut p = PlanBuilder::new();
    let (a, b, v) = (p.bind("t", "a"), p.bind("t", "b"), p.bind("t", "v"));
    let cands = p.select(Pred::InI32 { col: 0, values: [3, 1, 3].into() }, &[a], None).unwrap();
    let compared =
        p.select(Pred::CmpI32 { op: CmpOp::Ge, left: 0, right: 1 }, &[a, b], Some(cands)).unwrap();
    let keys = p.fetch(a, compared).unwrap();
    let values = p.fetch(v, compared).unwrap();
    let group = p.group_by(&[keys]).unwrap();
    let outs = p.grouped_aggs(group, &[Sum(values), Count, Avg(values)]).unwrap();
    p.result(&outs).unwrap();
    let plan = p.finish();
    let report = verify(&plan);
    assert!(report.is_ok(), "{report}");
    let rendered: Vec<String> = plan.nodes().iter().map(|node| node.op.to_string()).collect();
    assert!(rendered.contains(&"select_in_i32 [1, 3]".to_string()), "{rendered:?}");
    assert!(rendered.contains(&"select_cmp_i32 >=".to_string()), "{rendered:?}");
    assert!(rendered.contains(&"grouped_aggs sum(0) count avg(0)".to_string()), "{rendered:?}");

    let mut nodes = plan.nodes().to_vec();
    let fused =
        nodes.iter().position(|node| matches!(node.op, PlanOp::GroupedAggs { .. })).unwrap();
    // An aggregate naming a value operand the node does not carry …
    nodes[fused].op = PlanOp::GroupedAggs { funcs: vec![Sum(0), Count, Avg(1)] };
    let report = verify(&Plan::from_nodes_unchecked(nodes.clone()));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| matches!(d, PlanDiagnostic::InputArity { op: "grouped_aggs", found: 2, .. })));
    // … one result too few for its aggregates …
    nodes[fused].op = PlanOp::GroupedAggs { funcs: vec![Sum(0), Count, Avg(0), Count] };
    let report = verify(&Plan::from_nodes_unchecked(nodes.clone()));
    assert!(report.diagnostics.iter().any(|d| matches!(
        d,
        PlanDiagnostic::OutputArity { op: "grouped_aggs", found: 3, expected: 4, .. }
    )));
    // … a grouping where a value column belongs …
    let group_var = nodes[fused].inputs[0];
    nodes[fused].op = PlanOp::GroupedAggs { funcs: vec![Sum(0), Count, Avg(0)] };
    nodes[fused].inputs[1] = group_var;
    let report = verify(&Plan::from_nodes_unchecked(nodes));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| matches!(d, PlanDiagnostic::InputKind { op: "grouped_aggs", index: 1, .. })));
    // … and a column comparison with one side.
    let report = verify(&Plan::from_nodes_unchecked(vec![
        PlanNode {
            op: PlanOp::Bind { table: "t".into(), column: "a".into() },
            inputs: vec![],
            outputs: vec![0],
        },
        PlanNode {
            op: PlanOp::Select { pred: Pred::CmpI32 { op: CmpOp::Lt, left: 0, right: 1 } },
            inputs: vec![0],
            outputs: vec![1],
        },
    ]));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| matches!(d, PlanDiagnostic::InputArity { op: "select_cmp_i32", found: 1, .. })));
}
