//! Aggregation operators (paper §4.1.7).
//!
//! * **Ungrouped aggregation** delegates to the hierarchical parallel
//!   reduction in [`crate::primitives::reduce`] — every result is a deferred
//!   [`DevScalar`] whose `.get()` is the pipeline's only sync point.
//! * **Grouped aggregation** gives every work-group a *private* table of
//!   partial aggregates — one slot per group, in a range of the partials
//!   buffer no other work-group touches — and a second kernel folds the
//!   tables in work-group order. The paper spreads each group over several
//!   atomically updated accumulators to dodge contention; private tables
//!   are that idea taken to its end: no contention at all, so the inner
//!   loop is plain tier-2 arithmetic (no float atomics, CAS-emulated or
//!   otherwise), and the order of every floating-point addition is fixed
//!   by the launch configuration rather than by thread interleaving.
//!
//! **Partial-table sizing rule** (`partial_tables_for`): as many
//! work-groups as keep the partials buffer (`work-groups × groups`, twice
//! that for the average's sum-and-count pair) no larger than the input and
//! give every work-group at least [`MIN_ROWS_PER_TABLE`] rows, capped at
//! [`MAX_PARTIAL_TABLES`]. Few groups therefore get many short partial
//! sums — which is also what keeps `f32` sums of millions of rows accurate
//! — and many groups degrade to a single sequential table, still linear.
//! The rule reads only the row and group counts, never the device's core
//! count, so the sequential and multi-core CPU devices add in the same
//! order.
//!
//! **Equality rule.** Grouped results are bit-equal run to run on one
//! backend and device configuration. Across backends, integers, counts and
//! OIDs are exact; floats agree within relative `1e-4` (the Monet backends
//! accumulate in `f64`, the devices in `f32` in the order above).
//!
//! Counts are accumulated in `u32` and converted to the engine's four-byte
//! float representation once, at the fold: exact up to 2^24 rows per group
//! and correctly rounded beyond, never saturating.

use crate::context::{DevColumn, DevScalar, LenSource, OcelotContext, Oid};
use crate::primitives::reduce;
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result, WorkGroupCtx,
    WorkItem,
};
use std::sync::Arc;

pub use crate::primitives::reduce::{max_f32, max_i32, min_f32, min_i32, sum_f32, sum_i32};

/// Upper bound on the work-groups (private partial tables) of one grouped
/// aggregation.
pub const MAX_PARTIAL_TABLES: usize = 64;
/// A work-group is only worth its partial table if it folds this many rows.
pub const MIN_ROWS_PER_TABLE: usize = 1024;

/// Which grouped aggregate to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupedAgg {
    /// Per-group sum of an `f32` column.
    SumF32,
    /// Per-group minimum of an `f32` column.
    MinF32,
    /// Per-group maximum of an `f32` column.
    MaxF32,
    /// Per-group row count (the value column is ignored).
    Count,
    /// Per-group average of an `f32` column: sum and count partials side by
    /// side, divided at the fold.
    AvgF32,
}

impl GroupedAgg {
    /// Words of partial state per group (the average keeps sum and count).
    fn words_per_group(self) -> usize {
        match self {
            GroupedAgg::AvgF32 => 2,
            _ => 1,
        }
    }
}

/// Number of work-groups — private partial tables — for a grouped
/// aggregation of `rows` rows into `num_groups` groups (module docs).
fn partial_tables_for(rows: usize, num_groups: usize, agg: GroupedAgg) -> usize {
    let table_words = num_groups * agg.words_per_group();
    (rows / table_words.max(MIN_ROWS_PER_TABLE)).clamp(1, MAX_PARTIAL_TABLES)
}

/// Applies `f` to the logical rows (`< n`) assigned to `item`.
#[inline]
fn for_rows(item: &WorkItem, n: usize, f: impl FnMut(usize)) {
    let assigned = item.assigned();
    match assigned.as_range() {
        Some(range) => (range.start.min(n)..range.end.min(n)).for_each(f),
        None => assigned.filter(|idx| *idx < n).for_each(f),
    }
}

/// Folds `value` into the `f32` stored (as bits) in `word`.
#[inline]
fn fold_f32(word: &mut u32, value: u32, combine: impl Fn(f32, f32) -> f32) {
    *word = combine(f32::from_bits(*word), f32::from_bits(value)).to_bits();
}

/// Fills `table` with `identity` and folds the work-group's rows into their
/// groups' slots with `combine` (monomorphised per aggregate).
fn fold_rows(
    group: &WorkGroupCtx,
    n: usize,
    table: &mut [u32],
    gids: &[u32],
    values: &[u32],
    identity: f32,
    combine: impl Fn(f32, f32) -> f32 + Copy,
) {
    table.fill(identity.to_bits());
    for item in group.items() {
        for_rows(&item, n, |row| fold_f32(&mut table[gids[row] as usize], values[row], combine));
    }
}

/// The accumulation kernel: every work-group folds its rows into its own
/// table `partials[group_id × table_words ..][.. table_words]`.
struct GroupedPartialsKernel {
    values: Option<Buffer>,
    gids: Buffer,
    partials: Buffer,
    num_groups: usize,
    agg: GroupedAgg,
    n: LenSource,
}

impl Kernel for GroupedPartialsKernel {
    fn name(&self) -> &str {
        "grouped_partials"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let n = self.n.get();
        let table_words = self.num_groups * self.agg.words_per_group();
        let base = group.group_id() * table_words;
        // SAFETY: the table of work-group `group_id` is this range and no
        // other work-group's; the group's items run one after another.
        let table = unsafe { self.partials.chunk_mut(base, base + table_words) };
        let gids = self.gids.as_words();
        let values = self.values.as_ref().map(Buffer::as_words);
        let values = || values.expect("every aggregate but COUNT reads a value column");
        match self.agg {
            GroupedAgg::SumF32 => fold_rows(group, n, table, gids, values(), 0.0, |a, b| a + b),
            GroupedAgg::MinF32 => {
                fold_rows(group, n, table, gids, values(), f32::INFINITY, f32::min)
            }
            GroupedAgg::MaxF32 => {
                fold_rows(group, n, table, gids, values(), f32::NEG_INFINITY, f32::max)
            }
            GroupedAgg::Count => {
                table.fill(0);
                for item in group.items() {
                    for_rows(&item, n, |row| table[gids[row] as usize] += 1);
                }
            }
            GroupedAgg::AvgF32 => {
                let values = values();
                table.fill(0);
                let (sums, counts) = table.split_at_mut(self.num_groups);
                for item in group.items() {
                    for_rows(&item, n, |row| {
                        let gid = gids[row] as usize;
                        fold_f32(&mut sums[gid], values[row], |a, b| a + b);
                        counts[gid] += 1;
                    });
                }
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let table_words = (self.num_groups * self.agg.words_per_group()) as u64;
        KernelCost::new(
            (launch.n as u64) * 8,
            launch.num_groups as u64 * table_words * 4,
            launch.n as u64,
            0,
        )
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let table_words = self.num_groups * self.agg.words_per_group();
        let mut accesses = vec![
            BufferAccess::slice_read(&self.gids, 0..launch.n),
            BufferAccess::slice_write(&self.partials, 0..launch.num_groups * table_words),
        ];
        if let Some(values) = &self.values {
            accesses.push(BufferAccess::slice_read(values, 0..launch.n));
        }
        Some(KernelAccesses::of(accesses))
    }
}

/// Folds the partial tables into the final per-group value, in work-group
/// order.
struct FoldPartialsKernel {
    partials: Buffer,
    output: Buffer,
    num_groups: usize,
    tables: usize,
    agg: GroupedAgg,
}

impl Kernel for FoldPartialsKernel {
    fn name(&self) -> &str {
        "grouped_fold"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let table_words = self.num_groups * self.agg.words_per_group();
        let partials = self.partials.chunk(0, self.tables * table_words);
        let column = |gid: usize| partials[gid..].iter().step_by(table_words).copied();
        let floats = |gid: usize| column(gid).map(f32::from_bits);
        for item in group.items() {
            for gid in item.assigned() {
                let value = match self.agg {
                    GroupedAgg::SumF32 => floats(gid).fold(0.0, |a, b| a + b),
                    GroupedAgg::MinF32 => floats(gid).fold(f32::INFINITY, f32::min),
                    GroupedAgg::MaxF32 => floats(gid).fold(f32::NEG_INFINITY, f32::max),
                    GroupedAgg::Count => column(gid).sum::<u32>() as f32,
                    GroupedAgg::AvgF32 => {
                        let sum = floats(gid).fold(0.0, |a, b| a + b);
                        match column(self.num_groups + gid).sum::<u32>() {
                            0 => 0.0,
                            count => sum / count as f32,
                        }
                    }
                };
                self.output.set_f32(gid, value);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let words = (self.tables * self.num_groups * self.agg.words_per_group()) as u64;
        KernelCost::new(words * 4, (launch.n as u64) * 4, words, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let table_words = self.num_groups * self.agg.words_per_group();
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.partials, 0..self.tables * table_words),
            BufferAccess::cells_write(&self.output, 0..launch.n),
        ]))
    }
}

fn grouped_aggregate(
    ctx: &OcelotContext,
    values: Option<&DevColumn<f32>>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
    agg: GroupedAgg,
) -> Result<DevColumn<f32>> {
    if let Some(values) = values {
        // Aligned inputs: when both lengths are host-known they must match;
        // a deferred value column (e.g. a fetch over an uncounted selection)
        // only needs to cover every row the gid column can address.
        match (values.host_len(), gids.host_len()) {
            (Some(a), Some(b)) => assert_eq!(a, b, "grouped aggregate: length mismatch"),
            _ => assert!(values.cap() >= gids.cap(), "grouped aggregate: length mismatch"),
        }
    }
    // The fold writes every group's word.
    let output = ctx.alloc_uninit(num_groups.max(1), "grouped_output")?;
    if num_groups == 0 {
        return DevColumn::new(output, 0);
    }
    let tables = partial_tables_for(gids.cap(), num_groups, agg);
    let table_words = num_groups * agg.words_per_group();
    // Every work-group initialises its own table.
    let partials = ctx.alloc_uninit(tables * table_words, "grouped_partials")?;

    let mut wait = ctx.wait_for(gids);
    if let Some(values) = values {
        wait.extend(ctx.wait_for(values));
    }
    let partials_event = ctx.queue().enqueue_kernel(
        Arc::new(GroupedPartialsKernel {
            values: values.map(|v| v.buffer.clone()),
            gids: gids.buffer.clone(),
            partials: partials.clone(),
            num_groups,
            agg,
            n: gids.len_source(),
        }),
        ctx.launch(gids.cap()).with_num_groups(tables),
        &wait,
    )?;
    let fold_event = ctx.queue().enqueue_kernel(
        Arc::new(FoldPartialsKernel { partials, output: output.clone(), num_groups, tables, agg }),
        ctx.launch(num_groups),
        &[partials_event],
    )?;
    ctx.memory().record_consumer(&gids.buffer, partials_event);
    if let Some(values) = values {
        ctx.memory().record_consumer(&values.buffer, partials_event);
    }
    ctx.memory().record_producer(&output, fold_event);
    DevColumn::new(output, num_groups)
}

/// Per-group sums of a float column.
pub fn grouped_sum_f32(
    ctx: &OcelotContext,
    values: &DevColumn<f32>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_aggregate(ctx, Some(values), gids, num_groups, GroupedAgg::SumF32)
}

/// Per-group minima of a float column (`+∞` for empty groups).
pub fn grouped_min_f32(
    ctx: &OcelotContext,
    values: &DevColumn<f32>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_aggregate(ctx, Some(values), gids, num_groups, GroupedAgg::MinF32)
}

/// Per-group maxima of a float column (`-∞` for empty groups).
pub fn grouped_max_f32(
    ctx: &OcelotContext,
    values: &DevColumn<f32>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_aggregate(ctx, Some(values), gids, num_groups, GroupedAgg::MaxF32)
}

/// Per-group row counts, returned as a float column (the four-byte engine
/// representation; counted in `u32`, converted once at the fold).
pub fn grouped_count(
    ctx: &OcelotContext,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_aggregate(ctx, None, gids, num_groups, GroupedAgg::Count)
}

/// Per-group averages of a float column (0 for empty groups), in one pass:
/// sum and count partials come out of the same kernel.
pub fn grouped_avg_f32(
    ctx: &OcelotContext,
    values: &DevColumn<f32>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_aggregate(ctx, Some(values), gids, num_groups, GroupedAgg::AvgF32)
}

/// Divides the one-word sum by the (possibly device-resident) element count:
/// the tail of the deferred average.
struct ScalarDivByLenKernel {
    sum: Buffer,
    output: Buffer,
    n: LenSource,
}

impl Kernel for ScalarDivByLenKernel {
    fn name(&self) -> &str {
        "scalar_div_by_len"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        if group.group_id() != 0 {
            return;
        }
        let n = self.n.get();
        let value = if n == 0 { 0.0 } else { self.sum.get_f32(0) / n as f32 };
        self.output.set_f32(0, value);
    }
}

/// Number of rows in a column as a deferred scalar: for host-known lengths a
/// staged constant, for deferred columns the existing device counter —
/// either way, no synchronisation.
pub fn count<T: crate::context::DevWord>(
    ctx: &OcelotContext,
    column: &DevColumn<T>,
) -> Result<DevScalar<u32>> {
    match column.col_len() {
        crate::context::ColLen::Host(n) => DevScalar::constant(ctx, *n as u32),
        crate::context::ColLen::Device { counter, .. } => Ok(DevScalar::new(counter.clone(), None)),
    }
}

/// Average of a float column, as a deferred scalar (`0` for an empty
/// column). The division by the element count happens on the device, so the
/// average of a deferred-length column is still sync-free.
pub fn avg_f32(ctx: &OcelotContext, values: &DevColumn<f32>) -> Result<DevScalar<f32>> {
    if values.cap() == 0 {
        return DevScalar::constant(ctx, 0.0f32);
    }
    let total = reduce::sum_f32(ctx, values)?;
    let output = ctx.alloc(1, "avg_output")?;
    let mut wait = ctx.memory().wait_for_read(total.buffer());
    if let crate::context::ColLen::Device { counter, .. } = values.col_len() {
        wait.extend(ctx.memory().wait_for_read(counter));
    }
    let event = ctx.queue().enqueue_kernel(
        Arc::new(ScalarDivByLenKernel {
            sum: total.buffer().clone(),
            output: output.clone(),
            n: values.len_source(),
        }),
        ctx.launch(1),
        &wait,
    )?;
    ctx.memory().record_producer(&output, event);
    Ok(DevScalar::new(output, Some(event)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;
    use ocelot_monet::sequential as monet;

    fn setup(n: usize, groups: u32) -> (Vec<f32>, Vec<u32>) {
        let values: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 101) as f32 * 0.5).collect();
        let gids: Vec<u32> = (0..n).map(|i| (i as u32 * 7 + 3) % groups).collect();
        (values, gids)
    }

    #[test]
    fn grouped_sum_matches_monet_on_all_devices() {
        let (values, gids) = setup(10_000, 37);
        let expected = monet::grouped_sum_f32(&values, &gids, 37);
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let v = ctx.upload_f32(&values, "v").unwrap();
            let g = ctx.upload_u32(&gids, "g").unwrap();
            let sums = grouped_sum_f32(&ctx, &v, &g, 37).unwrap().read(&ctx).unwrap();
            for (a, b) in sums.iter().zip(expected.iter()) {
                assert!((a - b).abs() < 0.5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn grouped_min_max_count_avg() {
        let (values, gids) = setup(5_000, 11);
        let ctx = OcelotContext::cpu();
        let v = ctx.upload_f32(&values, "v").unwrap();
        let g = ctx.upload_u32(&gids, "g").unwrap();

        assert_eq!(
            grouped_min_f32(&ctx, &v, &g, 11).unwrap().read(&ctx).unwrap(),
            monet::grouped_min_f32(&values, &gids, 11)
        );
        assert_eq!(
            grouped_max_f32(&ctx, &v, &g, 11).unwrap().read(&ctx).unwrap(),
            monet::grouped_max_f32(&values, &gids, 11)
        );
        let counts = grouped_count(&ctx, &g, 11).unwrap().read(&ctx).unwrap();
        let expected_counts = monet::grouped_count(&gids, 11);
        for (a, b) in counts.iter().zip(expected_counts.iter()) {
            assert_eq!(*a as i64, *b);
        }
        let avgs = grouped_avg_f32(&ctx, &v, &g, 11).unwrap().read(&ctx).unwrap();
        let expected_avgs = monet::grouped_avg_f32(&values, &gids, 11);
        for (a, b) in avgs.iter().zip(expected_avgs.iter()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn few_groups_use_many_accumulators() {
        // Few groups: many private tables (short, accurate partial sums).
        assert_eq!(partial_tables_for(3_000_000, 4, GroupedAgg::SumF32), MAX_PARTIAL_TABLES);
        assert_eq!(partial_tables_for(20_000, 4, GroupedAgg::SumF32), 19);
        // Many groups: the partials never outgrow the input.
        assert_eq!(partial_tables_for(38_000, 18_000, GroupedAgg::SumF32), 2);
        assert_eq!(partial_tables_for(38_000, 18_000, GroupedAgg::AvgF32), 1);
        assert_eq!(partial_tables_for(10, 10, GroupedAgg::Count), 1);
        assert_eq!(partial_tables_for(0, 4, GroupedAgg::MinF32), 1);
        for (rows, groups) in [(1usize, 1usize), (5_000, 37), (1 << 20, 1 << 19)] {
            for agg in [GroupedAgg::SumF32, GroupedAgg::AvgF32] {
                let words = partial_tables_for(rows, groups, agg) * groups * agg.words_per_group();
                assert!(words <= rows.max(groups * agg.words_per_group()));
            }
        }
    }

    #[test]
    fn grouped_aggregates_are_bit_identical_run_to_run() {
        // 200k rows whose float sum depends on the order of addition: every
        // run on a device must add in the same order.
        let n = 200_000;
        let values: Vec<f32> = (0..n).map(|i| ((i * 7919) % 10_007) as f32 * 1.37 + 0.1).collect();
        let gids: Vec<u32> = (0..n).map(|i| (i as u32 * 31) % 6).collect();
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let v = ctx.upload_f32(&values, "v").unwrap();
            let g = ctx.upload_u32(&gids, "g").unwrap();
            let run = || {
                let sums = grouped_sum_f32(&ctx, &v, &g, 6).unwrap().read(&ctx).unwrap();
                let avgs = grouped_avg_f32(&ctx, &v, &g, 6).unwrap().read(&ctx).unwrap();
                sums.iter().chain(&avgs).map(|x| x.to_bits()).collect::<Vec<u32>>()
            };
            let first = run();
            for _ in 0..10 {
                assert_eq!(run(), first, "{:?}", ctx.device().info().kind);
            }
        }
        // The rule reads no core count: both CPU devices add in one order.
        let bits = |ctx: OcelotContext| {
            let v = ctx.upload_f32(&values, "v").unwrap();
            let g = ctx.upload_u32(&gids, "g").unwrap();
            let sums = grouped_sum_f32(&ctx, &v, &g, 6).unwrap().read(&ctx).unwrap();
            sums.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
        };
        assert_eq!(bits(OcelotContext::cpu_sequential()), bits(OcelotContext::cpu()));
    }

    #[test]
    fn counts_do_not_saturate_past_two_to_the_24() {
        // 2^24 + 2^21 rows in one group: adding 1.0f32 per row stalls at
        // 2^24; u32 partials converted at the fold do not.
        let rows = (1usize << 24) + (1 << 21);
        let ctx = OcelotContext::cpu();
        let gids = DevColumn::<Oid>::new(ctx.alloc(rows, "gids").unwrap(), rows).unwrap();
        let counts = grouped_count(&ctx, &gids, 2).unwrap().read(&ctx).unwrap();
        assert_eq!(counts, vec![rows as f32, 0.0]);
    }

    #[test]
    fn single_group_aggregation_is_exact_for_counts() {
        let ctx = OcelotContext::gpu();
        let gids = vec![0u32; 5_000];
        let g = ctx.upload_u32(&gids, "g").unwrap();
        let counts = grouped_count(&ctx, &g, 1).unwrap().read(&ctx).unwrap();
        assert_eq!(counts, vec![5_000.0]);
    }

    #[test]
    fn ungrouped_aggregates_are_deferred() {
        let ctx = OcelotContext::cpu();
        let v = ctx.upload_f32(&[1.0, 2.0, 3.0], "v").unwrap();
        let flushes = ctx.queue().flush_count();
        let sum = sum_f32(&ctx, &v).unwrap();
        let min = min_f32(&ctx, &v).unwrap();
        let max = max_f32(&ctx, &v).unwrap();
        let avg = avg_f32(&ctx, &v).unwrap();
        let n = count(&ctx, &v).unwrap();
        assert_eq!(ctx.queue().flush_count(), flushes, "aggregates must not flush");
        assert_eq!(sum.get(&ctx).unwrap(), 6.0);
        assert_eq!(min.get(&ctx).unwrap(), 1.0);
        assert_eq!(max.get(&ctx).unwrap(), 3.0);
        assert_eq!(avg.get(&ctx).unwrap(), 2.0);
        assert_eq!(n.get(&ctx).unwrap(), 3);
        let empty = ctx.upload_f32(&[], "e").unwrap();
        assert_eq!(avg_f32(&ctx, &empty).unwrap().get(&ctx).unwrap(), 0.0);
    }

    #[test]
    fn empty_group_identities() {
        let ctx = OcelotContext::cpu();
        let v = ctx.upload_f32(&[1.0], "v").unwrap();
        let g = ctx.upload_u32(&[2], "g").unwrap();
        let mins = grouped_min_f32(&ctx, &v, &g, 4).unwrap().read(&ctx).unwrap();
        assert_eq!(mins[0], f32::INFINITY);
        assert_eq!(mins[2], 1.0);
        let counts = grouped_count(&ctx, &g, 4).unwrap().read(&ctx).unwrap();
        assert_eq!(counts, vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn zero_groups() {
        let ctx = OcelotContext::cpu();
        let v = ctx.upload_f32(&[], "v").unwrap();
        let g = ctx.upload_u32(&[], "g").unwrap();
        assert_eq!(grouped_sum_f32(&ctx, &v, &g, 0).unwrap().read(&ctx).unwrap().len(), 0);
    }
}
