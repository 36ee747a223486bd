//! Aggregation operators (paper §4.1.7).
//!
//! * **Ungrouped aggregation** delegates to the hierarchical parallel
//!   reduction in [`crate::primitives::reduce`] — every result is a deferred
//!   [`DevScalar`] whose `.get()` is the pipeline's only sync point.
//! * **Grouped aggregation** ([`grouped_aggs`]) computes *every* aggregate of
//!   a grouping in one accumulation launch and one fold launch. Each
//!   work-group owns a *private* table of partial aggregates — in a range of
//!   the partials buffer no other work-group touches — and the fold kernel
//!   combines the tables in work-group order. The paper spreads each group
//!   over several atomically updated accumulators to dodge contention;
//!   private tables are that idea taken to its end: no contention at all, so
//!   the inner loop is plain tier-2 arithmetic (no float atomics,
//!   CAS-emulated or otherwise), and the order of every floating-point
//!   addition is fixed by the launch configuration rather than by thread
//!   interleaving.
//!
//! **Fused partial-table layout.** The aggregates of one call share
//! accumulators: one float accumulator per distinct `(sum | min | max,
//! value column)` pair — `sum(x)` and `avg(x)` read `x` once and add it once
//! — and one `u32` count accumulator that serves `count(*)` and every
//! average. A table is group-major, `table[gid × words + slot]` with
//! `words` the accumulator count, so one row touches one cache line of its
//! group's record however many aggregates there are. The group-id column is
//! read once per batch of [`MAX_BATCH`] float accumulators of one kind — once
//! in all for the usual all-sums query — and each value column once.
//!
//! **Partial-table sizing rule** ([`partial_tables_for`]): as many
//! work-groups as keep `work-groups × groups` no larger than the row count —
//! so every accumulator's partial column is no larger than the column it
//! folds — and give every work-group at least [`MIN_ROWS_PER_TABLE`] rows,
//! capped at [`MAX_PARTIAL_TABLES`]. Few groups therefore get many short
//! partial sums — which is also what keeps `f32` sums of millions of rows
//! accurate — and many groups degrade to a single sequential table, still
//! linear. The rule reads only the row and group counts: not the device's
//! core count, so the sequential and multi-core CPU devices add in the same
//! order, and not the number of aggregates, so an aggregate's bits do not
//! depend on what it was fused with.
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
    Buffer, BufferAccess, EventId, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result,
    WorkGroupCtx,
};
use std::sync::Arc;

pub use crate::primitives::reduce::{max_f32, max_i32, min_f32, min_i32, sum_f32, sum_i32};

/// Upper bound on the work-groups (private partial tables) of one grouped
/// aggregation.
pub const MAX_PARTIAL_TABLES: usize = 64;
/// A work-group is only worth its partial table if it folds this many rows.
pub const MIN_ROWS_PER_TABLE: usize = 1024;
/// Float accumulators of one kind a single pass over the group ids feeds;
/// more than that are folded in further passes.
pub const MAX_BATCH: usize = 8;

/// One aggregate of a fused grouped aggregation ([`grouped_aggs`]). The
/// payload names the value column the aggregate reads, as an index into the
/// call's value columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupedAgg {
    /// Per-group sum.
    Sum(usize),
    /// Per-group minimum (`+∞` for empty groups).
    Min(usize),
    /// Per-group maximum (`-∞` for empty groups).
    Max(usize),
    /// Per-group average (0 for empty groups): the column's sum accumulator
    /// divided by the shared count at the fold.
    Avg(usize),
    /// Per-group row count (reads no value column).
    Count,
}

impl GroupedAgg {
    /// The value column the aggregate reads, if any.
    pub fn input(self) -> Option<usize> {
        match self {
            GroupedAgg::Sum(column)
            | GroupedAgg::Min(column)
            | GroupedAgg::Max(column)
            | GroupedAgg::Avg(column) => Some(column),
            GroupedAgg::Count => None,
        }
    }
}

impl std::fmt::Display for GroupedAgg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupedAgg::Sum(column) => write!(f, "sum({column})"),
            GroupedAgg::Min(column) => write!(f, "min({column})"),
            GroupedAgg::Max(column) => write!(f, "max({column})"),
            GroupedAgg::Avg(column) => write!(f, "avg({column})"),
            GroupedAgg::Count => write!(f, "count"),
        }
    }
}

/// Number of work-groups — private partial tables — for folding `rows` rows
/// into tables of `slots` entries (module docs). Shared with the dense-code
/// grouping's first-row tables.
pub(crate) fn partial_tables_for(rows: usize, slots: usize) -> usize {
    (rows / slots.max(MIN_ROWS_PER_TABLE)).clamp(1, MAX_PARTIAL_TABLES)
}

/// How a float accumulator combines values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    Sum,
    Min,
    Max,
}

impl Fold {
    fn identity(self) -> f32 {
        match self {
            Fold::Sum => 0.0,
            Fold::Min => f32::INFINITY,
            Fold::Max => f32::NEG_INFINITY,
        }
    }
}

/// The accumulators behind a set of aggregates (module docs): the float
/// accumulators — sums, then minima, then maxima, so each kind is one run —
/// followed by the count, if anything needs it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Accumulators {
    floats: Vec<(Fold, usize)>,
    counted: bool,
}

impl Accumulators {
    fn of(funcs: &[GroupedAgg]) -> Accumulators {
        let mut floats: Vec<(Fold, usize)> = Vec::new();
        for kind in [Fold::Sum, Fold::Min, Fold::Max] {
            for func in funcs {
                let wanted = match (kind, *func) {
                    (Fold::Sum, GroupedAgg::Sum(column) | GroupedAgg::Avg(column))
                    | (Fold::Min, GroupedAgg::Min(column))
                    | (Fold::Max, GroupedAgg::Max(column)) => (kind, column),
                    _ => continue,
                };
                if !floats.contains(&wanted) {
                    floats.push(wanted);
                }
            }
        }
        let counted =
            funcs.iter().any(|func| matches!(func, GroupedAgg::Avg(_) | GroupedAgg::Count));
        Accumulators { floats, counted }
    }

    /// Accumulator words per group.
    fn words(&self) -> usize {
        self.floats.len() + usize::from(self.counted)
    }

    fn slot(&self, fold: Fold, column: usize) -> usize {
        self.floats
            .iter()
            .position(|float| *float == (fold, column))
            .expect("every aggregate's accumulator is in the layout")
    }

    /// The count accumulator's slot (after the floats).
    fn count_slot(&self) -> Option<usize> {
        self.counted.then_some(self.floats.len())
    }

    /// The distinct value columns the accumulators read.
    fn columns(&self) -> Vec<usize> {
        let mut columns: Vec<usize> = self.floats.iter().map(|(_, column)| *column).collect();
        columns.sort_unstable();
        columns.dedup();
        columns
    }

    /// The passes over the rows: runs of one kind of float accumulator, at
    /// most [`MAX_BATCH`] wide, as `(kind, first slot, width)`.
    fn batches(&self) -> Vec<(Fold, usize, usize)> {
        let mut batches: Vec<(Fold, usize, usize)> = Vec::new();
        for (slot, (fold, _)) in self.floats.iter().enumerate() {
            match batches.last_mut() {
                Some((kind, _, width)) if kind == fold && *width < MAX_BATCH => *width += 1,
                _ => batches.push((*fold, slot, 1)),
            }
        }
        batches
    }
}

/// What one pass over a work-group's rows updates in every row's group
/// record: `N` adjacent float accumulators starting at `first_slot`, and the
/// count accumulator if the pass carries it.
struct Pass<'a, const N: usize> {
    words: usize,
    first_slot: usize,
    columns: [&'a [u32]; N],
    count_slot: Option<usize>,
}

impl<const N: usize> Pass<'_, N> {
    /// Folds row `row` of `columns` into the record of group `gid`.
    #[inline(always)]
    fn fold_row(
        &self,
        table: &mut [u32],
        gid: u32,
        columns: &[&[u32]; N],
        row: usize,
        combine: impl Fn(f32, f32) -> f32,
    ) {
        let base = gid as usize * self.words;
        let floats = &mut table[base + self.first_slot..][..N];
        for (word, column) in floats.iter_mut().zip(columns) {
            *word = combine(f32::from_bits(*word), f32::from_bits(column[row])).to_bits();
        }
        if let Some(slot) = self.count_slot {
            table[base + slot] += 1;
        }
    }

    /// Monomorphised per width and kind, so the per-row accumulator loop is
    /// unrolled and the accumulators' dependency chains run side by side.
    #[inline(always)]
    fn run(
        &self,
        group: &WorkGroupCtx,
        n: usize,
        table: &mut [u32],
        gids: &[u32],
        combine: impl Fn(f32, f32) -> f32 + Copy,
    ) {
        for item in group.items() {
            let assigned = item.assigned();
            match assigned.as_range() {
                // A contiguous chunk: one slice per input, so the row loop
                // carries one bounds check (the group id's) instead of one
                // per column.
                Some(rows) => {
                    let rows = rows.start.min(n)..rows.end.min(n);
                    let columns = self.columns.map(|column| &column[rows.clone()]);
                    for (row, gid) in gids[rows].iter().enumerate() {
                        self.fold_row(table, *gid, &columns, row, combine);
                    }
                }
                None => {
                    for row in assigned.filter(|row| *row < n) {
                        self.fold_row(table, gids[row], &self.columns, row, combine);
                    }
                }
            }
        }
    }
}

/// The accumulation kernel: every work-group folds its rows into its own
/// table `partials[group_id × table_words ..][.. table_words]`.
struct GroupedPartialsKernel {
    /// The call's value columns (only those an accumulator names are read).
    values: Vec<Buffer>,
    gids: Buffer,
    partials: Buffer,
    num_groups: usize,
    layout: Accumulators,
    n: LenSource,
}

impl GroupedPartialsKernel {
    fn table_words(&self) -> usize {
        self.num_groups * self.layout.words()
    }

    /// One pass of `width` float accumulators from `first_slot` on.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &self,
        group: &WorkGroupCtx,
        n: usize,
        table: &mut [u32],
        fold: Fold,
        first_slot: usize,
        width: usize,
        count_slot: Option<usize>,
    ) {
        let gids = self.gids.as_words();
        let columns: Vec<&[u32]> = self.layout.floats[first_slot..first_slot + width]
            .iter()
            .map(|(_, column)| self.values[*column].as_words())
            .collect();
        macro_rules! run {
            ($($width:literal)*) => {
                match width {
                    $($width => {
                        let pass = Pass::<$width> {
                            words: self.layout.words(),
                            first_slot,
                            columns: columns.as_slice().try_into().expect("width matches"),
                            count_slot,
                        };
                        match fold {
                            Fold::Sum => pass.run(group, n, table, gids, |a, b| a + b),
                            Fold::Min => pass.run(group, n, table, gids, f32::min),
                            Fold::Max => pass.run(group, n, table, gids, f32::max),
                        }
                    })*
                    _ => unreachable!("a batch is at most MAX_BATCH accumulators wide"),
                }
            };
        }
        run!(0 1 2 3 4 5 6 7 8);
    }
}

impl Kernel for GroupedPartialsKernel {
    fn name(&self) -> &str {
        "grouped_partials"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let n = self.n.get();
        let base = group.group_id() * self.table_words();
        // SAFETY: the table of work-group `group_id` is this range and no
        // other work-group's; the group's items run one after another.
        let table = unsafe { self.partials.chunk_mut(base, base + self.table_words()) };
        let mut record: Vec<u32> =
            self.layout.floats.iter().map(|(fold, _)| fold.identity().to_bits()).collect();
        record.extend(self.layout.count_slot().map(|_| 0));
        table.chunks_exact_mut(record.len()).for_each(|group| group.copy_from_slice(&record));
        // The count rides on the first pass; with no float accumulator at
        // all it is a pass of its own.
        let mut count_slot = self.layout.count_slot();
        for (fold, first_slot, width) in self.layout.batches() {
            self.pass(group, n, table, fold, first_slot, width, count_slot.take());
        }
        if count_slot.is_some() {
            self.pass(group, n, table, Fold::Sum, 0, 0, count_slot);
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let streamed = (launch.n * (self.layout.columns().len() + 1)) as u64;
        KernelCost::new(
            streamed * 4,
            (launch.num_groups * self.table_words()) as u64 * 4,
            (launch.n * self.layout.words()) as u64,
            0,
        )
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = vec![
            BufferAccess::slice_read(&self.gids, 0..launch.n),
            BufferAccess::slice_write(&self.partials, 0..launch.num_groups * self.table_words()),
        ];
        for column in self.layout.columns() {
            accesses.push(BufferAccess::slice_read(&self.values[column], 0..launch.n));
        }
        Some(KernelAccesses::of(accesses))
    }
}

/// Folds the partial tables into every aggregate's final per-group value, in
/// work-group order.
struct FoldPartialsKernel {
    partials: Buffer,
    outputs: Vec<(GroupedAgg, Buffer)>,
    num_groups: usize,
    tables: usize,
    layout: Accumulators,
}

impl Kernel for FoldPartialsKernel {
    fn name(&self) -> &str {
        "grouped_fold"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let words = self.layout.words();
        let table_words = self.num_groups * words;
        let partials = self.partials.chunk(0, self.tables * table_words);
        for item in group.items() {
            for gid in item.assigned() {
                let accumulator =
                    |slot: usize| partials[gid * words + slot..].iter().step_by(table_words);
                let float = |fold: Fold, column: usize| {
                    let partials = accumulator(self.layout.slot(fold, column));
                    let partials = partials.map(|bits| f32::from_bits(*bits));
                    match fold {
                        Fold::Sum => partials.fold(0.0, |a, b| a + b),
                        Fold::Min => partials.fold(f32::INFINITY, f32::min),
                        Fold::Max => partials.fold(f32::NEG_INFINITY, f32::max),
                    }
                };
                let count = || {
                    let slot = self.layout.count_slot().expect("counted layouts have the slot");
                    accumulator(slot).sum::<u32>()
                };
                for (func, output) in &self.outputs {
                    let value = match *func {
                        GroupedAgg::Sum(column) => float(Fold::Sum, column),
                        GroupedAgg::Min(column) => float(Fold::Min, column),
                        GroupedAgg::Max(column) => float(Fold::Max, column),
                        GroupedAgg::Count => count() as f32,
                        GroupedAgg::Avg(column) => match count() {
                            0 => 0.0,
                            count => float(Fold::Sum, column) / count as f32,
                        },
                    };
                    output.set_f32(gid, value);
                }
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let words = (self.tables * self.num_groups * self.layout.words()) as u64;
        KernelCost::new(words * 4, (launch.n * self.outputs.len()) as u64 * 4, words, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let table_words = self.num_groups * self.layout.words();
        let mut accesses =
            vec![BufferAccess::slice_read(&self.partials, 0..self.tables * table_words)];
        for (_, output) in &self.outputs {
            accesses.push(BufferAccess::cells_write(output, 0..launch.n));
        }
        Some(KernelAccesses::of(accesses))
    }
}

/// Computes every aggregate in `funcs` over one grouping in a single
/// accumulation launch and a single fold launch (module docs), returning one
/// `num_groups`-long column per aggregate, in `funcs` order. Lazy: `gids`
/// and the value columns may carry deferred lengths.
///
/// # Panics
/// Panics if an aggregate names a value column `values` does not have, or
/// if a value column it reads is shorter than the group-id column.
pub fn grouped_aggs(
    ctx: &OcelotContext,
    values: &[&DevColumn<f32>],
    gids: &DevColumn<Oid>,
    num_groups: usize,
    funcs: &[GroupedAgg],
) -> Result<Vec<DevColumn<f32>>> {
    let layout = Accumulators::of(funcs);
    for column in layout.columns() {
        assert!(column < values.len(), "grouped aggregate: no value column {column}");
        // Aligned inputs: when both lengths are host-known they must match;
        // a deferred value column (e.g. a fetch over an uncounted selection)
        // only needs to cover every row the gid column can address.
        match (values[column].host_len(), gids.host_len()) {
            (Some(a), Some(b)) => assert_eq!(a, b, "grouped aggregate: length mismatch"),
            _ => assert!(values[column].cap() >= gids.cap(), "grouped aggregate: length mismatch"),
        }
    }
    // The fold writes every group's word of every output.
    let outputs: Vec<Buffer> = funcs
        .iter()
        .map(|_| ctx.alloc_uninit(num_groups.max(1), "grouped_output"))
        .collect::<Result<_>>()?;
    let columns = |outputs: Vec<Buffer>| {
        outputs.into_iter().map(|output| DevColumn::new(output, num_groups)).collect()
    };
    if num_groups == 0 || funcs.is_empty() {
        return columns(outputs);
    }
    let tables = partial_tables_for(gids.cap(), num_groups);
    // Every work-group initialises its own table.
    let partials = ctx.alloc_uninit(tables * num_groups * layout.words(), "grouped_partials")?;

    let mut wait: Vec<EventId> = ctx.wait_for(gids);
    for column in layout.columns() {
        wait.extend(ctx.wait_for(values[column]));
    }
    let partials_event = ctx.queue().enqueue_kernel(
        Arc::new(GroupedPartialsKernel {
            values: values.iter().map(|column| column.buffer.clone()).collect(),
            gids: gids.buffer.clone(),
            partials: partials.clone(),
            num_groups,
            layout: layout.clone(),
            n: gids.len_source(),
        }),
        ctx.launch(gids.cap()).with_num_groups(tables),
        &wait,
    )?;
    let fold_event = ctx.queue().enqueue_kernel(
        Arc::new(FoldPartialsKernel {
            partials,
            outputs: funcs.iter().copied().zip(outputs.iter().cloned()).collect(),
            num_groups,
            tables,
            layout: layout.clone(),
        }),
        ctx.launch(num_groups),
        &[partials_event],
    )?;
    ctx.memory().record_consumer(&gids.buffer, partials_event);
    for column in layout.columns() {
        ctx.memory().record_consumer(&values[column].buffer, partials_event);
    }
    for output in &outputs {
        ctx.memory().record_producer(output, fold_event);
    }
    columns(outputs)
}

/// [`grouped_aggs`] with one aggregate over (at most) one value column.
fn grouped_agg(
    ctx: &OcelotContext,
    values: Option<&DevColumn<f32>>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
    func: GroupedAgg,
) -> Result<DevColumn<f32>> {
    let values: Vec<&DevColumn<f32>> = values.into_iter().collect();
    let mut columns = grouped_aggs(ctx, &values, gids, num_groups, &[func])?;
    Ok(columns.pop().expect("one aggregate, one column"))
}

/// Per-group sums of a float column.
pub fn grouped_sum_f32(
    ctx: &OcelotContext,
    values: &DevColumn<f32>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_agg(ctx, Some(values), gids, num_groups, GroupedAgg::Sum(0))
}

/// Per-group minima of a float column (`+∞` for empty groups).
pub fn grouped_min_f32(
    ctx: &OcelotContext,
    values: &DevColumn<f32>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_agg(ctx, Some(values), gids, num_groups, GroupedAgg::Min(0))
}

/// Per-group maxima of a float column (`-∞` for empty groups).
pub fn grouped_max_f32(
    ctx: &OcelotContext,
    values: &DevColumn<f32>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_agg(ctx, Some(values), gids, num_groups, GroupedAgg::Max(0))
}

/// Per-group row counts, returned as a float column (the four-byte engine
/// representation; counted in `u32`, converted once at the fold).
pub fn grouped_count(
    ctx: &OcelotContext,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_agg(ctx, None, gids, num_groups, GroupedAgg::Count)
}

/// Per-group averages of a float column (0 for empty groups): sum and count
/// accumulators side by side, divided at the fold.
pub fn grouped_avg_f32(
    ctx: &OcelotContext,
    values: &DevColumn<f32>,
    gids: &DevColumn<Oid>,
    num_groups: usize,
) -> Result<DevColumn<f32>> {
    grouped_agg(ctx, Some(values), gids, num_groups, GroupedAgg::Avg(0))
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
        assert_eq!(partial_tables_for(3_000_000, 4), MAX_PARTIAL_TABLES);
        assert_eq!(partial_tables_for(20_000, 4), 19);
        // Many groups: no accumulator's partial column outgrows its input.
        assert_eq!(partial_tables_for(38_000, 18_000), 2);
        assert_eq!(partial_tables_for(38_000, 20_000), 1);
        assert_eq!(partial_tables_for(10, 10), 1);
        assert_eq!(partial_tables_for(0, 4), 1);
        for (rows, groups) in [(1usize, 1usize), (5_000, 37), (1 << 20, 1 << 19)] {
            assert!(partial_tables_for(rows, groups) * groups <= rows.max(groups));
        }
    }

    #[test]
    fn aggregates_share_accumulators_and_passes() {
        use GroupedAgg::{Avg, Count, Max, Min, Sum};
        // Q1's shape: sum and avg of one column share its sum, every avg and
        // the count share one counter — 5 floats + 1 count, one pass.
        let q1 = [Sum(0), Sum(1), Sum(2), Sum(3), Avg(0), Avg(1), Avg(4), Count];
        let layout = Accumulators::of(&q1);
        assert_eq!(layout.floats, (0..5).map(|c| (Fold::Sum, c)).collect::<Vec<_>>());
        assert_eq!((layout.words(), layout.count_slot()), (6, Some(5)));
        assert_eq!(layout.batches(), vec![(Fold::Sum, 0, 5)]);
        // Kinds are runs; a run wider than MAX_BATCH splits.
        let mixed: Vec<GroupedAgg> =
            (0..10).map(Sum).chain([Max(1), Min(1), Min(0), Min(1)]).collect();
        let layout = Accumulators::of(&mixed);
        assert_eq!(layout.words(), 13);
        assert_eq!(layout.count_slot(), None);
        assert_eq!(
            layout.batches(),
            vec![(Fold::Sum, 0, 8), (Fold::Sum, 8, 2), (Fold::Min, 10, 2), (Fold::Max, 12, 1)]
        );
        assert_eq!(Accumulators::of(&[Count]).batches(), vec![]);
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
