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
//! **Fused accumulation** ([`fused_aggs`]). The accumulation launch does not
//! need its value columns to exist: it takes a [`RowSource`] — every row, the
//! rows a candidate list names, or the rows a conjunction of predicates
//! keeps — and one value *expression* per value column
//! ([`super::rowexpr`]), and evaluates both on its way through the rows, a
//! batch at a time: a 1024-row tile of rows or list entries, or — under a
//! row filter, whose tile-local masks keep few rows each — the survivors of
//! as many tiles as it takes to collect a tile's worth (grouped by key
//! columns: every tile as it lies, below). The batch's
//! base-column values are gathered — or, when a grouping's listed rows are
//! at least every other row of the stretch they lie in, the stretch is read
//! as it lies — the expressions go into tile-sized scratch, then the same
//! accumulator pass as ever. Selection, fetch and arithmetic intermediates
//! never reach device memory. [`grouped_aggs`] is the case where every
//! expression is a column that already exists; an ungrouped sum is the
//! one-group case, and there the pass is not row by row — one accumulator
//! would wait for every addition before it — but column by column: each
//! batch's value column is folded eight partials wide ([`Fold::reduce`])
//! and joins the work-group's one record.
//!
//! **Keyed accumulation** ([`keyed_aggs`]). The groups need not exist
//! either. Grouped by key columns of the slots, a position's group is the
//! dense code of its key tuple (`groupby`'s numbering), computed per batch;
//! the partial tables hold a record per code — plus, under a row filter,
//! one past them: every tile is folded as it lies, and the rows its mask
//! drops go to that record, which no group reads — and every record keeps
//! the first position it counts. The first rows fold and are ranked on the
//! host exactly as the dense-code grouping's own tables are, and the fold
//! launch folds group `g` from its code's records: grouping, key fetches
//! and group ids never reach device memory, and any [`RowSource`] — a row
//! filter included — may be grouped. Key spaces past `GROUPING_START` codes fall back to the
//! operators the plan would have run.
//!
//! **Equality rule.** Grouped results are bit-equal run to run on one
//! backend and device configuration. Across backends, integers, counts and
//! OIDs are exact; floats agree within relative `1e-4` (the Monet backends
//! accumulate in `f64`, the devices in `f32` in the order above). Work-groups
//! partition *positions* — rows, or candidate-list entries — so a float sum
//! computed over a row filter inside the launch and the same sum over the
//! filter's materialised result group their additions differently: each
//! reproducible — work-groups and batches are cut by row counts and by the
//! data, never by timing — within the rule of each other, not bit-equal.
//!
//! Counts are accumulated in `u32` and converted to the engine's four-byte
//! float representation once, at the fold: exact up to 2^24 rows per group
//! and correctly rounded beyond, never saturating.

use super::groupby::{group_by_shaped, rank_first_rows, DenseCodes, FirstRows, NO_ROW};
use super::hash_table::{key_shape, KeyShape};
use super::rowexpr::{conjunction_mask, select_where, Map, Pred, Scratch, TILE};
use super::select::materialize_bitmap;
use crate::context::{DevColumn, DevScalar, LenSource, OcelotContext, Oid};
use crate::primitives::gather::gather;
use ocelot_kernel::{
    Buffer, BufferAccess, EventId, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result,
    WorkGroupCtx,
};
use std::ops::Range;
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

    fn combine(self, a: f32, b: f32) -> f32 {
        match self {
            Fold::Sum => a + b,
            Fold::Min => a.min(b),
            Fold::Max => a.max(b),
        }
    }

    /// Folds a whole column of float words into one value: position `i` into
    /// partial `i mod 8`, the eight partials combined in order — eight
    /// independent chains the compiler runs as vector lanes, where one
    /// accumulator would wait for every addition before it.
    fn reduce(self, values: &[u32]) -> f32 {
        fn lanes(values: &[u32], identity: f32, combine: impl Fn(f32, f32) -> f32) -> f32 {
            let mut partials = [identity; 8];
            for chunk in values.chunks(8) {
                for (partial, value) in partials.iter_mut().zip(chunk) {
                    *partial = combine(*partial, f32::from_bits(*value));
                }
            }
            partials.into_iter().fold(identity, combine)
        }
        match self {
            Fold::Sum => lanes(values, 0.0, |a, b| a + b),
            Fold::Min => lanes(values, f32::INFINITY, f32::min),
            Fold::Max => lanes(values, f32::NEG_INFINITY, f32::max),
        }
    }
}

/// The accumulators behind a set of aggregates (module docs): the float
/// accumulators — sums, then minima, then maxima, so each kind is one run —
/// followed by the count, if anything needs it, and — grouped by codes — the
/// record's first position.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Accumulators {
    floats: Vec<(Fold, usize)>,
    counted: bool,
    first_row: bool,
}

impl Accumulators {
    /// The layout of `funcs` over `values` value columns.
    ///
    /// # Panics
    /// Panics if an aggregate names a value column there is not.
    fn checked(funcs: &[GroupedAgg], values: usize) -> Accumulators {
        let layout = Accumulators::of(funcs);
        for column in layout.columns() {
            assert!(column < values, "grouped aggregate: no value column {column}");
        }
        layout
    }

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
        Accumulators { floats, counted, first_row: false }
    }

    /// Accumulator words per group.
    fn words(&self) -> usize {
        self.floats.len() + usize::from(self.counted) + usize::from(self.first_row)
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

    /// The first position's slot (last). Only a counted layout keeps it: a
    /// record's first position is the position it counts first.
    fn first_row_slot(&self) -> Option<usize> {
        self.first_row.then_some(self.floats.len() + usize::from(self.counted))
    }

    /// A record before anything is folded into it.
    fn identities(&self) -> Vec<u32> {
        let mut record: Vec<u32> =
            self.floats.iter().map(|(fold, _)| fold.identity().to_bits()).collect();
        record.extend(self.count_slot().map(|_| 0));
        record.extend(self.first_row_slot().map(|_| NO_ROW));
        record
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
/// count accumulator if the pass carries it — and with the count, the
/// record's first position if the layout keeps it.
struct Pass<'a, const N: usize> {
    words: usize,
    first_slot: usize,
    columns: [&'a [u32]; N],
    count_slot: Option<usize>,
    /// The first position's slot and the batch's first position.
    first_row: Option<(usize, u32)>,
}

impl<const N: usize> Pass<'_, N> {
    /// Folds row `row` of `columns`, the batch's `index`-th position, into
    /// the record of group `gid`.
    #[inline(always)]
    fn fold_row(
        &self,
        table: &mut [u32],
        gid: u32,
        columns: &[&[u32]; N],
        (index, row): (usize, usize),
        combine: impl Fn(f32, f32) -> f32,
    ) {
        let base = gid as usize * self.words;
        let floats = &mut table[base + self.first_slot..][..N];
        for (word, column) in floats.iter_mut().zip(columns) {
            *word = combine(f32::from_bits(*word), f32::from_bits(column[row])).to_bits();
        }
        if let Some(slot) = self.count_slot {
            // Positions ascend, so a record's first position is the one it
            // counts first: a store only then, off the count already loaded.
            let count = table[base + slot];
            if let (0, Some((first, start))) = (count, self.first_row) {
                table[base + first] = start + index as u32;
            }
            table[base + slot] = count + 1;
        }
    }

    /// Folds one tile — position `i` takes row `row_of(i)` of every column
    /// and belongs to group `gids[i]` — into `table`. Monomorphised per
    /// width and kind, so the per-row accumulator loop is unrolled and the
    /// accumulators' dependency chains run side by side.
    #[inline(always)]
    fn run(
        &self,
        table: &mut [u32],
        gids: &[u32],
        row_of: impl Fn(usize) -> usize,
        combine: impl Fn(f32, f32) -> f32 + Copy,
    ) {
        for (index, gid) in gids.iter().enumerate() {
            self.fold_row(table, *gid, &self.columns, (index, row_of(index)), combine);
        }
    }
}

/// Where the rows of a fused aggregation come from.
#[derive(Debug, Clone, Copy)]
pub enum RowSource<'a> {
    /// Every row of the column slots, in order; group ids align with them.
    All,
    /// The rows a candidate list names, in list order: the column slots are
    /// read *through* the list, group ids align with its positions.
    Candidates(&'a DevColumn<Oid>),
    /// The rows on which every conjunct holds, evaluated in the accumulation
    /// launch itself — no bitmap, no candidate list. Ungrouped, or grouped by
    /// key columns ([`keyed_aggs`]): never with group ids, which align with a
    /// list's positions.
    Where(&'a [Pred]),
}

/// [`RowSource`] as the kernel holds it.
enum Rows {
    All,
    Candidates(Buffer),
    Where(Vec<Pred>),
}

/// The group of every position, as the kernel holds it.
enum Groups {
    /// Everything is group 0 (the ungrouped sum).
    One,
    /// Group id per position.
    Ids(Buffer),
    /// The dense code of the key tuple in these column slots at the
    /// position's row; every record keeps its first position too. Under a
    /// row filter tiles are folded as they lie, the rows it drops into the
    /// record past the codes.
    Codes { slots: Vec<usize>, codes: DenseCodes },
}

/// Per-work-group scratch of the accumulation kernel: one tile per gathered
/// column slot and per computed value column, grown on first use.
struct Tiles {
    gathered: Vec<Vec<u32>>,
    computed: Vec<Vec<u32>>,
    scratch: Scratch,
}

/// The most positions one batch holds: the survivors of a row filter are
/// collected until there is a tile's worth, so a batch ends less than one
/// tile past that.
const BATCH: usize = 2 * TILE;

/// The longest stretch of a column a batch's listed rows may span and still
/// be read as it lies: listed rows that are at least every other row of
/// their stretch touch all its cache lines anyway, so the stretch is
/// streamed whole and nothing is gathered.
const REACH: usize = 2 * TILE;

/// The accumulation kernel: every work-group folds its rows into its own
/// table `partials[group_id × table_words ..][.. table_words]`, evaluating
/// the row source and the value expressions batch by batch on the way — what
/// they produce lives in [`Tiles`], never in device memory.
struct FusedPartialsKernel {
    /// The column slots predicates and value expressions read.
    cols: Vec<Buffer>,
    rows: Rows,
    /// The aggregates' value columns, as expressions over the slots and the
    /// value columns before them.
    values: Vec<Map>,
    /// The slots those expressions read.
    value_slots: Vec<usize>,
    groups: Groups,
    partials: Buffer,
    /// Records per partial table: the groups, or the codes.
    records: usize,
    layout: Accumulators,
    /// `layout.batches()`, computed once.
    batches: Vec<(Fold, usize, usize)>,
    /// Positions: rows, or candidate-list entries.
    n: LenSource,
}

impl FusedPartialsKernel {
    fn table_words(&self) -> usize {
        self.records * self.layout.words()
    }

    /// Folds one batch into `table`: the rows `listed`, in list order — or,
    /// with no list, the rows `span` — of groups `gids` (`None`: all of
    /// group 0). A grouping by codes reads no row filter's survivors, so the
    /// batch's positions count from `span.start`.
    fn fold(
        &self,
        listed: Option<&[u32]>,
        span: Range<usize>,
        gids: Option<&[u32]>,
        cols: &[&[u32]],
        table: &mut [u32],
        tiles: &mut Tiles,
    ) {
        let Tiles { gathered, computed, scratch } = tiles;
        let start = span.start as u32;
        let rows = listed.map_or(span.len(), |list| list.len());
        // The slots the values read: a stretch of each column as it lies —
        // the span, or (`picks`) the stretch dense listed rows of a grouping
        // lie in, each position picking its row — or the listed rows
        // gathered. The stretch is the one between the first and the last
        // listed row, if no row lies outside it (one unsigned comparison per
        // row; a list whose last row is before its first has no such stretch).
        let dense = listed.filter(|_| gids.is_some()).and_then(|list| {
            let (low, reach) = (*list.first()?, list.last()?.wrapping_sub(*list.first()?));
            let outside = |row: &u32| row.wrapping_sub(low) > reach;
            let dense = (reach as usize) < REACH.min(2 * list.len())
                && !list.iter().fold(false, |any, row| any | outside(row));
            dense.then_some((low, reach as usize))
        });
        let stretch = match (listed, dense) {
            (None, _) => Some(span),
            (_, Some((low, reach))) => Some(low as usize..low as usize + reach + 1),
            (Some(list), None) => {
                for slot in &self.value_slots {
                    let (tile, column) = (&mut gathered[*slot], cols[*slot]);
                    tile.clear();
                    tile.extend(list.iter().map(|&row| column[row as usize]));
                }
                None
            }
        };
        let len = stretch.as_ref().map_or(rows, |stretch| stretch.len());
        let mut operands: Vec<&[u32]> = vec![&[]; cols.len()];
        for slot in &self.value_slots {
            operands[*slot] = match &stretch {
                Some(stretch) => &cols[*slot][stretch.clone()],
                None => &gathered[*slot][..rows],
            };
        }
        // The value columns, in order: each joins the operands, where a
        // later one may read it.
        for (value, tile) in self.values.iter().zip(computed.iter_mut()) {
            operands.push(match value {
                Map::Col(slot) => operands[*slot],
                _ => {
                    tile.resize(len, 0);
                    value.eval(&operands, tile, scratch);
                    tile
                }
            });
        }
        let values = &operands[cols.len()..];
        let mut count_slot = self.layout.count_slot();
        // One group: every accumulator takes its whole column, folded eight
        // partials wide; the count takes the batch.
        let Some(gids) = gids else {
            for (word, (fold, value)) in table.iter_mut().zip(&self.layout.floats) {
                *word = fold.combine(f32::from_bits(*word), fold.reduce(values[*value])).to_bits();
            }
            count_slot.into_iter().for_each(|slot| table[slot] += rows as u32);
            return;
        };
        let picks = listed.zip(dense).map(|(list, (low, _))| (list, low));
        // The count — and with it the first position — rides on the first
        // pass; with no float accumulator at all it is a pass of its own.
        let first_row = self.layout.first_row_slot().map(|slot| (slot, start));
        for (fold, first_slot, width) in &self.batches {
            let pass = (*fold, *first_slot, *width, count_slot.take(), first_row);
            self.pass(table, gids, picks, values, pass);
        }
        if count_slot.is_some() {
            self.pass(table, gids, picks, values, (Fold::Sum, 0, 0, count_slot, first_row));
        }
    }

    /// One pass of `width` float accumulators of kind `fold` from
    /// `first_slot` on, carrying the count and the first position as told.
    #[allow(clippy::type_complexity)]
    fn pass(
        &self,
        table: &mut [u32],
        gids: &[u32],
        picks: Option<(&[u32], u32)>,
        values: &[&[u32]],
        (fold, first_slot, width, count_slot, first_row): (
            Fold,
            usize,
            usize,
            Option<usize>,
            Option<(usize, u32)>,
        ),
    ) {
        let mut columns: [&[u32]; MAX_BATCH] = [&[]; MAX_BATCH];
        for (column, (_, value)) in
            columns.iter_mut().zip(&self.layout.floats[first_slot..first_slot + width])
        {
            *column = values[*value];
        }
        macro_rules! run {
            ($($width:literal)*) => {
                match width {
                    $($width => {
                        let pass = Pass::<$width> {
                            words: self.layout.words(),
                            first_slot,
                            columns: columns[..$width].try_into().expect("width matches"),
                            count_slot,
                            first_row,
                        };
                        match (fold, picks) {
                            (Fold::Sum, None) => pass.run(table, gids, |i| i, |a, b| a + b),
                            (Fold::Min, None) => pass.run(table, gids, |i| i, f32::min),
                            (Fold::Max, None) => pass.run(table, gids, |i| i, f32::max),
                            (Fold::Sum, Some((list, low))) => {
                                pass.run(table, gids, |i| (list[i] - low) as usize, |a, b| a + b)
                            }
                            (Fold::Min, Some((list, low))) => {
                                pass.run(table, gids, |i| (list[i] - low) as usize, f32::min)
                            }
                            (Fold::Max, Some((list, low))) => {
                                pass.run(table, gids, |i| (list[i] - low) as usize, f32::max)
                            }
                        }
                    })*
                    _ => unreachable!("a batch is at most MAX_BATCH accumulators wide"),
                }
            };
        }
        run!(0 1 2 3 4 5 6 7 8);
    }
}

impl Kernel for FusedPartialsKernel {
    fn name(&self) -> &str {
        "grouped_partials"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let n = self.n.get();
        let base = group.group_id() * self.table_words();
        // SAFETY: the table of work-group `group_id` is this range and no
        // other work-group's; the group's items run one after another.
        let table = unsafe { self.partials.chunk_mut(base, base + self.table_words()) };
        let record = self.layout.identities();
        table.chunks_exact_mut(record.len()).for_each(|group| group.copy_from_slice(&record));
        let cols: Vec<&[u32]> = self.cols.iter().map(|col| col.as_words()).collect();
        let keys: Vec<&[u32]> = match &self.groups {
            Groups::Codes { slots, .. } => slots.iter().map(|slot| cols[*slot]).collect(),
            _ => Vec::new(),
        };
        let mut tiles = Tiles {
            gathered: vec![Vec::new(); cols.len()],
            computed: vec![Vec::new(); self.values.len()],
            scratch: Scratch::new(),
        };
        let mut codes: Vec<u32> = Vec::new();
        // One batch — the listed rows, in list order, or the rows `span`,
        // under a row filter's `mask` of them — with its positions' groups.
        let mut batch = |listed: Option<&[u32]>, span: Range<usize>, mask: Option<&[u32]>| {
            let gids = match &self.groups {
                Groups::One => None,
                Groups::Ids(ids) => Some(&ids.as_words()[span.clone()]),
                Groups::Codes { codes: numbering, .. } => {
                    codes.resize(listed.map_or(span.len(), <[u32]>::len), 0);
                    match listed {
                        Some(rows) => numbering.encode_rows(&keys, rows, &mut codes),
                        None => numbering.encode(&keys, span.start, &mut codes),
                    }
                    // A masked-out row folds into the record past the codes.
                    let dropped = numbering.space as u32;
                    for (word, codes) in mask.unwrap_or(&[]).iter().zip(codes.chunks_mut(32)) {
                        if *word != u32::MAX {
                            for (bit, code) in codes.iter_mut().enumerate() {
                                *code = if word >> bit & 1 == 1 { *code } else { dropped };
                            }
                        }
                    }
                    Some(&codes[..])
                }
            };
            self.fold(listed, span, gids, &cols, table, &mut tiles)
        };
        // The group's items hold consecutive chunks of the positions: one
        // stretch, walked in tiles (per-item walks would cut a short
        // stretch into tiles a quarter the size, in the same order).
        let (start, end) = group.chunk_bounds(self.n.cap());
        let end = end.min(n);
        let spans = (start..end).step_by(TILE).map(|start| start..(start + TILE).min(end));
        match &self.rows {
            Rows::All => spans.for_each(|span| batch(None, span, None)),
            Rows::Candidates(list) => {
                spans.for_each(|span| batch(Some(&list.as_words()[span.clone()]), span, None))
            }
            // Grouped by codes, every tile is folded as it lies, the rows its
            // mask drops into the record past the codes.
            Rows::Where(preds) if matches!(self.groups, Groups::Codes { .. }) => {
                for span in spans {
                    let mut mask = [0u32; TILE / 32];
                    conjunction_mask(preds, &cols, span.clone(), &mut mask);
                    batch(None, span, Some(&mask));
                }
            }
            // Otherwise the rows each tile's mask keeps are folded a tile's
            // worth at a time, however many tiles it takes to find them.
            Rows::Where(preds) => {
                let (mut survivors, mut kept) = ([0u32; BATCH], 0);
                for span in spans {
                    let mut mask = [0u32; TILE / 32];
                    conjunction_mask(preds, &cols, span.clone(), &mut mask);
                    for (word, bits) in mask.iter().enumerate() {
                        let mut bits = *bits;
                        while bits != 0 {
                            survivors[kept] =
                                (span.start + word * 32) as u32 + bits.trailing_zeros();
                            kept += 1;
                            bits &= bits - 1;
                        }
                    }
                    if kept >= TILE {
                        batch(Some(&survivors[..kept]), span, None);
                        kept = 0;
                    }
                }
                batch(Some(&survivors[..kept]), end..end, None);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        // Every source column — each is a slot — is charged once, however
        // many conjuncts and expressions read it; so are the two lists.
        let lists = usize::from(matches!(self.groups, Groups::Ids(_)))
            + usize::from(matches!(self.rows, Rows::Candidates(_)));
        KernelCost::new(
            (launch.n * (self.cols.len() + lists)) as u64 * 4,
            (launch.num_groups * self.table_words()) as u64 * 4,
            (launch.n * (self.layout.words() + self.cols.len())) as u64,
            0,
        )
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = vec![BufferAccess::slice_write(
            &self.partials,
            0..launch.num_groups * self.table_words(),
        )];
        let ids = match &self.groups {
            Groups::Ids(ids) => Some(ids),
            _ => None,
        };
        let lists = ids.into_iter().chain(match &self.rows {
            Rows::Candidates(list) => Some(list),
            _ => None,
        });
        accesses.extend(lists.map(|list| BufferAccess::slice_read(list, 0..launch.n)));
        accesses.extend(self.cols.iter().map(|col| BufferAccess::slice_read(col, 0..col.len())));
        Some(KernelAccesses::of(accesses))
    }
}

/// Folds the partial tables into every aggregate's final per-group value, in
/// work-group order.
struct FoldPartialsKernel {
    partials: Buffer,
    outputs: Vec<(GroupedAgg, Buffer)>,
    /// Records per partial table.
    records: usize,
    /// The record of every output group, where it is not the group's id:
    /// a keyed grouping's code.
    codes: Option<Buffer>,
    tables: usize,
    layout: Accumulators,
}

impl Kernel for FoldPartialsKernel {
    fn name(&self) -> &str {
        "grouped_fold"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let words = self.layout.words();
        let table_words = self.records * words;
        let partials = self.partials.chunk(0, self.tables * table_words);
        let codes = self.codes.as_ref().map(|codes| codes.chunk(0, group.n()));
        for run in group.runs(group.n()) {
            for gid in run {
                let record = codes.map_or(gid, |codes| codes[gid] as usize);
                let accumulator =
                    |slot: usize| partials[record * words + slot..].iter().step_by(table_words);
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
        let words = (self.tables * self.records * self.layout.words()) as u64;
        KernelCost::new(words * 4, (launch.n * self.outputs.len()) as u64 * 4, words, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let table_words = self.records * self.layout.words();
        let mut accesses =
            vec![BufferAccess::slice_read(&self.partials, 0..self.tables * table_words)];
        accesses
            .extend(self.codes.iter().map(|codes| BufferAccess::slice_read(codes, 0..launch.n)));
        for (_, output) in &self.outputs {
            accesses.push(BufferAccess::cells_write(output, 0..launch.n));
        }
        Some(KernelAccesses::of(accesses))
    }
}

/// Computes every aggregate in `funcs` in a single accumulation launch and a
/// single fold launch (module docs), over rows and value columns that are
/// *computed in that launch*: `rows` says which rows of the column slots
/// `cols` take part, `values[i]` is the expression behind the value column
/// the aggregates call `i` — over the slots and, as operand
/// `cols.len() + j`, any value column `j < i` — and `gids` gives the group
/// of every position
/// (`None`: one group, `num_groups` 1 — the ungrouped sum). Returns one
/// `num_groups`-long column per aggregate, in `funcs` order. Lazy: every
/// input may carry a deferred length.
///
/// Work-groups partition *positions* — base rows for [`RowSource::All`] and
/// [`RowSource::Where`], list entries for [`RowSource::Candidates`] — so a
/// float sum over a selection adds in base-row blocks here and in
/// candidate blocks when the selection was materialised first:
/// reproducible either way, not bit-equal to each other.
///
/// # Panics
/// Panics if an aggregate names a value `values` does not have, if a column
/// cannot cover the positions, or if a [`RowSource::Where`] has group ids.
pub fn fused_aggs(
    ctx: &OcelotContext,
    cols: &[&DevColumn<Oid>],
    rows: RowSource<'_>,
    values: &[Map],
    gids: Option<&DevColumn<Oid>>,
    num_groups: usize,
    funcs: &[GroupedAgg],
) -> Result<Vec<DevColumn<f32>>> {
    // What counts the positions — the group ids when there are any: a
    // grouping has resolved its length — and what has to cover them.
    let (positions, aligned): (&DevColumn<Oid>, Vec<&DevColumn<Oid>>) = match (rows, gids) {
        (RowSource::Where(_), Some(_)) => panic!("grouped aggregate: a row filter has no ids"),
        (RowSource::Candidates(list), Some(gids)) => (gids, vec![list]),
        (RowSource::All, Some(gids)) => {
            (gids, value_slots(cols, values).map(|s| cols[s]).collect())
        }
        (_, None) => positions_of(cols, rows),
    };
    check_aligned(positions, &aligned);
    let groups = gids.map_or(Groups::One, |gids| Groups::Ids(gids.buffer.clone()));
    let tables = partial_tables_for(positions.cap(), num_groups);
    let layout = Accumulators::checked(funcs, values.len());
    let accumulated = (num_groups > 0 && !funcs.is_empty())
        .then(|| accumulate(ctx, cols, rows, values, groups, num_groups, positions, tables, layout))
        .transpose()?;
    fold_partials(ctx, accumulated.as_ref(), None, num_groups, funcs)
}

/// The rows of a source without group ids — the list, or the rows of the
/// first column slot — and the columns that have to cover them.
fn positions_of<'a>(
    cols: &[&'a DevColumn<Oid>],
    rows: RowSource<'a>,
) -> (&'a DevColumn<Oid>, Vec<&'a DevColumn<Oid>>) {
    match rows {
        RowSource::Candidates(list) => (list, Vec::new()),
        RowSource::All | RowSource::Where(_) => (cols[0], cols[1..].to_vec()),
    }
}

/// The column slots the value expressions read, each once.
fn value_slots(cols: &[&DevColumn<Oid>], values: &[Map]) -> impl Iterator<Item = usize> {
    let mut slots = Vec::new();
    values.iter().for_each(|value| value.slots(&mut slots));
    slots.retain(|slot| *slot < cols.len());
    slots.sort_unstable();
    slots.dedup();
    slots.into_iter()
}

fn check_aligned(positions: &DevColumn<Oid>, aligned: &[&DevColumn<Oid>]) {
    for column in aligned {
        // When both lengths are host-known they must match; a deferred
        // column (e.g. a fetch over an uncounted selection) only needs to
        // cover every position.
        match (column.host_len(), positions.host_len()) {
            (Some(a), Some(b)) => assert_eq!(a, b, "grouped aggregate: length mismatch"),
            _ => assert!(column.cap() >= positions.cap(), "grouped aggregate: length mismatch"),
        }
    }
}

/// The partial tables of an enqueued accumulation launch.
struct Accumulated {
    partials: Buffer,
    layout: Accumulators,
    /// Records per table, and tables.
    records: usize,
    tables: usize,
    /// The launch that writes them.
    event: EventId,
}

/// Enqueues the accumulation launch: `tables` work-groups, each folding its
/// stretch of `positions` into its own table of `records` records.
#[allow(clippy::too_many_arguments)]
fn accumulate(
    ctx: &OcelotContext,
    cols: &[&DevColumn<Oid>],
    rows: RowSource<'_>,
    values: &[Map],
    groups: Groups,
    records: usize,
    positions: &DevColumn<Oid>,
    tables: usize,
    layout: Accumulators,
) -> Result<Accumulated> {
    // Every work-group initialises its own table.
    let partials =
        ctx.alloc_uninit((tables * records * layout.words()).max(1), "grouped_partials")?;
    let candidates = match rows {
        RowSource::Candidates(list) => Some(list),
        _ => None,
    };
    let ids = matches!(groups, Groups::Ids(_)).then_some(positions);
    let inputs: Vec<&DevColumn<Oid>> = cols.iter().copied().chain(candidates).chain(ids).collect();
    let event = ctx.queue().enqueue_kernel(
        Arc::new(FusedPartialsKernel {
            cols: cols.iter().map(|column| column.buffer.clone()).collect(),
            rows: match rows {
                RowSource::All => Rows::All,
                RowSource::Candidates(list) => Rows::Candidates(list.buffer.clone()),
                RowSource::Where(preds) => Rows::Where(preds.to_vec()),
            },
            values: values.to_vec(),
            value_slots: value_slots(cols, values).collect(),
            groups,
            partials: partials.clone(),
            records,
            batches: layout.batches(),
            layout: layout.clone(),
            n: positions.len_source(),
        }),
        ctx.launch(positions.cap()).with_num_groups(tables),
        &inputs.iter().flat_map(|column| ctx.wait_for(column)).collect::<Vec<EventId>>(),
    )?;
    Ok(Accumulated { partials, layout, records, tables, event })
}

/// Enqueues the fold launch: one `num_groups`-long column per aggregate, in
/// `funcs` order, group `g` folded from record `g` of every table — or from
/// record `codes[g]`. With no tables (no groups, no aggregates) the columns
/// are all there is.
fn fold_partials(
    ctx: &OcelotContext,
    accumulated: Option<&Accumulated>,
    codes: Option<&DevColumn<Oid>>,
    num_groups: usize,
    funcs: &[GroupedAgg],
) -> Result<Vec<DevColumn<f32>>> {
    // The fold writes every group's word of every output.
    let outputs: Vec<Buffer> = funcs
        .iter()
        .map(|_| ctx.alloc_uninit(num_groups.max(1), "grouped_output"))
        .collect::<Result<_>>()?;
    if let Some(accumulated) = accumulated.filter(|_| num_groups > 0) {
        let mut wait = vec![accumulated.event];
        wait.extend(codes.iter().flat_map(|codes| ctx.wait_for(codes)));
        let folded = ctx.queue().enqueue_kernel(
            Arc::new(FoldPartialsKernel {
                partials: accumulated.partials.clone(),
                outputs: funcs.iter().copied().zip(outputs.iter().cloned()).collect(),
                records: accumulated.records,
                codes: codes.map(|codes| codes.buffer.clone()),
                tables: accumulated.tables,
                layout: accumulated.layout.clone(),
            }),
            ctx.launch(num_groups),
            &wait,
        )?;
        for output in &outputs {
            ctx.memory().record_producer(output, folded);
        }
    }
    outputs.into_iter().map(|output| DevColumn::new(output, num_groups)).collect()
}

/// The result of [`keyed_aggs`]: the groups' keys and their aggregates, both
/// in group-id order.
#[derive(Debug, Clone)]
pub struct KeyedAggs {
    /// One column of key words per key slot: group `g`'s key tuple.
    pub keys: Vec<DevColumn<Oid>>,
    /// One column per aggregate, in `funcs` order.
    pub aggs: Vec<DevColumn<f32>>,
}

/// [`fused_aggs`] grouped by the key columns in slots `keys` of `cols`, the
/// grouping computed in the accumulation launch itself: no group-id column,
/// no key fetch, no representative list. Ids follow first appearance among
/// the positions and the keys come back as the groups' key tuples — equal,
/// id for id, to grouping the listed keys with
/// [`super::groupby::group_by_columns`] and fetching the keys at the
/// representatives.
///
/// One min/max launch over the key columns (`hash_table::key_shape`, one
/// flush) decides. When their tuples span at most `GROUPING_START` codes,
/// the partial tables are indexed by code — the dense-code grouping's
/// numbering, [`partial_tables_for`] its code space — and every work-group
/// also keeps each code's smallest position; the first-row tables fold, are
/// read back and ranked on the host (the dense-code grouping's one resolve),
/// and the fold launch folds group `g` from its code's records. Four
/// launches and two flushes, whatever the rows. Otherwise the rows are
/// listed (a row filter materialised), the keys fetched through the list
/// and grouped by [`super::groupby`]'s hash path told the ranges just read,
/// and [`fused_aggs`] reads through the list with the group ids: the
/// launches of the unfused operators.
///
/// # Panics
/// Panics as [`fused_aggs`] does, or if `keys` is empty.
pub fn keyed_aggs(
    ctx: &OcelotContext,
    cols: &[&DevColumn<Oid>],
    rows: RowSource<'_>,
    values: &[Map],
    keys: &[usize],
    funcs: &[GroupedAgg],
) -> Result<KeyedAggs> {
    let key_columns: Vec<&DevColumn<Oid>> = keys.iter().map(|slot| cols[*slot]).collect();
    let shape = key_shape(ctx, &key_columns)?;
    let Some(codes) = DenseCodes::of(&shape.ranges).filter(|_| shape.rows > 0) else {
        return grouped_through_ids(ctx, cols, rows, values, &key_columns, shape, funcs);
    };
    let (positions, aligned) = positions_of(cols, rows);
    check_aligned(positions, &aligned);
    let space = codes.space;
    let tables = partial_tables_for(positions.cap(), space);
    let groups = Groups::Codes { slots: keys.to_vec(), codes: codes.clone() };
    // Every record counts its rows, so the first one it counts is its first
    // position.
    let layout = Accumulators {
        counted: true,
        first_row: true,
        ..Accumulators::checked(funcs, values.len())
    };
    // A record per code, and one past them for the rows a row filter drops.
    let records = space + 1;
    let accumulated =
        accumulate(ctx, cols, rows, values, groups, records, positions, tables, layout)?;
    let first_rows = FirstRows {
        tables: accumulated.partials.clone(),
        count: tables,
        records,
        words: accumulated.layout.words(),
        offset: accumulated.layout.first_row_slot().expect("the layout keeps first rows"),
    };
    let present = rank_first_rows(ctx, first_rows, space, accumulated.event)?;
    let keys = (0..keys.len())
        .map(|column| {
            let words: Vec<u32> =
                present.iter().map(|(_, code)| codes.key(*code, column)).collect();
            ctx.upload_u32(&words, "grouped_keys")
        })
        .collect::<Result<_>>()?;
    let group_codes: Vec<u32> = present.iter().map(|(_, code)| *code as u32).collect();
    let group_codes = ctx.upload_u32(&group_codes, "grouped_codes")?;
    let aggs = fold_partials(ctx, Some(&accumulated), Some(&group_codes), present.len(), funcs)?;
    Ok(KeyedAggs { keys, aggs })
}

/// [`keyed_aggs`] past `GROUPING_START` codes: the unfused operators'
/// launches — list the rows, fetch the keys, group them (told the ranges
/// `shape` holds), fetch the keys at the representatives, aggregate through
/// the list.
fn grouped_through_ids(
    ctx: &OcelotContext,
    cols: &[&DevColumn<Oid>],
    rows: RowSource<'_>,
    values: &[Map],
    key_columns: &[&DevColumn<Oid>],
    shape: KeyShape,
    funcs: &[GroupedAgg],
) -> Result<KeyedAggs> {
    let listed = match rows {
        RowSource::Where(preds) => Some(materialize_bitmap(ctx, &select_where(ctx, cols, preds)?)?),
        RowSource::Candidates(list) => Some(list.clone()),
        RowSource::All => None,
    };
    let fetched: Vec<DevColumn<Oid>> = key_columns
        .iter()
        .map(|column| {
            listed.as_ref().map_or(Ok((*column).clone()), |list| gather(ctx, column, list))
        })
        .collect::<Result<_>>()?;
    let fetched_columns: Vec<&DevColumn<Oid>> = fetched.iter().collect();
    let shape = KeyShape { rows: fetched[0].len(ctx)?, ranges: shape.ranges };
    let group = group_by_shaped(ctx, &fetched_columns, shape)?;
    let keys = fetched
        .iter()
        .map(|column| gather(ctx, column, &group.representatives))
        .collect::<Result<_>>()?;
    let source = listed.as_ref().map_or(RowSource::All, RowSource::Candidates);
    let aggs = fused_aggs(ctx, cols, source, values, Some(&group.gids), group.num_groups, funcs)?;
    Ok(KeyedAggs { keys, aggs })
}

/// [`fused_aggs`] over value columns that already exist: every aggregate of
/// one grouping, one `num_groups`-long column each, in `funcs` order.
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
    let cols: Vec<DevColumn<Oid>> = values.iter().map(|column| column.reinterpret()).collect();
    let maps: Vec<Map> = (0..cols.len()).map(Map::Col).collect();
    let cols: Vec<&DevColumn<Oid>> = cols.iter().collect();
    fused_aggs(ctx, &cols, RowSource::All, &maps, Some(gids), num_groups, funcs)
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
    fn fused_aggregates_read_through_any_candidate_list() {
        // Ascending and dense (read as the stretch lies), descending, dense
        // but shuffled, with repeats, sparse: the same sums and counts as
        // the list gathered on the host, grouped and ungrouped.
        let rows = 5_000usize;
        let column: Vec<f32> = (0..rows).map(|i| ((i * 31) % 97) as f32 * 0.25).collect();
        let dense: Vec<u32> = (100..3_100).filter(|row| row % 7 != 0).collect();
        let lists: [Vec<u32>; 5] = [
            dense.clone(),
            dense.iter().rev().copied().collect(),
            dense.chunks(2).flat_map(|pair| pair.iter().rev().copied()).collect(),
            (0..2_000).map(|i| 40 + (i % 50)).collect(),
            (0..rows as u32).step_by(37).collect(),
        ];
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let col = ctx.upload_f32(&column, "c").unwrap().reinterpret();
            for list in &lists {
                let gids: Vec<u32> = (0..list.len() as u32).map(|i| (i * 13) % 5).collect();
                let picked: Vec<f32> = list.iter().map(|row| column[*row as usize]).collect();
                let (oids, groups) =
                    (ctx.upload_u32(list, "l").unwrap(), ctx.upload_u32(&gids, "g").unwrap());
                let funcs = [GroupedAgg::Sum(0), GroupedAgg::Max(0), GroupedAgg::Count];
                let run = |gids: Option<&DevColumn<Oid>>, groups: usize| -> Vec<Vec<f32>> {
                    let source = RowSource::Candidates(&oids);
                    fused_aggs(&ctx, &[&col], source, &[Map::Col(0)], gids, groups, &funcs)
                        .unwrap()
                        .iter()
                        .map(|column| column.read(&ctx).unwrap())
                        .collect()
                };
                let close = |a: f32, b: f32| (a - b).abs() <= 1e-4 * b.abs().max(1.0);
                let grouped = run(Some(&groups), 5);
                let sums = monet::grouped_sum_f32(&picked, &gids, 5);
                assert!(grouped[0].iter().zip(&sums).all(|(a, b)| close(*a, *b)), "{grouped:?}");
                assert_eq!(grouped[1], monet::grouped_max_f32(&picked, &gids, 5));
                let counts = monet::grouped_count(&gids, 5);
                assert!(grouped[2].iter().zip(&counts).all(|(a, b)| *a as i64 == *b));
                let whole = run(None, 1);
                assert!(close(whole[0][0], picked.iter().sum()), "{whole:?}");
                assert_eq!(whole[1][0], picked.iter().copied().fold(f32::NEG_INFINITY, f32::max));
                assert_eq!(whole[2][0], list.len() as f32);
            }
        }
    }

    /// Grouped by key columns in the accumulation launch, every row source
    /// gives the groups, ids, keys, counts and sums of grouping the listed
    /// keys with MS — on both sides of the code-space rule (span 3 × 4, and
    /// 1 500 × 4 for the fallback), on every device.
    #[test]
    fn keyed_aggregates_group_like_monet_from_every_row_source() {
        let rows = 5_000usize;
        let dates: Vec<i32> = (0..rows).map(|i| ((i * 37) % 1000) as i32).collect();
        let values: Vec<f32> = (0..rows).map(|i| ((i * 13) % 101) as f32 * 0.5).collect();
        let low: Vec<i32> = (0..rows).map(|i| i32::MIN + ((i * 7) % 4) as i32).collect();
        // 3 × 4 codes, and 1 500 × 4: past `GROUPING_START`.
        let narrow: Vec<i32> = (0..rows).map(|i| ((i * 11) % 3) as i32 - 1).collect();
        let wide: Vec<i32> = (0..rows).map(|i| ((i * 11) % 1_500) as i32).collect();
        for first in [narrow, wide] {
            let list: Vec<u32> = (0..rows as u32).rev().step_by(3).collect();
            let kept: Vec<u32> =
                (0..rows as u32).filter(|row| dates[*row as usize] <= 600).collect();
            let pred = [Pred::RangeI32 { col: 0, low: i32::MIN, high: 600 }];
            for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
            {
                let upload = |values: &[i32]| ctx.upload_i32(values, "c").unwrap().reinterpret();
                let (d, a, b) = (upload(&dates), upload(&first), upload(&low));
                let v = ctx.upload_f32(&values, "v").unwrap().reinterpret();
                let oids = ctx.upload_u32(&list, "l").unwrap();
                let sources = [
                    (RowSource::All, (0..rows as u32).collect::<Vec<u32>>()),
                    (RowSource::Candidates(&oids), list.clone()),
                    (RowSource::Where(&pred), kept.clone()),
                ];
                for (source, listed) in sources {
                    let funcs = [GroupedAgg::Sum(0), GroupedAgg::Count];
                    let cols = [&d, &a, &b, &v];
                    let keyed =
                        keyed_aggs(&ctx, &cols, source, &[Map::Col(3)], &[1, 2], &funcs).unwrap();
                    let pick = |column: &[i32]| -> Vec<i32> {
                        listed.iter().map(|row| column[*row as usize]).collect()
                    };
                    let (a, b) = (pick(&first), pick(&low));
                    let reference = monet::group_by_columns(&[&a, &b]);
                    let keys: Vec<Vec<i32>> =
                        keyed.keys.iter().map(|k| k.reinterpret().read(&ctx).unwrap()).collect();
                    let at_reps = |column: &[i32]| -> Vec<i32> {
                        reference.representatives.iter().map(|rep| column[*rep as usize]).collect()
                    };
                    assert_eq!(keys, vec![at_reps(&a), at_reps(&b)]);
                    let (gids, groups) = (&reference.gids, reference.num_groups);
                    let counts = keyed.aggs[1].read(&ctx).unwrap();
                    let expected = monet::grouped_count(gids, groups);
                    assert!(counts.iter().zip(&expected).all(|(c, e)| *c as i64 == *e));
                    let picked: Vec<f32> = listed.iter().map(|row| values[*row as usize]).collect();
                    let sums = keyed.aggs[0].read(&ctx).unwrap();
                    let expected = monet::grouped_sum_f32(&picked, gids, groups);
                    let close = |x: &f32, y: &f32| (x - y).abs() <= 1e-4 * y.abs().max(1.0);
                    assert!(sums.iter().zip(&expected).all(|(x, y)| close(x, y)), "{sums:?}");
                }
            }
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
        let n = count(&ctx, &v).unwrap();
        assert_eq!(ctx.queue().flush_count(), flushes, "aggregates must not flush");
        assert_eq!(sum.get(&ctx).unwrap(), 6.0);
        assert_eq!(min.get(&ctx).unwrap(), 1.0);
        assert_eq!(max.get(&ctx).unwrap(), 3.0);
        assert_eq!(n.get(&ctx).unwrap(), 3);
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
