//! The group-by operator (paper §4.1.6).
//!
//! Produces a column assigning a *dense group id* to every tuple. One entry
//! point, [`group_by_columns`], and two ways to run it, chosen from the key
//! ranges the operator observes — never by the caller:
//!
//! * **Dense-code path** — when the keys span few enough values that every
//!   *possible* key tuple can have a table slot, grouping needs no hash at
//!   all. Each row's key tuple is its mixed-radix **code**
//!   `Σ (keyᵢ − minᵢ) · strideᵢ`; one pass folds every work-group's rows into
//!   a private first-row table `code → smallest row`, a second kernel folds
//!   the tables, the host ranks the present codes by first row, and a last
//!   pass writes `gid[row] = rank[code(row)]`. Four streaming launches, no
//!   atomics, no per-row slot buffer, no probe sequence. The numbering
//!   (`DenseCodes`), the first-row fold and the ranking are also what a
//!   fused region groups with (`aggregate::keyed_aggs`): there the first rows
//!   live in the code-indexed partial tables of the aggregates, no id column
//!   is written, and a group's keys are decoded from its code.
//! * **Hash path** — one parallel hash table over the composite key
//!   ([`OcelotHashTable`]). The build's check round records every row's
//!   slot, so the dense ids and the representatives fall out of the build
//!   as gathers (a flag pass and a prefix sum over the rows); the input is
//!   never probed again.
//!
//! **Code-space rule.** `key_shape` reduces every key column to its
//! `min`/`max` in one fused launch (enqueued before a deferred length
//! resolves, so length and ranges share a flush). The code space is
//! `Π (maxᵢ − minᵢ + 1)`, computed in `u64` and saturating. At most
//! [`GROUPING_START`] codes take the dense path; anything larger takes the
//! hash path. `GROUPING_START` is the number of keys the hash path's first
//! table is sized for when it knows nothing: below it the hash path would
//! allocate and fill a table of that size anyway, so a first-row table of at
//! most as many words (≤ 4 KB, cache-resident, read back in one transfer) is
//! never the larger structure — and above it the private tables, one per
//! work-group, would stop being small.
//!
//! Group ids follow first appearance — group `g`'s representative is its
//! smallest row id and representatives ascend with `g` — on both paths, on
//! every device, run to run: `gids`, `num_groups` and `representatives` do
//! not depend on which path ran, and equal MonetDB's sequential grouping id
//! for id.
//!
//! **Stated deviation from §4.1.6.** The paper groups `k` columns
//! recursively: group the next column on its own, combine the two dense-id
//! columns into one id and group the combined ids again — `2k − 1` hash
//! builds, and a combined id space (the *product* of the per-column group
//! counts) that has to fit the key type. Here the hash table's slots hold a
//! representative row id and equality compares all key columns at that
//! row, so any number of columns is **one** build over the composite key:
//! no id product to overflow, no reserved key value, and the same
//! partition of the rows. The dense path does multiply — but ranges it has
//! measured, and only when the product is small.
//!
//! **Deliberate sync points:** the key ranges choose the path, and
//! `num_groups` shapes the result schema (it sizes every grouped
//! aggregate), so grouping resolves both on the host. The dense path reads
//! the folded first-row table there — its one read after the ranges — and
//! ranks it on the host; the hash path reads the build's counters and the
//! rank total. Everything downstream of the grouping stays lazy.

use crate::context::{DevColumn, DevWord, LenSource, OcelotContext, Oid};
use crate::ops::aggregate::partial_tables_for;
use crate::ops::hash_table::{
    key_reads, key_shape, key_views, KeyRange, KeyShape, OcelotHashTable, GROUPING_START,
};
use ocelot_kernel::{
    Buffer, BufferAccess, EventId, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result,
    WorkGroupCtx,
};
use std::sync::Arc;

/// Result of a grouping operation.
#[derive(Debug, Clone)]
pub struct GroupBy {
    /// Dense group id per input row.
    pub gids: DevColumn<Oid>,
    /// Number of distinct groups.
    pub num_groups: usize,
    /// Representative row per group (the smallest row id of the group),
    /// used to project the grouping key values into the result set.
    pub representatives: DevColumn<Oid>,
}

/// Group-by over a single key column.
pub fn group_by_hash<T: DevWord>(ctx: &OcelotContext, keys: &DevColumn<T>) -> Result<GroupBy> {
    group_by_columns(ctx, &[keys])
}

/// Groups by several key columns at once (module docs: dense codes when the
/// observed key ranges allow it, one composite-key hash build otherwise).
///
/// # Panics
/// Panics if `columns` is empty or the columns' logical lengths differ.
pub fn group_by_columns<T: DevWord>(
    ctx: &OcelotContext,
    columns: &[&DevColumn<T>],
) -> Result<GroupBy> {
    let shape = key_shape(ctx, columns)?;
    group_by_shaped(ctx, columns, shape)
}

/// [`group_by_columns`] once the key ranges are known: `shape.rows` is the
/// columns' row count and `shape.ranges` cover every key they hold —
/// observed over them, or over the base columns they were fetched from.
pub(crate) fn group_by_shaped<T: DevWord>(
    ctx: &OcelotContext,
    columns: &[&DevColumn<T>],
    shape: KeyShape,
) -> Result<GroupBy> {
    if shape.rows == 0 {
        let empty = ctx.alloc(1, "group_empty")?;
        return Ok(GroupBy {
            gids: DevColumn::new(empty.clone(), 0)?,
            num_groups: 0,
            representatives: DevColumn::new(empty, 0)?,
        });
    }
    if let Some(codes) = DenseCodes::of(&shape.ranges) {
        return group_by_dense(ctx, columns, shape.rows, codes);
    }
    let table = OcelotHashTable::build_grouping(ctx, columns, &shape)?;
    Ok(GroupBy {
        gids: table.row_gids(),
        num_groups: table.num_distinct(),
        representatives: table.representatives(),
    })
}

// ---- dense-code path ----

/// First-row table entry of a code no row carries.
pub(crate) const NO_ROW: u32 = u32::MAX;
/// Rows whose codes a kernel computes at a time: column-at-a-time over a
/// stack buffer, so the arithmetic vectorises and the table pass that
/// follows reads its codes from L1 — and 1 KB of a key column at a time, so
/// the key columns are streamed side by side (a page of one, then a page of
/// the next, leaves one prefetch stream in flight; see `rowexpr::STRIDE`).
const CODE_BLOCK: usize = 256;

/// The mixed-radix numbering of the key tuples inside the observed ranges:
/// the dense-code path here, and the code-indexed partial tables of
/// `aggregate::keyed_aggs`.
#[derive(Debug, Clone)]
pub(crate) struct DenseCodes {
    mins: Vec<u32>,
    spans: Vec<u32>,
    strides: Vec<u32>,
    /// The number of codes, `Π spanᵢ`.
    pub space: usize,
}

impl DenseCodes {
    /// The numbering, if the code space is at most [`GROUPING_START`].
    pub(crate) fn of(ranges: &[KeyRange]) -> Option<DenseCodes> {
        let space = ranges.iter().fold(1u64, |space, range| space.saturating_mul(range.span));
        if space > GROUPING_START as u64 {
            return None;
        }
        let spans: Vec<u32> = ranges.iter().map(|range| range.span as u32).collect();
        let mut strides = vec![1u32; ranges.len()];
        for column in (1..ranges.len()).rev() {
            strides[column - 1] = strides[column] * spans[column];
        }
        Some(DenseCodes {
            mins: ranges.iter().map(|range| range.min).collect(),
            spans,
            strides,
            space: space as usize,
        })
    }

    /// Writes the codes of rows `start .. start + codes.len()`. Every key
    /// lies inside its observed range, so a code never reaches `space`; the
    /// wrapping arithmetic only keeps debug and release builds identical.
    #[inline]
    pub(crate) fn encode(&self, keys: &[&[u32]], start: usize, codes: &mut [u32]) {
        codes.fill(0);
        let rows = start..start + codes.len();
        for ((column, min), stride) in keys.iter().zip(&self.mins).zip(&self.strides) {
            for (code, key) in codes.iter_mut().zip(&column[rows.clone()]) {
                *code = code.wrapping_add(key.wrapping_sub(*min).wrapping_mul(*stride));
            }
        }
    }

    /// Writes the codes of `rows`, in order: [`DenseCodes::encode`] over
    /// listed rows instead of a stretch.
    #[inline]
    pub(crate) fn encode_rows(&self, keys: &[&[u32]], rows: &[u32], codes: &mut [u32]) {
        codes.fill(0);
        for ((column, min), stride) in keys.iter().zip(&self.mins).zip(&self.strides) {
            for (code, row) in codes.iter_mut().zip(rows) {
                let key = column[*row as usize];
                *code = code.wrapping_add(key.wrapping_sub(*min).wrapping_mul(*stride));
            }
        }
    }

    /// The key word of column `column` in the tuple numbered `code`: its
    /// minimum plus the code's digit for that column.
    pub(crate) fn key(&self, code: usize, column: usize) -> u32 {
        let digit = (code as u32 / self.strides[column]) % self.spans[column];
        self.mins[column].wrapping_add(digit)
    }
}

/// Every work-group folds its rows into its own first-row table
/// `tables[group_id × space ..][.. space]`: `code → smallest row`.
struct FirstRowsKernel {
    keys: Vec<Buffer>,
    codes: DenseCodes,
    tables: Buffer,
    n: LenSource,
}

impl Kernel for FirstRowsKernel {
    fn name(&self) -> &str {
        "group_first_rows"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let n = self.n.get();
        let keys = key_views(&self.keys);
        let base = group.group_id() * self.codes.space;
        // SAFETY: the table of work-group `group_id` is this range and no
        // other work-group's; the group's items run one after another.
        let table = unsafe { self.tables.chunk_mut(base, base + self.codes.space) };
        table.fill(NO_ROW);
        let mut block = [0u32; CODE_BLOCK];
        for item in group.items() {
            let (start, end) = item.chunk_bounds(n);
            for block_start in (start..end).step_by(CODE_BLOCK) {
                let codes = &mut block[..(end - block_start).min(CODE_BLOCK)];
                self.codes.encode(&keys, block_start, codes);
                for (row, code) in (block_start as u32..).zip(codes.iter()) {
                    // A store only for a code's first row of the chunk: an
                    // unconditional `min` would chain every row of a code
                    // through the previous one's store.
                    let first = &mut table[*code as usize];
                    if row < *first {
                        *first = row;
                    }
                }
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let words = (launch.n * self.keys.len()) as u64;
        let tables = (launch.num_groups * self.codes.space) as u64;
        KernelCost::new(words * 4, tables * 4, words + launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = key_reads(&self.keys);
        accesses
            .push(BufferAccess::slice_write(&self.tables, 0..launch.num_groups * self.codes.space));
        Some(KernelAccesses::of(accesses))
    }
}

/// Where per-work-group first-row tables lie: `count` tables of `records`
/// records of `words` words each, a code's first row at word `offset` of its
/// record — the dense-code path's own tables (one word per code), or the
/// code-indexed partial tables of `aggregate::keyed_aggs`.
pub(crate) struct FirstRows {
    pub tables: Buffer,
    pub count: usize,
    pub records: usize,
    pub words: usize,
    pub offset: usize,
}

impl FirstRows {
    fn len(&self) -> usize {
        self.count * self.records * self.words
    }
}

/// Folds the per-work-group tables into one first-row table.
struct FoldFirstRowsKernel {
    rows: FirstRows,
    first_rows: Buffer,
}

impl Kernel for FoldFirstRowsKernel {
    fn name(&self) -> &str {
        "group_first_rows_fold"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let FirstRows { tables, records, words, offset, .. } = &self.rows;
        let tables = tables.chunk(0, self.rows.len());
        for run in group.runs(group.n()) {
            // SAFETY: a group's runs are its own codes, no other group's.
            let first_rows = unsafe { self.first_rows.chunk_mut(run.start, run.end) };
            for (first, code) in first_rows.iter_mut().zip(run) {
                let table_firsts = tables[code * words + offset..].iter().step_by(records * words);
                *first = table_firsts.copied().min().unwrap_or(NO_ROW);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let words = (self.rows.count * launch.n) as u64;
        KernelCost::new(words * 4, (launch.n as u64) * 4, words, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.rows.tables, 0..self.rows.len()),
            BufferAccess::slice_write(&self.first_rows, 0..launch.n),
        ]))
    }
}

/// Folds the per-work-group first-row tables `rows` (written by the launch
/// `written`) into one table of `space` codes, reads it back — the
/// grouping's schema-shaping resolve: the present codes are the groups — and
/// ranks the present codes by their first row, so ids follow first
/// appearance. Returns `(first row, code)` per group, in id order.
pub(crate) fn rank_first_rows(
    ctx: &OcelotContext,
    rows: FirstRows,
    space: usize,
    written: EventId,
) -> Result<Vec<(u32, usize)>> {
    let first_rows = ctx.alloc_uninit(space, "group_first_rows")?;
    let folded = ctx.queue().enqueue_kernel(
        Arc::new(FoldFirstRowsKernel { rows, first_rows: first_rows.clone() }),
        ctx.launch(space),
        &[written],
    )?;
    ctx.memory().record_producer(&first_rows, folded);
    ctx.materialize(&first_rows, space)?;
    let mut present: Vec<(u32, usize)> = (0..space)
        .map(|code| (first_rows.get_u32(code), code))
        .filter(|(first, _)| *first != NO_ROW)
        .collect();
    present.sort_unstable();
    Ok(present)
}

/// Writes `gids[row] = ranks[code(row)]`. Items walk contiguous chunks
/// whatever the device's access pattern, so the output is a tier-2 write.
struct DenseGidsKernel {
    keys: Vec<Buffer>,
    codes: DenseCodes,
    ranks: Buffer,
    gids: Buffer,
}

impl Kernel for DenseGidsKernel {
    fn name(&self) -> &str {
        "group_dense_gids"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let keys = key_views(&self.keys);
        let ranks = self.ranks.chunk(0, self.codes.space);
        let mut block = [0u32; CODE_BLOCK];
        for item in group.items() {
            let (start, end) = item.chunk_bounds(group.n());
            // SAFETY: `chunk_bounds` partitions `0..n` among the items; this
            // item alone touches `start..end` of the output in this launch.
            let gids = unsafe { self.gids.chunk_mut(start, end) };
            for (index, gids) in gids.chunks_mut(CODE_BLOCK).enumerate() {
                let codes = &mut block[..gids.len()];
                self.codes.encode(&keys, start + index * CODE_BLOCK, codes);
                for (gid, code) in gids.iter_mut().zip(codes.iter()) {
                    *gid = ranks[*code as usize];
                }
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let words = (launch.n * self.keys.len()) as u64;
        KernelCost::new(words * 4, (launch.n as u64) * 4, words + launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = key_reads(&self.keys);
        accesses.push(BufferAccess::slice_read(&self.ranks, 0..self.codes.space));
        accesses.push(BufferAccess::slice_write(&self.gids, 0..launch.n));
        Some(KernelAccesses::of(accesses))
    }
}

/// The dense-code path (module docs) over `rows > 0` rows.
fn group_by_dense<T: DevWord>(
    ctx: &OcelotContext,
    columns: &[&DevColumn<T>],
    rows: usize,
    codes: DenseCodes,
) -> Result<GroupBy> {
    let keys: Vec<Buffer> = columns.iter().map(|c| c.buffer.clone()).collect();
    let key_wait: Vec<EventId> = columns.iter().flat_map(|c| ctx.wait_for(*c)).collect();
    let space = codes.space;
    // The table count reads the row and code counts only (the partial-table
    // rule of `ops::aggregate`), never the device's core count.
    let count = partial_tables_for(rows, space);
    let tables = ctx.alloc_uninit(count * space, "group_first_row_tables")?;
    let folded_rows = ctx.queue().enqueue_kernel(
        Arc::new(FirstRowsKernel {
            keys: keys.clone(),
            codes: codes.clone(),
            tables: tables.clone(),
            n: LenSource::Fixed(rows),
        }),
        ctx.launch(rows).with_num_groups(count),
        &key_wait,
    )?;
    let first_rows = FirstRows { tables, count, records: space, words: 1, offset: 0 };
    let present = rank_first_rows(ctx, first_rows, space, folded_rows)?;
    let mut ranks = vec![NO_ROW; space];
    for (gid, (_, code)) in present.iter().enumerate() {
        ranks[*code] = gid as u32;
    }
    let representatives: Vec<u32> = present.iter().map(|(first, _)| *first).collect();
    let ranks = ctx.upload_u32(&ranks, "group_code_ranks")?;
    let representatives = ctx.upload_u32(&representatives, "group_reps")?;

    let gids = ctx.alloc_uninit(rows, "group_gids")?;
    let mut wait = key_wait;
    wait.extend(ctx.wait_for(&ranks));
    let written = ctx.queue().enqueue_kernel(
        Arc::new(DenseGidsKernel { keys, codes, ranks: ranks.buffer, gids: gids.clone() }),
        ctx.launch(rows),
        &wait,
    )?;
    ctx.memory().record_producer(&gids, written);
    Ok(GroupBy { gids: DevColumn::new(gids, rows)?, num_groups: present.len(), representatives })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;
    use ocelot_monet::sequential as monet;

    /// Ids follow first appearance on both paths, so the result equals
    /// MonetDB's sequential grouping id for id — not just as a partition.
    fn check_equals_monet(values: &[i32], result: &GroupBy, ctx: &OcelotContext) {
        let reference = monet::group_by_columns(&[values]);
        assert_eq!(result.num_groups, reference.num_groups);
        assert_eq!(result.gids.read(ctx).unwrap(), reference.gids);
        assert_eq!(result.representatives.read(ctx).unwrap(), reference.representatives);
    }

    #[test]
    fn hash_grouping_matches_monet_on_all_devices() {
        let values: Vec<i32> = (0..8_000).map(|i| (i * 131 + 7) % 100).collect();
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let col = ctx.upload_i32(&values, "keys").unwrap();
            let result = group_by_hash(&ctx, &col).unwrap();
            assert_eq!(result.num_groups, 100);
            check_equals_monet(&values, &result, &ctx);
        }
    }

    #[test]
    fn sorted_input_groups_like_monet_on_both_paths() {
        // Sorted keys: 50 values take the dense-code path, 5 000 spread-out
        // values the hash path. Either way ids are non-decreasing, dense and
        // equal to MonetDB's, and representatives are each group's first row.
        for (distinct, stride) in [(50, 1), (5_000, 7)] {
            let mut values: Vec<i32> =
                (0..20_000).map(|i| ((i * 17 + 3) % distinct) * stride - 40).collect();
            values.sort_unstable();
            for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
            {
                let col = ctx.upload_i32(&values, "keys").unwrap();
                let result = group_by_columns(&ctx, &[&col]).unwrap();
                assert_eq!(result.num_groups, distinct as usize);
                let gids = result.gids.read(&ctx).unwrap();
                assert!(gids.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
                assert_eq!(*gids.last().unwrap() as usize, result.num_groups - 1);
                check_equals_monet(&values, &result, &ctx);
                let reps = result.representatives.read(&ctx).unwrap();
                for (gid, rep) in reps.iter().enumerate() {
                    assert_eq!(gids[*rep as usize] as usize, gid);
                    assert!(*rep == 0 || gids[(*rep - 1) as usize] as usize == gid - 1);
                }
            }
        }
    }

    #[test]
    fn representatives_carry_group_keys() {
        let values: Vec<i32> = (0..3_000).map(|i| (i * 7) % 31).collect();
        let ctx = OcelotContext::gpu();
        let col = ctx.upload_i32(&values, "keys").unwrap();
        let result = group_by_hash(&ctx, &col).unwrap();
        let gids = result.gids.read(&ctx).unwrap();
        let reps = result.representatives.read(&ctx).unwrap();
        for (row, gid) in gids.iter().enumerate() {
            assert_eq!(values[reps[*gid as usize] as usize], values[row]);
        }
    }

    #[test]
    fn multi_column_grouping() {
        let a: Vec<i32> = (0..4_000).map(|i| i % 4).collect();
        let b: Vec<i32> = (0..4_000).map(|i| i % 6).collect();
        let ctx = OcelotContext::cpu();
        let ca = ctx.upload_i32(&a, "a").unwrap();
        let cb = ctx.upload_i32(&b, "b").unwrap();
        let result = group_by_columns(&ctx, &[&ca, &cb]).unwrap();
        // lcm(4, 6) = 12 distinct pairs.
        assert_eq!(result.num_groups, 12);
        let gids = result.gids.read(&ctx).unwrap();
        for i in (0..a.len()).step_by(17) {
            for j in (0..a.len()).step_by(23) {
                assert_eq!((a[i], b[i]) == (a[j], b[j]), gids[i] == gids[j]);
            }
        }
    }

    #[test]
    fn three_deferred_key_columns_group_correctly() {
        // Key columns carrying a deferred length and its (larger) capacity
        // bound — the shape of TPC-H Q3's three-key group-by over join
        // outputs. Alignment is on logical lengths, not capacities.
        use crate::ops::{rowexpr::Pred, select};
        use crate::primitives::gather;
        let a: Vec<i32> = (0..5_000).map(|i| i % 3).collect();
        let b: Vec<i32> = (0..5_000).map(|i| i % 4).collect();
        let c: Vec<i32> = (0..5_000).map(|i| i % 5).collect();
        let sel: Vec<i32> = (0..5_000).map(|i| i % 10).collect();
        let ctx = OcelotContext::cpu();
        let kept = ctx.upload_i32(&sel, "s").unwrap().reinterpret();
        let keep =
            select::select_where(&ctx, &[&kept], &[Pred::RangeI32 { col: 0, low: 0, high: 6 }])
                .and_then(|bitmap| select::materialize_bitmap(&ctx, &bitmap))
                .unwrap();
        assert!(keep.is_deferred(), "the key columns must inherit a deferred length");
        let ka = gather::gather(&ctx, &ctx.upload_i32(&a, "a").unwrap(), &keep).unwrap();
        let kb = gather::gather(&ctx, &ctx.upload_i32(&b, "b").unwrap(), &keep).unwrap();
        let kc = gather::gather(&ctx, &ctx.upload_i32(&c, "c").unwrap(), &keep).unwrap();
        let result = group_by_columns(&ctx, &[&ka, &kb, &kc]).unwrap();
        // (i%3, i%4, i%5) ↔ i%60 is a bijection (CRT) and i%10 is a
        // function of i%60, so keeping i%10 <= 6 keeps 42 of the 60
        // residue classes — 42 distinct triples.
        assert_eq!(result.num_groups, 42);
        let gids = result.gids.read(&ctx).unwrap();
        let rows: Vec<usize> = (0..5_000).filter(|i| sel[*i] <= 6).collect();
        assert_eq!(gids.len(), rows.len());
        for (x, i) in rows.iter().enumerate().step_by(31) {
            for (y, j) in rows.iter().enumerate().step_by(47) {
                assert_eq!((a[*i], b[*i], c[*i]) == (a[*j], b[*j], c[*j]), gids[x] == gids[y]);
            }
        }
    }

    #[test]
    fn per_column_distinct_counts_may_multiply_past_32_bits() {
        // 70 000 × 70 000 × 13 per-column distinct values: the recursive
        // scheme's combined id (a product of group counts) does not fit a
        // word; a composite key has no such product.
        let n = 140_000usize;
        let a: Vec<i32> = (0..n).map(|i| (i % 70_000) as i32).collect();
        let b: Vec<i32> = a.iter().map(|j| (j * 3 + 1) % 70_000).collect();
        let c: Vec<i32> = a.iter().map(|j| j % 13).collect();
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let columns = [&a, &b, &c].map(|values| ctx.upload_i32(values, "key").unwrap());
            let result = group_by_columns(&ctx, &[&columns[0], &columns[1], &columns[2]]).unwrap();
            assert_eq!(result.num_groups, 70_000);
            let gids = result.gids.read(&ctx).unwrap();
            assert!(gids.iter().enumerate().all(|(row, gid)| *gid as usize == row % 70_000));
        }
    }

    #[test]
    fn minus_one_is_an_ordinary_key_value() {
        let a = [-1, 5, -1, -1, 5, 0];
        let b = [-1, -1, 0, -1, -1, -1];
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let ca = ctx.upload_i32(&a, "a").unwrap();
            let cb = ctx.upload_i32(&b, "b").unwrap();
            let result = group_by_columns(&ctx, &[&ca, &cb]).unwrap();
            assert_eq!(result.num_groups, 4);
            assert_eq!(result.gids.read(&ctx).unwrap(), vec![0, 1, 2, 0, 1, 3]);
            assert_eq!(result.representatives.read(&ctx).unwrap(), vec![0, 1, 2, 5]);
        }
    }

    #[test]
    fn single_group_and_empty_inputs() {
        let ctx = OcelotContext::cpu();
        let uniform = ctx.upload_i32(&[7; 100], "u").unwrap();
        let result = group_by_hash(&ctx, &uniform).unwrap();
        assert_eq!(result.num_groups, 1);
        assert!(result.gids.read(&ctx).unwrap().iter().all(|g| *g == 0));

        let empty = ctx.upload_i32(&[], "e").unwrap();
        assert_eq!(group_by_hash(&ctx, &empty).unwrap().num_groups, 0);
    }
}
