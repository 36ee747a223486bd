//! The sort operator: a binary radix sort (paper §4.1.3, §5.2.7).
//!
//! Least-significant-digit radix sort with an 8-bit radix: four passes over
//! 32-bit keys, two launches each, both under one launch configuration of
//! `tables = partial_tables_for(n, 256)` work-groups (the count-table scheme
//! of [`crate::primitives::histogram`]):
//!
//! 1. **Histogram** — every work-group counts the digits of its stretch of
//!    the rows into its own 256-counter row of the count table.
//! 2. **Scatter** — every work-group walks the table once for its 256 start
//!    cursors — behind every row of a smaller digit, and behind the rows the
//!    groups before it hold of the same digit — then replays its stretch in
//!    order and writes each element (key and OID) to its reserved position.
//!
//! The work follows the rows: `tables ≤ 64` is read off the row count alone,
//! the table is `256 · tables` words — 1 KiB for a five-row sort on any
//! device — and a scatter work-group's walk of it is at most 16 words per
//! row of its stretch (at 65 536 rows; one word per row at a million).
//!
//! Raw words become sortable unsigned keys by an order-preserving transform
//! ([`KeyMap`]: sign-bit flip / IEEE-754 total order), matching the paper's
//! "minor modifications to handle arbitrary input sizes and negative
//! values". The first pass reads the raw column and encodes in registers —
//! its OIDs are the row indices — and the last writes only the OIDs. A
//! descending sort sorts the complemented key, so it is the same eight
//! launches and stable too: **equal keys keep input order in both
//! directions**, which makes the order a function of the input alone.
//!
//! **Deliberate sync point:** the table count and the staging buffers are
//! sized from the row count on the host, so a deferred input length is
//! resolved on entry. Nothing else flushes and nothing crosses to the host.

use crate::context::{DevColumn, DevWord, OcelotContext, Oid};
use crate::ops::aggregate::partial_tables_for;
use crate::primitives::gather::gather;
use crate::primitives::histogram::{sum_rows, HistogramKernel, MAX_DIGITS};
use ocelot_kernel::{
    Buffer, BufferAccess, EventId, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result,
    WorkGroupCtx,
};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// One digit fills a row of the work-group count table.
const RADIX_SIZE: usize = MAX_DIGITS;
const RADIX_BITS: usize = RADIX_SIZE.trailing_zeros() as usize;
const PASSES: usize = 32 / RADIX_BITS;

/// How column words map to unsigned keys whose ascending order is the sort
/// order: `word ^ flip`, negative words (sign bit set) flipping
/// `flip_negative` as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyMap {
    flip: u32,
    flip_negative: u32,
}

impl KeyMap {
    /// Signed integers: flip the sign bit.
    const I32: KeyMap = KeyMap { flip: 0x8000_0000, flip_negative: 0 };
    /// IEEE-754 floats: set the sign bit of positives, flip all bits of
    /// negatives (total order).
    const F32: KeyMap = KeyMap { flip: 0x8000_0000, flip_negative: 0x7FFF_FFFF };

    /// The complemented key: its ascending order is the column's descending
    /// order, ties still in input order.
    fn descending(self, descending: bool) -> KeyMap {
        KeyMap { flip: if descending { !self.flip } else { self.flip }, ..self }
    }

    #[inline]
    fn encode(self, word: u32) -> u32 {
        word ^ self.flip ^ (((word as i32 >> 31) as u32) & self.flip_negative)
    }
}

#[inline]
fn digit_of(key: u32, shift: usize) -> usize {
    (key >> shift) as usize & (RADIX_SIZE - 1)
}

/// `K` is the key of a word of `keys_in`: [`KeyMap::encode`] on the first
/// pass, the word itself once the keys are staged.
struct ScatterKernel<K> {
    keys_in: Buffer,
    /// Carried OIDs; `None` on the first pass (the OID *is* the row index).
    oids_in: Option<Buffer>,
    /// `None` on the last pass: nothing reads the keys again.
    keys_out: Option<Buffer>,
    oids_out: Buffer,
    counts: Buffer,
    key: K,
    shift: usize,
}

impl<K: Fn(u32) -> u32 + Send + Sync> Kernel for ScatterKernel<K> {
    fn name(&self) -> &str {
        "radix_scatter"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let (start, end) = group.chunk_bounds(group.n());
        if start == end {
            return;
        }
        let (this, tables) = (group.group_id(), group.num_groups());
        let counts = self.counts.chunk(0, tables * RADIX_SIZE);
        let (before, rest) =
            (sum_rows(counts, RADIX_SIZE, 0..this), sum_rows(counts, RADIX_SIZE, this..tables));
        let (mut cursors, mut digit_start) = ([0u32; RADIX_SIZE], 0);
        for (digit, cursor) in cursors.iter_mut().enumerate() {
            *cursor = digit_start + before[digit];
            digit_start += before[digit] + rest[digit];
        }
        let oids_in = self.oids_in.as_ref().map(|oids| &oids.as_words()[start..end]);
        // Scatter targets are disjoint across work-groups (the cursors
        // reserve a unique position per element) but not contiguous, so the
        // writes go through the atomic-cell slices.
        let keys_out = self.keys_out.as_ref().map(|keys| keys.cells());
        let oids_out = self.oids_out.cells();
        for (offset, &word) in self.keys_in.as_words()[start..end].iter().enumerate() {
            let key = (self.key)(word);
            let cursor = &mut cursors[digit_of(key, self.shift)];
            let position = *cursor as usize;
            *cursor += 1;
            if let Some(keys_out) = keys_out {
                keys_out[position].store(key, Relaxed);
            }
            let oid = oids_in.map_or((start + offset) as u32, |oids| oids[offset]);
            oids_out[position].store(oid, Relaxed);
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let columns = |buffer: &Option<Buffer>| 1 + u64::from(buffer.is_some());
        // Every work-group walks the whole count table.
        let table_walks = (launch.num_groups * launch.num_groups * RADIX_SIZE) as u64;
        KernelCost::new(
            (launch.n as u64 * columns(&self.oids_in) + table_walks) * 4,
            launch.n as u64 * columns(&self.keys_out) * 4,
            launch.n as u64 + table_walks,
            0,
        )
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let rows = 0..launch.n;
        let mut accesses = vec![
            BufferAccess::slice_read(&self.keys_in, rows.clone()),
            BufferAccess::slice_read(&self.counts, 0..launch.num_groups * RADIX_SIZE),
            BufferAccess::cells_write(&self.oids_out, rows.clone()),
        ];
        accesses.extend(self.oids_in.iter().map(|b| BufferAccess::slice_read(b, rows.clone())));
        accesses.extend(self.keys_out.iter().map(|b| BufferAccess::cells_write(b, rows.clone())));
        Some(KernelAccesses::of(accesses))
    }
}

/// What one pass reads and writes: the keys and the OIDs they carry.
struct Pass {
    keys_in: Buffer,
    oids_in: Option<Buffer>,
    keys_out: Option<Buffer>,
    oids_out: Buffer,
    shift: usize,
}

/// Enqueues one pass over the digit at `shift` of `key(word)` — histogram,
/// then scatter, the one count table between them — behind `wait`.
fn enqueue_pass<K: Fn(u32) -> u32 + Copy + Send + Sync + 'static>(
    ctx: &OcelotContext,
    launch: &LaunchConfig,
    counts: &Buffer,
    pass: Pass,
    key: K,
    wait: &[EventId],
) -> Result<EventId> {
    let Pass { keys_in, oids_in, keys_out, oids_out, shift } = pass;
    let counted = ctx.queue().enqueue_kernel(
        Arc::new(HistogramKernel {
            name: "radix_histogram",
            keys: keys_in.clone(),
            counts: counts.clone(),
            digits: RADIX_SIZE,
            digit: move |word| digit_of(key(word), shift),
        }),
        launch.clone(),
        wait,
    )?;
    let counts = counts.clone();
    ctx.queue().enqueue_kernel(
        Arc::new(ScatterKernel { keys_in, oids_in, keys_out, oids_out, counts, key, shift }),
        launch.clone(),
        &[counted],
    )
}

/// The result of a sort: the sorted values and the permutation of input OIDs
/// that produces them (used to reorder dependent columns with a fetch join).
#[derive(Debug, Clone)]
pub struct SortResult<T: DevWord> {
    /// The sorted values.
    pub values: DevColumn<T>,
    /// `order[i]` = OID of the input row at sorted position `i`.
    pub order: DevColumn<Oid>,
}

/// Transient device bytes a sort of `rows` rows allocates: four staging
/// buffers — two of keys, two of OIDs, one of which leaves as the order —
/// and the count table. The engine's admission estimate charges this.
// xlint:allow(eager-host-scalar): a sizing rule over a row count, no device value is read.
pub fn scratch_bytes(rows: usize) -> usize {
    (4 * rows + RADIX_SIZE * partial_tables_for(rows, RADIX_SIZE)) * 4
}

/// The stable permutation that sorts `input` by `key` (module docs).
fn radix_sort_order<T: DevWord>(
    ctx: &OcelotContext,
    input: &DevColumn<T>,
    key: KeyMap,
) -> Result<DevColumn<Oid>> {
    let n = input.len(ctx)?;
    if n == 0 {
        return DevColumn::new(ctx.alloc(1, "sort_order")?, 0);
    }
    let tables = partial_tables_for(n, RADIX_SIZE);
    let launch = ctx.launch(n).with_num_groups(tables);
    let counts = ctx.alloc_uninit(RADIX_SIZE * tables, "sort_counts")?;
    let keys = [ctx.alloc_uninit(n, "sort_keys_a")?, ctx.alloc_uninit(n, "sort_keys_b")?];
    let oids = [ctx.alloc_uninit(n, "sort_oids_a")?, ctx.alloc_uninit(n, "sort_oids_b")?];

    // The first pass reads the column and encodes in registers; pass `p`
    // scatters into side `p % 2` of the staging buffers what the pass before
    // it left in the other side, and the last leaves only the order.
    let first = Pass {
        keys_in: input.buffer.clone(),
        oids_in: None,
        keys_out: Some(keys[0].clone()),
        oids_out: oids[0].clone(),
        shift: 0,
    };
    let encode = move |word| key.encode(word);
    let mut scattered = enqueue_pass(ctx, &launch, &counts, first, encode, &ctx.wait_for(input))?;
    for pass in 1..PASSES {
        let (from, to) = ((pass + 1) % 2, pass % 2);
        let staged = Pass {
            keys_in: keys[from].clone(),
            oids_in: Some(oids[from].clone()),
            keys_out: (pass + 1 < PASSES).then(|| keys[to].clone()),
            oids_out: oids[to].clone(),
            shift: pass * RADIX_BITS,
        };
        scattered = enqueue_pass(ctx, &launch, &counts, staged, |key| key, &[scattered])?;
    }
    let order = oids[(PASSES - 1) % 2].clone();
    ctx.memory().record_producer(&order, scattered);
    DevColumn::new(order, n)
}

/// The permutation that sorts an integer column, ascending or descending:
/// `order[i]` = OID of the input row at sorted position `i`. Stable in both
/// directions — equal keys keep input order.
pub fn sort_order_i32(
    ctx: &OcelotContext,
    input: &DevColumn<i32>,
    descending: bool,
) -> Result<DevColumn<Oid>> {
    radix_sort_order(ctx, input, KeyMap::I32.descending(descending))
}

/// The permutation that sorts a float column (IEEE total order), ascending or
/// descending; stable in both directions.
pub fn sort_order_f32(
    ctx: &OcelotContext,
    input: &DevColumn<f32>,
    descending: bool,
) -> Result<DevColumn<Oid>> {
    radix_sort_order(ctx, input, KeyMap::F32.descending(descending))
}

fn sorted<T: DevWord>(
    ctx: &OcelotContext,
    input: &DevColumn<T>,
    order: DevColumn<Oid>,
) -> Result<SortResult<T>> {
    Ok(SortResult { values: gather(ctx, input, &order)?, order })
}

/// Sorts an integer column ascending.
pub fn sort_i32(ctx: &OcelotContext, input: &DevColumn<i32>) -> Result<SortResult<i32>> {
    sorted(ctx, input, sort_order_i32(ctx, input, false)?)
}

/// Sorts a float column ascending (IEEE total order).
pub fn sort_f32(ctx: &OcelotContext, input: &DevColumn<f32>) -> Result<SortResult<f32>> {
    sorted(ctx, input, sort_order_f32(ctx, input, false)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;
    use ocelot_monet::sequential as monet;

    fn contexts() -> Vec<OcelotContext> {
        vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
    }

    #[test]
    fn integer_sort_matches_monet_on_all_devices() {
        let values: Vec<i32> = (0..20_000).map(|i| ((i * 73 + 19) % 8191) - 4000).collect();
        let (expected, _) = monet::sort_i32(&values);
        for ctx in contexts() {
            let col = ctx.upload_i32(&values, "v").unwrap();
            let result = sort_i32(&ctx, &col).unwrap();
            assert_eq!(result.values.read(&ctx).unwrap(), expected);
            // The order column is a permutation producing the sorted output.
            let order = result.order.read(&ctx).unwrap();
            let mut seen = vec![false; values.len()];
            for (pos, oid) in order.iter().enumerate() {
                assert_eq!(values[*oid as usize], expected[pos]);
                assert!(!seen[*oid as usize]);
                seen[*oid as usize] = true;
            }
        }
    }

    #[test]
    fn float_sort_matches_monet() {
        let values: Vec<f32> =
            (0..10_000).map(|i| (((i * 37 + 5) % 999) as f32 - 500.0) * 0.25).collect();
        let (expected, _) = monet::sort_f32(&values);
        let ctx = OcelotContext::gpu();
        let col = ctx.upload_f32(&values, "v").unwrap();
        let result = sort_f32(&ctx, &col).unwrap();
        assert_eq!(result.values.read(&ctx).unwrap(), expected);
    }

    #[test]
    fn negative_and_extreme_integers() {
        let values = vec![0, -1, i32::MIN, i32::MAX, 42, -42, 1, i32::MIN + 1];
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&values, "v").unwrap();
        let result = sort_i32(&ctx, &col).unwrap();
        let mut expected = values.clone();
        expected.sort_unstable();
        assert_eq!(result.values.read(&ctx).unwrap(), expected);
    }

    #[test]
    fn sort_is_stable_within_equal_keys() {
        // Duplicate keys: the order column must preserve input order.
        let values: Vec<i32> = (0..1_000).map(|i| i % 10).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&values, "v").unwrap();
        let result = sort_i32(&ctx, &col).unwrap();
        let order = result.order.read(&ctx).unwrap();
        for window in order.windows(2) {
            let (a, b) = (window[0] as usize, window[1] as usize);
            if values[a] == values[b] {
                assert!(a < b, "stability violated for equal keys: {a} before {b}");
            }
        }
    }

    #[test]
    fn already_sorted_reverse_and_uniform() {
        let ctx = OcelotContext::cpu();
        let asc: Vec<i32> = (0..500).collect();
        let desc: Vec<i32> = (0..500).rev().collect();
        let uniform = vec![7i32; 500];
        for input in [asc.clone(), desc, uniform] {
            let col = ctx.upload_i32(&input, "v").unwrap();
            let result = sort_i32(&ctx, &col).unwrap();
            let mut expected = input.clone();
            expected.sort_unstable();
            assert_eq!(result.values.read(&ctx).unwrap(), expected);
        }
    }

    #[test]
    fn count_table_is_sized_by_the_rows_on_every_device() {
        // 256 counters per 1 024 rows, at least one table, at most 64 —
        // whatever the device's work-item count (4 … 1 344 here).
        for ctx in contexts() {
            for (rows, tables) in [(5, 1), (2_047, 1), (5_000, 4), (65_536, 64), (1 << 22, 64)] {
                let launch = ctx.launch(rows).with_num_groups(partial_tables_for(rows, RADIX_SIZE));
                let counts = ctx.alloc(RADIX_SIZE * tables, "counts").unwrap();
                let histogram = HistogramKernel {
                    name: "radix_histogram",
                    keys: counts.clone(),
                    counts,
                    digits: RADIX_SIZE,
                    digit: |word| digit_of(word, 0),
                };
                assert_eq!(launch.num_groups, tables);
                assert_eq!(histogram.cost(&launch).bytes_written, (256 * tables * 4) as u64);
            }
        }
    }

    #[test]
    fn empty_and_single_element() {
        let ctx = OcelotContext::cpu();
        let empty = ctx.upload_i32(&[], "v").unwrap();
        let result = sort_i32(&ctx, &empty).unwrap();
        assert_eq!(result.values.host_len(), Some(0));
        let single = ctx.upload_i32(&[-5], "v").unwrap();
        let result = sort_i32(&ctx, &single).unwrap();
        assert_eq!(result.values.read(&ctx).unwrap(), vec![-5]);
        assert_eq!(result.order.read(&ctx).unwrap(), vec![0]);
    }
}
