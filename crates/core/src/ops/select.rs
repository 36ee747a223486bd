//! The selection operator (paper §4.1.1).
//!
//! Following Wu et al., the selection result is encoded as a bitmap: every
//! work-item evaluates the predicate on a small chunk of the input and emits
//! whole bitmap words. Bitmaps keep the result size independent of the
//! selectivity (the effect Figure 5b measures) and let complex predicates be
//! assembled from per-predicate bitmaps with bit operations
//! ([`crate::primitives::bitmap::combine`]).
//!
//! One kernel evaluates every predicate kind, monomorphised per kind: the
//! constant comparisons (range, equality, inequality), membership in a short
//! `IN` list ([`select_in_i32`] — one pass comparing each row against every
//! listed value, not one selection per value and a union), and the
//! **two-input** predicate `left <op> right` over two aligned columns
//! ([`select_cmp_i32`] — both columns are read and the bitmap written
//! directly, with no cast, difference or other full-column intermediate).
//! A selection over a candidate list fetches its input column(s) at the
//! candidates first and selects over the fetched values (the engine's
//! `select_with` shape), so it streams candidates, not the base table.
//!
//! Bitmaps are internal: [`materialize_bitmap`] converts them to the OID
//! lists MonetDB-style operators expect, using the two-step
//! count-scan-write pattern (per-item bit counts, exclusive scan, position
//! writes). The materialised column's length is the scan total — which stays
//! **on the device**: the output is allocated at the bitmap's capacity bound
//! and carries the total as a deferred length, so no host round-trip happens
//! anywhere in a select→materialise→consume chain. (The capacity allocation
//! trades transient memory for the removed sync — the paper's lazy-queue
//! bet.)

use crate::context::{DevColumn, DevScalar, LenSource, OcelotContext, Oid};
use crate::primitives::bitmap::Bitmap;
use crate::primitives::prefix_sum::exclusive_scan_u32;
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result, WorkGroupCtx,
};
use ocelot_storage::CmpOp;
use std::ops::Range;
use std::sync::Arc;

/// The comparison a selection kernel evaluates.
#[derive(Debug, Clone)]
enum Predicate {
    /// `low <= value <= high` over `i32`.
    RangeI32 { low: i32, high: i32 },
    /// `low <= value <= high` over `f32`.
    RangeF32 { low: f32, high: f32 },
    /// `value == needle` over `i32`.
    EqI32 { needle: i32 },
    /// `value != needle` over `i32`.
    NeI32 { needle: i32 },
    /// `value` is one of a short list of `i32`s (sorted, distinct).
    InI32 { values: Arc<[i32]> },
    /// `value <op> right[row]` over `i32`: the two-input predicate. `right`
    /// is a second column aligned with the input.
    CmpI32 { op: CmpOp, right: Buffer },
}

/// Selection kernel: each work-item produces whole bitmap words for its
/// chunk of the input (the paper found one result byte — eight values — per
/// thread iteration to work well; one 32-bit word per iteration is the same
/// idea on word granularity).
struct SelectKernel {
    input: Buffer,
    bitmap: Buffer,
    predicate: Predicate,
    n: LenSource,
    /// Host-known logical row count, when there is one — lets the race
    /// detector's bitmap-padding check run at kernel completion.
    rows: Option<usize>,
}

/// Builds the bitmap words `start_word..start_word + out.len()`, asking
/// `bits_of` for the predicate bits of each word's rows (at most 32, all
/// `< n`). Bits at positions `>= n` stay zero — the bitmap zero-padding
/// invariant.
#[inline]
fn build_words(
    out: &mut [u32],
    start_word: usize,
    n: usize,
    bits_of: impl Fn(Range<usize>) -> u32,
) {
    for (offset, word) in out.iter_mut().enumerate() {
        let base = (start_word + offset) * 32;
        let limit = (base + 32).min(n);
        *word = if base < limit { bits_of(base..limit) } else { 0 };
    }
}

/// [`build_words`] for a one-input predicate, monomorphised per predicate:
/// the enum dispatch happens once per chunk, and the bit loop runs over
/// plain slices (tier-2 views).
#[inline]
fn build_bitmap_words(
    input: &[u32],
    out: &mut [u32],
    start_word: usize,
    n: usize,
    matches: impl Fn(u32) -> bool,
) {
    build_words(out, start_word, n, |rows| {
        input[rows].iter().enumerate().fold(0, |bits, (bit, &v)| bits | (matches(v) as u32) << bit)
    });
}

/// [`build_words`] for a predicate over two aligned `i32` columns.
#[inline]
fn build_bitmap_words_cmp(
    (left, right): (&[u32], &[u32]),
    out: &mut [u32],
    start_word: usize,
    n: usize,
    matches: impl Fn(i32, i32) -> bool,
) {
    build_words(out, start_word, n, |rows| {
        let pairs = left[rows.clone()].iter().zip(&right[rows]);
        pairs
            .enumerate()
            .fold(0, |bits, (bit, (&l, &r))| bits | (matches(l as i32, r as i32) as u32) << bit)
    });
}

impl Kernel for SelectKernel {
    fn name(&self) -> &str {
        "select_bitmap"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        // A deferred row count resolves here, at flush time; rows past `n`
        // hold garbage and must contribute zero bits.
        let n = self.n.get();
        let words = Bitmap::words_for(self.n.cap());
        let input = self.input.as_words();
        for item in group.items() {
            // Each item owns a contiguous range of bitmap *words* so that a
            // word is written by exactly one item.
            let (start_word, end_word) = item.chunk_bounds(words);
            if start_word >= end_word {
                continue;
            }
            // SAFETY: bitmap words `start_word..end_word` belong exclusively
            // to this item within this phase (chunk_bounds partitions the
            // word range across items).
            let out = unsafe { self.bitmap.chunk_mut(start_word, end_word) };
            match &self.predicate {
                &Predicate::RangeI32 { low, high } => {
                    build_bitmap_words(input, out, start_word, n, |w| {
                        let v = w as i32;
                        v >= low && v <= high
                    });
                }
                &Predicate::RangeF32 { low, high } => {
                    build_bitmap_words(input, out, start_word, n, |w| {
                        let v = f32::from_bits(w);
                        v >= low && v <= high
                    });
                }
                &Predicate::EqI32 { needle } => {
                    build_bitmap_words(input, out, start_word, n, |w| w as i32 == needle);
                }
                &Predicate::NeI32 { needle } => {
                    build_bitmap_words(input, out, start_word, n, |w| w as i32 != needle);
                }
                Predicate::InI32 { values } => {
                    // Every value is compared, hit or not: a scan that stops
                    // at the first hit branches on the data, and on a short
                    // list the mispredictions cost more than the compares.
                    let values: &[i32] = values;
                    build_bitmap_words(input, out, start_word, n, |w| {
                        values.iter().fold(false, |hit, value| hit | (*value == w as i32))
                    });
                }
                Predicate::CmpI32 { op, right } => {
                    // One monomorphised bit loop per operator.
                    let columns = (input, right.as_words());
                    match op {
                        CmpOp::Lt => {
                            build_bitmap_words_cmp(columns, out, start_word, n, |l, r| l < r)
                        }
                        CmpOp::Le => {
                            build_bitmap_words_cmp(columns, out, start_word, n, |l, r| l <= r)
                        }
                        CmpOp::Gt => {
                            build_bitmap_words_cmp(columns, out, start_word, n, |l, r| l > r)
                        }
                        CmpOp::Ge => {
                            build_bitmap_words_cmp(columns, out, start_word, n, |l, r| l >= r)
                        }
                        CmpOp::Eq => {
                            build_bitmap_words_cmp(columns, out, start_word, n, |l, r| l == r)
                        }
                        CmpOp::Ne => {
                            build_bitmap_words_cmp(columns, out, start_word, n, |l, r| l != r)
                        }
                    }
                }
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let inputs = if matches!(self.predicate, Predicate::CmpI32 { .. }) { 2 } else { 1 };
        KernelCost::new((launch.n as u64) * 4 * inputs, (launch.n as u64) / 8, launch.n as u64, 0)
    }
    fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<KernelAccesses> {
        let words = Bitmap::words_for(self.n.cap());
        let mut accesses = vec![
            BufferAccess::slice_read(&self.input, 0..self.input.len()),
            BufferAccess::slice_write(&self.bitmap, 0..words),
        ];
        if let Predicate::CmpI32 { right, .. } = &self.predicate {
            accesses.push(BufferAccess::slice_read(right, 0..right.len()));
        }
        let mut declared = KernelAccesses::of(accesses);
        if let Some(rows) = self.rows {
            declared = declared.with_bitmap(&self.bitmap, rows);
        }
        Some(declared)
    }
}

fn run_select(
    ctx: &OcelotContext,
    input: &Buffer,
    len: &crate::context::ColLen,
    wait: Vec<ocelot_kernel::EventId>,
    predicate: Predicate,
) -> Result<Bitmap> {
    // The kernel writes every backing word, so the bitmap can skip zeroing.
    let bitmap = Bitmap::for_overwrite(ctx, len.clone())?;
    if len.cap() == 0 {
        return Ok(bitmap);
    }
    let right = match &predicate {
        Predicate::CmpI32 { right, .. } => Some(right.clone()),
        _ => None,
    };
    let event = ctx.queue().enqueue_kernel(
        Arc::new(SelectKernel {
            input: input.clone(),
            bitmap: bitmap.buffer.clone(),
            predicate,
            n: len.source(),
            rows: match len {
                crate::context::ColLen::Host(n) => Some(*n),
                crate::context::ColLen::Device { .. } => None,
            },
        }),
        ctx.launch(len.cap()),
        &wait,
    )?;
    ctx.memory().record_producer(&bitmap.buffer, event);
    ctx.memory().record_consumer(input, event);
    if let Some(right) = right {
        ctx.memory().record_consumer(&right, event);
    }
    Ok(bitmap)
}

/// Inclusive range selection over an integer column.
pub fn select_range_i32(
    ctx: &OcelotContext,
    input: &DevColumn<i32>,
    low: i32,
    high: i32,
) -> Result<Bitmap> {
    run_select(
        ctx,
        &input.buffer,
        input.col_len(),
        ctx.wait_for(input),
        Predicate::RangeI32 { low, high },
    )
}

/// Inclusive range selection over a float column.
pub fn select_range_f32(
    ctx: &OcelotContext,
    input: &DevColumn<f32>,
    low: f32,
    high: f32,
) -> Result<Bitmap> {
    run_select(
        ctx,
        &input.buffer,
        input.col_len(),
        ctx.wait_for(input),
        Predicate::RangeF32 { low, high },
    )
}

/// Equality selection over an integer column (also serves dictionary-encoded
/// strings and dates).
pub fn select_eq_i32(ctx: &OcelotContext, input: &DevColumn<i32>, needle: i32) -> Result<Bitmap> {
    run_select(
        ctx,
        &input.buffer,
        input.col_len(),
        ctx.wait_for(input),
        Predicate::EqI32 { needle },
    )
}

/// Inequality selection over an integer column.
pub fn select_ne_i32(ctx: &OcelotContext, input: &DevColumn<i32>, needle: i32) -> Result<Bitmap> {
    run_select(
        ctx,
        &input.buffer,
        input.col_len(),
        ctx.wait_for(input),
        Predicate::NeI32 { needle },
    )
}

/// Membership selection `input IN (values…)` over an integer column, in one
/// pass: the list is short, so every row scans it (sorted, duplicates
/// dropped) instead of the column being selected once per value.
pub fn select_in_i32(
    ctx: &OcelotContext,
    input: &DevColumn<i32>,
    values: &[i32],
) -> Result<Bitmap> {
    let mut values = values.to_vec();
    values.sort_unstable();
    values.dedup();
    run_select(
        ctx,
        &input.buffer,
        input.col_len(),
        ctx.wait_for(input),
        Predicate::InI32 { values: values.into() },
    )
}

/// Column-vs-column selection `left <op> right` over two aligned integer
/// columns, in one kernel that reads both and writes the bitmap — no cast,
/// no difference column. The bitmap takes `left`'s (possibly deferred)
/// length.
///
/// # Panics
/// Panics if `right` cannot cover every row `left` may have.
pub fn select_cmp_i32(
    ctx: &OcelotContext,
    left: &DevColumn<i32>,
    right: &DevColumn<i32>,
    op: CmpOp,
) -> Result<Bitmap> {
    match (left.host_len(), right.host_len()) {
        (Some(a), Some(b)) => assert_eq!(a, b, "column comparison: length mismatch"),
        _ => assert!(right.cap() >= left.cap(), "column comparison: length mismatch"),
    }
    let mut wait = ctx.wait_for(left);
    wait.extend(ctx.wait_for(right));
    run_select(
        ctx,
        &left.buffer,
        left.col_len(),
        wait,
        Predicate::CmpI32 { op, right: right.buffer.clone() },
    )
}

// ---- bitmap materialisation (paper §4.1.2) ----

struct CountBitsKernel {
    bitmap: Buffer,
    counts: Buffer,
    words: usize,
}

impl Kernel for CountBitsKernel {
    fn name(&self) -> &str {
        "materialize_count"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let bitmap = self.bitmap.as_words();
        for item in group.items() {
            let (start, end) = item.chunk_bounds(self.words);
            let count: u32 = bitmap[start..end].iter().map(|w| w.count_ones()).sum();
            self.counts.set_u32(item.global_id, count);
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) / 8, launch.total_items() as u64 * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.bitmap, 0..self.words),
            BufferAccess::cells_write(&self.counts, 0..launch.total_items()),
        ]))
    }
}

struct WritePositionsKernel {
    bitmap: Buffer,
    offsets: Buffer,
    output: Buffer,
    words: usize,
}

impl Kernel for WritePositionsKernel {
    fn name(&self) -> &str {
        "materialize_write"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let bitmap = self.bitmap.as_words();
        let output = self.output.cells();
        for item in group.items() {
            let (start, end) = item.chunk_bounds(self.words);
            let mut cursor = self.offsets.get_u32(item.global_id) as usize;
            for (offset, &word) in bitmap[start..end].iter().enumerate() {
                if word == 0 {
                    continue;
                }
                let base = (start + offset) * 32;
                // Iterate set bits only (count_ones-driven) instead of
                // testing all 32 positions. Padding bits are zero by the
                // bitmap invariant, so no row-limit check is needed.
                let mut remaining = word;
                while remaining != 0 {
                    let bit = remaining.trailing_zeros() as usize;
                    remaining &= remaining - 1;
                    output[cursor].store((base + bit) as u32, std::sync::atomic::Ordering::Relaxed);
                    cursor += 1;
                }
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) / 8, (launch.n as u64) * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.bitmap, 0..self.words),
            BufferAccess::cells_read(&self.offsets, 0..launch.total_items()),
            BufferAccess::cells_write(&self.output, 0..self.output.len()),
        ]))
    }
}

/// Materialises a bitmap into the sorted list of qualifying OIDs, using the
/// two-step prefix-sum scheme from §4.1.2: per-item bit counts, exclusive
/// scan for unique write offsets, then position writes.
///
/// Nothing synchronises: the output is allocated at the bitmap's capacity
/// bound and its logical length is the scan total, attached as a deferred
/// device counter. Downstream gathers/reductions consume it at flush time.
pub fn materialize_bitmap(ctx: &OcelotContext, bitmap: &Bitmap) -> Result<DevColumn<Oid>> {
    let words = bitmap.words();
    if words == 0 {
        let empty = ctx.alloc(1, "materialized_oids")?;
        return DevColumn::new(empty, 0);
    }
    let launch = ctx.launch(words);
    let counts_buffer = ctx.alloc_uninit(launch.total_items(), "materialize_counts")?;
    let wait = ctx.memory().wait_for_read(&bitmap.buffer);
    let count_event = ctx.queue().enqueue_kernel(
        Arc::new(CountBitsKernel {
            bitmap: bitmap.buffer.clone(),
            counts: counts_buffer.clone(),
            words,
        }),
        launch.clone(),
        &wait,
    )?;
    ctx.memory().record_producer(&counts_buffer, count_event);

    let counts = DevColumn::<u32>::new(counts_buffer, launch.total_items())?;
    let (offsets, total) = exclusive_scan_u32(ctx, &counts)?;

    // Capacity allocation: at most every covered row qualifies.
    let cap = bitmap.cap_bits();
    let output = ctx.alloc_uninit(cap.max(1), "materialized_oids")?;
    let mut write_wait = ctx.memory().wait_for_read(&offsets.buffer);
    write_wait.extend(ctx.memory().wait_for_read(&bitmap.buffer));
    let write_event = ctx.queue().enqueue_kernel(
        Arc::new(WritePositionsKernel {
            bitmap: bitmap.buffer.clone(),
            offsets: offsets.buffer.clone(),
            output: output.clone(),
            words,
        }),
        launch,
        &write_wait,
    )?;
    ctx.memory().record_producer(&output, write_event);
    DevColumn::deferred(output, total.buffer().clone(), cap)
}

/// Number of qualifying rows of a selection result, as a deferred scalar.
pub fn selected_count(ctx: &OcelotContext, bitmap: &Bitmap) -> Result<DevScalar<u32>> {
    crate::primitives::bitmap::count_ones(ctx, bitmap)
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
    fn range_selection_matches_monet_on_all_devices() {
        let values: Vec<i32> = (0..10_000).map(|i| (i * 37 + 11) % 1000).collect();
        let expected: Vec<u32> = monet::select_range_i32(&values, 100, 300);
        for ctx in contexts() {
            let col = ctx.upload_i32(&values, "v").unwrap();
            let bitmap = select_range_i32(&ctx, &col, 100, 300).unwrap();
            let oids = materialize_bitmap(&ctx, &bitmap).unwrap();
            assert!(oids.is_deferred(), "materialised length stays on the device");
            assert_eq!(oids.read(&ctx).unwrap(), expected);
            assert_eq!(
                selected_count(&ctx, &bitmap).unwrap().get(&ctx).unwrap() as usize,
                expected.len()
            );
        }
    }

    #[test]
    fn materialize_is_sync_free() {
        let ctx = OcelotContext::cpu();
        let values: Vec<i32> = (0..50_000).map(|i| i % 100).collect();
        let col = ctx.upload_i32(&values, "v").unwrap();
        let flushes = ctx.queue().flush_count();
        let bitmap = select_range_i32(&ctx, &col, 10, 19).unwrap();
        let oids = materialize_bitmap(&ctx, &bitmap).unwrap();
        assert_eq!(ctx.queue().flush_count(), flushes, "select + materialise must not flush");
        assert_eq!(
            oids.len(&ctx).unwrap(),
            values.iter().filter(|v| (10..20).contains(*v)).count()
        );
        assert_eq!(ctx.queue().flush_count(), flushes + 1, "single flush at the resolve");
    }

    #[test]
    fn float_range_selection() {
        let values: Vec<f32> = (0..5_000).map(|i| (i % 997) as f32 * 0.1).collect();
        let expected = monet::select_range_f32(&values, 10.0, 20.0);
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_f32(&values, "v").unwrap();
        let bitmap = select_range_f32(&ctx, &col, 10.0, 20.0).unwrap();
        let oids = materialize_bitmap(&ctx, &bitmap).unwrap();
        assert_eq!(oids.read(&ctx).unwrap(), expected);
    }

    #[test]
    fn equality_and_inequality_selection() {
        let values: Vec<i32> = (0..3_000).map(|i| i % 17).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&values, "v").unwrap();

        let eq = select_eq_i32(&ctx, &col, 5).unwrap();
        let eq_oids = materialize_bitmap(&ctx, &eq).unwrap();
        assert_eq!(eq_oids.read(&ctx).unwrap(), monet::select_eq_i32(&values, 5));

        let ne = select_ne_i32(&ctx, &col, 5).unwrap();
        assert_eq!(
            selected_count(&ctx, &ne).unwrap().get(&ctx).unwrap() as usize,
            values.iter().filter(|v| **v != 5).count()
        );
    }

    #[test]
    fn conjunction_via_bitmap_and() {
        use crate::primitives::bitmap::{combine, BitmapCombine};
        let values: Vec<i32> = (0..2_000).map(|i| i % 100).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&values, "v").unwrap();
        let a = select_range_i32(&ctx, &col, 10, 60).unwrap();
        let b = select_range_i32(&ctx, &col, 40, 90).unwrap();
        let both = combine(&ctx, &a, &b, BitmapCombine::And).unwrap();
        let oids = materialize_bitmap(&ctx, &both).unwrap();
        assert_eq!(oids.read(&ctx).unwrap(), monet::select_range_i32(&values, 40, 60));
    }

    #[test]
    fn negative_values_and_extremes() {
        let values = vec![-100, -1, 0, 1, 100, i32::MIN, i32::MAX];
        let ctx = OcelotContext::cpu_sequential();
        let col = ctx.upload_i32(&values, "v").unwrap();
        let bitmap = select_range_i32(&ctx, &col, -1, 1).unwrap();
        let oids = materialize_bitmap(&ctx, &bitmap).unwrap();
        assert_eq!(oids.read(&ctx).unwrap(), vec![1, 2, 3]);
        let all = select_range_i32(&ctx, &col, i32::MIN, i32::MAX).unwrap();
        assert_eq!(selected_count(&ctx, &all).unwrap().get(&ctx).unwrap(), 7);
    }

    #[test]
    fn empty_and_no_match() {
        let ctx = OcelotContext::cpu();
        let empty = ctx.upload_i32(&[], "v").unwrap();
        let bitmap = select_range_i32(&ctx, &empty, 0, 10).unwrap();
        assert_eq!(materialize_bitmap(&ctx, &bitmap).unwrap().len(&ctx).unwrap(), 0);

        let col = ctx.upload_i32(&[1, 2, 3], "v").unwrap();
        let none = select_range_i32(&ctx, &col, 100, 200).unwrap();
        let oids = materialize_bitmap(&ctx, &none).unwrap();
        assert_eq!(oids.len(&ctx).unwrap(), 0);
        assert!(oids.read(&ctx).unwrap().is_empty());
    }

    #[test]
    fn selection_over_deferred_input() {
        // Select over a gather output whose length is device-resident: the
        // bitmap inherits the deferred length and padding rows stay zero.
        use crate::primitives::gather::gather;
        let ctx = OcelotContext::cpu();
        let values = ctx.upload_i32(&[5, 50, 500, 5000], "v").unwrap();
        let raw = ctx.upload_u32(&[3, 0, 2, 1], "idx").unwrap();
        let counter = ctx.alloc(1, "count").unwrap();
        counter.set_u32(0, 3);
        ctx.queue().enqueue_write(&counter, &[]).unwrap();
        let idx = DevColumn::<Oid>::deferred(raw.buffer.clone(), counter, 4).unwrap();
        let gathered = gather(&ctx, &values, &idx).unwrap(); // [5000, 5, 500]
        let bitmap = select_range_i32(&ctx, &gathered, 100, 10_000).unwrap();
        assert_eq!(selected_count(&ctx, &bitmap).unwrap().get(&ctx).unwrap(), 2);
        let oids = materialize_bitmap(&ctx, &bitmap).unwrap();
        assert_eq!(oids.read(&ctx).unwrap(), vec![0, 2]);
    }
}
