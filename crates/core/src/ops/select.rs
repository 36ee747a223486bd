//! The selection operator (paper §4.1.1).
//!
//! Following Wu et al., the selection result is encoded as a bitmap: every
//! work-item evaluates the predicate on a small chunk of the input and emits
//! whole bitmap words. Bitmaps keep the result size independent of the
//! selectivity (the effect Figure 5b measures) and let complex predicates be
//! combined with bit operations — for a conjunction inside one launch:
//! [`select_where`] evaluates a whole list of conjuncts per 1024-row tile,
//! ANDing their masks word by word, and writes one bitmap.
//!
//! Every selection is a program over that evaluator
//! ([`super::rowexpr`]): one [`Pred`](super::rowexpr::Pred) conjunct — a constant comparison
//! (range, equality, inequality), membership in a short `IN` list (one
//! pass comparing each row against every listed value), or the
//! **two-input** comparison `left <op> right` over two aligned columns
//! (both columns read, the bitmap written, no cast, difference or other
//! full-column intermediate) — or a conjunction of them. A selection over a
//! candidate list fetches its input column(s) at the candidates first and
//! selects over the fetched values (the engine's `Backend::select` shape), so
//! it streams candidates, not the base table.
//!
//! Bitmaps are internal: [`materialize_bitmap`] converts them to the OID
//! lists MonetDB-style operators expect, using the two-step
//! count-scan-write pattern (per-item bit counts, exclusive scan, position
//! writes — the scan hands every item its own range of the output, so the
//! positions are tier-2 stores, written a bitmap byte at a time where the
//! bitmap is dense). The materialised column's length is the scan total — which stays
//! **on the device**: the output is allocated at the bitmap's capacity bound
//! and carries the total as a deferred length, so no host round-trip happens
//! anywhere in a select→materialise→consume chain. (The capacity allocation
//! trades transient memory for the removed sync — the paper's lazy-queue
//! bet.)

pub use super::rowexpr::select_where;
use crate::context::{DevColumn, DevScalar, OcelotContext, Oid};
use crate::primitives::bitmap::Bitmap;
use crate::primitives::prefix_sum::exclusive_scan_u32;
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result, WorkGroupCtx,
};
use std::sync::Arc;

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

/// Per byte of a bitmap word: the positions of its set bits, lowest first
/// (the entries past the byte's bit count are zero), and how many there are.
static BYTE_POSITIONS: [([u8; 8], u8); 256] = {
    let mut table = [([0u8; 8], 0u8); 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[byte].0[table[byte].1 as usize] = bit as u8;
                table[byte].1 += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Writes the positions of the set bits of `words` — bit `i` of word `w`
/// stands for row `base + 32 w + i` — into `out`, which has exactly one
/// entry per set bit. Where a quarter of the bits or more are set the words
/// go byte by byte through [`BYTE_POSITIONS`] — eight positions stored
/// whatever the byte holds, the cursor advanced by its bit count — which
/// costs the same for every word; sparser words are walked bit by bit, which
/// costs what is set.
fn write_positions(words: &[u32], base: usize, out: &mut [u32]) {
    let mut cursor = 0;
    let dense = out.len() * 4 >= words.len() * 32;
    for (offset, &word) in words.iter().enumerate().filter(|(_, word)| **word != 0) {
        let row = (base + offset * 32) as u32;
        if !dense {
            let mut remaining = word;
            while remaining != 0 {
                out[cursor] = row + remaining.trailing_zeros();
                cursor += 1;
                remaining &= remaining - 1;
            }
            continue;
        }
        for (byte, bits) in word.to_le_bytes().into_iter().enumerate() {
            let (row, (positions, count)) = (row + byte as u32 * 8, BYTE_POSITIONS[bits as usize]);
            match out[cursor..].first_chunk_mut::<8>() {
                Some(slots) => {
                    slots.iter_mut().zip(positions).for_each(|(slot, p)| *slot = row + p as u32)
                }
                // The last entries of the range: only the byte's own.
                None => out[cursor..].iter_mut().zip(positions).for_each(|(slot, p)| {
                    *slot = row + p as u32;
                }),
            }
            cursor += count as usize;
        }
    }
}

struct WritePositionsKernel {
    bitmap: Buffer,
    /// Per item: where its positions start (the exclusive scan of the
    /// items' bit counts), and the scan's total.
    offsets: Buffer,
    total: Buffer,
    output: Buffer,
    words: usize,
}

impl Kernel for WritePositionsKernel {
    fn name(&self) -> &str {
        "materialize_write"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let bitmap = self.bitmap.as_words();
        for item in group.items() {
            let (start, end) = item.chunk_bounds(self.words);
            let first = self.offsets.get_u32(item.global_id) as usize;
            let next = match item.global_id + 1 < item.total_items() {
                true => self.offsets.get_u32(item.global_id + 1),
                false => self.total.get_u32(0),
            };
            // SAFETY: the scan gives this item `first..next` of the output
            // — one entry per set bit of its words — and no other item any
            // of it. Padding bits are zero by the bitmap invariant, so every
            // position written is a row.
            let out = unsafe { self.output.chunk_mut(first, next as usize) };
            write_positions(&bitmap[start..end], start * 32, out);
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) / 8, (launch.n as u64) * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.bitmap, 0..self.words),
            BufferAccess::cells_read(&self.offsets, 0..launch.total_items()),
            BufferAccess::cells_read(&self.total, 0..1),
            BufferAccess::slice_write(&self.output, 0..self.output.len()),
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
    write_wait.extend(ctx.memory().wait_for_read(total.buffer()));
    write_wait.extend(ctx.memory().wait_for_read(&bitmap.buffer));
    let write_event = ctx.queue().enqueue_kernel(
        Arc::new(WritePositionsKernel {
            bitmap: bitmap.buffer.clone(),
            offsets: offsets.buffer.clone(),
            total: total.buffer().clone(),
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
    use crate::context::{DevWord, OcelotContext};
    use crate::ops::rowexpr::Pred;
    use ocelot_monet::sequential as monet;

    /// The bitmap of one conjunct over one column.
    fn select<T: DevWord>(ctx: &OcelotContext, input: &DevColumn<T>, pred: Pred) -> Bitmap {
        select_where(ctx, &[&input.reinterpret()], &[pred]).unwrap()
    }

    fn contexts() -> Vec<OcelotContext> {
        vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
    }

    #[test]
    fn range_selection_matches_monet_on_all_devices() {
        let values: Vec<i32> = (0..10_000).map(|i| (i * 37 + 11) % 1000).collect();
        let expected: Vec<u32> = monet::select_range_i32(&values, 100, 300);
        for ctx in contexts() {
            let col = ctx.upload_i32(&values, "v").unwrap();
            let bitmap = select(&ctx, &col, Pred::RangeI32 { col: 0, low: 100, high: 300 });
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
        let bitmap = select(&ctx, &col, Pred::RangeI32 { col: 0, low: 10, high: 19 });
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
        let bitmap = select(&ctx, &col, Pred::RangeF32 { col: 0, low: 10.0, high: 20.0 });
        let oids = materialize_bitmap(&ctx, &bitmap).unwrap();
        assert_eq!(oids.read(&ctx).unwrap(), expected);
    }

    #[test]
    fn equality_and_inequality_selection() {
        let values: Vec<i32> = (0..3_000).map(|i| i % 17).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&values, "v").unwrap();

        let eq = select(&ctx, &col, Pred::EqI32 { col: 0, needle: 5 });
        let eq_oids = materialize_bitmap(&ctx, &eq).unwrap();
        assert_eq!(eq_oids.read(&ctx).unwrap(), monet::select_eq_i32(&values, 5));

        let ne = select(&ctx, &col, Pred::NeI32 { col: 0, needle: 5 });
        assert_eq!(
            selected_count(&ctx, &ne).unwrap().get(&ctx).unwrap() as usize,
            values.iter().filter(|v| **v != 5).count()
        );
    }

    #[test]
    fn conjunction_is_one_bitmap() {
        let values: Vec<i32> = (0..2_000).map(|i| i % 100).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&values, "v").unwrap().reinterpret();
        let preds = [
            Pred::RangeI32 { col: 0, low: 10, high: 60 },
            Pred::RangeI32 { col: 0, low: 40, high: 90 },
        ];
        let both = select_where(&ctx, &[&col], &preds).unwrap();
        let oids = materialize_bitmap(&ctx, &both).unwrap();
        assert_eq!(oids.read(&ctx).unwrap(), monet::select_range_i32(&values, 40, 60));
    }

    #[test]
    fn negative_values_and_extremes() {
        let values = vec![-100, -1, 0, 1, 100, i32::MIN, i32::MAX];
        let ctx = OcelotContext::cpu_sequential();
        let col = ctx.upload_i32(&values, "v").unwrap();
        let bitmap = select(&ctx, &col, Pred::RangeI32 { col: 0, low: -1, high: 1 });
        let oids = materialize_bitmap(&ctx, &bitmap).unwrap();
        assert_eq!(oids.read(&ctx).unwrap(), vec![1, 2, 3]);
        let all = select(&ctx, &col, Pred::RangeI32 { col: 0, low: i32::MIN, high: i32::MAX });
        assert_eq!(selected_count(&ctx, &all).unwrap().get(&ctx).unwrap(), 7);
    }

    #[test]
    fn empty_and_no_match() {
        let ctx = OcelotContext::cpu();
        let empty = ctx.upload_i32(&[], "v").unwrap();
        let bitmap = select(&ctx, &empty, Pred::RangeI32 { col: 0, low: 0, high: 10 });
        assert_eq!(materialize_bitmap(&ctx, &bitmap).unwrap().len(&ctx).unwrap(), 0);

        let col = ctx.upload_i32(&[1, 2, 3], "v").unwrap();
        let none = select(&ctx, &col, Pred::RangeI32 { col: 0, low: 100, high: 200 });
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
        let bitmap = select(&ctx, &gathered, Pred::RangeI32 { col: 0, low: 100, high: 10_000 });
        assert_eq!(selected_count(&ctx, &bitmap).unwrap().get(&ctx).unwrap(), 2);
        let oids = materialize_bitmap(&ctx, &bitmap).unwrap();
        assert_eq!(oids.read(&ctx).unwrap(), vec![0, 2]);
    }
}
