//! Bitmaps — Ocelot's internal representation of selection results
//! (paper §4.1.1).
//!
//! Encoding selection results as bitmaps has two advantages the paper
//! exploits: the result size is independent of the selectivity (Figure 5b),
//! and a conjunction of predicates is one bitmap — its conjuncts combined
//! word by word inside a single selection launch (`ops::rowexpr`). Bitmaps
//! never appear in the BAT interface; they are materialised into OID lists
//! only when a MonetDB-side operator needs them
//! (`ops::select::materialize_bitmap`).
//!
//! Layout: one `u32` word per 32 input rows, bit `i % 32` of word `i / 32`
//! set iff row `i` qualifies.
//!
//! **Invariant:** bits beyond the logical row count are always zero — every
//! producer (the selection kernels, [`Bitmap::from_bools`]) guarantees it.
//! This is what lets popcounts and materialisations run over the full
//! capacity without knowing a deferred row count, keeping bitmap pipelines
//! sync-free.

use crate::context::{ColLen, DevColumn, DevScalar, OcelotContext};
use crate::primitives::reduce;
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result, WorkGroupCtx,
};
use std::sync::Arc;

/// A device-resident bitmap over `n` rows, where `n` may be host-known or
/// deferred (a device counter + capacity bound, like [`DevColumn`] lengths).
#[derive(Debug, Clone)]
pub struct Bitmap {
    /// Backing buffer (one word per 32 rows, zero-padded).
    pub buffer: Buffer,
    bits: ColLen,
}

impl Bitmap {
    /// Number of `u32` words needed to cover `n_bits` rows.
    pub fn words_for(n_bits: usize) -> usize {
        n_bits.div_ceil(32)
    }

    /// Allocates an all-zero bitmap for `n_bits` rows.
    pub fn zeroed(ctx: &OcelotContext, n_bits: usize) -> Result<Bitmap> {
        let buffer = ctx.alloc(Self::words_for(n_bits).max(1), "bitmap")?;
        Ok(Bitmap { buffer, bits: ColLen::Host(n_bits) })
    }

    /// Allocates a bitmap whose words are unspecified — for producers that
    /// overwrite every backing word (the selection kernels).
    pub fn for_overwrite(ctx: &OcelotContext, bits: ColLen) -> Result<Bitmap> {
        let buffer = ctx.alloc_uninit(Self::words_for(bits.cap()).max(1), "bitmap")?;
        Ok(Bitmap { buffer, bits })
    }

    /// Builds a bitmap from host booleans (test and host-integration helper).
    pub fn from_bools(ctx: &OcelotContext, bits: &[bool]) -> Result<Bitmap> {
        let bitmap = Self::zeroed(ctx, bits.len())?;
        for (i, bit) in bits.iter().enumerate() {
            if *bit {
                let word = bitmap.buffer.get_u32(i / 32);
                bitmap.buffer.set_u32(i / 32, word | (1 << (i % 32)));
            }
        }
        ctx.queue().enqueue_write(&bitmap.buffer, &[])?;
        Ok(bitmap)
    }

    /// Reads the bitmap back as host booleans. **Sync point** (host
    /// boundary helper for tests and debugging).
    pub fn to_bools(&self, ctx: &OcelotContext) -> Result<Vec<bool>> {
        let n = self.len(ctx)?;
        ctx.sync()?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let word = self.buffer.get_u32(i / 32);
            out.push(word & (1 << (i % 32)) != 0);
        }
        Ok(out)
    }

    /// The row-count descriptor.
    pub fn col_len(&self) -> &ColLen {
        &self.bits
    }

    /// Host-known upper bound on the row count (exact when not deferred).
    pub fn cap_bits(&self) -> usize {
        self.bits.cap()
    }

    /// Resolves the logical row count (**sync point** when deferred).
    pub fn len(&self, ctx: &OcelotContext) -> Result<usize> {
        self.bits.resolve(ctx)
    }

    /// Number of backing words (covers the capacity bound).
    pub fn words(&self) -> usize {
        Self::words_for(self.bits.cap())
    }
}

struct PopcountKernel {
    bitmap: Buffer,
    counts: Buffer,
    words: usize,
}

impl Kernel for PopcountKernel {
    fn name(&self) -> &str {
        "bitmap_popcount"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let bitmap = self.bitmap.as_words();
        let count: u32 =
            group.runs(self.words).flat_map(|run| &bitmap[run]).map(|w| w.count_ones()).sum();
        self.counts.set_u32(group.group_id(), count);
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 4, launch.num_groups as u64 * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.bitmap, 0..self.words),
            BufferAccess::cells_write(&self.counts, 0..launch.num_groups),
        ]))
    }
}

/// Counts the set bits of a bitmap (the selection's result cardinality) as a
/// deferred [`DevScalar`]. Never flushes: per-work-group popcounts are
/// reduced by a second kernel, and the total stays device-resident until
/// `.get()`.
pub fn count_ones(ctx: &OcelotContext, bitmap: &Bitmap) -> Result<DevScalar<u32>> {
    let words = bitmap.words();
    if words == 0 {
        return DevScalar::constant(ctx, 0u32);
    }
    let launch = ctx.launch(words);
    let counts = ctx.alloc_uninit(launch.num_groups, "popcount_partials")?;
    let wait = ctx.memory().wait_for_read(&bitmap.buffer);
    let event = ctx.queue().enqueue_kernel(
        Arc::new(PopcountKernel { bitmap: bitmap.buffer.clone(), counts: counts.clone(), words }),
        launch.clone(),
        &wait,
    )?;
    ctx.memory().record_producer(&counts, event);
    let counts_col = DevColumn::<u32>::new(counts, launch.num_groups)?;
    reduce::sum_u32(ctx, &counts_col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;

    #[test]
    fn round_trip_bools() {
        let ctx = OcelotContext::cpu();
        let bits: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let bitmap = Bitmap::from_bools(&ctx, &bits).unwrap();
        assert_eq!(bitmap.to_bools(&ctx).unwrap(), bits);
        assert_eq!(bitmap.words(), 4);
        assert_eq!(Bitmap::words_for(0), 0);
        assert_eq!(Bitmap::words_for(32), 1);
        assert_eq!(Bitmap::words_for(33), 2);
    }

    #[test]
    fn popcount_on_all_devices() {
        let bits: Vec<bool> = (0..1_000).map(|i| (i * 7) % 11 < 4).collect();
        let expected = bits.iter().filter(|b| **b).count() as u32;
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let bitmap = Bitmap::from_bools(&ctx, &bits).unwrap();
            assert_eq!(count_ones(&ctx, &bitmap).unwrap().get(&ctx).unwrap(), expected);
        }
    }

    #[test]
    fn popcount_is_deferred() {
        let ctx = OcelotContext::cpu();
        let bits: Vec<bool> = (0..4_096).map(|i| i % 2 == 0).collect();
        let bitmap = Bitmap::from_bools(&ctx, &bits).unwrap();
        let flushes = ctx.queue().flush_count();
        let count = count_ones(&ctx, &bitmap).unwrap();
        assert_eq!(ctx.queue().flush_count(), flushes, "count_ones must not flush");
        assert_eq!(count.get(&ctx).unwrap(), 2_048);
    }

    #[test]
    fn empty_bitmap() {
        let ctx = OcelotContext::cpu();
        let bitmap = Bitmap::zeroed(&ctx, 0).unwrap();
        assert_eq!(count_ones(&ctx, &bitmap).unwrap().get(&ctx).unwrap(), 0);
        assert!(bitmap.to_bools(&ctx).unwrap().is_empty());
    }
}
