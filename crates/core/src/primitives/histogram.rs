//! Work-group digit histograms: the counting half of a counting scatter —
//! a radix-sort pass, a radix partitioning (paper §4.1.3, after Satish et
//! al. and Merrill & Grimshaw).
//!
//! A launch of `tables` work-groups cuts the rows into `tables` consecutive
//! stretches ([`WorkGroupCtx::chunk_bounds`]). [`HistogramKernel`] has every
//! group count the digits of its stretch into its own row of a group-major
//! table, `counts[group × digits + digit]` — a tier-2 write to a range no
//! other group touches. The scatter that follows runs under the same launch:
//! each group replays the same stretch in order and starts a digit behind
//! the rows the groups before it hold of that digit ([`sum_rows`]), so the
//! output is the stable partition by digit whatever `tables` is — on every
//! device and pool size, bit for bit.
//!
//! `tables` is `ops::aggregate::partial_tables_for(rows, digits)`, the rule
//! every private partial table follows: at least 1024 rows a table, at most
//! 64 tables. The table is `digits × tables` words — at most a quarter of a
//! word per row, 256 words for a short input — and never a function of the
//! device's work-item count.

use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, WorkGroupCtx,
};
use std::ops::Range;

/// Most digit values a histogram row may hold: one radix-sort byte, which
/// is also the widest partitioning pass. The sort's radix and the partition
/// bound are defined from this constant.
pub(crate) const MAX_DIGITS: usize = 256;

/// Counts, per work-group, how many keys of the group's stretch have each
/// digit (module docs).
pub(crate) struct HistogramKernel<D> {
    pub name: &'static str,
    pub keys: Buffer,
    pub counts: Buffer,
    /// Digit values, `≤ MAX_DIGITS`: the length of a table row.
    pub digits: usize,
    /// The digit of a key word, `< digits`.
    pub digit: D,
}

impl<D: Fn(u32) -> usize + Send + Sync> Kernel for HistogramKernel<D> {
    fn name(&self) -> &str {
        self.name
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let (start, end) = group.chunk_bounds(group.n());
        let mut local = [0u32; MAX_DIGITS];
        for &key in &self.keys.as_words()[start..end] {
            let digit = (self.digit)(key);
            debug_assert!(digit < self.digits, "digit {digit} of {} digits", self.digits);
            local[digit] += 1;
        }
        let base = group.group_id() * self.digits;
        // SAFETY: row `group_id` of the table is this range and no other
        // work-group's.
        let row = unsafe { self.counts.chunk_mut(base, base + self.digits) };
        row.copy_from_slice(&local[..self.digits]);
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new(
            (launch.n as u64) * 4,
            (launch.num_groups * self.digits) as u64 * 4,
            launch.n as u64,
            0,
        )
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.keys, 0..launch.n),
            BufferAccess::slice_write(&self.counts, 0..launch.num_groups * self.digits),
        ]))
    }
}

/// Per digit, the rows the work-groups `groups` hold of it: the sum of their
/// rows of the count table. Over `0..group` that is where `group` starts
/// writing inside each digit's output.
pub(crate) fn sum_rows(counts: &[u32], digits: usize, groups: Range<usize>) -> [u32; MAX_DIGITS] {
    let mut sums = [0u32; MAX_DIGITS];
    for row in counts[groups.start * digits..groups.end * digits].chunks_exact(digits) {
        for (sum, count) in sums.iter_mut().zip(row) {
            *sum += count;
        }
    }
    sums
}
