//! The kernel programming model: kernels, work-groups, work-items and local
//! memory.
//!
//! A [`Kernel`] in this runtime is invoked once per *work-group*. Inside
//! [`Kernel::run_group`] the kernel iterates over its work-items with
//! [`WorkGroupCtx::items`]; the items are executed sequentially by the thread
//! that owns the group, which is exactly how OpenCL CPU drivers serialize
//! work-items. Consequently a `barrier()` between two item loops is a
//! no-op — the first loop has fully finished before the second starts — and
//! kernels express their barrier-separated phases simply as consecutive
//! `for item in group.items()` loops.
//!
//! Each work-item owns a share of the logical input `0..n` (`⌈n /
//! total_items⌉` elements, paper §4.2, [`WorkItem::assigned`]). How the
//! shares are laid out is the *driver's* decision, injected through
//! [`AccessPattern`]: contiguous chunks on CPUs (cache/prefetcher friendly)
//! or a strided interleaving on GPUs (coalescing friendly), where item `l`
//! of a group touches the word next to item `l − 1`'s. A GPU runs a group's
//! items in **lock-step**, one round at a time, so a strided group reads
//! one contiguous run of `group_size` words per round; the emulation walks
//! the group's rows in the same order. Operator code writes
//! `for run in group.runs(n)` — one run under the contiguous pattern, one
//! per round under the strided one, each a slice — and stays
//! hardware-oblivious.

use crate::device::AccessPattern;
use crate::scheduling::LaunchConfig;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Cost declaration used by the simulated GPU's performance model.
///
/// Kernels may override [`Kernel::cost`] to describe how many bytes they
/// stream and how many atomic operations they issue; the default assumes a
/// simple read-transform-write streaming kernel over `n` four-byte values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCost {
    /// Bytes read from global memory.
    pub bytes_read: u64,
    /// Bytes written to global memory.
    pub bytes_written: u64,
    /// Scalar arithmetic/compare operations executed.
    pub scalar_ops: u64,
    /// Atomic operations on global or local memory.
    pub atomic_ops: u64,
}

impl KernelCost {
    /// A streaming kernel that reads and writes `n` four-byte elements.
    pub fn streaming(n: usize) -> KernelCost {
        KernelCost {
            bytes_read: (n as u64) * 4,
            bytes_written: (n as u64) * 4,
            scalar_ops: n as u64,
            atomic_ops: 0,
        }
    }

    /// An explicitly specified cost.
    pub fn new(bytes_read: u64, bytes_written: u64, scalar_ops: u64, atomic_ops: u64) -> Self {
        KernelCost { bytes_read, bytes_written, scalar_ops, atomic_ops }
    }

    /// Total bytes moved through global memory.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// A data-parallel kernel, the unit of work scheduled on a [`crate::Queue`].
pub trait Kernel: Send + Sync {
    /// Short name used in profiles and error messages.
    fn name(&self) -> &str;

    /// Executes one work-group. Called once per group id in `0..num_groups`,
    /// potentially concurrently from different threads.
    fn run_group(&self, group: &mut WorkGroupCtx);

    /// Cost hint for the simulated GPU's performance model.
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::streaming(launch.n)
    }

    /// Declared buffer access sets for the device-phase race detector
    /// (see [`crate::race`]). `None` — the default — means the kernel does
    /// not declare its accesses and the detector skips it conservatively.
    /// Kernels that use tier-2 slice views should override this with the
    /// buffer word ranges they read and write under the given launch.
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<crate::race::KernelAccesses> {
        let _ = launch;
        None
    }
}

/// Work-group local memory: a small arena of 32-bit atomic cells shared by
/// the items of one work-group (the OpenCL `__local` address space).
pub struct LocalMem {
    words: Box<[AtomicU32]>,
}

impl LocalMem {
    /// Allocates `words` zeroed local-memory cells.
    pub fn new(words: usize) -> LocalMem {
        LocalMem { words: (0..words).map(|_| AtomicU32::new(0)).collect() }
    }

    /// Number of 32-bit words available.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Direct access to an atomic cell (for local atomics).
    #[inline]
    pub fn cell(&self, idx: usize) -> &AtomicU32 {
        &self.words[idx]
    }

    /// Raw word load.
    #[inline]
    pub fn get_u32(&self, idx: usize) -> u32 {
        self.words[idx].load(Ordering::Relaxed)
    }

    /// Raw word store.
    #[inline]
    pub fn set_u32(&self, idx: usize, value: u32) {
        self.words[idx].store(value, Ordering::Relaxed);
    }

    /// Signed-integer load.
    #[inline]
    pub fn get_i32(&self, idx: usize) -> i32 {
        self.get_u32(idx) as i32
    }

    /// Signed-integer store.
    #[inline]
    pub fn set_i32(&self, idx: usize, value: i32) {
        self.set_u32(idx, value as u32);
    }

    /// Floating-point load.
    #[inline]
    pub fn get_f32(&self, idx: usize) -> f32 {
        f32::from_bits(self.get_u32(idx))
    }

    /// Floating-point store.
    #[inline]
    pub fn set_f32(&self, idx: usize, value: f32) {
        self.set_u32(idx, value.to_bits());
    }

    /// Fills the whole arena with `value`.
    pub fn fill_u32(&self, value: u32) {
        for cell in self.words.iter() {
            cell.store(value, Ordering::Relaxed);
        }
    }
}

/// Per-work-group execution context handed to [`Kernel::run_group`].
pub struct WorkGroupCtx {
    group_id: usize,
    num_groups: usize,
    group_size: usize,
    n: usize,
    access: AccessPattern,
    local: LocalMem,
}

impl WorkGroupCtx {
    /// Builds the context for one group of the given launch.
    pub fn new(group_id: usize, launch: &LaunchConfig) -> WorkGroupCtx {
        WorkGroupCtx {
            group_id,
            num_groups: launch.num_groups,
            group_size: launch.group_size,
            n: launch.n,
            access: launch.access,
            local: LocalMem::new(launch.local_mem_words),
        }
    }

    /// This group's id in `0..num_groups`.
    pub fn group_id(&self) -> usize {
        self.group_id
    }

    /// Total number of work-groups in the launch.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Number of work-items in this group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Total number of work-items across all groups.
    pub fn total_items(&self) -> usize {
        self.num_groups * self.group_size
    }

    /// Logical problem size of the launch.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The group's local memory arena.
    pub fn local(&self) -> &LocalMem {
        &self.local
    }

    /// Work-group barrier. Work-items are serialized within a group, so two
    /// consecutive [`WorkGroupCtx::items`] loops are already separated by a
    /// full barrier; this method exists to keep kernel code structurally
    /// close to its OpenCL counterpart.
    pub fn barrier(&self) {}

    /// The one contiguous stretch `(start, end)` of `0..elements` that this
    /// group's items' [`WorkItem::chunk_bounds`] add up to — for kernels whose
    /// unit of work is the work-group (a private table per group, one ordered
    /// walk over its rows), whatever the group size.
    pub fn chunk_bounds(&self, elements: usize) -> (usize, usize) {
        let chunk = elements.div_ceil(self.total_items().max(1)) * self.group_size;
        ((self.group_id * chunk).min(elements), ((self.group_id + 1) * chunk).min(elements))
    }

    /// The rows of `0..rows` this group's items own ([`WorkItem::assigned`]),
    /// as the contiguous runs a lock-step group visits them in. Contiguous
    /// pattern: one run, [`WorkGroupCtx::chunk_bounds`]. Strided pattern: run
    /// `r` is `r·T + g·S .. r·T + g·S + S` (clipped to `rows`), with `T`
    /// the launch's work-items, `g` the group id and `S` the group size —
    /// round `r`, in which item `l` owns the row at offset `l`. Kernels pass
    /// the resolved row count, which may be less than the launch's `n`.
    pub fn runs(&self, rows: usize) -> impl Iterator<Item = Range<usize>> {
        let (first, len, step) = match self.access {
            AccessPattern::Contiguous => {
                let (start, end) = self.chunk_bounds(rows);
                (start, end - start, rows)
            }
            AccessPattern::Strided => {
                (self.group_id * self.group_size, self.group_size, self.total_items())
            }
        };
        (first..rows).step_by(step.max(1)).map(move |start| start..(start + len).min(rows))
    }

    /// Iterates over the work-items of this group.
    pub fn items(&self) -> impl Iterator<Item = WorkItem> + '_ {
        let group_id = self.group_id;
        let group_size = self.group_size;
        let total_items = self.total_items();
        let n = self.n;
        let access = self.access;
        (0..group_size).map(move |local_id| WorkItem {
            local_id,
            global_id: group_id * group_size + local_id,
            total_items,
            n,
            access,
        })
    }
}

/// A single work-item (one logical kernel invocation).
#[derive(Debug, Clone, Copy)]
pub struct WorkItem {
    /// Index of the item within its work-group.
    pub local_id: usize,
    /// Globally unique invocation id (`get_global_id(0)` in OpenCL).
    pub global_id: usize,
    total_items: usize,
    n: usize,
    access: AccessPattern,
}

impl WorkItem {
    /// Total number of work-items in the launch.
    pub fn total_items(&self) -> usize {
        self.total_items
    }

    /// Logical problem size of the launch.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The global element indices this work-item is responsible for, laid
    /// out according to the driver's preferred access pattern — the
    /// per-item definition of what [`WorkGroupCtx::runs`] walks group-wide.
    pub fn assigned(&self) -> AssignedIndices {
        match self.access {
            AccessPattern::Contiguous => {
                let chunk =
                    if self.total_items == 0 { 0 } else { self.n.div_ceil(self.total_items) };
                let start = (self.global_id * chunk).min(self.n);
                let end = ((self.global_id + 1) * chunk).min(self.n);
                AssignedIndices::Contiguous(start..end)
            }
            AccessPattern::Strided => AssignedIndices::Strided {
                next: self.global_id,
                stride: self.total_items.max(1),
                n: self.n,
            },
        }
    }

    /// The contiguous chunk bounds `(start, end)` this item would get under
    /// the contiguous pattern — useful for kernels that need per-item output
    /// regions regardless of the read pattern (e.g. the selection bitmap
    /// kernel writes one byte per eight input values).
    pub fn chunk_bounds(&self, elements: usize) -> (usize, usize) {
        let chunk = if self.total_items == 0 { 0 } else { elements.div_ceil(self.total_items) };
        let start = (self.global_id * chunk).min(elements);
        let end = ((self.global_id + 1) * chunk).min(elements);
        (start, end)
    }
}

/// Iterator over the element indices assigned to a work-item.
#[derive(Debug, Clone)]
pub enum AssignedIndices {
    /// Contiguous chunk (CPU pattern).
    Contiguous(Range<usize>),
    /// Strided interleaving (GPU / coalesced pattern).
    Strided {
        /// Next index to yield.
        next: usize,
        /// Distance between consecutive indices (total number of work-items).
        stride: usize,
        /// Exclusive upper bound.
        n: usize,
    },
}

impl Iterator for AssignedIndices {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            AssignedIndices::Contiguous(range) => range.next(),
            AssignedIndices::Strided { next, stride, n } => {
                if *next < *n {
                    let idx = *next;
                    *next += *stride;
                    Some(idx)
                } else {
                    None
                }
            }
        }
    }
}

/// Runs a range of work-groups of a launch on the calling thread. Drivers
/// partition the group range across their threads and call this for each
/// partition.
pub fn run_group_range(kernel: &dyn Kernel, launch: &LaunchConfig, groups: Range<usize>) {
    for group_id in groups {
        let mut ctx = WorkGroupCtx::new(group_id, launch);
        kernel.run_group(&mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn coverage(launch: &LaunchConfig) -> Vec<usize> {
        let mut all = Vec::new();
        for g in 0..launch.num_groups {
            let ctx = WorkGroupCtx::new(g, launch);
            for item in ctx.items() {
                all.extend(item.assigned());
            }
        }
        all
    }

    #[test]
    fn contiguous_pattern_covers_every_index_once() {
        for n in [0usize, 1, 7, 100, 1000, 1023] {
            let launch = LaunchConfig::new(4, 4, n, AccessPattern::Contiguous);
            let all = coverage(&launch);
            assert_eq!(all.len(), n, "n={n}");
            let unique: HashSet<_> = all.iter().copied().collect();
            assert_eq!(unique.len(), n);
            assert!(all.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn strided_pattern_covers_every_index_once() {
        for n in [0usize, 1, 7, 100, 1000, 1023] {
            let launch = LaunchConfig::new(4, 4, n, AccessPattern::Strided);
            let all = coverage(&launch);
            assert_eq!(all.len(), n, "n={n}");
            let unique: HashSet<_> = all.iter().copied().collect();
            assert_eq!(unique.len(), n);
        }
    }

    #[test]
    fn strided_neighbouring_items_access_neighbouring_indices() {
        let launch = LaunchConfig::new(1, 4, 16, AccessPattern::Strided);
        let ctx = WorkGroupCtx::new(0, &launch);
        let firsts: Vec<usize> = ctx.items().map(|item| item.assigned().next().unwrap()).collect();
        assert_eq!(firsts, vec![0, 1, 2, 3], "coalesced: item i starts at index i");
    }

    #[test]
    fn contiguous_items_walk_disjoint_chunks() {
        let launch = LaunchConfig::new(1, 4, 16, AccessPattern::Contiguous);
        let ctx = WorkGroupCtx::new(0, &launch);
        let ranges: Vec<Vec<usize>> = ctx.items().map(|item| item.assigned().collect()).collect();
        assert_eq!(ranges[0], vec![0, 1, 2, 3]);
        assert_eq!(ranges[3], vec![12, 13, 14, 15]);
    }

    #[test]
    fn runs_walk_exactly_the_groups_rows_in_round_order() {
        for (groups, size) in [(1, 1), (1, 4), (3, 1), (2, 3), (4, 4), (7, 192)] {
            let total = groups * size;
            let row_counts = [0, 1, size - 1, size, size + 1, total - 1, total, total + 1];
            for rows in row_counts.into_iter().chain([10 * total + 3]) {
                for access in [AccessPattern::Contiguous, AccessPattern::Strided] {
                    let launch = LaunchConfig::new(groups, size, rows, access);
                    for g in 0..groups {
                        let at = format!("{groups}x{size}, {rows} rows, {access:?}, group {g}");
                        let ctx = WorkGroupCtx::new(g, &launch);
                        let runs: Vec<Range<usize>> = ctx.runs(rows).collect();
                        let items: Vec<Vec<usize>> =
                            ctx.items().map(|item| item.assigned().collect()).collect();
                        assert!(runs.iter().all(|run| !run.is_empty()), "{at}: {runs:?}");
                        // Exactly the rows the group's items own, each once.
                        let walked: Vec<usize> = runs.iter().cloned().flatten().collect();
                        let mut owned = items.concat();
                        owned.sort_unstable();
                        assert_eq!(walked, owned, "{at}");
                        match access {
                            AccessPattern::Contiguous => {
                                let (start, end) = ctx.chunk_bounds(rows);
                                assert!(
                                    runs.len() <= 1 && walked == (start..end).collect::<Vec<_>>()
                                );
                            }
                            // Run r is round r: item l's r-th row at offset l.
                            AccessPattern::Strided => {
                                for (round, run) in runs.iter().enumerate() {
                                    for (local, row) in run.clone().enumerate() {
                                        assert_eq!(items[local][round], row, "{at}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn global_ids_are_unique_across_groups() {
        let launch = LaunchConfig::new(3, 5, 100, AccessPattern::Contiguous);
        let mut ids = HashSet::new();
        for g in 0..launch.num_groups {
            let ctx = WorkGroupCtx::new(g, &launch);
            for item in ctx.items() {
                assert!(ids.insert(item.global_id));
            }
        }
        assert_eq!(ids.len(), 15);
    }

    #[test]
    fn local_memory_is_zeroed_and_typed() {
        let local = LocalMem::new(8);
        assert_eq!(local.len(), 8);
        assert_eq!(local.get_u32(3), 0);
        local.set_f32(0, 2.5);
        local.set_i32(1, -9);
        assert_eq!(local.get_f32(0), 2.5);
        assert_eq!(local.get_i32(1), -9);
        local.fill_u32(1);
        assert_eq!(local.get_u32(7), 1);
    }

    #[test]
    fn chunk_bounds_cover_custom_element_count() {
        let launch = LaunchConfig::new(2, 2, 100, AccessPattern::Strided);
        let mut covered = Vec::new();
        for g in 0..2 {
            let ctx = WorkGroupCtx::new(g, &launch);
            let from = covered.len();
            for item in ctx.items() {
                let (s, e) = item.chunk_bounds(13);
                covered.extend(s..e);
            }
            // The group's bounds are the stretch its items' chunks add up to.
            let (s, e) = ctx.chunk_bounds(13);
            assert_eq!(covered[from..], (s..e).collect::<Vec<_>>());
        }
        covered.sort_unstable();
        assert_eq!(covered, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn kernel_cost_defaults() {
        let cost = KernelCost::streaming(100);
        assert_eq!(cost.bytes_read, 400);
        assert_eq!(cost.bytes_written, 400);
        assert_eq!(cost.bytes_total(), 800);
        assert_eq!(cost.atomic_ops, 0);
    }
}
