//! Device buffers — the `cl_mem` analogue.
//!
//! A [`Buffer`] is a flat array of 32-bit words. The paper restricts Ocelot
//! to four-byte integer and floating point data (§3.1), so a single word
//! type with typed accessors (`i32`, `f32`, `u32`/OID) covers everything the
//! operators need.
//!
//! # The two-tier access contract
//!
//! Storage is a flat array of [`AtomicU32`] cells, and access comes in two
//! tiers that mirror how real OpenCL kernels address global memory:
//!
//! * **Tier 1 — atomic cells** ([`Buffer::cell`], [`Buffer::cells`],
//!   [`Buffer::chunk_cells`], and the per-element `get_*`/`set_*`
//!   accessors). Always legal, from any number of work-items concurrently.
//!   This tier is *mandatory* whenever two work-items may touch the same
//!   word within one kernel phase: the hash-table build (CAS inserts) and
//!   any other scattered write whose targets are not provably disjoint.
//!
//! * **Tier 2 — bulk slice views** ([`Buffer::as_words`], [`Buffer::chunk`],
//!   the unsafe [`Buffer::words_mut`] / [`Buffer::chunk_mut`], and the
//!   memcpy-backed bulk operations `fill_u32` / `copy_from_*` / `to_vec_*` /
//!   `prefix_*`). These exploit `AtomicU32`'s guaranteed layout
//!   compatibility with `u32` to hand out plain slices, which removes the
//!   per-element atomic-cell and bounds-check overhead from streaming inner
//!   loops and lets the compiler vectorise them. They are legal **only**
//!   under the runtime's phase invariant: within one kernel phase,
//!   work-items access disjoint index ranges, and phases that write a range
//!   are separated from phases that read it by a barrier (work-items of a
//!   group are serialised) or by event ordering on the [`crate::Queue`].
//!   Concretely: a *read* view (`as_words`, `chunk`) must not overlap any
//!   concurrent writer; a *mut* view (`words_mut`, `chunk_mut`) must not
//!   overlap any other concurrent access at all. Taking a view in a phase
//!   that honours the invariant is sound; violating the invariant is a data
//!   race (undefined behaviour), which is exactly the rule OpenCL itself
//!   imposes on non-atomic global-memory access.
//!
//! Both tiers address the *same* cells coherently: a relaxed atomic store is
//! visible to a later slice read of the same word (and vice versa) once the
//! phases are ordered, so CAS-built structures can be streamed out through
//! tier 2 afterwards.
//!
//! Buffers are charged against the owning device's [`MemAccountant`] and
//! release their bytes when dropped, which is what allows the Memory Manager
//! in `ocelot-core` to free device memory by evicting cache entries.

use crate::device::MemAccountant;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

struct BufferInner {
    id: u64,
    label: String,
    data: Box<[AtomicU32]>,
    accountant: Option<Arc<MemAccountant>>,
}

impl Drop for BufferInner {
    fn drop(&mut self) {
        if let Some(acc) = &self.accountant {
            acc.release(self.data.len() * 4);
        }
    }
}

/// A shared handle to a device buffer of 32-bit words.
///
/// Cloning the handle is cheap; the underlying storage is dropped (and the
/// device memory released) when the last handle goes away.
#[derive(Clone)]
pub struct Buffer {
    inner: Arc<BufferInner>,
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Buffer")
            .field("id", &self.inner.id)
            .field("label", &self.inner.label)
            .field("len", &self.inner.data.len())
            .finish()
    }
}

impl Buffer {
    pub(crate) fn new(
        id: u64,
        words: usize,
        label: &str,
        accountant: Option<Arc<MemAccountant>>,
    ) -> Buffer {
        // Allocate through `vec![0u32; _]` so large buffers come from the
        // allocator's zeroed pages (calloc) instead of a store loop over
        // every cell — result-buffer allocation is on the critical path of
        // every operator.
        let zeroed: Box<[u32]> = vec![0u32; words].into_boxed_slice();
        // SAFETY: `AtomicU32` has the same in-memory representation as
        // `u32`, so transmuting the (uniquely owned) allocation is sound.
        let data: Box<[AtomicU32]> =
            unsafe { Box::from_raw(Box::into_raw(zeroed) as *mut [AtomicU32]) };
        Buffer { inner: Arc::new(BufferInner { id, label: label.to_string(), data, accountant }) }
    }

    /// Creates a buffer that is not charged against any device (useful for
    /// tests and host-side scratch space).
    pub fn host_scratch(words: usize, label: &str) -> Buffer {
        Buffer::new(0, words, label, None)
    }

    /// Unique id of this buffer on its device.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Human-readable label given at allocation time.
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Number of 32-bit words in the buffer.
    pub fn len(&self) -> usize {
        self.inner.data.len()
    }

    /// Whether the buffer holds zero words.
    pub fn is_empty(&self) -> bool {
        self.inner.data.is_empty()
    }

    /// Size of the buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.len() * 4
    }

    /// Number of live handles to this buffer (used by the Memory Manager's
    /// reference-counting eviction guard, paper §3.3).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    // ---- tier 1: atomic cells ----

    /// Direct access to the atomic cell at `idx` (for CAS/fetch-add kernels).
    #[inline]
    pub fn cell(&self, idx: usize) -> &AtomicU32 {
        &self.inner.data[idx]
    }

    /// The whole buffer as a slice of atomic cells. Use this in kernels that
    /// scatter: indexing the slice costs one bounds check but no handle
    /// dereference per element, and relaxed stores through it are always
    /// sound.
    #[inline]
    pub fn cells(&self) -> &[AtomicU32] {
        &self.inner.data
    }

    /// The atomic cells of `start..end` (for scattered access restricted to
    /// a known sub-range).
    #[inline]
    pub fn chunk_cells(&self, start: usize, end: usize) -> &[AtomicU32] {
        &self.inner.data[start..end]
    }

    /// Raw word load.
    #[inline]
    pub fn get_u32(&self, idx: usize) -> u32 {
        self.inner.data[idx].load(Ordering::Relaxed)
    }

    /// Raw word store.
    #[inline]
    pub fn set_u32(&self, idx: usize, value: u32) {
        self.inner.data[idx].store(value, Ordering::Relaxed);
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

    /// Floating-point load (bit reinterpretation of the stored word).
    #[inline]
    pub fn get_f32(&self, idx: usize) -> f32 {
        f32::from_bits(self.get_u32(idx))
    }

    /// Floating-point store.
    #[inline]
    pub fn set_f32(&self, idx: usize, value: f32) {
        self.set_u32(idx, value.to_bits());
    }

    // ---- tier 2: bulk slice views ----

    /// The whole buffer as a plain word slice.
    ///
    /// Legal only in phases where no work-item concurrently *writes* any
    /// part of the buffer (see the module-level two-tier contract). This is
    /// the fast path for streaming reads: no per-element atomic loads, no
    /// per-element bounds checks, and the compiler may vectorise loops over
    /// the returned slice.
    #[inline]
    pub fn as_words(&self) -> &[u32] {
        let data = &self.inner.data;
        // SAFETY: `AtomicU32` is guaranteed to have the same in-memory
        // representation (size and alignment) as `u32`. The returned shared
        // slice only makes the caller promise what the module contract
        // already states: no concurrent writers to the viewed words.
        unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u32>(), data.len()) }
    }

    /// The words of `start..end` as a plain slice — the per-work-item view
    /// for streaming reads. Same contract as [`Buffer::as_words`], but scoped
    /// to the chunk a work-item owns.
    #[inline]
    pub fn chunk(&self, start: usize, end: usize) -> &[u32] {
        &self.as_words()[start..end]
    }

    /// The whole buffer as a mutable word slice.
    ///
    /// # Safety
    /// The caller must guarantee that for the lifetime of the returned
    /// slice *no other access* to this buffer happens — no other slice
    /// views, no atomic cells, no clone of the handle used elsewhere. Within
    /// a kernel this holds exactly when the phase invariant assigns the
    /// whole buffer to the calling work-item; host-side it holds during
    /// single-owner setup (upload, fill) before the buffer is shared.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn words_mut(&self) -> &mut [u32] {
        let data = &self.inner.data;
        std::slice::from_raw_parts_mut(data.as_ptr() as *mut u32, data.len())
    }

    /// The words of `start..end` as a mutable slice — the per-work-item view
    /// for streaming writes.
    ///
    /// # Safety
    /// The caller must guarantee that for the lifetime of the returned slice
    /// no other access touches `start..end`: this is the runtime's phase
    /// invariant (work-items own disjoint ranges within a phase). Distinct
    /// work-items taking `chunk_mut` of *disjoint* ranges concurrently is
    /// sound; overlap of any kind is a data race.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn chunk_mut(&self, start: usize, end: usize) -> &mut [u32] {
        let cells = &self.inner.data[start..end];
        std::slice::from_raw_parts_mut(cells.as_ptr() as *mut u32, cells.len())
    }

    // ---- memcpy-backed bulk operations (tier 2, single-owner phases) ----

    /// Fills every word of the buffer with `value`.
    ///
    /// Bulk write: legal only while no other thread accesses the buffer
    /// (setup/reset phases — the usual callers are allocation and upload).
    pub fn fill_u32(&self, value: u32) {
        // SAFETY: single-owner bulk phase per the documented contract.
        unsafe { self.words_mut() }.fill(value);
    }

    /// Copies `values` into the first `values.len()` words of the buffer
    /// (single memcpy instead of per-element atomic stores).
    ///
    /// # Panics
    /// Panics if the buffer is shorter than `values`.
    pub fn copy_from_u32(&self, values: &[u32]) {
        assert!(values.len() <= self.len(), "copy_from_u32: buffer too small");
        // SAFETY: single-owner bulk phase per the documented contract.
        unsafe { self.chunk_mut(0, values.len()) }.copy_from_slice(values);
    }

    /// Copies `values` into the buffer.
    ///
    /// # Panics
    /// Panics if the buffer is shorter than `values`.
    pub fn copy_from_i32(&self, values: &[i32]) {
        assert!(values.len() <= self.len(), "copy_from_i32: buffer too small");
        let out = unsafe { self.chunk_mut(0, values.len()) };
        // i32 and u32 words are layout-identical; this compiles to a memcpy.
        for (o, v) in out.iter_mut().zip(values) {
            *o = *v as u32;
        }
    }

    /// Copies `values` into the buffer as floats.
    ///
    /// # Panics
    /// Panics if the buffer is shorter than `values`.
    pub fn copy_from_f32(&self, values: &[f32]) {
        assert!(values.len() <= self.len(), "copy_from_f32: buffer too small");
        let out = unsafe { self.chunk_mut(0, values.len()) };
        for (o, v) in out.iter_mut().zip(values) {
            *o = v.to_bits();
        }
    }

    /// Reads the whole buffer into a `Vec<i32>`.
    pub fn to_vec_i32(&self) -> Vec<i32> {
        self.as_words().iter().map(|&w| w as i32).collect()
    }

    /// Reads the whole buffer into a `Vec<f32>`.
    pub fn to_vec_f32(&self) -> Vec<f32> {
        self.as_words().iter().map(|&w| f32::from_bits(w)).collect()
    }

    /// Reads the whole buffer into a `Vec<u32>`.
    pub fn to_vec_u32(&self) -> Vec<u32> {
        self.as_words().to_vec()
    }

    /// Reads a prefix of the buffer into a `Vec<i32>`.
    pub fn prefix_i32(&self, count: usize) -> Vec<i32> {
        self.chunk(0, count.min(self.len())).iter().map(|&w| w as i32).collect()
    }

    /// Reads a prefix of the buffer into a `Vec<f32>`.
    pub fn prefix_f32(&self, count: usize) -> Vec<f32> {
        self.chunk(0, count.min(self.len())).iter().map(|&w| f32::from_bits(w)).collect()
    }

    /// Reads a prefix of the buffer into a `Vec<u32>`.
    pub fn prefix_u32(&self, count: usize) -> Vec<u32> {
        self.chunk(0, count.min(self.len())).to_vec()
    }

    /// Snapshots the buffer contents into a host-side copy that is *not*
    /// charged against any device. The Memory Manager uses this to offload
    /// intermediate results to the host when device memory runs out
    /// (paper §3.3).
    pub fn offload_to_host(&self) -> HostCopy {
        HostCopy { label: self.inner.label.clone(), words: self.to_vec_u32() }
    }
}

/// A host-resident snapshot of a buffer's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostCopy {
    label: String,
    words: Vec<u32>,
}

impl HostCopy {
    /// Creates a host copy from raw words.
    pub fn from_words(label: &str, words: Vec<u32>) -> HostCopy {
        HostCopy { label: label.to_string(), words }
    }

    /// The label the originating buffer carried.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of 32-bit words held.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the copy holds zero words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Size in bytes.
    pub fn bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// The raw words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Restores the snapshot into an already-allocated device buffer.
    ///
    /// # Panics
    /// Panics if the target buffer is smaller than the snapshot.
    pub fn restore_into(&self, target: &Buffer) {
        assert!(target.len() >= self.words.len(), "restore_into: target buffer too small");
        target.copy_from_u32(&self.words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn typed_accessors_round_trip() {
        let buf = Buffer::host_scratch(4, "t");
        buf.set_i32(0, -42);
        buf.set_f32(1, 3.5);
        buf.set_u32(2, u32::MAX);
        assert_eq!(buf.get_i32(0), -42);
        assert_eq!(buf.get_f32(1), 3.5);
        assert_eq!(buf.get_u32(2), u32::MAX);
        assert_eq!(buf.get_u32(3), 0, "buffers start zeroed");
    }

    #[test]
    fn fill_and_vectors() {
        let buf = Buffer::host_scratch(3, "t");
        buf.fill_u32(7);
        assert_eq!(buf.to_vec_u32(), vec![7, 7, 7]);
        buf.copy_from_i32(&[1, -2, 3]);
        assert_eq!(buf.to_vec_i32(), vec![1, -2, 3]);
        assert_eq!(buf.prefix_i32(2), vec![1, -2]);
        assert_eq!(buf.prefix_i32(100), vec![1, -2, 3], "prefix clamps to len");
    }

    #[test]
    fn bytes_and_len() {
        let buf = Buffer::host_scratch(10, "t");
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.bytes(), 40);
        assert!(!buf.is_empty());
        assert!(Buffer::host_scratch(0, "e").is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn copy_too_large_panics() {
        let buf = Buffer::host_scratch(1, "t");
        buf.copy_from_i32(&[1, 2]);
    }

    #[test]
    fn offload_and_restore() {
        let buf = Buffer::host_scratch(4, "data");
        buf.copy_from_i32(&[10, 20, 30, 40]);
        let copy = buf.offload_to_host();
        assert_eq!(copy.len(), 4);
        assert_eq!(copy.bytes(), 16);
        assert_eq!(copy.label(), "data");

        let restored = Buffer::host_scratch(4, "data");
        copy.restore_into(&restored);
        assert_eq!(restored.to_vec_i32(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn handle_count_tracks_clones() {
        let buf = Buffer::host_scratch(1, "t");
        assert_eq!(buf.handle_count(), 1);
        let clone = buf.clone();
        assert_eq!(buf.handle_count(), 2);
        drop(clone);
        assert_eq!(buf.handle_count(), 1);
    }

    // ---- two-tier access API ----

    #[test]
    fn bulk_views_round_trip() {
        let buf = Buffer::host_scratch(100, "t");
        let values: Vec<u32> = (0..100).map(|i| i * 3 + 1).collect();
        buf.copy_from_u32(&values);
        assert_eq!(buf.as_words(), &values[..]);
        assert_eq!(buf.chunk(10, 20), &values[10..20]);
        assert_eq!(buf.prefix_u32(5), values[..5].to_vec());
        assert_eq!(buf.to_vec_u32(), values);
    }

    #[test]
    fn chunk_mut_writes_are_visible_to_every_tier() {
        let buf = Buffer::host_scratch(8, "t");
        // SAFETY: exclusive single-threaded access in this test.
        let slice = unsafe { buf.chunk_mut(2, 6) };
        slice.copy_from_slice(&[9, 8, 7, 6]);
        // Atomic tier observes the slice writes.
        assert_eq!(buf.get_u32(2), 9);
        assert_eq!(buf.cell(5).load(Ordering::Relaxed), 6);
        // And the read view observes both.
        assert_eq!(buf.as_words(), &[0, 0, 9, 8, 7, 6, 0, 0]);
    }

    #[test]
    fn atomic_writes_are_visible_to_slice_views() {
        let buf = Buffer::host_scratch(4, "t");
        buf.cell(1).store(11, Ordering::Relaxed);
        buf.cell(3).fetch_add(5, Ordering::Relaxed);
        assert_eq!(buf.as_words(), &[0, 11, 0, 5]);
        assert_eq!(buf.chunk(1, 4), &[11, 0, 5]);
    }

    #[test]
    fn chunk_cells_expose_the_same_storage() {
        let buf = Buffer::host_scratch(6, "t");
        let cells = buf.chunk_cells(2, 5);
        assert_eq!(cells.len(), 3);
        cells[0].store(42, Ordering::Relaxed);
        assert_eq!(buf.get_u32(2), 42);
    }

    #[test]
    #[should_panic(expected = "range end index")]
    fn chunk_bounds_are_checked() {
        let buf = Buffer::host_scratch(4, "t");
        let _ = buf.chunk(0, 5);
    }

    #[test]
    fn concurrent_cas_inserts_still_work_against_viewed_cells() {
        // Hash-table-style CAS inserts from many threads into one buffer:
        // tier 1 must keep its full atomicity guarantees regardless of the
        // existence of tier-2 views taken in other (here: later) phases.
        const SLOTS: usize = 512;
        const THREADS: usize = 8;
        const PER_THREAD: usize = 32;
        let buf = Buffer::host_scratch(SLOTS, "hash");
        buf.fill_u32(u32::MAX); // u32::MAX = empty slot
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let buf = buf.clone();
                scope.spawn(move || {
                    let cells = buf.cells();
                    for k in 0..PER_THREAD {
                        let key = (t * PER_THREAD + k) as u32;
                        // Linear probing with CAS, exactly like the
                        // optimistic hash-table build kernel.
                        let mut slot = (key as usize * 37) % SLOTS;
                        loop {
                            match cells[slot].compare_exchange(
                                u32::MAX,
                                key,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            ) {
                                Ok(_) => break,
                                Err(_) => slot = (slot + 1) % SLOTS,
                            }
                        }
                    }
                });
            }
        });
        // Read phase (after the build phase): the slice view must observe
        // every CAS-inserted key exactly once.
        let mut inserted: Vec<u32> =
            buf.as_words().iter().copied().filter(|w| *w != u32::MAX).collect();
        inserted.sort_unstable();
        let expected: Vec<u32> = (0..(THREADS * PER_THREAD) as u32).collect();
        assert_eq!(inserted, expected);
    }

    #[test]
    fn disjoint_chunk_mut_and_atomic_writers_coexist() {
        // One thread streams through a mut slice view of the lower half
        // while another does atomic stores into the upper half — the phase
        // invariant in miniature. Both writes must land.
        const N: usize = 4096;
        let buf = Buffer::host_scratch(N, "t");
        std::thread::scope(|scope| {
            let lower = buf.clone();
            scope.spawn(move || {
                // SAFETY: this thread exclusively owns words 0..N/2.
                let out = unsafe { lower.chunk_mut(0, N / 2) };
                for (i, word) in out.iter_mut().enumerate() {
                    *word = i as u32;
                }
            });
            let upper = buf.clone();
            scope.spawn(move || {
                for i in N / 2..N {
                    upper.set_u32(i, i as u32);
                }
            });
        });
        let words = buf.as_words();
        assert!((0..N).all(|i| words[i] == i as u32));
    }
}
