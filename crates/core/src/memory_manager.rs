//! The Memory Manager (paper §3.3).
//!
//! Operators never allocate device memory themselves, they request result
//! buffers here. How the paper's Memory Manager maps onto this crate:
//!
//! * **BAT registry / device cache, LRU eviction, pinning** — these live in
//!   the base-column cache, [`crate::cache::ColumnCache`]: lazy upload on
//!   first bind, second-chance eviction, pins carried by the column handles.
//!   Every [`crate::OcelotContext`] binds through exactly one of them; the
//!   Memory Manager keeps no registry of its own.
//! * **Budgeted allocation** — an allocation that does not fit the device or
//!   the configured budget flushes the queue and releases idle pooled
//!   buffers until it does; what still fails returns
//!   [`KernelError::OutOfDeviceMemory`] to the plan layer, whose restart
//!   protocol begins with [`MemoryManager::reclaim`].
//! * **Host offload** — intermediate result buffers can be offloaded to the
//!   host and restored later instead of being recomputed.
//! * **Producer events** — every buffer's pending writes are tracked so
//!   operators can build wait-lists for the lazy queue (paper §3.4).
//! * **Result-buffer recycling** — operators allocate a fresh result buffer
//!   per call; without pooling every large allocation is served by fresh
//!   zero pages whose page-in cost lands on the first kernel that touches
//!   them. Recycling is delegated to a [`BufferPool`] (power-of-two size
//!   classes, idle-when-`handle_count() == 1` reuse guard — see
//!   `crate::buffer_pool` for the full protocol). The pool is a standalone,
//!   `Arc`-shared object: managers created from the same
//!   [`crate::SharedDevice`] recycle buffers **across contexts**, so one
//!   query session's finished intermediates serve the next session's
//!   allocations.
//!
//! The paper's hash-table cache (§5.2.6) is not reproduced: no operator
//! reuses a table across queries.

use crate::buffer_pool::{recycle_class, BufferPool, MIN_POOLED_WORDS};
use ocelot_kernel::{Buffer, Device, EventId, HostCopy, KernelError, Queue, Result};
use ocelot_trace::{MetricsRegistry, TraceEventKind, TraceHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Offload and recycling statistics, used by the out-of-core accounting and
/// tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes of intermediates offloaded to the host.
    pub bytes_offloaded: u64,
    /// Result-buffer allocations served from the recycle pool (this
    /// manager's hits only; the shared pool's own [`BufferPool::stats`]
    /// additionally distinguishes cross-context hits).
    pub recycle_hits: u64,
}

impl MemoryStats {
    /// Projects these counters into a [`MetricsRegistry`] under
    /// `<prefix>.bytes_offloaded` and `<prefix>.recycle_hits`.
    pub fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_counter(&format!("{prefix}.bytes_offloaded"), self.bytes_offloaded);
        registry.set_counter(&format!("{prefix}.recycle_hits"), self.recycle_hits);
    }
}

struct State {
    stats: MemoryStats,
    /// Producer events per buffer id.
    events: HashMap<u64, Vec<EventId>>,
    offloaded: HashMap<u64, HostCopy>,
}

/// The Memory Manager. One instance per [`crate::OcelotContext`]; the
/// recycle pool it allocates through may be shared with other managers on
/// the same device (see [`MemoryManager::with_pool`]).
pub struct MemoryManager {
    device: Device,
    queue: Arc<Queue>,
    pool: Arc<BufferPool>,
    pool_client: u64,
    /// Hard cap on *device-wide* used bytes this manager will allocate up
    /// to (defaults to unlimited; the device's own capacity still applies).
    /// Checked against the shared accountant, so every session of a
    /// [`crate::SharedDevice`] given the same budget behaves like a small
    /// device even on unified-memory hardware.
    budget: AtomicUsize,
    state: Mutex<State>,
    trace: TraceHandle,
}

impl MemoryManager {
    /// Creates a Memory Manager with a private recycle pool.
    pub fn new(device: Device, queue: Arc<Queue>) -> MemoryManager {
        Self::with_pool(device, queue, Arc::new(BufferPool::new()))
    }

    /// Creates a Memory Manager that recycles result buffers through a
    /// shared [`BufferPool`] — the cross-context construction used by
    /// [`crate::SharedDevice`]. The pool must belong to the same device:
    /// pooled buffers are handed straight to kernels on this queue.
    pub fn with_pool(device: Device, queue: Arc<Queue>, pool: Arc<BufferPool>) -> MemoryManager {
        let pool_client = pool.register_client();
        MemoryManager {
            device,
            queue,
            pool,
            pool_client,
            budget: AtomicUsize::new(usize::MAX),
            state: Mutex::new(State {
                stats: MemoryStats::default(),
                events: HashMap::new(),
                offloaded: HashMap::new(),
            }),
            trace: TraceHandle::new(),
        }
    }

    /// The manager's trace attachment point: with a sink attached,
    /// intermediate offloads emit [`TraceEventKind::Spill`] and restores
    /// emit [`TraceEventKind::Unspill`] (see the `ocelot_trace` emission
    /// contract).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The (possibly shared) result-buffer recycle pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Caps allocations at `bytes` of device-wide used memory (see the
    /// `budget` field). Exceeding the cap behaves exactly like running out
    /// of physical device memory: inline eviction, then
    /// [`KernelError::OutOfDeviceMemory`].
    pub fn set_budget(&self, bytes: usize) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// The configured device-memory budget (`usize::MAX` = unlimited).
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Bytes still allocatable under both the device capacity and the
    /// configured budget.
    pub fn headroom(&self) -> usize {
        let used = self.device.memory().used();
        self.device.memory().available().min(self.budget().saturating_sub(used))
    }

    /// The **release** half of the OOM-restart protocol: flushes the queue
    /// (pending operations drop their buffer clones, so dead intermediates
    /// and the failed node's partial allocations become idle) and drains
    /// every idle pooled buffer. The pass is deliberately **aggressive** —
    /// everything releasable goes, not just what the failed allocation
    /// asked for: a restarted node re-runs its whole allocation sequence, so
    /// freeing minimally would ratchet through one restart per allocation
    /// and exhaust the restart limit before converging. Returns whether the
    /// pass made progress. `OcelotContext::reclaim_device_memory` follows
    /// it with a sweep of the context's column cache.
    pub fn reclaim(&self) -> bool {
        let had_pending = self.queue.pending_ops() > 0;
        let used_before = self.device.memory().used();
        let _ = self.queue.flush();
        while self.pool.release_one_idle() {}
        had_pending || self.device.memory().used() < used_before
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> MemoryStats {
        self.state.lock().stats
    }

    /// Allocates a result buffer, releasing idle pooled buffers until the
    /// allocation fits. Large requests are served from the recycle pool
    /// when an idle same-sized buffer is available (re-zeroed, so callers
    /// may rely on fresh result buffers reading as zero either way).
    pub fn alloc_result(&self, words: usize, label: &str) -> Result<Buffer> {
        let (buffer, recycled) = self.alloc_pooled(words, label)?;
        if recycled {
            // The bulk fill is sound: handle_count was 1 at pop time, so no
            // operator or pending queue op references the buffer.
            buffer.fill_u32(0);
        }
        Ok(buffer)
    }

    /// Like [`MemoryManager::alloc_result`], but the returned words are
    /// **unspecified** (possibly stale data from a recycled buffer) instead
    /// of zero. For operators that overwrite every word they later expose —
    /// scans, gathers, maps, sort shuffles — this skips a full zeroing pass
    /// over the buffer. Never hand the result to a consumer that reads
    /// words the producing kernel did not write.
    pub fn alloc_result_uninit(&self, words: usize, label: &str) -> Result<Buffer> {
        Ok(self.alloc_pooled(words, label)?.0)
    }

    /// Returns `(buffer, came_from_pool)`. Pooled requests are served and
    /// allocated at their power-of-two size class (see [`recycle_class`]).
    fn alloc_pooled(&self, words: usize, label: &str) -> Result<(Buffer, bool)> {
        if words < MIN_POOLED_WORDS {
            return Ok((self.alloc_with_eviction(words, label)?, false));
        }
        let class = recycle_class(words);
        if let Some(buffer) = self.pool.acquire(class, self.pool_client) {
            // Any event bookkeeping in *this* manager belongs to the
            // buffer's previous life here. A previous life in another
            // context left no entries in this manager, and that context's
            // entries are never consulted again (buffer ids are unique per
            // device), so they are merely unused.
            let mut state = self.state.lock();
            state.events.remove(&buffer.id());
            state.stats.recycle_hits += 1;
            return Ok((buffer, true));
        }
        let buffer = self.alloc_with_eviction(class, label)?;
        self.pool.admit(buffer.clone(), self.pool_client);
        Ok((buffer, false))
    }

    /// Exact-size allocation through the inline eviction chain, bypassing
    /// the recycle pool — the allocation path of the
    /// [`crate::cache::ColumnCache`] (cached columns must not be
    /// class-rounded or pool-retained).
    pub(crate) fn alloc_exact(&self, words: usize, label: &str) -> Result<Buffer> {
        self.alloc_with_eviction(words, label)
    }

    fn alloc_with_eviction(&self, words: usize, label: &str) -> Result<Buffer> {
        let bytes = words * 4;
        let mut retried_after_flush = false;
        loop {
            // A configured budget is enforced exactly like physical
            // capacity: over-budget requests take the eviction path. The
            // check-and-reserve is atomic in the shared accountant, so
            // concurrent sessions cannot jointly overshoot the budget.
            match self.device.alloc_capped(words, label, self.budget()) {
                Ok(buffer) => return Ok(buffer),
                Err(KernelError::OutOfDeviceMemory { .. }) => {
                    // Inline eviction: flush, so buffers held only by pending
                    // work become idle, then release one idle pooled buffer.
                    // Cached base columns are never touched here (see
                    // `crate::cache`).
                    self.queue.flush()?;
                    if self.pool.release_one_idle() {
                        retried_after_flush = false;
                    } else {
                        // No pool victim — but the flush may still have
                        // released non-pooled buffers held only by pending
                        // queue operations. Give the allocation one retry
                        // when room appeared.
                        if !retried_after_flush && self.headroom() >= bytes {
                            retried_after_flush = true;
                            continue;
                        }
                        return Err(KernelError::OutOfDeviceMemory {
                            requested: bytes,
                            available: self.headroom(),
                        });
                    }
                }
                Err(other) => return Err(other),
            }
        }
    }

    // ---- producer event tracking (paper §3.4) ----

    /// Entry count past which [`MemoryManager::record_producer`] prunes
    /// event bookkeeping for quiesced buffers (see below).
    const EVENTS_PRUNE_THRESHOLD: usize = 512;

    /// Drops event entries whose every recorded producer has completed.
    /// Such entries only ever contribute completed events to wait-lists
    /// (no-ops), so removing them is always sound. This bounds the `events`
    /// map on long-running sessions: without it, buffers that leave this
    /// manager's life through the *shared* pool — retired under the pool
    /// cap, or acquired by another context — would leave their entries
    /// behind forever (only a same-manager re-acquire removes them eagerly).
    fn prune_completed_events(state: &mut State, queue: &Queue) {
        let registry = queue.events();
        state
            .events
            .retain(|_, producers| producers.iter().any(|event| !registry.is_complete(*event)));
    }

    /// Records that `event` produces (writes) `buffer`.
    pub fn record_producer(&self, buffer: &Buffer, event: EventId) {
        let mut state = self.state.lock();
        if state.events.len() >= Self::EVENTS_PRUNE_THRESHOLD {
            Self::prune_completed_events(&mut state, &self.queue);
        }
        state.events.entry(buffer.id()).or_default().push(event);
    }

    /// Number of buffers with event bookkeeping (observability for the
    /// pruning regression test).
    pub fn tracked_event_entries(&self) -> usize {
        self.state.lock().events.len()
    }

    /// Wait-list for an operation that wants to *read* `buffer`: all of its
    /// producers.
    pub fn wait_for_read(&self, buffer: &Buffer) -> Vec<EventId> {
        self.state.lock().events.get(&buffer.id()).cloned().unwrap_or_default()
    }

    // ---- host offload of intermediates (paper §3.3) ----

    /// Offloads an intermediate buffer to host memory and frees its device
    /// allocation. Returns a token to restore it later.
    pub fn offload_intermediate(&self, buffer: Buffer) -> Result<u64> {
        // All pending producers must have executed before we snapshot.
        self.queue.flush()?;
        let id = buffer.id();
        let copy = buffer.offload_to_host();
        let bytes = copy.bytes() as u64;
        let mut state = self.state.lock();
        state.stats.bytes_offloaded += bytes;
        state.offloaded.insert(id, copy);
        drop(state);
        self.trace.emit(|| TraceEventKind::Spill { bytes });
        // Dropping the buffer releases its device memory.
        drop(buffer);
        Ok(id)
    }

    /// Restores a previously offloaded intermediate into a fresh device
    /// buffer (re-paying the transfer).
    pub fn restore_intermediate(&self, token: u64) -> Result<Buffer> {
        let copy = self
            .state
            .lock()
            .offloaded
            .remove(&token)
            .ok_or_else(|| KernelError::Internal(format!("unknown offload token {token}")))?;
        let bytes = copy.bytes() as u64;
        let buffer = self.alloc_with_eviction(copy.len(), copy.label())?;
        copy.restore_into(&buffer);
        let event = self.queue.enqueue_write(&buffer, &[])?;
        self.record_producer(&buffer, event);
        self.trace.emit(|| TraceEventKind::Unspill { bytes });
        Ok(buffer)
    }
}

impl std::fmt::Debug for MemoryManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryManager").field("stats", &self.state.lock().stats).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_kernel::GpuConfig;

    fn gpu_manager(mem_bytes: usize) -> (Device, Arc<Queue>, MemoryManager) {
        let device = Device::simulated_gpu(GpuConfig::default().with_global_mem(mem_bytes));
        let queue = Arc::new(device.create_queue());
        let mm = MemoryManager::new(device.clone(), Arc::clone(&queue));
        (device, queue, mm)
    }

    #[test]
    fn in_use_buffers_are_not_evicted() {
        // The held result buffer sits in the pool, but a live handle keeps
        // it from being idle: allocation pressure cannot release it.
        let (_, _, mm) = gpu_manager(10 * MIN_POOLED_WORDS);
        let held = mm.alloc_result(MIN_POOLED_WORDS, "held").unwrap();
        assert_eq!(mm.pool().retained_bytes(), MIN_POOLED_WORDS * 4);
        let err = mm.alloc_result(2 * MIN_POOLED_WORDS, "big").unwrap_err();
        assert!(matches!(err, KernelError::OutOfDeviceMemory { .. }));
        drop(held);
        assert!(mm.alloc_result(2 * MIN_POOLED_WORDS, "big").is_ok());
    }

    #[test]
    fn allocation_failure_when_nothing_to_evict() {
        let (_, _, mm) = gpu_manager(100);
        let err = mm.alloc_result(1000, "huge").unwrap_err();
        assert!(matches!(err, KernelError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn producer_consumer_wait_lists() {
        // A reader waits on every producer of the buffer, and only on them.
        let (device, queue, mm) = gpu_manager(1 << 20);
        let buffer = device.alloc(10, "x").unwrap();
        let other = device.alloc(10, "y").unwrap();
        assert!(mm.wait_for_read(&buffer).is_empty());
        let first = queue.enqueue_write(&buffer, &[]).unwrap();
        mm.record_producer(&buffer, first);
        let second = queue.enqueue_write(&buffer, &[first]).unwrap();
        mm.record_producer(&buffer, second);
        let elsewhere = queue.enqueue_write(&other, &[]).unwrap();
        mm.record_producer(&other, elsewhere);
        assert_eq!(mm.wait_for_read(&buffer), vec![first, second]);
        let read = queue.enqueue_read(&buffer, &mm.wait_for_read(&buffer)).unwrap();
        assert!(!mm.wait_for_read(&buffer).contains(&read), "a read is no producer");
        queue.flush().unwrap();
    }

    #[test]
    fn offload_and_restore_round_trip() {
        let (device, queue, mm) = gpu_manager(1 << 20);
        let buffer = device.alloc(4, "intermediate").unwrap();
        buffer.copy_from_i32(&[9, 8, 7, 6]);
        queue.enqueue_write(&buffer, &[]).unwrap();
        let used_before = device.memory().used();
        let token = mm.offload_intermediate(buffer).unwrap();
        assert!(device.memory().used() < used_before, "device memory was released");
        assert_eq!(mm.stats().bytes_offloaded, 16);
        let restored = mm.restore_intermediate(token).unwrap();
        queue.flush().unwrap();
        assert_eq!(restored.prefix_i32(4), vec![9, 8, 7, 6]);
        assert!(mm.restore_intermediate(token).is_err(), "token is single-use");
    }

    #[test]
    fn recycling_uses_power_of_two_size_classes() {
        let (_, _, mm) = gpu_manager(1 << 24);
        let first = mm.alloc_result(5_000, "a").unwrap();
        assert_eq!(first.len(), 8_192, "pooled allocations are class-sized");
        let id = first.id();
        drop(first);
        // A *different* request size in the same class is served from the
        // pool (exact-size matching would miss here).
        let second = mm.alloc_result(6_000, "b").unwrap();
        assert_eq!(second.id(), id);
        assert_eq!(mm.stats().recycle_hits, 1);
        assert!(second.as_words().iter().all(|w| *w == 0), "recycled buffers read as zero");
        // A request in a different class misses and allocates its own class.
        let third = mm.alloc_result(9_000, "c").unwrap();
        assert_eq!(third.len(), 16_384);
        assert_eq!(mm.stats().recycle_hits, 1);
    }

    #[test]
    fn size_class_pool_lifts_hit_rate_for_mixed_sizes() {
        let (_, _, mm) = gpu_manager(1 << 24);
        // Mixed result sizes that all round to the 8 192-word class — the
        // shape of a query stream with varying selectivities.
        for i in 0..20 {
            let words = 4_100 + i * 150;
            drop(mm.alloc_result(words, "mixed").unwrap());
        }
        let stats = mm.stats();
        assert!(
            stats.recycle_hits >= 19,
            "all but the first allocation should hit the pool: {stats:?}"
        );
    }

    #[test]
    fn small_allocations_bypass_the_pool() {
        let (_, _, mm) = gpu_manager(1 << 24);
        let small = mm.alloc_result(100, "s").unwrap();
        assert_eq!(small.len(), 100, "sub-threshold requests are not class-rounded");
        drop(small);
        drop(mm.alloc_result(100, "s2").unwrap());
        assert_eq!(mm.stats().recycle_hits, 0);
    }

    #[test]
    fn shared_pool_recycles_across_managers() {
        // Two managers (two contexts) on one device share one pool: a
        // buffer released by the first serves the second's allocation.
        let device = Device::simulated_gpu(GpuConfig::default());
        let pool = Arc::new(crate::buffer_pool::BufferPool::new());
        let queue_a = Arc::new(device.create_queue());
        let queue_b = Arc::new(device.create_queue());
        let a = MemoryManager::with_pool(device.clone(), Arc::clone(&queue_a), Arc::clone(&pool));
        let b = MemoryManager::with_pool(device, queue_b, pool);

        let first = a.alloc_result(5_000, "from_a").unwrap();
        let id = first.id();
        drop(first);
        let second = b.alloc_result(6_000, "from_b").unwrap();
        assert_eq!(second.id(), id, "same class: b reuses a's buffer");
        assert_eq!(b.stats().recycle_hits, 1);
        assert_eq!(a.stats().recycle_hits, 0);
        let pool_stats = b.pool().stats();
        assert_eq!(pool_stats.hits, 1);
        assert_eq!(pool_stats.cross_context_hits, 1, "reuse crossed contexts");
        assert!(second.as_words().iter().all(|w| *w == 0), "recycled buffers read as zero");
    }

    #[test]
    fn busy_buffers_are_not_recycled_across_managers() {
        // A buffer with a pending queue operation in context A must not be
        // handed to context B: the pending op's clone keeps it busy.
        let device = Device::simulated_gpu(GpuConfig::default());
        let pool = Arc::new(crate::buffer_pool::BufferPool::new());
        let queue_a = Arc::new(device.create_queue());
        let queue_b = Arc::new(device.create_queue());
        let a = MemoryManager::with_pool(device.clone(), Arc::clone(&queue_a), Arc::clone(&pool));
        let b = MemoryManager::with_pool(device, queue_b, pool);

        let buffer = a.alloc_result(5_000, "from_a").unwrap();
        let id = buffer.id();
        queue_a.enqueue_write(&buffer, &[]).unwrap();
        drop(buffer);
        // Still referenced by A's pending write: B allocates fresh.
        let fresh = b.alloc_result(5_000, "from_b").unwrap();
        assert_ne!(fresh.id(), id);
        assert_eq!(b.stats().recycle_hits, 0);
        // After A flushes, the buffer is idle and reusable.
        drop(fresh);
        queue_a.flush().unwrap();
        let ids: Vec<u64> = (0..2)
            .map(|_| {
                let buf = b.alloc_result(5_000, "later").unwrap();
                buf.id()
            })
            .collect();
        assert!(ids.contains(&id), "post-flush the donated buffer is reusable: {ids:?}");
    }

    #[test]
    fn event_bookkeeping_stays_bounded_under_pool_churn() {
        // Two managers alternate through one shared pool, so every reuse is
        // a *cross-context* acquire: the acquiring manager has no entry to
        // remove and the donor's entry would linger forever without the
        // completed-event pruning in `record_producer`.
        let device = Device::simulated_gpu(GpuConfig::default());
        let pool = Arc::new(crate::buffer_pool::BufferPool::new());
        let queues: Vec<Arc<Queue>> = (0..2).map(|_| Arc::new(device.create_queue())).collect();
        let managers: Vec<MemoryManager> = queues
            .iter()
            .map(|q| MemoryManager::with_pool(device.clone(), Arc::clone(q), Arc::clone(&pool)))
            .collect();
        for round in 0..2_000 {
            let who = round % 2;
            let buffer = managers[who].alloc_result(5_000, "churn").unwrap();
            let event = queues[who].enqueue_write(&buffer, &[]).unwrap();
            managers[who].record_producer(&buffer, event);
            queues[who].flush().unwrap();
        }
        for manager in &managers {
            assert!(
                manager.tracked_event_entries() <= MemoryManager::EVENTS_PRUNE_THRESHOLD,
                "events map must stay bounded, found {}",
                manager.tracked_event_entries()
            );
        }
    }
}
