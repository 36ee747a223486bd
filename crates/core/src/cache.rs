//! The device column cache: lazily uploaded, budgeted, evictable base
//! columns shared by every session on a device (paper §3.3, §4.3).
//!
//! This is the paper's BAT registry ("when a BAT is requested, the
//! corresponding buffer object is returned from this registry"), and the
//! only one: a standalone, `Arc`-shared [`ColumnCache`] — one per
//! [`crate::SharedDevice`] — that every [`OcelotContext`] binds through.
//! Session contexts of one device share it, so a query stream re-running
//! the same queries in fresh sessions performs zero base-column re-uploads,
//! and device memory pressure has a single, device-wide pool of resident
//! columns to evict from. A stand-alone context (`OcelotContext::cpu()`
//! and friends) is the only context of a fresh device handle and so owns a
//! private cache under the same contract.
//!
//! # Lifecycle contract
//!
//! Every base column a query binds is in exactly one of three states:
//!
//! * **Resident** — uploaded, unpinned, evictable. A resident entry serves
//!   hits without any transfer; its second-chance bit is set on every hit.
//! * **Pinned** — resident *and* referenced by at least one live
//!   [`Pinned`] guard. [`ColumnCache::get_or_upload`] returns a guard with
//!   every hit or upload; the guard is wired into the deferred-value layer
//!   (a [`DevColumn`] produced by [`ColumnCache::column_for_bat`] carries
//!   it), so a column stays pinned exactly as long as some plan register or
//!   operator handle can still reach it — "for the duration of the flush".
//!   Pinned entries are never evicted. Dropping the last guard (clone)
//!   returns the entry to *resident*; buffers still referenced by pending
//!   queue operations additionally fail the idle check
//!   (`handle_count() == 1`) until the owning queue flushes.
//! * **Evicted** — dropped from the cache under memory pressure (the
//!   cache's own byte budget at admission time, or the context's reclaim
//!   pass during the OOM-restart protocol below). The next bind is a miss
//!   and re-uploads.
//!
//! Eviction runs a **second-chance (clock) sweep**: victims must be
//! unpinned and idle; entries whose referenced bit is set get the bit
//! cleared and one more round before they are taken, so a hot working set
//! survives a burst of cold binds. With every bit cleared the policy
//! degrades to LRU-like FIFO order.
//!
//! # The OOM-restart protocol
//!
//! Cached columns are deliberately **not** evicted by the Memory Manager's
//! inline per-allocation eviction chain, which only releases idle pooled
//! buffers — re-uploading a base column is the most expensive memory to win
//! back, and a node that is *currently executing* may be about to bind the
//! very column a greedy inline pass would drop. Instead, when an allocation
//! still fails after inline eviction, the failure *returns* to the plan
//! layer
//! (`ocelot_engine::plan::PlanRun`) as an ordinary
//! `KernelError::OutOfDeviceMemory` — through every operator's `Result`
//! and across the `Backend` trait as `PlanError::Device`: the register
//! machine drops the failed node's partial outputs, asks the backend to
//! **release** (flush the queue so finished intermediates become idle) and
//! **evict** (`OcelotContext::reclaim_device_memory`, a full reclaim pass
//! that *does* sweep this cache), and then **restarts the failed node**
//! from scratch — the paper's operator-restart discipline. Columns
//! pinned by the plan's own live registers survive the sweep, so a restart
//! never invalidates data the retried node is about to read.

use crate::context::{DevColumn, DevWord, OcelotContext};
use ocelot_kernel::{Buffer, Result};
use ocelot_storage::BatRef;
use ocelot_trace::{MetricsRegistry, TraceEventKind, TraceHandle};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache observability counters (the analogue of
/// [`crate::MemoryStats`] for the shared column cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Binds served from a resident entry — no transfer.
    pub hits: u64,
    /// Binds that uploaded (first use, or use after eviction).
    pub misses: u64,
    /// Entries dropped under memory pressure.
    pub evictions: u64,
    /// Bytes uploaded host → device for cached columns (discrete devices
    /// only; unified-memory uploads are zero-copy).
    pub bytes_uploaded: u64,
}

impl CacheStats {
    /// Projects these counters into a [`MetricsRegistry`] under
    /// `<prefix>.hits`, `<prefix>.misses`, `<prefix>.evictions` and
    /// `<prefix>.bytes_uploaded`.
    pub fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_counter(&format!("{prefix}.hits"), self.hits);
        registry.set_counter(&format!("{prefix}.misses"), self.misses);
        registry.set_counter(&format!("{prefix}.evictions"), self.evictions);
        registry.set_counter(&format!("{prefix}.bytes_uploaded"), self.bytes_uploaded);
    }
}

struct Entry {
    key: usize,
    /// Admission generation: distinguishes this entry from earlier or
    /// later entries under the same key (the key is an allocation address
    /// and can be re-admitted after `invalidate`, or even reused by a new
    /// BAT once the old one is freed). Pin guards match on
    /// `(key, generation)`, so a stale guard from a removed entry can
    /// never unpin its successor.
    generation: u64,
    buffer: Buffer,
    /// Keeps the BAT alive while cached: the key is its allocation address,
    /// so dropping the last reference could let a later BAT alias the slot.
    #[allow(dead_code)]
    bat: BatRef,
    /// Live [`Pinned`] guards. `> 0` exempts the entry from eviction.
    pins: usize,
    /// Second-chance bit, set on every hit.
    referenced: bool,
}

#[derive(Default)]
struct CacheState {
    /// Entries in admission order; the clock hand sweeps this ring.
    entries: Vec<Entry>,
    hand: usize,
    next_generation: u64,
    stats: CacheStats,
}

/// The shared device column cache (see module docs for the full contract).
pub struct ColumnCache {
    state: Arc<Mutex<CacheState>>,
    budget: AtomicUsize,
    trace: TraceHandle,
}

impl Default for ColumnCache {
    fn default() -> ColumnCache {
        ColumnCache::new()
    }
}

/// Stable cache key for a BAT: the address of its shared allocation.
fn bat_key(bat: &BatRef) -> usize {
    Arc::as_ptr(bat) as usize
}

/// A refcounted pin on a cached column. While any clone is alive the entry
/// cannot be evicted; dropping the last clone returns it to *resident*.
#[derive(Clone)]
pub struct Pinned(Arc<PinGuard>);

struct PinGuard {
    state: Arc<Mutex<CacheState>>,
    key: usize,
    generation: u64,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut state = self.state.lock();
        if let Some(entry) =
            state.entries.iter_mut().find(|e| e.key == self.key && e.generation == self.generation)
        {
            entry.pins = entry.pins.saturating_sub(1);
        }
    }
}

impl std::fmt::Debug for Pinned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pinned").field("key", &self.0.key).finish()
    }
}

impl ColumnCache {
    /// An unbounded cache (entries are still evictable under reclaim).
    pub fn new() -> ColumnCache {
        ColumnCache::with_budget(usize::MAX)
    }

    /// A cache whose resident bytes are capped at `budget_bytes`: admitting
    /// a column evicts unpinned entries until the new total fits. Pinned
    /// entries may transiently push the cache over budget — correctness
    /// (never evict what a running plan reads) wins over the cap.
    pub fn with_budget(budget_bytes: usize) -> ColumnCache {
        ColumnCache {
            state: Arc::new(Mutex::new(CacheState::default())),
            budget: AtomicUsize::new(budget_bytes),
            trace: TraceHandle::new(),
        }
    }

    /// The cache's trace attachment point: with a sink attached, every bind
    /// emits a [`TraceEventKind::CacheBind`] (tagged hit or miss) and every
    /// eviction a [`TraceEventKind::CacheEvict`].
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Adjusts the resident-byte budget (applies from the next admission).
    pub fn set_budget(&self, budget_bytes: usize) {
        self.budget.store(budget_bytes, Ordering::Relaxed);
    }

    /// The resident-byte budget.
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    /// Number of resident columns.
    pub fn resident_entries(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Bytes of device memory held by resident columns.
    pub fn resident_bytes(&self) -> usize {
        self.state.lock().entries.iter().map(|e| e.buffer.bytes()).sum()
    }

    /// Number of currently pinned columns.
    pub fn pinned_entries(&self) -> usize {
        self.state.lock().entries.iter().filter(|e| e.pins > 0).count()
    }

    /// Returns the device buffer for a base column plus a [`Pinned`] guard,
    /// uploading on first use. The upload is scheduled on the *requesting*
    /// context's queue (lazy — no flush), its transfer charged there once;
    /// later hits from any session perform no transfer at all.
    pub fn get_or_upload(&self, ctx: &OcelotContext, bat: &BatRef) -> Result<(Buffer, Pinned)> {
        let key = bat_key(bat);
        {
            let mut state = self.state.lock();
            if let Some(entry) = state.entries.iter_mut().find(|e| e.key == key) {
                entry.referenced = true;
                entry.pins += 1;
                let (buffer, generation) = (entry.buffer.clone(), entry.generation);
                state.stats.hits += 1;
                drop(state);
                self.trace
                    .emit(|| TraceEventKind::CacheBind { hit: true, bytes: buffer.bytes() as u64 });
                return Ok((buffer, self.pin(key, generation)));
            }
        }
        // Miss. Make room under our own byte budget first, then allocate
        // through the Memory Manager (inline eviction; a residual OOM
        // surfaces to the caller — the plan layer's restart protocol).
        let words = bat.to_words();
        let bytes = words.len() * 4;
        {
            let mut state = self.state.lock();
            let budget = self.budget();
            while Self::resident_bytes_locked(&state) + bytes > budget {
                match Self::evict_one_locked(&mut state) {
                    Some(evicted) => {
                        self.trace.emit(|| TraceEventKind::CacheEvict { bytes: evicted })
                    }
                    None => break,
                }
            }
        }
        let buffer = ctx.memory().alloc_exact(words.len().max(1), bat.name())?;
        buffer.copy_from_u32(&words);
        let event = ctx.queue().enqueue_write_prefix(&buffer, words.len(), &[])?;
        ctx.memory().record_producer(&buffer, event);
        let mut state = self.state.lock();
        // Another session may have admitted the same column while we
        // uploaded; keep the winner, drop our copy.
        if let Some(entry) = state.entries.iter_mut().find(|e| e.key == key) {
            entry.referenced = true;
            entry.pins += 1;
            let (winner, generation) = (entry.buffer.clone(), entry.generation);
            state.stats.hits += 1;
            drop(state);
            self.trace.emit(|| TraceEventKind::CacheBind { hit: true, bytes: bytes as u64 });
            return Ok((winner, self.pin(key, generation)));
        }
        state.stats.misses += 1;
        if !ctx.device().is_unified() {
            state.stats.bytes_uploaded += bytes as u64;
        }
        // Admitted with the referenced bit *clear*: a second chance is
        // earned by a re-reference, so a one-shot cold scan cannot push the
        // warm working set out (scan resistance; the pin protects the entry
        // while the admitting plan still runs).
        let generation = state.next_generation;
        state.next_generation += 1;
        state.entries.push(Entry {
            key,
            generation,
            buffer: buffer.clone(),
            bat: bat.clone(),
            pins: 1,
            referenced: false,
        });
        drop(state);
        self.trace.emit(|| TraceEventKind::CacheBind { hit: false, bytes: bytes as u64 });
        Ok((buffer, self.pin(key, generation)))
    }

    /// [`ColumnCache::get_or_upload`] wrapped as a typed deferred column
    /// that carries its pin — the bind path of the Ocelot backend. The
    /// column stays pinned until the last clone (plan register, operator
    /// handle) is dropped.
    pub fn column_for_bat<T: DevWord>(
        &self,
        ctx: &OcelotContext,
        bat: &BatRef,
    ) -> Result<DevColumn<T>> {
        let (buffer, pin) = self.get_or_upload(ctx, bat)?;
        Ok(DevColumn::new(buffer, bat.len())?.with_pin(pin))
    }

    fn pin(&self, key: usize, generation: u64) -> Pinned {
        Pinned(Arc::new(PinGuard { state: Arc::clone(&self.state), key, generation }))
    }

    fn resident_bytes_locked(state: &CacheState) -> usize {
        state.entries.iter().map(|e| e.buffer.bytes()).sum()
    }

    /// One second-chance sweep: unpinned, idle entries are taken; entries
    /// with the referenced bit get it cleared and one more round. Returns
    /// the victim's byte size, or `None` when nothing was evictable.
    fn evict_one_locked(state: &mut CacheState) -> Option<u64> {
        if state.entries.is_empty() {
            return None;
        }
        // Two full revolutions: the first may only clear referenced bits,
        // the second then takes the first eligible victim.
        for _ in 0..state.entries.len() * 2 {
            let index = state.hand % state.entries.len();
            let entry = &mut state.entries[index];
            let evictable = entry.pins == 0 && entry.buffer.handle_count() <= 1;
            if evictable && !entry.referenced {
                let bytes = entry.buffer.bytes() as u64;
                state.entries.remove(index);
                // The hand now points at the element after the victim.
                state.stats.evictions += 1;
                return Some(bytes);
            }
            if evictable {
                entry.referenced = false;
            }
            state.hand = state.hand.wrapping_add(1);
        }
        None
    }

    /// Evicts one unpinned, idle column (second-chance order).
    pub fn evict_one(&self) -> bool {
        match Self::evict_one_locked(&mut self.state.lock()) {
            Some(bytes) => {
                self.trace.emit(|| TraceEventKind::CacheEvict { bytes });
                true
            }
            None => false,
        }
    }

    /// Evicts every unpinned, idle column; returns how many were dropped.
    /// The cache's half of the context's reclaim pass.
    pub fn evict_unpinned(&self) -> usize {
        let mut dropped = 0;
        while self.evict_one() {
            dropped += 1;
        }
        dropped
    }

    /// Drops the entry of a deleted/replaced BAT (the callback MonetDB
    /// invokes when a BAT is deleted or recycled, paper §4.3).
    pub fn invalidate(&self, bat: &BatRef) {
        let key = bat_key(bat);
        self.state.lock().entries.retain(|e| e.key != key);
    }

    /// Whether a BAT is currently resident.
    pub fn contains(&self, bat: &BatRef) -> bool {
        let key = bat_key(bat);
        self.state.lock().entries.iter().any(|e| e.key == key)
    }

    /// Drops **every** entry, pinned or not — the device-loss invalidation
    /// path. When the backing device is lost its memory is gone, so
    /// residency would be a lie and even pinned entries are stale; the
    /// failed plan's live [`Pinned`] guards become inert (they match on
    /// `(key, generation)` and find nothing to unpin). Returns how many
    /// entries were dropped. Counted as evictions in [`CacheStats`].
    pub fn purge_lost_device(&self) -> usize {
        let mut state = self.state.lock();
        let dropped = state.entries.len();
        state.entries.clear();
        state.hand = 0;
        state.stats.evictions += dropped as u64;
        dropped
    }
}

impl std::fmt::Debug for ColumnCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("ColumnCache")
            .field("entries", &state.entries.len())
            .field("stats", &state.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;
    use ocelot_kernel::GpuConfig;
    use ocelot_storage::Bat;

    fn gpu_ctx() -> OcelotContext {
        OcelotContext::gpu_with(GpuConfig::default())
    }

    fn bat(n: usize, name: &str) -> BatRef {
        Bat::from_i32(name, (0..n as i32).collect()).into_ref()
    }

    #[test]
    fn second_use_is_a_hit_with_no_new_upload() {
        // On a discrete device only the first bind transfers; on unified
        // memory the upload is zero-copy and counts no bytes at all.
        let unified = OcelotContext::with_device(ocelot_kernel::Device::cpu_multicore_with(2));
        for (ctx, uploaded) in [(gpu_ctx(), 400), (unified, 0)] {
            let cache = ColumnCache::new();
            let b = bat(100, "a");
            let (first, pin1) = cache.get_or_upload(&ctx, &b).unwrap();
            let (second, pin2) = cache.get_or_upload(&ctx, &b).unwrap();
            assert_eq!(first.id(), second.id());
            let stats = cache.stats();
            assert_eq!((stats.misses, stats.hits), (1, 1));
            assert_eq!(stats.bytes_uploaded, uploaded);
            assert_eq!(cache.pinned_entries(), 1);
            drop((pin1, pin2));
            assert_eq!(cache.pinned_entries(), 0, "dropping every guard unpins");
            ctx.sync().unwrap();
            assert_eq!(first.prefix_i32(100), (0..100).collect::<Vec<i32>>());
        }
    }

    #[test]
    fn hits_across_contexts_transfer_nothing() {
        let shared = crate::SharedDevice::gpu_with(GpuConfig::default());
        let b = bat(2_000, "warm");
        let a_ctx = shared.context();
        drop(shared.cache().get_or_upload(&a_ctx, &b).unwrap());
        a_ctx.sync().unwrap();
        let b_ctx = shared.context();
        let before = b_ctx.queue().total_stats().bytes_to_device;
        let (buffer, _pin) = shared.cache().get_or_upload(&b_ctx, &b).unwrap();
        assert_eq!(b_ctx.queue().total_stats().bytes_to_device, before);
        assert_eq!(buffer.len(), 2_000);
        assert_eq!(shared.cache().stats().hits, 1);
    }

    #[test]
    fn budget_evicts_unpinned_in_second_chance_order() {
        let ctx = gpu_ctx();
        // Budget fits two 100-word columns, not three.
        let cache = ColumnCache::with_budget(800);
        let (a, b, c) = (bat(100, "a"), bat(100, "b"), bat(100, "c"));
        drop(cache.get_or_upload(&ctx, &a).unwrap());
        drop(cache.get_or_upload(&ctx, &b).unwrap());
        ctx.sync().unwrap(); // pending uploads keep entries busy until here
                             // Re-reference `a` so the sweep prefers `b` once bits are cleared.
        drop(cache.get_or_upload(&ctx, &a).unwrap());
        drop(cache.get_or_upload(&ctx, &c).unwrap());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.contains(&a), "recently referenced column survives");
        assert!(!cache.contains(&b), "cold column is the victim");
        assert!(cache.contains(&c));
    }

    #[test]
    fn pinned_columns_are_never_evicted() {
        let ctx = gpu_ctx();
        let cache = ColumnCache::with_budget(800);
        let (a, b, c) = (bat(100, "a"), bat(100, "b"), bat(100, "c"));
        let (_, pin_a) = cache.get_or_upload(&ctx, &a).unwrap();
        drop(cache.get_or_upload(&ctx, &b).unwrap());
        ctx.sync().unwrap();
        drop(cache.get_or_upload(&ctx, &c).unwrap());
        assert!(cache.contains(&a), "pinned column survives pressure");
        assert!(!cache.contains(&b));
        assert_eq!(cache.evict_unpinned(), 0, "c is busy (pending upload), a is pinned");
        ctx.sync().unwrap();
        assert_eq!(cache.evict_unpinned(), 1, "after the flush only c is reclaimable");
        drop(pin_a);
        assert_eq!(cache.evict_unpinned(), 1);
        assert_eq!(cache.resident_entries(), 0);
    }

    #[test]
    fn columns_held_by_pending_ops_fail_the_idle_check() {
        let ctx = gpu_ctx();
        let cache = ColumnCache::new();
        let b = bat(100, "busy");
        drop(cache.get_or_upload(&ctx, &b).unwrap());
        // The upload is still pending on the queue: handle_count > 1.
        assert!(!cache.evict_one());
        ctx.sync().unwrap();
        assert!(cache.evict_one());
    }

    #[test]
    fn column_for_bat_pins_through_the_deferred_layer() {
        let ctx = gpu_ctx();
        let cache = ColumnCache::new();
        let b = bat(50, "col");
        let col: DevColumn<i32> = cache.column_for_bat(&ctx, &b).unwrap();
        let clone = col.clone();
        assert_eq!(cache.pinned_entries(), 1);
        drop(col);
        assert_eq!(cache.pinned_entries(), 1, "clones share the pin");
        assert_eq!(clone.read(&ctx).unwrap()[49], 49);
        drop(clone);
        assert_eq!(cache.pinned_entries(), 0);
    }

    #[test]
    fn stale_pins_cannot_unpin_a_readmitted_entry() {
        // A guard from a previous life of the key (removed by invalidate,
        // then re-admitted) must not decrement the new entry's pin count:
        // guards match on (key, generation), not just the key.
        let ctx = gpu_ctx();
        let cache = ColumnCache::new();
        let b = bat(10, "twice");
        let (_, stale_pin) = cache.get_or_upload(&ctx, &b).unwrap();
        cache.invalidate(&b);
        let (_, fresh_pin) = cache.get_or_upload(&ctx, &b).unwrap();
        assert_eq!(cache.pinned_entries(), 1);
        drop(stale_pin);
        assert_eq!(cache.pinned_entries(), 1, "stale guard must not unpin the new entry");
        ctx.sync().unwrap();
        assert!(!cache.evict_one(), "still pinned by the fresh guard");
        drop(fresh_pin);
        assert!(cache.evict_one());
    }

    #[test]
    fn invalidate_drops_the_entry() {
        let ctx = gpu_ctx();
        let cache = ColumnCache::new();
        let b = bat(10, "gone");
        drop(cache.get_or_upload(&ctx, &b).unwrap());
        cache.invalidate(&b);
        assert!(!cache.contains(&b));
        drop(cache.get_or_upload(&ctx, &b).unwrap());
        assert_eq!(cache.stats().misses, 2);
    }
}
