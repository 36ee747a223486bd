//! A result-buffer recycle pool that can be **shared across contexts**.
//!
//! PR 2 taught the Memory Manager to recycle result buffers by power-of-two
//! size class; that pool lived inside one `MemoryManager`, so a second
//! context on the same device (another query session) could never reuse the
//! first one's buffers. This module lifts the pool out into a standalone,
//! `Arc`-shareable [`BufferPool`]: every context created from the same
//! [`crate::SharedDevice`] allocates through the same pool, so a query that
//! finishes donates its intermediates to whichever session allocates next.
//!
//! # Protocol
//!
//! The pool *retains* every class-sized allocation at allocation time and
//! hands out **clones**: a pooled buffer is reusable exactly when the pool's
//! handle is the only one left (`handle_count() == 1`), because operator
//! handles and pending queue operations all hold clones. Acquisition happens
//! under the pool lock, so two sessions racing for the same idle buffer
//! cannot both get it — the second one observes `handle_count() == 2` and
//! allocates (or reuses another entry) instead.
//!
//! Cross-context safety of the *contents* follows from the same invariant:
//! a buffer only becomes idle once every pending queue operation that
//! references it has executed (the in-order queues drop their clones at
//! flush), so an acquiring session never observes half-written words from
//! the donating session.
//!
//! Each [`MemoryManager`](crate::memory_manager::MemoryManager) registers as
//! a *client* and passes its client id on acquisition; the pool counts hits
//! where the previous owner was a different client as
//! [`PoolStats::cross_context_hits`] — the observability hook behind the
//! cross-session reuse regression tests.

use ocelot_kernel::Buffer;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Statistics of a (possibly shared) buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from the pool.
    pub hits: u64,
    /// Subset of `hits` where the buffer's previous owner was a *different*
    /// client (another context/session) — cross-context reuse.
    pub cross_context_hits: u64,
    /// Pool-eligible acquisitions that found no idle buffer of the class.
    pub misses: u64,
}

impl PoolStats {
    /// Projects these counters into a
    /// [`ocelot_trace::MetricsRegistry`] under `<prefix>.hits`,
    /// `<prefix>.cross_context_hits` and `<prefix>.misses`.
    pub fn register_metrics(&self, prefix: &str, registry: &mut ocelot_trace::MetricsRegistry) {
        registry.set_counter(&format!("{prefix}.hits"), self.hits);
        registry.set_counter(&format!("{prefix}.cross_context_hits"), self.cross_context_hits);
        registry.set_counter(&format!("{prefix}.misses"), self.misses);
    }
}

/// Result buffers below this size are not pooled: small allocations are
/// cheap for the system allocator, and pooling them would churn the pool.
pub const MIN_POOLED_WORDS: usize = 1 << 12;

/// The size class a pooled request is rounded up to: the next power of two.
/// At most 2x overallocation buys cross-size reuse (a 5 000-word column and
/// a 6 000-word column share the 8 192-word class). Callers see the class
/// size through `Buffer::len()`; logical lengths live in `DevColumn`.
pub fn recycle_class(words: usize) -> usize {
    words.next_power_of_two()
}

struct PoolEntry {
    buffer: Buffer,
    /// Client id of the last acquirer (or donor) — used to classify hits as
    /// same- or cross-context.
    owner: u64,
}

impl PoolEntry {
    fn is_idle(&self) -> bool {
        self.buffer.handle_count() == 1
    }
}

#[derive(Default)]
struct PoolState {
    /// Entries by size class (`Buffer::len()`), so an acquisition looks at
    /// its own class only. Ordered, so which idle entry a full pool retires
    /// — and with it the hit/miss counters — repeats run to run.
    classes: BTreeMap<usize, Vec<PoolEntry>>,
    retained_bytes: usize,
    stats: PoolStats,
    next_client: u64,
}

impl PoolState {
    /// Drops one idle entry, largest class first. Returns whether one was
    /// found.
    fn retire_one_idle(&mut self) -> bool {
        for entries in self.classes.values_mut().rev() {
            if let Some(pos) = entries.iter().position(PoolEntry::is_idle) {
                self.retained_bytes -= entries.swap_remove(pos).buffer.bytes();
                return true;
            }
        }
        false
    }
}

/// A shareable pool of class-sized result buffers (see module docs).
pub struct BufferPool {
    state: Mutex<PoolState>,
    /// The pool's only bound: bytes it may retain, live and idle entries
    /// alike (a plan's working set is live entries — counting them against
    /// an entry cap would evict the idle buffers the plan is about to
    /// need). Admissions beyond it retire idle entries to make room and are
    /// refused while nothing idle can (the buffer then simply is not
    /// pooled — its holder keeps the only handle and the allocation dies
    /// with it). Defaults to unlimited; devices under a memory budget
    /// shrink it so the pool cannot hoard the budget (see
    /// `crate::SharedDevice::with_memory_budget`).
    max_retained_bytes: AtomicUsize,
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new()
    }
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> BufferPool {
        BufferPool {
            state: Mutex::new(PoolState::default()),
            max_retained_bytes: AtomicUsize::new(usize::MAX),
        }
    }

    /// Caps the bytes the pool may retain (see the field docs).
    pub fn set_max_retained_bytes(&self, bytes: usize) {
        self.max_retained_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Bytes currently retained by pooled buffers.
    pub fn retained_bytes(&self) -> usize {
        self.state.lock().retained_bytes
    }

    /// Registers a pool client (one per `MemoryManager`). The returned id is
    /// only used to attribute hits to same- vs cross-context reuse.
    pub fn register_client(&self) -> u64 {
        let mut state = self.state.lock();
        state.next_client += 1;
        state.next_client
    }

    /// Returns an idle pooled buffer of exactly `class_words` words, if one
    /// exists. The buffer stays in the pool; the caller receives a clone
    /// (see module docs for why that is the reuse guard).
    pub fn acquire(&self, class_words: usize, client: u64) -> Option<Buffer> {
        let mut state = self.state.lock();
        let found = state
            .classes
            .get_mut(&class_words)
            .and_then(|entries| entries.iter_mut().find(|entry| entry.is_idle()))
            .map(|entry| {
                let cross = std::mem::replace(&mut entry.owner, client) != client;
                (entry.buffer.clone(), cross)
            });
        match found {
            Some((buffer, cross)) => {
                state.stats.hits += 1;
                state.stats.cross_context_hits += u64::from(cross);
                Some(buffer)
            }
            None => {
                state.stats.misses += 1;
                None
            }
        }
    }

    /// Admits a freshly allocated class-sized buffer into the pool (the
    /// caller keeps its own handle). Idle entries are retired only to make
    /// room under the retained-byte bound; if it still cannot fit the
    /// newcomer, it is not pooled at all.
    pub fn admit(&self, buffer: Buffer, client: u64) {
        let budget = self.max_retained_bytes.load(Ordering::Relaxed);
        if buffer.bytes() > budget {
            // Unpoolable no matter what is retired — do not drain the
            // pool's idle entries trying.
            return;
        }
        let mut state = self.state.lock();
        while state.retained_bytes.saturating_add(buffer.bytes()) > budget {
            if !state.retire_one_idle() {
                return;
            }
        }
        state.retained_bytes += buffer.bytes();
        state.classes.entry(buffer.len()).or_default().push(PoolEntry { buffer, owner: client });
    }

    /// Drops one idle entry to give device memory back (the Memory Manager's
    /// cheapest eviction move). Returns whether an entry was released.
    pub fn release_one_idle(&self) -> bool {
        self.state.lock().retire_one_idle()
    }

    /// Empties the pool (used between benchmark configurations). Buffers
    /// still held elsewhere stay alive through their other handles.
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.classes.clear();
        state.retained_bytes = 0;
    }

    /// Number of buffers currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().classes.values().map(Vec::len).sum()
    }

    /// Whether the pool holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().stats
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("BufferPool")
            .field("entries", &state.classes.values().map(Vec::len).sum::<usize>())
            .field("retained_bytes", &state.retained_bytes)
            .field("stats", &state.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_kernel::Device;

    #[test]
    fn acquire_hits_only_idle_buffers_of_the_class() {
        let device = Device::cpu_sequential();
        let pool = BufferPool::new();
        let client = pool.register_client();
        let buffer = device.alloc(8_192, "a").unwrap();
        pool.admit(buffer.clone(), client);
        // Still held by `buffer` — not idle, not acquirable.
        assert!(pool.acquire(8_192, client).is_none());
        drop(buffer);
        assert!(pool.acquire(4_096, client).is_none(), "class must match exactly");
        let reused = pool.acquire(8_192, client).expect("idle buffer is acquirable");
        // Held by the acquirer now: a second acquire misses.
        assert!(pool.acquire(8_192, client).is_none());
        drop(reused);
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn cross_context_hits_are_attributed() {
        let device = Device::cpu_sequential();
        let pool = BufferPool::new();
        let a = pool.register_client();
        let b = pool.register_client();
        pool.admit(device.alloc(4_096, "x").unwrap(), a);
        let first = pool.acquire(4_096, b).expect("hit");
        drop(first);
        // Same client again: a hit, but not a cross-context one.
        drop(pool.acquire(4_096, b).expect("hit"));
        let stats = pool.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.cross_context_hits, 1);
    }

    #[test]
    fn byte_budget_caps_retention_without_draining_the_pool() {
        let device = Device::cpu_sequential();
        let pool = BufferPool::new();
        let client = pool.register_client();
        pool.set_max_retained_bytes(40 * 1024);
        for i in 0..4 {
            pool.admit(device.alloc(4_096, &format!("b{i}")).unwrap(), client);
        }
        assert!(pool.retained_bytes() <= 40 * 1024);
        let retained_before = pool.len();
        // A buffer that can never fit the budget must be refused without
        // retiring the existing idle entries.
        pool.admit(device.alloc(16_384, "oversized").unwrap(), client);
        assert_eq!(pool.len(), retained_before, "oversized admit must not drain the pool");
        // A fitting buffer retires idles as needed and is admitted.
        let fits = device.alloc(8_192, "fits").unwrap();
        pool.admit(fits.clone(), client);
        assert!(pool.retained_bytes() <= 40 * 1024);
        assert!(pool.acquire(8_192, client).is_none(), "newcomer is busy (caller holds it)");
        drop(fits);
        assert!(pool.acquire(8_192, client).is_some(), "idle newcomer is reusable");
    }

    #[test]
    fn admit_retires_idle_entries_when_full() {
        let device = Device::cpu_sequential();
        let pool = BufferPool::new();
        let client = pool.register_client();
        // No entry count bounds the pool: a plan's whole working set stays.
        for i in 0..40 {
            pool.admit(device.alloc(4_096, &format!("b{i}")).unwrap(), client);
        }
        assert_eq!(pool.len(), 40);
        assert_eq!(pool.retained_bytes(), 40 * 4_096 * 4);
        // Full means the byte bound: idle entries go, and only as many as
        // the newcomer needs; live entries are never retired for it.
        pool.set_max_retained_bytes(40 * 4_096 * 4);
        let live = device.alloc(8_192, "live").unwrap();
        pool.admit(live.clone(), client);
        assert_eq!(pool.len(), 39, "two idle 16 KiB entries made room for 32 KiB");
        assert_eq!(pool.retained_bytes(), 40 * 4_096 * 4);
        // A bound the live entry alone fills: every idle entry is retired
        // for the newcomer, which still does not fit and is not pooled.
        pool.set_max_retained_bytes(8_192 * 4);
        pool.admit(device.alloc(4_096, "refused").unwrap(), client);
        assert_eq!((pool.len(), pool.retained_bytes()), (1, 8_192 * 4));
        assert!(!pool.release_one_idle(), "the live entry outlasts every release");
        drop(live);
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.retained_bytes(), 0);
    }
}
