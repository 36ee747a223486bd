//! The Ocelot execution context: device + lazily evaluated queue + Memory
//! Manager + column cache, plus the *typed deferred value* handles every
//! operator returns.
//!
//! Every context comes from a [`SharedDevice`] and binds base columns
//! through that device's one [`ColumnCache`]; a stand-alone context
//! ([`OcelotContext::cpu`], [`OcelotContext::with_device`], …) is the only
//! context of a fresh device handle, so it owns a private cache, pool and
//! plan slot.
//!
//! # The deferred-value contract
//!
//! The paper's architectural claim (§3.1/§3.4) is that Ocelot's operators
//! stay lazy: work is only *enqueued* on the command queue and the host
//! synchronises exactly once — when MonetDB reads a result back through
//! `ocelot.sync`. This module encodes that contract in the type system:
//!
//! * [`DevColumn<T>`] — a device-resident column of `T: DevWord` values
//!   (`i32`, `f32` or [`Oid`]). Its logical length is either host-known
//!   ([`ColLen::Host`]) or **deferred** ([`ColLen::Device`]): a one-word
//!   device counter written by an earlier kernel (e.g. a scan total), plus a
//!   host-known capacity bound used for allocation and launch sizing.
//! * [`DevScalar<T>`] — a deferred scalar: a one-word device buffer plus the
//!   event that produces it. All reductions and counts return these.
//! * [`DevScalar::get`] and [`DevColumn::read`] are the **only**
//!   synchronisation points. Everything else — selections, scans, gathers,
//!   maps, reductions, bitmap materialisation — merely schedules kernels and
//!   returns immediately. A chained pipeline therefore performs exactly one
//!   queue flush, at its final `.get()`/`.read()`
//!   (see [`ocelot_kernel::Queue::flush_count`]).
//! * Operators *consume* deferred lengths on-device: kernels receive a
//!   [`LenSource`] and read the actual element count from the counter word
//!   at flush time (by which point the in-order queue guarantees the
//!   producing kernel has run). This is how `materialize_bitmap` sizes its
//!   output from a scan total without a round-trip to the host.
//!
//! Exceptions, documented at their definition sites, are operators whose
//! host-side control flow inherently depends on a device value: the hash
//! table build (the key range sizes it and its optimistic/pessimistic
//! restart loop inspects a failure counter), `group_by` (the group count
//! sizes the result schema) and the dense join (its match count; see
//! `crate::ops::join`). Each resolves via the same `.get()` path and is a
//! deliberate, visible sync point.

use crate::buffer_pool::BufferPool;
use crate::cache::{ColumnCache, Pinned};
use crate::memory_manager::MemoryManager;
use ocelot_kernel::{Buffer, Device, EventId, GpuConfig, KernelError, LaunchConfig, Queue, Result};
use std::marker::PhantomData;
use std::sync::Arc;

/// Tuple identifier — 32-bit, like the four-byte engine build of MonetDB.
pub use ocelot_storage::Oid;

mod sealed {
    pub trait Sealed {}
    impl Sealed for i32 {}
    impl Sealed for f32 {}
    impl Sealed for u32 {}
}

/// A 32-bit value type that can live in a device word: `i32`, `f32` or
/// [`Oid`] (`u32`). The trait fixes the bit-level encoding, which is what
/// lets one untyped kernel buffer serve every column type while the *host*
/// API stays typed.
pub trait DevWord:
    Copy + Send + Sync + PartialEq + std::fmt::Debug + sealed::Sealed + 'static
{
    /// Human-readable type tag (used in buffer labels and errors).
    const LABEL: &'static str;
    /// Decodes a raw device word.
    fn from_word(word: u32) -> Self;
    /// Encodes into a raw device word.
    fn to_word(self) -> u32;
    /// Bulk-stages host values into a buffer (single pass, no staging
    /// allocation — dispatches to the typed `Buffer::copy_from_*` helper).
    fn copy_to_buffer(values: &[Self], buffer: &Buffer);
}

impl DevWord for i32 {
    const LABEL: &'static str = "i32";
    #[inline]
    fn from_word(word: u32) -> i32 {
        word as i32
    }
    #[inline]
    fn to_word(self) -> u32 {
        self as u32
    }
    fn copy_to_buffer(values: &[i32], buffer: &Buffer) {
        buffer.copy_from_i32(values);
    }
}

impl DevWord for f32 {
    const LABEL: &'static str = "f32";
    #[inline]
    fn from_word(word: u32) -> f32 {
        f32::from_bits(word)
    }
    #[inline]
    fn to_word(self) -> u32 {
        self.to_bits()
    }
    fn copy_to_buffer(values: &[f32], buffer: &Buffer) {
        buffer.copy_from_f32(values);
    }
}

impl DevWord for u32 {
    const LABEL: &'static str = "oid";
    #[inline]
    fn from_word(word: u32) -> u32 {
        word
    }
    #[inline]
    fn to_word(self) -> u32 {
        self
    }
    fn copy_to_buffer(values: &[u32], buffer: &Buffer) {
        buffer.copy_from_u32(values);
    }
}

/// The logical length of a device column.
#[derive(Debug, Clone)]
pub enum ColLen {
    /// Known on the host (base tables, maps, gathers over known inputs).
    Host(usize),
    /// Deferred: the actual count lives in word 0 of `counter`, written by
    /// an earlier kernel; `cap` is a host-known upper bound (the allocation
    /// size of the column's buffer).
    Device {
        /// One-word device buffer holding the count.
        counter: Buffer,
        /// Upper bound on the count.
        cap: usize,
    },
}

impl ColLen {
    /// Host-known upper bound on the length (exact for [`ColLen::Host`]).
    pub fn cap(&self) -> usize {
        match self {
            ColLen::Host(n) => *n,
            ColLen::Device { cap, .. } => *cap,
        }
    }

    /// The length if it is host-known.
    pub fn host(&self) -> Option<usize> {
        match self {
            ColLen::Host(n) => Some(*n),
            ColLen::Device { .. } => None,
        }
    }

    /// Resolves the logical length, reading the device counter when
    /// deferred (**sync point** in that case). The single implementation
    /// behind [`DevColumn::len`] and `Bitmap::len`.
    pub(crate) fn resolve(&self, ctx: &OcelotContext) -> Result<usize> {
        match self {
            ColLen::Host(n) => Ok(*n),
            ColLen::Device { counter, cap } => {
                ctx.materialize(counter, 1)?;
                Ok((counter.get_u32(0) as usize).min(*cap))
            }
        }
    }

    /// The kernel-side view of this length.
    pub fn source(&self) -> LenSource {
        match self {
            ColLen::Host(n) => LenSource::Fixed(*n),
            ColLen::Device { counter, cap } => {
                LenSource::Counter { counter: counter.clone(), cap: *cap }
            }
        }
    }
}

/// How a kernel learns its logical element count. Resolved *inside*
/// `run_group`, i.e. at flush time, when the in-order queue guarantees any
/// producing kernel has already executed — this is what lets operators
/// consume scan totals without a host readback.
#[derive(Debug, Clone)]
pub enum LenSource {
    /// Host-known count.
    Fixed(usize),
    /// Device-resident count (word 0 of `counter`), clamped to `cap`.
    Counter {
        /// One-word device buffer holding the count.
        counter: Buffer,
        /// Safety clamp (the consuming buffer's capacity).
        cap: usize,
    },
}

impl LenSource {
    /// The element count, reading the device counter if deferred. Only call
    /// from inside a kernel's `run_group` (or after a flush).
    #[inline]
    pub fn get(&self) -> usize {
        match self {
            LenSource::Fixed(n) => *n,
            LenSource::Counter { counter, cap } => (counter.get_u32(0) as usize).min(*cap),
        }
    }

    /// Host-known upper bound (used for launch sizing).
    pub fn cap(&self) -> usize {
        match self {
            LenSource::Fixed(n) => *n,
            LenSource::Counter { cap, .. } => *cap,
        }
    }
}

/// A handle to a typed column that lives in device memory.
///
/// The buffer holds raw 32-bit words; the phantom type records how they
/// decode (`i32`, `f32`, [`Oid`]) so host code cannot mix them up, while
/// kernels keep seeing untyped words — exactly how OpenCL kernels see
/// `cl_mem` objects. The logical length may be host-known or deferred (see
/// [`ColLen`]); [`DevColumn::read`] is the only operation that synchronises.
pub struct DevColumn<T: DevWord> {
    /// The device buffer holding the values (`buffer.len() >= cap`).
    pub buffer: Buffer,
    len: ColLen,
    /// Pin on the shared column cache, when this column is a cached base
    /// column: the entry stays unevictable while any clone of the handle
    /// (a plan register, an operator input) is alive. `None` for
    /// intermediates and directly uploaded columns.
    pin: Option<Pinned>,
    _ty: PhantomData<fn() -> T>,
}

impl<T: DevWord> Clone for DevColumn<T> {
    fn clone(&self) -> Self {
        DevColumn {
            buffer: self.buffer.clone(),
            len: self.len.clone(),
            pin: self.pin.clone(),
            _ty: PhantomData,
        }
    }
}

impl<T: DevWord> std::fmt::Debug for DevColumn<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DevColumn")
            .field("type", &T::LABEL)
            .field("buffer", &self.buffer)
            .field("len", &self.len)
            .finish()
    }
}

impl<T: DevWord> DevColumn<T> {
    /// Wraps a buffer holding `len` host-known values. Malformed handles
    /// (a plan declaring more values than the buffer holds) surface as
    /// [`KernelError::BufferTooShort`] instead of a panic.
    pub fn new(buffer: Buffer, len: usize) -> Result<DevColumn<T>> {
        Self::with_len(buffer, ColLen::Host(len))
    }

    /// Wraps a buffer whose logical length is deferred: the count is in
    /// word 0 of `counter` and bounded by `cap`.
    pub fn deferred(buffer: Buffer, counter: Buffer, cap: usize) -> Result<DevColumn<T>> {
        Self::with_len(buffer, ColLen::Device { counter, cap })
    }

    /// Wraps a buffer with an explicit [`ColLen`] (used to propagate a
    /// producer's length onto an aligned result, e.g. a gather output that
    /// inherits its index column's deferred count).
    pub fn with_len(buffer: Buffer, len: ColLen) -> Result<DevColumn<T>> {
        if buffer.len() < len.cap() {
            return Err(KernelError::BufferTooShort {
                label: buffer.label().to_string(),
                buffer_words: buffer.len(),
                column_len: len.cap(),
            });
        }
        Ok(DevColumn { buffer, len, pin: None, _ty: PhantomData })
    }

    /// Attaches a [`Pinned`] cache guard: the backing cache entry stays
    /// unevictable until the last clone of this handle is dropped (the
    /// column-cache bind path; see `crate::cache`).
    pub fn with_pin(mut self, pin: Pinned) -> DevColumn<T> {
        self.pin = Some(pin);
        self
    }

    /// Host-known upper bound on the length (exact when not deferred).
    pub fn cap(&self) -> usize {
        self.len.cap()
    }

    /// The logical length if it is host-known; `None` while deferred.
    pub fn host_len(&self) -> Option<usize> {
        self.len.host()
    }

    /// Whether the length is device-resident.
    pub fn is_deferred(&self) -> bool {
        matches!(self.len, ColLen::Device { .. })
    }

    /// The column's length descriptor (clone it to propagate alignment).
    pub fn col_len(&self) -> &ColLen {
        &self.len
    }

    /// The kernel-side view of the column's length.
    pub fn len_source(&self) -> LenSource {
        self.len.source()
    }

    /// Reinterprets the raw words as another [`DevWord`] type (the device
    /// view is untyped; this is the host-side equivalent of an OpenCL kernel
    /// binding the same `cl_mem` under a different element type).
    pub fn reinterpret<U: DevWord>(&self) -> DevColumn<U> {
        DevColumn {
            buffer: self.buffer.clone(),
            len: self.len.clone(),
            pin: self.pin.clone(),
            _ty: PhantomData,
        }
    }

    /// Resolves the logical length. **Sync point** when the length is
    /// deferred and its producer has not executed yet.
    pub fn len(&self, ctx: &OcelotContext) -> Result<usize> {
        self.len.resolve(ctx)
    }

    /// Reads the column back to the host. **This is the sync point** — the
    /// moral equivalent of MonetDB taking ownership through `ocelot.sync`:
    /// it resolves a deferred length, flushes outstanding work (scheduling
    /// the device→host transfer so discrete devices are charged for it) and
    /// decodes the words.
    pub fn read(&self, ctx: &OcelotContext) -> Result<Vec<T>> {
        let n = self.len(ctx)?;
        ctx.materialize(&self.buffer, n)?;
        Ok(self.buffer.chunk(0, n).iter().map(|&w| T::from_word(w)).collect())
    }
}

/// A deferred scalar: a one-word device buffer plus the event producing it.
///
/// All reductions and counts return `DevScalar`s. The value stays on the
/// device — consumers can read the backing [`DevScalar::buffer`] from inside
/// their kernels (via a [`LenSource`] or directly) without any host
/// round-trip. [`DevScalar::get`] is the only synchronisation point.
pub struct DevScalar<T: DevWord> {
    buffer: Buffer,
    event: Option<EventId>,
    _ty: PhantomData<fn() -> T>,
}

impl<T: DevWord> Clone for DevScalar<T> {
    fn clone(&self) -> Self {
        DevScalar { buffer: self.buffer.clone(), event: self.event, _ty: PhantomData }
    }
}

impl<T: DevWord> std::fmt::Debug for DevScalar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DevScalar")
            .field("type", &T::LABEL)
            .field("buffer", &self.buffer)
            .field("event", &self.event)
            .finish()
    }
}

impl<T: DevWord> DevScalar<T> {
    /// Wraps a one-word device buffer whose value is produced by `event`.
    pub fn new(buffer: Buffer, event: Option<EventId>) -> DevScalar<T> {
        debug_assert!(!buffer.is_empty(), "DevScalar needs a one-word buffer");
        DevScalar { buffer, event, _ty: PhantomData }
    }

    /// A scalar holding a host-known constant (used for empty-input
    /// identities). The value is staged and a host→device write is
    /// scheduled, so on-device consumers see it after any flush.
    pub fn constant(ctx: &OcelotContext, value: T) -> Result<DevScalar<T>> {
        let buffer = ctx.alloc_uninit(1, "scalar_const")?;
        buffer.set_u32(0, value.to_word());
        let event = ctx.queue().enqueue_write(&buffer, &[])?;
        ctx.memory().record_producer(&buffer, event);
        Ok(DevScalar { buffer, event: Some(event), _ty: PhantomData })
    }

    /// The one-word device buffer holding the value (for on-device
    /// consumption — e.g. as the [`LenSource`] counter of a result column).
    pub fn buffer(&self) -> &Buffer {
        &self.buffer
    }

    /// The event that produces the value, if any.
    pub fn event(&self) -> Option<EventId> {
        self.event
    }

    /// Reads the value back to the host. **This is the sync point**: it
    /// flushes outstanding work (scheduling a one-word device→host transfer
    /// — not the whole intermediate, which is the deferred design's win on
    /// discrete devices) and decodes the word.
    pub fn get(&self, ctx: &OcelotContext) -> Result<T> {
        ctx.materialize_with(&self.buffer, 1, self.event)?;
        Ok(T::from_word(self.buffer.get_u32(0)))
    }
}

/// The device-wide compiled-plan slot of a [`SharedDevice`].
///
/// The core crate cannot name the engine's plan-cache type (the dependency
/// points the other way), so the slot stores it type-erased: the engine
/// installs its cache as an `Arc<dyn Any + Send + Sync>` on first use and
/// downcasts on every later access. What core *does* own is the
/// **invalidation epoch**: device-loss recovery
/// (`Backend::on_device_lost`) bumps the epoch through
/// [`PlanSlot::invalidate`], and the engine-side cache compares the epoch
/// it last observed against [`PlanSlot::epoch`] on every lookup — so a
/// lost device can never serve a compiled plan from before the loss.
#[derive(Default)]
pub struct PlanSlot {
    cache: parking_lot::Mutex<Option<Arc<dyn std::any::Any + Send + Sync>>>,
    epoch: std::sync::atomic::AtomicU64,
}

impl PlanSlot {
    /// Fresh slot: nothing installed, epoch 0.
    pub fn new() -> PlanSlot {
        PlanSlot::default()
    }

    /// Returns the installed cache, installing `make()` first if the slot
    /// is empty. The caller downcasts the returned `Arc<dyn Any>`.
    pub fn get_or_install(
        &self,
        make: impl FnOnce() -> Arc<dyn std::any::Any + Send + Sync>,
    ) -> Arc<dyn std::any::Any + Send + Sync> {
        let mut slot = self.cache.lock();
        Arc::clone(slot.get_or_insert_with(make))
    }

    /// The current invalidation epoch. A cache that observed a smaller
    /// value must drop every compiled entry before serving a hit.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Invalidates every compiled plan on the device by bumping the epoch
    /// (called from device-loss recovery alongside the column-cache purge).
    /// Returns the new epoch.
    pub fn invalidate(&self) -> u64 {
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1
    }
}

impl std::fmt::Debug for PlanSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanSlot")
            .field("installed", &self.cache.lock().is_some())
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// Bundles everything an Ocelot operator needs: the device, its command
/// queue, the Memory Manager and the device's column cache (paper Figure 2).
pub struct OcelotContext {
    device: Device,
    queue: Arc<Queue>,
    memory: MemoryManager,
    /// The device-wide column cache every base-column bind goes through.
    column_cache: Arc<ColumnCache>,
    /// The device-wide compiled-plan slot (see [`PlanSlot`]).
    plan_slot: Arc<PlanSlot>,
}

impl OcelotContext {
    /// Context on the multi-core CPU driver (the paper's "Ocelot on CPU").
    pub fn cpu() -> OcelotContext {
        Self::with_device(Device::cpu_multicore())
    }

    /// Context on the sequential CPU driver (useful for debugging and as a
    /// deterministic baseline in tests).
    pub fn cpu_sequential() -> OcelotContext {
        Self::with_device(Device::cpu_sequential())
    }

    /// Context on the simulated discrete GPU with default parameters
    /// (the paper's "Ocelot on GPU").
    pub fn gpu() -> OcelotContext {
        Self::with_device(Device::simulated_gpu(GpuConfig::default()))
    }

    /// Context on the simulated GPU with an explicit configuration (used by
    /// benchmarks that downscale the device memory).
    pub fn gpu_with(config: GpuConfig) -> OcelotContext {
        Self::with_device(Device::simulated_gpu(config))
    }

    /// Stand-alone context on an arbitrary device: the one context of a
    /// fresh [`SharedDevice`], so its pool, column cache and plan slot are
    /// its own.
    pub fn with_device(device: Device) -> OcelotContext {
        SharedDevice::with_device(device).context()
    }

    /// The column cache every base-column bind of this context goes
    /// through — the device's, shared with every other context of it.
    pub fn column_cache(&self) -> &ColumnCache {
        &self.column_cache
    }

    /// The device-wide compiled-plan slot.
    pub fn plan_slot(&self) -> &PlanSlot {
        &self.plan_slot
    }

    /// The **release + evict** step of the OOM-restart protocol: the Memory
    /// Manager's release pass ([`MemoryManager::reclaim`]: flush pending
    /// work, drain idle pooled buffers), then every unpinned, idle column
    /// out of the column cache. Returns whether the pass made progress,
    /// against the used bytes read before both steps — callers only retry a
    /// failed node when it did.
    pub fn reclaim_device_memory(&self) -> bool {
        let used_before = self.device.memory().used();
        let released = self.memory.reclaim();
        self.column_cache.evict_unpinned();
        released || self.device.memory().used() < used_before
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The lazily evaluated command queue.
    pub fn queue(&self) -> &Queue {
        &self.queue
    }

    /// An owned handle to the command queue (shareable with a scheduler
    /// that observes or drains sessions from another thread).
    pub fn shared_queue(&self) -> Arc<Queue> {
        Arc::clone(&self.queue)
    }

    /// The Memory Manager.
    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    /// Default launch configuration for `n` elements (delegates to the
    /// driver's heuristic — operators never pick their own group sizes).
    pub fn launch(&self, n: usize) -> LaunchConfig {
        self.device.launch_config(n)
    }

    /// Launch configuration with `local_words` words of per-group local
    /// memory.
    pub fn launch_with_local(&self, n: usize, local_words: usize) -> LaunchConfig {
        self.device.launch_config_with_local(n, local_words)
    }

    /// Allocates a result buffer of `words` values, releasing idle pooled
    /// buffers if the device is out of memory.
    pub fn alloc(&self, words: usize, label: &str) -> Result<Buffer> {
        self.memory.alloc_result(words, label)
    }

    /// Allocates a result buffer whose contents are unspecified (fast path
    /// for kernels that overwrite every word — see
    /// [`MemoryManager::alloc_result_uninit`]).
    pub fn alloc_uninit(&self, words: usize, label: &str) -> Result<Buffer> {
        self.memory.alloc_result_uninit(words, label)
    }

    /// Uploads host values into a fresh device column (lazy: only the
    /// host→device transfer is scheduled).
    pub fn upload<T: DevWord>(&self, values: &[T], label: &str) -> Result<DevColumn<T>> {
        let buffer = self.alloc(values.len().max(1), label)?;
        T::copy_to_buffer(values, &buffer);
        // Charge the transfer for the logical values only (the pool may
        // have handed back a class-rounded buffer).
        let event = self.queue.enqueue_write_prefix(&buffer, values.len(), &[])?;
        self.memory.record_producer(&buffer, event);
        DevColumn::new(buffer, values.len())
    }

    /// Uploads host integers into a fresh device column.
    pub fn upload_i32(&self, values: &[i32], label: &str) -> Result<DevColumn<i32>> {
        self.upload(values, label)
    }

    /// Uploads host floats into a fresh device column.
    pub fn upload_f32(&self, values: &[f32], label: &str) -> Result<DevColumn<f32>> {
        self.upload(values, label)
    }

    /// Uploads host OIDs into a fresh device column.
    pub fn upload_u32(&self, values: &[u32], label: &str) -> Result<DevColumn<Oid>> {
        self.upload(values, label)
    }

    /// Wait-list for an operation that reads `column`: the producers of its
    /// value buffer *and*, when the length is deferred, of its counter.
    pub fn wait_for<T: DevWord>(&self, column: &DevColumn<T>) -> Vec<EventId> {
        let mut wait = self.memory.wait_for_read(&column.buffer);
        if let ColLen::Device { counter, .. } = column.col_len() {
            wait.extend(self.memory.wait_for_read(counter));
        }
        wait
    }

    /// Ensures every scheduled operation affecting `buffer` has executed and
    /// charges the device→host transfer of its first `words` words. The
    /// shared implementation behind [`DevScalar::get`] / [`DevColumn::read`]
    /// — and deliberately *not* public: operators must return deferred
    /// values, not synchronise internally.
    pub(crate) fn materialize(&self, buffer: &Buffer, words: usize) -> Result<()> {
        self.materialize_with(buffer, words, None)
    }

    /// [`OcelotContext::materialize`] with an explicit extra producer event
    /// to wait on — used by [`DevScalar::get`], whose handle carries the
    /// event that writes its word (covering scalars whose producer was never
    /// registered with the Memory Manager).
    pub(crate) fn materialize_with(
        &self,
        buffer: &Buffer,
        words: usize,
        producer: Option<EventId>,
    ) -> Result<()> {
        // In-order queue: nothing pending means every issued operation has
        // already executed. On unified-memory devices the host view is then
        // current and the read is free; a discrete device is still charged
        // the PCIe transfer of the logical prefix — the data lives on the
        // device regardless of flush state.
        if self.queue.pending_ops() == 0 && self.device.is_unified() {
            return Ok(());
        }
        let mut wait = self.memory.wait_for_read(buffer);
        if let Some(event) = producer {
            if !wait.contains(&event) {
                wait.push(event);
            }
        }
        self.queue.enqueue_read_prefix(buffer, words, &wait)?;
        self.queue.flush()?;
        Ok(())
    }

    /// Flushes every scheduled operation (the `sync` operator's core — the
    /// ownership hand-back boundary the MAL rewriter inserts).
    pub fn sync(&self) -> Result<ocelot_kernel::FlushStats> {
        self.queue.flush()
    }

    /// Attaches one trace sink to every emitter reachable from this
    /// context: the command queue (kernel/transfer/flush events), the
    /// device (allocation events), the Memory Manager (spill/unspill
    /// events) and the column cache (bind/evict events). Events interleave
    /// on the shared sink in arrival order.
    pub fn attach_tracer(&self, sink: &Arc<ocelot_trace::TraceSink>) {
        self.queue.trace().attach(Arc::clone(sink));
        self.device.trace().attach(Arc::clone(sink));
        self.memory.trace().attach(Arc::clone(sink));
        self.column_cache.trace().attach(Arc::clone(sink));
    }

    /// Detaches the tracer from every emitter [`OcelotContext::attach_tracer`]
    /// wired up, returning them to the one-relaxed-load disabled path.
    pub fn detach_tracer(&self) {
        self.queue.trace().detach();
        self.device.trace().detach();
        self.memory.trace().detach();
        self.column_cache.trace().detach();
    }
}

impl std::fmt::Debug for OcelotContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OcelotContext").field("device", self.device.info()).finish()
    }
}

/// One physical device plus the buffer pool, column cache and plan slot its
/// sessions share.
///
/// A [`SharedDevice`] is the factory for every context: each
/// [`SharedDevice::context`] call produces a fresh [`OcelotContext`] with
/// its **own** command queue and Memory Manager (so per-session flush
/// accounting and event bookkeeping stay independent) but a **shared**
/// [`BufferPool`], [`ColumnCache`] and device memory accountant: result
/// buffers released by one session's finished query serve the allocations
/// of the next, and a column one session uploaded is a hit for the others.
#[derive(Clone)]
pub struct SharedDevice {
    device: Device,
    pool: Arc<BufferPool>,
    /// The device-wide column cache every session context binds through
    /// (see `crate::cache` for the resident/pinned/evicted contract).
    cache: Arc<ColumnCache>,
    /// Cap on device-wide used bytes (`usize::MAX` = unlimited), applied
    /// to every session's Memory Manager (exercises the eviction/restart
    /// paths even on unified-memory devices whose physical capacity is
    /// effectively unbounded). Shared across clones — like the cache and
    /// pool budgets it adjusts, it is device-wide state, so setting it on
    /// any handle consistently affects every session of the device.
    memory_budget: Arc<std::sync::atomic::AtomicUsize>,
    /// The device-wide compiled-plan slot every session context carries
    /// (see [`PlanSlot`] — the engine installs its plan cache here).
    plans: Arc<PlanSlot>,
}

impl SharedDevice {
    /// Shared multi-core CPU device.
    pub fn cpu() -> SharedDevice {
        Self::with_device(Device::cpu_multicore())
    }

    /// Shared sequential CPU device (deterministic baseline).
    pub fn cpu_sequential() -> SharedDevice {
        Self::with_device(Device::cpu_sequential())
    }

    /// Shared simulated discrete GPU with default parameters.
    pub fn gpu() -> SharedDevice {
        Self::with_device(Device::simulated_gpu(GpuConfig::default()))
    }

    /// Shared simulated GPU with an explicit configuration.
    pub fn gpu_with(config: GpuConfig) -> SharedDevice {
        Self::with_device(Device::simulated_gpu(config))
    }

    /// Wraps an arbitrary device with a fresh shared pool and column cache.
    pub fn with_device(device: Device) -> SharedDevice {
        SharedDevice {
            device,
            pool: Arc::new(BufferPool::new()),
            cache: Arc::new(ColumnCache::new()),
            memory_budget: Arc::new(std::sync::atomic::AtomicUsize::new(usize::MAX)),
            plans: Arc::new(PlanSlot::new()),
        }
    }

    /// Caps device-wide used bytes at `bytes` for every session created
    /// from this handle. The column cache's resident budget and the
    /// buffer pool's retained-byte cap are shrunk along with it (half the
    /// budget each) so neither can hoard the whole allowance.
    pub fn with_memory_budget(self, bytes: usize) -> SharedDevice {
        self.memory_budget.store(bytes, std::sync::atomic::Ordering::Relaxed);
        self.cache.set_budget(bytes / 2);
        self.pool.set_max_retained_bytes(bytes / 2);
        self
    }

    /// The configured device-memory budget, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        match self.memory_budget.load(std::sync::atomic::Ordering::Relaxed) {
            usize::MAX => None,
            bytes => Some(bytes),
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The pool every session context of this device allocates through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The column cache every session context of this device binds through.
    pub fn cache(&self) -> &Arc<ColumnCache> {
        &self.cache
    }

    /// The compiled-plan slot shared by every session of this device.
    pub fn plan_slot(&self) -> &Arc<PlanSlot> {
        &self.plans
    }

    /// Creates a session context: own queue and Memory Manager, shared
    /// buffer pool, column cache, plan slot and device memory (the memory
    /// budget, when set, is installed on the new manager).
    pub fn context(&self) -> OcelotContext {
        let queue = Arc::new(self.device.create_queue());
        let memory = MemoryManager::with_pool(
            self.device.clone(),
            Arc::clone(&queue),
            Arc::clone(&self.pool),
        );
        if let Some(budget) = self.memory_budget() {
            memory.set_budget(budget);
        }
        OcelotContext {
            device: self.device.clone(),
            queue,
            memory,
            column_cache: Arc::clone(&self.cache),
            plan_slot: Arc::clone(&self.plans),
        }
    }
}

impl std::fmt::Debug for SharedDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDevice")
            .field("device", self.device.info())
            .field("pool", &self.pool)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_read_round_trip() {
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let ints = ctx.upload_i32(&[1, -2, 3], "ints").unwrap();
            assert_eq!(ints.read(&ctx).unwrap(), vec![1, -2, 3]);
            let floats = ctx.upload_f32(&[0.5, 2.5], "floats").unwrap();
            assert_eq!(floats.read(&ctx).unwrap(), vec![0.5, 2.5]);
            let words = ctx.upload_u32(&[7, 9], "words").unwrap();
            assert_eq!(words.read(&ctx).unwrap(), vec![7, 9]);
        }
    }

    #[test]
    fn dev_column_checks_length() {
        let ctx = OcelotContext::cpu_sequential();
        let buffer = ctx.alloc(10, "buf").unwrap();
        let col: DevColumn<i32> = DevColumn::new(buffer.clone(), 5).unwrap();
        assert_eq!(col.host_len(), Some(5));
        assert_eq!(col.cap(), 5);
        assert!(!col.is_deferred());
    }

    #[test]
    fn dev_column_rejects_overlong_claim_as_error() {
        let ctx = OcelotContext::cpu_sequential();
        let buffer = ctx.alloc(2, "short").unwrap();
        let err = DevColumn::<i32>::new(buffer, 5).unwrap_err();
        match err {
            KernelError::BufferTooShort { label, buffer_words, column_len } => {
                assert_eq!(label, "short");
                assert_eq!(buffer_words, 2);
                assert_eq!(column_len, 5);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn deferred_column_resolves_via_counter() {
        let ctx = OcelotContext::cpu_sequential();
        let buffer = ctx.alloc(8, "data").unwrap();
        buffer.copy_from_u32(&[10, 11, 12, 13, 0, 0, 0, 0]);
        let counter = ctx.alloc(1, "count").unwrap();
        counter.set_u32(0, 4);
        let col: DevColumn<Oid> = DevColumn::deferred(buffer, counter, 8).unwrap();
        assert!(col.is_deferred());
        assert_eq!(col.host_len(), None);
        assert_eq!(col.cap(), 8);
        assert_eq!(col.len(&ctx).unwrap(), 4);
        assert_eq!(col.read(&ctx).unwrap(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn dev_scalar_constant_round_trips() {
        let ctx = OcelotContext::cpu();
        let s = DevScalar::constant(&ctx, -1.5f32).unwrap();
        assert_eq!(s.get(&ctx).unwrap(), -1.5);
        let n = DevScalar::constant(&ctx, 42u32).unwrap();
        assert_eq!(n.get(&ctx).unwrap(), 42);
    }

    #[test]
    fn reinterpret_preserves_bits() {
        let ctx = OcelotContext::cpu();
        let floats = ctx.upload_f32(&[1.0, -2.0], "f").unwrap();
        let words: DevColumn<Oid> = floats.reinterpret();
        assert_eq!(words.read(&ctx).unwrap(), vec![1.0f32.to_bits(), (-2.0f32).to_bits()]);
    }

    #[test]
    fn launch_delegates_to_driver() {
        let ctx = OcelotContext::cpu();
        let launch = ctx.launch(100);
        assert_eq!(launch.num_groups, ctx.device().info().compute_cores);
        let with_local = ctx.launch_with_local(100, 64);
        assert_eq!(with_local.local_mem_words, 64);
    }

    #[test]
    fn sync_flushes_pending_work() {
        let ctx = OcelotContext::cpu();
        let _col = ctx.upload_i32(&[1, 2, 3], "c").unwrap();
        assert!(ctx.queue().pending_ops() > 0);
        ctx.sync().unwrap();
        assert_eq!(ctx.queue().pending_ops(), 0);
    }

    #[test]
    fn shared_device_contexts_share_the_pool_but_not_queues() {
        let shared = SharedDevice::cpu_sequential();
        let a = shared.context();
        let b = shared.context();
        // Queues are per-session: enqueueing in one leaves the other empty.
        let data = vec![7; 20_000];
        let col = a.upload_i32(&data, "a_data").unwrap();
        assert!(a.queue().pending_ops() > 0);
        assert_eq!(b.queue().pending_ops(), 0);
        assert_eq!(col.read(&a).unwrap().len(), 20_000);
        // The pool is shared: b's same-class allocation reuses a's buffer.
        drop(col);
        let reused = b.alloc(20_000, "b_data").unwrap();
        drop(reused);
        assert!(shared.pool().stats().cross_context_hits > 0);
    }

    #[test]
    fn reads_without_pending_work_do_not_flush_again() {
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&[5, 6], "c").unwrap();
        let _ = col.read(&ctx).unwrap();
        let flushes = ctx.queue().flush_count();
        // A second read finds the queue drained and skips the flush.
        let _ = col.read(&ctx).unwrap();
        assert_eq!(ctx.queue().flush_count(), flushes);
    }
}
