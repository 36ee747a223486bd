//! Lazily evaluated command queues (paper §3.4).
//!
//! Ocelot operators never execute work directly: they *enqueue* kernel
//! invocations and host/device transfers together with wait-lists of
//! [`EventId`]s and immediately return. Nothing runs until [`Queue::flush`]
//! is called — typically by the explicit `sync` operator that hands result
//! ownership back to MonetDB, or by the Memory Manager before it evicts a
//! buffer.
//!
//! The queue executes operations in submission order, which is always a
//! valid topological order because wait-lists can only reference events that
//! were issued earlier. Flushes are serialized, so the completed events are
//! a prefix of the issued ones and two counters are the whole event state
//! (see [`crate::event`]). Per-flush totals are [`FlushStats`]; per-kernel
//! timings and launch shapes are the trace's `kernel` events, emitted when a
//! [`ocelot_trace::TraceSink`] is attached.

use crate::buffer::Buffer;
use crate::device::Device;
use crate::error::{KernelError, Result};
use crate::event::EventId;
use crate::fault::FaultSite;
use crate::kernel::Kernel;
use crate::race::RaceDetector;
use crate::scheduling::LaunchConfig;
use ocelot_trace::{MetricsRegistry, TraceEventKind, TraceHandle};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

enum PendingOp {
    Kernel {
        kernel: Arc<dyn Kernel>,
        launch: LaunchConfig,
        wait: Vec<EventId>,
        event: EventId,
    },
    Write {
        /// Held to keep the buffer alive (and device-resident) until the
        /// scheduled transfer has executed.
        #[allow(dead_code)]
        buffer: Buffer,
        bytes: usize,
        wait: Vec<EventId>,
        event: EventId,
    },
    Read {
        /// Held to keep the buffer alive (and device-resident) until the
        /// scheduled transfer has executed.
        #[allow(dead_code)]
        buffer: Buffer,
        bytes: usize,
        wait: Vec<EventId>,
        event: EventId,
    },
    Marker {
        wait: Vec<EventId>,
        event: EventId,
    },
}

impl PendingOp {
    fn event(&self) -> EventId {
        match self {
            PendingOp::Kernel { event, .. }
            | PendingOp::Write { event, .. }
            | PendingOp::Read { event, .. }
            | PendingOp::Marker { event, .. } => *event,
        }
    }

    fn wait_list(&self) -> &[EventId] {
        match self {
            PendingOp::Kernel { wait, .. }
            | PendingOp::Write { wait, .. }
            | PendingOp::Read { wait, .. }
            | PendingOp::Marker { wait, .. } => wait,
        }
    }
}

/// Statistics of a single [`Queue::flush`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Number of kernel invocations executed.
    pub kernels: usize,
    /// Number of host/device transfers executed.
    pub transfers: usize,
    /// Wall-clock nanoseconds spent executing on the host.
    pub host_ns: u64,
    /// Modeled nanoseconds on the device (kernels + transfers).
    pub modeled_ns: u64,
    /// Bytes moved host → device.
    pub bytes_to_device: u64,
    /// Bytes moved device → host.
    pub bytes_from_device: u64,
}

impl FlushStats {
    /// Adds another stats record into this one.
    pub fn merge(&mut self, other: &FlushStats) {
        self.kernels += other.kernels;
        self.transfers += other.transfers;
        self.host_ns += other.host_ns;
        self.modeled_ns += other.modeled_ns;
        self.bytes_to_device += other.bytes_to_device;
        self.bytes_from_device += other.bytes_from_device;
    }

    /// Projects these statistics into a [`MetricsRegistry`] under
    /// `<prefix>.kernels`, `<prefix>.transfers`, `<prefix>.host_ns`,
    /// `<prefix>.modeled_ns`, `<prefix>.bytes_to_device` and
    /// `<prefix>.bytes_from_device`.
    pub fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_counter(&format!("{prefix}.kernels"), self.kernels as u64);
        registry.set_counter(&format!("{prefix}.transfers"), self.transfers as u64);
        registry.set_counter(&format!("{prefix}.host_ns"), self.host_ns);
        registry.set_counter(&format!("{prefix}.modeled_ns"), self.modeled_ns);
        registry.set_counter(&format!("{prefix}.bytes_to_device"), self.bytes_to_device);
        registry.set_counter(&format!("{prefix}.bytes_from_device"), self.bytes_from_device);
    }
}

/// A lazily evaluated, in-order command queue bound to one [`Device`].
///
/// Queue handles (`Arc<Queue>`) are `Send + Sync`: a multi-query scheduler
/// may observe (`pending_ops`, `flush_count`, `total_stats`) and drain
/// (`flush`) session queues from other threads. Flushing executes on the
/// calling thread, in submission order; concurrent flushes of one queue take
/// turns, one batch at a time, so batches complete in submission order.
pub struct Queue {
    device: Device,
    /// Scheduled operations not yet flushed. Ids are issued under this lock,
    /// so a batch holds consecutive ids in order.
    pending: Mutex<Vec<PendingOp>>,
    /// The last issued event id (0 before the first).
    issued: AtomicU64,
    /// The completion watermark: every id up to it has run, none above it.
    completed: AtomicU64,
    /// Held by a flush for its whole batch.
    flushing: Mutex<()>,
    totals: Mutex<FlushStats>,
    flushes: AtomicU64,
    trace: TraceHandle,
    race: RaceDetector,
}

impl Queue {
    pub(crate) fn new(device: Device) -> Queue {
        Queue {
            device,
            pending: Mutex::new(Vec::new()),
            issued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            flushing: Mutex::new(()),
            totals: Mutex::new(FlushStats::default()),
            flushes: AtomicU64::new(0),
            trace: TraceHandle::new(),
            race: RaceDetector::new(),
        }
    }

    /// The queue's race-detector shadow state (see [`crate::race`]).
    /// Disarmed by default; arm it to record kernel access declarations at
    /// enqueue and check the buffer phase contract at flush.
    pub fn race(&self) -> &RaceDetector {
        &self.race
    }

    /// The queue's trace attachment point: attach a shared
    /// [`ocelot_trace::TraceSink`] and every flush emits per-kernel,
    /// per-transfer and per-flush events (see the `ocelot_trace` module
    /// docs for the emission contract). Detached by default — the disabled
    /// cost is one relaxed atomic load per flush.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The device this queue schedules onto.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Whether the operation tied to `event` has run. False for an id this
    /// queue never issued, and for the events of a batch a lost device
    /// dropped.
    pub fn is_complete(&self, event: EventId) -> bool {
        (1..=self.completed.load(Ordering::Acquire)).contains(&event.0)
    }

    /// Number of operations waiting to be flushed.
    pub fn pending_ops(&self) -> usize {
        self.pending.lock().len()
    }

    /// Accumulated statistics over every flush of this queue.
    pub fn total_stats(&self) -> FlushStats {
        *self.totals.lock()
    }

    /// Number of *effective* flushes so far: [`Queue::flush`] calls that
    /// actually executed at least one pending operation. Calls on an empty
    /// queue are not counted. This is the observability hook behind the
    /// sync-boundary regression tests — a lazy pipeline that only
    /// synchronises at its final `.get()`/`.read()` increments this exactly
    /// once.
    pub fn flush_count(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    fn check_wait_list(&self, wait: &[EventId]) -> Result<()> {
        let issued = 1..=self.issued.load(Ordering::Acquire);
        match wait.iter().find(|id| !issued.contains(&id.0)) {
            Some(id) => Err(KernelError::UnknownEvent(id.0)),
            None => Ok(()),
        }
    }

    /// Issues the next event id and appends the operation `make` builds
    /// for it, under one lock.
    fn schedule(&self, make: impl FnOnce(EventId) -> PendingOp) -> EventId {
        let mut pending = self.pending.lock();
        let event = EventId(self.issued.fetch_add(1, Ordering::AcqRel) + 1);
        pending.push(make(event));
        event
    }

    /// Schedules a kernel invocation. Returns the event tied to it.
    pub fn enqueue_kernel(
        &self,
        kernel: Arc<dyn Kernel>,
        launch: LaunchConfig,
        wait: &[EventId],
    ) -> Result<EventId> {
        launch.validate()?;
        self.check_wait_list(wait)?;
        // Faults fire at submission time — before the event is issued — so
        // a failed launch never leaves a dangling incomplete event for a
        // later wait-list to trip over.
        self.device.fault_preflight(FaultSite::KernelLaunch)?;
        Ok(self.schedule(|event| {
            if self.race.armed() {
                self.race.record(&*kernel, &launch, wait, event);
            }
            PendingOp::Kernel { kernel, launch, wait: wait.to_vec(), event }
        }))
    }

    /// Schedules a host-to-device transfer of `buffer`.
    ///
    /// On unified-memory devices this is a zero-copy no-op that only records
    /// an event; on the simulated GPU it accounts PCIe transfer time and
    /// bytes.
    pub fn enqueue_write(&self, buffer: &Buffer, wait: &[EventId]) -> Result<EventId> {
        self.enqueue_write_prefix(buffer, buffer.len(), wait)
    }

    /// Schedules a host-to-device transfer of the first `words` words of
    /// `buffer` (like `clEnqueueWriteBuffer` with an explicit size). Uploads
    /// into pool-class-rounded buffers use this so only the logical prefix
    /// is charged, keeping the transfer accounting exact.
    pub fn enqueue_write_prefix(
        &self,
        buffer: &Buffer,
        words: usize,
        wait: &[EventId],
    ) -> Result<EventId> {
        self.check_wait_list(wait)?;
        self.device.fault_preflight(FaultSite::Transfer)?;
        Ok(self.schedule(|event| PendingOp::Write {
            buffer: buffer.clone(),
            bytes: words.min(buffer.len()) * 4,
            wait: wait.to_vec(),
            event,
        }))
    }

    /// Schedules a device-to-host transfer of `buffer`.
    pub fn enqueue_read(&self, buffer: &Buffer, wait: &[EventId]) -> Result<EventId> {
        self.enqueue_read_prefix(buffer, buffer.len(), wait)
    }

    /// Schedules a device-to-host transfer of the first `words` words of
    /// `buffer` (like `clEnqueueReadBuffer` with an explicit size). Deferred
    /// readbacks use this so capacity-allocated columns are only charged for
    /// their logical prefix — and one-word scalars for four bytes.
    pub fn enqueue_read_prefix(
        &self,
        buffer: &Buffer,
        words: usize,
        wait: &[EventId],
    ) -> Result<EventId> {
        self.check_wait_list(wait)?;
        self.device.fault_preflight(FaultSite::Transfer)?;
        Ok(self.schedule(|event| PendingOp::Read {
            buffer: buffer.clone(),
            bytes: words.min(buffer.len()) * 4,
            wait: wait.to_vec(),
            event,
        }))
    }

    /// Schedules a marker that completes once every event in `wait` has
    /// completed — the building block of the explicit `sync` operator.
    pub fn enqueue_marker(&self, wait: &[EventId]) -> Result<EventId> {
        self.check_wait_list(wait)?;
        Ok(self.schedule(|event| PendingOp::Marker { wait: wait.to_vec(), event }))
    }

    /// Executes every pending operation in submission order and returns the
    /// statistics of this flush.
    ///
    /// A flush holds the queue's batch lock until its batch has run, so a
    /// second flush of the same queue waits for it; nothing a batch runs
    /// (kernels, transfers, trace and race checks) flushes again. A kernel
    /// that panics unwinds out of the flush and drops the rest of its
    /// batch; a later batch would move the watermark past those ids, so a
    /// kernel panic is a bug, not an error a caller may recover from.
    pub fn flush(&self) -> Result<FlushStats> {
        let _batch = self.flushing.lock();
        let ops: Vec<PendingOp> = std::mem::take(&mut *self.pending.lock());
        let effective = !ops.is_empty();
        if effective {
            // A lost device executes nothing: the pending batch is dropped
            // (the plan that scheduled it is being unwound for failover),
            // its events never complete, and the caller sees the sticky
            // loss. Empty flushes stay harmless no-ops so teardown paths
            // never trip here.
            if self.device.is_lost() {
                return Err(KernelError::DeviceLost);
            }
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
        let traced = self.trace.armed() && effective;
        let flush_start = traced.then(Instant::now);
        // Phase analysis runs over the shadow batch *before* execution (the
        // event graph is fully known here); bitmap claims are checked after
        // their producer completes, below.
        let bitmap_claims = if self.race.armed() { self.race.analyze_batch() } else { Vec::new() };
        let mut stats = FlushStats::default();
        for op in ops {
            // Wait-list sanity: in-order execution means every dependency
            // issued by this queue has either completed in a previous flush
            // or earlier in this loop.
            for dep in op.wait_list() {
                if !self.is_complete(*dep) {
                    return Err(KernelError::IncompleteDependency(dep.0));
                }
            }
            let event = op.event();
            match op {
                PendingOp::Kernel { kernel, launch, .. } => {
                    let report = self.device.execute_kernel(&kernel, &launch);
                    for (claim_event, producer, claim) in &bitmap_claims {
                        if *claim_event == event {
                            self.race.check_bitmap(producer, claim);
                        }
                    }
                    stats.kernels += 1;
                    stats.host_ns += report.host_ns;
                    stats.modeled_ns += report.modeled_ns;
                    if traced {
                        self.trace.emit(|| TraceEventKind::Kernel {
                            kernel: kernel.name().to_string(),
                            host_ns: report.host_ns,
                            modeled_ns: report.modeled_ns,
                            num_groups: launch.num_groups as u64,
                            n: launch.n as u64,
                        });
                    }
                }
                PendingOp::Write { bytes, .. } => {
                    let ns = self.device.transfer_ns(bytes);
                    stats.transfers += 1;
                    stats.modeled_ns += ns;
                    let charged = if self.device.is_unified() { 0 } else { bytes as u64 };
                    stats.bytes_to_device += charged;
                    if traced {
                        self.trace.emit(|| TraceEventKind::Transfer {
                            to_device: true,
                            bytes: charged,
                            modeled_ns: ns,
                        });
                    }
                }
                PendingOp::Read { bytes, .. } => {
                    let ns = self.device.transfer_ns(bytes);
                    stats.transfers += 1;
                    stats.modeled_ns += ns;
                    let charged = if self.device.is_unified() { 0 } else { bytes as u64 };
                    stats.bytes_from_device += charged;
                    if traced {
                        self.trace.emit(|| TraceEventKind::Transfer {
                            to_device: false,
                            bytes: charged,
                            modeled_ns: ns,
                        });
                    }
                }
                PendingOp::Marker { .. } => {}
            }
            self.completed.store(event.0, Ordering::Release);
        }
        if let Some(start) = flush_start {
            let dur_ns = start.elapsed().as_nanos() as u64;
            self.trace.emit_with(|sink| ocelot_trace::TraceEvent {
                ts_ns: sink.now_ns().saturating_sub(dur_ns),
                dur_ns,
                pid: 0,
                tid: 0,
                kind: TraceEventKind::Flush {
                    kernels: stats.kernels as u64,
                    transfers: stats.transfers as u64,
                    host_ns: stats.host_ns,
                },
            });
        }
        self.totals.lock().merge(&stats);
        Ok(stats)
    }
}

// Compile-time proof of the scheduler contract above: queue handles must
// stay shareable across threads. (All fields are atomics, mutexes or
// `Send + Sync` trait objects; this assertion keeps that from regressing.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Queue>();
};

impl std::fmt::Debug for Queue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Queue")
            .field("device", &self.device)
            .field("pending", &self.pending_ops())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::gpu_sim::GpuConfig;
    use crate::kernel::{Kernel, WorkGroupCtx};

    struct Increment {
        buf: Buffer,
    }

    impl Kernel for Increment {
        fn name(&self) -> &str {
            "increment"
        }
        fn run_group(&self, group: &mut WorkGroupCtx) {
            for item in group.items() {
                for idx in item.assigned() {
                    self.buf.set_i32(idx, self.buf.get_i32(idx) + 1);
                }
            }
        }
    }

    #[test]
    fn lazy_execution_until_flush() {
        let device = Device::cpu_multicore_with(2);
        let buf = device.alloc_from_i32(&[0; 100], "b").unwrap();
        let queue = device.create_queue();
        let launch = device.launch_config(100);
        let ev =
            queue.enqueue_kernel(Arc::new(Increment { buf: buf.clone() }), launch, &[]).unwrap();

        // Nothing has run yet.
        assert_eq!(queue.pending_ops(), 1);
        assert!(!queue.is_complete(ev));
        assert_eq!(buf.get_i32(0), 0);

        let stats = queue.flush().unwrap();
        assert_eq!(stats.kernels, 1);
        assert!(queue.is_complete(ev));
        assert_eq!(buf.get_i32(0), 1);
        assert_eq!(queue.pending_ops(), 0);
    }

    #[test]
    fn wait_lists_chain_operations() {
        let device = Device::cpu_sequential();
        let buf = device.alloc_from_i32(&[0; 10], "b").unwrap();
        let queue = device.create_queue();
        let launch = device.launch_config(10);
        let first = queue
            .enqueue_kernel(Arc::new(Increment { buf: buf.clone() }), launch.clone(), &[])
            .unwrap();
        let second = queue
            .enqueue_kernel(Arc::new(Increment { buf: buf.clone() }), launch, &[first])
            .unwrap();
        let marker = queue.enqueue_marker(&[second]).unwrap();
        queue.flush().unwrap();
        assert!(queue.is_complete(marker));
        assert_eq!(buf.get_i32(5), 2);
    }

    #[test]
    fn unknown_wait_event_is_rejected() {
        let device = Device::cpu_sequential();
        let queue = device.create_queue();
        let err = queue.enqueue_marker(&[EventId(4242)]).unwrap_err();
        assert_eq!(err, KernelError::UnknownEvent(4242));
    }

    #[test]
    fn id_zero_and_never_issued_ids_are_unknown() {
        let device = Device::cpu_sequential();
        let queue = device.create_queue();
        let first = queue.enqueue_marker(&[]).unwrap();
        let second = queue.enqueue_marker(&[first]).unwrap();
        assert_eq!((first, second), (EventId(1), EventId(2)));
        queue.flush().unwrap();
        for never in [EventId(0), EventId(3), EventId(u64::MAX)] {
            assert_eq!(queue.enqueue_marker(&[never]), Err(KernelError::UnknownEvent(never.0)));
            assert!(!queue.is_complete(never), "{never:?}");
        }
        // A rejected wait-list issues nothing: the next id is still 3.
        assert_eq!(queue.enqueue_marker(&[second]).unwrap(), EventId(3));
    }

    #[test]
    fn an_event_is_incomplete_until_its_flush() {
        let device = Device::cpu_sequential();
        let buf = device.alloc_from_i32(&[0; 4], "b").unwrap();
        let queue = device.create_queue();
        let launch = device.launch_config(4);
        let first =
            queue.enqueue_kernel(Arc::new(Increment { buf: buf.clone() }), launch.clone(), &[]);
        let first = first.unwrap();
        queue.flush().unwrap();
        let write = queue.enqueue_write(&buf, &[first]).unwrap();
        let second =
            queue.enqueue_kernel(Arc::new(Increment { buf: buf.clone() }), launch, &[write]);
        let second = second.unwrap();
        let read = queue.enqueue_read(&buf, &[second]).unwrap();
        assert!(queue.is_complete(first));
        for event in [write, second, read] {
            assert!(!queue.is_complete(event), "{event:?} is pending");
        }
        assert_eq!(buf.get_i32(0), 1);
        queue.flush().unwrap();
        for event in [first, write, second, read] {
            assert!(queue.is_complete(event), "{event:?} ran");
        }
        assert_eq!(buf.get_i32(0), 2);
    }

    #[test]
    fn a_lost_device_never_completes_the_batch_it_dropped() {
        let device = Device::cpu_sequential();
        let buf = device.alloc_from_i32(&[0; 4], "b").unwrap();
        let queue = device.create_queue();
        let launch = device.launch_config(4);
        // The first launch is scheduled; the device is lost at the second.
        device.install_fault_plan(crate::fault::FaultPlan::scripted([
            crate::fault::FaultSpec::DeviceLost { at_op: 1 },
        ]));
        let kernel = Arc::new(Increment { buf: buf.clone() });
        let dropped = queue.enqueue_kernel(kernel.clone(), launch.clone(), &[]).unwrap();
        let lost = queue.enqueue_kernel(kernel, launch, &[dropped]);
        assert_eq!(lost, Err(KernelError::DeviceLost));
        assert_eq!(queue.flush(), Err(KernelError::DeviceLost));
        assert_eq!(queue.pending_ops(), 0, "the batch is dropped");
        // A marker can still wait on the dropped event; it never runs.
        let marker = queue.enqueue_marker(&[dropped]).unwrap();
        assert_eq!(queue.flush(), Err(KernelError::DeviceLost));
        for event in [dropped, marker] {
            assert!(!queue.is_complete(event), "{event:?} must never read complete");
        }
        assert_eq!(buf.get_i32(0), 0, "nothing ran");
        assert_eq!(queue.flush_count(), 0);
    }

    /// Sets its own cell, after checking that its predecessor's is set.
    struct Mark {
        cells: Buffer,
        index: usize,
    }

    impl Kernel for Mark {
        fn name(&self) -> &str {
            "mark"
        }
        fn run_group(&self, _group: &mut WorkGroupCtx) {
            assert!(self.index == 0 || self.cells.get_i32(self.index - 1) == 1, "ran out of order");
            self.cells.set_i32(self.index, 1);
        }
    }

    #[test]
    fn concurrent_flushes_complete_every_event_only_after_its_op_ran() {
        // Each round is a fresh queue: two threads flush it while a third
        // enqueues a chain of marks, each waiting on the one before.
        const OPS: usize = 2_000;
        let device = Device::cpu_sequential();
        for _round in 0..6 {
            let cells = device.alloc_from_i32(&[0; OPS], "cells").unwrap();
            let queue = device.create_queue();
            let issued = Mutex::new(Vec::with_capacity(OPS));
            let done = std::sync::atomic::AtomicBool::new(false);
            // Every event a flusher sees complete must have its cell set.
            let check = || {
                let issued = issued.lock().clone();
                for (index, event) in issued.into_iter().enumerate() {
                    if queue.is_complete(event) {
                        assert_eq!(cells.get_i32(index), 1, "{event:?} complete before it ran");
                    }
                }
            };
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        while !done.load(Ordering::Acquire) {
                            queue.flush().unwrap();
                            check();
                        }
                    });
                }
                scope.spawn(|| {
                    let launch = device.launch_config(1);
                    let mut previous: Option<EventId> = None;
                    for index in 0..OPS {
                        let mark = Arc::new(Mark { cells: cells.clone(), index });
                        let wait: Vec<EventId> = previous.into_iter().collect();
                        let event = queue.enqueue_kernel(mark, launch.clone(), &wait).unwrap();
                        issued.lock().push(event);
                        previous = Some(event);
                    }
                    done.store(true, Ordering::Release);
                });
            });
            queue.flush().unwrap();
            check();
            assert!(issued.into_inner().iter().all(|event| queue.is_complete(*event)));
            assert!((0..OPS).all(|index| cells.get_i32(index) == 1));
            assert_eq!(queue.total_stats().kernels, OPS);
        }
    }

    #[test]
    fn invalid_launch_is_rejected() {
        let device = Device::cpu_sequential();
        let buf = device.alloc(4, "b").unwrap();
        let queue = device.create_queue();
        let bad = LaunchConfig::new(0, 1, 4, crate::AccessPattern::Contiguous);
        let err = queue.enqueue_kernel(Arc::new(Increment { buf }), bad, &[]).unwrap_err();
        assert!(matches!(err, KernelError::InvalidLaunchConfig(_)));
    }

    #[test]
    fn gpu_transfers_are_accounted() {
        let gpu = Device::simulated_gpu(GpuConfig::default());
        let buf = gpu.alloc(1024, "b").unwrap();
        let queue = gpu.create_queue();
        queue.enqueue_write(&buf, &[]).unwrap();
        queue.enqueue_read(&buf, &[]).unwrap();
        let stats = queue.flush().unwrap();
        assert_eq!(stats.transfers, 2);
        assert_eq!(stats.bytes_to_device, 4096);
        assert_eq!(stats.bytes_from_device, 4096);
        assert!(stats.modeled_ns > 0);
    }

    #[test]
    fn cpu_transfers_are_zero_copy() {
        let cpu = Device::cpu_multicore_with(2);
        let buf = cpu.alloc(1024, "b").unwrap();
        let queue = cpu.create_queue();
        queue.enqueue_write(&buf, &[]).unwrap();
        let stats = queue.flush().unwrap();
        assert_eq!(stats.bytes_to_device, 0);
        assert_eq!(stats.modeled_ns, 0);
    }

    #[test]
    fn profiling_collects_kernel_names() {
        let device = Device::cpu_sequential();
        let buf = device.alloc_from_i32(&[0; 16], "b").unwrap();
        let queue = device.create_queue();
        let sink = Arc::new(ocelot_trace::TraceSink::new());
        queue.trace().attach(Arc::clone(&sink));
        let launch = device.launch_config(16);
        queue.enqueue_kernel(Arc::new(Increment { buf }), launch, &[]).unwrap();
        queue.flush().unwrap();
        let kernels: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                ocelot_trace::TraceEventKind::Kernel { kernel, n, .. } => Some((kernel, n)),
                _ => None,
            })
            .collect();
        assert_eq!(kernels, [("increment".to_string(), 16)]);
    }

    #[test]
    fn totals_accumulate_across_flushes() {
        let device = Device::cpu_sequential();
        let buf = device.alloc_from_i32(&[0; 8], "b").unwrap();
        let queue = device.create_queue();
        for _ in 0..3 {
            let launch = device.launch_config(8);
            queue.enqueue_kernel(Arc::new(Increment { buf: buf.clone() }), launch, &[]).unwrap();
            queue.flush().unwrap();
        }
        assert_eq!(queue.total_stats().kernels, 3);
        assert_eq!(buf.get_i32(0), 3);
    }

    #[test]
    fn flush_count_ignores_empty_flushes() {
        let device = Device::cpu_sequential();
        let buf = device.alloc_from_i32(&[0; 8], "b").unwrap();
        let queue = device.create_queue();
        assert_eq!(queue.flush_count(), 0);
        queue.flush().unwrap();
        assert_eq!(queue.flush_count(), 0, "empty flush is not counted");
        let launch = device.launch_config(8);
        queue
            .enqueue_kernel(Arc::new(Increment { buf: buf.clone() }), launch.clone(), &[])
            .unwrap();
        queue.enqueue_kernel(Arc::new(Increment { buf }), launch, &[]).unwrap();
        queue.flush().unwrap();
        assert_eq!(queue.flush_count(), 1, "one effective flush for two pending ops");
        queue.flush().unwrap();
        assert_eq!(queue.flush_count(), 1);
    }

    #[test]
    fn traced_flushes_emit_kernel_transfer_and_flush_events() {
        let gpu = Device::simulated_gpu(GpuConfig::default());
        let buf = gpu.alloc_from_i32(&[0; 64], "b").unwrap();
        let queue = gpu.create_queue();
        let sink = Arc::new(ocelot_trace::TraceSink::new());
        queue.trace().attach(Arc::clone(&sink));
        queue.enqueue_write(&buf, &[]).unwrap();
        let launch = gpu.launch_config(64);
        let launch_groups = launch.num_groups;
        queue.enqueue_kernel(Arc::new(Increment { buf: buf.clone() }), launch, &[]).unwrap();
        queue.enqueue_read(&buf, &[]).unwrap();
        queue.flush().unwrap();
        queue.flush().unwrap(); // empty: must not emit a flush event
        use ocelot_trace::TraceEventKind as K;
        let shapes: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                K::Kernel { kernel, num_groups, n, .. } => Some((kernel, num_groups, n)),
                _ => None,
            })
            .collect();
        let groups = launch_groups as u64;
        assert_eq!(shapes, [("increment".to_string(), groups, 64)], "one launch, its shape");
        assert_eq!(sink.count(|e| matches!(e.kind, K::Transfer { .. })), 2);
        assert_eq!(
            sink.count(|e| matches!(e.kind, K::Flush { .. })) as u64,
            queue.flush_count(),
            "flush events mirror the effective flush count"
        );
        let events = sink.events();
        let flush = events
            .iter()
            .find_map(|e| match &e.kind {
                K::Flush { kernels, transfers, .. } => Some((*kernels, *transfers, e.dur_ns)),
                _ => None,
            })
            .unwrap();
        assert_eq!((flush.0, flush.1), (1, 2));
        assert!(flush.2 > 0, "flush event is a span");
        queue.trace().detach();
        let before = sink.len();
        let launch = gpu.launch_config(64);
        queue.enqueue_kernel(Arc::new(Increment { buf }), launch, &[]).unwrap();
        queue.flush().unwrap();
        assert_eq!(sink.len(), before, "detached queue emits nothing");
    }

    struct DeclaredWriter {
        buf: Buffer,
        range: std::ops::Range<usize>,
    }

    impl Kernel for DeclaredWriter {
        fn name(&self) -> &str {
            "declared_writer"
        }
        fn run_group(&self, _group: &mut WorkGroupCtx) {}
        fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<crate::race::KernelAccesses> {
            Some(crate::race::KernelAccesses::of(vec![crate::race::BufferAccess::slice_write(
                &self.buf,
                self.range.clone(),
            )]))
        }
    }

    #[test]
    fn race_detector_flags_unordered_overlap_and_accepts_ordered_writes() {
        let device = Device::cpu_sequential();
        let buf = device.alloc(64, "shared").unwrap();
        let queue = device.create_queue();
        queue.race().arm();
        let launch = device.launch_config(64);

        // Two event-unordered kernels with overlapping tier-2 writes.
        let a = DeclaredWriter { buf: buf.clone(), range: 0..40 };
        let b = DeclaredWriter { buf: buf.clone(), range: 32..64 };
        queue.enqueue_kernel(Arc::new(a), launch.clone(), &[]).unwrap();
        queue.enqueue_kernel(Arc::new(b), launch.clone(), &[]).unwrap();
        queue.flush().unwrap();
        let diags = queue.race().take_diagnostics();
        assert_eq!(diags.len(), 1, "overlap must surface as a diagnostic, not a panic");
        assert!(matches!(diags[0], crate::race::RaceDiagnostic::WriteWriteOverlap { .. }));

        // The same pair ordered by an event is clean.
        let a = DeclaredWriter { buf: buf.clone(), range: 0..40 };
        let b = DeclaredWriter { buf: buf.clone(), range: 32..64 };
        let first = queue.enqueue_kernel(Arc::new(a), launch.clone(), &[]).unwrap();
        queue.enqueue_kernel(Arc::new(b), launch.clone(), &[first]).unwrap();
        queue.flush().unwrap();
        assert!(queue.race().diagnostics().is_empty());

        // Disjoint unordered writes are clean too.
        let a = DeclaredWriter { buf: buf.clone(), range: 0..32 };
        let b = DeclaredWriter { buf, range: 32..64 };
        queue.enqueue_kernel(Arc::new(a), launch.clone(), &[]).unwrap();
        queue.enqueue_kernel(Arc::new(b), launch, &[]).unwrap();
        queue.flush().unwrap();
        assert!(queue.race().diagnostics().is_empty());
        let stats = queue.race().stats();
        assert_eq!(stats.kernels_observed, 6);
        assert_eq!(stats.kernels_declared, 6);
        assert_eq!(stats.violations, 1);
        queue.race().disarm();
    }

    #[test]
    fn race_detector_reports_declared_writes_to_mapped_host_memory() {
        let device = Device::cpu_sequential();
        let host = Arc::new(crate::buffer::tests::Words(vec![0; 64]));
        let mapped = device.map_host_capped(host, "base_column", usize::MAX).unwrap();
        let queue = device.create_queue();
        queue.race().arm();
        let launch = device.launch_config(64);
        let writer = DeclaredWriter { buf: mapped.clone(), range: 8..16 };
        queue.enqueue_kernel(Arc::new(writer), launch.clone(), &[]).unwrap();
        let diags = queue.race().take_diagnostics();
        assert_eq!(diags.len(), 1, "reported at enqueue, before anything runs");
        assert!(matches!(
            &diags[0],
            crate::race::RaceDiagnostic::MappedWrite { writer, range: (8, 16), .. }
                if writer == "declared_writer"
        ));
        assert!(diags[0].to_string().contains("read-only"));
        queue.flush().unwrap();
        // The same write into an owned buffer is legal.
        let owned = device.alloc(64, "result").unwrap();
        let writer = DeclaredWriter { buf: owned, range: 8..16 };
        queue.enqueue_kernel(Arc::new(writer), launch, &[]).unwrap();
        queue.flush().unwrap();
        assert!(queue.race().diagnostics().is_empty());
        queue.race().disarm();
    }

    #[test]
    fn flush_stats_project_into_the_registry() {
        let stats = FlushStats {
            kernels: 2,
            transfers: 3,
            host_ns: 10,
            modeled_ns: 20,
            bytes_to_device: 100,
            bytes_from_device: 200,
        };
        let mut reg = ocelot_trace::MetricsRegistry::new();
        stats.register_metrics("ocelot.queue", &mut reg);
        assert_eq!(reg.counter("ocelot.queue.kernels"), Some(2));
        assert_eq!(reg.counter("ocelot.queue.bytes_from_device"), Some(200));
    }
}
