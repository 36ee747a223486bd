//! Abstract compute devices and their drivers.
//!
//! A [`Device`] bundles three things:
//!
//! * a [`DeviceInfo`] describing the hardware the way an OpenCL platform
//!   query would (core count, compute units per core, local/global memory,
//!   unified vs. discrete memory, preferred access pattern),
//! * a driver that knows how to execute kernels on that hardware, and
//! * a [`MemAccountant`] that tracks how much of the device's global memory
//!   is in use (discrete GPUs have a hard capacity; running out triggers the
//!   Memory Manager's eviction logic in `ocelot-core`).
//!
//! The operators in `ocelot-core` never look at [`DeviceKind`]; the only
//! device-dependent decisions — launch configuration and preferred memory
//! access pattern — are made *here*, in the "driver", exactly as the paper
//! prescribes (§4.2).

use crate::buffer::Buffer;
use crate::error::{KernelError, Result};
use crate::fault::{FaultKind, FaultPlan, FaultSite, FaultStats};
use crate::gpu_sim::{GpuConfig, GpuCostModel};
use crate::kernel::{run_group_range, Kernel};
use crate::queue::Queue;
use crate::scheduling::{self, LaunchConfig};
use crate::thread_pool::ThreadPool;
use ocelot_trace::{TraceEventKind, TraceHandle};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The class of a compute device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A single CPU core; kernels are invoked sequentially within a loop.
    CpuSequential,
    /// A multi-core CPU; one work-group is scheduled per core.
    CpuMulticore,
    /// A discrete GPU with its own global memory, reached over a PCIe-like
    /// link. In this reproduction the GPU is *emulated*: kernels execute
    /// bit-faithfully on host threads, each work-group in lock-step (one
    /// contiguous run of the group's rows per round), while execution time
    /// is accounted by a calibrated cost model (see [`crate::gpu_sim`]).
    DiscreteGpu,
}

/// Preferred memory-access pattern of the threads within a work-group
/// (paper §4.2, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Each work-item walks a contiguous chunk of the input — optimal for
    /// CPU prefetching and caching.
    Contiguous,
    /// Neighbouring work-items access neighbouring locations (stride =
    /// total number of work-items) — the pattern GPUs coalesce into a single
    /// memory transaction.
    Strided,
}

/// Static description of a device, the analogue of `clGetDeviceInfo`.
#[derive(Debug, Clone)]
pub struct DeviceInfo {
    /// Device class.
    pub kind: DeviceKind,
    /// Human-readable device name.
    pub name: String,
    /// Number of cores (`nc` in the paper's scheduling heuristic).
    pub compute_cores: usize,
    /// Number of compute units per core (`na`).
    pub units_per_core: usize,
    /// Bytes of fast local (work-group shared) memory per core.
    pub local_mem_bytes: usize,
    /// Bytes of global device memory available for buffers.
    pub global_mem_bytes: usize,
    /// Whether the device shares the host's address space (zero-copy).
    pub unified_memory: bool,
    /// The access pattern the driver injects into kernels at build time.
    pub preferred_access: AccessPattern,
}

impl DeviceInfo {
    /// Total number of compute units on the device.
    pub fn total_compute_units(&self) -> usize {
        self.compute_cores * self.units_per_core
    }
}

/// Tracks allocated bytes against a device's global-memory capacity.
///
/// Buffers release their bytes when dropped, so the accountant's `used`
/// figure always reflects live allocations.
#[derive(Debug)]
pub struct MemAccountant {
    capacity: usize,
    used: AtomicUsize,
}

impl MemAccountant {
    /// Creates an accountant with the given capacity in bytes.
    pub fn new(capacity: usize) -> Self {
        MemAccountant { capacity, used: AtomicUsize::new(0) }
    }

    /// Attempts to reserve `bytes`; fails with
    /// [`KernelError::OutOfDeviceMemory`] if the capacity would be exceeded.
    pub fn try_alloc(&self, bytes: usize) -> Result<()> {
        self.try_alloc_capped(bytes, usize::MAX)
    }

    /// [`MemAccountant::try_alloc`] against `min(capacity, cap)` — the
    /// reservation primitive behind soft device-memory budgets. The check
    /// and the reservation are one atomic step (CAS), so concurrent
    /// sessions sharing the accountant cannot both squeeze past the cap.
    pub fn try_alloc_capped(&self, bytes: usize, cap: usize) -> Result<()> {
        let limit = self.capacity.min(cap);
        let mut current = self.used.load(Ordering::Relaxed);
        loop {
            let over = KernelError::OutOfDeviceMemory {
                requested: bytes,
                available: limit.saturating_sub(current),
            };
            let new = match current.checked_add(bytes) {
                Some(new) if new <= limit => new,
                _ => return Err(over),
            };
            match self.used.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Returns previously reserved bytes to the pool.
    pub fn release(&self, bytes: usize) {
        self.used.fetch_sub(bytes.min(self.used.load(Ordering::Relaxed)), Ordering::AcqRel);
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.capacity.saturating_sub(self.used())
    }
}

/// Timing report of a single kernel launch, produced by a driver.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DriverReport {
    /// Wall-clock nanoseconds spent executing on the host.
    pub host_ns: u64,
    /// Modeled nanoseconds on the target device (equals `host_ns` for real
    /// CPU devices, comes from the cost model for the simulated GPU).
    pub modeled_ns: u64,
}

/// A device driver: knows how to run kernels and how expensive host/device
/// transfers are.
pub(crate) trait Driver: Send + Sync {
    fn execute(&self, kernel: &Arc<dyn Kernel>, launch: &LaunchConfig) -> DriverReport;
    /// Modeled cost of moving `bytes` between host and device memory.
    fn transfer_ns(&self, bytes: usize) -> u64;
}

/// Driver that invokes the kernel sequentially within a loop on the calling
/// thread — the single-core CPU mapping described in §2.3.
struct SequentialDriver;

impl Driver for SequentialDriver {
    fn execute(&self, kernel: &Arc<dyn Kernel>, launch: &LaunchConfig) -> DriverReport {
        let start = Instant::now();
        run_group_range(kernel.as_ref(), launch, 0..launch.num_groups);
        let host_ns = start.elapsed().as_nanos() as u64;
        DriverReport { host_ns, modeled_ns: host_ns }
    }

    fn transfer_ns(&self, _bytes: usize) -> u64 {
        0
    }
}

/// Driver that maps work-groups onto the threads of a worker pool — the
/// multi-core CPU mapping (one work-group per core).
struct MulticoreDriver {
    pool: Arc<ThreadPool>,
}

impl MulticoreDriver {
    fn run_parallel(&self, kernel: &Arc<dyn Kernel>, launch: &LaunchConfig) {
        let groups = launch.num_groups;
        if groups == 0 {
            return;
        }
        // The scoped slice path borrows the kernel and launch directly: no
        // per-launch boxing, no Arc clone per worker.
        let kernel = kernel.as_ref();
        self.pool.for_each_slice(groups, |start, end| {
            run_group_range(kernel, launch, start..end);
        });
    }
}

impl Driver for MulticoreDriver {
    fn execute(&self, kernel: &Arc<dyn Kernel>, launch: &LaunchConfig) -> DriverReport {
        let start = Instant::now();
        self.run_parallel(kernel, launch);
        let host_ns = start.elapsed().as_nanos() as u64;
        DriverReport { host_ns, modeled_ns: host_ns }
    }

    fn transfer_ns(&self, _bytes: usize) -> u64 {
        0
    }
}

/// Driver for the simulated discrete GPU: executes kernels on the host pool
/// for correctness — a work-group's strided items in lock-step, round by
/// round, as contiguous runs — but reports modeled time from the
/// [`GpuCostModel`].
struct GpuSimDriver {
    inner: MulticoreDriver,
    model: GpuCostModel,
}

impl Driver for GpuSimDriver {
    fn execute(&self, kernel: &Arc<dyn Kernel>, launch: &LaunchConfig) -> DriverReport {
        let start = Instant::now();
        self.inner.run_parallel(kernel, launch);
        let host_ns = start.elapsed().as_nanos() as u64;
        let cost = kernel.cost(launch);
        let modeled_ns = self.model.kernel_ns(&cost, launch);
        DriverReport { host_ns, modeled_ns }
    }

    fn transfer_ns(&self, bytes: usize) -> u64 {
        self.model.transfer_ns(bytes)
    }
}

/// Fault-injection state shared by every clone of a device: the installed
/// plan (if any) and the sticky "lost" flag (see [`crate::fault`]).
#[derive(Default)]
struct FaultCell {
    plan: Mutex<Option<FaultPlan>>,
    lost: AtomicBool,
}

/// A handle to a compute device. Cloning is cheap (all state is shared).
#[derive(Clone)]
pub struct Device {
    info: Arc<DeviceInfo>,
    driver: Arc<dyn Driver>,
    mem: Arc<MemAccountant>,
    next_buffer_id: Arc<AtomicU64>,
    faults: Arc<FaultCell>,
    trace: Arc<TraceHandle>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("kind", &self.info.kind)
            .field("name", &self.info.name)
            .field("cores", &self.info.compute_cores)
            .field("units_per_core", &self.info.units_per_core)
            .finish()
    }
}

impl Device {
    /// Single-core CPU device: kernels are invoked sequentially.
    pub fn cpu_sequential() -> Device {
        let info = DeviceInfo {
            kind: DeviceKind::CpuSequential,
            name: "Ocelot sequential CPU driver".to_string(),
            compute_cores: 1,
            units_per_core: 1,
            local_mem_bytes: 256 * 1024,
            global_mem_bytes: usize::MAX,
            unified_memory: true,
            preferred_access: AccessPattern::Contiguous,
        };
        Device::from_parts(info, Arc::new(SequentialDriver))
    }

    /// Multi-core CPU device sized to the machine's available parallelism.
    pub fn cpu_multicore() -> Device {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Device::cpu_multicore_with(threads)
    }

    /// Multi-core CPU device with an explicit number of worker threads.
    pub fn cpu_multicore_with(threads: usize) -> Device {
        let threads = threads.max(1);
        let info = DeviceInfo {
            kind: DeviceKind::CpuMulticore,
            name: format!("Ocelot multi-core CPU driver ({threads} threads)"),
            compute_cores: threads,
            units_per_core: 1,
            local_mem_bytes: 256 * 1024,
            global_mem_bytes: usize::MAX,
            unified_memory: true,
            preferred_access: AccessPattern::Contiguous,
        };
        let pool = Arc::new(ThreadPool::new(threads));
        Device::from_parts(info, Arc::new(MulticoreDriver { pool }))
    }

    /// Simulated discrete GPU device (see [`GpuConfig`] for the knobs).
    pub fn simulated_gpu(config: GpuConfig) -> Device {
        let info = DeviceInfo {
            kind: DeviceKind::DiscreteGpu,
            name: format!(
                "Ocelot simulated GPU ({} MPs x {} units, {} MiB)",
                config.multiprocessors,
                config.units_per_multiprocessor,
                config.global_mem_bytes / (1024 * 1024)
            ),
            compute_cores: config.multiprocessors,
            units_per_core: config.units_per_multiprocessor,
            local_mem_bytes: config.local_mem_bytes,
            global_mem_bytes: config.global_mem_bytes,
            unified_memory: false,
            preferred_access: AccessPattern::Strided,
        };
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let pool = Arc::new(ThreadPool::new(threads));
        let model = GpuCostModel::new(config);
        Device::from_parts(info, Arc::new(GpuSimDriver { inner: MulticoreDriver { pool }, model }))
    }

    fn from_parts(info: DeviceInfo, driver: Arc<dyn Driver>) -> Device {
        let mem = Arc::new(MemAccountant::new(info.global_mem_bytes));
        Device {
            info: Arc::new(info),
            driver,
            mem,
            next_buffer_id: Arc::new(AtomicU64::new(1)),
            faults: Arc::new(FaultCell::default()),
            trace: Arc::new(TraceHandle::new()),
        }
    }

    /// The device's trace attachment point, shared by every clone: attach a
    /// [`ocelot_trace::TraceSink`] and successful allocations emit
    /// [`TraceEventKind::Alloc`] events tagged with the op site the fault
    /// layer also uses (`"allocation"`).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Installs a [`FaultPlan`] on the device (replacing any previous one).
    /// Every clone of this device — and every queue created from any clone
    /// — consults the plan at kernel launches, transfers and allocations.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *self.faults.plan.lock() = Some(plan);
    }

    /// Removes the installed fault plan. Does **not** revive a lost device
    /// — loss is sticky for the lifetime of the device object.
    pub fn clear_fault_plan(&self) {
        *self.faults.plan.lock() = None;
    }

    /// Counters of the installed fault plan, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.plan.lock().as_ref().map(|plan| plan.stats())
    }

    /// Whether the device has (simulated) dropped off the bus. Once lost,
    /// every launch, transfer, allocation and non-empty flush fails with
    /// [`KernelError::DeviceLost`].
    pub fn is_lost(&self) -> bool {
        self.faults.lost.load(Ordering::Relaxed)
    }

    /// Consults the fault plan before an operation at `site`. Errors when
    /// the device is lost or the plan fires; advances the plan's counters
    /// otherwise. The single fault decision point the queue and the
    /// allocator route through.
    pub(crate) fn fault_preflight(&self, site: FaultSite) -> Result<()> {
        if self.is_lost() {
            return Err(KernelError::DeviceLost);
        }
        let fired = self.faults.plan.lock().as_ref().and_then(|plan| plan.fire(site));
        match fired {
            None => Ok(()),
            Some((FaultKind::DeviceLost, _)) => {
                self.faults.lost.store(true, Ordering::Relaxed);
                Err(KernelError::DeviceLost)
            }
            Some((FaultKind::AllocFailed, _)) => Err(KernelError::OutOfDeviceMemory {
                requested: 0,
                available: self.mem.available(),
            }),
            Some((FaultKind::TransientKernel | FaultKind::TransientTransfer, op)) => {
                Err(KernelError::TransientFault { site, op })
            }
        }
    }

    /// The device's static description.
    pub fn info(&self) -> &DeviceInfo {
        &self.info
    }

    /// The device's global-memory accountant.
    pub fn memory(&self) -> &MemAccountant {
        &self.mem
    }

    /// Whether the device shares the host address space.
    pub fn is_unified(&self) -> bool {
        self.info.unified_memory
    }

    /// Allocates an uninitialised (zeroed) buffer of `words` 32-bit words on
    /// this device.
    pub fn alloc(&self, words: usize, label: &str) -> Result<Buffer> {
        self.alloc_capped(words, label, usize::MAX)
    }

    /// [`Device::alloc`] that additionally respects a caller-supplied cap
    /// on device-wide used bytes (a soft memory budget). The budget check
    /// and the reservation are a single atomic step — see
    /// [`MemAccountant::try_alloc_capped`].
    pub fn alloc_capped(&self, words: usize, label: &str, cap_bytes: usize) -> Result<Buffer> {
        let bytes = words * 4;
        if let Err(error) = self.fault_preflight(FaultSite::Alloc) {
            // An injected allocation fault reports the real request size so
            // the eviction/restart protocol reclaims a meaningful amount.
            return Err(match error {
                KernelError::OutOfDeviceMemory { .. } => KernelError::OutOfDeviceMemory {
                    requested: bytes,
                    available: self.mem.available(),
                },
                other => other,
            });
        }
        self.mem.try_alloc_capped(bytes, cap_bytes)?;
        let id = self.next_buffer_id.fetch_add(1, Ordering::Relaxed);
        self.trace.emit(|| TraceEventKind::Alloc { label: label.to_string(), bytes: bytes as u64 });
        Ok(Buffer::new(id, words, label, Some(Arc::clone(&self.mem))))
    }

    /// Allocates a buffer and fills it with the given `i32` values.
    pub fn alloc_from_i32(&self, values: &[i32], label: &str) -> Result<Buffer> {
        let buf = self.alloc(values.len(), label)?;
        buf.copy_from_i32(values);
        Ok(buf)
    }

    /// Allocates a buffer and fills it with the given `f32` values.
    pub fn alloc_from_f32(&self, values: &[f32], label: &str) -> Result<Buffer> {
        let buf = self.alloc(values.len(), label)?;
        buf.copy_from_f32(values);
        Ok(buf)
    }

    /// Allocates a buffer and fills it with the given `u32` values.
    pub fn alloc_from_u32(&self, values: &[u32], label: &str) -> Result<Buffer> {
        let buf = self.alloc(values.len(), label)?;
        buf.copy_from_u32(values);
        Ok(buf)
    }

    /// The driver's default launch configuration for a problem of `n`
    /// elements: one work-group per core, `4 ×` compute-units work-items per
    /// group, device-preferred access pattern (paper §4.2).
    pub fn launch_config(&self, n: usize) -> LaunchConfig {
        scheduling::default_launch(&self.info, n)
    }

    /// Like [`Device::launch_config`] but reserving `local_words` 32-bit
    /// words of local memory per work-group.
    pub fn launch_config_with_local(&self, n: usize, local_words: usize) -> LaunchConfig {
        scheduling::default_launch(&self.info, n).with_local_words(local_words)
    }

    /// Creates a new lazily-evaluated command queue on this device.
    pub fn create_queue(&self) -> Queue {
        Queue::new(self.clone())
    }

    /// Modeled host/device transfer cost for `bytes` (zero for unified
    /// memory devices).
    pub(crate) fn transfer_ns(&self, bytes: usize) -> u64 {
        if self.info.unified_memory {
            0
        } else {
            self.driver.transfer_ns(bytes)
        }
    }

    pub(crate) fn execute_kernel(
        &self,
        kernel: &Arc<dyn Kernel>,
        launch: &LaunchConfig,
    ) -> DriverReport {
        self.driver.execute(kernel, launch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accountant_enforces_capacity() {
        let acc = MemAccountant::new(100);
        acc.try_alloc(60).unwrap();
        acc.try_alloc(40).unwrap();
        let err = acc.try_alloc(1).unwrap_err();
        assert!(matches!(err, KernelError::OutOfDeviceMemory { .. }));
        acc.release(50);
        acc.try_alloc(30).unwrap();
        assert_eq!(acc.used(), 80);
        assert_eq!(acc.available(), 20);
    }

    #[test]
    fn capped_reservation_is_atomic_and_respects_the_smaller_limit() {
        let acc = MemAccountant::new(1000);
        acc.try_alloc_capped(300, 500).unwrap();
        let err = acc.try_alloc_capped(300, 500).unwrap_err();
        match err {
            KernelError::OutOfDeviceMemory { requested, available } => {
                assert_eq!(requested, 300);
                assert_eq!(available, 200, "available is against the cap, not capacity");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Capacity still binds when it is the smaller limit.
        acc.try_alloc_capped(700, usize::MAX).unwrap();
        assert!(acc.try_alloc_capped(1, usize::MAX).is_err());
        acc.release(1000);
        // Concurrent reservations against a cap never jointly overshoot.
        let acc = std::sync::Arc::new(MemAccountant::new(usize::MAX));
        let grabbed: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let acc = std::sync::Arc::clone(&acc);
                    scope.spawn(move || {
                        (0..100).filter(|_| acc.try_alloc_capped(7, 1000).is_ok()).count() * 7
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert!(grabbed <= 1000, "cap overshot: {grabbed}");
        assert_eq!(acc.used(), grabbed);
    }

    #[test]
    fn cpu_devices_report_unified_memory() {
        assert!(Device::cpu_sequential().is_unified());
        assert!(Device::cpu_multicore().is_unified());
        assert!(!Device::simulated_gpu(GpuConfig::default()).is_unified());
    }

    #[test]
    fn gpu_allocation_limited_by_device_memory() {
        let cfg = GpuConfig { global_mem_bytes: 1024, ..Default::default() }; // 256 words
        let gpu = Device::simulated_gpu(cfg);
        let _a = gpu.alloc(200, "a").unwrap();
        let err = gpu.alloc(100, "b").unwrap_err();
        assert!(matches!(err, KernelError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn dropping_buffer_frees_device_memory() {
        let cfg = GpuConfig { global_mem_bytes: 1024, ..Default::default() };
        let gpu = Device::simulated_gpu(cfg);
        {
            let _a = gpu.alloc(200, "a").unwrap();
            assert_eq!(gpu.memory().used(), 800);
        }
        assert_eq!(gpu.memory().used(), 0);
        gpu.alloc(256, "b").unwrap();
    }

    #[test]
    fn preferred_access_patterns_match_paper() {
        assert_eq!(Device::cpu_multicore().info().preferred_access, AccessPattern::Contiguous);
        assert_eq!(
            Device::simulated_gpu(GpuConfig::default()).info().preferred_access,
            AccessPattern::Strided
        );
    }

    #[test]
    fn alloc_from_slices_round_trips() {
        let dev = Device::cpu_sequential();
        let ints = dev.alloc_from_i32(&[-1, 2, 3], "ints").unwrap();
        assert_eq!(ints.to_vec_i32(), vec![-1, 2, 3]);
        let floats = dev.alloc_from_f32(&[1.5, -2.5], "floats").unwrap();
        assert_eq!(floats.to_vec_f32(), vec![1.5, -2.5]);
        let words = dev.alloc_from_u32(&[7, 8], "words").unwrap();
        assert_eq!(words.to_vec_u32(), vec![7, 8]);
    }

    #[test]
    fn launch_config_uses_heuristic() {
        let dev = Device::cpu_multicore_with(4);
        let launch = dev.launch_config(1000);
        assert_eq!(launch.num_groups, 4);
        assert_eq!(launch.group_size, 4);
        assert_eq!(launch.access, AccessPattern::Contiguous);

        let gpu = Device::simulated_gpu(GpuConfig::default());
        let launch = gpu.launch_config(1000);
        assert_eq!(launch.num_groups, gpu.info().compute_cores);
        assert_eq!(launch.group_size, 4 * gpu.info().units_per_core);
        assert_eq!(launch.access, AccessPattern::Strided);
    }
}
