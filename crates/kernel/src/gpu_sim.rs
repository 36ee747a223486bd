//! Performance model of the simulated discrete GPU.
//!
//! There is no physical GPU (and no OpenCL driver) in the reproduction
//! environment, so the GPU device executes kernels bit-faithfully on host
//! threads and *accounts* a modeled execution time instead of measuring one.
//! It runs a work-group the way a GPU does, in lock-step: under the strided
//! pattern the group's items touch neighbouring words in each round, so the
//! host walks one contiguous run of `group_size` words per round
//! (`WorkGroupCtx::runs`), not one item's rows at a stride of every
//! work-item in the launch.
//! The model captures the three effects the paper's GPU results hinge on:
//!
//! 1. **High device-memory bandwidth** when accesses are coalesced — the
//!    reason Ocelot-on-GPU beats the CPU configurations while data is
//!    resident (Figures 5 and 7a).
//! 2. **A PCIe-like transfer cost** for every host/device copy — the reason
//!    the GPU's lead shrinks once the Memory Manager has to swap buffers in
//!    and out (Figure 7b, 7d).
//! 3. **Limited global memory** — the reason GPU curves end midway in the
//!    microbenchmarks and the reason scale-factor-50 TPC-H is CPU-only
//!    (Figure 7c).
//!
//! Default parameters are modeled after the paper's NVIDIA GTX 460 (7
//! multiprocessors × 48 compute units, 48 KiB local memory) with the global
//! memory capacity left configurable so benchmarks can downscale it together
//! with the downscaled data volumes.

use crate::device::AccessPattern;
use crate::kernel::KernelCost;
use crate::scheduling::LaunchConfig;

/// Configuration of the simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of multiprocessors (cores). GTX 460: 7.
    pub multiprocessors: usize,
    /// Compute units per multiprocessor. GTX 460: 48.
    pub units_per_multiprocessor: usize,
    /// Bytes of global device memory available to buffers.
    pub global_mem_bytes: usize,
    /// Bytes of local (on-chip, per work-group) memory. GTX 460: 48 KiB.
    pub local_mem_bytes: usize,
    /// Device-memory bandwidth in GiB/s for coalesced access.
    pub mem_bandwidth_gib: f64,
    /// Penalty factor applied to bandwidth when the launch uses the
    /// contiguous (non-coalesced) access pattern.
    pub uncoalesced_penalty: f64,
    /// PCIe transfer bandwidth in GiB/s.
    pub pcie_bandwidth_gib: f64,
    /// Scalar-operation throughput in billions of operations per second.
    pub giga_ops: f64,
    /// Cost of a single global atomic operation in nanoseconds.
    pub atomic_ns: f64,
    /// Fixed overhead per kernel launch in nanoseconds.
    pub launch_overhead_ns: u64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            multiprocessors: 7,
            units_per_multiprocessor: 48,
            // The real card has 2 GiB; the default here is smaller so that the
            // downscaled benchmark workloads exercise the same
            // "data no longer fits" transitions the paper reports.
            global_mem_bytes: 256 * 1024 * 1024,
            local_mem_bytes: 48 * 1024,
            mem_bandwidth_gib: 90.0,
            uncoalesced_penalty: 4.0,
            pcie_bandwidth_gib: 6.0,
            giga_ops: 450.0,
            atomic_ns: 1.5,
            launch_overhead_ns: 5_000,
        }
    }
}

impl GpuConfig {
    /// A configuration whose device memory is limited to `bytes`, used by
    /// tests and benchmarks that need to trigger eviction and host offload.
    pub fn with_global_mem(mut self, bytes: usize) -> Self {
        self.global_mem_bytes = bytes;
        self
    }

    /// Scales the compute-side parameters (bandwidth and operation
    /// throughput) by `factor`, keeping transfer costs fixed. Useful for
    /// ablation benchmarks over device capability.
    pub fn scaled_compute(mut self, factor: f64) -> Self {
        self.mem_bandwidth_gib *= factor;
        self.giga_ops *= factor;
        self
    }
}

/// The cost model derived from a [`GpuConfig`].
#[derive(Debug, Clone)]
pub struct GpuCostModel {
    config: GpuConfig,
}

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

impl GpuCostModel {
    /// Builds the model.
    pub fn new(config: GpuConfig) -> Self {
        GpuCostModel { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Modeled execution time of one kernel launch.
    ///
    /// The kernel is modeled as bandwidth-bound or compute-bound (whichever
    /// is slower), with an additive penalty for global atomics and a fixed
    /// launch overhead.
    pub fn kernel_ns(&self, cost: &KernelCost, launch: &LaunchConfig) -> u64 {
        let bandwidth = match launch.access {
            AccessPattern::Strided => self.config.mem_bandwidth_gib,
            AccessPattern::Contiguous => {
                self.config.mem_bandwidth_gib / self.config.uncoalesced_penalty.max(1.0)
            }
        };
        let memory_ns = (cost.bytes_total() as f64) / (bandwidth * GIB) * 1e9;
        let compute_ns = (cost.scalar_ops as f64) / (self.config.giga_ops * 1e9) * 1e9;
        let atomic_ns = (cost.atomic_ops as f64) * self.config.atomic_ns;
        let body = memory_ns.max(compute_ns) + atomic_ns;
        self.config.launch_overhead_ns + body.round() as u64
    }

    /// Modeled cost of moving `bytes` across the PCIe link.
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let ns = (bytes as f64) / (self.config.pcie_bandwidth_gib * GIB) * 1e9;
        // A small fixed latency per transfer keeps many tiny transfers more
        // expensive than one large one, like a real PCIe link.
        2_000 + ns.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::AccessPattern;

    fn launch(access: AccessPattern) -> LaunchConfig {
        LaunchConfig::new(7, 192, 1 << 20, access)
    }

    #[test]
    fn coalesced_access_is_faster() {
        let model = GpuCostModel::new(GpuConfig::default());
        let cost = KernelCost::streaming(1 << 20);
        let coalesced = model.kernel_ns(&cost, &launch(AccessPattern::Strided));
        let uncoalesced = model.kernel_ns(&cost, &launch(AccessPattern::Contiguous));
        assert!(uncoalesced > coalesced);
    }

    #[test]
    fn atomics_add_cost() {
        let model = GpuCostModel::new(GpuConfig::default());
        let mut cost = KernelCost::streaming(1 << 20);
        let without = model.kernel_ns(&cost, &launch(AccessPattern::Strided));
        cost.atomic_ops = 1 << 20;
        let with = model.kernel_ns(&cost, &launch(AccessPattern::Strided));
        assert!(with > without);
    }

    #[test]
    fn larger_kernels_cost_more() {
        let model = GpuCostModel::new(GpuConfig::default());
        let small =
            model.kernel_ns(&KernelCost::streaming(1 << 10), &launch(AccessPattern::Strided));
        let large =
            model.kernel_ns(&KernelCost::streaming(1 << 24), &launch(AccessPattern::Strided));
        assert!(large > small);
    }

    #[test]
    fn transfers_scale_with_bytes_and_zero_is_free() {
        let model = GpuCostModel::new(GpuConfig::default());
        assert_eq!(model.transfer_ns(0), 0);
        let one_mib = model.transfer_ns(1 << 20);
        let ten_mib = model.transfer_ns(10 << 20);
        assert!(ten_mib > one_mib);
        assert!(one_mib > 0);
    }

    #[test]
    fn config_builders() {
        let cfg = GpuConfig::default().with_global_mem(1024).scaled_compute(2.0);
        assert_eq!(cfg.global_mem_bytes, 1024);
        assert!(cfg.mem_bandwidth_gib > GpuConfig::default().mem_bandwidth_gib);
    }

    #[test]
    fn launch_overhead_is_always_charged() {
        let model = GpuCostModel::new(GpuConfig::default());
        let empty = KernelCost::new(0, 0, 0, 0);
        let ns = model.kernel_ns(&empty, &launch(AccessPattern::Strided));
        assert!(ns >= GpuConfig::default().launch_overhead_ns);
    }
}
