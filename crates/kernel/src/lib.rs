//! # ocelot-kernel — a kernel-programming-model runtime
//!
//! This crate is the substrate that replaces OpenCL in the Rust reproduction
//! of *"Hardware-Oblivious Parallelism for In-Memory Column-Stores"*
//! (Heimel et al., VLDB 2013). It provides the abstractions the paper's
//! operators are written against:
//!
//! * [`Device`] — an abstract compute device described by a [`DeviceInfo`]
//!   (core count, compute units per core, local/global memory sizes, unified
//!   vs. discrete memory, preferred memory-access pattern). Three device
//!   "drivers" are provided: a sequential CPU driver, a multi-core CPU driver
//!   backed by a work-stealing-free thread pool, and a **simulated discrete
//!   GPU** driver that executes kernels bit-faithfully on host threads while
//!   accounting a modeled execution time from a calibrated cost model
//!   ([`GpuConfig`]).
//! * [`Buffer`] — the `cl_mem` analogue: a flat array of 32-bit words living
//!   in host memory, with residency tracking against the owning device's
//!   global-memory budget. On a unified-memory device a buffer can map
//!   read-only host memory in place ([`HostWords`], `CL_MEM_USE_HOST_PTR`).
//! * [`Kernel`] — the kernel trait. A kernel is executed once per
//!   *work-group*; each work-item owns a share of the input chosen by the
//!   device's preferred [`AccessPattern`] (contiguous chunks on CPUs,
//!   strided/coalesced interleaving on GPUs — paper §4.2, Figure 4), and a
//!   group walks its items' rows as contiguous runs
//!   ([`WorkGroupCtx::runs`]): one chunk on a CPU, one run per lock-step
//!   round on a GPU.
//! * [`Queue`] — a lazily evaluated command queue with an event model:
//!   operators only *schedule* kernel invocations and transfers together with
//!   wait-lists; nothing runs until [`Queue::flush`] (paper §3.4). The queue
//!   runs its operations in submission order, so its events' state is two
//!   counters — the last issued [`EventId`] and a completion watermark
//!   ([`Queue::is_complete`]) — and stays the same size however long a
//!   session runs. Per-kernel timings and launch shapes are trace events
//!   (`ocelot_trace::TraceEventKind::Kernel`).
//!
//! The crate is deliberately free of any relational logic: it only knows
//! about devices, buffers, kernels and events. Everything database-shaped
//! lives in `ocelot-core` on top of this interface, which is what makes those
//! operators *hardware-oblivious*.
//!
//! ## Example
//!
//! ```
//! use ocelot_kernel::{Device, Kernel, KernelCost, LaunchConfig, WorkGroupCtx};
//! use std::sync::Arc;
//!
//! /// The "add a constant" kernel from Listing 1 of the paper.
//! struct AddConst {
//!     input: ocelot_kernel::Buffer,
//!     output: ocelot_kernel::Buffer,
//!     constant: i32,
//! }
//!
//! impl Kernel for AddConst {
//!     fn name(&self) -> &str { "add_const" }
//!     fn run_group(&self, group: &mut WorkGroupCtx) {
//!         let input = self.input.as_words();
//!         for run in group.runs(group.n()) {
//!             // SAFETY: a group's runs are its own rows of the output.
//!             let output = unsafe { self.output.chunk_mut(run.start, run.end) };
//!             for (out, &v) in output.iter_mut().zip(&input[run]) {
//!                 *out = (v as i32 + self.constant) as u32;
//!             }
//!         }
//!     }
//! }
//!
//! let device = Device::cpu_multicore();
//! let n = 1024;
//! let input = device.alloc(n, "input").unwrap();
//! let output = device.alloc(n, "output").unwrap();
//! for i in 0..n {
//!     input.set_i32(i, i as i32);
//! }
//!
//! let queue = device.create_queue();
//! let launch = device.launch_config(n);
//! let kernel = Arc::new(AddConst { input: input.clone(), output: output.clone(), constant: 7 });
//! let ev = queue.enqueue_kernel(kernel, launch, &[]).unwrap();
//! queue.flush().unwrap();
//! assert!(queue.is_complete(ev));
//! assert_eq!(output.get_i32(100), 107);
//! ```

pub mod atomic;
pub mod buffer;
pub mod device;
pub mod error;
pub mod event;
pub mod fault;
pub mod gpu_sim;
pub mod kernel;
pub mod queue;
pub mod race;
pub mod scheduling;
pub mod thread_pool;

pub use buffer::{Buffer, HostCopy, HostWords};
pub use device::{AccessPattern, Device, DeviceInfo, DeviceKind, MemAccountant};
pub use error::{KernelError, Result};
pub use event::EventId;
pub use fault::{FaultKind, FaultPlan, FaultSite, FaultSpec, FaultStats};
pub use gpu_sim::{GpuConfig, GpuCostModel};
pub use kernel::{Kernel, KernelCost, LocalMem, WorkGroupCtx, WorkItem};
pub use queue::{FlushStats, Queue};
pub use race::{
    AccessMode, AccessTier, BitmapClaim, BufferAccess, KernelAccesses, RaceDetector,
    RaceDiagnostic, RaceStats,
};
pub use scheduling::LaunchConfig;
pub use thread_pool::ThreadPool;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct Doubler {
        buf: Buffer,
    }

    impl Kernel for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn run_group(&self, group: &mut WorkGroupCtx) {
            for item in group.items() {
                for idx in item.assigned() {
                    let v = self.buf.get_i32(idx);
                    self.buf.set_i32(idx, v * 2);
                }
            }
        }
    }

    fn run_doubler_on(device: &Device, n: usize) -> Vec<i32> {
        let buf = device.alloc(n, "data").unwrap();
        for i in 0..n {
            buf.set_i32(i, i as i32);
        }
        let queue = device.create_queue();
        let launch = device.launch_config(n);
        queue.enqueue_kernel(Arc::new(Doubler { buf: buf.clone() }), launch, &[]).unwrap();
        queue.flush().unwrap();
        (0..n).map(|i| buf.get_i32(i)).collect()
    }

    #[test]
    fn same_kernel_runs_on_all_devices() {
        let n = 10_000;
        let expected: Vec<i32> = (0..n as i32).map(|v| v * 2).collect();
        for device in [
            Device::cpu_sequential(),
            Device::cpu_multicore(),
            Device::simulated_gpu(GpuConfig::default()),
        ] {
            assert_eq!(run_doubler_on(&device, n), expected, "device {:?}", device.info().kind);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        for device in [Device::cpu_sequential(), Device::cpu_multicore()] {
            assert!(run_doubler_on(&device, 0).is_empty());
        }
    }
}
