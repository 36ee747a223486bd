//! Writing a custom kernel against the hardware-oblivious runtime.
//!
//! Run with `cargo run --release -p ocelot-examples --example custom_kernel`.
//!
//! The paper's pitch (§4) is that one kernel, written once against the
//! OpenCL-style programming model, runs unchanged on every device the
//! driver layer exposes. This example builds a two-kernel pipeline the way
//! `ocelot-core`'s operators are built:
//!
//! 1. `custom.mul` — a Listing-1-style map kernel producing
//!    `out[i] = a[i] * b[i]`, walking its work-group's rows as slices
//!    (`WorkGroupCtx::runs`).
//! 2. `custom.group_sum` — a two-phase reduction: each work-item folds its
//!    assigned slice into **group-local memory**, then the group reduces
//!    its local cells into one partial sum per work-group.
//!
//! The second kernel waits on the first through the event model, nothing
//! executes until the single `flush`, and the final dot product is
//! identical on the sequential CPU, the multicore CPU and the simulated
//! GPU — even though each device partitions the index space differently
//! (contiguous chunks vs strided interleaving): wrapping-add is
//! commutative, so the partition cannot show through.

use ocelot_kernel::{Buffer, Device, GpuConfig, Kernel, WorkGroupCtx};
use std::sync::Arc;

/// `out[i] = a[i] * b[i]` (wrapping): the map phase.
struct MulKernel {
    a: Buffer,
    b: Buffer,
    out: Buffer,
}

impl Kernel for MulKernel {
    fn name(&self) -> &str {
        "custom.mul"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let (a, b) = (self.a.as_words(), self.b.as_words());
        // The group's rows as contiguous runs: one chunk on a CPU, one run
        // per lock-step round on the GPU.
        for run in group.runs(group.n()) {
            // SAFETY: a group's runs are its own rows, no other group's.
            let out = unsafe { self.out.chunk_mut(run.start, run.end) };
            for ((o, &x), &y) in out.iter_mut().zip(&a[run.clone()]).zip(&b[run]) {
                *o = (x as i32).wrapping_mul(y as i32) as u32;
            }
        }
    }
}

/// `partials[group_id] = Σ input[i]` over the group's share, reduced
/// through group-local memory like an OpenCL two-phase reduction.
struct GroupSumKernel {
    input: Buffer,
    partials: Buffer,
}

impl Kernel for GroupSumKernel {
    fn name(&self) -> &str {
        "custom.group_sum"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        for (slot, item) in group.items().enumerate() {
            let mut acc = 0i32;
            for idx in item.assigned() {
                acc = acc.wrapping_add(self.input.get_i32(idx));
            }
            group.local().set_i32(slot, acc);
        }
        group.barrier();
        let mut acc = 0i32;
        for slot in 0..group.group_size() {
            acc = acc.wrapping_add(group.local().get_i32(slot));
        }
        self.partials.set_i32(group.group_id(), acc);
    }
}

/// Runs the pipeline on one device and returns the dot product.
fn dot_on(device: &Device, a: &[i32], b: &[i32]) -> i32 {
    let n = a.len();
    let buf_a = device.alloc(n, "a").unwrap();
    let buf_b = device.alloc(n, "b").unwrap();
    let out = device.alloc(n, "out").unwrap();
    for i in 0..n {
        buf_a.set_i32(i, a[i]);
        buf_b.set_i32(i, b[i]);
    }

    // The driver picks the launch shape (one group per core, §4.2) and the
    // access pattern; the kernels never see the device kind.
    let launch = device.launch_config(n);
    let partials = device.alloc(launch.num_groups, "partials").unwrap();
    let reduce_launch = launch.clone().with_local_words(launch.group_size);

    let queue = device.create_queue();
    let map = Arc::new(MulKernel { a: buf_a, b: buf_b, out: out.clone() });
    let ev = queue.enqueue_kernel(map, launch.clone(), &[]).unwrap();
    let reduce = Arc::new(GroupSumKernel { input: out, partials: partials.clone() });
    queue.enqueue_kernel(reduce, reduce_launch, &[ev]).unwrap();

    // Lazy queue: both kernels are scheduled, nothing has run yet.
    assert!(queue.pending_ops() > 0, "work must be enqueued, not executed");
    queue.flush().unwrap();

    (0..launch.num_groups).fold(0i32, |acc, g| acc.wrapping_add(partials.get_i32(g)))
}

fn main() {
    let n = 100_000i32;
    let a: Vec<i32> = (0..n).map(|i| i.wrapping_mul(2_654_435_761u32 as i32)).collect();
    let b: Vec<i32> = (0..n).map(|i| (i % 1_000) - 500).collect();
    let expected = a.iter().zip(&b).fold(0i32, |acc, (x, y)| acc.wrapping_add(x.wrapping_mul(*y)));

    for device in [
        Device::cpu_sequential(),
        Device::cpu_multicore(),
        Device::simulated_gpu(GpuConfig::default()),
    ] {
        let got = dot_on(&device, &a, &b);
        assert_eq!(got, expected, "device {:?} diverged", device.info().kind);
        println!("{:>16?}: dot product {got} (matches host reference)", device.info().kind);
    }
    println!("ok: one custom kernel pipeline, three devices, identical results");
}
