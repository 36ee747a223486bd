//! Hierarchical parallel reductions for ungrouped aggregation
//! (paper §4.1.7, "implemented using a parallel binary reduction strategy").
//!
//! Phase 1: every work-group reduces its rows — its runs
//! (`WorkGroupCtx::runs`), in the order it walks them — into one private
//! accumulator and writes it to a partials buffer. Phase 2: a single
//! work-item reduces the partials (there are only `num_groups` of them). The
//! same two kernels serve SUM/MIN/MAX over `i32` and `f32` by switching on a
//! [`ReduceOp`] tag, exactly like an OpenCL kernel would switch on a
//! preprocessor constant. The launch configuration and the resolved length
//! fix every addition's order, so a float sum is bit-identical run to run
//! on one device configuration.
//!
//! Every reduction returns a **deferred** [`DevScalar`]: the result stays in
//! a one-word device buffer until the caller's `.get()`, which is the
//! pipeline's only flush. Inputs with deferred lengths (e.g. a gather over a
//! not-yet-counted selection) are supported — the kernels resolve the actual
//! element count from the [`LenSource`] counter at flush time.

use crate::context::{DevColumn, DevScalar, DevWord, LenSource, OcelotContext};
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result, WorkGroupCtx,
};
use std::sync::Arc;

/// Which reduction to perform and over which element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of `f32` values.
    SumF32,
    /// Minimum of `f32` values.
    MinF32,
    /// Maximum of `f32` values.
    MaxF32,
    /// Sum of `i32` values (wrapping; bit-identical to unsigned wrapping
    /// sums, so it also serves `u32` counts).
    SumI32,
    /// Minimum of `i32` values.
    MinI32,
    /// Maximum of `i32` values.
    MaxI32,
}

impl ReduceOp {
    /// The identity element of the reduction, as a raw 32-bit word.
    fn identity_word(self) -> u32 {
        match self {
            ReduceOp::SumF32 => 0f32.to_bits(),
            ReduceOp::MinF32 => f32::INFINITY.to_bits(),
            ReduceOp::MaxF32 => f32::NEG_INFINITY.to_bits(),
            ReduceOp::SumI32 => 0,
            ReduceOp::MinI32 => i32::MAX as u32,
            ReduceOp::MaxI32 => i32::MIN as u32,
        }
    }

    /// Reduces a word slice onto `acc` with a monomorphised inner loop: the
    /// operation dispatch happens once per slice, not once per element, so
    /// the compiler can keep the accumulator in a register and vectorise.
    fn reduce_slice(self, acc: u32, words: &[u32]) -> u32 {
        match self {
            ReduceOp::SumF32 => {
                let mut sum = f32::from_bits(acc);
                for &w in words {
                    sum += f32::from_bits(w);
                }
                sum.to_bits()
            }
            ReduceOp::MinF32 => {
                let mut min = f32::from_bits(acc);
                for &w in words {
                    min = min.min(f32::from_bits(w));
                }
                min.to_bits()
            }
            ReduceOp::MaxF32 => {
                let mut max = f32::from_bits(acc);
                for &w in words {
                    max = max.max(f32::from_bits(w));
                }
                max.to_bits()
            }
            ReduceOp::SumI32 => {
                let mut sum = acc as i32;
                for &w in words {
                    sum = sum.wrapping_add(w as i32);
                }
                sum as u32
            }
            ReduceOp::MinI32 => {
                let mut min = acc as i32;
                for &w in words {
                    min = min.min(w as i32);
                }
                min as u32
            }
            ReduceOp::MaxI32 => {
                let mut max = acc as i32;
                for &w in words {
                    max = max.max(w as i32);
                }
                max as u32
            }
        }
    }
}

struct PartialReduceKernel {
    input: Buffer,
    partials: Buffer,
    op: ReduceOp,
    n: LenSource,
}

impl Kernel for PartialReduceKernel {
    fn name(&self) -> &str {
        "reduce_partials"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        // Deferred lengths resolve here, at flush time (in-order queue: the
        // producing kernel has already run).
        let n = self.n.get();
        let input = self.input.as_words();
        let acc = group
            .runs(n)
            .fold(self.op.identity_word(), |acc, run| self.op.reduce_slice(acc, &input[run]));
        self.partials.set_u32(group.group_id(), acc);
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 4, launch.num_groups as u64 * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.input, 0..launch.n),
            BufferAccess::cells_write(&self.partials, 0..launch.num_groups),
        ]))
    }
}

struct FinalReduceKernel {
    partials: Buffer,
    output: Buffer,
    count: usize,
    op: ReduceOp,
}

impl Kernel for FinalReduceKernel {
    fn name(&self) -> &str {
        "reduce_final"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        if group.group_id() != 0 {
            return;
        }
        let partials = self.partials.chunk(0, self.count);
        let acc = self.op.reduce_slice(self.op.identity_word(), partials);
        self.output.set_u32(0, acc);
    }
    fn cost(&self, _launch: &LaunchConfig) -> KernelCost {
        KernelCost::new(self.count as u64 * 4, 4, self.count as u64, 0)
    }
    fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.partials, 0..self.count),
            BufferAccess::cells_write(&self.output, 0..1),
        ]))
    }
}

/// Reduces a column to a deferred one-word scalar. Empty columns yield the
/// operation's identity. Never flushes the queue.
pub fn reduce<T: DevWord>(
    ctx: &OcelotContext,
    input: &DevColumn<T>,
    op: ReduceOp,
) -> Result<DevScalar<T>> {
    if input.cap() == 0 {
        return DevScalar::constant(ctx, T::from_word(op.identity_word()));
    }
    let launch = ctx.launch(input.cap());
    let partials = ctx.alloc_uninit(launch.num_groups, "reduce_partials")?;
    let output = ctx.alloc(1, "reduce_output")?;
    let queue = ctx.queue();
    let wait = ctx.wait_for(input);
    let e1 = queue.enqueue_kernel(
        Arc::new(PartialReduceKernel {
            input: input.buffer.clone(),
            partials: partials.clone(),
            op,
            n: input.len_source(),
        }),
        launch.clone(),
        &wait,
    )?;
    let e2 = queue.enqueue_kernel(
        Arc::new(FinalReduceKernel {
            partials,
            output: output.clone(),
            count: launch.num_groups,
            op,
        }),
        ctx.launch(launch.num_groups),
        &[e1],
    )?;
    ctx.memory().record_producer(&output, e2);
    Ok(DevScalar::new(output, Some(e2)))
}

/// Sum of a float column.
pub fn sum_f32(ctx: &OcelotContext, input: &DevColumn<f32>) -> Result<DevScalar<f32>> {
    reduce(ctx, input, ReduceOp::SumF32)
}

/// Minimum of a float column (`+∞` for an empty column).
pub fn min_f32(ctx: &OcelotContext, input: &DevColumn<f32>) -> Result<DevScalar<f32>> {
    reduce(ctx, input, ReduceOp::MinF32)
}

/// Maximum of a float column (`-∞` for an empty column).
pub fn max_f32(ctx: &OcelotContext, input: &DevColumn<f32>) -> Result<DevScalar<f32>> {
    reduce(ctx, input, ReduceOp::MaxF32)
}

/// Sum of an integer column (wrapping, like the four-byte engine type).
pub fn sum_i32(ctx: &OcelotContext, input: &DevColumn<i32>) -> Result<DevScalar<i32>> {
    reduce(ctx, input, ReduceOp::SumI32)
}

/// Minimum of an integer column (`i32::MAX` for an empty column).
pub fn min_i32(ctx: &OcelotContext, input: &DevColumn<i32>) -> Result<DevScalar<i32>> {
    reduce(ctx, input, ReduceOp::MinI32)
}

/// Maximum of an integer column (`i32::MIN` for an empty column).
pub fn max_i32(ctx: &OcelotContext, input: &DevColumn<i32>) -> Result<DevScalar<i32>> {
    reduce(ctx, input, ReduceOp::MaxI32)
}

/// Sum of an OID/count column. Unsigned and two's-complement wrapping sums
/// are bit-identical, so this reuses the `SumI32` kernel path.
pub fn sum_u32(ctx: &OcelotContext, input: &DevColumn<u32>) -> Result<DevScalar<u32>> {
    reduce(ctx, input, ReduceOp::SumI32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;

    #[test]
    fn integer_reductions_match_reference_on_all_devices() {
        let values: Vec<i32> = (0..10_000).map(|i| ((i * 37 + 11) % 2001) - 1000).collect();
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let col = ctx.upload_i32(&values, "v").unwrap();
            assert_eq!(sum_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), values.iter().sum::<i32>());
            assert_eq!(
                min_i32(&ctx, &col).unwrap().get(&ctx).unwrap(),
                *values.iter().min().unwrap()
            );
            assert_eq!(
                max_i32(&ctx, &col).unwrap().get(&ctx).unwrap(),
                *values.iter().max().unwrap()
            );
        }
    }

    #[test]
    fn float_reductions() {
        let ctx = OcelotContext::cpu();
        let values: Vec<f32> = (0..5_000).map(|i| ((i % 101) as f32) * 0.25).collect();
        let col = ctx.upload_f32(&values, "v").unwrap();
        let total = sum_f32(&ctx, &col).unwrap().get(&ctx).unwrap();
        let expected: f32 = values.iter().sum();
        assert!((total - expected).abs() / expected < 1e-3, "{total} vs {expected}");
        assert_eq!(min_f32(&ctx, &col).unwrap().get(&ctx).unwrap(), 0.0);
        assert_eq!(max_f32(&ctx, &col).unwrap().get(&ctx).unwrap(), 25.0);
    }

    #[test]
    fn reductions_are_deferred_until_get() {
        let ctx = OcelotContext::cpu();
        let values: Vec<i32> = (0..50_000).collect();
        let col = ctx.upload_i32(&values, "v").unwrap();
        let flushes = ctx.queue().flush_count();
        let total = sum_i32(&ctx, &col).unwrap();
        assert_eq!(ctx.queue().flush_count(), flushes, "reduce must not flush");
        assert_eq!(total.get(&ctx).unwrap(), values.iter().sum::<i32>());
        assert_eq!(ctx.queue().flush_count(), flushes + 1);
    }

    #[test]
    fn empty_inputs_return_identities() {
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&[], "v").unwrap();
        assert_eq!(sum_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), 0);
        assert_eq!(min_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), i32::MAX);
        assert_eq!(max_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), i32::MIN);
        let fcol = ctx.upload_f32(&[], "v").unwrap();
        assert_eq!(min_f32(&ctx, &fcol).unwrap().get(&ctx).unwrap(), f32::INFINITY);
    }

    #[test]
    fn single_element() {
        let ctx = OcelotContext::gpu();
        let col = ctx.upload_i32(&[-7], "v").unwrap();
        assert_eq!(sum_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), -7);
        assert_eq!(min_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), -7);
        assert_eq!(max_i32(&ctx, &col).unwrap().get(&ctx).unwrap(), -7);
    }

    #[test]
    fn sum_u32_over_counts() {
        let ctx = OcelotContext::cpu();
        let values: Vec<u32> = (0..1_000).map(|i| i % 7).collect();
        let col = ctx.upload_u32(&values, "v").unwrap();
        assert_eq!(sum_u32(&ctx, &col).unwrap().get(&ctx).unwrap(), values.iter().sum::<u32>());
    }
}
