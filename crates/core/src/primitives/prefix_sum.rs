//! Exclusive prefix sums (scans).
//!
//! The scan is the workhorse behind every operator whose result size is not
//! known upfront: bitmap materialisation and the two-step join output scheme
//! compute per-work-item counts, scan them to obtain unique write offsets,
//! and then write without synchronisation (paper §4.1.2, §4.1.5, citing
//! Sengupta et al.'s scan primitives).
//!
//! The total of the scanned input is returned as a deferred
//! [`DevScalar<u32>`] — **no flush happens here**. Consumers that need the
//! total to size an output (bitmap materialisation, join compaction) keep it
//! on the device: they allocate at the capacity bound and attach the total
//! as the result column's deferred length, so a whole
//! select→scan→write pipeline synchronises only at its final read.
//!
//! An input no longer than the launch has work-items — every per-item count
//! table — is scanned by a single work-item in one launch. Anything longer
//! takes the classic three-phase scheme: (1) every work-item
//! reduces its assigned slice to a partial sum, (2) the per-item partials —
//! a tiny array of `num_groups × group_size` values — are scanned by a
//! single work-item, (3) every work-item rescans its slice, adding its
//! partial offset.
//!
//! Work-items always walk *contiguous* slices here (via
//! [`ocelot_kernel::WorkItem::chunk_bounds`]) independent of the device's
//! preferred access pattern: a scan is order-sensitive, so the strided
//! interleaving used for coalesced reads would compute prefixes in the wrong
//! element order.

use crate::context::{DevColumn, DevScalar, OcelotContext};
use ocelot_kernel::{
    BufferAccess, Kernel, KernelAccesses, KernelCost, KernelError, LaunchConfig, Result,
    WorkGroupCtx,
};
use std::sync::Arc;

/// Phase 1: per-work-item partial sums.
struct PartialSumKernel {
    input: ocelot_kernel::Buffer,
    partials: ocelot_kernel::Buffer,
    n: usize,
}

impl Kernel for PartialSumKernel {
    fn name(&self) -> &str {
        "scan_partial_sums"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let input = self.input.as_words();
        for item in group.items() {
            let (start, end) = item.chunk_bounds(self.n);
            let sum = input[start..end].iter().fold(0u32, |acc, &v| acc.wrapping_add(v));
            self.partials.set_u32(item.global_id, sum);
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 4, launch.total_items() as u64 * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.input, 0..self.n),
            BufferAccess::cells_write(&self.partials, 0..launch.total_items()),
        ]))
    }
}

/// Phase 2: scan the per-item partials (single work-item — the partial array
/// has only `total_items` entries). Also the whole scan of an input that is
/// no longer than that: `output` may be `input` itself (entry `i` is read
/// before it is written).
struct ScanPartialsKernel {
    input: ocelot_kernel::Buffer,
    output: ocelot_kernel::Buffer,
    total: ocelot_kernel::Buffer,
    count: usize,
}

impl Kernel for ScanPartialsKernel {
    fn name(&self) -> &str {
        "scan_partials"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        if group.group_id() != 0 {
            return;
        }
        let mut running: u32 = 0;
        for index in 0..self.count {
            let value = self.input.get_u32(index);
            self.output.set_u32(index, running);
            running = running.wrapping_add(value);
        }
        self.total.set_u32(0, running);
    }
    fn cost(&self, _launch: &LaunchConfig) -> KernelCost {
        KernelCost::new(self.count as u64 * 4, self.count as u64 * 4, self.count as u64, 0)
    }
    fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::cells_read(&self.input, 0..self.count),
            BufferAccess::cells_write(&self.output, 0..self.count),
            BufferAccess::cells_write(&self.total, 0..1),
        ]))
    }
}

/// Phase 3: every work-item rewalks its slice writing the exclusive prefix.
struct WritePrefixKernel {
    input: ocelot_kernel::Buffer,
    partials: ocelot_kernel::Buffer,
    output: ocelot_kernel::Buffer,
    n: usize,
}

impl Kernel for WritePrefixKernel {
    fn name(&self) -> &str {
        "scan_write_prefix"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let input = self.input.as_words();
        for item in group.items() {
            let (start, end) = item.chunk_bounds(self.n);
            if start >= end {
                continue;
            }
            // SAFETY: chunk_bounds assigns `start..end` of the output
            // exclusively to this item within this phase.
            let out = unsafe { self.output.chunk_mut(start, end) };
            let values = &input[start..end];
            let mut running = self.partials.get_u32(item.global_id);
            // Block-prefix form with pairwise partial sums: the serial carry
            // chain is one tree reduction + one add per 8-element block
            // (instead of one add per element), and the eight outputs are
            // independent adds the CPU can issue in parallel.
            let mut out_blocks = out.chunks_exact_mut(8);
            let mut val_blocks = values.chunks_exact(8);
            for (o, v) in (&mut out_blocks).zip(&mut val_blocks) {
                let s01 = v[0].wrapping_add(v[1]);
                let s23 = v[2].wrapping_add(v[3]);
                let s45 = v[4].wrapping_add(v[5]);
                let s67 = v[6].wrapping_add(v[7]);
                let s0123 = s01.wrapping_add(s23);
                let mid = running.wrapping_add(s0123);
                o[0] = running;
                o[1] = running.wrapping_add(v[0]);
                o[2] = running.wrapping_add(s01);
                o[3] = running.wrapping_add(s01).wrapping_add(v[2]);
                o[4] = mid;
                o[5] = mid.wrapping_add(v[4]);
                o[6] = mid.wrapping_add(s45);
                o[7] = mid.wrapping_add(s45).wrapping_add(v[6]);
                running = mid.wrapping_add(s45).wrapping_add(s67);
            }
            for (o, &value) in out_blocks.into_remainder().iter_mut().zip(val_blocks.remainder()) {
                *o = running;
                running = running.wrapping_add(value);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::streaming(launch.n)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.input, 0..self.n),
            BufferAccess::cells_read(&self.partials, 0..launch.total_items()),
            BufferAccess::slice_write(&self.output, 0..self.n),
        ]))
    }
}

/// Computes the exclusive prefix sum of a `u32` column. Returns the scanned
/// column and the total as a **deferred** [`DevScalar<u32>`] — nothing is
/// flushed; producers of known size stay entirely on the device.
///
/// The input's length must be host-known (scan inputs are per-item count
/// tables, whose size is fixed by the launch configuration).
pub fn exclusive_scan_u32(
    ctx: &OcelotContext,
    input: &DevColumn<u32>,
) -> Result<(DevColumn<u32>, DevScalar<u32>)> {
    let n = input.host_len().ok_or_else(|| {
        KernelError::Internal("exclusive_scan_u32: input length must be host-known".into())
    })?;
    let output = ctx.alloc_uninit(n.max(1), "scan_output")?;
    if n == 0 {
        return Ok((DevColumn::new(output, 0)?, DevScalar::constant(ctx, 0u32)?));
    }
    let launch = ctx.launch(n);
    let total = ctx.alloc(1, "scan_total")?;
    let queue = ctx.queue();
    let wait = ctx.wait_for(input);
    // An input no longer than the per-item partials would be — a per-item
    // count table, as materialisation and join compaction scan — is what
    // phase 2 scans anyway: one launch instead of three.
    if n <= launch.total_items() {
        let event = queue.enqueue_kernel(
            Arc::new(ScanPartialsKernel {
                input: input.buffer.clone(),
                output: output.clone(),
                total: total.clone(),
                count: n,
            }),
            ctx.launch(n),
            &wait,
        )?;
        ctx.memory().record_producer(&output, event);
        ctx.memory().record_producer(&total, event);
        return Ok((DevColumn::new(output, n)?, DevScalar::new(total, Some(event))));
    }
    let partials = ctx.alloc_uninit(launch.total_items(), "scan_partials")?;
    let e1 = queue.enqueue_kernel(
        Arc::new(PartialSumKernel { input: input.buffer.clone(), partials: partials.clone(), n }),
        launch.clone(),
        &wait,
    )?;
    let e2 = queue.enqueue_kernel(
        Arc::new(ScanPartialsKernel {
            input: partials.clone(),
            output: partials.clone(),
            total: total.clone(),
            count: launch.total_items(),
        }),
        ctx.launch(launch.total_items()),
        &[e1],
    )?;
    let e3 = queue.enqueue_kernel(
        Arc::new(WritePrefixKernel {
            input: input.buffer.clone(),
            partials,
            output: output.clone(),
            n,
        }),
        launch,
        &[e2],
    )?;
    ctx.memory().record_producer(&output, e3);
    ctx.memory().record_producer(&total, e2);
    Ok((DevColumn::new(output, n)?, DevScalar::new(total, Some(e2))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;

    fn scan_on(ctx: &OcelotContext, values: &[u32]) -> (Vec<u32>, u32) {
        let input = ctx.upload_u32(values, "input").unwrap();
        let (output, total) = exclusive_scan_u32(ctx, &input).unwrap();
        (output.read(ctx).unwrap(), total.get(ctx).unwrap())
    }

    fn reference_scan(values: &[u32]) -> (Vec<u32>, u32) {
        let mut out = Vec::with_capacity(values.len());
        let mut running = 0u32;
        for v in values {
            out.push(running);
            running = running.wrapping_add(*v);
        }
        (out, running)
    }

    #[test]
    fn matches_reference_on_all_devices() {
        let values: Vec<u32> = (0..5_000).map(|i| (i * 7 + 3) % 11).collect();
        let (expected, expected_total) = reference_scan(&values);
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let (got, total) = scan_on(&ctx, &values);
            assert_eq!(got, expected);
            assert_eq!(total, expected_total);
        }
    }

    #[test]
    fn scan_is_deferred_until_total_get() {
        let ctx = OcelotContext::cpu();
        let values: Vec<u32> = (0..10_000).map(|i| i % 5).collect();
        let input = ctx.upload_u32(&values, "input").unwrap();
        let flushes_before = ctx.queue().flush_count();
        let (_output, total) = exclusive_scan_u32(&ctx, &input).unwrap();
        assert_eq!(
            ctx.queue().flush_count(),
            flushes_before,
            "exclusive_scan_u32 must not flush the queue"
        );
        assert!(ctx.queue().pending_ops() > 0);
        assert_eq!(total.get(&ctx).unwrap(), values.iter().sum::<u32>());
        assert_eq!(ctx.queue().flush_count(), flushes_before + 1, "one flush, at .get()");
    }

    #[test]
    fn handles_small_and_empty_inputs() {
        let ctx = OcelotContext::cpu();
        assert_eq!(scan_on(&ctx, &[]), (vec![], 0));
        assert_eq!(scan_on(&ctx, &[5]), (vec![0], 5));
        assert_eq!(scan_on(&ctx, &[1, 1, 1]), (vec![0, 1, 2], 3));
    }

    #[test]
    fn all_zero_input() {
        let ctx = OcelotContext::cpu();
        let (out, total) = scan_on(&ctx, &[0; 100]);
        assert_eq!(out, vec![0; 100]);
        assert_eq!(total, 0);
    }

    #[test]
    fn input_not_multiple_of_items() {
        let ctx = OcelotContext::cpu();
        let values: Vec<u32> = (0..1_013).map(|i| i % 3).collect();
        let (expected, expected_total) = reference_scan(&values);
        let (got, total) = scan_on(&ctx, &values);
        assert_eq!(got, expected);
        assert_eq!(total, expected_total);
    }
}
