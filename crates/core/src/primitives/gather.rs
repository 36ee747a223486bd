//! The parallel gather primitive (paper §4.1.2, following He et al.).
//!
//! `output[i] = values[indices[i]]` — the core of the projection / left
//! fetch join operator and of every "reorder a column by a permutation"
//! step (sorting, result materialisation).
//!
//! The index column may carry a *deferred* length (a selection that has not
//! been counted on the host): the kernel resolves the actual element count
//! from the device counter at flush time and the output column inherits the
//! same deferred length, so the pipeline stays sync-free.

use crate::context::{DevColumn, DevWord, LenSource, OcelotContext, Oid};
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result, WorkGroupCtx,
};
use std::sync::Arc;

/// The gather kernel: one logical invocation per output element.
struct GatherKernel {
    values: Buffer,
    indices: Buffer,
    output: Buffer,
    n: LenSource,
}

impl Kernel for GatherKernel {
    fn name(&self) -> &str {
        "gather"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        // A deferred count resolves here, at flush time; entries past `n`
        // hold garbage and must not be dereferenced as indices.
        let n = self.n.get();
        let values = self.values.as_words();
        let indices = self.indices.as_words();
        for run in group.runs(n) {
            // SAFETY: a group's runs are its own rows of the output, no
            // other group's, within this launch.
            let out = unsafe { self.output.chunk_mut(run.start, run.end) };
            for (o, &position) in out.iter_mut().zip(&indices[run]) {
                *o = values[position as usize];
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        // Two reads (index + value) and one write per element.
        KernelCost::new((launch.n as u64) * 8, (launch.n as u64) * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.values, 0..self.values.len()),
            BufferAccess::slice_read(&self.indices, 0..self.indices.len()),
            BufferAccess::slice_write(&self.output, 0..self.output.len()),
        ]))
    }
}

/// Gathers `values[indices[i]]` for every `i`. The index column holds OIDs;
/// the output column carries the value type and inherits the index column's
/// length — including a deferred one, which keeps chained pipelines lazy.
pub fn gather<T: DevWord>(
    ctx: &OcelotContext,
    values: &DevColumn<T>,
    indices: &DevColumn<Oid>,
) -> Result<DevColumn<T>> {
    let cap = indices.cap();
    let output = ctx.alloc_uninit(cap.max(1), "gather_output")?;
    if cap == 0 {
        return DevColumn::new(output, 0);
    }
    let mut wait = ctx.wait_for(values);
    wait.extend(ctx.wait_for(indices));
    let event = ctx.queue().enqueue_kernel(
        Arc::new(GatherKernel {
            values: values.buffer.clone(),
            indices: indices.buffer.clone(),
            output: output.clone(),
            n: indices.len_source(),
        }),
        ctx.launch(cap),
        &wait,
    )?;
    ctx.memory().record_producer(&output, event);
    DevColumn::with_len(output, indices.col_len().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;

    #[test]
    fn gathers_on_all_devices() {
        let values: Vec<i32> = (0..1000).map(|i| i * 3).collect();
        let indices: Vec<u32> = (0..500).map(|i| (i * 7) % 1000).collect();
        let expected: Vec<i32> = indices.iter().map(|&i| values[i as usize]).collect();
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let v = ctx.upload_i32(&values, "values").unwrap();
            let idx = ctx.upload_u32(&indices, "indices").unwrap();
            let out = gather(&ctx, &v, &idx).unwrap();
            assert_eq!(out.read(&ctx).unwrap(), expected);
        }
    }

    #[test]
    fn float_payloads_survive_bit_exact() {
        let ctx = OcelotContext::cpu();
        let v = ctx.upload_f32(&[0.5, -1.25, 3.75], "values").unwrap();
        let idx = ctx.upload_u32(&[2, 0, 1, 2], "indices").unwrap();
        let out = gather(&ctx, &v, &idx).unwrap();
        assert_eq!(out.read(&ctx).unwrap(), vec![3.75, 0.5, -1.25, 3.75]);
    }

    #[test]
    fn gather_over_deferred_indices() {
        // Indices column with a device-resident count: only the first
        // `count` entries are valid (the rest are poison out-of-bounds
        // values the kernel must not dereference).
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let v = ctx.upload_i32(&[10, 20, 30, 40], "values").unwrap();
            let raw = ctx.upload_u32(&[3, 1, u32::MAX, u32::MAX], "indices").unwrap();
            let counter = ctx.alloc(1, "count").unwrap();
            counter.set_u32(0, 2);
            ctx.queue().enqueue_write(&counter, &[]).unwrap();
            let deferred = DevColumn::<Oid>::deferred(raw.buffer.clone(), counter, 4).unwrap();
            let out = gather(&ctx, &v, &deferred).unwrap();
            assert!(out.is_deferred());
            assert_eq!(out.read(&ctx).unwrap(), vec![40, 20]);
        }
    }

    #[test]
    fn empty_index_list() {
        let ctx = OcelotContext::cpu();
        let v = ctx.upload_i32(&[1, 2, 3], "values").unwrap();
        let idx = ctx.upload_u32(&[], "indices").unwrap();
        let out = gather(&ctx, &v, &idx).unwrap();
        assert_eq!(out.host_len(), Some(0));
        assert!(out.read(&ctx).unwrap().is_empty());
    }
}
