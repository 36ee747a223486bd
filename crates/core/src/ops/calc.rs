//! Element-wise arithmetic map operators — the hardware-oblivious analogue
//! of MonetDB's `batcalc` module.
//!
//! TPC-H expressions like `l_extendedprice * (1 - l_discount)` are trees of
//! these maps. Each function here launches a *one-node* tree through the
//! row-expression evaluator ([`super::rowexpr::map_columns`]; the paper's
//! Listing 1 is exactly this shape — a trivial streaming map, so the default
//! [`ocelot_kernel::KernelCost`] applies); a fused plan region evaluates the
//! whole tree per tile instead and never materialises the inner nodes.
//!
//! Maps are fully lazy and length-polymorphic: when the inputs carry a
//! deferred length (aligned gathers over an uncounted selection), the kernel
//! resolves the actual count at flush time and the output inherits the same
//! deferred length.

use super::rowexpr::{map_columns, Map};
use crate::context::{DevColumn, DevWord, LenSource, OcelotContext};
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, LaunchConfig, Result, WorkGroupCtx,
};
use std::sync::Arc;

/// Writes `min(a, b)` of two (possibly device-resident) element counts into
/// a one-word counter — the aligned length of a binary map whose inputs
/// carry *different* deferred counters.
struct MinLenKernel {
    a: LenSource,
    b: LenSource,
    out: Buffer,
}

impl Kernel for MinLenKernel {
    fn name(&self) -> &str {
        "calc_min_len"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        if group.group_id() != 0 {
            return;
        }
        self.out.set_u32(0, self.a.get().min(self.b.get()) as u32);
    }
    fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<KernelAccesses> {
        let counters = [&self.a, &self.b].into_iter().filter_map(|len| match len {
            LenSource::Counter { counter, .. } => Some(BufferAccess::cells_read(counter, 0..1)),
            LenSource::Fixed(_) => None,
        });
        let write = BufferAccess::cells_write(&self.out, 0..1);
        Some(KernelAccesses::of(counters.chain([write]).collect()))
    }
}

/// The length driving a binary map and its output. Host lengths must match
/// exactly (asserted by the caller); identical deferred counters are shared
/// as-is; any other combination is conservatively combined into a fresh
/// `min` counter on the device, so a misaligned pair can never expose one
/// input's uninitialised tail as data.
fn aligned_len(
    ctx: &OcelotContext,
    a: &crate::context::ColLen,
    b: &crate::context::ColLen,
) -> Result<crate::context::ColLen> {
    use crate::context::ColLen;
    match (a, b) {
        (ColLen::Host(_), ColLen::Host(_)) => Ok(a.clone()),
        (ColLen::Device { counter: ca, .. }, ColLen::Device { counter: cb, .. })
            if ca.id() == cb.id() =>
        {
            Ok(a.clone())
        }
        _ => {
            let out = ctx.alloc(1, "calc_len")?;
            let mut wait = Vec::new();
            for len in [a, b] {
                if let ColLen::Device { counter, .. } = len {
                    wait.extend(ctx.memory().wait_for_read(counter));
                }
            }
            let event = ctx.queue().enqueue_kernel(
                Arc::new(MinLenKernel { a: a.source(), b: b.source(), out: out.clone() }),
                ctx.launch(1),
                &wait,
            )?;
            ctx.memory().record_producer(&out, event);
            Ok(ColLen::Device { counter: out, cap: a.cap().min(b.cap()) })
        }
    }
}

/// `op(a, b)` over two aligned float columns.
fn binary(
    ctx: &OcelotContext,
    a: &DevColumn<f32>,
    b: &DevColumn<f32>,
    op: fn(Box<Map>, Box<Map>) -> Map,
) -> Result<DevColumn<f32>> {
    assert_eq!(a.cap(), b.cap(), "calc: input length mismatch");
    if let (Some(la), Some(lb)) = (a.host_len(), b.host_len()) {
        assert_eq!(la, lb, "calc: input length mismatch");
    }
    let len = aligned_len(ctx, a.col_len(), b.col_len())?;
    let map = op(Box::new(Map::Col(0)), Box::new(Map::Col(1)));
    map_columns(ctx, &[&a.reinterpret(), &b.reinterpret()], &map, len)
}

/// `op(a)` over one column.
fn unary<A: DevWord, O: DevWord>(
    ctx: &OcelotContext,
    a: &DevColumn<A>,
    op: impl FnOnce(Box<Map>) -> Map,
) -> Result<DevColumn<O>> {
    map_columns(ctx, &[&a.reinterpret()], &op(Box::new(Map::Col(0))), a.col_len().clone())
}

/// Element-wise `a * b` over float columns.
pub fn mul_f32(
    ctx: &OcelotContext,
    a: &DevColumn<f32>,
    b: &DevColumn<f32>,
) -> Result<DevColumn<f32>> {
    binary(ctx, a, b, Map::Mul)
}

/// Element-wise `a + b` over float columns.
pub fn add_f32(
    ctx: &OcelotContext,
    a: &DevColumn<f32>,
    b: &DevColumn<f32>,
) -> Result<DevColumn<f32>> {
    binary(ctx, a, b, Map::Add)
}

/// Element-wise `a - b` over float columns.
pub fn sub_f32(
    ctx: &OcelotContext,
    a: &DevColumn<f32>,
    b: &DevColumn<f32>,
) -> Result<DevColumn<f32>> {
    binary(ctx, a, b, Map::Sub)
}

/// Element-wise `constant - a` (e.g. `1 - l_discount`).
pub fn const_minus_f32(
    ctx: &OcelotContext,
    constant: f32,
    a: &DevColumn<f32>,
) -> Result<DevColumn<f32>> {
    unary(ctx, a, |a| Map::ConstMinus(constant, a))
}

/// Element-wise `constant + a` (e.g. `1 + l_tax`).
pub fn const_plus_f32(
    ctx: &OcelotContext,
    constant: f32,
    a: &DevColumn<f32>,
) -> Result<DevColumn<f32>> {
    unary(ctx, a, |a| Map::ConstPlus(constant, a))
}

/// Element-wise `a * constant`.
pub fn mul_const_f32(
    ctx: &OcelotContext,
    a: &DevColumn<f32>,
    constant: f32,
) -> Result<DevColumn<f32>> {
    unary(ctx, a, |a| Map::MulConst(a, constant))
}

/// Casts an integer column to float.
pub fn cast_i32_f32(ctx: &OcelotContext, a: &DevColumn<i32>) -> Result<DevColumn<f32>> {
    unary(ctx, a, Map::CastI32F32)
}

/// Extracts the calendar year from a day-number date column.
pub fn extract_year(ctx: &OcelotContext, a: &DevColumn<i32>) -> Result<DevColumn<i32>> {
    unary(ctx, a, Map::Year)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;
    use ocelot_monet::sequential as monet;
    use ocelot_storage::types::date_to_days;

    #[test]
    fn binary_maps_match_monet_on_all_devices() {
        let a: Vec<f32> = (0..3_000).map(|i| i as f32 * 0.25).collect();
        let b: Vec<f32> = (0..3_000).map(|i| (i % 13) as f32).collect();
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let ca = ctx.upload_f32(&a, "a").unwrap();
            let cb = ctx.upload_f32(&b, "b").unwrap();
            assert_eq!(
                mul_f32(&ctx, &ca, &cb).unwrap().read(&ctx).unwrap(),
                monet::mul_f32(&a, &b)
            );
            assert_eq!(
                add_f32(&ctx, &ca, &cb).unwrap().read(&ctx).unwrap(),
                monet::add_f32(&a, &b)
            );
            assert_eq!(
                sub_f32(&ctx, &ca, &cb).unwrap().read(&ctx).unwrap(),
                monet::sub_f32(&a, &b)
            );
        }
    }

    #[test]
    fn unary_maps() {
        let ctx = OcelotContext::cpu();
        let a: Vec<f32> = vec![0.1, 0.5, 0.9];
        let ca = ctx.upload_f32(&a, "a").unwrap();
        assert_eq!(
            const_minus_f32(&ctx, 1.0, &ca).unwrap().read(&ctx).unwrap(),
            monet::const_minus_f32(1.0, &a)
        );
        assert_eq!(
            const_plus_f32(&ctx, 1.0, &ca).unwrap().read(&ctx).unwrap(),
            monet::const_plus_f32(1.0, &a)
        );
        assert_eq!(
            mul_const_f32(&ctx, &ca, 2.0).unwrap().read(&ctx).unwrap(),
            monet::mul_const_f32(&a, 2.0)
        );

        let ints: Vec<i32> = vec![3, -4, 5];
        let ci = ctx.upload_i32(&ints, "i").unwrap();
        assert_eq!(cast_i32_f32(&ctx, &ci).unwrap().read(&ctx).unwrap(), vec![3.0, -4.0, 5.0]);
    }

    #[test]
    fn year_extraction_matches_monet() {
        let days: Vec<i32> = (0..2_000)
            .map(|i| date_to_days(1992 + (i % 7), 1 + (i % 12) as u32, 1 + (i % 28) as u32))
            .collect();
        let ctx = OcelotContext::gpu();
        let col = ctx.upload_i32(&days, "dates").unwrap();
        assert_eq!(
            extract_year(&ctx, &col).unwrap().read(&ctx).unwrap(),
            monet::extract_year(&days)
        );
    }

    #[test]
    fn tpch_q1_style_expression_chain_is_single_flush() {
        // extendedprice * (1 - discount) * (1 + tax), lazily chained.
        let price = vec![100.0f32, 200.0, 50.0];
        let discount = vec![0.1f32, 0.0, 0.5];
        let tax = vec![0.05f32, 0.1, 0.0];
        let ctx = OcelotContext::cpu();
        let p = ctx.upload_f32(&price, "p").unwrap();
        let d = ctx.upload_f32(&discount, "d").unwrap();
        let t = ctx.upload_f32(&tax, "t").unwrap();
        let flushes = ctx.queue().flush_count();
        let one_minus_d = const_minus_f32(&ctx, 1.0, &d).unwrap();
        let one_plus_t = const_plus_f32(&ctx, 1.0, &t).unwrap();
        let disc_price = mul_f32(&ctx, &p, &one_minus_d).unwrap();
        let charge = mul_f32(&ctx, &disc_price, &one_plus_t).unwrap();
        assert_eq!(ctx.queue().flush_count(), flushes, "map chain must not flush");
        let result = charge.read(&ctx).unwrap();
        assert_eq!(ctx.queue().flush_count(), flushes + 1);
        let expected: Vec<f32> =
            (0..3).map(|i| price[i] * (1.0 - discount[i]) * (1.0 + tax[i])).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn binary_map_drives_from_the_deferred_side() {
        // A host-known column aligned with a deferred one: the kernel must
        // clamp to the deferred count, never exposing b's garbage tail.
        use crate::context::{DevColumn, Oid};
        let ctx = OcelotContext::cpu();
        let a = ctx.upload_f32(&[2.0, 3.0, 4.0, 5.0], "a").unwrap();
        let raw = ctx.upload_f32(&[10.0, 20.0, f32::NAN, f32::NAN], "b").unwrap();
        let counter = ctx.alloc(1, "count").unwrap();
        counter.set_u32(0, 2);
        ctx.queue().enqueue_write(&counter, &[]).unwrap();
        let b: DevColumn<f32> =
            DevColumn::<Oid>::deferred(raw.buffer.clone(), counter, 4).unwrap().reinterpret();
        let product = mul_f32(&ctx, &a, &b).unwrap();
        assert!(product.is_deferred(), "output inherits the deferred length");
        assert_eq!(product.read(&ctx).unwrap(), vec![20.0, 60.0]);
    }

    /// A float column whose length is a device counter holding `count`.
    fn deferred_f32(ctx: &OcelotContext, values: &[f32], count: u32) -> DevColumn<f32> {
        let raw = ctx.upload_f32(values, "v").unwrap();
        let counter = ctx.alloc(1, "count").unwrap();
        counter.set_u32(0, count);
        ctx.queue().enqueue_write(&counter, &[]).unwrap();
        DevColumn::<crate::context::Oid>::deferred(raw.buffer.clone(), counter, values.len())
            .unwrap()
            .reinterpret()
    }

    #[test]
    fn binary_map_with_two_distinct_deferred_counters_clamps_to_min() {
        // Misaligned deferred inputs must never surface an uninitialised
        // tail: the map combines the two counters into a device-side min.
        let ctx = OcelotContext::cpu();
        let a = deferred_f32(&ctx, &[1.0, 2.0, 3.0, f32::NAN], 3);
        let b = deferred_f32(&ctx, &[5.0, 6.0, f32::NAN, f32::NAN], 2);
        let sum = add_f32(&ctx, &a, &b).unwrap();
        assert_eq!(sum.read(&ctx).unwrap(), vec![6.0, 8.0]);
    }

    #[test]
    fn min_length_kernel_is_declared_and_race_free() {
        // The counter-combining kernel declares what it touches: under the
        // armed race detector every kernel of the map is checked, and none
        // races the map that reads the combined length.
        for ctx in [OcelotContext::cpu(), OcelotContext::gpu()] {
            ctx.queue().race().arm();
            let a = deferred_f32(&ctx, &[1.0, 2.0, 3.0, f32::NAN], 3);
            let b = deferred_f32(&ctx, &[5.0, 6.0, f32::NAN, f32::NAN], 2);
            let sum = add_f32(&ctx, &a, &b).unwrap();
            assert_eq!(sum.read(&ctx).unwrap(), vec![6.0, 8.0]);
            let (stats, diagnostics) =
                (ctx.queue().race().stats(), ctx.queue().race().take_diagnostics());
            ctx.queue().race().disarm();
            assert!(diagnostics.is_empty(), "{diagnostics:?}");
            assert!(stats.kernels_observed >= 2, "{stats:?}");
            assert_eq!(stats.kernels_declared, stats.kernels_observed, "{stats:?}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let ctx = OcelotContext::cpu();
        let a = ctx.upload_f32(&[1.0], "a").unwrap();
        let b = ctx.upload_f32(&[1.0, 2.0], "b").unwrap();
        let _ = mul_f32(&ctx, &a, &b);
    }

    #[test]
    fn empty_columns() {
        let ctx = OcelotContext::cpu();
        let a = ctx.upload_f32(&[], "a").unwrap();
        let b = ctx.upload_f32(&[], "b").unwrap();
        assert!(mul_f32(&ctx, &a, &b).unwrap().read(&ctx).unwrap().is_empty());
    }
}
