//! Element-wise arithmetic maps — the hardware-oblivious analogue of
//! MonetDB's `batcalc` module.
//!
//! TPC-H expressions like `l_extendedprice * (1 - l_discount)` are trees of
//! maps. [`map`] launches one [`Map`] tree through the row-expression
//! evaluator ([`super::rowexpr::map_columns`]; the paper's Listing 1 is
//! exactly this shape — a trivial streaming map, so the default
//! [`ocelot_kernel::KernelCost`] applies). A plan's map node is a
//! one-operator tree; a fused plan region evaluates the whole tree per tile
//! instead and never materialises the inner nodes.
//!
//! Maps are fully lazy and length-polymorphic: when the inputs carry a
//! deferred length (aligned gathers over an uncounted selection), the kernel
//! resolves the actual count at flush time and the output inherits the same
//! deferred length.

use super::rowexpr::{map_columns, Map};
use crate::context::{ColLen, DevColumn, DevWord, LenSource, OcelotContext, Oid};
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

/// The length two aligned inputs share. Host lengths must match exactly
/// (asserted by the caller); identical deferred counters are shared as-is;
/// any other combination is conservatively combined into a fresh `min`
/// counter on the device, so a misaligned pair can never expose one input's
/// uninitialised tail as data.
fn aligned_len(ctx: &OcelotContext, a: &ColLen, b: &ColLen) -> Result<ColLen> {
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

/// Evaluates `map` element-wise over the aligned columns `cols` (leaf
/// `Col(i)` reads `cols[i]`) in one launch. The output has the length the
/// inputs share ([`aligned_len`] folded over them) and holds `O` words —
/// `i32` for a `year`, `f32` for every other operator ([`Map::yields_i32`]).
///
/// # Panics
/// Panics if `cols` is empty, or if two inputs differ in capacity or in
/// host length.
pub fn map<O: DevWord>(
    ctx: &OcelotContext,
    cols: &[&DevColumn<Oid>],
    map: &Map,
) -> Result<DevColumn<O>> {
    let (first, rest) = cols.split_first().expect("a map reads at least one column");
    let mut len = first.col_len().clone();
    for col in rest {
        assert_eq!(first.cap(), col.cap(), "calc: input length mismatch");
        if let (Some(a), Some(b)) = (first.host_len(), col.host_len()) {
            assert_eq!(a, b, "calc: input length mismatch");
        }
        len = aligned_len(ctx, &len, col.col_len())?;
    }
    map_columns(ctx, cols, map, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;
    use ocelot_monet::sequential as monet;
    use ocelot_storage::types::date_to_days;

    /// `op(a, b)` over two float columns.
    fn binary(
        ctx: &OcelotContext,
        a: &DevColumn<f32>,
        b: &DevColumn<f32>,
        op: fn(Box<Map>, Box<Map>) -> Map,
    ) -> DevColumn<f32> {
        let tree = op(Map::leaf(0), Map::leaf(1));
        map(ctx, &[&a.reinterpret(), &b.reinterpret()], &tree).unwrap()
    }

    /// `op(a)` over one column.
    fn unary<A: DevWord, O: DevWord>(
        ctx: &OcelotContext,
        a: &DevColumn<A>,
        op: impl FnOnce(Box<Map>) -> Map,
    ) -> DevColumn<O> {
        map(ctx, &[&a.reinterpret()], &op(Map::leaf(0))).unwrap()
    }

    #[test]
    fn binary_maps_match_monet_on_all_devices() {
        let a: Vec<f32> = (0..3_000).map(|i| i as f32 * 0.25).collect();
        let b: Vec<f32> = (0..3_000).map(|i| (i % 13) as f32).collect();
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let ca = ctx.upload_f32(&a, "a").unwrap();
            let cb = ctx.upload_f32(&b, "b").unwrap();
            let read = |column: DevColumn<f32>| column.read(&ctx).unwrap();
            assert_eq!(read(binary(&ctx, &ca, &cb, Map::Mul)), monet::mul_f32(&a, &b));
            assert_eq!(read(binary(&ctx, &ca, &cb, Map::Add)), monet::add_f32(&a, &b));
            assert_eq!(read(binary(&ctx, &ca, &cb, Map::Sub)), monet::sub_f32(&a, &b));
        }
    }

    #[test]
    fn unary_maps() {
        let ctx = OcelotContext::cpu();
        let a: Vec<f32> = vec![0.1, 0.5, 0.9];
        let ca = ctx.upload_f32(&a, "a").unwrap();
        let read = |column: DevColumn<f32>| column.read(&ctx).unwrap();
        let minus = unary(&ctx, &ca, |a| Map::ConstMinus(1.0, a));
        assert_eq!(read(minus), monet::const_minus_f32(1.0, &a));
        let plus = unary(&ctx, &ca, |a| Map::ConstPlus(1.0, a));
        assert_eq!(read(plus), monet::const_plus_f32(1.0, &a));
        let scaled = unary(&ctx, &ca, |a| Map::MulConst(a, 2.0));
        assert_eq!(read(scaled), monet::mul_const_f32(&a, 2.0));

        let ints: Vec<i32> = vec![3, -4, 5];
        let ci = ctx.upload_i32(&ints, "i").unwrap();
        assert_eq!(read(unary(&ctx, &ci, Map::CastI32F32)), vec![3.0, -4.0, 5.0]);
    }

    #[test]
    fn year_extraction_matches_monet() {
        let days: Vec<i32> = (0..2_000)
            .map(|i| date_to_days(1992 + (i % 7), 1 + (i % 12) as u32, 1 + (i % 28) as u32))
            .collect();
        let ctx = OcelotContext::gpu();
        let col = ctx.upload_i32(&days, "dates").unwrap();
        let years: DevColumn<i32> = unary(&ctx, &col, Map::Year);
        assert_eq!(years.read(&ctx).unwrap(), monet::extract_year(&days));
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
        let one_minus_d = unary(&ctx, &d, |d| Map::ConstMinus(1.0, d));
        let one_plus_t = unary(&ctx, &t, |t| Map::ConstPlus(1.0, t));
        let disc_price = binary(&ctx, &p, &one_minus_d, Map::Mul);
        let charge = binary(&ctx, &disc_price, &one_plus_t, Map::Mul);
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
        let ctx = OcelotContext::cpu();
        let a = ctx.upload_f32(&[2.0, 3.0, 4.0, 5.0], "a").unwrap();
        let raw = ctx.upload_f32(&[10.0, 20.0, f32::NAN, f32::NAN], "b").unwrap();
        let counter = ctx.alloc(1, "count").unwrap();
        counter.set_u32(0, 2);
        ctx.queue().enqueue_write(&counter, &[]).unwrap();
        let b: DevColumn<f32> =
            DevColumn::<Oid>::deferred(raw.buffer.clone(), counter, 4).unwrap().reinterpret();
        let product = binary(&ctx, &a, &b, Map::Mul);
        assert!(product.is_deferred(), "output inherits the deferred length");
        assert_eq!(product.read(&ctx).unwrap(), vec![20.0, 60.0]);
    }

    /// A float column whose length is a device counter holding `count`.
    fn deferred_f32(ctx: &OcelotContext, values: &[f32], count: u32) -> DevColumn<f32> {
        let raw = ctx.upload_f32(values, "v").unwrap();
        let counter = ctx.alloc(1, "count").unwrap();
        counter.set_u32(0, count);
        ctx.queue().enqueue_write(&counter, &[]).unwrap();
        DevColumn::<Oid>::deferred(raw.buffer.clone(), counter, values.len()).unwrap().reinterpret()
    }

    #[test]
    fn binary_map_with_two_distinct_deferred_counters_clamps_to_min() {
        // Misaligned deferred inputs must never surface an uninitialised
        // tail: the map combines the two counters into a device-side min.
        let ctx = OcelotContext::cpu();
        let a = deferred_f32(&ctx, &[1.0, 2.0, 3.0, f32::NAN], 3);
        let b = deferred_f32(&ctx, &[5.0, 6.0, f32::NAN, f32::NAN], 2);
        let sum = binary(&ctx, &a, &b, Map::Add);
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
            let sum = binary(&ctx, &a, &b, Map::Add);
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
        let _ = binary(&ctx, &a, &b, Map::Mul);
    }

    #[test]
    fn empty_columns() {
        let ctx = OcelotContext::cpu();
        let a = ctx.upload_f32(&[], "a").unwrap();
        let b = ctx.upload_f32(&[], "b").unwrap();
        assert!(binary(&ctx, &a, &b, Map::Mul).read(&ctx).unwrap().is_empty());
    }
}
