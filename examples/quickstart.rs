//! Quickstart: the typed deferred device-value API, end to end.
//!
//! Run with `cargo run --release -p ocelot-examples --example quickstart`.
//!
//! The same operator code runs on every device (sequential CPU, multi-core
//! CPU, simulated discrete GPU). Every operator returns a *deferred* value —
//! a typed `DevColumn<T>` or a one-word `DevScalar<T>` — and nothing touches
//! the device queue until the final `.get()` / `.read()`: the pipeline below
//! flushes exactly once per device, which the example verifies with the
//! queue's `flush_count()` observability hook.

use ocelot_core::ops::rowexpr::Pred;
use ocelot_core::ops::select;
use ocelot_core::primitives::{gather, reduce};
use ocelot_core::OcelotContext;

fn main() {
    // A miniature workload: revenue = sum(price[i]) over rows whose key
    // falls in [100, 300] — one select, one materialise (count-scan-write),
    // one gather, one reduction.
    let keys: Vec<i32> = (0..100_000).map(|i| (i * 37 + 11) % 1000).collect();
    let prices: Vec<f32> = (0..100_000).map(|i| (i % 97) as f32 * 0.5).collect();
    let expected: f32 =
        keys.iter().zip(&prices).filter(|(k, _)| (100..=300).contains(*k)).map(|(_, p)| *p).sum();

    for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
        // Uploads only *schedule* host→device transfers.
        let k = ctx.upload_i32(&keys, "keys").expect("upload failed");
        let p = ctx.upload_f32(&prices, "prices").expect("upload failed");
        let flushes_before = ctx.queue().flush_count();

        // 1. Selection: a device-resident bitmap (no OID list yet) of the
        //    rows where `100 <= keys <= 300` — one conjunct over column 0.
        let in_range = Pred::RangeI32 { col: 0, low: 100, high: 300 };
        let bitmap =
            select::select_where(&ctx, &[&k.reinterpret()], &[in_range]).expect("select failed");
        // 2. Materialisation: the qualifying OIDs. The cardinality is a
        //    *device counter* — the column's length is deferred.
        let oids = select::materialize_bitmap(&ctx, &bitmap).expect("materialize failed");
        assert!(oids.is_deferred(), "no host round-trip for the count");
        // 3. Gather: fetch the selected prices; the output inherits the
        //    deferred length (the kernel reads the counter at flush time).
        let selected = gather::gather(&ctx, &p, &oids).expect("gather failed");
        // 4. Reduction: a one-word deferred scalar.
        let revenue = reduce::sum_f32(&ctx, &selected).expect("sum failed");

        // Nothing has run yet — four operators, zero flushes.
        assert_eq!(ctx.queue().flush_count(), flushes_before);
        assert!(ctx.queue().pending_ops() > 0);

        // The single sync point: .get() flushes the queue once and reads
        // four bytes back (not the intermediates).
        let value = revenue.get(&ctx).expect("readback failed");
        let pipeline_flushes = ctx.queue().flush_count() - flushes_before;
        assert_eq!(pipeline_flushes, 1);
        assert!((value - expected).abs() / expected < 1e-3, "{value} vs {expected}");

        // The count is still available, also deferred-then-resolved (on the
        // discrete GPU this readback is its own transfer flush — the
        // pipeline itself still synchronised exactly once).
        let n = oids.len(&ctx).expect("length resolve failed");
        println!(
            "{:?}: revenue over {} selected rows = {:.1} ({} pipeline flush, {} kernels total)",
            ctx.device().info().kind,
            n,
            value,
            pipeline_flushes,
            ctx.queue().total_stats().kernels,
        );
    }
    println!("ok: every device agreed and every pipeline flushed exactly once");
}
