//! Device portability through the session API: the *same compiled plan*
//! executes on every Ocelot device.
//!
//! Run with `cargo run --release -p ocelot-examples --example device_portability`.
//!
//! A TPC-H Q6 plan is compiled once and admitted to a [`Session`] per
//! Ocelot device (sequential CPU, multi-core CPU, simulated discrete GPU).
//! Each session is created from a [`SharedDevice`], so it owns a private
//! command queue — the example verifies the PR 2/PR 3 contract that the
//! whole plan flushes that queue exactly once — while result buffers
//! recycle through the device's shared pool. A second session per device
//! demonstrates the cross-context reuse: its allocations are served from
//! the first session's finished intermediates.

use ocelot_core::SharedDevice;
use ocelot_engine::{QueryValue, RewriteConfig, Session};
use ocelot_tpch::{q6_query, TpchConfig, TpchDb};

fn main() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 11 });
    // Unfused, so the plan has pooled intermediates for a second session to
    // reuse (the fused Q6 is one pipeline node that allocates none).
    let unfused = RewriteConfig { fuse: false, ..RewriteConfig::optimized() };
    let plan = q6_query(&db).lower_with(db.catalog(), &unfused).expect("q6 lowers");
    println!("Q6 as a compiled plan: {} operator nodes\n", plan.len());

    let devices = [SharedDevice::cpu_sequential(), SharedDevice::cpu(), SharedDevice::gpu()];
    let mut revenues = Vec::new();
    for shared in &devices {
        let session = Session::ocelot(shared);
        let flushes_before = session.backend().context().queue().flush_count();
        let values = session.run(&plan, db.catalog()).expect("q6 runs");
        let revenue = match values.as_slice() {
            [QueryValue::Scalar(revenue)] => *revenue,
            other => panic!("unexpected q6 result: {other:?}"),
        };
        let flushes = session.backend().context().queue().flush_count() - flushes_before;
        assert_eq!(flushes, 1, "the whole plan must flush exactly once");

        // A second session on the same device: same result, and its result
        // buffers come out of the shared pool the first session filled.
        let second = Session::ocelot(shared);
        let again = second.run(&plan, db.catalog()).expect("q6 runs again");
        assert_eq!(again, values, "sessions on one device agree exactly");
        let hits = second.backend().context().memory().stats().recycle_hits;
        assert!(hits > 0, "the second session must reuse pooled buffers");

        println!(
            "{:<24} revenue = {revenue:>12.2}   flushes/plan = {flushes}   \
             pool hits (2nd session) = {hits}",
            session.name(),
        );
        revenues.push(revenue);
    }

    // Hardware obliviousness: every device computed the same revenue.
    let reference = revenues[0];
    for revenue in &revenues {
        assert!(
            (revenue - reference).abs() / reference.abs().max(1.0) < 1e-3,
            "{revenue} vs {reference}"
        );
    }
    println!("\nAll Ocelot devices agree — one plan, three drivers.");
}
