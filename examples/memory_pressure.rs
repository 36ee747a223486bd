//! Memory pressure: the device column cache, eviction and the OOM-restart
//! protocol, end to end.
//!
//! Run with `cargo run --release -p ocelot-examples --example memory_pressure`.
//!
//! Two demonstrations:
//!
//! 1. **Warm column cache.** A stream of sessions re-running TPC-H Q6 on
//!    one shared (simulated discrete) device: the first session uploads
//!    the four lineitem columns the query binds, every later session binds
//!    them from the device-resident cache — zero host→device bytes, proven
//!    with the queue's transfer accounting.
//! 2. **Pressure.** The same query stream under a device-memory budget
//!    smaller than its working set: resident columns are evicted (second
//!    chance), nodes that still run out of memory are *restarted* after a
//!    release+evict reclaim pass (the paper's OOM-restart discipline), and
//!    every query still returns the reference result.

use ocelot_core::SharedDevice;
use ocelot_engine::Session;
use ocelot_tpch::{run_query, QueryResult, TpchConfig, TpchDb};

/// Device budget for the pressure run: ~65% of the stream's base-column
/// working set at this scale factor — small enough to force eviction and
/// node restarts, large enough for every single plan's pinned set.
const PRESSURE_BUDGET: usize = 512 * 1024;

fn check(label: &str, actual: &QueryResult, expected: &QueryResult) {
    if let Some(difference) = actual.first_difference(expected, 1e-5) {
        panic!("{label}: diverged from the reference: {difference}");
    }
}

fn main() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 31 });
    let reference = Session::monet_seq();
    let stream = [6u32, 3, 4, 12, 6, 3, 12, 6];
    let expected: Vec<QueryResult> =
        stream.iter().map(|&q| run_query(&reference, &db, q).unwrap()).collect();

    // --- 1. Warm column cache: re-running Q6 re-uploads nothing. ---
    let shared = SharedDevice::gpu();
    let cold = Session::ocelot(&shared);
    check("cold", &run_query(&cold, &db, 6).unwrap(), &expected[0]);
    let cold_bytes = cold.backend().context().queue().total_stats().bytes_to_device;
    assert!(cold_bytes > 0, "the cold session pays the uploads");
    for rerun in 0..3 {
        let warm = Session::ocelot(&shared);
        check("warm", &run_query(&warm, &db, 6).unwrap(), &expected[0]);
        let warm_bytes = warm.backend().context().queue().total_stats().bytes_to_device;
        assert_eq!(warm_bytes, 0, "warm rerun {rerun} must upload nothing");
    }
    let stats = shared.cache().stats();
    assert!(stats.hits >= 12, "three warm Q6 runs bind four columns each: {stats:?}");
    println!(
        "warm cache: cold session uploaded {cold_bytes} bytes, 3 warm sessions uploaded 0 \
         ({} hits, {} misses)",
        stats.hits, stats.misses
    );

    // --- 2. Pressure: tiny budget => eviction + node restarts. ---
    let pressured = SharedDevice::cpu().with_memory_budget(PRESSURE_BUDGET);
    let mut restarts = 0;
    for (&query, expected) in stream.iter().zip(&expected) {
        let session = Session::ocelot(&pressured);
        check("pressured", &run_query(&session, &db, query).unwrap(), expected);
        restarts += session.backend().reclaim_count();
    }
    let stats = pressured.cache().stats();
    assert!(stats.evictions > 0, "the budget must force eviction: {stats:?}");
    assert!(restarts > 0, "at least one node must restart under pressure");
    println!(
        "pressure: {} queries under a {} KiB budget (working set {} KiB): \
         {} evictions, {} hits, {} node restarts, all results correct",
        stream.len(),
        PRESSURE_BUDGET / 1024,
        db.payload_bytes() / 1024,
        stats.evictions,
        stats.hits,
        restarts,
    );
    println!("ok: warm reruns upload nothing; pressured streams survive via eviction + restart");
}
