//! Out-of-core execution: a join whose working set exceeds the device
//! budget completes through *planned spilling* instead of OOM restarts.
//!
//! Run with `cargo run --release -p ocelot-examples --example out_of_core`.
//!
//! The demonstration pits the two recovery disciplines against each other
//! on the same Q3-shaped three-table join under the same device budget:
//!
//! 1. **Reactive (PR 4).** The in-memory hash-join plan runs under a
//!    budget smaller than its working set. Every `OutOfDeviceMemory` error
//!    is returned by the executing node, a reclaim pass evicts what it can,
//!    and the node restarts — correct, but the work up to the fault is
//!    thrown away each time (`reclaim_count() > 0`).
//! 2. **Planned (this PR).** Lowering is told the budget up front
//!    (`RewriteConfig::with_device_budget`), estimates the join working
//!    set from catalog statistics and emits the *partitioned* hybrid hash
//!    join instead: build and probe sides are radix-partitioned, hot
//!    partitions stay device-resident, cold ones spill to host staging and
//!    stream back one pair at a time. Same result, zero restarts, and the
//!    spill accounting proves the out-of-core path actually engaged.
//!
//! The generator's keys are row ids, and a join on a dense key is
//! positional: no hash table, a word of scratch per row, within budget. So
//! the demonstration runs on a copy of the database whose order and
//! customer keys are sparse (`sparse_keys`), as official TPC-H's
//! `o_orderkey` is — its joins hash.

use ocelot_core::SharedDevice;
use ocelot_engine::{RewriteConfig, Session};
use ocelot_tpch::{q3_query, sparse_keys, TpchConfig, TpchDb};

/// Device budget for both runs: below the in-memory join's working set at
/// this scale factor (so the reactive path must restart), above the
/// partitioned join's bounded transient peak (so the planned path never
/// faults).
const DEVICE_BUDGET: usize = 2048 * 1024;

fn main() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.01, seed: 31 });
    let catalog = &sparse_keys(db.catalog());

    // Reference: the in-memory plan on an unconstrained device.
    let in_memory = q3_query(&db).lower_with(catalog, &RewriteConfig::optimized()).unwrap();
    let reference = Session::ocelot(&SharedDevice::cpu());
    let expected = reference.run(&in_memory, catalog).unwrap();

    // --- 1. Reactive: in-memory plan under the budget => restarts. ---
    let pressured = SharedDevice::cpu().with_memory_budget(DEVICE_BUDGET);
    let session = Session::ocelot(&pressured);
    let got = session.run(&in_memory, catalog).unwrap();
    assert_eq!(got, expected, "the restart protocol must still be correct");
    let restarts = session.backend().reclaim_count();
    assert!(restarts > 0, "the in-memory plan must not fit the budget");
    println!(
        "reactive: in-memory Q3 join under a {} KiB budget survives via {restarts} OOM \
         restart(s)",
        DEVICE_BUDGET / 1024
    );

    // --- 2. Planned: budget-aware lowering => spill, zero restarts. ---
    let plan = q3_query(&db)
        .lower_with(catalog, &RewriteConfig::optimized().with_device_budget(DEVICE_BUDGET))
        .unwrap();
    let budgeted = SharedDevice::cpu().with_memory_budget(DEVICE_BUDGET);
    let session = Session::ocelot(&budgeted);
    let got = session.run(&plan, catalog).unwrap();
    assert_eq!(got, expected, "the partitioned join must be reference-equal");
    let restarts = session.backend().reclaim_count();
    let spills = session.backend().spill_stats();
    assert_eq!(restarts, 0, "planned spilling must replace the restart protocol");
    assert!(spills.spills > 0, "the budget must force cold partitions to spill");
    assert_eq!(spills.unspills, spills.spills, "every spilled partition streams back");
    println!(
        "planned: partitioned Q3 join under the same budget: 0 restarts, {} partitions \
         ({} hot), {} spills / {} unspills, {} KiB staged to host",
        spills.partitions,
        spills.hot,
        spills.spills,
        spills.unspills,
        spills.spilled_bytes / 1024,
    );
    println!("ok: same budget, same result — planned spill replaces reactive restart");
}
