//! Fault injection and the unified recovery protocol, end to end.
//!
//! Run with `cargo run --release -p ocelot-examples --example fault_tolerance`.
//!
//! Two demonstrations against DSL-lowered TPC-H plans:
//!
//! 1. **Scripted transient faults.** A CPU device is given an exact fault
//!    schedule (one kernel launch and one transfer fail transiently). The
//!    plan executor retries the failed nodes with its deterministic
//!    backoff schedule; the query still returns the reference result, and
//!    every retry is visible in the session's recovery counters and trace.
//! 2. **Device loss and failover.** A (simulated discrete) GPU device is
//!    scripted to drop off the bus mid-plan. The session invalidates the
//!    lost device's cached state, re-lowers the logical query onto its
//!    fallback CPU session and re-runs there — the result is exactly equal
//!    to a fault-free CPU run, with the failover counted.

use ocelot_core::SharedDevice;
use ocelot_engine::{PlanError, RecoveryEvent, Session};
use ocelot_kernel::{FaultPlan, FaultSpec};
use ocelot_tpch::{q3_query, q6_query, TpchConfig, TpchDb};

fn main() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 31 });
    let q6 = q6_query(&db).lower(db.catalog()).unwrap();
    let q3 = q3_query(&db).lower(db.catalog()).unwrap();
    let reference_q6 = Session::ocelot(&SharedDevice::cpu()).run(&q6, db.catalog()).unwrap();
    let reference_q3 = Session::ocelot(&SharedDevice::cpu()).run(&q3, db.catalog()).unwrap();

    // --- 1. Scripted transient faults: retried, invisibly. ---
    // (Fused, Q6 is two launches — accumulate and fold; the second one fails.)
    let flaky = SharedDevice::cpu();
    flaky.device().install_fault_plan(FaultPlan::scripted(vec![
        FaultSpec::TransientKernel { at_launch: 1 },
        FaultSpec::TransientTransfer { at_transfer: 1 },
    ]));
    let session = Session::ocelot(&flaky);
    let result = session.run(&q6, db.catalog()).unwrap();
    assert_eq!(result, reference_q6, "retried runs must be reference-equal");
    let stats = session.recovery_stats();
    assert_eq!(stats.retries, 2, "both scripted faults retried: {stats:?}");
    assert_eq!(stats.failovers, 0);
    let retried_sites: Vec<String> = session
        .recovery_trace()
        .iter()
        .filter_map(|event| match event {
            RecoveryEvent::TransientRetry { site, op, .. } => Some(format!("{site} (op {op})")),
            _ => None,
        })
        .collect();
    assert_eq!(retried_sites.len(), 2);
    let injected = flaky.device().fault_stats().expect("fault plan installed");
    println!(
        "transient: {} faults injected ({} launches, {} transfers observed), \
         {} retries [{}], result correct",
        injected.total(),
        injected.transient_kernel,
        injected.transient_transfer,
        stats.retries,
        retried_sites.join(", "),
    );

    // --- 2. Device loss mid-plan: heal by failing over. ---
    let lost = SharedDevice::gpu();
    lost.device().install_fault_plan(FaultPlan::scripted(vec![FaultSpec::DeviceLost { at_op: 8 }]));
    let session = Session::ocelot(&lost).with_fallback(Session::ocelot(&SharedDevice::cpu()));
    let result = session.run(&q3, db.catalog()).unwrap();
    assert_eq!(result, reference_q3, "failover must deliver reference-equal results");
    assert!(lost.device().is_lost(), "loss is sticky");
    let stats = session.recovery_stats();
    assert_eq!(stats.failovers, 1, "one loss, one failover: {stats:?}");
    let target = session
        .recovery_trace()
        .iter()
        .find_map(|event| match event {
            RecoveryEvent::Failover { to } => Some(to.clone()),
            _ => None,
        })
        .expect("the failover must be traced");
    println!("device loss: GPU lost at op 8, failed over to {target}, result correct");

    // Without a fallback the same loss is a typed error, never a panic.
    let doomed = SharedDevice::gpu();
    doomed
        .device()
        .install_fault_plan(FaultPlan::scripted(vec![FaultSpec::DeviceLost { at_op: 8 }]));
    let err = Session::ocelot(&doomed).run(&q3, db.catalog()).unwrap_err();
    assert_eq!(err, PlanError::DeviceLost);
    println!("device loss without fallback: typed error `{err}`");
    println!("ok: transient faults retry invisibly; device loss heals via failover");
}
