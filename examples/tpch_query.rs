//! TPC-H through the logical query algebra, end to end.
//!
//! Run with `cargo run --release -p ocelot-examples --example tpch_query`.
//!
//! Builds TPC-H Q6 in the declarative `Query` DSL, prints `explain()` —
//! the logical tree, the rewrite-rule annotations (selectivity ordering,
//! projection pruning) and the lowered physical plan, in which the three
//! selections, two fetches, the multiply and the sum are **one `pipeline`
//! node** listed with the nodes it replaced — then executes the *same*
//! query on two different devices (multi-core CPU and the simulated
//! discrete GPU) plus the MonetDB-style host baseline (which runs the
//! pipeline member by member), asserting all three agree and that the plan
//! preserves the engine's one-flush-per-plan invariant on both Ocelot
//! devices.

use ocelot_core::SharedDevice;
use ocelot_engine::Session;
use ocelot_tpch::{q6_query, run_query, TpchConfig, TpchDb};

fn main() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.01, seed: 42 });
    println!(
        "generated TPC-H data: {} lineitem rows, {:.1} MiB payload\n",
        db.lineitem_rows(),
        db.payload_bytes() as f64 / (1024.0 * 1024.0)
    );

    // The engine picks the physical operators; explain() shows its work.
    let query = q6_query(&db);
    let explained = query.explain(db.catalog()).expect("q6 lowers");
    println!("{explained}");
    assert!(explained.contains("pipeline [3 select, 2 fetch, 1 map] => sum_f32"), "q6 fuses");

    // Host-side reference configuration.
    let reference = run_query(&Session::monet_seq(), &db, 6).expect("q6 runs on MS");
    let expected = reference.rows[0][0];
    println!("MS reference revenue: {expected:.2}");

    // The same logical query on two Ocelot devices, via run_query's DSL
    // path — each session's plan must flush its queue exactly once.
    for shared in [SharedDevice::cpu(), SharedDevice::gpu()] {
        let session = Session::ocelot(&shared);
        let flushes_before = session.backend().context().queue().flush_count();
        let result = run_query(&session, &db, 6).expect("q6 runs");
        let revenue = result.rows[0][0];
        let flushes = session.backend().context().queue().flush_count() - flushes_before;
        assert_eq!(flushes, 1, "{}: the lowered plan must sync exactly once", session.name());
        assert!(
            (revenue - expected).abs() / expected.abs().max(1.0) < 1e-3,
            "{}: {revenue} vs {expected}",
            session.name()
        );
        println!("{}: revenue {revenue:.2} ({flushes} flush)", session.name());
    }
    println!("\nok: one declarative query, three configurations, identical answers");
}
