//! # ocelot-tpch — the paper's modified TPC-H workload
//!
//! The evaluation (paper §5.3, Appendix A) runs a TPC-H derived workload
//! that was adapted to Ocelot's feature set: DECIMAL columns become REAL,
//! strings support equality only (dictionary codes), multi-column sorting
//! and LIMIT clauses are removed, and seven queries that need `LIKE` or
//! eight-byte joins are omitted. The remaining fourteen queries are
//! 1, 3, 4, 5, 6, 7, 8, 10, 11, 12, 15, 17, 19 and 21.
//!
//! This crate provides:
//!
//! * [`dbgen`] — a deterministic, seedable TPC-H-style data generator that
//!   produces the modified schema directly in the column-store catalog
//!   (dates as day numbers, strings dictionary-encoded). Scale factors are
//!   fractional: `SF 0.01` ≈ 60 k lineitem rows, so the benchmark harness
//!   can sweep "small / intermediate / large" datasets in reasonable time
//!   while preserving the relative row counts between tables.
//! * [`queries`] — the workload, written **declaratively** against the
//!   engine's logical query algebra (`ocelot_engine::query`): each port is
//!   a [`ocelot_engine::Query`] that the rewrite + lowering passes compile
//!   into the same kind-checked [`ocelot_engine::Plan`]s the
//!   session/scheduler stack executes on MS, MP, Ocelot CPU and Ocelot
//!   GPU. Eight queries run through the DSL (Q1, Q3, Q4, Q5, Q6, Q10,
//!   Q12, plus Q14 as an out-of-workload extra the dictionary makes
//!   possible); the pre-DSL hand-built plans survive as parity oracles
//!   behind [`queries::run_query_reference`].

pub mod dbgen;
pub mod queries;

pub use dbgen::{chunked_tables, chunked_tables_by_rows, sparse_keys, TpchConfig, TpchDb};
pub use queries::{
    q10_query, q12_plan, q12_queries, q14_query, q1_direct, q1_params, q1_query, q1_query_p,
    q3_params, q3_plan, q3_query, q3_query_p, q4_plan, q4_query, q5_query, q6_params, q6_plan,
    q6_query, q6_query_p, run_query, run_query_reference, QueryError, QueryResult,
    PORTED_QUERY_IDS, QUERY_IDS, REFERENCE_QUERY_IDS,
};
