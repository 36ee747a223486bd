//! # ocelot-engine — the query layer
//!
//! The paper evaluates four configurations that all execute *the same
//! logical plans*: sequential MonetDB (MS), parallel MonetDB (MP), Ocelot on
//! the CPU and Ocelot on the GPU (§5.1). This crate provides the layer that
//! makes that possible in the reproduction:
//!
//! * [`backend::Backend`] — a single logical operator interface
//!   (selection, projection, arithmetic maps, joins, grouping, aggregation,
//!   sorting). TPC-H queries in `ocelot-tpch` are written once against this
//!   trait, mirroring how Ocelot's operators are drop-in replacements behind
//!   MonetDB's operator interface.
//! * [`backends`] — the four implementations: [`backends::MonetSeqBackend`]
//!   (MS), [`backends::MonetParBackend`] (MP), and [`backends::OcelotBackend`]
//!   over any `ocelot-core` device (Ocelot CPU / Ocelot GPU).
//! * [`mal`] — a miniature MAL-like program representation and the Ocelot
//!   query rewriter that reroutes plan instructions from the
//!   `algebra`/`batcalc` modules to their `ocelot` counterparts and inserts
//!   explicit `sync` instructions at ownership boundaries (paper §3.4).
//!   Since PR 3 MAL programs are **compiled** ([`mal::compile`]) into the
//!   engine's operator DAG instead of being interpreted statement by
//!   statement.
//! * [`plan`] — the compiled form: a kind-checked DAG of [`plan::PlanNode`]s
//!   with declared inputs/outputs, executed by a resumable register machine
//!   ([`plan::PlanRun`]) that frees registers at their last use.
//! * [`query`] — the **logical** layer above all of that (PR 5): a typed
//!   relational algebra ([`query::Query`] — scan / filter / map / join /
//!   group / sort / limit over an expression tree), a rule-based rewriter
//!   (constant folding, predicate pushdown, selectivity-ordered predicate
//!   application, projection pruning) and an optimizing lowering pass that
//!   compiles the logical tree onto [`plan::PlanBuilder`] — so the
//!   *engine* picks physical operators (selection kinds, candidate
//!   chaining, join build sides), not the query author.
//!   [`query::Query::explain`] renders every decision.
//! * [`session`] — one client's execution context. Ocelot sessions are
//!   created from an `ocelot_core::SharedDevice`: private command queue,
//!   result buffers recycled through the device's shared pool.
//! * [`scheduler`] — admits several sessions' plans together and
//!   interleaves their node execution under a deterministic admission +
//!   round-robin contract (see the module docs), so host-resolve points of
//!   one query overlap with the enqueue work of another while per-plan
//!   flush bounds hold unchanged. One drive serves both schedulers: the
//!   serving policy ([`scheduler::ServeScheduler`]) admits by per-tenant
//!   deficit round-robin over two priority lanes with bounded-queue
//!   backpressure (typed [`plan::PlanError::Overloaded`] rejection), and
//!   FIFO ([`scheduler::Scheduler`]) is that drive with one tenant.
//! * [`serve`] — the parameterized compiled-plan cache: queries authored
//!   once per *shape* with [`query::param`] placeholders, compiled once
//!   (rewrite + statistics + lowering), then re-bound per request from
//!   the device-wide [`serve::PlanCache`] — invalidated on device loss
//!   and versioned by catalog generation.

pub mod analyze;
pub mod backend;
pub mod backends;
pub mod fuse;
pub mod mal;
pub mod plan;
pub mod query;
pub mod scheduler;
pub mod serve;
pub mod session;

pub use analyze::{verify, FlushBound, PlanDiagnostic, VerifyReport};
pub use backend::{Backend, GroupHandle, GroupedAgg, ProfileMarker};
pub use backends::{MonetParBackend, MonetSeqBackend, OcelotBackend};
pub use fuse::fuse_plan;
pub use ocelot_trace::{
    MetricsRegistry, NodeAction, SchedAction, TraceEvent, TraceEventKind, TraceSink,
};
pub use plan::{
    NodeProfile, Plan, PlanBuilder, PlanError, PlanNode, PlanOp, PlanProfile, QueryValue,
    RecoveryEvent, RecoveryStats,
};
pub use query::{
    col, lit, litf, param, AggSpec, Expr, ParamValue, Query, QueryBuildError, RewriteConfig,
};
pub use scheduler::{
    Lane, QueryJob, Scheduler, ServeJob, ServeOutcome, ServeScheduler, ServeStats,
};
pub use serve::{PlanCache, PlanCacheStats};
pub use session::Session;
