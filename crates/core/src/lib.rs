//! # ocelot-core — hardware-oblivious relational operators
//!
//! This crate is the Rust reproduction of the paper's primary contribution:
//! a *single* set of relational operators written against the kernel
//! programming model ([`ocelot_kernel`]), with no inherent reliance on any
//! particular hardware architecture. The same operator code runs unchanged
//! on the sequential CPU driver, the multi-core CPU driver and the simulated
//! discrete GPU — the only device-dependent decisions (launch configuration
//! and preferred memory-access pattern) are made by the driver, exactly as
//! the paper prescribes (§4.2).
//!
//! The crate is organised the way Figure 2 of the paper draws the system:
//!
//! * [`context::OcelotContext`] — bundles a device, its lazily evaluated
//!   command queue, the Memory Manager and the device's column cache (the
//!   paper's "OpenCL context management" + "memory manager" boxes).
//! * [`memory_manager::MemoryManager`] — pooled, budgeted allocation of
//!   device buffers, the reclaim pass of the OOM-restart protocol, host
//!   offload of intermediates, and producer events per buffer (§3.3).
//! * [`cache::ColumnCache`] — the paper's BAT registry: the *device-wide*
//!   base-column cache shared by every context of a [`SharedDevice`] (a
//!   stand-alone context owns a private one): lazy upload on first bind
//!   (one copy on a discrete device; on unified memory the BAT's own tail),
//!   refcounted pinning through the deferred-value handles, second-chance
//!   eviction under a byte budget, and the OOM-restart protocol that lets
//!   plans survive allocation failure (§3.3, §4.3 — see the module docs
//!   for the full lifecycle contract).
//! * [`primitives`] — the data-parallel building blocks the operators are
//!   composed of: prefix sums, gather, reduction, bitmaps and the two-phase
//!   "count, scan, write" pattern used whenever result sizes are unknown.
//! * [`ops`] — the operators themselves: bitmap selection, radix sort, the
//!   optimistic/pessimistic parallel hash table, hash and positional joins,
//!   grouping and aggregation (§4.1). A projection (left fetch join) is
//!   [`primitives::gather`].
//!
//! ## Quick example
//!
//! ```
//! use ocelot_core::context::OcelotContext;
//! use ocelot_core::ops;
//! use ocelot_core::ops::rowexpr::Pred;
//!
//! // The same code runs on any device — swap in `OcelotContext::gpu()` or
//! // `OcelotContext::cpu_sequential()` and nothing else changes. Every
//! // operator returns a *deferred* device value; `.read()` / `.get()` at
//! // the end is the pipeline's single synchronisation point.
//! let ctx = OcelotContext::cpu();
//! let column = ctx.upload_i32(&[5, 1, 9, 3, 7, 3], "values").unwrap();
//! // `3 <= values <= 7`: one conjunct over column slot 0.
//! let pred = Pred::RangeI32 { col: 0, low: 3, high: 7 };
//! let bitmap = ops::select::select_where(&ctx, &[&column.reinterpret()], &[pred]).unwrap();
//! let oids = ops::select::materialize_bitmap(&ctx, &bitmap).unwrap();
//! assert_eq!(oids.read(&ctx).unwrap(), vec![0, 3, 4, 5]);
//! ```

pub mod buffer_pool;
pub mod cache;
pub mod context;
pub mod memory_manager;
pub mod ops;
pub mod partition;
pub mod primitives;

pub use buffer_pool::{BufferPool, PoolStats};
pub use cache::{CacheStats, ColumnCache, Pinned};
pub use context::{
    ColLen, DevColumn, DevScalar, DevWord, LenSource, OcelotContext, Oid, PlanSlot, SharedDevice,
};
pub use memory_manager::{MemoryManager, MemoryStats};
pub use ocelot_trace::{MetricsRegistry, TraceEvent, TraceEventKind, TraceHandle, TraceSink};
pub use partition::{
    partition_by_key, partitioned_pkfk_join, Partition, PartitionedJoin, PartitionedJoinConfig,
    SpillPool, SpillStats,
};
pub use primitives::bitmap::Bitmap;
