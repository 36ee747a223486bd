//! The logical operator interface shared by all four evaluated
//! configurations.
//!
//! A [`Backend`] owns columns of an opaque handle type (`Backend::Column`):
//! host vectors for the MonetDB-style baselines, typed deferred device
//! columns (`DevColumn<i32>` / `DevColumn<f32>` / `DevColumn<Oid>`) for
//! Ocelot. Queries written against this trait therefore run unchanged on
//! every configuration, and data stays wherever the backend keeps it. For
//! Ocelot the `to_*` readbacks (and the eager scalar aggregates) are the
//! **single synchronisation boundary** — everything between them only
//! enqueues kernels, including operators whose result sizes are produced on
//! the device (selections, joins), so a whole pipeline flushes once, at the
//! read (the `ocelot.sync` contract of the paper, §3.4).
//!
//! Selections and element-wise maps are one operator each, parameterised by
//! a row-expression program (`ocelot_core::ops::rowexpr`): [`Backend::select`]
//! takes one [`Pred`] conjunct, [`Backend::map`] one [`Map`] tree, both over
//! the column slots they are handed. Ocelot runs every program through the
//! one evaluator; the Monet baselines match it onto their sequential
//! operators, map operator by map operator, as MonetDB's `algebra` and
//! `batcalc` modules do.
//!
//! Selections return OID candidate lists. Ocelot internally evaluates them
//! as bitmaps and materialises the OID list at the interface, exactly like
//! the paper's Ocelot does when a MonetDB operator consumes a selection
//! result.

use crate::plan::{PlanError, PlanNode, Registers};
pub use ocelot_core::ops::aggregate::GroupedAgg;
pub use ocelot_core::ops::join::DenseJoinKind;
pub use ocelot_core::ops::rowexpr::{Map, Pred};
use ocelot_storage::{BatRef, DenseKey};
use ocelot_trace::{MetricsRegistry, TraceSink};
use std::sync::Arc;

/// A grouping produced by [`Backend::group_by`].
#[derive(Debug, Clone)]
pub struct GroupHandle<C> {
    /// Dense group id per input row.
    pub gids: C,
    /// Number of groups.
    pub num_groups: usize,
    /// Representative row OID per group (carries the grouping key values).
    pub representatives: C,
}

/// A point-in-time snapshot of a backend's monotone device-activity
/// counters. The plan profiler takes one marker before and one after each
/// node and differences them ([`ProfileMarker::delta`]) to attribute queue
/// work — kernels, transfers, flushes, spill traffic — to that node. Host
/// backends have no device activity: their marker stays all-zero, so every
/// delta is zero and the per-node report degrades gracefully to wall time
/// and row counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileMarker {
    /// Kernels launched.
    pub kernels: u64,
    /// Transfers performed.
    pub transfers: u64,
    /// Bytes moved host → device (0 on unified-memory devices).
    pub bytes_to_device: u64,
    /// Bytes moved device → host (0 on unified-memory devices).
    pub bytes_from_device: u64,
    /// Modeled device nanoseconds accumulated.
    pub modeled_ns: u64,
    /// Effective (non-empty) queue flushes.
    pub flushes: u64,
    /// Partition spills taken by partitioned joins.
    pub spills: u64,
    /// Device bytes freed by those spills.
    pub spilled_bytes: u64,
}

impl ProfileMarker {
    /// Counter-wise difference `self - earlier`. All counters are monotone,
    /// so a later marker minus an earlier one is the activity in between;
    /// saturating keeps a misordered pair from panicking in release builds.
    pub fn delta(&self, earlier: &ProfileMarker) -> ProfileMarker {
        ProfileMarker {
            kernels: self.kernels.saturating_sub(earlier.kernels),
            transfers: self.transfers.saturating_sub(earlier.transfers),
            bytes_to_device: self.bytes_to_device.saturating_sub(earlier.bytes_to_device),
            bytes_from_device: self.bytes_from_device.saturating_sub(earlier.bytes_from_device),
            modeled_ns: self.modeled_ns.saturating_sub(earlier.modeled_ns),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            spills: self.spills.saturating_sub(earlier.spills),
            spilled_bytes: self.spilled_bytes.saturating_sub(earlier.spilled_bytes),
        }
    }

    /// Total bytes moved in either direction.
    pub fn transfer_bytes(&self) -> u64 {
        self.bytes_to_device + self.bytes_from_device
    }
}

/// The single set of logical operators every configuration implements.
///
/// Every operator returns `Result<_, PlanError>`, the one failure channel
/// across this trait: a device failure is [`PlanError::Device`] carrying the
/// kernel error. The recoverable classes (out of device memory, transient
/// fault, device loss) are recovered by [`crate::plan::PlanRun`] when the
/// operator runs as a plan node; every other error, and every error of a
/// direct call, is final.
pub trait Backend {
    /// Opaque column handle.
    type Column: Clone;

    /// Human-readable configuration name (`MS`, `MP`, `Ocelot CPU`, …).
    fn name(&self) -> &str;

    // ---- data movement ----

    /// Wraps a base-table BAT as a backend column (Ocelot routes this
    /// through the Memory Manager's device cache).
    fn bat(&self, bat: &BatRef) -> Result<Self::Column, PlanError>;
    /// Lifts host integers into a backend column.
    fn lift_i32(&self, values: Vec<i32>) -> Result<Self::Column, PlanError>;
    /// Lifts host floats into a backend column.
    fn lift_f32(&self, values: Vec<f32>) -> Result<Self::Column, PlanError>;
    /// Lifts host OIDs into a backend column.
    fn lift_oids(&self, values: Vec<u32>) -> Result<Self::Column, PlanError>;
    /// Reads a column back as integers (a `sync` boundary for Ocelot).
    fn to_i32(&self, col: &Self::Column) -> Result<Vec<i32>, PlanError>;
    /// Reads a column back as floats.
    fn to_f32(&self, col: &Self::Column) -> Result<Vec<f32>, PlanError>;
    /// Reads a column back as OIDs.
    fn to_oids(&self, col: &Self::Column) -> Result<Vec<u32>, PlanError>;
    /// Number of values in a column.
    fn len(&self, col: &Self::Column) -> Result<usize, PlanError>;
    /// Whether a column is empty.
    fn is_empty(&self, col: &Self::Column) -> Result<bool, PlanError> {
        Ok(self.len(col)? == 0)
    }

    // ---- selection (candidate lists of OIDs) ----

    /// The rows on which `pred` holds, slot `i` of the conjunct reading
    /// `cols[i]`, optionally restricted to candidates: a constant comparison
    /// or `IN` list over one column, or `left <op> right` over two aligned
    /// integer columns — one comparison pass, no cast or difference
    /// intermediates. Ocelot writes one bitmap in one launch, after fetching
    /// the columns at the candidates when there are any.
    fn select(
        &self,
        cols: &[&Self::Column],
        pred: &Pred,
        cands: Option<&Self::Column>,
    ) -> Result<Self::Column, PlanError>;
    /// Union of two sorted candidate lists (a genuine `OR` of predicates; a
    /// host-side merge on Ocelot, so a sync point mid-plan).
    fn union_oids(&self, a: &Self::Column, b: &Self::Column) -> Result<Self::Column, PlanError>;

    // ---- projection / fetch join ----

    /// `col[oid]` for every OID — the left fetch join.
    fn fetch(&self, col: &Self::Column, oids: &Self::Column) -> Result<Self::Column, PlanError>;

    // ---- arithmetic maps ----

    /// Element-wise `map` over the aligned columns `cols`, leaf `Col(i)`
    /// reading `cols[i]`: `i32` values for a `year`, `f32` for every other
    /// operator ([`Map::yields_i32`]). Ocelot evaluates the whole tree in one
    /// launch; the Monet baselines materialise every operator's result.
    fn map(&self, cols: &[&Self::Column], map: &Map) -> Result<Self::Column, PlanError>;

    // ---- joins ----

    /// Hash equi-join of a foreign-key column against a (unique) primary-key
    /// column. Returns aligned `(fk_oids, pk_oids)`; FK rows without a
    /// partner are dropped.
    fn pkfk_join(
        &self,
        fk: &Self::Column,
        pk: &Self::Column,
    ) -> Result<(Self::Column, Self::Column), PlanError>;
    /// Partitioned hybrid hash FK/PK join: semantically identical to
    /// [`Backend::pkfk_join`] — same pairs, same probe-row order — but free
    /// to radix-partition both inputs and spill cold partitions to host
    /// staging so the working set fits the device budget. `ndv_hint` is the
    /// estimated distinct build-key count (skew-aware partition sizing).
    /// The default delegates to the in-memory join: partitioning is an
    /// execution strategy, not a semantics change.
    fn pkfk_join_partitioned(
        &self,
        fk: &Self::Column,
        pk: &Self::Column,
        ndv_hint: usize,
    ) -> Result<(Self::Column, Self::Column), PlanError> {
        let _ = ndv_hint;
        self.pkfk_join(fk, pk)
    }
    /// Semi join (`EXISTS`): OIDs of left rows with at least one match.
    fn semi_join(
        &self,
        left: &Self::Column,
        right: &Self::Column,
    ) -> Result<Self::Column, PlanError>;
    /// Anti join (`NOT EXISTS`): OIDs of left rows without a match.
    fn anti_join(
        &self,
        left: &Self::Column,
        right: &Self::Column,
    ) -> Result<Self::Column, PlanError>;
    /// Positional join of `keys` against a table whose key column is dense
    /// (`key`: value `v` is row `v − base`), restricted to its `listed` rows
    /// (every row when `None`; distinct for [`DenseJoinKind::Inner`]) — no
    /// key column, no hash table. Returns the rows `kind` keeps (of `keys`, or list
    /// positions for the `Listed*` kinds, ascending) and, for
    /// [`DenseJoinKind::Inner`], the aligned list positions of their
    /// partners: the pairs [`Backend::pkfk_join`] returns against the
    /// listed rows' keys, in the same order (`ocelot_core::ops::join`
    /// module docs). Ocelot resolves the match count before returning.
    fn dense_join(
        &self,
        keys: &Self::Column,
        listed: Option<&Self::Column>,
        key: DenseKey,
        kind: DenseJoinKind,
    ) -> Result<(Self::Column, Option<Self::Column>), PlanError>;

    // ---- grouping ----

    /// Multi-column group-by producing dense group ids in first-appearance
    /// order (Ocelot: by dense codes when the observed key ranges span few
    /// enough key tuples, by one composite-key hash build otherwise —
    /// `ocelot_core::ops::groupby`; the choice is invisible in the result).
    fn group_by(&self, keys: &[&Self::Column]) -> Result<GroupHandle<Self::Column>, PlanError>;

    // ---- grouped aggregation (float results, the engine's 4-byte model) ----

    /// Every aggregate of one grouping at once: one result column per entry
    /// of `funcs`, in order, each `groups.num_groups` long. A [`GroupedAgg`]
    /// names the value column it reads by its position in `values`, so
    /// aggregates over the same column (`sum(x)`, `avg(x)`) share it. Ocelot
    /// runs the whole set as one accumulation launch plus one fold launch —
    /// group ids read once, each distinct value column once, one counter for
    /// `count` and every `avg` (`ocelot_core::ops::aggregate`); the Monet
    /// baselines compute each distinct value column's sum and the count once
    /// and the minima and maxima aggregate by aggregate.
    fn grouped_aggs(
        &self,
        groups: &GroupHandle<Self::Column>,
        values: &[&Self::Column],
        funcs: &[GroupedAgg],
    ) -> Result<Vec<Self::Column>, PlanError>;

    // ---- fused regions ----

    /// Runs a `pipeline` node — a fused streaming region (`crate::fuse`) —
    /// and returns its outputs, in order. `registers` holds the node's
    /// inputs. The default runs the member nodes one after another, which
    /// is exactly the unfused plan; a backend that can evaluate the region
    /// in one pass (Ocelot) overrides it.
    fn pipeline(
        &self,
        node: &PlanNode,
        registers: &Registers<Self::Column>,
    ) -> Result<Vec<Self::Column>, PlanError> {
        crate::plan::run_members(self, node, registers)
    }

    // ---- ungrouped aggregation ----

    /// Sum of a float column as a **column-resident one-element result**:
    /// the deferred form of [`Backend::sum_f32`]. For Ocelot the value stays
    /// in a one-word device buffer (a `DevScalar`) until a `to_*` read, so
    /// MAL plans that aggregate and only later materialise stay sync-free.
    /// The default implementation falls back to the eager host sum.
    fn sum_scalar_f32(&self, values: &Self::Column) -> Result<Self::Column, PlanError> {
        self.lift_f32(vec![self.sum_f32(values)?])
    }

    /// The `ocelot.sync` ownership boundary: flush outstanding device work
    /// so every previously produced column is materialised. A no-op for the
    /// host backends, whose operators are eager.
    fn sync(&self) -> Result<(), PlanError> {
        Ok(())
    }

    /// The **release + evict** step of the OOM-restart protocol
    /// (`ocelot_core::cache` module docs): called by the plan executor when
    /// a node failed with out-of-device-memory, before the node is
    /// restarted. Implementations flush pending work and evict whatever
    /// unpinned device state they can; the return value says whether the
    /// pass made progress (the executor only retries when it did). Host
    /// backends have no device memory to reclaim.
    fn reclaim_memory(&self) -> bool {
        false
    }

    /// The **invalidation** step of the device-loss failover protocol
    /// (`ocelot_engine::plan` module docs): called once a plan run has
    /// failed with `PlanError::DeviceLost`, before the query is re-run on
    /// a fallback backend. Implementations drop every piece of
    /// device-resident state they cache — for Ocelot that is the shared
    /// column cache's entries and the buffer pool's retained buffers, both
    /// stranded on the lost device. Host backends cache nothing.
    fn on_device_lost(&self) {}

    /// Sum of a float column (**sync boundary** for Ocelot — prefer
    /// [`Backend::sum_scalar_f32`] mid-plan).
    fn sum_f32(&self, values: &Self::Column) -> Result<f32, PlanError>;
    /// Minimum of a float column (`+∞` when empty).
    fn min_f32(&self, values: &Self::Column) -> Result<f32, PlanError>;
    /// Maximum of a float column (`-∞` when empty).
    fn max_f32(&self, values: &Self::Column) -> Result<f32, PlanError>;
    /// Row count.
    fn count(&self, values: &Self::Column) -> Result<usize, PlanError> {
        self.len(values)
    }

    // ---- sorting ----

    /// The permutation of OIDs that sorts an integer column (ascending or
    /// descending). **Stable in both directions: equal keys keep input
    /// order** — so the order is a function of the column alone, and OID
    /// for OID the same on every backend.
    fn sort_order_i32(
        &self,
        col: &Self::Column,
        descending: bool,
    ) -> Result<Self::Column, PlanError>;
    /// The permutation of OIDs that sorts a float column by IEEE total order
    /// (`f32::total_cmp`); stable in both directions like
    /// [`Backend::sort_order_i32`].
    fn sort_order_f32(
        &self,
        col: &Self::Column,
        descending: bool,
    ) -> Result<Self::Column, PlanError>;

    // ---- observability ----

    /// A snapshot of this backend's monotone device-activity counters (see
    /// [`ProfileMarker`]). Host backends keep the all-zero default.
    fn profile_marker(&self) -> ProfileMarker {
        ProfileMarker::default()
    }

    /// Attaches a trace sink to every event emitter this backend owns
    /// (queue, device, Memory Manager, column cache for Ocelot). Host
    /// backends own no emitters; the default is a no-op.
    fn attach_tracer(&self, sink: &Arc<TraceSink>) {
        let _ = sink;
    }

    /// Detaches any tracer attached via [`Backend::attach_tracer`].
    fn detach_tracer(&self) {}

    /// Projects this backend's counters (flush totals, fault stats, cache
    /// and memory stats, spill stats, …) into a [`MetricsRegistry`] under
    /// backend-specific prefixes. Host backends export nothing by default.
    fn register_metrics(&self, registry: &mut MetricsRegistry) {
        let _ = registry;
    }
}
