//! The partition manager: radix partitioning, the spill pool and the
//! partitioned hybrid hash join — the *planned* out-of-core path that makes
//! the OOM-restart protocol (`cache.rs`) the fallback instead of the plan.
//!
//! A join whose hash table does not fit the device budget is split into
//! `P = 2^bits` partitions by a multiplicative hash of the key: build and
//! probe rows with equal keys land in the same partition, so the join
//! decomposes into `P` independent small joins whose tables *do* fit. Hot
//! partitions stay device-resident; cold ones are evicted to host staging
//! buffers through [`MemoryManager::offload_intermediate`] and restored
//! one-at-a-time as the join stream reaches them — the hybrid hash join
//! discipline.
//!
//! # Lifecycle contract
//!
//! Every partition produced by [`partition_by_key`] is in exactly one of
//! three states, and every transition is accounted in [`SpillStats`]:
//!
//! | State      | Device memory          | Host staging                | Transitions (accounting)                                    |
//! |------------|------------------------|-----------------------------|-------------------------------------------------------------|
//! | `Device`   | keys + oids resident   | —                           | [`SpillPool::spill`] → `Spilled` (`spills` +1, `spilled_bytes` += buffer bytes); consumed by the join → `Consumed` |
//! | `Spilled`  | —                      | snapshot held by the Memory Manager, keyed by restore tokens | [`SpillPool::restore`] → `Device` (`unspills` +1, re-pays the host→device transfer) |
//! | `Consumed` | —                      | —                           | terminal: buffers dropped, memory returned                   |
//!
//! Accounting invariants (checked by the module tests):
//!
//! * `spills ≥ unspills`, and every spill moves *both* of a partition's
//!   buffers (keys and oids) to the host — a partition is never half
//!   resident.
//! * `spilled_bytes` equals the sum of the device bytes freed by spills and
//!   is mirrored 1:1 in [`crate::MemoryStats::bytes_offloaded`].
//! * After the join completes, every partition is `Consumed`: no staging
//!   buffer and no partition device buffer outlives the operator.
//! * The join's result is **identical** to the in-memory join's, in the
//!   same (probe-row) order — partitioning is an execution strategy, not a
//!   semantics change.
//!
//! # Deliberate sync points
//!
//! Partitioning resolves the per-partition sizes on the host (one flush,
//! reading the count table — `2^bits` words per work-group, a work-group per
//! 1024 input rows, at most 64): the partition buffers are exact-size
//! allocations and the spill/restore schedule is host-side control flow,
//! exactly like the group-by's group count. Spilling flushes the queue
//! (pending producers must run before a snapshot). The per-partition joins
//! then stay lazy until their results are read for the OID remap.
//!
//! # Skew
//!
//! Partition sizing ([`PartitionedJoinConfig::plan`]) derives the partition
//! count from the *estimated distinct count*, not just the row count: a
//! build side whose rows concentrate on few keys (rows ≫ ndv) gets extra
//! partition bits so the heaviest partition still fits. If a partition
//! still overflows (the estimate lied), the join **recursively
//! repartitions** it with a different hash seed (`repartitions` counts
//! these passes) up to [`PartitionedJoinConfig::max_passes`]; past that it
//! builds the oversized table anyway and lets the OOM-restart protocol be
//! the backstop it was designed to be.

use crate::context::{DevColumn, OcelotContext, Oid};
use crate::memory_manager::MemoryManager;
use crate::ops::aggregate::partial_tables_for;
use crate::ops::hash_table::{self, OcelotHashTable};
use crate::ops::join;
use crate::primitives::histogram::{sum_rows, HistogramKernel, MAX_DIGITS};
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result, WorkGroupCtx,
};
use std::sync::Arc;

/// Upper bound on partition bits per pass (256 partitions): a row of the
/// count table ([`crate::primitives::histogram`]) holds `2^bits` entries.
pub const MAX_PARTITION_BITS: u32 = 8;
const _: () = assert!(1 << MAX_PARTITION_BITS == MAX_DIGITS);

/// One multiplicative hash seed per recursion pass, so a repartition
/// redistributes keys that collided in the parent pass.
const PARTITION_SEEDS: [u32; 4] = [0x9E37_79B1, 0x85EB_CA77, 0xC2B2_AE3D, 0x2545_F491];

/// The partition of a key word at recursion depth `pass`.
#[inline]
fn partition_of(word: u32, pass: usize, bits: u32) -> usize {
    let seed = PARTITION_SEEDS[pass % PARTITION_SEEDS.len()];
    (word.wrapping_add(pass as u32).wrapping_mul(seed) >> (32 - bits)) as usize
}

/// Counters of the spill pool and the partitioned join (the observability
/// surface the out-of-core example and benchmarks assert on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Partitions produced across all passes.
    pub partitions: u64,
    /// Partitions that stayed device-resident from creation to consumption.
    pub hot: u64,
    /// Partition evictions to host staging buffers.
    pub spills: u64,
    /// Partition restores from host staging buffers.
    pub unspills: u64,
    /// Device bytes freed by spills (mirrored in
    /// [`crate::MemoryStats::bytes_offloaded`]).
    pub spilled_bytes: u64,
    /// Recursive repartition passes taken on overflowing partitions.
    pub repartitions: u64,
}

impl SpillStats {
    /// Projects these counters into a
    /// [`ocelot_trace::MetricsRegistry`] under `<prefix>.partitions`,
    /// `<prefix>.hot`, `<prefix>.spills`, `<prefix>.unspills`,
    /// `<prefix>.spilled_bytes` and `<prefix>.repartitions`.
    pub fn register_metrics(&self, prefix: &str, registry: &mut ocelot_trace::MetricsRegistry) {
        registry.set_counter(&format!("{prefix}.partitions"), self.partitions);
        registry.set_counter(&format!("{prefix}.hot"), self.hot);
        registry.set_counter(&format!("{prefix}.spills"), self.spills);
        registry.set_counter(&format!("{prefix}.unspills"), self.unspills);
        registry.set_counter(&format!("{prefix}.spilled_bytes"), self.spilled_bytes);
        registry.set_counter(&format!("{prefix}.repartitions"), self.repartitions);
    }

    /// Adds another counter snapshot into this one (operators accumulate
    /// per-join stats into a backend-lifetime total).
    pub fn merge(&mut self, other: &SpillStats) {
        self.partitions += other.partitions;
        self.hot += other.hot;
        self.spills += other.spills;
        self.unspills += other.unspills;
        self.spilled_bytes += other.spilled_bytes;
        self.repartitions += other.repartitions;
    }
}

// ---------------------------------------------------------------------------
// Radix partitioning kernels
// ---------------------------------------------------------------------------

/// Scatters each element (key and OID) into its partition's own exact-size
/// buffer. The histogram that ran under the same launch left every
/// work-group's partition counts in `counts` (group-major rows,
/// [`crate::primitives::histogram`]): a group's rows of a partition go
/// behind the rows the groups before it put there, in input order.
struct PartitionScatterKernel {
    keys_in: Buffer,
    /// Carried OIDs; `None` at the top level (the OID *is* the row index).
    oids_in: Option<Buffer>,
    keys_out: Vec<Buffer>,
    oids_out: Vec<Buffer>,
    counts: Buffer,
    pass: usize,
    bits: u32,
}

impl Kernel for PartitionScatterKernel {
    fn name(&self) -> &str {
        "partition_scatter"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let (start, end) = group.chunk_bounds(group.n());
        let keys_in = self.keys_in.as_words();
        let oids_in = self.oids_in.as_ref().map(|b| b.as_words());
        let parts = 1usize << self.bits;
        let counts = self.counts.chunk(0, group.num_groups() * parts);
        let mut cursors = sum_rows(counts, parts, 0..group.group_id());
        for idx in start..end {
            let key = keys_in[idx];
            let p = partition_of(key, self.pass, self.bits);
            let local = cursors[p] as usize;
            let oid = match oids_in {
                Some(oids) => oids[idx],
                None => idx as u32,
            };
            // Scatter targets are disjoint across work-groups (the cursors
            // reserve a unique position per element) but not contiguous, so
            // the writes go through the atomic cells.
            self.keys_out[p].cells()[local].store(key, std::sync::atomic::Ordering::Relaxed);
            self.oids_out[p].cells()[local].store(oid, std::sync::atomic::Ordering::Relaxed);
            cursors[p] += 1;
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let table_walks = ((launch.num_groups * launch.num_groups) << self.bits) as u64;
        KernelCost::new(
            (launch.n as u64 * 2 + table_walks) * 4,
            (launch.n as u64) * 8,
            launch.n as u64 + table_walks,
            0,
        )
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = vec![
            BufferAccess::slice_read(&self.keys_in, 0..launch.n),
            BufferAccess::slice_read(&self.counts, 0..launch.num_groups << self.bits),
        ];
        accesses.extend(self.oids_in.iter().map(|b| BufferAccess::slice_read(b, 0..launch.n)));
        let outputs = self.keys_out.iter().chain(&self.oids_out);
        accesses.extend(outputs.map(|b| BufferAccess::cells_write(b, 0..b.len())));
        Some(KernelAccesses::of(accesses))
    }
}

// ---------------------------------------------------------------------------
// Partitions and the spill pool
// ---------------------------------------------------------------------------

/// Where a partition's buffers currently live (see the module contract).
enum PartitionState {
    /// Keys and OIDs resident on the device.
    Device { keys: DevColumn<i32>, oids: DevColumn<Oid> },
    /// Both buffers snapshot to host staging; tokens restore them.
    Spilled { keys_token: u64, oids_token: u64 },
    /// Buffers dropped after the join consumed the partition.
    Consumed,
}

/// One partition of a partitioned input: `rows` keys plus the original row
/// ids (OIDs) they came from.
pub struct Partition {
    rows: usize,
    /// Device bytes the partition occupies when resident.
    resident_bytes: usize,
    /// Whether this partition was ever spilled (hot = never).
    was_spilled: bool,
    state: PartitionState,
}

impl Partition {
    /// Number of rows in the partition.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the partition is currently device-resident.
    pub fn is_resident(&self) -> bool {
        matches!(self.state, PartitionState::Device { .. })
    }

    /// Device bytes the partition occupies while resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The resident key/OID columns. Panics when not resident (restore
    /// first — state errors here are operator bugs, not runtime conditions).
    fn columns(&self) -> (&DevColumn<i32>, &DevColumn<Oid>) {
        match &self.state {
            PartitionState::Device { keys, oids } => (keys, oids),
            _ => panic!("partition is not device-resident"),
        }
    }
}

/// Keeps hot partitions device-resident under a byte budget and evicts cold
/// ones to host staging buffers (see the module contract table).
pub struct SpillPool {
    /// Budget for *resident partition* bytes (`None` = keep everything hot).
    budget: Option<usize>,
    resident_bytes: usize,
    stats: SpillStats,
}

impl SpillPool {
    /// A pool that keeps at most `budget` bytes of partitions resident.
    pub fn new(budget: Option<usize>) -> SpillPool {
        SpillPool { budget, resident_bytes: 0, stats: SpillStats::default() }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Bytes of partitions currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Registers a freshly produced resident partition.
    fn admit(&mut self, partition: &Partition) {
        self.stats.partitions += 1;
        self.resident_bytes += partition.resident_bytes;
    }

    /// Whether the current resident set plus `working` more bytes (the
    /// active pair's hash-table scratch) exceeds the pool budget.
    pub fn over_budget(&self, working: usize) -> bool {
        match self.budget {
            Some(budget) => self.resident_bytes + working > budget,
            None => false,
        }
    }

    /// Evicts a resident partition to host staging buffers. **Sync point**:
    /// the snapshot flushes pending producers. No-op on non-resident
    /// partitions.
    pub fn spill(&mut self, memory: &MemoryManager, partition: &mut Partition) -> Result<()> {
        let (keys, oids) = match std::mem::replace(&mut partition.state, PartitionState::Consumed) {
            PartitionState::Device { keys, oids } => (keys, oids),
            other => {
                partition.state = other;
                return Ok(());
            }
        };
        let keys_token = memory.offload_intermediate(keys.buffer)?;
        let oids_token = memory.offload_intermediate(oids.buffer)?;
        partition.state = PartitionState::Spilled { keys_token, oids_token };
        partition.was_spilled = true;
        self.stats.spills += 1;
        self.stats.spilled_bytes += partition.resident_bytes as u64;
        self.resident_bytes -= partition.resident_bytes;
        Ok(())
    }

    /// Restores a spilled partition to the device (re-pays the transfer).
    /// No-op on resident partitions.
    pub fn restore(&mut self, memory: &MemoryManager, partition: &mut Partition) -> Result<()> {
        let PartitionState::Spilled { keys_token, oids_token } = partition.state else {
            return Ok(());
        };
        let keys = memory.restore_intermediate(keys_token)?;
        let oids = memory.restore_intermediate(oids_token)?;
        partition.state = PartitionState::Device {
            keys: DevColumn::new(keys, partition.rows)?,
            oids: DevColumn::new(oids, partition.rows)?,
        };
        self.stats.unspills += 1;
        self.resident_bytes += partition.resident_bytes;
        Ok(())
    }

    /// Marks a partition consumed and drops its buffers (terminal state).
    pub fn consume(&mut self, partition: &mut Partition) {
        if partition.is_resident() {
            self.resident_bytes -= partition.resident_bytes;
            if !partition.was_spilled {
                self.stats.hot += 1;
            }
        }
        partition.state = PartitionState::Consumed;
    }

    fn count_repartition(&mut self) {
        self.stats.repartitions += 1;
    }
}

/// Radix-partitions `keys` (with carried `oids`, or the row index at the
/// top level) into `2^bits` partitions by the pass-`pass` hash.
///
/// **Deliberate sync point:** the per-partition sizes are resolved on the
/// host (one flush) so each partition gets an exact-size, individually
/// spillable allocation — the analogue of the group-by's group-count
/// resolve. Registered partitions start `Device` (hot); the caller's
/// [`SpillPool`] decides who stays.
pub fn partition_by_key(
    ctx: &OcelotContext,
    keys: &DevColumn<i32>,
    oids: Option<&DevColumn<Oid>>,
    bits: u32,
    pass: usize,
    pool: &mut SpillPool,
) -> Result<Vec<Partition>> {
    let bits = bits.clamp(1, MAX_PARTITION_BITS);
    let parts = 1usize << bits;
    let n = keys.len(ctx)?;
    if n == 0 {
        let empty = (0..parts)
            .map(|_| Partition {
                rows: 0,
                resident_bytes: 0,
                was_spilled: false,
                state: PartitionState::Consumed,
            })
            .collect::<Vec<_>>();
        for p in &empty {
            pool.admit(p);
        }
        return Ok(empty);
    }

    // One count row per work-group, the work-groups from the row count alone
    // (the partial-table rule of `ops::aggregate`).
    let tables = partial_tables_for(n, parts);
    let launch = ctx.launch(n).with_num_groups(tables);
    let counts = ctx.alloc_uninit(parts * tables, "partition_counts")?;
    let mut wait = ctx.wait_for(keys);
    if let Some(oids) = oids {
        wait.extend(ctx.wait_for(oids));
    }
    let count_event = ctx.queue().enqueue_kernel(
        Arc::new(HistogramKernel {
            name: "partition_histogram",
            keys: keys.buffer.clone(),
            counts: counts.clone(),
            digits: parts,
            digit: move |key| partition_of(key, pass, bits),
        }),
        launch.clone(),
        &wait,
    )?;
    ctx.memory().record_producer(&counts, count_event);

    // Host-resolve the partition sizes (the documented sync point) from the
    // count table.
    ctx.materialize(&counts, parts * tables)?;
    let sizes = sum_rows(counts.chunk(0, parts * tables), parts, 0..tables);
    let sizes: Vec<usize> = sizes[..parts].iter().map(|rows| *rows as usize).collect();

    // Exact-size (pool-bypassing) allocations: each partition's buffers are
    // individually spillable, and dropping them must actually return the
    // device memory rather than park it in the recycle pool.
    let mut keys_out = Vec::with_capacity(parts);
    let mut oids_out = Vec::with_capacity(parts);
    for (p, &size) in sizes.iter().enumerate() {
        keys_out.push(ctx.memory().alloc_exact(size.max(1), &format!("part_keys_{p}"))?);
        oids_out.push(ctx.memory().alloc_exact(size.max(1), &format!("part_oids_{p}"))?);
    }

    let scatter_event = ctx.queue().enqueue_kernel(
        Arc::new(PartitionScatterKernel {
            keys_in: keys.buffer.clone(),
            oids_in: oids.map(|o| o.buffer.clone()),
            keys_out: keys_out.clone(),
            oids_out: oids_out.clone(),
            counts,
            pass,
            bits,
        }),
        launch,
        &[count_event],
    )?;

    let mut partitions = Vec::with_capacity(parts);
    for (p, &rows) in sizes.iter().enumerate() {
        ctx.memory().record_producer(&keys_out[p], scatter_event);
        ctx.memory().record_producer(&oids_out[p], scatter_event);
        let resident_bytes = keys_out[p].bytes() + oids_out[p].bytes();
        let partition = Partition {
            rows,
            resident_bytes,
            was_spilled: false,
            state: PartitionState::Device {
                keys: DevColumn::new(keys_out[p].clone(), rows)?,
                oids: DevColumn::new(oids_out[p].clone(), rows)?,
            },
        };
        pool.admit(&partition);
        partitions.push(partition);
    }
    Ok(partitions)
}

// ---------------------------------------------------------------------------
// The partitioned hybrid hash join
// ---------------------------------------------------------------------------

/// Configuration of a partitioned join (see [`PartitionedJoinConfig::plan`]
/// for the stats-driven constructor).
#[derive(Debug, Clone, Copy)]
pub struct PartitionedJoinConfig {
    /// Partition bits for the first pass (`2^bits` partitions).
    pub partition_bits: u32,
    /// Byte budget for resident partitions + the per-partition working set
    /// (`None` = unbounded: everything stays hot).
    pub device_budget: Option<usize>,
    /// Build rows past which a partition is recursively repartitioned.
    pub max_build_rows: usize,
    /// Maximum partitioning passes (initial pass included).
    pub max_passes: usize,
}

/// Bytes of the hash-table working set for a build side of `rows` keys, as
/// the spill schedule budgets it: twice the slots of a hash-sized table
/// ([`hash_table::table_capacity`]). The same model sizes a monolithic
/// join's working set when a query is lowered, so the planner and this
/// schedule agree on what fits.
pub fn hash_table_bytes(rows: usize) -> usize {
    2 * hash_table::table_capacity(rows) * 4
}

impl PartitionedJoinConfig {
    /// Plans partition sizing from catalog statistics. The partition count
    /// is the smallest power of two whose *expected heaviest* build
    /// partition fits the per-partition budget share; the skew factor
    /// `rows / ndv` inflates the expectation so concentrated key
    /// distributions get extra bits (one heavy key cannot blow a partition
    /// past its share).
    pub fn plan(
        build_rows: usize,
        probe_rows: usize,
        ndv_hint: usize,
        device_budget: Option<usize>,
    ) -> PartitionedJoinConfig {
        let _ = probe_rows;
        let budget = device_budget.unwrap_or(usize::MAX);
        // A quarter of the budget for the active partition's working set:
        // partitions of both sides + table scratch + result slack.
        let share = (budget / 4).max(4096);
        let max_build_rows = (share / 16).max(64);
        let skew = (build_rows.max(1) / ndv_hint.max(1)).max(1);
        let wanted = (build_rows.max(1) * skew).div_ceil(max_build_rows);
        let bits = (wanted.next_power_of_two().trailing_zeros()).clamp(1, MAX_PARTITION_BITS);
        PartitionedJoinConfig { partition_bits: bits, device_budget, max_build_rows, max_passes: 3 }
    }
}

/// The result of a partitioned join: probe-order OID pairs (identical to
/// the in-memory [`join::hash_join`] output) plus the spill accounting.
pub struct PartitionedJoin {
    /// OIDs into the probe input, one per result tuple, in probe-row order.
    pub probe_oids: DevColumn<Oid>,
    /// OIDs into the build input, aligned with `probe_oids`.
    pub build_oids: DevColumn<Oid>,
    /// Spill-pool counters accumulated across all passes.
    pub stats: SpillStats,
}

/// Partitioned hybrid hash join of `probe` against unique-key `build`.
///
/// Both inputs are radix-partitioned by the same hash; partitions beyond
/// the device budget are spilled to host staging and restored one at a
/// time; each partition pair joins through the ordinary in-memory hash
/// join, and the per-partition results are remapped to global OIDs and
/// merged **in probe-row order** — the output is bit-identical to
/// [`join::hash_join`] on the unpartitioned inputs.
///
/// **Deliberate sync points:** partition sizing, the spill/restore
/// schedule and the final merge are host-side control flow; see the module
/// docs.
pub fn partitioned_pkfk_join(
    ctx: &OcelotContext,
    probe: &DevColumn<i32>,
    build: &DevColumn<i32>,
    cfg: &PartitionedJoinConfig,
) -> Result<PartitionedJoin> {
    let offloaded_before = ctx.memory().stats().bytes_offloaded;
    let mut pool = SpillPool::new(cfg.device_budget);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    join_pass(ctx, probe, None, build, None, 0, cfg, &mut pool, &mut pairs)?;

    // Spill accounting must agree across layers at join completion: every
    // spilled partition was offloaded exactly once through the Memory
    // Manager (so the byte counters mirror each other), and every spill was
    // paired with a restore (no partition is still parked on the host).
    debug_assert_eq!(
        ctx.memory().stats().bytes_offloaded - offloaded_before,
        pool.stats().spilled_bytes,
        "spilled_bytes must mirror MemoryStats::bytes_offloaded at join completion",
    );
    debug_assert_eq!(
        pool.stats().unspills,
        pool.stats().spills,
        "every spilled partition must be restored before the join completes",
    );

    // Merge: build keys are unique, so each probe row emits at most one
    // pair and probe-OID order reproduces the in-memory join's output.
    pairs.sort_unstable();
    let probe_ids: Vec<u32> = pairs.iter().map(|(p, _)| *p).collect();
    let build_ids: Vec<u32> = pairs.iter().map(|(_, b)| *b).collect();
    Ok(PartitionedJoin {
        probe_oids: ctx.upload_u32(&probe_ids, "pjoin_probe_oids")?,
        build_oids: ctx.upload_u32(&build_ids, "pjoin_build_oids")?,
        stats: pool.stats(),
    })
}

/// One partitioning pass: partition both sides, spill what exceeds the
/// budget, then join each partition pair (recursing on overflow).
#[allow(clippy::too_many_arguments)] // internal driver; the tuple is the pass state
fn join_pass(
    ctx: &OcelotContext,
    probe_keys: &DevColumn<i32>,
    probe_oids: Option<&DevColumn<Oid>>,
    build_keys: &DevColumn<i32>,
    build_oids: Option<&DevColumn<Oid>>,
    pass: usize,
    cfg: &PartitionedJoinConfig,
    pool: &mut SpillPool,
    pairs: &mut Vec<(u32, u32)>,
) -> Result<()> {
    let bits = if pass == 0 { cfg.partition_bits } else { cfg.partition_bits.min(4) };

    // Build side first, and cold build partitions are evicted *before* the
    // probe side is partitioned — the transient peak is one side's
    // partition copies, never both.
    let mut build_parts = partition_by_key(ctx, build_keys, build_oids, bits, pass, pool)?;
    for bp in build_parts.iter_mut().rev() {
        if !pool.over_budget(hash_table_bytes(bp.rows())) {
            break;
        }
        pool.spill(ctx.memory(), bp)?;
    }
    let mut probe_parts = partition_by_key(ctx, probe_keys, probe_oids, bits, pass, pool)?;

    // Hybrid split: a probe partition follows its build partner (cold pairs
    // stay together on the host); beyond that, evict pairs from the back —
    // the join stream reaches them last — until the resident set plus the
    // largest pending hash-table scratch fits the pool budget, so the front
    // partitions join straight from device memory.
    for (bp, pp) in build_parts.iter_mut().zip(probe_parts.iter_mut()) {
        if !bp.is_resident() && bp.rows() > 0 {
            pool.spill(ctx.memory(), pp)?;
        }
    }
    for (bp, pp) in build_parts.iter_mut().zip(probe_parts.iter_mut()).rev() {
        if !pool.over_budget(hash_table_bytes(bp.rows())) {
            break;
        }
        pool.spill(ctx.memory(), bp)?;
        pool.spill(ctx.memory(), pp)?;
    }

    for (mut bp, mut pp) in build_parts.into_iter().zip(probe_parts) {
        if bp.rows() == 0 || pp.rows() == 0 {
            pool.consume(&mut bp);
            pool.consume(&mut pp);
            continue;
        }
        pool.restore(ctx.memory(), &mut bp)?;
        pool.restore(ctx.memory(), &mut pp)?;

        if bp.rows() > cfg.max_build_rows && pass + 1 < cfg.max_passes {
            // Overflow: repartition this pair with the next pass's hash.
            pool.count_repartition();
            let (bk, bo) = bp.columns();
            let (pk, po) = pp.columns();
            let (bk, bo, pk, po) = (bk.clone(), bo.clone(), pk.clone(), po.clone());
            join_pass(ctx, &pk, Some(&po), &bk, Some(&bo), pass + 1, cfg, pool, pairs)?;
        } else {
            join_partition_pair(ctx, &bp, &pp, pairs)?;
        }
        pool.consume(&mut bp);
        pool.consume(&mut pp);
    }
    Ok(())
}

/// Joins one resident partition pair and appends globally remapped OID
/// pairs. The table is told of no probe rows: a partition's keys are hashed
/// out of the whole key range, so a table its probe rows paid for would
/// span that range in every partition, past what the spill schedule
/// budgets ([`hash_table_bytes`]).
fn join_partition_pair(
    ctx: &OcelotContext,
    build: &Partition,
    probe: &Partition,
    pairs: &mut Vec<(u32, u32)>,
) -> Result<()> {
    let (build_keys, build_oids) = build.columns();
    let (probe_keys, probe_oids) = probe.columns();
    let table = OcelotHashTable::build(ctx, build_keys, 0)?;
    let result = join::hash_join(ctx, probe_keys, &table)?;
    let local_probe = result.probe_oids.read(ctx)?;
    let local_build = result.build_oids.read(ctx)?;
    let global_probe = probe_oids.read(ctx)?;
    let global_build = build_oids.read(ctx)?;
    pairs.reserve(local_probe.len());
    for (lp, lb) in local_probe.into_iter().zip(local_build) {
        pairs.push((global_probe[lp as usize], global_build[lb as usize]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;

    fn reference_join(probe: &[i32], build: &[i32]) -> Vec<(u32, u32)> {
        let index: std::collections::HashMap<i32, u32> =
            build.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        probe.iter().enumerate().filter_map(|(i, k)| index.get(k).map(|b| (i as u32, *b))).collect()
    }

    fn contexts() -> Vec<OcelotContext> {
        vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
    }

    #[test]
    fn partitioned_join_matches_reference_on_all_devices() {
        let build: Vec<i32> = (0..700).collect();
        let probe: Vec<i32> = (0..9_000).map(|i| (i * 17 + 3) % 900).collect();
        let expected = reference_join(&probe, &build);
        for ctx in contexts() {
            let b = ctx.upload_i32(&build, "build").unwrap();
            let p = ctx.upload_i32(&probe, "probe").unwrap();
            let cfg = PartitionedJoinConfig {
                partition_bits: 3,
                device_budget: None,
                max_build_rows: usize::MAX,
                max_passes: 1,
            };
            let join = partitioned_pkfk_join(&ctx, &p, &b, &cfg).unwrap();
            let got: Vec<(u32, u32)> = join
                .probe_oids
                .read(&ctx)
                .unwrap()
                .into_iter()
                .zip(join.build_oids.read(&ctx).unwrap())
                .collect();
            assert_eq!(got, expected);
            assert_eq!(join.stats.spills, 0);
            assert!(join.stats.partitions > 0);
        }
    }

    #[test]
    fn forced_spill_still_matches_reference() {
        let build: Vec<i32> = (0..2_000).collect();
        let probe: Vec<i32> = (0..20_000).map(|i| (i * 13 + 7) % 2_500).collect();
        let expected = reference_join(&probe, &build);
        let ctx = OcelotContext::cpu();
        let b = ctx.upload_i32(&build, "build").unwrap();
        let p = ctx.upload_i32(&probe, "probe").unwrap();
        // A budget far below the input size forces cold partitions out.
        let cfg = PartitionedJoinConfig {
            partition_bits: 4,
            device_budget: Some(64 * 1024),
            max_build_rows: usize::MAX,
            max_passes: 1,
        };
        let join = partitioned_pkfk_join(&ctx, &p, &b, &cfg).unwrap();
        let got: Vec<(u32, u32)> = join
            .probe_oids
            .read(&ctx)
            .unwrap()
            .into_iter()
            .zip(join.build_oids.read(&ctx).unwrap())
            .collect();
        assert_eq!(got, expected);
        assert!(join.stats.spills > 0, "budget must force spills: {:?}", join.stats);
        assert_eq!(join.stats.unspills, join.stats.spills, "all spilled partitions restored");
        assert!(join.stats.spilled_bytes > 0);
    }

    #[test]
    fn recursive_repartition_on_overflow() {
        let build: Vec<i32> = (0..4_000).collect();
        let probe: Vec<i32> = (0..8_000).map(|i| (i * 29 + 11) % 4_000).collect();
        let expected = reference_join(&probe, &build);
        let ctx = OcelotContext::cpu();
        let b = ctx.upload_i32(&build, "build").unwrap();
        let p = ctx.upload_i32(&probe, "probe").unwrap();
        let cfg = PartitionedJoinConfig {
            partition_bits: 1,
            device_budget: None,
            max_build_rows: 600,
            max_passes: 3,
        };
        let join = partitioned_pkfk_join(&ctx, &p, &b, &cfg).unwrap();
        let got: Vec<(u32, u32)> = join
            .probe_oids
            .read(&ctx)
            .unwrap()
            .into_iter()
            .zip(join.build_oids.read(&ctx).unwrap())
            .collect();
        assert_eq!(got, expected);
        assert!(join.stats.repartitions > 0, "expected recursive passes: {:?}", join.stats);
    }

    #[test]
    fn spill_accounting_mirrors_memory_stats() {
        let ctx = OcelotContext::cpu();
        let keys: Vec<i32> = (0..4_096).collect();
        let col = ctx.upload_i32(&keys, "keys").unwrap();
        let offloaded_before = ctx.memory().stats().bytes_offloaded;
        let mut pool = SpillPool::new(None);
        let mut parts = partition_by_key(&ctx, &col, None, 2, 0, &mut pool).unwrap();
        let total_rows: usize = parts.iter().map(|p| p.rows()).sum();
        assert_eq!(total_rows, keys.len());
        // Spill every partition, then restore and verify content integrity.
        for p in parts.iter_mut() {
            pool.spill(ctx.memory(), p).unwrap();
            assert!(!p.is_resident());
        }
        let spilled = pool.stats().spilled_bytes;
        assert!(spilled > 0);
        assert_eq!(
            ctx.memory().stats().bytes_offloaded - offloaded_before,
            spilled,
            "spill accounting must mirror MemoryStats::bytes_offloaded"
        );
        let mut seen: Vec<i32> = Vec::new();
        for p in parts.iter_mut() {
            pool.restore(ctx.memory(), p).unwrap();
            assert!(p.is_resident());
            let (k, o) = p.columns();
            let k = k.read(&ctx).unwrap();
            let o = o.read(&ctx).unwrap();
            // Every key is tagged with its original row id.
            for (key, oid) in k.iter().zip(&o) {
                assert_eq!(*key, keys[*oid as usize]);
            }
            seen.extend(k);
        }
        seen.sort_unstable();
        assert_eq!(seen, keys, "partitions cover the input exactly");
        assert_eq!(pool.stats().unspills, pool.stats().spills);
        for p in parts.iter_mut() {
            pool.consume(p);
        }
        assert_eq!(pool.resident_bytes(), 0, "consumed partitions release accounting");
    }

    #[test]
    fn skewed_probe_keys_join_correctly() {
        // 90% of probe rows hit one build key.
        let build: Vec<i32> = (0..500).collect();
        let probe: Vec<i32> =
            (0..10_000).map(|i| if i % 10 == 0 { (i / 10) % 500 } else { 42 }).collect();
        let expected = reference_join(&probe, &build);
        let ctx = OcelotContext::gpu();
        let b = ctx.upload_i32(&build, "build").unwrap();
        let p = ctx.upload_i32(&probe, "probe").unwrap();
        let cfg =
            PartitionedJoinConfig::plan(build.len(), probe.len(), build.len(), Some(128 * 1024));
        let join = partitioned_pkfk_join(&ctx, &p, &b, &cfg).unwrap();
        let got: Vec<(u32, u32)> = join
            .probe_oids
            .read(&ctx)
            .unwrap()
            .into_iter()
            .zip(join.build_oids.read(&ctx).unwrap())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn config_plan_adds_bits_for_skew() {
        let uniform = PartitionedJoinConfig::plan(100_000, 100_000, 100_000, Some(1 << 20));
        let skewed = PartitionedJoinConfig::plan(100_000, 100_000, 1_000, Some(1 << 20));
        assert!(skewed.partition_bits >= uniform.partition_bits);
        assert!(uniform.partition_bits >= 1);
        assert!(skewed.partition_bits <= MAX_PARTITION_BITS);
    }

    #[test]
    fn empty_inputs_produce_empty_join() {
        let ctx = OcelotContext::cpu();
        let b = ctx.upload_i32(&[], "build").unwrap();
        let p = ctx.upload_i32(&[1, 2, 3], "probe").unwrap();
        let cfg = PartitionedJoinConfig::plan(0, 3, 0, None);
        let join = partitioned_pkfk_join(&ctx, &p, &b, &cfg).unwrap();
        assert_eq!(join.probe_oids.read(&ctx).unwrap(), Vec::<u32>::new());
    }
}
