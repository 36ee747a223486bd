//! Ocelot's parallel hash table (paper §4.1.4).
//!
//! The build follows the optimistic/pessimistic scheme the paper derives
//! from Alcantara et al. and García et al.:
//!
//! 1. **Optimistic round** — every thread inserts its rows without any
//!    synchronisation. Races may overwrite entries.
//! 2. **Check round** — every thread verifies its key ended up in the table
//!    (findable along its probe sequence) and *records the slot it found*,
//!    so nothing after the build probes for a build row again. Lost rows
//!    are counted.
//! 3. **Pessimistic round** — lost rows are re-inserted with atomic
//!    compare-and-swap. If a row still cannot be placed the build restarts
//!    with a larger table.
//!
//! # Slots hold row ids, keys may span columns
//!
//! A slot stores the id of a *build row* carrying the slot's key
//! (`u32::MAX` = empty); equality compares every key column at that row.
//! Every 32-bit pattern is therefore a legal key value — there is no
//! reserved key — and a multi-column key costs one build, not one per
//! column (see `ops::groupby` for why this deviates from §4.1.6).
//!
//! # Probe bound
//!
//! A key's probe sequence is six multiplicative hash functions followed by
//! a fixed linear window of [`LINEAR_WINDOW`] slots after the sixth — never
//! more than [`MAX_PROBE`] slots, independent of the table size. An insert
//! that finds neither its key nor an empty slot in that sequence gives up
//! and the build restarts; a lookup that reaches the end reports
//! [`NOT_FOUND`]. Both rely on one invariant: a slot, once occupied, never
//! becomes empty, so no empty slot ever precedes a key on its own sequence.
//! Every build round and every lookup is O(rows), whatever the fill rate.
//!
//! # Restart sizing rule
//!
//! The first table has `next_pow2(1.4 × d)` slots (the paper's 1.4, from
//! its observed ~75 % fill rate), where `d` is the caller's distinct-count
//! bound for joins (the build side's row count) and at most
//! [`GROUPING_START`] keys for group-by, which has no bound to offer. A
//! failed attempt is evidence, not a reason to double: the table held at
//! most `capacity` keys and the check round counted `failed` rows outside
//! it, so `capacity + failed` bounds the distinct count and the next table
//! is sized for that — clamped to `next_pow2(1.4 × rows)`, which always
//! suffices for distinct keys, and grown at least twofold so pathological
//! collisions still terminate. Two attempts are the norm from any start,
//! three the exception.
//!
//! # Dense ids in first-appearance order
//!
//! While recording slots, the check and pessimistic rounds lower each
//! slot's row id to the smallest row of its key (`fetch_min`). A group's
//! representative is thus its first row — independent of how the racy
//! optimistic round interleaved — and dense group ids are the rank of the
//! representative among all representatives: ids follow first appearance,
//! as in MonetDB's sequential grouping, and are identical run to run.
//! Ranking is a flag pass plus a prefix sum over the *rows*; nothing walks
//! the table itself after the build.

use crate::context::{DevColumn, DevScalar, DevWord, LenSource, OcelotContext, Oid};
use crate::primitives::prefix_sum::exclusive_scan_u32;
use ocelot_kernel::atomic::atomic_cas_u32;
use ocelot_kernel::{
    Buffer, BufferAccess, EventId, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result,
    WorkGroupCtx,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Sentinel returned by lookups that find no match.
pub const NOT_FOUND: u32 = u32::MAX;

/// An empty slot. Slots hold build-row ids, which never reach `u32::MAX`.
const EMPTY_SLOT: u32 = u32::MAX;
/// Per-row slot marker of a row the check round did not find.
const UNPLACED: u32 = u32::MAX;

const HASH_SEEDS: [u32; 6] =
    [0x9E37_79B1, 0x85EB_CA77, 0xC2B2_AE3D, 0x27D4_EB2F, 0x1656_67B1, 0x2545_F491];

/// Slots probed linearly after the sixth hash function.
pub const LINEAR_WINDOW: usize = 16;
/// Length of every probe sequence — a constant, never the table size.
pub const MAX_PROBE: usize = HASH_SEEDS.len() + LINEAR_WINDOW;
/// Distinct keys the first group-by table is sized for.
pub const GROUPING_START: usize = 1024;

/// `next_pow2(1.4 × distinct)`, at least 16 slots.
fn table_capacity(distinct: usize) -> usize {
    (((distinct.max(1) as f64) * 1.4).ceil() as usize).next_power_of_two().max(16)
}

/// The table after a failed attempt: sized for `capacity + failed` distinct
/// keys, clamped to what `rows` distinct keys need, at least doubled.
fn restart_capacity(capacity: usize, failed: usize, rows: usize) -> usize {
    table_capacity(capacity + failed).min(table_capacity(rows)).max(capacity * 2)
}

/// The probe sequence of a power-of-two table.
#[derive(Debug, Clone, Copy)]
struct Probe {
    shift: u32,
    mask: usize,
}

impl Probe {
    fn new(capacity: usize) -> Probe {
        debug_assert!(capacity.is_power_of_two() && capacity >= 2);
        Probe { shift: 32 - capacity.trailing_zeros(), mask: capacity - 1 }
    }

    /// Slot visited at `attempt < MAX_PROBE` for a key hashing to `hash`:
    /// the top bits of six multiplicative hashes, then the slots following
    /// the sixth.
    #[inline]
    fn slot(self, hash: u32, attempt: usize) -> usize {
        let last = HASH_SEEDS.len() - 1;
        if attempt <= last {
            (hash.wrapping_mul(HASH_SEEDS[attempt]) >> self.shift) as usize
        } else {
            let base = (hash.wrapping_mul(HASH_SEEDS[last]) >> self.shift) as usize;
            (base + attempt - last) & self.mask
        }
    }
}

/// Mixes the key words of `row` into one 32-bit hash (a bijection for
/// single-column keys).
#[inline]
fn hash_row(columns: &[&[u32]], row: usize) -> u32 {
    let mut hash = 0u32;
    for column in columns {
        hash = (hash ^ column[row]).wrapping_mul(0x9E37_79B1);
        hash ^= hash >> 15;
    }
    hash
}

#[inline]
fn rows_equal(columns: &[&[u32]], a: usize, b: usize) -> bool {
    columns.iter().all(|column| column[a] == column[b])
}

fn key_views(columns: &[Buffer]) -> Vec<&[u32]> {
    columns.iter().map(Buffer::as_words).collect()
}

fn key_reads(columns: &[Buffer]) -> Vec<BufferAccess> {
    columns.iter().map(|c| BufferAccess::slice_read(c, 0..c.len())).collect()
}

/// Lowers the row id in `slot` to `row` if `row` is smaller. Every row id a
/// slot ever holds carries the slot's key, so readers comparing keys through
/// the slot are indifferent to the swap.
#[inline]
fn lower_representative(slot: &AtomicU32, current: u32, row: u32) {
    if row < current {
        slot.fetch_min(row, Ordering::Relaxed);
    }
}

struct FillKernel {
    buffer: Buffer,
    value: u32,
}

impl Kernel for FillKernel {
    fn name(&self) -> &str {
        "hash_fill"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        for item in group.items() {
            let (start, end) = item.chunk_bounds(group.n());
            // SAFETY: `chunk_bounds` partitions `0..n` among the items; this
            // item alone touches `start..end` in this launch.
            unsafe { self.buffer.chunk_mut(start, end) }.fill(self.value);
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new(0, (launch.n as u64) * 4, 0, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![BufferAccess::slice_write(&self.buffer, 0..launch.n)]))
    }
}

struct OptimisticInsertKernel {
    keys: Vec<Buffer>,
    slots: Buffer,
    probe: Probe,
}

impl Kernel for OptimisticInsertKernel {
    fn name(&self) -> &str {
        "hash_optimistic_insert"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let keys = key_views(&self.keys);
        let slots = self.slots.cells();
        for item in group.items() {
            for row in item.assigned() {
                let hash = hash_row(&keys, row);
                for attempt in 0..MAX_PROBE {
                    let slot = &slots[self.probe.slot(hash, attempt)];
                    let current = slot.load(Ordering::Relaxed);
                    if current == EMPTY_SLOT {
                        // Unsynchronised write — may be overwritten by a
                        // racing thread; the check round will notice.
                        slot.store(row as u32, Ordering::Relaxed);
                        break;
                    }
                    if rows_equal(&keys, current as usize, row) {
                        break;
                    }
                }
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let words = (launch.n * (self.keys.len() + 2)) as u64;
        KernelCost::new(words * 4, (launch.n as u64) * 4, words, 0)
    }
    fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = key_reads(&self.keys);
        accesses.push(BufferAccess::cells_write(&self.slots, 0..self.slots.len()));
        Some(KernelAccesses::of(accesses))
    }
}

/// Finds every row's slot, records it, lowers the slot to the smallest row
/// of its key, and counts the rows the optimistic round lost.
struct CheckKernel {
    keys: Vec<Buffer>,
    slots: Buffer,
    row_slots: Buffer,
    /// Word 0: rows not found by this kernel.
    counters: Buffer,
    probe: Probe,
}

impl Kernel for CheckKernel {
    fn name(&self) -> &str {
        "hash_check"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let keys = key_views(&self.keys);
        let slots = self.slots.cells();
        let row_slots = self.row_slots.cells();
        for item in group.items() {
            let mut failed = 0u32;
            for row in item.assigned() {
                let hash = hash_row(&keys, row);
                let mut found = UNPLACED;
                for attempt in 0..MAX_PROBE {
                    let index = self.probe.slot(hash, attempt);
                    let current = slots[index].load(Ordering::Relaxed);
                    if current == EMPTY_SLOT {
                        break;
                    }
                    if rows_equal(&keys, current as usize, row) {
                        lower_representative(&slots[index], current, row as u32);
                        found = index as u32;
                        break;
                    }
                }
                failed += u32::from(found == UNPLACED);
                row_slots[row].store(found, Ordering::Relaxed);
            }
            if failed > 0 {
                self.counters.cell(0).fetch_add(failed, Ordering::Relaxed);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let words = (launch.n * (self.keys.len() + 2)) as u64;
        KernelCost::new(words * 4, (launch.n as u64) * 4, words, launch.n as u64 / 16)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = key_reads(&self.keys);
        accesses.push(BufferAccess::cells_write(&self.slots, 0..self.slots.len()));
        accesses.push(BufferAccess::cells_write(&self.row_slots, 0..launch.n));
        accesses.push(BufferAccess::cells_write(&self.counters, 0..1));
        Some(KernelAccesses::of(accesses))
    }
}

/// Re-inserts the rows the check round did not find, with CAS. The first
/// row that cannot be placed raises counter word 1; everyone else stops at
/// the next row, because the attempt is lost and the restart is sized from
/// the check round's complete count, not from this kernel's.
struct PessimisticInsertKernel {
    keys: Vec<Buffer>,
    slots: Buffer,
    row_slots: Buffer,
    counters: Buffer,
    probe: Probe,
}

impl Kernel for PessimisticInsertKernel {
    fn name(&self) -> &str {
        "hash_pessimistic_insert"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let keys = key_views(&self.keys);
        let slots = self.slots.cells();
        let row_slots = self.row_slots.cells();
        let restart = self.counters.cell(1);
        for item in group.items() {
            for row in item.assigned() {
                if row_slots[row].load(Ordering::Relaxed) != UNPLACED {
                    continue;
                }
                if restart.load(Ordering::Relaxed) != 0 {
                    return;
                }
                let hash = hash_row(&keys, row);
                let mut placed = UNPLACED;
                for attempt in 0..MAX_PROBE {
                    let index = self.probe.slot(hash, attempt);
                    let mut current = slots[index].load(Ordering::Relaxed);
                    if current == EMPTY_SLOT {
                        current = atomic_cas_u32(&slots[index], EMPTY_SLOT, row as u32);
                        if current == EMPTY_SLOT {
                            placed = index as u32;
                            break;
                        }
                        // Lost the race — the winner may carry this key.
                    }
                    if rows_equal(&keys, current as usize, row) {
                        lower_representative(&slots[index], current, row as u32);
                        placed = index as u32;
                        break;
                    }
                }
                if placed == UNPLACED {
                    restart.store(1, Ordering::Relaxed);
                    return;
                }
                row_slots[row].store(placed, Ordering::Relaxed);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new(
            (launch.n as u64) * 8,
            (launch.n as u64) * 2,
            (launch.n as u64) * 2,
            launch.n as u64 / 4,
        )
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = key_reads(&self.keys);
        accesses.push(BufferAccess::cells_write(&self.slots, 0..self.slots.len()));
        accesses.push(BufferAccess::cells_write(&self.row_slots, 0..launch.n));
        accesses.push(BufferAccess::cells_write(&self.counters, 1..2));
        Some(KernelAccesses::of(accesses))
    }
}

/// Flags the rows that are their group's representative (the row id their
/// slot settled on). Rows still unplaced — possible when the flags were
/// enqueued before the check round's count was read — flag nothing.
struct RepresentativeFlagKernel {
    slots: Buffer,
    row_slots: Buffer,
    flags: Buffer,
}

impl Kernel for RepresentativeFlagKernel {
    fn name(&self) -> &str {
        "hash_representative_flags"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let slots = self.slots.as_words();
        let row_slots = self.row_slots.as_words();
        for item in group.items() {
            for row in item.assigned() {
                let slot = row_slots[row];
                let flag = slot != UNPLACED && slots[slot as usize] == row as u32;
                self.flags.set_u32(row, u32::from(flag));
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 8, (launch.n as u64) * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.slots, 0..self.slots.len()),
            BufferAccess::slice_read(&self.row_slots, 0..launch.n),
            BufferAccess::cells_write(&self.flags, 0..launch.n),
        ]))
    }
}

/// Turns each row's slot into its dense group id — in place, `row_slots`
/// becomes the table's gid column — and scatters the representatives.
struct FinalizeKernel {
    slots: Buffer,
    ranks: Buffer,
    row_slots: Buffer,
    representatives: Buffer,
}

impl Kernel for FinalizeKernel {
    fn name(&self) -> &str {
        "hash_finalize"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let slots = self.slots.as_words();
        let ranks = self.ranks.as_words();
        let row_slots = self.row_slots.cells();
        for item in group.items() {
            for row in item.assigned() {
                let slot = row_slots[row].load(Ordering::Relaxed) as usize;
                let representative = slots[slot] as usize;
                let gid = ranks[representative];
                if representative == row {
                    // One representative per gid: the scatter is disjoint.
                    self.representatives.set_u32(gid as usize, row as u32);
                }
                row_slots[row].store(gid, Ordering::Relaxed);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 12, (launch.n as u64) * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.slots, 0..self.slots.len()),
            BufferAccess::slice_read(&self.ranks, 0..launch.n),
            BufferAccess::cells_write(&self.row_slots, 0..launch.n),
            BufferAccess::cells_write(&self.representatives, 0..self.representatives.len()),
        ]))
    }
}

/// Looks up every probe key: the representative build row, or (with
/// `row_gids`) that row's dense group id; [`NOT_FOUND`] if absent.
struct LookupKernel {
    build_keys: Buffer,
    probe_keys: Buffer,
    slots: Buffer,
    row_gids: Option<Buffer>,
    output: Buffer,
    probe: Probe,
    n: LenSource,
}

impl Kernel for LookupKernel {
    fn name(&self) -> &str {
        "hash_lookup"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        // A deferred probe count resolves here, at flush time.
        let n = self.n.get();
        let build_keys = self.build_keys.as_words();
        let probe_keys = [self.probe_keys.as_words()];
        let slots = self.slots.as_words();
        let row_gids = self.row_gids.as_ref().map(Buffer::as_words);
        for item in group.items() {
            for idx in item.assigned() {
                if idx >= n {
                    continue;
                }
                let key = probe_keys[0][idx];
                let hash = hash_row(&probe_keys, idx);
                let mut found = NOT_FOUND;
                for attempt in 0..MAX_PROBE {
                    let row = slots[self.probe.slot(hash, attempt)];
                    if row == EMPTY_SLOT {
                        break;
                    }
                    if build_keys[row as usize] == key {
                        found = row_gids.map_or(row, |gids| gids[row as usize]);
                        break;
                    }
                }
                self.output.set_u32(idx, found);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 12, (launch.n as u64) * 4, (launch.n as u64) * 4, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = vec![
            BufferAccess::slice_read(&self.build_keys, 0..self.build_keys.len()),
            BufferAccess::slice_read(&self.probe_keys, 0..launch.n),
            BufferAccess::slice_read(&self.slots, 0..self.slots.len()),
            BufferAccess::cells_write(&self.output, 0..launch.n),
        ];
        if let Some(row_gids) = &self.row_gids {
            accesses.push(BufferAccess::slice_read(row_gids, 0..row_gids.len()));
        }
        Some(KernelAccesses::of(accesses))
    }
}

/// A finished parallel hash table over one or more key columns.
pub struct OcelotHashTable {
    keys: Vec<Buffer>,
    slots: Buffer,
    row_gids: Buffer,
    representatives: Buffer,
    probe: Probe,
    rows: usize,
    distinct: usize,
    build_attempts: usize,
}

impl std::fmt::Debug for OcelotHashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OcelotHashTable")
            .field("key_columns", &self.keys.len())
            .field("capacity", &self.capacity())
            .field("rows", &self.rows)
            .field("distinct", &self.distinct)
            .field("build_attempts", &self.build_attempts)
            .finish()
    }
}

impl OcelotHashTable {
    /// Builds a table over one key column. `distinct_hint` bounds the
    /// distinct count from above as far as the caller knows (joins pass the
    /// build side's row count) and sizes the first table; an underestimate
    /// costs one evidence-sized restart.
    ///
    /// **Deliberate sync point:** the optimistic/pessimistic build loop's
    /// host-side control flow inspects the failure counter after each round,
    /// so the build flushes internally (a deferred input length is resolved
    /// on entry for the same reason). The *probes* stay lazy.
    pub fn build<T: DevWord>(
        ctx: &OcelotContext,
        keys_col: &DevColumn<T>,
        distinct_hint: usize,
    ) -> Result<OcelotHashTable> {
        let rows = keys_col.len(ctx)?;
        Self::build_from(ctx, &[keys_col], rows, table_capacity(distinct_hint.min(rows)))
    }

    /// Builds a table over a composite key: rows are equal when they agree
    /// on every column. Takes no sizing hint — the first table is sized for
    /// [`GROUPING_START`] keys and a restart is sized from what that attempt
    /// observed. Same sync points as [`OcelotHashTable::build`].
    ///
    /// # Panics
    /// Panics if `columns` is empty or the columns' logical lengths differ.
    pub fn build_composite<T: DevWord>(
        ctx: &OcelotContext,
        columns: &[&DevColumn<T>],
    ) -> Result<OcelotHashTable> {
        assert!(!columns.is_empty(), "hash table: need at least one key column");
        let rows = columns[0].len(ctx)?;
        for column in &columns[1..] {
            // Alignment is on *logical* lengths: a deferred column's capacity
            // bound may exceed its neighbours'.
            assert_eq!(column.len(ctx)?, rows, "hash table: key column length mismatch");
        }
        Self::build_from(ctx, columns, rows, table_capacity(rows.min(GROUPING_START)))
    }

    fn build_from<T: DevWord>(
        ctx: &OcelotContext,
        columns: &[&DevColumn<T>],
        rows: usize,
        mut capacity: usize,
    ) -> Result<OcelotHashTable> {
        let keys: Vec<Buffer> = columns.iter().map(|c| c.buffer.clone()).collect();
        let key_wait: Vec<EventId> = columns.iter().flat_map(|c| ctx.wait_for(*c)).collect();
        // One per-row buffer serves every attempt and then becomes the gid
        // column, so restarts do not multiply the build's footprint.
        let row_slots = ctx.alloc_uninit(rows.max(1), "hash_row_gids")?;
        let launch = ctx.launch(rows);
        let mut build_attempts = 0;

        let (slots, probe, representatives, distinct) = loop {
            build_attempts += 1;
            let probe = Probe::new(capacity);
            let slots = ctx.alloc_uninit(capacity, "hash_slots")?;
            let filled = ctx.queue().enqueue_kernel(
                Arc::new(FillKernel { buffer: slots.clone(), value: EMPTY_SLOT }),
                ctx.launch(capacity),
                &[],
            )?;
            if rows == 0 {
                ctx.memory().record_producer(&slots, filled);
                break (slots, probe, ctx.alloc(1, "hash_representatives")?, 0);
            }

            let mut wait = key_wait.clone();
            wait.push(filled);
            let inserted = ctx.queue().enqueue_kernel(
                Arc::new(OptimisticInsertKernel {
                    keys: keys.clone(),
                    slots: slots.clone(),
                    probe,
                }),
                launch.clone(),
                &wait,
            )?;
            let counters = ctx.alloc(2, "hash_counters")?;
            let checked = ctx.queue().enqueue_kernel(
                Arc::new(CheckKernel {
                    keys: keys.clone(),
                    slots: slots.clone(),
                    row_slots: row_slots.clone(),
                    counters: counters.clone(),
                    probe,
                }),
                launch.clone(),
                &[inserted],
            )?;
            // Rank the representatives before the count is known: a clean
            // check round — the usual case — then needs no second flush.
            let mut ranked = rank_representatives(ctx, &slots, &row_slots, &launch, checked)?;
            ctx.queue().flush()?;

            let failed = counters.get_u32(0) as usize;
            if failed > 0 {
                let reinserted = ctx.queue().enqueue_kernel(
                    Arc::new(PessimisticInsertKernel {
                        keys: keys.clone(),
                        slots: slots.clone(),
                        row_slots: row_slots.clone(),
                        counters: counters.clone(),
                        probe,
                    }),
                    launch.clone(),
                    &[],
                )?;
                ctx.queue().flush()?;
                if counters.get_u32(1) != 0 {
                    // Restarting is expensive (paper §4.1.4) — size the next
                    // table from what this attempt observed.
                    capacity = restart_capacity(capacity, failed, rows);
                    continue;
                }
                ranked = rank_representatives(ctx, &slots, &row_slots, &launch, reinserted)?;
            }
            let (ranks, distinct) = ranked;
            // The group count shapes the result schema (representative
            // allocation below), so the build resolves it here.
            let distinct = distinct.get(ctx)? as usize;

            let representatives = ctx.alloc_uninit(distinct, "hash_representatives")?;
            let finalized = ctx.queue().enqueue_kernel(
                Arc::new(FinalizeKernel {
                    slots: slots.clone(),
                    ranks: ranks.buffer.clone(),
                    row_slots: row_slots.clone(),
                    representatives: representatives.clone(),
                }),
                launch.clone(),
                &ctx.wait_for(&ranks),
            )?;
            ctx.memory().record_producer(&row_slots, finalized);
            ctx.memory().record_producer(&representatives, finalized);
            break (slots, probe, representatives, distinct);
        };
        Ok(OcelotHashTable {
            keys,
            slots,
            row_gids: row_slots,
            representatives,
            probe,
            rows,
            distinct,
            build_attempts,
        })
    }

    /// Number of slots in the table.
    pub fn capacity(&self) -> usize {
        self.probe.mask + 1
    }

    /// Number of distinct keys indexed.
    pub fn num_distinct(&self) -> usize {
        self.distinct
    }

    /// How many build attempts (restarts + 1) were needed.
    pub fn build_attempts(&self) -> usize {
        self.build_attempts
    }

    /// The representative (smallest) row id per dense group id, as a device
    /// column of `num_distinct()` OIDs in ascending order.
    pub fn representatives(&self) -> DevColumn<Oid> {
        DevColumn::new(self.representatives.clone(), self.distinct)
            .expect("representative buffer covers the distinct count")
    }

    /// The dense group id of every build row, recorded during the build —
    /// what `probe_gids` over the build input would return, without probing.
    pub fn row_gids(&self) -> DevColumn<Oid> {
        DevColumn::new(self.row_gids.clone(), self.rows).expect("gid buffer covers the build rows")
    }

    /// Looks up the dense group id of every probe key. Missing keys map to
    /// [`NOT_FOUND`]. Lazy: probe columns with deferred lengths are
    /// supported, and the output inherits the same length.
    pub fn probe_gids<T: DevWord>(
        &self,
        ctx: &OcelotContext,
        probe: &DevColumn<T>,
    ) -> Result<DevColumn<Oid>> {
        self.lookup(ctx, probe, true)
    }

    /// Looks up the representative row id (in the build input) of every
    /// probe key. Missing keys map to [`NOT_FOUND`]. This is the probe half
    /// of a PK-FK hash join.
    pub fn probe_representatives<T: DevWord>(
        &self,
        ctx: &OcelotContext,
        probe: &DevColumn<T>,
    ) -> Result<DevColumn<Oid>> {
        self.lookup(ctx, probe, false)
    }

    fn lookup<T: DevWord>(
        &self,
        ctx: &OcelotContext,
        probe: &DevColumn<T>,
        gids: bool,
    ) -> Result<DevColumn<Oid>> {
        assert_eq!(self.keys.len(), 1, "hash table: probing takes a single-column key");
        // The lookup kernel overwrites the logical prefix; the tail past a
        // deferred count is never read.
        let output = ctx.alloc_uninit(probe.cap().max(1), "hash_lookups")?;
        if probe.cap() == 0 {
            return DevColumn::new(output, 0);
        }
        let mut wait = ctx.wait_for(probe);
        wait.extend(ctx.memory().wait_for_read(&self.slots));
        wait.extend(ctx.memory().wait_for_read(&self.row_gids));
        let event = ctx.queue().enqueue_kernel(
            Arc::new(LookupKernel {
                build_keys: self.keys[0].clone(),
                probe_keys: probe.buffer.clone(),
                slots: self.slots.clone(),
                row_gids: gids.then(|| self.row_gids.clone()),
                output: output.clone(),
                probe: self.probe,
                n: probe.len_source(),
            }),
            ctx.launch(probe.cap()),
            &wait,
        )?;
        ctx.memory().record_producer(&output, event);
        DevColumn::with_len(output, probe.col_len().clone())
    }
}

/// Flags each group's representative row and ranks the flags: the scanned
/// column maps a representative row to its dense group id, the total is the
/// distinct count.
fn rank_representatives(
    ctx: &OcelotContext,
    slots: &Buffer,
    row_slots: &Buffer,
    launch: &LaunchConfig,
    after: EventId,
) -> Result<(DevColumn<u32>, DevScalar<u32>)> {
    let flags = ctx.alloc_uninit(launch.n, "hash_representative_flags")?;
    let flagged = ctx.queue().enqueue_kernel(
        Arc::new(RepresentativeFlagKernel {
            slots: slots.clone(),
            row_slots: row_slots.clone(),
            flags: flags.clone(),
        }),
        launch.clone(),
        &[after],
    )?;
    ctx.memory().record_producer(&flags, flagged);
    exclusive_scan_u32(ctx, &DevColumn::new(flags, launch.n)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;
    use std::collections::HashSet;

    fn contexts() -> Vec<OcelotContext> {
        vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
    }

    #[test]
    fn distinct_count_matches_reference_on_all_devices() {
        let keys: Vec<i32> = (0..20_000).map(|i| (i * 131 + 17) % 500).collect();
        let expected: HashSet<i32> = keys.iter().copied().collect();
        for ctx in contexts() {
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            let table = OcelotHashTable::build(&ctx, &col, 500).unwrap();
            assert_eq!(table.num_distinct(), expected.len(), "{:?}", ctx.device().info().kind);
        }
    }

    #[test]
    fn lookups_are_consistent_and_dense() {
        let keys: Vec<i32> = (0..5_000).map(|i| (i * 7 + 1) % 250).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&keys, "keys").unwrap();
        let table = OcelotHashTable::build(&ctx, &col, 250).unwrap();
        let gids_col = table.probe_gids(&ctx, &col).unwrap();
        let gids = gids_col.read(&ctx).unwrap();

        // gid is dense, and two rows share a gid iff they share a key.
        assert!(gids.iter().all(|g| (*g as usize) < table.num_distinct()));
        for i in (0..keys.len()).step_by(97) {
            for j in (0..keys.len()).step_by(89) {
                assert_eq!(keys[i] == keys[j], gids[i] == gids[j], "rows {i},{j}");
            }
        }
        // The gids recorded during the build are what a re-probe returns.
        assert_eq!(table.row_gids().read(&ctx).unwrap(), gids);
    }

    #[test]
    fn representatives_carry_the_group_key() {
        let keys: Vec<i32> = (0..3_000).map(|i| (i * 13 + 5) % 77).collect();
        for ctx in contexts() {
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            let table = OcelotHashTable::build(&ctx, &col, 77).unwrap();
            let reps = table.representatives().read(&ctx).unwrap();
            let gids = table.row_gids().read(&ctx).unwrap();
            assert_eq!(reps.len(), table.num_distinct());
            for (row, gid) in gids.iter().enumerate() {
                assert_eq!(keys[reps[*gid as usize] as usize], keys[row]);
            }
            // Group ids follow first appearance: the representative is the
            // group's *smallest* row and representatives ascend with the gid.
            for (gid, rep) in reps.iter().enumerate() {
                let first = keys.iter().position(|k| *k == keys[*rep as usize]).unwrap();
                assert_eq!(*rep as usize, first, "gid {gid}");
            }
            assert!(reps.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn missing_probe_keys_return_not_found() {
        let ctx = OcelotContext::cpu();
        let build = ctx.upload_i32(&[10, 20, 30], "build").unwrap();
        let table = OcelotHashTable::build(&ctx, &build, 3).unwrap();
        let probe = ctx.upload_i32(&[20, 99, 10, 55], "probe").unwrap();
        let reps = table.probe_representatives(&ctx, &probe).unwrap().read(&ctx).unwrap();
        assert_eq!(reps, vec![1, NOT_FOUND, 0, NOT_FOUND]);
    }

    #[test]
    fn unique_keys_give_identity_representatives() {
        let keys: Vec<i32> = (0..1_000).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&keys, "keys").unwrap();
        let table = OcelotHashTable::build(&ctx, &col, keys.len()).unwrap();
        assert_eq!(table.num_distinct(), 1_000);
        let reps = table.probe_representatives(&ctx, &col).unwrap().read(&ctx).unwrap();
        let expected: Vec<u32> = (0..1_000).collect();
        assert_eq!(reps, expected);
    }

    #[test]
    fn undersized_hint_triggers_restart_but_succeeds() {
        let keys: Vec<i32> = (0..4_000).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&keys, "keys").unwrap();
        // A hint of 4 gives a 16-slot table; the restart is sized from the
        // ~4000 rows the check round counted outside it, not doubled.
        let table = OcelotHashTable::build(&ctx, &col, 4).unwrap();
        assert_eq!(table.num_distinct(), 4_000);
        assert_eq!(table.build_attempts(), 2, "one evidence-sized restart");
        assert_eq!(table.capacity(), 8_192);
    }

    #[test]
    fn empty_input() {
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&[], "keys").unwrap();
        let table = OcelotHashTable::build(&ctx, &col, 10).unwrap();
        assert_eq!(table.num_distinct(), 0);
        assert!(table.row_gids().read(&ctx).unwrap().is_empty());
        let probe = ctx.upload_i32(&[1, 2], "probe").unwrap();
        let gids = table.probe_gids(&ctx, &probe).unwrap().read(&ctx).unwrap();
        assert_eq!(gids, vec![NOT_FOUND, NOT_FOUND]);
    }

    #[test]
    fn probe_sequences_are_bounded_and_full_tables_terminate() {
        // The sequence is MAX_PROBE slots whatever the capacity: six hashed
        // positions, then the window following the sixth.
        for capacity in [16usize, 64, 1 << 20] {
            let probe = Probe::new(capacity);
            let visited: Vec<usize> = (0..MAX_PROBE).map(|a| probe.slot(0xDEAD_BEEF, a)).collect();
            assert!(visited.iter().all(|slot| *slot < capacity));
            let last_hashed = visited[HASH_SEEDS.len() - 1];
            for (offset, slot) in visited[HASH_SEEDS.len()..].iter().enumerate() {
                assert_eq!(*slot, (last_hashed + offset + 1) & (capacity - 1));
            }
        }
        // A full table answers absent keys and overflowing builds in bounded
        // time: 16 slots, 400 distinct keys — lookups of absent keys return
        // NOT_FOUND and the build restarts instead of walking the table.
        for ctx in contexts() {
            let keys: Vec<i32> = (0..400).map(|i| i * 3).collect();
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            let table = OcelotHashTable::build(&ctx, &col, 1).unwrap();
            assert!(table.build_attempts() > 1);
            assert_eq!(table.num_distinct(), 400);
            let probe: Vec<i32> = (0..1_200).collect();
            let found = table
                .probe_representatives(&ctx, &ctx.upload_i32(&probe, "probe").unwrap())
                .unwrap()
                .read(&ctx)
                .unwrap();
            for (key, rep) in probe.iter().zip(found) {
                let expected = if key % 3 == 0 { (key / 3) as u32 } else { NOT_FOUND };
                assert_eq!(rep, expected, "key {key}");
            }
        }
    }

    #[test]
    fn every_key_value_is_legal() {
        // `-1` (0xFFFF_FFFF) used to be the empty-slot sentinel.
        let keys = [-1, 0, i32::MIN, -1, i32::MAX, 0, -1];
        for ctx in contexts() {
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            let table = OcelotHashTable::build(&ctx, &col, keys.len()).unwrap();
            assert_eq!(table.num_distinct(), 4);
            assert_eq!(table.row_gids().read(&ctx).unwrap(), vec![0, 1, 2, 0, 3, 1, 0]);
            assert_eq!(table.representatives().read(&ctx).unwrap(), vec![0, 1, 2, 4]);
            let probe = ctx.upload_i32(&[-1, 7], "probe").unwrap();
            let reps = table.probe_representatives(&ctx, &probe).unwrap().read(&ctx).unwrap();
            assert_eq!(reps, vec![0, NOT_FOUND]);
        }
    }

    #[test]
    fn builds_are_linear_from_the_smallest_start() {
        // 200k distinct keys into a table sized for one: the restart is
        // sized from the failed-row count, so the whole build is a constant
        // number of launches and flushes, whatever the input size.
        let keys: Vec<i32> = (0..200_000).map(|i| i * 7 - 300_000).collect();
        for ctx in contexts() {
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            ctx.sync().unwrap();
            let before = ctx.queue().total_stats().kernels;
            let flushes = ctx.queue().flush_count();
            let table = OcelotHashTable::build(&ctx, &col, 1).unwrap();
            ctx.sync().unwrap();
            assert_eq!(table.num_distinct(), keys.len());
            assert!(table.build_attempts() <= 3, "{table:?}");
            assert!(table.capacity() <= table_capacity(keys.len()), "{table:?}");
            let launches = ctx.queue().total_stats().kernels - before;
            assert!(launches <= 3 * 16, "{launches} launches");
            assert!(ctx.queue().flush_count() - flushes <= 3 * 3 + 1);
        }
    }
}
