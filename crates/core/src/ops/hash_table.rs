//! Ocelot's parallel hash table (paper §4.1.4).
//!
//! The build follows the optimistic/pessimistic scheme the paper derives
//! from Alcantara et al. and García et al.:
//!
//! 1. **Optimistic round** — every thread inserts its rows without any
//!    synchronisation. Races may overwrite entries.
//! 2. **Check round** — every thread verifies its key ended up in the table
//!    (findable along its probe sequence) and lowers the slot to the
//!    smallest row of its key. Lost rows are counted.
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
//! # Probe sequence
//!
//! A key's probe sequence is a constant [`MAX_PROBE`] slots, independent of
//! the table size. For a **single-column** key it is the *range-relative*
//! slot `(key − min) & mask`, where `min` is the smallest build key, then
//! five multiplicative hash functions, then a fixed linear window of
//! [`LINEAR_WINDOW`] slots after the fifth. The first slot is what keeps
//! the locality the input has: dense or clustered keys (`o_orderkey`,
//! `l_orderkey`) walk the table — and, through the row ids in it, the build
//! column — sequentially instead of being scattered by a hash into two
//! dependent cache misses per row. A **composite** key has no such order to
//! keep: its sequence is six multiplicative hashes of the mixed key words
//! followed by the same window. In a table covering its key range (sizing
//! rule below) every key sits at its first slot, and the sequence is that
//! slot alone.
//!
//! An insert that finds neither its key nor an empty slot in that sequence
//! gives up and the build restarts; a lookup that reaches the end reports
//! [`NOT_FOUND`]. Both rely on one invariant: a slot, once occupied, never
//! becomes empty, so no empty slot ever precedes a key on its own sequence.
//! Every build round and every lookup is O(rows), whatever the fill rate.
//!
//! # Sizing rule
//!
//! `min` and `max` of every key column come from one fused reduction launch
//! (`key_shape`), enqueued before the (possibly deferred) row count is
//! resolved so one flush answers both. Grouping reads the ranges of all its
//! key columns first — they decide whether it needs a hash table at all
//! (`ops::groupby`, the dense-code path) — and hands them to the build; a
//! table sizes itself from a *single-column* key's range only.
//!
//! A table covering the key range is filled once and then read by every
//! build row and every probe row, so all of them pay for the fill: when the
//! key range `max − min + 1` is at most
//! [`RANGE_SLOTS_PER_ROW`]` × rows + probe_rows`, the table has
//! `next_pow2(range)` slots. `probe_rows` is the caller's host-known bound
//! on the rows that will look keys up (a join passes its probe side's
//! capacity, a grouping build 0). It is an upper bound: a probe column
//! still to be filtered has a capacity of its unfiltered rows, and a table
//! it pays for may be larger than the rows that arrive need. The range-relative first slot is then
//! collision-free between different keys, so no row of such a build can
//! fail, whatever the duplicates, the build does not stop to read the check
//! round's count, and a lookup is one slot load — sequential for sorted
//! probe keys — hit or miss. The constant trades 32 B of sequential fill
//! per build row (8 slots) and 4 B per probe row (at most doubled by the
//! power-of-two rounding) against a missed probe per row into a hash-sized
//! table: a memset at memory bandwidth is cheaper than a cache miss per
//! key. A selective build over a clustered key — a filtered `orders` of
//! sparse order keys probed by every `l_orderkey` — is the case the probe
//! side's share decides.
//!
//! A join on a key that is *dense* in its table (`base, base + 1, …`, every
//! key the generator writes) builds no table at all: the lowering makes it
//! a positional `ops::join::dense_join`. Range tables serve sparse
//! single-column join keys and groupings only.
//!
//! **Memory bound:** a range table has at most
//! `next_pow2(8 × rows + probe_rows)` words, i.e. at most 64 B per build row
//! plus 8 B per probe row; a probe already allocates 4 B per probe row for
//! its lookup output. [`table_words`] states the bound of a first table;
//! the device footprint model and the spill schedule size from it and from
//! [`table_capacity`].
//!
//! Otherwise (sparse or composite keys) the first table has
//! `next_pow2(1.4 × d)` slots (the paper's 1.4, from its observed ~75 % fill
//! rate), where `d` is the build's row count for a join and at most
//! [`GROUPING_START`] keys for group-by keys, which have no bound to offer
//! — and which, had their ranges spanned no more than that many key tuples,
//! would have been grouped without a table. A failed attempt is evidence,
//! not a reason to double: the table held at most `capacity` keys and the
//! check round counted `failed` rows outside it, so `capacity + failed`
//! bounds the distinct count and the next table is sized for that — clamped
//! to `next_pow2(1.4 × rows)`, which
//! always suffices for distinct keys, and grown at least twofold so
//! pathological collisions still terminate. Two attempts are the norm from
//! any start, three the exception; no table exceeds
//! `max(next_pow2(1.4 × rows), next_pow2(8 × rows + probe_rows))`
//! ([`table_words`]) short of those pathologies.
//!
//! # Which builds rank dense ids
//!
//! The check and pessimistic rounds lower each slot's row id to the
//! smallest row of its key (`fetch_min`), so a key's representative is its
//! first row — independent of how the racy optimistic round interleaved. A
//! **join build** ([`OcelotHashTable::build`]) stops there: probes return
//! representative row ids and nothing reads a dense id, so no per-row
//! buffer is allocated and nothing is ranked. The **grouping builds**
//! ([`OcelotHashTable::build_ranked`] and the group-by's composite-key build)
//! additionally record every row's slot during the check round and rank
//! the representatives: dense group ids are the rank of the representative
//! among all representatives — ids follow first appearance, as in MonetDB's
//! sequential grouping, and are identical run to run. Ranking is a flag
//! pass plus a prefix sum over the *rows*; nothing walks the table itself
//! after the build.

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

/// Slots probed linearly after the last hash function.
pub const LINEAR_WINDOW: usize = 16;
/// Length of every probe sequence — a constant, never the table size.
pub const MAX_PROBE: usize = HASH_SEEDS.len() + LINEAR_WINDOW;
/// Distinct keys the first table of a group-by is sized for — and therefore
/// the largest key-tuple space `ops::groupby` groups by dense codes instead
/// (a first-row table of that many words is never the larger structure).
pub const GROUPING_START: usize = 1024;
/// A single-column build whose key range is at most this many slots per
/// build row, plus one per probe row, gets a table covering the range
/// (module docs, sizing rule).
pub const RANGE_SLOTS_PER_ROW: usize = 8;

/// Slots of a hash-sized table for `distinct` keys: `next_pow2(1.4 ×
/// distinct)`, at least 16.
// xlint:allow(eager-host-scalar): a sizing rule over a row count, no device value is read.
pub fn table_capacity(distinct: usize) -> usize {
    (((distinct.max(1) as f64) * 1.4).ceil() as usize).next_power_of_two().max(16)
}

/// Words of the largest first table a single-column build of `rows` keys
/// that `probe_rows` rows probe allocates: hash-sized, or covering a key
/// range those rows pay for (module docs, memory bound).
// xlint:allow(eager-host-scalar): a sizing rule over row counts, no device value is read.
pub fn table_words(rows: usize, probe_rows: usize) -> usize {
    table_capacity(rows).max((RANGE_SLOTS_PER_ROW * rows + probe_rows).next_power_of_two())
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
    /// Smallest key of a single-column build: attempt 0 is the key's offset
    /// from it. `None` for composite keys, which hash from attempt 0.
    origin: Option<u32>,
    /// Slots a sequence visits: [`MAX_PROBE`], or 1 in a table covering the
    /// key range, whose keys all sit at their first slot.
    len: usize,
}

impl Probe {
    fn new(capacity: usize, origin: Option<u32>) -> Probe {
        debug_assert!(capacity.is_power_of_two() && capacity >= 2);
        Probe { shift: 32 - capacity.trailing_zeros(), mask: capacity - 1, origin, len: MAX_PROBE }
    }

    /// The probe of a table covering the key range from `origin`.
    fn covering(capacity: usize, origin: u32) -> Probe {
        Probe { len: 1, ..Probe::new(capacity, Some(origin)) }
    }

    /// Slot visited at `attempt < MAX_PROBE` by a key whose first column
    /// word is `key` and whose words mix to `hash`: the range-relative slot
    /// (single-column keys only), the top bits of the multiplicative hashes,
    /// then the slots following the last of them.
    #[inline]
    fn slot(self, key: u32, hash: u32, attempt: usize) -> usize {
        let last = HASH_SEEDS.len() - 1;
        match self.origin {
            Some(origin) if attempt == 0 => key.wrapping_sub(origin) as usize & self.mask,
            _ if attempt <= last => (hash.wrapping_mul(HASH_SEEDS[attempt]) >> self.shift) as usize,
            _ => {
                let base = (hash.wrapping_mul(HASH_SEEDS[last]) >> self.shift) as usize;
                (base + attempt - last) & self.mask
            }
        }
    }
}

/// Mixes one more key word into `hash` (a bijection of the word).
#[inline]
fn mix(hash: u32, word: u32) -> u32 {
    let hash = (hash ^ word).wrapping_mul(0x9E37_79B1);
    hash ^ (hash >> 15)
}

/// Mixes the key words of `row` into one 32-bit hash.
#[inline]
fn hash_row(columns: &[&[u32]], row: usize) -> u32 {
    columns.iter().fold(0, |hash, column| mix(hash, column[row]))
}

#[inline]
fn rows_equal(columns: &[&[u32]], a: usize, b: usize) -> bool {
    columns.iter().all(|column| column[a] == column[b])
}

pub(crate) fn key_views(columns: &[Buffer]) -> Vec<&[u32]> {
    columns.iter().map(Buffer::as_words).collect()
}

pub(crate) fn key_reads(columns: &[Buffer]) -> Vec<BufferAccess> {
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

/// Key words order as `i32`; flipping the sign bit maps that order onto
/// `u32`, where differences are plain (wrapping) subtractions.
const SIGN_BIT: u32 = 0x8000_0000;

/// Smallest key word of one key column and the number of values between it
/// and the largest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyRange {
    pub min: u32,
    pub span: u64,
}

/// Smallest and largest of a non-empty run of key words, as `i32`. One
/// plain loop: the compiler vectorises the two reductions itself, where
/// hand-split lanes stay scalar compare-and-moves (2× slower on baseline
/// x86-64).
fn signed_bounds(keys: &[u32]) -> (i32, i32) {
    let (mut min, mut max) = (i32::MAX, i32::MIN);
    for key in keys {
        (min, max) = (min.min(*key as i32), max.max(*key as i32));
    }
    (min, max)
}

/// Folds the smallest and largest key of every column into `bounds`: for
/// column `c`, word `2c` is the maximum of the *complemented* biased keys and
/// word `2c + 1` the maximum of the biased keys, so a zeroed buffer is the
/// identity of both and one launch covers all columns.
struct KeyRangeKernel {
    keys: Vec<Buffer>,
    bounds: Buffer,
    n: LenSource,
}

impl KeyRangeKernel {
    fn decode(bounds: &Buffer, column: usize) -> KeyRange {
        let (min, max) = (!bounds.get_u32(2 * column), bounds.get_u32(2 * column + 1));
        KeyRange { min: min ^ SIGN_BIT, span: u64::from(max.wrapping_sub(min)) + 1 }
    }
}

impl Kernel for KeyRangeKernel {
    fn name(&self) -> &str {
        "hash_key_range"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        // A deferred row count resolves here, at flush time.
        let n = self.n.get();
        for item in group.items() {
            let (start, end) = item.chunk_bounds(n);
            if start == end {
                continue;
            }
            for (column, keys) in self.keys.iter().enumerate() {
                let (min, max) = signed_bounds(&keys.as_words()[start..end]);
                let (min, max) = (min as u32 ^ SIGN_BIT, max as u32 ^ SIGN_BIT);
                self.bounds.cell(2 * column).fetch_max(!min, Ordering::Relaxed);
                self.bounds.cell(2 * column + 1).fetch_max(max, Ordering::Relaxed);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let (words, columns) = ((launch.n * self.keys.len()) as u64, self.keys.len() as u64);
        let items = launch.total_items() as u64;
        KernelCost::new(words * 4, columns * 8, words * 2, items * columns * 2)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses: Vec<BufferAccess> =
            self.keys.iter().map(|keys| BufferAccess::slice_read(keys, 0..launch.n)).collect();
        accesses.push(BufferAccess::cells_write(&self.bounds, 0..2 * self.keys.len()));
        Some(KernelAccesses::of(accesses))
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
        for run in group.runs(group.n()) {
            for row in run {
                let (key, hash) = (keys[0][row], hash_row(&keys, row));
                for attempt in 0..self.probe.len {
                    let slot = &slots[self.probe.slot(key, hash, attempt)];
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

/// Finds every row's slot, lowers the slot to the smallest row of its key,
/// and counts the rows the optimistic round lost. A grouping build also
/// records the slot per row (`row_slots`), so nothing after the build probes
/// for a build row again.
struct CheckKernel {
    keys: Vec<Buffer>,
    slots: Buffer,
    row_slots: Option<Buffer>,
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
        let row_slots = self.row_slots.as_ref().map(Buffer::cells);
        let mut failed = 0u32;
        for run in group.runs(group.n()) {
            for row in run {
                let (key, hash) = (keys[0][row], hash_row(&keys, row));
                let mut found = UNPLACED;
                for attempt in 0..self.probe.len {
                    let index = self.probe.slot(key, hash, attempt);
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
                if let Some(row_slots) = row_slots {
                    row_slots[row].store(found, Ordering::Relaxed);
                }
            }
        }
        if failed > 0 {
            self.counters.cell(0).fetch_add(failed, Ordering::Relaxed);
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let words = (launch.n * (self.keys.len() + 2)) as u64;
        let recorded = if self.row_slots.is_some() { (launch.n as u64) * 4 } else { 0 };
        KernelCost::new(words * 4, recorded, words, launch.n as u64 / 16)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = key_reads(&self.keys);
        accesses.push(BufferAccess::cells_write(&self.slots, 0..self.slots.len()));
        if let Some(row_slots) = &self.row_slots {
            accesses.push(BufferAccess::cells_write(row_slots, 0..launch.n));
        }
        accesses.push(BufferAccess::cells_write(&self.counters, 0..1));
        Some(KernelAccesses::of(accesses))
    }
}

/// Re-inserts the rows the check round did not find, with CAS: the rows it
/// marked in `row_slots`, or — a join build records none — every row, which
/// finds its key where the check round left it. The first row that cannot be
/// placed raises counter word 1; everyone else stops at the next row,
/// because the attempt is lost and the restart is sized from the check
/// round's complete count, not from this kernel's.
struct PessimisticInsertKernel {
    keys: Vec<Buffer>,
    slots: Buffer,
    row_slots: Option<Buffer>,
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
        let row_slots = self.row_slots.as_ref().map(Buffer::cells);
        let restart = self.counters.cell(1);
        for run in group.runs(group.n()) {
            for row in run {
                if row_slots.is_some_and(|rs| rs[row].load(Ordering::Relaxed) != UNPLACED) {
                    continue;
                }
                if restart.load(Ordering::Relaxed) != 0 {
                    return;
                }
                let (key, hash) = (keys[0][row], hash_row(&keys, row));
                let mut placed = UNPLACED;
                for attempt in 0..self.probe.len {
                    let index = self.probe.slot(key, hash, attempt);
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
                if let Some(row_slots) = row_slots {
                    row_slots[row].store(placed, Ordering::Relaxed);
                }
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
        if let Some(row_slots) = &self.row_slots {
            accesses.push(BufferAccess::cells_write(row_slots, 0..launch.n));
        }
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
        for run in group.runs(group.n()) {
            // SAFETY: a group's runs are its own rows, no other group's.
            let flags = unsafe { self.flags.chunk_mut(run.start, run.end) };
            for ((flag, &slot), row) in flags.iter_mut().zip(&row_slots[run.clone()]).zip(run) {
                *flag = u32::from(slot != UNPLACED && slots[slot as usize] == row as u32);
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
            BufferAccess::slice_write(&self.flags, 0..launch.n),
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
        for run in group.runs(group.n()) {
            // SAFETY: a group's runs are its own rows, no other group's.
            let row_slots = unsafe { self.row_slots.chunk_mut(run.start, run.end) };
            for (entry, row) in row_slots.iter_mut().zip(run) {
                let representative = slots[*entry as usize] as usize;
                let gid = ranks[representative];
                if representative == row {
                    // One representative per gid: the scatter is disjoint.
                    self.representatives.set_u32(gid as usize, row as u32);
                }
                *entry = gid;
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
            BufferAccess::slice_write(&self.row_slots, 0..launch.n),
            BufferAccess::cells_write(&self.representatives, 0..self.representatives.len()),
        ]))
    }
}

/// Per-work-item counts of the lookups a compaction keeps, taken while the
/// lookups are written: item `i` of `ctx.launch(cap)` owns the rows
/// `chunk_bounds(len)` gives it, `counts[i]` of which are hits
/// (`keep_found`) or misses (`!keep_found`).
#[derive(Debug, Clone)]
pub(crate) struct KeptCounts {
    pub counts: Buffer,
    pub keep_found: bool,
}

impl KeptCounts {
    pub(crate) fn alloc(ctx: &OcelotContext, cap: usize, keep_found: bool) -> Result<KeptCounts> {
        let counts = ctx.alloc_uninit(ctx.launch(cap).total_items(), "lookup_kept_counts")?;
        Ok(KeptCounts { counts, keep_found })
    }

    /// Records that `found` of work-item `item`'s `rows` lookups hit.
    #[inline]
    pub(crate) fn record(&self, item: usize, rows: usize, found: u32) {
        let kept = if self.keep_found { found } else { rows as u32 - found };
        self.counts.set_u32(item, kept);
    }

    #[inline]
    pub(crate) fn keeps(&self, lookup: u32) -> bool {
        (lookup != NOT_FOUND) == self.keep_found
    }
}

/// Looks up every probe key: the representative build row, or (with
/// `row_gids`) that row's dense group id; [`NOT_FOUND`] if absent. Items
/// walk contiguous chunks whatever the device's access pattern, so the
/// output is a tier-2 write and `kept` can count per item in the same pass.
struct LookupKernel {
    build_keys: Buffer,
    probe_keys: Buffer,
    slots: Buffer,
    row_gids: Option<Buffer>,
    output: Buffer,
    kept: Option<KeptCounts>,
    probe: Probe,
    n: LenSource,
}

impl LookupKernel {
    #[inline]
    fn find(&self, key: u32, build_keys: &[u32], slots: &[u32]) -> u32 {
        let hash = mix(0, key);
        for attempt in 0..self.probe.len {
            let row = slots[self.probe.slot(key, hash, attempt)];
            if row == EMPTY_SLOT {
                break;
            }
            if build_keys[row as usize] == key {
                return row;
            }
        }
        NOT_FOUND
    }
}

impl Kernel for LookupKernel {
    fn name(&self) -> &str {
        "hash_lookup"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        // A deferred probe count resolves here, at flush time; the value is
        // identical for every item, so the chunk partition is consistent.
        let n = self.n.get();
        let build_keys = self.build_keys.as_words();
        let probe_keys = self.probe_keys.as_words();
        let slots = self.slots.as_words();
        let row_gids = self.row_gids.as_ref().map(Buffer::as_words);
        for item in group.items() {
            let (start, end) = item.chunk_bounds(n);
            // SAFETY: `chunk_bounds` partitions `0..n` among the items; this
            // item alone touches `start..end` of the output in this launch.
            let output = unsafe { self.output.chunk_mut(start, end) };
            let mut found = 0u32;
            for (out, &key) in output.iter_mut().zip(&probe_keys[start..end]) {
                let row = self.find(key, build_keys, slots);
                *out = match row_gids {
                    Some(gids) if row != NOT_FOUND => gids[row as usize],
                    _ => row,
                };
                found += u32::from(row != NOT_FOUND);
            }
            if let Some(kept) = &self.kept {
                kept.record(item.global_id, end - start, found);
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
            BufferAccess::slice_write(&self.output, 0..launch.n),
        ];
        if let Some(row_gids) = &self.row_gids {
            accesses.push(BufferAccess::slice_read(row_gids, 0..row_gids.len()));
        }
        if let Some(kept) = &self.kept {
            accesses.push(BufferAccess::cells_write(&kept.counts, 0..launch.total_items()));
        }
        Some(KernelAccesses::of(accesses))
    }
}

/// What a grouping build adds to the table: dense ids in first-appearance
/// order (module docs).
struct DenseIds {
    row_gids: Buffer,
    representatives: Buffer,
    distinct: usize,
}

/// A finished parallel hash table over one or more key columns.
pub struct OcelotHashTable {
    keys: Vec<Buffer>,
    slots: Buffer,
    probe: Probe,
    rows: usize,
    build_attempts: usize,
    /// `None` for join builds, which rank nothing.
    ids: Option<DenseIds>,
}

impl std::fmt::Debug for OcelotHashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OcelotHashTable")
            .field("key_columns", &self.keys.len())
            .field("capacity", &self.capacity())
            .field("rows", &self.rows)
            .field("distinct", &self.ids.as_ref().map(|ids| ids.distinct))
            .field("build_attempts", &self.build_attempts)
            .finish()
    }
}

impl OcelotHashTable {
    /// Builds a **join** table over one key column: probes return
    /// representative build rows, no dense ids are ranked (module docs).
    /// `probe_rows` bounds the rows that will probe the table from above, as
    /// far as the caller knows without a sync (a join passes its probe
    /// side's capacity, which counts the rows a pending filter may still
    /// drop): they share the fill of a table covering the key range, so a
    /// selective build over a dense key still gets one (module docs, sizing
    /// rule). Otherwise the table is sized for the build's rows.
    ///
    /// **Deliberate sync point:** the table size depends on the key range
    /// and the optimistic/pessimistic loop's host-side control flow inspects
    /// the failure counter after each round, so the build flushes internally
    /// (a deferred input length is resolved together with the range). A
    /// table covering its key range cannot lose a row and skips that count.
    /// The *probes* stay lazy.
    pub fn build<T: DevWord>(
        ctx: &OcelotContext,
        keys_col: &DevColumn<T>,
        probe_rows: usize,
    ) -> Result<OcelotHashTable> {
        let shape = key_shape(ctx, &[keys_col])?;
        Self::build_from(ctx, &[keys_col], &shape, shape.rows, probe_rows, false)
    }

    /// [`OcelotHashTable::build`] plus dense ids: the single-column grouping
    /// build, for callers that read [`OcelotHashTable::row_gids`],
    /// [`OcelotHashTable::representatives`] or probe for group ids.
    pub fn build_ranked<T: DevWord>(
        ctx: &OcelotContext,
        keys_col: &DevColumn<T>,
        probe_rows: usize,
    ) -> Result<OcelotHashTable> {
        let shape = key_shape(ctx, &[keys_col])?;
        Self::build_from(ctx, &[keys_col], &shape, shape.rows, probe_rows, true)
    }

    /// Builds a grouping table (dense ids ranked) over the key columns whose
    /// `shape` the caller already resolved ([`key_shape`]): rows are equal
    /// when they agree on every column. Nothing probes it but its own rows —
    /// a range table is paid for by the build alone — and a table not sized
    /// by its key range starts at [`GROUPING_START`] keys, a restart sized
    /// from what that attempt observed. Same sync points as
    /// [`OcelotHashTable::build`], minus the range it is handed.
    pub(crate) fn build_grouping<T: DevWord>(
        ctx: &OcelotContext,
        columns: &[&DevColumn<T>],
        shape: &KeyShape,
    ) -> Result<OcelotHashTable> {
        Self::build_from(ctx, columns, shape, GROUPING_START, 0, true)
    }

    /// The build behind every entry point: `distinct` keys (at most the
    /// rows) size a first table that does not cover the key range,
    /// `probe_rows` decide whether one does.
    fn build_from<T: DevWord>(
        ctx: &OcelotContext,
        columns: &[&DevColumn<T>],
        shape: &KeyShape,
        distinct: usize,
        probe_rows: usize,
        ranked: bool,
    ) -> Result<OcelotHashTable> {
        let keys: Vec<Buffer> = columns.iter().map(|c| c.buffer.clone()).collect();
        let key_wait: Vec<EventId> = columns.iter().flat_map(|c| ctx.wait_for(*c)).collect();
        let rows = shape.rows;
        // Only a single-column key has an order for the first probe to keep
        // and a range a table can cover.
        let range = match shape.ranges.as_slice() {
            [range] => Some(*range),
            _ => None,
        };
        let origin = if columns.len() == 1 { Some(range.map_or(0, |r| r.min)) } else { None };
        // The rows that will touch a range table pay for its fill.
        let paid = (RANGE_SLOTS_PER_ROW * rows + probe_rows) as u64;
        let covered = range.filter(|range| range.span <= paid);
        let mut capacity = match covered {
            Some(range) => (range.span as usize).next_power_of_two().max(16),
            None => table_capacity(distinct.min(rows)),
        };
        debug_assert!(capacity <= table_words(rows, probe_rows));
        // One per-row buffer serves every attempt of a grouping build and
        // then becomes the gid column, so restarts do not multiply the
        // build's footprint. A join build has no per-row state at all.
        let row_slots =
            if ranked { Some(ctx.alloc_uninit(rows.max(1), "hash_row_gids")?) } else { None };
        let launch = ctx.launch(rows);
        let mut build_attempts = 0;

        let (slots, probe, ids) = loop {
            build_attempts += 1;
            let probe = match covered {
                Some(range) => Probe::covering(capacity, range.min),
                None => Probe::new(capacity, origin),
            };
            let slots = ctx.alloc_uninit(capacity, "hash_slots")?;
            let filled = ctx.queue().enqueue_kernel(
                Arc::new(FillKernel { buffer: slots.clone(), value: EMPTY_SLOT }),
                ctx.launch(capacity),
                &[],
            )?;
            if rows == 0 {
                ctx.memory().record_producer(&slots, filled);
                let ids = match &row_slots {
                    Some(row_slots) => Some(DenseIds {
                        row_gids: row_slots.clone(),
                        representatives: ctx.alloc(1, "hash_representatives")?,
                        distinct: 0,
                    }),
                    None => None,
                };
                break (slots, probe, ids);
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
            let mut ranks = match &row_slots {
                Some(row_slots) => {
                    Some(rank_representatives(ctx, &slots, row_slots, &launch, checked)?)
                }
                None => None,
            };
            // A table covering the key range cannot lose a row (module
            // docs), so there is no count to wait for.
            let failed = if covered.is_some() {
                0
            } else {
                ctx.queue().flush()?;
                counters.get_u32(0) as usize
            };
            let mut settled = checked;
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
                if let Some(row_slots) = &row_slots {
                    ranks =
                        Some(rank_representatives(ctx, &slots, row_slots, &launch, reinserted)?);
                }
                settled = reinserted;
            }
            ctx.memory().record_producer(&slots, settled);
            let (Some(row_slots), Some((ranks, distinct))) = (row_slots, ranks) else {
                break (slots, probe, None);
            };
            // The group count shapes the result schema (representative
            // allocation below), so a grouping build resolves it here.
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
            break (
                slots,
                probe,
                Some(DenseIds { row_gids: row_slots, representatives, distinct }),
            );
        };
        Ok(OcelotHashTable { keys, slots, probe, rows, build_attempts, ids })
    }

    /// Number of slots in the table.
    pub fn capacity(&self) -> usize {
        self.probe.mask + 1
    }

    /// How many build attempts (restarts + 1) were needed.
    pub fn build_attempts(&self) -> usize {
        self.build_attempts
    }

    fn ids(&self) -> &DenseIds {
        self.ids.as_ref().expect("a join build ranks no dense ids: use a grouping build")
    }

    /// Number of distinct keys indexed.
    ///
    /// # Panics
    /// This and the other dense-id accessors panic on a join build
    /// ([`OcelotHashTable::build`]).
    pub fn num_distinct(&self) -> usize {
        self.ids().distinct
    }

    /// The representative (smallest) row id per dense group id, as a device
    /// column of `num_distinct()` OIDs in ascending order.
    pub fn representatives(&self) -> DevColumn<Oid> {
        let ids = self.ids();
        DevColumn::new(ids.representatives.clone(), ids.distinct)
            .expect("representative buffer covers the distinct count")
    }

    /// The dense group id of every build row, recorded during the build —
    /// what `probe_gids` over the build input would return, without probing.
    pub fn row_gids(&self) -> DevColumn<Oid> {
        DevColumn::new(self.ids().row_gids.clone(), self.rows)
            .expect("gid buffer covers the build rows")
    }

    /// Looks up the dense group id of every probe key. Missing keys map to
    /// [`NOT_FOUND`]. Lazy: probe columns with deferred lengths are
    /// supported, and the output inherits the same length.
    pub fn probe_gids<T: DevWord>(
        &self,
        ctx: &OcelotContext,
        probe: &DevColumn<T>,
    ) -> Result<DevColumn<Oid>> {
        self.lookup(ctx, probe, Some(self.ids().row_gids.clone()), None)
    }

    /// Looks up the representative row id (in the build input) of every
    /// probe key. Missing keys map to [`NOT_FOUND`]. This is the probe half
    /// of a PK-FK hash join.
    pub fn probe_representatives<T: DevWord>(
        &self,
        ctx: &OcelotContext,
        probe: &DevColumn<T>,
    ) -> Result<DevColumn<Oid>> {
        self.lookup(ctx, probe, None, None)
    }

    /// [`OcelotHashTable::probe_representatives`] that also counts, per
    /// work-item, the lookups a compaction with `keep_found` keeps — the
    /// counting pass of the two-step join scheme, folded into the probe.
    pub(crate) fn probe_counted<T: DevWord>(
        &self,
        ctx: &OcelotContext,
        probe: &DevColumn<T>,
        keep_found: bool,
    ) -> Result<(DevColumn<Oid>, KeptCounts)> {
        let kept = KeptCounts::alloc(ctx, probe.cap(), keep_found)?;
        Ok((self.lookup(ctx, probe, None, Some(kept.clone()))?, kept))
    }

    fn lookup<T: DevWord>(
        &self,
        ctx: &OcelotContext,
        probe: &DevColumn<T>,
        row_gids: Option<Buffer>,
        kept: Option<KeptCounts>,
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
        if let Some(row_gids) = &row_gids {
            wait.extend(ctx.memory().wait_for_read(row_gids));
        }
        let event = ctx.queue().enqueue_kernel(
            Arc::new(LookupKernel {
                build_keys: self.keys[0].clone(),
                probe_keys: probe.buffer.clone(),
                slots: self.slots.clone(),
                row_gids,
                output: output.clone(),
                kept: kept.clone(),
                probe: self.probe,
                n: probe.len_source(),
            }),
            ctx.launch(probe.cap()),
            &wait,
        )?;
        ctx.memory().record_producer(&output, event);
        if let Some(kept) = &kept {
            ctx.memory().record_producer(&kept.counts, event);
        }
        DevColumn::with_len(output, probe.col_len().clone())
    }
}

/// What a build learns about its key columns before it sizes anything: the
/// common row count and every column's key range (none for an empty input).
#[derive(Debug, Clone)]
pub(crate) struct KeyShape {
    pub rows: usize,
    pub ranges: Vec<KeyRange>,
}

/// Resolves the row count and the per-column key ranges of `columns` — the
/// sync point every build starts with. One fused min/max launch covers all
/// columns and is enqueued before the (possibly deferred) length resolves,
/// so a deferred length and the ranges cost one flush between them.
///
/// # Panics
/// Panics if `columns` is empty or the columns' logical lengths differ.
pub(crate) fn key_shape<T: DevWord>(
    ctx: &OcelotContext,
    columns: &[&DevColumn<T>],
) -> Result<KeyShape> {
    assert!(!columns.is_empty(), "hash table: need at least one key column");
    // Alignment is on *logical* lengths: a deferred column's capacity bound
    // may exceed its neighbours'. Driving the launch from the smallest bound
    // keeps every read inside every buffer even before the lengths are
    // compared below.
    let shortest =
        columns.iter().min_by_key(|column| column.cap()).expect("at least one key column");
    let bounds = if shortest.cap() > 0 {
        let bounds = ctx.alloc(2 * columns.len(), "hash_key_bounds")?;
        let wait: Vec<EventId> = columns.iter().flat_map(|c| ctx.wait_for(*c)).collect();
        let event = ctx.queue().enqueue_kernel(
            Arc::new(KeyRangeKernel {
                keys: columns.iter().map(|c| c.buffer.clone()).collect(),
                bounds: bounds.clone(),
                n: shortest.len_source(),
            }),
            ctx.launch(shortest.cap()),
            &wait,
        )?;
        ctx.memory().record_producer(&bounds, event);
        Some(bounds)
    } else {
        None
    };
    let rows = columns[0].len(ctx)?;
    for column in &columns[1..] {
        assert_eq!(column.len(ctx)?, rows, "hash table: key column length mismatch");
    }
    let ranges = match bounds {
        Some(bounds) if rows > 0 => {
            ctx.materialize(&bounds, 2 * columns.len())?;
            (0..columns.len()).map(|column| KeyRangeKernel::decode(&bounds, column)).collect()
        }
        _ => Vec::new(),
    };
    Ok(KeyShape { rows, ranges })
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
    use ocelot_trace::{TraceEventKind, TraceSink};
    use std::collections::HashSet;

    fn contexts() -> Vec<OcelotContext> {
        vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
    }

    /// A build whose first table, unless it covers the key range, is sized
    /// for `distinct` keys: how a test starts a build too small on purpose.
    fn build_sized_for(
        ctx: &OcelotContext,
        col: &DevColumn<i32>,
        distinct: usize,
        ranked: bool,
    ) -> OcelotHashTable {
        let shape = key_shape(ctx, &[col]).unwrap();
        OcelotHashTable::build_from(ctx, &[col], &shape, distinct, 0, ranked).unwrap()
    }

    #[test]
    fn distinct_count_matches_reference_on_all_devices() {
        let keys: Vec<i32> = (0..20_000).map(|i| (i * 131 + 17) % 500).collect();
        let expected: HashSet<i32> = keys.iter().copied().collect();
        for ctx in contexts() {
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            let table = OcelotHashTable::build_ranked(&ctx, &col, 0).unwrap();
            assert_eq!(table.num_distinct(), expected.len(), "{:?}", ctx.device().info().kind);
        }
    }

    #[test]
    fn lookups_are_consistent_and_dense() {
        let keys: Vec<i32> = (0..5_000).map(|i| (i * 7 + 1) % 250).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&keys, "keys").unwrap();
        let table = OcelotHashTable::build_ranked(&ctx, &col, keys.len()).unwrap();
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
            let table = OcelotHashTable::build_ranked(&ctx, &col, 0).unwrap();
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
        let table = OcelotHashTable::build(&ctx, &build, 7).unwrap();
        let probe = ctx.upload_i32(&[20, 99, 10, 55, 9, i32::MIN, i32::MAX], "probe").unwrap();
        let reps = table.probe_representatives(&ctx, &probe).unwrap().read(&ctx).unwrap();
        assert_eq!(reps, vec![1, NOT_FOUND, 0, NOT_FOUND, NOT_FOUND, NOT_FOUND, NOT_FOUND]);
    }

    #[test]
    fn unique_keys_give_identity_representatives() {
        let keys: Vec<i32> = (0..1_000).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&keys, "keys").unwrap();
        let table = OcelotHashTable::build(&ctx, &col, keys.len()).unwrap();
        let reps = table.probe_representatives(&ctx, &col).unwrap().read(&ctx).unwrap();
        let expected: Vec<u32> = (0..1_000).collect();
        assert_eq!(reps, expected);
    }

    /// Probes every build key plus a band of absent keys around the range
    /// against a host map: hits return the key's smallest build row.
    fn check_against_host(ctx: &OcelotContext, keys: &[i32], table: &OcelotHashTable) {
        let mut first_row = std::collections::HashMap::new();
        for (row, key) in keys.iter().enumerate() {
            first_row.entry(*key).or_insert(row as u32);
        }
        let mut probe: Vec<i32> = keys.to_vec();
        for key in keys.iter().take(64) {
            probe.extend([key.wrapping_sub(1), key.wrapping_add(1), key.wrapping_add(i32::MIN)]);
        }
        probe.extend([i32::MIN, -1, 0, 1, i32::MAX]);
        let found = table
            .probe_representatives(ctx, &ctx.upload_i32(&probe, "probe").unwrap())
            .unwrap()
            .read(ctx)
            .unwrap();
        for (key, row) in probe.iter().zip(found) {
            let expected = first_row.get(key).copied().unwrap_or(NOT_FOUND);
            assert_eq!(row, expected, "key {key} on {:?}", ctx.device().info().kind);
        }
    }

    #[test]
    fn key_ranges_at_the_edges_of_i32_size_and_probe_without_overflow() {
        // (first key, stride, rows): dense from 0, dense from `i32::MIN`,
        // dense up to `i32::MAX`, negative keys crossing zero, and a sparse
        // column spanning the whole 32-bit range.
        let shapes: [(i32, i32, usize); 5] = [
            (0, 1, 3_000),
            (i32::MIN, 1, 3_000),
            (i32::MAX - 2_999, 1, 3_000),
            (-1_500, 1, 3_000),
            (i32::MIN, 1_431_655, 3_000),
        ];
        for (first, stride, rows) in shapes {
            let keys: Vec<i32> =
                (0..rows as i32).map(|i| first.wrapping_add(i.wrapping_mul(stride))).collect();
            for ctx in contexts() {
                let col = ctx.upload_i32(&keys, "keys").unwrap();
                let table = OcelotHashTable::build(&ctx, &col, rows).unwrap();
                if stride == 1 {
                    assert_eq!(table.capacity(), 4_096, "range-sized: {table:?}");
                    assert_eq!(table.build_attempts(), 1);
                } else {
                    assert_eq!(table.capacity(), table_capacity(rows), "hash-sized: {table:?}");
                }
                check_against_host(&ctx, &keys, &table);
            }
        }
    }

    #[test]
    fn tables_cover_the_key_range_up_to_eight_slots_per_row() {
        // The rule is `span ≤ 8·rows + probe_rows`; with no probe rows (a
        // grouping build) it is the build's eight slots per row alone.
        let ctx = OcelotContext::cpu();
        let rows = 1_000usize;
        let mut keys: Vec<i32> = (0..rows as i32).map(|i| i * 7 + 3).collect();
        for (probe_rows, covered) in [(0, 8_192), (3_000, 16_384), (10_000, 32_768)] {
            let span = RANGE_SLOTS_PER_ROW * rows + probe_rows;
            for (last, capacity) in [
                // Range `span` exactly: covered (rounded up to a power of two).
                (3 + span as i32 - 1, covered),
                // One more value in the range: sized by the build rows.
                (3 + span as i32, table_capacity(rows)),
            ] {
                keys[rows - 1] = last;
                let col = ctx.upload_i32(&keys, "keys").unwrap();
                let table = OcelotHashTable::build(&ctx, &col, probe_rows).unwrap();
                let at = format!("{probe_rows} probe rows, last key {last}: {table:?}");
                assert_eq!(table.capacity(), capacity, "{at}");
                assert_eq!(table.build_attempts(), 1, "{at}");
                check_against_host(&ctx, &keys, &table);
            }
        }
    }

    #[test]
    fn keys_sharing_their_low_bits_still_build_and_probe() {
        // Multiples of 2^k: in a hash-sized table every key's range-relative
        // first slot collides with 2^k − 1 others; the hashed attempts (and,
        // if need be, a restart) absorb it.
        for shift in [4u32, 12, 20] {
            let keys: Vec<i32> = (0..2_000).map(|i| (i - 1_000) << shift).collect();
            for ctx in contexts() {
                let col = ctx.upload_i32(&keys, "keys").unwrap();
                let table = OcelotHashTable::build_ranked(&ctx, &col, keys.len()).unwrap();
                assert_eq!(table.num_distinct(), keys.len(), "shift {shift}: {table:?}");
                assert!(table.build_attempts() <= 3, "shift {shift}: {table:?}");
                check_against_host(&ctx, &keys, &table);
            }
        }
    }

    #[test]
    fn duplicate_build_keys_resolve_to_their_smallest_row() {
        // Dense (range-sized) and sparse (hash-sized) duplicates alike.
        for stride in [1, 1_000] {
            let keys: Vec<i32> = (0..6_000).map(|i| ((i * 31 + 5) % 700) * stride - 9).collect();
            for ctx in contexts() {
                let col = ctx.upload_i32(&keys, "keys").unwrap();
                let table = OcelotHashTable::build(&ctx, &col, keys.len()).unwrap();
                check_against_host(&ctx, &keys, &table);
            }
        }
    }

    #[test]
    fn one_row_builds() {
        for key in [0, -1, i32::MIN, i32::MAX] {
            for ctx in contexts() {
                let col = ctx.upload_i32(&[key], "keys").unwrap();
                let table = OcelotHashTable::build_ranked(&ctx, &col, 0).unwrap();
                assert_eq!(table.num_distinct(), 1);
                assert_eq!(table.row_gids().read(&ctx).unwrap(), vec![0]);
                check_against_host(&ctx, &[key], &table);
            }
        }
    }

    #[test]
    fn undersized_hint_triggers_restart_but_succeeds() {
        // Sparse keys (range 37·rows), so the table is sized for `distinct`.
        let keys: Vec<i32> = (0..4_000).map(|i| i * 37).collect();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&keys, "keys").unwrap();
        // Sized for 4 keys: a 16-slot table; the restart is sized from the
        // ~4000 rows the check round counted outside it, not doubled.
        let table = build_sized_for(&ctx, &col, 4, true);
        assert_eq!(table.num_distinct(), 4_000);
        assert_eq!(table.build_attempts(), 2, "one evidence-sized restart");
        assert_eq!(table.capacity(), 8_192);
        // A join build, which records no per-row slots, restarts alike — on
        // every device, every kernel declared and no unordered conflict.
        for ctx in contexts() {
            ctx.queue().race().arm();
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            let table = build_sized_for(&ctx, &col, 4, false);
            assert_eq!(table.build_attempts(), 2, "one evidence-sized restart");
            assert_eq!(table.capacity(), 8_192);
            check_against_host(&ctx, &keys, &table);
            let stats = ctx.queue().race().stats();
            let diagnostics = ctx.queue().race().take_diagnostics();
            ctx.queue().race().disarm();
            assert!(diagnostics.is_empty(), "{diagnostics:?}");
            assert_eq!(stats.kernels_declared, stats.kernels_observed, "{stats:?}");
        }
    }

    /// A join build started too small — the pessimistic round and an
    /// evidence-sized restart — gives the pairs a host hash map gives on the
    /// sequential CPU, the multi-core CPU at 1, 2 and N threads and the GPU,
    /// at row counts on and around the GPU's group size (192) and launch
    /// width (7 × 192).
    #[test]
    fn join_builds_started_too_small_give_the_host_pairs_on_every_device() {
        const S: usize = 192;
        const T: usize = 7 * S;
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        let mut devices = vec![
            ("sequential CPU".to_string(), OcelotContext::cpu_sequential()),
            ("GPU".to_string(), OcelotContext::gpu()),
        ];
        for threads in [1, 2, cores] {
            let device = ocelot_kernel::Device::cpu_multicore_with(threads);
            devices.push((format!("CPU, {threads} threads"), OcelotContext::with_device(device)));
        }
        for (name, ctx) in devices {
            for rows in [0, 1, S - 1, S, S + 1, T - 1, T, T + 1, 10 * T + 3] {
                let build: Vec<i32> =
                    (0..rows as u32).map(|row| row.wrapping_mul(0x9E37_79B1) as i32).collect();
                // Every fourth probe key is (almost surely) a miss.
                let probe: Vec<i32> = (0..rows)
                    .map(|row| match row % 4 {
                        0 => build[row] ^ 1,
                        _ => build[(row * 7) % rows],
                    })
                    .collect();
                let index: std::collections::HashMap<i32, u32> =
                    build.iter().enumerate().map(|(row, key)| (*key, row as u32)).collect();
                let want: (Vec<u32>, Vec<u32>) = probe
                    .iter()
                    .enumerate()
                    .filter_map(|(row, key)| index.get(key).map(|b| (row as u32, *b)))
                    .unzip();
                let table =
                    build_sized_for(&ctx, &ctx.upload_i32(&build, "build").unwrap(), 1, false);
                let at = format!("{rows} rows on {name}: {table:?}");
                assert_eq!(table.build_attempts() > 1, rows > 16, "{at}");
                let probe = ctx.upload_i32(&probe, "probe").unwrap();
                let result = crate::ops::join::hash_join(&ctx, &probe, &table).unwrap();
                let got =
                    (result.probe_oids.read(&ctx).unwrap(), result.build_oids.read(&ctx).unwrap());
                assert_eq!(got, want, "{at}");
            }
        }
    }

    #[test]
    fn empty_input() {
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&[], "keys").unwrap();
        let table = OcelotHashTable::build_ranked(&ctx, &col, 2).unwrap();
        assert_eq!(table.num_distinct(), 0);
        assert!(table.row_gids().read(&ctx).unwrap().is_empty());
        let probe = ctx.upload_i32(&[1, 2], "probe").unwrap();
        let gids = table.probe_gids(&ctx, &probe).unwrap().read(&ctx).unwrap();
        assert_eq!(gids, vec![NOT_FOUND, NOT_FOUND]);
        let join_table = OcelotHashTable::build(&ctx, &col, 2).unwrap();
        let reps = join_table.probe_representatives(&ctx, &probe).unwrap().read(&ctx).unwrap();
        assert_eq!(reps, vec![NOT_FOUND, NOT_FOUND]);
    }

    #[test]
    fn probe_sequences_are_bounded_and_full_tables_terminate() {
        // The sequence is MAX_PROBE slots whatever the capacity: hashed
        // positions, then the window following the last of them. A
        // single-column key starts at its offset from the smallest key —
        // in wrapping arithmetic, so the extremes of `i32` are ordinary.
        for capacity in [16usize, 64, 1 << 20] {
            for origin in [None, Some(0), Some(i32::MIN as u32), Some(i32::MAX as u32 - 5)] {
                let probe = Probe::new(capacity, origin);
                let key = origin.unwrap_or(0).wrapping_add(5);
                let visited: Vec<usize> =
                    (0..MAX_PROBE).map(|a| probe.slot(key, 0xDEAD_BEEF, a)).collect();
                assert!(visited.iter().all(|slot| *slot < capacity));
                if let Some(origin) = origin {
                    assert_eq!(visited[0], 5);
                    // A table covering the key range probes that slot alone.
                    let covering = Probe::covering(capacity, origin);
                    assert_eq!((covering.len, covering.slot(key, 0xDEAD_BEEF, 0)), (1, 5));
                }
                let last_hashed = visited[HASH_SEEDS.len() - 1];
                for (offset, slot) in visited[HASH_SEEDS.len()..].iter().enumerate() {
                    assert_eq!(*slot, (last_hashed + offset + 1) & (capacity - 1));
                }
            }
        }
        // A full table answers absent keys and overflowing builds in bounded
        // time: 16 slots, 400 distinct sparse keys — lookups of absent keys
        // return NOT_FOUND and the build restarts instead of walking the
        // table.
        for ctx in contexts() {
            let keys: Vec<i32> = (0..400).map(|i| i * 30).collect();
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            let table = build_sized_for(&ctx, &col, 1, true);
            assert!(table.build_attempts() > 1);
            assert_eq!(table.num_distinct(), 400);
            let probe: Vec<i32> = (0..12_000).collect();
            let found = table
                .probe_representatives(&ctx, &ctx.upload_i32(&probe, "probe").unwrap())
                .unwrap()
                .read(&ctx)
                .unwrap();
            for (key, rep) in probe.iter().zip(found) {
                let expected = if key % 30 == 0 { (key / 30) as u32 } else { NOT_FOUND };
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
            let table = OcelotHashTable::build_ranked(&ctx, &col, 2).unwrap();
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
        // 200k distinct sparse keys (range 11·rows) into a table sized for
        // one: the restart is sized from the failed-row count, so the whole
        // build is a constant number of launches and flushes, whatever the
        // input size.
        let keys: Vec<i32> = (0..200_000).map(|i| i * 11 - 300_000).collect();
        for ctx in contexts() {
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            ctx.sync().unwrap();
            let before = ctx.queue().total_stats().kernels;
            let flushes = ctx.queue().flush_count();
            let table = build_sized_for(&ctx, &col, 1, true);
            ctx.sync().unwrap();
            assert_eq!(table.num_distinct(), keys.len());
            assert!(table.build_attempts() > 1 && table.build_attempts() <= 3, "{table:?}");
            assert!(table.capacity() <= table_capacity(keys.len()), "{table:?}");
            let launches = ctx.queue().total_stats().kernels - before;
            assert!(launches <= 3 * 16 + 1, "{launches} launches");
            assert!(ctx.queue().flush_count() - flushes <= 3 * 3 + 2);
        }
    }

    #[test]
    fn join_builds_launch_no_ranking_and_record_no_rows() {
        let keys: Vec<i32> = (0..50_000).map(|i| (i * 7) % 40_000).collect();
        for ctx in contexts() {
            let col = ctx.upload_i32(&keys, "keys").unwrap();
            ctx.sync().unwrap();
            let sink = std::sync::Arc::new(TraceSink::new());
            ctx.attach_tracer(&sink);
            let flushes = ctx.queue().flush_count();
            let table = OcelotHashTable::build(&ctx, &col, keys.len()).unwrap();
            ctx.sync().unwrap();
            ctx.detach_tracer();
            let launched: Vec<String> = sink
                .events()
                .into_iter()
                .filter_map(|event| match event.kind {
                    TraceEventKind::Kernel { kernel, .. } => Some(kernel),
                    _ => None,
                })
                .collect();
            // Range reduction, fill, optimistic insert, check. The build
            // itself flushes once, for the range: the table covers it, so
            // there is no failure count to wait for.
            assert_eq!(
                launched,
                ["hash_key_range", "hash_fill", "hash_optimistic_insert", "hash_check"],
                "{:?}",
                ctx.device().info().kind
            );
            assert_eq!(ctx.queue().flush_count() - flushes, 2, "range + the test's sync");
            assert!(table.ids.is_none());
            check_against_host(&ctx, &keys, &table);
        }
    }

    #[test]
    #[should_panic(expected = "a join build ranks no dense ids")]
    fn join_builds_refuse_dense_id_accessors() {
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&[1, 2, 3], "keys").unwrap();
        OcelotHashTable::build(&ctx, &col, 0).unwrap().num_distinct();
    }
}
