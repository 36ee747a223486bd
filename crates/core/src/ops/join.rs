//! Join operators (paper §4.1.5).
//!
//! Equi-joins on a dense key are positional (below); every other equi-join
//! is a hash join against an [`OcelotHashTable`] built over the
//! (unique-key) build side. Both produce compact results without
//! synchronisation by the two-step scheme: every work-item counts the
//! result tuples it will emit, a prefix sum turns the counts into unique
//! write offsets, and a write pass emits the tuples at those offsets. A hash
//! join is **two passes over the probe side, not three**: the probe kernel
//! counts its matches while it writes the aligned lookups, so only the write
//! pass follows the (tiny) scan of the per-item counts. The write pass is
//! predicated: an item writes every lookup at its cursor and advances the
//! cursor by whether the lookup is kept, so no lookup costs a branch on the
//! data. It stops once its counted range is full — its count guarantees
//! that no kept lookup is left — so no store leaves the range.
//!
//! Hash-join compaction is fully lazy: a probe row produces at most one
//! result tuple, so the outputs are allocated at the probe cardinality and
//! carry the scan total as a deferred length — no host round-trip.
//!
//! # Positional joins on a dense key
//!
//! A key column whose values are `base, base + 1, …` (`Bat::dense_base`,
//! decided from the data) needs no hash table: value `v` *is* row
//! `v − base` — MonetDB's dense head and its leftfetchjoin (paper §4.1.2).
//! [`dense_join`] joins a key column against such a table, restricted to a
//! list of its rows (`listed`; every row when `None`, the table as it
//! lies):
//!
//! * **PK-FK, and semi/anti with the dense key on the right** — a listed
//!   side becomes an inverse map over the table's rows (a zeroed
//!   allocation, then a tier-1 scatter `inverse[listed[p]] = p + 1`). A
//!   PK-FK join's listed rows are distinct — the lowering builds only on a
//!   unique key — and a semi/anti join reads only whether a row is listed.
//!   The probe is one range check plus, with a list, one load per key; it
//!   counts its kept lookups per work-item like `hash_lookup` does, and the
//!   compaction above follows. The pairs and their order are exactly what
//!   [`hash_join`] returns against the listed rows' keys.
//! * **Semi/anti with the dense key on the left** — the right keys flag
//!   the table rows they name (a flag word per table row, tier 1), then
//!   the listed rows read their flag and the compaction keeps their
//!   positions.
//!
//! No key is fetched, no table is filled and no key range is read back. A
//! dense join resolves its match count before it returns — **one sync per
//! join**. It is the sync the hash build's key range took, and it is what
//! keeps a plan's chain of joins from staying queued: queued kernels pin
//! every intermediate they read.

use crate::context::{ColLen, DevColumn, LenSource, OcelotContext, Oid};
use crate::ops::hash_table::{KeptCounts, OcelotHashTable, NOT_FOUND};
use crate::primitives::prefix_sum::exclusive_scan_u32;
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result, WorkGroupCtx,
};
use ocelot_storage::DenseKey;
use std::sync::Arc;

/// A compacted join result: aligned probe-side and build-side OID columns
/// (lengths may be deferred — resolve with [`JoinResult::len`] or read the
/// columns).
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// OIDs into the probe (left) input, one per result tuple.
    pub probe_oids: DevColumn<Oid>,
    /// OIDs into the build (right) input, aligned with `probe_oids`.
    pub build_oids: DevColumn<Oid>,
}

impl JoinResult {
    /// Number of result tuples (**sync point** when deferred).
    pub fn len(&self, ctx: &OcelotContext) -> Result<usize> {
        self.probe_oids.len(ctx)
    }

    /// Whether the join produced no tuples (**sync point** when deferred).
    pub fn is_empty(&self, ctx: &OcelotContext) -> Result<bool> {
        Ok(self.len(ctx)? == 0)
    }
}

// ---- compaction of aligned lookups (shared by hash join / semi / anti) ----

/// The write pass: every work-item rewalks its chunk of the lookups and
/// emits the kept rows into the output range the scan assigned it
/// (`offsets[i] .. offsets[i] + counts[i]`, disjoint between items),
/// predicated: each lookup is written at the item's cursor, which advances
/// by whether the lookup is kept, until the range is full.
struct WriteMatchesKernel {
    lookups: Buffer,
    kept: KeptCounts,
    offsets: Buffer,
    probe_out: Buffer,
    build_out: Option<Buffer>,
    n: LenSource,
}

impl Kernel for WriteMatchesKernel {
    fn name(&self) -> &str {
        "join_write_matches"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        // A deferred probe count resolves here, at flush time — to the value
        // the counting kernel partitioned by.
        let n = self.n.get();
        let counts = self.kept.counts.as_words();
        let offsets = self.offsets.as_words();
        for item in group.items() {
            let (start, end) = item.chunk_bounds(n);
            let first = offsets[item.global_id] as usize;
            let last = first + counts[item.global_id] as usize;
            // SAFETY: the exclusive scan of the per-item counts hands every
            // item its own `first..last` of both outputs in this launch.
            let (probe_out, mut build_out) = unsafe {
                (
                    self.probe_out.chunk_mut(first, last),
                    self.build_out.as_ref().map(|b| b.chunk_mut(first, last)),
                )
            };
            // Once the range is full no kept lookup is left (the count).
            let mut cursor = 0;
            for (idx, &lookup) in (start..end).zip(self.lookups.chunk(start, end)) {
                if cursor == probe_out.len() {
                    break;
                }
                probe_out[cursor] = idx as u32;
                if let Some(build_out) = build_out.as_deref_mut() {
                    build_out[cursor] = lookup;
                }
                cursor += usize::from(self.kept.keeps(lookup));
            }
        }
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = vec![
            BufferAccess::slice_read(&self.lookups, 0..launch.n),
            BufferAccess::slice_read(&self.kept.counts, 0..launch.total_items()),
            BufferAccess::slice_read(&self.offsets, 0..launch.total_items()),
            BufferAccess::slice_write(&self.probe_out, 0..launch.n),
        ];
        if let Some(build_out) = &self.build_out {
            accesses.push(BufferAccess::slice_write(build_out, 0..launch.n));
        }
        Some(KernelAccesses::of(accesses))
    }
}

/// Compacts an aligned lookup column (`NOT_FOUND` = miss) into the probe
/// OIDs `kept` counted, optionally emitting the matching build OIDs as
/// well. Lazy: a probe row emits at most one tuple, so outputs are
/// capacity-allocated and the scan total becomes their deferred length.
fn compact_lookups(
    ctx: &OcelotContext,
    lookups: &DevColumn<Oid>,
    kept: KeptCounts,
    emit_build: bool,
) -> Result<(DevColumn<Oid>, Option<DevColumn<Oid>>)> {
    let cap = lookups.cap();
    if cap == 0 {
        let empty = ctx.alloc(1, "join_empty")?;
        let build =
            if emit_build { Some(DevColumn::new(ctx.alloc(1, "join_empty_b")?, 0)?) } else { None };
        return Ok((DevColumn::new(empty, 0)?, build));
    }
    // The launch the lookups were counted under (`KeptCounts`).
    let launch = ctx.launch(cap);
    let counts_col = DevColumn::<u32>::new(kept.counts.clone(), launch.total_items())?;
    let (offsets, total) = exclusive_scan_u32(ctx, &counts_col)?;

    // The write kernel fills exactly the logical prefix (the scan total),
    // which is all any consumer may read — no zeroing needed.
    let probe_out = ctx.alloc_uninit(cap, "join_probe_oids")?;
    let build_out = if emit_build { Some(ctx.alloc_uninit(cap, "join_build_oids")?) } else { None };
    let mut write_wait = ctx.memory().wait_for_read(&offsets.buffer);
    write_wait.extend(ctx.wait_for(lookups));
    let event = ctx.queue().enqueue_kernel(
        Arc::new(WriteMatchesKernel {
            lookups: lookups.buffer.clone(),
            kept,
            offsets: offsets.buffer.clone(),
            probe_out: probe_out.clone(),
            build_out: build_out.clone(),
            n: lookups.len_source(),
        }),
        launch,
        &write_wait,
    )?;
    ctx.memory().record_producer(&probe_out, event);
    if let Some(build_out) = &build_out {
        ctx.memory().record_producer(build_out, event);
    }
    let probe_col = DevColumn::deferred(probe_out, total.buffer().clone(), cap)?;
    let build_col = match build_out {
        Some(buffer) => Some(DevColumn::deferred(buffer, total.buffer().clone(), cap)?),
        None => None,
    };
    Ok((probe_col, build_col))
}

/// Hash equi-join of a probe column against a table built over a unique key
/// column. Probe rows without a partner are dropped.
pub fn hash_join(
    ctx: &OcelotContext,
    probe: &DevColumn<i32>,
    table: &OcelotHashTable,
) -> Result<JoinResult> {
    let (lookups, kept) = table.probe_counted(ctx, probe, true)?;
    let (probe_oids, build_oids) = compact_lookups(ctx, &lookups, kept, true)?;
    Ok(JoinResult { probe_oids, build_oids: build_oids.expect("build side requested") })
}

// ---- semi / anti join: membership of left keys in right ----

/// Flags the dense group ids (of a table over the *left* keys) that some
/// right row carries.
struct MarkMatchedKernel {
    right_gids: Buffer,
    matched: Buffer,
    n: LenSource,
}

impl Kernel for MarkMatchedKernel {
    fn name(&self) -> &str {
        "join_mark_matched"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let n = self.n.get();
        let right_gids = self.right_gids.as_words();
        for run in group.runs(n) {
            for &gid in right_gids[run].iter().filter(|gid| **gid != NOT_FOUND) {
                // Colliding stores all write the same value: tier 1.
                self.matched.set_u32(gid as usize, 1);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 4, (launch.n as u64) * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.right_gids, 0..launch.n),
            BufferAccess::cells_write(&self.matched, 0..self.matched.len()),
        ]))
    }
}

/// Turns the matched-group flags into an aligned lookup column over the
/// left rows (`NOT_FOUND` = no right row carries the key), counting the
/// kept rows per work-item chunk like the probe kernel does. A left row's
/// flag is the one its id in `left_gids` names — its own index when there
/// are none.
struct MatchedLookupKernel {
    left_gids: Option<Buffer>,
    matched: Buffer,
    lookups: Buffer,
    kept: KeptCounts,
    n: LenSource,
}

impl Kernel for MatchedLookupKernel {
    fn name(&self) -> &str {
        "join_matched_lookup"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let n = self.n.get();
        let left_gids = self.left_gids.as_ref().map(Buffer::as_words);
        let matched = self.matched.as_words();
        for item in group.items() {
            let (start, end) = item.chunk_bounds(n);
            // SAFETY: `chunk_bounds` partitions the rows among the items;
            // this item alone touches `start..end` in this launch.
            let lookups = unsafe { self.lookups.chunk_mut(start, end) };
            let mut found = 0u32;
            for (row, lookup) in (start..end).zip(lookups.iter_mut()) {
                let gid = left_gids.map_or(row as u32, |gids| gids[row]);
                let hit = matched.get(gid as usize).is_some_and(|flag| *flag != 0);
                *lookup = if hit { gid } else { NOT_FOUND };
                found += u32::from(hit);
            }
            self.kept.record(item.global_id, end - start, found);
        }
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = vec![
            BufferAccess::slice_read(&self.matched, 0..self.matched.len()),
            BufferAccess::slice_write(&self.lookups, 0..launch.n),
            BufferAccess::cells_write(&self.kept.counts, 0..launch.total_items()),
        ];
        if let Some(left_gids) = &self.left_gids {
            accesses.push(BufferAccess::slice_read(left_gids, 0..launch.n));
        }
        Some(KernelAccesses::of(accesses))
    }
}

/// For every left row, whether its key occurs in `right`: an aligned lookup
/// column (`NOT_FOUND` = absent) with the rows `keep_found` keeps counted.
/// The hash table goes over the smaller input by host-known capacity — over
/// `right` it is a join build the left rows probe; over `left` it is a
/// grouping build, the right rows flag the groups they hit and the left
/// rows read their group's flag. Either way the other input's capacity is
/// the probe count the table is sized with.
fn membership_lookups(
    ctx: &OcelotContext,
    left: &DevColumn<i32>,
    right: &DevColumn<i32>,
    keep_found: bool,
) -> Result<(DevColumn<Oid>, KeptCounts)> {
    if left.cap() >= right.cap() {
        let table = OcelotHashTable::build(ctx, right, left.cap())?;
        return table.probe_counted(ctx, left, keep_found);
    }
    let table = OcelotHashTable::build_ranked(ctx, left, right.cap())?;
    let left_gids = table.row_gids();
    let rows = left_gids.cap();
    let kept = KeptCounts::alloc(ctx, rows, keep_found)?;
    let lookups = ctx.alloc_uninit(rows.max(1), "join_membership")?;
    if rows == 0 {
        return Ok((DevColumn::new(lookups, 0)?, kept));
    }
    let right_gids = table.probe_gids(ctx, right)?;
    let matched = ctx.alloc(table.num_distinct(), "join_matched_groups")?;
    let marked = ctx.queue().enqueue_kernel(
        Arc::new(MarkMatchedKernel {
            right_gids: right_gids.buffer.clone(),
            matched: matched.clone(),
            n: right_gids.len_source(),
        }),
        ctx.launch(right_gids.cap()),
        &ctx.wait_for(&right_gids),
    )?;
    let mut wait = ctx.wait_for(&left_gids);
    wait.push(marked);
    let event = ctx.queue().enqueue_kernel(
        Arc::new(MatchedLookupKernel {
            left_gids: Some(left_gids.buffer.clone()),
            matched,
            lookups: lookups.clone(),
            kept: kept.clone(),
            n: left_gids.len_source(),
        }),
        ctx.launch(rows),
        &wait,
    )?;
    ctx.memory().record_producer(&lookups, event);
    ctx.memory().record_producer(&kept.counts, event);
    Ok((DevColumn::new(lookups, rows)?, kept))
}

/// Semi join (`EXISTS`): OIDs of the left rows whose key occurs in `right`,
/// ascending.
pub fn semi_join(
    ctx: &OcelotContext,
    left: &DevColumn<i32>,
    right: &DevColumn<i32>,
) -> Result<DevColumn<Oid>> {
    let (lookups, kept) = membership_lookups(ctx, left, right, true)?;
    Ok(compact_lookups(ctx, &lookups, kept, false)?.0)
}

/// Anti join (`NOT EXISTS`): OIDs of the left rows whose key does not occur
/// in `right`, ascending.
pub fn anti_join(
    ctx: &OcelotContext,
    left: &DevColumn<i32>,
    right: &DevColumn<i32>,
) -> Result<DevColumn<Oid>> {
    let (lookups, kept) = membership_lookups(ctx, left, right, false)?;
    Ok(compact_lookups(ctx, &lookups, kept, false)?.0)
}

// ---- positional joins on a dense key ----

/// Which rows a positional join on a dense key keeps (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenseJoinKind {
    /// PK-FK join: every key row that names a listed row, paired with that
    /// row's list position.
    Inner,
    /// Semi join whose right side is the dense one: the key rows that name
    /// a listed row.
    Semi,
    /// Anti join whose right side is the dense one: the key rows that name
    /// no listed row.
    Anti,
    /// Semi join whose left side is the dense one: the list positions whose
    /// row some key names.
    ListedSemi,
    /// Anti join whose left side is the dense one: the list positions whose
    /// row no key names.
    ListedAnti,
}

impl DenseJoinKind {
    /// Short name (for plan listings).
    pub fn name(self) -> &'static str {
        match self {
            DenseJoinKind::Inner => "inner",
            DenseJoinKind::Semi => "semi",
            DenseJoinKind::Anti => "anti",
            DenseJoinKind::ListedSemi => "listed_semi",
            DenseJoinKind::ListedAnti => "listed_anti",
        }
    }

    /// Whether the join keeps the rows that find a partner (semi, inner) or
    /// those that do not (anti).
    fn keeps_found(self) -> bool {
        !matches!(self, DenseJoinKind::Anti | DenseJoinKind::ListedAnti)
    }
}

/// Scatters the list into the inverse map of the table's rows:
/// `inverse[listed[p]] = p + 1`, over a zeroed map (0 = not listed). The
/// rows are arbitrary, so the cells are tier 1. A PK-FK join's listed rows
/// are distinct; a semi/anti join's may repeat, and then any one of their
/// positions marks the row listed.
struct DenseInverseKernel {
    listed: Buffer,
    inverse: Buffer,
    rows: usize,
    n: LenSource,
}

impl Kernel for DenseInverseKernel {
    fn name(&self) -> &str {
        "dense_inverse"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let n = self.n.get();
        let listed = self.listed.as_words();
        for run in group.runs(n) {
            for (position, &row) in run.clone().zip(&listed[run]) {
                if (row as usize) < self.rows {
                    self.inverse.set_u32(row as usize, position as u32 + 1);
                }
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 4, (launch.n as u64) * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.listed, 0..launch.n),
            BufferAccess::cells_write(&self.inverse, 0..self.rows),
        ]))
    }
}

/// The positional probe: every key's list position — `inverse[key − base]
/// − 1`, or the row `key − base` itself when every row is listed;
/// `NOT_FOUND` outside the key range or off the list. One range check and
/// at most one load per key, counted per item as `hash_lookup` counts.
struct DenseLookupKernel {
    keys: Buffer,
    inverse: Option<Buffer>,
    key: DenseKey,
    output: Buffer,
    kept: KeptCounts,
    n: LenSource,
}

impl Kernel for DenseLookupKernel {
    fn name(&self) -> &str {
        "dense_lookup"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let n = self.n.get();
        let keys = self.keys.as_words();
        let inverse = self.inverse.as_ref().map(Buffer::as_words);
        for item in group.items() {
            let (start, end) = item.chunk_bounds(n);
            // SAFETY: `chunk_bounds` partitions `0..n` among the items; this
            // item alone touches `start..end` of the output in this launch.
            let output = unsafe { self.output.chunk_mut(start, end) };
            let mut found = 0u32;
            for (out, &key) in output.iter_mut().zip(&keys[start..end]) {
                *out = match (self.key.row(key as i32), inverse) {
                    (Some(row), Some(inverse)) => inverse[row].wrapping_sub(1),
                    (Some(row), None) => row as u32,
                    (None, _) => NOT_FOUND,
                };
                found += u32::from(*out != NOT_FOUND);
            }
            self.kept.record(item.global_id, end - start, found);
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let loads = if self.inverse.is_some() { 8 } else { 4 };
        KernelCost::new((launch.n as u64) * loads, (launch.n as u64) * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = vec![
            BufferAccess::slice_read(&self.keys, 0..launch.n),
            BufferAccess::slice_write(&self.output, 0..launch.n),
            BufferAccess::cells_write(&self.kept.counts, 0..launch.total_items()),
        ];
        if let Some(inverse) = &self.inverse {
            accesses.push(BufferAccess::slice_read(inverse, 0..self.key.rows));
        }
        Some(KernelAccesses::of(accesses))
    }
}

/// Flags the table rows some key names: `flags[key − base] = 1`. Colliding
/// stores all write the same value: tier 1.
struct DenseMarkKernel {
    keys: Buffer,
    flags: Buffer,
    key: DenseKey,
    n: LenSource,
}

impl Kernel for DenseMarkKernel {
    fn name(&self) -> &str {
        "dense_mark"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        let n = self.n.get();
        let keys = self.keys.as_words();
        for run in group.runs(n) {
            for row in keys[run].iter().filter_map(|key| self.key.row(*key as i32)) {
                self.flags.set_u32(row, 1);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 4, (launch.n as u64) * 4, launch.n as u64, 0)
    }
    fn declared_accesses(&self, launch: &LaunchConfig) -> Option<KernelAccesses> {
        Some(KernelAccesses::of(vec![
            BufferAccess::slice_read(&self.keys, 0..launch.n),
            BufferAccess::cells_write(&self.flags, 0..self.key.rows),
        ]))
    }
}

/// The probe of `keys` against the listed rows (every row when `None`):
/// aligned list positions, `NOT_FOUND` for keys that name no listed row.
fn dense_lookups(
    ctx: &OcelotContext,
    keys: &DevColumn<i32>,
    listed: Option<&DevColumn<Oid>>,
    key: DenseKey,
    keep_found: bool,
) -> Result<(DevColumn<Oid>, KeptCounts)> {
    let kept = KeptCounts::alloc(ctx, keys.cap(), keep_found)?;
    let output = ctx.alloc_uninit(keys.cap().max(1), "dense_lookups")?;
    if keys.cap() == 0 {
        return Ok((DevColumn::new(output, 0)?, kept));
    }
    let mut wait = ctx.wait_for(keys);
    let inverse = match listed {
        Some(listed) => {
            let inverse = ctx.alloc(key.rows.max(1), "dense_inverse")?;
            if listed.cap() > 0 {
                wait.push(ctx.queue().enqueue_kernel(
                    Arc::new(DenseInverseKernel {
                        listed: listed.buffer.clone(),
                        inverse: inverse.clone(),
                        rows: key.rows,
                        n: listed.len_source(),
                    }),
                    ctx.launch(listed.cap()),
                    &ctx.wait_for(listed),
                )?);
            }
            Some(inverse)
        }
        None => None,
    };
    let event = ctx.queue().enqueue_kernel(
        Arc::new(DenseLookupKernel {
            keys: keys.buffer.clone(),
            inverse,
            key,
            output: output.clone(),
            kept: kept.clone(),
            n: keys.len_source(),
        }),
        ctx.launch(keys.cap()),
        &wait,
    )?;
    ctx.memory().record_producer(&output, event);
    ctx.memory().record_producer(&kept.counts, event);
    Ok((DevColumn::with_len(output, keys.col_len().clone())?, kept))
}

/// The flags of the table rows `keys` name, read by the listed rows (every
/// row when `None`): an aligned lookup column over the list positions,
/// `NOT_FOUND` where no key names the row.
fn listed_lookups(
    ctx: &OcelotContext,
    keys: &DevColumn<i32>,
    listed: Option<&DevColumn<Oid>>,
    key: DenseKey,
    keep_found: bool,
) -> Result<(DevColumn<Oid>, KeptCounts)> {
    let len = listed.map_or(ColLen::Host(key.rows), |listed| listed.col_len().clone());
    let kept = KeptCounts::alloc(ctx, len.cap(), keep_found)?;
    let lookups = ctx.alloc_uninit(len.cap().max(1), "dense_listed_lookups")?;
    if len.cap() == 0 {
        return Ok((DevColumn::new(lookups, 0)?, kept));
    }
    let flags = ctx.alloc(key.rows.max(1), "dense_flags")?;
    let mut wait = listed.map_or_else(Vec::new, |listed| ctx.wait_for(listed));
    if keys.cap() > 0 {
        wait.push(ctx.queue().enqueue_kernel(
            Arc::new(DenseMarkKernel {
                keys: keys.buffer.clone(),
                flags: flags.clone(),
                key,
                n: keys.len_source(),
            }),
            ctx.launch(keys.cap()),
            &ctx.wait_for(keys),
        )?);
    }
    let event = ctx.queue().enqueue_kernel(
        Arc::new(MatchedLookupKernel {
            left_gids: listed.map(|listed| listed.buffer.clone()),
            matched: flags,
            lookups: lookups.clone(),
            kept: kept.clone(),
            n: len.source(),
        }),
        ctx.launch(len.cap()),
        &wait,
    )?;
    ctx.memory().record_producer(&lookups, event);
    ctx.memory().record_producer(&kept.counts, event);
    Ok((DevColumn::with_len(lookups, len)?, kept))
}

/// Positional join of `keys` against a table whose key column is dense
/// (`key`), restricted to its `listed` rows — every row when `None` (module
/// docs). Returns the rows `kind` keeps — of `keys` for
/// [`DenseJoinKind::Inner`], `Semi` and `Anti`, list positions for
/// `ListedSemi` and `ListedAnti`, ascending — and, for `Inner`, the aligned
/// list positions of their partners: the pairs, in the order, that
/// [`hash_join`] returns against the listed rows' keys.
///
/// **Deliberate sync point:** the match count is resolved before the
/// columns are returned (one flush), so they leave with host-known lengths.
pub fn dense_join(
    ctx: &OcelotContext,
    keys: &DevColumn<i32>,
    listed: Option<&DevColumn<Oid>>,
    key: DenseKey,
    kind: DenseJoinKind,
) -> Result<(DevColumn<Oid>, Option<DevColumn<Oid>>)> {
    let keep_found = kind.keeps_found();
    let (lookups, kept) = match kind {
        DenseJoinKind::Inner | DenseJoinKind::Semi | DenseJoinKind::Anti => {
            dense_lookups(ctx, keys, listed, key, keep_found)?
        }
        DenseJoinKind::ListedSemi | DenseJoinKind::ListedAnti => {
            listed_lookups(ctx, keys, listed, key, keep_found)?
        }
    };
    let (rows, positions) = compact_lookups(ctx, &lookups, kept, kind == DenseJoinKind::Inner)?;
    let matches = rows.len(ctx)?;
    let resolved = |column: DevColumn<Oid>| DevColumn::new(column.buffer, matches);
    Ok((resolved(rows)?, positions.map(resolved).transpose()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;
    use ocelot_monet::sequential as monet;
    use ocelot_monet::MonetHashTable;

    fn contexts() -> Vec<OcelotContext> {
        vec![OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()]
    }

    #[test]
    fn pkfk_hash_join_matches_monet_on_all_devices() {
        let pk: Vec<i32> = (0..200).collect();
        let fk: Vec<i32> = (0..5_000).map(|i| (i * 17 + 3) % 200).collect();
        let reference_table = MonetHashTable::build(&pk);
        let (expected_fk, expected_pk) = monet::pkfk_join_i32(&fk, &reference_table);
        for ctx in contexts() {
            let build = ctx.upload_i32(&pk, "pk").unwrap();
            let probe = ctx.upload_i32(&fk, "fk").unwrap();
            let table = OcelotHashTable::build(&ctx, &build, fk.len()).unwrap();
            let result = hash_join(&ctx, &probe, &table).unwrap();
            assert_eq!(result.probe_oids.read(&ctx).unwrap(), expected_fk);
            assert_eq!(result.build_oids.read(&ctx).unwrap(), expected_pk);
            assert_eq!(result.len(&ctx).unwrap(), fk.len());
        }
    }

    #[test]
    fn hash_join_compaction_is_sync_free() {
        let ctx = OcelotContext::cpu();
        let pk: Vec<i32> = (0..100).collect();
        let fk: Vec<i32> = (0..10_000).map(|i| (i * 13 + 1) % 150).collect();
        let build = ctx.upload_i32(&pk, "pk").unwrap();
        let probe = ctx.upload_i32(&fk, "fk").unwrap();
        let table = OcelotHashTable::build(&ctx, &build, fk.len()).unwrap();
        ctx.sync().unwrap();
        let flushes = ctx.queue().flush_count();
        let result = hash_join(&ctx, &probe, &table).unwrap();
        assert_eq!(ctx.queue().flush_count(), flushes, "hash join must not flush");
        assert!(result.probe_oids.is_deferred());
        let expected = fk.iter().filter(|v| **v < 100).count();
        assert_eq!(result.len(&ctx).unwrap(), expected);
        assert_eq!(ctx.queue().flush_count(), flushes + 1);
    }

    #[test]
    fn probe_rows_without_partner_are_dropped() {
        let ctx = OcelotContext::cpu();
        let build = ctx.upload_i32(&[10, 20, 30], "pk").unwrap();
        let probe = ctx.upload_i32(&[20, 99, 30, 55, 10], "fk").unwrap();
        let table = OcelotHashTable::build(&ctx, &build, 5).unwrap();
        let result = hash_join(&ctx, &probe, &table).unwrap();
        assert_eq!(result.probe_oids.read(&ctx).unwrap(), vec![0, 2, 4]);
        assert_eq!(result.build_oids.read(&ctx).unwrap(), vec![1, 2, 0]);
    }

    #[test]
    fn aligned_lookup_fast_path() {
        let ctx = OcelotContext::cpu();
        let build = ctx.upload_i32(&[5, 6, 7], "pk").unwrap();
        let probe = ctx.upload_i32(&[7, 5, 7, 6], "fk").unwrap();
        let table = OcelotHashTable::build(&ctx, &build, 4).unwrap();
        let aligned = table.probe_representatives(&ctx, &probe).unwrap();
        assert_eq!(aligned.read(&ctx).unwrap(), vec![2, 0, 2, 1]);
    }

    #[test]
    fn semi_and_anti_join_match_monet() {
        let left: Vec<i32> = (0..3_000).map(|i| (i * 31 + 1) % 400).collect();
        let right: Vec<i32> = (0..120).map(|i| i * 3).collect();
        // Both orientations: the table goes over the smaller input, the
        // result is the same left OIDs in the same order either way.
        for (left, right) in [(&left, &right), (&right, &left)] {
            let expected_semi = monet::semi_join_i32(left, right);
            let expected_anti = monet::anti_join_i32(left, right);
            for ctx in contexts() {
                let l = ctx.upload_i32(left, "l").unwrap();
                let r = ctx.upload_i32(right, "r").unwrap();
                assert_eq!(semi_join(&ctx, &l, &r).unwrap().read(&ctx).unwrap(), expected_semi);
                assert_eq!(anti_join(&ctx, &l, &r).unwrap().read(&ctx).unwrap(), expected_anti);
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let ctx = OcelotContext::cpu();
        let empty = ctx.upload_i32(&[], "e").unwrap();
        let table = OcelotHashTable::build(&ctx, &empty, 2).unwrap();
        let probe = ctx.upload_i32(&[1, 2], "p").unwrap();
        let result = hash_join(&ctx, &probe, &table).unwrap();
        assert!(result.is_empty(&ctx).unwrap());
        assert_eq!(anti_join(&ctx, &probe, &empty).unwrap().read(&ctx).unwrap(), vec![0, 1]);
        assert!(semi_join(&ctx, &probe, &empty).unwrap().read(&ctx).unwrap().is_empty());
        assert!(semi_join(&ctx, &empty, &probe).unwrap().read(&ctx).unwrap().is_empty());
        assert!(anti_join(&ctx, &empty, &probe).unwrap().read(&ctx).unwrap().is_empty());
    }
}
