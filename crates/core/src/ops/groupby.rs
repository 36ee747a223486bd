//! The group-by operator (paper §4.1.6).
//!
//! Produces a column assigning a *dense group id* to every tuple. Two
//! implementations are provided, chosen by the caller based on the BAT's
//! `sorted` descriptor flag:
//!
//! * **Sorted path** — every thread compares its values with their
//!   successors to find group boundaries; a prefix sum over the boundary
//!   flags yields dense ids.
//! * **Hash path** — one parallel hash table over the keys. The build's
//!   check round records every row's slot, so the dense ids and the
//!   representatives fall out of the build as gathers (a flag pass and a
//!   prefix sum over the rows); the input is never probed again.
//!
//! Group ids follow first appearance — group `g`'s representative is its
//! smallest row id and representatives ascend with `g` — on both paths, on
//! every device, run to run.
//!
//! **Stated deviation from §4.1.6.** The paper groups `k` columns
//! recursively: group the next column on its own, combine the two dense-id
//! columns into one id and group the combined ids again — `2k − 1` hash
//! builds, and a combined id space (the *product* of the per-column group
//! counts) that has to fit the key type. Here the hash table's slots hold a
//! representative row id and equality compares all key columns at that
//! row, so any number of columns is **one** build over the composite key:
//! no id product to overflow, no reserved key value, and the same
//! partition of the rows.
//!
//! **Deliberate sync point:** `num_groups` shapes the result schema (it
//! sizes every grouped aggregate), so grouping resolves it on the host —
//! via the hash build's internal flushes or the sorted path's scan-total
//! `.get()`. Everything downstream of the grouping stays lazy.

use crate::context::{DevColumn, DevWord, OcelotContext, Oid};
use crate::ops::hash_table::OcelotHashTable;
use crate::primitives::prefix_sum::exclusive_scan_u32;
use ocelot_kernel::{Buffer, Kernel, KernelCost, LaunchConfig, Result, WorkGroupCtx};
use std::sync::Arc;

/// Result of a grouping operation.
#[derive(Debug, Clone)]
pub struct GroupBy {
    /// Dense group id per input row.
    pub gids: DevColumn<Oid>,
    /// Number of distinct groups.
    pub num_groups: usize,
    /// Representative row per group (the smallest row id of the group),
    /// used to project the grouping key values into the result set.
    pub representatives: DevColumn<Oid>,
}

/// Group-by over an unsorted key column using the parallel hash table.
pub fn group_by_hash<T: DevWord>(ctx: &OcelotContext, keys: &DevColumn<T>) -> Result<GroupBy> {
    group_by_columns(ctx, &[keys])
}

// ---- sorted fast path ----

struct BoundaryKernel {
    keys: Buffer,
    flags: Buffer,
}

impl Kernel for BoundaryKernel {
    fn name(&self) -> &str {
        "group_boundaries"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        for item in group.items() {
            for idx in item.assigned() {
                let flag = if idx == 0 {
                    0
                } else {
                    u32::from(self.keys.get_u32(idx) != self.keys.get_u32(idx - 1))
                };
                self.flags.set_u32(idx, flag);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        KernelCost::new((launch.n as u64) * 8, (launch.n as u64) * 4, launch.n as u64, 0)
    }
}

struct RepresentativeFromBoundariesKernel {
    gids: Buffer,
    flags: Buffer,
    representatives: Buffer,
    n: usize,
}

impl Kernel for RepresentativeFromBoundariesKernel {
    fn name(&self) -> &str {
        "group_sorted_representatives"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        for item in group.items() {
            for idx in item.assigned() {
                if idx >= self.n {
                    continue;
                }
                if idx == 0 || self.flags.get_u32(idx) == 1 {
                    let gid = self.gids.get_u32(idx) as usize;
                    self.representatives.set_u32(gid, idx as u32);
                }
            }
        }
    }
}

/// Group-by over a key column that is known to be sorted: boundary flags +
/// prefix sum (no hash table, no atomics). Resolves the group count on the
/// host (see module docs); a deferred input length resolves with it.
pub fn group_by_sorted<T: DevWord>(ctx: &OcelotContext, keys: &DevColumn<T>) -> Result<GroupBy> {
    let n = keys.len(ctx)?;
    if n == 0 {
        let empty = ctx.alloc(1, "group_empty")?;
        return Ok(GroupBy {
            gids: DevColumn::new(empty.clone(), 0)?,
            num_groups: 0,
            representatives: DevColumn::new(empty, 0)?,
        });
    }
    let flags = ctx.alloc(n, "group_flags")?;
    let wait = ctx.wait_for(keys);
    let boundary_event = ctx.queue().enqueue_kernel(
        Arc::new(BoundaryKernel { keys: keys.buffer.clone(), flags: flags.clone() }),
        ctx.launch(n),
        &wait,
    )?;
    ctx.memory().record_producer(&flags, boundary_event);
    let flags_col = DevColumn::<u32>::new(flags.clone(), n)?;
    // Inclusive group id of row i = exclusive_scan(flags)[i] + flags[i]; but
    // because flags[0] is 0 and boundaries carry a 1 exactly where a new
    // group starts, the *inclusive* scan is the group id. We get it from the
    // exclusive scan shifted by the flag itself.
    let (exclusive, total) = exclusive_scan_u32(ctx, &flags_col)?;
    let gids = ctx.alloc(n, "group_gids")?;
    let fixup_event = ctx.queue().enqueue_kernel(
        Arc::new(InclusiveFixupKernel {
            exclusive: exclusive.buffer.clone(),
            flags: flags.clone(),
            gids: gids.clone(),
        }),
        ctx.launch(n),
        &ctx.memory().wait_for_read(&exclusive.buffer),
    )?;
    ctx.memory().record_producer(&gids, fixup_event);
    // Schema-shaping resolve: the group count sizes the representatives.
    let num_groups = (total.get(ctx)? as usize) + 1;
    let representatives = ctx.alloc(num_groups, "group_reps")?;
    let rep_event = ctx.queue().enqueue_kernel(
        Arc::new(RepresentativeFromBoundariesKernel {
            gids: gids.clone(),
            flags,
            representatives: representatives.clone(),
            n,
        }),
        ctx.launch(n),
        &ctx.memory().wait_for_read(&gids),
    )?;
    ctx.memory().record_producer(&representatives, rep_event);
    Ok(GroupBy {
        gids: DevColumn::new(gids, n)?,
        num_groups,
        representatives: DevColumn::new(representatives, num_groups)?,
    })
}

struct InclusiveFixupKernel {
    exclusive: Buffer,
    flags: Buffer,
    gids: Buffer,
}

impl Kernel for InclusiveFixupKernel {
    fn name(&self) -> &str {
        "group_inclusive_fixup"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        for item in group.items() {
            for idx in item.assigned() {
                let gid = self.exclusive.get_u32(idx) + self.flags.get_u32(idx);
                self.gids.set_u32(idx, gid);
            }
        }
    }
}

// ---- multi-column grouping ----

/// Groups by several key columns at once: one hash build over the composite
/// key (see the module docs for why this is not the paper's recursion).
///
/// # Panics
/// Panics if `columns` is empty or the columns' logical lengths differ.
pub fn group_by_columns<T: DevWord>(
    ctx: &OcelotContext,
    columns: &[&DevColumn<T>],
) -> Result<GroupBy> {
    let table = OcelotHashTable::build_composite(ctx, columns)?;
    Ok(GroupBy {
        gids: table.row_gids(),
        num_groups: table.num_distinct(),
        representatives: table.representatives(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OcelotContext;
    use ocelot_monet::sequential as monet;

    /// Ids follow first appearance on both paths, so the result equals
    /// MonetDB's sequential grouping id for id — not just as a partition.
    fn check_equals_monet(values: &[i32], result: &GroupBy, ctx: &OcelotContext) {
        let reference = monet::group_by_i32(values);
        assert_eq!(result.num_groups, reference.num_groups);
        assert_eq!(result.gids.read(ctx).unwrap(), reference.gids);
        assert_eq!(result.representatives.read(ctx).unwrap(), reference.representatives);
    }

    #[test]
    fn hash_grouping_matches_monet_on_all_devices() {
        let values: Vec<i32> = (0..8_000).map(|i| (i * 131 + 7) % 100).collect();
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let col = ctx.upload_i32(&values, "keys").unwrap();
            let result = group_by_hash(&ctx, &col).unwrap();
            assert_eq!(result.num_groups, 100);
            check_equals_monet(&values, &result, &ctx);
        }
    }

    #[test]
    fn sorted_grouping_matches_hash_grouping() {
        let mut values: Vec<i32> = (0..5_000).map(|i| (i * 17 + 3) % 50).collect();
        values.sort_unstable();
        let ctx = OcelotContext::cpu();
        let col = ctx.upload_i32(&values, "keys").unwrap();
        let sorted = group_by_sorted(&ctx, &col).unwrap();
        assert_eq!(sorted.num_groups, 50);
        let gids = sorted.gids.read(&ctx).unwrap();
        // Sorted input: group ids must be non-decreasing and dense.
        assert!(gids.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
        assert_eq!(*gids.last().unwrap() as usize, sorted.num_groups - 1);
        check_equals_monet(&values, &sorted, &ctx);
        // Representatives point at the first row of each group.
        let reps = sorted.representatives.read(&ctx).unwrap();
        for (gid, rep) in reps.iter().enumerate() {
            assert_eq!(gids[*rep as usize] as usize, gid);
            assert!(*rep == 0 || gids[(*rep - 1) as usize] as usize == gid - 1);
        }
    }

    #[test]
    fn representatives_carry_group_keys() {
        let values: Vec<i32> = (0..3_000).map(|i| (i * 7) % 31).collect();
        let ctx = OcelotContext::gpu();
        let col = ctx.upload_i32(&values, "keys").unwrap();
        let result = group_by_hash(&ctx, &col).unwrap();
        let gids = result.gids.read(&ctx).unwrap();
        let reps = result.representatives.read(&ctx).unwrap();
        for (row, gid) in gids.iter().enumerate() {
            assert_eq!(values[reps[*gid as usize] as usize], values[row]);
        }
    }

    #[test]
    fn multi_column_grouping() {
        let a: Vec<i32> = (0..4_000).map(|i| i % 4).collect();
        let b: Vec<i32> = (0..4_000).map(|i| i % 6).collect();
        let ctx = OcelotContext::cpu();
        let ca = ctx.upload_i32(&a, "a").unwrap();
        let cb = ctx.upload_i32(&b, "b").unwrap();
        let result = group_by_columns(&ctx, &[&ca, &cb]).unwrap();
        // lcm(4, 6) = 12 distinct pairs.
        assert_eq!(result.num_groups, 12);
        let gids = result.gids.read(&ctx).unwrap();
        for i in (0..a.len()).step_by(17) {
            for j in (0..a.len()).step_by(23) {
                assert_eq!((a[i], b[i]) == (a[j], b[j]), gids[i] == gids[j]);
            }
        }
    }

    #[test]
    fn three_deferred_key_columns_group_correctly() {
        // Key columns carrying a deferred length and its (larger) capacity
        // bound — the shape of TPC-H Q3's three-key group-by over join
        // outputs. Alignment is on logical lengths, not capacities.
        use crate::ops::select;
        use crate::primitives::gather;
        let a: Vec<i32> = (0..5_000).map(|i| i % 3).collect();
        let b: Vec<i32> = (0..5_000).map(|i| i % 4).collect();
        let c: Vec<i32> = (0..5_000).map(|i| i % 5).collect();
        let sel: Vec<i32> = (0..5_000).map(|i| i % 10).collect();
        let ctx = OcelotContext::cpu();
        let keep = select::select_range_i32(&ctx, &ctx.upload_i32(&sel, "s").unwrap(), 0, 6)
            .and_then(|bitmap| select::materialize_bitmap(&ctx, &bitmap))
            .unwrap();
        assert!(keep.is_deferred(), "the key columns must inherit a deferred length");
        let ka = gather::gather(&ctx, &ctx.upload_i32(&a, "a").unwrap(), &keep).unwrap();
        let kb = gather::gather(&ctx, &ctx.upload_i32(&b, "b").unwrap(), &keep).unwrap();
        let kc = gather::gather(&ctx, &ctx.upload_i32(&c, "c").unwrap(), &keep).unwrap();
        let result = group_by_columns(&ctx, &[&ka, &kb, &kc]).unwrap();
        // (i%3, i%4, i%5) ↔ i%60 is a bijection (CRT) and i%10 is a
        // function of i%60, so keeping i%10 <= 6 keeps 42 of the 60
        // residue classes — 42 distinct triples.
        assert_eq!(result.num_groups, 42);
        let gids = result.gids.read(&ctx).unwrap();
        let rows: Vec<usize> = (0..5_000).filter(|i| sel[*i] <= 6).collect();
        assert_eq!(gids.len(), rows.len());
        for (x, i) in rows.iter().enumerate().step_by(31) {
            for (y, j) in rows.iter().enumerate().step_by(47) {
                assert_eq!((a[*i], b[*i], c[*i]) == (a[*j], b[*j], c[*j]), gids[x] == gids[y]);
            }
        }
    }

    #[test]
    fn per_column_distinct_counts_may_multiply_past_32_bits() {
        // 70 000 × 70 000 × 13 per-column distinct values: the recursive
        // scheme's combined id (a product of group counts) does not fit a
        // word; a composite key has no such product.
        let n = 140_000usize;
        let a: Vec<i32> = (0..n).map(|i| (i % 70_000) as i32).collect();
        let b: Vec<i32> = a.iter().map(|j| (j * 3 + 1) % 70_000).collect();
        let c: Vec<i32> = a.iter().map(|j| j % 13).collect();
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let columns = [&a, &b, &c].map(|values| ctx.upload_i32(values, "key").unwrap());
            let result = group_by_columns(&ctx, &[&columns[0], &columns[1], &columns[2]]).unwrap();
            assert_eq!(result.num_groups, 70_000);
            let gids = result.gids.read(&ctx).unwrap();
            assert!(gids.iter().enumerate().all(|(row, gid)| *gid as usize == row % 70_000));
        }
    }

    #[test]
    fn minus_one_is_an_ordinary_key_value() {
        let a = [-1, 5, -1, -1, 5, 0];
        let b = [-1, -1, 0, -1, -1, -1];
        for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
            let ca = ctx.upload_i32(&a, "a").unwrap();
            let cb = ctx.upload_i32(&b, "b").unwrap();
            let result = group_by_columns(&ctx, &[&ca, &cb]).unwrap();
            assert_eq!(result.num_groups, 4);
            assert_eq!(result.gids.read(&ctx).unwrap(), vec![0, 1, 2, 0, 1, 3]);
            assert_eq!(result.representatives.read(&ctx).unwrap(), vec![0, 1, 2, 5]);
        }
    }

    #[test]
    fn single_group_and_empty_inputs() {
        let ctx = OcelotContext::cpu();
        let uniform = ctx.upload_i32(&[7; 100], "u").unwrap();
        let result = group_by_hash(&ctx, &uniform).unwrap();
        assert_eq!(result.num_groups, 1);
        assert!(result.gids.read(&ctx).unwrap().iter().all(|g| *g == 0));

        let empty = ctx.upload_i32(&[], "e").unwrap();
        assert_eq!(group_by_hash(&ctx, &empty).unwrap().num_groups, 0);
        assert_eq!(group_by_sorted(&ctx, &empty).unwrap().num_groups, 0);
    }
}
