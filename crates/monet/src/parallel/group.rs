//! Parallel group-by: the sequential grouping per slice, then one merge.
//!
//! Every partition runs [`sequential::group_by_columns`]'s pass over its
//! slice and writes its local ids into its own range of the one `gids`
//! vector. The merge groups the representatives' key values, gathered in
//! partition order, with the same function; that numbers every group by its
//! first appearance in partition order — which is row order, so the ids and
//! representatives are exactly the sequential operator's — and gives every
//! partition a local → global id map. Each partition then rewrites its ids
//! in place. A single partition is the sequential operator and needs no
//! merge.

use super::partition::{fill_partitions, partition_ranges, update_partitions};
use crate::sequential::{self, group::group_into, GroupResult};
use ocelot_storage::Oid;

/// Parallel multi-column group-by; equal to
/// [`sequential::group_by_columns`] id for id.
pub fn par_group_by_columns(columns: &[&[i32]], threads: usize) -> GroupResult {
    let rows = columns.first().map_or(0, |column| column.len());
    assert!(columns.iter().all(|c| c.len() == rows), "par_group_by_columns: length mismatch");
    let ranges = partition_ranges(rows, threads.max(1));
    if ranges.len() <= 1 {
        return sequential::group_by_columns(columns);
    }
    let (mut gids, locals) = fill_partitions(rows, threads, |start, end, gids| {
        let slices: Vec<&[i32]> = columns.iter().map(|column| &column[start..end]).collect();
        let mut firsts = group_into(&slices, gids);
        firsts.iter_mut().for_each(|row| *row += start as Oid);
        firsts
    });
    let offsets: Vec<usize> = locals
        .iter()
        .scan(0, |offset, firsts| {
            *offset += firsts.len();
            Some(*offset - firsts.len())
        })
        .collect();
    let firsts = locals.concat();
    let keys: Vec<Vec<i32>> =
        columns.iter().map(|column| sequential::fetch_i32(column, &firsts)).collect();
    let merged = sequential::group_by_columns(&keys.iter().map(Vec::as_slice).collect::<Vec<_>>());

    update_partitions(&mut gids, threads, |start, gids| {
        let partition = ranges.partition_point(|&(first, _)| first < start);
        let global = &merged.gids[offsets[partition]..];
        gids.iter_mut().for_each(|gid| *gid = global[*gid as usize]);
    });
    let representatives = merged.representatives.iter().map(|&i| firsts[i as usize]).collect();
    GroupResult { gids, num_groups: merged.num_groups, representatives }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Id for id, group for group, representative for representative.
    fn check_equals_sequential(columns: &[&[i32]]) {
        let seq = sequential::group_by_columns(columns);
        for threads in [1, 2, 3, 4, 7] {
            assert_eq!(par_group_by_columns(columns, threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn matches_sequential_partitioning() {
        let column: Vec<i32> = (0..5_000).map(|i| (i * 31 + 7) % 100).collect();
        check_equals_sequential(&[&column]);
        // Keys that first appear late: partition order must still number
        // them by their first row.
        let late: Vec<i32> =
            (0..5_000).map(|i| if i < 4_000 { i % 3 } else { 7 - i % 5 }).collect();
        check_equals_sequential(&[&late]);
    }

    #[test]
    fn multi_column_equals_sequential() {
        let a: Vec<i32> = (0..2_000).map(|i| i % 5).collect();
        let b: Vec<i32> = (0..2_000).map(|i| i % 7).collect();
        check_equals_sequential(&[&a, &b]);
        assert_eq!(par_group_by_columns(&[&a, &b], 4).num_groups, 35);
        // A sparse column moves the merge off the indexed table.
        let sparse: Vec<i32> = a.iter().map(|k| k.wrapping_mul(0x3FFF_FFFF)).collect();
        check_equals_sequential(&[&sparse, &b, &sparse]);
    }

    #[test]
    fn representatives_belong_to_their_groups() {
        let column: Vec<i32> = (0..1_000).map(|i| i % 13).collect();
        let par = par_group_by_columns(&[&column], 4);
        assert_eq!(par.representatives.len(), par.num_groups);
        for (gid, rep) in par.representatives.iter().enumerate() {
            assert_eq!(par.gids[*rep as usize] as usize, gid);
        }
    }

    #[test]
    fn empty_input() {
        let result = par_group_by_columns(&[&[]], 4);
        assert_eq!(result.num_groups, 0);
        assert!(result.gids.is_empty());
        assert!(par_group_by_columns(&[], 4).gids.is_empty());
    }
}
