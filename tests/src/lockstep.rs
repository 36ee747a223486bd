//! Lock-step work-groups: a work-group walks its rows as contiguous runs
//! (`WorkGroupCtx::runs`) — one chunk under the CPUs' contiguous pattern, one
//! run per round under the GPU's strided one. Every kernel that walks its
//! rows that way (gather, bitmap popcount, the reduction, the hash-build
//! rounds, the dense grouping's first-row fold, the grouped fold and the
//! semi/anti join's match marking) gives the same answer on the sequential
//! CPU, the multi-core CPU at 1, 2 and N threads and the simulated GPU, at
//! row counts on and around the GPU's group size `S` and launch width `T`:
//! positions, join pairs, group ids and representatives exactly and equal to
//! MS; integer reductions, minima and maxima exactly; float sums within
//! `1e-4` of MS and bit-identical run to run. The armed race detector is
//! silent over all of them.

use crate::grouped_aggregation::scramble;
use ocelot_core::ops::aggregate::{grouped_aggs, GroupedAgg};
use ocelot_core::ops::groupby::{group_by_columns, GroupBy};
use ocelot_core::ops::hash_table::OcelotHashTable;
use ocelot_core::ops::join;
use ocelot_core::primitives::{bitmap, gather::gather, reduce};
use ocelot_core::{Bitmap, DevColumn, OcelotContext, Oid};
use ocelot_kernel::Device;
use ocelot_monet::sequential as monet;
use ocelot_monet::MonetHashTable;

/// The simulated GPU's work-group size and work-items per launch.
const S: usize = 192;
const T: usize = 7 * S;

/// Empty, one row, around one group's round, around one launch-wide round,
/// and ten rounds and a bit.
const ROWS: [usize; 9] = [0, 1, S - 1, S, S + 1, T - 1, T, T + 1, 10 * T + 3];

/// Every device configuration the suite compares, named.
pub(crate) fn devices() -> Vec<(String, OcelotContext)> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut devices = vec![("sequential CPU".to_string(), OcelotContext::cpu_sequential())];
    for threads in [1, 2, cores] {
        let device = Device::cpu_multicore_with(threads);
        devices.push((format!("CPU, {threads} threads"), OcelotContext::with_device(device)));
    }
    devices.push(("GPU".to_string(), OcelotContext::gpu()));
    devices
}

fn ints(rows: usize, seed: u64, modulus: u64) -> Vec<i32> {
    (0..rows).map(|row| (scramble(row, seed) % modulus) as i32).collect()
}

/// Floats with a fractional part, so the order of the additions shows in the
/// bits of a sum.
fn floats(rows: usize, seed: u64) -> Vec<f32> {
    (0..rows).map(|row| (scramble(row, seed) % 100_000) as f32 / 997.0).collect()
}

fn assert_close(at: &str, got: f32, want: f32) {
    assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0), "{at}: {got} vs MS {want}");
}

#[test]
fn the_constants_are_the_gpus_launch_shape() {
    let launch = OcelotContext::gpu().launch(10 * T + 3);
    assert_eq!((launch.group_size, launch.total_items()), (S, T));
}

#[test]
fn gathers_are_position_for_position_the_same_on_every_device() {
    for (name, ctx) in devices() {
        for rows in ROWS {
            let values: Vec<i32> = (0..rows.max(1)).map(|row| scramble(row, 1) as i32).collect();
            let indices: Vec<u32> =
                (0..rows).map(|row| (scramble(row, 2) % values.len() as u64) as u32).collect();
            let want: Vec<i32> = indices.iter().map(|index| values[*index as usize]).collect();
            let values = ctx.upload_i32(&values, "values").unwrap();
            let indices = ctx.upload_u32(&indices, "indices").unwrap();
            let got = gather(&ctx, &values, &indices).unwrap().read(&ctx).unwrap();
            assert_eq!(got, want, "{rows} rows on {name}");
        }
    }
}

/// A deferred index list whose count ends inside a run: the kernel resolves
/// the count at flush time and stops there — the entries past it are poison
/// a gather must not dereference — and a reduction over the gathered column
/// stops at the same place.
#[test]
fn deferred_gathers_stop_mid_run() {
    let cap = 10 * T + 3;
    let values: Vec<i32> = (0..cap).map(|row| scramble(row, 3) as i32).collect();
    let indices: Vec<u32> = (0..cap).map(|row| (scramble(row, 4) % cap as u64) as u32).collect();
    for (name, ctx) in devices() {
        let column = ctx.upload_i32(&values, "values").unwrap();
        for count in [0, 1, S / 2, S + 7, T + S / 2, 5 * T + 100, cap] {
            let mut raw = indices[..count].to_vec();
            raw.resize(cap, u32::MAX);
            let raw = ctx.upload_u32(&raw, "indices").unwrap();
            let counter = ctx.alloc(1, "count").unwrap();
            counter.set_u32(0, count as u32);
            ctx.queue().enqueue_write(&counter, &[]).unwrap();
            let deferred = DevColumn::<Oid>::deferred(raw.buffer.clone(), counter, cap).unwrap();
            let gathered = gather(&ctx, &column, &deferred).unwrap();
            let max = reduce::max_i32(&ctx, &gathered).unwrap();
            let want: Vec<i32> = indices[..count].iter().map(|i| values[*i as usize]).collect();
            let at = format!("count {count} on {name}");
            assert_eq!(gathered.read(&ctx).unwrap(), want, "{at}");
            assert_eq!(
                max.get(&ctx).unwrap(),
                want.iter().copied().max().unwrap_or(i32::MIN),
                "{at}"
            );
        }
    }
}

#[test]
fn popcounts_and_reductions_agree_on_every_device() {
    for (name, ctx) in devices() {
        for rows in ROWS {
            let at = format!("{rows} rows on {name}");
            let bits: Vec<bool> = (0..rows).map(|row| scramble(row, 5).is_multiple_of(3)).collect();
            let bitmap = Bitmap::from_bools(&ctx, &bits).unwrap();
            let set = bits.iter().filter(|bit| **bit).count() as u32;
            assert_eq!(bitmap::count_ones(&ctx, &bitmap).unwrap().get(&ctx).unwrap(), set, "{at}");

            let numbers: Vec<i32> = (0..rows).map(|row| scramble(row, 6) as i32).collect();
            let column = ctx.upload_i32(&numbers, "ints").unwrap();
            let sum = numbers.iter().fold(0i32, |sum, v| sum.wrapping_add(*v));
            assert_eq!(reduce::sum_i32(&ctx, &column).unwrap().get(&ctx).unwrap(), sum, "{at}");
            let min = numbers.iter().copied().min().unwrap_or(i32::MAX);
            assert_eq!(reduce::min_i32(&ctx, &column).unwrap().get(&ctx).unwrap(), min, "{at}");
            let max = numbers.iter().copied().max().unwrap_or(i32::MIN);
            assert_eq!(reduce::max_i32(&ctx, &column).unwrap().get(&ctx).unwrap(), max, "{at}");

            let reals = floats(rows, 7);
            let column = ctx.upload_f32(&reals, "floats").unwrap();
            let min = monet::min_f32(&reals).unwrap_or(f32::INFINITY);
            let max = monet::max_f32(&reals).unwrap_or(f32::NEG_INFINITY);
            assert_eq!(reduce::min_f32(&ctx, &column).unwrap().get(&ctx).unwrap(), min, "{at}");
            assert_eq!(reduce::max_f32(&ctx, &column).unwrap().get(&ctx).unwrap(), max, "{at}");
            let sum = reduce::sum_f32(&ctx, &column).unwrap().get(&ctx).unwrap();
            assert_close(&at, sum, monet::sum_f32(&reals));
            for run in 0..20 {
                let again = reduce::sum_f32(&ctx, &column).unwrap().get(&ctx).unwrap();
                assert_eq!(again.to_bits(), sum.to_bits(), "{at}, run {run}");
            }
        }
    }
}

/// Unique build keys, so every probe row has at most one partner and the
/// pairs are MS's: a dense range (the collision-free range table) and
/// sparse keys in a table sized by the rows. (A build started too small —
/// the pessimistic round and an evidence-sized restart — is the hash
/// table's own unit test over the same devices and row counts: no probe
/// count starts one.)
#[test]
fn join_builds_give_the_pairs_ms_gives_on_every_device() {
    for (name, ctx) in devices() {
        for rows in ROWS {
            let dense: Vec<i32> = (0..rows as i32).rev().collect();
            let sparse: Vec<i32> =
                (0..rows as u32).map(|row| row.wrapping_mul(0x9E37_79B1) as i32).collect();
            for (shape, build) in [("dense", &dense), ("sparse", &sparse)] {
                // A quarter of the probe keys are negative: misses in the
                // dense range.
                let probe: Vec<i32> = (0..rows)
                    .map(|row| match scramble(row, 8) % 4 {
                        0 => -1 - row as i32,
                        _ => build[(scramble(row, 9) % rows as u64) as usize],
                    })
                    .collect();
                let want = monet::pkfk_join_i32(&probe, &MonetHashTable::build(build));
                let table =
                    OcelotHashTable::build(&ctx, &ctx.upload_i32(build, "build").unwrap(), rows)
                        .unwrap();
                let result =
                    join::hash_join(&ctx, &ctx.upload_i32(&probe, "probe").unwrap(), &table)
                        .unwrap();
                let got =
                    (result.probe_oids.read(&ctx).unwrap(), result.build_oids.read(&ctx).unwrap());
                assert_eq!(got, want, "{shape}, {rows} rows on {name}");
            }
        }
    }
}

fn assert_grouping_is_ms(at: &str, ctx: &OcelotContext, got: &GroupBy, columns: &[&[i32]]) {
    let want = monet::group_by_columns(columns);
    assert_eq!(got.num_groups, want.num_groups, "{at}");
    assert_eq!(got.gids.read(ctx).unwrap(), want.gids, "{at}");
    assert_eq!(got.representatives.read(ctx).unwrap(), want.representatives, "{at}");
}

/// Dense codes (a first-row table per work-group, folded), one sparse column
/// and a composite key (both a grouping hash build: flags, ranks, finalize),
/// then every grouped aggregate over the ids (the grouped fold).
#[test]
fn grouping_builds_and_folds_give_the_ids_and_aggregates_ms_gives_on_every_device() {
    let aggs = [GroupedAgg::Sum(0), GroupedAgg::Min(0), GroupedAgg::Max(0), GroupedAgg::Count];
    for (name, ctx) in devices() {
        for rows in ROWS {
            let small = ints(rows, 9, 50);
            let sparse: Vec<i32> =
                ints(rows, 10, rows as u64 / 3 + 1).iter().map(|k| k * 7_919).collect();
            let other: Vec<i32> = ints(rows, 11, 40).iter().map(|k| k * 1_000).collect();
            let values = floats(rows, 12);
            for (shape, columns) in [
                ("dense codes", vec![&small]),
                ("sparse", vec![&sparse]),
                ("composite", vec![&small, &other]),
            ] {
                let at = format!("{shape}, {rows} rows on {name}");
                let device: Vec<DevColumn<i32>> =
                    columns.iter().map(|keys| ctx.upload_i32(keys, "keys").unwrap()).collect();
                let grouping = group_by_columns(&ctx, &device.iter().collect::<Vec<_>>()).unwrap();
                let columns: Vec<&[i32]> = columns.iter().map(|keys| keys.as_slice()).collect();
                assert_grouping_is_ms(&at, &ctx, &grouping, &columns);

                let want = monet::group_by_columns(&columns);
                let groups = want.num_groups;
                let column = ctx.upload_f32(&values, "values").unwrap();
                let got: Vec<Vec<f32>> =
                    grouped_aggs(&ctx, &[&column], &grouping.gids, groups, &aggs)
                        .unwrap()
                        .iter()
                        .map(|column| column.read(&ctx).unwrap())
                        .collect();
                let counts = monet::grouped_count(&want.gids, groups);
                assert_eq!(got[3], counts.iter().map(|c| *c as f32).collect::<Vec<_>>(), "{at}");
                assert_eq!(got[1], monet::grouped_min_f32(&values, &want.gids, groups), "{at}");
                assert_eq!(got[2], monet::grouped_max_f32(&values, &want.gids, groups), "{at}");
                let sums = monet::grouped_sum_f32(&values, &want.gids, groups);
                for (gid, (got, want)) in got[0].iter().zip(sums).enumerate() {
                    assert_close(&format!("{at}, group {gid}"), *got, want);
                }
            }
        }
    }
}

/// The table over the right input (a join build the left rows probe) and
/// over the left input (a grouping build whose groups the right rows mark).
#[test]
fn semi_and_anti_joins_give_the_rows_ms_gives_on_every_device() {
    for (name, ctx) in devices() {
        for rows in ROWS {
            let left = ints(rows, 13, rows as u64 + 1);
            for right_rows in [rows / 2 + 1, 2 * rows + 1] {
                let right = ints(right_rows, 14, rows as u64 + 1);
                let at = format!("{rows} left and {right_rows} right rows on {name}");
                let (l, r) = (
                    ctx.upload_i32(&left, "left").unwrap(),
                    ctx.upload_i32(&right, "right").unwrap(),
                );
                let semi = join::semi_join(&ctx, &l, &r).unwrap().read(&ctx).unwrap();
                assert_eq!(semi, monet::semi_join_i32(&left, &right), "semi, {at}");
                let anti = join::anti_join(&ctx, &l, &r).unwrap().read(&ctx).unwrap();
                assert_eq!(anti, monet::anti_join_i32(&left, &right), "anti, {at}");
            }
        }
    }
}

/// Every kernel the operators above launch declares its accesses — the
/// reduction's two included — and the armed detector finds no conflict.
#[test]
fn armed_race_detector_is_silent_over_the_run_walking_kernels() {
    for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
        ctx.queue().race().arm();
        for rows in [S + 1, 10 * T + 3] {
            let keys = ints(rows, 15, rows as u64 / 2);
            let other = ints(rows, 16, 40);
            let reals = ctx.upload_f32(&floats(rows, 17), "floats").unwrap();
            let (k, o) =
                (ctx.upload_i32(&keys, "keys").unwrap(), ctx.upload_i32(&other, "o").unwrap());
            let oids = ctx.upload_u32(&(0..rows as u32).rev().collect::<Vec<_>>(), "oids").unwrap();
            gather(&ctx, &reals, &oids).unwrap();
            reduce::sum_f32(&ctx, &reals).unwrap();
            reduce::min_f32(&ctx, &reals).unwrap();
            reduce::max_f32(&ctx, &reals).unwrap();
            let bits: Vec<bool> = keys.iter().map(|key| key % 2 == 0).collect();
            bitmap::count_ones(&ctx, &Bitmap::from_bools(&ctx, &bits).unwrap()).unwrap();
            join::hash_join(&ctx, &k, &OcelotHashTable::build(&ctx, &o, 1).unwrap()).unwrap();
            for columns in [vec![&o], vec![&k], vec![&k, &o]] {
                let grouping = group_by_columns(&ctx, &columns).unwrap();
                let aggs = [GroupedAgg::Sum(0), GroupedAgg::Avg(0), GroupedAgg::Count];
                grouped_aggs(&ctx, &[&reals], &grouping.gids, grouping.num_groups, &aggs).unwrap();
            }
            join::semi_join(&ctx, &o, &k).unwrap();
            join::anti_join(&ctx, &k, &o).unwrap();
            ctx.sync().unwrap();
        }
        let stats = ctx.queue().race().stats();
        let diagnostics = ctx.queue().race().take_diagnostics();
        ctx.queue().race().disarm();
        let device = ctx.device().info().kind;
        assert!(diagnostics.is_empty(), "{device:?}: {diagnostics:?}");
        assert_eq!(stats.kernels_declared, stats.kernels_observed, "{device:?}: {stats:?}");
        assert!(stats.pairs_checked > 0, "{device:?}: {stats:?}");
    }
}
