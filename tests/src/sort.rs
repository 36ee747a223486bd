//! PR 20 — a radix sort whose cost follows the rows: `sort_order_*` is
//! stable in both directions and OID for OID the same on MS, MP and every
//! Ocelot device, at the sizes around the count-table rule's steps and over
//! the keys a 32-bit sort gets wrong first (ties, the extremes of `i32`,
//! signed zeros, subnormals, infinities, NaNs); a sort over a host-known
//! length is eight launches, no flush and no transfer in either direction;
//! its scratch is the staging buffers and a count table sized by the rows,
//! so it runs on a 256 KiB device; its kernels declare their accesses and
//! the armed race detector is silent; and the order does not depend on the
//! thread-pool size.

use crate::grouped_aggregation::{observed_launches, scramble};
use ocelot_core::ops::sort_radix;
use ocelot_core::partition::{partitioned_pkfk_join, PartitionedJoinConfig};
use ocelot_core::{OcelotContext, TraceEventKind, TraceSink};
use ocelot_engine::{Backend, MonetBackend, OcelotBackend};
use ocelot_kernel::{Device, GpuConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// The sizes on and around the steps of the table rule (one table up to
/// 2 047 rows, 64 from 65 536 on) and one well past the last.
const SIZES: [usize; 11] = [0, 1, 2, 1_023, 1_024, 1_025, 2_048, 65_535, 65_536, 65_537, 200_000];

const FEW_INTS: [i32; 8] = [i32::MIN, i32::MAX, -1, 0, 1, i32::MIN + 1, i32::MAX - 1, 42];

/// Signed zeros, the smallest and the largest subnormal, the infinities and
/// a NaN of either sign.
fn few_floats() -> [f32; 8] {
    let subnormal = f32::from_bits(0x007F_FFFF);
    [
        0.0,
        -0.0,
        f32::from_bits(1),
        -subnormal,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ]
}

/// An integer and a float column of `rows` rows. Shape 0: any bit pattern;
/// 1: at most eight distinct keys, the ones above; 2: already sorted;
/// 3: sorted the other way round.
fn columns(rows: usize, shape: usize, seed: u32) -> (Vec<i32>, Vec<f32>) {
    let word = |row: usize| scramble(row, u64::from(seed)) as u32;
    let (mut ints, mut floats): (Vec<i32>, Vec<f32>) = (0..rows)
        .map(|row| match shape {
            1 => (FEW_INTS[word(row) as usize % 8], few_floats()[(word(row) >> 3) as usize % 8]),
            _ => (word(row) as i32, f32::from_bits(word(row).rotate_left(13))),
        })
        .unzip();
    if shape >= 2 {
        ints.sort_unstable();
        floats.sort_unstable_by(f32::total_cmp);
    }
    if shape == 3 {
        ints.reverse();
        floats.reverse();
    }
    (ints, floats)
}

/// The four orders a backend returns — integer ascending and descending,
/// float ascending and descending — sorted and read back one at a time.
fn backend_orders<B: Backend>(backend: &B, ints: &[i32], floats: &[f32]) -> [Vec<u32>; 4] {
    let ints = backend.lift_i32(ints.to_vec()).unwrap();
    let floats = backend.lift_f32(floats.to_vec()).unwrap();
    [(false, false), (false, true), (true, false), (true, true)].map(|(float, descending)| {
        let order = match float {
            false => backend.sort_order_i32(&ints, descending),
            true => backend.sort_order_f32(&floats, descending),
        };
        backend.to_oids(&order.unwrap()).unwrap()
    })
}

const DIRECTIONS: [&str; 4] = ["i32 asc", "i32 desc", "f32 asc", "f32 desc"];

/// Equal, or the first position that is not — never two 200 000-row dumps.
fn assert_same_orders(at: &str, got: &[Vec<u32>; 4], want: &[Vec<u32>; 4]) {
    for ((got, want), direction) in got.iter().zip(want).zip(DIRECTIONS) {
        assert_eq!(got.len(), want.len(), "{at}, {direction}: length");
        if let Some(position) = got.iter().zip(want).position(|(got, want)| got != want) {
            panic!(
                "{at}, {direction}: position {position} holds oid {}, expected {}",
                got[position], want[position]
            );
        }
    }
}

/// The reference is MS: its sorts are `sort_by` over the row ids — the
/// stable order by definition — under `Ord`, `Reverse` and `f32::total_cmp`.
fn expected_orders(ints: &[i32], floats: &[f32]) -> [Vec<u32>; 4] {
    backend_orders(&MonetBackend::with_threads(1), ints, floats)
}

fn check_every_backend(at: &str, ints: &[i32], floats: &[f32]) {
    let want = expected_orders(ints, floats);
    let check = |name: &str, got: [Vec<u32>; 4]| {
        assert_same_orders(&format!("{at} on {name}"), &got, &want)
    };
    check("MP", backend_orders(&MonetBackend::with_threads(3), ints, floats));
    for backend in [OcelotBackend::cpu_sequential(), OcelotBackend::cpu(), OcelotBackend::gpu()] {
        check(backend.name(), backend_orders(&backend, ints, floats));
    }
}

proptest! {
    /// `sort_order_{i32,f32}`, both directions, on MS, MP and the three
    /// Ocelot devices equal the stable order OID for OID.
    #[test]
    fn sort_orders_are_the_stable_order_on_every_backend(
        size in 0usize..SIZES.len(),
        shape in 0usize..4,
        seed in any::<u32>(),
    ) {
        let (ints, floats) = columns(SIZES[size], shape, seed);
        check_every_backend(&format!("{} rows, shape {shape}, seed {seed}", SIZES[size]), &ints, &floats);
    }
}

/// The case the backends used to disagree on: descending, with ties. MP and
/// both Ocelot devices returned the reversed ascending order,
/// `[5, 2, 0, 3, 4, 1]`.
#[test]
fn descending_ties_keep_input_order_on_every_backend() {
    let ints = [3, 1, 3, 2, 1, 3];
    let floats = ints.map(|key| key as f32);
    assert_eq!(expected_orders(&ints, &floats)[1], vec![0, 2, 5, 3, 1, 4]);
    check_every_backend("six rows, three of a kind", &ints, &floats);
}

/// The table count of a sort of `rows` rows (`partial_tables_for`): a table
/// per 1 024 rows, at least one, at most 64.
fn tables_for(rows: usize) -> usize {
    (rows / 1_024).clamp(1, 64)
}

/// A sort over a host-known length is two launches per digit — no scan, no
/// transform, no decode — and stays on the device in either direction: no
/// flush, no transfer. Its launches have as many work-groups as the rows ask
/// for, on every device. (The parent: 22 launches; descending, a flush, a
/// download and an upload more.)
#[test]
fn a_sort_is_eight_launches_no_flush_no_transfer_on_every_device() {
    let passes = ["radix_histogram", "radix_scatter"].repeat(4);
    for backend in [OcelotBackend::cpu_sequential(), OcelotBackend::cpu(), OcelotBackend::gpu()] {
        let ctx = backend.context();
        for rows in [5, 5_000, 200_000] {
            let (ints, floats) = columns(rows, 1, 20);
            let (ints, floats) =
                (backend.lift_i32(ints).unwrap(), backend.lift_f32(floats).unwrap());
            for (float, descending) in [(false, false), (false, true), (true, false), (true, true)]
            {
                let at = format!("{rows} rows, float {float}, descending {descending}");
                let at = format!("{at} on {}", backend.name());
                ctx.sync().unwrap();
                let transfers = ctx.queue().total_stats().transfers;
                let (_, launches, flushes) = observed_launches(ctx, || match float {
                    false => backend.sort_order_i32(&ints, descending).unwrap(),
                    true => backend.sort_order_f32(&floats, descending).unwrap(),
                });
                let launched: Vec<&str> = launches.iter().map(|(kernel, ..)| &**kernel).collect();
                assert_eq!(launched, passes, "{at}");
                assert_eq!(flushes, 0, "{at}");
                assert_eq!(ctx.queue().total_stats().transfers, transfers, "{at}");
                for (_, num_groups, n) in launches {
                    assert_eq!((num_groups, n), (tables_for(rows) as u64, rows as u64), "{at}");
                }
            }
        }
    }
}

/// The work bound, as behaviour: on a simulated GPU with 256 KiB of memory a
/// 5-row and a 5 000-row sort complete — the input, four staging buffers and
/// a count table of 1 KiB per 1 024 rows fit — and the modelled histogram
/// launch of the 5-row sort costs its launch overhead and the time to move
/// that 1 KiB. (The
/// parent asks for a 1.3 MiB table on this device whatever the rows.)
#[test]
fn a_small_sort_runs_on_a_256_kib_device() {
    let config = GpuConfig::default().with_global_mem(256 * 1024);
    let overhead = config.launch_overhead_ns;
    let backend = OcelotBackend::gpu_with(config);
    let sink = Arc::new(TraceSink::new());
    backend.context().attach_tracer(&sink);
    for rows in [5, 5_000] {
        let (ints, floats) = columns(rows, 0, 256);
        let got = backend_orders(&backend, &ints, &floats);
        assert_same_orders(&format!("{rows} rows"), &got, &expected_orders(&ints, &floats));
    }
    backend.context().detach_tracer();
    let histogram = sink
        .events()
        .into_iter()
        .find_map(|event| match event.kind {
            TraceEventKind::Kernel { kernel, modeled_ns, num_groups, n, .. }
                if kernel == "radix_histogram" =>
            {
                Some((n, num_groups, modeled_ns))
            }
            _ => None,
        })
        .unwrap();
    assert_eq!((histogram.0, histogram.1), (5, 1));
    assert!(histogram.2 < overhead + 100, "{histogram:?}");
    assert_eq!(sort_radix::scratch_bytes(5_000), (4 * 5_000 + 256 * tables_for(5_000)) * 4);
}

/// Every kernel a sort or a partitioning launches declares its accesses, and
/// the armed detector finds no conflict between event-unordered launches —
/// the sorts of one batch are unordered among each other.
#[test]
fn armed_race_detector_is_silent_over_sorts_and_partitioning() {
    for ctx in [OcelotContext::cpu(), OcelotContext::gpu()] {
        ctx.queue().race().arm();
        for rows in [5, 5_000, 200_000] {
            let (ints, floats) = columns(rows, 0, 8);
            let ints = ctx.upload_i32(&ints, "ints").unwrap();
            let floats = ctx.upload_f32(&floats, "floats").unwrap();
            for descending in [false, true] {
                sort_radix::sort_order_i32(&ctx, &ints, descending).unwrap();
                sort_radix::sort_order_f32(&ctx, &floats, descending).unwrap();
            }
            sort_radix::sort_i32(&ctx, &ints).unwrap();
            ctx.sync().unwrap();
        }
        let build = ctx.upload_i32(&(0..3_000).collect::<Vec<i32>>(), "build").unwrap();
        let probe: Vec<i32> = (0..40_000).map(|row| (scramble(row, 5) % 4_000) as i32).collect();
        let probe = ctx.upload_i32(&probe, "probe").unwrap();
        let config = PartitionedJoinConfig::plan(3_000, 40_000, 3_000, Some(256 * 1024));
        partitioned_pkfk_join(&ctx, &probe, &build, &config).unwrap();
        ctx.sync().unwrap();
        let stats = ctx.queue().race().stats();
        let diagnostics = ctx.queue().race().take_diagnostics();
        ctx.queue().race().disarm();
        assert!(diagnostics.is_empty(), "{diagnostics:?}");
        assert_eq!(stats.kernels_declared, stats.kernels_observed, "{stats:?}");
        assert!(stats.pairs_checked > 0, "unordered pairs were actually compared: {stats:?}");
    }
}

/// The order is a function of the column alone: bit-identical across
/// thread-pool sizes 1, 2 and N (and so across their group sizes and
/// stretches), with ties in every digit.
#[test]
fn order_is_bit_identical_across_thread_pool_sizes() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let (ints, floats) = columns(200_000, 1, 77);
    let want = expected_orders(&ints, &floats);
    for threads in [1, 2, cores] {
        let ctx = OcelotContext::with_device(Device::cpu_multicore_with(threads));
        let backend = OcelotBackend::with_context(ctx, "Ocelot CPU");
        let got = backend_orders(&backend, &ints, &floats);
        assert_same_orders(&format!("{threads} threads"), &got, &want);
    }
}
