//! Positional joins on a dense key. A key column holding `base, base + 1, …`
//! is decided dense from its data (`Bat::dense_base`), once per column; a
//! `dense_join` against it — PK-FK, and semi/anti with the dense key on
//! either side — returns exactly the pairs, in the order, the hash joins
//! return against the listed rows' keys, on MS, MP and every Ocelot device
//! (the sequential CPU, the multi-core CPU at 1, 2 and N threads, the GPU):
//! at a base of 0, a negative one and the top of `i32`, with keys outside
//! the range at both ends of `i32`, over no list, a subset, a sort's
//! permutation and an empty list, over an empty probe and over
//! deferred-length keys and lists. Each join is one flush — its match count
//! — and the armed race detector is silent over its kernels, all of which
//! declare their accesses. The ported queries lower every PK-FK and semi
//! join onto it.

use crate::grouped_aggregation::scramble;
use crate::lockstep::devices;
use ocelot_core::ops::hash_table::OcelotHashTable;
use ocelot_core::ops::join::{self, DenseJoinKind};
use ocelot_core::primitives::gather::gather;
use ocelot_core::{DevColumn, DevWord, OcelotContext, Oid, SharedDevice};
use ocelot_engine::{Backend, MonetBackend, OcelotBackend, Query, Session};
use ocelot_monet::sequential as monet;
use ocelot_monet::MonetHashTable;
use ocelot_storage::{Bat, ColumnType, DenseKey};
use ocelot_tpch::{
    q10_query, q12_queries, q14_query, q3_query, q4_query, q5_query, TpchConfig, TpchDb,
};
use proptest::prelude::*;

const KINDS: [DenseJoinKind; 5] = [
    DenseJoinKind::Inner,
    DenseJoinKind::Semi,
    DenseJoinKind::Anti,
    DenseJoinKind::ListedSemi,
    DenseJoinKind::ListedAnti,
];

/// One join: a dense table, the list of its rows the relation holds
/// (`None`: every row, in order), and the keys joined against it.
struct Case {
    key: DenseKey,
    listed: Option<Vec<Oid>>,
    keys: Vec<i32>,
}

impl Case {
    /// `base`: 0 → 0, 1 → negative, 2 → the table ends at `i32::MAX`.
    /// `listing`: 0 → no list, 1 → an ascending subset, 2 → the permutation
    /// a sort returns, 3 → empty. The keys hit the table, miss it just past
    /// both ends, sit at both ends of `i32`, or are anything at all.
    fn generate(rows: usize, base: u8, listing: u8, keys: usize, seed: u64) -> Case {
        let base = match base {
            0 => 0,
            1 => -(rows as i32) - 1_000,
            _ => (i32::MAX as i64 - rows as i64 + 1).min(i32::MAX as i64) as i32,
        };
        let listed = match listing {
            0 => None,
            1 => Some(
                (0..rows as u32)
                    .filter(|row| scramble(*row as usize, seed).is_multiple_of(3))
                    .collect(),
            ),
            2 => {
                let column: Vec<i32> = (0..rows).map(|row| scramble(row, seed) as i32).collect();
                Some(monet::sort_i32(&column).1)
            }
            _ => Some(Vec::new()),
        };
        let at = |offset: i64| (base as i64 + offset) as i32;
        let keys = (0..keys)
            .map(|row| {
                let draw = scramble(row, seed ^ 0x5EED);
                match draw % 8 {
                    0 => i32::MIN,
                    1 => i32::MAX,
                    2 => at(-1),
                    3 => at(rows as i64),
                    4 => draw as i32,
                    _ => at((draw % rows.max(1) as u64) as i64),
                }
            })
            .collect();
        Case { key: DenseKey { base, rows }, listed, keys }
    }

    /// The key of every listed row: the hash joins' build column.
    fn listed_keys(&self) -> Vec<i32> {
        let key = |row: u32| (self.key.base as i64 + row as i64) as i32;
        match &self.listed {
            Some(rows) => rows.iter().map(|row| key(*row)).collect(),
            None => (0..self.key.rows as u32).map(key).collect(),
        }
    }

    /// What MS's hash joins return for `kind`.
    fn expected(&self, kind: DenseJoinKind) -> (Vec<Oid>, Option<Vec<Oid>>) {
        let listed = self.listed_keys();
        match kind {
            DenseJoinKind::Inner => {
                let (rows, positions) =
                    monet::pkfk_join_i32(&self.keys, &MonetHashTable::build(&listed));
                (rows, Some(positions))
            }
            DenseJoinKind::Semi => (monet::semi_join_i32(&self.keys, &listed), None),
            DenseJoinKind::Anti => (monet::anti_join_i32(&self.keys, &listed), None),
            DenseJoinKind::ListedSemi => (monet::semi_join_i32(&listed, &self.keys), None),
            DenseJoinKind::ListedAnti => (monet::anti_join_i32(&listed, &self.keys), None),
        }
    }

    fn describe(&self) -> String {
        let listed = self.listed.as_ref().map(Vec::len);
        format!("{:?}, {listed:?} listed, {} keys", self.key, self.keys.len())
    }
}

/// Every kind of dense join on `backend`, and the hash join over the listed
/// rows' keys: both equal MS's hash join, pair for pair.
fn check<B: Backend>(backend: &B, case: &Case) {
    let keys = backend.lift_i32(case.keys.clone()).unwrap();
    let listed = case.listed.clone().map(|rows| backend.lift_oids(rows).unwrap());
    let listed_keys = backend.lift_i32(case.listed_keys()).unwrap();
    let read = |column: &B::Column| backend.to_oids(column).unwrap();
    for kind in KINDS {
        let want = case.expected(kind);
        let at = format!("{kind:?} on {}: {}", backend.name(), case.describe());
        let (rows, positions) = backend.dense_join(&keys, listed.as_ref(), case.key, kind).unwrap();
        assert_eq!((read(&rows), positions.as_ref().map(read)), want, "dense, {at}");
        let hashed = match kind {
            DenseJoinKind::Inner => {
                let (rows, positions) = backend.pkfk_join(&keys, &listed_keys).unwrap();
                (read(&rows), Some(read(&positions)))
            }
            DenseJoinKind::Semi => (read(&backend.semi_join(&keys, &listed_keys).unwrap()), None),
            DenseJoinKind::Anti => (read(&backend.anti_join(&keys, &listed_keys).unwrap()), None),
            DenseJoinKind::ListedSemi => {
                (read(&backend.semi_join(&listed_keys, &keys).unwrap()), None)
            }
            DenseJoinKind::ListedAnti => {
                (read(&backend.anti_join(&listed_keys, &keys).unwrap()), None)
            }
        };
        assert_eq!(hashed, want, "hash, {at}");
    }
}

proptest! {
    /// Dense == hash join == MS on MS, MP and every Ocelot device, for every
    /// kind, base, list shape and key mix, tables and probes of up to a few
    /// GPU launch widths (an empty one included).
    #[test]
    fn dense_joins_equal_the_hash_joins_and_ms_on_every_backend(
        rows in 0usize..3_000,
        base in 0u8..3,
        listing in 0u8..4,
        keys in 0usize..4_000,
        seed in 1u64..u64::MAX,
    ) {
        let case = Case::generate(rows, base, listing, keys, seed);
        check(&MonetBackend::with_threads(1), &case);
        check(&MonetBackend::with_threads(3), &case);
        for (name, ctx) in devices() {
            check(&OcelotBackend::with_context(ctx, &name), &case);
        }
    }
}

/// An empty probe and an empty table, on every backend.
#[test]
fn empty_keys_and_empty_tables_join_to_nothing_or_everything() {
    for case in [Case::generate(500, 1, 2, 0, 3), Case::generate(0, 0, 0, 700, 4)] {
        check(&MonetBackend::with_threads(1), &case);
        check(&MonetBackend::with_threads(2), &case);
        for (name, ctx) in devices() {
            check(&OcelotBackend::with_context(ctx, &name), &case);
        }
    }
}

/// A device column of `values` whose length is the count in a device
/// counter, padded to `cap` with `poison` a kernel must never read.
fn deferred<T: DevWord>(ctx: &OcelotContext, values: &[T], cap: usize, poison: T) -> DevColumn<T> {
    let mut raw = values.to_vec();
    raw.resize(cap, poison);
    let raw = ctx.upload(&raw, "raw").unwrap();
    let counter = ctx.alloc(1, "count").unwrap();
    counter.set_u32(0, values.len() as u32);
    ctx.queue().enqueue_write(&counter, &[]).unwrap();
    DevColumn::deferred(raw.buffer.clone(), counter, cap).unwrap()
}

/// Deferred-length keys and lists whose counts end mid-buffer: the padding
/// would change the answer if read — a key naming a listed row, a row that
/// some key names — and no kernel reads it.
#[test]
fn deferred_keys_and_lists_stop_at_their_counts() {
    let key = DenseKey { base: -50, rows: 2_000 };
    let all_keys: Vec<i32> =
        (0..3_000).map(|row| (scramble(row, 21) % 2_200) as i32 - 100).collect();
    let all_listed: Vec<Oid> = (1..2_000).rev().step_by(2).collect();
    let (key_poison, row_poison) = (key.base + 1_999, 0);
    for (name, ctx) in devices() {
        for (key_count, list_count) in [(0, 0), (1, 999), (1_500, 1), (3_000, 1_000), (2_345, 617)]
        {
            let case = Case {
                key,
                listed: Some(all_listed[..list_count].to_vec()),
                keys: all_keys[..key_count].to_vec(),
            };
            let keys = deferred(&ctx, &case.keys, all_keys.len(), key_poison);
            let listed = deferred(&ctx, &all_listed[..list_count], all_listed.len(), row_poison);
            for kind in KINDS {
                let at = format!("{kind:?} on {name}: {}", case.describe());
                let (rows, positions) =
                    join::dense_join(&ctx, &keys, Some(&listed), key, kind).unwrap();
                let got = (rows.read(&ctx).unwrap(), positions.map(|p| p.read(&ctx).unwrap()));
                assert_eq!(got, case.expected(kind), "{at}");
            }
        }
    }
}

/// The join write pass at the edges of its work-items, on every device:
/// over keys split into the items' chunks, item `i` keeps (pattern
/// `(i + shift) % 4`) only its last row, no row, every row, or only its
/// first — so on a one-item device every pattern is the whole probe. Every
/// dense kind (an anti join keeps the lookups that found nothing) and the
/// hash, semi and anti joins over the listed rows' keys, over a host-known
/// and a deferred probe length, equal MS pair for pair, and the armed race
/// detector stays silent.
#[test]
fn the_join_write_pass_keeps_the_edges_of_every_item() {
    let key = DenseKey { base: -7, rows: 200 };
    let listed: Vec<Oid> = (0..200).step_by(2).rev().collect();
    let named = |row: Oid| key.base + row as i32;
    let listed_keys: Vec<i32> = listed.iter().map(|&row| named(row)).collect();
    let misses = [named(1), named(199), key.base - 1, i32::MIN];
    let cap = 5_003;
    for (name, ctx) in devices() {
        let queue = ctx.queue();
        queue.race().arm();
        let build = ctx.upload_i32(&listed_keys, "listed_keys").unwrap();
        let table = OcelotHashTable::build(&ctx, &build, cap).unwrap();
        let listed_col = ctx.upload_u32(&listed, "listed").unwrap();
        for count in [cap, cap - 7] {
            let chunk = count.div_ceil(ctx.launch(cap).total_items());
            for shift in 0..4 {
                let keys: Vec<i32> = (0..count)
                    .map(|row| {
                        let offset = row % chunk;
                        let kept = match (row / chunk + shift) % 4 {
                            0 => offset + 1 == chunk || row + 1 == count,
                            1 => false,
                            2 => true,
                            _ => offset == 0,
                        };
                        if kept {
                            listed_keys[row % listed_keys.len()]
                        } else {
                            misses[row % misses.len()]
                        }
                    })
                    .collect();
                let probe = if count == cap {
                    ctx.upload_i32(&keys, "keys").unwrap()
                } else {
                    deferred(&ctx, &keys, cap, listed_keys[0])
                };
                let case = Case { key, listed: Some(listed.clone()), keys };
                let at = format!("{name}, shift {shift}, {count} of {cap}: {}", case.describe());
                for kind in KINDS {
                    let (rows, positions) =
                        join::dense_join(&ctx, &probe, Some(&listed_col), key, kind).unwrap();
                    let got = (rows.read(&ctx).unwrap(), positions.map(|p| p.read(&ctx).unwrap()));
                    assert_eq!(got, case.expected(kind), "dense {kind:?}, {at}");
                }
                let pairs = join::hash_join(&ctx, &probe, &table).unwrap();
                let got =
                    (pairs.probe_oids.read(&ctx).unwrap(), pairs.build_oids.read(&ctx).unwrap());
                assert_eq!((got.0, Some(got.1)), case.expected(DenseJoinKind::Inner), "hash, {at}");
                let semi = join::semi_join(&ctx, &probe, &build).unwrap().read(&ctx).unwrap();
                assert_eq!(semi, case.expected(DenseJoinKind::Semi).0, "semi, {at}");
                let anti = join::anti_join(&ctx, &probe, &build).unwrap().read(&ctx).unwrap();
                assert_eq!(anti, case.expected(DenseJoinKind::Anti).0, "anti, {at}");
            }
        }
        ctx.sync().unwrap();
        let stats = queue.race().stats();
        let diagnostics = queue.race().take_diagnostics();
        queue.race().disarm();
        assert!(diagnostics.is_empty(), "{name}: {diagnostics:?}");
        assert_eq!(stats.kernels_declared, stats.kernels_observed, "{name}: {stats:?}");
    }
}

/// One flush per dense join, its match count — through the backend on every
/// Ocelot device, with and without a list, and in the ported plans, where
/// each of the 13 PK-FK joins and Q4's semi join is a `dense_join` node
/// that profiles exactly one flush.
#[test]
fn a_dense_join_is_one_flush() {
    let case = Case::generate(5_000, 1, 1, 20_000, 9);
    for (name, ctx) in devices() {
        let backend = OcelotBackend::with_context(ctx, &name);
        let keys = backend.lift_i32(case.keys.clone()).unwrap();
        let listed = backend.lift_oids(case.listed.clone().unwrap()).unwrap();
        for kind in KINDS {
            for listed in [None, Some(&listed)] {
                backend.sync().unwrap();
                let queue = backend.context().queue();
                let before = queue.flush_count();
                let (rows, _) = backend.dense_join(&keys, listed, case.key, kind).unwrap();
                assert!(backend.len(&rows).unwrap() > 0);
                assert_eq!(queue.flush_count() - before, 1, "{kind:?} on {name}");
            }
        }
    }

    let db = TpchDb::generate(TpchConfig { scale_factor: 0.01, seed: 3 });
    let (q12_all, q12_high) = q12_queries(&db);
    let queries: Vec<Query> = vec![
        q3_query(&db),
        q4_query(&db),
        q5_query(&db),
        q10_query(&db),
        q12_all,
        q12_high,
        q14_query(&db),
    ];
    for device in [SharedDevice::cpu_sequential(), SharedDevice::cpu(), SharedDevice::gpu()] {
        let session = Session::ocelot(&device);
        let mut dense_joins = 0;
        for query in &queries {
            let plan = query.lower(db.catalog()).unwrap();
            assert!(
                plan.nodes().iter().all(
                    |node| !node.op.name().ends_with("_join") || node.op.name() == "dense_join"
                ),
                "{}",
                plan.listing()
            );
            let (_, profile) = session.explain_analyze(&plan, db.catalog()).unwrap();
            for node in profile.nodes.iter().filter(|node| node.op.starts_with("dense_join")) {
                assert_eq!(node.marker.flushes, 1, "{}: {}", session.name(), node.op);
                dense_joins += 1;
            }
        }
        assert_eq!(dense_joins, 14, "{}", session.name());
    }
}

/// Every dense-join kernel under the armed detector: each declares its
/// accesses and no event-unordered pair conflicts. Each join flushes, so a
/// gather over the same keys and list is left pending before it: the pair
/// the detector compares.
#[test]
fn armed_race_detector_is_silent_over_every_dense_kernel() {
    let case = Case::generate(20_000, 0, 2, 50_000, 11);
    for ctx in [OcelotContext::cpu_sequential(), OcelotContext::cpu(), OcelotContext::gpu()] {
        let queue = ctx.queue();
        queue.race().arm();
        let keys = ctx.upload_i32(&case.keys, "keys").unwrap();
        let permutation = case.listed.clone().unwrap();
        let listed = ctx.upload_u32(&permutation, "listed").unwrap();
        let half = deferred(&ctx, &permutation[..permutation.len() / 2], permutation.len(), 0);
        for listed in [None, Some(&listed), Some(&half)] {
            for kind in KINDS {
                gather(&ctx, &keys, listed.unwrap_or(&half)).unwrap();
                join::dense_join(&ctx, &keys, listed, case.key, kind).unwrap();
            }
        }
        ctx.sync().unwrap();
        let stats = queue.race().stats();
        let diagnostics = queue.race().take_diagnostics();
        queue.race().disarm();
        let device = ctx.device().info().kind;
        assert!(diagnostics.is_empty(), "{device:?}: {diagnostics:?}");
        assert_eq!(stats.kernels_declared, stats.kernels_observed, "{device:?}: {stats:?}");
        assert!(stats.pairs_checked > 0, "{device:?}: {stats:?}");
    }
}

/// Density is a property of the values: consecutive from the first value,
/// without wrapping past `i32::MAX`, in an integer-word column.
#[test]
fn density_is_decided_from_the_data() {
    let ints = |values: Vec<i32>| Bat::from_i32("k", values).dense_base();
    assert_eq!(ints(vec![]), None, "an empty column has no base");
    assert_eq!(ints(vec![-7]), Some(-7), "one row is dense");
    assert_eq!(ints((5..1_005).collect()), Some(5));
    assert_eq!(ints((-3..3).rev().collect()), None, "descending");
    let mut off_by_one: Vec<i32> = (0..100).collect();
    off_by_one[99] = 100;
    assert_eq!(ints(off_by_one), None, "the last value one past its row");
    let mut gap: Vec<i32> = (0..100).collect();
    gap[40] = 41;
    assert_eq!(ints(gap), None, "a repeated value in the middle");
    assert_eq!(ints(vec![i32::MAX, i32::MIN]), None, "no wrapping past i32::MAX");
    assert_eq!(ints(((i32::MAX - 9)..=i32::MAX).collect()), Some(i32::MAX - 9));
    assert_eq!(ints((i32::MIN..i32::MIN + 10).collect()), Some(i32::MIN));
    assert_eq!(
        Bat::from_f32("f", vec![0.0, 1.0, 2.0]).dense_base(),
        None,
        "floats are never dense"
    );
    assert_eq!(Bat::from_oids("o", vec![0, 1, 2]).dense_base(), None, "OIDs are never dense");
    let dates = Bat::from_i32_typed("d", vec![10, 11, 12], ColumnType::Date);
    assert_eq!(dates.dense_base(), Some(10), "dates and dictionary codes are integer words");
    assert_eq!(DenseKey { base: i32::MAX - 1, rows: 2 }.row(i32::MIN), None);
    assert_eq!(DenseKey { base: i32::MAX - 1, rows: 2 }.row(i32::MAX), Some(1));
}

/// The generator's keys are dense, decided once per column: the first
/// compile of the workload scans the join keys, a warm compile scans
/// nothing and lowers node for node the same plan.
#[test]
fn density_is_scanned_once_per_column() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 12 });
    let decided = || {
        let catalog = db.catalog();
        let mut found: Vec<String> = Vec::new();
        for table in catalog.table_names() {
            for (name, bat) in catalog.table(table).unwrap().columns() {
                if bat.has_dense_base() {
                    found.push(format!("{table}.{name}"));
                }
            }
        }
        found.sort_unstable();
        found
    };
    assert!(decided().is_empty(), "dbgen decides nothing");
    let queries = [
        q3_query(&db),
        q4_query(&db),
        q5_query(&db),
        q10_query(&db),
        q12_queries(&db).0,
        q14_query(&db),
    ];
    let cold: Vec<_> = queries.iter().map(|query| query.lower(db.catalog()).unwrap()).collect();
    let scanned = decided();
    let keys = [("orders", "o_orderkey"), ("customer", "c_custkey"), ("supplier", "s_suppkey")];
    for (table, column) in
        keys.into_iter().chain([("part", "p_partkey"), ("nation", "n_nationkey")])
    {
        assert!(scanned.contains(&format!("{table}.{column}")), "{column}: {scanned:?}");
        assert_eq!(db.col(table, column).dense_base(), Some(0), "{column}");
    }
    let warm: Vec<_> = queries.iter().map(|query| query.lower(db.catalog()).unwrap()).collect();
    assert_eq!(warm, cold, "a warm compile lowers the same plans");
    assert_eq!(decided(), scanned, "and decides no column again");
}
