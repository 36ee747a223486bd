//! A row-at-a-time reference for every ported query — the oracle the engine
//! is checked against (paper §5.3: the modified workload must return the
//! same results on MonetDB and on Ocelot).
//!
//! Each query is written here a second time, as plain Rust over the
//! generated tables, following its SQL text. The rules that keep it an
//! independent check:
//!
//! * **No engine code.** The module reads columns by name through
//!   `ocelot_storage` and literals through the catalog's dictionaries, and
//!   uses `std` for everything else: nothing of `ocelot_engine`,
//!   `ocelot_core`, `ocelot_kernel` or `ocelot_monet` (`xlint`'s
//!   `reference-shares-engine-code` rule holds it to that).
//! * **Joins by value.** A join looks each foreign key up in a `BTreeMap`
//!   from the primary-key column's values to their rows (an `EXISTS` looks
//!   the key up in a `BTreeSet` of the subquery's keys), never by row
//!   position, so the reference is as right on [`crate::sparse_keys`]
//!   catalogs as on the generator's dense keys. Groupings are `BTreeMap`s
//!   from the key tuple to their accumulators.
//! * **f32 terms, f64 sums.** Each row's term is computed in `f32` exactly
//!   as the query writes it (`l_extendedprice * (1 - l_discount)`); sums
//!   accumulate in `f64`, and an `avg` is the `f64` sum over the count.
//!
//! The rows go through the same normalisation as the engine's results
//! (`queries::result_of`: every cell an `f64`, rows sorted by the leading
//! key columns), so the two compare with [`QueryResult::first_difference`].

use std::collections::{BTreeMap, BTreeSet};

use ocelot_storage::types::date_to_days;
use ocelot_storage::Catalog;

use crate::queries::{
    result_of, QueryError, QueryResult, Q10_COLUMNS, Q12_COLUMNS, Q14_COLUMNS, Q1_COLUMNS,
    Q3_COLUMNS, Q4_COLUMNS, Q5_COLUMNS, Q6_COLUMNS, QUERY_IDS,
};

/// Runs `query` row at a time over `catalog`. Ported queries return the
/// result the engine must reproduce; the rest of the workload reports
/// [`QueryError::Unsupported`], as `run_query` does.
pub fn run(catalog: &Catalog, query: u32) -> Result<QueryResult, QueryError> {
    let tables = Tables(catalog);
    match query {
        1 => q1(&tables),
        3 => q3(&tables),
        4 => q4(&tables),
        5 => q5(&tables),
        6 => q6(&tables),
        10 => q10(&tables),
        12 => q12(&tables),
        14 => q14(&tables),
        id if QUERY_IDS.contains(&id) => Err(QueryError::Unsupported { query: id }),
        id => Err(QueryError::NotInWorkload { query: id }),
    }
}

/// Typed, by-name access to a catalog's columns.
struct Tables<'a>(&'a Catalog);

impl<'a> Tables<'a> {
    fn ints(&self, table: &str, column: &str) -> Result<&'a [i32], QueryError> {
        let bat = self.0.column(table, column);
        bat.and_then(|bat| bat.as_i32()).ok_or_else(|| missing(table, column))
    }

    fn floats(&self, table: &str, column: &str) -> Result<&'a [f32], QueryError> {
        let bat = self.0.column(table, column);
        bat.and_then(|bat| bat.as_f32()).ok_or_else(|| missing(table, column))
    }

    /// The dictionary code of `literal`; `None` (equal to no row) when the
    /// literal never occurs.
    fn code(&self, table: &str, column: &str, literal: &str) -> Option<i32> {
        self.0.encode_literal(table, column, literal)
    }

    /// A table's rows by the values of its primary key.
    fn by_key(&self, table: &str, key: &str) -> Result<BTreeMap<i32, usize>, QueryError> {
        Ok(self.ints(table, key)?.iter().enumerate().map(|(row, &key)| (key, row)).collect())
    }
}

fn missing(table: &str, column: &str) -> QueryError {
    QueryError::MissingColumn { table: table.to_string(), column: column.to_string() }
}

// SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
//        sum(l_extendedprice * (1 - l_discount)),
//        sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
//        avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
// FROM lineitem WHERE l_shipdate <= date '1998-09-02'
// GROUP BY l_returnflag, l_linestatus
fn q1(t: &Tables) -> Result<QueryResult, QueryError> {
    let shipdate = t.ints("lineitem", "l_shipdate")?;
    let returnflag = t.ints("lineitem", "l_returnflag")?;
    let linestatus = t.ints("lineitem", "l_linestatus")?;
    let quantity = t.floats("lineitem", "l_quantity")?;
    let price = t.floats("lineitem", "l_extendedprice")?;
    let discount = t.floats("lineitem", "l_discount")?;
    let tax = t.floats("lineitem", "l_tax")?;
    let cutoff = date_to_days(1998, 9, 2);

    #[derive(Default)]
    struct Sums {
        quantity: f64,
        price: f64,
        disc_price: f64,
        charge: f64,
        discount: f64,
        count: f64,
    }
    let mut groups: BTreeMap<(i32, i32), Sums> = BTreeMap::new();
    for i in 0..shipdate.len() {
        if shipdate[i] <= cutoff {
            let disc_price = price[i] * (1.0 - discount[i]);
            let charge = disc_price * (1.0 + tax[i]);
            let sums = groups.entry((returnflag[i], linestatus[i])).or_default();
            sums.quantity += quantity[i] as f64;
            sums.price += price[i] as f64;
            sums.disc_price += disc_price as f64;
            sums.charge += charge as f64;
            sums.discount += discount[i] as f64;
            sums.count += 1.0;
        }
    }
    let rows = groups
        .into_iter()
        .map(|((flag, status), s)| {
            vec![
                flag as f64,
                status as f64,
                s.quantity,
                s.price,
                s.disc_price,
                s.charge,
                s.quantity / s.count,
                s.price / s.count,
                s.discount / s.count,
                s.count,
            ]
        })
        .collect();
    Ok(result_of(1, &Q1_COLUMNS, rows, 2))
}

// SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
//        o_orderdate, o_shippriority
// FROM customer, orders, lineitem
// WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
//   AND l_orderkey = o_orderkey AND o_orderdate < date '1995-03-15'
//   AND l_shipdate > date '1995-03-15'
// GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC
fn q3(t: &Tables) -> Result<QueryResult, QueryError> {
    let building = t.code("customer", "c_mktsegment", "BUILDING");
    let c_mktsegment = t.ints("customer", "c_mktsegment")?;
    let customers = t.by_key("customer", "c_custkey")?;
    let o_custkey = t.ints("orders", "o_custkey")?;
    let o_orderdate = t.ints("orders", "o_orderdate")?;
    let o_shippriority = t.ints("orders", "o_shippriority")?;
    let orders = t.by_key("orders", "o_orderkey")?;
    let l_orderkey = t.ints("lineitem", "l_orderkey")?;
    let l_shipdate = t.ints("lineitem", "l_shipdate")?;
    let price = t.floats("lineitem", "l_extendedprice")?;
    let discount = t.floats("lineitem", "l_discount")?;
    let cutoff = date_to_days(1995, 3, 15);

    let mut revenue: BTreeMap<(i32, i32, i32), f64> = BTreeMap::new();
    for i in 0..l_orderkey.len() {
        let Some(&o) = orders.get(&l_orderkey[i]) else { continue };
        let Some(&c) = customers.get(&o_custkey[o]) else { continue };
        if Some(c_mktsegment[c]) == building && o_orderdate[o] < cutoff && l_shipdate[i] > cutoff {
            let key = (l_orderkey[i], o_orderdate[o], o_shippriority[o]);
            *revenue.entry(key).or_default() += (price[i] * (1.0 - discount[i])) as f64;
        }
    }
    let rows = revenue
        .into_iter()
        .map(|((orderkey, date, priority), sum)| {
            vec![orderkey as f64, sum, date as f64, priority as f64]
        })
        .collect();
    Ok(result_of(3, &Q3_COLUMNS, rows, 1))
}

// SELECT o_orderpriority, count(*) AS order_count FROM orders
// WHERE o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01'
//   AND EXISTS (SELECT * FROM lineitem
//               WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
// GROUP BY o_orderpriority ORDER BY o_orderpriority
fn q4(t: &Tables) -> Result<QueryResult, QueryError> {
    let l_orderkey = t.ints("lineitem", "l_orderkey")?;
    let l_commitdate = t.ints("lineitem", "l_commitdate")?;
    let l_receiptdate = t.ints("lineitem", "l_receiptdate")?;
    let o_orderkey = t.ints("orders", "o_orderkey")?;
    let o_orderdate = t.ints("orders", "o_orderdate")?;
    let o_orderpriority = t.ints("orders", "o_orderpriority")?;
    let (lo, hi) = (date_to_days(1993, 7, 1), date_to_days(1993, 10, 1));

    let mut late_orders = BTreeSet::new();
    for i in 0..l_orderkey.len() {
        if l_commitdate[i] < l_receiptdate[i] {
            late_orders.insert(l_orderkey[i]);
        }
    }
    let mut counts: BTreeMap<i32, f64> = BTreeMap::new();
    for o in 0..o_orderkey.len() {
        if lo <= o_orderdate[o] && o_orderdate[o] < hi && late_orders.contains(&o_orderkey[o]) {
            *counts.entry(o_orderpriority[o]).or_default() += 1.0;
        }
    }
    let rows = counts.into_iter().map(|(priority, n)| vec![priority as f64, n]).collect();
    Ok(result_of(4, &Q4_COLUMNS, rows, 1))
}

// SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
// FROM customer, orders, lineitem, supplier, nation, region
// WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
//   AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
//   AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
//   AND r_name = 'ASIA'
//   AND o_orderdate >= date '1994-01-01' AND o_orderdate < date '1995-01-01'
// GROUP BY n_name ORDER BY revenue DESC
fn q5(t: &Tables) -> Result<QueryResult, QueryError> {
    let asia = t.code("region", "r_name", "ASIA");
    let r_name = t.ints("region", "r_name")?;
    let regions = t.by_key("region", "r_regionkey")?;
    let n_name = t.ints("nation", "n_name")?;
    let n_regionkey = t.ints("nation", "n_regionkey")?;
    let nations = t.by_key("nation", "n_nationkey")?;
    let s_nationkey = t.ints("supplier", "s_nationkey")?;
    let suppliers = t.by_key("supplier", "s_suppkey")?;
    let c_nationkey = t.ints("customer", "c_nationkey")?;
    let customers = t.by_key("customer", "c_custkey")?;
    let o_custkey = t.ints("orders", "o_custkey")?;
    let o_orderdate = t.ints("orders", "o_orderdate")?;
    let orders = t.by_key("orders", "o_orderkey")?;
    let l_orderkey = t.ints("lineitem", "l_orderkey")?;
    let l_suppkey = t.ints("lineitem", "l_suppkey")?;
    let price = t.floats("lineitem", "l_extendedprice")?;
    let discount = t.floats("lineitem", "l_discount")?;
    let (lo, hi) = (date_to_days(1994, 1, 1), date_to_days(1995, 1, 1));

    let mut revenue: BTreeMap<i32, f64> = BTreeMap::new();
    for i in 0..l_orderkey.len() {
        let Some(&o) = orders.get(&l_orderkey[i]) else { continue };
        let Some(&c) = customers.get(&o_custkey[o]) else { continue };
        let Some(&s) = suppliers.get(&l_suppkey[i]) else { continue };
        let Some(&n) = nations.get(&s_nationkey[s]) else { continue };
        let Some(&r) = regions.get(&n_regionkey[n]) else { continue };
        if c_nationkey[c] == s_nationkey[s]
            && Some(r_name[r]) == asia
            && lo <= o_orderdate[o]
            && o_orderdate[o] < hi
        {
            *revenue.entry(n_name[n]).or_default() += (price[i] * (1.0 - discount[i])) as f64;
        }
    }
    let rows = revenue.into_iter().map(|(name, sum)| vec![name as f64, sum]).collect();
    Ok(result_of(5, &Q5_COLUMNS, rows, 1))
}

// SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem
// WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
//   AND l_discount BETWEEN 0.06 - 0.01 AND 0.06 + 0.01 AND l_quantity < 24
//
// The workload writes the band as 0.05 .. 0.07 widened by 0.001 (the f32
// discounts sit on either side of the decimal bounds) and the quantity
// bound as <= 23.5 (quantities are whole).
fn q6(t: &Tables) -> Result<QueryResult, QueryError> {
    let shipdate = t.ints("lineitem", "l_shipdate")?;
    let discount = t.floats("lineitem", "l_discount")?;
    let quantity = t.floats("lineitem", "l_quantity")?;
    let price = t.floats("lineitem", "l_extendedprice")?;
    let (lo, hi) = (date_to_days(1994, 1, 1), date_to_days(1995, 1, 1));
    let (low_discount, high_discount) = (0.05f32 - 0.001, 0.07f32 + 0.001);

    let mut revenue = 0.0f64;
    for i in 0..shipdate.len() {
        if lo <= shipdate[i]
            && shipdate[i] < hi
            && low_discount <= discount[i]
            && discount[i] <= high_discount
            && quantity[i] <= 23.5
        {
            revenue += (price[i] * discount[i]) as f64;
        }
    }
    Ok(result_of(6, &Q6_COLUMNS, vec![vec![revenue]], 0))
}

// SELECT c_custkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
//        c_acctbal, n_name
// FROM customer, orders, lineitem, nation
// WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
//   AND o_orderdate >= date '1993-10-01' AND o_orderdate < date '1994-01-01'
//   AND l_returnflag = 'R' AND c_nationkey = n_nationkey
// GROUP BY c_custkey, c_acctbal, n_name ORDER BY revenue DESC
fn q10(t: &Tables) -> Result<QueryResult, QueryError> {
    let returned = t.code("lineitem", "l_returnflag", "R");
    let n_name = t.ints("nation", "n_name")?;
    let nations = t.by_key("nation", "n_nationkey")?;
    let c_custkey = t.ints("customer", "c_custkey")?;
    let c_acctbal = t.floats("customer", "c_acctbal")?;
    let c_nationkey = t.ints("customer", "c_nationkey")?;
    let customers = t.by_key("customer", "c_custkey")?;
    let o_custkey = t.ints("orders", "o_custkey")?;
    let o_orderdate = t.ints("orders", "o_orderdate")?;
    let orders = t.by_key("orders", "o_orderkey")?;
    let l_orderkey = t.ints("lineitem", "l_orderkey")?;
    let l_returnflag = t.ints("lineitem", "l_returnflag")?;
    let price = t.floats("lineitem", "l_extendedprice")?;
    let discount = t.floats("lineitem", "l_discount")?;
    let (lo, hi) = (date_to_days(1993, 10, 1), date_to_days(1994, 1, 1));

    // c_acctbal and n_name depend on the customer: its key, its row and
    // its nation's row identify the group.
    let mut revenue: BTreeMap<i32, (usize, usize, f64)> = BTreeMap::new();
    for i in 0..l_orderkey.len() {
        let Some(&o) = orders.get(&l_orderkey[i]) else { continue };
        let Some(&c) = customers.get(&o_custkey[o]) else { continue };
        let Some(&n) = nations.get(&c_nationkey[c]) else { continue };
        if lo <= o_orderdate[o] && o_orderdate[o] < hi && Some(l_returnflag[i]) == returned {
            let (_, _, sum) = revenue.entry(c_custkey[c]).or_insert((c, n, 0.0));
            *sum += (price[i] * (1.0 - discount[i])) as f64;
        }
    }
    let rows = revenue
        .into_iter()
        .map(|(custkey, (c, n, sum))| {
            vec![custkey as f64, sum, c_acctbal[c] as f64, n_name[n] as f64]
        })
        .collect();
    Ok(result_of(10, &Q10_COLUMNS, rows, 1))
}

// SELECT l_shipmode,
//        sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
//                 THEN 1 ELSE 0 END) AS high_line_count,
//        sum(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH'
//                 THEN 1 ELSE 0 END) AS low_line_count
// FROM orders, lineitem
// WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
//   AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
//   AND l_receiptdate >= date '1994-01-01' AND l_receiptdate < date '1995-01-01'
// GROUP BY l_shipmode ORDER BY l_shipmode
fn q12(t: &Tables) -> Result<QueryResult, QueryError> {
    let mail = t.code("lineitem", "l_shipmode", "MAIL");
    let ship = t.code("lineitem", "l_shipmode", "SHIP");
    let urgent = t.code("orders", "o_orderpriority", "1-URGENT");
    let high = t.code("orders", "o_orderpriority", "2-HIGH");
    let o_orderpriority = t.ints("orders", "o_orderpriority")?;
    let orders = t.by_key("orders", "o_orderkey")?;
    let l_orderkey = t.ints("lineitem", "l_orderkey")?;
    let l_shipmode = t.ints("lineitem", "l_shipmode")?;
    let l_shipdate = t.ints("lineitem", "l_shipdate")?;
    let l_commitdate = t.ints("lineitem", "l_commitdate")?;
    let l_receiptdate = t.ints("lineitem", "l_receiptdate")?;
    let (lo, hi) = (date_to_days(1994, 1, 1), date_to_days(1995, 1, 1));

    let mut counts: BTreeMap<i32, (f64, f64)> = BTreeMap::new();
    for i in 0..l_orderkey.len() {
        let Some(&o) = orders.get(&l_orderkey[i]) else { continue };
        let mode = Some(l_shipmode[i]);
        if (mode == mail || mode == ship)
            && l_commitdate[i] < l_receiptdate[i]
            && l_shipdate[i] < l_commitdate[i]
            && lo <= l_receiptdate[i]
            && l_receiptdate[i] < hi
        {
            let priority = Some(o_orderpriority[o]);
            let (high_lines, low_lines) = counts.entry(l_shipmode[i]).or_default();
            if priority == urgent || priority == high {
                *high_lines += 1.0;
            }
            if priority != urgent && priority != high {
                *low_lines += 1.0;
            }
        }
    }
    let rows = counts.into_iter().map(|(mode, (high, low))| vec![mode as f64, high, low]).collect();
    Ok(result_of(12, &Q12_COLUMNS, rows, 1))
}

// SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
//                          THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
//        / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
// FROM lineitem, part
// WHERE l_partkey = p_partkey
//   AND l_shipdate >= date '1995-09-01' AND l_shipdate < date '1995-10-01'
//
// An empty month reports a share of 0, as the engine's port does.
fn q14(t: &Tables) -> Result<QueryResult, QueryError> {
    let types = t.0.dictionary("part", "p_type");
    let is_promo = |code: i32| {
        types.and_then(|types| types.decode(code)).is_some_and(|name| name.starts_with("PROMO"))
    };
    let p_type = t.ints("part", "p_type")?;
    let parts = t.by_key("part", "p_partkey")?;
    let l_partkey = t.ints("lineitem", "l_partkey")?;
    let l_shipdate = t.ints("lineitem", "l_shipdate")?;
    let price = t.floats("lineitem", "l_extendedprice")?;
    let discount = t.floats("lineitem", "l_discount")?;
    let (lo, hi) = (date_to_days(1995, 9, 1), date_to_days(1995, 10, 1));

    let (mut promo, mut total) = (0.0f64, 0.0f64);
    for i in 0..l_partkey.len() {
        let Some(&p) = parts.get(&l_partkey[i]) else { continue };
        if lo <= l_shipdate[i] && l_shipdate[i] < hi {
            let revenue = (price[i] * (1.0 - discount[i])) as f64;
            if is_promo(p_type[p]) {
                promo += revenue;
            }
            total += revenue;
        }
    }
    let share = if total == 0.0 { 0.0 } else { 100.0 * promo / total };
    Ok(result_of(14, &Q14_COLUMNS, vec![vec![share]], 0))
}
