//! The evaluated TPC-H queries, expressed in the engine's **logical query
//! algebra** (`ocelot_engine::query`) so the same declarative query runs on
//! MS, MP, Ocelot CPU and Ocelot GPU (paper §5.3, Appendix A) — and so the
//! *engine*, not the query author, picks the physical operators.
//!
//! [`QUERY_IDS`] lists the fourteen queries of the paper's modified
//! workload. Ported through the DSL so far: **Q1, Q3, Q4, Q5, Q6, Q10, Q12
//! and Q14** (Q14 sits outside the modified workload — the paper dropped it
//! for `LIKE` — but the dictionary makes its prefix predicate a code set,
//! so it rides along as the join + single-group pattern).
//!
//! Every `q*_query` function builds a [`Query`] in declarative style —
//! joins first, predicates where SQL puts them — and relies on the rewrite
//! rules (predicate pushdown, selectivity ordering, projection pruning) and
//! the lowering pass to produce the physical plan. The **hand-built plans**
//! that previously implemented Q3/Q4/Q6/Q12 ([`q3_plan`], [`q4_plan`],
//! [`q6_plan`], [`q12_plan`]) and the direct-`Backend` Q1 ([`q1_direct`])
//! are kept verbatim as *oracles*: [`run_query_reference`] executes them,
//! and the parity suites assert the DSL-lowered plans reproduce their
//! results on all four backends.
//!
//! The rest of the workload (Q7, Q8, Q11, Q15, Q17, Q19, Q21) is not
//! ported yet; [`run_query`] returns [`QueryError::Unsupported`] for those
//! queries so harnesses can skip — structurally, not by pattern-matching on
//! `None`.
//!
//! Results are normalised for comparison across configurations: every cell
//! is an `f64` (dictionary-coded string columns are reported as their
//! codes), and rows are sorted by the leading key columns, so two backends
//! producing the same multiset of rows compare equal.

use ocelot_engine::plan::{Plan, PlanBuilder, PlanError, QueryValue};
use ocelot_engine::query::{col, lit, param, AggSpec, ParamValue, Query, QueryBuildError};
use ocelot_engine::{Backend, GroupedAgg, Map, Pred, Session};
use ocelot_storage::types::date_to_days;
use std::fmt;

use crate::dbgen::TpchDb;

/// The fourteen query ids of the paper's modified TPC-H workload.
pub const QUERY_IDS: [u32; 14] = [1, 3, 4, 5, 6, 7, 8, 10, 11, 12, 15, 17, 19, 21];

/// The query ids [`run_query`] can execute (through the query DSL).
pub const PORTED_QUERY_IDS: [u32; 8] = [1, 3, 4, 5, 6, 10, 12, 14];

/// The query ids [`run_query_reference`] can execute — the hand-built
/// physical oracles the DSL ports are verified against.
pub const REFERENCE_QUERY_IDS: [u32; 5] = [1, 3, 4, 6, 12];

/// A backend-independent query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The TPC-H query number.
    pub query: u32,
    /// Column headers, in output order.
    pub columns: Vec<String>,
    /// Result rows (dictionary codes for string columns), sorted by the
    /// leading key columns for cross-backend comparability.
    pub rows: Vec<Vec<f64>>,
}

impl QueryResult {
    /// Whether two results agree within a floating-point tolerance — the
    /// cross-backend half of the equality rule (`ocelot_core::ops::aggregate`
    /// module docs): aggregation order differs between backends, so floats
    /// compare within a relative bound there. Run to run on one backend
    /// and device configuration results are bit-equal; compare with `==`.
    pub fn approx_eq(&self, other: &QueryResult, rel_tol: f64) -> bool {
        if self.query != other.query
            || self.columns != other.columns
            || self.rows.len() != other.rows.len()
        {
            return false;
        }
        self.rows.iter().zip(&other.rows).all(|(a, b)| {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= rel_tol * scale
                })
        })
    }
}

/// Why a query could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query is part of the modified workload but not ported yet.
    Unsupported {
        /// The TPC-H query number.
        query: u32,
    },
    /// The query is not part of the paper's modified TPC-H workload.
    NotInWorkload {
        /// The TPC-H query number.
        query: u32,
    },
    /// The logical query could not be rewritten or lowered.
    Build(QueryBuildError),
    /// Plan construction or execution failed.
    Plan(PlanError),
    /// A plan executed but returned a result shape the query code did not
    /// expect (engine/query drift — always a bug, never silently zero).
    MalformedResult {
        /// The TPC-H query number.
        query: u32,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Unsupported { query } => {
                write!(f, "TPC-H Q{query} is not ported yet")
            }
            QueryError::NotInWorkload { query } => {
                write!(f, "Q{query} is not part of the modified TPC-H workload")
            }
            QueryError::Build(error) => write!(f, "query build error: {error}"),
            QueryError::Plan(error) => write!(f, "plan error: {error}"),
            QueryError::MalformedResult { query } => {
                write!(f, "Q{query}'s plan returned an unexpected result shape")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<PlanError> for QueryError {
    fn from(error: PlanError) -> QueryError {
        QueryError::Plan(error)
    }
}

impl From<QueryBuildError> for QueryError {
    fn from(error: QueryBuildError) -> QueryError {
        QueryError::Build(error)
    }
}

/// Runs a query in a session, through the query DSL and its optimizing
/// lowering. Ported queries return their normalised result; the rest of the
/// workload reports [`QueryError::Unsupported`].
pub fn run_query<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    query: u32,
) -> Result<QueryResult, QueryError> {
    match query {
        1 => q1(session, db),
        3 => q3(session, db),
        4 => q4(session, db),
        5 => q5(session, db),
        6 => q6(session, db),
        10 => q10(session, db),
        12 => q12(session, db),
        14 => q14(session, db),
        id if QUERY_IDS.contains(&id) => Err(QueryError::Unsupported { query: id }),
        id => Err(QueryError::NotInWorkload { query: id }),
    }
}

/// Runs a query through the **hand-built physical oracle** path (the plans
/// the DSL replaced, kept for parity verification and ablation baselines).
pub fn run_query_reference<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    query: u32,
) -> Result<QueryResult, QueryError> {
    match query {
        1 => Ok(q1_direct(session.backend(), db)?),
        3 => shape_q3(session.run(&q3_plan(db)?, db.catalog())?),
        4 => shape_q4(session.run(&q4_plan(db)?, db.catalog())?),
        6 => shape_q6(session.run(&q6_plan(db)?, db.catalog())?),
        12 => {
            let values = session.run(&q12_plan(db)?, db.catalog())?;
            let [all_keys, all_counts, high_keys, high_counts] = values.as_slice() else {
                return Err(QueryError::MalformedResult { query: 12 });
            };
            Ok(shape_q12(
                floats(all_keys),
                floats(all_counts),
                floats(high_keys),
                floats(high_counts),
            ))
        }
        id => Err(QueryError::Unsupported { query: id }),
    }
}

fn sort_rows(rows: &mut [Vec<f64>], key_cols: usize) {
    rows.sort_by(|a, b| {
        a[..key_cols]
            .iter()
            .zip(&b[..key_cols])
            .map(|(x, y)| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

fn floats(value: &QueryValue) -> Vec<f64> {
    match value {
        QueryValue::Scalar(s) => vec![*s as f64],
        QueryValue::IntColumn(v) => v.iter().map(|x| *x as f64).collect(),
        QueryValue::FloatColumn(v) => v.iter().map(|x| *x as f64).collect(),
        QueryValue::OidColumn(v) => v.iter().map(|x| *x as f64).collect(),
    }
}

/// Column-major result values → row-major float rows (all columns must
/// agree in length).
fn rows_from(values: &[QueryValue]) -> Option<Vec<Vec<f64>>> {
    let columns: Vec<Vec<f64>> = values.iter().map(floats).collect();
    let len = columns.first()?.len();
    if columns.iter().any(|c| c.len() != len) {
        return None;
    }
    Some((0..len).map(|row| columns.iter().map(|c| c[row]).collect()).collect())
}

fn result_of(
    query: u32,
    columns: &[&str],
    mut rows: Vec<Vec<f64>>,
    key_cols: usize,
) -> QueryResult {
    sort_rows(&mut rows, key_cols);
    QueryResult { query, columns: columns.iter().map(|s| s.to_string()).collect(), rows }
}

// ===========================================================================
// Q1 — pricing summary report
// ===========================================================================

/// Q1 through the query DSL: one scan-side date filter, two computed
/// columns, an eight-aggregate two-key grouping.
pub fn q1_query(db: &TpchDb) -> Query {
    let _ = db; // Q1's literals are scale-independent.
    Query::scan("lineitem")
        .filter(col("l_shipdate").le(date_to_days(1998, 9, 2)))
        .map("disc_price", col("l_extendedprice") * (lit(1.0f32) - col("l_discount")))
        .map("charge", col("disc_price") * (lit(1.0f32) + col("l_tax")))
        .group_by(
            &["l_returnflag", "l_linestatus"],
            &[
                AggSpec::sum("l_quantity", "sum_qty"),
                AggSpec::sum("l_extendedprice", "sum_base_price"),
                AggSpec::sum("disc_price", "sum_disc_price"),
                AggSpec::sum("charge", "sum_charge"),
                AggSpec::avg("l_quantity", "avg_qty"),
                AggSpec::avg("l_extendedprice", "avg_price"),
                AggSpec::avg("l_discount", "avg_disc"),
                AggSpec::count("count_order"),
            ],
        )
}

/// Q1 as a prepared *shape* for the serving layer: the shipdate cutoff is
/// parameter `$0`, so one compiled plan serves every reporting date. Bind
/// with [`q1_params`] to reproduce [`q1_query`] exactly.
pub fn q1_query_p(db: &TpchDb) -> Query {
    let _ = db; // Q1's shape is scale-independent.
    Query::scan("lineitem")
        .filter(col("l_shipdate").le(param(0)))
        .map("disc_price", col("l_extendedprice") * (lit(1.0f32) - col("l_discount")))
        .map("charge", col("disc_price") * (lit(1.0f32) + col("l_tax")))
        .group_by(
            &["l_returnflag", "l_linestatus"],
            &[
                AggSpec::sum("l_quantity", "sum_qty"),
                AggSpec::sum("l_extendedprice", "sum_base_price"),
                AggSpec::sum("disc_price", "sum_disc_price"),
                AggSpec::sum("charge", "sum_charge"),
                AggSpec::avg("l_quantity", "avg_qty"),
                AggSpec::avg("l_extendedprice", "avg_price"),
                AggSpec::avg("l_discount", "avg_disc"),
                AggSpec::count("count_order"),
            ],
        )
}

/// The workload's standard binding for [`q1_query_p`]: the 1998-09-02
/// cutoff of [`q1_query`].
pub fn q1_params() -> Vec<ParamValue> {
    vec![date_to_days(1998, 9, 2).into()]
}

const Q1_COLUMNS: [&str; 10] = [
    "l_returnflag",
    "l_linestatus",
    "sum_qty",
    "sum_base_price",
    "sum_disc_price",
    "sum_charge",
    "avg_qty",
    "avg_price",
    "avg_disc",
    "count_order",
];

fn q1<B: Backend>(session: &Session<B>, db: &TpchDb) -> Result<QueryResult, QueryError> {
    let values = q1_query(db).run(session, db.catalog())?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 1 })?;
    Ok(result_of(1, &Q1_COLUMNS, rows, 2))
}

/// The pre-DSL Q1, written directly against the [`Backend`] trait — kept
/// as the oracle the DSL port is verified against.
pub fn q1_direct<B: Backend>(b: &B, db: &TpchDb) -> Result<QueryResult, PlanError> {
    let shipdate = b.bat(db.col("lineitem", "l_shipdate"))?;
    let cands = b.select(
        &[&shipdate],
        &Pred::RangeI32 { col: 0, low: i32::MIN, high: date_to_days(1998, 9, 2) },
        None,
    )?;

    let returnflag = b.fetch(&b.bat(db.col("lineitem", "l_returnflag"))?, &cands)?;
    let linestatus = b.fetch(&b.bat(db.col("lineitem", "l_linestatus"))?, &cands)?;
    let quantity = b.fetch(&b.bat(db.col("lineitem", "l_quantity"))?, &cands)?;
    let price = b.fetch(&b.bat(db.col("lineitem", "l_extendedprice"))?, &cands)?;
    let discount = b.fetch(&b.bat(db.col("lineitem", "l_discount"))?, &cands)?;
    let tax = b.fetch(&b.bat(db.col("lineitem", "l_tax"))?, &cands)?;

    // disc_price = price * (1 - discount); charge = disc_price * (1 + tax)
    let one_minus_disc = b.map(&[&discount], &Map::ConstMinus(1.0, Map::leaf(0)))?;
    let disc_price = b.map(&[&price, &one_minus_disc], &Map::Mul(Map::leaf(0), Map::leaf(1)))?;
    let one_plus_tax = b.map(&[&tax], &Map::ConstPlus(1.0, Map::leaf(0)))?;
    let charge = b.map(&[&disc_price, &one_plus_tax], &Map::Mul(Map::leaf(0), Map::leaf(1)))?;

    let groups = b.group_by(&[&returnflag, &linestatus])?;
    // Value columns by position: quantity, price, disc_price, charge, discount.
    let values = [&quantity, &price, &disc_price, &charge, &discount];
    let aggs = b.grouped_aggs(
        &groups,
        &values,
        &[
            GroupedAgg::Sum(0),
            GroupedAgg::Sum(1),
            GroupedAgg::Sum(2),
            GroupedAgg::Sum(3),
            GroupedAgg::Avg(0),
            GroupedAgg::Avg(1),
            GroupedAgg::Avg(4),
            GroupedAgg::Count,
        ],
    )?;
    let aggs: Vec<Vec<f32>> =
        aggs.iter().map(|column| b.to_f32(column)).collect::<Result<_, _>>()?;

    // The representatives carry the grouping key values.
    let rf_keys = b.to_i32(&b.fetch(&returnflag, &groups.representatives)?)?;
    let ls_keys = b.to_i32(&b.fetch(&linestatus, &groups.representatives)?)?;

    let rows: Vec<Vec<f64>> = (0..groups.num_groups)
        .map(|g| {
            let mut row = vec![rf_keys[g] as f64, ls_keys[g] as f64];
            row.extend(aggs.iter().map(|column| column[g] as f64));
            row
        })
        .collect();
    Ok(result_of(1, &Q1_COLUMNS, rows, 2))
}

// ===========================================================================
// Q3 — shipping priority
// ===========================================================================

/// Q3 through the query DSL, written declaratively: the three-table join
/// first, all predicates above it (predicate pushdown moves them onto
/// their scans), grouping and ordering last.
pub fn q3_query(db: &TpchDb) -> Query {
    let cutoff = date_to_days(1995, 3, 15);
    let segment = db.code("customer", "c_mktsegment", "BUILDING");
    Query::scan("lineitem")
        .join(
            Query::scan("orders").join(Query::scan("customer"), "o_custkey", "c_custkey"),
            "l_orderkey",
            "o_orderkey",
        )
        .filter(col("c_mktsegment").eq(segment))
        .filter(col("o_orderdate").lt(cutoff))
        .filter(col("l_shipdate").gt(cutoff))
        .map("revenue", col("l_extendedprice") * (lit(1.0f32) - col("l_discount")))
        .group_by(
            &["l_orderkey", "o_orderdate", "o_shippriority"],
            &[AggSpec::sum("revenue", "revenue")],
        )
        .sort_by("revenue", true)
        .select(&["l_orderkey", "revenue", "o_orderdate", "o_shippriority"])
}

/// Q3 as a prepared shape: the order/ship cutoff date is `$0` (one slot,
/// used by *two* predicates) and the market-segment code is `$1`. Bind
/// with [`q3_params`] to reproduce [`q3_query`] exactly.
pub fn q3_query_p(db: &TpchDb) -> Query {
    let _ = db; // Codes move into the parameter binding.
    Query::scan("lineitem")
        .join(
            Query::scan("orders").join(Query::scan("customer"), "o_custkey", "c_custkey"),
            "l_orderkey",
            "o_orderkey",
        )
        .filter(col("c_mktsegment").eq(param(1)))
        .filter(col("o_orderdate").lt(param(0)))
        .filter(col("l_shipdate").gt(param(0)))
        .map("revenue", col("l_extendedprice") * (lit(1.0f32) - col("l_discount")))
        .group_by(
            &["l_orderkey", "o_orderdate", "o_shippriority"],
            &[AggSpec::sum("revenue", "revenue")],
        )
        .sort_by("revenue", true)
        .select(&["l_orderkey", "revenue", "o_orderdate", "o_shippriority"])
}

/// The workload's standard binding for [`q3_query_p`]: the 1995-03-15
/// cutoff and the BUILDING segment code of [`q3_query`].
pub fn q3_params(db: &TpchDb) -> Vec<ParamValue> {
    vec![date_to_days(1995, 3, 15).into(), db.code("customer", "c_mktsegment", "BUILDING").into()]
}

fn shape_q3(values: Vec<QueryValue>) -> Result<QueryResult, QueryError> {
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 3 })?;
    // The plan orders by revenue; normalise by the (unique) order key so
    // backends with different sort tie-breaking compare equal.
    Ok(result_of(3, &["l_orderkey", "revenue", "o_orderdate", "o_shippriority"], rows, 1))
}

fn q3<B: Backend>(session: &Session<B>, db: &TpchDb) -> Result<QueryResult, QueryError> {
    shape_q3(q3_query(db).run(session, db.catalog())?)
}

/// The hand-built physical plan of Q3 — the DSL port's oracle.
///
/// The DAG exercises every multi-operator node kind: two FK/PK hash joins
/// (whose build restart checks are host-resolve points), a three-column
/// group-by (group count resolve), per-group sums and a descending float
/// sort (pass-schedule resolve) — exactly the points the scheduler can
/// overlap with other queries' device work.
pub fn q3_plan(db: &TpchDb) -> Result<Plan, PlanError> {
    let cutoff = date_to_days(1995, 3, 15);
    let segment = db.code("customer", "c_mktsegment", "BUILDING");
    let mut p = PlanBuilder::new();

    // customer: the BUILDING segment and its (unique) keys.
    let mktsegment = p.bind("customer", "c_mktsegment");
    let building = p.select(Pred::EqI32 { col: 0, needle: segment }, &[mktsegment], None)?;
    let custkey = p.bind("customer", "c_custkey");
    let building_keys = p.fetch(custkey, building)?;

    // orders before the cutoff, restricted to those customers.
    let orderdate = p.bind("orders", "o_orderdate");
    let early =
        p.select(Pred::RangeI32 { col: 0, low: i32::MIN, high: cutoff - 1 }, &[orderdate], None)?;
    let o_custkey = p.bind("orders", "o_custkey");
    let early_custkeys = p.fetch(o_custkey, early)?;
    let (order_pos, _) = p.pkfk_join(early_custkeys, building_keys)?;
    let order_oids = p.fetch(early, order_pos)?;
    let orderkey = p.bind("orders", "o_orderkey");
    let qualifying_orderkeys = p.fetch(orderkey, order_oids)?;

    // lineitem shipped after the cutoff, joined to the qualifying orders.
    let shipdate = p.bind("lineitem", "l_shipdate");
    let late =
        p.select(Pred::RangeI32 { col: 0, low: cutoff + 1, high: i32::MAX }, &[shipdate], None)?;
    let l_orderkey = p.bind("lineitem", "l_orderkey");
    let late_orderkeys = p.fetch(l_orderkey, late)?;
    let (line_pos, order_match) = p.pkfk_join(late_orderkeys, qualifying_orderkeys)?;
    let line_oids = p.fetch(late, line_pos)?;
    let line_orders = p.fetch(order_oids, order_match)?;

    // revenue = sum(l_extendedprice * (1 - l_discount)) per group.
    let price = p.bind("lineitem", "l_extendedprice");
    let price_sel = p.fetch(price, line_oids)?;
    let discount = p.bind("lineitem", "l_discount");
    let discount_sel = p.fetch(discount, line_oids)?;
    let one_minus = p.map(Map::ConstMinus(1.0, Map::leaf(0)), &[discount_sel])?;
    let revenue = p.map(Map::Mul(Map::leaf(0), Map::leaf(1)), &[price_sel, one_minus])?;

    // Group by (l_orderkey, o_orderdate, o_shippriority).
    let key_orderkey = p.fetch(l_orderkey, line_oids)?;
    let key_orderdate = p.fetch(orderdate, line_orders)?;
    let shippriority = p.bind("orders", "o_shippriority");
    let key_priority = p.fetch(shippriority, line_orders)?;
    let group = p.group_by(&[key_orderkey, key_orderdate, key_priority])?;
    let revenue_per_group = p.grouped_sum_f32(revenue, group)?;
    let reps = p.group_reps(group)?;
    let out_orderkey = p.fetch(key_orderkey, reps)?;
    let out_orderdate = p.fetch(key_orderdate, reps)?;
    let out_priority = p.fetch(key_priority, reps)?;

    // ORDER BY revenue DESC, materialised through the sort permutation.
    let order = p.sort_order_f32(revenue_per_group, true)?;
    let sorted_orderkey = p.fetch(out_orderkey, order)?;
    let sorted_revenue = p.fetch(revenue_per_group, order)?;
    let sorted_orderdate = p.fetch(out_orderdate, order)?;
    let sorted_priority = p.fetch(out_priority, order)?;
    p.result(&[sorted_orderkey, sorted_revenue, sorted_orderdate, sorted_priority])?;
    Ok(p.finish())
}

// ===========================================================================
// Q4 — order priority checking
// ===========================================================================

/// Q4 through the query DSL: `EXISTS` as a semi join against the lagging
/// lineitems; the `l_commitdate < l_receiptdate` column comparison lowers
/// to one `select_cmp_i32` (the hand-built oracle below keeps the cast +
/// delta + positivity form).
pub fn q4_query(db: &TpchDb) -> Query {
    let _ = db; // Q4's literals are scale-independent.
    let lo = date_to_days(1993, 7, 1);
    let hi = date_to_days(1993, 10, 1) - 1;
    Query::scan("orders")
        .filter(col("o_orderdate").between(lo, hi))
        .semi_join(
            Query::scan("lineitem").filter(col("l_commitdate").lt(col("l_receiptdate"))),
            "o_orderkey",
            "l_orderkey",
        )
        .group_by(&["o_orderpriority"], &[AggSpec::count("order_count")])
        .sort_by("o_orderpriority", false)
}

fn shape_q4(values: Vec<QueryValue>) -> Result<QueryResult, QueryError> {
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 4 })?;
    Ok(result_of(4, &["o_orderpriority", "order_count"], rows, 1))
}

fn q4<B: Backend>(session: &Session<B>, db: &TpchDb) -> Result<QueryResult, QueryError> {
    shape_q4(q4_query(db).run(session, db.catalog())?)
}

/// The hand-built physical plan of Q4 — the DSL port's oracle.
///
/// The date comparison `l_commitdate < l_receiptdate` is evaluated as a
/// float subtraction plus a positivity selection (day-number deltas are
/// small integers, exact in `f32`), so the whole plan stays on the
/// existing operator set.
pub fn q4_plan(db: &TpchDb) -> Result<Plan, PlanError> {
    let _ = db; // Q4's literals are scale-independent.
    let lo = date_to_days(1993, 7, 1);
    let hi = date_to_days(1993, 10, 1) - 1;
    let mut p = PlanBuilder::new();

    // lineitems received after their commit date.
    let commit = p.bind("lineitem", "l_commitdate");
    let receipt = p.bind("lineitem", "l_receiptdate");
    let commit_f = p.map(Map::CastI32F32(Map::leaf(0)), &[commit])?;
    let receipt_f = p.map(Map::CastI32F32(Map::leaf(0)), &[receipt])?;
    let lag = p.map(Map::Sub(Map::leaf(0), Map::leaf(1)), &[receipt_f, commit_f])?;
    let lagging = p.select(Pred::RangeF32 { col: 0, low: 0.5, high: f32::MAX }, &[lag], None)?;
    let l_orderkey = p.bind("lineitem", "l_orderkey");
    let lagging_orderkeys = p.fetch(l_orderkey, lagging)?;

    // orders of the quarter, restricted to those with a lagging lineitem.
    let orderdate = p.bind("orders", "o_orderdate");
    let window = p.select(Pred::RangeI32 { col: 0, low: lo, high: hi }, &[orderdate], None)?;
    let o_orderkey = p.bind("orders", "o_orderkey");
    let window_keys = p.fetch(o_orderkey, window)?;
    let matching = p.semi_join(window_keys, lagging_orderkeys)?;
    let order_oids = p.fetch(window, matching)?;

    // count(*) per priority, ordered by priority code.
    let priority = p.bind("orders", "o_orderpriority");
    let prio = p.fetch(priority, order_oids)?;
    let group = p.group_by(&[prio])?;
    let counts = p.grouped_count(group)?;
    let reps = p.group_reps(group)?;
    let keys = p.fetch(prio, reps)?;
    let order = p.sort_order_i32(keys, false)?;
    let sorted_keys = p.fetch(keys, order)?;
    let sorted_counts = p.fetch(counts, order)?;
    p.result(&[sorted_keys, sorted_counts])?;
    Ok(p.finish())
}

// ===========================================================================
// Q5 — local supplier volume
// ===========================================================================

/// Q5 through the query DSL: the six-table join of the workload. The
/// `c_nationkey = s_nationkey` "local supplier" condition spans two join
/// sides, so it survives pushdown and lowers as a positional delta
/// selection over the joined relation — exactly the kind of physical
/// decision the engine now owns.
pub fn q5_query(db: &TpchDb) -> Query {
    let asia = db.code("region", "r_name", "ASIA");
    let lo = date_to_days(1994, 1, 1);
    let hi = date_to_days(1995, 1, 1) - 1;
    Query::scan("lineitem")
        .join(Query::scan("orders"), "l_orderkey", "o_orderkey")
        .join(Query::scan("supplier"), "l_suppkey", "s_suppkey")
        .join(Query::scan("nation"), "s_nationkey", "n_nationkey")
        .join(Query::scan("region"), "n_regionkey", "r_regionkey")
        .join(Query::scan("customer"), "o_custkey", "c_custkey")
        .filter(col("r_name").eq(asia))
        .filter(col("o_orderdate").between(lo, hi))
        .filter(col("c_nationkey").eq(col("s_nationkey")))
        .map("revenue", col("l_extendedprice") * (lit(1.0f32) - col("l_discount")))
        .group_by(&["n_name"], &[AggSpec::sum("revenue", "revenue")])
        .sort_by("revenue", true)
        .select(&["n_name", "revenue"])
}

fn q5<B: Backend>(session: &Session<B>, db: &TpchDb) -> Result<QueryResult, QueryError> {
    let values = q5_query(db).run(session, db.catalog())?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 5 })?;
    Ok(result_of(5, &["n_name", "revenue"], rows, 1))
}

// ===========================================================================
// Q6 — forecasting revenue change
// ===========================================================================

/// Q6 through the query DSL: three selections, one computed column, one
/// deferred scalar sum. The lowering orders the selections by estimated
/// selectivity and chains them through candidate lists; on the Ocelot
/// backends the whole plan still flushes exactly once, at the scalar
/// readback (the PR 2/3 invariant, preserved through the DSL).
pub fn q6_query(db: &TpchDb) -> Query {
    let _ = db; // Q6's literals are scale-independent.
    Query::scan("lineitem")
        .filter(col("l_shipdate").between(date_to_days(1994, 1, 1), date_to_days(1995, 1, 1) - 1))
        .filter(col("l_discount").between(0.05f32 - 0.001, 0.07f32 + 0.001))
        .filter(col("l_quantity").le(23.5f32))
        .map("product", col("l_extendedprice") * col("l_discount"))
        .aggregate(&[AggSpec::sum("product", "revenue")])
}

/// Q6 as a prepared shape: the shipdate window is `$0..$1`, the discount
/// band is `$2..$3` (callers pass the *pre-adjusted* ±0.001 bounds
/// directly) and the quantity cutoff is `$4`. Bind with [`q6_params`] to
/// reproduce [`q6_query`] exactly.
pub fn q6_query_p(db: &TpchDb) -> Query {
    let _ = db; // Q6's shape is scale-independent.
    Query::scan("lineitem")
        .filter(col("l_shipdate").between(param(0), param(1)))
        .filter(col("l_discount").between(param(2), param(3)))
        .filter(col("l_quantity").le(param(4)))
        .map("product", col("l_extendedprice") * col("l_discount"))
        .aggregate(&[AggSpec::sum("product", "revenue")])
}

/// The workload's standard binding for [`q6_query_p`]: the 1994 shipdate
/// year, the widened `0.05..0.07 ± 0.001` discount band and the `23.5`
/// quantity cutoff of [`q6_query`].
pub fn q6_params() -> Vec<ParamValue> {
    vec![
        date_to_days(1994, 1, 1).into(),
        (date_to_days(1995, 1, 1) - 1).into(),
        (0.05f32 - 0.001).into(),
        (0.07f32 + 0.001).into(),
        23.5f32.into(),
    ]
}

fn shape_q6(values: Vec<QueryValue>) -> Result<QueryResult, QueryError> {
    let [QueryValue::Scalar(revenue)] = values.as_slice() else {
        return Err(QueryError::MalformedResult { query: 6 });
    };
    Ok(QueryResult {
        query: 6,
        columns: vec!["revenue".to_string()],
        rows: vec![vec![*revenue as f64]],
    })
}

fn q6<B: Backend>(session: &Session<B>, db: &TpchDb) -> Result<QueryResult, QueryError> {
    shape_q6(q6_query(db).run(session, db.catalog())?)
}

/// The hand-built physical plan of Q6 — the DSL port's oracle: three
/// chained selections, two fetches, a multiply and one deferred scalar sum.
///
/// On the Ocelot backends every node only enqueues device work; the single
/// queue flush happens when the result node reads the one-word revenue
/// scalar back — the PR 2 bound, now held per plan under the scheduler.
pub fn q6_plan(db: &TpchDb) -> Result<Plan, PlanError> {
    let _ = db; // Q6's literals are scale-independent; the db fixes no codes.
    let mut p = PlanBuilder::new();
    let shipdate = p.bind("lineitem", "l_shipdate");
    let in_year = p.select(
        Pred::RangeI32 {
            col: 0,
            low: date_to_days(1994, 1, 1),
            high: date_to_days(1995, 1, 1) - 1,
        },
        &[shipdate],
        None,
    )?;
    let discount = p.bind("lineitem", "l_discount");
    let in_discount = p.select(
        Pred::RangeF32 { col: 0, low: 0.05 - 0.001, high: 0.07 + 0.001 },
        &[discount],
        Some(in_year),
    )?;
    let quantity = p.bind("lineitem", "l_quantity");
    let qualifying = p.select(
        Pred::RangeF32 { col: 0, low: f32::MIN, high: 23.5 },
        &[quantity],
        Some(in_discount),
    )?;
    let price = p.bind("lineitem", "l_extendedprice");
    let price_sel = p.fetch(price, qualifying)?;
    let discount_sel = p.fetch(discount, qualifying)?;
    let product = p.map(Map::Mul(Map::leaf(0), Map::leaf(1)), &[price_sel, discount_sel])?;
    let revenue = p.sum_f32(product)?;
    p.result(&[revenue])?;
    Ok(p.finish())
}

// ===========================================================================
// Q10 — returned item reporting
// ===========================================================================

/// Q10 through the query DSL: returned lineitems of one quarter joined
/// through orders into customer and nation, revenue per customer. The
/// schema has no `c_name`/address columns, so the report carries
/// `c_acctbal` and `n_name` (via `FIRST`, functionally dependent on the
/// customer key).
pub fn q10_query(db: &TpchDb) -> Query {
    let returned = db.code("lineitem", "l_returnflag", "R");
    let lo = date_to_days(1993, 10, 1);
    let hi = date_to_days(1994, 1, 1) - 1;
    Query::scan("lineitem")
        .join(Query::scan("orders"), "l_orderkey", "o_orderkey")
        .join(Query::scan("customer"), "o_custkey", "c_custkey")
        .join(Query::scan("nation"), "c_nationkey", "n_nationkey")
        .filter(col("l_returnflag").eq(returned))
        .filter(col("o_orderdate").between(lo, hi))
        .map("revenue", col("l_extendedprice") * (lit(1.0f32) - col("l_discount")))
        .group_by(
            &["c_custkey"],
            &[
                AggSpec::sum("revenue", "revenue"),
                AggSpec::first("c_acctbal"),
                AggSpec::first("n_name"),
            ],
        )
        .sort_by("revenue", true)
        .select(&["c_custkey", "revenue", "c_acctbal", "n_name"])
}

fn q10<B: Backend>(session: &Session<B>, db: &TpchDb) -> Result<QueryResult, QueryError> {
    let values = q10_query(db).run(session, db.catalog())?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 10 })?;
    Ok(result_of(10, &["c_custkey", "revenue", "c_acctbal", "n_name"], rows, 1))
}

// ===========================================================================
// Q12 — shipping modes and order priority
// ===========================================================================

/// Q12 through the query DSL, as two counting queries over the same
/// qualifying lineitems: all joined lines per ship mode, and the
/// high-priority subset (the priority `IN` filter pushes down into the
/// orders scan). The host derives `low = all - high` per mode — there is
/// no conditional-count operator, and two groupings keep both plans on the
/// shared operator set.
pub fn q12_queries(db: &TpchDb) -> (Query, Query) {
    let lo = date_to_days(1994, 1, 1);
    let hi = date_to_days(1995, 1, 1) - 1;
    let mail = db.code("lineitem", "l_shipmode", "MAIL");
    let ship = db.code("lineitem", "l_shipmode", "SHIP");
    let urgent = db.code("orders", "o_orderpriority", "1-URGENT");
    let high = db.code("orders", "o_orderpriority", "2-HIGH");
    let base = || {
        Query::scan("lineitem")
            .join(Query::scan("orders"), "l_orderkey", "o_orderkey")
            .filter(col("l_receiptdate").between(lo, hi))
            .filter(col("l_shipmode").in_list(&[mail, ship]))
            .filter(col("l_commitdate").lt(col("l_receiptdate")))
            .filter(col("l_shipdate").lt(col("l_commitdate")))
    };
    let all = base().group_by(&["l_shipmode"], &[AggSpec::count("count")]);
    let high_priority = base()
        .filter(col("o_orderpriority").in_list(&[urgent, high]))
        .group_by(&["l_shipmode"], &[AggSpec::count("count")]);
    (all, high_priority)
}

fn shape_q12(
    all_keys: Vec<f64>,
    all_counts: Vec<f64>,
    high_keys: Vec<f64>,
    high_counts: Vec<f64>,
) -> QueryResult {
    let rows: Vec<Vec<f64>> = all_keys
        .iter()
        .zip(&all_counts)
        .map(|(mode, total)| {
            let high =
                high_keys.iter().position(|k| k == mode).map(|at| high_counts[at]).unwrap_or(0.0);
            vec![*mode, high, total - high]
        })
        .collect();
    let mut result = QueryResult {
        query: 12,
        columns: ["l_shipmode", "high_line_count", "low_line_count"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    };
    sort_rows(&mut result.rows, 1);
    result
}

fn q12<B: Backend>(session: &Session<B>, db: &TpchDb) -> Result<QueryResult, QueryError> {
    let (all, high) = q12_queries(db);
    let all_values = all.run(session, db.catalog())?;
    let high_values = high.run(session, db.catalog())?;
    let ([keys, counts], [hkeys, hcounts]) = (all_values.as_slice(), high_values.as_slice()) else {
        return Err(QueryError::MalformedResult { query: 12 });
    };
    Ok(shape_q12(floats(keys), floats(counts), floats(hkeys), floats(hcounts)))
}

/// The hand-built physical plan of Q12 — the DSL port's oracle: both
/// groupings in one DAG (all joined lines / the high-priority subset).
pub fn q12_plan(db: &TpchDb) -> Result<Plan, PlanError> {
    let lo = date_to_days(1994, 1, 1);
    let hi = date_to_days(1995, 1, 1) - 1;
    let mail = db.code("lineitem", "l_shipmode", "MAIL");
    let ship = db.code("lineitem", "l_shipmode", "SHIP");
    let urgent = db.code("orders", "o_orderpriority", "1-URGENT");
    let high = db.code("orders", "o_orderpriority", "2-HIGH");
    let mut p = PlanBuilder::new();

    // Receipt year and the two ship modes (IN via candidate union).
    let receipt = p.bind("lineitem", "l_receiptdate");
    let in_year = p.select(Pred::RangeI32 { col: 0, low: lo, high: hi }, &[receipt], None)?;
    let shipmode = p.bind("lineitem", "l_shipmode");
    let mail_sel = p.select(Pred::EqI32 { col: 0, needle: mail }, &[shipmode], Some(in_year))?;
    let ship_sel = p.select(Pred::EqI32 { col: 0, needle: ship }, &[shipmode], Some(in_year))?;
    let by_mode = p.union_oids(mail_sel, ship_sel)?;

    // l_commitdate < l_receiptdate and l_shipdate < l_commitdate.
    let commit = p.bind("lineitem", "l_commitdate");
    let commit_f = p.map(Map::CastI32F32(Map::leaf(0)), &[commit])?;
    let receipt_f = p.map(Map::CastI32F32(Map::leaf(0)), &[receipt])?;
    let commit_lag = p.map(Map::Sub(Map::leaf(0), Map::leaf(1)), &[receipt_f, commit_f])?;
    let commit_ok = p.select(
        Pred::RangeF32 { col: 0, low: 0.5, high: f32::MAX },
        &[commit_lag],
        Some(by_mode),
    )?;
    let shipdate = p.bind("lineitem", "l_shipdate");
    let ship_f = p.map(Map::CastI32F32(Map::leaf(0)), &[shipdate])?;
    let ship_lag = p.map(Map::Sub(Map::leaf(0), Map::leaf(1)), &[commit_f, ship_f])?;
    let qualifying = p.select(
        Pred::RangeF32 { col: 0, low: 0.5, high: f32::MAX },
        &[ship_lag],
        Some(commit_ok),
    )?;

    // Join the qualifying lineitems to their orders.
    let l_orderkey = p.bind("lineitem", "l_orderkey");
    let line_keys = p.fetch(l_orderkey, qualifying)?;
    let o_orderkey = p.bind("orders", "o_orderkey");
    let (line_pos, order_oids) = p.pkfk_join(line_keys, o_orderkey)?;
    let line_oids = p.fetch(qualifying, line_pos)?;
    let mode_per_line = p.fetch(shipmode, line_oids)?;
    let priority = p.bind("orders", "o_orderpriority");
    let prio_per_line = p.fetch(priority, order_oids)?;

    // Counts per ship mode over all joined lines and over the
    // high-priority subset.
    let is_urgent = p.select(Pred::EqI32 { col: 0, needle: urgent }, &[prio_per_line], None)?;
    let is_high = p.select(Pred::EqI32 { col: 0, needle: high }, &[prio_per_line], None)?;
    let high_pos = p.union_oids(is_urgent, is_high)?;
    let mode_high = p.fetch(mode_per_line, high_pos)?;

    let all_group = p.group_by(&[mode_per_line])?;
    let all_counts = p.grouped_count(all_group)?;
    let all_reps = p.group_reps(all_group)?;
    let all_keys = p.fetch(mode_per_line, all_reps)?;
    let high_group = p.group_by(&[mode_high])?;
    let high_counts = p.grouped_count(high_group)?;
    let high_reps = p.group_reps(high_group)?;
    let high_keys = p.fetch(mode_high, high_reps)?;
    p.result(&[all_keys, all_counts, high_keys, high_counts])?;
    Ok(p.finish())
}

// ===========================================================================
// Q14 — promotion effect
// ===========================================================================

/// Q14 through the query DSL: one month of lineitem joined to part,
/// revenue summed per part type; the host derives the promo share from the
/// per-type rows (the dictionary turns `LIKE 'PROMO%'` into a code set).
pub fn q14_query(db: &TpchDb) -> Query {
    let _ = db; // Q14's literals are scale-independent.
    let lo = date_to_days(1995, 9, 1);
    let hi = date_to_days(1995, 10, 1) - 1;
    Query::scan("lineitem")
        .filter(col("l_shipdate").between(lo, hi))
        .join(Query::scan("part"), "l_partkey", "p_partkey")
        .map("revenue", col("l_extendedprice") * (lit(1.0f32) - col("l_discount")))
        .group_by(&["p_type"], &[AggSpec::sum("revenue", "revenue")])
}

/// The dictionary codes of part types starting with `PROMO`.
pub fn promo_type_codes(db: &TpchDb) -> Vec<i32> {
    let Some(dict) = db.catalog().dictionary("part", "p_type") else {
        return Vec::new();
    };
    (0..dict.len() as i32)
        .filter(|c| dict.decode(*c).is_some_and(|s| s.starts_with("PROMO")))
        .collect()
}

fn q14<B: Backend>(session: &Session<B>, db: &TpchDb) -> Result<QueryResult, QueryError> {
    let values = q14_query(db).run(session, db.catalog())?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 14 })?;
    let promo = promo_type_codes(db);
    let promo_revenue: f64 =
        rows.iter().filter(|r| promo.contains(&(r[0] as i32))).map(|r| r[1]).sum();
    let total_revenue: f64 = rows.iter().map(|r| r[1]).sum();
    let share = if total_revenue == 0.0 { 0.0 } else { 100.0 * promo_revenue / total_revenue };
    Ok(QueryResult {
        query: 14,
        columns: vec!["promo_revenue".to_string()],
        rows: vec![vec![share]],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::TpchConfig;
    use ocelot_engine::{OcelotBackend, Session};

    fn db() -> TpchDb {
        TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 11 })
    }

    #[test]
    fn ported_queries_agree_across_all_configurations() {
        let db = db();
        let ms = Session::monet_seq();
        let mp = Session::monet_par();
        let ocelot_cpu = Session::new(OcelotBackend::cpu());
        let ocelot_gpu = Session::new(OcelotBackend::gpu());
        for query in PORTED_QUERY_IDS {
            let reference = run_query(&ms, &db, query).unwrap();
            assert!(!reference.rows.is_empty(), "q{query}: reference result empty");
            for (name, result) in [
                ("MP", run_query(&mp, &db, query).unwrap()),
                ("Ocelot CPU", run_query(&ocelot_cpu, &db, query).unwrap()),
                ("Ocelot GPU", run_query(&ocelot_gpu, &db, query).unwrap()),
            ] {
                assert!(
                    result.approx_eq(&reference, 1e-3),
                    "q{query} on {name} diverged:\n{result:?}\nvs reference\n{reference:?}"
                );
            }
        }
    }

    #[test]
    fn dsl_queries_match_their_hand_built_oracles() {
        // The tentpole's parity claim, at the unit level: for every query
        // with a hand-built physical oracle, the DSL-lowered plan must
        // reproduce its result (same backend, so the tolerance only covers
        // aggregation-order effects).
        let db = db();
        let ms = Session::monet_seq();
        for query in REFERENCE_QUERY_IDS {
            let oracle = run_query_reference(&ms, &db, query).unwrap();
            let dsl = run_query(&ms, &db, query).unwrap();
            assert!(
                dsl.approx_eq(&oracle, 1e-6),
                "q{query}: DSL result diverged from the hand-built oracle:\n{dsl:?}\nvs\n{oracle:?}"
            );
        }
    }

    #[test]
    fn q3_dsl_lowering_exercises_the_dag_path() {
        let db = db();
        let plan = q3_query(&db).lower(db.catalog()).unwrap();
        // The lowered DAG contains the multi-operator nodes the port is
        // about — chosen by the lowerer, not the query author.
        use ocelot_engine::PlanOp;
        let ops: Vec<&str> = plan.nodes().iter().map(|n| n.op.name()).collect();
        for expected in ["select_eq_i32", "dense_join", "group_by", "sort_order_f32"] {
            assert!(ops.contains(&expected), "q3 plan lacks {expected}: {ops:?}");
        }
        let joins = |plan: &Plan, wanted: fn(&PlanOp) -> bool| {
            plan.nodes().iter().filter(|n| wanted(&n.op)).count()
        };
        // The generator's keys are row ids: both joins are positional, and
        // neither binds the key it builds on.
        assert_eq!(
            joins(&plan, |op| matches!(op, PlanOp::DenseJoin { .. })),
            2,
            "customer→orders and orders→lineitem joins"
        );
        assert_eq!(joins(&plan, |op| matches!(op, PlanOp::PkFkJoin)), 0);
        for key in ["c_custkey", "o_orderkey"] {
            assert!(!plan.listing().contains(key), "{key} is bound:\n{}", plan.listing());
        }
        // Sparse keys — official TPC-H's `o_orderkey` — take the hash path.
        let sparse = crate::dbgen::sparse_keys(db.catalog());
        let plan = q3_query(&db).lower(&sparse).unwrap();
        assert_eq!(joins(&plan, |op| matches!(op, PlanOp::PkFkJoin)), 2);
        assert_eq!(joins(&plan, |op| matches!(op, PlanOp::DenseJoin { .. })), 0);
        // Q3 keeps a reasonable result set at this scale.
        let result = run_query(&Session::monet_seq(), &db, 3).unwrap();
        assert!(result.rows.len() > 5, "suspiciously few rows: {}", result.rows.len());
        // Revenue positive, dates before nothing (sanity).
        assert!(result.rows.iter().all(|r| r[1] > 0.0));
    }

    #[test]
    fn q6_flushes_exactly_once_on_ocelot() {
        // The paper's lazy-evaluation claim, end to end through the DSL:
        // the lowered plan (three chained candidate selections, two
        // fetches, a multiply and a sum) reaches the device in a single
        // flush at the final readback — the PR 2/3 invariant survives the
        // query-algebra layer.
        let db = db();
        for backend in [OcelotBackend::cpu(), OcelotBackend::cpu_sequential(), OcelotBackend::gpu()]
        {
            let session = Session::new(backend);
            let before = session.backend().context().queue().flush_count();
            let result = run_query(&session, &db, 6).unwrap();
            assert!(!result.rows.is_empty());
            assert_eq!(
                session.backend().context().queue().flush_count(),
                before + 1,
                "{}: q6 must sync exactly once",
                session.name()
            );
        }
    }

    #[test]
    fn q4_counts_only_orders_with_lagging_lineitems() {
        // Host-side oracle: re-derive Q4 directly from the generated data.
        let db = db();
        let commit = db.col("lineitem", "l_commitdate").as_i32().unwrap();
        let receipt = db.col("lineitem", "l_receiptdate").as_i32().unwrap();
        let l_orderkey = db.col("lineitem", "l_orderkey").as_i32().unwrap();
        let lagging: std::collections::HashSet<i32> = l_orderkey
            .iter()
            .zip(commit.iter().zip(receipt))
            .filter(|(_, (c, r))| c < r)
            .map(|(k, _)| *k)
            .collect();
        let orderdate = db.col("orders", "o_orderdate").as_i32().unwrap();
        let priority = db.col("orders", "o_orderpriority").as_i32().unwrap();
        let (lo, hi) = (date_to_days(1993, 7, 1), date_to_days(1993, 10, 1) - 1);
        let mut expected: std::collections::HashMap<i32, f64> = std::collections::HashMap::new();
        for (order, (&date, &prio)) in orderdate.iter().zip(priority).enumerate() {
            if date >= lo && date <= hi && lagging.contains(&(order as i32)) {
                *expected.entry(prio).or_default() += 1.0;
            }
        }
        let result = run_query(&Session::monet_seq(), &db, 4).unwrap();
        assert!(!result.rows.is_empty());
        assert_eq!(result.rows.len(), expected.len());
        for row in &result.rows {
            assert_eq!(expected.get(&(row[0] as i32)), Some(&row[1]), "priority {}", row[0]);
        }
    }

    #[test]
    fn q5_sums_revenue_of_local_suppliers_only() {
        // Host-side oracle: re-derive Q5 directly from the generated data.
        let db = db();
        let asia_nations: std::collections::HashSet<i32> = {
            let region_name = db.col("region", "r_name").as_i32().unwrap();
            let asia = db.code("region", "r_name", "ASIA");
            let asia_region = region_name.iter().position(|r| *r == asia).unwrap() as i32;
            db.col("nation", "n_regionkey")
                .as_i32()
                .unwrap()
                .iter()
                .enumerate()
                .filter(|(_, r)| **r == asia_region)
                .map(|(n, _)| n as i32)
                .collect()
        };
        let n_name = db.col("nation", "n_name").as_i32().unwrap();
        let o_custkey = db.col("orders", "o_custkey").as_i32().unwrap();
        let o_orderdate = db.col("orders", "o_orderdate").as_i32().unwrap();
        let c_nationkey = db.col("customer", "c_nationkey").as_i32().unwrap();
        let s_nationkey = db.col("supplier", "s_nationkey").as_i32().unwrap();
        let l_orderkey = db.col("lineitem", "l_orderkey").as_i32().unwrap();
        let l_suppkey = db.col("lineitem", "l_suppkey").as_i32().unwrap();
        let price = db.col("lineitem", "l_extendedprice").as_f32().unwrap();
        let discount = db.col("lineitem", "l_discount").as_f32().unwrap();
        let (lo, hi) = (date_to_days(1994, 1, 1), date_to_days(1995, 1, 1) - 1);
        let mut expected: std::collections::HashMap<i32, f64> = std::collections::HashMap::new();
        for i in 0..l_orderkey.len() {
            let order = l_orderkey[i] as usize;
            let supp_nation = s_nationkey[l_suppkey[i] as usize];
            let cust_nation = c_nationkey[o_custkey[order] as usize];
            if o_orderdate[order] >= lo
                && o_orderdate[order] <= hi
                && asia_nations.contains(&supp_nation)
                && cust_nation == supp_nation
            {
                *expected.entry(n_name[supp_nation as usize]).or_default() +=
                    (price[i] * (1.0 - discount[i])) as f64;
            }
        }
        let result = run_query(&Session::monet_seq(), &db, 5).unwrap();
        assert_eq!(result.rows.len(), expected.len(), "{result:?}\nvs {expected:?}");
        for row in &result.rows {
            let want = expected[&(row[0] as i32)];
            assert!(
                (row[1] - want).abs() / want.abs().max(1.0) < 1e-3,
                "nation {}: {} vs {want}",
                row[0],
                row[1]
            );
        }
    }

    #[test]
    fn q10_ranks_customers_by_returned_revenue() {
        // Host-side oracle: per-customer revenue over returned lineitems
        // of the quarter, with the carried acctbal / nation columns.
        let db = db();
        let returned = db.code("lineitem", "l_returnflag", "R");
        let (lo, hi) = (date_to_days(1993, 10, 1), date_to_days(1994, 1, 1) - 1);
        let l_orderkey = db.col("lineitem", "l_orderkey").as_i32().unwrap();
        let l_returnflag = db.col("lineitem", "l_returnflag").as_i32().unwrap();
        let price = db.col("lineitem", "l_extendedprice").as_f32().unwrap();
        let discount = db.col("lineitem", "l_discount").as_f32().unwrap();
        let o_custkey = db.col("orders", "o_custkey").as_i32().unwrap();
        let o_orderdate = db.col("orders", "o_orderdate").as_i32().unwrap();
        let c_acctbal = db.col("customer", "c_acctbal").as_f32().unwrap();
        let c_nationkey = db.col("customer", "c_nationkey").as_i32().unwrap();
        let n_name = db.col("nation", "n_name").as_i32().unwrap();
        let mut expected: std::collections::HashMap<i32, f64> = std::collections::HashMap::new();
        for i in 0..l_orderkey.len() {
            let order = l_orderkey[i] as usize;
            if l_returnflag[i] == returned && o_orderdate[order] >= lo && o_orderdate[order] <= hi {
                *expected.entry(o_custkey[order]).or_default() +=
                    (price[i] * (1.0 - discount[i])) as f64;
            }
        }
        let result = run_query(&Session::monet_seq(), &db, 10).unwrap();
        assert!(!result.rows.is_empty());
        assert_eq!(result.rows.len(), expected.len());
        for row in &result.rows {
            let customer = row[0] as i32;
            let want = expected[&customer];
            assert!((row[1] - want).abs() / want.abs().max(1.0) < 1e-3, "customer {customer}");
            assert!((row[2] - c_acctbal[customer as usize] as f64).abs() < 1e-2);
            assert_eq!(row[3] as i32, n_name[c_nationkey[customer as usize] as usize]);
        }
    }

    #[test]
    fn q12_splits_counts_by_priority() {
        let db = db();
        let result = run_query(&Session::monet_seq(), &db, 12).unwrap();
        assert!(!result.rows.is_empty());
        assert!(result.rows.len() <= 2, "only MAIL and SHIP qualify");
        // Host-side oracle for the per-mode totals and the high/low split.
        let (lo, hi) = (date_to_days(1994, 1, 1), date_to_days(1995, 1, 1) - 1);
        let mode = db.col("lineitem", "l_shipmode").as_i32().unwrap();
        let shipd = db.col("lineitem", "l_shipdate").as_i32().unwrap();
        let commit = db.col("lineitem", "l_commitdate").as_i32().unwrap();
        let receipt = db.col("lineitem", "l_receiptdate").as_i32().unwrap();
        let l_orderkey = db.col("lineitem", "l_orderkey").as_i32().unwrap();
        let priority = db.col("orders", "o_orderpriority").as_i32().unwrap();
        let mail = db.code("lineitem", "l_shipmode", "MAIL");
        let ship = db.code("lineitem", "l_shipmode", "SHIP");
        let urgent = db.code("orders", "o_orderpriority", "1-URGENT");
        let high = db.code("orders", "o_orderpriority", "2-HIGH");
        let mut expected: std::collections::HashMap<i32, (f64, f64)> =
            std::collections::HashMap::new();
        for i in 0..mode.len() {
            let qualifies = (mode[i] == mail || mode[i] == ship)
                && receipt[i] >= lo
                && receipt[i] <= hi
                && commit[i] < receipt[i]
                && shipd[i] < commit[i];
            if qualifies {
                let prio = priority[l_orderkey[i] as usize];
                let entry = expected.entry(mode[i]).or_default();
                if prio == urgent || prio == high {
                    entry.0 += 1.0;
                } else {
                    entry.1 += 1.0;
                }
            }
        }
        assert_eq!(result.rows.len(), expected.len());
        for row in &result.rows {
            let (high_count, low_count) = expected[&(row[0] as i32)];
            assert_eq!((row[1], row[2]), (high_count, low_count), "mode {}", row[0]);
        }
    }

    #[test]
    fn q14_reports_the_promo_revenue_share() {
        // Host-side oracle: the promo share over the September 1995 window.
        let db = db();
        let promo = promo_type_codes(&db);
        assert!(!promo.is_empty(), "the generator has a PROMO part type");
        let (lo, hi) = (date_to_days(1995, 9, 1), date_to_days(1995, 10, 1) - 1);
        let l_partkey = db.col("lineitem", "l_partkey").as_i32().unwrap();
        let l_shipdate = db.col("lineitem", "l_shipdate").as_i32().unwrap();
        let price = db.col("lineitem", "l_extendedprice").as_f32().unwrap();
        let discount = db.col("lineitem", "l_discount").as_f32().unwrap();
        let p_type = db.col("part", "p_type").as_i32().unwrap();
        let (mut promo_rev, mut total) = (0.0f64, 0.0f64);
        for i in 0..l_partkey.len() {
            if l_shipdate[i] >= lo && l_shipdate[i] <= hi {
                let revenue = (price[i] * (1.0 - discount[i])) as f64;
                total += revenue;
                if promo.contains(&p_type[l_partkey[i] as usize]) {
                    promo_rev += revenue;
                }
            }
        }
        assert!(total > 0.0, "September 1995 must ship something at this scale");
        let expected = 100.0 * promo_rev / total;
        let result = run_query(&Session::monet_seq(), &db, 14).unwrap();
        assert_eq!(result.rows.len(), 1);
        let got = result.rows[0][0];
        assert!((got - expected).abs() < 1e-2, "{got} vs {expected}");
    }

    #[test]
    fn unported_queries_report_structured_errors() {
        let db = db();
        let ms = Session::monet_seq();
        for query in QUERY_IDS {
            let result = run_query(&ms, &db, query);
            if PORTED_QUERY_IDS.contains(&query) {
                assert!(result.is_ok(), "q{query}: {:?}", result.err());
            } else {
                assert_eq!(
                    result.unwrap_err(),
                    QueryError::Unsupported { query },
                    "q{query} unexpectedly implemented"
                );
            }
        }
        let err = run_query(&ms, &db, 2).unwrap_err();
        assert_eq!(err, QueryError::NotInWorkload { query: 2 });
        assert!(err.to_string().contains("not part"));
    }

    #[test]
    fn explain_shows_the_rules_and_the_physical_plan() {
        // explain() is the layer's debugging surface: it must show the
        // logical tree, each rewrite rule's annotation and the lowered
        // physical nodes for a real query.
        let db = db();
        let text = q3_query(&db).explain(db.catalog()).unwrap();
        for needle in [
            "=== logical plan ===",
            "predicate pushdown",
            "projection pruning",
            "=== physical plan",
            "dense join l_orderkey = o_orderkey: o_orderkey is dense",
            "dense_join inner base 0",
            "bind lineitem.l_orderkey",
        ] {
            assert!(text.contains(needle), "q3 explain lacks `{needle}`:\n{text}");
        }
        let sparse = crate::dbgen::sparse_keys(db.catalog());
        let text = q3_query(&db).explain(&sparse).unwrap();
        for needle in
            ["pkfk join l_orderkey = o_orderkey: build on right", "bind orders.o_orderkey"]
        {
            assert!(text.contains(needle), "sparse-key q3 explain lacks `{needle}`:\n{text}");
        }
        // Selectivity ordering needs a multi-predicate chain over one scan
        // — Q6's three selections are the canonical case.
        let text = q6_query(&db).explain(db.catalog()).unwrap();
        for needle in ["selectivity order on lineitem", "ungrouped sum", "sum_f32"] {
            assert!(text.contains(needle), "q6 explain lacks `{needle}`:\n{text}");
        }
    }
}
