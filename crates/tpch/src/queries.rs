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
//! the lowering pass to produce the physical plan. The DSL is the one way
//! a query is written for the engine; the one thing it is checked against
//! is [`crate::reference`], the same queries written row at a time in plain
//! Rust, sharing no code with the engine.
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

use ocelot_engine::plan::{PlanError, QueryValue};
use ocelot_engine::query::{col, lit, param, AggSpec, ParamValue, Query, QueryBuildError};
use ocelot_engine::{Backend, Session};
use ocelot_storage::types::date_to_days;
use ocelot_storage::Catalog;
use std::fmt;

use crate::dbgen::TpchDb;

/// The fourteen query ids of the paper's modified TPC-H workload.
pub const QUERY_IDS: [u32; 14] = [1, 3, 4, 5, 6, 7, 8, 10, 11, 12, 15, 17, 19, 21];

/// The query ids [`run_query`] can execute (through the query DSL).
pub const PORTED_QUERY_IDS: [u32; 8] = [1, 3, 4, 5, 6, 10, 12, 14];

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

/// The output columns that hold `f32` sums, averages or attributes. A
/// result compares them within a relative tolerance; every other column —
/// keys, dates, dictionary codes, counts — compares exactly.
const FLOAT_COLUMNS: [&str; 10] = [
    "sum_qty",
    "sum_base_price",
    "sum_disc_price",
    "sum_charge",
    "avg_qty",
    "avg_price",
    "avg_disc",
    "revenue",
    "c_acctbal",
    "promo_revenue",
];

impl QueryResult {
    /// Whether two results agree: [`QueryResult::first_difference`] finds
    /// none.
    pub fn approx_eq(&self, other: &QueryResult, rel_tol: f64) -> bool {
        self.first_difference(other, rel_tol).is_none()
    }

    /// The first place two results disagree, or `None` — the cross-backend
    /// half of the equality rule (`ocelot_core::ops::aggregate` module
    /// docs): integer, code, key and count cells are equal, and float cells
    /// (the sums, averages and balances) within `rel_tol` of the larger
    /// magnitude, since aggregation order differs between backends. The
    /// bound scales with the value, so an average near 0.05 is held as
    /// tightly as a sum near 10⁶. Run to run on one backend and device configuration results
    /// are bit-equal; compare with `==`. The difference names the row
    /// count, or the row, the column and both values.
    pub fn first_difference(&self, other: &QueryResult, rel_tol: f64) -> Option<String> {
        let query = self.query;
        if query != other.query {
            return Some(format!("q{query} vs q{}", other.query));
        }
        if self.columns != other.columns {
            return Some(format!("q{query}: columns {:?} vs {:?}", self.columns, other.columns));
        }
        if self.rows.len() != other.rows.len() {
            return Some(format!("q{query}: {} rows vs {}", self.rows.len(), other.rows.len()));
        }
        for (row, (a, b)) in self.rows.iter().zip(&other.rows).enumerate() {
            if a.len() != b.len() || a.len() != self.columns.len() {
                return Some(format!("q{query}: row {row} has {} cells vs {}", a.len(), b.len()));
            }
            for ((x, y), column) in a.iter().zip(b).zip(&self.columns) {
                let equal = if FLOAT_COLUMNS.contains(&column.as_str()) {
                    (x - y).abs() <= rel_tol * x.abs().max(y.abs())
                } else {
                    x == y
                };
                if !equal {
                    return Some(format!("q{query}: row {row}, column {column}: {x} vs {y}"));
                }
            }
        }
        None
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
    /// The catalog holds no column of this name with the type the
    /// reference reads it as.
    MissingColumn {
        /// The table name.
        table: String,
        /// The column name.
        column: String,
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
            QueryError::MissingColumn { table, column } => {
                write!(f, "the catalog has no column {table}.{column} of the expected type")
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
    run_query_on(session, db, db.catalog(), query)
}

/// [`run_query`] over `catalog`, a catalog of `db`'s data with other key
/// values (such as [`crate::sparse_keys`]): the queries take their
/// literals and dictionary codes from `db`, their columns from `catalog`.
pub(crate) fn run_query_on<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    catalog: &Catalog,
    query: u32,
) -> Result<QueryResult, QueryError> {
    match query {
        1 => q1(session, db, catalog),
        3 => q3(session, db, catalog),
        4 => q4(session, db, catalog),
        5 => q5(session, db, catalog),
        6 => q6(session, db, catalog),
        10 => q10(session, db, catalog),
        12 => q12(session, db, catalog),
        14 => q14(session, db, catalog),
        id if QUERY_IDS.contains(&id) => Err(QueryError::Unsupported { query: id }),
        id => Err(QueryError::NotInWorkload { query: id }),
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

/// Shapes result rows for comparison: sorted by the first `key_cols`
/// columns (the engine's results and [`crate::reference`]'s alike).
pub(crate) fn result_of(
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

/// Q1 through the query DSL: [`q1_query_p`] bound with [`q1_params`] —
/// one scan-side date filter, two computed columns, an eight-aggregate
/// two-key grouping.
pub fn q1_query(db: &TpchDb) -> Query {
    q1_query_p(db).bind(&q1_params()).expect("q1_params binds every slot of q1_query_p")
}

/// Q1 as a prepared *shape* for the serving layer: the shipdate cutoff is
/// parameter `$0`, so one compiled plan serves every reporting date.
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

pub(crate) const Q1_COLUMNS: [&str; 10] = [
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

fn q1<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    catalog: &Catalog,
) -> Result<QueryResult, QueryError> {
    let values = q1_query(db).run(session, catalog)?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 1 })?;
    Ok(result_of(1, &Q1_COLUMNS, rows, 2))
}

// ===========================================================================
// Q3 — shipping priority
// ===========================================================================

/// Q3 through the query DSL: [`q3_query_p`] bound with [`q3_params`] —
/// written declaratively, the three-table join first, all predicates above
/// it (predicate pushdown moves them onto their scans), grouping and
/// ordering last.
pub fn q3_query(db: &TpchDb) -> Query {
    q3_query_p(db).bind(&q3_params(db)).expect("q3_params binds every slot of q3_query_p")
}

/// Q3 as a prepared shape: the order/ship cutoff date is `$0` (one slot,
/// used by *two* predicates) and the market-segment code is `$1`.
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

pub(crate) const Q3_COLUMNS: [&str; 4] = ["l_orderkey", "revenue", "o_orderdate", "o_shippriority"];

fn q3<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    catalog: &Catalog,
) -> Result<QueryResult, QueryError> {
    let values = q3_query(db).run(session, catalog)?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 3 })?;
    // The plan orders by revenue; normalise by the (unique) order key so
    // backends with different sort tie-breaking compare equal.
    Ok(result_of(3, &Q3_COLUMNS, rows, 1))
}

// ===========================================================================
// Q4 — order priority checking
// ===========================================================================

/// Q4 through the query DSL: `EXISTS` as a semi join against the lagging
/// lineitems; the `l_commitdate < l_receiptdate` column comparison lowers
/// to one `select_cmp_i32`.
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

pub(crate) const Q4_COLUMNS: [&str; 2] = ["o_orderpriority", "order_count"];

fn q4<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    catalog: &Catalog,
) -> Result<QueryResult, QueryError> {
    let values = q4_query(db).run(session, catalog)?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 4 })?;
    Ok(result_of(4, &Q4_COLUMNS, rows, 1))
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

pub(crate) const Q5_COLUMNS: [&str; 2] = ["n_name", "revenue"];

fn q5<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    catalog: &Catalog,
) -> Result<QueryResult, QueryError> {
    let values = q5_query(db).run(session, catalog)?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 5 })?;
    Ok(result_of(5, &Q5_COLUMNS, rows, 1))
}

// ===========================================================================
// Q6 — forecasting revenue change
// ===========================================================================

/// Q6 through the query DSL: [`q6_query_p`] bound with [`q6_params`] —
/// three selections, one computed column, one deferred scalar sum. The
/// lowering orders the selections by estimated selectivity and chains them
/// through candidate lists; on the Ocelot backends the whole plan still
/// flushes exactly once, at the scalar readback.
pub fn q6_query(db: &TpchDb) -> Query {
    q6_query_p(db).bind(&q6_params()).expect("q6_params binds every slot of q6_query_p")
}

/// Q6 as a prepared shape: the shipdate window is `$0..$1`, the discount
/// band is `$2..$3` (callers pass the *pre-adjusted* ±0.001 bounds
/// directly) and the quantity cutoff is `$4`.
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

pub(crate) const Q6_COLUMNS: [&str; 1] = ["revenue"];

fn q6<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    catalog: &Catalog,
) -> Result<QueryResult, QueryError> {
    let values = q6_query(db).run(session, catalog)?;
    let [QueryValue::Scalar(revenue)] = values.as_slice() else {
        return Err(QueryError::MalformedResult { query: 6 });
    };
    Ok(result_of(6, &Q6_COLUMNS, vec![vec![*revenue as f64]], 0))
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

pub(crate) const Q10_COLUMNS: [&str; 4] = ["c_custkey", "revenue", "c_acctbal", "n_name"];

fn q10<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    catalog: &Catalog,
) -> Result<QueryResult, QueryError> {
    let values = q10_query(db).run(session, catalog)?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 10 })?;
    Ok(result_of(10, &Q10_COLUMNS, rows, 1))
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

pub(crate) const Q12_COLUMNS: [&str; 3] = ["l_shipmode", "high_line_count", "low_line_count"];

fn q12<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    catalog: &Catalog,
) -> Result<QueryResult, QueryError> {
    let (all, high) = q12_queries(db);
    let all_values = all.run(session, catalog)?;
    let high_values = high.run(session, catalog)?;
    let ([keys, counts], [high_keys, high_counts]) =
        (all_values.as_slice(), high_values.as_slice())
    else {
        return Err(QueryError::MalformedResult { query: 12 });
    };
    let (high_keys, high_counts) = (floats(high_keys), floats(high_counts));
    let rows = floats(keys)
        .into_iter()
        .zip(floats(counts))
        .map(|(mode, total)| {
            let high =
                high_keys.iter().position(|k| *k == mode).map(|at| high_counts[at]).unwrap_or(0.0);
            vec![mode, high, total - high]
        })
        .collect();
    Ok(result_of(12, &Q12_COLUMNS, rows, 1))
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

pub(crate) const Q14_COLUMNS: [&str; 1] = ["promo_revenue"];

fn q14<B: Backend>(
    session: &Session<B>,
    db: &TpchDb,
    catalog: &Catalog,
) -> Result<QueryResult, QueryError> {
    let values = q14_query(db).run(session, catalog)?;
    let rows = rows_from(&values).ok_or(QueryError::MalformedResult { query: 14 })?;
    let promo = promo_type_codes(db);
    let promo_revenue: f64 =
        rows.iter().filter(|r| promo.contains(&(r[0] as i32))).map(|r| r[1]).sum();
    let total_revenue: f64 = rows.iter().map(|r| r[1]).sum();
    let share = if total_revenue == 0.0 { 0.0 } else { 100.0 * promo_revenue / total_revenue };
    Ok(result_of(14, &Q14_COLUMNS, vec![vec![share]], 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::TpchConfig;
    use ocelot_engine::{MonetBackend, OcelotBackend, Session};

    fn db() -> TpchDb {
        TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 11 })
    }

    /// Runs every ported query, lowered on `catalog`, in `session` and
    /// asserts each result equals the reference over the same catalog;
    /// a mismatch names its first differing cell.
    fn assert_equals_reference<B: Backend>(
        session: &Session<B>,
        db: &TpchDb,
        catalog: &Catalog,
        expected: &[QueryResult],
    ) {
        let TpchConfig { scale_factor, seed } = db.config();
        for (query, expected) in PORTED_QUERY_IDS.into_iter().zip(expected) {
            let result = run_query_on(session, db, catalog, query).unwrap();
            if let Some(difference) = result.first_difference(expected, 1e-5) {
                panic!(
                    "{} at sf {scale_factor} seed {seed} differs from the reference: {difference}",
                    session.name()
                );
            }
        }
    }

    /// The reference's results for every ported query over `catalog`,
    /// each non-empty.
    fn reference_results(catalog: &Catalog) -> Vec<QueryResult> {
        let results: Vec<QueryResult> =
            PORTED_QUERY_IDS.map(|query| crate::reference::run(catalog, query).unwrap()).into();
        for result in &results {
            assert!(!result.rows.is_empty(), "q{}: the reference result is empty", result.query);
        }
        results
    }

    /// Every ported query on MS, MP at three threads, Ocelot CPU and Ocelot
    /// GPU equals the row-at-a-time reference (integer cells exactly, float
    /// cells within 1e-5 relative), at three scales and four seeds. The
    /// engine sits within ~1.3e-6 of the reference; an average over one row
    /// too many is off by 1e-4 relative even in Q1's ~20 000-row groups at
    /// sf 0.01, and the smallest scale keeps those groups near 500 rows.
    #[test]
    fn ported_queries_agree_across_all_configurations() {
        let configs = [
            TpchConfig { scale_factor: 0.0005, seed: 17 },
            TpchConfig { scale_factor: 0.002, seed: 11 },
            TpchConfig { scale_factor: 0.01, seed: 3 },
            TpchConfig { scale_factor: 0.01, seed: 29 },
        ];
        for config in configs {
            let db = TpchDb::generate(config);
            let expected = reference_results(db.catalog());
            let q12 = expected.iter().find(|result| result.query == 12).unwrap();
            assert!(q12.rows.len() <= 2, "only MAIL and SHIP qualify for Q12");
            assert!(!promo_type_codes(&db).is_empty(), "the generator has a PROMO part type");
            let (lo, hi) = (date_to_days(1995, 9, 1), date_to_days(1995, 10, 1));
            let shipdate = db.col("lineitem", "l_shipdate").as_i32().unwrap();
            assert!(
                shipdate.iter().any(|d| (lo..hi).contains(d)),
                "September 1995 must ship something at this scale"
            );
            let catalog = db.catalog();
            assert_equals_reference(&Session::monet_seq(), &db, catalog, &expected);
            let mp = Session::new(MonetBackend::with_threads(3));
            assert_equals_reference(&mp, &db, catalog, &expected);
            assert_equals_reference(&Session::new(OcelotBackend::cpu()), &db, catalog, &expected);
            assert_equals_reference(&Session::new(OcelotBackend::gpu()), &db, catalog, &expected);
        }
    }

    /// The same check on [`crate::sparse_keys`], where every order and
    /// customer join takes the hash path: each ported query lowered on the
    /// sparse catalog, on MS, Ocelot CPU and Ocelot GPU, equals the
    /// reference over that catalog.
    #[test]
    fn sparse_key_queries_agree_with_the_reference() {
        let db = db();
        let sparse = crate::dbgen::sparse_keys(db.catalog());
        let expected = reference_results(&sparse);
        assert_equals_reference(&Session::monet_seq(), &db, &sparse, &expected);
        assert_equals_reference(&Session::new(OcelotBackend::cpu()), &db, &sparse, &expected);
        assert_equals_reference(&Session::new(OcelotBackend::gpu()), &db, &sparse, &expected);
    }

    #[test]
    fn first_difference_names_the_row_count_or_the_cell() {
        let result = |revenue: f64, date: f64| {
            result_of(
                3,
                &Q3_COLUMNS,
                vec![vec![7.0, revenue, 9000.0, 0.0], vec![8.0, 50.0, date, 0.0]],
                1,
            )
        };
        let base = result(1000.0, 9001.0);
        assert_eq!(base.first_difference(&base, 1e-5), None);
        // Floats compare within the tolerance, keys and dates exactly.
        assert!(base.approx_eq(&result(1000.005, 9001.0), 1e-5));
        let far = base.first_difference(&result(1000.02, 9001.0), 1e-5);
        assert_eq!(far.unwrap(), "q3: row 0, column revenue: 1000 vs 1000.02");
        let date = base.first_difference(&result(1000.0, 9002.0), 1e-5);
        assert_eq!(date.unwrap(), "q3: row 1, column o_orderdate: 9001 vs 9002");
        let short = result_of(3, &Q3_COLUMNS, vec![vec![7.0, 1000.0, 9000.0, 0.0]], 1);
        assert_eq!(base.first_difference(&short, 1e-5).unwrap(), "q3: 2 rows vs 1");
        // The bound scales with the value: below 1 it is no looser.
        assert!(result(0.05, 9001.0).approx_eq(&result(0.0500004, 9001.0), 1e-5));
        assert!(!result(0.05, 9001.0).approx_eq(&result(0.050001, 9001.0), 1e-5));
        assert!(result(0.0, 9001.0).approx_eq(&result(0.0, 9001.0), 1e-5));
    }

    #[test]
    fn q3_dsl_lowering_exercises_the_dag_path() {
        let db = db();
        let plan = q3_query(&db).lower(db.catalog()).unwrap();
        // The lowered DAG contains the multi-operator nodes the port is
        // about — chosen by the lowerer, not the query author.
        use ocelot_engine::{Plan, PlanOp};
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
    fn dsl_queries_match_their_hand_built_oracles() {
        // The parity claim at the unit level: for every ported query the
        // DSL-lowered plan on MS reproduces the hand-written row-at-a-time
        // oracle (same data, so the tolerance only covers summation-order
        // effects).
        let db = db();
        let ms = Session::monet_seq();
        for query in PORTED_QUERY_IDS {
            let oracle = crate::reference::run(db.catalog(), query).unwrap();
            let dsl = run_query(&ms, &db, query).unwrap();
            if let Some(difference) = dsl.first_difference(&oracle, 1e-6) {
                panic!("q{query}: DSL result diverged from the hand-built oracle: {difference}");
            }
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
