// Lint fixture: a TPC-H reference query that selects through the host
// baseline's own operator — an oracle that runs the code it checks agrees
// with it by construction. Never compiled; `xlint --self-test` asserts the
// scanner flags it.
use ocelot_monet::sequential::select_range_i32;

fn q6(t: &Tables) -> Result<QueryResult, QueryError> {
    let shipdate = t.ints("lineitem", "l_shipdate")?;
    let rows = select_range_i32(shipdate, date_to_days(1994, 1, 1), date_to_days(1995, 1, 1) - 1);
    sum_revenue(t, &rows)
}
