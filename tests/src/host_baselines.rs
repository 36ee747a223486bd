//! The two host baselines agree at plan level: every ported query (Q12 as
//! its two plans) at sf 0.05 returns bit for bit the same `QueryValue`s on
//! MP at 1, 2, 3 and 7 threads as on MS. MP's mitosis runs MS's grouping
//! per slice and merges it to MS's ids, and its merges only move or place
//! values, so nothing about a thread count may show in a result.

use ocelot_engine::plan::QueryValue;
use ocelot_engine::{MonetBackend, Query, Session};
use ocelot_tpch::{
    q10_query, q12_queries, q14_query, q1_query, q3_query, q4_query, q5_query, q6_query,
    TpchConfig, TpchDb,
};

/// Every ported query, by name (Q12 is two plans).
fn ported_queries(db: &TpchDb) -> Vec<(&'static str, Query)> {
    let (q12_all, q12_high) = q12_queries(db);
    vec![
        ("q1", q1_query(db)),
        ("q3", q3_query(db)),
        ("q4", q4_query(db)),
        ("q5", q5_query(db)),
        ("q6", q6_query(db)),
        ("q10", q10_query(db)),
        ("q12_all", q12_all),
        ("q12_high", q12_high),
        ("q14", q14_query(db)),
    ]
}

/// A value's cells as bit patterns, so `-0.0` differs from `0.0` and a NaN
/// equals itself.
fn bits(value: &QueryValue) -> Vec<u32> {
    match value {
        QueryValue::Scalar(x) => vec![x.to_bits()],
        QueryValue::IntColumn(v) => v.iter().map(|x| *x as u32).collect(),
        QueryValue::FloatColumn(v) => v.iter().map(|x| x.to_bits()).collect(),
        QueryValue::OidColumn(v) => v.clone(),
    }
}

/// One cell of a result, for a mismatch report.
fn cell(values: &[QueryValue], column: usize, row: usize) -> String {
    match values.get(column) {
        None => "no column".to_string(),
        Some(QueryValue::Scalar(x)) if row == 0 => format!("{x:?}"),
        Some(QueryValue::IntColumn(v)) if row < v.len() => format!("{}", v[row]),
        Some(QueryValue::FloatColumn(v)) if row < v.len() => format!("{:?}", v[row]),
        Some(QueryValue::OidColumn(v)) if row < v.len() => format!("oid {}", v[row]),
        Some(_) => "no row".to_string(),
    }
}

/// The first `(column, row)` at which two results differ: a differing kind
/// or length is reported at the first row past the shorter one.
fn first_difference(got: &[QueryValue], want: &[QueryValue]) -> Option<(usize, usize)> {
    if got.len() != want.len() {
        return Some((got.len().min(want.len()), 0));
    }
    got.iter().zip(want).enumerate().find_map(|(column, (g, w))| {
        let (g_bits, w_bits) = (bits(g), bits(w));
        let kinds_differ = std::mem::discriminant(g) != std::mem::discriminant(w);
        let row = g_bits.iter().zip(&w_bits).position(|(a, b)| a != b);
        match row {
            Some(row) => Some((column, row)),
            None if kinds_differ || g_bits.len() != w_bits.len() => {
                Some((column, g_bits.len().min(w_bits.len())))
            }
            None => None,
        }
    })
}

#[test]
fn mp_at_every_thread_count_equals_ms_bit_for_bit() {
    let db = TpchDb::generate(TpchConfig { scale_factor: 0.05, seed: 3 });
    let catalog = db.catalog();
    let ms = Session::monet_seq();
    let mps: Vec<(usize, Session<MonetBackend>)> =
        [1, 2, 3, 7].map(|t| (t, Session::new(MonetBackend::with_threads(t)))).into();
    for (name, query) in ported_queries(&db) {
        let plan = query.lower(catalog).unwrap();
        let want = ms.run(&plan, catalog).unwrap();
        for (threads, mp) in &mps {
            let got = mp.run(&plan, catalog).unwrap();
            if let Some((column, row)) = first_difference(&got, &want) {
                panic!(
                    "{name} on MP({threads}) differs from MS at column {column}, row {row}: \
                     {} vs {}",
                    cell(&got, column, row),
                    cell(&want, column, row),
                );
            }
        }
    }
}

#[test]
fn first_difference_names_column_and_row() {
    let a = [QueryValue::IntColumn(vec![1, 2, 3]), QueryValue::FloatColumn(vec![0.0, 1.0])];
    assert_eq!(first_difference(&a, &a), None);
    let b = [QueryValue::IntColumn(vec![1, 2, 3]), QueryValue::FloatColumn(vec![-0.0, 1.0])];
    assert_eq!(first_difference(&a, &b), Some((1, 0)));
    let c = [QueryValue::IntColumn(vec![1, 2]), QueryValue::FloatColumn(vec![0.0, 1.0])];
    assert_eq!(first_difference(&a, &c), Some((0, 2)));
    assert_eq!(first_difference(&a, &a[..1]), Some((1, 0)));
    let d = [QueryValue::OidColumn(vec![1, 2, 3]), QueryValue::FloatColumn(vec![0.0, 1.0])];
    assert_eq!(first_difference(&a, &d), Some((0, 3)));
}
