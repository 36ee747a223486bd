//! The MonetDB-style host baseline: one backend, `threads` wide. At one
//! thread it is the paper's MS (sequential MonetDB), at more its MP
//! (parallel MonetDB, mitosis across the cores).
//!
//! Every operator is one mitosis over an `ocelot_monet::sequential`
//! operator: split the input, run the sequential operator on each slice,
//! apply the merge for the operator's kind (`ocelot_monet::parallel`). A
//! selection's conjunct is matched onto the sequential selection of its
//! kind, and a map's tree is evaluated operator by operator, each result
//! materialised before its reader runs, as MonetDB's `batcalc` does. A
//! join's hash table, a dense key's inverse map or row flags are built once
//! and probed per slice; float sums fold their `f64` partials before they
//! round. With one thread every shape is one call of the sequential
//! operator over the whole input, so MS is MP at one thread by
//! construction.

use crate::backend::{Backend, DenseJoinKind, GroupHandle, GroupedAgg, Map, Pred};
use crate::backends::{grace_bits, grace_merge, grace_partition, HostColumn, HostView};
use crate::plan::PlanError;
use ocelot_monet::parallel as par;
use ocelot_monet::sequential as seq;
use ocelot_monet::MonetHashTable;
use ocelot_storage::{BatRef, DenseKey, Oid};
use std::collections::HashMap;
use std::sync::Arc;

/// The MonetDB baseline (the paper's `MS` series at one thread, `MP` at
/// more).
pub struct MonetBackend {
    threads: usize,
}

impl Default for MonetBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MonetBackend {
    /// Creates the backend with the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::with_threads(threads)
    }

    /// Creates the backend with an explicit thread count (1 is MS).
    pub fn with_threads(threads: usize) -> Self {
        MonetBackend { threads: threads.max(1) }
    }

    /// The degree of parallelism used by every operator.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A selection: the row shape over `rows` rows, or the candidate shape
    /// over `cands`.
    fn selection(
        &self,
        rows: usize,
        cands: Option<&HostColumn>,
        scan: impl Fn(usize, usize) -> Vec<Oid> + Sync,
        probe: impl Fn(&[Oid]) -> Vec<Oid> + Sync,
    ) -> Result<HostColumn, PlanError> {
        Ok(oids(match cands {
            None => par::select_rows(rows, self.threads, scan),
            Some(cands) => par::select_candidates(cands.as_oids(), self.threads, probe),
        }))
    }

    /// The length-preserving shape of a map over one column.
    fn per_slice<A: Sync, T: Send>(&self, a: &[A], map: impl Fn(&[A]) -> Vec<T> + Sync) -> Vec<T> {
        par::collect_partitions(a.len(), self.threads, |s, e| map(&a[s..e]))
    }

    /// The length-preserving shape of a map over two columns.
    fn zip_map(
        &self,
        a: &HostColumn,
        b: &HostColumn,
        map: impl Fn(&[f32], &[f32]) -> Vec<f32> + Sync,
    ) -> Result<HostColumn, PlanError> {
        let (a, b) = (a.as_f32(), b.as_f32());
        assert_eq!(a.len(), b.len(), "length mismatch");
        Ok(floats(par::collect_partitions(a.len(), self.threads, |s, e| map(&a[s..e], &b[s..e]))))
    }

    /// A semi (`keep_found`) or anti join: the hash table of `right` built
    /// once, the row shape over `left`.
    fn semi(&self, left: &HostColumn, right: &HostColumn, keep_found: bool) -> HostColumn {
        let (left, table) = (left.as_i32(), MonetHashTable::build(right.as_i32()));
        oids(par::select_rows(left.len(), self.threads, |s, e| {
            seq::semi_join_table_i32(&left[s..e], &table, keep_found)
        }))
    }

    /// The reduction shape of a per-group aggregate: `partial(start, end)`
    /// aggregates the rows `start..end` of `gids`, `fold` merges two
    /// partials' values for one group.
    fn per_group<T: Copy + Send>(
        &self,
        gids: &[u32],
        partial: impl Fn(usize, usize) -> Vec<T> + Sync,
        fold: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        par::reduce(gids.len(), self.threads, partial, par::per_group(fold))
    }

    /// The reduction shape of a minimum or maximum (`None` for no values).
    fn extreme(
        &self,
        values: &HostColumn,
        partial: fn(&[f32]) -> Option<f32>,
        fold: fn(f32, f32) -> f32,
    ) -> Option<f32> {
        let v = values.as_f32();
        let fold = |a: Option<f32>, b| a.into_iter().chain(b).reduce(fold);
        par::reduce(v.len(), self.threads, |s, e| partial(&v[s..e]), fold)
    }
}

fn oids(values: Vec<Oid>) -> HostColumn {
    HostColumn::Oid(Arc::new(values))
}

fn floats(values: Vec<f32>) -> HostColumn {
    HostColumn::F32(Arc::new(values))
}

fn ints(values: Vec<i32>) -> HostColumn {
    HostColumn::I32(Arc::new(values))
}

impl Backend for MonetBackend {
    type Column = HostColumn;

    fn name(&self) -> &str {
        if self.threads == 1 {
            "MS (sequential MonetDB)"
        } else {
            "MP (parallel MonetDB)"
        }
    }

    fn bat(&self, bat: &BatRef) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::Bat(Arc::clone(bat)))
    }
    fn lift_i32(&self, values: Vec<i32>) -> Result<HostColumn, PlanError> {
        Ok(ints(values))
    }
    fn lift_f32(&self, values: Vec<f32>) -> Result<HostColumn, PlanError> {
        Ok(floats(values))
    }
    fn lift_oids(&self, values: Vec<u32>) -> Result<HostColumn, PlanError> {
        Ok(oids(values))
    }
    fn to_i32(&self, col: &HostColumn) -> Result<Vec<i32>, PlanError> {
        Ok(col.as_i32().to_vec())
    }
    fn to_f32(&self, col: &HostColumn) -> Result<Vec<f32>, PlanError> {
        Ok(col.as_f32().to_vec())
    }
    fn to_oids(&self, col: &HostColumn) -> Result<Vec<u32>, PlanError> {
        Ok(col.as_oids().to_vec())
    }
    fn len(&self, col: &HostColumn) -> Result<usize, PlanError> {
        Ok(col.len())
    }

    fn select(
        &self,
        cols: &[&HostColumn],
        pred: &Pred,
        cands: Option<&HostColumn>,
    ) -> Result<HostColumn, PlanError> {
        match *pred {
            Pred::RangeI32 { col, low, high } => {
                let col = cols[col].as_i32();
                self.selection(
                    col.len(),
                    cands,
                    |s, e| seq::select_range_i32(&col[s..e], low, high),
                    |c| seq::select_range_i32_cand(col, c, low, high),
                )
            }
            Pred::RangeF32 { col, low, high } => {
                let col = cols[col].as_f32();
                self.selection(
                    col.len(),
                    cands,
                    |s, e| seq::select_range_f32(&col[s..e], low, high),
                    |c| seq::select_range_f32_cand(col, c, low, high),
                )
            }
            Pred::EqI32 { col, needle } => {
                let col = cols[col].as_i32();
                self.selection(
                    col.len(),
                    cands,
                    |s, e| seq::select_eq_i32(&col[s..e], needle),
                    |c| seq::select_eq_i32_cand(col, c, needle),
                )
            }
            Pred::NeI32 { col, needle } => {
                let col = cols[col].as_i32();
                self.selection(
                    col.len(),
                    cands,
                    |s, e| seq::select_ne_i32(&col[s..e], needle),
                    |c| seq::select_ne_i32_cand(col, c, needle),
                )
            }
            Pred::InI32 { col, ref values } => {
                let col = cols[col].as_i32();
                self.selection(
                    col.len(),
                    cands,
                    |s, e| seq::select_in_i32(&col[s..e], values),
                    |c| seq::select_in_i32_cand(col, c, values),
                )
            }
            Pred::CmpI32 { op, left, right } => {
                let (left, right) = (cols[left].as_i32(), cols[right].as_i32());
                self.selection(
                    left.len().min(right.len()),
                    cands,
                    |s, e| seq::select_cmp_i32(&left[s..e], &right[s..e], op),
                    |c| seq::select_cmp_i32_cand(left, right, c, op),
                )
            }
        }
    }

    fn union_oids(&self, a: &HostColumn, b: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(oids(seq::union_oids(a.as_oids(), b.as_oids())))
    }

    fn fetch(&self, col: &HostColumn, rows: &HostColumn) -> Result<HostColumn, PlanError> {
        let rows = rows.as_oids();
        Ok(match col.view() {
            HostView::I32(v) => ints(self.per_slice(rows, |r| seq::fetch_i32(v, r))),
            HostView::F32(v) => floats(self.per_slice(rows, |r| seq::fetch_f32(v, r))),
            HostView::Oid(v) => oids(self.per_slice(rows, |r| seq::fetch_oid(v, r))),
        })
    }

    fn map(&self, cols: &[&HostColumn], map: &Map) -> Result<HostColumn, PlanError> {
        let operand = |child: &Map| Backend::map(self, cols, child);
        let each_f32 = |child: &Map, f: &(dyn Fn(&[f32]) -> Vec<f32> + Sync)| {
            Ok(floats(self.per_slice(operand(child)?.as_f32(), f)))
        };
        match map {
            Map::Col(slot) => Ok(cols[*slot].clone()),
            Map::Mul(a, b) => self.zip_map(&operand(a)?, &operand(b)?, seq::mul_f32),
            Map::Add(a, b) => self.zip_map(&operand(a)?, &operand(b)?, seq::add_f32),
            Map::Sub(a, b) => self.zip_map(&operand(a)?, &operand(b)?, seq::sub_f32),
            &Map::ConstMinus(c, ref a) => each_f32(a, &|a| seq::const_minus_f32(c, a)),
            &Map::ConstPlus(c, ref a) => each_f32(a, &|a| seq::const_plus_f32(c, a)),
            &Map::MulConst(ref a, c) => each_f32(a, &|a| seq::mul_const_f32(a, c)),
            Map::CastI32F32(a) => {
                Ok(floats(self.per_slice(operand(a)?.as_i32(), seq::cast_i32_f32)))
            }
            Map::Year(a) => Ok(ints(self.per_slice(operand(a)?.as_i32(), seq::extract_year))),
        }
    }

    fn pkfk_join(
        &self,
        fk: &HostColumn,
        pk: &HostColumn,
    ) -> Result<(HostColumn, HostColumn), PlanError> {
        let (fk, table) = (fk.as_i32(), MonetHashTable::build(pk.as_i32()));
        let (fk_oids, pk_oids) =
            par::join_pairs(fk.len(), self.threads, |s, e| seq::pkfk_join_i32(&fk[s..e], &table));
        Ok((oids(fk_oids), oids(pk_oids)))
    }
    fn pkfk_join_partitioned(
        &self,
        fk: &HostColumn,
        pk: &HostColumn,
        ndv_hint: usize,
    ) -> Result<(HostColumn, HostColumn), PlanError> {
        let bits = grace_bits(pk.len(), ndv_hint);
        if bits == 0 {
            return self.pkfk_join(fk, pk);
        }
        let pk_parts = grace_partition(pk.as_i32(), bits);
        let fk_parts = grace_partition(fk.as_i32(), bits);
        // Mitosis over the partition pairs: each worker joins a contiguous
        // range of them, one hash table per pair.
        let pairs = par::run_partitions(pk_parts.len(), self.threads, |start, end| {
            let mut local = Vec::new();
            for ((pk_keys, pk_rows), (fk_keys, fk_rows)) in
                pk_parts[start..end].iter().zip(&fk_parts[start..end])
            {
                if pk_keys.is_empty() || fk_keys.is_empty() {
                    continue;
                }
                let (local_fk, local_pk) =
                    seq::pkfk_join_i32(fk_keys, &MonetHashTable::build(pk_keys));
                local.extend(
                    local_fk
                        .into_iter()
                        .zip(local_pk)
                        .map(|(f, p)| (fk_rows[f as usize], pk_rows[p as usize])),
                );
            }
            local
        });
        let (fk_oids, pk_oids) = grace_merge(par::concat(pairs));
        Ok((oids(fk_oids), oids(pk_oids)))
    }

    fn semi_join(&self, left: &HostColumn, right: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(self.semi(left, right, true))
    }
    fn anti_join(&self, left: &HostColumn, right: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(self.semi(left, right, false))
    }
    fn dense_join(
        &self,
        keys: &HostColumn,
        listed: Option<&HostColumn>,
        key: DenseKey,
        kind: DenseJoinKind,
    ) -> Result<(HostColumn, Option<HostColumn>), PlanError> {
        let (keys, listed, threads) =
            (keys.as_i32(), listed.map(HostColumn::as_oids), self.threads);
        Ok(match kind {
            DenseJoinKind::Inner => {
                let probe = seq::DenseProbe::new(listed, key);
                let (rows, positions) =
                    par::join_pairs(keys.len(), threads, |s, e| probe.join(&keys[s..e]));
                (oids(rows), Some(oids(positions)))
            }
            DenseJoinKind::Semi | DenseJoinKind::Anti => {
                let (probe, keep) =
                    (seq::DenseProbe::new(listed, key), kind == DenseJoinKind::Semi);
                let kept =
                    par::select_rows(keys.len(), threads, |s, e| probe.semi(&keys[s..e], keep));
                (oids(kept), None)
            }
            DenseJoinKind::ListedSemi | DenseJoinKind::ListedAnti => {
                let (flags, keep) =
                    (seq::dense_flags(keys, key), kind == DenseJoinKind::ListedSemi);
                let positions = listed.map_or(key.rows, <[Oid]>::len);
                let kept = par::select_rows(positions, threads, |s, e| match listed {
                    Some(listed) => seq::flagged_positions(&flags, Some(&listed[s..e]), keep),
                    None => seq::flagged_positions(&flags[s..e], None, keep),
                });
                (oids(kept), None)
            }
        })
    }

    fn group_by(&self, keys: &[&HostColumn]) -> Result<GroupHandle<HostColumn>, PlanError> {
        let columns: Vec<&[i32]> = keys.iter().map(|k| k.as_i32()).collect();
        let result = par::par_group_by_columns(&columns, self.threads);
        Ok(GroupHandle {
            gids: oids(result.gids),
            num_groups: result.num_groups,
            representatives: oids(result.representatives),
        })
    }

    fn grouped_aggs(
        &self,
        groups: &GroupHandle<HostColumn>,
        values: &[&HostColumn],
        funcs: &[GroupedAgg],
    ) -> Result<Vec<HostColumn>, PlanError> {
        let (gids, num_groups) = (groups.gids.as_oids(), groups.num_groups);
        let value = |column: usize| {
            let value: &[f32] = values[column].as_f32();
            assert_eq!(value.len(), gids.len(), "grouped aggregate: length mismatch");
            value
        };
        // Each value column's sum and the count are computed once, however
        // many aggregates read them: an average divides the very sum a `sum`
        // of its column returns.
        let mut sums: HashMap<usize, Vec<f64>> = HashMap::new();
        for func in funcs {
            if let GroupedAgg::Sum(column) | GroupedAgg::Avg(column) = *func {
                sums.entry(column).or_insert_with(|| {
                    let v = value(column);
                    let partial = |s, e| seq::grouped_sum_f64(&v[s..e], &gids[s..e], num_groups);
                    self.per_group(gids, partial, |a, b| a + b)
                });
            }
        }
        let counted =
            funcs.iter().any(|func| matches!(func, GroupedAgg::Avg(_) | GroupedAgg::Count));
        let counts = match counted {
            true => {
                let partial = |s, e| seq::grouped_count(&gids[s..e], num_groups);
                self.per_group(gids, partial, |a, b| a + b)
            }
            false => Vec::new(),
        };
        let columns = funcs
            .iter()
            .map(|func| match *func {
                GroupedAgg::Sum(column) => sums[&column].iter().map(|sum| *sum as f32).collect(),
                GroupedAgg::Min(column) => {
                    let v = value(column);
                    let partial = |s, e| seq::grouped_min_f32(&v[s..e], &gids[s..e], num_groups);
                    self.per_group(gids, partial, f32::min)
                }
                GroupedAgg::Max(column) => {
                    let v = value(column);
                    let partial = |s, e| seq::grouped_max_f32(&v[s..e], &gids[s..e], num_groups);
                    self.per_group(gids, partial, f32::max)
                }
                GroupedAgg::Avg(column) => seq::averages(&sums[&column], &counts),
                GroupedAgg::Count => counts.iter().map(|count| *count as f32).collect(),
            })
            .map(floats)
            .collect();
        Ok(columns)
    }

    fn sum_f32(&self, values: &HostColumn) -> Result<f32, PlanError> {
        let v = values.as_f32();
        Ok(par::reduce(v.len(), self.threads, |s, e| seq::sum_f64(&v[s..e]), |a, b| a + b) as f32)
    }
    fn min_f32(&self, values: &HostColumn) -> Result<f32, PlanError> {
        Ok(self.extreme(values, seq::min_f32, f32::min).unwrap_or(f32::INFINITY))
    }
    fn max_f32(&self, values: &HostColumn) -> Result<f32, PlanError> {
        Ok(self.extreme(values, seq::max_f32, f32::max).unwrap_or(f32::NEG_INFINITY))
    }

    fn sort_order_i32(&self, col: &HostColumn, descending: bool) -> Result<HostColumn, PlanError> {
        let (col, threads) = (col.as_i32(), self.threads);
        Ok(oids(if descending {
            par::sort_runs(col, threads, seq::sort_i32_desc, |a, b| b.cmp(a))
        } else {
            par::sort_runs(col, threads, seq::sort_i32, i32::cmp)
        }))
    }
    fn sort_order_f32(&self, col: &HostColumn, descending: bool) -> Result<HostColumn, PlanError> {
        let (col, threads) = (col.as_f32(), self.threads);
        Ok(oids(if descending {
            par::sort_runs(col, threads, seq::sort_f32_desc, |a, b| b.total_cmp(a))
        } else {
            par::sort_runs(col, threads, seq::sort_f32, f32::total_cmp)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::grace_bits;
    use ocelot_storage::types::date_to_days;
    use ocelot_storage::Bat;
    use ocelot_storage::CmpOp;

    #[test]
    fn end_to_end_mini_query() -> Result<(), PlanError> {
        // SELECT sum(b) FROM t WHERE 2 <= a AND a <= 4 GROUP BY c
        let backend = MonetBackend::with_threads(1);
        let a = backend.bat(&Bat::from_i32("a", vec![1, 2, 3, 4, 5, 3]).into_ref())?;
        let b = backend
            .bat(&Bat::from_f32("b", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).into_ref())?;
        let c = backend.bat(&Bat::from_i32("c", vec![1, 1, 2, 2, 1, 2]).into_ref())?;

        let sel = backend.select(&[&a], &Pred::RangeI32 { col: 0, low: 2, high: 4 }, None)?;
        assert_eq!(backend.to_oids(&sel)?, vec![1, 2, 3, 5]);
        let b_sel = backend.fetch(&b, &sel)?;
        let c_sel = backend.fetch(&c, &sel)?;
        let groups = backend.group_by(&[&c_sel])?;
        assert_eq!(groups.num_groups, 2);
        let sums =
            backend.to_f32(&backend.grouped_aggs(&groups, &[&b_sel], &[GroupedAgg::Sum(0)])?[0])?;
        let keys = backend.to_i32(&backend.fetch(&c_sel, &groups.representatives)?)?;
        let mut pairs: Vec<(i32, f32)> = keys.into_iter().zip(sums).collect();
        pairs.sort_by_key(|(k, _)| *k);
        assert_eq!(pairs, vec![(1, 20.0), (2, 130.0)]);
        Ok(())
    }

    #[test]
    fn sort_orders() -> Result<(), PlanError> {
        let backend = MonetBackend::with_threads(1);
        let col = backend.lift_i32(vec![3, 1, 2])?;
        assert_eq!(backend.to_oids(&backend.sort_order_i32(&col, false)?)?, vec![1, 2, 0]);
        assert_eq!(backend.to_oids(&backend.sort_order_i32(&col, true)?)?, vec![0, 2, 1]);
        let f = backend.lift_f32(vec![0.5, -1.0, 2.0])?;
        assert_eq!(backend.to_oids(&backend.sort_order_f32(&f, true)?)?, vec![2, 0, 1]);
        Ok(())
    }

    #[test]
    fn joins_and_calc() -> Result<(), PlanError> {
        let backend = MonetBackend::with_threads(1);
        let fk = backend.lift_i32(vec![10, 20, 10, 30])?;
        let pk = backend.lift_i32(vec![10, 20])?;
        let (fk_oids, pk_oids) = backend.pkfk_join(&fk, &pk)?;
        assert_eq!(backend.to_oids(&fk_oids)?, vec![0, 1, 2]);
        assert_eq!(backend.to_oids(&pk_oids)?, vec![0, 1, 0]);
        assert_eq!(backend.to_oids(&backend.semi_join(&fk, &pk)?)?, vec![0, 1, 2]);
        assert_eq!(backend.to_oids(&backend.anti_join(&fk, &pk)?)?, vec![3]);

        let x = backend.lift_f32(vec![1.0, 2.0])?;
        let y = backend.lift_f32(vec![3.0, 4.0])?;
        let product = backend.map(&[&x, &y], &Map::Mul(Map::leaf(0), Map::leaf(1)))?;
        assert_eq!(backend.to_f32(&product)?, vec![3.0, 8.0]);
        assert_eq!(backend.sum_f32(&x)?, 3.0);
        assert_eq!(backend.count(&x)?, 2);
        Ok(())
    }

    /// A set of aggregates sharing sums and the count equals each aggregate
    /// asked for alone, bit for bit, at every thread count.
    #[test]
    fn grouped_aggregates_share_sums_and_the_count_bit_for_bit() -> Result<(), PlanError> {
        use GroupedAgg::{Avg, Count, Min, Sum};
        let rows = 5_001;
        let funcs = [Sum(0), Avg(0), Count, Avg(1), Min(1)];
        for threads in [1, 2, 3, 7] {
            let b = MonetBackend::with_threads(threads);
            let keys = b.lift_i32(column(rows, 5, |x| (x % 13) as i32))?;
            let groups = b.group_by(&[&keys])?;
            let x = b.lift_f32(column(rows, 6, |x| ((x % 2001) as f32 - 1000.0) * 0.37))?;
            let y = b.lift_f32(column(rows, 7, |x| (x % 97) as f32 * 0.25 - 3.0))?;
            let bits = |column: &HostColumn| -> Vec<u32> {
                column.as_f32().iter().map(|value| value.to_bits()).collect()
            };
            let fused = b.grouped_aggs(&groups, &[&x, &y], &funcs)?;
            for (func, got) in funcs.iter().zip(&fused) {
                // The same aggregate over its one column, on its own.
                let values: Vec<&HostColumn> =
                    func.input().map(|at| [&x, &y][at]).into_iter().collect();
                let alone = match func {
                    Sum(_) => Sum(0),
                    Avg(_) => Avg(0),
                    Min(_) => Min(0),
                    other => *other,
                };
                let want = b.grouped_aggs(&groups, &values, &[alone])?;
                assert_eq!(bits(got), bits(&want[0]), "{func} at {threads} threads");
            }
        }
        Ok(())
    }

    #[test]
    fn one_thread_is_ms_and_more_are_mp() {
        assert_eq!(MonetBackend::with_threads(0).threads(), 1);
        assert!(MonetBackend::with_threads(1).name().starts_with("MS"));
        assert!(MonetBackend::with_threads(3).name().starts_with("MP"));
    }

    /// One operator's result, compared the way the table says.
    #[derive(Debug)]
    enum Answer {
        /// OIDs, integers, counts and float maps or fetches, bit for bit.
        Exact(Vec<u32>),
        /// Minima and maxima: equal as floats.
        Equal(Vec<f32>),
        /// Float sums and averages: within relative 1e-4.
        Close(Vec<f32>),
    }

    fn exact(column: &HostColumn) -> Answer {
        Answer::Exact(match column.view() {
            HostView::I32(v) => v.iter().map(|x| *x as u32).collect(),
            HostView::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
            HostView::Oid(v) => v.to_vec(),
        })
    }

    fn agrees(want: &Answer, got: &Answer) -> bool {
        let close = |a: &f32, b: &f32| a == b || (a - b).abs() <= 1e-4 * a.abs().max(b.abs());
        match (want, got) {
            (Answer::Exact(w), Answer::Exact(g)) => w == g,
            (Answer::Equal(w), Answer::Equal(g)) => w == g,
            (Answer::Close(w), Answer::Close(g)) => {
                w.len() == g.len() && w.iter().zip(g).all(|(a, b)| close(a, b))
            }
            _ => false,
        }
    }

    /// `rows` pseudo-random values of `f` over a xorshift stream.
    fn column<T>(rows: usize, seed: u64, f: impl Fn(u64) -> T) -> Vec<T> {
        let mut x = seed;
        (0..rows)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f(x)
            })
            .collect()
    }

    /// Every `Backend` operator on `backend` over `rows`-row inputs, each
    /// answer labelled by its row of the table.
    fn answers(backend: &MonetBackend, rows: usize) -> Result<Vec<(String, Answer)>, PlanError> {
        let b = backend;
        let n = rows as u64;
        let ints = b.lift_i32(column(rows, 1, |x| (x % 201) as i32 - 100))?;
        let ints2 = b.lift_i32(column(rows, 2, |x| (x % 201) as i32 - 100))?;
        let floats = b.lift_f32(column(rows, 3, |x| ((x % 2001) as f32 - 1000.0) * 0.37))?;
        let floats2 = b.lift_f32(column(rows, 4, |x| (x % 97) as f32 * 0.25 - 3.0))?;
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, 1.5];
        let specials = b.lift_f32(column(rows, 5, |x| match x % 10 {
            k @ 0..=6 => specials[k as usize],
            _ => (x % 7) as f32 - 3.0,
        }))?;
        let extremes = b.lift_i32(column(rows, 6, |x| match x % 5 {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => (x % 9) as i32 - 4,
        }))?;
        let dates = b.lift_i32(column(rows, 7, |x| {
            date_to_days(1992 + (x % 7) as i32, 1 + (x % 12) as u32, 1 + (x % 28) as u32)
        }))?;
        let gather = b.lift_oids(column(rows, 8, |x| (x % n) as Oid))?;
        let ranged = Pred::RangeI32 { col: 0, low: -40, high: 60 };
        let cands = b.select(&[&ints], &ranged, None)?;

        let mut table = Vec::new();
        let mut row = |label: String, answer: Answer| table.push((label, answer));
        for (tag, cands) in [("", None), (" cands", Some(&cands))] {
            let mut cases = vec![
                ("select_range_i32".to_string(), vec![&ints], ranged.clone()),
                (
                    "select_range_f32".to_string(),
                    vec![&floats],
                    Pred::RangeF32 { col: 0, low: -100.0, high: 200.0 },
                ),
                ("select_eq_i32".to_string(), vec![&ints], Pred::EqI32 { col: 0, needle: 7 }),
                ("select_ne_i32".to_string(), vec![&ints], Pred::NeI32 { col: 0, needle: 7 }),
                (
                    "select_in_i32".to_string(),
                    vec![&ints],
                    Pred::InI32 { col: 0, values: [3, -7, 99, 1000].into() },
                ),
            ];
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
                let compared = Pred::CmpI32 { op, left: 0, right: 1 };
                cases.push((format!("select_cmp_i32 {op:?}"), vec![&ints, &ints2], compared));
            }
            for (label, cols, pred) in cases {
                row(format!("{label}{tag}"), exact(&b.select(&cols, &pred, cands)?));
            }
        }
        let high = b.select(&[&ints2], &Pred::RangeI32 { col: 0, low: 50, high: 100 }, None)?;
        row("union_oids".into(), exact(&b.union_oids(&cands, &high)?));
        row("len".into(), Answer::Exact(vec![b.len(&ints)? as u32, b.count(&cands)? as u32]));

        row("fetch i32".into(), exact(&b.fetch(&ints, &gather)?));
        row("fetch f32".into(), exact(&b.fetch(&specials, &gather)?));
        row("fetch oid".into(), exact(&b.fetch(&gather, &gather)?));
        let (x, y) = (Map::leaf(0), Map::leaf(1));
        let pair = [&floats, &floats2];
        for (label, cols, map) in [
            ("mul_f32", &pair[..], Map::Mul(x.clone(), y.clone())),
            ("add_f32", &pair, Map::Add(x.clone(), y.clone())),
            ("sub_f32", &pair, Map::Sub(x.clone(), y)),
            ("const_minus_f32", &[&floats2], Map::ConstMinus(1.0, x.clone())),
            ("const_plus_f32", &[&floats2], Map::ConstPlus(1.0, x.clone())),
            ("mul_const_f32", &[&floats], Map::MulConst(x.clone(), 0.5)),
            ("cast_i32_f32", &[&extremes], Map::CastI32F32(x.clone())),
            ("extract_year", &[&dates], Map::Year(x)),
        ] {
            row(label.into(), exact(&b.map(cols, &map)?));
        }

        // Distinct primary keys `3k + 1`; about a third of the foreign keys
        // find one.
        let pk = b.lift_i32((0..rows as i32).rev().map(|k| 3 * k + 1).collect())?;
        let fk = b.lift_i32(column(rows, 9, |x| (x % (3 * n + 5)) as i32))?;
        let (fk_rows, pk_rows) = b.pkfk_join(&fk, &pk)?;
        row("pkfk_join".into(), exact(&fk_rows));
        row("pkfk_join pk".into(), exact(&pk_rows));
        for ndv_hint in [rows.max(1), 1] {
            let bits = grace_bits(rows, ndv_hint);
            let (fk_rows, pk_rows) = b.pkfk_join_partitioned(&fk, &pk, ndv_hint)?;
            row(format!("pkfk_join_partitioned bits {bits}"), exact(&fk_rows));
            row(format!("pkfk_join_partitioned bits {bits} pk"), exact(&pk_rows));
        }
        let right = b.lift_i32(column(rows, 12, |x| (x % 50) as i32 * 4 - 100))?;
        row("semi_join".into(), exact(&b.semi_join(&ints, &right)?));
        row("anti_join".into(), exact(&b.anti_join(&ints, &right)?));

        let key = DenseKey { base: -5, rows };
        let keys = b.lift_i32(column(rows, 10, |x| (x % (n + 10)) as i32 - 10))?;
        let listed = b.lift_oids((0..rows as Oid).rev().step_by(2).collect())?;
        for listed in [None, Some(&listed)] {
            let tag = if listed.is_some() { " listed" } else { "" };
            for kind in [
                DenseJoinKind::Inner,
                DenseJoinKind::Semi,
                DenseJoinKind::Anti,
                DenseJoinKind::ListedSemi,
                DenseJoinKind::ListedAnti,
            ] {
                let (kept, positions) = b.dense_join(&keys, listed, key, kind)?;
                row(format!("dense_join {kind:?}{tag}"), exact(&kept));
                if let Some(positions) = positions {
                    row(format!("dense_join {kind:?}{tag} positions"), exact(&positions));
                }
            }
        }

        let narrow = b.lift_i32(column(rows, 11, |x| (x % 3) as i32))?;
        for (label, keys) in
            [("group_by", vec![&ints]), ("group_by two keys", vec![&ints2, &narrow])]
        {
            let groups = b.group_by(&keys)?;
            row(format!("{label} gids"), exact(&groups.gids));
            row(format!("{label} representatives"), exact(&groups.representatives));
            row(format!("{label} groups"), Answer::Exact(vec![groups.num_groups as u32]));
            let funcs = [
                GroupedAgg::Sum(0),
                GroupedAgg::Min(0),
                GroupedAgg::Max(1),
                GroupedAgg::Avg(1),
                GroupedAgg::Count,
            ];
            let aggs = b.grouped_aggs(&groups, &[&floats, &floats2], &funcs)?;
            for (func, agg) in funcs.iter().zip(&aggs) {
                let values = agg.as_f32().to_vec();
                let answer = match func {
                    GroupedAgg::Sum(_) | GroupedAgg::Avg(_) => Answer::Close(values),
                    GroupedAgg::Min(_) | GroupedAgg::Max(_) => Answer::Equal(values),
                    GroupedAgg::Count => exact(agg),
                };
                row(format!("{label} grouped {func:?}"), answer);
            }
        }
        row("sum_f32".into(), Answer::Close(vec![b.sum_f32(&floats)?]));
        row(
            "min_f32 max_f32".into(),
            Answer::Equal(vec![b.min_f32(&floats)?, b.max_f32(&floats)?]),
        );

        for descending in [false, true] {
            let sorted = b.sort_order_i32(&extremes, descending)?;
            row(format!("sort_order_i32 descending {descending}"), exact(&sorted));
            let sorted = b.sort_order_f32(&specials, descending)?;
            row(format!("sort_order_f32 descending {descending}"), exact(&sorted));
        }
        Ok(table)
    }

    /// Every operator at 2, 3 and 7 threads returns what it returns at one
    /// thread (MS), at row counts around and past the thread counts.
    #[test]
    fn every_operator_at_any_thread_count_equals_one_thread() -> Result<(), PlanError> {
        assert!(grace_bits(5_001, 1) > 0, "the partitioned join must partition at 5 001 rows");
        for rows in [0, 1, 6, 7, 5_001] {
            let want = answers(&MonetBackend::with_threads(1), rows)?;
            for threads in [2, 3, 7] {
                let got = answers(&MonetBackend::with_threads(threads), rows)?;
                assert_eq!(got.len(), want.len());
                for ((label, want), (_, got)) in want.iter().zip(&got) {
                    assert!(
                        agrees(want, got),
                        "{label} at {rows} rows, {threads} threads: {got:?} against MS {want:?}"
                    );
                }
            }
        }
        Ok(())
    }
}
