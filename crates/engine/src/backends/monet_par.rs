//! The "MP" configuration: parallel MonetDB-style execution (mitosis
//! partitioning across all cores), backed by `ocelot_monet::parallel`.
//!
//! Mitosis merges copy nothing they need not: a length-preserving operator
//! (fetch, the arithmetic maps, cast, year) has every partition write its
//! own range of one output vector, and a selection's or join's single
//! partition hands its list through as is. Grouping is MS's grouping per
//! partition plus one merge of the partitions' groups, so MP's group ids and
//! representatives are MS's, at any thread count.

use crate::backend::{Backend, DenseJoinKind, GroupHandle, GroupedAgg};
use crate::backends::{HostColumn, HostView};
use crate::plan::PlanError;
use ocelot_monet::parallel as par;
use ocelot_monet::sequential as seq;
use ocelot_storage::{BatRef, CmpOp, DenseKey};
use std::sync::Arc;

/// Parallel MonetDB baseline (the paper's `MP` series).
pub struct MonetParBackend {
    threads: usize,
}

impl Default for MonetParBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MonetParBackend {
    /// Creates the backend with the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::with_threads(threads)
    }

    /// Creates the backend with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        MonetParBackend { threads: threads.max(1) }
    }

    /// The degree of parallelism used by every operator.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Backend for MonetParBackend {
    type Column = HostColumn;

    fn name(&self) -> &str {
        "MP (parallel MonetDB)"
    }

    fn bat(&self, bat: &BatRef) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::Bat(Arc::clone(bat)))
    }
    fn lift_i32(&self, values: Vec<i32>) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::I32(Arc::new(values)))
    }
    fn lift_f32(&self, values: Vec<f32>) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(values)))
    }
    fn lift_oids(&self, values: Vec<u32>) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::Oid(Arc::new(values)))
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

    fn select_range_i32(
        &self,
        col: &HostColumn,
        low: i32,
        high: i32,
        cands: Option<&HostColumn>,
    ) -> Result<HostColumn, PlanError> {
        let oids = match cands {
            None => par::par_select_range_i32(col.as_i32(), low, high, self.threads),
            Some(cands) => par::par_select_range_i32_cand(
                col.as_i32(),
                cands.as_oids(),
                low,
                high,
                self.threads,
            ),
        };
        Ok(HostColumn::Oid(Arc::new(oids)))
    }

    fn select_range_f32(
        &self,
        col: &HostColumn,
        low: f32,
        high: f32,
        cands: Option<&HostColumn>,
    ) -> Result<HostColumn, PlanError> {
        let oids = match cands {
            None => par::par_select_range_f32(col.as_f32(), low, high, self.threads),
            Some(cands) => par::par_select_range_f32_cand(
                col.as_f32(),
                cands.as_oids(),
                low,
                high,
                self.threads,
            ),
        };
        Ok(HostColumn::Oid(Arc::new(oids)))
    }

    fn select_eq_i32(
        &self,
        col: &HostColumn,
        needle: i32,
        cands: Option<&HostColumn>,
    ) -> Result<HostColumn, PlanError> {
        let oids = match cands {
            None => par::par_select_eq_i32(col.as_i32(), needle, self.threads),
            Some(cands) => {
                par::par_select_eq_i32_cand(col.as_i32(), cands.as_oids(), needle, self.threads)
            }
        };
        Ok(HostColumn::Oid(Arc::new(oids)))
    }

    fn select_ne_i32(
        &self,
        col: &HostColumn,
        needle: i32,
        cands: Option<&HostColumn>,
    ) -> Result<HostColumn, PlanError> {
        let all;
        let cands = match cands {
            Some(cands) => cands.as_oids(),
            None => {
                all = (0..col.len() as u32).collect::<Vec<u32>>();
                &all
            }
        };
        Ok(HostColumn::Oid(Arc::new(seq::select_ne_i32_cand(col.as_i32(), cands, needle))))
    }

    fn select_in_i32(
        &self,
        col: &HostColumn,
        values: &[i32],
        cands: Option<&HostColumn>,
    ) -> Result<HostColumn, PlanError> {
        let oids = match cands {
            None => par::par_select_in_i32(col.as_i32(), values, self.threads),
            Some(cands) => {
                par::par_select_in_i32_cand(col.as_i32(), cands.as_oids(), values, self.threads)
            }
        };
        Ok(HostColumn::Oid(Arc::new(oids)))
    }

    fn select_cmp_i32(
        &self,
        left: &HostColumn,
        right: &HostColumn,
        op: CmpOp,
        cands: Option<&HostColumn>,
    ) -> Result<HostColumn, PlanError> {
        let (left, right) = (left.as_i32(), right.as_i32());
        let oids = match cands {
            None => par::par_select_cmp_i32(left, right, op, self.threads),
            Some(cands) => {
                par::par_select_cmp_i32_cand(left, right, cands.as_oids(), op, self.threads)
            }
        };
        Ok(HostColumn::Oid(Arc::new(oids)))
    }

    fn union_oids(&self, a: &HostColumn, b: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::Oid(Arc::new(seq::union_oids(a.as_oids(), b.as_oids()))))
    }

    fn fetch(&self, col: &HostColumn, oids: &HostColumn) -> Result<HostColumn, PlanError> {
        let ids = oids.as_oids();
        Ok(match col.view() {
            HostView::I32(v) => HostColumn::I32(Arc::new(par::par_fetch_i32(v, ids, self.threads))),
            HostView::F32(v) => HostColumn::F32(Arc::new(par::par_fetch_f32(v, ids, self.threads))),
            HostView::Oid(v) => HostColumn::Oid(Arc::new(par::par_fetch_oid(v, ids, self.threads))),
        })
    }

    fn mul_f32(&self, a: &HostColumn, b: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(par::par_mul_f32(a.as_f32(), b.as_f32(), self.threads))))
    }
    fn add_f32(&self, a: &HostColumn, b: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(par::par_add_f32(a.as_f32(), b.as_f32(), self.threads))))
    }
    fn sub_f32(&self, a: &HostColumn, b: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(par::par_sub_f32(a.as_f32(), b.as_f32(), self.threads))))
    }
    fn const_minus_f32(&self, constant: f32, a: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(par::par_const_minus_f32(constant, a.as_f32(), self.threads))))
    }
    fn const_plus_f32(&self, constant: f32, a: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(par::par_const_plus_f32(constant, a.as_f32(), self.threads))))
    }
    fn mul_const_f32(&self, a: &HostColumn, constant: f32) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(par::par_mul_const_f32(a.as_f32(), constant, self.threads))))
    }
    fn cast_i32_f32(&self, a: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(par::par_cast_i32_f32(a.as_i32(), self.threads))))
    }
    fn extract_year(&self, a: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::I32(Arc::new(par::par_extract_year(a.as_i32(), self.threads))))
    }

    fn pkfk_join(
        &self,
        fk: &HostColumn,
        pk: &HostColumn,
    ) -> Result<(HostColumn, HostColumn), PlanError> {
        let table = ocelot_monet::MonetHashTable::build(pk.as_i32());
        let (fk_oids, pk_oids) = par::par_pkfk_join_i32(fk.as_i32(), &table, self.threads);
        Ok((HostColumn::Oid(Arc::new(fk_oids)), HostColumn::Oid(Arc::new(pk_oids))))
    }
    fn pkfk_join_partitioned(
        &self,
        fk: &HostColumn,
        pk: &HostColumn,
        ndv_hint: usize,
    ) -> Result<(HostColumn, HostColumn), PlanError> {
        let (fk, pk) = (fk.as_i32(), pk.as_i32());
        let bits = crate::backends::grace_bits(pk.len(), ndv_hint);
        if bits == 0 {
            let table = ocelot_monet::MonetHashTable::build(pk);
            let (fk_oids, pk_oids) = par::par_pkfk_join_i32(fk, &table, self.threads);
            return Ok((HostColumn::Oid(Arc::new(fk_oids)), HostColumn::Oid(Arc::new(pk_oids))));
        }
        let pk_parts = crate::backends::grace_partition(pk, bits);
        let fk_parts = crate::backends::grace_partition(fk, bits);
        // Mitosis over partitions: each worker joins a contiguous slice of
        // partition pairs, then the per-worker pair lists merge.
        let parts = pk_parts.len();
        let workers = self.threads.min(parts).max(1);
        let per_worker = parts.div_ceil(workers);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for chunk in 0..workers {
                let start = chunk * per_worker;
                let end = (start + per_worker).min(parts);
                let pk_parts = &pk_parts;
                let fk_parts = &fk_parts;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    for p in start..end {
                        let (pk_keys, pk_rows) = &pk_parts[p];
                        let (fk_keys, fk_rows) = &fk_parts[p];
                        if pk_keys.is_empty() || fk_keys.is_empty() {
                            continue;
                        }
                        let table = ocelot_monet::MonetHashTable::build(pk_keys);
                        let (local_fk, local_pk) = seq::pkfk_join_i32(fk_keys, &table);
                        for (lf, lp) in local_fk.into_iter().zip(local_pk) {
                            local.push((fk_rows[lf as usize], pk_rows[lp as usize]));
                        }
                    }
                    local
                }));
            }
            for handle in handles {
                pairs.extend(handle.join().expect("partition worker panicked"));
            }
        });
        let (fk_oids, pk_oids) = crate::backends::grace_merge(pairs);
        Ok((HostColumn::Oid(Arc::new(fk_oids)), HostColumn::Oid(Arc::new(pk_oids))))
    }

    fn semi_join(&self, left: &HostColumn, right: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::Oid(Arc::new(par::par_semi_join_i32(
            left.as_i32(),
            right.as_i32(),
            self.threads,
        ))))
    }
    fn anti_join(&self, left: &HostColumn, right: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::Oid(Arc::new(par::par_anti_join_i32(
            left.as_i32(),
            right.as_i32(),
            self.threads,
        ))))
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
        let oids = |values: Vec<u32>| HostColumn::Oid(Arc::new(values));
        Ok(match kind {
            DenseJoinKind::Inner => {
                let (rows, positions) = par::par_dense_join_i32(keys, listed, key, threads);
                (oids(rows), Some(oids(positions)))
            }
            DenseJoinKind::Semi | DenseJoinKind::Anti => {
                let keep = kind == DenseJoinKind::Semi;
                (oids(par::par_dense_semi_join_i32(keys, listed, key, keep, threads)), None)
            }
            DenseJoinKind::ListedSemi | DenseJoinKind::ListedAnti => {
                let keep = kind == DenseJoinKind::ListedSemi;
                (oids(par::par_dense_listed_semi_join_i32(keys, listed, key, keep, threads)), None)
            }
        })
    }

    fn group_by(&self, keys: &[&HostColumn]) -> Result<GroupHandle<HostColumn>, PlanError> {
        let columns: Vec<&[i32]> = keys.iter().map(|k| k.as_i32()).collect();
        let result = par::par_group_by_columns(&columns, self.threads);
        Ok(GroupHandle {
            gids: HostColumn::Oid(Arc::new(result.gids)),
            num_groups: result.num_groups,
            representatives: HostColumn::Oid(Arc::new(result.representatives)),
        })
    }

    fn grouped_aggs(
        &self,
        groups: &GroupHandle<HostColumn>,
        values: &[&HostColumn],
        funcs: &[GroupedAgg],
    ) -> Result<Vec<HostColumn>, PlanError> {
        let (gids, num_groups, threads) = (groups.gids.as_oids(), groups.num_groups, self.threads);
        let value = |column: usize| values[column].as_f32();
        let columns = funcs
            .iter()
            .map(|func| match *func {
                GroupedAgg::Sum(column) => {
                    par::par_grouped_sum_f32(value(column), gids, num_groups, threads)
                }
                GroupedAgg::Min(column) => {
                    par::par_grouped_min_f32(value(column), gids, num_groups, threads)
                }
                GroupedAgg::Max(column) => {
                    par::par_grouped_max_f32(value(column), gids, num_groups, threads)
                }
                GroupedAgg::Avg(column) => {
                    par::par_grouped_avg_f32(value(column), gids, num_groups, threads)
                }
                GroupedAgg::Count => par::par_grouped_count(gids, num_groups, threads)
                    .into_iter()
                    .map(|c| c as f32)
                    .collect(),
            })
            .map(|column| HostColumn::F32(Arc::new(column)))
            .collect();
        Ok(columns)
    }

    fn sum_f32(&self, values: &HostColumn) -> Result<f32, PlanError> {
        Ok(par::par_sum_f32(values.as_f32(), self.threads))
    }
    fn min_f32(&self, values: &HostColumn) -> Result<f32, PlanError> {
        Ok(par::par_min_f32(values.as_f32(), self.threads).unwrap_or(f32::INFINITY))
    }
    fn max_f32(&self, values: &HostColumn) -> Result<f32, PlanError> {
        Ok(par::par_max_f32(values.as_f32(), self.threads).unwrap_or(f32::NEG_INFINITY))
    }

    fn sort_order_i32(&self, col: &HostColumn, descending: bool) -> Result<HostColumn, PlanError> {
        let sort = if descending { par::par_sort_i32_desc } else { par::par_sort_i32 };
        Ok(HostColumn::Oid(Arc::new(sort(col.as_i32(), self.threads).1)))
    }
    fn sort_order_f32(&self, col: &HostColumn, descending: bool) -> Result<HostColumn, PlanError> {
        let sort = if descending { par::par_sort_f32_desc } else { par::par_sort_f32 };
        Ok(HostColumn::Oid(Arc::new(sort(col.as_f32(), self.threads).1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::MonetSeqBackend;

    #[test]
    fn matches_sequential_backend_on_a_mini_pipeline() -> Result<(), PlanError> {
        let seq_backend = MonetSeqBackend::new();
        let par_backend = MonetParBackend::with_threads(4);
        let values: Vec<i32> = (0..5_000).map(|i| (i * 31 + 7) % 500).collect();
        let payload: Vec<f32> = (0..5_000).map(|i| i as f32 * 0.5).collect();

        let run = |b: &dyn Fn() -> Result<(Vec<u32>, f32), PlanError>| b();
        let seq_result = run(&|| {
            let v = seq_backend.lift_i32(values.clone())?;
            let p = seq_backend.lift_f32(payload.clone())?;
            let sel = seq_backend.select_range_i32(&v, 100, 200, None)?;
            let proj = seq_backend.fetch(&p, &sel)?;
            Ok((seq_backend.to_oids(&sel)?, seq_backend.sum_f32(&proj)?))
        })?;
        let par_result = run(&|| {
            let v = par_backend.lift_i32(values.clone())?;
            let p = par_backend.lift_f32(payload.clone())?;
            let sel = par_backend.select_range_i32(&v, 100, 200, None)?;
            let proj = par_backend.fetch(&p, &sel)?;
            Ok((par_backend.to_oids(&sel)?, par_backend.sum_f32(&proj)?))
        })?;
        assert_eq!(seq_result.0, par_result.0);
        assert!((seq_result.1 - par_result.1).abs() < 1.0);
        Ok(())
    }

    #[test]
    fn grouped_aggregation_matches_sequential() -> Result<(), PlanError> {
        let seq_backend = MonetSeqBackend::new();
        let par_backend = MonetParBackend::with_threads(3);
        let keys: Vec<i32> = (0..3_000).map(|i| i % 13).collect();
        let values: Vec<f32> = (0..3_000).map(|i| (i % 7) as f32).collect();
        let sum = [GroupedAgg::Sum(0)];

        let kseq = seq_backend.lift_i32(keys.clone())?;
        let vseq = seq_backend.lift_f32(values.clone())?;
        let gseq = seq_backend.group_by(&[&kseq])?;
        let mut seq_pairs: Vec<(i32, f32)> = seq_backend
            .to_i32(&seq_backend.fetch(&kseq, &gseq.representatives)?)?
            .into_iter()
            .zip(seq_backend.to_f32(&seq_backend.grouped_aggs(&gseq, &[&vseq], &sum)?[0])?)
            .collect();

        let kpar = par_backend.lift_i32(keys)?;
        let vpar = par_backend.lift_f32(values)?;
        let gpar = par_backend.group_by(&[&kpar])?;
        let mut par_pairs: Vec<(i32, f32)> = par_backend
            .to_i32(&par_backend.fetch(&kpar, &gpar.representatives)?)?
            .into_iter()
            .zip(par_backend.to_f32(&par_backend.grouped_aggs(&gpar, &[&vpar], &sum)?[0])?)
            .collect();

        seq_pairs.sort_by_key(|(k, _)| *k);
        par_pairs.sort_by_key(|(k, _)| *k);
        assert_eq!(seq_pairs.len(), par_pairs.len());
        for ((ka, va), (kb, vb)) in seq_pairs.iter().zip(par_pairs.iter()) {
            assert_eq!(ka, kb);
            assert!((va - vb).abs() < 1e-2);
        }
        Ok(())
    }
}
