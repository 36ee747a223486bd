//! The "MS" configuration: sequential MonetDB-style execution on a single
//! CPU core, backed by the hand-tuned operators in `ocelot-monet`.

use crate::backend::{Backend, DenseJoinKind, GroupHandle, GroupedAgg};
use crate::backends::{HostColumn, HostView};
use crate::plan::PlanError;
use ocelot_monet::sequential as seq;
use ocelot_storage::{BatRef, CmpOp, DenseKey};
use std::sync::Arc;

/// Sequential MonetDB baseline (the paper's `MS` series).
#[derive(Default)]
pub struct MonetSeqBackend;

impl MonetSeqBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        MonetSeqBackend
    }
}

impl Backend for MonetSeqBackend {
    type Column = HostColumn;

    fn name(&self) -> &str {
        "MS (sequential MonetDB)"
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
            None => seq::select_range_i32(col.as_i32(), low, high),
            Some(cands) => seq::select_range_i32_cand(col.as_i32(), cands.as_oids(), low, high),
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
            None => seq::select_range_f32(col.as_f32(), low, high),
            Some(cands) => seq::select_range_f32_cand(col.as_f32(), cands.as_oids(), low, high),
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
            None => seq::select_eq_i32(col.as_i32(), needle),
            Some(cands) => seq::select_eq_i32_cand(col.as_i32(), cands.as_oids(), needle),
        };
        Ok(HostColumn::Oid(Arc::new(oids)))
    }

    fn select_ne_i32(
        &self,
        col: &HostColumn,
        needle: i32,
        cands: Option<&HostColumn>,
    ) -> Result<HostColumn, PlanError> {
        let oids = match cands {
            None => {
                let all: Vec<u32> = (0..col.len() as u32).collect();
                seq::select_ne_i32_cand(col.as_i32(), &all, needle)
            }
            Some(cands) => seq::select_ne_i32_cand(col.as_i32(), cands.as_oids(), needle),
        };
        Ok(HostColumn::Oid(Arc::new(oids)))
    }

    fn select_in_i32(
        &self,
        col: &HostColumn,
        values: &[i32],
        cands: Option<&HostColumn>,
    ) -> Result<HostColumn, PlanError> {
        let oids = match cands {
            None => seq::select_in_i32(col.as_i32(), values),
            Some(cands) => seq::select_in_i32_cand(col.as_i32(), cands.as_oids(), values),
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
            None => seq::select_cmp_i32(left, right, op),
            Some(cands) => seq::select_cmp_i32_cand(left, right, cands.as_oids(), op),
        };
        Ok(HostColumn::Oid(Arc::new(oids)))
    }

    fn union_oids(&self, a: &HostColumn, b: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::Oid(Arc::new(seq::union_oids(a.as_oids(), b.as_oids()))))
    }

    fn fetch(&self, col: &HostColumn, oids: &HostColumn) -> Result<HostColumn, PlanError> {
        let ids = oids.as_oids();
        Ok(match col.view() {
            HostView::I32(v) => HostColumn::I32(Arc::new(seq::fetch_i32(v, ids))),
            HostView::F32(v) => HostColumn::F32(Arc::new(seq::fetch_f32(v, ids))),
            HostView::Oid(v) => HostColumn::Oid(Arc::new(seq::fetch_oid(v, ids))),
        })
    }

    fn mul_f32(&self, a: &HostColumn, b: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(seq::mul_f32(a.as_f32(), b.as_f32()))))
    }
    fn add_f32(&self, a: &HostColumn, b: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(seq::add_f32(a.as_f32(), b.as_f32()))))
    }
    fn sub_f32(&self, a: &HostColumn, b: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(seq::sub_f32(a.as_f32(), b.as_f32()))))
    }
    fn const_minus_f32(&self, constant: f32, a: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(seq::const_minus_f32(constant, a.as_f32()))))
    }
    fn const_plus_f32(&self, constant: f32, a: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(seq::const_plus_f32(constant, a.as_f32()))))
    }
    fn mul_const_f32(&self, a: &HostColumn, constant: f32) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(seq::mul_const_f32(a.as_f32(), constant))))
    }
    fn cast_i32_f32(&self, a: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::F32(Arc::new(seq::cast_i32_f32(a.as_i32()))))
    }
    fn extract_year(&self, a: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::I32(Arc::new(seq::extract_year(a.as_i32()))))
    }

    fn pkfk_join(
        &self,
        fk: &HostColumn,
        pk: &HostColumn,
    ) -> Result<(HostColumn, HostColumn), PlanError> {
        let table = ocelot_monet::MonetHashTable::build(pk.as_i32());
        let (fk_oids, pk_oids) = seq::pkfk_join_i32(fk.as_i32(), &table);
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
            let (fk_oids, pk_oids) = seq::pkfk_join_i32(fk, &table);
            return Ok((HostColumn::Oid(Arc::new(fk_oids)), HostColumn::Oid(Arc::new(pk_oids))));
        }
        let pk_parts = crate::backends::grace_partition(pk, bits);
        let fk_parts = crate::backends::grace_partition(fk, bits);
        let mut pairs = Vec::new();
        for ((pk_keys, pk_rows), (fk_keys, fk_rows)) in pk_parts.iter().zip(&fk_parts) {
            if pk_keys.is_empty() || fk_keys.is_empty() {
                continue;
            }
            let table = ocelot_monet::MonetHashTable::build(pk_keys);
            let (local_fk, local_pk) = seq::pkfk_join_i32(fk_keys, &table);
            for (lf, lp) in local_fk.into_iter().zip(local_pk) {
                pairs.push((fk_rows[lf as usize], pk_rows[lp as usize]));
            }
        }
        let (fk_oids, pk_oids) = crate::backends::grace_merge(pairs);
        Ok((HostColumn::Oid(Arc::new(fk_oids)), HostColumn::Oid(Arc::new(pk_oids))))
    }

    fn semi_join(&self, left: &HostColumn, right: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::Oid(Arc::new(seq::semi_join_i32(left.as_i32(), right.as_i32()))))
    }
    fn anti_join(&self, left: &HostColumn, right: &HostColumn) -> Result<HostColumn, PlanError> {
        Ok(HostColumn::Oid(Arc::new(seq::anti_join_i32(left.as_i32(), right.as_i32()))))
    }
    fn dense_join(
        &self,
        keys: &HostColumn,
        listed: Option<&HostColumn>,
        key: DenseKey,
        kind: DenseJoinKind,
    ) -> Result<(HostColumn, Option<HostColumn>), PlanError> {
        let (keys, listed) = (keys.as_i32(), listed.map(HostColumn::as_oids));
        let oids = |values: Vec<u32>| HostColumn::Oid(Arc::new(values));
        Ok(match kind {
            DenseJoinKind::Inner => {
                let (rows, positions) = seq::dense_join_i32(keys, listed, key);
                (oids(rows), Some(oids(positions)))
            }
            DenseJoinKind::Semi | DenseJoinKind::Anti => {
                let keep = kind == DenseJoinKind::Semi;
                (oids(seq::dense_semi_join_i32(keys, listed, key, keep)), None)
            }
            DenseJoinKind::ListedSemi | DenseJoinKind::ListedAnti => {
                let keep = kind == DenseJoinKind::ListedSemi;
                (oids(seq::dense_listed_semi_join_i32(keys, listed, key, keep)), None)
            }
        })
    }

    fn group_by(&self, keys: &[&HostColumn]) -> Result<GroupHandle<HostColumn>, PlanError> {
        let columns: Vec<&[i32]> = keys.iter().map(|k| k.as_i32()).collect();
        let result = seq::group_by_columns(&columns);
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
        let (gids, num_groups) = (groups.gids.as_oids(), groups.num_groups);
        let value = |column: usize| values[column].as_f32();
        let columns = funcs
            .iter()
            .map(|func| match *func {
                GroupedAgg::Sum(column) => seq::grouped_sum_f32(value(column), gids, num_groups),
                GroupedAgg::Min(column) => seq::grouped_min_f32(value(column), gids, num_groups),
                GroupedAgg::Max(column) => seq::grouped_max_f32(value(column), gids, num_groups),
                GroupedAgg::Avg(column) => seq::grouped_avg_f32(value(column), gids, num_groups),
                GroupedAgg::Count => {
                    seq::grouped_count(gids, num_groups).into_iter().map(|c| c as f32).collect()
                }
            })
            .map(|column| HostColumn::F32(Arc::new(column)))
            .collect();
        Ok(columns)
    }

    fn sum_f32(&self, values: &HostColumn) -> Result<f32, PlanError> {
        Ok(seq::sum_f32(values.as_f32()))
    }
    fn min_f32(&self, values: &HostColumn) -> Result<f32, PlanError> {
        Ok(seq::min_f32(values.as_f32()).unwrap_or(f32::INFINITY))
    }
    fn max_f32(&self, values: &HostColumn) -> Result<f32, PlanError> {
        Ok(seq::max_f32(values.as_f32()).unwrap_or(f32::NEG_INFINITY))
    }

    fn sort_order_i32(&self, col: &HostColumn, descending: bool) -> Result<HostColumn, PlanError> {
        let (_, order) =
            if descending { seq::sort_i32_desc(col.as_i32()) } else { seq::sort_i32(col.as_i32()) };
        Ok(HostColumn::Oid(Arc::new(order)))
    }
    fn sort_order_f32(&self, col: &HostColumn, descending: bool) -> Result<HostColumn, PlanError> {
        let (_, order) =
            if descending { seq::sort_f32_desc(col.as_f32()) } else { seq::sort_f32(col.as_f32()) };
        Ok(HostColumn::Oid(Arc::new(order)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_storage::Bat;

    #[test]
    fn end_to_end_mini_query() -> Result<(), PlanError> {
        // SELECT sum(b) FROM t WHERE 2 <= a AND a <= 4 GROUP BY c
        let backend = MonetSeqBackend::new();
        let a = backend.bat(&Bat::from_i32("a", vec![1, 2, 3, 4, 5, 3]).into_ref())?;
        let b = backend
            .bat(&Bat::from_f32("b", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).into_ref())?;
        let c = backend.bat(&Bat::from_i32("c", vec![1, 1, 2, 2, 1, 2]).into_ref())?;

        let sel = backend.select_range_i32(&a, 2, 4, None)?;
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
        let backend = MonetSeqBackend::new();
        let col = backend.lift_i32(vec![3, 1, 2])?;
        assert_eq!(backend.to_oids(&backend.sort_order_i32(&col, false)?)?, vec![1, 2, 0]);
        assert_eq!(backend.to_oids(&backend.sort_order_i32(&col, true)?)?, vec![0, 2, 1]);
        let f = backend.lift_f32(vec![0.5, -1.0, 2.0])?;
        assert_eq!(backend.to_oids(&backend.sort_order_f32(&f, true)?)?, vec![2, 0, 1]);
        Ok(())
    }

    #[test]
    fn joins_and_calc() -> Result<(), PlanError> {
        let backend = MonetSeqBackend::new();
        let fk = backend.lift_i32(vec![10, 20, 10, 30])?;
        let pk = backend.lift_i32(vec![10, 20])?;
        let (fk_oids, pk_oids) = backend.pkfk_join(&fk, &pk)?;
        assert_eq!(backend.to_oids(&fk_oids)?, vec![0, 1, 2]);
        assert_eq!(backend.to_oids(&pk_oids)?, vec![0, 1, 0]);
        assert_eq!(backend.to_oids(&backend.semi_join(&fk, &pk)?)?, vec![0, 1, 2]);
        assert_eq!(backend.to_oids(&backend.anti_join(&fk, &pk)?)?, vec![3]);

        let x = backend.lift_f32(vec![1.0, 2.0])?;
        let y = backend.lift_f32(vec![3.0, 4.0])?;
        assert_eq!(backend.to_f32(&backend.mul_f32(&x, &y)?)?, vec![3.0, 8.0]);
        assert_eq!(backend.sum_f32(&x)?, 3.0);
        assert_eq!(backend.count(&x)?, 2);
        Ok(())
    }
}
