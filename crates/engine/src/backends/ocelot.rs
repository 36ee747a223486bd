//! The Ocelot configurations: the hardware-oblivious operator set from
//! `ocelot-core` running on any kernel-model device ("Ocelot CPU" when the
//! context uses the multi-core CPU driver, "Ocelot GPU" on the simulated
//! discrete GPU).
//!
//! [`OcelotColumn`] maps `Backend::Column` onto the typed deferred columns
//! of `ocelot-core`: each variant carries a `DevColumn<T>` whose logical
//! length may still live on the device (selection results, join outputs).
//! Every operator below only *enqueues* kernels; the `to_*` readbacks (and
//! the eager scalar aggregates) are the single sync boundary, so a chained
//! query pipeline performs exactly one queue flush — at the read.

use crate::backend::{Backend, DenseJoinKind, GroupHandle, GroupedAgg, Map, Pred, ProfileMarker};
use crate::fuse::{Program, ProgramGroups, ProgramOutput, ProgramRows, ProgramSink};
use crate::plan::{run_members, PlanError, PlanNode, Registers};
use ocelot_core::ops::{
    aggregate, calc, groupby, hash_table::OcelotHashTable, join, select, sort_radix,
};
use ocelot_core::primitives::gather;
use ocelot_core::{
    partitioned_pkfk_join, Bitmap, DevColumn, DevWord, OcelotContext, Oid, PartitionedJoinConfig,
    SharedDevice, SpillStats,
};
use ocelot_kernel::{DeviceKind, GpuConfig};
use ocelot_storage::{BatRef, DenseKey};
use ocelot_trace::{MetricsRegistry, TraceSink};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A typed device column handle: the `Backend::Column` of the Ocelot
/// configurations.
#[derive(Debug, Clone)]
pub enum OcelotColumn {
    /// 32-bit integers (also dates and dictionary codes).
    I32(DevColumn<i32>),
    /// 32-bit floats.
    F32(DevColumn<f32>),
    /// Tuple identifiers.
    Oid(DevColumn<Oid>),
}

impl OcelotColumn {
    /// The column as an integer view (device words are untyped; the view is
    /// a zero-cost reinterpretation, as in OpenCL kernel argument binding).
    fn as_i32(&self) -> DevColumn<i32> {
        match self {
            OcelotColumn::I32(c) => c.clone(),
            OcelotColumn::F32(c) => c.reinterpret(),
            OcelotColumn::Oid(c) => c.reinterpret(),
        }
    }

    /// The column as a float view.
    fn as_f32(&self) -> DevColumn<f32> {
        match self {
            OcelotColumn::F32(c) => c.clone(),
            OcelotColumn::I32(c) => c.reinterpret(),
            OcelotColumn::Oid(c) => c.reinterpret(),
        }
    }

    /// The column as an OID view.
    fn as_oid(&self) -> DevColumn<Oid> {
        match self {
            OcelotColumn::Oid(c) => c.clone(),
            OcelotColumn::I32(c) => c.reinterpret(),
            OcelotColumn::F32(c) => c.reinterpret(),
        }
    }
}

/// The Ocelot backend (paper's "CPU" and "GPU" series, depending on the
/// device the context was created with).
pub struct OcelotBackend {
    ctx: OcelotContext,
    label: String,
    /// Number of reclaim passes run for the OOM-restart protocol — one per
    /// node restart the plan executor performed on this backend.
    reclaims: AtomicU64,
    /// Accumulated partition/spill counters from every partitioned join this
    /// backend ran (the out-of-core observability surface).
    spill_stats: Mutex<SpillStats>,
}

impl OcelotBackend {
    /// Ocelot on the multi-core CPU driver.
    pub fn cpu() -> Self {
        Self::with_context(OcelotContext::cpu(), "Ocelot CPU")
    }

    /// Ocelot on the sequential CPU driver.
    pub fn cpu_sequential() -> Self {
        Self::with_context(OcelotContext::cpu_sequential(), "Ocelot CPU (sequential)")
    }

    /// Ocelot on the simulated discrete GPU with default parameters.
    pub fn gpu() -> Self {
        Self::with_context(OcelotContext::gpu(), "Ocelot GPU")
    }

    /// Ocelot on a simulated GPU with an explicit configuration (used by the
    /// memory-pressure benchmarks).
    pub fn gpu_with(config: GpuConfig) -> Self {
        Self::with_context(OcelotContext::gpu_with(config), "Ocelot GPU")
    }

    /// Ocelot as a *session* on a shared device: the context gets its own
    /// command queue (per-session flush accounting) but recycles result
    /// buffers through the device's shared pool — the construction behind
    /// `ocelot_engine::Session::ocelot`.
    pub fn on_shared(shared: &SharedDevice) -> Self {
        let label = match shared.device().info().kind {
            DeviceKind::CpuSequential => "Ocelot CPU (sequential)",
            DeviceKind::CpuMulticore => "Ocelot CPU",
            DeviceKind::DiscreteGpu => "Ocelot GPU",
        };
        Self::with_context(shared.context(), label)
    }

    /// Wraps an existing context.
    pub fn with_context(ctx: OcelotContext, label: &str) -> Self {
        OcelotBackend {
            ctx,
            label: label.to_string(),
            reclaims: AtomicU64::new(0),
            spill_stats: Mutex::new(SpillStats::default()),
        }
    }

    /// The underlying Ocelot context (device, queue, Memory Manager).
    pub fn context(&self) -> &OcelotContext {
        &self.ctx
    }

    /// How many OOM-restart reclaim passes this backend has run (one per
    /// restarted plan node) — observability for the pressure suites.
    pub fn reclaim_count(&self) -> u64 {
        self.reclaims.load(Ordering::Relaxed)
    }

    /// Accumulated partition/spill counters across every partitioned join
    /// this backend executed (zero until the out-of-core path runs).
    pub fn spill_stats(&self) -> SpillStats {
        *self.spill_stats.lock()
    }

    /// Binds a base column through the context's [`ColumnCache`]: later
    /// binds of the same column — from *any* session of the device —
    /// perform no transfer, and the returned column carries a `Pinned`
    /// guard that protects the entry from eviction while any plan register
    /// still holds it.
    ///
    /// [`ColumnCache`]: ocelot_core::ColumnCache
    fn cached_column<T: DevWord>(&self, bat: &BatRef) -> ocelot_kernel::Result<DevColumn<T>> {
        self.ctx.column_cache().column_for_bat(&self.ctx, bat)
    }

    /// The bitmap of the rows of `cols` on which `pred` holds, in one launch.
    fn bitmap(&self, cols: &[&OcelotColumn], pred: &Pred) -> ocelot_kernel::Result<Bitmap> {
        let words: Vec<DevColumn<Oid>> = cols.iter().map(|col| col.as_oid()).collect();
        let words: Vec<&DevColumn<Oid>> = words.iter().collect();
        select::select_where(&self.ctx, &words, std::slice::from_ref(pred))
    }
}

impl Backend for OcelotBackend {
    type Column = OcelotColumn;

    fn name(&self) -> &str {
        &self.label
    }

    fn bat(&self, bat: &BatRef) -> Result<OcelotColumn, PlanError> {
        Ok(if bat.as_f32().is_some() {
            OcelotColumn::F32(self.cached_column(bat)?)
        } else if bat.as_oid().is_some() {
            OcelotColumn::Oid(self.cached_column(bat)?)
        } else {
            OcelotColumn::I32(self.cached_column(bat)?)
        })
    }
    fn lift_i32(&self, values: Vec<i32>) -> Result<OcelotColumn, PlanError> {
        Ok(OcelotColumn::I32(self.ctx.upload_i32(&values, "lifted_i32")?))
    }
    fn lift_f32(&self, values: Vec<f32>) -> Result<OcelotColumn, PlanError> {
        Ok(OcelotColumn::F32(self.ctx.upload_f32(&values, "lifted_f32")?))
    }
    fn lift_oids(&self, values: Vec<u32>) -> Result<OcelotColumn, PlanError> {
        Ok(OcelotColumn::Oid(self.ctx.upload_u32(&values, "lifted_oids")?))
    }
    fn to_i32(&self, col: &OcelotColumn) -> Result<Vec<i32>, PlanError> {
        Ok(col.as_i32().read(&self.ctx)?)
    }
    fn to_f32(&self, col: &OcelotColumn) -> Result<Vec<f32>, PlanError> {
        Ok(col.as_f32().read(&self.ctx)?)
    }
    fn to_oids(&self, col: &OcelotColumn) -> Result<Vec<u32>, PlanError> {
        Ok(col.as_oid().read(&self.ctx)?)
    }
    fn len(&self, col: &OcelotColumn) -> Result<usize, PlanError> {
        // Resolves a deferred length (sync boundary, like `to_*`).
        Ok(col.as_oid().len(&self.ctx)?)
    }

    /// The predicate's bitmap over the full columns or, with candidates,
    /// over the columns' values at the candidates — materialised as an OID
    /// candidate list whose length stays on the device: candidate chains
    /// never synchronise.
    fn select(
        &self,
        cols: &[&OcelotColumn],
        pred: &Pred,
        cands: Option<&OcelotColumn>,
    ) -> Result<OcelotColumn, PlanError> {
        let Some(cands) = cands else {
            let bitmap = self.bitmap(cols, pred)?;
            return Ok(OcelotColumn::Oid(select::materialize_bitmap(&self.ctx, &bitmap)?));
        };
        // Evaluate the predicate on the candidate rows' values, then map the
        // qualifying positions back to the original OIDs.
        let values: Vec<OcelotColumn> =
            cols.iter().map(|col| self.fetch(col, cands)).collect::<Result<_, _>>()?;
        let bitmap = self.bitmap(&values.iter().collect::<Vec<_>>(), pred)?;
        let positions = select::materialize_bitmap(&self.ctx, &bitmap)?;
        Ok(OcelotColumn::Oid(gather::gather(&self.ctx, &cands.as_oid(), &positions)?))
    }

    fn union_oids(&self, a: &OcelotColumn, b: &OcelotColumn) -> Result<OcelotColumn, PlanError> {
        // Candidate lists are sorted; the union is a small host-side merge
        // (the paper's union operator similarly runs on materialised OID
        // lists when feeding MonetDB operators).
        let left = self.to_oids(a)?;
        let right = self.to_oids(b)?;
        self.lift_oids(ocelot_monet::sequential::union_oids(&left, &right))
    }

    fn fetch(&self, col: &OcelotColumn, oids: &OcelotColumn) -> Result<OcelotColumn, PlanError> {
        let idx = oids.as_oid();
        Ok(match col {
            OcelotColumn::I32(c) => OcelotColumn::I32(gather::gather(&self.ctx, c, &idx)?),
            OcelotColumn::F32(c) => OcelotColumn::F32(gather::gather(&self.ctx, c, &idx)?),
            OcelotColumn::Oid(c) => OcelotColumn::Oid(gather::gather(&self.ctx, c, &idx)?),
        })
    }

    fn map(&self, cols: &[&OcelotColumn], map: &Map) -> Result<OcelotColumn, PlanError> {
        let words: Vec<DevColumn<Oid>> = cols.iter().map(|col| col.as_oid()).collect();
        let words: Vec<&DevColumn<Oid>> = words.iter().collect();
        Ok(match map.yields_i32() {
            true => OcelotColumn::I32(calc::map(&self.ctx, &words, map)?),
            false => OcelotColumn::F32(calc::map(&self.ctx, &words, map)?),
        })
    }

    fn pkfk_join(
        &self,
        fk: &OcelotColumn,
        pk: &OcelotColumn,
    ) -> Result<(OcelotColumn, OcelotColumn), PlanError> {
        let (fk_col, pk_col) = (fk.as_i32(), pk.as_i32());
        let table = OcelotHashTable::build(&self.ctx, &pk_col, fk_col.cap())?;
        let result = join::hash_join(&self.ctx, &fk_col, &table)?;
        Ok((OcelotColumn::Oid(result.probe_oids), OcelotColumn::Oid(result.build_oids)))
    }
    fn pkfk_join_partitioned(
        &self,
        fk: &OcelotColumn,
        pk: &OcelotColumn,
        ndv_hint: usize,
    ) -> Result<(OcelotColumn, OcelotColumn), PlanError> {
        let fk_col = fk.as_i32();
        let pk_col = pk.as_i32();
        // Resolving the input sizes here is a deliberate sync point: the
        // out-of-core path trades the lazy pipeline for host-side partition
        // scheduling (see `ocelot_core::partition`).
        let probe_rows = fk_col.len(&self.ctx)?;
        let build_rows = pk_col.len(&self.ctx)?;
        // The spill pool's working-set cap is the device headroom *now*,
        // not the configured budget: by the time a plan reaches its join,
        // the device already holds the plan's pinned base columns and live
        // intermediates, and the join only gets what is left. Half of the
        // remaining headroom keeps slack for the per-pair hash-table
        // scratch that allocates outside the pool's accounting.
        let budget = (self.ctx.memory().budget() != usize::MAX)
            .then(|| (self.ctx.memory().headroom() / 2).max(64 * 1024));
        let cfg = PartitionedJoinConfig::plan(build_rows, probe_rows, ndv_hint.max(1), budget);
        let result = partitioned_pkfk_join(&self.ctx, &fk_col, &pk_col, &cfg)?;
        self.spill_stats.lock().merge(&result.stats);
        Ok((OcelotColumn::Oid(result.probe_oids), OcelotColumn::Oid(result.build_oids)))
    }

    fn semi_join(
        &self,
        left: &OcelotColumn,
        right: &OcelotColumn,
    ) -> Result<OcelotColumn, PlanError> {
        Ok(OcelotColumn::Oid(join::semi_join(&self.ctx, &left.as_i32(), &right.as_i32())?))
    }
    fn anti_join(
        &self,
        left: &OcelotColumn,
        right: &OcelotColumn,
    ) -> Result<OcelotColumn, PlanError> {
        Ok(OcelotColumn::Oid(join::anti_join(&self.ctx, &left.as_i32(), &right.as_i32())?))
    }
    fn dense_join(
        &self,
        keys: &OcelotColumn,
        listed: Option<&OcelotColumn>,
        key: DenseKey,
        kind: DenseJoinKind,
    ) -> Result<(OcelotColumn, Option<OcelotColumn>), PlanError> {
        let listed = listed.map(OcelotColumn::as_oid);
        let (rows, positions) =
            join::dense_join(&self.ctx, &keys.as_i32(), listed.as_ref(), key, kind)?;
        Ok((OcelotColumn::Oid(rows), positions.map(OcelotColumn::Oid)))
    }

    fn group_by(&self, keys: &[&OcelotColumn]) -> Result<GroupHandle<OcelotColumn>, PlanError> {
        let word_columns: Vec<DevColumn<Oid>> = keys.iter().map(|k| k.as_oid()).collect();
        let columns: Vec<&DevColumn<Oid>> = word_columns.iter().collect();
        let result = groupby::group_by_columns(&self.ctx, &columns)?;
        Ok(GroupHandle {
            gids: OcelotColumn::Oid(result.gids),
            num_groups: result.num_groups,
            representatives: OcelotColumn::Oid(result.representatives),
        })
    }

    fn grouped_aggs(
        &self,
        groups: &GroupHandle<OcelotColumn>,
        values: &[&OcelotColumn],
        funcs: &[GroupedAgg],
    ) -> Result<Vec<OcelotColumn>, PlanError> {
        let columns: Vec<DevColumn<f32>> = values.iter().map(|column| column.as_f32()).collect();
        let columns: Vec<&DevColumn<f32>> = columns.iter().collect();
        let gids = groups.gids.as_oid();
        let results =
            aggregate::grouped_aggs(&self.ctx, &columns, &gids, groups.num_groups, funcs)?;
        Ok(results.into_iter().map(OcelotColumn::F32).collect())
    }

    /// The region compiled to the row-expression evaluator: a conjunctive
    /// chain is one bitmap launch and one materialisation; an aggregating
    /// region is one accumulation launch — predicates, base columns read
    /// through the candidate list, value expressions, all per tile — plus the
    /// fold launch; a region holding its grouping adds the key-range launch
    /// and the first-row fold, and its keys come back decoded from the codes
    /// (`aggregate::keyed_aggs`). Nothing the members exchanged is ever
    /// allocated.
    fn pipeline(
        &self,
        node: &PlanNode,
        registers: &Registers<OcelotColumn>,
    ) -> Result<Vec<OcelotColumn>, PlanError> {
        let Some(program) = Program::of(node) else {
            return run_members(self, node, registers);
        };
        let word_column = |var: &usize| registers.column(*var).map(|column| column.as_oid());
        let cols: Vec<DevColumn<Oid>> =
            program.cols.iter().map(word_column).collect::<Result<_, _>>()?;
        let cols: Vec<&DevColumn<Oid>> = cols.iter().collect();
        let candidates = match &program.rows {
            ProgramRows::Candidates(list) => Some(word_column(list)?),
            _ => None,
        };
        let rows = match (&program.rows, &candidates) {
            (ProgramRows::Where(preds), _) => aggregate::RowSource::Where(preds),
            (_, Some(list)) => aggregate::RowSource::Candidates(list),
            _ => aggregate::RowSource::All,
        };
        match &program.sink {
            ProgramSink::Oids => {
                let aggregate::RowSource::Where(preds) = rows else {
                    return run_members(self, node, registers);
                };
                let bitmap = select::select_where(&self.ctx, &cols, preds)?;
                let oids = select::materialize_bitmap(&self.ctx, &bitmap)?;
                Ok(vec![OcelotColumn::Oid(oids)])
            }
            ProgramSink::Aggs { groups, values, funcs } => {
                let (gids, num_groups) = match groups {
                    ProgramGroups::Keys(slots) => {
                        let keyed =
                            aggregate::keyed_aggs(&self.ctx, &cols, rows, values, slots, funcs)?;
                        // A key comes back as words, typed like its column.
                        let key = |key: usize| -> Result<OcelotColumn, PlanError> {
                            let words = keyed.keys[key].clone();
                            Ok(match registers.column(program.cols[slots[key]])? {
                                OcelotColumn::I32(_) => OcelotColumn::I32(words.reinterpret()),
                                OcelotColumn::F32(_) => OcelotColumn::F32(words.reinterpret()),
                                OcelotColumn::Oid(_) => OcelotColumn::Oid(words),
                            })
                        };
                        return (program.outputs.iter())
                            .map(|output| match output {
                                ProgramOutput::Sink(at) => {
                                    Ok(OcelotColumn::F32(keyed.aggs[*at].clone()))
                                }
                                ProgramOutput::Key(at) => key(*at),
                            })
                            .collect();
                    }
                    ProgramGroups::Ids(group) => {
                        let group = registers.group(*group)?;
                        (Some(group.gids.as_oid()), group.num_groups)
                    }
                    ProgramGroups::One => (None, 1),
                };
                let columns = aggregate::fused_aggs(
                    &self.ctx,
                    &cols,
                    rows,
                    values,
                    gids.as_ref(),
                    num_groups,
                    funcs,
                )?;
                Ok(columns.into_iter().map(OcelotColumn::F32).collect())
            }
        }
    }

    fn sum_scalar_f32(&self, values: &OcelotColumn) -> Result<OcelotColumn, PlanError> {
        // The deferred path: the one-word result buffer becomes a one-element
        // device column — no flush until someone reads it.
        let scalar = aggregate::sum_f32(&self.ctx, &values.as_f32())?;
        Ok(OcelotColumn::F32(DevColumn::new(scalar.buffer().clone(), 1)?))
    }

    fn sync(&self) -> Result<(), PlanError> {
        self.ctx.sync()?;
        Ok(())
    }

    fn reclaim_memory(&self) -> bool {
        self.reclaims.fetch_add(1, Ordering::Relaxed);
        self.ctx.reclaim_device_memory()
    }

    fn on_device_lost(&self) {
        // Everything device-resident is stranded: drop the shared column
        // cache's entries (any session of the device would otherwise keep
        // handing out columns on the dead device) and the pool's retained
        // buffers. Both repopulate lazily on the fallback device. Compiled
        // plans are invalidated through the plan slot's epoch — a plan
        // cached for the lost device must never be served again (the
        // serving layer recompiles on its next lookup).
        self.ctx.column_cache().purge_lost_device();
        self.ctx.plan_slot().invalidate();
        self.ctx.memory().pool().clear();
    }

    fn sum_f32(&self, values: &OcelotColumn) -> Result<f32, PlanError> {
        Ok(aggregate::sum_f32(&self.ctx, &values.as_f32())?.get(&self.ctx)?)
    }
    fn min_f32(&self, values: &OcelotColumn) -> Result<f32, PlanError> {
        Ok(aggregate::min_f32(&self.ctx, &values.as_f32())?.get(&self.ctx)?)
    }
    fn max_f32(&self, values: &OcelotColumn) -> Result<f32, PlanError> {
        Ok(aggregate::max_f32(&self.ctx, &values.as_f32())?.get(&self.ctx)?)
    }

    // Descending is the complemented key on the device, not a host-side
    // reversal: either direction is the same eight launches, flushes nothing
    // and leaves the order device-resident.
    fn sort_order_i32(
        &self,
        col: &OcelotColumn,
        descending: bool,
    ) -> Result<OcelotColumn, PlanError> {
        Ok(OcelotColumn::Oid(sort_radix::sort_order_i32(&self.ctx, &col.as_i32(), descending)?))
    }
    fn sort_order_f32(
        &self,
        col: &OcelotColumn,
        descending: bool,
    ) -> Result<OcelotColumn, PlanError> {
        Ok(OcelotColumn::Oid(sort_radix::sort_order_f32(&self.ctx, &col.as_f32(), descending)?))
    }

    fn profile_marker(&self) -> ProfileMarker {
        let stats = self.ctx.queue().total_stats();
        let spill = *self.spill_stats.lock();
        ProfileMarker {
            kernels: stats.kernels as u64,
            transfers: stats.transfers as u64,
            bytes_to_device: stats.bytes_to_device,
            bytes_from_device: stats.bytes_from_device,
            modeled_ns: stats.modeled_ns,
            flushes: self.ctx.queue().flush_count(),
            spills: spill.spills,
            spilled_bytes: spill.spilled_bytes,
        }
    }

    fn attach_tracer(&self, sink: &Arc<TraceSink>) {
        self.ctx.attach_tracer(sink);
    }

    fn detach_tracer(&self) {
        self.ctx.detach_tracer();
    }

    fn register_metrics(&self, registry: &mut MetricsRegistry) {
        self.ctx.queue().total_stats().register_metrics("ocelot.queue", registry);
        registry.set_counter("ocelot.queue.flushes", self.ctx.queue().flush_count());
        self.ctx.memory().stats().register_metrics("ocelot.memory", registry);
        self.ctx.memory().pool().stats().register_metrics("ocelot.pool", registry);
        self.spill_stats().register_metrics("ocelot.spill", registry);
        registry.set_counter("ocelot.reclaims", self.reclaim_count());
        self.ctx.column_cache().stats().register_metrics("ocelot.cache", registry);
        if let Some(faults) = self.ctx.device().fault_stats() {
            faults.register_metrics("ocelot.faults", registry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::MonetBackend;
    use ocelot_storage::Bat;

    type MiniResult = (Vec<u32>, Vec<(i32, f32)>);

    fn mini_pipeline<B: Backend>(backend: &B) -> Result<MiniResult, PlanError> {
        let a =
            backend.bat(&Bat::from_i32("a", (0..2_000).map(|i| i % 100).collect()).into_ref())?;
        let b = backend
            .bat(&Bat::from_f32("b", (0..2_000).map(|i| i as f32 * 0.5).collect()).into_ref())?;
        let c = backend.bat(&Bat::from_i32("c", (0..2_000).map(|i| i % 7).collect()).into_ref())?;

        let sel = backend.select(&[&a], &Pred::RangeI32 { col: 0, low: 10, high: 39 }, None)?;
        let b_sel = backend.fetch(&b, &sel)?;
        let c_sel = backend.fetch(&c, &sel)?;
        let groups = backend.group_by(&[&c_sel])?;
        let sums =
            backend.to_f32(&backend.grouped_aggs(&groups, &[&b_sel], &[GroupedAgg::Sum(0)])?[0])?;
        let keys = backend.to_i32(&backend.fetch(&c_sel, &groups.representatives)?)?;
        let mut pairs: Vec<(i32, f32)> = keys.into_iter().zip(sums).collect();
        pairs.sort_by_key(|(k, _)| *k);
        Ok((backend.to_oids(&sel)?, pairs))
    }

    #[test]
    fn ocelot_matches_monet_reference_on_cpu_and_gpu() {
        let reference = mini_pipeline(&MonetBackend::with_threads(1)).unwrap();
        for backend in [OcelotBackend::cpu(), OcelotBackend::gpu(), OcelotBackend::cpu_sequential()]
        {
            let result = mini_pipeline(&backend).unwrap();
            assert_eq!(result.0, reference.0, "{}", backend.name());
            assert_eq!(result.1.len(), reference.1.len());
            for ((ka, va), (kb, vb)) in result.1.iter().zip(reference.1.iter()) {
                assert_eq!(ka, kb);
                assert!((va - vb).abs() < 1.0, "{} vs {}", va, vb);
            }
        }
    }

    #[test]
    fn standalone_backends_bind_through_their_own_column_cache() -> Result<(), PlanError> {
        let backend = OcelotBackend::gpu();
        let bat = Bat::from_i32("base", (0..100).collect()).into_ref();
        let (first, second) = (backend.bat(&bat)?, backend.bat(&bat)?);
        let (OcelotColumn::I32(first), OcelotColumn::I32(second)) = (first, second) else {
            panic!("an integer BAT binds as an integer column");
        };
        assert_eq!(first.buffer.id(), second.buffer.id(), "second bind served from the cache");
        let stats = backend.context().column_cache().stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(backend.to_i32(&OcelotColumn::I32(second))?[99], 99);
        Ok(())
    }

    #[test]
    fn candidate_selection_composes() -> Result<(), PlanError> {
        let backend = OcelotBackend::cpu();
        let reference = MonetBackend::with_threads(1);
        let values: Vec<i32> = (0..3_000).map(|i| i % 50).collect();
        let other: Vec<i32> = (0..3_000).map(|i| i % 11).collect();

        let oc_v = backend.lift_i32(values.clone())?;
        let oc_o = backend.lift_i32(other.clone())?;
        let (range, three) =
            (Pred::RangeI32 { col: 0, low: 5, high: 30 }, Pred::EqI32 { col: 0, needle: 3 });
        let first = backend.select(&[&oc_v], &range, None)?;
        let second = backend.select(&[&oc_o], &three, Some(&first))?;

        let ms_v = reference.lift_i32(values)?;
        let ms_o = reference.lift_i32(other)?;
        let ms_first = reference.select(&[&ms_v], &range, None)?;
        let ms_second = reference.select(&[&ms_o], &three, Some(&ms_first))?;

        assert_eq!(backend.to_oids(&second)?, reference.to_oids(&ms_second)?);
        Ok(())
    }

    #[test]
    fn chained_candidate_pipeline_flushes_once() -> Result<(), PlanError> {
        // select → candidate select → fetch → multiply → sum, driven through
        // the Backend interface: exactly one queue flush, at the sum.
        let backend = OcelotBackend::cpu();
        let values: Vec<i32> = (0..20_000).map(|i| i % 50).collect();
        let payload: Vec<f32> = (0..20_000).map(|i| i as f32 * 0.25).collect();
        let v = backend.lift_i32(values.clone())?;
        let p = backend.lift_f32(payload.clone())?;
        let flushes = backend.context().queue().flush_count();
        let sel = backend.select(&[&v], &Pred::RangeI32 { col: 0, low: 5, high: 30 }, None)?;
        let narrowed =
            backend.select(&[&v], &Pred::RangeI32 { col: 0, low: 10, high: 20 }, Some(&sel))?;
        let fetched = backend.fetch(&p, &narrowed)?;
        let doubled = backend.map(&[&fetched], &Map::MulConst(Map::leaf(0), 2.0))?;
        assert_eq!(
            backend.context().queue().flush_count(),
            flushes,
            "pipeline must not flush before the read"
        );
        let total = backend.sum_f32(&doubled)?;
        assert_eq!(backend.context().queue().flush_count(), flushes + 1);
        let expected: f32 = values
            .iter()
            .zip(&payload)
            .filter(|(v, _)| (10..=20).contains(*v))
            .map(|(_, p)| p * 2.0)
            .sum();
        assert!((total - expected).abs() / expected.abs().max(1.0) < 1e-3, "{total} vs {expected}");
        Ok(())
    }

    #[test]
    fn joins_match_reference() -> Result<(), PlanError> {
        let backend = OcelotBackend::cpu();
        let reference = MonetBackend::with_threads(1);
        let fk: Vec<i32> = (0..2_000).map(|i| i % 150).collect();
        let pk: Vec<i32> = (0..150).collect();

        let (of, op) =
            backend.pkfk_join(&backend.lift_i32(fk.clone())?, &backend.lift_i32(pk.clone())?)?;
        let (mf, mp) = reference.pkfk_join(&reference.lift_i32(fk)?, &reference.lift_i32(pk)?)?;
        assert_eq!(backend.to_oids(&of)?, reference.to_oids(&mf)?);
        assert_eq!(backend.to_oids(&op)?, reference.to_oids(&mp)?);
        Ok(())
    }
}
