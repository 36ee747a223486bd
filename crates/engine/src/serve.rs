//! # `engine::serve` — the parameterized compiled-plan cache
//!
//! Serving workloads send the same query *shapes* over and over with
//! different literals: the same dashboard tile per tenant, the same report
//! per day. Compiling a [`Query`] is not free — the rewrite pipeline runs
//! every rule to fixpoint over the logical tree before the lowering derives
//! the physical decisions — so paying it per request throws away exactly
//! the work that is identical across requests.
//!
//! A [`PlanCache`] amortises compilation **per shape**:
//!
//! * Queries are authored once with [`crate::query::param`] placeholders
//!   where per-request literals would go.
//! * On the first execution of a shape (a **miss**) the cache runs the
//!   full pipeline — rewrite rules over the *parameter-abstract* tree,
//!   then bind + lower — and stores the optimized logical tree.
//! * Every later execution (a **hit**) only substitutes the request's
//!   literals into the cached optimized tree, folds them and lowers — no
//!   rewrite rules, no base-column scans (the catalog's BATs keep the
//!   statistics the first compile computed). A hit compiles the *same
//!   plan, node for node*, as the
//!   miss that seeded the entry did for the same parameter values.
//!
//! ## The cache key
//!
//! An entry is keyed by the hash of: the rendered parameter-abstract
//! logical tree, the declared output columns, the rewrite configuration,
//! the positional *kinds* of the bound parameters (an `i32` and an `f32`
//! in the same slot are different shapes — they classify into different
//! selection operators), and the **catalog generation**. The generation
//! ([`Catalog::generation`]) moves on every table/dictionary registration,
//! so a re-generated database can never reuse stale plans or stale
//! selectivity estimates of an older catalog, even one of identical shape.
//!
//! ## Device loss
//!
//! A cache created on a [`SharedDevice`] ([`PlanCache::on`]) lives in the
//! device's [`PlanSlot`] and is shared by every session of the device.
//! Device-loss recovery (`Backend::on_device_lost`) bumps the slot's
//! invalidation epoch alongside the column-cache purge; the next lookup
//! observes the stale epoch and drops every entry, so a lost device can
//! never serve a compiled plan from before the loss. Plans handed out by
//! the cache carry the *bound* query as their [`Plan::source`], so the
//! PR 6 failover protocol re-lowers them onto the fallback exactly like
//! plans compiled directly through [`Query::lower`].

use crate::backend::Backend;
use crate::plan::{Plan, QueryValue};
use crate::query::{lower, rewrite, ParamValue, Query, QueryBuildError, RewriteConfig};
use crate::session::Session;
use ocelot_core::{PlanSlot, SharedDevice};
use ocelot_storage::Catalog;
use ocelot_trace::{MetricsRegistry, TraceEventKind, TraceHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Counters of a [`PlanCache`] (see [`PlanCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from a cached shape (no rewrite, no column scans).
    pub hits: u64,
    /// Lookups that ran the full compile pipeline and seeded an entry.
    pub misses: u64,
    /// Times the whole cache was flushed by a device-loss epoch bump.
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// Registers the counters under `prefix` in `registry`.
    pub fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_counter(&format!("{prefix}.hits"), self.hits);
        registry.set_counter(&format!("{prefix}.misses"), self.misses);
        registry.set_counter(&format!("{prefix}.invalidations"), self.invalidations);
    }
}

/// One compiled shape: everything a hit needs to produce a plan without
/// re-running the rewrite pipeline.
struct CacheEntry {
    /// The rewritten logical tree, parameters still abstract.
    optimized: crate::query::Logical,
    /// Output columns, resolved at cold compile.
    outputs: Vec<String>,
    /// Rewrite-rule annotations of the cold compile (for explain).
    rewrite_notes: Vec<String>,
    /// Rule configuration the shape was compiled under.
    cfg: RewriteConfig,
}

struct CacheInner {
    entries: HashMap<u64, Arc<CacheEntry>>,
    /// The [`PlanSlot`] epoch the entries were compiled under.
    seen_epoch: u64,
    stats: PlanCacheStats,
    /// Key and hit/miss of the most recent lookup (for explain).
    last: Option<(u64, bool)>,
}

/// A device-wide cache of compiled query shapes (module docs).
pub struct PlanCache {
    slot: Arc<PlanSlot>,
    inner: Mutex<CacheInner>,
    trace: TraceHandle,
}

impl PlanCache {
    /// A stand-alone cache with a private invalidation slot (host
    /// backends, tests). Sessions of a shared device should use
    /// [`PlanCache::on`] instead so device loss invalidates the cache.
    pub fn new() -> PlanCache {
        Self::with_slot(Arc::new(PlanSlot::new()))
    }

    fn with_slot(slot: Arc<PlanSlot>) -> PlanCache {
        let seen_epoch = slot.epoch();
        PlanCache {
            slot,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                seen_epoch,
                stats: PlanCacheStats::default(),
                last: None,
            }),
            trace: TraceHandle::new(),
        }
    }

    /// The cache's trace attachment point: attach a
    /// [`ocelot_trace::TraceSink`] to receive a
    /// [`TraceEventKind::PlanCache`] event per lookup.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The device-wide cache of `shared`, installing one in the device's
    /// [`PlanSlot`] on first use. Every call for the same device returns
    /// the same cache, and `Backend::on_device_lost` invalidates it.
    pub fn on(shared: &SharedDevice) -> Arc<PlanCache> {
        let slot = Arc::clone(shared.plan_slot());
        let erased = slot.get_or_install(|| {
            Arc::new(PlanCache::with_slot(Arc::clone(shared.plan_slot()))) as Arc<_>
        });
        erased.downcast::<PlanCache>().expect("the plan slot holds exactly one cache type")
    }

    /// Current hit/miss/invalidation counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.inner.lock().stats
    }

    /// Number of compiled shapes currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether no shape is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compiles `query` bound with `params` under the default rule
    /// configuration, from cache when the shape is known (module docs).
    pub fn plan(
        &self,
        query: &Query,
        params: &[ParamValue],
        catalog: &Catalog,
    ) -> Result<Plan, QueryBuildError> {
        self.plan_with(query, params, catalog, &RewriteConfig::optimized())
    }

    /// [`PlanCache::plan`] under an explicit rule configuration.
    pub fn plan_with(
        &self,
        query: &Query,
        params: &[ParamValue],
        catalog: &Catalog,
        cfg: &RewriteConfig,
    ) -> Result<Plan, QueryBuildError> {
        // Bind first: validates arity (typed `UnboundParam`) and gives the
        // plan its failover source. Cheap — a tree clone plus folding.
        let bound = query.bind(params)?;
        let outputs = query.output_columns()?;
        let key = self.key(query, params, &outputs, catalog, cfg);

        let cached = {
            let mut inner = self.inner.lock();
            self.observe_epoch(&mut inner);
            let cached = inner.entries.get(&key).cloned();
            inner.stats.hits += cached.is_some() as u64;
            inner.stats.misses += cached.is_none() as u64;
            inner.last = Some((key, cached.is_some()));
            cached
        };
        self.trace.emit(|| TraceEventKind::PlanCache { hit: cached.is_some() });

        let lowered = match &cached {
            Some(entry) => {
                // Hit: literals into the cached optimized tree, fold,
                // lower. No rewrite rules run, and no base column is
                // scanned — the BATs already carry their statistics.
                let bound_opt = entry
                    .optimized
                    .substitute_params(&|id| params.get(id as usize).map(param_expr));
                lower::lower(&bound_opt, &entry.outputs, catalog, &entry.cfg)?
            }
            None => {
                // Miss: full pipeline. The rewrite rules run over the
                // *parameter-abstract* tree so the optimized shape is
                // reusable for any later binding, then this request's
                // literals are substituted and lowered.
                let (optimized, rewrite_notes) =
                    rewrite::apply(query.root().clone(), catalog, cfg, &outputs);
                let bound_opt =
                    optimized.substitute_params(&|id| params.get(id as usize).map(param_expr));
                let lowered = lower::lower(&bound_opt, &outputs, catalog, cfg)?;
                let entry =
                    Arc::new(CacheEntry { optimized, outputs, rewrite_notes, cfg: cfg.clone() });
                let mut inner = self.inner.lock();
                // A device loss between the lookup and here would strand
                // this entry; re-checking the epoch keeps the insert safe.
                self.observe_epoch(&mut inner);
                inner.entries.insert(key, entry);
                lowered
            }
        };
        Ok(lowered.plan.with_source(Arc::new(bound)))
    }

    /// Compiles (from cache when possible) and executes in `session`,
    /// applying any root `Limit` at the host boundary — the serving-layer
    /// counterpart of [`Query::run`].
    pub fn execute<B: Backend>(
        &self,
        session: &Session<B>,
        query: &Query,
        params: &[ParamValue],
        catalog: &Catalog,
    ) -> Result<Vec<QueryValue>, QueryBuildError> {
        let plan = self.plan(query, params, catalog)?;
        let mut values = session.run(&plan, catalog)?;
        if let Some(limit) = query.limit_count() {
            for value in &mut values {
                match value {
                    QueryValue::Scalar(_) => {}
                    QueryValue::IntColumn(v) => v.truncate(limit),
                    QueryValue::FloatColumn(v) => v.truncate(limit),
                    QueryValue::OidColumn(v) => v.truncate(limit),
                }
            }
        }
        Ok(values)
    }

    /// [`Query::explain`] extended with the serving view: the cached
    /// shape's rewrite annotations and whether this cache served the
    /// query's last compile as a hit or a miss.
    pub fn explain(
        &self,
        query: &Query,
        params: &[ParamValue],
        catalog: &Catalog,
    ) -> Result<String, QueryBuildError> {
        let mut out = query.explain(catalog)?;
        let cfg = RewriteConfig::optimized();
        let outputs = query.output_columns()?;
        let key = self.key(query, params, &outputs, catalog, &cfg);
        let inner = self.inner.lock();
        out.push_str("=== plan cache ===\n");
        match inner.last {
            Some((k, hit)) if k == key => {
                out.push_str(&format!("last run: {}\n", if hit { "HIT" } else { "MISS" }));
            }
            _ => out.push_str("last run: (shape not compiled through this cache yet)\n"),
        }
        if let Some(entry) = inner.entries.get(&key) {
            out.push_str(&format!(
                "cached shape: {} rewrite rule applications\n",
                entry.rewrite_notes.len()
            ));
        }
        let stats = inner.stats;
        out.push_str(&format!(
            "totals: {} hits, {} misses, {} invalidations\n",
            stats.hits, stats.misses, stats.invalidations
        ));
        Ok(out)
    }

    /// Flushes the entries when the device-loss epoch moved since they
    /// were compiled (module docs). Caller holds the lock.
    fn observe_epoch(&self, inner: &mut CacheInner) {
        let current = self.slot.epoch();
        if current != inner.seen_epoch {
            inner.entries.clear();
            inner.seen_epoch = current;
            inner.stats.invalidations += 1;
        }
    }

    /// The cache key of a shape (module docs: tree + outputs + rule
    /// configuration + positional parameter kinds + catalog generation).
    fn key(
        &self,
        query: &Query,
        params: &[ParamValue],
        outputs: &[String],
        catalog: &Catalog,
        cfg: &RewriteConfig,
    ) -> u64 {
        let mut hash = Fnv::new();
        hash.write(query.root().render().as_bytes());
        for output in outputs {
            hash.write(output.as_bytes());
            hash.write(b";");
        }
        hash.write(&[
            cfg.fold as u8,
            cfg.pushdown as u8,
            cfg.selectivity_order as u8,
            cfg.prune as u8,
            cfg.fuse as u8,
        ]);
        for id in query.params() {
            let kind = match params.get(id as usize) {
                Some(ParamValue::I32(_)) => b'i',
                Some(ParamValue::F32(_)) => b'f',
                None => b'?',
            };
            hash.write(&[kind]);
        }
        hash.write(&catalog.generation().to_le_bytes());
        hash.finish()
    }
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PlanCache")
            .field("shapes", &inner.entries.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

fn param_expr(value: &ParamValue) -> crate::query::Expr {
    match value {
        ParamValue::I32(v) => crate::query::Expr::LitI32(*v),
        ParamValue::F32(v) => crate::query::Expr::LitF32(*v),
    }
}

/// FNV-1a, 64-bit — deterministic across runs and platforms (std's
/// `DefaultHasher` is randomly seeded, which would defeat cross-session
/// reasoning about keys in tests).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= *byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{col, param, Query};
    use ocelot_storage::{Bat, Table};

    fn catalog() -> Catalog {
        let n = 2_000;
        let mut catalog = Catalog::new();
        let fact = Table::new("fact")
            .with_column("k", Bat::from_i32("k", (0..n).map(|i| i % 50).collect()).into_ref())
            .with_column(
                "v",
                Bat::from_f32("v", (0..n).map(|i| (i % 97) as f32 * 0.25).collect()).into_ref(),
            )
            .with_column("d", Bat::from_i32("d", (0..n).map(|i| i % 1_000).collect()).into_ref());
        catalog.add_table(fact);
        catalog
    }

    fn shape() -> Query {
        Query::scan("fact")
            .filter(col("d").between(param(0), param(1)))
            .group_by(&["k"], &[crate::query::AggSpec::sum("v", "total")])
            .sort_by("k", false)
    }

    #[test]
    fn hits_produce_node_for_node_identical_plans() {
        let catalog = catalog();
        let cache = PlanCache::new();
        let q = shape();
        let params = [ParamValue::I32(100), ParamValue::I32(300)];
        let cold = cache.plan(&q, &params, &catalog).unwrap();
        let warm = cache.plan(&q, &params, &catalog).unwrap();
        assert_eq!(cold.nodes(), warm.nodes(), "hit must equal the cold compile node for node");
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 1, invalidations: 0 });
        assert_eq!(cache.len(), 1);

        // Different literals, same shape: still a hit.
        let other = cache.plan(&q, &[ParamValue::I32(0), ParamValue::I32(50)], &catalog).unwrap();
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(other.len(), cold.len());
    }

    #[test]
    fn bound_plans_execute_like_literal_queries() {
        let catalog = catalog();
        let cache = PlanCache::new();
        let session = Session::monet_seq();
        let q = shape();
        let params = [ParamValue::I32(100), ParamValue::I32(300)];
        let served = cache.execute(&session, &q, &params, &catalog).unwrap();
        let literal = Query::scan("fact")
            .filter(col("d").between(100, 300))
            .group_by(&["k"], &[crate::query::AggSpec::sum("v", "total")])
            .sort_by("k", false)
            .run(&session, &catalog)
            .unwrap();
        assert_eq!(served, literal);
    }

    #[test]
    fn parameter_kinds_and_catalog_generation_are_part_of_the_key() {
        let db = catalog();
        let cache = PlanCache::new();
        let q = Query::scan("fact").filter(col("v").le(param(0))).select(&["v"]);
        cache.plan(&q, &[ParamValue::F32(5.0)], &db).unwrap();
        // An i32 in the same slot is a different shape (different
        // selection classification), not a hit on the float entry.
        cache.plan(&q, &[ParamValue::I32(5)], &db).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);

        // A re-generated catalog of identical shape cannot reuse entries
        // (its statistics may differ).
        let regenerated = catalog();
        cache.plan(&q, &[ParamValue::F32(5.0)], &regenerated).unwrap();
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn unbound_and_underbound_queries_error_typed() {
        let catalog = catalog();
        let cache = PlanCache::new();
        let q = shape();
        let err = cache.plan(&q, &[ParamValue::I32(1)], &catalog).unwrap_err();
        assert_eq!(err, QueryBuildError::UnboundParam { id: 1 });
        let err = q.lower(&catalog).unwrap_err();
        assert_eq!(err, QueryBuildError::UnboundParam { id: 0 });
    }

    #[test]
    fn epoch_bumps_flush_the_cache() {
        let catalog = catalog();
        let cache = PlanCache::new();
        let q = shape();
        let params = [ParamValue::I32(100), ParamValue::I32(300)];
        cache.plan(&q, &params, &catalog).unwrap();
        cache.slot.invalidate();
        cache.plan(&q, &params, &catalog).unwrap();
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.invalidations),
            (0, 2, 1),
            "the post-invalidation lookup recompiles"
        );
    }

    #[test]
    fn explain_reports_params_and_hit_state() {
        let catalog = catalog();
        let cache = PlanCache::new();
        let q = shape();
        let params = [ParamValue::I32(100), ParamValue::I32(300)];
        let text = cache.explain(&q, &params, &catalog).unwrap();
        assert!(text.contains("params: [$0, $1]"), "{text}");
        assert!(text.contains("not compiled through this cache"), "{text}");
        cache.plan(&q, &params, &catalog).unwrap();
        let text = cache.explain(&q, &params, &catalog).unwrap();
        assert!(text.contains("last run: MISS"), "{text}");
        cache.plan(&q, &params, &catalog).unwrap();
        let text = cache.explain(&q, &params, &catalog).unwrap();
        assert!(text.contains("last run: HIT"), "{text}");
        assert!(text.contains("cached shape:"), "{text}");
    }
}
