//! The lowering pass: compiles a rewritten [`Logical`] tree onto the
//! physical [`PlanBuilder`].
//!
//! The lowerer owns every physical decision (module docs in
//! [`super`]): selection operator choice with candidate-list chaining
//! (column-vs-column comparisons and `IN` lists are single selections;
//! only a genuine `OR` unions candidate lists), the join build side and its
//! algorithm, which join sides get position lists at all, one fused
//! aggregate node per grouping, and the materialisation order around
//! groupings and sorts. Each decision appends a note rendered by
//! [`super::Query::explain`]. The node list is then handed to
//! [`crate::fuse::fuse_plan`] ([`RewriteConfig::fuse`]), which collapses its
//! streaming regions into `pipeline` nodes.
//!
//! Internally a lowered relation ([`Rel`]) tracks, per source table, an OID
//! column aligned to the relation's rows (`None` while the relation is
//! still the table's identity), plus a cache of materialised columns.
//! Reading a base column is `bind` (+ `fetch` through the table's OIDs);
//! computed columns are remembered by name. While a relation is a single
//! base table with no computed columns, predicates lower as **candidate
//! selections** on the base columns (the MonetDB-style chain the paper's
//! operators are built for); after joins they lower as **positional
//! selections** over materialised columns, and the whole relation is
//! re-aligned through the resulting position list.
//!
//! A join whose build side's key is a **dense** base column of one of that
//! side's tables (`Bat::dense_base`, decided from the data: `base, base + 1,
//! …`) lowers to one `dense_join` node: its inputs are the other side's key
//! and that table's OID column (none while the side is the table's
//! identity), and the node carries the key's base and the table's row
//! count. The dense key itself is never bound or fetched, and no
//! partitioning decision is taken — the node's scratch is a word per table
//! row. Semi and anti joins take the same path with the dense key on
//! either side. Every other join — a sparse key (official TPC-H's
//! `o_orderkey`), a computed key, a non-key column — is a hash join,
//! lowered as it always was. `explain()` names the path each join took.

use super::rewrite::{available_columns, classify, column_stats, selectivity, Atom, ColTy, Pred};
use super::{AggFunc, AggSpec, JoinKind, Logical, QueryBuildError, RewriteConfig};
use crate::backend::{DenseJoinKind, GroupedAgg, Map, Pred as Conjunct};
use crate::plan::{Plan, PlanBuilder, Var};
use crate::query::expr::Expr;
use ocelot_core::partition::hash_table_bytes;
use ocelot_storage::{Catalog, DenseKey};
use std::collections::{HashMap, HashSet};

/// The result of lowering: the physical plan plus the decision notes.
pub(crate) struct Lowered {
    /// The compiled physical plan.
    pub plan: Plan,
    /// One note per physical decision, for `explain`.
    pub notes: Vec<String>,
}

/// A materialised column of a lowered relation.
#[derive(Clone)]
struct RelCol {
    var: Var,
    ty: ColTy,
    /// Whether the column is a plain fetch of base data (droppable and
    /// lazily re-fetchable) as opposed to a computed value that must be
    /// carried through re-alignments.
    refetchable: bool,
}

/// A lowered relation (see module docs).
struct Rel {
    /// Per source table: OIDs into base rows, aligned to the relation's
    /// rows (`None` = the relation *is* the full table).
    tables: Vec<(String, Option<Var>)>,
    /// Materialised columns aligned to the relation's rows.
    cols: HashMap<String, RelCol>,
    /// Columns whose values are unique per relation row.
    unique: HashSet<String>,
    /// Estimated row count.
    rows: f64,
    /// Whether the relation is the output of a grouping (no base tables;
    /// every column lives in `cols`).
    grouped: bool,
    /// Set when the relation is a single ungrouped scalar aggregate.
    scalar: Option<(String, Var)>,
}

struct Lower<'a> {
    catalog: &'a Catalog,
    cfg: &'a RewriteConfig,
    p: PlanBuilder,
    notes: Vec<String>,
}

/// Lowers a rewritten logical tree into a physical plan (entry point; see
/// module docs).
pub(crate) fn lower(
    root: &Logical,
    outputs: &[String],
    catalog: &Catalog,
    cfg: &RewriteConfig,
) -> Result<Lowered, QueryBuildError> {
    let mut lower = Lower { catalog, cfg, p: PlanBuilder::new(), notes: Vec::new() };
    // Strip root-most Limits (applied at the host boundary by Query::run).
    let mut node = root;
    while let Logical::Limit { input, count } = node {
        lower.notes.push(format!(
            "limit {count}: applied at the host materialisation boundary (no device top-k)"
        ));
        node = input;
    }
    let mut needed: HashSet<String> = outputs.iter().cloned().collect();
    if !cfg.prune {
        needed.extend(available_columns(node, catalog));
    }
    let mut rel = lower.node(node, &needed)?;
    let mut vars = Vec::with_capacity(outputs.len());
    for name in outputs {
        if let Some((scalar_name, var)) = &rel.scalar {
            if scalar_name == name {
                vars.push(*var);
                continue;
            }
        }
        let (var, _) = lower.materialize(&mut rel, name)?;
        vars.push(var);
    }
    lower.p.result(&vars)?;
    let (mut plan, mut notes) = (lower.p.finish(), lower.notes);
    if cfg.fuse {
        let (fused, fused_notes) = crate::fuse::fuse_plan(plan);
        debug_assert!(
            crate::analyze::verify(&fused).is_ok(),
            "the fused plan must verify:\n{}",
            crate::analyze::verify(&fused)
        );
        plan = fused;
        notes.extend(fused_notes);
    }
    Ok(Lowered { plan, notes })
}

/// Estimated device working set of a monolithic hash join: both key
/// columns plus twice a hash-sized table over the build side — the model
/// `partition::hash_table_bytes` budgets partitions with, so the decision to
/// partition and the spill schedule agree on what fits.
fn join_working_set_bytes(build_rows: f64, probe_rows: f64) -> usize {
    let build_rows = build_rows.max(1.0) as usize;
    hash_table_bytes(build_rows) + probe_rows.max(0.0) as usize * 4 + build_rows * 4
}

impl<'a> Lower<'a> {
    // ---- column access -------------------------------------------------

    /// The element type of a column in `rel` (cache, then base tables).
    fn ty_of(&self, rel: &Rel, name: &str) -> Option<ColTy> {
        if let Some(col) = rel.cols.get(name) {
            return Some(col.ty);
        }
        rel.tables.iter().find_map(|(table, _)| {
            let bat = self.catalog.column(table, name)?;
            Some(if bat.as_f32().is_some() { ColTy::F32 } else { ColTy::I32 })
        })
    }

    /// Materialises `name` as a column aligned to `rel`'s rows.
    fn materialize(&mut self, rel: &mut Rel, name: &str) -> Result<(Var, ColTy), QueryBuildError> {
        if let Some(col) = rel.cols.get(name) {
            return Ok((col.var, col.ty));
        }
        for (table, oids) in &rel.tables {
            if let Some(bat) = self.catalog.column(table, name) {
                let ty = if bat.as_f32().is_some() { ColTy::F32 } else { ColTy::I32 };
                let base = self.p.bind(table, name);
                let var = match oids {
                    Some(oids) => self.p.fetch(base, *oids)?,
                    None => base,
                };
                rel.cols.insert(name.to_string(), RelCol { var, ty, refetchable: true });
                return Ok((var, ty));
            }
        }
        Err(QueryBuildError::UnknownColumn { name: name.to_string() })
    }

    /// Materialises `name` as an f32 column (casting integers).
    fn materialize_f32(&mut self, rel: &mut Rel, name: &str) -> Result<Var, QueryBuildError> {
        let (var, ty) = self.materialize(rel, name)?;
        self.as_f32(var, ty)
    }

    /// `var` as an f32 column: itself, or its cast when it holds integers.
    fn as_f32(&mut self, var: Var, ty: ColTy) -> Result<Var, QueryBuildError> {
        Ok(match ty {
            ColTy::F32 => var,
            ColTy::I32 => self.p.map(Map::CastI32F32(Map::leaf(0)), &[var])?,
        })
    }

    // ---- expressions ---------------------------------------------------

    /// Lowers a value expression over `rel` into the backend's element-wise
    /// map kernels.
    fn value_expr(&mut self, rel: &mut Rel, expr: &Expr) -> Result<(Var, ColTy), QueryBuildError> {
        match expr {
            Expr::Col(name) => self.materialize(rel, name),
            Expr::Year(inner) => {
                let (var, ty) = self.value_expr(rel, inner)?;
                if ty != ColTy::I32 {
                    return Err(QueryBuildError::Unsupported(format!(
                        "YEAR over a non-integer expression: {inner}"
                    )));
                }
                Ok((self.p.map(Map::Year(Map::leaf(0)), &[var])?, ColTy::I32))
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                let var = self.arith(rel, expr, a, b)?;
                Ok((var, ColTy::F32))
            }
            Expr::LitI32(_) | Expr::LitF32(_) => Err(QueryBuildError::Unsupported(format!(
                "bare literal {expr} as a column (constant columns are not supported)"
            ))),
            other => Err(QueryBuildError::Unsupported(format!(
                "predicate {other} used as a value expression"
            ))),
        }
    }

    /// One arithmetic operator: `c + x`, `c − x` or `x · c` when one side
    /// is a literal, `a + b`, `a − b` or `a · b` otherwise — one map node.
    fn arith(
        &mut self,
        rel: &mut Rel,
        whole: &Expr,
        a: &Expr,
        b: &Expr,
    ) -> Result<Var, QueryBuildError> {
        let (x, y) = (Map::leaf(0), Map::leaf(1));
        let (map, operands): (Map, Vec<&Expr>) = match (whole, a.as_lit_f32(), b.as_lit_f32()) {
            (_, Some(_), Some(_)) => unreachable!("folded by the rewrite"),
            (Expr::Add(..), Some(c), None) => (Map::ConstPlus(c, x), vec![b]),
            (Expr::Add(..), None, Some(c)) => (Map::ConstPlus(c, x), vec![a]),
            (Expr::Add(..), None, None) => (Map::Add(x, y), vec![a, b]),
            (Expr::Sub(..), Some(c), None) => (Map::ConstMinus(c, x), vec![b]),
            (Expr::Sub(..), None, Some(c)) => (Map::ConstPlus(-c, x), vec![a]),
            (Expr::Sub(..), None, None) => (Map::Sub(x, y), vec![a, b]),
            (Expr::Mul(..), Some(c), None) => (Map::MulConst(x, c), vec![b]),
            (Expr::Mul(..), None, Some(c)) => (Map::MulConst(x, c), vec![a]),
            (Expr::Mul(..), None, None) => (Map::Mul(x, y), vec![a, b]),
            _ => unreachable!("arith called on non-arithmetic"),
        };
        let mut columns = Vec::with_capacity(operands.len());
        for operand in operands {
            let (var, ty) = self.value_expr(rel, operand)?;
            columns.push(self.as_f32(var, ty)?);
        }
        Ok(self.p.map(map, &columns)?)
    }

    // ---- relations -----------------------------------------------------

    /// Re-aligns `rel` through a position list into its current rows:
    /// table OIDs compose, computed columns are fetched, refetchable
    /// columns are dropped (they re-materialise lazily).
    fn remap(&mut self, rel: &mut Rel, pos: Var) -> Result<(), QueryBuildError> {
        for (_, oids) in rel.tables.iter_mut() {
            *oids = Some(match oids {
                Some(o) => self.p.fetch(*o, pos)?,
                // The relation was the table's identity: positions into its
                // rows *are* row OIDs.
                None => pos,
            });
        }
        // Sorted so the emitted fetch nodes are deterministic: the plan
        // cache promises a hit is node-for-node equal to a cold compile,
        // and HashMap iteration order differs per instance.
        let mut cols: Vec<(String, RelCol)> = std::mem::take(&mut rel.cols).into_iter().collect();
        cols.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, col) in cols {
            if col.refetchable && !rel.grouped {
                continue; // re-materialises through the new table OIDs
            }
            let var = self.p.fetch(col.var, pos)?;
            rel.cols.insert(name, RelCol { var, ..col });
        }
        Ok(())
    }

    /// Drops source tables no `needed` column lives in (their position
    /// lists are never built — the projection-pruning effect on joins).
    fn trim_tables(&mut self, rel: &mut Rel, needed: &HashSet<String>) {
        if !self.cfg.prune {
            return;
        }
        let catalog = self.catalog;
        // Only *computed* columns satisfy a future need — refetchable
        // cached fetches are dropped at the next re-alignment, so their
        // base table must stay reachable.
        let computed: HashSet<&String> =
            rel.cols.iter().filter(|(_, c)| !c.refetchable).map(|(name, _)| name).collect();
        let before = rel.tables.len();
        rel.tables.retain(|(table, _)| {
            needed.iter().any(|c| !computed.contains(c) && catalog.column(table, c).is_some())
        });
        if rel.tables.len() < before {
            self.notes.push(format!(
                "projection pruning: dropped {} join-side position list(s) no output needs",
                before - rel.tables.len()
            ));
        }
    }

    // ---- node lowering -------------------------------------------------

    fn node(&mut self, node: &Logical, needed: &HashSet<String>) -> Result<Rel, QueryBuildError> {
        match node {
            Logical::Scan { table } => self.scan(table, needed),
            Logical::Filter { input, predicate } => {
                let mut sub = needed.clone();
                sub.extend(predicate.columns());
                let mut rel = self.node(input, &sub)?;
                self.apply_filter(&mut rel, predicate)?;
                Ok(rel)
            }
            Logical::Map { input, name, expr } => {
                let mut sub: HashSet<String> =
                    needed.iter().filter(|c| *c != name).cloned().collect();
                sub.extend(expr.columns());
                let mut rel = self.node(input, &sub)?;
                let (var, ty) = self.value_expr(&mut rel, expr)?;
                rel.cols.insert(name.clone(), RelCol { var, ty, refetchable: false });
                Ok(rel)
            }
            Logical::Join { left, right, kind, left_key, right_key } => {
                self.join(left, right, *kind, left_key, right_key, needed)
            }
            Logical::GroupBy { input, keys, aggs } => self.group(input, keys, aggs),
            Logical::Sort { input, key, descending } => {
                let mut sub = needed.clone();
                sub.insert(key.clone());
                let mut rel = self.node(input, &sub)?;
                if rel.scalar.is_some() {
                    return Err(QueryBuildError::Unsupported(
                        "sorting a scalar aggregate".to_string(),
                    ));
                }
                let (kvar, ty) = self.materialize(&mut rel, key)?;
                let perm = match ty {
                    ColTy::I32 => self.p.sort_order_i32(kvar, *descending)?,
                    ColTy::F32 => self.p.sort_order_f32(kvar, *descending)?,
                };
                self.notes.push(format!(
                    "sort by {key}: radix sort permutation ({}), outputs gathered through it",
                    if *descending { "descending" } else { "ascending" }
                ));
                self.remap(&mut rel, perm)?;
                Ok(rel)
            }
            Logical::Limit { .. } => Err(QueryBuildError::Unsupported(
                "LIMIT below other operators (only the outermost LIMIT is supported)".to_string(),
            )),
        }
    }

    fn scan(&mut self, table: &str, needed: &HashSet<String>) -> Result<Rel, QueryBuildError> {
        let Some(t) = self.catalog.table(table) else {
            return Err(QueryBuildError::UnknownColumn { name: format!("{table}.*") });
        };
        let unique: HashSet<String> =
            t.columns().filter(|(_, bat)| bat.is_key()).map(|(name, _)| name.to_string()).collect();
        let rows = t.row_count() as f64;
        let mut rel = Rel {
            tables: vec![(table.to_string(), None)],
            cols: HashMap::new(),
            unique,
            rows,
            grouped: false,
            scalar: None,
        };
        if !self.cfg.prune {
            // Naive lowering: materialise (bind) every column of the table,
            // whether or not the query reads it — the "SELECT *" baseline
            // projection pruning removes.
            let names: Vec<String> = t.column_names().iter().map(|s| s.to_string()).collect();
            self.notes.push(format!(
                "naive scan {table}: binds all {} columns (projection pruning off)",
                names.len()
            ));
            for name in names {
                self.materialize(&mut rel, &name)?;
            }
        } else {
            let bound: Vec<&String> = needed.iter().filter(|c| t.column(c).is_some()).collect();
            self.notes.push(format!(
                "scan {table}: {} of {} columns bound lazily on first use",
                bound.len(),
                t.column_count()
            ));
        }
        Ok(rel)
    }

    // ---- filters -------------------------------------------------------

    fn apply_filter(&mut self, rel: &mut Rel, predicate: &Expr) -> Result<(), QueryBuildError> {
        for conjunct in predicate.conjuncts() {
            let ty_of = |name: &str| self.ty_of(rel, name);
            let pred = classify(&conjunct, &ty_of)?;
            self.apply_pred(rel, &pred)?;
        }
        Ok(())
    }

    /// Whether the relation still supports base-column candidate chaining.
    fn candidate_mode(&self, rel: &Rel, pred: &Pred) -> bool {
        if rel.grouped || rel.tables.len() != 1 {
            return false;
        }
        if rel.cols.values().any(|c| !c.refetchable) {
            return false;
        }
        let table = &rel.tables[0].0;
        pred.atoms()
            .iter()
            .all(|a| a.columns().iter().all(|c| self.catalog.column(table, c).is_some()))
    }

    fn apply_pred(&mut self, rel: &mut Rel, pred: &Pred) -> Result<(), QueryBuildError> {
        let sel = if rel.grouped {
            0.5
        } else {
            selectivity(
                pred,
                &rel.tables.first().map(|(t, _)| t.clone()).unwrap_or_default(),
                self.catalog,
            )
        };
        if self.candidate_mode(rel, pred) {
            let cands = rel.tables[0].1;
            let out = self.select_union(rel, pred, cands, true)?;
            self.notes.push(format!(
                "select `{}` on {}: candidate-chained base-column selection (est sel ≈{sel:.3})",
                pred.describe(),
                rel.tables[0].0,
            ));
            rel.tables[0].1 = Some(out);
            // Cached fetches are stale for the narrowed rows; they
            // re-materialise lazily through the new candidate list.
            rel.cols.clear();
        } else {
            let pos = self.select_union(rel, pred, None, false)?;
            self.notes.push(format!(
                "select `{}`: positional re-selection over materialised columns \
                 (relation spans {} table(s))",
                pred.describe(),
                rel.tables.len(),
            ));
            self.remap(rel, pos)?;
        }
        rel.rows = (rel.rows * sel).max(1.0);
        Ok(())
    }

    /// Lowers a predicate's atoms as selections, unioning a disjunction's
    /// candidate lists. `base` = candidate chaining over base columns;
    /// otherwise positional selection over materialised columns.
    fn select_union(
        &mut self,
        rel: &mut Rel,
        pred: &Pred,
        cands: Option<Var>,
        base: bool,
    ) -> Result<Var, QueryBuildError> {
        let mut result: Option<Var> = None;
        for atom in pred.atoms() {
            let selected = self.select_atom(rel, atom, cands, base)?;
            result = Some(match result {
                None => selected,
                Some(prev) => {
                    let unioned = self.p.union_oids(prev, selected)?;
                    self.notes.push(format!(
                        "OR union: combined candidate lists for `{}`",
                        atom.describe()
                    ));
                    unioned
                }
            });
        }
        result.ok_or_else(|| QueryBuildError::Unsupported("empty predicate".to_string()))
    }

    /// One atom as one selection.
    fn select_atom(
        &mut self,
        rel: &mut Rel,
        atom: &Atom,
        cands: Option<Var>,
        base: bool,
    ) -> Result<Var, QueryBuildError> {
        let col_var =
            |this: &mut Self, rel: &mut Rel, name: &str| -> Result<Var, QueryBuildError> {
                if base {
                    // Candidate chaining runs on the *base* column (OIDs are
                    // row ids of the table).
                    let table = rel.tables[0].0.clone();
                    Ok(this.p.bind(&table, name))
                } else {
                    Ok(this.materialize(rel, name)?.0)
                }
            };
        let pred = match atom {
            Atom::RangeI32 { lo, hi, .. } => Conjunct::RangeI32 { col: 0, low: *lo, high: *hi },
            Atom::RangeF32 { lo, hi, .. } => Conjunct::RangeF32 { col: 0, low: *lo, high: *hi },
            Atom::EqI32 { value, .. } => Conjunct::EqI32 { col: 0, needle: *value },
            Atom::NeI32 { value, .. } => Conjunct::NeI32 { col: 0, needle: *value },
            Atom::InI32 { values, .. } => {
                Conjunct::InI32 { col: 0, values: values.as_slice().into() }
            }
            Atom::ColCmp { op, .. } => Conjunct::CmpI32 { op: *op, left: 0, right: 1 },
        };
        let columns: Vec<Var> = (atom.columns().into_iter())
            .map(|name| col_var(self, rel, name))
            .collect::<Result<_, _>>()?;
        Ok(self.p.select(pred, &columns, cands)?)
    }

    // ---- joins ---------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        left: &Logical,
        right: &Logical,
        kind: JoinKind,
        left_key: &str,
        right_key: &str,
        needed: &HashSet<String>,
    ) -> Result<Rel, QueryBuildError> {
        let left_avail = available_columns(left, self.catalog);
        let right_avail = available_columns(right, self.catalog);
        let mut left_needed: HashSet<String> = needed.intersection(&left_avail).cloned().collect();
        left_needed.insert(left_key.to_string());
        let mut right_needed: HashSet<String> = match kind {
            JoinKind::Inner => needed.intersection(&right_avail).cloned().collect(),
            JoinKind::Semi | JoinKind::Anti => HashSet::new(),
        };
        right_needed.insert(right_key.to_string());
        if !self.cfg.prune {
            left_needed = left_avail;
            right_needed = right_avail;
        }
        let mut lrel = self.node(left, &left_needed)?;
        let mut rrel = self.node(right, &right_needed)?;
        let on = format!("{left_key} = {right_key}");

        match kind {
            JoinKind::Semi | JoinKind::Anti => {
                let semi = kind == JoinKind::Semi;
                let what = if semi { "semi join" } else { "anti join" };
                // A dense side is positions: its key is never read.
                let pos = if let Some((key, listed)) = self.dense_key(&rrel, right_key) {
                    let probe = self.join_key(&mut lrel, left_key, &on)?;
                    let kind = if semi { DenseJoinKind::Semi } else { DenseJoinKind::Anti };
                    self.notes.push(format!(
                        "{what} {on}: {right_key} is dense (base {}, {} rows) — positional probe \
                         of {left_key}, no hash table",
                        key.base, key.rows
                    ));
                    self.p.dense_join(kind, probe, listed, key)?.0
                } else if let Some((key, listed)) = self.dense_key(&lrel, left_key) {
                    let marks = self.join_key(&mut rrel, right_key, &on)?;
                    let kind =
                        if semi { DenseJoinKind::ListedSemi } else { DenseJoinKind::ListedAnti };
                    self.notes.push(format!(
                        "{what} {on}: {left_key} is dense (base {}, {} rows) — {right_key} flags \
                         the rows it names, the left rows read their flag, no hash table",
                        key.base, key.rows
                    ));
                    self.p.dense_join(kind, marks, listed, key)?.0
                } else {
                    let lk = self.join_key(&mut lrel, left_key, &on)?;
                    let rk = self.join_key(&mut rrel, right_key, &on)?;
                    let pos =
                        if semi { self.p.semi_join(lk, rk)? } else { self.p.anti_join(lk, rk)? };
                    self.notes.push(format!(
                        "{what} {on}: hash build on the right (est {:.0} rows), probe keeps left \
                         rows",
                        rrel.rows
                    ));
                    pos
                };
                self.trim_tables(&mut lrel, needed);
                self.remap(&mut lrel, pos)?;
                lrel.rows = (lrel.rows * 0.5).max(1.0);
                Ok(lrel)
            }
            JoinKind::Inner => {
                let l_unique = lrel.unique.contains(left_key);
                let r_unique = rrel.unique.contains(right_key);
                let build_right = match (l_unique, r_unique) {
                    (false, true) => true,
                    (true, false) => false,
                    (true, true) => {
                        let build_right = rrel.rows <= lrel.rows;
                        self.notes.push(format!(
                            "join {on}: both keys unique — build side by estimated cardinality: \
                             {} (est {:.0} vs {:.0} rows)",
                            if build_right { "right" } else { "left" },
                            rrel.rows,
                            lrel.rows
                        ));
                        build_right
                    }
                    (false, false) => {
                        return Err(QueryBuildError::NoUniqueJoinKey {
                            left_key: left_key.to_string(),
                            right_key: right_key.to_string(),
                        })
                    }
                };
                let (lpos, rpos) =
                    self.pkfk_join(&mut lrel, left_key, &mut rrel, right_key, build_right, &on)?;
                // Probe-side rows survive at most once each; estimate the
                // match rate from the build side's restriction.
                let (probe_rows, build_rel_rows, build_table_rows) = if build_right {
                    let base = self.base_rows_of_key(&rrel, right_key);
                    (lrel.rows, rrel.rows, base)
                } else {
                    let base = self.base_rows_of_key(&lrel, left_key);
                    (rrel.rows, lrel.rows, base)
                };
                let match_rate = (build_rel_rows / build_table_rows.max(1.0)).min(1.0);
                let rows = (probe_rows * match_rate).max(1.0);
                // Trim before re-aligning so pruned sides never get a
                // position-list fetch emitted at all.
                self.trim_tables(&mut lrel, needed);
                self.trim_tables(&mut rrel, needed);
                self.remap(&mut lrel, lpos)?;
                self.remap(&mut rrel, rpos)?;
                let mut rel = Rel {
                    tables: Vec::new(),
                    cols: HashMap::new(),
                    // Probe-side uniqueness survives (each probe row joins
                    // at most one build row); build-side rows can fan out,
                    // unless both keys were unique.
                    unique: if build_right {
                        let mut u = lrel.unique.clone();
                        if l_unique && r_unique {
                            u.extend(rrel.unique.iter().cloned());
                        }
                        u
                    } else {
                        let mut u = rrel.unique.clone();
                        if l_unique && r_unique {
                            u.extend(lrel.unique.iter().cloned());
                        }
                        u
                    },
                    rows,
                    grouped: false,
                    scalar: None,
                };
                rel.tables.extend(lrel.tables);
                rel.tables.extend(rrel.tables);
                for (name, col) in lrel.cols.into_iter().chain(rrel.cols) {
                    rel.cols.insert(name, col);
                }
                self.trim_tables(&mut rel, needed);
                Ok(rel)
            }
        }
    }

    /// One PK-FK join whose build side is the right one (`build_right`) or
    /// the left one, its key unique there: the aligned `(left positions,
    /// right positions)`. A dense build key is positions already — a
    /// positional probe through the build side's row list, with no key
    /// bind, no hash table and no partitioning decision (its scratch is a
    /// word per table row). Otherwise a hash join, partitioned when the
    /// device budget says so.
    #[allow(clippy::too_many_arguments)]
    fn pkfk_join(
        &mut self,
        lrel: &mut Rel,
        left_key: &str,
        rrel: &mut Rel,
        right_key: &str,
        build_right: bool,
        on: &str,
    ) -> Result<(Var, Var), QueryBuildError> {
        let aligned = |probe_pos, build_pos| match build_right {
            true => (probe_pos, build_pos),
            false => (build_pos, probe_pos),
        };
        let (build, build_key, probe, probe_key) = match build_right {
            true => (&*rrel, right_key, &*lrel, left_key),
            false => (&*lrel, left_key, &*rrel, right_key),
        };
        if let Some((key, listed)) = self.dense_key(build, build_key) {
            self.notes.push(format!(
                "dense join {on}: {build_key} is dense (base {}, {} rows) — positional probe of \
                 {probe_key} (est {:.0} rows) through the {} rows, no key fetch, no hash table",
                key.base,
                key.rows,
                probe.rows,
                if listed.is_some() { "listed" } else { "table's" },
            ));
            let fk = match build_right {
                true => self.join_key(lrel, left_key, on)?,
                false => self.join_key(rrel, right_key, on)?,
            };
            let (probe_pos, Some(build_pos)) =
                self.p.dense_join(DenseJoinKind::Inner, fk, listed, key)?
            else {
                unreachable!("an inner dense join outputs the list positions")
            };
            return Ok(aligned(probe_pos, build_pos));
        }
        let lk = self.join_key(lrel, left_key, on)?;
        let rk = self.join_key(rrel, right_key, on)?;
        let (fk, pk, build, build_key, probe, probe_key) = match build_right {
            true => (lk, rk, &*rrel, right_key, &*lrel, left_key),
            false => (rk, lk, &*lrel, left_key, &*rrel, right_key),
        };
        // Out-of-core choice: when the monolithic join's working set would
        // claim more than a quarter of the device budget, lower the
        // partitioned hybrid hash join — planned spilling replaces the
        // OOM-restart protocol as this join's way of surviving memory
        // pressure (the restart path stays as the backstop for estimation
        // misses). The working set is sized for the *base* cardinalities,
        // not the post-filter estimates: selectivity guesses are the least
        // reliable statistic, and an under-provisioned monolithic join
        // faults at runtime, while an over-provisioned partitioned join
        // merely spills a little. The quarter share mirrors the
        // execution-side `SpillPool` sizing — the join lives on the device
        // alongside the plan's pinned base columns and the other operators'
        // scratch.
        let working_set = join_working_set_bytes(
            self.base_rows_of_key(build, build_key),
            self.base_rows_of_key(probe, probe_key),
        );
        let ndv_hint = self.base_ndv_of_key(build, build_key);
        let (side, other) = if build_right { ("right", "left") } else { ("left", "right") };
        let (build_rows, probe_rows) = (build.rows, probe.rows);
        let (probe_pos, build_pos) =
            if self.cfg.device_budget.is_some_and(|budget| working_set * 4 > budget) {
                self.notes.push(format!(
                    "pkfk join {on}: PARTITIONED hybrid hash — base working set {working_set} B \
                     exceeds a quarter of the device budget; build on {side} (est \
                     {build_rows:.0} rows, ndv~{ndv_hint}), spill-capable"
                ));
                self.p.pkfk_join_partitioned(fk, pk, ndv_hint)?
            } else {
                self.notes.push(format!(
                    "pkfk join {on}: build on {side} (unique {build_key}, est {build_rows:.0} \
                     rows), probe {other} (est {probe_rows:.0} rows)"
                ));
                self.p.pkfk_join(fk, pk)?
            };
        Ok(aligned(probe_pos, build_pos))
    }

    /// A join key as an integer column of `rel`.
    fn join_key(&mut self, rel: &mut Rel, key: &str, on: &str) -> Result<Var, QueryBuildError> {
        match self.materialize(rel, key)? {
            (var, ColTy::I32) => Ok(var),
            _ => Err(QueryBuildError::Unsupported(format!(
                "join keys {on} must both be integer columns"
            ))),
        }
    }

    /// `key` as a dense base column of one of `rel`'s tables
    /// ([`ocelot_storage::Bat::dense_base`], decided from the data), with the
    /// row list aligning that table to `rel`'s rows (`None`: `rel` is the
    /// table as it lies). `None` for a computed key or a column that is not
    /// dense.
    fn dense_key(&self, rel: &Rel, key: &str) -> Option<(DenseKey, Option<Var>)> {
        if rel.cols.get(key).is_some_and(|col| !col.refetchable) {
            return None;
        }
        rel.tables.iter().find_map(|(table, listed)| {
            let bat = self.catalog.column(table, key)?;
            let key = bat.dense_base().map(|base| DenseKey { base, rows: bat.len() });
            Some(key.map(|key| (key, *listed)))
        })?
    }

    /// Distinct-count estimate behind a key column (partition sizing for
    /// the out-of-core join); falls back to the relation's row estimate
    /// for computed keys.
    fn base_ndv_of_key(&self, rel: &Rel, key: &str) -> usize {
        for (table, _) in &rel.tables {
            if self.catalog.column(table, key).is_some() {
                return column_stats(self.catalog, table, key).ndv.max(1);
            }
        }
        rel.rows.max(1.0) as usize
    }

    /// Base-table row count behind a key column (for match-rate estimates);
    /// falls back to the relation's own estimate for computed keys.
    fn base_rows_of_key(&self, rel: &Rel, key: &str) -> f64 {
        for (table, _) in &rel.tables {
            if let Some(bat) = self.catalog.column(table, key) {
                return bat.len() as f64;
            }
        }
        rel.rows
    }

    // ---- grouping ------------------------------------------------------

    fn group(
        &mut self,
        input: &Logical,
        keys: &[String],
        aggs: &[AggSpec],
    ) -> Result<Rel, QueryBuildError> {
        let mut needed: HashSet<String> = keys.iter().cloned().collect();
        for agg in aggs {
            if let Some(input) = &agg.input {
                needed.insert(input.clone());
            }
        }
        if !self.cfg.prune {
            needed.extend(available_columns(input, self.catalog));
        }
        let mut rel = self.node(input, &needed)?;

        if keys.is_empty() {
            // Ungrouped (scalar) aggregation: the one-word deferred sum.
            let [agg] = aggs else {
                return Err(QueryBuildError::Unsupported(
                    "ungrouped aggregation supports exactly one SUM".to_string(),
                ));
            };
            if agg.func != AggFunc::Sum {
                return Err(QueryBuildError::Unsupported(format!(
                    "ungrouped {}(…) (only SUM lowers to the deferred scalar reduction)",
                    agg.func.name()
                )));
            }
            let input_name = agg.input.as_deref().ok_or_else(|| {
                QueryBuildError::Unsupported("SUM without an input column".to_string())
            })?;
            let values = self.materialize_f32(&mut rel, input_name)?;
            let scalar = self.p.sum_f32(values)?;
            self.notes
                .push(format!("ungrouped sum({input_name}): deferred one-word scalar reduction"));
            return Ok(Rel {
                tables: Vec::new(),
                cols: HashMap::new(),
                unique: HashSet::new(),
                rows: 1.0,
                grouped: true,
                scalar: Some((agg.output.clone(), scalar)),
            });
        }

        let mut key_vars = Vec::with_capacity(keys.len());
        for key in keys {
            let (var, ty) = self.materialize(&mut rel, key)?;
            if ty != ColTy::I32 {
                return Err(QueryBuildError::Unsupported(format!(
                    "grouping key {key} must be an integer column (group float values \
                     through an integer code instead)"
                )));
            }
            key_vars.push(var);
        }
        let group = self.p.group_by(&key_vars)?;
        let reps = self.p.group_reps(group)?;
        self.notes.push(format!(
            "group by [{}]: one grouping (dense codes or a hash build, chosen at run time from \
             the key ranges), keys carried by representative fetches",
            keys.join(", ")
        ));

        let mut out = Rel {
            tables: Vec::new(),
            cols: HashMap::new(),
            unique: if keys.len() == 1 { keys.iter().cloned().collect() } else { HashSet::new() },
            rows: rel.rows.sqrt().max(1.0), // coarse group-count guess
            grouped: true,
            scalar: None,
        };
        for (key, var) in keys.iter().zip(&key_vars) {
            let fetched = self.p.fetch(*var, reps)?;
            out.cols
                .insert(key.clone(), RelCol { var: fetched, ty: ColTy::I32, refetchable: false });
        }
        // FIRSTs are representative fetches; everything else is one fused
        // aggregate node whose results come back in `fused` order.
        let mut fused: Vec<(GroupedAgg, &AggSpec)> = Vec::new();
        // One float view per input column, so `sum(x)` and `avg(x)` over an
        // integer `x` share one cast and one operand.
        let mut float_inputs: HashMap<&str, Var> = HashMap::new();
        for agg in aggs {
            let input = |what: &str| {
                agg.input.as_deref().ok_or_else(|| {
                    QueryBuildError::Unsupported(format!("{what} without an input column"))
                })
            };
            let func = match agg.func {
                AggFunc::Count => GroupedAgg::Count,
                AggFunc::First => {
                    let (value, ty) = self.materialize(&mut rel, input("FIRST")?)?;
                    let var = self.p.fetch(value, reps)?;
                    out.cols.insert(agg.output.clone(), RelCol { var, ty, refetchable: false });
                    continue;
                }
                AggFunc::Sum | AggFunc::Avg | AggFunc::Min | AggFunc::Max => {
                    let name = input(&format!("{}(…)", agg.func.name()))?;
                    let values = match float_inputs.get(name) {
                        Some(values) => *values,
                        None => {
                            let values = self.materialize_f32(&mut rel, name)?;
                            float_inputs.insert(name, values);
                            values
                        }
                    };
                    match agg.func {
                        AggFunc::Sum => GroupedAgg::Sum(values),
                        AggFunc::Avg => GroupedAgg::Avg(values),
                        AggFunc::Min => GroupedAgg::Min(values),
                        _ => GroupedAgg::Max(values),
                    }
                }
            };
            fused.push((func, agg));
        }
        if !fused.is_empty() {
            let funcs: Vec<GroupedAgg> = fused.iter().map(|(func, _)| *func).collect();
            let vars = self.p.grouped_aggs(group, &funcs)?;
            self.notes.push(format!(
                "aggregates [{}]: one fused grouped_aggs node",
                fused.iter().map(|(_, agg)| agg.output.as_str()).collect::<Vec<_>>().join(", ")
            ));
            for ((_, agg), var) in fused.iter().zip(vars) {
                out.cols
                    .insert(agg.output.clone(), RelCol { var, ty: ColTy::F32, refetchable: false });
            }
        }
        Ok(out)
    }
}
