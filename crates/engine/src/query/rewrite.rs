//! Rule-based rewrites over the logical tree.
//!
//! Every rule is a pure tree-to-tree function that appends a human-readable
//! note for each change it makes; [`apply`] runs them in a fixed order
//! under a [`RewriteConfig`] so benchmarks can ablate individual rules.
//! Rule order: constant folding (incl. `YEAR` normalisation and conjunct
//! splitting) → predicate pushdown (to fixpoint) → selectivity ordering →
//! projection pruning. (The one rule over the *physical* plan — fusing
//! streaming regions, [`RewriteConfig::fuse`] — runs after lowering.)
//!
//! Selectivity estimates come from [`column_stats`]: per-column min/max and a
//! sampled distinct-count over the catalog's base data, kept on the BATs
//! themselves. The estimates are deliberately coarse — they order predicates
//! and pick hash-join build sides; they never affect correctness.

use super::expr::{CmpOp, Expr};
use super::{Logical, QueryBuildError};
use ocelot_storage::types::date_to_days;
use ocelot_storage::Catalog;
use std::collections::HashSet;

/// Which rewrite rules run (all on by default; `naive` turns every
/// optimization off for ablation benchmarks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteConfig {
    /// Constant folding and `YEAR(date) ⋈ literal` range normalisation.
    pub fold: bool,
    /// Predicate pushdown below joins and maps.
    pub pushdown: bool,
    /// Selectivity-ordered predicate application over scans.
    pub selectivity_order: bool,
    /// Projection pruning: drop unused computed columns; bind only the
    /// columns the query reads (naive lowering materialises every scan
    /// column instead).
    pub prune: bool,
    /// Fused streaming pipelines: collapse conjunctive selection chains and
    /// fetch → calc → aggregate regions of the lowered plan into `pipeline`
    /// nodes (`crate::fuse`).
    pub fuse: bool,
    /// Device memory budget (bytes) the lowering plans joins against:
    /// when a hash join's estimated working set would overflow it, the
    /// lowering emits the partitioned hybrid hash join (planned spilling)
    /// instead of the in-memory join (whose overflow path is the
    /// OOM-restart protocol). `None` always lowers the in-memory join.
    pub device_budget: Option<usize>,
}

impl RewriteConfig {
    /// Every rule enabled — the default pipeline.
    pub fn optimized() -> RewriteConfig {
        RewriteConfig {
            fold: true,
            pushdown: true,
            selectivity_order: true,
            prune: true,
            fuse: true,
            device_budget: None,
        }
    }

    /// Every rule disabled: predicates run where they were written, scans
    /// materialise all columns. The all-rules-off reference the differential
    /// tests lower against.
    pub fn naive() -> RewriteConfig {
        RewriteConfig {
            fold: false,
            pushdown: false,
            selectivity_order: false,
            prune: false,
            fuse: false,
            device_budget: None,
        }
    }

    /// The optimized pipeline planning joins against a device budget (see
    /// [`RewriteConfig::device_budget`]).
    pub fn with_device_budget(mut self, bytes: usize) -> RewriteConfig {
        self.device_budget = Some(bytes);
        self
    }
}

impl Default for RewriteConfig {
    fn default() -> RewriteConfig {
        RewriteConfig::optimized()
    }
}

// ---------------------------------------------------------------------------
// Column statistics
// ---------------------------------------------------------------------------

/// Per-column summary statistics for selectivity estimation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColStats {
    /// Minimum value (as f64, covering i32 and f32 columns).
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Estimated number of distinct values.
    pub ndv: usize,
}

/// Statistics of `table.column` (zeroed defaults for unknown columns — name
/// resolution errors surface in the lowering, not here). The catalog's BATs
/// carry them ([`ocelot_storage::Bat::summary`], computed once per BAT), so
/// a compile scans no base column a previous compile already summarised.
pub(crate) fn column_stats(catalog: &Catalog, table: &str, column: &str) -> ColStats {
    match catalog.column(table, column) {
        Some(bat) => {
            let summary = bat.summary();
            ColStats { min: summary.min, max: summary.max, ndv: summary.ndv }
        }
        None => ColStats { min: 0.0, max: 0.0, ndv: 1 },
    }
}

// ---------------------------------------------------------------------------
// Predicate atoms (shared with the lowering pass)
// ---------------------------------------------------------------------------

/// The element type of a column, as the lowerer needs to know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColTy {
    /// 32-bit integers (also dictionary codes, day-number dates, keys).
    I32,
    /// 32-bit floats.
    F32,
}

/// A single-selection predicate the lowerer can execute directly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Atom {
    /// `lo <= col <= hi` over integers.
    RangeI32 { col: String, lo: i32, hi: i32 },
    /// `lo <= col <= hi` over floats.
    RangeF32 { col: String, lo: f32, hi: f32 },
    /// `col = value` over integer codes.
    EqI32 { col: String, value: i32 },
    /// `col <> value`.
    NeI32 { col: String, value: i32 },
    /// `col IN (values…)` — one membership selection.
    InI32 { col: String, values: Vec<i32> },
    /// `left <op> right` over two integer columns — one two-input
    /// selection.
    ColCmp { op: CmpOp, left: String, right: String },
}

impl Atom {
    pub(crate) fn columns(&self) -> Vec<&str> {
        match self {
            Atom::RangeI32 { col, .. }
            | Atom::RangeF32 { col, .. }
            | Atom::EqI32 { col, .. }
            | Atom::NeI32 { col, .. }
            | Atom::InI32 { col, .. } => vec![col],
            Atom::ColCmp { left, right, .. } => vec![left, right],
        }
    }

    pub(crate) fn describe(&self) -> String {
        match self {
            Atom::RangeI32 { col, lo, hi } => format!("{col} in [{lo}, {hi}]"),
            Atom::RangeF32 { col, lo, hi } => format!("{col} in [{lo:?}, {hi:?}]"),
            Atom::EqI32 { col, value } => format!("{col} = {value}"),
            Atom::NeI32 { col, value } => format!("{col} <> {value}"),
            Atom::InI32 { col, values } => format!("{col} in {values:?}"),
            Atom::ColCmp { op, left, right } => format!("{left} {} {right}", op.symbol()),
        }
    }
}

/// A classified predicate: one atom, or a disjunction of atoms (lowered as
/// a candidate-list union).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Pred {
    Atom(Atom),
    Or(Vec<Atom>),
}

impl Pred {
    pub(crate) fn atoms(&self) -> &[Atom] {
        match self {
            Pred::Atom(atom) => std::slice::from_ref(atom),
            Pred::Or(atoms) => atoms,
        }
    }

    pub(crate) fn describe(&self) -> String {
        match self {
            Pred::Atom(atom) => atom.describe(),
            Pred::Or(atoms) => {
                let parts: Vec<String> = atoms.iter().map(|a| a.describe()).collect();
                parts.join(" OR ")
            }
        }
    }
}

fn lit_as_i32(e: &Expr) -> Option<i32> {
    e.as_lit_i32()
}

fn range_i32(col: &str, op: CmpOp, value: i32) -> Atom {
    match op {
        CmpOp::Lt => Atom::RangeI32 { col: col.into(), lo: i32::MIN, hi: value.saturating_sub(1) },
        CmpOp::Le => Atom::RangeI32 { col: col.into(), lo: i32::MIN, hi: value },
        CmpOp::Gt => Atom::RangeI32 { col: col.into(), lo: value.saturating_add(1), hi: i32::MAX },
        CmpOp::Ge => Atom::RangeI32 { col: col.into(), lo: value, hi: i32::MAX },
        CmpOp::Eq => Atom::EqI32 { col: col.into(), value },
        CmpOp::Ne => Atom::NeI32 { col: col.into(), value },
    }
}

fn range_f32(col: &str, op: CmpOp, value: f32) -> Result<Atom, QueryBuildError> {
    // Strict comparisons lower exactly via the adjacent representable
    // float (the workload's data has no NaNs).
    let atom = match op {
        CmpOp::Lt => Atom::RangeF32 { col: col.into(), lo: f32::MIN, hi: value.next_down() },
        CmpOp::Le => Atom::RangeF32 { col: col.into(), lo: f32::MIN, hi: value },
        CmpOp::Gt => Atom::RangeF32 { col: col.into(), lo: value.next_up(), hi: f32::MAX },
        CmpOp::Ge => Atom::RangeF32 { col: col.into(), lo: value, hi: f32::MAX },
        CmpOp::Eq | CmpOp::Ne => {
            return Err(QueryBuildError::Unsupported(format!(
                "float {} comparison on {col} (use a narrow BETWEEN instead)",
                op.symbol()
            )))
        }
    };
    Ok(atom)
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
    }
}

/// Classifies one conjunct into a [`Pred`] the lowerer can execute.
/// `ty_of` resolves a column name to its element type (None = unknown).
pub(crate) fn classify(
    expr: &Expr,
    ty_of: &dyn Fn(&str) -> Option<ColTy>,
) -> Result<Pred, QueryBuildError> {
    match expr {
        Expr::Or(a, b) => {
            let mut atoms = Vec::new();
            for side in [a.as_ref(), b.as_ref()] {
                match classify(side, ty_of)? {
                    Pred::Atom(atom) => atoms.push(atom),
                    Pred::Or(more) => atoms.extend(more),
                }
            }
            Ok(Pred::Or(atoms))
        }
        _ => classify_atom(expr, ty_of).map(Pred::Atom),
    }
}

fn classify_atom(
    expr: &Expr,
    ty_of: &dyn Fn(&str) -> Option<ColTy>,
) -> Result<Atom, QueryBuildError> {
    let ty = |name: &str| -> Result<ColTy, QueryBuildError> {
        ty_of(name).ok_or_else(|| QueryBuildError::UnknownColumn { name: name.to_string() })
    };
    match expr {
        Expr::Between(col_expr, lo, hi) => {
            let Expr::Col(name) = col_expr.as_ref() else {
                return Err(QueryBuildError::Unsupported(format!(
                    "BETWEEN over a computed expression: {expr}"
                )));
            };
            match ty(name)? {
                ColTy::I32 => match (lit_as_i32(lo), lit_as_i32(hi)) {
                    (Some(lo), Some(hi)) => Ok(Atom::RangeI32 { col: name.clone(), lo, hi }),
                    _ => Err(QueryBuildError::Unsupported(format!(
                        "non-literal BETWEEN bounds on integer column {name}"
                    ))),
                },
                ColTy::F32 => match (lo.as_lit_f32(), hi.as_lit_f32()) {
                    (Some(lo), Some(hi)) => Ok(Atom::RangeF32 { col: name.clone(), lo, hi }),
                    _ => Err(QueryBuildError::Unsupported(format!(
                        "non-literal BETWEEN bounds on float column {name}"
                    ))),
                },
            }
        }
        Expr::InList(col_expr, values) => {
            let Expr::Col(name) = col_expr.as_ref() else {
                return Err(QueryBuildError::Unsupported(format!(
                    "IN over a computed expression: {expr}"
                )));
            };
            if ty(name)? != ColTy::I32 {
                return Err(QueryBuildError::Unsupported(format!(
                    "IN over float column {name} (codes and integers only)"
                )));
            }
            Ok(Atom::InI32 { col: name.clone(), values: values.clone() })
        }
        Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(left), Expr::Col(right)) => {
                if ty(left)? != ColTy::I32 || ty(right)? != ColTy::I32 {
                    return Err(QueryBuildError::Unsupported(format!(
                        "column-vs-column comparison {left} {} {right} needs two integer \
                         columns (the delta select is exact for |values| < 2^24)",
                        op.symbol()
                    )));
                }
                Ok(Atom::ColCmp { op: *op, left: left.clone(), right: right.clone() })
            }
            (Expr::Col(name), lit) if lit.as_lit_f32().is_some() => match ty(name)? {
                ColTy::I32 => match lit.as_lit_i32() {
                    Some(value) => Ok(range_i32(name, *op, value)),
                    None => Err(QueryBuildError::Unsupported(format!(
                        "float literal compared against integer column {name}"
                    ))),
                },
                ColTy::F32 => range_f32(name, *op, lit.as_lit_f32().unwrap()),
            },
            (lit, Expr::Col(name)) if lit.as_lit_f32().is_some() => {
                classify_atom(&Expr::Cmp(flip(*op), b.clone(), a.clone()), ty_of)
            }
            _ => Err(QueryBuildError::Unsupported(format!(
                "comparison not in `column ⋈ literal` or `column ⋈ column` form: {expr}"
            ))),
        },
        Expr::Year(_) => Err(QueryBuildError::Unsupported(format!(
            "bare YEAR() predicate: {expr} (compare it against a literal year)"
        ))),
        other => {
            Err(QueryBuildError::Unsupported(format!("expression is not a predicate: {other}")))
        }
    }
}

/// Default selectivity assumed for a parameterized predicate, whose bounds
/// are unknown until bind time. A middling guess: more selective than a
/// tautology, less than an equality — parameterized conjuncts sort between
/// known-narrow and known-wide ones, and the order is stable per shape.
pub(crate) const PARAM_SELECTIVITY: f64 = 0.25;

/// Estimated selectivity of a predicate (fraction of rows kept), using the
/// column statistics of `table`.
pub(crate) fn selectivity(pred: &Pred, table: &str, catalog: &Catalog) -> f64 {
    let atom_sel = |atom: &Atom| -> f64 {
        match atom {
            Atom::RangeI32 { col, lo, hi } => {
                let s = column_stats(catalog, table, col);
                let width = (s.max - s.min + 1.0).max(1.0);
                let lo = (*lo as f64).max(s.min);
                let hi = (*hi as f64).min(s.max);
                ((hi - lo + 1.0) / width).clamp(0.0, 1.0)
            }
            Atom::RangeF32 { col, lo, hi } => {
                let s = column_stats(catalog, table, col);
                let width = (s.max - s.min).max(f64::MIN_POSITIVE);
                let lo = (*lo as f64).max(s.min);
                let hi = (*hi as f64).min(s.max);
                ((hi - lo) / width).clamp(0.0, 1.0)
            }
            Atom::EqI32 { col, .. } => 1.0 / column_stats(catalog, table, col).ndv.max(1) as f64,
            Atom::NeI32 { col, .. } => {
                1.0 - 1.0 / column_stats(catalog, table, col).ndv.max(1) as f64
            }
            Atom::InI32 { col, values } => {
                (values.len() as f64 / column_stats(catalog, table, col).ndv.max(1) as f64).min(1.0)
            }
            // Column-vs-column deltas: no joint statistics — fixed priors.
            Atom::ColCmp { op, .. } => match op {
                CmpOp::Eq => 0.1,
                CmpOp::Ne => 0.9,
                _ => 0.5,
            },
        }
    };
    match pred {
        Pred::Atom(atom) => atom_sel(atom),
        Pred::Or(atoms) => atoms.iter().map(atom_sel).sum::<f64>().min(1.0),
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The set of column names a logical subtree makes available.
pub(crate) fn available_columns(node: &Logical, catalog: &Catalog) -> HashSet<String> {
    match node {
        Logical::Scan { table } => catalog
            .table(table)
            .map(|t| t.column_names().into_iter().map(|c| c.to_string()).collect())
            .unwrap_or_default(),
        Logical::Filter { input, .. }
        | Logical::Sort { input, .. }
        | Logical::Limit { input, .. } => available_columns(input, catalog),
        Logical::Map { input, name, .. } => {
            let mut cols = available_columns(input, catalog);
            cols.insert(name.clone());
            cols
        }
        Logical::Join { left, right, kind, .. } => {
            let mut cols = available_columns(left, catalog);
            if *kind == super::JoinKind::Inner {
                cols.extend(available_columns(right, catalog));
            }
            cols
        }
        Logical::GroupBy { keys, aggs, .. } => {
            let mut cols: HashSet<String> = keys.iter().cloned().collect();
            cols.extend(aggs.iter().map(|a| a.output.clone()));
            cols
        }
    }
}

/// Runs the configured rules over `root` and returns the rewritten tree
/// plus one annotation per rule application.
pub(crate) fn apply(
    root: Logical,
    catalog: &Catalog,
    cfg: &RewriteConfig,
    outputs: &[String],
) -> (Logical, Vec<String>) {
    let mut notes = Vec::new();
    // Conjunct splitting is normalisation, not an optimization: the
    // lowering applies conjuncts one selection at a time either way, so
    // both pipelines see the same shape.
    let mut node = split_conjunctions(root);
    if cfg.fold {
        node = fold_exprs(node, &mut notes);
        node = split_conjunctions(node); // YEAR normalisation can reveal new conjuncts
    }
    if cfg.pushdown {
        let mut rounds = 0;
        loop {
            let mut changed = false;
            node = push_down(node, catalog, &mut notes, &mut changed);
            rounds += 1;
            if !changed || rounds > 16 {
                break;
            }
        }
    }
    if cfg.selectivity_order {
        node = order_by_selectivity(node, catalog, &mut notes);
    }
    if cfg.prune {
        let needed: HashSet<String> = outputs.iter().cloned().collect();
        node = prune(node, catalog, &needed, &mut notes);
    }
    (node, notes)
}

fn split_conjunctions(node: Logical) -> Logical {
    map_inputs(node, split_conjunctions, |node| match node {
        Logical::Filter { input, predicate } => {
            let mut out = *input;
            // Innermost filter = first-written conjunct, preserving the
            // author's application order until the ordering rule runs.
            for pred in predicate.conjuncts() {
                out = Logical::Filter { input: Box::new(out), predicate: pred };
            }
            out
        }
        other => other,
    })
}

/// Applies `recurse` to every child, then `transform` to the node itself.
fn map_inputs(
    node: Logical,
    recurse: impl Fn(Logical) -> Logical + Copy,
    transform: impl FnOnce(Logical) -> Logical,
) -> Logical {
    let node = match node {
        Logical::Scan { table } => Logical::Scan { table },
        Logical::Filter { input, predicate } => {
            Logical::Filter { input: Box::new(recurse(*input)), predicate }
        }
        Logical::Map { input, name, expr } => {
            Logical::Map { input: Box::new(recurse(*input)), name, expr }
        }
        Logical::Join { left, right, kind, left_key, right_key } => Logical::Join {
            left: Box::new(recurse(*left)),
            right: Box::new(recurse(*right)),
            kind,
            left_key,
            right_key,
        },
        Logical::GroupBy { input, keys, aggs } => {
            Logical::GroupBy { input: Box::new(recurse(*input)), keys, aggs }
        }
        Logical::Sort { input, key, descending } => {
            Logical::Sort { input: Box::new(recurse(*input)), key, descending }
        }
        Logical::Limit { input, count } => {
            Logical::Limit { input: Box::new(recurse(*input)), count }
        }
    };
    transform(node)
}

/// Rewrites `YEAR(col) ⋈ literal` into a day-number range on `col`.
fn normalize_year(expr: Expr, notes: &mut Vec<String>) -> Expr {
    let range = |col: Expr, lo: i32, hi: i32| {
        Expr::Between(Box::new(col), Box::new(Expr::LitI32(lo)), Box::new(Expr::LitI32(hi)))
    };
    let note = |notes: &mut Vec<String>, before: &str, col: &Expr, lo: i32, hi: i32| {
        notes.push(format!(
            "constant folding: rewrote {before} to day-number range {col} in [{lo}, {hi}]"
        ));
    };
    match expr {
        Expr::Cmp(op, a, b) => {
            let (op, year_side, lit_side) = match (a.as_ref(), b.as_ref()) {
                (Expr::Year(inner), lit) if lit.as_lit_i32().is_some() => {
                    (op, inner.clone(), lit.as_lit_i32().unwrap())
                }
                (lit, Expr::Year(inner)) if lit.as_lit_i32().is_some() => {
                    (flip(op), inner.clone(), lit.as_lit_i32().unwrap())
                }
                _ => {
                    return Expr::Cmp(
                        op,
                        Box::new(normalize_year(*a, notes)),
                        Box::new(normalize_year(*b, notes)),
                    )
                }
            };
            let y = lit_side;
            let before = format!("YEAR({year_side}) {} {y}", op.symbol());
            let (lo, hi) = match op {
                CmpOp::Eq => (date_to_days(y, 1, 1), date_to_days(y, 12, 31)),
                CmpOp::Lt => (i32::MIN, date_to_days(y - 1, 12, 31)),
                CmpOp::Le => (i32::MIN, date_to_days(y, 12, 31)),
                CmpOp::Gt => (date_to_days(y + 1, 1, 1), i32::MAX),
                CmpOp::Ge => (date_to_days(y, 1, 1), i32::MAX),
                CmpOp::Ne => {
                    // No single range; leave for the lowering to reject
                    // with a clear error.
                    return Expr::Cmp(
                        CmpOp::Ne,
                        Box::new(Expr::Year(year_side)),
                        Box::new(Expr::LitI32(y)),
                    );
                }
            };
            note(notes, &before, &year_side, lo, hi);
            range(*year_side, lo, hi)
        }
        Expr::Between(a, lo, hi) => match (a.as_ref(), lo.as_lit_i32(), hi.as_lit_i32()) {
            (Expr::Year(inner), Some(y1), Some(y2)) => {
                let (lo, hi) = (date_to_days(y1, 1, 1), date_to_days(y2, 12, 31));
                let before = format!("YEAR({inner}) BETWEEN {y1} AND {y2}");
                note(notes, &before, inner, lo, hi);
                range((**inner).clone(), lo, hi)
            }
            _ => Expr::Between(
                Box::new(normalize_year(*a, notes)),
                Box::new(normalize_year(*lo, notes)),
                Box::new(normalize_year(*hi, notes)),
            ),
        },
        Expr::And(a, b) => {
            Expr::And(Box::new(normalize_year(*a, notes)), Box::new(normalize_year(*b, notes)))
        }
        Expr::Or(a, b) => {
            Expr::Or(Box::new(normalize_year(*a, notes)), Box::new(normalize_year(*b, notes)))
        }
        other => other,
    }
}

fn fold_exprs(node: Logical, notes: &mut Vec<String>) -> Logical {
    let fold_one = |expr: Expr, context: &str, notes: &mut Vec<String>| -> Expr {
        let expr = normalize_year(expr, notes);
        let (folded, changed) = expr.fold();
        if changed {
            notes.push(format!("constant folding in {context}: {expr} → {folded}"));
        }
        folded
    };
    match node {
        Logical::Scan { table } => Logical::Scan { table },
        Logical::Filter { input, predicate } => {
            let predicate = fold_one(predicate, "filter", notes);
            Logical::Filter { input: Box::new(fold_exprs(*input, notes)), predicate }
        }
        Logical::Map { input, name, expr } => {
            let context = format!("map {name}");
            let expr = fold_one(expr, &context, notes);
            Logical::Map { input: Box::new(fold_exprs(*input, notes)), name, expr }
        }
        Logical::Join { left, right, kind, left_key, right_key } => Logical::Join {
            left: Box::new(fold_exprs(*left, notes)),
            right: Box::new(fold_exprs(*right, notes)),
            kind,
            left_key,
            right_key,
        },
        Logical::GroupBy { input, keys, aggs } => {
            Logical::GroupBy { input: Box::new(fold_exprs(*input, notes)), keys, aggs }
        }
        Logical::Sort { input, key, descending } => {
            Logical::Sort { input: Box::new(fold_exprs(*input, notes)), key, descending }
        }
        Logical::Limit { input, count } => {
            Logical::Limit { input: Box::new(fold_exprs(*input, notes)), count }
        }
    }
}

/// One pushdown sweep: moves filters below joins (to the side that has all
/// their columns) and below maps that don't define their columns.
fn push_down(
    node: Logical,
    catalog: &Catalog,
    notes: &mut Vec<String>,
    changed: &mut bool,
) -> Logical {
    let recurse = |n: Logical, notes: &mut Vec<String>, changed: &mut bool| match n {
        Logical::Scan { table } => Logical::Scan { table },
        Logical::Filter { input, predicate } => Logical::Filter {
            input: Box::new(push_down(*input, catalog, notes, changed)),
            predicate,
        },
        Logical::Map { input, name, expr } => {
            Logical::Map { input: Box::new(push_down(*input, catalog, notes, changed)), name, expr }
        }
        Logical::Join { left, right, kind, left_key, right_key } => Logical::Join {
            left: Box::new(push_down(*left, catalog, notes, changed)),
            right: Box::new(push_down(*right, catalog, notes, changed)),
            kind,
            left_key,
            right_key,
        },
        Logical::GroupBy { input, keys, aggs } => Logical::GroupBy {
            input: Box::new(push_down(*input, catalog, notes, changed)),
            keys,
            aggs,
        },
        Logical::Sort { input, key, descending } => Logical::Sort {
            input: Box::new(push_down(*input, catalog, notes, changed)),
            key,
            descending,
        },
        Logical::Limit { input, count } => {
            Logical::Limit { input: Box::new(push_down(*input, catalog, notes, changed)), count }
        }
    };

    if let Logical::Filter { input, predicate } = node {
        let cols: HashSet<String> = predicate.columns().into_iter().collect();
        match *input {
            Logical::Join { left, right, kind, left_key, right_key } => {
                let left_avail = available_columns(&left, catalog);
                let right_avail = available_columns(&right, catalog);
                if cols.is_subset(&left_avail) {
                    *changed = true;
                    notes.push(format!(
                        "predicate pushdown: moved `{predicate}` below the {} onto the left side",
                        kind.name()
                    ));
                    let pushed = Logical::Filter { input: left, predicate };
                    return recurse(
                        Logical::Join { left: Box::new(pushed), right, kind, left_key, right_key },
                        notes,
                        changed,
                    );
                }
                if kind == super::JoinKind::Inner && cols.is_subset(&right_avail) {
                    *changed = true;
                    notes.push(format!(
                        "predicate pushdown: moved `{predicate}` below the join onto the right side"
                    ));
                    let pushed = Logical::Filter { input: right, predicate };
                    return recurse(
                        Logical::Join { left, right: Box::new(pushed), kind, left_key, right_key },
                        notes,
                        changed,
                    );
                }
                recurse(
                    Logical::Filter {
                        input: Box::new(Logical::Join { left, right, kind, left_key, right_key }),
                        predicate,
                    },
                    notes,
                    changed,
                )
            }
            Logical::Map { input: map_input, name, expr } if !cols.contains(&name) => {
                *changed = true;
                notes.push(format!("predicate pushdown: moved `{predicate}` below map {name}"));
                recurse(
                    Logical::Map {
                        input: Box::new(Logical::Filter { input: map_input, predicate }),
                        name,
                        expr,
                    },
                    notes,
                    changed,
                )
            }
            other => recurse(Logical::Filter { input: Box::new(other), predicate }, notes, changed),
        }
    } else {
        recurse(node, notes, changed)
    }
}

/// Reorders maximal filter chains directly above scans by estimated
/// selectivity (most selective applied first).
fn order_by_selectivity(node: Logical, catalog: &Catalog, notes: &mut Vec<String>) -> Logical {
    if let Logical::Filter { .. } = node {
        // Collect the whole chain Filter* over a base, taking ownership.
        let mut chain: Vec<Expr> = Vec::new();
        let mut cursor = node;
        while let Logical::Filter { input, predicate } = cursor {
            chain.push(predicate);
            cursor = *input;
        }
        // `chain` is outside-in; execution order (innermost first) is the
        // reverse.
        if let Logical::Scan { table } = &cursor {
            let table = table.clone();
            let ty_of = |name: &str| -> Option<ColTy> {
                let bat = catalog.column(&table, name)?;
                Some(if bat.as_f32().is_some() { ColTy::F32 } else { ColTy::I32 })
            };
            // A parameterized conjunct cannot be classified (its bounds
            // are unknown until bind time); it participates in the
            // ordering with a default selectivity so the *shape* still
            // gets a deterministic, cacheable order. Any other
            // unclassifiable conjunct keeps the whole chain in author
            // order, as before.
            let classified: Option<Vec<(Expr, Option<Pred>)>> = chain
                .iter()
                .map(|e| match classify(e, &ty_of) {
                    Ok(p) => Some((e.clone(), Some(p))),
                    Err(_) if e.has_params() => Some((e.clone(), None)),
                    Err(_) => None,
                })
                .collect();
            if let (Some(mut preds), true) = (classified, chain.len() >= 2) {
                preds.reverse();
                let describe = |e: &Expr, p: &Option<Pred>| match p {
                    Some(p) => p.describe(),
                    None => format!("param[{e}]"),
                };
                let before: Vec<String> = preds.iter().map(|(e, p)| describe(e, p)).collect();
                let mut scored: Vec<(Expr, Option<Pred>, f64)> = preds
                    .into_iter()
                    .map(|(e, p)| {
                        let sel = match &p {
                            Some(p) => selectivity(p, &table, catalog),
                            None => PARAM_SELECTIVITY,
                        };
                        (e, p, sel)
                    })
                    .collect();
                scored.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
                let after: Vec<String> = scored
                    .iter()
                    .map(|(e, p, s)| format!("{} (≈{s:.3})", describe(e, p)))
                    .collect();
                let reordered =
                    before != scored.iter().map(|(e, p, _)| describe(e, p)).collect::<Vec<_>>();
                notes.push(format!(
                    "selectivity order on {table}: {}{}",
                    after.join(" → "),
                    if reordered { "" } else { " (kept author order)" }
                ));
                let mut rebuilt = Logical::Scan { table };
                for (expr, _, _) in scored {
                    rebuilt = Logical::Filter { input: Box::new(rebuilt), predicate: expr };
                }
                return rebuilt;
            }
        }
        // Not a reorderable chain: recurse below it, keep author order.
        let mut rebuilt = order_by_selectivity(cursor, catalog, notes);
        for predicate in chain.into_iter().rev() {
            rebuilt = Logical::Filter { input: Box::new(rebuilt), predicate };
        }
        return rebuilt;
    }
    match node {
        Logical::Scan { .. } => node,
        Logical::Filter { .. } => unreachable!("handled above"),
        Logical::Map { input, name, expr } => Logical::Map {
            input: Box::new(order_by_selectivity(*input, catalog, notes)),
            name,
            expr,
        },
        Logical::Join { left, right, kind, left_key, right_key } => Logical::Join {
            left: Box::new(order_by_selectivity(*left, catalog, notes)),
            right: Box::new(order_by_selectivity(*right, catalog, notes)),
            kind,
            left_key,
            right_key,
        },
        Logical::GroupBy { input, keys, aggs } => Logical::GroupBy {
            input: Box::new(order_by_selectivity(*input, catalog, notes)),
            keys,
            aggs,
        },
        Logical::Sort { input, key, descending } => Logical::Sort {
            input: Box::new(order_by_selectivity(*input, catalog, notes)),
            key,
            descending,
        },
        Logical::Limit { input, count } => {
            Logical::Limit { input: Box::new(order_by_selectivity(*input, catalog, notes)), count }
        }
    }
}

/// Projection pruning: removes computed columns nothing reads and records
/// which base columns each scan actually needs (the lowering binds only
/// those, so pruned columns are never uploaded).
fn prune(
    node: Logical,
    catalog: &Catalog,
    needed: &HashSet<String>,
    notes: &mut Vec<String>,
) -> Logical {
    match node {
        Logical::Scan { table } => {
            let total = catalog.table(&table).map(|t| t.column_count()).unwrap_or(0);
            let used: Vec<&String> = {
                let mut used: Vec<&String> =
                    needed.iter().filter(|c| catalog.column(&table, c).is_some()).collect();
                used.sort();
                used
            };
            notes.push(format!(
                "projection pruning: scan {table} binds {} of {total} columns ({})",
                used.len(),
                used.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
            ));
            Logical::Scan { table }
        }
        Logical::Filter { input, predicate } => {
            let mut sub = needed.clone();
            sub.extend(predicate.columns());
            Logical::Filter { input: Box::new(prune(*input, catalog, &sub, notes)), predicate }
        }
        Logical::Map { input, name, expr } => {
            if !needed.contains(&name) {
                notes.push(format!("projection pruning: dropped unused map {name} := {expr}"));
                return prune(*input, catalog, needed, notes);
            }
            let mut sub: HashSet<String> = needed.iter().filter(|c| **c != name).cloned().collect();
            sub.extend(expr.columns());
            Logical::Map { input: Box::new(prune(*input, catalog, &sub, notes)), name, expr }
        }
        Logical::Join { left, right, kind, left_key, right_key } => {
            let left_avail = available_columns(&left, catalog);
            let right_avail = available_columns(&right, catalog);
            let mut left_needed: HashSet<String> =
                needed.intersection(&left_avail).cloned().collect();
            left_needed.insert(left_key.clone());
            let mut right_needed: HashSet<String> = match kind {
                super::JoinKind::Inner => needed.intersection(&right_avail).cloned().collect(),
                _ => HashSet::new(),
            };
            right_needed.insert(right_key.clone());
            Logical::Join {
                left: Box::new(prune(*left, catalog, &left_needed, notes)),
                right: Box::new(prune(*right, catalog, &right_needed, notes)),
                kind,
                left_key,
                right_key,
            }
        }
        Logical::GroupBy { input, keys, aggs } => {
            let kept: Vec<super::AggSpec> = aggs
                .iter()
                .filter(|agg| {
                    let keep = needed.contains(&agg.output);
                    if !keep {
                        notes.push(format!("projection pruning: dropped unused aggregate {agg}"));
                    }
                    keep
                })
                .cloned()
                .collect();
            let mut sub: HashSet<String> = keys.iter().cloned().collect();
            for agg in &kept {
                if let Some(input) = &agg.input {
                    sub.insert(input.clone());
                }
            }
            Logical::GroupBy {
                input: Box::new(prune(*input, catalog, &sub, notes)),
                keys,
                aggs: kept,
            }
        }
        Logical::Sort { input, key, descending } => {
            let mut sub = needed.clone();
            sub.insert(key.clone());
            Logical::Sort { input: Box::new(prune(*input, catalog, &sub, notes)), key, descending }
        }
        Logical::Limit { input, count } => {
            Logical::Limit { input: Box::new(prune(*input, catalog, needed, notes)), count }
        }
    }
}
