//! # `engine::query` — the logical query algebra and its optimizing lowering
//!
//! The paper's central claim is that the *engine*, not the query author,
//! picks physical operators for the hardware. Below this module, a
//! [`crate::plan::Plan`] is already physical: every node names a concrete
//! operator (`select_range_i32`, `pkfk_join`, …) and the node order fixes
//! the execution strategy. This module adds the logical half:
//!
//! * **[`Query`]** — a typed logical algebra: [`Logical::Scan`] /
//!   [`Logical::Filter`] / [`Logical::Map`] / [`Logical::Join`] (inner
//!   PK-FK, semi, anti) / [`Logical::GroupBy`] + aggregates /
//!   [`Logical::Sort`] / [`Logical::Limit`], with an expression tree
//!   ([`Expr`]) for predicates and arithmetic, built through a fluent DSL:
//!   `Query::scan("lineitem").filter(col("l_shipdate").between(d1, d2))…`.
//! * **Rewrite pass** (`rewrite`) — rule-based logical optimizations:
//!   constant folding (incl. `YEAR(date) ⋈ literal` → day-number ranges),
//!   conjunct splitting, predicate pushdown below joins and maps,
//!   selectivity-ordered predicate application using catalog column
//!   statistics, and projection pruning so unused columns are never bound
//!   (and therefore never uploaded to the device).
//! * **Lowering pass** (`lower`) — compiles the optimized logical tree
//!   onto the existing [`crate::plan::PlanBuilder`], emitting the same
//!   kind-checked physical [`crate::plan::Plan`] the session / scheduler /
//!   column-cache stack already executes. Nothing below `engine::plan`
//!   changes.
//! * **Fusion pass** ([`crate::fuse`]) — the one rule over the *physical*
//!   plan: streaming regions of the lowered node list (a conjunctive
//!   selection chain; fetches of base columns at one candidate list and the
//!   maps over them, ending in `sum_f32` or `grouped_aggs`) collapse into
//!   one `pipeline` node each, which carries the nodes it replaced.
//!
//! The rules, in order, each behind its [`RewriteConfig`] flag: `fold`,
//! `pushdown`, `selectivity_order`, `prune` (logical), then `fuse`
//! (physical). `RewriteConfig::naive()` turns all five off.
//!
//! ## The logical / physical boundary
//!
//! The logical tree says **what**: relations, predicates, computed columns,
//! groupings. The lowerer owns every **how** decision:
//!
//! * which *selection operator* evaluates a predicate — range, equality,
//!   inequality, `IN`-list or column-vs-column select, one node each; only
//!   a genuine `OR` unions candidate lists — all chained through candidate
//!   lists when the relation is still a single base table, or as positional
//!   re-selections over materialised columns after a join;
//! * how a grouping's aggregates run — one fused `grouped_aggs` node per
//!   `GROUP BY`, whatever the number of aggregates;
//! * the *join build side* — the unique-key side builds; when both keys
//!   are unique the smaller (estimated) side builds;
//! * the *join algorithm* — a build key that is a dense base column (its
//!   values are row ids plus a base, decided from the data) is a
//!   positional `dense_join`, with no key fetch and no hash table; any
//!   other build key builds a hash table;
//! * which *join sides survive* — position lists for tables no downstream
//!   operator reads are never materialised;
//! * where `LIMIT` runs — there is no device top-k operator, so `Limit` is
//!   applied at the host materialisation boundary.
//!
//! Every decision is recorded as a note and rendered by
//! [`Query::explain`], together with the logical tree before and after the
//! rewrite rules and the full physical node listing — in which a `pipeline`
//! node is followed by the nodes it replaced, one `|` line each, and the
//! notes end with one `fused nodes [...]` line per region.
//!
//! ## Adding a rewrite rule
//!
//! Rules live in `rewrite` as `fn(Logical, &mut Vec<String>) -> Logical`
//! (pure tree-to-tree, annotating what they did). Add the function, wire it
//! into `rewrite::apply` behind a [`RewriteConfig`] flag (so benchmarks can
//! ablate it), and make its effect observable: a note that
//! [`Query::explain`] renders plus a structural change a test can assert
//! (node counts, filter order, bind counts).

mod expr;
pub(crate) mod lower;
pub(crate) mod rewrite;

pub use expr::{col, lit, litf, param, CmpOp, Expr};
pub use rewrite::RewriteConfig;

use crate::backend::Backend;
use crate::plan::{Plan, PlanError, QueryValue};
use crate::session::Session;
use ocelot_storage::Catalog;
use std::fmt;
use std::sync::Arc;

/// The join variants of the logical algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner PK-FK equi join: output rows pair every left row with its
    /// (unique-side) match; both sides' columns remain available.
    Inner,
    /// Semi join (`EXISTS`): keeps left rows with at least one match; only
    /// left columns remain available.
    Semi,
    /// Anti join (`NOT EXISTS`): keeps left rows without a match.
    Anti,
}

impl JoinKind {
    fn name(&self) -> &'static str {
        match self {
            JoinKind::Inner => "join",
            JoinKind::Semi => "semi join",
            JoinKind::Anti => "anti join",
        }
    }
}

/// An aggregate function in a [`Logical::GroupBy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Per-group sum (float result).
    Sum,
    /// Per-group average.
    Avg,
    /// Per-group minimum.
    Min,
    /// Per-group maximum.
    Max,
    /// Per-group row count.
    Count,
    /// Any one value of the group — valid when the column is functionally
    /// dependent on the grouping keys (lowered as a representative fetch).
    First,
}

impl AggFunc {
    fn name(&self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::First => "first",
        }
    }
}

/// One named aggregate of a grouping.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// The input column ([`None`] for [`AggFunc::Count`]).
    pub input: Option<String>,
    /// The name of the output column.
    pub output: String,
}

impl AggSpec {
    /// `SUM(input) AS output`.
    pub fn sum(input: &str, output: &str) -> AggSpec {
        AggSpec { func: AggFunc::Sum, input: Some(input.to_string()), output: output.to_string() }
    }

    /// `AVG(input) AS output`.
    pub fn avg(input: &str, output: &str) -> AggSpec {
        AggSpec { func: AggFunc::Avg, input: Some(input.to_string()), output: output.to_string() }
    }

    /// `MIN(input) AS output`.
    pub fn min(input: &str, output: &str) -> AggSpec {
        AggSpec { func: AggFunc::Min, input: Some(input.to_string()), output: output.to_string() }
    }

    /// `MAX(input) AS output`.
    pub fn max(input: &str, output: &str) -> AggSpec {
        AggSpec { func: AggFunc::Max, input: Some(input.to_string()), output: output.to_string() }
    }

    /// `COUNT(*) AS output`.
    pub fn count(output: &str) -> AggSpec {
        AggSpec { func: AggFunc::Count, input: None, output: output.to_string() }
    }

    /// Any one value of `input` per group (see [`AggFunc::First`]).
    pub fn first(input: &str) -> AggSpec {
        AggSpec { func: AggFunc::First, input: Some(input.to_string()), output: input.to_string() }
    }
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.input {
            Some(input) => write!(f, "{}({input}) as {}", self.func.name(), self.output),
            None => write!(f, "{}(*) as {}", self.func.name(), self.output),
        }
    }
}

/// A node of the logical operator tree (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Logical {
    /// A base-table scan.
    Scan {
        /// The table name.
        table: String,
    },
    /// Row selection by a predicate.
    Filter {
        /// The input relation.
        input: Box<Logical>,
        /// The predicate (may be a conjunction; the rewriter splits it).
        predicate: Expr,
    },
    /// A computed column appended to the relation.
    Map {
        /// The input relation.
        input: Box<Logical>,
        /// The new column's name.
        name: String,
        /// Its defining expression.
        expr: Expr,
    },
    /// An equi join of two relations on named key columns.
    Join {
        /// The left (probe-preferred) relation.
        left: Box<Logical>,
        /// The right relation.
        right: Box<Logical>,
        /// Inner / semi / anti.
        kind: JoinKind,
        /// Left key column name.
        left_key: String,
        /// Right key column name.
        right_key: String,
    },
    /// Grouping with aggregates. Empty `keys` is the ungrouped (scalar)
    /// aggregation.
    GroupBy {
        /// The input relation.
        input: Box<Logical>,
        /// Grouping key columns (must be integer-typed).
        keys: Vec<String>,
        /// The aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Ordering by one column.
    Sort {
        /// The input relation.
        input: Box<Logical>,
        /// The sort key column.
        key: String,
        /// Descending order when set.
        descending: bool,
    },
    /// Row-count cap; lowered at the host materialisation boundary.
    Limit {
        /// The input relation.
        input: Box<Logical>,
        /// Maximum number of output rows.
        count: usize,
    },
}

impl Logical {
    fn render_into(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match self {
            Logical::Scan { table } => out.push_str(&format!("{pad}Scan {table}\n")),
            Logical::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter {predicate}\n"));
                input.render_into(indent + 1, out);
            }
            Logical::Map { input, name, expr } => {
                out.push_str(&format!("{pad}Map {name} := {expr}\n"));
                input.render_into(indent + 1, out);
            }
            Logical::Join { left, right, kind, left_key, right_key } => {
                out.push_str(&format!("{pad}{} {left_key} = {right_key}\n", kind.name()));
                left.render_into(indent + 1, out);
                right.render_into(indent + 1, out);
            }
            Logical::GroupBy { input, keys, aggs } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                out.push_str(&format!(
                    "{pad}GroupBy [{}] aggs [{}]\n",
                    keys.join(", "),
                    aggs.join(", ")
                ));
                input.render_into(indent + 1, out);
            }
            Logical::Sort { input, key, descending } => {
                let dir = if *descending { "desc" } else { "asc" };
                out.push_str(&format!("{pad}Sort {key} {dir}\n"));
                input.render_into(indent + 1, out);
            }
            Logical::Limit { input, count } => {
                out.push_str(&format!("{pad}Limit {count}\n"));
                input.render_into(indent + 1, out);
            }
        }
    }

    /// Indented tree rendering (used by [`Query::explain`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        match self {
            Logical::Scan { .. } => 1,
            Logical::Filter { input, .. }
            | Logical::Map { input, .. }
            | Logical::GroupBy { input, .. }
            | Logical::Sort { input, .. }
            | Logical::Limit { input, .. } => 1 + input.node_count(),
            Logical::Join { left, right, .. } => 1 + left.node_count() + right.node_count(),
        }
    }

    /// Every [`Expr::Param`] slot the tree mentions, in first-use order.
    pub fn params(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_params(&mut out);
        out
    }

    fn collect_params(&self, out: &mut Vec<u32>) {
        match self {
            Logical::Scan { .. } => {}
            Logical::Filter { input, predicate } => {
                predicate.collect_params(out);
                input.collect_params(out);
            }
            Logical::Map { input, expr, .. } => {
                expr.collect_params(out);
                input.collect_params(out);
            }
            Logical::Join { left, right, .. } => {
                left.collect_params(out);
                right.collect_params(out);
            }
            Logical::GroupBy { input, .. }
            | Logical::Sort { input, .. }
            | Logical::Limit { input, .. } => input.collect_params(out),
        }
    }

    /// Substitutes parameter slots with the literals `value(id)` yields and
    /// constant-folds every touched expression — substituted trees must
    /// look exactly like their literal-built equivalents before they reach
    /// the lowerer (whose arithmetic arms assume folded operands). Slots
    /// `value` maps to `None` stay in place.
    pub(crate) fn substitute_params(&self, value: &impl Fn(u32) -> Option<Expr>) -> Logical {
        let bind = |expr: &Expr| {
            if expr.has_params() {
                expr.substitute(value).fold().0
            } else {
                expr.clone()
            }
        };
        match self {
            Logical::Scan { .. } => self.clone(),
            Logical::Filter { input, predicate } => Logical::Filter {
                input: Box::new(input.substitute_params(value)),
                predicate: bind(predicate),
            },
            Logical::Map { input, name, expr } => Logical::Map {
                input: Box::new(input.substitute_params(value)),
                name: name.clone(),
                expr: bind(expr),
            },
            Logical::Join { left, right, kind, left_key, right_key } => Logical::Join {
                left: Box::new(left.substitute_params(value)),
                right: Box::new(right.substitute_params(value)),
                kind: *kind,
                left_key: left_key.clone(),
                right_key: right_key.clone(),
            },
            Logical::GroupBy { input, keys, aggs } => Logical::GroupBy {
                input: Box::new(input.substitute_params(value)),
                keys: keys.clone(),
                aggs: aggs.clone(),
            },
            Logical::Sort { input, key, descending } => Logical::Sort {
                input: Box::new(input.substitute_params(value)),
                key: key.clone(),
                descending: *descending,
            },
            Logical::Limit { input, count } => {
                Logical::Limit { input: Box::new(input.substitute_params(value)), count: *count }
            }
        }
    }
}

/// A literal bound to an [`Expr::Param`] slot by [`Query::bind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// An integer (also dictionary codes and day-number dates).
    I32(i32),
    /// A float.
    F32(f32),
}

impl ParamValue {
    fn as_expr(&self) -> Expr {
        match self {
            ParamValue::I32(v) => Expr::LitI32(*v),
            ParamValue::F32(v) => Expr::LitF32(*v),
        }
    }
}

impl From<i32> for ParamValue {
    fn from(value: i32) -> ParamValue {
        ParamValue::I32(value)
    }
}

impl From<f32> for ParamValue {
    fn from(value: f32) -> ParamValue {
        ParamValue::F32(value)
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::I32(v) => write!(f, "{v}"),
            ParamValue::F32(v) => write!(f, "{v:?}"),
        }
    }
}

/// Why a [`Query`] could not be rewritten or lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBuildError {
    /// A column name resolved against neither the relation's base tables
    /// nor its computed columns.
    UnknownColumn {
        /// The unresolved name.
        name: String,
    },
    /// An equi join where neither key column is unique on its side — the
    /// hash join needs a unique build side.
    NoUniqueJoinKey {
        /// Left key column name.
        left_key: String,
        /// Right key column name.
        right_key: String,
    },
    /// A predicate or expression shape the lowerer does not support.
    Unsupported(String),
    /// The query never declared output columns (and its root is not a
    /// grouping, which would imply them).
    NoOutputs,
    /// A parameter slot survived to lowering: the query was compiled
    /// without [`Query::bind`], or the bind supplied too few values.
    UnboundParam {
        /// The first unbound slot id.
        id: u32,
    },
    /// Plan construction failed below the lowering.
    Plan(PlanError),
}

impl fmt::Display for QueryBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryBuildError::UnknownColumn { name } => write!(f, "unknown column {name}"),
            QueryBuildError::NoUniqueJoinKey { left_key, right_key } => write!(
                f,
                "join {left_key} = {right_key}: neither key is unique on its side \
                 (the hash join needs a unique build side)"
            ),
            QueryBuildError::Unsupported(what) => write!(f, "unsupported: {what}"),
            QueryBuildError::NoOutputs => {
                write!(f, "query has no output columns (call .select(..) or group)")
            }
            QueryBuildError::UnboundParam { id } => {
                write!(f, "parameter ${id} is unbound (call .bind(..) with enough values)")
            }
            QueryBuildError::Plan(error) => write!(f, "plan error: {error}"),
        }
    }
}

impl std::error::Error for QueryBuildError {}

impl From<PlanError> for QueryBuildError {
    fn from(error: PlanError) -> QueryBuildError {
        QueryBuildError::Plan(error)
    }
}

/// A logical query: the root of a [`Logical`] tree plus the declared output
/// columns. Built through the fluent DSL, optimized by `rewrite`, and
/// compiled by [`Query::lower`] into a physical [`Plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    root: Logical,
    outputs: Vec<String>,
}

impl Query {
    /// Starts a query at a base-table scan.
    pub fn scan(table: &str) -> Query {
        Query { root: Logical::Scan { table: table.to_string() }, outputs: Vec::new() }
    }

    fn wrap(mut self, build: impl FnOnce(Box<Logical>) -> Logical) -> Query {
        self.root = build(Box::new(self.root));
        self
    }

    /// Keeps rows matching `predicate`.
    pub fn filter(self, predicate: Expr) -> Query {
        self.wrap(|input| Logical::Filter { input, predicate })
    }

    /// Appends a computed column `name := expr`.
    pub fn map(self, name: &str, expr: Expr) -> Query {
        self.wrap(|input| Logical::Map { input, name: name.to_string(), expr })
    }

    fn join_kind(self, right: Query, kind: JoinKind, left_key: &str, right_key: &str) -> Query {
        self.wrap(|left| Logical::Join {
            left,
            right: Box::new(right.root),
            kind,
            left_key: left_key.to_string(),
            right_key: right_key.to_string(),
        })
    }

    /// Inner PK-FK equi join with `right` on `left_key = right_key`.
    pub fn join(self, right: Query, left_key: &str, right_key: &str) -> Query {
        self.join_kind(right, JoinKind::Inner, left_key, right_key)
    }

    /// Semi join (`EXISTS`): keeps rows of `self` with a match in `right`.
    pub fn semi_join(self, right: Query, left_key: &str, right_key: &str) -> Query {
        self.join_kind(right, JoinKind::Semi, left_key, right_key)
    }

    /// Anti join (`NOT EXISTS`): keeps rows of `self` without a match.
    pub fn anti_join(self, right: Query, left_key: &str, right_key: &str) -> Query {
        self.join_kind(right, JoinKind::Anti, left_key, right_key)
    }

    /// Groups by `keys` (integer columns) computing `aggs`. The grouping's
    /// keys and aggregate outputs become the default output columns.
    pub fn group_by(self, keys: &[&str], aggs: &[AggSpec]) -> Query {
        self.wrap(|input| Logical::GroupBy {
            input,
            keys: keys.iter().map(|k| k.to_string()).collect(),
            aggs: aggs.to_vec(),
        })
    }

    /// Ungrouped (scalar) aggregation — [`Query::group_by`] with no keys.
    pub fn aggregate(self, aggs: &[AggSpec]) -> Query {
        self.group_by(&[], aggs)
    }

    /// Orders rows by `key`.
    pub fn sort_by(self, key: &str, descending: bool) -> Query {
        self.wrap(|input| Logical::Sort { input, key: key.to_string(), descending })
    }

    /// Caps the number of result rows (applied at the host boundary).
    pub fn limit(self, count: usize) -> Query {
        self.wrap(|input| Logical::Limit { input, count })
    }

    /// Declares the output columns, in order. Defaults to the grouping's
    /// keys + aggregates when the query ends in a [`Logical::GroupBy`].
    pub fn select(mut self, columns: &[&str]) -> Query {
        self.outputs = columns.iter().map(|c| c.to_string()).collect();
        self
    }

    /// The logical tree (for tests and tools).
    pub fn root(&self) -> &Logical {
        &self.root
    }

    /// Every parameter slot the query mentions, in first-use order.
    pub fn params(&self) -> Vec<u32> {
        self.root.params()
    }

    /// Whether any parameter slot remains unbound.
    pub fn has_params(&self) -> bool {
        !self.params().is_empty()
    }

    /// Binds parameter slots positionally: slot `$i` receives `params[i]`.
    /// Substituted expressions are constant-folded, so the bound query is
    /// structurally identical to one built with the literals inline.
    /// Errors with [`QueryBuildError::UnboundParam`] when any mentioned
    /// slot has no value (`params` may be longer than needed — serving
    /// layers pass one vector for a whole query family).
    pub fn bind(&self, params: &[ParamValue]) -> Result<Query, QueryBuildError> {
        if let Some(id) = self.params().into_iter().find(|id| *id as usize >= params.len()) {
            return Err(QueryBuildError::UnboundParam { id });
        }
        let root = self.root.substitute_params(&|id| params.get(id as usize).map(|v| v.as_expr()));
        Ok(Query { root, outputs: self.outputs.clone() })
    }

    /// The root-most `Limit`, if any (applied host-side by [`Query::run`]).
    pub fn limit_count(&self) -> Option<usize> {
        let mut node = &self.root;
        let mut limit: Option<usize> = None;
        while let Logical::Limit { input, count } = node {
            limit = Some(limit.map_or(*count, |l| l.min(*count)));
            node = input;
        }
        limit
    }

    /// The effective output column names ([`Query::select`] or the
    /// grouping's implied outputs).
    pub fn output_columns(&self) -> Result<Vec<String>, QueryBuildError> {
        if !self.outputs.is_empty() {
            return Ok(self.outputs.clone());
        }
        let mut node = &self.root;
        loop {
            match node {
                Logical::Limit { input, .. } | Logical::Sort { input, .. } => node = input,
                Logical::GroupBy { keys, aggs, .. } => {
                    let mut out = keys.clone();
                    out.extend(aggs.iter().map(|a| a.output.clone()));
                    return Ok(out);
                }
                _ => return Err(QueryBuildError::NoOutputs),
            }
        }
    }

    /// The rewritten (optimized) logical tree and the rule annotations.
    pub fn optimize(&self, catalog: &Catalog) -> (Logical, Vec<String>) {
        self.optimize_with(catalog, &RewriteConfig::optimized())
    }

    /// [`Query::optimize`] under an explicit rule configuration.
    pub fn optimize_with(&self, catalog: &Catalog, cfg: &RewriteConfig) -> (Logical, Vec<String>) {
        let outputs = self.output_columns().unwrap_or_default();
        rewrite::apply(self.root.clone(), catalog, cfg, &outputs)
    }

    /// Compiles the query: rewrite rules, then lowering onto the physical
    /// plan builder (see module docs for the decisions the lowerer owns).
    pub fn lower(&self, catalog: &Catalog) -> Result<Plan, QueryBuildError> {
        self.lower_with(catalog, &RewriteConfig::optimized())
    }

    /// [`Query::lower`] under an explicit rule configuration (benchmarks
    /// ablate individual rules through this).
    pub fn lower_with(
        &self,
        catalog: &Catalog,
        cfg: &RewriteConfig,
    ) -> Result<Plan, QueryBuildError> {
        let outputs = self.output_columns()?;
        // Parameterized queries must be bound before they can compile —
        // the lowerer's selection/arithmetic arms need concrete literals.
        if let Some(id) = self.params().first() {
            return Err(QueryBuildError::UnboundParam { id: *id });
        }
        let (rewritten, _) = rewrite::apply(self.root.clone(), catalog, cfg, &outputs);
        let lowered = lower::lower(&rewritten, &outputs, catalog, cfg)?;
        // Plans compiled through the query layer carry their logical
        // source, so device-loss failover can re-lower the query onto the
        // fallback backend instead of replaying the physical plan blind.
        Ok(lowered.plan.with_source(Arc::new(self.clone())))
    }

    /// Lowers and executes the query in a session, applying any root
    /// `Limit` at the host boundary.
    pub fn run<B: Backend>(
        &self,
        session: &Session<B>,
        catalog: &Catalog,
    ) -> Result<Vec<QueryValue>, QueryBuildError> {
        let plan = self.lower(catalog)?;
        let mut values = session.run(&plan, catalog)?;
        if let Some(limit) = self.limit_count() {
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

    /// Renders the query end to end: the logical tree, the rewritten tree
    /// with its rule annotations, the lowered physical plan
    /// ([`Plan::listing`]: fused regions show their members) and the
    /// lowering and fusion decisions. The debugging surface of the whole
    /// layer.
    pub fn explain(&self, catalog: &Catalog) -> Result<String, QueryBuildError> {
        self.explain_with(catalog, &RewriteConfig::optimized())
    }

    /// [`Query::explain`] under an explicit rule configuration.
    pub fn explain_with(
        &self,
        catalog: &Catalog,
        cfg: &RewriteConfig,
    ) -> Result<String, QueryBuildError> {
        let outputs = self.output_columns()?;
        let (rewritten, rules) = rewrite::apply(self.root.clone(), catalog, cfg, &outputs);
        let mut out = String::new();
        out.push_str("=== logical plan ===\n");
        out.push_str(&self.root.render());
        out.push_str(&format!("output: [{}]\n", outputs.join(", ")));
        let params = self.params();
        if !params.is_empty() {
            let slots: Vec<String> = params.iter().map(|id| format!("${id}")).collect();
            out.push_str(&format!("params: [{}]\n", slots.join(", ")));
        }
        out.push_str(&format!("=== rewritten ({} rule applications) ===\n", rules.len()));
        for note in &rules {
            out.push_str(&format!("  * {note}\n"));
        }
        out.push_str(&rewritten.render());
        if !params.is_empty() {
            // An unbound parameterized query stops at the logical half —
            // lowering needs concrete literals (bind first, or explain
            // through the plan cache to see the physical plan of a shape).
            out.push_str("=== physical plan ===\n");
            out.push_str("  (unbound parameters — call .bind(..) to lower)\n");
            return Ok(out);
        }
        let lowered = lower::lower(&rewritten, &outputs, catalog, cfg)?;
        out.push_str(&format!("=== physical plan ({} nodes) ===\n", lowered.plan.len()));
        out.push_str(&lowered.plan.listing());
        out.push_str("=== lowering decisions ===\n");
        for note in &lowered.notes {
            out.push_str(&format!("  * {note}\n"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::MonetBackend;
    use crate::plan::PlanOp;
    use ocelot_storage::{Bat, Catalog, Table};

    /// fact(k → dim.id, v, flag, d) plus two key-only dimension tables of
    /// different sizes (for the build-side decision).
    fn catalog() -> Catalog {
        let n = 4_000;
        let mut catalog = Catalog::new();
        let fact = Table::new("fact")
            .with_column("k", Bat::from_i32("k", (0..n).map(|i| i % 50).collect()).into_ref())
            .with_column(
                "v",
                Bat::from_f32("v", (0..n).map(|i| (i % 97) as f32 * 0.25).collect()).into_ref(),
            )
            .with_column("flag", Bat::from_i32("flag", (0..n).map(|i| i % 2).collect()).into_ref())
            .with_column("d", Bat::from_i32("d", (0..n).map(|i| i % 1_000).collect()).into_ref())
            .with_column(
                "fact_id",
                Bat::from_i32("fact_id", (0..n).collect()).with_key(true).into_ref(),
            );
        catalog.add_table(fact);
        let dim = Table::new("dim")
            .with_column("id", Bat::from_i32("id", (0..50).collect()).with_key(true).into_ref())
            .with_column(
                "attr",
                Bat::from_i32("attr", (0..50).map(|i| i % 5).collect()).into_ref(),
            );
        catalog.add_table(dim);
        let big = Table::new("big")
            .with_column(
                "big_id",
                Bat::from_i32("big_id", (0..4_000).collect()).with_key(true).into_ref(),
            )
            .with_column(
                "w",
                Bat::from_f32("w", (0..4_000).map(|i| i as f32).collect()).into_ref(),
            );
        catalog.add_table(big);
        catalog
    }

    fn filter_chain_above_scan(node: &Logical) -> Option<Vec<String>> {
        let mut preds = Vec::new();
        let mut cursor = node;
        while let Logical::Filter { input, predicate } = cursor {
            preds.push(predicate.to_string());
            cursor = input;
        }
        matches!(cursor, Logical::Scan { .. }).then_some(preds)
    }

    #[test]
    fn pushdown_moves_single_side_predicates_below_the_join() {
        let catalog = catalog();
        let q = Query::scan("fact")
            .join(Query::scan("dim"), "k", "id")
            .filter(col("attr").eq(3))
            .filter(col("flag").eq(1))
            .select(&["v"]);
        let (rewritten, notes) = q.optimize(&catalog);
        assert!(
            notes.iter().filter(|n| n.contains("predicate pushdown")).count() >= 2,
            "both predicates push: {notes:?}"
        );
        // Both sides of the join are now Filter-over-Scan.
        let Logical::Join { left, right, .. } = &rewritten else {
            panic!("join must be the root after pushdown: {}", rewritten.render());
        };
        assert!(filter_chain_above_scan(left).is_some(), "fact filter pushed:\n{}", left.render());
        assert!(filter_chain_above_scan(right).is_some(), "dim filter pushed:\n{}", right.render());
    }

    #[test]
    fn selectivity_ordering_applies_the_narrow_predicate_first() {
        let catalog = catalog();
        // Written wide-first: d spans [0, 1000) so [0, 499] keeps ~50%,
        // flag = 1 keeps ~50%, d in [0, 9] keeps ~1%.
        let q = Query::scan("fact")
            .filter(col("flag").eq(1))
            .filter(col("d").between(0, 9))
            .filter(col("v").ge(0.0f32))
            .select(&["v"]);
        let (rewritten, notes) = q.optimize(&catalog);
        assert!(
            notes.iter().any(|n| n.contains("selectivity order on fact")),
            "ordering note missing: {notes:?}"
        );
        let chain = filter_chain_above_scan(&rewritten).expect("chain over scan");
        // The chain renders outside-in: the last element executes first.
        assert!(
            chain.last().unwrap().contains('d'),
            "most selective predicate (d in [0, 9]) must execute first: {chain:?}"
        );
        // And the lowered plan's first selection is the d-range.
        let plan = q.lower(&catalog).unwrap();
        let first_select = plan
            .unfused_nodes()
            .find_map(|n| match &n.op {
                PlanOp::Select { pred: crate::backend::Pred::RangeI32 { low, high, .. } } => {
                    Some((*low, *high))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(first_select, (0, 9));
    }

    #[test]
    fn projection_pruning_drops_unused_maps_and_binds() {
        let catalog = catalog();
        let q = Query::scan("fact")
            .map("used", col("v") * lit(2.0f32))
            .map("unused", col("v") + col("v"))
            .select(&["used"]);
        let (rewritten, notes) = q.optimize(&catalog);
        assert!(
            notes.iter().any(|n| n.contains("dropped unused map unused")),
            "prune note missing: {notes:?}"
        );
        assert_eq!(rewritten.node_count(), 2, "scan + the used map:\n{}", rewritten.render());

        // Observable physically: the naive lowering binds every fact
        // column, the pruned lowering only what the query reads.
        let binds = |plan: &Plan| {
            plan.nodes().iter().filter(|n| matches!(n.op, PlanOp::Bind { .. })).count()
        };
        let pruned = q.lower(&catalog).unwrap();
        let naive = q.lower_with(&catalog, &RewriteConfig::naive()).unwrap();
        assert_eq!(binds(&pruned), 1, "only fact.v is read");
        assert_eq!(binds(&naive), 5, "naive lowering materialises all fact columns");
    }

    #[test]
    fn constant_folding_and_year_ranges_are_rewritten() {
        let catalog = catalog();
        let q =
            Query::scan("fact").filter(col("d").between(lit(2) + lit(3), lit(100))).select(&["v"]);
        let (rewritten, notes) = q.optimize(&catalog);
        assert!(notes.iter().any(|n| n.contains("constant folding")), "{notes:?}");
        let chain = filter_chain_above_scan(&rewritten).unwrap();
        assert!(chain[0].contains("BETWEEN 5 AND 100"), "{chain:?}");

        // YEAR(col) = literal becomes a day-number range.
        let q = Query::scan("fact").filter(col("d").year().eq(1970)).select(&["v"]);
        let (rewritten, notes) = q.optimize(&catalog);
        assert!(
            notes.iter().any(|n| n.contains("day-number range")),
            "year rewrite note missing: {notes:?}"
        );
        let chain = filter_chain_above_scan(&rewritten).unwrap();
        assert!(chain[0].contains("BETWEEN"), "{chain:?}");
    }

    #[test]
    fn build_side_follows_estimated_cardinality_when_both_keys_are_unique() {
        let catalog = catalog();
        let q = Query::scan("big")
            .join(Query::scan("fact"), "big_id", "fact_id")
            .filter(col("flag").eq(1))
            .select(&["w"]);
        let text = q.explain(&catalog).unwrap();
        assert!(
            text.contains("both keys unique"),
            "cardinality-based build-side note missing:\n{text}"
        );
        // The filtered fact side (~2000 est rows) is smaller than big
        // (4000), so it builds.
        assert!(text.contains("build side by estimated cardinality: right"), "{text}");
    }

    #[test]
    fn queries_execute_and_limits_truncate_at_the_host_boundary() {
        let catalog = catalog();
        let backend = MonetBackend::with_threads(1);
        let session = crate::session::Session::new(backend);
        let q = Query::scan("fact")
            .filter(col("flag").eq(1))
            .group_by(&["k"], &[AggSpec::sum("v", "total"), AggSpec::count("n")])
            .sort_by("total", true);
        let values = q.run(&session, &catalog).unwrap();
        assert_eq!(values.len(), 3, "k, total, n");
        let QueryValue::IntColumn(keys) = &values[0] else { panic!("keys are ints") };
        // Odd rows only: k = i % 50 over odd i covers the 25 odd residues.
        assert_eq!(keys.len(), 25);

        let limited = q.clone().limit(7).run(&session, &catalog).unwrap();
        let QueryValue::IntColumn(keys) = &limited[0] else { panic!("keys are ints") };
        assert_eq!(keys.len(), 7, "limit applies host-side");

        // Results are identical to computing the aggregation by hand.
        let expected: f32 = (0..4_000).filter(|i| i % 2 == 1).map(|i| (i % 97) as f32 * 0.25).sum();
        let QueryValue::FloatColumn(totals) = &values[1] else { panic!("totals are floats") };
        let got: f32 = totals.iter().sum();
        assert!((got - expected).abs() / expected < 1e-3, "{got} vs {expected}");
    }

    #[test]
    fn malformed_queries_surface_structured_errors() {
        let catalog = catalog();
        let session = crate::session::Session::monet_seq();

        // No unique key on either side of a join.
        let err = Query::scan("fact")
            .join(Query::scan("dim"), "k", "attr")
            .select(&["v"])
            .lower(&catalog)
            .unwrap_err();
        assert!(matches!(err, QueryBuildError::NoUniqueJoinKey { .. }), "{err}");
        assert!(err.to_string().contains("unique build side"));

        // Unknown column.
        let err = Query::scan("fact").select(&["nope"]).lower(&catalog).unwrap_err();
        assert_eq!(err, QueryBuildError::UnknownColumn { name: "nope".into() });

        // Float equality needs a BETWEEN band.
        let err = Query::scan("fact")
            .filter(col("v").eq(0.5f32))
            .select(&["v"])
            .lower(&catalog)
            .unwrap_err();
        assert!(matches!(err, QueryBuildError::Unsupported(_)), "{err}");

        // Outputs must be declared unless a grouping implies them.
        let err = Query::scan("fact").run(&session, &catalog).unwrap_err();
        assert_eq!(err, QueryBuildError::NoOutputs);

        // Grouping keys must be integer columns.
        let err = Query::scan("fact")
            .group_by(&["v"], &[AggSpec::count("n")])
            .lower(&catalog)
            .unwrap_err();
        assert!(err.to_string().contains("integer column"), "{err}");
    }

    #[test]
    fn semi_and_anti_joins_partition_the_left_relation() {
        let catalog = catalog();
        let session = crate::session::Session::monet_seq();
        // dim rows with attr = 0 → ids {0, 5, 10, ...}; fact.k ∈ those ids.
        let matching = Query::scan("dim").filter(col("attr").eq(0));
        let semi = Query::scan("fact")
            .semi_join(matching.clone(), "k", "id")
            .aggregate(&[AggSpec::sum("v", "total")]);
        let anti = Query::scan("fact")
            .anti_join(matching, "k", "id")
            .aggregate(&[AggSpec::sum("v", "total")]);
        let all = Query::scan("fact").aggregate(&[AggSpec::sum("v", "total")]);
        let value = |q: &Query| match q.run(&session, &catalog).unwrap().as_slice() {
            [QueryValue::Scalar(s)] => *s,
            other => panic!("scalar expected: {other:?}"),
        };
        let (semi, anti, all) = (value(&semi), value(&anti), value(&all));
        assert!(semi > 0.0 && anti > 0.0);
        assert!((semi + anti - all).abs() / all < 1e-3, "{semi} + {anti} != {all}");
    }

    #[test]
    fn naive_and_optimized_lowering_agree_on_results() {
        // Rule safety: disabling every rewrite must not change semantics,
        // only the physical plan.
        let catalog = catalog();
        let session = crate::session::Session::monet_seq();
        let q = Query::scan("fact")
            .join(Query::scan("dim"), "k", "id")
            .filter(col("attr").eq(2))
            .filter(col("d").between(100, 700))
            .map("scaled", col("v") * lit(3.0f32))
            .group_by(&["k"], &[AggSpec::sum("scaled", "total")])
            .sort_by("k", false);
        let optimized = session.run(&q.lower(&catalog).unwrap(), &catalog).unwrap();
        let naive = session
            .run(&q.lower_with(&catalog, &RewriteConfig::naive()).unwrap(), &catalog)
            .unwrap();
        assert_eq!(optimized, naive, "both orderings sort by k, so rows align exactly");
        // The optimized plan does strictly less work (fewer binds).
        let binds = |plan: &Plan| {
            plan.nodes().iter().filter(|n| matches!(n.op, PlanOp::Bind { .. })).count()
        };
        assert!(
            binds(&q.lower(&catalog).unwrap())
                < binds(&q.lower_with(&catalog, &RewriteConfig::naive()).unwrap())
        );
    }
}
