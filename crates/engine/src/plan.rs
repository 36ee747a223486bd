//! Compiled query plans: an explicit operator DAG executed node by node.
//!
//! PR 2 made single-query pipelines sync-free; this module is the structural
//! half of running *many* of them: instead of interpreting a MAL program
//! statement by statement, the engine **compiles** queries into a [`Plan`] —
//! a list of [`PlanNode`]s, each declaring the virtual registers it reads
//! ([`PlanNode::inputs`]) and writes ([`PlanNode::outputs`]). The node order
//! is a topological order of the dataflow DAG (producers strictly precede
//! consumers; [`Plan::dependencies`] exposes the edges), which is what lets
//! the [`crate::scheduler`] interleave the node execution of several
//! admitted plans: between any two nodes of one plan it may run nodes of
//! another, and the deferred `DevScalar`/`DevColumn` values flowing along
//! the edges guarantee that nothing observable happens until a node actually
//! resolves a host value.
//!
//! Three stages, three failure domains:
//!
//! * **Build** ([`PlanBuilder`]) — every operator method checks its operand
//!   kinds ([`ValueKind`]: column / scalar / grouping), and a selection's or
//!   map's program against its operands, so malformed dataflow (a scalar
//!   feeding an element-wise map, a grouping used as a column, a conjunct
//!   reading a column it was not given) is rejected *before* anything
//!   executes.
//! * **Execute** ([`PlanRun`]) — a resumable register machine over any
//!   [`Backend`]. [`PlanRun::step`] runs exactly one node; callers that
//!   don't need stepping use [`PlanRun::run_to_completion`]. Registers are
//!   freed at their last use (computed at build time), so a finished
//!   subtree's device buffers return to the recycle pool while the plan is
//!   still running — and, with a shared pool, to *other sessions*.
//! * **Materialise** — `Result` nodes read their registers back through the
//!   backend (`to_i32`/`to_f32`/`to_oids` — the sync boundary on Ocelot)
//!   into typed host [`QueryValue`]s.
//!
//! # Recovery-protocol lifecycle contract
//!
//! Device faults reach the executor as **values**: every [`Backend`]
//! operator returns `Result<_, PlanError>`, and a failed device operation
//! is [`PlanError::Device`] carrying the `KernelError` (`?` all the way from
//! the kernel runtime). [`PlanRun::step`] runs one **unified recovery
//! protocol** over them — one `match` on the returned error, one restart
//! budget ([`PlanRun`]'s `RESTART_LIMIT`), several triggers. Every fault
//! class has exactly one handler and one observable counter
//! ([`RecoveryStats`]); the ordered [`RecoveryEvent`] trace records each
//! decision, and the same fault schedule always produces the same trace
//! (recovery is deterministic).
//!
//! | fault class (`KernelError` variant) | handler | observable counter |
//! |---|---|---|
//! | `OutOfDeviceMemory` — allocation failed | drop the attempt's outputs, **reclaim** (release + evict via [`Backend::reclaim_memory`]), re-run the node; give up when reclaim stops progressing or the shared budget is spent → [`PlanError::OutOfDeviceMemory`] | [`RecoveryStats::oom_restarts`] |
//! | `TransientFault` — a launch/transfer hiccup | drop the attempt's outputs, sleep a **deterministic backoff** step (immediate first retry, then exponential, capped), re-run the node; budget spent → [`PlanError::Faulted`] | [`RecoveryStats::retries`], [`RecoveryStats::backoff_steps`] |
//! | `DeviceLost` — sticky device loss | no node retry can succeed: fail the **whole plan** with [`PlanError::DeviceLost`]; the session/scheduler invalidates the device's cached state and fails the query over to a fallback backend | [`RecoveryStats::failovers`] (session/scheduler level) |
//! | any other variant, any other [`PlanError`] | **final** — returned as is after one attempt: no retry, no reclaim pass (under the scheduler: that job's error, the stream proceeds) | — |
//!
//! A panic is not a fault: recovery never catches one, and a genuine bug
//! unwinds through `step` unchanged.
//!
//! A plan that exhausts the budget surfaces a *typed* error in its result
//! slot; under the scheduler the failing plan is quarantined
//! ([`RecoveryStats::quarantines`]) while every other admitted plan
//! proceeds. The per-node restart slate (outputs dropped, results
//! truncated) is shared by the OOM and transient paths, which is what makes
//! the protocol "one protocol, two triggers": PR 4's OOM restart is now
//! just the reclaim-gated trigger of this loop.

use crate::backend::{Backend, DenseJoinKind, GroupHandle, GroupedAgg, Map, Pred, ProfileMarker};
use crate::query::Query;
use ocelot_core::ops::hash_table::{table_capacity, table_words};
use ocelot_core::ops::sort_radix;
use ocelot_kernel::{FaultSite, KernelError};
use ocelot_storage::{Catalog, DenseKey};
use ocelot_trace::{MetricsRegistry, NodeAction, TraceEventKind, TraceHandle};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A virtual register holding an intermediate value.
pub type Var = usize;

/// What a register holds, as tracked (and enforced) at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// A column of values.
    Column,
    /// A one-element scalar aggregate (device-resident on Ocelot).
    Scalar,
    /// A grouping (dense group ids + representatives).
    Group,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKind::Column => write!(f, "column"),
            ValueKind::Scalar => write!(f, "scalar"),
            ValueKind::Group => write!(f, "grouping"),
        }
    }
}

/// Why a plan could not be built or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A `bind` referenced a column the catalog does not know.
    UnknownColumn {
        /// Table name as given to `bind`.
        table: String,
        /// Column name as given to `bind`.
        column: String,
    },
    /// An operator read a register no prior node wrote.
    UndefinedVar {
        /// The register in question.
        var: Var,
    },
    /// An operator read a register of the wrong kind.
    KindMismatch {
        /// The register in question.
        var: Var,
        /// The kind the operator needs.
        expected: ValueKind,
        /// The kind the register actually holds.
        found: ValueKind,
    },
    /// A raw node tried to define a register an earlier node already
    /// defined (single assignment violated — see
    /// [`PlanBuilder::push_node`]).
    DuplicateDefinition {
        /// The register in question.
        var: Var,
    },
    /// `group_by` was called with no key columns.
    EmptyGroupBy,
    /// A selection or map whose program does not match its operands. A
    /// selection's conjunct and a map's one operator read the column slots
    /// `0, 1, …` in order, slot `i` being operand `i`; a map's operator
    /// reads column leaves only, and a selection may take its candidate
    /// list as one more operand.
    MalformedProgram {
        /// The node's operator, as the plan listing renders it.
        op: String,
        /// Operands the node was given.
        operands: usize,
    },
    /// A node ran out of device memory and the OOM-restart protocol could
    /// not recover: reclaim passes (release + evict) stopped making
    /// progress, or the restart limit was reached. The working set pinned
    /// by the plan itself simply does not fit the device (or its
    /// configured budget).
    OutOfDeviceMemory {
        /// Bytes the failing allocation asked for.
        requested: usize,
        /// Bytes available when the last restart attempt gave up.
        available: usize,
    },
    /// A node kept failing with transient device faults and the shared
    /// restart budget ran out: every retry (after its deterministic
    /// backoff step) hit another fault. Under the scheduler a plan failing
    /// this way is quarantined while the rest of the stream proceeds.
    Faulted {
        /// The site the last fault fired at.
        site: FaultSite,
        /// The device's fault-plan operation index of the last fault.
        op: u64,
        /// Node execution attempts made before giving up.
        attempts: u64,
    },
    /// The device executing the plan was lost (sticky: every further
    /// launch, transfer and allocation fails), so no node retry can
    /// succeed and the whole plan fails. Sessions with a fallback
    /// backend recover by invalidating the device's cached state and
    /// re-running the query there (see `Session::with_fallback`).
    DeviceLost,
    /// The serving scheduler's bounded admission queue was full when the
    /// query arrived, so it was rejected without executing (backpressure —
    /// see `crate::scheduler::ServeScheduler`). The client should retry
    /// later or shed load; admitted queries are unaffected.
    Overloaded {
        /// Queries already queued for the tenant's lane at arrival.
        queued: usize,
        /// The configured per-tenant queue capacity.
        capacity: usize,
    },
    /// A device operation failed under a [`Backend`] operator: the carrier
    /// every kernel error crosses the trait in. [`PlanRun::step`] recovers
    /// the out-of-memory, transient and device-lost classes (or converts
    /// them to the typed variants above); any other kernel error is not
    /// retried and reaches the caller as this variant.
    Device(KernelError),
}

impl From<KernelError> for PlanError {
    fn from(error: KernelError) -> PlanError {
        PlanError::Device(error)
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            PlanError::UndefinedVar { var } => write!(f, "variable {var} is undefined"),
            PlanError::KindMismatch { var, expected, found } => {
                write!(f, "variable {var} holds a {found}, expected a {expected}")
            }
            PlanError::DuplicateDefinition { var } => {
                write!(f, "variable {var} is defined more than once")
            }
            PlanError::EmptyGroupBy => write!(f, "group_by needs at least one key column"),
            PlanError::MalformedProgram { op, operands } => write!(
                f,
                "`{op}` over {operands} operand(s): its program does not read them as slots \
                 0, 1, … in order"
            ),
            PlanError::OutOfDeviceMemory { requested, available } => write!(
                f,
                "out of device memory: {requested} bytes requested, {available} available \
                 after eviction and node restarts"
            ),
            PlanError::Faulted { site, op, attempts } => write!(
                f,
                "node faulted past the retry budget: transient {site} fault at device \
                 operation {op} after {attempts} attempts"
            ),
            PlanError::DeviceLost => write!(f, "device lost while executing the plan"),
            PlanError::Overloaded { queued, capacity } => write!(
                f,
                "admission queue overloaded: {queued} queries already queued at capacity \
                 {capacity} — retry later or shed load"
            ),
            PlanError::Device(error) => write!(f, "device operation failed: {error}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The operator of one plan node. Operand registers live in
/// [`PlanNode::inputs`] / [`PlanNode::outputs`]; the op carries only the
/// literal parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Binds a base-table column (input arity 0).
    Bind {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// A selection: the rows on which one conjunct holds. Inputs: one
    /// column per slot of the conjunct, in slot order, then optionally the
    /// candidate list it selects among.
    Select {
        /// The conjunct; slot `i` is `inputs[i]`.
        pred: Pred,
    },
    /// Union of two sorted OID candidate lists. Inputs: `[a, b]`.
    UnionOids,
    /// Left fetch join `values[oid]`. Inputs: `[values, oids]`.
    Fetch,
    /// An element-wise map: one operator over column leaves. Inputs: one
    /// column per leaf, in slot order. Its output is `i32` for a `year`,
    /// `f32` otherwise ([`Map::yields_i32`]).
    Map {
        /// The operator; leaf `Col(i)` is `inputs[i]`.
        map: Map,
    },
    /// FK/PK hash join. Inputs: `[fk, pk]`; outputs: `[fk_oids, pk_oids]`.
    PkFkJoin,
    /// Partitioned hybrid hash FK/PK join — the out-of-core form of
    /// [`PlanOp::PkFkJoin`], chosen by lowering when the monolithic hash
    /// table would overflow the device budget. Same inputs and outputs.
    PkFkJoinPartitioned {
        /// Estimated distinct build-key count (skew-aware partition sizing).
        ndv_hint: usize,
    },
    /// Semi join (`EXISTS`). Inputs: `[left, right]`.
    SemiJoin,
    /// Anti join (`NOT EXISTS`). Inputs: `[left, right]`.
    AntiJoin,
    /// Positional join on a dense key ([`Backend::dense_join`]): the join's
    /// dense side is a table whose key column holds `base, base + 1, …`,
    /// restricted to a list of its rows. Inputs: `[keys]` (the table is the
    /// relation as it lies) or `[keys, listed]`; outputs: `[kept rows]`, or
    /// `[kept rows, list positions]` for [`DenseJoinKind::Inner`].
    DenseJoin {
        /// Which rows the join keeps.
        kind: DenseJoinKind,
        /// The dense key: the table's first key value and row count.
        key: DenseKey,
    },
    /// Multi-column grouping. Inputs: the key columns; output: a grouping.
    GroupBy,
    /// Representative row OIDs of a grouping. Inputs: `[group]`.
    GroupReps,
    /// Every aggregate of one grouping in one node. Inputs: `[group,
    /// values…]`; outputs: one column per aggregate, in order.
    GroupedAggs {
        /// The aggregates; each names its value column by position among
        /// the node's value operands (`inputs[1..]`).
        funcs: Vec<GroupedAgg>,
    },
    /// Sort permutation of an integer column. Inputs: `[col]`.
    SortOrderI32 {
        /// Descending order when set.
        descending: bool,
    },
    /// Sort permutation of a float column. Inputs: `[col]`.
    SortOrderF32 {
        /// Descending order when set.
        descending: bool,
    },
    /// Ungrouped sum as a deferred one-element scalar. Inputs: `[values]`.
    SumF32,
    /// A fused streaming region ([`crate::fuse`]): the nodes it replaced, in
    /// plan order, the last one its sink. Inputs: every register a member
    /// reads and no member writes, in first-use order; outputs: the sink's.
    /// [`Backend::pipeline`] runs it — member by member unless the backend
    /// compiles the region.
    Pipeline {
        /// The member nodes (never `bind`, `sync`, `result` or a pipeline).
        members: Vec<PlanNode>,
    },
    /// The `ocelot.sync` ownership boundary: flushes outstanding device
    /// work. Inputs: the registers whose producers must have completed.
    Sync,
    /// Materialises its input registers as the plan's (next) results.
    Result,
}

impl PlanOp {
    /// Short operator name (for errors and displays).
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::Bind { .. } => "bind",
            PlanOp::Select { pred } => match pred {
                Pred::RangeI32 { .. } => "select_range_i32",
                Pred::RangeF32 { .. } => "select_range_f32",
                Pred::EqI32 { .. } => "select_eq_i32",
                Pred::NeI32 { .. } => "select_ne_i32",
                Pred::InI32 { .. } => "select_in_i32",
                Pred::CmpI32 { .. } => "select_cmp_i32",
            },
            PlanOp::UnionOids => "union_oids",
            PlanOp::Fetch => "fetch",
            PlanOp::Map { map } => match map {
                Map::Col(_) => "map",
                Map::Mul(..) => "mul_f32",
                Map::Add(..) => "add_f32",
                Map::Sub(..) => "sub_f32",
                Map::ConstMinus(..) => "const_minus_f32",
                Map::ConstPlus(..) => "const_plus_f32",
                Map::MulConst(..) => "mul_const_f32",
                Map::CastI32F32(_) => "cast_i32_f32",
                Map::Year(_) => "extract_year",
            },
            PlanOp::PkFkJoin => "pkfk_join",
            PlanOp::PkFkJoinPartitioned { .. } => "pkfk_join_partitioned",
            PlanOp::SemiJoin => "semi_join",
            PlanOp::AntiJoin => "anti_join",
            PlanOp::DenseJoin { .. } => "dense_join",
            PlanOp::GroupBy => "group_by",
            PlanOp::GroupReps => "group_reps",
            PlanOp::GroupedAggs { .. } => "grouped_aggs",
            PlanOp::SortOrderI32 { .. } => "sort_order_i32",
            PlanOp::SortOrderF32 { .. } => "sort_order_f32",
            PlanOp::SumF32 => "sum_f32",
            PlanOp::Pipeline { .. } => "pipeline",
            PlanOp::Sync => "sync",
            PlanOp::Result => "result",
        }
    }

    /// The column operands a selection's or a map's program reads — one past
    /// its highest slot — or `None` for any other operator.
    pub fn program_columns(&self) -> Option<usize> {
        fn top(map: &Map) -> Option<usize> {
            match map {
                Map::Col(slot) => Some(*slot),
                _ => map.children().filter_map(top).max(),
            }
        }
        let top = match self {
            PlanOp::Select { pred } => pred.slots().max(),
            PlanOp::Map { map } => top(map),
            _ => return None,
        };
        Some(top.map_or(0, |top| top + 1))
    }
}

impl fmt::Display for PlanOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanOp::Bind { table, column } => write!(f, "bind {table}.{column}"),
            PlanOp::Select { pred } => {
                write!(f, "{} ", self.name())?;
                match pred {
                    Pred::RangeI32 { low, high, .. } => write!(f, "[{low}, {high}]"),
                    Pred::RangeF32 { low, high, .. } => write!(f, "[{low:?}, {high:?}]"),
                    Pred::EqI32 { needle, .. } | Pred::NeI32 { needle, .. } => {
                        write!(f, "{needle}")
                    }
                    Pred::InI32 { values, .. } => write!(f, "{values:?}"),
                    Pred::CmpI32 { op, .. } => write!(f, "{}", op.symbol()),
                }
            }
            PlanOp::Map {
                map:
                    Map::ConstMinus(constant, _)
                    | Map::ConstPlus(constant, _)
                    | Map::MulConst(_, constant),
            } => write!(f, "{} {constant:?}", self.name()),
            PlanOp::GroupedAggs { funcs } => {
                write!(f, "grouped_aggs")?;
                funcs.iter().try_for_each(|func| write!(f, " {func}"))
            }
            PlanOp::SortOrderI32 { descending } => {
                write!(f, "sort_order_i32 {}", if *descending { "desc" } else { "asc" })
            }
            PlanOp::SortOrderF32 { descending } => {
                write!(f, "sort_order_f32 {}", if *descending { "desc" } else { "asc" })
            }
            PlanOp::PkFkJoinPartitioned { ndv_hint } => {
                write!(f, "pkfk_join_partitioned ndv~{ndv_hint}")
            }
            PlanOp::DenseJoin { kind, key } => {
                write!(f, "dense_join {} base {} rows {}", kind.name(), key.base, key.rows)
            }
            // One line: what was fused, by kind, and what it ends in. The
            // members themselves are listed by [`Plan::listing`].
            PlanOp::Pipeline { members } => {
                let count = |wanted: fn(&str) -> bool| {
                    members.iter().filter(|member| wanted(member.op.name())).count()
                };
                let selects = count(|name| name.starts_with("select_"));
                let fetches = count(|name| name == "fetch");
                // A grouping is its `group_by` and its `group_reps`.
                let grouping = count(|name| name.starts_with("group_"));
                let sink = members.last().map_or("nothing", |sink| sink.op.name());
                let (maps, sink) = match selects == members.len() {
                    true => (0, "oids"),
                    false => (members.len() - selects - fetches - grouping - 1, sink),
                };
                write!(f, "pipeline [{selects} select, {fetches} fetch, {maps} map")?;
                if grouping > 0 {
                    write!(f, ", group_by")?;
                }
                write!(f, "] => {sink}")
            }
            other => write!(f, "{}", other.name()),
        }
    }
}

/// One node of the operator DAG: an operator plus the registers it reads
/// and writes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operator.
    pub op: PlanOp,
    /// Registers this node reads, in operand order.
    pub inputs: Vec<Var>,
    /// Registers this node writes, in operand order.
    pub outputs: Vec<Var>,
}

impl PlanNode {
    /// The nodes a `pipeline` node fused (empty for any other node).
    pub fn members(&self) -> &[PlanNode] {
        match &self.op {
            PlanOp::Pipeline { members } => members,
            _ => &[],
        }
    }

    /// The operator that produces the node's outputs: a pipeline's last
    /// member, the node's own operator otherwise.
    pub fn sink(&self) -> &PlanOp {
        self.members().last().map_or(&self.op, |sink| &sink.op)
    }

    /// How many of the node's operands are the columns its selection or map
    /// program reads ([`PlanOp::program_columns`]; 0 for any other node).
    /// [`PlanError::MalformedProgram`] when the operands do not cover them:
    /// a map has exactly those columns, a selection those columns and
    /// optionally its candidates.
    pub fn program_operands(&self) -> Result<usize, PlanError> {
        let Some(columns) = self.op.program_columns() else { return Ok(0) };
        let candidates = usize::from(matches!(self.op, PlanOp::Select { .. }));
        match (columns..=columns + candidates).contains(&self.inputs.len()) {
            true => Ok(columns),
            false => Err(PlanError::MalformedProgram {
                op: self.op.to_string(),
                operands: self.inputs.len(),
            }),
        }
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if !self.inputs.is_empty() {
            write!(f, " (")?;
            for (index, var) in self.inputs.iter().enumerate() {
                write!(f, "{}v{var}", if index > 0 { ", " } else { "" })?;
            }
            write!(f, ")")?;
        }
        if !self.outputs.is_empty() {
            write!(f, " ->")?;
            for var in &self.outputs {
                write!(f, " v{var}")?;
            }
        }
        Ok(())
    }
}

/// A compiled, kind-checked operator DAG (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    nodes: Vec<PlanNode>,
    /// Node index of each register's last read — the executor frees the
    /// register after that node, returning its buffers to the pool.
    last_use: HashMap<Var, usize>,
    /// The logical [`Query`] this plan was lowered from, when it came
    /// through the query layer. Device-loss failover re-lowers this source
    /// onto the fallback backend instead of reusing the physical plan
    /// verbatim; hand-built plans (no source) are re-run as-is — physical
    /// plans are backend-agnostic, so both paths are correct.
    source: Option<Arc<Query>>,
}

impl Plan {
    /// The nodes in execution (topological) order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Takes the plan apart into its nodes (for rewrites over the node
    /// list, which re-assemble with [`Plan::from_nodes_unchecked`]).
    pub(crate) fn into_nodes(self) -> Vec<PlanNode> {
        self.nodes
    }

    /// Assembles a plan from raw nodes **without any checking**, computing
    /// the last-use map honestly from the node inputs. Ill-formed node
    /// lists are accepted deliberately: this is the entry point for
    /// feeding negative cases to [`crate::analyze::verify`]. Executing an
    /// unverified plan built this way is undefined (the executor trusts
    /// plan invariants).
    pub fn from_nodes_unchecked(nodes: Vec<PlanNode>) -> Plan {
        let mut last_use = HashMap::new();
        for (index, node) in nodes.iter().enumerate() {
            for var in &node.inputs {
                last_use.insert(*var, index);
            }
        }
        Plan { nodes, last_use, source: None }
    }

    /// Like [`Plan::from_nodes_unchecked`], but with an explicit —
    /// possibly inconsistent — last-use map, for exercising the
    /// verifier's liveness check.
    pub fn from_parts_unchecked(nodes: Vec<PlanNode>, last_use: HashMap<Var, usize>) -> Plan {
        Plan { nodes, last_use, source: None }
    }

    /// Attaches the logical query this plan was lowered from (called by
    /// `Query::lower_with`; see [`Plan::source`]).
    pub fn with_source(mut self, query: Arc<Query>) -> Plan {
        self.source = Some(query);
        self
    }

    /// The logical source query, when the plan was compiled through the
    /// query layer.
    pub fn source(&self) -> Option<&Arc<Query>> {
        self.source.as_ref()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes with every `pipeline` node replaced by its members: the
    /// plan as lowered, before fusion.
    pub fn unfused_nodes(&self) -> impl Iterator<Item = &PlanNode> {
        self.nodes.iter().flat_map(|node| match node.members() {
            [] => std::slice::from_ref(node),
            members => members,
        })
    }

    /// The indexed node listing `explain()` prints: one line per node, and
    /// under every `pipeline` node the nodes it replaced.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (index, node) in self.nodes.iter().enumerate() {
            out.push_str(&format!("  {index:3}: {node}\n"));
            for member in node.members() {
                out.push_str(&format!("         | {member}\n"));
            }
        }
        out
    }

    /// Whether the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The dataflow edges: for every node, the indices of the nodes that
    /// produce its inputs. Always references earlier indices (the node
    /// order is topological).
    pub fn dependencies(&self) -> Vec<Vec<usize>> {
        let mut producer: HashMap<Var, usize> = HashMap::new();
        let mut deps = Vec::with_capacity(self.nodes.len());
        for (index, node) in self.nodes.iter().enumerate() {
            let mut mine: Vec<usize> =
                node.inputs.iter().filter_map(|var| producer.get(var).copied()).collect();
            mine.sort_unstable();
            mine.dedup();
            deps.push(mine);
            for out in &node.outputs {
                producer.insert(*out, index);
            }
        }
        deps
    }

    /// Node index after which `var` is dead (its last read).
    pub fn last_use(&self, var: Var) -> Option<usize> {
        self.last_use.get(&var).copied()
    }

    /// Estimated peak device footprint of the plan's *registers*, in bytes.
    ///
    /// The estimate walks the dataflow DAG (the same edges
    /// [`Plan::dependencies`] exposes) in execution order, simulating the
    /// executor's register lifetimes: `bind` outputs are sized exactly
    /// from the catalog (base columns are the dominant pinned working
    /// set), every derived register inherits the largest input it was
    /// computed from (selections and joins can only shrink, maps preserve
    /// cardinality) — but a `pipeline` holding a grouping hands on one
    /// value per group, at most the product of its keys' value ranges (base
    /// columns: from the catalog's statistics) —, scalars are one word, and
    /// registers die at their build-time last use — exactly when the
    /// executor frees them. The peak of the live-set byte sum is the
    /// estimate. It deliberately
    /// ignores operator scratch — see [`Plan::estimate_device_footprint`]
    /// for the admission-grade estimate that includes it.
    pub fn estimate_register_footprint(&self, catalog: &Catalog) -> usize {
        self.walk_footprint(catalog, false)
    }

    /// Estimated peak device footprint of running this plan alone, in
    /// bytes — the scheduler's cost model for memory-aware admission.
    ///
    /// Extends [`Plan::estimate_register_footprint`] with per-operator
    /// **scratch models** charged while the producing node runs: a join
    /// build allocates the larger of twice a power-of-two slot table of
    /// ~1.4× the build cardinality and a table covering the key range the
    /// probe rows pay for (`next_pow2(8 × build + probe)` words,
    /// `hash_table::table_words`), a grouping build — a `group_by`, or a
    /// `pipeline` holding one, over its largest input — twice the
    /// hash-sized table; both add one lookup word per probe row. A
    /// positional join on a dense key allocates a word per table row — the
    /// inverse map when it is given a row list, the flags of a semi/anti
    /// join whose dense side is the left one — plus one lookup word per row
    /// it looks up. The
    /// radix sort allocates four ping-pong staging buffers plus its
    /// work-group count table (`sort_radix::scratch_bytes`: the table is
    /// 1 KiB per 1024 rows, ≤ 64 KiB, on any device). Still an estimate,
    /// not a bound: admission budgets should keep slack.
    pub fn estimate_device_footprint(&self, catalog: &Catalog) -> usize {
        self.walk_footprint(catalog, true)
    }

    /// Transient device bytes the node's operator allocates beyond its
    /// input/output registers (hash-table slots, sort staging). The hash
    /// tables are sized by `ocelot_core::ops::hash_table`'s functions, the
    /// sort by its own.
    fn scratch_bytes(node: &PlanNode, sizes: &HashMap<Var, usize>) -> usize {
        let input_bytes =
            |index: usize| node.inputs.get(index).and_then(|v| sizes.get(v)).copied().unwrap_or(0);
        // Twice a hash-sized table (a restart's headroom) or the largest
        // first table of the sizing rule, whichever is larger.
        let join_table = |build_rows: usize, probe_rows: usize| {
            (2 * table_capacity(build_rows)).max(table_words(build_rows, probe_rows)) * 4
        };
        // A hash grouping hashes every input row: slots plus as much again
        // for the per-row ids and rank scratch, plus the gid word per row.
        // (Dense-code grouping needs a few KB instead, but which one runs is
        // only known from the data.)
        let grouping = |rows: usize| 2 * table_capacity(rows) * 4 + rows * 4;
        match &node.op {
            PlanOp::SortOrderI32 { .. } | PlanOp::SortOrderF32 { .. } => {
                sort_radix::scratch_bytes(input_bytes(0) / 4)
            }
            PlanOp::PkFkJoin | PlanOp::SemiJoin | PlanOp::AntiJoin => {
                // The table the probe rows may pay for, plus their lookup
                // word.
                join_table(input_bytes(1) / 4, input_bytes(0) / 4) + input_bytes(0)
            }
            PlanOp::DenseJoin { kind, key } => {
                let table = key.rows * 4;
                // The rows looked up: the keys, or the listed rows reading
                // their flags.
                match kind {
                    DenseJoinKind::ListedSemi | DenseJoinKind::ListedAnti => {
                        table + node.inputs.get(1).map_or(table, |_| input_bytes(1))
                    }
                    _ => node.inputs.get(1).map_or(0, |_| table) + input_bytes(0),
                }
            }
            PlanOp::PkFkJoinPartitioned { .. } => {
                // Partition copies of both sides (keys + carried OIDs) plus
                // one per-partition hash table — the partitioned join never
                // materialises the monolithic table, so its scratch is the
                // copies plus a table a partition-count factor smaller, which
                // its probe rows do not pay for (`ocelot_core::partition`).
                2 * (input_bytes(0) + input_bytes(1))
                    + join_table(input_bytes(1) / 8, 0)
                    + input_bytes(0) / 2
            }
            PlanOp::GroupBy => grouping(input_bytes(0) / 4),
            // A region holding a grouping groups rows of its inputs.
            PlanOp::Pipeline { members } if members.iter().any(|m| m.op == PlanOp::GroupBy) => {
                grouping(node.inputs.iter().filter_map(|v| sizes.get(v)).max().map_or(0, |b| b / 4))
            }
            _ => 0,
        }
    }

    fn walk_footprint(&self, catalog: &Catalog, include_scratch: bool) -> usize {
        let mut sizes: HashMap<Var, usize> = HashMap::new();
        let mut live = 0usize;
        let mut peak = 0usize;
        for (index, node) in self.nodes.iter().enumerate() {
            if include_scratch {
                peak = peak.max(live + Plan::scratch_bytes(node, &sizes));
            }
            // A pipeline is charged for what it hands on, like its sink: the
            // values its members exchanged are never device registers.
            let out_bytes = match node.sink() {
                PlanOp::Bind { table, column } => {
                    catalog.column(table, column).map(|bat| bat.len() * 4).unwrap_or(0)
                }
                PlanOp::SumF32 => 4,
                _ => {
                    let rows = node.inputs.iter().filter_map(|var| sizes.get(var)).max();
                    // A region holding a grouping hands on a value per group.
                    let groups =
                        self.key_space(node, catalog).map_or(usize::MAX, |n| n.saturating_mul(4));
                    rows.copied().unwrap_or(0).min(groups)
                }
            };
            for out in &node.outputs {
                sizes.insert(*out, out_bytes);
                live += out_bytes;
            }
            peak = peak.max(live);
            for var in node.inputs.iter().chain(&node.outputs) {
                let dead = match self.last_use(*var) {
                    Some(last) => last == index && node.inputs.contains(var),
                    None => node.outputs.contains(var),
                };
                if dead {
                    if let Some(bytes) = sizes.remove(var) {
                        live = live.saturating_sub(bytes);
                    }
                }
            }
        }
        peak
    }

    /// How many key tuples the `pipeline` node `node` can group its rows
    /// into, if it holds a grouping: the product of its keys' value ranges.
    /// Each key is a base column the region fetches through its rows; its
    /// range is read from the catalog's statistics (computed once per
    /// column).
    fn key_space(&self, node: &PlanNode, catalog: &Catalog) -> Option<usize> {
        fn producer(nodes: &[PlanNode], var: Var) -> Option<&PlanNode> {
            nodes.iter().find(|node| node.outputs.contains(&var))
        }
        let members = node.members();
        let grouping = members.iter().find(|member| member.op == PlanOp::GroupBy)?;
        grouping.inputs.iter().try_fold(1usize, |space, key| {
            let fetch = producer(members, *key).filter(|fetch| fetch.op == PlanOp::Fetch)?;
            let PlanOp::Bind { table, column } = &producer(&self.nodes, fetch.inputs[0])?.op else {
                return None;
            };
            let summary = catalog.column(table, column)?.summary();
            // An empty column's range is empty: `max < min`, one code.
            let span = (summary.max - summary.min).max(0.0) as usize + 1;
            Some(space.saturating_mul(span))
        })
    }
}

/// Builds a [`Plan`], checking operand kinds as nodes are appended.
///
/// Registers are assigned by the builder (SSA style — every output is a
/// fresh register), so plans produced here never alias or reassign.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    nodes: Vec<PlanNode>,
    kinds: HashMap<Var, ValueKind>,
    next_var: Var,
    /// Registers already bound per `table.column`, so re-binding the same
    /// base column returns the existing register instead of a duplicate
    /// node. A duplicate bind would create two registers over one cached
    /// column and defeat the column cache's single-pin accounting within
    /// a plan.
    bound: HashMap<(String, String), Var>,
}

impl PlanBuilder {
    /// Creates an empty builder.
    pub fn new() -> PlanBuilder {
        PlanBuilder::default()
    }

    fn fresh(&mut self, kind: ValueKind) -> Var {
        let var = self.next_var;
        self.next_var += 1;
        self.kinds.insert(var, kind);
        var
    }

    fn expect(&self, var: Var, expected: ValueKind) -> Result<(), PlanError> {
        match self.kinds.get(&var) {
            None => Err(PlanError::UndefinedVar { var }),
            Some(found) if *found != expected => {
                Err(PlanError::KindMismatch { var, expected, found: *found })
            }
            Some(_) => Ok(()),
        }
    }

    fn columns(&self, vars: &[Var]) -> Result<(), PlanError> {
        vars.iter().try_for_each(|var| self.expect(*var, ValueKind::Column))
    }

    fn push(&mut self, op: PlanOp, inputs: Vec<Var>, kind: ValueKind) -> Var {
        let out = self.fresh(kind);
        self.nodes.push(PlanNode { op, inputs, outputs: vec![out] });
        out
    }

    /// Binds a base-table column. The catalog is only consulted at
    /// execution time, so an unknown column surfaces from the run, not
    /// here. Binding the same `table.column` twice returns the first
    /// bind's register (one bind node, one cache pin per plan).
    pub fn bind(&mut self, table: &str, column: &str) -> Var {
        let key = (table.to_string(), column.to_string());
        if let Some(var) = self.bound.get(&key) {
            return *var;
        }
        let var = self.push(
            PlanOp::Bind { table: table.to_string(), column: column.to_string() },
            Vec::new(),
            ValueKind::Column,
        );
        self.bound.insert(key, var);
        var
    }

    /// A selection: the rows on which `pred` holds, its slot `i` reading
    /// `columns[i]`, among the candidate list `cands` when there is one. An
    /// `IN` list is kept sorted and distinct.
    pub fn select(
        &mut self,
        pred: Pred,
        columns: &[Var],
        cands: Option<Var>,
    ) -> Result<Var, PlanError> {
        let pred = match pred {
            Pred::InI32 { col, values } => {
                let mut values = values.to_vec();
                values.sort_unstable();
                values.dedup();
                Pred::InI32 { col, values: values.into() }
            }
            pred => pred,
        };
        self.program(PlanOp::Select { pred }, columns, cands)
    }

    /// An element-wise map: one operator of `map` over column leaves, leaf
    /// `Col(i)` reading `columns[i]`.
    pub fn map(&mut self, map: Map, columns: &[Var]) -> Result<Var, PlanError> {
        self.program(PlanOp::Map { map }, columns, None)
    }

    /// Appends the selection or map `op` over `columns` (then `cands`),
    /// refusing a program that does not read them as its slots `0, 1, …` in
    /// order — a map with one operator over column leaves — with
    /// [`PlanError::MalformedProgram`].
    fn program(
        &mut self,
        op: PlanOp,
        columns: &[Var],
        cands: Option<Var>,
    ) -> Result<Var, PlanError> {
        let in_order = match &op {
            PlanOp::Select { pred } => pred.slots().eq(0..columns.len()),
            // One operator whose operands are the leaves `Col(0), Col(1), …`.
            PlanOp::Map { map } => {
                let leaf = |operand: &Map| match operand {
                    Map::Col(slot) => Some(*slot),
                    _ => None,
                };
                leaf(map).is_none() && map.children().map(leaf).eq((0..columns.len()).map(Some))
            }
            _ => false,
        };
        if !in_order {
            return Err(PlanError::MalformedProgram {
                op: op.to_string(),
                operands: columns.len(),
            });
        }
        let mut inputs = columns.to_vec();
        inputs.extend(cands);
        self.columns(&inputs)?;
        Ok(self.push(op, inputs, ValueKind::Column))
    }

    /// Union of two sorted OID candidate lists.
    pub fn union_oids(&mut self, a: Var, b: Var) -> Result<Var, PlanError> {
        self.columns(&[a, b])?;
        Ok(self.push(PlanOp::UnionOids, vec![a, b], ValueKind::Column))
    }

    /// Left fetch join `values[oid]`.
    pub fn fetch(&mut self, values: Var, oids: Var) -> Result<Var, PlanError> {
        self.columns(&[values, oids])?;
        Ok(self.push(PlanOp::Fetch, vec![values, oids], ValueKind::Column))
    }

    fn binary(&mut self, op: PlanOp, a: Var, b: Var) -> Result<Var, PlanError> {
        self.columns(&[a, b])?;
        Ok(self.push(op, vec![a, b], ValueKind::Column))
    }

    fn unary(&mut self, op: PlanOp, a: Var) -> Result<Var, PlanError> {
        self.expect(a, ValueKind::Column)?;
        Ok(self.push(op, vec![a], ValueKind::Column))
    }

    /// FK/PK hash join; returns the aligned `(fk_oids, pk_oids)` registers.
    pub fn pkfk_join(&mut self, fk: Var, pk: Var) -> Result<(Var, Var), PlanError> {
        self.columns(&[fk, pk])?;
        let fk_oids = self.fresh(ValueKind::Column);
        let pk_oids = self.fresh(ValueKind::Column);
        self.nodes.push(PlanNode {
            op: PlanOp::PkFkJoin,
            inputs: vec![fk, pk],
            outputs: vec![fk_oids, pk_oids],
        });
        Ok((fk_oids, pk_oids))
    }

    /// Partitioned hybrid hash FK/PK join — the out-of-core form of
    /// [`PlanBuilder::pkfk_join`]. `ndv_hint` is the estimated distinct
    /// build-key count, which sizes the partitions skew-aware.
    pub fn pkfk_join_partitioned(
        &mut self,
        fk: Var,
        pk: Var,
        ndv_hint: usize,
    ) -> Result<(Var, Var), PlanError> {
        self.columns(&[fk, pk])?;
        let fk_oids = self.fresh(ValueKind::Column);
        let pk_oids = self.fresh(ValueKind::Column);
        self.nodes.push(PlanNode {
            op: PlanOp::PkFkJoinPartitioned { ndv_hint },
            inputs: vec![fk, pk],
            outputs: vec![fk_oids, pk_oids],
        });
        Ok((fk_oids, pk_oids))
    }

    /// Semi join (`EXISTS`).
    pub fn semi_join(&mut self, left: Var, right: Var) -> Result<Var, PlanError> {
        self.binary(PlanOp::SemiJoin, left, right)
    }

    /// Anti join (`NOT EXISTS`).
    pub fn anti_join(&mut self, left: Var, right: Var) -> Result<Var, PlanError> {
        self.binary(PlanOp::AntiJoin, left, right)
    }

    /// Positional join of `keys` against the `listed` rows of a table whose
    /// key column is dense (`key`; every row when `listed` is `None`).
    /// Returns the kept rows and, for [`DenseJoinKind::Inner`], the aligned
    /// list positions.
    pub fn dense_join(
        &mut self,
        kind: DenseJoinKind,
        keys: Var,
        listed: Option<Var>,
        key: DenseKey,
    ) -> Result<(Var, Option<Var>), PlanError> {
        let mut inputs = vec![keys];
        inputs.extend(listed);
        self.columns(&inputs)?;
        let rows = self.fresh(ValueKind::Column);
        let positions = (kind == DenseJoinKind::Inner).then(|| self.fresh(ValueKind::Column));
        let mut outputs = vec![rows];
        outputs.extend(positions);
        self.nodes.push(PlanNode { op: PlanOp::DenseJoin { kind, key }, inputs, outputs });
        Ok((rows, positions))
    }

    /// Multi-column grouping.
    pub fn group_by(&mut self, keys: &[Var]) -> Result<Var, PlanError> {
        if keys.is_empty() {
            return Err(PlanError::EmptyGroupBy);
        }
        self.columns(keys)?;
        Ok(self.push(PlanOp::GroupBy, keys.to_vec(), ValueKind::Group))
    }

    /// Representative row OIDs of a grouping (they carry the key values).
    pub fn group_reps(&mut self, group: Var) -> Result<Var, PlanError> {
        self.expect(group, ValueKind::Group)?;
        Ok(self.push(PlanOp::GroupReps, vec![group], ValueKind::Column))
    }

    /// Every aggregate in `aggs` over one grouping, as **one** node: returns
    /// one result register per aggregate, in order. Here each
    /// [`GroupedAgg`] names its value *register*; the node lists every
    /// distinct one once (`inputs[1..]`) and its aggregates refer to them by
    /// position, so `sum(x)` and `avg(x)` share the operand.
    pub fn grouped_aggs(&mut self, group: Var, aggs: &[GroupedAgg]) -> Result<Vec<Var>, PlanError> {
        self.expect(group, ValueKind::Group)?;
        let mut inputs = vec![group];
        let mut funcs = Vec::with_capacity(aggs.len());
        for agg in aggs {
            let mut operand = |values: Var| -> Result<usize, PlanError> {
                self.expect(values, ValueKind::Column)?;
                let found = inputs[1..].iter().position(|input| *input == values);
                Ok(found.unwrap_or_else(|| {
                    inputs.push(values);
                    inputs.len() - 2
                }))
            };
            funcs.push(match *agg {
                GroupedAgg::Sum(values) => GroupedAgg::Sum(operand(values)?),
                GroupedAgg::Min(values) => GroupedAgg::Min(operand(values)?),
                GroupedAgg::Max(values) => GroupedAgg::Max(operand(values)?),
                GroupedAgg::Avg(values) => GroupedAgg::Avg(operand(values)?),
                GroupedAgg::Count => GroupedAgg::Count,
            });
        }
        let outputs: Vec<Var> = aggs.iter().map(|_| self.fresh(ValueKind::Column)).collect();
        self.nodes.push(PlanNode {
            op: PlanOp::GroupedAggs { funcs },
            inputs,
            outputs: outputs.clone(),
        });
        Ok(outputs)
    }

    /// [`PlanBuilder::grouped_aggs`] with one aggregate.
    fn grouped_agg(&mut self, group: Var, agg: GroupedAgg) -> Result<Var, PlanError> {
        Ok(self.grouped_aggs(group, &[agg])?[0])
    }

    /// Per-group sums.
    pub fn grouped_sum_f32(&mut self, values: Var, group: Var) -> Result<Var, PlanError> {
        self.grouped_agg(group, GroupedAgg::Sum(values))
    }

    /// Per-group minima.
    pub fn grouped_min_f32(&mut self, values: Var, group: Var) -> Result<Var, PlanError> {
        self.grouped_agg(group, GroupedAgg::Min(values))
    }

    /// Per-group maxima.
    pub fn grouped_max_f32(&mut self, values: Var, group: Var) -> Result<Var, PlanError> {
        self.grouped_agg(group, GroupedAgg::Max(values))
    }

    /// Per-group averages.
    pub fn grouped_avg_f32(&mut self, values: Var, group: Var) -> Result<Var, PlanError> {
        self.grouped_agg(group, GroupedAgg::Avg(values))
    }

    /// Per-group counts (as floats).
    pub fn grouped_count(&mut self, group: Var) -> Result<Var, PlanError> {
        self.grouped_agg(group, GroupedAgg::Count)
    }

    /// Sort permutation of an integer column.
    pub fn sort_order_i32(&mut self, col: Var, descending: bool) -> Result<Var, PlanError> {
        self.unary(PlanOp::SortOrderI32 { descending }, col)
    }

    /// Sort permutation of a float column.
    pub fn sort_order_f32(&mut self, col: Var, descending: bool) -> Result<Var, PlanError> {
        self.unary(PlanOp::SortOrderF32 { descending }, col)
    }

    /// Ungrouped sum as a deferred one-element scalar.
    pub fn sum_f32(&mut self, values: Var) -> Result<Var, PlanError> {
        self.expect(values, ValueKind::Column)?;
        Ok(self.push(PlanOp::SumF32, vec![values], ValueKind::Scalar))
    }

    /// Inserts an explicit `sync` boundary on `vars`.
    pub fn sync(&mut self, vars: &[Var]) -> Result<(), PlanError> {
        for var in vars {
            if !self.kinds.contains_key(var) {
                return Err(PlanError::UndefinedVar { var: *var });
            }
        }
        self.nodes.push(PlanNode { op: PlanOp::Sync, inputs: vars.to_vec(), outputs: Vec::new() });
        Ok(())
    }

    /// Declares `vars` as (the next) plan results, in order. Results must be
    /// columns or scalars.
    pub fn result(&mut self, vars: &[Var]) -> Result<(), PlanError> {
        for var in vars {
            match self.kinds.get(var) {
                None => return Err(PlanError::UndefinedVar { var: *var }),
                Some(ValueKind::Group) => {
                    return Err(PlanError::KindMismatch {
                        var: *var,
                        expected: ValueKind::Column,
                        found: ValueKind::Group,
                    })
                }
                Some(_) => {}
            }
        }
        self.nodes.push(PlanNode {
            op: PlanOp::Result,
            inputs: vars.to_vec(),
            outputs: Vec::new(),
        });
        Ok(())
    }

    /// Appends a raw node, checking definitions: every input must already
    /// be defined and every output must be fresh — a repeated output is
    /// rejected with [`PlanError::DuplicateDefinition`] (the SSA methods
    /// above cannot produce one, but raw appends — plan tools, compilers
    /// building nodes directly — can). Output registers take the
    /// operator's signature kinds and advance the builder's register
    /// counter past them. Kind and arity validation beyond the definition
    /// discipline is [`crate::analyze::verify`]'s job.
    pub fn push_node(
        &mut self,
        op: PlanOp,
        inputs: Vec<Var>,
        outputs: Vec<Var>,
    ) -> Result<(), PlanError> {
        let node = PlanNode { op, inputs, outputs };
        let kinds = crate::analyze::admit_raw_node(&node, &self.kinds)?;
        for (position, out) in node.outputs.iter().enumerate() {
            self.kinds.insert(*out, kinds.get(position).copied().unwrap_or(ValueKind::Column));
            self.next_var = self.next_var.max(*out + 1);
        }
        self.nodes.push(node);
        Ok(())
    }

    /// Finalises the plan, computing last-use positions for register
    /// reclamation.
    pub fn finish(self) -> Plan {
        let mut last_use = HashMap::new();
        for (index, node) in self.nodes.iter().enumerate() {
            for var in &node.inputs {
                last_use.insert(*var, index);
            }
        }
        Plan { nodes: self.nodes, last_use, source: None }
    }
}

/// A materialised result value (host-side), typed by what the register held.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// A float scalar (from ungrouped aggregation).
    Scalar(f32),
    /// A materialised integer column.
    IntColumn(Vec<i32>),
    /// A materialised float column.
    FloatColumn(Vec<f32>),
    /// A materialised OID column.
    OidColumn(Vec<u32>),
}

/// Runtime element type of a column register, used to materialise results
/// with the right readback (`to_i32` / `to_f32` / `to_oids`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColKind {
    I32,
    F32,
    Oid,
}

impl ColKind {
    /// What a map writes ([`Map::yields_i32`]).
    fn of_map(map: &Map) -> ColKind {
        if map.yields_i32() {
            ColKind::I32
        } else {
            ColKind::F32
        }
    }
}

#[derive(Clone)]
enum Slot<C> {
    Column(C, ColKind),
    Scalar(C),
    Group(GroupHandle<C>),
}

/// The live registers of a plan run — or, inside [`run_members`], of one
/// pipeline's member scope.
pub struct Registers<C> {
    slots: HashMap<Var, Slot<C>>,
}

impl<C: Clone> Registers<C> {
    fn new() -> Registers<C> {
        Registers { slots: HashMap::new() }
    }

    fn typed_column(&self, var: Var) -> Result<(C, ColKind), PlanError> {
        let found = match self.slots.get(&var) {
            Some(Slot::Column(c, kind)) => return Ok((c.clone(), *kind)),
            Some(Slot::Scalar(_)) => ValueKind::Scalar,
            Some(Slot::Group(_)) => ValueKind::Group,
            None => return Err(PlanError::UndefinedVar { var }),
        };
        Err(PlanError::KindMismatch { var, expected: ValueKind::Column, found })
    }

    /// The column in register `var`.
    pub fn column(&self, var: Var) -> Result<C, PlanError> {
        Ok(self.typed_column(var)?.0)
    }

    /// The grouping in register `var`.
    pub fn group(&self, var: Var) -> Result<&GroupHandle<C>, PlanError> {
        match self.slots.get(&var) {
            Some(Slot::Group(g)) => Ok(g),
            Some(_) => Err(PlanError::KindMismatch {
                var,
                expected: ValueKind::Group,
                found: ValueKind::Column,
            }),
            None => Err(PlanError::UndefinedVar { var }),
        }
    }

    /// The candidate list of a selection node: the operand after its
    /// `columns` column operand(s), when present.
    fn cands(&self, node: &PlanNode, columns: usize) -> Result<Option<C>, PlanError> {
        node.inputs.get(columns).map(|var| self.column(*var)).transpose()
    }
}

/// Outcome of one [`PlanRun::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One node executed; more remain.
    Progressed,
    /// Every node has executed.
    Done,
}

/// Counters of the unified recovery protocol (see the module docs for the
/// fault class → handler → counter contract). Surfaced per run by
/// [`PlanRun::recovery_stats`], aggregated per session
/// (`Session::recovery_stats`) and per scheduled stream
/// (`Scheduler::run_with_fallback`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Node retries after a transient fault.
    pub retries: u64,
    /// Deterministic backoff steps slept before those retries (the first
    /// retry of a node is immediate, so this lags `retries`).
    pub backoff_steps: u64,
    /// Node restarts after an out-of-device-memory fault (reclaim + re-run).
    pub oom_restarts: u64,
    /// Whole-query failovers onto a fallback backend after device loss.
    pub failovers: u64,
    /// Plans that exhausted the retry budget and were surfaced as typed
    /// [`PlanError::Faulted`] errors while the rest of the stream proceeded.
    pub quarantines: u64,
}

impl RecoveryStats {
    /// Projects these counters into a [`MetricsRegistry`] under
    /// `<prefix>.retries`, `<prefix>.backoff_steps`, `<prefix>.oom_restarts`,
    /// `<prefix>.failovers` and `<prefix>.quarantines`.
    pub fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_counter(&format!("{prefix}.retries"), self.retries);
        registry.set_counter(&format!("{prefix}.backoff_steps"), self.backoff_steps);
        registry.set_counter(&format!("{prefix}.oom_restarts"), self.oom_restarts);
        registry.set_counter(&format!("{prefix}.failovers"), self.failovers);
        registry.set_counter(&format!("{prefix}.quarantines"), self.quarantines);
    }

    /// Adds another set of counters into this one.
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.retries += other.retries;
        self.backoff_steps += other.backoff_steps;
        self.oom_restarts += other.oom_restarts;
        self.failovers += other.failovers;
        self.quarantines += other.quarantines;
    }

    /// Total recovery actions taken.
    pub fn total(&self) -> u64 {
        self.retries + self.oom_restarts + self.failovers + self.quarantines
    }
}

/// One observable decision of the recovery protocol, in the order it was
/// taken. The trace is deterministic: the same plan under the same fault
/// schedule records the same events (the property the recovery-determinism
/// tests pin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A node was retried after a transient fault.
    TransientRetry {
        /// Node index within the plan.
        node: usize,
        /// The site the fault fired at.
        site: FaultSite,
        /// The device's fault-plan operation index at firing time.
        op: u64,
        /// 1-based attempt count for this node (attempt 1 failed → retry).
        attempt: u64,
        /// Backoff slept before the retry (0 for the immediate first retry).
        backoff_ns: u64,
    },
    /// A node was restarted after an OOM, following a reclaim pass.
    OomRestart {
        /// Node index within the plan.
        node: usize,
        /// Bytes the failing allocation asked for.
        requested: usize,
    },
    /// The device was lost; the plan failed with [`PlanError::DeviceLost`].
    DeviceLost {
        /// Node index the loss surfaced at.
        node: usize,
    },
    /// The query failed over onto a fallback backend (session level).
    Failover {
        /// Name of the backend the query was re-run on.
        to: String,
    },
}

/// The EXPLAIN ANALYZE record of one executed plan node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeProfile {
    /// Node index within the plan (matches the `explain()` listing).
    pub index: usize,
    /// Rendered operator (with its literal parameters).
    pub op: String,
    /// Wall-clock nanoseconds from the node's first attempt to its
    /// successful completion, recovery loop included.
    pub host_ns: u64,
    /// Output rows the node produced (group count for groupings, 1 for
    /// scalars, 0 for `sync`/`result` nodes).
    pub rows: u64,
    /// Execution attempts (1 = clean first run).
    pub attempts: u64,
    /// OOM restarts the node took (reclaim + re-run).
    pub restarts: u64,
    /// Transient-fault retries the node took.
    pub retries: u64,
    /// Device activity attributed to this node: the backend's counter
    /// delta across the node (kernels, transfers, flushes, spill bytes).
    pub marker: ProfileMarker,
}

/// The EXPLAIN ANALYZE profile of one completed [`PlanRun`].
///
/// **Conservation invariant (epsilon = 0):** `total_host_ns` is the sum of
/// the per-step wall times, each step splits exactly into its node's
/// `host_ns` plus a remainder booked into `overhead_ns` (register
/// reclamation, bookkeeping), so
/// `total_host_ns == nodes_host_ns() + overhead_ns` holds *exactly* — the
/// attribution is a partition of the measured total, not a re-measurement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanProfile {
    /// Configuration name the plan ran on.
    pub backend: String,
    /// Per-node records, in execution order.
    pub nodes: Vec<NodeProfile>,
    /// Total wall-clock nanoseconds across every executed step.
    pub total_host_ns: u64,
    /// Wall time not attributed to any node (see the conservation
    /// invariant above).
    pub overhead_ns: u64,
    /// Recovery counters of the profiled run.
    pub recovery: RecoveryStats,
}

impl PlanProfile {
    /// Sum of the per-node wall times.
    pub fn nodes_host_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.host_ns).sum()
    }

    /// Sum of the per-node output rows.
    pub fn total_rows(&self) -> u64 {
        self.nodes.iter().map(|n| n.rows).sum()
    }

    /// Counter-wise sum of every node's attributed device activity.
    pub fn total_marker(&self) -> ProfileMarker {
        let mut total = ProfileMarker::default();
        for node in &self.nodes {
            total.kernels += node.marker.kernels;
            total.transfers += node.marker.transfers;
            total.bytes_to_device += node.marker.bytes_to_device;
            total.bytes_from_device += node.marker.bytes_from_device;
            total.modeled_ns += node.marker.modeled_ns;
            total.flushes += node.marker.flushes;
            total.spills += node.marker.spills;
            total.spilled_bytes += node.marker.spilled_bytes;
        }
        total
    }

    /// Renders the annotated plan listing — the `explain()` physical-plan
    /// tree, each node carrying its measured time, rows, kernel/transfer
    /// counts and (when recovery or spilling fired) the restart/retry/spill
    /// attribution.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = format!(
            "=== explain analyze: {} ({} nodes, total {:.3} ms = nodes {:.3} ms + overhead {:.3} ms) ===\n",
            self.backend,
            self.nodes.len(),
            ms(self.total_host_ns),
            ms(self.nodes_host_ns()),
            ms(self.overhead_ns),
        );
        for node in &self.nodes {
            out.push_str(&format!("  {:3}: {}\n", node.index, node.op));
            out.push_str(&format!(
                "       time {:.3} ms, rows {}, kernels {}, transfers {} ({} B), flushes {}\n",
                ms(node.host_ns),
                node.rows,
                node.marker.kernels,
                node.marker.transfers,
                node.marker.transfer_bytes(),
                node.marker.flushes,
            ));
            if node.restarts > 0 || node.retries > 0 || node.marker.spills > 0 {
                out.push_str(&format!(
                    "       recovery: {} restart(s), {} retr{}, {} spill(s) ({} B offloaded)\n",
                    node.restarts,
                    node.retries,
                    if node.retries == 1 { "y" } else { "ies" },
                    node.marker.spills,
                    node.marker.spilled_bytes,
                ));
            }
        }
        out
    }
}

/// Accumulating profile state of a [`PlanRun`] with profiling enabled.
struct ProfileState {
    nodes: Vec<NodeProfile>,
    total_ns: u64,
    overhead_ns: u64,
}

/// A resumable execution of one [`Plan`] against one [`Backend`].
///
/// The run owns the plan's live registers; values are dropped at their last
/// use so their device buffers recycle while later nodes still execute.
pub struct PlanRun<'a, B: Backend> {
    plan: &'a Plan,
    backend: &'a B,
    catalog: &'a Catalog,
    registers: Registers<B::Column>,
    results: Vec<QueryValue>,
    pc: usize,
    restarts: u64,
    stats: RecoveryStats,
    trace: Vec<RecoveryEvent>,
    /// Node lifecycle event emitter (armed by [`PlanRun::trace_handle`]).
    node_trace: TraceHandle,
    /// EXPLAIN ANALYZE state, when enabled.
    profile: Option<ProfileState>,
}

impl<'a, B: Backend> PlanRun<'a, B> {
    /// Prepares a run; nothing executes until [`PlanRun::step`].
    pub fn new(plan: &'a Plan, backend: &'a B, catalog: &'a Catalog) -> PlanRun<'a, B> {
        PlanRun {
            plan,
            backend,
            catalog,
            registers: Registers::new(),
            results: Vec::new(),
            pc: 0,
            restarts: 0,
            stats: RecoveryStats::default(),
            trace: Vec::new(),
            node_trace: TraceHandle::new(),
            profile: None,
        }
    }

    /// Turns on EXPLAIN ANALYZE for this run: every node records wall time,
    /// output rows, attempts and its device-activity delta
    /// ([`NodeProfile`]). Profiling syncs the backend after every node so
    /// queue counters attribute to the node that enqueued the work — an
    /// **observer effect**: a lazy pipeline that would flush once now
    /// flushes per node. Timings are honest, flush counts are not the
    /// unprofiled run's.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(ProfileState { nodes: Vec::new(), total_ns: 0, overhead_ns: 0 });
    }

    /// The run's node-lifecycle trace attachment point: with a sink
    /// attached, every node start/complete (and each recovery restart or
    /// retry) emits a [`TraceEventKind::Node`] event.
    pub fn trace_handle(&self) -> &TraceHandle {
        &self.node_trace
    }

    /// The EXPLAIN ANALYZE profile accumulated so far, consuming the
    /// profiling state. `None` unless [`PlanRun::enable_profiling`] was
    /// called.
    pub fn take_profile(&mut self) -> Option<PlanProfile> {
        self.profile.take().map(|state| PlanProfile {
            backend: self.backend.name().to_string(),
            nodes: state.nodes,
            total_host_ns: state.total_ns,
            overhead_ns: state.overhead_ns,
            recovery: self.stats,
        })
    }

    /// Number of nodes executed so far.
    pub fn completed_nodes(&self) -> usize {
        self.pc
    }

    /// Number of node restarts the OOM-restart protocol performed.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Counters of every recovery action this run took.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// The ordered recovery decisions this run took (deterministic for a
    /// given plan and fault schedule).
    pub fn recovery_trace(&self) -> &[RecoveryEvent] {
        &self.trace
    }

    /// Whether every node has executed.
    pub fn is_done(&self) -> bool {
        self.pc >= self.plan.len()
    }

    /// The materialised results so far (complete once [`PlanRun::is_done`]).
    pub fn into_results(self) -> Vec<QueryValue> {
        self.results
    }

    /// Restart attempts per node before a recoverable fault becomes a plan
    /// error — the **shared budget** of the unified recovery protocol: OOM
    /// restarts and transient retries of one node draw from the same
    /// count. A multi-allocation node can legitimately need several
    /// progressive restarts (each attempt reaches further once the
    /// previous attempt's pending work is flushed out); the limit only
    /// bounds the degenerate cases where reclaim keeps reporting trivial
    /// progress or a "transient" fault never stops firing.
    const RESTART_LIMIT: usize = 6;

    /// Deterministic backoff before the n-th retry of a node: the first
    /// retry is immediate, later ones sleep an exponentially growing step
    /// (1 µs, 2 µs, …) capped at 64 µs. The *schedule* is a pure function
    /// of the attempt count, so recovery traces are reproducible; the cap
    /// keeps worst-case added latency per node under half a millisecond.
    fn backoff(attempt: usize) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let exp = (attempt - 2).min(6) as u32;
        Duration::from_micros(1 << exp).min(Duration::from_micros(64))
    }

    /// Drops everything a failed node attempt produced, so the re-run (or
    /// the failing plan) starts from a clean slate — the shared restart
    /// step of every recovery trigger.
    fn discard_attempt(&mut self, node: &PlanNode, results_before: usize) {
        for out in &node.outputs {
            self.registers.slots.remove(out);
        }
        self.results.truncate(results_before);
    }

    /// Executes exactly one node. Errors leave the run unable to proceed —
    /// except for the device failures the **unified recovery protocol**
    /// handles (see the module docs for the full lifecycle contract):
    /// out-of-device-memory restarts the node after a reclaim pass
    /// ([`Backend::reclaim_memory`]), a transient fault retries it after a
    /// deterministic backoff step, and both draw from one shared restart
    /// budget before surfacing as [`PlanError::OutOfDeviceMemory`] /
    /// [`PlanError::Faulted`]. Device loss is not retryable: the run fails
    /// immediately with [`PlanError::DeviceLost`] for the session or
    /// scheduler to fail over.
    pub fn step(&mut self) -> Result<StepOutcome, PlanError> {
        if self.pc >= self.plan.len() {
            return Ok(StepOutcome::Done);
        }
        // Copy the plan reference out of `self` ('a outlives this call), so
        // the node borrow coexists with the `&mut self` execution below.
        let plan = self.plan;
        let node = &plan.nodes()[self.pc];
        let results_before = self.results.len();
        let profiling = self.profile.is_some();
        // One timestamp serves both the profile and the trace; taken only
        // when either observer is live, so the unobserved path stays free
        // of clock reads.
        let step_start = (profiling || self.node_trace.armed()).then(Instant::now);
        let marker_before = profiling.then(|| self.backend.profile_marker());
        let pc = self.pc as u64;
        self.node_trace.emit(|| TraceEventKind::Node {
            pc,
            op: node.op.name().to_string(),
            action: NodeAction::Start,
            rows: 0,
            host_ns: 0,
        });
        let mut attempts = 0usize;
        let mut node_restarts = 0u64;
        let mut node_retries = 0u64;
        let rows = loop {
            let attempt = self.exec_node(node).and_then(|()| {
                if !profiling {
                    return Ok(0);
                }
                // Flush the node's enqueued work so the backend's counters
                // (and the row resolve below) attribute to *this* node — the
                // profiler's documented observer effect. Faults returned
                // here re-enter the recovery loop like any node fault.
                self.backend.sync()?;
                self.profiled_rows(node)
            });
            match attempt {
                Ok(rows) => break rows,
                Err(PlanError::Device(KernelError::OutOfDeviceMemory { requested, available })) => {
                    self.discard_attempt(node, results_before);
                    attempts += 1;
                    let progressed = self.backend.reclaim_memory();
                    if attempts > Self::RESTART_LIMIT || !progressed {
                        return Err(PlanError::OutOfDeviceMemory { requested, available });
                    }
                    self.restarts += 1;
                    self.stats.oom_restarts += 1;
                    node_restarts += 1;
                    self.trace.push(RecoveryEvent::OomRestart { node: self.pc, requested });
                    self.node_trace.emit(|| TraceEventKind::Node {
                        pc,
                        op: node.op.name().to_string(),
                        action: NodeAction::Restart,
                        rows: 0,
                        host_ns: 0,
                    });
                }
                Err(PlanError::Device(KernelError::TransientFault { site, op })) => {
                    self.discard_attempt(node, results_before);
                    attempts += 1;
                    if attempts > Self::RESTART_LIMIT {
                        return Err(PlanError::Faulted { site, op, attempts: attempts as u64 });
                    }
                    let backoff = Self::backoff(attempts);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        self.stats.backoff_steps += 1;
                    }
                    self.stats.retries += 1;
                    node_retries += 1;
                    self.trace.push(RecoveryEvent::TransientRetry {
                        node: self.pc,
                        site,
                        op,
                        attempt: attempts as u64,
                        backoff_ns: backoff.as_nanos() as u64,
                    });
                    self.node_trace.emit(|| TraceEventKind::Node {
                        pc,
                        op: node.op.name().to_string(),
                        action: NodeAction::Retry,
                        rows: 0,
                        host_ns: 0,
                    });
                }
                Err(PlanError::Device(KernelError::DeviceLost)) => {
                    self.discard_attempt(node, results_before);
                    self.trace.push(RecoveryEvent::DeviceLost { node: self.pc });
                    return Err(PlanError::DeviceLost);
                }
                Err(other) => return Err(other),
            }
        };
        let node_ns = step_start.map(|start| start.elapsed().as_nanos() as u64).unwrap_or(0);
        self.node_trace.emit(|| TraceEventKind::Node {
            pc,
            op: node.op.name().to_string(),
            action: NodeAction::Complete,
            rows,
            host_ns: node_ns,
        });
        if let Some(before) = marker_before {
            let marker = self.backend.profile_marker().delta(&before);
            let record = NodeProfile {
                index: self.pc,
                op: node.op.to_string(),
                host_ns: node_ns,
                rows,
                attempts: attempts as u64 + 1,
                restarts: node_restarts,
                retries: node_retries,
                marker,
            };
            if let Some(profile) = self.profile.as_mut() {
                profile.nodes.push(record);
            }
        }
        // Register reclamation: values read for the last time by this node
        // are dead, and outputs no later node ever reads (a discarded join
        // side, say) are dead on arrival — dropping either returns its
        // buffers to the recycle pool once pending queue operations
        // complete.
        for var in &node.inputs {
            if self.plan.last_use(*var) == Some(self.pc) {
                self.registers.slots.remove(var);
            }
        }
        for var in &node.outputs {
            if self.plan.last_use(*var).is_none() {
                self.registers.slots.remove(var);
            }
        }
        if let (Some(profile), Some(start)) = (self.profile.as_mut(), step_start) {
            // Partition the step's wall time: the node's share was measured
            // above, the remainder (reclamation, bookkeeping) books into
            // `overhead_ns` — this is what makes the conservation invariant
            // exact (see [`PlanProfile`]).
            let step_ns = start.elapsed().as_nanos() as u64;
            profile.total_ns += step_ns;
            profile.overhead_ns += step_ns.saturating_sub(node_ns);
        }
        self.pc += 1;
        if self.pc >= self.plan.len() {
            Ok(StepOutcome::Done)
        } else {
            Ok(StepOutcome::Progressed)
        }
    }

    /// Output cardinality of a just-executed node, for EXPLAIN ANALYZE: the
    /// first output register's length (a resolved read — the profiling sync
    /// has already drained the queue), group count for groupings, 1 for
    /// scalars, 0 for output-less nodes (`sync`, `result`).
    fn profiled_rows(&self, node: &PlanNode) -> Result<u64, PlanError> {
        Ok(match node.outputs.first().and_then(|var| self.registers.slots.get(var)) {
            Some(Slot::Column(c, _)) => self.backend.len(c)? as u64,
            Some(Slot::Scalar(_)) => 1,
            Some(Slot::Group(g)) => g.num_groups as u64,
            None => 0,
        })
    }

    /// Runs one node's operator against the backend (no register
    /// reclamation, no program-counter advance — [`PlanRun::step`] owns
    /// those, so a restarted node re-executes this body alone). `bind` and
    /// `result` touch the catalog and the result list; everything else is
    /// [`exec_op`].
    fn exec_node(&mut self, node: &PlanNode) -> Result<(), PlanError> {
        let b = self.backend;
        match &node.op {
            PlanOp::Bind { table, column } => {
                let bat = self.catalog.column(table, column).ok_or_else(|| {
                    PlanError::UnknownColumn { table: table.clone(), column: column.clone() }
                })?;
                let kind = if bat.as_f32().is_some() {
                    ColKind::F32
                } else if bat.as_oid().is_some() {
                    ColKind::Oid
                } else {
                    ColKind::I32
                };
                self.registers.slots.insert(node.outputs[0], Slot::Column(b.bat(bat)?, kind));
            }
            PlanOp::Result => {
                for var in &node.inputs {
                    let value = match self.registers.slots.get(var) {
                        Some(Slot::Scalar(c)) => {
                            let scalars = b.to_f32(c)?;
                            QueryValue::Scalar(scalars.first().copied().unwrap_or(0.0))
                        }
                        Some(Slot::Column(c, ColKind::I32)) => QueryValue::IntColumn(b.to_i32(c)?),
                        Some(Slot::Column(c, ColKind::F32)) => {
                            QueryValue::FloatColumn(b.to_f32(c)?)
                        }
                        Some(Slot::Column(c, ColKind::Oid)) => QueryValue::OidColumn(b.to_oids(c)?),
                        Some(Slot::Group(_)) => {
                            return Err(PlanError::KindMismatch {
                                var: *var,
                                expected: ValueKind::Column,
                                found: ValueKind::Group,
                            })
                        }
                        None => return Err(PlanError::UndefinedVar { var: *var }),
                    };
                    self.results.push(value);
                }
            }
            _ => exec_op(b, node, &mut self.registers)?,
        }
        Ok(())
    }

    /// Runs every remaining node.
    pub fn run_to_completion(&mut self) -> Result<(), PlanError> {
        while !matches!(self.step()?, StepOutcome::Done) {}
        Ok(())
    }
}

/// Runs the operator of one node — anything but `bind` and `result` —
/// against the backend, reading and writing `regs`.
fn exec_op<B: Backend + ?Sized>(
    b: &B,
    node: &PlanNode,
    regs: &mut Registers<B::Column>,
) -> Result<(), PlanError> {
    let column = |regs: &Registers<B::Column>, index: usize| regs.column(node.inputs[index]);
    // The node's first `count` operands, as columns.
    let operands = |regs: &Registers<B::Column>, count: usize| -> Result<Vec<_>, PlanError> {
        node.inputs[..count].iter().map(|var| regs.column(*var)).collect()
    };
    let out = match &node.op {
        PlanOp::Select { pred } => {
            let columns = node.program_operands()?;
            let cands = regs.cands(node, columns)?;
            let columns = operands(regs, columns)?;
            let out = b.select(&columns.iter().collect::<Vec<_>>(), pred, cands.as_ref())?;
            Slot::Column(out, ColKind::Oid)
        }
        PlanOp::UnionOids => {
            Slot::Column(b.union_oids(&column(regs, 0)?, &column(regs, 1)?)?, ColKind::Oid)
        }
        PlanOp::Fetch => {
            let (values, kind) = regs.typed_column(node.inputs[0])?;
            Slot::Column(b.fetch(&values, &column(regs, 1)?)?, kind)
        }
        PlanOp::Map { map } => {
            let columns = operands(regs, node.program_operands()?)?;
            Slot::Column(b.map(&columns.iter().collect::<Vec<_>>(), map)?, ColKind::of_map(map))
        }
        PlanOp::PkFkJoin | PlanOp::PkFkJoinPartitioned { .. } => {
            let (fk, pk) = (column(regs, 0)?, column(regs, 1)?);
            let (fk_oids, pk_oids) = match &node.op {
                PlanOp::PkFkJoinPartitioned { ndv_hint } => {
                    b.pkfk_join_partitioned(&fk, &pk, *ndv_hint)?
                }
                _ => b.pkfk_join(&fk, &pk)?,
            };
            regs.slots.insert(node.outputs[0], Slot::Column(fk_oids, ColKind::Oid));
            regs.slots.insert(node.outputs[1], Slot::Column(pk_oids, ColKind::Oid));
            return Ok(());
        }
        PlanOp::SemiJoin => {
            Slot::Column(b.semi_join(&column(regs, 0)?, &column(regs, 1)?)?, ColKind::Oid)
        }
        PlanOp::AntiJoin => {
            Slot::Column(b.anti_join(&column(regs, 0)?, &column(regs, 1)?)?, ColKind::Oid)
        }
        PlanOp::DenseJoin { kind, key } => {
            let listed = regs.cands(node, 1)?;
            let (rows, positions) =
                b.dense_join(&column(regs, 0)?, listed.as_ref(), *key, *kind)?;
            for (out, column) in node.outputs.iter().zip(std::iter::once(rows).chain(positions)) {
                regs.slots.insert(*out, Slot::Column(column, ColKind::Oid));
            }
            return Ok(());
        }
        PlanOp::GroupBy => {
            let keys: Vec<B::Column> =
                node.inputs.iter().map(|var| regs.column(*var)).collect::<Result<_, _>>()?;
            Slot::Group(b.group_by(&keys.iter().collect::<Vec<_>>())?)
        }
        PlanOp::GroupReps => {
            Slot::Column(regs.group(node.inputs[0])?.representatives.clone(), ColKind::Oid)
        }
        PlanOp::GroupedAggs { funcs } => {
            let values: Vec<B::Column> =
                node.inputs[1..].iter().map(|var| regs.column(*var)).collect::<Result<_, _>>()?;
            let refs: Vec<&B::Column> = values.iter().collect();
            let columns = b.grouped_aggs(regs.group(node.inputs[0])?, &refs, funcs)?;
            for (out, column) in node.outputs.iter().zip(columns) {
                regs.slots.insert(*out, Slot::Column(column, ColKind::F32));
            }
            return Ok(());
        }
        PlanOp::SortOrderI32 { descending } => {
            Slot::Column(b.sort_order_i32(&column(regs, 0)?, *descending)?, ColKind::Oid)
        }
        PlanOp::SortOrderF32 { descending } => {
            Slot::Column(b.sort_order_f32(&column(regs, 0)?, *descending)?, ColKind::Oid)
        }
        PlanOp::SumF32 => Slot::Scalar(b.sum_scalar_f32(&column(regs, 0)?)?),
        PlanOp::Pipeline { members } => {
            for (out, column) in node.outputs.iter().zip(b.pipeline(node, regs)?) {
                let slot = match member_kind(members, regs, *out)? {
                    Some(kind) => Slot::Column(column, kind),
                    None => Slot::Scalar(column),
                };
                regs.slots.insert(*out, slot);
            }
            return Ok(());
        }
        PlanOp::Sync => {
            if let Some(var) = node.inputs.iter().find(|var| !regs.slots.contains_key(var)) {
                return Err(PlanError::UndefinedVar { var: *var });
            }
            return b.sync();
        }
        PlanOp::Bind { .. } | PlanOp::Result => {
            unreachable!("`bind` and `result` run in `PlanRun::exec_node`")
        }
    };
    regs.slots.insert(node.outputs[0], out);
    Ok(())
}

/// The kind of the value `var` a member of a pipeline writes — a fetch's is
/// its source's, traced back to the region's inputs in `regs` — or `None`
/// for a scalar.
fn member_kind<C: Clone>(
    members: &[PlanNode],
    regs: &Registers<C>,
    var: Var,
) -> Result<Option<ColKind>, PlanError> {
    let Some(member) = members.iter().find(|member| member.outputs.contains(&var)) else {
        return Ok(Some(regs.typed_column(var)?.1));
    };
    Ok(Some(match &member.op {
        PlanOp::SumF32 => return Ok(None),
        PlanOp::Fetch => return member_kind(members, regs, member.inputs[0]),
        PlanOp::Select { .. } | PlanOp::GroupReps => ColKind::Oid,
        PlanOp::Map { map } => ColKind::of_map(map),
        _ => ColKind::F32,
    }))
}

/// The default body of [`Backend::pipeline`]: runs the members of the
/// `pipeline` node `node` one after another in a scope of their own, seeded
/// with the node's inputs from `outer`, freeing every member's value at its
/// last use as the unfused plan did — operator for operator what ran before
/// the region was fused. Returns the node's outputs, in order.
pub fn run_members<B: Backend + ?Sized>(
    b: &B,
    node: &PlanNode,
    outer: &Registers<B::Column>,
) -> Result<Vec<B::Column>, PlanError> {
    let members = node.members();
    let mut scope = Registers::new();
    for var in &node.inputs {
        let slot = outer.slots.get(var).ok_or(PlanError::UndefinedVar { var: *var })?;
        scope.slots.insert(*var, slot.clone());
    }
    for (index, member) in members.iter().enumerate() {
        exec_op(b, member, &mut scope)?;
        let read_later = |var: &Var| members[index + 1..].iter().any(|m| m.inputs.contains(var));
        for var in member.inputs.iter().filter(|var| !read_later(var)) {
            scope.slots.remove(var);
        }
    }
    node.outputs
        .iter()
        .map(|out| match scope.slots.remove(out) {
            Some(Slot::Column(column, _) | Slot::Scalar(column)) => Ok(column),
            _ => Err(PlanError::UndefinedVar { var: *out }),
        })
        .collect()
}

/// Convenience: builds a run, executes it fully and returns the
/// materialised results.
pub fn execute_plan<B: Backend>(
    plan: &Plan,
    backend: &B,
    catalog: &Catalog,
) -> Result<Vec<QueryValue>, PlanError> {
    let mut run = PlanRun::new(plan, backend, catalog);
    run.run_to_completion()?;
    Ok(run.into_results())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{MonetBackend, OcelotBackend};
    use ocelot_storage::{Bat, Catalog, Table};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let table = Table::new("t")
            .with_column("k", Bat::from_i32("k", (0..2_000).map(|i| i % 40).collect()).into_ref())
            .with_column(
                "v",
                Bat::from_f32("v", (0..2_000).map(|i| i as f32 * 0.5).collect()).into_ref(),
            )
            .with_column("g", Bat::from_i32("g", (0..2_000).map(|i| i % 5).collect()).into_ref())
            .with_column("id", Bat::from_i32("id", (0..2_000).collect()).with_key(true).into_ref());
        catalog.add_table(table);
        catalog
    }

    /// select k in [5, 20] → group v by g → per-group sums + reps.
    fn grouped_plan() -> Plan {
        let mut p = PlanBuilder::new();
        let k = p.bind("t", "k");
        let sel = p.select(Pred::RangeI32 { col: 0, low: 5, high: 20 }, &[k], None).unwrap();
        let v = p.bind("t", "v");
        let v_sel = p.fetch(v, sel).unwrap();
        let g = p.bind("t", "g");
        let g_sel = p.fetch(g, sel).unwrap();
        let group = p.group_by(&[g_sel]).unwrap();
        let sums = p.grouped_sum_f32(v_sel, group).unwrap();
        let reps = p.group_reps(group).unwrap();
        let keys = p.fetch(g_sel, reps).unwrap();
        p.result(&[keys, sums]).unwrap();
        p.finish()
    }

    #[test]
    fn builder_rejects_kind_misuse() {
        let mut p = PlanBuilder::new();
        let v = p.bind("t", "v");
        let total = p.sum_f32(v).unwrap();
        let err = p.map(Map::Mul(Map::leaf(0), Map::leaf(1)), &[total, v]).unwrap_err();
        assert_eq!(
            err,
            PlanError::KindMismatch {
                var: total,
                expected: ValueKind::Column,
                found: ValueKind::Scalar
            }
        );
        assert!(err.to_string().contains("holds a scalar"));

        let err = p.group_reps(v).unwrap_err();
        assert!(matches!(err, PlanError::KindMismatch { .. }));

        let err = p.fetch(v, 4_242).unwrap_err();
        assert_eq!(err, PlanError::UndefinedVar { var: 4_242 });
        assert!(err.to_string().contains("undefined"));

        assert_eq!(p.group_by(&[]).unwrap_err(), PlanError::EmptyGroupBy);
    }

    #[test]
    fn dependencies_reflect_the_dataflow_dag() {
        let plan = grouped_plan();
        let deps = plan.dependencies();
        assert_eq!(deps.len(), plan.len());
        // Binds have no dependencies; every other node depends only on
        // earlier nodes (topological order).
        for (index, node) in plan.nodes().iter().enumerate() {
            if matches!(node.op, PlanOp::Bind { .. }) {
                assert!(deps[index].is_empty());
            }
            for dep in &deps[index] {
                assert!(*dep < index, "node {index} depends on later node {dep}");
            }
        }
        // The result node depends on the two materialised columns.
        let last = deps.last().unwrap();
        assert_eq!(last.len(), 2);
    }

    #[test]
    fn registers_are_freed_at_last_use() {
        let plan = grouped_plan();
        let catalog = catalog();
        let backend = MonetBackend::with_threads(1);
        let mut run = PlanRun::new(&plan, &backend, &catalog);
        run.run_to_completion().unwrap();
        assert!(run.is_done());
        assert!(
            run.registers.slots.is_empty(),
            "every register is dead after the result node materialises"
        );
    }

    #[test]
    fn discarded_outputs_are_freed_as_soon_as_they_are_produced() {
        // Q3's shape: one side of a join is never consumed. The register
        // must not survive past the producing node (it would otherwise pin
        // its buffers for the rest of the plan).
        let mut p = PlanBuilder::new();
        let fk = p.bind("t", "k");
        let pk = p.bind("t", "id");
        let (positions, discarded) = p.pkfk_join(fk, pk).unwrap();
        let v = p.bind("t", "v");
        let fetched = p.fetch(v, positions).unwrap();
        p.result(&[fetched]).unwrap();
        let plan = p.finish();
        assert_eq!(plan.last_use(discarded), None);

        let catalog = catalog();
        let backend = MonetBackend::with_threads(1);
        let mut run = PlanRun::new(&plan, &backend, &catalog);
        while !run.is_done() {
            run.step().unwrap();
            assert!(
                !run.registers.slots.contains_key(&discarded),
                "discarded join side must never be retained (after node {})",
                run.completed_nodes()
            );
        }
        assert!(run.registers.slots.is_empty());
    }

    #[test]
    fn stepping_matches_run_to_completion() {
        let plan = grouped_plan();
        let catalog = catalog();
        let backend = MonetBackend::with_threads(1);
        let mut stepped = PlanRun::new(&plan, &backend, &catalog);
        let mut steps = 0;
        while !matches!(stepped.step().unwrap(), StepOutcome::Done) {
            steps += 1;
        }
        assert_eq!(steps + 1, plan.len());
        let direct = execute_plan(&plan, &backend, &catalog).unwrap();
        assert_eq!(stepped.into_results(), direct);
    }

    #[test]
    fn plan_execution_agrees_across_backends() {
        let plan = grouped_plan();
        let catalog = catalog();
        let reference = execute_plan(&plan, &MonetBackend::with_threads(1), &catalog).unwrap();
        assert_eq!(reference.len(), 2);
        for backend in [OcelotBackend::cpu(), OcelotBackend::gpu()] {
            let result = execute_plan(&plan, &backend, &catalog).unwrap();
            match (&reference[1], &result[1]) {
                (QueryValue::FloatColumn(a), QueryValue::FloatColumn(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert!((x - y).abs() < 1.0, "{x} vs {y}");
                    }
                }
                other => panic!("unexpected result shapes: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_columns_surface_at_execution() {
        let mut p = PlanBuilder::new();
        let missing = p.bind("nope", "nothing");
        p.result(&[missing]).unwrap();
        let plan = p.finish();
        let err = execute_plan(&plan, &MonetBackend::with_threads(1), &catalog()).unwrap_err();
        assert_eq!(
            err,
            PlanError::UnknownColumn { table: "nope".into(), column: "nothing".into() }
        );
        assert!(err.to_string().contains("unknown column"));
    }

    /// What a failing [`OomBackend`] attempt returns — one variant per
    /// fault class of the unified recovery protocol and one kernel error
    /// outside them — plus a plain panic to prove genuine unwinds pass
    /// through `step` untouched.
    #[derive(Clone, Copy)]
    enum FailMode {
        Oom,
        Transient,
        DeviceLost,
        Internal,
        PlainPanic,
    }

    /// A backend whose `bat` fails a configured number of times before
    /// succeeding — the deterministic harness for the unified recovery
    /// protocol (OOM restarts, transient retries, device-loss failures).
    struct OomBackend {
        inner: MonetBackend,
        failures_left: std::sync::atomic::AtomicUsize,
        reclaims: std::sync::atomic::AtomicUsize,
        reclaim_succeeds: bool,
        mode: FailMode,
    }

    impl OomBackend {
        fn failing(times: usize, reclaim_succeeds: bool) -> OomBackend {
            OomBackend {
                inner: MonetBackend::with_threads(1),
                failures_left: std::sync::atomic::AtomicUsize::new(times),
                reclaims: std::sync::atomic::AtomicUsize::new(0),
                reclaim_succeeds,
                mode: FailMode::Oom,
            }
        }

        fn with_mode(mut self, mode: FailMode) -> OomBackend {
            self.mode = mode;
            self
        }
    }

    type HostResult = Result<<MonetBackend as Backend>::Column, PlanError>;

    impl Backend for OomBackend {
        type Column = <MonetBackend as Backend>::Column;
        fn name(&self) -> &str {
            "OOM harness"
        }
        fn bat(&self, bat: &ocelot_storage::BatRef) -> HostResult {
            use std::sync::atomic::Ordering;
            let left = self.failures_left.load(Ordering::Relaxed);
            if left > 0 {
                self.failures_left.store(left - 1, Ordering::Relaxed);
                return Err(PlanError::Device(match self.mode {
                    FailMode::PlainPanic => std::panic::panic_any("unrelated panic"),
                    FailMode::Transient => KernelError::TransientFault {
                        site: FaultSite::KernelLaunch,
                        op: left as u64,
                    },
                    FailMode::DeviceLost => KernelError::DeviceLost,
                    FailMode::Internal => KernelError::Internal("broken invariant".into()),
                    FailMode::Oom => {
                        KernelError::OutOfDeviceMemory { requested: 4096, available: 0 }
                    }
                }));
            }
            self.inner.bat(bat)
        }
        fn reclaim_memory(&self) -> bool {
            self.reclaims.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.reclaim_succeeds
        }
        fn lift_i32(&self, v: Vec<i32>) -> HostResult {
            self.inner.lift_i32(v)
        }
        fn lift_f32(&self, v: Vec<f32>) -> HostResult {
            self.inner.lift_f32(v)
        }
        fn lift_oids(&self, v: Vec<u32>) -> HostResult {
            self.inner.lift_oids(v)
        }
        fn to_i32(&self, c: &Self::Column) -> Result<Vec<i32>, PlanError> {
            self.inner.to_i32(c)
        }
        fn to_f32(&self, c: &Self::Column) -> Result<Vec<f32>, PlanError> {
            self.inner.to_f32(c)
        }
        fn to_oids(&self, c: &Self::Column) -> Result<Vec<u32>, PlanError> {
            self.inner.to_oids(c)
        }
        fn len(&self, c: &Self::Column) -> Result<usize, PlanError> {
            self.inner.len(c)
        }
        fn select(
            &self,
            cols: &[&Self::Column],
            pred: &Pred,
            cands: Option<&Self::Column>,
        ) -> HostResult {
            self.inner.select(cols, pred, cands)
        }
        fn union_oids(&self, a: &Self::Column, b: &Self::Column) -> HostResult {
            self.inner.union_oids(a, b)
        }
        fn fetch(&self, c: &Self::Column, o: &Self::Column) -> HostResult {
            self.inner.fetch(c, o)
        }
        fn map(&self, cols: &[&Self::Column], map: &Map) -> HostResult {
            self.inner.map(cols, map)
        }
        fn pkfk_join(
            &self,
            fk: &Self::Column,
            pk: &Self::Column,
        ) -> Result<(Self::Column, Self::Column), PlanError> {
            self.inner.pkfk_join(fk, pk)
        }
        fn semi_join(&self, l: &Self::Column, r: &Self::Column) -> HostResult {
            self.inner.semi_join(l, r)
        }
        fn anti_join(&self, l: &Self::Column, r: &Self::Column) -> HostResult {
            self.inner.anti_join(l, r)
        }
        fn dense_join(
            &self,
            keys: &Self::Column,
            listed: Option<&Self::Column>,
            key: DenseKey,
            kind: DenseJoinKind,
        ) -> Result<(Self::Column, Option<Self::Column>), PlanError> {
            self.inner.dense_join(keys, listed, key, kind)
        }
        fn group_by(&self, keys: &[&Self::Column]) -> Result<GroupHandle<Self::Column>, PlanError> {
            self.inner.group_by(keys)
        }
        fn grouped_aggs(
            &self,
            g: &GroupHandle<Self::Column>,
            v: &[&Self::Column],
            f: &[GroupedAgg],
        ) -> Result<Vec<Self::Column>, PlanError> {
            self.inner.grouped_aggs(g, v, f)
        }
        fn sum_f32(&self, v: &Self::Column) -> Result<f32, PlanError> {
            self.inner.sum_f32(v)
        }
        fn min_f32(&self, v: &Self::Column) -> Result<f32, PlanError> {
            self.inner.min_f32(v)
        }
        fn max_f32(&self, v: &Self::Column) -> Result<f32, PlanError> {
            self.inner.max_f32(v)
        }
        fn sort_order_i32(&self, c: &Self::Column, d: bool) -> HostResult {
            self.inner.sort_order_i32(c, d)
        }
        fn sort_order_f32(&self, c: &Self::Column, d: bool) -> HostResult {
            self.inner.sort_order_f32(c, d)
        }
    }

    #[test]
    fn oom_nodes_are_restarted_after_reclaim() {
        // The node's first two attempts fail with a device OOM; the restart
        // protocol must reclaim, re-run it, and deliver the correct result.
        let plan = grouped_plan();
        let catalog = catalog();
        let reference = execute_plan(&plan, &MonetBackend::with_threads(1), &catalog).unwrap();

        let backend = OomBackend::failing(2, true);
        let mut run = PlanRun::new(&plan, &backend, &catalog);
        run.run_to_completion().unwrap();
        assert_eq!(run.restarts(), 2, "one restart per failed attempt");
        assert_eq!(
            backend.reclaims.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "every restart runs a reclaim pass first"
        );
        assert_eq!(run.into_results(), reference, "restarted run produces identical results");
    }

    #[test]
    fn oom_without_reclaim_progress_fails_structurally() {
        let plan = grouped_plan();
        let catalog = catalog();
        let backend = OomBackend::failing(1, false);
        let err = PlanRun::new(&plan, &backend, &catalog).run_to_completion().unwrap_err();
        assert_eq!(err, PlanError::OutOfDeviceMemory { requested: 4096, available: 0 });
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn oom_restarts_give_up_after_the_limit() {
        let plan = grouped_plan();
        let catalog = catalog();
        // More failures than the restart limit: reclaim keeps "succeeding"
        // but the node keeps failing — the run must not loop forever.
        let backend = OomBackend::failing(100, true);
        let err = PlanRun::new(&plan, &backend, &catalog).run_to_completion().unwrap_err();
        assert!(matches!(err, PlanError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn non_oom_panics_are_not_swallowed() {
        // Recovery reads returned errors only; a genuine panic must unwind
        // through step() to the caller unchanged.
        let plan = grouped_plan();
        let catalog = catalog();
        let backend = OomBackend::failing(1, true).with_mode(FailMode::PlainPanic);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PlanRun::new(&plan, &backend, &catalog).run_to_completion().unwrap();
        }));
        let payload = caught.unwrap_err();
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "unrelated panic");
        assert_eq!(
            backend.reclaims.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "no reclaim pass for a non-OOM panic"
        );
    }

    #[test]
    fn transient_faults_retry_with_deterministic_backoff() {
        // Two transient failures, then success: the node is retried twice
        // (first retry immediate, second after one backoff step) and the
        // run delivers the same results as a fault-free reference.
        let plan = grouped_plan();
        let catalog = catalog();
        let reference = execute_plan(&plan, &MonetBackend::with_threads(1), &catalog).unwrap();

        let trace_of = |times: usize| {
            let backend = OomBackend::failing(times, true).with_mode(FailMode::Transient);
            let mut run = PlanRun::new(&plan, &backend, &catalog);
            run.run_to_completion().unwrap();
            let stats = run.recovery_stats();
            let trace = run.recovery_trace().to_vec();
            assert_eq!(run.into_results(), reference, "retried run produces identical results");
            (stats, trace)
        };

        let (stats, trace) = trace_of(2);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.backoff_steps, 1, "the first retry is immediate");
        assert_eq!(stats.oom_restarts, 0, "transient faults never run reclaim");
        assert!(matches!(
            trace[0],
            RecoveryEvent::TransientRetry { attempt: 1, backoff_ns: 0, .. }
        ));
        assert!(matches!(
            trace[1],
            RecoveryEvent::TransientRetry { attempt: 2, backoff_ns: 1_000, .. }
        ));

        // Determinism: the same fault schedule reproduces the same trace.
        let (_, again) = trace_of(2);
        assert_eq!(trace, again, "same schedule, same recovery trace");
    }

    #[test]
    fn transient_faults_exhaust_into_a_typed_faulted_error() {
        let plan = grouped_plan();
        let catalog = catalog();
        let backend = OomBackend::failing(100, true).with_mode(FailMode::Transient);
        let err = PlanRun::new(&plan, &backend, &catalog).run_to_completion().unwrap_err();
        match err {
            PlanError::Faulted { site, attempts, .. } => {
                assert_eq!(site, FaultSite::KernelLaunch);
                assert_eq!(attempts as usize, PlanRun::<MonetBackend>::RESTART_LIMIT + 1);
            }
            other => panic!("expected Faulted, got {other:?}"),
        }
        assert!(err.to_string().contains("retry budget"));
        assert_eq!(
            backend.reclaims.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "the transient path never reclaims"
        );
    }

    #[test]
    fn oom_and_transient_draw_from_one_shared_budget() {
        // RESTART_LIMIT bounds the *combined* attempts of one node. With
        // more transient failures than the limit the node fails even
        // though each individual fault class would be under its own limit
        // in a split-budget design; the typed error carries the total
        // attempt count.
        let plan = grouped_plan();
        let catalog = catalog();
        let limit = PlanRun::<MonetBackend>::RESTART_LIMIT;
        let backend = OomBackend::failing(limit + 1, true).with_mode(FailMode::Transient);
        let err = PlanRun::new(&plan, &backend, &catalog).run_to_completion().unwrap_err();
        assert!(matches!(err, PlanError::Faulted { .. }));

        // Exactly at the limit the node still recovers.
        let backend = OomBackend::failing(limit, true).with_mode(FailMode::Transient);
        let mut run = PlanRun::new(&plan, &backend, &catalog);
        run.run_to_completion().unwrap();
        assert_eq!(run.recovery_stats().retries as usize, limit);
    }

    #[test]
    fn device_loss_unwinds_the_whole_plan() {
        let plan = grouped_plan();
        let catalog = catalog();
        let backend = OomBackend::failing(1, true).with_mode(FailMode::DeviceLost);
        let mut run = PlanRun::new(&plan, &backend, &catalog);
        let err = run.run_to_completion().unwrap_err();
        assert_eq!(err, PlanError::DeviceLost);
        assert!(err.to_string().contains("device lost"));
        assert_eq!(
            backend.reclaims.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "device loss is not retryable: no reclaim, no retry"
        );
        assert!(matches!(run.recovery_trace(), [RecoveryEvent::DeviceLost { node: 0 }]));
    }

    #[test]
    fn unexpected_kernel_errors_are_typed_and_final() {
        // A kernel error outside the three recoverable classes is neither
        // retried nor reclaimed for: one attempt (of the two that would
        // fail), then the carrier variant.
        use std::sync::atomic::Ordering;
        let plan = grouped_plan();
        let catalog = catalog();
        let backend = OomBackend::failing(2, true).with_mode(FailMode::Internal);
        let mut run = PlanRun::new(&plan, &backend, &catalog);
        let err = run.run_to_completion().unwrap_err();
        assert_eq!(err, PlanError::Device(KernelError::Internal("broken invariant".into())));
        assert!(err.to_string().contains("broken invariant"), "{err}");
        assert_eq!(backend.failures_left.load(Ordering::Relaxed), 1, "exactly one attempt");
        assert_eq!(backend.reclaims.load(Ordering::Relaxed), 0);
        assert_eq!(run.recovery_stats(), RecoveryStats::default());
        assert!(run.recovery_trace().is_empty());
    }

    #[test]
    fn unexpected_kernel_errors_fail_their_job_alone_under_the_scheduler() {
        use crate::scheduler::{QueryJob, Scheduler};
        use crate::session::Session;
        let plan = grouped_plan();
        let catalog = catalog();
        let reference = execute_plan(&plan, &MonetBackend::with_threads(1), &catalog).unwrap();
        let sessions = [
            Session::new(OomBackend::failing(0, true)),
            Session::new(OomBackend::failing(1, true).with_mode(FailMode::Internal)),
            Session::new(OomBackend::failing(0, true)),
        ];
        let jobs: Vec<QueryJob<'_, OomBackend>> = sessions
            .iter()
            .map(|session| QueryJob { session, plan: &plan, catalog: &catalog })
            .collect();
        let results = Scheduler::new().run(&jobs);
        assert_eq!(results[0].as_ref().unwrap(), &reference);
        assert!(matches!(results[1], Err(PlanError::Device(KernelError::Internal(_)))));
        assert_eq!(results[2].as_ref().unwrap(), &reference);
    }

    #[test]
    fn footprint_estimate_tracks_register_lifetimes() {
        let catalog = catalog();
        // Two 2 000-row i32/f32 columns live at once (8 000 bytes each),
        // plus derived registers: the estimate must at least cover the
        // bound base columns and stay finite/plausible.
        let plan = grouped_plan();
        let footprint = plan.estimate_device_footprint(&catalog);
        assert!(footprint >= 2 * 2_000 * 4, "covers concurrently live base columns: {footprint}");
        assert!(footprint < 20 * 2_000 * 4, "does not blow up: {footprint}");

        // A plan that binds and immediately reduces one column peaks lower
        // than one holding three columns live simultaneously.
        let mut small = PlanBuilder::new();
        let v = small.bind("t", "v");
        let total = small.sum_f32(v).unwrap();
        small.result(&[total]).unwrap();
        let small = small.finish();

        let mut wide = PlanBuilder::new();
        let a = wide.bind("t", "v");
        let b = wide.bind("t", "k");
        let c = wide.bind("t", "g");
        wide.result(&[a, b, c]).unwrap();
        let wide = wide.finish();

        assert!(
            small.estimate_device_footprint(&catalog) < wide.estimate_device_footprint(&catalog),
            "register pressure orders plans"
        );
    }

    #[test]
    fn duplicate_binds_share_one_register_and_node() {
        // Re-binding the same table.column must not mint a second register:
        // two registers over one cached base column would double-pin it in
        // the device column cache's per-plan accounting.
        let mut p = PlanBuilder::new();
        let a = p.bind("t", "v");
        let b = p.bind("t", "v");
        assert_eq!(a, b, "same column binds to the same register");
        let other = p.bind("t", "k");
        assert_ne!(a, other);
        let total = p.sum_f32(a).unwrap();
        p.result(&[total]).unwrap();
        let plan = p.finish();
        let binds = plan.nodes().iter().filter(|n| matches!(n.op, PlanOp::Bind { .. })).count();
        assert_eq!(binds, 2, "one bind node per distinct column");
        // The deduped plan still executes correctly.
        let values = execute_plan(&plan, &MonetBackend::with_threads(1), &catalog()).unwrap();
        assert!(matches!(values[0], QueryValue::Scalar(_)));
    }

    #[test]
    fn sort_heavy_plans_charge_scratch_beyond_register_lifetimes() {
        // The admission estimate must include operator scratch: the radix
        // sort's staging buffers outweigh the registers of a small sort plan.
        let catalog = catalog();
        let mut p = PlanBuilder::new();
        let v = p.bind("t", "v");
        let order = p.sort_order_f32(v, true).unwrap();
        let sorted = p.fetch(v, order).unwrap();
        p.result(&[sorted]).unwrap();
        let plan = p.finish();

        let registers = plan.estimate_register_footprint(&catalog);
        let device = plan.estimate_device_footprint(&catalog);
        assert!(
            device > registers,
            "scratch-aware estimate ({device}) must strictly exceed the register-lifetime \
             bound ({registers}) for a sort-heavy plan"
        );
        // The peak is the sort node: its 2 000-row input register plus four
        // staging buffers of that size and one 1 KiB count table.
        assert_eq!(device, 8_000 + sort_radix::scratch_bytes(2_000));
        assert_eq!(sort_radix::scratch_bytes(2_000), 4 * 8_000 + 1_024);

        // Hash joins charge build-side scratch too.
        let mut j = PlanBuilder::new();
        let fk = j.bind("t", "k");
        let pk = j.bind("t", "id");
        let (pos, _) = j.pkfk_join(fk, pk).unwrap();
        let out = j.fetch(fk, pos).unwrap();
        j.result(&[out]).unwrap();
        let join_plan = j.finish();
        assert!(
            join_plan.estimate_device_footprint(&catalog)
                > join_plan.estimate_register_footprint(&catalog),
            "hash build space counts toward admission"
        );
        // The peak is the join: both 2 000-row key columns, the table
        // covering the build's key range that the probe rows pay for —
        // next_pow2(8 · 2 000 + 2 000) = 32 768 words, more than twice the
        // 4 096-slot hash-sized table — and one lookup word per probe row.
        assert_eq!(join_plan.estimate_device_footprint(&catalog), 2 * 8_000 + 32_768 * 4 + 8_000);

        // A positional join charges a word per table row for its inverse map
        // (only when it is given a row list) or its flags, plus a lookup word
        // per row it looks up: the keys, or the listed rows (every table
        // row without a list) reading their flags. 10 000 keys, 100 listed
        // rows, a 2 000-row table.
        let key = DenseKey { base: -7, rows: 2_000 };
        let sizes: HashMap<Var, usize> = [(0, 40_000), (1, 400)].into_iter().collect();
        let scratch = |kind, inputs: Vec<Var>| {
            let op = PlanOp::DenseJoin { kind, key };
            Plan::scratch_bytes(&PlanNode { op, inputs, outputs: vec![2] }, &sizes)
        };
        assert_eq!(scratch(DenseJoinKind::Inner, vec![0]), 40_000);
        assert_eq!(scratch(DenseJoinKind::Inner, vec![0, 1]), 8_000 + 40_000);
        assert_eq!(scratch(DenseJoinKind::Anti, vec![0, 1]), 8_000 + 40_000);
        assert_eq!(scratch(DenseJoinKind::Semi, vec![0]), 40_000);
        assert_eq!(scratch(DenseJoinKind::ListedSemi, vec![0, 1]), 8_000 + 400);
        assert_eq!(scratch(DenseJoinKind::ListedAnti, vec![0]), 8_000 + 8_000);
    }

    #[test]
    fn int_columns_materialise_as_ints() {
        let mut p = PlanBuilder::new();
        let k = p.bind("t", "k");
        let g = p.bind("t", "g");
        p.result(&[k, g]).unwrap();
        let plan = p.finish();
        let values = execute_plan(&plan, &MonetBackend::with_threads(1), &catalog()).unwrap();
        assert!(matches!(values[0], QueryValue::IntColumn(_)));
        assert!(matches!(values[1], QueryValue::IntColumn(_)));
    }
}
