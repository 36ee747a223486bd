//! Static plan verification — pre-execution analysis over [`Plan`] DAGs.
//!
//! The executor trusts the [`PlanBuilder`](crate::plan::PlanBuilder)'s SSA
//! construction, but plans also arrive from the MAL compiler, from the plan
//! cache and (in tests and tools) from raw node lists. This module checks a
//! plan *before* a single kernel is enqueued and reports every violation as
//! a typed [`PlanDiagnostic`] — it never panics and never executes anything.
//!
//! # What is verified
//!
//! | Check | Diagnostic | Contract |
//! |-------|-----------|----------|
//! | def-before-use | [`PlanDiagnostic::UseBeforeDef`] / [`PlanDiagnostic::UndefinedInput`] | every input register is written by an **earlier** node |
//! | single assignment | [`PlanDiagnostic::DoubleDefine`] | every register is written by exactly one node (SSA) |
//! | input arity | [`PlanDiagnostic::InputArity`] | operand count matches the operator signature |
//! | output arity | [`PlanDiagnostic::OutputArity`] | result count matches the operator signature |
//! | operand kinds | [`PlanDiagnostic::InputKind`] | column/scalar/grouping kinds agree with the signature table |
//! | fused regions | [`PlanDiagnostic::PipelineMember`] / [`PlanDiagnostic::PipelineInterface`] | a `pipeline` node's members are streaming operators and at most one `group_by`, each checked against its own signature inside the region's scope; the node reads exactly what its members read from outside and writes exactly its sink's values and every other member value read outside the region — never a grouping or its representatives; a member's value is visible to later members and to nothing else |
//! | register liveness | [`PlanDiagnostic::LastUseMismatch`] | the recorded last-use map equals the true dataflow last use — the executor frees registers and [`Plan::estimate_register_footprint`] sizes live sets from this map, so a stale entry either leaks device memory or frees a register that is still read |
//!
//! # Flush-boundary analysis
//!
//! [`verify`] additionally computes a conservative static bound on the
//! number of *effective* queue flushes the plan performs (a flush of an
//! empty queue does not count — see `ocelot_kernel::Queue::flush_count`).
//! Operators fall into three classes:
//!
//! * **Streaming** — enqueue kernels and return device handles without
//!   touching host values: binds, selections (constant, `IN`-list and
//!   column-vs-column alike), maps, fetch, the fused grouped aggregates over
//!   an existing grouping, the deferred scalar sum — and a `pipeline` node
//!   whose members are all of these.
//! * **Host-resolving** — internally resolve host values mid-plan (the
//!   "deliberate sync points" of the operator library): hash joins
//!   (monolithic and partitioned), semi/anti joins, positional joins on a
//!   dense key (one match-count resolve each), grouping (its group
//!   count shapes the schema; a `pipeline` node holding a `group_by` is
//!   host-resolving as that node was), sorts (staging and the count table
//!   are sized from the row count, so a deferred input length is resolved
//!   on entry — the sort itself flushes nothing) and the OID-list union
//!   (host merge). Their internal flush count is data-dependent, so any
//!   plan containing one gets a [`FlushBound::DataDependent`] bound.
//! * **Boundary** — `sync` and `result` flush pending work exactly once
//!   and leave the queue empty.
//!
//! A plan built only from streaming and boundary operators gets a proven
//! [`FlushBound::AtMost`] bound: the number of boundary nodes that find
//! work pending. This statically proves the paper's Q6 one-flush property
//! (binds → selections → maps → sum → result ⇒ at most one flush) without
//! executing the plan. The bound models kernel-batch flushes on a
//! unified-memory device; on a simulated discrete device each `result`
//! node may add one transfer-only flush for the host copy-back.
//!
//! # Entry points
//!
//! [`verify`] is pure and always available; [`Session::verify_plan`](crate::Session::verify_plan)
//! (see `crate::session`) exposes it per session, and `Session::run` plus
//! every scheduler admission (`Scheduler` and `ServeScheduler` alike)
//! re-check every plan in debug builds.

use crate::backend::DenseJoinKind;
use crate::plan::{Plan, PlanError, PlanNode, PlanOp, ValueKind, Var};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One verifier finding. Every variant names the node (by index in
/// [`Plan::nodes`] order) and operator it anchors to, so a rendered
/// diagnostic reads like a compiler error against the plan listing.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDiagnostic {
    /// A node reads a register that only a **later** node writes — the
    /// node order is not a valid topological order of the dataflow.
    UseBeforeDef {
        /// Index of the offending node.
        node: usize,
        /// Operator name of the offending node.
        op: &'static str,
        /// The register read too early.
        var: Var,
        /// Index of the node that (later) defines the register.
        defined_at: usize,
    },
    /// A node reads a register no node in the plan ever writes.
    UndefinedInput {
        /// Index of the offending node.
        node: usize,
        /// Operator name of the offending node.
        op: &'static str,
        /// The dangling register.
        var: Var,
    },
    /// A register is written by two nodes — single assignment is violated,
    /// so "the producer of `var`" is ambiguous and last-use reclamation
    /// would free the first value while the second is still pending.
    DoubleDefine {
        /// Index of the second (offending) definition.
        node: usize,
        /// Operator name of the offending node.
        op: &'static str,
        /// The register defined twice.
        var: Var,
        /// Index of the first definition.
        first: usize,
    },
    /// A node's operand count does not match its operator signature.
    InputArity {
        /// Index of the offending node.
        node: usize,
        /// Operator name of the offending node.
        op: &'static str,
        /// Operands the node actually carries.
        found: usize,
        /// Human-readable operand count the signature requires.
        expected: &'static str,
    },
    /// A node's result count does not match its operator signature.
    OutputArity {
        /// Index of the offending node.
        node: usize,
        /// Operator name of the offending node.
        op: &'static str,
        /// Results the node actually carries.
        found: usize,
        /// Results the signature requires.
        expected: usize,
    },
    /// An operand holds a value of the wrong kind (e.g. a grouping fed to
    /// an element-wise map).
    InputKind {
        /// Index of the offending node.
        node: usize,
        /// Operator name of the offending node.
        op: &'static str,
        /// Position of the operand within the node's inputs.
        index: usize,
        /// The offending register.
        var: Var,
        /// The kind the signature requires.
        expected: ValueKind,
        /// The kind the register actually holds.
        found: ValueKind,
    },
    /// A `pipeline` node carries a member that may not be fused: a `bind`,
    /// `sync`, `result`, a nested pipeline, a second `group_by` or any other
    /// host-resolving operator.
    PipelineMember {
        /// Index of the pipeline node.
        node: usize,
        /// Position of the offending member within the node.
        member: usize,
        /// Operator name of the offending member.
        op: &'static str,
    },
    /// A `pipeline` node's registers are not its members': it must read
    /// exactly what the members read and no member writes (in first-use
    /// order) and write exactly the sink's values and every other member
    /// value something outside the region reads (in member order) — none of
    /// them a grouping or its representatives.
    PipelineInterface {
        /// Index of the pipeline node.
        node: usize,
        /// The inputs the members imply.
        inputs: Vec<Var>,
        /// The outputs the members imply.
        outputs: Vec<Var>,
    },
    /// The plan's recorded last-use entry for a register disagrees with
    /// the true dataflow last use. The executor frees registers from this
    /// map and [`Plan::estimate_register_footprint`] sizes live sets from
    /// it, so a stale entry leaks device memory (recorded too late /
    /// missing) or frees a register that is still read (recorded too
    /// early).
    LastUseMismatch {
        /// The register with the inconsistent entry.
        var: Var,
        /// The entry the plan carries (`None` if absent).
        recorded: Option<usize>,
        /// The last node index that actually reads the register (`None`
        /// if nothing reads it).
        actual: Option<usize>,
    },
}

impl fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanDiagnostic::UseBeforeDef { node, op, var, defined_at } => write!(
                f,
                "node {node} ({op}): reads v{var} which is only defined by the later node \
                 {defined_at}"
            ),
            PlanDiagnostic::UndefinedInput { node, op, var } => {
                write!(f, "node {node} ({op}): reads v{var} which no node defines")
            }
            PlanDiagnostic::DoubleDefine { node, op, var, first } => write!(
                f,
                "node {node} ({op}): redefines v{var} already defined by node {first} \
                 (single assignment violated)"
            ),
            PlanDiagnostic::InputArity { node, op, found, expected } => {
                write!(f, "node {node} ({op}): {found} operand(s), signature requires {expected}")
            }
            PlanDiagnostic::OutputArity { node, op, found, expected } => write!(
                f,
                "node {node} ({op}): {found} result register(s), signature requires {expected}"
            ),
            PlanDiagnostic::InputKind { node, op, index, var, expected, found } => write!(
                f,
                "node {node} ({op}): operand {index} (v{var}) holds a {found}, expected a \
                 {expected}"
            ),
            PlanDiagnostic::PipelineMember { node, member, op } => {
                write!(f, "node {node} (pipeline): member {member} ({op}) cannot be fused")
            }
            PlanDiagnostic::PipelineInterface { node, inputs, outputs } => write!(
                f,
                "node {node} (pipeline): its members read {inputs:?} and hand on {outputs:?}; \
                 the node declares something else"
            ),
            PlanDiagnostic::LastUseMismatch { var, recorded, actual } => {
                let show = |value: &Option<usize>| match value {
                    Some(node) => format!("node {node}"),
                    None => "absent".to_string(),
                };
                write!(
                    f,
                    "liveness: v{var} last-use recorded as {} but the dataflow's last read is {}",
                    show(recorded),
                    show(actual)
                )
            }
        }
    }
}

/// Conservative static bound on the *effective* flushes a plan performs
/// (see the module docs for the operator classification and the
/// unified-memory scope of the bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushBound {
    /// The plan contains only streaming and boundary operators; it
    /// performs at most this many effective flushes.
    AtMost(usize),
    /// The plan contains host-resolving operators whose internal flush
    /// count depends on the data (hash-build retry loops, sort passes,
    /// partition schedules), so no static constant bounds it.
    DataDependent {
        /// Flushes attributable to `sync`/`result` boundary nodes.
        boundary: usize,
        /// Number of host-resolving nodes (each flushes at least once
        /// when work is pending, possibly more).
        host_resolving: usize,
    },
}

impl fmt::Display for FlushBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlushBound::AtMost(n) => write!(f, "at most {n} flush(es)"),
            FlushBound::DataDependent { boundary, host_resolving } => write!(
                f,
                "data-dependent ({host_resolving} host-resolving node(s) + {boundary} boundary \
                 flush(es))"
            ),
        }
    }
}

/// The outcome of [`verify`]: every diagnostic found plus the static
/// flush bound. Rendered with `Display` as one diagnostic per line.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Every violation found, in node order.
    pub diagnostics: Vec<PlanDiagnostic>,
    /// The static flush bound (meaningful when the plan is well-formed).
    pub flush_bound: FlushBound,
    /// Number of nodes inspected.
    pub nodes: usize,
}

impl VerifyReport {
    /// Whether the plan passed every check.
    pub fn is_ok(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(f, "plan ok: {} node(s), {}", self.nodes, self.flush_bound);
        }
        writeln!(f, "plan verification failed ({} finding(s)):", self.diagnostics.len())?;
        for diagnostic in &self.diagnostics {
            writeln!(f, "  {diagnostic}")?;
        }
        write!(f, "  flush bound: {}", self.flush_bound)
    }
}

/// Operand shape of one operator.
enum InputSig {
    /// Exactly these kinds, in operand order.
    Exact(&'static [ValueKind]),
    /// This many column operands, optionally followed by a candidate list —
    /// the form every selection supports.
    Select(usize),
    /// Exactly this many column operands (a map).
    Columns(usize),
    /// A grouping followed by value columns, at least this many: every one
    /// the node's aggregates name by position (`grouped_aggs`).
    GroupThenValues(usize),
    /// One or more key columns (`group_by`).
    Keys,
    /// Any number of registers of any kind (`sync`; a `pipeline`, whose
    /// operands are checked member by member).
    AnyDefined,
    /// Zero or more columns/scalars — groupings are not materialisable
    /// (`result`).
    Results,
}

const COLUMN: ValueKind = ValueKind::Column;
const GROUP: ValueKind = ValueKind::Group;

/// How the operator interacts with the lazy queue (see module docs).
#[derive(PartialEq)]
enum FlushClass {
    Streaming,
    HostResolving,
    Boundary,
}

/// The operator signature table: operand shape, result kinds and flush
/// class. This is the verifier's single source of truth per operator;
/// `PlanBuilder::push_node` reuses the result kinds for raw-node plans.
fn signature(op: &PlanOp) -> (InputSig, Cow<'static, [ValueKind]>, FlushClass) {
    use FlushClass::{Boundary, HostResolving, Streaming};
    use InputSig::{AnyDefined, Columns, Exact, GroupThenValues, Keys, Results, Select};
    let (inputs, outputs, class): (InputSig, &'static [ValueKind], FlushClass) = match op {
        PlanOp::Bind { .. } => (Exact(&[]), &[COLUMN], Streaming),
        // A program's column count is one past its highest slot.
        PlanOp::Select { .. } => (Select(op.program_columns().unwrap_or(0)), &[COLUMN], Streaming),
        PlanOp::Map { .. } => (Columns(op.program_columns().unwrap_or(0)), &[COLUMN], Streaming),
        PlanOp::UnionOids => (Exact(&[COLUMN, COLUMN]), &[COLUMN], HostResolving),
        PlanOp::Fetch => (Exact(&[COLUMN, COLUMN]), &[COLUMN], Streaming),
        PlanOp::PkFkJoin | PlanOp::PkFkJoinPartitioned { .. } => {
            (Exact(&[COLUMN, COLUMN]), &[COLUMN, COLUMN], HostResolving)
        }
        PlanOp::SemiJoin | PlanOp::AntiJoin => (Exact(&[COLUMN, COLUMN]), &[COLUMN], HostResolving),
        // The keys, then the dense side's row list when it has one; the
        // match count is resolved on the host.
        PlanOp::DenseJoin { kind: DenseJoinKind::Inner, .. } => {
            (Select(1), &[COLUMN, COLUMN], HostResolving)
        }
        PlanOp::DenseJoin { .. } => (Select(1), &[COLUMN], HostResolving),
        PlanOp::GroupBy => (Keys, &[GROUP], HostResolving),
        PlanOp::GroupReps => (Exact(&[GROUP]), &[COLUMN], Streaming),
        // One result column per aggregate: the only operator whose result
        // count is a parameter.
        PlanOp::GroupedAggs { funcs } => {
            let named = funcs.iter().filter_map(|func| func.input()).max().map_or(0, |top| top + 1);
            return (GroupThenValues(named), vec![COLUMN; funcs.len()].into(), Streaming);
        }
        PlanOp::SortOrderI32 { .. } | PlanOp::SortOrderF32 { .. } => {
            (Exact(&[COLUMN]), &[COLUMN], HostResolving)
        }
        PlanOp::SumF32 => (Exact(&[COLUMN]), &[ValueKind::Scalar], Streaming),
        // A region is what its members are — streaming, or rejected — and
        // host-resolving when it took a grouping along. What it produces is
        // its members' (`output_kinds`).
        PlanOp::Pipeline { members } => {
            let grouped = members.iter().any(|member| member.op == PlanOp::GroupBy);
            return (
                AnyDefined,
                Cow::Borrowed(&[]),
                if grouped { HostResolving } else { Streaming },
            );
        }
        PlanOp::Sync => (AnyDefined, &[], Boundary),
        PlanOp::Result => (Results, &[], Boundary),
    };
    (inputs, outputs.into(), class)
}

/// Result kinds of a node, for kind-assigning raw-node appends
/// (`PlanBuilder::push_node`) and the verifier: its operator's, or — for a
/// `pipeline` node — those of the members writing its outputs.
pub(crate) fn output_kinds(node: &PlanNode) -> Cow<'static, [ValueKind]> {
    if node.members().is_empty() {
        return signature(&node.op).1;
    }
    let kind = |out: &Var| {
        node.members().iter().find_map(|member| {
            let at = member.outputs.iter().position(|written| written == out)?;
            output_kinds(member).get(at).copied()
        })
    };
    node.outputs.iter().map(|out| kind(out).unwrap_or(COLUMN)).collect()
}

/// The forward walk of [`verify`]: definitions seen so far and findings.
struct Walk {
    /// Definition sites over the whole plan (for telling a use-before-def
    /// apart from a genuinely dangling register), first-writer-wins.
    first_def: HashMap<Var, usize>,
    defined_at: HashMap<Var, usize>,
    /// Every register a plan node reads.
    read: HashSet<Var>,
    diagnostics: Vec<PlanDiagnostic>,
}

impl Walk {
    /// Checks one node — a plan node, or a member of the pipeline at `index`
    /// — against its signature in the scope `kinds`, then defines its outputs
    /// there.
    fn node(&mut self, index: usize, node: &PlanNode, kinds: &mut HashMap<Var, ValueKind>) {
        let op = node.op.name();
        let (inputs_sig, _, _) = signature(&node.op);
        let outputs_sig = output_kinds(node);
        let mut arity = |expected: &'static str| {
            self.diagnostics.push(PlanDiagnostic::InputArity {
                node: index,
                op,
                found: node.inputs.len(),
                expected,
            });
            None
        };

        // Expected operand kinds, or None when the arity itself is wrong.
        let count = |columns: usize| match columns {
            0 => "0",
            1 => "1",
            2 => "2",
            _ => "one per column its program reads",
        };
        let expected: Option<Vec<ValueKind>> = match inputs_sig {
            InputSig::Exact(kinds) => (node.inputs.len() == kinds.len())
                .then(|| kinds.to_vec())
                .or_else(|| arity(count(kinds.len()))),
            InputSig::Columns(columns) => (node.inputs.len() == columns)
                .then(|| vec![COLUMN; columns])
                .or_else(|| arity(count(columns))),
            InputSig::Select(columns) => (node.inputs.len() == columns
                || node.inputs.len() == columns + 1)
                .then(|| vec![COLUMN; node.inputs.len()])
                .or_else(|| {
                    arity(match columns {
                        1 => "1 or 2",
                        2 => "2 or 3",
                        _ => "one per column its program reads, then optionally candidates",
                    })
                }),
            InputSig::GroupThenValues(named) => (node.inputs.len() > named)
                .then(|| {
                    let mut kinds = vec![COLUMN; node.inputs.len()];
                    kinds[0] = GROUP;
                    kinds
                })
                .or_else(|| arity("a grouping plus every value column its aggregates name")),
            InputSig::Keys => (!node.inputs.is_empty())
                .then(|| vec![COLUMN; node.inputs.len()])
                .or_else(|| arity("at least 1")),
            // Kind checks for sync/result happen below, per operand; a
            // pipeline's happen member by member.
            InputSig::AnyDefined | InputSig::Results => None,
        };

        for (position, var) in node.inputs.iter().enumerate() {
            match kinds.get(var) {
                None => match self.first_def.get(var) {
                    Some(later) => self.diagnostics.push(PlanDiagnostic::UseBeforeDef {
                        node: index,
                        op,
                        var: *var,
                        defined_at: *later,
                    }),
                    None => self.diagnostics.push(PlanDiagnostic::UndefinedInput {
                        node: index,
                        op,
                        var: *var,
                    }),
                },
                Some(found) => {
                    let want = match (&node.op, expected.as_ref()) {
                        // `result` materialises columns and scalars, never
                        // a grouping; a column stands in for "not a group"
                        // in the rendered diagnostic.
                        (PlanOp::Result, _) if *found == GROUP => Some(COLUMN),
                        (_, Some(expected)) => {
                            expected.get(position).copied().filter(|want| want != found)
                        }
                        _ => None,
                    };
                    if let Some(expected) = want {
                        self.diagnostics.push(PlanDiagnostic::InputKind {
                            node: index,
                            op,
                            index: position,
                            var: *var,
                            expected,
                            found: *found,
                        });
                    }
                }
            }
        }

        if !node.members().is_empty() {
            self.region(index, node, kinds);
        }

        if node.outputs.len() != outputs_sig.len() {
            self.diagnostics.push(PlanDiagnostic::OutputArity {
                node: index,
                op,
                found: node.outputs.len(),
                expected: outputs_sig.len(),
            });
        }
        for (position, out) in node.outputs.iter().enumerate() {
            let kind = outputs_sig.get(position).copied().unwrap_or(COLUMN);
            match self.defined_at.get(out) {
                // A pipeline's outputs were defined by its sink, just now.
                Some(first) if *first == index && !node.members().is_empty() => {}
                Some(first) => {
                    self.diagnostics.push(PlanDiagnostic::DoubleDefine {
                        node: index,
                        op,
                        var: *out,
                        first: *first,
                    });
                    continue;
                }
                None => {
                    self.defined_at.insert(*out, index);
                }
            }
            kinds.insert(*out, kind);
        }
    }

    /// The members of the pipeline `node`, in a scope holding nothing but
    /// the node's inputs: what a member defines is visible to later members
    /// only (any other reader finds it undefined), and single assignment
    /// holds across the whole plan.
    fn region(&mut self, index: usize, node: &PlanNode, kinds: &HashMap<Var, ValueKind>) {
        let mut scope: HashMap<Var, ValueKind> =
            node.inputs.iter().filter_map(|var| Some((*var, *kinds.get(var)?))).collect();
        let mut reads: Vec<Var> = Vec::new();
        // Plan-level definitions mean nothing inside the scope.
        let first_def = std::mem::take(&mut self.first_def);
        let mut groupings = 0;
        for (position, member) in node.members().iter().enumerate() {
            groupings += usize::from(member.op == PlanOp::GroupBy);
            let fusable = (signature(&member.op).2 == FlushClass::Streaming
                || (member.op == PlanOp::GroupBy && groupings == 1))
                && !matches!(member.op, PlanOp::Bind { .. } | PlanOp::Pipeline { .. });
            if !fusable {
                self.diagnostics.push(PlanDiagnostic::PipelineMember {
                    node: index,
                    member: position,
                    op: member.op.name(),
                });
                continue;
            }
            for var in &member.inputs {
                let inner = self.defined_at.get(var) == Some(&index) && !node.inputs.contains(var);
                if !inner && !reads.contains(var) {
                    reads.push(*var);
                }
            }
            self.node(index, member, &mut scope);
        }
        self.first_def = first_def;
        // The sink's values, and any other member's read outside — never a
        // grouping's or its representatives'.
        let Some((sink, _)) = node.members().split_last() else { return };
        let mut grouping = false;
        let mut outputs: Vec<Var> = Vec::new();
        for member in node.members() {
            for out in &member.outputs {
                if sink.outputs.contains(out) || self.read.contains(out) {
                    grouping |= matches!(member.op, PlanOp::GroupBy | PlanOp::GroupReps);
                    outputs.push(*out);
                }
            }
        }
        if reads != node.inputs || outputs != node.outputs || grouping {
            self.diagnostics.push(PlanDiagnostic::PipelineInterface {
                node: index,
                inputs: reads,
                outputs,
            });
        }
    }
}

/// Verifies a plan (see module docs for the full check list) and computes
/// its static flush bound. Pure: reads the plan, executes nothing, never
/// panics — every violation becomes a [`PlanDiagnostic`].
pub fn verify(plan: &Plan) -> VerifyReport {
    let nodes = plan.nodes();
    let mut first_def: HashMap<Var, usize> = HashMap::new();
    for (index, node) in nodes.iter().enumerate() {
        for out in &node.outputs {
            first_def.entry(*out).or_insert(index);
        }
    }

    // Forward walk: defined-so-far kinds, signature checks.
    let read = nodes.iter().flat_map(|node| node.inputs.iter().copied()).collect();
    let mut walk = Walk { first_def, defined_at: HashMap::new(), read, diagnostics: Vec::new() };
    let mut kinds: HashMap<Var, ValueKind> = HashMap::new();
    for (index, node) in nodes.iter().enumerate() {
        walk.node(index, node, &mut kinds);
    }
    let Walk { first_def, defined_at, mut diagnostics, .. } = walk;

    // Liveness: the recorded last-use map must equal the true dataflow
    // last read, for every register that appears anywhere in the plan — a
    // pipeline member's included, which no plan node reads.
    let mut actual_last_use: HashMap<Var, usize> = HashMap::new();
    for (index, node) in nodes.iter().enumerate() {
        for var in &node.inputs {
            actual_last_use.insert(*var, index);
        }
    }
    let mut seen: Vec<Var> =
        first_def.keys().chain(defined_at.keys()).chain(actual_last_use.keys()).copied().collect();
    seen.sort_unstable();
    seen.dedup();
    for var in seen {
        let recorded = plan.last_use(var);
        let actual = actual_last_use.get(&var).copied();
        if recorded != actual {
            diagnostics.push(PlanDiagnostic::LastUseMismatch { var, recorded, actual });
        }
    }

    VerifyReport { diagnostics, flush_bound: flush_bound(plan), nodes: nodes.len() }
}

/// The flush-boundary pass (module docs): walks the nodes with a
/// pending-work flag, charging boundary nodes one flush when work is
/// pending and degrading to [`FlushBound::DataDependent`] on the first
/// host-resolving operator.
fn flush_bound(plan: &Plan) -> FlushBound {
    let mut pending = false;
    let mut boundary = 0usize;
    let mut host_resolving = 0usize;
    for node in plan.nodes() {
        match signature(&node.op).2 {
            FlushClass::Streaming => pending = true,
            FlushClass::HostResolving => {
                host_resolving += 1;
                // Host-resolving operators flush internally but also
                // enqueue follow-up kernels, so work stays pending.
                pending = true;
            }
            FlushClass::Boundary => {
                if pending {
                    boundary += 1;
                    pending = false;
                }
            }
        }
    }
    if host_resolving == 0 {
        FlushBound::AtMost(boundary)
    } else {
        FlushBound::DataDependent { boundary, host_resolving }
    }
}

/// Raw-node append support for [`crate::plan::PlanBuilder::push_node`]:
/// checks definitions and single assignment, returning the output kinds to
/// record. Kind/arity validation beyond that is the verifier's job.
pub(crate) fn admit_raw_node(
    node: &PlanNode,
    kinds: &HashMap<Var, ValueKind>,
) -> Result<Cow<'static, [ValueKind]>, PlanError> {
    for var in &node.inputs {
        if !kinds.contains_key(var) {
            return Err(PlanError::UndefinedVar { var: *var });
        }
    }
    for out in &node.outputs {
        if kinds.contains_key(out) {
            return Err(PlanError::DuplicateDefinition { var: *out });
        }
    }
    Ok(output_kinds(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Map, Pred};
    use crate::plan::PlanBuilder;

    fn q6_like() -> Plan {
        let mut p = PlanBuilder::new();
        let qty = p.bind("lineitem", "l_quantity");
        let price = p.bind("lineitem", "l_extendedprice");
        let disc = p.bind("lineitem", "l_discount");
        let sel = p.select(Pred::RangeI32 { col: 0, low: 0, high: 23 }, &[qty], None).unwrap();
        let price_sel = p.fetch(price, sel).unwrap();
        let disc_sel = p.fetch(disc, sel).unwrap();
        let revenue = p.map(Map::Mul(Map::leaf(0), Map::leaf(1)), &[price_sel, disc_sel]).unwrap();
        let total = p.sum_f32(revenue).unwrap();
        p.result(&[total]).unwrap();
        p.finish()
    }

    #[test]
    fn builder_plans_verify_clean() {
        let report = verify(&q6_like());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn q6_pipeline_is_statically_one_flush() {
        assert_eq!(verify(&q6_like()).flush_bound, FlushBound::AtMost(1));
    }

    #[test]
    fn sync_then_result_still_one_flush() {
        let mut p = PlanBuilder::new();
        let a = p.bind("t", "a");
        let total = p.sum_f32(a).unwrap();
        p.sync(&[total]).unwrap();
        p.result(&[total]).unwrap();
        assert_eq!(verify(&p.finish()).flush_bound, FlushBound::AtMost(1));
    }

    #[test]
    fn joins_degrade_the_bound_to_data_dependent() {
        let mut p = PlanBuilder::new();
        let fk = p.bind("orders", "o_custkey");
        let pk = p.bind("customer", "c_custkey");
        let (fk_oids, _) = p.pkfk_join(fk, pk).unwrap();
        p.result(&[fk_oids]).unwrap();
        assert_eq!(
            verify(&p.finish()).flush_bound,
            FlushBound::DataDependent { boundary: 1, host_resolving: 1 }
        );
    }

    #[test]
    fn use_before_def_and_dangling_are_distinguished() {
        let plan = Plan::from_nodes_unchecked(vec![
            PlanNode {
                op: PlanOp::Map { map: Map::CastI32F32(Map::leaf(0)) },
                inputs: vec![1],
                outputs: vec![0],
            },
            PlanNode {
                op: PlanOp::Bind { table: "t".into(), column: "a".into() },
                inputs: vec![],
                outputs: vec![1],
            },
            PlanNode {
                op: PlanOp::Map { map: Map::Year(Map::leaf(0)) },
                inputs: vec![7],
                outputs: vec![2],
            },
        ]);
        let report = verify(&plan);
        assert!(report.diagnostics.contains(&PlanDiagnostic::UseBeforeDef {
            node: 0,
            op: "cast_i32_f32",
            var: 1,
            defined_at: 1,
        }));
        assert!(report.diagnostics.contains(&PlanDiagnostic::UndefinedInput {
            node: 2,
            op: "extract_year",
            var: 7
        }));
    }

    #[test]
    fn double_definition_is_flagged() {
        let bind = |column: &str, out: Var| PlanNode {
            op: PlanOp::Bind { table: "t".into(), column: column.into() },
            inputs: vec![],
            outputs: vec![out],
        };
        let report = verify(&Plan::from_nodes_unchecked(vec![bind("a", 0), bind("b", 0)]));
        assert!(report.diagnostics.contains(&PlanDiagnostic::DoubleDefine {
            node: 1,
            op: "bind",
            var: 0,
            first: 0,
        }));
    }

    #[test]
    fn kind_and_arity_mismatches_are_flagged() {
        let mut p = PlanBuilder::new();
        let a = p.bind("t", "a");
        let g = p.group_by(&[a]).unwrap();
        p.result(&[a]).unwrap();
        let mut nodes = p.finish().nodes().to_vec();
        // A grouping fed to an element-wise multiply, plus a multiply with
        // a single operand.
        nodes.push(PlanNode {
            op: PlanOp::Map { map: Map::Mul(Map::leaf(0), Map::leaf(1)) },
            inputs: vec![a, g],
            outputs: vec![9],
        });
        nodes.push(PlanNode {
            op: PlanOp::Map { map: Map::Mul(Map::leaf(0), Map::leaf(1)) },
            inputs: vec![a],
            outputs: vec![10],
        });
        let report = verify(&Plan::from_nodes_unchecked(nodes));
        assert!(report.diagnostics.iter().any(|d| matches!(
            d,
            PlanDiagnostic::InputKind { op: "mul_f32", found: ValueKind::Group, .. }
        )));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, PlanDiagnostic::InputArity { op: "mul_f32", found: 1, .. })));
    }

    #[test]
    fn stale_last_use_is_flagged() {
        let mut p = PlanBuilder::new();
        let a = p.bind("t", "a");
        let b = p.map(Map::CastI32F32(Map::leaf(0)), &[a]).unwrap();
        p.result(&[b]).unwrap();
        let nodes = p.finish().nodes().to_vec();
        // Register `a` is last read by node 1, but the map says node 2.
        let plan = Plan::from_parts_unchecked(nodes, [(a, 2), (b, 2)].into_iter().collect());
        let report = verify(&plan);
        assert!(report.diagnostics.contains(&PlanDiagnostic::LastUseMismatch {
            var: a,
            recorded: Some(2),
            actual: Some(1),
        }));
    }

    #[test]
    fn reports_render_one_line_per_diagnostic() {
        let plan = Plan::from_nodes_unchecked(vec![PlanNode {
            op: PlanOp::SumF32,
            inputs: vec![3],
            outputs: vec![0],
        }]);
        let rendered = verify(&plan).to_string();
        assert!(rendered.contains("verification failed"), "{rendered}");
        assert!(rendered.contains("v3"), "{rendered}");
    }
}
