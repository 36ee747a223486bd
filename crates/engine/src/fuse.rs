//! Fused streaming pipelines: the plan rewrite that turns chains of
//! streaming nodes into one [`PlanOp::Pipeline`] node each.
//!
//! Selection and aggregation are memory-traffic-bound: every pass over a
//! column is the cost. The lowering emits one node per logical step, so a
//! conjunction of k predicates is k bitmap + materialise + gather rounds and
//! an aggregate over `a * (1 - b)` writes three intermediate columns before
//! anything is summed. [`fuse_plan`] runs after lowering and collapses the
//! regions below; a backend either runs the members one by one
//! ([`crate::Backend::pipeline`]'s default — the unfused plan, operator for
//! operator) or takes the region apart (`Program::of`) and evaluates it in
//! one pass (`OcelotBackend`).
//!
//! # Region grammar
//!
//! A region is a set of nodes over **one base table**, ending in a sink,
//! whose interior values have **no reader outside the region**:
//!
//! ```text
//! region  := chain                         -> one bitmap, one OID list
//!          | [chain] leaves maps* sink     -> one accumulate + one fold launch
//! chain   := select(base…) select(base…, previous)+      (>= 2 conjuncts;
//!            >= 1 when it feeds an ungrouped sink)
//! leaves  := fetch(base, C)+   all through one candidate list C
//!          | base+             the table's rows as they lie
//! maps    := mul add sub const_minus const_plus mul_const cast year
//! sink    := sum_f32 | grouped_aggs
//! ```
//!
//! `base` is the output of a `bind`. `C` is the chain's result when the
//! chain is private to the region and the sink is ungrouped — then no OID
//! list is ever built — and a region input otherwise (a selection something
//! else reads too, a join side's row ids). Group ids align with `C`'s
//! positions, so a grouped sink never absorbs its chain.
//!
//! Never fused: host-resolving operators (joins, grouping, sorts, unions);
//! any value something outside the region reads; selections over columns
//! that are not base columns (the positional re-selections after a join);
//! a conjunct whose candidates come from anywhere but the previous conjunct.
//! The decision reads plan structure only — operator kinds, reader counts,
//! `bind` provenance — never sizes, statistics or the backend.

use crate::backend::GroupedAgg;
use crate::plan::{Plan, PlanNode, PlanOp, Var};
use ocelot_core::ops::rowexpr::{Map, Pred};
use std::collections::HashMap;

/// How many column operands a selection has, if `op` is one.
fn select_columns(op: &PlanOp) -> Option<usize> {
    match op {
        PlanOp::SelectRangeI32 { .. }
        | PlanOp::SelectRangeF32 { .. }
        | PlanOp::SelectEqI32 { .. }
        | PlanOp::SelectNeI32 { .. }
        | PlanOp::SelectInI32 { .. } => Some(1),
        PlanOp::SelectCmpI32 { .. } => Some(2),
        _ => None,
    }
}

/// The element-wise maps.
fn is_map(op: &PlanOp) -> bool {
    matches!(
        op,
        PlanOp::MulF32
            | PlanOp::AddF32
            | PlanOp::SubF32
            | PlanOp::ConstMinusF32 { .. }
            | PlanOp::ConstPlusF32 { .. }
            | PlanOp::MulConstF32 { .. }
            | PlanOp::CastI32F32
            | PlanOp::ExtractYear
    )
}

/// The value operands of an aggregating sink.
fn sink_values(node: &PlanNode) -> Option<&[Var]> {
    match node.op {
        PlanOp::SumF32 => Some(&node.inputs),
        PlanOp::GroupedAggs { .. } => node.inputs.get(1..),
        _ => None,
    }
}

/// "No node": the absent entry of the per-register and per-node tables.
const NONE: usize = usize::MAX;

/// The plan's dataflow, as [`fuse_plan`] reads it. Registers are small dense
/// integers, so every table is a vector indexed by register or node.
struct Flow<'a> {
    nodes: &'a [PlanNode],
    /// Per register: the node writing it, and how often nodes read it.
    producer: Vec<usize>,
    reads: Vec<usize>,
    /// Per node: the sink of the region that claimed it.
    region: Vec<usize>,
}

impl Flow<'_> {
    /// The table `var` is a base column of.
    fn base_table(&self, var: Var) -> Option<&str> {
        match &self.nodes.get(*self.producer.get(var)?)?.op {
            PlanOp::Bind { table, .. } => Some(table),
            _ => None,
        }
    }

    /// Whether `members` hold every read of `var`.
    fn read_only_by(&self, var: Var, members: &[usize]) -> bool {
        let inside = members.iter().flat_map(|member| &self.nodes[*member].inputs);
        inside.filter(|input| **input == var).count() == self.reads[var]
    }

    /// Whether every output of `members` (but the sink's) is read by members
    /// only.
    fn private(&self, members: &[usize], sink: usize) -> bool {
        let interior = members.iter().filter(|member| **member != sink);
        interior
            .flat_map(|member| &self.nodes[*member].outputs)
            .all(|out| self.read_only_by(*out, members))
    }

    /// The unclaimed selection node `index` as a conjunct over base columns
    /// of `table` (any table when `None`): its table and its candidate list.
    fn conjunct(&self, index: usize, table: Option<&str>) -> Option<(&str, Option<Var>)> {
        let node = self.nodes.get(index)?;
        let columns = select_columns(&node.op)?;
        let mut tables = node.inputs[..columns].iter().map(|var| self.base_table(*var));
        let first = tables.next()??;
        let same = tables.all(|t| t == Some(first)) && table.is_none_or(|t| t == first);
        (same && self.region[index] == NONE).then(|| (first, node.inputs.get(columns).copied()))
    }

    /// The region ending in the aggregating node `sink`, if there is one:
    /// its members, in plan order.
    fn aggregate_region(&self, sink: usize) -> Option<Vec<usize>> {
        let mut members = vec![sink];
        // `None`: no leaf seen yet; `Some(None)`: rows as they lie;
        // `Some(Some(c))`: fetched through `c`.
        let mut through: Option<Option<Var>> = None;
        let mut table: Option<&str> = None;
        let mut pending: Vec<Var> = sink_values(&self.nodes[sink])?.to_vec();
        while let Some(var) = pending.pop() {
            let index = *self.producer.get(var)?;
            let node = self.nodes.get(index)?;
            let (leaf, list) = match &node.op {
                PlanOp::Bind { .. } => (var, None),
                PlanOp::Fetch => (node.inputs[0], Some(node.inputs[1])),
                op if is_map(op) => {
                    members.push(index);
                    pending.extend(&node.inputs);
                    continue;
                }
                _ => return None,
            };
            let leaf_table = self.base_table(leaf)?;
            if *through.get_or_insert(list) != list
                || *table.get_or_insert(leaf_table) != leaf_table
            {
                return None;
            }
            if list.is_some() {
                members.push(index);
            }
        }
        members.sort_unstable();
        members.dedup();
        let free = members.iter().all(|member| self.region[*member] == NONE);
        if members.len() < 2 || !free || !self.private(&members, sink) {
            return None;
        }
        // An ungrouped sink takes its selection chain along when nothing
        // else reads it.
        if let (PlanOp::SumF32, Some(Some(list))) = (&self.nodes[sink].op, through) {
            let mut chain = members.clone();
            let mut next = Some(list);
            while let Some((index, (_, cands))) = next
                .and_then(|var| self.producer.get(var))
                .and_then(|index| Some((*index, self.conjunct(*index, table)?)))
            {
                chain.push(index);
                next = cands;
            }
            chain.sort_unstable();
            if next.is_none() && self.private(&chain, sink) {
                members = chain;
            }
        }
        Some(members)
    }

    /// The conjunctive chain starting at the selection `root`, if it has at
    /// least two conjuncts: its members, in plan order.
    fn chain_region(&self, root: usize) -> Option<Vec<usize>> {
        let (table, None) = self.conjunct(root, None)? else { return None };
        let mut members = vec![root];
        // The next conjunct is the one reader of the last one's result, and
        // reads it as its candidates.
        while let Some(out) = members.last().map(|last| self.nodes[*last].outputs[0]) {
            let reader = (self.reads[out] == 1)
                .then(|| self.nodes.iter().position(|node| node.inputs.contains(&out)))
                .flatten();
            match reader.and_then(|reader| Some((reader, self.conjunct(reader, Some(table))?))) {
                Some((reader, (_, Some(cands)))) if cands == out => members.push(reader),
                _ => break,
            }
        }
        (members.len() >= 2).then_some(members)
    }
}

/// Fuses every region of `plan` (module docs) into a `pipeline` node placed
/// where the region's sink was. Returns the fused plan — the same plan when
/// nothing fuses — and one note per region. Deterministic: regions are found
/// in node order and member order is plan order.
pub fn fuse_plan(plan: Plan) -> (Plan, Vec<String>) {
    let nodes = plan.nodes();
    let registers = nodes
        .iter()
        .flat_map(|node| node.inputs.iter().chain(&node.outputs))
        .max()
        .map_or(0, |v| v + 1);
    let mut flow = Flow {
        nodes,
        producer: vec![NONE; registers],
        reads: vec![0; registers],
        region: vec![NONE; nodes.len()],
    };
    for (index, node) in nodes.iter().enumerate() {
        node.inputs.iter().for_each(|var| flow.reads[*var] += 1);
        node.outputs.iter().for_each(|out| flow.producer[*out] = index);
    }
    // Aggregating sinks first — they may take a chain along — then the
    // chains that are left. A region is keyed by its sink, its last member.
    let mut regions: Vec<Vec<usize>> = Vec::new();
    for aggregates in [true, false] {
        for index in 0..nodes.len() {
            let found = match aggregates {
                true => flow.aggregate_region(index),
                false => flow.chain_region(index),
            };
            if let Some(members) = found {
                let sink = *members.last().expect("a region has a sink");
                members.iter().for_each(|member| flow.region[*member] = sink);
                regions.push(members);
            }
        }
    }
    if regions.is_empty() {
        return (plan, Vec::new());
    }
    // A `bind` only one region reads moves down to it, so the base column is
    // pinned from where the region runs — not from where its first member
    // used to — and dies with it, as it died with its last fetch before.
    let mut homes = vec![NONE; nodes.len()];
    for members in &regions {
        for var in members.iter().flat_map(|member| &nodes[*member].inputs) {
            let bind = flow.producer[*var];
            let sinks = nodes.get(bind).is_some_and(|node| matches!(node.op, PlanOp::Bind { .. }))
                && flow.read_only_by(*var, members);
            if sinks {
                homes[bind] = *members.last().expect("a region has a sink");
            }
        }
    }
    // What every pipeline node reads: its members' inputs nobody in the
    // region writes, in first-use order.
    let interfaces: Vec<Vec<Var>> = regions
        .iter()
        .map(|members| {
            let mut inputs: Vec<Var> = Vec::new();
            for var in members.iter().flat_map(|member| &nodes[*member].inputs) {
                let inside = flow.region.get(flow.producer[*var]) == members.last();
                if !inside && !inputs.contains(var) {
                    inputs.push(*var);
                }
            }
            inputs
        })
        .collect();
    let region = flow.region;
    let source = plan.source().cloned();
    let mut nodes: Vec<Option<PlanNode>> = plan.into_nodes().into_iter().map(Some).collect();
    let mut fused = Vec::with_capacity(nodes.len());
    let mut notes = Vec::new();
    for index in 0..nodes.len() {
        if region[index] != index {
            if region[index] == NONE && homes[index] == NONE {
                fused.extend(nodes[index].take());
            }
            continue;
        }
        let at = regions.iter().position(|members| members.last() == Some(&index));
        let at = at.expect("the sink of a region");
        fused.extend(
            (0..index).filter(|bind| homes[*bind] == index).filter_map(|bind| nodes[bind].take()),
        );
        let members: Vec<PlanNode> =
            regions[at].iter().filter_map(|member| nodes[*member].take()).collect();
        let outputs = members.last().map_or(Vec::new(), |sink| sink.outputs.clone());
        let pipeline =
            PlanNode { op: PlanOp::Pipeline { members }, inputs: interfaces[at].clone(), outputs };
        notes.push(format!(
            "fused nodes {:?} into `{}` at node {}",
            regions[at],
            pipeline.op,
            fused.len()
        ));
        fused.push(pipeline);
    }
    let fused = Plan::from_nodes_unchecked(fused);
    (source.into_iter().fold(fused, Plan::with_source), notes)
}

/// Which rows a [`Program`] runs over.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProgramRows {
    /// Every row of the column slots.
    All,
    /// The rows the candidate list in this register names.
    Candidates(Var),
    /// The rows on which every conjunct holds.
    Where(Vec<Pred>),
}

/// What a [`Program`] produces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProgramSink {
    /// The qualifying rows, as an OID list.
    Oids,
    /// Aggregates of the value expressions: per group of the grouping in
    /// `group`, or — `None` — over all rows (the ungrouped sum).
    Aggs {
        /// The grouping register.
        group: Option<Var>,
        /// The aggregates' value columns, as expressions over the slots.
        values: Vec<Map>,
        /// The aggregates, naming `values` by position.
        funcs: Vec<GroupedAgg>,
    },
}

/// A `pipeline` node taken apart into the row-expression evaluator's terms
/// (`ocelot_core::ops::rowexpr`): column slots, a row source, a sink.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Program {
    /// The registers holding the column slots, in slot order.
    pub cols: Vec<Var>,
    /// The row source.
    pub rows: ProgramRows,
    /// The sink.
    pub sink: ProgramSink,
}

impl Program {
    /// Takes the region of `node` apart. `None` when the node is not a
    /// pipeline or its members do not follow the region grammar (module
    /// docs) — run such a node member by member.
    pub(crate) fn of(node: &PlanNode) -> Option<Program> {
        let (sink, interior) = node.members().split_last()?;
        let external = |var: &Var| node.inputs.contains(var);
        // The chain is a prefix of the members; what follows computes values.
        let chain = interior.iter().take_while(|m| select_columns(&m.op).is_some()).count();
        let (chain, computing) = match select_columns(&sink.op) {
            Some(_) if chain == interior.len() => (node.members(), &[][..]),
            Some(_) => return None,
            None => interior.split_at(chain),
        };
        let producers: HashMap<Var, &PlanNode> =
            computing.iter().map(|member| (member.outputs[0], member)).collect();

        // Column slots: every region input read as a column, in first-use
        // order — a conjunct's columns, a fetch's source, a map's or the
        // sink's direct operand.
        let mut cols: Vec<Var> = Vec::new();
        for member in node.members() {
            let columns = match &member.op {
                op if select_columns(op).is_some() => &member.inputs[..select_columns(op)?],
                PlanOp::Fetch => &member.inputs[..1],
                PlanOp::GroupedAggs { .. } => member.inputs.get(1..)?,
                _ => &member.inputs[..],
            };
            for var in columns.iter().filter(|var| external(var)) {
                if !cols.contains(var) {
                    cols.push(*var);
                }
            }
        }
        let slot = |var: Var| cols.iter().position(|col| *col == var);

        let mut preds: Vec<Pred> = Vec::new();
        let mut selected: Option<Var> = None;
        for member in chain {
            let columns = select_columns(&member.op)?;
            if member.inputs.get(columns).copied() != selected {
                return None;
            }
            let col = slot(member.inputs[0])?;
            preds.push(match &member.op {
                PlanOp::SelectRangeI32 { low, high } => {
                    Pred::RangeI32 { col, low: *low, high: *high }
                }
                PlanOp::SelectRangeF32 { low, high } => {
                    Pred::RangeF32 { col, low: *low, high: *high }
                }
                PlanOp::SelectEqI32 { needle } => Pred::EqI32 { col, needle: *needle },
                PlanOp::SelectNeI32 { needle } => Pred::NeI32 { col, needle: *needle },
                PlanOp::SelectInI32 { values } => {
                    Pred::InI32 { col, values: values.as_slice().into() }
                }
                PlanOp::SelectCmpI32 { op } => {
                    Pred::CmpI32 { op: *op, left: col, right: slot(member.inputs[1])? }
                }
                _ => return None,
            });
            selected = Some(member.outputs[0]);
        }

        // The sink's value columns, each a tree over the slots. A computed
        // value an earlier operand of the sink already holds is read from
        // there (operand `cols.len() + k`) instead of being computed again.
        let operands: &[Var] = sink_values(sink).unwrap_or(&[]);
        let mut tree =
            Tree { cols: &cols, producers: &producers, operands, lists: Vec::new(), direct: false };
        let values: Vec<Map> = (0..operands.len())
            .map(|index| tree.build(operands[index], index, true))
            .collect::<Option<_>>()?;
        let (lists, direct) = (tree.lists, tree.direct);

        let sink = match &sink.op {
            op if select_columns(op).is_some() => ProgramSink::Oids,
            PlanOp::SumF32 => {
                ProgramSink::Aggs { group: None, values, funcs: vec![GroupedAgg::Sum(0)] }
            }
            PlanOp::GroupedAggs { funcs } => ProgramSink::Aggs {
                group: Some(*sink.inputs.first().filter(|group| external(group))?),
                values,
                funcs: funcs.clone(),
            },
            _ => return None,
        };
        // One row source: the chain, one external list, or the rows as they
        // lie — and a grouped sink's ids never align with a chain's rows.
        let list = lists.first().copied();
        let rows = match (selected, list, &sink) {
            _ if lists.iter().any(|other| Some(*other) != list) || (direct && list.is_some()) => {
                return None
            }
            (Some(_), None, ProgramSink::Oids) => ProgramRows::Where(preds),
            (Some(chain), Some(list), ProgramSink::Aggs { group: None, .. }) if chain == list => {
                ProgramRows::Where(preds)
            }
            (None, Some(list), ProgramSink::Aggs { .. }) if external(&list) => {
                ProgramRows::Candidates(list)
            }
            (None, None, ProgramSink::Aggs { .. }) => ProgramRows::All,
            _ => return None,
        };
        Some(Program { cols, rows, sink })
    }
}

/// Builds the value trees of [`Program::of`].
struct Tree<'a> {
    /// The column slots.
    cols: &'a [Var],
    /// The computing members, by the register they write.
    producers: &'a HashMap<Var, &'a PlanNode>,
    /// The sink's value operands.
    operands: &'a [Var],
    /// The candidate lists fetches went through.
    lists: Vec<Var>,
    /// Whether a value read a region input as it lies.
    direct: bool,
}

impl Tree<'_> {
    /// The tree of `var` as the sink's operand `index` (`root`) or a part of
    /// it.
    fn build(&mut self, var: Var, index: usize, root: bool) -> Option<Map> {
        let slot = |var: Var| self.cols.iter().position(|col| *col == var).map(Map::Col);
        let Some(member) = self.producers.get(&var) else {
            self.direct = true;
            return slot(var);
        };
        if let PlanOp::Fetch = member.op {
            self.lists.push(member.inputs[1]);
            return slot(member.inputs[0]);
        }
        let held = self.operands[..index].iter().position(|operand| *operand == var);
        if let (Some(earlier), false) = (held, root) {
            return Some(Map::Col(self.cols.len() + earlier));
        }
        let mut operand =
            |at: usize| Some(Box::new(self.build(*member.inputs.get(at)?, index, false)?));
        Some(match &member.op {
            PlanOp::MulF32 => Map::Mul(operand(0)?, operand(1)?),
            PlanOp::AddF32 => Map::Add(operand(0)?, operand(1)?),
            PlanOp::SubF32 => Map::Sub(operand(0)?, operand(1)?),
            PlanOp::ConstMinusF32 { constant } => Map::ConstMinus(*constant, operand(0)?),
            PlanOp::ConstPlusF32 { constant } => Map::ConstPlus(*constant, operand(0)?),
            PlanOp::MulConstF32 { constant } => Map::MulConst(operand(0)?, *constant),
            PlanOp::CastI32F32 => Map::CastI32F32(operand(0)?),
            PlanOp::ExtractYear => Map::Year(operand(0)?),
            _ => return None,
        })
    }
}
