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
//! operator) or composes the members' programs into one (`Program::of`:
//! every conjunct re-slotted into the region's column slots, every map
//! substituted into the tree of the member reading it) and evaluates it in
//! one pass (`OcelotBackend`).
//!
//! # Region grammar
//!
//! A region is a set of nodes over **one base table**, ending in a sink,
//! whose interior values have **no reader outside the region** — but for a
//! grouping's keys:
//!
//! ```text
//! region   := chain                                -> one bitmap, one OID list
//!           | [chain] leaves [grouping] maps* sink -> one accumulate + one fold launch
//! chain    := select(base…) select(base…, previous)+     (>= 2 conjuncts;
//!             >= 1 when it feeds an ungrouped sink or a grouping)
//! leaves   := fetch(base, C)+   all through one candidate list C
//!           | base+             the table's rows as they lie
//! grouping := group_by(leaves) [group_reps fetch(key, reps)*]
//! maps     := mul add sub const_minus const_plus mul_const cast year
//! sink     := sum_f32 | grouped_aggs
//! ```
//!
//! `base` is the output of a `bind`. `C` is the chain's result when the
//! chain is private to the region and the sink is ungrouped or takes its
//! grouping along — then no OID list is ever built — and a region input
//! otherwise (a selection something else reads too, a join side's row ids).
//! Group ids from outside align with `C`'s positions, so a sink grouped by
//! them never absorbs its chain.
//!
//! A **grouping** joins the region of the `grouped_aggs` that reads it when
//! its `group_by` keys are leaves of the region's table through the same
//! rows, its group is read by nothing but the sink and one `group_reps`, and
//! those representatives are read by nothing but fetches of the grouping's
//! own keys — the node then also hands those key columns on (its outputs are
//! every member value read outside, in plan order). It joins only a region
//! that reads its table's rows itself, through its own chain or as they lie:
//! through a list from outside, the key range launch would read whole base
//! columns for a few listed rows. On Ocelot the group is then a code computed
//! per tile (`aggregate::keyed_aggs`) and no id, representative or key
//! column is ever built.
//!
//! Never fused: host-resolving operators (joins, sorts, unions, a grouping
//! but as above); any other value something outside the region reads;
//! selections over columns that are not base columns (the positional
//! re-selections after a join); a conjunct whose candidates come from
//! anywhere but the previous conjunct. The decision reads plan structure
//! only — operator kinds, reader counts, `bind` provenance — never sizes,
//! statistics or the backend.

use crate::backend::GroupedAgg;
use crate::plan::{Plan, PlanNode, PlanOp, Var};
use ocelot_core::ops::rowexpr::{Map, Pred};
use std::collections::HashMap;

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

    /// The nodes that read `var`, in plan order.
    fn readers(&self, var: Var) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(move |index| self.nodes[*index].inputs.contains(&var))
    }

    /// Whether every output of `members` but those of `open` (the sink and a
    /// grouping's key fetches) is read by members only.
    fn private(&self, members: &[usize], open: &[usize]) -> bool {
        let interior = members.iter().filter(|member| !open.contains(member));
        interior
            .flat_map(|member| &self.nodes[*member].outputs)
            .all(|out| self.read_only_by(*out, members))
    }

    /// The unclaimed selection node `index` as a conjunct over base columns
    /// of `table` (any table when `None`): its table and its candidate list.
    fn conjunct(&self, index: usize, table: Option<&str>) -> Option<(&str, Option<Var>)> {
        let node = self.nodes.get(index).filter(|node| matches!(node.op, PlanOp::Select { .. }))?;
        let columns = node.program_operands().ok()?;
        let mut tables = node.inputs[..columns].iter().map(|var| self.base_table(*var));
        let first = tables.next()??;
        let same = tables.all(|t| t == Some(first)) && table.is_none_or(|t| t == first);
        (same && self.region[index] == NONE).then(|| (first, node.inputs.get(columns).copied()))
    }

    /// The grouping the grouped sink `sink` may take along: the `group_by`
    /// writing its group, read by nothing but the sink and one `group_reps`
    /// whose only readers are fetches of the grouping's own key columns at
    /// the representatives — all of them before the sink, their results
    /// read only after it. Returns those nodes and the fetches.
    fn grouping(&self, sink: usize) -> Option<(Vec<usize>, Vec<usize>)> {
        let group = *self.nodes[sink].inputs.first()?;
        let by = *self.producer.get(group)?;
        let keys = &self.nodes.get(by).filter(|node| node.op == PlanOp::GroupBy)?.inputs;
        let mut members = vec![by];
        let mut fetches = Vec::new();
        for reader in self.readers(group).filter(|reader| *reader != sink) {
            if self.nodes[reader].op != PlanOp::GroupReps || members.len() > 1 {
                return None;
            }
            members.push(reader);
            let reps = self.nodes[reader].outputs[0];
            for fetch in self.readers(reps) {
                let node = &self.nodes[fetch];
                let keyed = node.op == PlanOp::Fetch
                    && node.inputs[1] == reps
                    && keys.contains(&node.inputs[0])
                    && self.readers(node.outputs[0]).all(|later| later > sink);
                if !keyed {
                    return None;
                }
                fetches.push(fetch);
            }
        }
        members.extend(&fetches);
        members.iter().all(|member| *member < sink).then_some((members, fetches))
    }

    /// The region ending in the aggregating node `sink`, if there is one:
    /// its members, in plan order. `grouped`: the sink takes its grouping
    /// along.
    fn aggregate_region(&self, sink: usize, grouped: bool) -> Option<Vec<usize>> {
        let mut members = vec![sink];
        let mut open = vec![sink];
        // `None`: no leaf seen yet; `Some(None)`: rows as they lie;
        // `Some(Some(c))`: fetched through `c`.
        let mut through: Option<Option<Var>> = None;
        let mut table: Option<&str> = None;
        // Operands still to trace back to their leaves, and whether each is
        // a key: keys are leaves like the values', never computed.
        let mut pending: Vec<(Var, bool)> =
            sink_values(&self.nodes[sink])?.iter().map(|var| (*var, false)).collect();
        if grouped {
            let (grouping, fetches) = self.grouping(sink)?;
            pending.extend(self.nodes[grouping[0]].inputs.iter().map(|var| (*var, true)));
            members.extend(grouping);
            open.extend(fetches);
        }
        while let Some((var, key)) = pending.pop() {
            let index = *self.producer.get(var)?;
            let node = self.nodes.get(index)?;
            let (leaf, list) = match &node.op {
                PlanOp::Bind { .. } => (var, None),
                PlanOp::Fetch => (node.inputs[0], Some(node.inputs[1])),
                PlanOp::Map { .. } if !key => {
                    members.push(index);
                    pending.extend(node.inputs.iter().map(|var| (*var, false)));
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
        if members.len() < 2 || !free || !self.private(&members, &open) {
            return None;
        }
        // An ungrouped sink, or one that took its grouping along, takes its
        // selection chain along when nothing else reads it — and a grouping
        // joins only a region that reads its table's rows itself, through
        // its own chain or as they lie, never through a list from outside.
        let ungrouped = self.nodes[sink].op == PlanOp::SumF32;
        if let (true, Some(Some(list))) = (ungrouped || grouped, through) {
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
            if next.is_none() && self.private(&chain, &open) {
                members = chain;
            } else if grouped {
                return None;
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
                true => flow
                    .aggregate_region(index, true)
                    .or_else(|| flow.aggregate_region(index, false)),
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
    // What every pipeline node writes: the sink's values, and any other
    // member's that something outside reads (a grouping's keys), in plan
    // order.
    let exits: Vec<Vec<Var>> = regions
        .iter()
        .map(|members| {
            let sink = &nodes[*members.last().expect("a region has a sink")];
            let outputs = members.iter().flat_map(|member| &nodes[*member].outputs);
            let exits = outputs
                .filter(|out| sink.outputs.contains(out) || !flow.read_only_by(**out, members));
            exits.copied().collect()
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
        let outputs = exits[at].clone();
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
    /// Aggregates of the value expressions, per group of `groups`.
    Aggs {
        /// The groups.
        groups: ProgramGroups,
        /// The aggregates' value columns, as expressions over the slots.
        values: Vec<Map>,
        /// The aggregates, naming `values` by position.
        funcs: Vec<GroupedAgg>,
    },
}

/// The groups of an aggregating [`Program`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProgramGroups {
    /// One group: the ungrouped sum.
    One,
    /// The grouping in this register, computed outside the region.
    Ids(Var),
    /// The region's own `group_by`, over the key columns in these slots.
    Keys(Vec<usize>),
}

/// One output of a `pipeline` node: the sink's result, or a key column of
/// the region's own grouping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ProgramOutput {
    /// The sink's result at this position.
    Sink(usize),
    /// The key column at this position among the grouping's keys, one value
    /// per group.
    Key(usize),
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
    /// The node's outputs, in order.
    pub outputs: Vec<ProgramOutput>,
}

impl Program {
    /// Takes the region of `node` apart. `None` when the node is not a
    /// pipeline or its members do not follow the region grammar (module
    /// docs) — run such a node member by member.
    pub(crate) fn of(node: &PlanNode) -> Option<Program> {
        let (sink, interior) = node.members().split_last()?;
        let external = |var: &Var| node.inputs.contains(var);
        // The chain is a prefix of the members; what follows computes values.
        let chain = interior.iter().take_while(|m| matches!(m.op, PlanOp::Select { .. })).count();
        let (chain, computing) = match sink.op {
            PlanOp::Select { .. } if chain == interior.len() => (node.members(), &[][..]),
            PlanOp::Select { .. } => return None,
            _ => interior.split_at(chain),
        };
        let producers: HashMap<Var, &PlanNode> =
            computing.iter().map(|member| (member.outputs[0], member)).collect();

        // Column slots: every region input read as a column, in first-use
        // order — a conjunct's columns, a fetch's source, a map's or the
        // sink's direct operand.
        let mut cols: Vec<Var> = Vec::new();
        for member in node.members() {
            let columns = match &member.op {
                PlanOp::Select { .. } => &member.inputs[..member.program_operands().ok()?],
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
            let PlanOp::Select { pred } = &member.op else { return None };
            let columns = member.program_operands().ok()?;
            if member.inputs.get(columns).copied() != selected {
                return None;
            }
            preds.push(pred.reslot(|at| slot(*member.inputs.get(at)?))?);
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

        // The groups: none, a grouping from outside, or the region's own —
        // whose keys are column slots read like the values' leaves.
        let group = sink.inputs.first().filter(|_| matches!(sink.op, PlanOp::GroupedAggs { .. }));
        let (groups, keys) = match (group, group.and_then(|group| producers.get(group))) {
            (None, _) => (ProgramGroups::One, &[][..]),
            (Some(group), None) if external(group) => (ProgramGroups::Ids(*group), &[][..]),
            (Some(_), Some(by)) if by.op == PlanOp::GroupBy => {
                let slots = (by.inputs.iter())
                    .map(|key| match tree.build(*key, operands.len(), true)? {
                        Map::Col(slot) if slot < cols.len() => Some(slot),
                        _ => None,
                    })
                    .collect::<Option<_>>()?;
                (ProgramGroups::Keys(slots), &by.inputs[..])
            }
            _ => return None,
        };
        let (lists, direct) = (tree.lists, tree.direct);
        // What the node writes: the sink's results, and the grouping's keys
        // fetched at its representatives.
        let outputs = (node.outputs.iter())
            .map(|out| match sink.outputs.iter().position(|result| result == out) {
                Some(position) => Some(ProgramOutput::Sink(position)),
                None => {
                    let fetch = computing.iter().find(|member| member.outputs.contains(out))?;
                    let key = keys.iter().position(|key| *key == fetch.inputs[0])?;
                    (fetch.op == PlanOp::Fetch).then_some(ProgramOutput::Key(key))
                }
            })
            .collect::<Option<_>>()?;

        let sink = match &sink.op {
            PlanOp::Select { .. } => ProgramSink::Oids,
            PlanOp::SumF32 => ProgramSink::Aggs { groups, values, funcs: vec![GroupedAgg::Sum(0)] },
            PlanOp::GroupedAggs { funcs } => {
                ProgramSink::Aggs { groups, values, funcs: funcs.clone() }
            }
            _ => return None,
        };
        // One row source: the chain, one external list, or the rows as they
        // lie — and ids from outside never align with a chain's rows.
        let list = lists.first().copied();
        let rows = match (selected, list, &sink) {
            _ if lists.iter().any(|other| Some(*other) != list) || (direct && list.is_some()) => {
                return None
            }
            (Some(_), None, ProgramSink::Oids) => ProgramRows::Where(preds),
            (Some(_), _, ProgramSink::Aggs { groups: ProgramGroups::Ids(_), .. }) => return None,
            (Some(chain), Some(list), ProgramSink::Aggs { .. }) if chain == list => {
                ProgramRows::Where(preds)
            }
            (None, Some(list), ProgramSink::Aggs { .. }) if external(&list) => {
                ProgramRows::Candidates(list)
            }
            (None, None, ProgramSink::Aggs { .. }) => ProgramRows::All,
            _ => return None,
        };
        Some(Program { cols, rows, sink, outputs })
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
        let PlanOp::Map { map } = &member.op else { return None };
        map.substitute(&mut |at| self.build(*member.inputs.get(at)?, index, false))
    }
}
