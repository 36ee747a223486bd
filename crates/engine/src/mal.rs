//! A miniature MAL layer: program representation, the Ocelot query rewriter
//! and a **compiler** into the engine's operator DAG.
//!
//! MonetDB compiles SQL into MAL (MonetDB Assembly Language) programs whose
//! instructions name the module implementing them (`algebra.select`,
//! `batcalc.*`, `aggr.sum`, …). Ocelot advertises its operators under an
//! `ocelot` module and the *query rewriter* reroutes instructions to those
//! implementations and inserts explicit `ocelot.sync` instructions wherever
//! ownership of a BAT passes back to MonetDB (paper §3.1, §3.4).
//!
//! Since PR 3 this layer no longer interprets programs statement by
//! statement. [`compile`] lowers a [`MalPlan`] into a
//! [`Plan`](crate::plan::Plan) — the explicit operator DAG the
//! [`crate::scheduler`] admits and interleaves — checking variable
//! definitions and operand kinds in the process (MAL's mutable registers
//! become SSA registers of the DAG). [`execute`] remains as the one-shot
//! convenience: compile, then run to completion on a backend.

use crate::backend::{Backend, Map, Pred};
use crate::plan::{Plan, PlanBuilder, PlanError};
use ocelot_storage::Catalog;
use std::collections::HashMap;

pub use crate::plan::QueryValue as MalValue;
pub use crate::plan::Var;

/// The module an instruction is routed to. MonetDB modules (`algebra`,
/// `batcalc`, `aggr`) are replaced by `ocelot` during rewriting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    /// MonetDB's relational algebra module.
    Algebra,
    /// MonetDB's column arithmetic module.
    Batcalc,
    /// MonetDB's aggregation module.
    Aggr,
    /// The BAT/storage module (binds base columns; never rewritten).
    Bat,
    /// Ocelot's drop-in operator module.
    Ocelot,
}

/// One MAL instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum MalInstr {
    /// `out := bat.bind(table, column)`
    Bind { module: Module, table: String, column: String, out: Var },
    /// `out := <module>.select(input, low, high)` (inclusive integer range).
    SelectRangeI32 { module: Module, input: Var, low: i32, high: i32, out: Var },
    /// `out := <module>.projection(oids, values)` (left fetch join).
    Fetch { module: Module, values: Var, oids: Var, out: Var },
    /// `out := <module>.mul(a, b)` over floats.
    MulF32 { module: Module, a: Var, b: Var, out: Var },
    /// `out := <module>.sum(values)` (scalar float result).
    SumF32 { module: Module, values: Var, out: Var },
    /// `ocelot.sync(vars)` — waits for the producers of `vars` and hands
    /// ownership back to MonetDB. Inserted by the rewriter.
    Sync { vars: Vec<Var> },
    /// Marks `vars` as the plan's result set.
    Result { vars: Vec<Var> },
}

impl MalInstr {
    /// The module executing this instruction, if it has one.
    pub fn module(&self) -> Option<Module> {
        match self {
            MalInstr::Bind { module, .. }
            | MalInstr::SelectRangeI32 { module, .. }
            | MalInstr::Fetch { module, .. }
            | MalInstr::MulF32 { module, .. }
            | MalInstr::SumF32 { module, .. } => Some(*module),
            MalInstr::Sync { .. } | MalInstr::Result { .. } => None,
        }
    }

    fn with_module(mut self, new_module: Module) -> MalInstr {
        match &mut self {
            MalInstr::Bind { module, .. }
            | MalInstr::SelectRangeI32 { module, .. }
            | MalInstr::Fetch { module, .. }
            | MalInstr::MulF32 { module, .. }
            | MalInstr::SumF32 { module, .. } => *module = new_module,
            MalInstr::Sync { .. } | MalInstr::Result { .. } => {}
        }
        self
    }
}

/// A straight-line MAL program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MalPlan {
    /// The instructions in execution order.
    pub instructions: Vec<MalInstr>,
}

impl MalPlan {
    /// Creates an empty plan.
    pub fn new() -> MalPlan {
        MalPlan::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: MalInstr) -> &mut Self {
        self.instructions.push(instruction);
        self
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

/// The Ocelot query rewriter: reroutes every `algebra`/`batcalc`/`aggr`
/// instruction to the `ocelot` module and inserts an `ocelot.sync` on the
/// result variables immediately before the `result` instruction — the point
/// where ownership returns to MonetDB (paper §3.4).
pub fn rewrite_for_ocelot(plan: &MalPlan) -> MalPlan {
    let mut rewritten = MalPlan::new();
    for instruction in &plan.instructions {
        match instruction {
            MalInstr::Result { vars } => {
                rewritten.push(MalInstr::Sync { vars: vars.clone() });
                rewritten.push(instruction.clone());
            }
            other => {
                let instr = match other.module() {
                    Some(Module::Algebra) | Some(Module::Batcalc) | Some(Module::Aggr) => {
                        other.clone().with_module(Module::Ocelot)
                    }
                    _ => other.clone(),
                };
                rewritten.push(instr);
            }
        }
    }
    rewritten
}

/// Compiles a MAL program into the engine's operator DAG.
///
/// MAL registers are mutable (a variable may be reassigned); the DAG's are
/// SSA. The compiler tracks the *current* definition of every MAL variable
/// and rewires later reads to it, so reassignment compiles away. Undefined
/// variables and kind misuse (a scalar feeding a column instruction) are
/// rejected here — before anything executes.
pub fn compile(plan: &MalPlan) -> Result<Plan, PlanError> {
    let mut builder = PlanBuilder::new();
    // Current DAG register of each MAL variable.
    let mut defs: HashMap<Var, Var> = HashMap::new();
    let read = |defs: &HashMap<Var, Var>, var: Var| -> Result<Var, PlanError> {
        defs.get(&var).copied().ok_or(PlanError::UndefinedVar { var })
    };
    for instruction in &plan.instructions {
        match instruction {
            MalInstr::Bind { table, column, out, .. } => {
                let reg = builder.bind(table, column);
                defs.insert(*out, reg);
            }
            MalInstr::SelectRangeI32 { input, low, high, out, .. } => {
                let input = read(&defs, *input)?;
                let pred = Pred::RangeI32 { col: 0, low: *low, high: *high };
                let reg = builder.select(pred, &[input], None)?;
                defs.insert(*out, reg);
            }
            MalInstr::Fetch { values, oids, out, .. } => {
                let values = read(&defs, *values)?;
                let oids = read(&defs, *oids)?;
                let reg = builder.fetch(values, oids)?;
                defs.insert(*out, reg);
            }
            MalInstr::MulF32 { a, b, out, .. } => {
                let a = read(&defs, *a)?;
                let b = read(&defs, *b)?;
                let reg = builder.map(Map::Mul(Map::leaf(0), Map::leaf(1)), &[a, b])?;
                defs.insert(*out, reg);
            }
            MalInstr::SumF32 { values, out, .. } => {
                let values = read(&defs, *values)?;
                // Deferred: the sum stays a one-element device column until
                // the sync/result boundary.
                let reg = builder.sum_f32(values)?;
                defs.insert(*out, reg);
            }
            MalInstr::Sync { vars } => {
                let regs: Vec<Var> =
                    vars.iter().map(|v| read(&defs, *v)).collect::<Result<_, _>>()?;
                builder.sync(&regs)?;
            }
            MalInstr::Result { vars } => {
                let regs: Vec<Var> =
                    vars.iter().map(|v| read(&defs, *v)).collect::<Result<_, _>>()?;
                builder.result(&regs)?;
            }
        }
    }
    Ok(builder.finish())
}

/// Compiles and executes a MAL program against a backend, returning the
/// materialised result variables in the order the `result` instruction
/// lists them.
///
/// Every instruction stays deferred on backends with lazy columns:
/// reductions go through [`Backend::sum_scalar_f32`], so their results live
/// in one-element device columns, and the events threading the pipeline
/// only resolve at the `ocelot.sync` instruction (routed to
/// [`Backend::sync`]) or at result materialisation — the ownership
/// hand-back boundaries of the paper (§3.4).
pub fn execute<B: Backend>(
    plan: &MalPlan,
    backend: &B,
    catalog: &Catalog,
) -> Result<Vec<MalValue>, PlanError> {
    let compiled = compile(plan)?;
    crate::plan::execute_plan(&compiled, backend, catalog)
}

/// Builds the example plan used throughout the paper's Figure 3:
/// `SELECT sum(b * b) FROM t WHERE a BETWEEN low AND high`.
pub fn example_plan(table: &str, a: &str, b: &str, low: i32, high: i32) -> MalPlan {
    let mut plan = MalPlan::new();
    plan.push(MalInstr::Bind {
        module: Module::Bat,
        table: table.into(),
        column: a.into(),
        out: 0,
    })
    .push(MalInstr::Bind { module: Module::Bat, table: table.into(), column: b.into(), out: 1 })
    .push(MalInstr::SelectRangeI32 { module: Module::Algebra, input: 0, low, high, out: 2 })
    .push(MalInstr::Fetch { module: Module::Algebra, values: 1, oids: 2, out: 3 })
    .push(MalInstr::MulF32 { module: Module::Batcalc, a: 3, b: 3, out: 4 })
    .push(MalInstr::SumF32 { module: Module::Aggr, values: 4, out: 5 })
    .push(MalInstr::Result { vars: vec![5] });
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{MonetBackend, OcelotBackend};
    use crate::plan::PlanError;
    use ocelot_storage::{Bat, Catalog, Table};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let table = Table::new("t")
            .with_column("a", Bat::from_i32("a", (0..1_000).map(|i| i % 50).collect()).into_ref())
            .with_column(
                "b",
                Bat::from_f32("b", (0..1_000).map(|i| i as f32 * 0.1).collect()).into_ref(),
            );
        catalog.add_table(table);
        catalog
    }

    #[test]
    fn rewriter_reroutes_modules_and_inserts_sync() {
        let plan = example_plan("t", "a", "b", 10, 20);
        let rewritten = rewrite_for_ocelot(&plan);
        assert_eq!(rewritten.len(), plan.len() + 1, "one sync instruction inserted");
        // Every algebra/batcalc/aggr instruction is now an ocelot instruction.
        for instruction in &rewritten.instructions {
            if let Some(module) = instruction.module() {
                assert!(
                    module == Module::Ocelot || module == Module::Bat,
                    "unexpected module {module:?} after rewriting"
                );
            }
        }
        // The sync is placed directly before the result.
        let n = rewritten.instructions.len();
        assert!(matches!(rewritten.instructions[n - 2], MalInstr::Sync { .. }));
        assert!(matches!(rewritten.instructions[n - 1], MalInstr::Result { .. }));
        // Bind instructions keep their module.
        assert_eq!(rewritten.instructions[0].module(), Some(Module::Bat));
    }

    #[test]
    fn rewritten_plan_produces_identical_results() {
        let catalog = catalog();
        let plan = example_plan("t", "a", "b", 10, 20);
        let reference = execute(&plan, &MonetBackend::with_threads(1), &catalog).unwrap();

        let rewritten = rewrite_for_ocelot(&plan);
        for backend in [OcelotBackend::cpu(), OcelotBackend::gpu()] {
            let result = execute(&rewritten, &backend, &catalog).unwrap();
            assert_eq!(result.len(), 1);
            match (&reference[0], &result[0]) {
                (MalValue::Scalar(a), MalValue::Scalar(b)) => {
                    assert!((a - b).abs() / a.abs().max(1.0) < 1e-3, "{a} vs {b}");
                }
                other => panic!("unexpected result shapes: {other:?}"),
            }
        }
    }

    #[test]
    fn ocelot_plan_is_lazy_until_sync() {
        let catalog = catalog();
        let plan = rewrite_for_ocelot(&example_plan("t", "a", "b", 10, 20));
        let backend = OcelotBackend::cpu();
        let before = backend.context().queue().flush_count();
        let result = execute(&plan, &backend, &catalog).unwrap();
        let after = backend.context().queue().flush_count();
        assert_eq!(after, before + 1, "the whole plan flushes once, at ocelot.sync");
        assert!(matches!(result[0], MalValue::Scalar(_)));
    }

    #[test]
    fn execution_errors_are_reported() {
        let catalog = catalog();
        let mut plan = MalPlan::new();
        plan.push(MalInstr::Bind {
            module: Module::Bat,
            table: "missing".into(),
            column: "a".into(),
            out: 0,
        });
        // Unknown columns are a catalog property: compilation succeeds, the
        // run reports the error.
        assert!(compile(&plan).is_ok());
        let err = execute(&plan, &MonetBackend::with_threads(1), &catalog).unwrap_err();
        assert!(err.to_string().contains("unknown column"));

        let mut plan = MalPlan::new();
        plan.push(MalInstr::SumF32 { module: Module::Aggr, values: 42, out: 0 });
        // Undefined variables are a plan property: the *compiler* rejects
        // them, nothing executes.
        let err = compile(&plan).unwrap_err();
        assert_eq!(err, PlanError::UndefinedVar { var: 42 });
        let err = execute(&plan, &MonetBackend::with_threads(1), &catalog).unwrap_err();
        assert!(err.to_string().contains("undefined"));
    }

    #[test]
    fn scalar_results_cannot_feed_column_instructions() {
        let catalog = catalog();
        let mut plan = MalPlan::new();
        plan.push(MalInstr::Bind {
            module: Module::Bat,
            table: "t".into(),
            column: "b".into(),
            out: 0,
        })
        .push(MalInstr::SumF32 { module: Module::Aggr, values: 0, out: 1 })
        .push(MalInstr::MulF32 { module: Module::Batcalc, a: 1, b: 0, out: 2 })
        .push(MalInstr::Result { vars: vec![2] });
        // Caught at compile time — kind checking happens before execution.
        let err = compile(&plan).unwrap_err();
        assert!(err.to_string().contains("holds a scalar"), "{err}");
        let err = execute(&plan, &MonetBackend::with_threads(1), &catalog).unwrap_err();
        assert!(err.to_string().contains("holds a scalar"), "{err}");
    }

    #[test]
    fn compiled_plans_declare_their_dataflow() {
        let plan = compile(&example_plan("t", "a", "b", 10, 20)).unwrap();
        assert_eq!(plan.len(), 7, "one DAG node per MAL instruction");
        let deps = plan.dependencies();
        // bind, bind → no deps; the final result depends on the sum node.
        assert!(deps[0].is_empty() && deps[1].is_empty());
        assert_eq!(deps[6], vec![5]);
        // MAL reassignment compiles to SSA: registers never repeat.
        let mut seen = std::collections::HashSet::new();
        for node in plan.nodes() {
            for out in &node.outputs {
                assert!(seen.insert(*out), "output register {out} reassigned");
            }
        }
    }

    #[test]
    fn reassigned_scalar_vars_report_as_columns() {
        let catalog = catalog();
        let mut plan = MalPlan::new();
        plan.push(MalInstr::Bind {
            module: Module::Bat,
            table: "t".into(),
            column: "b".into(),
            out: 0,
        })
        .push(MalInstr::SumF32 { module: Module::Aggr, values: 0, out: 1 })
        // Variable 1 is overwritten by a column instruction; the result must
        // be the full column, not a one-element scalar.
        .push(MalInstr::MulF32 { module: Module::Batcalc, a: 0, b: 0, out: 1 })
        .push(MalInstr::Result { vars: vec![1] });
        let result = execute(&plan, &MonetBackend::with_threads(1), &catalog).unwrap();
        match &result[0] {
            MalValue::FloatColumn(col) => assert_eq!(col.len(), 1_000),
            other => panic!("expected a column, got {other:?}"),
        }
    }

    #[test]
    fn plan_builders() {
        let mut plan = MalPlan::new();
        assert!(plan.is_empty());
        plan.push(MalInstr::Result { vars: vec![] });
        assert_eq!(plan.len(), 1);
    }
}
