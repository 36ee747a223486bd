//! The repo contract lint engine behind the `xlint` binary (rule table
//! and suppression syntax in the crate docs).
//!
//! Deliberately a line scanner over `std` only: no syn, no regex crate,
//! no filesystem watcher. Each rule is a pure function from
//! (repo-relative path, file content) to findings, so the fixture tests
//! and the binary share one code path.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding: where, which rule, and what the line did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line the finding anchors to.
    pub line: usize,
    /// Stable rule id (the `xlint:allow` key).
    pub rule: &'static str,
    /// Human-readable statement of the violation.
    pub message: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Directories whose modules may use the unchecked tier-2 mutable chunk
/// APIs (the kernel side of the ownership contract).
const KERNEL_SIDE: &[&str] =
    &["crates/kernel/src", "crates/core/src/ops", "crates/core/src/primitives"];

/// Return types that count as eagerly-materialised host scalars for the
/// `eager-host-scalar` rule.
const HOST_SCALARS: &[&str] = &["f32", "f64", "i32", "i64", "u32", "u64", "usize", "bool"];

/// Directories where failures are values: the `unwind-as-control-flow`
/// rule's scope. (`crates/kernel/src/thread_pool.rs` replays worker panics
/// for the scoped-borrow safety of `for_each_slice` and is out of scope by
/// path.)
const ERRORS_AS_VALUES: &[&str] = &["crates/core/src", "crates/engine/src"];

/// The calls that turn a panic into a message or its delivery into policy.
const UNWIND_CALLS: &[&str] =
    &["panic_any(", "catch_unwind(", "resume_unwind(", "set_hook(", "take_hook("];

/// The operator library: kernels walk a work-group's rows as runs
/// (`WorkGroupCtx::runs`), never one work-item's indices, and declare the
/// buffer ranges they touch — the scope of the `item-row-walk` and
/// `undeclared-kernel` rules.
const CORE_SRC: &str = "crates/core/src";

/// The TPC-H oracle, and the crates it may not name: it checks the engine's
/// results, so it shares no code with the engine — the scope and the
/// needles of the `reference-shares-engine-code` rule.
const REFERENCE: &str = "crates/tpch/src/reference.rs";
const ENGINE_CRATES: &[&str] = &["ocelot_engine", "ocelot_core", "ocelot_kernel", "ocelot_monet"];

/// Whether `code` names a float atomic: an `atomic_…_f32`/`…_f64` helper
/// (the CAS-emulated family `ocelot_kernel::atomic` used to export) or an
/// `AtomicF32`/`AtomicF64` type.
fn names_float_atomic(code: &str) -> bool {
    if code.contains("AtomicF32") || code.contains("AtomicF64") {
        return true;
    }
    code.match_indices("atomic_").any(|(start, _)| {
        let ident: &str = code[start..]
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .next()
            .unwrap_or_default();
        ident.ends_with("_f32") || ident.ends_with("_f64")
    })
}

/// Whether `code` opens an `impl Kernel for …` block (the trait named bare
/// or by path, generic or not).
fn implements_kernel(code: &str) -> bool {
    code.starts_with("impl") && (code.contains(" Kernel for ") || code.contains("::Kernel for "))
}

fn has_allow(lines: &[&str], index: usize, rule: &str) -> bool {
    let marker = format!("xlint:allow({rule})");
    lines[index].contains(&marker)
        || (index > 0
            && lines[index - 1].trim_start().starts_with("//")
            && lines[index - 1].contains(&marker))
}

fn normalized(path: &str) -> String {
    path.replace('\\', "/")
}

/// Scans one Rust source file. `rel_path` is the repo-relative path — the
/// kernel-side allowance and the core-operator scope are path predicates,
/// so fixtures pass a claimed path alongside fixture content.
pub fn scan_source(rel_path: &str, content: &str) -> Vec<LintDiagnostic> {
    let path = normalized(rel_path);
    let lines: Vec<&str> = content.lines().collect();
    let mut findings = Vec::new();

    let kernel_side = KERNEL_SIDE.iter().any(|prefix| path.starts_with(prefix));
    let core_ops = path.starts_with("crates/core/src/ops");
    let core_operator_module = core_ops || path.starts_with("crates/core/src/primitives");
    let errors_as_values = ERRORS_AS_VALUES.iter().any(|prefix| path.starts_with(prefix));
    let core_src = path.starts_with(CORE_SRC);
    let reference = path == REFERENCE;
    // A file's unit tests are one `#[cfg(test)] mod tests` at its end.
    let tests_from = lines.iter().position(|line| *line == "#[cfg(test)]").unwrap_or(lines.len());

    for (index, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or(line);

        if errors_as_values
            && index < tests_from
            && UNWIND_CALLS.iter().any(|call| code.contains(call))
            && !has_allow(&lines, index, "unwind-as-control-flow")
        {
            findings.push(LintDiagnostic {
                path: path.clone(),
                line: index + 1,
                rule: "unwind-as-control-flow",
                message: "panic payload, catch site or panic hook outside a test module — \
                          failures cross `Backend` as `Result<_, PlanError>` and \
                          `PlanRun::step` matches on the returned error"
                    .to_string(),
            });
        }

        if reference
            && ENGINE_CRATES.iter().any(|name| code.contains(name))
            && !has_allow(&lines, index, "reference-shares-engine-code")
        {
            findings.push(LintDiagnostic {
                path: path.clone(),
                line: index + 1,
                rule: "reference-shares-engine-code",
                message: "the TPC-H reference names an engine crate — an oracle that runs the \
                          code it checks agrees with it by construction; read the columns \
                          through `ocelot_storage` and compute with `std`"
                    .to_string(),
            });
        }

        if core_src
            && index < tests_from
            && code.contains(".assigned()")
            && !has_allow(&lines, index, "item-row-walk")
        {
            findings.push(LintDiagnostic {
                path: path.clone(),
                line: index + 1,
                rule: "item-row-walk",
                message: "per-work-item row walk in an operator — under the strided pattern \
                          one item's rows lie a launch's work-items apart; walk the group's \
                          rows as contiguous runs (`for run in group.runs(n)`)"
                    .to_string(),
            });
        }

        // An impl block ends at the first closing brace in column 0.
        if core_src
            && index < tests_from
            && implements_kernel(code)
            && !has_allow(&lines, index, "undeclared-kernel")
        {
            let end = lines[index..]
                .iter()
                .position(|line| *line == "}")
                .map_or(lines.len(), |e| index + e);
            if !lines[index..end].iter().any(|line| line.contains("fn declared_accesses")) {
                findings.push(LintDiagnostic {
                    path: path.clone(),
                    line: index + 1,
                    rule: "undeclared-kernel",
                    message: "operator kernel without `declared_accesses` — the race detector \
                              observes it but cannot check it; declare every buffer range it \
                              reads and writes, with its tier"
                        .to_string(),
                });
            }
        }

        if !kernel_side
            // xlint:allow(chunk-mut-outside-kernel) — the needles themselves.
            && (code.contains(".chunk_mut(") || code.contains(".words_mut("))
            && !has_allow(&lines, index, "chunk-mut-outside-kernel")
        {
            findings.push(LintDiagnostic {
                path: path.clone(),
                line: index + 1,
                rule: "chunk-mut-outside-kernel",
                message: "unchecked tier-2 mutable chunk access outside a kernel-side module \
                          (allowed: crates/kernel/src, crates/core/src/{ops,primitives})"
                    .to_string(),
            });
        }

        if core_ops && names_float_atomic(code) && !has_allow(&lines, index, "float-atomic-in-ops")
        {
            findings.push(LintDiagnostic {
                path: path.clone(),
                line: index + 1,
                rule: "float-atomic-in-ops",
                message: "float atomic in an operator — the order of contended float updates \
                          is the thread interleaving; fold into private per-work-group \
                          partials combined in a fixed order (see ops/aggregate.rs)"
                    .to_string(),
            });
        }

        // Public free-function operators returning host scalars: join the
        // signature until its body opens, then inspect the return type.
        if core_operator_module && line.starts_with("pub fn") {
            let mut signature = String::new();
            for continuation in &lines[index..] {
                let code = continuation.split("//").next().unwrap_or(continuation);
                signature.push_str(code.trim());
                signature.push(' ');
                if code.contains('{') || code.contains(';') {
                    break;
                }
            }
            let returns = signature
                .split("->")
                .nth(1)
                .map(|r| r.trim().trim_start_matches("Result<").trim_start_matches("Option<"));
            let eager = returns.is_some_and(|r| {
                HOST_SCALARS.iter().any(|scalar| {
                    r == *scalar
                        || r.starts_with(&format!("{scalar} "))
                        || r.starts_with(&format!("{scalar}>"))
                        || r.starts_with(&format!("{scalar},"))
                        || r.starts_with(&format!("{scalar}{{"))
                })
            });
            if eager && !has_allow(&lines, index, "eager-host-scalar") {
                findings.push(LintDiagnostic {
                    path: path.clone(),
                    line: index + 1,
                    rule: "eager-host-scalar",
                    message: "public core operator returns a host scalar eagerly — return a \
                              device handle and let the caller pick the sync point"
                        .to_string(),
                });
            }
        }
    }

    // File-level: a `pub struct *Stats` without metrics registration.
    let defines_stats = lines.iter().position(|line| {
        let code = line.split("//").next().unwrap_or(line);
        code.trim_start()
            .strip_prefix("pub struct ")
            .and_then(|rest| rest.split(|c: char| !c.is_alphanumeric() && c != '_').next())
            .is_some_and(|name| name.ends_with("Stats"))
    });
    if let Some(index) = defines_stats {
        let registered = content.contains("register_metrics");
        let allowed = content.contains("xlint:allow(stats-without-metrics)");
        if !registered && !allowed {
            findings.push(LintDiagnostic {
                path: path.clone(),
                line: index + 1,
                rule: "stats-without-metrics",
                message: "file defines a `*Stats` struct but never calls/implements \
                          `register_metrics` — every stats surface feeds the unified metrics \
                          registry"
                    .to_string(),
            });
        }
    }

    findings
}

/// Scans one `Cargo.toml`: inside dependency sections, every entry must
/// resolve in-repo (`path = …` or `workspace = true`).
pub fn scan_manifest(rel_path: &str, content: &str) -> Vec<LintDiagnostic> {
    let path = normalized(rel_path);
    let mut findings = Vec::new();
    let mut in_dependencies = false;
    for (index, line) in content.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            let section = trimmed.trim_matches(['[', ']']);
            in_dependencies = section.ends_with("dependencies");
            continue;
        }
        if !in_dependencies || trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let Some((_, spec)) = trimmed.split_once('=') else { continue };
        let resolves_in_repo = spec.contains("path") || spec.contains("workspace");
        if !resolves_in_repo && !trimmed.contains("xlint:allow(registry-dependency)") {
            findings.push(LintDiagnostic {
                path: path.clone(),
                line: index + 1,
                rule: "registry-dependency",
                message: format!(
                    "dependency `{}` is neither `path = …` nor `workspace = true` — the build \
                     environment cannot resolve crates.io requirements",
                    trimmed.split('=').next().unwrap_or(trimmed).trim()
                ),
            });
        }
    }
    findings
}

fn collect_rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // `target/` never appears under a crate's `src/`, but guard
            // against stray build output anyway.
            if path.file_name().is_some_and(|name| name == "target") {
                continue;
            }
            collect_rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Scans the whole workspace under `root`: every `src/` tree of every
/// member (crates, tests, examples, shims) plus every manifest. Fixture
/// directories (`crates/analyze/fixtures`) are excluded — they exist to
/// fail.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<LintDiagnostic>> {
    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for member_dir in ["crates", "shims", "tests", "examples"] {
        let base = root.join(member_dir);
        if !base.is_dir() {
            continue;
        }
        // `tests` and `examples` are themselves crates; `crates`/`shims`
        // hold one crate per subdirectory.
        let members: Vec<PathBuf> = if base.join("Cargo.toml").is_file() {
            vec![base]
        } else {
            fs::read_dir(&base)?.flatten().map(|entry| entry.path()).collect()
        };
        for member in members {
            let manifest = member.join("Cargo.toml");
            if manifest.is_file() {
                let rel = manifest.strip_prefix(root).unwrap_or(&manifest).to_string_lossy();
                findings.extend(scan_manifest(&rel, &fs::read_to_string(&manifest)?));
            }
            collect_rust_sources(&member.join("src"), &mut sources);
        }
    }
    let manifest = root.join("Cargo.toml");
    if manifest.is_file() {
        findings.extend(scan_manifest("Cargo.toml", &fs::read_to_string(&manifest)?));
    }
    for source in sources {
        let rel = source.strip_prefix(root).unwrap_or(&source).to_string_lossy().to_string();
        if rel.starts_with("crates/analyze/fixtures") {
            continue;
        }
        findings.extend(scan_source(&rel, &fs::read_to_string(&source)?));
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// The fixture suite: (file under `crates/analyze/fixtures/`, path the
/// scanner should pretend it has, rule it must trip). `xlint --self-test`
/// and the unit tests both walk this table.
pub const FIXTURES: &[(&str, &str, &str)] = &[
    ("chunk_mut_in_engine.rs", "crates/engine/src/bad.rs", "chunk-mut-outside-kernel"),
    ("eager_scalar_op.rs", "crates/core/src/ops/bad.rs", "eager-host-scalar"),
    ("stats_no_metrics.rs", "crates/core/src/bad.rs", "stats-without-metrics"),
    ("float_atomic_in_ops.rs", "crates/core/src/ops/bad.rs", "float-atomic-in-ops"),
    ("unwind_in_engine.rs", "crates/engine/src/bad.rs", "unwind-as-control-flow"),
    ("item_row_walk.rs", "crates/core/src/primitives/bad.rs", "item-row-walk"),
    ("undeclared_kernel.rs", "crates/core/src/ops/bad.rs", "undeclared-kernel"),
    ("reference_uses_engine.rs", REFERENCE, "reference-shares-engine-code"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_mut_is_confined_to_kernel_side_modules() {
        // xlint:allow(chunk-mut-outside-kernel) — test payload.
        let body = "let out = unsafe { buffer.chunk_mut(0, 4) };\n";
        assert!(scan_source("crates/kernel/src/queue.rs", body).is_empty());
        assert!(scan_source("crates/core/src/ops/calc.rs", body).is_empty());
        let findings = scan_source("crates/engine/src/session.rs", body);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "chunk-mut-outside-kernel");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn commented_and_allowed_chunk_mut_pass() {
        let commented = "// the executor never calls chunk_mut(...) directly\n";
        assert!(scan_source("crates/engine/src/plan.rs", commented).is_empty());
        let allowed =
            "let out = unsafe { b.chunk_mut(0, 4) }; // xlint:allow(chunk-mut-outside-kernel)\n";
        assert!(scan_source("crates/engine/src/plan.rs", allowed).is_empty());
    }

    #[test]
    fn eager_scalar_operators_are_flagged_in_core_only() {
        let eager = "pub fn sum_now(ctx: &Ctx, col: &DevColumn<f32>) -> Result<f32> {\n";
        let findings = scan_source("crates/core/src/ops/aggregate.rs", eager);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "eager-host-scalar");
        // Same signature outside the operator library is fine (hosts sync
        // wherever they like).
        assert!(scan_source("crates/engine/src/session.rs", eager).is_empty());
        // Methods (indented) are accessors, not operator entry points.
        let accessor = "    pub fn len(&self) -> usize {\n";
        assert!(scan_source("crates/core/src/ops/join.rs", accessor).is_empty());
        // Device-handle returns are the contract.
        let lazy = "pub fn sum_f32(ctx: &Ctx, col: &DevColumn<f32>) -> Result<DevScalar<f32>> {\n";
        assert!(scan_source("crates/core/src/ops/aggregate.rs", lazy).is_empty());
    }

    #[test]
    fn float_atomics_are_rejected_in_operators_only() {
        let call = "            atomic_add_f32(cell, value);\n";
        let findings = scan_source("crates/core/src/ops/aggregate.rs", call);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "float-atomic-in-ops");
        assert_eq!(
            scan_source("crates/core/src/ops/x.rs", "let a = AtomicF64::new(0.0);\n").len(),
            1
        );
        // Integer atomics and the CAS primitive are the tier-1 contract.
        let integer = "let prev = atomic_cas_u32(cell, EMPTY, row); atomic_add_i32(cell, 1);\n";
        assert!(scan_source("crates/core/src/ops/hash_table.rs", integer).is_empty());
        // Outside the operator library the rule does not apply; comments
        // and explicit allows pass.
        assert!(scan_source("crates/kernel/src/atomic.rs", call).is_empty());
        assert!(scan_source("crates/core/src/ops/a.rs", "// no atomic_add_f32 here\n").is_empty());
        let allowed = "atomic_max_f32(cell, v); // xlint:allow(float-atomic-in-ops)\n";
        assert!(scan_source("crates/core/src/ops/a.rs", allowed).is_empty());
    }

    #[test]
    fn unwinds_are_not_control_flow_in_core_and_engine() {
        for call in UNWIND_CALLS {
            let line = format!("    let x = panic::{call}f);\n");
            assert_eq!(scan_source("crates/core/src/cache.rs", &line).len(), 1, "{call}");
            // The thread pool's catch-and-replay is out of scope by path.
            assert!(scan_source("crates/kernel/src/thread_pool.rs", &line).is_empty(), "{call}");
        }
        // Unit tests may catch a panic to assert on it; comments and
        // explicit allows pass.
        let raise = "        std::panic::panic_any(DeviceOom { requested, available })\n";
        let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{raise}}}\n");
        assert!(scan_source("crates/engine/src/plan.rs", &in_tests).is_empty());
        let before_tests = format!("{raise}#[cfg(test)]\nmod tests {{}}\n");
        let findings = scan_source("crates/engine/src/plan.rs", &before_tests);
        assert_eq!(findings.len(), 1);
        assert_eq!((findings[0].rule, findings[0].line), ("unwind-as-control-flow", 1));
        assert!(scan_source("crates/core/src/a.rs", "// no catch_unwind(...) here\n").is_empty());
        let allowed = "panic::set_hook(hook); // xlint:allow(unwind-as-control-flow)\n";
        assert!(scan_source("crates/core/src/a.rs", allowed).is_empty());
    }

    #[test]
    fn the_reference_names_no_engine_crate() {
        for line in [
            "use ocelot_engine::Session;\n",
            "use ocelot_core::ops::select;\n",
            "let queue = ocelot_kernel::Queue::new();\n",
            "    let rows = ocelot_monet::sequential::select_range_i32(&a, 0, 9);\n",
        ] {
            let findings = scan_source(REFERENCE, line);
            assert_eq!(findings.len(), 1, "{line}");
            assert_eq!((findings[0].rule, findings[0].line), ("reference-shares-engine-code", 1));
            // The query ports may use the engine; that is what they are for.
            assert!(scan_source("crates/tpch/src/queries.rs", line).is_empty());
        }
        // Storage, std, comments and explicit allows pass.
        let storage = "use ocelot_storage::Catalog;\nuse std::collections::BTreeMap;\n";
        assert!(scan_source(REFERENCE, storage).is_empty());
        assert!(scan_source(REFERENCE, "//! shares nothing with `ocelot_engine`\n").is_empty());
        let allowed = "use ocelot_core::X; // xlint:allow(reference-shares-engine-code)\n";
        assert!(scan_source(REFERENCE, allowed).is_empty());
    }

    #[test]
    fn item_row_walks_are_flagged_in_core_only() {
        let walk = "            for idx in item.assigned() {\n";
        for path in ["crates/core/src/primitives/gather.rs", "crates/core/src/ops/join.rs"] {
            let findings = scan_source(path, walk);
            assert_eq!(findings.len(), 1, "{path}");
            assert_eq!((findings[0].rule, findings[0].line), ("item-row-walk", 1));
        }
        // The kernel crate defines the per-item walk and tests `runs`
        // against it; examples may show it.
        assert!(scan_source("crates/kernel/src/kernel.rs", walk).is_empty());
        assert!(scan_source("examples/custom_kernel.rs", walk).is_empty());
        // Unit tests, comments and explicit allows pass.
        let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{walk}}}\n");
        assert!(scan_source("crates/core/src/ops/join.rs", &in_tests).is_empty());
        assert!(scan_source("crates/core/src/a.rs", "// not item.assigned() here\n").is_empty());
        let allowed = "for i in item.assigned() {} // xlint:allow(item-row-walk)\n";
        assert!(scan_source("crates/core/src/a.rs", allowed).is_empty());
    }

    #[test]
    fn undeclared_kernels_are_flagged_in_core_only() {
        let kernel = |body: &str| {
            format!("impl<T: DevWord> Kernel for ScaleKernel<T> {{\n    fn name(&self) -> &str {{\n        \"scale\"\n    }}\n{body}}}\n")
        };
        let undeclared = kernel("");
        for path in ["crates/core/src/ops/calc.rs", "crates/core/src/primitives/gather.rs"] {
            let findings = scan_source(path, &undeclared);
            assert_eq!(findings.len(), 1, "{path}");
            assert_eq!((findings[0].rule, findings[0].line), ("undeclared-kernel", 1));
        }
        let declared = kernel("    fn declared_accesses(&self, _: &LaunchConfig) -> Option<KernelAccesses> {\n        None\n    }\n");
        assert!(scan_source("crates/core/src/ops/calc.rs", &declared).is_empty());
        // A declaration in the *next* impl block does not count.
        let next = format!("{undeclared}{declared}");
        assert_eq!(scan_source("crates/core/src/ops/calc.rs", &next).len(), 1);
        // Kernels outside the operator library (the kernel crate's own
        // tests and examples) and in unit tests pass, as do explicit allows.
        assert!(scan_source("crates/kernel/src/queue.rs", &undeclared).is_empty());
        assert!(scan_source("examples/custom_kernel.rs", &undeclared).is_empty());
        let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{undeclared}}}\n");
        assert!(scan_source("crates/core/src/ops/calc.rs", &in_tests).is_empty());
        let allowed = format!("// xlint:allow(undeclared-kernel)\n{undeclared}");
        assert!(scan_source("crates/core/src/ops/calc.rs", &allowed).is_empty());
    }

    #[test]
    fn multi_line_signatures_are_joined() {
        let eager = "pub fn resolve_len(\n    ctx: &Ctx,\n    col: &DevColumn<u32>,\n) -> Result<usize> {\n";
        assert_eq!(scan_source("crates/core/src/primitives/bitmap.rs", eager).len(), 1);
    }

    #[test]
    fn stats_structs_must_register_metrics() {
        let missing = "pub struct IdleStats {\n    pub naps: u64,\n}\n";
        let findings = scan_source("crates/core/src/idle.rs", missing);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "stats-without-metrics");
        let registered =
            format!("{missing}impl IdleStats {{ pub fn register_metrics(&self) {{}} }}\n");
        assert!(scan_source("crates/core/src/idle.rs", &registered).is_empty());
    }

    #[test]
    fn manifest_dependencies_must_resolve_in_repo() {
        let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nocelot-core = { workspace = true }\nserde = \"1.0\"\n\n[dev-dependencies]\nlocal = { path = \"../local\" }\n";
        let findings = scan_manifest("crates/x/Cargo.toml", manifest);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "registry-dependency");
        assert!(findings[0].message.contains("serde"));
    }

    #[test]
    fn whole_repo_is_clean() {
        // CI runs the binary; this keeps `cargo test` self-sufficient.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = scan_workspace(&root).expect("workspace scan");
        assert!(
            findings.is_empty(),
            "repo violates its own source contracts:\n{}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn fixtures_trip_their_rules() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        for (fixture, claimed_path, rule) in super::FIXTURES {
            let content = fs::read_to_string(root.join(fixture)).expect(fixture);
            let findings = scan_source(claimed_path, &content);
            assert!(
                findings.iter().any(|f| f.rule == *rule),
                "fixture {fixture} should trip {rule}, got {findings:?}"
            );
        }
    }
}
