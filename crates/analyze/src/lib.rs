//! Static analysis over the Ocelot workspace: one roof for the three
//! passes that check invariants *before* (or without) running anything.
//!
//! # The three passes and what each proves
//!
//! | Pass | Lives in | Runs | Proves |
//! |------|----------|------|--------|
//! | **Plan verifier** | `ocelot_engine::analyze` (re-exported here) | before execution, pure | register definition discipline (def-before-use, single assignment), operator signatures (arity + column/scalar/grouping kinds), last-use/liveness consistency, and a conservative static flush bound — including the paper's Q6 one-flush property |
//! | **Race detector** | `ocelot_kernel::race` (types re-exported here) | at `Queue::flush` when armed | declared tier-2 mutable ranges of event-unordered kernels are pairwise disjoint, writers are ordered before readers, and every bitmap producer leaves its tail-word padding zeroed |
//! | **Contract lint** | [`lint`] (the `xlint` binary) | in CI, over the source tree | the repo-wide source contracts of the table below |
//!
//! # Diagnostic taxonomy
//!
//! All three passes share the same discipline: findings are **typed values
//! that render** (`Display`), never panics and never prose-only logs.
//!
//! * [`PlanDiagnostic`] — one verifier finding, anchored to a node index.
//! * [`RaceDiagnostic`] — one detector finding, anchored to buffer,
//!   event pair and declared ranges.
//! * [`lint::LintDiagnostic`] — one lint finding, anchored to
//!   `path:line` and a stable rule id.
//!
//! # The source contracts `xlint` enforces
//!
//! | Rule id | Contract |
//! |---------|----------|
//! | `chunk-mut-outside-kernel` | `Buffer::chunk_mut` / `Bitmap::words_mut` (unchecked tier-2 mutable aliasing) appear only in kernel-side modules: `crates/kernel/src`, `crates/core/src/ops`, `crates/core/src/primitives` |
//! | `eager-host-scalar` | no public free-function operator in `crates/core/src/{ops,primitives}` returns a host scalar eagerly — operators return device handles (`DevColumn`, `DevScalar`, …) and the *caller* picks the sync point |
//! | `float-atomic-in-ops` | no float atomic (`atomic_*_f32`/`_f64` helpers, `AtomicF32`/`AtomicF64`) in `crates/core/src/ops` — contended float updates fold in thread-interleaving order; operators fold into private per-work-group partials combined in a fixed order |
//! | `unwind-as-control-flow` | no `panic_any(`, `catch_unwind(`, `resume_unwind(`, `set_hook(` or `take_hook(` under `crates/core/src` or `crates/engine/src` outside a file's `#[cfg(test)]` module — device failures cross `Backend` as `Result<_, PlanError>` and `PlanRun::step` matches on the returned error; a panic is a bug, never a message |
//! | `item-row-walk` | no `.assigned()` under `crates/core/src` outside a file's `#[cfg(test)]` module — operator kernels walk a work-group's rows as contiguous runs (`WorkGroupCtx::runs`: one chunk under the contiguous pattern, one run per lock-step round under the strided one), never one work-item's indices, which under the strided pattern lie a launch's work-items apart |
//! | `undeclared-kernel` | every `impl Kernel for` block under `crates/core/src` outside a file's `#[cfg(test)]` module defines `fn declared_accesses` — the race detector checks only declared kernels, so an operator kernel that declares nothing is observed but never checked |
//! | `stats-without-metrics` | every file defining a `pub struct *Stats` also registers it with the unified metrics registry (`register_metrics`) |
//! | `registry-dependency` | every manifest dependency is `path = …` or `workspace = true` — the build environment has no crates.io access, so a version requirement can never resolve |
//!
//! A finding is suppressed by `// xlint:allow(<rule-id>)` on the same or
//! the preceding line (anywhere in the file for the file-level
//! `stats-without-metrics`); suppressions are deliberate, greppable
//! escape hatches.
//!
//! # Soundness caveats
//!
//! * The **race detector** checks *declared* access sets: a kernel
//!   without [`KernelAccesses`] is observed but not checked, and a wrong
//!   declaration produces wrong verdicts. Tier-1 atomic-cell traffic is
//!   exempt by the conflict rule (cells are device-atomic), which also
//!   exempts the deferred-length counter plumbing between producer and
//!   consumer kernels — a real protocol, but not a data race in this
//!   model.
//! * The **flush bound** models effective kernel-batch flushes on a
//!   unified-memory device; a simulated discrete device may add one
//!   transfer-only flush per `result` node, and host-resolving operators
//!   (joins, grouping, sorts, OID union) make the bound data-dependent
//!   rather than constant.
//! * The **lint** is a line scanner, not a parser: it sees through
//!   neither macros nor `include!`, and multi-line function signatures
//!   are joined textually. It trades completeness for zero dependencies
//!   and sub-second CI time.

pub mod lint;

pub use lint::{scan_manifest, scan_source, scan_workspace, LintDiagnostic};
pub use ocelot_engine::analyze::{verify, FlushBound, PlanDiagnostic, VerifyReport};
pub use ocelot_kernel::{
    AccessMode, AccessTier, BitmapClaim, BufferAccess, KernelAccesses, RaceDetector,
    RaceDiagnostic, RaceStats,
};
