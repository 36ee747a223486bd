//! Device-phase race detector: shadow state for the two-tier buffer
//! contract.
//!
//! The buffer module documents a contract it cannot enforce: tier-1 access
//! through the atomic [`crate::Buffer::cells`] view is always legal, while
//! tier-2 slice views ([`crate::Buffer::chunk_mut`] /
//! [`crate::Buffer::words_mut`]) are only sound when (a) concurrently
//! written ranges are pairwise disjoint and (b) writers are ordered before
//! readers by the queue's event graph. Today's in-order flush makes every
//! submission schedule *happen* to execute safely — but the contract must
//! hold for any topological order of the event graph, or the planned
//! multi-core scheduler will turn latent violations into real data races.
//!
//! The [`RaceDetector`] checks the contract at the only place it is
//! observable: the queue. Kernels opt in by overriding
//! [`crate::Kernel::declared_accesses`] with the buffer ranges they touch;
//! the queue records a [`RecordedKernel`] per armed enqueue and, at flush,
//! analyses the batch pairwise:
//!
//! * two kernels are *ordered* when one's event is reachable from the
//!   other's wait list (events completed in earlier flushes are ordered
//!   before everything in the batch);
//! * for every **unordered** pair, a tier-2 write overlapping any access of
//!   the other kernel on the same buffer raises a typed
//!   [`RaceDiagnostic`] — [`RaceDiagnostic::WriteWriteOverlap`] when both
//!   sides write, [`RaceDiagnostic::UnorderedWriteRead`] otherwise;
//! * a kernel that declares a [`BitmapClaim`] is checked *after it
//!   executes*: every bit at position `>= rows` in its bitmap's last
//!   partial word must be zero ([`RaceDiagnostic::BitmapPadding`]), the
//!   invariant popcount and materialisation consumers rely on.
//!
//! Violations are collected, never panicked on: the detector is an oracle
//! for tests and CI, not a crash box. Undeclared kernels are skipped
//! conservatively (no false positives from partial knowledge). Disarmed —
//! the default — the detector costs one relaxed atomic load per enqueue
//! and one per flush, which is what lets it stay compiled into release
//! builds (the fault layer made the same trade).

use crate::buffer::Buffer;
use crate::event::{EventId, EventRegistry};
use crate::kernel::Kernel;
use crate::scheduling::LaunchConfig;
use ocelot_trace::MetricsRegistry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// Cap on retained diagnostics: an armed detector left running across a
/// large workload must not grow without bound on a hot misdeclaration.
const MAX_DIAGNOSTICS: usize = 256;

/// Which buffer view a declared access uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessTier {
    /// Tier-1: the shared `&[AtomicU32]` cell view. Always legal; only
    /// conflicts with an overlapping tier-2 write.
    Cells,
    /// Tier-2: a `chunk_mut`/`words_mut` slice view. Requires disjointness
    /// and event ordering.
    Slice,
}

/// Read or write, from the kernel's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// The kernel only loads from the range.
    Read,
    /// The kernel stores to the range.
    Write,
}

/// One declared access: a word range of one buffer, with tier and mode.
#[derive(Debug, Clone)]
pub struct BufferAccess {
    /// Identity of the accessed buffer ([`Buffer::id`]).
    pub buffer: u64,
    /// Buffer label, carried for diagnostics.
    pub label: String,
    /// Start word (inclusive).
    pub start: usize,
    /// End word (exclusive).
    pub end: usize,
    /// Buffer view used.
    pub tier: AccessTier,
    /// Read or write.
    pub mode: AccessMode,
}

impl BufferAccess {
    fn new(
        buf: &Buffer,
        range: std::ops::Range<usize>,
        tier: AccessTier,
        mode: AccessMode,
    ) -> Self {
        BufferAccess {
            buffer: buf.id(),
            label: buf.label().to_string(),
            start: range.start,
            end: range.end.min(buf.len()),
            tier,
            mode,
        }
    }

    /// A tier-1 (atomic cells) read of `range`.
    pub fn cells_read(buf: &Buffer, range: std::ops::Range<usize>) -> Self {
        Self::new(buf, range, AccessTier::Cells, AccessMode::Read)
    }

    /// A tier-1 (atomic cells) write of `range`.
    pub fn cells_write(buf: &Buffer, range: std::ops::Range<usize>) -> Self {
        Self::new(buf, range, AccessTier::Cells, AccessMode::Write)
    }

    /// A tier-2 (slice view) read of `range`.
    pub fn slice_read(buf: &Buffer, range: std::ops::Range<usize>) -> Self {
        Self::new(buf, range, AccessTier::Slice, AccessMode::Read)
    }

    /// A tier-2 (slice view) write of `range`.
    pub fn slice_write(buf: &Buffer, range: std::ops::Range<usize>) -> Self {
        Self::new(buf, range, AccessTier::Slice, AccessMode::Write)
    }

    fn overlaps(&self, other: &BufferAccess) -> bool {
        self.buffer == other.buffer && self.start < other.end && other.start < self.end
    }

    /// Whether this access racing `other` unordered would violate the
    /// buffer contract: at least one side is a write, at least one side is
    /// a tier-2 slice view, and the word ranges overlap. Two tier-1
    /// accesses never conflict (the cells are atomic).
    fn conflicts_with(&self, other: &BufferAccess) -> bool {
        if !self.overlaps(other) {
            return false;
        }
        let some_write = self.mode == AccessMode::Write || other.mode == AccessMode::Write;
        let some_slice = self.tier == AccessTier::Slice || other.tier == AccessTier::Slice;
        some_write && some_slice
    }
}

/// A declaration that the kernel produces a selection bitmap over `rows`
/// logical rows in `buffer`. Checked when the kernel completes: bits at
/// positions `>= rows` of the last partial word must be zero.
#[derive(Debug, Clone)]
pub struct BitmapClaim {
    /// The bitmap buffer (held to inspect its words after execution).
    pub buffer: Buffer,
    /// Logical row count the bitmap covers.
    pub rows: usize,
}

/// The full access declaration of one kernel launch.
#[derive(Debug, Clone, Default)]
pub struct KernelAccesses {
    /// Declared buffer ranges.
    pub accesses: Vec<BufferAccess>,
    /// Optional bitmap-producer claim.
    pub bitmap: Option<BitmapClaim>,
}

impl KernelAccesses {
    /// A declaration from a list of accesses.
    pub fn of(accesses: Vec<BufferAccess>) -> Self {
        KernelAccesses { accesses, bitmap: None }
    }

    /// Adds a bitmap-producer claim (builder style).
    pub fn with_bitmap(mut self, buffer: &Buffer, rows: usize) -> Self {
        self.bitmap = Some(BitmapClaim { buffer: buffer.clone(), rows });
        self
    }
}

/// A detected violation of the buffer phase contract. Collected by the
/// [`RaceDetector`]; never panicked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceDiagnostic {
    /// Two event-unordered kernels both write overlapping words of the
    /// same buffer through at least one tier-2 view.
    WriteWriteOverlap {
        /// Buffer identity.
        buffer: u64,
        /// Buffer label.
        label: String,
        /// First kernel (submission order) and its word range.
        first: String,
        /// Word range `[start, end)` written by `first`.
        first_range: (usize, usize),
        /// Second kernel.
        second: String,
        /// Word range `[start, end)` written by `second`.
        second_range: (usize, usize),
    },
    /// A tier-2 write and an overlapping read are not ordered by events:
    /// the reader is not guaranteed to observe the writer under an
    /// out-of-order (multi-core) schedule.
    UnorderedWriteRead {
        /// Buffer identity.
        buffer: u64,
        /// Buffer label.
        label: String,
        /// Writing kernel.
        writer: String,
        /// Word range `[start, end)` written.
        write_range: (usize, usize),
        /// Reading kernel.
        reader: String,
        /// Word range `[start, end)` read.
        read_range: (usize, usize),
    },
    /// A declared bitmap producer completed with non-zero bits beyond the
    /// logical row count in its last partial word.
    BitmapPadding {
        /// Buffer identity.
        buffer: u64,
        /// Buffer label.
        label: String,
        /// The producing kernel.
        producer: String,
        /// Logical rows the bitmap covers.
        rows: usize,
        /// Index of the offending word.
        word: usize,
        /// The stray high bits (already masked to the padding region).
        stray_bits: u32,
    },
}

impl std::fmt::Display for RaceDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceDiagnostic::WriteWriteOverlap {
                buffer,
                label,
                first,
                first_range,
                second,
                second_range,
            } => write!(
                f,
                "write/write overlap on buffer #{buffer} `{label}`: `{first}` writes \
                 [{}, {}) while event-unordered `{second}` writes [{}, {})",
                first_range.0, first_range.1, second_range.0, second_range.1
            ),
            RaceDiagnostic::UnorderedWriteRead {
                buffer,
                label,
                writer,
                write_range,
                reader,
                read_range,
            } => write!(
                f,
                "unordered write/read on buffer #{buffer} `{label}`: `{writer}` writes \
                 [{}, {}) but `{reader}` reads [{}, {}) without an event ordering them",
                write_range.0, write_range.1, read_range.0, read_range.1
            ),
            RaceDiagnostic::BitmapPadding { buffer, label, producer, rows, word, stray_bits } => {
                write!(
                    f,
                    "bitmap padding violated on buffer #{buffer} `{label}`: producer \
                     `{producer}` left bits {stray_bits:#010x} set beyond row {rows} in word {word}"
                )
            }
        }
    }
}

/// Detector counters — the assertion surface for tests and the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceStats {
    /// Kernels enqueued while the detector was armed.
    pub kernels_observed: u64,
    /// Of those, kernels that declared their accesses.
    pub kernels_declared: u64,
    /// Unordered kernel pairs whose access sets were compared.
    pub pairs_checked: u64,
    /// Bitmap-producer completions checked.
    pub bitmap_checks: u64,
    /// Total diagnostics raised.
    pub violations: u64,
}

impl RaceStats {
    /// Projects these counters into a [`MetricsRegistry`] under
    /// `<prefix>.kernels_observed`, `<prefix>.kernels_declared`,
    /// `<prefix>.pairs_checked`, `<prefix>.bitmap_checks` and
    /// `<prefix>.violations`.
    pub fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_counter(&format!("{prefix}.kernels_observed"), self.kernels_observed);
        registry.set_counter(&format!("{prefix}.kernels_declared"), self.kernels_declared);
        registry.set_counter(&format!("{prefix}.pairs_checked"), self.pairs_checked);
        registry.set_counter(&format!("{prefix}.bitmap_checks"), self.bitmap_checks);
        registry.set_counter(&format!("{prefix}.violations"), self.violations);
    }
}

/// Shadow record of one armed kernel enqueue.
struct RecordedKernel {
    name: String,
    event: EventId,
    wait: Vec<EventId>,
    declared: Option<KernelAccesses>,
}

/// The queue's race-detector shadow state. Obtain via `Queue::race()`;
/// disarmed by default.
pub struct RaceDetector {
    armed: AtomicBool,
    recorded: Mutex<Vec<RecordedKernel>>,
    diagnostics: Mutex<Vec<RaceDiagnostic>>,
    stats: Mutex<RaceStats>,
}

impl RaceDetector {
    pub(crate) fn new() -> RaceDetector {
        RaceDetector {
            armed: AtomicBool::new(false),
            recorded: Mutex::new(Vec::new()),
            diagnostics: Mutex::new(Vec::new()),
            stats: Mutex::new(RaceStats::default()),
        }
    }

    /// Whether the detector is recording. One relaxed load — this is the
    /// entire disarmed cost at each enqueue/flush site.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Starts recording kernel access sets.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Stops recording and drops any not-yet-flushed shadow records.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
        self.recorded.lock().clear();
    }

    /// Snapshot of the collected diagnostics.
    pub fn diagnostics(&self) -> Vec<RaceDiagnostic> {
        self.diagnostics.lock().clone()
    }

    /// Drains the collected diagnostics.
    pub fn take_diagnostics(&self) -> Vec<RaceDiagnostic> {
        std::mem::take(&mut *self.diagnostics.lock())
    }

    /// Snapshot of the detector counters.
    pub fn stats(&self) -> RaceStats {
        *self.stats.lock()
    }

    /// Records one kernel enqueue (called by the queue when armed).
    pub(crate) fn record(
        &self,
        kernel: &dyn Kernel,
        launch: &LaunchConfig,
        wait: &[EventId],
        event: EventId,
    ) {
        let declared = kernel.declared_accesses(launch);
        let mut stats = self.stats.lock();
        stats.kernels_observed += 1;
        if declared.is_some() {
            stats.kernels_declared += 1;
        }
        drop(stats);
        self.recorded.lock().push(RecordedKernel {
            name: kernel.name().to_string(),
            event,
            wait: wait.to_vec(),
            declared,
        });
    }

    fn push_diagnostic(&self, diag: RaceDiagnostic) {
        self.stats.lock().violations += 1;
        let mut diags = self.diagnostics.lock();
        if diags.len() < MAX_DIAGNOSTICS {
            diags.push(diag);
        }
    }

    /// Takes the recorded batch for the flush that is about to execute and
    /// runs the pairwise phase analysis. Returns the bitmap claims keyed by
    /// completing event so the flush loop can verify them post-execution.
    pub(crate) fn analyze_batch(
        &self,
        events: &EventRegistry,
    ) -> Vec<(EventId, String, BitmapClaim)> {
        let batch: Vec<RecordedKernel> = std::mem::take(&mut *self.recorded.lock());
        if batch.is_empty() {
            return Vec::new();
        }

        // Transitive happens-before within the batch. Wait-list events that
        // are already complete belong to earlier flushes and order their
        // dependents after the whole history — only intra-batch edges need
        // the closure. `pred[i]` holds the batch indices ordered before
        // kernel `i`. In-order submission guarantees edges point backwards,
        // so one forward sweep computes the closure.
        let index_of = |event: EventId| batch.iter().position(|rk| rk.event == event);
        let mut pred: Vec<Vec<bool>> = Vec::with_capacity(batch.len());
        for (i, rk) in batch.iter().enumerate() {
            let mut row = vec![false; batch.len()];
            for dep in &rk.wait {
                if events.is_complete(*dep) {
                    continue;
                }
                if let Some(j) = index_of(*dep) {
                    if j < i {
                        row[j] = true;
                        for (k, reachable) in pred[j].iter().enumerate() {
                            if *reachable {
                                row[k] = true;
                            }
                        }
                    }
                }
            }
            pred.push(row);
        }

        let mut pairs_checked = 0u64;
        for i in 0..batch.len() {
            let Some(a) = &batch[i].declared else { continue };
            for j in (i + 1)..batch.len() {
                let Some(b) = &batch[j].declared else { continue };
                if pred[j][i] || pred[i][j] {
                    continue; // ordered by events — any schedule preserves it
                }
                pairs_checked += 1;
                for aa in &a.accesses {
                    for ba in &b.accesses {
                        if !aa.conflicts_with(ba) {
                            continue;
                        }
                        let diag = if aa.mode == AccessMode::Write && ba.mode == AccessMode::Write {
                            RaceDiagnostic::WriteWriteOverlap {
                                buffer: aa.buffer,
                                label: aa.label.clone(),
                                first: batch[i].name.clone(),
                                first_range: (aa.start, aa.end),
                                second: batch[j].name.clone(),
                                second_range: (ba.start, ba.end),
                            }
                        } else {
                            let (writer, wr, reader, rr) = if aa.mode == AccessMode::Write {
                                (&batch[i].name, aa, &batch[j].name, ba)
                            } else {
                                (&batch[j].name, ba, &batch[i].name, aa)
                            };
                            RaceDiagnostic::UnorderedWriteRead {
                                buffer: aa.buffer,
                                label: aa.label.clone(),
                                writer: writer.clone(),
                                write_range: (wr.start, wr.end),
                                reader: reader.clone(),
                                read_range: (rr.start, rr.end),
                            }
                        };
                        self.push_diagnostic(diag);
                    }
                }
            }
        }
        self.stats.lock().pairs_checked += pairs_checked;

        batch
            .into_iter()
            .filter_map(|rk| {
                let claim = rk.declared.and_then(|d| d.bitmap)?;
                Some((rk.event, rk.name, claim))
            })
            .collect()
    }

    /// Verifies a bitmap-producer claim after its kernel executed: every
    /// bit at position `>= rows` in the last partial word must be zero.
    pub(crate) fn check_bitmap(&self, producer: &str, claim: &BitmapClaim) {
        self.stats.lock().bitmap_checks += 1;
        let rows = claim.rows;
        if rows.is_multiple_of(32) {
            return; // no partial word, nothing the invariant constrains
        }
        let word = rows / 32;
        if word >= claim.buffer.len() {
            return;
        }
        let mask = !0u32 << (rows % 32);
        let stray = claim.buffer.get_u32(word) & mask;
        if stray != 0 {
            self.push_diagnostic(RaceDiagnostic::BitmapPadding {
                buffer: claim.buffer.id(),
                label: claim.buffer.label().to_string(),
                producer: producer.to_string(),
                rows,
                word,
                stray_bits: stray,
            });
        }
    }
}

impl std::fmt::Debug for RaceDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaceDetector")
            .field("armed", &self.armed())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    #[test]
    fn overlap_and_conflict_rules() {
        let device = Device::cpu_sequential();
        let a = device.alloc(64, "a").unwrap();
        let b = device.alloc(64, "b").unwrap();

        let w1 = BufferAccess::slice_write(&a, 0..32);
        let w2 = BufferAccess::slice_write(&a, 16..48);
        let w3 = BufferAccess::slice_write(&a, 32..64);
        let other = BufferAccess::slice_write(&b, 0..64);
        assert!(w1.conflicts_with(&w2));
        assert!(!w1.conflicts_with(&w3), "touching ranges do not overlap");
        assert!(!w1.conflicts_with(&other), "different buffers never conflict");

        let r = BufferAccess::slice_read(&a, 0..8);
        assert!(w1.conflicts_with(&r));
        let cr = BufferAccess::cells_read(&a, 0..8);
        assert!(w1.conflicts_with(&cr), "tier-2 write vs tier-1 read still conflicts");
        let cw1 = BufferAccess::cells_write(&a, 0..8);
        let cw2 = BufferAccess::cells_write(&a, 4..12);
        assert!(!cw1.conflicts_with(&cw2), "tier-1 atomics never conflict with each other");
        assert!(!r.conflicts_with(&cr), "two reads never conflict");
    }

    #[test]
    fn access_range_is_clamped_to_the_buffer() {
        let device = Device::cpu_sequential();
        let a = device.alloc(8, "a").unwrap();
        let acc = BufferAccess::slice_write(&a, 0..1000);
        assert_eq!(acc.end, 8);
    }

    #[test]
    fn bitmap_claim_flags_stray_padding_bits() {
        let device = Device::cpu_sequential();
        let buf = device.alloc(2, "bm").unwrap();
        let detector = RaceDetector::new();

        // 40 rows: word 1 may only use bits 0..8.
        buf.set_u32(1, 0x0000_00ff);
        detector.check_bitmap("producer", &BitmapClaim { buffer: buf.clone(), rows: 40 });
        assert!(detector.diagnostics().is_empty());

        buf.set_u32(1, 0x0000_01ff); // bit 8 = row 40: out of range
        detector.check_bitmap("producer", &BitmapClaim { buffer: buf.clone(), rows: 40 });
        let diags = detector.take_diagnostics();
        assert_eq!(diags.len(), 1);
        match &diags[0] {
            RaceDiagnostic::BitmapPadding { rows, word, stray_bits, .. } => {
                assert_eq!((*rows, *word), (40, 1));
                assert_eq!(*stray_bits, 0x100);
            }
            other => panic!("unexpected diagnostic {other:?}"),
        }
        assert_eq!(detector.stats().bitmap_checks, 2);
        assert_eq!(detector.stats().violations, 1);
    }

    #[test]
    fn stats_project_into_the_registry() {
        let stats = RaceStats {
            kernels_observed: 5,
            kernels_declared: 4,
            pairs_checked: 3,
            bitmap_checks: 2,
            violations: 1,
        };
        let mut reg = ocelot_trace::MetricsRegistry::new();
        stats.register_metrics("ocelot.race", &mut reg);
        assert_eq!(reg.counter("ocelot.race.kernels_observed"), Some(5));
        assert_eq!(reg.counter("ocelot.race.violations"), Some(1));
    }
}
